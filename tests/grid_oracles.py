"""Test oracles for the sampling grids: list-based walks for the mass walk of
``probability.validate_density``, ``funcs.check_convexity``,
``quadrature.generalized_trapezoid`` and ``pointwise._split_bracket``.

Each builds the list of its grid points, reads every value it needs (the
interior points of a partition twice, a slope at a split point equal to an
end twice, every point of the mass grid again at each size) and only then
combines them.  The one-pass library walks take the same reads, less the
repeats (the mass walk in the order its grid doubles), and the same
floating-point operations, so they must agree with these bit for bit,
witness included.

:func:`remainder_enclosure` is the per-cell composite bracket as it was
before the library read the slope oracles directly: each cell reads its
slopes through the checked wrappers ``f.d_plus`` and ``f.d_minus``, a node's
slope once for each cell it ends, and passes ``_ordered``.
"""

import math

from trapbound.funcs import _CONVEXITY_GRIDPOINTS, DEFAULT_TOL, ConvexityReport
from trapbound.pointwise import Enclosure, _gap_bracket, _ordered, _split_bracket
from trapbound.probability import _MASS_CELLS, _MASS_CELLS_MAX, _MASS_SHARE, _SAMPLE_SLACK, _U
from trapbound.quadrature import _check_domain


def mass_bracket(d, x=None) -> tuple:
    """Monotone Riemann bracket of the mass of density ``d``, rounded outward,
    on the grid of ``_MASS_CELLS`` cells doubled until the walk's rule stops
    it: each grid read in full, its reads in the order of the points checked,
    and f(x+), f(x-) for the sizing taken at the nearest grid point, its
    weights (b - x)^2 and (x - a)^2 over (b - a)^2."""
    a, b = d.domain.a, d.domain.b
    x = d.domain.midpoint if x is None else x
    n = _MASS_CELLS
    while True:
        xs = [a] + [a + (b - a) * (i / n) for i in range(1, n)] + [b]
        right = [d.right_limit(u) for u in xs[:-1]]
        left = [d.left_limit(v) for v in xs[1:]]
        ordered = [y for pair in zip(right, left) for y in pair]
        top = max(map(abs, ordered))
        slack = _SAMPLE_SLACK * max(1.0, top)
        ok = all(y >= -slack for y in ordered) and all(v >= u - slack for u, v in zip(ordered, ordered[1:]))
        ws = [v - u for u, v in zip(xs, xs[1:])]
        lo = sum(fu * w for fu, w in zip(right, ws))
        hi = sum(fv * w for fv, w in zip(left, ws))
        r = (n + 2) * _U / (1 - (n + 2) * _U) * top * (b - a)
        bracket = (math.nextafter(lo - r, -math.inf), math.nextafter(hi + r, math.inf))
        # an inverted bracket refutes monotonicity, as a read that falls does
        if not (ok and bracket[0] <= bracket[1] < math.inf) or n >= _MASS_CELLS_MAX:
            return bracket
        k = (x - a) / (b - a) * n
        i = round(k) if 0 <= k <= n else (0 if k < 0 else n)
        dpx = right[i] if i < n else left[-1]
        dmx = left[i - 1] if i > 0 else right[0]
        wl, wr = ((b - x) / (b - a)) ** 2, ((x - a) / (b - a)) ** 2
        t_lo, t_hi = _gap_bracket(wl, wr, dpx, dmx, right[0], left[-1])
        if (abs(t_lo) + abs(t_hi)) * (hi - lo) <= (t_hi - t_lo) * bracket[0] * _MASS_SHARE:
            return bracket
        n *= 2


def check_convexity(f) -> ConvexityReport:
    """Secant check on the convexity grid, from the list of its values."""
    a, b = f.domain.a, f.domain.b
    n = _CONVEXITY_GRIDPOINTS
    ts = [a + (b - a) * i / (n - 1) for i in range(n)]
    ts[-1] = b
    values = [f(t) for t in ts]

    finite = [abs(v) for v in values if math.isfinite(v)]
    scale = max(1.0, max(finite)) if finite else 1.0
    slack = DEFAULT_TOL * scale

    secants = [(t1, t2, (v2 - v1) / (t2 - t1))
               for t1, t2, v1, v2 in zip(ts, ts[1:], values, values[1:]) if t1 != t2]
    worst = -math.inf
    witness = None
    for (t1, t2, s12), (_, t3, s23) in zip(secants, secants[1:]):
        violation = s12 - s23
        if math.isnan(violation):
            continue
        if violation > worst:
            worst = violation
            witness = (t1, t2, t3)
    if worst == -math.inf:
        worst = 0.0
        witness = None
    return ConvexityReport(worst <= slack, worst, witness)


def generalized_trapezoid(f, P) -> float:
    """G_n with f read at both ends of every cell: 2n reads."""
    _check_domain(f, P)
    total = 0.0
    for u, v, x in P.cells():
        total += (x - u) * f(u) + (v - x) * f(v)
    return total


def split_bracket(dplus, dminus, u, v, x) -> tuple:
    """The paper's bracket of [u, v] split at x, f'+(u) and f'-(v) always read.
    The weights are products, as in the library: ``** 2`` calls libm's pow,
    which can round a square an ulp away from the product."""
    wl = (v - x) * (v - x)
    wr = (x - u) * (x - u)
    dpx = dplus(x) if wl else 0.0
    dmx = dminus(x) if wr else 0.0
    return _gap_bracket(wl, wr, dpx, dmx, dplus(u), dminus(v))


def remainder_enclosure(f, P) -> Enclosure:
    """The paper's bracket of each cell at its xi, summed, each read through
    the wrappers: 4 slope reads a cell, 2 at x = u or v."""
    _check_domain(f, P)
    lo_sum = hi_sum = 0.0
    for i, (u, v, x) in enumerate(P.cells()):
        lo, hi = _ordered(*_split_bracket(f.d_plus, f.d_minus, u, v, x), f, u, v, i)
        lo_sum += lo
        hi_sum += hi
    return Enclosure(lo_sum, hi_sum)
