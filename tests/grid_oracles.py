"""Test oracles for the sampling grids: the list-based walks that
``probability._mass_bracket``, ``funcs.check_convexity``,
``quadrature.generalized_trapezoid`` and ``pointwise._split_bracket`` replaced.

Each builds the list of its grid points, reads every value it needs (the
interior points of a partition twice, a slope at a split point equal to an
end twice) and only then combines them.  The one-pass library walks take the
same reads in the same order, less the repeats, and the same floating-point
operations, so they must agree with these bit for bit, witness included.
"""

import math

from trapbound.funcs import _CONVEXITY_GRIDPOINTS, DEFAULT_TOL, ConvexityReport
from trapbound.pointwise import _gap_bracket
from trapbound.probability import _NORMALIZATION_CELLS
from trapbound.quadrature import _check_domain


def mass_bracket(d) -> tuple:
    """Monotone Riemann bracket of the mass of density ``d`` on its grid."""
    a, b = d.domain.a, d.domain.b
    h = (b - a) / _NORMALIZATION_CELLS
    xs = [a + i * h for i in range(_NORMALIZATION_CELLS)] + [b]
    if d.left_limit is d.right_limit:
        ys = [d.right_limit(x) for x in xs]
        right, left = ys[:-1], ys[1:]
    else:
        right, left = [d.right_limit(u) for u in xs[:-1]], [d.left_limit(v) for v in xs[1:]]
    lo = 0.0
    hi = 0.0
    for u, v, fu, fv in zip(xs, xs[1:], right, left):
        lo += fu * (v - u)
        hi += fv * (v - u)
    return lo, hi


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
    """The paper's bracket of [u, v] split at x, f'+(u) and f'-(v) always read."""
    wl = (v - x) ** 2
    wr = (x - u) ** 2
    dpx = dplus(x) if wl else 0.0
    dmx = dminus(x) if wr else 0.0
    return _gap_bracket(wl, wr, dpx, dmx, dplus(u), dminus(v))
