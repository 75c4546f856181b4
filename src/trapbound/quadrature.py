"""Composite generalized trapezoid rules with certified remainder enclosures.

For a partition a = x0 < ... < xn = b with intermediate points xi_i in
[x_i, x_{i+1}], the composite rule is

    G_n = sum_i (xi_i - x_i) f(x_i) + (x_{i+1} - xi_i) f(x_{i+1})

and the remainder S_n = G_n - integral_a^b f is bracketed cell by cell with
the paper's single-interval bracket:

    lo = (1/2) sum_i [ (x_{i+1}-xi_i)^2 f'+(xi_i) - (xi_i-x_i)^2 f'-(xi_i) ]
    hi = (1/2) sum_i [ (x_{i+1}-xi_i)^2 f'-(x_{i+1}) - (xi_i-x_i)^2 f'+(x_i) ]

With midpoint xi the rule is the classical trapezoid rule and the bracket is
the paper's trapezoid corollary, the 1/8 form: :func:`remainder_enclosure` is
the one entry point for both, and fixed partitions report it.  The paper's
bracket of every cell, adaptive cells included, comes from the one kernel
that :mod:`trapbound.pointwise` and :mod:`trapbound.probability` also use,
``pointwise._gap_bracket`` (read at the cells' xi by ``_cells_bracket``; in
its 1/8 form, ``_midpoint_bracket``).  A partition must start and end
exactly at the ends of f's domain.

The adaptive integrator bisects the cell with the widest bracket until the
total enclosure width meets a tolerance.  Its cells carry their samples (f at
both ends and the midpoint, the one-sided slopes there), so a bisection
evaluates only the two new midpoints.  Where f carries an f'' range [A, B]
with B finite (catalog functions in closed form, expressions by interval
arithmetic, on each cell where they are C^2), a cell is bracketed by the
slope-corrected trapezoid rule on its halves: T - I is T - C, C the
two-chord value, plus on each half of width w the corrected error
(w^2/12)(f'(x1) - f'(x0)), which the Peano kernel puts within
(B - A) w^3/(36 sqrt 3) of T_h - I_h, where the same oracle call gives an
f''' range [C3, D3], within 5 (D3 - C3) w^4/1152, and where it gives an
f'''' range [E4, F4], in -(w^5/720) [E4, F4].  That bracket, rounded
outward, is also cut by h^3/12 [A, B].  Every other cell takes the
tangent/chord sandwich of its samples (Burkard, Hamacher & Rote 1991): the
integral lies below the two chords through the midpoint and above the
supporting lines; where f has an f'' range it is cut by h^3/12 [A, B].
Each cell's bracket is intersected with the paper's.  Slopes alone cannot
beat O(n^-2) (Rote 1992), so cells grow like eps^-1/2; with an f'' range
the bracket is O(h^4) wide and cells grow like eps^-1/3, on C^3 cells,
with an f''' range, it is O(h^5) wide and cells grow like eps^-1/4, and on
C^4 cells, with an f'''' range, it is O(h^6) wide and cells grow like
eps^-1/5 (Atkinson, *An Introduction to Numerical Analysis*, 2nd ed., 1989,
5.4).  With f''' at the samples and an f^(6) range too (the catalog), the
next Euler-Maclaurin term makes it O(h^8) wide and cells grow like eps^-1/7.
The per-cell code writes max(a, b) as ``b if b > a else a`` and min(a, b) as
``b if b < a else a``: the builtins' own comparison, so the same float for any
pair (-0.0 and NaN too), at about a tenth of the cost of a builtin call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .funcs import _ORACLE_FAULTS, ConvexFunction, DomainError, Interval, _midpoint
from .pointwise import Enclosure, _cells_bracket, _midpoint_bracket, _ordered


@dataclass(frozen=True)
class Partition:
    """Division a = x0 < ... < xn = b with intermediate points xi_i in each cell."""

    points: tuple
    xi: tuple

    def __post_init__(self) -> None:
        pts, xi = tuple(self.points), tuple(self.xi)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "xi", xi)
        if len(pts) < 2:
            raise ValueError("partition needs at least one cell")
        if len(xi) != len(pts) - 1:
            raise ValueError(f"expected {len(pts) - 1} intermediate points, got {len(xi)}")
        for u, v in zip(pts, pts[1:]):
            if not u < v:
                raise ValueError(f"partition points must strictly increase, got {u} >= {v}")
        for i, (u, v, x) in enumerate(zip(pts, pts[1:], xi)):
            if not u <= x <= v:
                raise ValueError(f"xi[{i}] = {x} outside its cell [{u}, {v}]")

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def cells(self):
        return zip(self.points, self.points[1:], self.xi)


@dataclass(frozen=True)
class QuadratureResult:
    """Rule value G_n, remainder bracket for S_n, and the implied integral enclosure.

    ``integral`` is ``[gn - remainder.hi, gn - remainder.lo]``, rounded
    outward by one ulp for an adaptive run; a side that comes out NaN (f
    infinite at an end of the domain) is the trivial one, -inf or +inf.
    ``converged`` is False when an adaptive run's ``integral`` is wider than
    its eps (a spent cell budget, an infinite bracket); the enclosure is
    valid regardless.
    """

    gn: float
    remainder: Enclosure
    integral: Enclosure
    cells: int
    converged: bool = True


def uniform_partition(iv: Interval, n: int, xi_rule: str = "midpoint") -> Partition:
    """Equispaced partition of ``iv`` into ``n`` cells, ``xi_rule`` one of ``"midpoint"``,
    ``"left"`` or ``"right"``; other intermediate points make a :class:`Partition`."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h = iv.width / n
    points = tuple(iv.a + i * h for i in range(n)) + (iv.b,)
    if xi_rule == "midpoint":
        xi = tuple(map(_midpoint, points, points[1:]))
    elif xi_rule == "left":
        xi = points[:-1]
    elif xi_rule == "right":
        xi = points[1:]
    else:
        raise ValueError(f"unknown xi rule {xi_rule!r}")
    return Partition(points, xi)


def _check_domain(f: ConvexFunction, P: Partition) -> None:
    if (P.points[0], P.points[-1]) != (f.domain.a, f.domain.b):
        raise DomainError(
            f"partition [{P.points[0]}, {P.points[-1]}] does not cover "
            f"domain [{f.domain.a}, {f.domain.b}] of {f.label!r}"
        )


def generalized_trapezoid(f: ConvexFunction, P: Partition) -> float:
    """Composite rule value G_n, the trapezoid rule for midpoint xi; n + 1 calls to ``f.evaluate``."""
    _check_domain(f, P)
    ev, total, v = f.evaluate, 0.0, P.points[0]
    try:
        fv = ev(v)
        for u, v, x in P.cells():
            fu, fv = fv, ev(v)
            total += (x - u) * fu + (v - x) * fv
    except _ORACLE_FAULTS as exc:
        f._failed(v, exc)
    return total


def remainder_enclosure(f: ConvexFunction, P: Partition) -> Enclosure:
    """Certified bracket for the remainder S_n = G_n - integral: the paper's
    bracket of each cell at its xi, summed.  At midpoint xi, up to the
    rounding of m_i, it is the paper's trapezoid corollary (1/8) sum
    [f'+(m_i) - f'-(m_i)] h_i^2 <= S_n <= (1/8) sum [f'-(x_{i+1}) - f'+(x_i)] h_i^2.

    ``pointwise._ordered`` raises :class:`trapbound.funcs.NonConvexityError`
    naming a cell whose bracket inverts beyond rounding, and orders the
    rest; their sums stay ordered, as rounding is monotone.  The cells are
    read by ``pointwise._cells_bracket``, each (oracle, point) once: where
    ``f.dplus is f.dminus``, 2n + 1 slope calls for midpoint xi and n + 1
    for left or right xi, else (a kink) 4n and 2n.
    """
    _check_domain(f, P)
    lo, hi = _cells_bracket(f, P.cells())
    return Enclosure(lo + 0.0, hi + 0.0)  # a composite sum of zeros is +0.0


def _integral_enclosure(gn: float, rem: Enclosure) -> Enclosure:
    """[gn - rem.hi, gn - rem.lo], with a NaN side (inf - inf or 0 * inf,
    from f infinite at an end of the domain) replaced by the trivial one."""
    lo = gn - rem.hi
    hi = gn - rem.lo
    return Enclosure(-math.inf if math.isnan(lo) else lo, math.inf if math.isnan(hi) else hi)


def integrate(f: ConvexFunction, P: Partition) -> QuadratureResult:
    """Composite rule with certified integral enclosure [gn - hi, gn - lo];
    (-inf, inf) when f is infinite at an end of the domain."""
    gn = generalized_trapezoid(f, P)
    rem = remainder_enclosure(f, P)
    return QuadratureResult(gn, rem, _integral_enclosure(gn, rem), P.n)


def _envelope_area(w: float, fl: float, dl: float, fr: float, dr: float) -> float:
    """Area over a half-cell of width w under the larger of two supporting lines.

    The lines pass through the left end (value fl, slope dl = f'+ there) and
    the right end (value fr, slope dr = f'- there).  Each lies below a convex
    f, so splitting the half at any point gives a lower bound on the integral;
    the lines' crossing gives the largest.  A NaN or out-of-range crossing is
    clamped, parallel lines split at the left end, and a line with an infinite
    slope is dropped.
    """
    if not math.isfinite(dl):
        return w * (fr - 0.5 * dr * w) if math.isfinite(dr) else -math.inf
    if not math.isfinite(dr):
        return w * (fl + 0.5 * dl * w)
    s = (fr - fl - dr * w) / (dl - dr) if dl != dr else 0.0
    if not s >= 0.0:
        s = 0.0
    elif s > w:
        s = w
    r = w - s
    return s * (fl + 0.5 * dl * s) + r * (fr - 0.5 * dr * r)


def _cubic_term(h: float, d2: float, s: float) -> float:
    """(v - u)^3/12 * d2 for a cell whose width v - u rounded to h, each step
    rounded towards s (0.0 for a lower bound, +inf for an upper; all factors
    are >= 0): one ``math.nextafter`` covers a rounding or a faithful d2."""
    nx = math.nextafter
    h = nx(h, s)
    k = nx(nx(nx(h * h, s) * h, s) / 12.0, s)
    return nx(k * nx(d2, s), s)


#: 1/(3 sqrt 3) rounded up: the Peano term of a half cell of width w lies
#: within (B - A) w^3/(36 sqrt 3) = _BETA (B - A) w^3/12 of 0
_BETA = 0.19245008972987526
#: 5/8, exact: it also lies within 5 (D - C) w^4/1152 = _DELTA (D - C) (w^2/12)^2
_DELTA = 0.625
#: 64 units of relative rounding, 2^-53 each
_GAMMA = 2.0 ** -47


def _corrected_bracket(u, m, v, fu, fm, fv, dpu, dmm, dpm, dmv, d2, d3=None) -> Optional[tuple]:
    """T - I on a cell [u, v] split at m where A <= f'' <= B,
    C <= f''' <= D, E <= f'''' <= F and G <= f^(6) <= H, d2 = (A, ..., H)
    or (A, ..., F), and f''' in d3 = (lo, hi) * 3 at u, m and v or None;
    None where this bracket does not apply.

    With C2 the two-chord value and wl = m - u, wr = v - m the halves' widths,

        T - I = (T - C2) + sum over the halves of (T_h - I_h),
        T - C2 = (wr (f(u) - f(m)) + wl (f(v) - f(m)))/2,

    and on a half [x0, x1] of width w and centre c, with the Peano kernel
    K(t) = (t - x0)(x1 - t)/2 (its integral is w^3/12),

        T_h - I_h = (w^2/12)(f'(x1) - f'(x0)) + int (K - w^2/12) f''.

    The weight K - w^2/12 integrates to 0, and to w^3/(36 sqrt 3) where it
    is positive, so the last term lies within (B - A) w^3/(36 sqrt 3) of 0.
    The weight is also symmetric about c, so f'' may be replaced by
    f''(t) - f''(c) - s (t - c) with s = (C + D)/2, which is at most
    (D - C)|t - c|/2; as int |K - w^2/12| |t - c| = 5 w^4/576, the term
    also lies within 5 (D - C) w^4/1152 of 0, the tighter bound once w is
    small, and no bound where f is not C^3 (D - C infinite).  Where f is
    C^4 the term is also -(w^5/720) f''''(xi) for some xi in the half, as
    the corrected trapezoid rule's Peano kernel (t - x0)^2 (x1 - t)^2/24 is
    one-signed (Atkinson, *An Introduction to Numerical Analysis*, 2nd ed.,
    1989, 5.4): it lies in -(w^5/720) [E, F], w^5/720 = (w^2/12)^2 w/5, and
    has no such bound where E or F is infinite.  Where f is C^6, the next
    Euler-Maclaurin term makes it -(w^4/720)(f'''(x1) - f'''(x0)) +
    (w^7/30240) f^(6)(xi), whose Peano kernel is one-signed too (B_6/6! =
    1/30240; Davis & Rabinowitz, *Methods of Numerical Integration*, 2.9),
    so it lies in -(w^4/720) [f'''(x1) - f'''(x0)] + (w^7/30240) [G, H],
    with w^4/720 = (w^2/12)^2/5 and w^7/30240 = (w^5/720)(w^2/12)/3.5, and
    has no such bound where d3 is None or an end is infinite.  Each half's
    bracket is cut by these and by w^3/12 [A, B], and the cell's by h^3/12
    [A, B] (:func:`_cubic_term`).

    Rounding is bounded, not estimated.  The ends of d2 and d3 are taken
    one ulp outward.  Values and slopes are faithful (within one ulp), which
    moves the bracket by at most ``dat`` (wl, wr <= h).  Every other term
    reaches lo or hi through at most 22 roundings, each within 2^-53 of its
    result: the f^(6) term of the left half through the most, seven from wl
    (once per factor of wl^7), six from the two operations of w^2/12 (it
    enters cubed), six products and quotients (by w^2/12, wl, 5, w^2/12,
    3.5 and G) and three on its way to lo; the f''' difference term takes
    16 (four from wl, four, three products, the difference and four), the
    f'''' term 16 and the f''' Peano term 15.  So lo and hi are within
    23 * 2^-53 ``mag`` of their exact values, where ``mag`` sums the terms'
    magnitudes (the smaller Peano bound of each half, the one taken, and
    the f'''' and Euler-Maclaurin terms where they are taken).  ``r`` adds
    2^-47 ``mag``, 64/23 times that, which also covers the rounding of
    ``dat``, ``mag`` and ``r``, and the products that fall below 2^-1022,
    each off by at most 2^-1075: the widths must exceed 2^-200, and 2^-140
    for the Euler-Maclaurin terms, so no such product is multiplied again
    ((w^2/12)^2 w/5 stays above 2^-1010, and (w^5/720)(w^2/12)/3.5 above
    2^-995), and ``mag`` must exceed 2^-900.  A difference of f''' ends
    that falls below 2^-1022 is exact.

    None also where B or a sample is not finite, where a product overflows,
    and where the result is inverted, which only a nonconvex f does.
    """
    a2, b2, a3, b3, a4, b4 = d2[:6]
    nx, inf, ulp = math.nextafter, math.inf, math.ulp
    wl, wr = m - u, v - m
    if not (b2 < inf and wl > 2.0 ** -200 and wr > 2.0 ** -200):
        return None
    a2, b2 = nx(a2, 0.0), nx(b2, inf)
    kl, kr = wl * wl / 12.0, wr * wr / 12.0
    ql, qr = kl * wl, kr * wr
    bma = b2 - a2
    el, er = _BETA * ql * bma, _BETA * qr * bma
    dmc = nx(b3, inf) - nx(a3, -inf)
    if dmc < inf:
        zl, zr = _DELTA * kl * kl * dmc, _DELTA * kr * kr * dmc
        el, er = (zl if zl < el else el), (zr if zr < er else er)
    cl, cr = kl * (dmm - dpu), kr * (dmv - dpm)
    lol, hil, lor, hir = cl - el, cl + el, cr - er, cr + er
    zl, yl, zr, yr = ql * a2, ql * b2, qr * a2, qr * b2
    lol, hil = (zl if zl > lol else lol), (yl if yl < hil else hil)
    lor, hir = (zr if zr > lor else lor), (yr if yr < hir else hir)
    pu, pv = wr * (fu - fm), wl * (fv - fm)
    tc = 0.5 * (pu + pv)
    h = v - u
    dat = h * (ulp(fu) + ulp(fm) + ulp(fv)) + kl * (ulp(dpu) + ulp(dmm)) + kr * (ulp(dpm) + ulp(dmv))
    mag = abs(pu) + abs(pv) + abs(cl) + abs(cr) + el + er + (ql + qr) * b2 + dat
    a4, b4 = nx(a4, -inf), nx(b4, inf)
    gl, gr = kl * kl * wl / 5.0, kr * kr * wr / 5.0
    # at least the f'''' terms' magnitudes; inf or NaN where f is not C^4
    # on the cell or a term overflows
    e4 = (gl + gr) * (abs(a4) + abs(b4))
    if e4 < inf:
        zl, yl, zr, yr = cl - gl * b4, cl - gl * a4, cr - gr * b4, cr - gr * a4
        lol, hil = (zl if zl > lol else lol), (yl if yl < hil else hil)
        lor, hir = (zr if zr > lor else lor), (yr if yr < hir else hir)
        mag += e4
    if d3 is not None and wl > 2.0 ** -140 and wr > 2.0 ** -140:
        lu, hu, lm, hm, lv, hv = d3
        lm, hm = nx(lm, -inf), nx(hm, inf)
        # f'''(m) - f'''(u) in [dl, ul] and f'''(v) - f'''(m) in [dr, ur]
        dl, ul, dr, ur = lm - nx(hu, inf), hm - nx(lu, -inf), nx(lv, -inf) - hm, nx(hv, inf) - lm
        a6, b6 = nx(d2[6], -inf), nx(d2[7], inf)
        sl, sr = kl * kl / 5.0, kr * kr / 5.0  # w^4/720
        xl, xr = gl * kl / 3.5, gr * kr / 3.5  # w^7/30240
        # at least the new terms' magnitudes; inf or NaN where f''' at an end
        # or f^(6) on the cell is unknown or a term overflows
        e6 = sl * (abs(dl) + abs(ul)) + sr * (abs(dr) + abs(ur)) + (xl + xr) * (abs(a6) + abs(b6))
        if e6 < inf:
            zl, yl = cl - sl * ul + xl * a6, cl - sl * dl + xl * b6
            zr, yr = cr - sr * ur + xr * a6, cr - sr * dr + xr * b6
            lol, hil = (zl if zl > lol else lol), (yl if yl < hil else hil)
            lor, hir = (zr if zr > lor else lor), (yr if yr < hir else hir)
            mag += e6
    # an infinite or NaN sample or product makes mag inf or NaN
    if not 2.0 ** -900 < mag < inf:
        return None
    r = dat + _GAMMA * mag
    lo, zl = nx(tc + lol + lor - r, -inf), _cubic_term(h, d2[0], 0.0)
    hi, yl = nx(tc + hil + hir + r, inf), _cubic_term(h, d2[1], inf)
    lo, hi = (zl if zl > lo else lo), (yl if yl < hi else hi)
    return (lo, hi) if lo <= hi else None


def _adaptive_cell(f: ConvexFunction, u: float, v: float, fu: float, fv: float, dpu: float, dmv: float, third: dict) -> tuple:
    """Heap entry for one cell with midpoint xi, given the endpoint samples.

    The endpoint values and the outward one-sided slopes come from the
    parent cell; only the midpoint is read here, from the raw oracles, as it
    lies inside the domain: a fault of ``f.evaluate`` raises what ``f(m)``
    would, and one of a slope oracle passes unchanged.  Where f is C^2 on
    the cell (its f'' range (A, B) has B finite) and every sample is
    finite, the remainder bracket is the slope-corrected one of
    :func:`_corrected_bracket`: T - C plus, on each half of width w, the
    corrected trapezoid error (w^2/12)(f'(x1) - f'(x0)) within
    (B - A) w^3/(36 sqrt 3), within 5 (D3 - C3) w^4/1152 where f is C^3
    with f''' in [C3, D3], offset by -(w^5/720) [E4, F4] where f is C^4
    with f'''' in [E4, F4], and by the next Euler-Maclaurin term where the
    f^(6) range is finite and f'''' not 0 (whose cut is exact already),
    whichever is tightest.  That range certifies f is C^6 on the closed
    cell, so f''' at u, m and v is then taken from ``third``, the run's
    table from a point x to ``f._third(x)`` (the point oracle ``f._d3``,
    else ``f._d2range(x, x)[2:4]``); a point not in it yet is read and
    added.  The bracket is intersected with the paper's
    cut at 0; where rounding put the paper's bracket outside it, it is
    kept whole.

    Every other cell (a kink, an unbounded f'', a cell too narrow to bisect)
    takes the tangent/chord sandwich of its samples, [T - C, T - E] with E
    the area under the supporting lines, each over the halves' own widths,
    intersected with the paper's bracket cut at 0 and, where f has an f''
    range, with the f'' term of :func:`_cubic_term`.  Where that term misses
    the sandwich, rounding moved the sandwich, and the term is kept whole.

    A cell with no float strictly inside it (its ends are adjacent floats)
    cannot be bisected.  It samples nothing, is bracketed by
    [0, min(paper hi, T - area under the endpoint supporting lines)], and
    carries ``m = None`` and the heap key 0.0 of an exact cell, since
    bisection cannot narrow it either.
    """
    h = v - u
    m = _midpoint(u, v)
    t = 0.5 * (fu + fv) * h
    if u < m < v:
        try:  # the raw oracles, as m lies inside the domain; a fault of the value is f(m)'s
            fm = f.evaluate(m)
        except _ORACLE_FAULTS as exc:
            f._failed(m, exc)
        dpm = f.dplus(m)
        dmm = dpm if f.dplus is f.dminus else f.dminus(m)
    else:
        m = fm = dpm = dmm = None
    lo_p, hi_p = _midpoint_bracket(h, dpm, dmm, dpu, dmv)
    # [lo_p, hi_p]: the paper's bracket cut by the Hermite-Hadamard one
    lo_p = 0.0 if 0.0 > lo_p else lo_p
    d2 = f._d2range(u, v) if f._d2range is not None else None
    c2 = d3 = None
    if m is not None and d2 is not None:
        if (d2[4] or d2[5]) and -math.inf < d2[6] and d2[7] < math.inf:
            for x in (u, m, v):
                if x not in third:
                    third[x] = f._third(x)
            d3 = third[u] + third[m] + third[v]
        c2 = _corrected_bracket(u, m, v, fu, fm, fv, dpu, dmm, dpm, dmv, d2, d3)
    z, y = lo_p, hi_p  # the cell's own cuts below and above, then met with [lo_p, hi_p]
    if c2 is not None:
        z, y = c2
    elif m is None:
        if math.isfinite(t):
            y = t - _envelope_area(h, fu, dpu, fv, dmv)
    elif math.isfinite(t) and math.isfinite(fm):
        # the halves' own widths: the float m is off the midpoint by rounding
        wl, wr = m - u, v - m
        z = t - 0.5 * (wl * (fu + fm) + wr * (fm + fv))
        y = t - (_envelope_area(wl, fu, dpu, fm, dmm) + _envelope_area(wr, fm, dpm, fv, dmv))
    lo, hi = (z if z > lo_p else lo_p), (y if y < hi_p else hi_p)
    if lo > hi:
        _ordered(lo, hi, f, u, v)  # raises for an inversion beyond rounding; the hull is not taken here
    if c2 is None:
        # an inversion by rounding alone collapses to a point inside [lo_p, hi_p]
        z = lo_p if lo_p > hi_p else hi_p
        lo = z if z < lo else lo
        hi = lo if lo > hi else hi
        if d2 is not None:
            # T - I lies in (v - u)^3/12 [min f'', max f''], rounded outward
            z, y = _cubic_term(h, d2[0], 0.0), _cubic_term(h, d2[1], math.inf)
            lo, hi = ((z if z > lo else lo), (y if y < hi else hi)) if z <= hi and lo <= y else (z, y)
    elif lo > hi:
        lo, hi = c2  # the paper's bracket, rounded to nearest, missed it
    return (0.0 if m is None else -(hi - lo), u, v, t, lo, hi, fu, fv, dpu, dmv, m, fm, dpm, dmm)


def adaptive_integrate(f: ConvexFunction, eps: float, max_cells: int = 10_000) -> QuadratureResult:
    """Greedy adaptive integration to a target enclosure width.

    Starts from the cells with midpoint xi between a, the k breaks of f
    (``f._breaks``) that lie strictly inside (a, b), and b, or from the one
    cell [a, b] where there is no such break or the k + 1 cells would exceed
    ``max_cells``.  A catalog ``kink`` is affine on each side of its break,
    so its two cells give its integral to rounding, where bisection alone
    would hunt the kink down.  The run then repeatedly bisects the cell
    whose remainder bracket is widest (ties broken by the leftmost cell)
    until the total width is <= ``eps`` or ``max_cells`` is reached.  Each
    cell's bracket (:func:`_adaptive_cell`) is the slope-corrected one where
    f is C^2 on it, else the tangent/chord sandwich of its samples, and is
    intersected with the paper's.  A run over n cells makes 2n + 1 calls to
    f, 4n to its one-sided derivatives (2n + 1 if ``f.dplus is f.dminus``),
    as a break is read once by each oracle, as a midpoint is, and 2n - 1 - k
    to its range oracle, which gives the f'', f''', f'''' and
    f^(6) ranges in one call, fewer if some cells are too narrow to bisect,
    plus at most 2n + 1 reads of f''' at a point (``f._third``: the point
    oracle, else the range oracle at (x, x)), each point once, as every cell reads them through one table per run,
    on the cells with a finite f^(6) range and f'''' not 0; n grows like
    eps^-1/7 on those, like eps^-1/5 on C^4 cells, like eps^-1/4 on C^3
    cells, like eps^-1/3 with an f'' range alone, else like eps^-1/2.

    The final cells' t, lo and hi are summed exactly (``math.fsum``).  The
    remainder is widened by a bound on the rounding of gn and of each
    t = (f(u) + f(v))/2 (v - u): 4 ulp(t) for its three operations plus
    (v - u)(ulp f(u) + ulp f(v)) for faithful values of f.  It and the
    integral are then rounded outward.  The running totals that stop the
    loop carry no allowance; where the reported width then exceeds ``eps``,
    bisection resumes against a running target lowered by the excess, as
    long as that target stays positive.

    ``converged`` is True exactly when the reported ``integral.width`` is
    <= ``eps``.  A spent budget, a widest cell with an infinite bracket (f
    infinite at an end of the domain), an exact widest cell, or cells too
    narrow to bisect in floating point stop the run with it False, never an
    exception; the enclosure stays valid either way.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_cells < 1:
        raise ValueError(f"max_cells must be >= 1, got {max_cells}")

    a, b = f.domain.a, f.domain.b
    nx, ulp, inf, pop, push = math.nextafter, math.ulp, math.inf, heapq.heappop, heapq.heappush
    third = {}  # the run's f''' reads at a point, each point once
    xs = [x for x in f._breaks if a < x < b] if f._breaks else None
    if xs and len(xs) < max_cells:
        # a cell between each two of a, the breaks and b; a break lies inside
        # the domain, so it is read from the raw oracles, as a midpoint is
        u, fu, dpu, heap = a, f(a), f.d_plus(a), []
        for v in xs:
            try:
                fv = f.evaluate(v)
            except _ORACLE_FAULTS as exc:
                f._failed(v, exc)
            dpv = f.dplus(v)
            dmv = dpv if f.dplus is f.dminus else f.dminus(v)
            heap.append(_adaptive_cell(f, u, v, fu, fv, dpu, dmv, third))
            u, fu, dpu = v, fv, dpv
        heap.append(_adaptive_cell(f, u, b, fu, f(b), dpu, f.d_minus(b), third))
        total_lo, total_hi = sum(c[4] for c in heap), sum(c[5] for c in heap)
        heapq.heapify(heap)
    else:
        cell = _adaptive_cell(f, a, b, f(a), f(b), f.d_plus(a), f.d_minus(b), third)
        heap = [cell]
        total_lo, total_hi = cell[4:6]
    target = eps

    while True:
        # an infinite total means a cell is unbounded where f is infinite; bisection cannot help
        while target < total_hi - total_lo < inf and len(heap) < max_cells:
            if heap[0][0] == 0.0:
                break  # no cell that bisection can narrow: each is exact or too narrow to bisect
            _, u, v, _, clo, chi, fu, fv, dpu, dmv, m, fm, dpm, dmm = pop(heap)
            total_lo -= clo
            total_hi -= chi
            for cell in (_adaptive_cell(f, u, m, fu, fm, dpu, dmm, third),
                         _adaptive_cell(f, m, v, fm, fv, dpm, dmv, third)):
                push(heap, cell)
                total_lo += cell[4]
                total_hi += cell[5]

        width = total_hi - total_lo
        total_t = sum(c[3] for c in heap)
        if not (math.isfinite(width) and math.isfinite(total_t)):
            remainder = Enclosure(min(total_lo, total_hi), total_hi)
            return QuadratureResult(total_t, remainder, _integral_enclosure(total_t, remainder), len(heap), False)
        gn = math.fsum(c[3] for c in heap)
        # gn is within err of the exact sum of the cells' (f(u) + f(v))/2 (v - u)
        err = nx(math.fsum([ulp(gn), *(4.0 * ulp(c[3]) + (c[2] - c[1]) * (ulp(c[6]) + ulp(c[7])) for c in heap)]), inf)
        remainder = Enclosure(nx(math.fsum([-err, *(c[4] for c in heap)]), -inf),
                              nx(math.fsum([err, *(c[5] for c in heap)]), inf))
        integral = Enclosure(nx(gn - remainder.hi, -inf), nx(gn - remainder.lo, inf))
        excess = integral.width - eps
        # the running width met its target, but the allowance took the reported
        # width past eps: go on to a target lowered by the excess, if one is left
        lowered = nx(width - excess, -inf)
        if not (excess > 0 and width <= target and lowered > 0 and heap[0][0] != 0.0 and len(heap) < max_cells):
            return QuadratureResult(gn, remainder, integral, len(heap), excess <= 0)
        target = lowered
