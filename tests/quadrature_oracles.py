"""Test oracles for the per-cell kernels: the adaptive integrator's
``quadrature._corrected_bracket`` and ``quadrature._adaptive_cell`` and the
interval rules ``_ranges._imul`` and ``_ranges._ipow``, as they were written
with the builtin ``min`` and ``max``, and the catalog's ``power_p`` range as
it was written with two powers of each order at a point.

The library writes each two-argument ``max(a, b)`` as ``b if b > a else a``
and ``min(a, b)`` as ``b if b < a else a``, the comparison CPython's builtins
make, so with the argument order kept both give the same float for every
pair, -0.0 and NaN included; ``min``/``max`` of a tuple fold it in order the
same way.  The code below is the parent's verbatim but for the docstrings,
and the library must agree with it bit for bit.
"""

import math
from typing import Optional

from trapbound._ranges import _out
from trapbound.funcs import ConvexFunction, _falling, _midpoint, _pow
from trapbound.pointwise import _midpoint_bracket, _ordered
from trapbound.quadrature import _BETA, _DELTA, _GAMMA, _cubic_term, _envelope_area


def _corrected_bracket(u, m, v, fu, fm, fv, dpu, dmm, dpm, dmv, d2, d3=None) -> Optional[tuple]:
    """The parent's ``quadrature._corrected_bracket``, two-argument ``min``/``max`` included."""
    a2, b2, a3, b3, a4, b4 = d2[:6]
    wl, wr = m - u, v - m
    if not (b2 < math.inf and wl > 2.0 ** -200 and wr > 2.0 ** -200):
        return None
    a2, b2 = math.nextafter(a2, 0.0), math.nextafter(b2, math.inf)
    kl, kr = wl * wl / 12.0, wr * wr / 12.0
    ql, qr = kl * wl, kr * wr
    bma = b2 - a2
    el, er = _BETA * ql * bma, _BETA * qr * bma
    dmc = math.nextafter(b3, math.inf) - math.nextafter(a3, -math.inf)
    if dmc < math.inf:
        el, er = min(el, _DELTA * kl * kl * dmc), min(er, _DELTA * kr * kr * dmc)
    cl, cr = kl * (dmm - dpu), kr * (dmv - dpm)
    lol, hil = max(cl - el, ql * a2), min(cl + el, ql * b2)
    lor, hir = max(cr - er, qr * a2), min(cr + er, qr * b2)
    pu, pv = wr * (fu - fm), wl * (fv - fm)
    tc = 0.5 * (pu + pv)
    h = v - u
    ulp = math.ulp
    dat = h * (ulp(fu) + ulp(fm) + ulp(fv)) + kl * (ulp(dpu) + ulp(dmm)) + kr * (ulp(dpm) + ulp(dmv))
    mag = abs(pu) + abs(pv) + abs(cl) + abs(cr) + el + er + (ql + qr) * b2 + dat
    a4, b4 = math.nextafter(a4, -math.inf), math.nextafter(b4, math.inf)
    gl, gr = kl * kl * wl / 5.0, kr * kr * wr / 5.0
    # at least the f'''' terms' magnitudes; inf or NaN where f is not C^4
    # on the cell or a term overflows
    e4 = (gl + gr) * (abs(a4) + abs(b4))
    if e4 < math.inf:
        lol, hil = max(lol, cl - gl * b4), min(hil, cl - gl * a4)
        lor, hir = max(lor, cr - gr * b4), min(hir, cr - gr * a4)
        mag += e4
    if d3 is not None and wl > 2.0 ** -140 and wr > 2.0 ** -140:
        nx, inf = math.nextafter, math.inf
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
        if e6 < math.inf:
            lol, hil = max(lol, cl - sl * ul + xl * a6), min(hil, cl - sl * dl + xl * b6)
            lor, hir = max(lor, cr - sr * ur + xr * a6), min(hir, cr - sr * dr + xr * b6)
            mag += e6
    # an infinite or NaN sample or product makes mag inf or NaN
    if not 2.0 ** -900 < mag < math.inf:
        return None
    r = dat + _GAMMA * mag
    lo = max(math.nextafter(tc + lol + lor - r, -math.inf), _cubic_term(h, d2[0], 0.0))
    hi = min(math.nextafter(tc + hil + hir + r, math.inf), _cubic_term(h, d2[1], math.inf))
    return (lo, hi) if lo <= hi else None


def _adaptive_cell(f: ConvexFunction, u: float, v: float, fu: float, fv: float, dpu: float, dmv: float,
                   t3u: Optional[tuple] = None, t3v: Optional[tuple] = None) -> tuple:
    """The parent's ``quadrature._adaptive_cell``; its corrected cells take the oracle above."""
    h = v - u
    m = _midpoint(u, v)
    t = 0.5 * (fu + fv) * h
    if u < m < v:
        fm, dpm, dmm = f(m), f.d_plus(m), f.d_minus(m)
    else:
        m = fm = dpm = dmm = None
    lo_p, hi_p = _midpoint_bracket(h, dpm, dmm, dpu, dmv)
    # [lo_p, hi_p]: the paper's bracket cut by the Hermite-Hadamard one
    lo_p = max(lo_p, 0.0)
    d2 = f._d2range(u, v) if f._d2range is not None else None
    c2 = t3m = d3 = None
    if m is not None and d2 is not None:
        if (d2[4] or d2[5]) and -math.inf < d2[6] and d2[7] < math.inf:
            t3u = t3u or f._d2range(u, u)[2:4]
            t3m = f._d2range(m, m)[2:4]
            t3v = t3v or f._d2range(v, v)[2:4]
            d3 = t3u + t3m + t3v
        c2 = _corrected_bracket(u, m, v, fu, fm, fv, dpu, dmm, dpm, dmv, d2, d3)
    lo, hi = lo_p, hi_p
    if c2 is not None:
        lo, hi = max(lo_p, c2[0]), min(hi_p, c2[1])
    elif m is None:
        if math.isfinite(t):
            hi = min(hi_p, t - _envelope_area(h, fu, dpu, fv, dmv))
    elif math.isfinite(t) and math.isfinite(fm):
        # the halves' own widths: the float m is off the midpoint by rounding
        wl, wr = m - u, v - m
        lo = max(lo_p, t - 0.5 * (wl * (fu + fm) + wr * (fm + fv)))
        hi = min(hi_p, t - (_envelope_area(wl, fu, dpu, fm, dmm) + _envelope_area(wr, fm, dpm, fv, dmv)))
    if lo > hi:
        _ordered(lo, hi, f, u, v)  # raises for an inversion beyond rounding; the hull is not taken here
    if c2 is None:
        # an inversion by rounding alone collapses to a point inside [lo_p, hi_p]
        lo = min(lo, max(hi_p, lo_p))
        hi = max(hi, lo)
        if d2 is not None:
            # T - I lies in (v - u)^3/12 [min f'', max f''], rounded outward
            q_lo, q_hi = _cubic_term(h, d2[0], 0.0), _cubic_term(h, d2[1], math.inf)
            lo, hi = (max(lo, q_lo), min(hi, q_hi)) if q_lo <= hi and lo <= q_hi else (q_lo, q_hi)
    elif lo > hi:
        lo, hi = c2  # the paper's bracket, rounded to nearest, missed it
    return (0.0 if m is None else -(hi - lo), u, v, t, lo, hi, fu, fv, dpu, dmv, m, fm, dpm, dmm, t3u, t3m, t3v)


def _imul(x, y) -> tuple:
    """The parent's ``_ranges._imul``: ``min`` and ``max`` of the tuple of products."""
    (a, b), (c, d) = x, y
    if a >= 0.0 and c >= 0.0:
        return _out(a * c, b * d)
    p = (a * c, b * d) if a == b or c == d else (a * c, a * d, b * c, b * d)
    return _out(min(p), max(p))


def _ipow(x, p: float) -> tuple:
    """The parent's ``_ranges._ipow``."""
    lo, hi = x
    if not (lo > 0.0 or p.is_integer() and (p >= 0.0 or hi < 0.0)):
        raise ArithmeticError("power not C^2 on the interval")
    a, b = lo ** p, hi ** p
    return _out(0.0 if lo < 0.0 < hi and p % 2.0 == 0.0 else min(a, b), max(a, b))


def power_p_range(p: float):
    """The parent's ``_d2range`` of ``catalog("power_p", (p,))``, which reads
    both powers of each order at a point."""
    orders = []  # those two ranges, else (p - k, sign, |(p)_k|)
    for k in (2, 3, 4, 6):
        c = (-math.inf, math.inf) if math.fsum((p, -k, k - p)) else _falling(p, k)
        orders.append(c if not c[1] or c[1] == math.inf else (p - k, c[0] < 0.0, *sorted(map(abs, c))))

    def _range(u: float, v: float) -> tuple:
        out = ()
        for order in orders:
            if len(order) == 2:
                out += order
                continue
            e, neg, c_lo, c_hi = order
            a, b = (_pow(u, e), _pow(v, e)) if e >= 0.0 else (_pow(v, e), _pow(u, e))
            lo = math.nextafter(c_lo * math.nextafter(a, 0.0), 0.0)
            hi = math.nextafter(c_hi * math.nextafter(b, math.inf), math.inf)
            out += (-hi, -lo) if neg else (lo, hi)
        return out

    return _range
