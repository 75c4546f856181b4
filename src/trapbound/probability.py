"""Expectation enclosures for random variables with nondecreasing densities.

If the density f on [a, b] is nondecreasing with mass m, its cdf F is convex
with F'+- = f(.+-), and the gap of F at x is m (E(X) - x) for the mean E(X) of
f/m.  The gap bounds of F give, for x in [a, b], E(X) = x + T/m with

    (1/2)[(b-x)^2 f(x+) - (x-a)^2 f(x-)]  <=  T  <=  (1/2)[(b-x)^2 f(b-) - (x-a)^2 f(a+)],

limits taken inside [a, b], and at x = a or b the zero-weighted one not read.
Each side of ``pointwise._gap_bracket`` applied to F is divided by the end of
the mass bracket of :func:`validate_density` that moves it out, and shifted by
x, each step rounded outward.  :func:`expectation_enclosure` is the one entry
point for this bound, and its corollaries are tests of it; at x = c = (a + b)/2,
it is (1/8)[f(c+) - f(c-)](b-a)^2 <= m (E(X) - c) <= (1/8)[f(b-) - f(a+)](b-a)^2.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .funcs import Interval
from .pointwise import Enclosure, _gap_bracket

#: The mass walk of :func:`validate_density`: its cell counts, the share of
#: T_hi - T_lo its bracket may add to the enclosure of E(X), and the relative
#: slack of the checks of its reads.
_MASS_CELLS, _MASS_CELLS_MAX, _MASS_SHARE, _SAMPLE_SLACK = 256, 4096, 1 / 64, 1e-6
_U = sys.float_info.epsilon / 2


@dataclass(frozen=True)
class MonotoneDensity:
    """Nondecreasing density on a bounded support, of any finite mass m > 0:
    its expectations are those of the probability density f/m.
    ``left_limit``/``right_limit`` give f(x-), f(x+); ``right_limit`` is also
    the value (densities are right continuous), and both are f if continuous.
    """

    domain: Interval
    left_limit: Callable[[float], float]
    right_limit: Callable[[float], float]
    label: str = ""


def continuous_density(domain: Interval, pdf: Callable[[float], float], label: str = "") -> MonotoneDensity:
    """Density whose one-sided limits are both ``pdf``."""
    return MonotoneDensity(domain, pdf, pdf, label)


def piecewise_constant_density(
    domain: Interval,
    breaks: Sequence[float],
    values: Sequence[float],
    label: str = "",
) -> MonotoneDensity:
    """Step density: ``values[i]`` on [breaks[i], breaks[i+1]), right continuous.

    ``breaks`` must start at the left endpoint and increase strictly below
    the right endpoint, which is the implicit last break.
    """
    brk = list(breaks) + [domain.b]
    if len(values) != len(brk) - 1 or brk[0] != domain.a:
        raise ValueError("breaks must start at domain.a and pair with values")
    if not all(u < v for u, v in zip(brk, brk[1:])):
        raise ValueError(f"breaks must increase strictly below domain.b, got {list(breaks)}")

    def pdf(x: float) -> float:
        for lo, hi, v in zip(brk, brk[1:], values):
            if lo <= x < hi:
                return v
        return values[-1]

    def left_limit(x: float) -> float:
        for lo, hi, v in zip(brk, brk[1:], values):
            if lo < x <= hi:
                return v
        return values[0]

    return MonotoneDensity(domain, left_limit, pdf, label)


class DensityReport(NamedTuple):
    valid: bool
    nonnegative: bool
    nondecreasing: bool
    normalization: tuple
    messages: tuple


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _interleave(*parts) -> list:
    """The items of ``parts`` in turn: p0[0], p1[0], ..., p0[1], p1[1], ..."""
    out = [0.0] * sum(map(len, parts))
    for k, part in enumerate(parts):
        out[k::len(parts)] = part
    return out


def validate_density(d: MonotoneDensity, x: Optional[float] = None) -> DensityReport:
    """Check f >= 0, f nondecreasing and 0 < mass < inf, and bracket the mass.

    A monotone Riemann walk on x_i = a + (b - a)(i/n), x_n = b, reads f(x_i+)
    for i < n and f(x_i-) for i > 0, once each for a continuous density.  The
    mass lies in [sum f(x_i+) w_i, sum f(x_(i+1)-) w_i], w_i = x_(i+1) - x_i,
    each end moved out by gamma_(n+2) max|f| (b - a) and an ulp.  Each doubling
    of n reads only the midpoints, from ``_MASS_CELLS`` while the unrounded
    bracket would widen the enclosure of E(X) at x (default the midpoint, f(x+-)
    read at the nearest point) by more than ``_MASS_SHARE`` of T_hi - T_lo, up
    to ``_MASS_CELLS_MAX``, and not once a read, in the order of the points,
    is negative or below the one before by over ``_SAMPLE_SLACK`` max(1, max|f|).
    """
    a, b = d.domain.a, d.domain.b
    x = d.domain.midpoint if x is None else d.domain.split(x)
    left, right = d.left_limit, d.right_limit
    # ys: the reads in the order of the points xs, f(x_i) for a continuous density, else
    # f(x_0+), f(x_i-) and f(x_i+) at inner points, f(x_n-); cell i reads ys[s i], ys[s i + 1]
    s, n, span = 1 if left is right else 2, _MASS_CELLS, b - a
    xs = [a, *(a + span * (i / n) for i in range(1, n)), b]
    ys = list(map(right, xs)) if s == 1 else _interleave(list(map(right, xs[:-1])), list(map(left, xs[1:])))
    while True:
        top = max(map(abs, ys))
        slack = _SAMPLE_SLACK * max(1.0, top)
        nonnegative = all(y >= -slack for y in ys)
        nondecreasing = all(map(operator.ge, ys[1:], [y - slack for y in ys]))
        ws = list(map(operator.sub, xs[1:], xs))
        lo, hi = sum(map(operator.mul, ys[::s], ws)), sum(map(operator.mul, ys[1::s], ws))
        r = (n + 2) * _U / (1 - (n + 2) * _U) * top * span
        lo, hi, riemann = _down(lo - r), _up(hi + r), hi - lo
        nondecreasing = nondecreasing and lo <= hi  # a nondecreasing f cannot invert the bracket
        if not (nonnegative and nondecreasing and hi < math.inf) or n >= _MASS_CELLS_MAX:
            break
        k = (x - a) / span * n
        i = round(k) if 0 <= k <= n else (0 if k < 0 else n)
        # the weights over span^2, as the test is homogeneous in them, cannot overflow
        t_lo, t_hi = _gap_bracket(((b - x) / span) ** 2, ((x - a) / span) ** 2, ys[min(s * i, len(ys) - 1)],
                                  ys[max(s * i - s + 1, 0)], ys[0], ys[-1])
        if (abs(t_lo) + abs(t_hi)) * riemann <= (t_hi - t_lo) * lo * _MASS_SHARE:
            break
        ms = [a + span * ((2 * i + 1) / (2 * n)) for i in range(n)]
        fs = list(map(right, ms))
        xs = _interleave(xs, ms)
        ys = _interleave(ys, fs) if s == 1 else _interleave(ys[::2], list(map(left, ms)), fs, ys[1::2])
        n *= 2

    messages = []
    if not nonnegative:
        messages.append(f"density is negative (min sampled value {min(ys):.6g})")
    if not nondecreasing:
        messages.append("density is not monotone nondecreasing on the sampled grid")
    if not (lo > 0 and hi < math.inf):
        problem = "does not exclude 0" if hi < math.inf else "is not finite"
        messages.append(f"total mass bracket [{lo:.9g}, {hi:.9g}] {problem}")
    return DensityReport(not messages, nonnegative, nondecreasing, (lo, hi), tuple(messages))


def _expectation_bracket(a: float, b: float, x: float, dpx: float, dmx: float, fa: float, fb: float,
                         mass: tuple) -> tuple:
    """The bracket for E(X) = x + T/m at x in [a, b] from f(x+), f(x-), f(a+),
    f(b-) and the mass bracket [m_lo, m_hi].  Rounding T to nearest loses less
    than 3u|terms| on a side (u = eps/2, |terms| the sum of its two absolute
    products, outside underflow), so each side moves out by 2 eps |terms| and
    an ulp, and again by an ulp after its division and its shift.  The
    weights are scaled by 4^k, 2^-k about b - a, so that they cannot
    overflow or underflow, and the quotients back, exactly where no value is
    subnormal.  Without m_lo > 0 it is the whole line."""
    m_lo, m_hi = mass
    if not m_lo > 0:
        return -math.inf, math.inf
    k = -math.frexp(b - a)[1]
    wl, wr = math.ldexp(b - x, k) ** 2, math.ldexp(x - a, k) ** 2
    lo, hi = _gap_bracket(wl, wr, dpx, dmx, fa, fb)
    # half of each side's |terms|: the same bracket with every product made positive
    lo_terms, hi_terms = _gap_bracket(wl, wr, abs(dpx), -abs(dmx), -abs(fa), abs(fb))
    e = 4 * sys.float_info.epsilon
    lo, hi = _down(lo - e * lo_terms), _up(hi + e * hi_terms)
    return (_down(math.ldexp(_down(lo / (m_lo if lo < 0 else m_hi)), -2 * k) + x),
            _up(math.ldexp(_up(hi / (m_hi if hi < 0 else m_lo)), -2 * k) + x))


def expectation_enclosure(d: MonotoneDensity, x: float, mass: Optional[tuple] = None) -> Enclosure:
    """Two-sided bound on the mean of f/m at split point x in [a, b], within
    [a, b]; ``mass`` brackets m, by default as :func:`validate_density` at x.
    At an end the zero-weighted slope is not read, and the other is f(a+) or
    f(b-); inside, a continuous density (``left_limit is right_limit``) is
    read once at x.  E(X) lies in [a, b] exactly, so the cut to it needs no
    rounding allowance.  ``Enclosure`` refuses a NaN side or lo > hi, which
    an inverted ``mass`` bracket can give."""
    a, b = d.domain.a, d.domain.b
    x = d.domain.split(x)
    mass = validate_density(d, x).normalization if mass is None else mass
    fa, fb = d.right_limit(a), d.left_limit(b)
    dpx = d.right_limit(x) if a < x < b else fa
    dmx = fb if not a < x < b else dpx if d.left_limit is d.right_limit else d.left_limit(x)
    lo, hi = _expectation_bracket(a, b, x, dpx, dmx, fa, fb, mass)
    return Enclosure(max(lo, a), min(hi, b))
