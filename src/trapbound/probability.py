"""Expectation enclosures for random variables with nondecreasing densities.

If the density f on [a, b] is monotone nondecreasing, the cdf
F(x) = integral_a^x f is convex with F'+ = f(.+) and F'- = f(.-), so the
single-interval gap bounds applied to F give, for x in [a, b],

    (1/2)[(b-x)^2 f(x+) - (x-a)^2 f(x-)] + x
      <=  E(X)  <=
    (1/2)[(b-x)^2 f(b-) - (x-a)^2 f(a+)] + x

using the identity integral_a^b F = b - E(X).  The one-sided limits are
taken from inside [a, b]: limits from outside the support do not exist, and
at x = a or b the zero-weighted one is not read.  Both sides are
``pointwise._gap_bracket`` applied to F, shifted by x and moved outward by a
bound on their rounding error; the best split over a grid reads f(a+) and
f(b-) once for it all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .funcs import DomainError, Interval
from .pointwise import _gap_bracket

#: Grid size of the monotone Riemann bracket used by the normalization check.
_NORMALIZATION_CELLS = 4096
#: Grid size and tolerance of the sampled nonnegativity/monotonicity checks;
#: the tolerance also bounds the normalization check.
_DENSITY_GRIDPOINTS = 201
_DENSITY_TOL = 1e-6
#: Split points tried by :func:`best_expectation_enclosure`.
_EXPECTATION_GRIDPOINTS = 1001


@dataclass(frozen=True)
class MonotoneDensity:
    """Nondecreasing probability density on a bounded support.

    ``left_limit``/``right_limit`` supply the one-sided limits f(x-), f(x+);
    ``right_limit`` is also the density's value (densities are taken right
    continuous), and for a continuous density both are the density itself.
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


class ExpectationEnclosure(NamedTuple):
    lo: float
    hi: float
    x_used: float


class DensityReport(NamedTuple):
    valid: bool
    nonnegative: bool
    nondecreasing: bool
    normalization: tuple
    messages: tuple


def _mass_bracket(d: MonotoneDensity) -> tuple:
    """Certified bracket for integral of a nondecreasing density: on each cell
    the infimum is the right limit at the left edge and the supremum the left
    limit at the right edge, read in one pass over x_i = a + i h (x_n = b),
    each point once where both limits are one function (a continuous density)."""
    a, b = d.domain.a, d.domain.b
    n = _NORMALIZATION_CELLS
    h = (b - a) / n
    left, right = d.left_limit, d.right_limit
    u = a + 0 * h  # as each x_i is: 0.0 for a = -0.0, NaN for an inf h
    fu = right(u)
    lo = hi = 0.0
    for i in range(1, n + 1):
        v = a + i * h if i < n else b
        fv = left(v)
        w = v - u
        lo += fu * w
        hi += fv * w
        u, fu = v, (fv if left is right or i == n else right(v))
    return lo, hi


def validate_density(d: MonotoneDensity) -> DensityReport:
    """Check the hypotheses: f >= 0, f nondecreasing, total mass 1.

    Nonnegativity and monotonicity are sampled from ``right_limit`` on a
    grid; the normalization uses the monotone Riemann bracket of
    ``_mass_bracket`` and passes when that bracket is consistent with total
    mass 1 within ``_DENSITY_TOL``.
    """
    a, b = d.domain.a, d.domain.b
    ts = [a + (b - a) * i / (_DENSITY_GRIDPOINTS - 1) for i in range(_DENSITY_GRIDPOINTS)]
    values = [d.right_limit(t) for t in ts]
    slack = _DENSITY_TOL * max(1.0, max(abs(v) for v in values))

    messages = []
    nonnegative = all(v >= -slack for v in values)
    if not nonnegative:
        worst = min(values)
        messages.append(f"density is negative (min sampled value {worst:.6g})")

    nondecreasing = all(v2 >= v1 - slack for v1, v2 in zip(values, values[1:]))
    if not nondecreasing:
        messages.append("density is not monotone nondecreasing on the sampled grid")

    lo, hi = _mass_bracket(d)
    normalized = lo <= 1.0 + _DENSITY_TOL and hi >= 1.0 - _DENSITY_TOL
    if not normalized:
        messages.append(f"total mass bracket [{lo:.9g}, {hi:.9g}] excludes 1")

    valid = nonnegative and nondecreasing and normalized
    return DensityReport(valid, nonnegative, nondecreasing, (lo, hi), tuple(messages))


def _expectation_bracket(a: float, b: float, x: float, dpx: float, dmx: float, fa: float, fb: float) -> tuple:
    """The bracket for E(X) at x in [a, b] from f(x+), f(x-), f(a+), f(b-).
    Rounding its weights, products, difference and shift to nearest loses
    less than 3u|terms| + u|x| on a side (u = eps/2, |terms| the sum of its
    two absolute products, outside underflow); each side moves out by
    2 eps (|terms| + |x|) and one ulp, so it holds at zero slack."""
    wl, wr = (b - x) ** 2, (x - a) ** 2
    lo, hi = _gap_bracket(wl, wr, dpx, dmx, fa, fb)
    # half of each side's |terms|: the same bracket with every product made positive
    lo_terms, hi_terms = _gap_bracket(wl, wr, abs(dpx), -abs(dmx), -abs(fa), abs(fb))
    e = 2 * sys.float_info.epsilon
    return (math.nextafter(lo + x - e * (2 * lo_terms + abs(x)), -math.inf),
            math.nextafter(hi + x + e * (2 * hi_terms + abs(x)), math.inf))


def _bracket_at(d: MonotoneDensity, x: float, fa: float, fb: float) -> tuple:
    """:func:`_expectation_bracket` at x in [a, b], given f(a+) and f(b-).
    At an end one weight is zero and its slope is not read; the other slope
    there is f(a+) or f(b-)."""
    a, b = d.domain.a, d.domain.b
    inner = a < x < b
    dpx = d.right_limit(x) if inner else fa
    dmx = d.left_limit(x) if inner else fb
    return _expectation_bracket(a, b, x, dpx, dmx, fa, fb)


def _clip(d: MonotoneDensity, lo: float, hi: float, x_used: float) -> ExpectationEnclosure:
    """The enclosure cut to the support: E(X) lies in [a, b] exactly, so the
    cut needs no rounding allowance.  A NaN side stays NaN."""
    return ExpectationEnclosure(max(lo, d.domain.a), min(hi, d.domain.b), x_used)


def expectation_enclosure(d: MonotoneDensity, x: float) -> ExpectationEnclosure:
    """Two-sided expectation bound at split point x in [a, b], within [a, b]."""
    a, b = d.domain.a, d.domain.b
    if not a <= x <= b:
        raise DomainError(f"split point must lie in [{a}, {b}], got {x}")
    return _clip(d, *_bracket_at(d, x, d.right_limit(a), d.left_limit(b)), x)


def midpoint_expectation_enclosure(d: MonotoneDensity) -> ExpectationEnclosure:
    """Expectation bound at the midpoint of the support:

    (1/8)[f(m+) - f(m-)](b-a)^2 + m <= E(X) <= (1/8)[f(b-) - f(a+)](b-a)^2 + m.

    When a and b are adjacent floats, m rounds onto an end.
    """
    return expectation_enclosure(d, d.domain.midpoint)


def best_expectation_enclosure(d: MonotoneDensity) -> ExpectationEnclosure:
    """Optimize each side of the expectation bound over ``_EXPECTATION_GRIDPOINTS``
    equispaced split points, the ends of the support included.

    ``x_used`` reports the split point attaining the best upper bound before
    the enclosure is cut to the support.
    """
    a, b = d.domain.a, d.domain.b
    n = _EXPECTATION_GRIDPOINTS
    ts = [a + (b - a) * i / (n - 1) for i in range(n)]
    ts[-1] = b

    fa, fb = d.right_limit(a), d.left_limit(b)
    best_lo, best_hi, x_used = -math.inf, math.inf, a
    for x in ts:
        lo, hi = _bracket_at(d, x, fa, fb)
        best_lo = max(best_lo, lo)
        if hi < best_hi:
            best_hi = hi
            x_used = x
    return _clip(d, best_lo, best_hi, x_used)
