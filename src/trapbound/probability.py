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
``pointwise._split_bracket`` applied to F, shifted by x; the best split over
a grid reads f(a+) and f(b-) once for the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .funcs import DomainError, Interval
from .pointwise import _gap_bracket, _split_bracket

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

    ``breaks`` must start at the left endpoint; the implicit last break is the
    right endpoint.
    """
    brk = list(breaks) + [domain.b]
    if len(values) != len(brk) - 1 or abs(brk[0] - domain.a) > 0:
        raise ValueError("breaks must start at domain.a and pair with values")

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
    limit at the right edge.  Where both limits are one function (a
    continuous density) each grid point is read once."""
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


def expectation_enclosure(d: MonotoneDensity, x: float) -> ExpectationEnclosure:
    """Two-sided expectation bound at split point x in (a, b)."""
    a, b = d.domain.a, d.domain.b
    if not a < x < b:
        raise DomainError(f"split point must lie strictly inside ({a}, {b}), got {x}")
    lo, hi = _split_bracket(d.right_limit, d.left_limit, a, b, x)
    return ExpectationEnclosure(lo + x, hi + x, x)


def midpoint_expectation_enclosure(d: MonotoneDensity) -> ExpectationEnclosure:
    """Expectation bound at the midpoint of the support:

    (1/8)[f(m+) - f(m-)](b-a)^2 + m <= E(X) <= (1/8)[f(b-) - f(a+)](b-a)^2 + m.
    """
    return expectation_enclosure(d, d.domain.midpoint)


def best_expectation_enclosure(d: MonotoneDensity) -> ExpectationEnclosure:
    """Optimize each side of the expectation bound over ``_EXPECTATION_GRIDPOINTS``
    equispaced split points, the ends of the support included.

    ``x_used`` reports the split point attaining the best upper bound.
    """
    a, b = d.domain.a, d.domain.b
    n = _EXPECTATION_GRIDPOINTS
    ts = [a + (b - a) * i / (n - 1) for i in range(n)]
    ts[-1] = b

    fa, fb = d.right_limit(a), d.left_limit(b)
    best_lo, best_hi, x_used = -math.inf, math.inf, a
    for x in ts:
        # at an end one weight is zero and its slope is not read; the other
        # slope there is f(a+) or f(b-)
        inner = a < x < b
        dpx = d.right_limit(x) if inner else fa
        dmx = d.left_limit(x) if inner else fb
        lo, hi = _gap_bracket((b - x) ** 2, (x - a) ** 2, dpx, dmx, fa, fb)
        best_lo = max(best_lo, lo + x)
        if hi + x < best_hi:
            best_hi = hi + x
            x_used = x
    return ExpectationEnclosure(best_lo, best_hi, x_used)
