"""Expectation enclosures for random variables with nondecreasing densities.

If the density f on [a, b] is monotone nondecreasing, the cdf
F(x) = integral_a^x f is convex with F'+ = f(.+) and F'- = f(.-), so the
single-interval gap bounds applied to F give, for x in (a, b),

    (1/2)[(b-x)^2 f(x+) - (x-a)^2 f(x-)] + x
      <=  E(X)  <=
    (1/2)[(b-x)^2 f(b-) - (x-a)^2 f(a+)] + x

(the upper bound also holds at x = a and x = b), using the identity
integral_a^b F = b - E(X).  The one-sided limits are taken from inside
[a, b]; limits from outside the support do not exist.  Both sides come from
``pointwise._gap_bracket``, the kernel behind every gap bracket of the
package (pointwise and quadrature too), fed the slopes of F.
"""

from __future__ import annotations

import math
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


class InvalidDensityError(ValueError):
    """A density failed the nonnegativity / monotonicity / normalization checks."""


@dataclass(frozen=True)
class MonotoneDensity:
    """Nondecreasing probability density on a bounded support.

    ``left_limit``/``right_limit`` supply the one-sided limits f(x-), f(x+);
    for a continuous density both coincide with ``pdf``.
    """

    domain: Interval
    pdf: Callable[[float], float]
    left_limit: Callable[[float], float]
    right_limit: Callable[[float], float]
    label: str = ""


def continuous_density(domain: Interval, pdf: Callable[[float], float], label: str = "") -> MonotoneDensity:
    """Density whose one-sided limits are plain evaluations."""
    return MonotoneDensity(domain, pdf, pdf, pdf, label)


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

    return MonotoneDensity(domain, pdf, left_limit, pdf, label)


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
    limit at the right edge."""
    a, b = d.domain.a, d.domain.b
    h = (b - a) / _NORMALIZATION_CELLS
    lo = 0.0
    hi = 0.0
    for i in range(_NORMALIZATION_CELLS):
        u = a + i * h
        v = b if i == _NORMALIZATION_CELLS - 1 else a + (i + 1) * h
        lo += d.right_limit(u) * (v - u)
        hi += d.left_limit(v) * (v - u)
    return lo, hi


def validate_density(d: MonotoneDensity) -> DensityReport:
    """Check the hypotheses: f >= 0, f nondecreasing, total mass 1.

    Nonnegativity and monotonicity are sampled on a grid; the normalization
    uses the monotone Riemann bracket of ``_mass_bracket`` and passes when
    that bracket is consistent with total mass 1 within ``_DENSITY_TOL``.
    """
    a, b = d.domain.a, d.domain.b
    ts = [a + (b - a) * i / (_DENSITY_GRIDPOINTS - 1) for i in range(_DENSITY_GRIDPOINTS)]
    values = [d.pdf(t) for t in ts]
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


def _lower(d: MonotoneDensity, x: float) -> float:
    a, b = d.domain.a, d.domain.b
    return _gap_bracket((b - x) ** 2, (x - a) ** 2, d.right_limit(x), d.left_limit(x), 0.0, 0.0)[0] + x


def _upper(a: float, b: float, fa: float, fb: float, x: float) -> float:
    """Upper bound at x from fa = f(a+) and fb = f(b-)."""
    return _gap_bracket((b - x) ** 2, (x - a) ** 2, 0.0, 0.0, fa, fb)[1] + x


def expectation_enclosure(d: MonotoneDensity, x: float) -> ExpectationEnclosure:
    """Two-sided expectation bound at split point x in (a, b)."""
    a, b = d.domain.a, d.domain.b
    if not a < x < b:
        raise DomainError(f"split point must lie strictly inside ({a}, {b}), got {x}")
    return ExpectationEnclosure(_lower(d, x), _upper(a, b, d.right_limit(a), d.left_limit(b), x), x)


def midpoint_expectation_enclosure(d: MonotoneDensity) -> ExpectationEnclosure:
    """Expectation bound at the midpoint of the support:

    (1/8)[f(m+) - f(m-)](b-a)^2 + m <= E(X) <= (1/8)[f(b-) - f(a+)](b-a)^2 + m.
    """
    return expectation_enclosure(d, d.domain.midpoint)


def best_expectation_enclosure(d: MonotoneDensity, gridpoints: int = 1001) -> ExpectationEnclosure:
    """Optimize each side of the expectation bound over a grid of split points.

    The lower bound is maximized over interior grid points, the upper bound
    minimized over the full grid including endpoints.  ``x_used`` reports the
    split point attaining the best upper bound.
    """
    if gridpoints < 3:
        raise ValueError(f"gridpoints must be >= 3, got {gridpoints}")
    a, b = d.domain.a, d.domain.b
    ts = [a + (b - a) * i / (gridpoints - 1) for i in range(gridpoints)]
    ts[-1] = b

    best_lo = -math.inf
    for x in ts[1:-1]:
        lo = _lower(d, x)
        if lo > best_lo:
            best_lo = lo
    fa, fb = d.right_limit(a), d.left_limit(b)
    best_hi = math.inf
    x_used = a
    for x in ts:
        hi = _upper(a, b, fa, fb, x)
        if hi < best_hi:
            best_hi = hi
            x_used = x
    return ExpectationEnclosure(best_lo, best_hi, x_used)

