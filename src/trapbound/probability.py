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
from typing import Callable, NamedTuple, Optional, Sequence

from .funcs import ConvexFunction, DomainError, Interval
from .pointwise import Enclosure, _gap_bracket
from .quadrature import adaptive_integrate

#: Grid size of the monotone Riemann bracket used by the normalization check.
_NORMALIZATION_CELLS = 4096


class InvalidDensityError(ValueError):
    """A density failed the nonnegativity / monotonicity / normalization checks."""


@dataclass(frozen=True)
class MonotoneDensity:
    """Nondecreasing probability density on a bounded support.

    ``left_limit``/``right_limit`` supply the one-sided limits f(x-), f(x+);
    for a continuous density both coincide with ``pdf``.  ``cdf`` (an exact
    antiderivative with cdf(a) = 0) and ``mean`` are optional closed forms
    used for cross-checks and test oracles.
    """

    domain: Interval
    pdf: Callable[[float], float]
    left_limit: Callable[[float], float]
    right_limit: Callable[[float], float]
    label: str = ""
    cdf: Optional[Callable[[float], float]] = None
    mean: Optional[float] = None


def continuous_density(
    domain: Interval,
    pdf: Callable[[float], float],
    label: str = "",
    cdf: Optional[Callable[[float], float]] = None,
    mean: Optional[float] = None,
) -> MonotoneDensity:
    """Density whose one-sided limits are plain evaluations."""
    return MonotoneDensity(domain, pdf, pdf, pdf, label, cdf, mean)


def piecewise_constant_density(
    domain: Interval,
    breaks: Sequence[float],
    values: Sequence[float],
    label: str = "",
) -> MonotoneDensity:
    """Step density: ``values[i]`` on [breaks[i], breaks[i+1]), right continuous.

    ``breaks`` must start at the left endpoint; the implicit last break is the
    right endpoint.  The cdf and mean are computed in closed form.
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

    def cdf(x: float) -> float:
        acc = 0.0
        for lo, hi, v in zip(brk, brk[1:], values):
            acc += v * (min(x, hi) - lo)
            if x <= hi:
                break
        return acc

    mean = sum(0.5 * v * (hi * hi - lo * lo) for lo, hi, v in zip(brk, brk[1:], values))
    return MonotoneDensity(domain, pdf, left_limit, pdf, label, cdf, mean)


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


def _mass_bracket(d: MonotoneDensity, cells: int = _NORMALIZATION_CELLS) -> tuple:
    """Certified bracket for integral of a nondecreasing density: on each cell
    the infimum is the right limit at the left edge and the supremum the left
    limit at the right edge."""
    a, b = d.domain.a, d.domain.b
    h = (b - a) / cells
    lo = 0.0
    hi = 0.0
    for i in range(cells):
        u = a + i * h
        v = b if i == cells - 1 else a + (i + 1) * h
        lo += d.right_limit(u) * (v - u)
        hi += d.left_limit(v) * (v - u)
    return lo, hi


def validate_density(d: MonotoneDensity, gridpoints: int = 201, tol: float = 1e-6) -> DensityReport:
    """Check the hypotheses: f >= 0, f nondecreasing, total mass 1.

    Nonnegativity and monotonicity are sampled on a grid; the normalization
    uses the monotone Riemann bracket of ``_mass_bracket`` and passes when
    that bracket is consistent with total mass 1 within ``tol``.
    """
    a, b = d.domain.a, d.domain.b
    ts = [a + (b - a) * i / (gridpoints - 1) for i in range(gridpoints)]
    values = [d.pdf(t) for t in ts]
    scale = max(1.0, max(abs(v) for v in values))

    messages = []
    nonnegative = all(v >= -tol * scale for v in values)
    if not nonnegative:
        worst = min(values)
        messages.append(f"density is negative (min sampled value {worst:.6g})")

    nondecreasing = all(v2 >= v1 - tol * scale for v1, v2 in zip(values, values[1:]))
    if not nondecreasing:
        messages.append("density is not monotone nondecreasing on the sampled grid")

    lo, hi = _mass_bracket(d)
    normalized = lo <= 1.0 + tol and hi >= 1.0 - tol
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


def expectation_via_cdf(d: MonotoneDensity, eps: float = 1e-8) -> Enclosure:
    """Certified E(X) enclosure through integral_a^b F = b - E(X).

    The cdf of a nondecreasing density is convex, so the verified adaptive
    integrator applies to it directly; used as an independent cross-check of
    the pointwise expectation bounds.
    """
    if d.cdf is None:
        raise ValueError(f"density {d.label!r} carries no closed-form cdf")
    F = ConvexFunction(
        domain=d.domain,
        evaluate=d.cdf,
        dplus=d.right_limit,
        dminus=d.left_limit,
        label=f"cdf of {d.label}",
    )
    result = adaptive_integrate(F, eps=eps, max_cells=200_000)
    return Enclosure(d.domain.b - result.integral.hi, d.domain.b - result.integral.lo)
