"""Single-interval bounds for the generalized trapezoid gap of a convex function.

For f convex on [a, b] and a split point x, the *gap* is

    g(x) = (x - a) f(a) + (b - x) f(b) - integral_a^b f(t) dt.

This module computes the two-sided certificate

    (1/2) [ (b-x)^2 f'+(x) - (x-a)^2 f'-(x) ]            (lower, x in (a,b))
      <=  g(x)  <=
    (1/2) [ (b-x)^2 f'-(b) - (x-a)^2 f'+(a) ]            (upper, x in [a,b])

together with its Hermite-Hadamard specializations, the differentiable-point
lower bound, the sliding-window form, the optimal split point, and classical
comparison bounds (bounded variation / monotone / Lipschitz / Lebesgue-norm)
that take user-supplied constants.

Bounds are computed in plain floating arithmetic; tests allow a documented
slack of 1e-9.  Any bound touching an infinite endpoint derivative degenerates
to a trivially true enclosure.  An integral (the window form, the CLI's
``gap``/``hh``) is the adaptive enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from .funcs import DEFAULT_TOL, ConvexFunction, DomainError, Interval


class NotDifferentiableError(ValueError):
    """The one-sided derivatives disagree at a point where a formula needs f'(x)."""


class PreconditionError(ValueError):
    """A bound's hypothesis (finite/ordered endpoint derivatives, ...) fails."""


class MissingConstantError(ValueError):
    """A classical bound was requested without its constant."""


@dataclass(frozen=True)
class Enclosure:
    """Ordered pair [lo, hi] certifying lo <= true value <= hi.

    Endpoints are extended reals; an infinite side is a valid but
    uninformative certificate.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("enclosure endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"enclosure requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class GapQuery:
    """A convex function and the split point of the generalized trapezoid."""

    f: ConvexFunction
    x: float

    def __post_init__(self) -> None:
        if not self.f.domain.contains(self.x):
            raise DomainError(
                f"split point {self.x} outside [{self.f.domain.a}, {self.f.domain.b}]"
            )


@dataclass(frozen=True)
class ClassicalConstants:
    """User-supplied constants for the classical comparison bounds.

    ``total_variation`` is the total variation of f over [a,b]; ``lipschitz``
    a Lipschitz constant; ``dnorm_inf``/``dnorm_p``/``dnorm_1`` are Lebesgue
    norms of f' (``p`` > 1 must accompany ``dnorm_p``).  ``monotone`` enables
    the bound that needs no constant beyond f(a), f(b) but assumes f
    nondecreasing.
    """

    total_variation: Optional[float] = None
    lipschitz: Optional[float] = None
    dnorm_inf: Optional[float] = None
    dnorm_p: Optional[float] = None
    p: Optional[float] = None
    dnorm_1: Optional[float] = None
    monotone: bool = False

    def __post_init__(self) -> None:
        for field_name in ("total_variation", "dnorm_inf", "dnorm_p", "dnorm_1"):
            v = getattr(self, field_name)
            if v is not None and v < 0:
                raise ValueError(f"{field_name} must be nonnegative, got {v}")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise ValueError(f"lipschitz must be positive, got {self.lipschitz}")
        if self.dnorm_p is not None and (self.p is None or self.p <= 1):
            raise ValueError("dnorm_p requires an exponent p > 1")


class WindowReport(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


class OptimalPointReport(NamedTuple):
    x0: float
    gap_upper: float


def _gap_bracket(wl: float, wr: float, dpx: float, dmx: float, dpu: float, dmv: float) -> tuple:
    """The paper's bracket for the gap of a cell [u, v] split at x:

        (1/2)[wl f'+(x) - wr f'-(x)]  <=  gap  <=  (1/2)[wl f'-(v) - wr f'+(u)]

    with weights wl = (v - x)^2 and wr = (x - u)^2 and the one-sided slopes
    given as numbers.  The gap, Hermite-Hadamard, quadrature remainder,
    expectation and divergence-gap brackets of this package are all this
    one: at the midpoint it is the 1/8 form (:func:`_midpoint_bracket`),
    applied to a cdf it bounds an expectation.

    A zero weight drops its term, so its slope is never multiplied and may
    stand for one that does not exist.  The two sides are independent: a
    caller that needs one side passes 0.0 for the other side's slopes.
    f'-(v) = +inf or f'+(u) = -inf makes the upper side +inf; an
    indeterminate lower side (inf - inf) is -inf.
    """
    lo = 0.5 * ((wl * dpx if wl else 0.0) - (wr * dmx if wr else 0.0))
    tl = wl * dmv if wl else 0.0
    tr = wr * dpu if wr else 0.0
    hi = math.inf if (tl == math.inf or tr == -math.inf) else 0.5 * (tl - tr)
    return (-math.inf if math.isnan(lo) else lo), hi


def _midpoint_bracket(h: float, dpm, dmm, dpu: float, dmv: float) -> tuple:
    """:func:`_gap_bracket` at the midpoint m of a cell of width h, with the
    weights h^2/4 of the exact midpoint: the 1/8 form of the trapezoid
    remainder, from the slopes at m and the outward slopes at the ends.

    A cell with no float strictly inside it has no midpoint to sample: its
    midpoint slopes are None and the lower side is the Hermite-Hadamard
    bound 0, which the bracket gives for equal midpoint slopes.
    """
    w = 0.25 * h * h
    if dpm is None:
        dpm = dmm = 0.0
    return _gap_bracket(w, w, dpm, dmm, dpu, dmv)


def _reference_integral(f: ConvexFunction, u: float, v: float) -> Enclosure:
    """Certified enclosure of the integral of f over [u, v], width 1e-10 within 200k cells."""
    from . import quadrature  # deferred: quadrature depends on this module

    # replace keeps every oracle of f, the f'' range included
    return quadrature.adaptive_integrate(replace(f, domain=Interval(u, v)), 1e-10, 200_000).integral


def lower_gap_bound(q: GapQuery) -> float:
    """Certified lower bound (1/2)[(b-x)^2 f'+(x) - (x-a)^2 f'-(x)], x in (a,b)."""
    f, x = q.f, q.x
    a, b = f.domain.a, f.domain.b
    if not a < x < b:
        raise DomainError(f"lower gap bound needs x strictly inside ({a}, {b}), got {x}")
    return _gap_bracket((b - x) ** 2, (x - a) ** 2, f.d_plus(x), f.d_minus(x), 0.0, 0.0)[0]


def upper_gap_bound(q: GapQuery) -> float:
    """Certified upper bound (1/2)[(b-x)^2 f'-(b) - (x-a)^2 f'+(a)], x in [a,b].

    Returns +inf when f'-(b) = +inf or f'+(a) = -inf (trivially true).
    """
    f, x = q.f, q.x
    a, b = f.domain.a, f.domain.b
    return _gap_bracket((b - x) ** 2, (x - a) ** 2, 0.0, 0.0, f.d_plus(a), f.d_minus(b))[1]


def gap_enclosure(q: GapQuery) -> Enclosure:
    """Two-sided certificate for the gap; x must be strictly interior."""
    return Enclosure(lower_gap_bound(q), upper_gap_bound(q))


def hh_bounds(f: ConvexFunction) -> Enclosure:
    """Enclosure of the Hermite-Hadamard defect (f(a)+f(b))/2 - (1/(b-a)) int f.

    lo = (1/8)[f'+(m) - f'-(m)](b-a) with m the midpoint,
    hi = (1/8)[f'-(b) - f'+(a)](b-a); both sharp (equality for the kink at m).
    """
    a, b = f.domain.a, f.domain.b
    m = f.domain.midpoint
    lo, hi = _midpoint_bracket(b - a, f.d_plus(m), f.d_minus(m), f.d_plus(a), f.d_minus(b))
    return Enclosure(lo / (b - a), hi / (b - a))


def _derivative(f: ConvexFunction, x: float) -> float:
    """f'(x), or the one side at an end of the domain; slopes that differ beyond
    ``DEFAULT_TOL`` or an infinite one raise :class:`NotDifferentiableError`."""
    a, b = f.domain.a, f.domain.b
    if x <= a:
        return f.d_plus(a)
    if x >= b:
        return f.d_minus(b)
    dp = f.d_plus(x)
    dm = f.d_minus(x)
    scale = max(1.0, abs(dp), abs(dm))
    if not (math.isfinite(dp) and math.isfinite(dm)) or abs(dp - dm) > DEFAULT_TOL * scale:
        raise NotDifferentiableError(
            f"{f.label!r} is not differentiable at {x}: f'-={dm}, f'+={dp}"
        )
    return 0.5 * (dp + dm)


def differentiable_lower(f: ConvexFunction, x: float) -> float:
    """Lower bound (b-a)((a+b)/2 - x) f'(x) at a point of differentiability."""
    a, b = f.domain.a, f.domain.b
    if not a < x < b:
        raise DomainError(f"differentiable lower bound needs x in ({a}, {b}), got {x}")
    d = _derivative(f, x)
    return (b - a) * (0.5 * (a + b) - x) * d


def window_inequality(f: ConvexFunction, x: float, h: float) -> WindowReport:
    """Kink defect vs trapezoid defect on the window [x - h/2, x + h/2].

    lhs = (1/8) h^2 [f'+(x) - f'-(x)],
    rhs = h (f(x-h/2) + f(x+h/2))/2 - (midpoint of the window's integral);
    ``holds`` iff 0 <= lhs <= rhs within 1e-9 slack.
    """
    if h <= 0:
        raise ValueError(f"window width h must be positive, got {h}")
    u, v = x - 0.5 * h, x + 0.5 * h
    if not (f.domain.contains(u) and f.domain.contains(v)):
        raise DomainError(
            f"window [{u}, {v}] not contained in [{f.domain.a}, {f.domain.b}]"
        )
    lhs = _midpoint_bracket(h, f.d_plus(x), f.d_minus(x), 0.0, 0.0)[0]
    rhs = h * 0.5 * (f(u) + f(v)) - _reference_integral(f, u, v).midpoint
    holds = 0.0 <= lhs + 1e-9 and lhs <= rhs + 1e-9
    return WindowReport(lhs, rhs, holds)


def optimal_point_bound(f: ConvexFunction) -> OptimalPointReport:
    """Split point minimizing the upper gap bound, with the resulting bound.

    With A = f'+(a), B = f'-(b), requires A and B finite, B > A and
    A <= 0 <= B (exactly the condition for x0 to land in [a, b]):

        x0 = (bB - aA)/(B - A),    gap(x0) <= -(1/2) A B (b-a)^2 / (B - A).
    """
    a, b = f.domain.a, f.domain.b
    A = f.d_plus(a)
    B = f.d_minus(b)
    if not (math.isfinite(A) and math.isfinite(B)):
        raise PreconditionError(f"endpoint derivatives must be finite, got A={A}, B={B}")
    if B <= A:
        raise PreconditionError(f"requires f'-(b) > f'+(a), got A={A}, B={B}")
    if A > 0 or B < 0:
        raise PreconditionError(f"requires f'+(a) <= 0 <= f'-(b), got A={A}, B={B}")
    x0 = (b * B - a * A) / (B - A)
    gap_upper = -0.5 * A * B * (b - a) ** 2 / (B - A)
    return OptimalPointReport(x0, gap_upper)


_CLASSICAL_NAMES = ("bounded_variation", "monotone", "lipschitz", "dnorm_inf", "dnorm_p", "dnorm_1")


def classical_bounds(
    f: ConvexFunction,
    x: float,
    c: ClassicalConstants,
    which: Optional[Sequence[str]] = None,
) -> list[tuple[str, float]]:
    """Classical |gap| bounds with user-supplied constants.

    Available bounds (name -> formula, m = (a+b)/2):

    - ``bounded_variation``: [ (b-a)/2 + |x-m| ] * V
    - ``monotone``:          [ (b-a)/2 + |x-m| ] * (f(b) - f(a))
    - ``lipschitz``:         [ (b-a)^2/4 + (x-m)^2 ] * L
    - ``dnorm_inf``:         [ (b-a)^2/4 + (x-m)^2 ] * ||f'||_inf
    - ``dnorm_p``:           ( (x-a)^(q+1) + (b-x)^(q+1) )^(1/q) / (q+1)^(1/q) * ||f'||_p
    - ``dnorm_1``:           [ (b-a)/2 + |x-m| ] * ||f'||_1

    ``which=None`` returns every bound whose constant is present; explicitly
    requesting a bound without its constant raises :class:`MissingConstantError`.
    """
    a, b = f.domain.a, f.domain.b
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside [{a}, {b}]")
    m = 0.5 * (a + b)
    half_plus = 0.5 * (b - a) + abs(x - m)
    quarter_plus = 0.25 * (b - a) ** 2 + (x - m) ** 2

    available: dict[str, Optional[float]] = {}
    available["bounded_variation"] = (
        None if c.total_variation is None else half_plus * c.total_variation
    )
    available["monotone"] = half_plus * (f(b) - f(a)) if c.monotone else None
    available["lipschitz"] = None if c.lipschitz is None else quarter_plus * c.lipschitz
    available["dnorm_inf"] = None if c.dnorm_inf is None else quarter_plus * c.dnorm_inf
    if c.dnorm_p is None:
        available["dnorm_p"] = None
    else:
        q_exp = c.p / (c.p - 1.0)
        coeff = ((x - a) ** (q_exp + 1.0) + (b - x) ** (q_exp + 1.0)) ** (1.0 / q_exp)
        available["dnorm_p"] = coeff / (q_exp + 1.0) ** (1.0 / q_exp) * c.dnorm_p
    available["dnorm_1"] = None if c.dnorm_1 is None else half_plus * c.dnorm_1

    names = list(which) if which is not None else [n for n in _CLASSICAL_NAMES if available[n] is not None]
    out = []
    for name in names:
        if name not in available:
            raise ValueError(f"unknown classical bound {name!r}; known: {', '.join(_CLASSICAL_NAMES)}")
        value = available[name]
        if value is None:
            raise MissingConstantError(f"bound {name!r} requested but its constant is missing")
        out.append((name, value))
    return out
