"""Convex functions on a closed interval with one-sided derivative oracles.

Everything downstream (gap bounds, quadrature enclosures, expectation and
divergence bounds) consumes a :class:`ConvexFunction`: an evaluator together
with oracles for the right derivative f'+ (defined on [a,b)) and the left
derivative f'- (defined on (a,b]).  Endpoint derivatives may be +-inf; the
bound machinery propagates infinities into trivially-true enclosures.

The module also ships a catalog of reference functions with exact one-sided
derivatives and f'', f''' and f'''' ranges, and a grid based convexity
checker; expression text gets its exact oracles from
:func:`trapbound.expr.to_convex_function`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

#: Default relative tolerance for convexity / monotonicity checks.  Secant
#: slopes of nearly-affine functions are noisy in floating point, so checks
#: scale this by the sampled magnitude of the function.
DEFAULT_TOL = 1e-9
#: Grid size of :func:`check_convexity`.
_CONVEXITY_GRIDPOINTS = 101


class DomainError(ValueError):
    """A point lies outside the interval a function is defined on."""


class EvaluationError(RuntimeError):
    """A function could not be evaluated at a sample point."""


class NonConvexityError(RuntimeError):
    """A computation detected a violation of the convexity hypothesis."""


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b


@dataclass(frozen=True)
class ConvexFunction:
    """A convex function on ``domain`` with one-sided derivative oracles.

    ``dplus`` is f'+ (right derivative, defined on [a, b)) and ``dminus`` is
    f'- (left derivative, defined on (a, b]).  Either may return +-inf at the
    endpoints (e.g. -log t at t=0).

    ``_d2range``, private and optional, maps a cell (u, v) to
    ``(lo, hi, lo3, hi3, lo4, hi4)`` with 0 <= lo <= f'' <= hi (hi may be
    +inf), lo3 <= f''' <= hi3 and lo4 <= f'''' <= hi4 on it, or to None
    where no f'' range is known; lo3 and hi3 are -inf and +inf where f is
    not C^3 on the cell, and lo4 and hi4 where it is not C^4.  The catalog
    writes the three ranges in closed form and
    :func:`trapbound.expr.to_convex_function` in interval arithmetic, in one
    call.  Each of the six ends may be one ulp off, as one call to a
    faithful libm (within 1 ulp) is; a multi-step oracle rounds its inner
    steps outward.  Values and one-sided slopes are assumed faithful in the
    same sense: the adaptive integrator's rounding bounds
    (:mod:`trapbound.quadrature`) rest on it.

    Instances are immutable and all methods are pure.
    """

    domain: Interval
    evaluate: Callable[[float], float]
    dplus: Callable[[float], float]
    dminus: Callable[[float], float]
    label: str = ""
    _d2range: Optional[Callable[[float, float], Optional[tuple]]] = None

    def __call__(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainError(f"{x} outside domain [{self.domain.a}, {self.domain.b}] of {self.label!r}")
        try:
            return self.evaluate(x)
        except DomainError:
            raise
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationError(f"cannot evaluate {self.label!r} at {x}: {exc}") from exc

    def d_plus(self, x: float) -> float:
        """Right derivative f'+(x), defined for x in [a, b)."""
        if not (self.domain.a <= x < self.domain.b):
            raise DomainError(f"f'+ undefined at {x} on [{self.domain.a}, {self.domain.b}]")
        return self.dplus(x)

    def d_minus(self, x: float) -> float:
        """Left derivative f'-(x), defined for x in (a, b]."""
        if not (self.domain.a < x <= self.domain.b):
            raise DomainError(f"f'- undefined at {x} on [{self.domain.a}, {self.domain.b}]")
        return self.dminus(x)


class ConvexityReport(NamedTuple):
    passed: bool
    worst_violation: float
    witness: Optional[tuple]


def check_convexity(f: ConvexFunction) -> ConvexityReport:
    """Secant-slope monotonicity check on ``_CONVEXITY_GRIDPOINTS`` equispaced
    points (endpoints included).

    ``passed`` iff the worst violation of slope(t1,t2) <= slope(t2,t3) over
    consecutive triples of distinct grid points stays within ``DEFAULT_TOL``
    scaled by the sampled magnitude.  The check samples; it proves nothing
    between grid points.  Evaluation failures surface as
    :class:`EvaluationError`, never as a convexity verdict.
    """
    a, b = f.domain.a, f.domain.b
    n = _CONVEXITY_GRIDPOINTS
    ts = [a + (b - a) * i / (n - 1) for i in range(n)]
    ts[-1] = b
    values = [f(t) for t in ts]

    finite = [abs(v) for v in values if math.isfinite(v)]
    scale = max(1.0, max(finite)) if finite else 1.0
    slack = DEFAULT_TOL * scale

    # each secant joins consecutive distinct grid points (on an interval
    # narrower than n ulps points repeat) and is computed once
    secants = [(t1, t2, (v2 - v1) / (t2 - t1))
               for t1, t2, v1, v2 in zip(ts, ts[1:], values, values[1:]) if t1 != t2]
    worst = -math.inf
    witness = None
    for (t1, t2, s12), (_, t3, s23) in zip(secants, secants[1:]):
        violation = s12 - s23
        if math.isnan(violation):
            # inf - inf at a singular endpoint: treat as no evidence either way
            continue
        if violation > worst:
            worst = violation
            witness = (t1, t2, t3)
    if worst == -math.inf:
        worst = 0.0
        witness = None
    passed = worst <= slack
    return ConvexityReport(passed, worst, witness)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = (
    "kink",
    "quadratic",
    "exp",
    "neg_log",
    "xlogx",
    "power_p",
    "linear",
    "constant",
)


def _recip_pows(t: float, s: float) -> tuple:
    """1/t^2, 1/t^3 and 1/t^4 for t >= 0, each step but the last rounded
    towards s (0.0 or inf); +inf at 0."""
    r = math.nextafter(1.0 / t, s) if t else math.inf
    x2 = r * r
    x3 = math.nextafter(x2, s) * r
    return x2, x3, math.nextafter(x3, s) * r


def _neg_log_range(u: float, v: float) -> tuple:
    # f'' = 1/t^2, f''' = -2/t^3 and f'''' = 6/t^4 of -ln t
    lo2, lo3, lo4 = _recip_pows(v, 0.0)
    hi2, hi3, hi4 = _recip_pows(u, math.inf)
    return lo2, hi2, -2.0 * hi3, -2.0 * lo3, 6.0 * math.nextafter(lo4, 0.0), 6.0 * math.nextafter(hi4, math.inf)


def _xlogx_range(u: float, v: float) -> tuple:
    # f'' = 1/t, f''' = -1/t^2 and f'''' = 2/t^3 of t ln t
    lo2, lo3, _ = _recip_pows(v, 0.0)
    hi2, hi3, _ = _recip_pows(u, math.inf)
    return 1.0 / v, math.inf if u == 0 else 1.0 / u, -hi2, -lo2, 2.0 * lo3, 2.0 * hi3


def catalog(name: str, params: Sequence[float] = (), interval: Optional[Interval] = None) -> ConvexFunction:
    """Reference convex functions with exact slopes and f'', f''' and f'''' ranges.

    Names and parameters:

    - ``kink`` (k, c): k*|t - c| with k > 0; one-sided derivatives -k / +k.
    - ``quadratic``: t^2.
    - ``exp``: e^t.
    - ``neg_log``: -ln t, needs interval with a >= 0; f'+(0) = -inf.
    - ``xlogx``: t*ln t (0 at t=0), needs a >= 0; f'+(0) = -inf.
    - ``power_p`` (p): t^p with p >= 1, needs a >= 0.
    - ``linear`` (m, c): m*t + c.
    - ``constant`` (c): c.
    """
    iv = interval if interval is not None else Interval(0.0, 1.0)
    params = tuple(params)

    if name == "kink":
        if len(params) != 2:
            raise ValueError("kink expects params (k, c)")
        k, c = params
        if k <= 0:
            raise ValueError(f"kink slope k must be positive, got {k}")
        if not iv.contains(c):
            raise ValueError(f"kink point {c} outside [{iv.a}, {iv.b}]")
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: k * abs(t - c),
            dplus=lambda t: k if t >= c else -k,
            dminus=lambda t: k if t > c else -k,
            label=f"kink(k={k}, c={c})",
            _d2range=lambda u, v: None if u < c < v else (0.0,) * 6,
        )

    if name == "quadratic":
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: t * t,
            dplus=lambda t: 2.0 * t,
            dminus=lambda t: 2.0 * t,
            label="quadratic",
            _d2range=lambda u, v: (2.0, 2.0, 0.0, 0.0, 0.0, 0.0),
        )

    if name == "exp":
        return ConvexFunction(
            domain=iv,
            evaluate=math.exp,
            dplus=math.exp,
            dminus=math.exp,
            label="exp",
            _d2range=lambda u, v: (math.exp(u), math.exp(v)) * 3,
        )

    if name == "neg_log":
        if iv.a < 0:
            raise ValueError("neg_log requires an interval with a >= 0")
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: math.inf if t == 0 else -math.log(t),
            dplus=lambda t: -math.inf if t == 0 else -1.0 / t,
            dminus=lambda t: -1.0 / t,
            label="neg_log",
            _d2range=_neg_log_range,
        )

    if name == "xlogx":
        if iv.a < 0:
            raise ValueError("xlogx requires an interval with a >= 0")
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: 0.0 if t == 0 else t * math.log(t),
            dplus=lambda t: -math.inf if t == 0 else math.log(t) + 1.0,
            dminus=lambda t: math.log(t) + 1.0,
            label="xlogx",
            _d2range=_xlogx_range,
        )

    if name == "power_p":
        if len(params) != 1:
            raise ValueError("power_p expects params (p,)")
        (p,) = params
        if p < 1:
            raise ValueError(f"power_p requires p >= 1, got {p}")
        if iv.a < 0:
            raise ValueError("power_p requires an interval with a >= 0")

        def _deriv(t: float) -> float:
            if t == 0:
                return 1.0 if p == 1 else 0.0
            return p * t ** (p - 1.0)

        coef = p * (p - 1.0)  # p - 1, p - 2 and p - 3 are exact for 1 <= p <= 2^53
        exact4 = not math.fsum((p, -4.0, 4.0 - p))  # p - 4 rounds for some p < 2

        # |f^(k)(t)| = c_k t^(p-k) with c_k = p(p-1)|p-2|...|p-k+1| for k = 2,
        # 3, 4; c[k, s] is c_k with each step rounded towards s (0.0 or inf)
        c = {}
        for s in (0.0, math.inf):
            c[2, s] = math.nextafter(coef, s)
            c[3, s] = math.nextafter(c[2, s] * abs(p - 2.0), s)
            c[4, s] = math.nextafter(c[3, s] * abs(p - 3.0), s)

        def _dk(k: int, t: float, s: float) -> float:
            # |f^(k)(t)| rounded towards s, which is also the bound where the
            # power overflows or t = 0 < k - p
            try:
                return c[k, s] * math.nextafter(t ** (p - k), s)
            except (OverflowError, ZeroDivisionError):
                return s

        def _range(u: float, v: float) -> tuple:
            # f'' decreases for p < 2 and increases for p > 2; f''' is 0 for
            # p = 1, 2, negative and increasing for p < 2, and positive,
            # decreasing for p < 3 and increasing for p > 3; f'''' is 0 for
            # p = 1, 2, 3, negative and increasing for 2 < p < 3, and
            # positive, decreasing for p < 4 and increasing for p > 4
            d2 = (_dk(2, v, 0.0), _dk(2, u, math.inf)) if p < 2.0 else (_dk(2, u, 0.0), _dk(2, v, math.inf))
            if p in (1.0, 2.0):
                return d2 + (0.0,) * 4
            if p < 2.0:
                d3 = (-_dk(3, u, math.inf), -_dk(3, v, 0.0))
            else:
                d3 = (_dk(3, v, 0.0), _dk(3, u, math.inf)) if p < 3.0 else (_dk(3, u, 0.0), _dk(3, v, math.inf))
            if p == 3.0:
                d4 = (0.0, 0.0)
            elif not exact4:
                d4 = (-math.inf, math.inf)
            elif 2.0 < p < 3.0:
                d4 = (-_dk(4, u, math.inf), -_dk(4, v, 0.0))
            else:
                d4 = (_dk(4, v, 0.0), _dk(4, u, math.inf)) if p < 4.0 else (_dk(4, u, 0.0), _dk(4, v, math.inf))
            return d2 + d3 + d4

        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: t ** p,
            dplus=_deriv,
            dminus=_deriv,
            label=f"power_p(p={p})",
            _d2range=_range,
        )

    if name == "linear":
        if len(params) != 2:
            raise ValueError("linear expects params (m, c)")
        m, c = params
        from fractions import Fraction  # deferred: only this family needs it
        mq, cq = Fraction(m), Fraction(c)
        return ConvexFunction(
            domain=iv,
            # one rounding: m*t + c in floats cancels near its root, far beyond an ulp
            evaluate=lambda t: float(mq * Fraction(t) + cq),
            dplus=lambda t: m,
            dminus=lambda t: m,
            label=f"linear(m={m}, c={c})",
            _d2range=lambda u, v: (0.0,) * 6,
        )

    if name == "constant":
        if len(params) != 1:
            raise ValueError("constant expects params (c,)")
        (c,) = params
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: c,
            dplus=lambda t: 0.0,
            dminus=lambda t: 0.0,
            label=f"constant({c})",
            _d2range=lambda u, v: (0.0,) * 6,
        )

    raise ValueError(f"unknown catalog function {name!r}; known: {', '.join(CATALOG_NAMES)}")

