"""Convex functions on a closed interval with one-sided derivative oracles.

Everything downstream (gap bounds, quadrature enclosures, expectation and
divergence bounds) consumes a :class:`ConvexFunction`: an evaluator together
with oracles for the right derivative f'+ (defined on [a,b)) and the left
derivative f'- (defined on (a,b]).  Endpoint derivatives may be +-inf; the
bound machinery propagates infinities into trivially-true enclosures.

The module also ships a catalog of reference functions with exact one-sided
derivatives and f'', f''', f'''' and f^(6) ranges, and a grid based convexity
checker; expression text gets its exact oracles from
:func:`trapbound.expr.to_convex_function`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn, Optional, Sequence

#: Default relative tolerance for convexity / monotonicity checks.  Secant
#: slopes of nearly-affine functions are noisy in floating point, so checks
#: scale this by the sampled magnitude of the function.
DEFAULT_TOL = 1e-9
#: Grid size of :func:`check_convexity`.
_CONVEXITY_GRIDPOINTS = 101
#: What an oracle may raise at a point of its domain, reported as EvaluationError.
_ORACLE_FAULTS = (ValueError, ZeroDivisionError, OverflowError)


class DomainError(ValueError):
    """A point lies outside the interval a function is defined on."""


class EvaluationError(RuntimeError):
    """A function could not be evaluated at a sample point."""


class NonConvexityError(RuntimeError):
    """A computation detected a violation of the convexity hypothesis."""


def _midpoint(u: float, v: float) -> float:
    """0.5 (u + v) for normal u, v, as halving is exact, but finite where u + v overflows."""
    return 0.5 * u + 0.5 * v


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b] with finite a < b and a finite width b - a, as
    no bound over a wider one is finite; :meth:`split` checks a split point."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if math.isinf(self.b - self.a):
            raise DomainError(f"interval width b - a overflows to inf, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return _midpoint(self.a, self.b)

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b

    def split(self, x: float) -> float:
        """``x``, raising :class:`DomainError` unless it lies in [a, b]."""
        if not self.a <= x <= self.b:
            raise DomainError(f"split point must lie in [{self.a}, {self.b}], got {x}")
        return x


@dataclass(frozen=True)
class ConvexFunction:
    """A convex function on ``domain`` with one-sided derivative oracles.

    ``dplus`` is f'+ (right derivative, defined on [a, b)) and ``dminus`` is
    f'- (left derivative, defined on (a, b]), by default ``dplus`` itself;
    either may be +-inf at an end (e.g. -log t at t=0).  ``f(x)``, ``d_plus``
    and ``d_minus`` check x; :func:`check_convexity`, the fixed partitions
    and ``pointwise.gap_enclosure`` read the raw oracles, as their points lie
    in the domain by construction: the convexity grid, the nodes and xi of a
    partition matched to its ends, a checked split point.  Where ``dplus is
    dminus``, each pass reads a slope once a point.

    ``_d2range``, private and optional, maps a cell (u, v) to
    ``(lo, hi, lo3, hi3, lo4, hi4, lo6, hi6)`` with 0 <= lo <= f'' <= hi
    (hi may be +inf) and f''', f'''' and f^(6) in the other three pairs on
    it, or to None where no f'' range is known; the ends of order k are
    -inf and +inf where f is not C^k on the cell.  A finite f^(6) range
    certifies that f is C^6 on the closed cell, so ``_d2range(x, x)[2:4]``
    at one of its ends encloses f''' there.  The catalog writes the four
    ranges in closed form and :func:`trapbound.expr.to_convex_function` all
    but f^(6) in interval arithmetic, with one rule per operation for every
    order up to 4, in one call.  Each of the eight ends may be one ulp off,
    as one call to a faithful libm (within 1 ulp) is; a multi-step oracle
    rounds its inner steps outward.
    Values and one-sided slopes are assumed faithful in the same sense:
    the adaptive integrator's rounding bounds (:mod:`trapbound.quadrature`)
    rest on it.

    Instances are immutable and all methods are pure.
    """

    domain: Interval
    evaluate: Callable[[float], float]
    dplus: Callable[[float], float]
    dminus: Optional[Callable[[float], float]] = None
    label: str = ""
    _d2range: Optional[Callable[[float, float], Optional[tuple]]] = None

    def __post_init__(self) -> None:
        if self.dminus is None:
            object.__setattr__(self, "dminus", self.dplus)

    def __call__(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainError(f"{x} outside domain [{self.domain.a}, {self.domain.b}] of {self.label!r}")
        try:
            return self.evaluate(x)
        except _ORACLE_FAULTS as exc:
            self._failed(x, exc)

    def _failed(self, x: float, exc: Exception) -> NoReturn:
        """Raise what ``f(x)`` raises where ``evaluate(x)`` raised ``exc``: a DomainError as is."""
        if isinstance(exc, DomainError):
            raise exc
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
    scaled by the sampled magnitude.  One pass calls ``f.evaluate`` once per
    point (101 calls), in order, and forms the secants and the worst violation
    as it goes.  The check samples; it proves nothing between grid points.
    Failures raise as ``f(t)`` does, never as a convexity verdict.
    """
    a, b = f.domain.a, f.domain.b
    n, ev = _CONVEXITY_GRIDPOINTS, f.evaluate
    scale, worst, witness, last = 1.0, -math.inf, None, None
    # each secant joins consecutive distinct grid points (on an interval
    # narrower than n ulps points repeat); last is the one before it
    try:
        for i in range(n):
            # past b - a = 1.8e306, (b - a) i overflows: over 2^7 and back, no rounding moves
            s = (b - a) * i
            t2 = a + (s / (n - 1) if s < math.inf else (b - a) / 128 * i / (n - 1) * 128) if i < n - 1 else b
            v2 = ev(t2)
            scale = abs(v2) if scale < abs(v2) < math.inf else scale
            if i and t1 != t2:
                s23 = (v2 - v1) / (t2 - t1)
                if last is not None:
                    violation = last[2] - s23
                    # a NaN (inf - inf at a singular endpoint) fails this: no evidence either way
                    if violation > worst:
                        worst = violation
                        witness = (last[0], last[1], t2)
                last = (t1, t2, s23)
            t1, v1 = t2, v2
    except _ORACLE_FAULTS as exc:
        f._failed(t2, exc)
    if worst == -math.inf:
        worst = 0.0  # no violation was a number above -inf
    return ConvexityReport(worst <= DEFAULT_TOL * scale, worst, witness)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

#: Each catalog entry's parameter names, in the order ``catalog`` takes them.
_CATALOG_PARAMS = {
    "kink": ("k", "c"),
    "quadratic": (),
    "exp": (),
    "neg_log": (),
    "xlogx": (),
    "power_p": ("p",),
    "linear": ("m", "c"),
    "constant": ("c",),
}
CATALOG_NAMES = tuple(_CATALOG_PARAMS)


def _recip_pows(t: float, s: float) -> tuple:
    """1/t^2, 1/t^3, ..., 1/t^6 for t >= 0, each step but the last rounded
    towards s (0.0 or inf); +inf at 0."""
    r = math.nextafter(1.0 / t, s) if t else math.inf
    x2 = r * r
    x3 = math.nextafter(x2, s) * r
    x4 = math.nextafter(x3, s) * r
    x5 = math.nextafter(x4, s) * r
    return x2, x3, x4, x5, math.nextafter(x5, s) * r


def _neg_log_range(u: float, v: float) -> tuple:
    # f'' = 1/t^2, f''' = -2/t^3, f'''' = 6/t^4 and f^(6) = 120/t^6 of -ln t
    lo2, lo3, lo4, _, lo6 = _recip_pows(v, 0.0)
    hi2, hi3, hi4, _, hi6 = _recip_pows(u, math.inf)
    return (lo2, hi2, -2.0 * hi3, -2.0 * lo3, 6.0 * math.nextafter(lo4, 0.0), 6.0 * math.nextafter(hi4, math.inf),
            120.0 * math.nextafter(lo6, 0.0), 120.0 * math.nextafter(hi6, math.inf))


def _xlogx_range(u: float, v: float) -> tuple:
    # f'' = 1/t, f''' = -1/t^2, f'''' = 2/t^3 and f^(6) = 24/t^5 of t ln t
    lo2, lo3, _, lo5, _ = _recip_pows(v, 0.0)
    hi2, hi3, _, hi5, _ = _recip_pows(u, math.inf)
    return (1.0 / v if v else math.inf, 1.0 / u if u else math.inf, -hi2, -lo2, 2.0 * lo3, 2.0 * hi3,
            24.0 * math.nextafter(lo5, 0.0), 24.0 * math.nextafter(hi5, math.inf))


def _falling(p: float, j: int) -> tuple:
    """p (p - 1) ... (p - j + 1) as an interval rounded outward, a point where it is a float: the
    coefficient of the j-th derivative of t^p in the catalog and in :mod:`trapbound._ranges`."""
    n, d = p.as_integer_ratio()
    num, den = math.prod(n - i * d for i in range(j)), d ** j
    c = num / den
    cn, cd = c.as_integer_ratio()
    return (c, c) if cn * den == num * cd else (math.nextafter(c, -math.inf), math.nextafter(c, math.inf))


def _pow(t: float, e: float) -> float:
    """t^e for t >= 0, inf where it overflows and for 0^e, e < 0."""
    try:
        return t ** e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def catalog(name: str, params: Sequence[float] = (), interval: Optional[Interval] = None) -> ConvexFunction:
    """Reference convex functions with exact slopes and f'', f''', f'''' and f^(6) ranges.

    Names and parameters; each entry takes exactly its parameters, each
    finite (every entry but ``kink`` has one slope oracle):

    - ``kink`` (k, c): k*|t - c| with k > 0; one-sided derivatives -k / +k.
    - ``quadratic``: t^2.
    - ``exp``: e^t.
    - ``neg_log``: -ln t, needs interval with a >= 0; f'+(0) = -inf.
    - ``xlogx``: t*ln t (0 at t=0), needs a >= 0; f'+(0) = -inf.
    - ``power_p`` (p): t^p with p >= 1, needs a >= 0.
    - ``linear`` (m, c): m*t + c.
    - ``constant`` (c): c.
    """
    if name not in _CATALOG_PARAMS:
        raise ValueError(f"unknown catalog function {name!r}; known: {', '.join(CATALOG_NAMES)}")
    names = _CATALOG_PARAMS[name]
    params = tuple(params)
    if len(params) != len(names):
        raise ValueError(f"{name} expects params ({', '.join(names)}{',' if len(names) == 1 else ''})")
    if not all(map(math.isfinite, params)):
        raise ValueError(f"{name} params must be finite, got {params}")
    iv = interval if interval is not None else Interval(0.0, 1.0)
    if name in ("neg_log", "xlogx", "power_p") and iv.a < 0:
        raise ValueError(f"{name} requires an interval with a >= 0")

    if name == "kink":
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
            _d2range=lambda u, v: None if u < c < v else (0.0,) * 8,
        )

    if name == "quadratic":
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: t * t,
            dplus=lambda t: 2.0 * t,
            label="quadratic",
            _d2range=lambda u, v: (2.0, 2.0) + (0.0,) * 6,
        )

    if name == "exp":
        return ConvexFunction(
            domain=iv,
            evaluate=math.exp,
            dplus=math.exp,
            label="exp",
            _d2range=lambda u, v: (math.exp(u), math.exp(v)) * 4,
        )

    if name == "neg_log":
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: math.inf if t == 0 else -math.log(t),
            dplus=lambda t: -math.inf if t == 0 else -1.0 / t,
            label="neg_log",
            _d2range=_neg_log_range,
        )

    if name == "xlogx":
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: 0.0 if t == 0 else t * math.log(t),
            dplus=lambda t: -math.inf if t == 0 else math.log(t) + 1.0,
            label="xlogx",
            _d2range=_xlogx_range,
        )

    if name == "power_p":
        (p,) = params
        if p < 1:
            raise ValueError(f"power_p requires p >= 1, got {p}")
        # f^(k) = (p)_k t^(p-k), k = 2, 3, 4, 6, is (p)_k times the monotone power at the cell
        # ends, each magnitude rounded towards 0 at its lesser end and inf at its greater;
        # it is 0 where (p)_k is (p = 1, ..., k - 1) and (-inf, inf) where p - k rounds
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
                a = _pow(u, e)  # one power where u == v, as at a read of f''' at a point
                a, b = (a, a) if v == u else (a, _pow(v, e)) if e >= 0.0 else (_pow(v, e), a)
                lo = math.nextafter(c_lo * math.nextafter(a, 0.0), 0.0)
                hi = math.nextafter(c_hi * math.nextafter(b, math.inf), math.inf)
                out += (-hi, -lo) if neg else (lo, hi)
            return out

        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: t ** p,
            dplus=lambda t: p * t ** (p - 1.0),  # 0.0 ** 0.0 is 1.0: the slope of t at 0
            label=f"power_p(p={p})",
            _d2range=None if orders[0][1] == math.inf else _range,  # where p - 2 rounds, no range
        )

    if name == "linear":
        m, c = params
        from fractions import Fraction  # deferred: only this family needs it
        mq, cq = Fraction(m), Fraction(c)
        return ConvexFunction(
            domain=iv,
            # one rounding: m*t + c in floats cancels near its root, far beyond an ulp
            evaluate=lambda t: float(mq * Fraction(t) + cq),
            dplus=lambda t: m,
            label=f"linear(m={m}, c={c})",
            _d2range=lambda u, v: (0.0,) * 8,
        )

    if name == "constant":
        (c,) = params
        return ConvexFunction(
            domain=iv,
            evaluate=lambda t: c,
            dplus=lambda t: 0.0,
            label=f"constant({c})",
            _d2range=lambda u, v: (0.0,) * 8,
        )
