"""Csiszar, Lin-Wong, and Hermite-Hadamard divergences on finite distributions.

For a convex generator f on (0, inf) with f(1) = 0 and distributions p, q on
the same finite support:

    D_f(p, q)    = sum_x p(x) f(q(x)/p(x))
    LW_f(p, q)   = D_f(p, (p+q)/2)
    HH_f(p, q)   = sum_x p(x)^2/(q(x)-p(x)) * integral_1^{q(x)/p(x)} f(t) dt

with the sandwich LW <= HH <= D_f/2.  A term of D_f/2 - HH is p times the
Hermite-Hadamard defect of f on the segment [u, v] between 1 and q/p, which
the paper's bracket (``pointwise._gap_bracket``) bounds; with w = |q - p|:

    (1/8) sum_x w [f'+(r_m) - f'-(r_m)]   with r_m = (p+q)/(2p)
      <=  D_f/2 - HH  <=
    (1/8) sum_x w [f'-(v) - f'+(u)].

HH is returned as an enclosure: each inner integral is exact when the
generator carries an antiderivative, else certified by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .funcs import ConvexFunction, Interval
from .pointwise import Enclosure, _gap_bracket
from .quadrature import adaptive_integrate

_WEIGHT_TOL = 1e-9
#: Relative threshold under which q(x) and p(x) are treated as equal and the
#: HH term collapses to its removable limit p * f(1) = 0.
_EQUAL_RATIO_TOL = 1e-14


class UndefinedDivergenceError(ValueError):
    """Zero-mass configuration without a declared limit slope."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability vector: nonnegative weights summing to 1."""

    weights: tuple

    def __post_init__(self) -> None:
        w = tuple(map(float, self.weights))
        object.__setattr__(self, "weights", w)
        if not w:
            raise ValueError("distribution needs at least one weight")
        if min(w) < 0:
            raise ValueError(f"weights must be nonnegative, got {min(w)}")
        s = math.fsum(w)
        # written so that a NaN sum fails too
        if not abs(s - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {s!r}")

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GeneratorFunction:
    """Convex generator f on (0, inf), normalized so f(1) = 0.

    ``antiderivative`` enables exact inner integrals for the HH divergence;
    ``slope_at_infinity`` is lim f(u)/u as u -> inf (may be ``math.inf``) and
    defines the convention for support points with p = 0 < q.
    """

    fn: Callable[[float], float]
    dplus: Callable[[float], float]
    dminus: Callable[[float], float]
    label: str = ""
    antiderivative: Optional[Callable[[float], float]] = None
    slope_at_infinity: Optional[float] = None

    def __post_init__(self) -> None:
        v1 = self.fn(1.0)
        if abs(v1) > 1e-12:
            raise ValueError(f"generator {self.label!r} is not normalized: f(1) = {v1}")


def _pairs(p: DiscreteDistribution, q: DiscreteDistribution):
    if len(p) != len(q):
        raise ValueError(f"supports differ: {len(p)} vs {len(q)} points")
    return zip(p.weights, q.weights)


def _slope_at_infinity(g: GeneratorFunction, qi: float) -> float:
    """The slope that a term with p = 0 < q = ``qi`` needs, or the error for its absence."""
    if g.slope_at_infinity is None:
        raise UndefinedDivergenceError(
            f"generator {g.label!r} declares no slope at infinity; "
            f"term with p=0, q={qi} is undefined"
        )
    return g.slope_at_infinity


def _csiszar_sum(g: GeneratorFunction, pairs) -> float:
    """sum p f(q/p) over the (p, q) pairs, with the zero conventions of :func:`csiszar`."""
    fn = g.fn
    total = 0.0
    for pi, qi in pairs:
        if pi == 0.0:
            if qi != 0.0:
                total += qi * _slope_at_infinity(g, qi)
        else:
            total += pi * fn(qi / pi)
    return total


def csiszar(g: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Csiszar divergence sum_x p f(q/p), with the standard zero conventions:
    (p=0, q=0) contributes 0; (p=0, q>0) contributes q * slope_at_infinity."""
    return _csiszar_sum(g, _pairs(p, q))


def lin_wong(g: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Generalized Lin-Wong divergence D_f(p, (p+q)/2)."""
    return _csiszar_sum(g, zip(p.weights, [0.5 * (pi + qi) for pi, qi in _pairs(p, q)]))


def hh_divergence(
    g: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    eps: float = 1e-9,
) -> Enclosure:
    """Hermite-Hadamard divergence sum_x p^2/(q-p) integral_1^{q/p} f.

    Each term equals p times the mean of f over the segment between 1 and
    q/p.  A term can be negative (for ``kl``, u log u has a negative mean
    over [q/p, 1] when q < p); only the sum is nonnegative.  Terms with q = p
    (relative to ``_EQUAL_RATIO_TOL``) contribute exactly 0, and terms with
    p = 0 < q their limit q * slope_at_infinity / 2, as in :func:`lin_wong`.
    The result is an enclosure: degenerate when the generator carries an
    antiderivative, otherwise each inner integral is certified by adaptive
    quadrature with a budget of eps divided by the support size.
    """
    F = g.antiderivative
    F1 = F(1.0) if F is not None else None
    n = len(p.weights)
    tail = lo_sum = hi_sum = 0.0
    for pi, qi in _pairs(p, q):
        if pi == 0.0:
            if qi != 0.0:
                tail += 0.5 * qi * _slope_at_infinity(g, qi)
        elif abs(qi - pi) > _EQUAL_RATIO_TOL * pi:
            if F is not None:
                lo_sum += pi * pi / (qi - pi) * (F(qi / pi) - F1)
                continue
            # the term is p^2/|q-p| times the integral of f from min(r, 1) to max(r, 1)
            r = qi / pi
            piece = ConvexFunction(Interval(min(r, 1.0), max(r, 1.0)), g.fn, g.dplus, g.dminus, g.label)
            inner = adaptive_integrate(piece, eps=eps / n, max_cells=100_000).integral
            weight = pi * pi / abs(qi - pi)
            lo_sum += weight * inner.lo
            hi_sum += weight * inner.hi
    return Enclosure(lo_sum + tail, (lo_sum if F is not None else hi_sum) + tail)


class SandwichReport(NamedTuple):
    lin_wong: float
    hh: Enclosure
    half_csiszar: float
    holds: bool


def sandwich_report(
    g: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    eps: float = 1e-9,
) -> SandwichReport:
    """Evaluate LW <= HH <= D_f/2 (with 1e-9 slack against the HH enclosure)."""
    lw = lin_wong(g, p, q)
    hh = hh_divergence(g, p, q, eps)
    half = 0.5 * csiszar(g, p, q)
    holds = lw <= hh.hi + 1e-9 and hh.lo <= half + 1e-9
    return SandwichReport(lw, hh, half, holds)


def gap_enclosure(
    g: GeneratorFunction,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
) -> Enclosure:
    """Certified bracket for D_f/2 - HH_f: the per-term brackets of the
    module docstring, summed as one call to the kernel.  A point with
    p = 0 < q adds its limit 0 if the slope at infinity is finite, else it
    makes ``hi`` +inf (inf - inf, with limit q/4 for kl, +inf for chi2).
    """
    dplus, dminus = g.dplus, g.dminus
    d1p, d1m = dplus(1.0), dminus(1.0)
    # sums of w f'+(r_m), w f'-(r_m), w f'+(u) and w f'-(v), w = |q - p|
    sp = sm = su = sv = 0.0
    for pi, qi in _pairs(p, q):
        if pi == 0.0:
            if qi != 0.0 and _slope_at_infinity(g, qi) == math.inf:
                sv = math.inf  # v = q/p = inf, where f'-(v) is the slope
            continue
        rm = 0.5 * (pi + qi) / pi
        if rm == 1.0:
            continue  # q = p, or too close for a float to split [1, q/p]
        w = abs(qi - pi)
        sp += w * dplus(rm)
        sm += w * dminus(rm)
        r = qi / pi
        if r > 1.0:
            su += w * d1p
            sv += w * dminus(r)
        else:
            su += w * dplus(r)
            sv += w * d1m
    lo, hi = _gap_bracket(0.25, 0.25, sp, sm, su, sv)
    return Enclosure(lo, max(hi, lo))


# ---------------------------------------------------------------------------
# Generator catalog
# ---------------------------------------------------------------------------


def generator_catalog(name: str) -> GeneratorFunction:
    """Built-in generators: chi_squared, kl, total_variation, hellinger."""
    if name in ("chi_squared", "chi2"):
        return GeneratorFunction(
            fn=lambda u: (u - 1.0) ** 2,
            dplus=lambda u: 2.0 * (u - 1.0),
            dminus=lambda u: 2.0 * (u - 1.0),
            label="chi_squared",
            antiderivative=lambda u: (u - 1.0) ** 3 / 3.0,
            slope_at_infinity=math.inf,
        )
    if name == "kl":
        return GeneratorFunction(
            fn=lambda u: u * math.log(u) if u > 0 else 0.0,
            dplus=lambda u: math.log(u) + 1.0,
            dminus=lambda u: math.log(u) + 1.0,
            label="kl",
            antiderivative=lambda u: 0.5 * u * u * math.log(u) - 0.25 * u * u,
            slope_at_infinity=math.inf,
        )
    if name in ("total_variation", "tv"):
        return GeneratorFunction(
            fn=lambda u: abs(u - 1.0),
            dplus=lambda u: 1.0 if u >= 1.0 else -1.0,
            dminus=lambda u: 1.0 if u > 1.0 else -1.0,
            label="total_variation",
            antiderivative=lambda u: 0.5 * (u - 1.0) * abs(u - 1.0),
            slope_at_infinity=1.0,
        )
    if name == "hellinger":
        return GeneratorFunction(
            fn=lambda u: (math.sqrt(u) - 1.0) ** 2,
            # the slopes tend to -inf at 0, where q = 0 < p puts a term
            dplus=lambda u: 1.0 - 1.0 / math.sqrt(u) if u > 0 else -math.inf,
            dminus=lambda u: 1.0 - 1.0 / math.sqrt(u) if u > 0 else -math.inf,
            label="hellinger",
            antiderivative=lambda u: 0.5 * u * u - (4.0 / 3.0) * u ** 1.5 + u,
            slope_at_infinity=1.0,
        )
    raise ValueError(
        f"unknown generator {name!r}; known: chi_squared, kl, total_variation, hellinger"
    )


GENERATOR_NAMES = ("chi_squared", "kl", "total_variation", "hellinger")
