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

:func:`divergence_report` makes one pass over the support for all of them:
each point's r = q/p and r_m are formed once and feed every sum, so a point
costs two calls of f, one of the antiderivative and three of the slopes, two
when f'+ and f'- are one function (the differentiable catalog generators).

Every generator brings its antiderivative F, and each inner term of HH is
the point p^2/(q-p) (F(q/p) - F(1)).  HH is returned as an enclosure, but
one of zero width that is not yet rounded outward: the difference
F(q/p) - F(1) cancels when q/p is near 1, so that point can miss the true
term there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .pointwise import Enclosure, _gap_bracket

_WEIGHT_TOL = 1e-9
#: Relative threshold under which q(x) and p(x) are treated as equal and the
#: HH term collapses to its removable limit p * f(1) = 0.
_EQUAL_RATIO_TOL = 1e-14


class UndefinedDivergenceError(ValueError):
    """Zero-mass configuration without a declared limit slope."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability vector: at least one float weight, none negative,
    whose ``math.fsum`` (inf where it overflows) is within ``_WEIGHT_TOL`` of 1."""

    weights: tuple

    def __post_init__(self) -> None:
        w = tuple(map(float, self.weights))
        object.__setattr__(self, "weights", w)
        if not w:
            raise ValueError("distribution needs at least one weight")
        lowest = min(w)
        if lowest < 0:
            raise ValueError(f"weights must be nonnegative, got {lowest}")
        try:
            s = math.fsum(w)
        except OverflowError:
            s = math.inf
        # written so that a NaN sum fails too
        if not abs(s - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"weights sum to {s!r}, not 1")

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GeneratorFunction:
    """Convex generator f on (0, inf), normalized so f(1) = 0.

    ``antiderivative`` F, which every generator must have, gives the HH
    divergence's inner integrals as F(q/p) - F(1); ``slope_at_infinity`` is
    lim f(u)/u as u -> inf (may be ``math.inf``) and defines the convention
    for support points with p = 0 < q.
    """

    fn: Callable[[float], float]
    dplus: Callable[[float], float]
    dminus: Callable[[float], float]
    antiderivative: Callable[[float], float]
    label: str = ""
    slope_at_infinity: Optional[float] = None

    def __post_init__(self) -> None:
        if not callable(self.antiderivative):
            raise TypeError(f"generator {self.label!r} needs an antiderivative, got {self.antiderivative!r}")
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


class DivergenceReport(NamedTuple):
    csiszar: float
    lin_wong: float
    hh: Enclosure
    gap: Enclosure

    @property
    def half_csiszar(self) -> float:
        return 0.5 * self.csiszar

    @property
    def holds(self) -> bool:
        """LW <= HH <= D_f/2, with 1e-9 slack against the HH enclosure."""
        return self.lin_wong <= self.hh.hi + 1e-9 and self.hh.lo <= self.half_csiszar + 1e-9


def divergence_report(g: GeneratorFunction, p: DiscreteDistribution, q: DiscreteDistribution) -> DivergenceReport:
    """D_f, LW_f, HH_f as a point enclosure and a certified bracket of D_f/2 - HH_f.

    Zero-mass conventions: a point with p = q = 0 adds nothing; one with
    p = 0 < q adds its limit, q * slope_at_infinity to D_f and (halved) to
    LW_f and HH_f, and to the gap 0 if that slope is finite, else it makes
    ``gap.hi`` +inf (inf - inf, with limit q/4 for kl, +inf for chi2).  A
    point with q = p (relative to ``_EQUAL_RATIO_TOL``) adds 0 to HH_f, any
    other point p^2/(q - p) (F(q/p) - F(1)), not rounded outward.  That term
    can be negative (for ``kl``, u log u has a negative mean over [q/p, 1]
    when q < p); only the sum is nonnegative.
    The gap is one call to the kernel on the |q - p|-weighted slope sums,
    which is the sum of the per-term brackets of the module docstring; a
    point whose midpoint r_m rounds to 1 adds nothing to it.
    """
    fn, dplus, dminus, F = g.fn, g.dplus, g.dminus, g.antiderivative
    shared = dplus is dminus
    F1, d1p, d1m = F(1.0), dplus(1.0), dminus(1.0)
    tol = _EQUAL_RATIO_TOL
    cs = lw = 0.0
    # HH: the sum of the inner terms, and the limits of the points with p = 0 < q
    hh = tail = 0.0
    # sums of w f'+(r_m), w f'-(r_m), w f'+(u) and w f'-(v), w = |q - p|
    sp = sm = su = sv = 0.0
    for pi, qi in _pairs(p, q):
        if pi == 0.0:
            if qi != 0.0:
                s = _slope_at_infinity(g, qi)
                half = 0.5 * qi
                cs += qi * s
                if half != 0.0:  # LW drops a q that halves to 0
                    lw += half * s
                tail += half * s
                if s == math.inf:
                    sv = math.inf  # v = q/p = inf, where f'-(v) is the slope
            continue
        r = qi / pi
        rm = 0.5 * (pi + qi) / pi
        cs += pi * fn(r)
        lw += pi * fn(rm)
        d = qi - pi
        w = abs(d)
        if w > tol * pi:
            hh += pi * pi / d * (F(r) - F1)
        if rm != 1.0:  # else q = p, or too close for a float to split [1, q/p]
            sp += w * dplus(rm)
            if not shared:
                sm += w * dminus(rm)
            if r > 1.0:
                su += w * d1p
                sv += w * dminus(r)
            else:
                su += w * dplus(r)
                sv += w * d1m
    if shared:
        sm = sp  # the same terms in the same order
    hh += tail
    lo, hi = _gap_bracket(0.25, 0.25, sp, sm, su, sv)
    return DivergenceReport(cs, lw, Enclosure(hh, hh), Enclosure(lo, max(hi, lo)))


# ---------------------------------------------------------------------------
# Generator catalog
# ---------------------------------------------------------------------------


def _smooth(fn, slope, antiderivative, label, slope_at_infinity) -> GeneratorFunction:
    """A differentiable generator: one slope function serves as f'+ and f'-."""
    return GeneratorFunction(fn, slope, slope, antiderivative, label, slope_at_infinity)


#: The built-in generators by label, then the aliases chi2 and tv.
_GENERATORS = {g.label: g for g in (
    _smooth(
        fn=lambda u: (u - 1.0) ** 2,
        slope=lambda u: 2.0 * (u - 1.0),
        antiderivative=lambda u: (u - 1.0) ** 3 / 3.0,
        label="chi_squared",
        slope_at_infinity=math.inf,
    ),
    _smooth(
        fn=lambda u: u * math.log(u) if u > 0 else 0.0,
        slope=lambda u: math.log(u) + 1.0,
        antiderivative=lambda u: 0.5 * u * u * math.log(u) - 0.25 * u * u,
        label="kl",
        slope_at_infinity=math.inf,
    ),
    GeneratorFunction(
        fn=lambda u: abs(u - 1.0),
        dplus=lambda u: 1.0 if u >= 1.0 else -1.0,
        dminus=lambda u: 1.0 if u > 1.0 else -1.0,
        antiderivative=lambda u: 0.5 * (u - 1.0) * abs(u - 1.0),
        label="total_variation",
        slope_at_infinity=1.0,
    ),
    _smooth(
        fn=lambda u: (math.sqrt(u) - 1.0) ** 2,
        # the slope tends to -inf at 0, where q = 0 < p puts a term
        slope=lambda u: 1.0 - 1.0 / math.sqrt(u) if u > 0 else -math.inf,
        antiderivative=lambda u: 0.5 * u * u - (4.0 / 3.0) * u ** 1.5 + u,
        label="hellinger",
        slope_at_infinity=1.0,
    ),
)}
GENERATOR_NAMES = tuple(_GENERATORS)
_GENERATORS.update(chi2=_GENERATORS["chi_squared"], tv=_GENERATORS["total_variation"])


def generator_catalog(name: str) -> GeneratorFunction:
    """The built-in generator called ``name``: one of ``GENERATOR_NAMES``, or chi2 or tv."""
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}; known: {', '.join(GENERATOR_NAMES)}") from None
