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

:func:`divergence_report` makes one pass over the support for all of them,
compiled per generator on first use: each point's r = q/p and r_m are formed
once and feed every sum.  A built-in generator is written once, as text in u:
its callables are that text, and its pass has the text inline, with kl's log
and hellinger's sqrt taken once at r and once at r_m.  The pass of a generator
built from callables calls them: per point, f twice, the antiderivative once and
the slopes three times, twice when f'+ and f'- are one function.

Every generator brings its antiderivative F, and each inner term of HH is
the point p^2/(q-p) (F(q/p) - F(1)).  HH is returned as an enclosure, but
one of zero width that is not yet rounded outward: the difference
F(q/p) - F(1) cancels when q/p is near 1, so that point can miss the true
term there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .pointwise import Enclosure, _gap_bracket, _ordered

_WEIGHT_TOL = 1e-9
#: Relative threshold under which q(x) and p(x) are treated as equal and the
#: HH term collapses to its removable limit p * f(1) = 0.
_EQUAL_RATIO_TOL = 1e-14


class UndefinedDivergenceError(ValueError):
    """Zero-mass configuration without a declared limit slope."""


def _weight_sum(w) -> float:
    """``math.fsum`` of the weights: NaN where one is NaN, else inf where it raises (overflow, or inf - inf)."""
    try:
        return math.fsum(w)
    except (OverflowError, ValueError):
        return math.nan if any(x != x for x in w) else math.inf


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability vector: at least one float weight, none NaN or negative,
    whose :func:`_weight_sum` is within ``_WEIGHT_TOL`` of 1 (:meth:`normalized` rescales)."""

    weights: tuple

    def __post_init__(self) -> None:
        w = tuple(map(float, self.weights))
        object.__setattr__(self, "weights", w)
        if not w:
            raise ValueError("distribution needs at least one weight")
        s = _weight_sum(w)
        if s != s:
            raise ValueError("weights must be numbers, got nan")
        lowest = min(w)
        if lowest < 0:
            raise ValueError(f"weights must be nonnegative, got {lowest}")
        if not abs(s - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"weights sum to {s!r}, not 1")

    @classmethod
    def normalized(cls, weights) -> "DiscreteDistribution":
        """Of ``weights`` over their :func:`_weight_sum` where none is negative and the
        sum is positive and finite, else as they are, for the constructor to refuse."""
        w = tuple(map(float, weights))
        s = _weight_sum(w)
        return cls(tuple(x / s for x in w) if 0 < s < math.inf and min(w) >= 0 else w)

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
    #: {name: text in u}: a built-in generator's text; a call where absent
    _text = {}

    def __post_init__(self) -> None:
        if not callable(self.antiderivative):
            raise TypeError(f"generator {self.label!r} needs an antiderivative, got {self.antiderivative!r}")
        v1 = self.fn(1.0)
        if abs(v1) > 1e-12:
            raise ValueError(f"generator {self.label!r} is not normalized: f(1) = {v1}")

    @cached_property
    def _pass(self):
        """``_PASS`` with each call at r or r_m written as this generator's text
        there, compiled on first use; each name of ``_TEXT_NAMES`` that a
        text calls at u is taken once at r and once at r_m, by name."""
        texts = self._text
        hoisted = [h for h in _TEXT_NAMES if any(f"{h}(u)" in t for t in texts.values())]

        def inline(call):
            text = texts.get(call[1], call[1] + "(u)")
            for h in hoisted:
                text = text.replace(f"{h}(u)", f"{h}_{call[2]}")
            return f"({_U.sub(call[2], text)})"

        source = _CALL.sub(inline, _PASS.format(hoist="".join(f"\n        {h}_r, {h}_rm = {h}(r), {h}(rm)" for h in hoisted)))
        ns = dict(_TEXT_NAMES, fn=self.fn, dplus=self.dplus, dminus=self.dminus, F=self.antiderivative, g=self,
                  shared=self.dplus is self.dminus, tol=_EQUAL_RATIO_TOL, _slope_at_infinity=_slope_at_infinity)
        exec(compile(source, f"<divergence pass of {self.label!r}>", "exec"), ns)
        return ns["pass_"]


#: What a generator's text may name besides u and the builtins; u; a call of the template at r or r_m.
_TEXT_NAMES = {"log": math.log, "sqrt": math.sqrt, "inf": math.inf}
_U, _CALL = re.compile(r"\bu\b"), re.compile(r"\b(fn|dplus|dminus|F)\((rm|r)\)")

#: The per-point pass of :func:`divergence_report`, in calls of the generator.
_PASS = """\
def pass_(pairs):
    F1, d1p, d1m = F(1.0), dplus(1.0), dminus(1.0)
    cs = lw = 0.0
    # HH: the sum of the inner terms, and the limits of the points with p = 0 < q
    hh = tail = 0.0
    # sums of w f'+(r_m), w f'-(r_m), w f'+(u) and w f'-(v), w = |q - p|
    sp = sm = su = sv = 0.0
    for pi, qi in pairs:
        if pi == 0.0:
            if qi != 0.0:
                s = _slope_at_infinity(g, qi)
                half = 0.5 * qi
                cs += qi * s
                if half != 0.0:  # LW drops a q that halves to 0
                    lw += half * s
                tail += half * s
                if s == inf:
                    sv = inf  # v = q/p = inf, where f'-(v) is the slope
            continue
        r = qi / pi
        rm = 0.5 * (pi + qi) / pi{hoist}
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
    return cs, lw, hh + tail, sp, sp if shared else sm, su, sv  # one slope: sm's terms are sp's
"""


def _slope_at_infinity(g: GeneratorFunction, qi: float) -> float:
    """The slope that a term with p = 0 < q = ``qi`` needs, or the error for its absence."""
    if g.slope_at_infinity is None:
        raise UndefinedDivergenceError(f"generator {g.label!r} declares no slope at infinity; "
                                       f"term with p=0, q={qi} is undefined")
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
    The gap is one call to the kernel on the |q - p|-weighted slope sums, the
    sum of the per-term brackets of the module docstring, checked for inversion
    by ``pointwise._ordered``; a point whose midpoint r_m rounds to 1 adds nothing to it.
    """
    if len(p) != len(q):
        raise ValueError(f"supports differ: {len(p)} vs {len(q)} points")
    cs, lw, hh, sp, sm, su, sv = g._pass(zip(p.weights, q.weights))
    lo, hi = _ordered(*_gap_bracket(0.25, 0.25, sp, sm, su, sv), g, 0.0, math.inf)
    return DivergenceReport(cs, lw, Enclosure(hh, hh), Enclosure(lo, hi))


# ---------------------------------------------------------------------------
# Generator catalog
# ---------------------------------------------------------------------------


def _from_text(label, slope_at_infinity, **text) -> GeneratorFunction:
    """A built-in generator, written once: fn, dplus, F and dminus (dplus where
    absent) as expressions in u, which are its callables and its pass's text."""
    ns = dict(_TEXT_NAMES)
    fn, dp, anti = (eval(f"lambda u: {text[k]}", ns) for k in ("fn", "dplus", "F"))
    dm = eval(f"lambda u: {text['dminus']}", ns) if "dminus" in text else dp
    g = GeneratorFunction(fn, dp, dm, anti, label, slope_at_infinity)
    object.__setattr__(g, "_text", {"dminus": text["dplus"], **text})
    return g


#: The built-in generators by label, then the aliases chi2 and tv.
_GENERATORS = {g.label: g for g in (
    _from_text("chi_squared", math.inf, fn="(u - 1.0) ** 2", dplus="2.0 * (u - 1.0)", F="(u - 1.0) ** 3 / 3.0"),
    # the pass takes log(r) first, and log(0) raises at q = 0 < p: benchmark defect (d)
    _from_text("kl", math.inf, fn="u * log(u) if u > 0 else 0.0", dplus="log(u) + 1.0",
               F="0.5 * u * u * log(u) - 0.25 * u * u"),
    _from_text("total_variation", 1.0, fn="abs(u - 1.0)", dplus="1.0 if u >= 1.0 else -1.0",
               dminus="1.0 if u > 1.0 else -1.0", F="0.5 * (u - 1.0) * abs(u - 1.0)"),
    # the slope tends to -inf at 0, where q = 0 < p puts a term
    _from_text("hellinger", 1.0, fn="(sqrt(u) - 1.0) ** 2", dplus="1.0 - 1.0 / sqrt(u) if u > 0 else -inf",
               F="0.5 * u * u - (4.0 / 3.0) * u ** 1.5 + u"),
)}
GENERATOR_NAMES = tuple(_GENERATORS)
_GENERATORS.update(chi2=_GENERATORS["chi_squared"], tv=_GENERATORS["total_variation"])


def generator_catalog(name: str) -> GeneratorFunction:
    """The built-in generator called ``name``: one of ``GENERATOR_NAMES``, or chi2 or tv."""
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}; known: {', '.join(GENERATOR_NAMES)}") from None
