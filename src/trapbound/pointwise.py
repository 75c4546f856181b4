"""Single-interval bounds for the generalized trapezoid gap of a convex function.

For f convex on [a, b] and a split point x, the *gap* is

    g(x) = (x - a) f(a) + (b - x) f(b) - integral_a^b f(t) dt.

This module computes, at any split point x in [a, b], the two-sided certificate

    (1/2) [ (b-x)^2 f'+(x) - (x-a)^2 f'-(x) ]
      <=  g(x)  <=
    (1/2) [ (b-x)^2 f'-(b) - (x-a)^2 f'+(a) ]

together with its Hermite-Hadamard specialization, one entry point each:
``gap_enclosure`` and ``hh_bounds``.  The paper's differentiable-point lower
bound and optimal split point are readings of this one bracket, and its
sliding-window form is ``quadrature.remainder_enclosure`` on one midpoint cell.

A convex f never inverts the bracket; ``_ordered``, the one test of that,
serves ``gap_enclosure``, ``hh_bounds``, quadrature's fixed and adaptive
cells and divergence's gap.  ``gap_enclosure`` and ``hh_bounds`` still round to nearest; rounding
them outward is ROADMAP item 4.  Any bound touching an infinite endpoint
derivative degenerates to a trivially true enclosure.  The integral of the
CLI's ``gap``/``hh`` is the adaptive enclosure.  ``_cells_bracket`` reads the
certificate at split points, for ``gap_enclosure`` and fixed partitions;
probability's ``_expectation_bracket`` scales its weights and rounds outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .funcs import DEFAULT_TOL, ConvexFunction, NonConvexityError

_INF, _NEG_INF = math.inf, -math.inf  # read by _gap_bracket without an attribute lookup


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

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


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
    hi = _INF if (tl == _INF or tr == _NEG_INF) else 0.5 * (tl - tr)
    return (_NEG_INF if lo != lo else lo), hi


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


def _ordered(lo: float, hi: float, f: ConvexFunction, u: float, v: float) -> tuple:
    """The bracket (lo, hi) of f's remainder on the cell [u, v], ordered: lo > hi
    beyond ``DEFAULT_TOL`` means f is not convex there and raises
    :class:`NonConvexityError`, and one within it is rounding: the hull (hi, lo)."""
    if lo <= hi:
        return lo, hi
    if lo > hi + DEFAULT_TOL * max(1.0, abs(lo), abs(hi)):
        raise NonConvexityError(
            f"cell [{u}, {v}] has inverted remainder bracket [{lo}, {hi}]; {f.label!r} is not convex there"
        )
    return hi, lo


def _cells_bracket(f: ConvexFunction, cells) -> tuple:
    """:func:`_gap_bracket` of each cell (u, v, x), x in [u, v], from the raw
    slope oracles, ordered by :func:`_ordered`, summed from -0.0 (one cell's
    sum is its bracket).  A zero-weighted slope is not read (at x = u or v it
    may not exist); f'+(u) is f'+(x) at x = u, f'-(v) is f'-(x) at x = v, and
    where ``f.dplus is f.dminus`` one read at x is both and f'-(v) is the next
    cell's f'+(u).  The weights are products, inf where a float ``**`` raises."""
    dp, dm, su = f.dplus, f.dminus, None  # su: with one slope oracle, f' at the last cell's v
    one = dp is dm
    lo_sum = hi_sum = -0.0
    for u, v, x in cells:
        wl, wr = (v - x) * (v - x), (x - u) * (x - u)
        dpx = (su if x == u and su is not None else dp(x)) if wl else 0.0
        dmx = (dpx if one and wl else dm(x)) if wr else 0.0
        dpu = dpx if wl and x == u else (dp(u) if su is None else su)
        dmv = dmx if wr and x == v else dm(v)
        su = dmv if one else None
        lo, hi = _gap_bracket(wl, wr, dpx, dmx, dpu, dmv)
        if not lo <= hi:
            lo, hi = _ordered(lo, hi, f, u, v)
        lo_sum += lo
        hi_sum += hi
    return lo_sum, hi_sum


def _reference_integral(f: ConvexFunction):
    """The adaptive integral of f over its domain, to width 1e-10 within 200k
    cells: a ``quadrature.QuadratureResult``, whose ``converged`` says if it got there."""
    from . import quadrature  # deferred: quadrature depends on this module

    return quadrature.adaptive_integrate(f, 1e-10, 200_000)


def gap_enclosure(f: ConvexFunction, x: float) -> Enclosure:
    """The paper's bracket for the gap of f at a split point x in [a, b].

    At x = a or b the lower side is (1/2)(b-a)^2 f'+(a) or -(1/2)(b-a)^2 f'-(b);
    an infinite endpoint slope makes a side infinite (trivially true).  It
    is ``quadrature.remainder_enclosure`` of the one cell [a, b] at xi = x.
    """
    return Enclosure(*_cells_bracket(f, ((f.domain.a, f.domain.b, f.domain.split(x)),)))


def hh_bounds(f: ConvexFunction) -> Enclosure:
    """Enclosure of the Hermite-Hadamard defect (f(a)+f(b))/2 - (1/(b-a)) int f.

    lo = (1/8)[f'+(m) - f'-(m)](b-a) with m the midpoint,
    hi = (1/8)[f'-(b) - f'+(a)](b-a); both sharp (equality for the kink at m).
    On [a, b] with no float strictly inside it, lo is 0.
    """
    a, b = f.domain.a, f.domain.b
    m = f.domain.midpoint
    dpm = f.d_plus(m) if a < m < b else None
    dmm = dpm if dpm is None or f.dplus is f.dminus else f.d_minus(m)
    lo, hi = _ordered(*_midpoint_bracket(b - a, dpm, dmm, f.d_plus(a), f.d_minus(b)), f, a, b)
    return Enclosure(lo / (b - a), hi / (b - a))
