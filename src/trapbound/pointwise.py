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
serves ``gap_enclosure``, ``hh_bounds`` and quadrature's fixed and adaptive
cells.  ``gap_enclosure`` and ``hh_bounds`` still round to nearest; rounding
them outward is ROADMAP item 4.  Any bound touching an infinite endpoint
derivative degenerates to a trivially true enclosure.  The integral of the
CLI's ``gap``/``hh`` is the adaptive enclosure.  Here and in quadrature a
split-point reading of the certificate is ``_split_bracket``; probability's
``_expectation_bracket`` scales its weights and rounds outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .funcs import DEFAULT_TOL, ConvexFunction, DomainError, NonConvexityError


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


def _split_bracket(dplus, dminus, u: float, v: float, x: float) -> tuple:
    """:func:`_gap_bracket` of the cell [u, v] split at any x in [u, v], from
    the one-sided slope oracles ``dplus`` and ``dminus``.  A zero-weighted
    slope is not read (at x = u or v it may not exist), f'+(u) is f'+(x) at
    x = u and f'-(v) is f'-(x) at x = v: 2 reads at an end, 4 inside.  The
    weights are products, which overflow to inf where a float ``**`` raises.
    """
    wl = (v - x) * (v - x)
    wr = (x - u) * (x - u)
    dpx = dplus(x) if wl else 0.0
    dmx = dminus(x) if wr else 0.0
    return _gap_bracket(wl, wr, dpx, dmx, dpx if wl and x == u else dplus(u), dmx if wr and x == v else dminus(v))


def _ordered(lo: float, hi: float, f: ConvexFunction, u: float, v: float, i=None) -> tuple:
    """The bracket (lo, hi) of f's remainder on the cell [u, v] (number i), ordered:
    lo > hi beyond ``DEFAULT_TOL`` means f is not convex there and raises
    :class:`NonConvexityError`, and one within it is rounding: the hull (hi, lo)."""
    if lo <= hi:
        return lo, hi
    if lo > hi + DEFAULT_TOL * max(1.0, abs(lo), abs(hi)):
        cell = "cell" if i is None else f"cell {i}"
        raise NonConvexityError(
            f"{cell} [{u}, {v}] has inverted remainder bracket [{lo}, {hi}]; {f.label!r} is not convex there"
        )
    return hi, lo


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
    a, b = f.domain.a, f.domain.b
    if not f.domain.contains(x):
        raise DomainError(f"split point {x} outside [{a}, {b}]")
    return Enclosure(*_ordered(*_split_bracket(f.d_plus, f.d_minus, a, b, x), f, a, b))


def hh_bounds(f: ConvexFunction) -> Enclosure:
    """Enclosure of the Hermite-Hadamard defect (f(a)+f(b))/2 - (1/(b-a)) int f.

    lo = (1/8)[f'+(m) - f'-(m)](b-a) with m the midpoint,
    hi = (1/8)[f'-(b) - f'+(a)](b-a); both sharp (equality for the kink at m).
    On [a, b] with no float strictly inside it, lo is 0.
    """
    a, b = f.domain.a, f.domain.b
    m = f.domain.midpoint
    dpm, dmm = (f.d_plus(m), f.d_minus(m)) if a < m < b else (None, None)
    lo, hi = _ordered(*_midpoint_bracket(b - a, dpm, dmm, f.d_plus(a), f.d_minus(b)), f, a, b)
    return Enclosure(lo / (b - a), hi / (b - a))
