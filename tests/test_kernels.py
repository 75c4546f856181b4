"""The per-cell kernels against their ``min``/``max`` oracles, bit for bit.

``quadrature_oracles`` keeps ``_corrected_bracket``, ``_adaptive_cell``,
``_ranges._imul`` and ``_ranges._ipow`` as they were written with the
builtin ``min`` and ``max``, with frozen copies of the outward steps
``_ranges._out`` and ``quadrature._cubic_term``, and ``grid_oracles`` the
paper's bracket at the midpoint and its inversion check, which the adaptive
cell reads.  The library's comparisons must give the same floats: ``repr``
tells -0.0 from 0.0 and takes a NaN as a NaN, and a raised error must be
the same type with the same message.  Each adaptive cell gets its own copy
of one table of f''' point reads, and the copies must match after the call.
"""

import ast
import inspect
import math
import textwrap

import grid_oracles
import pytest
import quadrature_oracles as oracle
from hypothesis import assume, example, given
from hypothesis import strategies as st

from trapbound import _ranges, funcs, pointwise, quadrature
from trapbound.expr import to_convex_function
from trapbound.funcs import Interval, catalog


def outcome(fn, *args):
    """The repr of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Functions and cells
# ---------------------------------------------------------------------------

#: family -> (least left end, the function on an interval)
FAMILIES = {
    "exp": (-4.0, lambda iv: catalog("exp", (), iv)),
    "neg_log": (0.0, lambda iv: catalog("neg_log", (), iv)),
    "xlogx": (0.0, lambda iv: catalog("xlogx", (), iv)),
    **{f"power_p{p}": (0.0, lambda iv, p=p: catalog("power_p", (p,), iv)) for p in (1.5, 2.0, 2.5, 3.0, 3.7)},
    "quadratic": (-4.0, lambda iv: catalog("quadratic", (), iv)),
    "linear": (-4.0, lambda iv: catalog("linear", (0.75, -0.3), iv)),
    "constant": (-4.0, lambda iv: catalog("constant", (1.25,), iv)),
    "exp(x)": (-4.0, lambda iv: to_convex_function("exp(x)", iv)),
    "x*log(x)": (1e-300, lambda iv: to_convex_function("x*log(x)", iv)),
    "sqrt(1 + x^2)": (-4.0, lambda iv: to_convex_function("sqrt(1 + x^2)", iv)),
    "abs(x - 0.3) + x^2": (-4.0, lambda iv: to_convex_function("abs(x - 0.3) + x^2", iv)),
}

#: widths on either side of the thresholds of _corrected_bracket
EDGE_WIDTHS = tuple(w for t in (2.0 ** -200, 2.0 ** -140)
                    for w in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf), 0.5 * t, 2.0 * t))


@st.composite
def cells(draw, lo):
    """A cell [u, v] with u >= lo: wide, of two adjacent floats, a few ulps
    wide, near a width threshold, or with u = lo (0 for the families that
    are singular there)."""
    kind = draw(st.sampled_from(("wide", "adjacent", "ulps", "edge")))
    u = draw(st.one_of(st.just(lo), st.floats(lo, 4.0)))
    if kind == "wide":
        v = u + draw(st.floats(1e-6, 4.0))
    elif kind == "adjacent":
        v = math.nextafter(u, math.inf)
    elif kind == "ulps":
        v = u
        for _ in range(draw(st.integers(2, 9))):
            v = math.nextafter(v, math.inf)
    else:
        # near 0, where a width of 2^-199 is not lost to rounding
        u = draw(st.sampled_from([x for x in (-1e-300, -0.0, 0.0, 2.0 ** -1000, 1e-300) if x >= lo]))
        v = u + 2.0 * draw(st.sampled_from(EDGE_WIDTHS))
    assume(u < v)
    return u, v


def cell_args(f, u, v, third_u, third_v):
    """The endpoint samples of [u, v] that its parent cell hands to
    ``_adaptive_cell``, and a table of f''' point reads that holds the ends
    where ``third_u``/``third_v`` and f has a range there."""
    table = {x: t for x, read in ((u, third_u), (v, third_v)) if read and (t := third(f, x)) is not None}
    return (f, u, v, f(u), f(v), f.d_plus(u), f.d_minus(v)), table


def both_cells(args, table):
    """The outcome of the library's and of the oracle's cell on ``args``, each
    given its own copy of ``table``, with the repr of that copy after the call:
    the same reads in the same order."""
    return [(outcome(cell, *args, t), repr(t))
            for cell, t in ((quadrature._adaptive_cell, dict(table)), (oracle._adaptive_cell, dict(table)))]


def third(f, x):
    """f''' at x as the adaptive integrator reads it, or None where f has no range there."""
    d = f._d2range(x, x) if f._d2range is not None else None
    return None if d is None else d[2:4]


@given(st.sampled_from(sorted(FAMILIES)), st.data(), st.booleans(), st.booleans())
def test_adaptive_cell_matches_oracle(name, data, third_u, third_v):
    lo, make = FAMILIES[name]
    u, v = data.draw(cells(lo))
    f = make(Interval(u, v))
    new, old = both_cells(*cell_args(f, u, v, third_u, third_v))
    assert new == old


@given(st.data(), st.floats(0.0, 1.0), st.booleans(), st.booleans())
def test_kink_cell_matches_oracle(data, at, third_u, third_v):
    # the kink anywhere in the cell, at its ends included
    u, v = data.draw(cells(-4.0))
    c = min(max(u + at * (v - u), u), v)
    f = catalog("kink", (1.5, c), Interval(u, v))
    new, old = both_cells(*cell_args(f, u, v, third_u, third_v))
    assert new == old


@pytest.mark.parametrize("name", ["neg_log", "xlogx", "power_p1.5", "power_p2.5", "power_p3.7"])
@pytest.mark.parametrize("v", [5e-324, 1e-300, 2.0 ** -199, 1e-10, 0.5, 1.0])
def test_cell_touching_zero_matches_oracle(name, v):
    f = FAMILIES[name][1](Interval(0.0, v))
    for with_third in (False, True):
        new, old = both_cells(*cell_args(f, 0.0, v, with_third, with_third))
        assert new == old


# ---------------------------------------------------------------------------
# Raw argument tuples of _corrected_bracket
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, 1e300)
ends = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e6, 1e6), st.floats(allow_nan=True, allow_infinity=True))
widths = st.one_of(st.sampled_from(EDGE_WIDTHS), st.floats(1e-300, 8.0))


@given(st.sampled_from((0.0, -0.0, 1.0, -3.0)), widths, widths, st.tuples(*[ends] * 7),
       st.tuples(*[ends] * 8), st.one_of(st.none(), st.tuples(*[ends] * 6)))
def test_corrected_bracket_matches_oracle(u, wl, wr, samples, d2, d3):
    m = u + wl
    v = m + wr
    args = (u, m, v, *samples, d2, d3)
    assert outcome(quadrature._corrected_bracket, *args) == outcome(oracle._corrected_bracket, *args)


@given(st.sampled_from(sorted(FAMILIES)), st.data(), st.booleans())
def test_corrected_bracket_on_samples_matches_oracle(name, data, with_third):
    # the arguments _adaptive_cell passes, where most cells take this bracket
    lo, make = FAMILIES[name]
    u, v = data.draw(cells(lo))
    m = 0.5 * u + 0.5 * v
    assume(u < m < v)
    f = make(Interval(u, v))
    d2 = f._d2range(u, v) if f._d2range is not None else None
    assume(d2 is not None)
    t3 = [third(f, x) for x in (u, m, v)] if with_third else [None]
    d3 = None if None in t3 else sum(t3, ())
    args = (u, m, v, f(u), f(m), f(v), f.d_plus(u), f.d_minus(m), f.d_plus(m), f.d_minus(v), d2, d3)
    assert outcome(quadrature._corrected_bracket, *args) == outcome(oracle._corrected_bracket, *args)


@given(widths, st.one_of(st.none(), st.tuples(ends, ends)), ends, ends)
def test_midpoint_bracket_matches_oracle(h, mid, dpu, dmv):
    # the paper's bracket of a cell, slopes at its midpoint or none
    args = (h, *(mid or (None, None)), dpu, dmv)
    assert outcome(pointwise._midpoint_bracket, *args) == outcome(grid_oracles.midpoint_bracket, *args)


@given(ends, ends)
@example(1e-12, 0.0)  # an inversion by rounding: the hull
def test_ordered_matches_oracle(lo, hi):
    f = catalog("exp")
    assert outcome(pointwise._ordered, lo, hi, f, 0.0, 1.0) == outcome(grid_oracles.ordered, lo, hi, f, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Interval products and powers
# ---------------------------------------------------------------------------

interval_ends = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e200, -1e200)),
                          st.floats(-1e3, 1e3))


@st.composite
def intervals(draw):
    """(lo, hi) with lo <= hi: ends of either sign of 0 in either order, or equal ends."""
    a = draw(interval_ends)
    b = a if draw(st.booleans()) else draw(interval_ends)
    return (a, b) if a <= b else (b, a)


@given(intervals(), intervals())
def test_imul_matches_oracle(x, y):
    assert outcome(_ranges._imul, x, y) == outcome(oracle._imul, x, y)


@given(intervals(), st.one_of(st.sampled_from((0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5)),
                              st.floats(-4.0, 4.0)))
def test_ipow_matches_oracle(x, p):
    assert outcome(_ranges._ipow, x, p) == outcome(oracle._ipow, x, p)


@pytest.mark.parametrize("x", [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 2.0), (-2.0, 0.0),
                               (-2.0, -0.0), (3.0, 3.0), (-3.0, -3.0)])
def test_signed_zero_ends_match_oracle(x):
    for y in ((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (-1.0, 2.0), (2.0, 2.0), (-2.0, -2.0)):
        assert outcome(_ranges._imul, x, y) == outcome(oracle._imul, x, y)
        assert outcome(_ranges._imul, y, x) == outcome(oracle._imul, y, x)
    for p in (0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5):
        assert outcome(_ranges._ipow, x, p) == outcome(oracle._ipow, x, p)


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

#: run -> (the function on an interval, the interval)
RUNS = {
    **{name: (make, (max(lo, -1.0), 1.0)) for name, (lo, make) in FAMILIES.items()},
    "neg_log": (FAMILIES["neg_log"][1], (0.5, 2.0)),
    "neg_log at 0": (FAMILIES["neg_log"][1], (0.0, 1.0)),
    "kink": (lambda iv: catalog("kink", (1.5, 1 / 3), iv), (-1.0, 1.0)),
}


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-12])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_adaptive_integrate_matches_oracle_cells(monkeypatch, name, eps):
    make, (a, b) = RUNS[name]
    f = make(Interval(a, b))
    new = outcome(quadrature.adaptive_integrate, f, eps)
    monkeypatch.setattr(quadrature, "_adaptive_cell", oracle._adaptive_cell)
    assert new == outcome(quadrature.adaptive_integrate, f, eps)


# ---------------------------------------------------------------------------
# power_p ranges
# ---------------------------------------------------------------------------

powers = st.one_of(st.sampled_from((1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 6.0, 7.5)), st.floats(1.0, 8.0))
points = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300)), st.floats(0.0, 4.0))


@given(powers, points, st.one_of(st.none(), points))
@example(3.0, -0.0, 0.0)  # equal ends of either sign, where t^(p - 2) is -0.0 and 0.0
@example(3.0, 0.0, -0.0)
@example(4.0, -0.0, 0.0)
def test_power_p_range_matches_oracle(p, u, v):
    # v None: a read at the point u, as the adaptive integrator's f''' reads are
    v = u if v is None else v
    u, v = (u, v) if u <= v else (v, u)
    new = catalog("power_p", (p,))._d2range
    assume(new is not None)
    assert outcome(new, u, v) == outcome(oracle.power_p_range(p), u, v)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
def test_power_p_point_read_takes_one_power_per_order(monkeypatch, x):
    # (p)_k t^(p-k) for k = 2, 3, 4, 6, no (p)_k 0: four powers, where two per order took eight
    calls = []
    pow_ = funcs._pow
    monkeypatch.setattr(funcs, "_pow", lambda t, e: calls.append((t, e)) or pow_(t, e))
    catalog("power_p", (2.5,))._d2range(x, x)
    assert len(calls) == 4
    calls.clear()
    catalog("power_p", (2.5,))._d2range(x, 1.5)
    assert len(calls) == 8


def test_power_p_range_at_zero():
    # (p)_k t^(p-k) at t = 0: the f'' range starts at 0.0, and f''' is unbounded
    rng = catalog("power_p", (2.5,))._d2range(0.0, 0.5)
    assert rng[0] == 0.0 and rng[3] == math.inf


# ---------------------------------------------------------------------------
# No builtin min or max on the per-cell paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fn", [quadrature._corrected_bracket, quadrature._adaptive_cell, _ranges._imul,
                                _ranges._ipow], ids=lambda fn: fn.__name__)
def test_no_builtin_min_or_max(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in ("min", "max")]
    assert not calls, (
        f"{fn.__name__} calls the builtin min or max (lines {calls} of the function): on CPython 3.11 "
        "max(a, b) takes 121 ns and b if b > a else a takes 12 ns, and these run once or more per "
        "adaptive cell, about 2 us of a cell's 8.4; write the comparison the builtin makes instead")
