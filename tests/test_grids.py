"""The one-pass sampling grids against their list-based oracles.

``grid_oracles`` keeps the walks that built every grid point into a list and
read some of them twice.  The library walks read each point once and must
give the same floats bit for bit (``repr`` tells -0.0 from 0.0 and takes a
NaN as a NaN), the same convexity witness, and the same first failing read;
counting wrappers pin how many reads each makes.
"""

import dataclasses
import math

import grid_oracles
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from trapbound.expr import EvalError, to_convex_function, to_function
from trapbound.funcs import ConvexFunction, Interval, catalog, check_convexity
from trapbound.pointwise import _split_bracket
from trapbound.probability import (
    _MASS_CELLS,
    continuous_density,
    piecewise_constant_density,
    validate_density,
)
from trapbound.quadrature import generalized_trapezoid, uniform_partition


def assert_identical(new, old):
    assert repr(new) == repr(old)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class Counter:
    """A function that records each argument it is called with."""

    def __init__(self, fn):
        self.fn = fn
        self.args = []

    def __call__(self, x):
        self.args.append(x)
        return self.fn(x)


def counted(f: ConvexFunction) -> ConvexFunction:
    """f with its value and slope oracles counted."""
    return dataclasses.replace(f, evaluate=Counter(f.evaluate), dplus=Counter(f.dplus), dminus=Counter(f.dminus))


# ---------------------------------------------------------------------------
# Intervals and functions
# ---------------------------------------------------------------------------


@st.composite
def intervals(draw, lo=-4.0):
    """A random interval, one of two adjacent floats, or one under 100 ulps
    wide (where grid points repeat), with a >= lo."""
    a = draw(st.floats(lo, 4.0))
    kind = draw(st.sampled_from(("wide", "adjacent", "ulps")))
    if kind == "wide":
        b = a + draw(st.floats(1e-6, 8.0))
    elif kind == "adjacent":
        b = math.nextafter(a, math.inf)
    else:
        b = a
        for _ in range(draw(st.integers(2, 99))):
            b = math.nextafter(b, math.inf)
    assume(a < b)
    return Interval(a, b)


def sine(iv):
    """Not convex where sin > 0: a check that fails, with a witness."""
    return ConvexFunction(iv, math.sin, math.cos, math.cos, "sin")


#: name -> (smallest a, build on an interval)
FUNCTIONS = {
    "kink": (-4.0, lambda iv: catalog("kink", (1.5, iv.midpoint), iv)),
    "quadratic": (-4.0, lambda iv: catalog("quadratic", (), iv)),
    "exp": (-4.0, lambda iv: catalog("exp", (), iv)),
    "neg_log": (0.0, lambda iv: catalog("neg_log", (), iv)),
    "xlogx": (0.0, lambda iv: catalog("xlogx", (), iv)),
    "power_p": (0.0, lambda iv: catalog("power_p", (2.5,), iv)),
    "abs expr": (-4.0, lambda iv: to_convex_function("abs(x - 0.3) + x^2", iv)),
    "power expr": (0.0, lambda iv: to_convex_function("(x + 0.5)^1.5 + x^2.5", iv)),
    "sin": (-4.0, sine),
}


@st.composite
def functions(draw):
    name = draw(st.sampled_from(sorted(FUNCTIONS)))
    lo, build = FUNCTIONS[name]
    if lo == 0.0 and draw(st.booleans()):
        return build(Interval(0.0, draw(st.floats(1e-3, 4.0))))  # a singular end for neg_log, xlogx
    return build(draw(intervals(lo)))


#: neg_log and xlogx on [0, b]: f or its slope is infinite at 0
AT_ZERO = [catalog("neg_log", (), Interval(0.0, 1.0)), catalog("xlogx", (), Interval(0.0, 2.0)),
           catalog("neg_log", (), Interval(0.0, 1e-300))]


# ---------------------------------------------------------------------------
# Same bits
# ---------------------------------------------------------------------------


class TestConvexity:
    @given(f=functions())
    def test_report_equals_the_list_walk(self, f):
        assert_identical(check_convexity(f), grid_oracles.check_convexity(f))

    @pytest.mark.parametrize("f", AT_ZERO, ids=lambda f: f"{f.label} on [0, {f.domain.b}]")
    def test_infinite_value_at_zero(self, f):
        report = check_convexity(f)
        assert_identical(report, grid_oracles.check_convexity(f))

    def test_witness_of_a_nonconvex_function(self):
        f = sine(Interval(0.0, 3.0))
        report = check_convexity(f)
        assert not report.passed and report.witness is not None
        assert report == grid_oracles.check_convexity(f)

    def test_first_failing_read(self):
        f = to_convex_function("log(x - 0.5)", Interval(0.0, 1.0))
        assert outcome(check_convexity, f) == outcome(grid_oracles.check_convexity, f)
        assert outcome(check_convexity, f).startswith("EvalError: log of nonpositive value")

    def test_reads_each_point_once(self):
        f = counted(catalog("exp", (), Interval(-1.0, 2.0)))
        check_convexity(f)
        ts = f.evaluate.args
        assert len(ts) == 101 and ts == sorted(ts) and ts[0] == -1.0 and ts[-1] == 2.0
        assert not f.dplus.args and not f.dminus.args


class TestGeneralizedTrapezoid:
    @given(f=functions(), n=st.integers(1, 8), rule=st.sampled_from(("midpoint", "left", "right", "random")),
           data=st.data())
    def test_value_equals_the_list_walk(self, f, n, rule, data):
        try:
            P = uniform_partition(f.domain, n, "left" if rule == "random" else rule)
        except ValueError:
            assume(False)  # an interval of few ulps repeats points of n cells
        if rule == "random":
            fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
            xi = [min(v, max(u, u + (v - u) * s)) for (u, v, _), s in zip(P.cells(), fractions)]
            P = dataclasses.replace(P, xi=tuple(xi))
        assert_identical(generalized_trapezoid(f, P), grid_oracles.generalized_trapezoid(f, P))

    @pytest.mark.parametrize("f", AT_ZERO, ids=lambda f: f"{f.label} on [0, {f.domain.b}]")
    @pytest.mark.parametrize("rule", ["midpoint", "left", "right"])
    def test_infinite_value_at_zero(self, f, rule):
        P = uniform_partition(f.domain, 4, rule)
        assert_identical(generalized_trapezoid(f, P), grid_oracles.generalized_trapezoid(f, P))

    def test_first_failing_read(self):
        f = to_convex_function("(x - 0.25)^2.5", Interval(0.0, 1.0))
        P = uniform_partition(f.domain, 4)
        assert outcome(generalized_trapezoid, f, P) == outcome(grid_oracles.generalized_trapezoid, f, P)
        assert "negative base" in outcome(generalized_trapezoid, f, P)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("rule", ["midpoint", "left", "right"])
    def test_n_plus_one_reads(self, n, rule):
        f = counted(catalog("quadratic", (), Interval(0.0, 1.0)))
        P = uniform_partition(f.domain, n, rule)
        generalized_trapezoid(f, P)
        assert f.evaluate.args == list(P.points)
        grid_oracles.generalized_trapezoid(f, P)
        assert len(f.evaluate.args) == (n + 1) + 2 * n  # the list walk read 2n


class TestSplitBracket:
    @given(f=functions(), where=st.sampled_from(("u", "v", "inside")), s=st.floats(0.0, 1.0))
    def test_bracket_equals_the_list_walk(self, f, where, s):
        u, v = f.domain.a, f.domain.b
        x = {"u": u, "v": v}.get(where, min(v, max(u, u + (v - u) * s)))
        args = (f.d_plus, f.d_minus, u, v, x)
        assert outcome(_split_bracket, *args) == outcome(grid_oracles.split_bracket, *args)

    @pytest.mark.parametrize("f", AT_ZERO, ids=lambda f: f"{f.label} on [0, {f.domain.b}]")
    def test_infinite_slope_at_zero(self, f):
        for x in (f.domain.a, f.domain.midpoint, f.domain.b):
            args = (f.d_plus, f.d_minus, f.domain.a, f.domain.b, x)
            assert_identical(_split_bracket(*args), grid_oracles.split_bracket(*args))

    @pytest.mark.parametrize("u, v, x, reads, listed", [
        (0.0, 1.0, 0.0, [("+", 0.0), ("-", 1.0)], 3),
        (0.0, 1.0, 1.0, [("-", 1.0), ("+", 0.0)], 3),
        (0.0, 1.0, 0.25, [("+", 0.25), ("-", 0.25), ("+", 0.0), ("-", 1.0)], 4),
        # both weights underflow to 0: no slope at x is read, so none is reused
        (0.0, 5e-324, 0.0, [("+", 0.0), ("-", 5e-324)], 2),
        (0.0, 5e-324, 5e-324, [("+", 0.0), ("-", 5e-324)], 2),
    ])
    def test_reads_in_order(self, u, v, x, reads, listed):
        """2 slope reads at x = u or v (the list walk read f'+(u) or f'-(v)
        a second time: 3), 4 inside, in the list walk's order less its repeat."""
        log = []
        dplus = lambda t: log.append(("+", t)) or 2.0 * t
        dminus = lambda t: log.append(("-", t)) or 2.0 * t
        new = _split_bracket(dplus, dminus, u, v, x)
        assert log == reads
        log.clear()
        assert grid_oracles.split_bracket(dplus, dminus, u, v, x) == new
        assert len(log) == listed
        assert [r for i, r in enumerate(log) if r not in log[:i]] == reads

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_first_failing_read(self, x):
        def dplus(t):
            raise EvalError(f"f'+ fails at {t}")

        def dminus(t):
            raise EvalError(f"f'- fails at {t}")

        args = (dplus, dminus, 0.0, 1.0, x)
        assert outcome(_split_bracket, *args) == outcome(grid_oracles.split_bracket, *args)


def _mass_bracket(d, x=None):
    return validate_density(d, x).normalization


class TestMassBracket:
    DENSITIES = ["3*x^2", "2*x", "1.5*x^0.5", "exp(x)", "(x + 1)^-0.5", "0.01 + exp(40*x)"]

    @given(src=st.sampled_from(DENSITIES), iv=intervals(0.0), s=st.floats(0.0, 1.0))
    def test_continuous_equals_the_list_walk(self, src, iv, s):
        d = continuous_density(iv, to_function(src))
        x = iv.a + (iv.b - iv.a) * s
        assert_identical(_mass_bracket(d, x), grid_oracles.mass_bracket(d, x))

    @given(iv=intervals(-4.0), data=st.data())
    def test_piecewise_equals_the_list_walk(self, iv, data):
        inner = data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        points = (iv.a + (iv.b - iv.a) * s for s in inner)
        breaks = sorted({iv.a, *(t for t in points if iv.a < t < iv.b)})
        values = sorted(data.draw(st.lists(st.floats(0.0, 8.0), min_size=len(breaks), max_size=len(breaks))))
        d = piecewise_constant_density(iv, breaks, values)
        x = data.draw(st.sampled_from([None, iv.a, iv.b, *breaks]))
        assert_identical(_mass_bracket(d, x), grid_oracles.mass_bracket(d, x))

    @pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(-1e308, 1e308),
                                    Interval(-0.0, 1.0), Interval(1.0, math.nextafter(1.0, 2.0)),
                                    Interval(0.0, 7 * 2.0 ** -1074)],
                             ids=["unit", "symmetric", "overflowing width", "negative zero", "adjacent",
                                  "subnormal width"])
    def test_edge_intervals(self, iv):
        # a width that overflows makes every inner point inf; a subnormal one
        # rounds (b - a)(i/n) at every grid size, alike for the same i/n
        for pdf in (lambda t: 2.0 + t / 4.0, lambda t: math.inf if t >= iv.b else 0.5):
            new, old = Counter(pdf), Counter(pdf)
            assert_identical(_mass_bracket(continuous_density(iv, new)),
                             grid_oracles.mass_bracket(continuous_density(iv, old)))
            assert_identical(sorted(set(new.args)), sorted(set(old.args)))
        d = piecewise_constant_density(iv, (iv.a,), (1.0,))
        assert_identical(_mass_bracket(d), grid_oracles.mass_bracket(d))

    @pytest.mark.parametrize("src", ["sqrt(x - 0.5)", "1/(x - 0.5)", "log(x)"])
    def test_first_failing_read(self, src):
        d = continuous_density(Interval(0.0, 1.0), to_function(src))
        assert outcome(_mass_bracket, d) == outcome(grid_oracles.mass_bracket, d)
        assert outcome(_mass_bracket, d).startswith("EvalError")

    def test_piecewise_reads(self):
        # n right limits at x_0..x_(n-1) and n left limits at x_1..x_n: never
        # right_limit(b) or left_limit(a)
        iv = Interval(0.0, 1.0)
        d = piecewise_constant_density(iv, (0.0, 0.3, 0.7), (0.25, 1.0, 1.5))
        right, left = Counter(d.right_limit), Counter(d.left_limit)
        _mass_bracket(dataclasses.replace(d, right_limit=right, left_limit=left))
        grid = [i / _MASS_CELLS for i in range(_MASS_CELLS + 1)]
        assert right.args == grid[:-1] and left.args == grid[1:]

    def test_continuous_reads_each_point_once(self):
        iv = Interval(0.0, 1.0)
        pdf = Counter(lambda t: 2.0 * t)
        _mass_bracket(continuous_density(iv, pdf))
        assert len(pdf.args) == len(set(pdf.args)) == _MASS_CELLS + 1
        assert pdf.args == [i / _MASS_CELLS for i in range(_MASS_CELLS + 1)]
