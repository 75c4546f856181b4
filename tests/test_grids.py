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
from trapbound.funcs import ConvexFunction, DomainError, EvaluationError, Interval, catalog, check_convexity
from trapbound.pointwise import _split_bracket
from trapbound.probability import (
    _MASS_CELLS,
    continuous_density,
    piecewise_constant_density,
    validate_density,
)
from trapbound.quadrature import generalized_trapezoid, remainder_enclosure, uniform_partition


def assert_identical(new, old):
    assert repr(new) == repr(old)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
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
    """f with its value and slope oracles counted; one slope oracle stays one."""
    dplus = Counter(f.dplus)
    dminus = dplus if f.dplus is f.dminus else Counter(f.dminus)
    return dataclasses.replace(f, evaluate=Counter(f.evaluate), dplus=dplus, dminus=dminus)


def checked(f: ConvexFunction) -> ConvexFunction:
    """f whose oracles are its checked wrappers ``f(x)``, ``f.d_plus`` and
    ``f.d_minus``: a pass over it reads as the passes did before they called
    the oracles directly, each read checked, and two slope oracles."""
    return dataclasses.replace(f, evaluate=f.__call__, dplus=f.d_plus, dminus=f.d_minus)


# ---------------------------------------------------------------------------
# Intervals and functions
# ---------------------------------------------------------------------------


@st.composite
def intervals(draw, lo=-4.0, huge=False):
    """A random interval, one of two adjacent floats, or one under 100 ulps
    wide (where grid points repeat), with a >= lo; with ``huge``, also one
    over 1.8e306 wide, where (b - a) i overflows."""
    a = draw(st.floats(lo, 4.0))
    kind = draw(st.sampled_from(("wide", "adjacent", "ulps") + (("huge",) if huge else ())))
    if kind == "huge":
        b = a + draw(st.floats(1.8e306, 1.7e308))
    elif kind == "wide":
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
def functions(draw, huge=False):
    name = draw(st.sampled_from(sorted(FUNCTIONS)))
    lo, build = FUNCTIONS[name]
    if lo == 0.0 and draw(st.booleans()):
        return build(Interval(0.0, draw(st.floats(1e-3, 4.0))))  # a singular end for neg_log, xlogx
    return build(draw(intervals(lo, huge)))


def partition(f, n, rule, data):
    """A uniform partition of f's domain into n cells, with a random xi in
    each cell for the rule "random"; skips an interval too narrow for n cells."""
    try:
        P = uniform_partition(f.domain, n, "left" if rule == "random" else rule)
    except ValueError:
        assume(False)  # an interval of few ulps repeats points of n cells
    if rule == "random":
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        xi = [min(v, max(u, u + (v - u) * s)) for (u, v, _), s in zip(P.cells(), fractions)]
        P = dataclasses.replace(P, xi=tuple(xi))
    return P


RULES = st.sampled_from(("midpoint", "left", "right", "random"))


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
    @given(f=functions(), n=st.integers(1, 8), rule=RULES, data=st.data())
    def test_value_equals_the_list_walk(self, f, n, rule, data):
        P = partition(f, n, rule, data)
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


# ---------------------------------------------------------------------------
# The fixed-grid passes call the oracles directly
# ---------------------------------------------------------------------------


def failing(fn, bad, exc_type):
    """``fn``, raising ``exc_type`` naming the point wherever ``bad(t)``."""
    def oracle(t):
        if bad(t):
            raise exc_type(f"fails at {t!r}")
        return fn(t)
    return oracle


def logged(fn, name, log):
    """``fn``, appending (name, t) to ``log`` at each call."""
    return lambda t: log.append((name, t)) or fn(t)


class TestDirectReads:
    """``check_convexity``, ``generalized_trapezoid`` and ``remainder_enclosure``
    call ``f.evaluate``, ``f.dplus`` and ``f.dminus`` directly.  They give, by
    repr, what the same passes over the checked wrappers give (``checked``;
    for the bracket, the per-cell oracle), failures included."""

    @given(f=functions(huge=True))
    def test_convexity_equals_the_checked_pass(self, f):
        assert outcome(check_convexity, f) == outcome(check_convexity, checked(f))

    @given(f=functions(huge=True), n=st.integers(1, 8), rule=RULES, data=st.data())
    def test_trapezoid_equals_the_checked_pass(self, f, n, rule, data):
        P = partition(f, n, rule, data)
        assert outcome(generalized_trapezoid, f, P) == outcome(generalized_trapezoid, checked(f), P)

    @given(f=functions(huge=True), n=st.integers(1, 8), rule=RULES, data=st.data())
    def test_remainder_equals_the_per_cell_oracle(self, f, n, rule, data):
        P = partition(f, n, rule, data)
        assert outcome(remainder_enclosure, f, P) == outcome(grid_oracles.remainder_enclosure, f, P)

    @given(f=functions(huge=True), n=st.integers(1, 8), rule=RULES, data=st.data())
    def test_every_read_lies_in_the_domain(self, f, n, rule, data):
        g = counted(f)
        P = partition(g, n, rule, data)
        outcome(check_convexity, g), outcome(generalized_trapezoid, g, P), outcome(remainder_enclosure, g, P)
        a, b = f.domain.a, f.domain.b
        assert all(a <= t <= b for t in g.evaluate.args)
        if g.dplus is g.dminus:  # each read serves as f'+ on [a, b) or f'- on (a, b]
            assert all(a <= t <= b for t in g.dplus.args)
        else:
            assert all(a <= t < b for t in g.dplus.args) and all(a < t <= b for t in g.dminus.args)

    @given(f=functions(huge=True), n=st.integers(1, 6), rule=RULES, data=st.data())
    def test_slopes_are_read_in_the_per_cell_order_less_repeats(self, f, n, rule, data):
        P = partition(f, n, rule, data)
        log = []
        dplus = logged(f.dplus, "f'", log)
        g = dataclasses.replace(f, dplus=dplus, dminus=dplus if f.dplus is f.dminus else logged(f.dminus, "f'-", log))
        new = outcome(remainder_enclosure, g, P)
        reads = log[:]
        log.clear()
        assert new == outcome(grid_oracles.remainder_enclosure, g, P)
        assert reads == list(dict.fromkeys(log))

    @given(f=functions(huge=True), n=st.integers(1, 8), rule=RULES, data=st.data(),
           where=st.sampled_from(("evaluate", "dplus", "dminus")),
           exc=st.sampled_from((ValueError, ZeroDivisionError, OverflowError, DomainError, EvalError, KeyError)),
           s=st.floats(0.0, 1.0), above=st.booleans())
    def test_first_failing_read(self, f, n, rule, data, where, exc, s, above):
        """Each pass fails at the read where the checked one did, with its
        exception: a value read's ValueError, ZeroDivisionError or OverflowError
        as the EvaluationError of ``f(x)``, a DomainError as it is, a slope
        read's as it is."""
        P = partition(f, n, rule, data)
        t0 = f.domain.a + (f.domain.b - f.domain.a) * s
        oracle = failing(getattr(f, where), (lambda t: t >= t0) if above else (lambda t: t <= t0), exc)
        shared = where != "evaluate" and f.dplus is f.dminus
        g = dataclasses.replace(f, **({"dplus": oracle, "dminus": oracle} if shared else {where: oracle}))
        assert outcome(check_convexity, g) == outcome(check_convexity, checked(g))
        assert outcome(generalized_trapezoid, g, P) == outcome(generalized_trapezoid, checked(g), P)
        assert outcome(remainder_enclosure, g, P) == outcome(grid_oracles.remainder_enclosure, g, P)

    def test_a_failed_value_read_names_the_point(self):
        f = ConvexFunction(Interval(-1.0, 1.0), lambda t: 1.0 / t, lambda t: -1.0 / (t * t), label="1/t")
        P = uniform_partition(f.domain, 2)
        for run in (lambda: check_convexity(f), lambda: generalized_trapezoid(f, P)):
            with pytest.raises(EvaluationError, match=r"^cannot evaluate '1/t' at 0.0: float division by zero$") as info:
                run()
            assert type(info.value.__cause__) is ZeroDivisionError

    def test_a_domain_error_of_a_value_read_passes_as_it_is(self):
        def evaluate(t):
            if t > 0.5:
                raise DomainError(f"no value at {t}")
            return t * t

        f = ConvexFunction(Interval(0.0, 1.0), evaluate, lambda t: 2.0 * t)
        P = uniform_partition(f.domain, 4)
        for run in (lambda: f(0.75), lambda: check_convexity(f), lambda: generalized_trapezoid(f, P)):
            with pytest.raises(DomainError, match=r"^no value at 0\.\d+$"):
                run()

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("rule", ["midpoint", "left", "right"])
    @pytest.mark.parametrize("make, kinked", [
        (lambda iv: catalog("exp", (), iv), False),
        (lambda iv: to_convex_function("exp(x) + exp(-x)", iv), False),
        (lambda iv: catalog("kink", (1.5, 0.3), iv), True),
        (lambda iv: to_convex_function("abs(x - 0.3) + x^2", iv), True),
    ], ids=["exp", "cosh expr", "kink", "abs expr"])
    def test_read_counts(self, n, rule, make, kinked):
        """n + 1 values; slopes 2n + 1 at midpoint xi and n + 1 at left or
        right xi from one slope oracle, 4n and 2n from two; each (oracle,
        point) read once.  The per-cell oracle read 4n and 2n slopes alike."""
        f = counted(make(Interval(-1.0, 2.0)))
        assert (f.dplus is not f.dminus) == kinked
        P = uniform_partition(f.domain, n, rule)
        generalized_trapezoid(f, P)
        assert f.evaluate.args == list(P.points)
        remainder_enclosure(f, P)
        slopes = f.dplus.args + (f.dminus.args if kinked else [])
        expected = (4 * n if rule == "midpoint" else 2 * n) if kinked else (2 * n + 1 if rule == "midpoint" else n + 1)
        assert len(slopes) == expected
        assert len(set(f.dplus.args)) == len(f.dplus.args) and len(set(f.dminus.args)) == len(f.dminus.args)
        check_convexity(f)
        assert len(f.evaluate.args) == (n + 1) + 101 and len(slopes) == expected


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
