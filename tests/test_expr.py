import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapbound import cli
from trapbound.expr import (
    _SCANNER,
    Binary,
    Const,
    EvalError,
    ParseError,
    Unary,
    Var,
    _code,
    _compile,
    eval_expr,
    parse,
    to_convex_function,
    to_function,
    to_string,
    tokenize,
)
from trapbound.funcs import Interval, NonConvexityError, catalog
from trapbound.quadrature import adaptive_integrate

import expr_oracles

CORPUS = [
    "x",
    "42",
    "3.5",
    "1e3",
    "2.5e-2",
    "-x",
    "x + 1",
    "x - 1",
    "1 - x",
    "x * x",
    "x / 2",
    "x^2",
    "x^3",
    "x^2 + 2*x + 1",
    "2*x^2 - 3*x + 0.5",
    "-x^2",
    "2^-2",
    "(x + 1) * (x - 1)",
    "x - x^2 / 2",
    "exp(x)",
    "exp(-x)",
    "exp(2*x) + 1",
    "log(x + 2)",
    "-log(x + 1)",
    "sqrt(x + 1)",
    "x * log(x + 3)",
    "abs(x)",
    "abs(x - 0.5)",
    "2 * abs(x) + x^2",
    "exp(x) - log(x + 2) + x^4 / 4",
]

SMOOTH = [s for s in CORPUS if "abs" not in s]
#: Where the abs entries of CORPUS have their kink.
KINKS = {"abs(x)": 0.0, "abs(x - 0.5)": 0.5, "2 * abs(x) + x^2": 0.0}

#: Points where eval_expr refuses a value, one per check.
SINGULAR = [
    ("1 / x", 0.0),
    ("1 / x", -0.0),
    ("log(x)", -1.0),
    ("log(x)", 0.0),
    ("sqrt(x)", -0.5),
    ("x^0.5", -1.0),
    ("x^1.5", -math.inf),
    ("x^-1", 0.0),
    ("exp(x^2)", 1e6),
    ("x^3", 1e200),
]


def slopes(src):
    """The compiled one-sided derivative oracles (f'+, f'-) of ``src``."""
    f = to_convex_function(src, Interval(-2.0, 2.0))
    return f.dplus, f.dminus


@pytest.fixture
def compiles(monkeypatch):
    """The sources passed to compile() from here on, with the code cache
    emptied first, so that the count does not depend on earlier tests."""
    import builtins

    sources = []

    def spy(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr("trapbound.expr.compile", spy, raising=False)
    _code.cache_clear()
    return sources


def outcome(fn, t):
    try:
        return repr(fn(t))
    except EvalError as exc:
        return f"EvalError: {exc}"


def reference_eval(src, t):
    # independent oracle: hand the source to Python itself
    translated = src.replace("^", "**")
    return eval(translated, {"__builtins__": {}},
                {"x": t, "exp": math.exp, "log": math.log,
                 "abs": abs, "sqrt": math.sqrt})


class TestTokenizer:
    def test_positions_are_one_based(self):
        toks = tokenize("x + 12")
        assert [(t.kind, t.text, t.position) for t in toks] == [
            ("identifier", "x", 1),
            ("operator", "+", 3),
            ("number", "12", 5),
        ]

    def test_scientific_notation(self):
        assert tokenize("2.5e-2")[0].text == "2.5e-2"

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x $ 2")
        assert exc.value.position == 3


class TestParser:
    def test_precedence(self):
        assert parse("1 + 2 * x") == Binary("+", Const(1.0),
                                            Binary("*", Const(2.0), Var("x")))
        assert parse("-x^2") == Unary("neg", Binary("^", Var("x"), Const(2.0)))
        assert parse("2*x^3") == Binary("*", Const(2.0),
                                        Binary("^", Var("x"), Const(3.0)))

    def test_left_associativity(self):
        assert parse("1 - 2 - 3") == Binary("-", Binary("-", Const(1.0), Const(2.0)),
                                            Const(3.0))
        assert parse("8 / 4 / 2") == Binary("/", Binary("/", Const(8.0), Const(4.0)),
                                            Const(2.0))

    def test_constant_exponent_may_fold(self):
        tree = parse("x^(1 + 1)")
        assert tree == Binary("^", Var("x"), Const(2.0))

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("2^x")
        assert "constant" in str(exc.value)
        assert exc.value.position == 3

    def test_constant_exponent_is_evaluated(self):
        assert parse("x^(2+1)") == Binary("^", Var("x"), Const(3.0))

    @pytest.mark.parametrize("src", ["x^(0*x)", "x^(x-x)", "x^(1/0)", "x^(1e308*10)", "x^1e400", "x^(1e400-1e400)"])
    def test_exponent_mentioning_variable_or_failing_refused(self, src):
        # one rule: an exponent that mentions the variable is refused even
        # where it is constant, and one that cannot be evaluated to a finite
        # number is refused
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert "exponent must be a constant" in str(exc.value)
        assert exc.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse("x + y")
        assert exc.value.position == 5

    def test_custom_variable(self):
        # the variable is the first identifier that does not call a function
        assert parse("t^2") == Binary("^", Var("t"), Const(2.0))
        with pytest.raises(ParseError):
            parse("t^2 + x^2")

    @pytest.mark.parametrize("src, name, position", [
        ("log + 1", "log", 1),  # a function name is never the variable
        ("x + t", "t", 5),  # nor is a second name
        ("exp(t) + sqrt", "sqrt", 10),
        ("2 * y - exp(log(y)) + z", "z", 23),
    ])
    def test_unknown_identifier_after_the_variable(self, src, name, position):
        with pytest.raises(ParseError, match=f"unknown identifier {name!r}") as exc:
            parse(src)
        assert exc.value.position == position

    def test_unknown_function(self):
        with pytest.raises(ParseError) as exc:
            parse("sin(x)")
        assert exc.value.position == 1

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x + 1")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc:
            parse("x + 1 )")
        assert exc.value.position == 7

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unexpected_end(self):
        with pytest.raises(ParseError) as exc:
            parse("x +")
        assert exc.value.position == 4


class TestEval:
    def test_matches_python_reference(self, rng):
        for src in CORPUS:
            tree = parse(src)
            for _ in range(100):
                t = rng.uniform(-1.5, 1.5)
                try:
                    expected = reference_eval(src, t)
                except (ValueError, ZeroDivisionError, OverflowError):
                    with pytest.raises(EvalError):
                        eval_expr(tree, t)
                    continue
                got = eval_expr(tree, t)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (src, t)

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as exc:
            eval_expr(parse("1 / x"), 0.0)
        assert "1 / x" in str(exc.value)

    def test_log_domain(self):
        with pytest.raises(EvalError):
            eval_expr(parse("log(x)"), -1.0)
        with pytest.raises(EvalError):
            eval_expr(parse("log(x)"), 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalError):
            eval_expr(parse("sqrt(x)"), -0.5)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            eval_expr(parse("x^0.5"), -1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            eval_expr(parse("x^-1"), 0.0)

    def test_overflow_reported(self):
        with pytest.raises(EvalError):
            eval_expr(parse("exp(x^2)"), 1e6)

    def test_compiled_matches_eval_bit_for_bit(self, rng):
        for src in CORPUS:
            tree, f = parse(src), to_function(src)
            for _ in range(100):
                t = rng.uniform(-1.5, 1.5)
                assert outcome(f, t) == outcome(lambda u: eval_expr(tree, u), t), (src, t)
        for src, t in SINGULAR:
            expected = outcome(lambda u: eval_expr(parse(src), u), t)
            assert expected.startswith("EvalError"), (src, t)
            assert outcome(to_function(src), t) == expected, (src, t)


class TestPowerFastPath:
    """A non-integral power of a positive base is a bare ``**`` in the
    generated code; any other base goes through ``_power``.  Both give
    eval_expr's value, and every error is eval_expr's EvalError."""

    @staticmethod
    def outcomes(src, t):
        """(f, f'+, f'-) at t, each a repr or an EvalError's message."""
        f = to_convex_function(src, Interval(-2.0, 2.0))
        return tuple(outcome(fn, t) for fn in (f.evaluate, f.dplus, f.dminus))

    @pytest.mark.parametrize("c, p", [(0.25, 2.5), (-0.5, 1.5), (0.0, 0.5), (1.0, -0.5), (-1.0, 3.25)])
    def test_positive_base_is_the_closed_form(self, c, p):
        src = f"(x - ({c}))^{p}"
        tree = parse(src)
        for t in (math.nextafter(c, math.inf), c + 0.125, c + 0.7, 2.0):
            value = (t - c) ** p
            slope = repr(p * (t - c) ** (p - 1.0))
            assert self.outcomes(src, t) == (repr(value), slope, slope), (src, t)
            assert eval_expr(tree, t) == value

    @pytest.mark.parametrize("src, t, message, slope", [
        ("(x - 0.25)^2.5", 0.0, "negative base with non-integer exponent in (x - 0.25)^2.5", None),
        ("(x - 0.25)^-0.5", 0.25, "zero raised to negative power in (x - 0.25)^(-0.5)", None),
        # the bare ** overflows in f; the slope, 1.5 t^0.5, does not
        ("x^1.5", 1e300, "overflow in x^1.5", repr(1.5 * 1e300 ** 0.5)),
    ])
    def test_errors_are_eval_expr_s(self, src, t, message, slope):
        f = to_convex_function(src, Interval(-2.0, 2.0))
        expected = outcome(lambda u: eval_expr(parse(src), u), t)
        assert expected == f"EvalError: {message}"
        # a slope that faults hands t to eval_expr, which raises f's own error
        assert self.outcomes(src, t) == (expected,) + (slope or expected,) * 2
        with pytest.raises(EvalError, match="^" + re.escape(message) + "$"):
            f.evaluate(t)

    @pytest.mark.parametrize("src, t, value, slope", [
        ("(x - 0.25)^2.5", 0.25, "0.0", "0.0"),  # 0^2.5 = 0, slope 2.5 * 0^1.5 = 0
        # f(0) = 0; its slope 0.5 * 0^-0.5 is refused
        ("x^0.5", 0.0, "0.0", "EvalError: slope of x^0.5 is undefined at 0.0"),
        # f is finite; its slope 0.001 t^-0.999 overflows
        ("x^0.001", 1e-320, repr(1e-320 ** 0.001), "EvalError: slope of x^0.001 is undefined at 1e-320"),
    ])
    def test_zero_and_tiny_bases(self, src, t, value, slope):
        assert outcome(lambda u: eval_expr(parse(src), u), t) == value
        assert self.outcomes(src, t) == (value, slope, slope)

    def test_nan_base(self):
        for src in ("x^2.5", "(x - 0.5)^-0.5"):
            assert self.outcomes(src, math.nan) == ("nan",) * 3
            assert math.isnan(eval_expr(parse(src), math.nan))

    def test_density_compiles_f_alone(self, compiles):
        pdf = to_function("1.5 * x^0.5")
        assert len(compiles) == 1
        assert "def f(" in compiles[0] and "def d(" not in compiles[0]
        assert pdf(0.25) == 1.5 * 0.25 ** 0.5 and pdf(0.0) == 0.0


class TestRoundTrip:
    def test_corpus_round_trips(self):
        assert len(CORPUS) == 30
        for src in CORPUS:
            tree = parse(src)
            assert parse(to_string(tree)) == tree, src

    @pytest.mark.parametrize("src, text", [
        ("x - 1e400", "x - 1e999"),
        ("-1e400 * x", "(-1e999) * x"),
        ("x * (-1e400)", "x * (-1e999)"),
        ("log(x - 1e400)", "log(x - 1e999)"),
    ])
    def test_infinite_constant_round_trips(self, src, text):
        # int(inf) raised OverflowError; inf itself would parse as the variable
        tree = parse(src)
        assert to_string(tree) == text
        assert parse(to_string(tree)) == tree

    def test_infinite_constant_in_an_error_message(self):
        with pytest.raises(EvalError, match=re.escape("log of nonpositive value -inf in log(x - 1e999)")):
            eval_expr(parse("log(x - 1e400)"), 0.0)

    def test_derivatives_round_trip(self):
        points = [-0.9 + 0.1 * i for i in range(19)]
        for src in CORPUS:
            again = to_string(parse(src))
            for mine, theirs in zip(slopes(src), slopes(again)):
                assert [outcome(mine, t) for t in points] == [outcome(theirs, t) for t in points], src


class TestDerivative:
    def test_simple_forms(self):
        for t in (-1.5, -0.25, 0.0, 0.3, 1.0):
            for side in slopes("x^2"):
                assert side(t) == 2 * t
            for side in slopes("x"):
                assert side(t) == 1.0
            for side in slopes("5"):
                assert side(t) == 0.0

    def test_matches_central_difference(self, rng):
        # 25 points a source in [-1, 1] within 1e-5 relative, and 20 of their
        # own seed in [-0.9, 0.9] within 1e-6; the abs entries after the
        # smooth ones, skipping points within 1e-3 of their kinks
        h = 1e-6
        for draws, count, span, rel in ((rng, 25, 1.0, 1e-5), (random.Random(4242), 20, 0.9, 1e-6)):
            for src, kink in [(s, math.inf) for s in SMOOTH] + list(KINKS.items()):
                tree = parse(src)
                dplus, dminus = slopes(src)
                for _ in range(count):
                    t = draws.uniform(-span, span)
                    if abs(t - kink) < 1e-3:
                        continue
                    fd = (eval_expr(tree, t + h) - eval_expr(tree, t - h)) / (2 * h)
                    for side in (dplus, dminus):
                        assert side(t) == pytest.approx(fd, rel=rel, abs=1e-6), (src, t)

    def test_zero_of_abs_argument(self):
        # d+|g| = |d+g| and d-|g| = -|d-g| where g = 0
        dplus, dminus = slopes("abs(2*x - 1) + x^2")
        assert dplus(0.5) == 2 + 1.0
        assert dminus(0.5) == -2 + 1.0
        # inner kink at 0.5 and outer zero at 0.25 and 0.75
        dplus, dminus = slopes("abs(abs(x - 0.5) - 0.25)")
        assert (dplus(0.25), dminus(0.25)) == (1.0, -1.0)
        assert (dplus(0.5), dminus(0.5)) == (-1.0, 1.0)
        assert (dplus(0.75), dminus(0.75)) == (1.0, -1.0)

    def test_undefined_slope_is_an_eval_error(self):
        # f is finite at 0 but its slope is not; f's own errors come first
        dplus, _ = slopes("-sqrt(x)")
        with pytest.raises(EvalError, match="slope of -sqrt"):
            dplus(0.0)
        with pytest.raises(EvalError, match="sqrt of negative value"):
            dplus(-1.0)


class TestToConvexFunction:
    def test_smooth_gets_exact_derivatives(self):
        f = to_convex_function("x^2", Interval(0.0, 1.0))
        assert f(0.5) == 0.25
        assert f.d_plus(0.25) == pytest.approx(0.5, abs=1e-15)
        assert f.d_minus(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_abs_kink_sides(self):
        f = to_convex_function("abs(x - 0.5)", Interval(0.0, 1.0))
        assert f.d_plus(0.5) == 1.0
        assert f.d_minus(0.5) == -1.0
        assert f.d_plus(0.75) == 1.0

    def test_custom_variable(self):
        f = to_convex_function("exp(t)", Interval(0.0, 1.0))
        assert f(1.0) == pytest.approx(math.e, rel=1e-15)
        assert f.d_plus(0.5) == pytest.approx(math.exp(0.5), rel=1e-12)
        # the variable's name never reaches the generated code
        for name in ("t", "k0", "v0", "f_fault", "_exp"):
            assert to_function(f"{name} * 2")(3.0) == 6.0


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.floats(min_value=-5.0, max_value=5.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=5),
    t=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_polynomial_eval_property(coeffs, t):
    src = " + ".join(f"({c}) * x^{k}" for k, c in enumerate(coeffs))
    tree = parse(src)
    expected = math.fsum(c * t ** k for k, c in enumerate(coeffs))
    assert eval_expr(tree, t) == pytest.approx(expected, rel=1e-12, abs=1e-9)
    assert parse(to_string(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(
    k=st.floats(min_value=0.125, max_value=8.0),
    c=st.floats(min_value=-1.5, max_value=1.5),
    ts=st.lists(st.floats(min_value=-1.9, max_value=1.9), min_size=1, max_size=8),
)
def test_kink_slopes_match_catalog(k, c, ts):
    iv = Interval(-2.0, 2.0)
    f = to_convex_function(f"{k!r}*abs(x - ({c!r})) + x^2", iv)
    kink, square = catalog("kink", (k, c), iv), catalog("quadratic", (), iv)
    for t in [c, *ts]:
        for got, want in ((f.d_plus(t), kink.d_plus(t) + square.d_plus(t)),
                          (f.d_minus(t), kink.d_minus(t) + square.d_minus(t))):
            assert abs(got - want) <= 2 * math.ulp(want), (t, got, want)


# ---------------------------------------------------------------------------
# f'' range
# ---------------------------------------------------------------------------


def _d2_cases():
    """(text, domain, exact f'' on Decimal t) for each smooth expression
    template of the benchmark's cli_expr workload, and for a log and a sqrt
    of arguments with derivatives of every order."""
    from decimal import Decimal as D

    c = st.floats(0.5, 2.0)
    return st.one_of(
        c.map(lambda c: (f"exp({c!r}*x)", (-1.0, 1.0), lambda t: D(c) ** 2 * (D(c) * t).exp())),
        st.floats(0.0, 1.0).flatmap(lambda c: st.sampled_from([
            (f"x^2 + {c!r}*x", (-1.0, 1.0), lambda t: D(2)),
            (f"x^2 - {c!r}*x", (-1.0, 1.0), lambda t: D(2))])),
        st.floats(1.5, 3.5).map(lambda p: (f"x^{p!r}", (0.1, 1.0),
                                           lambda t: D(p) * (D(p) - 1) * t ** (D(p) - 2))),
        st.sampled_from([
            ("1/x", (0.2, 1.0), lambda t: 2 / t ** 3),
            ("x*log(x)", (0.1, 1.0), lambda t: 1 / t),
            ("-log(x)", (0.1, 1.0), lambda t: 1 / t ** 2),
            ("sqrt(1 + x^2)", (-1.0, 1.0), lambda t: (1 + t * t) ** D(-1.5)),
            ("exp(x) + exp(-x)", (-1.0, 1.0), lambda t: t.exp() + (-t).exp()),
            ("log(1 + exp(x))", (-1.0, 1.0), lambda t: t.exp() / (t.exp() + 1) ** 2),
            ("sqrt(1 + exp(x))", (-1.0, 1.0), lambda t: t.exp() * (t.exp() + 2) / (4 * (t.exp() + 1) ** D(1.5))),
        ]),
    )


@settings(max_examples=300, deadline=None)
@given(case=_d2_cases(), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_d2range_contains_exact_second_derivative(case, p, q, samples):
    from decimal import Decimal, localcontext

    src, (a, b), d2 = case
    u, v = sorted(a + (b - a) * s for s in (p, q))
    f = to_convex_function(src, Interval(a, b))
    lo, hi = f._d2range(u, v)[:2]
    assert 0.0 <= lo <= hi < math.inf
    with localcontext() as ctx:
        ctx.prec = 100  # the points' rounding is then far below an ulp of the range
        for s in (0, 1, *samples):
            # an exact point of [u, v]: the range must hold there too
            t = Decimal(u) + (Decimal(v) - Decimal(u)) * Decimal(s.numerator) / Decimal(s.denominator)
            assert Decimal(lo) <= d2(t) <= Decimal(hi), (src, u, v, t)


class TestD2Range:
    @pytest.mark.parametrize("src, u, v", [
        ("abs(x - 0.3) + x^2", 0.0, 1.0),  # abs argument holds 0
        ("abs(x) + x^2", 0.0, 1.0),  # ... at an end of the cell
        ("-log(x)", 0.0, 0.5),  # log touching 0
        ("-log(x + 1)", -2.0, 0.5),  # log going below 0
        ("-log(x)", -2.0, -1.0),  # log wholly below 0: f'' = 1/x^2 would pass
        ("-sqrt(x)", 0.0, 0.5),  # sqrt touching 0
        ("-sqrt(x + 1)", -2.0, 0.5),  # sqrt going below 0
        ("1/x", 0.0, 1.0),  # / touching 0
        ("1/x", -1.0, 1.0),  # / by an interval around 0
        ("x^-2", -1.0, 1.0),  # negative integer power around 0
        ("x^1.5", 0.0, 1.0),  # non-integer ^ touching 0
        ("x^2.5", -1.0, 1.0),  # non-integer ^ below 0
        ("exp(x)", 700.0, 800.0),  # overflow
        ("exp(exp(x))", 6.0, 7.0),  # overflow inside
        ("1e400*x^2", 0.0, 1.0),  # an infinite constant: inf * 0 is NaN
    ])
    def test_not_c2_gives_none(self, src, u, v):
        assert to_convex_function(src, Interval(u, v))._d2range(u, v) is None

    @pytest.mark.parametrize("src, u, v", [
        ("exp(exp(x))", math.log(695.0), math.log(695.0) + 1e-9),  # only f''' and f'''' overflow
        (f"x^{-(2.0 ** 52 - 2.5)!r}", 1.0, 1.0 + 2.0 ** -52),  # only p - 3 (and p - 4) round
    ])
    def test_third_derivative_fault_keeps_f2_range(self, src, u, v):
        lo, hi, lo3, hi3, lo4, hi4, lo6, hi6 = to_convex_function(src, Interval(u, v))._d2range(u, v)
        assert 0.0 < lo <= hi < math.inf
        assert (lo3, hi3) == (lo4, hi4) == (lo6, hi6) == (-math.inf, math.inf)

    @pytest.mark.parametrize("src, u, v", [
        ("exp(exp(x))", math.log(690.0), math.log(690.0) + 1e-9),  # only f'''' overflows
        (f"x^{1.0 + 2.0 ** -52!r}", 1.0, 2.0),  # only p - 4 rounds
    ])
    def test_fourth_derivative_fault_keeps_f3_range(self, src, u, v):
        lo, hi, lo3, hi3, lo4, hi4, lo6, hi6 = to_convex_function(src, Interval(u, v))._d2range(u, v)
        assert 0.0 < lo <= hi < math.inf
        assert -math.inf < lo3 <= hi3 < math.inf
        assert (lo4, hi4) == (lo6, hi6) == (-math.inf, math.inf)

    @pytest.mark.parametrize("src", ["-x^2", "-exp(x)", "x^2 - 3*x^2"])
    def test_negative_range_raises(self, src):
        f = to_convex_function(src, Interval(0.0, 1.0))
        with pytest.raises(NonConvexityError, match="not convex"):
            f._d2range(0.25, 0.5)

    def test_lower_end_clamped_at_zero(self):
        # interval x * (1/x)' + 2 (1/x) spans below 0 on a wide cell
        lo, hi = to_convex_function("x*log(x)", Interval(0.1, 2.0))._d2range(0.1, 2.0)[:2]
        assert lo == 0.0 and 10.0 <= hi < math.inf

    def test_same_sided_cells_of_abs_are_smooth(self):
        f = to_convex_function("abs(x - 0.3) + x^2", Interval(0.0, 1.0))
        for u, v in ((0.0, 0.25), (0.5, 1.0)):
            lo, hi = f._d2range(u, v)[:2]
            assert lo <= 2.0 <= hi <= 2.0 + 1e-14

    def test_no_user_text_in_generated_source(self, compiles):
        f = to_convex_function("exp(0.123*zeta) + zeta^2.5 - log(zeta)", Interval(1.0, 2.0))
        assert len(compiles) == 1  # f and its slopes
        assert f._d2range(1.0, 1.5) is not None
        assert len(compiles) == 2  # the range, on first use
        for text in ("zeta", "0.123", "2.5", "exp", "log"):
            assert text not in compiles[1].replace("_iexp", "").replace("_ilog", "")
        # names of the generated code are free as variable names
        for name in ("t", "k0", "v0", "d", "r", "r_fault", "_iadd", "_out"):
            lo, hi = to_convex_function(f"{name}^2", Interval(0.0, 1.0))._d2range(0.0, 1.0)[:2]
            assert lo <= 2.0 <= hi

    @pytest.mark.parametrize("src, a, b, cells", [
        ("sqrt(1 + x^2)", -2.0, 2.0, (56, 358)),
        ("exp(x^2)", -1.0, 1.0, (42, 250)),
        ("1/(2 - x^2)", -1.0, 1.0, (42, 266)),
        ("(x-1)^2/x", 0.5, 3.0, (42, 262)),
    ])
    def test_adaptive_cells_pin_the_tightness(self, src, a, b, cells):
        # the f'', f''' and f'''' ranges set the cells a run takes, so a rule
        # whose ranges come out looser takes more of them
        for eps, n in zip((1e-8, 1e-12), cells):
            res = adaptive_integrate(to_convex_function(src, Interval(a, b)), eps)
            assert (res.cells, res.converged) == (n, True), (src, eps)


class TestSharedCode:
    """Trees of one shape differ only in the constants bound as globals of
    their generated code, so they share one code object per process."""

    #: two trees of one shape, with their closed-form slopes
    SHAPE = {
        "exp(0.5*x) + x^2.5": lambda t: 0.5 * math.exp(0.5 * t) + 2.5 * t ** 1.5,
        "exp(1.5*x) + x^3.5": lambda t: 1.5 * math.exp(1.5 * t) + 3.5 * t ** 2.5,
    }
    CELLS = [(0.0, 0.5), (0.25, 1.0), (1.0, 2.0), (0.5, 0.5000001)]

    def test_one_compile_per_shape(self, compiles):
        for src in self.SHAPE:
            to_convex_function(src, Interval(0.0, 2.0))._d2range(0.25, 1.0)
            assert len(compiles) == 2, src  # f and its slopes, and the range

    def test_second_tree_keeps_its_own_constants(self, rng, compiles):
        functions = {src: to_convex_function(src, Interval(0.0, 2.0)) for src in self.SHAPE}
        assert len(compiles) == 1
        ts = [rng.uniform(0.0, 2.0) for _ in range(50)] + [0.0, 2.0]
        for src, slope in self.SHAPE.items():
            f, tree = functions[src], parse(src)
            for t in ts:
                assert f.evaluate(t) == eval_expr(tree, t), (src, t)
                assert f.dplus(t) == f.dminus(t) == slope(t), (src, t)

    def test_ranges_equal_a_fresh_compile(self, compiles):
        shared = {src: to_convex_function(src, Interval(0.0, 2.0)) for src in self.SHAPE}
        ranges = {src: [f._d2range(u, v) for u, v in self.CELLS] for src, f in shared.items()}
        assert len(compiles) == 2
        for src in self.SHAPE:
            _code.cache_clear()
            alone = to_convex_function(src, Interval(0.0, 2.0))
            assert ranges[src] == [alone._d2range(u, v) for u, v in self.CELLS], src
        first, second = ranges.values()
        assert first != second  # each tree's constants reach its ranges

    def test_report_equals_a_fresh_process(self, capsys, compiles):
        # one interpreter prints for exp(2*x), run after exp(0.5*x), what an interpreter of its own prints
        def report(fn):
            assert cli.main(["integrate", "--fn", fn, "--interval", "0", "1", "--eps", "1e-8"]) == 0
            return capsys.readouterr().out

        report("exp(0.5*x)")
        shared = report("exp(2*x)")
        assert len(compiles) == 2  # f and its slopes, and the range, for both trees
        _code.cache_clear()
        assert report("exp(2*x)") == shared

    @pytest.mark.parametrize("pair", [
        # 0*x folds out of the slope, 2*x leaves 2 in it
        (("0*x + exp(x)", lambda t: math.exp(t)), ("2*x + exp(x)", lambda t: 2.0 + math.exp(t))),
        # an integral exponent is a bare **; any other one is a ** guarded by
        # the base's sign, with _power for a base that is not positive
        (("x^2", lambda t: 2.0 * t), ("x^2.5", lambda t: 2.5 * t ** 1.5)),
    ])
    def test_different_folding_is_a_different_source(self, pair, compiles):
        for i, (src, slope) in enumerate(pair):
            f, tree = to_convex_function(src, Interval(0.0, 2.0)), parse(src)
            assert len(compiles) == i + 1, src
            for t in (0.0, 0.3, 1.0, 1.7, 2.0):
                assert f.evaluate(t) == eval_expr(tree, t), (src, t)
                assert f.dplus(t) == f.dminus(t) == slope(t), (src, t)
        assert compiles[0] != compiles[1]


#: Pieces of the grammar, and of texts just outside it, for the oracle
#: comparison; joined, they also make merged tokens such as ``x2.5`` and ``1e3e``.
PIECES = ["x", "t", "y", "_k", "x2", "inf", "e", "E", "exp", "log", "abs", "sqrt", "sin",
          "0", "1", "2.5", ".5", "1.", "1e3", "1E-2", "1e400", "3e", "1e+", "1.2.3", "٣",
          "+", "-", "*", "/", "^", "(", ")", " ", "\t", ".", "$", ",", "é"]


def _outcomes(src):
    """(tokens, tree) of the library and of ``expr_oracles``, each a value or
    the type, text and position of what it raised; the oracle parses with
    the variable that ``expr_oracles.variable_of`` reads from its tokens."""
    def run(fn):
        try:
            return repr(fn())
        except Exception as exc:
            return type(exc).__name__, str(exc), getattr(exc, "position", None)

    def old_parse():
        return expr_oracles.parse(src, expr_oracles.variable_of(expr_oracles.tokenize(src)))

    return ((run(lambda: tokenize(src)), run(lambda: parse(src))),
            (run(lambda: expr_oracles.tokenize(src)), run(old_parse)))


@settings(max_examples=2000, deadline=None)
@given(src=st.lists(st.sampled_from(PIECES), max_size=14).map("".join))
def test_parser_agrees_with_the_old_ladder(src):
    new, old = _outcomes(src)
    assert new == old, src


# Characters that are numeric but not decimal digits (categories No and Nl,
# such as ², ½ and Ⅻ) are word characters to the scanner's \w but not
# decimal digits to its \d, so they are kept out of the text above.  A name
# that starts with one is refused as the old tokenizer refuses it: a digit
# to str.isdigit() (², ①) as a malformed number, any other (½, Ⅻ) as an
# unexpected character.  Inside a name the old tokenizer took them as
# letters, so x² named the variable; a name is letters, _ and decimal
# digits, and the library refuses such a character where it stands.
@settings(max_examples=1000, deadline=None)
@given(src=st.text(st.characters(blacklist_categories=("No", "Nl", "Cs")), max_size=16))
def test_parser_agrees_with_the_old_ladder_on_any_text(src):
    new, old = _outcomes(src)
    assert new == old, src


NUMERIC_NON_LETTERS = "²³①½Ⅻ"


def _numeric_inside_a_name(src):
    """Whether one of ``NUMERIC_NON_LETTERS`` follows the first character of
    a name as the scanner matches it."""
    return any(m.lastgroup == "identifier" and any(c in NUMERIC_NON_LETTERS for c in m.group()[1:])
               for m in _SCANNER.finditer(src))


def test_numeric_non_letters_agree_with_the_old_tokenizer():
    # where one starts a name, both refuse it alike
    for src in ["x + ²", "²", "²x", "x + ①", "x + ½", "½x", "x+Ⅻ", "1 + ½", "(x)^Ⅻ"]:
        assert not _numeric_inside_a_name(src)
        new, old = _outcomes(src)
        assert new == old, src
    assert _outcomes("x + ²")[0][0] == ("ParseError", "malformed number '²' (position 5)", 5)
    assert _outcomes("x + ½")[0][0] == ("ParseError", "unexpected character '½' (position 5)", 5)
    # inside a name, where the old tokenizer took it for a letter: x² named
    # the variable, and integrate reported the integral of x on [0, 1]
    for src, char, pos in [("x²", "²", 2), ("x½ + 1", "½", 2), ("xⅫ", "Ⅻ", 2), ("2*x½", "½", 4),
                           ("x² + x½", "²", 2), ("_k①", "①", 3), ("x2³", "³", 3)]:
        assert _numeric_inside_a_name(src)
        refused = ("ParseError", f"unexpected character {char!r} (position {pos})", pos)
        assert _outcomes(src)[0] == (refused, refused), src
        assert any(char in tok.text[1:] for tok in expr_oracles.tokenize(src) if tok.kind == "identifier")


@settings(max_examples=1000, deadline=None)
@given(src=st.lists(st.sampled_from(PIECES + list(NUMERIC_NON_LETTERS)), max_size=10).map("".join))
def test_numeric_non_letters_are_refused_alike(src):
    """Inside a name such a character is a ParseError.  Elsewhere, where such
    characters run together or follow a number (``²³``, ``1²``), the old
    tokenizer takes them into one malformed number and the scanner refuses
    one of them: both parsers give the same tree or both a ParseError."""
    (new_tokens, new), (_, old) = _outcomes(src)
    if _numeric_inside_a_name(src):
        assert new_tokens[0] == new[0] == "ParseError", src
    else:
        assert new == old or new[0] == old[0] == "ParseError", src


@pytest.mark.parametrize("walk", [lambda e: eval_expr(e, 1.0), to_string, _compile],
                         ids=["eval_expr", "to_string", "compile"])
def test_text_in_place_of_a_tree_is_a_type_error(walk):
    with pytest.raises(TypeError, match=r"^not an expression node: 'x'$"):
        walk("x")


def test_a_negative_divisor_is_divided_as_its_negation():
    # -1/(x - 2) divides by a range below 0, which _idiv turns into 1/(2 - x):
    # the same cells and the same enclosure of ln 2
    iv = Interval(0.0, 1.0)
    negative, positive = (adaptive_integrate(to_convex_function(src, iv), 1e-10)
                          for src in ("-1/(x - 2)", "1/(2 - x)"))
    assert negative.cells == positive.cells == 29
    assert negative.integral == positive.integral
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Fraction(Decimal(2).ln())
    assert Fraction(negative.integral.lo) <= ln2 <= Fraction(negative.integral.hi)


def test_an_exponent_whose_p_minus_1_rounds_gives_no_f2_range():
    # 1e16 - 1 rounds to 1e16, so x^1e16 gets no f'' range and its cells take
    # the slopes-alone bracket; the integral is 1/(1e16 + 1)
    f = to_convex_function("x^1e16", Interval(0.0, 1.0))
    assert f._d2range(0.25, 0.5) is None
    res = adaptive_integrate(f, 1e-6)
    assert res.converged and res.cells == 19
    assert Fraction(res.integral.lo) <= Fraction(1, 10 ** 16 + 1) <= Fraction(res.integral.hi)
