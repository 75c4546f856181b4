import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapbound.expr import (
    Binary,
    Const,
    EvalError,
    ParseError,
    Unary,
    Var,
    eval_expr,
    parse,
    to_convex_function,
    to_function,
    to_string,
    tokenize,
)
from trapbound.funcs import Interval, catalog
from trapbound.quadrature import ConvexityViolationError

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
        assert parse("t^2", variable="t") == Binary("^", Var("t"), Const(2.0))
        with pytest.raises(ParseError):
            parse("x^2", variable="t")

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
            for t in rng.uniform(-1.5, 1.5, size=100):
                t = float(t)
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
            for t in rng.uniform(-1.5, 1.5, size=100):
                t = float(t)
                assert outcome(f, t) == outcome(lambda u: eval_expr(tree, u), t), (src, t)
        for src, t in SINGULAR:
            expected = outcome(lambda u: eval_expr(parse(src), u), t)
            assert expected.startswith("EvalError"), (src, t)
            assert outcome(to_function(src), t) == expected, (src, t)


class TestRoundTrip:
    def test_corpus_round_trips(self):
        for src in CORPUS:
            tree = parse(src)
            assert parse(to_string(tree)) == tree, src

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
        h = 1e-6
        for src in SMOOTH:
            tree = parse(src)
            dplus, dminus = slopes(src)
            for t in rng.uniform(-1.0, 1.0, size=25):
                t = float(t)
                fd = (eval_expr(tree, t + h) - eval_expr(tree, t - h)) / (2 * h)
                for side in (dplus, dminus):
                    assert side(t) == pytest.approx(fd, rel=1e-5, abs=1e-6), (src, t)
        for src, kink in KINKS.items():
            tree = parse(src)
            dplus, dminus = slopes(src)
            for t in rng.uniform(-1.0, 1.0, size=25):
                t = float(t)
                if abs(t - kink) < 1e-3:
                    continue
                fd = (eval_expr(tree, t + h) - eval_expr(tree, t - h)) / (2 * h)
                for side in (dplus, dminus):
                    assert side(t) == pytest.approx(fd, rel=1e-5, abs=1e-6), (src, t)

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
        f = to_convex_function("exp(t)", Interval(0.0, 1.0), variable="t")
        assert f(1.0) == pytest.approx(math.e, rel=1e-15)
        assert f.d_plus(0.5) == pytest.approx(math.exp(0.5), rel=1e-12)
        # the variable's name never reaches the generated code
        for name in ("t", "k0", "v0", "f_fault", "_exp"):
            assert to_function(f"{name} * 2", variable=name)(3.0) == 6.0


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
    template of the benchmark's cli_expr workload."""
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
        lo, hi, lo3, hi3, lo4, hi4 = to_convex_function(src, Interval(u, v))._d2range(u, v)
        assert 0.0 < lo <= hi < math.inf
        assert (lo3, hi3) == (lo4, hi4) == (-math.inf, math.inf)

    @pytest.mark.parametrize("src, u, v", [
        ("exp(exp(x))", math.log(690.0), math.log(690.0) + 1e-9),  # only f'''' overflows
        (f"x^{1.0 + 2.0 ** -52!r}", 1.0, 2.0),  # only p - 4 rounds
    ])
    def test_fourth_derivative_fault_keeps_f3_range(self, src, u, v):
        lo, hi, lo3, hi3, lo4, hi4 = to_convex_function(src, Interval(u, v))._d2range(u, v)
        assert 0.0 < lo <= hi < math.inf
        assert -math.inf < lo3 <= hi3 < math.inf
        assert (lo4, hi4) == (-math.inf, math.inf)

    @pytest.mark.parametrize("src", ["-x^2", "-exp(x)", "x^2 - 3*x^2"])
    def test_negative_range_raises(self, src):
        f = to_convex_function(src, Interval(0.0, 1.0))
        with pytest.raises(ConvexityViolationError, match="not convex"):
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

    def test_no_user_text_in_generated_source(self, monkeypatch):
        import builtins

        sources = []

        def spy(source, *args):
            sources.append(source)
            return builtins.compile(source, *args)

        for module in ("trapbound.expr", "trapbound._ranges"):
            monkeypatch.setattr(f"{module}.compile", spy, raising=False)
        f = to_convex_function("exp(0.123*zeta) + zeta^2.5 - log(zeta)", Interval(1.0, 2.0), "zeta")
        assert len(sources) == 1  # f and its slopes
        assert f._d2range(1.0, 1.5) is not None
        assert len(sources) == 2  # the range, on first use
        for text in ("zeta", "0.123", "2.5", "exp", "log"):
            assert text not in sources[1].replace("_iexp", "").replace("_ilog", "")
        # names of the generated code are free as variable names
        for name in ("t", "k0", "v0", "d", "r", "r_fault", "_iadd", "_out"):
            lo, hi = to_convex_function(f"{name}^2", Interval(0.0, 1.0), name)._d2range(0.0, 1.0)[:2]
            assert lo <= 2.0 <= hi
