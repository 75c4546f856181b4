"""Adaptive enclosures against an exact or 50-digit reference, with zero slack.

The references are the catalog's closed forms at the float endpoints and
parameters taken exactly: in ``fractions.Fraction`` where they are rational
(kink, quadratic, linear, constant, power_p with integer p), so that an exact
zero remainder stays zero, and otherwise in ``decimal`` to 50 significant
digits.  A cell of width h cancels about 3 log10(1/h) digits (the integral is
a difference of antiderivative values, the remainder a difference of the
rule and the integral), so the working precision starts above that and is
doubled until two runs agree.
"""

import dataclasses
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trapbound.cli import main
from trapbound.expr import to_convex_function
from trapbound.funcs import CATALOG_NAMES, Interval, catalog, default_catalog
from trapbound.quadrature import _corrected_bracket, _cubic_term, adaptive_integrate

DIGITS = 50

#: (name, params) of each entry of ``default_catalog()``, in order
DEFAULT_SPECS = [
    ("kink", (1.0, 0.5)),
    ("quadratic", ()),
    ("exp", ()),
    ("neg_log", ()),
    ("xlogx", ()),
    ("power_p", (3.0,)),
    ("linear", (2.0, -1.0)),
    ("constant", (5.0,)),
]


def number_type(name, params):
    """Fraction where the family's closed form is rational, else Decimal."""
    if name in ("exp", "neg_log", "xlogx") or (name == "power_p" and not params[0].is_integer()):
        return Decimal
    return Fraction


def closed_form(name, params, num):
    """(f, F) of a catalog family on ``num`` arguments: the function and an
    antiderivative, each 0 where the catalog defines its limit at t = 0."""
    d = [num(x) for x in params]
    if name == "kink":
        k, c = d
        return (lambda t: k * abs(t - c)), (lambda t: k * (t - c) * abs(t - c) / 2)
    if name == "quadratic":
        return (lambda t: t * t), (lambda t: t ** 3 / 3)
    if name == "exp":
        return (lambda t: t.exp()), (lambda t: t.exp())
    if name == "neg_log":
        return (lambda t: -t.ln()), (lambda t: t - t * t.ln() if t else Decimal(0))
    if name == "xlogx":
        return ((lambda t: t * t.ln() if t else Decimal(0)),
                (lambda t: t * t * t.ln() / 2 - t * t / 4 if t else Decimal(0)))
    if name == "power_p":
        (p,) = d
        return (lambda t: t ** p), (lambda t: t ** (p + 1) / (p + 1))
    if name == "linear":
        m, c = d
        return (lambda t: m * t + c), (lambda t: m * t * t / 2 + c * t)
    (c,) = d
    return (lambda t: c), (lambda t: c * t)


def reference(name, params, quantity, width):
    """``quantity(f, F, num)`` from the closed form of a catalog family, on a
    cell of the given width: exact in Fraction, else in Decimal to DIGITS
    significant digits."""
    num = number_type(name, params)
    f, F = closed_form(name, params, num)
    if num is Fraction:
        return quantity(f, F, num)
    prec = 2 * DIGITS + 3 * max(0, -Decimal(width).adjusted())
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            coarse = quantity(f, F, num)
            ctx.prec = 2 * prec
            fine = quantity(f, F, num)
        if abs(coarse - fine) <= abs(fine).scaleb(-DIGITS):
            return fine
        assert prec < 10_000, "reference does not settle"
        prec *= 2


def exact_integral(name, params, a, b):
    return reference(name, params, lambda f, F, num: F(num(b)) - F(num(a)), b - a)


def third_derivative(name, params, num):
    """f''' of a catalog family on ``num`` arguments; -inf or inf at a
    singular t = 0."""
    if name == "exp":
        return lambda t: t.exp()
    if name == "neg_log":
        return lambda t: -2 * t ** -3
    if name == "xlogx":
        return lambda t: -(t ** -2)
    if name == "power_p":
        p = num(params[0])
        c = p * (p - 1) * (p - 2)
        return lambda t: c * t ** (p - 3) if c else c
    return lambda t: num(0)


@st.composite
def catalog_cases(draw, name=None):
    """(name, params, a, b, eps) over every catalog family, or over ``name``."""
    name = name or draw(st.sampled_from(CATALOG_NAMES))
    a = draw(st.floats(0.0 if name in ("neg_log", "xlogx", "power_p") else -2.0, 2.0))
    b = a + draw(st.floats(1e-3, 2.0))
    params = ()
    if name == "kink":
        params = (draw(st.floats(0.1, 5.0)), a + (b - a) * draw(st.floats(0.0, 1.0)))
    elif name == "power_p":
        params = (draw(st.floats(1.0, 5.0)),)
    elif name == "linear":
        params = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    elif name == "constant":
        params = (draw(st.floats(-3.0, 3.0)),)
    return name, params, a, b, 10.0 ** -draw(st.integers(6, 12))


@settings(max_examples=200, deadline=None)
@given(case=catalog_cases())
def test_adaptive_enclosure_contains_reference(case):
    name, params, a, b, eps = case
    f = catalog(name, params, Interval(a, b))
    # a spent budget still has to enclose
    res = adaptive_integrate(f, eps, max_cells=5_000)
    assert res.integral.lo <= exact_integral(name, params, a, b) <= res.integral.hi


D = Decimal
#: f''' on Decimal t, given the constants c and p of the text, of smooth
#: expression templates on their domains: those of the benchmark's cli_expr
#: workload, and two whose inner functions have a second derivative, so that
#: every term of the chain rules is reached
EXPRESSIONS = {
    "exp({c!r}*x)": ((-1.0, 1.0), lambda c, p, t: D(c) ** 3 * (D(c) * t).exp()),
    "x^{p!r}": ((0.1, 1.0), lambda c, p, t: D(p) * (D(p) - 1) * (D(p) - 2) * t ** (D(p) - 3)),
    "1/x": ((0.2, 1.0), lambda c, p, t: -6 / t ** 4),
    "x*log(x)": ((0.1, 1.0), lambda c, p, t: -1 / t ** 2),
    "-log(x)": ((0.1, 1.0), lambda c, p, t: -2 / t ** 3),
    "sqrt(1 + x^2)": ((-1.0, 1.0), lambda c, p, t: -3 * t * (1 + t * t) ** D(-2.5)),
    "exp(x) + exp(-x)": ((-1.0, 1.0), lambda c, p, t: t.exp() - (-t).exp()),
    "exp(x^2)": ((-1.0, 1.0), lambda c, p, t: (12 * t + 8 * t ** 3) * (t * t).exp()),
    "(1 + x^2)^1.5": ((-1.0, 1.0), lambda c, p, t: (9 * t - 3 * t ** 3 / (1 + t * t)) / (1 + t * t).sqrt()),
}


@pytest.mark.parametrize("family", [*CATALOG_NAMES, *EXPRESSIONS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_third_derivative_range_contains_reference(family, data, p, q, samples):
    # the f''' range of a cell holds the exact f''' at its ends and at exact
    # interior points: with the ulp per end that the contract allows for a
    # catalog family, and as returned for an expression, whose interval ends
    # are rounded outward
    if family in EXPRESSIONS:
        (a, b), exact = EXPRESSIONS[family]
        c, k = data.draw(st.floats(0.5, 2.0)), data.draw(st.floats(1.5, 3.5))
        f = to_convex_function(family.format(c=c, p=k), Interval(a, b))
        d3, num, ulps = (lambda t: exact(c, k, t)), Decimal, 0
    else:
        name, params, a, b, _ = data.draw(catalog_cases(family))
        if name == "power_p":  # f''' changes sign at p = 2 and monotonicity at p = 3
            params = (data.draw(st.sampled_from((1.5, 2.5, 3.5))) + data.draw(st.floats(-0.5, 0.5)),)
        num = number_type(name, params)
        f, d3, ulps = catalog(name, params, Interval(a, b)), third_derivative(name, params, num), 1
    u, v = sorted(a + (b - a) * s for s in (p, q))
    assume(u < v)
    rng = f._d2range(u, v)
    assume(rng is not None)  # a kink inside the cell
    lo3, hi3 = rng[2:]
    for _ in range(ulps):
        lo3, hi3 = math.nextafter(lo3, -math.inf), math.nextafter(hi3, math.inf)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for s in (0, 1, *samples):
            t = num(u) + (num(v) - num(u)) * num(s.numerator) / num(s.denominator)
            t = min(max(t, num(u)), num(v))  # rounded to DIGITS, t may leave the cell
            assert lo3 <= d3(t) <= hi3, (f.label, u, v, t)


@pytest.mark.parametrize("eps", [1e-8, 1e-12])
@pytest.mark.parametrize("b", [1.0, 0.3])
def test_unbounded_third_derivative_keeps_second_order_cell(b, eps):
    # f''' = 1.875 t^-0.5 of t^2.5 is unbounded at 0, so the first cell keeps
    # the f'' bracket of its halves; it and the run enclose at zero slack
    f = catalog("power_p", (2.5,), Interval(0.0, b))
    d2 = f._d2range(0.0, b)
    assert d2[1] < math.inf == d2[3]
    m = 0.5 * b
    samples = (0.0, m, b, f(0.0), f(m), f(b), f.d_plus(0.0), f.d_minus(m), f.d_plus(m), f.d_minus(b))
    lo, hi = _corrected_bracket(*samples, d2)
    assert (lo, hi) == _corrected_bracket(*samples, d2[:2] + (-math.inf, math.inf))
    exact = reference("power_p", (2.5,), lambda f, F, num: (f(num(0.0)) + f(num(b))) * num(b) / 2
                      - (F(num(b)) - F(num(0.0))), b)
    assert lo <= exact <= hi
    res = adaptive_integrate(f, eps, max_cells=200_000)
    assert res.converged
    assert res.integral.lo <= exact_integral("power_p", (2.5,), 0.0, b) <= res.integral.hi


def test_default_specs_match_default_catalog():
    for (name, params), f in zip(DEFAULT_SPECS, default_catalog(), strict=True):
        assert f.label == catalog(name, params, f.domain).label


@settings(max_examples=200, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=7),
    p=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_one_cell_remainder_contains_exact_remainder(idx, p, q):
    # a one-cell run reports the kernel's bracket for the cell, widened by
    # the rounding allowance: it must hold gn minus the integral, exactly
    f = default_catalog()[idx]
    name, params = DEFAULT_SPECS[idx]
    a, b = f.domain.a, f.domain.b
    u, v = sorted(a + (b - a) * x for x in (p, q))
    assume(u < v)
    res = adaptive_integrate(dataclasses.replace(f, domain=Interval(u, v)), eps=1.0, max_cells=1)
    assert res.cells == 1
    exact = reference(name, params, lambda f, F, num: num(res.gn) - (F(num(v)) - F(num(u))), v - u)
    assert res.remainder.lo <= exact <= res.remainder.hi


@settings(max_examples=300, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=7),
    p=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=0.0, max_value=12.0),
)
def test_corrected_bracket_contains_exact_remainder(idx, p, scale):
    # a subcell [u, v], as wide as the rest of the domain or 1e-12 of it, of
    # a catalog function with a finite f'' range there: the slope-corrected
    # bracket holds the exact T - I of its float nodes and is never wider
    # than the h^3/12 [min f'', max f''] term, rounded outward, it refines
    f = default_catalog()[idx]
    name, params = DEFAULT_SPECS[idx]
    a, b = f.domain.a, f.domain.b
    u = a + (b - a) * p
    v = min(b, u + (b - u) * 10.0 ** -scale)
    m = 0.5 * (u + v)
    assume(u < m < v)
    d2 = f._d2range(u, v)
    assume(d2 is not None)  # a kink inside the cell
    bracket = _corrected_bracket(u, m, v, f(u), f(m), f(v), f.d_plus(u), f.d_minus(m), f.d_plus(m), f.d_minus(v), d2)
    assert bracket is not None
    lo, hi = bracket
    exact = reference(name, params, lambda f, F, num: (f(num(u)) + f(num(v))) * (num(v) - num(u)) / 2
                      - (F(num(v)) - F(num(u))), v - u)
    assert lo <= exact <= hi
    h = v - u
    assert hi - lo <= _cubic_term(h, d2[1], math.inf) - _cubic_term(h, d2[0], 0.0)


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("src, name, params, a, b", [
    ("exp(x)", "exp", (), 0.0, 1.0),
    ("x^2", "quadratic", (), 0.0, 1.0),
    ("x^3", "power_p", (3.0,), 0.0, 1.0),
    ("-log(x)", "neg_log", (), 0.5, 2.0),
    ("x*log(x)", "xlogx", (), 0.5, 2.0),
])
def test_expression_enclosure_contains_reference(src, name, params, a, b, eps):
    # an expression's f'' range is interval arithmetic, not a closed form
    res = adaptive_integrate(to_convex_function(src, Interval(a, b)), eps, max_cells=200_000)
    assert res.converged
    assert res.integral.lo <= exact_integral(name, params, a, b) <= res.integral.hi


@pytest.mark.parametrize("command", [["gap", "--x", "1.2"], ["hh"]])
@pytest.mark.parametrize("src, name, params", [
    ("x^2", "quadratic", ()),
    ("exp(x)", "exp", ()),
    ("abs(x - 0.5)", "kink", (1.0, 0.5)),
    ("x*log(x)", "xlogx", ()),
])
def test_cli_integral_contains_reference(capsys, command, src, name, params):
    # gap and hh report the integral behind them as a certified enclosure
    argv = [command[0], "--fn", src, "--interval", "0.5", "2", *command[1:]]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert "gap" not in report and "difference" not in report
    integral = report["integral"]
    assert integral["lo"] <= exact_integral(name, params, 0.5, 2.0) <= integral["hi"]
