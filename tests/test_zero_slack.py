"""Adaptive enclosures against an exact or 50-digit reference, with zero slack.

The references are the closed forms of ``catalog_oracles``.
"""

import dataclasses
import json
import math
import random
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from catalog_oracles import (DEFAULT_SPECS, DIGITS, default_catalog, derivative, exact_integral, number_type,
                             reference)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trapbound.cli import main
from trapbound.expr import to_convex_function
from trapbound import funcs
from trapbound.funcs import CATALOG_NAMES, Interval, catalog
from trapbound.quadrature import _corrected_bracket, _cubic_term, adaptive_integrate


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
#: f''' and f'''' on Decimal t, given the constants c and p of the text, of
#: smooth expression templates on their domains: those of the benchmark's
#: cli_expr workload, and seven whose operands have second or third
#: derivatives, so that every term of the chain, product, quotient and
#: power rules is reached; the log and sqrt arguments of the last two have
#: derivatives of every order
EXPRESSIONS = {
    "exp({c!r}*x)": ((-1.0, 1.0), lambda c, p, t: D(c) ** 3 * (D(c) * t).exp(),
                     lambda c, p, t: D(c) ** 4 * (D(c) * t).exp()),
    "x^{p!r}": ((0.1, 1.0), lambda c, p, t: D(p) * (D(p) - 1) * (D(p) - 2) * t ** (D(p) - 3),
                lambda c, p, t: D(p) * (D(p) - 1) * (D(p) - 2) * (D(p) - 3) * t ** (D(p) - 4)),
    "1/x": ((0.2, 1.0), lambda c, p, t: -6 / t ** 4, lambda c, p, t: 24 / t ** 5),
    "x*log(x)": ((0.1, 1.0), lambda c, p, t: -1 / t ** 2, lambda c, p, t: 2 / t ** 3),
    "-log(x)": ((0.1, 1.0), lambda c, p, t: -2 / t ** 3, lambda c, p, t: 6 / t ** 4),
    "sqrt(1 + x^2)": ((-1.0, 1.0), lambda c, p, t: -3 * t * (1 + t * t) ** D(-2.5),
                      lambda c, p, t: (12 * t * t - 3) * (1 + t * t) ** D(-3.5)),
    "exp(x) + exp(-x)": ((-1.0, 1.0), lambda c, p, t: t.exp() - (-t).exp(), lambda c, p, t: t.exp() + (-t).exp()),
    "exp(x^2)": ((-1.0, 1.0), lambda c, p, t: (12 * t + 8 * t ** 3) * (t * t).exp(),
                 lambda c, p, t: (12 + 48 * t * t + 16 * t ** 4) * (t * t).exp()),
    "(1 + x^2)^1.5": ((-1.0, 1.0), lambda c, p, t: (9 * t - 3 * t ** 3 / (1 + t * t)) / (1 + t * t).sqrt(),
                      lambda c, p, t: 9 * (1 + t * t) ** D(-2.5)),
    "exp(x)*(1 + x^2)": ((-0.5, 1.0), lambda c, p, t: (t * t + 6 * t + 7) * t.exp(),
                         lambda c, p, t: (t * t + 8 * t + 13) * t.exp()),
    "1/(2 - x^2)": ((-1.0, 1.0), lambda c, p, t: 24 * t * (t * t + 2) / (t * t - 2) ** 4,
                    lambda c, p, t: -24 * (5 * t ** 4 + 20 * t * t + 4) / (t * t - 2) ** 5),
    "(1 + exp(x))^1.5": ((-1.0, 1.0),
                         lambda c, p, t: (lambda e: 3 * (9 * e * e + 14 * e + 4) * e
                                          / (8 * (e + 1) ** D(1.5)))(t.exp()),
                         lambda c, p, t: (lambda e: 3 * (27 * e ** 3 + 68 * e * e + 52 * e + 8) * e
                                          / (16 * (e + 1) ** D(2.5)))(t.exp())),
    # sigma = 1/(1 + e^-t): f'' = sigma (1 - sigma)
    "log(1 + exp(x))": ((-1.0, 1.0), lambda c, p, t: (lambda s: s * (1 - s) * (1 - 2 * s))(1 / (1 + (-t).exp())),
                        lambda c, p, t: (lambda s: s * (1 - s) * (1 - 6 * s + 6 * s * s))(1 / (1 + (-t).exp()))),
    "sqrt(1 + exp(x))": ((-1.0, 1.0),
                         lambda c, p, t: (lambda e: e * (e * e + 2 * e + 4) / (8 * (e + 1) ** D(2.5)))(t.exp()),
                         lambda c, p, t: (lambda e: e * (e ** 3 + 4 * e * e - 4 * e + 8)
                                          / (16 * (e + 1) ** D(3.5)))(t.exp())),
}


def _range_contains_reference(k, family, data, p, q, samples):
    # the f^(k) range of a cell, k = 2, 3, 4 or 6, holds the exact f^(k) at its
    # ends and at exact interior points: with the ulp per end that the
    # contract allows for a catalog family, and as returned for an
    # expression, whose interval ends are rounded outward
    if family in EXPRESSIONS:
        (a, b), *exact = EXPRESSIONS[family]
        c, e = data.draw(st.floats(0.5, 2.0)), data.draw(st.floats(1.5, 3.5))
        f = to_convex_function(family.format(c=c, p=e), Interval(a, b))
        dk, num, ulps = (lambda t: exact[k - 3](c, e, t)), Decimal, 0
    else:
        name, params, a, b, _ = data.draw(catalog_cases(family))
        if name == "power_p":  # f^(k) changes sign at p = 2, ..., k - 1 and monotonicity at p = k
            params = (data.draw(st.sampled_from((1.5, 2.5, 3.5, 4.5, 5.5, 6.5)[:k])) + data.draw(st.floats(-0.5, 0.5)),)
        num = number_type(name, params)
        f, dk, ulps = catalog(name, params, Interval(a, b)), derivative(name, params, num, k), 1
    u, v = sorted(a + (b - a) * s for s in (p, q))
    assume(u < v)
    rng = f._d2range(u, v)
    assume(rng is not None)  # a kink inside the cell
    lo, hi = rng[{2: 0, 3: 2, 4: 4, 6: 6}[k]:][:2]
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for s in (0, 1, *samples):
            t = num(u) + (num(v) - num(u)) * num(s.numerator) / num(s.denominator)
            t = min(max(t, num(u)), num(v))  # rounded to DIGITS, t may leave the cell
            assert lo <= dk(t) <= hi, (f.label, u, v, t)


@pytest.mark.parametrize("family", CATALOG_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_second_derivative_range_contains_reference(family, data, p, q, samples):
    _range_contains_reference(2, family, data, p, q, samples)


@pytest.mark.parametrize("family", [*CATALOG_NAMES, *EXPRESSIONS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_third_derivative_range_contains_reference(family, data, p, q, samples):
    _range_contains_reference(3, family, data, p, q, samples)


@pytest.mark.parametrize("family", [*CATALOG_NAMES, *EXPRESSIONS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_fourth_derivative_range_contains_reference(family, data, p, q, samples):
    _range_contains_reference(4, family, data, p, q, samples)


@pytest.mark.parametrize("family", CATALOG_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_sixth_derivative_range_contains_reference(family, data, p, q, samples):
    _range_contains_reference(6, family, data, p, q, samples)


@pytest.mark.parametrize("family", CATALOG_NAMES)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), s=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_slopes_contain_reference(family, data, s):
    # both raw slope oracles, f'+ on [a, b) and f'- on (a, b], at the ends,
    # the kink, t = 0 where the domain holds it and drawn points, against the
    # exact f'+ and f'-: within an ulp, two for t^p, whose power and product
    # each round, and ulp(ln t) + ulp(f') for ln t + 1, which rounds twice;
    # an infinite slope is the exact one rounded, as -1/t past the float range
    name, params, a, b, _ = data.draw(catalog_cases(family))
    f = catalog(name, params, Interval(a, b))
    num = number_type(name, params)
    ts = {a, b, *(min(a + (b - a) * x, b) for x in s), *(params[1:] if name == "kink" else ())}
    if a <= 0.0 <= b:
        ts.add(0.0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for t in ts:
            for side, oracle in ((1, f.dplus), (-1, f.dminus)):
                if t == (b if side > 0 else a):
                    continue
                got, exact = oracle(t), derivative(name, params, num, 1, side)(num(t))
                if math.isinf(got):
                    assert got == float(exact), (f.label, t, side)
                    continue
                allowance = num(math.ulp(got)) * (2 if name == "power_p" else 1)
                if name == "xlogx":
                    allowance += num(math.ulp(math.log(t)))
                assert abs(num(got) - exact) <= allowance, (f.label, t, side, got)


@pytest.mark.parametrize("family", CATALOG_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_third_derivative_at_a_point_contains_reference(family, data, s):
    # an adaptive cell reads f''' at its ends and midpoint as the range of
    # the cell (x, x): it holds the exact f''' there with the ulp per end
    # that the contract allows; at t = 0 that is -inf for -ln t and t ln t
    name, params, a, b, _ = data.draw(catalog_cases(family))
    x = min(a + (b - a) * s, b)
    lo, hi = catalog(name, params, Interval(a, b))._d2range(x, x)[2:4]
    num = number_type(name, params)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        assert math.nextafter(lo, -math.inf) <= derivative(name, params, num, 3)(num(x)) <= math.nextafter(hi, math.inf)


@pytest.mark.parametrize("name, params, lo, hi", [
    ("neg_log", (), 120.0 * 2.0 ** 6, math.inf),
    ("xlogx", (), 24.0 * 2.0 ** 5, math.inf),
    ("power_p", (2.5,), -math.inf, -3.515625 * 2.0 ** 3.5),
])
@pytest.mark.parametrize("u", [0.0, 1e-100])
def test_sixth_derivative_range_at_zero_and_overflow(name, params, lo, hi, u):
    # on [u, 1/2], at t = 0 and where 1/t^6 or t^(p - 6) overflows, the f^(6)
    # range of -ln t, t ln t and t^2.5 is infinite at one end and holds the
    # exact value at 1/2, within 2^-40 of it, at the other
    rng = catalog(name, params, Interval(0.0, 1.0))._d2range(u, 0.5)[6:8]
    assert rng[0] <= lo and hi <= rng[1]
    end = rng[1] if lo == -math.inf else rng[0]
    assert rng == ((-math.inf, end) if lo == -math.inf else (end, math.inf))
    assert abs(end - (hi if lo == -math.inf else lo)) <= 2.0 ** -40 * abs(end)


def _power_range_holds(p, u, v, samples):
    # f'', f''', f'''' and f^(6) of t^p on [u, v] hold (p)_k t^(p-k) at the
    # cell's ends and at exact interior points, with no allowance; an order
    # whose p - k rounds is (-inf, inf)
    rng = catalog("power_p", (p,), Interval(0.0, v))._d2range(u, v)
    assert rng[0] >= 0.0, rng
    num = number_type("power_p", (p,))
    for i, k in enumerate((2, 3, 4, 6)):
        lo, hi = rng[2 * i:2 * i + 2]
        if math.fsum((p, -k, k - p)):
            assert (lo, hi) == (-math.inf, math.inf)
            continue
        dk = derivative("power_p", (p,), num, k)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            for s in (0, 1, *samples):
                t = min(max(num(u) + (num(v) - num(u)) * num(s.numerator) / num(s.denominator), num(u)), num(v))
                assert lo <= dk(t) <= hi, (p, u, v, k, t)
    return rng


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.sampled_from((1.0, 2.0, 3.0, 4.0, 1.7)), st.floats(1.0, 5.0)),
       u=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), w=st.floats(1e-6, 2.0),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_power_range_contains_reference_at_zero_slack(p, u, w, samples):
    _power_range_holds(p, u, u + w, samples)


def test_power_range_bounds_rounded_exponent_and_overflow():
    # 1.7 - 4 rounds, so the f'''' range of t^1.7 is unbounded
    assert _power_range_holds(1.7, 0.0, 0.5, ())[4:6] == (-math.inf, math.inf)
    # t^2.5 overflows at both ends of the cell: f'' takes its bound and does not raise
    assert _power_range_holds(4.5, 1e150, 1e200, ())[1] == math.inf
    # 1 + 2^-51 - 6 rounds and 1 + 2^-51 - 4 does not: f^(6) alone is unbounded
    rng = _power_range_holds(1.0 + 2.0 ** -51, 0.25, 0.5, ())
    assert -math.inf < rng[4] <= rng[5] < math.inf and rng[6:] == (-math.inf, math.inf)


def _faithful_pow(s):
    """t^e for ``funcs._pow``, the float next to the exact value towards s
    (0.0 or inf): faithful, and one ulp inward of the correctly rounded value
    where that lies on the other side."""
    correct = funcs._pow

    def pow_(t, e):
        r = correct(t, e)
        if t == 0.0 or r == math.inf:
            return r
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(t) ** Decimal(e)
        return math.nextafter(r, s) if (Decimal(r) > x if s == 0.0 else Decimal(r) < x) else r

    return pow_


@settings(max_examples=300, deadline=None)
@given(s=st.sampled_from((0.0, math.inf)), p=st.one_of(st.floats(1.0, 7.0), st.integers(10, 70).map(lambda n: n / 10)),
       u=st.floats(0.01, 2.0), w=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
       samples=st.lists(st.fractions(0, 1), max_size=4))
def test_power_range_contains_reference_under_faithful_pow(s, p, u, w, samples):
    # with a power rounded the wrong way by its faithful libm the orders of
    # t^p still hold (p)_k t^(p-k) with no allowance, on cells and at points
    with mock.patch.object(funcs, "_pow", _faithful_pow(s)):
        _power_range_holds(p, u, u + w, samples)


@pytest.mark.parametrize("s, p, u, v", [
    (0.0, 2.5, 0.6565493033084296, 0.6565493033084296),  # f'''' hi, without its last outward step
    (math.inf, 7.0, 1.945712154168544, 1.945712154168544),  # f'' lo, without its last outward step
    (0.0, 5.466176062671997, 1.934264244746164, 1.9528572165300808),  # f'' hi, with (p)_2 rounded to nearest
    (math.inf, 4.7, 1.0385668726902733, 1.0385668726902733),  # f^(6), with (p)_6 rounded to nearest
])
def test_power_range_needs_each_outward_step(s, p, u, v):
    # cells where the power range would miss (p)_k t^(p-k) under a faithful
    # pow rounded the wrong way, without the step named
    with mock.patch.object(funcs, "_pow", _faithful_pow(s)):
        _power_range_holds(p, u, v, ())


@pytest.mark.parametrize("name, params, a, b, eps", [
    ("exp", (), 0.0, 1.0, 1e-14),
    ("exp", (), 0.0, 1.0, 1e-13),
    ("xlogx", (), 0.5, 2.0, 1e-13),
    ("neg_log", (), 0.5, 2.0, 1e-13),
    ("power_p", (2.5,), 0.0, 1.0, 1e-13),
])
def test_converged_width_within_eps(name, params, a, b, eps):
    # the running width that stops the loop leaves out the rounding
    # allowance; a converged run still reports an integral no wider than eps
    res = adaptive_integrate(catalog(name, params, Interval(a, b)), eps)
    assert res.converged and res.integral.width <= eps
    assert res.integral.lo <= exact_integral(name, params, a, b) <= res.integral.hi


@pytest.mark.parametrize("eps", [1e-8, 1e-12])
@pytest.mark.parametrize("b", [1.0, 0.3])
def test_unbounded_third_derivative_keeps_second_order_cell(b, eps):
    # f''' = 1.875 t^-0.5 and f'''' = -0.9375 t^-1.5 of t^2.5 are unbounded
    # at 0, so the first cell keeps the f'' bracket of its halves; it and the
    # run enclose at zero slack
    f = catalog("power_p", (2.5,), Interval(0.0, b))
    d2 = f._d2range(0.0, b)
    assert d2[1] < math.inf == d2[3] == -d2[4]
    m = 0.5 * b
    samples = (0.0, m, b, f(0.0), f(m), f(b), f.d_plus(0.0), f.d_minus(m), f.d_plus(m), f.d_minus(b))
    lo, hi = _corrected_bracket(*samples, d2)
    assert (lo, hi) == _corrected_bracket(*samples, d2[:2] + (-math.inf, math.inf) * 2)
    exact = reference("power_p", (2.5,), lambda f, F, num: (f(num(0.0)) + f(num(b))) * num(b) / 2
                      - (F(num(b)) - F(num(0.0))), b)
    assert lo <= exact <= hi
    res = adaptive_integrate(f, eps, max_cells=200_000)
    assert res.converged
    assert res.integral.lo <= exact_integral("power_p", (2.5,), 0.0, b) <= res.integral.hi


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
    name, params, _ = DEFAULT_SPECS[idx]
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
    name, params, _ = DEFAULT_SPECS[idx]
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


#: the corpus, and powers whose f^(6) is unbounded at 0 (2.5) or not (6.5)
EULER_MACLAURIN_SPECS = [*DEFAULT_SPECS, ("power_p", (2.5,), Interval(0.0, 1.0)),
                         ("power_p", (6.5,), Interval(0.0, 1.0))]


@pytest.mark.parametrize("name, params, domain", EULER_MACLAURIN_SPECS,
                         ids=[catalog(*spec).label for spec in EULER_MACLAURIN_SPECS])
def test_one_cell_euler_maclaurin_bracket_contains_integral(name, params, domain):
    # one cell of width (b - a)/2^j at a multiple of it, j up to 40, its ends
    # exact floats: where its f^(6) range is finite it is bracketed with
    # f''' at its ends and midpoint, and that one-cell run must hold the
    # integral with no slack
    f = catalog(name, params, domain)
    a, b = domain.a, domain.b
    rng = random.Random(f"{name}{params}")
    for _ in range(40):
        j = rng.randrange(41)
        h = (b - a) / 2 ** j
        u = a + h * rng.randrange(2 ** j)
        res = adaptive_integrate(dataclasses.replace(f, domain=Interval(u, u + h)), eps=1.0, max_cells=1)
        assert res.integral.lo <= exact_integral(name, params, u, u + h) <= res.integral.hi, (u, u + h)
