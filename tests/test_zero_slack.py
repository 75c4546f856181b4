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
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trapbound.expr import to_convex_function
from trapbound.funcs import CATALOG_NAMES, Interval, catalog, default_catalog
from trapbound.quadrature import adaptive_integrate

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


@st.composite
def catalog_cases(draw):
    """(name, params, a, b, eps) over every catalog family."""
    name = draw(st.sampled_from(CATALOG_NAMES))
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
    return name, params, a, b, 10.0 ** -draw(st.integers(6, 11))


@settings(max_examples=200, deadline=None)
@given(case=catalog_cases())
def test_adaptive_enclosure_contains_reference(case):
    name, params, a, b, eps = case
    f = catalog(name, params, Interval(a, b))
    # a spent budget still has to enclose
    res = adaptive_integrate(f, eps, max_cells=5_000)
    assert res.integral.lo <= exact_integral(name, params, a, b) <= res.integral.hi


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


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
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
