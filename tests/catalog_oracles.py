"""Exact references for the catalog families, and the catalog test corpus.

The references are the catalog's closed forms at the float endpoints and
parameters taken exactly: in ``fractions.Fraction`` where they are rational
(kink, quadratic, linear, constant, power_p with integer p), so that an exact
zero remainder stays zero, and otherwise in ``decimal`` to 50 significant
digits.  A cell of width h cancels about 3 log10(1/h) digits (the integral is
a difference of antiderivative values, the remainder a difference of the
rule and the integral), so the working precision starts above that and is
doubled until two runs agree.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from trapbound.funcs import Interval, catalog

DIGITS = 50

#: (name, params, domain) of one instance per catalog family, on intervals
#: where every endpoint derivative is finite
DEFAULT_SPECS = [
    ("kink", (1.0, 0.5), Interval(0.0, 1.0)),
    ("quadratic", (), Interval(0.0, 1.0)),
    ("exp", (), Interval(0.0, 1.0)),
    ("neg_log", (), Interval(0.5, 2.0)),
    ("xlogx", (), Interval(0.5, 2.0)),
    ("power_p", (3.0,), Interval(0.0, 1.0)),
    ("linear", (2.0, -1.0), Interval(0.0, 1.0)),
    ("constant", (5.0,), Interval(2.0, 3.0)),
]


def default_catalog():
    """The test corpus: the functions of ``DEFAULT_SPECS``, in order."""
    return [catalog(name, params, iv) for name, params, iv in DEFAULT_SPECS]


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


def derivative(name, params, num, k):
    """The k-th derivative, k = 2, 3 or 4, of a catalog family on ``num``
    arguments; -inf or inf at a singular t = 0."""
    if name == "exp":
        return lambda t: t.exp()
    if name == "neg_log":  # (-1)^k (k-1)!/t^k
        c = (-1) ** k * math.factorial(k - 1)
        return lambda t: c * t ** -k
    if name == "xlogx":  # (-1)^k (k-2)!/t^(k-1)
        c = (-1) ** k * math.factorial(k - 2)
        return lambda t: c * t ** (1 - k)
    if name == "power_p":  # p (p-1) ... (p-k+1) t^(p-k)
        p = num(params[0])
        c = math.prod(p - j for j in range(k))
        return lambda t: c * t ** (p - k) if c else c
    return lambda t: num(0)


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


def corpus_integral(idx):
    """The integral of ``default_catalog()[idx]`` over its domain, as the nearest float."""
    name, params, iv = DEFAULT_SPECS[idx]
    return float(exact_integral(name, params, iv.a, iv.b))
