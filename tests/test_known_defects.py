"""The ledger of known defects: one test per fast case under ROADMAP "Still wrong".

Each test asserts the correct outcome: an enclosure that holds an exact
``fractions`` or ``decimal`` reference of the float inputs at zero slack, a
faithful slope (the float next to its exact ``catalog_oracles.derivative``
on one side or the other), or the right exit code.  Each carries
``xfail(strict=True)`` with the ROADMAP item that would mend it.  A mend
makes its test pass, which strict mode reports as a failure until the
mending change deletes the marker.  A marker is only ever removed: none is
added to an existing test, and no case is narrowed until it passes.
``raises=AssertionError`` keeps an error in a test itself from counting as
the defect.

Left out:
- ``gap --fn "exp(x)" --interval 0 40 --x 20``, whose reference pass spends
  all 200,000 cells and takes 5.7 s (item 2);
- ``adaptive_integrate(catalog("exp"), 5e-15)``, which encloses e - 1 but
  spends all 10,000 cells: its correct outcome is a cell count that item 2
  has not fixed yet;
- the divergence reports' ``csiszar``, a point, not yet an enclosure
  (item 13), and ``kl`` on seeded near-equal pairs, for the same reason;
- ``integrate --fn "exp(x)" --interval 0 1 --n 7``, whose negative
  ``remainder.lo`` is loose but holds the remainder.
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from catalog_oracles import DIGITS, derivative, number_type

from trapbound.cli import main
from trapbound.divergence import DiscreteDistribution, divergence_report, generator_catalog
from trapbound.funcs import Interval, catalog
from trapbound.quadrature import adaptive_integrate


def defect(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def run(capsys, *argv):
    """``(exit code, the JSON report or None, stderr)`` of one command."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == 0 else None, err


def encloses(lo, hi, exact) -> bool:
    """lo <= exact <= hi with no rounding; lo and hi are floats, or their text where infinite."""
    lo, hi, exact = float(lo), float(hi), Fraction(exact)
    return (lo == -math.inf or Fraction(lo) <= exact) and (hi == math.inf or exact <= Fraction(hi))


def cli_integral(capsys, *argv):
    code, report, err = run(capsys, *argv)
    assert code == 0, err
    return report["integral"]


@defect("ROADMAP item 1")
def test_bump_is_refuted(capsys):
    # benchmark defect (c): not convex near 0.505, yet certified from 101 samples
    code, _, _ = run(capsys, "integrate", "--fn", "x^2 + exp(-((x - 0.505)/0.001)^2)", "--interval", "0", "1",
                     "--n", "10")
    assert code == 2


@defect("ROADMAP items 1 and 17")
def test_slightly_decreasing_density_is_refused(capsys):
    code, _, _ = run(capsys, "check", "--density", "1 - 1e-12*x", "--interval", "0", "1")
    assert code == 2


@defect("ROADMAP item 17")
def test_steep_density_is_valid(capsys):
    # the mass walk widens both sums by (n + 2)u/(1 - (n + 2)u) max|f| (b - a) = 4.5e-13,
    # which takes the lower end below 0 from a lower sum of 6.1e-15
    code, r, err = run(capsys, "check", "--density", "exp(100000*(x - 1))", "--interval", "0", "1")
    assert code == 0, err
    assert r["density"]["valid"] is True
    with localcontext() as ctx:
        ctx.prec = 50
        exact = (1 - Decimal(-100000).exp()) / 100000
    assert encloses(*r["density"]["mass_bracket"], exact)


@defect("ROADMAP item 2")
def test_cancellation_is_enclosed(capsys):
    a, b = Fraction(0.99999), Fraction(1.00001)
    e = cli_integral(capsys, "integrate", "--fn", "x^2 - 2*x + 1", "--interval", "0.99999", "1.00001",
                     "--eps", "1e-25")
    assert encloses(e["lo"], e["hi"], ((b - 1) ** 3 - (a - 1) ** 3) / 3)


@defect("ROADMAP item 2")
def test_decay_on_a_huge_interval_converges(capsys):
    # the integral 1 - exp(-1e160) lies between 1 and the float below it: lo < 1 <= hi encloses it
    e = cli_integral(capsys, "gap", "--fn", "exp(-x)", "--interval", "0", "1e160", "--x", "5e159")
    assert e["converged"] is True
    assert float(e["lo"]) < 1 <= float(e["hi"])


@defect("ROADMAP item 2")
@pytest.mark.parametrize("name, params, t", [
    ("xlogx", (), 0.36787944117144233),  # ln t + 1 cancels to 0.0; the exact f' is 3.378e-17
    ("power_p", (3.0,), 0.7837397964431156),  # 3 t^2 rounds in the power and the product: 1.249 ulps off
    # t^(p - 1) is subnormal, so its error of up to one subnormal ulp is multiplied by p: 1.47 ulps off
    ("power_p", (2.0384,), 2.2250738585072014e-308),
], ids=["xlogx", "power_p", "power_p-subnormal"])
def test_catalog_slope_is_faithful(name, params, t):
    # the exact f'+ lies strictly between the float neighbours of the slope read, as ConvexFunction assumes
    got = catalog(name, params).dplus(t)
    num = number_type(name, params)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        exact = derivative(name, params, num, 1)(num(t))
    assert num(math.nextafter(got, -math.inf)) < exact < num(math.nextafter(got, math.inf))


@defect("ROADMAP item 4")
def test_linear_at_one_cell(capsys):
    e = cli_integral(capsys, "integrate", "--fn", "2*x", "--interval", "0.3", "0.7", "--n", "1")
    assert encloses(e["lo"], e["hi"], Fraction(0.7) ** 2 - Fraction(0.3) ** 2)


@defect("ROADMAP item 4")
@pytest.mark.parametrize("rule", ["left", "midpoint", "right"])
def test_square_far_from_zero_at_one_cell(capsys, rule):
    a, b = Fraction(100000), Fraction(100000.001)
    e = cli_integral(capsys, "integrate", "--fn", "x^2", "--interval", "100000", "100000.001", "--n", "1",
                     "--xi-rule", rule)
    assert encloses(e["lo"], e["hi"], (b ** 3 - a ** 3) / 3)


@defect("ROADMAP item 4")
def test_hh_of_x_log_x_on_adjacent_floats(capsys):
    # the bracket inverts by rounding and its hull [-2.5e-32, 0] misses the defect 5.07e-33
    a, b = 3.2391683954526127, 3.239168395452613
    code, r, err = run(capsys, "hh", "--fn", "x*log(x)", "--interval", repr(a), repr(b))
    assert code == 0, err
    with localcontext() as ctx:
        ctx.prec = 120
        a, b = Decimal(a), Decimal(b)
        antiderivative = [t * t / 2 * t.ln() - t * t / 4 for t in (a, b)]
        exact = (a * a.ln() + b * b.ln()) / 2 - (antiderivative[1] - antiderivative[0]) / (b - a)
    assert encloses(r["lower"], r["upper"], exact)


@defect("ROADMAP item 4")
@pytest.mark.parametrize("command", ["hh", "gap", "integrate"])
def test_x_to_the_1_5_below_1e_163(capsys, command):
    # the weights (b - a)^2/4 underflow to 0; the HH defect 3.16e-246 is a normal float, and the
    # gap and the integral, near 1e-408, need outward rounding to the least subnormal
    argv = {"hh": (), "gap": ("--x", "5e-164"), "integrate": ("--n", "1")}[command]
    code, r, err = run(capsys, command, "--fn", "x^1.5", "--interval", "0", "1e-163", *argv)
    assert code == 0, err
    with localcontext() as ctx:
        ctx.prec = 60
        b, x = Decimal(1e-163), Decimal(5e-164)
        power = b * b.sqrt()  # b^1.5
        integral = power * b / Decimal("2.5")
        exact = {"hh": power / 10, "gap": (b - x) * power - integral, "integrate": integral}[command]
    lo, hi = (r["integral"]["lo"], r["integral"]["hi"]) if command == "integrate" else (r["lower"], r["upper"])
    assert encloses(lo, hi, exact)


@defect("ROADMAP item 17")
def test_inverted_bracket_on_a_small_interval_is_refused(capsys):
    # on [0, 1] the same inversion exits 2; the absolute floor 1.0 of the tolerance hides it here
    code, _, _ = run(capsys, "integrate", "--fn=-x^2", "--interval", "0", "1e-3", "--n", "1", "--allow-nonconvex")
    assert code == 2


@defect("ROADMAP items 3 and 13")
def test_hellinger_hh_of_near_equal_pairs():
    p, q = (0.3, 0.7), (0.3 + 3e-13, 0.7 - 3e-13)
    hh = divergence_report(generator_catalog("hellinger"), DiscreteDistribution(p), DiscreteDistribution(q)).hh
    with localcontext() as ctx:
        ctx.prec = 100

        def F(u):  # the antiderivative of (sqrt(u) - 1)^2
            return u * u / 2 - 4 * u * u.sqrt() / 3 + u

        exact = sum(pi * pi / (qi - pi) * (F(qi / pi) - F(Decimal(1)))
                    for pi, qi in zip(map(Decimal, p), map(Decimal, q)))
    assert encloses(hh.lo, hh.hi, exact)


@defect("ROADMAP items 3 and 13")
def test_tv_hh_with_a_zero_mass_point():
    p, q = (0.0, 0.5, 0.5), (0.2, 0.4, 0.4)
    hh = divergence_report(generator_catalog("tv"), DiscreteDistribution(p), DiscreteDistribution(q)).hh

    def F(u):  # the antiderivative of |u - 1| from 1
        return (u - 1) * abs(u - 1) / 2

    # a point with p = 0 < q adds the limit q/2 of its term
    exact = sum(pi * pi / (qi - pi) * F(qi / pi) if pi else qi / 2
                for pi, qi in zip(map(Fraction, p), map(Fraction, q)))
    assert encloses(hh.lo, hh.hi, exact)


@defect("ROADMAP item 3")
def test_kl_with_q_zero_is_answered(capsys, tmp_path):
    # benchmark defect (d): the term takes its limit, and its gap term p/4 is finite
    p, q = tmp_path / "p.csv", tmp_path / "q.json"
    p.write_text("0.1\n0.2\n0.3\n0.4\n")
    q.write_text("[0.5, 0.5, 0.0, 0.0]")
    code, r, err = run(capsys, "divergence", "--generator", "kl", "--p", str(p), "--q", str(q))
    assert code == 0, err
    assert math.isfinite(float(r["gap"]["hi"]))


@defect("ROADMAP item 15")
def test_neg_log_with_a_singular_end_converges():
    # benchmark defect (a): the integral 0.7 - 0.7 log 0.7 is finite, but one cell gives up at (-inf, inf)
    result = adaptive_integrate(catalog("neg_log", (), Interval(0.0, 0.7)), 1e-8)
    with localcontext() as ctx:
        ctx.prec = 60
        b = Decimal(0.7)
        exact = b - b * b.ln()
    assert result.converged
    assert encloses(result.integral.lo, result.integral.hi, exact)


@defect("ROADMAP items 5 and 15")
@pytest.mark.parametrize("fn, exact", [("x*log(x)", Fraction(-1, 4)), ("-log(x)", Fraction(1))],
                         ids=["xlogx", "neg_log"])
def test_expression_with_a_singular_end_integrates(capsys, fn, exact):
    # benchmark defect (b): "log of nonpositive value 0.0" exits 1
    e = cli_integral(capsys, "integrate", f"--fn={fn}", "--interval", "0", "1")
    assert encloses(e["lo"], e["hi"], exact)
