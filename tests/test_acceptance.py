"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS line (run with ``pytest -s`` to see them;
a failed assertion prints the corresponding FAIL line instead).
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from catalog_oracles import corpus_integral, default_catalog
from divergence_oracles import chi_squared

from trapbound.divergence import (
    GENERATOR_NAMES,
    DiscreteDistribution,
    divergence_report,
    generator_catalog,
)
from trapbound.expr import eval_expr, parse, to_convex_function, to_string
from trapbound.funcs import Interval, catalog
from trapbound.pointwise import _reference_integral, gap_enclosure, hh_bounds
from trapbound.probability import (
    continuous_density,
    expectation_enclosure,
    piecewise_constant_density,
)
from trapbound.quadrature import (
    adaptive_integrate,
    generalized_trapezoid,
    integrate,
    remainder_enclosure,
    uniform_partition,
)


def report(n, name, ok):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d} ({name}): {status}", flush=True)
    assert ok, f"criterion {n} ({name}) failed"


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


def test_criterion_1_sharpness_equalities(rng):
    ok = True
    for _ in range(20):
        k = float(rng.uniform(1e-6, 10.0))
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(0.1, 5.0))
        m = 0.5 * (a + b)
        f = catalog("kink", (k, m), Interval(a, b))
        enc = gap_enclosure(f, m)
        expected = 0.25 * k * (b - a) ** 2
        for value in (enc.lo, enc.hi):
            ok = ok and abs(value - expected) <= 1e-12 * max(1.0, expected)
        # the certified integral holds the kink's exact integral
        enc = _reference_integral(f).integral
        exact = Fraction(k) * ((Fraction(m) - Fraction(a)) ** 2 + (Fraction(b) - Fraction(m)) ** 2) / 2
        ok = ok and enc.lo <= exact <= enc.hi
    report(1, "sharpness equalities at the midpoint kink", ok)


def test_criterion_2_sandwich_suite(rng):
    ok = True
    for i, f in enumerate(default_catalog()):
        a, b = f.domain.a, f.domain.b
        true_integral = corpus_integral(i)
        for u in rng.uniform(0.0, 1.0, size=200):
            x = a + (b - a) * (1e-9 + (1 - 2e-9) * float(u))
            g = (x - a) * f(a) + (b - x) * f(b) - true_integral
            enc = gap_enclosure(f, x)
            ok = ok and enc.lo <= g + 1e-9
            ok = ok and g <= enc.hi + 1e-9
    report(2, "two-sided gap sandwich on catalog x 200 points", ok)


def test_criterion_3_hh_defect_bounds():
    ok = True
    for i, f in enumerate(default_catalog()):
        enc = hh_bounds(f)
        a, b = f.domain.a, f.domain.b
        defect = 0.5 * (f(a) + f(b)) - corpus_integral(i) / (b - a)
        ok = ok and enc.lo - 1e-9 <= defect <= enc.hi + 1e-9
    kink = hh_bounds(catalog("kink", (1.0, 0.5)))
    ok = ok and abs(kink.lo - 0.25) <= 1e-12 and abs(kink.hi - 0.25) <= 1e-12
    linear = hh_bounds(catalog("linear", (2.0, -1.0)))
    ok = ok and linear.lo == 0.0 and linear.hi == 0.0
    report(3, "Hermite-Hadamard defect bounds with kink/linear equalities", ok)


def test_criterion_4_composite_containment_and_order():
    f = catalog("exp")
    truth = math.e - 1.0
    ok = True
    widths = {}
    for n in (1, 2, 4, 8, 16, 32):
        res = integrate(f, uniform_partition(f.domain, n))
        ok = ok and res.integral.contains(truth)
        widths[n] = res.integral.width
    for n in (8, 16):
        ratio = widths[2 * n] / widths[n]
        ok = ok and abs(ratio - 0.25) <= 0.05
    res4 = integrate(f, uniform_partition(f.domain, 4))
    ok = ok and 1.71379 <= res4.integral.lo and res4.integral.hi <= 1.72723
    report(4, "composite enclosures contain e-1 with second-order width", ok)


def test_criterion_5_adaptive_integrator():
    cases = [
        (catalog("exp"), math.e - 1.0),
        (catalog("xlogx", (), Interval(0.0, 1.0)), -0.25),
        (catalog("quadratic"), 1.0 / 3.0),
    ]
    ok = True
    for f, truth in cases:
        res = adaptive_integrate(f, eps=1e-6, max_cells=10_000)
        ok = ok and res.converged
        ok = ok and res.integral.width <= 1e-6
        ok = ok and res.integral.contains(truth)
        ok = ok and res.cells <= 10_000
    report(5, "adaptive integration to width 1e-6 within 10^4 cells", ok)


def test_criterion_6_specialization_identity():
    # the paper's trapezoid corollary, cells of width h_i and midpoints m_i:
    # (1/8) sum [f'+(m_i) - f'-(m_i)] h_i^2 <= S_n <= (1/8) sum [f'-(x_{i+1}) - f'+(x_i)] h_i^2
    ok = True
    for f in default_catalog():
        for n in (1, 2, 3, 4, 8, 16, 32):
            P = uniform_partition(f.domain, n)
            rem = remainder_enclosure(f, P)
            lo = sum((v - u) ** 2 * (f.d_plus(m) - f.d_minus(m)) for u, v, m in P.cells()) / 8
            hi = sum((v - u) ** 2 * (f.d_minus(v) - f.d_plus(u)) for u, v, _ in P.cells()) / 8
            ok = ok and abs(rem.lo - lo) <= 1e-12
            ok = ok and abs(rem.hi - hi) <= 1e-12
    report(6, "composite bracket at midpoint xi is the paper's 1/8 form", ok)


def test_criterion_7_expectation_enclosures():
    # the paper's values, with the exact mass 1 of each density given; the
    # mean of 4t, whose mass 2 is bracketed, is that of 2t
    unit = Interval(0.0, 1.0)
    ok = True
    tri = expectation_enclosure(
        continuous_density(unit, lambda t: 2.0 * t, "2t"), 0.5, (1.0, 1.0)
    )
    ok = ok and abs(tri.lo - 0.5) <= 1e-12 and abs(tri.hi - 0.75) <= 1e-12
    ok = ok and tri.lo <= 2.0 / 3.0 <= tri.hi
    quad = expectation_enclosure(continuous_density(unit, lambda t: 4.0 * t, "4t"), unit.midpoint)
    ok = ok and quad.lo <= 2.0 / 3.0 <= quad.hi <= tri.hi + 1.0 / 64
    flat = expectation_enclosure(continuous_density(unit, lambda t: 1.0, "uniform"), unit.midpoint)
    ok = ok and abs(flat.lo - 0.5) <= 1e-12 and abs(flat.hi - 0.5) <= 1e-12
    step = expectation_enclosure(
        piecewise_constant_density(unit, (0.0, 0.5), (0.0, 2.0), "step"), 0.5, (1.0, 1.0)
    )
    ok = ok and abs(step.lo - 0.75) <= 1e-12 and abs(step.hi - 0.75) <= 1e-12
    report(7, "expectation enclosures for monotone densities", ok)


def test_criterion_8_divergence_closed_forms(rng):
    g2 = generator_catalog("chi_squared")
    ok = True
    pairs = []
    for _ in range(100):
        n = int(rng.integers(2, 51))
        w1 = rng.uniform(0.05, 1.0, size=n)
        w2 = rng.uniform(0.05, 1.0, size=n)
        p = DiscreteDistribution(tuple(w1 / w1.sum()))
        q = DiscreteDistribution(tuple(w2 / w2.sum()))
        pairs.append((p, q))
        x2 = chi_squared(p, q)
        rep = divergence_report(g2, p, q)
        ok = ok and abs(rep.csiszar - x2) <= 1e-10
        ok = ok and rep.hh.lo - 1e-10 <= x2 / 3.0 <= rep.hh.hi + 1e-10
        ok = ok and abs(rep.lin_wong - x2 / 4.0) <= 1e-10
    for name in GENERATOR_NAMES:
        g = generator_catalog(name)
        for p, q in pairs[:25]:
            rep = divergence_report(g, p, q)
            ok = ok and rep.holds
            true_gap = rep.half_csiszar - rep.hh.lo  # hh is a point: each generator has an antiderivative
            # slack: that reference is an unrounded point itself (ROADMAP items 3 and 13)
            ok = ok and rep.gap.contains(true_gap, slack=1e-9)
    p = DiscreteDistribution((0.5, 0.5))
    q = DiscreteDistribution((0.25, 0.75))
    rep = divergence_report(g2, p, q)
    ok = ok and abs(rep.lin_wong - 0.0625) <= 1e-7
    ok = ok and abs(rep.hh.lo - 0.0833333) <= 1e-6
    ok = ok and abs(rep.half_csiszar - 0.125) <= 1e-7
    genc = rep.gap
    ok = ok and genc.contains(0.125 - 0.25 / 3.0)
    ok = ok and abs(genc.lo - 0.0) <= 1e-12 and abs(genc.hi - 0.0625) <= 1e-7
    report(8, "divergence closed forms, sandwich, and gap bracket", ok)


def test_criterion_9_parser(rng):
    corpus = [
        "x", "42", "3.5", "1e3", "2.5e-2", "-x", "x + 1", "x - 1", "1 - x",
        "x * x", "x / 2", "x^2", "x^3", "x^2 + 2*x + 1", "2*x^2 - 3*x + 0.5",
        "-x^2", "2^-2", "(x + 1) * (x - 1)", "x - x^2 / 2", "exp(x)",
        "exp(-x)", "exp(2*x) + 1", "log(x + 2)", "-log(x + 1)", "sqrt(x + 1)",
        "x * log(x + 3)", "abs(x)", "abs(x - 0.5)", "2 * abs(x) + x^2",
        "exp(x) - log(x + 2) + x^4 / 4",
    ]
    kinks = {"abs(x)": 0.0, "abs(x - 0.5)": 0.5, "2 * abs(x) + x^2": 0.0}
    ok = len(corpus) == 30
    h = 1e-6

    def slopes_match(src, ts):
        tree = parse(src)
        f = to_convex_function(src, Interval(-1.0, 1.0))
        good = True
        for t in ts:
            t = float(t)
            if abs(t - kinks.get(src, math.inf)) < 1e-3:
                continue
            fd = (eval_expr(tree, t + h) - eval_expr(tree, t - h)) / (2 * h)
            for slope in (f.d_plus(t), f.d_minus(t)):
                good = good and abs(slope - fd) <= 1e-6 * max(1.0, abs(fd))
        return good

    for src in corpus:
        tree = parse(src)
        ok = ok and parse(to_string(tree)) == tree
        if src in kinks:
            continue
        ok = slopes_match(src, rng.uniform(-0.9, 0.9, size=20)) and ok
    for src in kinks:
        ok = slopes_match(src, rng.uniform(-0.9, 0.9, size=20)) and ok
    report(9, "expression corpus round trip and compiled one-sided slopes", ok)


def test_criterion_10_cli_determinism(tmp_path):
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    p.write_text("0.5\n0.5\n")
    q.write_text("0.25\n0.75\n")
    examples = [
        ["integrate", "--fn", "exp(x)", "--interval", "0", "1", "--eps", "1e-6"],
        ["gap", "--fn", "abs(x - 0.5)", "--interval", "0", "1", "--x", "0.5"],
        ["divergence", "--generator", "chi2", "--p", str(p), "--q", str(q)],
    ]
    ok = True
    outputs = []
    for argv in examples:
        cmd = [sys.executable, "-m", "trapbound"] + argv
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout
        outputs.append(json.loads(first.stdout) if first.returncode == 0 else {})
    if ok:
        integ, gap_rep, div_rep = outputs
        ok = ok and integ["integral"]["lo"] <= math.e - 1.0 <= integ["integral"]["hi"]
        ok = ok and integ["width"] <= 1e-6
        ok = ok and abs(gap_rep["lower"] - 0.25) <= 1e-9
        ok = ok and abs(gap_rep["upper"] - 0.25) <= 1e-9
        ok = ok and abs(div_rep["csiszar"] - 0.25) <= 1e-10
        ok = ok and abs(div_rep["hh"]["lo"] - 0.25 / 3.0) <= 1e-7
        ok = ok and div_rep["sandwich_holds"]
    report(10, "CLI examples reproduce bit-for-bit", ok)
