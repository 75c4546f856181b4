import dataclasses
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from catalog_oracles import corpus_integral, default_catalog, exact_integral
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from trapbound.expr import to_convex_function
from trapbound.funcs import ConvexFunction, DomainError, EvaluationError, Interval, NonConvexityError, catalog
from trapbound.pointwise import Enclosure, _midpoint_bracket, _reference_integral
from trapbound.quadrature import (
    _BETA,
    _DELTA,
    Partition,
    _adaptive_cell,
    _corrected_bracket,
    adaptive_integrate,
    generalized_trapezoid,
    integrate,
    remainder_enclosure,
    uniform_partition,
)

EXP = catalog("exp")
QUAD = catalog("quadratic")
KINK = catalog("kink", (1.0, 0.5))


#: e^t + |t - 0.3| + 2|t - 0.7|, curved between its breaks, so that a run
#: bisects after its start; its f'' range is e^t's where no break lies inside
TWO_BREAKS = ConvexFunction(
    Interval(0.0, 1.0), lambda t: math.exp(t) + abs(t - 0.3) + 2.0 * abs(t - 0.7),
    lambda t: math.exp(t) + (1.0 if t >= 0.3 else -1.0) + (2.0 if t >= 0.7 else -2.0),
    lambda t: math.exp(t) + (1.0 if t > 0.3 else -1.0) + (2.0 if t > 0.7 else -2.0),
    "e^t + |t - 0.3| + 2|t - 0.7|", _d2range=lambda u, v: None if u < 0.3 < v or u < 0.7 < v else EXP._d2range(u, v),
    _d3=EXP._d3, _breaks=(0.3, 0.7))


def trapezoid_oracle(f, n):
    # independent composite trapezoid value
    a, b = f.domain.a, f.domain.b
    h = (b - a) / n
    xs = [a + i * h for i in range(n + 1)]
    return h * (0.5 * f(xs[0]) + sum(f(x) for x in xs[1:-1]) + 0.5 * f(xs[-1]))


def assert_rounded_outward(res):
    # the documented relation: integral = [gn - hi, gn - lo], rounded outward
    assert res.integral.lo == math.nextafter(res.gn - res.remainder.hi, -math.inf)
    assert res.integral.hi == math.nextafter(res.gn - res.remainder.lo, math.inf)


def with_third_reads(f, read):
    """f with ``read(x)`` called at each read of f''' at a point x, whether
    through the point oracle ``_d3`` or through the range oracle at (x, x)."""
    d2range, d3 = f._d2range, f._d3

    def counted_range(u, v):
        if u == v:
            read(u)
        return d2range(u, v)

    def counted_d3(x):
        read(x)
        return d3(x)

    return dataclasses.replace(f, _d2range=d2range and counted_range, _d3=d3 and counted_d3)


def first_cell(f):
    """The kernel's entry for the whole domain of f as one cell."""
    a, b = f.domain.a, f.domain.b
    return _adaptive_cell(f, a, b, f(a), f(b), f.d_plus(a), f.d_minus(b), {})


def assert_one_cell_result(res, cell):
    # a one-cell result is the cell's bracket widened by the documented
    # rounding allowance of t = (f(u) + f(v))/2 (v - u) and of gn, rounded outward
    _, u, v, t, lo, hi, fu, fv = cell[:8]
    err = math.nextafter(math.fsum([math.ulp(t), 4.0 * math.ulp(t) + (v - u) * (math.ulp(fu) + math.ulp(fv))]),
                         math.inf)
    assert res.cells == 1 and res.gn == t
    assert res.remainder.lo == math.nextafter(math.fsum([-err, lo]), -math.inf)
    assert res.remainder.hi == math.nextafter(math.fsum([err, hi]), math.inf)
    assert_rounded_outward(res)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((0.0,), ())
        with pytest.raises(ValueError):
            Partition((0.0, 0.0), (0.0,))
        with pytest.raises(ValueError):
            Partition((0.0, 1.0), (1.5,))
        with pytest.raises(ValueError):
            Partition((0.0, 1.0), (0.2, 0.8))

    def test_uniform_rules(self):
        iv = Interval(0.0, 1.0)
        mid = uniform_partition(iv, 4)
        assert mid.n == 4
        assert mid.xi == (0.125, 0.375, 0.625, 0.875)
        assert uniform_partition(iv, 2, "left").xi == (0.0, 0.5)
        assert uniform_partition(iv, 2, "right").xi == (0.5, 1.0)
        # other intermediate points make a Partition directly
        explicit = Partition(uniform_partition(iv, 2).points, (0.1, 0.9))
        assert explicit.xi == (0.1, 0.9)
        with pytest.raises(ValueError):
            uniform_partition(iv, 0)
        for rule in ("center", (0.1, 0.9)):
            with pytest.raises(ValueError):
                uniform_partition(iv, 2, rule)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_wide_interval_midpoints_lie_in_their_cells(self, n):
        # u + v overflows above 9e307: the midpoint 0.5 (u + v) was inf
        P = uniform_partition(Interval(1e308, 1.7e308), n)
        assert all(u < x < v for u, v, x in P.cells())


class TestGeneralizedTrapezoid:
    def test_midpoint_is_trapezoid_rule(self):
        for n in (1, 3, 7):
            P = uniform_partition(EXP.domain, n)
            assert generalized_trapezoid(EXP, P) == pytest.approx(
                trapezoid_oracle(EXP, n), rel=1e-14
            )

    def test_left_xi_is_right_riemann(self):
        # with xi at the left endpoint only the f(x_{i+1}) terms survive
        P = uniform_partition(QUAD.domain, 4, "left")
        expected = 0.25 * sum(QUAD(x) for x in (0.25, 0.5, 0.75, 1.0))
        assert generalized_trapezoid(QUAD, P) == pytest.approx(expected, rel=1e-14)

    def test_partition_must_cover_domain(self):
        P = Partition((0.0, 0.5), (0.25,))
        with pytest.raises(DomainError):
            generalized_trapezoid(EXP, P)

    def test_partition_ends_must_be_the_domain_ends(self):
        # a start 1e-13 inside [0, 1] would leave out the integral over
        # [0, 1e-13] and report an enclosure that misses 1
        f = catalog("linear", (1.0, 0.0), Interval(0.0, 1.0))
        for points in ((1e-13, 1.0), (0.0, 1.0 - 1e-13)):
            with pytest.raises(DomainError):
                integrate(f, Partition(points, (0.5,)))


class TestRemainderEnclosure:
    def test_exp_n4_upper(self):
        P = uniform_partition(EXP.domain, 4)
        rem = remainder_enclosure(EXP, P)
        assert rem.hi == pytest.approx(0.125 * 0.25 ** 2 * (math.e - 1.0), rel=1e-13)
        assert rem.lo == 0.0

    def test_kink_single_cell_exact(self):
        P = uniform_partition(KINK.domain, 1)
        rem = remainder_enclosure(KINK, P)
        assert rem.lo == rem.hi == pytest.approx(0.25, abs=1e-15)

    def test_containment_across_refinements(self, test_catalog):
        for i, f in enumerate(test_catalog):
            true = corpus_integral(i)
            for n in (1, 2, 4, 8, 16, 32):
                P = uniform_partition(f.domain, n)
                gn = generalized_trapezoid(f, P)
                rem = remainder_enclosure(f, P)
                assert rem.contains(gn - true), (f.label, n)

    def test_containment_non_midpoint(self, test_catalog, rng):
        for i, f in enumerate(test_catalog):
            true = corpus_integral(i)
            P = uniform_partition(f.domain, 8)
            xi = tuple(u + (v - u) * rng.uniform(0.0, 1.0) for u, v, _ in P.cells())
            Q = Partition(P.points, xi)
            gn = generalized_trapezoid(f, Q)
            rem = remainder_enclosure(f, Q)
            # slack until fixed-partition cells round outward (ROADMAP item 4)
            assert rem.lo - 1e-9 <= gn - true <= rem.hi + 1e-9, f.label

    def test_zero_weight_skips_infinite_derivative(self):
        f = catalog("neg_log", (), Interval(0.0, 1.0))  # f'+(0) = -inf
        # xi at the left endpoint of the first cell zero-weights the f'+(x0)
        # term of the upper bound, so hi stays finite; the lower bound still
        # carries f'+(xi_0) = -inf with nonzero weight and degenerates.
        P = uniform_partition(f.domain, 2, "left")
        rem = remainder_enclosure(f, P)
        assert math.isfinite(rem.hi)
        assert rem.lo == -math.inf

    def test_nonconvex_rejected(self):
        f = ConvexFunction(Interval(0.0, 3.0), math.sin, math.cos, math.cos, "sin")
        with pytest.raises(NonConvexityError):
            remainder_enclosure(f, uniform_partition(f.domain, 4))

    @pytest.mark.parametrize("rule", ["midpoint", "left", "right"])
    def test_infinite_endpoint_value_gives_trivial_enclosure(self, rule):
        # -log t is +inf at 0, so gn is inf (or 0 * inf = NaN with xi at 0)
        # and gn - remainder.hi is inf - inf
        f = catalog("neg_log", (), Interval(0.0, 2.0))
        res = integrate(f, uniform_partition(f.domain, 4, rule))
        assert res.integral == Enclosure(-math.inf, math.inf)
        assert res.cells == 4

    def test_additivity_under_refinement(self):
        # the bracket over a split cell is at most the unsplit bracket
        for f in (EXP, QUAD, KINK):
            coarse = remainder_enclosure(f, uniform_partition(f.domain, 4))
            fine = remainder_enclosure(f, uniform_partition(f.domain, 8))
            assert fine.hi <= coarse.hi + 1e-12, f.label
            assert fine.width <= coarse.width + 1e-12, f.label


class TestTrapezoidSpecialization:
    """At midpoint xi, ``remainder_enclosure`` is the paper's trapezoid
    corollary, the 1/8 form."""

    def test_telescoping_uniform_differentiable(self):
        # smooth f on a uniform grid: hi = (1/8) h^2 (f'(b) - f'(a)) exactly
        for f, dspan in ((EXP, math.e - 1.0), (QUAD, 2.0)):
            for n in (2, 5, 16):
                h = f.domain.width / n
                rem = remainder_enclosure(f, uniform_partition(f.domain, n))
                assert rem.hi == pytest.approx(0.125 * h * h * dspan, rel=1e-12), f.label

    def test_second_order_width(self):
        # doubling n shrinks the bracket width by about 4 for smooth f
        for f in (EXP, QUAD):
            prev = remainder_enclosure(f, uniform_partition(f.domain, 8)).width
            cur = remainder_enclosure(f, uniform_partition(f.domain, 16)).width
            assert cur / prev == pytest.approx(0.25, abs=0.05), f.label
        # and so does the width of the integral, each holding e - 1
        widths = {}
        for n in (1, 2, 4, 8, 16, 32):
            res = integrate(EXP, uniform_partition(EXP.domain, n))
            assert res.integral.contains(math.e - 1.0), n
            widths[n] = res.integral.width
        for n in (8, 16):
            assert widths[2 * n] / widths[n] == pytest.approx(0.25, abs=0.05), n

    def test_is_the_one_eighth_form_on_catalog(self, test_catalog):
        # (1/8) sum h_i^2 [f'+(m_i) - f'-(m_i)] <= S_n <= (1/8) sum h_i^2 [f'-(x_{i+1}) - f'+(x_i)]
        for f in test_catalog:
            for n in (1, 2, 3, 4, 8, 16, 32):
                P = uniform_partition(f.domain, n)
                rem = remainder_enclosure(f, P)
                lo = sum((v - u) ** 2 * (f.d_plus(m) - f.d_minus(m)) for u, v, m in P.cells()) / 8
                hi = sum((v - u) ** 2 * (f.d_minus(v) - f.d_plus(u)) for u, v, _ in P.cells()) / 8
                assert abs(rem.lo - lo) <= 1e-12 and abs(rem.hi - hi) <= 1e-12, (f.label, n)


def smooth_xi_lower(P, slope):
    # oracle: the paper's composite lower bound sum ((x_i + x_{i+1})/2 - xi_i)
    # h_i f'(xi_i) for f differentiable at each xi_i, exact
    total = Fraction(0)
    for u, v, x in P.cells():
        u, v, x = Fraction(u), Fraction(v), Fraction(x)
        total += ((u + v) / 2 - x) * (v - u) * slope(x)
    return total


class TestDifferentiableLower:
    """At xi where f is differentiable, the paper's composite lower bound is
    the lower side of ``remainder_enclosure``; exact at zero slack."""

    def test_midpoint_vanishes(self):
        P = uniform_partition(QUAD.domain, 4)
        assert remainder_enclosure(QUAD, P).lo == smooth_xi_lower(P, lambda t: 2 * t) == 0

    def test_left_xi_quadratic(self):
        P = uniform_partition(QUAD.domain, 2, "left")
        lower = remainder_enclosure(QUAD, P).lo
        assert lower == smooth_xi_lower(P, lambda t: 2 * t) == Fraction(1, 8)
        assert lower <= Fraction(generalized_trapezoid(QUAD, P)) - Fraction(1, 3)

    @pytest.mark.parametrize("c, rule", [(0.0, "left"), (1.0, "right")])
    def test_kink_at_domain_end_reads_the_side_there(self, c, rule):
        # xi on an end of the domain reads the one slope that exists there:
        # f'+(0) = 1 for the kink at 0, f'-(1) = -1 for the kink at 1
        f = catalog("kink", (1.0, c))
        P = uniform_partition(f.domain, 1, rule)
        assert remainder_enclosure(f, P).lo == smooth_xi_lower(P, lambda t: 1 - 2 * c) == 0.5

    def test_below_true_remainder_on_smooth(self, rng):
        # dyadic xi on dyadic cells: slopes, values and sums are exact floats
        for name, params, slope in (("quadratic", (), lambda t: 2 * t), ("power_p", (3.0,), lambda t: 3 * t * t)):
            f = catalog(name, params)
            P = uniform_partition(f.domain, 8)
            xi = tuple(u + (v - u) * rng.randrange(0, 9) / 8 for u, v, _ in P.cells())
            Q = Partition(P.points, xi)
            lower = remainder_enclosure(f, Q).lo
            assert lower == smooth_xi_lower(Q, slope), name
            assert lower <= Fraction(generalized_trapezoid(f, Q)) - exact_integral(name, params, 0.0, 1.0), name


class TestIntegrate:
    def test_exp_n4(self):
        res = integrate(EXP, uniform_partition(EXP.domain, 4))
        assert res.cells == 4
        assert res.converged
        assert res.gn == pytest.approx(trapezoid_oracle(EXP, 4), rel=1e-14)
        assert res.integral.contains(math.e - 1.0)
        assert res.integral.lo == pytest.approx(res.gn - res.remainder.hi, abs=1e-15)
        assert res.integral.hi == pytest.approx(res.gn - res.remainder.lo, abs=1e-15)
        assert 1.71379 <= res.integral.lo and res.integral.hi <= 1.72723

    def test_kink_single_cell_pins_integral(self):
        res = integrate(KINK, uniform_partition(KINK.domain, 1))
        assert res.integral.lo == res.integral.hi == pytest.approx(0.25, abs=1e-15)


class TestAdaptive:
    def test_exp_converges(self):
        res = adaptive_integrate(EXP, eps=1e-6)
        assert res.converged
        assert res.integral.width <= 1e-6
        assert res.integral.contains(math.e - 1.0)
        assert res.cells <= 10_000

    def test_xlogx_with_infinite_endpoint_derivative(self):
        f = catalog("xlogx", (), Interval(0.0, 1.0))  # f'+(0) = -inf
        res = adaptive_integrate(f, eps=1e-6)
        assert res.converged
        assert res.integral.width <= 1e-6
        assert res.integral.contains(-0.25)
        assert res.cells <= 10_000

    def test_quadratic_converges(self):
        res = adaptive_integrate(QUAD, eps=1e-6)
        assert res.converged
        assert res.integral.width <= 1e-6
        assert res.integral.contains(1.0 / 3.0)
        assert res.cells <= 10_000

    def test_exhausted_budget_still_encloses(self):
        res = adaptive_integrate(EXP, eps=1e-12, max_cells=4)
        assert not res.converged
        assert res.cells == 4
        assert res.integral.contains(math.e - 1.0)

    def test_wide_cells_are_bisected(self):
        # u + v overflows above 9e307: the midpoint 0.5 (u + v) was inf, so such
        # a cell had no float inside and was never bisected
        f = to_convex_function("exp(-1e-308*x)", Interval(1e308, 1.7e308))
        res = adaptive_integrate(f, eps=1e300)
        assert res.converged and res.cells > 1
        # the integral of exp(-c t) over [a, b] for the floats c, a and b, exact to 50 digits
        with localcontext() as ctx:
            ctx.prec = 50
            c, a, b = Decimal(1e-308), Decimal(1e308), Decimal(1.7e308)
            exact = ((-c * a).exp() - (-c * b).exp()) / c
        assert abs(exact - Decimal("1.85195917118707678e307")) < Decimal("1e290")
        assert Decimal(res.integral.lo) <= exact <= Decimal(res.integral.hi)

    def test_exact_function_stops_immediately(self):
        f = catalog("linear", (2.0, -1.0))
        res = adaptive_integrate(f, eps=1e-9)
        assert res.converged
        assert res.cells == 1
        # f'' = 0 makes the cell's bracket [-tiny, tiny]; only rounding remains
        lo, hi = first_cell(f)[4:6]
        assert -5e-324 <= lo <= 0.0 <= hi <= 5e-324
        assert_one_cell_result(res, first_cell(f))
        assert res.integral.contains(0.0)

    def test_tighter_eps_needs_more_cells(self):
        loose = adaptive_integrate(EXP, eps=1e-6)
        tight = adaptive_integrate(EXP, eps=1e-12)
        assert tight.cells > loose.cells

    def test_parameter_validation(self):
        for eps in (0.0, math.nan):
            with pytest.raises(ValueError):
                adaptive_integrate(EXP, eps=eps)
        with pytest.raises(ValueError):
            adaptive_integrate(EXP, eps=1e-6, max_cells=0)

    def test_bisection_reuses_parent_samples(self):
        # one f and two one-sided derivative calls per new cell midpoint, plus
        # f at both ends and f'+(a), f'-(b) for the first cell, from two
        # slope callables
        calls = {"f": 0, "df": 0}

        def counted(key):
            def fn(t):
                calls[key] += 1
                return math.exp(t)
            return fn

        f = ConvexFunction(EXP.domain, counted("f"), counted("df"), counted("df"), "exp")
        for eps, max_cells in ((1e-6, 10_000), (1e-12, 100)):
            calls.update(f=0, df=0)
            res = adaptive_integrate(f, eps=eps, max_cells=max_cells)
            assert calls["f"] == 2 * res.cells + 1
            assert calls["df"] == 4 * res.cells

    def test_one_slope_oracle_is_read_once_a_point(self):
        # f'(a), f'(b) and one read at each new cell midpoint, which serves
        # as both one-sided slopes: 2n + 1 where two oracles take 4n
        calls = {"f": 0, "df": 0}

        def counted(key):
            def fn(t):
                calls[key] += 1
                return math.exp(t)
            return fn

        f = ConvexFunction(EXP.domain, counted("f"), counted("df"), label="exp")
        assert f.dplus is f.dminus
        for eps, max_cells in ((1e-6, 10_000), (1e-12, 100)):
            calls.update(f=0, df=0)
            res = adaptive_integrate(f, eps=eps, max_cells=max_cells)
            assert res.cells > 1
            assert calls["f"] == 2 * res.cells + 1
            assert calls["df"] == 2 * res.cells + 1

    def test_f2_range_adds_one_call_per_cell(self):
        # the same samples as above, one range per cell made, and f''' read
        # once at each end and midpoint of a cell (the range at (x, x))
        calls = {"f": 0, "df": 0, "d2": 0, "d3": 0}

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        def d2range(u, v):
            calls["d2" if u < v else "d3"] += 1
            return EXP._d2range(u, v)

        f = ConvexFunction(EXP.domain, counted("f", math.exp), counted("df", math.exp), counted("df", math.exp),
                           "exp", _d2range=d2range)
        for eps, max_cells in ((1e-8, 10_000), (1e-13, 100), (1e-14, 8)):
            calls.update(f=0, df=0, d2=0, d3=0)
            res = adaptive_integrate(f, eps=eps, max_cells=max_cells)
            assert calls["f"] == 2 * res.cells + 1
            assert calls["df"] == 4 * res.cells
            assert calls["d2"] == 2 * res.cells - 1
            assert calls["d3"] == 2 * res.cells + 1

    @pytest.mark.parametrize("f, eps, max_cells", [
        (KINK, 1e-8, 10_000), (KINK, 1.0, 2),
        (TWO_BREAKS, 1e-8, 10_000), (TWO_BREAKS, 1e-13, 100), (TWO_BREAKS, 1e-14, 8), (TWO_BREAKS, 1.0, 3),
    ], ids=["kink", "kink-budget-2", "two-1e-8", "two-1e-13", "two-budget-8", "two-budget-3"])
    def test_breaks_keep_the_read_counts(self, f, eps, max_cells):
        # the start reads each break once by f, f'+ and f'- and makes k + 1
        # cells with one range each: 2n + 1, 4n and 2n - 1 - k
        reads = {"f": [], "dplus": [], "dminus": [], "d2": 0}

        def counted(key, fn):
            def wrapped(t):
                reads[key].append(t)
                return fn(t)
            return wrapped

        def d2range(u, v):
            reads["d2"] += u < v  # f''' at a point x is the range at (x, x)
            return f._d2range(u, v)

        g = dataclasses.replace(f, evaluate=counted("f", f.evaluate), dplus=counted("dplus", f.dplus),
                                dminus=counted("dminus", f.dminus), _d2range=d2range)
        k = len(f._breaks)
        res = adaptive_integrate(g, eps=eps, max_cells=max_cells)
        assert res.cells >= k + 1
        assert len(reads["f"]) == 2 * res.cells + 1
        assert len(reads["dplus"]) + len(reads["dminus"]) == 4 * res.cells
        assert reads["d2"] == 2 * res.cells - 1 - k
        for x in f._breaks:
            assert (reads["f"].count(x), reads["dplus"].count(x), reads["dminus"].count(x)) == (1, 1, 1)

    def test_split_start_bisects_the_widest_piece_first(self):
        # one bisection to spend: it splits [0.3, 0.7], whose bracket is
        # about 7 and 14 times those of [0.7, 1] and [0, 0.3]
        f, reads = TWO_BREAKS, []
        g = dataclasses.replace(f, evaluate=lambda t: reads.append(t) or f.evaluate(t))
        assert adaptive_integrate(g, eps=1e-14, max_cells=4).cells == 4
        widths = [(lambda c: c[5] - c[4])(_adaptive_cell(f, u, v, f(u), f(v), f.d_plus(u), f.d_minus(v), {}))
                  for u, v in ((0.0, 0.3), (0.3, 0.7), (0.7, 1.0))]
        assert max(widths) == widths[1]
        assert all(0.3 < x < 0.7 for x in reads[-2:])  # the two new midpoints

    @pytest.mark.parametrize("f, max_cells", [
        (catalog("kink", (1.0, 0.0)), 10_000),  # the break at a
        (catalog("kink", (1.0, 1.0)), 10_000),  # at b
        (dataclasses.replace(KINK, domain=Interval(0.6, 1.5)), 10_000),  # outside the domain
        (dataclasses.replace(KINK, domain=Interval(-0.5, 0.5)), 10_000),  # at b after replace
        (KINK, 1),  # two cells would spend more than the budget
        (TWO_BREAKS, 2),
        (dataclasses.replace(TWO_BREAKS, domain=Interval(0.3, 0.7)), 10_000),  # both at an end
    ], ids=["at-a", "at-b", "outside", "at-b-replaced", "budget-1", "two-budget-2", "two-at-ends"])
    def test_breaks_that_cannot_split_start_from_one_cell(self, f, max_cells):
        # the run is the one without breaks, bit for bit, read for read
        runs = []
        for g in (f, dataclasses.replace(f, _breaks=())):
            reads = []
            g = dataclasses.replace(g, evaluate=lambda t, ev=g.evaluate: reads.append(t) or ev(t))
            res = adaptive_integrate(g, eps=1e-10, max_cells=max_cells)
            runs.append((repr(res), reads))
        assert runs[0] == runs[1]
        a, b = f.domain.a, f.domain.b
        assert runs[0][1][:2] == [a, b]  # the one cell [a, b] reads its ends first

    @pytest.mark.parametrize("exc, raised, message", [
        (ZeroDivisionError, EvaluationError, "cannot evaluate 'kink(k=1.0, c=0.25)' at 0.25: no value at 0.25"),
        (DomainError, DomainError, "no value at 0.25"),
    ], ids=["ZeroDivisionError", "DomainError"])
    def test_a_failed_value_read_at_a_break_raises_as_f_would(self, exc, raised, message):
        def evaluate(t):
            if t == 0.25:
                raise exc(f"no value at {t}")
            return abs(t - 0.25)

        f = dataclasses.replace(catalog("kink", (1.0, 0.25)), evaluate=evaluate)
        for run in (lambda: f(0.25), lambda: adaptive_integrate(f, eps=1e-8)):
            with pytest.raises(raised, match=f"^{re.escape(message)}$"):
                run()

    @pytest.mark.parametrize("f, reads_a", [(catalog("power_p", (2.5,)), False), (catalog("xlogx"), False), (EXP, True)],
                             ids=["power_p2.5", "xlogx", "exp"])
    def test_third_derivative_read_once_per_point(self, f, reads_a):
        # t^2.5 and t ln t have no f^(6) range on the cells that touch 0;
        # f''' is read on the others, each point once, whichever of a parent
        # and its two cells could read it
        reads = []
        res = adaptive_integrate(with_third_reads(f, reads.append), eps=1e-10)
        assert res.converged
        assert reads and len(reads) == len(set(reads)) <= 2 * res.cells + 1
        assert (f.domain.a in reads) == reads_a

    def test_third_derivative_table_lives_for_one_run(self):
        # two runs on one function read the same points, each once a run:
        # a table of f''' reads kept across runs would leave the second none
        reads, runs = [], []
        f = with_third_reads(EXP, reads.append)
        for _ in range(2):
            reads.clear()
            assert adaptive_integrate(f, eps=1e-10).converged
            runs.append(list(reads))
        assert runs[0] and len(runs[0]) == len(set(runs[0]))
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("f", [to_convex_function("exp(x)", Interval(0.0, 1.0)), catalog("kink", (1.0, 0.3)),
                                   catalog("power_p", (3.0,))], ids=lambda f: f.label)
    def test_no_third_derivative_read_without_the_cut(self, f):
        # an expression has no f^(6) range, and where f'''' is 0 (a kink off
        # its kink, t^3) the f'''' cut is exact already: no cell reads f'''
        f = with_third_reads(f, lambda x: pytest.fail("f''' read"))
        assert adaptive_integrate(f, eps=1e-10).converged

    @pytest.mark.parametrize("f, truth", [
        (EXP, math.e - 1.0),
        (catalog("xlogx", (), Interval(0.0, 1.0)), -0.25),
        (catalog("kink", (1.0, 0.3)), 0.5 * (0.3 ** 2 + 0.7 ** 2)),
    ], ids=["exp", "xlogx", "kink"])
    def test_containment_at_tight_eps(self, f, truth):
        res = adaptive_integrate(f, eps=1e-10, max_cells=200_000)
        assert res.converged
        assert res.integral.width <= 1e-10
        assert res.integral.contains(truth)
        assert_rounded_outward(res)

    def test_supporting_lines_meet_at_kink(self):
        # on [0, 0.5] the lines at 0 and 0.5 cross at the kink 0.3, so the
        # first cell's lower bound is the integral itself; a one-cell budget
        # keeps the run from starting split at the kink
        f = catalog("kink", (1.0, 0.3))
        res = adaptive_integrate(f, eps=1.0, max_cells=1)
        assert res.cells == 1
        assert res.integral.lo == pytest.approx(float(exact_integral("kink", (1.0, 0.3), 0.0, 1.0)), abs=1e-15)

    def test_sandwich_halves_cells(self):
        # the paper's bracket alone needs 4,932 cells here; the sandwich alone
        # (no f'' range) needs 2,466
        res = adaptive_integrate(dataclasses.replace(EXP, _d2range=None), eps=1e-8)
        assert res.converged
        assert res.cells <= 2_500

    @pytest.mark.parametrize("f, most", [
        (EXP, 300),
        (catalog("xlogx"), 600),  # f'' = 1/t is unbounded at 0
        (catalog("power_p", (3.0,)), 500),
    ], ids=["exp", "xlogx", "power_p3"])
    def test_f2_range_cuts_cells(self, f, most):
        # the sandwich alone needs 2,466, 3,476 and 3,012 cells here
        res = adaptive_integrate(f, eps=1e-8)
        assert res.converged
        assert res.cells <= most

    @pytest.mark.parametrize("f, eps, most", [
        (EXP, 1e-8, 135), (EXP, 1e-10, 580),
        (catalog("xlogx", (), Interval(0.5, 2.0)), 1e-8, 175), (catalog("xlogx", (), Interval(0.5, 2.0)), 1e-10, 820),
        (catalog("power_p", (3.0,)), 1e-8, 235), (catalog("power_p", (3.0,)), 1e-10, 1_030),
        (catalog("neg_log", (), Interval(0.5, 2.0)), 1e-8, 215), (catalog("neg_log", (), Interval(0.5, 2.0)), 1e-10, 1_020),
    ], ids=lambda x: x.label if isinstance(x, ConvexFunction) else str(x))
    def test_corrected_halves_cut_cells(self, f, eps, most):
        # with the f''' and f'''' ranges dropped, the halves' f'' Peano bound alone takes
        # 121 / 522, 159 / 742, 211 / 934 and 196 / 928 cells here, where
        # bracketing each cell by h^3/12 [min f'', max f''] took 251 / 1,229,
        # 348 / 1,629, 449 / 1,942 and 434 / 2,034
        d2range = f._d2range
        f = dataclasses.replace(f, _d2range=lambda u, v: d2range(u, v)[:2] + (-math.inf, math.inf) * 3)
        res = adaptive_integrate(f, eps=eps, max_cells=200_000)
        assert res.converged
        assert res.cells <= most

    @pytest.mark.parametrize("f, eps, most", [
        (EXP, 1e-8, 30), (EXP, 1e-10, 80),
        (catalog("xlogx", (), Interval(0.5, 2.0)), 1e-8, 43), (catalog("xlogx", (), Interval(0.5, 2.0)), 1e-10, 136),
        (catalog("power_p", (3.0,)), 1e-8, 1), (catalog("power_p", (3.0,)), 1e-10, 1),
        (catalog("neg_log", (), Interval(0.5, 2.0)), 1e-8, 54), (catalog("neg_log", (), Interval(0.5, 2.0)), 1e-10, 174),
    ], ids=lambda x: x.label if isinstance(x, ConvexFunction) else str(x))
    def test_third_order_halves_cut_cells(self, f, eps, most):
        # with the f'''' range dropped, the f''' Peano bound of the halves
        # takes 26 / 69, 37 / 118, 1 / 1 and 47 / 151 cells here; each bound
        # is about 15% above
        d2range = f._d2range
        f = dataclasses.replace(f, _d2range=lambda u, v: d2range(u, v)[:4] + (-math.inf, math.inf) * 2)
        res = adaptive_integrate(f, eps=eps, max_cells=200_000)
        assert res.converged
        assert res.cells <= most

    @pytest.mark.parametrize("f, eps, most", [
        (EXP, 1e-8, 9), (EXP, 1e-10, 23), (EXP, 1e-12, 63), (EXP, 1e-14, 163),
        (catalog("xlogx", (), Interval(0.5, 2.0)), 1e-8, 18), (catalog("xlogx", (), Interval(0.5, 2.0)), 1e-10, 43),
        (catalog("power_p", (3.0,)), 1e-8, 1), (catalog("power_p", (3.0,)), 1e-10, 1),
        (catalog("power_p", (2.5,)), 1e-8, 18), (catalog("power_p", (2.5,)), 1e-10, 43),
        (catalog("neg_log", (), Interval(0.5, 2.0)), 1e-8, 23), (catalog("neg_log", (), Interval(0.5, 2.0)), 1e-10, 55),
    ], ids=lambda x: x.label if isinstance(x, ConvexFunction) else str(x))
    def test_fourth_order_halves_cut_cells(self, f, eps, most):
        # the f'''' Peano bound of the halves takes 8 / 20 / 55 / 142,
        # 16 / 38, 1 / 1, 16 / 38 and 20 / 48 cells here; each bound is
        # about 15% above.  f''' and f'''' of t^2.5 are unbounded at 0, so
        # the cell there keeps the f'' bound
        res = adaptive_integrate(f, eps=eps, max_cells=200_000)
        assert res.converged
        assert res.cells <= most

    @pytest.mark.parametrize("name, params, domain, eps, cells", [
        ("exp", (), Interval(0.0, 1.0), 1e-8, 2), ("exp", (), Interval(0.0, 1.0), 1e-12, 8),
        ("neg_log", (), Interval(0.5, 2.0), 1e-12, 29), ("power_p", (2.5,), Interval(0.0, 1.0), 1e-10, 17),
    ], ids=["exp-1e-8", "exp-1e-12", "neg_log-1e-12", "power_p2.5-1e-10"])
    def test_euler_maclaurin_cells(self, name, params, domain, eps, cells):
        # with f''' at the samples and an f^(6) range the cells grow like eps^-1/7
        res = adaptive_integrate(catalog(name, params, domain), eps=eps)
        assert (res.cells, res.converged) == (cells, True)
        assert res.integral.lo <= exact_integral(name, params, domain.a, domain.b) <= res.integral.hi

    @pytest.mark.parametrize("f, truth", [
        (QUAD, 1.0 / 3.0), (catalog("linear", (2.0, -1.0)), 0.0), (catalog("constant", (5.0,)), 5.0),
        (catalog("power_p", (3.0,)), 0.25),
        (to_convex_function("x^3", Interval(0.0, 1.0)), 0.25),
    ], ids=["quadratic", "linear", "constant", "power_p3", "expr_x3"])
    def test_constant_f2_makes_one_cell_exact(self, f, truth):
        # a constant f''' (the last two) leaves only the rounding allowance
        res = adaptive_integrate(f, eps=1e-8)
        assert res.converged
        assert res.cells == 1
        assert res.integral.contains(truth)

    def test_expression_takes_catalog_cells(self, monkeypatch):
        # exp(x) and -log(x) carry interval f'', f''' and f'''' ranges, so
        # their cells match the catalog's exp and neg_log cut to those
        # orders, whose ranges are closed form, in both passes and at eps
        # 1e-12; the f'''' bound of the halves cut exp's from 26 and 69 (121
        # and 522 with the f'' bound alone, 251 and 1,229 with h^3/12
        # [min f'', max f''] alone).  The whole catalog function, with f'''
        # at the samples and an f^(6) range, takes fewer still
        runs = []

        def spy(*args, **kwargs):
            runs.append(adaptive_integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr("trapbound.quadrature.adaptive_integrate", spy)
        for src, full, cells in (("exp(x)", EXP, (8, 20, 55)),
                                 ("-log(x)", catalog("neg_log", (), Interval(0.5, 2.0)), (20, 48, 124))):
            twin = dataclasses.replace(full, _d2range=lambda u, v, d2range=full._d2range:
                                       d2range(u, v)[:6] + (-math.inf, math.inf))
            a, b = twin.domain.a, twin.domain.b
            f = to_convex_function(src, Interval(a, b))
            res = adaptive_integrate(f, eps=1e-8)
            assert res.converged
            assert res.cells == adaptive_integrate(twin, eps=1e-8).cells == cells[0]
            runs.clear()
            _reference_integral(f)
            assert [r.cells for r in runs] == [adaptive_integrate(twin, eps=1e-10, max_cells=200_000).cells] == [cells[1]]
            assert adaptive_integrate(f, eps=1e-12).cells == adaptive_integrate(twin, eps=1e-12).cells == cells[2]
            for eps, most in zip((1e-8, 1e-10, 1e-12), cells):
                assert adaptive_integrate(full, eps=eps).cells < most

    def test_inverted_bracket_raises(self):
        f = ConvexFunction(Interval(0.0, 1.0), lambda t: -t * t, lambda t: -2.0 * t, lambda t: -2.0 * t, "-t^2")
        with pytest.raises(NonConvexityError, match=r"\[0\.0, -0\.25\]"):
            adaptive_integrate(f, eps=1e-6)

    def test_infinite_endpoint_value_stops_unconverged(self):
        # -log t is +inf at 0: the cell touching 0 has an infinite bracket
        # however often it is bisected
        f = catalog("neg_log", (), Interval(0.0, 1.0))
        res = adaptive_integrate(f, eps=1e-6)
        assert not res.converged
        assert res.cells == 1
        assert res.integral.contains(1.0)


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=7),
    n=st.integers(min_value=1, max_value=24),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_remainder_contains_truth_property(idx, n, frac):
    f = default_catalog()[idx]
    P = uniform_partition(f.domain, n)
    xi = tuple(u + (v - u) * frac for u, v, _ in P.cells())
    Q = Partition(P.points, xi)
    rem = remainder_enclosure(f, Q)
    s = generalized_trapezoid(f, Q) - corpus_integral(idx)
    # slack until fixed-partition cells round outward (ROADMAP item 4)
    assert rem.lo - 1e-9 <= s <= rem.hi + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=7),
    p=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_adaptive_cell_inside_paper_bracket_property(idx, p, q):
    f = default_catalog()[idx]
    a, b = f.domain.a, f.domain.b
    u, v = sorted(a + (b - a) * x for x in (p, q))
    assume(u < v)
    cell = dataclasses.replace(f, domain=Interval(u, v))
    entry = first_cell(cell)
    lo, hi = entry[4:6]
    m = cell.domain.midpoint
    dpm, dmm = (cell.d_plus(m), cell.d_minus(m)) if u < m < v else (None, None)
    p_lo, p_hi = _midpoint_bracket(v - u, dpm, dmm, cell.d_plus(u), cell.d_minus(v))
    paper = Enclosure(min(p_lo, p_hi), p_hi)
    # both brackets come from the same kernel with the same weights; the
    # allowance covers a bracket inverted by rounding, which the adaptive
    # cell collapses to a point; where rounding put the paper's upper side
    # below the f'' term's lower one, the f'' term is kept whole
    assert paper.lo - 4 * math.ulp(paper.lo) <= lo
    assert hi <= paper.hi + 4 * math.ulp(paper.hi) or lo > paper.hi
    # a one-cell budget reports that bracket with the rounding allowance
    assert_one_cell_result(adaptive_integrate(cell, eps=1.0, max_cells=1), entry)


def test_peano_constant_rounded_up():
    # the Peano term's bound (B - A) w^3/(36 sqrt 3) is _BETA (B - A) w^3/12
    assert 27 * Fraction(_BETA) ** 2 >= 1 > 27 * Fraction(math.nextafter(_BETA, 0.0)) ** 2


def test_third_order_peano_constant_rounded_up():
    # at w = 1 and x = t - c, |K - 1/12| |x| = |1/24 - x^2/2| |x| is even, and
    # its antiderivative on x >= 0, x^2/48 - x^4/8, is a polynomial in x^2; the
    # sign changes at x^2 = 1/12 (x = 1/(2 sqrt 3)), so the split point enters
    # exactly, through its square
    G = lambda x2: x2 / 48 - x2 * x2 / 8
    root2 = Fraction(1, 12)
    assert Fraction(1, 8) - root2 / 2 == Fraction(1, 12)  # K - 1/12 vanishes there
    # 1/(2 sqrt 3) lies between rational bounds with the kernel's signs on either side
    below, above = Fraction(288, 1000), Fraction(289, 1000)
    assert below ** 2 < root2 < above ** 2
    assert Fraction(1, 24) - below ** 2 / 2 > 0 > Fraction(1, 24) - above ** 2 / 2
    integral = 2 * ((G(root2) - G(Fraction(0))) - (G(Fraction(1, 4)) - G(root2)))
    assert integral == Fraction(5, 576)
    # the term's bound (D - C)/2 * 5 w^4/576 is _DELTA (D - C) (w^2/12)^2, not
    # rounded down and at most one ulp of _DELTA above
    exact = Fraction(5, 1152) * 144
    assert exact <= Fraction(_DELTA) <= exact + Fraction(math.ulp(_DELTA))


def test_third_order_bound_holds_where_nearly_attained():
    # f = t^2 + t+^3 - (t - 1/2)+^3 + (t - 1)+^3 is convex and C^2 on
    # [-1/2, 3/2], with f'' in [2, 8] and f''' in [0, 6], 0 then 6 on each
    # half of width 1, jumping at its centre; each half's Peano term is then
    # -1/64, 0.6 of the bound 5 (D - C)/1152, which the bracket must hold
    # (the samples are exact floats)
    knots = ((0.0, 1), (0.5, -1), (1.0, 1))
    f = lambda t: t * t + sum(s * max(t - k, 0.0) ** 3 for k, s in knots)
    df = lambda t: 2 * t + sum(3 * s * max(t - k, 0.0) ** 2 for k, s in knots)
    F = lambda t: Fraction(t) ** 3 / 3 + sum(s * max(Fraction(t - k), Fraction(0)) ** 4 / 4 for k, s in knots)
    u, m, v = -0.5, 0.5, 1.5
    d2 = (2.0, 8.0, 0.0, 6.0, -math.inf, math.inf)  # f is not C^4
    lo, hi = _corrected_bracket(u, m, v, f(u), f(m), f(v), df(u), df(m), df(m), df(v), d2)
    exact = Fraction(f(u) + f(v)) * Fraction(v - u) / 2 - (F(v) - F(u))
    halves = Fraction(df(m) - df(u) + df(v) - df(m)) / 12
    chords = (Fraction(f(u) - f(m)) + Fraction(f(v) - f(m))) / 2
    assert exact - chords - halves == Fraction(-2, 64)
    assert lo <= exact <= hi


def test_corrected_bracket_refuses_what_it_cannot_bound():
    # an unbounded f'', an infinite slope and cells narrower than 2^-300
    # leave the cell to the sandwich; an unbounded f''' or f'''' (one end is
    # enough) only drops its term
    args = (0.0, 0.5, 1.0, 1.0, math.exp(0.5), math.e, 1.0, math.exp(0.5), math.exp(0.5), math.e)
    whole = (-math.inf, math.inf)
    fourth = _corrected_bracket(*args, (1.0, math.e) * 3)
    third = _corrected_bracket(*args, (1.0, math.e) * 2 + whole)
    second = _corrected_bracket(*args, (1.0, math.e) + whole * 2)
    assert second[0] < third[0] < fourth[0] <= fourth[1] < third[1] < second[1]
    for half in ((1.0, math.inf), (-math.inf, math.e)):
        assert _corrected_bracket(*args, (1.0, math.e) * 2 + half) == third
    assert _corrected_bracket(*args, (1.0, math.inf) * 3) is None
    assert _corrected_bracket(*args[:-1], math.inf, (1.0, math.e) * 3) is None
    tiny = 2.0 ** -301
    assert _corrected_bracket(0.0, tiny, 2 * tiny, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, (1.0, math.e) * 3) is None


def test_fourth_order_peano_constant():
    # the corrected trapezoid rule's kernel s^2 (w - s)^2/24 integrates to
    # w^5/720 = (w^2/12)^2 w/5: at w = 1, its antiderivative is
    # (s^3/3 - s^4/2 + s^5/5)/24
    G = lambda s: (s ** 3 / 3 - s ** 4 / 2 + s ** 5 / 5) / 24
    assert G(Fraction(1)) - G(Fraction(0)) == Fraction(1, 720) == Fraction(1, 12) ** 2 / 5


@pytest.mark.parametrize("u, v", [(0.0, 1.0), (-1.0, 2.0), (0.25, 0.375)])
def test_fourth_order_bound_is_attained_by_a_quartic(u, v):
    # f = t^4 has f'''' = 24 throughout, so each half's term is exactly
    # -(w^5/720) 24: the bracket holds the exact T - I (the samples are exact
    # floats) and is as wide as the rounding allowance alone
    f, df = (lambda t: t ** 4), (lambda t: 4 * t ** 3)
    F = lambda t: Fraction(t) ** 5 / 5
    m = 0.5 * (u + v)
    d2 = (12 * min(u * u, v * v) if u * v > 0 else 0.0, 12 * max(u * u, v * v), 24 * u, 24 * v, 24.0, 24.0)
    lo, hi = _corrected_bracket(u, m, v, f(u), f(m), f(v), df(u), df(m), df(m), df(v), d2)
    exact = Fraction(f(u) + f(v)) * Fraction(v - u) / 2 - (F(v) - F(u))
    assert lo <= exact <= hi
    assert hi - lo <= 2.0 ** -40 * abs(float(exact))


@pytest.mark.parametrize("idx", range(8))
def test_adaptive_cell_one_ulp_wide(idx):
    # no float lies strictly inside such a cell, so it is bracketed from its
    # endpoint samples alone and never bisected (adaptive_integrate used to
    # raise DomainError)
    f = default_catalog()[idx]
    a, b = f.domain.a, f.domain.b
    for u in (a, 0.5 * (a + b), math.nextafter(b, a)):
        v = math.nextafter(u, b)
        cell = dataclasses.replace(f, domain=Interval(u, v))
        res = adaptive_integrate(cell, eps=1e-300)
        paper_hi = 0.125 * (v - u) ** 2 * (f.d_minus(v) - f.d_plus(u))
        entry = first_cell(cell)
        assert entry[10] is None  # never bisected
        # the lower side is the f'' term h^3/12 min f'' (>= Hermite-Hadamard's
        # 0); the upper side is at most the paper's, unless rounding put the
        # paper's below that lower side, and the f'' term is kept whole
        lo, hi = entry[4:6]
        assert 0.0 <= lo <= hi
        assert hi <= paper_hi or lo > paper_hi
        assert res.gn == 0.5 * (f(u) + f(v)) * (v - u)
        assert_one_cell_result(res, entry)
        # the kernel the cell reads gives [0, paper hi] with no midpoint slopes
        assert _midpoint_bracket(v - u, None, None, f.d_plus(u), f.d_minus(v)) == (0.0, paper_hi)


@pytest.mark.parametrize("name, a, ulps, cells, lo, hi", [
    ("exp", 1.0, 6, 6, 3.6214788880504794e-15, 3.6214788880504904e-15),
    ("quadratic", 0.5, 5, 5, 1.3877787807814447e-16, 1.3877787807814496e-16),
])
def test_bisection_down_to_adjacent_floats(name, a, ulps, cells, lo, hi):
    # bisection itself makes cells with no float strictly inside; they stay
    # on the heap with the key of an exact cell, and the run stops once every
    # cell is exact or too narrow to bisect (pinned to the results from when
    # such cells were kept off the heap)
    b = a
    for _ in range(ulps):
        b = math.nextafter(b, math.inf)
    res = adaptive_integrate(catalog(name, (), Interval(a, b)), eps=1e-300)
    assert (res.cells, res.converged) == (cells, False)
    assert (res.integral.lo, res.integral.hi) == (lo, hi)


def reflected(f: ConvexFunction) -> ConvexFunction:
    """g(x) = f(-x) on [-b, -a], with g'+(x) = -f'-(-x), g'-(x) = -f'+(-x) and
    the f'' to f^(6) ranges of the mirrored cell, f''' negated: negation rounds
    nothing, so g's oracles are as faithful as f's."""
    r = f._d2range

    def d2range(u, v):
        d = r(-v, -u)
        return None if d is None else d[:2] + (-d[3], -d[2]) + tuple(d[4:])

    return ConvexFunction(Interval(-f.domain.b, -f.domain.a), lambda t: f.evaluate(-t),
                          lambda t: -f.dminus(-t), lambda t: -f.dplus(-t), f"{f.label}(-x)",
                          None if r is None else d2range)


#: name -> (smallest a, build on an interval): catalog and expression families
ADAPTIVE_FAMILIES = {
    "kink": (-4.0, lambda iv: catalog("kink", (1.5, iv.a + 0.3 * iv.width), iv)),
    "quadratic": (-4.0, lambda iv: catalog("quadratic", (), iv)),
    "exp": (-4.0, lambda iv: catalog("exp", (), iv)),
    "neg_log": (0.0, lambda iv: catalog("neg_log", (), iv)),
    "xlogx": (0.0, lambda iv: catalog("xlogx", (), iv)),
    "power_p": (0.0, lambda iv: catalog("power_p", (2.5,), iv)),
    "linear": (-4.0, lambda iv: catalog("linear", (2.0, -1.0), iv)),
    "constant": (-4.0, lambda iv: catalog("constant", (5.0,), iv)),
    "exp expr": (-4.0, lambda iv: to_convex_function("exp(x)", iv)),
    "sqrt expr": (-4.0, lambda iv: to_convex_function("sqrt(1 + x^2)", iv)),
    "abs expr": (-4.0, lambda iv: to_convex_function("abs(x - 0.3) + x^2", iv)),
    "softplus expr": (-4.0, lambda iv: to_convex_function("log(1 + exp(x))", iv)),
    "quartic expr": (-4.0, lambda iv: to_convex_function("x^4", iv)),
    "xlogx expr": (1e-3, lambda iv: to_convex_function("x*log(x)", iv)),
    "recip expr": (1e-3, lambda iv: to_convex_function("1/x", iv)),
}


@st.composite
def adaptive_cases(draw):
    """A family on a wide interval, one 2^-40 of |a| wide, or one of a few ulps."""
    lo, build = ADAPTIVE_FAMILIES[draw(st.sampled_from(sorted(ADAPTIVE_FAMILIES)))]
    a = draw(st.floats(lo, 4.0))
    kind = draw(st.sampled_from(("wide", "relative", "ulps")))
    if kind == "wide":
        b = a + draw(st.floats(1e-3, 8.0))
    elif kind == "relative":
        b = a + max(abs(a), 1.0) * 2.0 ** -40
    else:
        b = a
        for _ in range(draw(st.integers(1, 64))):
            b = math.nextafter(b, math.inf)
    assume(a < b)
    return build(Interval(a, b))


@settings(max_examples=60, deadline=None, database=None)
@seed(16)
@given(f=adaptive_cases(), t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_adaptive_enclosures_of_one_integral_intersect(f, t):
    """ROADMAP item 16, adaptive half: every enclosure of one integral holds
    it, so any two intersect: at eps 1e-3, 1e-6 and 1e-10, that of f(-x)
    on [-b, -a], and the sum, rounded outward, of those over [a, c] and
    [c, b] for c = a + t (b - a) inside [a, b], each part read with f's own
    oracles (a kink family places its kink relative to the interval)."""
    epss = (1e-3, 1e-6, 1e-10)
    encs = [adaptive_integrate(g, eps, 2_000).integral for g in (f, reflected(f)) for eps in epss]
    a, b = f.domain.a, f.domain.b
    c = a + t * (b - a)
    if a < c < b:  # c may round onto an end
        parts = [dataclasses.replace(f, domain=iv) for iv in (Interval(a, c), Interval(c, b))]
        for eps in epss:
            left, right = (adaptive_integrate(g, eps, 2_000).integral for g in parts)
            encs.append(Enclosure(math.nextafter(left.lo + right.lo, -math.inf),
                                  math.nextafter(left.hi + right.hi, math.inf)))
    lo, hi = max(e.lo for e in encs), min(e.hi for e in encs)
    assert lo <= hi, (f.label, f.domain, c, encs)


#: -sqrt(1 - t) has f'-(1) = +inf and -sqrt(t) has f'+(0) = -inf; both are
#: convex on [0, 1] with integral -2/3
SQRT_RIGHT = ConvexFunction(Interval(0.0, 1.0), lambda t: -math.sqrt(1.0 - t),
                            lambda t: 0.5 / math.sqrt(1.0 - t) if t < 1.0 else math.inf, label="-sqrt(1 - t)")
SQRT_LEFT = ConvexFunction(Interval(0.0, 1.0), lambda t: -math.sqrt(t),
                           lambda t: -0.5 / math.sqrt(t) if t > 0.0 else -math.inf, label="-sqrt(t)")


@pytest.mark.parametrize("f", [SQRT_RIGHT, SQRT_LEFT], ids=lambda f: f.label)
@pytest.mark.parametrize("eps, cells", [(1e-3, 10), (1e-6, 267), (1e-9, 8383)])
def test_an_infinite_end_slope_drops_its_supporting_line(f, eps, cells):
    # the end cell's lower bound is the area under the one finite supporting
    # line; the cells grow like eps^-1/2, as slopes alone allow
    res = adaptive_integrate(f, eps, 200_000)
    assert res.converged and res.cells == cells
    assert Fraction(res.integral.lo) <= Fraction(-2, 3) <= Fraction(res.integral.hi)
