import dataclasses
import math
from fractions import Fraction

import pytest

from trapbound.funcs import ConvexFunction, DomainError, Interval, catalog
from trapbound.pointwise import (
    ClassicalConstants,
    Enclosure,
    GapQuery,
    MissingConstantError,
    NotDifferentiableError,
    PreconditionError,
    classical_bounds,
    _reference_integral,
    differentiable_lower,
    gap_enclosure,
    hh_bounds,
    lower_gap_bound,
    optimal_point_bound,
    upper_gap_bound,
    window_inequality,
)

KINK = catalog("kink", (1.0, 0.5))
QUAD = catalog("quadratic")


def shifted_parabola():
    # t^2 - t on [0, 1]: endpoint slopes -1 and +1
    return ConvexFunction(
        Interval(0.0, 1.0),
        lambda t: t * t - t,
        lambda t: 2.0 * t - 1.0,
        lambda t: 2.0 * t - 1.0,
        "t^2 - t",
        antiderivative=lambda t: t ** 3 / 3.0 - 0.5 * t * t,
    )


def reference_gap(f, x):
    # oracle: the defining formula with the closed-form antiderivative
    a, b = f.domain.a, f.domain.b
    return (x - a) * f(a) + (b - x) * f(b) - f.integral()


class TestEnclosure:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Enclosure(1.0, 0.0)

    def test_width_and_contains(self):
        e = Enclosure(-1.0, 3.0)
        assert e.width == 4.0
        assert e.contains(0.0)
        assert not e.contains(3.1)
        assert e.contains(3.1, slack=0.2)

    def test_infinite_sides(self):
        e = Enclosure(0.0, math.inf)
        assert e.contains(1e300)


def kink_integral(k, c, a, b):
    # oracle: the integral of k |t - c| over [a, b] with a <= c <= b, exact
    k, c, a, b = map(Fraction, (k, c, a, b))
    return k * ((c - a) ** 2 + (b - c) ** 2) / 2


class TestGap:
    """The integral behind the CLI's ``gap`` and ``hh``: a certified
    enclosure, against closed forms with zero slack."""

    def test_quadratic(self):
        enc = _reference_integral(QUAD, 0.0, 1.0)
        assert enc.lo <= Fraction(1, 3) <= enc.hi
        assert enc.width <= 1e-10

    def test_kink_equality_case(self):
        enc = _reference_integral(KINK, 0.0, 1.0)
        assert enc.lo <= 0.25 <= enc.hi
        assert enc.width <= 1e-10

    def test_constant(self):
        f = catalog("constant", (7.0,))
        enc = _reference_integral(f, 0.25, 0.75)
        assert enc.lo <= 3.5 <= enc.hi

    def test_antiderivative_not_read(self):
        bare = dataclasses.replace(QUAD, antiderivative=None)
        assert _reference_integral(bare, 0.2, 0.9) == _reference_integral(QUAD, 0.2, 0.9)

    def test_sub_domain_keeps_the_f2_range(self):
        # the window's sub-domain copy of f must keep its f'' range oracle
        calls = []

        def d2range(u, v):
            calls.append((u, v))
            return (2.0, 2.0, 0.0, 0.0)

        bare = ConvexFunction(QUAD.domain, QUAD.evaluate, QUAD.dplus, QUAD.dminus, "bare", _d2range=d2range)
        rep = window_inequality(bare, 0.5, 0.4)
        # the first cell is the whole window [x - h/2, x + h/2]
        assert calls[0] == (0.5 - 0.5 * 0.4, 0.5 + 0.5 * 0.4)
        assert rep.holds

    def test_split_point_outside_domain(self):
        with pytest.raises(DomainError):
            GapQuery(QUAD, 1.5)


class TestGapBounds:
    def test_lower_kink_equality(self):
        assert lower_gap_bound(GapQuery(KINK, 0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_lower_quadratic(self):
        q = GapQuery(QUAD, 0.25)
        # oracle: x(1 - 2x) at x = 0.25 vs gap 5/12 from the antiderivative
        assert lower_gap_bound(q) == pytest.approx(0.125, abs=1e-15)
        assert reference_gap(QUAD, 0.25) == pytest.approx(5.0 / 12.0, rel=1e-12)
        assert lower_gap_bound(q) <= reference_gap(QUAD, 0.25)

    def test_lower_linear_is_exact(self):
        f = catalog("linear", (2.0, -1.0))
        for x in (0.2, 0.5, 0.8):
            assert lower_gap_bound(GapQuery(f, x)) == pytest.approx(reference_gap(f, x), abs=1e-12)

    def test_lower_requires_interior(self):
        with pytest.raises(DomainError):
            lower_gap_bound(GapQuery(QUAD, 0.0))

    def test_upper_kink_equality(self):
        assert upper_gap_bound(GapQuery(KINK, 0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_upper_quadratic(self):
        assert upper_gap_bound(GapQuery(QUAD, 0.5)) == pytest.approx(0.25, abs=1e-15)
        assert upper_gap_bound(GapQuery(QUAD, 0.5)) >= reference_gap(QUAD, 0.5)

    def test_upper_infinite_endpoint_derivative(self):
        f = catalog("neg_log")  # f'+(0) = -inf
        assert upper_gap_bound(GapQuery(f, 0.5)) == math.inf

    def test_upper_allowed_at_endpoints(self):
        assert upper_gap_bound(GapQuery(QUAD, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert upper_gap_bound(GapQuery(QUAD, 1.0)) == 0.0

    def test_enclosure_combines_both(self):
        enc = gap_enclosure(GapQuery(QUAD, 0.5))
        assert enc.lo == 0.0
        assert enc.hi == pytest.approx(0.25, abs=1e-15)
        assert enc.contains(1.0 / 6.0)
        kink_enc = gap_enclosure(GapQuery(KINK, 0.5))
        assert kink_enc.lo == kink_enc.hi == pytest.approx(0.25, abs=1e-15)
        const_enc = gap_enclosure(GapQuery(catalog("constant", (3.0,)), 0.4))
        assert (const_enc.lo, const_enc.hi) == (0.0, 0.0)


class TestHermiteHadamard:
    def test_kink(self):
        enc = hh_bounds(KINK)
        assert enc.lo == enc.hi == pytest.approx(0.25, abs=1e-15)

    def test_quadratic(self):
        enc = hh_bounds(QUAD)
        true_diff = 0.5 - 1.0 / 3.0
        assert enc.lo == 0.0
        assert enc.hi == pytest.approx(0.25, abs=1e-15)
        assert enc.contains(true_diff)

    def test_linear_degenerates(self):
        enc = hh_bounds(catalog("linear", (3.0, 1.0)))
        assert (enc.lo, enc.hi) == (0.0, 0.0)

    def test_lo_nonnegative_on_catalog(self, test_catalog):
        for f in test_catalog:
            assert hh_bounds(f).lo >= 0.0, f.label

    def test_is_the_gap_bracket_at_the_midpoint(self, test_catalog):
        for f in test_catalog:
            h = f.domain.width
            enc = hh_bounds(f)
            g = gap_enclosure(GapQuery(f, f.domain.midpoint))
            for side, ref in ((enc.lo, g.lo / h), (enc.hi, g.hi / h)):
                assert abs(side - ref) <= 2 * math.ulp(ref), f.label


class TestDifferentiableLower:
    def test_quadratic_off_center(self):
        assert differentiable_lower(QUAD, 0.25) == pytest.approx(0.125, abs=1e-15)

    def test_midpoint_annihilates(self):
        assert differentiable_lower(QUAD, 0.5) == 0.0

    def test_kink_rejected(self):
        with pytest.raises(NotDifferentiableError):
            differentiable_lower(KINK, 0.5)

    def test_matches_lower_gap_bound_where_smooth(self, test_catalog, rng):
        for f in test_catalog:
            a, b = f.domain.a, f.domain.b
            for x in a + (b - a) * rng.uniform(0.01, 0.99, size=20):
                try:
                    value = differentiable_lower(f, x)
                except NotDifferentiableError:
                    continue
                assert value == pytest.approx(
                    lower_gap_bound(GapQuery(f, x)), rel=1e-12, abs=1e-12
                ), f.label


class TestWindowInequality:
    def test_kink_equality(self):
        rep = window_inequality(KINK, 0.5, 1.0)
        assert rep.lhs == pytest.approx(0.25, abs=1e-15)
        assert rep.rhs == pytest.approx(0.25, abs=1e-15)
        assert rep.holds

    def test_quadratic(self):
        rep = window_inequality(QUAD, 0.5, 0.5)
        assert rep.lhs == 0.0
        assert rep.rhs >= 0.0
        assert rep.holds

    def test_linear_both_zero(self):
        rep = window_inequality(catalog("linear", (2.0, 0.0)), 0.5, 0.4)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_window_outside_domain(self):
        with pytest.raises(DomainError):
            window_inequality(QUAD, 0.1, 0.5)


class TestOptimalPoint:
    def test_kink(self):
        rep = optimal_point_bound(KINK)
        assert rep.x0 == pytest.approx(0.5, abs=1e-15)
        assert rep.gap_upper == pytest.approx(0.25, abs=1e-15)
        assert rep.gap_upper >= reference_gap(KINK, rep.x0) - 1e-12

    def test_shifted_parabola(self):
        f = shifted_parabola()
        rep = optimal_point_bound(f)
        assert rep.x0 == pytest.approx(0.5, abs=1e-15)
        assert rep.gap_upper == pytest.approx(0.25, abs=1e-15)
        assert reference_gap(f, 0.5) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_linear_rejected(self):
        with pytest.raises(PreconditionError):
            optimal_point_bound(catalog("linear", (2.0, 0.0)))

    def test_positive_slope_everywhere_rejected(self):
        assert catalog("exp").d_plus(0.0) > 0
        with pytest.raises(PreconditionError):
            optimal_point_bound(catalog("exp"))

    def test_is_minimum_of_upper_bound_over_grid(self):
        f = shifted_parabola()
        rep = optimal_point_bound(f)
        xs = [i / 1000.0 for i in range(1001)]
        grid_min = min(upper_gap_bound(GapQuery(f, x)) for x in xs)
        assert rep.gap_upper <= grid_min + 1e-12
        assert grid_min - rep.gap_upper <= 1e-5  # grid resolution


class TestClassicalBounds:
    def test_kink_bounded_variation(self):
        bounds = dict(classical_bounds(KINK, 0.5, ClassicalConstants(total_variation=1.0)))
        assert bounds["bounded_variation"] == pytest.approx(0.5, abs=1e-15)
        assert bounds["bounded_variation"] >= abs(reference_gap(KINK, 0.5))

    def test_quadratic_lipschitz(self):
        bounds = dict(classical_bounds(QUAD, 0.5, ClassicalConstants(lipschitz=2.0)))
        assert bounds["lipschitz"] == pytest.approx(0.5, abs=1e-15)
        assert bounds["lipschitz"] >= abs(reference_gap(QUAD, 0.5))

    def test_constant_bv_zero(self):
        f = catalog("constant", (4.0,))
        bounds = dict(classical_bounds(f, 0.5, ClassicalConstants(total_variation=0.0)))
        assert bounds["bounded_variation"] == 0.0
        assert reference_gap(f, 0.5) == 0.0

    def test_missing_constant(self):
        with pytest.raises(MissingConstantError):
            classical_bounds(QUAD, 0.5, ClassicalConstants(lipschitz=2.0), which=["dnorm_p"])

    def test_all_bounds_dominate_gap_on_catalog(self):
        # hand-supplied exact constants per function
        cases = [
            (KINK, ClassicalConstants(total_variation=1.0, lipschitz=1.0,
                                      dnorm_inf=1.0, dnorm_p=1.0, p=2.0, dnorm_1=1.0)),
            (QUAD, ClassicalConstants(total_variation=1.0, lipschitz=2.0, monotone=True,
                                      dnorm_inf=2.0, dnorm_p=math.sqrt(4.0 / 3.0), p=2.0,
                                      dnorm_1=1.0)),
            (catalog("exp"), ClassicalConstants(total_variation=math.e - 1.0,
                                                lipschitz=math.e, monotone=True,
                                                dnorm_inf=math.e,
                                                dnorm_p=math.sqrt((math.e ** 2 - 1.0) / 2.0),
                                                p=2.0, dnorm_1=math.e - 1.0)),
        ]
        for f, consts in cases:
            for x in (0.1, 0.5, 0.9):
                g = abs(reference_gap(f, x))
                for name, bound in classical_bounds(f, x, consts):
                    assert bound >= g - 1e-12, (f.label, name, x)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            ClassicalConstants(total_variation=-1.0)
        with pytest.raises(ValueError):
            ClassicalConstants(dnorm_p=1.0)  # missing exponent


class TestSandwichProperties:
    def test_sandwich_on_catalog(self, test_catalog, rng):
        for f in test_catalog:
            a, b = f.domain.a, f.domain.b
            for x in a + (b - a) * rng.uniform(1e-6, 1.0 - 1e-6, size=200):
                g = reference_gap(f, x)
                q = GapQuery(f, x)
                assert lower_gap_bound(q) <= g + 1e-9, (f.label, x)
                assert g <= upper_gap_bound(q) + 1e-9, (f.label, x)

    def test_sharpness_equalities(self, rng):
        for _ in range(20):
            k = rng.uniform(0.1, 10.0)
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(0.1, 3.0)
            m = 0.5 * (a + b)
            f = catalog("kink", (k, m), Interval(a, b))
            q = GapQuery(f, m)
            expected = 0.25 * k * (b - a) ** 2
            for value in (lower_gap_bound(q), upper_gap_bound(q)):
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
            enc = _reference_integral(f, a, b)
            assert enc.lo <= kink_integral(k, m, a, b) <= enc.hi
