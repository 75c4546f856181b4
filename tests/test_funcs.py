import math

import pytest
from finite_difference import finite_difference_derivative

from trapbound.funcs import (
    ConvexFunction,
    DomainError,
    Interval,
    NonConvexityError,
    catalog,
    check_convexity,
)
from trapbound.quadrature import adaptive_integrate


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    iv = Interval(0.0, 2.0)
    assert iv.width == 2.0
    assert iv.midpoint == 1.0


class TestOneSidedDerivative:
    def test_kink_right(self):
        f = catalog("kink", (1.0, 0.5))
        assert f.d_plus(0.5) == 1.0

    def test_kink_left(self):
        f = catalog("kink", (1.0, 0.5))
        assert f.d_minus(0.5) == -1.0

    def test_smooth_point(self):
        f = catalog("quadratic")
        assert f.d_plus(0.5) == 1.0
        assert f.d_minus(0.5) == 1.0

    def test_endpoint_sides(self):
        f = catalog("quadratic")
        assert f.d_plus(0.0) == 0.0
        with pytest.raises(DomainError):
            f.d_minus(0.0)
        with pytest.raises(DomainError):
            f.d_plus(1.0)

    def test_outside_domain(self):
        f = catalog("quadratic")
        with pytest.raises(DomainError):
            f.d_minus(1.5)

    def test_infinite_endpoint(self):
        f = catalog("neg_log")
        assert f.d_plus(0.0) == -math.inf


class TestFiniteDifference:
    def test_quadratic_right(self):
        f = catalog("quadratic")
        est = finite_difference_derivative(f, 0.5, "right", h0=0.1, levels=8)
        # last one-sided quotient of t^2 is 2x + h; the bracket is h itself
        assert abs(est.value - 1.0) <= est.uncertainty + 1e-12
        assert est.method == "finite-difference"

    def test_quadratic_more_levels_tightens(self):
        f = catalog("quadratic")
        est = finite_difference_derivative(f, 0.5, "right", h0=0.1, levels=24)
        assert abs(est.value - 1.0) <= max(1e-6, est.uncertainty)

    def test_kink_quotient_constant(self):
        f = catalog("kink", (1.0, 0.5))
        est = finite_difference_derivative(f, 0.5, "right", h0=0.1, levels=4)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.uncertainty <= 1e-12

    def test_kink_quotient_exact_with_binary_steps(self):
        f = catalog("kink", (1.0, 0.5))
        est = finite_difference_derivative(f, 0.5, "right", h0=0.125, levels=4)
        assert est.value == 1.0
        assert est.uncertainty == 0.0

    def test_constant(self):
        f = catalog("constant", (3.0,))
        est = finite_difference_derivative(f, 0.5, "right", h0=0.1, levels=4)
        assert est.value == 0.0
        assert est.uncertainty == 0.0

    def test_left_side(self):
        f = catalog("quadratic")
        est = finite_difference_derivative(f, 0.5, "left", h0=0.1, levels=20)
        assert abs(est.value - 1.0) <= max(1e-5, est.uncertainty)

    def test_nonconvex_detected(self):
        f = ConvexFunction(Interval(0.0, 3.0), math.sin, math.cos, math.cos, "sin")
        with pytest.raises(NonConvexityError):
            finite_difference_derivative(f, 1.0, "right", h0=0.5, levels=6)

    def test_bad_parameters(self):
        f = catalog("quadratic")
        with pytest.raises(ValueError):
            finite_difference_derivative(f, 0.5, "right", h0=-1.0, levels=4)
        with pytest.raises(ValueError):
            finite_difference_derivative(f, 0.5, "right", h0=0.1, levels=1)
        with pytest.raises(DomainError):
            finite_difference_derivative(f, 0.99, "right", h0=0.1, levels=4)


class TestCheckConvexity:
    def test_exp_passes(self):
        assert check_convexity(catalog("exp")).passed

    def test_kink_passes(self):
        assert check_convexity(catalog("kink", (1.0, 0.5))).passed

    def test_sin_fails_in_concave_region(self):
        f = ConvexFunction(Interval(0.0, 3.0), math.sin, math.cos, math.cos, "sin")
        report = check_convexity(f)
        assert not report.passed
        assert report.worst_violation > 0
        # oracle: sin'' = -sin < 0 exactly where sin > 0
        _, t2, _ = report.witness
        assert math.sin(t2) > 0

class TestCatalog:
    # the certified enclosure of each family's integral holds its closed form
    def test_kink_integral(self):
        assert adaptive_integrate(catalog("kink", (1.0, 0.5)), 1e-12).integral.contains(0.25)

    def test_quadratic_integral(self):
        assert adaptive_integrate(catalog("quadratic"), 1e-12).integral.contains(1.0 / 3.0)

    def test_constant_integral(self):
        assert adaptive_integrate(catalog("constant", (5.0,), Interval(2.0, 3.0)), 1e-12).integral.contains(5.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("cubic_spline")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            catalog("power_p", (0.5,))
        with pytest.raises(ValueError):
            catalog("kink", (-1.0, 0.5))


class TestCatalogProperties:
    def test_one_sided_order_and_monotonicity(self, test_catalog, rng):
        for f in test_catalog:
            a, b = f.domain.a, f.domain.b
            xs = sorted(a + (b - a) * rng.uniform(0.001, 0.999, size=100))
            dplus = [f.d_plus(x) for x in xs]
            dminus = [f.d_minus(x) for x in xs]
            for dm, dp in zip(dminus, dplus):
                assert dm <= dp + 1e-12, f.label
            for seq in (dplus, dminus):
                for u, v in zip(seq, seq[1:]):
                    assert u <= v + 1e-12, f.label

    def test_finite_difference_matches_oracle_on_smooth(self, rng):
        smooth = [catalog("quadratic"), catalog("exp"), catalog("power_p", (3.0,)),
                  catalog("neg_log", (), Interval(0.5, 2.0)),
                  catalog("xlogx", (), Interval(0.5, 2.0))]
        for f in smooth:
            a, b = f.domain.a, f.domain.b
            for x in a + (b - a) * rng.uniform(0.05, 0.95, size=50):
                h0 = min(0.02 * (b - a), b - x, x - a)
                est = finite_difference_derivative(f, x, "right", h0=h0, levels=24)
                assert abs(est.value - f.d_plus(x)) <= max(1e-6, 2 * est.uncertainty), f.label
