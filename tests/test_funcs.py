import math
from fractions import Fraction

import pytest
from finite_difference import finite_difference_derivative

from trapbound.expr import to_convex_function
from trapbound.funcs import (
    _CONVEXITY_GRIDPOINTS,
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
        with pytest.raises(DomainError, match=r"^1\.5 outside domain \[0\.0, 1\.0\] of 'quadratic'$"):
            f(1.5)

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

    def test_wide_interval_grid_stays_in_the_interval(self):
        # (b - a) i overflows once b - a passes 1.8e306: the grid read f(inf),
        # and every --fn command on such an interval exited 1
        g = to_convex_function("exp(-1e-308*x)", Interval(1e308, 1.7e308))
        calls = []
        f = ConvexFunction(g.domain, lambda t: calls.append(t) or g(t), g.d_plus, g.d_minus, g.label)
        assert check_convexity(f).passed
        a, b, n = Fraction(1e308), Fraction(1.7e308), _CONVEXITY_GRIDPOINTS
        assert len(calls) == n and calls[0] == 1e308 and calls[-1] == 1.7e308
        for i, t in enumerate(calls):
            # in [a, b], within the two roundings of the grid formula and that of the sum
            assert 1e308 <= t <= 1.7e308
            assert abs(Fraction(t) - (a + (b - a) * i / (n - 1))) <= 2 * Fraction(math.ulp(t)), (i, t)

class TestCatalog:
    # the certified enclosure of each family's integral holds its closed form
    def test_kink_integral(self):
        assert adaptive_integrate(catalog("kink", (1.0, 0.5)), 1e-12).integral.contains(0.25)

    def test_quadratic_integral(self):
        assert adaptive_integrate(catalog("quadratic"), 1e-12).integral.contains(1.0 / 3.0)

    def test_constant_integral(self):
        assert adaptive_integrate(catalog("constant", (5.0,), Interval(2.0, 3.0)), 1e-12).integral.contains(5.0)

    @pytest.mark.parametrize("name, params, iv", [
        ("quadratic", (), Interval(-2.0, 1.0)), ("exp", (), Interval(-1.0, 2.0)),
        ("neg_log", (), Interval(0.0, 2.0)), ("xlogx", (), Interval(0.0, 2.0)),
        ("power_p", (2.5,), Interval(0.0, 2.0)), ("power_p", (1.0,), Interval(0.0, 2.0)),
        ("linear", (2.0, -1.0), Interval(-1.0, 1.0)), ("constant", (5.0,), Interval(2.0, 3.0)),
    ])
    def test_one_slope_for_both_sides(self, name, params, iv):
        # every entry but kink is differentiable: one oracle is f'+ and f'-,
        # so fixed partitions read each node's slope once
        f = catalog(name, params, iv)
        assert f.dplus is f.dminus
        # on (a, b] it gives the f'- each entry wrote apart before
        old_dminus = {"neg_log": lambda t: -1.0 / t, "xlogx": lambda t: math.log(t) + 1.0}.get(name)
        for i in range(1, 65):
            t = iv.a + (iv.b - iv.a) * i / 64
            assert repr(f.d_minus(t)) == repr(f.dplus(t)), (name, t)
            if old_dminus is not None:
                assert repr(f.d_minus(t)) == repr(old_dminus(t)), (name, t)
        assert f.d_plus(iv.a) == (-math.inf if name in ("neg_log", "xlogx") else f.dplus(iv.a))

    def test_a_kink_keeps_two_slopes(self):
        f = catalog("kink", (1.0, 0.5))
        assert f.dplus is not f.dminus
        assert (f.d_minus(0.5), f.d_plus(0.5)) == (-1.0, 1.0)

    def test_dminus_defaults_to_dplus(self):
        f = ConvexFunction(Interval(0.0, 1.0), math.exp, math.exp)
        assert f.dminus is f.dplus is math.exp
        g = ConvexFunction(Interval(0.0, 1.0), abs, lambda t: 1.0, lambda t: -1.0)
        assert g.dminus is not g.dplus

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("cubic_spline")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            catalog("power_p", (0.5,))
        with pytest.raises(ValueError):
            catalog("kink", (-1.0, 0.5))

    @pytest.mark.parametrize("name, params, interval, message", [
        ("kink", (1.0,), None, r"^kink expects params \(k, c\)$"),
        ("kink", (1.0, 2.0), None, r"^kink point 2\.0 outside \[0\.0, 1\.0\]$"),
        ("neg_log", (), Interval(-1.0, 1.0), r"^neg_log requires an interval with a >= 0$"),
        ("xlogx", (), Interval(-1.0, 1.0), r"^xlogx requires an interval with a >= 0$"),
        ("power_p", (), None, r"^power_p expects params \(p,\)$"),
        ("power_p", (2.0,), Interval(-1.0, 1.0), r"^power_p requires an interval with a >= 0$"),
        ("linear", (1.0,), None, r"^linear expects params \(m, c\)$"),
        ("constant", (), None, r"^constant expects params \(c,\)$"),
        # an entry without parameters takes none
        ("exp", (2.0,), None, r"^exp expects params \(\)$"),
        # every parameter is finite, checked before the entry's own rules
        ("constant", (math.inf,), None, r"^constant params must be finite, got \(inf,\)$"),
        ("constant", (math.nan,), None, r"^constant params must be finite, got \(nan,\)$"),
        ("kink", (math.nan, 0.5), None, r"^kink params must be finite, got \(nan, 0\.5\)$"),
        ("linear", (math.inf, 0.0), None, r"^linear params must be finite, got \(inf, 0\.0\)$"),
        ("power_p", (math.inf,), None, r"^power_p params must be finite, got \(inf,\)$"),
    ])
    def test_each_parameter_refusal(self, name, params, interval, message):
        with pytest.raises(ValueError, match=message):
            catalog(name, params, interval)


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
