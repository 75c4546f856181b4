import math
from fractions import Fraction

import pytest
from catalog_oracles import DEFAULT_SPECS, corpus_integral, exact_integral, reference

from trapbound.funcs import ConvexFunction, DomainError, Interval, catalog
from trapbound.pointwise import (
    ClassicalConstants,
    Enclosure,
    NotDifferentiableError,
    PreconditionError,
    classical_bounds,
    _reference_integral,
    differentiable_lower,
    gap_enclosure,
    hh_bounds,
    optimal_point_bound,
    window_inequality,
)

KINK = catalog("kink", (1.0, 0.5))
QUAD = catalog("quadratic")

#: families with f'+(0) = -inf, on intervals that start at the singular end
SINGULAR_SPECS = [("neg_log", (), Interval(0.0, 2.0)), ("xlogx", (), Interval(0.0, 1.0))]

#: (x, lower, upper) as float.hex for each family of DEFAULT_SPECS
PINNED_INTERIOR = {
    "kink": [
        ("0x1.999999999999ap-4", "-0x1.999999999999ap-2", "0x1.a3d70a3d70a3ep-2"),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
        ("0x1.6666666666666p-1", "-0x1.9999999999998p-3", "0x1.28f5c28f5c28fp-2"),
    ],
    "quadratic": [
        ("0x1.999999999999ap-4", "0x1.47ae147ae147cp-4", "0x1.9eb851eb851ecp-1"),
        ("0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-2"),
        ("0x1.6666666666666p-1", "-0x1.1eb851eb851eap-2", "0x1.70a3d70a3d70cp-4"),
    ],
    "exp": [
        ("0x1.999999999999ap-4", "0x1.c4ad91ef667bap-2", "0x1.188d2c7b1c1afp+0"),
        ("0x1.0000000000000p-1", "0x0.0p+0", "0x1.b7e151628aed2p-3"),
        ("0x1.6666666666666p-1", "-0x1.9c6aa350a75a4p-2", "-0x1.f67c7db90c9cap-4"),
    ],
    "neg_log": [
        ("0x1.4cccccccccccdp-1", "-0x1.6276276276277p+0", "-0x1.bb851eb851eb9p-2"),
        ("0x1.4000000000000p+0", "0x0.0p+0", "0x1.b000000000000p-2"),
        ("0x1.8ccccccccccccp+0", "0x1.294a5294a5292p-2", "0x1.0d47ae147ae12p+0"),
    ],
    "xlogx": [
        ("0x1.4cccccccccccdp-1", "0x1.064b9457792b3p-1", "0x1.8a17f8aba74f8p+0"),
        ("0x1.4000000000000p+0", "0x0.0p+0", "0x1.8f40b5ed9812ep-2"),
        ("0x1.8ccccccccccccp+0", "-0x1.4b5fba467e799p-1", "0x1.2aa6f55315400p-9"),
    ],
    "power_p": [
        ("0x1.999999999999ap-4", "0x1.89374bc6a7efbp-7", "0x1.370a3d70a3d71p+0"),
        ("0x1.0000000000000p-1", "0x0.0p+0", "0x1.8000000000000p-2"),
        ("0x1.6666666666666p-1", "-0x1.2d0e560418936p-2", "0x1.147ae147ae149p-3"),
    ],
    "linear": [
        ("0x1.999999999999ap-4", "0x1.999999999999ap-1", "0x1.999999999999ap-1"),
        ("0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.6666666666666p-1", "-0x1.9999999999998p-2", "-0x1.9999999999998p-2"),
    ],
    "constant": [
        ("0x1.0cccccccccccdp+1", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.4000000000000p+1", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.599999999999ap+1", "0x0.0p+0", "0x0.0p+0"),
    ],
}


def shifted_parabola():
    # t^2 - t on [0, 1]: endpoint slopes -1 and +1
    return ConvexFunction(
        Interval(0.0, 1.0),
        lambda t: t * t - t,
        lambda t: 2.0 * t - 1.0,
        lambda t: 2.0 * t - 1.0,
        "t^2 - t",
    )


def reference_gap(f, x, integral):
    # oracle: the defining formula with the exact integral of f
    a, b = f.domain.a, f.domain.b
    return (x - a) * f(a) + (b - x) * f(b) - integral


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

    def test_sub_domain_keeps_the_f2_range(self):
        # the window's sub-domain copy of f must keep its f'' range oracle
        calls = []

        def d2range(u, v):
            calls.append((u, v))
            return (2.0, 2.0, 0.0, 0.0, 0.0, 0.0)

        bare = ConvexFunction(QUAD.domain, QUAD.evaluate, QUAD.dplus, QUAD.dminus, "bare", _d2range=d2range)
        rep = window_inequality(bare, 0.5, 0.4)
        # the first cell is the whole window [x - h/2, x + h/2]
        assert calls[0] == (0.5 - 0.5 * 0.4, 0.5 + 0.5 * 0.4)
        assert rep.holds

    def test_split_point_outside_domain(self):
        with pytest.raises(DomainError, match=r"split point 1.5 outside \[0.0, 1.0\]"):
            gap_enclosure(QUAD, 1.5)


class TestGapBounds:
    def test_lower_kink_equality(self):
        assert gap_enclosure(KINK, 0.5).lo == pytest.approx(0.25, abs=1e-15)

    def test_lower_quadratic(self):
        lo = gap_enclosure(QUAD, 0.25).lo
        # oracle: x(1 - 2x) at x = 0.25 vs gap 5/12 from the antiderivative
        assert lo == pytest.approx(0.125, abs=1e-15)
        assert reference_gap(QUAD, 0.25, 1.0 / 3.0) == pytest.approx(5.0 / 12.0, rel=1e-12)
        assert lo <= reference_gap(QUAD, 0.25, 1.0 / 3.0)

    def test_lower_linear_is_exact(self):
        f = catalog("linear", (2.0, -1.0))
        for x in (0.2, 0.5, 0.8):
            assert gap_enclosure(f, x).lo == pytest.approx(reference_gap(f, x, 0.0), abs=1e-12)

    @pytest.mark.parametrize("name, params, iv", DEFAULT_SPECS + SINGULAR_SPECS)
    def test_contains_the_gap_at_the_ends(self, name, params, iv):
        # at x = a the gap is (b - a) f(b) - integral, at x = b (b - a) f(a) - integral
        f = catalog(name, params, iv)
        a, b = iv.a, iv.b
        for x, end in ((a, b), (b, a)):
            enc = gap_enclosure(f, x)
            if math.isinf(f(end)):
                # f(0) = inf for neg_log: the gap is +inf
                assert enc.hi == math.inf, (name, x)
                continue
            gap = reference(
                name, params,
                lambda fc, F, num: (num(b) - num(a)) * fc(num(end)) - (F(num(b)) - F(num(a))),
                b - a,
            )
            assert enc.lo <= gap <= enc.hi, (name, x, enc, gap)
        if (name, params, iv) in SINGULAR_SPECS:
            # f'+(0) = -inf: the lower side at a and the upper side at b are trivial
            assert gap_enclosure(f, a).lo == -math.inf
            assert gap_enclosure(f, b).hi == math.inf

    @pytest.mark.parametrize("spec", range(len(DEFAULT_SPECS)))
    def test_interior_bits_are_the_one_sided_bounds(self, spec):
        # float.hex of (x, lower, upper) from the separate lower and upper
        # bound functions that gap_enclosure replaced, at x = a + (b - a) t
        # for t = 0.1, 0.5, 0.7
        name, params, iv = DEFAULT_SPECS[spec]
        f = catalog(name, params, iv)
        for x, lo, hi in PINNED_INTERIOR[name]:
            enc = gap_enclosure(f, float.fromhex(x))
            assert (enc.lo.hex(), enc.hi.hex()) == (lo, hi), (name, x)

    def test_upper_kink_equality(self):
        assert gap_enclosure(KINK, 0.5).hi == pytest.approx(0.25, abs=1e-15)

    def test_upper_quadratic(self):
        assert gap_enclosure(QUAD, 0.5).hi == pytest.approx(0.25, abs=1e-15)
        assert gap_enclosure(QUAD, 0.5).hi >= reference_gap(QUAD, 0.5, 1.0 / 3.0)

    def test_upper_infinite_endpoint_derivative(self):
        f = catalog("neg_log")  # f'+(0) = -inf
        assert gap_enclosure(f, 0.5).hi == math.inf

    def test_upper_allowed_at_endpoints(self):
        assert gap_enclosure(QUAD, 0.0).hi == pytest.approx(1.0, abs=1e-15)
        assert gap_enclosure(QUAD, 1.0).hi == 0.0

    def test_enclosure_combines_both(self):
        enc = gap_enclosure(QUAD, 0.5)
        assert enc.lo == 0.0
        assert enc.hi == pytest.approx(0.25, abs=1e-15)
        assert enc.contains(1.0 / 6.0)
        kink_enc = gap_enclosure(KINK, 0.5)
        assert kink_enc.lo == kink_enc.hi == pytest.approx(0.25, abs=1e-15)
        const_enc = gap_enclosure(catalog("constant", (3.0,)), 0.4)
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
            g = gap_enclosure(f, f.domain.midpoint)
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
                assert value == pytest.approx(gap_enclosure(f, x).lo, rel=1e-12, abs=1e-12), f.label


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
        assert rep.gap_upper >= reference_gap(KINK, rep.x0, 0.25) - 1e-12

    def test_shifted_parabola(self):
        f = shifted_parabola()
        rep = optimal_point_bound(f)
        assert rep.x0 == pytest.approx(0.5, abs=1e-15)
        assert rep.gap_upper == pytest.approx(0.25, abs=1e-15)
        assert reference_gap(f, 0.5, -1.0 / 6.0) == pytest.approx(1.0 / 6.0, rel=1e-12)

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
        grid_min = min(gap_enclosure(f, x).hi for x in xs)
        assert rep.gap_upper <= grid_min + 1e-12
        assert grid_min - rep.gap_upper <= 1e-5  # grid resolution


class TestClassicalBounds:
    def test_kink_bounded_variation(self):
        bounds = dict(classical_bounds(KINK, 0.5, ClassicalConstants(total_variation=1.0)))
        assert bounds["bounded_variation"] == pytest.approx(0.5, abs=1e-15)
        assert bounds["bounded_variation"] >= abs(reference_gap(KINK, 0.5, 0.25))

    def test_quadratic_lipschitz(self):
        bounds = dict(classical_bounds(QUAD, 0.5, ClassicalConstants(lipschitz=2.0)))
        assert bounds["lipschitz"] == pytest.approx(0.5, abs=1e-15)
        assert bounds["lipschitz"] >= abs(reference_gap(QUAD, 0.5, 1.0 / 3.0))

    def test_constant_bv_zero(self):
        f = catalog("constant", (4.0,))
        bounds = dict(classical_bounds(f, 0.5, ClassicalConstants(total_variation=0.0)))
        assert bounds["bounded_variation"] == 0.0
        assert reference_gap(f, 0.5, 4.0) == 0.0

    def test_all_bounds_dominate_gap_on_catalog(self):
        # hand-supplied exact constants per function
        cases = [
            (KINK, 0.25, ClassicalConstants(total_variation=1.0, lipschitz=1.0,
                                      dnorm_inf=1.0, dnorm_p=1.0, p=2.0, dnorm_1=1.0)),
            (QUAD, 1.0 / 3.0, ClassicalConstants(total_variation=1.0, lipschitz=2.0, monotone=True,
                                      dnorm_inf=2.0, dnorm_p=math.sqrt(4.0 / 3.0), p=2.0,
                                      dnorm_1=1.0)),
            (catalog("exp"), float(exact_integral("exp", (), 0.0, 1.0)), ClassicalConstants(total_variation=math.e - 1.0,
                                                lipschitz=math.e, monotone=True,
                                                dnorm_inf=math.e,
                                                dnorm_p=math.sqrt((math.e ** 2 - 1.0) / 2.0),
                                                p=2.0, dnorm_1=math.e - 1.0)),
        ]
        for f, integral, consts in cases:
            for x in (0.1, 0.5, 0.9):
                g = abs(reference_gap(f, x, integral))
                for name, bound in classical_bounds(f, x, consts):
                    assert bound >= g - 1e-12, (f.label, name, x)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            ClassicalConstants(total_variation=-1.0)
        with pytest.raises(ValueError):
            ClassicalConstants(dnorm_p=1.0)  # missing exponent


class TestSandwichProperties:
    def test_sandwich_on_catalog(self, test_catalog, rng):
        for i, f in enumerate(test_catalog):
            a, b = f.domain.a, f.domain.b
            for x in a + (b - a) * rng.uniform(1e-6, 1.0 - 1e-6, size=200):
                g = reference_gap(f, x, corpus_integral(i))
                enc = gap_enclosure(f, x)
                assert enc.lo <= g + 1e-9, (f.label, x)
                assert g <= enc.hi + 1e-9, (f.label, x)

    def test_sharpness_equalities(self, rng):
        for _ in range(20):
            k = rng.uniform(0.1, 10.0)
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(0.1, 3.0)
            m = 0.5 * (a + b)
            f = catalog("kink", (k, m), Interval(a, b))
            enc = gap_enclosure(f, m)
            expected = 0.25 * k * (b - a) ** 2
            for value in (enc.lo, enc.hi):
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
            enc = _reference_integral(f, a, b)
            assert enc.lo <= kink_integral(k, m, a, b) <= enc.hi
