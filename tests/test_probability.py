import math
import sys
from fractions import Fraction

import pytest

from trapbound.funcs import ConvexFunction, DomainError, Interval
from trapbound.pointwise import Enclosure, gap_enclosure
from trapbound.probability import (
    _DENSITY_GRIDPOINTS,
    _EXPECTATION_GRIDPOINTS,
    _NORMALIZATION_CELLS,
    _expectation_bracket,
    best_expectation_enclosure,
    continuous_density,
    expectation_enclosure,
    midpoint_expectation_enclosure,
    piecewise_constant_density,
    validate_density,
)
from trapbound.quadrature import adaptive_integrate

UNIT = Interval(0.0, 1.0)
EPS = Fraction(sys.float_info.epsilon)


def triangular():
    return continuous_density(UNIT, lambda t: 2.0 * t, "2t")


def uniform():
    return continuous_density(UNIT, lambda t: 1.0, "uniform")


def cubic_pull():
    return continuous_density(UNIT, lambda t: 3.0 * t * t, "3t^2")


def step():
    return piecewise_constant_density(UNIT, (0.0, 0.5), (0.5, 1.5), "step")


ALL = [triangular, uniform, cubic_pull, step]

#: closed-form (cdf, mean) of each density above, by label
CLOSED_FORMS = {
    "2t": (lambda t: t * t, 2.0 / 3.0),
    "uniform": (lambda t: t, 0.5),
    "3t^2": (lambda t: t ** 3, 0.75),
    "step": (lambda t: 0.5 * t if t <= 0.5 else 1.5 * t - 0.5, 0.625),
}


def mean(d):
    return CLOSED_FORMS[d.label][1]


def exact_bracket(d, x):
    """The paper's bracket for E(X) at x in (a, b) in rational arithmetic, from
    the float values of the density's limits, cut to the support [a, b] where
    E(X) lies: what the enclosure must hold."""
    a, b, t = Fraction(d.domain.a), Fraction(d.domain.b), Fraction(x)
    wl, wr = (b - t) ** 2, (t - a) ** 2
    lo = (wl * Fraction(d.right_limit(x)) - wr * Fraction(d.left_limit(x))) / 2 + t
    hi = (wl * Fraction(d.left_limit(d.domain.b)) - wr * Fraction(d.right_limit(d.domain.a))) / 2 + t
    return max(lo, a), min(hi, b)


def assert_tight_enclosure(enc, d, x):
    """enc holds the exact bracket at zero slack, each end within 5 eps of
    (b-a)^2 max|f| + |x|, the scale of its rounding error."""
    lo, hi = exact_bracket(d, x)
    assert Fraction(enc.lo) <= lo and hi <= Fraction(enc.hi), (d.label, x, enc)
    a, b = d.domain.a, d.domain.b
    fs = (d.right_limit(a), d.left_limit(b), d.right_limit(x), d.left_limit(x))
    scale = Fraction((b - a) ** 2 * max(map(abs, fs)) + abs(x))
    assert lo - Fraction(enc.lo) <= 5 * EPS * scale and Fraction(enc.hi) - hi <= 5 * EPS * scale, (d.label, x)


def cdf_function(d):
    """The cdf of d: convex, with the one-sided limits of d as its slopes."""
    return ConvexFunction(d.domain, CLOSED_FORMS[d.label][0], d.right_limit, d.left_limit, f"cdf of {d.label}")


def expectation_via_cdf(d):
    """E(X) = b - integral of the cdf, from its certified enclosure."""
    integral = adaptive_integrate(cdf_function(d), eps=1e-8, max_cells=200_000).integral
    return Enclosure(d.domain.b - integral.hi, d.domain.b - integral.lo)


class TestDensities:
    def test_step_closed_forms(self):
        d = step()
        # right continuous at the jump
        assert d.left_limit(0.5) == 0.5
        assert d.right_limit(0.5) == 1.5

    def test_step_validation_of_breaks(self):
        with pytest.raises(ValueError):
            piecewise_constant_density(UNIT, (0.1,), (1.0,))
        with pytest.raises(ValueError):
            piecewise_constant_density(UNIT, (0.0, 0.5), (1.0,))

    def test_nan_first_break_rejected(self):
        # accepted, a NaN first break inverts the enclosure at x = 0.5 to (0.625, 0.5)
        with pytest.raises(ValueError, match="must start at domain.a"):
            piecewise_constant_density(UNIT, (math.nan, 0.5), (0.5, 1.5))

    @pytest.mark.parametrize("breaks", [(0.0, 0.7, 0.3), (0.0, 0.5, 0.5), (0.0, 1.0), (0.0, 1.5), (0.0, math.nan)])
    def test_breaks_must_increase_strictly_below_b(self, breaks):
        # accepted, (0, 0.7, 0.3) makes right_limit(0.5) read 0.5, not 1
        with pytest.raises(ValueError, match="must increase strictly"):
            piecewise_constant_density(UNIT, breaks, (0.5, 1.0, 1.5)[:len(breaks)])


class TestValidateDensity:
    def test_accepts_all_examples(self):
        for make in ALL:
            report = validate_density(make())
            assert report.valid, (make().label, report.messages)
            lo, hi = report.normalization
            assert lo <= 1.0 + 1e-6 and hi >= 1.0 - 1e-6

    def test_rejects_decreasing(self):
        d = continuous_density(UNIT, lambda t: 2.0 - 2.0 * t, "2-2t")
        report = validate_density(d)
        assert not report.valid
        assert not report.nondecreasing
        assert any("monotone" in m for m in report.messages)

    def test_rejects_negative(self):
        d = continuous_density(UNIT, lambda t: t - 0.5, "t-0.5")
        report = validate_density(d)
        assert not report.valid
        assert not report.nonnegative

    def test_rejects_unnormalized(self):
        d = continuous_density(UNIT, lambda t: 4.0 * t, "4t")
        report = validate_density(d)
        assert not report.valid
        assert report.nonnegative and report.nondecreasing
        lo, hi = report.normalization
        assert lo > 1.0 + 1e-6

    def test_continuous_density_read_once_per_point(self):
        # the 201 points of the sampled checks, and the 4,097 ends of the
        # mass bracket's cells, each read once: the left limit at a cell's
        # right end is the right limit at the next cell's left end
        calls = []

        def pdf(t):
            calls.append(t)
            return 2.0 * t

        validate_density(continuous_density(UNIT, pdf, "2t"))
        assert len(calls) == _DENSITY_GRIDPOINTS + _NORMALIZATION_CELLS + 1
        assert len(calls) == 201 + 4_097

    @pytest.mark.parametrize("make", ALL, ids=lambda make: make().label)
    def test_mass_bracket_bits(self, make):
        # the bracket of two reads per cell, summed in the same order
        d = make()
        a, b = d.domain.a, d.domain.b
        h = (b - a) / _NORMALIZATION_CELLS
        lo = hi = 0.0
        for i in range(_NORMALIZATION_CELLS):
            u = a + i * h
            v = b if i == _NORMALIZATION_CELLS - 1 else a + (i + 1) * h
            lo += d.right_limit(u) * (v - u)
            hi += d.left_limit(v) * (v - u)
        assert validate_density(d).normalization == (lo, hi)


class TestExpectationEnclosure:
    def test_triangular_at_midpoint(self):
        enc = expectation_enclosure(triangular(), 0.5)
        assert enc.lo == pytest.approx(0.5, abs=1e-15)
        assert enc.hi == pytest.approx(0.75, abs=1e-15)
        assert enc.lo <= 2.0 / 3.0 <= enc.hi

    def test_uniform_is_pinned(self):
        # both sides of the bracket are exactly 0.5; the enclosure holds it
        # with each end moved out by no more than its rounding error bound
        enc = expectation_enclosure(uniform(), 0.5)
        assert enc.lo < 0.5 < enc.hi
        assert_tight_enclosure(enc, uniform(), 0.5)

    def test_cancelling_terms_contain_the_mean(self):
        # uniform on [-1, 1] at 0.1: the squares 0.81 and 1.21 round up and the
        # cancelling difference gave [-2.8e-17, -2.8e-17] with the shift alone
        # rounded outward, excluding E(X) = 0
        d = continuous_density(Interval(-1.0, 1.0), lambda t: 0.5, "uniform on [-1, 1]")
        enc = expectation_enclosure(d, 0.1)
        assert enc.lo <= 0.0 <= enc.hi
        assert_tight_enclosure(enc, d, 0.1)
        best = best_expectation_enclosure(d)
        assert best.lo <= 0.0 <= best.hi

    def test_step_jump_at_split_is_exact(self):
        # the density jump at 0.5 makes both sides collapse onto the mean
        enc = expectation_enclosure(step(), 0.5)
        assert enc.lo == pytest.approx(0.625, abs=1e-15)
        assert enc.hi == pytest.approx(0.625, abs=1e-15)

    def test_split_point_outside_the_support_raises(self):
        for x in (-1e-300, 1.0 + 2.0 ** -52, -math.inf, math.nan):
            with pytest.raises(DomainError):
                expectation_enclosure(uniform(), x)

    def test_split_at_an_end_is_the_grid_bracket_there(self):
        # at x = a only f(a+) is weighted, at x = b only f(b-), as in the
        # best-grid search, whose ends these are
        for make in ALL:
            d = make()
            a, b = d.domain.a, d.domain.b
            fa, fb = d.right_limit(a), d.left_limit(b)
            for x in (a, b):
                enc = expectation_enclosure(d, x)
                lo, hi = _expectation_bracket(a, b, x, fa, fb, fa, fb)
                assert (enc.lo, enc.hi) == (max(lo, a), min(hi, b)), (d.label, x)
                assert enc.x_used == x
                assert enc.lo <= mean(d) <= enc.hi, (d.label, x)

    def test_midpoint_of_a_one_ulp_support_is_an_end(self):
        # the float midpoint of adjacent floats rounds onto a
        a, b = 1.0, 1.0 + 2.0 ** -52
        d = continuous_density(Interval(a, b), lambda t: 2.0 ** 52, "one ulp")
        enc = midpoint_expectation_enclosure(d)
        assert enc.x_used == a
        assert Fraction(enc.lo) <= (Fraction(a) + Fraction(b)) / 2 <= Fraction(enc.hi), enc

    def test_enclosure_is_cut_to_the_support(self):
        # E(X) lies in [a, b]: 2^52 on one ulp gave lo = 1 - 6.7e-16 at x = a,
        # and 3t^2 at x = 0 gave [-5e-324, 1.5000000000000016]
        one_ulp = continuous_density(Interval(1.0, 1.0 + 2.0 ** -52), lambda t: 2.0 ** 52, "one ulp")
        assert expectation_enclosure(one_ulp, 1.0) == (1.0, 1.0 + 2.0 ** -52, 1.0)
        assert expectation_enclosure(cubic_pull(), 0.0) == (0.0, 1.0, 0.0)
        for make in ALL:
            d = make()
            for x in (0.0, 0.25, 0.5, 1.0):
                enc = expectation_enclosure(d, x)
                assert 0.0 <= enc.lo <= mean(d) <= enc.hi <= 1.0, (d.label, x, enc)

    def test_containment_at_random_splits(self, rng):
        for make in ALL:
            d = make()
            for x in rng.uniform(1e-6, 1.0 - 1e-6, size=100):
                enc = expectation_enclosure(d, float(x))
                assert enc.lo <= mean(d) + 1e-12, (d.label, x)
                assert mean(d) <= enc.hi + 1e-12, (d.label, x)

    def test_midpoint_variant_is_the_midpoint_split(self):
        for make in ALL:
            d = make()
            mid = midpoint_expectation_enclosure(d)
            ref = expectation_enclosure(d, d.domain.midpoint)
            assert mid == ref, d.label

    def test_is_the_gap_bracket_of_the_cdf(self, rng):
        # E(X) = x + gap of F at x: the enclosure holds the gap bracket of the
        # cdf shifted by x, rounded or exact, and is tight around it
        for make in ALL:
            d = make()
            F = cdf_function(d)
            for x in (0.5, *(float(t) for t in rng.uniform(1e-6, 1.0 - 1e-6, size=20))):
                enc = expectation_enclosure(d, x)
                g = gap_enclosure(F, x)
                # outside it, unless cut to the support [0, 1]
                assert enc.lo < g.lo + x or enc.lo == 0.0, (d.label, x)
                assert g.hi + x < enc.hi or enc.hi == 1.0, (d.label, x)
                assert_tight_enclosure(enc, d, x)


class TestBestEnclosure:
    def test_never_wider_than_midpoint(self):
        for make in ALL:
            d = make()
            best = best_expectation_enclosure(d)
            mid = midpoint_expectation_enclosure(d)
            assert best.lo >= mid.lo - 1e-12, d.label
            assert best.hi <= mid.hi + 1e-12, d.label

    def test_contains_mean(self):
        for make in ALL:
            d = make()
            best = best_expectation_enclosure(d)
            assert best.lo <= mean(d) + 1e-9 and mean(d) <= best.hi + 1e-9, d.label
            assert d.domain.a <= best.x_used <= d.domain.b

    def test_uniform_on_unit_interval_contains_its_mean(self):
        # rounded to nearest, the shift gave [0.5, 0.49999999999999994]
        best = best_expectation_enclosure(uniform())
        assert best.lo <= 0.5 <= best.hi

    def test_one_ulp_support_contains_its_mean(self):
        # the mean 1 + 2^-53 lies between two floats; both shifts rounded to 1.0
        a, b = 1.0, 1.0 + 2.0 ** -52
        d = continuous_density(Interval(a, b), lambda t: 2.0 ** 52, "one ulp")
        best = best_expectation_enclosure(d)
        assert Fraction(best.lo) <= (Fraction(a) + Fraction(b)) / 2 <= Fraction(best.hi), best
        # cut to the support: the unclipped sides were 1 - 6.7e-16 and 1 + 6.7e-16
        assert best == (a, b, a)

    def test_is_the_best_bound_over_the_grid(self):
        # the best lower and upper bounds over the whole module grid, the
        # ends included, with the first minimizer of the upper as x_used,
        # then cut to the support
        for make in ALL:
            d = make()
            a, b = d.domain.a, d.domain.b
            n = _EXPECTATION_GRIDPOINTS
            ts = [a + (b - a) * i / (n - 1) for i in range(n)]
            ts[-1] = b
            fa, fb = d.right_limit(a), d.left_limit(b)
            inner = [_expectation_bracket(a, b, x, d.right_limit(x), d.left_limit(x), fa, fb) for x in ts[1:-1]]
            # at x = a only f(a+) is weighted, at x = b only f(b-)
            lo_a, hi_a = _expectation_bracket(a, b, a, fa, fb, fa, fb)
            lo_b, hi_b = _expectation_bracket(a, b, b, fa, fb, fa, fb)
            # the sides there, moved outward
            assert lo_a < 0.5 * (b - a) ** 2 * fa + a and 0.5 * (b - a) ** 2 * fb + a < hi_a
            los = [lo_a] + [lo for lo, _ in inner] + [lo_b]
            his = [hi_a] + [hi for _, hi in inner] + [hi_b]
            best_hi = min(his)
            expected = (max(max(los), a), min(best_hi, b), ts[his.index(best_hi)])
            assert best_expectation_enclosure(d) == expected, d.label

    def test_evaluates_the_density_about_twice_per_grid_point(self):
        calls = []

        def pdf(t):
            calls.append(t)
            return 2.0 * t

        d = continuous_density(UNIT, pdf, "2t")
        best = best_expectation_enclosure(d)
        # the best bounds 0.5 and 0.75 are attained at x = 0.5
        assert best.x_used == 0.5
        assert 0 < 0.5 - best.lo <= 8 * math.ulp(0.5) and 0 < best.hi - 0.75 <= 8 * math.ulp(0.75)
        # f(x+) and f(x-) at the 999 interior points, f(a+) and f(b-) once
        assert len(calls) == 2000


class TestExpectationViaCdf:
    def test_cross_checks_closed_form_means(self):
        for make in ALL:
            d = make()
            enc = expectation_via_cdf(d)
            assert enc.contains(mean(d), slack=1e-9), d.label
            assert enc.width <= 1e-7, d.label

    def test_consistent_with_pointwise_bounds(self):
        d = triangular()
        enc = expectation_via_cdf(d)
        mid = midpoint_expectation_enclosure(d)
        assert mid.lo <= enc.lo + 1e-9 and enc.hi <= mid.hi + 1e-9
