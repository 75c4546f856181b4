import math

import pytest

from trapbound.funcs import ConvexFunction, DomainError, Interval
from trapbound.pointwise import Enclosure, GapQuery, gap_enclosure
from trapbound.probability import (
    InvalidDensityError,
    best_expectation_enclosure,
    continuous_density,
    expectation_enclosure,
    midpoint_expectation_enclosure,
    piecewise_constant_density,
    validate_density,
)
from trapbound.quadrature import adaptive_integrate

UNIT = Interval(0.0, 1.0)


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
        assert d.pdf(0.5) == 1.5
        assert d.left_limit(0.5) == 0.5
        assert d.right_limit(0.5) == 1.5

    def test_step_validation_of_breaks(self):
        with pytest.raises(ValueError):
            piecewise_constant_density(UNIT, (0.1,), (1.0,))
        with pytest.raises(ValueError):
            piecewise_constant_density(UNIT, (0.0, 0.5), (1.0,))


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


class TestExpectationEnclosure:
    def test_triangular_at_midpoint(self):
        enc = expectation_enclosure(triangular(), 0.5)
        assert enc.lo == pytest.approx(0.5, abs=1e-15)
        assert enc.hi == pytest.approx(0.75, abs=1e-15)
        assert enc.lo <= 2.0 / 3.0 <= enc.hi

    def test_uniform_is_pinned(self):
        enc = expectation_enclosure(uniform(), 0.5)
        assert enc.lo == enc.hi == pytest.approx(0.5, abs=1e-15)

    def test_step_jump_at_split_is_exact(self):
        # the density jump at 0.5 makes both sides collapse onto the mean
        enc = expectation_enclosure(step(), 0.5)
        assert enc.lo == pytest.approx(0.625, abs=1e-15)
        assert enc.hi == pytest.approx(0.625, abs=1e-15)

    def test_split_point_must_be_interior(self):
        with pytest.raises(DomainError):
            expectation_enclosure(uniform(), 0.0)
        with pytest.raises(DomainError):
            expectation_enclosure(uniform(), 1.0)

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
        # E(X) = x + gap of F at x, and both come from the same bracket
        for make in ALL:
            d = make()
            F = cdf_function(d)
            for x in (0.5, *(float(t) for t in rng.uniform(1e-6, 1.0 - 1e-6, size=20))):
                enc = expectation_enclosure(d, x)
                g = gap_enclosure(GapQuery(F, x))
                assert (enc.lo, enc.hi) == (g.lo + x, g.hi + x), (d.label, x)


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

    def test_gridpoints_validation(self):
        with pytest.raises(ValueError):
            best_expectation_enclosure(uniform(), gridpoints=2)

    def test_is_the_best_bound_over_the_grid(self):
        # lo: the best lower bound at the interior grid points; hi: the best
        # upper bound over the whole grid, its first minimizer as x_used
        for make in ALL:
            d = make()
            a, b = d.domain.a, d.domain.b
            ts = [a + (b - a) * i / 100 for i in range(101)]
            ts[-1] = b
            inner = [expectation_enclosure(d, x) for x in ts[1:-1]]
            his = ([0.5 * (b - a) ** 2 * d.left_limit(b) + a]
                   + [e.hi for e in inner]
                   + [b - 0.5 * (b - a) ** 2 * d.right_limit(a)])
            best_hi = min(his)
            expected = (max(e.lo for e in inner), best_hi, ts[his.index(best_hi)])
            assert best_expectation_enclosure(d, gridpoints=101) == expected, d.label

    def test_evaluates_the_density_about_twice_per_grid_point(self):
        calls = []

        def pdf(t):
            calls.append(t)
            return 2.0 * t

        d = continuous_density(UNIT, pdf, "2t")
        assert best_expectation_enclosure(d) == (0.5, 0.75, 0.5)
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
