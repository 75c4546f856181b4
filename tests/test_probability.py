import math

import pytest

from trapbound.funcs import ConvexFunction, DomainError, Interval
from trapbound.pointwise import GapQuery, gap_enclosure
from trapbound.probability import (
    InvalidDensityError,
    best_expectation_enclosure,
    continuous_density,
    expectation_enclosure,
    expectation_via_cdf,
    midpoint_expectation_enclosure,
    piecewise_constant_density,
    validate_density,
)

UNIT = Interval(0.0, 1.0)


def triangular():
    # f(t) = 2t on [0, 1], E(X) = 2/3
    return continuous_density(UNIT, lambda t: 2.0 * t, "2t",
                              cdf=lambda t: t * t, mean=2.0 / 3.0)


def uniform():
    return continuous_density(UNIT, lambda t: 1.0, "uniform",
                              cdf=lambda t: t, mean=0.5)


def cubic_pull():
    # f(t) = 3t^2 on [0, 1], E(X) = 3/4
    return continuous_density(UNIT, lambda t: 3.0 * t * t, "3t^2",
                              cdf=lambda t: t ** 3, mean=0.75)


def step():
    return piecewise_constant_density(UNIT, (0.0, 0.5), (0.5, 1.5), "step")


ALL = [triangular, uniform, cubic_pull, step]


class TestDensities:
    def test_step_closed_forms(self):
        d = step()
        assert d.mean == pytest.approx(0.625, abs=1e-15)
        assert d.cdf(0.5) == pytest.approx(0.25, abs=1e-15)
        assert d.cdf(1.0) == pytest.approx(1.0, abs=1e-15)
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
                assert enc.lo <= d.mean + 1e-12, (d.label, x)
                assert d.mean <= enc.hi + 1e-12, (d.label, x)

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
            F = ConvexFunction(d.domain, d.cdf, d.right_limit, d.left_limit)
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
            assert best.lo <= d.mean + 1e-9 and d.mean <= best.hi + 1e-9, d.label
            assert d.domain.a <= best.x_used <= d.domain.b

    def test_gridpoints_validation(self):
        with pytest.raises(ValueError):
            best_expectation_enclosure(uniform(), gridpoints=2)


class TestExpectationViaCdf:
    def test_cross_checks_closed_form_means(self):
        for make in ALL:
            d = make()
            enc = expectation_via_cdf(d, eps=1e-8)
            assert enc.contains(d.mean, slack=1e-9), d.label
            assert enc.width <= 1e-7, d.label

    def test_consistent_with_pointwise_bounds(self):
        d = triangular()
        enc = expectation_via_cdf(d)
        mid = midpoint_expectation_enclosure(d)
        assert mid.lo <= enc.lo + 1e-9 and enc.hi <= mid.hi + 1e-9

    def test_requires_cdf(self):
        d = continuous_density(UNIT, lambda t: 2.0 * t, "no-cdf")
        with pytest.raises(ValueError):
            expectation_via_cdf(d)
