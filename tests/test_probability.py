import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from trapbound.funcs import ConvexFunction, DomainError, Interval
from trapbound.pointwise import Enclosure, gap_enclosure
from trapbound.expr import to_function
from trapbound.probability import (
    _MASS_CELLS,
    _MASS_CELLS_MAX,
    _expectation_bracket,
    MonotoneDensity,
    continuous_density,
    expectation_enclosure,
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


def exact_bracket(d, x, mass):
    """The paper's bracket for E(X) = x + T/m at x in (a, b) in rational
    arithmetic, from the float values of the density's limits, each side of T
    divided by the end of the mass bracket that moves it out, cut to the
    support [a, b] where E(X) lies: what the enclosure must hold."""
    a, b, t = Fraction(d.domain.a), Fraction(d.domain.b), Fraction(x)
    m_lo, m_hi = map(Fraction, mass)
    wl, wr = (b - t) ** 2, (t - a) ** 2
    lo = (wl * Fraction(d.right_limit(x)) - wr * Fraction(d.left_limit(x))) / 2
    hi = (wl * Fraction(d.left_limit(d.domain.b)) - wr * Fraction(d.right_limit(d.domain.a))) / 2
    lo = lo / (m_lo if lo < 0 else m_hi) + t
    hi = hi / (m_hi if hi < 0 else m_lo) + t
    return max(lo, a), min(hi, b)


def assert_tight_enclosure(enc, d, x, mass=(1.0, 1.0)):
    """enc holds the exact bracket at zero slack, each end within 5 eps of
    (b-a)^2 max|f| / m_lo + |x|, the scale of its rounding error."""
    lo, hi = exact_bracket(d, x, mass)
    assert Fraction(enc.lo) <= lo and hi <= Fraction(enc.hi), (d.label, x, enc)
    a, b = d.domain.a, d.domain.b
    fs = (d.right_limit(a), d.left_limit(b), d.right_limit(x), d.left_limit(x))
    scale = Fraction((b - a) ** 2 * max(map(abs, fs)) / mass[0] + abs(x))
    assert lo - Fraction(enc.lo) <= 5 * EPS * scale and Fraction(enc.hi) - hi <= 5 * EPS * scale, (d.label, x)


def grid_enclosures(d, mass, n=1001):
    """The enclosures at n equispaced splits, the ends included, each with
    the mass bracket ``mass``: the best bound over the grid, [max lo, min hi],
    holds the mean exactly when each of them does."""
    a, b = d.domain.a, d.domain.b
    return [expectation_enclosure(d, x, mass) for x in [a + (b - a) * i / (n - 1) for i in range(n - 1)] + [b]]


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
    @pytest.mark.parametrize("x", [None, -1e155, 0.5e155, 1e155])
    def test_wide_support_sizes_its_walk_without_overflow(self, x):
        # (b - x)^2 overflows to 1e310 while the weights over (b - a)^2 do not
        d = continuous_density(Interval(-1e155, 1e155), lambda t: 5e-156, "flat")
        report = validate_density(d, x)
        lo, hi = report.normalization
        assert report.valid and lo <= Fraction(5e-156) * Fraction(2e155) <= hi

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

    @pytest.mark.parametrize("slope", [1e-7, 2e-4])
    def test_inverted_mass_bracket_refutes_monotonicity(self, slope):
        # each read falls below the one before by less than the sample slack;
        # the Riemann bracket of a nondecreasing f cannot invert
        d = continuous_density(UNIT, lambda t: 1.0 - slope * t, "falling")
        report = validate_density(d)
        lo, hi = report.normalization
        assert lo > hi and report.nonnegative
        assert not report.nondecreasing and not report.valid
        assert report.messages == ("density is not monotone nondecreasing on the sampled grid",)

    def test_rejects_negative(self):
        d = continuous_density(UNIT, lambda t: t - 0.5, "t-0.5")
        report = validate_density(d)
        assert not report.valid
        assert not report.nonnegative

    def test_accepts_unnormalized(self):
        # the mass bracket is used, not tested against 1: 4t has mass 2 and
        # the mean 2/3 of its normalized form 2t
        d = continuous_density(UNIT, lambda t: 4.0 * t, "4t")
        report = validate_density(d)
        assert report.valid and report.messages == ()
        lo, hi = report.normalization
        assert lo < 2.0 < hi and hi - lo < 2.0 / 64
        enc = expectation_enclosure(d, 0.5, report.normalization)
        assert enc.lo <= 2.0 / 3.0 <= enc.hi

    @pytest.mark.parametrize("pdf", [lambda t: 0.0, lambda t: -0.0, lambda t: 0.0 if t < 1.0 else 1.0])
    def test_mass_that_may_be_zero_is_invalid(self, pdf):
        # the last one is positive at b alone: no grid shows mass left of b
        d = continuous_density(UNIT, pdf, "null")
        report = validate_density(d)
        assert report.nonnegative and report.nondecreasing and not report.valid
        assert report.normalization[0] <= 0.0
        assert report.messages == (
            "total mass bracket [%.9g, %.9g] does not exclude 0" % report.normalization,)
        # no division by such a bracket: any mean lies in the support
        assert expectation_enclosure(d, 0.5) == Enclosure(0.0, 1.0)

    def test_infinite_mass_bracket_is_invalid(self):
        d = continuous_density(UNIT, lambda t: math.inf if t == 1.0 else 1.0, "inf at b")
        report = validate_density(d)
        assert not report.valid and report.normalization[1] == math.inf
        assert report.messages[-1].endswith("is not finite")

    def test_continuous_density_read_once_per_point(self):
        # 2t needs no more than the first grid: its 257 points, each read
        # once; they were 201 + 4_097 reads on two grids
        calls = []

        def pdf(t):
            calls.append(t)
            return 2.0 * t

        validate_density(continuous_density(UNIT, pdf, "2t"))
        assert len(calls) == len(set(calls)) == _MASS_CELLS + 1 == 257
        assert sorted(calls) == [i / _MASS_CELLS for i in range(_MASS_CELLS + 1)]

    @pytest.mark.parametrize("src", ["2 - 2*x", "x - 0.5", "0.5 + 2*(x - 0.3)^2"])
    def test_a_failing_read_stops_the_walk_after_the_first_grid(self, src):
        # decreasing, negative, or decreasing on [0, 0.3] only: read on the
        # first grid and refined no further
        pdf = to_function(src)
        calls = []
        report = validate_density(continuous_density(UNIT, lambda t: calls.append(t) or pdf(t), src))
        assert not report.valid
        assert len(calls) == _MASS_CELLS + 1

    @pytest.mark.parametrize("rate, reads", [(0.0, 257), (6.0, 513), (80.0, 4097)])
    def test_walk_doubles_to_the_need_and_stops_at_the_cap(self, rate, reads):
        # the normalized exp(rate t) on [0, 1], split at 1/2: its mass bracket
        # is about rate/n wide and T_lo = 0, so n must reach 64 rate; rate 0
        # needs no more than the first grid, and rate 80 stops at the cap
        calls = []

        def pdf(t):
            calls.append(t)
            return rate / math.expm1(rate) * math.exp(rate * t) if rate else 1.0

        report = validate_density(continuous_density(UNIT, pdf))
        assert report.valid and len(calls) == len(set(calls)) == reads
        lo, hi = report.normalization
        assert lo <= 1.0 <= hi

    @pytest.mark.parametrize("make", ALL, ids=lambda make: make().label)
    def test_mass_bracket_bits(self, make):
        # the bracket of two reads per cell on the walk's first grid, summed
        # by sum() and moved out by gamma_(n+2) max|f| (b - a) and an ulp
        d = make()
        n = _MASS_CELLS
        a, b = d.domain.a, d.domain.b
        xs = [a + (b - a) * (i / n) for i in range(n)] + [b]
        right = [d.right_limit(u) for u in xs[:-1]]
        left = [d.left_limit(v) for v in xs[1:]]
        lo = sum(fu * (v - u) for fu, u, v in zip(right, xs, xs[1:]))
        hi = sum(fv * (v - u) for fv, u, v in zip(left, xs, xs[1:]))
        u = sys.float_info.epsilon / 2
        r = (n + 2) * u / (1 - (n + 2) * u) * max(map(abs, right + left)) * (b - a)
        assert validate_density(d).normalization == (math.nextafter(lo - r, -math.inf),
                                                     math.nextafter(hi + r, math.inf))


class TestExpectationEnclosure:
    def test_triangular_at_midpoint(self):
        # T is [0, 1/4]: E(X) lies in 1/2 + [0, 1/4] / [m_lo, m_hi]
        d = triangular()
        mass = validate_density(d, 0.5).normalization
        enc = expectation_enclosure(d, 0.5)
        assert enc.lo == pytest.approx(0.5, abs=1e-15)
        assert enc.hi == pytest.approx(0.5 + 0.25 / mass[0], abs=1e-15)
        assert enc.lo <= 2.0 / 3.0 <= enc.hi
        assert_tight_enclosure(enc, d, 0.5, mass)
        # with the exact mass, the paper's bracket [1/2, 3/4]
        exact = expectation_enclosure(d, 0.5, (1.0, 1.0))
        assert exact.lo == pytest.approx(0.5, abs=1e-15) and exact.hi == pytest.approx(0.75, abs=1e-15)
        assert exact.lo <= 2.0 / 3.0 <= exact.hi
        # 4t has the mean of 2t; its mass 2 is bracketed, which widens the
        # paper's bracket by less than 1/64
        double = expectation_enclosure(continuous_density(UNIT, lambda t: 4.0 * t, "4t"), 0.5)
        assert double.lo <= 2.0 / 3.0 <= double.hi <= exact.hi + 1.0 / 64

    def test_refuses_an_inverted_enclosure(self):
        # it is an Enclosure, which refuses lo above hi, as an inverted mass
        # bracket makes here, and a NaN side, as a NaN density value at x makes
        d = continuous_density(UNIT, lambda t: 1.0 - 2e-4 * t, "falling")
        with pytest.raises(ValueError, match="requires lo <= hi"):
            expectation_enclosure(d, 0.5, (0.99990002, 0.99989998))
        d = continuous_density(UNIT, lambda t: math.nan if t == 0.5 else 1.0, "NaN at 1/2")
        with pytest.raises(ValueError, match="must not be NaN"):
            expectation_enclosure(d, 0.5, (1.0, 1.0))
        assert isinstance(expectation_enclosure(uniform(), 0.5), Enclosure)

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
        assert_tight_enclosure(enc, d, 0.1, validate_density(d, 0.1).normalization)
        # the exact mass 1 leaves the rounding of T and of the shift alone;
        # near the middle T cancels terms about 500 times its size
        for x in (0.1, *(i / 1000 for i in range(-20, 21))):
            enc = expectation_enclosure(d, x, (1.0, 1.0))
            assert enc.lo <= 0.0 <= enc.hi, x
            assert_tight_enclosure(enc, d, x)
        for enc in grid_enclosures(d, validate_density(d).normalization):
            assert enc.lo <= 0.0 <= enc.hi, enc

    def test_step_jump_at_split_is_exact(self):
        # the density jump at 0.5 makes both sides collapse onto the mean;
        # the mass bracket of 4,096 cells is 1.4e-12 wide, and the exact mass 1
        # leaves the rounding alone
        enc = expectation_enclosure(step(), 0.5)
        assert enc.lo == pytest.approx(0.625, abs=1e-12)
        assert enc.hi == pytest.approx(0.625, abs=1e-12)
        enc = expectation_enclosure(step(), 0.5, (1.0, 1.0))
        assert enc.lo == pytest.approx(0.625, abs=1e-15)
        assert enc.hi == pytest.approx(0.625, abs=1e-15)
        # all the mass above the jump: uniform on [1/2, 1]
        upper = piecewise_constant_density(UNIT, (0.0, 0.5), (0.0, 2.0), "upper half")
        enc = expectation_enclosure(upper, 0.5, (1.0, 1.0))
        assert enc.lo == pytest.approx(0.75, abs=1e-12)
        assert enc.hi == pytest.approx(0.75, abs=1e-12)

    def test_split_point_outside_the_support_raises(self):
        # before the walk reads the density, with or without a mass given
        calls = []
        d = continuous_density(UNIT, lambda t: calls.append(t) or 1.0, "uniform")
        for x in (-1e-300, 1.0 + 2.0 ** -52, -math.inf, math.nan, 1e200):
            for call in (lambda: expectation_enclosure(d, x), lambda: expectation_enclosure(d, x, (1.0, 1.0)),
                         lambda: validate_density(d, x)):
                with pytest.raises(DomainError, match="split point must lie in"):
                    call()
        assert calls == []

    def test_split_at_an_end_is_the_grid_bracket_there(self):
        # at x = a only f(a+) is weighted, at x = b only f(b-)
        for make in ALL:
            d = make()
            a, b = d.domain.a, d.domain.b
            fa, fb = d.right_limit(a), d.left_limit(b)
            for x in (a, b):
                enc = expectation_enclosure(d, x)
                lo, hi = _expectation_bracket(a, b, x, fa, fb, fa, fb, validate_density(d, x).normalization)
                assert (enc.lo, enc.hi) == (max(lo, a), min(hi, b)), (d.label, x)
                assert enc.lo <= mean(d) <= enc.hi, (d.label, x)

    def test_midpoint_of_a_one_ulp_support_is_an_end(self):
        # the float midpoint of adjacent floats rounds onto a
        a, b = 1.0, 1.0 + 2.0 ** -52
        d = continuous_density(Interval(a, b), lambda t: 2.0 ** 52, "one ulp")
        assert d.domain.midpoint == a
        enc = expectation_enclosure(d, d.domain.midpoint)
        assert Fraction(enc.lo) <= (Fraction(a) + Fraction(b)) / 2 <= Fraction(enc.hi), enc

    def test_enclosure_is_cut_to_the_support(self):
        # E(X) lies in [a, b]: 2^52 on one ulp gave lo = 1 - 6.7e-16 at x = a,
        # and 3t^2 at x = 0 gave [-5e-324, 1.5000000000000016]
        one_ulp = continuous_density(Interval(1.0, 1.0 + 2.0 ** -52), lambda t: 2.0 ** 52, "one ulp")
        assert expectation_enclosure(one_ulp, 1.0) == Enclosure(1.0, 1.0 + 2.0 ** -52)
        assert expectation_enclosure(cubic_pull(), 0.0) == Enclosure(0.0, 1.0)
        for make in ALL:
            d = make()
            for x in (0.0, 0.25, 0.5, 1.0):
                enc = expectation_enclosure(d, x)
                assert 0.0 <= enc.lo <= mean(d) <= enc.hi <= 1.0, (d.label, x, enc)

    def test_containment_at_random_splits(self, rng):
        for make in ALL:
            d = make()
            for _ in range(100):
                x = rng.uniform(1e-6, 1.0 - 1e-6)
                enc = expectation_enclosure(d, x)
                assert enc.lo <= mean(d) + 1e-12, (d.label, x)
                assert mean(d) <= enc.hi + 1e-12, (d.label, x)

    def test_midpoint_variant_is_the_midpoint_split(self):
        # the paper's midpoint variant is the split at c = (a + b)/2, weights
        # (b - a)^2/4: (1/8)[f(c+) - f(c-)](b-a)^2 <= m (E(X) - c) <= (1/8)[f(b-) - f(a+)](b-a)^2,
        # both sides >= 0 for a nondecreasing f, so each is over the mass end that moves it out
        for make in ALL:
            d = make()
            a, b, c = d.domain.a, d.domain.b, d.domain.midpoint
            mass = validate_density(d, c).normalization
            w = Fraction(b - a) ** 2 / 8
            lo = w * (Fraction(d.right_limit(c)) - Fraction(d.left_limit(c))) / Fraction(mass[1])
            hi = w * (Fraction(d.left_limit(b)) - Fraction(d.right_limit(a))) / Fraction(mass[0])
            enc = expectation_enclosure(d, c)
            assert Fraction(enc.lo) <= c + lo and min(c + hi, b) <= Fraction(enc.hi), d.label
            assert_tight_enclosure(enc, d, c, mass)

    def test_is_the_gap_bracket_of_the_cdf(self, rng):
        # E(X) = x + gap of F at x: the enclosure holds the gap bracket of the
        # cdf shifted by x, rounded or exact, and is tight around it
        for make in ALL:
            d = make()
            F = cdf_function(d)
            for x in (0.5, *(rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(20))):
                enc = expectation_enclosure(d, x)
                g = gap_enclosure(F, x)
                # outside it, unless cut to the support [0, 1]
                assert enc.lo < g.lo + x or enc.lo == 0.0, (d.label, x)
                assert g.hi + x < enc.hi or enc.hi == 1.0, (d.label, x)
                assert_tight_enclosure(enc, d, x, validate_density(d, x).normalization)


class TestBestEnclosure:
    """The best bound over the 1,001 equispaced splits, each enclosure taken
    with the mass bracket sized for the midpoint."""

    def test_contains_mean(self):
        for make in ALL:
            d = make()
            encs = grid_enclosures(d, validate_density(d).normalization)
            lo, hi = max(enc.lo for enc in encs), min(enc.hi for enc in encs)
            assert lo <= mean(d) + 1e-9 and mean(d) <= hi + 1e-9, d.label
            assert all(d.domain.a <= enc.lo and enc.hi <= d.domain.b for enc in encs)

    def test_uniform_on_unit_interval_contains_its_mean(self):
        # rounded to nearest, the shift gave [0.5, 0.49999999999999994]; each
        # split of the grid with the exact mass 1 leaves that rounding alone
        d = uniform()
        for enc in grid_enclosures(d, validate_density(d).normalization):
            assert enc.lo <= 0.5 <= enc.hi, enc
        n = 1001
        for x in [i / (n - 1) for i in range(n)]:
            lo, hi = _expectation_bracket(0.0, 1.0, x, 1.0, 1.0, 1.0, 1.0, (1.0, 1.0))
            assert lo <= 0.5 <= hi, x

    def test_one_ulp_support_contains_its_mean(self):
        # the mean 1 + 2^-53 lies between two floats; both shifts rounded to 1.0
        a, b = 1.0, 1.0 + 2.0 ** -52
        d = continuous_density(Interval(a, b), lambda t: 2.0 ** 52, "one ulp")
        encs = grid_enclosures(d, validate_density(d).normalization)
        for enc in encs:
            assert Fraction(enc.lo) <= (Fraction(a) + Fraction(b)) / 2 <= Fraction(enc.hi), enc
        # cut to the support: the unclipped sides were 1 - 6.7e-16 and 1 + 6.7e-16
        assert all(enc == Enclosure(a, b) for enc in encs)


def step_mass_and_mean(domain, breaks, values):
    """The exact mass and normalized mean of a step density."""
    edges = [Fraction(t) for t in (*breaks, domain.b)]
    cells = list(zip(edges, edges[1:], map(Fraction, values)))
    mass = sum(v * (hi - lo) for lo, hi, v in cells)
    return mass, sum(v * (hi * hi - lo * lo) / 2 for lo, hi, v in cells) / mass


class TestNormalizedMean:
    """Each enclosure holds the mean of f/m, and the mass bracket holds m,
    at zero slack against Fraction references.  The masses 2 and 1.525 are
    not 1; the float reads of 2.0004*x and 3*x^2 are within an ulp of the
    formula, far inside the brackets' margins."""

    STEP = ((0.0, 0.1, 0.7), (0.25, 1.0, 3.0))
    CASES = {
        "4*x": (UNIT, Fraction(2), Fraction(2, 3)),
        "2.0004*x": (UNIT, Fraction(2.0004) / 2, Fraction(2, 3)),
        "3*x^2": (UNIT, Fraction(1), Fraction(3, 4)),
        "0.5": (Interval(-1.0, 1.0), Fraction(1), Fraction(0)),
        "step": (UNIT, *step_mass_and_mean(UNIT, *STEP)),
    }

    @staticmethod
    def density(label):
        iv = TestNormalizedMean.CASES[label][0]
        if label == "step":
            return piecewise_constant_density(iv, *TestNormalizedMean.STEP, label)
        return continuous_density(iv, to_function(label), label)

    @pytest.mark.parametrize("label", CASES)
    def test_every_split_holds_the_mean(self, label):
        iv, mass, mean = self.CASES[label]
        d = self.density(label)
        report = validate_density(d)
        assert report.valid, report.messages
        assert Fraction(report.normalization[0]) <= mass <= Fraction(report.normalization[1])
        encs = [expectation_enclosure(d, d.domain.midpoint), *grid_enclosures(d, report.normalization),
                *(expectation_enclosure(d, x) for x in (iv.a + 0.3 * iv.width, iv.a, iv.b))]
        for enc in encs:
            assert Fraction(enc.lo) <= mean <= Fraction(enc.hi), (label, enc)
        if label == "2.0004*x":
            # accepted, its mass 1.0002 passed the old test of the mass
            # against 1 and the enclosure was that of 2.0004*x itself
            assert encs[0].lo <= 2.0 / 3.0 <= encs[0].hi and mass != 1

    @pytest.mark.parametrize("c, a, b", [(0.7, 0.1, 0.7), (1 / 3, -0.3, 0.9), (0.1, 1 / 3, 2.0), (3.3, 0.2, 0.3)])
    def test_constant_mass_within_the_rounded_bracket(self, c, a, b):
        # both sums are c(b - a) but for their rounding, which the allowance covers
        lo, hi = validate_density(continuous_density(Interval(a, b), lambda t: c)).normalization
        assert Fraction(lo) <= Fraction(c) * (Fraction(b) - Fraction(a)) <= Fraction(hi)

    @pytest.mark.parametrize("c, a, b", [(1.0, 1e308, 1.7e308), (5e-156, 0.0, 2e155), (1.0, 0.0, 1e-160)])
    def test_extreme_supports_hold_the_exact_bracket(self, c, a, b):
        # a + b overflows on the first support, the weights (b - x)^2 on the
        # first two, and the weights underflow on the third; the enclosure
        # holds the exact bracket and the mean, and rounding widens it by a
        # few ulps
        d = continuous_density(Interval(a, b), lambda t: c)
        mean = (Fraction(a) + Fraction(b)) / 2
        for x in (d.domain.midpoint, a, b):
            mass = validate_density(d, x).normalization
            enc = expectation_enclosure(d, x, mass)
            lo, hi = exact_bracket(d, x, mass)
            assert Fraction(enc.lo) <= lo <= mean <= hi <= Fraction(enc.hi), (x, enc)
            assert Fraction(enc.hi) - Fraction(enc.lo) - (hi - lo) <= 32 * EPS * mean, (x, enc)

    def test_expectation_reads_four_times_beyond_its_walk(self):
        # f(a+), f(b-) and, inside the support, f(x+) and f(x-): four reads
        # for a step density, three for a continuous one, whose one read at
        # x is both limits
        calls = []

        def logged(fn):
            return lambda t: calls.append(t) or fn(t)

        s = step()
        for d, inside in ((continuous_density(UNIT, logged(lambda t: 2.0 * t)), 3),
                          (MonotoneDensity(UNIT, logged(s.left_limit), logged(s.right_limit)), 4)):
            for x in (0.5, 0.3, 0.0):
                calls.clear()
                report = validate_density(d, x)
                walk = len(calls)
                expectation_enclosure(d, x, report.normalization)
                beyond = inside if x else 2
                assert len(calls) - walk == beyond
                calls.clear()
                expectation_enclosure(d, x)
                assert len(calls) == walk + beyond


class TestExpectationViaCdf:
    def test_cross_checks_closed_form_means(self):
        for make in ALL:
            d = make()
            enc = expectation_via_cdf(d)
            assert enc.contains(mean(d)), d.label
            assert enc.width <= 1e-7, d.label

    def test_consistent_with_pointwise_bounds(self):
        d = triangular()
        enc = expectation_via_cdf(d)
        mid = expectation_enclosure(d, d.domain.midpoint)
        assert mid.lo <= enc.lo + 1e-9 and enc.hi <= mid.hi + 1e-9


#: nondecreasing, nonnegative expression densities on [a, b], in a, k and c >= 0
DENSITY_TEXTS = ("{c}", "{c} + {k}*(x - {a})", "(x - {a})^2", "sqrt(x - {a})", "exp({k}*(x - {a}))")


@st.composite
def monotone_densities(draw):
    """An expression or step density on a support 1e-6 to 100 wide, starting
    near 0 or around 1e5."""
    a = draw(st.floats(-1.0, 1.0) | st.floats(1e5 - 1.0, 1e5 + 1.0))
    b = a + draw(st.floats(1e-6, 100.0))
    iv = Interval(a, b)
    if draw(st.booleans()):
        text = draw(st.sampled_from(DENSITY_TEXTS)).format(
            a=repr(a), k=repr(draw(st.floats(0.0, 20.0)) / iv.width), c=repr(draw(st.floats(1e-3, 10.0))))
        return continuous_density(iv, to_function(text), text)
    ts = draw(st.lists(st.floats(0.0, 1.0), max_size=5))
    breaks = sorted({a, *(x for x in (a + t * iv.width for t in ts) if x < b)})
    values = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=len(breaks), max_size=len(breaks))))
    values[-1] += 1.0  # some mass
    return piecewise_constant_density(iv, breaks, values, f"step {breaks} {values}")


@settings(max_examples=80, deadline=None, database=None)
@seed(2020)
@given(d=monotone_densities(), ts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_expectation_enclosures_at_different_splits_meet(d, ts):
    """ROADMAP item 16, expectation half: each enclosure of a density's mean
    holds it, so those at x = a, x = b, the midpoint and three other splits
    meet, each with the mass bracket of its own walk."""
    a, b = d.domain.a, d.domain.b
    xs = [a, b, d.domain.midpoint, *(min(max(a + t * (b - a), a), b) for t in ts)]
    encs = [expectation_enclosure(d, x, validate_density(d, x).normalization) for x in xs]
    assert max(e.lo for e in encs) <= min(e.hi for e in encs), (d.label, d.domain, xs, encs)
