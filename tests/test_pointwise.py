import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from catalog_oracles import DEFAULT_SPECS, corpus_integral, exact_integral, reference

from trapbound.expr import to_convex_function
from trapbound.funcs import ConvexFunction, DomainError, Interval, catalog
from trapbound.pointwise import Enclosure, _reference_integral, gap_enclosure, hh_bounds
from trapbound.probability import continuous_density, expectation_enclosure, validate_density
from trapbound.quadrature import Partition, remainder_enclosure, uniform_partition

KINK = catalog("kink", (1.0, 0.5))
QUAD = catalog("quadratic")

#: families with f'+(0) = -inf, on intervals that start at the singular end
SINGULAR_SPECS = [("neg_log", (), Interval(0.0, 2.0)), ("xlogx", (), Interval(0.0, 1.0))]


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
        enc = _reference_integral(QUAD).integral
        assert enc.lo <= Fraction(1, 3) <= enc.hi
        assert enc.width <= 1e-10

    def test_kink_equality_case(self):
        enc = _reference_integral(KINK).integral
        assert enc.lo <= 0.25 <= enc.hi
        assert enc.width <= 1e-10

    def test_constant(self):
        f = catalog("constant", (7.0,), Interval(0.25, 0.75))
        enc = _reference_integral(f).integral
        assert enc.lo <= 3.5 <= enc.hi

    def test_split_point_outside_domain(self):
        # Interval.split's one message, for the gap and the density's two readers alike
        d = continuous_density(QUAD.domain, lambda t: 1.0)
        for call in (lambda: gap_enclosure(QUAD, 1.5), lambda: validate_density(d, 1.5),
                     lambda: expectation_enclosure(d, 1.5)):
            with pytest.raises(DomainError, match=r"^split point must lie in \[0\.0, 1\.0\], got 1\.5$"):
                call()

    def test_weights_of_a_wide_cell_overflow_to_an_enclosure(self):
        # (v - x) ** 2 raised OverflowError on a cell 1e160 wide; the gap of
        # exp(-x) at the midpoint is 5e159 - 1 + 5e159 exp(-1e160) + exp(-1e160)
        f = to_convex_function("exp(-x)", Interval(0.0, 1e160))
        for enc in (gap_enclosure(f, 5e159), remainder_enclosure(f, uniform_partition(f.domain, 1))):
            assert isinstance(enc, Enclosure) and enc.lo <= 5e159 - 1 <= enc.hi, enc


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
        for params in ((3.0, 1.0), (2.0, -1.0)):
            enc = hh_bounds(catalog("linear", params))
            assert (enc.lo, enc.hi) == (0.0, 0.0), params

    def test_contains_the_defect_on_catalog(self, test_catalog):
        # (f(a) + f(b))/2 minus the mean of f, from the exact integral
        for i, f in enumerate(test_catalog):
            a, b = f.domain.a, f.domain.b
            defect = 0.5 * (f(a) + f(b)) - corpus_integral(i) / (b - a)
            enc = hh_bounds(f)
            # slack until hh_bounds rounds outward (ROADMAP item 4)
            assert enc.lo - 1e-9 <= defect <= enc.hi + 1e-9, f.label

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

    @pytest.mark.parametrize("iv, m_read", [(Interval(0.0, 1.0), True),
                                            (Interval(1.0, math.nextafter(1.0, 2.0)), False)], ids=["unit", "adjacent"])
    def test_reads_each_slope_oracle_once_a_point(self, iv, m_read):
        """f'+(m), f'-(m), f'+(a) and f'-(b), in that order; one slope oracle
        reads m once, and an interval with no float inside reads no m."""
        log = []
        dplus = lambda t: log.append(("+", t)) or 2.0 * t
        dminus = lambda t: log.append(("-", t)) or 2.0 * t
        one = lambda t: log.append(("'", t)) or 2.0 * t
        a, b, m = iv.a, iv.b, iv.midpoint
        two_reads = [("+", m), ("-", m)] * m_read + [("+", a), ("-", b)]
        one_reads = [("'", m)] * m_read + [("'", a), ("'", b)]
        for f, reads in ((ConvexFunction(iv, lambda t: t * t, dplus, dminus), two_reads),
                         (ConvexFunction(iv, lambda t: t * t, one), one_reads)):
            log.clear()
            hh_bounds(f)
            assert log == reads


#: polynomials with dyadic coefficients on dyadic domains, each with its
#: slope where it is differentiable: at dyadic x the slope, the bracket's
#: weights and its products are exact floats
DYADIC = [
    (QUAD, lambda t: 2 * t),
    (catalog("quadratic", (), Interval(-1.0, 3.0)), lambda t: 2 * t),
    (catalog("linear", (2.0, -1.0)), lambda t: 2),
    (catalog("power_p", (3.0,)), lambda t: 3 * t * t),
    (catalog("kink", (1.0, 0.25)), lambda t: 1 if t > Fraction(1, 4) else -1),
]


def smooth_point_lower(f, slope, x):
    # oracle: the paper's lower bound (b - a)((a + b)/2 - x) f'(x) at a point
    # of differentiability, exact
    a, b, x = map(Fraction, (f.domain.a, f.domain.b, x))
    return (b - a) * ((a + b) / 2 - x) * slope(x)


def optimal_point(f):
    # oracle: x0 = (bB - aA)/(B - A) and -(1/2) A B (b - a)^2/(B - A) with
    # A = f'+(a) and B = f'-(b), exact
    a, b = map(Fraction, (f.domain.a, f.domain.b))
    A, B = Fraction(f.d_plus(f.domain.a)), Fraction(f.d_minus(f.domain.b))
    return (b * B - a * A) / (B - A), -A * B * (b - a) ** 2 / (2 * (B - A))


class TestDifferentiableLower:
    """Where f'+(x) = f'-(x), the paper's lower bound (b-a)((a+b)/2 - x) f'(x)
    is the lower side of ``gap_enclosure``; exact at zero slack."""

    def test_quadratic_off_center(self):
        assert gap_enclosure(QUAD, 0.25).lo == smooth_point_lower(QUAD, DYADIC[0][1], 0.25) == Fraction(1, 8)

    def test_midpoint_annihilates(self):
        assert gap_enclosure(QUAD, 0.5).lo == smooth_point_lower(QUAD, DYADIC[0][1], 0.5) == 0

    def test_matches_lower_gap_bound_where_smooth(self):
        for f, slope in DYADIC:
            a, b = f.domain.a, f.domain.b
            for i in range(1, 64):
                x = a + (b - a) * i / 64
                if f.d_plus(x) != f.d_minus(x):
                    continue  # the kink
                assert gap_enclosure(f, x).lo == smooth_point_lower(f, slope, x), (f.label, x)


class TestWindowInequality:
    """The window form: on [x - h/2, x + h/2], (1/8) h^2 [f'+(x) - f'-(x)] is
    at most the trapezoid defect h (f(x - h/2) + f(x + h/2))/2 - integral.
    It is the lower side of ``remainder_enclosure`` on the window as one
    midpoint cell; exact at zero slack."""

    @staticmethod
    def window(name, params, x, h):
        f = catalog(name, params, Interval(x - 0.5 * h, x + 0.5 * h))
        u, v = f.domain.a, f.domain.b
        defect = (Fraction(v) - Fraction(u)) * (Fraction(f(u)) + Fraction(f(v))) / 2 - exact_integral(name, params, u, v)
        return remainder_enclosure(f, uniform_partition(f.domain, 1)), defect

    def test_kink_equality(self):
        enc, defect = self.window("kink", (1.0, 0.5), 0.5, 1.0)
        assert enc.lo == enc.hi == defect == Fraction(1, 4)

    def test_quadratic(self):
        # on [1/4, 3/4]: (1/8) h^2 [f'(v) - f'(u)] = 1/32 above, h^3 f''/12 = 1/48 between
        enc, defect = self.window("quadratic", (), 0.5, 0.5)
        assert enc.lo == 0.0
        assert enc.hi == Fraction(1, 32)
        assert enc.lo <= defect == Fraction(1, 48) <= enc.hi

    def test_linear_both_zero(self):
        enc, defect = self.window("linear", (2.0, 0.0), 0.5, 0.25)
        assert (enc.lo, enc.hi) == (0.0, 0.0)
        assert defect == 0

    def test_linear_window_off_its_float_midpoint(self):
        # the float window [0.3, 0.7] is not centred on its float midpoint 0.5,
        # so the cell brackets the rule at xi = 0.5, whose remainder is
        # (v - u)(u + v - 1) = -2.22e-17, not the trapezoid defect 0; the
        # bracket is that point rounded to nearest, -2.78e-17 (ROADMAP item 4),
        # and its lower side still bounds the defect
        enc, defect = self.window("linear", (2.0, 0.0), 0.5, 0.4)
        assert defect == 0
        assert enc.lo == enc.hi == -2.7755575615628914e-17 <= defect


class TestOptimalPoint:
    """Where A = f'+(a) <= 0 <= B = f'-(b) and A < B, the upper side of
    ``gap_enclosure`` at x0 = (bB - aA)/(B - A) is -(1/2) A B (b-a)^2/(B - A),
    its minimum over [a, b]; exact at zero slack."""

    def test_kink(self):
        x0, bound = optimal_point(KINK)
        assert (x0, bound) == (Fraction(1, 2), Fraction(1, 4))
        enc = gap_enclosure(KINK, float(x0))
        assert enc.hi == bound
        assert enc.hi >= reference_gap(KINK, float(x0), 0.25)

    def test_shifted_parabola(self):
        f = shifted_parabola()
        x0, bound = optimal_point(f)
        assert (x0, bound) == (Fraction(1, 2), Fraction(1, 4))
        assert gap_enclosure(f, float(x0)).hi == bound
        # the gap at 1/2: (f(0) + f(1))/2 minus the integral -1/6
        gap = Fraction(f(0.0) + f(1.0)) / 2 - (Fraction(1, 3) - Fraction(1, 2))
        assert gap == Fraction(1, 6) <= bound

    def test_positive_slope_everywhere_rejected(self):
        # A = f'+(0) = 1 > 0 puts x0 = e/(e - 1) past b, where gap_enclosure
        # refuses it; on [a, b] the upper side is least at b
        f = catalog("exp")
        x0, _ = optimal_point(f)
        assert x0 > 1
        with pytest.raises(DomainError):
            gap_enclosure(f, float(x0))
        xs = [i / 1000 for i in range(1001)]
        assert min(xs, key=lambda x: gap_enclosure(f, x).hi) == 1.0

    def test_is_minimum_of_upper_bound_over_grid(self):
        for f in (KINK, shifted_parabola(), catalog("quadratic", (), Interval(-1.0, 3.0))):
            a, b = f.domain.a, f.domain.b
            x0, bound = optimal_point(f)
            assert float(x0) == x0, f.label
            assert gap_enclosure(f, float(x0)).hi == bound, f.label
            grid_min = min(gap_enclosure(f, a + (b - a) * i / 1000).hi for i in range(1001))
            # no grid point does better, and x0 is one of them
            assert grid_min == bound, f.label


@st.composite
def split_cells(draw):
    """(a, b, x): a cell 1 to 40 ulps wide, or up to 8 wide, and a split point in it."""
    a = draw(st.floats(0.5, 8.0))
    if draw(st.booleans()):
        b = a
        for _ in range(draw(st.integers(1, 40))):
            b = math.nextafter(b, math.inf)
    else:
        b = a + draw(st.floats(1e-6, 8.0))
    x = draw(st.sampled_from([a, b, Interval(a, b).midpoint]) | st.floats(a, b))
    return a, b, x


@settings(max_examples=300, deadline=None)
@given(fn=st.sampled_from(["x*log(x)", "sqrt(1 + x^2)", "log(1 + exp(x))", "x^2", "abs(x - 2)"]), cell=split_cells())
# rounding inverts the bracket of each of these convex cells
@example(fn="x*log(x)", cell=(3.2391683954526127, 3.239168395452613, 3.239168395452613))
@example(fn="sqrt(1 + x^2)", cell=(-3.9923358642186746, -3.9923358642186715, -3.9923358642186733))
@example(fn="log(1 + exp(x))", cell=(0.05791561232607201, 0.05791561232607215, 0.05791561232607208))
def test_gap_is_the_remainder_of_one_cell(fn, cell):
    a, b, x = cell
    f = to_convex_function(fn, Interval(a, b))
    enc = gap_enclosure(f, x)
    assert enc == remainder_enclosure(f, Partition((a, b), (x,)))


class TestSandwichProperties:
    def test_sandwich_on_catalog(self, test_catalog, rng):
        # 200 splits per function at least 1e-6 of the width from the ends,
        # and 200 more, of their own seed, at least 1e-9 from them
        near_ends = random.Random(4242)
        for i, f in enumerate(test_catalog):
            a, b = f.domain.a, f.domain.b
            ts = [rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(200)]
            ts += [1e-9 + (1 - 2e-9) * near_ends.uniform(0.0, 1.0) for _ in range(200)]
            for t in ts:
                x = a + (b - a) * t
                g = reference_gap(f, x, corpus_integral(i))
                enc = gap_enclosure(f, x)
                assert enc.lo <= g + 1e-9, (f.label, x)
                assert g <= enc.hi + 1e-9, (f.label, x)

    def test_sharpness_equalities(self, rng):
        # 20 kinks from the fixture, and 20 of their own seed with slopes k
        # from 1e-6, a within 5 of 0 and widths up to 5
        for draws, k_lo, a_span, w_hi in ((rng, 0.1, 2.0, 3.0), (random.Random(4242), 1e-6, 5.0, 5.0)):
            for _ in range(20):
                k = draws.uniform(k_lo, 10.0)
                a = draws.uniform(-a_span, a_span)
                b = a + draws.uniform(0.1, w_hi)
                m = 0.5 * (a + b)
                f = catalog("kink", (k, m), Interval(a, b))
                enc = gap_enclosure(f, m)
                expected = 0.25 * k * (b - a) ** 2
                for value in (enc.lo, enc.hi):
                    assert value == pytest.approx(expected, rel=1e-12, abs=1e-12), (k, a, b)
                enc = _reference_integral(f).integral
                assert enc.lo <= kink_integral(k, m, a, b) <= enc.hi, (k, a, b)
