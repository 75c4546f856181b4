import functools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from catalog_oracles import DIGITS
from divergence_oracles import CLOSED_FORMS, chi_squared, reference_report
from hypothesis import given, settings
from hypothesis import strategies as st

from trapbound.divergence import (
    _EQUAL_RATIO_TOL,
    GENERATOR_NAMES,
    DiscreteDistribution,
    GeneratorFunction,
    UndefinedDivergenceError,
    divergence_report,
    generator_catalog,
)
from trapbound.funcs import NonConvexityError
from trapbound.pointwise import Enclosure

P2 = DiscreteDistribution((0.5, 0.5))
Q2 = DiscreteDistribution((0.25, 0.75))

CORPUS = [
    (P2, Q2),
    (DiscreteDistribution((0.1, 0.9)), DiscreteDistribution((0.9, 0.1))),
    (DiscreteDistribution((0.2, 0.3, 0.5)), DiscreteDistribution((0.5, 0.3, 0.2))),
    (DiscreteDistribution((0.25, 0.25, 0.25, 0.25)),
     DiscreteDistribution((0.1, 0.2, 0.3, 0.4))),
    (DiscreteDistribution((0.4, 0.6)), DiscreteDistribution((0.4, 0.6))),
]


def random_pair(rng, n):
    w1 = [rng.uniform(0.05, 1.0) for _ in range(n)]
    w2 = [rng.uniform(0.05, 1.0) for _ in range(n)]
    s1, s2 = math.fsum(w1), math.fsum(w2)
    return (DiscreteDistribution(tuple(w / s1 for w in w1)),
            DiscreteDistribution(tuple(w / s2 for w in w2)))


def wide_pairs():
    """100 pairs of 2 to 50 points, of their own seed."""
    rng = random.Random(4242)
    return [random_pair(rng, rng.randrange(2, 51)) for _ in range(100)]


def seeded_corpus():
    """21 (name, p, q) triples of their own seed: ``plain-1``, then the kinds
    plain, p_zero (p = 0 < q), both_zero, q_zero (q = 0 < p) and equal (q = p)
    at 3, 7, 50 and 400 points.  A kind marks every third point; equal also
    puts q = p (1 + 4e-15), within ``_EQUAL_RATIO_TOL``, on the point after each."""
    rng = random.Random(20261018)
    cases = []
    for n in (1, 3, 7, 50, 400):
        for kind in ("plain", "p_zero", "both_zero", "q_zero", "equal") if n > 1 else ("plain",):
            praw = [rng.random() ** 4 + 1e-6 for _ in range(n)]
            qraw = [rng.random() ** 4 + 1e-6 for _ in range(n)]
            marked = [i for i in range(n) if i % 3 == 1]
            for i in marked:
                if kind in ("p_zero", "both_zero"):
                    praw[i] = 0.0
                if kind in ("q_zero", "both_zero"):
                    qraw[i] = 0.0
            p = DiscreteDistribution.normalized(praw)
            if kind == "equal":
                # q = p on the marked points, q = p (1 + 4e-15) on the next
                # ones, the remaining mass spread over the rest
                q = list(p.weights)
                for i in range(n):
                    if i % 3 == 2:
                        q[i] *= 1.0 + 4e-15
                rest = [i for i in range(n) if i % 3 == 0]
                free = 1.0 - math.fsum(q[i] for i in range(n) if i % 3)
                scale = free / math.fsum(qraw[i] for i in rest)
                for i in rest:
                    q[i] = qraw[i] * scale
                q = DiscreteDistribution(q)
            else:
                q = DiscreteDistribution.normalized(qraw)
            cases.append((f"{kind}-{n}", p, q))
    return cases


SEEDED = seeded_corpus()


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(())
        with pytest.raises(ValueError):
            DiscreteDistribution((0.5, -0.5, 1.0))
        with pytest.raises(ValueError):
            DiscreteDistribution((0.5, 0.4))

    def test_sum_tolerance(self):
        DiscreteDistribution((0.5, 0.5 + 5e-10))
        with pytest.raises(ValueError):
            DiscreteDistribution((0.5, 0.5 + 5e-9))

    def test_nan_weight_rejected(self):
        # a NaN is refused as a NaN wherever it stands, before a negative weight,
        # a sum past the float range, or -inf meeting inf
        for weights in ((math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (1.0, math.nan),
                        (math.nan, -0.5, 1.5), (-0.5, math.nan, 1.5),
                        (1e308, 1e308, math.nan), (math.inf, -math.inf, math.nan)):
            with pytest.raises(ValueError, match="^weights must be numbers, got nan$"):
                DiscreteDistribution(weights)

    def test_sum_past_float_range(self):
        # math.fsum raises on the partial sum 2e308; the weights sum to inf, not 1
        with pytest.raises(ValueError, match="^weights sum to inf, not 1$"):
            DiscreteDistribution((1e308, 1e308))

    @settings(max_examples=200)
    @given(st.lists(st.floats(0.0, 1e6) | st.integers(0, 10 ** 6), min_size=1, max_size=12))
    def test_normalized_divides_by_the_correctly_rounded_sum(self, weights):
        # bit for bit what --normalize gave when the command line divided: each weight over fsum
        total = float(sum(map(Fraction, weights)))
        if total == 0:
            with pytest.raises(ValueError, match=r"^weights sum to 0\.0, not 1$"):
                DiscreteDistribution.normalized(weights)
        else:
            got = DiscreteDistribution.normalized(weights).weights
            assert list(map(float.hex, got)) == [(w / total).hex() for w in map(float, weights)]

    @pytest.mark.parametrize("weights", [(-0.5, -0.5), (1.5, -0.5), (0.0, 0.0), (1e308, 1e308),
                                         (math.inf, 1.0), (0.5, math.nan), (math.nan, -0.5)],
                             ids=["negative", "negative_in_sum_1", "zero_sum", "inf_sum", "inf_weight", "nan",
                                  "nan_and_negative"])
    def test_normalized_refuses_as_the_constructor(self, weights):
        # the weights pass on unchanged, and the constructor gives its own message
        with pytest.raises(ValueError) as plain:
            DiscreteDistribution(weights)
        with pytest.raises(ValueError) as normalized:
            DiscreteDistribution.normalized(weights)
        assert str(normalized.value) == str(plain.value)

    def test_weights_alone(self):
        # no second argument can skip the sum: the weights are always checked
        with pytest.raises(TypeError):
            DiscreteDistribution((0.5, 0.6), 1.0)
        assert DiscreteDistribution([0.5, 0.5]).weights == (0.5, 0.5)


class TestGenerators:
    def test_catalog_names_and_aliases(self):
        for name in GENERATOR_NAMES:
            assert generator_catalog(name).label == name
        assert generator_catalog("chi2").label == "chi_squared"
        assert generator_catalog("tv").label == "total_variation"
        with pytest.raises(ValueError):
            generator_catalog("js")

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            GeneratorFunction(lambda u: u, lambda u: 1.0, lambda u: 1.0, lambda u: 0.5 * u * u, "bad")

    def test_antiderivative_required(self):
        # HH has one path, through F: a generator without one is refused when built
        g = generator_catalog("hellinger")
        with pytest.raises(TypeError):
            GeneratorFunction(g.fn, g.dplus, g.dminus)
        with pytest.raises(TypeError):
            GeneratorFunction(g.fn, g.dplus, g.dminus, label="hellinger-bare", slope_at_infinity=1.0)
        with pytest.raises(TypeError, match="needs an antiderivative, got None"):
            GeneratorFunction(g.fn, g.dplus, g.dminus, None, "hellinger-bare", 1.0)

    def test_antiderivatives(self):
        # F(b) - F(a) against a 50-digit integral of f, within 8 ulps of |F(a)| + |F(b)|;
        # hellinger's F, whose terms cancel, is the farthest off: 2.6 on [1.0, 1.7]
        for name in GENERATOR_NAMES:
            errors = antiderivative_errors(generator_catalog(name).antiderivative, DECIMAL_GENERATORS[name])
            assert max(errors) <= 8, (name, errors)

    def test_antiderivative_check_sees_a_relative_error_of_1e_7(self):
        # the central difference it replaced passed these at rel=1e-6
        for name in GENERATOR_NAMES:
            F = generator_catalog(name).antiderivative
            errors = antiderivative_errors(lambda u: F(u) * (1.0 + 1e-7), DECIMAL_GENERATORS[name])
            assert min(errors) > 8, (name, errors)


#: Each built-in generator's f in Decimal, for the exact check of its antiderivative.
DECIMAL_GENERATORS = {
    "chi_squared": lambda u: (u - 1) ** 2,
    "kl": lambda u: u * u.ln(),
    "total_variation": lambda u: abs(u - 1),
    "hellinger": lambda u: (u.sqrt() - 1) ** 2,
}
#: Cells on both sides of 1, two of them ending at 1 as HH's inner integrals do.
ANTIDERIVATIVE_CELLS = [(0.3, 0.9), (0.3, 1.0), (0.9, 1.7), (1.0, 1.7), (1.7, 4.0)]


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """The (x, w) pairs with x > 0 of the n-point Gauss-Legendre rule on [-1, 1], n even: each
    root of the Legendre polynomial P_n by Newton's method from its float estimate."""
    rule = []
    for i in range(1, n // 2 + 1):
        x, dx = Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5))), 1
        while abs(dx) > Decimal(10) ** -(DIGITS + 15):
            p0, p1 = Decimal(1), x  # P_(k-1), P_k by Bonnet's recursion
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(rule)


def antiderivative_errors(F, f) -> list:
    """|F(b) - F(a) - the integral of f over [a, b]| on each of ``ANTIDERIVATIVE_CELLS``, in
    units of 2^-52 (|F(a)| + |F(b)|).  The integral is split at 1, where total_variation has
    its kink, and each piece is taken by the 48- and 64-point Gauss-Legendre rules, which
    must agree to DIGITS digits (f is analytic on each piece and its singularities are at
    least 0.3 away)."""
    errors = []
    with localcontext() as ctx:
        ctx.prec = DIGITS + 20
        for a, b in ANTIDERIVATIVE_CELLS:
            ends = [Decimal(a)] + ([Decimal(1)] if a < 1 < b else []) + [Decimal(b)]
            exact = 0
            for u, v in zip(ends, ends[1:]):
                c, r = (u + v) / 2, (v - u) / 2
                coarse, fine = (r * sum(w * (f(c - r * x) + f(c + r * x)) for x, w in gauss_legendre(n))
                                for n in (48, 64))
                assert abs(fine - coarse) <= abs(fine).scaleb(-DIGITS), (u, v)
                exact += fine
            Fa, Fb = Decimal(F(a)), Decimal(F(b))
            errors.append(float(abs(Fb - Fa - exact) / ((abs(Fa) + abs(Fb)) * Decimal(2) ** -52)))
    return errors


class TestCsiszar:
    def test_matches_closed_forms(self):
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            for p, q in CORPUS:
                expected = CLOSED_FORMS[name](p.weights, q.weights)
                assert divergence_report(g, p, q).csiszar == pytest.approx(expected, rel=1e-12, abs=1e-12), name

    def test_kl_spot_value(self):
        d = divergence_report(generator_catalog("kl"), P2, Q2).csiszar
        assert d == pytest.approx(0.25 * math.log(0.5) + 0.75 * math.log(1.5), abs=1e-15)
        assert d == pytest.approx(0.130812, abs=1e-6)

    def test_identical_arguments_vanish(self):
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            assert divergence_report(g, P2, P2).csiszar == pytest.approx(0.0, abs=1e-15)

    def test_mismatched_supports(self):
        # refused with the message of the oracles' frozen check, either way round
        g, one = generator_catalog("kl"), DiscreteDistribution((1.0,))
        for p, q in ((P2, one), (one, P2)):
            refusal = ("ValueError", f"supports differ: {len(p)} vs {len(q)} points")
            assert _bits(lambda: divergence_report(g, p, q)) == _bits(lambda: reference_report(g, p, q)) == refusal

    def test_zero_mass_conventions(self):
        p = DiscreteDistribution((1.0, 0.0))
        q = DiscreteDistribution((0.5, 0.5))
        # finite slope at infinity: the q-only point contributes q * slope
        tv = generator_catalog("total_variation")
        assert divergence_report(tv, p, q).csiszar == pytest.approx(1.0 * abs(0.5 - 1.0) + 0.5 * 1.0, abs=1e-15)
        # infinite slope: divergence is +inf
        assert divergence_report(generator_catalog("chi_squared"), p, q).csiszar == math.inf
        # both masses zero at a point: the point is ignored
        pz = DiscreteDistribution((1.0, 0.0))
        qz = DiscreteDistribution((1.0, 0.0))
        assert divergence_report(generator_catalog("kl"), pz, qz).csiszar == 0.0
        # no declared slope: undefined
        bare = GeneratorFunction(lambda u: (u - 1.0) ** 2,
                                 lambda u: 2.0 * (u - 1.0), lambda u: 2.0 * (u - 1.0),
                                 lambda u: (u - 1.0) ** 3 / 3.0, "bare")
        with pytest.raises(UndefinedDivergenceError):
            divergence_report(bare, p, q)

    def test_permutation_invariance(self):
        g = generator_catalog("hellinger")
        p = DiscreteDistribution((0.2, 0.3, 0.5))
        q = DiscreteDistribution((0.5, 0.3, 0.2))
        pp = DiscreteDistribution((0.5, 0.3, 0.2))
        qq = DiscreteDistribution((0.2, 0.3, 0.5))
        forward, back = divergence_report(g, p, q), divergence_report(g, pp, qq)
        assert forward.csiszar == pytest.approx(back.csiszar, rel=1e-14)


class TestChiSquaredClosedForms:
    """The (u-1)^2 generator has every quantity in closed form:
    D = chi2, LW = chi2/4, HH = chi2/3."""

    def test_spot_values(self):
        g = generator_catalog("chi_squared")
        x2 = chi_squared(P2, Q2)
        assert x2 == pytest.approx(0.25, abs=1e-15)
        rep = divergence_report(g, P2, Q2)
        assert rep.csiszar == pytest.approx(0.25, abs=1e-14)
        assert rep.lin_wong == pytest.approx(0.0625, abs=1e-14)
        hh = rep.hh
        assert hh.lo == pytest.approx(0.25 / 3.0, abs=1e-14)
        assert hh.hi == pytest.approx(0.25 / 3.0, abs=1e-14)
        assert rep.half_csiszar == pytest.approx(0.125, abs=1e-14)
        assert rep.gap.contains(0.125 - 0.25 / 3.0)

    def test_closed_forms_across_corpus(self):
        g = generator_catalog("chi_squared")
        for p, q in CORPUS + wide_pairs():
            x2 = chi_squared(p, q)
            rep = divergence_report(g, p, q)
            assert rep.csiszar == pytest.approx(x2, abs=1e-10)
            assert rep.lin_wong == pytest.approx(x2 / 4.0, abs=1e-10)
            hh = rep.hh
            assert hh.lo == pytest.approx(x2 / 3.0, abs=1e-10)
            assert hh.hi == pytest.approx(x2 / 3.0, abs=1e-10)


class TestHHDivergence:
    def test_exact_when_antiderivative_available(self):
        g = generator_catalog("kl")
        enc = divergence_report(g, P2, Q2).hh
        assert enc.width == 0.0

    def test_p_zero_point_takes_its_limit(self):
        # p = 0 < q: the term p mean f over [1, q/p] tends to q f'(inf)/2
        p = DiscreteDistribution((0.0, 0.5, 0.5))
        q = DiscreteDistribution((0.2, 0.4, 0.4))
        tv = generator_catalog("tv")
        rep = divergence_report(tv, p, q)
        # tv is affine on each side of 1, so LW = HH = D/2 = 0.2
        assert rep.hh.lo == rep.hh.hi == pytest.approx(0.2, abs=1e-15)
        assert rep.lin_wong == pytest.approx(0.2, abs=1e-15)
        assert rep.half_csiszar == pytest.approx(0.2, abs=1e-15)
        assert rep.holds
        for name in ("kl", "chi_squared"):
            g = generator_catalog(name)
            rep = divergence_report(g, p, q)
            assert rep.hh == Enclosure(math.inf, math.inf)
            assert rep.holds

    def test_p_zero_without_slope_is_undefined(self):
        p = DiscreteDistribution((0.0, 1.0))
        q = DiscreteDistribution((0.5, 0.5))
        exact = generator_catalog("chi_squared")
        bare = GeneratorFunction(exact.fn, exact.dplus, exact.dminus, exact.antiderivative, "bare")
        with pytest.raises(UndefinedDivergenceError):
            divergence_report(bare, p, q)
        # p = q = 0 needs no slope
        zero = DiscreteDistribution((0.0, 1.0))
        rep = divergence_report(bare, zero, zero)
        assert rep.hh == Enclosure(0.0, 0.0)
        assert rep.gap == Enclosure(0.0, 0.0)

    def test_nonnegative_on_random_pairs(self, rng):
        gens = [generator_catalog(n) for n in GENERATOR_NAMES]
        for _ in range(125):
            n = rng.randrange(2, 51)
            p, q = random_pair(rng, n)
            for g in gens:
                rep = divergence_report(g, p, q)
                assert rep.csiszar >= -1e-12, g.label
                assert rep.lin_wong >= -1e-12, g.label
                assert rep.hh.lo >= -1e-12, g.label


class TestSandwichAndGap:
    def test_sandwich_holds_everywhere(self, rng):
        gens = [generator_catalog(n) for n in GENERATOR_NAMES]
        pairs = list(CORPUS) + [random_pair(rng, rng.randrange(2, 12)) for _ in range(40)] + wide_pairs()[:25]
        for g in gens:
            for p, q in pairs:
                rep = divergence_report(g, p, q)
                assert rep.holds, (g.label, p.weights, q.weights)
                assert rep.lin_wong <= rep.hh.hi + 1e-9
                assert rep.hh.lo <= rep.half_csiszar + 1e-9

    def test_gap_enclosure_contains_true_gap(self, rng):
        gens = [generator_catalog(n) for n in GENERATOR_NAMES]
        pairs = list(CORPUS) + [random_pair(rng, rng.randrange(2, 12)) for _ in range(40)] + wide_pairs()[:25]
        for g in gens:
            for p, q in pairs:
                rep = divergence_report(g, p, q)
                gap = rep.half_csiszar - rep.hh.lo  # hh is a point: each generator has an antiderivative
                # slack: that reference is an unrounded point itself (ROADMAP items 3 and 13)
                assert rep.gap.lo - 1e-9 <= gap <= rep.gap.hi + 1e-9, (g.label, p.weights, q.weights)

    def test_kink_at_one_gives_exact_zero(self, rng):
        # tv is affine on each side of 1, so every term of D/2 - HH is 0; the
        # per-term bracket sees that, the telescoped one gave hi = 0.05 here
        tv = generator_catalog("tv")
        p = DiscreteDistribution((0.2, 0.3, 0.5))
        q = DiscreteDistribution((0.4, 0.1, 0.5))
        assert divergence_report(tv, p, q).gap == Enclosure(0.0, 0.0)
        for _ in range(20):
            p, q = random_pair(rng, rng.randrange(2, 30))
            assert divergence_report(tv, p, q).gap == Enclosure(0.0, 0.0)
        # q = p (1 + 2^-52): the midpoint (p + q)/(2p) rounds onto the kink
        # at 1, whose jump must not enter the lower side
        q = DiscreteDistribution((0.5 + 2.0 ** -53, 0.5 - 2.0 ** -53))
        assert 0.5 * (0.5 + q.weights[0]) / 0.5 == 1.0
        assert divergence_report(tv, P2, q).gap == Enclosure(0.0, 0.0)

    def test_p_zero_gap(self):
        p = DiscreteDistribution((0.0, 0.5, 0.5))
        q = DiscreteDistribution((0.2, 0.4, 0.4))
        # a finite slope at infinity: the point's limit is 0
        assert divergence_report(generator_catalog("tv"), p, q).gap == Enclosure(0.0, 0.0)
        hel = divergence_report(generator_catalog("hellinger"), p, q)
        true_gap = hel.half_csiszar - hel.hh.lo
        assert hel.gap.contains(true_gap)
        # an infinite one: inf - inf, with limit q/4 for kl and +inf for chi2
        for name in ("kl", "chi_squared"):
            assert divergence_report(generator_catalog(name), p, q).gap.hi == math.inf

    def test_inverted_gap_bracket_raises(self):
        # -(u - 1)^2 is concave: its slope sums invert the bracket to
        # [0, -1/16], and no hull of that holds D/2 - HH = -1/24
        g = GeneratorFunction(lambda u: -(u - 1.0) ** 2, lambda u: -2.0 * (u - 1.0), lambda u: -2.0 * (u - 1.0),
                              lambda u: -(u - 1.0) ** 3 / 3.0, "concave")
        with pytest.raises(NonConvexityError,
                           match=r"^cell \[0\.0, inf\] has inverted remainder bracket \[0\.0, -0\.0625\]; 'concave'"):
            divergence_report(g, P2, Q2)

    def test_chi_squared_gap_closed_form(self):
        g = generator_catalog("chi_squared")
        for p, q in CORPUS:
            enc = divergence_report(g, p, q).gap
            assert enc.lo == pytest.approx(0.0, abs=1e-15)
            assert enc.hi == pytest.approx(chi_squared(p, q) / 4.0, abs=1e-12)

    def test_equal_distributions_collapse(self):
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            rep = divergence_report(g, P2, P2)
            assert rep.lin_wong == pytest.approx(0.0, abs=1e-15)
            assert rep.hh.lo == rep.hh.hi == 0.0
            assert rep.half_csiszar == pytest.approx(0.0, abs=1e-15)
            assert rep.holds


#: point kinds of :func:`zero_mass_pairs`; "near" is q = p (1 + k 1e-15)
POINT_KINDS = ("plain", "p_zero", "both_zero", "q_zero", "equal", "near")


@st.composite
def zero_mass_pairs(draw):
    """Distributions (p, q) whose points are of the kinds of ``POINT_KINDS``;
    the first point is plain, and the plain and p = 0 points share the mass
    of q that the others leave."""
    n = draw(st.integers(1, 9))
    kinds = ["plain", *draw(st.lists(st.sampled_from(POINT_KINDS), min_size=n - 1, max_size=n - 1))]
    weight = st.floats(1e-3, 1.0)
    praw = [0.0 if k in ("p_zero", "both_zero") else draw(weight) for k in kinds]
    qraw = [draw(weight) for _ in kinds]
    total = math.fsum(praw)
    p = [w / total for w in praw]
    q = [0.0] * n
    for i, k in enumerate(kinds):
        if k == "equal":
            q[i] = p[i]
        elif k == "near":
            q[i] = p[i] * (1.0 + draw(st.integers(1, 9)) * 1e-15)
    free = [i for i, k in enumerate(kinds) if k in ("plain", "p_zero")]
    scale = (1.0 - math.fsum(q)) / math.fsum(qraw[i] for i in free)
    for i in free:
        q[i] = qraw[i] * scale
    return DiscreteDistribution(p), DiscreteDistribution(q)


def _bits(make):
    """Each field of the report as float.hex, or the exception raised."""
    try:
        rep = make()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    fields = (rep.csiszar, rep.lin_wong, rep.hh.lo, rep.hh.hi, rep.gap.lo, rep.gap.hi)
    return [x.hex() for x in fields], rep.holds


class TestSinglePass:
    """``divergence_report`` fuses the per-quantity loops of the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(zero_mass_pairs())
    def test_matches_reference_loops_bit_for_bit(self, pair):
        p, q = pair
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            assert _bits(lambda: divergence_report(g, p, q)) == _bits(lambda: reference_report(g, p, q)), name

    def test_drawn_pairs_cover_every_point_kind(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(zero_mass_pairs())
        def collect(pair):
            for pi, qi in zip(*(d.weights for d in pair)):
                if pi == 0.0:
                    seen.add("both_zero" if qi == 0.0 else "p_zero")
                elif qi == 0.0:
                    seen.add("q_zero")
                elif qi == pi:
                    seen.add("equal")
                elif abs(qi - pi) <= _EQUAL_RATIO_TOL * pi:
                    seen.add("near")
                else:
                    seen.add("plain")

        collect()
        assert seen == set(POINT_KINDS)

    def test_corpus_covers_every_zero_mass_pattern(self):
        assert len(SEEDED) == 21
        seen = set()
        for _, p, q in SEEDED:
            for pi, qi in zip(p.weights, q.weights):
                if pi == 0.0:
                    seen.add("p=q=0" if qi == 0.0 else "p=0<q")
                elif qi == 0.0:
                    seen.add("q=0<p")
                elif qi == pi:
                    seen.add("q=p")
                elif abs(qi - pi) <= 1e-14 * pi:
                    seen.add("q~p")
        assert seen == {"p=q=0", "p=0<q", "q=0<p", "q=p", "q~p"}

    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_oracle_calls(self, name, rng):
        # n points with p > 0 and q != p: f at q/p and at the midpoint, the
        # antiderivative at q/p and once at 1, the slopes at the midpoint (once
        # when f'+ and f'- are one function), at q/p, and once each at 1
        g = generator_catalog(name)
        counts = Counter()

        def counted(key, fn):
            def wrapper(u):
                counts[key] += 1
                return fn(u)
            return wrapper

        dplus = counted("slope", g.dplus)
        shared = g.dminus is g.dplus
        assert shared == (name != "total_variation")
        dminus = dplus if shared else counted("slope", g.dminus)
        wrapped = GeneratorFunction(counted("f", g.fn), dplus, dminus, counted("F", g.antiderivative),
                                    g.label, g.slope_at_infinity)
        n = 40
        p, q = random_pair(rng, n)
        assert all(pi > 0.0 and abs(qi - pi) > 1e-6 * pi for pi, qi in zip(p.weights, q.weights))
        counts.clear()
        divergence_report(wrapped, p, q)
        per_point = 2 if shared else 3
        assert counts == {"f": 2 * n, "F": n + 1, "slope": per_point * n + 2}


def call_form(name):
    """``generator_catalog(name)`` built afresh from hand-written lambdas of its
    formulas, one slope function where the catalog has one: its pass calls them
    where the catalog generator's pass has its text inline."""
    fn, dplus, dminus, anti = {
        "chi_squared": (lambda u: (u - 1.0) ** 2, lambda u: 2.0 * (u - 1.0), None,
                        lambda u: (u - 1.0) ** 3 / 3.0),
        "kl": (lambda u: u * math.log(u) if u > 0 else 0.0, lambda u: math.log(u) + 1.0, None,
               lambda u: 0.5 * u * u * math.log(u) - 0.25 * u * u),
        "total_variation": (lambda u: abs(u - 1.0), lambda u: 1.0 if u >= 1.0 else -1.0,
                            lambda u: 1.0 if u > 1.0 else -1.0, lambda u: 0.5 * (u - 1.0) * abs(u - 1.0)),
        "hellinger": (lambda u: (math.sqrt(u) - 1.0) ** 2,
                      lambda u: 1.0 - 1.0 / math.sqrt(u) if u > 0 else -math.inf, None,
                      lambda u: 0.5 * u * u - (4.0 / 3.0) * u ** 1.5 + u),
    }[name]
    g = generator_catalog(name)
    return GeneratorFunction(fn, dplus, dminus or dplus, anti, g.label, g.slope_at_infinity)


class TestGeneratedPass:
    """Each generator's pass is one template: a catalog generator's text inline,
    a generator built from callables with calls of them."""

    @settings(max_examples=150, deadline=None)
    @given(zero_mass_pairs())
    def test_call_form_matches_inline_text(self, pair):
        p, q = pair
        for name in GENERATOR_NAMES:
            g, built = generator_catalog(name), call_form(name)
            assert (built.dplus is built.dminus) == (g.dplus is g.dminus)
            assert _bits(lambda: divergence_report(built, p, q)) == _bits(lambda: divergence_report(g, p, q)), name

    @pytest.mark.parametrize("name, hoisted", [("kl", {"log_r", "log_rm"}), ("hellinger", {"sqrt_r", "sqrt_rm"}),
                                               ("chi2", set()), ("tv", set())], ids=["kl", "hellinger", "chi2", "tv"])
    def test_each_function_a_text_calls_is_hoisted(self, name, hoisted):
        # log(u) and sqrt(u) are taken once at r and once at r_m, as locals of the
        # pass, where the kl and hellinger texts call them; chi2 and tv call neither
        names = set(generator_catalog(name)._pass.__code__.co_varnames)
        assert names & {"log_r", "log_rm", "sqrt_r", "sqrt_rm"} == hoisted

    def test_kl_q_zero_raises_in_both_forms(self):
        # the inline pass takes log(q/p) once, first: at q = 0 < p it raises
        # what F(0) = 0.5 * 0 * 0 * log(0) raises in the pass that calls F
        p, q = DiscreteDistribution((0.5, 0.25, 0.25)), DiscreteDistribution((0.5, 0.5, 0.0))
        for g in (generator_catalog("kl"), call_form("kl")):
            with pytest.raises(ValueError, match="^math domain error$"):
                divergence_report(g, p, q)
