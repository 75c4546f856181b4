import math

import pytest
from divergence_oracles import CLOSED_FORMS, chi_squared

from trapbound.divergence import (
    GENERATOR_NAMES,
    DiscreteDistribution,
    GeneratorFunction,
    UndefinedDivergenceError,
    csiszar,
    gap_enclosure,
    generator_catalog,
    hh_divergence,
    lin_wong,
    sandwich_report,
)
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
    w1 = rng.uniform(0.05, 1.0, size=n)
    w2 = rng.uniform(0.05, 1.0, size=n)
    return (DiscreteDistribution(tuple(w1 / w1.sum())),
            DiscreteDistribution(tuple(w2 / w2.sum())))


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
        for weights in ((math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (1.0, math.nan)):
            with pytest.raises(ValueError, match="sum to 1"):
                DiscreteDistribution(weights)


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
            GeneratorFunction(lambda u: u, lambda u: 1.0, lambda u: 1.0, "bad")

    def test_antiderivatives(self):
        # oracle: central finite difference recovers the generator
        h = 1e-6
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            for u in (0.3, 0.9, 1.7):
                fd = (g.antiderivative(u + h) - g.antiderivative(u - h)) / (2 * h)
                assert fd == pytest.approx(g.fn(u), rel=1e-6, abs=1e-6), name


class TestCsiszar:
    def test_matches_closed_forms(self):
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            for p, q in CORPUS:
                expected = CLOSED_FORMS[name](p.weights, q.weights)
                assert csiszar(g, p, q) == pytest.approx(expected, rel=1e-12, abs=1e-12), name

    def test_kl_spot_value(self):
        d = csiszar(generator_catalog("kl"), P2, Q2)
        assert d == pytest.approx(0.25 * math.log(0.5) + 0.75 * math.log(1.5), abs=1e-15)
        assert d == pytest.approx(0.130812, abs=1e-6)

    def test_identical_arguments_vanish(self):
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            assert csiszar(g, P2, P2) == pytest.approx(0.0, abs=1e-15)

    def test_mismatched_supports(self):
        with pytest.raises(ValueError):
            csiszar(generator_catalog("kl"), P2, DiscreteDistribution((1.0,)))

    def test_zero_mass_conventions(self):
        p = DiscreteDistribution((1.0, 0.0))
        q = DiscreteDistribution((0.5, 0.5))
        # finite slope at infinity: the q-only point contributes q * slope
        tv = generator_catalog("total_variation")
        assert csiszar(tv, p, q) == pytest.approx(1.0 * abs(0.5 - 1.0) + 0.5 * 1.0, abs=1e-15)
        # infinite slope: divergence is +inf
        assert csiszar(generator_catalog("chi_squared"), p, q) == math.inf
        # both masses zero at a point: the point is ignored
        pz = DiscreteDistribution((1.0, 0.0))
        qz = DiscreteDistribution((1.0, 0.0))
        assert csiszar(generator_catalog("kl"), pz, qz) == 0.0
        # no declared slope: undefined
        bare = GeneratorFunction(lambda u: (u - 1.0) ** 2,
                                 lambda u: 2.0 * (u - 1.0), lambda u: 2.0 * (u - 1.0),
                                 "bare")
        with pytest.raises(UndefinedDivergenceError):
            csiszar(bare, p, q)

    def test_permutation_invariance(self):
        g = generator_catalog("hellinger")
        p = DiscreteDistribution((0.2, 0.3, 0.5))
        q = DiscreteDistribution((0.5, 0.3, 0.2))
        pp = DiscreteDistribution((0.5, 0.3, 0.2))
        qq = DiscreteDistribution((0.2, 0.3, 0.5))
        assert csiszar(g, p, q) == pytest.approx(csiszar(g, pp, qq), rel=1e-14)


class TestChiSquaredClosedForms:
    """The (u-1)^2 generator has every quantity in closed form:
    D = chi2, LW = chi2/4, HH = chi2/3."""

    def test_spot_values(self):
        g = generator_catalog("chi_squared")
        x2 = chi_squared(P2, Q2)
        assert x2 == pytest.approx(0.25, abs=1e-15)
        assert csiszar(g, P2, Q2) == pytest.approx(0.25, abs=1e-14)
        assert lin_wong(g, P2, Q2) == pytest.approx(0.0625, abs=1e-14)
        hh = hh_divergence(g, P2, Q2)
        assert hh.lo == pytest.approx(0.25 / 3.0, abs=1e-14)
        assert hh.hi == pytest.approx(0.25 / 3.0, abs=1e-14)

    def test_closed_forms_across_corpus(self):
        g = generator_catalog("chi_squared")
        for p, q in CORPUS:
            x2 = chi_squared(p, q)
            assert csiszar(g, p, q) == pytest.approx(x2, abs=1e-10)
            assert lin_wong(g, p, q) == pytest.approx(x2 / 4.0, abs=1e-10)
            hh = hh_divergence(g, p, q)
            assert hh.lo == pytest.approx(x2 / 3.0, abs=1e-10)
            assert hh.hi == pytest.approx(x2 / 3.0, abs=1e-10)


class TestHHDivergence:
    def test_exact_when_antiderivative_available(self):
        g = generator_catalog("kl")
        enc = hh_divergence(g, P2, Q2)
        assert enc.width == 0.0

    def test_adaptive_fallback_matches_exact(self):
        exact = generator_catalog("hellinger")
        bare = GeneratorFunction(exact.fn, exact.dplus, exact.dminus, "hellinger-bare",
                                 slope_at_infinity=1.0)
        for p, q in CORPUS[:3]:
            ref = hh_divergence(exact, p, q).lo
            enc = hh_divergence(bare, p, q, eps=1e-9)
            assert enc.contains(ref, slack=1e-12), (p.weights, q.weights)
            assert enc.width <= 1e-9

    def test_p_zero_point_takes_its_limit(self):
        # p = 0 < q: the term p mean f over [1, q/p] tends to q f'(inf)/2
        p = DiscreteDistribution((0.0, 0.5, 0.5))
        q = DiscreteDistribution((0.2, 0.4, 0.4))
        tv = generator_catalog("tv")
        rep = sandwich_report(tv, p, q)
        # tv is affine on each side of 1, so LW = HH = D/2 = 0.2
        assert rep.hh.lo == rep.hh.hi == pytest.approx(0.2, abs=1e-15)
        assert rep.lin_wong == pytest.approx(0.2, abs=1e-15)
        assert rep.half_csiszar == pytest.approx(0.2, abs=1e-15)
        assert rep.holds
        for name in ("kl", "chi_squared"):
            g = generator_catalog(name)
            assert hh_divergence(g, p, q) == Enclosure(math.inf, math.inf)
            assert sandwich_report(g, p, q).holds
        # the adaptive path adds the same limit
        exact = generator_catalog("hellinger")
        bare = GeneratorFunction(exact.fn, exact.dplus, exact.dminus, "hellinger-bare",
                                 slope_at_infinity=1.0)
        assert hh_divergence(bare, p, q).contains(hh_divergence(exact, p, q).lo, slack=1e-12)

    def test_p_zero_without_slope_is_undefined(self):
        p = DiscreteDistribution((0.0, 1.0))
        q = DiscreteDistribution((0.5, 0.5))
        exact = generator_catalog("chi_squared")
        bare = GeneratorFunction(exact.fn, exact.dplus, exact.dminus, "bare",
                                 antiderivative=exact.antiderivative)
        for fn in (hh_divergence, gap_enclosure):
            with pytest.raises(UndefinedDivergenceError):
                fn(bare, p, q)
        # p = q = 0 needs no slope
        zero = DiscreteDistribution((0.0, 1.0))
        assert hh_divergence(bare, zero, zero) == Enclosure(0.0, 0.0)
        assert gap_enclosure(bare, zero, zero) == Enclosure(0.0, 0.0)

    def test_nonnegative_on_random_pairs(self, rng):
        gens = [generator_catalog(n) for n in GENERATOR_NAMES]
        for _ in range(125):
            n = int(rng.integers(2, 51))
            p, q = random_pair(rng, n)
            for g in gens:
                assert csiszar(g, p, q) >= -1e-12, g.label
                assert lin_wong(g, p, q) >= -1e-12, g.label
                assert hh_divergence(g, p, q).lo >= -1e-12, g.label


class TestSandwichAndGap:
    def test_sandwich_holds_everywhere(self, rng):
        gens = [generator_catalog(n) for n in GENERATOR_NAMES]
        pairs = list(CORPUS) + [random_pair(rng, int(rng.integers(2, 12))) for _ in range(40)]
        for g in gens:
            for p, q in pairs:
                rep = sandwich_report(g, p, q)
                assert rep.holds, (g.label, p.weights, q.weights)
                assert rep.lin_wong <= rep.hh.hi + 1e-9
                assert rep.hh.lo <= rep.half_csiszar + 1e-9

    def test_gap_enclosure_contains_true_gap(self, rng):
        gens = [generator_catalog(n) for n in GENERATOR_NAMES]
        pairs = list(CORPUS) + [random_pair(rng, int(rng.integers(2, 12))) for _ in range(40)]
        for g in gens:
            for p, q in pairs:
                gap = 0.5 * csiszar(g, p, q) - hh_divergence(g, p, q).midpoint
                enc = gap_enclosure(g, p, q)
                assert enc.contains(gap, slack=1e-9), (g.label, p.weights, q.weights)

    def test_kink_at_one_gives_exact_zero(self, rng):
        # tv is affine on each side of 1, so every term of D/2 - HH is 0; the
        # per-term bracket sees that, the telescoped one gave hi = 0.05 here
        tv = generator_catalog("tv")
        p = DiscreteDistribution((0.2, 0.3, 0.5))
        q = DiscreteDistribution((0.4, 0.1, 0.5))
        assert gap_enclosure(tv, p, q) == Enclosure(0.0, 0.0)
        for _ in range(20):
            p, q = random_pair(rng, int(rng.integers(2, 30)))
            assert gap_enclosure(tv, p, q) == Enclosure(0.0, 0.0)
        # q = p (1 + 2^-52): the midpoint (p + q)/(2p) rounds onto the kink
        # at 1, whose jump must not enter the lower side
        q = DiscreteDistribution((0.5 + 2.0 ** -53, 0.5 - 2.0 ** -53))
        assert 0.5 * (0.5 + q.weights[0]) / 0.5 == 1.0
        assert gap_enclosure(tv, P2, q) == Enclosure(0.0, 0.0)

    def test_p_zero_gap(self):
        p = DiscreteDistribution((0.0, 0.5, 0.5))
        q = DiscreteDistribution((0.2, 0.4, 0.4))
        # a finite slope at infinity: the point's limit is 0
        assert gap_enclosure(generator_catalog("tv"), p, q) == Enclosure(0.0, 0.0)
        hel = generator_catalog("hellinger")
        true_gap = 0.5 * csiszar(hel, p, q) - hh_divergence(hel, p, q).lo
        assert gap_enclosure(hel, p, q).contains(true_gap, slack=1e-12)
        # an infinite one: inf - inf, with limit q/4 for kl and +inf for chi2
        for name in ("kl", "chi_squared"):
            assert gap_enclosure(generator_catalog(name), p, q).hi == math.inf

    def test_chi_squared_gap_closed_form(self):
        g = generator_catalog("chi_squared")
        for p, q in CORPUS:
            enc = gap_enclosure(g, p, q)
            assert enc.lo == pytest.approx(0.0, abs=1e-15)
            assert enc.hi == pytest.approx(chi_squared(p, q) / 4.0, abs=1e-12)

    def test_equal_distributions_collapse(self):
        for name in GENERATOR_NAMES:
            g = generator_catalog(name)
            rep = sandwich_report(g, P2, P2)
            assert rep.lin_wong == pytest.approx(0.0, abs=1e-15)
            assert rep.hh.lo == rep.hh.hi == 0.0
            assert rep.half_csiszar == pytest.approx(0.0, abs=1e-15)
            assert rep.holds
