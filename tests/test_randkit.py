import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdslab.errors import (
    InvalidParameterError,
    InvalidPmfError,
    InvalidProbabilityError,
)
from pdslab.randkit import (
    Pmf,
    Seed,
    as_seed,
    binom_pmf,
    hyper_pmf,
    mix64,
    sample_pmf,
    tv_distance,
)


def pmf_strategy(max_len=9):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_len)
        .map(lambda w: Pmf(np.array(w) / sum(w)))
    )


class TestPmf:
    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidPmfError):
            Pmf([0.5, 0.6, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidPmfError):
            Pmf([0.5, 0.4])

    @pytest.mark.parametrize("probs", [[float("nan")], [0.5, float("nan")], [float("inf"), 0.0]])
    def test_rejects_non_finite_without_warning(self, probs):
        # the suite turns warnings into errors, so a warning here would
        # surface in place of the InvalidPmfError
        with pytest.raises(InvalidPmfError, match="non-finite"):
            Pmf(probs)

    def test_clamps_roundoff_and_renormalizes(self):
        p = Pmf([1.0 + 5e-13, -5e-13])
        assert p[1] == 0.0
        assert math.fsum(p.probs.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        p = Pmf([0.25, 0.75])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    @given(pmf_strategy())
    @settings(max_examples=50, deadline=None)
    def test_normalized(self, p):
        assert abs(math.fsum(p.probs.tolist()) - 1.0) <= 1e-12


class TestBinomPmf:
    def test_two_point(self):
        assert np.allclose(binom_pmf(1, 0.25).probs, [0.75, 0.25], atol=1e-15)

    def test_symmetric(self):
        assert np.allclose(binom_pmf(2, 0.5).probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_small_p_value(self):
        # C(4,2) * 0.02^2 * 0.98^2, cross-checked below by convolution
        assert binom_pmf(4, 0.02)[2] == pytest.approx(0.00230496, abs=1e-12)

    def test_extreme_p(self):
        assert binom_pmf(5, 0.0)[0] == 1.0
        assert binom_pmf(5, 1.0)[5] == 1.0

    def test_rejects_non_integer_n(self):
        # binom_pmf(2.5, 0.5) once returned Binom(2, 0.5)
        for n in (2.5, 2.0, True, "3", None):
            with pytest.raises(InvalidParameterError, match="binomial n must be an integer"):
                binom_pmf(n, 0.5)
        assert binom_pmf(np.int64(3), 0.5) == binom_pmf(3, 0.5)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbabilityError):
            binom_pmf(3, 1.5)
        with pytest.raises(InvalidParameterError):
            binom_pmf(-1, 0.5)

    @pytest.mark.parametrize("n,p", [(8, 0.03), (17, 0.4), (64, 0.9), (33, 0.5)])
    def test_matches_bernoulli_convolution(self, n, p):
        conv = np.array([1.0])
        for _ in range(n):
            conv = np.convolve(conv, [1.0 - p, p])
        assert np.max(np.abs(conv - binom_pmf(n, p).probs)) <= 1e-10


class TestHyperPmf:
    def test_direct_combinatorial(self):
        # C(2,h) C(2,2-h) / C(4,2)
        assert np.allclose(hyper_pmf(4, 2, 2).probs, [1 / 6, 4 / 6, 1 / 6], atol=1e-14)

    def test_point_masses(self):
        assert hyper_pmf(7, 7, 7)[7] == 1.0
        assert hyper_pmf(5, 0, 3)[0] == 1.0

    def test_matches_exact_fractions(self):
        pop, succ, draws = 11, 4, 6
        dist = hyper_pmf(pop, succ, draws)
        for h in range(draws + 1):
            want = (
                math.comb(succ, h) * math.comb(pop - succ, draws - h) / math.comb(pop, draws)
            )
            assert dist[h] == pytest.approx(want, abs=1e-14)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            hyper_pmf(4, 5, 2)
        with pytest.raises(InvalidParameterError):
            hyper_pmf(4, 2, 5)

    def test_rejects_non_integer_sizes(self):
        # hyper_pmf(5.9, 2.2, 2.7) once returned Hypergeometric(5, 2, 2)
        for args in ((5.9, 2.2, 2.7), (5, 2, 2.0), (5, True, 2), ("5", 2, 2)):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                hyper_pmf(*args)
        assert hyper_pmf(np.int64(5), np.int32(2), np.uint8(2)) == hyper_pmf(5, 2, 2)


class TestAsSeed:
    def test_rejects_non_integers(self):
        # 1.5 and True once gave Seed(1), "12" Seed(12), and None a TypeError
        for seed in (1.5, 1.0, True, np.bool_(True), "12", None, np.float64(3)):
            with pytest.raises(InvalidParameterError, match="seed must be an integer"):
                as_seed(seed)

    def test_integers_and_seeds(self):
        assert as_seed(12) == Seed(12)
        assert as_seed(np.uint64(2**64 - 1)) == Seed(2**64 - 1)
        seed = Seed(3, 4)
        assert as_seed(seed) is seed


class TestSampling:
    def test_point_mass(self):
        rng = Seed(1).rng()
        p = Pmf([0.0, 0.0, 0.0, 1.0])
        assert all(sample_pmf(p, rng) == 3 for _ in range(20))

    def test_determinism_across_generators(self):
        a = [sample_pmf(Pmf([0.5, 0.5]), Seed(9, 4).rng()) for _ in range(1)]
        b = [sample_pmf(Pmf([0.5, 0.5]), Seed(9, 4).rng()) for _ in range(1)]
        assert a == b
        seq1 = Seed(9, 4).rng().random(32).tolist()
        seq2 = Seed(9, 4).rng().random(32).tolist()
        assert seq1 == seq2

    def test_child_streams_differ(self):
        root = Seed(9)
        assert root.child(0).rng().random(8).tolist() != root.child(1).rng().random(8).tolist()
        assert mix64(1) not in (0, 1)

    def test_empirical_frequencies(self):
        p = Pmf([0.1, 0.2, 0.3, 0.25, 0.15])
        rng = Seed(77).rng()
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[sample_pmf(p, rng)] += 1
        bands = 4 * np.sqrt(p.probs * (1 - p.probs) / n)
        assert np.all(np.abs(counts / n - p.probs) <= bands)


class TestDivergences:
    def test_tv_identical(self):
        p = binom_pmf(5, 0.3)
        assert tv_distance(p, p) == 0.0

    def test_tv_disjoint(self):
        assert tv_distance(Pmf([1.0]), Pmf([0.0, 1.0])) == 1.0

    def test_tv_binomials(self):
        assert tv_distance(binom_pmf(2, 0.5), binom_pmf(2, 0.25)) == pytest.approx(
            0.3125, abs=1e-15
        )

    @given(pmf_strategy(), pmf_strategy())
    @settings(max_examples=100, deadline=None)
    def test_tv_range_and_symmetry(self, a, b):
        d = tv_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tv_distance(b, a), abs=1e-15)

    @given(pmf_strategy(), pmf_strategy(), pmf_strategy())
    @settings(max_examples=80, deadline=None)
    def test_tv_triangle(self, a, b, c):
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
