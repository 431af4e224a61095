import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, count, product

import numpy as np
import pytest
from conftest import per_block_reduce_edges
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdslab import reduction
from pdslab.detectors import H0, combined_test, estimate_errors
from pdslab.errors import (
    InvalidGammaError,
    InvalidParameterError,
    PreconditionViolationError,
    ValidityViolationError,
    VertexCountMismatchError,
)
from pdslab.graphmodels import Graph, PdsParams, gen_er, gen_planted_clique, gen_pds_random_size
from pdslab.randkit import Seed, binom_pmf, tv_distance
from pdslab.reduction import (
    KernelTable,
    ReductionParams,
    beta_sharp,
    beta_star,
    block_routes,
    build_pprime,
    build_qprime,
    compose_test,
    hard_regime_upper,
    m0_of,
    map_parameters,
    reduce_bipartite,
    reduce_graph,
    regime_classify,
    xi_bound,
    xi_bound_terms,
    _colex_pair,
    _floyd_sample,
)
from pdslab.graphmodels import BipartiteGraph, gen_bipartite_pc


class TestM0:
    @pytest.mark.parametrize("gamma,want", [(0.5, 1), (0.3, 1), (0.25, 2), (2**-10, 10), (0.49999999, 1)])
    def test_values(self, gamma, want):
        assert m0_of(gamma) == want

    def test_exact_dyadic_boundaries(self):
        for m in range(1, 40):
            assert m0_of(Fraction(1, 2**m)) == m
            if m >= 2:
                # nudging gamma below 2^-m pushes the floor up by one
                assert m0_of(Fraction(1, 2**m + 1)) == m

    def test_range_errors(self):
        for bad in (0.0, -0.1, 0.6, 1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidGammaError):
                m0_of(bad)


def tail_mass_oracle(n, q, gamma, m0):
    # independent evaluation of the leftover mass with exact combinatorics
    p = 2 * q
    total = 0.0
    for m in range(m0 + 1, n + 1):
        pm = math.comb(n, m) * p**m * (1 - p) ** (n - m)
        qm = math.comb(n, m) * q**m * (1 - q) ** (n - m)
        total += pm - qm / gamma
    return total


class TestKernelConstruction:
    def test_trivial_support_identity(self):
        p_prime, a = build_pprime(1, 1, 0.25, 0.5)
        assert a == 0.0
        assert np.allclose(p_prime.probs, [0.5, 0.5], atol=1e-15)

    def test_leftover_mass_fixture(self):
        _, a = build_pprime(2, 2, 0.01, 0.5)
        assert a == pytest.approx(1.15242e-3, abs=1e-8)
        assert a == pytest.approx(tail_mass_oracle(4, 0.01, 0.5, 1), abs=1e-15)

    def test_mixture_identity_grid(self):
        for ls, lt in [(1, 1), (1, 3), (2, 2), (3, 2), (4, 1)]:
            for q in (1e-3, 1e-2):
                for gamma in (0.5, 0.25):
                    p_prime, _ = build_pprime(ls, lt, q, gamma)
                    q_prime = build_qprime(ls, lt, q, gamma)
                    mix = gamma * p_prime.probs + (1 - gamma) * q_prime.probs
                    target = binom_pmf(ls * lt, q).probs
                    assert np.max(np.abs(mix - target)) <= 1e-12

    def test_qprime_fixture(self):
        q_prime = build_qprime(1, 1, 0.1, 0.5)
        assert q_prime[0] == pytest.approx(1.0, abs=1e-14)
        assert q_prime[1] == pytest.approx(0.0, abs=1e-14)

    def test_qprime_small_gamma_perturbation(self):
        gamma = 2**-10
        q_prime = build_qprime(1, 1, 0.05, gamma)
        assert tv_distance(q_prime, binom_pmf(1, 0.05)) <= 10 * gamma

    def test_validity_violation_surfaces(self):
        with pytest.raises(ValidityViolationError):
            build_pprime(4, 4, 0.2, 0.5)

    def test_kernel_table_memoizes_by_product(self):
        table = KernelTable(0.01, 0.5, 2)
        assert table.cell(1, 4)[0] is table.cell(2, 2)[0]
        assert table.cell(2, 2)[0] is not table.cell(2, 1)[0]


class TestReductionParams:
    def test_derived_quantities(self):
        params = ReductionParams(n=4, k=3, gamma=0.25, ell=5, q=0.001)
        assert (params.N, params.K, params.p, params.m0) == (20, 15, 0.002, 2)

    def test_condition_flags(self):
        good = ReductionParams(n=200, k=100, gamma=0.5, ell=2, q=0.01)
        assert good.kernel_condition and good.size_condition
        assert good.validate(strict=True) == []
        bad = ReductionParams(n=4, k=2, gamma=0.5, ell=2, q=0.3)
        assert not bad.kernel_condition
        assert bad.validate(strict=False)
        with pytest.raises(PreconditionViolationError):
            bad.validate(strict=True)

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            ReductionParams(n=2, k=3, gamma=0.5, ell=2, q=0.01)
        with pytest.raises(InvalidParameterError):
            ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.6)  # p = 2q > 1
        # n = 2.5 once gave N = 5.0, and ell = 2.0 failed later, in reduce_graph
        for bad in ({"n": 2.5}, {"k": 2.0}, {"ell": 2.0}, {"ell": "2"}, {"ell": True}):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                ReductionParams(**{"n": 4, "k": 2, "gamma": 0.5, "ell": 2, "q": 0.01, **bad})
        assert ReductionParams(n=np.int64(4), k=2, gamma=0.5, ell=np.int32(2), q=0.01).N == 8


class TestSampleEdgeCount:
    def test_empty_part(self):
        # parts of sizes 2, 0, 3, 1: blocks with an empty part and the
        # singleton's diagonal have no slot and are never yielded
        table = KernelTable(0.01, 0.5, 2)
        parts = [np.array([0, 1]), np.array([], dtype=np.int64), np.array([2, 3, 4]), np.array([5])]

        def walk(rows, cols):
            return [
                (rows[row.s].tolist(), cols[t].tolist(), diagonal, slots)
                for row in block_routes(rows, cols, table, lambda s, t: True)
                for t, diagonal, slots in zip(row.t.tolist(), row.diagonal.tolist(), row.slots.tolist())
            ]

        assert walk(parts, parts) == [
            ([0, 1], [0, 1], True, 1),
            ([0, 1], [2, 3, 4], False, 6),
            ([0, 1], [5], False, 2),
            ([2, 3, 4], [2, 3, 4], True, 3),
            ([2, 3, 4], [5], False, 3),
        ]
        assert [blk[3] for blk in walk(parts, list(parts))] == [4, 6, 2, 6, 9, 3, 2, 3, 1]

    def test_oversize_part_ignores_input_bit(self):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        table = params.kernel_table

        def law(ls, lt, w):
            (row,) = block_routes([np.arange(ls)], [np.arange(lt)], table, lambda s, t: w)
            return table.law(row.route[0], row.slots[0])

        on, off = law(6, 2, 1), law(6, 2, 0)  # max part > 2*ell
        assert np.array_equal(on.probs, off.probs)
        assert np.allclose(on.probs, binom_pmf(12, 0.01).probs, atol=1e-15)
        p_prime, q_prime, _ = table.cell(2, 2)
        assert law(2, 2, 1) is p_prime and law(2, 2, 0) is q_prime

    def test_mixture_sampling_matches_binomial(self):
        # drawing the input bit Bern(gamma) then the kernel reproduces the
        # plain binomial: chi-square fit over 10^6 draws at the 1e-3 level
        from scipy import stats

        params = ReductionParams(n=4, k=4, gamma=0.5, ell=2, q=0.01)
        table = params.kernel_table
        p_prime, q_prime, _ = table.cell(2, 2)
        rng = Seed(43).rng()
        n_draws = 1_000_000
        bit = rng.random(n_draws) < params.gamma
        u = rng.random(n_draws)
        draws = np.where(
            bit,
            np.searchsorted(p_prime.cdf(), u, side="right"),
            np.searchsorted(q_prime.cdf(), u, side="right"),
        )
        expected = binom_pmf(4, 0.01).probs * n_draws
        observed = np.bincount(draws, minlength=5).astype(float)
        keep = expected >= 5.0
        chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        chi2 += (observed[~keep].sum() - expected[~keep].sum()) ** 2 / expected[~keep].sum()
        assert chi2 < stats.chi2.ppf(1 - 1e-3, int(keep.sum()))

    def test_pprime_frequencies_under_planted_bit(self):
        from scipy import stats

        params = ReductionParams(n=2, k=2, gamma=0.25, ell=2, q=0.01)
        table = params.kernel_table
        p_prime, _, _ = table.cell(2, 2)
        rng = Seed(44).rng()
        n_draws = 100_000
        draws = np.searchsorted(p_prime.cdf(), rng.random(n_draws), side="right")
        expected = p_prime.probs * n_draws
        observed = np.bincount(draws, minlength=5).astype(float)
        keep = expected >= 5.0
        chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        chi2 += (observed[~keep].sum() - expected[~keep].sum()) ** 2 / max(expected[~keep].sum(), 1e-9)
        assert chi2 < stats.chi2.ppf(1 - 1e-3, int(keep.sum()))


class _ScriptedRng:
    """Stands in for a Generator: each `integers(0, high)` call takes the
    next (high, value) of a script, checks the high and returns the value."""

    def __init__(self, bounds, path):
        self.calls = list(zip(bounds, path))

    def integers(self, low, high):
        want_high, value = self.calls.pop(0)
        assert (low, high) == (0, want_high)
        return value


class TestPlacement:
    def test_colex_inversion(self):
        # every index below 2e6, against the pairs walked in colex order
        want = ((i, j) for j in count(1) for i in range(j))
        assert all(_colex_pair(idx) == pair for idx, pair in zip(range(2_000_000), want))
        # the row boundaries C(j, 2) - 1, C(j, 2), C(j, 2) + 1 up to j = 3e9,
        # where idx passes 4.5e18
        rng = np.random.default_rng(0)
        ends = {int(3e9 ** (t / 500)) for t in range(501)} | set(rng.integers(2, 3 * 10**9, 500).tolist())
        for j in sorted(ends - {1}):
            base = j * (j - 1) // 2
            assert _colex_pair(base - 1) == (j - 2, j - 1)
            assert _colex_pair(base) == (0, j)
            assert _colex_pair(base + 1) == (1, j)

    def test_floyd_uniformity(self):
        # exact, not statistical: replay every sequence of draws Floyd's
        # algorithm can make; each m-subset must come out on equally many
        for n_slots in range(1, 9):
            for m in range(n_slots + 1):
                bounds = [i + 1 for i in range(n_slots - m, n_slots)]
                counts = Counter()
                for path in product(*map(range, bounds)):
                    rng = _ScriptedRng(bounds, path)
                    counts[tuple(_floyd_sample(n_slots, m, rng))] += 1
                    assert not rng.calls
                assert sorted(counts) == list(combinations(range(n_slots), m))
                assert set(counts.values()) == {math.prod(bounds) // math.comb(n_slots, m)}

    def test_floyd_sizes(self):
        rng = Seed(1).rng()
        assert _floyd_sample(10, 0, rng) == []
        assert _floyd_sample(5, 5, rng) == [0, 1, 2, 3, 4]


class TestReduceGraph:
    def test_output_shape_and_determinism(self):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        g = Graph(2, [(0, 1)])
        out = reduce_graph(g, params, Seed(3))
        assert out.num_vertices == 4
        assert out == reduce_graph(g, params, Seed(3))

    def test_q_zero_empty(self):
        params = ReductionParams(n=3, k=2, gamma=0.5, ell=2, q=0.0)
        g = gen_er(3, 0.5, Seed(1))
        assert reduce_graph(g, params, Seed(2)).num_edges == 0

    def test_vertex_count_mismatch(self):
        params = ReductionParams(n=3, k=2, gamma=0.5, ell=2, q=0.01)
        with pytest.raises(VertexCountMismatchError):
            reduce_graph(Graph(4, []), params, Seed(0))

    def test_kernel_laws_built_once_per_params(self, monkeypatch):
        params = ReductionParams(n=20, k=5, gamma=0.5, ell=2, q=0.01)
        g = gen_er(20, 0.5, Seed(4))
        first = reduce_graph(g, params, Seed(5))
        calls = []
        build = reduction.build_pprime
        monkeypatch.setattr(reduction, "build_pprime", lambda *args: calls.append(args) or build(*args))
        assert reduce_graph(g, params, Seed(5)) == first
        assert calls == []
        # the table belongs to the instance: an equal one builds its own
        assert reduce_graph(g, ReductionParams(n=20, k=5, gamma=0.5, ell=2, q=0.01), Seed(5)) == first
        assert calls

    def test_partition_marginals(self):
        # |V_t| ~ Binom(N, 1/n): reproduce the documented parent stream
        params = ReductionParams(n=5, k=5, gamma=0.5, ell=4, q=0.001)
        sizes = []
        for i in range(20_000):
            parents = Seed(31).child(i).child(0).rng().integers(0, params.n, size=params.N)
            sizes.append(int((parents == 0).sum()))
        mean, var = np.mean(sizes), np.var(sizes)
        assert abs(mean - params.N / params.n) <= 0.1
        want_var = params.N * (1 / params.n) * (1 - 1 / params.n)
        assert abs(var - want_var) <= 0.15 * want_var

    def test_per_edge_marginal_null(self):
        # inputs from G(n, gamma) make every output edge Bernoulli(q)
        params = ReductionParams(n=6, k=6, gamma=0.5, ell=3, q=0.005)
        n_pairs = params.N * (params.N - 1) // 2
        reps = 300
        total = 0
        for i in range(reps):
            g_in = gen_er(6, 0.5, Seed(909).child(2 * i))
            total += reduce_graph(g_in, params, Seed(909).child(2 * i + 1)).num_edges
        samples = reps * n_pairs
        sigma = math.sqrt(samples * params.q * (1 - params.q))
        assert abs(total - samples * params.q) <= 4 * sigma


    def test_row_lookup_matches_has_edges(self, monkeypatch):
        # every row lookup the reduction makes, against the full-key lookup
        rows_seen = []
        route = reduction.block_routes

        def checked(rows, cols, table, has_edge):
            g = has_edge.__self__

            def lookup(s, t):
                got = has_edge(s, t)
                assert np.array_equal(got, g.has_edges(s, t)), (s, t)
                rows_seen.append(s)
                return got

            return route(rows, cols, table, lookup)

        monkeypatch.setattr(reduction, "block_routes", checked)
        graphs = [Graph(30), gen_er(30, 1.0, Seed(1)), gen_er(30, 0.3, Seed(2)),
                  gen_planted_clique(120, 12, 0.5, Seed(3)).graph,
                  BipartiteGraph(30, 30), gen_bipartite_pc(40, 6, 0.4, Seed(4)).graph]
        for i, g in enumerate(graphs):
            n = g.num_vertices if isinstance(g, Graph) else g.num_top
            for ell in (1, 2, 5):
                params = ReductionParams(n=n, k=2, gamma=0.5, ell=ell, q=0.01)
                (reduce_graph if isinstance(g, Graph) else reduce_bipartite)(g, params, Seed(i))
        assert len(rows_seen) > 500

    def test_row_lookup_on_every_row(self):
        for g in (Graph(1), Graph(7), gen_er(7, 1.0, Seed(1)), gen_er(60, 0.4, Seed(2)),
                  BipartiteGraph(1, 4), BipartiteGraph(5, 3, [(4, 0), (0, 2)]),
                  gen_bipartite_pc(50, 7, 0.3, Seed(3)).graph):
            height, width = g._dims[0], g._dims[-1]
            for s in range(height):
                t = np.arange(s if isinstance(g, Graph) else 0, width)
                assert np.array_equal(g.row_has_edges(s, t), g.has_edges(s, t))


class TestReduceBipartite:
    def test_shape_and_determinism(self):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        out = reduce_bipartite(g, params, Seed(5))
        assert (out.num_top, out.num_bottom) == (4, 4)
        assert out == reduce_bipartite(g, params, Seed(5))

    def test_q_zero_empty(self):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.0)
        g = gen_bipartite_pc(2, 2, 0.5, Seed(1)).graph
        assert reduce_bipartite(g, params, Seed(2)).num_edges == 0

    def test_side_mismatch(self):
        params = ReductionParams(n=3, k=2, gamma=0.5, ell=2, q=0.01)
        with pytest.raises(VertexCountMismatchError):
            reduce_bipartite(BipartiteGraph(3, 2, []), params, Seed(0))


class TestFrozenStreams:
    # (n, k, ell, q, seed, reduce_graph fingerprint, reduce_bipartite
    # fingerprint); a change here changes the seed -> output map, which
    # needs a sidecar format bump and a CHANGES.md entry
    POINTS = [
        (6, 3, 1, 0.25, 4, 0xB099A2A910A99AA7, 0x5483ECE5C714E42B),
        (12, 6, 2, 0.05, 7, 0xFDA89532398E22C5, 0xAEB901A6689AEF03),
        (60, 20, 3, 0.02, 11, 0x0A4FEC521F8409F2, 0x73E055992B900516),
        (200, 40, 2, 0.01, 13, 0xE045C671F1BB4256, 0xF46E69A3B2FC890B),
        # sparse enough that whole parent rows draw no edge
        (300, 60, 3, 0.002, 17, 0xF45E8AA0831C0AE3, 0x1EF8586FD55CE41D),
        # the pipeline's scale, unipartite only
        (1000, 60, 2, 0.001, 19, 0x4BEF42142CD61CB4, None),
    ]

    @staticmethod
    def reduced(n, k, ell, q, seed, bipartite):
        params = ReductionParams(n=n, k=k, gamma=0.5, ell=ell, q=q)
        if bipartite:
            b = BipartiteGraph(
                n, n, [(u, v) for u in range(n) for v in range(n) if max(u, v) < k or (u + v) % 3 == 0]
            )
            return reduce_bipartite(b, params, Seed(seed))
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if v < k or (u + 2 * v) % 3 == 0])
        return reduce_graph(g, params, Seed(seed))

    @pytest.mark.parametrize("n,k,ell,q,seed,uni,bip", POINTS)
    def test_fingerprints(self, n, k, ell, q, seed, uni, bip):
        assert self.reduced(n, k, ell, q, seed, False).fingerprint() == uni
        if bip is not None:
            assert self.reduced(n, k, ell, q, seed, True).fingerprint() == bip

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        ell=st.integers(1, 4),
        q_frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        gamma=st.sampled_from([0.5, 0.25]),
        seed=st.integers(0, 2**32),
        mask=st.integers(0, 2**36 - 1),
    )
    # q = 0, and 16 q ell^2 = 1 at points where both sides have an empty
    # part and a part above 2*ell
    @example(n=6, ell=1, q_frac=0.0, gamma=0.5, seed=4, mask=2**36 - 1)
    @example(n=5, ell=1, q_frac=1.0, gamma=0.5, seed=25, mask=0x5A5A5A)
    @example(n=4, ell=2, q_frac=1.0, gamma=0.25, seed=83, mask=0xF0F0)
    def test_matches_per_block_loop(self, n, ell, q_frac, gamma, seed, mask):
        # q_frac scales q to the kernel condition's edge, 16 q ell^2 = 1
        params = ReductionParams(n=n, k=n, gamma=gamma, ell=ell, q=q_frac / (16 * ell * ell))
        pairs = [(u, v) for u in range(n) for v in range(n) if mask >> (u * n + v) & 1]
        g = Graph(n, [(u, v) for u, v in pairs if u < v])
        b = BipartiteGraph(n, n, pairs)
        N = params.N
        want = Graph(N, per_block_reduce_edges(g, params, Seed(seed)))
        assert reduce_graph(g, params, Seed(seed)).fingerprint() == want.fingerprint()
        want = BipartiteGraph(N, N, per_block_reduce_edges(b, params, Seed(seed)))
        assert reduce_bipartite(b, params, Seed(seed)).fingerprint() == want.fingerprint()

    def test_points_cover_empty_and_oversize_parts(self):
        # part sizes from the documented parent stream: one draw per side
        oversize_sides = 0
        for n, _, ell, _, seed, _, bip in self.POINTS:
            rng = Seed(seed).child(0).rng()
            for _side in range(1 if bip is None else 2):
                sizes = np.bincount(rng.integers(0, n, size=n * ell), minlength=n)
                assert sizes.min() == 0
                oversize_sides += sizes.max() > 2 * ell
        assert oversize_sides >= 9


class TestXiBound:
    def test_term_fixture(self):
        params = ReductionParams(n=200, k=100, gamma=0.5, ell=10, q=1 / 1600)
        t1, t2, t3, t4, t5 = xi_bound_terms(params)
        assert t1 == pytest.approx(math.exp(-1000 / 12), rel=1e-12)
        assert t2 == pytest.approx(86.063, abs=5e-3)  # 150 * exp(-5/9)
        assert t3 == pytest.approx(5000.0, rel=1e-12)  # 2 * 100^2 * 0.5^2
        assert t4 == pytest.approx(0.5 * math.sqrt(math.expm1(72 * math.e**2 / 16)), rel=1e-12)
        assert t5 == pytest.approx(math.sqrt(50) * math.exp(-10 / 36), rel=1e-12)
        assert xi_bound(params) > 1.0  # vacuous at desk scale

    def test_q_zero_terms(self):
        params = ReductionParams(n=200, k=100, gamma=0.5, ell=10, q=0.0)
        t1, t2, t3, t4, t5 = xi_bound_terms(params)
        assert t3 == 0.0 and t4 == 0.0
        assert xi_bound(params) == pytest.approx(t1 + t2 + t5)

    def test_monotone_in_q(self):
        values = [
            xi_bound(ReductionParams(n=40, k=20, gamma=0.5, ell=2, q=2.0**-i))
            for i in range(16, 6, -1)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestMapParameters:
    def test_fixture(self):
        params = map_parameters(0.5, 0.6, 0.1, 10)
        assert (params.n, params.k) == (1584, 33)
        assert params.q == pytest.approx(10**-2.1, rel=1e-12)
        assert (params.N, params.K) == (15840, 330)

    def test_exponent_convergence(self):
        alpha, beta = 0.5, 0.6
        errs = []
        for ell in (10, 100, 1000):
            params = map_parameters(alpha, beta, 0.1, ell)
            a_hat = math.log(1 / params.q) / math.log(params.N)
            b_hat = math.log(params.K) / math.log(params.N)
            errs.append((abs(a_hat - alpha), abs(b_hat - beta)))
        assert errs[-1][0] <= 0.05 and errs[-1][1] <= 0.05
        assert errs[2][0] <= errs[0][0]

    def test_condition_report(self):
        # 16 q ell^2 = 16 ell^-delta: at delta = 0.1 the kernel condition
        # only holds for astronomically large ell; the flag must say so
        params = map_parameters(0.5, 0.9, 0.1, 8)
        assert params.kernel_condition is False
        assert isinstance(params.size_condition, bool)
        shrinking = [16 * map_parameters(0.5, 0.9, 0.1, ell).q * ell**2 for ell in (8, 64, 512)]
        assert shrinking == sorted(shrinking, reverse=True)

    def test_delta_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            map_parameters(0.5, 0.6, 0.0, 10)


class TestComposeTest:
    PARAMS = ReductionParams(n=8, k=4, gamma=0.5, ell=2, q=0.01)

    def test_constant_test_passes_through(self):
        composed = compose_test(lambda g: H0, self.PARAMS, Seed(1))
        assert composed(gen_er(8, 0.5, Seed(2))) == H0

    def test_deterministic_per_input(self):
        pds = PdsParams(16, 8, 0.02, 0.01)
        phi = lambda g: combined_test(g, pds, scan_mode="exact").decision
        composed = compose_test(phi, self.PARAMS, Seed(99))
        rebuilt = compose_test(phi, self.PARAMS, Seed(99))
        g = gen_er(8, 0.5, Seed(3))
        assert composed(g) == composed(g) == rebuilt(g)

    def test_error_transfer_bound(self):
        # composed clique-test error stays within the dense-subgraph test's
        # error plus empirical reduction slack (0.15 covers xi at this size)
        pds = PdsParams(16, 8, 0.02, 0.01)
        phi = lambda g: combined_test(g, pds, scan_mode="exact")
        phi_est = estimate_errors(
            lambda s: gen_er(16, 0.01, s),
            lambda s: gen_pds_random_size(pds, s).graph,
            phi,
            500,
            Seed(11),
        )
        composed = compose_test(phi, self.PARAMS, Seed(99))
        comp_est = estimate_errors(
            lambda s: gen_er(8, 0.5, s),
            lambda s: gen_planted_clique(8, 4, 0.5, s).graph,
            composed,
            500,
            Seed(12),
        )
        phi_err = phi_est.type1 + phi_est.type2
        comp_err = comp_est.type1 + comp_est.type2
        assert comp_err <= phi_err + 0.15


class TestRegimes:
    def test_boundary_curves(self):
        assert beta_star(0.4) == pytest.approx(0.4)
        assert beta_star(1.0) == pytest.approx(0.75)
        assert beta_sharp(1.0) == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "alpha,beta,want",
        [
            (2 / 3, 2 / 3, "boundary"),
            (1.0, 0.9, "simple"),
            (0.4, 0.5, "hard"),
            (1.5, 0.3, "impossible"),
            (0.2, 0.9, "simple"),
            (0.5, 0.3, "impossible"),
            (1.0, 0.75, "boundary"),
        ],
    )
    def test_classification(self, alpha, beta, want):
        assert regime_classify(alpha, beta) == want

    def test_gamma_variant(self):
        # Eq.-style interval at gamma = 1/2 is empty for small alpha, so a
        # detectable-but-unproven point reports as boundary
        assert hard_regime_upper(0.4, 0.5) < 0.4
        assert regime_classify(0.4, 0.5, 0.5) == "boundary"
        # large m0 (tiny gamma) re-opens the provably hard window
        assert hard_regime_upper(0.5, 2.0**-40) > 0.54
        assert regime_classify(0.5, 0.52, 2.0**-40) == "hard"

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            regime_classify(2.5, 0.5)
        with pytest.raises(InvalidParameterError):
            regime_classify(0.5, 1.5)
