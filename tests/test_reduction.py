import math
import tracemalloc
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
    TooLargeError,
    ValidityViolationError,
    VertexCountMismatchError,
)
from pdslab.graphmodels import BipartiteGraph, Graph, PdsParams, gen_er, gen_planted_clique, gen_pds_random_size
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
    _colex_pairs,
    _floyd_sample,
    _largest_block,
    _WordStream,
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

    def test_new_cell_builds_two_binomials(self, monkeypatch):
        # P' and Q' of a new cell share one Binom(n, 2q) and one Binom(n, q)
        calls = []
        build = reduction.binom_pmf
        monkeypatch.setattr(reduction, "binom_pmf", lambda *args: calls.append(args) or build(*args))
        table = KernelTable(0.01, 0.5, 2)
        p_prime, q_prime, a = table.cell(2, 2)
        assert calls == [(4, 0.02), (4, 0.01)]
        # the same laws, to the bit, as the public builders give
        assert np.array_equal(p_prime.probs, build_pprime(2, 2, 0.01, 0.5)[0].probs)
        assert a == build_pprime(2, 2, 0.01, 0.5)[1]
        assert np.array_equal(q_prime.probs, build_qprime(2, 2, 0.01, 0.5).probs)


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
        parts = [[0, 1], [], [2, 3, 4], [5]]
        sizes = np.array([2, 0, 3, 1])

        def walk(sides):
            return [
                (parts[s], parts[t], diagonal, slots)
                for chunk in block_routes(sides, table, None)
                for s, t, diagonal, slots in zip(*(a.tolist() for a in chunk[:4]))
            ]

        assert walk([sizes]) == [
            ([0, 1], [0, 1], True, 1),
            ([0, 1], [2, 3, 4], False, 6),
            ([0, 1], [5], False, 2),
            ([2, 3, 4], [2, 3, 4], True, 3),
            ([2, 3, 4], [5], False, 3),
        ]
        assert [blk[3] for blk in walk([sizes, sizes])] == [4, 6, 2, 6, 9, 3, 2, 3, 1]

    def test_oversize_part_ignores_input_bit(self):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        table = params.kernel_table

        def law(ls, lt, w):
            g = BipartiteGraph(1, 1, [(0, 0)] if w else [])
            ((_, _, _, slots, route),) = block_routes([np.array([ls]), np.array([lt])], table, g)
            return table.law(route[0], slots[0])

        on, off = law(6, 2, 1), law(6, 2, 0)  # max part > 2*ell
        assert np.array_equal(on.probs, off.probs)
        assert np.allclose(on.probs, binom_pmf(12, 0.01).probs, atol=1e-15)
        p_prime, q_prime, _ = table.cell(2, 2)
        assert law(2, 2, 1) is p_prime and law(2, 2, 0) is q_prime

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        bipartite=st.booleans(),
        chunk=st.integers(1, 40),
    )
    @example(sizes=[1], bipartite=False, chunk=1)
    @example(sizes=[3, 1, 0, 0], bipartite=False, chunk=1)
    def test_chunks_hold_whole_rows(self, sizes, bipartite, chunk):
        # at any chunk size, the chunks laid end to end are the per-block
        # walk, each holds at least one block, and no row spans two chunks
        n = len(sizes)
        want = []
        for s in range(n):
            for t in range(0 if bipartite else s, n):
                diagonal = not bipartite and s == t
                slots = math.comb(sizes[s], 2) if diagonal else sizes[s] * sizes[t]
                if slots:
                    want.append((s, t, diagonal, slots))
        sizes = np.array(sizes)
        table = KernelTable(0.01, 0.5, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_CHUNK_BLOCKS", chunk)
            chunks = list(block_routes([sizes, sizes] if bipartite else [sizes], table, None))
        got = [blk for c in chunks for blk in zip(*(a.tolist() for a in c[:4]))]
        assert got == want
        assert all(c[0].size for c in chunks)
        assert all(a[0][-1] < b[0][0] for a, b in zip(chunks, chunks[1:]))

    def test_empty_walk_yields_nothing(self, monkeypatch):
        # one vertex, one part of one vertex: no block has a slot
        table = KernelTable(0.0, 0.5, 1)
        for chunk in (1, reduction._CHUNK_BLOCKS):
            monkeypatch.setattr(reduction, "_CHUNK_BLOCKS", chunk)
            assert list(block_routes([np.array([1])], table, None)) == []
            params = ReductionParams(n=1, k=1, gamma=0.5, ell=1, q=0.0)
            assert reduce_graph(Graph(1), params, Seed(0)) == Graph(1)

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


class _ScriptedDraw:
    """Stands in for a draw function: each `draw(high)` call takes the next
    (high, value) of a script, checks the high and returns the value."""

    def __init__(self, bounds, path):
        self.calls = list(zip(bounds, path))

    def __call__(self, high):
        want_high, value = self.calls.pop(0)
        assert high == want_high
        return value


class TestPlacement:
    def test_colex_inversion(self):
        # every index below 2e6, against the pairs walked in colex order:
        # j = 1, 2, ... in turn, with i = 0..j-1 under each
        js = np.arange(1, 2001)
        want_j = np.repeat(js, js)[:2_000_000]
        want_i = np.arange(want_j.size) - np.repeat(np.cumsum(js) - js, js)[:2_000_000]
        i, j = _colex_pairs(np.arange(2_000_000))
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        # the row boundaries C(j, 2) - 1, C(j, 2), C(j, 2) + 1 up to j = 3e9,
        # where idx passes 4.5e18
        rng = np.random.default_rng(0)
        ends = {int(3e9 ** (t / 500)) for t in range(501)} | set(rng.integers(2, 3 * 10**9, 500).tolist())
        j = np.array(sorted(ends - {1}), dtype=np.int64)
        base = j * (j - 1) // 2
        for offset, want in ((-1, (j - 2, j - 1)), (0, (0 * j, j)), (1, (0 * j + 1, j))):
            got = _colex_pairs(base + offset)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_floyd_uniformity(self):
        # exact, not statistical: replay every sequence of draws Floyd's
        # algorithm can make; each m-subset must come out on equally many
        for n_slots in range(1, 9):
            for m in range(n_slots + 1):
                bounds = [i + 1 for i in range(n_slots - m, n_slots)]
                counts = Counter()
                for path in product(*map(range, bounds)):
                    draw = _ScriptedDraw(bounds, path)
                    counts[tuple(_floyd_sample(n_slots, m, draw))] += 1
                    assert not draw.calls
                assert sorted(counts) == list(combinations(range(n_slots), m))
                assert set(counts.values()) == {math.prod(bounds) // math.comb(n_slots, m)}

    def test_floyd_sizes(self):
        draw = _WordStream(Seed(1).rng().bit_generator).below
        assert _floyd_sample(10, 0, draw) == []
        assert _floyd_sample(5, 5, draw) == [0, 1, 2, 3, 4]


class TestWordStream:
    """`_WordStream` against numpy's own Generator on one seed: doubles and
    bounded draws interleaved, the same values, then the same next word and
    the same buffered half."""

    # ("u", n): n doubles; ("b", high): one integers(0, high).  A bounded
    # draw starts with no buffered half (first, and after an even number of
    # 32-bit draws) and with one; high = 1 draws nothing; high = 2**31 + 1
    # rejects about half of its 32-bit draws; 2**32 - 2 is the largest high
    # on the 32-bit path; a look-ahead longer than a chunk refills mid-read
    SCRIPT = [
        ("b", 1), ("b", 10), ("u", 3), ("b", 7), ("b", 1), ("u", 1), ("b", 5), ("b", 6),
        ("u", 2), *[("b", 2**31 + 1)] * 201, ("u", 5), ("b", 2**32 - 2), ("b", 3),
        ("u", _WordStream._CHUNK + 7), ("b", 1), ("b", 2), ("u", 1),
    ]

    @pytest.mark.parametrize("seed", [0, 5, 123456789])
    def test_matches_generator(self, seed):
        rng = Seed(seed).rng()
        stream = _WordStream(Seed(seed).rng().bit_generator)
        for kind, x in self.SCRIPT:
            if kind == "u":
                got = stream.uniforms(x).copy()
                stream.advance(x)
                assert np.array_equal(got, rng.random(x))
            else:
                assert stream.below(x) == int(rng.integers(0, x))
        # the same next word; the script ends with the high half of a word
        # buffered on both sides, and the next 32-bit draw takes it
        stream.uniforms(1)
        assert int(stream._words[stream._pos]) == int(rng.bit_generator.random_raw())
        stream.advance(1)
        assert stream.below(2**31 + 1) == int(rng.integers(0, 2**31 + 1))

    def test_rejection_fires(self):
        # 200 draws below 2**31 + 1 would take 100 words without a rejection
        stream = _WordStream(Seed(5).rng().bit_generator)
        for _ in range(200):
            stream.below(2**31 + 1)
        stream.uniforms(1)
        words = Seed(5).rng().bit_generator.random_raw(1000).tolist()
        assert words.index(int(stream._words[stream._pos])) >= 150


def _row_edges(g, lo: int, hi: int) -> np.ndarray:
    """`row_marks(lo, hi)` from the full-key lookup: rows lo..hi-1, and the
    columns from lo on with v > u in a Graph, every column in a bipartite one."""
    rows = np.arange(lo, hi)[:, None]
    if isinstance(g, Graph):
        cols = np.arange(lo, g.num_vertices)
        return g.has_edges(rows, cols) & (cols > rows)
    return g.has_edges(rows, np.arange(g.num_bottom))


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

    def test_too_large_output_refused_before_drawing(self, monkeypatch):
        # the estimate is G(N, q)'s expected edge count: C(N, 2) q, or N^2 q
        # bipartite; it must fire before the parent split or any block draw
        def drawn(*args):
            raise AssertionError("the reduction drew")

        monkeypatch.setattr(reduction, "as_seed", drawn)
        params = ReductionParams(n=50_000, k=10, gamma=0.5, ell=2, q=1 / 64)
        with pytest.raises(TooLargeError) as err:
            reduce_graph(Graph(50_000), params, Seed(0))
        assert str(err.value) == "expected 7.81e+07 edges, above the sampler's cap of 5e+07"
        params = ReductionParams(n=30_000, k=10, gamma=0.5, ell=2, q=1 / 64)
        with pytest.raises(TooLargeError, match=r"^expected 5\.62e\+07 edges"):
            reduce_bipartite(BipartiteGraph(30_000, 30_000), params, Seed(0))
        # C(19998, 2) / 64 is 3.1e6 and the 9999 * 10000 / 2 parent blocks
        # are under the walk cap, so drawing starts
        params = ReductionParams(n=9_999, k=10, gamma=0.5, ell=2, q=1 / 64)
        with pytest.raises(AssertionError, match="the reduction drew"):
            reduce_graph(Graph(9_999), params, Seed(0))

    def test_block_walk_refused_before_the_split(self, monkeypatch):
        # at q = 0 the edge estimate is 0; the parent blocks to walk,
        # n(n+1)/2 or n^2 bipartite, are checked against the same cap
        def drawn(*args):
            raise AssertionError("the reduction drew")

        monkeypatch.setattr(reduction, "as_seed", drawn)
        params = ReductionParams(n=10_000, k=10, gamma=0.5, ell=1, q=0.0)
        with pytest.raises(TooLargeError) as err:
            reduce_graph(Graph(10_000), params, Seed(0))
        assert str(err.value) == "50,005,000 parent blocks to walk, above the cap of 50,000,000"
        params = ReductionParams(n=7_072, k=10, gamma=0.5, ell=1, q=0.0)
        with pytest.raises(TooLargeError, match="^50,013,184 parent blocks"):
            reduce_bipartite(BipartiteGraph(7_072, 7_072), params, Seed(0))
        # 7071^2 is under the cap, so drawing starts
        params = ReductionParams(n=7_071, k=10, gamma=0.5, ell=1, q=0.0)
        with pytest.raises(AssertionError, match="the reduction drew"):
            reduce_bipartite(BipartiteGraph(7_071, 7_071), params, Seed(0))

    def test_largest_block_refused_before_any_law(self, monkeypatch):
        # parts near ell = 3000 give blocks of ~9e6 slots, each law a dense
        # vector over 0..slots; the slot cap fires before any law is built
        def built(*args):
            raise AssertionError("a law was built")

        monkeypatch.setattr(reduction, "binom_pmf", built)
        params = ReductionParams(n=10, k=2, gamma=0.5, ell=3000, q=0.0)
        for reduce, g in ((reduce_graph, Graph(10)), (reduce_bipartite, BipartiteGraph(10, 10))):
            with pytest.raises(TooLargeError, match=r"^the largest parent block has [\d,]+ slots, above the cap of 1,048,576$"):
                reduce(g, params, Seed(0))
        # a block within the cap builds its laws
        params = ReductionParams(n=10, k=2, gamma=0.5, ell=2, q=0.0)
        with pytest.raises(AssertionError, match="a law was built"):
            reduce_graph(Graph(10), params, Seed(0))

    def test_largest_block(self):
        # every Floyd bound stays on numpy's 32-bit draw
        assert reduction._MAX_BLOCK_SLOTS < 2**32 - 1
        assert _largest_block([np.array([3, 5, 0])]) == 15
        assert _largest_block([np.array([7, 2])]) == 21
        assert _largest_block([np.array([4])]) == 6
        assert _largest_block([np.array([1])]) == 0
        assert _largest_block([np.array([2, 4]), np.array([3, 1])]) == 12

    def test_memory_per_output_edge(self):
        # flat int64 buffers, not a tuple per edge: the output graph from an
        # (M, 2) array alone costs ~9 bytes an edge
        params = ReductionParams(n=1000, k=60, gamma=0.5, ell=2, q=0.05)
        g = gen_er(1000, 0.5, Seed(8))
        tracemalloc.start()
        try:
            out = reduce_graph(g, params, Seed(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.num_edges > 90_000
        assert peak <= 80 * out.num_edges

    def test_kernel_laws_built_once_per_params(self, monkeypatch):
        params = ReductionParams(n=20, k=5, gamma=0.5, ell=2, q=0.01)
        g = gen_er(20, 0.5, Seed(4))
        first = reduce_graph(g, params, Seed(5))
        calls = []
        build = reduction._kernel_laws
        monkeypatch.setattr(reduction, "_kernel_laws", lambda *args: calls.append(args) or build(*args))
        assert reduce_graph(g, params, Seed(5)) == first
        assert calls == []
        # the table belongs to the instance: an equal one builds its own
        assert reduce_graph(g, ReductionParams(n=20, k=5, gamma=0.5, ell=2, q=0.01), Seed(5)) == first
        assert calls

    def test_pipeline_reduction_builds_each_binomial_once(self, monkeypatch):
        # at the generate -> reduce pipeline's size a plain block and a kernel
        # cell of the same slot count share one Binom(slots, q): no
        # binom_pmf call repeats an earlier one
        calls = []
        build = reduction.binom_pmf
        monkeypatch.setattr(reduction, "binom_pmf", lambda *args: calls.append(args) or build(*args))
        g = gen_planted_clique(1000, 60, 0.5, Seed(6)).graph
        reduce_graph(g, ReductionParams(n=1000, k=60, gamma=0.5, ell=2, q=0.001), Seed(7))
        assert calls and len(set(calls)) == len(calls), Counter(calls).most_common(3)

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
        # every chunk lookup the reduction makes, against the full-key lookup:
        # the routes read from the marks, and the marks themselves
        chunks_seen = []
        route = reduction.block_routes

        def checked(sizes, table, graph):
            for chunk in route(sizes, table, graph):
                s, t, diagonal, _, routes = chunk
                lo, hi = int(s[0]), int(s[-1]) + 1
                assert np.array_equal(graph.row_marks(lo, hi), _row_edges(graph, lo, hi)), (lo, hi)
                kernel = routes != reduction.ROUTE_PLAIN
                assert not (kernel & diagonal).any()
                assert np.array_equal(routes[kernel] - reduction.ROUTE_QPRIME, graph.has_edges(s[kernel], t[kernel]))
                chunks_seen.append(kernel.sum())
                yield chunk

        monkeypatch.setattr(reduction, "block_routes", checked)
        graphs = [Graph(30), gen_er(30, 1.0, Seed(1)), gen_er(30, 0.3, Seed(2)),
                  gen_planted_clique(120, 12, 0.5, Seed(3)).graph,
                  BipartiteGraph(30, 30), gen_bipartite_pc(40, 6, 0.4, Seed(4)).graph]
        for chunk in (reduction._CHUNK_BLOCKS, 50):
            monkeypatch.setattr(reduction, "_CHUNK_BLOCKS", chunk)
            for i, g in enumerate(graphs):
                n = g.num_vertices if isinstance(g, Graph) else g.num_top
                for ell in (1, 2, 5):
                    params = ReductionParams(n=n, k=2, gamma=0.5, ell=ell, q=0.01)
                    (reduce_graph if isinstance(g, Graph) else reduce_bipartite)(g, params, Seed(i))
        assert len(chunks_seen) > 400 and sum(chunks_seen) > 40_000

    def test_row_lookup_on_every_row(self):
        for g in (Graph(1), Graph(7), gen_er(7, 1.0, Seed(1)), gen_er(60, 0.4, Seed(2)),
                  BipartiteGraph(1, 4), BipartiteGraph(5, 3, [(4, 0), (0, 2)]),
                  gen_bipartite_pc(50, 7, 0.3, Seed(3)).graph):
            height = g._dims[0]
            for lo in range(height):
                for hi in (lo + 1, height):
                    assert np.array_equal(g.row_marks(lo, hi), _row_edges(g, lo, hi)), (lo, hi)


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
    def reduced_input(n, k, bipartite):
        if bipartite:
            return BipartiteGraph(
                n, n, [(u, v) for u in range(n) for v in range(n) if max(u, v) < k or (u + v) % 3 == 0]
            )
        return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if v < k or (u + 2 * v) % 3 == 0])

    @classmethod
    def reduced(cls, n, k, ell, q, seed, bipartite):
        params = ReductionParams(n=n, k=k, gamma=0.5, ell=ell, q=q)
        reduce = reduce_bipartite if bipartite else reduce_graph
        return reduce(cls.reduced_input(n, k, bipartite), params, Seed(seed))

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

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_seams(self, monkeypatch, chunk):
        # chunks cut between any two rows, and look-aheads of any width,
        # read the edge stream as the default chunks do
        for n, k, ell, q, seed, uni, bip in self.POINTS[:3]:
            params = ReductionParams(n=n, k=k, gamma=0.5, ell=ell, q=q)
            for bipartite, fingerprint in ((False, uni), (True, bip)):
                g = self.reduced(n, k, ell, q, seed, bipartite)
                assert g.fingerprint() == fingerprint
                want = per_block_reduce_edges(self.reduced_input(n, k, bipartite), params, Seed(seed))
                assert g == type(g)(*g._dims, want)
                for window in (reduction._WINDOW, 2):
                    with monkeypatch.context() as patch:
                        patch.setattr(reduction, "_CHUNK_BLOCKS", chunk)
                        patch.setattr(reduction, "_WINDOW", window)
                        assert self.reduced(n, k, ell, q, seed, bipartite) == g, (n, bipartite, window)

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

    @pytest.mark.parametrize(
        "alpha, beta, delta, ell",
        [
            (math.nan, 0.6, 0.1, 10),
            (0.5, 0.6, math.nan, 10),
            (0.5, 0.6, math.inf, 10),
            (0.5, 0.6, 0.1, math.nan),
            # finite, but ell^((2+delta)/alpha - 1) = 10^1019 overflows a float
            (0.1, 0.5, 100.0, 10),
        ],
    )
    def test_nan_and_overflow_rejected(self, alpha, beta, delta, ell):
        with pytest.raises(InvalidParameterError):
            map_parameters(alpha, beta, delta, ell)


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
