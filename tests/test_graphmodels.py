import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import float_pairs_from_flat, format_write_edge_list, line_by_line_read_edge_list
from hypothesis import given, settings
from hypothesis import strategies as st

from pdslab import graphmodels
from pdslab.errors import EdgeListParseError, InvalidParameterError, TooLargeError
from pdslab.graphmodels import (
    BipartiteGraph,
    Graph,
    PdsParams,
    gen_bipartite_er,
    gen_bipartite_pc,
    gen_bipartite_pds,
    gen_er,
    gen_pds_fixed_size,
    gen_pds_random_size,
    gen_planted_clique,
    read_edge_list,
    subgraph_edge_count,
    write_edge_list,
)
from pdslab.randkit import Seed
from pdslab.theorychecks import er_law_exact, pds_law_exact


class TestGraphContainers:
    def test_normalization_and_lookup(self):
        g = Graph(4, [(2, 1), (0, 3)])
        assert g.edges.tolist() == [[0, 3], [1, 2]]
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 1)
        # out-of-range ends are absent, not aliased onto another flat key
        assert not any(g.has_edge(u, v) for u, v in [(0, 6), (-1, 5), (1, -2), (4, 4), (-1, 3)])
        assert g.has_edges(np.arange(4), 3).tolist() == [True, False, False, False]
        assert not Graph(3).has_edge(0, 1)

    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(InvalidParameterError):
            Graph(3, [(1, 1)])
        with pytest.raises(InvalidParameterError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(InvalidParameterError):
            Graph(3, [(0, 5)])

    def test_fingerprint_stability(self):
        g = Graph(5, [(0, 1), (2, 4)])
        assert g.fingerprint() == Graph(5, [(2, 4), (0, 1)]).fingerprint()
        assert g.fingerprint() != Graph(5, [(0, 1), (2, 3)]).fingerprint()

    def test_bipartite_ranges(self):
        b = BipartiteGraph(2, 3, [(1, 2), (0, 0)])
        assert b.num_edges == 2
        assert b.has_edge(1, 2) and not b.has_edge(2, 1)
        assert not any(b.has_edge(u, v) for u, v in [(0, 5), (1, -3), (2, 0), (-1, 5)])
        assert b.has_edges(1, np.arange(3)).tolist() == [False, False, True]
        with pytest.raises(InvalidParameterError):
            BipartiteGraph(2, 3, [(2, 0)])

    def test_rejects_vertex_counts_whose_keys_overflow(self):
        # above 3037000499 a flat key u*width + v can pass 2**63 - 1 and wrap
        # onto a stored key: both lookups here once answered True
        with pytest.raises(InvalidParameterError, match="3037000499"):
            Graph(10**10, [(0, 1)]).has_edge(1844674407, 3709551617)
        with pytest.raises(InvalidParameterError, match="3037000499"):
            BipartiteGraph(10**10, 10**10, [(0, 0)]).has_edge(1844674407, 3709551616)
        with pytest.raises(InvalidParameterError, match="3037000499"):
            BipartiteGraph(3, 3_037_000_500)
        # at the limit every key fits, and a top end out of range is absent
        # rather than wrapped onto key 1
        b = BipartiteGraph(3_037_000_499, 3_037_000_499, [(0, 1)])
        assert b.has_edge(0, 1) and not b.has_edge(1880594865473421322, 3)

    NON_INTEGER_INPUT = {
        "float-end": (Graph, 3, [(0, 1.5)]),
        "float-array": (Graph, 3, np.array([[0.0, 2.9]])),
        "string-ends": (Graph, 3, [("0", "1")]),
        "huge-end": (Graph, 3, [(0, 2**70)]),
        "bool-array": (Graph, 3, np.array([[True, False]])),
        "float-count": (Graph, 3.7, [(0, 1)]),
        "string-count": (Graph, "3"),
        "bool-count": (Graph, True, []),
        "numpy-bool-count": (Graph, np.True_, []),
        "bipartite-float-count": (BipartiteGraph, 2, 3.0),
        "bipartite-float-array": (BipartiteGraph, 2, 3, np.array([[1.0, 2.0]])),
    }

    @pytest.mark.parametrize("case", sorted(NON_INTEGER_INPUT))
    def test_rejects_non_integer_input(self, case):
        # each was once truncated, parsed or left to overflow
        cls, *args = self.NON_INTEGER_INPUT[case]
        with pytest.raises(InvalidParameterError, match="integer"):
            cls(*args)

    def test_accepts_numpy_integers_and_empty_input(self):
        g = Graph(np.int64(3), np.array([[0, 1]], np.int32))
        assert g.num_vertices == 3 and type(g.num_vertices) is int
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1]]
        assert BipartiteGraph(np.int32(2), 3, np.array([[1, 2]], np.uint8)).num_edges == 1
        for empty in ((), [], np.empty((0, 2)), np.array([])):
            assert Graph(3, empty).num_edges == 0


class TestGeneratorSizes:
    # each once ended in a numpy AxisError, a TypeError from N < 1, or
    # "slice indices must be integers"; a bool size was taken as 1
    NON_INTEGER_SIZES = [
        (gen_planted_clique, (10.5, 3, 0.5)),
        (gen_planted_clique, (10, 3.0, 0.5)),
        (gen_planted_clique, (10, True, 0.5)),
        (gen_er, ("10", 0.3)),
        (gen_er, (10.0, 0.3)),
        (gen_er, (True, 0.3)),
        (gen_bipartite_er, (np.float64(10), 0.3)),
        (gen_bipartite_pc, (10, 2.5, 0.5)),
        (gen_bipartite_pc, (False, 1, 0.5)),
    ]

    @pytest.mark.parametrize("gen,args", NON_INTEGER_SIZES)
    def test_generators_reject_non_integer_sizes(self, gen, args):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            gen(*args, Seed(0))

    def test_generators_accept_numpy_integer_sizes(self):
        assert gen_er(np.int64(10), 0.3, Seed(0)) == gen_er(10, 0.3, Seed(0))
        want = gen_planted_clique(10, 3, 0.5, Seed(0))
        assert gen_planted_clique(np.int32(10), np.int64(3), 0.5, Seed(0)) == want


class TestErdosRenyi:
    def test_extremes(self):
        assert gen_er(10, 0.0, Seed(0)).num_edges == 0
        assert gen_er(10, 1.0, Seed(0)).num_edges == 45

    def test_determinism(self):
        assert gen_er(200, 0.03, Seed(5)) == gen_er(200, 0.03, Seed(5))

    def test_sparse_and_dense_paths_both_unbiased(self):
        # q = 0.01 exercises geometric skip-sampling, q = 0.3 per-pair draws
        for q, trials, n in [(0.01, 1000, 1000), (0.3, 400, 120)]:
            pairs = n * (n - 1) // 2
            total = sum(gen_er(n, q, Seed(7).child(i)).num_edges for i in range(trials))
            band = 4 * math.sqrt(pairs * q * (1 - q) / trials)
            assert abs(total / trials - pairs * q) <= band


class TestPlantedModels:
    def test_p_equals_q_exact_law(self):
        # analytic model law with an invisible planted set is exactly ER
        for n, k in [(3, 2), (4, 3)]:
            tv = 0.5 * np.abs(pds_law_exact(n, k, 0.3, 0.3) - er_law_exact(n, 0.3)).sum()
            assert tv <= 1e-12

    def test_full_membership(self):
        inst = gen_pds_random_size(PdsParams(6, 6, 0.7, 0.2), Seed(3))
        assert inst.planted == tuple(range(6))
        inst = gen_pds_fixed_size(PdsParams(6, 6, 0.7, 0.2), Seed(3))
        assert inst.planted == tuple(range(6))

    def test_membership_moments(self):
        sizes = [
            len(gen_pds_random_size(PdsParams(100, 10, 0.0, 0.0), Seed(77).child(i)).planted)
            for i in range(10_000)
        ]
        assert abs(np.mean(sizes) - 10.0) <= 0.4
        assert abs(np.var(sizes) - 9.0) <= 0.3 * 9.0

    def test_fixed_size_uniformity(self):
        counts = np.zeros(6)
        trials = 10_000
        for i in range(trials):
            inst = gen_pds_fixed_size(PdsParams(6, 3, 0.0, 0.0), Seed(13).child(i))
            counts[list(inst.planted)] += 1
        assert np.all(np.abs(counts / trials - 0.5) <= 0.02)

    def test_singleton_plant_is_plain_er(self):
        # K = 1 leaves no within-set pair, and the edge stream is untouched
        inst = gen_pds_fixed_size(PdsParams(40, 1, 0.9, 0.2), Seed(8))
        assert inst.graph == gen_er(40, 0.2, Seed(8))

    def test_membership_stream_separate_from_edges(self):
        # changing only the edge process must not move the planted set
        a = gen_pds_fixed_size(PdsParams(30, 5, 0.9, 0.1), Seed(21))
        b = gen_pds_fixed_size(PdsParams(30, 5, 0.3, 0.25), Seed(21))
        assert a.planted == b.planted
        a = gen_pds_random_size(PdsParams(30, 5, 0.9, 0.1), Seed(22))
        b = gen_pds_random_size(PdsParams(30, 5, 0.3, 0.25), Seed(22))
        assert a.planted == b.planted

    def test_params_validation(self):
        with pytest.raises(InvalidParameterError):
            PdsParams(5, 0, 0.5, 0.2)
        with pytest.raises(InvalidParameterError):
            PdsParams(5, 2, 0.2, 0.5)
        # sizes must be integers; K = 3.5 once failed later, in the sampler
        for bad in ((10.5, 3), (10, 3.5), (10, "3"), (True, True)):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                PdsParams(*bad, 0.9, 0.1)
        assert PdsParams(np.int64(10), np.int32(3), 0.9, 0.1).K == 3


class TestPlantedClique:
    def test_complete_when_k_is_n(self):
        inst = gen_planted_clique(6, 6, 0.5, Seed(1))
        assert inst.graph.num_edges == 15

    def test_gamma_zero_triangle(self):
        inst = gen_planted_clique(9, 3, 0.0, Seed(4))
        assert inst.graph.num_edges == 3
        assert subgraph_edge_count(inst.graph, inst.planted) == 3

    def test_planted_subgraph_always_complete(self):
        for i in range(1000):
            inst = gen_planted_clique(20, 5, 0.5, Seed(9).child(i))
            assert subgraph_edge_count(inst.graph, inst.planted) == 10


class TestBipartite:
    def test_biclique_complete(self):
        inst = gen_bipartite_pc(5, 5, 0.3, Seed(2))
        assert inst.graph.num_edges == 25

    def test_p_equals_q_marginal(self):
        # with p = q the planting consumes no edge randomness at all
        inst = gen_bipartite_pds(PdsParams(40, 6, 0.1, 0.1), Seed(14))
        assert inst.graph == gen_bipartite_er(40, 0.1, Seed(14))

    def test_fixed_size_forced_block(self):
        inst = gen_bipartite_pds(PdsParams(50, 5, 1.0, 0.0), Seed(6), fixed_size=True)
        top, bottom = inst.planted
        assert len(top) == len(bottom) == 5
        assert inst.graph.num_edges == 25
        assert all(inst.graph.has_edge(u, v) for u in top for v in bottom)


def _probe_indices(n: int, count: int = 2000, seed: int = 0) -> np.ndarray:
    """Tail, row-boundary and random flat pair indices at vertex count n,
    built without an array of length n."""
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    ends = np.arange(min(n - 1, count))
    rows = np.unique(np.concatenate([ends, n - 2 - ends, rng.integers(0, n - 1, count)])).tolist()
    starts = np.array([i * (2 * n - i - 1) // 2 for i in rows], dtype=np.int64)
    t = np.concatenate([starts - 1, starts, starts + 1, total - 1 - ends, rng.integers(0, total, count)])
    return np.unique(t[(t >= 0) & (t < total)])


def _exact_pair(n: int, t: int) -> tuple:
    """(i, j) of flat pair index t, in Python integers from the first row:
    row i starts at i(2n - i - 1)/2."""
    i = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * t)) // 2
    while i * (2 * n - i - 1) // 2 > t:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= t:
        i += 1
    return i, t - i * (2 * n - i - 1) // 2 + i + 1


class TestSamplerCap:
    """Requests whose expected edge count is above the cap are refused
    before anything is drawn."""

    CAP = graphmodels._MAX_EXPECTED_EDGES

    @pytest.fixture(autouse=True)
    def no_drawing(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("edges were drawn")

        monkeypatch.setattr(graphmodels, "_bernoulli_flat", drawn)

    @pytest.mark.parametrize("sample, expected", [
        # C(N, 2) q, N^2 q, then planted parts alone: C(K, 2) (p - q), K^2 (p - q)
        (lambda: gen_er(100_000, 0.9, Seed(1)), "4.5e+09"),
        (lambda: gen_bipartite_er(8_000, 0.9, Seed(1)), "5.76e+07"),
        (lambda: gen_pds_fixed_size(PdsParams(10**6, 20_000, 1.0, 0.0), Seed(1)), "2e+08"),
        (lambda: gen_pds_random_size(PdsParams(10**6, 20_000, 0.5, 0.0), Seed(1)), "1e+08"),
        (lambda: gen_planted_clique(10**6, 12_000, 0.0, Seed(1)), "7.2e+07"),
        (lambda: gen_bipartite_pc(10**6, 8_000, 0.0, Seed(1)), "6.4e+07"),
    ])
    def test_refused_before_drawing(self, sample, expected):
        with pytest.raises(TooLargeError) as err:
            sample()
        assert str(err.value) == f"expected {expected} edges, above the sampler's cap of 5e+07"

    def test_cap_is_inclusive(self):
        # 10^8 * 0.5 is exactly the cap: the estimate passes and drawing starts
        assert self.CAP == 5 * 10**7
        with pytest.raises(AssertionError, match="edges were drawn"):
            gen_bipartite_er(10_000, 0.5, Seed(1))
        with pytest.raises(TooLargeError):
            gen_bipartite_er(10_000, 0.5000001, Seed(1))

    def test_cap_far_above_the_largest_draw(self):
        # the benchmark pipeline's planted clique, the largest graph drawn
        assert self.CAP >= 10 * (math.comb(1000, 2) * 0.5 + math.comb(60, 2) * 0.5)


class TestPairIndex:
    def test_matches_float_inversion(self):
        # every index at every n <= 299, and probes at n where the float
        # inversion is exact
        for n in range(2, 300):
            t = np.arange(n * (n - 1) // 2)
            assert np.array_equal(graphmodels._pairs_from_flat(n, t), float_pairs_from_flat(n, t))
        for n in (10**3, 4471, 10**5, 10**6, 10**7):
            t = _probe_indices(n)
            assert np.array_equal(graphmodels._pairs_from_flat(n, t), float_pairs_from_flat(n, t))

    def test_exact_up_to_the_vertex_limit(self):
        # the float inversion's two fixed correction rounds fell short here:
        # at n = 10**9 it mapped this index to (999999997, 999999993)
        assert graphmodels._pairs_from_flat(10**9, [499_999_999_499_999_992]).tolist() == [
            [999_999_995, 999_999_998]
        ]
        for n in (10**9, 3 * 10**9, graphmodels._MAX_VERTEX_COUNT):
            t = _probe_indices(n)
            expected = [_exact_pair(n, x) for x in t.tolist()]
            assert graphmodels._pairs_from_flat(n, t).tolist() == [list(p) for p in expected]


class TestFrozenSamples:
    """Every generator's graph fingerprint and planted-set digest at N = 200,
    with q on both sides of the 0.1 switch between per-pair draws and the
    geometric skip walk, at random and fixed size, p = q, K = N, and a
    random-size draw whose planted set is empty (Seed(4), Seed(9))."""

    S = Seed(16)
    P = PdsParams
    SAMPLES = {
        "er-sparse": (gen_er, (200, 0.05, S), "b1f3d9725ac84ef7", "536fd5a56c585c00"),
        "er-dense": (gen_er, (200, 0.3, S), "366b39f99bf8375c", "536fd5a56c585c00"),
        "pds-sparse": (gen_pds_random_size, (P(200, 20, 0.12, 0.05), S), "b90f669b7d7e5d90", "15313c356b202859"),
        "pds-sparse-dense-extras": (gen_pds_random_size, (P(200, 20, 0.5, 0.05), S), "4715f266c6c6a890", "15313c356b202859"),
        "pds-dense": (gen_pds_random_size, (P(200, 20, 0.8, 0.3), S), "66347658cb08740d", "15313c356b202859"),
        "pds-p-eq-q": (gen_pds_random_size, (P(200, 20, 0.05, 0.05), S), "b1f3d9725ac84ef7", "15313c356b202859"),
        "pds-k-eq-n": (gen_pds_random_size, (P(200, 200, 0.5, 0.3), S), "a7de39ef13bd3c37", "60eb1827728842bd"),
        "pds-empty-plant": (gen_pds_random_size, (P(200, 1, 0.9, 0.05), Seed(4)), "826f49e038e52ca6", "9791547bf874064f"),
        "pds-fixed-sparse": (gen_pds_fixed_size, (P(200, 20, 0.12, 0.05), S), "176151d14b4146e1", "6aa167784ba97f36"),
        "pds-fixed-sparse-dense-extras": (gen_pds_fixed_size, (P(200, 20, 0.5, 0.05), S), "bf239033fa70be40", "6aa167784ba97f36"),
        "pds-fixed-dense": (gen_pds_fixed_size, (P(200, 20, 0.8, 0.3), S), "e91169041fa72a74", "6aa167784ba97f36"),
        "pds-fixed-p-eq-q": (gen_pds_fixed_size, (P(200, 20, 0.05, 0.05), S), "b1f3d9725ac84ef7", "6aa167784ba97f36"),
        "pds-fixed-k-eq-n": (gen_pds_fixed_size, (P(200, 200, 0.5, 0.3), S), "a7de39ef13bd3c37", "60eb1827728842bd"),
        "pc-sparse": (gen_planted_clique, (200, 15, 0.05, S), "bec5320107b2552b", "a5bd68609343e48c"),
        "pc-dense": (gen_planted_clique, (200, 15, 0.3, S), "ffd94a2a8e4193c3", "a5bd68609343e48c"),
        "pc-gamma-0": (gen_planted_clique, (200, 15, 0.0, S), "2be853644530fd0b", "a5bd68609343e48c"),
        "pc-k-eq-n": (gen_planted_clique, (200, 200, 0.3, S), "7fe4ffe6277fc3ce", "60eb1827728842bd"),
        "ber-sparse": (gen_bipartite_er, (200, 0.05, S), "f9887228de56d29b", "536fd5a56c585c00"),
        "ber-dense": (gen_bipartite_er, (200, 0.3, S), "ca62f66a6738db75", "536fd5a56c585c00"),
        "bpds-sparse": (gen_bipartite_pds, (P(200, 20, 0.12, 0.05), S), "ad16917675f5ea74", "342fe1a159b76963"),
        "bpds-dense": (gen_bipartite_pds, (P(200, 20, 0.8, 0.3), S), "00142c8631737fcf", "342fe1a159b76963"),
        "bpds-p-eq-q": (gen_bipartite_pds, (P(200, 20, 0.05, 0.05), S), "f9887228de56d29b", "342fe1a159b76963"),
        "bpds-k-eq-n": (gen_bipartite_pds, (P(200, 200, 0.5, 0.3), S), "5660f88a3ef7295f", "ab79a19e66ff9a93"),
        "bpds-empty-plant": (gen_bipartite_pds, (P(200, 1, 0.9, 0.05), Seed(9)), "4800c875d1ad1cb0", "bc4e96cf581d764e"),
        "bpds-fixed-sparse": (gen_bipartite_pds, (P(200, 20, 0.12, 0.05), S, True), "081640f402b8b03e", "62d55ee18b0466cf"),
        "bpds-fixed-dense": (gen_bipartite_pds, (P(200, 20, 0.8, 0.3), S, True), "dc85bc2e149a1514", "62d55ee18b0466cf"),
        "bpds-fixed-p-eq-q": (gen_bipartite_pds, (P(200, 20, 0.05, 0.05), S, True), "f9887228de56d29b", "62d55ee18b0466cf"),
        "bpds-fixed-k-eq-n": (gen_bipartite_pds, (P(200, 200, 0.5, 0.3), S, True), "5660f88a3ef7295f", "ab79a19e66ff9a93"),
        "bpc-sparse": (gen_bipartite_pc, (200, 15, 0.05, S), "da92a0f78c46d305", "0eb0ab16f5c78926"),
        "bpc-dense": (gen_bipartite_pc, (200, 15, 0.3, S), "871ec6234c79664a", "0eb0ab16f5c78926"),
        "bpc-k-eq-n": (gen_bipartite_pc, (200, 200, 0.3, S), "d0db1929b3bbe840", "ab79a19e66ff9a93"),
    }

    @pytest.mark.parametrize("case", sorted(SAMPLES))
    def test_sample_frozen(self, case):
        generate, args, fingerprint, planted_digest = self.SAMPLES[case]
        out = generate(*args)
        graph, planted = (out, None) if isinstance(out, (Graph, BipartiteGraph)) else (out.graph, out.planted)
        digest = hashlib.blake2b(repr(planted).encode(), digest_size=8).hexdigest()
        assert (f"{graph.fingerprint():016x}", digest) == (fingerprint, planted_digest)


class TestSubgraphEdgeCount:
    def test_small_sets(self):
        g = gen_er(8, 0.5, Seed(5))
        assert subgraph_edge_count(g, []) == 0
        assert subgraph_edge_count(g, [3]) == 0
        assert subgraph_edge_count(g, [3, 3, 3]) == 0

    def test_complete_graph(self):
        g = gen_er(8, 1.0, Seed(5))
        assert subgraph_edge_count(g, [0, 2, 5, 7]) == 6
        # repeated and unsorted members, and a one-shot iterator
        assert subgraph_edge_count(g, [7, 2, 7, 0, 5, 2]) == 6
        assert subgraph_edge_count(g, iter(np.array([5, 0, 7, 2]))) == 6

    def test_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert subgraph_edge_count(g, {1, 2, 3}) == 2
        assert subgraph_edge_count(g, (v for v in [3, 1, 2, 1])) == 2

    def test_random_graphs_against_edge_scan(self):
        for i in range(20):
            g = gen_er(30, 0.3, Seed(31).child(i))
            S = Seed(32).child(i).rng().choice(30, size=12).tolist()
            members = set(S)
            expected = sum(1 for u, v in g.edges.tolist() if u in members and v in members)
            assert subgraph_edge_count(g, S) == expected

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            subgraph_edge_count(Graph(3, []), [5])
        with pytest.raises(InvalidParameterError):
            subgraph_edge_count(Graph(3, [(0, 1)]), [0, -1])
        # a member that is not an integer vertex is refused, not truncated
        for members in ([0.9, 1], [True, 2], ["1", 2]):
            with pytest.raises(InvalidParameterError):
                subgraph_edge_count(Graph(4, [(0, 1), (1, 2)]), members)


_MUTATIONS = ("swap", "insert", "delete", "replace_separator", "double_space", "crlf", "lone_cr",
              "drop_final_newline", "duplicate_line", "long_value", "sign_or_zero",
              "non_ascii_digit")
# characters a mutation may insert or write over a separator: separators
# splitlines or split() honour, signs, a letter, and U+0660 (an Arabic-Indic
# zero, which int() accepts)
_INSERTS = "0123456789 \n\r\t\x0b\x0c+-x\u0660"


def _mutate(text: str, kind: str, i: int, pick: int) -> str:
    """One edit of an edge-list text; i picks where, pick picks how."""
    if kind == "swap":
        j = i % max(len(text) - 1, 1)
        return text[:j] + text[j + 1:j + 2] + text[j:j + 1] + text[j + 2:]
    if kind == "insert":
        j = i % (len(text) + 1)
        return text[:j] + _INSERTS[pick % len(_INSERTS)] + text[j:]
    if kind == "delete":
        j = i % len(text)
        return text[:j] + text[j + 1:]
    if kind == "drop_final_newline":
        return text[:-1] if text.endswith("\n") else text
    if kind == "duplicate_line":
        # insert the copy, or write it over the next line so the count holds
        lines = text.splitlines(keepends=True)
        j = i % len(lines)
        return "".join(lines[:j + 1] + lines[j:j + 1] + lines[j + 1 + pick % 2:])
    # the rest rewrite one match of a pattern
    pattern = {"replace_separator": r"[ \n]", "double_space": " ", "crlf": "\n",
               "lone_cr": "\r\n"}.get(kind, r"\d+")
    spots = list(re.finditer(pattern, text))
    if not spots:
        return text
    j, end = spots[i % len(spots)].span()
    token = text[j:end]
    if kind == "replace_separator":
        new = _INSERTS[pick % len(_INSERTS)]
    elif kind in ("double_space", "crlf", "lone_cr"):
        new = {"double_space": "  ", "crlf": "\r\n", "lone_cr": "\r"}[kind]
    elif kind == "long_value":
        width = 19 + pick % 2
        # the same value padded with zeros, or a value of that many digits
        new = token.zfill(width) if pick % 4 < 2 else str(10 ** (width - 1) + int(token))
    elif kind == "sign_or_zero":
        new = "+0"[pick % 2] + token
    else:
        new = "".join(chr(0x660 + int(c)) for c in token)
    return text[:j] + new + text[end:]


def _read_outcome(read, path):
    """The graph read, or the type and text of the error raised."""
    try:
        return read(path)
    except (EdgeListParseError, InvalidParameterError) as exc:
        return type(exc), str(exc)


class TestEdgeListIO:
    def test_empty_graph_header(self, tmp_graph_file):
        g = read_edge_list(tmp_graph_file("3 0\n"))
        assert isinstance(g, Graph) and g.num_vertices == 3 and g.num_edges == 0

    def test_round_trip(self, tmp_path):
        g = gen_er(50, 0.2, Seed(11))
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_bipartite_round_trip(self, tmp_path):
        g = gen_bipartite_er(20, 0.3, Seed(12))
        path = tmp_path / "b.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_writer_bytes_frozen(self, tmp_path):
        # the bytes are the file format: these digests must never move
        cases = [
            (gen_planted_clique(1000, 60, 0.5, Seed(1)).graph, "ae31cebd8ef4e6a603538eb21cdf38f5"),
            (gen_bipartite_er(30, 0.2, Seed(2)), "1c16d5964cc7cebeb8e9c3f6b2d306f7"),
        ]
        for g, digest in cases:
            path = tmp_path / "g.txt"
            write_edge_list(g, path)
            assert hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() == digest

    def test_writer_matches_format_reference(self, tmp_path):
        top = graphmodels._MAX_VERTEX_COUNT
        graphs = [
            Graph(0), Graph(3), BipartiteGraph(0, 0), BipartiteGraph(2, 5),
            Graph(2, [(0, 1)]), BipartiteGraph(1, 1, [(0, 0)]),
            Graph(top, [(0, top - 1)]),
            BipartiteGraph(top, 7, [(top - 1, 6)]), BipartiteGraph(7, top, [(6, top - 1)]),
        ]
        # ends of every width from 1 to 10 digits, against ends of every other width
        ends = sorted({0, 1, 9, top - 2, top - 1} | {10**w + d for w in range(1, 10) for d in (-1, 0, 7)})
        graphs.append(Graph(top, [(u, v) for u in ends for v in ends if u < v]))
        graphs.append(BipartiteGraph(top, top, [(u, v) for u in ends for v in ends]))
        for n, q in ((2, 1.0), (9, 0.5), (50, 0.2), (200, 0.05), (200, 0.9), (1000, 0.01), (1200, 0.3)):
            graphs += [gen_er(n, q, Seed(n)), gen_bipartite_er(n, q, Seed(n))]
        for g in graphs:
            write_edge_list(g, tmp_path / "new.txt")
            format_write_edge_list(g, tmp_path / "old.txt")
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes(), g

    def test_write_and_read_memory_per_edge(self, tmp_path):
        # a string-format writer peaked at ~86 bytes an edge here, and the
        # reader before the one-pass order check at ~107
        g = gen_er(1000, 0.5, Seed(3))
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        tracemalloc.start()
        try:
            write_edge_list(g, path)
            assert read_edge_list(path) == g
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * g.num_edges

    def test_writer_memory_is_bounded(self, tmp_path):
        # the writer formats fixed-size slices of edges: a one-slice writer
        # peaked at ~52 bytes an edge on this graph
        g = gen_er(1100, 0.5, Seed(3))
        assert g.num_edges >= 300_000
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        tracemalloc.start()
        try:
            write_edge_list(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * g.num_edges

    @pytest.mark.parametrize("size", [1, 7])
    def test_writer_slices_match_format_reference(self, tmp_path, monkeypatch, size):
        # slice seams between ends of different digit counts write no padding
        monkeypatch.setattr(graphmodels, "_WRITE_SLICE", size)
        top = graphmodels._MAX_VERTEX_COUNT
        ends = [0, 5, 9, 10, 99, 100, 12345, top - 1]
        for g in (Graph(top, [(u, v) for u in ends for v in ends if u < v]),
                  BipartiteGraph(top, top, [(u, v) for u in ends for v in ends]),
                  gen_er(40, 0.3, Seed(5)), Graph(4)):
            write_edge_list(g, tmp_path / "new.txt")
            format_write_edge_list(g, tmp_path / "old.txt")
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes(), g

    def test_non_canonical_read_memory_per_edge(self, tmp_path):
        # a per-line reader that held the decoded text through its loop
        # peaked at ~197 bytes an edge here; the text and the lines must go
        # before the rows become arrays and the graph
        g = gen_er(1000, 0.2, Seed(3))
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        tracemalloc.start()
        try:
            assert read_edge_list(path) == g
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 196 * g.num_edges

    @pytest.mark.parametrize("rewrite", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace(" ", "\t \t  "),
        lambda t: t.replace("\n", " \t\n"),
        lambda t: re.sub(r"\d+", lambda m: "+00" + m.group(), t),
        lambda t: t[:-1],
    ], ids=["crlf", "tabs-and-space-runs", "trailing-whitespace", "plus-and-zeros", "no-final-newline"])
    def test_non_canonical_input_accepted(self, tmp_path, rewrite):
        for g in (gen_er(30, 0.2, Seed(13)), gen_bipartite_er(12, 0.3, Seed(14))):
            canonical = tmp_path / "canonical.txt"
            write_edge_list(g, canonical)
            twin = tmp_path / "twin.txt"
            twin.write_bytes(rewrite(canonical.read_text()).encode())
            assert twin.read_bytes() != canonical.read_bytes()
            assert read_edge_list(twin) == g

    def test_canonical_file_skips_per_line_loop(self, tmp_path, monkeypatch):
        def per_line_rows(*args):
            raise AssertionError("the per-line loop ran on a canonical file")

        monkeypatch.setattr(graphmodels, "_per_line_graph", per_line_rows)
        for g in (gen_er(30, 0.2, Seed(13)), gen_bipartite_er(12, 0.3, Seed(14)), Graph(3)):
            path = tmp_path / "g.txt"
            write_edge_list(g, path)
            assert read_edge_list(path) == g

    def test_malformed_line_reports_position(self, tmp_graph_file):
        self.assert_faults(tmp_graph_file, [
            ("4 1\n0 1 2\n", 2, "expected 2 fields, got 3"),
            ("2 3 1\n0\n", 2, "expected 2 fields, got 1"),
            # separators in canonical order around an empty field
            ("2 3 2\n0 \n1 2\n", 2, "expected 2 fields, got 1"),
            ("3 1\na b\n", 2, "non-integer field in 'a b'"),
            ("3 1\n0 1.5\n", 2, "non-integer field in '0 1.5'"),
            (b"3 1\n0 \xff1\n", 2, "not UTF-8 text"),
        ])

    def test_duplicate_edge(self, tmp_graph_file):
        self.assert_faults(tmp_graph_file, [
            ("4 2\n0 1\n0 1\n", 3, "duplicate edge (0, 1)"),
            ("6 3\n0 1\n2 3\n2 3\n", 4, "duplicate edge (2, 3)"),
            # the earliest repeated line, not the smallest repeated edge
            ("6 4\n2 3\n0 1\n2 3\n0 1\n", 4, "duplicate edge (2, 3)"),
            ("2 3 2\n1 0\n1 0\n", 3, "duplicate edge (1, 0)"),
        ])

    def test_endpoint_order_enforced(self, tmp_graph_file):
        self.assert_faults(tmp_graph_file, [
            ("4 1\n2 1\n", 2, "need 0 <= u < v < N in (2, 1)"),
            ("4 1\n1 1\n", 2, "need 0 <= u < v < N in (1, 1)"),
        ])

    def test_out_of_range_endpoint(self, tmp_graph_file):
        self.assert_faults(tmp_graph_file, [
            ("4 1\n0 9\n", 2, "need 0 <= u < v < N in (0, 9)"),
            ("4 1\n-1 2\n", 2, "need 0 <= u < v < N in (-1, 2)"),
            ("2 3 1\n2 0\n", 2, "endpoint out of range in (2, 0)"),
            ("2 3 1\n0 -1\n", 2, "endpoint out of range in (0, -1)"),
            # beyond int64: still a range fault, not an overflow
            ("4 1\n0 99999999999999999999\n", 2,
             "need 0 <= u < v < N in (0, 99999999999999999999)"),
            ("2 3 1\n99999999999999999999 0\n", 2,
             "endpoint out of range in (99999999999999999999, 0)"),
            # 10**19 would wrap to a negative int64
            ("4 1\n10000000000000000000 1\n", 2, "need 0 <= u < v < N in (10000000000000000000, 1)"),
            ("2 3 1\n10000000000000000000 0\n", 2, "endpoint out of range in (10000000000000000000, 0)"),
        ])

    def test_wrong_edge_count(self, tmp_graph_file):
        self.assert_faults(tmp_graph_file, [
            ("4 2\n0 1\n", 3, "expected 2 edge lines, found 1"),
            ("4 1\n0 1\n0 2\n", 4, "expected 1 edge lines, found 2"),
            ("4 1\n0 1\n2", 4, "expected 1 edge lines, found 2"),
            ("2 3 2\n0 1\n", 3, "expected 2 edge lines, found 1"),
        ])

    def test_bad_header(self, tmp_graph_file):
        self.assert_faults(tmp_graph_file, [
            ("oops\n", 1, "header must be 'N M' or 'Nt Nb M'"),
            ("1 2 3 4\n", 1, "header must be 'N M' or 'Nt Nb M'"),
            ("\n", 1, "header must be 'N M' or 'Nt Nb M'"),
            ("3 x\n", 1, "non-integer field in '3 x'"),
            ("", 1, "empty file"),
        ])

    def test_negative_edge_count(self, tmp_graph_file):
        # a header fault, not a count of lines that cannot match
        self.assert_faults(tmp_graph_file, [
            ("3 -1\n", 1, "negative edge count -1"),
            ("3 -2\n0 1\n", 1, "negative edge count -2"),
            ("2 3 -1\n", 1, "negative edge count -1"),
        ])

    def test_earliest_fault_wins(self, tmp_graph_file):
        # a duplicate and a per-line fault in one file: the earlier line is reported
        self.assert_faults(tmp_graph_file, [
            ("6 4\n0 1\n0 1\n2 3\n0 9\n", 3, "duplicate edge (0, 1)"),
            ("6 4\n0 1\n0 9\n2 3\n0 1\n", 3, "need 0 <= u < v < N in (0, 9)"),
        ])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_files_match_line_by_line_reader(self, tmp_path_factory, data):
        seed = Seed(data.draw(st.integers(0, 2**16), label="seed"))
        if data.draw(st.booleans(), label="bipartite"):
            g = gen_bipartite_er(data.draw(st.integers(1, 6)), 0.4, seed)
        else:
            g = gen_er(data.draw(st.integers(2, 9)), 0.4, seed)
        path = tmp_path_factory.getbasetemp() / "mutated.txt"
        write_edge_list(g, path)
        text = path.read_text()
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            kind = data.draw(st.sampled_from(_MUTATIONS), label="kind")
            text = _mutate(text, kind, data.draw(st.integers(0, 10**6)), data.draw(st.integers(0, 63)))
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(read_edge_list, path) == _read_outcome(line_by_line_read_edge_list, path)

    @staticmethod
    def assert_faults(tmp_graph_file, cases):
        """Each (text, line, message): reading text fails at exactly that line
        with exactly that message."""
        for text, line, message in cases:
            with pytest.raises(EdgeListParseError) as err:
                read_edge_list(tmp_graph_file(text))
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}"), text
