import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import dense_scan_heuristic, recursive_scan_max, sequential_scan_heuristic
from pdslab import detectors
from pdslab.detectors import (
    H0,
    H1,
    ErrorEstimate,
    TestOutcome,
    combined_test,
    dks_detector,
    estimate_errors,
    is_monotone,
    prop2_bound_lin,
    recovery_detector,
    recovery_threshold,
    scan_statistic,
    scan_heuristic_batch,
    scan_subset_count,
    csr_adjacency,
    t_lin,
    t_scan_exact,
    t_scan_heuristic,
    tau_lin,
    tau_scan,
)
from pdslab.errors import (
    BudgetExceededError,
    ContractViolationError,
    InvalidParameterError,
    PreconditionViolationError,
    TooLargeError,
    VertexCountMismatchError,
)
from pdslab.graphmodels import (
    Graph,
    PdsParams,
    gen_er,
    gen_pds_random_size,
    gen_planted_clique,
)
from pdslab.randkit import Seed

PATH4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = Graph(4, list(combinations(range(4), 2)))


def _frozen_scan_input(alpha, k, arm):
    """The graph and K of one frozen heuristic-scan case."""
    if alpha is None:
        return gen_er(2000, 0.001, Seed(28)), k
    q = 200.0 ** -alpha
    seed = Seed(28).child(int(alpha * 10)).child(k).child(arm)
    if arm == 0:
        return gen_er(200, q, seed), k
    return gen_pds_random_size(PdsParams(200, k, 2 * q, q), seed).graph, k


class TestStatisticsAndThresholds:
    def test_t_lin(self):
        assert t_lin(Graph(5, [])) == 0
        assert t_lin(K4) == 6
        assert t_lin(PATH4) == 3

    def test_tau_lin(self):
        assert tau_lin(PdsParams(10, 4, 0.5, 0.25)) == pytest.approx(12.0, abs=1e-12)
        assert tau_lin(PdsParams(10, 4, 0.25, 0.25)) == pytest.approx(45 * 0.25)
        assert tau_lin(PdsParams(10, 1, 0.5, 0.25)) == pytest.approx(45 * 0.25)

    def test_tau_scan(self):
        assert tau_scan(4, 0.2, 0.1) == pytest.approx(0.9, abs=1e-12)
        assert tau_scan(1, 0.5, 0.2) == 0.0
        assert tau_scan(5, 0.3, 0.3) == pytest.approx(10 * 0.3)


class TestScanExact:
    def test_complete_and_empty(self):
        assert t_scan_exact(K4, 3)[0] == 3
        assert t_scan_exact(Graph(6, []), 3)[0] == 0

    def test_path_argmax(self):
        value, argmax = t_scan_exact(PATH4, 3)
        assert value == 2 and argmax == (0, 1, 2)

    def test_rejects_non_integer_k(self):
        # K = True once ran as K = 1, a scan of value 0
        for k in (True, False, 5.0, "5"):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                t_scan_exact(PATH4, k)
        assert t_scan_exact(PATH4, np.int64(3)) == t_scan_exact(PATH4, 3)

    def test_budget(self):
        g = gen_er(30, 0.2, Seed(1))
        with pytest.raises(BudgetExceededError):
            t_scan_exact(g, 10, budget=100_000)
        # the budget caps C(N, K) itself: at C(N, K) the scan runs, one below it raises
        g = gen_er(12, 0.3, Seed(2))
        total = math.comb(12, 5)
        assert t_scan_exact(g, 5, budget=total) == recursive_scan_max(g, 5)
        with pytest.raises(BudgetExceededError):
            t_scan_exact(g, 5, budget=total - 1)

    def test_budget_checked_before_the_matrix(self, monkeypatch):
        # past min(K, N - K) = 30 the check uses the capped count C(N, 30):
        # no N x N matrix and no C(10^6, 5 * 10^5) of 300,000 digits
        def no_matrix(self):
            raise AssertionError("adjacency_matrix reached")

        monkeypatch.setattr(Graph, "adjacency_matrix", no_matrix)
        g = Graph(10**6, [])
        with pytest.raises(BudgetExceededError, match=r"^C\(1000000,500000\) >= \d+ subsets exceeds"):
            t_scan_exact(g, 500_000)
        with pytest.raises(BudgetExceededError, match=r"^C\(30,10\) = 30045015 subsets exceeds "
                                                      r"the budget of 100000$"):
            t_scan_exact(Graph(30, []), 10, budget=100_000)

    def test_scan_subset_count(self):
        # exact up to the budget, and past min(K, N - K) = 30 only where the
        # capped count C(N, 30) fits within the budget
        assert scan_subset_count(40, 6, 10) == math.comb(40, 6)
        assert scan_subset_count(40, 34, 10) == math.comb(40, 6)
        assert scan_subset_count(62, 31, 10**7) == math.comb(62, 30)
        assert scan_subset_count(62, 31, 10**18) == math.comb(62, 31)

    def test_matches_recursive_enumerator(self):
        # independent oracle at every K <= min(N, 8), N <= 16: random
        # densities, densities near 0 and near 1, planted cliques, and the
        # empty and complete graphs, where every K-set ties
        rng = Seed(17).rng()
        graphs = []
        for i in range(60):
            n = int(rng.integers(1, 17))
            q = (float(rng.random()), 0.03, 0.97)[i % 3]
            graphs.append(gen_er(n, q, Seed(18).child(i)))
        for i in range(12):
            n = int(rng.integers(6, 17))
            k = int(rng.integers(3, 9))
            graphs.append(gen_planted_clique(n, k, 0.25, Seed(19).child(i)).graph)
        for n in (1, 5, 9, 16):
            graphs.append(Graph(n, []))
            graphs.append(Graph(n, list(combinations(range(n), 2))))
        for g in graphs:
            for k in range(min(g.num_vertices, 8) + 1):
                got_v, got_s = t_scan_exact(g, k)
                want_v, want_s = recursive_scan_max(g, k)
                assert got_v == want_v
                assert got_s == want_s  # both pick the lexicographically first argmax


class TestScanHeuristic:
    def test_complete_graph_always_optimal(self):
        for i in range(5):
            value, _ = t_scan_heuristic(K4, 3, 1, Seed(i))
            assert value == 3

    def test_never_exceeds_exact(self):
        rng = Seed(19).rng()
        for i in range(100):
            n = int(rng.integers(5, 13))
            k = int(rng.integers(2, 5))
            g = gen_er(n, float(rng.random()), Seed(20).child(i))
            exact, _ = t_scan_exact(g, k)
            heur, _ = t_scan_heuristic(g, k, 3, Seed(21).child(i))
            assert heur <= exact

    def test_rejects_bad_parameters(self):
        # K = 1 makes no swap, but its restarts are checked all the same; a
        # bool K or restart count was once taken as 1, and a float one ended
        # in a raw TypeError
        g = Graph(5, [(0, 1)])
        for k, restarts in ((0, 1), (6, 1), (1, 0), (2, 0), (5, -1), (5, True), (True, 3), (5.0, 3),
                            (5, 3.0), ("5", 3), (np.float64(5), 3)):
            with pytest.raises(InvalidParameterError):
                t_scan_heuristic(g, k, restarts, Seed(0))
        assert t_scan_heuristic(g, np.int64(5), np.int32(3), Seed(0)) == t_scan_heuristic(g, 5, 3, Seed(0))

    def test_blocks_of_restarts_match_one_block(self, monkeypatch):
        # a block holds _BLOCK // N restarts, and at most _BLOCK // max(N, 2M)
        # of its rows gather T's neighbour lists at once; restarts are
        # independent, so cutting 7 of them into blocks of 1 or of 2 (the
        # last one partial), with one row per gather, changes nothing
        cases = [(gen_er(60, 0.2, Seed(34)), 9), (gen_planted_clique(40, 8, 0.3, Seed(35)).graph, 8),
                 (Graph(12, []), 4), (K4, 3)]
        whole = [t_scan_heuristic(g, k, 7, Seed(36)) for g, k in cases]
        for blocks in (1, 2):
            for (g, k), want in zip(cases, whole):
                monkeypatch.setattr(detectors, "_BLOCK", blocks * g.num_vertices)
                assert t_scan_heuristic(g, k, 7, Seed(36)) == want
                assert want == sequential_scan_heuristic(g, k, 7, Seed(36))

    def test_batch_matches_one_graph_at_a_time(self, monkeypatch):
        # graphs scanned in one lockstep run each get the (value, set) of
        # their own scan: empty, complete, G(N, q) at q = 0.05, 0.5 and 0.95
        # and a planted clique, at K = 2, N - 1, N and one in between.  All
        # six graphs make one run; with _BLOCK = 4N a block holds 4 of a
        # graph's 5 restarts, so blocks cut one graph's restarts and hold two
        # graphs' rows, and a run takes the first sparse graphs together and
        # each dense one alone
        whole = detectors._BLOCK
        runs = []
        lockstep = detectors._lockstep_scan

        def spy(run, *args):
            runs.append(len(run))
            return lockstep(run, *args)

        monkeypatch.setattr(detectors, "_lockstep_scan", spy)
        for n in (12, 30):
            graphs = [Graph(n, []), gen_er(n, 0.05, Seed(37).child(n)),
                      gen_planted_clique(n, 4, 0.05, Seed(38).child(n)).graph,
                      gen_er(n, 0.5, Seed(39).child(n)), Graph(n, list(combinations(range(n), 2))),
                      gen_er(n, 0.95, Seed(40).child(n))]
            seeds = [Seed(41).child(n).child(i) for i in range(len(graphs))]
            csrs = [csr_adjacency(g) for g in graphs]
            for k in (2, n // 3, n - 1, n):
                want = [sequential_scan_heuristic(g, k, 5, s) for g, s in zip(graphs, seeds)]
                assert [t_scan_heuristic(g, k, 5, s) for g, s in zip(graphs, seeds)] == want
                for block in (whole, 4 * n):
                    monkeypatch.setattr(detectors, "_BLOCK", block)
                    runs.clear()
                    assert scan_heuristic_batch(zip(csrs, seeds), n, k, 5) == want, (n, k, block)
                    if block == whole:
                        assert runs == [6]
                    else:
                        assert runs[0] >= 2 and runs[-1] == 1, runs

    def test_batch_checks_its_graphs(self):
        # every CSR must have the batch's vertex count; an empty batch is
        # fine, and K and the restarts are checked all the same
        csr = csr_adjacency(K4)
        assert scan_heuristic_batch([], 4, 2, 1) == []
        with pytest.raises(VertexCountMismatchError):
            scan_heuristic_batch([(csr, Seed(0))], 5, 2, 1)
        for n, k, restarts in ((4, 0, 1), (4, 5, 1), (4, 2, 0), (4, 2.0, 1), (4.0, 2, 1)):
            with pytest.raises(InvalidParameterError):
                scan_heuristic_batch([], n, k, restarts)

    def test_memory_does_not_grow_with_restarts(self, monkeypatch):
        # _BLOCK = 2**15: at N = 5000 blocks of 6 restarts (0.24 MB of
        # keys); on the complete graph K_120, where every restart's T is all
        # 118 outside vertices at its first step, one block whose rows
        # gather T's 14,042 neighbour entries two at a time.  The peak with
        # 3.5 and 7 blocks' worth of restarts, or with 60 restarts on K_120,
        # stays within 1 MB of the peak with 2
        monkeypatch.setattr(detectors, "_BLOCK", 2**15)
        complete = Graph(120, list(combinations(range(120), 2)))
        for g, k, many in ((gen_er(5000, 4e-4, Seed(3)), 50, (21, 42)), (complete, 2, (60,))):
            peaks = []
            for restarts in (2, *many):
                tracemalloc.start()
                try:
                    t_scan_heuristic(g, k, restarts, Seed(4))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks[1:]) <= peaks[0] + 2**20

    def test_memory_is_linear_in_vertices_and_edges(self):
        # CSR adjacency and degree vectors only: the dense matrix of
        # G(5000, 4e-4) alone would take 200 MB
        g = gen_er(5000, 4e-4, Seed(3))
        tracemalloc.start()
        try:
            t_scan_heuristic(g, 50, 2, Seed(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_deterministic(self):
        g = gen_er(40, 0.3, Seed(22))
        assert t_scan_heuristic(g, 8, 5, Seed(23)) == t_scan_heuristic(g, 8, 5, Seed(23))

    def test_matches_dense_reference(self):
        # same (value, set) as the dense-matrix scan on tie-heavy inputs:
        # empty, complete and cycle graphs, densities near 0, 1/2 and 1,
        # planted cliques; K in {2, N-1, N} and one random K; 1-4 restarts
        rng = Seed(24).rng()
        graphs = []
        for n in (2, 3, 7, 20):
            graphs += [Graph(n, []), Graph(n, list(combinations(range(n), 2)))]
            if n >= 3:
                graphs.append(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
        for i in range(45):
            n = int(rng.integers(2, 61))
            q = (0.02, 0.5, 0.98)[i % 3]
            graphs.append(gen_er(n, q, Seed(25).child(i)))
        for i in range(10):
            n = int(rng.integers(8, 61))
            graphs.append(gen_planted_clique(n, int(rng.integers(3, 9)), 0.25, Seed(26).child(i)).graph)
        for i, g in enumerate(graphs):
            n = g.num_vertices
            for k in sorted({2, n - 1, n, int(rng.integers(1, n + 1))} & set(range(1, n + 1))):
                restarts = int(rng.integers(1, 5))
                seed = Seed(27).child(i).child(k)
                assert t_scan_heuristic(g, k, restarts, seed) == dense_scan_heuristic(g, k, restarts, seed)

    def test_matches_sequential_reference(self):
        # same (value, set) as the one-restart-at-a-time scan: empty, complete
        # and cycle graphs; G(N <= 60, q) over the whole density range;
        # planted cliques; null and planted graphs at all 16 `sweeps` points
        # at their own K; G(2000, 0.001); 1-20 restarts
        rng = Seed(30).rng()
        cases = []
        for n in (2, 3, 7, 20, 60):
            cases += [(Graph(n, []), None), (Graph(n, list(combinations(range(n), 2))), None)]
            if n >= 3:
                cases.append((Graph(n, [(i, (i + 1) % n) for i in range(n)]), None))
        for i in range(36):
            q = (0.01, 0.05, 0.2, 0.5, 0.9, 0.99)[i % 6]
            cases.append((gen_er(int(rng.integers(2, 61)), q, Seed(31).child(i)), None))
        for i in range(8):
            n = int(rng.integers(8, 61))
            cases.append((gen_planted_clique(n, int(rng.integers(3, 9)), 0.25, Seed(32).child(i)).graph, None))
        for alpha in (0.2, 0.6, 1.0, 1.4):
            for k in (5, 14, 41, 118):
                cases += [_frozen_scan_input(alpha, k, arm) for arm in (0, 1)]
        cases.append(_frozen_scan_input(None, None, 0))
        for i, (g, point_k) in enumerate(cases):
            n = g.num_vertices
            if point_k is None:
                ks = {2, round(n ** 0.5), round(n ** 0.9), n - 1, n, int(rng.integers(1, n + 1))}
            else:
                ks = {point_k}
            for k in sorted(ks & set(range(1, n + 1))):
                restarts = int(rng.integers(1, 21))
                seed = Seed(33).child(i).child(k)
                want = sequential_scan_heuristic(g, k, restarts, seed)
                assert t_scan_heuristic(g, k, restarts, seed) == want, (i, k, restarts)

    # (alpha, K, arm, value, blake2b-64 of the set): null (arm 0) and planted
    # (arm 1) graphs at the `sweeps` heuristic config's four alpha rows, N=200,
    # K = 5 and 118, p = 2q, 16 restarts; then G(2000, 0.001) with K=120, the
    # pipeline's scale; captured from the dense-matrix scan
    FROZEN = [
        (0.2, 5, 0, 10, 'd5947dd25aca880b'),
        (0.2, 5, 1, 10, '1a73dc1cc2398294'),
        (0.2, 118, 0, 2711, '1ed2219a26d97837'),
        (0.2, 118, 1, 4434, 'a6b308e71b586adf'),
        (0.6, 5, 0, 7, 'dbf8320697a57564'),
        (0.6, 5, 1, 7, '91db848b0be427bf'),
        (0.6, 118, 0, 450, '188d1ea25c37b8fe'),
        (0.6, 118, 1, 610, 'f98c7a2be5684b7a'),
        (1.0, 5, 0, 4, '4a3738428679f67d'),
        (1.0, 5, 1, 4, '032edfb05524c805'),
        (1.0, 118, 0, 98, '0fa24bdedec6d205'),
        (1.0, 118, 1, 122, '4c47f81350fcec06'),
        (1.4, 5, 0, 2, '8652397141c2c5a5'),
        (1.4, 5, 1, 1, '6c8cdcaf03155c5e'),
        (1.4, 118, 0, 17, '0d1f2a437173b841'),
        (1.4, 118, 1, 18, 'fb600cd5faf94a62'),
        (None, 120, 0, 112, '6c1458d27d7b21ee'),
    ]

    @pytest.mark.parametrize("alpha,k,arm,value,digest", FROZEN)
    def test_frozen_values(self, alpha, k, arm, value, digest):
        got_value, got_set = t_scan_heuristic(*_frozen_scan_input(alpha, k, arm), 16, Seed(29))
        assert got_value == value
        assert hashlib.blake2b(np.array(got_set).tobytes(), digest_size=8).hexdigest() == digest

    def test_planted_clique_recovery_rate(self):
        # frozen regression: 100/100 recoveries at these parameters
        hits = 0
        for i in range(100):
            inst = gen_planted_clique(60, 10, 0.2, Seed(100).child(i))
            value, _ = t_scan_heuristic(inst.graph, 10, 50, Seed(200).child(i))
            hits += value == 45
        assert hits == 100
        assert hits / 100 >= 0.9


def _decision_cases():
    """(graph, K) pairs for the scan-decision pins: empty, complete, sparse,
    dense and planted-clique graphs on 12 and 40 vertices, at K = 1 to 6."""
    cases = []
    for n in (12, 40):
        graphs = [Graph(n, []), Graph(n, list(combinations(range(n), 2)))]
        graphs += [gen_er(n, q, Seed(42).child(n).child(i)) for i, q in enumerate((0.1, 0.3, 0.6))]
        graphs.append(gen_planted_clique(n, 5, 0.15, Seed(43).child(n)).graph)
        cases += [(g, k) for g in graphs for k in (1, 2, 4, 6)]
    return cases


def _taus_around(value: int) -> list:
    """Thresholds an integer count `value` clears or misses by one: the
    integral taus value - 1 and value, and taus with floor(tau) = value - 1
    and floor(tau) = value."""
    return [value - 1, value - 0.5, value, value + 0.5]


class TestScanDecisions:
    # "more than tau" for an integer count means "at least floor(tau) + 1":
    # each engine's decision at thresholds around the maximum (exact) or
    # around its own value (heuristic), plus the sweep's tau_scan

    SWEEP_TAUS = (tau_scan(4, 0.4, 0.2), tau_scan(6, 0.9, 0.05), 3.0)

    def test_exact_decisions(self):
        for g, k in _decision_cases():
            value = t_scan_exact(g, k)[0]
            if g.num_vertices <= 12:
                assert value == recursive_scan_max(g, k)[0]
            for tau in (*_taus_around(value), *self.SWEEP_TAUS):
                assert (value > tau) == (value >= math.floor(tau) + 1)
                assert t_scan_exact(g, k, threshold=tau) is (value > tau), (k, tau)
        # a numpy threshold, as a config's arithmetic may give, decides alike
        assert t_scan_exact(K4, 3, threshold=np.float64(2.5)) is True
        assert t_scan_exact(K4, 3, threshold=np.int64(3)) is False

    def test_exact_budget_refusal(self):
        # the budget check comes before any decision, even one a threshold
        # below zero would make at once
        g = gen_er(30, 0.2, Seed(1))
        with pytest.raises(BudgetExceededError):
            t_scan_exact(g, 10, budget=100_000)
        for tau in (-1, 0.5, 45):
            with pytest.raises(BudgetExceededError):
                t_scan_exact(g, 10, budget=100_000, threshold=tau)

    def test_rejects_bad_thresholds(self):
        csr = csr_adjacency(K4)
        for tau in (float("nan"), float("inf"), -float("inf"), True, np.bool_(False), "3", 1j):
            with pytest.raises(InvalidParameterError, match="threshold must be a finite number"):
                t_scan_exact(K4, 3, threshold=tau)
            with pytest.raises(InvalidParameterError, match="threshold must be a finite number"):
                scan_heuristic_batch([(csr, Seed(0))], 4, 3, 2, threshold=tau)

    def test_heuristic_decisions(self):
        for n in (12, 40):
            cases = [(g, k) for g, k in _decision_cases() if g.num_vertices == n]
            for k in sorted({k for _, k in cases}):
                graphs = [g for g, gk in cases if gk == k]
                seeds = [Seed(44).child(n).child(k).child(i) for i in range(len(graphs))]
                want = [sequential_scan_heuristic(g, k, 5, s)[0] for g, s in zip(graphs, seeds)]
                csrs = [csr_adjacency(g) for g in graphs]
                got = [value for value, _ in scan_heuristic_batch(zip(csrs, seeds), n, k, 5)]
                assert got == want
                for tau in sorted({t for v in want for t in _taus_around(v)} | set(self.SWEEP_TAUS)):
                    assert [v > tau for v in got] == [v > tau for v in want], (n, k, tau)
                    decided = scan_heuristic_batch(zip(csrs, seeds), n, k, 5, threshold=tau)
                    assert decided == [v > tau for v in want], (n, k, tau)

    def test_exact_matrix_is_one_byte_an_entry(self):
        # the adjacency matrix is held as uint8: on a sparse graph the peak
        # is about one byte per N^2 entry, where an int64 copy adds eight
        g = gen_er(2000, 0.001, Seed(45))
        for threshold in (None, 1.5):
            tracemalloc.start()
            try:
                t_scan_exact(g, 2, threshold=threshold)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 2000**2, (threshold, peak)


class TestScanWaves:
    def _starts(self, monkeypatch, graphs, seeds, k, restarts, threshold):
        """The decisions of one batch, and the restarts it started, per graph."""
        child = Seed.child
        started = [[] for _ in graphs]

        def spy(seed, index):
            if seed in seeds:
                started[seeds.index(seed)].append(index)
            return child(seed, index)

        monkeypatch.setattr(Seed, "child", spy)
        csrs = [csr_adjacency(g) for g in graphs]
        n = graphs[0].num_vertices
        try:
            out = scan_heuristic_batch(zip(csrs, seeds), n, k, restarts, threshold=threshold)
        finally:
            monkeypatch.setattr(Seed, "child", child)
        return out, started

    def _cases(self):
        n = 60
        graphs = [Graph(n, []), Graph(n, list(combinations(range(n), 2)))]
        graphs += [gen_er(n, 0.15, Seed(46).child(i)) for i in range(6)]
        graphs += [gen_planted_clique(n, 8, 0.15, Seed(47).child(i)).graph for i in range(6)]
        seeds = [Seed(48).child(i) for i in range(len(graphs))]
        # tau = 16.1: the null graphs' restarts reach 15 to 19 edges, so some
        # are decided by restart 0, some by a later one and some never
        return graphs, seeds, 8, 6, tau_scan(8, 1.0, 0.15)

    def test_restart_zero_runs_first_and_decides(self, monkeypatch):
        # restart 0 of every graph starts first; a graph restart 0 decides
        # H1 starts no other restart, and every other graph starts all R
        graphs, seeds, k, restarts, tau = self._cases()
        first = [sequential_scan_heuristic(g, k, 1, s)[0] > tau for g, s in zip(graphs, seeds)]
        want = [sequential_scan_heuristic(g, k, restarts, s)[0] > tau for g, s in zip(graphs, seeds)]
        assert any(first) and not all(first) and any(w and not f for f, w in zip(first, want))
        out, started = self._starts(monkeypatch, graphs, seeds, k, restarts, tau)
        assert out == want
        for f, got in zip(first, started):
            assert got == ([0] if f else list(range(restarts)))
        # without a threshold every graph starts every restart
        out, started = self._starts(monkeypatch, graphs, seeds, k, restarts, None)
        assert out == [sequential_scan_heuristic(g, k, restarts, s) for g, s in zip(graphs, seeds)]
        assert started == [list(range(restarts))] * len(graphs)

    def test_decided_graph_starts_no_later_block(self, monkeypatch):
        # one restart a block: a graph stops starting restarts at the first
        # one that decides it
        graphs, seeds, k, restarts, tau = self._cases()
        monkeypatch.setattr(detectors, "_BLOCK", graphs[0].num_vertices)
        out, started = self._starts(monkeypatch, graphs, seeds, k, restarts, tau)
        for g, s, decided, got in zip(graphs, seeds, out, started):
            deciding = [r for r in range(restarts) if sequential_scan_heuristic(g, k, r + 1, s)[0] > tau]
            assert decided == bool(deciding)
            assert got == list(range(deciding[0] + 1 if deciding else restarts))


class TestScanStatistic:
    def test_dispatches_on_scan_mode(self):
        g = gen_er(30, 0.3, Seed(8))
        assert scan_statistic(g, 5, "exact", 4, Seed(9)) == t_scan_exact(g, 5)
        assert scan_statistic(g, 5, "heuristic", 4, Seed(9)) == t_scan_heuristic(g, 5, 4, Seed(9))
        with pytest.raises(BudgetExceededError):
            scan_statistic(g, 5, "exact", 4, Seed(9), budget=10)

    def test_unknown_scan_mode(self):
        with pytest.raises(InvalidParameterError):
            scan_statistic(K4, 2, "greedy", 4, Seed(9))


class TestCombined:
    def test_empty_graph(self):
        out = combined_test(Graph(6, []), PdsParams(6, 3, 0.5, 0.2))
        assert out.decision == H0

    def test_complete_graph(self):
        out = combined_test(K4, PdsParams(4, 3, 0.5, 0.2))
        assert out.decision == H1
        assert out.parts["t_lin"] == 6 and out.parts["t_scan"] == 3

    def test_outcome_invariant_enforced(self):
        with pytest.raises(InvalidParameterError):
            TestOutcome(statistic=1.0, threshold=2.0, decision=H1)

    def test_ties_go_to_null(self):
        # statistic equal to threshold is H0 under strict comparison
        params = PdsParams(4, 2, 1.0, 0.5)  # tau_lin = 3 + 0.25 -> not a tie; craft one
        out = TestOutcome(statistic=0.0, threshold=0.0, decision=H0)
        assert out.decision == H0

    def test_edge_addition_never_flips_to_null(self):
        params = PdsParams(5, 3, 0.6, 0.2)
        pairs = list(combinations(range(5), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if combined_test(Graph(5, edges), params).decision != H1:
                continue
            for extra in pairs:
                if extra in edges:
                    continue
                assert combined_test(Graph(5, edges + [extra]), params).decision == H1


class TestProp2Bounds:
    def test_type1_fixture(self):
        b1, _ = prop2_bound_lin(PdsParams(10, 4, 0.5, 0.25))
        assert b1 == pytest.approx(math.exp(-0.5625 / 23.0), abs=1e-12)
        assert b1 == pytest.approx(0.97584, abs=5e-6)

    def test_degenerate_gap(self):
        assert prop2_bound_lin(PdsParams(10, 4, 0.25, 0.25)) == (1.0, 1.0)

    def test_bounds_in_unit_interval(self):
        for params in [
            PdsParams(50, 10, 0.5, 0.1),
            PdsParams(500, 100, 0.02, 0.01),
            PdsParams(10, 2, 1.0, 0.0),
        ]:
            b1, b2 = prop2_bound_lin(params)
            assert 0.0 < b1 <= 1.0
            assert 0.0 < b2 <= 1.0


class TestMonotone:
    def test_trivial_tests(self):
        assert is_monotone(lambda g: H0, 4)
        assert not is_monotone(lambda g: H1 if g.num_edges % 2 == 0 else H0, 4)

    def test_statistics_monotone_exhaustive_n5(self):
        pairs = list(combinations(range(5), 2))
        n_pairs = len(pairs)
        lin = np.empty(1 << n_pairs, dtype=np.int64)
        scan = np.empty(1 << n_pairs, dtype=np.int64)
        for mask in range(1 << n_pairs):
            g = Graph(5, [pairs[i] for i in range(n_pairs) if mask >> i & 1])
            lin[mask] = t_lin(g)
            scan[mask] = t_scan_exact(g, 3)[0]
        for mask in range(1 << n_pairs):
            for i in range(n_pairs):
                if not mask >> i & 1:
                    bigger = mask | (1 << i)
                    assert lin[bigger] >= lin[mask]
                    assert scan[bigger] >= scan[mask]

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            is_monotone(lambda g: H0, 6)


class TestVertexArrayCap:
    """The CSR, the heuristic scan's restarts and the recovery detector's
    draws hold arrays of N entries, and the exact scan an N x N matrix, so
    each is refused by estimate above the cap, before any is built."""

    MESSAGE = "1,000,000,000 vertices, above the cap of 50,000,000 on per-vertex arrays"

    def test_csr_refused_before_reading_edges(self, monkeypatch):
        def read(self):
            raise AssertionError("the edges were read")

        g = Graph(10**9, [])
        monkeypatch.setattr(Graph, "edges", property(read))
        with pytest.raises(TooLargeError, match=self.MESSAGE):
            csr_adjacency(g)
        with pytest.raises(TooLargeError, match=self.MESSAGE):
            t_scan_heuristic(g, 10, 3, Seed(1))

    def test_heuristic_batch_refused_before_reading_graphs(self):
        def graphs():
            raise AssertionError("a graph was read")
            yield

        with pytest.raises(TooLargeError, match=self.MESSAGE):
            scan_heuristic_batch(graphs(), 10**9, 10, 3)

    def test_exact_scan_matrix_refused_before_building(self, monkeypatch):
        # C(N, N - 1) = N passes the budget, but the N x N matrix and the
        # frames' N-entry rows would not fit the cap
        def no_matrix(self):
            raise AssertionError("adjacency_matrix reached")

        monkeypatch.setattr(Graph, "adjacency_matrix", no_matrix)
        with pytest.raises(TooLargeError) as err:
            t_scan_exact(Graph(10**6), 999_999)
        assert str(err.value) == (
            "the exact scan at N = 1,000,000, K = 999,999 holds 3,000,000,000,000 matrix and row "
            "entries, above the cap of 50,000,000"
        )
        # 4100 * (4100 + 2 * 4100) entries are above the cap, 4000 * (4000 + 2 * 4000) within it
        with pytest.raises(TooLargeError, match="^the exact scan at N = 4,100, K = 4,099 holds 50,430,000 "):
            t_scan_exact(Graph(4100), 4099)
        with pytest.raises(AssertionError, match="adjacency_matrix reached"):
            t_scan_exact(Graph(4000), 3999)
        # K <= 1 builds no matrix and is answered at any N
        assert t_scan_exact(Graph(10**6), 1) == (0, (0,))

    def test_recovery_detector_refused_when_built(self):
        params = PdsParams(10**9, 10, 0.5, 0.1)
        with pytest.raises(TooLargeError, match=self.MESSAGE):
            recovery_detector(lambda g: range(10), params, 0.5, Seed(0))

    def test_dks_detector_holds_no_vertex_array(self):
        # membership is counted over the set's own members: an empty graph
        # of 3e9 vertices costs no 3 GB mask
        params = PdsParams(3_000_000_000, 3, 0.5, 0.1)
        det = dks_detector(lambda g: [0, 7, 2_999_999_999], eta=1.2, epsilon=0.2, params=params)
        g = Graph(3_000_000_000)
        det(g)
        tracemalloc.start()
        try:
            assert det(g) == H0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestDksDetector:
    def test_parameter_gate(self):
        with pytest.raises(InvalidParameterError):
            dks_detector(lambda g: range(4), eta=3.0, epsilon=0.2, params=PdsParams(10, 4, 0.2, 0.1))

    def test_complete_graph_fires(self):
        params = PdsParams(6, 3, 0.6, 0.3)
        det = dks_detector(lambda g: t_scan_exact(g, 3)[1], eta=1.2, epsilon=0.2, params=params)
        assert det(gen_er(6, 1.0, Seed(1))) == H1

    def test_empty_graph_quiet(self):
        params = PdsParams(6, 3, 0.6, 0.3)
        det = dks_detector(lambda g: t_scan_exact(g, 3)[1], eta=1.2, epsilon=0.2, params=params)
        assert det(Graph(6, [])) == H0

    def test_wrong_size_output(self):
        params = PdsParams(6, 3, 0.6, 0.3)
        det = dks_detector(lambda g: [0, 1], eta=1.2, epsilon=0.2, params=params)
        with pytest.raises(ContractViolationError):
            det(Graph(6, []))
        # members that are not integer vertices are refused, not truncated
        det = dks_detector(lambda g: [0.5, 1.5, 2.5], eta=1.2, epsilon=0.2, params=params)
        with pytest.raises(InvalidParameterError):
            det(gen_er(6, 1.0, Seed(1)))

    def test_desk_scale_rates_frozen(self):
        # honest Monte Carlo at (N=60, K=8, p=0.9, q=0.1, eps=0.2) with the
        # restart heuristic as the subgraph finder: the planted side always
        # fires, and so does the null side — the densest 8-subgraph of
        # G(60, 0.1) always has density far above (1+eps)q at this scale
        params = PdsParams(60, 8, 0.9, 0.1)
        alg = lambda g: t_scan_heuristic(g, 8, 10, Seed(55).child(g.fingerprint()))[1]
        det = dks_detector(alg, eta=1.0, epsilon=0.2, params=params)
        est = estimate_errors(
            lambda s: gen_er(60, 0.1, s),
            lambda s: gen_pds_random_size(params, s).graph,
            det,
            trials=200,
            seed=Seed(808),
        )
        assert 1.0 - est.type2 >= 0.95  # planted side detected
        assert est.type1 == 1.0  # null side always fires at desk scale


class TestRecoveryDetector:
    def test_threshold_formula(self):
        assert recovery_threshold(0.1, 0.2, 0.5) == pytest.approx(0.1125, abs=1e-15)

    def test_epsilon_gate(self):
        with pytest.raises(PreconditionViolationError):
            recovery_detector(lambda g: range(3), PdsParams(6, 3, 0.5, 0.2), 1.0, Seed(0))

    def test_nan_epsilon_rejected(self):
        with pytest.raises(PreconditionViolationError):
            recovery_detector(lambda g: range(3), PdsParams(6, 3, 0.5, 0.2), math.nan, Seed(0))

    def test_constant_recovery_on_empty_noiseless_graph(self):
        # q = 0 resampling keeps every intermediate graph empty
        params = PdsParams(6, 3, 0.2, 0.0)
        det = recovery_detector(lambda g: (0, 1, 2), params, 0.5, Seed(5))
        assert det(Graph(6, [])) == H0

    def test_wrong_size_recovery(self):
        params = PdsParams(6, 3, 0.2, 0.0)
        det = recovery_detector(lambda g: (0, 1), params, 0.5, Seed(5))
        with pytest.raises(ContractViolationError):
            det(Graph(6, []))

    def test_reproducible_per_graph(self):
        params = PdsParams(12, 3, 0.8, 0.2)
        det = recovery_detector(lambda g: t_scan_exact(g, 3)[1], params, 0.5, Seed(7))
        g = gen_er(12, 0.2, Seed(8))
        assert det(g) == det(g)

    # (N, K, q, seed, decision, steps, blake2b-64 of the intermediate
    # graphs' fingerprints in order); a change here changes the
    # resampling stream
    FROZEN = [
        (40, 6, 0.1, 31, H0, 40, "2a0936a629a0bbcb"),
        (60, 8, 0.05, 32, H0, 60, "43a06f98b843af13"),
    ]

    @pytest.mark.parametrize("n,k,q,seed,decision,steps,digest", FROZEN)
    def test_frozen_resampling_stream(self, n, k, q, seed, decision, steps, digest):
        seen = []

        def recover(g):
            seen.append(g.fingerprint())
            return tuple(range(k))

        det = recovery_detector(recover, PdsParams(n, k, 0.9, q), 0.5, Seed(seed + 100))
        assert det(gen_er(n, q, Seed(seed))) == decision
        assert len(seen) == steps
        fingerprints = np.array(seen, dtype=np.uint64).tobytes()
        assert hashlib.blake2b(fingerprints, digest_size=8).hexdigest() == digest


class TestEstimateErrors:
    def test_degenerate_tests(self):
        null_gen = lambda s: gen_er(5, 0.5, s)
        est = estimate_errors(null_gen, null_gen, lambda g: H0, 40, Seed(1))
        assert (est.type1, est.type2) == (0.0, 1.0)
        est = estimate_errors(null_gen, null_gen, lambda g: H1, 40, Seed(1))
        assert (est.type1, est.type2) == (1.0, 0.0)

    def test_rejects_bad_trial_counts(self):
        # a float or string count once ended in a raw TypeError, and True
        # ran one trial
        null_gen = lambda s: gen_er(5, 0.5, s)
        for trials in (2.5, "3", True, np.float64(3), 0, -1):
            with pytest.raises(InvalidParameterError):
                estimate_errors(null_gen, null_gen, lambda g: H0, trials, Seed(1))
        est = estimate_errors(null_gen, null_gen, lambda g: H0, np.int64(3), Seed(1))
        assert est == ErrorEstimate.from_rates(0.0, 1.0, 3) and type(est.trials) is int

    def test_ci_radius(self):
        est = ErrorEstimate.from_rates(0.2, 0.5, 100)
        assert est.ci_radius[0] == pytest.approx(1.96 * math.sqrt(0.16 / 100))
        assert est.ci_radius[1] == pytest.approx(1.96 * math.sqrt(0.25 / 100))

    def test_same_distribution_consistency(self):
        # with p = q the two arms are identically distributed, so the H1
        # rate on the null matches the H1 rate on the alternative
        params = PdsParams(30, 8, 0.2, 0.2)
        test = lambda g: combined_test(g, params, scan_mode="heuristic", restarts=3, seed=Seed(3))
        est = estimate_errors(
            lambda s: gen_er(30, 0.2, s),
            lambda s: gen_pds_random_size(params, s).graph,
            test,
            300,
            Seed(4),
        )
        assert abs(est.type1 - (1.0 - est.type2)) <= 2 * (est.ci_radius[0] + est.ci_radius[1])

    def test_deep_simple_regime_linear_test(self):
        # frozen regression: the linear test alone nails (500, 150, .1, .05)
        params = PdsParams(500, 150, 0.1, 0.05)
        threshold = tau_lin(params)
        test = lambda g: H1 if t_lin(g) > threshold else H0
        est = estimate_errors(
            lambda s: gen_er(500, 0.05, s),
            lambda s: gen_pds_random_size(params, s).graph,
            test,
            500,
            Seed(607),
        )
        assert est.type1 + est.type2 <= 0.05

    def test_combined_desk_scale_scan_fires_on_null(self):
        # honest regression for the same parameters with the combined test:
        # the heuristic scan statistic of a null G(500, 0.05) sits far above
        # tau_scan = C(150,2)(p+q)/2, so the combined test's Type-I is 1
        params = PdsParams(500, 150, 0.1, 0.05)
        test = lambda g: combined_test(
            g, params, scan_mode="heuristic", restarts=4, seed=Seed(61).child(g.fingerprint())
        )
        est = estimate_errors(
            lambda s: gen_er(500, 0.05, s),
            lambda s: gen_pds_random_size(params, s).graph,
            test,
            30,
            Seed(606),
        )
        assert est.type1 >= 0.9
        assert est.type2 == 0.0
