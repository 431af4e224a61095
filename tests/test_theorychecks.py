import json
import math
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

from conftest import (
    _CUBE_NA_BATTERY,
    count_cube,
    count_cube_negative_association,
    per_mask_planted_law,
    per_mask_reduced_law,
    power_product_law,
    unique_key_multiplicities,
)
from pdslab import reduction, theorychecks
from pdslab.errors import (
    InvalidParameterError,
    PreconditionViolationError,
    TooLargeError,
    ValidityViolationError,
)
from pdslab.graphmodels import BipartiteGraph, Graph
from pdslab.reduction import ReductionParams
from pdslab.theorychecks import (
    CheckReport,
    _overlap_counts,
    _reduced_laws,
    _relabellings,
    battery_kernel,
    battery_lemmas,
    battery_reduction_exact,
    check_binom_dominance,
    check_decoupling,
    check_kernel,
    check_negative_association,
    chi2_bruteforce,
    chi2_planted_vs_null_exact,
    default_kernel_grid,
    er_law_exact,
    hyper_mgf,
    pds_fixed_law_exact,
    pds_law_exact,
    reduced_law_exact,
    reduction_alt_tv_bipartite_exact,
    reduction_alt_tv_exact,
    reduction_null_tv_bipartite_exact,
    reduction_null_tv_exact,
)


class TestCheckReport:
    def test_json_line_schema(self):
        report = CheckReport(name="demo", params={"x": 1}, lhs=0.5, rhs=1.0)
        payload = json.loads(report.to_json_line())
        assert set(payload) == {"name", "params", "lhs", "rhs", "satisfied", "slack"}
        assert payload["satisfied"] is True
        assert payload["slack"] == 0.5

    def test_tolerance_boundary(self):
        assert CheckReport("t", {}, lhs=1.0 + 5e-11, rhs=1.0).satisfied
        assert not CheckReport("t", {}, lhs=1.0 + 2e-10, rhs=1.0).satisfied


class TestKernelChecks:
    def test_grid_filter(self):
        grid = default_kernel_grid()
        assert all(16 * q * ell**2 <= 1 for _, _, q, _, ell in grid)
        # q = 1e-2 caps ell at 2; q = 1e-3 admits the whole 1..6 range
        assert (6, 6, 1e-3, 0.5, 6) in grid
        assert all(max(ls, lt) <= 2 for ls, lt, q, _, _ in grid if q == 1e-2)

    def test_mixture_identity_all_satisfied(self):
        for report in _kernel_half(check_kernel(default_kernel_grid()), "kernel-mixture-identity"):
            assert report.satisfied
            assert report.lhs <= 1e-12

    def test_mixture_exact_at_point(self):
        (report,) = _kernel_half(check_kernel([(1, 1, 0.01, 0.5, 1)]), "kernel-mixture-identity")
        assert report.lhs == 0.0

    def test_violated_precondition_raises_not_passes(self):
        with pytest.raises(ValidityViolationError):
            check_kernel([(4, 4, 0.2, 0.5, 4)])

    def test_pprime_tv_bound(self):
        reports = _kernel_half(check_kernel(default_kernel_grid()), "kernel-pprime-tv")
        assert all(r.satisfied and r.lhs >= 0 for r in reports)
        (point,) = _kernel_half(check_kernel([(2, 2, 0.01, 0.5, 2)]), "kernel-pprime-tv")
        assert point.rhs == pytest.approx(4 * (8 * 0.01 * 4) ** 2, rel=1e-12)  # 0.4096

    def test_trivial_support_zero_distance(self):
        (report,) = _kernel_half(check_kernel([(1, 1, 0.01, 0.5, 1)]), "kernel-pprime-tv")
        assert report.lhs <= 1e-15

    def test_battery_is_both_checks_over_the_default_grid(self):
        # every mixture report, then every P' report, one of each per point
        grid = default_kernel_grid()
        reports = check_kernel(grid)
        names = ["kernel-mixture-identity"] * len(grid) + ["kernel-pprime-tv"] * len(grid)
        assert [r.name for r in reports] == names
        assert [r.to_json_line() for r in battery_kernel()] == [r.to_json_line() for r in reports]


def _kernel_half(reports: list, name: str) -> list:
    """The reports of one kernel check, by name, in grid order."""
    return [r for r in reports if r.name == name]


class TestChi2Identity:
    def test_p_equals_q(self):
        assert chi2_planted_vs_null_exact(5, 3, 0.25, 0.25) == pytest.approx(0.0, abs=1e-14)

    def test_singleton_plant(self):
        assert chi2_planted_vs_null_exact(6, 1, 0.5, 0.25) == pytest.approx(0.0, abs=1e-14)

    def test_known_value(self):
        assert chi2_planted_vs_null_exact(4, 2, 0.5, 0.25) == pytest.approx(1 / 18, abs=1e-12)

    def test_against_graph_space_bruteforce(self):
        for n in range(2, 5):
            for kp in range(1, n + 1):
                for p in (0.25, 0.5):
                    for q in (0.25, 0.5):
                        identity = chi2_planted_vs_null_exact(n, kp, p, q)
                        brute = chi2_bruteforce(n, kp, p, q)
                        assert abs(identity - brute) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            chi2_planted_vs_null_exact(4, 5, 0.5, 0.25)
        with pytest.raises(InvalidParameterError):
            chi2_planted_vs_null_exact(4, 2, 0.5, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: chi2_bruteforce(3, 2, 0.5, 0.0),
        lambda: chi2_bruteforce(3, 2, 0.5, 1.0),
        lambda: chi2_bruteforce(3, 0, 0.5, 0.25),
        lambda: chi2_bruteforce(3, 4, 0.5, 0.25),
        lambda: pds_fixed_law_exact(3, 4, 0.5, 0.25),
        lambda: pds_fixed_law_exact(3, -1, 0.5, 0.25),
        lambda: check_negative_association(0, 7),
        lambda: check_negative_association(4, 0),
    ],
    ids=[
        "chi2-bruteforce-q0",
        "chi2-bruteforce-q1",
        "chi2-bruteforce-Kp0",
        "chi2-bruteforce-Kp-above-N",
        "fixed-law-Kp-above-N",
        "fixed-law-Kp-negative",
        "na-k0-S-above-cap",
        "na-k-above-cap-S0",
    ],
)
def test_out_of_domain_raises(call):
    with pytest.raises(InvalidParameterError):
        call()


class TestDecoupling:
    def test_fixture(self):
        report = check_decoupling(2, 0.5, 1 / 32)
        assert report.lhs == pytest.approx(0.75 + 0.25 * math.exp(1 / 16), abs=1e-12)
        assert report.rhs == pytest.approx(math.exp(0.5), rel=1e-12)
        assert report.satisfied

    def test_tau_zero(self):
        report = check_decoupling(4, 0.0, 1 / 64)
        assert report.lhs == 1.0 and report.rhs == 1.0 and report.satisfied

    def test_precondition(self):
        with pytest.raises(PreconditionViolationError):
            check_decoupling(4, 0.5, 0.1)

    def test_grid_satisfied_and_monotone(self):
        taus = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for ell in range(1, 13):
            lam = 1 / (16 * ell)
            lhs_by_tau = []
            for tau in taus:
                report = check_decoupling(ell, tau, lam)
                assert report.satisfied
                lhs_by_tau.append(report.lhs)
            assert lhs_by_tau == sorted(lhs_by_tau)
        # monotone in lambda as well
        values = [check_decoupling(6, 0.4, lam).lhs for lam in (1e-4, 1e-3, 1 / 96)]
        assert values == sorted(values)


class TestBinomDominance:
    @pytest.mark.parametrize("K,k,ell", [(17, 17, 1), (66, 33, 2)])
    def test_fixtures_hold(self, K, k, ell):
        reports = check_binom_dominance(K, k, ell)
        assert all(r.satisfied for r in reports)
        point_ms = [r.params["m"] for r in reports if r.name == "binom-dominance-point"]
        assert point_ms == list(range(1, 2 * ell))  # m = 0 excluded by the claim

    def test_precondition(self):
        with pytest.raises(PreconditionViolationError):
            check_binom_dominance(10, 5, 2)  # k < 6e*ell
        with pytest.raises(PreconditionViolationError):
            check_binom_dominance(11, 5, 2)  # K != k*ell


class TestNegativeAssociation:
    def test_single_bin_equality(self):
        report = check_negative_association(1, 3)
        assert abs(report.lhs) <= 1e-12

    def test_small_cases(self):
        for k, s in [(2, 2), (2, 4), (3, 3), (3, 5)]:
            assert check_negative_association(k, s).satisfied

    def test_largest_case(self):
        assert check_negative_association(3, 6).satisfied

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            check_negative_association(4, 3)
        with pytest.raises(TooLargeError):
            check_negative_association(3, 7)

    def test_matches_count_cube_reference(self):
        for k in range(1, 4):
            for s in range(1, 7):
                got = check_negative_association(k, s)
                want = count_cube_negative_association(k, s)
                assert (got.lhs, got.params) == (want.lhs, want.params), (k, s)

    def test_weighted_sums_match_row_order(self):
        # what the byte identity rests on, over the whole capped domain: the
        # integer-valued functions' multiplicity-weighted means equal the
        # count cube's row-order means exactly, and exp-quadratic, whose
        # means may differ in the last bits, never decides the report
        for k in range(1, 4):
            for s in range(1, 7):
                cube = count_cube(k, s)
                vectors, mult = np.unique(cube.reshape(-1, k * k), axis=0, return_counts=True)
                n_pairs = cube.shape[0] * cube.shape[1]
                gaps = {}
                for name, fn in _CUBE_NA_BATTERY:
                    vals = fn(cube)
                    lhs = vals.prod(axis=2).mean()
                    means = vals.reshape(-1, k * k).mean(axis=0)
                    if name != "exp-quadratic":
                        weighted = fn(vectors)
                        assert mult @ weighted.prod(axis=1) / n_pairs == lhs, (k, s, name)
                        assert np.array_equal(mult @ weighted / n_pairs, means), (k, s, name)
                    gaps[name] = lhs - means.prod()
                if k >= 2:
                    assert gaps.pop("exp-quadratic") <= max(gaps.values()) - 1e-3, (k, s)
                else:
                    assert set(gaps.values()) == {0.0}, s

    def test_enumerated_vectors_match_pair_keys(self):
        # the distinct count vectors are the multisets of S_size cells,
        # sorted by pair key, and each is shared by S_size! / prod(c!)
        # pairs, the number of orders of its balls
        for k in range(1, 4):
            for s in range(1, 7):
                counts, mult = _overlap_counts(k, s)
                want_counts, want_mult = unique_key_multiplicities(k, s)
                assert np.array_equal(counts, want_counts), (k, s)
                assert np.array_equal(mult, want_mult), (k, s)
                assert int(mult.sum()) == k ** (2 * s), (k, s)

    def test_largest_case_memory(self):
        # one float64 pair x cell table at (3, 6) is 38 MB; the count-cube
        # evaluation peaked near 90 MB, and the enumerated one peaks at
        # 2.06 MB
        tracemalloc.start()
        try:
            check_negative_association(3, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15e6

    def test_enumerated_case_memory(self):
        # (3, 6) without its 531,441 pair keys: the 3,003 count vectors and
        # the battery's table over them, ~2.1 MB; the pair-key count
        # peaked near 9.6 MB
        tracemalloc.start()
        try:
            check_negative_association(3, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestHyperMgf:
    def test_lambda_zero(self):
        assert hyper_mgf(10, 3, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_fixture(self):
        want = (1 / 6) + (4 / 6) * math.exp(0.1) + (1 / 6) * math.exp(0.4)
        assert hyper_mgf(4, 2, 0.1) == pytest.approx(want, abs=1e-12)
        assert hyper_mgf(4, 2, 0.1) == pytest.approx(1.15208, abs=1e-5)

    def test_boundedness_sweep(self):
        # frozen regression: max over the sweep is ~1.0131 at (pop, m) = (64, 12)
        b = 0.01
        worst = 0.0
        for exponent in range(4, 13):
            pop = 2**exponent
            for m in range(1, pop // 4 + 1):
                lam = b * min(math.log(math.e * pop / m) / m, pop**2 / m**4)
                worst = max(worst, hyper_mgf(pop, m, lam))
        assert worst == pytest.approx(1.013146, abs=1e-5)
        assert worst < 1.5


class TestReductionOracles:
    PARAMS = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)

    def test_null_exactness(self):
        assert reduction_null_tv_exact(self.PARAMS) <= 1e-12

    def test_null_exactness_bipartite(self):
        assert reduction_null_tv_bipartite_exact(self.PARAMS) <= 1e-12

    def test_fixed_input_law_normalizes(self):
        law = reduced_law_exact(Graph(2, [(0, 1)]), self.PARAMS)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(law >= -1e-15)

    def test_fixed_input_law_refuses_other_inputs(self):
        for g_in in (BipartiteGraph(2, 2, [(0, 1)]), [(0, 1)], None):
            with pytest.raises(InvalidParameterError, match="takes a Graph"):
                reduced_law_exact(g_in, self.PARAMS)
        with pytest.raises(InvalidParameterError, match="does not match"):
            reduced_law_exact(Graph(3), self.PARAMS)

    def test_alternative_tv_scaling_regression(self):
        # unipartite: diagonal blocks keep the gap O(q) (frozen honest ratio);
        # bipartite: no diagonals, the kernel term makes it O(q^2)
        hi = reduction_alt_tv_exact(self.PARAMS)
        lo = reduction_alt_tv_exact(ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.001))
        assert hi == pytest.approx(0.0281752, abs=1e-6)
        assert hi / lo == pytest.approx(9.4506, abs=1e-3)
        bip_hi = reduction_alt_tv_bipartite_exact(self.PARAMS)
        bip_lo = reduction_alt_tv_bipartite_exact(
            ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.001)
        )
        assert 50.0 <= bip_hi / bip_lo <= 200.0

    def test_er_law_matches_edge_probability(self):
        law = er_law_exact(3, 0.2)
        assert law.sum() == pytest.approx(1.0, abs=1e-14)
        assert law[0] == pytest.approx(0.8**3, abs=1e-14)

    def test_fixed_law_is_exchangeable(self):
        law = pds_fixed_law_exact(3, 2, 0.6, 0.2)
        # single-edge graphs are exchangeable: masks 1, 2, 4
        assert law[1] == pytest.approx(law[2], abs=1e-14)
        assert law[2] == pytest.approx(law[4], abs=1e-14)


def _oracle_cases():
    """(n, ell, bipartite, input label, q, gamma) for the oracle pin.

    The cheap shapes take every input, q and gamma; among them are the
    smallest, with no slot (n = ell = 1) or one, and one side with 9 slots.
    The shapes with 9 to 16 slots and many sides, the slowest for the
    per-mask reference, take five points that cover every input, q and
    gamma.
    """
    inputs = {
        (1, 1, False): ("er", "empty"),
        (1, 2, False): ("er", "empty"),
        (2, 2, False): ("er", "empty", "complete"),
        (3, 1, False): ("er", "empty", "complete", "path"),
        (1, 1, True): ("er", "all"),
        (1, 3, True): ("er", "all"),
        (2, 1, True): ("er", "all", "alternate"),
    }
    cases = []
    for (n, ell, bipartite), labels in inputs.items():
        for q in (0.0, 0.001, 0.01, 1.0 / (16 * ell**2)):
            for gamma in (0.5, 0.25):
                cases.extend((n, ell, bipartite, label, q, gamma) for label in labels)
    for n, ell in [(3, 1), (2, 2)]:
        # at n=2, ell=2 the first three are the points `battery_reduction_exact` runs
        for label, q, gamma in [
            ("er", 0.01, 0.5),
            ("all", 0.01, 0.5),
            ("all", 0.001, 0.5),
            ("alternate", 1.0 / (16 * ell**2), 0.25),
            ("er", 0.0, 0.25),
        ]:
            cases.append((n, ell, True, label, q, gamma))
    # 15 slots and 64 sides, unipartite
    for label, q, gamma in [
        ("er", 0.01, 0.5),
        ("complete", 0.01, 0.5),
        ("empty", 0.001, 0.5),
        ("complete", 1.0 / (16 * 3**2), 0.25),
        ("er", 0.0, 0.25),
    ]:
        cases.append((2, 3, False, label, q, gamma))
    return cases


def _input_graph(n: int, bipartite: bool, label: str):
    if label == "er":
        return None
    if bipartite:
        keep = {"all": lambda s, t: True, "alternate": lambda s, t: (s + t) % 2 == 0}[label]
        return BipartiteGraph(n, n, [(s, t) for s, t in product(range(n), repeat=2) if keep(s, t)])
    edges = {
        "empty": [],
        "complete": list(combinations(range(n), 2)),
        "path": [(0, 1), (1, 2)],
    }[label]
    return Graph(n, edges)


def _assert_matches_reference(got: np.ndarray, want: np.ndarray, label) -> None:
    """The v2 rule for the `verify` floats: zeros exact, every other entry
    within 256 ulps of the per-mask reference, and the law sums to 1."""
    assert got.shape == want.shape, label
    assert np.array_equal(got == 0.0, want == 0.0), label
    assert (np.abs(got - want) <= 256 * np.spacing(want)).all(), label
    assert abs(got.sum() - 1.0) <= 1e-13, label


class TestOraclePin:
    def test_laws_match_per_mask_reference(self):
        for n, ell, bipartite, label, q, gamma in _oracle_cases():
            params = ReductionParams(n=n, k=n, gamma=gamma, ell=ell, q=q)
            graph = _input_graph(n, bipartite, label)
            got = _reduced_laws([(params, graph)], bipartite)[0]
            want = per_mask_reduced_law(params, graph, bipartite)
            _assert_matches_reference(got, want, (n, ell, bipartite, label, q, gamma))

    def test_block_memo_lives_for_one_call(self):
        # the block tensors are kept per call: the battery leaves the
        # module's globals as they were, and one ReductionParams taken with
        # two inputs gives each its own law, which needs the route in the key
        before = {name: id(value) for name, value in vars(theorychecks).items()}
        battery_reduction_exact()
        assert {name: id(value) for name, value in vars(theorychecks).items()} == before
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        for label in ("all", "alternate"):
            graph = _input_graph(2, True, label)
            got = _reduced_laws([(params, graph)], True)[0]
            want = per_mask_reduced_law(params, graph, True)
            _assert_matches_reference(got, want, label)

    @pytest.mark.parametrize("oracle", [reduction_null_tv_bipartite_exact, reduction_alt_tv_bipartite_exact])
    def test_bipartite_battery_call_memory(self, oracle):
        # over the 2^16 masks, ~25 bytes a mask at two points: in the pass,
        # the law, one buffer of side factors and a small block of gathered
        # table rows; after it, the law, the target gathered by its uint8
        # popcounts, and the one difference array the TV takes
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        oracle(params)
        tracemalloc.start()
        try:
            oracle(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**16

    # the battery's two passes, then passes that mix inputs, q and gamma
    @pytest.mark.parametrize("n,ell,bipartite,points", [
        (2, 2, False, [("er", 0.01, 0.5), ("complete", 0.01, 0.5), ("complete", 0.001, 0.5)]),
        (2, 2, True, [("er", 0.01, 0.5), ("all", 0.01, 0.5), ("all", 0.001, 0.5)]),
        (3, 1, False, [("path", 0.0, 0.25), ("er", 1 / 16, 0.5), ("empty", 0.01, 0.25), ("complete", 0.001, 0.5)]),
        (3, 1, True, [("alternate", 0.01, 0.25), ("er", 0.001, 0.5), ("all", 1 / 16, 0.25)]),
    ])
    def test_one_pass_matches_per_mask_reference(self, n, ell, bipartite, points):
        cases = [
            (ReductionParams(n=n, k=n, gamma=gamma, ell=ell, q=q), _input_graph(n, bipartite, label))
            for label, q, gamma in points
        ]
        laws = _reduced_laws(cases, bipartite)
        assert len(laws) == len(cases)
        for (params, graph), got, point in zip(cases, laws, points):
            want = per_mask_reduced_law(params, graph, bipartite)
            _assert_matches_reference(got, want, point)

    @pytest.mark.parametrize("n,bipartite,labels", [
        *((n, False, [label]) for n in (1, 2, 3) for label in ("er", "empty", "complete")),
        (3, False, ["path"]),
        *((n, True, [label]) for n in (1, 2, 3) for label in ("er", "all", "alternate")),
        (2, False, ["er", "complete"]),
        (3, False, ["path", "er", "empty", "complete"]),
        (2, True, ["er", "all"]),
        (3, True, ["alternate", "er", "all"]),
    ])
    def test_relabellings_are_the_automorphisms(self, n, bipartite, labels):
        # brute force: a relabelling fixes a graph iff it maps its edge set onto itself
        graphs = [_input_graph(n, bipartite, label) for label in labels]
        want = []
        for g in product(permutations(range(n)), repeat=2 if bipartite else 1):
            rows, cols = g[0], g[-1]
            fixed = True
            for graph in graphs:
                if graph is not None:
                    edges = set(map(tuple, graph.edges.tolist()))
                    moved = {(rows[u], cols[v]) if bipartite else tuple(sorted((rows[u], rows[v])))
                             for u, v in edges}
                    fixed &= moved == edges
            if fixed:
                want.append(g)
        params = ReductionParams(n=n, k=n, gamma=0.5, ell=1, q=0.01)
        assert _relabellings([(params, graph) for graph in graphs], bipartite) == want

    @pytest.mark.parametrize("bipartite,graph,sides", [
        (False, Graph(2, [(0, 1)]), 8),
        (True, BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]), 64),
        (True, BipartiteGraph(2, 2, [(0, 0), (1, 1)]), 128),
        # no relabelling but the identity fixes this input
        (True, BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)]), 256),
    ])
    def test_one_side_per_orbit(self, monkeypatch, bipartite, graph, sides):
        # the battery's shape and cases, n = ell = 2, on this input: each
        # block_pairs call is one side summed
        calls = []

        def counted(*args):
            calls.append(None)
            return reduction.block_pairs(*args)

        monkeypatch.setattr(theorychecks, "block_pairs", counted)
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        params_lo = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.001)
        _reduced_laws([(params, None), (params, graph), (params_lo, graph)], bipartite)
        assert len(calls) == sides

    def test_one_pass_needs_one_n_and_one_ell(self):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
        for other in (ReductionParams(n=3, k=2, gamma=0.5, ell=2, q=0.01),
                      ReductionParams(n=2, k=2, gamma=0.5, ell=1, q=0.01)):
            for bipartite in (False, True):
                with pytest.raises(InvalidParameterError):
                    _reduced_laws([(params, None), (other, None)], bipartite)
        with pytest.raises(InvalidParameterError):
            _reduced_laws([], False)

    def test_caps_admit_fewer_than_32_slots(self, monkeypatch):
        # the assignment enumeration starts once the caps have passed
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(theorychecks, "product", admitted)
        largest = 0
        for bipartite in (False, True):
            for n in range(1, 7):
                for ell in range(1, 9):
                    params = ReductionParams(n=n, k=1, gamma=0.5, ell=ell, q=0.0)
                    N = params.N
                    try:
                        _reduced_laws([(params, None)], bipartite)
                    except TooLargeError:
                        continue
                    except Admitted:
                        largest = max(largest, N * N if bipartite else N * (N - 1) // 2)
        assert largest == 25  # a 5 x 5 bipartite graph at n = 1
        assert largest < 32

    # the batteries' rates (q and p = 2q of the reduction oracles, the
    # chi-square brute force's q), the tests' and both ends
    @pytest.mark.parametrize("rate", [0.0, 0.001, 0.002, 0.01, 0.02, 0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0])
    def test_product_law_matches_two_power_reference(self, rate):
        for n_slots in range(17):
            got = theorychecks._product_law(n_slots, rate)
            assert got.tobytes() == power_product_law(n_slots, rate).tobytes(), n_slots

    def test_planted_laws_on_one_vertex(self):
        # no pair: the one empty graph has probability one
        for law in (pds_law_exact(1, 0, 0.5, 0.2), pds_law_exact(1, 1, 0.5, 0.2),
                    pds_fixed_law_exact(1, 0, 0.5, 0.2), pds_fixed_law_exact(1, 1, 0.5, 0.2)):
            assert law.tolist() == [1.0]

    # the rates `verify` feeds the planted oracles (the chi-square brute
    # force's four (p, q), the reduction-exact battery's (0.02, 0.01) and
    # (0.002, 0.001)), then others
    @pytest.mark.parametrize("p,q", [(0.25, 0.25), (0.5, 0.25), (0.25, 0.5), (0.5, 0.5), (0.02, 0.01),
                                     (0.002, 0.001), (0.9, 0.1), (1 / 3, 0.1)])
    def test_planted_laws_match_per_mask_reference(self, p, q):
        for N in range(2, 6):
            for size in range(N + 1):
                for fixed, oracle in ((True, pds_fixed_law_exact), (False, pds_law_exact)):
                    got = oracle(N, size, p, q)
                    want = per_mask_planted_law(N, size, p, q, fixed)
                    assert got.tobytes() == want.tobytes(), (N, size, p, q, fixed)


class TestBatteries:
    def test_kernel_battery(self):
        assert all(r.satisfied for r in battery_kernel())

    def test_kernel_battery_builds_each_law_once(self, monkeypatch):
        # its 80 grid points need 42 distinct Binom(slots, rate); the kernel
        # cells and the targets draw them from the battery's one memo
        calls = []
        for module in (theorychecks, reduction):
            build = module.binom_pmf
            monkeypatch.setattr(module, "binom_pmf", lambda *args, build=build: calls.append(args) or build(*args))
        battery_kernel()
        assert len(set(calls)) == 42
        assert len(calls) == 42

    def test_lemmas_battery(self):
        assert all(r.satisfied for r in battery_lemmas())

    def test_reduction_battery(self):
        assert all(r.satisfied for r in battery_reduction_exact())

    def test_reduction_battery_makes_one_pass_per_shape(self, monkeypatch):
        passes = []
        one_pass = theorychecks._reduced_laws
        monkeypatch.setattr(
            theorychecks,
            "_reduced_laws",
            lambda cases, bipartite: passes.append((len(cases), bipartite)) or one_pass(cases, bipartite),
        )
        battery_reduction_exact()
        assert passes == [(3, False), (3, True)]

    def test_reduction_battery_memory(self):
        # over the bipartite 2^16 masks: the pass holds its three laws, one
        # buffer of side factors and a small block of gathered table rows,
        # ~43 bytes a mask; after it, the three laws, one target and one
        # difference array, ~41
        battery_reduction_exact()
        tracemalloc.start()
        try:
            battery_reduction_exact()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * 2**16
