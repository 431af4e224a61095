import json
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from conftest import count_cube_negative_association, per_mask_planted_law, per_mask_reduced_law
from pdslab import theorychecks
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
    _reduced_law,
    battery_kernel,
    battery_lemmas,
    battery_reduction_exact,
    check_binom_dominance,
    check_decoupling,
    check_mixture_identity,
    check_negative_association,
    check_pprime_tv,
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
        for report in check_mixture_identity(default_kernel_grid()):
            assert report.satisfied
            assert report.lhs <= 1e-12

    def test_mixture_exact_at_point(self):
        (report,) = check_mixture_identity([(1, 1, 0.01, 0.5, 1)])
        assert report.lhs == 0.0

    def test_violated_precondition_raises_not_passes(self):
        with pytest.raises(ValidityViolationError):
            check_mixture_identity([(4, 4, 0.2, 0.5, 4)])

    def test_pprime_tv_bound(self):
        reports = check_pprime_tv(default_kernel_grid())
        assert all(r.satisfied and r.lhs >= 0 for r in reports)
        (point,) = check_pprime_tv([(2, 2, 0.01, 0.5, 2)])
        assert point.rhs == pytest.approx(4 * (8 * 0.01 * 4) ** 2, rel=1e-12)  # 0.4096

    def test_trivial_support_zero_distance(self):
        (report,) = check_pprime_tv([(1, 1, 0.01, 0.5, 1)])
        assert report.lhs <= 1e-15


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

    def test_largest_case_memory(self):
        # one float64 pair x cell table at (3, 6) is 38 MB; the count-cube
        # evaluation peaked near 90 MB
        tracemalloc.start()
        try:
            check_negative_association(3, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60e6


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

    The cheap shapes take every input, q and gamma.  The bipartite shapes
    with 9 and 16 slots, the slowest for the per-mask reference, take five
    points that cover every input, q and gamma.
    """
    inputs = {
        (2, 2, False): ("er", "empty", "complete"),
        (3, 1, False): ("er", "empty", "complete", "path"),
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


class TestOraclePin:
    def test_laws_match_per_mask_reference(self):
        for n, ell, bipartite, label, q, gamma in _oracle_cases():
            params = ReductionParams(n=n, k=n, gamma=gamma, ell=ell, q=q)
            graph = _input_graph(n, bipartite, label)
            got = _reduced_law(params, graph, bipartite)
            want = per_mask_reduced_law(params, graph, bipartite)
            assert got.tobytes() == want.tobytes(), (n, ell, bipartite, label, q, gamma)

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
            got = _reduced_law(params, graph, True)
            want = per_mask_reduced_law(params, graph, True)
            assert got.tobytes() == want.tobytes(), label

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
                        _reduced_law(params, None, bipartite)
                    except TooLargeError:
                        continue
                    except Admitted:
                        largest = max(largest, N * N if bipartite else N * (N - 1) // 2)
        assert largest == 25  # a 5 x 5 bipartite graph at n = 1
        assert largest < 32

    def test_planted_laws_on_one_vertex(self):
        # no pair: the one empty graph has probability one
        for law in (pds_law_exact(1, 0, 0.5, 0.2), pds_law_exact(1, 1, 0.5, 0.2),
                    pds_fixed_law_exact(1, 0, 0.5, 0.2), pds_fixed_law_exact(1, 1, 0.5, 0.2)):
            assert law.tolist() == [1.0]

    @pytest.mark.parametrize("p,q", [(0.25, 0.25), (0.5, 0.25), (0.9, 0.1), (0.002, 0.001), (1 / 3, 0.1)])
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

    def test_lemmas_battery(self):
        assert all(r.satisfied for r in battery_lemmas())

    def test_reduction_battery(self):
        assert all(r.satisfied for r in battery_reduction_exact())
