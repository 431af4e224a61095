"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here.

Two criteria assert a claim where the construction makes it:

* Criterion 3 checks the q^2 fidelity of the clique -> PDS reduction on the
  gap the modified kernel controls.  The unipartite reduction draws diagonal
  blocks (same-parent pairs) from Binom(C(l,2), q), while the planted target
  puts them at p = 2q; that adds a first-order term C(N,2)/n * (p-q) to the
  full TV.  The test asserts the ~100x drop on the TV to the planted law
  with same-parent pairs at q (and on the bipartite reduction, which has no
  diagonal blocks), and asserts the full TV's first-order slope is that term.
* Criterion 8 checks the recovery-based detector at a point where its only
  Type-I guarantee, the union bound N * C(N,K) * P(Binom(C(K,2), q) >
  tau*C(K,2)), is small.  The test computes that bound before the Monte
  Carlo run, and also shows it is vacuous at the old point N=40, K=6, q=0.1.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import graph_law_tv, recursive_scan_max, same_parent_planted_law
from pdslab.detectors import (
    H0,
    H1,
    combined_test,
    estimate_errors,
    is_monotone,
    recovery_detector,
    recovery_threshold,
    t_lin,
    t_scan_exact,
    t_scan_heuristic,
    tau_lin,
)
from pdslab.graphmodels import Graph, PdsParams, gen_er, gen_pds_random_size
from pdslab.phaselab.cli import main as cli_main
from pdslab.randkit import Seed, binom_pmf, tv_distance
from pdslab.reduction import ReductionParams, build_pprime, build_qprime, m0_of, reduce_graph
from pdslab.theorychecks import (
    check_binom_dominance,
    check_decoupling,
    check_negative_association,
    chi2_bruteforce,
    chi2_planted_vs_null_exact,
    er_law_exact,
    reduced_law_exact,
    reduction_alt_tv_bipartite_exact,
    reduction_alt_tv_exact,
)


def report(num, ok, desc, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} | {desc}"
    if detail:
        line += f" | {detail}"
    print(line)
    return ok


def test_criterion_01_kernel_exactness():
    start = time.time()
    ok = True
    checked = 0
    for ls in range(1, 7):
        for lt in range(1, 7):
            ell = max(ls, lt)
            for q in (1e-3, 1e-2):
                if 16.0 * q * ell**2 > 1.0:
                    continue
                for gamma in (0.5, 0.25):
                    p_prime, _ = build_pprime(ls, lt, q, gamma)
                    q_prime = build_qprime(ls, lt, q, gamma)
                    ok &= bool(np.all(p_prime.probs >= 0)) and bool(np.all(q_prime.probs >= 0))
                    ok &= abs(math.fsum(p_prime.probs.tolist()) - 1.0) <= 1e-12
                    mix = (1 - gamma) * q_prime.probs + gamma * p_prime.probs
                    ok &= float(np.max(np.abs(mix - binom_pmf(ls * lt, q).probs))) <= 1e-12
                    bound = 4.0 * (8.0 * q * ell**2) ** (m0_of(gamma) + 1)
                    ok &= tv_distance(p_prime, binom_pmf(ls * lt, 2 * q)) <= bound
                    checked += 1
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    assert report(1, ok, "kernel mixture identity + closeness on the validity grid",
                  f"{checked} grid points, {elapsed:.2f}s")


def test_criterion_02_reduction_null_exactness():
    start = time.time()
    params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
    law = 0.5 * reduced_law_exact(Graph(2, []), params) + 0.5 * reduced_law_exact(
        Graph(2, [(0, 1)]), params
    )
    tv_exact = 0.5 * float(np.abs(law - er_law_exact(4, 0.01)).sum())

    mc_params = ReductionParams(n=10, k=10, gamma=0.5, ell=5, q=1e-3)
    n_pairs = mc_params.N * (mc_params.N - 1) // 2
    reps = math.ceil(1_000_000 / n_pairs)
    edges = 0
    for i in range(reps):
        g_in = gen_er(10, 0.5, Seed(909).child(2 * i))
        edges += reduce_graph(g_in, mc_params, Seed(909).child(2 * i + 1)).num_edges
    samples = reps * n_pairs
    sigma = math.sqrt(samples * mc_params.q * (1 - mc_params.q))
    z = (edges - samples * mc_params.q) / sigma
    elapsed = time.time() - start
    ok = tv_exact <= 1e-12 and abs(z) <= 4.0 and elapsed < 60.0
    assert report(2, ok, "reduction null exactness (exact TV + per-edge marginal)",
                  f"TV={tv_exact:.2e}, z={z:+.2f} over {samples} edge samples, {elapsed:.1f}s")


def test_criterion_03_alternative_fidelity_trend():
    """The reduction's planted side converges to the target as q^2 where the
    kernel governs it, and the unipartite residue is the diagonal term.

    Complete input, n = k = ell = 2 (N = 4), q = 0.01 -> 0.001:

    * the TV from the reduced law to the planted law with same-parent pairs
      at q (conftest.same_parent_planted_law) drops by a ratio in [50, 200];
      this is the gap bounded by the kernel term 4 (8 q ell^2)^(m0+1);
    * the bipartite reduction, with no diagonal blocks, drops likewise;
    * the full TV to pds_law_exact(N, N, 2q, q) = G(N, 2q) has first-order
      slope C(N,2)/n * (p-q)/q = 3: same-parent pairs, on average C(N,2)/n
      of them, are drawn at q where the target puts them at p.  The
      two-point (Richardson) estimate cancels the q^2 term, leaving an
      O(q_hi q_lo) error.

    Drawing diagonal blocks at 2q instead breaks both: the ratio falls to
    ~9 and the slope to ~0.
    """
    start = time.time()
    q_hi, q_lo = 0.01, 0.001
    kernel_gap, full_tv, bip_tv = {}, {}, {}
    for q in (q_hi, q_lo):
        params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=q)
        law = reduced_law_exact(Graph(2, [(0, 1)]), params)
        kernel_gap[q] = graph_law_tv(law, same_parent_planted_law(2, params.N, params.p, q))
        full_tv[q] = reduction_alt_tv_exact(params)
        bip_tv[q] = reduction_alt_tv_bipartite_exact(params)
    ratio = kernel_gap[q_hi] / kernel_gap[q_lo]
    bip_ratio = bip_tv[q_hi] / bip_tv[q_lo]
    slope = (full_tv[q_lo] / q_lo * q_hi - full_tv[q_hi] / q_hi * q_lo) / (q_hi - q_lo)
    expected_slope = math.comb(4, 2) / 2  # C(N,2)/n * (p-q)/q with p = 2q
    elapsed = time.time() - start
    ok = (
        50.0 <= ratio <= 200.0
        and 50.0 <= bip_ratio <= 200.0
        and abs(slope - expected_slope) <= 1e-2
        and elapsed < 60.0
    )
    assert report(3, ok, "alternative fidelity: q^2 kernel gap, O(q) diagonal slope",
                  f"kernel-gap ratio={ratio:.1f} (TV {kernel_gap[q_hi]:.3e} -> "
                  f"{kernel_gap[q_lo]:.3e}); bipartite ratio={bip_ratio:.1f}; "
                  f"full-TV slope={slope:.4f} (expect {expected_slope:g}); {elapsed:.1f}s")


def test_criterion_04_chi2_identity():
    start = time.time()
    ok = True
    for n in range(2, 5):
        for kp in range(1, n + 1):
            for p in (0.25, 0.5):
                for q in (0.25, 0.5):
                    ok &= abs(
                        chi2_planted_vs_null_exact(n, kp, p, q) - chi2_bruteforce(n, kp, p, q)
                    ) <= 1e-10
    value = chi2_planted_vs_null_exact(4, 2, 0.5, 0.25)
    ok &= abs(value - 1.0 / 18.0) <= 1e-12
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    assert report(4, ok, "chi-square overlap identity vs graph-space brute force",
                  f"(4,2,0.5,0.25) = {value:.12f} (1/18), {elapsed:.1f}s")


def test_criterion_05_lemma_suite():
    start = time.time()
    violations = 0
    for ell in range(1, 13):
        lam = 1.0 / (16.0 * ell)
        for tau in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            violations += not check_decoupling(ell, tau, lam).satisfied
    for K, k, ell in ((17, 17, 1), (66, 33, 2)):
        violations += sum(not r.satisfied for r in check_binom_dominance(K, k, ell))
    for k in range(1, 4):
        for s in range(1, 7):
            violations += not check_negative_association(k, s).satisfied
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 60.0
    assert report(5, ok, "lemma suite (decoupling grid, dominance, negative association)",
                  f"{violations} violations, {elapsed:.1f}s")


def test_criterion_06_scan_oracle_equivalence():
    start = time.time()
    rng = Seed(17).rng()
    ok = True
    for i in range(100):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 5))
        g = gen_er(n, float(rng.random()), Seed(18).child(i))
        exact_value, exact_set = t_scan_exact(g, k)
        oracle_value, oracle_set = recursive_scan_max(g, k)
        heur_value, _ = t_scan_heuristic(g, k, 3, Seed(19).child(i))
        ok &= exact_value == oracle_value and exact_set == oracle_set
        ok &= heur_value <= exact_value
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    assert report(6, ok, "exact scan == recursive enumerator; heuristic never exceeds it",
                  f"100 graphs with N <= 10, K <= 4, {elapsed:.1f}s")


def _linear_error_sum(alpha, beta, n_vertices, trials, seed):
    q = float(n_vertices) ** (-alpha)
    params = PdsParams(
        N=n_vertices, K=int(math.floor(n_vertices**beta + 0.5)), p=2 * q, q=q
    )
    threshold = tau_lin(params)
    test = lambda g: H1 if t_lin(g) > threshold else H0
    est = estimate_errors(
        lambda s: gen_er(n_vertices, q, s),
        lambda s: gen_pds_random_size(params, s).graph,
        test,
        trials,
        seed,
    )
    return est.type1 + est.type2


def test_criterion_07_phase_diagram_reproduction():
    start = time.time()
    simple = _linear_error_sum(0.2, 0.9, 500, 200, Seed(2024).child(1))
    impossible = _linear_error_sum(1.5, 0.3, 500, 200, Seed(2024).child(2))
    trend = [
        _linear_error_sum(alpha, 0.7, 500, 200, Seed(777).child(i))
        for i, alpha in enumerate((0.2, 0.6, 1.0, 1.4))
    ]
    monotone = all(b >= a - 0.1 for a, b in zip(trend, trend[1:]))
    elapsed = time.time() - start
    ok = simple <= 0.1 and impossible >= 0.8 and monotone and elapsed < 600.0
    assert report(7, ok, "phase diagram: linear test error across regimes at N=500",
                  f"simple={simple:.3f} (<=0.1), impossible={impossible:.3f} (>=0.8), "
                  f"trend={['%.2f' % t for t in trend]}, {elapsed:.0f}s")


def _recovery_type1_union_bound(N, K, p, q, epsilon):
    """N * C(N,K) * P(Binom(C(K,2), q) > tau*C(K,2)): under H0 each of the
    detector's N intermediate graphs is G(N, q), so whatever set the oracle
    returns, crossing the cutoff needs some K-subset above it."""
    pairs = math.comb(K, 2)
    cutoff = recovery_threshold(q, p, epsilon) * pairs
    tail = math.fsum(
        math.comb(pairs, m) * q**m * (1.0 - q) ** (pairs - m)
        for m in range(math.floor(cutoff) + 1, pairs + 1)
    )
    return N * math.comb(N, K) * tail


def test_criterion_08_recovery_reduction():
    """The recovery-based detector reaches summed error <= 0.1 where its
    Type-I union bound is <= 0.05.

    The bound is computed first.  At N=40, K=12, p=0.9, q=0.02, eps=0.25 it
    is ~1.6e-4.  At the old point N=40, K=6, p=0.9, q=0.1, eps=0.5 it is
    ~8.5e6: the cutoff there is 3 of 15 edges, while the densest 6-subgraph
    of G(40, 0.1) has 8-10, so no oracle keeps the false-alarm rate down.
    The oracle is the restart heuristic scan; its set never has more edges
    than the exact maximum, so the bound covers it too.  The alternative has
    mean planted size 2K.
    """
    start = time.time()
    tau = recovery_threshold(0.1, 0.2, 0.5)
    tau_ok = tau == pytest.approx(0.1125, abs=1e-15)

    old_bound = _recovery_type1_union_bound(40, 6, 0.9, 0.1, 0.5)
    N, K, p, q, epsilon = 40, 12, 0.9, 0.02, 0.25
    bound = _recovery_type1_union_bound(N, K, p, q, epsilon)
    assert old_bound > 1.0, f"union bound {old_bound:.3g} at (40, 6, 0.9, 0.1, 0.5)"
    assert bound <= 0.05, f"union bound {bound:.3g} > 0.05 at ({N}, {K}, {p}, {q}, {epsilon})"

    params = PdsParams(N=N, K=K, p=p, q=q)
    oracle = lambda g: t_scan_heuristic(g, K, 3, Seed(4242))[1]
    detector = recovery_detector(oracle, params, epsilon=epsilon, seed=Seed(4242))
    alt_params = PdsParams(N=N, K=2 * K, p=p, q=q)  # detector targets mean size 2K
    est = estimate_errors(
        lambda s: gen_er(N, q, s),
        lambda s: gen_pds_random_size(alt_params, s).graph,
        detector,
        100,
        Seed(31337),
    )
    error_sum = est.type1 + est.type2
    elapsed = time.time() - start
    ok = tau_ok and error_sum <= 0.1 and elapsed < 300.0
    assert report(8, ok, "recovery-based detector error <= 0.1 where its Type-I bound <= 0.05",
                  f"tau(0.1,0.2,0.5)={tau} ok={tau_ok}; bound={bound:.2e} "
                  f"(old point {old_bound:.2e}); type1={est.type1:.2f}, "
                  f"type2={est.type2:.2f}, {elapsed:.1f}s")


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_09_cli_determinism(tmp_path):
    start = time.time()
    ok = True

    def twice(args_fn, outputs):
        nonlocal ok
        code1, out1 = _run_cli(*args_fn("a"))
        code2, out2 = _run_cli(*args_fn("b"))
        ok &= code1 == code2 == 0
        blobs = []
        for tag in ("a", "b"):
            blobs.append([Path(str(o).format(tag=tag)).read_bytes() for o in outputs])
        ok &= blobs[0] == blobs[1]
        return out1, out2

    gen_args = lambda tag: (
        "generate", "pds", "--n", "80", "--k", "10", "--p", "0.4", "--q", "0.1",
        "--seed", "5", "--out", str(tmp_path / f"g_{tag}.txt"),
    )
    twice(gen_args, [tmp_path / "g_{tag}.txt", tmp_path / "g_{tag}.txt.json"])

    out1, out2 = _run_cli(
        "test", str(tmp_path / "g_a.txt"), "--test", "combined", "--K", "10",
        "--p", "0.4", "--q", "0.1", "--scan-mode", "heuristic", "--seed", "9",
    ), _run_cli(
        "test", str(tmp_path / "g_a.txt"), "--test", "combined", "--K", "10",
        "--p", "0.4", "--q", "0.1", "--scan-mode", "heuristic", "--seed", "9",
    )
    ok &= out1 == out2

    red_args = lambda tag: (
        "reduce", str(tmp_path / "g_a.txt"), "--k", "10", "--gamma", "0.5",
        "--ell", "2", "--q", "0.001", "--seed", "13", "--out", str(tmp_path / f"r_{tag}.txt"),
    )
    twice(red_args, [tmp_path / "r_{tag}.txt", tmp_path / "r_{tag}.txt.json"])

    cfg = {
        "alpha_grid": [0.4, 1.0], "beta_grid": [0.5, 0.9], "N": 50, "trials": 15,
        "test": "lin", "scan_mode": "exact", "master_seed": 321,
        "output_path": str(tmp_path / "sw"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code1, _ = _run_cli("sweep", str(cfg_path), "--workers", "1")
    csv1 = (tmp_path / "sw.csv").read_bytes()
    svg1 = (tmp_path / "sw.svg").read_bytes()
    code2, _ = _run_cli("sweep", str(cfg_path), "--workers", "3")
    ok &= code1 == code2 == 0
    ok &= csv1 == (tmp_path / "sw.csv").read_bytes()
    ok &= svg1 == (tmp_path / "sw.svg").read_bytes()

    verify1 = _run_cli("verify", "kernel", "--out", str(tmp_path / "v1.jsonl"))
    verify2 = _run_cli("verify", "kernel", "--out", str(tmp_path / "v2.jsonl"))
    ok &= verify1 == verify2
    ok &= (tmp_path / "v1.jsonl").read_bytes() == (tmp_path / "v2.jsonl").read_bytes()

    elapsed = time.time() - start
    ok &= elapsed < 120.0
    assert report(9, ok, "CLI determinism: identical bytes across reruns and worker counts",
                  f"{elapsed:.1f}s")


def test_criterion_10_monotone_check():
    start = time.time()
    params = PdsParams(4, 3, 0.6, 0.2)
    combined_ok = is_monotone(lambda g: combined_test(g, params), 4)
    parity_rejected = not is_monotone(lambda g: H1 if g.num_edges % 2 == 0 else H0, 4)
    elapsed = time.time() - start
    ok = combined_ok and parity_rejected and elapsed < 10.0
    assert report(10, ok, "combined test monotone at N=4; parity counterexample rejected",
                  f"{elapsed:.1f}s")
