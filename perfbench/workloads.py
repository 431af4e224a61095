"""The pdslab workloads: their inputs (made from the seed) and output checks.

Every workload drives the ``phaselab`` CLI in-process through
``pdslab.phaselab.cli.main``; the program sees only the config files and argv
built here.  One *operation* of a workload is its list of CLI steps run once,
in order.  Sizes are set so one operation takes a few seconds on a 2-core
machine and a run holds several operations.

Why each workload:

- ``sweeps``: the phase diagram, the product, in three steps.  ``sweep_w1``
  and ``sweep_w2`` run one heuristic-scan config at workers=1 and workers=2:
  ``t_scan_heuristic`` dominates, the samplers make many small draws (dense
  path at alpha = 0.2, geometric-skip path elsewhere), and the second pass
  shows whether the thread pools pay.  ``sweep_exact`` is dominated by
  ``t_scan_exact`` (C(40,6) = 3.8M subsets at K=6), alternating K=4 and K=6
  through the subset-table cache, with null and planted arms.  The two sweep
  kinds share one workload so that each run can measure longer.
- ``reduce_pipeline``: generate -> reduce -> test at n=1000: one dense 250k-edge
  sample, 250k-line edge-list I/O, the per-block reduction loop over ~500k
  parent pairs, and one heuristic scan on an N=2000 graph.
- ``verify_all``: the only workload that runs ``theorychecks`` (exact oracles,
  graph-space enumeration, ``binom_pmf`` and kernel builds).
"""

from __future__ import annotations

import json
import os

NAMES = ("sweeps", "reduce_pipeline", "verify_all")

# 16 points x 2 arms x 4 trials = 128 trials per pass
HEURISTIC_SWEEP = {
    "alpha_grid": [0.2, 0.6, 1.0, 1.4],
    "beta_grid": [0.3, 0.5, 0.7, 0.9],
    "N": 200,
    "trials": 4,
    "test": "combined",
    "scan_mode": "heuristic",
    "restarts": 16,
}
# K = 4 and 6; 4 points x 2 arms x 2 trials = 16 exact scans
EXACT_SWEEP = {
    "alpha_grid": [0.5, 1.0],
    "beta_grid": [0.4, 0.5],
    "N": 40,
    "trials": 2,
    "test": "scan",
    "scan_mode": "exact",
}
PIPELINE = {"n": 1000, "k": 60, "gamma": 0.5, "ell": 2, "q": 0.001, "K": 120, "p": 0.002}
# heuristic restarts in the argmax check (see check_argmax)
ARGMAX_RESTARTS = 16


def _step(name, argv, outputs=(), config=None, trials=0):
    return {"name": name, "argv": [str(a) for a in argv], "outputs": list(outputs),
            "config": config, "trials": trials}


def _sweep_step(name, base, seed, workers, workdir):
    """Write one sweep config; its step runs ``phaselab sweep`` on it."""
    prefix = os.path.join(workdir, name)
    cfg = dict(base, master_seed=seed, output_path=prefix, workers=workers)
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    # one trial is one sampled graph plus one decision, in each of the two arms
    trials = 2 * len(base["alpha_grid"]) * len(base["beta_grid"]) * base["trials"]
    return _step(name, ["sweep", prefix + ".json"], [prefix + ".csv", prefix + ".svg"],
                 config=prefix + ".json", trials=trials)


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs into ``workdir`` and describe its steps."""
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == "sweeps":
        steps = [
            _sweep_step("sweep_w1", HEURISTIC_SWEEP, seed, 1, workdir),
            _sweep_step("sweep_w2", HEURISTIC_SWEEP, seed, 2, workdir),
            _sweep_step("sweep_exact", EXACT_SWEEP, seed, 1, workdir),
        ]
    elif workload == "reduce_pipeline":
        c = PIPELINE
        graph, reduced = out("pc.txt"), out("reduced.txt")
        steps = [
            _step("generate", ["generate", "pc", "--n", c["n"], "--k", c["k"], "--gamma",
                               c["gamma"], "--seed", seed, "--out", graph],
                  [graph, graph + ".json"]),
            _step("reduce", ["reduce", graph, "--k", c["k"], "--gamma", c["gamma"], "--ell",
                             c["ell"], "--q", c["q"], "--seed", seed, "--out", reduced],
                  [reduced, reduced + ".json"]),
            _step("test", ["test", reduced, "--test", "combined", "--K", c["K"], "--p", c["p"],
                           "--q", c["q"], "--scan-mode", "heuristic", "--seed", seed]),
        ]
    elif workload == "verify_all":
        report = out("verify.jsonl")
        steps = [_step("verify", ["verify", "all", "--out", report], [report])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "steps": steps}


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems (empty when correct)
# ---------------------------------------------------------------------------


def check_sweep_csv(text: str, config) -> list:
    from pdslab.phaselab.sweep import CSV_HEADER
    from pdslab.reduction import regime_classify

    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs from sweep.CSV_HEADER"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != len(config.points):
        return [f"{len(rows)} CSV rows for {len(config.points)} points"]
    cols = CSV_HEADER.split(",")
    problems = []
    for (alpha, beta), fields in zip(config.points, rows):
        row = dict(zip(cols, fields))
        if len(fields) != len(cols) or float(row["alpha"]) != alpha or float(row["beta"]) != beta:
            problems.append(f"row {fields} does not match point ({alpha}, {beta})")
            continue
        if not all(0.0 <= float(row[k]) <= 1.0 for k in ("type1", "type2")):
            problems.append(f"rate outside [0, 1] at ({alpha}, {beta})")
        if row["regime"] != regime_classify(alpha, beta):
            problems.append(f"regime {row['regime']!r} != regime_classify at ({alpha}, {beta})")
    return problems


def check_argmax(config, seed: int):
    """Sample a null and a planted graph per point; check the exact scan's
    argmax really holds the reported edge count and the heuristic stays below.

    Returns (graphs checked, problems).
    """
    from pdslab.detectors import t_scan_exact, t_scan_heuristic
    from pdslab.graphmodels import gen_er, gen_pds_random_size, subgraph_edge_count

    problems = []
    checked = 0
    for index, (alpha, beta) in enumerate(config.points):
        params = config.point_params(alpha, beta)
        base = seed * 1000 + 10 * index
        graphs = (gen_er(params.N, params.q, base), gen_pds_random_size(params, base + 1).graph)
        for arm, g in enumerate(graphs):
            checked += 1
            value, argmax = t_scan_exact(g, params.K)
            if len(set(argmax)) != params.K or subgraph_edge_count(g, argmax) != value:
                problems.append(f"exact argmax at ({alpha}, {beta}) arm {arm} "
                                f"does not hold {value} edges")
            h_value, h_set = t_scan_heuristic(g, params.K, ARGMAX_RESTARTS, base + 2 + arm)
            if h_value > value or subgraph_edge_count(g, h_set) != h_value:
                problems.append(f"heuristic value {h_value} vs exact {value} at ({alpha}, {beta})")
    return checked, problems


def check_pipeline(plan: dict, artifacts: dict) -> list:
    """Problems as (step name, message)."""
    from pdslab.graphmodels import read_edge_list

    c, seed = PIPELINE, plan["seed"]
    problems = []
    steps = {s["name"]: s for s in plan["steps"]}
    gen_out, red_out = steps["generate"]["outputs"][0], steps["reduce"]["outputs"][0]
    gen_side = json.loads(artifacts["generate"]["files"][gen_out + ".json"])
    want = {"model": "pc", "params": {"n": c["n"], "k": c["k"], "gamma": c["gamma"]}, "seed": seed}
    if {k: gen_side.get(k) for k in want} != want or len(gen_side.get("planted") or ()) != c["k"]:
        problems.append(("generate", "generate sidecar does not match its arguments"))
    red_side = json.loads(artifacts["reduce"]["files"][red_out + ".json"])
    red = red_side.get("reduction", {})
    want = {"n": c["n"], "k": c["k"], "gamma": c["gamma"], "ell": c["ell"], "q": c["q"],
            "N": c["n"] * c["ell"], "K": c["K"], "p": c["p"], "strict": False}
    if {k: red.get(k) for k in want} != want or red_side.get("seed") != seed:
        problems.append(("reduce", "reduce sidecar does not match its arguments"))
    header = artifacts["reduce"]["files"][red_out].split(b"\n", 1)[0].split()
    g = read_edge_list(red_out)
    counts = [g.num_vertices, g.num_edges]
    if g.num_vertices != c["n"] * c["ell"] or [int(x) for x in header] != counts:
        problems.append(("reduce", f"reduced graph has N={g.num_vertices}, want n*ell"))
    for name in ("generate", "reduce"):
        if artifacts[name]["stdout"] != steps[name]["outputs"][0] + "\n":
            problems.append((name, f"{name} stdout is not the output path"))
    result = json.loads(artifacts["test"]["stdout"])
    if result.get("decision") != ("H1" if result["statistic"] > result["threshold"] else "H0"):
        problems.append(("test", "test decision differs from statistic > threshold"))
    return problems


def check_verify(artifacts: dict):
    """Returns (checks run, problems); every unsatisfied check is one problem."""
    art = artifacts["verify"]
    problems = []
    lines = art["stdout"].splitlines()
    for ln in lines:
        try:
            report = json.loads(ln)
        except ValueError:
            problems.append(f"verify printed a line that is not JSON: {ln[:80]!r}")
            continue
        if report.get("satisfied") is not True:
            problems.append(f"unsatisfied check {report.get('name')}")
    if not lines:
        problems.append("verify printed no checks")
    if art["code"] != 0 and not problems:
        problems.append(f"verify exited {art['code']} with every check satisfied")
    if next(iter(art["files"].values())) != art["stdout"].encode():
        problems.append("verify --out file differs from its stdout")
    return max(len(lines), 1), problems
