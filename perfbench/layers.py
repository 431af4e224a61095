"""Per-layer metrics of the traced run: which pdslab calls are timed, and how
their spans turn into the numbers ``BENCHMARK.json`` lists under ``per_layer``.

The layers are pdslab's modules.  Per-operation sums and counts are reported
as the median over traced operations; call-time percentiles pool every traced
call of the run.  A layer a workload does not use reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def _graph_edges(args, kwargs, result):
    return getattr(result, "graph", result).num_edges


def _scan_subsets(args, kwargs, result):
    g = args[0]
    K = args[1] if len(args) > 1 else kwargs["K"]
    return math.comb(g.num_vertices, K)


def _reduce_note(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return params.n, result.num_edges


def _battery_note(args, kwargs, reports):
    slacks = [r.slack for r in reports]
    return len(reports), sum(1 for r in reports if not r.satisfied), min(slacks, default=None)


_SAMPLERS = ("gen_er", "gen_pds_random_size", "gen_planted_clique")
_BATTERIES = ("battery_kernel", "battery_lemmas", "battery_reduction_exact")
_COMMANDS = ("generate", "reduce", "test", "verify", "sweep")

# (module, attribute, note, counted, measure tracemalloc peak inside the call)
TARGETS = (
    *(("pdslab.graphmodels", f, _graph_edges, False, True) for f in _SAMPLERS),
    ("pdslab.graphmodels", "read_edge_list", _graph_edges, False, True),
    ("pdslab.graphmodels", "write_edge_list", lambda a, k, r: a[0].num_edges, False, True),
    ("pdslab.detectors", "t_scan_heuristic", None, False, True),
    ("pdslab.detectors", "t_scan_exact", _scan_subsets, False, False),
    ("pdslab.detectors", "estimate_errors", None, False, False),
    ("pdslab.reduction", "reduce_graph", _reduce_note, False, False),
    ("pdslab.reduction", "KernelTable.cell", None, True, False),
    ("pdslab.reduction", "KernelTable.plain", None, True, False),
    ("pdslab.randkit", "sample_pmf", None, True, False),
    ("pdslab.randkit", "binom_pmf", None, True, False),
    *(("pdslab.theorychecks", f, _battery_note, False, False) for f in _BATTERIES),
    ("pdslab.theorychecks", "reduced_law_exact", None, False, False),
    ("pdslab.phaselab.sweep", "run_point", None, False, False),
    ("pdslab.phaselab.sweep", "write_outputs", None, False, False),
    *(("pdslab.phaselab.cli", f"cmd_{c}", None, False, False) for c in _COMMANDS),
)


def patch_all(tracer, alloc_only=False) -> None:
    """Wrap every target; spans are named after the module without ``pdslab.``."""
    for module, attr, note, counted, alloc in TARGETS:
        if alloc or not alloc_only:
            name = module[len("pdslab."):] + "." + attr
            tracer.patch(module, attr, name, note, counted, alloc)


def op_values(tracer, step_walls: dict):
    """Per-layer values of one traced operation, plus raw call times to pool."""
    by = defaultdict(list)
    for s in tracer.spans:
        by[s.name].append(s)
    counted = defaultdict(lambda: [0, 0.0])
    for (name, _parent), (calls, secs) in tracer.counted.items():
        counted[name][0] += calls
        counted[name][1] += secs

    def spans(*names):
        return [s for n in names for s in by[n]]

    def total(*names):
        return sum((s.dur for s in spans(*names)), 0.0)

    def notes(ss):
        return [s.note for s in ss if s.note is not None]

    samplers = spans(*(f"graphmodels.{f}" for f in _SAMPLERS))
    io = spans("graphmodels.read_edge_list", "graphmodels.write_edge_list")
    exact = by["detectors.t_scan_exact"]
    reduces = by["reduction.reduce_graph"]
    reports = notes(spans(*(f"theorychecks.{f}" for f in _BATTERIES)))
    points_w2 = [s for s in by["phaselab.sweep.run_point"] if s.step == "sweep_w2"]
    w2_wall = step_walls.get("sweep_w2", 0.0)
    v = {
        "graphmodels.sample_s": sum((s.dur for s in samplers), 0.0),
        "graphmodels.sample_calls": len(samplers),
        "graphmodels.edges_sampled": sum(notes(samplers)),
        "graphmodels.io_s": sum((s.dur for s in io), 0.0),
        "graphmodels.io_edges": sum(notes(io)),
        "detectors.scan_heuristic_s": total("detectors.t_scan_heuristic"),
        "detectors.scan_heuristic_calls": len(by["detectors.t_scan_heuristic"]),
        "detectors.scan_exact_s": total("detectors.t_scan_exact"),
        "detectors.scan_exact_calls": len(exact),
        "detectors.scan_exact_subsets": sum(notes(exact)),
        "detectors.estimate_errors_self_s": sum(
            (s.self_time for s in by["detectors.estimate_errors"]), 0.0),
        "reduction.reduce_s": total("reduction.reduce_graph"),
        "reduction.blocks": sum(n * (n + 1) // 2 for n, _ in notes(reduces)),
        "reduction.edges_out": sum(m for _, m in notes(reduces)),
        "reduction.kernel_cells_s": counted["reduction.KernelTable.cell"][1]
        + counted["reduction.KernelTable.plain"][1],
        "randkit.sample_pmf_calls": counted["randkit.sample_pmf"][0],
        "randkit.sample_pmf_s": counted["randkit.sample_pmf"][1],
        "randkit.binom_pmf_calls": counted["randkit.binom_pmf"][0],
        "randkit.binom_pmf_s": counted["randkit.binom_pmf"][1],
        **{f"theorychecks.{f}_s": total(f"theorychecks.{f}") for f in _BATTERIES},
        "theorychecks.reduced_law_exact_s": total("theorychecks.reduced_law_exact"),
        "theorychecks.checks": sum(r[0] for r in reports),
        "theorychecks.checks_unsatisfied": sum(r[1] for r in reports),
        "theorychecks.min_slack": min((r[2] for r in reports if r[2] is not None), default=0.0),
        "phaselab.sweep.write_outputs_s": total("phaselab.sweep.write_outputs"),
        "phaselab.sweep.busy_frac_w2": sum(s.dur for s in points_w2) / (2.0 * w2_wall)
        if w2_wall
        else 0.0,
        **{f"phaselab.cli.{c}_s": total(f"phaselab.cli.cmd_{c}") for c in _COMMANDS},
    }
    largest = max(notes(exact), default=None)
    samples = {
        "graphmodels.sample_ms": [1e3 * s.dur for s in samplers],
        "detectors.scan_heuristic_ms": [1e3 * s.dur for s in by["detectors.t_scan_heuristic"]],
        # percentiles of the exact scan only mean something at one (N, K)
        "detectors.scan_exact_ms": [1e3 * s.dur for s in exact if s.note == largest],
        "phaselab.sweep.point_s": [s.dur for s in by["phaselab.sweep.run_point"]],
    }
    first = next((s for s in exact if s.note == largest), None)
    v["detectors.scan_exact_first_ms"] = 1e3 * first.dur if first else 0.0
    return v, samples


def peak_values(tracer) -> dict:
    """tracemalloc peaks inside graphmodels calls and the heuristic scan."""
    graph = [s.peak_mb for s in tracer.spans if s.name.startswith("graphmodels.") and s.peak_mb]
    scan = [s.peak_mb for s in tracer.spans if s.name == "detectors.t_scan_heuristic" and s.peak_mb]
    return {
        "graphmodels.peak_alloc_mb": max(graph, default=0.0),
        "detectors.scan_heuristic_peak_alloc_mb": max(scan, default=0.0),
    }


def parents(tracer, seen: dict) -> None:
    """Add each span name's parent span names to ``seen`` (name -> set)."""
    for s in tracer.spans:
        if not s.name.startswith("step."):
            seen.setdefault(s.name, set()).add(s.parent.name if s.parent else None)
    for name, parent in tracer.counted:
        seen.setdefault(name, set()).add(parent)


def summarize(cold_op: dict, traced_ops: list) -> tuple:
    """Median per-op values and pooled call percentiles over warm traced
    operations; the cold first operation gives ``scan_exact_first_ms``.

    Returns (values, extras): ``extras`` holds the p90s that have at least 100
    calls behind them and the call counts of the ones that do not.
    """
    values = {}
    for key in traced_ops[0]["layers"]:
        per_op = [op["layers"][key] for op in traced_ops]
        # counts stay whole numbers
        whole = all(isinstance(x, int) for x in per_op)
        values[key] = (statistics.median_low if whole else statistics.median)(per_op)
    pooled = defaultdict(list)
    for op in traced_ops:
        for key, xs in op["samples"].items():
            pooled[key].extend(xs)
    extras = {}
    for key in ("graphmodels.sample_ms", "detectors.scan_heuristic_ms", "detectors.scan_exact_ms"):
        xs = pooled[key]
        values[key + "_p50"] = statistics.median(xs) if xs else 0.0
        if len(xs) >= 100:
            extras[key + "_p90"] = statistics.quantiles(xs, n=10)[-1]
        else:
            extras[key + "_p90"] = f"omitted: {len(xs)} calls < 100"
    # only the first operation of the process builds the subset table
    key = "detectors.scan_exact_first_ms"
    values[key] = cold_op["layers"][key]
    points = pooled["phaselab.sweep.point_s"]
    values["phaselab.sweep.point_s_p50"] = statistics.median(points) if points else 0.0
    values["phaselab.sweep.point_s_max"] = max(points, default=0.0)
    return values, extras
