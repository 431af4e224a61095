"""Deterministic sweep engine: per-point Monte Carlo error rates.

Each grid point gets its own derived seed, so a row is a pure function of
(config, point index).  Points run serially in grid order: a thread pool
over points was slower under the GIL, so the ``workers`` setting is
accepted for compatibility and changes neither the run nor its output.
Within a point, every trial graph the edge count decides is decided as it
is drawn.  The others are decided, not maximised: each scan gets tau_scan
as its threshold and answers only whether some K-set has more edges, the
answer ``value > tau_scan`` of the full scan would give.  In heuristic
scan mode they go to one batch of lockstep heuristic scans, read as the
batch goes; graphs run together only while their N + 2M adjacency
entries sum to at most ``detectors._BLOCK``, so a point's memory does
not grow with ``trials``.  In exact scan mode each of them gets its
own exact scan.

The CSV schema is fixed and versioned by its header line, ``CSV_HEADER``.
"""

from __future__ import annotations

from ..detectors import (
    ErrorEstimate,
    scan_heuristic_batch,
    t_lin,
    t_scan_exact,
    tau_lin,
    tau_scan,
    trial_seeds,
)
from ..graphmodels import gen_er, gen_pds_random_size
from ..randkit import Seed
from ..reduction import regime_classify
from .config import SweepConfig
from .svgplot import render_sweep_svg

CSV_HEADER = "alpha,beta,N,K,q,p,test,scan_mode,type1,type2,trials,seed,regime"

_POINT_STREAM = 17  # fixed stream tag for per-point seeds
_HEURISTIC_STREAM = 23


def run_point(config: SweepConfig, index: int, alpha: float, beta: float) -> dict:
    """One CSV row: the configured test's error rates at one grid point.

    Trial graphs are drawn from `detectors.trial_seeds` of the point seed.
    A graph is H1 when its edge count clears tau_lin (tests lin and
    combined) or its scan statistic clears tau_scan (scan and combined);
    the scan runs only where the edge count leaves the decision open.  The
    heuristic scan's restart seed derives from the point seed and a digest
    of the graph, so each decision is a pure function of its graph.
    """
    params = config.point_params(alpha, beta)
    point_seed = Seed(config.master_seed).child(_POINT_STREAM).child(index)
    t1 = tau_lin(params)
    t2 = tau_scan(params.K, params.p, params.q)
    scan_root = point_seed.child(_HEURISTIC_STREAM)
    samplers = (lambda s: gen_er(params.N, params.q, s), lambda s: gen_pds_random_size(params, s).graph)
    h1 = [0, 0]  # H1 decisions in the null and the planted arm
    scanned = []  # the arm of each graph left to the heuristic scan

    def undecided():
        # decides every graph it can at once and yields the others with their
        # scan seed, so that all of them run in one batch of heuristic scans;
        # the batch reads them as it goes
        for arm, seed in trial_seeds(point_seed, config.trials):
            g = samplers[arm](seed)
            if config.test != "scan" and t_lin(g) > t1:
                h1[arm] += 1
            elif config.test != "lin":
                if config.scan_mode == "exact":
                    h1[arm] += t_scan_exact(g, params.K, threshold=t2)
                else:
                    scanned.append(arm)
                    yield g, scan_root.child(g.fingerprint())

    decisions = scan_heuristic_batch(undecided(), params.N, params.K, config.restarts, threshold=t2)
    for arm, decision in zip(scanned, decisions):
        h1[arm] += decision
    estimate = ErrorEstimate.from_h1_counts(h1, config.trials)
    return {
        "alpha": alpha,
        "beta": beta,
        "N": params.N,
        "K": params.K,
        "q": params.q,
        "p": params.p,
        "test": config.test,
        "scan_mode": config.scan_mode,
        "type1": estimate.type1,
        "type2": estimate.type2,
        "trials": config.trials,
        "seed": point_seed.key(),
        "regime": regime_classify(alpha, beta),
    }


def run_sweep(config: SweepConfig) -> list:
    """All grid points, in deterministic row-major order."""
    return [run_point(config, i, a, b) for i, (a, b) in enumerate(config.points)]


def rows_to_csv(rows) -> str:
    """The header, then each row's cells in header order."""
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER] + [",".join(str(r[c]) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def write_outputs(config: SweepConfig, rows) -> tuple:
    csv_path = config.output_path + ".csv"
    svg_path = config.output_path + ".svg"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
    svg = render_sweep_svg(rows, sorted(set(config.alpha_grid)), sorted(set(config.beta_grid)))
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return csv_path, svg_path
