"""Deterministic sweep engine: per-point Monte Carlo error rates.

Each grid point gets its own derived seed, so a row is a pure function of
(config, point index).  Points run serially in grid order: a thread pool
over points was slower under the GIL, so the ``workers`` setting is
accepted for compatibility and changes neither the run nor its output.
The CSV schema is fixed and versioned by its header line, ``CSV_HEADER``.
"""

from __future__ import annotations

from ..detectors import (
    H0,
    H1,
    estimate_errors,
    scan_statistic,
    t_lin,
    tau_lin,
    tau_scan,
)
from ..graphmodels import PdsParams, gen_er, gen_pds_random_size
from ..randkit import Seed
from ..reduction import regime_classify
from .config import SweepConfig
from .svgplot import render_sweep_svg

CSV_HEADER = "alpha,beta,N,K,q,p,test,scan_mode,type1,type2,trials,seed,regime"

_POINT_STREAM = 17  # fixed stream tag for per-point seeds
_HEURISTIC_STREAM = 23


def make_point_test(config: SweepConfig, params: PdsParams, point_seed: Seed):
    """Build the configured decision rule for one grid point.

    The heuristic scan derives its restart seed from the point seed and a
    digest of the input graph, keeping the rule a pure function.
    """
    t1 = tau_lin(params)
    t2 = tau_scan(params.K, params.p, params.q)
    scan_seed_root = point_seed.child(_HEURISTIC_STREAM)

    def scan_value(g):
        seed = scan_seed_root.child(g.fingerprint())
        return scan_statistic(g, params.K, config.scan_mode, config.restarts, seed)[0]

    if config.test == "lin":
        return lambda g: H1 if t_lin(g) > t1 else H0
    if config.test == "scan":
        return lambda g: H1 if scan_value(g) > t2 else H0
    return lambda g: H1 if (t_lin(g) > t1 or scan_value(g) > t2) else H0


def run_point(config: SweepConfig, index: int, alpha: float, beta: float) -> dict:
    params = config.point_params(alpha, beta)
    point_seed = Seed(config.master_seed).child(_POINT_STREAM).child(index)
    test = make_point_test(config, params, point_seed)
    estimate = estimate_errors(
        null_gen=lambda s: gen_er(params.N, params.q, s),
        alt_gen=lambda s: gen_pds_random_size(params, s).graph,
        test=test,
        trials=config.trials,
        seed=point_seed,
    )
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
