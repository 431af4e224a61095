"""Command-line front end.

Subcommands: generate, test, reduce, sweep, verify.  Exit codes are part
of the interface: 0 ok, 1 verification failure, and for an error the
``exit_code`` its class carries in ``errors.py``, the one exit-code table
(2 usage error, 3 parse error, 4 precondition violation); an ``OSError``
is a usage error.

Every command is deterministic given its flags: rerunning with the same
seed produces byte-identical files and stdout, regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .. import theorychecks
from ..detectors import (
    H0,
    H1,
    combined_test,
    scan_statistic,
    t_lin,
    tau_lin,
    tau_scan,
    DEFAULT_SCAN_BUDGET,
)
from ..errors import InvalidParameterError, PdsLabError
from ..graphmodels import (
    BipartiteGraph,
    Graph,
    PdsParams,
    PlantedInstance,
    gen_bipartite_er,
    gen_bipartite_pc,
    gen_bipartite_pds,
    gen_er,
    gen_pds_fixed_size,
    gen_pds_random_size,
    gen_planted_clique,
    read_edge_list,
    write_edge_list,
)
from ..randkit import Seed
from ..reduction import ReductionParams, reduce_bipartite, reduce_graph
from .config import load_config
from .sweep import run_sweep, write_outputs

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


def _pds(args) -> PdsParams:
    return PdsParams(N=args.n, K=args.k, p=args.p, q=args.q)


# model: (the flags it needs, its sampler of (args, seed)), which returns a
# graph or a PlantedInstance
_MODELS = {
    "er": (("n", "q"), lambda a, seed: gen_er(a.n, a.q, seed)),
    "pds": (("n", "k", "p", "q"), lambda a, seed: gen_pds_random_size(_pds(a), seed)),
    "pds-fixed": (("n", "k", "p", "q"), lambda a, seed: gen_pds_fixed_size(_pds(a), seed)),
    "pc": (("n", "k", "gamma"), lambda a, seed: gen_planted_clique(a.n, a.k, a.gamma, seed)),
    "ber": (("n", "q"), lambda a, seed: gen_bipartite_er(a.n, a.q, seed)),
    "bpds": (("n", "k", "p", "q"), lambda a, seed: gen_bipartite_pds(_pds(a), seed)),
    "bpc": (("n", "k", "gamma"), lambda a, seed: gen_bipartite_pc(a.n, a.k, a.gamma, seed)),
}
_BATTERIES = {
    "kernel": (theorychecks.battery_kernel,),
    "lemmas": (theorychecks.battery_lemmas,),
    "reduction-exact": (theorychecks.battery_reduction_exact,),
}
_BATTERIES["all"] = sum(_BATTERIES.values(), ())


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_graph(g, out: str, sidecar: dict) -> int:
    """Write the edge list to ``out``, its sidecar to ``out.json`` and the
    path to stdout."""
    write_edge_list(g, out)
    with open(out + ".json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json(sidecar))
    print(out)
    return EXIT_OK


def cmd_generate(args) -> int:
    needs, sample = _MODELS[args.model]
    missing = [flag for flag in needs if getattr(args, flag) is None]
    if missing:
        raise InvalidParameterError(
            f"model {args.model!r} needs --" + ", --".join(missing)
        )
    g = sample(args, Seed(args.seed))
    planted = None
    if isinstance(g, PlantedInstance):
        g, planted = g.graph, g.planted
        if isinstance(g, BipartiteGraph):
            planted = {"top": planted[0], "bottom": planted[1]}
    return _write_graph(g, args.out, {
        "format": "pdslab-sidecar-v1",
        "model": args.model,
        "params": {
            flag: getattr(args, flag)
            for flag in ("n", "k", "p", "q", "gamma")
            if getattr(args, flag) is not None
        },
        "seed": args.seed,
        "planted": planted,
    })


def cmd_test(args) -> int:
    g = read_edge_list(args.graph)
    if not isinstance(g, Graph):
        raise InvalidParameterError("detection tests expect a unipartite graph")
    params = PdsParams(N=g.num_vertices, K=args.K, p=args.p, q=args.q)
    seed = Seed(args.seed)
    if args.test == "lin":
        payload = {"statistic": float(t_lin(g)), "threshold": tau_lin(params)}
    elif args.test == "scan":
        value, argmax = scan_statistic(g, params.K, args.scan_mode, args.restarts, seed, args.budget)
        payload = {
            "scan_mode": args.scan_mode,
            "statistic": float(value),
            "threshold": tau_scan(params.K, params.p, params.q),
            "argmax": list(argmax),
        }
    else:
        outcome = combined_test(
            g, params, scan_mode=args.scan_mode, restarts=args.restarts,
            seed=seed, budget=args.budget,
        )
        payload = {"statistic": outcome.statistic, "threshold": outcome.threshold,
                   "parts": outcome.parts}
    # H1 exactly when the statistic clears its threshold, as for TestOutcome
    payload["decision"] = H1 if payload["statistic"] > payload["threshold"] else H0
    sys.stdout.write(_dump_json({"test": args.test, **payload}))
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = read_edge_list(args.graph)
    bipartite = isinstance(g, BipartiteGraph)
    if bipartite and g.num_top != g.num_bottom:
        raise InvalidParameterError("bipartite reduction needs equal side sizes")
    n = g.num_top if bipartite else g.num_vertices
    params = ReductionParams(n=n, k=args.k, gamma=args.gamma, ell=args.ell, q=args.q)
    for w in params.validate(strict=args.strict):
        print(f"warning: {w}", file=sys.stderr)
    reduced = (reduce_bipartite if bipartite else reduce_graph)(g, params, Seed(args.seed))
    keys = ("n", "k", "gamma", "ell", "q", "m0", "N", "K", "p", "kernel_condition",
            "size_condition")
    # v2 names the reduce stream's layout, see `reduction`
    return _write_graph(reduced, args.out, {
        "format": "pdslab-sidecar-v2",
        "reduction": {
            **{key: getattr(params, key) for key in keys},
            "strict": bool(args.strict),
        },
        "seed": args.seed,
    })


def cmd_sweep(args) -> int:
    # a bad flag is a usage error, checked before the config is read
    if args.workers is not None and args.workers < 1:
        raise InvalidParameterError(f"--workers must be >= 1, got {args.workers}")
    config = load_config(args.config)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    csv_path, svg_path = write_outputs(config, run_sweep(config))
    print(csv_path)
    print(svg_path)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = [r for battery in _BATTERIES[args.battery] for r in battery()]
    text = "\n".join(r.to_json_line() for r in reports) + "\n"
    # the file first: a path that cannot be opened fails before any report
    # reaches stdout
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if all(r.satisfied for r in reports) else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Planted dense subgraph detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample a graph model to an edge-list file")
    p_gen.add_argument("model", choices=_MODELS)
    p_gen.add_argument("--n", type=int, default=None, help="vertex count (per side if bipartite)")
    p_gen.add_argument("--k", type=int, default=None, help="planted size / mean size")
    p_gen.add_argument("--p", type=float, default=None, help="planted edge probability")
    p_gen.add_argument("--q", type=float, default=None, help="background edge probability")
    p_gen.add_argument("--gamma", type=float, default=None, help="clique-model edge probability")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_test = sub.add_parser("test", help="run a detection test on an edge-list file")
    p_test.add_argument("graph")
    p_test.add_argument("--test", choices=("lin", "scan", "combined"), required=True)
    p_test.add_argument("--K", type=int, required=True)
    p_test.add_argument("--p", type=float, required=True)
    p_test.add_argument("--q", type=float, required=True)
    p_test.add_argument("--scan-mode", choices=("exact", "heuristic"), default="exact")
    p_test.add_argument("--restarts", type=int, default=16)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    p_test.set_defaults(func=cmd_test)

    p_red = sub.add_parser("reduce", help="apply the clique-to-dense-subgraph reduction")
    p_red.add_argument("graph")
    p_red.add_argument("--k", type=int, required=True)
    p_red.add_argument("--gamma", type=float, required=True)
    p_red.add_argument("--ell", type=int, required=True)
    p_red.add_argument("--q", type=float, required=True)
    p_red.add_argument("--seed", type=int, required=True)
    p_red.add_argument("--out", required=True)
    p_red.add_argument("--strict", action="store_true",
                       help="abort unless the analytic validity conditions hold")
    p_red.set_defaults(func=cmd_reduce)

    p_sweep = sub.add_parser("sweep", help="run a phase-diagram sweep from a JSON config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="override the config's workers value (points run serially)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run a numeric verification battery")
    p_ver.add_argument("battery", choices=sorted(_BATTERIES))
    p_ver.add_argument("--out", default=None, help="also write the JSON-lines report here")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (PdsLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
