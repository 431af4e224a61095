"""Command-line front end.

Subcommands: generate, test, reduce, sweep, verify.  Exit codes are part
of the interface: 0 ok, 1 verification failure, 2 usage error, 3 parse
error (graph or config files), 4 precondition violation (strict reduction
conditions, enumeration budgets).

Every command is deterministic given its flags: rerunning with the same
seed produces byte-identical files and stdout, regardless of worker count.
"""

from __future__ import annotations

import argparse
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
from ..errors import (
    BudgetExceededError,
    ConfigError,
    EdgeListParseError,
    InvalidParameterError,
    PdsLabError,
    PreconditionViolationError,
    ValidityViolationError,
    VertexCountMismatchError,
)
from ..graphmodels import (
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
    write_edge_list,
)
from ..randkit import Seed
from ..reduction import ReductionParams, reduce_bipartite, reduce_graph
from .config import load_config
from .sweep import run_sweep, write_outputs

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4

_MODELS = ("er", "pds", "pds-fixed", "pc", "ber", "bpds", "bpc")
_BATTERIES = {
    "kernel": (theorychecks.battery_kernel,),
    "lemmas": (theorychecks.battery_lemmas,),
    "reduction-exact": (theorychecks.battery_reduction_exact,),
    "all": (
        theorychecks.battery_kernel,
        theorychecks.battery_lemmas,
        theorychecks.battery_reduction_exact,
    ),
}


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise InvalidParameterError(
            f"model {args.model!r} needs --" + ", --".join(missing)
        )


def cmd_generate(args) -> int:
    seed = Seed(args.seed)
    planted = None
    if args.model == "er":
        _require(args, ["n", "q"])
        g = gen_er(args.n, args.q, seed)
    elif args.model in ("pds", "pds-fixed"):
        _require(args, ["n", "k", "p", "q"])
        params = PdsParams(N=args.n, K=args.k, p=args.p, q=args.q)
        gen = gen_pds_fixed_size if args.model == "pds-fixed" else gen_pds_random_size
        inst = gen(params, seed)
        g, planted = inst.graph, list(inst.planted)
    elif args.model == "pc":
        _require(args, ["n", "k", "gamma"])
        inst = gen_planted_clique(args.n, args.k, args.gamma, seed)
        g, planted = inst.graph, list(inst.planted)
    elif args.model == "ber":
        _require(args, ["n", "q"])
        g = gen_bipartite_er(args.n, args.q, seed)
    elif args.model == "bpds":
        _require(args, ["n", "k", "p", "q"])
        params = PdsParams(N=args.n, K=args.k, p=args.p, q=args.q)
        inst = gen_bipartite_pds(params, seed)
        g = inst.graph
        planted = {"top": list(inst.planted[0]), "bottom": list(inst.planted[1])}
    else:  # bpc
        _require(args, ["n", "k", "gamma"])
        inst = gen_bipartite_pc(args.n, args.k, args.gamma, seed)
        g = inst.graph
        planted = {"top": list(inst.planted[0]), "bottom": list(inst.planted[1])}
    write_edge_list(g, args.out)
    sidecar = {
        "format": "pdslab-sidecar-v1",
        "model": args.model,
        "params": {
            key: getattr(args, key)
            for key in ("n", "k", "p", "q", "gamma")
            if getattr(args, key) is not None
        },
        "seed": args.seed,
        "planted": planted,
    }
    with open(args.out + ".json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json(sidecar))
    print(args.out)
    return EXIT_OK


def cmd_test(args) -> int:
    g = read_edge_list(args.graph)
    if not isinstance(g, Graph):
        raise InvalidParameterError("detection tests expect a unipartite graph")
    params = PdsParams(N=g.num_vertices, K=args.K, p=args.p, q=args.q)
    seed = Seed(args.seed)
    if args.test == "lin":
        stat, thresh = float(t_lin(g)), tau_lin(params)
        payload = {"test": "lin", "statistic": stat, "threshold": thresh}
    elif args.test == "scan":
        value, argmax = scan_statistic(g, params.K, args.scan_mode, args.restarts, seed, args.budget)
        stat, thresh = float(value), tau_scan(params.K, params.p, params.q)
        payload = {
            "test": "scan",
            "scan_mode": args.scan_mode,
            "statistic": stat,
            "threshold": thresh,
            "argmax": list(argmax),
        }
    else:
        outcome = combined_test(
            g, params, scan_mode=args.scan_mode, restarts=args.restarts,
            seed=seed, budget=args.budget,
        )
        payload = {
            "test": "combined",
            "statistic": outcome.statistic,
            "threshold": outcome.threshold,
            "decision": outcome.decision,
            "parts": outcome.parts,
        }
        sys.stdout.write(_dump_json(payload))
        return EXIT_OK
    payload["decision"] = H1 if stat > thresh else H0
    sys.stdout.write(_dump_json(payload))
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = read_edge_list(args.graph)
    if isinstance(g, BipartiteGraph):
        if g.num_top != g.num_bottom:
            raise InvalidParameterError("bipartite reduction needs equal side sizes")
        n = g.num_top
    else:
        n = g.num_vertices
    params = ReductionParams(n=n, k=args.k, gamma=args.gamma, ell=args.ell, q=args.q)
    warnings = params.validate(strict=args.strict)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    seed = Seed(args.seed)
    reduced = (
        reduce_bipartite(g, params, seed)
        if isinstance(g, BipartiteGraph)
        else reduce_graph(g, params, seed)
    )
    write_edge_list(reduced, args.out)
    sidecar = {
        "format": "pdslab-sidecar-v1",
        "reduction": {
            "n": params.n,
            "k": params.k,
            "gamma": params.gamma,
            "ell": params.ell,
            "q": params.q,
            "m0": params.m0,
            "N": params.N,
            "K": params.K,
            "p": params.p,
            "kernel_condition": params.kernel_condition,
            "size_condition": params.size_condition,
            "strict": bool(args.strict),
        },
        "seed": args.seed,
    }
    with open(args.out + ".json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json(sidecar))
    print(args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.workers is not None:
        config = type(config)(**{**config.__dict__, "workers": args.workers})
    rows = run_sweep(config)
    csv_path, svg_path = write_outputs(config, rows)
    print(csv_path)
    print(svg_path)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = []
    for battery in _BATTERIES[args.battery]:
        reports.extend(battery())
    lines = [r.to_json_line() for r in reports]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
    except (EdgeListParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        PreconditionViolationError,
        BudgetExceededError,
        ValidityViolationError,
        VertexCountMismatchError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (PdsLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
