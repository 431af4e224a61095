#!/usr/bin/env python3
"""pdslab benchmark: run one workload in fresh processes, check it, report it.

Run from the repository root:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 30 --trace 0

Workloads are ``sweeps``, ``reduce_pipeline`` and ``verify_all``;
``workloads.py`` says what each runs and why.  The program
runs from source (``src/`` on PYTHONPATH); nothing is built or installed.

``--trace 0`` reports the end-to-end metrics, all measured with tracing off;
``--trace 1`` reports the per-layer metrics of a traced run and the tracing
overhead.  Human-readable lines come first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metric names and
units are those ``BENCHMARK.json`` lists.  A record of the run, with its
environment, is written to ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
# set-up is timed in this many fresh processes; the last one runs the workload
SETUP_SAMPLES = 5
# a run must end within 180 s
RUN_TIMEOUT_S = 160
# worker.calibrate's time on the reference host, a 2-core Xeon VM at a quiet
# moment; wall_norm_s is in seconds on a host as fast as that one
REF_CAL_S = 0.025


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    """Lines of Python under src/, the design metric ROADMAP.md tracks."""
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def measure(plan_path: str, trace: bool, env: dict):
    """Returns (set-up times in seconds, the workload process's result)."""
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        t0 = time.monotonic()
        probe = subprocess.run([sys.executable, WORKER, plan_path, "probe"], env=env,
                               stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        setups.append(last_json_line(probe.stdout)["ready"] - t0)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, plan_path, "run"], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True)
    result = last_json_line(proc.stdout)
    setups.append(result["ready"] - t0)
    return setups, result


def normalized(ops: list) -> float:
    """Mean operation time on the reference host.  Per step, the summed wall
    time over the summed calibration times taken around it, times REF_CAL_S;
    summed over the steps."""
    return sum(sum(op["steps"][name] for op in ops) / sum(op["cal"][name] for op in ops)
               for name in ops[0]["steps"]) * REF_CAL_S


def end_to_end(plan: dict, setups: list, result: dict):
    """End-to-end values, plus report-only lines (figures that do not apply
    to every workload cannot be metrics of the JSON line)."""
    walls = [op["wall"] for op in result["ops"]]
    cals = [c for op in result["ops"] for c in op["cal"].values()]
    values = {
        "wall_norm_s": normalized(result["ops"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    n = len(walls)
    notes = [
        f"wall_norm_s: over {n} operations (the first, with cold caches, alone: "
        f"{normalized(result['ops'][:1]):.4f} s)",
        f"wall_s = {statistics.median(walls):.4f} s: median raw wall time of the same "
        f"operations; calibration median {statistics.median(cals) * 1000:.2f} ms "
        f"against {REF_CAL_S * 1000:.0f} ms on the reference host",
        f"setup_s: median of {len(setups)} fresh processes",
    ]
    step_walls = {}
    for step in plan["steps"]:
        wall = step_walls[step["name"]] = statistics.median(
            op["steps"][step["name"]] for op in result["ops"])
        line = f"step {step['name']}: wall {wall:.4f} s, median of {n}"
        if step["trials"]:
            line += f"; trials_per_s {step['trials'] / wall:.2f} 1/s ({step['trials']} trials)"
        notes.append(line)
    if "sweep_w2" in step_walls:
        notes.append(f"wall_w2_s = {step_walls['sweep_w2']:.4f} s at workers=2, against "
                     f"{step_walls['sweep_w1']:.4f} s at workers=1")
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run then kills the worker and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "pdslab", "phaselab", "cli.py")):
        print("perfbench: no pdslab sources under src/; run it from a repository checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                 os.environ.get("PYTHONPATH")])),
        # write no bytecode caches, so every set-up compiles pdslab alike
        PYTHONDONTWRITEBYTECODE="1",
        # at most 2 threads: the sweep's worker pool, never a BLAS pool
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    try:
        plan = workloads.make_plan(args.workload, args.seed, workdir)
        plan.update(seconds=args.seconds, trace=args.trace)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh, indent=2)
        setups, result = measure(plan_path, bool(args.trace), env)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, notes = result["layers"], [f"{k} = {v}" for k, v in result["extras"].items()]
        notes.append("end-to-end numbers come from --trace 0 runs; this run's "
                     "trace.overhead_s is traced minus untraced operation wall time")
        notes += [f"span {name} <- parents {', '.join(p)}" for name, p in result["parents"].items()]
        notes += [f"not found, reads 0: {t}" for t in result["missing_targets"]]
    else:
        values, notes = end_to_end(plan, setups, result)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env_record = {"git_rev": git_rev(), "src_lines": src_lines(), "nproc": os.cpu_count(),
                  **result["versions"]}
    attempted, failed = result["attempted"], result["failed"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    print(f"operations: {len(result['ops'])} in one fresh process, closed loop, one client")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")

    record = {"args": vars(args), "env": env_record, "metrics": metrics, "notes": notes,
              "setup_samples": setups, **result}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
