"""One workload in one fresh Python process; ``run.py`` starts it.

    python3 perfbench/worker.py PLAN.json probe   # set up, print the ready time, exit
    python3 perfbench/worker.py PLAN.json run     # set up, run operations, check, report

Set-up is what a user waits for before pdslab can do work: the interpreter,
importing ``pdslab.phaselab.cli`` and loading the sweep configs.  Nothing of
the benchmark's own is imported before the ready time is taken.

``run`` is a closed loop with one client: it starts the next operation when
the previous one has finished, until the plan's ``seconds`` have passed.
Before the first step and after every step it times ``calibrate``, a fixed
pure-Python loop that never calls pdslab; ``run.py`` divides each step's wall
time by the calibration times around it.  With ``trace`` set, operations
alternate traced / untraced (the first is traced, so it sees the cold calls),
and one more operation afterwards measures tracemalloc peaks inside the
sampler, edge-list and heuristic-scan calls.
Every operation's outputs are checked, and compared byte for byte with the
first operation's (same seed, so they must be identical).  The last stdout
line is one JSON object for ``run.py``.
"""

import json
import sys
import time


def setup(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from pdslab.phaselab import cli
    from pdslab.phaselab.config import load_config

    configs = {s["name"]: load_config(s["config"]) for s in plan["steps"] if s["config"]}
    return plan, cli, configs, time.monotonic()


def calibrate() -> float:
    """Seconds this host takes now for a fixed pure-Python arithmetic loop,
    about 25 ms on a 2-core Xeon VM at a quiet moment."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - t0


def run_op(plan, cli, tracer=None, skip=(), cal=False):
    """Run the plan's CLI steps once; returns (wall per step, artifacts per step).

    With ``cal`` set, also returns the calibration time around each step: the
    mean of the one taken before it and the one taken after it.
    """
    import contextlib
    import io

    walls, arts, cals = {}, {}, {}
    before = calibrate() if cal else None
    for step in plan["steps"]:
        if step["name"] in skip:
            continue
        buf = io.StringIO()
        span = tracer.open_step(step["name"]) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(step["argv"])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        walls[step["name"]] = time.perf_counter() - t0
        if span is not None:
            tracer.close_step(span)
        files = {}
        for path in step["outputs"]:
            try:
                with open(path, "rb") as fh:
                    files[path] = fh.read()
            except OSError:
                files[path] = None
        arts[step["name"]] = {"code": code, "stdout": buf.getvalue(), "files": files}
        if cal:
            after = calibrate()
            cals[step["name"]], before = (before + after) / 2.0, after
    return (walls, arts, cals) if cal else (walls, arts)


def judge(plan, configs, arts, reference):
    """Count the operations in one run of the steps and list what went wrong.

    An operation is a CLI step, or for ``verify`` one verification check.
    Returns (attempted, problems) with problems as (operation key, message).
    """
    import workloads

    attempted, problems = 0, []
    if plan["workload"] == "verify_all":
        attempted, found = workloads.check_verify(arts)
        problems += [(f"check{i}", msg) for i, msg in enumerate(found)]
    for name, art in arts.items():
        if plan["workload"] != "verify_all":
            attempted += 1
            if art["code"] != 0:
                problems.append((name, f"{name} exited with {art['code']!r}"))
        if any(data is None for data in art["files"].values()):
            problems.append((name, f"{name} did not write all of its outputs"))
        if reference is not None and art != reference.get(name, art):
            problems.append((name, f"{name} output differs from the first run with the same seed"))
    if problems:
        return attempted, problems
    try:
        for step in plan["steps"]:
            if step["config"] and step["name"] in arts:
                csv = arts[step["name"]]["files"][step["outputs"][0]].decode()
                found = workloads.check_sweep_csv(csv, configs[step["name"]])
                problems += [(step["name"], m) for m in found]
        if "sweep_w1" in arts and "sweep_w2" in arts:
            w1, w2 = (list(arts[s]["files"].values()) for s in ("sweep_w1", "sweep_w2"))
            if w1 != w2:
                problems.append(("sweep_w2", "workers=2 CSV/SVG differ from workers=1"))
        if plan["workload"] == "reduce_pipeline":
            problems += workloads.check_pipeline(plan, arts)
    except Exception as exc:  # malformed output is a failed check
        problems.append(("check", f"output check raised {type(exc).__name__}: {exc}"))
    return attempted, problems


def loop(plan, cli, configs):
    import statistics

    import layers
    import workloads
    from tracer import Tracer

    trace = bool(plan["trace"])
    tracer = Tracer() if trace else None
    ops, seen_parents = [], {}
    attempted, failed, messages = 0, 0, []
    reference = None

    def account(arts, op_name):
        nonlocal attempted, failed, reference
        n, problems = judge(plan, configs, arts, reference)
        attempted += n
        failed += min(n, len({key for key, _ in problems}))
        messages.extend(f"{op_name}: {msg}" for _, msg in problems)
        if reference is None:
            reference = arts

    t_begin = time.perf_counter()
    while True:
        # a traced run needs a warm traced operation (after the first) and an untraced one
        if time.perf_counter() - t_begin >= plan["seconds"] and (not trace or len(ops) >= 3):
            break
        traced = trace and len(ops) % 2 == 0
        if traced:
            tracer.reset()
            layers.patch_all(tracer)
        try:
            walls, arts, cals = run_op(plan, cli, tracer if traced else None, cal=True)
        finally:
            if traced:
                tracer.restore()
        op = {"traced": traced, "wall": sum(walls.values()), "steps": walls, "cal": cals}
        if traced:
            op["layers"], op["samples"] = layers.op_values(tracer, walls)
            layers.parents(tracer, seen_parents)
        account(arts, f"op{len(ops)}")
        ops.append(op)

    result = {"ops": [{k: op[k] for k in ("traced", "wall", "steps", "cal")} for op in ops]}
    if trace:
        # the first operation pays the cold caches: it gives the cold-call
        # numbers only, and every median is over warm operations
        warm = [op for op in ops[1:] if op["traced"]]
        values, extras = layers.summarize(ops[0], warm)
        untraced = [op["wall"] for op in ops if not op["traced"]]
        values["trace.overhead_s"] = (statistics.median(op["wall"] for op in warm)
                                      - statistics.median(untraced))
        tracer.reset()
        if plan["workload"] != "verify_all":
            # threads would share one tracemalloc session, so the workers=2 pass sits out
            tracer.measure_alloc = True
            layers.patch_all(tracer, alloc_only=True)
            try:
                _, arts = run_op(plan, cli, tracer, skip=("sweep_w2",))
            finally:
                tracer.restore()
            account(arts, "alloc")
        values.update(layers.peak_values(tracer))
        result.update(
            layers=values,
            extras=extras,
            parents={k: sorted(map(str, v)) for k, v in seen_parents.items()},
            missing_targets=sorted(set(tracer.missing)),
        )
    if "sweep_exact" in configs:
        try:
            n, problems = workloads.check_argmax(configs["sweep_exact"], plan["seed"])
        except Exception as exc:  # a crash in the program under test is a failed check
            n, problems = 1, [f"argmax check raised {type(exc).__name__}: {exc}"]
        attempted += n
        failed += min(n, len(problems))
        messages.extend(problems)
    result.update(attempted=attempted, failed=failed, problems=messages[:20])
    return result


def main(argv):
    plan, cli, configs, ready = setup(argv[1])
    if argv[2] == "probe":
        print(json.dumps({"ready": ready}))
        return 0
    import platform
    import resource

    import numpy
    import scipy

    result = loop(plan, cli, configs)
    result.update(
        ready=ready,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
