"""fluidswarm benchmark: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload study --seed 0 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` runs one pipeline iteration, then repeats on seeds seed+1,
seed+2, ... to give ``SETUP_SAMPLES`` set-up times in all (on the CLI route
a repeat also runs the simulation, for more samples of its rate), then more
iterations of the first seed while ``--seconds`` have not passed (all of
them must agree bit for bit); it prints the end-to-end metrics (medians
over the run). ``--trace 1`` runs two untraced iterations and one traced
iteration, all of which must agree bit for bit, and prints the per-layer
metrics of the traced one; its spans go to ``.perfbench/spans/``.
``--smoke`` shrinks every simulated duration to seconds. Every iteration's
outputs are checked; a failed check counts as a failed operation. The last
stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the environment and the digest of the
simulated statistics. Without ``src/fluidswarm`` the script exits with a
non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_SAMPLES = 7     # set-up times per untraced run, median reported
UNTRACED_ITERATIONS = 2    # before the traced one, to check they agree
END_TO_END = {"wall_s": "s", "setup_s": "s",
              "simulate_agent_steps_per_s": "1/s", "peak_rss_mb": "MB"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("study", "crowd", "collide"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds of simulated time instead of minutes")
    return p.parse_args(argv)


def import_package() -> float:
    """Import numpy, scipy and fluidswarm from ``src/``; returns seconds."""
    src = os.path.join(ROOT, "src")
    init = os.path.join(src, "fluidswarm", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from a checkout")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.spatial  # noqa: F401

    import fluidswarm
    import fluidswarm.cli  # noqa: F401
    elapsed = perf_counter() - t0
    if os.path.realpath(fluidswarm.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported {fluidswarm.__file__}, not {init}")
    return elapsed


def environment(args) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


def untraced(runner, workloads, args) -> tuple:
    t_begin = perf_counter()
    outcomes = [runner.iteration(args.seed)]
    # high-water mark of the first iteration alone: a later one can peak
    # higher on heap the first one freed but did not return
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    repeats = [runner.repeat(args.seed + k) for k in range(1, SETUP_SAMPLES)]
    while perf_counter() - t_begin < args.seconds:
        outcomes.append(runner.iteration(args.seed))
    runner.check_same(outcomes)
    done = [o for o in outcomes if o is not None]
    repeats = [r for r in repeats if r is not None]
    values = {
        "wall_s": workloads.median(o.wall_s for o in done),
        "setup_s": workloads.median([r[0] for r in repeats]
                                    + [o.setup_s for o in done]),
        "simulate_agent_steps_per_s": workloads.median(
            [r[1] for r in repeats] + [o.agent_steps_per_s for o in done]),
        "peak_rss_mb": peak_kb / 1024,
    }
    return outcomes, {k: (values[k], unit) for k, unit in END_TO_END.items()}


def traced(runner, workloads, tracing, args, import_s, env) -> tuple:
    plain = [runner.iteration(args.seed) for _ in range(UNTRACED_ITERATIONS)]
    tracer = tracing.Tracer()
    tracing.install(tracer, runner.w.route)
    try:
        out = runner.iteration(args.seed, tracer)
    finally:
        tracer.restore()
    outcomes = plain + [out]
    runner.check_same(outcomes)
    if out is None:
        return outcomes, {}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    metrics = tracing.layer_metrics(tracer, {
        "import_s": import_s, "wall_s": out.wall_s,
        "untraced_wall_s": workloads.median(o.wall_s for o in plain
                                            if o is not None) or out.wall_s,
        "summary": out.summary, "frames_used": out.frames_used,
        "run_dir_mb": out.run_dir_mb})
    os.makedirs(os.path.join(ROOT, ".perfbench", "spans"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", "spans",
                        f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "missing_hooks": sorted(tracer.missing),
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "spans": tracer.records(origin)}, fh)
    return outcomes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    env = environment(args)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    runner = workloads.Runner(w, workdir)
    try:
        if args.trace:
            outcomes, metrics = traced(runner, workloads, tracing, args,
                                       import_s, env)
        else:
            outcomes, metrics = untraced(runner, workloads, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for why in runner.failures:
        print(f"perfbench: failed: {why}", file=sys.stderr)
    digest = next((o.summary["digest"] for o in outcomes if o is not None),
                  None)
    print(json.dumps({"environment": env, "digest": digest}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
