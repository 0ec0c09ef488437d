"""Command line front end.

One subcommand per pipeline stage, so a full study is:

    fluidswarm generate-field --output field.csv
    fluidswarm partition --field field.csv --output grid.csv
    fluidswarm fit --partition grid.csv --output fit.csv --seed 0
    fluidswarm simulate --fit fit.csv --out run
    fluidswarm analyze --run run --targets grid.csv

Field, partition and fit files are CSV. `simulate` flies agents of the
fit's `--agent-mass` and writes the whole run as one exact binary record,
`run/trace.npz`, which `analyze` scores with that plant's mass and peak
acceleration, writing its metrics and CSV cuts next to it. `plant-test`
exercises the velocity plant against its response envelopes and is
independent of the field pipeline. Every subcommand accepts `--seed` and
`--threads`; only the fit uses `--threads`, and results never depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .metrics import export_centerline, export_slice, metrics_report, save_metrics
from .partition import load_partition, partition_domain, save_partition
from .plant_suite import run_suite
from .reference_field import (GasModel, NozzleGeometry, generate_quasi1d_field,
                              load_field, save_field)
from .swarm_sim import (FRAME_COUNT_COLUMNS, SimConfig, load_run,
                        population_balance, run_simulation, save_run)
from .velocity_fit import (FitConfig, fit_grid, grid_from_fit, load_fit,
                           save_fit)
from .velocity_plant import PlantParams


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--threads", type=int, default=1,
                   help="fit worker threads; never changes results (default 1)")
    return p


def _geometry(args) -> NozzleGeometry:
    return NozzleGeometry(length=args.length, inlet_radius=args.inlet_radius,
                          outlet_radius=args.outlet_radius,
                          throat_radius=args.throat_radius,
                          throat_x=args.throat_x)


def _add_geometry_args(p: argparse.ArgumentParser) -> None:
    g = NozzleGeometry()
    p.add_argument("--length", type=float, default=g.length)
    p.add_argument("--inlet-radius", type=float, default=g.inlet_radius)
    p.add_argument("--outlet-radius", type=float, default=g.outlet_radius)
    p.add_argument("--throat-radius", type=float, default=g.throat_radius)
    p.add_argument("--throat-x", type=float, default=g.throat_x)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidswarm",
        description="Fluid-field-driven swarm control pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common()

    p = sub.add_parser("generate-field", parents=[common],
                       help="solve the duct flow and write the reference field")
    p.add_argument("--output", required=True)
    p.add_argument("--inlet-speed", type=float, default=3.38)
    p.add_argument("--stations", type=int, default=151)
    p.add_argument("--rings", type=int, default=6)
    p.add_argument("--gamma", type=float, default=1.4)
    p.add_argument("--inlet-density", type=float, default=1.225)
    p.add_argument("--inlet-sound-speed", type=float, default=340.0)
    _add_geometry_args(p)

    p = sub.add_parser("partition", parents=[common],
                       help="bin a reference field onto a cubic lattice")
    p.add_argument("--field", required=True)
    p.add_argument("--edge", type=float, default=0.5, help="cell edge length")
    p.add_argument("--output", required=True)
    p.add_argument("--gamma", type=float, default=1.4)
    p.add_argument("--inlet-density", type=float, default=1.225)
    p.add_argument("--inlet-sound-speed", type=float, default=340.0)
    _add_geometry_args(p)

    p = sub.add_parser("fit", parents=[common],
                       help="fit per-cell velocity sets to the targets")
    p.add_argument("--partition", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--agent-mass", type=float, default=1.0)

    p = sub.add_parser("plant-test", parents=[common],
                       help="run the velocity plant response scenarios")
    p.add_argument("--scenario", default="all",
                   choices=["all", "hover", "step", "max-speed", "headwind",
                            "noise"])
    p.add_argument("--out", default=None, help="also write a CSV results table")

    p = sub.add_parser("simulate", parents=[common],
                       help="fly a swarm through the fitted commands")
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True, help="run directory to create")
    p.add_argument("--case", default="reservoir",
                   choices=["reservoir", "tunnel_seeding"])
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--collisions", action="store_true")
    p.add_argument("--dt-source", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed-x-max", type=float, default=None)
    p.add_argument("--trajectories", action="store_true",
                   help="also write decimated agent trajectories")
    p.add_argument("--thrust-to-weight", type=float, default=2.2)

    p = sub.add_parser("analyze", parents=[common],
                       help="time-average a run and score it against targets")
    p.add_argument("--run", required=True)
    p.add_argument("--targets", required=True,
                   help="partition CSV with the per-cell targets")
    p.add_argument("--transient", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="where to write metrics/slice/centerline (default: run dir)")

    sub.add_parser("version", parents=[common], help="print version info")
    return parser


# ======================================================================
# subcommand bodies
# ======================================================================

def _cmd_generate_field(args) -> int:
    geo = _geometry(args)
    gas = GasModel(gamma=args.gamma, inlet_density=args.inlet_density,
                   inlet_sound_speed=args.inlet_sound_speed)
    fld = generate_quasi1d_field(geometry=geo, gas=gas,
                                 inlet_speed=args.inlet_speed,
                                 axial_stations=args.stations,
                                 radial_rings=args.rings)
    save_field(fld, args.output)
    print(f"wrote {len(fld.positions)} samples to {args.output} "
          f"(peak speed {fld.speed.max():.4g} m/s, "
          f"min gauge pressure {fld.pressures.min():.6g} Pa)")
    return 0


def _cmd_partition(args) -> int:
    gas = GasModel(gamma=args.gamma, inlet_density=args.inlet_density,
                   inlet_sound_speed=args.inlet_sound_speed)
    fld = load_field(args.field, geometry=_geometry(args), gas=gas)
    grid = partition_domain(fld, edge_length=args.edge)
    save_partition(grid, args.output)
    print(f"lattice {grid.dims[0]}x{grid.dims[1]}x{grid.dims[2]}, "
          f"{int(grid.inside.sum())} cells inside the duct, "
          f"{int(grid.valid.sum())} with targets -> {args.output}")
    return 0


def _cmd_fit(args) -> int:
    grid = load_partition(args.partition)
    cfg = FitConfig(n_min=args.n_min, n_max=args.n_max, alpha=args.alpha,
                    epsilon=args.epsilon, max_iterations=args.max_iterations,
                    agent_mass=args.agent_mass, rng_seed=args.seed)
    fit = fit_grid(grid, cfg, threads=args.threads)
    save_fit(fit, grid, args.output)
    n = len(fit.results)
    conv = sum(1 for r in fit.results.values() if r.converged)
    sizes = np.array([r.n_star for r in fit.results.values()])
    print(f"fitted {n} cells ({conv} converged), set sizes "
          f"{sizes.min()}..{sizes.max()} (mean {sizes.mean():.2f}) -> {args.output}")
    return 0


def _cmd_plant_test(args) -> int:
    from .plant_suite import ALL_SCENARIOS
    picks = ALL_SCENARIOS if args.scenario == "all" \
        else (args.scenario.replace("-", "_"),)
    suite = run_suite(seed=args.seed, scenarios=picks)
    rows = []
    for name, result in suite.items():
        if not isinstance(result, dict):
            continue
        print(f"[{'PASS' if result['pass'] else 'FAIL'}] {name}: "
              + ", ".join(f"{k}={v:.4g}" for k, v in result.items()
                          if isinstance(v, float)))
        for k, v in result.items():
            if isinstance(v, float):
                rows.append((name, k, v, result["pass"]))
            elif k == "rows":
                for i, sub in enumerate(v):
                    rows.extend((name, f"{kk}[{i}]", vv, result["pass"])
                                for kk, vv in sub.items())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("scenario,metric,value,scenario_pass\n")
            for name, metric, value, ok in rows:
                fh.write(f"{name},{metric},{value:.12g},{int(ok)}\n")
        print(f"results table -> {args.out}")
    return 0 if suite["pass"] else 1


def _cmd_simulate(args) -> int:
    fit, meta = load_fit(args.fit)
    grid = grid_from_fit(fit, meta)
    cfg = SimConfig(case=args.case, dt=args.dt, duration=args.duration,
                    scale=args.scale, seed=args.seed,
                    collisions=args.collisions, dt_source=args.dt_source,
                    batch_size=args.batch_size, seed_x_max=args.seed_x_max,
                    record_trajectories=args.trajectories)
    plant = PlantParams(mass=fit.config.agent_mass,
                        thrust_to_weight=args.thrust_to_weight)
    trace = run_simulation(grid, fit, cfg, plant)
    save_run(trace, args.out)
    print(f"{len(trace.frames)} frames -> {args.out}; injected "
          f"{trace.injected}, retired {trace.retired}, "
          f"active {population_balance(trace)['active']}, "
          f"wall escapes {trace.escaped}, faults {trace.faults}")
    return 0


def _cmd_analyze(args) -> int:
    grid = load_partition(args.targets)
    run = load_run(args.run)
    report = metrics_report(run, grid, transient=args.transient)
    outdir = args.out or args.run
    os.makedirs(outdir, exist_ok=True)
    save_metrics(report, os.path.join(outdir, "metrics.txt"))
    export_slice(report.derived, grid, os.path.join(outdir, "slice.csv"))
    export_centerline(report.profile, os.path.join(outdir, "centerline.csv"))
    for k, v in report.values.items():
        print(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}")
    balance = population_balance(run)
    for k in ("injected", "retired", "active", "faults", "balanced"):
        print(f"{k}={balance[k]}")
    for name, column in zip(FRAME_COUNT_COLUMNS, run.frame_counts.T):
        k = int(np.argmax(column))
        print(f"peak_{name}={column[k]}")
        print(f"peak_{name}_frame={k if column[k] else 'none'}")
    print(f"wrote metrics.txt, slice.csv, centerline.csv to {outdir}")
    return 0


def _cmd_version(_args) -> int:
    import scipy
    print(f"fluidswarm {__version__} (numpy {np.__version__}, "
          f"scipy {scipy.__version__})")
    return 0


_DISPATCH = {
    "generate-field": _cmd_generate_field,
    "partition": _cmd_partition,
    "fit": _cmd_fit,
    "plant-test": _cmd_plant_test,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "version": _cmd_version,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
