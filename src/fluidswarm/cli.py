"""Command line front end.

One subcommand per pipeline stage, so a full study is:

    fluidswarm generate-field --output field.csv
    fluidswarm partition --field field.csv --output grid.csv
    fluidswarm fit --partition grid.csv --output fit.csv --seed 0
    fluidswarm simulate --fit fit.csv --out run
    fluidswarm analyze --run run --targets grid.csv

Field, partition and fit files are CSV, each with a `# k=v` metadata
line. `generate-field` records the duct (`NozzleGeometry`) and the gas
(`GasModel`) it solved in the field file, so `partition` takes both from
there and has no flag for them; it reports a field whose line names no duct.
A duct that chokes or that `NozzleGeometry` rejects is a usage error of
`generate-field`, found before any file is written. `simulate` flies agents
of the fit's `--agent-mass` and writes the whole run, its event table
included, as one exact binary record, `run/trace.npz`. `analyze` scores it
with that plant's mass and peak acceleration, writes its metrics and CSV
cuts next to it, and prints the population balance and each event kind's
per-frame peak. `plant-test` exercises the velocity plant against its
response envelopes and is independent of the field pipeline. `fit`,
`simulate` and `plant-test` take `--seed` (default 0); no other subcommand
draws random numbers. A flag that sets a library parameter has the library's default.
An input file that is missing, or is not the file its flag names (another
stage's file, a damaged one), is reported on one stderr line with exit
status 1, before any file is written.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import zipfile
from dataclasses import fields

import numpy as np

from . import __version__
from .metrics import export_centerline, export_slice, metrics_report, save_metrics
from .partition import load_partition, partition_domain, save_partition
from .plant_suite import ALL_SCENARIOS, run_suite
from .reference_field import (GasModel, NozzleGeometry, generate_quasi1d_field,
                              load_field, save_field)
from .swarm_sim import (EVENT_KINDS, SimConfig, load_run, population_balance,
                        run_simulation, save_run)
from .velocity_fit import (SET_SIZE, FitConfig, fit_grid, grid_from_fit,
                           load_fit, save_fit)
from .velocity_plant import PlantParams


def _add_dataclass_args(p: argparse.ArgumentParser, cls) -> None:
    """One float flag per field of ``cls``, defaulting to the field's default."""
    for f in fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), type=float,
                       default=f.default)


def _from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidswarm",
        description="Fluid-field-driven swarm control pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-field",
                       help="solve the duct flow and write the reference field")
    p.add_argument("--output", required=True)
    keyword = inspect.signature(generate_quasi1d_field).parameters
    for flag, name in (("--inlet-speed", "inlet_speed"),
                       ("--stations", "axial_stations"),
                       ("--rings", "radial_rings")):
        p.add_argument(flag, type=type(keyword[name].default),
                       default=keyword[name].default)
    _add_dataclass_args(p, GasModel)
    _add_dataclass_args(p, NozzleGeometry)

    p = sub.add_parser("partition",
                       help="bin a reference field onto a cubic lattice")
    p.add_argument("--field", required=True)
    edge = inspect.signature(partition_domain).parameters["edge_length"]
    p.add_argument("--edge", type=float, default=edge.default,
                   help="cell edge length")
    p.add_argument("--output", required=True)

    p = sub.add_parser("fit", help="fit per-cell velocity sets to the targets")
    p.add_argument("--partition", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--agent-mass", type=float, default=FitConfig.agent_mass)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("plant-test",
                       help="run the velocity plant response scenarios")
    p.add_argument("--scenario", default="all",
                   choices=["all", "hover", "step", "max-speed", "headwind",
                            "noise"])
    p.add_argument("--out", default=None, help="also write a CSV results table")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("simulate",
                       help="fly a swarm through the fitted commands")
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True, help="run directory to create")
    p.add_argument("--case", default="reservoir",
                   choices=["reservoir", "tunnel_seeding"])
    p.add_argument("--duration", type=float, default=SimConfig.duration)
    p.add_argument("--dt", type=float, default=SimConfig.dt)
    p.add_argument("--scale", type=float, default=SimConfig.scale)
    p.add_argument("--collisions", action="store_true")
    p.add_argument("--dt-source", type=float, default=SimConfig.dt_source)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed-x-max", type=float, default=None)
    p.add_argument("--trajectories", action="store_true",
                   help="also write decimated agent trajectories")
    p.add_argument("--thrust-to-weight", type=float,
                   default=PlantParams.thrust_to_weight)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("analyze",
                       help="time-average a run and score it against targets")
    p.add_argument("--run", required=True)
    p.add_argument("--targets", required=True,
                   help="partition CSV with the per-cell targets")
    p.add_argument("--transient", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="where to write metrics/slice/centerline (default: run dir)")

    sub.add_parser("version", help="print version info")
    return parser


# ======================================================================
# subcommand bodies
# ======================================================================

class _InputError(Exception):
    """An input file that is missing or does not read as its format."""


def _read(load, path):
    """``load(path)``, with what it raises on a missing or malformed file
    (a ``FieldFormatError`` is a ``ValueError``) as an _InputError, whose
    message names the path."""
    try:
        return load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        msg = " ".join(str(exc).split())
        raise _InputError(msg if str(path) in msg else f"{path}: {msg}") \
            from exc


def _cmd_generate_field(args) -> int:
    fld = args.field
    save_field(fld, args.output)
    print(f"wrote {len(fld.positions)} samples to {args.output} "
          f"(peak speed {fld.speed.max():.4g} m/s, "
          f"min gauge pressure {fld.pressures.min():.6g} Pa)")
    return 0


def _cmd_partition(args) -> int:
    fld = _read(load_field, args.field)
    if fld.geometry is None:
        print(f"fluidswarm partition: {args.field} names no duct; put its "
              "NozzleGeometry fields on a '# k=v' line before the header",
              file=sys.stderr)
        return 1
    grid = partition_domain(fld, edge_length=args.edge)
    save_partition(grid, args.output)
    print(f"lattice {grid.dims[0]}x{grid.dims[1]}x{grid.dims[2]}, "
          f"{int(grid.inside.sum())} cells inside the duct, "
          f"{int(grid.valid.sum())} with targets -> {args.output}")
    return 0


def _cmd_fit(args) -> int:
    grid = _read(load_partition, args.partition)
    fit = fit_grid(grid, args.config)
    save_fit(fit, grid, args.output)
    print(f"fitted {len(fit.results)} cells, {SET_SIZE} velocities each "
          f"-> {args.output}")
    return 0


def _cmd_plant_test(args) -> int:
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


def _sim_config(args) -> SimConfig:
    return SimConfig(case=args.case, dt=args.dt, duration=args.duration,
                     scale=args.scale, seed=args.seed,
                     collisions=args.collisions, dt_source=args.dt_source,
                     batch_size=args.batch_size, seed_x_max=args.seed_x_max,
                     record_trajectories=args.trajectories)


def _cmd_simulate(args) -> int:
    fit, meta = _read(load_fit, args.fit)
    grid = grid_from_fit(fit, meta)
    plant = PlantParams(mass=fit.config.agent_mass,
                        thrust_to_weight=args.thrust_to_weight)
    trace = run_simulation(grid, fit, args.config, plant)
    save_run(trace, args.out)
    total = trace.totals
    print(f"{len(trace.frames)} frames -> {args.out}; injected "
          f"{total['inject']}, retired {total['retire']}, "
          f"active {population_balance(trace)['active']}, "
          f"wall escapes {total['wall_escape']}, faults {total['fault']}")
    return 0


def _cmd_analyze(args) -> int:
    grid = _read(load_partition, args.targets)
    run = _read(load_run, args.run)
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
    for name, column in zip(("active", *EVENT_KINDS),
                            [run.frame_active, *run.frame_counts.T]):
        k = int(np.argmax(column))
        print(f"peak_{name}={column[k]}")
        print(f"peak_{name}_frame={k if column[k] else 'none'}")
    print(f"wrote metrics.txt, slice.csv, centerline.csv to {outdir}")
    return 0


def _cmd_version(_args) -> int:
    print(f"fluidswarm {__version__} (numpy {np.__version__})")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    # a bad flag value is a usage error, found before any file is read or
    # written
    try:
        if args.command == "generate-field":
            args.field = generate_quasi1d_field(
                geometry=_from_args(NozzleGeometry, args),
                gas=_from_args(GasModel, args), inlet_speed=args.inlet_speed,
                axial_stations=args.stations, radial_rings=args.rings)
        elif args.command == "simulate":
            args.config = _sim_config(args)
        elif args.command == "fit":
            args.config = FitConfig(agent_mass=args.agent_mass,
                                    rng_seed=args.seed)
        elif args.command == "plant-test" and args.seed < 0:
            raise ValueError("seed must be nonnegative")
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    try:
        return _DISPATCH[args.command](args)
    except _InputError as exc:
        print(f"fluidswarm {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
