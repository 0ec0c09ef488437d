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
of the fit's `--agent-mass` and writes the whole run, its event table and
the fit's seed, set size and pressure offset included, as one exact binary
record, `run/trace.npz`. `analyze` scores it with that plant's mass, writes
its metrics and CSV cuts next to it, and prints the fit's record, the
population balance and each event kind's per-frame peak. `plant-test`
exercises the velocity plant against its response envelopes and is
independent of the field pipeline. `fit`,
`simulate` and `plant-test` take `--seed` (default 0); no other subcommand
draws random numbers. A flag that sets a library parameter has the library's
default and the domain declared beside the parameter: a value outside it, or
settings the library refuses together, is a usage error (exit status 2)
whose one ``error:`` line names the flag, before any file is read or written.
An input file that is missing, or is not the file its flag names (another
stage's file, a damaged one), is reported on one stderr line with exit
status 1, before any file is written; so are `analyze` targets whose
lattice or duct differs from the one the run flew, and an output path the
command cannot write. `simulate` and `analyze` refuse an `--out` that
exists and is not a directory, and `plant-test` an `--out` in a directory
that does not exist, before they read an input or run the suite.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .metrics import export_centerline, export_slice, metrics_report, save_metrics
from .partition import partition_domain
from .plant_suite import ALL_SCENARIOS, run_suite
from .primitives import FINITE_POSITIVE, NOT_NAN, SEED, DomainError, check
from .records import (grid_from_fit, lattice_meta, load_field, load_fit,
                      load_partition, load_run, save_field, save_fit,
                      save_partition, save_run)
from .reference_field import GasModel, NozzleGeometry, generate_quasi1d_field
from .swarm_sim import (CASES, EVENT_KINDS, SimConfig, population_balance,
                        run_simulation)
from .velocity_fit import SET_SIZE, FitConfig, fit_grid
from .velocity_plant import PlantParams


def _add_dataclass_args(p: argparse.ArgumentParser, cls) -> None:
    """One float flag per field of ``cls``, defaulting to the field's default."""
    for f in fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), type=float,
                       default=f.default)


# library parameters whose flag is named otherwise
_FLAGS = {"rng_seed": "seed", "axial_stations": "stations",
          "radial_rings": "rings", "record_trajectories": "trajectories"}


def _from_args(cls, args):
    """``cls`` from the flags that set its fields; the others keep their
    defaults."""
    dest = {f.name: _FLAGS.get(f.name, f.name) for f in fields(cls)}
    return cls(**{k: getattr(args, d) for k, d in dest.items()
                  if hasattr(args, d)})


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
    p.add_argument("--case", default=SimConfig.case, choices=CASES)
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
    """An input file that is missing, does not read as its format or does
    not suit the command's other inputs."""


def _read(load, path):
    """``load(path)``, with what it raises on a missing or malformed file
    (a ``FieldFormatError`` is a ``ValueError``) as an _InputError, whose
    message names the path."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        msg = " ".join(str(exc).split())
        raise _InputError(msg if str(path) in msg else f"{path}: {msg}") \
            from exc


def _check_outdir(path) -> None:
    """Raise, before the work, what making the directory ``path`` ends in
    when ``path`` exists as a file."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 path)


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
    print(f"fitted {len(fit.cells)} cells, {SET_SIZE} velocities each "
          f"-> {args.output}")
    return 0


def _cmd_plant_test(args) -> int:
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                args.out)       # found before the suite runs
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
    _check_outdir(args.out)
    fit, meta = _read(load_fit, args.fit)
    grid = grid_from_fit(fit, meta)
    trace = run_simulation(grid, fit, args.config,
                           replace(args.plant, mass=fit.config.agent_mass))
    save_run(trace, grid, args.out)
    total = trace.totals
    print(f"{len(trace.frame_t)} frames -> {args.out}; injected "
          f"{total['inject']}, retired {total['retire']}, "
          f"active {population_balance(trace)['active']}, "
          f"wall escapes {total['wall_escape']}, faults {total['fault']}")
    return 0


def _cmd_analyze(args) -> int:
    outdir = args.out or args.run
    _check_outdir(outdir)
    grid = _read(load_partition, args.targets)
    run, lattice = _read(load_run, args.run)
    targets = lattice_meta(grid)
    for k in dict.fromkeys([*lattice, *targets]):
        if lattice.get(k) != targets.get(k):
            raise _InputError(f"{args.targets}: {k}={targets.get(k)!r} differs "
                              f"from the run's {k}={lattice.get(k)!r}")
    if args.transient is not None and not (run.frame_t > args.transient).any():
        raise _InputError(f"{args.run}: --transient {args.transient:g} leaves "
                          f"no frame of the run's {run.config.duration:g} s")
    report = metrics_report(run, grid, transient=args.transient)
    os.makedirs(outdir, exist_ok=True)
    save_metrics(report, os.path.join(outdir, "metrics.txt"))
    export_slice(report.derived, grid, os.path.join(outdir, "slice.csv"))
    export_centerline(report.profile, os.path.join(outdir, "centerline.csv"))
    for k, v in report.values.items():
        print(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}")
    for k, v in run.fit.items():
        print(f"fit_{k}={v}")
    balance = population_balance(run)
    for k in ("injected", "retired", "active", "balanced"):   # faults: a metric
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
    try:
        if args.command == "generate-field":
            args.field = generate_quasi1d_field(
                geometry=_from_args(NozzleGeometry, args),
                gas=_from_args(GasModel, args), inlet_speed=args.inlet_speed,
                axial_stations=args.stations, radial_rings=args.rings)
        elif args.command == "simulate":
            args.plant = _from_args(PlantParams, args)
            args.config = _from_args(SimConfig, args)
        elif args.command == "fit":
            args.config = _from_args(FitConfig, args)
        elif args.command == "plant-test":
            check("seed", args.seed, SEED)
        elif args.command == "partition":
            check("edge", args.edge, FINITE_POSITIVE)
        elif args.command == "analyze" and args.transient is not None:
            check("transient", args.transient, NOT_NAN)
    except DomainError as exc:
        flag = "--" + _FLAGS.get(exc.name, exc.name).replace("_", "-")
        parser.error(f"{args.command}: {flag} {exc.rule}; got {exc.value!r}")
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    try:
        return _DISPATCH[args.command](args)
    except (_InputError, OSError) as exc:   # OSError: an unwritable output
        print(f"fluidswarm {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
