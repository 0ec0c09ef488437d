"""End-to-end checks of the command line front end.

The pipeline test runs a deliberately small field (41 stations, 3 rings) and
a short flight so the whole chain stays under a few seconds.
"""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from fluidswarm import (FitConfig, GasModel, NozzleGeometry, PlantParams,
                        SimConfig, fit_grid, generate_quasi1d_field, load_field,
                        load_fit, load_partition, load_run, partition_domain,
                        run_simulation, save_field, save_partition)
from fluidswarm.cli import build_parser, main
from fluidswarm.velocity_fit import SET_SIZE


def test_version_prints_the_package_and_numpy(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fluidswarm ")
    assert np.__version__ in out
    assert "scipy" not in out


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports ``src/``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc = run_python("import sys, fluidswarm.cli\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m.split('.')[0] == 'scipy'))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_readme_pipeline_runs_without_scipy(tmp_path):
    """The README pipeline, with collisions and trajectories on, and the
    plant suite, in a process where any ``import scipy`` fails."""
    commands = [
        ["generate-field", "--output", "field.csv"],
        ["partition", "--field", "field.csv", "--output", "grid.csv"],
        ["fit", "--partition", "grid.csv", "--output", "fit.csv", "--seed", "0"],
        ["simulate", "--fit", "fit.csv", "--out", "run", "--duration", "5",
         "--collisions", "--trajectories"],
        ["analyze", "--run", "run", "--targets", "grid.csv"],
        ["plant-test", "--scenario", "all", "--out", "plant.csv"],
        ["version"],
    ]
    proc = run_python("import sys\n"
                      "sys.modules['scipy'] = None\n"
                      "from fluidswarm.cli import main\n"
                      f"for argv in {commands!r}:\n"
                      "    assert main(argv) == 0, argv\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "balanced=True" in proc.stdout.splitlines()
    assert (tmp_path / "run" / "metrics.txt").exists()
    assert (tmp_path / "plant.csv").exists()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_required_argument_exits():
    with pytest.raises(SystemExit):
        main(["fit"])  # --partition and --output are required


def test_full_pipeline(tmp_path, capsys):
    field = tmp_path / "field.csv"
    gridf = tmp_path / "grid.csv"
    fitf = tmp_path / "fit.csv"
    rundir = tmp_path / "run"

    assert main(["generate-field", "--output", str(field),
                 "--stations", "41", "--rings", "3"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert field.exists()

    assert main(["partition", "--field", str(field),
                 "--output", str(gridf)]) == 0
    out = capsys.readouterr().out
    assert "30x6x6" in out and "inside the duct" in out

    assert main(["fit", "--partition", str(gridf), "--output", str(fitf),
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert f"{SET_SIZE} velocities each" in out

    assert main(["simulate", "--fit", str(fitf), "--out", str(rundir),
                 "--duration", "4.0", "--dt", "0.05", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "80 frames" in out
    assert (rundir / "trace.npz").exists()

    assert main(["analyze", "--run", str(rundir), "--targets", str(gridf),
                 "--transient", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "rmse_velocity=" in out
    for key in ("injected=", "retired=", "active=", "\nfaults=0\n",
                "balanced=True"):
        assert key in out, key
    # each key once: the fault count is a metric, not repeated in the balance
    keys = [line.split("=", 1)[0] for line in out.splitlines() if "=" in line]
    assert len(keys) == len(set(keys)) > 30, keys
    # the fit the run flew
    fit, _ = load_fit(fitf)
    assert f"\nfit_rng_seed=0\nfit_set_size={SET_SIZE}\n" \
        f"fit_pressure_offset={fit.pressure_offset!r}\n" in out
    # per-frame counter peaks: equal batches, the first in frame 0; no
    # collision without collisions on, and no line for a removed kind
    assert "\npeak_inject_frame=0\n" in out
    active = load_run(rundir)[0].frame_active
    k = int(np.argmax(active))
    assert f"\npeak_active={active[k]}\npeak_active_frame={k}\n" in out
    assert active[k] > 0
    assert "\npeak_collision_overtake=0\n" \
        "peak_collision_overtake_frame=none\n" in out
    assert "headon" not in out and "sideswipe" not in out
    for name in ("metrics.txt", "slice.csv", "centerline.csv"):
        assert (rundir / name).exists(), name

    # a separate output directory is honored too
    outdir = tmp_path / "scores"
    assert main(["analyze", "--run", str(rundir), "--targets", str(gridf),
                 "--transient", "1.0", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert (outdir / "metrics.txt").exists()


def test_cli_fit_and_simulate_match_the_in_memory_route(tmp_path, capsys,
                                                       grid):
    """A saved partition gives the in-memory fit bit for bit, and the CLI
    run the in-memory run's frames and events."""
    save_partition(grid, tmp_path / "grid.csv")
    assert main(["fit", "--partition", str(tmp_path / "grid.csv"),
                 "--output", str(tmp_path / "fit.csv")]) == 0
    assert main(["simulate", "--fit", str(tmp_path / "fit.csv"), "--out",
                 str(tmp_path / "run"), "--duration", "5"]) == 0
    capsys.readouterr()
    fit = fit_grid(grid)
    cli_fit, _meta = load_fit(tmp_path / "fit.csv")
    assert np.array_equal(cli_fit.cells, fit.cells)
    assert np.array_equal(cli_fit.velocities, fit.velocities)
    want = run_simulation(grid, fit, SimConfig(duration=5.0))
    got, _ = load_run(tmp_path / "run")
    assert got.events == want.events
    assert len(got.frame_t) == 100
    assert got.frames == want.frames


def test_geometry_and_gas_flags_follow_their_dataclasses():
    """generate-field takes one flag per NozzleGeometry and GasModel field,
    named after it, and defaults to the dataclass; partition has none of
    them, since it reads both from the field file."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {"length": "--length", "inlet_radius": "--inlet-radius",
             "outlet_radius": "--outlet-radius",
             "throat_radius": "--throat-radius", "throat_x": "--throat-x",
             "gamma": "--gamma", "inlet_density": "--inlet-density",
             "inlet_sound_speed": "--inlet-sound-speed"}
    assert set(flags) == {f.name for cls in (NozzleGeometry, GasModel)
                          for f in fields(cls)}
    actions = sub.choices["generate-field"]._actions
    for name, flag in flags.items():
        assert [a.option_strings for a in actions if a.dest == name] \
            == [[flag]], name
    args = vars(build_parser().parse_args(["generate-field", "--output", "f.csv"]))
    assert {k: args[k] for k in asdict(NozzleGeometry())} \
        == asdict(NozzleGeometry())
    assert {k: args[k] for k in asdict(GasModel())} == asdict(GasModel())
    actions = sub.choices["partition"]._actions
    assert not {a.dest for a in actions} & set(flags)
    assert not {s for a in actions for s in a.option_strings} & set(flags.values())


def test_partition_takes_the_duct_and_gas_from_the_field(tmp_path, capsys):
    """A flag-less partition of a generated field equals the in-memory
    partition of that field with its own geometry and gas: the narrower
    throat sets the cells inside, the slower sound speed the densities."""
    cases = [(["--throat-radius", "0.6"], "throat_radius=0.6",
              NozzleGeometry(throat_radius=0.6), GasModel()),
             (["--inlet-sound-speed", "26"], "inlet_sound_speed=26.0",
              NozzleGeometry(), GasModel(inlet_sound_speed=26.0))]
    grids = []
    for flags, token, geometry, gas in cases:
        field, gridf = tmp_path / "field.csv", tmp_path / "grid.csv"
        assert main(["generate-field", "--output", str(field), *flags]) == 0
        assert main(["partition", "--field", str(field),
                     "--output", str(gridf)]) == 0
        capsys.readouterr()
        assert token in gridf.read_text().splitlines()[0].split()
        got = load_partition(gridf)
        want = partition_domain(load_field(field))
        assert got.geometry == want.geometry == geometry
        assert got.gas == want.gas == gas
        for name in ("inside", "node_count", "v_target", "p_target",
                     "rho_target"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)
        grids.append(got)
    assert int(grids[0].inside.sum()) == 740      # 796 with the 0.75 m throat
    rho = grids[1].rho_target
    assert np.nanmin(rho) == pytest.approx(1.006, abs=5e-4)   # 1.2238 at 340 m/s
    assert np.nanmax(rho) == pytest.approx(GasModel().inlet_density, abs=5e-4)


def test_partition_reports_a_field_with_no_duct(tmp_path, capsys):
    """An external field without a metadata line is not partitioned
    against a default duct; the same rows after a written line are."""
    field = generate_quasi1d_field(axial_stations=11, radial_rings=2)
    bare = tmp_path / "bare.csv"
    save_field(replace(field, geometry=None, gas=None), bare)
    assert bare.read_text().startswith("x,y,z,vx,vy,vz,p\n")
    assert main(["partition", "--field", str(bare),
                 "--output", str(tmp_path / "grid.csv")]) == 1
    assert "names no duct" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()
    meta = {**asdict(NozzleGeometry()), **asdict(GasModel()),
            "cells": len(field)}
    lined = tmp_path / "lined.csv"
    lined.write_text("# " + " ".join(f"{k}={v!r}" for k, v in meta.items())
                     + "\n" + bare.read_text())
    assert main(["partition", "--field", str(lined),
                 "--output", str(tmp_path / "grid.csv")]) == 0
    capsys.readouterr()
    assert load_partition(tmp_path / "grid.csv").geometry == NozzleGeometry()


def test_another_stage_s_file_is_a_one_line_error(tmp_path, monkeypatch,
                                                  capsys):
    """Each subcommand fed every other pipeline file (field, grid, fit and
    run) in place of its input, and ``analyze`` a run directory without
    ``trace.npz``, a damaged one, one whose ``trace.npz`` is a CSV file, one
    whose config is a number, one whose ``dt`` is a string, two whose
    lattice edge is a list and a string and one with a frame cell off its
    lattice: one stderr line naming the file, exit status 1 and no output
    written. So is a fit whose ``rng_seed`` is
    1.5 (it read as seed 1 before), a run whose config holds seed 1.5 or
    whose plant mass is ``true``, and a field whose ``gamma`` is ``true``
    or NaN; each line names the key."""
    monkeypatch.chdir(tmp_path)
    for argv in (["generate-field", "--output", "field.csv", "--stations",
                  "41", "--rings", "3"],
                 ["partition", "--field", "field.csv", "--output", "grid.csv"],
                 ["fit", "--partition", "grid.csv", "--output", "fit.csv"],
                 ["simulate", "--fit", "fit.csv", "--out", "run",
                  "--duration", "1"]):
        assert main(argv) == 0
    (tmp_path / "empty").mkdir()
    (tmp_path / "damaged").mkdir()
    (tmp_path / "damaged" / "trace.npz").write_bytes(b"PK\x03\x04 cut short")
    (tmp_path / "csv").mkdir()
    (tmp_path / "csv" / "trace.npz").write_bytes(
        (tmp_path / "field.csv").read_bytes())
    with np.load(tmp_path / "run" / "trace.npz") as npz:
        cols = dict(npz)
    meta = json.loads(cols["meta"].item())
    for name, key, value in (
            ("numeric_config", "config", 5),
            ("string_dt", "config", {**meta["config"], "dt": "0.05"}),
            ("float_seed_run", "config", {**meta["config"], "seed": 1.5}),
            ("bool_mass", "plant", {**meta["plant"], "mass": True}),
            ("list_edge", "lattice", {**meta["lattice"], "edge_length": [0.5]}),
            ("string_edge", "lattice", {**meta["lattice"], "edge_length": "0.5"})):
        cols["meta"] = np.array(json.dumps({**meta, key: value}))
        (tmp_path / name).mkdir()
        np.savez(tmp_path / name / "trace.npz", **cols)
    cols["meta"] = np.array(json.dumps(meta))
    cols["cells"][0] = 1080 + 100
    (tmp_path / "off_lattice").mkdir()
    np.savez(tmp_path / "off_lattice" / "trace.npz", **cols)
    fit_text = (tmp_path / "fit.csv").read_text()
    assert " rng_seed=0 " in fit_text.partition("\n")[0]
    (tmp_path / "float_seed.csv").write_text(
        fit_text.replace(" rng_seed=0 ", " rng_seed=1.5 ", 1))
    field_text = (tmp_path / "field.csv").read_text()
    assert " gamma=1.4 " in field_text.partition("\n")[0]
    for name, gamma in (("gamma_true.csv", "true"), ("gamma_nan.csv", "nan")):
        (tmp_path / name).write_text(
            field_text.replace(" gamma=1.4 ", f" gamma={gamma} ", 1))
    files = {"field": "field.csv", "grid": "grid.csv", "fit": "fit.csv",
             "run": "run/trace.npz"}
    reads = [(["partition", "--output", "o.csv", "--field"], "field"),
             (["fit", "--output", "o.csv", "--partition"], "grid"),
             (["simulate", "--out", "o", "--fit"], "fit"),
             (["analyze", "--run", "run", "--out", "o", "--targets"], "grid")]
    cases = [(argv + [path], path) for argv, own in reads
             for kind, path in files.items() if kind != own]
    cases += [(["analyze", "--targets", "grid.csv", "--out", "o", "--run",
                path], path)
              for path in ("field.csv", "empty", "damaged", "csv",
                           "numeric_config", "string_dt", "float_seed_run",
                           "bool_mass", "list_edge", "string_edge",
                           "off_lattice")]
    cases.append((["simulate", "--out", "o", "--fit", "float_seed.csv"],
                  "float_seed.csv"))
    cases += [(["partition", "--output", "o.csv", "--field", path], path)
              for path in ("gamma_true.csv", "gamma_nan.csv")]
    domain_errors = {
        "string_dt": "trace.npz: config: dt must be finite and positive; "
                     "got '0.05'",
        "float_seed_run": "trace.npz: config: seed must be a nonnegative "
                          "integer; got 1.5",
        "bool_mass": "trace.npz: plant: mass must be finite and positive; "
                     "got True",
        "list_edge": "trace.npz: lattice metadata: edge_length must be "
                     "finite and positive; got (0.5,)",
        "string_edge": "trace.npz: lattice metadata: edge_length must be "
                       "finite and positive; got '0.5'",
        "off_lattice": "trace.npz: cells holds 1180, off the lattice of 1080 "
                       "cells",
        "float_seed.csv": "float_seed.csv: fit metadata: rng_seed must be a "
                          "nonnegative integer; got 1.5",
        "gamma_true.csv": "gamma_true.csv:1: bad metadata entry 'gamma=true'",
        "gamma_nan.csv": "gamma_nan.csv: GasModel metadata: gamma must be "
                         "finite and above 1; got nan"}
    capsys.readouterr()
    for argv, path in cases:
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith(f"fluidswarm {argv[0]}: ") and path in err, err
        assert not (tmp_path / "o.csv").exists() \
            and not (tmp_path / "o").exists(), argv
        if path == "csv":
            assert "trace.npz is not a run archive" in err, err
            assert "pickle" not in err, err
        if path == "numeric_config":
            assert "config is not a JSON object" in err, err
        if path in domain_errors:
            assert err.endswith(f" {domain_errors[path]}\n"), err
    assert len(cases) == 26


def test_analyze_rejects_targets_of_another_lattice_or_duct(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """A run is scored only against targets on the lattice and duct it flew:
    targets of another edge or throat are one stderr line naming the first
    key that differs, exit status 1 and no output written."""
    monkeypatch.chdir(tmp_path)
    for argv in (["generate-field", "--output", "field.csv"],
                 ["generate-field", "--output", "narrow.csv",
                  "--throat-radius", "0.6"],
                 ["partition", "--field", "field.csv", "--output", "grid.csv"],
                 ["partition", "--field", "field.csv", "--output", "fine.csv",
                  "--edge", "0.25"],
                 ["partition", "--field", "narrow.csv", "--output",
                  "narrow_grid.csv"],
                 ["fit", "--partition", "grid.csv", "--output", "fit.csv"],
                 ["simulate", "--fit", "fit.csv", "--out", "run",
                  "--duration", "5"]):
        assert main(argv) == 0
    capsys.readouterr()
    for targets, key, ours, theirs in (
            ("fine.csv", "edge_length", 0.25, 0.5),
            ("narrow_grid.csv", "throat_radius", 0.6, 0.75)):
        assert main(["analyze", "--run", "run", "--targets", targets,
                     "--out", "o"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"fluidswarm analyze: {targets}: {key}={ours!r} differs from "
            f"the run's {key}={theirs!r}\n")
        assert not (tmp_path / "o").exists()
    assert main(["analyze", "--run", "run", "--targets", "grid.csv",
                 "--out", "o"]) == 0


def test_a_partition_flag_for_the_duct_is_a_usage_error(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--field", "f.csv", "--output", "g.csv",
              "--throat-radius", "0.6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --throat-radius" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ["0", "-1", "nan", "inf"])
def test_a_bad_partition_edge_is_a_usage_error(edge, tmp_path, monkeypatch,
                                               capsys):
    # rejected before the field is read: f.csv does not exist
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--field", "f.csv", "--output", "g.csv",
              "--edge", edge])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: partition: --edge must be finite and "
                        f"positive; got {float(edge)!r}\n"), err
    assert not any(tmp_path.iterdir())


def test_analyze_a_transient_that_leaves_no_frame(tmp_path, monkeypatch,
                                                  capsys):
    """A NaN ``--transient`` is a usage error; one at or past the run's
    end is one stderr line naming the run's duration, exit status 1 and
    nothing written."""
    monkeypatch.chdir(tmp_path)
    for argv in (["generate-field", "--output", "field.csv", "--stations",
                  "41", "--rings", "3"],
                 ["partition", "--field", "field.csv", "--output", "grid.csv"],
                 ["fit", "--partition", "grid.csv", "--output", "fit.csv"],
                 ["simulate", "--fit", "fit.csv", "--out", "run",
                  "--duration", "1"]):
        assert main(argv) == 0
    capsys.readouterr()
    analyze = ["analyze", "--run", "run", "--targets", "grid.csv", "--out", "o"]
    with pytest.raises(SystemExit) as exc:
        main(analyze + ["--transient", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: analyze: --transient must not be NaN; got nan\n")
    for transient in ("1", "1000", "inf"):
        assert main(analyze + ["--transient", transient]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"fluidswarm analyze: run: --transient {float(transient):g} "
            "leaves no frame of the run's 1 s\n")
        assert not (tmp_path / "o").exists()
    assert main(analyze + ["--transient", "0.9"]) == 0


# the explicit ids keep these cases' names
@pytest.mark.parametrize("flags, message", [
    (["--inlet-sound-speed", "12"], "station x=3.6 m .* chokes"),
    (["--throat-radius", "2"], "throat_radius must not exceed the end radii"),
    pytest.param(["--inlet-radius", "-1"],
                 r"--inlet-radius must be finite and positive; got -1\.0$",
                 id="flags2-radii must be positive"),
    (["--throat-x", "15"], "throat_x must lie strictly inside"),
    pytest.param(["--inlet-speed", "0"],
                 r"--inlet-speed must be finite and positive; got 0\.0$",
                 id="flags4-inlet_speed must be positive"),
    (["--gamma", "1"], "gamma must be finite and above 1"),
    (["--gamma", "0.5"], "gamma must be finite and above 1"),
    (["--gamma", "nan"], "gamma must be finite and above 1"),
    pytest.param(["--inlet-density", "-1"],
                 r"--inlet-density must be finite and positive; got -1\.0$",
                 id="flags8-inlet_density must be finite and positive"),
    pytest.param(["--inlet-sound-speed", "inf"],
                 "--inlet-sound-speed must be finite and positive; got inf$",
                 id="flags9-inlet_sound_speed must be finite and positive"),
    pytest.param(["--throat-radius", "nan"],
                 "--throat-radius must be finite and positive; got nan$",
                 id="flags10-throat_radius is nan"),
    pytest.param(["--inlet-radius", "nan"],
                 "--inlet-radius must be finite and positive; got nan$",
                 id="flags11-inlet_radius is nan"),
    pytest.param(["--outlet-radius", "inf"],
                 "--outlet-radius must be finite and positive; got inf$",
                 id="flags12-outlet_radius is inf"),
    (["--length", "inf"], "length must be finite and positive"),
    pytest.param(["--inlet-speed", "nan"],
                 "--inlet-speed must be finite and positive; got nan$",
                 id="flags14-inlet_speed must be positive and finite"),
])
def test_a_choked_or_invalid_duct_is_a_usage_error(flags, message, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["generate-field", "--output", "f.csv", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error: generate-field: " in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert re.search(message, err), err
    assert not any(tmp_path.iterdir())


def test_cli_defaults_are_the_library_defaults():
    """A flag that sets a library parameter defaults to the library's value."""
    def parsed(*argv):
        return vars(build_parser().parse_args(list(argv)))

    def keyword(func, name):
        return inspect.signature(func).parameters[name].default

    args = parsed("generate-field", "--output", "f.csv")
    assert (args["inlet_speed"], args["stations"], args["rings"]) == \
        tuple(keyword(generate_quasi1d_field, k) for k in
              ("inlet_speed", "axial_stations", "radial_rings"))
    args = parsed("partition", "--field", "f.csv", "--output", "g.csv")
    assert args["edge"] == keyword(partition_domain, "edge_length")
    args = parsed("fit", "--partition", "g.csv", "--output", "fit.csv")
    assert args["agent_mass"] == FitConfig().agent_mass == PlantParams().mass
    assert args["seed"] == FitConfig().rng_seed
    args = parsed("simulate", "--fit", "fit.csv", "--out", "run")
    config = SimConfig()
    for name in ("case", "duration", "dt", "scale", "seed", "collisions",
                 "dt_source", "batch_size", "seed_x_max"):
        assert args[name] == getattr(config, name), name
    assert args["trajectories"] == config.record_trajectories
    assert args["thrust_to_weight"] == PlantParams().thrust_to_weight


def test_two_fit_runs_write_identical_files(tmp_path, capsys):
    field = tmp_path / "field.csv"
    gridf = tmp_path / "grid.csv"
    main(["generate-field", "--output", str(field), "--stations", "41",
          "--rings", "3"])
    main(["partition", "--field", str(field), "--output", str(gridf)])
    capsys.readouterr()
    outs = []
    for name in ("fit1.csv", "fit2.csv"):
        path = tmp_path / name
        assert main(["fit", "--partition", str(gridf), "--output", str(path),
                     "--seed", "7"]) == 0
        outs.append(path.read_bytes())
    assert main(["fit", "--partition", str(gridf), "--output",
                 str(tmp_path / "fit8.csv"), "--seed", "8"]) == 0
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert (tmp_path / "fit8.csv").read_bytes() != outs[0]


@pytest.mark.parametrize("argv", [
    ["generate-field", "--output", "f.csv", "--seed", "1"],
    ["partition", "--field", "f.csv", "--output", "g.csv", "--seed", "1"],
    ["analyze", "--run", "run", "--targets", "g.csv", "--seed", "1"],
    ["version", "--seed", "1"],
    ["fit", "--partition", "g.csv", "--output", "fit.csv", "--threads", "2"],
    ["fit", "--partition", "g.csv", "--output", "fit.csv", "--n-max", "4"],
    ["simulate", "--fit", "fit.csv", "--out", "run", "--threads", "2"],
])
def test_flags_a_subcommand_never_reads_are_rejected(argv, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--duration", "0.02"], ["--dt", "0"],
                                   ["--scale", "-1"], ["--dt-source", "0.01"],
                                   ["--batch-size", "0"],
                                   ["--batch-size", "-3"],
                                   ["--seed", "-1"],
                                   ["--scale", "nan"], ["--scale", "inf"],
                                   ["--dt-source", "nan"],
                                   ["--dt-source", "inf"],
                                   ["--duration", "inf"],
                                   ["--case", "tunnel_seeding",
                                    "--seed-x-max", "nan"]])
def test_simulate_config_errors_are_usage_errors(flags, tmp_path, monkeypatch,
                                                 capsys):
    # rejected before the fit is read: this one does not exist
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--fit", "fit.csv", "--out", "run", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error: simulate: " in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mass", ["0", "-1", "nan", "inf"])
def test_a_bad_fit_agent_mass_is_a_usage_error(mass, tmp_path, monkeypatch,
                                               capsys):
    # rejected before the partition is read: g.csv does not exist
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--partition", "g.csv", "--output", "fit.csv",
              "--agent-mass", mass])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: fit: --agent-mass must be finite and "
                        f"positive; got {float(mass)!r}\n"), err
    assert not any(tmp_path.iterdir())


def test_fit_agent_mass_reaches_the_simulated_plant(tmp_path, capsys):
    field = tmp_path / "field.csv"
    gridf = tmp_path / "grid.csv"
    fitf = tmp_path / "fit.csv"
    main(["generate-field", "--output", str(field), "--stations", "41",
          "--rings", "3"])
    main(["partition", "--field", str(field), "--output", str(gridf)])
    assert main(["fit", "--partition", str(gridf), "--output", str(fitf),
                 "--agent-mass", "2"]) == 0
    assert main(["simulate", "--fit", str(fitf), "--out",
                 str(tmp_path / "run"), "--duration", "1.0"]) == 0
    capsys.readouterr()
    assert load_run(tmp_path / "run")[0].plant.mass == 2.0


@pytest.mark.parametrize("choice, key", [
    ("hover", "hover_hold"), ("step", "step_response"),
    ("max-speed", "max_speed_sweep"), ("headwind", "headwind_sweep"),
    ("noise", "noise_monte_carlo")])
def test_plant_test_scenario(choice, key, tmp_path, capsys):
    table = tmp_path / "plant.csv"
    assert main(["plant-test", "--scenario", choice,
                 "--out", str(table)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"[PASS] {key}: ")
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "scenario,metric,value,scenario_pass"
    assert all(line.startswith(f"{key},") for line in lines[1:])
    assert len(lines) > 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small field, grid, fit and 1 s run, each written by the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    for argv in (["generate-field", "--output", "IN/field.csv", "--stations",
                  "41", "--rings", "3"],
                 ["partition", "--field", "IN/field.csv", "--output",
                  "IN/grid.csv"],
                 ["fit", "--partition", "IN/grid.csv", "--output",
                  "IN/fit.csv"],
                 ["simulate", "--fit", "IN/fit.csv", "--out", "IN/run",
                  "--duration", "1"]):
        assert main([a.replace("IN/", f"{root}/") for a in argv]) == 0
    return root


@pytest.mark.parametrize("argv", [
    ["generate-field", "--stations", "41", "--rings", "3", "--output",
     "missing/field.csv"],
    ["partition", "--field", "IN/field.csv", "--output", "missing/grid.csv"],
    ["fit", "--partition", "IN/grid.csv", "--output", "missing/fit.csv"],
    ["simulate", "--fit", "IN/fit.csv", "--out", "file"],
    ["analyze", "--run", "IN/run", "--targets", "IN/grid.csv", "--out",
     "file"],
    ["plant-test", "--scenario", "hover", "--out", "missing/p.csv"]],
    ids=lambda argv: argv[0])
def test_an_output_path_that_cannot_be_written_is_a_one_line_error(
        argv, pipeline, tmp_path, monkeypatch, capsys):
    """A missing directory, or a file where a directory must go, ends the
    command with one stderr line naming the path and exit status 1, and
    writes nothing. ``simulate``, ``analyze`` and ``plant-test`` find it
    before their work: they read no fit or run, run no suite and print no
    report or verdict."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    argv = [a.replace("IN/", f"{pipeline}/") for a in argv]

    def unread(*args, **kwargs):
        raise AssertionError(f"did the work: {args}")

    for name in ("load_fit", "load_run", "run_suite"):
        monkeypatch.setattr(f"fluidswarm.cli.{name}", unread)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"fluidswarm {argv[0]}: ")
    assert argv[-1] in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""
