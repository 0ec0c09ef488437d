"""End-to-end checks of the command line front end.

The pipeline test runs a deliberately small field (41 stations, 3 rings) and
a short flight so the whole chain stays under a few seconds.
"""

import argparse
import inspect
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
    # per-frame counter peaks: equal batches, the first in frame 0; no
    # collision of any kind without collisions on
    assert "\npeak_inject_frame=0\n" in out
    active = load_run(rundir).frame_active
    k = int(np.argmax(active))
    assert f"\npeak_active={active[k]}\npeak_active_frame={k}\n" in out
    assert active[k] > 0
    for kind in ("overtake", "headon", "sideswipe"):
        assert f"\npeak_collision_{kind}=0\npeak_collision_{kind}_frame=none\n" \
            in out, kind
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
    run the in-memory run's frames and events. ``dev2`` may differ: the CLI
    grid targets each set's mean, not the node mean it was fitted to."""
    save_partition(grid, tmp_path / "grid.csv")
    assert main(["fit", "--partition", str(tmp_path / "grid.csv"),
                 "--output", str(tmp_path / "fit.csv")]) == 0
    assert main(["simulate", "--fit", str(tmp_path / "fit.csv"), "--out",
                 str(tmp_path / "run"), "--duration", "5"]) == 0
    capsys.readouterr()
    fit = fit_grid(grid)
    cli_fit, _meta = load_fit(tmp_path / "fit.csv")
    assert cli_fit.results.keys() == fit.results.keys()
    for f, res in fit.results.items():
        assert np.array_equal(cli_fit.results[f].velocities, res.velocities)
    want = run_simulation(grid, fit, SimConfig(duration=5.0))
    got = load_run(tmp_path / "run")
    assert got.events == want.events
    assert len(got.frames) == len(want.frames) == 100
    for a, b in zip(got.frames, want.frames):
        for name in ("cells", "counts", "vsum", "sumv2"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
        want = partition_domain(load_field(field, geometry=geometry, gas=gas))
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
    ``trace.npz`` and a damaged one: one stderr line naming the file, exit
    status 1 and no output written."""
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
    files = {"field": "field.csv", "grid": "grid.csv", "fit": "fit.csv",
             "run": "run/trace.npz"}
    reads = [(["partition", "--output", "o.csv", "--field"], "field"),
             (["fit", "--output", "o.csv", "--partition"], "grid"),
             (["simulate", "--out", "o", "--fit"], "fit"),
             (["analyze", "--run", "run", "--out", "o", "--targets"], "grid")]
    cases = [(argv + [path], path) for argv, own in reads
             for kind, path in files.items() if kind != own]
    cases += [(["analyze", "--targets", "grid.csv", "--out", "o", "--run",
                path], path) for path in ("field.csv", "empty", "damaged")]
    capsys.readouterr()
    for argv, path in cases:
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith(f"fluidswarm {argv[0]}: ") and path in err, err
        assert not (tmp_path / "o.csv").exists() \
            and not (tmp_path / "o").exists(), argv
    assert len(cases) == 15


def test_a_partition_flag_for_the_duct_is_a_usage_error(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--field", "f.csv", "--output", "g.csv",
              "--throat-radius", "0.6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --throat-radius" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--inlet-sound-speed", "12"], "station x=3.6 m .* chokes"),
    (["--throat-radius", "2"], "throat_radius must not exceed the end radii"),
    (["--inlet-radius", "-1"], "radii must be positive"),
    (["--throat-x", "15"], "throat_x must lie strictly inside"),
    (["--inlet-speed", "0"], "inlet_speed must be positive"),
])
def test_a_choked_or_invalid_duct_is_a_usage_error(flags, message, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["generate-field", "--output", "f.csv", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error: generate-field: " in err
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
    capsys.readouterr()
    assert outs[0] == outs[1]


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
                                   ["--seed", "-1"]])
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
    assert load_run(tmp_path / "run").plant.mass == 2.0


def test_plant_test_hover_scenario(tmp_path, capsys):
    table = tmp_path / "plant.csv"
    assert main(["plant-test", "--scenario", "hover",
                 "--out", str(table)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] hover_hold" in out
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "scenario,metric,value,scenario_pass"
    assert all(line.startswith("hover_hold,") for line in lines[1:])
    assert len(lines) > 1
