"""End-to-end checks of the command line front end.

The pipeline test runs a deliberately small field (41 stations, 3 rings) and
a short flight so the whole chain stays under a few seconds.
"""

import argparse
import inspect
import os
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from fluidswarm import (FitConfig, GasModel, NozzleGeometry, PlantParams,
                        SimConfig, fit_grid, generate_quasi1d_field, load_fit,
                        load_run, partition_domain, run_simulation,
                        save_partition)
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
    """generate-field and partition take one flag per NozzleGeometry and
    GasModel field, named after it, and default to the dataclass."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {"length": "--length", "inlet_radius": "--inlet-radius",
             "outlet_radius": "--outlet-radius",
             "throat_radius": "--throat-radius", "throat_x": "--throat-x",
             "gamma": "--gamma", "inlet_density": "--inlet-density",
             "inlet_sound_speed": "--inlet-sound-speed"}
    assert set(flags) == {f.name for cls in (NozzleGeometry, GasModel)
                          for f in fields(cls)}
    for argv in (["generate-field", "--output", "f.csv"],
                 ["partition", "--field", "f.csv", "--output", "g.csv"]):
        actions = sub.choices[argv[0]]._actions
        for name, flag in flags.items():
            assert [a.option_strings for a in actions if a.dest == name] \
                == [[flag]], name
        args = vars(build_parser().parse_args(argv))
        assert {k: args[k] for k in asdict(NozzleGeometry())} \
            == asdict(NozzleGeometry())
        assert {k: args[k] for k in asdict(GasModel())} == asdict(GasModel())


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
                                   ["--batch-size", "-3"]])
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
