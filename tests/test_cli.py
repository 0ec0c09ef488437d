"""End-to-end checks of the command line front end.

The pipeline test runs a deliberately small field (41 stations, 3 rings) and
a short flight so the whole chain stays under a few seconds.
"""

import numpy as np
import pytest

from fluidswarm import load_run
from fluidswarm.cli import main


def test_version_prints_the_package_and_numpy(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fluidswarm ")
    assert np.__version__ in out


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
    assert "converged" in out

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
    # collisions without collisions on
    assert "\npeak_injected_frame=0\n" in out
    assert "\npeak_collisions=0\npeak_collisions_frame=none\n" in out
    for name in ("metrics.txt", "slice.csv", "centerline.csv"):
        assert (rundir / name).exists(), name

    # a separate output directory is honored too
    outdir = tmp_path / "scores"
    assert main(["analyze", "--run", str(rundir), "--targets", str(gridf),
                 "--transient", "1.0", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert (outdir / "metrics.txt").exists()


def test_fit_output_does_not_depend_on_threads(tmp_path, capsys):
    field = tmp_path / "field.csv"
    gridf = tmp_path / "grid.csv"
    main(["generate-field", "--output", str(field), "--stations", "41",
          "--rings", "3"])
    main(["partition", "--field", str(field), "--output", str(gridf)])
    capsys.readouterr()
    outs = []
    for threads, name in ((1, "fit1.csv"), (2, "fit2.csv")):
        path = tmp_path / name
        assert main(["fit", "--partition", str(gridf), "--output", str(path),
                     "--seed", "7", "--threads", str(threads)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


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
