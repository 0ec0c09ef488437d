"""The demos run to completion as scripts, from a scratch working directory.

Demo 04 writes its run under ``runs/reservoir_demo/`` in the working
directory; its four output files must be there.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_04_FILES = ("trace/trace.npz", "metrics.txt", "slice.csv",
                 "centerline.csv")


@pytest.mark.parametrize("name", ["01_duct_flow_tour.py",
                                  "02_lattice_and_fit.py",
                                  "03_plant_envelopes.py",
                                  "04_reservoir_study.py"])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("04"):
        for f in DEMO_04_FILES:
            path = tmp_path / "runs" / "reservoir_demo" / f
            assert path.stat().st_size > 0, f
