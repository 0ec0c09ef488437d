"""The demos run to completion as scripts.

Demo 04 writes its run under ``demos/runs/`` inside the source tree, so it
is left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_duct_flow_tour.py",
                                  "02_lattice_and_fit.py",
                                  "03_plant_envelopes.py"])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
