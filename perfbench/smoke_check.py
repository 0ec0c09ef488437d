"""Self-checks of the benchmark, in smoke mode (seconds of simulated time).

    python3 -m pytest perfbench/smoke_check.py -q

The file name keeps it out of the repository's default test run; pass it
explicitly. It takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def _break_balance(fs, monkeypatch):
    orig = fs.population_balance
    monkeypatch.setattr(fs, "population_balance",
                        lambda trace: {**orig(trace), "balanced": False})


def _break_report(fs, monkeypatch):
    def raising(*args, **kwargs):
        raise ValueError("broken on purpose")
    monkeypatch.setattr(fs, "metrics_report", raising)


def _in_process(monkeypatch, capsys, argv):
    """Run the benchmark in this process; returns its result line."""
    monkeypatch.syspath_prepend(HERE)
    import run

    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("breakage", [_break_balance, _break_report])
def test_a_failed_check_counts_as_a_failed_operation(breakage, monkeypatch,
                                                     capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import fluidswarm

    breakage(fluidswarm, monkeypatch)
    result = _in_process(monkeypatch, capsys, [
        "--workload", "collide", "--seed", "0", "--seconds", "0",
        "--trace", "0", "--smoke"])
    # the one pipeline iteration breaks; the repeats do not
    assert result["failed"] == 1
    assert result["attempted"] > result["failed"]
    assert result["correct"] is False


def test_a_missing_hook_reports_null_and_the_run_passes(monkeypatch, capsys):
    # as if a refactor moved detect_collisions out of swarm_sim; the study
    # never collides, so only the hook notices
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import fluidswarm.swarm_sim

    monkeypatch.delattr(fluidswarm.swarm_sim, "detect_collisions")
    result = _in_process(monkeypatch, capsys, [
        "--workload", "study", "--seed", "0", "--seconds", "0",
        "--trace", "1", "--smoke"])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["swarm_sim.collide_detect_s"]["value"] is None
    assert metrics["swarm_sim.collide_pairs"]["value"] is None
    assert metrics["trace.hooks_missing"]["value"] == 1
    assert metrics["swarm_sim.run_s"]["value"] > 0


def test_without_the_package_it_fails_without_a_result():
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "--workload", "study", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
