"""The benchmark's workloads: one pipeline iteration, its checks and digest.

End-to-end values come only from documented entry points: CLI argv on the
``study`` route, the README quickstart calls on the library route, plus
``metrics_report`` and ``population_balance``. The one probe below wraps
``run_simulation`` (a quickstart call) to learn when set-up ended, how long
the simulation ran and what trace it returned.

``wall_s`` is wall-clock time. ``setup_s`` and the simulation seconds are
this process's CPU time (user + system), which leaves out the time the host
gives to other processes; with BLAS pinned to one thread the two agree when
nothing else runs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter, process_time

import numpy as np

import fluidswarm as fs
import fluidswarm.cli

# acceptance criteria 7-9 and 10 of tests/test_acceptance.py
RMSE_MAX = 1.0
CENTERLINE_RMS_MAX = 0.15
RATE_RATIO_TOL = 0.10


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    route: str                  # "cli" or "library"
    edge: float = 0.5           # lattice cell edge, m
    duration: float = 60.0      # simulated seconds
    scale: float = 0.1
    batch_size: int | None = None
    collisions: bool = False
    scenario: str = "all"       # plant-test scenario (cli route)


WORKLOADS = {
    "study": Workload("study", "cli"),
    "crowd": Workload("crowd", "library", edge=0.25, duration=120.0,
                      batch_size=51),
    "collide": Workload("collide", "library", batch_size=17, collisions=True),
}


def smoke(w: Workload) -> Workload:
    """The same workload with seconds of simulated time and one plant scenario.

    Scale 0.2 over 24 s still passes every output check.
    """
    return replace(w, duration=24.0, scale=0.2, scenario="hover")


# ======================================================================
# the run_simulation probe
# ======================================================================

class RepeatDone(Exception):
    """Raised when run_simulation returns in a repeat, which skips the rest
    of ``simulate`` (the run-directory write)."""


class SimProbe:
    """Wraps ``run_simulation`` on ``owner`` for the length of a ``with``.

    ``owner`` is the module the route calls through: ``fluidswarm.cli`` on
    the CLI route, ``fluidswarm`` on the library route. Records the CPU time
    at which the first call entered, the CPU seconds spent inside, and a
    summary of the returned trace (computed in a ``bench.summary`` span whose
    wall time is excluded from the wall time). The trace itself is not kept,
    so the CLI route frees it as a CLI user's process would. With
    ``repeat``, the summary is the agent-step count alone and RepeatDone is
    raised once the call returns.
    """

    def __init__(self, owner, tracer=None, repeat: bool = False):
        self.owner = owner
        self.tracer = tracer
        self.repeat = repeat
        self.entered: float | None = None
        self.sim_s = 0.0
        self.excluded_s = 0.0
        self.summary: dict | None = None
        self._orig = None

    def __enter__(self):
        self._orig = self.owner.run_simulation
        self.owner.run_simulation = self._wrap(self._orig)
        return self

    def __exit__(self, *exc):
        self.owner.run_simulation = self._orig

    def _wrap(self, orig):
        @functools.wraps(orig)
        def run_simulation(grid, fit, *args, **kwargs):
            c0 = process_time()
            if self.entered is None:
                self.entered = c0
            try:
                trace = orig(grid, fit, *args, **kwargs)
            finally:
                self.sim_s += process_time() - c0
            if self.repeat:
                self.summary = {"agent_steps": agent_steps(trace)}
                raise RepeatDone
            t1 = perf_counter()
            span = self.tracer.span("bench.summary") if self.tracer \
                else contextlib.nullcontext()
            with span:
                self.summary = summarize(trace, grid, fit)
            self.excluded_s += perf_counter() - t1
            return trace
        return run_simulation


def agent_steps(trace) -> int:
    """Sum over frames of active agents (flat or per-frame cell counts)."""
    counts = getattr(trace.frames, "counts", None)
    if counts is not None:
        return int(np.sum(counts))
    return sum(int(np.sum(rec.counts)) for rec in trace.frames)


def _frame_rows(trace) -> int:
    cells = getattr(trace.frames, "cells", None)
    if cells is not None:
        return len(cells)
    return sum(len(rec.cells) for rec in trace.frames)


def summarize(trace, grid, fit) -> dict:
    balance = fs.population_balance(trace)
    out = {"agent_steps": agent_steps(trace), "frames": len(trace.frame_t),
           "frame_rows": _frame_rows(trace), "balance": balance,
           "injected": balance["injected"], "active_end": balance["active"],
           "injection_rate": getattr(trace, "injection_rate", None),
           "entry_n_star": None}
    try:
        _rate, cell = fs.injection_rate(grid, fit)
        out["entry_n_star"] = fit.results[cell].n_star
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    h = hashlib.sha256()
    _feed(h, [trace.frame_t, trace.frames, trace.events])
    out["digest"] = h.hexdigest()
    return out


def _feed(h, obj) -> None:
    """Hash any nest of arrays, containers, records and scalars exactly."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            _feed(h, obj[k])
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


# ======================================================================
# output checks
# ======================================================================

def check_report(values: dict, balance: dict, study: bool) -> list[str]:
    """Failures of one run's outputs against the acceptance bands."""
    fails = []
    if not balance.get("balanced"):
        fails.append(f"population not balanced: {balance}")
    for key in ("density_trend_ok", "speed_trend_ok"):
        if values.get(key) is not True:
            fails.append(f"{key}={values.get(key)!r}")
    for key, limit in (("rmse_velocity", RMSE_MAX), ("rmse_pressure", RMSE_MAX),
                       ("centerline_speed_rms", CENTERLINE_RMS_MAX),
                       ("centerline_pressure_rms", CENTERLINE_RMS_MAX)):
        v = values.get(key)
        if not (isinstance(v, (int, float)) and v <= limit):
            fails.append(f"{key}={v!r} above {limit}")
    if study:
        exit_rate, inject_rate = values.get("exit_rate"), values.get("inject_rate")
        ok = isinstance(exit_rate, (int, float)) and \
            isinstance(inject_rate, (int, float)) and inject_rate > 0 and \
            abs(exit_rate / inject_rate - 1.0) <= RATE_RATIO_TOL
        if not ok:
            fails.append(f"exit/inject rate {exit_rate!r}/{inject_rate!r} "
                         f"outside {RATE_RATIO_TOL:.0%}")
    return fails


def parse_key_values(text: str) -> dict:
    """``analyze``'s machine-readable ``key=value`` lines."""
    values: dict = {}
    for line in text.splitlines():
        key, sep, raw = line.partition("=")
        if not sep or " " in key:
            continue
        if raw in ("True", "False"):
            values[key] = raw == "True"
            continue
        try:
            values[key] = float(raw)
        except ValueError:
            values[key] = raw
    return values


# ======================================================================
# one iteration
# ======================================================================

@dataclass
class Outcome:
    wall_s: float | None = None
    setup_s: float | None = None
    sim_s: float | None = None
    summary: dict | None = None
    frames_used: float | None = None
    run_dir_mb: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def agent_steps_per_s(self) -> float | None:
        if self.summary is None or not self.sim_s:
            return None
        return self.summary["agent_steps"] / self.sim_s


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _cli(argv: list[str]) -> tuple[int, str]:
    """``fluidswarm <argv>`` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fluidswarm.cli.main(argv)
    return code, buf.getvalue()


def _cli_setup(workdir: str) -> list[tuple]:
    """generate-field, partition and fit argv for one CLI study; the fit
    keeps the CLI default seed (see run_study)."""
    return [("generate_field", ["generate-field", "--output", f"{workdir}/field.csv"]),
            ("partition", ["partition", "--field", f"{workdir}/field.csv",
                           "--output", f"{workdir}/grid.csv"]),
            ("fit", ["fit", "--partition", f"{workdir}/grid.csv",
                     "--output", f"{workdir}/fit.csv"])]


def _simulate_argv(w: Workload, workdir: str, seed: int) -> list[str]:
    return ["simulate", "--fit", f"{workdir}/fit.csv", "--out", f"{workdir}/run",
            "--seed", str(seed), "--duration", repr(w.duration),
            "--scale", repr(w.scale)]


def run_study(w: Workload, workdir: str, seed: int, tracer=None) -> Outcome:
    """The CLI study. ``seed`` drives the simulation only: fit and plant-test
    keep the CLI default seed, so the fitted injection rate (and with it the
    population) is the one a CLI user gets, and the plant noise scenario is
    the one that passes at defaults."""
    out = Outcome()
    steps = _cli_setup(workdir) + [
        ("simulate", _simulate_argv(w, workdir, seed)),
        ("analyze", ["analyze", "--run", f"{workdir}/run",
                     "--targets", f"{workdir}/grid.csv"]),
        ("plant_test", ["plant-test", "--scenario", w.scenario]),
    ]
    stdout = {}
    with SimProbe(fluidswarm.cli, tracer) as probe:
        t0, c0 = perf_counter(), process_time()
        for name, argv in steps:
            with _span(tracer, "cli." + name):
                code, stdout[name] = _cli(argv)
            if code != 0:
                out.failures.append(f"{name} returned {code}")
        with _span(tracer, "bench.check"):
            values = parse_key_values(stdout["analyze"])
            balance = probe.summary["balance"] if probe.summary else {}
            out.failures += check_report(values, balance, study=True)
        t1 = perf_counter()
    _finish(out, probe, t0, c0, t1)
    out.frames_used = values.get("frames_used")
    out.run_dir_mb = _dir_bytes(f"{workdir}/run") / 1e6
    with open(f"{workdir}/run/metrics.txt", "rb") as fh:
        out.summary["digest"] = _rehash(out.summary["digest"], fh.read())
    return out


def run_library(w: Workload, seed: int, tracer=None) -> Outcome:
    """The README quickstart calls, with the workload's lattice and load."""
    out = Outcome()
    with SimProbe(fs, tracer) as probe:
        t0, c0 = perf_counter(), process_time()
        field = fs.generate_quasi1d_field()
        grid = fs.partition_domain(field, edge_length=w.edge)
        fit = fs.fit_grid(grid, fs.FitConfig(rng_seed=seed))
        trace = fs.run_simulation(grid, fit, fs.SimConfig(
            duration=w.duration, scale=w.scale, seed=seed,
            batch_size=w.batch_size, collisions=w.collisions))
        report = fs.metrics_report(trace, grid)
        with _span(tracer, "bench.check"):
            out.failures += check_report(report.values, probe.summary["balance"],
                                         study=False)
        t1 = perf_counter()
    _finish(out, probe, t0, c0, t1)
    out.frames_used = report.values.get("frames_used")
    out.summary["digest"] = _rehash(out.summary["digest"],
                                    repr(sorted(report.values.items())).encode())
    return out


def _finish(out: Outcome, probe: SimProbe, t0: float, c0: float,
            t1: float) -> None:
    """Wall time from ``t0`` to ``t1``; set-up CPU time from ``c0``."""
    if probe.entered is None or probe.summary is None:
        raise RuntimeError("run_simulation was never called")
    out.wall_s = t1 - t0 - probe.excluded_s
    out.setup_s = probe.entered - c0
    out.sim_s = probe.sim_s
    out.summary = probe.summary


def repeat(w: Workload, workdir: str, seed: int) -> tuple:
    """One repeat on ``seed``: CPU seconds from the first pipeline call to the
    entry of run_simulation, and the simulation's agent-steps per CPU second.

    Only the CLI route simulates in a repeat, and stops when run_simulation
    returns: its simulation is a tenth of an iteration, so an iteration gives
    a single short sample of it. On the library route the simulation is most
    of an iteration and the repeat stops at set-up; the rate is None. As in
    run_study, ``seed`` drives only the simulation on the CLI route.
    """
    if w.route == "library":
        c0 = process_time()
        field = fs.generate_quasi1d_field()
        grid = fs.partition_domain(field, edge_length=w.edge)
        fs.fit_grid(grid, fs.FitConfig(rng_seed=seed))
        return process_time() - c0, None
    with SimProbe(fluidswarm.cli, repeat=True) as probe:
        c0 = process_time()
        for name, argv in _cli_setup(workdir):
            code, _ = _cli(argv)
            if code != 0:
                raise RuntimeError(f"{name} returned {code}")
        try:
            _cli(_simulate_argv(w, workdir, seed))
        except RepeatDone:
            pass
    if probe.summary is None:
        raise RuntimeError("simulate never returned from run_simulation")
    return probe.entered - c0, probe.summary["agent_steps"] / probe.sim_s


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _rehash(digest: str, extra: bytes) -> str:
    return hashlib.sha256(digest.encode() + extra).hexdigest()


# ======================================================================
# a whole run
# ======================================================================

class Runner:
    """Runs operations (iterations or repeats) of one workload and counts
    the failed ones; each gets a fresh work directory."""

    def __init__(self, w: Workload, root: str):
        self.w = w
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._n = 0

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    def _workdir(self) -> str:
        self._n += 1
        path = os.path.join(self.root, f"op{self._n}")
        os.makedirs(path)
        return path

    def iteration(self, seed: int, tracer=None) -> Outcome | None:
        """One checked pipeline run; failures are counted, never raised."""
        self.attempted += 1
        workdir = self._workdir()
        try:
            if self.w.route == "cli":
                out = run_study(self.w, workdir, seed, tracer)
            else:
                out = run_library(self.w, seed, tracer)
        except Exception as exc:
            self._fail(f"iteration raised {type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if out.failures:
            self._fail("; ".join(out.failures))
        print(f"perfbench: {self.w.name} iteration {self._n}: wall "
              f"{out.wall_s:.3f} s, set-up {out.setup_s:.3f} s, simulate "
              f"{out.sim_s:.3f} s", file=sys.stderr)
        return out

    def repeat(self, seed: int) -> tuple | None:
        self.attempted += 1
        workdir = self._workdir()
        try:
            return repeat(self.w, workdir, seed)
        except Exception as exc:
            self._fail(f"repeat raised {type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def check_same(self, outcomes: list) -> None:
        """Iterations of one seed must agree bit for bit; a differing one
        counts as failed."""
        done = [o for o in outcomes if o is not None]
        for i, o in enumerate(done[1:], start=2):
            if o.summary["digest"] != done[0].summary["digest"] \
                    and not o.failures:
                o.failures.append("digest differs")
                self._fail(f"iteration {i}: digest differs from iteration 1")


def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None
