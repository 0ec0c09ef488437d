"""Acceptance gate: one test per release criterion, one verdict line each.

Every test computes its quantities first, writes a single
``[PASS]/[FAIL] criterion N: ...`` line through the terminal reporter (so
the verdict is visible even under captured output), and only then asserts.
Shared expensive artifacts (the plant scenario suite, the 60 s reservoir
run) are module/session fixtures.
"""

import time

import numpy as np
import pytest

from fluidswarm.metrics import derive_fields, metrics_report, trend_check
from fluidswarm.plant_suite import run_suite
from fluidswarm.primitives import (internal_pressure, mass_mean_velocity,
                                   swarm_pressure, swarm_pressure_moment_form)
from fluidswarm.swarm_sim import SimConfig, run_simulation
from fluidswarm.velocity_fit import FitConfig, fit_cell, fit_grid

VOL = 0.125


@pytest.fixture(scope="module")
def say(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _say(num: int, ok: bool, text: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return _say


@pytest.fixture(scope="module")
def suite():
    return run_suite(seed=0)


@pytest.fixture(scope="module")
def report(trace60, grid):
    return metrics_report(trace60, grid)


def test_criterion_1_step_response(suite, say):
    sr = suite["step_response"]
    settle, over = sr["settling_time_s"], sr["overshoot_pct"]
    ok = abs(settle - 1.67) <= 0.35 and over < 0.5
    say(1, ok, f"1 m/s step settles in {settle:.3f} s (1.67 +/- 0.35 s), "
               f"overshoot {over:.3g}% (< 0.5%)")
    assert abs(settle - 1.67) <= 0.35
    assert over < 0.5


def test_criterion_2_max_speed_sweep(suite, say):
    rows = suite["max_speed_sweep"]["rows"]
    speeds = [r["steady_speed"] for r in rows]
    tilts = [r["peak_tilt_deg"] for r in rows]
    ok = (all(abs(s - 7.48) <= 0.5 for s in speeds)
          and all(abs(t - 54.3) <= 1.0 for t in tilts))
    say(2, ok, f"thrust-to-weight 1.5..6.0: steady speed "
               f"{min(speeds):.3f}..{max(speeds):.3f} m/s (7.48 +/- 0.5), "
               f"peak tilt {min(tilts):.2f}..{max(tilts):.2f} deg (54.3 +/- 1)")
    for s in speeds:
        assert abs(s - 7.48) <= 0.5
    for t in tilts:
        assert abs(t - 54.3) <= 1.0


def test_criterion_3_headwind_rejection(suite, say):
    rows = suite["headwind_sweep"]["rows"]
    errs = [r["steady_error"] for r in rows]
    ok = all(0.0 <= e <= 0.12 for e in errs)
    say(3, ok, f"headwinds 0..8 m/s with feedforward 0.8: steady errors "
               f"{min(errs):.4f}..{max(errs):.4f} m/s (within [0, 0.12])")
    for e in errs:
        assert 0.0 <= e <= 0.12


def _reevaluate(res, v_target, p_target):
    """Constraint check from the returned velocities alone."""
    w = res.velocities
    mean_err = float(np.linalg.norm(w.mean(axis=0) - v_target))
    c = w - w.mean(axis=0)
    p_set = 2.0 / (3.0 * VOL) * float((c * c).sum())
    return mean_err ** 2 + abs(p_set - p_target)


def test_criterion_4_fit_oracle_equivalence(say):
    rng = np.random.default_rng(2024)
    cells = []
    for _ in range(1000):
        p = float(10.0 * rng.random())
        d = rng.normal(size=3)
        v = 25.0 * rng.random() ** (1.0 / 3.0) * d / np.linalg.norm(d)
        cells.append((v, p))
    cfg = FitConfig()
    t0 = time.perf_counter()
    results = [fit_cell(v, p, VOL, cfg, np.random.default_rng((2024, i)),
                        cell=i) for i, (v, p) in enumerate(cells)]
    elapsed = time.perf_counter() - t0

    good = 0
    worst = 0.0
    for (v, p), res in zip(cells, results):
        loss = _reevaluate(res, v, p)
        worst = max(worst, loss)
        if loss < 1e-6:
            good += 1
    frac = good / len(cells)
    ok = frac >= 0.99 and elapsed < 10.0
    say(4, ok, f"{good}/1000 random cells pass independent re-evaluation "
               f"with loss < 1e-6 (worst replayed loss {worst:.2e}) "
               f"in {elapsed:.2f} s (< 10 s)")
    assert frac >= 0.99
    assert elapsed < 10.0


def test_criterion_5_pressure_identities(say):
    zero_exact = True
    r = np.random.default_rng(55)
    for _ in range(100):
        n = int(r.integers(1, 9))
        v0 = r.uniform(-5.0, 5.0, 3)
        masses = np.full(n, float(r.uniform(0.5, 2.0)))
        if internal_pressure(masses, np.tile(v0, (n, 1)), VOL, v0) != 0.0:
            zero_exact = False

    dual = 0.0
    par = 0.0
    for i in range(1000):
        r = np.random.default_rng((5, i))
        n = int(r.integers(2, 12))
        masses = r.uniform(0.5, 2.0, n)
        vels = r.normal(0.0, 4.0, (n, 3))
        a = swarm_pressure(masses, vels, VOL)
        b = swarm_pressure_moment_form(masses, vels, VOL)
        dual = max(dual, abs(a - b) / a)
        u = mass_mean_velocity(masses, vels)
        c = (internal_pressure(masses, vels, VOL, u)
             + 2.0 * masses.sum() * float(u @ u) / (3.0 * VOL))
        par = max(par, abs(c - a) / a)
    ok = zero_exact and dual <= 1e-12 and par <= 1e-12
    say(5, ok, f"zero-variance internal pressure exactly 0: {zero_exact}; "
               f"sum vs moment forms within {dual:.2e} (<= 1e-12); "
               f"parallel-axis split within {par:.2e} (<= 1e-12) on 1000 sets")
    assert zero_exact
    assert dual <= 1e-12
    assert par <= 1e-12


def test_criterion_6_partition_count(grid, say):
    count = int(grid.inside.sum())
    ok = 695 <= count <= 849
    say(6, ok, f"{count} cells overlap the duct at 0.5 m edge "
               f"(within 10% of 772: [695, 849])")
    assert 695 <= count <= 849


def test_criterion_7_flow_trends(report, say):
    v = report.values
    ok = bool(v.get("density_trend_ok")) and bool(v.get("speed_trend_ok"))
    if "density_inlet" in v:
        text = (f"60 s reservoir run: density inlet/throat/exit = "
                f"{v['density_inlet']:.1f}/{v['density_throat']:.1f}/"
                f"{v['density_exit']:.1f} agents/m3, speed = "
                f"{v['speed_inlet']:.2f}/{v['speed_throat']:.2f}/"
                f"{v['speed_exit']:.2f} m/s")
    else:
        text = f"trend check inconclusive: {v.get('trend_inconclusive')}"
    say(7, ok, text)
    assert "trend_inconclusive" not in v
    assert v["density_trend_ok"]
    assert v["speed_trend_ok"]


def test_criterion_8_rmse_bands(report, say):
    v = report.values
    ok = v["rmse_velocity"] <= 1.0 and v["rmse_pressure"] <= 1.0
    say(8, ok, f"normalized RMSE: velocity {v['rmse_velocity']:.3f} "
               f"(<= 1.0, reference range 0.15-0.9), pressure "
               f"{v['rmse_pressure']:.3f} (<= 1.0, reference 0-0.937), "
               f"density {v['rmse_density']:.3f} (reported; reference "
               f"0.61-0.98)")
    assert v["rmse_velocity"] <= 1.0
    assert v["rmse_pressure"] <= 1.0
    assert np.isfinite(v["rmse_density"])


def test_criterion_9_centerline_fidelity(report, say):
    v = report.values
    ok = (v["centerline_speed_rms"] <= 0.15
          and v["centerline_pressure_rms"] <= 0.15)
    say(9, ok, f"centerline RMS gaps: speed {v['centerline_speed_rms']:.4f}, "
               f"pressure {v['centerline_pressure_rms']:.4f} (both <= 0.15)")
    assert v["centerline_speed_rms"] <= 0.15
    assert v["centerline_pressure_rms"] <= 0.15


def _same_trace(a, b) -> bool:
    if not np.array_equal(a.frame_t, b.frame_t):
        return False
    if len(a.frames) != len(b.frames) or a.events != b.events:
        return False
    for fa, fb in zip(a.frames, b.frames):
        if not (np.array_equal(fa.cells, fb.cells)
                and np.array_equal(fa.counts, fb.counts)
                and np.array_equal(fa.vsum, fb.vsum)
                and np.array_equal(fa.sumv2, fb.sumv2)
                and np.array_equal(fa.dev2, fb.dev2, equal_nan=True)):
            return False
    return True


def test_criterion_10_conservation_and_determinism(grid, report, say):
    v = report.values
    ratio = v["exit_rate"] / v["inject_rate"]
    rate_ok = abs(ratio - 1.0) <= 0.10

    fits = [fit_grid(grid, FitConfig(rng_seed=0)) for _ in range(2)]
    fit_same = (
        fits[0].pressure_offset == fits[1].pressure_offset
        and fits[0].results.keys() == fits[1].results.keys()
        and all(np.array_equal(fits[0].results[k].velocities,
                               fits[1].results[k].velocities)
                for k in fits[0].results))
    traces = [run_simulation(grid, f, SimConfig(case="reservoir", dt=0.05,
                                                duration=10.0, scale=0.1,
                                                seed=0))
              for f in fits]
    trace_same = _same_trace(*traces)
    ok = rate_ok and fit_same and trace_same
    say(10, ok, f"exit rate {v['exit_rate']:.2f}/s vs injection "
                f"{v['inject_rate']:.2f}/s (ratio {ratio:.3f}, within 10%); "
                f"two seed-0 fits and their traces bitwise identical: "
                f"{fit_same and trace_same}")
    assert rate_ok
    assert fit_same
    assert trace_same


def test_criterion_11_collision_trend_preservation(grid, fit, say):
    cfg = SimConfig(case="reservoir", dt=0.05, duration=90.0, scale=0.1,
                    seed=0, collisions=True)
    t0 = time.perf_counter()
    trace = run_simulation(grid, fit, cfg)
    elapsed = time.perf_counter() - t0
    out = trend_check(derive_fields(trace, grid), grid)
    n_coll = sum(1 for e in trace.events if e[1].startswith("collision"))
    ok = out["density_trend_ok"] and out["speed_trend_ok"]
    say(11, ok, f"collisions on ({n_coll} events over 90 s, sim wall time "
                f"{elapsed:.0f} s): density and speed trends still hold")
    assert out["density_trend_ok"]
    assert out["speed_trend_ok"]
