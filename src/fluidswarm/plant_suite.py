"""Scenario battery for the velocity plant, with reference bands.

Five standard scenarios characterize a platform configuration:

* hover hold: zero command from hover must not drift,
* step response: 1 m/s axial and diagonal steps from hover; settling time
  into the 2% band and overshoot,
* thrust-to-weight sweep: an out-and-back profile (step to +8 m/s for 10 s,
  reversal to -8 m/s for 6 s) measuring steady top speed and peak tilt,
* headwind rejection: hover in steady wind with drag feedforward engaged,
* command-noise Monte Carlo: hover under noisy commands, tracking RMSE by
  noise level.

Each scenario returns plain dict results; ``run_suite`` bundles them with
pass/fail verdicts against the expected bands below.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .primitives import SEED, check
from .velocity_plant import PlantParams, PlantState, step, tilt_angle_deg

# expected behavior for the default 1 kg platform
HOVER_DRIFT_MAX = 1e-3                             # m/s
SETTLING_TIME_BAND = (1.67 - 0.35, 1.67 + 0.35)    # s
OVERSHOOT_MAX_PCT = 0.5
MAX_SPEED_BAND = (7.48 - 0.5, 7.48 + 0.5)          # m/s
PEAK_TILT_BAND = (54.3 - 1.0, 54.3 + 1.0)          # deg
HEADWIND_ERROR_BAND = (0.0, 0.12)                  # m/s
TW_SWEEP = (1.5, 2.2, 3.0, 4.5, 6.0)
HEADWIND_SPEEDS = (0.0, 2.0, 4.0, 6.0, 8.0)        # m/s
NOISE_LEVELS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)      # m/s RMS per axis


def rollout(params: PlantParams, command, duration: float, dt: float,
            n: int = 1, wind=(0.0, 0.0, 0.0)):
    """Roll ``n`` agents forward from hover; returns end-of-step times,
    velocities (steps, n, 3) and tilts (steps, n).

    ``command(k, t)`` is step ``k``'s command from time ``t``: a (3,) vector
    for all agents or an (n, 3) array. ``wind`` broadcasts the same way.
    The thrust history is kept as component rows, (3, steps, n), and the
    tilts, elementwise, are computed on it once at the end.
    """
    state = PlantState.hover(params, n)
    steps = int(round(duration / dt))
    ts = np.empty(steps)
    vs = np.empty((steps, n, 3))
    thrust = np.empty((3, steps, n))
    t = 0.0
    for k in range(steps):
        state = step(state, command(k, t), dt, params, wind=wind)
        t += dt
        ts[k] = t
        vs[k] = state.velocity
        thrust[:, k] = state.thrust_accel.T
    tilts = tilt_angle_deg(thrust.reshape(3, -1).T).reshape(steps, n)
    return ts, vs, tilts


def hover_hold(params: PlantParams | None = None, duration: float = 5.0,
               dt: float = 0.01) -> dict:
    """Residual drift speed for a zero command from hover."""
    params = params or PlantParams()
    _, vs, _ = rollout(params, lambda k, t: np.zeros(3), duration, dt)
    return {"drift_error": float(np.linalg.norm(vs[-1, 0]))}


def _settle_and_overshoot(ts, vs, cmd):
    """2%-of-final settling time and overshoot along the commanded direction."""
    final = vs[-1]
    err = np.linalg.norm(vs - final, axis=1)
    band = 0.02 * np.linalg.norm(final)
    outside = np.flatnonzero(err > band)
    settle = float(ts[outside[-1] + 1]) if len(outside) and outside[-1] + 1 < len(ts) \
        else float(ts[0])
    along = vs @ (cmd / np.linalg.norm(cmd))
    mag = np.linalg.norm(final)
    overshoot = max(0.0, (along.max() - mag) / mag * 100.0)
    return settle, float(overshoot), float(mag)


def step_response(params: PlantParams | None = None, v_step: float = 1.0,
                  duration: float = 6.0, dt: float = 0.01) -> dict:
    """Settling time (2% of final) and overshoot for axial and diagonal steps."""
    params = params or PlantParams()
    cmds = np.array([[v_step, 0.0, 0.0], v_step / np.sqrt(3.0) * np.ones(3)])
    ts, vs, _ = rollout(params, lambda k, t: cmds, duration, dt, n=2)
    settle, overshoot, final = _settle_and_overshoot(ts, vs[:, 0], cmds[0])
    settle_d, overshoot_d, _ = _settle_and_overshoot(ts, vs[:, 1], cmds[1])
    return {"settling_time_s": settle, "overshoot_pct": overshoot,
            "final_speed": final, "settling_time_diag_s": settle_d,
            "overshoot_diag_pct": overshoot_d}


def max_speed_sweep(params: PlantParams | None = None,
                    tw_values=TW_SWEEP, v_cmd: float = 8.0,
                    dt: float = 0.005) -> dict:
    """Steady top speed and peak tilt across thrust-to-weight settings.

    The profile runs the step command forward for 10 s (steady speed taken
    as the mean over t in (8, 10]) and reverses it for another 6 s, which
    exercises the tilt cone hard enough to expose the realized peak tilt.
    Every setting is one agent of a single rollout.
    """
    params = replace(params or PlantParams(), thrust_to_weight=tuple(tw_values))
    fwd = np.array([v_cmd, 0.0, 0.0])
    ts, vs, tilts = rollout(params, lambda k, t: fwd if t < 10.0 else -fwd,
                            16.0, dt, n=len(tw_values))
    speed = np.linalg.norm(vs, axis=2)
    window = (ts > 8.0) & (ts <= 10.0)
    rows = [{"thrust_to_weight": tw,
             "steady_speed": float(speed[window, i].mean()),
             "peak_tilt_deg": float(tilts[:, i].max())}
            for i, tw in enumerate(tw_values)]
    return {"rows": rows,
            "steady_speed_mean": float(np.mean([r["steady_speed"] for r in rows])),
            "peak_tilt_max": float(max(r["peak_tilt_deg"] for r in rows))}


def headwind_sweep(params: PlantParams | None = None,
                   wind_speeds=HEADWIND_SPEEDS, ff_gain: float = 0.8,
                   duration: float = 25.0, dt: float = 0.01) -> dict:
    """Steady hover error versus headwind speed, drag feedforward on."""
    params = replace(params or PlantParams(), ff_gain=ff_gain)
    wind = [(-w, 0.0, 0.0) for w in wind_speeds]
    _, vs, _ = rollout(params, lambda k, t: np.zeros(3), duration, dt,
                       n=len(wind), wind=wind)
    errs = np.linalg.norm(vs[-1], axis=1)
    rows = [{"wind_speed": w, "steady_error": float(e)}
            for w, e in zip(wind_speeds, errs)]
    return {"rows": rows,
            "max_error": float(max(r["steady_error"] for r in rows))}


def noise_monte_carlo(params: PlantParams | None = None,
                      noise_levels=NOISE_LEVELS, runs: int = 5,
                      duration: float = 20.0, dt: float = 0.01,
                      hold: float = 0.1, seed: int = 0) -> dict:
    """Tracking RMSE under zero-mean Gaussian command noise.

    Noise is redrawn every ``hold`` seconds (per axis, per run) around a
    hover command; lateral RMSE pools x/y, vertical is z alone. The levels
    share common random numbers: run ``run`` draws one (seed, run) stream of
    unit normals, one 3-vector per hold, and every level flies it scaled by
    the level, so the RMSEs differ by the level alone, not by the draw.
    """
    params = params or PlantParams()
    steps = int(round(duration / dt))
    per_hold = max(1, int(round(hold / dt)))
    holds = -(-steps // per_hold)
    unit = np.stack([np.random.default_rng((seed, run)).standard_normal(
        (holds, 3)) for run in range(runs)], axis=1)
    # agent lvl_idx * runs + run flies level lvl_idx on run's stream
    noise = np.concatenate([lvl * unit for lvl in noise_levels], axis=1)
    _, vs, _ = rollout(params, lambda k, t: noise[k // per_hold], duration, dt,
                       n=noise.shape[1])
    sq = vs.reshape(steps, len(noise_levels), runs, 3) ** 2
    lat = np.sqrt(np.mean(sq[..., 0] + sq[..., 1], axis=(0, 2)))
    vert = np.sqrt(np.mean(sq[..., 2], axis=(0, 2)))
    return {"rows": [{"noise_rms": lvl, "lateral_rmse": float(a),
                      "vertical_rmse": float(b)}
                     for lvl, a, b in zip(noise_levels, lat, vert)]}


ALL_SCENARIOS = ("hover", "step", "max_speed", "headwind", "noise")


def run_suite(params: PlantParams | None = None, seed: int = 0,
              scenarios=ALL_SCENARIOS) -> dict:
    """Run the selected scenarios and attach pass/fail verdicts. A seed
    that is not a nonnegative integer is rejected before any scenario
    runs."""
    check("seed", seed, SEED)
    params = params or PlantParams()
    out: dict = {}

    if "hover" in scenarios:
        hh = hover_hold(params)
        hh["pass"] = hh["drift_error"] < HOVER_DRIFT_MAX
        out["hover_hold"] = hh

    if "step" in scenarios:
        sr = step_response(params)
        sr["pass"] = (SETTLING_TIME_BAND[0] <= sr["settling_time_s"] <= SETTLING_TIME_BAND[1]
                      and SETTLING_TIME_BAND[0] <= sr["settling_time_diag_s"] <= SETTLING_TIME_BAND[1]
                      and sr["overshoot_pct"] < OVERSHOOT_MAX_PCT
                      and sr["overshoot_diag_pct"] < OVERSHOOT_MAX_PCT)
        out["step_response"] = sr

    if "max_speed" in scenarios:
        sw = max_speed_sweep(params)
        sw["pass"] = all(MAX_SPEED_BAND[0] <= r["steady_speed"] <= MAX_SPEED_BAND[1]
                         and PEAK_TILT_BAND[0] <= r["peak_tilt_deg"] <= PEAK_TILT_BAND[1]
                         for r in sw["rows"])
        out["max_speed_sweep"] = sw

    if "headwind" in scenarios:
        hw = headwind_sweep(params)
        hw["pass"] = all(HEADWIND_ERROR_BAND[0] <= r["steady_error"] <= HEADWIND_ERROR_BAND[1]
                         for r in hw["rows"])
        out["headwind_sweep"] = hw

    if "noise" in scenarios:
        nz = noise_monte_carlo(params, seed=seed)
        lat = [r["lateral_rmse"] for r in nz["rows"]]
        vert = [r["vertical_rmse"] for r in nz["rows"]]
        nz["lateral_rmse_max"] = float(max(lat))
        nz["vertical_rmse_max"] = float(max(vert))
        nz["pass"] = (all(a <= b + 1e-12 for a, b in zip(lat, lat[1:]))
                      and all(a <= b + 1e-12 for a, b in zip(vert, vert[1:])))
        out["noise_monte_carlo"] = nz

    out["pass"] = all(section["pass"] for section in out.values()
                      if isinstance(section, dict) and "pass" in section)
    return out
