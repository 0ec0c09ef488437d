"""Scenario battery for the velocity plant, with reference bands.

Five standard scenarios characterize the default platform:

* hover hold: zero command from hover must not drift,
* step response: 1 m/s axial and diagonal steps from hover; settling time
  into the 2% band and overshoot,
* thrust-to-weight sweep: an out-and-back profile (step to +8 m/s for 10 s,
  reversal to -8 m/s for 6 s) measuring steady top speed and peak tilt,
* headwind rejection: hover in steady wind with drag feedforward engaged,
* command-noise Monte Carlo: hover under noisy commands, tracking RMSE by
  noise level.

Each scenario takes no settings: it flies ``PLATFORM`` at the settings
below and returns plain dict results with its pass verdict against the
bands, which hold for that platform at those settings. ``run_suite``
selects scenarios and bundles their results.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .primitives import SEED, check
from .velocity_plant import PlantParams, PlantState, step, tilt_angle_deg

# The default 1 kg platform, flown at the settings below, and the bands its
# results must fall in: each band holds for this platform at these settings.
PLATFORM = PlantParams()
DT = 0.01                                          # s, plant step
HOVER_DURATION = 5.0                               # s
HOVER_DRIFT_MAX = 1e-3                             # m/s
STEP_SPEED = 1.0                                   # m/s
STEP_DURATION = 6.0                                # s
SETTLING_TIME_BAND = (1.67 - 0.35, 1.67 + 0.35)    # s
OVERSHOOT_MAX_PCT = 0.5
TW_SWEEP = (1.5, 2.2, 3.0, 4.5, 6.0)
SWEEP_SPEED = 8.0                                  # m/s, out and back
SWEEP_DT = 0.005                                   # s
MAX_SPEED_BAND = (7.48 - 0.5, 7.48 + 0.5)          # m/s
PEAK_TILT_BAND = (54.3 - 1.0, 54.3 + 1.0)          # deg
HEADWIND_SPEEDS = (0.0, 2.0, 4.0, 6.0, 8.0)        # m/s
FF_GAIN = 0.8
HEADWIND_DURATION = 25.0                           # s
HEADWIND_ERROR_BAND = (0.0, 0.12)                  # m/s
NOISE_LEVELS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)      # m/s RMS per axis
NOISE_RUNS = 5
NOISE_DURATION = 20.0                              # s
NOISE_HOLD = 0.1                                   # s between redraws


def rollout(params: PlantParams, command, duration: float, dt: float,
            n: int = 1, wind=(0.0, 0.0, 0.0)):
    """Roll ``n`` agents forward from hover; returns end-of-step times,
    velocities (steps, n, 3) and tilts (steps, n).

    ``command(k, t)`` is step ``k``'s command from time ``t``: a (3,) vector
    for all agents or an (n, 3) array. ``wind`` broadcasts the same way.
    Each step hands the state it returns to the next, so the plant's set-up
    (its workspace) is built on the first step and reused by the rest.
    The thrust history is kept as component rows, (3, steps, n), and the
    tilts, elementwise, are computed on it once at the end.
    """
    state = PlantState.hover(n)
    wind = np.asarray(wind, dtype=float)        # converted once, not per step
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


def hover_hold() -> dict:
    """Residual drift speed for a zero command from hover."""
    _, vs, _ = rollout(PLATFORM, lambda k, t: np.zeros(3), HOVER_DURATION, DT)
    drift = float(np.linalg.norm(vs[-1, 0]))
    return {"drift_error": drift, "pass": drift < HOVER_DRIFT_MAX}


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


def step_response() -> dict:
    """Settling time (2% of final) and overshoot for axial and diagonal steps."""
    cmds = np.array([[STEP_SPEED, 0.0, 0.0],
                     STEP_SPEED / np.sqrt(3.0) * np.ones(3)])
    ts, vs, _ = rollout(PLATFORM, lambda k, t: cmds, STEP_DURATION, DT, n=2)
    settle, overshoot, final = _settle_and_overshoot(ts, vs[:, 0], cmds[0])
    settle_d, overshoot_d, _ = _settle_and_overshoot(ts, vs[:, 1], cmds[1])
    lo, hi = SETTLING_TIME_BAND
    return {"settling_time_s": settle, "overshoot_pct": overshoot,
            "final_speed": final, "settling_time_diag_s": settle_d,
            "overshoot_diag_pct": overshoot_d,
            "pass": (lo <= settle <= hi and lo <= settle_d <= hi
                     and overshoot < OVERSHOOT_MAX_PCT
                     and overshoot_d < OVERSHOOT_MAX_PCT)}


def max_speed_sweep() -> dict:
    """Steady top speed and peak tilt across thrust-to-weight settings.

    The profile runs the step command forward for 10 s (steady speed taken
    as the mean over t in (8, 10]) and reverses it for another 6 s, which
    exercises the tilt cone hard enough to expose the realized peak tilt.
    Every setting is one agent of a single rollout.
    """
    params = replace(PLATFORM, thrust_to_weight=TW_SWEEP)
    fwd = np.array([SWEEP_SPEED, 0.0, 0.0])
    ts, vs, tilts = rollout(params, lambda k, t: fwd if t < 10.0 else -fwd,
                            16.0, SWEEP_DT, n=len(TW_SWEEP))
    speed = np.linalg.norm(vs, axis=2)
    window = (ts > 8.0) & (ts <= 10.0)
    rows = [{"thrust_to_weight": tw,
             "steady_speed": float(speed[window, i].mean()),
             "peak_tilt_deg": float(tilts[:, i].max())}
            for i, tw in enumerate(TW_SWEEP)]
    return {"rows": rows,
            "steady_speed_mean": float(np.mean([r["steady_speed"] for r in rows])),
            "peak_tilt_max": float(max(r["peak_tilt_deg"] for r in rows)),
            "pass": all(MAX_SPEED_BAND[0] <= r["steady_speed"] <= MAX_SPEED_BAND[1]
                        and PEAK_TILT_BAND[0] <= r["peak_tilt_deg"] <= PEAK_TILT_BAND[1]
                        for r in rows)}


def headwind_sweep() -> dict:
    """Steady hover error versus headwind speed, drag feedforward on."""
    params = replace(PLATFORM, ff_gain=FF_GAIN)
    wind = [(-w, 0.0, 0.0) for w in HEADWIND_SPEEDS]
    _, vs, _ = rollout(params, lambda k, t: np.zeros(3), HEADWIND_DURATION, DT,
                       n=len(wind), wind=wind)
    errs = np.linalg.norm(vs[-1], axis=1)
    rows = [{"wind_speed": w, "steady_error": float(e)}
            for w, e in zip(HEADWIND_SPEEDS, errs)]
    return {"rows": rows,
            "max_error": float(max(r["steady_error"] for r in rows)),
            "pass": all(HEADWIND_ERROR_BAND[0] <= r["steady_error"] <= HEADWIND_ERROR_BAND[1]
                        for r in rows)}


def noise_monte_carlo(seed: int) -> dict:
    """Tracking RMSE under zero-mean Gaussian command noise.

    Noise is redrawn every ``NOISE_HOLD`` seconds (per axis, per run) around
    a hover command; lateral RMSE pools x/y, vertical is z alone. The levels
    share common random numbers: run ``run`` draws one (seed, run) stream of
    unit normals, one 3-vector per hold, and every level flies it scaled by
    the level, so the RMSEs differ by the level alone, not by the draw. The
    verdict is that both RMSEs grow with the level.
    """
    steps = int(round(NOISE_DURATION / DT))
    per_hold = max(1, int(round(NOISE_HOLD / DT)))
    holds = -(-steps // per_hold)
    unit = np.stack([np.random.default_rng((seed, run)).standard_normal(
        (holds, 3)) for run in range(NOISE_RUNS)], axis=1)
    # agent lvl_idx * NOISE_RUNS + run flies level lvl_idx on run's stream
    noise = np.concatenate([lvl * unit for lvl in NOISE_LEVELS], axis=1)
    _, vs, _ = rollout(PLATFORM, lambda k, t: noise[k // per_hold],
                       NOISE_DURATION, DT, n=noise.shape[1])
    sq = vs.reshape(steps, len(NOISE_LEVELS), NOISE_RUNS, 3) ** 2
    lat = np.sqrt(np.mean(sq[..., 0] + sq[..., 1], axis=(0, 2))).tolist()
    vert = np.sqrt(np.mean(sq[..., 2], axis=(0, 2))).tolist()
    return {"rows": [{"noise_rms": lvl, "lateral_rmse": a, "vertical_rmse": b}
                     for lvl, a, b in zip(NOISE_LEVELS, lat, vert)],
            "lateral_rmse_max": max(lat), "vertical_rmse_max": max(vert),
            "pass": (all(a <= b + 1e-12 for a, b in zip(lat, lat[1:]))
                     and all(a <= b + 1e-12 for a, b in zip(vert, vert[1:])))}


ALL_SCENARIOS = ("hover", "step", "max_speed", "headwind", "noise")


def run_suite(seed: int = 0, scenarios=ALL_SCENARIOS) -> dict:
    """Run the selected scenarios and bundle their results under one
    overall verdict. A seed that is not a nonnegative integer is rejected
    before any scenario runs."""
    check("seed", seed, SEED)
    out: dict = {}
    if "hover" in scenarios:
        out["hover_hold"] = hover_hold()
    if "step" in scenarios:
        out["step_response"] = step_response()
    if "max_speed" in scenarios:
        out["max_speed_sweep"] = max_speed_sweep()
    if "headwind" in scenarios:
        out["headwind_sweep"] = headwind_sweep()
    if "noise" in scenarios:
        out["noise_monte_carlo"] = noise_monte_carlo(seed)
    out["pass"] = all(section["pass"] for section in out.values())
    return out
