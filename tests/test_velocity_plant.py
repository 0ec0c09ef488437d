"""Velocity plant tests: forces, constraints, lag dynamics, steady states."""

import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fluidswarm import (GRAVITY, PlantParams, PlantState, plant_step,
                        plant_suite, tilt_angle_deg)
from fluidswarm.plant_suite import (ALL_SCENARIOS, DT, FF_GAIN,
                                    HEADWIND_DURATION, HEADWIND_SPEEDS,
                                    NOISE_DURATION, NOISE_HOLD,
                                    NOISE_LEVELS, NOISE_RUNS,
                                    SWEEP_DT, TW_SWEEP, headwind_sweep,
                                    hover_hold, max_speed_sweep,
                                    noise_monte_carlo, rollout, run_suite,
                                    step_response)
from fluidswarm.velocity_plant import DRAG_FACTOR, TAN_TILT_MAX, TAU_V
from reference import constrain_accel, desired_accel, drag_force

P = PlantParams()


def test_drag_force_hand_value():
    # x axis: 0.5 * 1.225 * 1.0 * 0.02 * 4^2 = 0.196 N, opposing motion
    f = drag_force([4.0, 0.0, 0.0])
    assert np.allclose(f, [-0.196, 0.0, 0.0], atol=1e-12)
    assert np.allclose(drag_force([-4.0, 0.0, 0.0]), [0.196, 0.0, 0.0])
    # z axis uses its own coefficient/area pair: 0.5 * 1.225 * 1.2 * 0.03
    fz = drag_force([0.0, 0.0, 2.0])
    assert fz[2] == pytest.approx(-0.5 * 1.225 * 1.2 * 0.03 * 4.0, rel=1e-12)


def test_desired_accel_shaping():
    a = desired_accel([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], P)
    assert np.allclose(a, [2.0, 0.0, -9.81])  # (cmd-v)/TAU_V, gravity comp
    windy = PlantParams(ff_gain=0.8)
    aw = desired_accel([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-4.0, 0.0, 0.0], windy)
    # feedforward cancels the drag expected at (cmd - wind) = 4 m/s airspeed
    assert aw[0, 0] == pytest.approx(0.8 * 0.196, rel=1e-12)


def test_constrain_accel_respects_both_limits():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 30.0, (500, 3))
    c = constrain_accel(a, P)
    tilt = tilt_angle_deg(c)
    assert np.all(tilt <= 55.0 + 1e-9)
    assert np.all(np.linalg.norm(c, axis=1) <= P.a_max + 1e-9)
    # demands already inside both limits pass through untouched
    mild = np.array([[1.0, 0.5, -9.81]])
    assert np.allclose(constrain_accel(mild, P), mild)


def test_constrain_accel_magnitude_clip_preserves_direction():
    a = np.array([10.0, 0.0, -40.0])
    c = constrain_accel(a, P)
    assert np.linalg.norm(c) == pytest.approx(P.a_max, rel=1e-12)
    assert np.allclose(c / np.linalg.norm(c), a / np.linalg.norm(a), rtol=1e-12)


def test_tilt_angle():
    assert tilt_angle_deg([[1.0, 0.0, -1.0]]) == pytest.approx([45.0])
    assert tilt_angle_deg([[0.0, 0.0, -9.81]]) == pytest.approx([0.0])


def test_hover_is_a_fixed_point():
    state = PlantState.hover()
    for _ in range(100):
        state = plant_step(state, [0.0, 0.0, 0.0], 0.05, P)
    assert np.all(np.abs(state.velocity) <= 1e-12)
    assert np.allclose(state.thrust_accel, [0.0, 0.0, -GRAVITY])


def test_single_substep_is_an_exact_exponential_lag():
    """One substep must follow a = a_d + (a - a_d) e^(-h/tau) exactly."""
    dt = P.tau_thrust / 4.0  # exactly one substep
    v0 = np.array([[0.5, -0.2, 0.1]])
    a0 = np.array([[1.0, 0.0, -9.81]])
    cmd = np.array([2.0, 0.0, 0.0])
    nxt = plant_step(PlantState(v0.copy(), a0.copy()), cmd, dt, P)
    a_d = constrain_accel(desired_accel(v0, cmd, np.zeros(3), P), P)
    want_a = a_d + (a0 - a_d) * np.exp(-dt / P.tau_thrust)
    assert np.allclose(nxt.thrust_accel, want_a, rtol=1e-12, atol=1e-12)
    want_v = v0 + dt * (want_a + [0.0, 0.0, GRAVITY] + drag_force(v0) / P.mass)
    assert np.allclose(nxt.velocity, want_v, rtol=1e-12, atol=1e-12)


def test_substeps_keep_pace_with_the_thrust_lag():
    from fluidswarm.velocity_plant import substep_count
    assert substep_count(0.02, P) == 1
    assert substep_count(0.05, P) == 3  # ceil(0.05 / 0.02)
    assert substep_count(1.0, P) == 50


def test_steady_speed_matches_force_balance():
    """Terminal speed under a constant command solves (c-v)/tau = k v^2 / m."""
    cmd = 8.0
    k = float(DRAG_FACTOR[0])
    want = brentq(lambda v: (cmd - v) / TAU_V - k * v * v / P.mass, 0.0, cmd)
    state = PlantState.hover()
    for _ in range(int(30.0 / 0.005)):
        state = plant_step(state, [cmd, 0.0, 0.0], 0.005, P)
    got = float(state.velocity[0, 0])
    assert got == pytest.approx(want, rel=1e-3)
    assert got < cmd  # drag always costs something


def test_plant_stays_bounded_under_wild_commands():
    rng = np.random.default_rng(4)
    state = PlantState.hover()
    for _ in range(2000):
        cmd = rng.uniform(-30.0, 30.0, 3)
        state = plant_step(state, cmd, 0.05, P)
        assert np.all(np.isfinite(state.velocity))
    assert np.linalg.norm(state.velocity) < 60.0


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        plant_step(PlantState.hover(), [1.0, 0.0, 0.0], 0.0, P)


def test_params_validation():
    with pytest.raises(ValueError):
        PlantParams(mass=0.0)
    with pytest.raises(ValueError):
        PlantParams(thrust_to_weight=-1.0)
    with pytest.raises(ValueError):
        PlantParams(thrust_to_weight=(2.0, 0.0))   # one value per agent


# ----------------------------------------------------------------------
# scenario battery
# ----------------------------------------------------------------------

def test_hover_hold_scenario():
    out = hover_hold()
    assert out["drift_error"] < 1e-3
    assert out["pass"]


def test_step_response_band():
    out = step_response()
    assert 1.32 <= out["settling_time_s"] <= 2.02
    assert out["overshoot_pct"] < 0.5
    assert 1.32 <= out["settling_time_diag_s"] <= 2.02
    assert out["overshoot_diag_pct"] < 0.5
    assert out["pass"]


def test_max_speed_is_insensitive_to_thrust_to_weight():
    out = max_speed_sweep()
    assert out["pass"]
    speeds = [r["steady_speed"] for r in out["rows"]]
    # drag, not thrust, limits level speed
    assert max(speeds) - min(speeds) < 0.05
    for r in out["rows"]:
        assert 6.98 <= r["steady_speed"] <= 7.98
        assert 53.3 <= r["peak_tilt_deg"] <= 55.3


def test_headwind_errors_grow_with_wind():
    out = headwind_sweep()
    errs = [r["steady_error"] for r in out["rows"]]
    assert errs[0] == pytest.approx(0.0, abs=1e-9)
    assert errs == sorted(errs)
    assert out["max_error"] <= 0.12
    assert out["pass"]


def test_noise_rmse_is_monotone():
    out = noise_monte_carlo(0)
    lat = [r["lateral_rmse"] for r in out["rows"]]
    assert lat == sorted(lat)
    assert out["pass"]


def test_noise_verdict_holds_at_every_seed():
    # every level flies the same draws, so the verdict tests the plant,
    # not the luck of independent draws per level
    failed = [seed for seed in range(26)
              if not run_suite(seed=seed, scenarios=("noise",))["pass"]]
    assert failed == []


def test_a_non_monotone_plant_fails_the_noise_verdict(monkeypatch):
    def saturating_step(state, v_cmd, dt, params, wind=(0.0, 0.0, 0.0)):
        # flies c / (1 + c^2): tracking error peaks at 1 m/s, then falls
        v = np.broadcast_to(v_cmd, state.velocity.shape)
        return PlantState(v / (1.0 + v * v), state.thrust_accel)

    monkeypatch.setattr(plant_suite, "step", saturating_step)
    out = run_suite(seed=0, scenarios=("noise",))["noise_monte_carlo"]
    lat = [r["lateral_rmse"] for r in out["rows"]]
    assert lat != sorted(lat)
    assert not out["pass"]


def test_run_suite_scenario_selection():
    out = run_suite(scenarios=("hover",))
    assert set(out) == {"hover_hold", "pass"}
    assert out["pass"]


def _one_agent(params, command, steps, dt, wind=(0.0, 0.0, 0.0)):
    """Reference: a single agent stepped alone, command(k) per step."""
    state = PlantState.hover()
    vs = np.empty((steps, 3))
    for k in range(steps):
        state = plant_step(state, command(k), dt, params, wind=wind)
        vs[k] = state.velocity[0]
    return vs


def test_batched_headwind_equals_single_agent_runs():
    out = headwind_sweep()
    windy = replace(P, ff_gain=FF_GAIN)
    wind = np.array([[-w, 0.0, 0.0] for w in HEADWIND_SPEEDS])
    _, batched, _ = rollout(windy, lambda k, t: np.zeros(3),
                            HEADWIND_DURATION, DT, n=len(wind), wind=wind)
    steps = round(HEADWIND_DURATION / DT)
    for i in (0, len(wind) - 1):        # calm and the strongest wind
        vs = _one_agent(windy, lambda k: np.zeros(3), steps, DT,
                        wind=wind[i])
        assert np.array_equal(batched[:, i], vs)
        assert out["rows"][i]["steady_error"] == float(np.linalg.norm(vs[-1]))


def test_batched_noise_equals_single_agent_runs():
    """The strongest level's runs, each flown alone, give its row of the
    suite and the batched velocities bit for bit."""
    seed, steps = 3, round(NOISE_DURATION / DT)
    per_hold = round(NOISE_HOLD / DT)
    out = noise_monte_carlo(seed)
    lvl, row = NOISE_LEVELS[-1], out["rows"][-1]
    rngs = [np.random.default_rng((seed, run)) for run in range(NOISE_RUNS)]
    noise = np.stack([lvl * r.standard_normal((steps // per_hold, 3))
                      for r in rngs], axis=1)
    _, batched, _ = rollout(P, lambda k, t: noise[k // per_hold],
                            NOISE_DURATION, DT, n=NOISE_RUNS)
    lat_sq, vert_sq = 0.0, 0.0
    for run in range(NOISE_RUNS):
        vs = _one_agent(P, lambda k: noise[k // per_hold, run], steps, DT)
        assert np.array_equal(batched[:, run], vs)
        lat_sq += float(np.sum(vs[:, 0] ** 2 + vs[:, 1] ** 2))
        vert_sq += float(np.sum(vs[:, 2] ** 2))
    count = NOISE_RUNS * steps
    # summation order differs: pooled sums agree to rounding only
    assert row["lateral_rmse"] == pytest.approx(np.sqrt(lat_sq / count),
                                                rel=1e-12)
    assert row["vertical_rmse"] == pytest.approx(np.sqrt(vert_sq / count),
                                                 rel=1e-12)


def test_batched_max_speed_equals_single_agent_runs():
    out = max_speed_sweep()
    fwd = np.array([8.0, 0.0, 0.0])

    def command(k, t):
        return fwd if t < 10.0 else -fwd

    _, batched, batched_tilts = rollout(replace(P, thrust_to_weight=TW_SWEEP),
                                        command, 16.0, SWEEP_DT,
                                        n=len(TW_SWEEP))
    for i in (0, len(TW_SWEEP) - 1):    # the weakest and strongest setting
        # reference: the setting flown alone, as a single-agent plant
        tw = TW_SWEEP[i]
        ts, vs, tilts = rollout(replace(P, thrust_to_weight=tw), command,
                                16.0, SWEEP_DT)
        assert np.array_equal(batched[:, i], vs[:, 0])
        assert np.array_equal(batched_tilts[:, i], tilts[:, 0])
        speed = np.linalg.norm(vs[:, 0], axis=1)
        assert out["rows"][i] == {
            "thrust_to_weight": tw,
            "steady_speed": float(speed[(ts > 8.0) & (ts <= 10.0)].mean()),
            "peak_tilt_deg": float(tilts.max())}


def test_suite_raises_no_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_suite()["pass"]


def test_suite_rejects_a_negative_seed_before_any_scenario(monkeypatch):
    def ran(*_args, **_kwargs):
        raise AssertionError("a scenario ran")
    for name in ("hover_hold", "step_response", "max_speed_sweep",
                 "headwind_sweep", "noise_monte_carlo"):
        monkeypatch.setattr(plant_suite, name, ran)
    with pytest.raises(ValueError,
                       match="^seed must be a nonnegative integer; got -1$"):
        run_suite(seed=-1)


# ----------------------------------------------------------------------
# the row-wise step against the (N, 3) formula
# ----------------------------------------------------------------------

def reference_constrain(a_d, params):
    """``constrain_accel`` as it was written on (N, 3) arrays: the tilt cone,
    then the thrust ball."""
    a_d = a_d.copy()
    up = np.maximum(-a_d[:, 2], 0.0)
    lat = np.hypot(a_d[:, 0], a_d[:, 1])
    lim = np.tan(np.deg2rad(55.0)) * up
    over = lat > lim
    shrink = np.ones_like(lat)
    nz = over & (lat > 0)
    shrink[nz] = lim[nz] / lat[nz]
    a_d[:, 0] *= shrink
    a_d[:, 1] *= shrink
    a_d[:, 2] = np.minimum(a_d[:, 2], 0.0)
    mag = np.linalg.norm(a_d, axis=1)
    a_max = params.a_max
    over = mag > a_max
    if np.ndim(a_max):
        a_max = a_max[over]
    a_d[over] *= (a_max / mag[over])[:, None]
    return a_d


def reference_step(state, v_cmd, dt, params, wind=(0.0, 0.0, 0.0)):
    """``step`` as it was written on (N, 3) arrays, one agent per row."""
    n_sub = max(1, int(np.ceil(dt / (params.tau_thrust / 4.0) - 1e-12)))
    h = dt / n_sub
    decay = float(np.exp(-h / params.tau_thrust))
    v = state.velocity.copy()
    a = state.thrust_accel.copy()
    g_vec = np.array([0.0, 0.0, 9.81])
    wind = np.asarray(wind, dtype=float)
    # 0.5 * air density * drag coefficients * reference areas
    drag = 0.5 * 1.225 * np.asarray((1.0, 1.0, 1.2)) \
        * np.asarray((0.02, 0.02, 0.03))

    def drag_on(u):
        return -drag * np.abs(u) * u

    for _ in range(n_sub):
        cmd = np.broadcast_to(np.atleast_2d(np.asarray(v_cmd, dtype=float)),
                              v.shape)
        w = np.broadcast_to(np.atleast_2d(wind), v.shape)
        a_d = (cmd - v) / 0.5
        a_d[:, 2] -= 9.81
        if params.ff_gain != 0.0:
            a_d = a_d + params.ff_gain * (-drag_on(cmd - w)) / params.mass
        a_d = reference_constrain(a_d, params)
        a = a_d + (a - a_d) * decay
        v = v + h * (a + g_vec + drag_on(v - wind) / params.mass)
    return PlantState(v, a)


def same_bits(x, y):
    """Equal shape and equal float64 bit patterns (NaN payloads and signed
    zeros included)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(np.int64),
        np.ascontiguousarray(y).view(np.int64))


def plant_cases():
    """(name, params, state, command, wind) reaching every branch of the
    substep: the tilt clip and a downward demand (lim = 0), the thrust
    ball with a per-agent thrust-to-weight, the drag feedforward with
    per-agent wind, a single agent, and non-finite, huge and subnormal
    components."""
    rng = np.random.default_rng(11)
    n = 64
    v = rng.normal(0.0, 4.0, (n, 3))
    a = rng.normal(0.0, 15.0, (n, 3))
    cmd = rng.normal(0.0, 20.0, (n, 3))
    cmd[:8, 2] = 60.0     # far below: the demand thrusts down, lim = 0
    a[8:16, :2] = 0.0     # no lateral demand on the first substep
    tw = tuple(rng.uniform(1.2, 6.0, n))
    wind = rng.normal(0.0, 5.0, (n, 3))
    odd = v.copy()
    odd[0, 0], odd[1, 1], odd[2, 2] = np.nan, np.inf, -np.inf
    odd[3, 0], odd[4, 1] = 1e200, -1e200
    odd[5] = [5e-324, -1e-310, 2e-308]
    odd[6, :2] = [1e200, 1e200]
    odd_cmd = cmd.copy()
    odd_cmd[7] = [np.nan, 1e-320, -3.0]
    odd_cmd[9, :2] = [1e300, -1e300]
    odd_cmd[10] = [np.inf, 0.0, -np.inf]
    return [
        ("tilt_and_down", P, PlantState(v, a), cmd, (0.0, 0.0, 0.0)),
        ("thrust_ball_per_agent", replace(P, thrust_to_weight=tw),
         PlantState(v, a), 3.0 * cmd, (0.0, 0.0, 0.0)),
        ("feedforward_wind", replace(P, ff_gain=0.8), PlantState(v, a), cmd,
         wind),
        ("feedforward_one_wind", replace(P, ff_gain=0.8), PlantState(v, a),
         cmd, (-4.0, 1.0, 0.5)),
        ("one_agent", P, PlantState(v[:1], a[:1]), cmd[0], (0.0, 0.0, 0.0)),
        ("one_agent_ff", replace(P, ff_gain=0.8), PlantState(v[0], a[0]),
         cmd[0], wind[0]),
        ("non_finite_huge_subnormal", replace(P, ff_gain=0.5),
         PlantState(odd, a), odd_cmd, wind),
    ]


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.3])
def test_step_equals_the_n_by_3_formula_bit_for_bit(dt):
    for name, params, state, cmd, wind in plant_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = reference_step(state, cmd, dt, params, wind=wind)
            got = plant_step(state, cmd, dt, params, wind=wind)
        assert same_bits(got.velocity, want.velocity), name
        assert same_bits(got.thrust_accel, want.thrust_accel), name
        if name == "non_finite_huge_subnormal":
            assert not np.isfinite(want.velocity).all()


def test_constrain_accel_equals_the_n_by_3_formula_bit_for_bit():
    """Demands on and around both limits, and the non-finite pairs whose
    lateral sum is NaN while their ``hypot`` is inf, which the cheap
    pre-test must hand on to ``hypot``."""
    rng = np.random.default_rng(12)
    a = rng.normal(0.0, 20.0, (400, 3))
    lim = TAN_TILT_MAX * np.maximum(-a[:, 2], 0.0)
    lat = np.hypot(a[:, 0], a[:, 1])
    a[:100, :2] *= (lim[:100] / lat[:100])[:, None]    # on the cone, to rounding
    a[100:110] = a[100:110] / np.linalg.norm(a[100:110], axis=1)[:, None] \
        * P.a_max                                        # on the ball
    # one ulp outside the cone along an axis, where |x| + |y| = hypot
    a[110:130, 0] = np.nextafter(lim[110:130], np.inf)
    a[110:130, 1] = 0.0
    big, tiny = 1e200, 5e-324
    odd = np.array([
        [np.inf, np.nan, -5.0], [np.nan, -np.inf, -5.0], [np.inf, 1.0, -5.0],
        [np.nan, 1.0, -5.0], [1.0, 1.0, np.nan], [1.0, 1.0, -np.inf],
        [np.inf, np.inf, -np.inf], [big, big, -5.0], [big, -big, -big],
        [tiny, tiny, -tiny], [tiny, 0.0, -tiny], [-0.0, 0.0, -0.0],
        [3.0, 4.0, 0.0], [3.0, 4.0, 2.0], [0.0, 0.0, 50.0]])
    demand = np.vstack([a, odd])
    tw = tuple(rng.uniform(1.2, 6.0, len(demand)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for params in (P, replace(P, thrust_to_weight=tw)):
            assert same_bits(constrain_accel(demand, params),
                             reference_constrain(demand, params))
        assert same_bits(constrain_accel(demand[0], P),
                         reference_constrain(demand[:1], P)[0])


def test_step_clips_in_every_case_it_is_tested_on():
    """The oracle cases reach the tilt clip, a zero cone (downward demand),
    the thrust ball with per-agent limits, and the feedforward."""
    _, params, state, cmd, _ = plant_cases()[0]
    a_d = desired_accel(state.velocity, cmd, np.zeros(3), params)
    lat = np.hypot(a_d[:, 0], a_d[:, 1])
    lim = TAN_TILT_MAX * np.maximum(-a_d[:, 2], 0.0)
    assert np.any((lat > lim) & (lim > 0)) and np.any(lim == 0)
    _, params, state, cmd, _ = plant_cases()[1]
    c = constrain_accel(desired_accel(state.velocity, cmd, np.zeros(3),
                                      params), params)
    at_limit = np.isclose(np.linalg.norm(c, axis=1), params.a_max, rtol=1e-12)
    assert at_limit.any() and not at_limit.all()


def test_row_views_and_c_ordered_states_step_the_same():
    _, params, state, cmd, wind = plant_cases()[2]
    rows_v = np.ascontiguousarray(state.velocity.T)
    rows_a = np.ascontiguousarray(state.thrust_accel.T)
    rows_cmd = np.ascontiguousarray(cmd.T)
    from_c = plant_step(state, cmd, 0.05, params, wind=wind)
    from_rows = plant_step(PlantState(rows_v.T, rows_a.T), rows_cmd.T, 0.05,
                           params, wind=wind)
    assert same_bits(from_c.velocity, from_rows.velocity)
    assert same_bits(from_c.thrust_accel, from_rows.thrust_accel)
    # the result is an (N, 3) view of contiguous component rows, and the
    # input is left as it was
    assert from_rows.velocity.T.flags.c_contiguous
    assert same_bits(rows_v.T, state.velocity)


def test_constrain_accel_ball_boundary_equals_the_formula():
    """Demands on, one ulp inside and one ulp outside the thrust ball, along
    an axis (where |x| + |y| + |z| is the magnitude itself, so the cheap
    pre-test has no slack) and off it, with one and with per-agent limits."""
    a_max = P.a_max
    rim = [np.nextafter(a_max, 0.0), a_max, np.nextafter(a_max, np.inf)]
    rows = [[0.0, 0.0, -r] for r in rim]
    rows += [[r, 0.0, 0.0] for r in rim] + [[0.0, -r, 0.0] for r in rim]
    rows += [[0.0, 0.0, r] for r in rim]          # downward: z clips to 0
    for r in rim:                                   # inside the cone, off axis
        rows.append(r * np.array([0.3, -0.2, -np.sqrt(1.0 - 0.13)]))
    sums = a_max * (1.0 - 1e-12)                    # the pre-test's bound
    rows += [[0.0, 0.0, -sums], [0.0, 0.0, -np.nextafter(sums, np.inf)],
             [1.0, 1.0, 2.0 - sums]]
    demand = np.array(rows)
    n = len(demand)
    tw = tuple(np.linspace(1.5, 3.0, n))
    per_agent = replace(P, thrust_to_weight=tw)
    rim_each = np.nextafter(per_agent.a_max, np.inf)
    on_axis = np.column_stack([np.zeros(n), np.zeros(n), -rim_each])
    for params, d in ((P, demand), (per_agent, demand),
                      (per_agent, on_axis)):
        want = reference_constrain(d, params)
        assert same_bits(constrain_accel(d, params), want)
    # the cases reach the clip and its edge
    clipped = reference_constrain(demand, P)
    assert np.any(np.linalg.norm(clipped, axis=1) < np.linalg.norm(
        np.column_stack([demand[:, :2], np.minimum(demand[:, 2], 0.0)]),
        axis=1))
    assert not np.array_equal(reference_constrain(on_axis, per_agent),
                              on_axis)


SUITE_SIZES = (1, 2, 5, 30, 2700)


@pytest.mark.parametrize("n", SUITE_SIZES)
def test_step_equals_the_n_by_3_formula_at_suite_and_crowd_sizes(n):
    """The plant suite's sizes and a crowd-sized population, with calm wind
    given as a tuple and as an (n, 3) zero array, a wind whose only
    components are -0.0 (subtracting it is not a no-op), a steady wind, and
    a mass other than 1."""
    rng = np.random.default_rng(n)
    v = rng.normal(0.0, 4.0, (n, 3))
    a = rng.normal(0.0, 15.0, (n, 3))
    a[::2] = [0.0, 0.0, -GRAVITY]                   # some agents at hover
    cmd = rng.normal(0.0, 12.0, (n, 3))
    v[:1] = [-0.0, 0.0, -0.0]
    heavy = replace(P, mass=1.7, ff_gain=0.5)
    winds = [(0.0, 0.0, 0.0), np.zeros((n, 3)), np.full((n, 3), -0.0),
             (-3.0, 0.5, 0.0)]
    for params in (P, heavy):
        for wind in winds:
            for dt in (0.01, 0.05):
                state = PlantState(v, a)
                want = reference_step(state, cmd, dt, params, wind=wind)
                got = plant_step(state, cmd, dt, params, wind=wind)
                assert same_bits(got.velocity, want.velocity), (params, dt)
                assert same_bits(got.thrust_accel, want.thrust_accel)


def test_step_leaves_its_input_state_unchanged():
    """``step`` copies the state it is given: neither C-ordered (N, 3)
    arrays nor ``.T`` views of (3, N) rows are written, nor the commands."""
    for name, params, state, cmd, wind in plant_cases():
        rows_v = np.ascontiguousarray(np.atleast_2d(state.velocity).T)
        rows_a = np.ascontiguousarray(np.atleast_2d(state.thrust_accel).T)
        for s in (state, PlantState(rows_v.T, rows_a.T)):
            before = [x.copy() for x in (s.velocity, s.thrust_accel)]
            cmd_before = np.array(cmd, copy=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = plant_step(s, cmd, 0.05, params, wind=wind)
            assert same_bits(s.velocity, before[0]), name
            assert same_bits(s.thrust_accel, before[1]), name
            assert same_bits(cmd, cmd_before), name
            assert not np.shares_memory(out.velocity, s.velocity)
            assert not np.shares_memory(out.thrust_accel, s.thrust_accel)


def test_derived_constants_are_computed_once_and_read_only():
    params = replace(P, thrust_to_weight=(1.5, 2.0))
    assert params.a_max is params.a_max
    for arr in (params.a_max, DRAG_FACTOR):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert np.array_equal(params.a_max, np.array([1.5, 2.0]) * GRAVITY)
    # replace() recomputes it from the new fields
    assert replace(params, thrust_to_weight=3.0).a_max == 3.0 * GRAVITY


def test_a_chain_of_steps_reuses_the_workspace_only_where_it_fits():
    """Each step of a chain whose agent count, dt, params or wind change
    between calls equals the (N, 3) formula bit for bit, and the state it
    returns carries its input's workspace exactly when all four match (an
    equal params instance matches; a wind of -0.0 does not match calm)."""
    rng = np.random.default_rng(40)
    tw = tuple(rng.uniform(1.2, 6.0, 6))
    heavy = replace(P, mass=1.7, ff_gain=0.8)
    per_agent = replace(P, thrust_to_weight=tw, ff_gain=0.8)
    calm, shared = (0.0, 0.0, 0.0), (-4.0, 1.0, 0.5)
    each = rng.normal(0.0, 5.0, (6, 3))
    chain = [  # n, dt, params, wind, whether the input's workspace fits;
        # each step changes one of the four
        (6, 0.01, P, calm, False),          # a state built by hand has none
        (6, 0.01, P, calm, True),
        (6, 0.05, P, calm, False),          # 3 sub-steps
        (6, 0.05, heavy, calm, False),
        (6, 0.05, replace(heavy), calm, True),
        (6, 0.05, heavy, shared, False),
        (6, 0.05, heavy, each, False),
        (6, 0.05, heavy, each.copy(), True),
        (6, 0.05, per_agent, each, False),
        (6, 0.01, per_agent, each, False),
        (6, 0.01, per_agent, np.full(3, -0.0), False),
        (6, 0.01, per_agent, calm, False),
        (6, 0.01, P, calm, False),
        (4, 0.01, P, calm, False),          # fewer agents, same workspace
        (4, 0.01, P, calm, True),
        (1, 0.01, P, calm, False),
        (1, 0.01, heavy, calm, False),
        (1, 0.01, heavy, each[:1], False),
        (1, 0.05, heavy, each[:1], False),
        (1, 0.05, heavy, each[:1].copy(), True),
    ]
    state = PlantState(rng.normal(0.0, 4.0, (6, 3)),
                       rng.normal(0.0, 15.0, (6, 3)))
    for i, (n, dt, params, wind, fits) in enumerate(chain):
        if n != len(state.velocity):
            state = copy.copy(state)        # keeps the carried workspace
            state.velocity = state.velocity[:n]
            state.thrust_accel = state.thrust_accel[:n]
        cmd = rng.normal(0.0, 12.0, (n, 3))
        want = reference_step(state, cmd, dt, params, wind=wind)
        got = plant_step(state, cmd, dt, params, wind=wind)
        assert same_bits(got.velocity, want.velocity), i
        assert same_bits(got.thrust_accel, want.thrust_accel), i
        assert (got._work is state._work) == fits, i
        state = got


def test_one_state_stepped_twice_gives_two_equal_children():
    """Two steps from one state share its workspace, give equal children
    that share no memory, and leave the state and the command as they
    were."""
    for name, params, state, cmd, wind in plant_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parent = plant_step(state, cmd, 0.05, params, wind=wind)
            before = [x.copy() for x in (parent.velocity, parent.thrust_accel)]
            cmd_before = np.array(cmd, copy=True)
            first = plant_step(parent, cmd, 0.05, params, wind=wind)
            second = plant_step(parent, cmd, 0.05, params, wind=wind)
        assert first._work is parent._work and second._work is parent._work
        assert same_bits(first.velocity, second.velocity), name
        assert same_bits(first.thrust_accel, second.thrust_accel), name
        assert not np.shares_memory(first.velocity, second.velocity)
        assert not np.shares_memory(first.thrust_accel, second.thrust_accel)
        assert same_bits(parent.velocity, before[0]), name
        assert same_bits(parent.thrust_accel, before[1]), name
        assert same_bits(cmd, cmd_before), name


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_each_scenario_flies_the_n_by_3_formula_bit_for_bit(monkeypatch,
                                                            scenario):
    """Each scenario's rollout (times, velocities and tilts) and its results
    equal those of the same rollout driven by ``reference_step``."""
    rollouts = []
    real = plant_suite.rollout

    def recorded(*args, **kwargs):
        rollouts.append(real(*args, **kwargs))
        return rollouts[-1]

    monkeypatch.setattr(plant_suite, "rollout", recorded)
    got = run_suite(seed=0, scenarios=(scenario,))
    monkeypatch.setattr(plant_suite, "step", reference_step)
    want = run_suite(seed=0, scenarios=(scenario,))
    assert len(rollouts) == 2
    for g, w in zip(*rollouts):
        assert same_bits(g, w)
    assert repr(got) == repr(want)
