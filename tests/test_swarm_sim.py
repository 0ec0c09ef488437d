"""Swarm simulation tests: command broadcast, injection, collisions,
determinism, bookkeeping, and the run record round trip."""

import json
from dataclasses import replace

import numpy as np
import pytest

from fluidswarm import (PlantParams, SimConfig, build_command_table,
                        detect_collisions, injection_rate, load_run,
                        population_balance, resolve_collisions,
                        run_simulation, save_run)
from fluidswarm.partition import assign_cell
from fluidswarm.swarm_sim import entry_cell, make_batch, seed_tunnel

CFG = SimConfig()  # collision thresholds at their defaults


def short_run(grid, fit, **kw):
    kw.setdefault("case", "reservoir")
    kw.setdefault("duration", 5.0)
    return run_simulation(grid, fit, SimConfig(**kw))


def frames_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if not (np.array_equal(ra.cells, rb.cells)
                and np.array_equal(ra.counts, rb.counts)
                and np.array_equal(ra.vsum, rb.vsum)
                and np.array_equal(ra.sumv2, rb.sumv2)
                and np.array_equal(ra.dev2, rb.dev2, equal_nan=True)):
            return False
    return True


# ----------------------------------------------------------------------
# command broadcast
# ----------------------------------------------------------------------

def test_fitted_cells_broadcast_their_scaled_mean(grid, fit):
    table = build_command_table(grid, fit, 0.1)
    for f, res in fit.results.items():
        assert np.array_equal(table[f], 0.1 * res.command)


def test_unfitted_cells_borrow_the_nearest_command(grid, fit):
    table = build_command_table(grid, fit, 0.1)
    centers = grid.centers()
    fitted = np.asarray(sorted(fit.results))
    rng = np.random.default_rng(5)
    others = rng.choice(np.flatnonzero(~grid.valid), size=40, replace=False)
    for f in others:
        diff = centers[f] - centers[fitted]
        d2 = np.einsum("fk,fk->f", diff, diff)
        nearest = int(fitted[np.argmin(d2)])  # argmin ties go to lowest index
        assert np.array_equal(table[f], 0.1 * fit.results[nearest].command)


def test_command_table_equals_the_dense_nearest_search(grid, fit):
    fitted = np.array(sorted(fit.results), dtype=np.int64)
    means = np.stack([fit.results[int(f)].command for f in fitted])
    centers = grid.centers()
    diff = centers[:, None, :] - centers[fitted][None, :, :]
    nearest = np.argmin(np.einsum("mfk,mfk->mf", diff, diff), axis=1)
    assert grid.num_cells > 256  # more than one block of rows
    assert np.array_equal(build_command_table(grid, fit, 0.1),
                          0.1 * means[nearest])


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------

def test_injection_rate_from_the_entry_cell(grid, fit):
    cell = entry_cell(grid, fit)
    res = fit.results[cell]
    want = res.n_star * float(np.linalg.norm(res.command)) / grid.edge_length
    rate, got_cell = injection_rate(grid, fit)
    assert got_cell == cell
    assert rate == pytest.approx(want, rel=1e-12)
    # entry cell hugs the inlet plane on the axis
    c = grid.centers()[cell]
    assert c[0] == pytest.approx(0.25)
    assert np.hypot(c[1], c[2]) <= 0.5


def test_batch_sizing_rounds_the_rate(grid, fit, trace60):
    assert trace60.batch_size == int(round(trace60.injection_rate * 0.5))
    assert trace60.injection_rate == pytest.approx(injection_rate(grid, fit)[0])


def test_make_batch_fills_the_inlet_disc(grid, fit):
    cfg = SimConfig(seed=9)
    cell = entry_cell(grid, fit)
    pos, vel, thr = make_batch(grid, fit, cfg, PlantParams(), 0, 200, cell)
    assert pos.shape == (200, 3)
    assert np.all((pos[:, 0] >= 0.0) & (pos[:, 0] < grid.edge_length))
    assert np.all(np.hypot(pos[:, 1], pos[:, 2]) <= grid.geometry.radius(0.0))
    want = cfg.scale * fit.results[cell].command
    assert np.allclose(vel, np.tile(want, (200, 1)))
    assert np.allclose(thr[:, 2], -9.81)


def test_seed_tunnel_counts_and_placement(grid, fit):
    cfg = SimConfig(case="tunnel_seeding", seed=4)
    pos, vel, thr = seed_tunnel(grid, fit, cfg, PlantParams())
    centers = grid.centers()
    bound = 0.5 * grid.geometry.length
    seeded = [f for f in fit.results if centers[f, 0] <= bound]
    assert len(pos) == sum(fit.results[f].n_star for f in seeded)
    # each agent sits in its own cell and flies that cell's scaled command
    flat = assign_cell(pos, grid)
    counts = np.bincount(flat, minlength=grid.num_cells)
    for f in seeded:
        assert counts[f] == fit.results[f].n_star
    for i in range(0, len(pos), 97):
        res = fit.results[int(flat[i])]
        assert np.allclose(vel[i], cfg.scale * res.command)


def test_seed_tunnel_respects_the_axial_bound(grid, fit):
    cfg = SimConfig(case="tunnel_seeding", seed_x_max=3.0)
    pos, _, _ = seed_tunnel(grid, fit, cfg, PlantParams())
    # cells qualify by center, so positions reach half an edge past the bound
    assert pos[:, 0].max() <= 3.0 + 0.5 * grid.edge_length
    below = SimConfig(case="tunnel_seeding", seed_x_max=-1.0)
    with pytest.raises(ValueError, match="no cells"):
        seed_tunnel(grid, fit, below, PlantParams())


# ----------------------------------------------------------------------
# collisions
# ----------------------------------------------------------------------

def test_collision_classification():
    pos = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
    headon = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert detect_collisions(pos, headon, CFG) == [(0, 1, "headon")]
    sideswipe = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert detect_collisions(pos, sideswipe, CFG) == [(0, 1, "sideswipe")]
    overtake = np.array([[3.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert detect_collisions(pos, overtake, CFG) == [(0, 1, "overtake")]


def test_separated_or_coasting_pairs_do_not_collide():
    apart = np.array([[0.0, 0.0, 0.0], [0.45, 0.0, 0.0]])  # 3 radii away
    v = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert detect_collisions(apart, v, CFG) == []
    close = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
    same = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    # co-moving contact: closing speed 0 stays under the approach floor
    assert detect_collisions(close, same, CFG) == []
    slow = np.array([[0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # closing at 0.2 m/s: under the 0.5 m/s floor, and a zero speed anyway
    assert detect_collisions(close, slow, CFG) == []


def test_overtake_conserves_the_speed_sum():
    vel = np.array([[3.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    applied = resolve_collisions(vel, [(0, 1, "overtake")], CFG)
    assert applied == [(0, 1, "overtake")]
    # 25% of the 2 m/s gap moves from fast to slow
    assert np.allclose(vel, [[2.5, 0.0, 0.0], [1.5, 0.0, 0.0]])


def test_mutual_collisions_dissipate_energy():
    vel = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    resolve_collisions(vel, [(0, 1, "headon")], CFG)
    # 10% of pair kinetic energy gone, split evenly: speeds shrink by sqrt(0.9)
    assert np.allclose(np.abs(vel[:, 0]), 2.0 * np.sqrt(0.9), rtol=1e-12)
    vel = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    resolve_collisions(vel, [(0, 1, "sideswipe")], CFG)
    assert np.allclose(np.linalg.norm(vel, axis=1), 2.0 * np.sqrt(0.8),
                       rtol=1e-12)


def test_collisions_never_change_headings():
    rng = np.random.default_rng(6)
    vel = rng.normal(0.0, 5.0, (6, 3))
    before = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    resolve_collisions(vel, [(0, 1, "overtake"), (2, 3, "headon"),
                             (4, 5, "sideswipe")], CFG)
    after = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    assert np.allclose(after, before, atol=1e-12)


def test_collision_speed_clamp():
    vel = np.array([[100.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    resolve_collisions(vel, [(0, 1, "overtake")], CFG)
    assert vel[0, 0] == pytest.approx(30.0)  # clamped from 75.5
    assert vel[1, 0] == pytest.approx(26.5)


# ----------------------------------------------------------------------
# whole-run properties
# ----------------------------------------------------------------------

def test_frame_clock_is_uniform(trace60):
    assert len(trace60.frame_t) == 1200
    assert np.allclose(np.diff(trace60.frame_t), 0.05, rtol=1e-12)
    # event log is time ordered on the frame clock, with no ulp slack
    times = np.array([e[0] for e in trace60.events])
    assert np.all(np.diff(times) >= 0)


def test_population_bookkeeping(trace60):
    bal = population_balance(trace60)
    assert bal["balanced"]
    assert bal["injected"] == trace60.injected > 0
    inject_events = sum(1 for e in trace60.events if e[1] == "inject")
    retire_events = sum(1 for e in trace60.events if e[1] == "retire")
    assert inject_events == trace60.injected
    assert retire_events == trace60.retired


def test_every_frame_counts_every_active_agent(trace60):
    # retired + current == injected so far, frame by frame at the end
    last = trace60.frames[-1]
    assert int(last.counts.sum()) == trace60.injected - trace60.retired \
        - trace60.faults


def test_wall_escapes_are_logged_once(trace60):
    escape_events = [e for e in trace60.events if e[1] == "wall_escape"]
    assert len(escape_events) == trace60.escaped
    agents = [e[2] for e in escape_events]
    assert len(agents) == len(set(agents))


def test_runs_are_deterministic(grid, fit):
    a = short_run(grid, fit, seed=3)
    b = short_run(grid, fit, seed=3)
    assert frames_equal(a.frames, b.frames)
    assert a.events == b.events
    c = short_run(grid, fit, seed=4)
    assert not frames_equal(a.frames, c.frames)


def test_the_plant_flies_the_fit_agent_mass(grid, fit):
    heavy = replace(fit, config=replace(fit.config, agent_mass=2.0))
    trace = run_simulation(grid, heavy, SimConfig(duration=0.5))
    assert trace.plant.mass == 2.0
    with pytest.raises(ValueError, match="agent mass"):
        run_simulation(grid, heavy, SimConfig(duration=0.5), PlantParams())


def test_tunnel_case_seeds_then_drains(grid, fit):
    trace = run_simulation(grid, fit, SimConfig(case="tunnel_seeding",
                                                duration=2.0, seed=1))
    assert trace.injected == sum(
        1 for e in trace.events if e[1] == "inject" and e[0] == 0.0)
    assert population_balance(trace)["balanced"]


def test_collision_run_stays_balanced(grid, fit):
    trace = short_run(grid, fit, seed=2, collisions=True)
    assert population_balance(trace)["balanced"]
    kinds = {e[1] for e in trace.events}
    assert kinds <= {"inject", "retire", "wall_escape", "fault",
                     "collision_overtake", "collision_headon",
                     "collision_sideswipe"}


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(case="wind_tunnel")
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(scale=0.0)
    with pytest.raises(ValueError):
        SimConfig(duration=-1.0)
    assert SimConfig(scale=1.5).scale == 1.5  # amplified commands are allowed


# ----------------------------------------------------------------------
# run record round trip
# ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, grid, fit):
    trace = short_run(grid, fit, seed=8, record_trajectories=True)
    save_run(trace, tmp_path)
    back = load_run(tmp_path)
    assert back.config == trace.config
    assert back.plant == trace.plant
    assert back.dims == trace.dims
    assert np.array_equal(back.frame_t, trace.frame_t)
    # exact sums; cells without targets carry NaN deviation sums
    assert frames_equal(back.frames, trace.frames)
    assert back.events == trace.events
    assert np.array_equal(back.command_table, trace.command_table)
    counters = ("injection_rate", "batch_size", "injected", "retired",
                "escaped", "faults")
    assert [getattr(back, k) for k in counters] == \
        [getattr(trace, k) for k in counters]
    assert len(back.trajectories) == len(trace.trajectories) > 0
    for sa, sb in zip(trace.trajectories, back.trajectories):
        assert sb[0] == sa[0]
        assert all(np.array_equal(x, y) for x, y in zip(sa[1:], sb[1:]))


def _drop_dev2(cols):
    del cols["dev2"]


def _shift_offsets(cols):
    cols["frame_offsets"][-1] += 1


def _bump_format(cols):
    meta = json.loads(cols["meta"].item())
    meta["format"] += 1
    cols["meta"] = np.array(json.dumps(meta))


@pytest.mark.parametrize("corrupt, message", [
    (_drop_dev2, "missing"),
    (_shift_offsets, "disagree with offsets"),
    (_bump_format, "format"),
])
def test_load_run_rejects_a_damaged_record(tmp_path, grid, fit, corrupt,
                                           message):
    save_run(short_run(grid, fit, duration=1.0), tmp_path)
    path = tmp_path / "trace.npz"
    with np.load(path) as npz:
        cols = dict(npz)
    corrupt(cols)
    np.savez(path, **cols)
    with pytest.raises(ValueError, match=message):
        load_run(tmp_path)
