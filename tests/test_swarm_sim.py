"""Swarm simulation tests: command broadcast, injection, collisions,
determinism, bookkeeping, and the run record round trip."""

import json
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fluidswarm import (PlantParams, SimConfig, build_command_table,
                        detect_collisions, injection_rate, load_run,
                        population_balance, resolve_collisions,
                        run_simulation, save_run, swarm_sim)
from fluidswarm.partition import ControlVolumeGrid, assign_cell, partition_domain
from fluidswarm.swarm_sim import entry_cell, make_batch, seed_tunnel
from fluidswarm.velocity_plant import PlantState, step as plant_step

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


def dense_nearest_table(grid, fit, scale):
    """Reference table: the dense nearest search over every fitted cell,
    one 256-row block of lattice cells at a time (argmin ties go to the
    lowest index)."""
    fitted = np.array(sorted(fit.results), dtype=np.int64)
    means = np.stack([fit.results[int(f)].command for f in fitted])
    centers = grid.centers()
    sources = centers[fitted]
    nearest = np.empty(len(centers), dtype=np.int64)
    for lo in range(0, len(centers), 256):
        diff = centers[lo:lo + 256, None, :] - sources[None, :, :]
        nearest[lo:lo + 256] = np.argmin(
            np.einsum("mfk,mfk->mf", diff, diff), axis=1)
    return scale * means[nearest]


def fit_of(commands: dict):
    """The part of a GridFit the command table reads: flat -> command."""
    return SimpleNamespace(results={int(f): SimpleNamespace(command=c)
                                    for f, c in commands.items()})


def test_command_table_equals_the_dense_nearest_search(field, grid, fit):
    lattices = [(grid, fit)]
    for edge in (0.25, 0.3):
        # every valid cell fitted, flying its target; 0.3 m is not a binary
        # fraction, so the centers' distances carry rounding
        g = partition_domain(field, edge_length=edge)
        lattices.append(
            (g, fit_of({f: g.v_target[f] for f in np.flatnonzero(g.valid)})))
    for g, f in lattices:
        assert g.num_cells > 256  # more than one block of rows
        assert len(f.results) < g.num_cells
        assert np.array_equal(build_command_table(g, f, 0.1),
                              dense_nearest_table(g, f, 0.1)), g.edge_length


@pytest.mark.parametrize("pattern", ["checkerboard", "corners"])
def test_equidistant_fitted_cells_lend_the_lowest_index(pattern):
    # unit cells from the origin: every center and distance is exact
    dims = (5, 7, 5)
    m = int(np.prod(dims))
    grid = ControlVolumeGrid(
        origin=np.zeros(3), edge_length=1.0, dims=dims,
        inside=np.ones(m, dtype=bool), node_count=np.ones(m, dtype=np.int64),
        v_target=np.zeros((m, 3)), p_target=np.zeros(m), rho_target=np.zeros(m))
    idx = grid.unravel(np.arange(m))
    if pattern == "checkerboard":   # an unfitted cell has up to 6 at 1 edge
        fitted = np.flatnonzero(idx.sum(axis=1) % 2 == 0)
    else:                           # the lattice's 8 corners
        corners = (idx == 0) | (idx == np.array(dims) - 1)
        fitted = np.flatnonzero(corners.all(axis=1))
    # exact integer squared distances in cell units; the first minimum is
    # the lowest fitted index
    d2 = ((idx[:, None, :] - idx[None, fitted, :]) ** 2).sum(axis=2)
    tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1)
    assert tied.max() >= (6 if pattern == "checkerboard" else 8)
    want = fitted[np.argmin(d2, axis=1)]
    table = build_command_table(
        grid, fit_of({f: np.array([f, 0.0, 0.0]) for f in fitted}), 1.0)
    assert np.array_equal(table[:, 0], want)


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


def per_pair_collisions(pos, vel, config, reasons=None):
    """Reference detector: one pair at a time, as ``detect_collisions`` was
    written before its array pass. ``reasons`` tallies each rejection."""
    reasons = Counter() if reasons is None else reasons
    if len(pos) < 2:
        return []
    pairs = cKDTree(pos).query_pairs(2.0 * config.collision_radius,
                                     output_type="ndarray")
    if len(pairs) == 0:
        return []
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    out = []
    for a, b in pairs:
        dx = pos[b] - pos[a]
        dist = np.linalg.norm(dx)
        if dist <= 1e-12:
            reasons["coincident"] += 1
            continue
        closing = float((vel[a] - vel[b]) @ (dx / dist))
        if closing <= config.min_approach_speed:
            reasons["separating" if closing <= 0.0 else "under_floor"] += 1
            continue
        sa, sb = np.linalg.norm(vel[a]), np.linalg.norm(vel[b])
        if sa < 1e-9 or sb < 1e-9:
            reasons["zero_speed"] += 1
            continue
        align = float(vel[a] @ vel[b]) / (sa * sb)
        if align > config.overtake_cos:
            kind = "overtake"
        elif abs(align) >= config.headon_cos:
            kind = "headon"
        else:
            kind = "sideswipe"
        out.append((int(a), int(b), kind))
    return out


def dense_cloud(seed, n=300):
    """Agents in a 1.2 m cube with random headings and speeds up to 3 m/s;
    ten sit on another agent's position and ten are parked."""
    rng = np.random.default_rng(seed)
    pos = 1.2 * rng.random((n, 3))
    pos[-10:] = pos[:10]
    heading = rng.normal(size=(n, 3))
    heading /= np.linalg.norm(heading, axis=1, keepdims=True)
    vel = heading * rng.uniform(0.0, 3.0, (n, 1))
    vel[rng.choice(n, 10, replace=False)] = 0.0
    return pos, vel


@pytest.mark.parametrize("config", [CFG, replace(CFG, min_approach_speed=0.02),
                                    replace(CFG, collision_radius=0.25,
                                            min_approach_speed=0.0)],
                         ids=["defaults", "floor_0.02", "radius_0.25_floor_0"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_detection_equals_the_per_pair_loop(seed, config):
    pos, vel = dense_cloud(seed)
    reasons = Counter()
    expected = per_pair_collisions(pos, vel, config, reasons)
    assert detect_collisions(pos, vel, config) == expected
    # the cloud reaches every kind and every rejection the loop has
    assert {k for _, _, k in expected} == {"overtake", "headon", "sideswipe"}
    rejections = {"coincident", "separating", "under_floor", "zero_speed"}
    if config.min_approach_speed == 0.0:
        rejections.discard("under_floor")   # no closing speed is under 0
    assert set(reasons) == rejections
    # a NaN velocity passes every test and lands in the last class, as before
    vel[7] = np.nan
    assert detect_collisions(pos, vel, config) \
        == per_pair_collisions(pos, vel, config)


def test_thresholds_on_a_pair_value_split_the_same_way():
    # each threshold sits exactly on one pair's own closing speed or
    # alignment, where a last-bit difference in that value flips the pair
    pos, vel = dense_cloud(0, n=120)
    for a, b, _ in per_pair_collisions(pos, vel, CFG)[:30]:
        dx = pos[b] - pos[a]
        closing = float((vel[a] - vel[b]) @ (dx / np.linalg.norm(dx)))
        align = float(vel[a] @ vel[b]) / (np.linalg.norm(vel[a])
                                          * np.linalg.norm(vel[b]))
        for config in (replace(CFG, min_approach_speed=closing),
                       replace(CFG, overtake_cos=align),
                       replace(CFG, headon_cos=abs(align))):
            assert detect_collisions(pos, vel, config) \
                == per_pair_collisions(pos, vel, config)


def test_overtake_conserves_the_speed_sum():
    vel = np.array([[3.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    applied = resolve_collisions(vel, [(0, 1, "overtake")])
    assert applied == [(0, 1, "overtake")]
    # 25% of the 2 m/s gap moves from fast to slow
    assert np.allclose(vel, [[2.5, 0.0, 0.0], [1.5, 0.0, 0.0]])


def test_mutual_collisions_dissipate_energy():
    vel = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    resolve_collisions(vel, [(0, 1, "headon")])
    # 10% of pair kinetic energy gone, split evenly: speeds shrink by sqrt(0.9)
    assert np.allclose(np.abs(vel[:, 0]), 2.0 * np.sqrt(0.9), rtol=1e-12)
    vel = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    resolve_collisions(vel, [(0, 1, "sideswipe")])
    assert np.allclose(np.linalg.norm(vel, axis=1), 2.0 * np.sqrt(0.8),
                       rtol=1e-12)


def test_collisions_never_change_headings():
    rng = np.random.default_rng(6)
    vel = rng.normal(0.0, 5.0, (6, 3))
    before = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    resolve_collisions(vel, [(0, 1, "overtake"), (2, 3, "headon"),
                             (4, 5, "sideswipe")])
    after = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    assert np.allclose(after, before, atol=1e-12)


def test_collision_speed_clamp():
    vel = np.array([[100.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    resolve_collisions(vel, [(0, 1, "overtake")])
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


def test_collisions_fire_at_a_low_approach_floor(grid, fit, monkeypatch):
    # at the default 0.5 m/s floor no pair of this co-flowing run ever fires
    cfg = SimConfig(case="reservoir", duration=20.0, seed=0, batch_size=17,
                    collisions=True, min_approach_speed=0.02)
    trace = run_simulation(grid, fit, cfg)
    assert sum(e[1].startswith("collision") for e in trace.events) > 0
    assert population_balance(trace)["balanced"]
    monkeypatch.setattr(swarm_sim, "detect_collisions", per_pair_collisions)
    reference = run_simulation(grid, fit, cfg)
    assert frames_equal(trace.frames, reference.frames)
    assert trace.events == reference.events


def test_a_non_finite_agent_faults_without_ending_a_collision_run(
        grid, fit, monkeypatch):
    steps = []

    def poisoned_step(state, cmds, dt, params):
        out = plant_step(state, cmds, dt, params)
        if len(steps) == 20:
            out.velocity[0, 0] = np.nan
        steps.append(dt)
        return out

    monkeypatch.setattr(swarm_sim, "plant_step", poisoned_step)
    trace = short_run(grid, fit, seed=0, collisions=True)
    assert trace.faults == 1
    assert sum(e[1] == "fault" for e in trace.events) == 1
    assert population_balance(trace)["balanced"]


# ----------------------------------------------------------------------
# the compact loop against the full-scan loop
# ----------------------------------------------------------------------

class FullScanPopulation:
    """Every agent ever injected, with an ``active`` flag; each batch
    stacks the whole population again."""

    def __init__(self):
        self.pos = np.empty((0, 3))
        self.vel = np.empty((0, 3))
        self.thr = np.empty((0, 3))
        self.active = np.empty(0, dtype=bool)
        self.escaped = np.empty(0, dtype=bool)

    def append(self, pos, vel, thr) -> np.ndarray:
        start = len(self.pos)
        self.pos = np.vstack([self.pos, pos])
        self.vel = np.vstack([self.vel, vel])
        self.thr = np.vstack([self.thr, thr])
        n = len(pos)
        self.active = np.concatenate([self.active, np.ones(n, dtype=bool)])
        self.escaped = np.concatenate([self.escaped, np.zeros(n, dtype=bool)])
        return np.arange(start, start + n)


def full_scan_record_frame(pop, grid):
    act = np.flatnonzero(pop.active)
    if len(act) == 0:
        z = np.empty(0)
        return swarm_sim.FrameRecord(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty((0, 3)), z, z.copy())
    flat = assign_cell(pop.pos[act], grid)
    order = np.argsort(flat, kind="stable")
    flat_s = flat[order]
    cells, start = np.unique(flat_s, return_index=True)
    counts = np.diff(np.append(start, len(flat_s))).astype(np.int64)
    vel = pop.vel[act][order]
    vsum = np.add.reduceat(vel, start, axis=0)
    sumv2 = np.add.reduceat(np.einsum("ij,ij->i", vel, vel), start)
    tgt = grid.v_target[flat_s]
    d = vel - tgt
    dev2 = np.add.reduceat(np.einsum("ij,ij->i", d, d), start)
    return swarm_sim.FrameRecord(cells, counts, vsum, sumv2, dev2)


def full_scan_run(grid, fit, config):
    """Reference loop: ``run_simulation`` as it was written before the
    population held only active agents. Every frame bins all active agents
    for their commands and again for the frame record, and gathers and
    scatters them by index out of every agent ever injected. It steps and
    collides through the module's names, so a monkeypatch reaches both."""
    plant = PlantParams(mass=fit.config.agent_mass)
    table = build_command_table(grid, fit, config.scale)
    length = grid.geometry.length
    rate, cell0 = injection_rate(grid, fit)
    n_batch = config.batch_size if config.batch_size is not None \
        else max(1, int(round(rate * config.dt_source)))
    n_frames = int(round(config.duration / config.dt))
    trace = swarm_sim.SimulationTrace(
        config=config, plant=plant, dims=grid.dims,
        frame_t=(np.arange(n_frames) + 1) * config.dt,
        frames=[], events=[], command_table=table,
        injection_rate=rate, batch_size=n_batch,
        frame_counts=None)   # this loop kept no per-frame counts

    pop = FullScanPopulation()
    if config.case == "tunnel_seeding":
        pos, vel, thr = seed_tunnel(grid, fit, config, plant)
        ids = pop.append(pos, vel, thr)
        trace.injected += len(ids)
        for i in ids:
            trace.events.append((0.0, "inject", int(i), -1))
    stride = max(1, int(round(config.dt_source / config.dt)))

    for k in range(n_frames):
        t = k * config.dt
        t_end = float(trace.frame_t[k])
        if config.case == "reservoir" and k % stride == 0:
            pos, vel, thr = make_batch(grid, fit, config, plant,
                                       k // stride, n_batch, cell0)
            ids = pop.append(pos, vel, thr)
            trace.injected += len(ids)
            for i in ids:
                trace.events.append((t, "inject", int(i), -1))

        act = np.flatnonzero(pop.active)
        if len(act):
            flat = assign_cell(pop.pos[act], grid)
            cmds = table[flat]
            state = swarm_sim.plant_step(
                PlantState(pop.vel[act], pop.thr[act]), cmds, config.dt, plant)
            pop.vel[act] = state.velocity
            pop.thr[act] = state.thrust_accel
            pop.pos[act] += state.velocity * config.dt

            if config.collisions:
                live = act[np.isfinite(pop.pos[act]).all(axis=1)
                           & np.isfinite(pop.vel[act]).all(axis=1)]
                sub_vel = pop.vel[live]
                pairs = swarm_sim.detect_collisions(pop.pos[live], sub_vel,
                                                    config)
                applied = swarm_sim.resolve_collisions(sub_vel, pairs)
                pop.vel[live] = sub_vel
                for a, b, kind in applied:
                    trace.events.append(
                        (t_end, f"collision_{kind}", int(live[a]), int(live[b])))

            p = pop.pos[act]
            in_span = (p[:, 0] >= 0.0) & (p[:, 0] <= length)
            rad = grid.geometry.radius(np.clip(p[:, 0], 0.0, length))
            outside = in_span & (p[:, 1] ** 2 + p[:, 2] ** 2 > rad * rad) \
                & ~pop.escaped[act]
            for i in act[outside]:
                trace.events.append((t_end, "wall_escape", int(i), -1))
            pop.escaped[act[outside]] = True
            trace.escaped += int(outside.sum())

            bad = ~np.isfinite(pop.pos[act]).all(axis=1) \
                | ~np.isfinite(pop.vel[act]).all(axis=1)
            for i in act[bad]:
                trace.events.append((t_end, "fault", int(i), -1))
            pop.active[act[bad]] = False
            trace.faults += int(bad.sum())

            act = np.flatnonzero(pop.active)
            gone = pop.pos[act, 0] > length
            for i in act[gone]:
                trace.events.append((t_end, "retire", int(i), -1))
            pop.active[act[gone]] = False
            trace.retired += int(gone.sum())

        trace.frames.append(full_scan_record_frame(pop, grid))
        if config.record_trajectories and k % config.trajectory_stride == 0:
            act = np.flatnonzero(pop.active)
            trace.trajectories.append(
                (t_end, act.copy(), pop.pos[act].copy(), pop.vel[act].copy()))
    return trace


def frame_counts_from_events(trace):
    """Per-frame counts rebuilt from the event log: injections carry the
    frame's start time, every other event its end time."""
    start = {k * trace.config.dt: k for k in range(len(trace.frame_t))}
    end = {t: k for k, t in enumerate(trace.frame_t.tolist())}
    column = {"inject": 0, "retire": 1, "wall_escape": 2, "fault": 3}
    counts = np.zeros((len(trace.frame_t), 5), dtype=np.int64)
    for t, kind, _, _ in trace.events:
        k = start[t] if kind == "inject" else end[t]
        counts[k, column.get(kind, 4)] += 1
    return counts


def poisoned_plant(at_call):
    """``plant_step`` that turns the middle agent's velocity NaN on call
    ``at_call``; a new counter for each run."""
    calls = []

    def step(state, cmds, dt, params):
        out = plant_step(state, cmds, dt, params)
        if len(calls) == at_call:
            out.velocity[len(out.velocity) // 2, 1] = np.nan
        calls.append(dt)
        return out
    return step


LOOP_CASES = {
    "reservoir": SimConfig(duration=30.0, seed=6),
    "tunnel": SimConfig(case="tunnel_seeding", duration=20.0, seed=1,
                        record_trajectories=True, trajectory_stride=7),
    "collisions": SimConfig(duration=30.0, seed=0, batch_size=17,
                            collisions=True, min_approach_speed=0.02),
    "fault": SimConfig(duration=30.0, seed=2),
}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_compact_loop_equals_the_full_scan_loop(grid, fit, monkeypatch, case):
    config = LOOP_CASES[case]
    runs = []
    for run in (run_simulation, full_scan_run):
        if case == "fault":
            monkeypatch.setattr(swarm_sim, "plant_step", poisoned_plant(100))
        runs.append(run(grid, fit, config))
    new, ref = runs
    assert frames_equal(new.frames, ref.frames)
    assert new.events == ref.events
    totals = ("injected", "retired", "escaped", "faults")
    assert [getattr(new, k) for k in totals] == [getattr(ref, k) for k in totals]
    assert len(new.trajectories) == len(ref.trajectories)
    for sa, sb in zip(new.trajectories, ref.trajectories):
        assert sa[0] == sb[0]
        assert all(np.array_equal(x, y) for x, y in zip(sa[1:], sb[1:]))
    assert population_balance(new)["balanced"]

    # per-frame counters: the reference's events frame by frame, and
    # column sums equal to the totals
    assert new.frame_counts.dtype == np.int64
    assert np.array_equal(new.frame_counts, frame_counts_from_events(ref))
    collisions = sum(e[1].startswith("collision") for e in ref.events)
    assert new.frame_counts.sum(axis=0).tolist() == \
        [getattr(ref, k) for k in totals] + [collisions]

    # each case exercises what it names
    kinds = Counter(e[1] for e in ref.events)
    assert kinds["inject"] > 0 and kinds["retire"] > 0
    if case == "tunnel":
        assert len(ref.trajectories) > 1
    if case == "collisions":
        assert collisions > 0
    if case == "fault":
        assert ref.faults == 1
        fault_t = next(e[0] for e in ref.events if e[1] == "fault")
        assert any(e[1] == "retire" and e[0] > fault_t for e in ref.events)


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
    assert back.frame_counts.dtype == trace.frame_counts.dtype
    assert np.array_equal(back.frame_counts, trace.frame_counts)
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


def _set_format(cols, fmt):
    meta = json.loads(cols["meta"].item())
    meta["format"] = fmt
    cols["meta"] = np.array(json.dumps(meta))


def _bump_format(cols):
    _set_format(cols, json.loads(cols["meta"].item())["format"] + 1)


def _format_2(cols):
    # the layout before the per-frame counts
    del cols["frame_counts"]
    _set_format(cols, 2)


def _format_3(cols):
    # the layout whose config still held the collision response knobs
    meta = json.loads(cols["meta"].item())
    meta["config"].update(overtake_transfer=0.25, headon_dissipation=0.1,
                          perp_dissipation=0.2, speed_limit=30.0)
    cols["meta"] = np.array(json.dumps(meta))
    _set_format(cols, 3)


def _drop_a_frame_count(cols):
    cols["frame_counts"] = cols["frame_counts"][1:]


def _miscount_retired(cols):
    meta = json.loads(cols["meta"].item())
    meta["retired"] += 1
    cols["meta"] = np.array(json.dumps(meta))


@pytest.mark.parametrize("corrupt, message", [
    (_drop_dev2, "missing"),
    (_shift_offsets, "disagree with offsets"),
    (_bump_format, "format"),
    (_format_2, "missing"),
    (_format_3, "format 3, expected 4"),
    (_drop_a_frame_count, "frame_counts has shape"),
    (_miscount_retired, r"totals \['retired'\] differ"),
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
