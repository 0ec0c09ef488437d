"""Swarm simulation tests: command broadcast, injection, collisions,
determinism, bookkeeping, and the run record round trip."""

import io
import itertools
import json
import tracemalloc
import zipfile
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fluidswarm import (PlantParams, SimConfig, build_command_table,
                        detect_collisions, injection_rate, load_run,
                        plant_suite, population_balance, resolve_collisions,
                        run_simulation, save_run, swarm_sim)
from fluidswarm.partition import ControlVolumeGrid, assign_cell, partition_domain
from fluidswarm.swarm_sim import (EVENT_KINDS, EventTable, close_pairs,
                                  entry_cell, make_batch, seed_tunnel)
from fluidswarm.velocity_fit import FitConfig, FitResult, GridFit
from fluidswarm.velocity_plant import PlantState, step as plant_step
from reference import collision_block

CFG = SimConfig()  # collision thresholds at their defaults


def n_events(trace, kind):
    """Rows of the trace's event table of the named kind."""
    return int(np.count_nonzero(trace.events.kind == EVENT_KINDS.index(kind)))


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
    """A fit whose cell f holds the one-velocity set ``commands[f]``, so
    that its command (the set mean) is ``commands[f]``."""
    return GridFit(results={int(f): FitResult(1, np.reshape(c, (1, 3)))
                            for f, c in commands.items()},
                   pressure_offset=0.0, config=FitConfig())


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


def kdtree_command_table(grid, fit, scale):
    """Reference table: the KD-tree search ``build_command_table`` used
    before its shell walk. Each cell's nearest distance ``d`` gives the
    candidates within ``d * (1 + 1e-9)``; their squared distances, then the
    lowest index, pick the winner."""
    fitted = np.array(sorted(fit.results), dtype=np.int64)
    means = np.stack([fit.results[int(f)].command for f in fitted])
    centers = grid.centers()
    sources = centers[fitted]
    tree = cKDTree(sources)
    d, _ = tree.query(centers)
    near = tree.query_ball_point(centers, d * (1.0 + 1e-9),
                                 return_sorted=True)
    rows = np.repeat(np.arange(len(centers)), [len(c) for c in near])
    cand = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64,
                       count=len(rows))
    diff = centers[rows] - sources[cand]
    d2 = np.einsum("mk,mk->m", diff, diff)
    order = np.lexsort((cand, d2, rows))
    first = np.flatnonzero(np.diff(rows[order], prepend=-1))
    return scale * means[cand[order[first]]]


def test_the_shell_walk_equals_the_kdtree_table(field, grid, fit):
    fine = partition_domain(field, edge_length=0.25)
    fitted = np.flatnonzero(grid.valid)
    few = np.random.default_rng(3).choice(fitted, size=4, replace=False)
    cases = [
        (grid, fit),
        (fine, fit_of({f: fine.v_target[f]
                       for f in np.flatnonzero(fine.valid)})),
        # four fitted cells: most cells walk many shells to reach one
        (grid, fit_of({f: fit.results[f].command for f in few})),
    ]
    for g, f in cases:
        assert np.array_equal(build_command_table(g, f, 0.1),
                              kdtree_command_table(g, f, 0.1)), len(f.results)


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


@pytest.mark.parametrize("seed", [4, 2 ** 33 + 1])
def test_seed_tunnel_equals_per_cell_default_rng_seeding(grid, fit, seed):
    """Cell f's agents are placed from default_rng((seed, 2, f)), cell by
    cell in ascending order, as a per-cell construction places them."""
    cfg = SimConfig(case="tunnel_seeding", seed=seed, seed_x_max=6.0)
    centers = grid.centers()
    pos_list, vel_list = [], []
    for f in sorted(fit.results):
        if centers[f, 0] > cfg.seed_x_max:
            continue
        res = fit.results[f]
        rng = np.random.default_rng((seed, 2, f))
        lo = grid.origin + grid.unravel([f])[0] * grid.edge_length
        pos_list.append(lo + rng.random((res.n_star, 3)) * grid.edge_length)
        vel_list.append(np.tile(cfg.scale * res.command, (res.n_star, 1)))
    pos, vel, thr = seed_tunnel(grid, fit, cfg, PlantParams())
    assert np.array_equal(pos, np.vstack(pos_list))
    assert np.array_equal(vel, np.vstack(vel_list))
    assert np.array_equal(thr, np.tile([0.0, 0.0, -PlantParams().gravity],
                                       (len(pos), 1)))


def test_seed_tunnel_respects_the_axial_bound(grid, fit):
    cfg = SimConfig(case="tunnel_seeding", seed_x_max=3.0)
    pos, _, _ = seed_tunnel(grid, fit, cfg, PlantParams())
    # cells qualify by center, so positions reach half an edge past the bound
    assert pos[:, 0].max() <= 3.0 + 0.5 * grid.edge_length
    below = SimConfig(case="tunnel_seeding", seed_x_max=-1.0)
    with pytest.raises(ValueError, match="no cells"):
        seed_tunnel(grid, fit, below, PlantParams())


def test_seed_tunnel_fills_to_the_middle_of_the_span_without_geometry():
    """On a lattice with no geometry the span is the lattice's axial extent,
    [-2, 4] here, whose end is the retire plane: the fill stops at its
    middle."""
    dims = (12, 2, 2)
    m = int(np.prod(dims))
    grid = ControlVolumeGrid.empty(np.array([-2.0, -0.5, -0.5]), 0.5, dims)
    grid.inside[:] = True
    fit = fit_of({f: np.array([1.0, 0.0, 0.0]) for f in range(m)})
    pos, _, _ = seed_tunnel(grid, fit, SimConfig(case="tunnel_seeding"),
                            PlantParams())
    centers = grid.centers()[:, 0]
    want = np.flatnonzero(centers <= 1.0)
    assert len(want) == 6 * 4 and centers[want].max() == 0.75
    assert np.array_equal(np.unique(assign_cell(pos, grid)), want)
    assert len(pos) == len(want)
    assert swarm_sim.axial_span(grid) == (-2.0, 4.0)


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


# ----------------------------------------------------------------------
# the pair search against the KD-tree
# ----------------------------------------------------------------------

def tree_pairs(pos, bound):
    """Reference pair search: ``cKDTree.query_pairs`` in (a, b) order."""
    if len(pos) < 2:
        return np.empty((0, 2), dtype=np.int64)
    pairs = cKDTree(pos).query_pairs(bound, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def found_pairs(pos, bound):
    """``close_pairs`` as (M, 2) rows, after checking it equals the tree."""
    pairs = np.column_stack(close_pairs(np.asarray(pos, dtype=float), bound))
    assert np.array_equal(pairs, tree_pairs(pos, bound))
    return pairs


@pytest.mark.parametrize("radius", [0.15, 0.25, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_search_equals_query_pairs_on_dense_clouds(seed, radius):
    pos, _ = dense_cloud(seed)
    assert len(found_pairs(pos, 2.0 * radius)) > 0


def test_pair_search_equals_query_pairs_on_every_frame_of_a_run(
        grid, fit, monkeypatch):
    checked = []

    def checked_detect(pos, vel, config):
        checked.append(len(found_pairs(pos, 2.0 * config.collision_radius)))
        return detect_collisions(pos, vel, config)

    monkeypatch.setattr(swarm_sim, "detect_collisions", checked_detect)
    run_simulation(grid, fit, SimConfig(duration=10.0, seed=5, batch_size=17,
                                        collisions=True))
    assert len(checked) == 200 and sum(checked) > 1000


@pytest.mark.parametrize("direction",
                         [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                         ids=["x", "y", "z", "diagonal"])
def test_pairs_at_the_bound_and_one_ulp_either_side(direction):
    bound = 0.3
    unit = np.array(direction) / np.linalg.norm(direction)
    axis = int(np.argmax(unit))
    for a in ([0.0, 0.0, 0.0], [1.7, -2.3, 0.45]):
        b = a + bound * unit
        for step in (-np.inf, None, np.inf):
            other = b.copy()
            if step is not None:     # one ulp nearer or farther
                other[axis] = np.nextafter(other[axis], step)
            found_pairs([a, other], bound)
    # on the axis from the origin the distance is exactly the bound
    if unit.max() == 1.0:
        b = bound * unit
        assert len(found_pairs([np.zeros(3), b], bound)) == 1
        b[axis] = np.nextafter(bound, np.inf)
        assert len(found_pairs([np.zeros(3), b], bound)) == 0
    # pairs the bound apart, a few ulps either side of every cube face the
    # search could draw: faces lie near multiples of the bound from the
    # lowest agent, here an anchor whose offset rounds
    for anchor, k, ulps in itertools.product((-7.3, -1000.37), range(1, 65),
                                             range(-3, 4)):
        a = anchor + unit * k * bound
        a[axis] += ulps * np.spacing(a[axis])
        found_pairs([np.full(3, anchor), a, a + bound * unit], bound)


def test_agents_on_cube_faces_and_at_negative_coordinates():
    bound = 0.25
    # a lattice of spacing exactly the bound: every neighbour is a pair
    idx = np.stack(np.meshgrid(*[np.arange(-4, 3)] * 3, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    lattice = idx * bound - 3.0
    assert len(found_pairs(lattice, bound)) == 3 * 6 * 7 * 7
    rng = np.random.default_rng(4)
    cloud = -5.0 + 1.5 * rng.random((400, 3))
    assert len(found_pairs(cloud, bound)) > 0
    assert len(found_pairs(np.vstack([lattice, cloud]), bound)) > 0


def test_coincident_agents_pair_with_each_other():
    rng = np.random.default_rng(6)
    pos = rng.random((30, 3))
    pos[[3, 9, 17, 28]] = pos[11]
    pairs = found_pairs(pos, 0.05)
    coincident = {(3, 9), (3, 11), (3, 17), (3, 28), (9, 11), (9, 17),
                  (9, 28), (11, 17), (11, 28), (17, 28)}
    assert coincident <= set(map(tuple, pairs.tolist()))
    vel = rng.normal(size=(30, 3))
    # coincident pairs have no direction, so none of them collides
    assert not coincident & {(a, b) for a, b, _ in
                             detect_collisions(pos, vel, CFG)}


def test_pair_search_with_zero_one_and_two_agents():
    for n in (0, 1):
        assert len(found_pairs(np.zeros((n, 3)), 0.3)) == 0
        assert detect_collisions(np.zeros((n, 3)), np.zeros((n, 3)), CFG) == []
    assert found_pairs([[0.0, 0.0, 0.0], [0.1, 0.2, 0.0]], 0.3).tolist() \
        == [[0, 1]]
    assert len(found_pairs([[0.0, 0.0, 0.0], [0.1, 0.3, 0.0]], 0.3)) == 0


@pytest.mark.parametrize("far", [(1e6, 0, 0), (0, -1e6, 0), (0, 0, 1e6),
                                 (1e6, -1e6, 1e6)])
def test_a_far_agent_costs_no_lattice_sized_table(far):
    pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.05, 0.0], far])
    tracemalloc.start()
    try:
        pairs = found_pairs(pos, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.tolist() == [[0, 1]]
    assert peak < 16e6      # the search's table is capped, whatever the span


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_positions_raise(bad):
    pos, vel = dense_cloud(0, n=20)
    pos[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        detect_collisions(pos, vel, CFG)


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
    # the event table is in frame order
    assert np.all(np.diff(trace60.events.frame) >= 0)


def test_population_bookkeeping(trace60):
    bal = population_balance(trace60)
    assert bal["balanced"]
    assert bal["injected"] == n_events(trace60, "inject") > 0
    assert bal["retired"] == n_events(trace60, "retire") > 0
    assert bal["faults"] == n_events(trace60, "fault")


def test_every_frame_counts_every_active_agent(trace60):
    # retired + current == injected so far, frame by frame at the end
    last = trace60.frames[-1]
    total = trace60.totals
    assert int(last.counts.sum()) == total["inject"] - total["retire"] \
        - total["fault"]


def active_from_events(trace):
    """Active agents at the end of each frame from the event table alone."""
    counts = trace.frame_counts
    return np.cumsum(counts[:, swarm_sim.INJECT] - counts[:, swarm_sim.RETIRE]
                     - counts[:, swarm_sim.FAULT])


@pytest.mark.parametrize("faults", [0, 1])
def test_frame_active_follows_the_events_frame_by_frame(grid, fit,
                                                        monkeypatch, faults):
    if faults:
        monkeypatch.setattr(swarm_sim, "plant_step", poisoned_plant(30))
    # full command speed, so agents retire within the run
    trace = short_run(grid, fit, seed=2, scale=1.0)
    assert trace.totals["fault"] == faults and trace.totals["retire"] > 0
    active = trace.frame_active
    assert active.dtype == np.int64 and len(active) == len(trace.frame_t)
    assert np.array_equal(active, active_from_events(trace))
    assert population_balance(trace)["active"] == active[-1] > 0


def test_an_empty_frame_counts_no_active_agent(grid, fit):
    # at full command speed the seeded agents have all left the duct by
    # frame 50, and nobody enters after them
    trace = run_simulation(grid, fit, SimConfig(case="tunnel_seeding",
                                                duration=5.0, scale=1.0))
    empty = [len(r.cells) == 0 for r in trace.frames]
    assert empty[-1] and not empty[0]
    active = trace.frame_active
    assert np.array_equal(active == 0, empty)
    assert np.array_equal(active, active_from_events(trace))


def test_wall_escapes_are_logged_once(trace60):
    agents = trace60.events.a[
        trace60.events.kind == EVENT_KINDS.index("wall_escape")]
    assert len(agents) == trace60.totals["wall_escape"] > 0
    assert len(agents) == len(set(agents.tolist()))


def full_wall_test(pos, escaped, geo):
    """The wall test as it was written: ``radius`` for every agent."""
    x, y, z = pos
    in_span = (x >= 0.0) & (x <= geo.length)
    rad = geo.radius(x)
    return np.flatnonzero(in_span & (y ** 2 + z ** 2 > rad * rad) & ~escaped)


def test_the_throat_filter_finds_the_escapes_a_full_wall_test_finds(grid):
    """Agents at the throat radius and one ulp past it, on the wall and one
    ulp past it, at x = 0, the throat, the outlet and outside the span,
    already escaped, and with NaN or infinite components."""
    geo = grid.geometry
    th, tx, length = geo.throat_radius, geo.throat_x, geo.length
    xs = [0.0, np.nextafter(0.0, -1.0), tx, np.nextafter(tx, 0.0), 3.0,
          10.0, length, np.nextafter(length, np.inf), -0.5, length + 0.5]
    rows = []
    for x in xs:
        wall = float(geo.radius(x))
        for r in (th, np.nextafter(th, np.inf), np.nextafter(th, 0.0), wall,
                  np.nextafter(wall, np.inf), 1.1 * wall, 0.2):
            rows += [[x, r, 0.0], [x, 0.0, -r], [x, r / np.sqrt(2.0),
                                                 r / np.sqrt(2.0)]]
    rows += [[np.nan, 5.0, 0.0], [3.0, np.nan, 5.0], [3.0, 5.0, np.nan],
             [np.inf, 5.0, 0.0], [3.0, np.inf, 0.0], [-np.inf, 5.0, 0.0]]
    pos = np.ascontiguousarray(np.array(rows).T)
    rng = np.random.default_rng(8)
    for escaped in (np.zeros(pos.shape[1], dtype=bool),
                    rng.random(pos.shape[1]) < 0.3):
        want = full_wall_test(pos, escaped, geo)
        with np.errstate(invalid="ignore"):
            got = swarm_sim._through_wall(pos, escaped, geo)
        assert np.array_equal(got, want)
    # the cases reach both sides of the wall and of the throat bound
    assert 0 < len(want) < pos.shape[1] / 2
    r2 = pos[1] ** 2 + pos[2] ** 2
    assert np.any(r2 == th * th) and np.any(r2 == np.nextafter(th, 9) ** 2)


def test_einsum_sums_squares_in_the_order_the_frame_reduce_uses():
    """``_record_frame`` adds squared components as (x^2 + z^2) + y^2,
    the order in which ``einsum("ij,ij->i")`` sums (N, 3) rows in the numpy
    builds the frame records were first written with. A numpy that sums in
    another order fails here, naming the cause, where the compact-loop and
    frame-reduce tests would only show unequal frames."""
    rng = np.random.default_rng(13)
    v = rng.normal(size=(4000, 3)) * 10.0 ** rng.integers(-8, 8, (4000, 3))
    x2, y2, z2 = (v * v).T
    want = (x2 + z2) + y2
    assert np.any(want != (x2 + y2) + z2) and np.any(want != x2 + (y2 + z2))
    got = np.einsum("ij,ij->i", v, v)
    assert np.array_equal(got, want), (
        "einsum('ij,ij->i') no longer sums (x^2 + z^2) + y^2 in this numpy; "
        "_record_frame's |v|^2 and |v - v_target|^2 rows then differ from "
        "frame records written with einsum")


def test_vecdot_along_axis_0_sums_as_on_rows():
    """``detect_collisions`` takes its dot products with ``np.vecdot`` on
    (3, M) component rows along axis 0, and pins their values to the
    per-pair form's, which ``np.vecdot`` on (M, 3) rows equals. No sum
    written out by hand matches them: the rows product is not a plain
    left-to-right sum. A numpy whose axis-0 vecdot sums otherwise fails
    here, naming the cause, where the detection tests would only show
    other pairs."""
    rng = np.random.default_rng(17)
    u = rng.normal(size=(200_000, 3)) * 10.0 ** rng.integers(-8, 8, (200_000, 3))
    v = rng.normal(size=(200_000, 3))
    want = np.vecdot(u, v)
    x, y, z = (u * v).T
    assert all(np.any(want != s) for s in ((x + y) + z, (x + z) + y, x + (y + z)))
    got = np.vecdot(np.ascontiguousarray(u.T), np.ascontiguousarray(v.T), axis=0)
    assert np.array_equal(got, want), (
        "np.vecdot(..., axis=0) on (3, M) rows no longer sums as np.vecdot "
        "on (M, 3) rows in this numpy; detect_collisions' distances, closing "
        "speeds and alignments then differ from the per-pair form's")


def test_the_layers_perfbench_times_are_called_through_module_names(
        grid, fit, monkeypatch):
    """The benchmark times the loop's layers by wrapping module attributes:
    binning (``assign_cell``, once per frame and once per batch), the plant
    (``plant_step``, once per frame), the frame reduction
    (``_record_frame``, once per frame), the injection
    (``_Population.append``, once per batch) and the suite's plant
    (``plant_suite.step``). A loop that stops calling one of them fails
    here instead of reporting a layer as zero."""
    calls = Counter()

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("assign_cell", "plant_step", "_record_frame"):
        counted(swarm_sim, name)
    counted(swarm_sim._Population, "append")
    config = SimConfig(duration=3.0, seed=2)
    trace = run_simulation(grid, fit, config)
    frames = len(trace.frame_t)
    batches = -(-frames // round(config.dt_source / config.dt))
    assert len(trace.frames[-1].cells) > 0
    assert dict(calls) == {"assign_cell": frames + batches,
                           "plant_step": frames, "_record_frame": frames,
                           "append": batches}

    counted(plant_suite, "step")
    out = plant_suite.hover_hold(duration=1.0, dt=0.01)
    assert calls["step"] == 100 and out["drift_error"] < 1e-3


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
    seeded = (trace.events.kind == EVENT_KINDS.index("inject")) \
        & (trace.events.frame == 0)
    assert trace.totals["inject"] == np.count_nonzero(seeded) > 0
    assert population_balance(trace)["balanced"]


def test_collisions_fire_at_a_low_approach_floor(grid, fit, monkeypatch):
    # at the default 0.5 m/s floor no pair of this co-flowing run ever fires
    cfg = SimConfig(case="reservoir", duration=20.0, seed=0, batch_size=17,
                    collisions=True, min_approach_speed=0.02)
    trace = run_simulation(grid, fit, cfg)
    assert population_balance(trace)["balanced"]
    assert set(trace.events.kind.tolist()) <= set(range(len(EVENT_KINDS)))
    overtakes = trace.totals["collision_overtake"]
    assert overtakes > 0
    assert overtakes == n_events(trace, "collision_overtake")
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
    assert trace.totals["fault"] == n_events(trace, "fault") == 1
    assert population_balance(trace)["balanced"]


@pytest.mark.parametrize("floor", [0.5, 0.05, 0.02, 0.0])
def test_the_collision_pass_equals_the_copying_block(grid, fit, monkeypatch,
                                                     floor):
    """The collide workload's run (60 s, batch 17, seed 0) at four
    approach floors, from none applied to 185,688 overtakes: frames and
    events equal those of the block that copied the live agents out and
    back and detected on (M, 3) pair rows."""
    config = SimConfig(duration=60.0, seed=0, batch_size=17, collisions=True,
                       min_approach_speed=floor)
    trace = run_simulation(grid, fit, config)
    monkeypatch.setattr(swarm_sim, "_collide", collision_block)
    ref = run_simulation(grid, fit, config)
    assert frames_equal(trace.frames, ref.frames)
    assert trace.events == ref.events
    assert (trace.totals["collision_overtake"] > 0) == (floor < 0.5)


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


def test_frame_reduce_equals_the_per_column_sums_on_crowded_cells(grid, fit):
    """One ``reduceat`` over the (5, N) block gives the per-column sums bit
    for bit where numpy's pairwise summation takes over (9 or more agents
    in a cell) and where it splits blocks (over 128): the tunnel case seeds
    n* = 9 agents per cell, and one more cell holds 300."""
    pos, _, thr = seed_tunnel(grid, fit, SimConfig(case="tunnel_seeding"),
                              PlantParams())
    centers = grid.centers()
    rng = np.random.default_rng(21)
    pos = np.vstack([pos, centers[int(np.argmax(grid.valid))]
                     + rng.uniform(-0.2, 0.2, (300, 3))])
    # magnitudes over 12 decades, so the order of the additions shows
    vel = rng.normal(size=pos.shape) * 10.0 ** rng.integers(-6, 6, pos.shape)
    thr = np.vstack([thr, thr[:300]])
    pop = swarm_sim._Population()
    pop.append(pos, vel, thr, assign_cell(pos, grid))
    ref = FullScanPopulation()
    ref.append(pos, vel, thr)
    got = swarm_sim._record_frame(pop, grid,
                                  np.ascontiguousarray(grid.v_target.T),
                                  swarm_sim._FrameChunks())
    want = full_scan_record_frame(ref, grid)
    assert np.count_nonzero(got.counts >= 9) > 10 and got.counts.max() >= 300
    assert frames_equal([got], [want])


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
    # the trace as this loop kept it: a (t, kind, a, b) event log and totals
    trace = SimpleNamespace(
        config=config, frame_t=(np.arange(n_frames) + 1) * config.dt,
        frames=[], events=[], trajectories=[],
        injected=0, retired=0, escaped=0, faults=0)

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


def log_frames(trace):
    """Frames of the reference log's events: injections carry the frame's
    start time, every other event its end time."""
    start = {k * trace.config.dt: k for k in range(len(trace.frame_t))}
    end = {t: k for k, t in enumerate(trace.frame_t.tolist())}
    return [start[t] if kind == "inject" else end[t]
            for t, kind, _, _ in trace.events]


def event_table_from_log(trace):
    """The reference loop's (t, kind, a, b) log as an event table."""
    rows = [(k, EVENT_KINDS.index(kind), a, b)
            for k, (_, kind, a, b) in zip(log_frames(trace), trace.events)]
    return EventTable(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def frame_counts_from_events(trace):
    """Per-frame counts rebuilt from the reference log, columns injected,
    retired, escaped, faulted and collisions of any kind."""
    column = {"inject": 0, "retire": 1, "wall_escape": 2, "fault": 3}
    counts = np.zeros((len(trace.frame_t), 5), dtype=np.int64)
    for k, (_, kind, _, _) in zip(log_frames(trace), trace.events):
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


def test_losing_agents_changes_no_other_agent(grid, fit, monkeypatch):
    """With collisions off no agent reads another's state: a tenth of the
    agents faulted mid-run leave every other agent's snapshots, and every
    injection, bitwise equal to the clean run's."""
    config = SimConfig(duration=20.0, seed=0, record_trajectories=True,
                       trajectory_stride=1)
    clean = run_simulation(grid, fit, config)
    calls = []

    def step(state, cmds, dt, params):
        out = plant_step(state, cmds, dt, params)
        if len(calls) == 200:                    # frame 200 of 400
            out.velocity[::10, 0] = np.nan
        calls.append(dt)
        return out

    monkeypatch.setattr(swarm_sim, "plant_step", step)
    lossy = run_simulation(grid, fit, config)
    fault = lossy.events.kind == EVENT_KINDS.index("fault")
    lost = lossy.events.a[fault]
    assert len(lost) > 10 and set(lossy.events.frame[fault].tolist()) == {200}

    def event_rows(trace, kind=None):
        e = trace.events
        rows = np.column_stack([e.frame, e.kind, e.a, e.b])
        if kind is not None:
            return rows[e.kind == EVENT_KINDS.index(kind)]
        return rows[~np.isin(e.a, lost) & (e.kind != EVENT_KINDS.index("fault"))]

    assert np.array_equal(event_rows(lossy, "inject"), event_rows(clean, "inject"))
    # the other agents' retirements and wall escapes are the clean run's too
    assert np.array_equal(event_rows(lossy), event_rows(clean))
    assert len(lossy.trajectories) == len(clean.trajectories) == 400
    snapshots = 0
    for (t0, gid0, pos0, vel0), (t1, gid1, pos1, vel1) in zip(
            clean.trajectories, lossy.trajectories):
        assert t0 == t1
        keep0, keep1 = ~np.isin(gid0, lost), ~np.isin(gid1, lost)
        assert np.array_equal(gid0[keep0], gid1[keep1])
        assert np.array_equal(pos0[keep0], pos1[keep1])
        assert np.array_equal(vel0[keep0], vel1[keep1])
        snapshots += int(keep1.sum())
    assert snapshots > 100_000


# the first frame of the fault case in which agents retire: its fault and
# retirements land in one frame, so their order within the frame is tested
FAULT_CALL = 496
# a frame of the collision case in which agents overtake and retire: a
# fault there sends the frame's collisions through the copying path
COLLISION_FAULT_CALL = 500

LOOP_CASES = {
    "reservoir": SimConfig(duration=30.0, seed=6),
    "tunnel": SimConfig(case="tunnel_seeding", duration=20.0, seed=1,
                        record_trajectories=True, trajectory_stride=7),
    "collisions": SimConfig(duration=30.0, seed=0, batch_size=17,
                            collisions=True, min_approach_speed=0.02),
    "fault": SimConfig(duration=30.0, seed=2),
    "collision_fault": SimConfig(duration=30.0, seed=0, batch_size=17,
                                 collisions=True, min_approach_speed=0.02),
}
POISONED_CALL = {"fault": FAULT_CALL, "collision_fault": COLLISION_FAULT_CALL}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_compact_loop_equals_the_full_scan_loop(grid, fit, monkeypatch, case):
    config = LOOP_CASES[case]
    runs = []
    for run in (run_simulation, full_scan_run):
        if case in POISONED_CALL:
            monkeypatch.setattr(swarm_sim, "plant_step",
                                poisoned_plant(POISONED_CALL[case]))
        runs.append(run(grid, fit, config))
    new, ref = runs
    assert frames_equal(new.frames, ref.frames)
    # the event table is the reference log, row for row
    assert new.events == event_table_from_log(ref)
    assert new.events.kind.dtype == np.int64
    assert len(new.trajectories) == len(ref.trajectories)
    for sa, sb in zip(new.trajectories, ref.trajectories):
        assert sa[0] == sb[0]
        assert all(np.array_equal(x, y) for x, y in zip(sa[1:], sb[1:]))
    assert population_balance(new)["balanced"]

    # per-frame counters: the reference's events frame by frame, the
    # collision kinds summing to its one collision column, and totals
    # equal to the reference's
    counts, want = new.frame_counts, frame_counts_from_events(ref)
    assert counts.dtype == np.int64
    assert np.array_equal(counts[:, :4], want[:, :4])
    assert np.array_equal(counts[:, 4:].sum(axis=1), want[:, 4])
    totals = [new.totals[k] for k in ("inject", "retire", "wall_escape",
                                      "fault")]
    assert totals == [ref.injected, ref.retired, ref.escaped, ref.faults]
    collisions = int(want[:, 4].sum())

    # each case exercises what it names
    kinds = Counter(e[1] for e in ref.events)
    assert kinds["inject"] > 0 and kinds["retire"] > 0
    if case == "tunnel":
        assert len(ref.trajectories) > 1
    if case in ("collisions", "collision_fault"):
        assert collisions > 0
    if case == "collision_fault":
        assert ref.faults == 1
        frame = log_frames(ref)
        fault = next(f for f, e in zip(frame, ref.events) if e[1] == "fault")
        assert any(f == fault and e[1].startswith("collision_")
                   for f, e in zip(frame, ref.events))
    if case == "fault":
        assert ref.faults == 1
        fault_t = next(e[0] for e in ref.events if e[1] == "fault")
        retire_t = [e[0] for e in ref.events if e[1] == "retire"]
        assert fault_t in retire_t and max(retire_t) > fault_t


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(case="wind_tunnel")
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(scale=0.0)
    with pytest.raises(ValueError):
        SimConfig(duration=-1.0)
    with pytest.raises(ValueError, match="one frame"):
        SimConfig(duration=0.02)    # rounds to no 0.05 s frame
    assert SimConfig(duration=0.03).duration == 0.03   # rounds to one
    assert SimConfig(scale=1.5).scale == 1.5  # amplified commands are allowed
    for radius in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="collision_radius"):
            SimConfig(collision_radius=radius)
    # a NaN floor passed every pair: two agents flying apart came back as
    # a head-on collision
    for name, value in (("min_approach_speed", np.nan),
                        ("min_approach_speed", -0.01),
                        ("overtake_cos", np.nan), ("headon_cos", np.nan)):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: value})
    assert SimConfig(min_approach_speed=0.0).min_approach_speed == 0.0
    for size in (-3, 0):
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(batch_size=size)
    assert SimConfig(batch_size=1).batch_size == 1
    for stride in (-1, 0):
        with pytest.raises(ValueError, match="trajectory_stride"):
            SimConfig(record_trajectories=True, trajectory_stride=stride)
    assert SimConfig(trajectory_stride=1).trajectory_stride == 1


def test_a_negative_seed_is_rejected_when_built():
    for seed in (-1, -2 ** 40):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(seed=seed)
    assert SimConfig(seed=2 ** 64 + 3).seed == 2 ** 64 + 3


# ----------------------------------------------------------------------
# run record round trip
# ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, grid, fit):
    trace = short_run(grid, fit, seed=8, record_trajectories=True)
    save_run(trace, tmp_path)
    back = load_run(tmp_path)
    assert back.config == trace.config
    assert back.plant == trace.plant
    assert np.array_equal(back.frame_t, trace.frame_t)
    # exact sums; cells without targets carry NaN deviation sums
    assert frames_equal(back.frames, trace.frames)
    assert back.events == trace.events
    assert np.array_equal(back.frame_counts, trace.frame_counts)
    assert back.totals == trace.totals
    assert (back.injection_rate, back.batch_size) == \
        (trace.injection_rate, trace.batch_size)
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
    # the layout before the per-frame counts: events carried times
    cols["event_t"] = 0.05 * cols.pop("event_frame")
    _set_format(cols, 2)


def _format_3(cols):
    # the layout whose config still held the collision response knobs
    meta = json.loads(cols["meta"].item())
    meta["config"].update(overtake_transfer=0.25, headon_dissipation=0.1,
                          perp_dissipation=0.2, speed_limit=30.0)
    cols["meta"] = np.array(json.dumps(meta))
    _set_format(cols, 3)


def _format_4(cols):
    # the layout that stored per-frame counts, totals, dims and the command
    # table, and events as times and kind names
    kinds = cols["event_kind"]
    frames = cols.pop("event_frame")
    counts = np.zeros((len(cols["frame_t"]), 5), dtype=np.int64)
    np.add.at(counts, (frames, np.minimum(kinds, 4)), 1)
    meta = json.loads(cols["meta"].item())
    meta.update(dims=[30, 6, 6], **dict(zip(
        ("injected", "retired", "escaped", "faults"),
        counts.sum(axis=0).tolist())))
    cols["meta"] = np.array(json.dumps(meta))
    cols.update(event_t=np.where(kinds == 0, 0.05 * frames,
                                 cols["frame_t"][frames]),
                event_kind=np.array(EVENT_KINDS)[kinds], frame_counts=counts,
                command_table=np.zeros((1080, 3)))
    _set_format(cols, 4)


def _format_5(cols):
    # the layout with int64 cells and counts columns
    cols.update(cells=cols["cells"].astype(np.int64),
                counts=cols["counts"].astype(np.int64))
    _set_format(cols, 5)


def _int64_cells(cols):
    cols["cells"] = cols["cells"].astype(np.int64)


def _float_cells(cols):
    cols["cells"] = cols["cells"].astype(float)


def _int64_counts(cols):
    cols["counts"] = cols["counts"].astype(np.int64)


def _two_column_vsum(cols):
    cols["vsum"] = np.ascontiguousarray(cols["vsum"][:, :2])


def _zero_count(cols):
    cols["counts"][len(cols["counts"]) // 2] = 0


def _unknown_kind(cols):
    cols["event_kind"][-1] = len(EVENT_KINDS)


def _frame_past_the_run(cols):
    cols["event_frame"][-1] = len(cols["frame_t"])


def _negative_frame(cols):
    cols["event_frame"][0] = -1


def _drop_an_event_row(cols):
    cols["event_b"] = cols["event_b"][:-1]


def _float_event_kinds(cols):
    cols["event_kind"] = cols["event_kind"].astype(float)


def _float_frame_offsets(cols):
    cols["frame_offsets"] = cols["frame_offsets"].astype(float)


def _two_dimensional_frame_t(cols):
    cols["frame_t"] = cols["frame_t"][:, None]


def _float32_frame_t(cols):
    cols["frame_t"] = cols["frame_t"].astype(np.float32)


def _string_frame_t(cols):
    cols["frame_t"] = cols["frame_t"].astype(str)


def _float_traj_offsets(cols):
    cols["traj_offsets"] = cols["traj_offsets"].astype(float)


def _numeric_meta(cols):
    cols["meta"] = np.array(6.0)


@pytest.mark.parametrize("corrupt, message", [
    (_drop_dev2, "missing"),
    (_shift_offsets, "disagree with offsets"),
    (_bump_format, "format"),
    (_format_2, "missing"),
    (_format_3, "format 3, expected 6"),
    (_format_4, r"missing \['event_frame'\]"),
    (_format_5, "format 5, expected 6"),
    (_int64_cells, "cells is not int32"),
    (_float_cells, "cells is not int32"),
    (_int64_counts, "counts is not int32"),
    (_two_column_vsum, r"vsum is not float64 of shape \(rows, 3\)"),
    (_zero_count, "count below 1"),
    (_unknown_kind, "unknown event kind"),
    (_frame_past_the_run, "event frame outside the run"),
    (_negative_frame, "event frame outside the run"),
    (_drop_an_event_row, "one length"),
    (_float_event_kinds, "int64"),
    (_float_frame_offsets, r"frame_offsets is not int64 of shape \(rows\)"),
    (_two_dimensional_frame_t, r"frame_t is not float64 of shape \(rows\)"),
    (_float32_frame_t, "frame_t is not float64"),
    (_string_frame_t, "frame_t is not float64"),
    (_float_traj_offsets, "traj_offsets is not int64"),
    (_numeric_meta, "meta is not one JSON string"),
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


def test_streamed_columns_are_the_bytes_of_the_joined_columns(tmp_path, grid,
                                                              fit):
    """Each frame and trajectory member of the run file holds the bytes
    ``np.lib.format.write_array`` writes for the whole column."""
    trace = short_run(grid, fit, seed=8, record_trajectories=True)
    save_run(trace, tmp_path)
    joined = {name: np.concatenate([getattr(r, name) for r in trace.frames])
              for name in swarm_sim.FRAME_COLUMNS}
    for i, name in enumerate(swarm_sim.TRAJ_COLUMNS, start=1):
        joined[name] = np.concatenate([snap[i] for snap in trace.trajectories])
    assert joined["cells"].dtype == joined["counts"].dtype == np.int32
    assert len(trace.trajectories) > 1
    with zipfile.ZipFile(tmp_path / "trace.npz") as zf:
        for name, column in joined.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, column, allow_pickle=False)
            assert zf.read(name + ".npy") == buf.getvalue(), name


def test_save_run_allocates_less_than_one_chunk(tmp_path, trace60):
    """The frame columns are streamed: writing them never allocates a whole
    column, nor even one chunk of frame rows."""
    chunk = swarm_sim.FRAME_CHUNK_ROWS * 48     # bytes of one chunk's rows
    rows = sum(len(r.cells) for r in trace60.frames)
    assert rows * 24 > 4 * chunk    # the vsum column alone holds 4 chunks
    tracemalloc.start()
    try:
        save_run(trace60, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < chunk


@pytest.mark.parametrize("chunk_rows", [1, 100])
def test_frame_rows_across_chunks_keep_every_value(grid, fit, monkeypatch,
                                                   chunk_rows):
    """Frames that outgrow a chunk, or do not fit in what is left of one,
    give the records of a run in one chunk."""
    want = short_run(grid, fit, seed=5, duration=10.0)
    assert len(want.frames[-1].cells) > 100
    monkeypatch.setattr(swarm_sim, "FRAME_CHUNK_ROWS", chunk_rows)
    got = short_run(grid, fit, seed=5, duration=10.0)
    assert frames_equal(got.frames, want.frames)
    assert all(r.cells.dtype == r.counts.dtype == np.int32 for r in got.frames)
