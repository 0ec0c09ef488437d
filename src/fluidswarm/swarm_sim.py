"""Swarm simulation: agents flying fitted per-cell velocity commands.

Two start-up cases:

* ``tunnel_seeding``: every fitted cell up to an axial bound starts with its
  fitted agent count, all agents holding the cell's (scaled) command;
* ``reservoir``: the duct starts empty and batches of agents enter at the
  inlet disc at a fixed cadence, sized so the entry cell's fitted count and
  mean speed set the through-flow.

Per frame: each active agent receives its cell's broadcast command (every
agent in a cell gets the identical command; cells without a fit use the
nearest fitted cell's command), steps its velocity plant, moves, then
optionally collides. Agents past the outlet retire and faulted agents stop;
both leave the population, which holds only the active agents. Agents that
drift through the duct wall are logged once and keep flying. Agents are
binned to cells once per frame, by the frame reduction after retirement;
those cells are the next frame's command cells, since nothing moves an agent
in between, so only newly injected agents are binned when they arrive. The
population keeps positions, velocities and thrusts as (3, N) row views of
one (9, N) block, one contiguous row per component, which the plant steps
row by row, binning reads without a copy, and the frame reduction sums in
one (5, N) block; the wall test evaluates the duct radius only for agents
past the throat radius. Everything a trace holds (frame records,
trajectory snapshots) keeps the (N, 3) and (K, 3) shapes. The frame
records fill fixed-size chunks of int32 cells and counts and float64 sums,
48 B a row, which no frame copies or grows; each record views its rows of
one chunk, and ``save_run`` streams the records to the run file without
joining them into whole columns. Each event is one row of the run's event
table, its only population record: the per-frame counts and the totals are
computed from it, and the per-frame active count from the frame records.
All randomness is drawn from generators seeded by (seed, purpose, index),
so traces are reproducible.

Collisions are classified from the pair kinematics: a same-direction closing
pair is an overtake (speed transfer from faster to slower); anti-parallel
pairs collide head-on and near-orthogonal pairs sideswipe, both dissipating a
fixed fraction of the pair's kinetic energy. Only speeds change, never
headings. Candidate pairs come from a cell list of cubes just over two body
radii on a side, each agent tested against its own and the 13 forward
neighbouring cubes, and a pair is close when its squared distance, summed
(dx^2 + dy^2) + dz^2, is at most the squared bound: the rule of SciPy's
``cKDTree.query_pairs``, so the pairs are those a KD-tree finds. The pass
runs on the population's own rows, which resolution changes in place, and
ends once no close pair closes faster than the approach floor; only a frame
with a non-finite agent copies the others out and back.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .partition import ControlVolumeGrid, assign_cell
from .reference_field import NozzleGeometry
from .velocity_fit import GridFit, cell_rngs
from .velocity_plant import PlantParams, PlantState, step as plant_step

CASES = ("tunnel_seeding", "reservoir")

OVERTAKE_TRANSFER = 0.25    # fraction of the speed difference moved
HEADON_DISSIPATION = 0.10   # pair kinetic energy lost, head-on
PERP_DISSIPATION = 0.20     # pair kinetic energy lost, sideswipe
SPEED_LIMIT = 30.0          # post-collision speed clamp, m/s


@dataclass(frozen=True)
class SimConfig:
    case: str = "reservoir"
    dt: float = 0.05
    duration: float = 60.0
    scale: float = 0.1                # command scaling applied at broadcast
    seed: int = 0
    collisions: bool = False
    collision_radius: float = 0.15    # agent body radius, m
    min_approach_speed: float = 0.5   # closing-speed floor to count a collision
    overtake_cos: float = 0.7         # heading alignment for one-way transfer
    headon_cos: float = math.cos(math.pi / 4)   # |alignment| split, 45 deg
    dt_source: float = 0.5            # reservoir batch cadence, s
    batch_size: int | None = None     # None: sized from the entry cell's fit
    seed_x_max: float | None = None   # tunnel case axial fill bound; None: mid-span
    record_trajectories: bool = False
    trajectory_stride: int = 10

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}")
        if self.dt <= 0 or self.scale <= 0 or round(self.duration / self.dt) < 1:
            raise ValueError("dt and scale must be positive, and the duration "
                             "must round to at least one frame")
        if self.dt_source < self.dt:
            raise ValueError("dt_source must be at least one frame")
        if not (math.isfinite(self.collision_radius)
                and self.collision_radius > 0):
            raise ValueError("collision_radius must be finite and positive")
        # the detection negates its rejection tests: a NaN threshold
        # would reject no pair
        if not self.min_approach_speed >= 0:
            raise ValueError("min_approach_speed must be nonnegative")
        if math.isnan(self.overtake_cos) or math.isnan(self.headon_cos):
            raise ValueError("overtake_cos and headon_cos must not be NaN")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.trajectory_stride < 1:
            raise ValueError("trajectory_stride must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class FrameRecord:
    """Per-cell sums for one frame; cells with no active agents are absent.
    Cells and counts are int32, the sums float64."""

    cells: np.ndarray       # (K,) flat indices, ascending
    counts: np.ndarray      # (K,) agents per cell, each at least 1
    vsum: np.ndarray        # (K, 3) velocity sums
    sumv2: np.ndarray       # (K,) sum of squared speeds
    dev2: np.ndarray        # (K,) sum ||v - v_target||^2 (NaN without a target)


EVENT_KINDS = ("inject", "retire", "wall_escape", "fault",
               "collision_overtake", "collision_headon", "collision_sideswipe")
INJECT, RETIRE, WALL_ESCAPE, FAULT = range(4)     # codes of the first kinds


@dataclass(eq=False)
class EventTable:
    """One row per event, in the order the loop met them: the frame index,
    the kind's index in ``EVENT_KINDS``, the agent's global id and, for a
    collision, the other agent's (-1 otherwise). Injections happen at the
    start of their frame, every other event at its end."""

    frame: np.ndarray
    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __eq__(self, other) -> bool:
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


@dataclass
class SimulationTrace:
    config: SimConfig
    plant: PlantParams
    frame_t: np.ndarray               # (frames,) end time of each frame
    frames: list[FrameRecord]
    events: EventTable                # the population record; counts below
    injection_rate: float             # agents/s implied by the entry cell
    batch_size: int
    trajectories: list[tuple] = field(default_factory=list)

    @property
    def frame_counts(self) -> np.ndarray:
        """(frames, kinds) events per frame, columns ``EVENT_KINDS``."""
        n = len(EVENT_KINDS)
        return np.bincount(self.events.frame * n + self.events.kind,
                           minlength=len(self.frame_t) * n).reshape(-1, n)

    @property
    def frame_active(self) -> np.ndarray:
        """(frames,) active agents at the end of each frame: the sum of
        the frame's per-cell counts, 0 for an empty frame."""
        return np.fromiter((r.counts.sum() for r in self.frames),
                           dtype=np.int64, count=len(self.frames))

    @property
    def totals(self) -> dict:
        """Events of each kind over the whole run."""
        return dict(zip(EVENT_KINDS, self.frame_counts.sum(axis=0).tolist()))


# ======================================================================
# command broadcast
# ======================================================================

def build_command_table(grid: ControlVolumeGrid, fit: GridFit,
                        scale: float) -> np.ndarray:
    """Scaled per-cell commands for the whole lattice.

    Fitted cells broadcast their own fitted mean; every other lattice cell
    borrows the command of the nearest fitted cell (ties to the lowest flat
    index), so an agent anywhere receives something sensible.

    The lattice offsets are walked in shells of equal squared length in
    whole cells, an exact integer, so each cell's nearest shell holding a
    fitted cell is found exactly. Among the fitted cells of that shell the
    squared center distances, summed as a dense search sums them, pick the
    winner, the lowest index among equals: off a binary-fraction lattice
    they differ in the last bits. The table is the dense search's.
    """
    fitted, means = fit.commands()
    if len(fitted) == 0:
        raise ValueError("fit has no results")
    commands = np.zeros((grid.num_cells, 3))
    commands[fitted] = means
    dims = grid.dims
    source = np.zeros(dims, dtype=bool)
    source.flat[fitted] = True
    is_open = np.ones(dims, dtype=bool)
    cells = np.arange(grid.num_cells).reshape(dims)
    rows, cand = [], []
    for shell in _shells(dims):
        found = len(rows)
        for off, flat in shell:
            src, dst = [], []
            for d, n in zip(off, dims):
                src.append(slice(max(d, 0), n + min(d, 0)))
                dst.append(slice(max(-d, 0), n - max(d, 0)))
            dst = tuple(dst)
            rows.append(cells[dst][source[tuple(src)] & is_open[dst]])
            cand.append(rows[-1] + flat)
        is_open.flat[np.concatenate(rows[found:])] = False
        if not is_open.any():
            break
    rows, cand = np.concatenate(rows), np.concatenate(cand)
    centers = grid.centers()
    diff = centers[rows] - centers[cand]
    d2 = np.einsum("mk,mk->m", diff, diff)
    order = np.lexsort((cand, d2, rows))     # per row: nearest, then lowest
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    return scale * commands[cand[first]]


def _shells(dims):
    """Lattice offsets ``(dx, dy, dz)`` with their flat offsets
    ``(dx * ny + dy) * nz + dz``, one group per shell of equal squared
    length, shortest first."""
    axes = [np.arange(1 - n, n) for n in dims]
    off = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    flat = (off[:, 0] * dims[1] + off[:, 1]) * dims[2] + off[:, 2]
    length = np.einsum("kd,kd->k", off, off)
    order = np.argsort(length, kind="stable")
    off, flat, length = off[order], flat[order], length[order]
    cut = [0, *(np.flatnonzero(np.diff(length)) + 1).tolist(), len(off)]
    for lo, hi in zip(cut[:-1], cut[1:]):
        yield zip(off[lo:hi].tolist(), flat[lo:hi].tolist())


def entry_cell(grid: ControlVolumeGrid, fit: GridFit) -> int:
    """Fitted cell nearest the inlet face center (ties to lowest index)."""
    fitted = np.array(sorted(fit.results), dtype=np.int64)
    target = np.array([grid.origin[0] + grid.edge_length / 2.0, 0.0, 0.0])
    d = np.linalg.norm(grid.centers()[fitted] - target, axis=1)
    return int(fitted[np.argmin(d)])


def injection_rate(grid: ControlVolumeGrid, fit: GridFit) -> tuple[float, int]:
    """Agents/s through the inlet and the entry cell index.

    rate = N* * ||mean fitted velocity|| / edge_length for the entry cell.
    The unscaled fitted speed sets the rate (the reference through-flow);
    agents themselves fly the scaled command.
    """
    cell = entry_cell(grid, fit)
    res = fit.results[cell]
    rate = res.n_star * float(np.linalg.norm(res.command)) / grid.edge_length
    return rate, cell


# ======================================================================
# agent population
# ======================================================================

class _Population:
    """The active agents, in injection order (so in ascending ``gid``).

    Two blocks hold the columns: ``rows``, (9, N) floats, whose row
    triples ``pos``, ``vel`` and ``thr`` are (3, N) views with one
    contiguous row per component, so the plant and the per-frame tests run
    on whole rows; and ``ids``, (2, N) int64, whose rows are ``gid`` and
    ``flat``. ``escaped`` is (N,) bool. ``gid`` is each agent's global id,
    its index in injection order, which events and trajectory snapshots
    report. ``flat`` is each agent's cell: ``append`` takes it for new
    agents, and ``_record_frame`` rebins the survivors at the end of each
    frame. ``keep`` drops faulted and retired agents in one pass that keeps
    the order: one ``take`` per block.
    """

    def __init__(self):
        self.rows = np.empty((9, 0))
        self.ids = np.empty((2, 0), dtype=np.int64)
        self.escaped = np.empty(0, dtype=bool)
        self.total = 0          # agents ever appended

    pos = property(lambda self: self.rows[0:3])
    vel = property(lambda self: self.rows[3:6])
    thr = property(lambda self: self.rows[6:9])
    gid = property(lambda self: self.ids[0])
    flat = property(lambda self: self.ids[1])

    def __len__(self) -> int:
        return self.ids.shape[1]

    def append(self, pos, vel, thr, flat) -> np.ndarray:
        """Add agents with (n, 3) ``pos``, ``vel`` and ``thr`` at cells
        ``flat``; returns their global ids."""
        n = len(pos)
        ids = np.arange(self.total, self.total + n)
        self.total += n
        self.rows = np.concatenate([self.rows, np.hstack([pos, vel, thr]).T],
                                   axis=1)
        self.ids = np.concatenate([self.ids, [ids, flat]], axis=1)
        self.escaped = np.concatenate([self.escaped, np.zeros(n, dtype=bool)])
        return ids

    def keep(self, mask) -> None:
        idx = mask.nonzero()[0]
        self.rows = self.rows.take(idx, axis=1)
        self.ids = self.ids.take(idx, axis=1)
        self.escaped = self.escaped.take(idx)


def seed_tunnel(grid: ControlVolumeGrid, fit: GridFit, config: SimConfig,
                plant: PlantParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial population for the tunnel case.

    Every fitted cell whose center lies at or below the axial bound
    (``seed_x_max``, by default the middle of :func:`axial_span`) gets its
    fitted agent count, positions uniform in the cell, velocity equal to the
    cell's scaled command, thrust at hover.
    """
    bound = config.seed_x_max
    if bound is None:
        inlet, outlet = axial_span(grid)
        bound = 0.5 * (inlet + outlet)
    cells = np.array(sorted(fit.results), dtype=np.int64)
    cells = cells[~(grid.centers()[cells, 0] > bound)]
    pos_list, vel_list = [], []
    for f, rng in zip(cells.tolist(), cell_rngs((config.seed, 2), cells)):
        res = fit.results[f]
        lo = grid.origin + grid.unravel([f])[0] * grid.edge_length
        pos = lo + rng.random((res.n_star, 3)) * grid.edge_length
        vel = np.tile(config.scale * res.command, (res.n_star, 1))
        pos_list.append(pos)
        vel_list.append(vel)
    if not pos_list:
        raise ValueError("no cells to seed below the axial bound")
    vel = np.vstack(vel_list)
    thr = PlantState.hover(plant, len(vel)).thrust_accel
    return np.vstack(pos_list), vel, thr


def axial_span(grid: ControlVolumeGrid) -> tuple[float, float]:
    """The (inlet, outlet) planes of the flight: the duct's 0 and length,
    or the lattice's axial extent when it carries no geometry. Agents past
    the outlet retire."""
    if grid.geometry is not None:
        return 0.0, grid.geometry.length
    return grid.origin[0], grid.origin[0] + grid.dims[0] * grid.edge_length


def make_batch(grid: ControlVolumeGrid, fit: GridFit, config: SimConfig,
               plant: PlantParams, batch_index: int, n_batch: int, cell: int):
    """One injection batch: uniform over the inlet disc, x in [0, edge)."""
    rng = np.random.default_rng((config.seed, 3, batch_index))
    radius = grid.geometry.radius(0.0) if grid.geometry is not None \
        else -grid.origin[1]
    rr = float(radius) * np.sqrt(rng.random(n_batch))
    th = 2.0 * np.pi * rng.random(n_batch)
    x = grid.origin[0] + rng.random(n_batch) * grid.edge_length
    pos = np.column_stack([x, rr * np.cos(th), rr * np.sin(th)])
    vel = np.tile(config.scale * fit.results[cell].command, (n_batch, 1))
    return pos, vel, PlantState.hover(plant, n_batch).thrust_accel


# ======================================================================
# collisions
# ======================================================================

# cube edge over the pair bound: rounding in the cube index can then never
# put the two agents of a pair at the bound two cubes apart
PAIR_CELL_MARGIN = 1.0 + 2.0 ** -20
PAIR_TABLE_CELLS = 1 << 18      # cubes the occupancy table may hold uncapped


def close_pairs(pos, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``a < b`` of the (N, 3) positions ``pos`` whose squared
    distance, summed ``(dx^2 + dy^2) + dz^2``, is at most ``bound * bound``:
    the rule of ``cKDTree.query_pairs``. Ascending by ``a * N + b``.

    A cell list: cubes of edge just over ``bound``, so the two agents of a
    close pair sit in the same or in neighbouring cubes. An occupancy table
    over flat cube keys (z fastest, the y and z ranges padded by one empty
    cube each side) lists the agents cube by cube, so each agent's
    candidates are five contiguous runs: the agents after it in its own
    column, dz 0..1, and the columns (0, 1), (1, -1), (1, 0) and (1, 1),
    each dz -1..1. Every neighbouring pair of cubes is met once. The table
    holds at most ``max(PAIR_TABLE_CELLS, 8 N)`` cubes: past that, each
    axis's cube index is capped, which merges far cubes into the last one
    and never separates a close pair.

    The search works in sorted order, where a run is a range of indices:
    one lookup gives all ten run bounds, the non-empty runs are expanded
    into candidates with one ``repeat``, and the distance test reads the
    sorted (3, N) rows. Only the close pairs go back to input indices.
    """
    n = len(pos)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    rows = np.ascontiguousarray(pos.T)
    q = rows - rows.min(axis=1, keepdims=True)
    q /= bound * PAIR_CELL_MARGIN
    np.floor(q, out=q)
    dims = q.max(axis=1) + 1.0
    budget = max(PAIR_TABLE_CELLS, 8 * n)
    if (dims[0] + 1.0) * (dims[1] + 2.0) * (dims[2] + 2.0) > budget:
        cap = math.floor(budget ** (1.0 / 3.0)) - 2.0
        np.minimum(q, cap - 1.0, out=q)
        np.minimum(dims, cap, out=dims)
    sz = int(dims[2]) + 2
    sx = (int(dims[1]) + 2) * sz
    size = (int(dims[0]) + 1) * sx
    key = (np.array([sx, sz, 1.0]) @ q + (sz + 1)).astype(
        np.min_scalar_type(size))         # 16-bit keys get a radix sort
    order = key.argsort(kind="stable")
    # the sorted keys between sentinels; start[c], the first agent of cube
    # c, steps up by one at each sorted key
    edges = np.empty(n + 2, dtype=np.intp)
    edges[0], edges[-1] = -1, size
    edges[1:-1] = key.take(order)
    key = edges[1:-1]
    start = np.arange(n + 1).repeat(edges[1:] - edges[:-1])
    # rows 0-4 start the runs (own column, then the four forward columns),
    # rows 5-9 end them; the own column starts after the agent
    column = np.array([[0, sz, sx - sz, sx, sx + sz]])
    bounds = start.take(key + (column + [[-1], [2]]).reshape(10, 1))
    bounds[0] = np.arange(1, n + 1)
    runs = (bounds[5:] - bounds[:5]).ravel()
    run = (runs > 0).nonzero()[0]
    runs = runs.take(run)
    first = runs.cumsum()           # each run's first candidate
    first -= runs
    j = np.arange(len(run)).repeat(runs)
    b = (bounds[:5].ravel().take(run) - first).take(j)
    b += np.arange(len(j))
    a = (run % n).take(j)
    rows = rows.take(order, axis=1)
    d = rows.take(b, axis=1)
    d -= rows.take(a, axis=1)
    np.square(d, out=d)
    d2 = d[0] + d[1]
    d2 += d[2]
    near = (d2 <= bound * bound).nonzero()[0]
    a, b = order.take(a.take(near)), order.take(b.take(near))
    pair = np.minimum(a, b) * n + np.maximum(a, b)
    pair.sort()
    a = pair // n
    return a, pair - a * n


def detect_collisions(pos, vel, config: SimConfig) -> list[tuple[int, int, str]]:
    """Classified colliding pairs among the given agents.

    Pairs at most two body radii apart (``close_pairs``) and closing faster
    than the approach floor are classified by heading alignment; grazing or
    separating pairs are ignored. Returned in ascending (a, b) index order.
    Raises ValueError when there are two or more agents and a position is
    not finite.

    All candidate pairs are tested as arrays, on (3, M) component rows
    gathered from ``pos.T`` and ``vel.T``: the loop passes (N, 3) views of
    its (3, N) rows, so those are the rows themselves. Dot products go
    through ``np.vecdot`` along axis 0, which sums as ``np.vecdot`` on
    (M, 3) rows and as a per-pair ``a @ b`` or ``norm`` does, so every
    value and every decision equals the per-pair form's bit for bit; each
    mask is the negated rejection test, so NaN kinematics pass as they did
    there. Distance and closing speed are computed for every candidate pair
    (the closing speed of a coincident pair is NaN or infinite, and the
    distance test rejects it) and both tests select in one mask; when it
    selects nothing, which is every frame at the default floor, the
    detection ends there.
    """
    if len(pos) < 2:
        return []
    p, v = pos.T, vel.T
    if not np.isfinite(p).all():
        raise ValueError("collision detection needs finite positions")
    a, b = close_pairs(pos, 2.0 * config.collision_radius)
    dx = p.take(b, axis=1)
    dx -= p.take(a, axis=1)
    dist = np.sqrt(np.vecdot(dx, dx, axis=0))
    va, vb = v.take(a, axis=1), v.take(b, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        closing = np.vecdot(va - vb, dx / dist, axis=0)
    keep = ~(dist <= 1e-12) & ~(closing <= config.min_approach_speed)
    keep = keep.nonzero()[0]
    if len(keep) == 0:
        return []
    a, b, va, vb = a[keep], b[keep], va[:, keep], vb[:, keep]
    sa = np.sqrt(np.vecdot(va, va, axis=0))
    sb = np.sqrt(np.vecdot(vb, vb, axis=0))
    keep = ~((sa < 1e-9) | (sb < 1e-9))
    align = np.vecdot(va[:, keep], vb[:, keep], axis=0) \
        / (sa[keep] * sb[keep])
    kind = np.where(align > config.overtake_cos, "overtake",
                    np.where(np.abs(align) >= config.headon_cos,
                             "headon", "sideswipe"))
    return list(zip(a[keep].tolist(), b[keep].tolist(), kind.tolist()))


def resolve_collisions(vel, pairs) -> list[tuple[int, int, str]]:
    """Apply speed changes in pair order; headings never change.

    Overtakes move ``OVERTAKE_TRANSFER`` of the speed difference from the
    faster to the slower agent (their speed sum is conserved); mutual
    collisions shrink both speeds, removing ``HEADON_DISSIPATION`` or
    ``PERP_DISSIPATION`` of the pair's energy; speeds clamp to ``SPEED_LIMIT``.
    """
    applied = []
    for a, b, kind in pairs:
        sa, sb = np.linalg.norm(vel[a]), np.linalg.norm(vel[b])
        if sa < 1e-9 or sb < 1e-9:
            continue
        if kind == "overtake":
            fast, slow = (a, b) if sa >= sb else (b, a)
            sf, ss = max(sa, sb), min(sa, sb)
            delta = OVERTAKE_TRANSFER * (sf - ss)
            vel[fast] *= (sf - delta) / sf
            vel[slow] *= (ss + delta) / ss
        else:
            f = HEADON_DISSIPATION if kind == "headon" else PERP_DISSIPATION
            keep = np.sqrt(1.0 - f)
            vel[a] *= keep
            vel[b] *= keep
        for i in (a, b):
            s = np.linalg.norm(vel[i])
            if s > SPEED_LIMIT:
                vel[i] *= SPEED_LIMIT / s
        applied.append((a, b, kind))
    return applied


# ======================================================================
# main loop
# ======================================================================

def run_simulation(grid: ControlVolumeGrid, fit: GridFit,
                   config: SimConfig | None = None,
                   plant: PlantParams | None = None) -> SimulationTrace:
    """Run one case end to end and return the full trace.

    The plant must have the fit's agent mass, which is also its default.
    """
    config = config or SimConfig()
    plant = plant or PlantParams(mass=fit.config.agent_mass)
    if plant.mass != fit.config.agent_mass:
        raise ValueError(f"plant mass {plant.mass} differs from the fit's "
                         f"agent mass {fit.config.agent_mass}")
    # commands and targets as component rows, gathered per agent by column
    table = np.ascontiguousarray(build_command_table(grid, fit, config.scale).T)
    targets = np.ascontiguousarray(grid.v_target.T)
    outlet = axial_span(grid)[1]

    rate, cell0 = injection_rate(grid, fit)
    n_batch = config.batch_size if config.batch_size is not None \
        else max(1, int(round(rate * config.dt_source)))

    n_frames = int(round(config.duration / config.dt))
    frame_t = (np.arange(n_frames) + 1) * config.dt
    frames, trajectories = [], []
    chunks = _FrameChunks()
    log = _EventLog()
    pop = _Population()
    if config.case == "tunnel_seeding":
        pos, vel, thr = seed_tunnel(grid, fit, config, plant)
        log.add(0, INJECT, pop.append(pos, vel, thr, assign_cell(pos, grid)))
    stride = max(1, int(round(config.dt_source / config.dt)))

    for k in range(n_frames):
        if config.case == "reservoir" and k % stride == 0:
            pos, vel, thr = make_batch(grid, fit, config, plant,
                                       k // stride, n_batch, cell0)
            log.add(k, INJECT, pop.append(pos, vel, thr,
                                          assign_cell(pos, grid)))

        if len(pop):
            state = plant_step(PlantState(pop.vel.T, pop.thr.T),
                               table.take(pop.flat, axis=1).T, config.dt, plant)
            pos, vel, thr = pop.pos, pop.vel, pop.thr
            vel[...] = state.velocity.T
            thr[...] = state.thrust_accel.T
            pos += vel * config.dt

            # an agent with a non-finite position or velocity (rows[:6])
            # faults below
            finite = (_collide(pop, k, config, log) if config.collisions
                      else np.isfinite(pop.rows[:6]).all(axis=0))

            # wall escape: through the lateral wall, still inside the span
            if grid.geometry is not None:
                out = _through_wall(pos, pop.escaped, grid.geometry)
                log.add(k, WALL_ESCAPE, pop.gid[out])
                pop.escaped[out] = True

            # faults: non-finite state ends the agent's run; the others
            # retire past the outlet plane
            bad = ~finite
            gone = finite & (pos[0] > outlet)
            if bad.any() or gone.any():
                log.add(k, FAULT, pop.gid[bad])
                log.add(k, RETIRE, pop.gid[gone])
                pop.keep(~(bad | gone))

        frames.append(_record_frame(pop, grid, targets, chunks))
        if config.record_trajectories and k % config.trajectory_stride == 0:
            trajectories.append((float(frame_t[k]), pop.gid.copy(),
                                 pop.pos.T.copy(), pop.vel.T.copy()))

    return SimulationTrace(config=config, plant=plant, frame_t=frame_t,
                           frames=frames,
                           events=EventTable(*log.columns[:, :log.n].copy()),
                           injection_rate=rate, batch_size=n_batch,
                           trajectories=trajectories)


def _collide(pop: _Population, k: int, config: SimConfig,
             log: _EventLog) -> np.ndarray:
    """Frame ``k``'s collisions: detect, resolve and log them; returns which
    agents have a finite position and velocity after them.

    When every agent is finite, the usual frame, ``detect_collisions`` and
    ``resolve_collisions`` get (N, 3) views of the population's rows, which
    the resolution changes in place. Otherwise the finite agents are copied
    out and their velocities back; the others, which the pair search
    rejects, sit the pass out and fault at the end of the frame. A
    resolution changes only the agents of its applied pairs, so only they
    are tested again.
    """
    finite = np.isfinite(pop.rows[:6]).all(axis=0)
    if finite.all():
        live = None
        vel = pop.vel.T
        pairs = detect_collisions(pop.pos.T, vel, config)
    else:
        live = finite.nonzero()[0]
        vel = pop.vel[:, live].T.copy()
        pairs = detect_collisions(pop.pos[:, live].T.copy(), vel, config)
    applied = resolve_collisions(vel, pairs)
    if live is not None:
        pop.vel[:, live] = vel.T
    if applied:
        a, b, kind = zip(*applied)
        a, b = np.array(a), np.array(b)
        if live is not None:
            a, b = live[a], live[b]
        log.add(k, [EVENT_KINDS.index("collision_" + c) for c in kind],
                pop.gid[a], pop.gid[b])
        touched = np.concatenate([a, b])
        finite[touched] = np.isfinite(pop.rows[:6, touched]).all(axis=0)
    return finite


def _through_wall(pos, escaped, geometry: NozzleGeometry) -> np.ndarray:
    """Ascending indices of the agents, not escaped before, that are
    outside the lateral wall but inside the duct's span; ``pos`` is (3, N).

    The radius is never below the throat's, so only agents past the throat
    radius can be outside, and ``radius`` is evaluated for those alone.
    """
    x, y, z = pos
    r2 = y * y
    r2 += z * z
    throat = geometry.throat_radius
    near = ((r2 > throat * throat) & ~escaped).nonzero()[0]
    xn = x[near]
    rad = geometry.radius(xn)           # clamps x to the span
    return near[(xn >= 0.0) & (xn <= geometry.length) & (r2[near] > rad * rad)]


class _EventLog:
    """Event columns (frame, kind, a, b) in one buffer that doubles when
    full: per-frame blocks kept to the end of the run would fragment the
    heap the frames share, which a later ``load_run`` then cannot reuse."""

    def __init__(self):
        self.columns, self.n = np.empty((4, 1024), dtype=np.int64), 0

    def add(self, frame, kind, a, b=-1) -> None:
        """Rows for agents ``a``; a scalar frame, kind or ``b`` covers all."""
        end = self.n + len(a)
        while end > self.columns.shape[1]:
            self.columns = np.concatenate([self.columns, self.columns], axis=1)
        rows = self.columns[:, self.n:end]
        rows[0], rows[1], rows[2], rows[3] = frame, kind, a, b
        self.n = end


FRAME_CHUNK_ROWS = 1 << 16     # frame rows a chunk holds, 3 MiB at 48 B a row


class _FrameChunks:
    """A run's frame rows, frame after frame, in chunks of
    ``FRAME_CHUNK_ROWS`` rows (or of one frame's rows, when a frame holds
    more): an int32 cells column, an int32 counts column and a float64
    (R, 5) sums block. A chunk is filled in place and never grown, so the
    rows are never held twice over, and a frame that does not fit in what
    is left of the chunk starts the next one."""

    def __init__(self):
        self._new(0)

    def _new(self, rows) -> None:
        self.cells = np.empty(rows, dtype=np.int32)
        self.counts = np.empty(rows, dtype=np.int32)
        self.sums = np.empty((rows, 5))
        self.used = 0

    def take(self, k) -> tuple:
        """Views of the next ``k`` rows: cells, counts and sums."""
        if self.used + k > len(self.cells):
            self._new(max(FRAME_CHUNK_ROWS, k))
        rows = slice(self.used, self.used + k)
        self.used += k
        return self.cells[rows], self.counts[rows], self.sums[rows]


def _record_frame(pop: _Population, grid: ControlVolumeGrid,
                  targets: np.ndarray, chunks: _FrameChunks) -> FrameRecord:
    """Per-cell sums over the active agents, whose cells it leaves on
    ``pop.flat`` for the next frame's commands; ``targets`` holds the
    cells' target velocities as (3, cells) rows, and ``chunks`` the run's
    frame rows, where the record's fields are written.

    The agents, sorted by cell, fill one (5, N) block of rows vx, vy, vz,
    |v|^2 and |v - v_target|^2, and one ``reduceat`` sums it per cell into
    a (K, 5) block of the chunk whose columns the record's fields view. The
    squares add x, z, then y: the order of ``einsum("ij,ij->i")`` on (N, 3)
    rows.
    """
    flat = pop.flat
    flat[...] = assign_cell(pop.pos.T, grid)
    # a stable sort's order depends on the keys alone; keys that fit 16 bits
    # get numpy's radix sort
    order = np.argsort(flat.astype(np.min_scalar_type(grid.num_cells - 1)),
                       kind="stable")
    flat_s = flat[order]
    first = np.empty(len(flat_s), dtype=bool)     # first agent of its cell
    first[:1] = True
    np.not_equal(flat_s[1:], flat_s[:-1], out=first[1:])
    start = first.nonzero()[0]
    cells, counts, sums = chunks.take(len(start))
    cells[...] = flat_s[start]
    counts[...] = np.diff(start, append=len(flat_s))
    block = np.empty((5, len(order)))
    v = np.take(pop.vel, order, axis=1, out=block[:3])
    _sum_squares(np.square(v), out=block[3])
    d = np.take(targets, flat_s, axis=1)
    _sum_squares(np.square(np.subtract(v, d, out=d), out=d), out=block[4])
    np.add.reduceat(block, start, axis=1, out=sums.T)
    return FrameRecord(cells, counts, sums[:, :3], sums[:, 3], sums[:, 4])


def _sum_squares(sq, out) -> np.ndarray:
    """(x^2 + z^2) + y^2 from the rows of squares ``sq``, into ``out``."""
    np.add(sq[0], sq[2], out=out)
    return np.add(out, sq[1], out=out)


def population_balance(trace: SimulationTrace) -> dict:
    """Bookkeeping: injected = still-active + retired + faulted."""
    total, active = trace.totals, int(trace.frame_active[-1])
    injected, retired, faults = total["inject"], total["retire"], total["fault"]
    return {"injected": injected, "active": active, "retired": retired,
            "faults": faults, "balanced": injected == active + retired + faults}


# ======================================================================
# run record
# ======================================================================

RUN_FILE = "trace.npz"
RUN_FORMAT = 6
# the columns streamed record by record: dtype and the shape of one row
FRAME_COLUMNS = {"cells": (np.int32, ()), "counts": (np.int32, ()),
                 "vsum": (np.float64, (3,)), "sumv2": (np.float64, ()),
                 "dev2": (np.float64, ())}
TRAJ_COLUMNS = {"traj_ids": (np.int64, ()), "traj_pos": (np.float64, (3,)),
                "traj_vel": (np.float64, (3,))}
# every member but the JSON ``meta`` string, in file order
RUN_COLUMNS = {"frame_t": (np.float64, ()), "frame_offsets": (np.int64, ()),
               "traj_t": (np.float64, ()), "traj_offsets": (np.int64, ()),
               **{"event_" + f.name: (np.int64, ()) for f in fields(EventTable)},
               **FRAME_COLUMNS, **TRAJ_COLUMNS}
RUN_KEYS = ("meta", *RUN_COLUMNS)
META_KEYS = ("format", "config", "plant", "injection_rate", "batch_size")


def _write_parts(zf, name, parts, dtype, row) -> None:
    """One ``.npy`` member holding the rows of ``parts`` one after another:
    the header for the full length, then each part in turn, so no column is
    ever joined in memory. The bytes are those ``np.lib.format.write_array``
    writes for the joined column."""
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
              "fortran_order": False,
              "shape": (sum(len(p) for p in parts), *row)}
    with zf.open(name + ".npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for part in parts:
            fh.write(np.ascontiguousarray(part, dtype=dtype))


def save_run(trace: SimulationTrace, outdir) -> None:
    """Write the whole trace to ``outdir/trace.npz`` (binary, uncompressed).

    Frame records and trajectory snapshots are flat columns cut by offsets,
    streamed record by record; the event table is one column per field, and
    config and plant are one JSON string; counts are not stored.
    ``load_run`` reads back a trace equal to this one.
    """
    os.makedirs(outdir, exist_ok=True)
    meta = {"format": RUN_FORMAT, "config": asdict(trace.config),
            "plant": asdict(trace.plant),
            "injection_rate": trace.injection_rate,
            "batch_size": trace.batch_size}
    frames, snaps = trace.frames, trace.trajectories
    parts = {"frame_t": [trace.frame_t],
             "frame_offsets": [np.cumsum([0] + [len(r.cells) for r in frames])],
             "traj_t": [[s[0] for s in snaps]],
             "traj_offsets": [np.cumsum([0] + [len(s[1]) for s in snaps])]}
    parts.update(("event_" + k, [v]) for k, v in vars(trace.events).items())
    parts.update((name, [getattr(r, name) for r in frames])
                 for name in FRAME_COLUMNS)
    parts.update((name, [s[i] for s in snaps])
                 for i, name in enumerate(TRAJ_COLUMNS, start=1))
    with zipfile.ZipFile(os.path.join(outdir, RUN_FILE), "w") as zf:
        with zf.open("meta.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array(fh, np.array(json.dumps(meta)),
                                      allow_pickle=False)
        for name, layout in RUN_COLUMNS.items():
            _write_parts(zf, name, parts[name], *layout)


def _split(columns: list, offsets: np.ndarray, n: int) -> list[tuple]:
    """``n`` tuples of per-part views of flat columns cut at ``offsets``."""
    if (len(offsets) != n + 1 or offsets[0] != 0
            or np.any(np.diff(offsets) < 0)
            or any(len(c) != offsets[-1] for c in columns)):
        raise ValueError(f"{RUN_FILE}: column lengths disagree with offsets")
    return [tuple(c[lo:hi] for c in columns)
            for lo, hi in zip(offsets[:-1], offsets[1:])]


def _dataclass_from(cls, values: dict):
    names = {f.name for f in fields(cls)}
    if set(values) != names:
        raise ValueError(f"{RUN_FILE}: {cls.__name__} fields differ: "
                         f"{sorted(set(values) ^ names)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in values.items()})


def load_run(rundir) -> SimulationTrace:
    """Read back the trace ``save_run`` wrote to ``rundir``.

    Raises ValueError on a missing key, a ``meta`` member that is not one
    string, another format version, a column of another dtype or row shape
    than ``RUN_COLUMNS`` gives, a cell count below 1, columns whose lengths disagree with each other or with their
    offsets, an event kind outside ``EVENT_KINDS``, or an event frame
    outside the run.
    """
    with np.load(os.path.join(rundir, RUN_FILE), allow_pickle=False) as npz:
        missing = sorted(set(RUN_KEYS) - set(npz.files))
        if missing:
            raise ValueError(f"{RUN_FILE}: missing {missing}")
        a = {k: npz[k] for k in RUN_KEYS}
    if a["meta"].dtype.kind != "U" or a["meta"].ndim != 0:
        raise ValueError(f"{RUN_FILE}: meta is not one JSON string")
    meta = json.loads(a["meta"].item())
    missing = sorted(set(META_KEYS) - set(meta))
    if missing:
        raise ValueError(f"{RUN_FILE}: metadata is missing {missing}")
    if meta["format"] != RUN_FORMAT:
        raise ValueError(f"{RUN_FILE}: format {meta['format']!r}, "
                         f"expected {RUN_FORMAT}")
    for name, (dtype, row) in RUN_COLUMNS.items():
        if a[name].dtype != dtype or a[name].shape[1:] != row \
                or a[name].ndim != 1 + len(row):
            shape = ", ".join(["rows", *map(str, row)])
            raise ValueError(f"{RUN_FILE}: {name} is not {np.dtype(dtype)} "
                             f"of shape ({shape})")
    if np.any(a["counts"] < 1):
        raise ValueError(f"{RUN_FILE}: a frame cell count below 1")
    events = EventTable(*(a["event_" + f.name] for f in fields(EventTable)))
    if len({len(c) for c in vars(events).values()}) > 1:
        raise ValueError(f"{RUN_FILE}: event columns are not of one length")
    if np.any((events.kind < 0) | (events.kind >= len(EVENT_KINDS))):
        raise ValueError(f"{RUN_FILE}: unknown event kind")
    if np.any((events.frame < 0) | (events.frame >= len(a["frame_t"]))):
        raise ValueError(f"{RUN_FILE}: event frame outside the run")
    frames = _split([a[k] for k in FRAME_COLUMNS], a["frame_offsets"],
                    len(a["frame_t"]))
    snaps = _split([a[k] for k in TRAJ_COLUMNS], a["traj_offsets"],
                   len(a["traj_t"]))
    return SimulationTrace(
        config=_dataclass_from(SimConfig, meta["config"]),
        plant=_dataclass_from(PlantParams, meta["plant"]),
        frame_t=a["frame_t"], frames=[FrameRecord(*cols) for cols in frames],
        events=events, injection_rate=meta["injection_rate"],
        batch_size=meta["batch_size"],
        trajectories=[(t, *cols) for t, cols
                      in zip(a["traj_t"].tolist(), snaps)])
