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
in between, so only newly injected agents are binned when they arrive. All
randomness is drawn from generators seeded by (seed, purpose, index), so
traces are reproducible.

Collisions are classified from the pair kinematics: a same-direction closing
pair is an overtake (speed transfer from faster to slower); anti-parallel
pairs collide head-on and near-orthogonal pairs sideswipe, both dissipating a
fixed fraction of the pair's kinetic energy. Only speeds change, never
headings.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.spatial import cKDTree

from .partition import ControlVolumeGrid, assign_cell
from .velocity_fit import GridFit
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
    seed_x_max: float | None = None   # tunnel case axial fill bound; None: half
    record_trajectories: bool = False
    trajectory_stride: int = 10

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}")
        if self.dt <= 0 or self.duration <= 0 or self.scale <= 0:
            raise ValueError("dt, duration, scale must be positive")
        if self.dt_source < self.dt:
            raise ValueError("dt_source must be at least one frame")


@dataclass
class FrameRecord:
    """Per-cell sums for one frame; cells with no active agents are absent."""

    cells: np.ndarray       # (K,) flat indices, ascending
    counts: np.ndarray      # (K,) agents per cell
    vsum: np.ndarray        # (K, 3) velocity sums
    sumv2: np.ndarray       # (K,) sum of squared speeds
    dev2: np.ndarray        # (K,) sum ||v - v_target||^2 (NaN without a target)


FRAME_COUNT_COLUMNS = ("injected", "retired", "escaped", "faulted",
                       "collisions")


@dataclass
class SimulationTrace:
    config: SimConfig
    plant: PlantParams
    dims: tuple[int, int, int]
    frame_t: np.ndarray
    frames: list[FrameRecord]
    events: list[tuple]               # (t, kind, agent_a, agent_b)
    command_table: np.ndarray         # (M, 3) broadcast commands
    injection_rate: float             # agents/s implied by the entry cell
    batch_size: int
    # (frames, 5) per-frame counts, columns FRAME_COUNT_COLUMNS; the column
    # sums are the totals below and the number of collision events
    frame_counts: np.ndarray
    injected: int = 0
    retired: int = 0
    escaped: int = 0
    faults: int = 0
    trajectories: list[tuple] = field(default_factory=list)


# ======================================================================
# command broadcast
# ======================================================================

def build_command_table(grid: ControlVolumeGrid, fit: GridFit,
                        scale: float) -> np.ndarray:
    """Scaled per-cell commands for the whole lattice.

    Fitted cells broadcast their own fitted mean; every other lattice cell
    borrows the command of the nearest fitted cell (ties to the lowest flat
    index), so an agent anywhere receives something sensible.

    A KD-tree gives each cell's nearest distance ``d``; every fitted center
    within ``d * (1 + 1e-9)`` is a candidate, and the squared distances of
    the candidates, summed as a dense search sums them, pick the winner,
    the lowest index among equals. The table is the dense search's.
    """
    fitted = np.array(sorted(fit.results), dtype=np.int64)
    if len(fitted) == 0:
        raise ValueError("fit has no results")
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
    order = np.lexsort((cand, d2, rows))     # per row: nearest, then lowest
    first = np.flatnonzero(np.diff(rows[order], prepend=-1))
    return scale * means[cand[order[first]]]


def entry_cell(grid: ControlVolumeGrid, fit: GridFit) -> int:
    """Fitted cell nearest the inlet face center (ties to lowest index)."""
    fitted = np.array(sorted(fit.results), dtype=np.int64)
    target = grid.origin + np.array([grid.edge_length / 2.0, 0.0, 0.0])
    target[1:] = 0.0
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

    ``gid`` is each agent's global id, its index in injection order, which
    events and trajectory snapshots report. ``flat`` is each agent's cell:
    ``append`` takes it for new agents, and ``_record_frame`` rebins the
    survivors at the end of each frame. ``keep`` drops faulted and retired
    agents in one pass that keeps the order.
    """

    def __init__(self):
        self.pos = np.empty((0, 3))
        self.vel = np.empty((0, 3))
        self.thr = np.empty((0, 3))
        self.escaped = np.empty(0, dtype=bool)
        self.gid = np.empty(0, dtype=np.int64)
        self.flat = np.empty(0, dtype=np.int64)
        self.total = 0          # agents ever appended

    def __len__(self) -> int:
        return len(self.pos)

    def append(self, pos, vel, thr, flat) -> np.ndarray:
        """Add agents at cells ``flat``; returns their global ids."""
        n = len(pos)
        ids = np.arange(self.total, self.total + n)
        self.total += n
        self.pos = np.concatenate([self.pos, pos])
        self.vel = np.concatenate([self.vel, vel])
        self.thr = np.concatenate([self.thr, thr])
        self.escaped = np.concatenate([self.escaped, np.zeros(n, dtype=bool)])
        self.gid = np.concatenate([self.gid, ids])
        self.flat = np.concatenate([self.flat, flat])
        return ids

    def keep(self, mask) -> None:
        for name in ("pos", "vel", "thr", "escaped", "gid", "flat"):
            setattr(self, name, getattr(self, name)[mask])


def seed_tunnel(grid: ControlVolumeGrid, fit: GridFit, config: SimConfig,
                plant: PlantParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial population for the tunnel case.

    Every fitted cell whose center lies at or below the axial bound gets its
    fitted agent count, positions uniform in the cell, velocity equal to the
    cell's scaled command, thrust at hover.
    """
    bound = config.seed_x_max
    if bound is None:
        length = grid.geometry.length if grid.geometry is not None \
            else grid.dims[0] * grid.edge_length
        bound = 0.5 * length
    centers = grid.centers()
    pos_list, vel_list = [], []
    for f in sorted(fit.results):
        if centers[f, 0] > bound:
            continue
        res = fit.results[f]
        rng = np.random.default_rng((config.seed, 2, int(f)))
        lo = grid.origin + grid.unravel([f])[0] * grid.edge_length
        pos = lo + rng.random((res.n_star, 3)) * grid.edge_length
        vel = np.tile(config.scale * res.command, (res.n_star, 1))
        pos_list.append(pos)
        vel_list.append(vel)
    if not pos_list:
        raise ValueError("no cells to seed below the axial bound")
    pos = np.vstack(pos_list)
    vel = np.vstack(vel_list)
    thr = np.zeros_like(vel)
    thr[:, 2] = -plant.gravity
    return pos, vel, thr


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
    thr = np.zeros_like(vel)
    thr[:, 2] = -plant.gravity
    return pos, vel, thr


# ======================================================================
# collisions
# ======================================================================

def detect_collisions(pos, vel, config: SimConfig) -> list[tuple[int, int, str]]:
    """Classified colliding pairs among the given agents.

    Pairs closer than two body radii and closing faster than the approach
    floor are classified by heading alignment; grazing or separating pairs
    are ignored. Returned in ascending (a, b) index order.

    All candidate pairs are tested as arrays. Dot products go through
    ``np.vecdot``, the same BLAS dot a per-pair ``a @ b`` or ``norm`` calls,
    so every value and every decision equals the per-pair form's bit for bit;
    each mask is the negated rejection test, so NaN kinematics pass as they
    did there.
    """
    if len(pos) < 2:
        return []
    pairs = cKDTree(pos).query_pairs(2.0 * config.collision_radius,
                                     output_type="ndarray")
    if len(pairs) == 0:
        return []
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    dx = pos[pairs[:, 1]] - pos[pairs[:, 0]]
    dist = np.sqrt(np.vecdot(dx, dx))
    keep = ~(dist <= 1e-12)
    pairs, dx, dist = pairs[keep], dx[keep], dist[keep]
    va, vb = vel[pairs[:, 0]], vel[pairs[:, 1]]
    closing = np.vecdot(va - vb, dx / dist[:, None])
    keep = ~(closing <= config.min_approach_speed)
    pairs, va, vb = pairs[keep], va[keep], vb[keep]
    sa, sb = np.sqrt(np.vecdot(va, va)), np.sqrt(np.vecdot(vb, vb))
    keep = ~((sa < 1e-9) | (sb < 1e-9))
    align = np.vecdot(va[keep], vb[keep]) / (sa[keep] * sb[keep])
    kind = np.where(align > config.overtake_cos, "overtake",
                    np.where(np.abs(align) >= config.headon_cos,
                             "headon", "sideswipe"))
    return [(a, b, k) for (a, b), k in zip(pairs[keep].tolist(), kind.tolist())]


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
    table = build_command_table(grid, fit, config.scale)
    length = grid.geometry.length if grid.geometry is not None \
        else grid.origin[0] + grid.dims[0] * grid.edge_length

    rate, cell0 = injection_rate(grid, fit)
    n_batch = config.batch_size if config.batch_size is not None \
        else max(1, int(round(rate * config.dt_source)))

    n_frames = int(round(config.duration / config.dt))
    trace = SimulationTrace(
        config=config, plant=plant, dims=grid.dims,
        frame_t=(np.arange(n_frames) + 1) * config.dt,
        frames=[], events=[], command_table=table,
        injection_rate=rate, batch_size=n_batch,
        frame_counts=np.zeros((n_frames, len(FRAME_COUNT_COLUMNS)),
                              dtype=np.int64))

    pop = _Population()
    counts = trace.frame_counts
    injected, retired, escaped, faulted, collided = range(5)
    if config.case == "tunnel_seeding":
        pos, vel, thr = seed_tunnel(grid, fit, config, plant)
        ids = pop.append(pos, vel, thr, assign_cell(pos, grid))
        counts[0, injected] += len(ids)
        trace.events.extend((0.0, "inject", i, -1) for i in ids.tolist())
    stride = max(1, int(round(config.dt_source / config.dt)))

    for k in range(n_frames):
        t = k * config.dt
        t_end = float(trace.frame_t[k])   # end-of-frame events share the frame clock
        if config.case == "reservoir" and k % stride == 0:
            pos, vel, thr = make_batch(grid, fit, config, plant,
                                       k // stride, n_batch, cell0)
            ids = pop.append(pos, vel, thr, assign_cell(pos, grid))
            counts[k, injected] += len(ids)
            trace.events.extend((t, "inject", i, -1) for i in ids.tolist())

        if len(pop):
            state = plant_step(PlantState(pop.vel, pop.thr), table[pop.flat],
                               config.dt, plant)
            pop.vel = state.velocity
            pop.thr = state.thrust_accel
            pop.pos += state.velocity * config.dt

            if config.collisions:
                # non-finite agents (the KD-tree rejects them) fault below
                live = np.flatnonzero(np.isfinite(pop.pos).all(axis=1)
                                      & np.isfinite(pop.vel).all(axis=1))
                sub_vel = pop.vel[live]
                pairs = detect_collisions(pop.pos[live], sub_vel, config)
                applied = resolve_collisions(sub_vel, pairs)
                pop.vel[live] = sub_vel
                gid = pop.gid[live]
                counts[k, collided] = len(applied)
                trace.events.extend(
                    (t_end, f"collision_{kind}", int(gid[a]), int(gid[b]))
                    for a, b, kind in applied)

            # wall escape: through the lateral wall, still inside the span
            p = pop.pos
            if grid.geometry is not None:
                in_span = (p[:, 0] >= 0.0) & (p[:, 0] <= length)
                rad = grid.geometry.radius(np.clip(p[:, 0], 0.0, length))
                outside = in_span & (p[:, 1] ** 2 + p[:, 2] ** 2 > rad * rad) \
                    & ~pop.escaped
                trace.events.extend((t_end, "wall_escape", i, -1)
                                    for i in pop.gid[outside].tolist())
                pop.escaped |= outside
                counts[k, escaped] = outside.sum()

            # faults: non-finite state ends the agent's run; the others
            # retire past the outlet plane
            bad = ~np.isfinite(p).all(axis=1) \
                | ~np.isfinite(pop.vel).all(axis=1)
            gone = ~bad & (p[:, 0] > length)
            trace.events.extend((t_end, "fault", i, -1)
                                for i in pop.gid[bad].tolist())
            trace.events.extend((t_end, "retire", i, -1)
                                for i in pop.gid[gone].tolist())
            counts[k, faulted] = bad.sum()
            counts[k, retired] = gone.sum()
            if counts[k, faulted] or counts[k, retired]:
                pop.keep(~(bad | gone))

        trace.frames.append(_record_frame(pop, grid))
        if config.record_trajectories and k % config.trajectory_stride == 0:
            trace.trajectories.append(
                (t_end, pop.gid.copy(), pop.pos.copy(), pop.vel.copy()))

    totals = counts.sum(axis=0).tolist()
    trace.injected, trace.retired, trace.escaped, trace.faults = totals[:4]
    return trace


def _record_frame(pop: _Population, grid: ControlVolumeGrid) -> FrameRecord:
    """Per-cell sums over the active agents, whose cells it leaves on
    ``pop.flat`` for the next frame's commands."""
    if len(pop) == 0:
        z = np.empty(0)
        return FrameRecord(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                           np.empty((0, 3)), z, z.copy())
    flat = pop.flat = assign_cell(pop.pos, grid)
    order = np.argsort(flat, kind="stable")
    flat_s = flat[order]
    start = np.flatnonzero(np.diff(flat_s, prepend=-1))   # flat_s is sorted
    cells = flat_s[start]
    counts = np.diff(np.append(start, len(flat_s)))
    vel = pop.vel[order]
    vsum = np.add.reduceat(vel, start, axis=0)
    sumv2 = np.add.reduceat(np.einsum("ij,ij->i", vel, vel), start)
    tgt = grid.v_target[flat_s]
    d = vel - tgt
    dev2 = np.add.reduceat(np.einsum("ij,ij->i", d, d), start)
    return FrameRecord(cells, counts, vsum, sumv2, dev2)


def population_balance(trace: SimulationTrace) -> dict:
    """Bookkeeping: injected = still-active + retired + faulted."""
    last = trace.frames[-1]
    active_now = int(last.counts.sum()) if len(last.counts) else 0
    return {"injected": trace.injected, "active": active_now,
            "retired": trace.retired, "faults": trace.faults,
            "balanced": trace.injected == active_now + trace.retired + trace.faults}


# ======================================================================
# run record
# ======================================================================

RUN_FILE = "trace.npz"
RUN_FORMAT = 4
FRAME_COLUMNS = ("cells", "counts", "vsum", "sumv2", "dev2")
EVENT_COLUMNS = ("event_t", "event_kind", "event_a", "event_b")
TRAJ_COLUMNS = ("traj_ids", "traj_pos", "traj_vel")
RUN_KEYS = ("meta", "frame_t", "frame_offsets", *FRAME_COLUMNS,
            "frame_counts", *EVENT_COLUMNS, "traj_t", "traj_offsets",
            *TRAJ_COLUMNS, "command_table")
META_KEYS = ("format", "config", "plant", "dims", "injection_rate",
             "batch_size", "injected", "retired", "escaped", "faults")


def _run_columns(trace: SimulationTrace, meta: dict):
    """(name, array) pairs of the run record, each built when it is asked for."""
    frames, snaps = trace.frames, trace.trajectories
    yield "meta", np.array(json.dumps(meta))
    yield "frame_t", trace.frame_t
    yield "frame_offsets", np.cumsum([0] + [len(r.cells) for r in frames])
    for name in FRAME_COLUMNS:
        yield name, np.concatenate([getattr(r, name) for r in frames] or [
            np.empty((0, 3)) if name == "vsum" else np.empty(0)])
    yield "frame_counts", trace.frame_counts
    for i, (name, dtype) in enumerate(zip(EVENT_COLUMNS,
                                          (float, str, np.int64, np.int64))):
        yield name, np.array([e[i] for e in trace.events], dtype=dtype)
    yield "traj_t", np.array([s[0] for s in snaps], dtype=float)
    yield "traj_offsets", np.cumsum([0] + [len(s[1]) for s in snaps])
    for i, name in enumerate(TRAJ_COLUMNS, start=1):
        yield name, np.concatenate([s[i] for s in snaps] or [
            np.empty(0, dtype=np.int64) if i == 1 else np.empty((0, 3))])
    yield "command_table", trace.command_table


def save_run(trace: SimulationTrace, outdir) -> None:
    """Write the whole trace to ``outdir/trace.npz`` (binary, uncompressed).

    Frame records and trajectory snapshots are flat columns cut by offsets,
    events are one column per tuple field, the per-frame counts are one
    (frames, 5) array, and config, plant and counters are one JSON string.
    ``load_run`` reads back a trace equal to this one. Columns are built and
    written one at a time, so the frames are never held twice over.
    """
    os.makedirs(outdir, exist_ok=True)
    meta = {"format": RUN_FORMAT, "config": asdict(trace.config),
            "plant": asdict(trace.plant), "dims": [int(d) for d in trace.dims],
            "injection_rate": trace.injection_rate,
            "batch_size": trace.batch_size, "injected": trace.injected,
            "retired": trace.retired, "escaped": trace.escaped,
            "faults": trace.faults}
    with zipfile.ZipFile(os.path.join(outdir, RUN_FILE), "w") as zf:
        for name, column in _run_columns(trace, meta):
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, column, allow_pickle=False)


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

    Raises ValueError on a missing key, another format version, columns
    whose lengths disagree with each other or with their offsets, or totals
    that differ from the sums of the per-frame counts.
    """
    with np.load(os.path.join(rundir, RUN_FILE), allow_pickle=False) as npz:
        missing = sorted(set(RUN_KEYS) - set(npz.files))
        if missing:
            raise ValueError(f"{RUN_FILE}: missing {missing}")
        a = {k: npz[k] for k in RUN_KEYS}
    meta = json.loads(a["meta"].item())
    missing = sorted(set(META_KEYS) - set(meta))
    if missing:
        raise ValueError(f"{RUN_FILE}: metadata is missing {missing}")
    if meta["format"] != RUN_FORMAT:
        raise ValueError(f"{RUN_FILE}: format {meta['format']!r}, "
                         f"expected {RUN_FORMAT}")
    events = [a[k] for k in EVENT_COLUMNS]
    if len({len(c) for c in events}) != 1:
        raise ValueError(f"{RUN_FILE}: event columns differ in length")
    frames = _split([a[k] for k in FRAME_COLUMNS], a["frame_offsets"],
                    len(a["frame_t"]))
    if a["frame_counts"].shape != (len(frames), len(FRAME_COUNT_COLUMNS)):
        raise ValueError(f"{RUN_FILE}: frame_counts has shape "
                         f"{a['frame_counts'].shape}")
    wrong = [k for k, total in zip(("injected", "retired", "escaped", "faults"),
                                   a["frame_counts"].sum(axis=0).tolist())
             if meta[k] != total]
    if wrong:
        raise ValueError(f"{RUN_FILE}: totals {wrong} differ from the sums "
                         f"of frame_counts")
    snaps = _split([a[k] for k in TRAJ_COLUMNS], a["traj_offsets"],
                   len(a["traj_t"]))
    return SimulationTrace(
        config=_dataclass_from(SimConfig, meta["config"]),
        plant=_dataclass_from(PlantParams, meta["plant"]),
        dims=tuple(meta["dims"]), frame_t=a["frame_t"],
        frames=[FrameRecord(*cols) for cols in frames],
        events=list(zip(*(c.tolist() for c in events))),
        command_table=a["command_table"],
        injection_rate=meta["injection_rate"], batch_size=meta["batch_size"],
        injected=meta["injected"], retired=meta["retired"],
        escaped=meta["escaped"], faults=meta["faults"],
        frame_counts=a["frame_counts"],
        trajectories=[(t, *cols) for t, cols
                      in zip(a["traj_t"].tolist(), snaps)])
