"""Swarm simulation: agents flying fitted per-cell velocity commands.

Two start-up cases:

* ``tunnel_seeding``: every fitted cell up to an axial bound starts with
  ``SET_SIZE`` agents, all holding the cell's (scaled) command;
* ``reservoir``: the duct starts empty and batches of agents enter at the
  inlet disc at a fixed cadence, sized so the entry cell's fitted count and
  mean speed set the through-flow.

Per frame: each active agent receives its cell's broadcast command (cells
without a fit use the nearest fitted cell's), steps its velocity plant and
moves. An agent whose position or velocity is then not finite faults and
leaves the population at once, so every later stage sees finite agents
only: the optional collision pass, the wall test (agents that drift
through the duct wall are logged once and keep flying) and retirement past
the outlet, ``geometry.length``. The population holds only the active
agents. The frame reduction bins the agents once per frame, after
retirement; those cells are the next frame's command cells, since nothing
moves an agent in between, so only newly injected agents are binned when
they arrive.

The population keeps positions, velocities and thrusts as (3, N) row views
of one (9, N) block, one contiguous row per component, which the plant
steps row by row and binning reads without a copy. The frame table holds
the swarm's own moments, one row per occupied cell and frame, summed from
one (4, N) block: the agent count, the velocity sum and the sum of squared
speeds. It reads no target; the analysis derives deviations from these
sums. A one-agent row's sum of squared speeds is its velocity sum's
squared length, so the table stores that sum only for rows of two or more
agents and its readers rebuild the rest (``speed2``). Its integer columns
take the narrowest unsigned types that hold their values
(``frame_columns``): cells the lattice's last flat index, counts the
number of agents the run injects, which no cell can exceed. The default
runs store 2 B of each, so a row is 28 B, and 36 B with its sum of
squared speeds. The rows fill fixed-size chunks, each cut out of one
allocation, which no frame copies or grows. Each event is one row of the
run's event table, its only population record. All randomness is drawn
from generators seeded by (seed, purpose, index), so traces are
reproducible.

Collisions are overtakes: a close pair closing faster than the approach
floor, ``MIN_APPROACH_SPEED`` in the m/s the agents fly, its headings
aligned above ``OVERTAKE_COS``, moves speed from the faster agent to the
slower; no other pair collides, and headings never change. The close
pairs come from a cell list (``close_pairs``) that follows the rule of
SciPy's ``cKDTree.query_pairs``, and the pass runs on the population's own
rows. Trajectory snapshots, when recorded, are taken every
``TRAJECTORY_STRIDE`` frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .partition import ControlVolumeGrid, assign_cell
from .primitives import (FINITE_POSITIVE, FLAG, NOT_NAN, SEED, Domain,
                         check_fields, integers_from, optional, ranged)
from .reference_field import NozzleGeometry
from .velocity_fit import SET_SIZE, GridFit
from .velocity_plant import PlantParams, PlantState, step as plant_step

CASES = ("tunnel_seeding", "reservoir")

OVERTAKE_TRANSFER = 0.25    # fraction of the speed difference moved
SPEED_LIMIT = 30.0          # post-collision speed clamp, m/s
# closing speed a pair must exceed to overtake, in flown m/s: agents fly
# the scaled commands, so a floor in the reference field's units (0.5 m/s
# against closing speeds of about 0.12 m/s at scale 0.1) fires none
MIN_APPROACH_SPEED = 0.05
OVERTAKE_COS = 0.7          # heading alignment above which a pair overtakes
TRAJECTORY_STRIDE = 10      # frames between trajectory snapshots
# the most frames a duration may round to (3.4 years at 0.05 s): the loop
# allocates every frame's end time up front
MAX_FRAMES = 2 ** 31 - 1


@dataclass(frozen=True)
class SimConfig:
    case: str = ranged("reservoir", Domain(f"must be one of {CASES}",
                                           lambda x: x in CASES))
    dt: float = ranged(0.05, FINITE_POSITIVE)
    duration: float = ranged(60.0, FINITE_POSITIVE)
    # command scaling applied at broadcast
    scale: float = ranged(0.1, FINITE_POSITIVE)
    seed: int = ranged(0, SEED)
    collisions: bool = ranged(False, FLAG)
    collision_radius: float = ranged(0.15, FINITE_POSITIVE)  # agent body radius, m
    dt_source: float = ranged(0.5, FINITE_POSITIVE)  # reservoir batch cadence, s
    # None: sized from the entry cell's fit
    batch_size: int | None = ranged(None, optional(integers_from(1)))
    # tunnel case axial fill bound (±inf: every cell or none); None: mid-duct
    seed_x_max: float | None = ranged(None, optional(NOT_NAN))
    record_trajectories: bool = ranged(False, FLAG)

    def __post_init__(self):
        check_fields(self)
        if not 0.5 < self.duration / self.dt < MAX_FRAMES + 0.5:
            raise ValueError("the duration must round to at least one frame, "
                             f"and to finitely many: at most {MAX_FRAMES}")
        if self.dt_source < self.dt:
            raise ValueError("dt_source must be at least one frame")


# frame rows a chunk holds. A chunk is one allocation: 2.25 MiB at 36 B a
# row on the default runs, below numpy's 4 MiB huge-page advice
FRAME_CHUNK_ROWS = 1 << 16
READ_ROWS = 1 << 13     # rows a reader takes at once: bounds its temporaries


def speed2(rows, out=None) -> np.ndarray:
    """|v|^2 of the (3, N) component rows ``rows``, added x, z, then y:
    the order of ``einsum("ij,ij->i")`` on (N, 3) rows."""
    sq = np.square(rows)
    out = np.add(sq[0], sq[2], out=out)
    out += sq[1]
    return out


class FrameChunk(NamedTuple):
    """Consecutive rows of a frame table: per occupied cell and frame, the
    swarm's own moments. Cells and counts are unsigned integers of the
    widths ``frame_columns`` gives, the sums float64: on the default runs a
    row is 2 + 2 B of integers and 24 B of ``vsum``, 28 B, and 36 B with
    its ``sumv2``.

    A table's chunks store the sum of squared speeds only for the rows of
    two or more agents, in row order: a one-agent row's is
    ``speed2(vsum.T)``. The pieces ``FrameTable.pieces`` yields hold every
    row's."""

    cells: np.ndarray       # (R,) flat indices, ascending within a frame
    counts: np.ndarray      # (R,) agents per cell, each at least 1
    vsum: np.ndarray        # (R, 3) velocity sums
    sumv2: np.ndarray       # sums of squared speeds: see above


def frame_columns(num_cells: int, injected: int) -> dict:
    """A frame table's stored columns, in ``FrameChunk`` order: dtype and
    row shape. Cells take the narrowest unsigned type that holds the last
    flat index of a lattice of ``num_cells`` cells, counts the narrowest
    that holds ``injected``, the agents the run injects, which no cell can
    exceed. ``sumv2`` holds one value per row of two or more agents, in
    row order."""
    return {"cells": (np.min_scalar_type(int(num_cells) - 1), ()),
            "counts": (np.min_scalar_type(int(injected)), ()),
            "vsum": (np.dtype(np.float64), (3,)),
            "sumv2": (np.dtype(np.float64), ())}


@dataclass(eq=False)
class FrameTable:
    """A run's frame rows in chunks; frame ``k`` is rows
    ``offsets[k]:offsets[k + 1]``, stored as ``columns``
    (``frame_columns``) give. The loop fills chunks of
    ``FRAME_CHUNK_ROWS`` rows (one frame's, when it holds more) in place, so
    no row is copied or held twice; a loaded run is one chunk."""

    offsets: np.ndarray             # (frames + 1,) int64 row offsets
    chunks: list[FrameChunk]        # each cut to the rows written
    columns: dict                   # dtype and row shape of each column

    def __iter__(self):
        return iter(self.chunks)

    @property
    def row_bytes(self) -> int:
        """Bytes of one row of every column, ``sumv2`` included."""
        return sum(np.dtype(dtype).itemsize * math.prod(shape)
                   for dtype, shape in self.columns.values())

    def _cut(self, buf: np.ndarray) -> FrameChunk:
        """The full-length columns of the chunk buffer ``buf``, one after
        another, each as many rows long as ``buf`` holds whole rows."""
        rows, start, cols = len(buf) // self.row_bytes, 0, []
        for dtype, shape in self.columns.values():
            cols.append(np.ndarray((rows, *shape), dtype, buf, start))
            start += cols[-1].nbytes
        return FrameChunk(*cols)

    def extend(self, k: int, n: int, many: int) -> FrameChunk:
        """Views of frame ``k``'s ``n`` rows, whose ``sumv2`` holds the
        ``many`` rows of two or more agents. A chunk's four columns are cut
        out of one uint8 buffer, which only their ``.base`` holds; its row
        count is a multiple of 64, so each column starts 64-byte aligned
        in it. The last chunk grows into its buffer while that has room;
        each column fills from its front, so the pages past its rows are
        never written."""
        self.offsets[k + 1] = self.offsets[k] + n
        last = self.chunks[-1] if self.chunks else None
        if last is not None and \
                len(last.cells) + n <= len(last.cells.base) // self.row_bytes:
            self.chunks.pop()
            full = self._cut(last.cells.base)
        else:
            rows = -(-max(FRAME_CHUNK_ROWS, n) // 64) * 64
            full = self._cut(np.empty(rows * self.row_bytes, np.uint8))
            last = FrameChunk(*(c[:0] for c in full))
        ends = [len(c) + m for c, m in zip(last, (n, n, n, many))]
        self.chunks.append(FrameChunk(*(c[:e] for c, e in zip(full, ends))))
        return FrameChunk(*(c[len(s):e] for c, s, e in zip(full, last, ends)))

    def pieces(self, start: int = 0):
        """``(row, piece)`` over the rows from ``start`` on: at most
        ``READ_ROWS`` rows of one chunk, and the first one's row. Each
        piece's ``sumv2`` holds every row's, the one-agent rows' rebuilt
        from their ``vsum``."""
        end = 0
        for cells, counts, vsum, sumv2 in self.chunks:
            row, end = end, end + len(cells)
            if end <= start:
                continue
            first = max(start - row, 0)
            head = counts[:first]       # the chunk's rows before ``start``
            # the stored sumv2 values before row ``lo``
            kept = sum(np.count_nonzero(head[lo:lo + READ_ROWS] > 1)
                       for lo in range(0, first, READ_ROWS))
            for lo in range(first, len(cells), READ_ROWS):
                hi = lo + READ_ROWS
                many = counts[lo:hi] > 1
                full = speed2(vsum[lo:hi].T)
                n = np.count_nonzero(many)
                full[many] = sumv2[kept:kept + n]
                kept += n
                yield row + lo, FrameChunk(cells[lo:hi], counts[lo:hi],
                                           vsum[lo:hi], full)

    def count_pieces(self, start: int = 0, stop: int | None = None):
        """``(row, counts)`` over rows ``start:stop``: at most ``READ_ROWS``
        rows of one chunk, and the first one's row; no sum is read."""
        stop = self.offsets[-1] if stop is None else stop
        row = 0
        for chunk in self.chunks:
            end = min(stop - row, len(chunk.counts))
            for lo in range(max(start - row, 0), end, READ_ROWS):
                yield row + lo, chunk.counts[lo:min(lo + READ_ROWS, end)]
            row += len(chunk.counts)

    def __eq__(self, other) -> bool:
        """Equal offsets and stored values, however the two tables' chunks
        fall and whatever their columns' widths."""
        return np.array_equal(self.offsets, other.offsets) and all(
            _same_rows([c[i] for c in self], [c[i] for c in other])
            for i in range(len(FrameChunk._fields)))


def _same_rows(a: list, b: list) -> bool:
    """Whether the arrays ``a``, read one after another, hold the rows of
    the arrays ``b``: one walk over both, at most ``READ_ROWS`` rows a
    step."""
    if sum(map(len, a)) != sum(map(len, b)):
        return False
    rest, y = iter(b), ()
    for x in a:
        while len(x):
            while not len(y):
                y = next(rest)
            n = min(len(x), len(y), READ_ROWS)
            if not np.array_equal(x[:n], y[:n]):
                return False
            x, y = x[n:], y[n:]
    return True


EVENT_KINDS = ("inject", "retire", "wall_escape", "fault", "collision_overtake")
INJECT, RETIRE, WALL_ESCAPE, FAULT, OVERTAKE = range(len(EVENT_KINDS))


@dataclass(eq=False)
class EventTable:
    """One row per event, in the order the loop met them: the frame index,
    the kind's index in ``EVENT_KINDS``, the agent's global id and, for a
    collision, the other agent's (-1 otherwise). Injections happen at the
    start of their frame, every other event at its end, in the order
    fault, overtake, wall escape, retire."""

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
    frames: FrameTable
    events: EventTable                # the population record; counts below
    injection_rate: float             # agents/s implied by the entry cell
    batch_size: int
    fit: dict                         # rng_seed, set_size, pressure_offset
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
        offsets, total = self.frames.offsets, 0
        before = np.zeros(len(offsets), dtype=np.int64)   # agents in rows before
        for row, counts in self.frames.count_pieces():
            seen = total + counts.cumsum(dtype=np.int64)
            lo, hi = offsets.searchsorted([row, row + len(seen)], side="right")
            before[lo:hi] = seen[offsets[lo:hi] - row - 1]
            total = seen[-1]
        return np.diff(before)

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
    fitted = fit.cells
    if len(fitted) == 0:
        raise ValueError("fit has no cells")
    commands = np.zeros((grid.num_cells, 3))
    commands[fitted] = fit.commands()
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
    target = np.array([grid.origin[0] + grid.edge_length / 2.0, 0.0, 0.0])
    d = np.linalg.norm(grid.centers()[fit.cells] - target, axis=1)
    return int(fit.cells[np.argmin(d)])


def injection_rate(grid: ControlVolumeGrid, fit: GridFit) -> tuple[float, int]:
    """Agents/s through the inlet and the entry cell index.

    rate = SET_SIZE * ||mean fitted velocity|| / edge_length for the entry
    cell. The unscaled fitted speed sets the rate (the reference
    through-flow); agents themselves fly the scaled command.
    """
    cell = entry_cell(grid, fit)
    rate = SET_SIZE * float(np.linalg.norm(fit.command(cell))) / grid.edge_length
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
    frame. ``keep`` drops agents, faulted or retired, in one pass that
    keeps the order: one ``take`` per block.
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


def seed_tunnel(grid: ControlVolumeGrid, fit: GridFit,
                config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial population for the tunnel case.

    Every fitted cell whose center lies at or below the axial bound
    (``seed_x_max``, by default the middle of the duct) gets
    ``SET_SIZE`` agents, positions uniform in the cell, velocity equal to
    the cell's scaled command, thrust at hover. One
    ``default_rng((seed, 2))`` draws the unit positions of all seeded cells
    in ascending cell order, so a lower bound places the agents it keeps
    exactly where a higher one does.
    """
    bound = config.seed_x_max
    if bound is None:
        bound = 0.5 * grid.geometry.length
    keep = ~(grid.centers()[fit.cells, 0] > bound)
    cells = fit.cells[keep]
    if len(cells) == 0:
        raise ValueError("no cells to seed below the axial bound")
    corners = grid.origin + grid.unravel(cells) * grid.edge_length
    unit = np.random.default_rng((config.seed, 2)).random(
        (len(cells), SET_SIZE, 3))
    pos = (corners[:, None] + unit * grid.edge_length).reshape(-1, 3)
    vel = np.repeat(config.scale * fit.commands()[keep], SET_SIZE, axis=0)
    return pos, vel, PlantState.hover(len(vel)).thrust_accel


def make_batch(grid: ControlVolumeGrid, fit: GridFit, config: SimConfig,
               batch_index: int, n_batch: int, cell: int):
    """One injection batch: uniform over the inlet disc, x in [0, edge)."""
    rng = np.random.default_rng((config.seed, 3, batch_index))
    rr = float(grid.geometry.radius(0.0)) * np.sqrt(rng.random(n_batch))
    th = 2.0 * np.pi * rng.random(n_batch)
    x = grid.origin[0] + rng.random(n_batch) * grid.edge_length
    pos = np.column_stack([x, rr * np.cos(th), rr * np.sin(th)])
    vel = np.tile(config.scale * fit.command(cell), (n_batch, 1))
    return pos, vel, PlantState.hover(n_batch).thrust_accel


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


def detect_collisions(pos, vel, config: SimConfig) -> np.ndarray:
    """Overtaking pairs among the given agents, as (M, 2) rows of ascending
    (a, b) indices; (0, 2) when there are none.

    A pair at most two body radii apart (``close_pairs``) overtakes when it
    closes faster than the approach floor and its headings align above
    ``OVERTAKE_COS``. Raises ValueError when there are two or more agents
    and a position is not finite.

    All candidate pairs are tested as arrays, on (3, M) component rows
    gathered from ``pos.T`` and ``vel.T``: the loop passes (N, 3) views of
    its (3, N) rows, so those are the rows themselves. Dot products go
    through ``np.vecdot`` along axis 0, which sums as ``np.vecdot`` on
    (M, 3) rows and as a per-pair ``a @ b`` or ``norm`` does, so every
    value and every decision equals the per-pair form's bit for bit; each
    mask is the negated rejection test, so NaN kinematics fare as they do
    there. Distance and closing speed are computed for every candidate pair
    (the closing speed of a coincident pair is NaN or infinite, and the
    distance test rejects it) and both tests select in one mask; when it
    selects nothing, the detection ends there.
    """
    if len(pos) < 2:
        return np.empty((0, 2), dtype=np.intp)
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
    keep = ~(dist <= 1e-12) & ~(closing <= MIN_APPROACH_SPEED)
    keep = keep.nonzero()[0]
    if len(keep) == 0:
        return np.empty((0, 2), dtype=np.intp)
    va, vb = va[:, keep], vb[:, keep]
    sa = np.sqrt(np.vecdot(va, va, axis=0))
    sb = np.sqrt(np.vecdot(vb, vb, axis=0))
    moving = ~((sa < 1e-9) | (sb < 1e-9))
    align = np.vecdot(va[:, moving], vb[:, moving], axis=0) \
        / (sa[moving] * sb[moving])
    keep = keep[moving][align > OVERTAKE_COS]
    return np.column_stack([a[keep], b[keep]])


def resolve_collisions(vel, pairs) -> np.ndarray:
    """Apply the overtakes ``pairs``, (M, 2) index rows into ``vel``, in
    order, and return the applied rows as (M', 2); a pair with a parked
    agent is skipped. Each moves ``OVERTAKE_TRANSFER`` of the speed
    difference from the faster to the slower agent (their speed sum is
    conserved); speeds clamp to ``SPEED_LIMIT``, and headings never change.
    """
    applied = []
    for a, b in pairs.tolist():
        sa, sb = np.linalg.norm(vel[a]), np.linalg.norm(vel[b])
        if sa < 1e-9 or sb < 1e-9:
            continue
        fast, slow = (a, b) if sa >= sb else (b, a)
        sf, ss = max(sa, sb), min(sa, sb)
        delta = OVERTAKE_TRANSFER * (sf - ss)
        vel[fast] *= (sf - delta) / sf
        vel[slow] *= (ss + delta) / ss
        for i in (a, b):
            s = np.linalg.norm(vel[i])
            if s > SPEED_LIMIT:
                vel[i] *= SPEED_LIMIT / s
        applied.append((a, b))
    return np.array(applied, dtype=np.intp).reshape(-1, 2)


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
    # commands as component rows, gathered per agent by column
    table = np.ascontiguousarray(build_command_table(grid, fit, config.scale).T)
    outlet = grid.geometry.length

    rate, cell0 = injection_rate(grid, fit)
    n_batch = config.batch_size if config.batch_size is not None \
        else max(1, int(round(rate * config.dt_source)))

    n_frames = int(round(config.duration / config.dt))
    frame_t = (np.arange(n_frames) + 1) * config.dt
    trajectories = []
    log = _EventLog()
    pop = _Population()
    stride = max(1, int(round(config.dt_source / config.dt)))
    if config.case == "tunnel_seeding":
        pos, vel, thr = seed_tunnel(grid, fit, config)
        log.add(0, INJECT, pop.append(pos, vel, thr, assign_cell(pos, grid)))
        injected = pop.total
    else:       # one batch at each frame a multiple of the stride
        injected = -(-n_frames // stride) * n_batch
    frames = FrameTable(np.zeros(n_frames + 1, dtype=np.int64), [],
                        frame_columns(grid.num_cells, injected))

    for k in range(n_frames):
        if config.case == "reservoir" and k % stride == 0:
            pos, vel, thr = make_batch(grid, fit, config, k // stride,
                                       n_batch, cell0)
            log.add(k, INJECT, pop.append(pos, vel, thr,
                                          assign_cell(pos, grid)))

        state = plant_step(PlantState(pop.vel.T, pop.thr.T),
                           table.take(pop.flat, axis=1).T, config.dt, plant)
        pos, vel, thr = pop.pos, pop.vel, pop.thr
        vel[...] = state.velocity.T
        thr[...] = state.thrust_accel.T
        del state       # frees the plant's rows and workspace before the next step
        pos += vel * config.dt

        # a non-finite position or velocity ends the agent's run before
        # any other stage reads it
        bad = ~np.isfinite(pop.rows[:6]).all(axis=0)
        if bad.any():
            log.add(k, FAULT, pop.gid[bad])
            pop.keep(~bad)

        if config.collisions:
            vel = pop.vel.T
            applied = resolve_collisions(
                vel, detect_collisions(pop.pos.T, vel, config))
            log.add(k, OVERTAKE, pop.gid[applied[:, 0]],
                    pop.gid[applied[:, 1]])

        # wall escape: through the lateral wall, still inside the span
        out = _through_wall(pop.pos, pop.escaped, grid.geometry)
        log.add(k, WALL_ESCAPE, pop.gid[out])
        pop.escaped[out] = True

        gone = pop.pos[0] > outlet
        if gone.any():
            log.add(k, RETIRE, pop.gid[gone])
            pop.keep(~gone)

        _record_frame(pop, grid, frames, k)
        if config.record_trajectories and k % TRAJECTORY_STRIDE == 0:
            trajectories.append((float(frame_t[k]), pop.gid.copy(),
                                 pop.pos.T.copy(), pop.vel.T.copy()))

    return SimulationTrace(config=config, plant=plant, frame_t=frame_t,
                           frames=frames,
                           events=EventTable(*log.columns[:, :log.n].copy()),
                           injection_rate=rate, batch_size=n_batch,
                           fit={"rng_seed": int(fit.config.rng_seed),
                                "set_size": fit.velocities.shape[1],
                                "pressure_offset": float(fit.pressure_offset)},
                           trajectories=trajectories)


def _through_wall(pos, escaped, geometry: NozzleGeometry) -> np.ndarray:
    """Ascending indices of the agents, not escaped before, that are
    outside the lateral wall but inside the duct's span; ``pos`` is (3, N)
    and finite, since faulted agents have left the population by then.

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


def _record_frame(pop: _Population, grid: ControlVolumeGrid,
                  frames: FrameTable, k: int) -> None:
    """Frame ``k``'s rows of ``frames``: per-cell sums over the active
    agents, whose cells it leaves on ``pop.flat`` for the next frame's
    commands.

    The agents, sorted by cell, fill one (4, N) block of rows vx, vy, vz
    and |v|^2 (``speed2``), which ``reduceat`` sums per cell into the
    frame's vsum and sumv2; sumv2 keeps the cells of two or more agents.
    """
    flat = pop.flat
    flat[...] = assign_cell(pop.pos.T, grid)
    # keys in the table's cells dtype: a stable sort's order depends on the
    # keys alone, and keys that fit 16 bits get numpy's radix sort
    keys = flat.astype(frames.columns["cells"][0])
    order = np.argsort(keys, kind="stable")
    flat_s = keys[order]
    first = np.empty(len(flat_s), dtype=bool)     # first agent of its cell
    first[:1] = True
    np.not_equal(flat_s[1:], flat_s[:-1], out=first[1:])
    start = first.nonzero()[0]
    counts = np.diff(start, append=len(flat_s))
    many = counts > 1
    rows = frames.extend(k, len(start), np.count_nonzero(many))
    rows.cells[...] = flat_s[start]
    rows.counts[...] = counts
    block = np.empty((4, len(order)))
    speed2(np.take(pop.vel, order, axis=1, out=block[:3]), out=block[3])
    np.add.reduceat(block[:3], start, axis=1, out=rows.vsum.T)
    np.compress(many, np.add.reduceat(block[3], start), out=rows.sumv2)


def population_balance(trace: SimulationTrace) -> dict:
    """Bookkeeping: injected = still-active + retired + faulted, the
    active agents summed over the last frame's rows."""
    offsets = trace.frames.offsets
    last = trace.frames.count_pieces(offsets[-2], offsets[-1])
    active = sum(int(c.sum(dtype=np.int64)) for _, c in last)
    total = trace.totals
    injected, retired, faults = total["inject"], total["retire"], total["fault"]
    return {"injected": injected, "active": active, "retired": retired,
            "faults": faults, "balanced": injected == active + retired + faults}
