"""Test references: per-agent bulk moments, (N, 3) plant shims, a
one-cell fit, frame tables frame by frame and the per-frame field loop, the
per-row writers of the analysis files and the per-pair collision detector.

The library applies its closures only to per-cell frame sums
(``metrics.derive_fields``), steps the plant on (3, N) component rows and
fits every cell of a lattice in one pass. The routines here take one cell's
agents, or (N, 3) arrays, instead. They call the library's own formula
(``pressure_coefficient``), its plant row functions and its set solver, so
tests that use them as oracles still check the code the pipeline runs. The
library reads a run's frame table chunk by chunk and rebuilds the sum of
squared speeds of one-agent rows a piece at a time; the routines here join
it, rebuild that sum row by row and read it one frame at a time. The
analysis writers format one row at a time with their own normalization
maxima, as the library did before it wrote those files through
``write_table``; tests compare the files byte for byte.
The collision detector is the loop's as it was before the pass ran on the
population's rows, on (M, 3) pair rows with the pairs of
``cKDTree.query_pairs``.
"""

import hashlib

import numpy as np

from fluidswarm.metrics import default_transient, transit_time_estimate
from fluidswarm.primitives import pressure_coefficient
from fluidswarm import swarm_sim
from fluidswarm.swarm_sim import FrameChunk, FrameTable
from fluidswarm.velocity_fit import SET_SIZE, _solve
from fluidswarm.velocity_plant import (DRAG_FACTOR, PlantParams, _constrain,
                                       _desired, _drag, _feedforward, _rows)


# ======================================================================
# per-agent bulk moments
# ======================================================================

class UndefinedSampleError(ValueError):
    """Bulk observables are undefined for an empty cell."""


def _check(masses, velocities):
    m = np.asarray(masses, dtype=float).reshape(-1)
    v = np.asarray(velocities, dtype=float).reshape(-1, 3)
    if len(m) == 0:
        raise UndefinedSampleError("no agents in cell")
    if len(m) != len(v):
        raise ValueError("masses and velocities must have equal length")
    if np.any(m <= 0):
        raise ValueError("agent masses must be positive")
    return m, v


def swarm_density(masses, cell_volume: float) -> float:
    """Mass density: total agent mass per cell volume."""
    m = np.asarray(masses, dtype=float).reshape(-1)
    if len(m) == 0:
        raise UndefinedSampleError("no agents in cell")
    if cell_volume <= 0:
        raise ValueError("cell_volume must be positive")
    return float(m.sum() / cell_volume)


def internal_pressure(masses, velocities, cell_volume: float,
                      bulk_velocity) -> float:
    """P_int = (2 / (3 dV)) * sum_i m_i ||v_i - u||^2 about a given bulk
    velocity u."""
    m, v = _check(masses, velocities)
    w = v - np.asarray(bulk_velocity, dtype=float)
    return float(pressure_coefficient(1.0, cell_volume)
                 * (m @ np.einsum("ij,ij->i", w, w)))


def swarm_pressure(masses, velocities, cell_volume: float) -> float:
    """P = (2 / (3 dV)) * sum_i m_i ||v_i||^2, the pressure about rest."""
    return internal_pressure(masses, velocities, cell_volume, np.zeros(3))


def swarm_pressure_moment_form(masses, velocities, cell_volume: float) -> float:
    """The same pressure as (2/3) * rho * <||v||^2>, an independent route."""
    m, v = _check(masses, velocities)
    rho = m.sum() / cell_volume
    mean_sq = (m @ np.einsum("ij,ij->i", v, v)) / m.sum()
    return float(2.0 / 3.0 * rho * mean_sq)


def mass_mean_velocity(masses, velocities) -> np.ndarray:
    """Mass-weighted mean velocity."""
    m, v = _check(masses, velocities)
    return (m[:, None] * v).sum(axis=0) / m.sum()


# ======================================================================
# (N, 3) plant shims over the row functions ``step`` runs
# ======================================================================

def drag_force(v_air) -> np.ndarray:
    """Quadratic aerodynamic drag opposing the airspeed, per axis, N."""
    f = _drag(_rows(v_air), -DRAG_FACTOR[:, None]).T
    return f if np.ndim(v_air) > 1 else f[0]


def desired_accel(velocity, v_cmd, wind, params: PlantParams) -> np.ndarray:
    """Unconstrained thrust-acceleration demand, (N, 3)."""
    v, cmd = _rows(velocity), _rows(v_cmd)
    ff = _feedforward(cmd, _rows(wind), params)
    out = np.empty(np.broadcast_shapes(v.shape, cmd.shape, np.shape(ff)))
    return _desired(v, cmd, ff, out).T


def constrain_accel(accel, params: PlantParams) -> np.ndarray:
    """A demand clipped to the tilt cone, then to the thrust ball; the
    argument is left as it was."""
    a = _constrain(_rows(accel).copy(), params).T
    return a if np.ndim(accel) > 1 else a[0]


# ======================================================================
# one-cell fit
# ======================================================================

def fit_cell(v_target, p_target: float, cell_volume: float,
             rng: np.random.Generator, agent_mass: float = 1.0) -> np.ndarray:
    """One cell's (SET_SIZE, 3) set from the first ``SET_SIZE`` 3-vector
    draws of ``rng``, solved as ``fit_grid`` solves every cell.
    ``p_target`` must already be shifted to be nonnegative."""
    if p_target < 0:
        raise ValueError("pressure target must be nonnegative (pre-shifted)")
    if cell_volume <= 0:
        raise ValueError("cell_volume must be positive")
    vel = _solve(np.asarray(v_target, dtype=float)[None], np.array([p_target]),
                 cell_volume, agent_mass, rng.standard_normal((1, SET_SIZE, 3)))
    return vel[0]


# ======================================================================
# frame tables frame by frame
# ======================================================================

def one_chunk_table(offsets, chunk: FrameChunk) -> FrameTable:
    """The table of the one chunk ``chunk``, stored at its own dtypes."""
    return FrameTable(offsets, [chunk], {
        k: (c.dtype, c.shape[1:]) for k, c in zip(FrameChunk._fields, chunk)})


def frame_table(frames) -> FrameTable:
    """A one-chunk table of per-frame ``(cells, counts, vsum, sumv2)``
    rows, frame after frame, which stores the ``sumv2`` of the rows of two
    or more agents. A one-agent row's must be what a run records, its
    ``vsum``'s squared length."""
    offsets = np.cumsum([0] + [len(f[0]) for f in frames])
    cells, counts, vsum, sumv2 = map(np.concatenate, zip(*frames))
    many = counts > 1
    one = one_chunk_table(offsets,
                          FrameChunk(cells, counts, vsum, sumv2[many]))
    assert full_sumv2(one).tobytes() == sumv2.astype(float).tobytes()
    return one


def full_sumv2(table: FrameTable) -> np.ndarray:
    """Every row's sum of squared speeds, row by row: a row of two or more
    agents takes the next stored value, a one-agent row its velocity
    sum's (vx^2 + vz^2) + vy^2."""
    counts = np.concatenate([c.counts for c in table.chunks]).tolist()
    vsum = np.concatenate([c.vsum for c in table.chunks]).tolist()
    stored = iter(np.concatenate([c.sumv2 for c in table.chunks]).tolist())
    full = [next(stored) if n > 1 else (x * x + z * z) + y * y
            for n, (x, y, z) in zip(counts, vsum)]
    assert next(stored, None) is None
    return np.array(full, dtype=float)


def frame_rows(table: FrameTable) -> list[FrameChunk]:
    """Each frame's rows of ``table``, from its columns joined, with every
    row's ``sumv2`` (``full_sumv2``)."""
    cols = [np.concatenate(c) for c in zip(*table.chunks)]
    cols[3] = full_sumv2(table)
    o = table.offsets.tolist()
    return [FrameChunk(*(c[lo:hi] for c in cols))
            for lo, hi in zip(o[:-1], o[1:])]


def digest(obj) -> str:
    """sha256 of a nest of arrays, containers, records and scalars: each
    array's dtype, shape and bytes, and each record's ``vars()``."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for item in x:
                feed(item)
        elif isinstance(x, dict):
            h.update(b"{%d" % len(x))
            for k in sorted(x, key=str):
                h.update(str(k).encode())
                feed(x[k])
        elif hasattr(x, "__dict__"):
            feed(vars(x))
        else:
            h.update(repr(x).encode())
    feed(obj)
    return h.hexdigest()


def per_frame_fields(trace, grid) -> dict:
    """derive_fields as a per-frame loop with (M, 3) velocity scatters and
    boolean gathers of the cells with a target, at the default transient:
    the reference the chunked form must equal bit for bit."""
    transient = default_transient(trace.config.duration, transit_time_estimate(
        grid, trace.config.scale))
    coeff = pressure_coefficient(trace.plant.mass, grid.cell_volume)
    M = grid.num_cells
    occ = np.zeros(M, dtype=np.int64)
    total, usum = np.zeros(M), np.zeros((M, 3))
    pdev_sum, pdev_frames = np.zeros(M), np.zeros(M, dtype=np.int64)
    pint_sum = np.zeros(M)
    used = 0
    frames = frame_rows(trace.frames)
    for k in np.flatnonzero(trace.frame_t > transient):
        rec = frames[k]
        used += 1
        cells = rec.cells.astype(np.intp)
        occ[cells] += 1
        total[cells] += rec.counts
        usum[cells] += rec.vsum / rec.counts[:, None]
        spread2 = rec.sumv2 - np.einsum("ij,ij->i", rec.vsum, rec.vsum) / rec.counts
        pint_sum[cells] += coeff * spread2
        t = grid.v_target[cells]
        dev = (rec.sumv2 - 2.0 * np.einsum("ij,ij->i", t, rec.vsum)
               + rec.counts * np.einsum("ij,ij->i", t, t))
        fin = np.isfinite(dev)
        pdev_sum[cells[fin]] += coeff * dev[fin]
        pdev_frames[cells[fin]] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        occupancy = total / occ
        return dict(occupancy=occupancy, duty=occ / used,
                    concentration=occupancy / grid.cell_volume,
                    velocity=usum / occ[:, None],
                    pressure_dev=pdev_sum / pdev_frames,
                    pressure_int=pint_sum / occ, occupied_frames=occ,
                    frames_used=used, transient=transient)


# ======================================================================
# per-row analysis writers
# ======================================================================

FMT = "%.12g"
SLICE_HEADER = ("x,y,z,occupancy,duty,concentration,ux,uy,uz,p_dev,p_int,"
                "tvx,tvy,tvz,tp,norm_speed,norm_tspeed,norm_p,norm_tp,"
                "norm_rho,norm_trho")
CENTERLINE_KEYS = ("x", "target_speed", "derived_speed", "target_pressure",
                   "derived_pressure", "target_density", "derived_density")


def export_slice_rows(derived, grid, path) -> None:
    """The mid-plane slice, one formatted row per cell; maxima by
    ``nanmax``, a NaN ``norm_trho`` column when the target max is not a
    finite positive number."""
    centers = grid.centers()
    y_layers = centers.reshape(*grid.dims, 3)[0, :, 0, 1]
    jy = int(np.argmin(np.abs(y_layers) - 1e-9 * np.sign(y_layers)))
    ds_max = np.nanmax(derived.speed[grid.valid & derived.valid])
    ts_all = np.linalg.norm(grid.v_target, axis=1)
    ts_max = np.nanmax(ts_all[grid.valid])
    pd = derived.pressure_dev
    pd_max = np.nanmax(pd[grid.valid & derived.valid & np.isfinite(pd)])
    pt_min = np.nanmin(grid.p_target[grid.valid])
    rho_max = np.nanmax(derived.concentration[grid.valid & derived.valid])
    trho_max = np.nanmax(grid.rho_target[grid.valid])

    flats = np.flatnonzero(grid.valid.reshape(grid.dims)[:, jy, :].ravel())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SLICE_HEADER + "\n")
        for local in flats:
            jx, jz = divmod(int(local), grid.dims[2])
            f = int(np.ravel_multi_index((jx, jy, jz), grid.dims))
            row = ([centers[f, 0], centers[f, 1], centers[f, 2],
                    derived.occupancy[f], derived.duty[f],
                    derived.concentration[f]]
                   + list(derived.velocity[f])
                   + [derived.pressure_dev[f], derived.pressure_int[f]]
                   + list(grid.v_target[f]) + [grid.p_target[f]]
                   + [derived.speed[f] / ds_max, ts_all[f] / ts_max,
                      derived.pressure_dev[f] / pd_max,
                      grid.p_target[f] / pt_min,
                      derived.concentration[f] / rho_max,
                      grid.rho_target[f] / trho_max if np.isfinite(trho_max)
                      and trho_max > 0 else float("nan")])
            fh.write(",".join(FMT % v for v in row) + "\n")


def export_centerline_rows(profile: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CENTERLINE_KEYS) + "\n")
        for i in range(len(profile["x"])):
            fh.write(",".join(FMT % profile[k][i] for k in CENTERLINE_KEYS)
                     + "\n")


def save_metrics_lines(report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in report.values.items():
            if isinstance(v, bool):
                fh.write(f"{k}={int(v)}\n")
            elif isinstance(v, float):
                fh.write(f"{k}={v:.12g}\n")
            else:
                fh.write(f"{k}={v}\n")


# ======================================================================
# the per-pair collision detector
# ======================================================================

def pair_row_collisions(pos, vel, config) -> np.ndarray:
    """``detect_collisions`` on (M, 3) pair rows, every test applied to
    every candidate pair, with the pairs of ``cKDTree.query_pairs``. It
    reads the approach floor and the alignment from ``swarm_sim`` when
    called, so a test that sets them sets them for both detectors."""
    from scipy.spatial import cKDTree

    if len(pos) < 2:
        return np.empty((0, 2), dtype=np.intp)
    if not np.isfinite(pos).all():
        raise ValueError("collision detection needs finite positions")
    pairs = cKDTree(pos).query_pairs(2.0 * config.collision_radius,
                                     output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    a, b = pairs.T
    dx = pos.take(b, axis=0) - pos.take(a, axis=0)
    dist = np.sqrt(np.vecdot(dx, dx))
    va, vb = vel.take(a, axis=0), vel.take(b, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        closing = np.vecdot(va - vb, dx / dist[:, None])
    keep = ~(dist <= 1e-12) & ~(closing <= swarm_sim.MIN_APPROACH_SPEED)
    a, b, va, vb = a[keep], b[keep], va[keep], vb[keep]
    sa, sb = np.sqrt(np.vecdot(va, va)), np.sqrt(np.vecdot(vb, vb))
    keep = ~((sa < 1e-9) | (sb < 1e-9))
    align = np.vecdot(va[keep], vb[keep]) / (sa[keep] * sb[keep])
    hit = align > swarm_sim.OVERTAKE_COS
    return np.column_stack([a[keep][hit], b[keep][hit]])
