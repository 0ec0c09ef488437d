"""Post-run analysis: time-averaged fields and agreement with the targets.

Frames after a transient window are averaged into per-cell fields. Averages
are conditional on occupancy: a cell contributes only for frames in which it
held at least one agent, and a cell that stays empty for the whole window is
excluded from every score. The occupied fraction is reported separately so
intermittent cells are still visible in exports.

Agreement is scored on normalized fields: each side over its own extremum
(speeds, deviation pressure and densities by their max; target pressure by
its min, so suction peaks at 1 at the throat). The velocity scores still
grow with the command scale, as the plant lags its commands more at speed:
``rmse_velocity`` is 0.0465 at ``scale`` 0.1, 0.169 at 0.4 (default study,
seed 0). The scores take the extrema over the scored cells (valid, occupied
and, for pressure, with a finite deviation pressure), the slice's target
columns over every valid cell, and the centerline targets over every slab.
The slice and centerline tables go through the field files' codec,
``write_table``, at 12 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ControlVolumeGrid
from .primitives import pressure_coefficient
from .records import FLOAT_FMT, write_table
from .swarm_sim import EVENT_KINDS, SimulationTrace, population_balance

SLICE_HEADER = ("x,y,z,occupancy,duty,concentration,ux,uy,uz,p_dev,p_int,"
                "tvx,tvy,tvz,tp,norm_speed,norm_tspeed,norm_p,norm_tp,"
                "norm_rho,norm_trho")
CENTERLINE_HEADER = ("x,target_speed,derived_speed,target_pressure,"
                     "derived_pressure,target_density,derived_density")


# ======================================================================
# transient window
# ======================================================================

def _axis_cells(grid: ControlVolumeGrid) -> list[np.ndarray]:
    """Per axial slab, its valid cells nearest the axis (1e-9 m tie band)."""
    centers = grid.centers()
    slab = np.arange(grid.num_cells) // (grid.dims[1] * grid.dims[2])
    out = []
    for jx in range(grid.dims[0]):
        idx = np.flatnonzero(grid.valid & (slab == jx))
        if len(idx):
            d = np.hypot(centers[idx, 1], centers[idx, 2])
            idx = idx[d < d.min() + 1e-9]
        out.append(idx)
    return out


def transit_time_estimate(grid: ControlVolumeGrid, scale: float) -> float:
    """Axial traversal time at the scaled command speeds.

    Walks the axial slabs, takes the valid cells nearest the axis in each,
    and sums edge_length / (scale * mean target speed). Slabs with no valid
    cell (or zero speed) are crossed at the last known speed.
    """
    total, speed = 0.0, None
    for near in _axis_cells(grid):
        if len(near):
            s = scale * float(np.mean(np.linalg.norm(grid.v_target[near], axis=1)))
            speed = s if s > 1e-12 else speed
        if speed is not None:
            total += grid.edge_length / speed
    return total


def default_transient(duration: float, transit: float) -> float:
    """Averaging starts after twice the transit estimate, capped at half the run."""
    return min(2.0 * transit, 0.5 * duration)


# ======================================================================
# time-averaged fields
# ======================================================================

@dataclass
class DerivedFields:
    """Per-cell time averages over the post-transient window.

    All per-agent statistics (occupancy, velocity, pressures) average only
    frames in which the cell was occupied; ``duty`` is the occupied
    fraction of the window.
    """

    occupancy: np.ndarray       # (M,) mean agent count over occupied frames
    duty: np.ndarray            # (M,) occupied fraction of post-transient frames
    concentration: np.ndarray   # (M,) occupancy / cell volume
    velocity: np.ndarray        # (M, 3) mean of per-frame mean velocities
    pressure_dev: np.ndarray    # (M,) deviations off v_target, NaN without one
    pressure_int: np.ndarray    # (M,) from deviations off the frame mean
    occupied_frames: np.ndarray  # (M,) frames with at least one agent
    frames_used: int
    transient: float
    agent_mass: float

    @property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self.velocity, axis=1)

    @property
    def valid(self) -> np.ndarray:
        return self.occupied_frames > 0


def derive_fields(trace: SimulationTrace, grid: ControlVolumeGrid,
                  transient: float) -> DerivedFields:
    """Time averages of the frames after ``transient``.

    Agent mass comes from the plant the run flew, and the pressure
    coefficient from :mod:`fluidswarm.primitives`. Deviations off the
    targets t follow from a frame's sums, sum |v - t|^2 = sumv2 - 2 t.vsum
    + n |t|^2; a cell without a target has none.

    The window is the frame table's rows from its first frame's offset on
    (the clock ascends). Each per-cell sum is one ``bincount`` per piece,
    seeded with the sum so far, so each cell adds its rows in frame order.
    """
    used = int(np.count_nonzero(trace.frame_t > transient))
    if used == 0:
        raise ValueError("no frames after the transient window")
    coeff = pressure_coefficient(trace.plant.mass, grid.cell_volume)

    M = grid.num_cells
    occ = np.zeros(M, dtype=np.int64)
    # agent counts, per-frame mean velocities, internal, deviation pressures
    sums = np.zeros((6, M))
    start = trace.frames.offsets[-1 - used]     # the window's first row
    for _, (cells, counts, vsum, sumv2) in trace.frames.pieces(start):
        occ += np.bincount(cells, minlength=M)
        spread2 = sumv2 - np.einsum("ij,ij->i", vsum, vsum) / counts
        t = grid.v_target[cells]
        off2 = (sumv2 - 2.0 * np.einsum("ij,ij->i", t, vsum)
                + counts * np.einsum("ij,ij->i", t, t))
        index = np.r_[:M, cells]
        for row, values in zip(sums, (
                counts, *(vsum / counts[:, None]).T, coeff * spread2,
                np.where(np.isfinite(off2), coeff * off2, 0.0))):
            row[...] = np.bincount(index, np.concatenate([row, values]),
                                   minlength=M)
    total, usum, pint_sum, pdev_sum = sums[0], sums[1:4], sums[4], sums[5]

    with np.errstate(invalid="ignore", divide="ignore"):
        occupancy = total / occ
        velocity = np.ascontiguousarray((usum / occ).T)
        p_dev = pdev_sum / (occ * np.isfinite(grid.v_target).all(axis=1))
        p_int = pint_sum / occ
    return DerivedFields(
        occupancy=occupancy, duty=occ / used,
        concentration=occupancy / grid.cell_volume,
        velocity=velocity, pressure_dev=p_dev, pressure_int=p_int,
        occupied_frames=occ, frames_used=used, transient=transient,
        agent_mass=trace.plant.mass)


# ======================================================================
# agreement scores
# ======================================================================

def _scaled(values, ref, what: str, suction: bool = False) -> np.ndarray:
    """``values`` over the max of ``ref``, or over its min for the suction
    target. Raises ValueError when ``ref`` is empty or that extremum is not
    finite and positive (negative for suction)."""
    if np.size(ref):
        c = np.min(ref) if suction else np.max(ref)
        if (-np.inf < c < 0) if suction else (0 < c < np.inf):
            return values / c
    raise ValueError(f"zero {what} normalization constant")


def _rms(a, b) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def field_agreement(derived: DerivedFields, grid: ControlVolumeGrid) -> dict:
    """Normalized RMS differences between derived and target fields.

    Scored over valid cells only (targets present and occupied at least
    once). Density is reported once, as ``rmse_density``: the (max - x)/max
    convention would give the same RMS value, being an affine flip of x/max
    on both sides.
    """
    sel = grid.valid & derived.valid
    if not sel.any():
        raise ValueError("no cells to compare: every valid cell stayed empty")
    out = {"cells_compared": int(sel.sum())}

    vt = grid.v_target[sel]
    a = _scaled(derived.velocity[sel], derived.speed[sel], "velocity")
    b = _scaled(vt, np.linalg.norm(vt, axis=1), "velocity")
    out["rmse_velocity"] = float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))

    psel = sel & np.isfinite(derived.pressure_dev)
    pd, pt = derived.pressure_dev[psel], grid.p_target[psel]
    out["rmse_pressure"] = _rms(_scaled(pd, pd, "pressure"),
                                _scaled(pt, pt, "pressure", suction=True))

    da, tb = derived.concentration[sel], grid.rho_target[sel]
    try:
        out["rmse_density"] = _rms(_scaled(da, da, "density"),
                                   _scaled(tb, tb, "density"))
    except ValueError:   # no gas, so no density targets
        out["rmse_density"] = float("nan")
    return out


def trend_check(derived: DerivedFields, grid: ControlVolumeGrid) -> dict:
    """Axial monotony: density dips at the throat, speed peaks there. The
    inlet and exit regions are 2 m long, the throat region 2 m wide."""
    band = 2.0
    geo = grid.geometry
    x = grid.centers()[:, 0]
    regions = {
        "inlet": x < band,
        "throat": np.abs(x - geo.throat_x) < band / 2.0,
        "exit": x > geo.length - band,
    }
    out = {}
    for name, mask in regions.items():
        m = mask & grid.valid & derived.valid
        if not m.any():
            raise ValueError(f"trend check inconclusive: no valid {name} cells")
        out[f"density_{name}"] = float(np.mean(derived.concentration[m]))
        out[f"speed_{name}"] = float(np.mean(derived.speed[m]))
    out["density_trend_ok"] = bool(
        out["density_inlet"] > out["density_throat"]
        and out["density_exit"] > out["density_throat"])
    out["speed_trend_ok"] = bool(
        out["speed_throat"] > out["speed_inlet"]
        and out["speed_throat"] > out["speed_exit"])
    return out


# ======================================================================
# centerline profiles
# ======================================================================

def centerline_profile(derived: DerivedFields, grid: ControlVolumeGrid) -> dict:
    """Axis-adjacent cell averages per axial slab, target and derived."""
    centers = grid.centers()
    cols = {k: [] for k in CENTERLINE_HEADER.split(",")}
    for near in _axis_cells(grid):
        if len(near) == 0:
            continue
        cols["x"].append(float(np.mean(centers[near, 0])))
        cols["target_speed"].append(
            float(np.mean(np.linalg.norm(grid.v_target[near], axis=1))))
        cols["target_pressure"].append(float(np.mean(grid.p_target[near])))
        cols["target_density"].append(float(np.mean(grid.rho_target[near])))
        for key, vals in (("derived_speed", derived.speed[near]),
                          ("derived_pressure", derived.pressure_dev[near]),
                          ("derived_density",
                           np.where(derived.valid[near],
                                    derived.concentration[near], np.nan))):
            cols[key].append(float(np.nanmean(vals)) if np.isfinite(vals).any()
                             else float("nan"))
    return {k: np.array(v) for k, v in cols.items()}


def centerline_agreement(profile: dict) -> dict:
    """Normalized RMS gap between target and derived centerline curves."""
    out = {}
    for key, what, suction in (("speed", "velocity", False),
                               ("pressure", "pressure", True)):
        target, derived = profile["target_" + key], profile["derived_" + key]
        fin = np.isfinite(derived)
        out[f"centerline_{key}_rms"] = _rms(
            _scaled(derived[fin], derived[fin], what),
            _scaled(target[fin], target, what, suction))
    return out


# ======================================================================
# exports and the bundled report
# ======================================================================

def export_slice(derived: DerivedFields, grid: ControlVolumeGrid, path) -> None:
    """Vertical mid-plane cut: the single cell layer nearest y = 0.

    On grids with an even cell count across the axis the +y layer of the
    center pair is exported, so the cut is always exactly one layer.
    ``norm_trho`` is NaN on a grid without density targets.
    """
    centers = grid.centers()
    y_layers = centers.reshape(*grid.dims, 3)[0, :, 0, 1]
    # tie between the +/- center pair goes to the +y layer
    jy = int(np.argmin(np.abs(y_layers) - 1e-9 * np.sign(y_layers)))
    layer = np.arange(grid.num_cells).reshape(grid.dims)[:, jy, :].ravel()
    f = layer[grid.valid[layer]]

    scored = grid.valid & derived.valid
    speed, pd, rho = derived.speed, derived.pressure_dev, derived.concentration
    ts, pt, trho = (np.linalg.norm(grid.v_target, axis=1), grid.p_target,
                    grid.rho_target)
    try:
        norm_trho = _scaled(trho[f], trho[grid.valid], "density")
    except ValueError:   # no gas, so no density targets
        norm_trho = np.full(len(f), np.nan)
    columns = np.column_stack([
        centers[f], derived.occupancy[f], derived.duty[f], rho[f],
        derived.velocity[f], pd[f], derived.pressure_int[f],
        grid.v_target[f], pt[f],
        _scaled(speed[f], speed[scored], "velocity"),
        _scaled(ts[f], ts[grid.valid], "velocity"),
        _scaled(pd[f], pd[scored & np.isfinite(pd)], "pressure"),
        _scaled(pt[f], pt[grid.valid], "pressure", suction=True),
        _scaled(rho[f], rho[scored], "density"),
        norm_trho])
    write_table(path, None, SLICE_HEADER, columns)


def export_centerline(profile: dict, path) -> None:
    columns = np.column_stack([profile[k] for k in CENTERLINE_HEADER.split(",")])
    write_table(path, None, CENTERLINE_HEADER, columns)


@dataclass
class MetricsReport:
    values: dict
    derived: DerivedFields
    profile: dict


def metrics_report(trace: SimulationTrace, grid: ControlVolumeGrid,
                   transient: float | None = None) -> MetricsReport:
    """Everything at once: averages, agreement, trends, profiles, rates."""
    duration = trace.config.duration
    transit = transit_time_estimate(grid, trace.config.scale)
    if transient is None:
        transient = default_transient(duration, transit)
    derived = derive_fields(trace, grid, transient)
    values = {
        "transit_estimate": transit,
        "transient": transient,
        "frames_used": derived.frames_used,
        "agent_mass": derived.agent_mass,
    }
    values.update(field_agreement(derived, grid))
    try:
        values.update(trend_check(derived, grid))
    except ValueError as exc:
        values["trend_inconclusive"] = str(exc)
    profile = centerline_profile(derived, grid)
    values.update(centerline_agreement(profile))

    # frame k's injections happen at k*dt, its retirements at frame_t[k]
    window = duration - transient
    col = dict(zip(EVENT_KINDS, trace.frame_counts.T))
    start_t = np.arange(len(trace.frame_t)) * trace.config.dt
    inject = int(col["inject"][start_t > transient].sum())
    retire = int(col["retire"][trace.frame_t > transient].sum())
    values["exit_rate"] = retire / window if window > 0 else float("nan")
    values["inject_rate"] = inject / window if window > 0 else float("nan")
    values["collisions_overtake"] = int(col["collision_overtake"].sum())
    values["wall_escapes"] = int(col["wall_escape"].sum())
    values["faults"] = int(col["fault"].sum())
    values["final_population"] = population_balance(trace)["active"]
    return MetricsReport(values=values, derived=derived, profile=profile)


def save_metrics(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in report.values.items():
            if isinstance(v, bool):
                v = int(v)
            fh.write(f"{k}={FLOAT_FMT % v if isinstance(v, float) else v}\n")
