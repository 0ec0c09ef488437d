"""Post-run analysis: time-averaged fields and agreement with the targets.

Frames after a transient window are averaged into per-cell fields. Averages
are conditional on occupancy: a cell contributes only for frames in which it
held at least one agent, and a cell that stays empty for the whole window is
excluded from every score. The occupied fraction is reported separately so
intermittent cells are still visible in exports.

Agreement is scored on normalized fields. Each side is scaled by its own
extremum before comparison: speeds by their max, target pressure by its most
negative value (suction peaks at 1 at the throat), measured deviation
pressure by its max, densities by their max. That makes the scores
insensitive to the command scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ControlVolumeGrid
from .primitives import (ConstitutiveParams, control_temperature,
                         pressure_coefficient, random_temperature_from_spread)
from .reference_field import _FMT
from .swarm_sim import EVENT_KINDS, SimulationTrace, population_balance

SLICE_HEADER = ("x,y,z,occupancy,duty,concentration,ux,uy,uz,p_dev,p_int,T,"
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

    All per-agent statistics (occupancy, velocity, pressures, temperature)
    average only frames in which the cell was occupied; ``duty`` is the
    occupied fraction of the window.
    """

    occupancy: np.ndarray       # (M,) mean agent count over occupied frames
    duty: np.ndarray            # (M,) occupied fraction of post-transient frames
    concentration: np.ndarray   # (M,) occupancy / cell volume
    velocity: np.ndarray        # (M, 3) mean of per-frame mean velocities
    pressure_dev: np.ndarray    # (M,) from deviations off the cell target
    pressure_int: np.ndarray    # (M,) from deviations off the frame mean
    temperature: np.ndarray     # (M,) random + control composition
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
                  transient: float | None = None,
                  params: ConstitutiveParams | None = None) -> DerivedFields:
    """Time averages of the frames after ``transient``.

    Agent mass and the control temperature's ``a_max`` come from the plant
    the run flew; the formulas are those of :mod:`fluidswarm.primitives`.
    """
    if transient is None:
        transit = transit_time_estimate(grid, trace.config.scale)
        transient = default_transient(trace.config.duration, transit)
    mass = trace.plant.mass
    params = params or ConstitutiveParams()
    coeff = pressure_coefficient(mass, grid.cell_volume)

    M = grid.num_cells
    occ = np.zeros(M, dtype=np.int64)
    total = np.zeros(M)
    usum = np.zeros((M, 3))
    pdev_sum = np.zeros(M)
    pdev_frames = np.zeros(M, dtype=np.int64)
    pint_sum = np.zeros(M)
    temp_sum = np.zeros(M)

    used = 0
    for k in np.flatnonzero(trace.frame_t > transient):
        rec = trace.frames[k]
        used += 1
        if len(rec.cells) == 0:
            continue
        cells = rec.cells.astype(np.intp)     # index once, not per use
        occ[cells] += 1
        total[cells] += rec.counts
        usum[cells] += rec.vsum / rec.counts[:, None]
        cdev2 = rec.sumv2 - np.einsum("ij,ij->i", rec.vsum, rec.vsum) / rec.counts
        pint_sum[cells] += coeff * cdev2
        # temperature: random part from in-cell spread, control part from
        # the instantaneous mass density
        cell_mass = mass * rec.counts
        temp_sum[cells] += (
            random_temperature_from_spread(mass * cdev2, cell_mass, params)
            + control_temperature(cell_mass / grid.cell_volume,
                                  trace.plant.a_max, params))
        fin = np.isfinite(rec.dev2)
        pdev_sum[cells[fin]] += coeff * rec.dev2[fin]
        pdev_frames[cells[fin]] += 1
    if used == 0:
        raise ValueError("no frames after the transient window")

    with np.errstate(invalid="ignore", divide="ignore"):
        occupancy = total / occ
        velocity = usum / occ[:, None]
        p_dev = pdev_sum / pdev_frames
        p_int = pint_sum / occ
        temperature = temp_sum / occ
    return DerivedFields(
        occupancy=occupancy, duty=occ / used,
        concentration=occupancy / grid.cell_volume,
        velocity=velocity, pressure_dev=p_dev, pressure_int=p_int,
        temperature=temperature, occupied_frames=occ, frames_used=used,
        transient=transient, agent_mass=mass)


# ======================================================================
# agreement scores
# ======================================================================

def _norm_speed(derived: DerivedFields, grid, sel):
    ds = derived.speed[sel]
    ts = np.linalg.norm(grid.v_target[sel], axis=1)
    if ds.max() <= 0 or ts.max() <= 0:
        raise ValueError("zero velocity normalization constant")
    return derived.velocity[sel] / ds.max(), grid.v_target[sel] / ts.max()


def _norm_pressure(derived: DerivedFields, grid, sel):
    pd = derived.pressure_dev[sel]
    pt = grid.p_target[sel]
    if pd.max() <= 0 or pt.min() >= 0:
        raise ValueError("zero pressure normalization constant")
    return pd / pd.max(), pt / pt.min()


def _norm_density(derived: DerivedFields, grid, sel):
    da = derived.concentration[sel]
    tb = grid.rho_target[sel]
    if da.max() <= 0 or not np.isfinite(tb).all() or tb.max() <= 0:
        raise ValueError("zero density normalization constant")
    return da / da.max(), tb / tb.max()


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

    a, b = _norm_speed(derived, grid, sel)
    out["rmse_velocity"] = float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))

    psel = sel & np.isfinite(derived.pressure_dev)
    a, b = _norm_pressure(derived, grid, psel)
    out["rmse_pressure"] = float(np.sqrt(np.mean((a - b) ** 2)))

    try:
        a, b = _norm_density(derived, grid, sel)
        out["rmse_density"] = float(np.sqrt(np.mean((a - b) ** 2)))
    except ValueError:
        out["rmse_density"] = float("nan")
    return out


def trend_check(derived: DerivedFields, grid: ControlVolumeGrid,
                band: float = 2.0) -> dict:
    """Axial monotony: density dips at the throat, speed peaks there."""
    if grid.geometry is None:
        raise ValueError("trend check needs the duct geometry")
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
    cols = {k: [] for k in ("x", "target_speed", "derived_speed",
                            "target_pressure", "derived_pressure",
                            "target_density", "derived_density")}
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
    ts, ds = profile["target_speed"], profile["derived_speed"]
    fin = np.isfinite(ds)
    if not fin.any() or np.max(ds[fin]) <= 0 or np.max(ts) <= 0:
        raise ValueError("zero velocity normalization constant")
    a = ds[fin] / np.max(ds[fin])
    b = ts[fin] / np.max(ts)
    out["centerline_speed_rms"] = float(np.sqrt(np.mean((a - b) ** 2)))

    tp, dp = profile["target_pressure"], profile["derived_pressure"]
    fin = np.isfinite(dp)
    if not fin.any() or np.max(dp[fin]) <= 0 or np.min(tp) >= 0:
        raise ValueError("zero pressure normalization constant")
    a = dp[fin] / np.max(dp[fin])
    b = tp[fin] / np.min(tp)
    out["centerline_pressure_rms"] = float(np.sqrt(np.mean((a - b) ** 2)))
    return out


# ======================================================================
# exports and the bundled report
# ======================================================================

def export_slice(derived: DerivedFields, grid: ControlVolumeGrid, path) -> None:
    """Vertical mid-plane cut: the single cell layer nearest y = 0.

    On grids with an even cell count across the axis the +y layer of the
    center pair is exported, so the cut is always exactly one layer.
    """
    centers = grid.centers()
    y_layers = centers.reshape(*grid.dims, 3)[0, :, 0, 1]
    # tie between the +/- center pair goes to the +y layer
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
                   + [derived.pressure_dev[f], derived.pressure_int[f],
                      derived.temperature[f]]
                   + list(grid.v_target[f]) + [grid.p_target[f]]
                   + [derived.speed[f] / ds_max, ts_all[f] / ts_max,
                      derived.pressure_dev[f] / pd_max,
                      grid.p_target[f] / pt_min,
                      derived.concentration[f] / rho_max,
                      grid.rho_target[f] / trho_max if np.isfinite(trho_max)
                      and trho_max > 0 else float("nan")])
            fh.write(",".join(_FMT % v for v in row) + "\n")


def export_centerline(profile: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CENTERLINE_HEADER + "\n")
        for i in range(len(profile["x"])):
            fh.write(",".join(_FMT % profile[k][i]
                              for k in ("x", "target_speed", "derived_speed",
                                        "target_pressure", "derived_pressure",
                                        "target_density", "derived_density"))
                     + "\n")


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
    if grid.geometry is not None:
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
    for kind in ("overtake", "headon", "sideswipe"):
        values[f"collisions_{kind}"] = int(col[f"collision_{kind}"].sum())
    values["wall_escapes"] = int(col["wall_escape"].sum())
    values["faults"] = int(col["fault"].sum())
    values["final_population"] = population_balance(trace)["active"]
    return MetricsReport(values=values, derived=derived, profile=profile)


def save_metrics(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in report.values.items():
            if isinstance(v, bool):
                fh.write(f"{k}={int(v)}\n")
            elif isinstance(v, float):
                fh.write(f"{k}={v:.12g}\n")
            else:
                fh.write(f"{k}={v}\n")
