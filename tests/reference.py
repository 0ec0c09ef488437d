"""Test references: per-agent bulk moments, (N, 3) plant shims, a
one-cell fit, the per-row writers of the analysis files and the per-pair
collision detector.

The library applies its closures only to per-cell frame sums
(``metrics.derive_fields``), steps the plant on (3, N) component rows and
fits every cell of a lattice in one pass. The routines here take one cell's
agents, or (N, 3) arrays, instead. They call the library's own formulas
(``pressure_coefficient``, the two temperature closures), its plant row
functions and its set solver, so tests that use them as oracles still check
the code the pipeline runs. The analysis writers format one row at a time
with their own normalization maxima, as the library did before it wrote
those files through ``write_table``; tests compare the files byte for byte.
The collision detector is the loop's as it was before the pass ran on the
population's rows, on (M, 3) pair rows with the pairs of
``cKDTree.query_pairs``.
"""

import numpy as np

from fluidswarm.primitives import (control_temperature, pressure_coefficient,
                                   random_temperature_from_spread)
from fluidswarm.velocity_fit import SET_SIZE, _solve
from fluidswarm.velocity_plant import (PlantParams, _constrain, _desired,
                                       _drag, _feedforward, _rows)


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


def random_temperature(masses, velocities) -> float:
    """Thermal temperature from the velocity spread about the mass mean."""
    m, v = _check(masses, velocities)
    w = v - mass_mean_velocity(m, v)
    return float(random_temperature_from_spread(
        m @ np.einsum("ij,ij->i", w, w), m.sum()))


def swarm_temperature(masses, velocities, cell_volume: float,
                      a_max: float) -> float:
    """Total temperature: thermal part plus control part."""
    t_rand = random_temperature(masses, velocities)
    rho = swarm_density(masses, cell_volume)
    return t_rand + control_temperature(rho, a_max)


# ======================================================================
# (N, 3) plant shims over the row functions ``step`` runs
# ======================================================================

def drag_force(v_air, params: PlantParams) -> np.ndarray:
    """Quadratic aerodynamic drag opposing the airspeed, per axis, N."""
    f = _drag(_rows(v_air), -params.drag_factor[:, None]).T
    return f if np.ndim(v_air) > 1 else f[0]


def desired_accel(velocity, v_cmd, wind, params: PlantParams) -> np.ndarray:
    """Unconstrained thrust-acceleration demand, (N, 3)."""
    v, cmd = _rows(velocity), _rows(v_cmd)
    ff = _feedforward(cmd, _rows(wind), params)
    out = np.empty(np.broadcast_shapes(v.shape, cmd.shape, np.shape(ff)))
    return _desired(v, cmd, ff, params, out).T


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
# per-row analysis writers
# ======================================================================

FMT = "%.12g"
SLICE_HEADER = ("x,y,z,occupancy,duty,concentration,ux,uy,uz,p_dev,p_int,T,"
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
                   + [derived.pressure_dev[f], derived.pressure_int[f],
                      derived.temperature[f]]
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
    every candidate pair, with the pairs of ``cKDTree.query_pairs``."""
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
    keep = ~(dist <= 1e-12) & ~(closing <= config.min_approach_speed)
    a, b, va, vb = a[keep], b[keep], va[keep], vb[keep]
    sa, sb = np.sqrt(np.vecdot(va, va)), np.sqrt(np.vecdot(vb, vb))
    keep = ~((sa < 1e-9) | (sb < 1e-9))
    align = np.vecdot(va[keep], vb[keep]) / (sa[keep] * sb[keep])
    hit = align > config.overtake_cos
    return np.column_stack([a[keep][hit], b[keep][hit]])
