"""Test references: per-agent bulk moments, (N, 3) plant shims and a
one-cell fit.

The library applies its closures only to per-cell frame sums
(``metrics.derive_fields``), steps the plant on (3, N) component rows and
fits every cell of a lattice in one pass. The routines here take one cell's
agents, or (N, 3) arrays, instead. They call the library's own formulas
(``pressure_coefficient``, the two temperature closures), its plant row
functions and its set solver, so tests that use them as oracles still check
the code the pipeline runs.
"""

import numpy as np

from fluidswarm.primitives import (control_temperature, pressure_coefficient,
                                   random_temperature_from_spread)
from fluidswarm.velocity_fit import SET_SIZE, FitResult, _solve
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
             rng: np.random.Generator, agent_mass: float = 1.0) -> FitResult:
    """One cell's set from the first ``SET_SIZE`` 3-vector draws of ``rng``,
    solved as ``fit_grid`` solves every cell. ``p_target`` must already be
    shifted to be nonnegative."""
    if p_target < 0:
        raise ValueError("pressure target must be nonnegative (pre-shifted)")
    if cell_volume <= 0:
        raise ValueError("cell_volume must be positive")
    vel = _solve(np.asarray(v_target, dtype=float)[None], np.array([p_target]),
                 cell_volume, agent_mass, rng.standard_normal((1, SET_SIZE, 3)))
    return FitResult(n_star=SET_SIZE, velocities=vel[0])
