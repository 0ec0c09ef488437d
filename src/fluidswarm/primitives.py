"""Kinetic-theory style bulk observables for a set of agents in one cell.

A group of agents occupying a control volume is summarized the way a gas
parcel would be: a mass-mean velocity, a mass density, a pressure built
from the second velocity moment, and a temperature split into a thermal
part (velocity spread about the mass-mean) plus a control part tied to
actuation authority. The pressure coefficient and the two temperatures are
defined once, here, for both ``metrics.derive_fields`` (per-cell frame sums)
and the per-agent routines.

All moment routines take agent masses and velocities as arrays; empty cells
raise :class:`UndefinedSampleError` rather than returning zeros, because an
unoccupied cell has no defined bulk state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedSampleError(ValueError):
    """Bulk observables are undefined for an empty cell."""


class DegenerateCellError(ValueError):
    """Raised when a closure needs a positive density and gets none."""


@dataclass(frozen=True)
class ConstitutiveParams:
    """Closure constants for temperature; the control temperature's
    ``a_max`` is the plant's (:attr:`PlantParams.a_max`)."""

    c_v: float = 1.0          # specific heat at constant volume analog
    k_b: float = 1.0          # velocity-spread-to-temperature conversion
    control_weight: float = 0.5   # weight of the control energy term


def pressure_coefficient(mass: float, cell_volume: float) -> float:
    """2 m / (3 dV); pass mass 1.0 when the masses are inside the sum."""
    return 2.0 * mass / (3.0 * cell_volume)


def random_temperature_from_spread(spread, total_mass, params: ConstitutiveParams):
    """k_b * S / (2 sum_i m_i), with S = sum_i m_i ||v_i - U||^2 about the
    mass-mean velocity U; scalars or arrays of per-cell sums."""
    return params.k_b * spread / (2.0 * total_mass)


def control_temperature(rho, a_max: float, params: ConstitutiveParams):
    """Control temperature from actuation authority over the packing length.

    T_ctrl = (control_weight / c_v) * a_max * L with L = rho^(-1/3), for one
    density or an array. An empty cell (rho = 0) has no packing length; that
    is a degenerate cell.
    """
    if np.any(np.asarray(rho) <= 0):
        raise DegenerateCellError("control temperature needs a positive density")
    return params.control_weight * a_max * rho ** (-1.0 / 3.0) / params.c_v


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


def swarm_pressure(masses, velocities, cell_volume: float) -> float:
    """Scalar pressure: one third of the stress trace.

    P = (2 / (3 dV)) * sum_i m_i ||v_i||^2, the internal pressure about rest.
    """
    return internal_pressure(masses, velocities, cell_volume, np.zeros(3))


def swarm_pressure_moment_form(masses, velocities, cell_volume: float) -> float:
    """Same pressure via density times the mass-weighted mean square speed.

    P = (2/3) * rho * <||v||^2>. Kept as an independent route for
    cross-checking the direct sum; the two agree to rounding.
    """
    m, v = _check(masses, velocities)
    rho = m.sum() / cell_volume
    mean_sq = (m @ np.einsum("ij,ij->i", v, v)) / m.sum()
    return float(2.0 / 3.0 * rho * mean_sq)


def internal_pressure(masses, velocities, cell_volume: float, bulk_velocity) -> float:
    """Pressure of the velocity fluctuations about a given bulk velocity.

    P_int = (2 / (3 dV)) * sum_i m_i ||v_i - u||^2. With u the mass-mean
    velocity this is the translation-invariant part of the pressure.
    """
    m, v = _check(masses, velocities)
    w = v - np.asarray(bulk_velocity, dtype=float)
    return float(pressure_coefficient(1.0, cell_volume)
                 * (m @ np.einsum("ij,ij->i", w, w)))


def mass_mean_velocity(masses, velocities) -> np.ndarray:
    """Mass-weighted mean velocity."""
    m, v = _check(masses, velocities)
    return (m[:, None] * v).sum(axis=0) / m.sum()


def random_temperature(masses, velocities, params: ConstitutiveParams) -> float:
    """Thermal temperature from the velocity spread about the mass mean.

    T_rand = k_b * sum_i m_i ||v_i - U||^2 / (2 * sum_i m_i).
    """
    m, v = _check(masses, velocities)
    w = v - mass_mean_velocity(m, v)
    return float(random_temperature_from_spread(
        m @ np.einsum("ij,ij->i", w, w), m.sum(), params))


def swarm_temperature(masses, velocities, cell_volume: float, a_max: float,
                      params: ConstitutiveParams) -> float:
    """Total temperature: thermal part plus control part."""
    t_rand = random_temperature(masses, velocities, params)
    rho = swarm_density(masses, cell_volume)
    return t_rand + control_temperature(rho, a_max, params)
