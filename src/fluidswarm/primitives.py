"""Kinetic-theory style closures for the agents of one cell.

A group of agents occupying a control volume is summarized the way a gas
parcel would be: a pressure built from the second velocity moment, and a
temperature split into a thermal part (velocity spread about the mass-mean)
plus a control part tied to actuation authority. The pressure coefficient
and the two temperatures are defined once, here, for
``metrics.derive_fields``, which applies them to per-cell frame sums.
"""

from __future__ import annotations

import numpy as np

C_V = 1.0              # specific heat at constant volume analog
K_B = 1.0              # velocity-spread-to-temperature conversion
CONTROL_WEIGHT = 0.5   # weight of the control energy term


class DegenerateCellError(ValueError):
    """Raised when a closure needs a positive density and gets none."""


def pressure_coefficient(mass: float, cell_volume: float) -> float:
    """2 m / (3 dV); pass mass 1.0 when the masses are inside the sum."""
    return 2.0 * mass / (3.0 * cell_volume)


def random_temperature_from_spread(spread, total_mass):
    """K_B * S / (2 sum_i m_i), with S = sum_i m_i ||v_i - U||^2 about the
    mass-mean velocity U; scalars or arrays of per-cell sums."""
    return K_B * spread / (2.0 * total_mass)


def control_temperature(rho, a_max):
    """Control temperature from actuation authority over the packing length.

    T_ctrl = (CONTROL_WEIGHT / C_V) * a_max * L with L = rho^(-1/3), for one
    density or an array; ``a_max`` is the plant's
    (:attr:`PlantParams.a_max`). An empty cell (rho = 0) has no packing
    length; that is a degenerate cell.
    """
    if np.any(np.asarray(rho) <= 0):
        raise DegenerateCellError("control temperature needs a positive density")
    return CONTROL_WEIGHT * a_max * rho ** (-1.0 / 3.0) / C_V
