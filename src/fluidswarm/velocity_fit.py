"""Per-cell velocity-set fitting: encode flow targets as agent velocities.

Each occupied cell of the partition gets a set of ``SET_SIZE`` agent
velocities whose mean equals the cell's velocity target and whose spread
reproduces the cell's (shifted, nonnegative) pressure target through the
second-moment pressure formula.

Construction, in closed form: each cell draws ``SET_SIZE`` standard normal
3-vectors and removes their mean, giving fluctuations w_i with
q = sum_i ||w_i||^2. The set is v_target + s * w_i, with the spread

    s = sqrt(P_target / (c * q)),    c = 2 m / (3 dV),

so the set pressure c * s^2 * q equals P_target, and a zero target tiles
the velocity target exactly. ``fit_grid`` solves every cell in one array
pass into a :class:`GridFit`: ``cells`` (K,) ascending and ``velocities``
(K, SET_SIZE, 3).

Reproducibility: one generator, ``np.random.default_rng(seed)``, draws the
fluctuations of every cell in ascending cell order, so a fit is a function
of the seed and the set of fitted cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .partition import ControlVolumeGrid
from .primitives import (FINITE_POSITIVE, SEED, check_fields,
                         pressure_coefficient, ranged)
from .velocity_plant import PlantParams

SET_SIZE = 9                      # velocities per cell


@dataclass(frozen=True)
class FitConfig:
    agent_mass: float = ranged(PlantParams.mass, FINITE_POSITIVE)
    rng_seed: int = ranged(0, SEED)
    # not fields: the set-size range that perfbench's fit counter reads
    n_min = n_max = SET_SIZE

    __post_init__ = check_fields


def set_pressure(velocities, center, cell_volume: float, agent_mass: float) -> float:
    """Second-moment pressure of a velocity set about a given center."""
    w = np.asarray(velocities, dtype=float) - np.asarray(center, dtype=float)
    return float(pressure_coefficient(agent_mass, cell_volume)
                 * np.einsum("ij,ij->", w, w))


def _solve(v_target, p_target, cell_volume: float, agent_mass: float,
           draws) -> np.ndarray:
    """Closed-form sets for k cells: targets (k, 3) and (k,), draws
    (k, SET_SIZE, 3) of standard normals; returns (k, SET_SIZE, 3)."""
    w = draws - draws.mean(axis=1, keepdims=True)
    q = np.einsum("kij,kij->k", w, w)
    s = np.sqrt(p_target / (pressure_coefficient(agent_mass, cell_volume) * q))
    return v_target[:, None, :] + s[:, None, None] * w


@dataclass
class GridFit:
    """The fitted sets of every valid cell, plus the shared pressure shift."""

    cells: np.ndarray             # (K,) fitted flat cell indices, ascending
    velocities: np.ndarray        # (K, SET_SIZE, 3) each cell's set
    pressure_offset: float        # subtracted from every cell's p_target
    config: FitConfig

    def commands(self) -> np.ndarray:
        """(K, 3) the cells' commands, each set's mean velocity: row i
        equals ``velocities[i].mean(axis=0)`` bit for bit."""
        return self.velocities.mean(axis=1)

    def command(self, cell: int) -> np.ndarray:
        """The command of one fitted cell; raises KeyError for another."""
        row = np.searchsorted(self.cells, cell)
        if row == len(self.cells) or self.cells[row] != cell:
            raise KeyError(f"cell {cell} has no fit")
        return self.velocities[row].mean(axis=0)

    # not a field: perfbench reads len(results) and results[cell].n_star
    @property
    def results(self):
        return MappingProxyType(dict.fromkeys(
            self.cells.tolist(), SimpleNamespace(n_star=SET_SIZE)))


def fit_grid(grid: ControlVolumeGrid,
             config: FitConfig | None = None) -> GridFit:
    """Fit every valid cell of a partition in one array pass.

    Pressure targets are shifted by the valid-cell minimum so the most
    rarefied cell fits zero spread; the offset is kept with the results.
    One ``default_rng(rng_seed)`` draws the (K, SET_SIZE, 3) fluctuations
    of all cells in ascending cell order: cell after cell, the sets a
    one-cell fit on that shared generator gives, bit for bit.
    """
    config = config or FitConfig()
    cells = np.flatnonzero(grid.valid)
    if len(cells) == 0:
        raise ValueError("grid has no valid cells to fit")
    offset = float(np.nanmin(grid.p_target[cells]))
    draws = np.random.default_rng(config.rng_seed).standard_normal(
        (len(cells), SET_SIZE, 3))
    vel = _solve(grid.v_target[cells], grid.p_target[cells] - offset,
                 grid.cell_volume, config.agent_mass, draws)
    return GridFit(cells, vel, offset, config)
