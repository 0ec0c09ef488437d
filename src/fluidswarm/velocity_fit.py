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
pass; ``fit_cell`` is the same pass on one cell.

Reproducibility: every cell draws from its own generator seeded by
(seed, cell index), so a cell's set does not depend on which other cells are
fitted with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ControlVolumeGrid
from .primitives import pressure_coefficient
from .reference_field import (FieldFormatError, cell_index,
                              lattice_from_meta, lattice_meta, read_table,
                              write_table)

SET_SIZE = 9                      # velocities per cell
FIT_HEADER = "jx,jy,jz,n_star,v1x,v1y,v1z,..."


@dataclass(frozen=True)
class FitConfig:
    agent_mass: float = 1.0
    rng_seed: int = 0
    # not fields: the set-size range that perfbench's fit counter reads
    n_min = n_max = SET_SIZE

    def __post_init__(self):
        if self.agent_mass <= 0:
            raise ValueError("agent_mass must be positive")


@dataclass
class FitResult:
    cell: int                     # flat cell index
    n_star: int
    velocities: np.ndarray        # (n_star, 3)

    @property
    def command(self) -> np.ndarray:
        """The single per-cell command: the fitted set's mean velocity."""
        return self.velocities.mean(axis=0)


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


def fit_cell(v_target, p_target: float, cell_volume: float,
             config: FitConfig | None = None,
             rng: np.random.Generator | None = None,
             cell: int = -1) -> FitResult:
    """Fit a velocity set to one cell's targets.

    ``p_target`` must already be nonnegative (callers shift by the field
    minimum; see :func:`fit_grid`). The set is the first ``SET_SIZE`` 3-vector
    draws of ``rng``, solved as in :func:`fit_grid`.
    """
    config = config or FitConfig()
    rng = rng or np.random.default_rng(config.rng_seed)
    if p_target < 0:
        raise ValueError("pressure target must be nonnegative (pre-shifted)")
    if cell_volume <= 0:
        raise ValueError("cell_volume must be positive")
    vel = _solve(np.asarray(v_target, dtype=float)[None], np.array([p_target]),
                 cell_volume, config.agent_mass,
                 rng.standard_normal((1, SET_SIZE, 3)))
    return FitResult(cell=cell, n_star=SET_SIZE, velocities=vel[0])


@dataclass
class GridFit:
    """Fit results for every valid cell, plus the shared pressure shift."""

    results: dict[int, FitResult]
    pressure_offset: float        # subtracted from every cell's p_target
    config: FitConfig


def fit_grid(grid: ControlVolumeGrid,
             config: FitConfig | None = None) -> GridFit:
    """Fit every valid cell of a partition in one array pass.

    Pressure targets are shifted by the valid-cell minimum so the most
    rarefied cell fits zero spread; the offset is kept with the results.
    Cell f draws from the generator seeded by (rng_seed, f), so its set
    equals ``fit_cell`` on that generator, bit for bit.
    """
    config = config or FitConfig()
    cells = np.flatnonzero(grid.valid)
    if len(cells) == 0:
        raise ValueError("grid has no valid cells to fit")
    offset = float(np.nanmin(grid.p_target[cells]))
    draws = np.stack([
        np.random.default_rng((config.rng_seed, int(f))).standard_normal(
            (SET_SIZE, 3)) for f in cells])
    vel = _solve(grid.v_target[cells], grid.p_target[cells] - offset,
                 grid.cell_volume, config.agent_mass, draws)
    results = {int(f): FitResult(cell=int(f), n_star=SET_SIZE, velocities=v)
               for f, v in zip(cells, vel)}
    return GridFit(results=results, pressure_offset=offset, config=config)


# ======================================================================
# wire format
# ======================================================================

def save_fit(fit: GridFit, grid: ControlVolumeGrid, path) -> None:
    """Write fit results exactly: one row per cell, three columns per
    velocity after the set size; the lattice rides in the metadata line."""
    meta = {"agent_mass": float(fit.config.agent_mass),
            "rng_seed": int(fit.config.rng_seed),
            "pressure_offset": float(fit.pressure_offset), **lattice_meta(grid)}
    cells = sorted(fit.results)
    rows = (jxyz + [int(r.n_star)] + r.velocities.ravel().tolist()
            for jxyz, r in zip(grid.unravel(cells).tolist(),
                               [fit.results[f] for f in cells]))
    write_table(path, meta, FIT_HEADER, rows)


def load_fit(path) -> tuple[GridFit, dict]:
    """Read a fit table; returns the fit and its metadata mapping. Raises
    ``ValueError`` as :func:`~fluidswarm.reference_field.read_table` does, on
    missing metadata, on a cell off the lattice or with two rows, and on a
    row whose velocity count disagrees with its set size."""
    meta, lines, rows = read_table(path, FIT_HEADER)
    missing = sorted({"agent_mass", "rng_seed", "pressure_offset"} - meta.keys())
    if missing:
        raise FieldFormatError(f"{path}: missing fit metadata {', '.join(missing)}")
    dims = lattice_from_meta(meta, path)[2]
    head = np.array([r[:4] for r in rows])
    flat = cell_index(path, lines, head[:, :3], dims)
    results: dict[int, FitResult] = {}
    for f, n, line, r in zip(flat.tolist(), head[:, 3].tolist(), lines, rows):
        if len(r) != 4 + 3 * n:
            raise FieldFormatError(f"{path}:{line}: set size {n} expects "
                                   f"{3 * n} velocity values, got {len(r) - 4}")
        results[f] = FitResult(cell=f, n_star=int(n),
                               velocities=np.reshape(r[4:], (-1, 3)))
    config = FitConfig(agent_mass=float(meta["agent_mass"]),
                       rng_seed=int(meta["rng_seed"]))
    fit = GridFit(results=results, pressure_offset=float(meta["pressure_offset"]),
                  config=config)
    return fit, meta


def grid_from_fit(fit: GridFit, meta: dict) -> ControlVolumeGrid:
    """The lattice of a fit file, each fitted cell targeting its set mean:
    what a simulation reads. Pressure and density targets stay NaN, so the
    result suits simulation, not scoring."""
    grid = ControlVolumeGrid.empty(*lattice_from_meta(meta))
    cells = sorted(fit.results)
    grid.inside[cells] = True
    grid.node_count[cells] = 1
    grid.v_target[cells] = [fit.results[f].command for f in cells]
    return grid
