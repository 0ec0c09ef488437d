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

SET_SIZE = 9                      # velocities per cell
FIT_HEADER = "jx,jy,jz,n_star"
_META_KEYS = ("agent_mass", "rng_seed", "pressure_offset", "edge_length",
              "origin_x", "origin_y", "origin_z", "nx", "ny", "nz")
_GEOMETRY_KEYS = ("length", "inlet_radius", "outlet_radius", "throat_radius",
                  "throat_x")


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
    """Write fit results exactly: floats as ``repr``, one row per cell with
    three columns per velocity after ``FIT_HEADER``."""
    c = fit.config
    meta = {
        "agent_mass": c.agent_mass, "rng_seed": c.rng_seed,
        "pressure_offset": fit.pressure_offset,
        "edge_length": grid.edge_length,
        "origin_x": grid.origin[0], "origin_y": grid.origin[1],
        "origin_z": grid.origin[2],
        "nx": grid.dims[0], "ny": grid.dims[1], "nz": grid.dims[2],
    }
    if grid.geometry is not None:
        g = grid.geometry
        meta.update(length=g.length, inlet_radius=g.inlet_radius,
                    outlet_radius=g.outlet_radius, throat_radius=g.throat_radius,
                    throat_x=g.throat_x)
    lines = ["# " + " ".join(f"{k}={float(v)!r}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in meta.items())]
    lines.append(FIT_HEADER + ",v1x,v1y,v1z,...")
    for f in sorted(fit.results):
        r = fit.results[f]
        jx, jy, jz = grid.unravel([f])[0]
        row = [str(jx), str(jy), str(jz), str(r.n_star)]
        row.extend(repr(float(x)) for x in r.velocities.ravel())
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fit(path) -> tuple[GridFit, dict[str, float]]:
    """Read a fit table; returns the fit and its raw metadata mapping.

    Raises ``ValueError`` when a metadata key is missing or a row's velocity
    count disagrees with its set size.
    """
    meta: dict[str, float] = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                for tok in line[1:].split():
                    k, _, v = tok.partition("=")
                    meta[k] = float(v)
            elif line and not line.startswith("jx,"):
                rows.append(line.split(","))
    need = _META_KEYS + (_GEOMETRY_KEYS if "length" in meta else ())
    missing = [k for k in need if k not in meta]
    if missing:
        raise ValueError(f"{path}: missing fit metadata {', '.join(missing)}")
    dims = (int(meta["nx"]), int(meta["ny"]), int(meta["nz"]))
    results: dict[int, FitResult] = {}
    for parts in rows:
        jx, jy, jz, n_star = (int(x) for x in parts[:4])
        flat = int(np.ravel_multi_index((jx, jy, jz), dims))
        vel = np.asarray([float(x) for x in parts[4:]], dtype=float)
        if len(vel) != 3 * n_star:
            raise ValueError(f"{path}: cell ({jx},{jy},{jz}) expects "
                             f"{3 * n_star} velocity values, got {len(vel)}")
        results[flat] = FitResult(cell=flat, n_star=n_star,
                                  velocities=vel.reshape(n_star, 3))
    config = FitConfig(agent_mass=meta["agent_mass"],
                       rng_seed=int(meta["rng_seed"]))
    fit = GridFit(results=results, pressure_offset=meta["pressure_offset"],
                  config=config)
    return fit, meta


def grid_from_fit(fit: GridFit, meta: dict) -> ControlVolumeGrid:
    """Rebuild a target lattice from a fit file's contents.

    Fitted sets reproduce their cell's targets exactly (the mean is matched
    and the set pressure equals the shifted target), so a simulation can run
    from the fit file alone. Density targets are unavailable (no gas model in
    the fit file), so the result suits simulation, not density scoring.
    """
    from .reference_field import NozzleGeometry

    dims = (int(meta["nx"]), int(meta["ny"]), int(meta["nz"]))
    M = dims[0] * dims[1] * dims[2]
    origin = np.array([meta["origin_x"], meta["origin_y"], meta["origin_z"]])
    inside = np.zeros(M, dtype=bool)
    node_count = np.zeros(M, dtype=np.int64)
    v_target = np.full((M, 3), np.nan)
    p_target = np.full(M, np.nan)
    for f, res in fit.results.items():
        inside[f] = True
        node_count[f] = 1
        v_target[f] = res.command
        p_target[f] = set_pressure(res.velocities, res.command,
                                   meta["edge_length"] ** 3,
                                   fit.config.agent_mass) + fit.pressure_offset
    geometry = None
    if "length" in meta:
        geometry = NozzleGeometry(
            length=meta["length"], inlet_radius=meta["inlet_radius"],
            outlet_radius=meta["outlet_radius"],
            throat_radius=meta["throat_radius"], throat_x=meta["throat_x"])
    return ControlVolumeGrid(
        origin=origin, edge_length=float(meta["edge_length"]), dims=dims,
        inside=inside, node_count=node_count, v_target=v_target,
        p_target=p_target, rho_target=np.full(M, np.nan), geometry=geometry)
