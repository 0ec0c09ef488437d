"""Per-cell velocity-set fitting: encode flow targets as agent velocities.

Each occupied cell of the partition gets a small set of N agent velocities
whose mean equals the cell's velocity target and whose spread reproduces the
cell's (shifted, nonnegative) pressure target through the second-moment
pressure formula. The agent count N is chosen by scanning a candidate range
and keeping the count with the smallest final objective, ties going to the
smaller count.

Construction: the mean constraint is eliminated exactly by optimizing
zero-mean fluctuations w_i added to the target; the pressure constraint then
reduces to one scalar equation in a radial scale s applied to the initial
Gaussian draw, solved by Newton iteration on

    r(s) = (2 m / (3 dV)) * s^2 * sum_i ||w_i||^2  -  P_target.

The objective reported is  ||v_target - mean||^2 + alpha * |P_target - P(set)|,
with the mean term zero by construction up to rounding.

Reproducibility: every cell draws from its own generator seeded by
(seed, cell index), so results are independent of evaluation order and of
how many worker threads computed them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .partition import ControlVolumeGrid
from .primitives import pressure_coefficient
from .reference_field import _FMT

FIT_HEADER = "jx,jy,jz,n_star,loss,iters,converged"


@dataclass(frozen=True)
class FitConfig:
    n_min: int = 2
    n_max: int = 10
    alpha: float = 1.0            # pressure-residual weight in the objective
    epsilon: float = 1e-6         # update-norm stopping threshold
    max_iterations: int = 100
    agent_mass: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError("need 1 <= n_min <= n_max")
        if self.epsilon <= 0 or self.alpha < 0 or self.agent_mass <= 0:
            raise ValueError("epsilon/agent_mass must be positive, alpha >= 0")


@dataclass
class FitResult:
    cell: int                     # flat cell index
    n_star: int
    velocities: np.ndarray        # (n_star, 3)
    loss: float
    iterations: int
    converged: bool
    mean_residual: float          # ||mean(velocities) - v_target||
    pressure_residual: float      # |P(velocities about mean) - p_target|

    @property
    def command(self) -> np.ndarray:
        """The single per-cell command: the fitted set's mean velocity."""
        return self.velocities.mean(axis=0)


def initial_sigma(p_target: float, cell_volume: float, agent_mass: float,
                  n: int) -> float:
    """Per-axis draw scale that matches the pressure target in expectation.

    sigma^2 = P * 3 dV / (2 m N): inverting the second-moment pressure for
    N isotropic fluctuations.
    """
    if p_target < 0:
        raise ValueError("pressure target must be nonnegative (pre-shifted)")
    # not via pressure_coefficient: any rounding change here moves n* (ROADMAP 3)
    return float(np.sqrt(p_target * 3.0 * cell_volume / (2.0 * agent_mass * n)))


def set_pressure(velocities, center, cell_volume: float, agent_mass: float) -> float:
    """Second-moment pressure of a velocity set about a given center."""
    w = np.asarray(velocities, dtype=float) - np.asarray(center, dtype=float)
    return float(pressure_coefficient(agent_mass, cell_volume)
                 * np.einsum("ij,ij->", w, w))


def _fit_candidate(v_target, p_target, cell_volume, config, rng, n):
    """Solve one candidate count; returns velocities and diagnostics."""
    v_target = np.asarray(v_target, dtype=float)
    if p_target <= 0.0:
        vel = np.tile(v_target, (n, 1))
        return vel, abs(p_target) * config.alpha, 0, True, 0.0, abs(p_target)

    coeff = pressure_coefficient(config.agent_mass, cell_volume)
    sigma = initial_sigma(p_target, cell_volume, config.agent_mass, n)
    # zero-mean fluctuations; redraw on the (measure-zero) degenerate draw
    for _ in range(8):
        w = sigma * rng.standard_normal((n, 3))
        w -= w.mean(axis=0)
        quad = float(np.einsum("ij,ij->", w, w))
        if quad > 0.0:
            break
    else:
        raise RuntimeError("degenerate fluctuation draw repeated 8 times")

    scale_norm = np.sqrt(quad)
    s = 1.0
    iters = 0
    converged = False
    while iters < config.max_iterations:
        resid = coeff * quad * s * s - p_target
        step = -resid / (2.0 * coeff * quad * s)
        s += step
        iters += 1
        if abs(step) * scale_norm < config.epsilon:
            converged = True
            break

    vel = v_target + s * w
    mean_resid = float(np.linalg.norm(vel.mean(axis=0) - v_target))
    press_resid = abs(coeff * quad * s * s - p_target)
    loss = mean_resid ** 2 + config.alpha * press_resid
    converged = converged and press_resid <= config.epsilon * max(1.0, p_target)
    return vel, loss, iters, converged, mean_resid, press_resid


def fit_cell(v_target, p_target: float, cell_volume: float,
             config: FitConfig | None = None,
             rng: np.random.Generator | None = None,
             cell: int = -1) -> FitResult:
    """Fit a velocity set to one cell's targets.

    ``p_target`` must already be nonnegative (callers shift by the field
    minimum; see :func:`fit_grid`). Candidate counts n_min..n_max are solved
    in ascending order and the smallest loss wins; an exact tie keeps the
    smaller count because later candidates must beat, not match, the best.
    """
    config = config or FitConfig()
    rng = rng or np.random.default_rng(config.rng_seed)
    if p_target < 0:
        raise ValueError("pressure target must be nonnegative (pre-shifted)")
    if cell_volume <= 0:
        raise ValueError("cell_volume must be positive")

    best = None
    for n in range(config.n_min, config.n_max + 1):
        vel, loss, iters, conv, mres, pres = _fit_candidate(
            v_target, p_target, cell_volume, config, rng, n)
        if best is None or loss < best.loss:
            best = FitResult(cell=cell, n_star=n, velocities=vel, loss=loss,
                             iterations=iters, converged=conv,
                             mean_residual=mres, pressure_residual=pres)
    return best


@dataclass
class GridFit:
    """Fit results for every valid cell, plus the shared pressure shift."""

    results: dict[int, FitResult]
    pressure_offset: float        # subtracted from every cell's p_target
    config: FitConfig


def fit_grid(grid: ControlVolumeGrid, config: FitConfig | None = None,
             threads: int = 1) -> GridFit:
    """Fit every valid cell of a partition.

    Pressure targets are shifted by the valid-cell minimum so the most
    rarefied cell fits zero spread; the offset is kept with the results.
    Worker threads only change wall time, never output, because each cell's
    generator is seeded from (rng_seed, cell index).
    """
    config = config or FitConfig()
    cells = np.flatnonzero(grid.valid)
    if len(cells) == 0:
        raise ValueError("grid has no valid cells to fit")
    offset = float(np.nanmin(grid.p_target[cells]))
    vol = grid.cell_volume

    def solve(f: int) -> FitResult:
        rng = np.random.default_rng((config.rng_seed, int(f)))
        return fit_cell(grid.v_target[f], float(grid.p_target[f] - offset),
                        vol, config, rng, cell=int(f))

    if threads <= 1:
        results = [solve(int(f)) for f in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve, [int(f) for f in cells]))
    return GridFit(results={r.cell: r for r in results},
                   pressure_offset=offset, config=config)


# ======================================================================
# wire format
# ======================================================================

def save_fit(fit: GridFit, grid: ControlVolumeGrid, path) -> None:
    """Write fit results; rows are ragged (3 extra columns per velocity)."""
    c = fit.config
    meta = {
        "n_min": c.n_min, "n_max": c.n_max, "alpha": c.alpha,
        "epsilon": c.epsilon, "max_iterations": c.max_iterations,
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
    lines = ["# " + " ".join(f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in meta.items())]
    lines.append(FIT_HEADER + ",v1x,v1y,v1z,...")
    for f in sorted(fit.results):
        r = fit.results[f]
        jx, jy, jz = grid.unravel([f])[0]
        row = [str(jx), str(jy), str(jz), str(r.n_star), _FMT % r.loss,
               str(r.iterations), str(int(r.converged))]
        row.extend(_FMT % x for x in r.velocities.ravel())
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fit(path) -> tuple[GridFit, dict[str, float]]:
    """Read a fit table; returns the fit and its raw metadata mapping."""
    meta: dict[str, float] = {}
    results: dict[int, FitResult] = {}
    dims = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    k, _, v = tok.partition("=")
                    meta[k] = float(v)
                dims = (int(meta["nx"]), int(meta["ny"]), int(meta["nz"]))
                continue
            if line.startswith("jx,"):
                continue
            parts = line.split(",")
            jx, jy, jz = int(parts[0]), int(parts[1]), int(parts[2])
            n_star = int(parts[3])
            flat = int(np.ravel_multi_index((jx, jy, jz), dims))
            vel = np.asarray([float(x) for x in parts[7:]], dtype=float)
            if len(vel) != 3 * n_star:
                raise ValueError(f"{path}: cell ({jx},{jy},{jz}) expects "
                                 f"{3 * n_star} velocity values, got {len(vel)}")
            vel = vel.reshape(n_star, 3)
            results[flat] = FitResult(
                cell=flat, n_star=n_star, velocities=vel,
                loss=float(parts[4]), iterations=int(parts[5]),
                converged=bool(int(parts[6])),
                mean_residual=float("nan"), pressure_residual=float("nan"))
    config = FitConfig(
        n_min=int(meta.get("n_min", 2)), n_max=int(meta.get("n_max", 10)),
        alpha=meta.get("alpha", 1.0), epsilon=meta.get("epsilon", 1e-6),
        max_iterations=int(meta.get("max_iterations", 100)),
        agent_mass=meta.get("agent_mass", 1.0),
        rng_seed=int(meta.get("rng_seed", 0)))
    fit = GridFit(results=results, pressure_offset=meta.get("pressure_offset", 0.0),
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
