"""Partition the duct onto the cubic lattice and fit velocity sets.

Shows the lattice bookkeeping, then fits every valid cell and pulls one cell
apart: the fitted set, its mean against the velocity target, and its spread
against the (shifted) pressure target.
"""

import numpy as np

from fluidswarm import (FitConfig, fit_grid, generate_quasi1d_field,
                        partition_domain, set_pressure)
from fluidswarm.velocity_fit import SET_SIZE

field = generate_quasi1d_field()
grid = partition_domain(field, edge_length=0.5)

nx, ny, nz = grid.dims
print(f"lattice {nx}x{ny}x{nz} cells of {grid.edge_length} m "
      f"({grid.num_cells} total)")
print(f"  {int(grid.inside.sum())} overlap the duct volume")
print(f"  {int(grid.valid.sum())} hold field nodes and get targets")
print(f"  axial speed targets 3.38 -> {np.nanmax(np.linalg.norm(grid.v_target, axis=1)):.2f} m/s, "
      f"gauge range {np.nanmin(grid.p_target):.2f} .. {np.nanmax(grid.p_target):.2f} Pa\n")

cfg = FitConfig(rng_seed=0)
fit = fit_grid(grid, cfg)
# replay every set from its velocities: mean against the velocity target,
# spread against the shifted pressure target; fit.velocities holds one
# (SET_SIZE, 3) set per fitted cell, in the order of fit.cells
commands = fit.commands()
mean_err = np.linalg.norm(commands - grid.v_target[fit.cells], axis=1).max()
p_err = max(abs(set_pressure(v, c, grid.cell_volume, cfg.agent_mass)
                - (grid.p_target[f] - fit.pressure_offset))
            for f, v, c in zip(fit.cells, fit.velocities, commands))
print(f"fitted {len(fit.cells)} cells, {SET_SIZE} velocities each")
print(f"worst replayed residuals: mean {mean_err:.2e} m/s, pressure "
      f"{p_err:.2e} Pa; pressure shift {fit.pressure_offset:.4f} Pa\n")

# one cell in detail: the throat-adjacent axial cell
centers = grid.centers()
target_speed = np.linalg.norm(grid.v_target, axis=1)
f = int(np.nanargmax(np.where(grid.valid, target_speed, np.nan)))
velocities = fit.velocities[np.searchsorted(fit.cells, f)]
command = fit.command(f)
print(f"cell {f} at {np.round(centers[f], 2)}: target "
      f"{np.round(grid.v_target[f], 3)} m/s, {grid.p_target[f]:.3f} Pa gauge")
print(f"  fitted {len(velocities)} velocities")
print(f"  set mean  {np.round(command, 6)}  (residual "
      f"{np.linalg.norm(command - grid.v_target[f]):.2e})")
p_set = set_pressure(velocities, grid.v_target[f], grid.cell_volume,
                     cfg.agent_mass)
print(f"  set pressure about the target {p_set:.6f} vs shifted target "
      f"{grid.p_target[f] - fit.pressure_offset:.6f}")

# broadcast command at S=0.1: the scaled set collapses to the scaled mean
scaled = 0.1 * velocities
print(f"\nS=0.1 broadcast at cell {f}: {np.round(0.1 * command, 4)} m/s "
      f"(scaled set mean {np.round(scaled.mean(axis=0), 4)})")
