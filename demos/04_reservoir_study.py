"""The headline experiment: fly a swarm through the duct field for 60 s.

Generates the field, partitions, fits, runs the reservoir injection case at
S=0.1, and scores the time-averaged swarm against the targets. Writes the
run record, the metrics file and the slice/centerline CSVs under
runs/reservoir_demo/ in the working directory. About 1.5 s end to end on a
2-vCPU Xeon host.
"""

import os

from fluidswarm import (FitConfig, SimConfig, export_centerline, export_slice,
                        fit_grid, generate_quasi1d_field, metrics_report,
                        partition_domain, run_simulation, save_metrics,
                        save_run)

outdir = os.path.join("runs", "reservoir_demo")

field = generate_quasi1d_field()
grid = partition_domain(field)
fit = fit_grid(grid, FitConfig(rng_seed=0))
print(f"{int(grid.valid.sum())} cells fitted; entry batch every 0.5 s")

cfg = SimConfig(case="reservoir", duration=60.0, dt=0.05, scale=0.1, seed=0)
trace = run_simulation(grid, fit, cfg)
total = trace.totals
print(f"60 s flown: injected {total['inject']}, retired {total['retire']}, "
      f"active {trace.frame_active[-1]}, "
      f"wall escapes {total['wall_escape']}")

report = metrics_report(trace, grid)
v = report.values
print(f"\naveraging window starts at t = {v['transient']:.1f} s "
      f"({v['frames_used']} frames)")
print("               inlet    throat     exit")
print(f"  density   {v['density_inlet']:8.2f}  {v['density_throat']:8.2f} "
      f" {v['density_exit']:8.2f}  agents/m3")
print(f"  speed     {v['speed_inlet']:8.3f}  {v['speed_throat']:8.3f} "
      f" {v['speed_exit']:8.3f}  m/s")
print(f"  trends hold: density {v['density_trend_ok']}, "
      f"speed {v['speed_trend_ok']}")

print(f"\nnormalized agreement over {v['cells_compared']} cells:")
print(f"  velocity rmse {v['rmse_velocity']:.4f}, pressure rmse "
      f"{v['rmse_pressure']:.4f}, density rmse {v['rmse_density']:.4f}")
print(f"  centerline rms: speed {v['centerline_speed_rms']:.4f}, "
      f"pressure {v['centerline_pressure_rms']:.4f}")
print(f"  exit rate {v['exit_rate']:.2f}/s vs injection {v['inject_rate']:.2f}/s")

os.makedirs(outdir, exist_ok=True)
save_run(trace, grid, os.path.join(outdir, "trace"))
save_metrics(report, os.path.join(outdir, "metrics.txt"))
export_slice(report.derived, grid, os.path.join(outdir, "slice.csv"))
export_centerline(report.profile, os.path.join(outdir, "centerline.csv"))
print(f"\nrun + metrics + CSV cuts -> {outdir}")
