"""Fluid-field-driven swarm control.

A reference gas flow through a converging-diverging duct is partitioned onto
a cubic lattice, each cell's velocity/pressure pair is encoded as a small set
of agent velocities, and a multirotor swarm flies the scaled per-cell
commands. Post-run analysis recovers density, velocity, and pressure fields
from the agent motion and scores them against the targets.
"""

from .metrics import (DerivedFields, centerline_agreement, centerline_profile,
                      default_transient, derive_fields, export_centerline,
                      export_slice, field_agreement, metrics_report,
                      save_metrics, transit_time_estimate, trend_check)
from .partition import ControlVolumeGrid, assign_cell, partition_domain
from .plant_suite import (headwind_sweep, hover_hold, max_speed_sweep,
                          noise_monte_carlo, run_suite, step_response)
from .records import (FieldFormatError, grid_from_fit, load_field, load_fit,
                      load_partition, load_run, save_field, save_fit,
                      save_partition, save_run)
from .reference_field import (ChokedFlowError, GasModel, NozzleGeometry,
                              ReferenceField, generate_quasi1d_field,
                              station_profile)
from .swarm_sim import (SimConfig, SimulationTrace, build_command_table,
                        detect_collisions, injection_rate, population_balance,
                        resolve_collisions, run_simulation)
from .velocity_fit import FitConfig, GridFit, fit_grid, set_pressure
from .velocity_plant import GRAVITY, PlantParams, PlantState, tilt_angle_deg
from .velocity_plant import step as plant_step

__version__ = "0.1.0"

__all__ = [
    "ChokedFlowError", "ControlVolumeGrid", "DerivedFields",
    "FieldFormatError", "FitConfig", "GRAVITY",
    "GasModel", "GridFit", "NozzleGeometry", "PlantParams", "PlantState",
    "ReferenceField", "SimConfig", "SimulationTrace", "assign_cell",
    "build_command_table", "centerline_agreement", "centerline_profile",
    "default_transient", "derive_fields",
    "detect_collisions", "export_centerline", "export_slice",
    "field_agreement", "fit_grid", "generate_quasi1d_field", "grid_from_fit",
    "headwind_sweep", "hover_hold", "injection_rate", "load_field",
    "load_fit", "load_partition", "load_run", "max_speed_sweep",
    "metrics_report", "noise_monte_carlo", "partition_domain", "plant_step",
    "population_balance", "resolve_collisions", "run_simulation",
    "run_suite", "save_field", "save_fit", "save_metrics", "save_partition",
    "save_run", "set_pressure", "station_profile", "step_response",
    "tilt_angle_deg", "transit_time_estimate", "trend_check",
    "__version__",
]
