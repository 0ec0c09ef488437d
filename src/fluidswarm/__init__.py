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
from .partition import (ControlVolumeGrid, assign_cell, load_partition,
                        partition_domain, save_partition)
from .plant_suite import (headwind_sweep, hover_hold, max_speed_sweep,
                          noise_monte_carlo, run_suite, step_response)
from .primitives import (ConstitutiveParams, DegenerateCellError,
                         UndefinedSampleError, control_temperature,
                         internal_pressure, mass_mean_velocity,
                         random_temperature, swarm_density, swarm_pressure,
                         swarm_pressure_moment_form, swarm_temperature)
from .reference_field import (ChokedFlowError, FieldFormatError, GasModel,
                              NozzleGeometry, ReferenceField,
                              generate_quasi1d_field, load_field, save_field,
                              station_profile)
from .swarm_sim import (SimConfig, SimulationTrace, build_command_table,
                        detect_collisions, injection_rate, load_run,
                        population_balance, resolve_collisions,
                        run_simulation, save_run)
from .velocity_fit import (FitConfig, FitResult, GridFit, fit_cell, fit_grid,
                           grid_from_fit, load_fit, save_fit, set_pressure)
from .velocity_plant import (GRAVITY, PlantParams, PlantState, constrain_accel,
                             desired_accel, drag_force, tilt_angle_deg)
from .velocity_plant import step as plant_step

__version__ = "0.1.0"

__all__ = [
    "ChokedFlowError", "ConstitutiveParams", "ControlVolumeGrid",
    "DegenerateCellError", "DerivedFields", "FieldFormatError", "FitConfig",
    "FitResult", "GRAVITY", "GasModel", "GridFit", "NozzleGeometry",
    "PlantParams", "PlantState", "ReferenceField", "SimConfig",
    "SimulationTrace", "UndefinedSampleError", "assign_cell",
    "build_command_table", "centerline_agreement", "centerline_profile",
    "constrain_accel", "control_temperature", "default_transient",
    "derive_fields", "desired_accel", "detect_collisions", "drag_force",
    "export_centerline", "export_slice", "field_agreement", "fit_cell",
    "fit_grid", "generate_quasi1d_field", "grid_from_fit", "headwind_sweep",
    "hover_hold", "injection_rate", "internal_pressure",
    "load_field", "load_fit", "load_partition", "load_run",
    "mass_mean_velocity", "max_speed_sweep", "metrics_report",
    "noise_monte_carlo", "partition_domain", "plant_step",
    "population_balance", "random_temperature", "resolve_collisions",
    "run_simulation", "run_suite", "save_field", "save_fit", "save_metrics",
    "save_partition", "save_run", "set_pressure", "station_profile",
    "step_response", "swarm_density", "swarm_pressure",
    "swarm_pressure_moment_form", "swarm_temperature", "tilt_angle_deg",
    "transit_time_estimate", "trend_check",
    "__version__",
]
