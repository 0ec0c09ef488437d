"""Multirotor velocity-tracking plant in NED axes (z points down).

The abstraction between a velocity command and the realized velocity:
a proportional shaping law turns the command error into a desired thrust
acceleration (with gravity compensation and optional drag feedforward), the
desired vector is clipped to a tilt cone and a thrust-magnitude ball, and the
realized thrust acceleration follows the clipped demand through a first-order
lag. Velocity then integrates thrust + gravity + aerodynamic drag.

Everything here is vectorized over agents: states carry (N, 3) arrays and a
single agent is just N = 1. Integration sub-steps the caller's dt so one
sub-step never exceeds a quarter of the thrust lag time constant; the lag
itself uses the exact exponential update, so with constraints inactive and a
constant demand the discrete response matches the continuous lag to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81


@dataclass(frozen=True)
class PlantParams:
    """Physical and control constants for one platform class.

    ``thrust_to_weight`` may be a tuple, one value per agent of the states
    this plant steps; ``a_max`` is then per agent too.
    """

    mass: float = 1.0                      # kg
    thrust_to_weight: float | tuple[float, ...] = 2.2
    air_density: float = 1.225             # kg/m^3
    ref_area: tuple[float, float, float] = (0.02, 0.02, 0.03)    # m^2 per axis
    drag_coeff: tuple[float, float, float] = (1.0, 1.0, 1.2)
    tilt_max_deg: float = 55.0
    tau_v: float = 0.5                     # command shaping constant, s
    tau_thrust: float = 0.08               # thrust response lag, s
    ff_gain: float = 0.0                   # drag feedforward weight
    gravity: float = GRAVITY

    def __post_init__(self):
        if min(self.mass, self.tau_v, self.tau_thrust) <= 0:
            raise ValueError("mass and time constants must be positive")
        if not (0.0 < self.tilt_max_deg < 90.0):
            raise ValueError("tilt limit must lie in (0, 90) degrees")
        if np.min(self.thrust_to_weight) <= 0:
            raise ValueError("thrust_to_weight must be positive")

    @property
    def a_max(self) -> float | np.ndarray:
        """Peak thrust acceleration, m/s^2 (per agent for a tuple)."""
        if isinstance(self.thrust_to_weight, tuple):
            return np.asarray(self.thrust_to_weight) * self.gravity
        return self.thrust_to_weight * self.gravity

    @property
    def tan_tilt_max(self) -> float:
        return float(np.tan(np.deg2rad(self.tilt_max_deg)))

    @property
    def drag_factor(self) -> np.ndarray:
        """Per-axis 0.5 * rho * C_d * S, N/(m/s)^2."""
        return 0.5 * self.air_density * np.asarray(self.drag_coeff) \
            * np.asarray(self.ref_area)


@dataclass
class PlantState:
    """Velocity and realized thrust acceleration, (N, 3) each."""

    velocity: np.ndarray
    thrust_accel: np.ndarray

    def __post_init__(self):
        self.velocity = np.atleast_2d(np.asarray(self.velocity, dtype=float))
        self.thrust_accel = np.atleast_2d(np.asarray(self.thrust_accel, dtype=float))
        if self.velocity.shape != self.thrust_accel.shape:
            raise ValueError("velocity and thrust_accel shapes must match")

    @classmethod
    def hover(cls, params: PlantParams, n: int = 1) -> "PlantState":
        """Equilibrium at rest: thrust exactly cancels gravity."""
        v = np.zeros((n, 3))
        a = np.zeros((n, 3))
        a[:, 2] = -params.gravity
        return cls(v, a)


def drag_force(v_air, params: PlantParams) -> np.ndarray:
    """Quadratic aerodynamic drag opposing the airspeed, per axis, N."""
    v = np.atleast_2d(np.asarray(v_air, dtype=float))
    f = -params.drag_factor * np.abs(v) * v
    return f if np.asarray(v_air).ndim > 1 else f[0]


def desired_accel(velocity, v_cmd, wind, params: PlantParams) -> np.ndarray:
    """Unconstrained thrust-acceleration demand.

    Error shaping plus gravity compensation plus (optionally) a feedforward
    canceling the drag expected at the commanded airspeed.
    """
    v = np.atleast_2d(np.asarray(velocity, dtype=float))
    cmd = np.broadcast_to(np.atleast_2d(np.asarray(v_cmd, dtype=float)), v.shape)
    w = np.broadcast_to(np.atleast_2d(np.asarray(wind, dtype=float)), v.shape)
    a = (cmd - v) / params.tau_v
    a[:, 2] -= params.gravity
    if params.ff_gain != 0.0:
        a = a + params.ff_gain * (-drag_force(cmd - w, params)) / params.mass
    return a


def constrain_accel(accel, params: PlantParams) -> np.ndarray:
    """Clip a demand to the tilt cone, then to the thrust-magnitude ball.

    Thrust points upward (negative z); a demand with downward thrust keeps
    only what the cone allows (nothing, laterally). The magnitude clip scales
    the whole vector, preserving direction and hence tilt.
    """
    a = np.atleast_2d(np.asarray(accel, dtype=float)).copy()
    up = np.maximum(-a[:, 2], 0.0)
    lat = np.hypot(a[:, 0], a[:, 1])
    lim = params.tan_tilt_max * up
    over = lat > lim
    shrink = np.ones_like(lat)
    nz = over & (lat > 0)
    shrink[nz] = lim[nz] / lat[nz]
    a[:, 0] *= shrink
    a[:, 1] *= shrink
    a[:, 2] = np.minimum(a[:, 2], 0.0)
    mag = np.linalg.norm(a, axis=1)
    a_max = params.a_max
    over = mag > a_max
    if np.ndim(a_max):
        a_max = a_max[over]   # clipped rows only: a hover row's mag is 0
    a[over] *= (a_max / mag[over])[:, None]
    return a if np.asarray(accel).ndim > 1 else a[0]


def tilt_angle_deg(thrust_accel) -> np.ndarray:
    """Tilt of the thrust vector from vertical, degrees."""
    a = np.atleast_2d(np.asarray(thrust_accel, dtype=float))
    lat = np.hypot(a[:, 0], a[:, 1])
    up = np.maximum(-a[:, 2], 1e-12)
    out = np.degrees(np.arctan2(lat, up))
    return out if np.asarray(thrust_accel).ndim > 1 else float(out[0])


def substep_count(dt: float, params: PlantParams) -> int:
    """Sub-steps so each is at most a quarter of the thrust lag constant."""
    return max(1, int(np.ceil(dt / (params.tau_thrust / 4.0) - 1e-12)))


def step(state: PlantState, v_cmd, dt: float, params: PlantParams,
         wind=(0.0, 0.0, 0.0)) -> PlantState:
    """Advance the plant by dt (in place on a copy; returns the new state)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_sub = substep_count(dt, params)
    h = dt / n_sub
    decay = float(np.exp(-h / params.tau_thrust))
    v = state.velocity.copy()
    a = state.thrust_accel.copy()
    g_vec = np.array([0.0, 0.0, params.gravity])
    wind = np.asarray(wind, dtype=float)
    for _ in range(n_sub):
        a_d = constrain_accel(desired_accel(v, v_cmd, wind, params), params)
        a = a_d + (a - a_d) * decay
        v = v + h * (a + g_vec + drag_force(v - wind, params) / params.mass)
    return PlantState(v, a)
