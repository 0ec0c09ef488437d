"""Multirotor velocity-tracking plant in NED axes (z points down).

The abstraction between a velocity command and the realized velocity:
a proportional shaping law turns the command error into a desired thrust
acceleration (with gravity compensation and optional drag feedforward), the
desired vector is clipped to a tilt cone and a thrust-magnitude ball, and the
realized thrust acceleration follows the clipped demand through a first-order
lag. Velocity then integrates thrust + gravity + aerodynamic drag.

Everything here is vectorized over agents. The public functions and
``PlantState`` take and give (N, 3) arrays (or one (3,) vector), and a single
agent is just N = 1; the math runs on (3, N) component rows, one contiguous
row per axis, and ``step`` returns (N, 3) views of such rows. Integration
sub-steps the caller's dt so one sub-step never exceeds a quarter of the
thrust lag time constant; the lag itself uses the exact exponential update,
so with constraints inactive and a constant demand the discrete response
matches the continuous lag to rounding.
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


def _rows(x) -> np.ndarray:
    """A (3,) or (N, 3) array as (3, 1) or (3, N) component rows (a view)."""
    return np.atleast_2d(np.asarray(x, dtype=float)).T


def _drag(v, params: PlantParams) -> np.ndarray:
    """Drag on component rows ``v`` (airspeed), N."""
    return -params.drag_factor[:, None] * np.abs(v) * v


def _desired(v, cmd, wind, params: PlantParams) -> np.ndarray:
    """Demand on component rows; ``cmd`` and ``wind`` broadcast to ``v``."""
    a = (cmd - v) / params.tau_v
    a[2] -= params.gravity
    if params.ff_gain != 0.0:
        a = a + params.ff_gain * (-_drag(cmd - wind, params)) / params.mass
    return a


def _constrain(a, params: PlantParams) -> np.ndarray:
    """Clip component rows ``a`` in place to the tilt cone and thrust ball.

    Only agents the tilt clip may touch get a ``hypot``: |x| + |y| bounds
    hypot(x, y) from above, so an agent whose sum stays under the cone's
    lateral limit, less a margin far wider than the rounding of either side,
    cannot be clipped. NaN sums and limits fail the test and are checked.
    """
    x, y, z = a
    lim = params.tan_tilt_max * np.maximum(-z, 0.0)
    near = np.flatnonzero(~(np.abs(x) + np.abs(y) <= lim * (1.0 - 1e-12)))
    if len(near):
        lat = np.hypot(x[near], y[near])
        over = lat > lim[near]      # so lat > 0: lim is never negative
        near = near[over]
        shrink = lim[near] / lat[over]
        x[near] *= shrink
        y[near] *= shrink
    np.minimum(z, 0.0, out=z)
    mag = np.sqrt((x * x + y * y) + z * z)
    a_max = params.a_max
    over = np.flatnonzero(mag > a_max)
    if len(over):
        if np.ndim(a_max):
            a_max = a_max[over]   # clipped agents only: a hover agent's mag is 0
        a[:, over] *= a_max / mag[over]
    return a


def drag_force(v_air, params: PlantParams) -> np.ndarray:
    """Quadratic aerodynamic drag opposing the airspeed, per axis, N."""
    f = _drag(_rows(v_air), params).T
    return f if np.ndim(v_air) > 1 else f[0]


def desired_accel(velocity, v_cmd, wind, params: PlantParams) -> np.ndarray:
    """Unconstrained thrust-acceleration demand, (N, 3).

    Error shaping plus gravity compensation plus (optionally) a feedforward
    canceling the drag expected at the commanded airspeed.
    """
    return _desired(_rows(velocity), _rows(v_cmd), _rows(wind), params).T


def constrain_accel(accel, params: PlantParams) -> np.ndarray:
    """Clip a demand to the tilt cone, then to the thrust-magnitude ball.

    Thrust points upward (negative z); a demand with downward thrust keeps
    only what the cone allows (nothing, laterally). The magnitude clip scales
    the whole vector, preserving direction and hence tilt.
    """
    a = _constrain(_rows(accel).copy(), params).T
    return a if np.ndim(accel) > 1 else a[0]


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
    """Advance the plant by dt; returns a new state whose arrays are (N, 3)
    views of (3, N) component rows."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_sub = substep_count(dt, params)
    h = dt / n_sub
    decay = float(np.exp(-h / params.tau_thrust))
    v = np.ascontiguousarray(state.velocity.T)
    a = np.ascontiguousarray(state.thrust_accel.T)
    cmd, wind = np.ascontiguousarray(_rows(v_cmd)), _rows(wind)
    g = np.array([[0.0], [0.0], [params.gravity]])
    for _ in range(n_sub):
        a_d = _constrain(_desired(v, cmd, wind, params), params)
        a = a_d + (a - a_d) * decay
        v = v + h * (a + g + _drag(v - wind, params) / params.mass)
    return PlantState(v.T, a.T)
