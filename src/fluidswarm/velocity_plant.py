"""Multirotor velocity-tracking plant in NED axes (z points down).

The abstraction between a velocity command and the realized velocity:
a proportional shaping law turns the command error into a desired thrust
acceleration (with gravity compensation and optional drag feedforward), the
desired vector is clipped to a tilt cone and a thrust-magnitude ball, and the
realized thrust acceleration follows the clipped demand through a first-order
lag. Velocity then integrates thrust + gravity + aerodynamic drag.

Every agent flies one airframe. Its gravity, shaping constant, tilt cone
and drag are module constants (``GRAVITY``, ``TAU_V``, ``TAN_TILT_MAX``,
``DRAG_FACTOR``); ``PlantParams`` holds what a run may set: the mass, the
thrust-to-weight ratio, the thrust lag and the drag feedforward weight.

Everything here is vectorized over agents. ``step``, ``tilt_angle_deg`` and
``PlantState`` take and give (N, 3) arrays (a command or wind may be one (3,)
vector for every agent), and a single agent is just N = 1; the math runs on
(3, N) component rows, one contiguous row per axis. ``step`` copies the state into such rows, runs every sub-step
in place in buffers it allocates once per call, with the drag factor and
gravity spread to full (3, N) rows, and returns (N, 3) views of its rows;
the caller's arrays are never written. Integration sub-steps the caller's dt
so one sub-step never exceeds a quarter of the thrust lag time constant; the
lag itself uses the exact exponential update, so with constraints inactive
and a constant demand the discrete response matches the continuous lag to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .primitives import (FINITE_NONNEGATIVE, FINITE_POSITIVE, Domain,
                         check, check_fields, ranged)


def _frozen(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


GRAVITY = 9.81                                  # m/s^2
TAU_V = 0.5                                     # command shaping constant, s
TAN_TILT_MAX = float(np.tan(np.deg2rad(55.0)))  # tilt cone of 55 degrees
# per-axis 0.5 * rho * C_d * S, N/(m/s)^2: air at 1.225 kg/m^3, drag
# coefficients (1.0, 1.0, 1.2) and reference areas (0.02, 0.02, 0.03) m^2
DRAG_FACTOR = _frozen(0.5 * 1.225 * np.asarray((1.0, 1.0, 1.2))
                      * np.asarray((0.02, 0.02, 0.03)))
# (2, 3, 1): minus the drag factor and the gravity vector, the columns
# ``step`` spreads over its agents
_STEP_COLUMNS = _frozen(np.stack([-DRAG_FACTOR, [0.0, 0.0, GRAVITY]])[..., None])


@dataclass(frozen=True)
class PlantParams:
    """The settings of the airframe that a run may choose.

    ``thrust_to_weight`` may be a tuple, one value per agent of the states
    this plant steps; ``a_max`` is then per agent too.
    """

    mass: float = ranged(1.0, FINITE_POSITIVE)                  # kg
    thrust_to_weight: float | tuple[float, ...] = ranged(2.2, Domain(
        "must be finite and positive, or a tuple of such values",
        lambda x: FINITE_POSITIVE.test(x) or isinstance(x, tuple)
        and len(x) > 0 and all(map(FINITE_POSITIVE.test, x))))
    tau_thrust: float = ranged(0.08, FINITE_POSITIVE)  # thrust response lag, s
    ff_gain: float = ranged(0.0, FINITE_NONNEGATIVE)  # drag feedforward weight

    __post_init__ = check_fields

    @cached_property
    def a_max(self) -> float | np.ndarray:
        """Peak thrust acceleration, m/s^2 (per agent for a tuple),
        computed once per instance (a read-only array for a tuple)."""
        if isinstance(self.thrust_to_weight, tuple):
            return _frozen(np.asarray(self.thrust_to_weight) * GRAVITY)
        return self.thrust_to_weight * GRAVITY


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
    def hover(cls, n: int = 1) -> "PlantState":
        """Equilibrium at rest: thrust exactly cancels gravity."""
        v = np.zeros((n, 3))
        a = np.zeros((n, 3))
        a[:, 2] = -GRAVITY
        return cls(v, a)


def _rows(x) -> np.ndarray:
    """A (3,) or (N, 3) array as (3, 1) or (3, N) component rows (a view)."""
    return np.atleast_2d(np.asarray(x, dtype=float)).T


def _drag(u, neg_k, out=None) -> np.ndarray:
    """Drag on airspeed rows ``u``, N: ``neg_k`` is minus the drag factor,
    a (3, 1) column or full rows; ``out`` must not be ``u``."""
    out = np.abs(u, out=out)
    np.multiply(neg_k, out, out=out)
    return np.multiply(out, u, out=out)


def _feedforward(cmd, wind, params: PlantParams):
    """Drag feedforward rows at the commanded airspeed, or None when off."""
    if params.ff_gain == 0.0:
        return None
    f = -_drag(cmd - wind, -DRAG_FACTOR[:, None])
    return params.ff_gain * f / params.mass


def _desired(v, cmd, ff, out) -> np.ndarray:
    """Demand rows into ``out``; ``cmd`` and ``ff`` broadcast to ``v``."""
    np.subtract(cmd, v, out=out)
    np.divide(out, TAU_V, out=out)
    np.subtract(out[2], GRAVITY, out=out[2])
    if ff is not None:
        np.add(out, ff, out=out)
    return out


def _constrain(a, params: PlantParams, scratch=None) -> np.ndarray:
    """Clip component rows ``a`` in place to the tilt cone, then to the
    thrust ball; ``scratch`` is a (3, N) buffer it may overwrite.

    Thrust points upward (negative z); a demand with downward thrust keeps
    only what the cone allows (nothing, laterally). The magnitude clip
    scales the whole vector, preserving direction and hence tilt.

    Only agents a clip may touch get the exact test. |x| + |y| bounds
    hypot(x, y) from above, and |x| + |y| + |z| bounds the magnitude (the
    tilt clip only shrinks x and y), so an agent whose sum stays under the
    cone's lateral limit, or under the thrust limit, less a margin far wider
    than the rounding of either side, cannot be clipped by it. NaN sums and
    limits fail these tests and are checked.
    """
    x, y, z = a
    up, s, t = np.empty_like(a) if scratch is None else scratch
    np.negative(z, out=up)
    np.maximum(up, 0.0, out=up)                 # |z| once z is clipped to <= 0
    np.abs(x, out=s)
    np.add(s, np.abs(y, out=t), out=s)
    np.multiply(up, TAN_TILT_MAX * (1.0 - 1e-12), out=t)
    near = (~(s <= t)).nonzero()[0]
    if len(near):
        lim = TAN_TILT_MAX * up[near]
        lat = np.hypot(x[near], y[near])
        over = lat > lim            # so lat > 0: lim is never negative
        near = near[over]
        shrink = lim[over] / lat[over]
        x[near] *= shrink
        y[near] *= shrink
    np.minimum(z, 0.0, out=z)
    a_max = params.a_max
    near = (~(np.add(s, up, out=s) <= a_max * (1.0 - 1e-12))).nonzero()[0]
    if len(near):
        xn, yn, zn = a[:, near]
        mag = np.sqrt((xn * xn + yn * yn) + zn * zn)
        cap = np.broadcast_to(a_max, z.shape)[near]
        over = mag > cap
        a[:, near[over]] *= cap[over] / mag[over]
    return a


def tilt_angle_deg(thrust_accel) -> np.ndarray:
    """Tilt of each (N, 3) row's thrust vector from vertical, degrees."""
    a = np.asarray(thrust_accel, dtype=float)
    lat = np.hypot(a[:, 0], a[:, 1])
    up = np.maximum(-a[:, 2], 1e-12)
    return np.degrees(np.arctan2(lat, up))


def substep_count(dt: float, params: PlantParams) -> int:
    """Sub-steps so each is at most a quarter of the thrust lag constant."""
    return max(1, int(np.ceil(dt / (params.tau_thrust / 4.0) - 1e-12)))


def step(state: PlantState, v_cmd, dt: float, params: PlantParams,
         wind=(0.0, 0.0, 0.0)) -> PlantState:
    """Advance the plant by dt; returns a new state whose arrays are (N, 3)
    views of (3, N) component rows.

    Two operations are left out where they cannot change a bit: subtracting
    a wind of +0.0 components (x - 0.0 is x) and dividing by a mass of 1.0.
    """
    check("dt", dt, FINITE_POSITIVE)
    n_sub = substep_count(dt, params)
    h = dt / n_sub
    decay = float(np.exp(-h / params.tau_thrust))
    v = np.array(state.velocity.T, order="C")
    a = np.array(state.thrust_accel.T, order="C")
    cmd, wind = np.ascontiguousarray(_rows(v_cmd)), _rows(wind)
    ff = _feedforward(cmd, wind, params)
    calm = not np.count_nonzero(wind.view(np.int64))    # every bit zero
    if not calm:
        wind = np.ascontiguousarray(np.broadcast_to(wind, v.shape))
    unit_mass = params.mass == 1.0
    rows = np.empty((5,) + v.shape)
    rows[3:] = _STEP_COLUMNS
    a_d, drag, acc, neg_k, g = rows          # acc is _constrain's scratch
    u = v if calm else np.empty_like(v)     # airspeed
    for _ in range(n_sub):
        _constrain(_desired(v, cmd, ff, a_d), params, acc)
        np.subtract(a, a_d, out=a)
        np.multiply(a, decay, out=a)
        np.add(a_d, a, out=a)
        if not calm:
            np.subtract(v, wind, out=u)
        _drag(u, neg_k, out=drag)
        if not unit_mass:
            np.divide(drag, params.mass, out=drag)
        np.add(a, g, out=acc)
        np.add(acc, drag, out=acc)
        np.multiply(h, acc, out=acc)
        np.add(v, acc, out=v)
    return PlantState(v.T, a.T)
