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
(3, N) component rows, one contiguous row per axis. ``step`` copies the
state into one (2, 3, N) block of such rows, runs every sub-step in place
on it, and returns (N, 3) views of its rows; the caller's arrays are never
written. What a step sets up (the sub-step count and length, the lag's
decay, the clip pre-tests' limits, the drag factor and gravity spread to
full (3, N) rows, and scratch rows with their row views) is a workspace
that the returned state carries, so the next step of the same agents at
the same dt, params and wind reuses it, and a rollout sets up once.
Integration sub-steps the caller's dt so one sub-step never exceeds a
quarter of the thrust lag time constant; the lag itself uses the exact
exponential update, so with constraints inactive and a constant demand the
discrete response matches the continuous lag to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# The scalars the sub-step hands to ufuncs, as 0-d arrays, which a ufunc
# takes without converting a Python float on every call. _TILT_TEST is the
# tilt clip's pre-test limit, far under the cone's own (see ``_constrain``).
_ZERO, _TAU_V, _GRAVITY, _TILT_TEST = (_frozen(np.array(x)) for x in (
    0.0, TAU_V, GRAVITY, TAN_TILT_MAX * (1.0 - 1e-12)))


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
    """Velocity and realized thrust acceleration, (N, 3) each.

    A state that ``step`` returns also carries the workspace it was stepped
    with, for the next step to reuse; a state built by hand carries none.
    """

    velocity: np.ndarray
    thrust_accel: np.ndarray
    _work: _Workspace | None = field(default=None, init=False, repr=False,
                                     compare=False)

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

    @classmethod
    def _stepped(cls, v, a, work: _Workspace) -> "PlantState":
        """The state of float (3, N) rows ``v`` and ``a``, which ``step``
        made, so ``__post_init__``'s conversions have nothing to do."""
        state = cls.__new__(cls)
        state.velocity, state.thrust_accel, state._work = v.T, a.T, work
        return state


class _Workspace:
    """What ``step`` sets up for ``n`` agents at one (dt, params, wind).

    It holds the sub-step count, the sub-step length ``h``, the thrust
    lag's decay over it, the thrust ball's pre-test limit and the peak
    thrust spread over the agents, the drag factor, gravity and (unless it
    is calm) the wind spread to full (3, n) rows, and scratch rows with
    their row views. ``step`` writes the scratch rows before it reads them,
    so the states that share a workspace never see each other's values;
    two steps must not run on one workspace at once.
    """

    def __init__(self, n: int, dt: float, params: PlantParams, wind):
        check("dt", dt, FINITE_POSITIVE)
        self.n, self.dt, self.params = n, dt, params
        self.wind_key = (wind.shape, wind.tobytes())
        self.n_sub = substep_count(dt, params)
        h = dt / self.n_sub
        self.h = np.array(h)                    # 0-d arrays, as _ZERO is
        self.decay = np.array(np.exp(-h / params.tau_thrust))
        self.calm = not np.count_nonzero(wind.view(np.int64))   # every bit zero
        self.unit_mass = params.mass == 1.0
        self.ball_test = np.array(params.a_max * (1.0 - 1e-12))
        self.cap = np.broadcast_to(params.a_max, (n,))
        # only the rows this step reads: a calm wind needs no wind or
        # airspeed rows, and a zero ff_gain no feedforward row
        windy, ff = not self.calm, params.ff_gain != 0.0
        rows = np.empty((5 + 2 * windy + ff, 3, n))
        rows[3:5] = _STEP_COLUMNS
        # a_d: the demand; acc: _constrain's scratch, then the acceleration;
        # u: the airspeed; ff: the drag feedforward
        self.a_d, self.drag, self.acc, self.neg_k, self.g = rows[:5]
        if windy:
            self.wind, self.u = rows[5:7]
            self.wind[...] = wind
        if ff:
            self.ff = rows[-1]
        self.a_rows, self.acc_rows = tuple(self.a_d), tuple(self.acc)
        self.xy, self.st = self.a_d[:2], self.acc[1:]

    def fits(self, n: int, dt: float, params: PlantParams, wind) -> bool:
        """Whether this workspace is the one ``step`` would build for these
        arguments: the same n, dt and params, and a wind of the same shape
        and bits."""
        return (n == self.n and dt == self.dt
                and (params is self.params or params == self.params)
                and (wind.shape, wind.tobytes()) == self.wind_key)


def _rows(x) -> np.ndarray:
    """A (3,) or (N, 3) array as (3, 1) or (3, N) component rows (a view)."""
    x = np.asarray(x, dtype=float)
    return (x if x.ndim >= 2 else x.reshape(1, -1)).T


def _drag(u, neg_k, out=None) -> np.ndarray:
    """Drag on airspeed rows ``u``, N: ``neg_k`` is minus the drag factor,
    a (3, 1) column or full rows; ``out`` must not be ``u``."""
    out = np.abs(u, out=out)
    np.multiply(neg_k, out, out=out)
    return np.multiply(out, u, out=out)


def _feedforward(cmd, wind, work: _Workspace):
    """Drag feedforward rows at the commanded airspeed, into ``work.ff``
    (``work.drag`` is scratch), or None when off."""
    params = work.params
    if params.ff_gain == 0.0:
        return None
    ff = work.ff
    _drag(np.subtract(cmd, wind, out=work.drag), work.neg_k, out=ff)
    np.negative(ff, out=ff)
    np.multiply(params.ff_gain, ff, out=ff)
    return np.divide(ff, params.mass, out=ff)


def _desired(v, cmd, ff, out) -> np.ndarray:
    """Demand rows into ``out``; ``cmd`` and ``ff`` broadcast to ``v``."""
    np.subtract(cmd, v, out=out)
    np.divide(out, _TAU_V, out=out)
    np.subtract(out[2], _GRAVITY, out=out[2])
    if ff is not None:
        np.add(out, ff, out=out)
    return out


def _constrain(work: _Workspace) -> np.ndarray:
    """Clip the demand rows ``work.a_d`` in place to the tilt cone, then to
    the thrust ball; ``work.acc`` and ``work.drag[0]`` are scratch it
    overwrites.

    Thrust points upward (negative z); a demand with downward thrust keeps
    only what the cone allows (nothing, laterally). The magnitude clip
    scales the whole vector, preserving direction and hence tilt.

    Only agents a clip may touch get the exact tests. |x| + |y| bounds
    hypot(x, y) from above, and |x| + |y| + |z| bounds the magnitude (the
    tilt clip only shrinks x and y), so an agent whose |x| + |y| stays
    under both the cone's lateral limit and the thrust limit less |z|, each
    less a margin far wider than the rounding of either side, cannot be
    clipped by either. NaN sums and limits fail this test and are checked.
    """
    a = work.a_d
    x, y, z = work.a_rows
    up, s, t = work.acc_rows
    np.negative(z, out=up)
    np.maximum(up, _ZERO, out=up)               # |z| once z is clipped to <= 0
    np.abs(work.xy, out=work.st)                # s, t = |x|, |y|
    np.add(s, t, out=s)
    np.multiply(up, _TILT_TEST, out=t)
    np.minimum(t, np.subtract(work.ball_test, up, out=work.drag[0]), out=t)
    near = (~(s <= t)).nonzero()[0]
    np.minimum(z, _ZERO, out=z)
    if not len(near):
        return a
    lim = TAN_TILT_MAX * up[near]
    lat = np.hypot(x[near], y[near])
    over = lat > lim                # so lat > 0: lim is never negative
    tilted = near[over]
    shrink = lim[over] / lat[over]
    x[tilted] *= shrink
    y[tilted] *= shrink
    xn, yn, zn = a[:, near]
    mag = np.sqrt((xn * xn + yn * yn) + zn * zn)
    cap = work.cap[near]
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

    The new state carries the workspace this call stepped with: the one
    ``state`` carries when it fits n, dt, params and wind, else a new one.
    Two operations are left out where they cannot change a bit: subtracting
    a wind of +0.0 components (x - 0.0 is x) and dividing by a mass of 1.0.
    """
    wind = _rows(wind)
    work = state._work
    if work is None or not work.fits(len(state.velocity), dt, params, wind):
        work = _Workspace(len(state.velocity), dt, params, wind)
    va = np.empty((2, 3, work.n))
    va[0] = state.velocity.T
    va[1] = state.thrust_accel.T
    v, a = va[0], va[1]
    cmd = np.ascontiguousarray(_rows(v_cmd))
    ff = _feedforward(cmd, wind, work)
    a_d, drag, acc, neg_k, g = work.a_d, work.drag, work.acc, work.neg_k, work.g
    u = v if work.calm else work.u
    h, decay, mass = work.h, work.decay, params.mass
    for _ in range(work.n_sub):
        _desired(v, cmd, ff, a_d)
        _constrain(work)
        np.subtract(a, a_d, out=a)
        np.multiply(a, decay, out=a)
        np.add(a_d, a, out=a)
        if not work.calm:
            np.subtract(v, work.wind, out=u)
        _drag(u, neg_k, out=drag)
        if not work.unit_mass:
            np.divide(drag, mass, out=drag)
        np.add(a, g, out=acc)
        np.add(acc, drag, out=acc)
        np.multiply(h, acc, out=acc)
        np.add(v, acc, out=v)
    return PlantState._stepped(v, a, work)
