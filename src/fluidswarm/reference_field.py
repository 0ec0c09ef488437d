"""Reference flow fields for converging-diverging duct geometries.

This module produces the target flow field that the swarm is asked to
imitate: an analytic quasi-one-dimensional generator for a circular nozzle
with a smooth (C1) radius profile, solving subsonic isentropic flow at every
station in one lane-wise root find. Fields computed elsewhere (e.g. a CFD
export) are read by ``records.load_field``.

Conventions
-----------
Coordinates are meters, x along the duct axis (inlet at x = 0), y/z transverse.
Velocities are m/s. Pressures are *gauge* relative to the inlet static
pressure, so the inlet plane reads 0 Pa and the throat goes negative.

The analytic generator is an area-mean model: every node at an axial station
carries that station's one-dimensional solution, with zero transverse
velocity. Point fields from a full Navier-Stokes solve will show higher peaks
on the axis than this model's area mean; ingest such fields from a file
rather than trying to coax them out of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .primitives import (FINITE_POSITIVE, Domain, check, check_fields,
                         integers_from, is_real, ranged)


class ChokedFlowError(ValueError):
    """Raised when the requested mass flow cannot pass the duct subsonically."""


# ======================================================================
# geometry
# ======================================================================

@dataclass(frozen=True)
class NozzleGeometry:
    """Circular converging-diverging duct with a cosine-blended wall.

    The wall radius runs from ``inlet_radius`` at x = 0 down to
    ``throat_radius`` at ``throat_x`` and back up to ``outlet_radius`` at
    ``length``, using half-cosine blends on each side. Both blends have zero
    slope at their endpoints, so the profile is C1 everywhere including the
    throat.
    """

    length: float = ranged(15.0, FINITE_POSITIVE)
    inlet_radius: float = ranged(1.5, FINITE_POSITIVE)
    outlet_radius: float = ranged(1.5, FINITE_POSITIVE)
    throat_radius: float = ranged(0.75, FINITE_POSITIVE)
    throat_x: float = ranged(6.0, FINITE_POSITIVE)

    def __post_init__(self):
        check_fields(self)
        if not self.throat_x < self.length:
            raise ValueError("throat_x must lie strictly inside (0, length)")
        if self.throat_radius > min(self.inlet_radius, self.outlet_radius):
            raise ValueError("throat_radius must not exceed the end radii")

    def radius(self, x):
        """Wall radius at axial position(s) ``x`` (clamped to the duct).

        Each half-cosine blend is evaluated only where it applies: upstream
        for x <= ``throat_x``, downstream elsewhere. Both add a
        non-negative term to ``throat_radius``, so no radius is below it.
        """
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.length)
        r = np.empty_like(x)
        up = x <= self.throat_x
        xu, xd = x[up], x[~up]
        r[up] = self.throat_radius + (self.inlet_radius - self.throat_radius) \
            * 0.5 * (1.0 + np.cos(np.pi * xu / self.throat_x))
        r[~up] = self.throat_radius + (self.outlet_radius - self.throat_radius) \
            * 0.5 * (1.0 - np.cos(np.pi * (xd - self.throat_x) / (self.length - self.throat_x)))
        return r

    def area(self, x):
        """Cross-sectional area at ``x``."""
        return np.pi * self.radius(x) ** 2

    @property
    def max_radius(self) -> float:
        return max(self.inlet_radius, self.outlet_radius)

    def contains(self, positions):
        """Boolean mask: which points lie inside the duct volume, with a
        margin of 1e-9 on the axial and squared radial tests."""
        tol = 1e-9
        p = np.atleast_2d(np.asarray(positions, dtype=float))
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        in_x = (x >= -tol) & (x <= self.length + tol)
        r = self.radius(np.clip(x, 0.0, self.length))
        return in_x & (y * y + z * z <= r * r + tol)


# ======================================================================
# gas model
# ======================================================================

@dataclass(frozen=True)
class GasModel:
    """Barotropic (isentropic) gas closure: P = k rho^gamma.

    Defaults are sea-level air. ``inlet_pressure`` is the absolute static
    pressure recovered from the inlet density and sound speed; gauge pressures
    elsewhere are measured against it.
    """

    gamma: float = ranged(1.4, Domain("must be finite and above 1",
                                      lambda x: is_real(x) and 1 < x < np.inf))
    inlet_density: float = ranged(1.225, FINITE_POSITIVE)
    inlet_sound_speed: float = ranged(340.0, FINITE_POSITIVE)

    __post_init__ = check_fields

    @property
    def inlet_pressure(self) -> float:
        # a^2 = gamma * P / rho
        return self.inlet_density * self.inlet_sound_speed ** 2 / self.gamma

    @property
    def barotropic_constant(self) -> float:
        return self.inlet_pressure / self.inlet_density ** self.gamma

    def pressure(self, rho):
        """Absolute pressure from density."""
        return self.barotropic_constant * np.asarray(rho, dtype=float) ** self.gamma

    def enthalpy(self, rho):
        """Specific enthalpy h = gamma/(gamma-1) * k * rho^(gamma-1)."""
        g, k = self.gamma, self.barotropic_constant
        return g / (g - 1.0) * k * np.asarray(rho, dtype=float) ** (g - 1.0)

    def density_from_gauge(self, p_gauge):
        """Invert the barotropic relation for gauge pressure samples."""
        p_abs = np.asarray(p_gauge, dtype=float) + self.inlet_pressure
        if np.any(p_abs <= 0):
            raise ValueError("gauge pressure below vacuum for this gas model")
        return (p_abs / self.barotropic_constant) ** (1.0 / self.gamma)


# ======================================================================
# field container
# ======================================================================

@dataclass
class ReferenceField:
    """Point cloud of flow samples: positions, velocities, gauge pressures."""

    positions: np.ndarray     # (N, 3)
    velocities: np.ndarray    # (N, 3)
    pressures: np.ndarray     # (N,) gauge
    geometry: NozzleGeometry | None = field(default=None, compare=False)
    gas: GasModel | None = field(default=None, compare=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.velocities = np.asarray(self.velocities, dtype=float).reshape(-1, 3)
        self.pressures = np.asarray(self.pressures, dtype=float).reshape(-1)
        n = len(self.positions)
        if len(self.velocities) != n or len(self.pressures) != n:
            raise ValueError("positions, velocities, pressures must have equal length")

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self.velocities, axis=1)


# ======================================================================
# quasi-1D subsonic isentropic solve
# ======================================================================

def _residual(gas: GasModel, rho, flux, total_enthalpy: float):
    """Energy balance h(rho) + (flux / rho)^2 / 2 - H of stations whose mass
    flux per area is ``flux``, elementwise; zero at a station's density. The
    kinetic term squares as ``q * q``."""
    q = flux / rho
    return gas.enthalpy(rho) + 0.5 * (q * q) - total_enthalpy


def _brentq_lanes(f, xa, xb, xtol: float, rtol: float) -> np.ndarray:
    """A root of ``f`` in [xa[i], xb[i]] for each lane i, where ``f``
    changes sign, by Brent's method: inverse quadratic interpolation or
    secant steps, with a bisection whenever a step would not shrink the
    bracket fast enough.

    ``f(x, lanes)`` evaluates the lanes whose indices are ``lanes`` at
    ``x``. Every lane takes the steps and the stopping test ``|bracket| / 2
    < (xtol + rtol |x|) / 2`` of SciPy's ``brentq`` (after Brent 1973, ch.
    4), each branch chosen per lane, so it returns the float ``brentq``
    returns for that lane; a lane leaves the loop when it stops. Raises
    ValueError when ``f`` has one sign at both ends of some lane and
    RuntimeError when a lane is left after 100 steps, ``brentq``'s default
    ``maxiter``.
    """
    xpre, xcur = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    lanes = np.arange(len(xpre))
    fpre, fcur = f(xpre, lanes), f(xcur, lanes)
    root = np.where(fpre == 0, xpre, xcur)
    solve = (fpre != 0) & (fcur != 0)
    if np.any(solve & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(xa) and f(xb) must have different signs")
    lanes = lanes[solve]
    if not len(lanes):
        return root
    xpre, xcur, fpre, fcur = xpre[solve], xcur[solve], fpre[solve], fcur[solve]
    xblk = fblk = spre = scur = np.zeros(len(lanes))
    # each lane computes both interpolation formulas and uses one; the other
    # may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            flip = (fpre != 0) & (fcur != 0) \
                & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)     # keep the best point in xcur
            xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                                np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                                np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():
                root[lanes[done]] = xcur[done]
                go = ~done
                if not go.any():
                    return root
                lanes = lanes[go]
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    a[go] for a in (xpre, xcur, xblk, fpre, fcur, fblk, spre,
                                    scur, delta, sbis))
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = -fcur * (fblk * dblk - fpre * dpre) \
                / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, quadratic)
            take = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) \
                & (2 * np.abs(stry) < np.minimum(np.abs(spre),
                                                 3 * np.abs(sbis) - delta))
            spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, lanes)
    raise RuntimeError("no root within 100 steps")


def _disc_pattern(rings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polar sampling of a disc, center point plus ``rings`` rings of 8k
    points: each point's ring index k (0 at the center) and the cosine and
    sine of its angle. A disc of radius r has its points at radius
    ``r * k / rings``."""
    ring, ang = [np.zeros(1)], [np.zeros(1)]
    for kk in range(1, rings + 1):
        m = 8 * kk
        ring.append(np.full(m, float(kk)))
        ang.append(2.0 * np.pi * np.arange(m) / m)
    ang = np.concatenate(ang)
    return np.concatenate(ring), np.cos(ang), np.sin(ang)


def generate_quasi1d_field(geometry: NozzleGeometry | None = None,
                           gas: GasModel | None = None,
                           inlet_speed: float = 3.38,
                           axial_stations: int = 151,
                           radial_rings: int = 6) -> ReferenceField:
    """Generate an analytic subsonic field on the duct.

    Each station's density is the subsonic root of the energy balance
    h(rho) + (mdot / (rho A))^2 / 2 = H, bracketed by the sonic and the
    stagnation densities. Every station is first checked for choking, then
    all are solved together by :func:`_brentq_lanes`, one numpy lane per
    station.

    Parameters
    ----------
    geometry, gas
        Duct shape and gas closure; defaults match the standard test duct
        (15 m long, 3 m end diameters, 1.5 m throat at x = 6 m) and
        sea-level air.
    inlet_speed : float
        Uniform axial speed on the inlet plane, m/s.
    axial_stations : int
        Number of equally spaced solve stations along the axis.
    radial_rings : int
        Rings per station; ring k holds 8k points, plus one center point.
        The default puts several nodes in every 0.5 m cell of the duct.

    Returns
    -------
    ReferenceField
        Purely axial velocities; gauge pressure 0 at the inlet, negative at
        the throat.

    Raises
    ------
    ChokedFlowError
        When the inlet is not subsonic, or naming the first station, in x
        order, that cannot pass the mass flow subsonically.
    ValueError
        On an inlet speed that is not finite and positive, or fewer than 2
        stations or 1 ring.
    """
    geometry = geometry or NozzleGeometry()
    gas = gas or GasModel()
    check("inlet_speed", inlet_speed, FINITE_POSITIVE)
    check("axial_stations", axial_stations, integers_from(2))
    check("radial_rings", radial_rings, integers_from(1))
    if inlet_speed >= gas.inlet_sound_speed:
        raise ChokedFlowError("inlet speed is not subsonic")

    rho_in = gas.inlet_density
    mdot = rho_in * inlet_speed * geometry.area(0.0)
    total_h = float(gas.enthalpy(rho_in)) + 0.5 * inlet_speed ** 2
    g, k = gas.gamma, gas.barotropic_constant

    xs = np.linspace(0.0, geometry.length, axial_stations)
    radii = geometry.radius(xs)
    area = geometry.area(xs)
    flux = mdot / area
    # the residual is least at the sonic density: where it is positive
    # there, the station has no subsonic solution
    rho_sonic = (flux * flux / (g * k)) ** (1.0 / (g + 1.0))
    choked = _residual(gas, rho_sonic, flux, total_h) > 0.0
    if choked.any():
        i = int(np.argmax(choked))
        raise ChokedFlowError(
            f"station x={xs[i]:.6g} m (area {area[i]:.6g} m^2) chokes at mass "
            f"flow {mdot:.6g} kg/s; no subsonic solution")
    # the subsonic branch is the larger density root, bounded above by the
    # stagnation density
    rho_stag = ((g - 1.0) / g * total_h / k) ** (1.0 / (g - 1.0))
    rho = _brentq_lanes(lambda r, i: _residual(gas, r, flux[i], total_h),
                        rho_sonic, np.full_like(rho_sonic, rho_stag),
                        xtol=1e-14, rtol=1e-15)
    speeds = flux / rho
    pressures = gas.pressure(rho) - gas.inlet_pressure

    # every station samples the same disc pattern, scaled to its radius
    ring, cos, sin = _disc_pattern(radial_rings)
    rr = radii[:, None] * ring / radial_rings
    n = len(ring)
    positions = np.column_stack([np.repeat(xs, n), (rr * cos).ravel(),
                                 (rr * sin).ravel()])
    velocities = np.zeros_like(positions)
    velocities[:, 0] = np.repeat(speeds, n)
    return ReferenceField(positions, velocities, np.repeat(pressures, n),
                          geometry=geometry, gas=gas)


def station_profile(fld: ReferenceField) -> np.ndarray:
    """Distinct axial stations of a field as (x, speed, gauge p) rows.

    Convenience for inspecting generator output; stations are the unique node
    x coordinates with node-averaged speed and pressure.
    """
    xs, inv = np.unique(fld.positions[:, 0], return_inverse=True)
    speed = np.bincount(inv, weights=fld.speed) / np.bincount(inv)
    pres = np.bincount(inv, weights=fld.pressures) / np.bincount(inv)
    return np.column_stack([xs, speed, pres])
