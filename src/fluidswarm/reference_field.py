"""Reference flow fields for converging-diverging duct geometries.

This module produces the target flow field that the swarm is asked to imitate.
Two routes exist:

* an analytic quasi-one-dimensional generator for a circular nozzle with a
  smooth (C1) radius profile, solving subsonic isentropic flow station by
  station, and
* a CSV loader for externally computed fields (e.g. a CFD export), validated
  against the same geometry.

Conventions
-----------
Coordinates are meters, x along the duct axis (inlet at x = 0), y/z transverse.
Velocities are m/s. Pressures are *gauge* relative to the inlet static
pressure, so the inlet plane reads 0 Pa and the throat goes negative.

The analytic generator is an area-mean model: every node at an axial station
carries that station's one-dimensional solution, with zero transverse
velocity. Point fields from a full Navier-Stokes solve will show higher peaks
on the axis than this model's area mean; ingest such fields via
:func:`load_field` rather than trying to coax them out of the generator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.optimize import brentq

FIELD_HEADER = "x,y,z,vx,vy,vz,p"

# 12 significant digits for every float written to disk
_FMT = "%.12g"


class ChokedFlowError(ValueError):
    """Raised when the requested mass flow cannot pass the duct subsonically."""


class FieldFormatError(ValueError):
    """Raised when a field, partition or fit file does not conform to its
    wire format."""


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

    length: float = 15.0
    inlet_radius: float = 1.5
    outlet_radius: float = 1.5
    throat_radius: float = 0.75
    throat_x: float = 6.0

    def __post_init__(self):
        if not (0.0 < self.throat_x < self.length):
            raise ValueError("throat_x must lie strictly inside (0, length)")
        if min(self.inlet_radius, self.outlet_radius, self.throat_radius) <= 0:
            raise ValueError("radii must be positive")
        if self.throat_radius > min(self.inlet_radius, self.outlet_radius):
            raise ValueError("throat_radius must not exceed the end radii")

    def radius(self, x):
        """Wall radius at axial position(s) ``x`` (clamped to the duct)."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.length)
        up = self.throat_radius + (self.inlet_radius - self.throat_radius) \
            * 0.5 * (1.0 + np.cos(np.pi * x / self.throat_x))
        dn = self.throat_radius + (self.outlet_radius - self.throat_radius) \
            * 0.5 * (1.0 - np.cos(np.pi * (x - self.throat_x) / (self.length - self.throat_x)))
        return np.where(x <= self.throat_x, up, dn)

    def area(self, x):
        """Cross-sectional area at ``x``."""
        return np.pi * self.radius(x) ** 2

    @property
    def max_radius(self) -> float:
        return max(self.inlet_radius, self.outlet_radius)

    def contains(self, positions, tol: float = 1e-9):
        """Boolean mask: which points lie inside the duct volume."""
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

    gamma: float = 1.4
    inlet_density: float = 1.225
    inlet_sound_speed: float = 340.0

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
# field container + wire format
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


def save_field(fld: ReferenceField, path) -> None:
    """Write a field to CSV with header ``x,y,z,vx,vy,vz,p`` and 12
    significant digits, which cost the study less time than exact floats."""
    data = np.column_stack([fld.positions, fld.velocities, fld.pressures])
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header=FIELD_HEADER, comments="")


def load_field(path, geometry: NozzleGeometry | None = None,
               gas: GasModel | None = None) -> ReferenceField:
    """Read a field CSV, validating format and (optionally) geometry.

    With ``geometry`` supplied, nodes outside the duct volume raise a
    :class:`FieldFormatError` listing the offending line numbers.
    """
    _meta, lines, rows = read_table(path, FIELD_HEADER)
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        bad = lines[~finite][:10].tolist()
        raise FieldFormatError(f"{path}: non-finite values on lines {bad}")
    fld = ReferenceField(data[:, 0:3], data[:, 3:6], data[:, 6],
                         geometry=geometry, gas=gas)
    if geometry is not None:
        inside = geometry.contains(fld.positions)
        if not np.all(inside):
            bad = lines[~inside][:10].tolist()
            raise FieldFormatError(
                f"{path}: {int((~inside).sum())} node(s) outside the duct "
                f"volume, first offending lines {bad}")
    return fld


# ======================================================================
# the table codec shared by the field, partition and fit files
# ======================================================================

def write_table(path, meta: dict, header: str, rows) -> None:
    """Write a ``# k=v`` metadata line that also declares ``cells``, the row
    count, then ``header`` and ``rows``. Values must be Python ints and
    floats; each is written with ``repr``, so it reads back exactly."""
    lines = [",".join(map(repr, row)) for row in rows]
    meta = {**meta, "cells": len(lines)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v!r}" for k, v in meta.items()) + "\n")
        fh.write("\n".join([header, *lines]) + "\n")


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_table(path, header: str) -> tuple[dict, np.ndarray, list]:
    """Read ``# k=v`` metadata lines, the ``header`` line and rows of floats.

    A row has one value per header column, or at least the named ones when
    the header ends in ``...`` (a repeating tail). With metadata present,
    its ``cells`` must equal the row count. Returns the metadata, the rows'
    line numbers and the rows; raises :class:`FieldFormatError` naming the
    file and, where there is one, the line.
    """
    names = header.split(",")
    ragged = names[-1] == "..."
    width = len(names) - ragged
    meta, lines, rows = {}, [], []
    with open(path, "r", encoding="utf-8") as fh:
        lineno, line = 0, ""
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line.startswith("#"):
                break
            for tok in line[1:].split():
                key, _, value = tok.partition("=")
                try:
                    meta[key] = _number(value)
                except ValueError:
                    raise FieldFormatError(
                        f"{path}:{lineno}: bad metadata entry '{tok}'") from None
        if line != header:
            raise FieldFormatError(
                f"{path}:{lineno}: expected header '{header}', got '{line}'")
        for lineno, line in enumerate(fh, start=lineno + 1):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) < width or (len(parts) > width and not ragged):
                raise FieldFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise FieldFormatError(f"{path}:{lineno}: {exc}") from None
            lines.append(lineno)
    if not rows:
        raise FieldFormatError(f"{path}: no data rows")
    if meta and meta.get("cells") != len(rows):
        raise FieldFormatError(f"{path}: metadata declares cells="
                               f"{meta.get('cells')}, found {len(rows)} cell rows")
    return meta, np.asarray(lines), rows


def cell_index(path, lines, triples, dims) -> np.ndarray:
    """Flat cell indices of ``(jx, jy, jz)`` rows; raises on an index off
    the lattice or on a cell with two rows."""
    t = np.asarray(triples)
    ok = ((t == np.floor(t)) & (t >= 0) & (t < dims)).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise FieldFormatError(
            f"{path}:{lines[i]}: cell {t[i].tolist()} is off the {dims} lattice")
    flat = np.ravel_multi_index(t.T.astype(np.int64), dims)
    first = np.unique(flat, return_index=True)[1]
    if len(first) < len(flat):
        i = int(np.setdiff1d(np.arange(len(flat)), first)[0])
        raise FieldFormatError(f"{path}:{lines[i]}: repeated cell {t[i].tolist()}")
    return flat


_ORIGIN_KEYS = ("origin_x", "origin_y", "origin_z")
_DIM_KEYS = ("nx", "ny", "nz")


def lattice_meta(grid) -> dict:
    """Metadata of a lattice: edge, origin, dims, and the geometry and gas
    (under their field names) when the grid carries them."""
    meta = {"edge_length": float(grid.edge_length),
            **dict(zip(_ORIGIN_KEYS, map(float, grid.origin))),
            **dict(zip(_DIM_KEYS, map(int, grid.dims)))}
    for part in (grid.geometry, grid.gas):
        if part is not None:
            meta.update((k, float(v)) for k, v in asdict(part).items())
    return meta


def lattice_from_meta(meta: dict, path="lattice metadata"):
    """Inverse of :func:`lattice_meta`: (origin, edge_length, dims, geometry,
    gas), geometry and gas None when none of their keys is present."""
    missing = [k for k in ("edge_length", *_ORIGIN_KEYS, *_DIM_KEYS) if k not in meta]
    if missing:
        raise FieldFormatError(f"{path}: missing lattice metadata {missing}")
    dims = tuple(meta[k] for k in _DIM_KEYS)
    if not all(isinstance(d, int) and d >= 1 for d in dims):
        raise FieldFormatError(f"{path}: lattice dims {dims} are not positive integers")
    parts = []
    for cls in (NozzleGeometry, GasModel):
        keys = [f.name for f in fields(cls)]
        missing = [k for k in keys if k not in meta]
        if 0 < len(missing) < len(keys):
            raise FieldFormatError(f"{path}: missing {cls.__name__} metadata {missing}")
        parts.append(None if missing else cls(**{k: float(meta[k]) for k in keys}))
    return (np.array([float(meta[k]) for k in _ORIGIN_KEYS]),
            float(meta["edge_length"]), dims, *parts)


# ======================================================================
# quasi-1D subsonic isentropic solve
# ======================================================================

def _solve_station(area: float, mdot: float, total_enthalpy: float,
                   gas: GasModel, x: float) -> tuple[float, float]:
    """Subsonic (rho, v) at one station from mass and enthalpy conservation.

    Solves h(rho) + (mdot / (rho A))^2 / 2 = H for the subsonic branch
    (the larger density root). Raises :class:`ChokedFlowError` when the duct
    cannot pass ``mdot`` subsonically at this area.
    """
    g, k = gas.gamma, gas.barotropic_constant
    flux = mdot / area

    def resid(rho):
        return gas.enthalpy(rho) + 0.5 * (flux / rho) ** 2 - total_enthalpy

    # residual is minimized exactly at the sonic density
    rho_sonic = (flux ** 2 / (g * k)) ** (1.0 / (g + 1.0))
    if resid(rho_sonic) > 0.0:
        raise ChokedFlowError(
            f"station x={x:.6g} m (area {area:.6g} m^2) chokes at mass flow "
            f"{mdot:.6g} kg/s; no subsonic solution")
    # stagnation density bounds the subsonic branch from above
    rho_stag = ((g - 1.0) / g * total_enthalpy / k) ** (1.0 / (g - 1.0))
    rho = brentq(resid, rho_sonic, rho_stag, xtol=1e-14, rtol=1e-15)
    return rho, flux / rho


def _disc_offsets(radius: float, rings: int) -> np.ndarray:
    """Polar sampling of a disc: center point plus ``rings`` rings of 8k points."""
    pts = [(0.0, 0.0)]
    for kk in range(1, rings + 1):
        rr = radius * kk / rings
        m = 8 * kk
        ang = 2.0 * np.pi * np.arange(m) / m
        pts.extend(zip(rr * np.cos(ang), rr * np.sin(ang)))
    return np.asarray(pts)


def generate_quasi1d_field(geometry: NozzleGeometry | None = None,
                           gas: GasModel | None = None,
                           inlet_speed: float = 3.38,
                           axial_stations: int = 151,
                           radial_rings: int = 6) -> ReferenceField:
    """Generate an analytic subsonic field on the duct.

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
    """
    geometry = geometry or NozzleGeometry()
    gas = gas or GasModel()
    if inlet_speed <= 0:
        raise ValueError("inlet_speed must be positive")
    if inlet_speed >= gas.inlet_sound_speed:
        raise ChokedFlowError("inlet speed is not subsonic")
    if axial_stations < 2 or radial_rings < 1:
        raise ValueError("need at least 2 stations and 1 ring")

    rho_in = gas.inlet_density
    mdot = rho_in * inlet_speed * geometry.area(0.0)
    total_h = float(gas.enthalpy(rho_in)) + 0.5 * inlet_speed ** 2

    xs = np.linspace(0.0, geometry.length, axial_stations)
    positions, velocities, pressures = [], [], []
    for x in xs:
        rho, v = _solve_station(float(geometry.area(x)), mdot, total_h, gas, float(x))
        p_gauge = float(gas.pressure(rho)) - gas.inlet_pressure
        offs = _disc_offsets(float(geometry.radius(x)), radial_rings)
        n = len(offs)
        pos = np.column_stack([np.full(n, x), offs[:, 0], offs[:, 1]])
        vel = np.column_stack([np.full(n, v), np.zeros(n), np.zeros(n)])
        positions.append(pos)
        velocities.append(vel)
        pressures.append(np.full(n, p_gauge))

    return ReferenceField(
        np.vstack(positions), np.vstack(velocities), np.concatenate(pressures),
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
