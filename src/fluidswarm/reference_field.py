"""Reference flow fields for converging-diverging duct geometries.

This module produces the target flow field that the swarm is asked to imitate.
Two routes exist:

* an analytic quasi-one-dimensional generator for a circular nozzle with a
  smooth (C1) radius profile, solving subsonic isentropic flow station by
  station, and
* a CSV loader for externally computed fields (e.g. a CFD export), validated
  against the geometry that the file's metadata line names, as the
  generator's fields record theirs.

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

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

FIELD_HEADER = "x,y,z,vx,vy,vz,p"

# 12 significant digits for every float of a field file
_FMT = "%.12g"
# rows formatted per ``%`` pass by write_table; bounds the memory of a pass
_PASS_ROWS = 1 << 16


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
        """Wall radius at axial position(s) ``x`` (clamped to the duct).

        Each half-cosine blend is evaluated only where it applies: upstream
        for x <= ``throat_x``, downstream elsewhere (NaN included). Both add
        a non-negative term to ``throat_radius``, so no radius is below it.
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
    """Write a field to CSV: a ``# k=v`` metadata line with the field's
    geometry and gas under their field names and ``cells``, the row count
    (no line when the field carries neither), then the header
    ``x,y,z,vx,vy,vz,p`` and every value to 12 significant digits. After
    the metadata line these are the bytes of ``np.savetxt`` with
    ``fmt="%.12g"``, formatted by :func:`write_table` in one pass."""
    data = np.column_stack([fld.positions, fld.velocities, fld.pressures])
    write_table(path, _duct_meta(fld.geometry, fld.gas) or None, FIELD_HEADER,
                [(",".join([_FMT] * 7), data)])


def load_field(path, geometry: NozzleGeometry | None = None,
               gas: GasModel | None = None) -> ReferenceField:
    """Read a field CSV, validating its format and its nodes against the
    duct.

    The geometry and gas come from the file's metadata line, as
    :func:`save_field` writes them; ``geometry`` and ``gas`` stand in for
    a part the file does not carry. An argument that disagrees with the
    file raises a :class:`FieldFormatError` naming the key. With a
    geometry, nodes outside the duct volume raise a
    :class:`FieldFormatError` listing the offending line numbers.
    """
    meta, lines, _widths, data = read_table(path, FIELD_HEADER)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        bad = lines[~finite][:10].tolist()
        raise FieldFormatError(f"{path}: non-finite values on lines {bad}")
    geometry, gas = (_agree(path, stored, given) for stored, given
                     in zip(_duct_from_meta(meta, path), (geometry, gas)))
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


def _agree(path, stored, given):
    """The file's part, or ``given`` when the file has none; raises naming
    the first key on which ``given`` disagrees with the file."""
    if stored is None:
        return given
    if given is not None:
        for k, v in asdict(given).items():
            if v != getattr(stored, k):
                raise FieldFormatError(f"{path}: {k}={v!r} disagrees with the "
                                       f"file's {k}={getattr(stored, k)!r}")
    return stored


# ======================================================================
# the table codec shared by the field, partition and fit files
# ======================================================================

def write_table(path, meta: dict | None, header: str, blocks) -> None:
    """Write ``header`` and the rows of ``blocks``, after a ``# k=v``
    metadata line that also declares ``cells``, the row count (no metadata
    line when ``meta`` is None).

    A block is a pair (``fmt``, ``values``): a (k, c) array of k rows and
    the ``%`` format of one row. In it ``%d`` writes an integer (exact below
    2**53), ``%r`` a float exactly, with ``repr``, and ``%.12g`` a float to
    12 significant digits. Each run of up to ``_PASS_ROWS`` rows is
    formatted in one ``%`` pass over its values, so a table of that size is
    one pass and one write.
    """
    blocks = [(fmt + "\n", np.asarray(values, dtype=float)) for fmt, values in blocks]
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            meta = {**meta, "cells": sum(len(v) for _, v in blocks)}
            fh.write("# " + " ".join(f"{k}={v!r}" for k, v in meta.items()) + "\n")
        fh.write(header + "\n")
        for fmt, values in blocks:
            for i in range(0, len(values), _PASS_ROWS):
                part = values[i:i + _PASS_ROWS]
                fh.write(fmt * len(part) % tuple(part.ravel().tolist()))


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _floats(rows: list) -> np.ndarray:
    """The values of ``rows``, comma-separated lines of one width, as a
    (rows, width) array, converted by numpy's C text reader. Raises
    ValueError on a value it rejects or on rows of unequal width."""
    return np.loadtxt(rows, dtype=float, delimiter=",", comments=None, ndmin=2)


def read_table(path, header: str) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Read ``# k=v`` metadata lines, the ``header`` line and rows of floats.

    A row has one value per header column, or at least the named ones when
    the header ends in ``...`` (a repeating tail). Blank lines are skipped.
    With metadata present, its ``cells`` must equal the row count.

    Returns the metadata, each row's line number and width, and the values
    as a (rows, widest row) float array, NaN past a row's width. The file
    is read at once, and all rows go through one C-level conversion unless
    their widths differ (then one per width). A value reads as ``float``
    reads it, bit for bit, but text only ``float`` reads (``1_0``,
    non-ASCII digits) is rejected. Raises :class:`FieldFormatError` naming
    the file and, where there is one, the line: the first in the file with
    a wrong column count or a rejected value, found by a scan only once the
    conversion has failed.
    """
    names = header.split(",")
    ragged = names[-1] == "..."
    width = len(names) - ragged
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise FieldFormatError(f"{path}: not a UTF-8 text table") from None
    if not lines[-1]:
        lines.pop()                     # what follows the final newline
    meta, lineno, line = {}, 0, ""
    for lineno, line in enumerate(lines, start=1):
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
    rows = list(map(str.strip, lines[lineno:]))
    numbers = np.arange(lineno + 1, len(lines) + 1)
    if "" in rows:
        keep = np.flatnonzero(list(map(len, rows)))
        rows, numbers = [rows[i] for i in keep], numbers[keep]
    if not rows:
        raise FieldFormatError(f"{path}: no data rows")
    try:
        values = _floats(rows)
        widths = np.full(len(rows), values.shape[1])
    except ValueError:                  # rows of unequal width, or a bad one
        values, widths = None, np.array([r.count(",") + 1 for r in rows])
    off = (widths < width) | ((widths > width) & (not ragged))
    if values is None or off.any():
        stop = int(np.argmax(off)) if off.any() else len(rows)
        values = _floats_by_width(path, rows[:stop], numbers, widths[:stop])
        if stop < len(rows):
            raise FieldFormatError(f"{path}:{numbers[stop]}: expected "
                                   f"{width} columns, got {widths[stop]}")
    if meta and meta.get("cells") != len(rows):
        raise FieldFormatError(f"{path}: metadata declares cells="
                               f"{meta.get('cells')}, found {len(rows)} cell rows")
    return meta, numbers, widths, values


def _floats_by_width(path, rows, numbers, widths) -> np.ndarray:
    """The rows converted one width at a time, NaN past a row's width;
    raises for the first row with a value the conversion rejects."""
    values = np.full((len(rows), widths.max(initial=0)), np.nan)
    bad = len(rows)
    for w in np.unique(widths).tolist():
        idx = np.flatnonzero(widths == w)
        group = [rows[i] for i in idx]
        try:
            values[idx, :w] = _floats(group)
        except ValueError:
            bad = min(bad, int(idx[_first_rejected(group)]))
    if bad < len(rows):
        raise FieldFormatError(f"{path}:{numbers[bad]}: {_reason(rows[bad])}")
    return values


def _first_rejected(rows: list) -> int:
    """Index of the first of ``rows`` (of one width) whose values
    :func:`_floats` rejects, by halving: about one conversion of them all."""
    first = 0
    while len(rows) > 1:
        half = len(rows) // 2
        try:
            _floats(rows[:half])
        except ValueError:
            rows = rows[:half]
        else:
            first, rows = first + half, rows[half:]
    return first


def _reason(row: str) -> str:
    """Why the conversion rejected a row: ``float``'s message on the first
    value ``float`` cannot read either, else the same words on the first
    value only the conversion rejects."""
    toks = row.split(",")
    for tok in toks:
        try:
            float(tok)
        except ValueError as exc:
            return str(exc)
    for tok in toks:
        try:
            _floats([tok])
        except ValueError:
            break
    return f"could not convert string to float: {tok!r}"


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


def _duct_meta(geometry: NozzleGeometry | None, gas: GasModel | None) -> dict:
    """The geometry and gas as metadata, under their field names; a part
    that is None gives no key."""
    meta = {}
    for part in (geometry, gas):
        if part is not None:
            meta.update((k, float(v)) for k, v in asdict(part).items())
    return meta


def _duct_from_meta(meta: dict, path) -> tuple:
    """Inverse of :func:`_duct_meta`: (geometry, gas), each None when none
    of its keys is present. Raises on a part with only some of its keys or
    with values its class rejects."""
    parts = []
    for cls in (NozzleGeometry, GasModel):
        keys = [f.name for f in fields(cls)]
        missing = [k for k in keys if k not in meta]
        if 0 < len(missing) < len(keys):
            raise FieldFormatError(f"{path}: missing {cls.__name__} metadata {missing}")
        try:
            parts.append(None if missing else cls(**{k: float(meta[k]) for k in keys}))
        except ValueError as exc:
            raise FieldFormatError(f"{path}: {cls.__name__} metadata: {exc}") from None
    return tuple(parts)


def lattice_meta(grid) -> dict:
    """Metadata of a lattice: edge, origin, dims, and the geometry and gas
    (under their field names) when the grid carries them."""
    return {"edge_length": float(grid.edge_length),
            **dict(zip(_ORIGIN_KEYS, map(float, grid.origin))),
            **dict(zip(_DIM_KEYS, map(int, grid.dims))),
            **_duct_meta(grid.geometry, grid.gas)}


def lattice_from_meta(meta: dict, path="lattice metadata"):
    """Inverse of :func:`lattice_meta`: (origin, edge_length, dims, geometry,
    gas), geometry and gas None when none of their keys is present."""
    missing = [k for k in ("edge_length", *_ORIGIN_KEYS, *_DIM_KEYS) if k not in meta]
    if missing:
        raise FieldFormatError(f"{path}: missing lattice metadata {missing}")
    dims = tuple(meta[k] for k in _DIM_KEYS)
    if not all(isinstance(d, int) and d >= 1 for d in dims):
        raise FieldFormatError(f"{path}: lattice dims {dims} are not positive integers")
    return (np.array([float(meta[k]) for k in _ORIGIN_KEYS]),
            float(meta["edge_length"]), dims, *_duct_from_meta(meta, path))


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
    rho = _brentq(resid, rho_sonic, rho_stag, xtol=1e-14, rtol=1e-15)
    return rho, flux / rho


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of ``f`` in [xa, xb], where ``f`` changes sign, by Brent's
    method: inverse quadratic interpolation or secant steps, with a bisection
    whenever a step would not shrink the bracket fast enough. The steps and
    the stopping test ``|bracket| / 2 < (xtol + rtol |x|) / 2`` are those of
    SciPy's ``brentq`` (after Brent 1973, ch. 4), so it returns the same
    float. Raises ValueError when ``f`` has one sign at both ends and
    RuntimeError after ``maxiter`` steps.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):       # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"no root within {maxiter} steps")


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
    radii = geometry.radius(xs)
    speeds, pressures = [], []
    for x, area in zip(xs, geometry.area(xs).tolist()):
        rho, v = _solve_station(area, mdot, total_h, gas, float(x))
        speeds.append(v)
        pressures.append(float(gas.pressure(rho)) - gas.inlet_pressure)

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
