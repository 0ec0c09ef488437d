"""Wire formats: every file one pipeline stage writes and a later one reads.

Field, partition and fit files are CSV tables in one codec: a ``# k=v``
metadata line (the duct; partition and fit files add the lattice, fit files
the fit's record), a header line and rows of numbers. A run is one binary
record, ``trace.npz``. Every stored value is read through its declared
domain, and every loader raises :class:`FieldFormatError` naming the file
and, where there is one, the line. This module imports the types it
encodes; none of them imports it.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, fields

import numpy as np

from .partition import ControlVolumeGrid
from .primitives import (FINITE, FINITE_NONNEGATIVE, FINITE_POSITIVE, SEED,
                         check, declared, integers_from)
from .reference_field import GasModel, NozzleGeometry, ReferenceField
from .swarm_sim import (EVENT_KINDS, INJECT, EventTable, FrameChunk,
                        FrameTable, SimConfig, SimulationTrace, frame_columns)
from .velocity_fit import SET_SIZE, FitConfig, GridFit
from .velocity_plant import PlantParams

FIELD_HEADER = "x,y,z,vx,vy,vz,p"
PARTITION_HEADER = "jx,jy,jz,cx,cy,cz,inside,node_count,vtx,vty,vtz,pt"
FIT_HEADER = "jx,jy,jz,n_star,v1x,v1y,v1z,..."

# 12 significant digits: every float of a field file and of the reports
FLOAT_FMT = "%.12g"
# integers in decimal, floats with repr: every value reads back exactly
_PARTITION_FMT = ",".join(["%d"] * 3 + ["%r"] * 3 + ["%d"] * 2 + ["%r"] * 4)
_FIT_FMT = ",".join(["%d"] * 4 + ["%r"] * (3 * SET_SIZE))
# rows formatted per ``%`` pass by write_table; bounds the memory of a pass
_PASS_ROWS = 1 << 16


class FieldFormatError(ValueError):
    """Raised when a field, partition, fit or run file does not conform to
    its wire format."""


# ======================================================================
# the table codec shared by the field, partition and fit files
# ======================================================================

def write_table(path, meta: dict | None, header: str, values,
                fmt: str | None = None) -> None:
    """Write ``header`` and the rows of ``values``, a (k, c) array, after a
    ``# k=v`` metadata line that also declares ``cells``, the row count (no
    metadata line when ``meta`` is None).

    ``fmt`` is the ``%`` format of one row, by default ``FLOAT_FMT`` for
    every column. In it ``%d`` writes an integer (exact below 2**53), ``%r``
    a float exactly, with ``repr``, and ``%.12g`` a float to 12 significant
    digits. Each run of up to ``_PASS_ROWS`` rows is formatted in one ``%``
    pass over its values, so a table of that size is one pass and one write.
    """
    values = np.asarray(values, dtype=float)
    fmt = (fmt or ",".join([FLOAT_FMT] * values.shape[1])) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            meta = {**meta, "cells": len(values)}
            fh.write("# " + " ".join(f"{k}={v!r}" for k, v in meta.items()) + "\n")
        fh.write(header + "\n")
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


def read_table(path, header: str,
               width: int | None = None) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read ``# k=v`` metadata lines, the ``header`` line and rows of floats.

    Every row has ``width`` values, by default one per header column. Blank
    lines are skipped. With metadata present, its ``cells`` must equal the
    row count.

    Returns the metadata, each row's line number and the values as a
    (rows, width) float array. The file is read at once, and all rows go
    through one C-level conversion. A value reads as ``float`` reads it,
    bit for bit, but text only ``float`` reads (``1_0``, non-ASCII digits)
    is rejected. Raises :class:`FieldFormatError` naming the file and,
    where there is one, the line: the first in the file with a wrong column
    count or a rejected value, found by halving only once the conversion
    has failed.
    """
    if width is None:
        width = header.count(",") + 1
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
    except ValueError:                  # a row of another width, or a bad value
        values = None
    if values is None or values.shape[1] != width:
        i = _first_bad(rows, width)
        got = rows[i].count(",") + 1
        raise FieldFormatError(f"{path}:{numbers[i]}: " + (
            _reason(rows[i]) if got == width
            else f"expected {width} columns, got {got}"))
    if meta and meta.get("cells") != len(rows):
        raise FieldFormatError(f"{path}: metadata declares cells="
                               f"{meta.get('cells')}, found {len(rows)} rows")
    return meta, numbers, values


def _first_bad(rows: list, width: int) -> int:
    """Index of the first of ``rows`` that holds other than ``width`` values
    or a value :func:`_floats` rejects, by halving: about one conversion of
    them all. There must be one."""
    first = 0
    while len(rows) > 1:
        half = len(rows) // 2
        try:
            ok = _floats(rows[:half]).shape[1] == width
        except ValueError:
            ok = False
        first, rows = (first + half, rows[half:]) if ok else (first, rows[:half])
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


def _cell_table(path, header: str, width: int | None = None) -> tuple:
    """A partition or fit table: its metadata, its lattice
    (:func:`lattice_from_meta`), and each row's flat cell index, line and
    values, in ascending cell order."""
    meta, lines, data = read_table(path, header, width)
    grid = lattice_from_meta(meta, path)
    cells = cell_index(path, lines, data[:, :3], grid.dims)
    order = np.argsort(cells)
    return meta, grid, cells[order], lines[order], data[order]


# ======================================================================
# stored values and the lattice, duct and fit metadata
# ======================================================================

def read_fields(spec, values: dict, path, label: str, exact: bool = True):
    """The ``label`` part of the stored ``values`` of file ``path``, read as
    ``spec`` declares it: a dataclass, whose instance is returned, or a
    mapping of names to domains, for which the checked values are (a list
    stands for a tuple). Raises :class:`FieldFormatError` on a missing
    name, on other keys when ``exact``, and on a value the spec refuses."""
    domains = spec if isinstance(spec, dict) else declared(spec)
    if exact and set(values) != set(domains):
        raise FieldFormatError(f"{path}: {label} fields differ: "
                               f"{sorted(set(values) ^ set(domains))}")
    missing = [k for k in domains if k not in values]
    if missing:
        raise FieldFormatError(f"{path}: missing {label} {missing}")
    values = {k: tuple(values[k]) if isinstance(values[k], list)
              else values[k] for k in domains}
    try:
        if isinstance(spec, dict):
            return {k: check(k, values[k], d) for k, d in domains.items()}
        return spec(**values)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {label}: {exc}") from None


_ORIGIN_KEYS = ("origin_x", "origin_y", "origin_z")
_DIM_KEYS = ("nx", "ny", "nz")
_LATTICE = {"edge_length": FINITE_POSITIVE,
            **dict.fromkeys(_ORIGIN_KEYS, FINITE),
            **dict.fromkeys(_DIM_KEYS, integers_from(1))}
_FIT_META = {**declared(FitConfig), "pressure_offset": FINITE}


def _duct_meta(geometry: NozzleGeometry | None, gas: GasModel | None) -> dict:
    """The geometry and gas as metadata, under their field names; a part
    that is None gives no key."""
    meta = {}
    for part in (geometry, gas):
        if part is not None:
            meta.update((k, float(v)) for k, v in asdict(part).items())
    return meta


def _duct_from_meta(meta: dict, path, required=()) -> tuple:
    """Inverse of :func:`_duct_meta`: (geometry, gas), each None when none
    of its keys is present and its class is not in ``required``. Raises on
    a part with only some of its keys and on values its class rejects."""
    return tuple(read_fields(cls, meta, path, f"{cls.__name__} metadata",
                             exact=False)
                 if cls in required or any(f.name in meta for f in fields(cls))
                 else None for cls in (NozzleGeometry, GasModel))


def lattice_meta(grid: ControlVolumeGrid) -> dict:
    """Metadata of a lattice: edge, origin, dims, and the geometry and gas
    (under their field names; a grid without gas gives no gas keys)."""
    return {"edge_length": float(grid.edge_length),
            **dict(zip(_ORIGIN_KEYS, map(float, grid.origin))),
            **dict(zip(_DIM_KEYS, map(int, grid.dims))),
            **_duct_meta(grid.geometry, grid.gas)}


def lattice_from_meta(meta: dict, path="lattice metadata") -> ControlVolumeGrid:
    """Inverse of :func:`lattice_meta`: the lattice alone, with no cell
    inside and every target NaN (gas None when none of its keys is
    present). Raises :class:`FieldFormatError` naming the key on a missing
    lattice or ``NozzleGeometry`` key or a value outside its domain: a
    finite origin, a finite, positive edge and dimensions that are integers
    of at least 1."""
    lattice = read_fields(_LATTICE, meta, path, "lattice metadata",
                          exact=False)
    return ControlVolumeGrid.empty(
        np.array([lattice[k] for k in _ORIGIN_KEYS], dtype=float),
        float(lattice["edge_length"]), tuple(lattice[k] for k in _DIM_KEYS),
        *_duct_from_meta(meta, path, required=(NozzleGeometry,)))


# ======================================================================
# field files
# ======================================================================

def save_field(fld: ReferenceField, path) -> None:
    """Write a field to CSV: a ``# k=v`` metadata line with the field's
    geometry and gas under their field names and ``cells``, the row count
    (no line when the field carries neither), then the header
    ``x,y,z,vx,vy,vz,p`` and every value to 12 significant digits. After
    the metadata line these are the bytes of ``np.savetxt`` with
    ``fmt="%.12g"``, formatted by :func:`write_table` in one pass."""
    data = np.column_stack([fld.positions, fld.velocities, fld.pressures])
    write_table(path, _duct_meta(fld.geometry, fld.gas) or None, FIELD_HEADER,
                data)


def load_field(path) -> ReferenceField:
    """Read a field CSV, validating its format and its nodes against the
    duct.

    The geometry and gas come from the file's metadata line, as
    :func:`save_field` writes them; a part the file does not carry is
    None. With a geometry, nodes outside the duct volume raise a
    :class:`FieldFormatError` listing the offending line numbers.
    """
    meta, lines, data = read_table(path, FIELD_HEADER)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        bad = lines[~finite][:10].tolist()
        raise FieldFormatError(f"{path}: non-finite values on lines {bad}")
    geometry, gas = _duct_from_meta(meta, path)
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
# partition and fit files
# ======================================================================

def save_partition(grid: ControlVolumeGrid, path) -> None:
    """Write the per-cell table exactly; lattice, geometry and gas ride in
    the metadata line, so :func:`load_partition` returns an equal grid."""
    m = grid.num_cells
    data = np.column_stack([grid.unravel(np.arange(m)), grid.centers(),
                            grid.inside, grid.node_count, grid.v_target,
                            grid.p_target])
    write_table(path, lattice_meta(grid), PARTITION_HEADER, data,
                _PARTITION_FMT)


def load_partition(path) -> ControlVolumeGrid:
    """Read a partition table written by :func:`save_partition`. Raises
    :class:`FieldFormatError` as :func:`read_table` does, on missing
    metadata, unless every lattice cell has exactly one row, and on a
    pressure target below vacuum for the file's gas."""
    _, grid, _, _, data = _cell_table(path, PARTITION_HEADER)
    if len(data) != grid.num_cells:
        raise FieldFormatError(
            f"{path}: expected {grid.num_cells} cell rows, got {len(data)}")
    grid.inside, grid.node_count = data[:, 6] == 1, data[:, 7].astype(np.int64)
    grid.v_target, grid.p_target = data[:, 8:11].copy(), data[:, 11].copy()
    if grid.gas is not None:
        occ = grid.node_count > 0
        try:
            grid.rho_target[occ] = grid.gas.density_from_gauge(
                grid.p_target[occ])
        except ValueError as exc:
            raise FieldFormatError(f"{path}: {exc}") from None
    return grid


def save_fit(fit: GridFit, grid: ControlVolumeGrid, path) -> None:
    """Write the fit exactly: one row per cell, its lattice index, the set
    size (the ``n_star`` column, always ``SET_SIZE``) and three columns per
    velocity; the lattice rides in the metadata line."""
    meta = {"agent_mass": float(fit.config.agent_mass),
            "rng_seed": int(fit.config.rng_seed),
            "pressure_offset": float(fit.pressure_offset), **lattice_meta(grid)}
    k = len(fit.cells)
    rows = np.column_stack([grid.unravel(fit.cells), np.full(k, SET_SIZE),
                            fit.velocities.reshape(k, 3 * SET_SIZE)])
    write_table(path, meta, FIT_HEADER, rows, _FIT_FMT)


def load_fit(path) -> tuple[GridFit, dict]:
    """Read a fit table; returns the fit and its metadata mapping. Raises
    :class:`FieldFormatError` as :func:`read_table` does (a row must hold
    ``SET_SIZE`` velocities), on missing fit metadata or a value outside
    its domain (``FitConfig``'s, and a finite ``pressure_offset``), on a
    cell off the lattice or with two rows, and on a row whose set size is
    not ``SET_SIZE``."""
    meta, _, cells, lines, data = _cell_table(path, FIT_HEADER,
                                              width=4 + 3 * SET_SIZE)
    values = read_fields(_FIT_META, meta, path, "fit metadata", exact=False)
    off = data[:, 3] != SET_SIZE
    if off.any():
        i = int(np.argmin(np.where(off, lines, np.inf)))   # first in the file
        raise FieldFormatError(f"{path}:{lines[i]}: set size {data[i, 3]:g}, "
                               f"expected {SET_SIZE}")
    config = FitConfig(float(values["agent_mass"]), values["rng_seed"])
    fit = GridFit(cells, data[:, 4:].reshape(-1, SET_SIZE, 3),
                  float(values["pressure_offset"]), config)
    return fit, meta


def grid_from_fit(fit: GridFit, meta: dict) -> ControlVolumeGrid:
    """The lattice of a fit file with the fitted cells inside: what a
    simulation reads. Every target stays NaN, so the result suits
    simulation, not scoring."""
    grid = lattice_from_meta(meta)
    grid.inside[fit.cells] = True
    grid.node_count[fit.cells] = 1
    return grid


# ======================================================================
# run record
# ======================================================================

RUN_FILE = "trace.npz"
RUN_FORMAT = 12
TRAJ_COLUMNS = {"traj_ids": (np.int64, ()), "traj_pos": (np.float64, (3,)),
                "traj_vel": (np.float64, (3,))}
# the members of one layout in every run, in file order; the frame table's
# columns follow them, at the widths ``frame_columns`` gives for the run's
# lattice and the agents it injects
RUN_COLUMNS = {"frame_t": (np.float64, ()), "frame_offsets": (np.int64, ()),
               "traj_t": (np.float64, ()), "traj_offsets": (np.int64, ()),
               **{"event_" + f.name: (np.int64, ()) for f in fields(EventTable)},
               **TRAJ_COLUMNS}
RUN_KEYS = ("meta", *RUN_COLUMNS, *FrameChunk._fields)
META_KEYS = ("format", "config", "plant", "injection_rate", "batch_size",
             "lattice", "fit")
FIT_KEYS = {"rng_seed": SEED, "set_size": integers_from(1),
            "pressure_offset": FINITE}
RUN_NUMBERS = {"injection_rate": FINITE_NONNEGATIVE,       # top-level meta
               "batch_size": integers_from(1)}


def _write_parts(zf, name, parts, dtype, row) -> None:
    """One ``.npy`` member holding the rows of ``parts`` one after another:
    the header for the full length, then each part in turn, so no column is
    ever joined in memory. The bytes are those ``np.lib.format.write_array``
    writes for the joined column."""
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
              "fortran_order": False,
              "shape": (sum(len(p) for p in parts), *row)}
    with zf.open(name + ".npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for part in parts:
            fh.write(np.ascontiguousarray(part, dtype=dtype))


def save_run(trace: SimulationTrace, grid: ControlVolumeGrid, outdir) -> None:
    """Write the whole trace, flown on ``grid``, to ``outdir/trace.npz``
    (binary, uncompressed).

    The frame table's columns, at the table's own widths, and the
    trajectory snapshots are flat columns cut by offsets, streamed chunk by
    chunk and snapshot by snapshot; the event table is one column per
    field, and config, plant, the lattice (:func:`lattice_meta` of
    ``grid``) and fit are one JSON string; counts are not stored.
    :func:`load_run` reads back a trace equal to this one, and that
    lattice.
    """
    os.makedirs(outdir, exist_ok=True)
    meta = {"format": RUN_FORMAT, "config": asdict(trace.config),
            "plant": asdict(trace.plant),
            "injection_rate": trace.injection_rate,
            "batch_size": trace.batch_size, "lattice": lattice_meta(grid),
            "fit": trace.fit}
    snaps = trace.trajectories
    parts = {"frame_t": [trace.frame_t],
             "frame_offsets": [trace.frames.offsets],
             "traj_t": [[s[0] for s in snaps]],
             "traj_offsets": [np.cumsum([0] + [len(s[1]) for s in snaps])]}
    parts.update(("event_" + k, [v]) for k, v in vars(trace.events).items())
    parts.update((name, [getattr(c, name) for c in trace.frames])
                 for name in FrameChunk._fields)
    parts.update((name, [s[i] for s in snaps])
                 for i, name in enumerate(TRAJ_COLUMNS, start=1))
    with zipfile.ZipFile(os.path.join(outdir, RUN_FILE), "w") as zf:
        with zf.open("meta.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array(fh, np.array(json.dumps(meta)),
                                      allow_pickle=False)
        for name, layout in {**RUN_COLUMNS, **trace.frames.columns}.items():
            _write_parts(zf, name, parts[name], *layout)


def _check_offsets(columns: list, offsets: np.ndarray, n: int) -> None:
    """Raise unless ``offsets`` cut the flat ``columns`` into ``n`` parts."""
    if (len(offsets) != n + 1 or offsets[0] != 0
            or np.any(np.diff(offsets) < 0)
            or any(len(c) != offsets[-1] for c in columns)):
        raise FieldFormatError(f"{RUN_FILE}: column lengths disagree with "
                               "offsets")


def _check_layout(a: dict, layout: dict) -> None:
    """Raise unless each member of ``layout`` has its dtype and row
    shape."""
    for name, (dtype, row) in layout.items():
        if a[name].dtype != dtype or a[name].shape[1:] != row \
                or a[name].ndim != 1 + len(row):
            shape = ", ".join(["rows", *map(str, row)])
            raise FieldFormatError(f"{RUN_FILE}: {name} is not "
                                   f"{np.dtype(dtype)} of shape ({shape})")


def load_run(rundir) -> tuple[SimulationTrace, dict]:
    """Read back the trace ``save_run`` wrote to ``rundir``, and the
    lattice it flew (the ``lattice_meta`` of its grid).

    Raises :class:`FieldFormatError` on a file that is not a zip archive of
    ``.npy`` members, a missing key, a ``meta`` member that is not one
    string holding a JSON object, another format version, a config, plant,
    lattice or fit that is not a JSON object, a lattice that
    :func:`lattice_from_meta` rejects, a config, plant or fit whose keys
    are not its fields or that holds a value outside its domain
    (``FIT_KEYS`` for the fit), an injection rate or batch size outside its
    ``RUN_NUMBERS`` domain, a column of another dtype or row shape than
    ``RUN_COLUMNS`` gives or, for a frame column, than ``frame_columns``
    gives for the lattice and the run's ``inject`` events, a cell count
    below 1, a cell off the lattice, columns whose lengths disagree with
    each other or with their offsets, a ``sumv2`` whose length is not the
    number of rows of two or more agents, an event kind outside
    ``EVENT_KINDS``, or an event frame outside the run.
    """
    with open(os.path.join(rundir, RUN_FILE), "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise FieldFormatError(f"{RUN_FILE} is not a run archive (a zip "
                                   "of .npy members)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                a = {k: npz[k] for k in RUN_KEYS if k in npz.files}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise FieldFormatError(f"{RUN_FILE}: {exc}") from None
    missing = sorted(set(RUN_KEYS) - set(a))
    if missing:
        raise FieldFormatError(f"{RUN_FILE}: missing {missing}")
    if a["meta"].dtype.kind != "U" or a["meta"].ndim != 0:
        raise FieldFormatError(f"{RUN_FILE}: meta is not one JSON string")
    try:
        meta = json.loads(a["meta"].item())
    except ValueError as exc:
        raise FieldFormatError(f"{RUN_FILE}: meta is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise FieldFormatError(f"{RUN_FILE}: meta is not a JSON object")
    if meta.get("format") != RUN_FORMAT:
        raise FieldFormatError(f"{RUN_FILE}: format {meta.get('format')!r}, "
                               f"expected {RUN_FORMAT}")
    missing = sorted(set(META_KEYS) - set(meta))
    if missing:
        raise FieldFormatError(f"{RUN_FILE}: metadata is missing {missing}")
    for key in ("config", "plant", "lattice", "fit"):
        if not isinstance(meta[key], dict):
            raise FieldFormatError(f"{RUN_FILE}: {key} is not a JSON object")
    num_cells = lattice_from_meta(meta["lattice"], RUN_FILE).num_cells
    read_fields(FIT_KEYS, meta["fit"], RUN_FILE, "fit")
    read_fields(RUN_NUMBERS, meta, RUN_FILE, "meta", exact=False)
    config = read_fields(SimConfig, meta["config"], RUN_FILE, "config")
    plant = read_fields(PlantParams, meta["plant"], RUN_FILE, "plant")
    _check_layout(a, RUN_COLUMNS)
    events = EventTable(*(a["event_" + f.name] for f in fields(EventTable)))
    columns = frame_columns(num_cells, np.count_nonzero(events.kind == INJECT))
    _check_layout(a, columns)
    if np.any(a["counts"] < 1):
        raise FieldFormatError(f"{RUN_FILE}: a frame cell count below 1")
    if len(a["cells"]) and a["cells"].max() >= num_cells:
        raise FieldFormatError(f"{RUN_FILE}: cells holds {a['cells'].max()}, "
                               f"off the lattice of {num_cells} cells")
    if len({len(c) for c in vars(events).values()}) > 1:
        raise FieldFormatError(f"{RUN_FILE}: event columns are not of one "
                               "length")
    if np.any((events.kind < 0) | (events.kind >= len(EVENT_KINDS))):
        raise FieldFormatError(f"{RUN_FILE}: unknown event kind")
    if np.any((events.frame < 0) | (events.frame >= len(a["frame_t"]))):
        raise FieldFormatError(f"{RUN_FILE}: event frame outside the run")
    frames = FrameTable(a["frame_offsets"],
                        [FrameChunk(*(a[k] for k in columns))], columns)
    snaps = [a[k] for k in TRAJ_COLUMNS]
    _check_offsets(frames.chunks[0][:3], frames.offsets, len(a["frame_t"]))
    _check_offsets(snaps, a["traj_offsets"], len(a["traj_t"]))
    many = sum(np.count_nonzero(c > 1) for _, c in frames.count_pieces())
    if len(a["sumv2"]) != many:
        raise FieldFormatError(f"{RUN_FILE}: sumv2 holds {len(a['sumv2'])} "
                               f"values, but {many} rows hold two or more "
                               "agents")
    cuts = a["traj_offsets"].tolist()
    trace = SimulationTrace(
        config=config, plant=plant, frame_t=a["frame_t"], frames=frames,
        events=events, injection_rate=meta["injection_rate"],
        batch_size=meta["batch_size"], fit=meta["fit"],
        trajectories=[(t, *(c[lo:hi] for c in snaps)) for t, lo, hi
                      in zip(a["traj_t"].tolist(), cuts, cuts[1:])])
    return trace, meta["lattice"]
