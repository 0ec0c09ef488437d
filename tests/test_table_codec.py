"""The table codec shared by the field, partition and fit files.

``read_table`` reads a file at once and converts every value in one C-level
pass; ``write_table`` formats a table in one ``%`` pass. They are checked
against the per-line reader and the per-row writers they replaced, kept
below as the references: same bytes written, same values and line numbers
read, same error message on the same damaged file.
"""

import itertools
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from fluidswarm import (FieldFormatError, FitConfig, build_command_table,
                        fit_grid, grid_from_fit, load_field, load_fit,
                        load_partition, partition_domain, save_field,
                        save_fit, save_partition)
from fluidswarm.records import (FIELD_HEADER, FIT_HEADER, PARTITION_HEADER,
                                lattice_meta, read_table)
from fluidswarm.velocity_fit import SET_SIZE

FIT_WIDTH = 4 + 3 * SET_SIZE        # a fit row: cell, set size, velocities


# ======================================================================
# references: the per-line reader and the per-row writers
# ======================================================================

def _number(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def per_line_read_table(path, header, width=None):
    """The reader ``read_table`` replaced: one line, one ``float`` per value
    and one list per row at a time. Rows hold ``width`` values, by default
    one per header column. Returns (meta, line numbers, rows)."""
    width = width or len(header.split(","))
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
            if len(parts) != width:
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
                               f"{meta.get('cells')}, found {len(rows)} rows")
    return meta, np.asarray(lines), rows


def per_row_write_table(path, meta, header, rows):
    """The writer ``write_table`` replaced: ``repr`` of each Python int and
    float, one row at a time."""
    lines = [",".join(map(repr, row)) for row in rows]
    meta = {**meta, "cells": len(lines)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v!r}" for k, v in meta.items()) + "\n")
        fh.write("\n".join([header, *lines]) + "\n")


def per_row_save_partition(grid, path):
    m = grid.num_cells
    counts = np.column_stack([grid.inside, grid.node_count]).astype(np.int64)
    targets = np.column_stack([grid.v_target, grid.p_target])
    rows = (a + b + c + d for a, b, c, d in zip(
        grid.unravel(np.arange(m)).tolist(), grid.centers().tolist(),
        counts.tolist(), targets.tolist()))
    per_row_write_table(path, lattice_meta(grid), PARTITION_HEADER, rows)


def per_row_save_fit(fit, grid, path):
    meta = {"agent_mass": float(fit.config.agent_mass),
            "rng_seed": int(fit.config.rng_seed),
            "pressure_offset": float(fit.pressure_offset), **lattice_meta(grid)}
    rows = (jxyz + [len(v)] + v.ravel().tolist()
            for jxyz, v in zip(grid.unravel(fit.cells).tolist(), fit.velocities))
    per_row_write_table(path, meta, FIT_HEADER, rows)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_reads_like_the_reference(path, header, width=None):
    """``read_table`` raises the reference's message, or returns its
    metadata and line numbers, and its values bit for bit."""
    try:
        want_meta, want_lines, want_rows = per_line_read_table(path, header,
                                                               width)
    except FieldFormatError as exc:
        with pytest.raises(FieldFormatError) as got:
            read_table(path, header, width)
        assert str(got.value) == str(exc)
        return
    meta, lines, values = read_table(path, header, width)
    assert meta == want_meta
    assert [type(v) for v in meta.values()] == [type(v) for v in want_meta.values()]
    assert lines.tolist() == want_lines.tolist()
    assert values.shape == (len(want_rows), len(want_rows[0]))
    assert bits(values) == bits(want_rows)


@pytest.fixture(scope="module")
def fine_grid(field):
    return partition_domain(field, edge_length=0.25)


@pytest.fixture(scope="module")
def fine_fit(fine_grid):
    return fit_grid(fine_grid, FitConfig(rng_seed=0))


# ======================================================================
# the writer
# ======================================================================

def test_field_bytes_equal_savetxt(tmp_path, field):
    """After its metadata line, which holds the geometry and gas, a field
    file is the bytes of ``np.savetxt``; without either it has no line."""
    data = np.column_stack([field.positions, field.velocities, field.pressures])
    np.savetxt(tmp_path / "savetxt.csv", data, fmt="%.12g", delimiter=",",
               header=FIELD_HEADER, comments="")
    want = (tmp_path / "savetxt.csv").read_bytes()
    save_field(field, tmp_path / "field.csv")
    meta, rest = (tmp_path / "field.csv").read_bytes().split(b"\n", 1)
    assert meta.decode() == "# " + " ".join(
        f"{k}={v!r}" for k, v in {**asdict(field.geometry), **asdict(field.gas),
                                   "cells": len(field)}.items())
    assert rest == want
    save_field(replace(field, geometry=None, gas=None), tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == want


def test_partition_and_fit_bytes_equal_the_per_row_writer(tmp_path, grid, fit,
                                                          fine_grid, fine_fit):
    for g, f in ((grid, fit), (fine_grid, fine_fit)):
        save_partition(g, tmp_path / "grid.csv")
        per_row_save_partition(g, tmp_path / "grid_ref.csv")
        assert (tmp_path / "grid.csv").read_bytes() \
            == (tmp_path / "grid_ref.csv").read_bytes(), g.edge_length
        save_fit(f, g, tmp_path / "fit.csv")
        per_row_save_fit(f, g, tmp_path / "fit_ref.csv")
        assert (tmp_path / "fit.csv").read_bytes() \
            == (tmp_path / "fit_ref.csv").read_bytes(), g.edge_length


def test_a_fit_row_of_another_size_is_rejected_on_its_line(tmp_path, grid,
                                                            fit):
    """Every set holds ``SET_SIZE`` velocities: a row of another set size,
    with or without as many values, a short row and an extra column are
    each rejected, naming the file and the row's line."""
    src, path = tmp_path / "fit.csv", tmp_path / "bad.csv"
    save_fit(fit, grid, src)
    lines = src.read_text().splitlines()
    width = f"expected {FIT_WIDTH} columns, got"
    for i, edit, message in (
            # a consistent set of 5: its size and 15 values
            (40, lambda r: ",".join([*r.split(",")[:3], "5",
                                     *r.split(",")[4:19]]), f"{width} 19"),
            (41, lambda r: r.rsplit(",", 3)[0], f"{width} {FIT_WIDTH - 3}"),
            (42, lambda r: r + ",1.5", f"{width} {FIT_WIDTH + 1}"),
            (43, lambda r: r.replace(f",{SET_SIZE},", ",5,", 1),
             f"set size 5, expected {SET_SIZE}")):
        damaged(path, lines, i, edit)
        with pytest.raises(FieldFormatError) as got:
            load_fit(path)
        assert str(got.value) == f"{path}:{i}: {message}"
        assert_reads_like_the_reference(path, FIT_HEADER, FIT_WIDTH)


# ======================================================================
# the reader: values, line numbers and errors against the reference
# ======================================================================

def test_written_tables_read_like_the_reference(tmp_path, field, grid, fit):
    save_field(field, tmp_path / "field.csv")
    save_partition(grid, tmp_path / "grid.csv")
    save_fit(fit, grid, tmp_path / "fit.csv")
    for name, header, width in (("field", FIELD_HEADER, None),
                                ("grid", PARTITION_HEADER, None),
                                ("fit", FIT_HEADER, FIT_WIDTH)):
        assert_reads_like_the_reference(tmp_path / f"{name}.csv", header, width)


def test_layout_variants_read_like_the_reference(tmp_path):
    """Padded tokens, blank and whitespace lines, CRLF and lone CR line
    ends, no final newline, rows of another width, and bad values before
    and after them (the first in the file is named)."""
    path = tmp_path / "t.csv"
    texts = [
        "# cells=3 k=1.5\r\nn,v,w\r\n1, 2 ,3\r\n\r\n 4,5,6\r\n7,8,-0",
        "# cells=2\n\n",
        "# cells=2\nn,v,w\n  \n1,2,3\n\t\n3,4,5\n\n",
        "n,v,w\r1,2,3\r3,4,5\r",
        "n,v,w\n1e308,-1e308,0\n5e-324,-5e-324,2.2250738585072014e-308\n"
        "nan,-nan,inf\n-inf,Infinity,-0.0",
        "n,v,w\n1,x,2\n2,3\n",
        "n,v,w\n1,2,3\n4,5,6,7\n8,y,1\n",
        "n,v,w\n1,2,3\n8,y,1\n4,5\n9,8,z\n",
        "n,v,w\n1,2\n3,4\n",
    ]
    for text in texts:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_reads_like_the_reference(path, "n,v,w")
    # a width other than the header's
    path.write_text("n,v,...\n1,2,3,4\n5,6,7,8\n")
    assert_reads_like_the_reference(path, "n,v,...", 4)
    for width in (3, 5):
        with pytest.raises(FieldFormatError, match=f":2: expected {width} "
                           "columns, got 4"):
            read_table(path, "n,v,...", width)


def damaged(path, lines, i, edit):
    """``lines`` with line ``i`` (1-based) replaced by ``edit`` of it."""
    out = list(lines)
    out[i - 1] = edit(out[i - 1])
    path.write_text("\n".join(out) + "\n")


def test_errors_equal_the_reference_messages(tmp_path, field, grid, fit):
    src = tmp_path / "field.csv"
    save_field(field, src)
    lines = src.read_text().splitlines()
    path = tmp_path / "bad.csv"
    field_cases = [
        # a non-numeric token on line 20,000
        lambda: damaged(path, lines, 20_000, lambda r: ",".join(
            [r.split(",")[0], "abc", *r.split(",")[2:]])),
        lambda: damaged(path, lines, 12_345, lambda r: r.rsplit(",", 1)[0]),
        lambda: damaged(path, lines, 12_345, lambda r: r + ",1"),
        # line 2 is the header, after the metadata line
        lambda: damaged(path, lines, 2, lambda r: r.replace("vz", "w")),
        lambda: path.write_text("\n".join(lines[:2]) + "\n"),
        lambda: path.write_text("\n".join(lines[:2]) + "\n\n  \n"),
        lambda: path.write_text(""),
        # a bad value before a short row: the earlier line is named
        lambda: path.write_text("\n".join(
            [*lines[:10], "1,2,x,4,5,6,7", *lines[10:20], "1,2", *lines[20:]])),
        # a short row before a bad value
        lambda: path.write_text("\n".join(
            [*lines[:10], "1,2", *lines[10:20], "1,2,x,4,5,6,7", *lines[20:]])),
        # both on one row: the column count is checked first
        lambda: damaged(path, lines, 5, lambda r: "x,y"),
        lambda: damaged(path, lines, 7, lambda r: r.replace(",", ",,", 1)),
    ]
    for make in field_cases:
        make()
        with pytest.raises(FieldFormatError):
            per_line_read_table(path, FIELD_HEADER)
        assert_reads_like_the_reference(path, FIELD_HEADER)
        with pytest.raises(FieldFormatError):
            load_field(path)

    save_partition(grid, src)
    meta, header, *rows = src.read_text().splitlines()
    partition_cases = [
        [meta.replace("gamma=1.4", "gamma=1.4x"), header, *rows],
        [meta, header, *rows[:-5]],
        [meta.replace(f"cells={len(rows)}", "cells=7"), header, *rows],
        [meta],
    ]
    for text in partition_cases:
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FieldFormatError):
            per_line_read_table(path, PARTITION_HEADER)
        assert_reads_like_the_reference(path, PARTITION_HEADER)
        with pytest.raises(FieldFormatError):
            load_partition(path)

    save_fit(fit, grid, src)
    meta, header, *rows = src.read_text().splitlines()
    for i, edit in ((40, lambda r: r.rsplit(",", 3)[0]),
                    (41, lambda r: r + ",1.5,2.5,3.5")):
        damaged(path, [meta, header, *rows], i, edit)
        with pytest.raises(FieldFormatError):
            per_line_read_table(path, FIT_HEADER, FIT_WIDTH)
        assert_reads_like_the_reference(path, FIT_HEADER, FIT_WIDTH)
        with pytest.raises(FieldFormatError, match=f":{i}: expected "):
            load_fit(path)


def test_text_only_float_reads_is_rejected_on_its_line(tmp_path):
    """``float`` reads ``1_0`` and non-ASCII digits; the C conversion does
    not, and the error names the line rather than returning another
    value."""
    path = tmp_path / "t.csv"
    for tok in ("1_0", "٣", "1_000.5"):
        path.write_text(f"n,v,w\n1,2,3\n\n3,{tok},5\n6,7,8\n")
        with pytest.raises(FieldFormatError) as got:
            read_table(path, "n,v,w")
        assert str(got.value) == \
            f"{path}:4: could not convert string to float: '{tok}'"


def held_bytes(lines, rows):
    """Bytes of the line-number array and the row lists with their floats,
    all alive when the per-line reader returns: a lower bound of its
    tracemalloc peak (tracing that reader itself takes seconds)."""
    return (lines.nbytes + sys.getsizeof(rows)
            + sum(map(sys.getsizeof, rows))
            + sum(map(sys.getsizeof, itertools.chain.from_iterable(rows))))


def test_reading_a_large_field_takes_no_more_memory_than_the_reference(tmp_path):
    rng = np.random.default_rng(11)
    n = 200_000
    data = rng.normal(scale=5.0, size=(n, 7))
    path = tmp_path / "field.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FIELD_HEADER + "\n")
        fh.write(("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" * n)
                 % tuple(data.ravel().tolist()))
    del data
    tracemalloc.start()
    try:
        _, lines, values = read_table(path, FIELD_HEADER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, want_lines, rows = per_line_read_table(path, FIELD_HEADER)
    assert values.shape == (n, 7)
    assert np.array_equal(lines, want_lines)
    assert bits(values) == bits(rows)
    assert peak <= held_bytes(want_lines, rows), (peak, held_bytes(want_lines, rows))


# ======================================================================
# the commands: one stacked mean
# ======================================================================

def test_commands_equal_the_per_cell_means(grid, fit, fine_grid, fine_fit):
    for g, f in ((grid, fit), (fine_grid, fine_fit)):
        cells = f.cells
        assert np.all(np.diff(cells) > 0)
        want = np.stack([v.mean(axis=0) for v in f.velocities])
        got = f.commands()
        assert bits(got) == bits(want)
        assert bits([f.command(c) for c in cells.tolist()]) == bits(want)
        rebuilt = grid_from_fit(f, lattice_meta(g))
        assert np.isnan(rebuilt.v_target).all()
        assert bits(build_command_table(rebuilt, f, 0.1)) \
            == bits(build_command_table(g, f, 0.1))
        table = build_command_table(g, f, 0.1)
        assert bits(table[cells]) == bits(0.1 * want)
        for other in (np.flatnonzero(~g.valid)[0], g.num_cells):
            with pytest.raises(KeyError, match="has no fit"):
                f.command(int(other))
