"""Partition tests: inside mask, cell assignment, target binning, wire format."""

import numpy as np
import pytest

from fluidswarm import (NozzleGeometry, ReferenceField, assign_cell,
                        load_partition, partition_domain, save_partition)

# frozen for the default duct at 0.5 m edge; independently recomputed below
INSIDE_CELLS = 796
TARGET_CELLS = 780


def inside_oracle(grid, geometry, samples=401):
    """Cube-duct overlap decided from scratch.

    A cube meets the duct iff the wall radius somewhere along the cube's
    clipped x-span reaches the cube's closest y-z approach to the axis.
    Dense sampling of the radius is exact here because the profile is
    unimodal, so the span maximum sits at an endpoint (always sampled).
    """
    e = grid.edge_length
    expect = np.zeros(grid.num_cells, dtype=bool)
    for f in range(grid.num_cells):
        jx, jy, jz = np.unravel_index(f, grid.dims)
        x0 = grid.origin[0] + jx * e
        if x0 + e <= 0.0 or x0 >= geometry.length:
            continue
        xs = np.linspace(max(x0, 0.0), min(x0 + e, geometry.length), samples)
        r_max = float(geometry.radius(xs).max())

        def gap(lo):
            return 0.0 if lo <= 0.0 <= lo + e else min(abs(lo), abs(lo + e))

        dy = gap(grid.origin[1] + jy * e)
        dz = gap(grid.origin[2] + jz * e)
        expect[f] = np.hypot(dy, dz) <= r_max
    return expect


def test_lattice_covers_the_duct(grid):
    assert grid.dims == (30, 6, 6)
    assert np.allclose(grid.origin, [0.0, -1.5, -1.5])
    assert grid.edge_length == 0.5
    assert grid.cell_volume == pytest.approx(0.125)


def test_inside_mask_matches_oracle(grid):
    expect = inside_oracle(grid, grid.geometry)
    assert np.array_equal(grid.inside, expect)
    assert int(grid.inside.sum()) == INSIDE_CELLS


def test_valid_cells(grid, field):
    assert int(grid.valid.sum()) == TARGET_CELLS
    assert np.all(grid.inside[grid.valid])
    # every field node landed in exactly one cell
    assert int(grid.node_count.sum()) == len(field)
    occ = grid.node_count > 0
    assert np.all(np.isfinite(grid.v_target[occ]))
    assert np.all(np.isfinite(grid.p_target[occ]))
    assert np.all(~np.isfinite(grid.p_target[~occ]))


def test_targets_are_node_means(grid, field):
    """Spot-check the binned averages against a direct recomputation."""
    flat = assign_cell(field.positions, grid)
    rng = np.random.default_rng(1)
    for f in rng.choice(np.flatnonzero(grid.valid), size=20, replace=False):
        sel = flat == f
        assert np.allclose(grid.v_target[f], field.velocities[sel].mean(axis=0),
                           rtol=1e-12, atol=1e-12)
        assert grid.p_target[f] == pytest.approx(
            float(field.pressures[sel].mean()), rel=1e-12, abs=1e-12)


def test_density_targets_follow_the_gas_closure(grid):
    occ = grid.node_count > 0
    want = grid.gas.density_from_gauge(grid.p_target[occ])
    assert np.allclose(grid.rho_target[occ], want, rtol=1e-12)


def test_assign_cell_identity_on_centers(grid):
    flat = assign_cell(grid.centers(), grid)
    assert np.array_equal(flat, np.arange(grid.num_cells))


def test_assign_cell_face_tie_goes_low(grid):
    # a point exactly on a shared face is equidistant; lower cell wins
    p = grid.origin + grid.edge_length  # face between cells (0,0,0) and (1,1,1)
    assert assign_cell(p, grid) == 0
    p = grid.origin + np.array([2.0 * grid.edge_length, 0.25, 0.25])
    assert np.array_equal(grid.unravel([assign_cell(p, grid)])[0], [1, 0, 0])


def test_assign_cell_is_nearest_center(grid):
    rng = np.random.default_rng(2)
    lo = grid.origin
    hi = grid.origin + np.asarray(grid.dims) * grid.edge_length
    pts = lo + rng.random((300, 3)) * (hi - lo)
    centers = grid.centers()
    got = assign_cell(pts, grid)
    brute = np.argmin(((pts[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
    assert np.array_equal(got, brute)


def test_assign_cell_clamps_outliers(grid):
    nx, ny, nz = grid.dims
    assert assign_cell([-5.0, 0.0, 0.0], grid) == assign_cell([0.01, 0.0, 0.0], grid)
    far = assign_cell([1e6, 1e6, 1e6], grid)
    assert np.array_equal(grid.unravel([far])[0], [nx - 1, ny - 1, nz - 1])


def test_partition_is_order_invariant(field, grid):
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(field))
    shuffled = ReferenceField(field.positions[perm], field.velocities[perm],
                              field.pressures[perm], geometry=field.geometry,
                              gas=field.gas)
    other = partition_domain(shuffled)
    assert np.array_equal(other.node_count, grid.node_count)
    occ = grid.node_count > 0
    assert np.allclose(other.v_target[occ], grid.v_target[occ], rtol=1e-12,
                       atol=1e-12)
    assert np.allclose(other.p_target[occ], grid.p_target[occ], rtol=1e-12,
                       atol=1e-9)


def test_edge_length_validation(field):
    with pytest.raises(ValueError):
        partition_domain(field, edge_length=0.0)


def test_save_load_round_trip(tmp_path, field, grid):
    """The partition file is exact: every array, the lattice, the geometry
    and the gas read back equal, on the default and the fine lattice."""
    path = tmp_path / "partition.csv"
    for g in (grid, partition_domain(field, edge_length=0.25)):
        save_partition(g, path)
        back = load_partition(path)
        for name in ("inside", "node_count", "v_target", "p_target",
                     "rho_target", "origin"):
            assert np.array_equal(getattr(back, name), getattr(g, name),
                                  equal_nan=True), name
        assert back.node_count.dtype == g.node_count.dtype
        assert (back.edge_length, back.dims, back.geometry, back.gas) \
            == (g.edge_length, g.dims, g.geometry, g.gas)


def test_load_partition_rejects_truncated_file(tmp_path, grid):
    path = tmp_path / "partition.csv"
    save_partition(grid, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ValueError, match="cell rows"):
        load_partition(path)
    path.write_text("\n".join(lines[1:]) + "\n")  # metadata line dropped
    with pytest.raises(ValueError, match="metadata"):
        load_partition(path)


def test_load_partition_rejects_a_damaged_file(tmp_path, grid):
    path = tmp_path / "partition.csv"
    save_partition(grid, path)
    meta, header, *rows = path.read_text().splitlines()

    def rejects(lines, message):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_partition(path)

    # a repeated cell row in place of another: the count still matches
    rejects([meta, header, rows[0], *rows[:-1]],
            r":4: repeated cell \[0.0, 0.0, 0.0\]")
    rejects([meta, header.replace("pt", "p"), *rows], "expected header")
    rejects([meta.replace("throat_x=6.0", ""), header, *rows],
            r"missing NozzleGeometry metadata \['throat_x'\]")
    rejects([meta.replace("gamma=1.4", "gamma=1.4x"), header, *rows],
            "bad metadata entry 'gamma=1.4x'")
    jx, rest = rows[0].split(",", 1)
    rejects([meta, header, ",".join(["30", rest]), *rows[1:]],
            r":3: cell \[30.0, 0.0, 0.0\] is off the \(30, 6, 6\) lattice")
