"""Cubic control-volume partition of the duct and nearest-cell assignment.

The duct's bounding box is tiled with axis-aligned cubes of edge length l.
Each cube averages the reference-field nodes that fall inside it into a
velocity target and a pressure target; cubes overlapping the duct volume are
flagged ``inside``. Agents are mapped to cubes by nearest center, which for a
regular lattice reduces to coordinate-wise floor division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .reference_field import (FieldFormatError, GasModel, NozzleGeometry,
                              ReferenceField, cell_index, lattice_from_meta,
                              lattice_meta, read_table, write_table)

PARTITION_HEADER = "jx,jy,jz,cx,cy,cz,inside,node_count,vtx,vty,vtz,pt"


@dataclass
class ControlVolumeGrid:
    """Regular lattice of cubic cells with per-cell flow targets.

    Flat cell indices use C order over ``dims`` = (nx, ny, nz):
    flat = (jx * ny + jy) * nz + jz. All per-cell arrays are flat.
    """

    origin: np.ndarray            # (3,) lattice corner
    edge_length: float
    dims: tuple[int, int, int]
    inside: np.ndarray            # (M,) bool: cell overlaps the duct volume
    node_count: np.ndarray        # (M,) int
    v_target: np.ndarray          # (M, 3) node-mean velocity (NaN if empty)
    p_target: np.ndarray          # (M,) node-mean gauge pressure (NaN if empty)
    rho_target: np.ndarray        # (M,) gas density from p_target (NaN without gas)
    geometry: NozzleGeometry | None = field(default=None, compare=False)
    gas: GasModel | None = field(default=None, compare=False)

    @classmethod
    def empty(cls, origin, edge_length, dims, geometry=None, gas=None):
        """The lattice with no cell inside and every target NaN."""
        m = int(np.prod(dims))
        return cls(origin, edge_length, dims, np.zeros(m, dtype=bool),
                   np.zeros(m, dtype=np.int64), np.full((m, 3), np.nan),
                   np.full(m, np.nan), np.full(m, np.nan), geometry, gas)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def cell_volume(self) -> float:
        return self.edge_length ** 3

    @property
    def valid(self) -> np.ndarray:
        """Cells eligible for fitting: inside the duct and non-empty."""
        return self.inside & (self.node_count > 0)

    def centers(self) -> np.ndarray:
        """(M, 3) cell centers in flat order."""
        nx, ny, nz = self.dims
        jx, jy, jz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij")
        idx = np.column_stack([jx.ravel(), jy.ravel(), jz.ravel()])
        return self.origin + (idx + 0.5) * self.edge_length

    def unravel(self, flat) -> np.ndarray:
        return np.column_stack(np.unravel_index(np.asarray(flat), self.dims))


def assign_cell(positions, grid: ControlVolumeGrid) -> np.ndarray:
    """Nearest-center cell for each position (flat indices).

    Floor division on the shifted coordinates; a point exactly on a face is
    equidistant between two centers and goes to the lower flat index. Points
    beyond the lattice clamp to the boundary cells (still the nearest center).
    """
    p = np.atleast_2d(np.asarray(positions, dtype=float))
    t = (p - grid.origin) / grid.edge_length
    idx = np.floor(t).astype(np.int64)
    on_face = (t == np.floor(t)) & (idx > 0)
    idx[on_face] -= 1
    idx = np.clip(idx, 0, np.asarray(grid.dims) - 1)
    flat = np.ravel_multi_index((idx[:, 0], idx[:, 1], idx[:, 2]), grid.dims)
    return flat if np.asarray(positions).ndim > 1 else int(flat[0])


def _inside_mask(origin, edge, dims, geometry: NozzleGeometry) -> np.ndarray:
    """Cells whose cube intersects the duct volume.

    A cube meets the duct iff some x in its clipped span has wall radius at
    least the cube's y-z distance to the axis. The radius profile is unimodal
    (single minimum at the throat), so its maximum over a span sits at one of
    the span's endpoints.
    """
    nx, ny, nz = dims
    x0 = origin[0] + np.arange(nx) * edge
    x1 = x0 + edge
    lo = np.clip(x0, 0.0, geometry.length)
    hi = np.clip(x1, 0.0, geometry.length)
    r_span = np.maximum(geometry.radius(lo), geometry.radius(hi))
    in_x = (x1 > 0.0) & (x0 < geometry.length)

    def axis_dist(o, n):
        a0 = o + np.arange(n) * edge
        a1 = a0 + edge
        return np.maximum.reduce([a0, -a1, np.zeros(n)])

    dy = axis_dist(origin[1], ny)
    dz = axis_dist(origin[2], nz)
    d = np.hypot(dy[:, None], dz[None, :])                     # (ny, nz)
    mask = (d[None, :, :] <= r_span[:, None, None]) & in_x[:, None, None]
    return mask.reshape(-1)


def partition_domain(fld: ReferenceField, geometry: NozzleGeometry | None = None,
                     edge_length: float = 0.5,
                     gas: GasModel | None = None) -> ControlVolumeGrid:
    """Partition the duct into cubes and average the field into targets.

    The lattice origin snaps to (0, -R, -R) with R the maximum wall radius
    rounded up to a whole number of edges, so the duct is fully covered.
    Nodes are binned by the same nearest-center rule used for agents; every
    node lands in exactly one cell.
    """
    geometry = geometry or fld.geometry
    if geometry is None:
        raise ValueError("a geometry is required (none attached to the field)")
    gas = gas or fld.gas
    if edge_length <= 0:
        raise ValueError("edge_length must be positive")

    half = np.ceil(geometry.max_radius / edge_length) * edge_length
    origin = np.array([0.0, -half, -half])
    nx = int(np.ceil(geometry.length / edge_length - 1e-12))
    nyz = int(round(2 * half / edge_length))
    dims = (nx, nyz, nyz)

    grid = ControlVolumeGrid.empty(origin, edge_length, dims, geometry, gas)
    grid.inside = _inside_mask(origin, edge_length, dims, geometry)

    flat = assign_cell(fld.positions, grid)
    m = grid.num_cells
    cnt = np.bincount(flat, minlength=m)
    grid.node_count = cnt
    occ = cnt > 0
    for a in range(3):
        s = np.bincount(flat, weights=fld.velocities[:, a], minlength=m)
        grid.v_target[occ, a] = s[occ] / cnt[occ]
    ps = np.bincount(flat, weights=fld.pressures, minlength=m)
    grid.p_target[occ] = ps[occ] / cnt[occ]
    if gas is not None:
        grid.rho_target[occ] = gas.density_from_gauge(grid.p_target[occ])
    return grid


# ======================================================================
# wire format
# ======================================================================

def save_partition(grid: ControlVolumeGrid, path) -> None:
    """Write the per-cell table exactly; lattice, geometry and gas ride in
    the metadata line, so :func:`load_partition` returns an equal grid."""
    m = grid.num_cells
    counts = np.column_stack([grid.inside, grid.node_count]).astype(np.int64)
    targets = np.column_stack([grid.v_target, grid.p_target])
    rows = (a + b + c + d for a, b, c, d in zip(
        grid.unravel(np.arange(m)).tolist(), grid.centers().tolist(),
        counts.tolist(), targets.tolist()))
    write_table(path, lattice_meta(grid), PARTITION_HEADER, rows)


def load_partition(path) -> ControlVolumeGrid:
    """Read a partition table written by :func:`save_partition`. Raises
    ``ValueError`` as :func:`~fluidswarm.reference_field.read_table` does,
    on missing metadata, and unless every lattice cell has exactly one row."""
    meta, lines, rows = read_table(path, PARTITION_HEADER)
    grid = ControlVolumeGrid.empty(*lattice_from_meta(meta, path))
    if len(rows) != grid.num_cells:
        raise FieldFormatError(
            f"{path}: expected {grid.num_cells} cell rows, got {len(rows)}")
    data = np.asarray(rows)
    data = data[np.argsort(cell_index(path, lines, data[:, 0:3], grid.dims))]
    grid.inside, grid.node_count = data[:, 6] == 1, data[:, 7].astype(np.int64)
    grid.v_target, grid.p_target = data[:, 8:11].copy(), data[:, 11].copy()
    if grid.gas is not None:
        occ = grid.node_count > 0
        grid.rho_target[occ] = grid.gas.density_from_gauge(grid.p_target[occ])
    return grid
