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

from .primitives import FINITE_POSITIVE, check
from .reference_field import GasModel, NozzleGeometry, ReferenceField


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
    geometry: NozzleGeometry = field(compare=False)   # the duct tiled
    gas: GasModel | None = field(default=None, compare=False)

    @classmethod
    def empty(cls, origin, edge_length, dims, geometry, gas=None):
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
    """Nearest-center cell for each row of (N, 3) positions (flat indices).

    Floor division on the shifted coordinates; a point exactly on a face is
    equidistant between two centers and goes to the lower flat index. Points
    beyond the lattice clamp to the boundary cells (still the nearest center).

    Works on the component rows of the (N, 3) argument, so the ``.T`` view
    of (3, N) rows is read without a copy. Per axis, ``ceil(t) - 1`` is the
    floor with face ties lowered; it is clamped in float (``fmax`` sends NaN
    to the first cell), and the flat index is built exactly in float and
    cast once.
    """
    p = np.asarray(positions, dtype=float)
    flat = np.zeros(len(p))
    offset = 0.0          # the -1 of every axis, folded into the flat index
    for row, o, d in zip(p.T, grid.origin, grid.dims):
        c = np.subtract(row, o)
        np.divide(c, grid.edge_length, out=c)
        np.ceil(c, out=c)
        np.fmax(c, 1.0, out=c)
        np.fmin(c, float(d), out=c)
        np.multiply(flat, d, out=flat)
        np.add(flat, c, out=flat)
        offset = offset * d + 1.0
    return (flat - offset).astype(np.int64)


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


def partition_domain(fld: ReferenceField,
                     edge_length: float = 0.5) -> ControlVolumeGrid:
    """Partition the duct into cubes and average the field into targets.

    The duct is the field's geometry, and density targets come from its gas
    (NaN without one); ``records.load_field`` attaches both to a field read
    from CSV.
    The lattice origin snaps to (0, -R, -R) with R the maximum wall radius
    rounded up to a whole number of edges, so the duct is fully covered.
    Nodes are binned by the same nearest-center rule used for agents; every
    node lands in exactly one cell.
    """
    geometry, gas = fld.geometry, fld.gas
    if geometry is None:
        raise ValueError("a geometry is required (none attached to the field)")
    check("edge_length", edge_length, FINITE_POSITIVE)

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
