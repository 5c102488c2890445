"""Uniform-grid neighbor index over particles.

The index is cell-sorted (Green, "Particle Simulation using CUDA", NVIDIA
2010): ``order`` lists particle indices by cell and, inside a cell, by
descending index; the particles of cell ``c`` are
``order[start[c]:start[c + 1]]``. Cells ``c0..c1`` of one x-row are
therefore one contiguous slice, so a neighbour query reads at most one
slice per (y, z) row of cells it overlaps.

This is the only module that knows cell geometry. One clamp
(``_axis_cell``, with its array twin ``_axis_cells``) maps a position to its
cell for index builds, point lookups and query cubes alike; positions
outside the grid region clamp to the boundary cells, so queries stay
complete for an unbounded scene. One query, ``SpatialIndex.within``, serves
every scalar neighbour sum: the SPH reference phases, field evaluation and
the renderer's reference sampler. ``SpatialIndex.table`` answers many
queries at once as padded arrays in the same order, for the array forms of
the SPH phases and of the renderer, which the program runs;
``neighbor_candidates`` is the unfiltered reference enumerator over the
same cells in the same order.

numpy is imported inside the functions that use it, so importing this
module (as the device worker does) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform grid: origin corner, cubic cell edge, cell counts."""

    origin: tuple[float, float, float]
    cell_size: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims components must be >= 1")

    @property
    def cell_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


def _axis_cell(v: float, origin: float, inv: float, n: int) -> int:
    """Cell coordinate of ``v`` along one axis, clamped to ``[0, n - 1]``.

    The one clamp of this package: index builds, point lookups and query
    cubes all go through it (or its array twin ``_axis_cells``), so they
    agree on the cell of every position.
    """
    if v < origin:
        return 0
    i = int((v - origin) * inv)
    return i if i < n else n - 1


def _axis_cells(v, origin: float, inv: float, n: int):
    """Array twin of :func:`_axis_cell` over a float64 array.

    ``(v - origin) * inv`` is negative exactly when ``v < origin``, so one
    clip gives both clamps. It comes before the integer cast because the
    cast of a value as large as 1e300 is undefined.
    """
    import numpy as np

    return np.clip((v - origin) * inv, 0, n - 1).astype(np.int64)


def cell_coords(x: float, y: float, z: float, grid: GridSpec) -> tuple[int, int, int]:
    """Clamped integer cell coordinates of a point."""
    ox, oy, oz = grid.origin
    nx, ny, nz = grid.dims
    inv = 1.0 / grid.cell_size
    return (_axis_cell(x, ox, inv, nx), _axis_cell(y, oy, inv, ny),
            _axis_cell(z, oz, inv, nz))


def cell_coords_array(xs, ys, zs, grid: GridSpec):
    """Array twin of :func:`cell_coords`: three int64 coordinate arrays."""
    ox, oy, oz = grid.origin
    nx, ny, nz = grid.dims
    inv = 1.0 / grid.cell_size
    return (_axis_cells(xs, ox, inv, nx), _axis_cells(ys, oy, inv, ny),
            _axis_cells(zs, oz, inv, nz))


def cell_ids(xs, ys, zs, grid: GridSpec):
    """Linear cell index ``ix + nx*(iy + ny*iz)`` of every point, as int64."""
    ix, iy, iz = cell_coords_array(xs, ys, zs, grid)
    nx, ny, _ = grid.dims
    return ix + nx * (iy + ny * iz)


def cell_of(position: Sequence[float], grid: GridSpec) -> int:
    """Linear cell index ``ix + nx*(iy + ny*iz)`` of a (possibly clamped) point."""
    x, y, z = position
    ix, iy, iz = cell_coords(x, y, z, grid)
    nx, ny, _ = grid.dims
    return ix + nx * (iy + ny * iz)


class SpatialIndex:
    """Cell-sorted particle indices over a :class:`GridSpec`.

    ``order`` and ``start`` are lists, for the scalar walks; the index also
    keeps the positions it was built from in index order, which ``table``
    reads. ``build`` may be called again to re-index moved particles.
    """

    __slots__ = ("grid", "order", "start", "_order", "_start", "_sorted")

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.order: list[int] = []
        self.start: list[int] = [0] * (grid.cell_count + 1)

    def build(self, particles) -> "SpatialIndex":
        """Sort all particles by cell, and by descending index inside a cell.

        The order is fixed by the particle array and the grid, so two builds
        over the same particles produce identical indices.
        """
        import numpy as np

        xs, ys, zs = particles.x, particles.y, particles.z
        n = len(xs)
        cell = cell_ids(xs, ys, zs, self.grid)
        order = np.lexsort((-np.arange(n), cell))
        start = np.zeros(self.grid.cell_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=self.grid.cell_count),
                  out=start[1:])
        self._order = order
        self._start = start
        self._sorted = (xs[order], ys[order], zs[order])
        self.order = order.tolist()
        self.start = start.tolist()
        return self

    def within(self, particles, x: float, y: float, z: float,
               radius: float) -> list[tuple]:
        """Every particle strictly closer than ``radius`` to ``(x, y, z)``.

        Entries are ``(q, dx, dy, dz, r2)`` with ``q`` the particle's record,
        ``dx = x - q.x`` (likewise for y and z) and
        ``r2 = dx*dx + dy*dy + dz*dz``, in the order of
        :func:`neighbor_candidates`. Every scalar neighbour sum in the
        package runs through this one walk, and ``table`` returns the same
        entries in the same order, so every form of a sum adds the same
        terms in the same order and gets the same bits.
        """
        x0, x1, y0, y1, z0, z1 = cell_range((x, y, z), radius, self.grid)
        nx, ny, _ = self.grid.dims
        order = self.order
        start = self.start
        xs, ys, zs = particles.x, particles.y, particles.z
        r2max = radius * radius
        found: list[tuple] = []
        add = found.append
        for iz in range(z0, z1 + 1):
            zb = ny * iz
            for iy in range(y0, y1 + 1):
                rb = nx * (iy + zb)
                for j in order[start[rb + x0]:start[rb + x1 + 1]]:
                    dx = x - xs[j]
                    dy = y - ys[j]
                    dz = z - zs[j]
                    r2 = dx * dx + dy * dy + dz * dz
                    if r2 < r2max:
                        add((particles[j], dx, dy, dz, r2))
        return found

    def table(self, xs, ys, zs, radius: float):
        """``within`` for every point of three float64 arrays at once.

        Returns ``(index, dx, dy, dz, r2, valid)``, each of shape ``(m, K)``
        with ``m`` query points and ``K`` the largest neighbour count. Row
        ``i`` holds the entries ``within`` gives for point ``i``, in the
        same order and with the same bits (``index`` names the particle);
        ``valid`` is False on the padding after them. Neighbour positions
        are the ones the index was built from.
        """
        import numpy as np

        m = len(xs)
        nx, ny, _ = self.grid.dims
        x0, y0, z0 = cell_coords_array(xs - radius, ys - radius, zs - radius,
                                       self.grid)
        x1, y1, z1 = cell_coords_array(xs + radius, ys + radius, zs + radius,
                                       self.grid)
        # One contiguous slice of the sorted arrays per (y, z) row of cells,
        # z outer and y inner as in ``within``; a point whose cube spans
        # fewer rows than the widest gets empty slices.
        begins = []
        lengths = []
        start = self._start
        for b in range(int((z1 - z0).max(initial=0)) + 1):
            iz = np.minimum(z0 + b, z1)
            for a in range(int((y1 - y0).max(initial=0)) + 1):
                iy = np.minimum(y0 + a, y1)
                rb = nx * (iy + ny * iz)
                s = start[rb + x0]
                begins.append(s)
                lengths.append(np.where((z0 + b <= z1) & (y0 + a <= y1),
                                        start[rb + x1 + 1] - s, 0))
        lengths = np.stack(lengths, axis=1)
        row = np.repeat(np.arange(m), lengths.sum(axis=1))
        begins = np.stack(begins, axis=1).ravel()
        lengths = lengths.ravel()
        # Candidate t of the flat list belongs to slice p and sits at sorted
        # position begins[p] + (t - first[p]).
        first = np.cumsum(lengths) - lengths
        pos = np.repeat(begins - first, lengths) + np.arange(len(row))
        sx, sy, sz = self._sorted
        dx = xs[row] - sx[pos]
        dy = ys[row] - sy[pos]
        dz = zs[row] - sz[pos]
        r2 = dx * dx + dy * dy + dz * dz
        keep = np.flatnonzero(r2 < radius * radius)
        row = row[keep]
        counts = np.bincount(row, minlength=m)
        k = int(counts.max(initial=0))
        col = np.arange(len(keep)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        out = []
        for values in (self._order[pos[keep]], dx[keep], dy[keep], dz[keep],
                       r2[keep]):
            padded = np.zeros((m, k), dtype=values.dtype)
            padded[row, col] = values
            out.append(padded)
        valid = np.zeros((m, k), dtype=bool)
        valid[row, col] = True
        return (*out, valid)


def build_index(particles, grid: GridSpec,
                index: SpatialIndex | None = None) -> SpatialIndex:
    """Build (or rebuild) the spatial index for a particle array."""
    if index is None or index.grid != grid:
        index = SpatialIndex(grid)
    return index.build(particles)


def cell_range(point: Sequence[float], radius: float,
               grid: GridSpec) -> tuple[int, int, int, int, int, int]:
    """Clamped cell coordinate bounds covering the cube of half-width radius."""
    x, y, z = point
    lo = cell_coords(x - radius, y - radius, z - radius, grid)
    hi = cell_coords(x + radius, y + radius, z + radius, grid)
    return lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]


def neighbor_candidates(index: SpatialIndex, point: Sequence[float],
                        radius: float) -> Iterator[int]:
    """Yield every particle index within ``radius`` of ``point`` (and possibly
    a few beyond it; the caller filters by distance).

    Visits exactly the cells overlapping the axis-aligned cube of half-width
    ``radius`` around the point, in a fixed z-outer/y-middle/x-inner order,
    and each cell's particles in descending index. Completeness holds even
    for points outside the grid region because the cell range clamps to the
    boundary.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    grid = index.grid
    x0, x1, y0, y1, z0, z1 = cell_range(point, radius, grid)
    order = index.order
    start = index.start
    nx, ny, _ = grid.dims
    for iz in range(z0, z1 + 1):
        zbase = ny * iz
        for iy in range(y0, y1 + 1):
            rowbase = nx * (iy + zbase)
            yield from order[start[rowbase + x0]:start[rowbase + x1 + 1]]
