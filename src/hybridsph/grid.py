"""Uniform-grid neighbor index over particles.

Two preallocated arrays form per-cell linked lists, the same trick a FAT
filesystem uses for cluster chains: ``heads[cell]`` is the first particle in
that cell (or END), and ``next[i]`` links particle ``i`` to the next particle
sharing its cell. Rebuilding the index each step touches no allocator once
the arrays exist, which is the whole point of the layout.

This is the only module that knows cell geometry. One clamp
(``_axis_cell``) maps a position to its cell for index builds, point lookups
and query cubes alike; positions outside the grid region clamp to the
boundary cells, so queries stay complete for an unbounded scene. One query,
``SpatialIndex.within``, serves every neighbour sum (SPH phases, field
evaluation, volume rendering); ``neighbor_candidates`` is the unfiltered
reference enumerator over the same cells in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

END = -1


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
    cubes all go through it, so they agree on the cell of every position.
    """
    if v < origin:
        return 0
    i = int((v - origin) * inv)
    return i if i < n else n - 1


def cell_coords(x: float, y: float, z: float, grid: GridSpec) -> tuple[int, int, int]:
    """Clamped integer cell coordinates of a point."""
    ox, oy, oz = grid.origin
    nx, ny, nz = grid.dims
    inv = 1.0 / grid.cell_size
    return (_axis_cell(x, ox, inv, nx), _axis_cell(y, oy, inv, ny),
            _axis_cell(z, oz, inv, nz))


def cell_of(position: Sequence[float], grid: GridSpec) -> int:
    """Linear cell index ``ix + nx*(iy + ny*iz)`` of a (possibly clamped) point."""
    x, y, z = position
    ix, iy, iz = cell_coords(x, y, z, grid)
    nx, ny, _ = grid.dims
    return ix + nx * (iy + ny * iz)


class SpatialIndex:
    """Per-cell particle chains over a :class:`GridSpec`.

    ``build`` may be called repeatedly; after the first call over a given
    particle count it reuses the two arrays in place.
    """

    __slots__ = ("grid", "heads", "next", "_empty_heads")

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.heads: list[int] = [END] * grid.cell_count
        self.next: list[int] = []
        self._empty_heads = [END] * grid.cell_count

    def build(self, particles: Sequence) -> "SpatialIndex":
        """Insert all particles in ascending order (prepend per cell).

        Inserting 0..n-1 leaves each chain in descending particle order;
        the order is fixed by this algorithm, so two builds over the same
        particle array produce identical chains.
        """
        self.heads[:] = self._empty_heads
        n = len(particles)
        nxt = self.next
        if len(nxt) != n:
            del nxt[:]
            nxt.extend([END] * n)
        heads = self.heads
        grid = self.grid
        ox, oy, oz = grid.origin
        nx, ny, nz = grid.dims
        inv = 1.0 / grid.cell_size
        axis = _axis_cell
        for i in range(n):
            p = particles[i]
            c = (axis(p.x, ox, inv, nx)
                 + nx * (axis(p.y, oy, inv, ny) + ny * axis(p.z, oz, inv, nz)))
            nxt[i] = heads[c]
            heads[c] = i
        return self

    def within(self, particles: Sequence, x: float, y: float, z: float,
               radius: float) -> list[tuple]:
        """Every particle strictly closer than ``radius`` to ``(x, y, z)``.

        Entries are ``(q, dx, dy, dz, r2)`` with ``dx = x - q.x`` (likewise
        for y and z) and ``r2 = dx*dx + dy*dy + dz*dz``, in the order of
        :func:`neighbor_candidates`. Every neighbour sum in the package runs
        through this one walk, so host and device add the same terms in the
        same order and get the same bits.
        """
        x0, x1, y0, y1, z0, z1 = cell_range((x, y, z), radius, self.grid)
        nx, ny, _ = self.grid.dims
        heads = self.heads
        nxt = self.next
        r2max = radius * radius
        found: list[tuple] = []
        add = found.append
        for iz in range(z0, z1 + 1):
            zb = ny * iz
            for iy in range(y0, y1 + 1):
                rb = nx * (iy + zb)
                for j in heads[rb + x0:rb + x1 + 1]:
                    while j != END:
                        q = particles[j]
                        dx = x - q.x
                        dy = y - q.y
                        dz = z - q.z
                        r2 = dx * dx + dy * dy + dz * dz
                        if r2 < r2max:
                            add((q, dx, dy, dz, r2))
                        j = nxt[j]
        return found


def build_index(particles: Sequence, grid: GridSpec,
                index: SpatialIndex | None = None) -> SpatialIndex:
    """Build (or rebuild in place) the spatial index for a particle array."""
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
    walking each cell chain head to end. Completeness holds even for points
    outside the grid region because the cell range clamps to the boundary.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    grid = index.grid
    x0, x1, y0, y1, z0, z1 = cell_range(point, radius, grid)
    heads = index.heads
    nxt = index.next
    nx, ny, _ = grid.dims
    for iz in range(z0, z1 + 1):
        zbase = ny * iz
        for iy in range(y0, y1 + 1):
            rowbase = nx * (iy + zbase)
            for ix in range(x0, x1 + 1):
                j = heads[rowbase + ix]
                while j != END:
                    yield j
                    j = nxt[j]
