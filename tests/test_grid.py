"""Spatial index: cell mapping, cell-sorted order, neighbor completeness,
and the array twins of the clamp and the neighbour query."""

import math
import random

import numpy as np
import pytest

from hybridsph.grid import (GridSpec, build_index, cell_coords,
                            cell_coords_array, cell_of, neighbor_candidates)
from hybridsph.sph import Particle, particle_array

from conftest import brute_neighbors, random_particles


GRID = GridSpec(origin=(-1.0, -1.0, -1.0), cell_size=0.25, dims=(8, 8, 8))


def make_particle(i, x, y, z):
    return Particle(id=i, material=0, x=x, y=y, z=z, mass=1.0)


class TestCellOf:
    def test_origin_corner_is_cell_zero(self):
        assert cell_of((-1.0, -1.0, -1.0), GRID) == 0

    def test_direct_formula(self):
        grid = GridSpec(origin=(0.0, 0.0, 0.0), cell_size=1.0, dims=(4, 4, 4))
        assert cell_of((2.5, 0.0, 0.0), grid) == 2
        assert cell_of((1.5, 2.5, 3.5), grid) == 1 + 4 * (2 + 4 * 3)

    def test_far_outside_clamps_to_boundary(self):
        grid = GridSpec(origin=(0.0, 0.0, 0.0), cell_size=1.0, dims=(4, 4, 4))
        assert cell_of((100.0, 100.0, 100.0), grid) == 4 * 4 * 4 - 1
        assert cell_of((-50.0, -50.0, -50.0), grid) == 0
        assert cell_of((-50.0, 2.5, 0.0), grid) == 0 + 4 * (2 + 4 * 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0, 0), cell_size=0.0, dims=(4, 4, 4))
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0, 0), cell_size=1.0, dims=(0, 4, 4))


def cell_members(index, c):
    return index.order[index.start[c]:index.start[c + 1]]


class TestBuildIndex:
    def test_empty_scene_all_heads_end(self):
        index = build_index(particle_array(), GRID)
        assert index.order == []
        assert index.start == [0] * (GRID.cell_count + 1)

    def test_prepend_order_in_one_cell(self):
        parts = [make_particle(i, 0.1, 0.1, 0.1) for i in range(3)]
        index = build_index(particle_array(parts), GRID)
        c = cell_of((0.1, 0.1, 0.1), GRID)
        # inside a cell, descending particle index: the order a per-cell
        # chain built by prepending in index order would walk
        assert cell_members(index, c) == [2, 1, 0]
        assert index.start[c + 1] - index.start[c] == 3

    def test_membership_matches_brute_force_assignment(self):
        parts = random_particles(500, seed=11, span=1.4)
        index = build_index(particle_array(parts), GRID)
        # every cell's slice holds exactly the particles of that cell, in
        # descending index, and each particle appears once
        seen = []
        for c in range(GRID.cell_count):
            members = cell_members(index, c)
            for j in members:
                assert cell_of((parts[j].x, parts[j].y, parts[j].z), GRID) == c
            assert members == sorted(members, reverse=True)
            seen += members
        assert seen == index.order
        assert sorted(seen) == list(range(len(parts)))

    def test_rebuild_replaces_stale_chains(self):
        parts = particle_array([make_particle(0, -0.9, -0.9, -0.9)])
        index = build_index(parts, GRID)
        old_cell = cell_of((-0.9, -0.9, -0.9), GRID)
        parts[0].x = 0.9
        assert build_index(parts, GRID, index) is index
        new_cell = cell_of((0.9, -0.9, -0.9), GRID)
        assert cell_members(index, old_cell) == []
        assert cell_members(index, new_cell) == [0]

    def test_determinism(self):
        parts = particle_array(random_particles(300, seed=9))
        a = build_index(parts, GRID)
        b = build_index(parts, GridSpec(GRID.origin, GRID.cell_size, GRID.dims))
        assert a.order == b.order
        assert a.start == b.start


class TestArrayClamp:
    @pytest.mark.parametrize("grid", [
        GRID,
        GridSpec(origin=(0.0, 0.0, 0.0), cell_size=0.3, dims=(5, 1, 7)),
        GridSpec(origin=(-2.0, -2.0, -2.0), cell_size=0.12, dims=(34, 34, 34)),
    ], ids=["8^3", "5x1x7-at-zero", "index-grid"])
    def test_matches_axis_cell(self, grid):
        values = [1e300, -1e300, -0.0, 0.0, 5e-324, -5e-324]
        for o, cs, n in zip(grid.origin, (grid.cell_size,) * 3, grid.dims):
            top = o + n * cs
            values += [o, math.nextafter(o, -math.inf),
                       math.nextafter(o, math.inf), top,
                       math.nextafter(top, -math.inf),
                       math.nextafter(top, math.inf)]
            for k in range(n + 1):
                edge = o + k * cs
                values += [edge, math.nextafter(edge, -math.inf),
                           math.nextafter(edge, math.inf)]
        rng = random.Random(5)
        values += [rng.uniform(-3.0, 3.0) for _ in range(200)]
        xs = np.array(values)
        got = cell_coords_array(xs, xs, xs, grid)
        for i, v in enumerate(values):
            assert tuple(int(a[i]) for a in got) == \
                cell_coords(v, v, v, grid), v


class TestTable:
    def test_rows_equal_within(self):
        # Scene and query points spill past every face of the grid.
        parts = random_particles(500, seed=34, span=1.4)
        array = particle_array(parts)
        index = build_index(array, GRID)
        rng = random.Random(79)
        pts = [(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6),
                rng.uniform(-1.6, 1.6)) for _ in range(300)]
        pts += [(p.x, p.y, p.z) for p in parts[:50]]
        for radius in (0.2, 0.25, 0.6):
            xs, ys, zs = (np.array(c) for c in zip(*pts))
            idx, dx, dy, dz, r2, valid = index.table(xs, ys, zs, radius)
            assert idx.shape == r2.shape == valid.shape
            for i, pt in enumerate(pts):
                want = index.within(array, *pt, radius)
                k = len(want)
                assert valid[i].tolist() == [True] * k + \
                    [False] * (valid.shape[1] - k)
                got = list(zip(idx[i, :k].tolist(), dx[i, :k].tolist(),
                               dy[i, :k].tolist(), dz[i, :k].tolist(),
                               r2[i, :k].tolist()))
                assert got == [(q.id, a, b, c, d) for q, a, b, c, d in want]

    def test_empty_index_and_no_points(self):
        index = build_index(particle_array(), GRID)
        empty = np.zeros(0)
        out = index.table(np.array([0.1]), np.array([0.2]), np.array([0.3]),
                          0.25)
        assert [a.shape for a in out] == [(1, 0)] * 6
        index = build_index(particle_array(random_particles(20, seed=3)),
                            GRID)
        out = index.table(empty, empty, empty, 0.25)
        assert [a.shape for a in out] == [(0, 0)] * 6


class TestNeighborCandidates:
    def test_contained_query_yields_cell_members(self):
        # neighbors confined to one cell, radius below cell size
        parts = [make_particle(0, 0.11, 0.11, 0.11),
                 make_particle(1, 0.14, 0.11, 0.11),
                 make_particle(2, 0.9, 0.9, 0.9)]
        index = build_index(particle_array(parts), GRID)
        got = set(neighbor_candidates(index, (0.12, 0.11, 0.11), 0.05))
        assert {0, 1} <= got
        assert 2 not in got

    def test_completeness_vs_brute_force(self):
        parts = random_particles(500, seed=21)
        index = build_index(particle_array(parts), GRID)
        rng = random.Random(77)
        radius = 0.2
        for _ in range(200):
            point = (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                     rng.uniform(-1.2, 1.2))
            expected = brute_neighbors(parts, point, radius)
            candidates = set(neighbor_candidates(index, point, radius))
            filtered = {
                j for j in candidates
                if (parts[j].x - point[0]) ** 2 + (parts[j].y - point[1]) ** 2
                + (parts[j].z - point[2]) ** 2 < radius * radius}
            assert filtered == expected

    def test_point_outside_grid_region_is_complete(self):
        parts = [make_particle(0, -0.999, -0.999, -0.999)]
        index = build_index(particle_array(parts), GRID)
        got = set(neighbor_candidates(index, (-1.5, -1.5, -1.5), 0.9))
        assert got == {0}

    def test_rejects_nonpositive_radius(self):
        index = build_index(particle_array(), GRID)
        with pytest.raises(ValueError):
            list(neighbor_candidates(index, (0, 0, 0), 0.0))


class TestWithin:
    def test_is_candidates_filtered_in_chain_order(self):
        # Scene and query points spill past every face of the grid.
        parts = random_particles(500, seed=33, span=1.4)
        array = particle_array(parts)
        index = build_index(array, GRID)
        rng = random.Random(78)
        radius = 0.2
        for _ in range(200):
            x, y, z = (rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6),
                       rng.uniform(-1.6, 1.6))
            got = index.within(array, x, y, z, radius)
            expected = brute_neighbors(parts, (x, y, z), radius)
            order = [q.id for q, *_ in got]  # ids equal indices here
            assert order == [j for j in neighbor_candidates(
                index, (x, y, z), radius) if j in expected]
            assert set(order) == expected
            for q, dx, dy, dz, r2 in got:
                assert (dx, dy, dz) == (x - q.x, y - q.y, z - q.z)
                assert r2 == dx * dx + dy * dy + dz * dz
