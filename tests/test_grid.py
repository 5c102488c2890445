"""Spatial index: cell mapping, chain structure, neighbor completeness."""

import random

import pytest

from hybridsph.grid import (END, GridSpec, build_index, cell_of,
                            neighbor_candidates)
from hybridsph.sph import Particle

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


class TestBuildIndex:
    def test_empty_scene_all_heads_end(self):
        index = build_index([], GRID)
        assert all(h == END for h in index.heads)
        assert index.next == []

    def test_prepend_order_in_one_cell(self):
        parts = [make_particle(i, 0.1, 0.1, 0.1) for i in range(3)]
        index = build_index(parts, GRID)
        c = cell_of((0.1, 0.1, 0.1), GRID)
        # inserted 0,1,2 with prepend: chain is 2 -> 1 -> 0 -> END
        assert index.heads[c] == 2
        assert index.next[2] == 1
        assert index.next[1] == 0
        assert index.next[0] == END

    def test_membership_matches_brute_force_assignment(self):
        parts = random_particles(500, seed=11)
        index = build_index(parts, GRID)
        # walk every chain and confirm each member maps to that cell
        seen = set()
        chain_total = 0
        for c, head in enumerate(index.heads):
            j = head
            while j != END:
                assert cell_of((parts[j].x, parts[j].y, parts[j].z), GRID) == c
                assert j not in seen, "particle appears in two chains"
                seen.add(j)
                chain_total += 1
                j = index.next[j]
        assert chain_total == len(parts)

    def test_zero_allocation_rebuild(self):
        parts = random_particles(200, seed=5)
        index = build_index(parts, GRID)
        heads_obj, next_obj = index.heads, index.next
        for p in parts:
            p.x += 0.01
        rebuilt = build_index(parts, GRID, index)
        assert rebuilt is index
        assert rebuilt.heads is heads_obj
        assert rebuilt.next is next_obj
        assert len(rebuilt.heads) == GRID.cell_count
        assert len(rebuilt.next) == len(parts)

    def test_rebuild_replaces_stale_chains(self):
        parts = [make_particle(0, -0.9, -0.9, -0.9)]
        index = build_index(parts, GRID)
        old_cell = cell_of((-0.9, -0.9, -0.9), GRID)
        parts[0].x = 0.9
        build_index(parts, GRID, index)
        new_cell = cell_of((0.9, -0.9, -0.9), GRID)
        assert index.heads[old_cell] == END
        assert index.heads[new_cell] == 0

    def test_determinism(self):
        parts = random_particles(300, seed=9)
        a = build_index(parts, GRID)
        b = build_index(parts, GridSpec(GRID.origin, GRID.cell_size, GRID.dims))
        assert a.heads == b.heads
        assert a.next == b.next


class TestNeighborCandidates:
    def test_contained_query_yields_cell_members(self):
        # neighbors confined to one cell, radius below cell size
        parts = [make_particle(0, 0.11, 0.11, 0.11),
                 make_particle(1, 0.14, 0.11, 0.11),
                 make_particle(2, 0.9, 0.9, 0.9)]
        index = build_index(parts, GRID)
        got = set(neighbor_candidates(index, (0.12, 0.11, 0.11), 0.05))
        assert {0, 1} <= got
        assert 2 not in got

    def test_completeness_vs_brute_force(self):
        parts = random_particles(500, seed=21)
        index = build_index(parts, GRID)
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
        index = build_index(parts, GRID)
        got = set(neighbor_candidates(index, (-1.5, -1.5, -1.5), 0.9))
        assert got == {0}

    def test_rejects_nonpositive_radius(self):
        index = build_index([], GRID)
        with pytest.raises(ValueError):
            list(neighbor_candidates(index, (0, 0, 0), 0.0))


class TestWithin:
    def test_is_candidates_filtered_in_chain_order(self):
        # Scene and query points spill past every face of the grid.
        parts = random_particles(500, seed=33, span=1.4)
        index = build_index(parts, GRID)
        rng = random.Random(78)
        radius = 0.2
        for _ in range(200):
            x, y, z = (rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6),
                       rng.uniform(-1.6, 1.6))
            got = index.within(parts, x, y, z, radius)
            expected = brute_neighbors(parts, (x, y, z), radius)
            order = [q.id for q, *_ in got]  # ids equal indices here
            assert order == [j for j in neighbor_candidates(
                index, (x, y, z), radius) if j in expected]
            assert set(order) == expected
            for q, dx, dy, dz, r2 in got:
                assert (dx, dy, dz) == (x - q.x, y - q.y, z - q.z)
                assert r2 == dx * dx + dy * dy + dz * dz
