"""Kernel, field sums, gravity, the four phases and their array forms, and
step-level properties."""

import copy
import hashlib
import math
import random
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from hybridsph import runtime, sph
from hybridsph.grid import GridSpec, SpatialIndex
from hybridsph.runtime import DeviceSpec, hybrid_for_each
from hybridsph.sph import (BLOCK_ROWS, DensityGravityAction, IntegrateAction,
                           Particle, PressureForceAction, SimParams,
                           SimulationState, build_gravity_field,
                           field_property, kernel_dw, kernel_dw_array,
                           kernel_w, kernel_w_array, make_scene,
                           particle_array, phase1_prepare,
                           phase2_density_gravity, phase3_pressure,
                           phase4_integrate, simulation_step)
from hybridsph.transport import LinkConfig
from hybridsph.wire import decode_functor, encode_functor

from conftest import (brute_density, brute_field, brute_gravity_at,
                      brute_pressure_accel, lone_particle_positions,
                      particle_bits, random_particles, rel_err)


def prepared_state(n, seed, params=None, equal_mass=True, span=0.8):
    """Random particles inside the world box with phases 1-2 applied."""
    params = params or SimParams()
    rng = random.Random(seed)
    parts = []
    for i in range(n):
        parts.append(Particle(
            id=i, material=rng.randrange(3),
            x=rng.uniform(-span, span), y=rng.uniform(-span, span),
            z=rng.uniform(-span, span),
            mass=(1.0 / n) if equal_mass else rng.uniform(0.5, 2.0) / n))
    state = SimulationState(particles=parts, params=params)
    phase1_prepare(state)
    for p in state.particles:
        phase2_density_gravity(state, p)
    return state


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

class TestKernel:
    def test_compact_support_boundary(self):
        h = 0.37
        assert kernel_w(h, h) == 0.0
        assert kernel_w(2 * h, h) == 0.0
        assert kernel_dw(h, h) == 0.0

    def test_center_value(self):
        for h in (0.1, 0.37, 2.0):
            assert rel_err(kernel_w(0.0, h), 8.0 / (math.pi * h**3)) < 1e-15

    def test_half_radius_value(self):
        # M(1/2) = 1 - 1.5 + 0.75 = 0.25, so W = 2/(pi h^3)
        h = 0.25
        assert rel_err(kernel_w(h / 2, h), 2.0 / (math.pi * h**3)) < 1e-15

    def test_branch_continuity_exact(self):
        # Both branch polynomials evaluated at the seams must agree to 0 ulp
        # (shared prefactor, so the polynomial values decide continuity).
        for h in (0.12, 1.0, 3.5):
            pref = 8.0 / (math.pi * h * h * h)
            lo_half = pref * (1.0 - 6.0 * 0.25 + 6.0 * 0.125)
            hi_half = pref * (2.0 * 0.5**3)
            assert lo_half == hi_half
            assert kernel_w(0.5 * h, h) == lo_half
            assert kernel_w(1.0 * h, h) == 0.0 == pref * 2.0 * (1.0 - 1.0) ** 3
            dpref = 8.0 / (math.pi * h * h * h * h)
            dlo = dpref * (-12.0 * 0.5 + 18.0 * 0.25)
            dhi = dpref * (-6.0 * 0.25)
            assert dlo == dhi
            assert kernel_dw(0.5 * h, h) == dlo

    def test_derivative_at_zero(self):
        assert kernel_dw(0.0, 1.3) == 0.0

    def test_derivative_sign(self):
        h = 1.0
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert kernel_dw(x * h, h) <= 0.0

    def test_normalization_by_quadrature(self):
        # Integral of 4 pi r^2 W(r, h) over [0, h] must be 1. The integrand
        # is piecewise-polynomial of degree 5, so 10-point Gauss-Legendre on
        # each branch integrates it exactly.
        nodes, weights = np.polynomial.legendre.leggauss(10)
        for h in (0.12, 1.0, 4.0):
            total = 0.0
            for a, b in ((0.0, h / 2), (h / 2, h)):
                mid = (a + b) / 2
                halfw = (b - a) / 2
                for t, wgt in zip(nodes, weights):
                    r = mid + halfw * t
                    total += wgt * halfw * 4 * math.pi * r * r * kernel_w(r, h)
            assert abs(total - 1.0) < 1e-9

    def test_derivative_matches_central_differences(self):
        rng = random.Random(4242)
        h = 0.8
        delta = 1e-6 * h
        for _ in range(100):
            r = rng.uniform(0.01 * h, 0.99 * h)
            fd = (kernel_w(r + delta, h) - kernel_w(r - delta, h)) / (2 * delta)
            assert rel_err(fd, kernel_dw(r, h)) < 1e-6


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

class TestFieldProperty:
    def test_empty_region_is_zero(self):
        state = prepared_state(10, seed=1)
        assert field_property((50.0, 50.0, 50.0), state,
                              lambda p: p.density) == 0.0

    def test_single_particle_density_accessor(self):
        params = SimParams()
        p = Particle(id=0, material=0, x=0.1, y=0.2, z=0.3, mass=2.5)
        state = SimulationState(particles=[p], params=params)
        phase1_prepare(state)
        state.particles[0].density = 1.7  # any positive value; d_j cancels
        got = field_property((0.1, 0.2, 0.3), state, lambda q: q.density)
        assert rel_err(got, 2.5 * kernel_w(0.0, params.h)) < 1e-15

    def test_matches_brute_force_scalar(self):
        for seed in range(5):
            state = prepared_state(200, seed=seed)
            rng = random.Random(seed + 100)
            for _ in range(20):
                pt = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
                got = field_property(pt, state, lambda p: p.pressure)
                want = brute_field(state.particles, pt, state.params.h,
                                   lambda p: p.pressure)
                assert rel_err(got, want) < 1e-12

    def test_vector_accessor(self):
        state = prepared_state(150, seed=8, span=0.3)
        anchor = state.particles[42]
        pt = (anchor.x, anchor.y, anchor.z)  # at least one contributor
        got = field_property(pt, state, lambda p: (p.vx, p.mass, p.density))
        assert isinstance(got, tuple) and len(got) == 3
        want1 = brute_field(state.particles, pt, state.params.h,
                            lambda p: p.mass)
        assert rel_err(got[1], want1) < 1e-12


# ---------------------------------------------------------------------------
# Gravity field
# ---------------------------------------------------------------------------

def whole_column_gravity_field(particles, grid, G, epsilon):
    """The field as one ``(particles, cells)`` array program per block of
    32 cells, summed down whole columns: the reference for the tiles."""
    ncells = grid.cell_count
    if len(particles) == 0:
        return np.zeros((ncells, 3))
    px, py, pz, mass = particles.x, particles.y, particles.z, particles.mass
    nx, ny, nz = grid.dims
    ox, oy, oz = grid.origin
    cs = grid.cell_size
    iz, iy, ix = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    cx = ox + (ix.ravel() + 0.5) * cs
    cy = oy + (iy.ravel() + 0.5) * cs
    cz = oz + (iz.ravel() + 0.5) * cs
    if ncells == 1:
        cx, cy, cz = (np.repeat(c, 2) for c in (cx, cy, cz))
    m = len(cx)
    edges = list(range(0, m, 32))
    if m - edges[-1] == 1 and len(edges) > 1:
        edges.pop()
    edges.append(m)
    eps2 = epsilon * epsilon
    gm = (G * mass)[:, None]
    out = np.empty((m, 3))
    for s, e in zip(edges, edges[1:]):
        dx = px[:, None] - cx[None, s:e]
        dy = py[:, None] - cy[None, s:e]
        dz = pz[:, None] - cz[None, s:e]
        r2 = dx * dx + dy * dy + dz * dz
        r2 += eps2
        w = gm / (r2 * np.sqrt(r2))
        out[s:e, 0] = (w * dx).sum(axis=0)
        out[s:e, 1] = (w * dy).sum(axis=0)
        out[s:e, 2] = (w * dz).sum(axis=0)
    return out[:ncells]


class TestGravityField:
    GRID = GridSpec(origin=(-1.0, -1.0, -1.0), cell_size=0.5, dims=(4, 4, 4))

    def cell_center(self, ix, iy, iz):
        return (-1.0 + (ix + 0.5) * 0.5, -1.0 + (iy + 0.5) * 0.5,
                -1.0 + (iz + 0.5) * 0.5)

    def test_particle_at_cell_center_contributes_zero_there(self):
        c = self.cell_center(1, 1, 1)
        p = Particle(id=0, material=0, x=c[0], y=c[1], z=c[2], mass=3.0)
        field = build_gravity_field(particle_array([p]), self.GRID, G=1.0,
                                    epsilon=0.05)
        assert field.sample(*c) == (0.0, 0.0, 0.0)

    def test_symmetric_pair_cancels_at_center(self):
        c = self.cell_center(2, 1, 3)
        pair = [Particle(id=0, material=0, x=c[0] + 0.125, y=c[1], z=c[2],
                         mass=1.0),
                Particle(id=1, material=0, x=c[0] - 0.125, y=c[1], z=c[2],
                         mass=1.0)]
        field = build_gravity_field(particle_array(pair), self.GRID, G=2.0,
                                    epsilon=0.01)
        assert field.sample(*c) == (0.0, 0.0, 0.0)

    def test_far_field_matches_point_mass(self):
        # magnitude ~ G m / d^2 within 1% when eps <= d/100
        grid = GridSpec(origin=(0.0, 0.0, 0.0), cell_size=1.0, dims=(2, 1, 1))
        center = (0.5, 0.5, 0.5)
        d = 10.0
        p = Particle(id=0, material=0, x=center[0] + d, y=center[1],
                     z=center[2], mass=4.0)
        field = build_gravity_field(particle_array([p]), grid, G=1.5,
                                    epsilon=d / 100)
        gx, gy, gz = field.sample(*center)
        mag = math.sqrt(gx * gx + gy * gy + gz * gz)
        assert abs(mag - 1.5 * 4.0 / d**2) / (1.5 * 4.0 / d**2) < 0.01
        assert gx > 0 and abs(gy) < 1e-15 and abs(gz) < 1e-15

    def test_matches_brute_force_at_every_cell(self):
        parts = [Particle(id=i, material=0,
                          x=random.Random(i).uniform(-1, 1),
                          y=random.Random(i + 50).uniform(-1, 1),
                          z=random.Random(i + 99).uniform(-1, 1),
                          mass=0.1 + 0.01 * i) for i in range(40)]
        field = build_gravity_field(particle_array(parts), self.GRID, G=1.0,
                                    epsilon=0.05)
        nx, ny, nz = self.GRID.dims
        for iz in range(nz):
            for iy in range(ny):
                for ix in range(nx):
                    c = self.cell_center(ix, iy, iz)
                    want = brute_gravity_at(parts, c, 1.0, 0.05)
                    got = field.sample(*c)
                    for a, b in zip(got, want):
                        assert rel_err(a, b) < 1e-10

    def test_empty_scene_zero_field(self):
        field = build_gravity_field(particle_array(), self.GRID, G=1.0,
                                    epsilon=0.05)
        assert field.cells.shape == (self.GRID.cell_count, 3)
        assert not field.cells.any()

    @pytest.mark.parametrize("dims, n, digest", [
        ((8, 8, 8), 9, "b6677abbca0d33921e6413f2678b5700"
                       "66e3af76a2f13c104158c9d0ea7a130f"),
        ((8, 8, 8), 3000, "8ca0acebf5d9526baa7cdd9fe69af170"
                          "1f1a802f58ea506a0118d73987b90b91"),
        ((5, 13, 1), 9, "47b4dd58e9024ccdb6b58ff116816ca2"
                        "711331a07f96c6810341d14d85c0b24a"),
        ((5, 13, 1), 3000, "9d688f7de6b56d39e7df223148902a92"
                           "74e61de1dbe07449ee9de7d4b9863e10"),
        ((1, 1, 1), 9, "8205828ddbe3a844a196ce44d1ee5230"
                       "1b42684394f7d6e29cce9b6beb8f3b7e"),
        ((1, 1, 1), 3000, "8a2714fd6efd9c9fb0123cf45569075d"
                          "fc423c6f255d7d968e434342fddedc3b"),
    ])
    def test_golden_field_digest(self, dims, n, digest):
        # The step digest sees the field only through accelerations. These
        # pin every cell, including a grid whose cell count (65) leaves a
        # one-cell remainder block and a grid of a single cell.
        params = SimParams(gravity_dims=dims)
        state = make_scene(n, params, seed=7)
        field = build_gravity_field(state.particles, params.gravity_grid(),
                                    params.G, params.epsilon)
        raw = struct.pack(f"<{field.cells.size}d", *field.cells.ravel())
        assert raw == field.cells.tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest

    @pytest.mark.parametrize("G", [1.0, 0.0])
    @pytest.mark.parametrize("dims", [(5, 13, 1), (1, 1, 1), (257, 1, 1)])
    @pytest.mark.parametrize("extra", [-1, 0, 1, sph._GRAVITY_TILE + 1])
    def test_tiles_equal_whole_columns(self, extra, dims, G):
        # Around one and two tiles of particles. With G = 0 every term is
        # +-0.0, and the sign of a zero sum shows where the sum started.
        # (257, 1, 1) leaves a one-column remainder of one cell block.
        n = sph._GRAVITY_TILE + extra
        params = SimParams(G=G, gravity_dims=dims)
        particles = make_scene(n, params, seed=7).particles
        grid = params.gravity_grid()
        field = build_gravity_field(particles, grid, G, params.epsilon)
        want = whole_column_gravity_field(particles, grid, G, params.epsilon)
        assert field.cells.tobytes() == want.tobytes()

    def test_working_set_is_a_few_tiles(self):
        # At 3000 particles a whole column of 256 cells is 6 MB a term.
        params = SimParams()
        particles = make_scene(3000, params, seed=7).particles
        tile_bytes = 8 * sph._GRAVITY_CHUNK * sph._GRAVITY_TILE
        tracemalloc.start()
        try:
            build_gravity_field(particles, params.gravity_grid(), params.G,
                                params.epsilon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * tile_bytes


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

class TestPhase1:
    def test_idempotent_without_motion(self):
        state = make_scene(100, seed=3)
        phase1_prepare(state)
        order1 = list(state.index.order)
        start1 = list(state.index.start)
        cells1 = state.gravity.cells.tobytes()
        phase1_prepare(state)
        assert state.index.order.tolist() == order1
        assert state.index.start.tolist() == start1
        assert state.gravity.cells.tobytes() == cells1

    def test_empty_scene(self):
        state = SimulationState(particles=[], params=SimParams())
        phase1_prepare(state)
        assert state.index.order.tolist() == []
        assert all(s == 0 for s in state.index.start)
        assert not state.gravity.cells.any()


class TestPhase2:
    def test_isolated_particle_self_density(self):
        # Also past every face of the world box: the particle's own term
        # must be found there too.
        params = SimParams()
        for x, y, z in lone_particle_positions(params):
            p = Particle(id=0, material=0, x=x, y=y, z=z, mass=0.8)
            state = SimulationState(particles=[p], params=params)
            phase1_prepare(state)
            phase2_density_gravity(state, p)
            assert rel_err(p.density, 0.8 * 8.0 / (math.pi * params.h**3)) \
                < 1e-15, (x, y, z)
            assert rel_err(p.pressure, params.k_eos * p.density) < 1e-15

    def test_pair_at_half_h(self):
        params = SimParams()
        h = params.h
        m = 0.5
        a = Particle(id=0, material=0, x=0.0, y=0.0, z=0.0, mass=m)
        b = Particle(id=1, material=0, x=h / 2, y=0.0, z=0.0, mass=m)
        state = SimulationState(particles=[a, b], params=params)
        phase1_prepare(state)
        phase2_density_gravity(state, a)
        phase2_density_gravity(state, b)
        want = m * (8.0 + 2.0) / (math.pi * h**3)
        assert rel_err(a.density, want) < 1e-12
        assert rel_err(b.density, want) < 1e-12

    def test_matches_brute_force(self):
        state = prepared_state(300, seed=17, equal_mass=False)
        for i in (0, 5, 77, 150, 299):
            p = state.particles[i]
            want = brute_density(state.particles, (p.x, p.y, p.z),
                                 state.params.h)
            assert rel_err(p.density, want) < 1e-12

    def test_gravity_sets_acceleration(self):
        state = prepared_state(50, seed=23)
        p = state.particles[0]
        want = state.gravity.sample(p.x, p.y, p.z)
        assert (p.ax, p.ay, p.az) == want


class TestPhase3:
    def test_isolated_particle_unchanged(self):
        params = SimParams()
        for x, y, z in lone_particle_positions(params):
            p = Particle(id=0, material=0, x=x, y=y, z=z, mass=1.0)
            state = SimulationState(particles=[p], params=params)
            phase1_prepare(state)
            phase2_density_gravity(state, p)
            before = (p.ax, p.ay, p.az)
            phase3_pressure(state, p)
            assert (p.ax, p.ay, p.az) == before, (x, y, z)

    def test_equal_pair_repulsive_and_antisymmetric(self):
        params = SimParams(G=1e-12)  # make gravity negligible
        h = params.h
        a = Particle(id=0, material=0, x=-h / 4, y=0.0, z=0.0, mass=0.3)
        b = Particle(id=1, material=0, x=h / 4, y=0.0, z=0.0, mass=0.3)
        state = SimulationState(particles=[a, b], params=params)
        a, b = state.particles
        phase1_prepare(state)
        for p in (a, b):
            phase2_density_gravity(state, p)
        ga, gb = (a.ax, a.ay, a.az), (b.ax, b.ay, b.az)
        for p in (a, b):
            phase3_pressure(state, p)
        fa = a.ax - ga[0]
        fb = b.ax - gb[0]
        assert fa < 0 < fb          # repulsion along the separation axis
        assert fa == -fb            # equal masses: exact antisymmetry
        assert a.ay == ga[1] and a.az == ga[2]

    def test_pairwise_term_antisymmetry_unequal_masses(self):
        # m_i * (term on i from j) vs m_j * (term on j from i): the momentum
        # contributions cancel to rounding.
        h = 0.5
        mi, mj = 0.7, 1.3
        pi_, di = 0.9, 1.1
        pj, dj = 0.4, 0.8
        r = 0.3
        sym = pi_ / di**2 + pj / dj**2
        dw = kernel_dw(r, h)
        fi = mi * (mj * sym * dw / r) * r       # x-component, j at -x of i
        fj = mj * (mi * sym * dw / r) * -r
        assert rel_err(fi, -fj) < 1e-15

    def test_matches_brute_force(self):
        state = prepared_state(300, seed=31, equal_mass=False)
        snapshot = [particle_bits(p) for p in state.particles]
        for i in (0, 13, 77, 299):
            p = state.particles[i]
            base = (p.ax, p.ay, p.az)
            want = brute_pressure_accel(state.particles, i, state.params.h)
            phase3_pressure(state, p)
            assert rel_err(p.ax, base[0] + want[0]) < 1e-12
            assert rel_err(p.ay, base[1] + want[1]) < 1e-12
            assert rel_err(p.az, base[2] + want[2]) < 1e-12
        # untouched particles keep their exact snapshot
        assert particle_bits(state.particles[1]) == snapshot[1]

    def test_coincident_pair_contributes_zero(self):
        params = SimParams()
        a = Particle(id=0, material=0, x=0.1, y=0.1, z=0.1, mass=1.0)
        b = Particle(id=1, material=0, x=0.1, y=0.1, z=0.1, mass=1.0)
        state = SimulationState(particles=[a, b], params=params)
        phase1_prepare(state)
        for p in (a, b):
            phase2_density_gravity(state, p)
        ax0 = a.ax
        phase3_pressure(state, a)
        assert a.ax == ax0 and math.isfinite(a.ax)


def phases_both_ways(particles, params, seed=0):
    """Phases 1-3 on two copies of ``particles``: through the step's
    actions (``apply_block`` over shuffled rows, in groups of random size,
    results written to the columns the action names) and through the
    scalar reference. Returns the bytes of both after phase 2 and after
    phase 3."""
    particles = SimulationState(particles, params).particles
    fast = SimulationState(particles.copy(), params)
    ref = SimulationState(particles.copy(), params)
    phase1_prepare(fast)
    phase1_prepare(ref)
    rng = random.Random(seed)
    order = list(range(len(particles)))
    rng.shuffle(order)
    out = []
    for action, scalar in ((DensityGravityAction, phase2_density_gravity),
                           (PressureForceAction, phase3_pressure)):
        functor = action(fast)
        results = {}
        lo = 0
        while lo < len(order):
            rows = order[lo:lo + rng.randint(1, 300)]
            results.update(zip(rows, functor.apply_block(rows)))
            lo += len(rows)
        for k, name in enumerate(functor.writes):
            fast.particles[name] = [results[i][k] for i in range(len(order))]
        for p in ref.particles:
            scalar(ref, p)
        out.append((fast.particles.tobytes(), ref.particles.tobytes()))
    return out


class TestArrayPhases:
    def test_kernel_twins_equal_scalar(self):
        rng = random.Random(8)
        for h in (0.12, 1.0, 3.5):
            rs = [0.0, -0.0, h / 2, h, 2 * h, math.nextafter(h / 2, 0.0),
                  math.nextafter(h / 2, h), math.nextafter(h, 0.0),
                  math.nextafter(h, 2 * h)]
            rs += [rng.uniform(0.0, 1.2 * h) for _ in range(500)]
            w = kernel_w_array(np.array(rs), h).tolist()
            dw = kernel_dw_array(np.array(rs), h).tolist()
            for r, a, b in zip(rs, w, dw):
                assert struct.pack("<2d", a, b) == struct.pack(
                    "<2d", kernel_w(r, h), kernel_dw(r, h)), r

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3000])
    def test_actions_equal_scalar_reference(self, n):
        params = SimParams()
        scene = make_scene(n, params, seed=n)
        for fast, ref in phases_both_ways(scene.particles, params, seed=n):
            assert fast == ref

    def test_unequal_masses(self):
        parts = random_particles(400, seed=12, span=0.6, equal_mass=False)
        for fast, ref in phases_both_ways(parts, SimParams()):
            assert fast == ref

    def test_lone_particles_and_coincident_pair(self):
        params = SimParams()
        for x, y, z in lone_particle_positions(params):
            lone = [Particle(id=0, material=0, x=x, y=y, z=z, mass=0.8)]
            for fast, ref in phases_both_ways(lone, params):
                assert fast == ref, (x, y, z)
        pair = [Particle(id=i, material=0, x=0.1, y=-0.0, z=0.1, mass=1.0)
                for i in range(2)]
        for fast, ref in phases_both_ways(pair, params):
            assert fast == ref

    def test_bits_do_not_depend_on_row_grouping(self):
        state = prepared_state(600, seed=19, equal_mass=False)
        n = len(state.particles)
        shuffled = random.Random(19).sample(range(n), n)
        for action in (DensityGravityAction, PressureForceAction):
            rows = action(state).apply_block
            whole = np.array(rows(list(range(n))))
            singles = np.concatenate([np.array(rows([i])) for i in range(n)])
            assert whole.tobytes() == singles.tobytes()
            # Any order and grouping of rows gives each row the same bits.
            mixed = np.empty_like(whole)
            for lo in range(0, n, 77):
                part = shuffled[lo:lo + 77]
                mixed[part] = np.array(rows(part))
            assert mixed.tobytes() == whole.tobytes()

    def test_row_past_the_end_raises_index_error(self):
        state = prepared_state(50, seed=2)
        for action in (DensityGravityAction, PressureForceAction):
            functor = action(state)
            with pytest.raises(IndexError):
                functor.apply_block([50])
            with pytest.raises(IndexError):
                functor.apply_block([3, 50, 4])
            assert functor.apply_block([49]) == functor.apply_block([0, 49])[1:]

    def test_device_worker_import_leaves_numpy_unloaded(self):
        # A subprocess device pays for every import at each connect.
        code = ("import sys, hybridsph.device_worker; "
                "print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "False"


@pytest.fixture
def index_calls(monkeypatch):
    """Log of ``SpatialIndex.search`` and ``gather`` calls, each as
    ``(method, action)`` with ``action`` the class name of the phase's
    functor, taken from wrapping ``runtime.hybrid_for_each``. Each logged
    ``search`` result also lands in ``found`` as weak references."""
    log, found, phase = [], [], [None]
    for_each = runtime.hybrid_for_each
    search, gather = SpatialIndex.search, SpatialIndex.gather

    def logged_for_each(sequence, functor, *args, **kwargs):
        phase[0] = type(functor).__name__
        return for_each(sequence, functor, *args, **kwargs)

    def logged_search(self, *args):
        pos, counts = search(self, *args)
        log.append(("search", phase[0]))
        found.extend((weakref.ref(pos), weakref.ref(counts)))
        return pos, counts

    def logged_gather(self, *args):
        log.append(("gather", phase[0]))
        return gather(self, *args)

    monkeypatch.setattr(runtime, "hybrid_for_each", logged_for_each)
    monkeypatch.setattr(SpatialIndex, "search", logged_search)
    monkeypatch.setattr(SpatialIndex, "gather", logged_gather)
    return log, found


def row_groups(rows, rng):
    """``rows`` cut into consecutive groups of random size."""
    groups = []
    while rows:
        k = rng.randint(1, 300)
        groups.append(rows[:k])
        rows = rows[k:]
    return groups


class TestKeptTables:
    def test_host_step_searches_once_per_block(self, index_calls):
        log, found = index_calls
        n = 1000
        state = make_scene(n, seed=3)
        simulation_step(state, [], host_workers=2)
        blocks = math.ceil(n / BLOCK_ROWS)
        for name in ("DensityGravityAction", "PressureForceAction"):
            assert log.count(("gather", name)) == blocks
        assert log.count(("search", "DensityGravityAction")) == blocks
        assert log.count(("search", "PressureForceAction")) == 0
        assert len(found) == 2 * blocks
        assert all(ref() is None for ref in found)

    def test_kept_tables_give_the_bits_of_fresh_ones(self):
        # Phase 3 over groups that hit phase 2's (the same row ids in the
        # same order), miss it (the same rows reversed), or cut across it.
        n = 900
        state = make_scene(n, seed=23)
        phase1_prepare(state)
        rng = random.Random(23)
        groups2 = row_groups(rng.sample(range(n), n), rng)
        tables = {}
        density = DensityGravityAction(state, tables)
        results = {}
        for rows in groups2:
            results.update(zip(rows, density.apply_block(rows)))
        for k, name in enumerate(density.writes):
            state.particles[name] = [results[i][k] for i in range(n)]
        assert len(tables) == len(groups2)
        hits, reversed_, rest = groups2[0::3], groups2[1::3], groups2[2::3]
        rest = [i for rows in rest for i in rows]
        rng.shuffle(rest)
        groups3 = hits + [rows[::-1] for rows in reversed_]
        groups3 += row_groups(rest, rng)
        rng.shuffle(groups3)
        kept = PressureForceAction(state, tables)
        fresh = PressureForceAction(state)
        for rows in groups3:
            assert np.array(kept.apply_block(rows)).tobytes() == np.array(
                fresh.apply_block(rows)).tobytes()
        assert len(tables) == len(groups2) - len(hits)

    def test_step_with_a_device_gives_the_golden_digest(self, index_calls):
        # Host blocks of phase 3 hit where phase 2 ran the same rows on the
        # host, and search again where the device had them; how many of
        # each depends on the timing of the device.
        _, found = index_calls
        state = make_scene(3000, seed=7)
        spec = DeviceSpec(worker_count=2, link=LinkConfig())
        for _ in range(2):
            simulation_step(state, [spec], host_workers=2)
        digest = hashlib.sha256(state.particles.tobytes()).hexdigest()
        assert digest == GOLDEN_STEP_SHA256
        assert all(ref() is None for ref in found)

    def test_decoded_device_copy_keeps_nothing(self):
        state = make_scene(300, seed=4)
        phase1_prepare(state)
        tables = {}
        for action in (DensityGravityAction, PressureForceAction):
            functor = action(state, tables)
            decoded = decode_functor(functor.wire_name,
                                     encode_functor(functor))
            assert decoded.tables is None
            decoded.apply_block(list(range(BLOCK_ROWS)))
        assert tables == {}


def integrate_both_ways(particles, dt):
    """Phase 4 on ``particles`` through the step's path (``IntegrateAction``
    over row ids, ``BLOCK_ROWS`` at a time, on two host workers) and
    through ``phase4_integrate``. Asserts that both give the same bits and
    returns the integrated particles."""
    state = SimulationState(particles, SimParams())
    hybrid_for_each(list(range(len(particles))),
                    IntegrateAction(state.particles, dt), host_workers=2,
                    chunk=BLOCK_ROWS)
    want = [phase4_integrate(copy.copy(p), dt) for p in particles]
    assert state.particles.tobytes() == b"".join(map(particle_bits, want))
    return want


# -0.0, +-inf, NaNs with payloads (quiet, signalling, negative) and
# subnormals, as bit patterns.
PHASE4_SPECIALS = [struct.unpack("<d", struct.pack("<Q", bits))[0]
                   for bits in (0x8000000000000000, 0x7FF0000000000000,
                                0xFFF0000000000000, 0x7FF80000DEADBEEF,
                                0x7FF0000000000001, 0xFFF8000000C0FFEE,
                                0x0000000000000001, 0x800FFFFFFFFFFFFF)]


class TestPhase4:
    def test_free_streaming(self):
        (p,) = integrate_both_ways([
            Particle(id=0, material=0, x=1.0, y=2.0, z=3.0, mass=1.0,
                     vx=0.5, vy=-1.0, vz=0.25)], 0.1)
        assert (p.x, p.y, p.z) == (1.0 + 0.05, 2.0 - 0.1, 3.0 + 0.025)

    def test_one_step_closed_form_from_rest(self):
        dt = 0.25
        (p,) = integrate_both_ways([
            Particle(id=0, material=0, x=0.0, y=0.0, z=0.0, mass=1.0,
                     ax=2.0, ay=0.0, az=-4.0)], dt)
        assert p.x == 2.0 * dt * dt
        assert p.z == -4.0 * dt * dt
        assert (p.ax, p.ay, p.az) == (0.0, 0.0, 0.0)

    def test_zero_dt_identity_except_acc_reset(self):
        (p,) = integrate_both_ways([
            Particle(id=0, material=0, x=1.0, y=1.0, z=1.0, mass=1.0,
                     vx=3.0, ax=9.0)], 0.0)
        assert (p.x, p.vx, p.ax) == (1.0, 3.0, 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("dt", [0.1, 0.0, 5e-324])
    def test_special_values_equal_scalar_bitwise(self, dt):
        # Every pair of special velocity and acceleration, on each axis,
        # then random rows so that the call spans several blocks.
        values = PHASE4_SPECIALS + [0.0, 1.5, -3.25]
        rng = random.Random(12)
        parts = [Particle(id=i, material=0, x=rng.choice(values),
                          y=-0.0, z=1.0, mass=1.0, vx=v, vy=-a, vz=a,
                          ax=a, ay=v, az=-v)
                 for i, (v, a) in enumerate(
                     (v, a) for v in values for a in values)]
        parts += [Particle(id=len(parts) + i, material=0,
                           x=rng.uniform(-1, 1), y=rng.uniform(-1, 1),
                           z=rng.uniform(-1, 1), mass=1.0,
                           vx=rng.choice(values), vy=rng.uniform(-1, 1),
                           vz=rng.choice(values), ax=rng.choice(values),
                           ay=rng.uniform(-1, 1), az=rng.choice(values))
                  for i in range(2 * BLOCK_ROWS)]
        integrate_both_ways(parts, dt)


# ---------------------------------------------------------------------------
# Step-level properties
# ---------------------------------------------------------------------------

class TestStep:
    def test_purity_order_independence(self):
        # applying phase 2 in a permuted order yields bitwise-equal output
        state_a = prepared_state(200, seed=41)
        params = state_a.params

        rng = random.Random(1)
        state_b = prepared_state(200, seed=41)
        # recompute phase2 on fresh copies in shuffled order
        for st in (state_a, state_b):
            for p in st.particles:
                p.density = p.pressure = 0.0
        order = list(range(200))
        rng.shuffle(order)
        for p in state_a.particles:
            phase2_density_gravity(state_a, p)
        for i in order:
            phase2_density_gravity(state_b, state_b.particles[i])
        for p, q in zip(state_a.particles, state_b.particles):
            assert particle_bits(p) == particle_bits(q)

    def test_ballistic_when_forces_off(self):
        params = SimParams(G=0.0, k_eos=0.0)
        state = make_scene(80, params, seed=5)
        for p in state.particles:
            p.vx, p.vy, p.vz = 0.01, -0.02, 0.005
        before = [(p.x, p.y, p.z) for p in state.particles]
        simulation_step(state, [], host_workers=1)
        dt = params.dt
        for p, (x, y, z) in zip(state.particles, before):
            assert p.x == x + 0.01 * dt
            assert p.y == y - 0.02 * dt
            assert p.z == z + 0.005 * dt
            assert p.density > 0  # densities still computed
            assert (p.ax, p.ay, p.az) == (0.0, 0.0, 0.0)

    def test_momentum_conserved_without_gravity(self):
        params = SimParams(G=0.0)
        state = make_scene(300, params, seed=77)
        for _ in range(3):
            simulation_step(state, [], host_workers=1)
            px = sum(p.mass * p.vx for p in state.particles)
            py = sum(p.mass * p.vy for p in state.particles)
            pz = sum(p.mass * p.vz for p in state.particles)
            scale = max(sum(abs(p.mass * p.vx) for p in state.particles), 1e-30)
            assert abs(px) / scale < 1e-9
            assert abs(py) / scale < 1e-9
            assert abs(pz) / scale < 1e-9

    def test_two_particle_hand_trace(self):
        # One full step of a symmetric pair, checked against scalar arithmetic
        # done right here with library formulas but independent structure.
        params = SimParams(G=0.0, k_eos=2.0, dt=0.01)
        h = params.h
        m = 0.25
        d = h / 2
        a = Particle(id=0, material=0, x=-d / 2, y=0.0, z=0.0, mass=m)
        b = Particle(id=1, material=0, x=d / 2, y=0.0, z=0.0, mass=m)
        state = SimulationState(particles=[a, b], params=params)
        simulation_step(state, [], host_workers=1)
        a, b = state.particles

        rho = m * (kernel_w(0.0, h) + kernel_w(d, h))
        prs = 2.0 * rho
        coef = m * (prs / rho**2 + prs / rho**2) * kernel_dw(d, h) / d
        acc_b = coef * (-d)   # on b: -coef * (x_b - x_a) with x_b - x_a = d
        vel_b = -acc_b * params.dt * -1.0  # v = a * dt, pushing +x
        assert rel_err(b.density, rho) < 1e-12
        assert rel_err(b.pressure, prs) < 1e-12
        assert b.vx > 0 > a.vx
        assert rel_err(b.vx, -coef * d * params.dt) < 1e-12
        assert rel_err(b.x, d / 2 + b.vx * params.dt) < 1e-12
        assert a.vx == -b.vx

    def test_step_equivalence_across_device_counts(self):
        from hybridsph.runtime import DeviceSpec
        from hybridsph.transport import LinkConfig

        def run(specs):
            state = make_scene(250, seed=9)
            for _ in range(2):
                simulation_step(state, specs, host_workers=2)
            return [particle_bits(p) for p in state.particles]

        base = run([])
        one = run([DeviceSpec(worker_count=4, link=LinkConfig())])
        two = run([DeviceSpec(worker_count=2, link=LinkConfig()),
                   DeviceSpec(worker_count=4, link=LinkConfig())])
        assert base == one == two


    def test_world_box_smaller_than_scene(self):
        # Particles well outside the neighbour grid still see complete
        # neighbourhoods: exact densities, and a step that completes.
        params = SimParams(world_box=((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)))
        state = make_scene(200, params=params, seed=5)
        h = params.h
        assert any(max(abs(p.x), abs(p.y), abs(p.z)) > 0.5 + 2 * h
                   for p in state.particles)
        phase1_prepare(state)
        for p in state.particles:
            phase2_density_gravity(state, p)
            want = brute_density(state.particles, (p.x, p.y, p.z), h)
            assert rel_err(p.density, want) < 1e-12
        simulation_step(state, [], host_workers=2)
        assert all(math.isfinite(v) for p in state.particles
                   for v in (p.x, p.y, p.z, p.vx, p.vy, p.vz))

    def test_golden_step_digest(self, golden_scene):
        # Pins the chain order of every neighbour sum: the brute-force
        # oracles compare within a tolerance, so a reordered sum would pass
        # them. Regenerate deliberately if the physics or the order changes.
        records = golden_scene.particles.tobytes()
        assert len(records) == 108 * 3000
        assert hashlib.sha256(records).hexdigest() == GOLDEN_STEP_SHA256


GOLDEN_STEP_SHA256 = (
    "26ce5ba1c0d7a5276382f7fa1cb3f3917d63e35f71120ff0709db0e1a3f53c02")


class TestScene:
    def test_seeded_scene_reproducible(self):
        a = make_scene(100, seed=123)
        b = make_scene(100, seed=123)
        assert [particle_bits(p) for p in a.particles] == \
               [particle_bits(q) for q in b.particles]

    def test_properties(self):
        state = make_scene(500, seed=1, radius=2.0)
        assert len(state.particles) == 500
        masses = {p.mass for p in state.particles}
        assert masses == {1.0 / 500}
        for p in state.particles:
            r = math.sqrt(p.x**2 + p.y**2 + p.z**2)
            assert r <= 2.0
            band = 0 if r < 0.8 else (1 if r < 1.5 else 2)
            assert p.material == band
            assert (p.vx, p.vy, p.vz) == (0.0, 0.0, 0.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SimParams(h=0.0)
        with pytest.raises(ValueError):
            SimParams(world_box=((0, 0, 0), (0, 1, 1)))
        with pytest.raises(ValueError):
            SimParams(k_eos=-1.0)
        SimParams(G=0.0, k_eos=0.0)  # explicitly allowed
