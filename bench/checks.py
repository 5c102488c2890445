"""Output checks for the benchmark: brute-force oracles and pixel recompute.

Nothing here compares against stored digests. A step is checked against
all-pairs sums over the particles it started from; a frame is checked by
recomputing sampled pixels through ``render.composite_ray``. A change that
legitimately moves bits (a different summation order, a new gravity
evaluation) still passes, because tolerances scale with the magnitude of the
summed terms rather than with the result, which can cancel to near zero.
"""

from __future__ import annotations

import math
import random

import numpy as np

from hybridsph import grid, render, sph

SPH_TOL = 1e-12        # density / pressure force oracles (criterion 2)
GRAVITY_TOL = 1e-10    # gravity field oracle


class Scene:
    """Column arrays of a step's starting particles, for all-pairs sums."""

    def __init__(self, particles):
        self.n = len(particles)
        self.x = np.array([p.x for p in particles])
        self.y = np.array([p.y for p in particles])
        self.z = np.array([p.z for p in particles])
        self.mass = np.array([p.mass for p in particles])
        self.v = [(p.vx, p.vy, p.vz) for p in particles]

    def in_range(self, x, y, z, h):
        """Indices strictly within h of a point, and their offsets point-q.

        The offsets are formed in the program's own order (dx*dx + dy*dy)
        + dz*dz, so the cut at r == h falls on the same side."""
        dx = x - self.x
        dy = y - self.y
        dz = z - self.z
        r2 = dx * dx + dy * dy + dz * dz
        idx = np.nonzero(r2 < h * h)[0]
        return idx, dx[idx], dy[idx], dz[idx], r2[idx]


def _close(got, want, scale, tol):
    return abs(got - want) <= tol * max(scale, abs(want), abs(got), 1e-300)


def check_step(start: Scene, state: sph.SimulationState, samples) -> list[str]:
    """Check one step's densities, pressures, gravity and pressure forces
    on the sampled particles.

    ``start`` holds the positions, masses and velocities the step began
    with; ``state`` is the state after the step. Density and pressure
    survive phase 4 unchanged. Acceleration is reset by phase 4, so it is
    read back as (v_after - v_before) / dt, which is exact to a few ulp.
    """
    params = state.params
    h, dt = params.h, params.dt
    parts = state.particles
    gravity = state.gravity
    ggrid = gravity.grid
    eps2 = params.epsilon * params.epsilon
    errors: list[str] = []
    for i in samples:
        px, py, pz = start.x[i], start.y[i], start.z[i]
        p = parts[i]
        idx, dx, dy, dz, r2 = start.in_range(px, py, pz, h)

        terms = [start.mass[j] * sph.kernel_w(math.sqrt(r), h)
                 for j, r in zip(idx, r2)]
        rho = math.fsum(terms)
        if not _close(p.density, rho, math.fsum(map(abs, terms)), SPH_TOL):
            errors.append(f"particle {i}: density {p.density!r} != {rho!r}")
        if not _close(p.pressure, params.k_eos * p.density, 0.0, SPH_TOL):
            errors.append(f"particle {i}: pressure {p.pressure!r} is not "
                          f"k_eos * density")

        # Gravity at the centre of the particle's cell, all pairs.
        ix, iy, iz = grid.cell_coords(px, py, pz, ggrid)
        cs = ggrid.cell_size
        cx = ggrid.origin[0] + (ix + 0.5) * cs
        cy = ggrid.origin[1] + (iy + 0.5) * cs
        cz = ggrid.origin[2] + (iz + 0.5) * cs
        gx_, gy_, gz_ = start.x - cx, start.y - cy, start.z - cz
        gr2 = gx_ * gx_ + gy_ * gy_ + gz_ * gz_ + eps2
        w = params.G * start.mass / (gr2 * np.sqrt(gr2))
        g = gravity.sample(px, py, pz)
        for axis, d in enumerate((gx_, gy_, gz_)):
            want = math.fsum(w * d)
            if not _close(g[axis], want, float(np.sum(np.abs(w * d))),
                          GRAVITY_TOL):
                errors.append(f"particle {i}: gravity[{axis}] {g[axis]!r} "
                              f"!= {want!r}")

        # Pressure force, all pairs except zero separation.
        self_term = p.pressure / (p.density * p.density)
        acc = [[g[0]], [g[1]], [g[2]]]
        for j, ddx, ddy, ddz, rr in zip(idx, dx, dy, dz, r2):
            if rr <= 0.0:
                continue
            q = parts[j]
            r = math.sqrt(rr)
            coef = (q.mass * (self_term + q.pressure / (q.density * q.density))
                    * sph.kernel_dw(r, h) / r)
            acc[0].append(-coef * ddx)
            acc[1].append(-coef * ddy)
            acc[2].append(-coef * ddz)
        v0 = start.v[i]
        for axis, v1 in enumerate((p.vx, p.vy, p.vz)):
            got = (v1 - v0[axis]) / dt
            want = math.fsum(acc[axis])
            scale = math.fsum(map(abs, acc[axis]))
            if not _close(got, want, scale, SPH_TOL):
                errors.append(f"particle {i}: acceleration[{axis}] {got!r} "
                              f"!= {want!r}")
    return errors


def neighbor_walk(start: Scene, state: sph.SimulationState, samples):
    """(candidates visited, candidates in range) of ``grid.neighbor_candidates``
    over the sampled particles, against the index the step built."""
    h = state.params.h
    h2 = h * h
    visited = in_range = 0
    for i in samples:
        px, py, pz = start.x[i], start.y[i], start.z[i]
        for j in grid.neighbor_candidates(state.index, (px, py, pz), h):
            visited += 1
            dx = px - start.x[j]
            dy = py - start.y[j]
            dz = pz - start.z[j]
            if dx * dx + dy * dy + dz * dz < h2:
                in_range += 1
    return visited, in_range


def read_ppm(path) -> tuple[int, int, bytes]:
    data = open(path, "rb").read()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 image")
    w, h = (int(v) for v in dims.split())
    if len(pixels) != 3 * w * h:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for {w}x{h}")
    return w, h, pixels


def _quantize(c: float) -> int:
    # The 8-bit encoding of a linear channel value, as the frames store it.
    if c <= 0.0:
        return 0
    if c >= 1.0:
        return 255
    return int(c * 255.0 + 0.5)


def pick_pixels(rng: random.Random, w: int, h: int, pixels: bytes,
                lit: int = 12, anywhere: int = 4) -> list[tuple[int, int]]:
    """Mostly pixels the nebula covers, plus a few from anywhere."""
    covered = [k for k in range(w * h) if any(pixels[3 * k:3 * k + 3])]
    chosen = rng.sample(covered, min(lit, len(covered)))
    chosen += rng.sample(range(w * h), min(anywhere, w * h))
    return [(k % w, k // w) for k in chosen]


def check_frame(snapshot: sph.SimulationState, camera: render.Camera,
                path, rng: random.Random) -> list[str]:
    """Recompute sampled pixels of a written frame from the snapshot it was
    rendered from; every byte must match."""
    w, h, pixels = read_ppm(path)
    if (w, h) != camera.resolution:
        return [f"{path}: {w}x{h}, expected {camera.resolution}"]
    params = render.RenderParams()
    errors = []
    for px, py in pick_pixels(rng, w, h, pixels):
        rgb = render.composite_ray(snapshot, render.generate_ray(camera, px, py),
                                   params)
        want = bytes(_quantize(c) for c in rgb)
        off = 3 * (w * py + px)
        if pixels[off:off + 3] != want:
            errors.append(f"pixel ({px},{py}): {pixels[off:off + 3].hex()} "
                          f"!= {want.hex()}")
    return errors
