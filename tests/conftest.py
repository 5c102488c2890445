"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's spatial index and loop
structure: neighbor sets by all-pairs distance, field sums by direct
summation over every particle. They are the reference the indexed paths are
checked against.
"""

import math
import random
import struct

import pytest

from hybridsph.sph import Particle, kernel_dw, kernel_w


def particle_bits(p: Particle) -> bytes:
    """Bit pattern of every field; NaN-safe equality support."""
    return struct.pack("<QI12d", p.id, p.material, p.x, p.y, p.z, p.mass,
                       p.density, p.pressure, p.vx, p.vy, p.vz,
                       p.ax, p.ay, p.az)


def as_particles(array) -> list:
    """The records of a particle array as ``Particle`` objects, whose fields
    the oracles read at plain-attribute speed."""
    return [Particle(*r) for r in array.tolist()]


def particles_equal_bits(a: list, b: list) -> bool:
    return (len(a) == len(b)
            and all(particle_bits(p) == particle_bits(q) for p, q in zip(a, b)))


def random_particles(n: int, seed: int, span: float = 1.0,
                     equal_mass: bool = True) -> list:
    rng = random.Random(seed)
    parts = []
    for i in range(n):
        parts.append(Particle(
            id=i, material=rng.randrange(3),
            x=rng.uniform(-span, span), y=rng.uniform(-span, span),
            z=rng.uniform(-span, span),
            mass=1.0 / n if equal_mass else rng.uniform(0.5, 2.0) / n))
    return parts


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def brute_neighbors(particles, point, radius) -> set:
    """All-pairs neighbor set: indices strictly within radius of point."""
    x, y, z = point
    out = set()
    for j, p in enumerate(particles):
        if (p.x - x) ** 2 + (p.y - y) ** 2 + (p.z - z) ** 2 < radius * radius:
            out.add(j)
    return out


def brute_density(particles, point, h) -> float:
    x, y, z = point
    total = 0.0
    for p in particles:
        r2 = (p.x - x) ** 2 + (p.y - y) ** 2 + (p.z - z) ** 2
        if r2 < h * h:
            total += p.mass * kernel_w(math.sqrt(r2), h)
    return total


def brute_field(particles, point, h, accessor) -> float:
    x, y, z = point
    total = 0.0
    for p in particles:
        r2 = (p.x - x) ** 2 + (p.y - y) ** 2 + (p.z - z) ** 2
        if r2 < h * h:
            total += p.mass * accessor(p) / p.density * kernel_w(math.sqrt(r2), h)
    return total


def brute_pressure_accel(particles, i, h) -> tuple:
    """All-pairs symmetric pressure acceleration added to particle i."""
    pi = particles[i]
    self_term = pi.pressure / (pi.density * pi.density)
    ax = ay = az = 0.0
    for j, pj in enumerate(particles):
        if j == i:
            continue
        dx = pi.x - pj.x
        dy = pi.y - pj.y
        dz = pi.z - pj.z
        r2 = dx * dx + dy * dy + dz * dz
        if not 0.0 < r2 < h * h:
            continue
        r = math.sqrt(r2)
        coef = (pj.mass * (self_term + pj.pressure / (pj.density * pj.density))
                * kernel_dw(r, h) / r)
        ax -= coef * dx
        ay -= coef * dy
        az -= coef * dz
    return ax, ay, az


def brute_gravity_at(particles, point, G, epsilon) -> tuple:
    cx, cy, cz = point
    gx = gy = gz = 0.0
    for p in particles:
        dx = p.x - cx
        dy = p.y - cy
        dz = p.z - cz
        r2 = dx * dx + dy * dy + dz * dz + epsilon * epsilon
        w = G * p.mass / (r2 * math.sqrt(r2))
        gx += w * dx
        gy += w * dy
        gz += w * dz
    return gx, gy, gz


def lone_particle_positions(params) -> list:
    """The world-box center plus one point 2h past the middle of each of the
    box's six faces: positions whose neighbourhood must still hold the
    particle itself, because queries clamp to the boundary cells."""
    lo, hi = params.world_box
    center = tuple((a + b) / 2 for a, b in zip(lo, hi))
    out = [center]
    for axis in range(3):
        for face in (lo[axis] - 2 * params.h, hi[axis] + 2 * params.h):
            pt = list(center)
            pt[axis] = face
            out.append(tuple(pt))
    return out


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


@pytest.fixture(scope="session")
def golden_scene():
    """``make_scene(3000, seed=7)`` after two host-only steps, inside the
    world box. Shared read-only by the golden-digest tests."""
    from hybridsph.sph import make_scene, simulation_step
    state = make_scene(3000, seed=7)
    for _ in range(2):
        simulation_step(state, [], host_workers=2)
    return state


@pytest.fixture
def tiny_link():
    from hybridsph.transport import LinkConfig
    return LinkConfig()
