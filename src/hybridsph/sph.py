"""SPH nebula model: cubic-spline kernel, per-particle field sums, a
grid-based gravity field, and the four-phase simulation step.

Phases 2 and 3 are pure functions of the pre-phase state snapshot: each
application reads only fields no other application writes during the same
phase (phase 2 writes density/pressure/acceleration and reads positions and
masses; phase 3 writes acceleration and reads everything phase 2 produced).
That independence is what lets a step farm particles out to host workers and
devices in any order and still produce bit-identical results.

Every field sum adds its terms in the order of ``SpatialIndex.within``,
which the particle array and the grid fully determine, so host and device
evaluate identical floating-point sequences. The scalar phase functions
(``phase2_density_gravity``, ``phase3_pressure``) are loops over that walk
and stay the reference. The step runs their array twins
(``density_gravity_rows``, ``pressure_rows``): column sums over
``SpatialIndex.table`` for a list of rows of a column snapshot
(``phase_columns``), which add the same terms in the same order and give
the same bits. The particles are one record array in the wire layout of
``Particle`` (``particle_dtype``). numpy is imported inside the functions
that use it.
"""

from __future__ import annotations

import math
import random
import struct
import time
from dataclasses import dataclass, field as dc_field, fields
from operator import attrgetter
from typing import Callable, Sequence

from .grid import GridSpec, SpatialIndex, build_index, cell_coords, cell_ids
from .wire import ByteReader, RecordCodec

_PI = math.pi
_GRAVITY_CHUNK = 32  # cells per block of the gravity sum


# ---------------------------------------------------------------------------
# Particle
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Particle:
    """One SPH particle. Field order matches the 108-byte wire layout."""

    id: int
    material: int
    x: float
    y: float
    z: float
    mass: float
    density: float = 0.0
    pressure: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    vz: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    az: float = 0.0


# id u64, material u32, then 12 f64: pos, mass, density, pressure, vel, acc.
_PARTICLE_CODES = "QI" + "d" * 12
PARTICLE_CODEC = RecordCodec("<" + _PARTICLE_CODES, Particle)
PARTICLE_WIRE_SIZE = struct.calcsize("<" + _PARTICLE_CODES)  # 108


def particle_dtype():
    """numpy dtype of one particle, built on call (importing this module
    loads no numpy): the fields of :class:`Particle` in order, each of its
    ``PARTICLE_CODEC`` type, so a record's bytes are its codec bytes."""
    import numpy as np

    return np.dtype([(f.name, "<" + code) for f, code in
                     zip(fields(Particle), _PARTICLE_CODES, strict=True)])


def particle_array(particles: Sequence[Particle] = ()):
    """The particles as one record array of :func:`particle_dtype`."""
    import numpy as np

    dtype = particle_dtype()
    values = attrgetter(*dtype.names)
    return np.array([values(p) for p in particles], dtype).view(np.recarray)


# ---------------------------------------------------------------------------
# Parameters and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimParams:
    """Simulation constants. ``world_box`` bounds the spatial grids only;
    particles are free to leave it (queries clamp to boundary cells)."""

    h: float = 0.12                      # smoothing radius
    dt: float = 0.001                    # timestep
    k_eos: float = 1.0                   # isothermal pressure stiffness
    G: float = 1.0                       # gravitational constant
    epsilon: float = 0.05                # gravity softening length
    world_box: tuple[tuple[float, float, float], tuple[float, float, float]] = (
        (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    gravity_dims: tuple[int, int, int] = (8, 8, 8)

    def __post_init__(self):
        if min(self.h, self.dt, self.epsilon) <= 0:
            raise ValueError("h, dt and epsilon must all be > 0")
        # Zero stiffness / zero gravity are legitimate test regimes
        # (ballistic motion, momentum conservation).
        if self.k_eos < 0 or self.G < 0:
            raise ValueError("k_eos and G must be >= 0")
        lo, hi = self.world_box
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("world_box must be non-degenerate")
        if any(d < 1 for d in self.gravity_dims):
            raise ValueError("gravity_dims components must be >= 1")

    def index_grid(self) -> GridSpec:
        """Neighbor grid: cell edge = h, sized to cover the world box."""
        lo, hi = self.world_box
        dims = tuple(max(1, math.ceil((b - a) / self.h)) for a, b in zip(lo, hi))
        return GridSpec(origin=lo, cell_size=self.h, dims=dims)

    def gravity_grid(self) -> GridSpec:
        """Gravity grid: cubic cells sized so the configured dims cover the box."""
        lo, hi = self.world_box
        cell = max((b - a) / d for a, b, d in zip(lo, hi, self.gravity_dims))
        return GridSpec(origin=lo, cell_size=cell, dims=self.gravity_dims)


class GravityField:
    """Force-per-mass vectors at grid cell centers, one contiguous array.

    ``cells`` is a ``(cell_count, 3)`` float64 array in x-fastest row-major
    cell order: row ``ix + nx*(iy + ny*iz)`` is ``(gx, gy, gz)``.
    """

    __slots__ = ("grid", "cells")

    def __init__(self, grid: GridSpec, cells):
        if cells.shape != (grid.cell_count, 3):
            raise ValueError("cells must have shape (cell_count, 3)")
        self.grid = grid
        self.cells = cells

    def sample(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """Field vector of the cell containing the point (nearest-cell)."""
        ix, iy, iz = cell_coords(x, y, z, self.grid)
        nx, ny, _ = self.grid.dims
        return tuple(self.cells[ix + nx * (iy + ny * iz)].tolist())


@dataclass
class SimulationState:
    """Whole problem state: particles (a :func:`particle_array`, converted
    from a :class:`Particle` list), gravity field, spatial index, params."""

    particles: Sequence
    params: SimParams
    gravity: GravityField | None = None
    index: SpatialIndex | None = None

    def __post_init__(self):
        if not hasattr(self.particles, "dtype"):
            self.particles = particle_array(self.particles)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def kernel_w(r: float, h: float) -> float:
    """Cubic-spline kernel W(r, h) = 8/(pi h^3) * M(r/h).

    M = 1 - 6x^2 + 6x^3 on [0, 1/2], 2(1-x)^3 on (1/2, 1], 0 beyond; the
    x = 0 point belongs to the first branch so W(0) = 8/(pi h^3). Compact
    support: identically zero for r > h.
    """
    x = r / h
    if x > 1.0:
        return 0.0
    if x <= 0.5:
        x2 = x * x
        m = 1.0 - 6.0 * x2 + 6.0 * x2 * x
    else:
        u = 1.0 - x
        m = 2.0 * u * u * u
    return 8.0 / (_PI * h * h * h) * m


def kernel_dw(r: float, h: float) -> float:
    """Radial derivative dW/dr = 8/(pi h^4) * M'(r/h).

    M' = -12x + 18x^2 on [0, 1/2], -6(1-x)^2 on (1/2, 1], 0 beyond.
    Non-positive everywhere on the support.
    """
    x = r / h
    if x > 1.0:
        return 0.0
    if x <= 0.5:
        m = -12.0 * x + 18.0 * x * x
    else:
        u = 1.0 - x
        m = -6.0 * u * u
    return 8.0 / (_PI * h * h * h * h) * m


def kernel_w_array(r, h: float):
    """:func:`kernel_w` over a float64 array, with the same bits per element:
    each branch is the scalar expression in its association order."""
    import numpy as np

    x = r / h
    x2 = x * x
    inner = 1.0 - 6.0 * x2 + 6.0 * x2 * x
    u = 1.0 - x
    outer = 2.0 * u * u * u
    m = np.where(x <= 0.5, inner, np.where(x > 1.0, 0.0, outer))
    return 8.0 / (_PI * h * h * h) * m


def kernel_dw_array(r, h: float):
    """:func:`kernel_dw` over a float64 array, with the same bits per element."""
    import numpy as np

    x = r / h
    inner = -12.0 * x + 18.0 * x * x
    u = 1.0 - x
    outer = -6.0 * u * u
    m = np.where(x <= 0.5, inner, np.where(x > 1.0, 0.0, outer))
    return 8.0 / (_PI * h * h * h * h) * m


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def field_property(point: Sequence[float], state: SimulationState,
                   accessor: Callable[[Particle], float | Sequence[float]]):
    """Kernel-weighted field value sum(m_j * A_j / d_j * W(|x - pos_j|, h)).

    ``accessor`` maps a particle to the property A_j, either a scalar or a
    3-sequence (the result is then a 3-tuple). Contributions accumulate in
    spatial-index order; particles at distance >= h contribute nothing.
    Densities of contributing particles must be positive (run phase 2 first
    when using a non-density accessor).
    """
    x, y, z = point
    h = state.params.h
    scalar_total = 0.0
    vec_total: list[float] | None = None
    for p, _, _, _, r2 in state.index.within(state.particles, x, y, z, h):
        w = kernel_w(math.sqrt(r2), h) * p["mass"] / p["density"]
        a = accessor(p)
        if isinstance(a, (int, float)):
            scalar_total += a * w
        else:
            if vec_total is None:
                vec_total = [0.0, 0.0, 0.0]
            vec_total[0] += a[0] * w
            vec_total[1] += a[1] * w
            vec_total[2] += a[2] * w
    if vec_total is not None:
        return tuple(vec_total)
    return scalar_total


def build_gravity_field(particles, grid: GridSpec,
                        G: float, epsilon: float) -> GravityField:
    """Softened point-mass field at every cell center:
    g(c) = sum_j G m_j (pos_j - c) / (|pos_j - c|^2 + eps^2)^(3/2).

    O(cells * particles); runs once per step on the host and ships to
    devices. The sum is an array program over per-axis ``(particles,
    cells)`` blocks of ``_GRAVITY_CHUNK`` cells. Summing such a block down
    its rows adds the particles one at a time in index order, which fixes
    the bits. A block one column wide is contiguous, and numpy sums it
    pairwise instead, so no block may be one column wide: a one-column
    remainder joins the block before it, and a one-cell grid evaluates its
    centre twice and keeps one. ``r2`` is formed as ``dx*dx + dy*dy +
    dz*dz`` and only then softened, in that order.
    """
    import numpy as np  # deferred: keeps device-worker startup lean

    ncells = grid.cell_count
    if len(particles) == 0:
        return GravityField(grid, np.zeros((ncells, 3)))

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
    edges = list(range(0, m, _GRAVITY_CHUNK))
    if m - edges[-1] == 1 and len(edges) > 1:
        edges.pop()
    edges.append(m)

    eps2 = epsilon * epsilon
    gm = (G * mass)[:, None]
    out = np.empty((m, 3), dtype=np.float64)
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
    return GravityField(grid, out[:ncells])


# ---------------------------------------------------------------------------
# Simulation phases
# ---------------------------------------------------------------------------

def phase1_prepare(state: SimulationState) -> SimulationState:
    """Rebuild the spatial index and gravity field over current positions.

    Serial by design: both structures have global data dependencies.
    """
    p = state.params
    state.index = build_index(state.particles, p.index_grid(), state.index)
    state.gravity = build_gravity_field(state.particles, p.gravity_grid(),
                                        p.G, p.epsilon)
    return state


def phase2_density_gravity(state: SimulationState, p: Particle) -> Particle:
    """Density, pressure and gravity acceleration for one particle.

    density = sum over neighbors (self included) of m_j W(r, h);
    pressure = k_eos * density; acceleration is set (not accumulated) to the
    gravity field vector of the particle's cell. Reads only neighbor
    positions and masses, so it is pure in the pre-phase snapshot.
    """
    params = state.params
    h = params.h
    px, py, pz = p.x, p.y, p.z
    sqrt = math.sqrt
    kw = kernel_w
    rho = 0.0
    for q, _, _, _, r2 in state.index.within(state.particles, px, py, pz, h):
        rho += q["mass"] * kw(sqrt(r2), h)
    p.density = rho
    p.pressure = params.k_eos * rho
    gx, gy, gz = state.gravity.sample(px, py, pz)
    p.ax = gx
    p.ay = gy
    p.az = gz
    return p


def phase3_pressure(state: SimulationState, p: Particle) -> Particle:
    """Symmetric SPH pressure force applied to one particle's acceleration:

        a_i -= sum_{j != i} m_j (p_i/d_i^2 + p_j/d_j^2) dW/dr(r_ij) rhat_ij

    Pairs at exactly zero separation (self, or coincident particles) are
    skipped: the self term vanishes analytically and a coincident pair has
    no defined direction, so it contributes zero force. Requires phase 2
    densities (> 0) for every particle in range.
    """
    h = state.params.h
    px, py, pz = p.x, p.y, p.z
    self_term = p.pressure / (p.density * p.density)
    sqrt = math.sqrt
    kdw = kernel_dw
    ax = p.ax
    ay = p.ay
    az = p.az
    for q, dx, dy, dz, r2 in state.index.within(state.particles, px, py, pz, h):
        if r2 > 0.0:
            r = sqrt(r2)
            dq = q["density"]
            coef = (q["mass"] * (self_term + q["pressure"] / (dq * dq))
                    * kdw(r, h) / r)
            ax -= coef * dx
            ay -= coef * dy
            az -= coef * dz
    p.ax = ax
    p.ay = ay
    p.az = az
    return p


def phase_columns(state: SimulationState, fields: Sequence[str]) -> dict:
    """Column snapshot of a state for the array phases.

    Holds a contiguous copy (the rows gather from it) of the positions and
    of each named particle column, and the gravity field's cells under
    ``gravity``. Taken before a phase, it is the pre-phase snapshot the
    phase reads.
    """
    import numpy as np

    cols = {name: np.array(state.particles[name])
            for name in ("x", "y", "z", *fields)}
    cols["gravity"] = state.gravity.cells
    return cols


def density_gravity_rows(state: SimulationState, cols: dict,
                         rows: Sequence[int]) -> tuple:
    """:func:`phase2_density_gravity` for the particles ``rows`` of the
    snapshot ``cols`` (fields ``mass``), as arrays in ``rows`` order with
    the same bits: ``(density, pressure, ax, ay, az)``.

    Each density starts at 0.0 and adds one neighbour column of
    ``SpatialIndex.table`` at a time, so every row adds the terms of the
    scalar loop in its order. Padded slots are skipped with ``np.where``.
    """
    import numpy as np

    params = state.params
    h = params.h
    rows = np.asarray(rows, dtype=np.intp)
    xs, ys, zs = cols["x"][rows], cols["y"][rows], cols["z"][rows]
    idx, _, _, _, r2, valid = state.index.table(xs, ys, zs, h)
    w = cols["mass"][idx] * kernel_w_array(np.sqrt(r2), h)
    rho = np.zeros(len(rows))
    for k in range(w.shape[1]):
        rho = np.where(valid[:, k], rho + w[:, k], rho)
    g = cols["gravity"][cell_ids(xs, ys, zs, state.gravity.grid)]
    return rho, params.k_eos * rho, g[:, 0], g[:, 1], g[:, 2]


def pressure_rows(state: SimulationState, cols: dict,
                  rows: Sequence[int]) -> tuple:
    """:func:`phase3_pressure` for the particles ``rows`` of the snapshot
    ``cols`` (fields ``mass``, ``density``, ``pressure``, ``ax``, ``ay``,
    ``az``), as arrays in ``rows`` order with the same bits: ``ax, ay, az``.

    Each row starts from its own snapshot acceleration and subtracts one
    neighbour column at a time, skipping padded slots and ``r2 == 0`` as
    the scalar loop does. Masks select with ``np.where``: multiplying by a
    mask could turn ``-0.0`` into ``+0.0``.
    """
    import numpy as np

    h = state.params.h
    rows = np.asarray(rows, dtype=np.intp)
    mass, dens, prs = cols["mass"], cols["density"], cols["pressure"]
    idx, dx, dy, dz, r2, valid = state.index.table(
        cols["x"][rows], cols["y"][rows], cols["z"][rows], h)
    d = dens[rows]
    dj = dens[idx]
    r = np.sqrt(r2)
    with np.errstate(divide="ignore", invalid="ignore"):  # r == 0 is skipped
        self_term = prs[rows] / (d * d)
        coef = (mass[idx] * (self_term[:, None] + prs[idx] / (dj * dj))
                * kernel_dw_array(r, h) / r)
    live = valid & (r2 > 0.0)
    ax, ay, az = cols["ax"][rows], cols["ay"][rows], cols["az"][rows]
    for k in range(coef.shape[1]):
        on = live[:, k]
        c = coef[:, k]
        ax = np.where(on, ax - c * dx[:, k], ax)
        ay = np.where(on, ay - c * dy[:, k], ay)
        az = np.where(on, az - c * dz[:, k], az)
    return ax, ay, az


def phase4_integrate(p: Particle, dt: float) -> Particle:
    """Semi-implicit Euler: v += a dt, then pos += v dt; acceleration resets
    to zero so each step is self-contained."""
    p.vx += p.ax * dt
    p.vy += p.ay * dt
    p.vz += p.az * dt
    p.x += p.vx * dt
    p.y += p.vy * dt
    p.z += p.vz * dt
    p.ax = 0.0
    p.ay = 0.0
    p.az = 0.0
    return p


# ---------------------------------------------------------------------------
# State wire format
# ---------------------------------------------------------------------------

_PARAMS_STRUCT = struct.Struct("<5d6d3Q")


class SimStateCodec:
    """Whole-state payload: params, gravity field, particle array.

    The spatial index never crosses the wire; the receiving side rebuilds it
    from the particle array and the grid derived from the params, which
    reproduces the exact same index.
    """

    __slots__ = ()

    def serialize(self, state: SimulationState, out: bytearray) -> None:
        p = state.params
        lo, hi = p.world_box
        out += _PARAMS_STRUCT.pack(
            p.h, p.dt, p.k_eos, p.G, p.epsilon,
            lo[0], lo[1], lo[2], hi[0], hi[1], hi[2],
            p.gravity_dims[0], p.gravity_dims[1], p.gravity_dims[2])
        out += state.gravity.cells.tobytes()
        out += struct.pack("<Q", len(state.particles))
        out += state.particles.tobytes()

    def deserialize(self, reader: ByteReader) -> SimulationState:
        import numpy as np

        vals = _PARAMS_STRUCT.unpack(reader.read_bytes(_PARAMS_STRUCT.size))
        params = SimParams(
            h=vals[0], dt=vals[1], k_eos=vals[2], G=vals[3], epsilon=vals[4],
            world_box=((vals[5], vals[6], vals[7]), (vals[8], vals[9], vals[10])),
            gravity_dims=(vals[11], vals[12], vals[13]))
        grid = params.gravity_grid()  # the field's size follows from params
        # Writable copies of the bytes: the arrays must not share the buffer.
        cells = bytearray(reader.read_bytes(24 * grid.cell_count))
        records = bytearray(reader.read_bytes(
            PARTICLE_WIRE_SIZE * reader.read_u64()))
        state = SimulationState(
            np.frombuffer(records, particle_dtype()).view(np.recarray), params,
            GravityField(grid, np.frombuffer(cells, "<f8").reshape(-1, 3)))
        state.index = build_index(state.particles, params.index_grid())
        return state


SIM_STATE_CODEC = SimStateCodec()


# ---------------------------------------------------------------------------
# Scene construction and stepping
# ---------------------------------------------------------------------------

def make_scene(n: int, params: SimParams | None = None, seed: int = 1234,
               radius: float = 1.0, total_mass: float = 1.0) -> SimulationState:
    """Seeded initial conditions: n equal-mass particles uniform in a sphere,
    at rest, with material assigned by radius band."""
    import numpy as np

    params = params or SimParams()
    rng = random.Random(seed)
    points = []  # (material, x, y, z) of each particle
    band1 = 0.4 * radius
    band2 = 0.75 * radius
    while len(points) < n:
        x = rng.uniform(-radius, radius)
        y = rng.uniform(-radius, radius)
        z = rng.uniform(-radius, radius)
        r2 = x * x + y * y + z * z
        if r2 > radius * radius:
            continue
        r = math.sqrt(r2)
        points.append((0 if r < band1 else (1 if r < band2 else 2), x, y, z))
    particles = np.zeros(n, particle_dtype()).view(np.recarray)
    particles[["material", "x", "y", "z"]] = points
    particles.id = np.arange(n)
    particles.mass = total_mass / n if n else total_mass
    return SimulationState(particles=particles, params=params)


@dataclass
class StepTiming:
    """Wall seconds per phase of one step, plus device work accounting."""

    phase1_s: float = 0.0
    phase2_s: float = 0.0
    phase3_s: float = 0.0
    phase4_s: float = 0.0
    items_total: int = 0
    items_on_devices: int = 0
    stats: list = dc_field(default_factory=list)

    @property
    def coproc_fraction(self) -> float:
        if self.items_total == 0:
            return 0.0
        return self.items_on_devices / self.items_total


def simulation_step(state: SimulationState, device_specs: Sequence = (),
                    host_workers: int = 1) -> StepTiming:
    """Advance the state by one step.

    Phase 1 runs serially on the host. Phases 2 and 3 run hybrid_for_each
    over the row ids, ``BLOCK_ROWS`` at a time, with a fresh whole-state
    transfer per phase (devices are connected per phase and discard their
    state copies afterwards), and write their results into the columns the
    action names. Each phase's functor is built just before its call,
    because it snapshots the state then: phase 3 reads the densities phase
    2 wrote. The snapshot and the writes count in the phase's time. Phase 4
    updates its rows in place, with local parallelism only; shipping it
    costs more than it saves.
    """
    from . import functors
    from .runtime import connect_devices, hybrid_for_each

    timing = StepTiming()
    t0 = time.perf_counter()
    phase1_prepare(state)
    t1 = time.perf_counter()
    timing.phase1_s = t1 - t0

    n = len(state.particles)
    timing.items_total = 2 * n

    for phase_name, action in (
            ("phase2_s", functors.DensityGravityAction),
            ("phase3_s", functors.PressureForceAction)):
        t0 = time.perf_counter()
        functor = action(state)
        snapshot_s = time.perf_counter() - t0
        devices = connect_devices(device_specs)
        t0 = time.perf_counter()
        results = list(range(n))  # row ids, each replaced by its result
        stats = hybrid_for_each(results, functor, devices,
                                host_workers=host_workers,
                                chunk=functors.BLOCK_ROWS)
        for name, column in zip(functor.writes, zip(*results)):
            state.particles[name] = column
        setattr(timing, phase_name, snapshot_s + time.perf_counter() - t0)
        timing.stats.append(stats)
        timing.items_on_devices += stats.device_items

    t0 = time.perf_counter()
    integrate = functors.IntegrateAction(state.particles, state.params.dt)
    stats4 = hybrid_for_each(list(range(n)), integrate, (),
                             host_workers=host_workers,
                             chunk=functors.BLOCK_ROWS)
    timing.phase4_s = time.perf_counter() - t0
    timing.stats.append(stats4)
    return timing
