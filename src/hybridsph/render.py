"""Volume ray casting of a particle state snapshot.

One pinhole ray per pixel, density sampled at fixed intervals along it,
front-to-back emission-absorption compositing with early exit once the
pixel is effectively opaque. Sampling is jitter-free (interval midpoints)
and accumulation is linear-light. Rows are the items of a host-only
``hybrid_for_each`` call; each row comes back as its own bytes, so the
output is identical for any worker count.

A row is an array program: every sample point of every ray of the row is
queried through ``SpatialIndex.table``, at most ``_TABLE_POINTS`` points per
call, and the density and colour sums add one neighbour column at a time
with ``sph.column_sums``, the rule of the SPH phases, in the order of the
scalar sum. The per-ray compositing loop then runs over those samples.
``composite_ray`` with ``sample_medium`` is the scalar reference: it walks
``SpatialIndex.within`` one sample at a time, and every pixel and sample
count of a frame equals it bitwise. numpy is imported inside the functions
that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import build_index
from .runtime import hybrid_for_each
from .sph import SimulationState, column_sums, kernel_w, kernel_w_array

_TABLE_POINTS = 1024  # sample points per SpatialIndex.table call

DEFAULT_PALETTE = (
    (1.00, 0.88, 0.62),   # core material
    (0.95, 0.48, 0.22),   # mid band
    (0.45, 0.32, 0.85),   # outer shell
)


def _normalize(v: tuple[float, float, float]) -> tuple[float, float, float]:
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if n == 0.0:
        raise ValueError("zero-length vector")
    return (v[0] / n, v[1] / n, v[2] / n)


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@dataclass(frozen=True)
class Camera:
    """Pinhole camera; ``fov`` is the vertical field of view in radians."""

    origin: tuple[float, float, float] = (0.0, 0.0, 3.2)
    direction: tuple[float, float, float] = (0.0, 0.0, -1.0)
    up: tuple[float, float, float] = (0.0, 1.0, 0.0)
    fov: float = math.pi / 3.0
    resolution: tuple[int, int] = (100, 100)

    def __post_init__(self):
        if not 0.0 < self.fov < math.pi:
            raise ValueError("fov must be in (0, pi)")
        if self.resolution[0] < 1 or self.resolution[1] < 1:
            raise ValueError("resolution must be positive")
        d = _normalize(self.direction)
        right = _cross(d, _normalize(self.up))
        if right == (0.0, 0.0, 0.0):
            raise ValueError("up must not be parallel to direction")
        object.__setattr__(self, "direction", d)

    def basis(self):
        right = _normalize(_cross(self.direction, self.up))
        true_up = _cross(right, self.direction)
        return right, true_up


@dataclass(frozen=True)
class RenderParams:
    step: float = 0.08                    # sample spacing along the ray
    absorption: float = 25.0              # opacity per (density * length)
    max_distance: float = 8.0
    early_exit_alpha: float = 0.995
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    palette: tuple = DEFAULT_PALETTE

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.absorption < 0:
            raise ValueError("absorption must be >= 0")
        if not 0.0 < self.early_exit_alpha <= 1.0:
            raise ValueError("early_exit_alpha must be in (0, 1]")


@dataclass
class Image:
    """Row-major 8-bit RGB raster."""

    width: int
    height: int
    pixels: bytearray

    def tobytes(self) -> bytes:
        return bytes(self.pixels)


@dataclass
class RenderStats:
    rays: int = 0
    samples: int = 0


def _pixel_direction(camera: Camera, basis, tan_half: float,
                     px: int, py: int) -> tuple[float, float, float]:
    """Unit direction through the center of pixel (px, py), given the
    camera's ``basis()`` and ``tan(fov / 2)``."""
    w, h = camera.resolution
    right, true_up = basis
    u = ((px + 0.5) / w * 2.0 - 1.0) * tan_half * (w / h)
    v = (1.0 - (py + 0.5) / h * 2.0) * tan_half
    d = camera.direction
    return _normalize((d[0] + u * right[0] + v * true_up[0],
                       d[1] + u * right[1] + v * true_up[1],
                       d[2] + u * right[2] + v * true_up[2]))


def generate_ray(camera: Camera, px: int, py: int):
    """Ray through the center of pixel (px, py); direction has unit length."""
    return camera.origin, _pixel_direction(
        camera, camera.basis(), math.tan(camera.fov / 2.0), px, py)


def sample_medium(state: SimulationState, point, palette=DEFAULT_PALETTE):
    """Density and blended material color of the medium at a point.

    Density is the usual kernel sum over in-range particles; the color is
    the palette blend weighted by each particle's density contribution.
    Zero density reports a zero-weight sample (the compositor then adds
    nothing for it).
    """
    x, y, z = point
    h = state.params.h
    sqrt = math.sqrt
    last = len(palette) - 1
    rho = 0.0
    cr = cg = cb = 0.0
    for q, _, _, _, r2 in state.index.within(state.particles, x, y, z, h):
        w = q["mass"] * kernel_w(sqrt(r2), h)
        rho += w
        col = palette[min(q["material"], last)]
        cr += w * col[0]
        cg += w * col[1]
        cb += w * col[2]
    if rho <= 0.0:
        return 0.0, (0.0, 0.0, 0.0)
    return rho, (cr / rho, cg / rho, cb / rho)


def _particle_bounds(state: SimulationState, margin: float):
    if len(state.particles) == 0:
        return None
    cols = (state.particles.x, state.particles.y, state.particles.z)
    return (tuple(float(c.min()) - margin for c in cols),
            tuple(float(c.max()) + margin for c in cols))


def _clip_to_box(origin, direction, lo, hi, t0: float, t1: float):
    """Intersect [t0, t1] with the slab box; None when the ray misses it."""
    for o, d, a, b in zip(origin, direction, lo, hi):
        if d == 0.0:
            if o < a or o > b:
                return None
            continue
        ta = (a - o) / d
        tb = (b - o) / d
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return None
    return t0, t1


def composite_ray(state: SimulationState, ray, params: RenderParams,
                  sample_fn=None, alpha_trace: list | None = None,
                  stats: RenderStats | None = None, bounds=None):
    """Front-to-back emission-absorption march along one ray.

    Samples sit at t = step/2 + k*step up to max_distance. Per sample,
    alpha = 1 - exp(-absorption * density * step); color and opacity
    accumulate front to back and the march stops once accumulated opacity
    reaches the early-exit threshold. The remaining transparency is filled
    with the background color.

    With the default sampler, sample positions where the density is provably
    zero (outside the particle bounding box inflated by the smoothing
    radius) are skipped without evaluation; the skipped samples contribute
    exactly nothing, so the result is bit-identical to the full march.
    """
    origin, direction = ray
    if sample_fn is None:
        if bounds is None:
            bounds = _particle_bounds(state, state.params.h)
        k0, k1 = _sample_span(origin, direction, params, bounds)
        palette = params.palette
        sample_fn = lambda pt: sample_medium(state, pt, palette)  # noqa: E731
    else:
        k0, k1 = 0, _last_sample(params)

    half = params.step / 2.0
    ox, oy, oz = origin
    dx, dy, dz = direction
    samples = (sample_fn((ox + t * dx, oy + t * dy, oz + t * dz))
               for t in (half + k * params.step for k in range(k0, k1 + 1)))
    return _composite(samples, params, alpha_trace, stats)


def _last_sample(params: RenderParams) -> int:
    """Number ``k`` of the last sample within ``max_distance``; -1 for none."""
    return max(-1, int((params.max_distance - params.step / 2.0)
                       / params.step))


def _sample_span(origin, direction, params: RenderParams, bounds):
    """First and last sample number of a ray through the particle box
    ``bounds`` (``k1 < k0`` when it takes none; ``bounds`` is None for an
    empty scene)."""
    if bounds is None:
        return 0, -1
    clipped = _clip_to_box(origin, direction, bounds[0], bounds[1],
                           0.0, params.max_distance)
    if clipped is None:
        return 0, -1
    # Widen by one sample each way: boundary samples have zero density, and
    # the slack absorbs float rounding in k.
    half = params.step / 2.0
    return (max(0, int((clipped[0] - half) / params.step) - 1),
            min(_last_sample(params),
                int((clipped[1] - half) / params.step) + 1))


def _composite(samples, params: RenderParams, alpha_trace=None, stats=None):
    """Front-to-back compositing of ``(density, color)`` samples in march
    order, with the early exit and the background fill of
    :func:`composite_ray`. Samples after the exit are never drawn."""
    sigma_dt = params.absorption * params.step
    limit = params.early_exit_alpha
    acc_r = acc_g = acc_b = 0.0
    alpha = 0.0
    taken = 0
    for rho, color in samples:
        taken += 1
        if rho > 0.0:
            a = 1.0 - math.exp(-sigma_dt * rho)
            w = (1.0 - alpha) * a
            acc_r += w * color[0]
            acc_g += w * color[1]
            acc_b += w * color[2]
            alpha += w
        if alpha_trace is not None:
            alpha_trace.append(alpha)
        if alpha >= limit:
            break
    if stats is not None:
        stats.samples += taken
    bg = params.background
    rest = 1.0 - alpha
    return (acc_r + rest * bg[0], acc_g + rest * bg[1], acc_b + rest * bg[2])


def _quantize(c: float) -> int:
    if c <= 0.0:
        return 0
    if c >= 1.0:
        return 255
    return int(c * 255.0 + 0.5)


class _RowAction:
    """Host-only ``hybrid_for_each`` functor: a row index becomes that row's
    RGB bytes and the number of samples its rays composited."""

    def __init__(self, state: SimulationState, camera: Camera,
                 params: RenderParams):
        import numpy as np

        self.state = state
        self.camera = camera
        self.params = params
        self.basis = camera.basis()
        self.tan_half = math.tan(camera.fov / 2.0)
        self.bounds = _particle_bounds(state, state.params.h)
        parts = state.particles
        self.mass = np.array(parts.mass)  # contiguous: the sums gather it
        palette = np.asarray(params.palette, dtype=np.float64)
        # palette[min(material, last)] of every particle, per channel.
        self.colors = palette[np.minimum(parts.material, len(palette) - 1)].T

    def _sample(self, xs, ys, zs):
        """``sample_medium`` at every point: density and the three colour
        sums as a ``(4, points)`` array, each with the scalar sum's bits.

        Each sum starts at 0.0 and adds the neighbour columns of
        ``SpatialIndex.table`` with ``sph.column_sums``, so it adds the
        scalar loop's terms in its order.
        """
        import numpy as np

        h = self.state.params.h
        table = self.state.index.table
        out = np.zeros((4, len(xs)))
        for s in range(0, len(xs), _TABLE_POINTS):
            e = s + _TABLE_POINTS
            idx, _, _, _, r2, valid = table(xs[s:e], ys[s:e], zs[s:e], h)
            w = self.mass[idx] * kernel_w_array(np.sqrt(r2), h)
            terms = (w, *(w * c[idx] for c in self.colors))
            out[:, s:e] = column_sums(out[:, s:e], terms, valid, np.add)
        return out

    def apply(self, py: int) -> tuple[bytes, int]:
        stats = RenderStats()
        colors = self.ray_colors(py, stats)
        return bytes(_quantize(c) for rgb in colors for c in rgb), stats.samples

    def ray_colors(self, py: int, stats: RenderStats) -> list[tuple]:
        """Unquantized colour of every ray of row ``py``, each equal to its
        ``composite_ray`` bitwise; the samples composited go to ``stats``."""
        import numpy as np

        camera = self.camera
        params = self.params
        w = camera.resolution[0]
        spans = []
        directions = []
        for px in range(w):
            d = _pixel_direction(camera, self.basis, self.tan_half, px, py)
            spans.append(_sample_span(camera.origin, d, params, self.bounds))
            directions.append(d)
        counts = [max(0, k1 - k0 + 1) for k0, k1 in spans]
        # Every sample point of every ray, ray by ray, as composite_ray
        # forms them: t = step/2 + k*step, then origin + t*direction.
        k = np.concatenate([np.arange(k0, k1 + 1) for k0, k1 in spans])
        t = params.step / 2.0 + k * params.step
        d = np.repeat(np.asarray(directions), counts, axis=0)
        ox, oy, oz = camera.origin
        rho, cr, cg, cb = self._sample(ox + t * d[:, 0], oy + t * d[:, 1],
                                       oz + t * d[:, 2])
        with np.errstate(divide="ignore", invalid="ignore"):
            # rho <= 0 gives no colour: the compositor skips that sample.
            colors = list(zip(*(c.tolist() for c in (cr / rho, cg / rho,
                                                     cb / rho))))
        rho = rho.tolist()
        out = []
        end = 0
        for n in counts:
            start, end = end, end + n
            out.append(_composite(zip(rho[start:end], colors[start:end]),
                                  params, stats=stats))
        return out


def render_frame(state: SimulationState, camera: Camera,
                 params: RenderParams | None = None,
                 workers: int = 1,
                 stats: RenderStats | None = None) -> Image:
    """Render the snapshot to an 8-bit RGB image.

    Builds a fresh spatial index over the snapshot's current positions (the
    simulation may have moved particles since the state's index was built).
    Rows are the items of a host-only ``hybrid_for_each`` over ``workers``
    host workers; any worker count yields identical bytes.
    """
    params = params or RenderParams()
    w, h = camera.resolution
    state.index = build_index(state.particles, state.params.index_grid(),
                              state.index)
    rows = list(range(h))
    hybrid_for_each(rows, _RowAction(state, camera, params),
                    host_workers=workers)
    if stats is not None:
        stats.rays += w * h
        stats.samples += sum(n for _, n in rows)
    return Image(w, h, bytearray(b"".join(row for row, _ in rows)))


def write_ppm(image: Image, path) -> None:
    """Binary PPM, P6, maxval 255."""
    with open(path, "wb") as f:
        f.write(f"P6\n{image.width} {image.height}\n255\n".encode("ascii"))
        f.write(image.pixels)


def frame_filename(index: int) -> str:
    return f"frame_{index:05d}.ppm"
