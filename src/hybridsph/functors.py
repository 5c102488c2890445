"""Serializable per-item actions for hybrid_for_each.

A functor carries everything a device needs to apply it: its own fields plus
any shared state, all flattened through the codec registered under its
``wire_name``. A device copy is rebuilt from those bytes and discarded after
the call; changes to functor fields on a device are never reflected on the
host. ``apply`` may mutate its argument in place and must return the item
(the sequence slot is assigned from the return value, which also supports
immutable item types). ``item_codec`` names the codec for its items.

A value functor is a dataclass of numbers that declares its wire layout by
registering ``RecordCodec(<struct format of its fields>, cls)``. The SPH
phase actions ship the whole simulation state instead, and answer each
particle from a block of rows computed at once by the phase's array form
(``sph.density_gravity_rows``, ``sph.pressure_rows``) over a column
snapshot taken when the action is built. Phase 4 never leaves the host, so
``IntegrateAction`` has no wire name.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass

from . import sph
from .wire import (ByteReader, I32_CODEC, I64_CODEC, RecordCodec,
                   register_functor)

_XYZ = struct.Struct("<3d")


@dataclass
class AffineAction:
    """The minimal example action: x -> x * scale + 2 on 32-bit ints."""

    scale: int

    wire_name = "affine-i32"
    item_codec = I32_CODEC

    def apply(self, x: int) -> int:
        return x * self.scale + 2


@dataclass
class SleepAction:
    """Benchmark action: sleep a fixed interval per item, return item + 1.

    The sleep stands in for compute cost without holding the interpreter
    lock, so worker and device parallelism behaves like genuinely concurrent
    hardware even on a small machine.
    """

    delay_s: float

    wire_name = "sleep-i64"
    item_codec = I64_CODEC

    def apply(self, x: int) -> int:
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        return x + 1


@dataclass
class JitterSleepAction:
    """Value-dependent delay then an affine transform; exercises schedulers
    with unpredictable per-item cost."""

    base_s: float
    modulus: int

    wire_name = "jitter-sleep-i64"
    item_codec = I64_CODEC

    def apply(self, x: int) -> int:
        d = self.base_s * (x % self.modulus)
        if d > 0:
            time.sleep(d)
        return x * 3 + 2


BLOCK_ROWS = 256  # rows an SPH phase action computes together


class _SnapshotAction:
    """An SPH phase over a column snapshot of the state, taken when the
    action is built: on the host just before the call, on a device when
    ``_StateActionCodec`` decodes it.

    ``apply(p)`` reads the row named by ``p.id``, which must hold ``p``'s
    position bits, else it raises ``ValueError``. The first apply in a block
    of ``BLOCK_ROWS`` rows computes the whole block with the phase's array
    form, once, under a lock; the others read their row from it.
    """

    __slots__ = ("state", "_cols", "_xyz", "_blocks", "_lock")

    item_codec = sph.PARTICLE_CODEC

    def __init__(self, state: sph.SimulationState):
        import numpy as np  # deferred: keeps device-worker startup lean

        self.state = state
        cols = self._cols = sph.phase_columns(state, self.fields)
        self._xyz = np.stack((cols["x"], cols["y"], cols["z"]),
                             axis=1).astype("<f8").tobytes()
        self._blocks: dict[int, list] = {}
        self._lock = threading.Lock()

    def apply(self, p: sph.Particle) -> sph.Particle:
        i = p.id
        if _XYZ.pack(p.x, p.y, p.z) != self._xyz[24 * i:24 * i + 24]:
            raise ValueError(f"particle id {i} does not name its own row "
                             f"of the snapshot")
        lo = i - i % BLOCK_ROWS
        block = self._blocks.get(lo)
        if block is None:
            with self._lock:
                block = self._blocks.get(lo)
                if block is None:
                    hi = min(lo + BLOCK_ROWS, len(self._xyz) // 24)
                    arrays = self.rows(self.state, self._cols, lo, hi)
                    block = list(zip(*(a.tolist() for a in arrays)))
                    self._blocks[lo] = block
        self.write(p, block[i - lo])
        return p


class DensityGravityAction(_SnapshotAction):
    """Density + pressure + gravity sampling over a shared state snapshot."""

    __slots__ = ()

    wire_name = "sph-density-gravity"
    fields = ("mass",)
    rows = staticmethod(sph.density_gravity_rows)

    @staticmethod
    def write(p: sph.Particle, row: tuple) -> None:
        p.density, p.pressure, p.ax, p.ay, p.az = row


class PressureForceAction(_SnapshotAction):
    """Pressure-force accumulation over a shared state snapshot."""

    __slots__ = ()

    wire_name = "sph-pressure"
    fields = ("mass", "density", "pressure", "ax", "ay", "az")
    rows = staticmethod(sph.pressure_rows)

    @staticmethod
    def write(p: sph.Particle, row: tuple) -> None:
        p.ax, p.ay, p.az = row


class _StateActionCodec:
    """Shared codec for the two SPH phase actions: the payload is the whole
    simulation state; the spatial index is rebuilt on the receiving side."""

    __slots__ = ("_cls",)

    def __init__(self, cls):
        self._cls = cls

    def serialize(self, f, out: bytearray) -> None:
        sph.SIM_STATE_CODEC.serialize(f.state, out)

    def deserialize(self, r: ByteReader):
        return self._cls(sph.SIM_STATE_CODEC.deserialize(r))


@dataclass
class IntegrateAction:
    """Phase-4 position/velocity update; host-local only, never offloaded."""

    dt: float

    def apply(self, p: sph.Particle) -> sph.Particle:
        return sph.phase4_integrate(p, self.dt)


register_functor(AffineAction.wire_name, RecordCodec("<i", AffineAction))
register_functor(SleepAction.wire_name, RecordCodec("<d", SleepAction))
register_functor(JitterSleepAction.wire_name,
                 RecordCodec("<dI", JitterSleepAction))
register_functor(DensityGravityAction.wire_name,
                 _StateActionCodec(DensityGravityAction))
register_functor(PressureForceAction.wire_name,
                 _StateActionCodec(PressureForceAction))
