"""Serializable per-item actions for hybrid_for_each.

A functor carries everything a device needs to apply it: its own fields plus
any shared state, all flattened through the codec registered under its
``wire_name``. A device copy is rebuilt from those bytes and discarded after
the call; changes to functor fields on a device are never reflected on the
host. ``apply`` returns an item's result and may mutate the item in place;
the optional ``apply_block`` maps a list of items to their results.
``item_codec`` names the codec for its items, ``result_codec`` (by default
``item_codec``) the one for its results.

A value functor is a dataclass of numbers that declares its wire layout by
registering ``RecordCodec(<struct format of its fields>, cls)``. The SPH
phase actions ship the whole simulation state instead; their items are row
ids, and ``apply_block`` returns the fields the phase writes, computed by
its array form (``sph.density_gravity_rows``, ``sph.pressure_rows``). Phase
4 never leaves the host, so ``IntegrateAction`` has no wire name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import sph
from .wire import (ByteReader, I32_CODEC, I64_CODEC, RecordCodec, StructCodec,
                   TupleCodec, register_functor)


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
    action is built: on the host just before the call, on a device when it
    is decoded. Items are row ids (unsigned on the wire; a row past the end
    raises ``IndexError``); a result is the tuple of the fields the phase
    writes, in the order of the particle columns ``writes`` names.

    The class is its own functor codec: the wire bytes are the whole
    simulation state, and the receiving side rebuilds the spatial index.
    """

    __slots__ = ("state", "_cols")

    item_codec = StructCodec("<I")

    def __init__(self, state: sph.SimulationState):
        self.state = state
        self._cols = sph.phase_columns(state, self.fields)

    @staticmethod
    def serialize(f, out: bytearray) -> None:
        sph.SIM_STATE_CODEC.serialize(f.state, out)

    @classmethod
    def deserialize(cls, r: ByteReader):
        return cls(sph.SIM_STATE_CODEC.deserialize(r))

    def apply_block(self, rows: list) -> list:
        arrays = self.rows(self.state, self._cols, rows)
        return list(zip(*(a.tolist() for a in arrays)))

    def apply(self, row: int) -> tuple:
        return self.apply_block([row])[0]


class DensityGravityAction(_SnapshotAction):
    """Density + pressure + gravity sampling over a shared state snapshot."""

    __slots__ = ()

    wire_name = "sph-density-gravity"
    result_codec = TupleCodec("<5d")
    fields = ("mass",)
    writes = ("density", "pressure", "ax", "ay", "az")
    rows = staticmethod(sph.density_gravity_rows)


class PressureForceAction(_SnapshotAction):
    """Pressure-force accumulation over a shared state snapshot."""

    __slots__ = ()

    wire_name = "sph-pressure"
    result_codec = TupleCodec("<3d")
    fields = ("mass", "density", "pressure", "ax", "ay", "az")
    writes = ("ax", "ay", "az")
    rows = staticmethod(sph.pressure_rows)


class IntegrateAction:
    """Phase 4 in place on rows of a particle array (items and results are
    row ids): ``v += a*dt``, then ``x += v*dt``, then ``a = 0``, with the
    bits of ``sph.phase4_integrate``. Host-local only, never offloaded."""

    def __init__(self, particles, dt: float):
        self.particles, self.dt = particles, dt

    def apply_block(self, rows: list) -> list:
        import numpy as np

        p, dt = self.particles, self.dt
        i = np.asarray(rows, dtype=np.intp)
        for v, x, a in (("vx", "x", "ax"), ("vy", "y", "ay"),
                        ("vz", "z", "az")):
            vel = p[v][i] + p[a][i] * dt
            p[v][i] = vel
            p[x][i] += vel * dt
            p[a][i] = 0.0
        return rows

    def apply(self, row: int) -> int:
        return self.apply_block([row])[0]


register_functor(AffineAction.wire_name, RecordCodec("<i", AffineAction))
register_functor(SleepAction.wire_name, RecordCodec("<d", SleepAction))
register_functor(JitterSleepAction.wire_name,
                 RecordCodec("<dI", JitterSleepAction))
register_functor(DensityGravityAction.wire_name, DensityGravityAction)
register_functor(PressureForceAction.wire_name, PressureForceAction)
