"""Serializable per-item actions for hybrid_for_each.

A functor carries everything a device needs to apply it: its own fields plus
any shared state, all flattened through the codec registered under its
``wire_name``. A device copy is rebuilt from those bytes and discarded after
the call; changes to functor fields on a device are never reflected on the
host. A functor has ``apply_block``, which maps a list of items to their
results, or else ``apply`` per item, which returns an item's result and
may mutate the item in place; the runtime calls ``apply_block`` when there
is one. The value functors here have ``apply``; the SPH actions have
``apply_block`` only. ``item_codec`` names the codec for its items,
``result_codec`` (by default ``item_codec``) the one for its results.

A value functor is a dataclass of numbers that declares its wire layout by
registering ``RecordCodec(<struct format of its fields>, cls)``. This
module holds the value functors; the SPH phase actions, which ship the
whole simulation state, live with their kernels in ``sph``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .wire import I32_CODEC, I64_CODEC, RecordCodec, register_functor


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


register_functor(AffineAction.wire_name, RecordCodec("<i", AffineAction))
register_functor(SleepAction.wire_name, RecordCodec("<d", SleepAction))
register_functor(JitterSleepAction.wire_name,
                 RecordCodec("<dI", JitterSleepAction))
