"""Dynamic work distribution across host workers and coprocessor devices.

``hybrid_for_each`` applies a functor to every item of a sequence. Every
worker, host or device, applies a block of items at once, as TBB's
``parallel_for`` does over a ``blocked_range`` (``block_applier``). Host
workers write results in place with no serialization; each device serves
one call: it gets the functor (plus shared state) once and then a stream of
blocks of ``worker_count * chunk`` items, each one bulk transfer, with
double buffering so the device rarely starves. One controller thread per
device packs each block, sends it, waits for the result block and scatters
it back to the indices it kept for that block (indices never cross the
link), so completion order never affects the outcome. A device is the
``transport.DeviceHandle`` that ``connect_device`` or ``connect_devices``
returns; the call it is passed to closes it on every path.

This module alone knows the block format: ``encode_block`` writes a block
payload (work blocks in the functor's ``item_codec``, result blocks in its
``result_codec``, by default the same) and ``decode_block`` reads one.

Work allocation is a single priority queue: a plain counter hands out fresh
indices, and a high-priority list serves put-backs (the un-resulted items
of a lost device) before any counter index.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from collections import deque
from typing import Sequence

from . import transport
from .transport import (DeviceHandle, LinkConfig, Message, MessageKind,
                        TransportError)
from .wire import ByteReader, Codec, encode_functor, encode_str

BLOCK_HEADER = struct.Struct("<QI")      # block_id u64, item_count u32
WORK_BLOCK_MSG = struct.Struct("<Q")     # block_id; the frame has the length

# Un-resulted blocks a controller keeps in flight per device: one being
# worked on while the next is already on its way (double buffering).
HOT_BUFFERS = 2


class WorkQueue:
    """Index dispenser with exactly-once semantics.

    Low-priority work is just a counter over [0, end_index); put-backs go to
    a FIFO high-priority list served before any counter index. All
    operations are atomic with respect to concurrent takers. A ``trace``
    list gets every take and put-back, appended inside the lock, so it
    holds the order in which concurrent takers really ran.
    """

    def __init__(self, end_index: int, trace: list | None = None):
        self._lock = threading.Lock()
        self._next = 0
        self._end = end_index
        self._high: deque[int] = deque()
        self._trace = trace
        self._aborted = False

    def take(self, k: int) -> list[int]:
        """Up to k indices: high-priority first (in list order), then
        ascending counter indices. Empty means no work remains right now."""
        if k < 1:
            raise ValueError("k must be >= 1")
        with self._lock:
            if self._trace is not None:
                high_before = tuple(self._high)
            out: list[int] = []
            high = self._high
            while high and len(out) < k:
                out.append(high.popleft())
            room = k - len(out)
            if room > 0 and self._next < self._end:
                top = min(self._next + room, self._end)
                out.extend(range(self._next, top))
                self._next = top
            if self._trace is not None:
                self._trace.append(("take", tuple(out), high_before))
            return out

    def put_back(self, indices: Sequence[int]) -> None:
        """Return taken-but-unprocessed indices; they are served next."""
        if not indices:
            return
        with self._lock:
            self._high.extend(indices)
            if self._trace is not None:
                self._trace.append(("put_back", tuple(indices), ()))

    def abort(self) -> None:
        with self._lock:
            self._aborted = True

    @property
    def aborted(self) -> bool:
        return self._aborted


def encode_block(block_id: int, items: Sequence,
                 item_codec: Codec) -> bytearray:
    """Encode ``items``, in order, as one block payload: the header, then
    each item's codec bytes. ``decode_block`` reads it back."""
    out = bytearray(BLOCK_HEADER.pack(block_id, len(items)))
    serialize = item_codec.serialize
    for item in items:
        serialize(item, out)
    return out


def pack_block(queue: WorkQueue, sequence: Sequence, block: bytearray,
               block_id: int, batch: int, item_codec: Codec) -> list[int]:
    """Take up to ``batch`` indices and encode their items into ``block``
    (replacing its contents) as block ``block_id``.

    Returns the indices taken, in block order; an empty list, with
    ``block`` untouched, means no work remains.
    """
    indices = queue.take(batch)
    if indices:
        block[:] = encode_block(block_id, [sequence[i] for i in indices],
                                item_codec)
    return indices


def parse_block(blob: bytes | memoryview) -> tuple[int, int, ByteReader]:
    """Split a block payload into (block_id, item_count, reader at first item)."""
    reader = ByteReader(blob)
    block_id = reader.read_u64()
    count = reader.read_u32()
    return block_id, count, reader


def decode_block(blob: bytes | memoryview,
                 item_codec: Codec) -> tuple[int, list]:
    """Decode a whole block payload into (block_id, [item, ...]) in block
    order; a short or overlong payload raises."""
    block_id, count, reader = parse_block(blob)
    deser = item_codec.deserialize
    items = [deser(reader) for _ in range(count)]
    if reader.remaining:
        raise ValueError(f"{reader.remaining} bytes past the last item")
    return block_id, items


def result_codec(functor) -> Codec:
    """``functor.result_codec``, by default its ``item_codec``."""
    return getattr(functor, "result_codec", functor.item_codec)


def block_applier(functor):
    """``apply_to(sequence, indices)`` sets each ``sequence[i]`` to its
    result: one ``apply_block`` call, or ``apply`` per item without it."""
    apply_block = getattr(functor, "apply_block", None)
    if apply_block is None:
        apply = functor.apply

        def apply_to(sequence, indices) -> None:
            for i in indices:
                sequence[i] = apply(sequence[i])
    else:
        def apply_to(sequence, indices) -> None:
            results = apply_block([sequence[i] for i in indices])
            for i, value in zip(indices, results, strict=True):
                sequence[i] = value
    return apply_to


@dataclass
class DeviceSpec:
    """How to bring up one device: link parameters and worker count."""

    worker_count: int = 4
    link: LinkConfig = field(default_factory=LinkConfig)


def connect_device(spec: DeviceSpec, index: int = 0) -> DeviceHandle:
    """Connect one device per its spec, labelled ``device/<index>``; it
    serves one hybrid_for_each call, which closes it."""
    handle = transport.connect(spec.link, spec.worker_count)
    handle.label = f"device/{index}"
    return handle


def connect_devices(specs: Sequence[DeviceSpec]) -> list[DeviceHandle]:
    """Connect one device per spec, in order. If a connect fails, the
    devices already up are closed before the error propagates."""
    devices: list[DeviceHandle] = []
    try:
        for i, spec in enumerate(specs):
            devices.append(connect_device(spec, i))
    except BaseException:
        for dev in devices:
            dev.close()
        raise
    return devices


@dataclass
class RunStatistics:
    """Accounting for one hybrid_for_each call."""

    total_items: int = 0
    items_by_unit: dict[str, int] = field(default_factory=dict)
    bytes_sent: dict[str, int] = field(default_factory=dict)
    bytes_received: dict[str, int] = field(default_factory=dict)
    busy_seconds: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    device_errors: dict[str, str] = field(default_factory=dict)

    @property
    def devices_lost(self) -> list[str]:
        """Units lost mid-call, in the order their controllers finished."""
        return list(self.device_errors)

    @property
    def device_items(self) -> int:
        """Items applied on devices (units labelled ``device/<i>``)."""
        return sum(count for unit, count in self.items_by_unit.items()
                   if unit.startswith("device/"))


# ---------------------------------------------------------------------------
# Shared host pool
# ---------------------------------------------------------------------------

_pool_lock = threading.Lock()
_shared_pool: ThreadPoolExecutor | None = None


def shared_pool() -> ThreadPoolExecutor:
    """Process-wide worker pool shared by every hybrid_for_each call.

    Sized generously past the logical core count because tasks are often
    waiting (simulated delays, transfers) rather than computing; explicit
    worker-count requests up to this size behave as asked even on small
    machines.
    """
    global _shared_pool
    with _pool_lock:
        if _shared_pool is None:
            size = min(64, max(16, 2 * (os.cpu_count() or 1)))
            _shared_pool = ThreadPoolExecutor(max_workers=size,
                                              thread_name_prefix="hybrid-pool")
        return _shared_pool


# ---------------------------------------------------------------------------
# Host worker
# ---------------------------------------------------------------------------

def run_host_worker(queue: WorkQueue, sequence, functor, chunk: int) -> int:
    """Take-and-apply loop, ``chunk`` items per block; results replace the
    items with no serialization. Returns the item count once a take is
    empty."""
    done = 0
    apply_to = block_applier(functor)
    take = queue.take
    while not queue.aborted:
        indices = take(chunk)
        if not indices:
            break
        apply_to(sequence, indices)
        done += len(indices)
    return done


# ---------------------------------------------------------------------------
# Device controller
# ---------------------------------------------------------------------------

def _receive_result(ep, in_flight: dict, sequence, codec: Codec) -> int:
    """Wait for the next result block and scatter it; returns its item count.

    The whole block is decoded and checked against the block sent (id and
    item count) before any item is written, so a malformed result leaves the
    sequence untouched and its indices can safely run elsewhere. Any fault
    is a TransportError.
    """
    msg = ep.recv_message()
    if msg.kind == MessageKind.SHUTDOWN:
        raise TransportError("device reported failure: "
                             + msg.payload.decode("utf-8", "replace"))
    if msg.kind != MessageKind.RESULT_BLOCK:
        raise TransportError(f"unexpected message kind {msg.kind!r}")
    try:
        (bid,) = WORK_BLOCK_MSG.unpack(msg.payload)
    except struct.error as exc:
        raise TransportError(f"malformed result announcement: {exc}") from exc
    blob = ep.recv_blob()
    try:
        blk_id, results = decode_block(blob, codec)
        if blk_id != bid:
            raise ValueError(f"block id {blk_id} does not match "
                             f"announcement {bid}")
        sent = in_flight.get(bid)
        if sent is None or len(results) != len(sent):
            raise ValueError("no such block in flight" if sent is None else
                             f"{len(results)} items for {len(sent)} sent")
    except Exception as exc:
        raise TransportError(f"malformed result block {bid}: {exc}") from exc
    for idx, value in zip(sent, results):
        sequence[idx] = value
    del in_flight[bid]
    return len(results)


def run_device_controller(device: DeviceHandle, queue: WorkQueue,
                          sequence, functor, functor_bytes: bytes,
                          chunk: int) -> dict:
    """Drive one device through a full call, all on the calling thread.

    Ships FUNCTOR_STATE (the wire name) and ``functor_bytes`` as a blob,
    then loops: while fewer than ``HOT_BUFFERS`` blocks are un-resulted and
    the queue has work, send a block of the next ``worker_count * chunk``
    items; then scatter one result block to the indices kept for it. When
    the queue is drained and every block is back, SHUTDOWN ends the call.

    If the device dies mid-call, reports a failure or returns a malformed
    result, its un-resulted indices go back to the queue at high priority
    and the fragment carries the reason. Any other error (such as an item
    its codec cannot encode) propagates.
    """
    ep = device.endpoint
    started = time.perf_counter()
    items_done = 0
    next_block_id = 0
    in_flight: dict[int, list[int]] = {}  # block id -> indices sent
    error = None
    block = bytearray()
    try:
        item_codec, results_codec = functor.item_codec, result_codec(functor)
        ep.send_message(Message(MessageKind.FUNCTOR_STATE,
                                encode_str(functor.wire_name)))
        ep.send_blob(functor_bytes)
        while True:
            while len(in_flight) < HOT_BUFFERS:
                packed = pack_block(queue, sequence, block, next_block_id,
                                    device.worker_count * chunk, item_codec)
                if not packed:
                    break
                # Recorded before sending, so a send that fails still
                # leaves these indices to be put back.
                in_flight[next_block_id] = packed
                ep.send_message(Message(MessageKind.WORK_BLOCK,
                                        WORK_BLOCK_MSG.pack(next_block_id)))
                ep.send_blob(block)
                next_block_id += 1
            if not in_flight:
                break  # queue drained and nothing outstanding
            items_done += _receive_result(ep, in_flight, sequence,
                                          results_codec)
        ep.send_message(Message(MessageKind.SHUTDOWN))
    except TransportError as exc:
        error = f"{type(exc).__name__}: {exc}"
        queue.put_back([i for ids in in_flight.values() for i in ids])
    finally:
        device.close()

    return {
        "unit": device.label,
        "items": items_done,
        "bytes_tx": ep.bytes_sent,
        "bytes_rx": ep.bytes_received,
        "busy_seconds": time.perf_counter() - started,
        "error": error,
    }


# ---------------------------------------------------------------------------
# hybrid_for_each
# ---------------------------------------------------------------------------

def hybrid_for_each(sequence, functor, devices: Sequence[DeviceHandle] = (), *,
                    host_workers: int = 1, chunk: int = 1) -> RunStatistics:
    """Apply ``functor`` to every item of ``sequence``, in place, using the
    host pool and every connected device.

    ``chunk`` is the number of items each worker applies at once. Each item
    is transformed exactly once; items handled on the host never touch a
    serializer, items handled on a device travel as bytes both ways and the
    device's functor copy is discarded afterwards. Blocks until all results
    are back in the sequence.

    ``devices`` are consumed: the call closes them, even when the functor
    cannot be encoded. A device lost mid-call only costs time; its pending
    items are re-queued at high priority, the call completes on the
    remaining units, and ``RunStatistics.device_errors`` keeps why.
    """
    n = len(sequence)
    stats = RunStatistics(total_items=n)
    started = time.perf_counter()

    queue = WorkQueue(n)
    functor_bytes = None
    if devices:
        # Encoded once, before any worker can mutate an item, so every
        # device receives the same pre-call snapshot.
        try:
            functor_bytes = encode_functor(functor)
        except BaseException:
            for dev in devices:
                dev.close()
            raise

    fragments: list[dict] = []
    controller_errors: list[BaseException] = []

    def controller_main(dev: DeviceHandle):
        try:
            fragments.append(run_device_controller(
                dev, queue, sequence, functor, functor_bytes, chunk))
        except BaseException as exc:
            # The call fails: stop handing out work, keep the call joinable,
            # then re-raise to the caller.
            queue.abort()
            controller_errors.append(exc)

    controllers = [threading.Thread(target=controller_main, args=(dev,),
                                    name=f"{dev.label}-controller")
                   for dev in devices]
    for t in controllers:
        t.start()

    executor = shared_pool()
    worker_results = []
    worker_errors: list[BaseException] = []

    def worker_task(label: str):
        t0 = time.perf_counter()
        try:
            count = run_host_worker(queue, sequence, functor, chunk)
        except BaseException as exc:
            # Functor failure: stop handing out work, keep the call joinable
            # so controllers wind down, then re-raise to the caller.
            queue.abort()
            worker_errors.append(exc)
            count = 0
        return label, count, time.perf_counter() - t0

    # The calling thread is host worker 0, so the call always makes progress
    # even when the shared pool is saturated by a concurrent call.
    futures = [executor.submit(worker_task, f"host/{i}")
               for i in range(1, host_workers)]
    if host_workers >= 1:
        worker_results.append(worker_task("host/0"))
    worker_results.extend(f.result() for f in futures)
    for t in controllers:
        t.join()

    # Mop up anything re-queued after the workers exited (lost devices).
    t0 = time.perf_counter()
    drained = run_host_worker(queue, sequence, functor, max(chunk, 16))
    if drained:
        stats.items_by_unit["host/drain"] = drained
        stats.busy_seconds["host/drain"] = time.perf_counter() - t0

    for exc in worker_errors + controller_errors:
        raise exc

    for label, count, busy in worker_results:
        stats.items_by_unit[label] = count
        stats.busy_seconds[label] = busy
    for frag in fragments:
        stats.items_by_unit[frag["unit"]] = frag["items"]
        stats.bytes_sent[frag["unit"]] = frag["bytes_tx"]
        stats.bytes_received[frag["unit"]] = frag["bytes_rx"]
        stats.busy_seconds[frag["unit"]] = frag["busy_seconds"]
        if frag["error"] is not None:
            stats.device_errors[frag["unit"]] = frag["error"]
    stats.wall_seconds = time.perf_counter() - started
    return stats
