"""Hybrid runtime: packing, controllers, and the for-each contract."""

import os
import random
import re
import struct
import sys
import threading
from dataclasses import dataclass

import pytest

from hybridsph import cli, device_worker, runtime, sph, transport
from hybridsph.functors import AffineAction, JitterSleepAction, SleepAction
from hybridsph.runtime import (DeviceSpec, WorkQueue, connect_device,
                               decode_block, encode_block, hybrid_for_each,
                               pack_block, parse_block)
from hybridsph.sph import (BLOCK_ROWS, DensityGravityAction,
                           PressureForceAction)
from hybridsph.transport import (DeviceHandle, LinkConfig, Message,
                                 MessageKind, PeerClosedError, SpawnError,
                                 TraceRecorder, create_endpoint_pair,
                                 decode_message)
from hybridsph.wire import (I32_CODEC, I64_CODEC, RecordCodec,
                            TruncatedInputError, register_functor)

from conftest import as_particles, particle_bits


@dataclass
class PoisonAction:
    """Raises on one specific item value; everything else increments."""

    threshold: int

    wire_name = "test-poison-i64"
    item_codec = I64_CODEC

    def apply(self, x: int) -> int:
        if x == self.threshold:
            raise RuntimeError(f"poisoned item {x}")
        return x + 1


register_functor(PoisonAction.wire_name, RecordCodec("<q", PoisonAction))


class UnregisteredAction(AffineAction):
    """An action whose wire name has no codec: it cannot be encoded."""

    wire_name = "test-unregistered"


def max_unresulted_blocks(trace: TraceRecorder) -> int:
    """Highest count of sent-but-unresulted work blocks over the trace."""
    outstanding = peak = 0
    for event, frame in trace.events:
        if event == "send_msg":
            if decode_message(frame).kind == MessageKind.WORK_BLOCK:
                outstanding += 1
                peak = max(peak, outstanding)
        elif event == "recv_msg":
            if decode_message(frame).kind == MessageKind.RESULT_BLOCK:
                outstanding -= 1
    return peak


class TestPackBlock:
    # Block 42 holding the i32 items 7, 8, 9: block id u64 and item count
    # u32, then each item's i32. No sequence index travels with an item.
    PINNED_BLOCK = ("2a00000000000000" "03000000"
                    "07000000" "08000000" "09000000")

    def test_exact_fit_packs_all(self):
        # a batch the size of the remaining work takes all of it
        q = WorkQueue(4)
        block = bytearray()
        packed = pack_block(q, [10, 20, 30, 40], block, 0, 4, I32_CODEC)
        assert packed == [0, 1, 2, 3]
        assert decode_block(bytes(block), I32_CODEC) == (0, [10, 20, 30, 40])
        assert q.take(1) == []

    def test_empty_queue_gives_empty_block(self):
        q = WorkQueue(0)
        block = bytearray(b"previous block")
        assert pack_block(q, [], block, 7, 4, I32_CODEC) == []
        assert block == b"previous block"

    def test_single_item_too_large_raises(self):
        # 2**31 does not fit the i32 codec; the block is left as it was
        q = WorkQueue(3)
        block = bytearray(b"previous block")
        with pytest.raises(struct.error):
            pack_block(q, [1, 2**31, 3], block, 0, 3, I32_CODEC)
        assert block == b"previous block"

    def test_block_payload_parses_back(self):
        q = WorkQueue(3)
        block = bytearray()
        assert pack_block(q, [7, 8, 9], block, 42, 3, I32_CODEC) == [0, 1, 2]
        # One encoder for every block: pinned bytes, the same as packed.
        encoded = encode_block(42, [7, 8, 9], I32_CODEC)
        assert encoded.hex() == self.PINNED_BLOCK
        assert encoded == block
        block_id, count, reader = parse_block(bytes(block))
        assert (block_id, count) == (42, 3)
        items = [I32_CODEC.deserialize(reader) for _ in range(count)]
        assert items == [7, 8, 9]
        # decode_block reads the same block whole and rejects a short or
        # overlong payload.
        blob = bytes(block)
        assert decode_block(blob, I32_CODEC) == (42, items)
        with pytest.raises(TruncatedInputError):
            decode_block(blob[:-1], I32_CODEC)
        with pytest.raises(ValueError, match="past the last item"):
            decode_block(blob + b"\0", I32_CODEC)


class TestHybridForEach:
    def test_sequential_example(self):
        items = [1, 2, 3]
        stats = hybrid_for_each(items, AffineAction(3), host_workers=1)
        assert items == [5, 8, 11]
        assert stats.items_by_unit == {"host/0": 3}
        assert stats.total_items == 3

    def test_empty_sequence_with_device_is_handshake_only(self):
        trace = TraceRecorder()
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0,
                             trace=trace)
        stats = hybrid_for_each([], AffineAction(2), [dev], host_workers=1)
        assert stats.total_items == 0
        kinds = set(trace.message_kinds("send_msg"))
        assert kinds <= {MessageKind.HELLO, MessageKind.FUNCTOR_STATE,
                         MessageKind.SHUTDOWN}

    def test_matches_sequential_oracle_with_random_delays(self):
        items = list(range(1000))
        expected = [JitterSleepAction(0.0, 7).apply(v) for v in range(1000)]
        seq = list(range(1000))
        dev = connect_device(DeviceSpec(worker_count=4, link=LinkConfig()), 0)
        stats = hybrid_for_each(seq, JitterSleepAction(50e-6, 7), [dev],
                                host_workers=2)
        assert seq == expected
        assert sum(stats.items_by_unit.values()) == 1000
        # Items finish out of order on the device's workers, but each result
        # block must still come back in block order, or the host rejects it.
        assert not stats.devices_lost, stats.device_errors

    def test_conservation_across_units(self):
        items = list(range(300))
        devs = [connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), i)
                for i in range(2)]
        stats = hybrid_for_each(items, SleepAction(0.0005), devs,
                                host_workers=2)
        assert items == [v + 1 for v in range(300)]
        assert sum(stats.items_by_unit.values()) == 300

    def test_double_buffering_bound_on_trace(self):
        trace = TraceRecorder()
        dev = connect_device(DeviceSpec(worker_count=4, link=LinkConfig()), 0,
                             trace=trace)
        items = list(range(400))
        hybrid_for_each(items, SleepAction(0.0003), [dev], host_workers=1)
        assert 1 <= max_unresulted_blocks(trace) <= 2

    def test_device_workers_send_each_block_once(self):
        # More device workers than cores and a tiny switch interval: a lost
        # update to a block's pending count would send the block twice (the
        # host then drops the device) or never (the call hangs).
        dev = connect_device(DeviceSpec(worker_count=8,
                                        link=LinkConfig(latency=0.0)), 0)
        items = list(range(4000))
        done = {}

        def call():
            done["stats"] = hybrid_for_each(items, AffineAction(3), [dev],
                                            host_workers=0)

        caller = threading.Thread(target=call, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "hybrid_for_each hung"
        assert items == [3 * v + 2 for v in range(4000)]
        assert not done["stats"].devices_lost, done["stats"].device_errors

    def test_item_too_large_propagates(self):
        # 2**31 does not fit the i32 item codec: packing fails on the host,
        # and that is the caller's error, not a lost device.
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0)
        with pytest.raises(struct.error):
            hybrid_for_each([2**31] * 10, AffineAction(1), [dev],
                            host_workers=0)

    def test_chunked_host_workers(self):
        items = list(range(100))
        stats = hybrid_for_each(items, AffineAction(2), host_workers=3,
                                chunk=7)
        assert items == [v * 2 + 2 for v in range(100)]
        assert sum(stats.items_by_unit.values()) == 100

    def test_device_slices_under_contention(self):
        # Eight device workers share each block as eight slices, with more
        # threads than cores and a short switch interval: a lost update of
        # a block's pending count would send it twice or never.
        dev = connect_device(DeviceSpec(worker_count=8, link=LinkConfig()), 0)
        items = list(range(3000))
        done = {}

        def call():
            done["stats"] = hybrid_for_each(items, AffineAction(3), [dev],
                                            host_workers=2, chunk=5)

        caller = threading.Thread(target=call, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "hybrid_for_each hung"
        assert items == [v * 3 + 2 for v in range(3000)]
        stats = done["stats"]
        assert not stats.devices_lost, stats.device_errors
        assert stats.device_items > 0

    def test_no_workers_no_devices_drains_on_caller(self):
        items = [5, 6]
        stats = hybrid_for_each(items, AffineAction(1), host_workers=0)
        assert items == [7, 8]
        assert stats.items_by_unit == {"host/drain": 2}

    def test_one_blocks_worth_is_one_round_trip(self):
        trace = TraceRecorder()
        dev = connect_device(DeviceSpec(worker_count=4, link=LinkConfig()), 0,
                             trace=trace)
        items = list(range(4))  # exactly one block at batch = worker_count
        hybrid_for_each(items, SleepAction(0.001), [dev], host_workers=0)
        assert items == [v + 1 for v in range(4)]
        sent = trace.message_kinds("send_msg")
        received = trace.message_kinds("recv_msg")
        assert sent.count(MessageKind.WORK_BLOCK) == 1
        assert received.count(MessageKind.RESULT_BLOCK) == 1

    def test_functor_state_ships_before_blocks(self):
        trace = TraceRecorder()
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0,
                             trace=trace)
        hybrid_for_each(list(range(20)), SleepAction(0.0002), [dev],
                        host_workers=0)
        kinds = trace.message_kinds("send_msg")
        first_work = kinds.index(MessageKind.WORK_BLOCK)
        assert MessageKind.FUNCTOR_STATE in kinds[:first_work]

    def test_reentrant_calls_share_the_pool(self):
        a = list(range(200))
        b = list(range(200, 400))
        results = {}

        def call(name, seq, scale):
            stats = hybrid_for_each(seq, AffineAction(scale), host_workers=4)
            results[name] = stats

        t1 = threading.Thread(target=call, args=("a", a, 3))
        t2 = threading.Thread(target=call, args=("b", b, 5))
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert a == [v * 3 + 2 for v in range(200)]
        assert b == [v * 5 + 2 for v in range(200, 400)]
        assert sum(results["a"].items_by_unit.values()) == 200
        assert sum(results["b"].items_by_unit.values()) == 200

    def test_reentrant_calls_with_a_device(self):
        a = list(range(150))
        b = list(range(150))
        done = {}

        def with_device():
            dev = connect_device(
                DeviceSpec(worker_count=4, link=LinkConfig()), 0)
            done["a"] = hybrid_for_each(a, SleepAction(0.0005), [dev],
                                        host_workers=2)

        def host_only():
            done["b"] = hybrid_for_each(b, SleepAction(0.0005),
                                        host_workers=2)

        t1 = threading.Thread(target=with_device)
        t2 = threading.Thread(target=host_only)
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert a == b == [v + 1 for v in range(150)]
        assert not done["a"].devices_lost


def _scripted_peer(ep, mode: str) -> None:
    """Device stand-in: answers work block 0, then misbehaves.

    ``"close"`` returns block 0 intact and closes the link. The other modes
    send one bad reply and then read work blocks until the host closes:
    ``"truncated"`` returns block 0 cut short by four bytes,
    ``"wrong-count"`` a well-formed block 0 with one item fewer,
    ``"unknown-block"`` a well-formed result announced and headed as block 7,
    ``"short-announcement"`` a RESULT_BLOCK whose payload is 4 bytes, and
    ``"unknown-kind"`` a message of kind 9.
    """
    try:
        ep.recv_message()  # FUNCTOR_STATE: the wire name ...
        ep.recv_blob()     # ... then the functor state
        (bid,) = runtime.WORK_BLOCK_MSG.unpack(ep.recv_message().payload)
        _, items = decode_block(ep.recv_blob(), I64_CODEC)
        results = [v + 1 for v in items]
        if mode == "wrong-count":
            results.pop()
        elif mode == "unknown-block":
            bid = 7
        data = bytes(encode_block(bid, results, I64_CODEC))
        if mode == "short-announcement":
            ep.send_message(Message(MessageKind.RESULT_BLOCK, b"\0" * 4))
        elif mode == "unknown-kind":
            ep.send_message(Message(9, b""))
        else:
            if mode == "truncated":
                data = data[:-4]
            ep.send_message(Message(MessageKind.RESULT_BLOCK,
                                    runtime.WORK_BLOCK_MSG.pack(bid)))
            ep.send_blob(data)
        while mode != "close":
            if ep.recv_message().kind == MessageKind.WORK_BLOCK:
                ep.recv_blob()
    except PeerClosedError:
        pass
    finally:
        ep.close()


def _state_then_close_peer(ep) -> None:
    """Device stand-in: takes the functor state and one work block, then
    closes the link without a result."""
    try:
        for _ in range(2):
            ep.recv_message()
            ep.recv_blob()
    except PeerClosedError:
        pass
    finally:
        ep.close()


class TestDeviceLoss:
    @pytest.mark.parametrize("action, scalar", [
        (DensityGravityAction, sph.phase2_density_gravity),
        (PressureForceAction, sph.phase3_pressure)], ids=["phase2", "phase3"])
    def test_device_lost_mid_phase_leaves_its_rows_to_the_host(self, action,
                                                               scalar):
        # The device takes a block of shuffled rows and is lost; the host
        # applies the put-back rows, which are not contiguous, as blocks,
        # with the bits of the scalar reference.
        state = sph.make_scene(700, seed=5)
        sph.phase1_prepare(state)
        if scalar is sph.phase3_pressure:
            for p in state.particles:
                sph.phase2_density_gravity(state, p)
        want = [particle_bits(scalar(state, p))
                for p in as_particles(state.particles)]
        applied = []

        class Watched(action):
            __slots__ = ()

            def apply_block(self, rows):
                applied.append(list(rows))
                return super().apply_block(rows)

        n = len(state.particles)
        order = random.Random(5).sample(range(n), n)
        items = list(order)
        host_ep, dev_ep = create_endpoint_pair(LinkConfig())
        peer = threading.Thread(target=_state_then_close_peer, args=(dev_ep,))
        peer.start()
        dev = DeviceHandle(host_ep, 2, master_thread=peer)
        functor = Watched(state)
        stats = hybrid_for_each(items, functor, [dev], host_workers=0,
                                chunk=BLOCK_ROWS)
        peer.join(timeout=10.0)
        assert not peer.is_alive()
        assert stats.devices_lost == ["device/0"]
        assert "PeerClosedError" in stats.device_errors["device/0"]
        assert stats.items_by_unit["host/drain"] == n
        assert sorted(r for rows in applied for r in rows) == list(range(n))
        assert all(len(rows) > 1 and rows != sorted(rows) for rows in applied)
        results = dict(zip(order, items))
        got = []
        for i, p in enumerate(as_particles(state.particles)):
            for name, value in zip(functor.writes, results[i], strict=True):
                setattr(p, name, value)
            got.append(particle_bits(p))
        assert got == want

    @pytest.mark.parametrize("mode", ["close", "truncated", "wrong-count",
                                      "unknown-block", "short-announcement",
                                      "unknown-kind"])
    def test_scripted_peer_fault_keeps_exactly_once(self, mode):
        # A lost or malformed device must leave every item applied exactly
        # once: stranded indices go back to the queue, and a bad result
        # block writes nothing before it is rejected. The close race is
        # timing-dependent, so it is tried many times. The loss keeps its
        # reason.
        reason = {"close": "PeerClosedError: peer closed the link",
                  "truncated": "malformed result block 0",
                  "wrong-count": "malformed result block 0",
                  "unknown-block": "malformed result block 7",
                  "short-announcement": "malformed result announcement",
                  "unknown-kind": "9 is not a valid MessageKind"}[mode]
        for trial in range(60):
            cfg = LinkConfig()
            host_ep, dev_ep = create_endpoint_pair(cfg)
            peer = threading.Thread(target=_scripted_peer, args=(dev_ep, mode))
            peer.start()
            dev = DeviceHandle(host_ep, 2, master_thread=peer)
            items = list(range(8))
            stats = hybrid_for_each(items, SleepAction(0.0), [dev],
                                    host_workers=0)
            peer.join(timeout=10.0)
            assert not peer.is_alive()
            assert items == [v + 1 for v in range(8)], f"trial {trial}"
            assert stats.devices_lost == ["device/0"]
            assert reason in stats.device_errors["device/0"]

    @pytest.mark.parametrize("kind", ["in-process", "subprocess"])
    def test_unencodable_result_fails_over_instead_of_hanging(self, kind):
        # 4 * 2**30 + 2 does not fit the i32 item codec, so every device
        # worker fails to encode its block. The device must report it and
        # the host must finish the items itself, not wait forever.
        dev = connect_device(DeviceSpec(worker_count=2,
                                        link=LinkConfig(kind=kind)), 0)
        items = [2**30] * 8
        done = {}

        def call():
            done["stats"] = hybrid_for_each(items, AffineAction(4), [dev],
                                            host_workers=0)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=20.0)
        assert not caller.is_alive(), "hybrid_for_each hung"
        stats = done["stats"]
        assert items == [4 * 2**30 + 2] * 8
        assert stats.devices_lost == ["device/0"]
        reason = stats.device_errors["device/0"]
        assert re.search(r"result block \d+: error: ", reason), reason

    def test_killed_subprocess_device_recovers(self):
        dev = connect_device(
            DeviceSpec(worker_count=2, link=LinkConfig(kind="subprocess")), 0)
        items = list(range(300))
        killer = threading.Timer(0.15, dev._process.kill)
        killer.start()
        try:
            stats = hybrid_for_each(items, SleepAction(0.002), [dev],
                                    host_workers=2)
        finally:
            killer.cancel()
        assert items == [v + 1 for v in range(300)]
        assert sum(stats.items_by_unit.values()) == 300
        assert stats.devices_lost == ["device/0"]

    def test_functor_failure_surfaces_host_only(self):
        with pytest.raises(RuntimeError, match="poisoned"):
            hybrid_for_each(list(range(50)), PoisonAction(17), host_workers=2)

    def test_functor_failure_surfaces_with_device(self):
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0)
        with pytest.raises(RuntimeError, match="poisoned"):
            hybrid_for_each(list(range(50)), PoisonAction(33), [dev],
                            host_workers=1)

    def test_malformed_block_triggers_error_shutdown(self):
        host, dev_ep = create_endpoint_pair(LinkConfig())
        loop = threading.Thread(
            target=device_worker.run_device_worker_loop, args=(dev_ep, 1))
        loop.start()
        try:
            # a work block before any functor state is a protocol violation
            host.send_message(Message(MessageKind.WORK_BLOCK,
                                      runtime.WORK_BLOCK_MSG.pack(0)))
            host.send_blob(b"\x00" * 4)
            reply = host.recv_message(timeout=10.0)
            assert reply.kind == MessageKind.SHUTDOWN
            assert b"no functor" in reply.payload
        finally:
            host.close()
            loop.join(timeout=10.0)
            assert not loop.is_alive()


def _open_fd_count() -> int | None:
    """How many descriptors this process holds; None where /proc is absent."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


class TestHygiene:
    @pytest.mark.parametrize("kind", ["in-process", "subprocess"])
    def test_device_call_leaves_no_threads_or_processes(self, kind):
        spec = DeviceSpec(worker_count=2, link=LinkConfig(kind=kind))
        before = threading.active_count()
        fds = _open_fd_count()
        dev = connect_device(spec, 0)
        items = list(range(40))
        hybrid_for_each(items, SleepAction(0.0002), [dev], host_workers=1)
        assert items == [v + 1 for v in range(40)]
        assert threading.active_count() == before
        # A host copy of the device's end left open would leak one
        # descriptor per call and hide the device's death from the host.
        assert _open_fd_count() == fds
        if kind == "subprocess":
            assert dev._process.poll() == 0  # exited, and cleanly

        # A functor that cannot be encoded fails the call before any block
        # is sent; the device it was given is closed all the same.
        dev = connect_device(spec, 0)
        with pytest.raises(KeyError, match="test-unregistered"):
            hybrid_for_each(list(range(10)), UnregisteredAction(1), [dev],
                            host_workers=1)
        assert threading.active_count() == before
        if kind == "subprocess":
            assert dev._process.poll() is not None

    @pytest.mark.parametrize("kind", ["in-process", "subprocess"])
    def test_failed_connect_closes_the_devices_already_up(self, kind,
                                                          monkeypatch):
        # The second of two connects fails: the first device, already up,
        # must not outlive the error, whether the simulation step or the
        # synthetic workload asked for the devices.
        real_connect = transport.connect
        handles = []

        def connect_once(config, worker_count, **kwargs):
            if handles:
                raise SpawnError("second device refused")
            handles.append(real_connect(config, worker_count, **kwargs))
            return handles[-1]

        monkeypatch.setattr(transport, "connect", connect_once)
        spec = DeviceSpec(worker_count=2, link=LinkConfig(kind=kind))
        before = threading.active_count()
        for call in (lambda: sph.simulation_step(sph.make_scene(20),
                                                 [spec, spec]),
                     lambda: cli.run_synthetic(10, [spec, spec], 1, 0.0)):
            handles.clear()
            with pytest.raises(SpawnError, match="second device"):
                call()
            assert len(handles) == 1
            assert threading.active_count() == before
            if kind == "subprocess":
                assert handles[0]._process.poll() is not None


class TestRunStatistics:
    def test_device_bytes_accounted(self):
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0)
        items = list(range(50))
        stats = hybrid_for_each(items, SleepAction(0.0005), [dev],
                                host_workers=1)
        if stats.items_by_unit.get("device/0", 0) > 0:
            assert stats.bytes_sent["device/0"] > 0
            assert stats.bytes_received["device/0"] > 0
