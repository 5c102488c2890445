"""Link contract: timing model, FIFO, handshake, faults, transport parity."""

import hashlib
import os
import socket
import struct
import sys
import time

import pytest

from hybridsph.functors import AffineAction
from hybridsph.runtime import (DeviceSpec, connect_device, hybrid_for_each,
                               parse_block)
from hybridsph.sph import (BLOCK_ROWS, DensityGravityAction,
                           PressureForceAction, make_scene, phase1_prepare,
                           phase2_density_gravity)
from hybridsph.transport import (PROTOCOL_VERSION, HandshakeTimeoutError,
                                 LinkConfig, Message, MessageKind,
                                 PeerClosedError, SpawnError, TraceRecorder,
                                 TransportError, VersionMismatchError, connect,
                                 create_endpoint_pair, decode_message,
                                 encode_message, link_time, socket_endpoint)


class TestLinkTime:
    def test_zero_bytes_costs_latency_only(self):
        cfg = LinkConfig(bandwidth=1e9, latency=10e-6)
        assert link_time(0, cfg) == 10e-6

    def test_hand_checked_megabyte(self):
        cfg = LinkConfig(bandwidth=float(1 << 30), latency=10e-6)
        # 2^20 / 2^30 s = 976.5625 us, plus 10 us latency
        assert link_time(1 << 20, cfg) == pytest.approx(986.5625e-6, rel=1e-12)

    def test_doubling_bandwidth_halves_transfer_term(self):
        # with zero latency, link_time is the bytes/bandwidth term itself,
        # and halving by a power of two is exact in floating point
        a = LinkConfig(bandwidth=5e8, latency=0.0)
        b = LinkConfig(bandwidth=1e9, latency=0.0)
        for n in (1, 4096, 1 << 20, 999_999):
            assert link_time(n, a) == 2 * link_time(n, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(bandwidth=0)
        with pytest.raises(ValueError):
            LinkConfig(latency=-1e-9)
        with pytest.raises(ValueError):
            LinkConfig(kind="carrier-pigeon")


class TestMessageCodec:
    def test_roundtrip(self):
        msg = Message(MessageKind.WORK_BLOCK, b"payload-bytes")
        assert decode_message(encode_message(msg)) == msg

    def test_frame_layout(self):
        frame = encode_message(Message(MessageKind.SHUTDOWN, b"ab"))
        # kind u32 | length u64 | payload, little-endian
        assert frame == b"\x05\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00ab"

    @pytest.mark.parametrize("frame", [
        b"\x05\x00\x00", encode_message(Message(9, b"")),
        encode_message(Message(MessageKind.SHUTDOWN, b"ab"))[:-1],
    ], ids=["short-header", "unknown-kind", "short-payload"])
    def test_malformed_frame_is_transport_error(self, frame):
        with pytest.raises(TransportError):
            decode_message(frame)


class TestInProcessPair:
    """Link contract over the in-process queues; TestSocketPair reruns every
    test over sockets, so the deadline stamp crosses a byte stream too."""

    def pair(self, config):
        return create_endpoint_pair(config)

    def test_message_fifo(self):
        host, dev = self.pair(LinkConfig())
        try:
            payloads = [bytes([i]) * (i % 17) for i in range(60)]
            for p in payloads:
                host.send_message(Message(MessageKind.WORK_BLOCK, p))
            got = [dev.recv_message().payload for _ in payloads]
            assert got == payloads
        finally:
            host.close()
            dev.close()

    def test_blob_roundtrip_and_completion(self):
        host, dev = self.pair(LinkConfig())
        try:
            data = bytearray(b"x" * 1000)
            host.send_blob(data)
            data[:] = b"y" * 1000  # the sender may reuse its buffer at once
            assert dev.recv_blob() == b"x" * 1000
            assert host.bytes_sent == dev.bytes_received == 1000
        finally:
            host.close()
            dev.close()

    def test_zero_length_blob_completes_after_latency(self):
        cfg = LinkConfig(bandwidth=1e12, latency=0.05)
        host, dev = self.pair(cfg)
        try:
            t0 = time.perf_counter()
            host.send_blob(b"")
            assert dev.recv_blob() == b""
            assert time.perf_counter() - t0 >= 0.045
        finally:
            host.close()
            dev.close()

    def test_same_direction_transfers_serialize(self):
        # three transfers, each ~60 ms of simulated time
        cfg = LinkConfig(bandwidth=100_000.0, latency=0.01)
        host, dev = self.pair(cfg)
        try:
            sizes = [5000, 5000, 5000]
            t0 = time.perf_counter()
            for i, n in enumerate(sizes):
                host.send_blob(bytes([i]) * n)
            done = []
            for i, n in enumerate(sizes):
                assert dev.recv_blob() == bytes([i]) * n  # submit order
                done.append(time.perf_counter())
            total = done[-1] - t0
            expected = sum(link_time(n, cfg) for n in sizes)
            assert total >= 0.9 * expected
        finally:
            host.close()
            dev.close()

    def test_opposite_directions_are_full_duplex(self):
        cfg = LinkConfig(bandwidth=100_000.0, latency=0.001)
        host, dev = self.pair(cfg)
        try:
            n = 10_000  # ~100 ms each way
            t0 = time.perf_counter()
            host.send_blob(b"a" * n)
            dev.send_blob(b"b" * n)
            assert dev.recv_blob() == b"a" * n
            assert host.recv_blob() == b"b" * n
            elapsed = time.perf_counter() - t0
            one_way = link_time(n, cfg)
            assert elapsed < 1.8 * one_way  # far below the serialized 2x
        finally:
            host.close()
            dev.close()

    def test_stream_keeps_send_order(self):
        # One stream per direction: a message sent after a blob is received
        # after it, never before the blob's link time, and a recv_message
        # that meets a blob is an error rather than a skip.
        cfg = LinkConfig(bandwidth=100_000.0, latency=0.001)
        host, dev = self.pair(cfg)
        try:
            t0 = time.perf_counter()
            host.send_blob(b"a" * 5000)
            host.send_message(Message(MessageKind.SHUTDOWN))
            assert dev.recv_blob() == b"a" * 5000
            assert dev.recv_message().kind == MessageKind.SHUTDOWN
            assert time.perf_counter() - t0 >= link_time(5000, cfg)
            host.send_blob(b"x" * 1000)
            with pytest.raises(TransportError):
                dev.recv_message()
        finally:
            host.close()
            dev.close()

    def test_recv_after_peer_close_reports_peer_closed(self):
        host, dev = self.pair(LinkConfig())
        host.send_message(Message(MessageKind.SHUTDOWN))
        assert dev.recv_message().kind == MessageKind.SHUTDOWN
        host.close()
        with pytest.raises(PeerClosedError):
            dev.recv_message()
        dev.close()

    def test_two_pairs_no_cross_talk(self):
        a_host, a_dev = self.pair(LinkConfig())
        b_host, b_dev = self.pair(LinkConfig())
        try:
            a_host.send_message(Message(MessageKind.WORK_BLOCK, b"for-a"))
            b_host.send_message(Message(MessageKind.WORK_BLOCK, b"for-b"))
            assert a_dev.recv_message().payload == b"for-a"
            assert b_dev.recv_message().payload == b"for-b"
        finally:
            for ep in (a_host, a_dev, b_host, b_dev):
                ep.close()


class TestSocketPair(TestInProcessPair):
    def pair(self, config):
        host, dev = socket.socketpair()
        return (socket_endpoint("host", host, config),
                socket_endpoint("device", dev, config))


class TestConnect:
    @pytest.mark.parametrize("kind,workers", [("in-process", 8),
                                              ("subprocess", 3)],
                             ids=["in-process", "subprocess"])
    def test_hello_carries_version_only(self, kind, workers):
        # The device is spawned with its worker count and link, so the
        # handshake is its 4-byte HELLO and the host sends nothing back.
        trace = TraceRecorder()
        handle = connect(LinkConfig(kind=kind), worker_count=workers,
                         trace=trace)
        assert handle.worker_count == workers
        assert trace.frames("recv_msg") == [encode_message(Message(
            MessageKind.HELLO, struct.pack("<I", PROTOCOL_VERSION)))]
        assert trace.frames("send_msg") == []
        handle.endpoint.send_message(Message(MessageKind.SHUTDOWN))
        handle.close()

    @pytest.mark.parametrize("kind", ["in-process", "subprocess"])
    def test_device_sends_with_configured_latency(self, kind):
        # One item with no host workers: the functor blob, the work blob
        # queued behind it and the result each take the 0.2 s latency, so
        # the result is scattered no sooner than 0.6 s after the call
        # starts. A device that sent with the default link rather than the
        # one it was spawned with would scatter at about 0.4 s.
        class StampedList(list):
            def __setitem__(self, i, value):
                self.written_at = time.monotonic()
                super().__setitem__(i, value)

        dev = connect_device(DeviceSpec(
            worker_count=1, link=LinkConfig(latency=0.2, kind=kind)), 0)
        items = StampedList([1])
        t0 = time.monotonic()
        stats = hybrid_for_each(items, AffineAction(3), [dev],
                                host_workers=0)
        assert items == [5] and stats.device_items == 1
        assert items.written_at - t0 >= 0.6

    def test_version_mismatch_rejected(self):
        with pytest.raises(VersionMismatchError):
            connect(LinkConfig(), worker_count=1, _device_version=99)

    def test_missing_executable_is_spawn_failure(self):
        with pytest.raises(SpawnError):
            connect(LinkConfig(kind="subprocess"), worker_count=1,
                    worker_command=["/nonexistent/device-worker"])

    def test_unresponsive_worker_is_handshake_timeout(self):
        # a command that starts fine but never connects back
        with pytest.raises(HandshakeTimeoutError):
            connect(LinkConfig(kind="subprocess"), worker_count=1,
                    worker_command=[sys.executable, "-c",
                                    "import time; time.sleep(5)"],
                    handshake_timeout=0.8)

    def test_worker_that_exits_at_startup_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(SpawnError, match="3"):
            connect(LinkConfig(kind="subprocess"), worker_count=1,
                    worker_command=[sys.executable, "-c",
                                    "raise SystemExit(3)"],
                    handshake_timeout=30)
        assert time.perf_counter() - t0 < 5.0

    def test_worker_that_drops_its_link_fails_fast(self, tmp_path):
        # The worker closes every inherited descriptor, its link among
        # them, and stays alive: the host sees EOF before any HELLO, kills
        # and reaps the worker, and says so rather than wait out the
        # handshake timeout.
        pid_file = tmp_path / "pid"
        t0 = time.perf_counter()
        with pytest.raises(SpawnError, match="closed its link") as err:
            connect(LinkConfig(kind="subprocess"), worker_count=1,
                    worker_command=[sys.executable, "-c",
                                    "import os, sys, time; "
                                    "open(sys.argv[1], 'w').write("
                                    "str(os.getpid())); "
                                    "os.closerange(3, 1024); time.sleep(20)",
                                    str(pid_file)],
                    handshake_timeout=8)
        assert time.perf_counter() - t0 < 5.0
        assert "exited" not in str(err.value)
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(int(pid_file.read_text()), 0)

    @pytest.mark.parametrize("inherited, code", [(None, 1), ("3", 3)])
    def test_worker_starts_with_one_blas_thread(self, monkeypatch, inherited,
                                                code):
        # The worker reports its OPENBLAS_NUM_THREADS as its exit code: one
        # thread unless the caller's environment sets its own.
        if inherited is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
        with pytest.raises(SpawnError, match=f"code {code} "):
            connect(LinkConfig(kind="subprocess"), worker_count=1,
                    worker_command=[sys.executable, "-c",
                                    "import os; raise SystemExit(int("
                                    "os.environ['OPENBLAS_NUM_THREADS']))"],
                    handshake_timeout=30)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            connect(LinkConfig(), worker_count=0)


def _golden_trace(kind: str):
    """Drive the same deterministic schedule through one transport."""
    trace = TraceRecorder()
    spec = DeviceSpec(worker_count=1, link=LinkConfig(kind=kind))
    dev = connect_device(spec, 0, trace=trace)
    items = list(range(6))
    # No host workers and one device worker: every item travels in its own
    # block, and results come back in the order the blocks were sent.
    hybrid_for_each(items, AffineAction(5), [dev], host_workers=0)
    assert items == [v * 5 + 2 for v in range(6)]
    return trace


class TestTransportEquivalence:
    def test_golden_trace_matches_across_transports(self):
        a = _golden_trace("in-process")
        b = _golden_trace("subprocess")
        # Byte-identical outbound message and blob streams...
        assert a.frames("send_msg") == b.frames("send_msg")
        assert a.frames("send_blob") == b.frames("send_blob")
        # ... and byte-identical inbound streams (one device worker makes
        # the result order deterministic too).
        assert a.frames("recv_msg") == b.frames("recv_msg")
        assert a.frames("recv_blob") == b.frames("recv_blob")
        # The device's HELLO is the one handshake message.
        assert a.message_kinds("recv_msg")[0] == MessageKind.HELLO
        kinds = a.message_kinds("send_msg")
        assert kinds[0] == MessageKind.FUNCTOR_STATE
        assert kinds[-2:] == [MessageKind.WORK_BLOCK, MessageKind.SHUTDOWN]


# SHA-256 over every endpoint event of the golden schedule (in-process, then
# subprocess) and of a 300-row phase-2 call in blocks of BLOCK_ROWS rows;
# pins each wire byte of protocol 4.
GOLDEN_WIRE_SHA256 = (
    "a01d65ce88bce9cb490b1a1a3c2901e43ff36c72dc63ccdd4727fdf5229365ab")


def test_golden_wire_digest():
    traces = [_golden_trace("in-process"), _golden_trace("subprocess")]
    state = make_scene(300, seed=3)
    phase1_prepare(state)
    traces.append(TraceRecorder())
    dev = connect_device(DeviceSpec(worker_count=1, link=LinkConfig()), 0,
                         trace=traces[-1])
    stats = hybrid_for_each(list(range(300)), DensityGravityAction(state),
                            [dev], host_workers=0, chunk=BLOCK_ROWS)
    assert stats.device_items == 300
    digest = hashlib.sha256()
    for trace in traces:
        for name, data in trace.events:
            digest.update(name.encode() + len(data).to_bytes(8, "little")
                          + data)
    assert digest.hexdigest() == GOLDEN_WIRE_SHA256


@pytest.mark.parametrize("action, result_size", [
    (DensityGravityAction, 40), (PressureForceAction, 24)],
    ids=["phase2", "phase3"])
def test_offloaded_row_sends_its_id_and_gets_its_fields(action, result_size):
    # A row goes out as its u32 id and comes back as the f64 fields its
    # phase writes: 44 B per row for phase 2 and 28 B for phase 3, plus a
    # 12-byte header per block.
    state = make_scene(700, seed=4)
    phase1_prepare(state)
    for p in state.particles:
        phase2_density_gravity(state, p)
    trace = TraceRecorder()
    dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0,
                         trace=trace)
    stats = hybrid_for_each(list(range(700)), action(state), [dev],
                            host_workers=0, chunk=BLOCK_ROWS)
    assert stats.device_items == 700
    work = trace.frames("send_blob")[1:]  # after the functor state
    for blobs, row_size in ((work, 4), (trace.frames("recv_blob"),
                                        result_size)):
        counts = [parse_block(blob)[1] for blob in blobs]
        # Two device workers: blocks of 2 * BLOCK_ROWS rows; results may
        # come back in either order.
        assert sorted(counts) == [700 - 2 * BLOCK_ROWS, 2 * BLOCK_ROWS]
        assert [len(blob) for blob in blobs] == [12 + row_size * k
                                                 for k in counts]
