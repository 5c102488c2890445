"""Device-side execution: the master loop and its worker threads.

The master thread owns the endpoint's receive side. It rebuilds the functor
from FUNCTOR_STATE, spawns the requested number of workers, and from then on
only moves blocks around: each WORK_BLOCK blob is handed to the workers,
who pull items off a shared cursor, apply the functor, and append results
to the block's result buffer. The last worker to finish a block sends it
home; blocks therefore return whole, possibly out of order, with item order
inside a block determined by completion, not arrival. The host scatters by
sequence index either way.

Runs identically as a thread (in-process transport) or as the main loop of
the worker executable (subprocess transport, ``python -m
hybridsph.device_worker --connect <host:port> --workers <n>``).
"""

from __future__ import annotations

import argparse
import queue as queue_mod
import socket
import sys
import threading

from . import functors  # noqa: F401  (registers the standard functor codecs)
from . import transport
from .runtime import BufferPool, FUNCTOR_HEADER, WORK_BLOCK_MSG, parse_block
from .transport import (Endpoint, LinkConfig, Message, MessageKind,
                        TransportError, parse_host_hello)
from .wire import ByteReader, decode_functor


class _BlockWork:
    """One inbound block: shared item cursor plus the result accumulator."""

    __slots__ = ("block_id", "count", "reader", "taken", "done",
                 "result", "result_writer", "result_lock")

    def __init__(self, blob: bytes, pool: BufferPool):
        self.block_id, self.count, self.reader = parse_block(blob)
        self.taken = 0
        self.done = 0
        self.result = pool.acquire(len(blob))
        # Result sizes can differ from input sizes, so the writer is
        # unbounded; the pooled bytearray still gets reused.
        self.result_writer = self.result.begin(self.block_id)
        self.result_writer.capacity = None
        self.result_lock = threading.Lock()


def _worker_loop(endpoint: Endpoint, functor, blocks: queue_mod.Queue,
                 source_lock: threading.Lock, shared: dict,
                 send_lock: threading.Lock, pool: BufferPool) -> None:
    """Apply items until the no-more-work sentinel arrives.

    Item acquisition deserializes under the source lock (items are not
    self-delimiting, so the read cursor is shared); the apply itself runs
    unlocked.
    """
    deser = functor.item_codec.deserialize
    ser = functor.item_codec.serialize
    while True:
        with source_lock:
            block: _BlockWork | None = shared.get("current")
            while block is None or block.taken >= block.count:
                if shared.get("stopping"):
                    return
                nxt = blocks.get()
                if nxt is None:
                    shared["stopping"] = True
                    return
                block = nxt
                shared["current"] = block
            idx = block.reader.read_u64()
            value = deser(block.reader)
            block.taken += 1

        try:
            value = functor.apply(value)
        except Exception as exc:
            # A failed apply strands the whole block; tell the host to treat
            # this device as lost so the items run elsewhere (where the same
            # failure, if deterministic, surfaces as the caller's error).
            shared["stopping"] = True
            with send_lock:
                try:
                    endpoint.send_message(Message(
                        MessageKind.SHUTDOWN,
                        f"apply failed on item {idx}: {exc}".encode()))
                except TransportError:
                    pass
            return

        with block.result_lock:
            block.result_writer.write_u64(idx)
            ser(value, block.result_writer)
            block.result.item_count += 1
            block.done += 1
            last = block.done == block.count
        if last:
            block.result.finalize()
            try:
                with send_lock:
                    endpoint.send_message(Message(
                        MessageKind.RESULT_BLOCK,
                        WORK_BLOCK_MSG.pack(block.block_id,
                                            len(block.result.data))))
                    endpoint.send_blob(block.result.data)
            except TransportError:
                shared["stopping"] = True  # the host is gone
                return
            finally:
                pool.release(block.result)


def run_device_worker_loop(endpoint: Endpoint, worker_count: int,
                           pool: BufferPool | None = None) -> None:
    """Master loop: serve one call session, then exit on SHUTDOWN.

    Protocol violations are answered with a SHUTDOWN message carrying an
    error description before the loop gives up.
    """
    pool = pool or BufferPool()
    blocks: queue_mod.Queue = queue_mod.Queue()
    source_lock = threading.Lock()
    send_lock = threading.Lock()
    shared: dict = {"current": None, "stopping": False}
    workers: list[threading.Thread] = []
    functor = None

    try:
        while True:
            try:
                msg = endpoint.recv_message()
            except TransportError:
                break
            if msg.kind == MessageKind.FUNCTOR_STATE:
                r = ByteReader(msg.payload)
                name = r.read_str()
                inline, nbytes = FUNCTOR_HEADER.unpack(
                    r.read_bytes(FUNCTOR_HEADER.size))
                payload = r.read_bytes(nbytes) if inline else endpoint.recv_blob()
                functor = decode_functor(name, payload)
                workers = [threading.Thread(
                    target=_worker_loop,
                    args=(endpoint, functor, blocks, source_lock, shared,
                          send_lock, pool),
                    name=f"device-worker-{i}", daemon=True)
                    for i in range(worker_count)]
                for w in workers:
                    w.start()
            elif msg.kind == MessageKind.WORK_BLOCK:
                block_id, nbytes = WORK_BLOCK_MSG.unpack(msg.payload)
                blob = endpoint.recv_blob()
                if functor is None or len(blob) != nbytes:
                    raise _Malformed(
                        f"work block {block_id}: "
                        + ("no functor installed" if functor is None
                           else f"expected {nbytes} bytes, got {len(blob)}"))
                try:
                    blocks.put(_BlockWork(blob, pool))
                except Exception as exc:
                    raise _Malformed(f"work block {block_id}: {exc}") from exc
            elif msg.kind == MessageKind.NO_MORE_WORK:
                blocks.put(None)
                for w in workers:
                    w.join()
                workers = []
            elif msg.kind == MessageKind.SHUTDOWN:
                break
            else:
                raise _Malformed(f"unexpected message kind {msg.kind!r}")
    except _Malformed as exc:
        try:
            endpoint.send_message(Message(MessageKind.SHUTDOWN,
                                          str(exc).encode("utf-8")))
        except TransportError:
            pass
    finally:
        shared["stopping"] = True
        blocks.put(None)
        for w in workers:
            w.join(timeout=10.0)
        endpoint.close()


class _Malformed(Exception):
    """Host sent something the protocol does not allow."""


def serve(endpoint: Endpoint, worker_count: int,
          pool: BufferPool | None = None,
          protocol_version: int = transport.PROTOCOL_VERSION) -> None:
    """HELLO, then the loop. The host's HELLO carries the link parameters
    this side sends with from then on."""
    try:
        endpoint.send_message(transport.device_hello(worker_count,
                                                     protocol_version))
        endpoint.config = parse_host_hello(endpoint.recv_message(timeout=60.0))
    except TransportError:
        endpoint.close()
        return
    run_device_worker_loop(endpoint, worker_count, pool)


def _connect_channel(host: str, port: int, tag: bytes) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    sock.sendall(tag)
    return sock


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridsph-device-worker",
        description="Device-side worker process; launched by the host.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--workers", required=True, type=int)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")

    msg_sock = _connect_channel(host, int(port), b"M")
    bulk_sock = _connect_channel(host, int(port), b"B")

    # The link parameters arrive in the host's HELLO reply; until then this
    # side sends with zero simulated latency.
    endpoint = transport.socket_endpoint("device", msg_sock, bulk_sock,
                                         LinkConfig(latency=0.0))
    serve(endpoint, args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
