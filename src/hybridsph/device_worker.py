"""Device-side execution: the master loop and its worker threads.

A device serves one ``hybrid_for_each`` call; it is spawned with its link
parameters, and its one HELLO carries only the protocol version. The master
thread owns the endpoint's receive side: it rebuilds the functor from
FUNCTOR_STATE (the wire name) and the state blob that follows, starts the
requested number of workers, decodes each WORK_BLOCK whole with
``runtime.decode_block`` and puts one ``(block, positions)`` task per worker
slice on a single queue (items carry no index; the host keeps those). The
workers apply a slice as one block, as the host's do, each result over its
item: whoever applies a block's last slice encodes the results in block
order with ``runtime.encode_block`` and the functor's result codec, and
sends RESULT_BLOCK and then its blob, which a lock keeps adjacent on the
one outbound stream. Blocks return whole, possibly out of order, and their
bytes do not depend on the order in which slices complete.

SHUTDOWN from the host ends the call. An apply or a result encode that
raises, or a message the protocol does not allow, is answered with SHUTDOWN
carrying the reason; the host then counts the device as lost and finishes
its items.

Runs identically as a thread (in-process transport) or as the main loop of
the worker executable (subprocess transport, ``python -m
hybridsph.device_worker --fd <n> --workers <n> --bandwidth <B/s> --latency
<s>``), which carries the whole link over the socket it inherits from the
host as file descriptor ``--fd``.
"""

from __future__ import annotations

import argparse
import os
import queue
import socket
import threading

from . import functors, sph  # noqa: F401  (register the functor codecs)
from . import transport
from .runtime import (WORK_BLOCK_MSG, block_applier, decode_block,
                      encode_block, result_codec)
from .transport import (Endpoint, LinkConfig, Message, MessageKind,
                        TransportError)
from .wire import ByteReader, decode_functor


class _Block:
    """One work block: its items, which the workers overwrite with results,
    and the count of slices not yet applied."""

    __slots__ = ("block_id", "items", "pending")

    def __init__(self, block_id: int, items: list, pending: int):
        self.block_id = block_id
        self.items = items
        self.pending = pending


def _report_failure(endpoint: Endpoint, lock: threading.Lock,
                    reason: str) -> None:
    with lock:
        try:
            endpoint.send_message(Message(MessageKind.SHUTDOWN,
                                          reason.encode("utf-8")))
        except TransportError:
            pass  # the host is gone


def _worker_loop(endpoint: Endpoint, functor, tasks: queue.SimpleQueue,
                 lock: threading.Lock) -> None:
    """Apply slices until the ``None`` sentinel. ``lock`` guards the pending
    counts and keeps each RESULT_BLOCK message next to its blob."""
    apply_to = block_applier(functor)
    codec = result_codec(functor)
    while (task := tasks.get()) is not None:
        block, positions = task
        try:
            apply_to(block.items, positions)
        except Exception as exc:
            _report_failure(endpoint, lock,
                            f"block {block.block_id} items {positions}: "
                            f"{type(exc).__name__}: {exc}")
            return
        with lock:
            block.pending -= 1
            if block.pending:
                continue
        try:
            out = encode_block(block.block_id, block.items, codec)
            with lock:
                endpoint.send_message(Message(
                    MessageKind.RESULT_BLOCK,
                    WORK_BLOCK_MSG.pack(block.block_id)))
                endpoint.send_blob(out)
        except TransportError:
            return  # the host is gone
        except Exception as exc:
            _report_failure(endpoint, lock, f"result block {block.block_id}: "
                                            f"{type(exc).__name__}: {exc}")
            return


def run_device_worker_loop(endpoint: Endpoint, worker_count: int) -> None:
    """Master loop: serve one call until SHUTDOWN or a closed link."""
    tasks: queue.SimpleQueue = queue.SimpleQueue()
    lock = threading.Lock()
    workers: list[threading.Thread] = []
    functor = None
    try:
        while (msg := endpoint.recv_message()).kind != MessageKind.SHUTDOWN:
            if msg.kind == MessageKind.FUNCTOR_STATE and functor is None:
                name = ByteReader(msg.payload).read_str()
                functor = decode_functor(name, endpoint.recv_blob())
                workers = [threading.Thread(
                    target=_worker_loop,
                    args=(endpoint, functor, tasks, lock),
                    name=f"device-worker-{i}", daemon=True)
                    for i in range(worker_count)]
                for w in workers:
                    w.start()
            elif msg.kind == MessageKind.WORK_BLOCK:
                blob = endpoint.recv_blob()
                if functor is None:
                    raise ValueError("work block: no functor installed")
                block_id, items = decode_block(blob, functor.item_codec)
                n = len(items)
                size = -(-n // worker_count) or 1
                starts = range(0, n, size)  # one task per worker slice
                block = _Block(block_id, items, len(starts))
                for lo in starts:
                    tasks.put((block, range(lo, min(lo + size, n))))
            else:
                raise ValueError(f"unexpected message kind {msg.kind!r}")
    except TransportError:
        pass  # the host is gone
    except Exception as exc:
        _report_failure(endpoint, lock, f"{type(exc).__name__}: {exc}")
    finally:
        for _ in workers:
            tasks.put(None)
        for w in workers:
            w.join(timeout=10.0)
        endpoint.close()


def serve(endpoint: Endpoint, worker_count: int,
          protocol_version: int = transport.PROTOCOL_VERSION) -> None:
    """HELLO, then the loop."""
    try:
        endpoint.send_message(transport.device_hello(protocol_version))
    except TransportError:
        endpoint.close()
        return
    run_device_worker_loop(endpoint, worker_count)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridsph-device-worker",
        description="Device-side worker process; launched by the host.")
    parser.add_argument("--fd", required=True, type=int)
    parser.add_argument("--workers", required=True, type=int)
    parser.add_argument("--bandwidth", required=True, type=float)
    parser.add_argument("--latency", required=True, type=float)
    args = parser.parse_args(argv)
    sock = socket.socket(fileno=args.fd)
    endpoint = transport.socket_endpoint("device", sock, LinkConfig(
        bandwidth=args.bandwidth, latency=args.latency, kind="subprocess"))
    serve(endpoint, args.workers)
    return 0


if __name__ == "__main__":
    # The host waits for this exit inside its call; skip the teardown (35-70
    # ms on 2 cores with numpy loaded), as multiprocessing's children do.
    os._exit(main())
