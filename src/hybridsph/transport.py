"""Host/device links with simulated bandwidth and latency.

A link is one FIFO stream of frames per direction, full duplex across
directions. A frame is either a message (framed kind and payload, delayed
by the latency only) or a blob (opaque bytes, delayed by latency +
size/bandwidth, one blob in flight per direction at a time). Frames arrive
in send order: a receiver takes a message and then, when the protocol says
one follows, its blob; a message sent after a blob is never delivered
before it.

Two transports implement the same contract:

* in-process: one queue per direction, payloads copied at the boundary so
  each side owns its bytes (same isolation a DMA copy gives);
* subprocess: a device worker process, a genuinely separate address
  space, reached over one socket pair whose other end it inherits when it
  is spawned (``pass_fds``, so this transport needs POSIX).

Both carry (delivery deadline, bytes) pairs: the sender stamps each send
with the ``time.monotonic()`` instant the simulated link would deliver it,
and the receiver sleeps until then. Host and device share that clock (the
subprocess device is a child on the same machine), so both transports
exhibit the same timing model without any thread of their own.

A device gets its link parameters and worker count when it is spawned, so
the handshake is one message: the device's HELLO with its protocol version.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

PROTOCOL_VERSION = 4

_MESSAGE_HEADER = struct.Struct("<IQ")   # kind u32, payload_length u64
_FRAME = struct.Struct("<dQ")            # socket framing: deadline f64, length u64
_HELLO_DEVICE = struct.Struct("<I")      # version


class TransportError(Exception):
    """Base for link failures."""


class PeerClosedError(TransportError):
    """The other side of the link is gone."""


class SpawnError(TransportError):
    """The device worker process could not be started."""


class HandshakeTimeoutError(TransportError):
    """The peer did not complete the HELLO exchange in time."""


class VersionMismatchError(TransportError):
    """The peer speaks a different protocol version."""


class MessageKind(IntEnum):
    HELLO = 0
    FUNCTOR_STATE = 1
    WORK_BLOCK = 2
    RESULT_BLOCK = 3
    SHUTDOWN = 5


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    payload: bytes = b""


@dataclass(frozen=True)
class LinkConfig:
    """Simulated link parameters. Defaults are a placeholder peripheral bus:
    1 GiB/s, 10 microseconds."""

    bandwidth: float = float(1 << 30)   # bytes/second
    latency: float = 10e-6              # seconds
    kind: str = "in-process"            # or "subprocess"

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.kind not in ("in-process", "subprocess"):
            raise ValueError(f"unknown transport kind: {self.kind!r}")


def link_time(size: int, config: LinkConfig) -> float:
    """Simulated duration of one blob transfer: latency + bytes/bandwidth."""
    return config.latency + size / config.bandwidth


def encode_message(msg: Message) -> bytes:
    return _MESSAGE_HEADER.pack(int(msg.kind), len(msg.payload)) + msg.payload


def decode_message(frame: bytes) -> Message:
    """Parse one message frame; a frame that is not a well-formed message
    (too short, an unknown kind, a wrong length) raises TransportError."""
    try:
        kind, length = _MESSAGE_HEADER.unpack_from(frame, 0)
        kind = MessageKind(kind)
    except (struct.error, ValueError) as exc:
        raise TransportError(f"malformed message frame: {exc}") from None
    payload = bytes(frame[_MESSAGE_HEADER.size:])
    if len(payload) != length:
        raise TransportError("message frame length mismatch")
    return Message(kind, payload)


# A stream carries (delivery deadline, bytes) frames in FIFO order.
_Send = Callable[[float, bytes], None]
_Receive = Callable[[Optional[float]], tuple[float, bytes]]


class Endpoint:
    """One side of a link: ``send`` puts a frame on the outbound stream,
    ``recv`` takes the next frame of the inbound one.

    Every send is stamped with its delivery deadline on ``time.monotonic()``
    and handed to the stream at once; the receive that returns it sleeps
    until that deadline. Sends from several threads are serialized here, but
    a sender that needs a message and its blob to stay adjacent must hold
    its own lock across both. The receive side must be used by one thread
    at a time, and must take each blob the protocol announces: frames are
    not tagged, so a ``recv_message`` that meets a blob parses it as a
    message frame and raises TransportError when it is not one.
    """

    def __init__(self, label: str, config: LinkConfig, *, send: _Send,
                 recv: _Receive, on_close: Callable[[], None]):
        self.label = label
        self.config = config
        self._send = send
        self._recv = recv
        self._on_close = on_close
        self._send_lock = threading.Lock()
        self._blob_free_at = 0.0
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_message(self, msg: Message) -> None:
        """Queue a message for delivery ``latency`` from now."""
        if self._closed:
            raise PeerClosedError("endpoint closed")
        frame = encode_message(msg)
        with self._send_lock:
            self.bytes_sent += len(frame)
            self._send(time.monotonic() + self.config.latency, frame)

    def recv_message(self, timeout: float | None = None) -> Message:
        return decode_message(self._arrive(timeout))

    def send_blob(self, data) -> None:
        """Hand ``data`` to the stream; returns once the bytes are
        handed off, so the caller may reuse ``data`` at once.

        The transfer is delivered ``link_time`` after the previous blob in
        this direction is delivered, or after now if that is later.
        """
        if self._closed:
            raise PeerClosedError("endpoint closed")
        with self._send_lock:
            now = time.monotonic()
            start = now if now > self._blob_free_at else self._blob_free_at
            self._blob_free_at = start + link_time(len(data), self.config)
            self.bytes_sent += len(data)
            self._send(self._blob_free_at, data)

    def recv_blob(self) -> bytes:
        return self._arrive(None)

    def _arrive(self, timeout: float | None) -> bytes:
        deadline, data = self._recv(timeout)
        self.bytes_received += len(data)
        delay = deadline - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        return data

    def close(self) -> None:
        """Tear the endpoint down; what was sent still reaches the peer at
        its deadline. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._on_close()


_CLOSED = object()


def _queue_receiver(q: queue.SimpleQueue) -> _Receive:
    def recv(timeout: float | None = None) -> tuple[float, bytes]:
        try:
            item = q.get(timeout=timeout)
        except queue.Empty:
            raise HandshakeTimeoutError("timed out waiting for peer") from None
        if item is _CLOSED:
            q.put(_CLOSED)  # keep later receivers unblocked too
            raise PeerClosedError("peer closed the link")
        return item
    return recv


def create_endpoint_pair(config: LinkConfig) -> tuple[Endpoint, Endpoint]:
    """In-process link: two live endpoints over one queue per direction.
    Frames are copied at the boundary so each side owns its bytes (the
    isolation a DMA copy gives)."""
    to_device, to_host = queue.SimpleQueue(), queue.SimpleQueue()

    def make_side(label: str, outbox: queue.SimpleQueue,
                  inbox: queue.SimpleQueue) -> Endpoint:
        def on_close():
            outbox.put(_CLOSED)
            inbox.put(_CLOSED)

        return Endpoint(
            label, config,
            send=lambda deadline, data: outbox.put((deadline, bytes(data))),
            recv=_queue_receiver(inbox), on_close=on_close)

    return (make_side("host", to_device, to_host),
            make_side("device", to_host, to_device))


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------

def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            raise HandshakeTimeoutError("timed out waiting for peer") from None
        except OSError as exc:
            raise PeerClosedError(str(exc)) from None
        if not chunk:
            raise PeerClosedError("peer closed the socket")
        buf += chunk
    return bytes(buf)


def _socket_sender(sock: socket.socket) -> _Send:
    def send(deadline: float, data) -> None:
        try:
            sock.sendall(_FRAME.pack(deadline, len(data)) + data)
        except OSError as exc:
            raise PeerClosedError(str(exc)) from None
    return send


def _socket_receiver(sock: socket.socket) -> _Receive:
    def recv(timeout: float | None = None) -> tuple[float, bytes]:
        # The timeout bounds the wait for a frame to start, not its body.
        if timeout is not None:
            try:
                sock.settimeout(timeout)
            except OSError:
                raise PeerClosedError("socket closed") from None
        try:
            header = _read_exact(sock, _FRAME.size)
        finally:
            if timeout is not None:
                try:
                    sock.settimeout(None)
                except OSError:
                    pass
        deadline, length = _FRAME.unpack(header)
        return deadline, _read_exact(sock, length)
    return recv


def socket_endpoint(label: str, sock: socket.socket,
                    config: LinkConfig) -> Endpoint:
    """Wrap a connected stream socket in the endpoint contract."""

    def on_close():
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()

    return Endpoint(label, config, send=_socket_sender(sock),
                    recv=_socket_receiver(sock), on_close=on_close)


# ---------------------------------------------------------------------------
# Connection establishment
# ---------------------------------------------------------------------------

class DeviceHandle:
    """A live device: host endpoint, unit label, and the device side."""

    def __init__(self, endpoint: Endpoint, worker_count: int,
                 master_thread: threading.Thread | None = None,
                 process: subprocess.Popen | None = None):
        self.endpoint = endpoint
        self.worker_count = worker_count
        self.label = "device/0"  # runtime.connect_device numbers it
        self._master_thread = master_thread
        self._process = process

    def close(self) -> None:
        self.endpoint.close()
        if self._master_thread is not None:
            self._master_thread.join(30.0)
        if self._process is not None:
            try:
                self._process.wait(30.0)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait(10.0)


def _host_handshake(endpoint: Endpoint, timeout: float) -> None:
    """Receive the device HELLO and check its protocol version."""
    msg = endpoint.recv_message(timeout)
    if msg.kind != MessageKind.HELLO:
        raise TransportError(f"expected HELLO, got {msg.kind!r}")
    (version,) = _HELLO_DEVICE.unpack_from(msg.payload)  # leads every HELLO
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"device protocol {version}, host speaks {PROTOCOL_VERSION}")


def device_hello(version: int) -> Message:
    return Message(MessageKind.HELLO, _HELLO_DEVICE.pack(version))


def connect(config: LinkConfig, worker_count: int, *,
            worker_command: list[str] | None = None,
            handshake_timeout: float = 60.0,
            _device_version: int | None = None) -> DeviceHandle:
    """Bring up one device and check its HELLO.

    In-process: spawns the device master loop on a thread. Subprocess:
    launches the device worker executable with one end of a socket pair
    (``--fd``) and keeps the other. A worker that exits or drops its link
    before its HELLO raises ``SpawnError`` with its exit code; on every
    failure the worker is killed and reaped.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    from . import device_worker  # deferred: device_worker imports transport

    if config.kind == "in-process":
        host_ep, dev_ep = create_endpoint_pair(config)
        master = threading.Thread(
            target=device_worker.serve,
            args=(dev_ep, worker_count, _device_version or PROTOCOL_VERSION),
            name="device-master", daemon=True)
        master.start()
        try:
            _host_handshake(host_ep, handshake_timeout)
        except TransportError:
            host_ep.close()
            master.join(5.0)
            raise
        return DeviceHandle(host_ep, worker_count, master_thread=master)

    host_end, child_end = socket.socketpair()
    cmd = worker_command or [sys.executable, "-m", "hybridsph.device_worker",
                             "--fd", str(child_end.fileno()),
                             "--workers", str(worker_count),
                             "--bandwidth", repr(config.bandwidth),
                             "--latency", repr(config.latency)]
    # The device never calls BLAS, and one OpenBLAS thread makes its numpy
    # import about 70 ms faster; a setting of the caller's own wins.
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ}
    try:
        proc = subprocess.Popen(cmd, env=env, pass_fds=(child_end.fileno(),))
    except OSError as exc:
        host_end.close()
        raise SpawnError(f"cannot launch device worker: {exc}") from exc
    finally:
        # Only the child holds its end now, so its death reads as EOF here.
        child_end.close()

    endpoint = socket_endpoint("host", host_end, config)
    try:
        _host_handshake(endpoint, handshake_timeout)
    except BaseException as exc:
        endpoint.close()
        # An exiting child's code is fixed before the kernel closes its end,
        # so this kill cannot overwrite the code of one that exited itself.
        proc.kill()
        code = proc.wait()
        if isinstance(exc, PeerClosedError):  # it died or dropped its link
            cause = ("closed its link and was killed"
                     if code == -signal.SIGKILL else f"exited with code {code}")
            raise SpawnError(
                f"device worker {cause} before its HELLO") from None
        raise
    return DeviceHandle(endpoint, worker_count, process=proc)
