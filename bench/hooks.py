"""Call hooks for the benchmark, installed by rebinding module attributes.

Two sets:

* ``install_capture`` (every run): remembers the live state and the
  snapshot that ``cli.run`` renders, so the output checks can read them
  after the call. It stores two references per step and times nothing.
* ``install_trace`` (traced runs only): wraps the public functions of each
  layer and records per-call durations (spans) or, for per-item calls, a
  count and a sum per thread (tallies). Nothing inside the program changes;
  the wrappers sit at module boundaries, so tracing costs nothing unless
  installed. A function the program no longer has is skipped and listed in
  ``Recorder.untraced``; its metrics then read 0.

Each ``install_*`` returns the function that undoes it.
"""

from __future__ import annotations

import threading
import time

from hybridsph import cli, functors, grid, render, runtime, sph, transport

perf = time.perf_counter


class Recorder:
    """Spans, per-thread tallies and a few counters for one traced op."""

    def __init__(self):
        self._local = threading.local()
        self._tallies: list[dict] = []
        self._lock = threading.Lock()
        self.untraced: list[str] = []
        self.reset()

    def reset(self) -> None:
        for d in self._tallies:
            d.clear()
        self.spans: dict[str, list[float]] = {}
        self.functor_payloads: list[tuple[str, bytes]] = []
        self.block_sent: dict[tuple[str, int], float] = {}
        self.threads_started = 0
        self.thread_mark: int | None = None

    def span(self, key: str, value: float) -> None:
        self.spans.setdefault(key, []).append(value)

    def add(self, key: str, seconds: float = 0.0, count: int = 1) -> None:
        d = getattr(self._local, "tally", None)
        if d is None:
            d = self._local.tally = {}
            with self._lock:
                self._tallies.append(d)
        t = d.get(key)
        if t is None:
            d[key] = [count, seconds]
        else:
            t[0] += count
            t[1] += seconds

    def tally(self, key: str) -> tuple[int, float]:
        count, seconds = 0, 0.0
        with self._lock:
            tallies = list(self._tallies)
        for d in tallies:
            t = d.get(key)
            if t is not None:
                count += t[0]
                seconds += t[1]
        return count, seconds

    def thread_started(self) -> None:
        with self._lock:
            self.threads_started += 1


class _Patcher:
    """Rebinds attributes and remembers how to undo it."""

    def __init__(self, missing: list | None = None):
        self._undo: list = []
        self._missing = missing

    def __call__(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        orig = getattr(owner, name, None)
        if orig is None:
            if self._missing is not None:
                self._missing.append(f"{owner.__name__}.{name}")
            return
        self._undo.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def undo(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


def install_capture(steps: list):
    """Append (live state, rendered snapshot) to ``steps`` once per step."""
    patch = _Patcher()

    def capture(orig):
        def snapshot_particles(state):
            snap = orig(state)
            steps.append((state, snap))
            return snap
        return snapshot_particles

    patch(cli, "snapshot_particles", capture)
    return patch.undo


def _unit_of_thread() -> str:
    # Device-side host threads are named "<unit>-controller",
    # "<unit>-support" and so on; the prefix names the device.
    return threading.current_thread().name.rsplit("-", 1)[0]


def install_trace(rec: Recorder):
    """Wrap every traced layer boundary; returns the undo function."""
    patch = _Patcher(rec.untraced)

    def spanned(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.span(key, perf() - t0)
            return wrapper
        return make

    def tallied(key, clock=perf):
        def make(fn):
            def wrapper(*args):
                t0 = clock()
                out = fn(*args)
                rec.add(key, clock() - t0)
                return out
            return wrapper
        return make

    # grid: the index build is also imported by name into sph and render.
    for mod in (grid, sph, render):
        patch(mod, "build_index", spanned("grid.build_index"))

    # sph: gravity field, scene construction, and the per-particle applies
    # as thread CPU, since the host workers share one interpreter lock.
    patch(sph, "build_gravity_field", spanned("sph.gravity_field"))
    patch(sph, "make_scene", spanned("sph.make_scene"))
    patch(sph, "phase2_density_gravity",
          tallied("sph.phase2", time.thread_time))
    patch(sph, "phase3_pressure", tallied("sph.phase3", time.thread_time))

    # wire: functor encode (runtime imports it by name) and item codecs.
    def encode(fn):
        def encode_functor(functor):
            t0 = perf()
            payload = fn(functor)
            rec.span("wire.encode_functor", perf() - t0)
            rec.functor_payloads.append((functor.wire_name, payload))
            return payload
        return encode_functor

    patch(runtime, "encode_functor", encode)
    for cls in {type(sph.PARTICLE_CODEC), type(functors.I64_CODEC)}:
        patch(cls, "serialize", tallied("wire.item_codec"))
        patch(cls, "deserialize", tallied("wire.item_codec"))

    # runtime: calls, block packing, result receipt (round trip), threads.
    def calls(fn):
        def hybrid_for_each(sequence, functor, devices=(), **kwargs):
            rec.block_sent.clear()
            mark = (rec.thread_mark if rec.thread_mark is not None
                    else rec.threads_started)
            t0 = perf()
            stats = fn(sequence, functor, devices, **kwargs)
            rec.span("runtime.call", perf() - t0)
            rec.thread_mark = None
            busy = stats.busy_seconds
            rec.add("runtime.host_busy", sum(
                s for u, s in busy.items() if not u.startswith("device/")))
            if devices:
                rec.span("runtime.device_call_threads",
                         rec.threads_started - mark)
                rec.add("runtime.device_call_items", count=stats.total_items)
                rec.add("runtime.device_items", count=sum(
                    c for u, c in stats.items_by_unit.items()
                    if u.startswith("device/")))
                rec.add("runtime.device_busy", sum(
                    s for u, s in busy.items() if u.startswith("device/")))
                rec.add("transport.bytes_tx",
                        count=sum(stats.bytes_sent.values()))
                rec.add("transport.bytes_rx",
                        count=sum(stats.bytes_received.values()))
            return stats
        return hybrid_for_each

    patch(runtime, "hybrid_for_each", calls)
    patch(cli, "hybrid_for_each", calls)

    def pack(fn):
        def pack_block(*args):
            t0 = perf()
            packed = fn(*args)
            if packed:
                rec.add("runtime.pack", perf() - t0)
                rec.add("runtime.packed_items", count=len(packed))
            return packed
        return pack_block

    patch(runtime, "pack_block", pack)

    def receipt(fn):
        def parse_block(blob):
            # Only the host's scatter reaches runtime.parse_block; the
            # device loop holds its own binding.
            out = fn(blob)
            sent = rec.block_sent.pop((_unit_of_thread(), out[0]), None)
            if sent is not None:
                rec.span("runtime.block_rtt", perf() - sent)
            return out
        return parse_block

    patch(runtime, "parse_block", receipt)

    def counting(fn):
        def start(self):
            rec.thread_started()
            return fn(self)
        return start

    patch(threading.Thread, "start", counting)

    # transport: connects by kind, host-side traffic, computed link time.
    def connecting(fn):
        def connect(config, worker_count, **kwargs):
            if rec.thread_mark is None:
                rec.thread_mark = rec.threads_started
            t0 = perf()
            try:
                return fn(config, worker_count, **kwargs)
            finally:
                rec.span(f"transport.connect.{config.kind}", perf() - t0)
        return connect

    patch(transport, "connect", connecting)

    work_block = transport.MessageKind.WORK_BLOCK

    def send_msg(fn):
        def send_message(self, msg):
            if self.label == "host":
                rec.add(f"transport.tx.{msg.kind.name}")
                rec.add("transport.link", self.config.latency, 0)
                if msg.kind == work_block:
                    bid = runtime.WORK_BLOCK_MSG.unpack(msg.payload)[0]
                    rec.block_sent[(_unit_of_thread(), bid)] = perf()
            return fn(self, msg)
        return send_message

    def recv_msg(fn):
        def recv_message(self, *args, **kwargs):
            msg = fn(self, *args, **kwargs)
            if self.label == "host":
                rec.add(f"transport.rx.{msg.kind.name}")
                rec.add("transport.link", self.config.latency, 0)
            return msg
        return recv_message

    def send_bulk(fn):
        def send_blob(self, data):
            if self.label == "host":
                rec.add("transport.link",
                        transport.link_time(len(data), self.config), 0)
            return fn(self, data)
        return send_blob

    def recv_bulk(fn):
        def recv_blob(self, *args, **kwargs):
            blob = fn(self, *args, **kwargs)
            if self.label == "host":
                rec.add("transport.link",
                        transport.link_time(len(blob), self.config), 0)
            return blob
        return recv_blob

    patch(transport.Endpoint, "send_message", send_msg)
    patch(transport.Endpoint, "recv_message", recv_msg)
    patch(transport.Endpoint, "send_blob", send_bulk)
    patch(transport.Endpoint, "recv_blob", recv_bulk)

    # device_worker: applies on in-process device worker threads.
    def device_apply(fn):
        def apply(self, item):
            if not threading.current_thread().name.startswith(
                    "device-worker-"):
                return fn(self, item)
            t0 = perf()
            out = fn(self, item)
            rec.add("device_worker.apply", perf() - t0)
            return out
        return apply

    for cls in {v for v in vars(functors).values()
                if isinstance(v, type) and hasattr(v, "wire_name")}:
        patch(cls, "apply", device_apply)

    # render and cli.
    def rendering(fn):
        def render_frame(*args, **kwargs):
            caller = kwargs.pop("stats", None)
            own = render.RenderStats()
            t0 = perf()
            img = fn(*args, stats=own, **kwargs)
            rec.span("render.frame", perf() - t0)
            rec.add("render.samples", count=own.samples)
            if caller is not None:
                caller.rays += own.rays
                caller.samples += own.samples
            return img
        return render_frame

    patch(render, "render_frame", rendering)
    patch(render, "write_ppm", spanned("render.write_ppm"))
    patch(cli, "snapshot_particles", spanned("cli.snapshot"))
    return patch.undo
