"""Per-layer metrics of a traced run, computed from a ``hooks.Recorder``.

"Per step" means per operation: one SPH step, or one synthetic call on
sched-sleep. Layers a workload never calls report 0.
"""

from __future__ import annotations

import statistics
import time

import checks
from hybridsph import wire

# Message kinds the host sends and receives in a healthy call; a SHUTDOWN
# received means the device reported a failure.
TX_KINDS = ("HELLO", "FUNCTOR_STATE", "WORK_BLOCK", "NO_MORE_WORK", "SHUTDOWN")
RX_KINDS = ("HELLO", "RESULT_BLOCK", "BLOCK_ACK", "SHUTDOWN")

# name -> (unit, better); kept in step with BENCHMARK.json.
LAYERS = {
    "grid.build_index_ms": ("ms", "lower"),
    "grid.build_index_calls_per_step": ("count", "lower"),
    "grid.candidates_per_query": ("count", "lower"),
    "grid.in_range_ratio": ("ratio", "higher"),
    "sph.gravity_field_ms": ("ms", "lower"),
    "sph.phase1_s": ("s", "lower"),
    "sph.phase2_s": ("s", "lower"),
    "sph.phase3_s": ("s", "lower"),
    "sph.phase4_s": ("s", "lower"),
    "sph.phase2_us_per_particle": ("us", "lower"),
    "sph.phase3_us_per_particle": ("us", "lower"),
    "sph.make_scene_ms": ("ms", "lower"),
    "wire.encode_functor_ms": ("ms", "lower"),
    "wire.functor_bytes": ("B", "lower"),
    "wire.decode_functor_ms": ("ms", "lower"),
    "wire.item_codec_us": ("us", "lower"),
    "runtime.call_s": ("s", "lower"),
    "runtime.calls_per_step": ("count", "lower"),
    "runtime.device_share": ("ratio", "higher"),
    "runtime.blocks_per_call": ("count", "lower"),
    "runtime.items_per_block": ("count", "higher"),
    "runtime.pack_us_per_block": ("us", "lower"),
    "runtime.block_rtt_ms": ("ms", "lower"),
    "runtime.threads_started_per_call": ("count", "lower"),
    "runtime.host_busy_s": ("s", "lower"),
    "runtime.device_busy_s": ("s", "lower"),
    "transport.connect_ms.subprocess": ("ms", "lower"),
    "transport.connect_ms.in_process": ("ms", "lower"),
    "transport.connects_per_step": ("count", "lower"),
    "transport.bytes_tx_per_step": ("B", "lower"),
    "transport.bytes_rx_per_step": ("B", "lower"),
    **{f"transport.messages.tx.{k}": ("count", "lower") for k in TX_KINDS},
    **{f"transport.messages.rx.{k}": ("count", "lower") for k in RX_KINDS},
    "transport.simulated_link_s": ("s", "lower"),
    "device_worker.items": ("count", "higher"),
    "device_worker.apply_s": ("s", "lower"),
    "render.frame_ms": ("ms", "lower"),
    "render.samples_per_frame": ("count", "lower"),
    "render.us_per_sample": ("us", "lower"),
    "render.write_ppm_ms": ("ms", "lower"),
    "cli.snapshot_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_layers(work, rec, op: dict) -> dict:
    """Layer figures of one traced operation (before its checks run)."""
    spans = rec.spans

    def calls(key):
        return spans.get(key, [])

    def mean_ms(key):
        v = calls(key)
        return 1e3 * statistics.fmean(v) if v else 0.0

    m = {}
    m["grid.build_index_ms"] = mean_ms("grid.build_index")
    m["grid.build_index_calls_per_step"] = len(calls("grid.build_index"))
    if work.kind == "sph":
        samples = work.samples()
        visited, in_range = checks.neighbor_walk(
            work.start, work.steps[0][0], samples)
        m["grid.candidates_per_query"] = visited / len(samples)
        m["grid.in_range_ratio"] = _ratio(in_range, visited)
    else:
        m["grid.candidates_per_query"] = m["grid.in_range_ratio"] = 0.0

    row = op.get("row", {})
    m["sph.gravity_field_ms"] = mean_ms("sph.gravity_field")
    for k in (1, 2, 3, 4):
        m[f"sph.phase{k}_s"] = row.get(f"phase{k}_s", 0.0)
    for k in (2, 3):
        n, cpu = rec.tally(f"sph.phase{k}")
        m[f"sph.phase{k}_us_per_particle"] = 1e6 * _ratio(cpu, n)
    m["sph.make_scene_ms"] = mean_ms("sph.make_scene")

    payloads = rec.functor_payloads
    m["wire.encode_functor_ms"] = mean_ms("wire.encode_functor")
    m["wire.functor_bytes"] = (statistics.fmean(len(p) for _, p in payloads)
                               if payloads else 0.0)
    n, s = rec.tally("wire.item_codec")
    m["wire.item_codec_us"] = 1e6 * _ratio(s, n)

    hfe = calls("runtime.call")
    device_calls = calls("runtime.device_call_threads")
    m["runtime.call_s"] = statistics.fmean(hfe) if hfe else 0.0
    m["runtime.calls_per_step"] = len(hfe)
    m["runtime.device_share"] = _ratio(rec.tally("runtime.device_items")[0],
                                       rec.tally("runtime.device_call_items")[0])
    blocks, pack_s = rec.tally("runtime.pack")
    m["runtime.blocks_per_call"] = _ratio(blocks, len(device_calls))
    m["runtime.items_per_block"] = _ratio(rec.tally("runtime.packed_items")[0],
                                          blocks)
    m["runtime.pack_us_per_block"] = 1e6 * _ratio(pack_s, blocks)
    rtt = calls("runtime.block_rtt")
    m["runtime.block_rtt_ms"] = 1e3 * statistics.median(rtt) if rtt else 0.0
    m["runtime.threads_started_per_call"] = (
        statistics.fmean(device_calls) if device_calls else 0.0)
    m["runtime.host_busy_s"] = rec.tally("runtime.host_busy")[1]
    m["runtime.device_busy_s"] = rec.tally("runtime.device_busy")[1]

    connects = calls("transport.connect.subprocess") + calls(
        "transport.connect.in-process")
    m["transport.connect_ms.subprocess"] = mean_ms("transport.connect.subprocess")
    m["transport.connect_ms.in_process"] = mean_ms("transport.connect.in-process")
    m["transport.connects_per_step"] = len(connects)
    m["transport.bytes_tx_per_step"] = rec.tally("transport.bytes_tx")[0]
    m["transport.bytes_rx_per_step"] = rec.tally("transport.bytes_rx")[0]
    for d, kinds in (("tx", TX_KINDS), ("rx", RX_KINDS)):
        for k in kinds:
            m[f"transport.messages.{d}.{k}"] = rec.tally(
                f"transport.{d}.{k}")[0]
    m["transport.simulated_link_s"] = rec.tally("transport.link")[1]

    n, s = rec.tally("device_worker.apply")
    m["device_worker.items"] = n
    m["device_worker.apply_s"] = s

    frames = calls("render.frame")
    samples = rec.tally("render.samples")[0]
    m["render.frame_ms"] = mean_ms("render.frame")
    m["render.samples_per_frame"] = _ratio(samples, len(frames))
    m["render.us_per_sample"] = 1e6 * _ratio(sum(frames), samples)
    m["render.write_ppm_ms"] = mean_ms("render.write_ppm")
    m["cli.snapshot_ms"] = mean_ms("cli.snapshot")

    # What the spans account for. The SPH phase timers exclude device
    # bring-up, which cli.run's window includes, so connects are added.
    if work.kind == "sph":
        accounted = (sum(row.get(f"phase{k}_s", 0.0) for k in (1, 2, 3, 4))
                     + sum(frames) + sum(calls("render.write_ppm"))
                     + sum(calls("cli.snapshot")) + sum(connects))
    else:
        accounted = sum(connects) + sum(hfe)
    m["trace.unaccounted_share"] = 1.0 - accounted / op["run_s"]

    # Device-side decode (whole-state decode plus reindex for the SPH
    # phases), replayed here on the bytes the host encoded, so it is
    # measured for subprocess devices too.
    decode = []
    for name, payload in payloads:
        t0 = time.perf_counter()
        wire.decode_functor(name, payload)
        decode.append(time.perf_counter() - t0)
    m["wire.decode_functor_ms"] = 1e3 * statistics.fmean(decode) if decode else 0.0
    return m


def summarize(per_op: list[dict], overhead: float) -> dict:
    out = {}
    for name, (unit, _) in LAYERS.items():
        if name == "trace.overhead_ratio":
            value = overhead
        else:
            values = [m[name] for m in per_op]
            value = statistics.median(values) if values else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def print_layers(metrics: dict, transport_kind: str | None,
                 untraced: list[str]) -> None:
    print(f"{'layer metric':<40}{'median':>14}  unit")
    for name, m in metrics.items():
        print(f"{name:<40}{m['value']:>14.6g}  {m['unit']}")
    share = metrics["trace.unaccounted_share"]["value"]
    verdict = "within" if abs(share) <= 0.05 else "OVER"
    print(f"reconciliation: spans account for run_s to within "
          f"{100 * abs(share):.2f}% ({verdict} the 5% limit); tracing "
          f"overhead x{metrics['trace.overhead_ratio']['value']:.4f} run_s")
    print("transport.simulated_link_s is computed from bytes and the "
          "LinkConfig, not measured")
    if untraced:
        print(f"not traced (absent from the program): {', '.join(untraced)}")
    if transport_kind == "subprocess":
        print("device_worker.*: not measured here; subprocess device applies"
              " run in another process (ROADMAP item 4)")
