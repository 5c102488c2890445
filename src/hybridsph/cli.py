"""Command-line driver: simulate, render, and benchmark.

Timing convention: the stopwatch starts after setup (scene construction,
output directory) and stops after the last frame is written, so reported
totals cover the step/render loop only, including per-call device
connection costs, which are part of the work a run performs.
"""

from __future__ import annotations

import argparse
import csv
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import functors, render, sph
from .runtime import DeviceSpec, connect_devices, hybrid_for_each
from .transport import LinkConfig

SWEEP_LADDER = (1000, 8000, 27000, 64000, 125000, 216000, 343000,
                512000, 729000, 1000000)

CONFIG_KEYS = {
    "particles": int, "steps": int, "devices": int, "device_workers": str,
    "host_workers": int, "bandwidth": float, "latency": float,
    "transport": str, "pipeline": int, "resolution": str, "seed": int,
    "out": str, "item_delay": float,
    "h": float, "dt": float, "k_eos": float, "G": float, "epsilon": float,
    "world_box": str, "gravity_dims": str, "radius": float,
}


@dataclass
class RunConfig:
    particles: int = 5000
    steps: int = 3
    devices: int = 0
    device_workers: tuple[int, ...] = ()
    host_workers: int = 1
    bandwidth: float = float(1 << 30)
    latency: float = 10e-6
    transport: str = "in-process"
    pipeline: bool = False
    resolution: tuple[int, int] = (100, 100)
    seed: int = 1234
    out: Path = Path("out")
    bench: bool = False
    sweep: tuple[int, ...] = ()
    item_delay: float = 0.0
    params: sph.SimParams = field(default_factory=sph.SimParams)
    radius: float = 1.0

    def device_specs(self) -> list[DeviceSpec]:
        link = LinkConfig(bandwidth=self.bandwidth, latency=self.latency,
                          kind=self.transport)
        workers = self.device_workers or (4,) * self.devices
        if len(workers) == 1 and self.devices > 1:
            workers = workers * self.devices
        if len(workers) != self.devices:
            raise ValueError(
                f"{self.devices} devices but {len(workers)} worker counts")
        if any(w < 1 for w in workers):
            raise ValueError("device worker counts must be >= 1")
        return [DeviceSpec(worker_count=w, link=link) for w in workers]


@dataclass
class TimingReport:
    """Per-step phase timings plus run-level accounting. The item counts
    add up the steps' ``StepTiming`` counts, so the run's coprocessor
    fraction has each step's definition."""

    rows: list[dict] = field(default_factory=list)
    items_by_unit: dict[str, int] = field(default_factory=dict)
    items_total: int = 0
    items_on_devices: int = 0
    total_seconds: float = 0.0

    @property
    def coproc_fraction(self) -> float:
        if self.items_total == 0:
            return 0.0
        return self.items_on_devices / self.items_total

    def write_csv(self, path) -> None:
        cols = ("step", "phase1_s", "phase2_s", "phase3_s", "phase4_s",
                "render_s", "coproc_fraction")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(cols)
            for row in self.rows:
                w.writerow([row[c] for c in cols])


def _parse_pair(text: str, sep: str = "x") -> tuple[int, int]:
    a, _, b = text.partition(sep)
    return int(a), int(b)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_world_box(text: str):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 6:
        raise ValueError("world_box needs 6 comma-separated numbers")
    return (tuple(vals[:3]), tuple(vals[3:]))


def _read_config_file(path: Path) -> dict:
    values: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not eq or key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: bad config line {line!r}")
        values[key] = CONFIG_KEYS[key](raw)
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hybridsph",
        description="Simulate an SPH nebula with hybrid host/device "
                    "execution, render frames, and benchmark scaling.")
    p.add_argument("--particles", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--device-workers", default=None, metavar="N[,N...]",
                   help="workers per device (single value broadcasts)")
    p.add_argument("--host-workers", type=int, default=None)
    p.add_argument("--bandwidth", type=float, default=None,
                   metavar="BYTES_PER_S")
    p.add_argument("--latency", type=float, default=None, metavar="SECONDS")
    p.add_argument("--transport", choices=("in-process", "subprocess"),
                   default=None)
    p.add_argument("--pipeline", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="render frame N while simulating step N+1")
    p.add_argument("--resolution", default=None, metavar="WxH")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--bench", action="store_true", default=False,
                   help="sweep particle counts x device counts, write CSV")
    p.add_argument("--sweep", default=None, metavar="N[,N...]",
                   help="particle counts for --bench (default: standard "
                        "ladder truncated at --particles)")
    p.add_argument("--item-delay", type=float, default=None, metavar="SECONDS",
                   help="benchmark mode: per-item synthetic delay instead of "
                        "the SPH workload")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file; explicit flags override it")
    return p


def parse_config(argv: list[str]) -> RunConfig:
    """Flags override config-file values override defaults; usage errors
    exit with status 2 via argparse."""
    parser = build_parser()
    args = parser.parse_args(argv)

    merged: dict = {}
    if args.config:
        try:
            merged.update(_read_config_file(Path(args.config)))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    for key in (*CONFIG_KEYS, "sweep"):
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v

    cfg = RunConfig()
    try:
        scene: dict = {}
        for key, value in merged.items():
            if key in ("h", "dt", "k_eos", "G", "epsilon"):
                scene[key] = value
            elif key == "world_box":
                scene["world_box"] = _parse_world_box(value)
            elif key == "gravity_dims":
                dims = _parse_int_list(value)
                if len(dims) != 3:
                    raise ValueError("gravity_dims needs 3 values")
                scene["gravity_dims"] = dims
            elif key == "device_workers":
                cfg.device_workers = _parse_int_list(value)
            elif key == "resolution":
                cfg.resolution = _parse_pair(value)
            elif key == "sweep":
                cfg.sweep = _parse_int_list(value)
            elif key == "out":
                cfg.out = Path(value)
            elif key == "pipeline":
                cfg.pipeline = bool(value)
            else:
                setattr(cfg, key, value)
        if scene:
            cfg.params = replace(cfg.params, **scene)
        cfg.bench = args.bench
        if (cfg.particles < 0 or cfg.steps < 0 or cfg.devices < 0
                or cfg.host_workers < 0):
            raise ValueError("counts must be >= 0")
        if cfg.item_delay < 0:
            raise ValueError("item delay must be >= 0")
        if min(cfg.resolution) < 1:
            raise ValueError("resolution must be at least 1x1")
        if cfg.pipeline and cfg.steps < 1:
            raise ValueError("--pipeline needs at least one step")
        cfg.device_specs()  # validates worker list against device count
        LinkConfig(bandwidth=cfg.bandwidth, latency=cfg.latency,
                   kind=cfg.transport)
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def snapshot_particles(state: sph.SimulationState) -> sph.SimulationState:
    """Copy a state for rendering while the next step mutates the original."""
    return sph.SimulationState(particles=state.particles.copy(),
                               params=state.params)


def run(config: RunConfig, log=print) -> tuple[int, TimingReport]:
    """Simulate + render per the config; write frames and CSVs to the
    output directory. Returns (exit status, timing report)."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    state = sph.make_scene(config.particles, config.params, seed=config.seed,
                           radius=config.radius)
    camera = render.Camera(resolution=config.resolution)
    rparams = render.RenderParams()
    specs = config.device_specs()
    report = TimingReport()

    render_error: list[BaseException] = []

    def render_and_write(snapshot, frame_index, row):
        t0 = time.perf_counter()
        try:
            img = render.render_frame(snapshot, camera, rparams,
                                      workers=config.host_workers)
            render.write_ppm(img, out / render.frame_filename(frame_index))
        except BaseException as exc:
            render_error.append(exc)
        row["render_s"] = round(time.perf_counter() - t0, 6)

    started = time.perf_counter()
    pending: threading.Thread | None = None
    for step in range(config.steps):
        timing = sph.simulation_step(state, specs,
                                     host_workers=config.host_workers)
        row = {
            "step": step,
            "phase1_s": round(timing.phase1_s, 6),
            "phase2_s": round(timing.phase2_s, 6),
            "phase3_s": round(timing.phase3_s, 6),
            "phase4_s": round(timing.phase4_s, 6),
            "render_s": 0.0,
            "coproc_fraction": round(timing.coproc_fraction, 6),
        }
        report.rows.append(row)
        report.items_total += timing.items_total
        report.items_on_devices += timing.items_on_devices
        for stats in timing.stats:
            for unit, count in stats.items_by_unit.items():
                report.items_by_unit[unit] = (
                    report.items_by_unit.get(unit, 0) + count)

        snapshot = snapshot_particles(state)
        if pending is not None:
            pending.join()
        if config.pipeline:
            pending = threading.Thread(
                target=render_and_write, args=(snapshot, step, row),
                name="render-pipeline")
            pending.start()
        else:
            render_and_write(snapshot, step, row)
    if pending is not None:
        pending.join()
    report.total_seconds = time.perf_counter() - started

    if render_error:
        print(f"error: rendering failed: {render_error[0]}", file=sys.stderr)
        return 1, report

    report.write_csv(out / "timing.csv")
    _write_unit_csv(out / "run_stats.csv", report.items_by_unit)
    log(f"{config.steps} steps, {config.particles} particles, "
        f"{report.total_seconds:.3f}s total, "
        f"coproc fraction {report.coproc_fraction:.2f}")
    return 0, report


def _write_unit_csv(path, items_by_unit: dict) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("unit", "items"))
        for unit in sorted(items_by_unit):
            w.writerow((unit, items_by_unit[unit]))


def run_synthetic(n_items: int, device_specs, host_workers: int,
                  delay_s: float):
    """One pass of the synthetic-delay workload; returns (seconds, stats).

    Exercises the queue, block batching and transfers with a fixed per-item
    cost so scheduler behavior can be measured independently of SPH. Device
    bring-up happens inside the measured window, the same way simulation
    phases pay for their per-call connections."""
    items = list(range(n_items))
    functor = functors.SleepAction(delay_s)
    t0 = time.perf_counter()
    devices = connect_devices(device_specs)
    stats = hybrid_for_each(items, functor, devices, host_workers=host_workers)
    elapsed = time.perf_counter() - t0
    if items != [v + 1 for v in range(n_items)]:
        raise RuntimeError("synthetic workload produced wrong results")
    return elapsed, stats


def bench(config: RunConfig, log=print) -> tuple[int, list[dict]]:
    """Sweep particle counts x device counts; write sweep.csv.

    Every cell is measured the same way as a plain run (setup excluded);
    speedups are relative to the measured host-only cell of the same size,
    never to stored numbers.
    """
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = config.sweep or tuple(
        n for n in SWEEP_LADDER if n <= max(config.particles, SWEEP_LADDER[0]))
    rows: list[dict] = []
    for n in sizes:
        host_only = None
        for ndev in range(config.devices + 1):
            workers = ((config.device_workers * max(1, ndev))[:ndev]
                       if config.device_workers else ())
            sub = replace(config, particles=n, devices=ndev,
                          device_workers=workers,
                          out=out / f"bench_{n}_{ndev}")
            specs = sub.device_specs()
            if config.item_delay > 0:
                total, stats = run_synthetic(
                    n, specs, config.host_workers, config.item_delay)
                frac = stats.device_items / max(1, n)
            else:
                status, report = run(sub, log=lambda *a, **k: None)
                if status != 0:
                    return status, rows
                total = report.total_seconds
                frac = report.coproc_fraction
            if ndev == 0:
                host_only = total
            row = {
                "particles": n,
                "devices": ndev,
                "total_s": round(total, 6),
                "speedup_vs_host_only": round(host_only / total, 4),
                "coproc_fraction": round(frac, 4),
            }
            rows.append(row)
            log(f"bench particles={n} devices={ndev} total={total:.3f}s "
                f"speedup={row['speedup_vs_host_only']:.2f} "
                f"coproc={frac:.2f}")
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("particles", "devices", "total_s", "speedup_vs_host_only",
                    "coproc_fraction"))
        for row in rows:
            w.writerow([row[c] for c in ("particles", "devices", "total_s",
                                         "speedup_vs_host_only",
                                         "coproc_fraction")])
    return 0, rows


def main(argv: list[str] | None = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        if config.bench:
            status, _ = bench(config)
        else:
            status, _ = run(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
