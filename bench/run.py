"""The hybridsph benchmark: one workload per run, checked outputs, JSON result.

    python3 bench/run.py --workload sph-host --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

A run sets up, then repeats one operation until ``--seconds`` of operation
time is used: a one-step ``cli.run`` (SPH workloads) or one
``cli.run_synthetic`` call (sched-sleep). Every operation's output is
checked. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
half the time untraced and half traced, and prints the per-layer metrics,
the tracing overhead and how well the spans account for ``run_s``.

The last line of standard output is the JSON result. Everything else
(report, machine, derived speedups) is printed above it and stored under
``.bench_out/results``. See README.md in this directory for why each
workload exists and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

PARTICLES = 10_000
SCHED = {"items": 40_000, "delay": 200e-6, "latency": 250e-6}
SPH_ARGS = ["--particles", str(PARTICLES), "--steps", "1", "--host-workers",
            "2"]
WORKLOADS = {
    "sph-host": ("sph", SPH_ARGS + ["--resolution", "64x64"]),
    "sph-offload": ("sph", SPH_ARGS + [
        "--resolution", "16x16", "--devices", "1", "--device-workers", "2",
        "--transport", "subprocess"]),
    "sched-sleep": ("sched", [
        "--particles", str(SCHED["items"]), "--item-delay",
        str(SCHED["delay"]), "--host-workers", "2", "--devices", "1",
        "--device-workers", "2", "--latency", str(SCHED["latency"])]),
}
SETUP_REPEATS = 9
SAMPLED_PARTICLES = 16

# name -> (unit, better); kept in step with BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "sim_step_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import hybridsph from this checkout's src/ and nowhere else; make it
    importable by spawned device workers too."""
    if not (SRC / "hybridsph" / "__init__.py").is_file():
        fail(f"no hybridsph package under {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import hybridsph
    if Path(hybridsph.__file__).resolve().parent != SRC / "hybridsph":
        fail(f"imported hybridsph from {hybridsph.__file__}, not {SRC}")


def preflight_device_worker() -> None:
    """Fail at once, with the child's own error, if a subprocess device
    cannot start; otherwise the host would wait out its handshake timeout."""
    probe = subprocess.run(
        [sys.executable, "-c", "import hybridsph.device_worker"],
        capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        fail("device worker cannot start (exit "
             f"{probe.returncode}):\n{probe.stderr.strip()}", 3)
    from hybridsph import transport
    try:
        handle = transport.connect(transport.LinkConfig(kind="subprocess"), 2,
                                   handshake_timeout=30.0)
    except transport.TransportError as exc:
        fail(f"device worker did not complete its handshake: {exc}", 3)
    handle.close()


def machine_info() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hybridsph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg_at_start": os.getloadavg(),
    }


def median_setup_s(kind: str, argv: list[str]) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), kind,
             *argv], capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            fail(f"set-up failed:\n{out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def cpu_seconds() -> float:
    """Process CPU, itself plus reaped children (the subprocess devices)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}={q[round(p * 10) - 1]:.6g}"
    return f"none (n={n}<100)"


class Workload:
    """Set-up, one operation, and its output checks."""

    def __init__(self, name: str, seed: int):
        from hybridsph import cli
        self.name = name
        self.seed = seed
        self.kind, args = WORKLOADS[name]
        self.argv = args + ["--seed", str(seed), "--out", str(OUT / name)]
        self.cfg = cli.parse_config(self.argv)
        self.steps: list = []       # filled by hooks.install_capture
        self.ops = 0
        if self.kind == "sph":
            from hybridsph import render, sph
            import checks
            cfg = self.cfg
            scene = sph.make_scene(cfg.particles, cfg.params, seed=cfg.seed,
                                   radius=cfg.radius)
            self.start = checks.Scene(scene.particles)
            self.camera = render.Camera(resolution=cfg.resolution)
            self.frame = Path(cfg.out) / render.frame_filename(0)

    def run_op(self) -> dict:
        """One timed operation; returns its figures and check failures."""
        from hybridsph import cli
        cfg = self.cfg
        self.steps.clear()
        cpu0 = cpu_seconds()
        if self.kind == "sched":
            elapsed, stats = cli.run_synthetic(
                cfg.particles, cfg.device_specs(), cfg.host_workers,
                cfg.item_delay)
            op = {"run_s": elapsed, "sim_step_s": stats.wall_seconds,
                  "items": sum(stats.items_by_unit.values()),
                  "attempted": 1, "failed": 0, "errors": []}
            if op["items"] != cfg.particles:
                op["errors"].append(f"{op['items']} items applied, "
                                    f"expected {cfg.particles}")
        else:
            status, report = cli.run(cfg, log=lambda *a, **k: None)
            row = report.rows[0] if report.rows else {}
            op = {"run_s": report.total_seconds,
                  "sim_step_s": sum(row.get(f"phase{k}_s", 0.0)
                                    for k in (1, 2, 3, 4)),
                  "frame_s": row.get("render_s", 0.0),
                  "items": sum(report.items_by_unit.values()),
                  "attempted": 2, "failed": 0, "errors": [], "row": row}
            if status != 0:
                op["errors"].append(f"cli.run exited with status {status}")
        op["cpu_s"] = cpu_seconds() - cpu0
        op["items_per_s"] = op["items"] / op["run_s"]
        self.ops += 1
        return op

    def samples(self) -> list[int]:
        rng = random.Random(f"{self.name}/{self.seed}/{self.ops}")
        return rng.sample(range(self.cfg.particles), SAMPLED_PARTICLES)

    def check(self, op: dict) -> None:
        """Fill op["failed"]: a step or frame whose output is wrong fails."""
        import checks
        if self.kind == "sched":
            # run_synthetic raises on a wrong item; count is checked above.
            op["failed"] = 1 if op["errors"] else 0
            return
        if not op["errors"] and len(self.steps) != 1:
            op["errors"].append(f"{len(self.steps)} steps captured, expected 1")
        if op["errors"]:
            op["failed"] = 2
            return
        state, snapshot = self.steps[0]
        step_errors = checks.check_step(self.start, state, self.samples())
        frame_errors = checks.check_frame(
            snapshot, self.camera, self.frame,
            random.Random(f"{self.name}/{self.seed}/{self.ops}/pixels"))
        op["errors"] += step_errors + frame_errors
        op["failed"] = bool(step_errors) + bool(frame_errors)


def run_ops(work: Workload, budget: float, after=None) -> list[dict]:
    """Repeat the operation while the next one still fits the budget of
    operation time (at least one). Checks run between operations."""
    ops: list[dict] = []
    used = 0.0
    while not ops or used + ops[-1]["wall"] <= budget:
        t0 = time.perf_counter()
        try:
            op = work.run_op()
        except Exception as exc:  # the program failed: count it and stop
            op = {"attempted": 2 if work.kind == "sph" else 1,
                  "errors": [f"{type(exc).__name__}: {exc}"]}
            op["failed"] = op["attempted"]
            op["wall"] = time.perf_counter() - t0
            ops.append(op)
            break
        op["wall"] = time.perf_counter() - t0
        used += op["wall"]
        if after is not None:
            after(op)
        work.check(op)
        ops.append(op)
    return ops


def median_of(ops: list[dict], key: str) -> float:
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else 0.0


def end_to_end(work: Workload, ops: list[dict], setup_s: float) -> dict:
    good = [op for op in ops if "run_s" in op]
    values = {
        "setup_s": setup_s,
        "run_s": median_of(good, "run_s"),
        "sim_step_s": median_of(good, "sim_step_s"),
        "items_per_s": median_of(good, "items_per_s"),
        "cpu_s": median_of(good, "cpu_s"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]}
            for k, v in values.items()}


def print_end_to_end(work: Workload, ops: list[dict], metrics: dict) -> None:
    good = [op for op in ops if "run_s" in op]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    print(f"{'metric':<14}{'median':>14}  {'tail':<20}{'n':>4}  unit")
    for name, m in metrics.items():
        per_op = name in ("run_s", "sim_step_s", "items_per_s", "cpu_s")
        n = len(good) if per_op else (SETUP_REPEATS if name == "setup_s"
                                      else 1)
        t = tail([op[name] for op in good]) if per_op else "-"
        print(f"{name:<14}{m['value']:>14.6g}  {t:<20}{n:>4}  {m['unit']}")
    if work.kind == "sph":
        frames = [op["frame_s"] for op in good]
        print(f"{'frame_s':<14}{median_of(good, 'frame_s'):>14.6g}  "
              f"{tail(frames):<20}{len(frames):>4}  s")
    print(f"{'failed_frac':<14}{failed / max(1, attempted):>14.6g}  "
          f"{'-':<20}{attempted:>4}  ratio (failed {failed} of {attempted})")


def derived_speedup(metrics: dict, source: str) -> dict | None:
    """offload_speedup = sph-host.sim_step_s / sph-offload.sim_step_s, from
    the last sph-host result of the same source in this checkout."""
    base_file = OUT / "results" / "sph-host.trace0.json"
    base = json.loads(base_file.read_text()) if base_file.is_file() else None
    if base is None or base["machine"]["source_sha256"] != source:
        print("offload_speedup: needs a sph-host result of this source; "
              "run that workload first")
        return None
    host = base["metrics"]["sim_step_s"]["value"]
    off = metrics["sim_step_s"]["value"]
    print(f"offload_speedup {host / off:.4f} (base: sph-host.sim_step_s "
          f"{host:.4f} s, seed {base['seed']}; sph-offload.sim_step_s "
          f"{off:.4f} s)")
    return {"offload_speedup": host / off, "base": "sph-host.sim_step_s",
            "base_seed": base["seed"], "base_value": host}


def run_all(args) -> int:
    """Run every workload in its own process, in order, and merge."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        print()
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    if args.workload == "all":
        return run_all(args)
    import hooks
    import layers

    machine = machine_info()
    work = Workload(args.workload, args.seed)
    if "--transport" in work.argv:
        preflight_device_worker()
    print(f"# workload {work.name}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"# machine {json.dumps(machine)}")

    restore_capture = hooks.install_capture(work.steps)
    try:
        if args.trace:
            untraced = run_ops(work, args.seconds / 2)
            rec = hooks.Recorder()
            per_op = []

            def after(op):
                per_op.append(layers.op_layers(work, rec, op))
                rec.reset()

            restore_trace = hooks.install_trace(rec)
            try:
                traced = run_ops(work, args.seconds / 2, after)
            finally:
                restore_trace()
            metrics = layers.summarize(per_op, median_of(traced, "run_s")
                                       / median_of(untraced, "run_s"))
            all_ops = untraced + traced
        else:
            setup_s = median_setup_s(work.kind, work.argv)
            all_ops = run_ops(work, args.seconds)
            metrics = end_to_end(work, all_ops, setup_s)
    finally:
        restore_capture()

    derived = None
    if args.trace:
        layers.print_layers(
            metrics, work.cfg.transport if work.cfg.devices else None,
            rec.untraced)
    else:
        print_end_to_end(work, all_ops, metrics)
        if work.name == "sph-offload":
            derived = derived_speedup(metrics, machine["source_sha256"])
    attempted = sum(op["attempted"] for op in all_ops)
    failed = sum(op["failed"] for op in all_ops)
    for op in all_ops:
        for err in op["errors"][:5]:
            print(f"check failed: {err}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.trace{args.trace}.json").write_text(json.dumps(
        {"workload": work.name, "seed": args.seed, "seconds": args.seconds,
         "machine": machine, "metrics": metrics, "derived": derived},
        indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
