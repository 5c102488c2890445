"""The benchmark's trace hooks still match the program they wrap.

``bench/hooks.py`` wraps program functions by name. A hook whose target was
renamed or changed shape is skipped, and its metric then reads 0 with no
error, so a real device call is traced here and the figures checked. The
output checks of ``bench/checks.py`` read the captured state and snapshot,
so a run is checked here as the benchmark checks it.
"""

import random
import threading
from pathlib import Path

import pytest

from hybridsph import cli, render, runtime, sph
from hybridsph.functors import BLOCK_ROWS, DensityGravityAction, SleepAction
from hybridsph.runtime import DeviceSpec, connect_device
from hybridsph.transport import LinkConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import hooks
    return hooks


def test_trace_hooks_count_a_device_call(hooks):
    originals = (runtime.hybrid_for_each, runtime.pack_block,
                 runtime.parse_block, threading.Thread.start)
    rec = hooks.Recorder()
    undo = hooks.install_trace(rec)
    try:
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0)
        items = list(range(200))
        stats = runtime.hybrid_for_each(items, SleepAction(0.0002), [dev],
                                        host_workers=1)
    finally:
        undo()
    assert (runtime.hybrid_for_each, runtime.pack_block, runtime.parse_block,
            threading.Thread.start) == originals

    assert rec.untraced == []
    assert items == [v + 1 for v in range(200)]
    assert not stats.devices_lost, stats.device_errors
    assert stats.device_items > 0
    assert rec.tally("runtime.packed_items")[0] == stats.device_items
    assert rec.tally("runtime.device_items")[0] == stats.device_items
    # One round trip per packed block, matched by unit and block id.
    assert len(rec.spans["runtime.block_rtt"]) == rec.tally("runtime.pack")[0]


def test_trace_hooks_count_a_phase_block_call(hooks):
    # A phase-2 call ships blocks of row ids: the hooks must see every
    # packed row and time one round trip per block.
    state = sph.make_scene(700, seed=6)
    sph.phase1_prepare(state)
    rec = hooks.Recorder()
    undo = hooks.install_trace(rec)
    try:
        dev = connect_device(DeviceSpec(worker_count=2, link=LinkConfig()), 0)
        stats = runtime.hybrid_for_each(
            list(range(700)), DensityGravityAction(state), [dev],
            host_workers=0, chunk=BLOCK_ROWS)
    finally:
        undo()

    assert rec.untraced == []
    assert not stats.devices_lost, stats.device_errors
    assert rec.tally("runtime.packed_items")[0] == stats.device_items == 700
    assert len(rec.spans["runtime.block_rtt"]) == rec.tally("runtime.pack")[0]


def test_benchmark_checks_pass_on_a_captured_run(hooks, tmp_path):
    # The benchmark checks every step and frame with these calls on what
    # install_capture kept; a particle layout they cannot read would show
    # up there as a failed run or as incorrect outputs.
    import checks

    cfg = cli.RunConfig(particles=500, steps=1, resolution=(16, 16), seed=3,
                        host_workers=2, out=tmp_path)
    start = checks.Scene(sph.make_scene(cfg.particles, cfg.params,
                                        seed=cfg.seed,
                                        radius=cfg.radius).particles)
    steps = []
    undo = hooks.install_capture(steps)
    try:
        status, _ = cli.run(cfg, log=lambda *a, **k: None)
    finally:
        undo()
    assert status == 0 and len(steps) == 1
    state, snapshot = steps[0]
    assert checks.check_step(start, state, range(0, cfg.particles, 17)) == []
    camera = render.Camera(resolution=cfg.resolution)
    assert checks.check_frame(snapshot, camera,
                              tmp_path / render.frame_filename(0),
                              random.Random(3)) == []
