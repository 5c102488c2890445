"""Time one benchmark set-up in a fresh interpreter; print the seconds.

Set-up is everything before a run's timed window: imports, the parsed
configuration, the scene or the synthetic item list, and the output
directory. ``run.py`` starts this several times and reports the median as
``setup_s``.

Usage: python3 setup_probe.py SRC_DIR {sph,sched} HYBRIDSPH_ARGS...
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (imported by the first step; counted here)

from hybridsph import cli, functors, sph  # noqa: E402

cfg = cli.parse_config(sys.argv[3:])
if sys.argv[2] == "sph":
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    sph.make_scene(cfg.particles, cfg.params, seed=cfg.seed, radius=cfg.radius)
else:
    items = list(range(cfg.particles))
    functors.SleepAction(cfg.item_delay)
    cfg.device_specs()
print(time.perf_counter() - t0)
