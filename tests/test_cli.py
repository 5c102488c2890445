"""CLI: config parsing and precedence, run outputs, pipeline, bench sweep."""

import csv

import pytest

from hybridsph import cli, sph
from hybridsph.cli import RunConfig, bench, parse_config, run


def quiet(*args, **kwargs):
    pass


class TestParseConfig:
    def test_basic_flags(self):
        cfg = parse_config(["--particles", "1000", "--devices", "1",
                            "--device-workers", "8"])
        assert cfg.particles == 1000
        assert cfg.devices == 1
        assert cfg.device_specs()[0].worker_count == 8

    def test_per_device_worker_lists(self):
        cfg = parse_config(["--devices", "2", "--device-workers", "4,8"])
        assert [s.worker_count for s in cfg.device_specs()] == [4, 8]
        cfg = parse_config(["--devices", "3", "--device-workers", "2"])
        assert [s.worker_count for s in cfg.device_specs()] == [2, 2, 2]

    @pytest.mark.parametrize("argv", [
        pytest.param(["--bandwidth", "0"], id="zero-bandwidth"),
        pytest.param(["--resolution", "0x10"], id="zero-resolution"),
        pytest.param(["--devices", "1", "--device-workers", "0"],
                     id="zero-device-workers"),
        pytest.param(["--host-workers", "-1"], id="negative-host-workers"),
        pytest.param(["--bench", "--item-delay", "-1"],
                     id="negative-item-delay"),
    ])
    def test_usage_error_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--warp-drive", "9"])
        assert exc.value.code == 2

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("steps=5\nparticles=42\nh=0.2\n")
        cfg = parse_config(["--config", str(cfg_file), "--steps", "3"])
        assert cfg.steps == 3          # flag wins
        assert cfg.particles == 42     # file value survives
        assert cfg.params.h == 0.2

    def test_scene_keys_from_file(self, tmp_path):
        cfg_file = tmp_path / "scene.cfg"
        cfg_file.write_text(
            "k_eos=0.5\nG=2.0\nepsilon=0.01\n"
            "world_box=-3,-3,-3,3,3,3\ngravity_dims=4,4,4\nradius=1.5\n"
            "seed=99\n")
        cfg = parse_config(["--config", str(cfg_file)])
        assert cfg.params.k_eos == 0.5
        assert cfg.params.G == 2.0
        assert cfg.params.world_box == ((-3, -3, -3), (3, 3, 3))
        assert cfg.params.gravity_dims == (4, 4, 4)
        assert cfg.radius == 1.5
        assert cfg.seed == 99

    def test_bad_config_line_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense_key=1\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_resolution_and_pipeline_flags(self):
        cfg = parse_config(["--resolution", "48x32", "--pipeline"])
        assert cfg.resolution == (48, 32)
        assert cfg.pipeline
        cfg = parse_config(["--no-pipeline"])
        assert not cfg.pipeline

    def test_mismatched_worker_list_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["--devices", "3", "--device-workers", "4,8"])


class TestRun:
    def test_host_only_outputs(self, tmp_path):
        cfg = RunConfig(particles=200, steps=2, resolution=(16, 16),
                        out=tmp_path / "run", host_workers=1, seed=5)
        status, report = run(cfg, log=quiet)
        assert status == 0
        frames = sorted((tmp_path / "run").glob("frame_*.ppm"))
        assert [f.name for f in frames] == ["frame_00000.ppm",
                                            "frame_00001.ppm"]
        assert report.coproc_fraction == 0.0
        with open(tmp_path / "run" / "timing.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert float(rows[0]["coproc_fraction"]) == 0.0
        assert (tmp_path / "run" / "run_stats.csv").exists()

    def test_empty_scene(self, tmp_path):
        # Zero particles: every phase is a call over zero rows, and a run
        # writes a background frame and both CSVs.
        state = sph.make_scene(0)
        timing = sph.simulation_step(state)
        assert len(state.particles) == 0 and len(timing.stats) == 3
        assert timing.items_total == timing.items_on_devices == 0
        cfg = parse_config(["--particles", "0", "--steps", "1",
                            "--resolution", "4x3", "--host-workers", "1",
                            "--out", str(tmp_path / "run")])
        status, report = run(cfg, log=quiet)
        assert status == 0 and report.items_total == 0
        frame = (tmp_path / "run" / "frame_00000.ppm").read_bytes()
        assert frame == b"P6\n4 3\n255\n" + bytes(4 * 3 * 3)
        with open(tmp_path / "run" / "timing.csv") as f:
            assert [r["step"] for r in csv.DictReader(f)] == ["0"]
        with open(tmp_path / "run" / "run_stats.csv") as f:
            assert all(r["items"] == "0" for r in csv.DictReader(f))

    def test_total_time_covers_phase_sums(self, tmp_path):
        cfg = RunConfig(particles=150, steps=2, resolution=(8, 8),
                        out=tmp_path / "run", host_workers=1)
        _, report = run(cfg, log=quiet)
        phase_sum = sum(
            r["phase1_s"] + r["phase2_s"] + r["phase3_s"] + r["phase4_s"]
            for r in report.rows)
        assert report.total_seconds >= phase_sum
        assert sum(report.items_by_unit.values()) == 3 * 2 * 150

    def test_pipelined_frames_identical_to_sequential(self, tmp_path):
        base = dict(particles=250, steps=3, resolution=(16, 16), seed=11,
                    host_workers=2)
        cfg_a = RunConfig(out=tmp_path / "seq", pipeline=False, **base)
        cfg_b = RunConfig(out=tmp_path / "pipe", pipeline=True, **base)
        assert run(cfg_a, log=quiet)[0] == 0
        assert run(cfg_b, log=quiet)[0] == 0
        for i in range(3):
            a = (tmp_path / "seq" / f"frame_{i:05d}.ppm").read_bytes()
            b = (tmp_path / "pipe" / f"frame_{i:05d}.ppm").read_bytes()
            assert a == b

    def test_device_run_records_fraction(self, tmp_path):
        # One step: the run's fraction is the step's, device items over the
        # phase 2 and 3 items (phase 4 never leaves the host).
        cfg = RunConfig(particles=600, steps=1, resolution=(8, 8),
                        out=tmp_path / "dev", devices=1, device_workers=(4,),
                        host_workers=1)
        status, report = run(cfg, log=quiet)
        assert status == 0
        assert report.items_by_unit["device/0"] > 0
        assert report.coproc_fraction == (
            report.items_by_unit["device/0"] / (2 * 600))
        with open(tmp_path / "dev" / "timing.csv") as f:
            row = next(csv.DictReader(f))
        assert float(row["coproc_fraction"]) == round(
            report.coproc_fraction, 6)


class TestBench:
    def test_host_only_sweep_speedup_is_one(self, tmp_path):
        cfg = RunConfig(particles=100, steps=1, resolution=(8, 8),
                        out=tmp_path / "bench", devices=0, host_workers=1,
                        sweep=(100,))
        status, rows = bench(cfg, log=quiet)
        assert status == 0
        assert rows[0]["devices"] == 0
        assert rows[0]["speedup_vs_host_only"] == 1.0
        with open(tmp_path / "bench" / "sweep.csv") as f:
            got = list(csv.DictReader(f))
        assert len(got) == 1

    def test_synthetic_delay_sweep(self, tmp_path):
        cfg = RunConfig(out=tmp_path / "bench", devices=1,
                        device_workers=(4,), host_workers=2, sweep=(200,),
                        item_delay=0.0002)
        status, rows = bench(cfg, log=quiet)
        assert status == 0
        assert len(rows) == 2  # devices 0 and 1
        assert rows[1]["devices"] == 1
        assert rows[1]["coproc_fraction"] > 0.0

    def test_default_sweep_truncates_ladder(self, tmp_path):
        cfg = RunConfig(particles=8000, steps=1, devices=0, host_workers=1,
                        out=tmp_path / "b")
        sizes = cfg.sweep or tuple(
            n for n in cli.SWEEP_LADDER
            if n <= max(cfg.particles, cli.SWEEP_LADDER[0]))
        assert sizes == (1000, 8000)


class TestMain:
    def test_main_smoke(self, tmp_path, capsys):
        status = cli.main(["--particles", "60", "--steps", "1",
                           "--resolution", "8x8", "--host-workers", "1",
                           "--out", str(tmp_path / "m")])
        assert status == 0
        assert (tmp_path / "m" / "frame_00000.ppm").exists()
        out = capsys.readouterr().out
        assert "1 steps" in out
