"""Tests for the CLI and the beyond-the-paper ablation harness."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import ablations
from repro.experiments.common import Scale

SMOKE = Scale("quick", n_accesses=2_000, warmup=600)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ivleague-pro" in out and "S-1" in out and "fig15" in out

    def test_run_single_scheme(self, capsys):
        rc = main(["run", "S-4", "--scheme", "baseline",
                   "--accesses", "1500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_run_check_invariants_and_dump_stats(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "stats.json"
        rc = main(["run", "S-4", "--scheme", "baseline",
                   "--accesses", "1500", "--check-invariants",
                   "--dump-stats", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "invariants OK" in out
        payload = json.loads(out_path.read_text())
        assert "baseline" in payload["schemes"]
        snap = payload["schemes"]["baseline"]
        assert snap["dram"]["reads"] > 0
        assert {"llc", "tlb", "engine", "mc.traffic",
                "hist.sim", "hist.engine", "hist.mc"} <= set(snap)
        manifest = payload["manifest"]
        assert manifest["seed"] == 123
        assert manifest["mix"] == "S-4"
        assert len(manifest["config_hash"]) == 16
        assert manifest["schema_version"] >= 1

    def test_experiment_tab1(self, capsys):
        assert main(["experiment", "tab1"]) == 0
        assert "TreeLing" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_parser_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "S-1", "--scheme", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["serve"],
        # neither command reads a progress setting
        ["verify-oracle", "--progress"],
        ["check-leakage", "--progress"],
    ])
    def test_parser_rejects_removed_surface(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestAblations:
    def test_nflb_size_rows(self):
        rows = ablations.nflb_size(SMOKE, mixes=["S-4"], sizes=(1, 4))
        assert len(rows) == 2
        # more NFLB entries never lower the hit rate
        assert rows[1]["nflb_hit_rate"] >= rows[0]["nflb_hit_rate"] - 0.02

    def test_tracker_size_rows(self):
        rows = ablations.tracker_size(SMOKE, mixes=["S-4"],
                                      sizes=(64, 256))
        assert len(rows) == 2
        assert all(r["avg_path"] > 0 for r in rows)

    def test_hot_region_rows(self):
        rows = ablations.hot_region_size(SMOKE, mixes=["S-4"],
                                         sizes=(8, 32))
        assert len(rows) == 2

    def test_frame_environment_rows(self):
        rows = ablations.frame_environment(SMOKE, mixes=["S-4"])
        by_policy = {r["frame_policy"]: r for r in rows}
        assert set(by_policy) == {"sequential", "fragmented", "random"}
        # the static baseline's path degrades with fragmentation...
        assert by_policy["random"]["baseline_path"] \
            > by_policy["sequential"]["baseline_path"]
        # ...while IvLeague's dynamic packing barely moves
        iv_delta = abs(by_policy["random"]["ivleague-pro_path"]
                       - by_policy["sequential"]["ivleague-pro_path"])
        base_delta = (by_policy["random"]["baseline_path"]
                      - by_policy["sequential"]["baseline_path"])
        assert iv_delta < base_delta


class TestStaticPartitionAblation:
    def test_rows_have_outcomes(self):
        rows = ablations.static_partition_comparison(
            SMOKE, mixes=["S-4"], n_partitions=16)
        assert rows[0]["mix"] == "S-4"
        v = rows[0]["static_vs_baseline"]
        assert isinstance(v, str) or 0.3 < v < 1.5

    def test_quick_scale_comparison_survives_late_writebacks(self):
        """Quick-scale churn writes back dirty blocks of freed pages on
        behalf of other domains; the comparison must still yield a
        number, not die on PartitionOverflow."""
        rows = ablations.static_partition_comparison(
            "quick", mixes=["S-1"], n_partitions=16)
        v = rows[0]["static_vs_baseline"]
        assert isinstance(v, float) and 0.5 < v < 1.5

    def test_small_partitions_overflow_on_large_mix(self):
        rows = ablations.static_partition_comparison(
            SMOKE, mixes=["L-1"], n_partitions=1024)
        assert rows[0]["static_vs_baseline"] == "x (partition overflow)"


class TestSimulatorConfinement:
    def test_static_engine_frames_stay_in_partition(self):
        from repro.secure.static_partition import StaticPartitionEngine
        from repro.sim.config import scaled_config
        from repro.sim.simulator import Simulator
        from repro.workloads.mixes import build_mix
        cfg = scaled_config(n_cores=4)
        engine = StaticPartitionEngine(cfg, n_partitions=8)
        sim = Simulator(cfg, engine, frame_policy="fragmented")
        sim.run(build_mix("S-4", n_accesses=1200), warmup=0)
        for pfn, owner in sim.allocator._owner.items():
            lo, hi = engine.frame_range(owner)
            assert lo <= pfn < hi
