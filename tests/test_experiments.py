"""Tests of the experiment harnesses.

Tier-1 tests run each figure/table module at a small scale and check
its rows are well formed; the analytical figures and the tables are
cheap, so their paper-shape bounds are checked there too.  The ``slow``
tests (``pytest -m slow tests/test_experiments.py``) assert the shape
claims of Figs. 15-20 at the scales where they hold, with the stat
conservation invariants checked after every simulation.
"""

import pytest

from repro.analysis.hwcost import total_area
from repro.experiments import (fig03_attack, fig15_weighted_ipc,
                               fig16_path_length, fig17_nfl, fig18_nflb,
                               fig19_mem_accesses, fig20_sensitivity,
                               fig21_treeling_count, fig22_success_rate,
                               runner, tab01_config, tab02_workloads,
                               tab03_hwcost)
from repro.experiments.common import QUICK, Scale, format_table, get_scale
from repro.sim.config import paper_config
from repro.sim.simulator import CHECK_INVARIANTS_ENV

#: Tiny scale for CI smoke runs.
SMOKE = Scale("quick", n_accesses=2_500, warmup=800)
MIXES = ["S-1", "L-1"]

#: Scale of the slow Fig. 15-19 shape tests: 14,000 measured accesses
#: after a 6,000-access warm-up.
SHAPE = Scale("quick", n_accesses=14_000, warmup=6_000)
SHAPE_MIXES = ["S-1", "M-1", "L-1"]
#: Scale of the slow Fig. 20 sweeps.
SWEEP = Scale("quick", n_accesses=4_000, warmup=1_200)


class TestCommon:
    def test_get_scale(self):
        assert get_scale("quick") is QUICK
        assert get_scale(SMOKE) is SMOKE
        with pytest.raises(KeyError):
            get_scale("warp")

    def test_format_table(self):
        out = format_table([{"a": 1, "b": 0.5}])
        assert "a" in out and "0.500" in out


class TestSimulationFigures:
    def test_fig15_rows(self):
        rows = fig15_weighted_ipc.compute(SMOKE, mixes=MIXES)
        names = [r["mix"] for r in rows]
        assert "S-1" in names and "gmeanS" in names
        base = next(r for r in rows if r["mix"] == "S-1")
        assert base["baseline"] == pytest.approx(1.0)
        for r in rows:
            for s in ("ivleague-basic", "ivleague-invert", "ivleague-pro"):
                assert 0.3 < r[s] < 3.0

    def test_fig16_rows(self):
        rows = fig16_path_length.compute(SMOKE, mixes=MIXES)
        benches = {r["benchmark"] for r in rows}
        assert {"gcc", "bfs"} <= benches
        for r in rows:
            for s in ("baseline", "ivleague-pro"):
                assert 1.0 <= r[s] < 8.0

    def test_fig18_rows(self):
        rows = fig18_nflb.compute(SMOKE, mixes=MIXES)
        for r in rows:
            assert 0.5 < r["ivleague-basic"] <= 1.0

    def test_fig19_rows(self):
        rows = fig19_mem_accesses.compute(SMOKE, mixes=MIXES)
        for r in rows:
            assert 0.5 < r["ivleague-basic"] < 2.0

    def test_fig17_rows(self):
        perf, util = fig17_nfl.compute(SMOKE, mixes=["S-1"])
        assert perf[0]["mix"] == "S-1"
        assert isinstance(perf[0]["BV-v2"], (float, str))
        assert util[0]["utilization"] > 0.99

    def test_fig20_rows(self):
        tiny_scale = Scale("quick", n_accesses=1_500, warmup=500)
        rows = fig20_sensitivity.compute_treeling_size(
            tiny_scale, mixes=["S-1"])
        assert len(rows) == 3
        rows_b = fig20_sensitivity.compute_cache_size(
            tiny_scale, mixes=["S-1"])
        assert len(rows_b) == len(fig20_sensitivity.CACHE_SWEEP_KB)


class TestAnalyticalFigures:
    def test_fig21(self):
        rows = fig21_treeling_count.compute(n_domains=1024, trials=8)
        assert len(rows) == 12
        # monotone: bigger TreeLings never require more
        by_mem = [r for r in rows if r["memory"] == "8GB"]
        needs = [r["skew=1.0"] for r in by_mem]
        assert needs == sorted(needs, reverse=True)
        # the paper's steep drop, then flattening
        assert needs[0] > 2 * needs[-1]

    def test_fig22(self):
        rows = fig22_success_rate.compute(trials=60)
        assert all(0.0 <= r["static"] <= 1.0 for r in rows)
        # IvLeague succeeds almost always (paper: >98%); static
        # partitioning fails once domains fill memory
        assert min(r["ivleague"] for r in rows) > 0.95
        assert max(r["static"] for r in rows
                   if r["utilization"] >= 0.4) < 0.6

    def test_fig03(self):
        rows = fig03_attack.compute(n_bits=48, seed=3)
        acc = {r["scheme"]: r["accuracy"] for r in rows}
        assert acc["baseline"] > 0.8
        assert acc["ivleague-pro"] < 0.7


class TestTables:
    def test_tab01(self):
        rows = tab01_config.compute()
        params = {r["parameter"] for r in rows}
        assert "TreeLing" in params and "Integrity tree" in params
        assert len(rows) >= 12

    def test_tab02(self):
        rows = tab02_workloads.compute()
        assert len(rows) == 16

    def test_tab03(self):
        rows = tab03_hwcost.compute()
        assert len(rows) == 3
        assert all(r["area_mm2"] > 0 for r in rows)
        assert total_area(paper_config()) < 1.0   # paper: 0.3551 mm^2


@pytest.fixture(scope="module")
def shape_rows():
    """Fig. 15-19 rows at SHAPE scale, computed once per module: the
    conftest resets the runner's memo after every test, and the four
    steady-state figures read the same 12 cells (Fig. 17 shares M-1's
    Baseline and Basic cells).  The disk cache is off: the previous
    test's cache directory is still configured, and a cached cell would
    skip the invariant check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CHECK_INVARIANTS_ENV, "1")
        runner.configure(jobs=1, use_cache=False)
        rows = {
            "fig15": fig15_weighted_ipc.compute(SHAPE, mixes=SHAPE_MIXES),
            "fig16": fig16_path_length.compute(SHAPE, mixes=SHAPE_MIXES),
            "fig17": fig17_nfl.compute(SHAPE, mixes=["S-2", "M-1"]),
            "fig18": fig18_nflb.compute(SHAPE, mixes=SHAPE_MIXES),
            "fig19": fig19_mem_accesses.compute(SHAPE, mixes=SHAPE_MIXES),
        }
    runner.clear_cache()
    return rows


@pytest.mark.slow
class TestPaperShapes:
    def test_fig15_pro_matches_basic(self, shape_rows):
        by_mix = {r["mix"]: r for r in shape_rows["fig15"]}
        for mix in SHAPE_MIXES:
            assert by_mix[mix]["baseline"] == 1.0
            # hotpage placement never costs Pro more than 3% vs Basic
            assert (by_mix[mix]["ivleague-pro"]
                    >= 0.97 * by_mix[mix]["ivleague-basic"])

    def test_fig16_gap_walks_deepest(self, shape_rows):
        avgs = {r["benchmark"]: r for r in shape_rows["fig16"]
                if r["benchmark"].startswith("avg-")}
        assert {"avg-gap", "avg-spec2017"} <= set(avgs)
        assert avgs["avg-gap"]["baseline"] > avgs["avg-spec2017"]["baseline"]
        for r in avgs.values():
            assert r["ivleague-pro"] <= r["ivleague-basic"] + 0.05

    def test_fig17_nfl_beats_bitvectors(self, shape_rows):
        perf, util = shape_rows["fig17"]
        assert [r["mix"] for r in perf] == ["S-2", "M-1"]
        for row in perf:
            # BV-v2 either starves or pays its cross-TreeLing scans
            assert isinstance(row["BV-v2"], str) or row["BV-v2"] <= row["NFL"]
        assert len(util) == 2
        for row in util:
            assert row["utilization"] > 0.999   # paper: >99.99%

    def test_fig18_nflb_hit_rate(self, shape_rows):
        # paper: 86.9%+ everywhere
        for r in shape_rows["fig18"]:
            for scheme in fig18_nflb.IV_SCHEMES:
                assert r[scheme] > 0.75

    def test_fig19_pro_traffic(self, shape_rows):
        for r in shape_rows["fig19"]:
            assert r["ivleague-pro"] <= r["ivleague-basic"] * 1.06

    def test_fig20_sensitivity(self, monkeypatch):
        monkeypatch.setenv(CHECK_INVARIANTS_ENV, "1")
        rows = fig20_sensitivity.compute_treeling_size(
            SWEEP, mixes=["S-2", "M-1"])
        assert len(rows) == 3
        rows = fig20_sensitivity.compute_cache_size(SWEEP, mixes=["S-2"])
        # bigger metadata caches never hurt
        assert rows[-1]["ivleague-basic"] >= rows[0]["ivleague-basic"]
