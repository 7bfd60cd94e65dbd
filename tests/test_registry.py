"""StatsRegistry: registration, windowed measurement, conservation
invariants, and the warmup-boundary reset they guarantee.

Three layers:

* unit tests of the registry mechanics themselves;
* conservation invariants verified on real runs of every scheme over a
  benchmark mix (the tripwire future perf PRs run into);
* mutation self-tests -- inject a deliberate miscount and prove the
  checker reports it (a checker that cannot fail verifies nothing);
* warmup-invariance regression tests for the historical bug: cache /
  DRAM / TLB counters used to survive the measurement reset, so every
  reported hit rate blended warmup traffic into the window.
"""

from dataclasses import dataclass

import pytest

from repro import ENGINES, EXTRA_ENGINES, BaselineEngine, IvLeagueProEngine
from repro.sim.registry import InvariantViolation, StatsRegistry
from repro.sim.simulator import Simulator
from repro.workloads.mixes import build_mix
from repro.workloads.generator import build_workload


@dataclass
class _Counts:
    hits: int = 0
    misses: int = 0
    latency: float = 0.0
    label: str = "x"       # non-numeric: must not be discovered


class TestRegistryMechanics:
    def test_register_discovers_numeric_dataclass_fields(self):
        reg = StatsRegistry()
        c = _Counts(hits=3, misses=1, latency=2.5)
        reg.register("c", c)
        assert reg.snapshot() == {
            "c": {"hits": 3, "misses": 1, "latency": 2.5}}

    def test_reset_zeroes_preserving_type(self):
        reg = StatsRegistry()
        c = _Counts(hits=3, latency=2.5)
        reg.register("c", c)
        reg.reset_all()
        assert c.hits == 0 and c.latency == 0.0
        assert isinstance(c.latency, float)
        assert c.label == "x"   # non-counter state untouched

    def test_non_dataclass_requires_fields(self):
        reg = StatsRegistry()
        with pytest.raises(TypeError):
            reg.register("o", object())

    def test_merge_same_name_different_objects(self):
        reg = StatsRegistry()
        a, b = _Counts(hits=1), _Counts(misses=2)
        reg.register("g", a, ("hits",))
        reg.register("g", b, ("misses",))
        assert reg.snapshot()["g"] == {"hits": 1, "misses": 2}

    def test_field_collision_rejected(self):
        reg = StatsRegistry()
        reg.register("g", _Counts(), ("hits",))
        with pytest.raises(ValueError):
            reg.register("g", _Counts(), ("hits",))

    def test_non_numeric_field_rejected(self):
        reg = StatsRegistry()
        with pytest.raises(TypeError):
            reg.register("g", _Counts(), ("label",))

    def test_provider_reenumerated_lazily(self):
        reg = StatsRegistry()
        family = {}
        reg.register_provider(
            "fam", lambda: [(k, v, ("hits",)) for k, v in family.items()])
        assert reg.snapshot() == {}
        family["a"] = _Counts(hits=7)   # appears after registration
        assert reg.snapshot() == {"fam.a": {"hits": 7}}
        reg.reset_all()
        assert family["a"].hits == 0

    def test_custom_entry(self):
        reg = StatsRegistry()
        rec = [3, 4]
        reg.register_custom("rec", reset=lambda: rec.__setitem__(0, 0),
                            values=lambda: {"first": rec[0]})
        assert reg.snapshot() == {"rec": {"first": 3}}
        reg.reset_all()
        assert rec[0] == 0

    def test_delta_windowed_measurement(self):
        reg = StatsRegistry()
        c = _Counts()
        reg.register("c", c, ("hits", "misses"))
        c.hits = 5
        before = reg.snapshot()
        c.hits, c.misses = 9, 2
        d = StatsRegistry.delta(before, reg.snapshot())
        assert d["c"] == {"hits": 4, "misses": 2}

    def test_delta_handles_groups_created_mid_window(self):
        before = {"a": {"x": 1}}
        after = {"a": {"x": 3}, "b": {"y": 5}}
        d = StatsRegistry.delta(before, after)
        assert d == {"a": {"x": 2}, "b": {"y": 5}}

    def test_invariant_api(self):
        reg = StatsRegistry()
        c = _Counts(hits=2, misses=2)
        reg.register("c", c, ("hits", "misses"))
        reg.add_equality("h-eq-m", "hits", lambda: c.hits,
                         "misses", lambda: c.misses)
        assert reg.check_invariants() == []
        c.hits = 5
        errs = reg.check_invariants(raise_on_violation=False)
        assert len(errs) == 1 and "h-eq-m" in errs[0]
        with pytest.raises(InvariantViolation) as ei:
            reg.check_invariants()
        assert "h-eq-m" in str(ei.value)

    def test_duplicate_invariant_name_rejected(self):
        reg = StatsRegistry()
        reg.add_invariant("x", lambda: None)
        with pytest.raises(ValueError):
            reg.add_invariant("x", lambda: None)


def run_sim(engine_cls, cfg, wl, warmup=0, **kw):
    engine = engine_cls(cfg, **kw)
    sim = Simulator(cfg, engine, frame_policy="fragmented")
    result = sim.run(wl, warmup=warmup, check_invariants=False)
    return sim, result


ALL_SCHEMES = {**ENGINES,
               "vault": EXTRA_ENGINES["vault"],
               "sgx-counter-tree": EXTRA_ENGINES["sgx-counter-tree"]}


class TestConservationInvariants:
    @pytest.mark.parametrize("scheme", list(ALL_SCHEMES))
    def test_invariants_hold_on_benchmark_mix(self, scaled, scheme):
        """Acceptance criterion: a Table II mix, warmup included, under
        every scheme keeps every conservation law balanced."""
        wl = build_mix("S-1", n_accesses=3000, seed=7)
        sim, _ = run_sim(ALL_SCHEMES[scheme], scaled, wl, warmup=1200)
        assert sim.registry.check_invariants() == []

    def test_invariants_hold_static_partition(self, tiny):
        wl = build_workload("t", ["gcc", "x264"], 2000, seed=1, scale=0.02)
        sim, _ = run_sim(EXTRA_ENGINES["static-partition"], tiny, wl,
                         warmup=800, n_partitions=4)
        assert sim.registry.check_invariants() == []

    def test_run_raises_when_asked(self, tiny):
        wl = build_workload("t", ["gcc", "x264"], 1200, seed=1, scale=0.03)
        engine = BaselineEngine(tiny)
        sim = Simulator(tiny, engine, frame_policy="fragmented")
        sim.run(wl, check_invariants=True)  # clean run: must not raise

    def test_env_var_enables_checking(self, tiny, monkeypatch):
        from repro.sim import simulator as sim_mod
        monkeypatch.setenv(sim_mod.CHECK_INVARIANTS_ENV, "1")
        assert sim_mod._env_check_invariants()
        monkeypatch.setenv(sim_mod.CHECK_INVARIANTS_ENV, "0")
        assert not sim_mod._env_check_invariants()

    def test_snapshot_attached_to_result(self, tiny):
        wl = build_workload("t", ["gcc", "x264"], 1200, seed=1, scale=0.03)
        _, result = run_sim(BaselineEngine, tiny, wl)
        snap = result.registry_snapshot
        assert snap["engine"]["data_reads"] == result.engine.data_reads
        assert snap["dram"]["reads"] > 0
        assert "llc" in snap and "tlb" in snap


class TestMutationSelfTest:
    """Inject a deliberate miscount; the checker must catch it."""

    def _clean_sim(self, tiny, engine_cls=BaselineEngine):
        wl = build_workload("t", ["gcc", "x264"], 1500, seed=1, scale=0.03)
        sim, _ = run_sim(engine_cls, tiny, wl, warmup=500)
        assert sim.registry.check_invariants() == []
        return sim

    def test_detects_engine_read_miscount(self, tiny):
        sim = self._clean_sim(tiny)
        sim.engine.stats.dram_data_reads += 1
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        assert "engine-data-read-attribution" in str(ei.value)

    def test_detects_lost_writeback(self, tiny):
        sim = self._clean_sim(tiny)
        sim.engine.stats.writebacks_absorbed -= 1   # one eviction "lost"
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        # losing a writeback unbalances the MAC ledger too
        msg = str(ei.value)
        assert "llc-writeback-conservation" in msg
        assert "mac-accounting" in msg

    def test_detects_unattributed_metadata_read(self, tiny):
        sim = self._clean_sim(tiny)
        sim.engine.mc.traffic.metadata_reads += 1
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        assert "metadata-read-attribution" in str(ei.value)

    def test_detects_dram_device_miscount(self, tiny):
        sim = self._clean_sim(tiny)
        sim.engine.mc.dram.stats.reads += 1
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        assert "dram-read-conservation" in str(ei.value)

    def test_detects_path_length_miscount(self, tiny):
        sim = self._clean_sim(tiny)
        sim.engine.stats.tree_nodes_visited += 1
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        msg = str(ei.value)
        assert "tree-path-accounting" in msg
        assert "domain-path-accounting" in msg

    def test_detects_nflb_miscount(self, tiny):
        sim = self._clean_sim(tiny, IvLeagueProEngine)
        sim.engine.stats.nflb_hits += 1
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        assert "nflb-accounting" in str(ei.value)

    def test_detects_lmm_miscount(self, tiny):
        sim = self._clean_sim(tiny, IvLeagueProEngine)
        sim.engine.lmm_cache.hits += 1
        with pytest.raises(InvariantViolation) as ei:
            sim.registry.check_invariants()
        assert "lmm-accounting" in str(ei.value)


class TestMirageStats:
    """PR 1 missed the MIRAGE skew counters; they are registered now."""

    def _cache(self):
        from repro.mem.mirage import MirageCache
        from repro.sim.config import CacheConfig
        c = MirageCache(CacheConfig(4096, 4, hit_latency=10,
                                    randomized=True), "m")
        reg = StatsRegistry()
        c.register_stats(reg)
        return c, reg

    def test_skew_counters_registered_and_counted(self):
        c, reg = self._cache()
        for addr in range(0, 64 * 40, 64):
            if not c.lookup(addr):
                c.fill(addr)
        snap = reg.snapshot()["m"]
        assert snap["skew0_fills"] + snap["skew1_fills"] == 40
        # power-of-two-choices should use both skews on 40 placements
        assert snap["skew0_fills"] > 0 and snap["skew1_fills"] > 0

    def test_reset_zeroes_skew_counters(self):
        c, reg = self._cache()
        c.fill(0)
        reg.reset_all()
        snap = reg.snapshot()["m"]
        assert snap["skew0_fills"] == 0 and snap["skew1_fills"] == 0

    def test_eviction_bound_invariant(self):
        c, reg = self._cache()
        for addr in range(0, 64 * 500, 64):   # enough to force evictions
            if not c.lookup(addr):
                c.fill(addr)
        assert c.stats.evictions > 0
        assert reg.check_invariants() == []
        # mutation self-test: phantom eviction breaks the bound
        c.stats.evictions = c.stats.skew0_fills + c.stats.skew1_fills + 1
        with pytest.raises(InvariantViolation) as ei:
            reg.check_invariants()
        assert "mirage-eviction-bound" in str(ei.value)

    def test_sim_snapshot_exposes_llc_skew_counters(self, tiny):
        wl = build_workload("t", ["gcc", "x264"], 1200, seed=1, scale=0.03)
        sim, result = run_sim(BaselineEngine, tiny, wl)
        snap = result.registry_snapshot
        assert snap["llc"]["skew0_fills"] + snap["llc"]["skew1_fills"] > 0
        # the histogram groups ride the same registry
        assert snap["hist.sim"]["req.llc_miss.count"] > 0
        assert snap["hist.engine"]["access_latency.count"] > 0
        assert snap["hist.mc"]["read.data.count"] > 0


class TestWarmupReset:
    """Regression tests: warmup traffic must never appear in reported
    hit rates (it used to leak through every Cache/DRAM/TLB counter)."""

    def _wl(self, n=2000):
        return build_workload("t", ["gcc", "x264"], n, seed=1, scale=0.03)

    def test_full_warmup_rejected(self, tiny):
        """With warmup == trace length the measurement window is empty:
        cycles == 0 per core silently poisons weighted-IPC aggregation
        downstream, so the simulator now refuses to run it (PR-6).  A
        window of even one access is still legal and measured."""
        wl = self._wl()
        with pytest.raises(ValueError, match="warmup"):
            run_sim(BaselineEngine, tiny, wl, warmup=2000)
        sim, result = run_sim(BaselineEngine, tiny, wl, warmup=1999)
        assert all(c.mem_accesses == 1 for c in result.cores)
        assert all(c.cycles > 0 for c in result.cores)

    def test_hierarchy_counters_reset_at_boundary(self, tiny):
        """The historical bug: Cache.stats, DRAMStats and TLB counters
        survived _reset_measurement."""
        wl = self._wl()
        cold_sim, _ = run_sim(BaselineEngine, tiny, wl)
        warm_sim, _ = run_sim(BaselineEngine, tiny, wl, warmup=1000)
        cold, warm = (s.registry.snapshot() for s in (cold_sim, warm_sim))
        for group in ("llc", "l1.0", "tlb", "dram", "ctr$"):
            cold_total = sum(cold[group].values())
            warm_total = sum(warm[group].values())
            assert 0 < warm_total < cold_total, group

    def test_warm_hit_rate_excludes_cold_misses(self, tiny):
        """Post-warmup LLC hit rate must beat the cold-start rate: the
        compulsory misses of the warmup phase may not be counted.  The
        window is chosen clear of the workload's phase-drift tail, where
        the *true* warm hit rate can dip below the whole-run average."""
        wl = self._wl(4000)
        cold_sim, _ = run_sim(BaselineEngine, tiny, wl)
        warm_sim, _ = run_sim(BaselineEngine, tiny, wl, warmup=1500)
        assert warm_sim.hierarchy.llc.stats.hit_rate > \
            cold_sim.hierarchy.llc.stats.hit_rate

    def test_warm_state_preserved_across_reset(self, tiny):
        """reset_all zeroes counters, not contents: the warmed caches
        must still be populated (that is what warmup is for)."""
        wl = self._wl()
        sim, _ = run_sim(BaselineEngine, tiny, wl, warmup=1999)
        assert len(sim.hierarchy.llc) > 0
        # one measured access at most touches the LLC once
        assert sim.hierarchy.llc.stats.accesses <= 2

    def test_ivleague_metadata_counters_reset(self, tiny):
        wl = self._wl()
        sim, result = run_sim(IvLeagueProEngine, tiny, wl, warmup=1999)
        # a single measured access per core can touch the LMM at most a
        # handful of times; the thousands of warmup probes must be gone
        assert sim.engine.lmm_cache.hits + sim.engine.lmm_cache.misses <= 8
        assert result.engine.nflb_hits <= 8
        assert all(b.hits + b.misses <= 8
                   for b in sim.engine._nflb.values())

    def test_invariants_hold_across_reset_boundary(self, tiny):
        """Dirty warmup blocks evicted during measurement must keep the
        ledgers balanced on both sides of the reset."""
        wl = self._wl(3000)
        sim, _ = run_sim(IvLeagueProEngine, tiny, wl, warmup=1500)
        assert sim.registry.check_invariants() == []
