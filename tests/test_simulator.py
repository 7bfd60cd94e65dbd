"""Integration tests: the multi-core simulator end to end."""

import pytest

from repro import ENGINES, BaselineEngine, IvLeagueProEngine
from repro.sim.simulator import Simulator, run_workload
from repro.workloads.generator import build_workload


def small_workload(n=1500, scale=0.03, seed=1):
    return build_workload("t", ["gcc", "x264"], n, seed=seed, scale=scale)


class TestSimulatorBasics:
    def test_run_produces_progress(self, tiny):
        r = run_workload(tiny, BaselineEngine, small_workload())
        assert len(r.cores) == 2
        for c in r.cores:
            assert c.instructions > 0
            assert c.cycles > 0
            assert 0 < c.ipc < 8

    def test_deterministic(self, tiny):
        r1 = run_workload(tiny, BaselineEngine, small_workload())
        r2 = run_workload(tiny, BaselineEngine, small_workload())
        assert r1.ipcs == r2.ipcs
        assert r1.engine.total_dram_accesses == r2.engine.total_dram_accesses

    def test_too_many_traces_rejected(self, tiny):
        wl = build_workload("t", ["gcc"] * 3, 100, scale=0.02)
        with pytest.raises(ValueError):
            run_workload(tiny, BaselineEngine, wl)

    def test_all_engines_complete(self, tiny):
        wl = small_workload()
        for cls in ENGINES.values():
            r = run_workload(tiny, cls, wl)
            assert all(c.ipc > 0 for c in r.cores)

    def test_warmup_excludes_stats(self, tiny):
        wl = small_workload(n=2000)
        cold = run_workload(tiny, BaselineEngine, wl)
        warm = run_workload(tiny, BaselineEngine, wl, warmup=1000)
        assert warm.cores[0].mem_accesses < cold.cores[0].mem_accesses
        assert warm.engine.page_allocs < cold.engine.page_allocs

    def test_churn_exercises_free_path(self, tiny):
        wl = build_workload("t", ["dedup", "ferret"], 4000,
                            seed=2, scale=0.05)
        r = run_workload(tiny, IvLeagueProEngine, wl)
        assert r.engine.page_frees > 0

    def test_per_core_path_keyed_by_core_index(self, tiny):
        r = run_workload(tiny, BaselineEngine, small_workload())
        assert set(r.per_core_path) == {0, 1}
        assert r.core_benchmarks == ["gcc", "x264"]
        assert r.path_by_benchmark().keys() == {"gcc", "x264"}

    def test_duplicate_benchmarks_not_overwritten(self, tiny):
        # two cores running the same benchmark in separate domains used
        # to collapse into one dict entry; they must aggregate
        wl = build_workload("t", ["gcc", "gcc"], 1500, seed=1, scale=0.03)
        r = run_workload(tiny, BaselineEngine, wl)
        assert len(r.per_core_path) == 2
        verifs = r.path_by_benchmark()["gcc"][0]
        assert verifs == sum(v for v, _ in r.per_core_path.values())
        assert verifs == r.engine.verifications

    def test_shared_domain_counted_once(self, tiny4):
        from repro.workloads.generator import threaded_workload
        wl = threaded_workload("tw", ["gcc", "x264"], 800,
                               threads_per_process=2, scale=0.03, seed=3)
        r = run_workload(tiny4, BaselineEngine, wl)
        # both threads of a process report the same domain record...
        assert r.per_core_path[0] == r.per_core_path[1]
        # ...but the per-benchmark aggregate counts the domain once
        agg = r.path_by_benchmark()
        assert agg["gcc"] == r.per_core_path[0]
        total = sum(v for v, _ in agg.values())
        assert total == r.engine.verifications

    def test_weighted_ipc_identity(self, tiny):
        r = run_workload(tiny, BaselineEngine, small_workload())
        assert r.weighted_ipc(r) == pytest.approx(1.0)


class TestFramePolicies:
    def test_policies_yield_different_baseline_paths(self, tiny):
        wl = small_workload(n=3000, scale=0.08)
        seq = run_workload(tiny, BaselineEngine, wl,
                           frame_policy="sequential")
        rand = run_workload(tiny, BaselineEngine, wl,
                            frame_policy="random")
        assert rand.engine.avg_path_length > seq.engine.avg_path_length

    def test_ivleague_path_insensitive_to_fragmentation(self, tiny):
        wl = small_workload(n=3000, scale=0.08)
        seq = run_workload(tiny, IvLeagueProEngine, wl,
                           frame_policy="sequential")
        rand = run_workload(tiny, IvLeagueProEngine, wl,
                            frame_policy="random")
        delta = abs(rand.engine.avg_path_length
                    - seq.engine.avg_path_length)
        assert delta < 0.35  # dynamic slot packing ignores placement


class TestSharedStateIsolation:
    def test_ivleague_engine_isolates_domains(self, tiny):
        wl = small_workload()
        engine = IvLeagueProEngine(tiny)
        sim = Simulator(tiny, engine)
        sim.run(wl)
        tl1 = set(engine.pool.treelings_of(1))
        tl2 = set(engine.pool.treelings_of(2))
        assert tl1.isdisjoint(tl2)

    def test_slot_pfn_consistency_after_run(self, tiny):
        wl = build_workload("t", ["dedup", "vips"], 3000, seed=4,
                            scale=0.05)
        engine = IvLeagueProEngine(tiny)
        Simulator(tiny, engine).run(wl)
        for slot, pfn in engine._slot_pfn.items():
            assert engine.leafmap.get(pfn) == slot
        for slot in engine._slot_pfn:
            assert slot not in engine._parent_slots


class TestThreadGroups:
    """Paper Section IX: threads of one process share an IV domain."""

    def test_threaded_workload_shares_domains(self, tiny4):
        from repro.workloads.generator import threaded_workload
        wl = threaded_workload("tw", ["gcc", "x264"], 800,
                               threads_per_process=2, scale=0.03, seed=3)
        assert wl.domains == (1, 1, 2, 2)
        engine = IvLeagueProEngine(tiny4)
        Simulator(tiny4, engine).run(wl)
        # exactly two domains exist, each owning disjoint TreeLings
        tl1 = set(engine.pool.treelings_of(1))
        tl2 = set(engine.pool.treelings_of(2))
        assert tl1 and tl2 and tl1.isdisjoint(tl2)
        assert engine.pool.live_domains == 2

    def test_domain_mapping_validated(self):
        from repro.workloads.generator import WorkloadSpec
        from repro.workloads.generator import generate_trace
        t = generate_trace("x264", 100, seed=1)
        with pytest.raises(ValueError):
            WorkloadSpec("bad", [t, t], domains=[1])

    def test_default_one_domain_per_core(self, tiny):
        wl = small_workload()
        assert wl.domain_of(0) == 1 and wl.domain_of(1) == 2


class TestWarmupGuard:
    """``warmup >= len(trace)`` used to leave a core with
    ``warmup_clock`` equal to its final clock: cycles == 0 and zero
    instructions, silently inflating weighted-IPC aggregates."""

    def test_warmup_consuming_whole_trace_rejected(self, tiny):
        wl = small_workload(n=500)
        with pytest.raises(ValueError, match="warmup"):
            run_workload(tiny, BaselineEngine, wl, warmup=500)

    def test_warmup_beyond_trace_rejected(self, tiny):
        wl = small_workload(n=500)
        with pytest.raises(ValueError, match="warmup"):
            run_workload(tiny, BaselineEngine, wl, warmup=10_000)

    def test_warmup_one_short_of_trace_still_measures(self, tiny):
        wl = small_workload(n=500)
        r = run_workload(tiny, BaselineEngine, wl, warmup=499)
        for c in r.cores:
            assert c.mem_accesses == 1
            assert c.cycles > 0


class TestFaultWalkExclusivity:
    """Exactly one of {page fault, TLB walk} is charged per first-touch
    pair: the fault path fills the TLB (simulator.py ``_alloc_page``),
    so the access right after a fault must not also pay a walk."""

    @staticmethod
    def _pair_workload(n_pages=8, repeats=4):
        """Touch each page ``repeats`` times back-to-back: any fault
        that failed to fill the TLB would charge a walk on the very
        next access to the same page."""
        import numpy as np

        from repro.workloads.generator import CoreTrace, WorkloadSpec
        n = n_pages * repeats
        vpage = np.repeat(np.arange(n_pages, dtype=np.int64), repeats)
        trace = CoreTrace(
            benchmark="synthetic", footprint=n_pages, vpage=vpage,
            block=np.zeros(n, dtype=np.int64),
            is_write=np.zeros(n, dtype=bool),
            gap=np.ones(n, dtype=np.int64),
            churn_every=0, churn_pages=0)
        return WorkloadSpec("first-touch-pairs", [trace])

    def test_fault_fills_tlb_no_walk_on_next_access(self, tiny):
        from repro.sim.simulator import Simulator
        sim = Simulator(tiny, BaselineEngine(tiny))
        sim.run(self._pair_workload())
        faults = sim.hists.get("page_fault").count
        walks = sim.hists.get("tlb_walk").count
        assert faults == 8          # one per distinct page
        assert walks == 0           # never a walk on a fresh TLB fill
        assert sim.tlb.stats.misses == 0

    def test_walks_only_after_tlb_eviction(self, tiny):
        """With a footprint beyond TLB reach, walks appear -- but only
        on *re*-touches: first touches still charge exactly a fault."""
        import numpy as np

        from repro.sim.simulator import Simulator
        from repro.workloads.generator import CoreTrace, WorkloadSpec
        n_pages = tiny.tlb_entries * 4
        vpage = np.concatenate([
            np.arange(n_pages, dtype=np.int64),    # first touches
            np.arange(n_pages, dtype=np.int64),    # re-touches
        ])
        n = len(vpage)
        trace = CoreTrace(
            benchmark="synthetic", footprint=n_pages, vpage=vpage,
            block=np.zeros(n, dtype=np.int64),
            is_write=np.zeros(n, dtype=bool),
            gap=np.ones(n, dtype=np.int64),
            churn_every=0, churn_pages=0)
        sim = Simulator(tiny, BaselineEngine(tiny))
        sim.run(WorkloadSpec("tlb-thrash", [trace]))
        faults = sim.hists.get("page_fault").count
        walks = sim.hists.get("tlb_walk").count
        assert faults == n_pages
        assert walks > 0
        # every access is charged exactly one of {fault, walk, TLB hit}
        assert faults + walks + sim.tlb.stats.hits == n
