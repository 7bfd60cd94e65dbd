"""Tests for the secure-memory engines (Baseline, static partitioning,
IvLeague-Basic/-Invert/-Pro, BV ablation engines)."""

import pytest

from repro.core.bv_engine import IvLeagueBVv1Engine, IvLeagueBVv2Engine
from repro.core.invert import IvLeagueInvertEngine
from repro.core.ivleague import IvLeagueBasicEngine
from repro.core.pro import IvLeagueProEngine
from repro.experiments.parallel import resolve_engine
from repro.secure.engine import BaselineEngine
from repro.secure.static_partition import (NoFreePartition,
                                           PartitionOverflow,
                                           StaticPartitionEngine)
from repro.sim.trace import EventTracer

from tests.test_golden import ALL_NINE

IV_ENGINES = [IvLeagueBasicEngine, IvLeagueInvertEngine, IvLeagueProEngine]
ALL_ENGINES = [BaselineEngine] + IV_ENGINES


class TestBaseline:
    def test_read_returns_positive_latency(self, tiny):
        e = BaselineEngine(tiny)
        e.on_domain_start(1)
        lat = e.data_access(1, pfn=5, block_in_page=0, is_write=False,
                            now=0.0)
        assert lat > 0
        assert e.stats.data_reads == 1
        assert e.stats.verifications == 1

    def test_cached_counter_skips_verification(self, tiny):
        e = BaselineEngine(tiny)
        e.on_domain_start(1)
        e.data_access(1, 5, 0, False, 0.0)
        v = e.stats.verifications
        e.data_access(1, 5, 1, False, 1000.0)
        assert e.stats.verifications == v  # counter hit: no tree walk

    def test_path_length_bounded_by_height(self, tiny):
        e = BaselineEngine(tiny)
        e.on_domain_start(1)
        for pfn in range(0, 2000, 7):
            e.data_access(1, pfn, 0, False, float(pfn))
        assert 1.0 <= e.stats.avg_path_length <= e.geo.height

    def test_writeback_counts_metadata_write_traffic(self, tiny):
        e = BaselineEngine(tiny)
        e.on_domain_start(1)
        e.handle_writeback(1, 5, 0, 0.0)
        assert e.stats.dram_data_writes == 1

    def test_overflow_reencryption(self, tiny):
        from repro.secure.engine import OVERFLOW_WRITES_PER_PAGE
        e = BaselineEngine(tiny)
        e.on_domain_start(1)
        before = e.mc.traffic.data_reads
        for i in range(OVERFLOW_WRITES_PER_PAGE):
            e.handle_writeback(1, 5, i % 64, float(i))
        # re-encryption streamed the page through the crypto engine
        assert e.mc.traffic.data_reads > before

    def test_per_domain_path_recorded(self, tiny):
        e = BaselineEngine(tiny)
        e.on_domain_start(1)
        e.on_domain_start(2)
        e.data_access(1, 5, 0, False, 0.0)
        e.data_access(2, 900, 0, False, 10.0)
        assert e.domain_path[1][0] == 1
        assert e.domain_path[2][0] == 1


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_domain_lifecycle_is_traced(tiny, scheme):
    engine = resolve_engine(scheme)(tiny)
    tracer = EventTracer(limit=None)
    engine.set_tracer(tracer)
    engine.on_domain_start(1)
    engine.on_domain_end(1)
    assert [(e["cat"], e["name"], e["args"]["domain"])
            for e in tracer.events()] == [("domain", "start", 1),
                                          ("domain", "end", 1)]


class TestStaticPartition:
    def test_partition_assignment(self, tiny):
        e = StaticPartitionEngine(tiny, n_partitions=4)
        e.on_domain_start(1)
        e.on_domain_start(2)
        assert e.partition_of(1) != e.partition_of(2)

    def test_out_of_partition_access_rejected(self, tiny):
        e = StaticPartitionEngine(tiny, n_partitions=4)
        e.on_domain_start(1)
        lo, hi = e.frame_range(1)
        e.data_access(1, lo, 0, False, 0.0)       # inside: fine
        with pytest.raises(PartitionOverflow):
            e.data_access(1, hi, 0, False, 0.0)   # one past the end

    def test_access_into_another_partition_rejected_before_charging(
            self, tiny):
        """A domain's own access outside its chunk still raises, before
        any data, MAC or metadata traffic is charged."""
        e = StaticPartitionEngine(tiny, n_partitions=4)
        e.on_domain_start(1)
        e.on_domain_start(2)
        lo1, _ = e.frame_range(1)
        with pytest.raises(PartitionOverflow):
            e.data_access(2, lo1, 0, False, 0.0)
        assert e.stats.data_reads == 0
        assert e.mc.traffic.total == 0

    def test_late_writeback_walks_the_pages_own_partition(self, tiny):
        """A dirty block of a freed page is written back on behalf of
        whichever domain evicted it; the walk must cover the subtree of
        the partition holding the page, not raise."""
        e = StaticPartitionEngine(tiny, n_partitions=4)
        e.on_domain_start(1)
        e.on_domain_start(2)
        lo1, _ = e.frame_range(1)
        e.handle_writeback(2, lo1, 0, 0.0)
        assert e.stats.verifications == 1
        region = e.partition_of(1) + 1       # per-partition node region
        tree_blocks = list(e.tree_cache.blocks())
        assert tree_blocks
        assert {(addr >> 40) & 0xFF for addr in tree_blocks} == {region}

    def test_partitions_exhausted(self, tiny):
        e = StaticPartitionEngine(tiny, n_partitions=2)
        e.on_domain_start(1)
        e.on_domain_start(2)
        with pytest.raises(NoFreePartition):
            e.on_domain_start(3)

    def test_domain_end_releases_partition(self, tiny):
        e = StaticPartitionEngine(tiny, n_partitions=1)
        e.on_domain_start(1)
        e.on_domain_end(1)
        e.on_domain_start(2)  # must not raise

    def test_no_shared_nodes_across_partitions(self, tiny):
        e = StaticPartitionEngine(tiny, n_partitions=4)
        e.on_domain_start(1)
        e.on_domain_start(2)
        lo1, _ = e.frame_range(1)
        lo2, _ = e.frame_range(2)
        e.data_access(1, lo1, 0, False, 0.0)
        blocks_after_1 = set(e.tree_cache.blocks())
        e.data_access(2, lo2, 0, False, 100.0)
        new_blocks = set(e.tree_cache.blocks()) - blocks_after_1
        assert new_blocks.isdisjoint(blocks_after_1)


@pytest.mark.parametrize("engine_cls", IV_ENGINES)
class TestIvLeagueCommon:
    def test_page_lifecycle(self, tiny, engine_cls):
        e = engine_cls(tiny)
        e.on_domain_start(1)
        e.on_page_alloc(1, 5, 0.0)
        assert 5 in e.leafmap
        e.data_access(1, 5, 0, False, 10.0)
        e.on_page_free(1, 5, 20.0)
        assert 5 not in e.leafmap

    def test_alloc_attaches_treeling_on_demand(self, tiny, engine_cls):
        e = engine_cls(tiny)
        e.on_domain_start(1)
        per_tl = e.geometry.pages_per_treeling
        for pfn in range(per_tl + 1):
            e.on_page_alloc(1, pfn, float(pfn))
        assert len(e.pool.treelings_of(1)) >= 2

    def test_domains_never_share_tree_blocks(self, tiny, engine_cls):
        """The isolation property (paper Section VIII): verifications of
        different domains touch disjoint in-memory tree nodes."""
        e = engine_cls(tiny)
        e.on_domain_start(1)
        e.on_domain_start(2)
        for pfn in range(0, 40):
            e.on_page_alloc(1, pfn, 0.0)
        for pfn in range(100, 140):
            e.on_page_alloc(2, pfn, 0.0)
        tl1 = set(e.pool.treelings_of(1))
        tl2 = set(e.pool.treelings_of(2))
        assert tl1 and tl2 and tl1.isdisjoint(tl2)
        npt = e.geometry.nodes_per_treeling
        for pfn in list(range(0, 40)) + list(range(100, 140)):
            ref = e.geometry.decode_slot(e.leafmap.get(pfn))
            owner = 1 if pfn < 100 else 2
            assert ref.treeling in (tl1 if owner == 1 else tl2)

    def test_verification_path_bounded(self, tiny, engine_cls):
        e = engine_cls(tiny)
        e.on_domain_start(1)
        for pfn in range(300):
            e.on_page_alloc(1, pfn, 0.0)
        for pfn in range(300):
            e.data_access(1, pfn, 0, False, float(pfn) * 50)
        # +1 for the trusted terminator
        assert e.stats.avg_path_length <= e.geometry.height + 1

    def test_writeback_after_free_is_harmless(self, tiny, engine_cls):
        e = engine_cls(tiny)
        e.on_domain_start(1)
        e.on_page_alloc(1, 5, 0.0)
        e.on_page_free(1, 5, 1.0)
        e.handle_writeback(1, 5, 0, 2.0)  # must not raise

    def test_domain_end_returns_treelings(self, tiny, engine_cls):
        e = engine_cls(tiny)
        e.on_domain_start(1)
        e.on_page_alloc(1, 5, 0.0)
        free_before = e.pool.unassigned_count
        e.on_domain_end(1)
        assert e.pool.unassigned_count > free_before

    def test_lmm_miss_charged_once_then_cached(self, tiny, engine_cls):
        e = engine_cls(tiny)
        e.on_domain_start(1)
        e.on_page_alloc(1, 5, 0.0)
        e.lmm_cache.invalidate(5)
        e.data_access(1, 5, 0, False, 10.0)
        misses = e.stats.lmm_misses
        # counter now cached; force another verification via eviction
        e.counter_cache.invalidate(
            __import__("repro.mem.spaces", fromlist=["tag"]).tag(1, 5))
        e.data_access(1, 5, 1, False, 2000.0)
        assert e.stats.lmm_misses == misses  # second lookup hits


@pytest.mark.parametrize("engine_cls", IV_ENGINES + [IvLeagueBVv1Engine,
                                                     IvLeagueBVv2Engine])
def test_second_alloc_of_a_live_page_is_rejected(tiny, engine_cls):
    """Mapping a page that is live for another domain raises before any
    slot is allocated, so the first mapping survives and frees cleanly."""
    e = engine_cls(tiny)
    e.on_domain_start(2)
    e.on_domain_start(3)
    e.on_page_alloc(2, 100, 0.0)
    slot = e.leafmap.get(100)
    with pytest.raises(ValueError):
        e.on_page_alloc(3, 100, 1.0)
    assert e.leafmap.get(100) == slot
    assert e.lmm_cache.lookup(100) == slot
    assert e.pool.treelings_of(3) == []
    assert e.stats.page_allocs == 1
    e.on_page_free(2, 100, 2.0)
    assert 100 not in e.leafmap


class TestBasicSpecifics:
    def test_pages_map_to_leaf_level_only(self, tiny):
        e = IvLeagueBasicEngine(tiny)
        e.on_domain_start(1)
        for pfn in range(50):
            e.on_page_alloc(1, pfn, 0.0)
            assert e.geometry.decode_slot(e.leafmap.get(pfn)).level == 1

    def test_tree_cache_shrunk_by_locked_blocks(self, tiny):
        base = BaselineEngine(tiny)
        iv = IvLeagueBasicEngine(tiny)
        assert iv.tree_cache.config.size_bytes \
            < base.tree_cache.config.size_bytes
        assert iv.locked_tree_blocks > 0


class TestInvertSpecifics:
    def test_allocation_starts_at_the_top(self, tiny):
        e = IvLeagueInvertEngine(tiny)
        e.on_domain_start(1)
        e.on_page_alloc(1, 0, 0.0)
        ref = e.geometry.decode_slot(e.leafmap.get(0))
        assert ref.level == e.geometry.height

    def test_conversion_relocates_and_marks_stale(self, tiny):
        e = IvLeagueInvertEngine(tiny)
        e.on_domain_start(1)
        arity = e.geometry.arity
        # fill the root node, then one more alloc descends a level
        for pfn in range(arity + 1):
            e.on_page_alloc(1, pfn, 0.0)
        assert e.stats.conversions >= 1
        relocated = [p for p in range(arity) if e.leafmap.is_stale(p)]
        assert relocated
        # relocated page now lives one level below the root
        ref = e.geometry.decode_slot(e.leafmap.get(relocated[0]))
        assert ref.level == e.geometry.height - 1

    def test_parent_slots_never_alias_pages(self, tiny):
        e = IvLeagueInvertEngine(tiny)
        e.on_domain_start(1)
        n = e.geometry.pages_per_treeling + 50
        for pfn in range(n):
            e.on_page_alloc(1, pfn, 0.0)
        page_slots = {e.leafmap.get(p) for p in range(n)}
        assert page_slots.isdisjoint(e._parent_slots)
        assert len(page_slots) == n  # no two pages share a slot

    def test_stale_fixup_clears_on_access(self, tiny):
        e = IvLeagueInvertEngine(tiny)
        e.on_domain_start(1)
        for pfn in range(e.geometry.arity + 1):
            e.on_page_alloc(1, pfn, 0.0)
        stale = [p for p in range(e.geometry.arity) if e.leafmap.is_stale(p)]
        e.data_access(1, stale[0], 0, False, 100.0)
        assert not e.leafmap.is_stale(stale[0])


class TestProSpecifics:
    def fill_and_hammer(self, e, n_pages=64, rounds=400):
        e.on_domain_start(1)
        for pfn in range(n_pages):
            e.on_page_alloc(1, pfn, 0.0)
        now = 0.0
        for i in range(rounds):
            pfn = i % 4  # four scorching pages
            ctr = __import__("repro.mem.spaces", fromlist=["tag"]).tag(1, pfn)
            e.counter_cache.invalidate(ctr)
            e.data_access(1, pfn, i % 64, False, now)
            now += 200.0
        return e

    def test_hot_pages_get_promoted(self, tiny):
        e = self.fill_and_hammer(IvLeagueProEngine(tiny))
        assert e.stats.hot_migrations > 0
        hot = e._hot_pages[1]
        assert hot & {0, 1, 2, 3}

    def test_promoted_page_maps_into_hot_subtree(self, tiny):
        e = self.fill_and_hammer(IvLeagueProEngine(tiny))
        geo = e.geometry
        for pfn in e._hot_pages[1]:
            ref = geo.decode_slot(e.leafmap.get(pfn))
            local = geo.local_node(ref.level, ref.node_index)
            assert e._is_hot_local(local)
            assert ref.level >= 2  # last level discarded in the hot region

    def test_hot_page_free_releases_hot_slot(self, tiny):
        e = self.fill_and_hammer(IvLeagueProEngine(tiny))
        hot = next(iter(e._hot_pages[1]))
        e.on_page_free(1, hot, 1e9)
        assert hot not in e._hot_pages[1]

    def test_regular_chain_excludes_hot_subtree(self, tiny):
        e = IvLeagueProEngine(tiny)
        e.on_domain_start(1)
        n = e.geometry.pages_per_treeling * 2
        for pfn in range(n):
            try:
                e.on_page_alloc(1, pfn, 0.0)
            except Exception:
                break
        for pfn in range(min(n, len(e.leafmap.slots))):
            if pfn not in e.leafmap or pfn in e._hot_pages[1]:
                continue
            ref = e.geometry.decode_slot(e.leafmap.get(pfn))
            local = e.geometry.local_node(ref.level, ref.node_index)
            assert not e._is_hot_local(local)


ALL_SCHEMES = ["baseline", "vault", "sgx-counter-tree", "static-partition",
               "ivleague-basic", "ivleague-invert", "ivleague-pro",
               "ivleague-bv1", "ivleague-bv2"]


class TestOverflowCharging:
    """Minor-counter overflow must charge, in *every* engine: the
    re-encrypt data burst, the counter write-back, and the dirty
    tree-path update (one extra ``_verify`` call)."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_overflow_charges_metadata_and_tree_update(self, tiny, scheme):
        from repro.experiments.parallel import resolve_engine

        e = resolve_engine(scheme)(tiny)
        e.overflow_writes_per_page = 4
        e.on_domain_start(1)
        frame_range = getattr(e, "frame_range", None)
        pfn = frame_range(1)[0] if frame_range else 5
        e.on_page_alloc(1, pfn, 0.0)
        for i in range(3):
            e.handle_writeback(1, pfn, i, float(i) * 10)
        assert e.stats.page_reencrypts == 0
        data_reads = e.stats.dram_data_reads
        meta_writes = e.stats.dram_metadata_writes
        ctr_accesses = e.stats.counter_hits + e.stats.counter_misses
        e.handle_writeback(1, pfn, 3, 100.0)   # fourth write: overflow
        assert e.stats.page_reencrypts == 1
        # the page streamed through the crypto engine
        assert e.stats.dram_data_reads > data_reads
        # the changed counter block was written back
        assert e.stats.dram_metadata_writes >= meta_writes + 1
        # the write-back's verify plus the overflow's dirty tree update
        assert (e.stats.counter_hits + e.stats.counter_misses
                == ctr_accesses + 2)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_overflow_resets_page_write_count(self, tiny, scheme):
        from repro.experiments.parallel import resolve_engine

        e = resolve_engine(scheme)(tiny)
        e.overflow_writes_per_page = 3
        e.on_domain_start(1)
        frame_range = getattr(e, "frame_range", None)
        pfn = frame_range(1)[0] if frame_range else 5
        e.on_page_alloc(1, pfn, 0.0)
        for i in range(9):
            e.handle_writeback(1, pfn, i % 64, float(i) * 10)
        assert e.stats.page_reencrypts == 3


class TestBVEngines:
    def test_bv1_runs_small_footprint(self, tiny):
        e = IvLeagueBVv1Engine(tiny)
        e.on_domain_start(1)
        for pfn in range(20):
            e.on_page_alloc(1, pfn, 0.0)
        e.data_access(1, 3, 0, False, 10.0)

    def test_bv1_leaks_cross_treeling_frees(self, tiny):
        e = IvLeagueBVv1Engine(tiny)
        e.on_domain_start(1)
        per_tl = e.geometry.pages_per_treeling
        for pfn in range(per_tl + 1):
            e.on_page_alloc(1, pfn, 0.0)
        e.on_page_free(1, 0, 1.0)   # page 0 is in the first TreeLing
        assert e.lost_frees() == 1

    def test_bv2_allocation_cost_exceeds_nfl(self, tiny):
        nfl = IvLeagueBasicEngine(tiny)
        bv2 = IvLeagueBVv2Engine(tiny)
        for e in (nfl, bv2):
            e.on_domain_start(1)
        lat_nfl = sum(nfl.on_page_alloc(1, p, 0.0) for p in range(500))
        lat_bv2 = sum(bv2.on_page_alloc(1, p, 0.0) for p in range(500))
        assert lat_bv2 > lat_nfl
