"""Tests for LMM, domain controller, hotpage tracker, bit-vector
allocators."""

import pytest

from repro.core.bitvector import BitVectorAllocator
from repro.core.domain import (DomainLimitExceeded, IVDomainController,
                               TreeLingStarvation)
from repro.core.hotpage import HotpageTracker
from repro.core.lmm import LeafMap, LMMCache


class TestLMMCache:
    def test_insert_lookup(self):
        c = LMMCache(64, assoc=4)
        c.insert(10, 999)
        assert c.lookup(10) == 999
        assert c.hits == 1

    def test_capacity_eviction(self):
        c = LMMCache(16, assoc=4)
        for pfn in range(0, 400, 4):  # alias into few sets
            c.insert(pfn, pfn)
        present = sum(1 for pfn in range(0, 400, 4)
                      if c.lookup(pfn) is not None)
        assert present <= 16

    def test_invalidate(self):
        c = LMMCache(16, assoc=4)
        c.insert(3, 4)
        assert c.invalidate(3)
        assert c.lookup(3) is None

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LMMCache(10, assoc=4)


class TestLeafMap:
    def test_set_get_pop(self):
        m = LeafMap()
        m.set(1, 100)
        assert m.get(1) == 100
        assert 1 in m
        assert m.pop(1) == 100
        assert 1 not in m

    def test_stale_lifecycle(self):
        m = LeafMap()
        m.set(1, 100)
        m.set(1, 200, stale=True)
        assert m.is_stale(1)
        m.clear_stale(1)
        assert not m.is_stale(1)

    def test_pte_blocks_coalesce_neighbours(self):
        m = LeafMap()
        assert m.pte_block_addr(0) == m.pte_block_addr(3)
        assert m.pte_block_addr(0) != m.pte_block_addr(4)


class TestDomainController:
    def test_assign_and_release(self):
        dc = IVDomainController(4)
        dc.create_domain(1)
        t = dc.assign_treeling(1)
        assert dc.owner_of(t) == 1
        assert dc.unassigned_count == 3
        returned = dc.destroy_domain(1)
        assert returned == [t]
        assert dc.unassigned_count == 4

    def test_starvation(self):
        dc = IVDomainController(2)
        dc.create_domain(1)
        dc.assign_treeling(1)
        dc.assign_treeling(1)
        with pytest.raises(TreeLingStarvation):
            dc.assign_treeling(1)

    def test_fifo_reuse_order(self):
        dc = IVDomainController(3)
        dc.create_domain(1)
        t0 = dc.assign_treeling(1)
        dc.destroy_domain(1)
        dc.create_domain(2)
        assert dc.assign_treeling(2) != t0  # FIFO: released goes to back

    def test_domain_limit(self):
        dc = IVDomainController(8, max_domains=2)
        dc.create_domain(1)
        dc.create_domain(2)
        with pytest.raises(DomainLimitExceeded):
            dc.create_domain(3)

    def test_duplicate_domain_rejected(self):
        dc = IVDomainController(2)
        dc.create_domain(1)
        with pytest.raises(ValueError):
            dc.create_domain(1)


class TestHotpageTracker:
    def make(self, entries=8, threshold=2, interval=100):
        return HotpageTracker(entries, counter_max=255,
                              threshold=threshold, clear_interval=interval)

    def test_sustained_page_promotes(self):
        t = self.make(interval=10)
        promoted = []
        for _ in range(40):
            promoted += t.access(7).promote
        assert 7 in promoted
        assert t.is_hot(7)

    def test_one_burst_scan_page_never_promotes(self):
        """A page hammered inside one interval only must be filtered by
        the two-interval confirmation rule."""
        t = self.make(interval=100)
        promoted = []
        for _ in range(50):
            promoted += t.access(42).promote
        for i in range(200):
            promoted += t.access(1000 + i).promote
        assert 42 not in promoted

    def test_replacement_prefers_cold_non_hot(self):
        t = self.make(entries=2, interval=4)
        for _ in range(20):
            t.access(1)          # promoted hot
        t.access(2)
        t.access(3)              # table full: must evict 2, not hot 1
        assert t.count_of(1) > 0

    def test_cooled_page_demotes_after_two_intervals(self):
        t = self.make(interval=5)
        demoted = []
        for _ in range(20):
            demoted += t.access(7).demote
        assert t.is_hot(7)
        for i in range(30):   # stop touching 7
            demoted += t.access(100 + i % 3).demote
        assert 7 in demoted
        assert not t.is_hot(7)

    def test_forget(self):
        t = self.make(interval=5)
        for _ in range(20):
            t.access(7)
        t.forget(7)
        assert not t.is_hot(7)
        assert t.count_of(7) == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HotpageTracker(4, counter_max=3, threshold=10, clear_interval=5)

    def test_storage_bits_scale_with_entries(self):
        small = self.make(entries=8).storage_bits
        large = self.make(entries=16).storage_bits
        assert large == 2 * small


class TestBitVector:
    def test_v1_alloc_free_in_active_treeling(self):
        bv = BitVectorAllocator(slots_per_node=8, cross_treeling=False)
        bv.append_treeling(0, [10, 11])
        op = bv.alloc()
        assert op.ok and op.node_global == 10
        r = bv.free(op.node_global, op.slot)
        assert not r.lost

    def test_v1_loses_cross_treeling_frees(self):
        bv = BitVectorAllocator(slots_per_node=8, cross_treeling=False)
        bv.append_treeling(0, [10])
        first = bv.alloc()
        bv.append_treeling(1, [20])
        r = bv.free(first.node_global, first.slot)
        assert r.lost
        assert bv.lost_frees == 1

    def test_v2_reclaims_across_treelings(self):
        bv = BitVectorAllocator(slots_per_node=8, cross_treeling=True)
        bv.append_treeling(0, [10])
        first = bv.alloc()
        for _ in range(7):
            bv.alloc()
        bv.append_treeling(1, [20])
        bv.free(first.node_global, first.slot)
        op = bv.alloc()
        assert (op.node_global, op.slot) == (first.node_global, first.slot)

    def test_v2_scan_cost_grows_with_occupancy(self):
        bv = BitVectorAllocator(slots_per_node=8, cross_treeling=True)
        bv.append_treeling(0, list(range(64)))
        first = bv.alloc()
        costs = [bv.alloc().bits_scanned for _ in range(300)]
        assert costs[-1] > costs[0]

    def test_exhaustion_requests_treeling(self):
        bv = BitVectorAllocator(slots_per_node=8, cross_treeling=True)
        bv.append_treeling(0, [1])
        for _ in range(8):
            assert bv.alloc().ok
        assert bv.alloc().needs_treeling

    def test_double_free_detected(self):
        bv = BitVectorAllocator(slots_per_node=8, cross_treeling=True)
        bv.append_treeling(0, [1])
        op = bv.alloc()
        bv.free(op.node_global, op.slot)
        with pytest.raises(ValueError):
            bv.free(op.node_global, op.slot)
