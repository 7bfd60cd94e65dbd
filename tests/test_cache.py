"""Unit tests for the set-associative cache model."""

import pytest

from repro.mem.cache import Cache
from repro.sim.config import CacheConfig


def make(size=1024, assoc=4, block=64):
    return Cache(CacheConfig(size, assoc, hit_latency=1, block_bytes=block))


class TestBasics:
    def test_miss_then_hit(self):
        c = make()
        assert not c.lookup(5)
        c.fill(5)
        assert c.lookup(5)

    def test_stats_track_hits_and_misses(self):
        c = make()
        c.lookup(1)
        c.fill(1)
        c.lookup(1)
        assert c.stats.misses == 1
        assert c.stats.hits == 1
        assert c.stats.hit_rate == 0.5

    def test_distinct_addresses_do_not_alias(self):
        c = make()
        c.fill(3)
        assert not c.lookup(3 + c.n_sets * 1000 + 1)

    def test_len_counts_blocks(self):
        c = make()
        for a in range(10):
            c.fill(a)
        assert len(c) == 10

    def test_invalidate(self):
        c = make()
        c.fill(9)
        assert c.invalidate(9)
        assert not c.contains(9)
        assert not c.invalidate(9)

    def test_zero_assoc_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig(1024, 0, hit_latency=1))


class TestEviction:
    def test_lru_eviction_order(self):
        c = make(size=4 * 64, assoc=4)  # one set
        for a in range(4):
            c.fill(a * c.n_sets, dirty=True)  # all map to set 0
        c.lookup(0)  # make address 0 MRU
        assert c.fill(4 * c.n_sets) == 1 * c.n_sets  # LRU, not the touched 0
        assert c.contains(0)

    def test_dirty_eviction_reported(self):
        c = make(size=2 * 64, assoc=2)
        c.fill(0, dirty=True)
        c.fill(c.n_sets)
        assert c.fill(2 * c.n_sets) == 0
        assert c.stats.writebacks == 1

    def test_clean_eviction_counted_not_reported(self):
        c = make(size=2 * 64, assoc=2)
        c.fill(0)
        c.fill(c.n_sets)
        assert c.fill(2 * c.n_sets) is None
        assert not c.contains(0)
        assert (c.stats.evictions, c.stats.writebacks) == (1, 0)

    def test_write_lookup_sets_dirty(self):
        c = make(size=2 * 64, assoc=2)
        c.fill(0)
        c.lookup(0, is_write=True)
        c.fill(c.n_sets)
        assert c.fill(2 * c.n_sets) == 0

    def test_refill_merges_dirty_bit(self):
        c = make()
        c.fill(7)
        assert c.fill(7, dirty=True) is None
        c2 = make(size=2 * 64, assoc=2)
        c2.fill(0, dirty=True)
        c2.fill(0)  # re-fill clean must not clear dirty
        c2.fill(c2.n_sets)
        assert c2.fill(2 * c2.n_sets) == 0

    def test_flush_empties_and_counts_dirty(self):
        c = make()
        c.fill(1)
        c.fill(2, dirty=True)
        c.lookup(3)
        c.fill(3)
        c.lookup(3, is_write=True)
        assert c.flush() == 2
        assert len(c) == 0
        assert c.flush() == 0
