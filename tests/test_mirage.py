"""Unit tests for the MIRAGE-style randomized cache."""

import numpy as np

from repro.mem.mirage import MirageCache, _mix, make_cache
from repro.sim.config import CacheConfig


def make(size=4096, assoc=8, seed=1):
    return MirageCache(CacheConfig(size, assoc, hit_latency=1), seed=seed)


class TestMirage:
    def test_miss_then_hit(self):
        c = make()
        assert not c.lookup(42)
        c.fill(42)
        assert c.lookup(42)

    def test_invalidate_both_skews(self):
        c = make()
        for a in range(200):
            c.fill(a)
        for a in range(200):
            if c.contains(a):
                assert c.invalidate(a)
                assert not c.contains(a)

    def test_keyed_mapping_differs_between_instances(self):
        a, b = make(seed=1), make(seed=2)
        addrs = list(range(512))
        map_a = [a._candidates(x)[0] for x in addrs]
        map_b = [b._candidates(x)[0] for x in addrs]
        assert map_a != map_b  # different keys -> different placement

    def test_mapping_spreads_sequential_addresses(self):
        c = make()
        sets = [c._candidates(a)[0] for a in range(1000)]
        # A keyed hash must not map sequential addresses sequentially.
        diffs = np.diff(sets)
        assert (diffs == 1).mean() < 0.25

    def test_capacity_respected(self):
        c = make(size=1024, assoc=4)
        for a in range(1000):
            c.fill(a)
        assert len(c) <= c.config.n_blocks

    def test_dirty_eviction_reported(self):
        c = make(size=256, assoc=2)
        evicted_dirty = 0
        for a in range(100):
            if c.fill(a, dirty=True) is not None:
                evicted_dirty += 1
        assert evicted_dirty > 0
        assert c.stats.writebacks == evicted_dirty

    def test_mix_is_deterministic(self):
        assert _mix(123, 456) == _mix(123, 456)
        assert _mix(123, 456) != _mix(124, 456)


class TestFactory:
    def test_make_cache_honours_randomized_flag(self):
        plain = make_cache(CacheConfig(1024, 4, 1), "p")
        rand = make_cache(CacheConfig(1024, 4, 1, randomized=True), "r")
        assert type(plain).__name__ == "Cache"
        assert isinstance(rand, MirageCache)
