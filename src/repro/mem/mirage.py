"""MIRAGE-style randomized cache.

The paper's baseline integrates MIRAGE (Saileshwar & Qureshi, USENIX
Security'21) in the shared LLC and the metadata caches to rule out
conflict-based (Prime+Probe) attacks, leaving only the *metadata sharing*
channel that IvLeague targets.  We model the two properties that matter
for our experiments:

* the address-to-set mapping is keyed and skewed (two hash candidates,
  power-of-two-choices placement), so an attacker cannot build eviction
  sets from addresses; and
* replacement is *global random* among the candidate frames, so eviction
  timing carries no deterministic set information.

Functionally it remains a presence/eviction cache compatible with
:class:`repro.mem.cache.Cache` so engines can use either interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.cache import Cache
from repro.sim.config import CacheConfig
from repro.sim.stats import CacheStats


def _mix(value: int, key: int) -> int:
    """Cheap keyed integer hash (splitmix64 finaliser)."""
    z = (value + key) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _skews(addr: int, key0: int, key1: int, n_sets: int) -> tuple[int, int]:
    """Both keyed skew indices of ``addr`` (two splitmix64s)."""
    return _mix(addr, key0) % n_sets, _mix(addr, key1) % n_sets


def _memoised_candidates(memo: dict, key0: int, key1: int, n_sets: int):
    """Return ``candidates(addr)``: both skew indices of ``addr``,
    memoised in ``memo``.  The keyed hashes are pure functions of the
    address and the working set is bounded by the workload footprint,
    so the double splitmix64 (once the hottest pure computation in a
    cold cell) runs once per address."""
    memo_get = memo.get
    def candidates(addr: int) -> tuple[int, int]:
        cand = memo_get(addr)
        if cand is None:
            cand = memo[addr] = _skews(addr, key0, key1, n_sets)
        return cand
    return candidates


@dataclass
class MirageStats(CacheStats):
    """Cache counters plus the power-of-two-choices placement balance
    (how often each skew won); the spread is a cheap health check on
    the keyed hashes."""

    skew0_fills: int = 0
    skew1_fills: int = 0


class MirageCache(Cache):
    """Skewed, keyed-index cache with random replacement.

    An address lives in exactly one of its two candidate sets, chosen at
    fill time by load (power of two choices) and found again by probing
    both.
    """

    Stats = MirageStats
    _refill_refreshes_lru = False

    def __init__(self, config: CacheConfig, name: str = "mirage",
                 seed: int = 0xC0FFEE) -> None:
        rng = np.random.default_rng(seed)
        key0 = int(rng.integers(1, 2**63))
        key1 = int(rng.integers(1, 2**63))
        self._cand: dict[int, tuple[int, int]] = {}
        self._candidates = _memoised_candidates(self._cand, key0, key1,
                                                config.n_sets)
        super().__init__(config, name)

    def prime_candidates(self, addrs) -> None:
        """Memoize the skew candidates of every address in ``addrs``
        that is not memoized yet (a verify walk's path, once per memo
        entry).

        A walk misses only a handful of addresses, for which the plain
        splitmix64 is cheaper than setting up a numpy batch.
        """
        cand = self._cand
        candidates = self._candidates
        for addr in addrs:
            if addr not in cand:
                candidates(addr)

    def _holder(self, addr: int):
        c0, c1 = self._candidates(addr)
        sets = self._sets
        if addr in sets[c0]:
            return sets[c0]
        if addr in sets[c1]:
            return sets[c1]
        return None

    def bind_fast_probe(self):
        """Probe closure over the memoized skew candidates; same contract
        as :meth:`repro.mem.cache.Cache.bind_fast_probe`."""
        sets = self._sets
        cand_get = self._cand.get
        candidates = self._candidates
        stats = self.stats
        def probe(addr: int, is_write: bool = False) -> bool:
            cand = cand_get(addr)
            if cand is None:
                cand = candidates(addr)
            s = sets[cand[0]]
            if addr not in s:
                s = sets[cand[1]]
                if addr not in s:
                    stats.misses += 1
                    return False
            if is_write:
                s[addr] = True
            s.move_to_end(addr)
            stats.hits += 1
            return True
        return probe

    def bind_fast_fill(self, tracer):
        """Known-absent fill closure: power-of-two-choices placement into
        the emptier skew, skew counters, LRU victim inside the chosen
        set; returns the dirty victim address or None, like
        ``Cache.bind_fast_fill``.  With ``tracer`` enabled it emits the
        ``cache.place`` skew before the victim pick, then
        ``cache.evict``."""
        sets = self._sets
        cand_get = self._cand.get
        candidates = self._candidates
        assoc = self.assoc
        name = self.name
        stats = self.stats
        emit = tracer.instant if tracer.enabled else None
        def fill_absent(addr: int, dirty: bool = False):
            cand = cand_get(addr)
            if cand is None:
                cand = candidates(addr)
            s0 = sets[cand[0]]
            s1 = sets[cand[1]]
            if len(s0) <= len(s1):
                s = s0
                skew = 0
                stats.skew0_fills += 1
            else:
                s = s1
                skew = 1
                stats.skew1_fills += 1
            if emit is not None:
                # MIRAGE's load-balanced placement depends on global set
                # occupancy, i.e. on *other* domains' traffic -- exactly
                # the coupling the leakage checker needs to see, so the
                # chosen skew is an observable of its own.
                emit("cache", "place", cache=name, addr=addr, skew=skew)
            wb = None
            if len(s) >= assoc:
                # Reuse-aware (LRU) victim inside the randomized set:
                # MIRAGE's global eviction is security-motivated;
                # performance-wise it tracks an LRU-class policy, which
                # is what matters here.
                vaddr, vdirty = s.popitem(last=False)
                stats.evictions += 1
                if vdirty:
                    stats.writebacks += 1
                    wb = vaddr
                if emit is not None:
                    emit("cache", "evict", cache=name, addr=vaddr,
                         dirty=vdirty)
            s[addr] = dirty
            return wb
        return fill_absent

    def register_stats(self, registry, name: str | None = None) -> None:
        """Register the base counters with the skew placement split, and
        pin them down with a conservation law (every eviction was caused
        by a placement into some skew)."""
        super().register_stats(registry, name)
        name = name or self.name
        stats = self.stats
        registry.add_bound(
            f"{name}-mirage-eviction-bound",
            f"{name}.evictions", lambda: stats.evictions,
            f"{name} skew0+skew1 fills",
            lambda: stats.skew0_fills + stats.skew1_fills)


def make_cache(config: CacheConfig, name: str, seed: int = 0) -> Cache:
    """Factory honouring ``config.randomized``."""
    if config.randomized:
        return MirageCache(config, name, seed=seed or 0xC0FFEE)
    return Cache(config, name)
