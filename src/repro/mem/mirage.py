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

from typing import Optional

import numpy as np

from repro.mem.cache import Cache, Eviction
from repro.sim.config import CacheConfig


def _mix(value: int, key: int) -> int:
    """Cheap keyed integer hash (splitmix64 finaliser)."""
    z = (value + key) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class MirageCache(Cache):
    """Skewed, keyed-index cache with random replacement."""

    def __init__(self, config: CacheConfig, name: str = "mirage",
                 seed: int = 0xC0FFEE) -> None:
        super().__init__(config, name)
        self._rng = np.random.default_rng(seed)
        self._key0 = int(self._rng.integers(1, 2**63))
        self._key1 = int(self._rng.integers(1, 2**63))
        # The keyed hashes are pure functions of the address, and the
        # address working set is bounded by the workload footprint, so
        # both skew indices are memoized (the double splitmix64 was the
        # single hottest pure computation in a cold cell).
        self._cand: dict[int, tuple[int, int]] = {}
        # Power-of-two-choices placement balance (how often each skew
        # won); the spread is a cheap health check on the keyed hashes.
        self.skew0_fills = 0
        self.skew1_fills = 0

    # Two candidate skews; an address lives in exactly one set, chosen at
    # fill time by load (power of two choices), remembered via lookup in
    # both candidates.
    def _skews(self, addr: int) -> tuple[int, int]:
        """Both keyed skew indices of ``addr`` (two splitmix64s)."""
        return (_mix(addr, self._key0) % self.n_sets,
                _mix(addr, self._key1) % self.n_sets)

    def _candidates(self, addr: int) -> tuple[int, int]:
        cand = self._cand.get(addr)
        if cand is None:
            cand = self._cand[addr] = self._skews(addr)
        return cand

    def prime_candidates(self, addrs) -> None:
        """Memoize the skew candidates of every address in ``addrs``
        that is not memoized yet (a verify walk's path, once per memo
        entry).

        A walk misses only a handful of addresses, for which the plain
        splitmix64 of :meth:`_candidates` is cheaper than setting up a
        numpy batch.
        """
        cand = self._cand
        for addr in addrs:
            if addr not in cand:
                cand[addr] = self._skews(addr)

    def set_index(self, addr: int) -> int:  # pragma: no cover - unused path
        return self._candidates(addr)[0]

    def contains(self, addr: int) -> bool:
        c0, c1 = self._candidates(addr)
        return addr in self._sets[c0] or addr in self._sets[c1]

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        cand = self._cand.get(addr)
        if cand is None:
            cand = self._candidates(addr)
        sets = self._sets
        s = sets[cand[0]]
        entry = s.get(addr)
        if entry is None:
            s = sets[cand[1]]
            entry = s.get(addr)
        if entry is not None:
            if is_write:
                entry[0] = True
            s.move_to_end(addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False,
             locked: bool = False) -> Optional[Eviction]:
        c0, c1 = self._candidates(addr)
        for idx in (c0, c1):
            entry = self._sets[idx].get(addr)
            if entry is not None:
                entry[0] = entry[0] or dirty
                if locked and not entry[1]:
                    entry[1] = True
                    self._locked += 1
                return None
        # Power-of-two-choices placement into the emptier skew.
        if len(self._sets[c0]) <= len(self._sets[c1]):
            idx = c0
            skew = 0
            self.skew0_fills += 1
        else:
            idx = c1
            skew = 1
            self.skew1_fills += 1
        if self.tracer.enabled:
            # MIRAGE's load-balanced placement depends on global set
            # occupancy, i.e. on *other* domains' traffic -- exactly the
            # coupling the leakage checker needs to see, so the chosen
            # skew is an observable of its own.
            self.tracer.instant("cache", "place", cache=self.name,
                                addr=addr, skew=skew)
        s = self._sets[idx]
        victim = None
        if len(s) >= self.assoc:
            # Reuse-aware (LRU) victim inside the randomized set: MIRAGE's
            # global eviction is security-motivated; performance-wise it
            # tracks an LRU-class policy, which is what matters here.
            if self._locked:
                vaddr = next((a for a, e in s.items() if not e[1]), None)
                if vaddr is None:
                    return None
                vdirty = s.pop(vaddr)[0]
            else:
                vaddr, ventry = s.popitem(last=False)
                vdirty = ventry[0]
            self.evictions += 1
            if vdirty:
                self.writebacks += 1
            if self.tracer.enabled:
                self.tracer.instant("cache", "evict", cache=self.name,
                                    addr=vaddr, dirty=vdirty)
            victim = Eviction(vaddr, vdirty)
        if locked:
            self._locked += 1
        s[addr] = [dirty, locked]
        return victim

    def touch_dirty(self, addr: int) -> bool:
        """Single-probe contains+dirty-lookup, mirroring
        :meth:`repro.mem.cache.Cache.touch_dirty` over both skews."""
        cand = self._cand.get(addr)
        if cand is None:
            cand = self._candidates(addr)
        sets = self._sets
        s = sets[cand[0]]
        entry = s.get(addr)
        if entry is None:
            s = sets[cand[1]]
            entry = s.get(addr)
            if entry is None:
                return False
        s.move_to_end(addr)
        entry[0] = True
        self.stats.hits += 1
        return True

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
            entry = s.get(addr)
            if entry is None:
                s = sets[cand[1]]
                entry = s.get(addr)
                if entry is None:
                    stats.misses += 1
                    return False
            if is_write:
                entry[0] = True
            s.move_to_end(addr)
            stats.hits += 1
            return True
        return probe

    def bind_fast_fill(self, tracer):
        """Known-absent fill closure (power-of-two-choices placement,
        skew counters, LRU victim) returning the dirty victim address or
        None; same contract as ``Cache.bind_fast_fill``.  With ``tracer``
        enabled it emits ``fill``'s events in ``fill``'s order: the
        ``cache.place`` skew before the victim pick (even when a fully
        locked set then drops the fill), then ``cache.evict``."""
        sets = self._sets
        cand_get = self._cand.get
        candidates = self._candidates
        name = self.name
        emit = tracer.instant if tracer.enabled else None
        cache = self
        def fill_absent(addr: int, dirty: bool = False):
            cand = cand_get(addr)
            if cand is None:
                cand = candidates(addr)
            s0 = sets[cand[0]]
            s1 = sets[cand[1]]
            if len(s0) <= len(s1):
                s = s0
                skew = 0
                cache.skew0_fills += 1
            else:
                s = s1
                skew = 1
                cache.skew1_fills += 1
            if emit is not None:
                emit("cache", "place", cache=name, addr=addr, skew=skew)
            wb = None
            if len(s) >= cache.assoc:
                if cache._locked:
                    vaddr = next(
                        (a for a, e in s.items() if not e[1]), None)
                    if vaddr is None:
                        return None
                    vdirty = s.pop(vaddr)[0]
                else:
                    vaddr, ventry = s.popitem(last=False)
                    vdirty = ventry[0]
                cache.evictions += 1
                if vdirty:
                    cache.writebacks += 1
                    wb = vaddr
                if emit is not None:
                    emit("cache", "evict", cache=name, addr=vaddr,
                         dirty=vdirty)
            s[addr] = [dirty, False]
            return wb
        return fill_absent

    def register_stats(self, registry, name: str | None = None) -> None:
        """PR 1 missed the MIRAGE-specific counters: register the skew
        placement split on top of the base hit/miss/eviction set, and pin
        it down with a conservation law (every eviction was caused by a
        placement into some skew)."""
        super().register_stats(registry, name)
        name = name or self.name
        registry.register(name, self, ("skew0_fills", "skew1_fills"))
        registry.add_bound(
            f"{name}-mirage-eviction-bound",
            f"{name}.evictions", lambda: self.evictions,
            f"{name} skew0+skew1 fills",
            lambda: self.skew0_fills + self.skew1_fills)

    def invalidate(self, addr: int) -> bool:
        for idx in self._candidates(addr):
            entry = self._sets[idx].pop(addr, None)
            if entry is not None:
                if entry[1]:
                    self._locked -= 1
                return True
        return False

    def lock(self, addr: int) -> None:
        for idx in self._candidates(addr):
            entry = self._sets[idx].get(addr)
            if entry is not None:
                if not entry[1]:
                    entry[1] = True
                    self._locked += 1
                return
        self.fill(addr, locked=True)


def make_cache(config: CacheConfig, name: str, seed: int = 0) -> Cache:
    """Factory honouring ``config.randomized``."""
    if config.randomized:
        return MirageCache(config, name, seed=seed or 0xC0FFEE)
    return Cache(config, name)
