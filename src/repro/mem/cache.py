"""Set-associative cache model with LRU replacement and dirty bits.

All caches in the simulator operate on *block addresses* (byte address
divided by the 64B block size).  Metadata caches additionally tag their
addresses with an address-space id (see :mod:`repro.mem.spaces`) so one
cache can hold blocks from several physical regions without aliasing.

The model is functional for *presence*: a block is either cached or not,
and a fill returns the dirty victim so the caller can account for
write-backs.  Timing is the caller's job (latencies come from the config).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.sim.config import CacheConfig
from repro.sim.stats import CacheStats
from repro.sim.trace import NULL_TRACER


class Cache:
    """LRU set-associative cache keyed by integer block address.

    Each set is an ``OrderedDict`` from address to dirty bit, LRU first.
    A probe and a known-absent fill each have one body: the closures
    ``bind_fast_probe`` and ``bind_fast_fill`` return.  ``lookup`` and
    ``fill`` run the pair the cache binds for itself, and the engines
    and the drain loop bind their own.
    """

    Stats = CacheStats

    #: Whether a fill of a resident line refreshes its LRU position
    #: (MIRAGE leaves it in place).
    _refill_refreshes_lru = True

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        if config.assoc <= 0:
            raise ValueError("associativity must be positive")
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = self.Stats()
        self._probe = self.bind_fast_probe()
        self.set_tracer(NULL_TRACER)

    def set_tracer(self, tracer) -> None:
        """Bind ``fill``'s known-absent fill with ``tracer``."""
        self._fill_absent = self.bind_fast_fill(tracer)

    def _holder(self, addr: int) -> Optional[OrderedDict[int, bool]]:
        """The set holding ``addr``, or None when it is absent."""
        s = self._sets[addr % self.n_sets]
        return s if addr in s else None

    # -- queries ------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        return self._holder(addr) is not None

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Probe the cache; updates LRU and stats.  Returns hit/miss."""
        return self._probe(addr, is_write)

    def touch_dirty(self, addr: int) -> bool:
        """Single-probe equivalent of ``contains(addr)`` followed by
        ``lookup(addr, is_write=True)`` on the present branch.

        On a hit: refresh LRU, set the dirty bit, count the hit.  On
        absence: touch neither stats nor LRU (exactly what the
        contains-then-lookup pair did -- ``contains`` never counted, and
        the ``lookup`` was only issued after a positive ``contains``).
        """
        s = self._holder(addr)
        if s is None:
            return False
        s.move_to_end(addr)
        s[addr] = True
        self.stats.hits += 1
        return True

    # -- fills / evictions ---------------------------------------------------

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Insert ``addr``; return the dirty victim's address, or None.

        A resident line keeps its place and merges the dirty bit (a plain
        cache also refreshes its LRU position); otherwise the
        known-absent fill places it and picks the victim.
        """
        s = self._holder(addr)
        if s is None:
            return self._fill_absent(addr, dirty)
        if dirty:
            s[addr] = True
        if self._refill_refreshes_lru:
            s.move_to_end(addr)
        return None

    def invalidate(self, addr: int) -> bool:
        s = self._holder(addr)
        if s is None:
            return False
        del s[addr]
        return True

    # -- pre-bound bodies ------------------------------------------------------
    #
    # ``bind_fast_probe``/``bind_fast_fill`` return closures holding the
    # set list, geometry and stats in cell variables, so one probe is a
    # single dict round-trip with no attribute chain and no method
    # dispatch.  They are the only probe and fill bodies: ``lookup`` and
    # ``fill`` call the pair the cache binds for itself, and the engines
    # and the drain loop bind their own, traced or not.  A probe emits
    # nothing; a fill takes the tracer at bind time and emits its events
    # at the cost of one ``is not None`` test per emit site.  No closure
    # holds the cache, so a cache that keeps its own pair is still freed
    # by reference counting.

    def prime_candidates(self, addrs) -> None:
        """Hook for randomized caches: pre-compute hashed set candidates
        for a batch of addresses.  Direct-indexed caches need nothing."""

    def bind_fast_probe(self):
        """Return a ``probe(addr, is_write=False) -> bool`` closure: on a
        hit refresh LRU, set the dirty bit on a write and count the hit;
        on a miss count the miss."""
        sets = self._sets
        n_sets = self.n_sets
        stats = self.stats
        def probe(addr: int, is_write: bool = False) -> bool:
            s = sets[addr % n_sets]
            if addr in s:
                s.move_to_end(addr)
                if is_write:
                    s[addr] = True
                stats.hits += 1
                return True
            stats.misses += 1
            return False
        return probe

    def bind_fast_fill(self, tracer):
        """Return a ``fill_absent(addr, dirty=False) -> victim | None``
        closure for an address the caller knows to be absent: evict the
        set's LRU line if the set is full, insert ``addr``, and return
        the *dirty* victim's address, or None (clean evictions need no
        write-back).  With ``tracer`` enabled it emits a ``cache.evict``
        event for every victim, clean ones included."""
        sets = self._sets
        n_sets = self.n_sets
        assoc = self.assoc
        name = self.name
        stats = self.stats
        emit = tracer.instant if tracer.enabled else None
        def fill_absent(addr: int, dirty: bool = False):
            s = sets[addr % n_sets]
            wb = None
            if len(s) >= assoc:
                victim, vdirty = s.popitem(last=False)
                stats.evictions += 1
                if vdirty:
                    stats.writebacks += 1
                    wb = victim
                if emit is not None:
                    emit("cache", "evict", cache=name, addr=victim,
                         dirty=vdirty)
            s[addr] = dirty
            return wb
        return fill_absent

    # -- introspection -------------------------------------------------------

    def register_stats(self, registry, name: str | None = None) -> None:
        """Register hit/miss/eviction counters with a StatsRegistry."""
        registry.register(name or self.name, self.stats)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def blocks(self) -> Iterator[int]:
        for s in self._sets:
            yield from s.keys()

    def flush(self) -> int:
        """Drop every block; returns the dirty write-back count."""
        dirty = 0
        for s in self._sets:
            dirty += sum(1 for d in s.values() if d)
            s.clear()
        return dirty
