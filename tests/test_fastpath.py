"""One probe body and one fill body per cache, checked against the
classes they replaced.

``Cache`` and ``MirageCache`` each have one probe body and one
known-absent fill body: the closures ``bind_fast_probe`` and
``bind_fast_fill`` return.  ``lookup`` and ``fill`` run the pair a cache
binds for itself, and the engines and the simulator's drain loop bind
their own whatever tracer is installed (a fill takes the tracer at bind
time).  This suite pins that down:

* a seeded stream of reads, writes, fills of absent and present lines
  (dirty and clean), ``touch_dirty``, ``invalidate`` and ``flush`` drives
  three caches in lockstep -- one through its own methods, one through a
  separately bound probe/fill pair, and ``_ReferenceCache`` /
  ``_ReferenceMirageCache``, the classes as they were with a second body
  per operation, kept unchanged as an independent reference.  Hit/miss
  outcomes, dirty victims, each set's lines and dirty bits in LRU order,
  every counter, flush counts and, traced, the emitted events must
  agree, for plain and MIRAGE organisations;
* ``prime_candidates`` must memoize exactly the values the lazy
  per-address hash would have produced (64-bit wraparound included);
* ``touch_dirty`` must equal the ``contains`` + ``lookup(is_write=True)``
  pair it fused (the SGX counter-tree dirty-walk regression);
* every engine in the registry must produce identical results with and
  without a tracer installed (``tests/test_golden.py`` pins both against
  committed digests), its hooks must create no reference cycle, and a
  simulator that ran it must be freed by reference counting.
"""

import dataclasses
import gc
import random
import sys
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
import pytest

from repro.experiments.parallel import resolve_engine
from repro.mem.cache import Cache
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.mem.mirage import MirageCache, _mix
from repro.obs.leakage import PairSpec, run_pair
from repro.sim.config import CacheConfig, tiny_config
from repro.sim.oracle import DifferentialOracle
from repro.sim.simulator import Simulator
from repro.sim.stats import Counter
from repro.sim.trace import NULL_TRACER, EventTracer
from repro.workloads.mixes import build_mix

from tests.test_golden import ALL_NINE

#: Small geometry so a few hundred addresses generate real conflict
#: pressure (evictions, write-backs, power-of-two-choices imbalance).
_CFG = CacheConfig(4096, 4, hit_latency=10)       # 16 sets x 4 ways
_N_ADDRS = 200
_N_OPS = 4000


# ---------------------------------------------------------------------------
# The reference: the caches with way-locking and a second body per operation
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Eviction:
    """A victim block pushed out by a fill."""

    addr: int
    dirty: bool


class _ReferenceCache:
    """LRU set-associative cache keyed by integer block address."""

    #: Class-level default so the hot paths never None-check; the
    #: simulator installs a real tracer cache-wide when tracing is on.
    tracer = NULL_TRACER

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        if config.assoc <= 0:
            raise ValueError("associativity must be positive")
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        # Each set: OrderedDict addr -> (dirty, locked); LRU = first item.
        self._sets: list[OrderedDict[int, list]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = Counter()
        self.evictions = 0
        self.writebacks = 0
        #: Number of locked entries across all sets.  Locking is rare
        #: (TreeLing root pinning); while the count is zero the victim
        #: pick is simply the LRU head, no per-entry locked scan.
        self._locked = 0

    # -- mapping ------------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return addr % self.n_sets

    # -- queries ------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        return addr in self._sets[self.set_index(addr)]

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Probe the cache; updates LRU and stats.  Returns hit/miss.

        ``set_index`` is inlined (subclasses with a different mapping
        override ``lookup`` wholesale, so the shortcut is safe).
        """
        s = self._sets[addr % self.n_sets]
        entry = s.get(addr)
        if entry is None:
            self.stats.misses += 1
            return False
        s.move_to_end(addr)
        if is_write:
            entry[0] = True
        self.stats.hits += 1
        return True

    def touch_dirty(self, addr: int) -> bool:
        """Single-probe equivalent of ``contains(addr)`` followed by
        ``lookup(addr, is_write=True)`` on the present branch.

        On a hit: refresh LRU, set the dirty bit, count the hit.  On
        absence: touch neither stats nor LRU (exactly what the
        contains-then-lookup pair did — ``contains`` never counted, and
        the ``lookup`` was only issued after a positive ``contains``).
        ``set_index`` is inlined like in ``lookup`` (subclasses with a
        different mapping override this wholesale).
        """
        s = self._sets[addr % self.n_sets]
        entry = s.get(addr)
        if entry is None:
            return False
        s.move_to_end(addr)
        entry[0] = True
        self.stats.hits += 1
        return True

    # -- fills / evictions ---------------------------------------------------

    def fill(self, addr: int, dirty: bool = False,
             locked: bool = False) -> Optional[_Eviction]:
        """Insert ``addr``; return the evicted victim, if any.

        Locked entries are never selected as victims.  If the whole set is
        locked, the fill is dropped (callers lock at most a bounded number
        of blocks, so this only happens in adversarial unit tests).
        """
        s = self._sets[addr % self.n_sets]
        entry = s.get(addr)
        if entry is not None:
            entry[0] = entry[0] or dirty
            if locked and not entry[1]:
                entry[1] = True
                self._locked += 1
            s.move_to_end(addr)
            return None
        victim = None
        if len(s) >= self.assoc:
            if self._locked:
                victim = self._pick_victim(s)
                if victim is None:
                    return None  # fully locked set: drop the fill
                vdirty = s.pop(victim)[0]
            else:
                # LRU head; nothing is locked.  popitem(last=False) is
                # the fused form of next(iter(s)) + pop(victim).
                victim, ventry = s.popitem(last=False)
                vdirty = ventry[0]
            self.evictions += 1
            if vdirty:
                self.writebacks += 1
            if self.tracer.enabled:
                self.tracer.instant("cache", "evict", cache=self.name,
                                    addr=victim, dirty=vdirty)
            victim = _Eviction(victim, vdirty)
        if locked:
            self._locked += 1
        s[addr] = [dirty, locked]
        return victim

    def _pick_victim(self, s: OrderedDict[int, list]) -> Optional[int]:
        for addr, (_, locked) in s.items():  # iteration order = LRU first
            if not locked:
                return addr
        return None

    def invalidate(self, addr: int) -> bool:
        s = self._sets[self.set_index(addr)]
        entry = s.pop(addr, None)
        if entry is None:
            return False
        if entry[1]:
            self._locked -= 1
        return True

    def lock(self, addr: int) -> None:
        """Pin ``addr`` so it can never be evicted (TreeLing root locking)."""
        s = self._sets[self.set_index(addr)]
        entry = s.get(addr)
        if entry is not None:
            if not entry[1]:
                entry[1] = True
                self._locked += 1
        else:
            self.fill(addr, locked=True)

    # -- pre-bound fast paths -------------------------------------------------
    #
    # The engines' hot path probes the same cache objects on every
    # LLC-missing access.  ``bind_fast_probe``/``bind_fast_fill`` return
    # closures holding the set list, geometry and stat objects in cell
    # variables, so one probe is a single dict round-trip with no
    # attribute chain and no method dispatch.  They are the only hooks
    # the engines and the drain loop bind, traced or not: a probe emits
    # nothing, and a fill takes the tracer at bind time and emits the
    # events ``fill`` emits, at the cost of one ``is not None`` test per
    # emit site.  Both are bit-identical to ``lookup``/``fill`` in every
    # observable effect (LRU order, dirty bits, victims, stats, events).

    def prime_candidates(self, addrs) -> None:
        """Hook for randomized caches: pre-compute hashed set candidates
        for a batch of addresses.  Direct-indexed caches need nothing."""

    def bind_fast_probe(self):
        """Return a ``probe(addr, is_write=False) -> bool`` closure
        equivalent to ``lookup``."""
        sets = self._sets
        n_sets = self.n_sets
        stats = self.stats
        def probe(addr: int, is_write: bool = False) -> bool:
            s = sets[addr % n_sets]
            entry = s.get(addr)
            if entry is None:
                stats.misses += 1
                return False
            s.move_to_end(addr)
            if is_write:
                entry[0] = True
            stats.hits += 1
            return True
        return probe

    def bind_fast_fill(self, tracer):
        """Return a ``fill_absent(addr, dirty=False) -> victim | None``
        closure: ``fill`` specialised for an address the caller just
        observed to be absent (so the presence probe is skipped and no
        :class:`_Eviction` is allocated).  Returns the *dirty* victim's
        address, or None (clean evictions need no write-back).  With
        ``tracer`` enabled it emits ``fill``'s ``cache.evict`` event for
        every victim, clean ones included."""
        sets = self._sets
        n_sets = self.n_sets
        assoc = self.assoc
        name = self.name
        emit = tracer.instant if tracer.enabled else None
        cache = self
        def fill_absent(addr: int, dirty: bool = False):
            s = sets[addr % n_sets]
            wb = None
            if len(s) >= assoc:
                if cache._locked:
                    victim = cache._pick_victim(s)
                    if victim is None:
                        return None  # fully locked set: drop the fill
                    vdirty = s.pop(victim)[0]
                else:
                    victim, ventry = s.popitem(last=False)
                    vdirty = ventry[0]
                cache.evictions += 1
                if vdirty:
                    cache.writebacks += 1
                    wb = victim
                if emit is not None:
                    emit("cache", "evict", cache=name, addr=victim,
                         dirty=vdirty)
            s[addr] = [dirty, False]
            return wb
        return fill_absent

    # -- introspection -------------------------------------------------------

    def register_stats(self, registry, name: str | None = None) -> None:
        """Register hit/miss/eviction counters with a StatsRegistry."""
        name = name or self.name
        registry.register(name, self.stats)
        registry.register(name, self, ("evictions", "writebacks"))

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def blocks(self) -> Iterator[int]:
        for s in self._sets:
            yield from s.keys()

    def flush(self) -> int:
        """Drop every non-locked block; returns the dirty write-back count."""
        dirty = 0
        for s in self._sets:
            keep = {a: e for a, e in s.items() if e[1]}
            dirty += sum(1 for a, e in s.items() if e[0] and not e[1])
            s.clear()
            s.update(keep)
        return dirty


class _ReferenceMirageCache(_ReferenceCache):
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
             locked: bool = False) -> Optional[_Eviction]:
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
            victim = _Eviction(vaddr, vdirty)
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


# ---------------------------------------------------------------------------
# Lockstep streams
# ---------------------------------------------------------------------------

def _snapshot(cache):
    """Full observable state: each set's (addr, dirty) in LRU order, plus
    every counter the registry would see."""
    if isinstance(cache, _ReferenceCache):
        state = [[(a, e[0]) for a, e in s.items()] for s in cache._sets]
        counters = {"hits": cache.stats.hits, "misses": cache.stats.misses,
                    "evictions": cache.evictions,
                    "writebacks": cache.writebacks}
        if isinstance(cache, _ReferenceMirageCache):
            counters.update(skew0_fills=cache.skew0_fills,
                            skew1_fills=cache.skew1_fills)
        return state, counters
    return ([list(s.items()) for s in cache._sets],
            dataclasses.asdict(cache.stats))


#: organisation -> (cache class, reference class, constructor kwargs);
#: same-seeded MIRAGE caches share hash keys, so the skewed probe,
#: power-of-two-choices placement and skew counters must all match.
_ORGANISATIONS = {
    "plain": (Cache, _ReferenceCache, {}),
    "mirage": (MirageCache, _ReferenceMirageCache, {"seed": 7}),
}


def _sides(own, bound, ref, tracer):
    """Operation -> one callable per side: ``own``'s methods, a probe and
    a known-absent fill bound separately from ``bound`` (its methods
    serve the operations that have no bound form), and the reference,
    whose fill reports the dirty victim's address the way ``fill``
    does."""
    probe = bound.bind_fast_probe()
    fill_absent = bound.bind_fast_fill(tracer)

    def bound_fill(addr, dirty):
        if bound.contains(addr):
            return bound.fill(addr, dirty)
        return fill_absent(addr, dirty)

    def ref_fill(addr, dirty):
        ev = ref.fill(addr, dirty=dirty)
        return ev.addr if ev is not None and ev.dirty else None

    return {
        "probe": (own.lookup, probe,
                  lambda addr, w: ref.lookup(addr, is_write=w)),
        "fill": (own.fill, bound_fill, ref_fill),
        "touch_dirty": (own.touch_dirty, bound.touch_dirty,
                        ref.touch_dirty),
        "invalidate": (own.invalidate, bound.invalidate, ref.invalidate),
        "flush": (own.flush, bound.flush, ref.flush),
    }


def _stream(seed, n_ops):
    """Seeded ``(op, args)`` stream: probes (40% writes) each followed by
    a fill on a miss, as the drain loop does; fills regardless of
    presence, half of them dirty; dirty touches; invalidations; and a
    flush about every 500 operations."""
    rng = random.Random(seed)
    for _ in range(n_ops):
        addr = rng.randrange(_N_ADDRS)
        r = rng.random()
        if r < 0.5:
            yield "probe", (addr, rng.random() < 0.4)
        elif r < 0.75:
            yield "fill", (addr, rng.random() < 0.5)
        elif r < 0.88:
            yield "touch_dirty", (addr,)
        elif r < 0.998:
            yield "invalidate", (addr,)
        else:
            yield "flush", ()


def _drive(org, seed, n_ops=_N_OPS, traced=False):
    """Run one stream through the three sides of ``org``, asserting after
    every operation that results and full state agree, so a failure
    names the first differing op.  Traced, each side gets a tracer of
    its own and the three event lists must be equal.  Returns the
    events."""
    new_cls, ref_cls, kwargs = _ORGANISATIONS[org]
    caches = [new_cls(_CFG, "c", **kwargs), new_cls(_CFG, "c", **kwargs),
              ref_cls(_CFG, "c", **kwargs)]
    tracers = [EventTracer(limit=None) if traced else NULL_TRACER
               for _ in caches]
    own, bound, ref = caches
    own.set_tracer(tracers[0])
    bound.set_tracer(tracers[1])
    ref.tracer = tracers[2]
    sides = _sides(own, bound, ref, tracers[1])
    for i, (op, args) in enumerate(_stream(seed, n_ops)):
        got = [fn(*args) for fn in sides[op]]
        if op == "probe" and not got[2]:
            got += [fn(*args) for fn in sides["fill"]]
        assert got[0::3] == got[1::3] == got[2::3], \
            f"{op}{args} diverged at op {i}: {got}"
        states = [_snapshot(c) for c in caches]
        assert states[0] == states[1] == states[2], \
            f"state diverged after {op}{args} at op {i}"
    events = [t.events() for t in tracers] if traced else [[], [], []]
    assert events[0] == events[1] == events[2]
    return events[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain_cache_fast_probe_fill_equivalent(seed):
    _drive("plain", seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirage_cache_fast_probe_fill_equivalent(seed):
    _drive("mirage", seed)


@pytest.mark.parametrize("org", sorted(_ORGANISATIONS))
def test_traced_fast_fill_emits_the_fill_events(org):
    """A fill bound with a tracer emits the reference's events in the
    reference's order: MIRAGE's ``place`` skew before the victim pick,
    and an ``evict`` for every victim, clean ones included.  The caches
    share one name, so the event lists must be equal."""
    events = _drive(org, 0, traced=True)
    names = {ev["name"] for ev in events}
    assert "evict" in names
    assert ("place" in names) == (org == "mirage")
    assert any(not ev["args"]["dirty"] for ev in events
               if ev["name"] == "evict"), "no clean victim was reported"


def test_prime_candidates_matches_lazy_hash():
    """Priming a batch must memoize exactly the values the lazy
    per-address splitmix64 produces -- including 64-bit wraparound."""
    primed = MirageCache(_CFG, "p", seed=13)
    lazy = MirageCache(_CFG, "l", seed=13)
    addrs = list(range(0, 3000, 37)) + [2**40 + 123, 2**63, 2**64 - 5]
    primed.prime_candidates(addrs)
    for addr in addrs:
        assert primed._cand[addr] == lazy._candidates(addr), hex(addr)
    # Re-priming with overlap only hashes the missing tail.
    primed.prime_candidates(addrs + [999_999])
    assert primed._cand[999_999] == lazy._candidates(999_999)
    # Plain caches expose the hook as a no-op.
    Cache(_CFG, "c").prime_candidates(addrs)


@pytest.mark.parametrize("make", [
    lambda name: Cache(_CFG, name),
    lambda name: MirageCache(_CFG, name, seed=7),
], ids=["plain", "mirage"])
def test_touch_dirty_equals_contains_then_dirty_lookup(make):
    """``touch_dirty`` fuses the SGX dirty walk's old ``contains`` +
    ``lookup(is_write=True)`` pair into one probe; hit/absent outcomes,
    LRU refresh, dirty bits and stats must be indistinguishable."""
    fused, paired = make("fused"), make("paired")
    rng = random.Random(42)
    for _ in range(600):
        addr = rng.randrange(_N_ADDRS)
        if rng.random() < 0.5:
            for c in (fused, paired):
                c.fill(addr, dirty=False)
        else:
            hit_f = fused.touch_dirty(addr)
            present = paired.contains(addr)
            if present:
                paired.lookup(addr, is_write=True)
            assert hit_f == present, f"touch_dirty diverged at {addr}"
    assert _snapshot(fused) == _snapshot(paired)


def test_sgx_dirty_walk_probes_each_node_once():
    """Regression for the counter-tree write walk: the old code probed
    the tree cache twice per path node (``contains`` then
    ``lookup(is_write=True)``); the fused walk issues exactly one
    ``touch_dirty`` per node and stops at the first cached level."""
    eng = resolve_engine("sgx-counter-tree")(tiny_config(n_cores=2),
                                             seed=11)
    tc = eng.tree_cache
    calls = {"touch": 0, "contains": 0}
    orig_touch = tc.touch_dirty

    def counting_touch(addr):
        calls["touch"] += 1
        return orig_touch(addr)

    def counting_contains(addr):
        calls["contains"] += 1
        return Cache.contains(tc, addr)

    tc.touch_dirty = counting_touch
    tc.contains = counting_contains
    path_len = len(eng.geo.path_addrs(5))
    assert path_len > 0
    # Cold write: the verification walk fills the whole path (dirty), so
    # the dirty walk's first probe hits and the walk stops -- one fused
    # probe, zero contains.
    eng.data_access(0, 5, 0, True, 0.0)
    assert calls["contains"] == 0, "dirty walk still double-probes"
    assert 1 <= calls["touch"] <= path_len
    # Warm write: path fully cached, the walk terminates on probe #1.
    calls["touch"] = 0
    eng.data_access(0, 5, 1, True, 100.0)
    assert calls["touch"] == 1
    assert calls["contains"] == 0


def _run_engine(scheme, traced, mix="M-2", n_accesses=400, seed=3,
                warmup=100):
    """The golden M-2 stream, with or without a tracer.  A tracer
    installed on the engine alone rebinds its hooks (emitting the cache
    and DRAM events) while the simulator runs untraced."""
    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=11)
    if traced:
        engine.set_tracer(EventTracer(limit=1))
    workload = build_mix(mix, n_accesses=n_accesses, seed=seed, scale=0.05)
    frame_policy = ("sequential" if scheme.startswith("static-partition")
                    else "fragmented")
    sim = Simulator(cfg, engine, seed=seed, frame_policy=frame_policy)
    result = sim.run(workload, warmup=warmup)
    hists = {name: h.to_dict() for name, h in sim._class_hist.items()}
    return result.to_dict(), sim.registry.snapshot(), hists


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_engine_fast_path_bit_identical(scheme):
    """Every engine: a tracer changes no result.  The one walk over
    hooks bound with and without a tracer yields equal results,
    registry snapshots and histogram buckets."""
    f_res, f_reg, f_hist = _run_engine(scheme, traced=False)
    t_res, t_reg, t_hist = _run_engine(scheme, traced=True)
    assert f_reg == t_reg
    assert f_hist == t_hist, "per-class latency histogram buckets differ"
    assert f_res == t_res


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_bound_hooks_leave_no_reference_cycle(scheme):
    """The hooks close over the controller, the stats, the caches, the
    tracer and the counter observer, never over the engine, and the
    DRAM's bound open-row body holds the device's state, never the
    device: a used engine, its controller, its DRAM and its three
    metadata caches are freed by reference counting alone, untraced,
    traced and with an oracle attached (an engine kept alive until a
    full cycle collection inflates the peak memory of oracle replays)."""
    cfg = tiny_config(n_cores=2)
    installs = (lambda e: None,
                lambda e: e.set_tracer(EventTracer(limit=8)),
                lambda e: DifferentialOracle(cfg, e, seed=0))
    gc.disable()
    try:
        for install in installs:
            engine = resolve_engine(scheme)(cfg, seed=11)
            attached = install(engine)
            engine.on_domain_start(1)
            pfn = (engine.frame_range(1)[0]
                   if hasattr(engine, "frame_range") else 5)
            engine.on_page_alloc(1, pfn, 0.0)
            engine.data_access(1, pfn, 0, True, 0.0)
            engine.handle_writeback(1, pfn, 0, 10.0)
            refs = [weakref.ref(obj) for obj in (
                engine, engine.mc, engine.mc.dram, engine.counter_cache,
                engine.mac_cache, engine.tree_cache)]
            del engine, attached
            assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("scheme", ALL_NINE)
def test_finished_simulator_leaves_no_reference_cycle(scheme, traced):
    """The simulator's registry reads the stats objects, never the
    simulator: after a run with a warm-up and the invariant check, the
    machine (simulator, registry, engine, hierarchy, LLC, allocator, TLB
    and DRAM) is freed by reference counting alone, so cells run back to
    back hold one machine at a time."""
    cfg = tiny_config(n_cores=4)
    workload = build_mix("S-1", n_accesses=600, seed=3, scale=0.05)
    gc.disable()
    try:
        engine = resolve_engine(scheme)(cfg, seed=11)
        sim = Simulator(cfg, engine, seed=3,
                        tracer=EventTracer(limit=8) if traced else None)
        sim.run(workload, warmup=100, check_invariants=True)
        refs = [weakref.ref(obj) for obj in (
            sim, sim.registry, engine, sim.hierarchy, sim.hierarchy.llc,
            sim.allocator, sim.tlb, engine.mc.dram)]
        del sim, engine
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _spy_generic_bodies(monkeypatch):
    """Record ``(name, caller code)`` for every call of the caches'
    ``lookup``/``fill`` methods (``MirageCache`` inherits both) and the
    controller's ``read``/``write``.  Each spy replaces an attribute its
    class defines itself."""
    calls = []
    for cls, attr in ((Cache, "lookup"), (Cache, "fill"),
                      (MemoryController, "read"),
                      (MemoryController, "write")):
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
        def counted(*args, _orig=getattr(cls, attr),
                    _name=f"{cls.__name__}.{attr}", **kwargs):
            calls.append((_name, sys._getframe(1).f_code))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cls, attr, counted)
    return calls


@pytest.mark.parametrize("scheme", ["baseline", "ivleague-pro"])
def test_traced_run_binds_the_fused_hooks(scheme, monkeypatch):
    """Under an ``EventTracer`` the engine and the drain loop bind the
    same closures as untraced: the caches' ``lookup``/``fill`` methods
    and the controller's ``read``/``write`` run only for page walks,
    through the hierarchy, and for the drain loop's dirty-victim
    re-inserts."""
    calls = _spy_generic_bodies(monkeypatch)
    walk_code = {Simulator._page_walk.__code__,
                 CacheHierarchy.access.__code__}
    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=11)
    workload = build_mix("M-2", n_accesses=400, seed=3, scale=0.05)
    Simulator(cfg, engine, seed=3, frame_policy="fragmented",
              tracer=EventTracer(limit=1)).run(workload, warmup=100)
    assert engine._instrumented
    assert any(code in walk_code for _, code in calls), \
        "no page walk ran: the spy proves nothing"
    stray = [(name, code.co_name) for name, code in calls
             if code not in walk_code
             and not (code is Simulator._core_gen.__code__
                      and name.endswith(".fill"))]
    assert stray == []


@pytest.mark.parametrize("scheme", ["ivleague-basic", "baseline+mirage",
                                    "static-partition"])
def test_leakage_pairs_run_the_fused_hooks(scheme, monkeypatch):
    """The leakage contracts check the hooks the figures run: a traced
    pair calls none of the caches' or the controller's methods."""
    calls = _spy_generic_bodies(monkeypatch)
    res = run_pair(PairSpec(scheme, rounds=8))
    assert res.failure is None
    assert all(rec["events"][0] > 0 for rec in res.domains.values())
    assert [name for name, _ in calls] == []
