"""On-chip data cache hierarchy: per-core L1/L2 and a shared LLC.

The hierarchy is mostly-inclusive and write-back.  It answers data
accesses up to the LLC; anything that misses the LLC goes to the secure
memory engine (which owns DRAM plus all metadata machinery).

Returned latencies are the on-chip portion only; the caller adds the
engine latency on an LLC miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.cache import Cache
from repro.mem.mirage import make_cache
from repro.sim.config import MachineConfig


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of an on-chip lookup."""

    latency: int
    llc_miss: bool
    writeback_addrs: tuple[int, ...] = ()


class CacheHierarchy:
    """L1/L2 private per core, LLC shared."""

    def __init__(self, config: MachineConfig, seed: int = 1) -> None:
        self.config = config
        self.l1 = [Cache(config.core.l1, f"l1.{i}")
                   for i in range(config.n_cores)]
        self.l2 = [Cache(config.core.l2, f"l2.{i}")
                   for i in range(config.n_cores)]
        self.llc = make_cache(config.llc, "llc", seed=seed)

    def register_stats(self, registry) -> None:
        """Register every level's counters with a StatsRegistry."""
        for cache in (*self.l1, *self.l2, self.llc):
            cache.register_stats(registry)

    def set_tracer(self, tracer) -> None:
        for cache in (*self.l1, *self.l2, self.llc):
            cache.tracer = tracer

    def access(self, core: int, addr: int, is_write: bool) -> HierarchyResult:
        """Look up ``addr``; fill on miss; report LLC miss + writebacks."""
        cfg = self.config
        l1, l2 = self.l1[core], self.l2[core]
        if l1.lookup(addr, is_write):
            return HierarchyResult(cfg.core.l1.hit_latency, False)
        writebacks: list[int] = []
        if l2.lookup(addr, is_write):
            ev = l1.fill(addr, dirty=is_write)
            if ev is not None and ev.dirty:
                l2.fill(ev.addr, dirty=True)
            return HierarchyResult(cfg.core.l2.hit_latency, False)
        llc_hit = self.llc.lookup(addr, is_write)
        # Fill the private levels regardless of where the block came from.
        ev2 = l2.fill(addr)
        if ev2 is not None and ev2.dirty:
            ev_llc = self.llc.fill(ev2.addr, dirty=True)
            if ev_llc is not None and ev_llc.dirty:
                writebacks.append(ev_llc.addr)
        ev1 = l1.fill(addr, dirty=is_write)
        if ev1 is not None and ev1.dirty:
            l2.fill(ev1.addr, dirty=True)
        if llc_hit:
            return HierarchyResult(cfg.llc.hit_latency,
                                   False, tuple(writebacks))
        ev_llc = self.llc.fill(addr)
        if ev_llc is not None and ev_llc.dirty:
            writebacks.append(ev_llc.addr)
        return HierarchyResult(cfg.llc.hit_latency, True, tuple(writebacks))
