"""IvLeague-Basic: isolated dynamic integrity trees (paper Section VI).

The global tree is split into TreeLings; a domain receives TreeLings on
demand from the IV domain controller and maps each allocated page to a
TreeLing *leaf* slot through the NFL.  The page-to-slot mapping is the
LMM (cached on-chip; authoritative copy in the extended page table).
All nodes at or above the TreeLing-root boundary are locked on-chip,
which (a) terminates every verification on-chip without sharing any
in-memory node across domains and (b) reduces the tree cache's effective
capacity -- both modelled here.
"""

from __future__ import annotations

from repro.core.domain import IVDomainController
from repro.core.lmm import LeafMap, LMMCache
from repro.core.nfl import ChainedNFL, NFLBuffer, NFLOp
from repro.core.treeling import SlotRef, TreeLingGeometry
from repro.mem.mirage import make_cache
from repro.secure.bmt import TreeGeometry
from repro.secure.engine import SecureMemoryEngine
from repro.sim.config import BLOCK_BYTES, MachineConfig, TREE_ARITY


class IvLeagueBasicEngine(SecureMemoryEngine):
    """IvLeague with leaf-only page mapping (no Invert/Pro)."""

    name = "ivleague-basic"

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        iv = config.ivleague
        self.geometry = TreeLingGeometry(iv.treeling_height)
        super().__init__(config, seed)
        self.pool = IVDomainController(iv.n_treelings, iv.max_domains)
        # Hot-path constant (same float the config property yields).
        self._lmm_hit_lat = float(iv.lmm_hit_latency)
        self.leafmap = LeafMap()
        self._live_pages = self.leafmap.slots
        self.lmm_cache = LMMCache(iv.lmm_entries, iv.lmm_assoc)
        self._chains: dict[int, ChainedNFL] = {}
        self._nflb: dict[int, NFLBuffer] = {}
        self._slot_pfn: dict[int, int] = {}
        self._parent_slots: set[int] = set()

    # -- tree cache with root locking ----------------------------------------------

    def _build_tree_cache(self, seed: int):
        cfg = self.config.secure.tree_cache
        # TreeLing-root hashes are slots in the leaves of an 8-ary tree
        # over the TreeLings; that whole cone, up to the global root, is
        # locked on-chip (Section VI-B), one block per node.
        locked = TreeGeometry(self.config.ivleague.n_treelings).total_nodes
        locked_bytes = locked * BLOCK_BYTES
        usable = max(cfg.assoc * BLOCK_BYTES, cfg.size_bytes - locked_bytes)
        shrunk = type(cfg)(size_bytes=usable, assoc=cfg.assoc,
                           hit_latency=cfg.hit_latency,
                           block_bytes=cfg.block_bytes,
                           randomized=cfg.randomized)
        self.locked_tree_blocks = locked
        return make_cache(shrunk, "tree$", seed=seed * 3)

    # -- statistics registration -----------------------------------------------------

    def register_stats(self, registry) -> None:
        super().register_stats(registry)
        self.lmm_cache.register_stats(registry)
        # NFL buffers appear per domain as domains start; a provider
        # re-enumerates them so late-created buffers still obey the
        # measurement window.
        registry.register_provider(
            "nflb",
            lambda: [(f"domain{d}", buf, ("hits", "misses", "writebacks"))
                     for d, buf in sorted(self._nflb.items())])
        registry.add_equality(
            "lmm-accounting",
            "engine (lmm_hits, lmm_misses)",
            lambda: (self.stats.lmm_hits, self.stats.lmm_misses),
            "lmm$ (hits, misses)",
            lambda: (self.lmm_cache.hits, self.lmm_cache.misses))
        registry.add_equality(
            "nflb-accounting",
            "engine (nflb_hits, nflb_misses)",
            lambda: (self.stats.nflb_hits, self.stats.nflb_misses),
            "sum over per-domain NFLBs (hits, misses)",
            lambda: (sum(b.hits for b in self._nflb.values()),
                     sum(b.misses for b in self._nflb.values())))

    # -- NFL plumbing ------------------------------------------------------------------

    def _node_order(self, treeling: int) -> list[int]:
        """Node blocks the NFL tracks for a fresh TreeLing: Basic tracks
        the leaf level only, left to right (static page->leaf mapping
        replaced by dynamic leaf-slot allocation)."""
        geo = self.geometry
        base = treeling * geo.nodes_per_treeling
        return [base + geo.local_node(1, i)
                for i in range(geo.level_nodes[1])]

    def _initial_avail(self, treeling: int) -> list[int] | None:
        return None

    def _on_treeling_attached(self, domain: int, treeling: int) -> None:
        if self.tracer.enabled:
            self.tracer.instant("domain", "treeling_attach",
                                domain=domain, treeling=treeling)

    def _chain_of(self, domain: int) -> ChainedNFL:
        chain = self._chains.get(domain)
        if chain is None:
            raise KeyError(f"domain {domain} was never started")
        return chain

    def _nfl_charge(self, domain: int, touched: tuple[int, ...],
                    now: float) -> float:
        """Charge NFLB lookups for the NFL blocks an operation touched."""
        nflb = self._nflb[domain]
        tracing = self.tracer.enabled
        lat = 0.0
        for addr in touched:
            hit, evicted = nflb.access(addr)
            if tracing:
                self.tracer.instant("nfl", "hit" if hit else "miss",
                                    ts=now + lat, domain=domain, addr=addr)
            if hit:
                self.stats.nflb_hits += 1
            else:
                self.stats.nflb_misses += 1
                lat += self._read_meta(addr, now + lat)
            if evicted is not None:
                self._write_meta(evicted, now + lat)
        return lat

    # -- domain lifecycle -----------------------------------------------------------------

    def on_domain_start(self, domain: int) -> None:
        super().on_domain_start(domain)
        if domain in self._chains:
            return
        self.pool.create_domain(domain)
        self._chains[domain] = ChainedNFL()
        self._nflb[domain] = NFLBuffer(self.config.ivleague.nflb_entries)

    def on_domain_end(self, domain: int) -> None:
        super().on_domain_end(domain)
        self.pool.destroy_domain(domain)
        self._chains.pop(domain, None)
        self._nflb.pop(domain, None)

    # -- page lifecycle ---------------------------------------------------------------------

    def _alloc_from(self, domain: int, chain: ChainedNFL, now: float,
                    allow_grow: bool) -> tuple[NFLOp, float]:
        """NFL allocation; optionally attaches TreeLings on exhaustion."""
        lat = 0.0
        while True:
            op = chain.alloc()
            lat += self._nfl_charge(domain, op.touched_blocks, now + lat)
            if op.ok or not allow_grow:
                return op, lat
            treeling = self.pool.assign_treeling(domain)
            chain.append_treeling(treeling, self._node_order(treeling),
                                  self._initial_avail(treeling))
            self._on_treeling_attached(domain, treeling)

    def _alloc_slot(self, domain: int, chain: ChainedNFL,
                    now: float) -> tuple[NFLOp, float]:
        """NFL allocation, attaching TreeLings until a slot is found."""
        return self._alloc_from(domain, chain, now, allow_grow=True)

    def _free_slot(self, domain: int, node_global: int, slot: int,
                   now: float) -> float:
        """Return a page's slot to the domain's NFL; returns the latency
        of the NFL blocks touched."""
        op = self._chain_of(domain).free(node_global, slot)
        return self._nfl_charge(domain, op.touched_blocks, now)

    def _post_alloc(self, domain: int, chain: ChainedNFL, op: NFLOp,
                    now: float) -> tuple[NFLOp, float]:
        """Hook for IvLeague-Invert's slot-to-parent conversion."""
        return op, 0.0

    def on_page_alloc(self, domain: int, pfn: int, now: float) -> float:
        if pfn in self._live_pages:
            # A second slot would orphan the first: its domain could
            # never free it.
            raise ValueError(f"pfn {pfn} is already mapped")
        self.stats.page_allocs += 1
        if self.tracer.enabled:
            # Engine entry point: NFL touches below belong to ``domain``.
            self.tracer.cur_domain = domain
        chain = self._chain_of(domain)
        op, lat = self._alloc_slot(domain, chain, now)
        op, extra = self._post_alloc(domain, chain, op, now + lat)
        lat += extra
        slot_id = op.node_global * TREE_ARITY + op.slot
        self.leafmap.set(pfn, slot_id)
        self._slot_pfn[slot_id] = pfn
        self.lmm_cache.insert(pfn, slot_id)
        # The LMM field is written as part of the same PTE store the OS
        # issues for the mapping itself, so no extra memory write is
        # charged here (it would be common to every scheme).
        return lat

    def on_page_free(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_frees += 1
        if self.tracer.enabled:
            self.tracer.cur_domain = domain
        self._page_writes.pop(pfn, None)
        slot_id = self.leafmap.pop(pfn)
        self._slot_pfn.pop(slot_id, None)
        self.lmm_cache.invalidate(pfn)
        node_global, slot = divmod(slot_id, TREE_ARITY)
        return self._free_slot(domain, node_global, slot, now)

    # -- verification -----------------------------------------------------------------------

    def _resolve_slot(self, pfn: int, now: float) -> tuple[SlotRef, float]:
        """Follow a stale LMM entry through ``is_parent`` flags
        (IvLeague-Invert lazy fix-up, Fig. 12c).  The stale slot became a
        parent; the hardware reads the old node, sees rho=1 and descends
        to the child's relocated slot, then rewrites the LMM."""
        true_slot = self.leafmap.get(pfn)
        ref = self.geometry.decode_slot(true_slot)
        node_addr = self.geometry.slot_node_addr(ref)
        lat = 0.0
        if not self._tree_probe(node_addr):
            lat += self._read_meta(node_addr, now)
            wb = self._tree_fill(node_addr)
            if wb is not None:
                self._write_meta(wb, now + lat)
        self.leafmap.clear_stale(pfn)
        self.lmm_cache.insert(pfn, true_slot)
        self._write_meta(self.leafmap.pte_block_addr(pfn), now + lat)
        return ref, lat

    def _locate(self, pfn: int, now: float) -> tuple:
        """LMM probe, then the TreeLing path of the page's slot; it ends
        below the locked on-chip parent of the TreeLing root, so no
        in-memory node is shared with another domain.

        The dynamic page-to-slot mapping means the path is *not* pure in
        the PFN -- but the LMM probe must run on every counter miss
        anyway (its hit/miss stats, LRU state and PTE reads are
        observables), and it yields the current slot id.  The path memo
        is therefore keyed by the *resolved slot id*, of which the slot
        and its address list are pure functions, so TreeLing churn,
        Invert conversions and Pro migrations need no invalidation
        hooks: a remapped page simply resolves to a different (memoized)
        slot.  Stale mappings take the ``_resolve_slot`` fix-up first.
        """
        stats = self.stats
        instrumented = self._instrumented
        # On-chip LMM cache probe; a miss reads the PTE block.
        cached = self.lmm_cache.lookup(pfn)
        if cached is not None:
            stats.lmm_hits += 1
            if instrumented:
                self.tracer.instant("engine", "lmm_hit", ts=now, pfn=pfn)
            slot_id = cached
            clock = now + self._lmm_hit_lat
        else:
            stats.lmm_misses += 1
            if instrumented:
                self.tracer.instant("engine", "lmm_miss", ts=now, pfn=pfn)
            clock = now + self._read_meta(self.leafmap.pte_block_addr(pfn),
                                          now)
            slot_id = self.leafmap.get(pfn)
            self.lmm_cache.insert(pfn, slot_id)
        geo = self.geometry
        if self.leafmap.is_stale(pfn):
            ref, fix_lat = self._resolve_slot(pfn, clock)
            clock += fix_lat
            paddrs = geo.path_addrs(ref.treeling, ref.level, ref.node_index)
        else:
            rec = self._path_memo.get(slot_id)
            if rec is None:
                ref = geo.decode_slot(slot_id)
                rec = self._path_memo[slot_id] = (ref, geo.path_addrs(
                    ref.treeling, ref.level, ref.node_index))
                self.tree_cache.prime_candidates(rec[1])
            ref, paddrs = rec
        return (clock, paddrs, ref.level,
                {"treeling": ref.treeling} if instrumented else None)

    # -- Fig. 17b metrics -----------------------------------------------------------------------

    def untracked_slots(self) -> int:
        return sum(c.leaked_slots for c in self._chains.values())

    def treeling_utilization(self) -> float:
        """1 - untracked/total over all allocated TreeLings (Fig. 17b)."""
        total = sum(c.total_slots() for c in self._chains.values())
        if total == 0:
            return 1.0
        return 1.0 - self.untracked_slots() / total
