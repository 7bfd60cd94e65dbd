"""IvLeague-Pro: hotpage-aware verification (paper Section VII-B).

On top of Invert, each TreeLing reserves a hot sub-region: the subtree
under the root's slot 0, with its leaf level discarded (hot pages map at
levels >= 2), so frequently accessed pages verify in one or two node
reads that are themselves hot and therefore cached.  A per-domain
access-frequency tracker in the memory controller promotes pages into
the hot region and demotes them when they cool down; both migrations use
the existing dynamic page-to-slot machinery (copy the hash, fix the
LMM), so the added hardware is just the tracker and a second NFL.
"""

from __future__ import annotations

from repro.core.hotpage import HotpageTracker
from repro.core.invert import IvLeagueInvertEngine
from repro.core.nfl import ChainedNFL, FULL_MASK
from repro.core.treeling import SlotRef
from repro.sim.config import MachineConfig, TREE_ARITY


class IvLeagueProEngine(IvLeagueInvertEngine):
    """Invert + hot region + hotpage tracker."""

    name = "ivleague-pro"

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        super().__init__(config, seed)
        self._hot_chains: dict[int, ChainedNFL] = {}
        self._trackers: dict[int, HotpageTracker] = {}
        self._hot_pages: dict[int, set[int]] = {}

    # -- hot-region geometry -------------------------------------------------------------

    def _hot_ancestor(self, level: int, index: int) -> int:
        """Index of the node's ancestor at level height-1."""
        geo = self.geometry
        return index // (geo.arity ** (geo.height - 1 - level))

    def _is_hot_local(self, local: int) -> bool:
        """Does this node belong to the reserved hot subtree (subtree 0)?"""
        geo = self.geometry
        level, index = geo.node_of_local(local)
        if level >= geo.height:
            return False
        return self._hot_ancestor(level, index) == 0

    def _node_order(self, treeling: int) -> list[int]:
        """Regular region: top-down, excluding the hot subtree."""
        geo = self.geometry
        base = treeling * geo.nodes_per_treeling
        return [base + local for local in range(geo.nodes_per_treeling)
                if not self._is_hot_local(local)]

    def _initial_avail(self, treeling: int) -> list[int] | None:
        """Reserve root slot 0 as the permanent parent of the hot subtree."""
        order = self._node_order(treeling)
        geo = self.geometry
        root_global = treeling * geo.nodes_per_treeling + geo.local_node(
            geo.height, 0)
        return [FULL_MASK & ~1 if n == root_global else FULL_MASK
                for n in order]

    def _hot_node_order(self, treeling: int) -> list[int]:
        """Hot region: top-down inside subtree 0, last level discarded."""
        geo = self.geometry
        base = treeling * geo.nodes_per_treeling
        return [base + local for local in range(geo.nodes_per_treeling)
                if self._is_hot_local(local)
                and geo.node_of_local(local)[0] >= 2]

    def _on_treeling_attached(self, domain: int, treeling: int) -> None:
        super()._on_treeling_attached(domain, treeling)
        geo = self.geometry
        # Root slot 0 permanently points at the hot subtree.
        self._parent_slots.add(
            geo.slot_id(SlotRef(treeling, geo.height, 0, 0)))
        hot_order = self._hot_node_order(treeling)
        if hot_order:  # height-2 TreeLings have no discardable last level
            self._hot_chains[domain].append_treeling(treeling, hot_order)

    # -- capacity ---------------------------------------------------------------------------

    def _hot_capacity(self, domain: int) -> int:
        n_treelings = len(self.pool.treelings_of(domain))
        return self.config.ivleague.hot_region_slots * max(n_treelings, 1)

    # -- domain lifecycle ----------------------------------------------------------------------

    def on_domain_start(self, domain: int) -> None:
        if domain not in self._hot_chains:
            iv = self.config.ivleague
            self._hot_chains[domain] = ChainedNFL()
            self._trackers[domain] = HotpageTracker(
                iv.hot_tracker_entries, iv.hot_counter_max,
                iv.hot_threshold, iv.hot_clear_interval)
            self._hot_pages[domain] = set()
        super().on_domain_start(domain)

    def on_domain_end(self, domain: int) -> None:
        super().on_domain_end(domain)
        self._hot_chains.pop(domain, None)
        self._trackers.pop(domain, None)
        self._hot_pages.pop(domain, None)

    # -- slot routing -----------------------------------------------------------------------------

    def _free_slot(self, domain: int, node_global: int, slot: int,
                   now: float) -> float:
        """A hot-region slot goes back to the hot NFL."""
        local = node_global % self.geometry.nodes_per_treeling
        if not self._is_hot_local(local):
            return super()._free_slot(domain, node_global, slot, now)
        op = self._hot_chains[domain].free(node_global, slot)
        return self._nfl_charge(domain, op.touched_blocks, now)

    # -- tracker-driven migration -----------------------------------------------------------------

    def data_access(self, domain: int, pfn: int, block_in_page: int,
                    is_write: bool, now: float) -> float:
        lat = super().data_access(domain, pfn, block_in_page, is_write, now)
        tracker = self._trackers.get(domain)
        if tracker is None:
            return lat
        event = tracker.access(pfn)
        # Migrations are off the critical path (posted copies), so they
        # add memory traffic but not access latency.
        for p in event.demote:
            self._demote(domain, p, now + lat)
        for p in event.promote:
            self._promote(domain, p, now + lat)
        return lat

    def _move_page(self, domain: int, pfn: int, dest_chain: ChainedNFL,
                   now: float) -> bool:
        """Re-map ``pfn`` onto a slot from ``dest_chain``; frees the old
        slot into the region it came from.  Returns success."""
        if pfn not in self.leafmap:
            return False
        geo = self.geometry
        grow = dest_chain is self._chains.get(domain)
        op, lat = self._alloc_from(domain, dest_chain, now, allow_grow=grow)
        if not op.ok:
            return False
        op, extra = self._post_alloc(domain, dest_chain, op, now + lat)
        lat += extra
        old_sid = self.leafmap.get(pfn)
        new_sid = op.node_global * TREE_ARITY + op.slot
        old_node, old_slot = divmod(old_sid, TREE_ARITY)
        # Copy the hash: read the old node (if not on-chip), write the
        # new one -- both posted, off the critical path.
        old_addr = geo.slot_node_addr(geo.decode_slot(old_sid))
        if not self._tree_probe(old_addr):
            self._read_meta(old_addr, now + lat)
        self._write_meta(geo.slot_node_addr(geo.decode_slot(new_sid)),
                         now + lat)
        self._slot_pfn.pop(old_sid, None)
        self._slot_pfn[new_sid] = pfn
        self.leafmap.set(pfn, new_sid)
        self.lmm_cache.insert(pfn, new_sid)
        self._write_meta(self.leafmap.pte_block_addr(pfn), now + lat)
        self._free_slot(domain, old_node, old_slot, now + lat)
        return True

    def _promote(self, domain: int, pfn: int, now: float) -> None:
        tracker = self._trackers[domain]
        hot = self._hot_pages[domain]
        if pfn in hot or pfn not in self.leafmap:
            tracker.force_demote(pfn)
            return
        if len(hot) >= self._hot_capacity(domain):
            coldest = min(hot, key=tracker.count_of, default=None)
            if coldest is None or tracker.count_of(coldest) >= \
                    tracker.count_of(pfn):
                tracker.force_demote(pfn)
                return
            self._demote(domain, coldest, now)
        if self._move_page(domain, pfn, self._hot_chains[domain], now):
            hot.add(pfn)
            self.stats.hot_migrations += 1
        else:
            tracker.force_demote(pfn)

    def _demote(self, domain: int, pfn: int, now: float) -> None:
        hot = self._hot_pages[domain]
        if pfn not in hot:
            return
        if self._move_page(domain, pfn, self._chains[domain], now):
            hot.discard(pfn)
            self._trackers[domain].force_demote(pfn)
            self.stats.hot_demotions += 1

    def on_page_free(self, domain: int, pfn: int, now: float) -> float:
        tracker = self._trackers.get(domain)
        if tracker is not None:
            tracker.forget(pfn)
        hot = self._hot_pages.get(domain)
        if hot is not None:
            hot.discard(pfn)
        return super().on_page_free(domain, pfn, now)
