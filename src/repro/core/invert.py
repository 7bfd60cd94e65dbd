"""IvLeague-Invert: top-down on-demand TreeLing extension (Section VII-A).

The NFL tracks *every* TreeLing node, ordered top-down (root block first),
so pages map to the highest available slots and the effective
verification path stays short while the domain's footprint is small.
When allocation descends into a new level, the parent slot that covers
the new node is *converted*: if it holds a page hash, that page is
relocated into the child node's first free slot (Fig. 12b) and its LMM
entry is fixed up lazily on next access (Fig. 12c); the slot's
``is_parent`` flag (rho) is set either way.
"""

from __future__ import annotations

from repro.core.ivleague import IvLeagueBasicEngine
from repro.core.nfl import ChainedNFL, NFLOp
from repro.core.treeling import SlotRef
from repro.sim.config import TREE_ARITY


class IvLeagueInvertEngine(IvLeagueBasicEngine):
    """IvLeague with intermediate-node page mapping."""

    name = "ivleague-invert"

    # -- NFL ordering: all nodes, top-down ------------------------------------------

    def _node_order(self, treeling: int) -> list[int]:
        geo = self.geometry
        base = treeling * geo.nodes_per_treeling
        # local node numbering is already top-down (root block first).
        return [base + local for local in range(geo.nodes_per_treeling)]

    # -- allocation with conversion ----------------------------------------------------

    def _post_alloc(self, domain: int, chain: ChainedNFL, op: NFLOp,
                    now: float) -> tuple[NFLOp, float]:
        ref = self.geometry.decode_slot(op.node_global * TREE_ARITY + op.slot)
        lat = 0.0
        if ref.level < self.geometry.height:
            pl, pi, ps = self.geometry.parent_of(ref.level, ref.node_index)
            lat = self._make_parent(domain, chain, ref.treeling,
                                    pl, pi, ps, now)
        return op, lat

    def _make_parent(self, domain: int, chain: ChainedNFL, treeling: int,
                     level: int, index: int, slot: int, now: float) -> float:
        """Ensure slot ``slot`` of node (level, index) carries rho=1.

        If the slot currently maps a page, relocate that page to a freshly
        NFL-allocated slot (the child node's first free slot in the common
        frontier case, per Fig. 12b) and mark its LMM stale.
        """
        geo = self.geometry
        sid = geo.slot_id(SlotRef(treeling, level, index, slot))
        if sid in self._parent_slots:
            return 0.0
        lat = 0.0
        if level < geo.height:
            gl, gi, gs = geo.parent_of(level, index)
            lat += self._make_parent(domain, chain, treeling,
                                     gl, gi, gs, now)
        node_global = sid // TREE_ARITY
        if sid in self._slot_pfn:
            relocated = self._slot_pfn.pop(sid)
            self._parent_slots.add(sid)
            dest, alat = self._alloc_from(
                domain, chain, now + lat,
                allow_grow=chain is self._chains.get(domain))
            lat += alat
            if not dest.ok:
                # Hot-region chain ran dry mid-conversion: fall back to
                # the regular chain for the relocation target.
                dest, alat = self._alloc_from(
                    domain, self._chains[domain], now + lat, allow_grow=True)
                lat += alat
            dest_sid = dest.node_global * TREE_ARITY + dest.slot
            dref = geo.decode_slot(dest_sid)
            if dref.level < geo.height:
                dl, di, ds = geo.parent_of(dref.level, dref.node_index)
                lat += self._make_parent(domain, chain, dref.treeling,
                                         dl, di, ds, now + lat)
            self._slot_pfn[dest_sid] = relocated
            self.leafmap.set(relocated, dest_sid, stale=True)
            self.stats.conversions += 1
            # The hash copy itself is free: the child node needs its
            # parent slot for verification anyway (paper: "this conversion
            # does not incur additional overhead").  Only the lazy LMM
            # fix-up (charged at next access) remains.
        else:
            # Free slot: consume its availability so the NFL never hands
            # out a rho=1 slot as a page slot.
            self._parent_slots.add(sid)
            rop = chain.reserve(node_global, slot)
            lat += self._nfl_charge(domain, rop.touched_blocks, now + lat)
        return lat
