"""IvLeague variants using the naive bit-vector allocators (Fig. 17a).

Same architecture as IvLeague-Basic, but TreeLing slot management uses
:class:`repro.core.bitvector.BitVectorAllocator` instead of the NFL:

* ``IvLeagueBVv1Engine`` -- per-TreeLing vectors, deallocations outside
  the active TreeLing are lost; under churny workloads the TreeLing pool
  drains and allocation eventually *fails* (TreeLingStarvation), which
  is the paper's "x" marker for Medium/Large workloads.
* ``IvLeagueBVv2Engine`` -- cross-TreeLing reclamation; correct, but an
  allocation may scan every bit vector of the domain, and the scan (bit
  reads from memory plus sequential compare cycles) sits on the page
  allocation critical path -- the paper's 33-47% slowdown.
"""

from __future__ import annotations

from repro.core.bitvector import BitVectorAllocator, BVOp
from repro.core.ivleague import IvLeagueBasicEngine
from repro.sim.config import MachineConfig, TREE_ARITY

#: Cycles to scan one 64-bit word of availability bits.
SCAN_CYCLES_PER_WORD = 1


class _BVBase(IvLeagueBasicEngine):
    """Common plumbing: replaces the per-domain NFL chain with a BV."""

    cross_treeling = False

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        super().__init__(config, seed)
        self._bvs: dict[int, BitVectorAllocator] = {}

    def on_domain_start(self, domain: int) -> None:
        super().on_domain_start(domain)
        if domain not in self._bvs:
            self._bvs[domain] = BitVectorAllocator(
                slots_per_node=TREE_ARITY,
                cross_treeling=self.cross_treeling)

    def on_domain_end(self, domain: int) -> None:
        super().on_domain_end(domain)
        self._bvs.pop(domain, None)

    # -- charging ---------------------------------------------------------------

    def _bv_charge(self, op: BVOp, now: float) -> float:
        lat = 0.0
        for addr in op.touched_blocks:
            lat += self._read_meta(addr, now + lat)
        lat += (op.bits_scanned // 64 + 1) * SCAN_CYCLES_PER_WORD
        return lat

    # -- allocation / deallocation -------------------------------------------------

    def on_page_alloc(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_allocs += 1
        bv = self._bvs[domain]
        lat = 0.0
        while True:
            op = bv.alloc()
            lat += self._bv_charge(op, now + lat)
            if op.ok:
                break
            treeling = self.pool.assign_treeling(domain)  # may starve
            bv.append_treeling(treeling, self._node_order(treeling))
        slot_id = op.node_global * TREE_ARITY + op.slot
        self.leafmap.set(pfn, slot_id)
        self._slot_pfn[slot_id] = pfn
        self.lmm_cache.insert(pfn, slot_id)
        return lat

    def on_page_free(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_frees += 1
        self._page_writes.pop(pfn, None)
        slot_id = self.leafmap.pop(pfn)
        self._slot_pfn.pop(slot_id, None)
        self.lmm_cache.invalidate(pfn)
        node_global, slot = divmod(slot_id, TREE_ARITY)
        op = self._bvs[domain].free(node_global, slot)
        return self._bv_charge(op, now)

    # -- Fig. 17b-style metrics --------------------------------------------------------

    def lost_frees(self) -> int:
        return sum(bv.lost_frees for bv in self._bvs.values())


class IvLeagueBVv1Engine(_BVBase):
    name = "ivleague-bv1"
    cross_treeling = False


class IvLeagueBVv2Engine(_BVBase):
    name = "ivleague-bv2"
    cross_treeling = True
