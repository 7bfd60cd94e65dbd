"""VAULT-style variable-arity integrity tree (related work, paper §XI).

VAULT (Taassori et al., ASPLOS'18) reduces integrity-tree height by
increasing node arity up the tree: leaf nodes keep small per-block
counters (arity 16 here), upper levels pack narrower version counters
(arity 32, then 64).  Fewer levels means shorter worst-case verification
walks, at the cost of more frequent counter overflows in the narrow
upper counters (charged per write here).

Included as a comparator on the same substrate: still a *global* tree,
so it inherits the baseline's metadata side channel — IvLeague is
orthogonal and could be built over VAULT-shaped TreeLings.
"""

from __future__ import annotations

from repro.secure.bmt import TreeGeometry
from repro.secure.engine import BaselineEngine
from repro.sim.config import MachineConfig

#: Per-level arity, leaf level first (VAULT's 16/32/64 packing).
VAULT_ARITIES = (16, 32, 64)


class VaultEngine(BaselineEngine):
    """Global VAULT tree: shallower walks, upper-counter overflow cost."""

    name = "vault"
    #: Writes between modelled upper-level counter overflows (narrow
    #: counters roll over far sooner than 56-bit monolithic ones).
    OVERFLOW_PERIOD = 256

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        super().__init__(config, seed)
        # Offset past the 8-ary BMT's region so VAULT nodes never alias
        # its blocks (both live in the TREE space).
        self.geo = TreeGeometry(config.counter_blocks, VAULT_ARITIES,
                                region=1 << 44)
        self._node_writes: dict[int, int] = {}
        self.upper_overflows = 0
        # pfn -> leaf node address; pure in pfn (static geometry), so it
        # is memoized off the per-writeback path.
        self._leaf_addr: dict[int, int] = {}

    def register_stats(self, registry) -> None:
        super().register_stats(registry)
        registry.register("engine", self, ("upper_overflows",))

    def handle_writeback(self, domain: int, pfn: int, block_in_page: int,
                         now: float) -> None:
        super().handle_writeback(domain, pfn, block_in_page, now)
        # narrow upper counters overflow periodically: the node's
        # children must be re-MACed (one read+write per child group)
        addr = self._leaf_addr.get(pfn)
        if addr is None:
            addr = self._leaf_addr[pfn] = self.geo.node_addr(
                self.geo.leaf_for_counter(pfn))
        writes = self._node_writes.get(addr, 0) + 1
        if writes >= self.OVERFLOW_PERIOD:
            writes = 0
            self.upper_overflows += 1
            if self.tracer.enabled:
                self.tracer.instant("tree", "vault_overflow", ts=now,
                                    node=addr)
            self._read_meta(addr, now)
            self._write_meta(addr, now)
        self._node_writes[addr] = writes
