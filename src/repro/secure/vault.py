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

from repro.mem import spaces
from repro.secure.bmt import NodeId
from repro.secure.engine import BaselineEngine
from repro.sim.config import MachineConfig

#: Per-level arity, leaf level first (VAULT's 16/32/64 packing).
VAULT_ARITIES = (16, 32, 64)


class VaultGeometry:
    """Variable-arity tree shape, interface-compatible with
    :class:`repro.secure.bmt.TreeGeometry`."""

    def __init__(self, n_counter_blocks: int,
                 arities: tuple[int, ...] = VAULT_ARITIES) -> None:
        if n_counter_blocks <= 0:
            raise ValueError("need at least one counter block")
        self.n_counter_blocks = n_counter_blocks
        self.arities: list[int] = []
        sizes = []
        n = n_counter_blocks
        level = 0
        while True:
            arity = arities[min(level, len(arities) - 1)]
            self.arities.append(arity)
            n = (n + arity - 1) // arity
            sizes.append(n)
            if n == 1:
                break
            level += 1
        self.level_sizes: tuple[int, ...] = tuple(sizes)
        self.height = len(sizes)
        bases, base = [], 0
        for s in sizes:
            bases.append(base)
            base += s
        self._level_base = bases
        self.total_nodes = base
        # Tagged level-0-node addresses (with the anti-aliasing offset
        # baked in) for the hot verification walk; see
        # TreeGeometry._tagged_level_base.
        self._tagged_level_base = [
            spaces.tag(spaces.TREE, (1 << 44) + b) for b in bases]

    def _arity_of(self, level: int) -> int:
        return self.arities[level - 1]

    def leaf_for_counter(self, counter_block: int) -> NodeId:
        if not 0 <= counter_block < self.n_counter_blocks:
            raise IndexError(f"counter block {counter_block} out of range")
        return NodeId(1, counter_block // self._arity_of(1))

    def parent(self, node: NodeId) -> NodeId:
        if node.level >= self.height:
            raise ValueError("the root has no parent")
        return NodeId(node.level + 1,
                      node.index // self._arity_of(node.level + 1))

    def path_to_root(self, counter_block: int) -> list[NodeId]:
        node = self.leaf_for_counter(counter_block)
        path = [node]
        while node.level < self.height:
            node = self.parent(node)
            path.append(node)
        return path

    def path_addrs(self, counter_block: int) -> list[int]:
        """Tagged verification-path addresses, leaf first, root excluded
        (matches :meth:`repro.secure.bmt.TreeGeometry.path_addrs`)."""
        if not 0 <= counter_block < self.n_counter_blocks:
            raise IndexError(f"counter block {counter_block} out of range")
        idx = counter_block
        out = []
        for i, base in enumerate(
                self._tagged_level_base[:self.height - 1]):
            idx //= self.arities[i]
            out.append(base + idx)
        return out

    def node_addr(self, node: NodeId) -> int:
        if not 1 <= node.level <= self.height:
            raise IndexError(f"level {node.level} out of range")
        if not 0 <= node.index < self.level_sizes[node.level - 1]:
            raise IndexError(f"node {node} out of range")
        # offset past the dense-8-ary region so VAULT nodes never alias
        # the BMT's (both live in the TREE space)
        return spaces.tag(spaces.TREE,
                          (1 << 44) + self._level_base[node.level - 1]
                          + node.index)

    def counter_addr(self, counter_block: int) -> int:
        return spaces.tag(spaces.COUNTER, counter_block)


class VaultEngine(BaselineEngine):
    """Global VAULT tree: shallower walks, upper-counter overflow cost."""

    name = "vault"
    #: Writes between modelled upper-level counter overflows (narrow
    #: counters roll over far sooner than 56-bit monolithic ones).
    OVERFLOW_PERIOD = 256

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        super().__init__(config, seed)
        self.geo = VaultGeometry(config.counter_blocks)
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
