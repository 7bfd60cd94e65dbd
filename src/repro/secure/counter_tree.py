"""SGX-style counter tree (paper Section II-B, "Integrity Tree Designs").

An alternative to the hash-based BMT: each 64B tree node holds eight
56-bit monolithic *version counters* plus an embedded MAC over them,
keyed by the parent's corresponding counter.  Writes increment counters
bottom-up along the path; reads verify each node's embedded MAC against
its parent counter up to the on-chip root counters.  This is the design
of the real Intel SGX MEE -- and the tree the paper's Fig. 3 attack was
demonstrated against.

Two artefacts:

* :class:`CounterTree` -- functional model with real MACs and replay
  detection (tests).
* :class:`SgxCounterTreeEngine` -- a timing engine variant of the
  Baseline: identical sharing structure (still a *global* tree, still
  leaks through shared nodes) but with the counter-tree write path,
  where every write must update the whole path, not just the leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.secure.bmt import TreeGeometry
from repro.secure.crypto import keyed_hash
from repro.secure.engine import BaselineEngine
from repro.sim.config import TREE_ARITY


class CounterTreeTamper(Exception):
    """Embedded-MAC check failed somewhere along the path."""


@dataclass
class _CtNode:
    """One 64B counter-tree node: 8 version counters + embedded MAC."""

    counters: list[int] = field(default_factory=lambda: [0] * TREE_ARITY)
    mac: bytes = b""


class CounterTree:
    """Functional SGX-style counter tree over ``n_blocks`` data blocks."""

    MAC_BYTES = 8

    def __init__(self, n_blocks: int, key: bytes = b"sgx-mee-key") -> None:
        if n_blocks < 1:
            raise ValueError("need at least one protected block")
        self.n_blocks = n_blocks
        self._key = key
        geo = TreeGeometry(n_blocks)
        self.level_sizes = geo.level_sizes   # index 0 = leaf node level
        self.height = geo.height
        self._nodes: dict[tuple[int, int], _CtNode] = {}
        #: the root node's counters live on-chip (trusted).
        self.root = _CtNode()
        self._refresh_macs_cache: dict[tuple[int, int], bytes] = {}

    # -- structure -----------------------------------------------------------------

    def _node(self, level: int, index: int) -> _CtNode:
        if level == self.height - 1:
            return self.root
        node = self._nodes.get((level, index))
        if node is None:
            node = _CtNode()
            self._nodes[(level, index)] = node
        return node

    def _parent_of(self, level: int, index: int) -> tuple[int, int, int]:
        return level + 1, index // TREE_ARITY, index % TREE_ARITY

    def _embedded_mac(self, level: int, index: int,
                      parent_counter: int) -> bytes:
        node = self._node(level, index)
        payload = b"".join(c.to_bytes(7, "little") for c in node.counters)
        return keyed_hash(self._key, b"ct",
                          level.to_bytes(2, "little"),
                          index.to_bytes(8, "little"),
                          parent_counter.to_bytes(8, "little"),
                          payload, digest_size=self.MAC_BYTES)

    # -- operations ------------------------------------------------------------------

    def write(self, block: int) -> int:
        """A protected write: bump the whole path; returns the new leaf
        version counter."""
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range")
        level, index, slot = 0, block // TREE_ARITY, block % TREE_ARITY
        while True:
            node = self._node(level, index)
            node.counters[slot] += 1
            if level == self.height - 1:
                break
            plevel, pindex, pslot = self._parent_of(level, index)
            # the parent counter increments too, re-keying our MAC
            parent = self._node(plevel, pindex)
            parent_counter = parent.counters[pslot] + 1
            node.mac = self._embedded_mac(level, index, parent_counter)
            level, index, slot = plevel, pindex, pslot
        return self._node(0, block // TREE_ARITY).counters[
            block % TREE_ARITY]

    def verify(self, block: int) -> int:
        """Walk leaf-to-root checking embedded MACs; returns the leaf
        version counter.  Raises :class:`CounterTreeTamper` on replay."""
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range")
        level, index = 0, block // TREE_ARITY
        while level < self.height - 1:
            plevel, pindex, pslot = self._parent_of(level, index)
            parent_counter = self._node(plevel, pindex).counters[pslot]
            node = self._node(level, index)
            if node.mac != self._embedded_mac(level, index,
                                              parent_counter):
                raise CounterTreeTamper(
                    f"embedded MAC mismatch at level {level}, "
                    f"node {index}")
            level, index = plevel, pindex
        return self._node(0, block // TREE_ARITY).counters[
            block % TREE_ARITY]

    # -- adversary ---------------------------------------------------------------------

    def tamper_counter(self, level: int, index: int, slot: int,
                       value: int) -> None:
        """Roll a counter in untrusted memory back/forward."""
        if level == self.height - 1:
            raise PermissionError("root counters are on-chip")
        self._node(level, index).counters[slot] = value

    def replay_node(self, level: int, index: int) -> _CtNode:
        node = self._node(level, index)
        return _CtNode(list(node.counters), node.mac)

    def apply_replay(self, level: int, index: int,
                     snapshot: _CtNode) -> None:
        if level == self.height - 1:
            raise PermissionError("root counters are on-chip")
        self._nodes[(level, index)] = _CtNode(list(snapshot.counters),
                                              snapshot.mac)


class SgxCounterTreeEngine(BaselineEngine):
    """Timing engine: global SGX-style counter tree.

    Sharing structure and read path match the hash-BMT baseline; the
    write path differs fundamentally: a write updates *every* node up to
    the first cached one (counters increment along the whole path), so
    write-heavy workloads pay more metadata write traffic.  Still a
    global tree -- the MetaLeak attack works identically against it
    (this is the configuration of the paper's real-SGX demo).
    """

    name = "sgx-counter-tree"

    def _verify(self, domain: int, pfn: int, now: float,
                for_write: bool) -> float:
        lat = super()._verify(domain, pfn, now, for_write)
        if for_write:
            # Counter-tree write: the path's nodes are dirtied up to the
            # first cached level (they hold incremented counters now).
            # ``touch_dirty`` probes each node once (contains + dirty
            # lookup fused).  A counter hit walks nothing, so the path
            # may not be memoized yet.
            paddrs = self._path_memo.get(pfn)
            if paddrs is None:
                paddrs = self._locate(pfn, now)[1]
            fill_at = now + lat
            touch = self.tree_cache.touch_dirty
            tree_fill = self._tree_fill
            write_meta = self._write_meta
            for addr in paddrs:
                if touch(addr):
                    break
                wb = tree_fill(addr, True)
                if wb is not None:
                    write_meta(wb, fill_at)
        return lat
