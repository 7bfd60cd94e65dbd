"""Bonsai Merkle Tree: geometry (address mapping) + functional hash tree.

Two decoupled pieces:

* :class:`TreeGeometry` -- the static address mapping of the global 8-ary
  BMT: how many levels, which tree-node block verifies a given counter
  block, parent links, and tagged physical addresses for every node.  The
  timing engines use only this (presence in caches is what costs cycles).

* :class:`BonsaiMerkleTree` -- a fully functional hash tree over a
  :class:`repro.secure.counters.CounterStore` with real digests, used by
  unit/property tests and the attack demo to prove tamper/replay
  detection end-to-end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.mem import spaces
from repro.secure.counters import CounterStore
from repro.secure.crypto import keyed_hash
from repro.sim.config import TREE_ARITY


@dataclass(frozen=True, slots=True)
class NodeId:
    """A tree node: level 1 = leaf hash nodes, ``height`` = the root."""

    level: int
    index: int


class TreeGeometry:
    """Static 8-ary tree shape over ``n_counter_blocks`` counter blocks."""

    def __init__(self, n_counter_blocks: int,
                 arity: int = TREE_ARITY) -> None:
        if n_counter_blocks <= 0:
            raise ValueError("need at least one counter block")
        self.arity = arity
        self.n_counter_blocks = n_counter_blocks
        sizes = []
        n = n_counter_blocks
        while True:
            n = (n + arity - 1) // arity
            sizes.append(n)
            if n == 1:
                break
        #: nodes per level, index 0 = level 1 (leaves).
        self.level_sizes: tuple[int, ...] = tuple(sizes)
        self.height = len(sizes)
        bases = []
        base = 0
        for s in sizes:
            bases.append(base)
            base += s
        self._level_base = bases
        self.total_nodes = base
        # Tagged address of node 0 per level: node blocks within a level
        # are consecutive, so ``tagged_base + index`` equals
        # ``spaces.tag(spaces.TREE, level_base + index)`` without paying
        # the shift-and-or per node on the verification hot path.
        self._tagged_level_base = [spaces.tag(spaces.TREE, b)
                                   for b in bases]

    # -- structure ------------------------------------------------------------

    def leaf_for_counter(self, counter_block: int) -> NodeId:
        if not 0 <= counter_block < self.n_counter_blocks:
            raise IndexError(f"counter block {counter_block} out of range")
        return NodeId(1, counter_block // self.arity)

    def parent(self, node: NodeId) -> NodeId:
        if node.level >= self.height:
            raise ValueError("the root has no parent")
        return NodeId(node.level + 1, node.index // self.arity)

    def children(self, node: NodeId) -> list[NodeId]:
        if node.level <= 1:
            raise ValueError("leaf nodes have counter blocks as children")
        lo = node.index * self.arity
        hi = min(lo + self.arity, self.level_sizes[node.level - 2])
        return [NodeId(node.level - 1, i) for i in range(lo, hi)]

    def counter_children(self, leaf: NodeId) -> list[int]:
        if leaf.level != 1:
            raise ValueError("only level-1 nodes cover counter blocks")
        lo = leaf.index * self.arity
        hi = min(lo + self.arity, self.n_counter_blocks)
        return list(range(lo, hi))

    def path_to_root(self, counter_block: int) -> list[NodeId]:
        """Verification path, leaf first, root last."""
        node = self.leaf_for_counter(counter_block)
        path = [node]
        while node.level < self.height:
            node = self.parent(node)
            path.append(node)
        return path

    # -- physical addressing ----------------------------------------------------

    def path_addrs(self, counter_block: int) -> list[int]:
        """Tagged addresses of the verification path, leaf first, *root
        excluded* (the root is on-chip and never fetched).

        Equivalent to ``[node_addr(n) for n in path_to_root(cb)[:-1]]``
        but without materialising a :class:`NodeId` per level -- this is
        the innermost loop of every timing engine.
        """
        if not 0 <= counter_block < self.n_counter_blocks:
            raise IndexError(f"counter block {counter_block} out of range")
        arity = self.arity
        idx = counter_block
        out = []
        for base in self._tagged_level_base[:self.height - 1]:
            idx //= arity
            out.append(base + idx)
        return out

    def node_addr(self, node: NodeId) -> int:
        """Tagged block address of a node (one node = one 64B block)."""
        if not 1 <= node.level <= self.height:
            raise IndexError(f"level {node.level} out of range")
        if not 0 <= node.index < self.level_sizes[node.level - 1]:
            raise IndexError(f"node {node} out of range")
        return spaces.tag(spaces.TREE,
                          self._level_base[node.level - 1] + node.index)

    def counter_addr(self, counter_block: int) -> int:
        return spaces.tag(spaces.COUNTER, counter_block)


def _frame(part: bytes) -> bytes:
    """``part`` as :func:`keyed_hash` frames it: 4-byte length, bytes."""
    return len(part).to_bytes(4, "little") + part


#: Frame header of an 8-byte node or counter-block index.
_FRAMED_INDEX = (8).to_bytes(4, "little")


class TamperDetected(Exception):
    """Integrity verification failed: memory contents were altered."""


class BonsaiMerkleTree:
    """Functional BMT with real digests over a counter store.

    The stored state (`_node_hash`) models what sits in untrusted memory;
    only the root is implicitly trusted (kept "on chip").  ``tamper_*``
    methods act as the physical adversary.

    Every node hash goes through :meth:`_compute_node`, which reads the
    node's children one level down: counter blocks at level 1, stored
    node hashes above.  :meth:`refresh_path` and :meth:`verify` walk one
    leaf-to-root path with it; :meth:`rebuild` sweeps it bottom-up over
    every materialised counter block.
    """

    HASH_BYTES = 8  # 8 hashes x 8B per 64B node

    def __init__(self, geometry: TreeGeometry, counters: CounterStore,
                 key: bytes = b"ivleague-bmt-key") -> None:
        self.geo = geometry
        self.counters = counters
        self._key = key
        self._node_hash: dict[tuple[int, int], bytes] = {}
        # Keying blake2b costs a compression; every hash copies this
        # pre-keyed state instead.  The inputs are framed exactly like
        # keyed_hash(key, b"ctr", index, payload) and
        # keyed_hash(key, b"node", level, index, children).
        self._keyed = hashlib.blake2b(key=key[:64],
                                      digest_size=self.HASH_BYTES)
        self._ctr_prefix = _frame(b"ctr") + _FRAMED_INDEX
        self._node_prefix = [_frame(b"node")
                             + _frame(level.to_bytes(2, "little"))
                             + _FRAMED_INDEX
                             for level in range(geometry.height + 1)]
        # Counter blocks are lazily zero; hashes of all-zero subtrees are
        # deterministic, so compute them once per level.
        self._zero_hash = self._build_zero_hashes()
        self._root = self._zero_hash[self.geo.height]

    # -- hashing helpers --------------------------------------------------------

    def _hash(self, prefix: bytes, index: int, payload: bytes) -> bytes:
        """Keyed hash of ``prefix`` (the framed parts before the index),
        then ``index`` and ``payload``, each framed."""
        h = self._keyed.copy()
        h.update(b"".join((prefix, index.to_bytes(8, "little"),
                           _frame(payload))))
        return h.digest()

    def _build_zero_hashes(self) -> list[bytes]:
        """zero_hash[l] = stored hash of an untouched node at level l."""
        zero_ctr = keyed_hash(self._key, b"zero-ctr",
                              digest_size=self.HASH_BYTES)
        out = [zero_ctr]
        for level in range(1, self.geo.height + 1):
            child = out[-1]
            out.append(keyed_hash(self._key, b"zero-node",
                                  level.to_bytes(2, "little"),
                                  child * self.geo.arity,
                                  digest_size=self.HASH_BYTES))
        return out

    def _compute_node(self, level: int, index: int) -> bytes:
        """Hash of node ``(level, index)`` over its children's current
        hashes (one level down only).

        Untouched counter blocks and unstored nodes count as the
        canonical per-level zero hash, and a node whose children all do
        is itself the zero hash, so a lazily-materialised tree verifies
        without instantiating every node.
        """
        geo = self.geo
        lo = index * geo.arity
        child_zero = self._zero_hash[level - 1]
        if level == 1:
            hi = min(lo + geo.arity, geo.n_counter_blocks)
            blocks = self.counters._blocks
            serialize = self.counters.serialize
            prefix = self._ctr_prefix
            children = b"".join([
                self._hash(prefix, c, serialize(c)) if c in blocks
                else child_zero for c in range(lo, hi)])
        else:
            hi = min(lo + geo.arity, geo.level_sizes[level - 2])
            stored = self._node_hash.get
            below = level - 1
            children = b"".join([stored((below, c), child_zero)
                                 for c in range(lo, hi)])
        if children == child_zero * (hi - lo):
            return self._zero_hash[level]
        return self._hash(self._node_prefix[level], index, children)

    def _path(self, counter_block: int):
        """``(level, index)`` of each node from the leaf to the root."""
        if not 0 <= counter_block < self.geo.n_counter_blocks:
            raise IndexError(f"counter block {counter_block} out of range")
        arity = self.geo.arity
        index = counter_block
        for level in range(1, self.geo.height + 1):
            index //= arity
            yield level, index

    # -- public API ---------------------------------------------------------------

    @property
    def root(self) -> bytes:
        return self._root

    def update_counter(self, page: int, block_in_page: int) -> None:
        """Write path: bump the counter and refresh the path to the root."""
        self.counters.increment(page, block_in_page)
        self.refresh_path(page)

    def refresh_path(self, counter_block: int) -> None:
        """Recompute stored hashes along the path after a counter change."""
        node_hash = self._node_hash
        for node in self._path(counter_block):
            node_hash[node] = self._compute_node(*node)
        self._root = node_hash[(self.geo.height, 0)]

    def rebuild(self) -> bytes:
        """Discard every stored hash and rebuild the tree bottom-up from
        the counter store alone; returns the new root.

        Each leaf over a materialised counter block is hashed once, then
        each parent of the previous level once, up to the root; untouched
        subtrees keep the canonical zero hash.  The stored hashes end up
        exactly as :meth:`refresh_path` over every materialised block
        would leave them on a fresh tree.
        """
        blocks = self.counters._blocks
        if blocks and not (0 <= min(blocks) <= max(blocks)
                           < self.geo.n_counter_blocks):
            raise IndexError("counter store holds blocks outside the tree")
        node_hash = self._node_hash
        node_hash.clear()
        arity = self.geo.arity
        indices = {c // arity for c in blocks}
        for level in range(1, self.geo.height + 1):
            for index in indices:
                node_hash[(level, index)] = self._compute_node(level, index)
            indices = {i // arity for i in indices}
        self._root = node_hash.get((self.geo.height, 0),
                                   self._zero_hash[self.geo.height])
        return self._root

    def verify(self, counter_block: int) -> None:
        """Leaf-to-root verification; raises :class:`TamperDetected`."""
        stored = self._node_hash.get
        zero = self._zero_hash
        for level, index in self._path(counter_block):
            if self._compute_node(level, index) \
                    != stored((level, index), zero[level]):
                raise TamperDetected(
                    f"hash mismatch at level {level} node {index}")
        height = self.geo.height
        if stored((height, 0), zero[height]) != self._root:
            raise TamperDetected("root mismatch")

    # -- adversary ------------------------------------------------------------------

    def tamper_counter(self, page: int, block_in_page: int,
                       value: int) -> None:
        """Replay/forge a counter value in untrusted memory."""
        cb = self.counters.block(page)
        cb.minors[block_in_page] = value & cb.minor_max
        # deliberately *no* refresh_path: memory changed behind the tree

    def tamper_node(self, node: NodeId, raw: bytes) -> None:
        self._node_hash[(node.level, node.index)] = raw
