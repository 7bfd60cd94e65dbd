"""Static integrity-tree geometry + functional Bonsai Merkle Tree.

Two decoupled pieces:

* :class:`TreeGeometry` -- the shape and address mapping of every static
  tree in the model: the global 8-ary BMT and SGX counter tree, VAULT's
  16/32/64-ary tree, a static partition's subtree and the on-chip cone
  above the TreeLing roots.  How many levels, which tree-node block
  verifies a given counter block, parent links, and tagged physical
  addresses for every node.  The timing engines use only this (presence
  in caches is what costs cycles).

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
    """Static tree shape over ``n_counter_blocks`` counter blocks.

    ``arities`` gives each level's fan-in, leaf level first; the last
    one repeats up to the root (``(8,)`` is the 8-ary BMT, VAULT's
    ``(16, 32, 64)`` widens upwards).  Node blocks are numbered level by
    level from the leaves, starting ``region`` blocks into the TREE
    space, so trees over disjoint regions never share a block.
    """

    def __init__(self, n_counter_blocks: int,
                 arities: tuple[int, ...] = (TREE_ARITY,),
                 region: int = 0) -> None:
        if n_counter_blocks <= 0:
            raise ValueError("need at least one counter block")
        self.n_counter_blocks = n_counter_blocks
        per_level, sizes, spans = [], [], []
        n, span = n_counter_blocks, 1
        while True:
            arity = arities[min(len(sizes), len(arities) - 1)]
            n = (n + arity - 1) // arity
            span *= arity
            per_level.append(arity)
            sizes.append(n)
            spans.append(span)
            if n == 1:
                break
        #: fan-in per level, index 0 = level 1 (leaves).
        self.arities: tuple[int, ...] = tuple(per_level)
        #: nodes per level, index 0 = level 1 (leaves).
        self.level_sizes: tuple[int, ...] = tuple(sizes)
        #: counter blocks under one node per level: a counter block's
        #: ancestor at level ``l`` is ``counter_block // spans[l - 1]``
        #: (floor division composes).
        self.spans: tuple[int, ...] = tuple(spans)
        self.height = len(sizes)
        bases, base = [], region
        for s in sizes:
            bases.append(base)
            base += s
        self._level_base = bases
        self.total_nodes = base - region
        # (tagged address of node 0, span) per level below the on-chip
        # root: node blocks within a level are consecutive, so a path
        # address is ``tagged_base + counter_block // span``.
        self._walk = [(spaces.tag(spaces.TREE, b), s)
                      for b, s in zip(bases[:-1], spans)]

    # -- structure ------------------------------------------------------------

    def _check(self, counter_block: int) -> None:
        if not 0 <= counter_block < self.n_counter_blocks:
            raise IndexError(f"counter block {counter_block} out of range")

    def leaf_for_counter(self, counter_block: int) -> NodeId:
        self._check(counter_block)
        return NodeId(1, counter_block // self.arities[0])

    def parent(self, node: NodeId) -> NodeId:
        if node.level >= self.height:
            raise ValueError("the root has no parent")
        return NodeId(node.level + 1,
                      node.index // self.arities[node.level])

    def children(self, node: NodeId) -> list[NodeId]:
        if node.level <= 1:
            raise ValueError("leaf nodes have counter blocks as children")
        arity = self.arities[node.level - 1]
        lo = node.index * arity
        hi = min(lo + arity, self.level_sizes[node.level - 2])
        return [NodeId(node.level - 1, i) for i in range(lo, hi)]

    def counter_children(self, leaf: NodeId) -> list[int]:
        if leaf.level != 1:
            raise ValueError("only level-1 nodes cover counter blocks")
        lo = leaf.index * self.arities[0]
        hi = min(lo + self.arities[0], self.n_counter_blocks)
        return list(range(lo, hi))

    def path_to_root(self, counter_block: int) -> list[NodeId]:
        """Verification path, leaf first, root last."""
        self._check(counter_block)
        return [NodeId(level, counter_block // span)
                for level, span in enumerate(self.spans, 1)]

    # -- physical addressing ----------------------------------------------------

    def path_addrs(self, counter_block: int) -> list[int]:
        """Tagged addresses of the verification path, leaf first, *root
        excluded* (the root is on-chip and never fetched).

        Equivalent to ``[node_addr(n) for n in path_to_root(cb)[:-1]]``
        but without materialising a :class:`NodeId` per level.
        """
        self._check(counter_block)
        return [base + counter_block // span for base, span in self._walk]

    def node_addr(self, node: NodeId) -> int:
        """Tagged block address of a node (one node = one 64B block)."""
        if not 1 <= node.level <= self.height:
            raise IndexError(f"level {node.level} out of range")
        if not 0 <= node.index < self.level_sizes[node.level - 1]:
            raise IndexError(f"node {node} out of range")
        return spaces.tag(spaces.TREE,
                          self._level_base[node.level - 1] + node.index)


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
        for level, arity in enumerate(self.geo.arities, 1):
            out.append(keyed_hash(self._key, b"zero-node",
                                  level.to_bytes(2, "little"),
                                  out[-1] * arity,
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
        arity = geo.arities[level - 1]
        lo = index * arity
        child_zero = self._zero_hash[level - 1]
        if level == 1:
            hi = min(lo + arity, geo.n_counter_blocks)
            blocks = self.counters._blocks
            serialize = self.counters.serialize
            prefix = self._ctr_prefix
            children = b"".join([
                self._hash(prefix, c, serialize(c)) if c in blocks
                else child_zero for c in range(lo, hi)])
        else:
            hi = min(lo + arity, geo.level_sizes[level - 2])
            stored = self._node_hash.get
            below = level - 1
            children = b"".join([stored((below, c), child_zero)
                                 for c in range(lo, hi)])
        if children == child_zero * (hi - lo):
            return self._zero_hash[level]
        return self._hash(self._node_prefix[level], index, children)

    def _path(self, counter_block: int) -> list[tuple[int, int]]:
        """``(level, index)`` of each node from the leaf to the root."""
        self.geo._check(counter_block)
        return [(level, counter_block // span)
                for level, span in enumerate(self.geo.spans, 1)]

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
        indices = blocks
        for level, arity in enumerate(self.geo.arities, 1):
            indices = {i // arity for i in indices}
            for index in indices:
                node_hash[(level, index)] = self._compute_node(level, index)
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
