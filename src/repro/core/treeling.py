"""TreeLing geometry and slot addressing (paper Section VI-B).

A TreeLing is a small, statically-addressed 8-ary subtree split off the
global integrity tree.  Nodes are 64B blocks holding ``TREE_ARITY`` hash
slots.  Levels are numbered from the bottom: level 1 = leaf nodes,
``height`` = the TreeLing root node.  The hash *of* the root node lives in
an on-chip-locked parent slot, so verification always terminates on-chip
at or before the root (the isolation guarantee).

Slots are globally identified by a packed integer so the NFL, the LMM and
the engines can exchange them cheaply::

    slot_id = (treeling_id * nodes_per_treeling + local_node) * ARITY + slot
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem import spaces
from repro.sim.config import TREE_ARITY


@dataclass(frozen=True, slots=True)
class SlotRef:
    """A fully decoded slot reference."""

    treeling: int
    level: int
    node_index: int   # index within its level, inside the TreeLing
    slot: int         # 0..ARITY-1 within the node block


class TreeLingGeometry:
    """Shape and addressing shared by every TreeLing in the system."""

    def __init__(self, height: int, arity: int = TREE_ARITY) -> None:
        if height < 1:
            raise ValueError("TreeLing height must be >= 1")
        self.height = height
        self.arity = arity
        #: nodes per level, top-first convenience: level l has arity**(h-l).
        self.level_nodes = {
            level: arity ** (height - level) for level in range(1, height + 1)
        }
        self.nodes_per_treeling = sum(self.level_nodes.values())
        #: pages covered when fully utilised (leaf slots x leaves).
        self.pages_per_treeling = arity ** height
        # local node numbering: top-down, level h first (matches the
        # IvLeague-Invert NFL ordering).
        self._level_base = {}
        base = 0
        for level in range(height, 0, -1):
            self._level_base[level] = base
            base += self.level_nodes[level]
        # Tagged address of node 0 of each level in TreeLing 0; a node's
        # address is this plus ``treeling * nodes_per_treeling + index``
        # (see path_addrs -- the engines' innermost loop).
        self._tagged_level_base = {
            level: spaces.tag(spaces.TREE, b)
            for level, b in self._level_base.items()
        }

    # -- node numbering ---------------------------------------------------------

    def local_node(self, level: int, node_index: int) -> int:
        if not 1 <= level <= self.height:
            raise IndexError(f"level {level} out of range")
        if not 0 <= node_index < self.level_nodes[level]:
            raise IndexError(f"node {node_index} out of level-{level} range")
        return self._level_base[level] + node_index

    def node_of_local(self, local: int) -> tuple[int, int]:
        if not 0 <= local < self.nodes_per_treeling:
            raise IndexError(f"local node {local} out of range")
        for level in range(self.height, 0, -1):
            base = self._level_base[level]
            if local < base + self.level_nodes[level]:
                return level, local - base
        raise AssertionError("unreachable")

    def parent_of(self, level: int, node_index: int) -> tuple[int, int, int]:
        """(parent_level, parent_index, slot_within_parent)."""
        if level >= self.height:
            raise ValueError("the TreeLing root's parent is on-chip")
        return level + 1, node_index // self.arity, node_index % self.arity

    def children_of(self, level: int, node_index: int) -> list[tuple[int, int]]:
        if level <= 1:
            raise ValueError("leaf nodes have no child nodes")
        lo = node_index * self.arity
        return [(level - 1, lo + i) for i in range(self.arity)]

    def child_under_slot(self, level: int, node_index: int,
                         slot: int) -> tuple[int, int]:
        """The node one level down that a parent slot would point at."""
        if level <= 1:
            raise ValueError("leaf slots cannot be converted to parents")
        return level - 1, node_index * self.arity + slot

    # -- slot ids ----------------------------------------------------------------

    def slot_id(self, ref: SlotRef) -> int:
        local = self.local_node(ref.level, ref.node_index)
        return ((ref.treeling * self.nodes_per_treeling + local)
                * self.arity + ref.slot)

    def decode_slot(self, slot_id: int) -> SlotRef:
        node_global, slot = divmod(slot_id, self.arity)
        treeling, local = divmod(node_global, self.nodes_per_treeling)
        level, node_index = self.node_of_local(local)
        return SlotRef(treeling, level, node_index, slot)

    # -- physical addresses --------------------------------------------------------

    def node_addr(self, treeling: int, level: int, node_index: int) -> int:
        """Tagged block address of a TreeLing node in memory."""
        local = self.local_node(level, node_index)
        return spaces.tag(spaces.TREE,
                          treeling * self.nodes_per_treeling + local)

    def slot_node_addr(self, ref: SlotRef) -> int:
        return self.node_addr(ref.treeling, ref.level, ref.node_index)

    def path_addrs(self, treeling: int, level: int,
                   node_index: int) -> list[int]:
        """Tagged addresses from ``(level, node_index)`` up to and
        including the TreeLing root node.

        Equivalent to calling :meth:`node_addr` along the parent chain,
        without re-deriving the local node number per level.
        """
        if not 1 <= level <= self.height:
            raise IndexError(f"level {level} out of range")
        if not 0 <= node_index < self.level_nodes[level]:
            raise IndexError(f"node {node_index} out of level-{level} range")
        stride = treeling * self.nodes_per_treeling
        bases = self._tagged_level_base
        arity = self.arity
        out = []
        idx = node_index
        for lvl in range(level, self.height + 1):
            out.append(bases[lvl] + stride + idx)
            idx //= arity
        return out

    def verification_levels(self, level: int) -> int:
        """Node reads needed from a slot at ``level`` to the root, worst
        case (no caching): the node itself plus every ancestor node."""
        return self.height - level + 1
