"""Tests for TreeLing geometry and slot addressing."""

import pytest

from repro.core.treeling import SlotRef, TreeLingGeometry
from repro.secure.bmt import TreeGeometry
from repro.sim.config import TREE_ARITY


class TestGeometry:
    def test_level_node_counts(self):
        g = TreeLingGeometry(height=3)
        assert g.level_nodes == {3: 1, 2: 8, 1: 64}
        assert g.nodes_per_treeling == 73
        assert g.pages_per_treeling == 512

    def test_local_numbering_is_top_down(self):
        g = TreeLingGeometry(height=3)
        assert g.local_node(3, 0) == 0          # root first
        assert g.local_node(2, 0) == 1
        assert g.local_node(1, 0) == 9

    def test_node_of_local_roundtrip(self):
        g = TreeLingGeometry(height=4)
        for local in range(g.nodes_per_treeling):
            level, idx = g.node_of_local(local)
            assert g.local_node(level, idx) == local

    def test_parent_child_consistency(self):
        g = TreeLingGeometry(height=4)
        for level in range(2, 5):
            for idx in range(g.level_nodes[level]):
                for child_level, child_idx in g.children_of(level, idx):
                    pl, pi, slot = g.parent_of(child_level, child_idx)
                    assert (pl, pi) == (level, idx)
                    assert g.child_under_slot(pl, pi, slot) == \
                        (child_level, child_idx)

    def test_root_parent_is_onchip(self):
        g = TreeLingGeometry(height=3)
        with pytest.raises(ValueError):
            g.parent_of(3, 0)

    def test_slot_id_roundtrip(self):
        g = TreeLingGeometry(height=3)
        for ref in (SlotRef(0, 1, 0, 0), SlotRef(5, 2, 3, 7),
                    SlotRef(11, 3, 0, 4)):
            assert g.decode_slot(g.slot_id(ref)) == ref

    def test_node_addresses_disjoint_across_treelings(self):
        g = TreeLingGeometry(height=3)
        a = {g.node_addr(0, lvl, 0) for lvl in (1, 2, 3)}
        b = {g.node_addr(1, lvl, 0) for lvl in (1, 2, 3)}
        assert not a & b

    def test_locked_blocks_above_roots(self):
        # the locked cone is the 8-ary tree over the TreeLing roots:
        # 512 roots -> 64 + 8 + 1 locked parent blocks
        assert TreeGeometry(512).total_nodes == 73
        assert TreeGeometry(1).total_nodes == 1

    def test_verification_levels(self):
        g = TreeLingGeometry(height=4)
        assert g.verification_levels(1) == 4   # leaf walks every level
        assert g.verification_levels(4) == 1   # root-slot page: one read

    def test_invalid_height_rejected(self):
        with pytest.raises(ValueError):
            TreeLingGeometry(height=0)

    def test_slot_density(self):
        g = TreeLingGeometry(height=4)
        # every node has TREE_ARITY slots; leaf slots alone cover the
        # TreeLing's nominal page capacity
        assert g.level_nodes[1] * TREE_ARITY == g.pages_per_treeling
