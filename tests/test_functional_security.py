"""End-to-end security tests on the functional secure memory and the
IvLeague forest (executable form of the paper's Section VIII claims)."""

import pytest

from repro.core.forest import (ForestTamperDetected, IvLeagueForest)
from repro.core.treeling import SlotRef, TreeLingGeometry
from repro.secure.functional import (FunctionalSecureMemory,
                                     IntegrityViolation)
from repro.sim.config import BLOCK_BYTES


def block(byte: int) -> bytes:
    return bytes([byte]) * BLOCK_BYTES


class TestFunctionalSecureMemory:
    def make(self, pages=32):
        return FunctionalSecureMemory(pages)

    def test_write_read_roundtrip(self):
        m = self.make()
        m.write(3, 5, block(0xAB))
        assert m.read(3, 5) == block(0xAB)

    def test_fresh_memory_reads_zero(self):
        m = self.make()
        assert m.read(0, 0) == block(0)

    def test_ciphertext_differs_from_plaintext(self):
        m = self.make()
        m.write(1, 1, block(0xCD))
        raw = m.dram.read(1 * 64 + 1)
        assert raw != block(0xCD)

    def test_rewrites_use_fresh_counters(self):
        """Same plaintext twice -> different ciphertexts (no pad reuse)."""
        m = self.make()
        m.write(1, 1, block(0x11))
        ct1 = m.dram.read(1 * 64 + 1)
        m.write(1, 1, block(0x11))
        ct2 = m.dram.read(1 * 64 + 1)
        assert ct1 != ct2

    def test_spoofing_detected(self):
        m = self.make()
        m.write(2, 2, block(0x22))
        m.adversary_spoof(2, 2, block(0x99))
        with pytest.raises(IntegrityViolation):
            m.read(2, 2)

    def test_splicing_detected(self):
        m = self.make()
        m.write(2, 2, block(0x22))
        m.write(7, 7, block(0x77))
        m.adversary_splice(dst=(2, 2), src=(7, 7))
        with pytest.raises(IntegrityViolation):
            m.read(2, 2)

    def test_replay_detected_by_tree(self):
        """Consistent (data, MAC, counter) replay: only the integrity
        tree can catch it -- the core motivation for the BMT."""
        m = self.make()
        m.write(4, 4, block(0x01))
        capsule = m.adversary_replay(4, 4)
        m.write(4, 4, block(0x02))          # victim overwrites
        m.adversary_apply_replay(capsule)   # adversary rolls back
        with pytest.raises(IntegrityViolation):
            m.read(4, 4)

    def test_replay_snapshot_of_unwritten_page_is_not_a_tamper(self):
        """Regression: snapshotting a never-written page used to
        materialise its counter block behind the tree, so a clean read
        of a page sharing the leaf raised a tree hash mismatch."""
        m = FunctionalSecureMemory(64, key=b"k" * 24)
        m.write(0, 0, block(0x41))
        capsule = m.adversary_replay(1, 0)
        assert m.counters.peek(1) is None
        assert m.read(0, 0) == block(0x41)

    def test_replaying_an_unwritten_snapshot_unmaterialises_the_page(self):
        m = FunctionalSecureMemory(64, key=b"k" * 24)
        m.write(0, 0, block(0x41))
        capsule = m.adversary_replay(1, 0)
        m.write(1, 0, block(0x42))
        m.adversary_apply_replay(capsule)
        assert m.counters.peek(1) is None
        with pytest.raises(IntegrityViolation):
            m.read(0, 0)   # the leaf both pages share no longer matches

    def test_tampering_one_page_leaves_others_readable(self):
        m = self.make()
        m.write(2, 0, block(0x22))
        m.write(20, 0, block(0x33))
        m.adversary_spoof(2, 0, block(0x99))
        assert m.read(20, 0) == block(0x33)

    def test_many_pages_roundtrip(self):
        m = self.make(pages=64)
        for p in range(0, 64, 7):
            m.write(p, p % 64, block(p))
        for p in range(0, 64, 7):
            assert m.read(p, p % 64) == block(p)

    def test_bad_geometry_rejected(self):
        m = self.make(pages=8)
        with pytest.raises(IndexError):
            m.write(8, 0, block(1))
        with pytest.raises(IndexError):
            m.write(0, 64, block(1))
        with pytest.raises(ValueError):
            m.write(0, 0, b"short")


class TestIvLeagueForest:
    def make(self):
        geo = TreeLingGeometry(height=3)
        f = IvLeagueForest(geo, n_treelings=8, max_domains=8)
        f.create_domain(1)
        f.create_domain(2)
        return f

    def test_attach_update_verify(self):
        f = self.make()
        ref = SlotRef(0, 1, 0, 0)
        f.attach_page(1, 100, ref, b"v0")
        f.verify_page(100, b"v0")
        f.update_page(100, b"v1")
        f.verify_page(100, b"v1")

    def test_stale_payload_rejected(self):
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 1, 0, 0), b"v0")
        f.update_page(100, b"v1")
        with pytest.raises(ForestTamperDetected):
            f.verify_page(100, b"v0")

    def test_slot_tamper_detected(self):
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 2, 0, 3), b"x")
        ref = f._slot_of_page[100]
        f.tamper_slot(ref.treeling, ref.level, ref.node_index, ref.slot,
                      b"\xff" * 8)
        with pytest.raises(ForestTamperDetected):
            f.verify_page(100, b"x")

    def test_intermediate_node_mapping_supported(self):
        """Invert-style: a page may live at any level of its TreeLing."""
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 3, 0, 0), b"top")
        f.verify_page(100, b"top")

    def test_domains_cannot_share_a_treeling(self):
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 1, 0, 0), b"a")
        tl = f._slot_of_page[100].treeling
        with pytest.raises(PermissionError):
            f.attach_page(2, 200, SlotRef(tl, 1, 0, 1), b"b")

    def test_isolation_one_domain_invisible_to_the_other(self):
        """The paper's Section VIII argument, executable: a full burst
        of activity in domain 2 leaves every byte of state reachable by
        domain 1's verification untouched."""
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 1, 0, 0), b"a")
        before = f.snapshot(1)
        f.attach_page(2, 200, SlotRef(1, 1, 0, 0), b"b")
        for i in range(20):
            f.update_page(200, f"payload-{i}".encode())
        f.verify_page(200, b"payload-19")
        assert f.snapshot(1) == before
        f.verify_page(100, b"a")

    def test_destroy_domain_releases_treelings(self):
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 1, 0, 0), b"a")
        free = f.pool.unassigned_count
        f.destroy_domain(1)
        assert f.pool.unassigned_count == free + 1
        assert 100 not in f._slot_of_page

    def test_detach_then_reuse_slot(self):
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 1, 0, 0), b"a")
        ref = f._slot_of_page[100]
        f.detach_page(100)
        f.attach_page(1, 101, ref, b"b")
        f.verify_page(101, b"b")

    def test_double_attach_rejected(self):
        f = self.make()
        f.attach_page(1, 100, SlotRef(0, 1, 0, 0), b"a")
        ref = f._slot_of_page[100]
        with pytest.raises(ValueError):
            f.attach_page(1, 101, ref, b"b")
