"""Tests for the functional crypto stack: cipher, counters, MAC, BMT."""

import random

import pytest

from repro.secure.bmt import BonsaiMerkleTree, NodeId, TamperDetected, \
    TreeGeometry
from repro.secure.counters import CounterBlock, CounterStore
from repro.secure.crypto import (CounterModeCipher, EncryptionSeed,
                                 keyed_hash, one_time_pad)
from repro.secure.mac import MacStore
from repro.sim.config import BLOCKS_PER_PAGE


class TestCrypto:
    def test_encrypt_decrypt_roundtrip(self):
        c = CounterModeCipher(b"0123456789abcdef")
        seed = EncryptionSeed(0x1000, 5)
        pt = bytes(range(64))
        ct = c.encrypt(pt, seed)
        assert ct != pt
        assert c.decrypt(ct, seed) == pt

    def test_counter_reuse_leaks_xor(self):
        """Same (addr, counter) -> same pad: the classic CTR pitfall the
        per-write counter increment exists to prevent."""
        c = CounterModeCipher(b"0123456789abcdef")
        seed = EncryptionSeed(0x1000, 5)
        p1, p2 = b"A" * 16, b"B" * 16
        xor_ct = bytes(a ^ b for a, b in
                       zip(c.encrypt(p1, seed), c.encrypt(p2, seed)))
        xor_pt = bytes(a ^ b for a, b in zip(p1, p2))
        assert xor_ct == xor_pt

    @pytest.mark.parametrize("length", [0, 1, 17, 64])
    def test_ciphertext_is_plaintext_xor_pad(self, length):
        """Byte ``i`` of the ciphertext is plaintext byte ``i`` XOR pad
        byte ``i`` -- a cipher that round-trips with a permuted pad
        would pass the round-trip tests but change every MAC."""
        key = b"0123456789abcdef"
        seed = EncryptionSeed(0x1000, 5)
        pt = bytes(range(7, 7 + length))
        pad = one_time_pad(key, seed.to_bytes(), length)
        assert (CounterModeCipher(key).encrypt(pt, seed)
                == bytes(p ^ q for p, q in zip(pt, pad)))

    def test_different_counters_different_ciphertexts(self):
        c = CounterModeCipher(b"0123456789abcdef")
        pt = b"secret-block-data"
        ct1 = c.encrypt(pt, EncryptionSeed(0x1000, 1))
        ct2 = c.encrypt(pt, EncryptionSeed(0x1000, 2))
        assert ct1 != ct2

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            CounterModeCipher(b"short")

    def test_keyed_hash_sensitivity(self):
        h = keyed_hash(b"k" * 16, b"data")
        assert h != keyed_hash(b"k" * 16, b"datb")
        assert h != keyed_hash(b"j" * 16, b"data")

    def test_keyed_hash_length_framing(self):
        # ("ab","c") must differ from ("a","bc")
        assert keyed_hash(b"k" * 16, b"ab", b"c") != \
            keyed_hash(b"k" * 16, b"a", b"bc")

    def test_otp_length(self):
        pad = one_time_pad(b"k" * 16, b"seed", 100)
        assert len(pad) == 100


class TestCounters:
    def test_minor_increment(self):
        cb = CounterBlock()
        assert not cb.increment(0)
        assert cb.value(0) == 1
        assert cb.value(1) == 0

    def test_minor_overflow_resets_page(self):
        cb = CounterBlock()
        overflowed = False
        for _ in range(cb.minor_max + 1):
            overflowed = cb.increment(3)
        assert overflowed
        assert cb.major == 1
        assert all(m == 0 for m in cb.minors)

    def test_effective_counter_monotone_across_overflow(self):
        cb = CounterBlock()
        values = []
        for _ in range(cb.minor_max + 2):
            values.append(cb.value(3))
            cb.increment(3)
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_store_lazy_blocks(self):
        s = CounterStore()
        assert s.value(42, 0) == 0
        s.increment(42, 0)
        assert s.value(42, 0) == 1

    def test_store_overflow_count(self):
        s = CounterStore()
        for _ in range(128):
            s.increment(1, 0)
        assert s.overflows == 1

    def test_serialize_is_canonical(self):
        s = CounterStore()
        s.increment(7, 3)
        img1 = s.serialize(7)
        s2 = CounterStore()
        s2.increment(7, 3)
        assert img1 == s2.serialize(7)
        assert len(img1) == 8 + BLOCKS_PER_PAGE


class TestMac:
    def test_verify_after_update(self):
        m = MacStore(b"k" * 16)
        m.update(0x40, b"data", 3)
        assert m.verify(0x40, b"data", 3)

    def test_spoofing_detected(self):
        m = MacStore(b"k" * 16)
        m.update(0x40, b"data", 3)
        assert not m.verify(0x40, b"datb", 3)

    def test_splicing_detected(self):
        """Relocating another address's (data, MAC) pair must not verify:
        the MAC binds the block address."""
        m = MacStore(b"k" * 16)
        m.update(0x40, b"data", 3)
        m.update(0x80, b"data", 3)
        m.tamper(0x40, m.stored(0x80))
        assert not m.verify(0x40, b"data", 3)

    def test_stale_counter_detected(self):
        m = MacStore(b"k" * 16)
        m.update(0x40, b"data", 4)
        assert not m.verify(0x40, b"data", 3)

    def test_missing_mac_fails(self):
        m = MacStore(b"k" * 16)
        assert not m.verify(0x999, b"x", 0)


class TestTreeGeometry:
    def test_level_sizes_converge_to_root(self):
        g = TreeGeometry(1000)
        assert g.level_sizes[-1] == 1
        assert g.level_sizes[0] == 125

    def test_path_to_root(self):
        g = TreeGeometry(4096)
        path = g.path_to_root(4095)
        assert path[0].level == 1
        assert path[-1] == NodeId(g.height, 0)
        for a, b in zip(path, path[1:]):
            assert g.parent(a) == b

    def test_counter_children_inverse(self):
        g = TreeGeometry(100)
        leaf = g.leaf_for_counter(17)
        assert 17 in g.counter_children(leaf)

    def test_node_addresses_unique(self):
        g = TreeGeometry(512)
        addrs = set()
        for level, size in enumerate(g.level_sizes, start=1):
            for i in range(size):
                addrs.add(g.node_addr(NodeId(level, i)))
        assert len(addrs) == g.total_nodes

    def test_out_of_range_rejected(self):
        g = TreeGeometry(64)
        with pytest.raises(IndexError):
            g.leaf_for_counter(64)
        with pytest.raises(IndexError):
            g.node_addr(NodeId(99, 0))


class TestBonsaiMerkleTree:
    def make(self, n=256):
        store = CounterStore()
        return BonsaiMerkleTree(TreeGeometry(n), store), store

    def test_fresh_tree_verifies(self):
        tree, _ = self.make()
        tree.verify(0)
        tree.verify(255)

    def test_update_then_verify(self):
        tree, _ = self.make()
        tree.update_counter(5, 3)
        tree.verify(5)

    def test_counter_replay_detected(self):
        tree, store = self.make()
        tree.update_counter(5, 3)
        tree.update_counter(5, 3)
        # adversary rolls the counter back to an older value
        tree.tamper_counter(5, 3, value=1)
        with pytest.raises(TamperDetected):
            tree.verify(5)

    def test_node_tamper_detected(self):
        tree, _ = self.make()
        tree.update_counter(9, 0)
        leaf = tree.geo.leaf_for_counter(9)
        tree.tamper_node(leaf, b"\x00" * 8)
        with pytest.raises(TamperDetected):
            tree.verify(9)

    def test_root_changes_on_update(self):
        tree, _ = self.make()
        r0 = tree.root
        tree.update_counter(0, 0)
        assert tree.root != r0

    def test_sibling_updates_do_not_break_verification(self):
        tree, _ = self.make()
        tree.update_counter(0, 0)
        tree.update_counter(1, 0)
        tree.update_counter(255, 63)
        for cb in (0, 1, 255, 100):
            tree.verify(cb)

    def test_tamper_elsewhere_does_not_flag_innocent_path(self):
        tree, _ = self.make(n=512)
        tree.update_counter(0, 0)
        tree.tamper_counter(511, 0, value=5)
        tree.verify(0)  # disjoint path: still fine
        with pytest.raises(TamperDetected):
            tree.verify(511)


class _ReferenceBMT:
    """The tree's original per-node walk, rebuilt from :func:`keyed_hash`
    and the geometry's ``NodeId`` structure, kept as an independent
    reference: a node hashes its children one level down, untouched
    subtrees hash to the canonical per-level zero hash, and a root
    check refreshes every materialised counter block's path in order."""

    def __init__(self, geo, counters, key):
        self.geo, self.counters, self.key = geo, counters, key
        self.node_hash = {}
        zero = [keyed_hash(key, b"zero-ctr", digest_size=8)]
        for level in range(1, geo.height + 1):
            zero.append(keyed_hash(key, b"zero-node",
                                   level.to_bytes(2, "little"),
                                   zero[-1] * geo.arity, digest_size=8))
        self.zero = zero

    def stored(self, node):
        return self.node_hash.get((node.level, node.index),
                                  self.zero[node.level])

    def computed(self, node):
        if node.level == 1:
            hashes = [keyed_hash(self.key, b"ctr", c.to_bytes(8, "little"),
                                 self.counters.serialize(c), digest_size=8)
                      if c in self.counters._blocks else self.zero[0]
                      for c in self.geo.counter_children(node)]
        else:
            hashes = [self.stored(c) for c in self.geo.children(node)]
        if all(h == self.zero[node.level - 1] for h in hashes):
            return self.zero[node.level]
        return keyed_hash(self.key, b"node", node.level.to_bytes(2, "little"),
                          node.index.to_bytes(8, "little"), b"".join(hashes),
                          digest_size=8)

    def refresh_path(self, counter_block):
        for node in self.geo.path_to_root(counter_block):
            self.node_hash[(node.level, node.index)] = self.computed(node)

    @property
    def root(self):
        return self.stored(NodeId(self.geo.height, 0))

    @classmethod
    def rebuilt(cls, geo, counters, key):
        ref = cls(geo, counters, key)
        for page in sorted(counters._blocks):
            ref.refresh_path(page)
        return ref


class TestRebuildMatchesReference:
    """``rebuild``, the incrementally maintained root and the reference
    walk agree bit for bit, including on geometries whose last node at
    some level is partial."""

    KEY = b"reference-bmt-key"

    @pytest.mark.parametrize("n", [1, 7, 9, 100, 513, 16384])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_store(self, n, seed):
        rng = random.Random(n * 31 + seed)
        store = CounterStore(minor_bits=2)   # overflows come quickly
        geo = TreeGeometry(n)
        tree = BonsaiMerkleTree(geo, store, key=self.KEY)
        ref = _ReferenceBMT(geo, store, self.KEY)
        hot = [rng.randrange(n) for _ in range(12)]
        for _ in range(150):
            page = rng.choice(hot) if rng.random() < 0.6 \
                else rng.randrange(n)
            op = rng.random()
            if op < 0.1:
                store.value(page, 0)      # materialises an all-zero block
            elif op < 0.2:
                store.reset_page(page)
            else:
                store.increment(page, rng.randrange(BLOCKS_PER_PAGE))
            tree.refresh_path(page)
            ref.refresh_path(page)
            assert tree._node_hash == ref.node_hash
            assert tree.root == ref.root
        fresh = BonsaiMerkleTree(geo, store, key=self.KEY)
        assert fresh.rebuild() == tree.root
        assert fresh.root == _ReferenceBMT.rebuilt(geo, store,
                                                   self.KEY).root

    @pytest.mark.parametrize("n", [1, 7, 9, 100, 513, 16384])
    def test_rebuild_stores_what_the_reference_walk_stores(self, n):
        store = CounterStore()
        for page in {0, n // 3, n // 2, n - 1}:
            store.increment(page, page % BLOCKS_PER_PAGE)
        geo = TreeGeometry(n)
        tree = BonsaiMerkleTree(geo, store, key=self.KEY)
        tree.rebuild()
        assert tree._node_hash == _ReferenceBMT.rebuilt(
            geo, store, self.KEY).node_hash
        for page in store._blocks:
            tree.verify(page)

    def test_empty_store_rebuilds_to_the_zero_hash(self):
        geo = TreeGeometry(513)
        tree = BonsaiMerkleTree(geo, CounterStore(), key=self.KEY)
        zero_root = _ReferenceBMT(geo, CounterStore(), self.KEY).root
        assert tree.root == zero_root
        assert tree.rebuild() == zero_root
        assert tree._node_hash == {}

    def test_materialised_zero_block_is_not_untouched(self):
        """A read materialises an all-zero block, which hashes as a real
        counter block, not as the canonical zero hash."""
        geo = TreeGeometry(100)
        store = CounterStore()
        empty_root = BonsaiMerkleTree(geo, store, key=self.KEY).rebuild()
        assert store.value(42, 0) == 0
        root = BonsaiMerkleTree(geo, store, key=self.KEY).rebuild()
        assert root != empty_root
        assert root == _ReferenceBMT.rebuilt(geo, store, self.KEY).root
        store.reset_page(42)
        assert BonsaiMerkleTree(geo, store,
                                key=self.KEY).rebuild() == empty_root

    def test_rebuild_ignores_stored_hashes(self):
        store = CounterStore()
        tree = BonsaiMerkleTree(TreeGeometry(256), store, key=self.KEY)
        tree.update_counter(9, 0)
        good = tree.root
        tree.tamper_node(tree.geo.leaf_for_counter(9), b"\x00" * 8)
        tree.tamper_node(NodeId(1, 30), b"\x01" * 8)
        assert tree.rebuild() == good
        tree.verify(9)

    def test_rebuild_rejects_blocks_outside_the_tree(self):
        store = CounterStore()
        store.increment(64, 0)
        with pytest.raises(IndexError):
            BonsaiMerkleTree(TreeGeometry(64), store).rebuild()
