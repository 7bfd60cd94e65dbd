"""Tests for the OS-model substrate: allocator, page table, TLB."""

import random
import tracemalloc
from typing import Optional

import numpy as np
import pytest

from repro.osmodel.allocator import (FRAGMENT_RUN, FrameAllocator,
                                     OutOfMemoryError)
from repro.osmodel.pagetable import (CLASSIC_BITS, IVLEAGUE_BITS, PageTable)
from repro.osmodel.tlb import TLB


class TestAllocator:
    def test_alloc_free_roundtrip(self):
        a = FrameAllocator(64, policy="sequential")
        pfn = a.alloc(owner=1)
        assert a.owner_of(pfn) == 1
        a.free(pfn)
        assert a.owner_of(pfn) is None

    def test_sequential_policy_is_contiguous(self):
        a = FrameAllocator(16, policy="sequential")
        assert [a.alloc(1) for _ in range(4)] == [0, 1, 2, 3]

    def test_random_policy_is_permuted(self):
        a = FrameAllocator(4096, policy="random", seed=3)
        first = [a.alloc(1) for _ in range(16)]
        assert first != sorted(first)

    def test_fragmented_policy_has_runs(self):
        a = FrameAllocator(4096, policy="fragmented", seed=3)
        got = [a.alloc(1) for _ in range(512)]
        # within a 256-frame run allocations are contiguous
        assert got[0] % FRAGMENT_RUN == 0
        assert got[:FRAGMENT_RUN] == list(range(got[0],
                                                got[0] + FRAGMENT_RUN))
        # but across runs they jump
        assert any(abs(got[i + 1] - got[i]) > 1 for i in range(511))

    def test_exhaustion_raises(self):
        a = FrameAllocator(2, policy="sequential")
        a.alloc(1)
        a.alloc(1)
        with pytest.raises(OutOfMemoryError):
            a.alloc(1)

    def test_double_free_rejected(self):
        a = FrameAllocator(4, policy="sequential")
        pfn = a.alloc(1)
        a.free(pfn)
        with pytest.raises(ValueError):
            a.free(pfn)

    def test_alloc_in_range(self):
        a = FrameAllocator(128, policy="random", seed=1)
        pfn = a.alloc_in_range(1, 32, 64)
        assert 32 <= pfn < 64

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(4, policy="chaotic")


class _ReferenceAllocator:
    """The allocator as it was with a Python-list free stack, kept
    unchanged as an independent reference for the ``array("i")`` stack:
    the same rng draws, pop order and range scans, one int object per
    frame."""

    POLICIES = ("random", "sequential", "fragmented")

    def __init__(self, n_frames: int, policy: str = "random",
                 seed: int = 7) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy: {policy}")
        self.n_frames = n_frames
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        if policy == "random":
            order = self._rng.permutation(n_frames)
        else:
            # ``sequential``: fresh-boot buddy allocator, fully contiguous.
            # ``fragmented``: the steady state of a long-running machine --
            # the buddy allocator still hands out contiguous runs
            # (256 frames / 1MB here) but the runs themselves are
            # scattered, and freed frames re-enter the free list at
            # random positions.
            # A static page-to-tree mapping loses most of its spatial
            # adjacency in this regime; IvLeague's fault-order slot
            # packing is unaffected by it.
            order = np.arange(n_frames)
            if policy == "fragmented":
                run = 256
                n_runs = n_frames // run
                perm = self._rng.permutation(n_runs)
                order = (perm[:, None] * run
                         + np.arange(run)[None, :]).reshape(-1)
                tail = np.arange(n_runs * run, n_frames)
                order = np.concatenate([order, tail])
        # Free list as a stack (list for O(1) pop/push); ndarray.tolist()
        # yields the same Python ints as map(int, ...) at a fraction of
        # the cost (this init is charged to every experiment cell).
        self._free = order[::-1].tolist()
        self._owner: dict[int, int] = {}
        # Lazily-built per-range stacks for alloc_in_range (static
        # partitioning).  Frames handed out there stay on the main
        # stack; alloc() skips already-owned frames when popping.
        self._range_cache: dict[tuple[int, int], list[int]] = {}

    def owner_of(self, pfn: int) -> Optional[int]:
        return self._owner.get(pfn)

    def alloc(self, owner: int) -> int:
        """Allocate one frame for ``owner``; raises when memory is full."""
        while self._free:
            pfn = self._free.pop()
            if pfn not in self._owner:   # may have gone out via a range
                self._owner[pfn] = owner
                return pfn
        raise OutOfMemoryError("physical memory exhausted")

    def alloc_in_range(self, owner: int, lo: int, hi: int) -> int:
        """Allocate a frame in [lo, hi) -- used by static partitioning
        (the OS must confine each domain to its partition's chunk).

        Amortised O(1): the first call for a range snapshots the free
        frames inside it; later calls pop from that stack, skipping
        frames that were meanwhile taken or freed elsewhere.
        """
        key = (lo, hi)
        stack = self._range_cache.get(key)
        if stack is None:
            stack = [f for f in self._free if lo <= f < hi][::-1]
            self._range_cache[key] = stack
        while stack:
            pfn = stack.pop()
            if pfn not in self._owner:
                self._owner[pfn] = owner
                return pfn
        # Slow path: pick up frames freed back into the range after the
        # snapshot was taken.
        refill = [f for f in self._free
                  if lo <= f < hi and f not in self._owner]
        if refill:
            self._range_cache[key] = refill[::-1]
            return self.alloc_in_range(owner, lo, hi)
        raise OutOfMemoryError(f"no free frame in [{lo}, {hi})")

    def free(self, pfn: int) -> None:
        owner = self._owner.pop(pfn, None)
        if owner is None:
            raise ValueError(f"double free of frame {pfn}")
        if self.policy == "fragmented" and self._free:
            # Freed frames land at a random depth of the free list, so
            # they are reused at arbitrary later times / places.
            idx = int(self._rng.integers(len(self._free) + 1))
            self._free.insert(idx, pfn)
        else:
            self._free.append(pfn)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OutOfMemoryError, ValueError) as exc:
        return type(exc), str(exc)


class TestAllocatorMatchesReference:
    """The typed free stack behaves exactly as the list it replaced.

    Both allocators take the same seeded stream of operations; every
    result (PFN or raised error) must match, and so must the owner map
    and ``len(_free)`` after each operation.  The owner map changes at
    one frame per operation, so comparing that frame's owner and the
    map's size each step, and the whole map at checkpoints, compares
    the whole map after every step.
    """

    @staticmethod
    def _ranges(n):
        """Disjoint halves, an overlapping middle, the whole space and a
        one-frame range."""
        spans = {(0, n // 2), (n // 2, n), (n // 4, 3 * n // 4), (0, n),
                 (n - 1, n)}
        return sorted((lo, hi) for lo, hi in spans if lo < hi)

    def _step(self, ref, new, op, *args):
        got = _outcome(getattr(new, op), *args)
        assert got == _outcome(getattr(ref, op), *args), (op, args)
        if isinstance(got, int):
            pfn = got
        elif op == "free":
            pfn = args[0]
        else:
            pfn = None
        if pfn is not None:
            assert new.owner_of(pfn) == ref.owner_of(pfn)
        assert len(new._owner) == len(ref._owner)
        assert len(new._free) == len(ref._free)
        return got

    @staticmethod
    def _same_state(ref, new):
        assert new._owner == ref._owner
        assert new._free.tolist() == ref._free
        assert {k: v.tolist() for k, v in new._range_cache.items()} \
            == ref._range_cache

    @pytest.mark.parametrize("policy", FrameAllocator.POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 257, 4096, 65536])
    def test_random_stream_matches_list_allocator(self, n, policy):
        seed = n * 3 + len(policy)
        rng = random.Random(seed)
        ref = _ReferenceAllocator(n, policy, seed)
        new = FrameAllocator(n, policy, seed)
        self._same_state(ref, new)
        ranges = self._ranges(n)
        live: list[int] = []

        def step(op, *args):
            got = self._step(ref, new, op, *args)
            if op == "free":
                if got is None:
                    live.remove(args[0])
            elif isinstance(got, int):
                live.append(got)
            return got

        def mixed(n_ops):
            for _ in range(n_ops):
                r = rng.random()
                if r < 0.3:
                    step("alloc", rng.randrange(4))
                elif r < 0.6:
                    step("alloc_in_range", rng.randrange(4),
                         *rng.choice(ranges))
                elif r < 0.95 and live:
                    step("free", live[rng.randrange(len(live))])
                else:   # a frame nobody owns: double free
                    step("free", rng.randrange(n))

        mixed(400)
        self._same_state(ref, new)
        # Exhaust one range, free part of it back and drain the refill.
        lo, hi = ranges[0]
        while isinstance(step("alloc_in_range", 1, lo, hi), int):
            pass
        in_range = [f for f in live if lo <= f < hi]
        for pfn in rng.sample(in_range, min(len(in_range), 20)):
            step("free", pfn)
        while isinstance(step("alloc_in_range", 2, lo, hi), int):
            pass
        self._same_state(ref, new)
        # Exhaust the whole machine, free a batch and mix again.
        while isinstance(step("alloc", 3), int):
            pass
        self._same_state(ref, new)
        for pfn in rng.sample(live, min(len(live), 64)):
            step("free", pfn)
        mixed(200)
        self._same_state(ref, new)

    @pytest.mark.parametrize("policy", FrameAllocator.POLICIES)
    def test_empty_machine_matches_list_allocator(self, policy):
        ref = _ReferenceAllocator(0, policy)
        new = FrameAllocator(0, policy)
        self._step(ref, new, "alloc", 1)
        self._step(ref, new, "alloc_in_range", 1, 0, 1)
        self._same_state(ref, new)


class TestAllocatorFootprint:
    MIB = 1 << 20

    def test_million_frame_stack_is_compact(self):
        """A sweep cell's 1 Mi-frame stack keeps 4 bytes per frame; the
        list it replaced kept 40 MiB and peaked at 48 MiB."""
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            alloc = FrameAllocator(1 << 20, policy="fragmented", seed=123)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(alloc._free) == 1 << 20
        assert kept - base < 8 * self.MIB
        assert peak - base < 16 * self.MIB

    def test_frame_count_beyond_int32_rejected(self):
        # Raised before any memory is allocated.
        with pytest.raises(ValueError, match="int32"):
            FrameAllocator(2 ** 31, policy="sequential")


class TestPageTable:
    def test_map_translate_unmap(self):
        pt = PageTable(asid=1)
        pt.map(100, 55)
        assert pt.translate(100) == 55
        assert pt.unmap(100) == 55
        assert pt.translate(100) is None

    def test_double_map_rejected(self):
        pt = PageTable(asid=1)
        pt.map(1, 2)
        with pytest.raises(ValueError):
            pt.map(1, 3)

    def test_leaf_id_requires_extended(self):
        pt = PageTable(asid=1, extended=False)
        with pytest.raises(ValueError):
            pt.map(1, 2, leaf_id=9)

    def test_extended_pte_stores_leaf(self):
        pt = PageTable(asid=1, extended=True)
        pt.map(1, 2, leaf_id=77)
        assert pt.leaf_of(1) == 77
        pt.set_leaf(1, 99)
        assert pt.leaf_of(1) == 99

    def test_extended_layout_halves_leaf_fanout(self):
        classic = PageTable(1)
        extended = PageTable(2, extended=True)
        assert classic.entries_per_leaf_page() == 512
        assert extended.entries_per_leaf_page() == 256
        assert classic.bits == CLASSIC_BITS
        assert extended.bits == IVLEAGUE_BITS

    def test_walk_touches_one_block_per_level(self):
        pt = PageTable(asid=3, extended=True)
        pt.map(42, 7, leaf_id=5)
        walk = pt.walk(42)
        assert walk.pfn == 7
        assert walk.leaf_id == 5
        assert len(walk.touched_blocks) == len(IVLEAGUE_BITS)
        assert len(set(walk.touched_blocks)) == len(walk.touched_blocks)

    def test_walk_page_fault(self):
        pt = PageTable(asid=1)
        with pytest.raises(KeyError):
            pt.walk(404)

    def test_neighbouring_vpns_share_walk_prefix(self):
        pt = PageTable(asid=1)
        pt.map(64, 1)
        pt.map(65, 2)
        w1, w2 = pt.walk(64), pt.walk(65)
        # top levels identical, leaf level may differ
        assert w1.touched_blocks[1:] == w2.touched_blocks[1:]


class TestTLB:
    def test_hit_after_insert(self):
        t = TLB(entries=16, assoc=4)
        t.insert(1, 100, 7)
        assert t.lookup(1, 100) == 7
        assert t.stats.hits == 1

    def test_asid_isolation(self):
        t = TLB(entries=16, assoc=4)
        t.insert(1, 100, 7)
        assert t.lookup(2, 100) is None

    def test_eviction_hook_fires(self):
        evicted = []
        t = TLB(entries=4, assoc=1,
                on_evict=lambda a, v, p: evicted.append((a, v, p)))
        for vpn in range(0, 64, 4):  # same set under vpn % n_sets
            t.insert(1, vpn, vpn + 1)
        assert evicted

    def test_flush_asid(self):
        t = TLB(entries=16, assoc=4)
        t.insert(1, 1, 1)
        t.insert(1, 2, 2)
        t.insert(2, 3, 3)
        assert t.flush_asid(1) == 2
        assert t.lookup(2, 3) == 3

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            TLB(entries=10, assoc=4)
