"""Physical frame allocator.

The TEE threat model makes the OS untrusted, so secure hardware cannot
assume a domain's frames are contiguous or confined to a region -- the
motivating problem for static tree partitioning (Section V).  The default
``random`` policy models a fragmented, adversarial-ish OS; ``sequential``
models a freshly-booted first-touch allocator (used by some tests and by
the static-partitioning comparator, which *requires* region-confined
allocation to work at all).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class OutOfMemoryError(RuntimeError):
    """No free physical frame is available."""


class FrameAllocator:
    """Allocates physical frame numbers (PFNs)."""

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
