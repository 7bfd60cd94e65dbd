"""Physical frame allocator.

The TEE threat model makes the OS untrusted, so secure hardware cannot
assume a domain's frames are contiguous or confined to a region -- the
motivating problem for static tree partitioning (Section V).  Three
placement policies:

- ``sequential`` models a freshly booted first-touch allocator: frames
  come out in address order.  It is ``Simulator``'s default.
- ``fragmented`` models a long-running machine: contiguous 256-frame
  (1 MB) runs in scattered order, with freed frames re-entering the free
  stack at random depths.  It is the sweeps' default
  (``Scale.frame_policy``).
- ``random`` models an adversarial OS: one uniformly random permutation
  of all frames (the differential oracle's default).

The static-partitioning comparator confines each domain to its
partition's chunk through :meth:`FrameAllocator.alloc_in_range` under
any of them.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

#: Frames per buddy run of the ``fragmented`` policy (1 MB of 4 KB pages).
FRAGMENT_RUN = 256


class OutOfMemoryError(RuntimeError):
    """No free physical frame is available."""


def _stack(frames: np.ndarray) -> array:
    """An ``array("i")`` stack holding ``frames`` in order, written
    through a view of its buffer that is gone on return."""
    stack = array("i", [0]) * len(frames)
    np.frombuffer(stack, dtype=np.int32)[:] = frames
    return stack


class FrameAllocator:
    """Allocates physical frame numbers (PFNs)."""

    POLICIES = ("random", "sequential", "fragmented")

    def __init__(self, n_frames: int, policy: str = "random",
                 seed: int = 7) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy: {policy}")
        if n_frames >= 2 ** 31:
            # Frame numbers are stored as 32-bit ints.
            raise ValueError(f"{n_frames} frames do not fit in int32 PFNs")
        self.n_frames = n_frames
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        # The free stack: one 4-byte int per frame in a typed array,
        # popped from the end.  pop/append/insert/len behave as on a
        # list of the same ints, but a sweep cell's 1 Mi-frame stack
        # keeps 4 MiB, where a list would hold 40 MiB of int objects.
        # It is written in allocation order through a reversed int32
        # NumPy view of its own buffer; the view is dropped before the
        # stack is resized, which a buffer export forbids.
        self._free = array("i", [0]) * n_frames
        top_down = np.frombuffer(self._free, dtype=np.int32)[::-1]
        if policy == "random":
            top_down[:] = self._rng.permutation(n_frames)
        elif policy == "sequential":
            # Fresh-boot buddy allocator, fully contiguous.
            top_down[:] = np.arange(n_frames, dtype=np.int32)
        else:
            # The buddy allocator of a long-running machine still hands
            # out contiguous runs, but the runs themselves are scattered,
            # and freed frames re-enter the stack at random positions
            # (see free()).  A static page-to-tree mapping loses most of
            # its spatial adjacency in this regime; IvLeague's
            # fault-order slot packing is unaffected by it.
            n_runs = n_frames // FRAGMENT_RUN
            body = n_runs * FRAGMENT_RUN
            starts = self._rng.permutation(n_runs).astype(np.int32)
            starts *= FRAGMENT_RUN
            np.add(starts[:, None],
                   np.arange(FRAGMENT_RUN, dtype=np.int32)[None, :],
                   out=top_down[:body].reshape(n_runs, FRAGMENT_RUN))
            top_down[body:] = np.arange(body, n_frames, dtype=np.int32)
        del top_down
        self._owner: dict[int, int] = {}
        # Lazily-built per-range stacks for alloc_in_range (static
        # partitioning).  Frames handed out there stay on the main
        # stack; alloc() skips already-owned frames when popping.
        self._range_cache: dict[tuple[int, int], array] = {}

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

    def _in_range(self, lo: int, hi: int) -> np.ndarray:
        """The free stack's frames in [lo, hi), bottom first.

        A copy: the buffer view it is read through is gone on return.
        """
        free = np.frombuffer(self._free, dtype=np.int32)
        return free[(free >= lo) & (free < hi)]

    def alloc_in_range(self, owner: int, lo: int, hi: int) -> int:
        """Allocate a frame in [lo, hi) -- used by static partitioning
        (the OS must confine each domain to its partition's chunk).

        Amortised O(1): the first call for a range snapshots the free
        frames inside it; later calls pop from that stack, skipping
        frames that were meanwhile taken or freed elsewhere.  A range
        stack pops in the main stack's bottom-to-top order.
        """
        key = (lo, hi)
        stack = self._range_cache.get(key)
        if stack is None:
            stack = _stack(self._in_range(lo, hi)[::-1])
            self._range_cache[key] = stack
        while stack:
            pfn = stack.pop()
            if pfn not in self._owner:
                self._owner[pfn] = owner
                return pfn
        # Slow path: pick up frames freed back into the range after the
        # snapshot was taken.
        refill = self._in_range(lo, hi)
        owned = np.fromiter(self._owner, dtype=np.int32,
                            count=len(self._owner))
        refill = refill[~np.isin(refill, owned)]
        if refill.size:
            self._range_cache[key] = _stack(refill[::-1])
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
