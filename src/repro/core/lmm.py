"""Leaf Mapping Metadata (LMM) -- paper Section VI-C2, Fig. 9.

The authoritative page-to-TreeLing-slot mapping lives in the extended
page-table entries (backed here by :class:`LeafMap`, keyed by PFN because
the memory controller sees physical addresses).  The on-chip *LMM cache*
in the memory controller caches those mappings; a miss costs a memory
read of the PTE block holding the LMM field.

Under IvLeague-Invert a mapping can be *stale* after a slot-to-parent
conversion (Fig. 12c): the cached leaf points at a slot that has become a
parent; the hardware then follows the ``is_parent`` flag to the child's
first slot and rewrites the LMM lazily.  :class:`LeafMap` models that
with an explicit stale set so the engine can charge the fix-up.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.mem import spaces


class LMMCache:
    """Set-associative LRU cache of PFN -> slot_id mappings."""

    def __init__(self, entries: int, assoc: int = 16) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self.assoc = assoc
        self.n_sets = entries // assoc
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def register_stats(self, registry, name: str = "lmm$") -> None:
        registry.register(name, self, ("hits", "misses"))

    def _set(self, pfn: int) -> OrderedDict[int, int]:
        return self._sets[pfn % self.n_sets]

    def lookup(self, pfn: int) -> Optional[int]:
        s = self._set(pfn)
        slot = s.get(pfn)
        if slot is None:
            self.misses += 1
            return None
        s.move_to_end(pfn)
        self.hits += 1
        return slot

    def insert(self, pfn: int, slot_id: int) -> None:
        s = self._set(pfn)
        if pfn in s:
            s.move_to_end(pfn)
        elif len(s) >= self.assoc:
            s.popitem(last=False)
        s[pfn] = slot_id

    def invalidate(self, pfn: int) -> bool:
        return self._set(pfn).pop(pfn, None) is not None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LeafMap:
    """Authoritative PFN -> slot mapping ("the LMM in the page table")."""

    def __init__(self) -> None:
        #: PFN -> slot id of every mapped page.
        self.slots: dict[int, int] = {}
        self._stale: set[int] = set()

    def __contains__(self, pfn: int) -> bool:
        return pfn in self.slots

    def __len__(self) -> int:
        return len(self.slots)

    def set(self, pfn: int, slot_id: int, stale: bool = False) -> None:
        self.slots[pfn] = slot_id
        if stale:
            self._stale.add(pfn)
        else:
            self._stale.discard(pfn)

    def get(self, pfn: int) -> int:
        return self.slots[pfn]

    def pop(self, pfn: int) -> int:
        self._stale.discard(pfn)
        return self.slots.pop(pfn)

    def is_stale(self, pfn: int) -> bool:
        return pfn in self._stale

    def clear_stale(self, pfn: int) -> None:
        self._stale.discard(pfn)

    def pte_block_addr(self, pfn: int) -> int:
        """The PTE block a hardware LMM refill would read.

        Four 16B extended PTEs share a 64B block, so neighbouring pages'
        LMM loads coalesce -- the address participates in cache/DRAM
        behaviour like any metadata block.
        """
        return spaces.tag(spaces.LMM, pfn // 4)
