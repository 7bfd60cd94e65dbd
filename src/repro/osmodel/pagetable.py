"""Radix page table with the IvLeague extended PTE (paper Fig. 9).

The classic x86-64 table has four levels of 512 entries (9 VA bits per
level).  IvLeague widens each last-level PTE by a 64-bit *leaf ID* (the
TreeLing slot verifying the page), halving last-level fan-out to 256
entries (8 VA bits), so the level boundaries shift as in Fig. 9b.

The table is functional (walk returns PFN + leaf ID) and also produces
the physical block addresses touched by a hardware walk, so the timing
model can charge real page-walk traffic through the cache hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem import spaces
from repro.sim.config import BLOCK_BYTES, PAGE_BYTES

#: Bits of VA index per level, leaf level first (classic layout).
CLASSIC_BITS = (9, 9, 9, 9)
#: IvLeague layout: last level holds 256 wide PTEs (Fig. 9b).
IVLEAGUE_BITS = (8, 9, 9, 9)

#: Bytes per PTE in each layout.
CLASSIC_PTE_BYTES = 8
IVLEAGUE_PTE_BYTES = 16


@dataclass
class WalkResult:
    pfn: int
    leaf_id: Optional[int]
    #: Tagged block addresses a hardware walker reads, one per level.
    touched_blocks: tuple[int, ...]


class PageTable:
    """One process's radix page table.

    ``extended=True`` selects the IvLeague layout whose PTEs embed the
    Leaf Mapping Metadata (LMM).
    """

    def __init__(self, asid: int, extended: bool = False) -> None:
        self.asid = asid
        self.extended = extended
        self.bits = IVLEAGUE_BITS if extended else CLASSIC_BITS
        self.pte_bytes = IVLEAGUE_PTE_BYTES if extended else CLASSIC_PTE_BYTES
        # entries: vpn -> [pfn, leaf_id]
        self._entries: dict[int, list] = {}
        # Each radix level's "pages" are modelled as a dense region in the
        # PTABLE address space, partitioned per asid; this gives stable,
        # distinct block addresses for walk traffic without materialising
        # interior nodes.
        self._region = asid << 28

    # -- functional mapping ---------------------------------------------------

    def map(self, vpn: int, pfn: int, leaf_id: Optional[int] = None) -> None:
        if vpn in self._entries:
            raise ValueError(f"vpn {vpn} already mapped")
        if leaf_id is not None and not self.extended:
            raise ValueError("leaf_id requires the extended (IvLeague) PTE")
        self._entries[vpn] = [pfn, leaf_id]

    def unmap(self, vpn: int) -> int:
        entry = self._entries.pop(vpn, None)
        if entry is None:
            raise KeyError(f"vpn {vpn} not mapped")
        return entry[0]

    def set_leaf(self, vpn: int, leaf_id: Optional[int]) -> None:
        """Update the LMM field (page migration under Invert/Pro)."""
        if not self.extended:
            raise ValueError("leaf_id requires the extended (IvLeague) PTE")
        self._entries[vpn][1] = leaf_id

    def leaf_of(self, vpn: int) -> Optional[int]:
        return self._entries[vpn][1]

    def translate(self, vpn: int) -> Optional[int]:
        entry = self._entries.get(vpn)
        return None if entry is None else entry[0]

    # -- walk modelling -------------------------------------------------------

    def entries_per_leaf_page(self) -> int:
        return PAGE_BYTES // self.pte_bytes

    def walk(self, vpn: int) -> WalkResult:
        """Resolve ``vpn`` like a hardware walker, reporting touched blocks."""
        entry = self._entries.get(vpn)
        if entry is None:
            raise KeyError(f"page fault: vpn {vpn} of asid {self.asid}")
        touched = []
        index = vpn
        offset = 0
        for level, bits in enumerate(self.bits):
            idx_in_level = index & ((1 << bits) - 1)
            index >>= bits
            # Block holding this level's entry for this vpn: derive a
            # stable address from (region, level, remaining index, slot).
            entry_byte = (index << bits | idx_in_level) * self.pte_bytes
            block = self._region + (offset + entry_byte) // BLOCK_BYTES
            touched.append(spaces.tag(spaces.PTABLE, block))
            offset += 1 << 26  # keep levels in disjoint sub-regions
        return WalkResult(entry[0], entry[1], tuple(touched))
