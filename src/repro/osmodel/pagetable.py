"""Radix page table with the IvLeague extended PTE (paper Fig. 9).

The classic x86-64 table has four levels of 512 entries (9 VA bits per
level).  IvLeague widens each last-level PTE by a 64-bit *leaf ID* (the
TreeLing slot verifying the page), halving last-level fan-out to 256
entries (8 VA bits), so the level boundaries shift as in Fig. 9b.

The table maps VPNs to PFNs and produces the physical block addresses
touched by a hardware walk, so the timing model can charge real
page-walk traffic through the cache hierarchy.  The leaf IDs themselves
live in the engine's :class:`~repro.core.lmm.LeafMap`, keyed by PFN.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem import spaces
from repro.sim.config import BLOCK_BYTES

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
    #: Tagged block addresses a hardware walker reads, one per level.
    touched_blocks: tuple[int, ...]


class PageTable:
    """One process's radix page table.

    ``extended=True`` selects the IvLeague layout, whose wide PTEs
    embed the Leaf Mapping Metadata (LMM).
    """

    def __init__(self, asid: int, extended: bool = False) -> None:
        self.asid = asid
        self.bits = IVLEAGUE_BITS if extended else CLASSIC_BITS
        self.pte_bytes = IVLEAGUE_PTE_BYTES if extended else CLASSIC_PTE_BYTES
        # entries: vpn -> pfn
        self._entries: dict[int, int] = {}
        # Each radix level's "pages" are modelled as a dense region in the
        # PTABLE address space, partitioned per asid; this gives stable,
        # distinct block addresses for walk traffic without materialising
        # interior nodes.
        self._region = asid << 28

    # -- functional mapping ---------------------------------------------------

    def map(self, vpn: int, pfn: int) -> None:
        if vpn in self._entries:
            raise ValueError(f"vpn {vpn} already mapped")
        self._entries[vpn] = pfn

    def unmap(self, vpn: int) -> int:
        pfn = self._entries.pop(vpn, None)
        if pfn is None:
            raise KeyError(f"vpn {vpn} not mapped")
        return pfn

    # -- walk modelling -------------------------------------------------------

    def walk(self, vpn: int) -> WalkResult:
        """Resolve ``vpn`` like a hardware walker, reporting touched blocks."""
        pfn = self._entries.get(vpn)
        if pfn is None:
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
        return WalkResult(pfn, tuple(touched))
