"""Tagged physical address spaces.

Data, encryption counters, integrity-tree nodes, MACs, NFL blocks and
page-table pages occupy disjoint physical regions in a real secure
processor.  We model that by tagging block addresses with a region id in
the top bits, so every cache and the DRAM model can serve all regions
through a single integer keyspace without aliasing.
"""

from __future__ import annotations

SPACE_SHIFT = 48
#: The block-number bits of a tagged address, below the space tag.
BLOCK_MASK = (1 << SPACE_SHIFT) - 1

DATA = 0
COUNTER = 1
TREE = 2
MAC = 3
NFL = 4
PTABLE = 5
LMM = 6

_NAMES = {
    DATA: "data",
    COUNTER: "counter",
    TREE: "tree",
    MAC: "mac",
    NFL: "nfl",
    PTABLE: "ptable",
    LMM: "lmm",
}


def tag(space: int, block: int) -> int:
    """Build a tagged block address."""
    if block < 0:
        raise ValueError(f"negative block address: {block}")
    return (space << SPACE_SHIFT) | block


def space_of(addr: int) -> int:
    return addr >> SPACE_SHIFT


def block_of(addr: int) -> int:
    return addr & BLOCK_MASK


def space_name(addr: int) -> str:
    return _NAMES.get(space_of(addr), f"space{space_of(addr)}")


def is_metadata(addr: int) -> bool:
    return space_of(addr) != DATA
