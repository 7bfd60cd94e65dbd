"""Split encryption counters (paper Table I: 64-bit major, 7-bit minor).

One 64B counter block serves one 4KB page: a page-wide major counter plus
a small per-64B-block minor counter.  The effective counter for block
``i`` is ``major * 2**minor_bits + minor[i]``.  When a minor counter
overflows, the major counter increments, all minors reset, and the whole
page must be re-encrypted (every block's effective counter changed) --
an expensive event the secure engine charges for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.config import BLOCKS_PER_PAGE


@dataclass
class CounterBlock:
    """Functional split-counter block for one page."""

    minor_bits: int = 7
    major: int = 0
    minors: list[int] = field(
        default_factory=lambda: [0] * BLOCKS_PER_PAGE)

    @property
    def minor_max(self) -> int:
        return (1 << self.minor_bits) - 1

    def value(self, block_in_page: int) -> int:
        """Effective counter for one 64B block."""
        return (self.major << self.minor_bits) | self.minors[block_in_page]

    def increment(self, block_in_page: int) -> bool:
        """Bump the counter for a write; True if the page must re-encrypt."""
        if self.minors[block_in_page] < self.minor_max:
            self.minors[block_in_page] += 1
            return False
        self.major += 1
        self.minors = [0] * len(self.minors)
        return True

    def reset(self) -> None:
        """Fresh state for a newly (re)mapped page."""
        self.major = 0
        self.minors = [0] * len(self.minors)


class CounterStore:
    """All counter blocks of the machine, allocated lazily per page."""

    def __init__(self, minor_bits: int = 7) -> None:
        self.minor_bits = minor_bits
        self._blocks: dict[int, CounterBlock] = {}
        self.overflows = 0

    def block(self, page: int) -> CounterBlock:
        cb = self._blocks.get(page)
        if cb is None:
            cb = CounterBlock(minor_bits=self.minor_bits)
            self._blocks[page] = cb
        return cb

    def peek(self, page: int) -> CounterBlock | None:
        """The page's counter block, or None while it is lazily zero
        (unlike :meth:`block`, never materialises one)."""
        return self._blocks.get(page)

    def value(self, page: int, block_in_page: int) -> int:
        return self.block(page).value(block_in_page)

    def increment(self, page: int, block_in_page: int) -> bool:
        overflowed = self.block(page).increment(block_in_page)
        if overflowed:
            self.overflows += 1
        return overflowed

    def reset_page(self, page: int) -> None:
        self._blocks.pop(page, None)

    def serialize(self, page: int) -> bytes:
        """Canonical byte image of a counter block (hash-tree input)."""
        cb = self.block(page)
        payload = cb.major.to_bytes(8, "little")
        payload += bytes(cb.minors)
        return payload
