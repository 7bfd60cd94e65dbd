"""End-to-end *functional* secure memory.

The timing engines (:mod:`repro.secure.engine`, :mod:`repro.core`) model
which blocks move where and when; this module models *what the bytes
are*: a complete secure-memory pipeline -- counter-mode encryption,
per-block MACs and the Bonsai Merkle Tree -- over an explicitly
untrusted DRAM image, with an adversary API for the three classic
physical attacks (spoofing, splicing, replay).

It backs the security test-suite and the attack demo's correctness
claims: every write really re-encrypts under a fresh counter, every read
really decrypts, verifies the MAC and walks the tree, and every
tampering primitive is really detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.secure.bmt import BonsaiMerkleTree, TamperDetected, TreeGeometry
from repro.secure.counters import CounterStore
from repro.secure.crypto import CounterModeCipher, EncryptionSeed
from repro.secure.mac import MacStore
from repro.sim.config import BLOCK_BYTES, BLOCKS_PER_PAGE


class IntegrityViolation(Exception):
    """Read failed verification: MAC mismatch or tree mismatch."""


@dataclass
class UntrustedDRAM:
    """The off-chip byte store the adversary may rewrite at will."""

    blocks: dict[int, bytes] = None

    def __post_init__(self) -> None:
        if self.blocks is None:
            self.blocks = {}

    def read(self, block_addr: int) -> bytes:
        return self.blocks.get(block_addr, b"\x00" * BLOCK_BYTES)

    def write(self, block_addr: int, data: bytes) -> None:
        if len(data) != BLOCK_BYTES:
            raise ValueError("blocks are 64 bytes")
        self.blocks[block_addr] = data


class FunctionalSecureMemory:
    """Processor-side secure memory over :class:`UntrustedDRAM`.

    Addressing is (page, block_in_page); one counter block per page and
    an 8-ary BMT over the counter blocks, exactly like the timing model.
    """

    def __init__(self, n_pages: int,
                 key: bytes = b"ivleague-functional-key!") -> None:
        if n_pages < 1:
            raise ValueError("need at least one page")
        self.n_pages = n_pages
        self.dram = UntrustedDRAM()
        self._cipher = CounterModeCipher(key)
        self._macs = MacStore(key + b"/mac")
        self.counters = CounterStore()
        self.tree = BonsaiMerkleTree(TreeGeometry(n_pages), self.counters,
                                     key=key + b"/bmt")
        self.reads = 0
        self.writes = 0

    # -- helpers ----------------------------------------------------------------

    def _block_addr(self, page: int, block: int) -> int:
        if not 0 <= page < self.n_pages:
            raise IndexError(f"page {page} out of range")
        if not 0 <= block < BLOCKS_PER_PAGE:
            raise IndexError(f"block {block} out of range")
        return page * BLOCKS_PER_PAGE + block

    def _seed(self, addr: int, page: int, block: int) -> EncryptionSeed:
        return EncryptionSeed(addr, self.counters.value(page, block))

    # -- the secure datapath --------------------------------------------------------

    def write(self, page: int, block: int, plaintext: bytes) -> None:
        """Encrypt under a fresh counter, MAC, update the tree."""
        if len(plaintext) != BLOCK_BYTES:
            raise ValueError("blocks are 64 bytes")
        addr = self._block_addr(page, block)
        # bump the counter *first*: freshness of the new ciphertext
        self.tree.update_counter(page, block)
        seed = self._seed(addr, page, block)
        ciphertext = self._cipher.encrypt(plaintext, seed)
        self.dram.write(addr, ciphertext)
        self._macs.update(addr, ciphertext, seed.counter)
        self.writes += 1

    def read(self, page: int, block: int) -> bytes:
        """Verify tree + MAC, then decrypt; raises on any tampering."""
        addr = self._block_addr(page, block)
        if addr not in self.dram.blocks and \
                self._macs.stored(addr) is None:
            # Never-written block: defined to read as zeroes (the
            # processor zero-fills fresh secure pages).
            self.reads += 1
            return b"\x00" * BLOCK_BYTES
        ciphertext = self.dram.read(addr)
        try:
            self.tree.verify(page)
        except TamperDetected as exc:
            raise IntegrityViolation(f"tree: {exc}") from exc
        seed = self._seed(addr, page, block)
        written = addr in self.dram.blocks
        if written or self._macs.stored(addr) is not None:
            if not self._macs.verify(addr, ciphertext, seed.counter):
                raise IntegrityViolation(
                    f"MAC mismatch at page {page} block {block}")
        self.reads += 1
        return self._cipher.decrypt(ciphertext, seed)

    # -- the physical adversary -------------------------------------------------------

    def adversary_spoof(self, page: int, block: int,
                        raw: bytes) -> None:
        """Overwrite ciphertext in DRAM (bus tampering)."""
        self.dram.write(self._block_addr(page, block), raw)

    def adversary_splice(self, dst: tuple[int, int],
                         src: tuple[int, int]) -> None:
        """Copy another location's ciphertext+MAC over ``dst``."""
        d = self._block_addr(*dst)
        s = self._block_addr(*src)
        self.dram.write(d, self.dram.read(s))
        mac = self._macs.stored(s)
        if mac is not None:
            self._macs.tamper(d, mac)

    def adversary_replay(self, page: int, block: int) -> "ReplayCapsule":
        """Snapshot (ciphertext, MAC, counter) for a later replay.

        Reading the snapshot changes nothing: a never-written page's
        counter block stays lazily zero, and the capsule records it as
        absent rather than materialising it behind the tree."""
        addr = self._block_addr(page, block)
        cb = self.counters.peek(page)
        return ReplayCapsule(page, block, self.dram.read(addr),
                             self._macs.stored(addr),
                             None if cb is None else cb.major,
                             None if cb is None else list(cb.minors))

    def adversary_apply_replay(self, capsule: "ReplayCapsule") -> None:
        """Write the stale snapshot back (data + MAC + counters).

        A consistent full-state replay -- detectable only by the tree."""
        addr = self._block_addr(capsule.page, capsule.block)
        self.dram.write(addr, capsule.ciphertext)
        if capsule.mac is not None:
            self._macs.tamper(addr, capsule.mac)
        if capsule.minors is None:
            self.counters.reset_page(capsule.page)
        else:
            cb = self.counters.block(capsule.page)
            cb.major = capsule.major
            cb.minors = list(capsule.minors)
        # deliberately no tree refresh: memory changed behind the root


@dataclass
class ReplayCapsule:
    page: int
    block: int
    ciphertext: bytes
    mac: bytes | None
    #: the page's counter block; None while it was lazily zero
    major: int | None
    minors: list[int] | None
