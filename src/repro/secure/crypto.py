"""Cryptographic primitives for the secure-memory model.

Functional correctness uses real (non-accelerated) primitives from
:mod:`hashlib` -- blake2 stands in for AES/SHA hardware engines, which is
fine because the architecture only cares about determinism, collision
resistance and freshness, not the concrete cipher.  Timing is carried by
the latency constants in :class:`repro.sim.config.SecureConfig`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def keyed_hash(key: bytes, *parts: bytes, digest_size: int = 16) -> bytes:
    """Keyed hash used for MACs and integrity-tree nodes."""
    h = hashlib.blake2b(key=key[:64], digest_size=digest_size)
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return h.digest()


def one_time_pad(key: bytes, seed: bytes, length: int) -> bytes:
    """Counter-mode pad: expand ``hash(key, seed)`` to ``length`` bytes."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += keyed_hash(key, seed, counter.to_bytes(4, "little"),
                          digest_size=32)
        counter += 1
    return bytes(out[:length])


@dataclass(frozen=True)
class EncryptionSeed:
    """Seed = (physical block address, counter value) -- paper Section II-B."""

    block_addr: int
    counter: int

    def to_bytes(self) -> bytes:
        return (self.block_addr.to_bytes(8, "little")
                + self.counter.to_bytes(16, "little"))


class CounterModeCipher:
    """Counter-mode encryption of 64B blocks.

    ``ciphertext = plaintext XOR pad(key, addr || counter)``; re-using a
    counter for the same address leaks plaintext XORs, which is why
    counters must increment on every write (tested in the unit suite).
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 128 bits")
        self._key = key

    def encrypt(self, plaintext: bytes, seed: EncryptionSeed) -> bytes:
        n = len(plaintext)
        pad = one_time_pad(self._key, seed.to_bytes(), n)
        return (int.from_bytes(plaintext, "little")
                ^ int.from_bytes(pad, "little")).to_bytes(n, "little")

    # XOR is an involution.
    decrypt = encrypt
