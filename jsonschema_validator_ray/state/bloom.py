"""Vectorized Bloom filter (Bloom 1970, public algorithm), mergeable by
bitwise OR — the broadcast-sketch side of join prefiltering.

Bit array stored as a numpy uint8 buffer; the k probe positions come from
double hashing (Kirsch-Mitzenmacher: ``h1 + i*h2`` is as good as k
independent hashes) over the same vectorized 64-bit polars hash the HLL
sketch uses (`state/hll.hash64`) — no Python-per-row anywhere.
"""

from __future__ import annotations

import numpy as np

from .hll import hash64


class BloomFilter:
    """``m_bits`` bit slots, ``k`` probes. add/contains are fully
    vectorized over arrow/numpy columns; merge = OR (same key universe +
    params required)."""

    def __init__(self, m_bits: int = 1 << 20, k: int = 5,
                 bits: np.ndarray | None = None):
        if m_bits % 8:
            raise ValueError(f"BloomFilter: m_bits must be a multiple of 8, "
                             f"got {m_bits}")
        self.m = m_bits
        self.k = k
        self.bits = (bits.astype(np.uint8, copy=True) if bits is not None
                     else np.zeros(m_bits // 8, np.uint8))

    def _positions(self, values) -> np.ndarray:
        h = hash64(values)
        h1 = h % np.uint64(self.m)
        # odd step so every probe sequence cycles the full table
        h2 = ((h >> np.uint64(33)) | np.uint64(1)) % np.uint64(self.m)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return ((h1[None, :] + i * h2[None, :]) % np.uint64(self.m)) \
            .astype(np.int64)

    def add(self, values) -> None:
        pos = self._positions(values).ravel()
        np.bitwise_or.at(self.bits, pos >> 3,
                         np.uint8(1) << (pos & 7).astype(np.uint8))

    def contains(self, values) -> np.ndarray:
        """Vectorized membership mask: True = maybe present (false-positive
        rate ~ (1-e^{-kn/m})^k), False = DEFINITELY absent."""
        pos = self._positions(values)
        got = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return got.all(axis=0)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError(f"BloomFilter.merge: (m_bits, k) "
                             f"{(other.m, other.k)} != {(self.m, self.k)}")
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self

    def to_bytes(self) -> bytes:
        return self.bits.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int = 5) -> "BloomFilter":
        bits = np.frombuffer(data, np.uint8)
        return cls(m_bits=bits.size * 8, k=k, bits=bits)
