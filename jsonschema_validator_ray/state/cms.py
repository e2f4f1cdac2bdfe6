"""Vectorized Count-Min sketch (Cormode & Muthukrishnan 2005, public
algorithm), mergeable by element-wise ADD — bounded-memory point-frequency
estimates for unbounded key domains (the frequency complement of the HLL's
distinct count and the Misra-Gries top-k's survivors).

The ``d`` row positions come from the same Kirsch-Mitzenmacher double
hashing the Bloom filter uses (``h1 + i*h2`` over `state/hll.hash64`), and
updates are one ``np.add.at`` scatter per batch — no Python-per-row.

Guarantee (standard CM): ``true <= estimate``, and with probability
``1 - (1/2)^d`` the overshoot is ``estimate - true <= (e/width) * N`` where
``N`` is the total updates folded into the sketch. Merging sketches of the
same shape preserves both bounds over the combined stream — the property
that makes per-block partials safe.
"""

from __future__ import annotations

import numpy as np

from .hll import hash64


class CountMinSketch:
    """``d`` rows x ``width`` counters of int64; merge = element-wise add."""

    def __init__(self, width: int = 2048, d: int = 4,
                 table: np.ndarray | None = None):
        self.width = width
        self.d = d
        self.table = (table.astype(np.int64, copy=True)
                      if table is not None
                      else np.zeros((d, width), np.int64))
        self.n = int(table.sum() // d) if table is not None else 0

    def _positions(self, values) -> np.ndarray:
        h = hash64(values)
        h1 = h % np.uint64(self.width)
        h2 = ((h >> np.uint64(33)) | np.uint64(1)) % np.uint64(self.width)
        i = np.arange(self.d, dtype=np.uint64)[:, None]
        return ((h1[None, :] + i * h2[None, :]) % np.uint64(self.width)) \
            .astype(np.int64)

    def update(self, values) -> None:
        pos = self._positions(values)
        rows = np.repeat(np.arange(self.d), pos.shape[1])
        np.add.at(self.table, (rows, pos.ravel()), 1)
        self.n += pos.shape[1]

    def estimate(self, values) -> np.ndarray:
        """Vectorized point query: min over rows → int64 upper-biased
        estimates, one per input value."""
        pos = self._positions(values)
        return self.table[np.arange(self.d)[:, None], pos].min(axis=0)

    def error_bound(self) -> int:
        """The (e/width)·N additive overshoot certificate for the stream
        folded so far (holds per estimate with prob 1 - 2^-d)."""
        return int(np.ceil(np.e / self.width * self.n))

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if self.width != other.width or self.d != other.d:
            raise ValueError(
                f"cannot merge a ({other.d}, {other.width}) Count-Min sketch "
                f"into a ({self.d}, {self.width}) one")
        self.table += other.table
        self.n += other.n
        return self

    def to_bytes(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, width: int = 2048,
                   d: int = 4) -> "CountMinSketch":
        table = np.frombuffer(data, np.int64).reshape(d, width)
        sk = cls(width=width, d=d, table=table)
        return sk
