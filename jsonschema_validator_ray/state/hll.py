"""HyperLogLog distinct-count sketch (Flajolet et al. 2007, public algorithm),
vectorized with numpy and mergeable by register-wise max.

Hashing of string columns is delegated to polars' vectorized 64-bit hash (a
public, seeded xx-hash variant) so the batch update path never iterates Python
rows.
"""

from __future__ import annotations

import numpy as np

_SEED = 0x9E3779B97F4A7C15


def hash64(values) -> np.ndarray:
    """Vectorized 64-bit hash of an arrow/numpy/list of values → uint64.

    Arrow (Chunked)Arrays are handed to polars zero-copy — never pass
    ``col.to_pylist()`` here; feed the column itself."""
    import polars as pl
    import pyarrow as pa

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        s = pl.from_arrow(values)
    else:
        s = pl.Series("v", values)
    return s.hash(seed=42).to_numpy().astype(np.uint64)


def hash_pair128(col) -> tuple:
    """The repo-wide 128-bit content key: TWO independent 64-bit polars
    hashes (seeds 42 / 1337) of an Arrow column — collision-negligible at
    10^12 rows. Single home for the idiom (exact_dedup_keepers, snapshot
    dedup, table profiler all key on it); change seeds/scheme HERE only."""
    import polars as pl
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = pl.from_arrow(col) if isinstance(col, pa.Array) else pl.Series("v", col)
    return (s.hash(seed=42).to_numpy().astype(np.uint64),
            s.hash(seed=1337).to_numpy().astype(np.uint64))


class HyperLogLog:
    """Standard HLL with 2**p registers; merge = element-wise max."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (registers.astype(np.uint8, copy=True)
                          if registers is not None else np.zeros(self.m, np.uint8))

    def update_hashes(self, hashes: np.ndarray) -> None:
        if hashes.size == 0:
            return
        hashes = hashes.astype(np.uint64, copy=False)
        idx = (hashes >> np.uint64(64 - self.p)).astype(np.int64)
        rest = hashes << np.uint64(self.p)
        # rank = leading zeros of remaining bits + 1, capped at 64 - p + 1
        nz = rest != 0
        lz = np.full(hashes.shape, 64 - self.p, np.int64)
        # leading zeros via the float exponent: value = mantissa * 2**exp → lz = 64 - exp
        _, exp = np.frexp(rest[nz].astype(np.float64))
        lz[nz] = np.maximum(64 - exp, 0)
        rank = np.minimum(lz + 1, 64 - self.p + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def update(self, values) -> None:
        self.update_hashes(hash64(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if self.p != other.p:
            raise ValueError(f"HyperLogLog.merge: precision {other.p} "
                             f"!= {self.p}")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def cardinality(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting for small cardinality
        return float(est)

    # serialization for manifests / cross-partition merge
    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyperLogLog":
        p = data[0]
        return cls(p, np.frombuffer(data[1:], np.uint8))
