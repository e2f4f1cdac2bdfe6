"""Sequence packing for training-data pipelines: assign documents to
fixed-capacity token bins (context windows) with the classic greedy
in-order first-fit rule — item i joins the current bin iff it fits, else
it opens a new bin; an oversized first item still claims a bin — and
optionally concatenate each bin's texts into the actual packed sequence.

Scale shape: packing is a sequential recurrence (each decision depends on
the previous fill), so it cannot be a corpus-wide scan at 100 TB. The
distributable definition used here (and by real pipelines) is
PARTITION-LOCAL packing: rows are range-partitioned by ``id // part_size``
(deterministic, SQL-expressible — the oracle reproduces the exact same
bins with a recursive CTE), each partition packs independently after an
in-partition id sort, and bins never cross partitions. ONE
``rayutil.bucket_groups`` shuffle on ``grp`` total, whether packing alone
or packing + concat; a bucket may hold several partitions, and the scan
restarts at each. The bin scan is a Python loop by necessity, linear in
the bucket's rows; every other stage is vectorized Arrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import bucket_groups


def _add_grp_fn(id_col: str, size_col: str, part_size: int,
                carry_cols: tuple[str, ...]):
    def add_grp(batch: pa.Table) -> pa.Table:
        sel = batch.select([id_col, size_col, *carry_cols])
        mask = pc.and_kleene(pc.is_valid(sel[id_col]),
                             pc.is_valid(sel[size_col])).fill_null(False)
        sel = sel.filter(mask)
        grp = pc.divide(sel[id_col].cast(pa.int64()),
                        pa.scalar(part_size, pa.int64()))
        return sel.append_column("grp", grp)
    return add_grp


def _pack_scan(sizes: np.ndarray, grps: np.ndarray, capacity: int):
    """The greedy first-fit recurrence (sequential by definition), restarted
    at the first row of each ``grp`` (rows sorted by grp, then id)."""
    n = sizes.size
    bins = np.empty(n, np.int64)
    fills = np.empty(n, np.int64)
    b, fill, prev = 0, 0, None
    for i, (s, g) in enumerate(zip(sizes.tolist(), grps.tolist())):
        if g != prev:
            b, fill, prev = 0, 0, g
        elif fill + s > capacity:
            b += 1
            fill = 0
        fill += s
        bins[i] = b
        fills[i] = fill
    return bins, fills


def _packed_group(t: pa.Table, id_col: str, size_col: str, capacity: int,
                  carry_cols: tuple[str, ...]) -> pa.Table:
    srt = t.sort_by([("grp", "ascending"), (id_col, "ascending")])
    sizes = srt[size_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    bins, fills = _pack_scan(
        sizes, srt["grp"].to_numpy(zero_copy_only=False), capacity)
    cols = {id_col: srt[id_col].cast(pa.int64())}
    for c in carry_cols:
        cols[c] = srt[c]
    cols["grp"] = srt["grp"]
    cols["bin"] = pa.array(bins, pa.int64())
    cols["fill"] = pa.array(fills, pa.int64())
    return pa.table(cols)


def pack_sequences(ds, id_col: str, size_col: str, capacity: int,
                   part_size: int = 512,
                   carry_cols: tuple[str, ...] = ()):
    """Greedy in-order first-fit packing of rows into bins of ``capacity``
    (summed ``size_col`` units), partition-local by ``id // part_size``.

    Returns a Dataset with columns ``(id_col, *carry_cols, grp, bin,
    fill)``: ``bin`` is 0-based within its ``grp``; ``fill`` is the bin's
    cumulative size after adding the row (so each bin's last row carries
    its final fill). ``carry_cols`` pass through unchanged. Null ids/sizes
    are dropped.
    """
    def pack_group(t: pa.Table) -> pa.Table:
        return _packed_group(t, id_col, size_col, capacity, carry_cols)

    return bucket_groups(ds, "grp", pack_group, prepare=_add_grp_fn(
        id_col, size_col, part_size, carry_cols))


def concat_packed(ds, id_col: str, size_col: str, text_col: str,
                  capacity: int, part_size: int = 512,
                  separator: str = " "):
    """Build the actual packed training sequences: pack, then concatenate
    each bin's texts in id order with ``separator`` (separators are NOT
    counted against ``capacity`` — ``fill`` accounts ``size_col`` units
    only, documented). Packing and concat share ONE ``grp`` shuffle — the
    concat runs inside the same bucket the pack scan just filled, fully
    vectorized (segment offsets from (grp, bin) run boundaries + one
    ``ListArray`` + ``pc.binary_join``).

    Output: ``(grp, bin, n_docs, packed_chars, packed_text)`` — at 100 TB
    a sink writes ``packed_text`` per partition; gate queries md5 it.
    """
    def pack_concat_group(t: pa.Table) -> pa.Table:
        packed = _packed_group(t, id_col, size_col, capacity, (text_col,))
        bins = packed["bin"].to_numpy(zero_copy_only=False)
        grps = packed["grp"].to_numpy(zero_copy_only=False)
        n = bins.size
        first = np.ones(n, bool)
        if n > 1:
            first[1:] = (bins[1:] != bins[:-1]) | (grps[1:] != grps[:-1])
        starts = np.flatnonzero(first)
        offsets = np.append(starts, n).astype(np.int32)
        texts = packed[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), texts),
            separator)
        return pa.table({
            "grp": pa.array(grps[starts], pa.int64()),
            "bin": pa.array(bins[starts], pa.int64()),
            "n_docs": pa.array(np.diff(offsets).astype(np.int64),
                               pa.int64()),
            "packed_chars": pc.utf8_length(joined).cast(pa.int64()),
            "packed_text": joined,
        })

    return bucket_groups(ds, "grp", pack_concat_group, prepare=_add_grp_fn(
        id_col, size_col, part_size, (text_col,)))
