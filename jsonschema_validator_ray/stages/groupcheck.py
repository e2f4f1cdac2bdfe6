"""Wide-stage checks: (conv_id, turn_idx) uniqueness + ts monotonicity.

Sorted-run merge (skew-proof): ``ds.sort(["conv_id", "turn_idx"])``
range-partitions the (projected, 3-column) stream; each sorted block is
checked with ONE fully-vectorized pass over all its conversation runs (no
per-group Python), emitting one tiny boundary record per run; the driver
merges boundaries to catch duplicates/regressions that straddle block splits.
Hot conversations are split by the range partitioner at block granularity —
bounded block size regardless of key skew — and the boundary merge restores
exact global semantics.

Check semantics (FIXTURES.md §B):
- rows with null (or uncastable — see kernels.order_key_int64) turn_idx are
  excluded (they already fired type/required),
- unique: adjacent equal turn_idx per conv (over all remaining rows),
- mono: over rows with VALID ts, in turn order, ts must never DECREASE —
  a violation is ``ts < prev_ts`` at a different turn; equal consecutive ts
  pass (matches the oracle's ``WHERE ts < lag(ts)``); violations attribute
  to the regressing row's turn_idx.

Also home to the shared hash/run primitives of the ops' hash-bucket
groupbys (``np_column_hash``, ``run_starts``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..constraints.ir import GroupCheck
from ..constraints.kernels import (
    VIOLATION_SCHEMA,
    order_key_int64,
    ts_key_int64,
    _np,
)

RUN_BOUNDARY_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("first_tid", pa.int64()),
    ("last_tid", pa.int64()),
    ("first_vts", pa.float64()),   # first/last VALID ts in the run (us); NaN if none
    ("last_vts", pa.float64()),
    ("first_vtid", pa.int64()),    # tid of the first valid-ts row (mono attribution)
    ("last_vtid", pa.int64()),     # tid of the last valid-ts row
])

CHECK_OUT_SCHEMA = pa.schema([
    ("kind", pa.string()),         # "violation" | "boundary"
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("constraint_id", pa.string()),
    ("message", pa.string()),
    ("first_tid", pa.int64()),
    ("last_tid", pa.int64()),
    ("first_vts", pa.float64()),
    ("last_vts", pa.float64()),
    ("first_vtid", pa.int64()),
    ("last_vtid", pa.int64()),
])


class SortedRunChecker:
    """map_batches stage over blocks of the (conv_id, turn_idx, ts)-projected
    stream AFTER ds.sort([group_key, order_by]). One vectorized pass per block."""

    def __init__(self, gc: GroupCheck, boundary_mode: str = "edges"):
        """boundary_mode: "edges" emits boundary records only for the FIRST and
        LAST run of each block — after a global sort, a conversation's rows are
        contiguous, so only those two runs can straddle a block split. This
        keeps driver-side merge volume at 2 records per block instead of one
        per conversation. "all" emits every run's record — required in
        partitioned mode, where independently-sorted partitions can overlap on
        ANY conversation (duplicates across input files)."""
        assert boundary_mode in ("edges", "all")
        self.gc = gc
        self.boundary_mode = boundary_mode
        self.cid_unique = f"unique:({gc.group_key},{gc.order_by})"
        self.cid_mono = f"mono:{gc.order_by}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        gc = self.gc
        if batch.num_rows == 0:
            return CHECK_OUT_SCHEMA.empty_table()
        # stay in Arrow: NEVER materialize the string key column as Python
        # objects — adjacent-equality via sliced pc.equal is a vectorized C
        # string compare, and only the (rare) violation rows are ever taken.
        conv_arr = batch[gc.group_key]
        if isinstance(conv_arr, pa.ChunkedArray):
            conv_arr = conv_arr.combine_chunks()
        # null/uncastable group and order keys are excluded: those rows
        # already fired required/type kernels, and a null key would poison
        # the adjacent-equality masks below (pc.equal yields null, not False)
        tid_arr = order_key_int64(batch[gc.order_by])
        keep_mask = pc.and_(pc.is_valid(tid_arr), pc.is_valid(conv_arr))
        if not pc.all(keep_mask).as_py():
            batch = batch.filter(keep_mask)
            tid_arr = tid_arr.filter(keep_mask)
            conv_arr = batch[gc.group_key]
            if isinstance(conv_arr, pa.ChunkedArray):
                conv_arr = conv_arr.combine_chunks()
        n = batch.num_rows
        if n == 0:
            return CHECK_OUT_SCHEMA.empty_table()
        tid = _np(tid_arr)
        if gc.check_mono and gc.ts_column in batch.column_names:
            ts = _np(ts_key_int64(batch[gc.ts_column])).astype(np.float64)
        else:
            # unique-only spec: ts isn't projected — mono never fires and
            # boundary records carry no valid-ts fields (NaN/-1 sentinels)
            ts = np.full(n, np.nan)

        # blocks arrive sorted by (conv, tid)
        same = _np(pc.equal(conv_arr.slice(1), conv_arr.slice(0, n - 1))) \
            if n > 1 else np.zeros(0, bool)

        v_idx: list = []            # indices into this (filtered) batch
        v_cid: list = []
        v_msg: list = []

        if gc.check_unique:
            dup = np.flatnonzero(same & (tid[1:] == tid[:-1])) + 1
            v_idx += dup.tolist()
            v_cid += [self.cid_unique] * dup.size
            v_msg += ["Duplicate key"] * dup.size

        valid = ts == ts
        if gc.check_mono and valid.any():
            vpos = np.flatnonzero(valid)
            tv, sv = tid[vpos], ts[vpos]
            if vpos.size > 1:
                cv_arr = conv_arr.take(pa.array(vpos)) if not valid.all() \
                    else conv_arr
                same_v = _np(pc.equal(cv_arr.slice(1),
                                      cv_arr.slice(0, vpos.size - 1)))
            else:
                same_v = np.zeros(0, bool)
            reg = np.flatnonzero(same_v & (sv[1:] < sv[:-1]) & (tv[1:] != tv[:-1])) + 1
            v_idx += vpos[reg].tolist()
            v_cid += [self.cid_mono] * reg.size
            v_msg += ["Non-monotonic ts for turn order"] * reg.size

        v_conv = conv_arr.take(pa.array(v_idx, pa.int64()))
        v_conv = v_conv.cast(pa.string(), safe=False).to_pylist() \
            if len(v_conv) else []
        v_tid = tid[np.asarray(v_idx, np.int64)].tolist() if v_idx else []

        # per-run boundary records (runs = maximal same-conv spans in this block)
        run_starts = np.concatenate([[0], np.flatnonzero(~same) + 1])
        run_ends = np.concatenate([run_starts[1:], [n]])  # exclusive
        idx = np.arange(n)
        masked_first = np.where(valid, idx, n)
        first_valid = np.minimum.reduceat(masked_first, run_starts)
        masked_last = np.where(valid, idx, -1)
        last_valid = np.maximum.reduceat(masked_last, run_starts)
        if self.boundary_mode == "edges" and run_starts.size > 2:
            keep_runs = np.array([0, run_starts.size - 1])
            run_starts = run_starts[keep_runs]
            run_ends = run_ends[keep_runs]
            first_valid = first_valid[keep_runs]
            last_valid = last_valid[keep_runs]

        b_conv = conv_arr.take(pa.array(run_starts, pa.int64())) \
            .cast(pa.string(), safe=False).to_pylist()
        b_first_tid = tid[run_starts].tolist()
        b_last_tid = tid[run_ends - 1].tolist()
        b_first_vts = [float(ts[int(f)]) if f < n else float("nan") for f in first_valid]
        b_last_vts = [float(ts[int(l)]) if l >= 0 else float("nan") for l in last_valid]
        b_first_vtid = [int(tid[int(f)]) if f < n else -1 for f in first_valid]
        b_last_vtid = [int(tid[int(l)]) if l >= 0 else -1 for l in last_valid]

        k = len(v_conv)
        r = len(b_conv)
        return pa.table({
            "kind": pa.array(["violation"] * k + ["boundary"] * r),
            "conv_id": pa.array(v_conv + b_conv, pa.string()),
            "turn_idx": pa.array([int(t) for t in v_tid] + [None] * r, pa.int32()),
            "constraint_id": pa.array(v_cid + [None] * r, pa.string()),
            "message": pa.array(v_msg + [None] * r, pa.string()),
            "first_tid": pa.array([None] * k + b_first_tid, pa.int64()),
            "last_tid": pa.array([None] * k + b_last_tid, pa.int64()),
            "first_vts": pa.array([None] * k + b_first_vts, pa.float64()),
            "last_vts": pa.array([None] * k + b_last_vts, pa.float64()),
            "first_vtid": pa.array([None] * k + b_first_vtid, pa.int64()),
            "last_vtid": pa.array([None] * k + b_last_vtid, pa.int64()),
        }, schema=CHECK_OUT_SCHEMA)


def merge_run_boundaries(boundaries: pa.Table, gc: GroupCheck) -> pa.Table:
    """Driver-side merge over per-run boundary records (tiny: one per conv per
    block split). Restores exact global semantics across block splits:
    duplicate keys straddling a split, and ts regressions whose adjacent pair
    was cut by the split."""
    if boundaries.num_rows == 0:
        return VIOLATION_SCHEMA.empty_table()
    tbl = boundaries.sort_by([("conv_id", "ascending"), ("first_tid", "ascending")])
    conv = _np(tbl["conv_id"].cast(pa.string()))
    first_tid = _np(tbl["first_tid"].cast(pa.int64()))
    last_tid = _np(tbl["last_tid"].cast(pa.int64()))
    first_vts = _np(tbl["first_vts"].cast(pa.float64()))
    last_vts = _np(tbl["last_vts"].cast(pa.float64()))
    first_vtid = _np(tbl["first_vtid"].cast(pa.int64()))
    last_vtid = _np(tbl["last_vtid"].cast(pa.int64()))
    same = conv[1:] == conv[:-1]

    out_conv: list = []
    out_tid: list = []
    out_cid: list = []
    out_msg: list = []

    if gc.check_unique:
        dup = np.flatnonzero(same & (first_tid[1:] == last_tid[:-1])) + 1
        out_conv += conv[dup].tolist()
        out_tid += first_tid[dup].tolist()
        out_cid += [f"unique:({gc.group_key},{gc.order_by})"] * dup.size
        out_msg += ["Duplicate key"] * dup.size
    if gc.check_mono:
        # carry the last valid (vts, vtid) FORWARD per conv_id: a run record
        # with no valid-ts rows (NaN first/last_vts) must not break the chain —
        # each record's first valid pair compares against the nearest
        # preceding record (same conv) that has a valid last pair.
        n = len(conv)
        starts = np.concatenate([[0], np.flatnonzero(~same) + 1]) \
            if n else np.zeros(0, np.int64)
        lens = np.diff(np.concatenate([starts, [n]]))
        conv_start = np.repeat(starts, lens)          # conv's first record idx
        validL = last_vts == last_vts
        validF = first_vts == first_vts
        src = np.where(validL, np.arange(n), -1)
        prev_src = np.concatenate([[-1], np.maximum.accumulate(src)[:-1]]) \
            if n else np.zeros(0, np.int64)
        ok = (prev_src >= conv_start) & validF
        p = np.where(prev_src >= 0, prev_src, 0)      # safe gather index
        reg = np.flatnonzero(ok & (first_vts < last_vts[p])
                             & (first_vtid != last_vtid[p]))
        out_conv += conv[reg].tolist()
        out_tid += first_vtid[reg].tolist()
        out_cid += [f"mono:{gc.order_by}"] * reg.size
        out_msg += ["Non-monotonic ts for turn order"] * reg.size

    return pa.table({
        "conv_id": pa.array(out_conv, pa.string()),
        "turn_idx": pa.array([int(t) for t in out_tid], pa.int32()),
        "constraint_id": pa.array(out_cid, pa.string()),
        "message": pa.array(out_msg, pa.string()),
    }, schema=VIOLATION_SCHEMA)


# --- hash/run primitives shared by the ops' hash-bucket groupbys ---------

_FNV_OFFSET = np.uint64(1469598103934665603)
_FNV_PRIME = np.uint64(1099511628211)


def np_column_hash(col) -> np.ndarray:
    """Vectorized 64-bit hash of an Arrow column. Integers hash in pure
    numpy (multiply-shift); strings use polars' native hash (~3x the numpy
    fold). The SAME function must be used by every task of a run — bucket
    assignment is only correct if a key hashes identically everywhere — so
    there is no silent fallback: a broken half-imported polars module
    (seen once in fresh Ray workers) is purged from sys.modules and
    re-imported instead."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        # nulls would force to_numpy into float64 (NaN -> undefined uint64
        # cast, precision loss past 2^53, and a key hashing DIFFERENTLY
        # depending on whether its batch happens to contain a null). Fill
        # with 0: all null keys co-locate (sharing key 0's bucket is
        # harmless) and every non-null key hashes identically everywhere —
        # required by the null-keeping grouped ops (adjacent_pairs family)
        if col.null_count:
            col = col.fill_null(0)
        v = col.cast(pa.int64()).to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return (v * np.uint64(0x9E3779B97F4A7C15)) ^ (v >> np.uint64(31))
    try:
        import polars as pl
        return pl.from_arrow(col).hash(seed=42).to_numpy().astype(np.uint64)
    except Exception:
        import sys
        for m in [m for m in list(sys.modules)
                  if m == "polars" or m.startswith("polars.")]:
            sys.modules.pop(m, None)
        import polars as pl
        return pl.from_arrow(col).hash(seed=42).to_numpy().astype(np.uint64)


def run_starts(sorted_key) -> np.ndarray:
    """Boolean mask marking the first row of each equal-key run in a
    SORTED Arrow array — the shared run-detection primitive behind the
    grouped fold family (grouped_top_k / grouped_mode /
    grouped_string_agg / vocab entropy / CDC merge). One adjacent
    ``pc.equal`` compare, type-agnostic, zero per-row Python. Callers
    null-filter keys upstream (the documented grouped-op contract);
    passing nulls through would make adjacent compares null-valued."""
    if isinstance(sorted_key, pa.ChunkedArray):
        sorted_key = sorted_key.combine_chunks()
    n = len(sorted_key)
    first = np.ones(n, bool)
    if n > 1:
        first[1:] = ~pc.equal(sorted_key.slice(1),
                              sorted_key.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
    return first


__all__ = [
    "SortedRunChecker",
    "merge_run_boundaries",
    "np_column_hash",
    "run_starts",
    "RUN_BOUNDARY_SCHEMA",
    "CHECK_OUT_SCHEMA",
]
