"""Group checks: (conv_id, turn_idx) uniqueness + ts monotonicity.

Both plans of ``validate()`` end in the same vectorized sorted-run pass
(``local_group_check``: a local sort, then ``SortedRunChecker``), which
checks every conversation run of a table and emits one small run record
per run:

- one pass (the default): each row-stage batch checks its own group-check
  rows. The driver splits the run records with ``split_overlapping_runs``:
  runs of a conversation that follow one another merge exactly
  (``merge_run_boundaries``); conversations whose runs overlap are
  re-checked exactly from their own rows.
- keyed (the fallback): a 3-column re-read is shuffled on the group key by
  ``rayutil.bucket_groups``, so each conversation meets whole in one bucket
  and the bucket's check is exact, with one run record per conversation.
  The price is the per-key contract of every ``bucket_groups`` op: one
  task holds a whole conversation's three projected columns.

Check semantics (FIXTURES.md §B), per conversation ordered by
``(turn_idx, ts)``:
- rows with null (or uncastable — see kernels.order_key_int64) turn_idx are
  excluded (they already fired type/required),
- unique: adjacent equal turn_idx per conv (over all remaining rows),
- mono: over rows with VALID ts, in turn order, ts must never DECREASE —
  a violation is ``ts < prev_ts`` at a different turn; equal consecutive ts
  pass (matches the oracle's ``WHERE ts < lag(ts)``); violations attribute
  to the regressing row's turn_idx. ``ts`` breaks turn_idx ties, so a
  duplicated turn compares its latest ts with the next turn whatever the
  physical row order.

Also home to the shared hash/run primitives of the ops' keyed shuffles
(``np_column_hash`` tags ``rayutil.bucket_groups`` buckets; ``run_starts``
and ``segmented_running_max`` scan the keys inside a bucket).
"""

from __future__ import annotations

from typing import Optional

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

# run records as the checker returns them: plus the run's row count
RUNS_COUNTED = RUN_BOUNDARY_SCHEMA.append(pa.field("n_rows", pa.int64()))

CHECK_OUT_SCHEMA = pa.schema([
    ("kind", pa.string()),         # "violation" | "boundary"
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("constraint_id", pa.string()),
    ("message", pa.string()),
    *[f for f in RUN_BOUNDARY_SCHEMA if f.name != "conv_id"],
])


def _as_array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _adjacent_equal(arr: pa.Array) -> np.ndarray:
    """``arr[i] == arr[i - 1]`` for i >= 1 as one vectorized C compare —
    string keys never become Python objects."""
    n = len(arr)
    if n < 2:
        return np.zeros(0, bool)
    return _np(pc.equal(arr.slice(1), arr.slice(0, n - 1)))


def _turn_idx(tids: np.ndarray) -> pa.Array:
    """Violation turn_idx column: a checked cast, never a silent wrap."""
    return pa.array(tids, pa.int64()).cast(pa.int32())


def _group_rows(batch: pa.Table, gc: GroupCheck):
    """(conv, tid, ts) of the rows that take part in group checks. Rows with
    a null group key or a null/uncastable order key are dropped: they
    already fired required/type kernels, and a null key would poison the
    adjacent-equality masks (pc.equal yields null, not False). ``ts`` is
    float64 ticks with NaN where no valid ts takes part in mono (all NaN for
    a unique-only spec, which does not project ts)."""
    batch = batch.select([c for c in (gc.group_key, gc.order_by, gc.ts_column)
                          if c in batch.column_names])   # before any filter
    conv = _as_array(batch[gc.group_key])
    tid_arr = order_key_int64(batch[gc.order_by])
    keep = pc.and_(pc.is_valid(tid_arr), pc.is_valid(conv))
    if not pc.all(keep).as_py():
        batch = batch.filter(keep)
        tid_arr = tid_arr.filter(keep)
        conv = _as_array(batch[gc.group_key])
    if gc.check_mono and gc.ts_column in batch.column_names:
        ts = _np(ts_key_int64(batch[gc.ts_column])).astype(np.float64)
    else:
        ts = np.full(batch.num_rows, np.nan)
    return conv, _np(tid_arr).astype(np.int64, copy=False), ts


def _local_order(conv: pa.Array, tid: np.ndarray,
                 ts: np.ndarray) -> Optional[np.ndarray]:
    """Row order that makes every conversation of a batch one run sorted by
    (turn_idx, ts), or None when the batch already is in that order (the
    common case for clustered input, where no sort runs). Conversations
    group by dictionary code — a hash, not a string sort: codes number the
    conversations in order of first appearance, so they never decrease
    exactly when each conversation is one contiguous run. Null ts sort last
    within their turn."""
    codes = _np(pc.dictionary_encode(conv).indices)
    tsk = np.where(ts == ts, ts, np.inf)
    ordered = (codes[1:] > codes[:-1]) | ((codes[1:] == codes[:-1]) & (
        (tid[1:] > tid[:-1]) | ((tid[1:] == tid[:-1]) & (tsk[1:] >= tsk[:-1]))))
    if ordered.all():
        return None
    return np.lexsort((tsk, tid, codes))


def stack_check_out(viol: pa.Table, runs: pa.Table) -> pa.Table:
    """One kind-tagged CHECK_OUT_SCHEMA table: the violations, then the run
    records (columns a side lacks are null; ``n_rows`` is dropped)."""
    k, r = viol.num_rows, runs.num_rows

    def stacked(f: pa.Field) -> pa.Array:
        if f.name == "kind":
            return pa.concat_arrays([pa.repeat("violation", k),
                                     pa.repeat("boundary", r)])
        top = _as_array(viol[f.name]) if f.name in viol.column_names \
            else pa.nulls(k, f.type)
        bottom = _as_array(runs[f.name]) if f.name in runs.column_names \
            else pa.nulls(r, f.type)
        return pa.concat_arrays([top, bottom])

    return pa.table([stacked(f) for f in CHECK_OUT_SCHEMA],
                    schema=CHECK_OUT_SCHEMA)


class SortedRunChecker:
    """Vectorized check of blocks whose conversations are runs sorted by
    (group_key, order_by, ts), with one run record per run: a row-stage
    batch or a keyed bucket after ``local_group_check``'s sort, or any
    block already in that order."""

    def __init__(self, gc: GroupCheck):
        self.gc = gc
        self.cid_unique = f"unique:({gc.group_key},{gc.order_by})"
        self.cid_mono = f"mono:{gc.order_by}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        """CHECK_OUT_SCHEMA rows of a sorted block: violations, then run
        records."""
        return stack_check_out(*self.check_rows(*_group_rows(batch, self.gc)))

    def check_rows(self, conv: pa.Array, tid: np.ndarray,
                   ts: np.ndarray) -> tuple[pa.Table, pa.Table]:
        """(violations, run records) of sorted group-check rows (see
        ``_group_rows``); each run record also carries its run's row count
        (``n_rows``)."""
        gc = self.gc
        n = len(tid)
        if n == 0:
            return VIOLATION_SCHEMA.empty_table(), RUNS_COUNTED.empty_table()
        same = _adjacent_equal(conv)

        dup = np.flatnonzero(same & (tid[1:] == tid[:-1])) + 1 \
            if gc.check_unique else np.zeros(0, np.int64)
        valid = ts == ts
        reg = np.zeros(0, np.int64)
        if gc.check_mono and valid.any():
            vpos = np.flatnonzero(valid)
            tv, sv = tid[vpos], ts[vpos]
            same_v = same if valid.all() \
                else _adjacent_equal(conv.take(pa.array(vpos)))
            reg = vpos[np.flatnonzero(
                same_v & (sv[1:] < sv[:-1]) & (tv[1:] != tv[:-1])) + 1]
        v_idx = np.concatenate([dup, reg]).astype(np.int64)
        kinds = np.repeat([0, 1], [dup.size, reg.size])
        viol = pa.table({
            "conv_id": conv.take(pa.array(v_idx)).cast(pa.string()),
            "turn_idx": _turn_idx(tid[v_idx]),
            "constraint_id": pa.DictionaryArray.from_arrays(
                pa.array(kinds, pa.int8()),
                pa.array([self.cid_unique, self.cid_mono])).cast(pa.string()),
            "message": pa.DictionaryArray.from_arrays(
                pa.array(kinds, pa.int8()),
                pa.array(["Duplicate key", "Non-monotonic ts for turn order"])
            ).cast(pa.string()),
        }, schema=VIOLATION_SCHEMA)

        # per-run records (runs = maximal same-conv spans in this block)
        starts = np.concatenate([[0], np.flatnonzero(~same) + 1])
        ends = np.concatenate([starts[1:], [n]])          # exclusive
        idx = np.arange(n)
        first_v = np.minimum.reduceat(np.where(valid, idx, n), starts)
        last_v = np.maximum.reduceat(np.where(valid, idx, -1), starts)
        has_f, has_l = first_v < n, last_v >= 0
        fi, li = np.where(has_f, first_v, 0), np.where(has_l, last_v, 0)
        return viol, pa.table({
            "conv_id": conv.take(pa.array(starts)).cast(pa.string()),
            "first_tid": pa.array(tid[starts]),
            "last_tid": pa.array(tid[ends - 1]),
            "first_vts": pa.array(np.where(has_f, ts[fi], np.nan)),
            "last_vts": pa.array(np.where(has_l, ts[li], np.nan)),
            "first_vtid": pa.array(np.where(has_f, tid[fi], -1)),
            "last_vtid": pa.array(np.where(has_l, tid[li], -1)),
            "n_rows": pa.array(ends - starts),
        }, schema=RUNS_COUNTED)


def local_group_check(batch: pa.Table,
                      gc: GroupCheck) -> tuple[pa.Table, pa.Table]:
    """The group check of a single table in any row order: sort its
    group-check rows by (group_key, order_by, ts) and check them, with one
    run record per run. Violations are exact for a conversation whose rows
    all sit in this table (always so in a keyed bucket); otherwise the
    driver resolves it from the records."""
    conv, tid, ts = _group_rows(batch, gc)
    order = _local_order(conv, tid, ts)
    if order is not None:
        conv, tid, ts = conv.take(pa.array(order)), tid[order], ts[order]
    return SortedRunChecker(gc).check_rows(conv, tid, ts)


def split_overlapping_runs(records: pa.Table) -> tuple[pa.Table, pa.Array]:
    """Split run records into those the boundary merge resolves exactly and
    the conversations it cannot.

    A conversation's records, in (first_tid, last_tid) order, merge exactly
    when each starts after every earlier one ends. A record whose first_tid
    is at or below the running max last_tid overlaps an earlier run — also
    when the two only share one turn_idx: that turn's duplicate rows sit in
    both runs, so neither run's first/last valid ts is the extreme of the
    turn and the seam comparison would depend on row order. Returns
    (the other conversations' records sorted by (conv_id, first_tid), the
    sorted distinct conv_ids that need the exact re-check)."""
    if records.num_rows == 0:
        return records, pa.array([], pa.string())
    srt = records.sort_by([("conv_id", "ascending"),
                           ("first_tid", "ascending"),
                           ("last_tid", "ascending")])
    conv = _as_array(srt["conv_id"])
    first = _np(srt["first_tid"]).astype(np.int64, copy=False)
    last = _np(srt["last_tid"]).astype(np.int64, copy=False)
    n = len(first)
    new_conv = np.concatenate([[True], ~_adjacent_equal(conv)])
    seg = np.cumsum(new_conv) - 1
    run_max = segmented_running_max(last, seg)
    hit = np.zeros(n, bool)
    hit[1:] = ~new_conv[1:] & (first[1:] <= run_max[:-1])
    starts = np.flatnonzero(new_conv)
    conv_hit = np.logical_or.reduceat(hit, starts)
    return (srt.filter(pa.array(~conv_hit[seg])),
            conv.take(pa.array(starts[conv_hit])).cast(pa.string()))


def resolve_runs(group: pa.Table, mergeable: pa.Table, overlap: pa.Array,
                 gc: GroupCheck, recheck) -> pa.Table:
    """Exact group-check violations from batch-local checks: ``group`` (the
    batches' own violations) and the run records split by
    ``split_overlapping_runs``. Conversations whose runs follow one another
    keep their batch-local rows plus the seam merge; the ``overlap`` ones
    lose their batch-local rows to ``recheck(conv_ids)``, which must check
    all of their rows."""
    local = group.filter(pc.invert(pc.is_in(group["conv_id"],
                                            value_set=overlap)))
    return pa.concat_tables([local, merge_run_boundaries(mergeable, gc),
                             recheck(overlap.to_pylist())])


def merge_run_boundaries(boundaries: pa.Table, gc: GroupCheck) -> pa.Table:
    """Driver-side merge over run records whose runs follow one another in
    (conv_id, turn_idx, ts) order: the records ``split_overlapping_runs``
    keeps. Restores exact global semantics across batch splits: duplicate
    keys straddling a split, and ts regressions whose adjacent pair was cut
    by the split."""
    if boundaries.num_rows == 0:
        return VIOLATION_SCHEMA.empty_table()
    tbl = boundaries.sort_by([("conv_id", "ascending"), ("first_tid", "ascending")])
    conv = _as_array(tbl["conv_id"]).cast(pa.string())
    first_tid = _np(tbl["first_tid"].cast(pa.int64()))
    last_tid = _np(tbl["last_tid"].cast(pa.int64()))
    first_vts = _np(tbl["first_vts"].cast(pa.float64()))
    last_vts = _np(tbl["last_vts"].cast(pa.float64()))
    first_vtid = _np(tbl["first_vtid"].cast(pa.int64()))
    last_vtid = _np(tbl["last_vtid"].cast(pa.int64()))
    same = _adjacent_equal(conv)

    out_idx: list = []
    out_tid: list = []
    out_cid: list = []
    out_msg: list = []

    if gc.check_unique:
        dup = np.flatnonzero(same & (first_tid[1:] == last_tid[:-1])) + 1
        out_idx.append(dup)
        out_tid.append(first_tid[dup])
        out_cid += [f"unique:({gc.group_key},{gc.order_by})"] * dup.size
        out_msg += ["Duplicate key"] * dup.size
    if gc.check_mono:
        # carry the last valid (vts, vtid) FORWARD per conv_id: a run record
        # with no valid-ts rows (NaN first/last_vts) must not break the chain —
        # each record's first valid pair compares against the nearest
        # preceding record (same conv) that has a valid last pair.
        n = len(first_tid)
        starts = np.concatenate([[0], np.flatnonzero(~same) + 1])
        lens = np.diff(np.concatenate([starts, [n]]))
        conv_start = np.repeat(starts, lens)          # conv's first record idx
        validL = last_vts == last_vts
        validF = first_vts == first_vts
        src = np.where(validL, np.arange(n), -1)
        prev_src = np.concatenate([[-1], np.maximum.accumulate(src)[:-1]])
        ok = (prev_src >= conv_start) & validF
        p = np.where(prev_src >= 0, prev_src, 0)      # safe gather index
        reg = np.flatnonzero(ok & (first_vts < last_vts[p])
                             & (first_vtid != last_vtid[p]))
        out_idx.append(reg)
        out_tid.append(first_vtid[reg])
        out_cid += [f"mono:{gc.order_by}"] * reg.size
        out_msg += ["Non-monotonic ts for turn order"] * reg.size

    idx = np.concatenate(out_idx).astype(np.int64) if out_idx \
        else np.zeros(0, np.int64)
    tids = np.concatenate(out_tid) if out_tid else np.zeros(0, np.int64)
    return pa.table({
        "conv_id": conv.take(pa.array(idx)),
        "turn_idx": _turn_idx(tids),
        "constraint_id": pa.array(out_cid, pa.string()),
        "message": pa.array(out_msg, pa.string()),
    }, schema=VIOLATION_SCHEMA)


# --- hash/run primitives shared by the ops' keyed shuffles ---------------

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


def segmented_running_max(v: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Running maximum of ``v`` that restarts at every segment (``seg``:
    non-decreasing 0-based segment ids, one per element). Rank-compresses
    the values and lifts every segment above the ones before it (``seg *
    n_values``), so one ``np.maximum.accumulate`` never carries across
    segments. Exact for any values: only ranks are offset, never the
    values themselves."""
    values, rank = np.unique(v, return_inverse=True)
    lift = seg.astype(np.int64) * values.size
    return values[np.maximum.accumulate(lift + rank) - lift]


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
    "stack_check_out",
    "local_group_check",
    "merge_run_boundaries",
    "resolve_runs",
    "split_overlapping_runs",
    "np_column_hash",
    "run_starts",
    "segmented_running_max",
    "RUN_BOUNDARY_SCHEMA",
    "RUNS_COUNTED",
    "CHECK_OUT_SCHEMA",
]
