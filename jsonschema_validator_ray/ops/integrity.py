"""Cross-table integrity validation: primary-key uniqueness and
foreign-key orphan reports.

The reference validates one JSON document against one schema
(`/root/reference/src/types/schema.rs`); the table-engine generalization
of the same contract is *referential* validation — "every fk value in the
child table must exist as a pk value in the parent table" and "the pk
column must be unique and non-null". This module turns those constraints
into a single streaming report over any number of (child, parent)
relations.

100-TB shape: ONE pass per distinct table, no shuffle. Each pass folds
per-block `value_counts` partials (distinct keys + row counts per block)
into driver-side sorted key/count arrays via one vectorized group-by
sum, so driver state is DISTINCT-KEY scale, not row scale — the same contract as `ref_check`'s broadcast lookup and
`incremental_dedup`'s snapshot set. For row-scale key cardinality
(e.g. an event-id pk at 100 TB), swap the exact fold for the
`bloom_semi_join(negate=True)` route in `ops/join.py` (no false negatives
→ orphan counts stay exact after the exact-verify of bloom survivors);
the report semantics are unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _key_partials(ds, cols):
    """One streaming pass over ``ds`` covering ALL ``cols`` at once:
    returns ``{col: (keys, counts, n_rows, n_null)}`` — sorted distinct
    non-null int64 keys with aligned row counts per column. Per-block
    work is one vectorized ``value_counts`` per column, kept FLAT and
    column-tagged (null keys ride along as a null-valued count row, so
    block row totals need no side channel); the driver fold is one
    ``concat + TableGroupBy.sum`` over (col, k) — no Python per-key loop
    anywhere (review r5; same fold shape as `aggregates.value_counts`).
    A table referenced by several checks is therefore read exactly once,
    with only the checked columns leaving storage."""
    from ..rayutil import collect_partials

    cols = list(cols)

    def part(batch: pa.Table) -> pa.Table:
        outs = []
        for col in cols:
            arr = batch[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            vc = pc.value_counts(arr.cast(pa.int64()))  # nulls counted too
            outs.append(pa.table({
                "col": pa.array([col] * len(vc), pa.string()),
                "k": vc.field("values"),
                "c": vc.field("counts").cast(pa.int64())}))
        return pa.concat_tables(outs)

    parts = collect_partials(ds.map_batches(
        part, batch_format="pyarrow", zero_copy_batch=True))
    out = {}
    if not parts:
        for col in cols:
            out[col] = (np.zeros(0, np.int64), np.zeros(0, np.int64), 0, 0)
        return out
    folded = pa.TableGroupBy(pa.concat_tables(parts), ["col", "k"]) \
        .aggregate([("c", "sum")])
    for col in cols:
        sel = folded.filter(pc.equal(folded["col"], col))
        karr = sel["k"]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        carr = sel["c_sum"]
        null_mask = pc.is_null(karr)
        n_null = int(pc.sum(pc.if_else(
            null_mask, carr, pa.scalar(0, pa.int64()))).as_py() or 0)
        n_rows = int(pc.sum(carr).as_py() or 0)
        valid = pc.invert(null_mask)
        keys = karr.filter(valid).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        counts = carr.combine_chunks().filter(valid) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys)
        out[col] = (keys[order], counts[order], n_rows, n_null)
    return out


def integrity_report(pk_checks, fk_checks) -> pa.Table:
    """Build the integrity report table.

    ``pk_checks``: list of ``(label, ds, col)`` — one row per check with
    ``n_violations`` = duplicated pk rows (rows beyond the first per key)
    + null-pk rows, i.e. ``n_rows − count(DISTINCT col)`` in SQL terms
    (SQL DISTINCT excludes nulls, so null rows count as violations on
    both sides).

    ``fk_checks``: list of ``(label, child_ds, fk_col, parent_ds,
    pk_col)`` — ``n_violations`` = child rows whose fk has no matching
    parent pk, exactly SQL ``NOT EXISTS`` (a NULL fk matches no parent
    row, so it counts as an orphan — the corpus convention; filter nulls
    upstream for optional-reference semantics).

    Each distinct Dataset is scanned ONCE even when it appears in several
    checks or contributes several columns (keyed by object identity; all
    of a table's checked columns fold in the same pass). Keys must be
    integer-castable (the repo-wide join-key contract). Output columns:
    ``check_name, n_rows, n_violations``, sorted by ``check_name``.
    """
    wanted: dict = {}          # id(ds) -> (ds, {cols})
    for _label, ds, col in pk_checks:
        wanted.setdefault(id(ds), (ds, set()))[1].add(col)
    for _label, child, fk_col, parent, pk_col in fk_checks:
        wanted.setdefault(id(child), (child, set()))[1].add(fk_col)
        wanted.setdefault(id(parent), (parent, set()))[1].add(pk_col)
    scans = {ds_id: _key_partials(ds, sorted(cols))
             for ds_id, (ds, cols) in wanted.items()}

    def scan(ds, col):
        return scans[id(ds)][col]

    rows = []
    for label, ds, col in pk_checks:
        keys, counts, n_rows, n_null = scan(ds, col)
        dup_extra = int((counts - 1)[counts > 1].sum())
        rows.append((label, n_rows, dup_extra + n_null))
    for label, child, fk_col, parent, pk_col in fk_checks:
        ck, cv, c_rows, c_null = scan(child, fk_col)
        pk_arr, _pc, _p_rows, _p_null = scan(parent, pk_col)
        if len(pk_arr):
            pos = np.searchsorted(pk_arr, ck)
            pos[pos == len(pk_arr)] = 0
            orphan_rows = int(cv[pk_arr[pos] != ck].sum())
        else:
            orphan_rows = int(cv.sum())
        rows.append((label, c_rows, orphan_rows + c_null))

    rows.sort()
    return pa.table({
        "check_name": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64()),
        "n_violations": pa.array([r[2] for r in rows], pa.int64()),
    })
