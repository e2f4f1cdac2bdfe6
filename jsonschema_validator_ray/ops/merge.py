"""CDC merge (SQL ``MERGE`` / upsert): apply a change stream to a
snapshot table (SURVEY.md §2.2 joins/set-ops rows; the warehouse
maintenance primitive every incremental ingest needs — the inverse of
``ops.join.table_diff``, which DERIVES a change stream from two
snapshots).

Distributed shape: ONE co-partitioned shuffle. Snapshot and changes are
the two sides of the multi-input ``rayutil.bucket_groups``, keyed on the
same column, so every change lands in the bucket holding the snapshot row
it targets and the merge is a purely local, vectorized per-bucket
reduction — the same contract that makes ``ops.join.reduce_side_hash_join``
outer semantics hold globally. Nothing driver-side, nothing quadratic;
skewed keys cost what the key histogram says and can be salted upstream
like any other bucket shuffle in this repo.

At 100 TB the changes side is normally ≪ the snapshot: a future
broadcast fast path (changes below a byte cap shipped via ``ray.put``,
snapshot streamed once, zero shuffle) would mirror
``ops.dedup.incremental_dedup``'s two-route design; the bucket route
here is the always-correct fallback and the one the gate proves.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def apply_changes(snapshot_ds, changes_ds, *, key: str,
                  seq_col: str = "seq", op_col: str = "op",
                  snapshot_schema: pa.Schema,
                  changes_schema: pa.Schema):
    """Apply a change stream to a snapshot; returns a Dataset with the
    snapshot's schema.

    Contract:

    - ``changes_ds`` carries ``key``, ``seq_col`` (monotone version),
      ``op_col`` (``"U"`` = upsert: update the row if the key exists,
      insert it otherwise; ``"D"`` = delete, a no-op for absent keys)
      plus every snapshot value column (null-allowed on deletes).
    - Per key, the change with the highest ``(seq, op)`` wins — the
      ``op`` tie-break makes equal-seq streams deterministic ("U" > "D"
      lexicographically, i.e. an upsert beats a delete at the same seq).
    - The snapshot is assumed key-unique (its primary key — enforceable
      via ``ops.integrity.integrity_report``). Null-keyed change rows
      are DROPPED (a change must address a row); null-keyed snapshot
      rows pass through unchanged (documented join-key contract,
      VERDICT r4 #7).

    Schemas are passed explicitly — the repo-wide rule: ``.schema()`` on
    a lazy Dataset executes a limit-1 probe.
    """
    from ..rayutil import bucket_groups
    from ..stages.groupcheck import run_starts

    snap_names = list(snapshot_schema.names)
    for c in (key, seq_col, op_col):
        if c not in changes_schema.names:
            raise ValueError(f"changes side is missing column {c!r}")
    # fail at construction, not deep inside a worker: a snapshot column
    # named like the version/op columns would make the changes layout
    # carry duplicate field names and the in-bucket select/sort ambiguous
    clash = {seq_col, op_col} & set(snap_names)
    if clash:
        raise ValueError(
            f"snapshot columns collide with reserved names: {sorted(clash)}"
            f" (rename them or pass different seq_col/op_col)")
    # the changes side in the snapshot's types, plus seq/op
    ch_layout = pa.schema(
        list(zip(snapshot_schema.names, snapshot_schema.types))
        + [(seq_col, changes_schema.field(seq_col).type),
           (op_col, changes_schema.field(op_col).type)])

    def checked_changes(batch: pa.Table) -> pa.Table:
        if batch[key].null_count:
            batch = batch.filter(pc.is_valid(batch[key]))
        # loud op-domain check: anything that isn't exactly "U"/"D" (incl.
        # null) would otherwise win the latest-per-key race and silently
        # DELETE the target row
        bad = pc.invert(pc.is_in(
            batch[op_col], value_set=pa.array(["U", "D"]))).fill_null(True)
        if pc.any(bad).as_py():
            n_bad = pc.sum(pc.cast(bad, pa.int64())).as_py()
            raise ValueError(
                f"{n_bad} change row(s) carry an op outside {{'U','D'}}"
                f" (nulls included) — refusing to merge a malformed change"
                f" stream")
        return batch

    def merge_bucket(snap: pa.Table, ch: pa.Table) -> pa.Table:
        if ch.num_rows == 0:
            return snap
        # latest change per key: sort (key asc, seq desc, op desc), keep
        # the first row of each key run — type-agnostic adjacent compare
        # (the Arrow-native run detection idiom, BASELINE.md round-4)
        ch = ch.sort_by([(key, "ascending"), (seq_col, "descending"),
                         (op_col, "descending")])
        latest = ch.filter(pa.array(run_starts(ch[key])))
        # every latest key displaces its snapshot row (update or delete)
        touched = latest[key].combine_chunks()
        kept = snap.filter(
            pc.invert(pc.is_in(snap[key], value_set=touched)))
        ups = latest.filter(
            pc.not_equal(latest[op_col], "D")).select(snap_names)
        return pa.concat_tables([kept, ups])

    return bucket_groups([(snapshot_ds, key, None, snapshot_schema),
                          (changes_ds, key, checked_changes, ch_layout)],
                         merge_bucket)
