"""Resumable partitioned Parquet sink.

``write_partitioned_parquet`` writes one Parquet file per block with a
DETERMINISTIC name derived from the block's content hash, atomically
(tmp + rename), and skips files that already exist — so a killed run
re-executes only unwritten blocks on resume, and re-running a completed
job writes nothing. A ``_manifest.json`` records the file list + row
counts; ``ray.data.read_parquet(out_dir)`` round-trips the dataset.

Content-addressing contract (review r4): the sink cannot distinguish a
RE-EXECUTED block (the resume case it exists for) from a DISTINCT block
whose bytes happen to be identical — two byte-identical blocks commit ONE
part, and the manifest's ``n_rows`` counts the deduplicated file set. Real
corpora never produce byte-identical multi-row blocks; a constant-valued
dataset split into equal blocks would. If exact multiplicity matters,
carry a distinguishing column (e.g. a source offset) through the write.
Crash recovery: tmp files are ``_``-prefixed (parquet readers ignore
them) and swept by the next run before writing.

This is the generic form of the flagship pipeline's per-partition output
(`pipelines/validate.run_partitioned`): never one giant file, safe to
re-run, partition-skippable.

Resume assumption: block boundaries are deterministic for the same input +
plan (true for parquet reads with fixed override_num_blocks). A resume
under a DIFFERENT plan writes a disjoint file set — clear the directory or
use run_partitioned's manifest-checked partitions when plans may change.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..rayutil import collect_partials


def _commit_file(out_dir: str, basename: str, write_fn) -> tuple[str, bool]:
    """Atomic content-addressed file commit shared by every sink (parquet
    parts here, IPC shards in sources/files.py): write through a UNIQUE tmp
    (two identical-content blocks in one run target the same final path — a
    shared tmp would let concurrent writers interleave before the rename),
    os.replace for the atomic commit, skip when the file already exists.
    The tmp basename is "_"-prefixed: parquet/Ray directory readers skip
    '_'/'.'-prefixed files, so a crash mid-write can't leave a truncated
    file that breaks the documented read-back (review r4). ``write_fn``
    receives the tmp path and must write the complete file there.
    Returns (path, skipped)."""
    import uuid

    path = os.path.join(out_dir, basename)
    skipped = os.path.exists(path)
    if not skipped:
        stem = os.path.splitext(basename)[0]
        tmp = os.path.join(
            out_dir, f"_{stem}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        write_fn(tmp)
        os.replace(tmp, path)
    return path, skipped


def _commit_part(table: pa.Table, out_dir: str) -> tuple[str, bool]:
    """Content-addressed atomic parquet part commit, shared by both parquet
    sinks: hash the table's IPC bytes for a deterministic name, then commit
    through `_commit_file`. Returns (path, skipped)."""
    import hashlib

    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    digest = hashlib.blake2b(sink.getvalue().to_pybytes(),
                             digest_size=12).hexdigest()
    return _commit_file(out_dir, f"part-{digest}.parquet",
                        lambda tmp: pq.write_table(table, tmp))


def _sweep_stale_tmps(out_dir: str) -> int:
    """Remove ``_*.tmp`` leftovers from a previous crashed run (their blocks
    re-execute and commit atomically; the orphans are dead weight). Runs on
    the driver before the write starts; current-run tmps can't be present."""
    n = 0
    for root, _dirs, names in os.walk(out_dir):
        for name in names:
            if name.startswith("_") and name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(root, name))
                    n += 1
                except OSError:
                    pass
    return n


def _write_manifest(out_dir: str, manifest: dict) -> None:
    tmp = os.path.join(out_dir, "_manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, "_manifest.json"))

def write_partitioned_parquet(ds, out_dir: str) -> dict:
    """Write ``ds`` to ``out_dir`` as content-addressed Parquet parts.
    Returns the manifest dict {files: [...], n_rows, n_skipped}."""
    import polars as pl  # noqa: F401  (kept importable check out of tasks)

    os.makedirs(out_dir, exist_ok=True)
    _sweep_stale_tmps(out_dir)

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "n_rows": pa.array([], pa.int64()),
                             "skipped": pa.array([], pa.bool_())})
        path, skipped = _commit_part(batch, out_dir)
        return pa.table({"path": pa.array([path], pa.string()),
                         "n_rows": pa.array([batch.num_rows], pa.int64()),
                         "skipped": pa.array([skipped], pa.bool_())})

    results = [t for t in collect_partials(ds.map_batches(
        write_block, batch_format="pyarrow", zero_copy_batch=True))
        if "path" in t.column_names]
    # manifest counts derive from the DEDUPLICATED file set: identical-content
    # blocks commit one file, so summing per-task n_rows would overcount
    per_file: dict[str, int] = {}
    n_skipped = 0
    for t in results:
        for p, n, s in zip(t["path"].to_pylist(), t["n_rows"].to_pylist(),
                           t["skipped"].to_pylist()):
            per_file[p] = int(n)
            n_skipped += bool(s)
    files = sorted(per_file)
    n_rows = sum(per_file.values())
    manifest = {"files": files, "n_rows": int(n_rows),
                "n_skipped": int(n_skipped)}
    _write_manifest(out_dir, manifest)
    return manifest


def compact_parquet(src_dir: str, dst_dir: str,
                    target_rows_per_file: int) -> dict:
    """Small-file compaction — the table-maintenance pass every
    long-running ingest needs (content-addressed sinks write one part
    per block; thousands of tiny parts tank read parallelism planning
    and metadata cost at 100 TB). Reads the part directory, coalesces
    blocks to ``ceil(n_rows / target_rows_per_file)`` output files
    WITHOUT a shuffle (``repartition(n, shuffle=False)`` splits/merges
    block refs — no all-to-all, rows never leave their relative order),
    and rewrites through the same content-addressed resumable sink, so
    a killed compaction resumes like any other write. Returns
    ``{n_files_in, n_files_out, n_rows}``.

    Row counts come from parquet FOOTERS only (one metadata read per
    input file, driver-scale) — the data itself streams straight from
    read to write."""
    import math

    import ray

    in_files = sorted(f for f in os.listdir(src_dir)
                      if f.endswith(".parquet"))
    n_rows = sum(pq.read_metadata(os.path.join(src_dir, f)).num_rows
                 for f in in_files)
    n_out = max(1, math.ceil(n_rows / max(1, target_rows_per_file)))
    ds = ray.data.read_parquet(
        [os.path.join(src_dir, f) for f in in_files])
    manifest = write_partitioned_parquet(ds.repartition(n_out), dst_dir)
    return {"n_files_in": len(in_files),
            "n_files_out": len(manifest["files"]),
            "n_rows": int(manifest["n_rows"])}


def write_hive_partitioned(ds, out_dir: str, partition_col: str) -> dict:
    """Key-partitioned (hive-style) resumable sink: one
    ``<col>=<value>/`` directory per distinct partition value, with
    content-addressed, atomically-committed parts inside each — so
    downstream reads prune whole partitions (read only the key ranges you
    need) AND a killed run resumes by skipping already-written blocks,
    exactly like `write_partitioned_parquet`.

    Assumes enum-scale partition cardinality (the per-batch split loops
    over values PRESENT in the batch, never rows). Rows with a NULL
    partition value land in the Hive convention's
    ``<col>=__HIVE_DEFAULT_PARTITION__/`` directory — previously they were
    silently dropped (review r4). Returns a manifest
    ``{partitions: {value: n_rows}, files, n_skipped}``.
    """
    import pyarrow.compute as pc

    os.makedirs(out_dir, exist_ok=True)
    _sweep_stale_tmps(out_dir)

    NULL_PART = "__HIVE_DEFAULT_PARTITION__"

    def write_block(batch: pa.Table) -> pa.Table:
        empty = {"partition": pa.array([], pa.string()),
                 "path": pa.array([], pa.string()),
                 "n_rows": pa.array([], pa.int64()),
                 "skipped": pa.array([], pa.bool_())}
        if batch.num_rows == 0:
            return pa.table(empty)
        col = batch[partition_col].combine_chunks() \
            if isinstance(batch[partition_col], pa.ChunkedArray) \
            else batch[partition_col]
        rows = {"partition": [], "path": [], "n_rows": [], "skipped": []}

        def commit(part: pa.Table, label: str) -> None:
            pdir = os.path.join(out_dir, f"{partition_col}={label}")
            os.makedirs(pdir, exist_ok=True)
            path, skipped = _commit_part(part, pdir)
            rows["partition"].append(label)
            rows["path"].append(path)
            rows["n_rows"].append(part.num_rows)
            rows["skipped"].append(skipped)

        for v in pc.unique(col.drop_null()).to_pylist():
            commit(batch.filter(pc.equal(col, v)), str(v))
        nulls = batch.filter(pc.is_null(col))
        if nulls.num_rows:
            commit(nulls, NULL_PART)
        return pa.table({k: pa.array(v) for k, v in rows.items()})

    results = [t for t in collect_partials(ds.map_batches(
        write_block, batch_format="pyarrow", zero_copy_batch=True))
        if "path" in t.column_names]
    per_file: dict[str, tuple] = {}
    n_skipped = 0
    for t in results:
        for v, p, n, s in zip(t["partition"].to_pylist(),
                              t["path"].to_pylist(),
                              t["n_rows"].to_pylist(),
                              t["skipped"].to_pylist()):
            per_file[p] = (v, int(n))
            n_skipped += bool(s)
    partitions: dict[str, int] = {}
    for v, n in per_file.values():
        partitions[v] = partitions.get(v, 0) + n
    manifest = {"partitions": partitions, "files": sorted(per_file),
                "n_skipped": int(n_skipped)}
    _write_manifest(out_dir, manifest)
    return manifest
