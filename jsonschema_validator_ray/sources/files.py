"""JSONL / CSV / Arrow-IPC / NumPy sources and sinks (SURVEY.md §2.2
sources/sinks row).

The reference validates JSON documents; at table scale the natural
interchange formats beside Parquet are JSONL (one JSON object per line),
CSV, Arrow IPC (Feather V2 — the zero-copy schema-carrying handoff format
between Arrow-native tools), and ``.npy`` (the embedding-matrix dump
format model-side loaders read). JSONL/CSV map onto Ray Data's native
parallel readers/writers:
``read_json`` / ``read_csv`` fan out one read task per file (so a
directory of shards parallelizes for free), and ``write_json`` /
``write_csv`` emit one shard per block — the same resumable
one-file-per-shard layout as the Parquet sink. At 100 TB these formats
cost ~3-5× Parquet in bytes and lose column pruning (a JSONL/CSV read
always scans whole rows), so pipelines should land in Parquet; these
sources exist for ingest/egress interop, and the gate proves the
roundtrip is lossless.
"""

from __future__ import annotations

import os
import shutil


def write_jsonl(ds, path: str):
    """Write one ``.json`` (JSONL) shard per block under ``path``
    (directory is replaced — the writer is resume-by-rerun like the
    Parquet sink, not append)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    ds.write_json(path)
    return path


def read_jsonl(path: str):
    """Parallel JSONL read: one task per shard file."""
    import ray

    return ray.data.read_json(path)


def write_csv(ds, path: str):
    """Write one ``.csv`` shard per block under ``path`` (replaced)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    ds.write_csv(path)
    return path


def read_csv(path: str):
    """Parallel CSV read: one task per shard file (schema inferred by the
    Arrow CSV reader; pass explicit types via read_csv kwargs upstream if
    inference is ambiguous)."""
    import ray

    return ray.data.read_csv(path)


def _write_shards(ds, path: str, ext: str, encode):
    """Shared block-parallel shard sink: one ``encode``-d file per block
    under ``path`` (replaced), content-addressed + atomic. Ray may re-run
    a side-effecting block (schema probes, task retries at cluster
    scale) — identical content then lands on the SAME name instead of
    planting a stray duplicate shard; ``_commit_file``'s unique tmp keeps
    two concurrent writers of that same name from interleaving, the same
    contract as ops.sink's parquet parts. ``encode(batch) -> bytes-like``
    runs inside the writer task, straight from the Arrow block (no
    pandas / Python-object detour). Returns the shard manifest
    (path, n_rows; one row per shard — driver-scale), which is also what
    forces execution."""
    import hashlib

    import pyarrow as pa

    from ..rayutil import collect_partials

    # bound at op-construction time (driver-side) so the worker closure
    # carries the helper by value — the repo-wide rule for the
    # driver-inits-Ray-before-PYTHONPATH fallback (rayutil.py)
    from ..ops.sink import _commit_file

    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)

    def write_block(batch: "pa.Table") -> "pa.Table":
        buf = encode(batch)
        basename = f"shard-{hashlib.md5(buf).hexdigest()}.{ext}"

        def _write(tmp: str) -> None:
            with open(tmp, "wb") as f:
                f.write(buf)

        name, _skipped = _commit_file(path, basename, _write)
        return pa.table({"path": pa.array([name], pa.string()),
                         "n_rows": pa.array([batch.num_rows], pa.int64())})

    parts = collect_partials(ds.map_batches(
        write_block, batch_format="pyarrow",
        batch_size=None,                         # whole blocks
        zero_copy_batch=True))
    # dedupe by path: identical-content blocks commit one file
    per_file: dict = {}
    for t in parts:
        for p, n in zip(t["path"].to_pylist(), t["n_rows"].to_pylist()):
            per_file[p] = int(n)
    names = sorted(per_file)
    return pa.table({"path": pa.array(names, pa.string()),
                     "n_rows": pa.array([per_file[p] for p in names],
                                        pa.int64())})


def write_ipc(ds, path: str):
    """Arrow IPC (Feather V2, ``.arrow``) sink: one self-describing IPC
    file per block under ``path`` (replaced), via the content-addressed
    idempotent shard contract of :func:`_write_shards`. The file carries
    its own schema so the read side needs no footer scan."""
    import pyarrow as pa

    def encode(batch: "pa.Table"):
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, batch.schema) as w:
            w.write_table(batch)
        return sink.getvalue()

    return _write_shards(ds, path, "arrow", encode)


def read_ipc(path: str):
    """Parallel Arrow IPC read: one decode task per shard file.
    ``read_binary_files`` hands each task the raw file bytes zero-copy
    from the object store; ``pa.ipc.open_file`` over a BufferReader then
    maps the columns without a byte copy. ``batch_size=1`` keeps one file
    per decode call so a shard's memory footprint bounds the task, the
    same per-file parallelism contract as the JSONL/CSV readers."""
    import pyarrow as pa
    import ray

    def decode(batch: "pa.Table") -> "pa.Table":
        col = batch["bytes"].combine_chunks()
        return pa.concat_tables(
            pa.ipc.open_file(pa.BufferReader(col[i].as_buffer())).read_all()
            for i in range(len(col)))

    return ray.data.read_binary_files(path, file_extensions=["arrow"]) \
        .map_batches(decode, batch_format="pyarrow", batch_size=1)


def write_orc(ds, path: str):
    """Apache ORC sink: one self-describing ``.orc`` file per block under
    ``path`` (replaced) — the columnar interchange format of
    Hive/Trino-era warehouses, so egress to those stacks needs no
    re-encode step. Ray Data has no native ORC writer, so this rides the
    same block-parallel content-addressed shape as :func:`write_ipc`:
    each writer task encodes its Arrow block with ``pyarrow.orc`` straight
    from the object store (no pandas detour), names the shard by content
    hash (a Ray schema probe or task retry re-commits the SAME file
    instead of planting a stray duplicate), and commits through
    ``ops.sink._commit_file``'s unique-tmp atomic rename. Returns the
    shard manifest (path, n_rows — one row per shard, driver-scale),
    which is also what forces execution."""
    import pyarrow as pa
    from pyarrow import orc

    def encode(batch: "pa.Table"):
        sink = pa.BufferOutputStream()
        orc.write_table(batch, sink)
        return sink.getvalue()

    return _write_shards(ds, path, "orc", encode)


def read_orc(path: str):
    """Parallel ORC read: one decode task per shard file.
    ``read_binary_files`` hands each task the raw bytes zero-copy from the
    object store; ``pyarrow.orc.ORCFile`` over a BufferReader decodes
    stripes into Arrow without an intermediate copy. ``batch_size=1``
    keeps one file per decode call so a shard's memory footprint bounds
    the task — the same per-file parallelism contract as the IPC reader.
    (At 100 TB, stripe-level splitting inside huge single files would be
    the next step; the sink's one-file-per-block layout keeps shards
    block-sized so file-level parallelism is already full-width.)"""
    import pyarrow as pa
    import ray
    from pyarrow import orc

    def decode(batch: "pa.Table") -> "pa.Table":
        col = batch["bytes"].combine_chunks()
        return pa.concat_tables(
            orc.ORCFile(pa.BufferReader(col[i].as_buffer())).read()
            for i in range(len(col)))

    return ray.data.read_binary_files(path, file_extensions=["orc"]) \
        .map_batches(decode, batch_format="pyarrow", batch_size=1)


def write_npy(ds, path: str, column: str):
    """NumPy ``.npy`` sink for a single ndarray column: one matrix shard
    per block under ``path`` (replaced) — the interchange format of
    embedding dumps and model-side loaders. Rides Ray Data's native
    ``write_numpy`` (one shard per block, parallel)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    ds.write_numpy(path, column=column)
    return path


def read_npy(path: str):
    """Parallel ``.npy`` read: one task per shard; rows come back under
    the ``data`` column as ndarrays (Ray tensor extension)."""
    import ray

    return ray.data.read_numpy(path)


def union_by_name(datasets, schemas):
    """Schema-evolution-tolerant union: combine Datasets whose schemas
    differ by column SET (the late-added-column / dropped-column case a
    long-lived ingest inevitably hits) into one Dataset over the superset
    schema, missing columns null-filled — SQL ``UNION ALL BY NAME``.

    ``schemas`` are the per-dataset Arrow schemas, passed EXPLICITLY (the
    repo-wide rule: ``Dataset.schema()`` on a lazy plan executes a limit-1
    probe). A column appearing in several inputs must carry one type (the
    first occurrence wins; later conflicting types raise — silent casts
    would corrupt data). Each input gets one vectorized pad stage; the
    union itself is metadata-only, so inputs stream independently."""
    import pyarrow as pa

    from ..rayutil import pad_to, strip_meta

    if not datasets or len(datasets) != len(schemas):
        raise ValueError("need one explicit schema per dataset")
    fields: dict = {}
    for sch in schemas:
        for f in sch:
            if f.name not in fields:
                fields[f.name] = f.type
            elif fields[f.name] != f.type:
                raise TypeError(
                    f"union_by_name: column {f.name!r} has conflicting "
                    f"types {fields[f.name]} vs {f.type}")
    superset = pa.schema(list(fields.items()))

    def pad(batch: pa.Table) -> pa.Table:
        return strip_meta(pad_to(batch, superset))

    padded = [d.map_batches(pad, batch_format="pyarrow",
                            zero_copy_batch=True) for d in datasets]
    out = padded[0]
    for d in padded[1:]:
        out = out.union(d)
    return out


# every character Python's str.splitlines() (Ray's read_text line framing)
# treats as a line break — NOT just "\n"; a value containing any of these
# would silently shatter into multiple rows on reread (review r5)
_LINE_BREAK_RE = "[\\n\\r\\x0b\\x0c\\x1c\\x1d\\x1e\\x{85}\\x{2028}\\x{2029}]"


def write_text(ds, path: str, column: str):
    """Plain-text lines sink (``.txt``): one shard per block under
    ``path`` (replaced), one line per value of ``column``, via the
    content-addressed idempotent shard contract of :func:`_write_shards`.
    The format is the lowest common denominator for text-corpus interop
    (tokenizer trainers, grep-ability); it cannot encode NULL, so null
    values are DROPPED (documented, mirrored by the oracle's ``WHERE col
    IS NOT NULL``), and a value containing ANY line-break character the
    reader's ``str.splitlines()`` framing recognizes (``\\n \\r \\v \\f
    \\x1c-\\x1e \\x85 U+2028 U+2029``) raises rather than silently
    splitting into several rows. Empty strings roundtrip (``splitlines``
    never fabricates a line from the final newline, so an interior empty
    line is unambiguous). Content-addressing caveat shared with every
    shard sink in this module: two DISTINCT blocks with byte-identical
    encoded content collapse to one shard (the price of idempotent
    retries); real corpora never form two identical multi-MB blocks, but
    adversarially duplicated inputs should repartition first."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def encode(batch: "pa.Table"):
        col = batch[column].combine_chunks() \
            if isinstance(batch[column], pa.ChunkedArray) else batch[column]
        col = col.drop_null()
        if pc.any(pc.match_substring_regex(col, _LINE_BREAK_RE)).as_py():
            raise ValueError(
                f"write_text: column {column!r} contains an embedded "
                "line-break character (one of \\n \\r \\v \\f \\x1c-\\x1e "
                "\\x85 U+2028 U+2029) — the lines format cannot represent "
                "it; clean or escape the column first")
        if len(col) == 0:
            return b""
        # one zero-copy list wrap around the whole column, then a single
        # vectorized join — no per-row Python
        wrap = pa.ListArray.from_arrays(
            pa.array([0, len(col)], pa.int32()), col)
        return (pc.binary_join(wrap, "\n")[0].as_py() + "\n").encode()

    return _write_shards(ds, path, "txt", encode)


def read_text(path: str):
    """Parallel text-lines read: ``ray.data.read_text`` fans out one task
    per ``.txt`` shard and yields one row per line in a single ``text``
    column — the inverse of :func:`write_text`.
    ``drop_empty_lines=False`` is load-bearing: Ray's default (True) also
    drops WHITESPACE-ONLY lines (``line.strip() == ''``), which would
    silently lose ``" "`` rows and break the roundtrip contract."""
    import ray

    return ray.data.read_text(path, file_extensions=["txt"],
                              drop_empty_lines=False)


def _fold_row_groups(md, idx: int) -> tuple:
    """``(min, max, n_nulls, has_stats)`` of leaf column ``idx`` folded
    across the row groups of one footer ``md``. A row group without
    min/max statistics makes every field unknown (None, has_stats False).
    ``null_count`` is optional in the Parquet footer: when a row group
    omits it, ``n_nulls`` is None — an unknown count, not 0."""
    mins, maxs, nulls = [], [], 0
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            return None, None, None, False
        mins.append(st.min)
        maxs.append(st.max)
        nulls = None if nulls is None or st.null_count is None \
            else nulls + int(st.null_count)
    if not mins:
        return None, None, nulls, False
    return min(mins), max(maxs), nulls, True


def zone_map(files, column: str):
    """FOOTER-ONLY per-file zone map: ``(file, n_rows, n_nulls, min, max)``
    for ``column``, folded across each file's row groups — the scan-pruning
    metadata a predicate-pushdown planner consults before touching data
    pages (min/max zone maps; cf. Parquet column statistics). No data page
    is ever read: each task opens the ~KB footer, so the op costs
    O(files), not O(rows) — at 100 TB this is the difference between a
    catalog refresh and a full scan.

    Distributed shape: the FILE LIST (not the data) is the dataset —
    ``from_items`` over paths, ``map_batches`` fanning footer reads across
    the cluster. Caveat (documented contract, asserted by the oracle gate
    only for short keys): Parquet writers may truncate statistics for very
    long binary values; min/max are then bounds, not exact extrema —
    ``has_stats`` is False when any row group lacks statistics entirely.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from ..rayutil import ensure_worker_importable
    ensure_worker_importable()

    def footers(batch: pa.Table) -> pa.Table:
        out = {"file": [], "n_rows": [], "n_nulls": [],
               "min": [], "max": [], "has_stats": []}
        for path in batch["item"].to_pylist():
            md = pq.ParquetFile(path).metadata
            # Parquet LEAF-column index, not the Arrow field index — the
            # two diverge as soon as a nested column precedes `column`,
            # and a miss must be an error, not the last column's stats
            leaf_paths = [md.schema.column(i).path
                          for i in range(md.num_columns)]
            try:
                idx = leaf_paths.index(column)
            except ValueError:
                raise KeyError(
                    f"zone_map: no leaf column {column!r} in {path} "
                    f"(leaves: {leaf_paths})") from None
            mn, mx, nulls, ok = _fold_row_groups(md, idx)
            out["file"].append(os.path.basename(path))
            out["n_rows"].append(int(md.num_rows))
            out["n_nulls"].append(nulls)
            out["min"].append(mn)
            out["max"].append(mx)
            out["has_stats"].append(ok)
        return pa.table({
            "file": pa.array(out["file"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_nulls": pa.array(out["n_nulls"], pa.int64()),
            "min": pa.array(out["min"]),
            "max": pa.array(out["max"]),
            "has_stats": pa.array(out["has_stats"], pa.bool_()),
        })

    return ray.data.from_items(list(files)).map_batches(
        footers, batch_format="pyarrow")
