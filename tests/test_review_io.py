"""Round-4 IO/sampling review regressions stay fixed: null-partition rows in
the hive sink, stale-tmp crash recovery, SQL-matching sample thresholds,
null-key sampling semantics, and t-digest extreme isolation."""

import os

import numpy as np
import pyarrow as pa
import pytest


def test_hive_sink_null_partition_rows_kept(ray_session, tmp_path):
    """Rows with a NULL partition value land in __HIVE_DEFAULT_PARTITION__
    instead of being silently dropped (review r4)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.sink import write_hive_partitioned

    t = pa.table({
        "lang": pa.array(["en", None, "de", None], pa.string()),
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
    })
    out = str(tmp_path / "hive")
    m = write_hive_partitioned(ray.data.from_arrow(t), out, "lang")
    assert m["partitions"].get("__HIVE_DEFAULT_PARTITION__") == 2
    assert sum(m["partitions"].values()) == 4
    back = ray.data.read_parquet(out).count()
    assert back == 4


def test_sink_sweeps_stale_tmp_files(ray_session, tmp_path):
    """A truncated _*.tmp left by a crashed writer is swept on the next run
    and never breaks the documented read-back (review r4)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.sink import write_partitioned_parquet

    out = str(tmp_path / "parts")
    os.makedirs(out)
    stale = os.path.join(out, "_part-deadbeef.123.abcd1234.tmp")
    with open(stale, "wb") as f:
        f.write(b"PAR1 truncated garbage")
    t = pa.table({"x": pa.array(range(10), pa.int64())})
    m = write_partitioned_parquet(ray.data.from_arrow(t), out)
    assert not os.path.exists(stale)
    assert m["n_rows"] == 10
    assert ray.data.read_parquet(out).count() == 10


def test_sample_threshold_matches_sql_cast():
    """The keep threshold ROUNDS like the oracle's CAST(f*2^32 AS BIGINT);
    Python int() truncation was off by one at f=0.1 (review r4)."""
    import duckdb

    from jsonschema_validator_ray.ops.sampling import _threshold

    for f in (0.1, 0.25, 0.33, 0.5, 0.9):
        sql = duckdb.sql(
            f"SELECT CAST({f} * 4294967296 AS BIGINT)").fetchone()[0]
        assert int(_threshold(f)) == int(sql), f


def test_hash_sample_drops_null_keys(ray_session):
    """Null keys are dropped (SQL predicate semantics) for both the integer
    and the hashed-string paths — no NaN→uint64 undefined casts."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.sampling import hash_sample

    t = pa.table({
        "k_int": pa.array([1, None, 3, None, 5] * 200, pa.int64()),
        "k_str": pa.array(["a", None, "c", None, "e"] * 200, pa.string()),
    })
    for col in ("k_int", "k_str"):
        out = hash_sample(ray.data.from_arrow(t), col, 1.0).take_all()
        assert len(out) == 600          # fraction=1.0 keeps every non-null
        assert all(r[col] is not None for r in out)


def test_stratified_sample_null_semantics(ray_session):
    """Null GROUP values form their own stratum (SQL PARTITION BY); null
    KEY rows are dropped (review r4)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.sampling import stratified_sample

    t = pa.table({
        "g": pa.array(["a"] * 5 + [None] * 5 + ["b"] * 5, pa.string()),
        "k": pa.array(list(range(5)) + list(range(5, 9)) + [None]
                      + list(range(9, 14)), pa.int64()),
    })
    out = stratified_sample(ray.data.from_arrow(t), "g", "k", k=2) \
        .take_all()
    by_g: dict = {}
    for r in out:
        by_g.setdefault(r["g"], []).append(r["k"])
    assert set(by_g) == {"a", "b", None}
    assert all(len(v) == 2 for v in by_g.values())
    assert all(k is not None for v in by_g.values() for k in v)


def test_tdigest_extreme_isolation():
    """First/last sorted points compress into singleton clusters, so the
    extreme centroids are the exact min/max (review r4 — the comment
    predated the implementation)."""
    from jsonschema_validator_ray.state.tdigest import TDigest

    d = TDigest(compression=50)
    vals = np.arange(1000, dtype=np.float64)
    d.update(vals)
    d._compress()
    assert d.means[0] == 0.0 and d.weights[0] == 1.0
    assert d.means[-1] == 999.0 and d.weights[-1] == 1.0
    assert abs(d.quantile(0.5) - 499.5) < 5.0
    assert d.quantile(0.0) == 0.0 and d.quantile(1.0) == 999.0


def test_ipc_roundtrip_lossless(ray_session, tmp_path):
    """write_ipc -> read_ipc preserves rows, nulls, and multibyte strings
    across multiple shards; the returned manifest matches the files on
    disk; re-running the write is idempotent (content-addressed shards —
    a Ray schema probe or task retry must not plant duplicates)."""
    import os

    import ray.data

    from jsonschema_validator_ray.sources.files import read_ipc, write_ipc

    tab = pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "text": pa.array([None if i % 7 == 0 else f"día-{i}-über"
                          for i in range(100)], pa.string()),
        "score": pa.array([None if i % 11 == 0 else i / 3.0
                           for i in range(100)], pa.float64()),
    })
    ds = ray.data.from_arrow(tab).repartition(4)
    path = str(tmp_path / "ipc")
    manifest = write_ipc(ds, path)
    files = sorted(f for f in os.listdir(path) if f.endswith(".arrow"))
    assert [os.path.basename(p) for p in
            manifest["path"].to_pylist()] == files
    assert sum(manifest["n_rows"].to_pylist()) == 100

    back = read_ipc(path).take_all()
    got = sorted((r["doc_id"], r["text"], r["score"]) for r in back)
    want = sorted(zip(tab["doc_id"].to_pylist(), tab["text"].to_pylist(),
                      tab["score"].to_pylist()))
    assert got == want

    # idempotency: a second write of the same content lands on the SAME
    # shard names (no strays), because names are content hashes
    manifest2 = write_ipc(ray.data.from_arrow(tab).repartition(4), path)
    files2 = sorted(f for f in os.listdir(path) if f.endswith(".arrow"))
    assert files2 == files
    assert sum(manifest2["n_rows"].to_pylist()) == 100


def test_orc_roundtrip_lossless(ray_session, tmp_path):
    """write_orc -> read_orc preserves rows, nulls, and multibyte strings
    across multiple shards; the manifest matches the files on disk; the
    write is idempotent (content-addressed shards, same contract as IPC)."""
    import os

    import ray.data

    from jsonschema_validator_ray.sources.files import read_orc, write_orc

    tab = pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "text": pa.array([None if i % 7 == 0 else f"día-{i}-über"
                          for i in range(100)], pa.string()),
        "score": pa.array([None if i % 11 == 0 else i / 3.0
                           for i in range(100)], pa.float64()),
    })
    ds = ray.data.from_arrow(tab).repartition(4)
    path = str(tmp_path / "orc")
    manifest = write_orc(ds, path)
    files = sorted(f for f in os.listdir(path) if f.endswith(".orc"))
    assert [os.path.basename(p) for p in
            manifest["path"].to_pylist()] == files
    assert sum(manifest["n_rows"].to_pylist()) == 100

    back = read_orc(path).take_all()
    got = sorted((r["doc_id"], r["text"], r["score"]) for r in back)
    want = sorted(zip(tab["doc_id"].to_pylist(), tab["text"].to_pylist(),
                      tab["score"].to_pylist()))
    assert got == want

    manifest2 = write_orc(ray.data.from_arrow(tab).repartition(4), path)
    files2 = sorted(f for f in os.listdir(path) if f.endswith(".orc"))
    assert files2 == files
    assert sum(manifest2["n_rows"].to_pylist()) == 100


def test_npy_roundtrip_matrix(ray_session, tmp_path):
    """write_npy -> read_npy round-trips a float32 matrix column shard by
    shard with exact bits."""
    import ray.data

    from jsonschema_validator_ray.sources.files import read_npy, write_npy

    rng = np.random.default_rng(3)
    mat = rng.normal(size=(64, 8)).astype(np.float32)
    ds = ray.data.from_items([{"data": mat[i]} for i in range(64)]) \
        .repartition(4)
    path = str(tmp_path / "npy")
    write_npy(ds, path, "data")
    back = read_npy(path).take_all()
    got = np.sort(np.stack([r["data"] for r in back]), axis=0)
    assert got.shape == (64, 8)
    assert np.array_equal(got, np.sort(mat, axis=0))


def test_union_by_name_pads_and_rejects_conflicts(ray_session):
    """Superset columns null-fill per input; conflicting types raise
    instead of silently casting."""
    import pytest
    import ray.data

    from jsonschema_validator_ray.sources.files import union_by_name

    a = pa.table({"id": pa.array([1, 2], pa.int64()),
                  "lang": pa.array(["en", "fr"], pa.string())})
    b = pa.table({"id": pa.array([3], pa.int64()),
                  "score": pa.array([0.5], pa.float64())})
    u = union_by_name([ray.data.from_arrow(a), ray.data.from_arrow(b)],
                      [a.schema, b.schema])
    rows = sorted(u.take_all(), key=lambda r: r["id"])
    assert [r["lang"] for r in rows] == ["en", "fr", None]
    assert [r["score"] for r in rows] == [None, None, 0.5]

    c = pa.table({"id": pa.array(["x"], pa.string())})
    with pytest.raises(TypeError):
        union_by_name([ray.data.from_arrow(a), ray.data.from_arrow(c)],
                      [a.schema, c.schema])


def test_text_roundtrip_lossless(ray_session, tmp_path):
    """write_text -> read_text preserves every non-null line (multibyte,
    empty, and whitespace-only included) across shards; nulls are
    dropped by contract; embedded line breaks refuse."""
    import ray.data

    from jsonschema_validator_ray.sources.files import read_text, write_text

    lines = [None if i % 9 == 0 else f"zeile-{i}-über ☃" for i in range(80)]
    lines[5] = ""     # empty string: must roundtrip (review r5)
    lines[7] = "  "   # whitespace-only: Ray's default framing drops it —
    #                   drop_empty_lines=False is load-bearing (review r5)
    tab = pa.table({"text": pa.array(lines, pa.string())})
    path = str(tmp_path / "txt")
    write_text(ray.data.from_arrow(tab).repartition(4), path, "text")
    back = sorted(r["text"] for r in read_text(path).take_all())
    assert back == sorted(l for l in lines if l is not None)


def test_text_write_rejects_embedded_newline(ray_session, tmp_path):
    import pytest
    import ray.data

    from jsonschema_validator_ray.sources.files import write_text

    tab = pa.table({"text": pa.array(["ok", "bad\nline"], pa.string())})
    with pytest.raises(Exception, match="line-break"):
        write_text(ray.data.from_arrow(tab), str(tmp_path / "t2"), "text")
    # every other str.splitlines() break char refuses too (review r5:
    # Ray's reader frames with splitlines, not just \n)
    for bad in ["a\rb", "a\x0bb", "a\x85b",
                "a\u2028b", "a\u2029b"]:
        t = pa.table({"text": pa.array([bad], pa.string())})
        with pytest.raises(Exception, match="line-break"):
            write_text(ray.data.from_arrow(t), str(tmp_path / "t3"), "text")


def test_zone_map_unknown_null_count_is_none(ray_session, tmp_path):
    """null_count is optional in a Parquet footer: a row group without it
    makes the file's n_nulls unknown (None), not 0. Footers that carry it
    still sum across row groups."""
    from types import SimpleNamespace

    import pyarrow.parquet as pq

    from jsonschema_validator_ray.sources.files import (_fold_row_groups,
                                                        zone_map)

    def footer(*stats):
        return SimpleNamespace(
            num_row_groups=len(stats),
            row_group=lambda rg: SimpleNamespace(
                column=lambda idx: SimpleNamespace(statistics=stats[rg])))

    def st(mn, mx, nulls):
        return SimpleNamespace(has_min_max=True, min=mn, max=mx,
                               null_count=nulls)

    assert _fold_row_groups(footer(st(3, 9, 1), st(1, 4, 2)), 0) \
        == (1, 9, 3, True)
    assert _fold_row_groups(footer(st(3, 9, 1), st(1, 4, None)), 0) \
        == (1, 9, None, True)
    assert _fold_row_groups(footer(st(3, 9, 1), None), 0) \
        == (None, None, None, False)

    path = str(tmp_path / "z.parquet")
    pq.write_table(pa.table({"v": pa.array([5, None, 2, None, 8],
                                           pa.int64())}),
                   path, row_group_size=2)
    row = zone_map([path], "v").take_all()[0]
    assert (row["n_rows"], row["n_nulls"], row["min"], row["max"],
            row["has_stats"]) == (5, 2, 2, 8, True)
