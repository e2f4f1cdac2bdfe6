"""CDC MERGE (ops.merge.apply_changes) on planted change streams, plus
the batch's sibling primitive ops.aggregates.grouped_string_agg (ordered
capped per-group string aggregation)."""

import pyarrow as pa


SNAP_SCHEMA = pa.schema([("k", pa.int64()), ("v", pa.string()),
                         ("x", pa.float64())])
CH_SCHEMA = pa.schema([("k", pa.int64()), ("v", pa.string()),
                       ("x", pa.float64()), ("seq", pa.int64()),
                       ("op", pa.string())])


def _run(snap_rows, ch_rows):
    import ray.data

    from jsonschema_validator_ray.ops.merge import apply_changes

    snap = pa.table({
        "k": pa.array([r[0] for r in snap_rows], pa.int64()),
        "v": pa.array([r[1] for r in snap_rows], pa.string()),
        "x": pa.array([r[2] for r in snap_rows], pa.float64())},
        schema=SNAP_SCHEMA)
    ch = pa.table({
        "k": pa.array([r[0] for r in ch_rows], pa.int64()),
        "v": pa.array([r[1] for r in ch_rows], pa.string()),
        "x": pa.array([r[2] for r in ch_rows], pa.float64()),
        "seq": pa.array([r[3] for r in ch_rows], pa.int64()),
        "op": pa.array([r[4] for r in ch_rows], pa.string())},
        schema=CH_SCHEMA)
    out = apply_changes(
        ray.data.from_arrow(snap).repartition(2),
        ray.data.from_arrow(ch).repartition(2),
        key="k", snapshot_schema=SNAP_SCHEMA, changes_schema=CH_SCHEMA)
    return sorted((r["k"], r["v"], r["x"]) for r in out.take_all())


def test_update_delete_insert_latest_wins(ray_session):
    """Highest seq wins per key; U updates, D deletes, U on an absent key
    inserts; untouched rows pass through byte-identical."""
    snap = [(1, "a", 1.0), (2, "b", 2.0), (3, "c", 3.0), (4, "d", 4.0)]
    ch = [
        (2, "b2", 2.5, 1, "U"),      # superseded by seq 3 below
        (2, "b3", 2.75, 3, "U"),     # latest update wins
        (3, None, None, 1, "D"),     # delete
        (9, "new", 9.0, 1, "U"),     # insert (absent key)
        (7, None, None, 1, "D"),     # delete of absent key: no-op
    ]
    assert _run(snap, ch) == [
        (1, "a", 1.0), (2, "b3", 2.75), (4, "d", 4.0), (9, "new", 9.0)]


def test_equal_seq_tiebreak_upsert_beats_delete(ray_session):
    """At equal seq the op tie-break is deterministic: 'U' > 'D'."""
    snap = [(1, "a", 1.0)]
    ch = [(1, None, None, 5, "D"), (1, "u", 1.5, 5, "U")]
    assert _run(snap, ch) == [(1, "u", 1.5)]


def test_null_keyed_changes_dropped(ray_session):
    """Null-keyed change rows are dropped (documented contract); the
    snapshot is untouched by them."""
    # built manually: _run's list comprehension can't carry a null key
    import ray.data

    from jsonschema_validator_ray.ops.merge import apply_changes

    snap_t = pa.table({"k": pa.array([1], pa.int64()),
                       "v": pa.array(["a"]), "x": pa.array([1.0])},
                      schema=SNAP_SCHEMA)
    ch_t = pa.table({"k": pa.array([None], pa.int64()),
                     "v": pa.array(["ghost"]), "x": pa.array([0.0]),
                     "seq": pa.array([1], pa.int64()),
                     "op": pa.array(["U"])}, schema=CH_SCHEMA)
    out = apply_changes(ray.data.from_arrow(snap_t),
                        ray.data.from_arrow(ch_t),
                        key="k", snapshot_schema=SNAP_SCHEMA,
                        changes_schema=CH_SCHEMA)
    assert sorted((r["k"], r["v"]) for r in out.take_all()) == [(1, "a")]


def test_changes_only_bucket_inserts(ray_session):
    """A bucket holding only change rows (no snapshot side) still emits
    its inserts — empty-side slices keep the schema."""
    snap = [(1, "a", 1.0)]
    ch = [(100 + i, f"n{i}", float(i), 1, "U") for i in range(8)]
    got = _run(snap, ch)
    assert len(got) == 9
    assert (1, "a", 1.0) in got


def test_reserved_name_collision_raises():
    """A snapshot column named like seq/op fails loudly at construction,
    not deep inside a worker."""
    import pytest

    from jsonschema_validator_ray.ops.merge import apply_changes

    bad = pa.schema([("k", pa.int64()), ("seq", pa.int64())])
    ch = pa.schema([("k", pa.int64()), ("seq", pa.int64()),
                    ("op", pa.string())])
    with pytest.raises(ValueError, match="reserved names"):
        apply_changes(None, None, key="k", snapshot_schema=bad,
                      changes_schema=ch)


def test_malformed_op_raises(ray_session):
    """An op outside {'U','D'} (incl. null) raises instead of silently
    deleting the targeted row."""
    import pytest
    import ray.data

    from jsonschema_validator_ray.ops.merge import apply_changes

    snap_t = pa.table({"k": pa.array([1], pa.int64()),
                       "v": pa.array(["a"]), "x": pa.array([1.0])},
                      schema=SNAP_SCHEMA)
    ch_t = pa.table({"k": pa.array([1], pa.int64()),
                     "v": pa.array(["z"]), "x": pa.array([9.0]),
                     "seq": pa.array([1], pa.int64()),
                     "op": pa.array(["u"])}, schema=CH_SCHEMA)
    out = apply_changes(ray.data.from_arrow(snap_t),
                        ray.data.from_arrow(ch_t),
                        key="k", snapshot_schema=SNAP_SCHEMA,
                        changes_schema=CH_SCHEMA)
    with pytest.raises(Exception, match="op outside"):
        out.take_all()


def test_grouped_string_agg_cap_order_nulls(ray_session):
    """Cap truncates to the first N by order; n_events stays uncapped;
    null keys/values drop; single-element groups emit bare values."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import grouped_string_agg

    t = pa.table({
        "k": pa.array([1, 1, 1, 2, None, 1], pa.int64()),
        "o": pa.array([3, 1, 2, 9, 0, 4], pa.int64()),
        "v": pa.array(["c", "a", "b", "solo", "ghost", None]),
    })
    out = grouped_string_agg(ray.data.from_arrow(t).repartition(3),
                             "k", "v", ["o"], sep=">", cap=2)
    got = sorted((r["k"], r["path"], r["n_events"])
                 for r in out.take_all())
    assert got == [(1, "a>b", 3), (2, "solo", 1)]
