"""Streaming-window fill/throttle primitives: ops.aggregates.grouped_locf
(per-group forward-fill) and ops.aggregates.windowed_first (first row per
composite-key window)."""

import numpy as np
import pyarrow as pa


def test_grouped_locf_planted(ray_session):
    """Fill carries the last observation forward WITHIN a key, resets
    across keys, leaves pre-observation rows null, and drops null keys."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import grouped_locf

    t = pa.table({
        "k": pa.array([1, 1, 1, 1, 2, 2, None], pa.int64()),
        "o": pa.array([1, 2, 3, 4, 1, 2, 1], pa.int64()),
        "v": pa.array([None, 10.0, None, 20.0, None, 5.0, 99.0],
                      pa.float64()),
    })
    out = grouped_locf(ray.data.from_arrow(t).repartition(3),
                       "k", ["o"], "v")
    got = sorted(((r["k"], r["o"], r["filled"]) for r in out.take_all()),
                 key=lambda x: (x[0], x[1]))
    assert got == [
        (1, 1, None), (1, 2, 10.0), (1, 3, 10.0), (1, 4, 20.0),
        (2, 1, None), (2, 2, 5.0)]


def test_grouped_locf_no_cross_key_leak_same_bucket(ray_session,
                                                    one_bucket):
    """Keys hashing to the SAME bucket must not leak fills into each
    other even when one key's rows all precede the other's in the sorted
    bucket (the group_floor clamp)."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import grouped_locf

    # many keys forced into one bucket; each key has (obs, gap) rows
    n = 32
    t = pa.table({
        "k": pa.array(np.repeat(np.arange(n, dtype=np.int64), 2)),
        "o": pa.array(list(range(2)) * n, pa.int64()),
        "v": pa.array([float(i // 2) if i % 2 == 0 else None
                       for i in range(2 * n)], pa.float64()),
    })
    out = grouped_locf(ray.data.from_arrow(t), "k", ["o"], "v")
    for r in out.take_all():
        assert r["filled"] == float(r["k"])


def test_windowed_first_composite_and_null_keys(ray_session):
    """First row per (k1, k2) by order; any-null-key rows drop; ties
    break on the order columns."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import windowed_first

    t = pa.table({
        "k1": pa.array([1, 1, 1, 1, 2, None, 1], pa.int64()),
        "k2": pa.array([10, 10, 11, 11, 10, 10, None], pa.int64()),
        "o": pa.array([2, 1, 5, 4, 9, 0, 0], pa.int64()),
        "id": pa.array([0, 1, 2, 3, 4, 5, 6], pa.int64()),
    })
    out = windowed_first(ray.data.from_arrow(t).repartition(3),
                         ["k1", "k2"], ["o", "id"])
    got = sorted((r["k1"], r["k2"], r["id"]) for r in out.take_all())
    assert got == [(1, 10, 1), (1, 11, 3), (2, 10, 4)]
