"""Distribution/retention primitives: ops.stats.histogram (fixed-bin
fold), ops.stats.grouped_minmax_scale (broadcast rescale),
ops.aggregates.cohort_retention (first-day cohort matrix) and
ops.aggregates.interevent_gaps (per-group consecutive-gap stats)."""

import numpy as np
import pyarrow as pa


def test_histogram_planted(ray_session):
    """Counts land in floor-binned cells, the max value clamps into the
    last bin, nulls drop, and only non-empty bins are emitted."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import histogram

    vals = [0.0, 0.5, 0.99, 1.0, 5.0, 9.99, 10.0, None]
    t = pa.table({"v": pa.array(vals, pa.float64())})
    out = histogram(lambda: ray.data.from_arrow(t).repartition(3),
                    "v", n_bins=10)
    got = {r["bin"]: r["n"] for r in out.to_pylist()}
    # lo=0, hi=10, width=1: bin 0 gets {0, .5, .99}, bin 1 gets {1.0},
    # bin 5 {5.0}, bin 9 {9.99, 10.0 (clamped)}
    assert got == {0: 3, 1: 1, 5: 1, 9: 2}
    edges = {r["bin"]: r["lo_edge"] for r in out.to_pylist()}
    assert edges[5] == 5.0 and edges[9] == 9.0


def test_histogram_degenerate_single_value(ray_session):
    """A zero-range column (min == max) lands every row in bin 0."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import histogram

    t = pa.table({"v": pa.array([7.0] * 5, pa.float64())})
    out = histogram(lambda: ray.data.from_arrow(t), "v", n_bins=4)
    assert out.to_pylist() == [{"bin": 0, "lo_edge": 7.0, "n": 5}]


def test_minmax_scale_planted(ray_session):
    """Per-group (x-min)/(max-min); zero-range groups scale to NULL;
    null keys/values drop."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import grouped_minmax_scale

    t = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b", None], pa.string()),
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "v": pa.array([10.0, 20.0, 30.0, 7.0, 7.0, 1.0], pa.float64()),
    })
    out = grouped_minmax_scale(
        lambda: ray.data.from_arrow(t).repartition(2), "k", "v")
    got = {r["id"]: r["scaled"] for r in out.take_all()}
    assert got == {1: 0.0, 2: 0.5, 3: 1.0, 4: None, 5: None}


def test_cohort_retention_planted(ray_session):
    """Cohort = first active day per user; each (cohort, age) cell counts
    users active that many days later, with within-day dups collapsed."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import cohort_retention

    day = 86_400_000_000
    # user 1: days 0, 0(dup), 1; user 2: days 0, 2; user 3: day 1 only
    us = [0, 1000, day, 0, 2 * day, day]
    uid = [1, 1, 1, 2, 2, 3]
    t = pa.table({
        "u": pa.array(uid, pa.int64()),
        "ts": pa.array(us, pa.timestamp("us")),
    })
    out = cohort_retention(ray.data.from_arrow(t).repartition(3),
                           "u", "ts")
    got = {(r["cohort_day"].timestamp() * 1e6 // day, r["age_days"]):
           r["n_users"] for r in out.to_pylist()}
    assert got == {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 0): 1}


def test_interevent_gaps_planted(ray_session):
    """Gaps are diffs of (ts, order)-sorted timestamps within a group;
    single-event groups emit nothing; avg is sum/count in float64."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import interevent_gaps

    t = pa.table({
        "u": pa.array([1, 1, 1, 2, 3, 3], pa.int64()),
        "ts": pa.array([100, 400, 200, 50, 10, 10], pa.timestamp("us")),
        "id": pa.array([1, 2, 3, 4, 6, 5], pa.int64()),
    })
    out = interevent_gaps(ray.data.from_arrow(t).repartition(2),
                          "u", "ts", "id")
    rows = {r["u"]: r for r in out.take_all()}
    # user 1: sorted ts 100,200,400 -> gaps 100, 200
    assert rows[1]["n_gaps"] == 2
    assert rows[1]["avg_gap_us"] == 150.0
    assert rows[1]["max_gap_us"] == 200
    # user 2: single event -> absent
    assert 2 not in rows
    # user 3: tie on ts (ordered by id) -> one zero gap
    assert rows[3]["n_gaps"] == 1 and rows[3]["max_gap_us"] == 0


def test_interevent_gaps_many_keys_one_bucket(ray_session, one_bucket):
    """Groups forced into one bucket stay independent (the same-group
    adjacency mask): every user's gap is exactly its own spacing."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import interevent_gaps

    n = 16
    uid = np.repeat(np.arange(n, dtype=np.int64), 2)
    ts = np.concatenate([[1000 * k, 1000 * k + (k + 1)]
                         for k in range(n)])
    t = pa.table({"u": pa.array(uid),
                  "ts": pa.array(ts, pa.timestamp("us")),
                  "id": pa.array(np.arange(2 * n, dtype=np.int64))})
    out = interevent_gaps(ray.data.from_arrow(t), "u", "ts", "id")
    for r in out.take_all():
        assert r["max_gap_us"] == r["u"] + 1


def test_histogram_nan_inf_drop(ray_session):
    """Non-finite values drop like nulls instead of poisoning the bin
    cast (NaN -> int64 crashes bincount) or the width arithmetic."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import histogram

    t = pa.table({"v": pa.array(
        [0.0, float("nan"), float("inf"), float("-inf"), 4.0],
        pa.float64())})
    out = histogram(lambda: ray.data.from_arrow(t).repartition(2),
                    "v", n_bins=4)
    got = {r["bin"]: r["n"] for r in out.to_pylist()}
    assert got == {0: 1, 3: 1}


def test_histogram_all_null_empty(ray_session):
    """An all-null column yields the empty typed result, not a concat
    crash."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import histogram

    t = pa.table({"v": pa.array([None, None], pa.float64())})
    out = histogram(lambda: ray.data.from_arrow(t), "v", n_bins=4)
    assert out.num_rows == 0
    assert out.schema.names == ["bin", "lo_edge", "n"]


def test_minmax_scale_all_null_empty(ray_session):
    """All-null inputs stream out 0 rows with the scaled column present
    (the 0-row partials carry the fold schema)."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import grouped_minmax_scale

    t = pa.table({"k": pa.array([None, None], pa.string()),
                  "v": pa.array([1.0, 2.0], pa.float64())})
    out = grouped_minmax_scale(lambda: ray.data.from_arrow(t), "k", "v")
    rows = out.take_all()
    assert rows == []
