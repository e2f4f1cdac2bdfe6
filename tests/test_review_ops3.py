"""Round-4 operator review regressions stay fixed (third batch): hot-gram
uint64 sort, weighted-sample null/string keys, degenerate intervals,
distinct key types, int64-exact range sums."""

import numpy as np
import pyarrow as pa

from jsonschema_validator_ray.rayutil import collect_partials


def test_hot_levels_sorted_in_uint64_space():
    """_hot_levels must return an ASCENDING uint64 hash array even when the
    input table is sorted by signed int64 (hashes >= 2^63 sorted first),
    and every hot gram must get a level > 0 findable by searchsorted."""
    from jsonschema_validator_ray.ops.dedup import _hot_levels

    big = np.uint64(1) << np.uint64(63)
    ghs = np.array([big + np.uint64(1), big + np.uint64(5), 3, 7, 100],
                   np.uint64)
    hot = pa.table({                      # int64-sorted order (negatives
        "gh": pa.array(ghs.astype(np.int64), pa.int64()),  # first)
        "df": pa.array([50, 10, 99, 5, 7], pa.int64()),
    })
    hot_gh, level = _hot_levels(hot)
    assert np.all(np.diff(hot_gh.astype(np.uint64)) > 0)   # ascending
    for g in ghs:
        idx = np.searchsorted(hot_gh, g)
        assert hot_gh[idx] == g                            # findable
        assert level[idx] > 0                              # deprioritized
    # hottest (df=99) sorts absolutely last
    assert level[np.searchsorted(hot_gh, np.uint64(3))] == len(ghs)


def test_weighted_sample_null_and_string_keys(ray_session):
    """Null keys are dropped (no NaN->uint64 UB); string keys hash via the
    column hash instead of crashing."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.sampling import weighted_sample

    t = pa.table({
        "k": pa.array([1, None, 3, 4], pa.int64()),
        "w": pa.array([1.0, 1.0, 1.0, 1.0], pa.float64()),
    })
    out = weighted_sample(ray.data.from_arrow(t), "k", "w", 10, seed=1)
    assert None not in out["k"].to_pylist()
    assert sorted(out["k"].to_pylist()) == [1, 3, 4]

    ts = pa.table({
        "k": pa.array(["a", "b", None], pa.string()),
        "w": pa.array([1.0, 2.0, 3.0], pa.float64()),
    })
    outs = weighted_sample(ray.data.from_arrow(ts), "k", "w", 10, seed=1)
    assert sorted(outs["k"].to_pylist()) == ["a", "b"]


def test_interval_overlap_degenerate_intervals(ray_session):
    """Empty intervals (end <= start) overlap nothing: degenerate A rows
    report 0 (never negative), degenerate B rows are dropped."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.join import interval_overlap_join

    a = pa.table({
        "rid": pa.array([1, 2], pa.int64()),
        "k": pa.array([1, 1], pa.int64()),
        "s": pa.array([10, 0], pa.int64()),
        "e": pa.array([5, 100], pa.int64()),      # rid1 degenerate
    })
    b = pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "s": pa.array([6, 8], pa.int64()),
        "e": pa.array([8, 6], pa.int64()),        # second row degenerate
    })
    out = interval_overlap_join(
        ray.data.from_arrow(a), ray.data.from_arrow(b), on="k",
        a_start="s", a_end="e", b_start="s", b_end="e").take_all()
    by = {r["rid"]: r["n_overlaps"] for r in out}
    assert by == {1: 0, 2: 1}


def test_grouped_exact_distinct_preserves_int_key(ray_session):
    """Integer group keys come back as integers, not strings."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import grouped_exact_distinct

    t = pa.table({
        "g": pa.array([1, 1, 2, 2, 2], pa.int64()),
        "v": pa.array([10, 10, 20, 30, 30], pa.int64()),
    })
    out = grouped_exact_distinct(ray.data.from_arrow(t), "g", "v").take_all()
    by = {r["g"]: r["n_distinct"] for r in out}
    assert by == {1: 1, 2: 2}
    assert all(isinstance(r["g"], int) for r in out)


def test_range_agg_join_null_values_stay_int64_exact(ray_session):
    """A null point value must not decay the sum to float64: values near
    2^53 keep exact int64 sums."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.join import range_agg_join

    big = (1 << 53) + 1
    ranges = pa.table({
        "k": pa.array([1], pa.int64()),
        "t0": pa.array([0], pa.int64()),
        "t1": pa.array([100], pa.int64()),
    })
    points = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "t": pa.array([10, 20, 30], pa.int64()),
        "val": pa.array([big, None, 2], pa.int64()),
    })
    out = range_agg_join(
        ray.data.from_arrow(ranges), ray.data.from_arrow(points),
        on="k", point_on="k", start="t0", end="t1",
        point_ts="t", value="val").take_all()
    assert [r["sum_value"] for r in out] == [big + 2]


def test_asof_join_drops_null_keys_and_ts(ray_session):
    """VERDICT r4 #7: null keys / timestamps are dropped in the tag stages
    on BOTH sides (SQL inner-asof semantics) instead of decaying the
    in-bucket compound arrays to float/object and crashing or mis-matching."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.join import asof_join

    left = pa.table({
        "lid": pa.array([0, 1, 2, 3], pa.int64()),
        "k": pa.array([1, None, 1, 2], pa.int64()),
        "t": pa.array([100, 100, None, 100], pa.int64()),
    })
    right = pa.table({
        "rk": pa.array([1, 1, None, 2], pa.int64()),
        "rt": pa.array([50, None, 60, 999], pa.int64()),
    })
    got = pa.concat_tables(collect_partials(
        asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                  on="k", right_on="rk", left_ts="t",
                  right_ts="rt")))
    out = dict(zip(got["lid"].to_pylist(), got["asof_ts"].to_pylist()))
    # lid 0: k=1 matches right (1, 50); null-ts right row (1, None) ignored
    # lid 1 (null key), lid 2 (null ts): dropped
    # lid 3: k=2, only right ts 999 > 100 -> no match, dropped
    assert out == {0: 50}


def test_range_agg_join_drops_null_keys_and_bounds(ray_session):
    """Null range keys/bounds and null point keys/timestamps are dropped in
    the tag stages; surviving ranges still aggregate exactly."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.join import range_agg_join

    ranges = pa.table({
        "rid": pa.array([0, 1, 2], pa.int64()),
        "k": pa.array([1, None, 1], pa.int64()),
        "s": pa.array([0, 0, None], pa.int64()),
        "e": pa.array([100, 100, 100], pa.int64()),
    })
    points = pa.table({
        "pk": pa.array([1, 1, None, 1], pa.int64()),
        "pt": pa.array([10, None, 20, 99], pa.int64()),
        "v": pa.array([5, 7, 11, 13], pa.int64()),
    })
    got = pa.concat_tables(collect_partials(
        range_agg_join(ray.data.from_arrow(ranges),
                       ray.data.from_arrow(points),
                       on="k", point_on="pk", start="s", end="e",
                       point_ts="pt", value="v")))
    rows = {r["rid"]: (r["n_points"], r["sum_value"])
            for r in got.to_pylist()}
    assert rows == {0: (2, 18)}     # points (1,10,5) and (1,99,13) only
