"""ops.aggregates.grouped_aggregate: a partial per batch and a fold per bucket
on the one bucket shuffle, checked against SQL (DuckDB) for null keys and
against one whole-table Arrow group-by for every aggregate kind."""

import numpy as np
import pyarrow as pa
import pytest

from jsonschema_validator_ray.ops.aggregates import grouped_aggregate
from jsonschema_validator_ray.rayutil import collect_partials


def _blocks(t: pa.Table, n_blocks: int):
    import ray.data

    step = -(-t.num_rows // n_blocks)
    return ray.data.from_arrow(
        [t.slice(i, step) for i in range(0, t.num_rows, step)])


def _sorted(t: pa.Table, keys) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys])   # nulls last


_NULL_KEYS = pa.table({
    "k": pa.array(["a", None, "b", "a", None, "c", "b", None, "c", "a"]),
    "k_int": pa.array([1, None, 2, 1, None, 3, 2, None, 3, 1], pa.int64()),
    "k2": pa.array([1, None, 1, None, 2, 1, 1, None, 1, None], pa.int64()),
    # key "c" has no valid v: its sum / min / mean are NULL
    "v": pa.array([5, 7, None, -2, 3, None, 4, None, None, 9], pa.int64()),
    "s": pa.array(["x", "q", "y", None, "z", "w", None, "r", None, "p"]),
})


@pytest.mark.parametrize("keys", [["k"], ["k_int"], ["k", "k2"]])
def test_null_keys_form_one_sql_group(ray_session, keys):
    """A null key is one group with SQL ``GROUP BY`` values, for a string
    key, an int key and a null second key, over three blocks (Ray Data's
    own groupby raised TypeError sampling the sort boundaries of a null
    string key)."""
    import duckdb

    aggs = [("v", "count", "n"), ("v", "sum", "sv"), ("v", "min", "mn"),
            ("s", "max", "mx"), ("v", "mean", "avg")]
    got = _sorted(pa.concat_tables(collect_partials(grouped_aggregate(
        _blocks(_NULL_KEYS, 3), keys, aggs))), keys)
    tbl = _NULL_KEYS   # noqa: F841 — read by the SQL below
    cols = ", ".join(keys)
    want = duckdb.sql(
        f"SELECT {cols}, count(*) AS n, sum(v) AS sv, min(v) AS mn, "
        f"max(s) AS mx, avg(v) AS avg FROM tbl GROUP BY {cols} "
        f"ORDER BY {', '.join(k + ' NULLS LAST' for k in keys)}").arrow()
    assert got.column_names == keys + ["n", "sv", "mn", "mx", "avg"]
    assert got.to_pylist() == want.to_pylist()
    if len(keys) == 1:
        assert got[keys[0]].null_count == 1


def test_every_kind_matches_one_arrow_group_by(ray_session):
    """sum, count, min, max and mean over 4 blocks equal a group-by of the
    whole table, including groups whose values are all null; count is
    ``count(*)``, counts are int64 and means float64."""
    rng = np.random.default_rng(7)
    n = 400
    g = rng.integers(0, 12, n)
    v = rng.integers(-1000, 1000, n)
    v_null = (rng.random(n) < 0.25) | (g == 11)      # group 11: all null
    t = pa.table({
        "g": pa.array([f"g{i}" for i in g]),
        "h": pa.array(rng.integers(0, 3, n), pa.int64()),
        "v": pa.array(v, pa.int64(), mask=v_null),
        "f": pa.array(rng.integers(-40, 40, n) / 4.0),   # exact sums
        "s": pa.array([f"s{i}" for i in rng.integers(0, 99, n)],
                      mask=rng.random(n) < 0.1),
    })
    aggs = [("v", "sum", "v_sum"), ("s", "count", "rows"),
            ("v", "min", "v_min"), ("v", "max", "v_max"),
            ("v", "mean", "v_mean"), ("f", "sum", "f_sum"),
            ("f", "mean", "f_mean"), ("s", "min", "s_min"),
            ("s", "max", "s_max")]
    keys = ["g", "h"]
    got = _sorted(pa.concat_tables(collect_partials(grouped_aggregate(
        _blocks(t, 4), keys, aggs))), keys)
    ref = pa.TableGroupBy(t, keys).aggregate(
        [([], "count_all")] + [(c, kind) for c, kind, _ in aggs
                               if kind != "count"])
    want = _sorted(pa.table(
        {k: ref[k] for k in keys}
        | {alias: ref["count_all" if kind == "count" else f"{c}_{kind}"]
           for c, kind, alias in aggs}), keys)
    assert got.equals(want)
    assert got.schema.field("rows").type == pa.int64()
    assert got.schema.field("v_mean").type == pa.float64()
    all_null = got.filter(pa.compute.equal(got["g"], "g11"))
    assert all_null.num_rows > 0
    assert set(all_null["v_sum"].to_pylist()) == {None}
    assert set(all_null["v_mean"].to_pylist()) == {None}
    assert all_null["rows"].to_pylist() == \
        [int(((g == 11) & (t["h"].to_numpy() == h)).sum())
         for h in all_null["h"].to_pylist()]
