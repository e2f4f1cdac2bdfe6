"""JSON key/type census (ops.jsoninfer.infer_json_schema) and per-group
discrete-quantile winsorization (ops.stats.grouped_winsorize)."""

import numpy as np
import pyarrow as pa


def test_infer_json_schema_type_census(ray_session):
    """Every top-level key reports its DuckDB json_type name; bools are
    not ints; integers split UBIGINT/BIGINT on sign; JSON null reports a
    NULL type; invalid and non-object payloads contribute nothing."""
    import ray.data

    from jsonschema_validator_ray.ops.jsoninfer import infer_json_schema

    docs = [
        '{"a": 1, "b": -2, "c": 1.5}',
        '{"a": "x", "d": true, "e": null}',
        '{"a": 1, "f": [1, 2], "g": {"n": 1}}',
        '[1, 2]',          # non-object: skipped
        'not json',        # invalid: skipped
        None,              # null payload: dropped
    ]
    t = pa.table({"p": pa.array(docs, pa.string())})
    out = infer_json_schema(ray.data.from_arrow(t).repartition(3), "p")
    got = {(r["jkey"], r["jtype"]): r["n"] for r in out.to_pylist()}
    assert got == {
        ("a", "UBIGINT"): 2, ("a", "VARCHAR"): 1,
        ("b", "BIGINT"): 1, ("c", "DOUBLE"): 1,
        ("d", "BOOLEAN"): 1, ("e", None): 1,
        ("f", "ARRAY"): 1, ("g", "OBJECT"): 1,
    }


def test_infer_json_schema_distinct_combiner(ray_session):
    """Repeated payloads count per ROW while parsing per DISTINCT string
    (the count rides the batch-level groupby)."""
    import ray.data

    from jsonschema_validator_ray.ops.jsoninfer import infer_json_schema

    t = pa.table({"p": pa.array(['{"k": 7}'] * 100 + ['{"k": "s"}'] * 3,
                                pa.string())})
    out = infer_json_schema(ray.data.from_arrow(t).repartition(4), "p")
    got = {(r["jkey"], r["jtype"]): r["n"] for r in out.to_pylist()}
    assert got == {("k", "UBIGINT"): 100, ("k", "VARCHAR"): 3}


def test_winsorize_planted(ray_session):
    """Thresholds are the quantile_disc order statistics
    sorted[max(0, ceil(q*n)-1)] per group, and the clip is
    comparison-only (exact data values, no interpolation)."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import grouped_winsorize

    # group "a": values 1..10 -> p05 idx max(0,ceil(.5)-1)=0 -> 1;
    # p95 idx ceil(9.5)-1 = 9 -> 10 (no clip). With lo_q=.25/hi_q=.75:
    # lo idx ceil(2.5)-1=2 -> 3, hi idx ceil(7.5)-1=7 -> 8.
    vals = list(range(1, 11))
    t = pa.table({
        "k": pa.array(["a"] * 10, pa.string()),
        "id": pa.array(range(10), pa.int64()),
        "v": pa.array([float(v) for v in vals], pa.float64()),
    })
    out = grouped_winsorize(
        lambda: ray.data.from_arrow(t).repartition(3), "k", "v",
        0.25, 0.75)
    got = {r["id"]: r["clipped"] for r in out.take_all()}
    assert got == {0: 3.0, 1: 3.0, 2: 3.0, 3: 4.0, 4: 5.0,
                   5: 6.0, 6: 7.0, 7: 8.0, 8: 8.0, 9: 8.0}


def test_winsorize_null_and_group_isolation(ray_session, one_bucket):
    """Null keys/values drop; each group clips at its own thresholds even
    when forced into one bucket."""
    import ray.data

    from jsonschema_validator_ray.ops.stats import grouped_winsorize

    n = 8
    ks, ids, vs = [], [], []
    for g in range(n):
        for j in range(5):
            ks.append(f"g{g}")
            ids.append(g * 10 + j)
            vs.append(float(g * 100 + j))
    ks += [None, "g0"]
    ids += [900, 901]
    vs += [5.0, None]
    t = pa.table({"k": pa.array(ks, pa.string()),
                  "id": pa.array(ids, pa.int64()),
                  "v": pa.array(vs, pa.float64())})
    out = grouped_winsorize(lambda: ray.data.from_arrow(t), "k", "v",
                            0.2, 0.8)
    rows = {r["id"]: r["clipped"] for r in out.take_all()}
    assert 900 not in rows and 901 not in rows
    # per group of 5: lo idx ceil(1)-1=0 -> +0, hi idx ceil(4)-1=3 -> +3
    for g in range(n):
        assert rows[g * 10 + 0] == g * 100 + 0.0
        assert rows[g * 10 + 4] == g * 100 + 3.0
