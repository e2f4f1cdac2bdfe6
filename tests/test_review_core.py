"""Round-4 core-review regressions stay fixed: malformed-data robustness of
the validation engine (mistyped key columns, null-typed columns, unique-only
specs), custom group keys, pointer compile errors, and multi-type nested
refusal."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jsonschema_validator_ray.constraints import compile_constraints
from jsonschema_validator_ray.jsonvalidate import SchemaError, compile_schema
from jsonschema_validator_ray.pipelines import validate

TS = [np.datetime64("2024-01-01T00:00:00", "us") + np.timedelta64(i, "s")
      for i in range(4)]


def _write(tmp_path, name, table):
    p = str(tmp_path / name)
    pq.write_table(table, p)
    return p


def test_pointer_resolution_raises_schema_error():
    """Unresolvable $ref pointers surface as SchemaError compile errors, not
    raw KeyError/ValueError/IndexError (review r4)."""
    for schema in (
        {"$ref": "#/missing"},                                  # KeyError
        {"$ref": "#/items/nope", "items": [{"type": "string"}]},  # ValueError
        {"$ref": "#/items/5", "items": [{"type": "string"}]},   # IndexError
    ):
        with pytest.raises(SchemaError):
            compile_schema(schema)


def test_null_typed_columns_do_not_crash_kernels():
    """An Arrow null-typed column (all-None parquet data) skips value-level
    kernels (enum/ref/format_len/format_range) instead of raising; required
    and type still fire per their own semantics."""
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    ir = compile_constraints({"columns": {
        "role": {"type": "string", "enum": ["user", "assistant"],
                 "min_length": 1, "max_length": 10},
        "tool": {"ref": "tools"},
        "score": {"min": 0, "max": 1},
        "conv_id": {"required": True},
    }, "dictionaries": {"tools": ["a", "b"]}})
    batch = pa.table({
        "conv_id": pa.array(["c"] * 3, pa.string()),
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
        "role": pa.nulls(3),          # null-typed
        "tool": pa.nulls(3),
        "score": pa.nulls(3),
    })
    out = make_row_validator(ir, "enumerate")(batch)
    # enum/ref/len/range all skip (no crash); `type` still fires on the
    # nulls per its own semantics ("null" not in the declared set)
    assert set(out["constraint_id"].to_pylist()) == {"type:role"}


def test_mistyped_order_and_ts_columns_do_not_crash(ray_session, tmp_path):
    """String-typed turn_idx / ts columns fire Invalid Type in the row stage
    and are EXCLUDED from group checks instead of crashing the wide-stage
    cast (review r4)."""
    t = pa.table({
        "conv_id": pa.array(["c1"] * 4, pa.string()),
        "turn_idx": pa.array(["0", "1", "x", "3"], pa.string()),
        "ts": pa.array(["t0", "t1", "t2", "t3"], pa.string()),
    })
    p = _write(tmp_path, "mistyped.parquet", t)
    spec = {"columns": {"turn_idx": {"type": "integer"},
                        "ts": {"type": "timestamp"}},
            "table": {"monotonic": {"column": "ts"}, "unique": True}}
    res = validate(p, spec=spec, sketch=False)
    cids = sorted(set(res.violations["constraint_id"].to_pylist()))
    assert cids == ["type:ts", "type:turn_idx"], cids


def test_unique_only_spec_without_ts_column(ray_session, tmp_path):
    """A unique-only spec (no monotonic) must not require a ts column at all
    (review r4): the wide stage projects only (group_key, order_by)."""
    t = pa.table({
        "conv_id": pa.array(["c1", "c1", "c1", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 1, 0], pa.int32()),   # dup (c1, 1)
    })
    p = _write(tmp_path, "nots.parquet", t)
    spec = {"columns": {"turn_idx": {"type": "integer"}},
            "table": {"unique": True}}
    res = validate(p, spec=spec, sketch=False)
    got = res.violations.to_pylist()
    assert len(got) == 1 and got[0]["constraint_id"] \
        == "unique:(conv_id,turn_idx)", got


def test_custom_group_keys(ray_session, tmp_path):
    """The wide stage reads the spec's custom key names (review r4), and the
    emitted cids keep those names."""
    t = pa.table({
        "session_id": pa.array(["s1", "s1", "s1", "s1"], pa.string()),
        # dup key at (s1, 2); ts regression at seq=2 (TS1 < TS2)
        "seq": pa.array([0, 1, 2, 2], pa.int32()),
        "when": pa.array([TS[0], TS[2], TS[1], TS[3]], pa.timestamp("us")),
    })
    p = _write(tmp_path, "custom.parquet", t)
    spec = {"columns": {"seq": {"type": "integer"}},
            "keys": {"id": "session_id", "order": "seq"},
            "table": {"monotonic": {"group_by": "session_id",
                                    "order_by": "seq", "column": "when"},
                      "unique": True}}
    res = validate(p, spec=spec, sketch=False)
    cids = sorted(res.violations["constraint_id"].to_pylist())
    assert cids == ["mono:seq", "unique:(session_id,seq)"], cids


def test_multi_type_nested_declaration_refused():
    """Multi-type nested property declarations are refused at compile time
    (the single-cast extraction can't check a type set; review r4)."""
    with pytest.raises(SchemaError):
        compile_constraints({"columns": {"props": {
            "type": "string",
            "properties": {"k": {"type": ["string", "integer"]}}}}})
    # single type plus null stays accepted
    ir = compile_constraints({"columns": {"props": {
        "type": "string",
        "properties": {"k": {"type": ["integer", "null"]}}}}})
    assert any(c.kind == "nested_type" for c in ir.row_constraints)


def test_equal_consecutive_ts_pass_mono(ray_session, tmp_path):
    """Mono semantics match the oracle's `ts < lag(ts)`: equal consecutive
    ts PASS; only a decrease fires (review r4 — docs aligned to code)."""
    t = pa.table({
        "conv_id": pa.array(["c1"] * 4, pa.string()),
        "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
        "ts": pa.array([TS[0], TS[1], TS[1], TS[0]], pa.timestamp("us")),
    })
    p = _write(tmp_path, "eqts.parquet", t)
    spec = {"columns": {}, "table": {"monotonic": {"column": "ts"}}}
    res = validate(p, spec=spec, sketch=False)
    got = res.violations.to_pylist()
    # only the decrease at turn 3 fires; the equality at turn 2 passes
    assert [(g["turn_idx"], g["constraint_id"]) for g in got] \
        == [(3, "mono:turn_idx")], got
