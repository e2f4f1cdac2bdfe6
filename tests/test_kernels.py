"""Unit tests for the Constraint IR compiler and Arrow kernels on hand-built
batches (SURVEY.md §5.2 item 2): nulls, empty batches, absent columns,
single-row groups, run boundaries."""

import numpy as np
import pyarrow as pa
import pytest

from jsonschema_validator_ray.constraints import (
    TRANSCRIPT_SPEC,
    compile_constraints,
    group_check_table,
    make_row_validator,
)
from jsonschema_validator_ray.constraints.ir import GroupCheck, TOOL_DICTIONARY
from jsonschema_validator_ray.constraints.kernels import VIOLATION_SCHEMA
from jsonschema_validator_ray.jsonvalidate import SchemaError


def ts(*items):
    return pa.array([np.datetime64(x, "us") if x is not None else None for x in items],
                    pa.timestamp("us"))


def make_batch(**overrides):
    base = {
        "conv_id": pa.array(["c1", "c1", "c2", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
        "role": pa.array(["system", "user", "assistant", "tool"], pa.string()),
        "text": pa.array(["hi", "hello", "yo", "ok"], pa.string()),
        "tool": pa.array([None, None, "search.query", None], pa.string()),
        "ts": ts("2024-01-01T00:00:00", "2024-01-01T00:00:01",
                 "2024-01-01T00:00:02", "2024-01-01T00:00:03"),
    }
    base.update(overrides)
    return pa.table(base)


@pytest.fixture(scope="module")
def ir():
    return compile_constraints(TRANSCRIPT_SPEC)


def viols(ir, batch, mode="enumerate"):
    out = make_row_validator(ir, mode)(batch)
    return sorted(zip(out["conv_id"].to_pylist(), out["turn_idx"].to_pylist(),
                      out["constraint_id"].to_pylist(), out["message"].to_pylist()))


def test_clean_batch_no_violations(ir):
    assert viols(ir, make_batch()) == []
    v = make_row_validator(ir, "verdict")(make_batch())
    assert v["passed"][0].as_py() is True and v["n_rows"][0].as_py() == 4


def test_empty_batch(ir):
    assert viols(ir, make_batch().slice(0, 0)) == []


def test_null_turn_idx_trips_type_and_required(ir):
    b = make_batch(turn_idx=pa.array([0, None, 0, 1], pa.int32()))
    got = viols(ir, b)
    assert ("c1", None, "required:turn_idx", "Required property is missing") in got
    assert ("c1", None, "type:turn_idx", "Invalid Type") in got


def test_enum_role(ir):
    b = make_batch(role=pa.array(["system", "narrator", "", "tool"], pa.string()))
    got = viols(ir, b)
    assert ("c1", 1, "enum:role", "Value not in enumeration") in got
    assert ("c2", 0, "enum:role", "Value not in enumeration") in got
    assert len([g for g in got if g[2] == "enum:role"]) == 2


def test_ref_tool(ir):
    assert "search.query" in TOOL_DICTIONARY
    b = make_batch(tool=pa.array(["bogus.tool", None, "search.query", None], pa.string()))
    got = viols(ir, b)
    assert got == [("c1", 0, "ref:tool", "Unresolved reference")]


def test_format_text_maxlen(ir):
    b = make_batch(text=pa.array(["x" * 40000, "ok", None, "ok"], pa.string()))
    got = viols(ir, b)
    assert ("c1", 0, "format:text", "String length out of bounds") in got
    # the null text trips required+type (text is a required string column)
    assert ("c2", 0, "required:text", "Required property is missing") in got
    assert ("c2", 0, "type:text", "Invalid Type") in got
    assert len(got) == 3


def test_ts_range_and_null(ir):
    b = make_batch(ts=ts("1999-01-01T00:00:00", "2024-01-01T00:00:01", None,
                         "2024-01-01T00:00:03"))
    got = viols(ir, b)
    assert ("c1", 0, "range:ts", "Value out of range") in got
    assert ("c2", 0, "required:ts", "Required property is missing") in got
    assert ("c2", 0, "type:ts", "Invalid Type") in got


def test_type_wrong_dtype_column(ir):
    # turn_idx arrives as strings: every present value violates type:integer
    b = make_batch(turn_idx=pa.array(["0", "1", "0", "1"], pa.string()))
    got = [g for g in viols(ir, b) if g[2] == "type:turn_idx"]
    assert len(got) == 4


def test_float_column_integer_declared(ir):
    b = make_batch(turn_idx=pa.array([0.0, 1.0, 0.5, 1.0], pa.float64()))
    got = [g for g in viols(ir, b) if g[2] == "type:turn_idx"]
    assert [g[0] for g in got] == ["c2"]  # only the non-integral value


def test_absent_column_required_fires(ir):
    b = make_batch().drop_columns(["ts"])
    got = [g for g in viols(ir, b) if g[2] == "required:ts"]
    assert len(got) == 4


def test_verdict_fail_fast(ir):
    b = make_batch(role=pa.array(["bad"] * 4, pa.string()))
    v = make_row_validator(ir, "verdict")(b)
    assert v["passed"][0].as_py() is False
    assert v["first_constraint_id"][0].as_py() == "enum:role"


def test_compile_errors_reference_style():
    with pytest.raises(SchemaError) as err:
        compile_constraints({"columns": {"c": {"type": "strnig"}}})
    assert "Unsupported primitive type `strnig`" in err.value.detail
    with pytest.raises(SchemaError) as err:
        compile_constraints({"columns": {"c": {"type": []}}})
    assert err.value.detail == "This array MUST have at least one element."
    with pytest.raises(SchemaError) as err:
        compile_constraints({"columns": {"c": {"ref": "nope"}}})
    assert "no dictionary" in err.value.detail


def test_ir_hash_stable_and_sensitive():
    a = compile_constraints(TRANSCRIPT_SPEC)
    b = compile_constraints(TRANSCRIPT_SPEC)
    assert a.ir_hash == b.ir_hash
    spec2 = dict(TRANSCRIPT_SPEC)
    spec2 = {**spec2, "columns": {**spec2["columns"],
                                  "text": {"type": "string", "max_length": 99}}}
    assert compile_constraints(spec2).ir_hash != a.ir_hash


# --- group checks ---------------------------------------------------------

GC = GroupCheck()


def group_tbl(tids, tss, conv="c1"):
    return pa.table({
        "conv_id": pa.array([conv] * len(tids), pa.string()),
        "turn_idx": pa.array(tids, pa.int32()),
        "ts": ts(*tss),
    })


def gviols(tbl, gc=GC):
    v = group_check_table(tbl, gc)
    return sorted(zip(v["conv_id"].to_pylist(), v["turn_idx"].to_pylist(),
                      v["constraint_id"].to_pylist()))


def test_group_clean():
    t = group_tbl([0, 1, 2], ["2024-01-01T00:00:00", "2024-01-01T00:00:01",
                              "2024-01-01T00:00:02"])
    assert gviols(t) == []


def test_group_duplicate_key():
    t = group_tbl([0, 1, 1], ["2024-01-01T00:00:00", "2024-01-01T00:00:01",
                              "2024-01-01T00:00:01"])
    assert gviols(t) == [("c1", 1, "unique:(conv_id,turn_idx)")]
    assert group_check_table(t, GC).schema == VIOLATION_SCHEMA


def test_group_swapped_pair_mono():
    # swapped turn_idx between rows at t1 and t2: turn order disagrees with time
    t = group_tbl([0, 2, 1], ["2024-01-01T00:00:00", "2024-01-01T00:00:01",
                              "2024-01-01T00:00:02"])
    assert gviols(t) == [("c1", 2, "mono:turn_idx")]


def test_group_single_row_and_null_tid():
    assert gviols(group_tbl([5], ["2024-01-01T00:00:00"])) == []
    assert gviols(group_tbl([0, None], ["2024-01-01T00:00:00",
                                        "2024-01-01T00:00:01"])) == []


def test_sorted_run_checker_null_group_key():
    """A null conv_id row (itself a required:conv_id violation) must be
    skipped by the wide stage, not crash the adjacent-equality masks."""
    from jsonschema_validator_ray.stages.groupcheck import SortedRunChecker

    t = pa.table({
        "conv_id": pa.array(["c1", "c1", None, "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 0, 0], pa.int32()),
        "ts": ts("2024-01-01T00:00:00", "2024-01-01T00:00:01",
                 "2024-01-01T00:00:02", "2024-01-01T00:00:03"),
    })
    out = SortedRunChecker(GC)(t)
    v = out.filter(pa.compute.equal(out["kind"], "violation"))
    assert v.num_rows == 0
    b = out.filter(pa.compute.equal(out["kind"], "boundary"))
    assert sorted(b["conv_id"].to_pylist()) == ["c1", "c2"]


def test_group_check_table_null_group_key():
    t = pa.table({
        "conv_id": pa.array([None, "c1", "c1"], pa.string()),
        "turn_idx": pa.array([0, 0, 1], pa.int32()),
        "ts": ts("2024-01-01T00:00:05", "2024-01-01T00:00:00",
                 "2024-01-01T00:00:01"),
    })
    assert group_check_table(t, GC).num_rows == 0


def test_merge_run_boundaries_carries_past_nan_runs():
    """A ts regression straddling an intervening all-null-ts run must still be
    caught: the carried (last_vts, last_vtid) skips the NaN record."""
    from jsonschema_validator_ray.stages.groupcheck import merge_run_boundaries

    nan = float("nan")
    boundaries = pa.table({
        "conv_id": pa.array(["c1", "c1", "c1"], pa.string()),
        "first_tid": pa.array([0, 10, 20], pa.int64()),
        "last_tid": pa.array([9, 19, 29], pa.int64()),
        "first_vts": pa.array([1000.0, nan, 500.0], pa.float64()),
        "last_vts": pa.array([2000.0, nan, 600.0], pa.float64()),
        "first_vtid": pa.array([0, -1, 20], pa.int64()),
        "last_vtid": pa.array([9, -1, 29], pa.int64()),
    })
    out = merge_run_boundaries(boundaries, GC)
    got = list(zip(out["conv_id"].to_pylist(), out["turn_idx"].to_pylist(),
                   out["constraint_id"].to_pylist()))
    assert ("c1", 20, "mono:turn_idx") in got


def _nested_spec(json=True):
    return {
        "columns": {"props": {"type": ["string", "null"] if json else ["null"],
                              "json": json,
                              "properties": {"k": {"type": "integer",
                                                   "required": True,
                                                   "min": 0, "max": 49}}}},
        "keys": {"id": "event_id", "order": None},
    }


def test_nested_json_properties_kernels():
    """Table-scale `properties` analog: type/required/range on a JSON field,
    vacuous on null parents (properties_.rs:124-135 semantics)."""
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    ir = compile_constraints(_nested_spec())
    batch = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "props": pa.array(['{"k": 10}', '{"k": 77}', '{"j": 1}',
                           '{"k": "abc"}', None], pa.string()),
    })
    v = make_row_validator(ir)(batch)
    got = sorted(zip(v["conv_id"].to_pylist(), v["constraint_id"].to_pylist()))
    assert got == [("2", "range:props/k"), ("3", "required:props/k"),
                   ("4", "type:props/k")]


def test_nested_struct_column_kernels():
    """pa.struct payloads: child field read zero-copy, same sub-constraints."""
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    spec = {
        "columns": {"props": {"json": False,
                              "properties": {"k": {"type": "integer",
                                                   "required": True,
                                                   "min": 0, "max": 49}}}},
        "keys": {"id": "event_id", "order": None},
    }
    ir = compile_constraints(spec)
    batch = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "props": pa.array([{"k": 5}, {"k": 88}, {"k": None}],
                          pa.struct([("k", pa.int64())])),
    })
    v = make_row_validator(ir)(batch)
    got = sorted(zip(v["conv_id"].to_pylist(), v["constraint_id"].to_pylist()))
    assert got == [("2", "range:props/k"), ("3", "required:props/k")]


def test_nested_compile_errors_reference_style():
    with pytest.raises(SchemaError):
        compile_constraints({"columns": {"props": {
            "properties": {"k": "not-an-object"}}}})
    with pytest.raises(SchemaError):
        compile_constraints({"columns": {"props": {
            "properties": {"k": {"type": "frobnicate"}}}}})


def test_nested_properties_recursive_two_levels():
    """Recursive sub-properties (properties_.rs:65-94): depth-2 constraints
    with {col}/{a}/{b} paths, vacuous where the INTERMEDIATE payload is
    absent — not just where the root column is null."""
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    spec = {"columns": {"props": {"type": ["string", "null"], "json": True,
        "properties": {
            "meta": {"type": "object", "required": True, "properties": {
                "score": {"type": "number", "required": True,
                          "min": 0.0, "max": 1.0},
                "tag": {"type": "string", "enum": ["a", "b"]},
            }},
            "k": {"type": "integer"},
        }}},
        "keys": {"id": "event_id", "order": None}}
    ir = compile_constraints(spec)
    batch = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "props": pa.array([
            '{"meta": {"score": 0.5, "tag": "a"}, "k": 1}',
            '{"meta": {"score": 1.5}}',
            '{"meta": {"tag": "zzz"}}',
            '{"k": 2}',
            None,
            '{"meta": {"score": "x"}}',
        ], pa.string()),
    })
    v = make_row_validator(ir)(batch)
    got = sorted(zip(v["conv_id"].to_pylist(), v["constraint_id"].to_pylist()))
    assert got == [("2", "range:props/meta/score"),
                   ("3", "enum:props/meta/tag"),
                   ("3", "required:props/meta/score"),
                   ("4", "required:props/meta"),
                   ("6", "type:props/meta/score")]


def test_nested_struct_recursive():
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    spec = {"columns": {"props": {"json": False,
        "properties": {"meta": {"type": "object", "properties": {
            "score": {"type": "integer", "required": True, "max": 10}}}}}},
        "keys": {"id": "event_id", "order": None}}
    ir = compile_constraints(spec)
    t = pa.type_for_alias  # noqa: F841  (doc: nested struct dtype below)
    inner = pa.struct([("score", pa.int64())])
    batch = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "props": pa.array([{"meta": {"score": 5}},
                           {"meta": {"score": 50}},
                           {"meta": None}],
                          pa.struct([("meta", inner)])),
    })
    v = make_row_validator(ir)(batch)
    got = sorted(zip(v["conv_id"].to_pylist(), v["constraint_id"].to_pylist()))
    assert got == [("2", "range:props/meta/score")]


def test_nested_json_nonobject_payload_vacuous():
    """Non-object JSON payloads ('5', '[1,2]', '  "s"') pass nested
    constraints vacuously — the reference's properties keyword applies
    sub-schemas only to object instances (properties_.rs:120-135)."""
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    ir = compile_constraints(_nested_spec())
    batch = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "props": pa.array(['5', '[1,2]', '"str"', '  {"j": 1}', '{"k": 99}'],
                          pa.string()),
    })
    v = make_row_validator(ir)(batch)
    got = sorted(zip(v["conv_id"].to_pylist(), v["constraint_id"].to_pylist()))
    # only the two OBJECT payloads (4: missing k after whitespace, 5: range)
    assert got == [("4", "required:props/k"), ("5", "range:props/k")]


def test_object_detection_trim_matches_duckdb_oracle():
    """ADVICE r3 parity pin: the engine's object-detection left-trim set
    (exactly RFC 8259's space/tab/LF/CR) must classify every payload the
    same as the gate oracle's DuckDB expression
    ``ltrim(props, ' '||chr(9)||chr(10)||chr(13)) LIKE '{%'``
    (__ray_entry__.py struct_check_events). Includes U+00A0, where the old
    utf8_ltrim_whitespace (all-Unicode-whitespace) engine side diverged."""
    import duckdb
    import pyarrow.compute as pc
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    payloads = ['{"k": 99}', ' {"k": 99}', '\t{"k": 99}', '\n{"k": 99}',
                '\r\n {"k": 99}', ' {"k": 99}', ' {"k": 99}',
                'x{"k": 99}', '[1,2]', '5', None]
    col = pa.array(payloads, pa.string())
    engine_is_obj = pc.fill_null(pc.and_(
        pc.is_valid(col),
        pc.starts_with(pc.utf8_ltrim(col, " \t\n\r"), "{")),
        False).to_pylist()
    con = duckdb.connect()
    oracle_is_obj = [
        con.execute(
            "SELECT ? IS NOT NULL AND ltrim(?, ' ' || chr(9) || chr(10) "
            "|| chr(13)) LIKE '{%'", [p, p]).fetchone()[0]
        for p in payloads]
    assert engine_is_obj == oracle_is_obj

    # and the full kernel agrees: k=99 violates range ONLY on object payloads
    ir = compile_constraints(_nested_spec())
    ids = pa.array(range(1, len(payloads) + 1), pa.int64())
    v = make_row_validator(ir)(pa.table({"event_id": ids, "props": col}))
    flagged = sorted(int(x) for x in v["conv_id"].to_pylist())
    expect = sorted(i + 1 for i, ok in enumerate(oracle_is_obj) if ok)
    assert flagged == expect
