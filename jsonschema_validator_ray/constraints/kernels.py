"""Vectorized Arrow constraint kernels.

Table-scale analog of the reference's keyword ``validation_errors`` methods
(src/keywords/type_.rs:101-109, properties_.rs:119-135, ref_.rs:55-61): each
kernel maps an Arrow batch to a boolean violation mask via ``pyarrow.compute``;
violation rows (conv_id, turn_idx, constraint_id, message) are materialized
only where masks fire. Dual evaluation mode mirrors the reference's
enumerate-all vs fail-fast split (src/types/schema.rs:67-78):

- ``enumerate``: concatenate all kernels' violation rows (schema.rs:70),
- ``verdict``:   per-batch pass/fail with early exit at the first kernel that
  fires (keywords/mod.rs:30-32) — no violation rows materialized.

Per-row invariant: kernels never mutate or copy payload columns; masks are
computed zero-copy over the Arrow batch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .ir import ConstraintIR, GroupCheck, RowConstraint

VIOLATION_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("constraint_id", pa.string()),
    ("message", pa.string()),
])

VERDICT_SCHEMA = pa.schema([
    ("n_rows", pa.int64()),
    ("n_violations", pa.int64()),
    ("passed", pa.bool_()),
    ("first_constraint_id", pa.string()),
])


def _engine_type(dtype: pa.DataType) -> str:
    """Map an Arrow dtype to the engine's column-type name (SURVEY.md §1.2)."""
    if pa.types.is_null(dtype):
        return "null"
    if pa.types.is_boolean(dtype):
        return "boolean"
    if pa.types.is_integer(dtype):
        return "integer"
    if pa.types.is_floating(dtype) or pa.types.is_decimal(dtype):
        return "number"
    if pa.types.is_string(dtype) or pa.types.is_large_string(dtype):
        return "string"
    if pa.types.is_timestamp(dtype) or pa.types.is_date(dtype):
        return "timestamp"
    return f"unsupported:{dtype}"


def _all_true(n: int) -> pa.Array:
    return pa.array(np.ones(n, dtype=bool))


def _np(col) -> np.ndarray:
    """Arrow (Chunked)Array → numpy, tolerating nulls and chunking."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _range_scalar(value, dtype: pa.DataType):
    if value is None:
        return None
    if pa.types.is_timestamp(dtype) and isinstance(value, str):
        return pa.scalar(np.datetime64(value, dtype.unit), type=dtype)
    return pa.scalar(value, type=dtype)


# ---------------------------------------------------------------------------
# Kernel registry — the engine's user-extension surface (analog of the
# reference's Validator trait + compile_draft_validators dispatch,
# src/types/validator.rs:5-19, src/keywords/mod.rs:44-62). Adding a constraint
# kind = registering one kernel function here (and, if it needs spec syntax,
# one branch in ir.compile_constraints).
# A kernel maps (constraint, present column, ir) → boolean violation mask, or
# None when it cannot fire on this batch.
# ---------------------------------------------------------------------------

KERNELS: dict = {}


def kernel(kind: str):
    def register(fn):
        KERNELS[kind] = fn
        return fn
    return register


@kernel("required")
def _k_required(c, col, is_null, batch, ir):
    return is_null


@kernel("type")
def _k_type(c, col, is_null, batch, ir):
    n = batch.num_rows
    declared = set(c.params)
    null_bad = "null" not in declared
    ct = _engine_type(col.type)
    if ct == "null":
        return None if not null_bad else _all_true(n)
    if ct not in declared:
        # integer-valued floats satisfy a declared `integer`
        if ct == "number" and "integer" in declared:
            non_integral = pc.not_equal(pc.floor(col), col)
            bad = pc.fill_null(non_integral, null_bad)
            if null_bad:
                bad = pc.or_(bad, is_null)
            return bad
        # dtype outside the declared set: every present value violates
        return pc.invert(is_null) if not null_bad else _all_true(n)
    return is_null if null_bad else None


@kernel("enum")
def _k_enum(c, col, is_null, batch, ir):
    ok = pc.is_in(col, value_set=pa.array(list(c.params), type=col.type))
    return pc.and_(pc.invert(ok), pc.invert(is_null))


@kernel("ref")
def _k_ref(c, col, is_null, batch, ir):
    values = ir.dictionaries[c.params[0]]
    ok = pc.is_in(col, value_set=pa.array(list(values), type=col.type))
    return pc.and_(pc.invert(ok), pc.invert(is_null))


@kernel("format_len")
def _k_format_len(c, col, is_null, batch, ir):
    min_len, max_len = c.params
    length = pc.utf8_length(col)
    bad = pc.less(length, min_len)
    if max_len is not None:
        bad = pc.or_(bad, pc.greater(length, max_len))
    return pc.fill_null(bad, False)


@kernel("nested_required")
def _k_nested_required(c, col, is_null, batch, ir):
    # column = the `{parent}/{field}#present` boolean: absent key ⇒ violation
    # (the validator masks to rows whose parent payload is present).
    # Documented divergence from Draft-4 `required`: "present" means the key
    # maps to a NON-NULL value — `{"k": null}` counts as missing, because the
    # vectorized extraction (polars json_path_match / struct-child validity)
    # cannot distinguish an explicit JSON null from an absent key. The paired
    # DuckDB oracle (`json_extract_string(...) IS NULL`) has identical
    # semantics, so the gate stays consistent.
    return pc.invert(pc.fill_null(col, False))


@kernel("nested_type")
def _k_nested_type(c, col, is_null, batch, ir):
    # value present (key matched) but not castable to the declared type:
    # `{"k": "abc"}` under integer ⇒ Invalid Type; absent key ⇒ skip
    present_col = c.params[0]
    if present_col not in batch.column_names:
        return None
    present = pc.fill_null(batch[present_col], False)
    return pc.and_(present, is_null)


_CHECK_CMP = {"eq": pc.equal, "ne": pc.not_equal, "lt": pc.less,
              "le": pc.less_equal, "gt": pc.greater, "ge": pc.greater_equal}


@kernel("check")
def _k_check(c, col, is_null, batch, ir):
    """Cross-column table CHECK constraint — the row-constraint shape SQL
    engines add beyond per-column JSON-Schema keywords: an optional WHEN
    guard on another column plus an assertion on this one, with SQL CHECK
    null semantics (an UNKNOWN comparison passes; only a definite FALSE
    violates). params = (when_col, when_val, op, operand_is_col, operand);
    op ∈ {null, not_null, eq, ne, lt, le, gt, ge, in}. A missing WHEN or
    operand column skips the kernel (absent ⇒ skip, like every non-required
    kernel)."""
    when_col, when_val, op, operand_is_col, operand = c.params
    n = batch.num_rows
    if when_col is not None:
        if when_col not in batch.column_names:
            return None
        w = pc.fill_null(pc.equal(batch[when_col], when_val), False)
    else:
        w = _all_true(n)
    if op == "not_null":
        ok = pc.invert(is_null)
    elif op == "null":
        ok = is_null
    elif op == "in":
        ok = pc.fill_null(
            pc.is_in(col, value_set=pa.array(list(operand), type=col.type)),
            True)                        # SQL CHECK: unknown passes
        ok = pc.if_else(is_null, True, ok)   # NULL IN (...) is unknown
    else:
        if operand_is_col:
            if operand not in batch.column_names:
                return None
            rhs = batch[operand]
        else:
            rhs = _range_scalar(operand, col.type)
        ok = pc.fill_null(_CHECK_CMP[op](col, rhs), True)
    return pc.and_(w, pc.invert(ok))


@kernel("format_range")
def _k_format_range(c, col, is_null, batch, ir):
    lo, hi = (_range_scalar(v, col.type) for v in c.params)
    bad = None
    if lo is not None:
        bad = pc.less(col, lo)
    if hi is not None:
        hi_bad = pc.greater(col, hi)
        bad = hi_bad if bad is None else pc.or_(bad, hi_bad)
    return pc.fill_null(bad, False) if bad is not None else None


def evaluate_kernel(c: RowConstraint, batch: pa.Table, ir: ConstraintIR) -> Optional[pa.ChunkedArray]:
    """Evaluate one row constraint → boolean mask (True = violation), or None
    when the kernel cannot fire on this batch."""
    if c.kind not in KERNELS:
        raise ValueError(f"unknown constraint kind {c.kind!r}")
    if c.column not in batch.column_names:
        # absent column: `required` fires everywhere; everything else is
        # skipped (absent ⇒ skip, properties_.rs:124-128)
        return _all_true(batch.num_rows) if c.kind == "required" else None
    col = batch[c.column]
    if pa.types.is_null(col.type) and c.kind in ("enum", "ref", "format_len",
                                                 "format_range"):
        # Arrow null-typed column (all-None parquet column, or the pa.nulls
        # fallback from augment_with_struct_decodes): value-level kernels
        # skip nulls by definition, and their pyarrow.compute calls would
        # raise on the null dtype (pa.array(..., type=null), utf8_length)
        return None
    return KERNELS[c.kind](c, col, pc.is_null(col), batch, ir)


def _violation_rows(batch: pa.Table, mask, cid: str, message: str,
                    key_col: str = "conv_id",
                    order_col: str = "turn_idx") -> pa.Table:
    """Violation rows attributed by the IR's key columns (defaults match the
    transcript table; any table can redirect via spec ``keys``). The output
    schema is fixed — non-string keys are cast."""
    idx = pa.array(np.flatnonzero(_np(mask).astype(bool)))
    k = len(idx)
    conv = (batch[key_col].take(idx).cast(pa.string(), safe=False)
            if key_col in batch.column_names else pa.nulls(k, pa.string()))
    if (order_col and order_col in batch.column_names
            and pa.types.is_integer(batch[order_col].type)):
        turn = batch[order_col].take(idx).cast(pa.int32(), safe=False)
    else:
        # non-integer order column (itself a type violation): keys unknowable
        turn = pa.nulls(k, pa.int32())
    return pa.table({
        "conv_id": conv,
        "turn_idx": turn,
        "constraint_id": pa.array([cid] * k, type=pa.string()),
        "message": pa.array([message] * k, type=pa.string()),
    }, schema=VIOLATION_SCHEMA)


def augment_with_struct_decodes(batch: pa.Table, ir: ConstraintIR) -> pa.Table:
    """Vectorized nested-payload extraction: for each StructDecode, append
    the ``{parent}/{field}`` value column (cast to the declared type, null on
    uncastable) and ``{parent}/{field}#present`` (key present). JSON string
    payloads decode via polars' vectorized JSONPath (no Python row loop);
    pa.struct payloads read the child field zero-copy."""
    if not ir.struct_decodes:
        return batch
    import polars as pl

    _PL_TYPES = {"integer": pl.Int64, "number": pl.Float64,
                 "boolean": pl.Boolean, "string": pl.Utf8}
    json_cache: dict = {}
    for d in ir.struct_decodes:
        if d.parent not in batch.column_names:
            continue
        col = batch[d.parent]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if d.json and pa.types.is_string(col.type):
            s = json_cache.get(d.parent)
            if s is None:
                s = pl.from_arrow(col)
                json_cache[d.parent] = s
            raw = s.str.json_path_match("$." + ".".join(d.field_parts))
            present = raw.is_not_null()
            value = raw if d.engine_type == "string" else \
                raw.cast(_PL_TYPES[d.engine_type], strict=False)
            value_arr = value.to_arrow()
            present_arr = present.to_arrow()
        elif pa.types.is_struct(col.type):
            try:
                f = col
                valid = pc.is_valid(col)
                for part in d.field_parts:   # walk nested struct children,
                    f = f.field(part)        # ANDing validity down the chain
                    valid = pc.and_(valid, pc.is_valid(f))
                f = pc.if_else(valid, f, pa.nulls(len(col), f.type))
            except KeyError:
                f = pa.nulls(len(col))
                valid = pa.array(np.zeros(len(col), bool))
            present_arr = valid
            if pa.types.is_struct(f.type):
                # intermediate object node: its value column only carries
                # presence (children mask on is_valid of this column)
                value_arr = pc.if_else(valid, valid,
                                       pa.nulls(len(col), pa.bool_()))
            else:
                try:
                    value_arr = f.cast({"integer": pa.int64(),
                                        "number": pa.float64(),
                                        "boolean": pa.bool_(),
                                        "string": pa.string()}[d.engine_type],
                                       safe=False)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    value_arr = pa.nulls(len(col))
        else:
            # unsupported payload dtype: fields are all-absent
            value_arr = pa.nulls(batch.num_rows)
            present_arr = pa.array(np.zeros(batch.num_rows, bool))
        batch = batch.append_column(d.value_col, value_arr)
        batch = batch.append_column(d.present_col, present_arr)
    return batch


def make_row_validator(ir: ConstraintIR, mode: str = "enumerate"):
    """Build the fused per-batch validate function for ``map_batches``.

    All row constraints are evaluated in ONE pass over each zero-copy Arrow
    batch (validator-conjunction analog, src/types/schema.rs:67-78).
    """
    if mode not in ("enumerate", "verdict"):
        raise ValueError(f"make_row_validator: mode must be 'enumerate' or "
                         f"'verdict', got {mode!r}")
    constraints = list(ir.row_constraints)

    def eval_mask(c: RowConstraint, batch: pa.Table, obj_cache: dict):
        mask = evaluate_kernel(c, batch, ir)
        if mask is None:
            return None
        if c.parent and c.parent in batch.column_names:
            # nested constraints pass vacuously on NON-OBJECT instances —
            # null payloads AND non-object JSON like '5' or '[1,2]' — per the
            # reference's properties keyword (properties_.rs:120-135), which
            # applies sub-schemas only when the instance is an object.
            # The full-column ltrim/starts_with scan is computed ONCE per
            # parent per batch (obj_cache): N nested constraints on one
            # payload column would otherwise rescan it N times.
            is_obj = obj_cache.get(c.parent)
            if is_obj is None:
                col = batch[c.parent]
                is_obj = pc.is_valid(col)
                if pa.types.is_string(col.type) or pa.types.is_large_string(
                        col.type):
                    # strip exactly RFC 8259's insignificant-whitespace set
                    # (space, tab, LF, CR) — NOT utf8_ltrim_whitespace, which
                    # strips all Unicode whitespace and diverged from the
                    # paired SQL oracle's ltrim set (ADVICE r3)
                    is_obj = pc.and_(is_obj, pc.starts_with(
                        pc.utf8_ltrim(col, " \t\n\r"), "{"))
                obj_cache[c.parent] = is_obj
            mask = pc.and_(pc.fill_null(mask, False), is_obj)
        return mask

    def validate_batch(batch: pa.Table) -> pa.Table:
        n_in = batch.num_rows
        batch = augment_with_struct_decodes(batch, ir)
        obj_cache: dict = {}
        if mode == "verdict":
            total = 0
            first_cid = None
            for c in constraints:
                mask = eval_mask(c, batch, obj_cache)
                if mask is None:
                    continue
                k = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
                if k:
                    total += k
                    first_cid = first_cid or c.cid
                    break  # fail-fast (keywords/mod.rs:30-32)
            return pa.table({
                "n_rows": pa.array([n_in], pa.int64()),
                "n_violations": pa.array([total], pa.int64()),
                "passed": pa.array([total == 0]),
                "first_constraint_id": pa.array([first_cid], pa.string()),
            }, schema=VERDICT_SCHEMA)

        parts = []
        for c in constraints:
            mask = eval_mask(c, batch, obj_cache)
            if mask is None:
                continue
            if not pc.any(mask).as_py():
                continue
            parts.append(_violation_rows(batch, mask, c.cid, c.message,
                                         ir.key_column, ir.order_column))
        if not parts:
            return VIOLATION_SCHEMA.empty_table()
        return pa.concat_tables(parts)

    return validate_batch


# ---------------------------------------------------------------------------
# Wide-stage key casts + the per-conversation group check
# ---------------------------------------------------------------------------

def order_key_int64(col) -> pa.Array:
    """Order-key column → int64 with nulls where a value cannot participate
    in group checks. Mirrors the row stage's `type` kernel semantics instead
    of crashing the wide stage on malformed data (review r4): integer dtypes
    cast directly; integer-VALUED floats participate (they satisfy a declared
    ``integer``); non-integral floats and every other dtype (string, …) are
    nulled — those values already fired Invalid Type in the row stage, and
    group checks exclude them exactly like null order keys."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_integer(t):
        return col.cast(pa.int64())
    if pa.types.is_floating(t):
        integral = pc.fill_null(pc.equal(pc.floor(col), col), False)
        return pc.if_else(integral, col,
                          pa.nulls(len(col), t)).cast(pa.int64(), safe=False)
    return pa.nulls(len(col), pa.int64())


def ts_key_int64(col) -> pa.Array:
    """Timestamp column → int64 ticks with nulls for non-temporal dtypes
    (mono is defined over rows with VALID ts; a mistyped ts column fired the
    row stage's type kernel and its rows drop out of mono, they don't crash
    the shuffle). Unit preserved as stored — comparisons are within-column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if (pa.types.is_timestamp(t) or pa.types.is_date(t)
            or pa.types.is_integer(t)):
        return col.cast(pa.int64(), safe=False)
    return pa.nulls(len(col), pa.int64())


def group_check_table(group: pa.Table, gc: GroupCheck) -> pa.Table:
    """Exact in-memory check of ONE conversation's rows: sorted-run duplicate
    scan + ts-monotonicity in turn order. Returns violation rows
    (VIOLATION_SCHEMA). The per-conversation reference the vectorized
    sorted-run checks are tested against.

    Semantics (FIXTURES.md §B): per conversation ordered by ``(order_by,
    ts)``, ``ts`` must never DECREASE — a violation is ``ts < prev_ts``
    at a different turn; equal consecutive ts pass (matches the oracle's
    ``WHERE ts < lag(ts)``; a swapped turn_idx pair surfaces as a ts
    regression); ``(group_key, order_by)`` must be unique. Null or
    uncastable order keys are skipped (they already fired type/required).
    """
    gk_valid = pc.is_valid(group[gc.group_key])
    if not pc.all(gk_valid).as_py():
        # null group keys already fired required/type kernels — skip them
        group = group.filter(gk_valid)
    conv = group[gc.group_key][0].as_py() if group.num_rows else None
    ord_arr = order_key_int64(group[gc.order_by])
    tid_all = _np(ord_arr.fill_null(np.iinfo(np.int64).min))
    null_mask = _np(pc.is_null(ord_arr))
    if gc.check_mono and gc.ts_column in group.column_names:
        ts_all = _np(ts_key_int64(group[gc.ts_column]))  # ticks as stored
    else:
        # unique-only spec: no ts column is projected (or it's absent) —
        # mono never fires
        ts_all = np.full(group.num_rows, np.nan)
    keep = ~null_mask
    tid = tid_all[keep]
    ts = ts_all[keep]
    # ts breaks turn_idx ties (null ts last): a duplicated turn compares
    # its latest ts with the next turn, whatever the physical row order
    order = np.lexsort((ts, tid))
    tid = tid[order]
    ts = ts[order]

    viol_tid: list[int] = []
    viol_cid: list[str] = []
    viol_msg: list[str] = []

    if tid.size:
        if gc.check_unique:
            dup = np.flatnonzero(tid[1:] == tid[:-1]) + 1
            for i in dup:
                viol_tid.append(int(tid[i]))
                viol_cid.append(f"unique:({gc.group_key},{gc.order_by})")
                viol_msg.append("Duplicate key")
        if gc.check_mono:
            # mono is defined over rows with VALID ts, in turn order (null-ts
            # rows never participate — they already fired type/required)
            valid = ts == ts
            tv, sv = tid[valid], ts[valid]
            reg = np.flatnonzero((sv[1:] < sv[:-1]) & (tv[1:] != tv[:-1])) + 1
            for i in reg:
                viol_tid.append(int(tv[i]))
                viol_cid.append(f"mono:{gc.order_by}")
                viol_msg.append("Non-monotonic ts for turn order")

    return pa.table({
        "conv_id": pa.array([conv] * len(viol_tid), pa.string()),
        "turn_idx": pa.array(viol_tid, pa.int32()),
        "constraint_id": pa.array(viol_cid, pa.string()),
        "message": pa.array(viol_msg, pa.string()),
    }, schema=VIOLATION_SCHEMA)
