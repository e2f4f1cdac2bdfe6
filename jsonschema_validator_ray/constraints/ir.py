"""Constraint spec → compiled Constraint IR.

The table-scale analog of the reference's compile pipeline
(src/keywords/mod.rs:44-62): a declarative JSON-able spec is compiled ONCE on
the driver into an ordered list of typed constraint objects, content-hashed for
lineage, and shipped to workers via closure capture / ``ray.put``. All spec
errors are raised eagerly on the driver with reference-style ``Malformed``
detail strings (src/keywords/type_.rs:34-45, 70-74) — never on the data plane.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..jsonvalidate.types import (
    KeywordType,
    SchemaError,
    unsupported_primitive_type_detail,
    wrong_value_type_detail,
)

# Engine column types: the seven JSON primitives generalized with `timestamp`
# (the input table needs it; JSON has no time type — SURVEY.md §1.2).
COLUMN_TYPES = ("null", "boolean", "integer", "number", "string", "timestamp")

SPEC_VERSION = 1  # analog of DraftVersion (src/types/draft_version.rs:1-11)


@dataclass(frozen=True)
class RowConstraint:
    """One row-local constraint kernel: evaluated vectorized inside the fused
    ``map_batches`` validate stage. ``params`` must stay hashable/JSON-able.

    ``parent`` is set for nested-payload constraints (compiled from a
    column's ``properties`` sub-spec, the table-scale analog of the
    reference's recursive ``properties`` keyword,
    /root/reference/src/keywords/properties_.rs:65-94): the kernel runs on a
    derived ``{parent}/{field}`` column and is masked to rows whose parent
    payload is present (non-object instances pass vacuously,
    properties_.rs:124-128)."""

    cid: str           # e.g. "enum:role" — lands in the violation rows
    kind: str          # type | enum | required | format_len | format_range | ref
    column: str
    params: tuple = ()
    message: str = ""
    parent: str = ""   # set for nested (struct/JSON payload) constraints


@dataclass(frozen=True)
class StructDecode:
    """One derived column: extract ``field`` from the ``parent`` payload
    column (JSON string via vectorized polars JSONPath, or a pa.struct field)
    into columns ``{parent}/{field}`` (value cast to ``engine_type``, null on
    uncastable) and ``{parent}/{field}#present`` (key present)."""

    parent: str
    field: str         # possibly dotted for RECURSIVE sub-properties: "a.b.c"
    engine_type: str   # integer | number | string | boolean
    json: bool = True

    @property
    def field_parts(self) -> tuple:
        return tuple(self.field.split("."))

    @property
    def value_col(self) -> str:
        return f"{self.parent}/{'/'.join(self.field_parts)}"

    @property
    def present_col(self) -> str:
        return f"{self.value_col}#present"


@dataclass(frozen=True)
class GroupCheck:
    """Wide-stage check: monotonicity + key uniqueness per group
    (global sort on (group_key, order_by) → adjacent scan)."""

    group_key: str = "conv_id"
    order_by: str = "turn_idx"
    ts_column: str = "ts"
    check_unique: bool = True     # unique:(group_key, order_by)
    check_mono: bool = True       # mono: ts never decreases in order_by order


@dataclass(frozen=True)
class DriftCheck:
    """Distribution-drift constraint evaluated on merged sketch state."""

    cid: str                      # "drift:rolefreq" | "drift:turnlen"
    kind: str                     # "chi2" | "ks"
    column: str
    reference: tuple              # chi2: ((value, freq), ...); ks: ((edge, cdf), ...)
    threshold: float = 0.05       # chi2: min p-value; ks: max KS statistic


@dataclass
class ConstraintIR:
    """The frozen compile result (analog of the built ``Scope``,
    src/types/scope_builder.rs:56-67). ``ir_hash`` stamps lineage manifests;
    a resume run refuses to mix partitions from a different hash."""

    row_constraints: list = field(default_factory=list)
    group_check: Optional[GroupCheck] = None
    drift_checks: list = field(default_factory=list)
    dictionaries: dict = field(default_factory=dict)   # name -> tuple of values
    columns: dict = field(default_factory=dict)        # column -> declared type set
    struct_decodes: list = field(default_factory=list)  # StructDecode per nested field
    key_column: str = "conv_id"     # violation-row attribution key
    order_column: str = "turn_idx"  # violation-row attribution order (or "")
    ir_hash: str = ""

    def dictionary_for(self, constraint: RowConstraint) -> tuple:
        return self.dictionaries[constraint.params[0]]


def _ir_hash(spec: dict) -> str:
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()[:16]


def _parse_type_set(column: str, declared: Any) -> frozenset:
    """Parse a ``type`` declaration with the reference's exact error semantics
    (src/keywords/type_.rs:48-95), extended with `timestamp`."""

    def parse_one(name: Any) -> str:
        if not isinstance(name, str) or isinstance(name, bool):
            raise SchemaError.malformed(
                column, KeywordType.TYPE, wrong_value_type_detail("string", name)
            )
        if name not in COLUMN_TYPES:
            raise SchemaError.malformed(
                column, KeywordType.TYPE, unsupported_primitive_type_detail(name)
            )
        return name

    if isinstance(declared, str):
        return frozenset((parse_one(declared),))
    if isinstance(declared, list):
        if not declared:
            raise SchemaError.malformed(
                column, KeywordType.TYPE, "This array MUST have at least one element."
            )
        return frozenset(parse_one(n) for n in declared)
    raise SchemaError.malformed(
        column, KeywordType.TYPE, wrong_value_type_detail("string", declared)
    )


_NESTED_TYPES = ("integer", "number", "string", "boolean")


def _compile_properties(ir: ConstraintIR, col: str, cspec: dict, *,
                        prefix: str = "", parent_col: str = "") -> None:
    """Compile a column's nested ``properties`` sub-spec (the table-scale
    analog of the reference's RECURSIVE ``properties`` compile,
    src/keywords/properties_.rs:49-113): each declared field becomes a
    StructDecode (vectorized extract + cast into derived columns) plus
    nested RowConstraints on the derived columns, with ``{col}/{field}``
    violation paths (path rule of properties_.rs:127). A field spec may
    itself declare ``properties`` — sub-schemas recurse to any depth with
    dotted field paths (``$.a.b`` JSONPath / chained struct field reads)."""
    props = cspec["properties"]
    if not isinstance(props, dict):
        raise SchemaError.malformed(
            col, KeywordType.PROPERTIES,
            wrong_value_type_detail("object", props))
    is_json = bool(cspec.get("json", True))
    mask_col = parent_col or col
    for fname, fspec in props.items():
        if not isinstance(fspec, dict):
            raise SchemaError.malformed(
                fname, KeywordType.PROPERTIES,
                "Values of properties object must be of object type. The "
                f"following URLs are recognized as faulty: "
                f"#/columns/{col}/properties/{prefix.replace('.', '/')}{fname}",
            )
        fpath = f"{prefix}{fname}"
        declared = fspec.get("type", "string")
        # nested fields additionally admit "object" (an intermediate node
        # holding sub-properties — the reference's recursive case)
        if declared == "object" or (isinstance(declared, list)
                                    and declared == ["object"]):
            types = frozenset(("object",))
        else:
            types = _parse_type_set(f"{col}/{fpath}", declared)
        value_types = [t for t in _NESTED_TYPES if t in types]
        if "type" in fspec and "object" not in types and len(value_types) > 1:
            # the vectorized extraction casts to ONE engine type; a multi-type
            # declaration can't be checked by a single cast and would silently
            # flag valid values of the other types (review r4) — refuse at
            # compile time like the reference's malformed-schema errors
            raise SchemaError.malformed(
                f"{col}/{fpath}", KeywordType.TYPE,
                "Nested properties support a single declared type (plus "
                "'object'); multi-type nested declarations are not "
                f"supported: {sorted(types)}")
        etype = value_types[0] if value_types else "string"
        d = StructDecode(parent=col, field=fpath, engine_type=etype,
                         json=is_json)
        ir.struct_decodes.append(d)
        path = f"{col}/{fpath.replace('.', '/')}"
        if "type" in fspec and "object" not in types:
            ir.row_constraints.append(RowConstraint(
                cid=f"type:{path}", kind="nested_type", column=d.value_col,
                params=(d.present_col,), message="Invalid Type", parent=mask_col))
        if fspec.get("required"):
            ir.row_constraints.append(RowConstraint(
                cid=f"required:{path}", kind="nested_required",
                column=d.present_col, message="Required property is missing",
                parent=mask_col))
        if "enum" in fspec:
            values = fspec["enum"]
            if not isinstance(values, list) or not values:
                raise SchemaError.malformed(
                    path, KeywordType.TYPE,
                    "This array MUST have at least one element.")
            ir.row_constraints.append(RowConstraint(
                cid=f"enum:{path}", kind="enum", column=d.value_col,
                params=tuple(values), message="Value not in enumeration",
                parent=mask_col))
        if "min" in fspec or "max" in fspec:
            ir.row_constraints.append(RowConstraint(
                cid=f"range:{path}", kind="format_range", column=d.value_col,
                params=(fspec.get("min"), fspec.get("max")),
                message="Value out of range", parent=mask_col))
        if "max_length" in fspec or "min_length" in fspec:
            ir.row_constraints.append(RowConstraint(
                cid=f"format:{path}", kind="format_len", column=d.value_col,
                params=(fspec.get("min_length", 0), fspec.get("max_length")),
                message="String length out of bounds", parent=mask_col))
        if "properties" in fspec:   # recursive sub-schema (properties_.rs:65-94)
            # children are vacuous where THIS field's payload is absent
            # (per-level skip; a non-object truthy value at an intermediate
            # path still counts as "present" — documented divergence from
            # the reference's strict is-object check)
            _compile_properties(ir, col, {"properties": fspec["properties"],
                                          "json": is_json},
                                prefix=f"{fpath}.", parent_col=d.value_col)


def compile_constraints(spec: dict) -> ConstraintIR:
    """Compile a constraint spec into the frozen IR.

    Spec shape::

        {"version": 1,
         "columns": {col: {"type": str|[str], "required": bool,
                           "enum": [..], "ref": dict_name,
                           "max_length": int, "min_length": int,
                           "min": value, "max": value}},
         "table": {"monotonic": {...GroupCheck fields...} | None,
                   "unique": bool,
                   "drift": {"rolefreq": {"column", "reference": {v: freq},
                                          "min_pvalue": float},
                             "turnlen": {"column", "reference_cdf": [[edge, cdf]..],
                                         "max_ks": float}}},
         "dictionaries": {name: [values...]}}
    """
    if not isinstance(spec, dict):
        raise SchemaError.malformed("#", KeywordType.UNKNOWN,
                                    wrong_value_type_detail("object", spec))
    if spec.get("version", SPEC_VERSION) != SPEC_VERSION:
        raise SchemaError(f"Unsupported spec version {spec.get('version')!r}")

    ir = ConstraintIR(ir_hash=_ir_hash(spec))
    ir.dictionaries = {k: tuple(v) for k, v in (spec.get("dictionaries") or {}).items()}

    columns = spec.get("columns") or {}
    if not isinstance(columns, dict):
        raise SchemaError.malformed("columns", KeywordType.PROPERTIES,
                                    wrong_value_type_detail("object", columns))
    for col, cspec in columns.items():
        if not isinstance(cspec, dict):
            raise SchemaError.malformed(
                col, KeywordType.PROPERTIES,
                "Values of properties object must be of object type. The following "
                f"URLs are recognized as faulty: #/columns/{col}",
            )
        if "type" in cspec:
            types = _parse_type_set(col, cspec["type"])
            ir.columns[col] = types
            ir.row_constraints.append(RowConstraint(
                cid=f"type:{col}", kind="type", column=col,
                params=tuple(sorted(types)), message="Invalid Type"))
        if cspec.get("required"):
            ir.row_constraints.append(RowConstraint(
                cid=f"required:{col}", kind="required", column=col,
                message="Required property is missing"))
        if "enum" in cspec:
            values = cspec["enum"]
            if not isinstance(values, list) or not values:
                raise SchemaError.malformed(
                    col, KeywordType.TYPE, "This array MUST have at least one element.")
            ir.row_constraints.append(RowConstraint(
                cid=f"enum:{col}", kind="enum", column=col,
                params=tuple(values), message="Value not in enumeration"))
        if "max_length" in cspec or "min_length" in cspec:
            ir.row_constraints.append(RowConstraint(
                cid=f"format:{col}", kind="format_len", column=col,
                params=(cspec.get("min_length", 0), cspec.get("max_length")),
                message="String length out of bounds"))
        if "min" in cspec or "max" in cspec:
            ir.row_constraints.append(RowConstraint(
                cid=f"range:{col}", kind="format_range", column=col,
                params=(cspec.get("min"), cspec.get("max")),
                message="Value out of range"))
        if "ref" in cspec:
            dict_name = cspec["ref"]
            if dict_name not in ir.dictionaries:
                # analog of a $ref the loader cannot resolve (src/keywords/ref_.rs:42-44)
                raise SchemaError(f"Loader Error: no dictionary named {dict_name!r}")
            ir.row_constraints.append(RowConstraint(
                cid=f"ref:{col}", kind="ref", column=col,
                params=(dict_name,), message="Unresolved reference"))
        if "properties" in cspec:
            _compile_properties(ir, col, cspec)

    keys = spec.get("keys") or {}
    ir.key_column = keys.get("id", "conv_id")
    ir.order_column = keys.get("order", "turn_idx") or ""

    table = spec.get("table") or {}
    mono = table.get("monotonic")
    unique = table.get("unique", False)
    if mono or unique:
        mono = mono or {}
        ir.group_check = GroupCheck(
            group_key=mono.get("group_by", "conv_id"),
            order_by=mono.get("order_by", "turn_idx"),
            ts_column=mono.get("column", "ts"),
            check_unique=bool(unique),
            check_mono=bool(table.get("monotonic")),
        )

    for ch in table.get("checks") or []:
        # cross-column table CHECK (SQL CHECK-constraint analog; no
        # reference counterpart — Draft4 has no conditionals):
        #   {"name", "when": {"column", "equals"}?,
        #    "assert": {"column", "op", "value"|"values"|"other_column"}}
        if not isinstance(ch, dict) or "name" not in ch or \
                "assert" not in ch:
            raise SchemaError.malformed(
                "table/checks", KeywordType.UNKNOWN,
                wrong_value_type_detail("object", ch))
        a = ch["assert"]
        if not isinstance(a, dict) or "column" not in a:
            raise SchemaError(
                f"check {ch['name']!r}: 'assert' needs a 'column'")
        op = a.get("op")
        operand_is_col = "other_column" in a
        if op == "in":
            if operand_is_col or not isinstance(a.get("values"), list) \
                    or not a["values"]:
                raise SchemaError(
                    f"check {ch['name']!r}: op 'in' needs a non-empty "
                    f"'values' list")
            operand = tuple(a["values"])
        elif op in ("null", "not_null"):
            operand = None
        elif op in ("eq", "ne", "lt", "le", "gt", "ge"):
            if not operand_is_col and "value" not in a:
                raise SchemaError(
                    f"check {ch['name']!r}: op {op!r} needs a 'value' or "
                    f"an 'other_column'")
            operand = a["other_column"] if operand_is_col else a["value"]
        else:
            raise SchemaError(f"check {ch['name']!r}: unknown op {op!r}")
        when = ch.get("when") or {}
        ir.row_constraints.append(RowConstraint(
            cid=f"check:{ch['name']}", kind="check", column=a["column"],
            params=(when.get("column"), when.get("equals"), op,
                    operand_is_col, operand),
            message="Check constraint failed"))

    drift = table.get("drift") or {}
    if "rolefreq" in drift:
        d = drift["rolefreq"]
        ir.drift_checks.append(DriftCheck(
            cid="drift:rolefreq", kind="chi2", column=d.get("column", "role"),
            reference=tuple(sorted((str(k), float(v)) for k, v in d["reference"].items())),
            threshold=float(d.get("min_pvalue", 0.001))))
    if "turnlen" in drift:
        d = drift["turnlen"]
        ir.drift_checks.append(DriftCheck(
            cid="drift:turnlen", kind="ks", column=d.get("column", "text"),
            reference=tuple((float(e), float(c)) for e, c in d["reference_cdf"]),
            threshold=float(d.get("max_ks", 0.15))))

    return ir


# The default transcript-table spec (BASELINE.json input_hint):
# (conv_id:string, turn_idx:int32, role:string, text:string, tool:string, ts:timestamp)
ROLES = ("system", "user", "assistant", "tool")

TOOL_DICTIONARY = tuple(
    f"{ns}.{name}"
    for ns in ("search", "code", "file", "web")
    for name in ("open", "read", "write", "exec", "list", "query", "fetch", "close")
)  # 32 fixed names (FIXTURES.md §B)

TRANSCRIPT_SPEC = {
    "version": SPEC_VERSION,
    "columns": {
        "conv_id": {"type": "string", "required": True},
        "turn_idx": {"type": "integer", "required": True},
        "role": {"type": "string", "required": True, "enum": list(ROLES)},
        "text": {"type": "string", "required": True, "max_length": 32768},
        "tool": {"type": ["string", "null"], "ref": "tools"},
        "ts": {"type": "timestamp", "required": True,
               "min": "2020-01-01T00:00:00", "max": "2035-01-01T00:00:00"},
    },
    "table": {
        # "salt_span" is no longer read; it stays so that ir_hash (a hash of
        # the spec text) and every existing partition manifest stay valid
        "monotonic": {"group_by": "conv_id", "order_by": "turn_idx",
                      "column": "ts", "salt_span": 4096},
        "unique": True,
        # drift reference stats are attached by the caller (computed from a
        # clean generation — sources/transcripts.py writes them next to the data)
    },
    "dictionaries": {"tools": list(TOOL_DICTIONARY)},
}
