"""Distributed JSON schema inference over a string column of JSON
payloads — the discovery half of the validation engine (SURVEY.md §2.2
per-record maps + aggregations): before a constraint IR can be compiled
against a semi-structured column, something must report which keys exist
and which JSON types each key takes. ``infer_json_schema`` produces that
report: one ``(jkey, jtype, n)`` row per top-level key × observed type.

Type names follow DuckDB's ``json_type`` so the report is SQL-oracle
comparable: OBJECT / ARRAY / VARCHAR / BOOLEAN / DOUBLE, integers split
into UBIGINT (>= 0) and BIGINT (< 0) with out-of-uint64/int64-range
integers reported as DOUBLE (DuckDB parses them so), and JSON ``null``
reported as a NULL type (DuckDB returns SQL NULL for it).

Scale shape: the per-batch combiner first collapses the batch to DISTINCT
payload strings with counts (one Arrow groupby — at 100 TB the parse cost
is bounded by per-batch payload cardinality, not row count; enum-ish
payload domains parse a few hundred strings per block), parses each
distinct string ONCE with the stdlib decoder, and emits ``(jkey, jtype,
n)`` partials whose cardinality is keys × types. The driver folds the
tiny partials with one final groupby — NO shuffle at any size. Invalid
JSON and non-object payloads contribute nothing (the SQL
``json_valid`` + ``json_keys`` contract); null payloads drop.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import fold_partials, strip_meta


class _Pairs(list):
    """A JSON object decoded as its ordered (key, value) pairs —
    ``object_pairs_hook`` marker so duplicate keys survive decoding
    (``json.loads``'s default dict is last-wins, but DuckDB's
    ``json_keys`` reports every occurrence; review r5)."""


def _jtype(v) -> str | None:
    # bool before int: Python bools are ints
    if v is None:
        return None
    if isinstance(v, bool):
        return "BOOLEAN"
    if isinstance(v, int):
        # DuckDB json_type parses integers beyond uint64/int64 range as
        # DOUBLE (verified: 2^64 -> DOUBLE, -(2^63)-1 -> DOUBLE); match it
        if v >= (1 << 64) or v < -(1 << 63):
            return "DOUBLE"
        return "UBIGINT" if v >= 0 else "BIGINT"
    if isinstance(v, float):
        return "DOUBLE"
    if isinstance(v, str):
        return "VARCHAR"
    if isinstance(v, _Pairs):
        return "OBJECT"
    if isinstance(v, list):
        return "ARRAY"
    return "OBJECT"


def infer_json_schema(ds, col: str) -> pa.Table:
    """Top-level key/type census of a JSON string column: returns
    ``(jkey, jtype, n)`` sorted by (jkey, jtype), where ``n`` counts the
    rows whose payload has ``jkey`` with a value of ``jtype``. See the
    module docstring for the scale shape and the DuckDB type-name
    contract."""
    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[col].drop_null()
        g = pa.TableGroupBy(pa.table({"p": vals}), "p") \
            .aggregate([([], "count_all")])
        keys: list = []
        types: list = []
        counts: list = []
        for p, n in zip(g["p"].to_pylist(),
                        g["count_all"].to_pylist()):
            try:
                obj = json.loads(p, object_pairs_hook=_Pairs)
            except ValueError:
                continue
            if not isinstance(obj, _Pairs):
                continue
            # duplicate keys: DuckDB's json_keys unnests EVERY occurrence
            # while json_type('$.key') resolves to the FIRST occurrence's
            # value — emit one row per occurrence, all typed first-wins
            # (review r5)
            first: dict = {}
            for k, v in obj:
                if k not in first:
                    first[k] = _jtype(v)
            for k, _v in obj:
                keys.append(k)
                types.append(first[k])
                counts.append(n)
        t = pa.table({"jkey": pa.array(keys, pa.string()),
                      "jtype": pa.array(types, pa.string()),
                      "n": pa.array(counts, pa.int64())})
        gb = pa.TableGroupBy(t, ["jkey", "jtype"]).aggregate([("n", "sum")])
        return strip_meta(pa.table({
            "jkey": gb["jkey"], "jtype": gb["jtype"],
            "n": gb["n_sum"].cast(pa.int64())}))

    folded = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), ["jkey", "jtype"], ["n"])
    if folded is None:
        return pa.table({"jkey": pa.array([], pa.string()),
                         "jtype": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return folded.sort_by([("jkey", "ascending"), ("jtype", "ascending")])
