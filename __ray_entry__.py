"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship transcript-validation pipeline;
``queries()`` exposes one callable per implemented operator (SURVEY.md §2);
``oracle_sql()`` provides DuckDB-equivalent SQL for the SQL-expressible ones.
Ray is initialised by the driver BEFORE this module is imported — nothing here
calls ray.init()/ray.shutdown().

Float-sensitive aggregates are computed as exact integer cents on BOTH sides
(Ray and SQL) so value-hashes can't drift on summation order.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)
# Ray workers must import the package too
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from jsonschema_validator_ray.rayutil import quiet_empty_partition_warnings

# pure logging side effect (no Ray session touched): hide the benign
# empty-shuffle-partition schema-change WARNINGs for every query, including
# the transcript ones that don't read through _read()
quiet_empty_partition_warnings()

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def _read(sf_dir: str, table: str, columns=None, filter=None):
    import ray.data

    from jsonschema_validator_ray.rayutil import (
        ensure_worker_importable, quiet_empty_partition_warnings)
    ensure_worker_importable()
    quiet_empty_partition_warnings()   # benign empty-shuffle-partition noise
    # read with an explicit METADATA-FREE schema: the testdata parquet
    # carries pandas footer metadata, which makes pa.Schema unhashable and
    # defeats Ray's schema dedup in every unify — inside the read op's own
    # block splitting AND every downstream shuffle reduce ('Failed to hash
    # the schemas' warning spam, VERDICT r3 #2). One driver-side footer read
    # (~ms) buys clean schemas on every block from the source.
    # ``filter`` is a pads.field expression pushed into the scan; its
    # predicate columns must be included in ``columns``.
    from jsonschema_validator_ray.rayutil import clean_read_schema
    path = os.path.join(sf_dir, f"{table}.parquet")
    return ray.data.read_parquet(path, columns=columns,
                                 schema=clean_read_schema(path, columns),
                                 filter=filter)



def _nrows(sf_dir: str, table: str) -> int:
    """Parquet-footer row count (microseconds) — lets size-gated operators
    (ngram hot-df pass, gram staging) skip a ds.count() execution."""
    import pyarrow.parquet as pq

    return pq.read_metadata(os.path.join(sf_dir, f"{table}.parquet")).num_rows


def _read_staged(sf_dir: str, table: str, columns=None,
                 cap_rows: int = 1_000_000):
    """Size-gated staged read for MULTI-PASS consumers (kmeans/IVF/
    semdedup): below ``cap_rows`` (parquet footer, microseconds) the blocks
    are materialized ONCE in the object store so every downstream pass
    re-executes from memory — each fresh scan otherwise pays a full
    read+plan (~1 s of pure orchestration per pass at gate scale). Above
    the cap it falls through to the streaming read: at 100 TB multi-pass
    algorithms re-scan, the documented streaming contract."""
    ds = _read(sf_dir, table, columns)
    if _nrows(sf_dir, table) <= cap_rows:
        ds = ds.materialize()
    return ds


def _collect(ds) -> pa.Table:
    """Materialize a (result-sized) Dataset to one pa.Table, driver-side.

    ``materialize()`` first: ``to_arrow_refs()`` on a LAZY dataset runs the
    plan AND then a limit-1 schema probe — which re-executes the whole
    pipeline when an all-to-all (sort/groupby shuffle) blocks limit
    pushdown, doubling every shuffle query's wall. Materializing runs the
    plan exactly once (blocks stay in the object store, not driver heap).
    Only for oracle-contract results; production sinks use ``ops/sink.py``.
    """
    import ray

    tables = [t for t in ray.get(ds.materialize().to_arrow_refs())]
    tables = [t for t in tables if t.num_rows] or tables[:1]
    return pa.concat_tables(tables, promote_options="default")


# --------------------------------------------------------------------------
# flagship
# --------------------------------------------------------------------------

_TX_CACHE: dict = {}


def _transcripts_for(sf_dir: str) -> tuple:
    """Deterministic transcripts scaled to the sf of the testdata dir."""
    from jsonschema_validator_ray.sources import (
        generate_transcripts, reference_stats, spec_with_drift)

    name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = {"sf0.001": 300, "sf0.01": 3000, "sf0.1": 30000}.get(name, 300)
    if n_convs not in _TX_CACHE:
        out = f"/tmp/graft_transcripts/{n_convs}"
        # generate_transcripts is itself resumable (plan-token-checked shard
        # reuse) — no marker file needed here; the per-process _TX_CACHE
        # keeps reference_stats from rebuilding within a process
        gen = generate_transcripts(out, n_convs=n_convs,
                                   n_files=max(4, n_convs // 1000))
        spec = spec_with_drift(reference_stats(n_convs))
        _TX_CACHE[n_convs] = (gen, spec)
    return _TX_CACHE[n_convs]


_CURRENT_LINK = "/tmp/graft_transcripts/current"


def _ensure_current_corpus(sf_dir: str) -> tuple:
    """Generate the deterministic corpus for ``sf_dir`` and point the fixed
    symlink at it. The transcript oracle SQL reads through the symlink, so
    the corpus the Ray query just validated is exactly what DuckDB sees."""
    gen, spec = _transcripts_for(sf_dir)
    os.makedirs(os.path.dirname(_CURRENT_LINK), exist_ok=True)
    tmp = _CURRENT_LINK + ".lnk"
    try:
        if (os.path.islink(_CURRENT_LINK)
                and os.readlink(_CURRENT_LINK) == gen.out_dir):
            return gen, spec
        if os.path.lexists(tmp):
            os.unlink(tmp)
        os.symlink(gen.out_dir, tmp)
        os.replace(tmp, _CURRENT_LINK)
    except OSError:
        pass
    return gen, spec


# GATE HARDENING (round 3): pregenerate the deterministic corpora at import —
# cold generation measured 0.5 s (ProcessPool, resumable, no Ray needed) — so
# neither oracle_sql() nor any query ever pays or risks first-touch
# generation inside the driver's gate. Failure here must never break import:
# every query re-ensures its own corpus.
# RAY-WORKER GUARD (round 4): if a worker ever imports this module (e.g. a
# closure pickled by reference to an __ray_entry__ global), this block would
# run there and flip the `current` symlink to sf0.01 MID-QUERY, silently
# desyncing the oracle from the query corpus. Import side effects stay
# driver-only.
if "default_worker.py" not in (sys.argv[0] if sys.argv else ""):
    try:
        _ensure_current_corpus("/root/testdata/sf0.001")
        _ensure_current_corpus("/root/testdata/sf0.01")
    except Exception:           # pragma: no cover - disk-full etc.
        pass


def entry() -> Any:
    """Flagship: full constraint validation of the deterministic transcript
    corpus at tiny scale; returns the violation rows (stable schema)."""
    from jsonschema_validator_ray.pipelines import validate

    gen, spec = _transcripts_for("/root/testdata/sf0.001")
    res = validate(gen.out_dir, spec=spec)
    return res.violations.sort_by([
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("constraint_id", "ascending")])


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def q_transcript_validate(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.pipelines import validate

    gen, spec = _ensure_current_corpus(sf_dir)
    res = validate(gen.out_dir, spec=spec)
    return res.violations.sort_by([
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("constraint_id", "ascending")])


def q_transcript_verdict(sf_dir: str) -> pa.Table:
    """Fail-fast verdict mode (the reference's founding ``is_valid`` design,
    /root/reference/README.md:18-26): per-batch early-exit kernels, no row
    violations materialized — only the run verdict + row count."""
    import json as _json

    from jsonschema_validator_ray.pipelines import validate

    gen, spec = _ensure_current_corpus(sf_dir)
    spec_nd = _json.loads(_json.dumps(spec))
    spec_nd.get("table", {}).pop("drift", None)   # drift isn't SQL-expressible
    res = validate(gen.out_dir, spec=spec_nd, mode="verdict", sketch=False)
    return pa.table({
        "passed": pa.array([res.passed]),
        "n_rows": pa.array([res.metrics["n_rows"]], pa.int64()),
    })


def q_check_constraint_transcripts(sf_dir: str) -> pa.Table:
    """Cross-column table CHECK constraints (``constraints/kernels.py``
    kind ``check`` — the SQL CHECK-constraint analog Draft4 lacks): a
    guarded implication (user turns must not carry a tool call — fires on
    the corpus's planted noise rows) and an unguarded comparison
    (turn_idx below the hot-conversation cap — fires inside every hot
    conversation), evaluated in the same fused kernel pass as every other
    row constraint, with SQL CHECK null semantics (UNKNOWN passes).
    Oracle replays both predicates row-for-row."""
    from jsonschema_validator_ray.pipelines import validate

    gen, _ = _ensure_current_corpus(sf_dir)
    spec2 = {
        "version": 1, "columns": {},
        "keys": {"id": "conv_id", "order": "turn_idx"},
        "table": {"checks": [
            {"name": "user_turns_carry_no_tool",
             "when": {"column": "role", "equals": "user"},
             "assert": {"column": "tool", "op": "null"}},
            {"name": "turn_idx_under_hot_cap",
             "assert": {"column": "turn_idx", "op": "lt", "value": 8000}},
        ]},
    }
    res = validate(gen.out_dir, spec=spec2, sketch=False)
    return res.violations.sort_by([
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("constraint_id", "ascending")])


def q_random_projection_embeddings(sf_dir: str) -> pa.Table:
    """Johnson–Lindenstrauss random projection
    (``ops.embed.random_projection``): every 64-dim embedding reduced onto
    4 deterministic sparse {-1,0,+1} directions (Achlioptas construction,
    ``jl_matrix``) — the pre-index / LSH-input dimensionality-reduction
    step. Engine and oracle inline the SAME matrix; float64 dot products
    round to 6 dp on both sides (≤64-term sums, summation-order-safe)."""
    from jsonschema_validator_ray.ops.embed import random_projection

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = _collect(random_projection(ds, "embedding", "vec_id",
                                     in_dims=64, out_dims=4))
    cols = {"vec_id": out["vec_id"].cast(pa.int64())}
    for j in range(4):
        cols[f"y{j}_r6"] = pc.round(out[f"y{j}"], 6)
    return pa.table(cols).sort_by([("vec_id", "ascending")])


def q_weighted_avg_lineitem(sf_dir: str) -> pa.Table:
    """Per-group WEIGHTED mean (quantity-weighted unit price per return
    flag) with bit-exact float parity: both weight sums and
    weight×price-cents sums fold as int64 (cents = floor(p·100 + 0.5),
    the pricing_summary idiom — no float-sum-order hazard), and the
    weighted average is ONE IEEE division of the exact integers, identical
    to the SQL replay bitwise. The pattern for any token-weighted /
    duration-weighted corpus metric."""
    def partial(batch: pa.Table) -> pa.Table:
        ok = pc.and_kleene(
            pc.and_kleene(pc.is_valid(batch["l_returnflag"]),
                          pc.is_valid(batch["l_quantity"])),
            pc.is_valid(batch["l_extendedprice"])).fill_null(False)
        sel = batch.filter(ok)
        qty = sel["l_quantity"].cast(pa.int64())
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            sel["l_extendedprice"].cast(pa.float64()),
            pa.scalar(100.0)), pa.scalar(0.5))), pa.int64())
        t = pa.table({"flag": sel["l_returnflag"], "w": qty,
                      "wx": pc.multiply(qty, cents)})
        return pa.TableGroupBy(t, "flag").aggregate(
            [("w", "sum"), ("wx", "sum")]) \
            .rename_columns(["flag", "w", "wx"])

    from jsonschema_validator_ray.rayutil import fold_partials
    folded = fold_partials(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["flag"], ["w", "wx"])
    folded = folded.sort_by([("flag", "ascending")])
    w = folded["w"].cast(pa.float64()).to_numpy(zero_copy_only=False)
    wx = folded["wx"].cast(pa.float64()).to_numpy(zero_copy_only=False)
    return pa.table({
        "l_returnflag": folded["flag"],
        "sum_qty": folded["w"].cast(pa.int64()),
        "sum_qty_cents": folded["wx"].cast(pa.int64()),
        "weighted_avg_cents": pa.array(wx / w, pa.float64()),
    })


def q_violations_by_constraint_transcripts(sf_dir: str) -> pa.Table:
    """The run REPORT surface: per-constraint violation counts as emitted
    in the pipeline's own ``metrics["violations_by_constraint"]`` (the
    summary every manifest carries) — oracled by GROUP BY over the same
    UNION-of-SELECTs violation SQL as the flagship, so the gate proves the
    metrics rollup agrees with the row-level truth."""
    from jsonschema_validator_ray.pipelines import validate

    gen, spec = _ensure_current_corpus(sf_dir)
    res = validate(gen.out_dir, spec=spec)
    d = res.metrics["violations_by_constraint"]
    ks = sorted(d)
    return pa.table({
        "constraint_id": pa.array(ks, pa.string()),
        "n": pa.array([int(d[k]) for k in ks], pa.int64()),
    })


def q_conv_stats(sf_dir: str) -> pa.Table:
    """Per-conversation analytics over the transcript corpus (the same table
    the flagship validates): turn count, tool-call count, total text chars —
    ONE hash-bucket groupby, vectorized in-group pyarrow aggregation."""
    import ray.data

    from jsonschema_validator_ray.rayutil import ensure_worker_importable
    ensure_worker_importable()

    gen, spec = _ensure_current_corpus(sf_dir)
    from jsonschema_validator_ray.rayutil import clean_read_schema
    ds = ray.data.read_parquet(
        gen.files, columns=["conv_id", "tool", "text"],
        schema=clean_read_schema(gen.files[0],
                                 ["conv_id", "tool", "text"]))

    from jsonschema_validator_ray.rayutil import bucket_groups

    def agg_bucket(group: pa.Table) -> pa.Table:
        t = pa.table({
            "conv_id": group["conv_id"],
            "one": pa.array(np.ones(group.num_rows, np.int64)),
            "tool_call": pc.cast(pc.is_valid(group["tool"]), pa.int64()),
            "chars": pc.fill_null(pc.utf8_length(group["text"]), 0)
            .cast(pa.int64()),
        })
        g = pa.TableGroupBy(t, "conv_id").aggregate(
            [("one", "sum"), ("tool_call", "sum"), ("chars", "sum")])
        return pa.table({
            "conv_id": g["conv_id"],
            "n_turns": g["one_sum"].cast(pa.int64()),
            "n_tool_calls": g["tool_call_sum"].cast(pa.int64()),
            "sum_chars": g["chars_sum"].cast(pa.int64()),
        })

    out = _collect(bucket_groups(ds, "conv_id", agg_bucket))
    # rows with null conv_id keep their own SQL GROUP BY group (none in the
    # corpus, but semantics must match the oracle)
    return pa.table({
        "conv_id": out["conv_id"],
        "n_turns": out["n_turns"].cast(pa.int64()),
        "n_tool_calls": out["n_tool_calls"].cast(pa.int64()),
        "sum_chars": out["sum_chars"].cast(pa.int64()),
    }).sort_by("conv_id")


def q_profile_events(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.aggregates import profile_columns

    ds = _read(sf_dir, "events", ["event_id", "event_type", "props", "ts"])
    t = profile_columns(ds, null_cols=["props"], distinct_cols=["event_type"],
                        ts_cols=["ts"])
    return t.select(["n_rows", "n_null_props", "n_distinct_event_type",
                     "min_ts", "max_ts"])


def q_enum_check_events(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.aggregates import value_counts

    ds = _read(sf_dir, "events", ["event_type"])
    return value_counts(ds, "event_type", flag_set=EVENT_TYPES)


def q_ref_check_lineitem(sf_dir: str) -> pa.Table:
    """Broadcast anti-join: lineitem.l_partkey ∈ part dictionary."""
    import ray

    part_keys = _collect(_read(sf_dir, "part", ["p_partkey"]))["p_partkey"]
    # broadcast the Arrow array itself: ray.get on workers is zero-copy from
    # the local object store — never rebuilt per batch
    keys_ref = ray.put(part_keys.combine_chunks().cast(pa.int64()))

    def partial(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        ok = pc.is_in(batch["l_partkey"], value_set=keys)
        return pa.table({
            "n": pa.array([batch.num_rows], pa.int64()),
            "dangling": pa.array(
                [batch.num_rows - pc.sum(pc.cast(ok, pa.int64())).as_py()],
                pa.int64()),
        })

    parts = _collect(_read(sf_dir, "lineitem", ["l_partkey"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    return pa.table({
        "n_total": pa.array([pc.sum(parts["n"]).as_py()], pa.int64()),
        "n_dangling": pa.array([pc.sum(parts["dangling"]).as_py()], pa.int64()),
    })


def q_unique_check_events(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.aggregates import grouped_aggregate

    # _read already supplies a metadata-free schema, so count() stays a
    # parquet-metadata-only answer (a strip_meta map here would force a
    # full scan just to count rows)
    ds = _read(sf_dir, "events", ["event_id"])
    n_rows = ds.count()
    n_distinct = grouped_aggregate(ds, ["event_id"], []).count()
    return pa.table({"n_rows": pa.array([n_rows], pa.int64()),
                     "n_distinct": pa.array([n_distinct], pa.int64())})


def q_mono_check_events(sf_dir: str) -> pa.Table:
    """Per-user ts regressions in event_id order (mono check on a generic
    table: group=user_id, order=event_id). ONE hash-bucket groupby — whole
    users per bucket — with a vectorized in-group lag check and per-user
    count (zeros included); nothing but the result reaches the driver."""

    from jsonschema_validator_ray.rayutil import bucket_groups

    def check_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by([("user_id", "ascending"),
                             ("event_id", "ascending")])
        u = srt["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        ts = srt["ts"].combine_chunks().cast(pa.int64(), safe=False) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(u)
        if n == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_regressions": pa.array([], pa.int64())})
        same = u[1:] == u[:-1]
        reg = np.zeros(n, bool)
        # SQL-lag semantics: compare each row's ts to the previous row of
        # the same user; NaN (null ts) comparisons are False
        reg[1:] = same & (ts[1:] < ts[:-1])
        users, starts = np.unique(u, return_index=True)
        counts = np.add.reduceat(reg.astype(np.int64), starts)
        return pa.table({"user_id": pa.array(users, pa.int64()),
                         "n_regressions": pa.array(counts, pa.int64())})

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    out = _collect(bucket_groups(ds, "user_id", check_bucket))
    return pa.table({
        "user_id": out["user_id"].cast(pa.int64()),
        "n_regressions": out["n_regressions"].cast(pa.int64()),
    }).sort_by("user_id")


def q_struct_check_events(sf_dir: str) -> pa.Table:
    """Nested-payload validation: the `props` JSON column's `k` field gets
    type/required/range sub-constraints (table-scale analog of the
    reference's recursive `properties` keyword,
    /root/reference/src/keywords/properties_.rs:65-94)."""
    from jsonschema_validator_ray.constraints.ir import compile_constraints
    from jsonschema_validator_ray.constraints.kernels import make_row_validator

    spec = {
        "columns": {"props": {"type": ["string", "null"], "json": True,
                              "properties": {"k": {"type": "integer",
                                                   "required": True,
                                                   "min": 0, "max": 49}}}},
        "keys": {"id": "event_id", "order": None},
    }
    ir = compile_constraints(spec)
    validator = make_row_validator(ir)
    ds = _read(sf_dir, "events", ["event_id", "props"])
    out = _collect(ds.map_batches(validator, batch_format="pyarrow",
                                  zero_copy_batch=True))
    return pa.table({
        "event_id": pc.cast(out["conv_id"], pa.int64()),
        "constraint_id": out["constraint_id"],
        "message": out["message"],
    }).sort_by([("event_id", "ascending"), ("constraint_id", "ascending")])


def q_pricing_summary_lineitem(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shaped grouped aggregate with EXACT integer-cent sums."""
    cutoff = pa.scalar(np.datetime64("1998-09-02T00:00:00", "us"),
                       pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.less_equal(batch["l_shipdate"], cutoff))
        qty = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        price_c = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                          pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)),
                         pa.int64())
        disc_price = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()),
                                                      disc_c))
        t = pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "qty": qty, "price_c": price_c, "disc_price": disc_price,
        })
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price_c", "sum"), ("disc_price", "sum"),
             ("qty", "count")])
        return g

    parts = _collect(_read(sf_dir, "lineitem",
                           ["l_returnflag", "l_linestatus", "l_quantity",
                            "l_extendedprice", "l_discount", "l_shipdate"])
                     .map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True))
    final = pa.TableGroupBy(parts, ["l_returnflag", "l_linestatus"]).aggregate(
        [("qty_sum", "sum"), ("price_c_sum", "sum"), ("disc_price_sum", "sum"),
         ("qty_count", "sum")])
    return pa.table({
        "l_returnflag": final["l_returnflag"],
        "l_linestatus": final["l_linestatus"],
        "sum_qty": final["qty_sum_sum"].cast(pa.int64()),
        "sum_base_price_cents": final["price_c_sum_sum"].cast(pa.int64()),
        "sum_disc_price_e4": final["disc_price_sum_sum"].cast(pa.int64()),
        "count_order": final["qty_count_sum"].cast(pa.int64()),
    }).sort_by([("l_returnflag", "ascending"), ("l_linestatus", "ascending")])


def q_shipping_priority(sf_dir: str) -> pa.Table:
    """TPC-H Q3-shaped LARGE-LARGE join: orders ⨝ lineitem via a reduce-side
    hash join (one bucket shuffle, in-bucket pyarrow join + aggregation +
    local top-k), customer side broadcast-filtered. Revenue in exact integer
    e4 units so the value-hash can't drift."""
    import ray

    from jsonschema_validator_ray.ops.join import reduce_side_hash_join

    cutoff = pa.scalar(np.datetime64("1995-03-15T00:00:00", "us"),
                       pa.timestamp("us"))
    cust = _collect(_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    keys = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))
    keys_ref = ray.put(keys["c_custkey"].combine_chunks().cast(pa.int64()))

    def orders_filter(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.less(batch["o_orderdate"], cutoff),
                    pc.is_in(batch["o_custkey"], value_set=ray.get(keys_ref)))
        return batch.filter(m).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
            .rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"])

    def lineitem_filter(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        price_c = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                          pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)),
                         pa.int64())
        rev = pc.multiply(price_c,
                          pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.table({"l_orderkey": b["l_orderkey"], "rev_e4": rev})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"]) \
        .map_batches(orders_filter, batch_format="pyarrow",
                     zero_copy_batch=True)
    lineitem = _read(sf_dir, "lineitem",
                     ["l_orderkey", "l_extendedprice", "l_discount",
                      "l_shipdate"]) \
        .map_batches(lineitem_filter, batch_format="pyarrow",
                     zero_copy_batch=True)

    def agg_topk(joined: pa.Table) -> pa.Table:
        # the join key never spans buckets: this aggregation is FINAL, and
        # only the bucket's top-10 rows leave the shuffle
        g = pa.TableGroupBy(joined, ["l_orderkey", "o_orderdate",
                                     "o_orderpriority"]) \
            .aggregate([("rev_e4", "sum")])
        g = g.sort_by([("rev_e4_sum", "descending"),
                       ("o_orderdate", "ascending"),
                       ("l_orderkey", "ascending")]).slice(0, 10)
        return g

    out = _collect(reduce_side_hash_join(
        orders, lineitem, "l_orderkey", group_fn=agg_topk,
        # explicit schemas: a probe on these mapped sides would execute a
        # limit-1 plan whose task-cancellation races Ray core (the gate
        # crash site — review r4 batch 3)
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us")),
                               ("o_orderpriority", pa.string())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("rev_e4", pa.int64())])))
    out = out.sort_by([("rev_e4_sum", "descending"),
                       ("o_orderdate", "ascending"),
                       ("l_orderkey", "ascending")]).slice(0, 10)
    return pa.table({
        "l_orderkey": out["l_orderkey"].cast(pa.int64()),
        "revenue_e4": out["rev_e4_sum"].cast(pa.int64()),
        "o_orderdate": out["o_orderdate"],
        "o_orderpriority": out["o_orderpriority"],
    })


def q_running_total_orders(sf_dir: str) -> pa.Table:
    """Running per-customer spend (window cumulative sum) via ONE hash-bucket
    groupby: whole customers per bucket, vectorized in-group cumsum."""

    from jsonschema_validator_ray.rayutil import bucket_groups

    def cum_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by([("o_custkey", "ascending"),
                             ("o_orderdate", "ascending"),
                             ("o_orderkey", "ascending")])
        cust = srt["o_custkey"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(
            srt["o_totalprice"], 100.0)), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        run = np.cumsum(cents)
        starts = np.flatnonzero(np.concatenate(
            [[True], cust[1:] != cust[:-1]]))
        # reset the running sum at each customer boundary
        base = np.zeros(len(cust), np.int64)
        base[starts[1:]] = run[starts[1:] - 1]
        run = run - np.maximum.accumulate(base)
        return pa.table({
            "o_custkey": srt["o_custkey"],
            "o_orderkey": srt["o_orderkey"],
            "running_spend_cents": pa.array(run, pa.int64()),
        })

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])
    out = _collect(bucket_groups(ds, "o_custkey", cum_bucket))
    return pa.table({
        "o_custkey": out["o_custkey"].cast(pa.int64()),
        "o_orderkey": out["o_orderkey"].cast(pa.int64()),
        "running_spend_cents": out["running_spend_cents"].cast(pa.int64()),
    }).sort_by([("o_custkey", "ascending"), ("o_orderkey", "ascending")])


def q_top_words_documents(sf_dir: str) -> pa.Table:
    """Corpus-wide word frequency top-20: per-batch local counts (explode +
    pyarrow groupby), one small distributed sum, deterministic tiebreak."""
    def partial(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.split_pattern(batch["text"], " "))
        t = pa.table({"word": words})
        g = pa.TableGroupBy(t, "word").aggregate([("word", "count")])
        return pa.table({"word": g["word"],
                         "n": g["word_count"].cast(pa.int64())})

    parts = _collect(_read(sf_dir, "documents", ["text"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    final = pa.TableGroupBy(parts, "word").aggregate([("n", "sum")])
    final = final.sort_by([("n_sum", "descending"), ("word", "ascending")])
    top = final.slice(0, 20)
    return pa.table({"word": top["word"],
                     "n": top["n_sum"].cast(pa.int64())})


def q_revenue_forecast(sf_dir: str) -> pa.Table:
    """TPC-H Q6 shape with PUSHDOWN: the row predicate is handed to
    read_parquet itself (row-group pruning + exact row filtering at the
    scan), so only qualifying rows ever enter the object store. Revenue in
    exact integer e4 units."""
    import pyarrow.dataset as pads

    from jsonschema_validator_ray.rayutil import ensure_worker_importable
    ensure_worker_importable()

    lo = np.datetime64("1996-01-01T00:00:00", "us")
    hi = np.datetime64("1997-01-01T00:00:00", "us")
    expr = ((pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi)
            & (pads.field("l_discount") >= 0.05)
            & (pads.field("l_discount") <= 0.07)
            & (pads.field("l_quantity") < 24))
    # predicate columns ride in the read schema and are dropped in the
    # partial (filter= needs them; _read strips footer metadata)
    ds = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_shipdate", "l_quantity"],
               filter=expr)

    def partial(batch: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"],
                                               100.0)), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)),
                         pa.int64())
        rev = pc.sum(pc.multiply(price_c, disc_c)).as_py() or 0
        return pa.table({"rev": pa.array([rev], pa.int64()),
                         "n": pa.array([batch.num_rows], pa.int64())})

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True))
    if parts is None or "rev" not in parts.column_names:
        return pa.table({"revenue_e4": pa.array([0], pa.int64()),
                         "n_rows": pa.array([0], pa.int64())})
    return pa.table({
        "revenue_e4": pa.array([pc.sum(parts["rev"]).as_py() or 0], pa.int64()),
        "n_rows": pa.array([pc.sum(parts["n"]).as_py() or 0], pa.int64()),
    })


def q_normalized_dedup_documents(sf_dir: str) -> pa.Table:
    """Operator composition: text canonicalization (lowercase + collapse
    whitespace) THEN exact dedup — the canonical normalize→dedup step of a
    training-data pipeline, all streaming."""
    from jsonschema_validator_ray.ops.dedup import exact_dedup_keepers

    def normalize(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch["text"])
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({"doc_id": batch["doc_id"], "text": t})

    ds = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(normalize, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(exact_dedup_keepers(ds, "doc_id", "text"))
    return pa.table({
        "keeper_id": out["keeper_id"].cast(pa.int64()),
        "n_copies": out["n_copies"].cast(pa.int64()),
    }).sort_by("keeper_id")


def q_topk_orders(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.aggregates import top_k

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    t = top_k(ds, "o_totalprice", 10, descending=True, tiebreak="o_orderkey")
    return t.select(["o_orderkey", "o_totalprice"])


def q_exact_dedup_documents(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.dedup import exact_dedup_keepers

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(exact_dedup_keepers(ds, "doc_id", "text"))
    return pa.table({
        "keeper_id": out["keeper_id"].cast(pa.int64()),
        "n_copies": out["n_copies"].cast(pa.int64()),
    }).sort_by("keeper_id")


def q_token_count_documents(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.text import add_token_count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(add_token_count(ds))
    return pa.table({
        "doc_id": out["doc_id"],
        "n_chars_calc": pc.utf8_length(out["text"]).cast(pa.int64()),
        "n_tokens": out["n_tokens"],
    }).sort_by("doc_id")


def q_bpe_token_count_documents(sf_dir: str) -> pa.Table:
    """BPE-ish pre-tokenizer token count (``\\w+|[^\\w\\s]`` word/punct
    split) — vectorized Arrow RE2 `count_substring_regex`, the same regex
    engine family as DuckDB's `regexp_extract_all`, so counts are
    oracle-exact."""
    from jsonschema_validator_ray.ops.text import add_bpeish_token_count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(add_bpeish_token_count(ds))
    return pa.table({
        "doc_id": out["doc_id"],
        "n_bpe_tokens": out["n_bpe_tokens"],
    }).sort_by("doc_id")


def q_lang_stats_documents(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.aggregates import grouped_aggregate

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    out = _collect(grouped_aggregate(ds, ["lang"], [
        ("n_chars", "count", "n_docs"), ("n_chars", "sum", "sum_chars")]))
    return pa.table({
        "lang": out["lang"],
        "n_docs": out["n_docs"].cast(pa.int64()),
        "sum_chars": out["sum_chars"].cast(pa.int64()),
    }).sort_by("lang")


def q_events_per_day(sf_dir: str) -> pa.Table:
    def partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch["ts"], unit="day")
        t = pa.table({"day": day, "one": pa.array([1] * batch.num_rows,
                                                  pa.int64())})
        g = pa.TableGroupBy(t, "day").aggregate([("one", "sum")])
        return g

    parts = _collect(_read(sf_dir, "events", ["ts"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    final = pa.TableGroupBy(parts, "day").aggregate([("one_sum", "sum")])
    return pa.table({"day": final["day"],
                     "n": final["one_sum_sum"].cast(pa.int64())}).sort_by("day")


def q_simsearch_top5(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.simsearch import brute_force_topk

    emb = _collect(_read(sf_dir, "embeddings", ["vec_id", "embedding"]).limit(1))
    query = np.asarray(emb["embedding"].to_pylist()[0], np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    t = brute_force_topk(ds, query, "vec_id", "embedding", k=5,
                         exclude_ids=[0])
    return pa.table({
        "vec_id": t["vec_id"],
        "cos": pc.round(t["cos"], ndigits=4),
    }).sort_by([("cos", "descending"), ("vec_id", "ascending")])


def q_simsearch_multi(sf_dir: str) -> pa.Table:
    """Batched similarity search: top-3 cosine neighbors for FIVE query
    vectors in one pass (the query matrix broadcasts once; each batch does
    one matmul and emits 3 rows per query)."""
    from jsonschema_validator_ray.ops.simsearch import brute_force_topk

    q_ids = [0, 1, 2, 3, 4]
    qset = pa.array(q_ids, pa.int64())
    emb = _collect(_read(sf_dir, "embeddings", ["vec_id", "embedding"])
                   .map_batches(lambda b: b.filter(
                       pc.is_in(b["vec_id"], value_set=qset)),
                       batch_format="pyarrow", zero_copy_batch=True))
    emb = emb.sort_by("vec_id")
    queries_mat = np.asarray(emb["embedding"].to_pylist(), np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    t = brute_force_topk(ds, queries_mat, "vec_id", "embedding", k=3,
                         exclude_ids=q_ids)
    return pa.table({
        "query_id": t["query_idx"].cast(pa.int64()),
        "vec_id": t["vec_id"],
        "cos": pc.round(t["cos"], ndigits=4),
    }).sort_by([("query_id", "ascending"), ("cos", "descending"),
                ("vec_id", "ascending")])


def q_sessionize_events(sf_dir: str) -> pa.Table:
    """Gap-based session windows (30 min) per user — the batch form of a
    streaming session window."""
    from jsonschema_validator_ray.ops.aggregates import sessionize_counts

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    return sessionize_counts(ds, "user_id", "ts", "event_id")


def q_ngram_jaccard_neardup(sf_dir: str) -> pa.Table:
    """Exact word-trigram Jaccard near-dup via a distributed set-similarity
    join (gram co-occurrence groupby) — the SQL-checkable member of the
    near-dup family."""
    from jsonschema_validator_ray.ops.dedup import ngram_jaccard_near_duplicates

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    t = ngram_jaccard_near_duplicates(ds, "doc_id", "text", n=3,
                                      threshold=0.5,
                                      n_docs=_nrows(sf_dir, "documents"))
    return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                     "jaccard": pc.round(t["jaccard"], ndigits=4)})


def q_neardup_components_documents(sf_dir: str) -> pa.Table:
    """Near-dup CLUSTERING — the step a 100-TB dedup pipeline runs after
    pair generation: exact word-trigram Jaccard pairs (the oracle-checked
    ngram path) → distributed min-label connected components → one
    (doc_id, component, keep) decision row per graph node, keeper = min id
    of the component. Oracle: the same pair SQL + a recursive transitive
    closure (exact at gate scale)."""
    from jsonschema_validator_ray.ops.dedup import (
        connected_components, ngram_jaccard_near_duplicates)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_near_duplicates(ds, "doc_id", "text", n=3,
                                          threshold=0.5,
                                          n_docs=_nrows(sf_dir, "documents"))
    cc = connected_components(pairs)
    return pa.table({
        "doc_id": cc["node"],
        "component": cc["component"],
        "keep": pc.equal(cc["node"], cc["component"]),
    })


def q_decontaminate_documents(sf_dir: str) -> pa.Table:
    """Benchmark DECONTAMINATION: docs 0-4 stand in for an eval benchmark;
    every other doc is flagged when it shares ≥5 distinct word trigrams with
    the benchmark's trigram set (broadcast once, streamed membership count —
    no shuffle). The standard training-data leakage guard, SQL-exact."""
    from jsonschema_validator_ray.ops.dedup import (_wordgram_hashes,
                                                    ngram_contamination)

    bench_tbl = _collect(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            lambda b: b.filter(pc.less(b["doc_id"], 5)),
            batch_format="pyarrow", zero_copy_batch=True))
    bench = np.unique(np.concatenate(
        [_wordgram_hashes(t or "", 3)
         for t in bench_tbl["text"].to_pylist()] or
        [np.zeros(0, np.uint64)]))

    def train_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["doc_id"], 5))

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        train_only, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(ngram_contamination(ds, "doc_id", "text", bench,
                                       n=3, threshold=5))
    return pa.table({
        "doc_id": out["doc_id"].cast(pa.int64()),
        "n_grams": out["n_grams"].cast(pa.int64()),
        "n_overlap": out["n_overlap"].cast(pa.int64()),
        "contaminated": out["contaminated"],
    }).sort_by("doc_id")


def q_stratified_sample_documents(sf_dir: str) -> pa.Table:
    """Per-group deterministic sampling (per-source caps in a training-data
    pipeline): each lang keeps its 20 docs with the smallest Knuth-hashed
    doc_id — ONE hash-bucket groupby, SQL-reproducible ranking."""
    from jsonschema_validator_ray.ops.sampling import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = _collect(stratified_sample(ds, "lang", "doc_id", k=20, seed=7))
    return pa.table({
        "lang": out["lang"],
        "doc_id": out["doc_id"].cast(pa.int64()),
        "rk": out["rk"].cast(pa.int64()),
    }).sort_by([("lang", "ascending"), ("doc_id", "ascending")])


def q_events_rollup(sf_dir: str) -> pa.Table:
    """Multi-level rollup (SQL GROUPING SETS): counts + exact integer-cent
    value sums per (event_type, day), per event_type, and grand total — ONE
    distributed partial-aggregate pass (per-batch pyarrow groupby over the
    finest level), super-levels derived EXACTLY from the finest level's
    merged result (classic rollup-from-cube shape; no second scan)."""
    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())
        t = pa.table({
            "event_type": batch["event_type"],
            "day": pc.floor_temporal(batch["ts"], unit="day"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "vc": vc,
        })
        return pa.TableGroupBy(t, ["event_type", "day"]).aggregate(
            [("one", "sum"), ("vc", "sum")])

    parts = _collect(_read(sf_dir, "events", ["event_type", "ts", "value"])
                     .map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True))
    fine = pa.TableGroupBy(parts, ["event_type", "day"]).aggregate(
        [("one_sum", "sum"), ("vc_sum", "sum")])
    ft, fd = fine["event_type"], fine["day"]
    fn_, fv = (fine["one_sum_sum"].cast(pa.int64()),
               fine["vc_sum_sum"].cast(pa.int64()))
    lvl1 = pa.table({"event_type": ft, "day": fd, "n": fn_,
                     "value_cents": fv})
    by_type = pa.TableGroupBy(
        pa.table({"event_type": ft, "n": fn_, "vc": fv}),
        "event_type").aggregate([("n", "sum"), ("vc", "sum")])
    lvl2 = pa.table({
        "event_type": by_type["event_type"],
        "day": pa.nulls(by_type.num_rows, fd.type),
        "n": by_type["n_sum"].cast(pa.int64()),
        "value_cents": by_type["vc_sum"].cast(pa.int64()),
    })
    lvl3 = pa.table({
        "event_type": pa.nulls(1, pa.string()),
        "day": pa.nulls(1, fd.type),
        "n": pa.array([pc.sum(fn_).as_py() or 0], pa.int64()),
        "value_cents": pa.array([pc.sum(fv).as_py()], pa.int64()),
    })
    return pa.concat_tables([lvl1, lvl2, lvl3]).sort_by(
        [("event_type", "ascending"), ("day", "ascending")])


def q_viewers_without_purchase(sf_dir: str) -> pa.Table:
    """Set-op family (EXCEPT): users with ≥1 'view' event and NO 'purchase'
    event — one grouped aggregate with boolean-max partials."""
    from jsonschema_validator_ray.ops.aggregates import grouped_aggregate

    def flags(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "is_view": pc.cast(pc.equal(batch["event_type"], "view"),
                               pa.int64()),
            "is_purchase": pc.cast(pc.equal(batch["event_type"], "purchase"),
                                   pa.int64()),
        })

    ds = _read(sf_dir, "events", ["user_id", "event_type"]) \
        .map_batches(flags, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_aggregate(ds, ["user_id"], [
        ("is_view", "max", "v"), ("is_purchase", "max", "p")]))
    keep = pc.and_(pc.equal(out["v"], 1), pc.equal(out["p"], 0))
    return pa.table({"user_id": out["user_id"].filter(keep).cast(pa.int64())}
                    ).sort_by("user_id")


def q_sample_events(sf_dir: str) -> pa.Table:
    """Deterministic 10% hash sample (Knuth multiplicative hash on event_id):
    resumable / re-run-stable sampling whose predicate is plain SQL."""
    from jsonschema_validator_ray.ops.sampling import hash_sample

    ds = _read(sf_dir, "events", ["event_id", "user_id"])
    out = _collect(hash_sample(ds, "event_id", 0.1, seed=7))
    return out.sort_by("event_id")


def q_sliding_window_events(sf_dir: str) -> pa.Table:
    """Sliding 1-hour count per user (batch form of a streaming sliding
    window): ONE hash-bucket groupby, vectorized in-group two-sided
    searchsorted — RANGE-frame semantics (peers of the current ts count)."""

    HOUR_US = 3_600_000_000

    from jsonschema_validator_ray.rayutil import bucket_groups

    def window_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                             ("event_id", "ascending")])
        u = srt["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        ts = srt["ts"].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n = len(u)
        out = np.zeros(n, np.int64)
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        ends = np.concatenate([starts[1:], [n]])
        for s, e in zip(starts, ends):
            seg = ts[s:e]
            hi = np.searchsorted(seg, seg, side="right")
            lo = np.searchsorted(seg, seg - HOUR_US, side="left")
            out[s:e] = hi - lo
        return pa.table({
            "event_id": srt["event_id"],
            "n_events_last_hour": pa.array(out, pa.int64()),
        })

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    out = _collect(bucket_groups(ds, "user_id", window_bucket))
    return pa.table({
        "event_id": out["event_id"].cast(pa.int64()),
        "n_events_last_hour": out["n_events_last_hour"].cast(pa.int64()),
    }).sort_by("event_id")


def q_quality_documents(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.text import add_quality_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(add_quality_score(ds))
    return out.select(["doc_id", "n_chars_calc", "punct_ratio",
                       "mean_word_len"]).sort_by("doc_id")


# --- rows-only (non-SQL-expressible) --------------------------------------

def q_hll_distinct_events(sf_dir: str) -> pa.Table:
    """Approximate distinct users via mergeable HLL sketches, SELF-ORACLED
    (VERDICT r3 #6): the sketch value itself is not SQL-derivable, so the
    gate row emits (n_exact, within_bound) — ``n_exact`` from an exact
    distributed distinct pass (per-batch unique → driver union, bounded by
    user cardinality) matches the SQL ``count(DISTINCT user_id)`` exactly,
    and ``within_bound`` is the Ray-side verification that the HLL estimate
    (p=12, σ≈1.6%) lands within ±2% of it — the former pytest-only accuracy
    check, now a gate row (oracle emits TRUE)."""
    from jsonschema_validator_ray.state.hll import HyperLogLog, hash64

    def partial(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(12)
        h.update_hashes(hash64(batch["user_id"]))  # Arrow → polars, zero-copy
        u = np.unique(batch["user_id"].combine_chunks()
                      .to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"registers": pa.array([h.to_bytes()], pa.binary()),
                         "uniq": pa.array([u.tobytes()], pa.binary())})

    parts = _collect(_read(sf_dir, "events", ["user_id"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = HyperLogLog(12)
    for b in parts["registers"].to_pylist():
        merged.merge(HyperLogLog.from_bytes(b))
    n_exact = int(np.unique(np.frombuffer(
        b"".join(parts["uniq"].to_pylist()), np.int64)).size)
    approx = round(merged.cardinality())
    within = bool(abs(approx - n_exact) <= 0.02 * n_exact)
    return pa.table({"n_exact": pa.array([n_exact], pa.int64()),
                     "within_bound": pa.array([within], pa.bool_())})


def q_minhash_neardup_documents(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.dedup import minhash_near_duplicates

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_near_duplicates(ds, "doc_id", "text",
                                   verify_threshold=0.8)


def q_simhash_neardup_documents(sf_dir: str) -> pa.Table:
    from jsonschema_validator_ray.ops.dedup import simhash_near_duplicates

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_near_duplicates(ds, "doc_id", "text", max_hamming=8)


_LANGID_PLANTED = {
    # real sample sentences per supported language (+ zh → 'unknown': the
    # heuristic's four stopword tables are latin-script only by design)
    "en": "the cat was on the mat and it is that good for this day",
    "de": "der hund und die katze sind nicht mit dem mann zu hause",
    "fr": "le chien est dans la maison avec les enfants qui sont petits",
    "es": "el perro es una mascota que vive en la casa con los abuelos",
    "zh": "这 是 一个 中文 文本 例子 没有 拉丁 字母",
}
_LANGID_EXPECTED = {"en": "en", "de": "de", "fr": "fr", "es": "es",
                    "zh": "unknown"}


def q_langid_documents(sf_dir: str) -> pa.Table:
    """Language-ID actor stage over the documents table, SELF-ORACLED.

    The corpus's synthetic ``lang`` labels carry no real language signal
    (every text is the same English-ish word salad regardless of label), so
    prediction-vs-label accuracy is meaningless here. The gate instead
    checks (a) per-label doc counts flowing through the langid pipeline —
    genuinely SQL-derived — and (b) ``planted_ok``: a real sample sentence
    per language, routed through the SAME distributed stage, classifies as
    expected (zh → 'unknown', outside the supported stopword tables)."""
    import ray.data

    from jsonschema_validator_ray.ops.text import add_lang_id

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = _collect(add_lang_id(ds))
    counts = pa.TableGroupBy(out.select(["lang"]), "lang") \
        .aggregate([("lang", "count")])

    planted = pa.table({
        "lang": pa.array(list(_LANGID_PLANTED)),
        "text": pa.array(list(_LANGID_PLANTED.values())),
    })
    pred = _collect(add_lang_id(ray.data.from_arrow(planted)))
    ok = {lang: _LANGID_EXPECTED[lang] == p
          for lang, p in zip(pred["lang"].to_pylist(),
                             pred["lang_pred"].to_pylist())}
    return pa.table({
        "lang": counts["lang"],
        "n_docs": counts["lang_count"].cast(pa.int64()),
        "planted_ok": pa.array([ok[lg] for lg in counts["lang"].to_pylist()]),
    }).sort_by("lang")


def q_fingerprint_documents(sf_dir: str) -> pa.Table:
    """Rolling-hash fingerprints over the documents table, SELF-ORACLED:
    the hash values themselves are not SQL-derivable, so the gate checks
    the invariant SQL CAN state — identical texts must produce identical
    fingerprints — over the corpus's real duplicate groups: ``n_docs`` and
    ``n_dup_pairs`` are genuinely SQL-derived, ``dup_fp_equal`` is the
    Ray-side verification that every duplicate-text group maps to exactly
    one fingerprint."""
    from collections import defaultdict

    from jsonschema_validator_ray.ops.text import add_fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(add_fingerprint(ds))
    groups: dict = defaultdict(set)
    sizes: dict = defaultdict(int)
    for t, fp in zip(out["text"].to_pylist(),
                     out["fingerprint"].to_pylist()):
        groups[t].add(fp)
        sizes[t] += 1
    n_dup_pairs = sum(c * (c - 1) // 2 for c in sizes.values() if c > 1)
    dup_fp_equal = all(len(groups[t]) == 1
                       for t, c in sizes.items() if c > 1)
    return pa.table({
        "n_docs": pa.array([out.num_rows], pa.int64()),
        "n_dup_pairs": pa.array([n_dup_pairs], pa.int64()),
        "dup_fp_equal": pa.array([dup_fp_equal]),
    })


def q_ivf_search_embeddings(sf_dir: str) -> pa.Table:
    """IVF-bucketed ANN top-5, SELF-ORACLED (VERDICT r3 #6, langid-style
    invariant row): centroids are now a pure function of the corpus (the
    k-means sample is sorted by id — block-arrival order is not
    deterministic), so the engine can state verifiable invariants. The row
    emits ``n_results`` (exactly k — SQL-derivable) and ``recall_floor_ok``:
    the IVF result's recall against the engine's own EXACT brute-force top-5
    (the oracle-checked ``simsearch_top5`` path) meets a ≥0.6 floor. On
    these near-random synthetic embeddings the deterministic recall at
    n_probe=8/16 is 0.8 (measured at sf0.001 and sf0.01) — honest
    approximate search, so the gate checks the floor, not equality; full
    recall curves are pinned in tests."""
    from jsonschema_validator_ray.ops.simsearch import brute_force_topk, ivf_topk

    base = _read_staged(sf_dir, "embeddings", ["vec_id", "embedding"])
    emb = _collect(base.limit(1))
    query = np.asarray(emb["embedding"].to_pylist()[0], np.float64)
    k = 5
    t = ivf_topk(base, query, "vec_id", "embedding", k=k, n_centroids=16,
                 n_probe=8, exclude_ids=[0])
    exact = brute_force_topk(base, query, "vec_id", "embedding", k=k,
                             exclude_ids=[0])
    ivf_ids = set(t["vec_id"].to_pylist())
    exact_ids = set(exact["vec_id"].to_pylist())
    recall = len(ivf_ids & exact_ids) / k
    return pa.table({
        "n_results": pa.array([t.num_rows], pa.int64()),
        "recall_floor_ok": pa.array([recall >= 0.6], pa.bool_()),
    })


def q_embedding_neardup(sf_dir: str) -> pa.Table:
    """EXACT blocked all-pairs cosine near-dup (distributed block matmuls;
    oracle-checked). The approximate at-scale path is embedding_neardup_ivf."""
    from jsonschema_validator_ray.ops.dedup import embedding_near_duplicates

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    t = embedding_near_duplicates(ds, "vec_id", "embedding", threshold=0.45,
                                  rows_per_block=512)
    return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                     "cos": pc.round(t["cos"], ndigits=4)})


def q_embedding_neardup_ivf(sf_dir: str) -> pa.Table:
    """IVF-bucketed approximate near-dup: compare only within (multi-probe)
    centroid buckets — the O(N²)-avoiding scale path."""
    from jsonschema_validator_ray.ops.dedup import embedding_neardup_ivf

    ds = _read_staged(sf_dir, "embeddings", ["vec_id", "embedding"])
    t = embedding_neardup_ivf(ds, "vec_id", "embedding", threshold=0.45,
                              n_centroids=8, n_assign=3)
    return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                     "cos": pc.round(t["cos"], ndigits=4)})


def q_percent_rank_events(sf_dir: str) -> pa.Table:
    """percent_rank of value within event_type for every event — one
    hash-bucket shuffle, vectorized in-bucket rank."""
    from jsonschema_validator_ray.ops.aggregates import grouped_percent_rank

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = _collect(grouped_percent_rank(ds, "event_type", "value",
                                        "event_id"))
    return pa.table({
        "event_id": out["event_id"].cast(pa.int64()),
        "event_type": out["event_type"],
        "prk_r6": pc.round(out["prk"], ndigits=6),
    }).sort_by("event_id")


def q_order_window_overlaps(sf_dir: str) -> pa.Table:
    """Interval-overlap aggregate join: per order, how many 7-day order
    windows of the SAME customer overlap it (self included) —
    ``ops.join.interval_overlap_join``: one shuffle, two compound
    searchsorted scans per bucket, |orders| rows out."""
    from jsonschema_validator_ray.ops.join import interval_overlap_join

    week_us = 7 * 86400 * 10**6

    def mk_windows(batch: pa.Table) -> pa.Table:
        d = batch["o_orderdate"].cast(pa.int64())
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_custkey": batch["o_custkey"],
            "w_start": d,
            "w_end": pc.add(d, pa.scalar(week_us, pa.int64()))})

    def windows():
        return _read(sf_dir, "orders",
                     ["o_orderkey", "o_custkey", "o_orderdate"]) \
            .map_batches(mk_windows, batch_format="pyarrow",
                         zero_copy_batch=True)

    out = _collect(interval_overlap_join(
        windows(), windows(), on="o_custkey",
        a_start="w_start", a_end="w_end",
        b_start="w_start", b_end="w_end",
        a_schema=pa.schema([("o_orderkey", pa.int64()),
                            ("o_custkey", pa.int64()),
                            ("w_start", pa.int64()),
                            ("w_end", pa.int64())])))
    return pa.table({
        "o_orderkey": out["o_orderkey"].cast(pa.int64()),
        "n_overlaps": out["n_overlaps"].cast(pa.int64()),
    }).sort_by("o_orderkey")


def q_table_diff_orders(sf_dir: str) -> pa.Table:
    """Distributed table DIFF (``ops.join.table_diff``) — the
    "did this migration change anything?" validation op: two deterministic
    variants of `orders` (left drops keys %97==0; right drops %89==0 and
    bumps price cents where %101==0) are diffed by primary key in ONE
    hash-bucket shuffle; only differing keys leave the workers. Oracled by
    a FULL OUTER JOIN with IS DISTINCT FROM column compares."""
    import numpy as np

    from jsonschema_validator_ray.ops.join import table_diff

    schema = pa.schema([("o_orderkey", pa.int64()),
                        ("o_custkey", pa.int64()),
                        ("cents", pa.int64())])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "o_custkey": batch["o_custkey"].cast(pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(
                batch["o_totalprice"], 100.0)), pa.int64()),
        }, schema=schema)

    def mk_left(batch: pa.Table) -> pa.Table:
        t = to_cents(batch)
        k = t["o_orderkey"].to_numpy()
        return t.filter(pa.array(k % 97 != 0))

    def mk_right(batch: pa.Table) -> pa.Table:
        t = to_cents(batch)
        k = t["o_orderkey"].to_numpy()
        t = t.filter(pa.array(k % 89 != 0))
        k = t["o_orderkey"].to_numpy()
        bump = np.where(k % 101 == 0, 12345, 0)
        return t.set_column(2, "cents", pa.array(
            t["cents"].to_numpy() + bump, pa.int64()))

    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    left = _read(sf_dir, "orders", cols).map_batches(
        mk_left, batch_format="pyarrow", zero_copy_batch=True)
    right = _read(sf_dir, "orders", cols).map_batches(
        mk_right, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(table_diff(left, right, "o_orderkey",
                              left_schema=schema))
    return out.sort_by([("o_orderkey", "ascending")])


def q_mixture_sample_documents(sf_dir: str) -> pa.Table:
    """Dataset-mixture resampling (``ops.sampling.mixture_sample``) — the
    LLM "data mixing" step: per-lang caps of min(available,
    floor(400·target_share)), deterministic smallest-Knuth-rank keepers.
    The de/es caps bind on availability at sf0.01 (70 < 80, 73 < 80),
    exercising the capping branch. Oracle replays the identical rank +
    LEAST(count, floor) caps in SQL."""
    from jsonschema_validator_ray.ops.sampling import mixture_sample

    out = _collect(mixture_sample(
        lambda: _read(sf_dir, "documents", ["doc_id", "lang"]),
        "lang", "doc_id",
        {"en": 0.4, "de": 0.2, "es": 0.2, "fr": 0.1, "zh": 0.1},
        total=400, seed=7))
    return pa.table({
        "lang": out["lang"],
        "doc_id": out["doc_id"].cast(pa.int64()),
        "rk": out["rk"],
    }).sort_by([("lang", "ascending"), ("doc_id", "ascending")])


# hash_split gate config: shared by the query and the oracle so the CASE
# thresholds are the EXACT integers the engine compares against
_SPLITS = [("train", 0.8), ("val", 0.1), ("test", 0.1)]
_SPLIT_SEED = 7


def q_split_assign_documents(sf_dir: str) -> pa.Table:
    """Deterministic train/val/test assignment (``ops.sampling.hash_split``)
    — the canonical dataset-split step: every doc gets a stable split label
    from its Knuth-hashed doc_id (no leakage across runs/datasets sharing
    the seed). One streaming map_batches pass, no shuffle. Oracle replays
    the identical hash + integer thresholds in a SQL CASE."""
    from jsonschema_validator_ray.ops.sampling import hash_split

    out = _collect(hash_split(
        _read(sf_dir, "documents", ["doc_id", "lang"]),
        "doc_id", _SPLITS, seed=_SPLIT_SEED))
    return pa.table({
        "doc_id": out["doc_id"].cast(pa.int64()),
        "lang": out["lang"],
        "split": out["split"],
    }).sort_by([("doc_id", "ascending")])


def q_turn_pairs_transcripts(sf_dir: str) -> pa.Table:
    """SFT prompt/response pair mining over the transcript corpus
    (``ops.aggregates.adjacent_pairs``): per conversation, ordered by
    (turn_idx, role, text), emit every adjacent user→assistant turn pair.
    One hash-bucket groupby on conv_id (whole conversations co-locate),
    fully vectorized in-bucket. Oracle is the LEAD window with the same
    tiebreak over the same parquet."""
    from jsonschema_validator_ray.ops.aggregates import adjacent_pairs

    out = _collect(adjacent_pairs(
        _tx_ds(sf_dir, ["conv_id", "turn_idx", "role", "text"]),
        "conv_id", "turn_idx", "role", "user", "assistant", "text"))
    return pa.table({
        "conv_id": out["conv_id"],
        "turn_idx_from": out["turn_idx_from"].cast(pa.int64()),
        "turn_idx_to": out["turn_idx_to"].cast(pa.int64()),
        "text_from": out["text_from"],
        "text_to": out["text_to"],
    }).sort_by([("conv_id", "ascending"), ("turn_idx_from", "ascending"),
                ("turn_idx_to", "ascending"), ("text_from", "ascending")])


def _tx_ds(sf_dir: str, cols: list):
    """Read the deterministic transcript corpus for ``sf_dir`` as a Dataset
    (metadata-free schema, symlink re-pointed for the oracle)."""
    import ray.data

    from jsonschema_validator_ray.rayutil import (clean_read_schema,
                                                  ensure_worker_importable)
    ensure_worker_importable()
    gen, _ = _ensure_current_corpus(sf_dir)
    return ray.data.read_parquet(
        gen.files, columns=cols, schema=clean_read_schema(gen.files[0], cols))


_CTX_BUDGET = 600   # tokens — binds mid-conversation at every gate sf


def q_truncate_context_transcripts(sf_dir: str) -> pa.Table:
    """Context-window capping (``ops.aggregates.truncate_context``): per
    conversation keep the longest (turn_idx, role, text)-ordered prefix
    whose cumulative whitespace-token count stays within the budget. Oracle
    replays the identical running sum with a SQL window frame."""
    from jsonschema_validator_ray.ops.aggregates import truncate_context

    out = _collect(truncate_context(
        _tx_ds(sf_dir, ["conv_id", "turn_idx", "role", "text"]),
        "conv_id", "turn_idx", "text", _CTX_BUDGET, tag_col="role"))
    return pa.table({
        "conv_id": out["conv_id"],
        "turn_idx": out["turn_idx"].cast(pa.int64()),
        "cum_tokens": out["cum_tokens"],
    }).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"),
                ("cum_tokens", "ascending")])


def q_alternation_transcripts(sf_dir: str) -> pa.Table:
    """Conversation-structure quality (``ops.aggregates.alternation_stats``):
    per conversation, turn count + adjacent same-role repeats + alternating
    verdict. Oracle is the LAG window with the same deterministic
    tiebreak."""
    from jsonschema_validator_ray.ops.aggregates import alternation_stats

    out = _collect(alternation_stats(
        _tx_ds(sf_dir, ["conv_id", "turn_idx", "role", "text"]),
        "conv_id", "turn_idx", "role", text_col="text"))
    return pa.table({
        "conv_id": out["conv_id"],
        "n_turns": out["n_turns"],
        "n_repeats": out["n_repeats"],
        "alternating": out["alternating"],
    }).sort_by([("conv_id", "ascending")])


def q_render_sft_transcripts(sf_dir: str) -> pa.Table:
    """SFT sample rendering (``ops.aggregates.render_conversations``): one
    ``role: text`` line per turn, joined per conversation — the final
    materialization step of a fine-tuning data pipeline. The rendered string
    is md5-digested for the compare (gate-scale, output-cardinality rows —
    the operator itself streams the full text); n_lines/n_chars are checked
    as values."""
    import hashlib

    from jsonschema_validator_ray.ops.aggregates import render_conversations

    out = _collect(render_conversations(
        _tx_ds(sf_dir, ["conv_id", "turn_idx", "role", "text"]),
        "conv_id", "turn_idx", "role", "text"))
    digest = [hashlib.md5(t.encode()).hexdigest() if t is not None else None
              for t in out["rendered"].to_pylist()]
    return pa.table({
        "conv_id": out["conv_id"],
        "n_lines": out["n_lines"],
        "n_chars": out["n_chars"],
        "digest": pa.array(digest, pa.string()),
    }).sort_by([("conv_id", "ascending")])


def q_conv_dedup_transcripts(sf_dir: str) -> pa.Table:
    """Conversation-LEVEL exact dedup over the transcript corpus: render
    each conversation to its canonical string
    (``ops.aggregates.render_conversations`` — ordered ``role: text`` lines)
    then exact-dedup whole conversations by 128-bit content hash
    (``ops.dedup.exact_dedup_keepers``) — the transcript analog of document
    dedup, two bucket shuffles (conv_id, then content hash), hash rows only
    in the second. The corpus has no natural duplicate conversations, so the
    query plants deterministic ones: every conversation whose id ends in
    ``'0'`` (10%) is re-ingested under ``'dup-' || conv_id``; the SQL oracle
    plants the identical rows, and the dedup must pair each copy with its
    original ('c…' < 'dup-…', so the original is always the keeper)."""
    from jsonschema_validator_ray.ops.aggregates import render_conversations
    from jsonschema_validator_ray.ops.dedup import exact_dedup_keepers

    ds = _tx_ds(sf_dir, ["conv_id", "turn_idx", "role", "text"])

    def dup_tail(batch: pa.Table) -> pa.Table:
        cid = batch["conv_id"].combine_chunks() \
            if isinstance(batch["conv_id"], pa.ChunkedArray) \
            else batch["conv_id"]
        sel = batch.filter(pc.ends_with(cid, "0"))
        remapped = pc.binary_join_element_wise(
            pa.scalar("dup-"), sel["conv_id"].combine_chunks()
            if isinstance(sel["conv_id"], pa.ChunkedArray)
            else sel["conv_id"], pa.scalar(""))
        return sel.set_column(sel.schema.get_field_index("conv_id"),
                              "conv_id", remapped)

    aug = ds.union(ds.map_batches(dup_tail, batch_format="pyarrow",
                                  zero_copy_batch=True))
    rendered = render_conversations(aug, "conv_id", "turn_idx", "role",
                                    "text")
    out = _collect(exact_dedup_keepers(rendered, "conv_id", "rendered"))
    return pa.table({
        "keeper_conv": out["keeper_id"],
        "n_copies": out["n_copies"].cast(pa.int64()),
    }).sort_by([("keeper_conv", "ascending")])


def q_grouped_heavy_hitters_events(sf_dir: str) -> pa.Table:
    """Per-group heavy hitters (``ops.aggregates.grouped_heavy_hitters``):
    top-3 busiest calendar days per event type via keyed Misra-Gries
    partials. ``capacity=64 >= 30 observed days`` so nothing is dropped —
    counts exact, ``err_bound = 0`` — and the oracle is the exact SQL
    ``row_number()`` top-k with the same ``(count DESC, day ASC)``
    tie-break."""
    from jsonschema_validator_ray.ops.aggregates import grouped_heavy_hitters

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def add_day(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "day": pc.cast(pc.cast(batch["ts"], pa.date32()), pa.string()),
        })

    out = grouped_heavy_hitters(
        ds.map_batches(add_day, batch_format="pyarrow",
                       zero_copy_batch=True),
        "event_type", "day", k=3, capacity=64)
    return pa.table({
        "event_type": out["event_type"],
        "item": out["item"],
        "est_count": out["est_count"],
        "err_bound": out["err_bound"],
    })


def q_overlap_users_hll(sf_dir: str) -> pa.Table:
    """Sketch-based corpus overlap, SELF-ORACLED (the `hll_distinct_events`
    pattern): |users(view) ∩ users(purchase)| estimated by HLL
    inclusion–exclusion — |A| + |B| − |A∪B| where the union sketch is the
    register-wise merge of the two side sketches (the defining HLL merge
    property; no third pass over the data). The gate row emits
    ``(n_exact, within_bound)``: ``n_exact`` from an exact distributed
    distinct pass matches SQL ``INTERSECT`` count exactly, and
    ``within_bound`` asserts the sketch estimate lands within
    ``max(16, 5% · |A∪B|)`` of it (three σ≈1.6% terms; at gate
    cardinalities the p=12 sketches sit in their near-exact
    linear-counting regime). 100-TB shape: per-side registers are fixed
    4 KB regardless of user cardinality; only the exact-side verification
    state is cardinality-scale, and it exists only to feed the gate."""
    from jsonschema_validator_ray.state.hll import HyperLogLog, hash64

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        sides, regs, uniqs = [], [], []
        for side in ("view", "purchase"):
            u = batch["user_id"].filter(
                pc.fill_null(pc.equal(et, side), False)).drop_null()
            h = HyperLogLog(12)
            if len(u):
                h.update_hashes(hash64(u.combine_chunks()
                                       if isinstance(u, pa.ChunkedArray)
                                       else u))
            sides.append(side)
            regs.append(h.to_bytes())
            uniqs.append(np.unique(
                u.to_numpy(zero_copy_only=False).astype(np.int64)).tobytes())
        return pa.table({"side": pa.array(sides, pa.string()),
                         "registers": pa.array(regs, pa.binary()),
                         "uniq": pa.array(uniqs, pa.binary())})

    parts = _collect(_read(sf_dir, "events", ["user_id", "event_type"])
                     .map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True))
    merged = {"view": HyperLogLog(12), "purchase": HyperLogLog(12)}
    exact = {"view": [], "purchase": []}
    for side, reg, uq in zip(parts["side"].to_pylist(),
                             parts["registers"].to_pylist(),
                             parts["uniq"].to_pylist()):
        merged[side].merge(HyperLogLog.from_bytes(reg))
        exact[side].append(np.frombuffer(uq, np.int64))
    a = np.unique(np.concatenate(exact["view"] or [np.array([], np.int64)]))
    b = np.unique(np.concatenate(exact["purchase"]
                                 or [np.array([], np.int64)]))
    n_exact = int(np.intersect1d(a, b).size)
    union_sk = HyperLogLog(12)
    union_sk.merge(merged["view"])
    union_sk.merge(merged["purchase"])
    est = (merged["view"].cardinality() + merged["purchase"].cardinality()
           - union_sk.cardinality())
    n_union_exact = int(np.union1d(a, b).size)
    within = bool(abs(est - n_exact) <= max(16.0, 0.05 * n_union_exact))
    return pa.table({"n_exact": pa.array([n_exact], pa.int64()),
                     "within_bound": pa.array([within], pa.bool_())})


def q_zonemap_transcripts(sf_dir: str) -> pa.Table:
    """FOOTER-ONLY zone map over the transcript corpus files
    (``sources.files.zone_map``): per-file row count, null count and
    conv_id min/max read from Parquet column statistics — no data page is
    touched (O(files), not O(rows); the planner-side scan-pruning
    primitive). The oracle recomputes the identical facts the expensive
    way — a full scan with ``filename=true`` — so the gate row proves the
    footer metadata path agrees with the data."""
    from jsonschema_validator_ray.sources.files import zone_map

    gen, _ = _ensure_current_corpus(sf_dir)
    out = _collect(zone_map(gen.files, "conv_id"))
    if not bool(pc.all(out["has_stats"]).as_py()):
        raise AssertionError("corpus footer lacks conv_id statistics")
    return pa.table({
        "file": out["file"],
        "n_rows": out["n_rows"],
        "n_nulls": out["n_nulls"],
        "min_conv": out["min"].cast(pa.string()),
        "max_conv": out["max"].cast(pa.string()),
    }).sort_by([("file", "ascending")])


def q_benford_audit_events(sf_dir: str) -> pa.Table:
    """Benford first-digit audit (``ops.stats.benford_audit``): leading
    significant digit distribution of ``value`` vs the log10(1+1/d)
    expectation with the fit's chi² — the fabricated-data / unit-mix-up
    screen. Digit extraction is the same IEEE expression on both sides
    (floor(v / 10^floor(log10 v))), restricted to ``value >= 1`` where the
    power-of-ten divisor is exact in every libm (see the op docstring for
    the measured sub-1 pow divergence); expected/chi² round to 6 dp."""
    from jsonschema_validator_ray.ops.stats import benford_audit

    ds = _read(sf_dir, "events", ["value"])

    def ge1(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.fill_null(pc.greater_equal(batch["value"], 1.0), False))

    return benford_audit(ds.map_batches(ge1, batch_format="pyarrow",
                                        zero_copy_batch=True), "value")


def q_sequence_audit_events(sf_dir: str) -> pa.Table:
    """Sequence-completeness audit (``ops.stats.sequence_audit``) of the
    monotonically-assigned ``event_id``: row/null/distinct counts, id
    envelope, duplicate rows and ids missing from [min, max] — the ingest
    "did we drop a shard?" screen, exact vs one SQL aggregate row."""
    from jsonschema_validator_ray.ops.stats import sequence_audit

    return sequence_audit(_read(sf_dir, "events", ["event_id"]), "event_id")


def q_welch_ttest_events(sf_dir: str) -> pa.Table:
    """Welch's two-sample t-test (``ops.stats.welch_ttest``): does the mean
    ``value`` differ between 'view' and 'purchase' events — the mean-shift
    significance test complementing the distribution-drift family. One
    streaming pass, no shuffle (per-side central-moment partials, Chan/Pébay
    driver fold); oracle replays the closed-form t/df from SQL
    avg/var_samp, both sides rounded to 6 dp."""
    from jsonschema_validator_ray.ops.stats import welch_ttest

    import math

    r = welch_ttest(_read(sf_dir, "events", ["event_type", "value"]),
                    "event_type", "value", "view", "purchase")

    def r6(x, defined=True):
        # SQL parity: an absent cohort's mean and a zero-variance /
        # absent-side t/df are NULL in the oracle (NULL aggregates,
        # division by zero) — emit None, not 0.0/NaN (review r5)
        return round(x, 6) if defined and math.isfinite(x) else None

    return pa.table({
        "n_a": pa.array([r["n_a"]], pa.int64()),
        "n_b": pa.array([r["n_b"]], pa.int64()),
        "mean_a_r6": pa.array([r6(r["mean_a"], r["n_a"] > 0)],
                              pa.float64()),
        "mean_b_r6": pa.array([r6(r["mean_b"], r["n_b"] > 0)],
                              pa.float64()),
        "t_r6": pa.array([r6(r["t_stat"])], pa.float64()),
        "df_r6": pa.array([r6(r["df"])], pa.float64()),
    })


def q_cms_counts_events(sf_dir: str) -> pa.Table:
    """Count-Min point-frequency estimates, SELF-ORACLED (the
    `hll_distinct_events` pattern): per-block CMS partials
    (``state.cms.CountMinSketch``, 4x2048 int64 counters regardless of key
    cardinality) merge by element-wise add; the gate row emits each event
    type's exact count (matches SQL ``GROUP BY`` exactly) plus
    ``within_bound`` — the Ray-side assertion that the merged sketch's
    estimate is an UPPER bound within the (e/width)·N CM certificate of
    the exact count. The bounded-memory frequency sketch for unbounded
    domains (hot URLs, vocab terms) — the frequency complement of HLL
    (distinct) and Misra-Gries (top-k)."""
    from jsonschema_validator_ray.state.cms import CountMinSketch

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].drop_null()
        et = et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et
        sk = CountMinSketch()
        if len(et):
            sk.update(et)
        vc = pa.table({"event_type": et}).group_by("event_type") \
            .aggregate([([], "count_all")]) \
            .rename_columns(["event_type", "cnt"])
        types = pa.concat_arrays([vc["event_type"].combine_chunks(),
                                  pa.array([None], pa.string())])
        cnts = pa.concat_arrays([vc["cnt"].cast(pa.int64()).combine_chunks(),
                                 pa.array([0], pa.int64())])
        sks = pa.concat_arrays([pa.nulls(vc.num_rows, pa.binary()),
                                pa.array([sk.to_bytes()], pa.binary())])
        return pa.table({"event_type": types, "cnt": cnts, "sketch": sks})

    parts = _collect(_read(sf_dir, "events", ["event_type"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = CountMinSketch()
    for b in parts.filter(pc.is_valid(parts["sketch"]))["sketch"] \
            .to_pylist():
        merged.merge(CountMinSketch.from_bytes(b))
    exact = pa.TableGroupBy(
        parts.filter(pc.is_valid(parts["event_type"]))
        .select(["event_type", "cnt"]), "event_type") \
        .aggregate([("cnt", "sum")]).sort_by("event_type")
    types = exact["event_type"].combine_chunks()
    true_cnt = exact["cnt_sum"].cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    est = merged.estimate(types)
    over = est - true_cnt
    within = (over >= 0) & (over <= merged.error_bound())
    return pa.table({
        "event_type": types,
        "n_exact": pa.array(true_cnt, pa.int64()),
        "within_bound": pa.array(within.astype(bool)),
    })


def q_rolling_distinct_users(sf_dir: str) -> pa.Table:
    """Trailing 7-day distinct active users per observed day
    (``ops.aggregates.rolling_distinct``): a windowed COUNT(DISTINCT) — NOT
    a rolling sum (re-active users count once per window). One key-hash
    shuffle; the per-window distinct count happens in-bucket because window
    expansion never changes the key, so per-bucket counts add. Oracle is
    the exact SQL range self-join against the observed-day list."""
    from jsonschema_validator_ray.ops.aggregates import rolling_distinct

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return rolling_distinct(ds, "user_id", "ts", window_days=7)


def q_interval_coverage_events(sf_dir: str) -> pa.Table:
    """Per-user interval-UNION coverage ("islands and gaps",
    ``ops.aggregates.interval_coverage``): each event opens a
    ``[ts, ts + floor(value)·1s)`` activity interval; overlapping intervals
    merge into islands, and the query reports each user's island count and
    total covered microseconds WITHOUT double-counting overlap — the
    active-uptime / audio-coverage shape. Oracle replays the identical
    merge with the SQL running-max window + island-id cumsum."""
    from jsonschema_validator_ray.ops.aggregates import interval_coverage

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def mk(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch["ts"], pa.int64())
        dur = pc.cast(pc.floor(pc.multiply(batch["value"],
                                           pa.scalar(1e6))), pa.int64())
        return pa.table({"user_id": batch["user_id"], "s": s,
                         "e": pc.add(s, dur)})

    out = _collect(interval_coverage(
        ds.map_batches(mk, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", "s", "e"))
    return pa.table({
        "user_id": out["user_id"].cast(pa.int64()),
        "n_islands": out["n_islands"],
        "covered_us": out["covered_us"],
    }).sort_by([("user_id", "ascending")])


def q_incremental_dedup_documents(sf_dir: str) -> pa.Table:
    """Incremental (cross-run) dedup (``ops.dedup.dedup_against_snapshot``):
    re-ingesting the full corpus against a snapshot of every third doc keeps
    exactly the docs whose content is NOT already ingested — the broadcast
    128-bit hash-index membership path, no shuffle. Oracle is the SQL NOT
    EXISTS anti-join on raw text."""
    from jsonschema_validator_ray.ops.dedup import dedup_against_snapshot

    def snap_only(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks() \
            if isinstance(b["doc_id"], pa.ChunkedArray) else b["doc_id"]
        m = ids.cast(pa.int64()).to_numpy(zero_copy_only=False) % 3 == 0
        return b.filter(pa.array(m))

    snap = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(snap_only, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(dedup_against_snapshot(
        _read(sf_dir, "documents", ["doc_id", "text"]), snap,
        "doc_id", "text"))
    return pa.table({"doc_id": out["doc_id"].cast(pa.int64())}) \
        .sort_by([("doc_id", "ascending")])


_PSI_SPLIT = "2024-01-16 00:00:00"   # mid-corpus: both sides populated


def q_psi_drift_events(sf_dir: str) -> pa.Table:
    """Population Stability Index (``ops.stats.psi_drift``) between the
    value distributions before/after mid-January — the third member of the
    drift family (chi² categorical, KS continuous, PSI bucketed-production
    practice). One streaming bincount-partial pass, no shuffle; statistic
    SQL-replayed to 6 decimals (chi² precedent)."""
    from jsonschema_validator_ray.ops.stats import psi_drift

    split_us = int(np.datetime64(_PSI_SPLIT.replace(" ", "T"), "us")
                   .astype(np.int64))
    r = psi_drift(_read(sf_dir, "events", ["ts", "value"]),
                  "value", "ts", split_us)
    return pa.table({
        "psi": pa.array([round(r["psi"], 6)], pa.float64()),
        "n_buckets_used": pa.array([r["n_buckets_used"]], pa.int64()),
        "n_ref": pa.array([r["n_ref"]], pa.int64()),
        "n_cur": pa.array([r["n_cur"]], pa.int64()),
    })


def q_jsd_drift_events(sf_dir: str) -> pa.Table:
    """Jensen-Shannon divergence (bits) between the event_type
    distributions before/after mid-January (``ops.stats.jsd_drift``) —
    the drift family's fourth statistic (chi², KS, PSI, JSD). One
    streaming category-count partial pass, NO shuffle; statistic
    SQL-replayed to 6 decimals (drift-family precedent)."""
    from jsonschema_validator_ray.ops.stats import jsd_drift

    split_us = int(np.datetime64(_PSI_SPLIT.replace(" ", "T"), "us")
                   .astype(np.int64))
    r = jsd_drift(_read(sf_dir, "events", ["ts", "event_type"]),
                  "event_type", "ts", split_us)
    return pa.table({
        "jsd": pa.array([round(r["jsd"], 6)], pa.float64()),
        "n_categories": pa.array([r["n_categories"]], pa.int64()),
        "n_ref": pa.array([r["n_ref"]], pa.int64()),
        "n_cur": pa.array([r["n_cur"]], pa.int64()),
    })


def q_cooccurrence_events(sf_dir: str) -> pa.Table:
    """Event-type co-occurrence (``ops.aggregates.cooccurrence_pairs``) —
    the market-basket analytic: for each unordered pair of event types, how
    many users performed both. Distinct pre-aggregation before the only
    shuffle; all pair generation in closed form in-bucket."""
    from jsonschema_validator_ray.ops.aggregates import cooccurrence_pairs

    out = cooccurrence_pairs(
        _read(sf_dir, "events", ["user_id", "event_type"]),
        "user_id", "event_type")
    return pa.table({
        "type_a": out["a"], "type_b": out["b"], "n_users": out["n_keys"],
    })


def q_response_latency_transcripts(sf_dir: str) -> pa.Table:
    """Per-conversation assistant response latency — operator COMPOSITION:
    ``adjacent_pairs`` mines user→assistant turn pairs carrying ``ts`` as
    the payload, then a per-batch grouped partial + conv-cardinality driver
    fold sums the deltas. A pair with a null timestamp still counts in
    ``n_pairs`` but adds nothing to the sum; a conversation with NO timed
    pair reports a NULL total (SQL ``sum`` semantics)."""
    from jsonschema_validator_ray.ops.aggregates import adjacent_pairs

    pairs = adjacent_pairs(
        _tx_ds(sf_dir, ["conv_id", "turn_idx", "role", "ts"]),
        "conv_id", "turn_idx", "role", "user", "assistant", "ts")

    def partial(b: pa.Table) -> pa.Table:
        d = pc.subtract(b["ts_to"].cast(pa.int64()),
                        b["ts_from"].cast(pa.int64()))
        t = pa.table({
            "conv_id": b["conv_id"],
            "d": pc.fill_null(d, 0),
            "dv": pc.cast(pc.is_valid(d), pa.int64()),
            "one": pa.array(np.ones(b.num_rows, np.int64)),
        })
        g = pa.TableGroupBy(t, "conv_id").aggregate(
            [("d", "sum"), ("dv", "sum"), ("one", "sum")])
        return g.rename_columns(["conv_id", "d", "dv", "n"])

    parts = _collect(pairs.map_batches(partial, batch_format="pyarrow",
                                       zero_copy_batch=True))
    g = pa.TableGroupBy(parts, "conv_id").aggregate(
        [("d", "sum"), ("dv", "sum"), ("n", "sum")])
    total = pc.if_else(pc.greater(g["dv_sum"], 0),
                       g["d_sum"].cast(pa.int64()),
                       pa.scalar(None, pa.int64()))
    return pa.table({
        "conv_id": g["conv_id"],
        "n_pairs": g["n_sum"].cast(pa.int64()),
        "total_latency_us": total,
    }).sort_by([("conv_id", "ascending")])


def q_tool_cooccurrence_transcripts(sf_dir: str) -> pa.Table:
    """Tool co-occurrence per conversation (``cooccurrence_pairs`` over the
    transcript corpus — the STRING-key path of the op): which tool pairs
    get used together in one conversation, counted across conversations."""
    from jsonschema_validator_ray.ops.aggregates import cooccurrence_pairs

    out = cooccurrence_pairs(_tx_ds(sf_dir, ["conv_id", "tool"]),
                             "conv_id", "tool")
    return pa.table({
        "tool_a": out["a"], "tool_b": out["b"], "n_convs": out["n_keys"],
    })


def q_profile_table_events(sf_dir: str) -> pa.Table:
    """Whole-table per-column profile (``ops.aggregates.profile_table``):
    exact nulls/distinct/min/max for every events column in ONE streaming
    pass, no shuffle — the describe-the-table sweep. Oracle is the UNION
    ALL of per-column exact SQL aggregates."""
    from jsonschema_validator_ray.ops.aggregates import profile_table

    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    return profile_table(_read(sf_dir, "events", cols), cols) \
        .sort_by([("column", "ascending")])


_PR_SUPP_OFFSET = 10_000_000   # suppkeys share the custkey integer range


def q_pagerank_purchases(sf_dir: str) -> pa.Table:
    """Weighted PageRank over the customer→supplier purchase graph
    (``ops.graph.pagerank``) — the engine's second distributed ITERATIVE
    algorithm (with k-means), and the one with an EXACT oracle: two power
    iterations unroll to two CTEs. Edges come from one reduce-side
    lineitem⋈orders join emitting per-bucket (src, dst, w) count partials
    (duplicate partial edges are exact — contributions are linear in w);
    each iteration is one rank-vector broadcast + one streaming partial
    pass, no shuffle."""
    from jsonschema_validator_ray.ops.graph import pagerank
    from jsonschema_validator_ray.ops.join import reduce_side_hash_join

    def to_edges(j: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(j.select(["o_custkey", "l_suppkey"]),
                            ["o_custkey", "l_suppkey"]) \
            .aggregate([([], "count_all")])
        return pa.table({
            "src": g["o_custkey"].cast(pa.int64()),
            "dst": pc.add(g["l_suppkey"].cast(pa.int64()),
                          pa.scalar(_PR_SUPP_OFFSET, pa.int64())),
            "w": g["count_all"].cast(pa.float64()),
        })

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"]) \
        .map_batches(lambda b: pa.table(
            {"l_orderkey": b["l_orderkey"].cast(pa.int64()),
             "l_suppkey": b["l_suppkey"].cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(lambda b: pa.table(
            {"l_orderkey": b["o_orderkey"].cast(pa.int64()),
             "o_custkey": b["o_custkey"].cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
    edges = reduce_side_hash_join(
        orders, li, "l_orderkey", group_fn=to_edges,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("l_suppkey", pa.int64())]))
    out = pagerank(edges, "src", "dst", "w", damping=0.85, iterations=2)
    return pa.table({
        "node": out["node"],
        "rank": pc.round(out["rank"], ndigits=6),
    }).sort_by([("node", "ascending")])


def q_local_supplier_volume(sf_dir: str) -> pa.Table:
    """TPC-H Q5 shape — the deepest join chain in the suite (6 tables):
    revenue from 1996 orders where the CUSTOMER and the SUPPLIER share a
    nation in region ASIA, grouped by nation. Ray-first plan: (1) region ⋈
    nation and the supplier dictionary resolve DRIVER-side (dictionary
    scale, the `ref_check` broadcast assumption) into a suppkey→nationkey
    lookup pruned to ASIA; (2) lineitem streams through a map stage that
    drops non-ASIA-supplier rows and pre-aggregates exact e4-unit revenue
    per (orderkey, supplier-nation); (3) reduce-side join #1 against the
    date-pushdown orders scan re-keys partials to the customer; (4)
    reduce-side join #2 against customer applies the same-nation filter
    IN-BUCKET and folds revenue per nation — ≤25 rows leave each bucket;
    (5) the driver attaches names and sorts. Two all-to-alls total, both
    carrying pre-aggregated partials only."""
    import datetime as _dt

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from jsonschema_validator_ray.ops.join import reduce_side_hash_join
    from jsonschema_validator_ray.rayutil import ensure_worker_importable
    ensure_worker_importable()

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name", "n_regionkey"])
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    asia_rk = region.filter(pc.equal(region["r_name"], "ASIA")) \
        ["r_regionkey"][0].as_py()
    asia = nation.filter(pc.equal(nation["n_regionkey"], asia_rk))
    asia_keys = set(asia["n_nationkey"].to_pylist())
    name_of = dict(zip(asia["n_nationkey"].to_pylist(),
                       asia["n_name"].to_pylist()))
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    sk = np.asarray(supp["s_suppkey"].to_numpy(), np.int64)
    sn = np.asarray(supp["s_nationkey"].to_numpy(), np.int64)
    order_ = np.argsort(sk)
    sk, sn = sk[order_], sn[order_]          # sorted lookup, closure-shipped
    asia_arr = np.array(sorted(asia_keys), np.int64)

    def li_partial(batch: pa.Table) -> pa.Table:
        k = batch["l_suppkey"].cast(pa.int64()).to_numpy()
        pos = np.minimum(np.searchsorted(sk, k), sk.size - 1)
        nat = np.where(sk[pos] == k, sn[pos], -1)
        keep = np.isin(nat, asia_arr)        # prune BEFORE any shuffle
        t = batch.filter(pa.array(keep))
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        g = pa.TableGroupBy(pa.table({
            "o_orderkey": t["l_orderkey"].cast(pa.int64()),
            "s_nat": pa.array(nat[keep], pa.int64()),
            "rev": rev}), ["o_orderkey", "s_nat"]).aggregate([("rev", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "s_nat": g["s_nat"],
                         "rev": g["rev_sum"].cast(pa.int64())})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]) \
        .map_batches(li_partial, batch_format="pyarrow",
                     zero_copy_batch=True)
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pads.field("o_orderdate") >= _dt.datetime(1996, 1, 1))
                & (pads.field("o_orderdate") < _dt.datetime(1997, 1, 1)))) \
        .map_batches(lambda b: b.select(["o_orderkey", "o_custkey"]),
                     batch_format="pyarrow", zero_copy_batch=True)

    def to_cust(j: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(j.select(["o_custkey", "s_nat", "rev"]),
                            ["o_custkey", "s_nat"]).aggregate([("rev", "sum")])
        return pa.table({"ck": g["o_custkey"].cast(pa.int64()),
                         "s_nat": g["s_nat"],
                         "rev": g["rev_sum"].cast(pa.int64())})

    per_cust = reduce_side_hash_join(
        orders, li, "o_orderkey", group_fn=to_cust,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("s_nat", pa.int64()),
                                ("rev", pa.int64())])).materialize()

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: pa.table(
            {"ck": b["c_custkey"].cast(pa.int64()),
             "c_nat": b["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)

    def same_nation_fold(j: pa.Table) -> pa.Table:
        t = j.filter(pc.equal(j["s_nat"], j["c_nat"]))
        g = pa.TableGroupBy(t.select(["s_nat", "rev"]), "s_nat") \
            .aggregate([("rev", "sum")])
        return pa.table({"nat": g["s_nat"],
                         "rev_part": g["rev_sum"].cast(pa.int64())})

    parts = _collect(reduce_side_hash_join(
        per_cust, cust, "ck", group_fn=same_nation_fold,
        left_schema=pa.schema([("ck", pa.int64()), ("s_nat", pa.int64()),
                               ("rev", pa.int64())]),
        right_schema=pa.schema([("ck", pa.int64()),
                                ("c_nat", pa.int64())])))
    total = pa.TableGroupBy(parts, "nat").aggregate([("rev_part", "sum")])
    names = [name_of[k] for k in total["nat"].to_pylist()]
    out = pa.table({"n_name": pa.array(names, pa.string()),
                    "rev_e4": total["rev_part_sum"].cast(pa.int64())})
    return out.sort_by([("rev_e4", "descending"), ("n_name", "ascending")])


def q_user_activity_full_outer(sf_dir: str) -> pa.Table:
    """FULL OUTER join of two pre-aggregated sides: per-id event count vs
    order count — ids live on either or both sides, nulls preserved.
    Both sides combine per-batch partials inside the bucket (left_fn /
    right_fn), so only result-scale rows leave the shuffle."""
    from jsonschema_validator_ray.ops.join import reduce_side_hash_join

    def part(key_in: str, alias: str):
        def fn(batch: pa.Table) -> pa.Table:
            t = pa.table({"uid": batch[key_in].cast(pa.int64()),
                          "one": pa.array(np.ones(batch.num_rows,
                                                  np.int64))})
            g = pa.TableGroupBy(t, "uid").aggregate([("one", "sum")])
            return pa.table({"uid": g["uid"],
                             alias: g["one_sum"].cast(pa.int64())})
        return fn

    def combine(alias: str):
        def fn(t: pa.Table) -> pa.Table:
            g = pa.TableGroupBy(t, "uid").aggregate([(alias, "sum")])
            return pa.table({"uid": g["uid"],
                             alias: g[f"{alias}_sum"].cast(pa.int64())})
        return fn

    ev = _read(sf_dir, "events", ["user_id"]).map_batches(
        part("user_id", "n_events"), batch_format="pyarrow",
        zero_copy_batch=True)
    od = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        part("o_custkey", "n_orders"), batch_format="pyarrow",
        zero_copy_batch=True)
    out = _collect(reduce_side_hash_join(
        ev, od, "uid", join_type="full outer",
        left_fn=combine("n_events"), right_fn=combine("n_orders"),
        left_schema=pa.schema([("uid", pa.int64()),
                               ("n_events", pa.int64())]),
        right_schema=pa.schema([("uid", pa.int64()),
                                ("n_orders", pa.int64())])))
    return pa.table({
        "uid": out["uid"].cast(pa.int64()),
        "n_events": out["n_events"].cast(pa.int64()),
        "n_orders": out["n_orders"].cast(pa.int64()),
    }).sort_by("uid")


def q_mode_event_type_by_user(sf_dir: str) -> pa.Table:
    """Per-user modal event type (ties -> smallest type string)."""
    from jsonschema_validator_ray.ops.aggregates import grouped_mode

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    out = _collect(grouped_mode(ds, "user_id", "event_type"))
    return pa.table({
        "user_id": out["user_id"].cast(pa.int64()),
        "mode": out["mode"],
        "n": out["n"].cast(pa.int64()),
    }).sort_by("user_id")


def q_latest_event_per_user(sf_dir: str) -> pa.Table:
    """Latest-row-per-group: each user's most recent event (max ts, ties ->
    smallest event_id) — grouped_argmax's per-batch combiner means the
    shuffle moves <= one row per user per batch."""
    from jsonschema_validator_ray.ops.aggregates import grouped_argmax

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    out = _collect(grouped_argmax(ds, "user_id", "ts", tiebreak="event_id"))
    return pa.table({
        "user_id": out["user_id"].cast(pa.int64()),
        "event_id": out["event_id"].cast(pa.int64()),
        "ts": out["ts"],
        "event_type": out["event_type"],
    }).sort_by("user_id")


def q_vocab_entropy_by_lang(sf_dir: str) -> pa.Table:
    """Per-language Shannon entropy of the word distribution (corpus
    diversity): token explode + (lang, word) pre-aggregation per batch,
    one vocabulary-sized shuffle, segmented-bincount entropy in-bucket."""
    from jsonschema_validator_ray.ops.text import vocab_entropy

    ds = _read(sf_dir, "documents", ["lang", "text"])
    out = _collect(vocab_entropy(ds, "lang", "text"))
    return pa.table({
        "lang": out["lang"],
        "entropy_r6": pc.round(out["entropy"], ndigits=6),
        "n_words": out["n_words"].cast(pa.int64()),
    }).sort_by("lang")


def q_ks_drift_events(sf_dir: str) -> pa.Table:
    """Exact two-sample KS between purchase-event and view-event value
    distributions: distinct-value fold -> one global range sort -> tiny
    per-block summary pass -> cross-block prefix offsets -> vectorized
    per-block CDF-gap pass (ops.stats.ks_two_sample)."""
    from jsonschema_validator_ray.ops.stats import ks_two_sample

    ds = _read(sf_dir, "events", ["event_type", "value"])
    from jsonschema_validator_ray.rayutil import strip_meta

    def tag(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array(["purchase", "view"]))
        sel = batch.filter(keep.fill_null(False))
        side = pc.equal(sel["event_type"], "purchase").cast(pa.int64())
        return strip_meta(pa.table({"value": sel["value"], "side": side}))

    r = ks_two_sample(ds.map_batches(tag, batch_format="pyarrow",
                                     zero_copy_batch=True), "value", "side")
    return pa.table({"ks_stat_r6": pa.array([round(r["ks_stat"], 6)],
                                            pa.float64()),
                     "n_a": pa.array([r["n_a"]], pa.int64()),
                     "n_b": pa.array([r["n_b"]], pa.int64())})


def q_pack_documents(sf_dir: str) -> pa.Table:
    """Greedy first-fit sequence packing of documents into 2048-char bins,
    partition-local by doc_id // 500 (ops.pack.pack_sequences); the oracle
    reproduces the identical bins with a recursive CTE."""
    from jsonschema_validator_ray.ops.pack import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = _collect(pack_sequences(ds, "doc_id", "n_chars",
                                  capacity=2048, part_size=500))
    return pa.table({
        "doc_id": out["doc_id"].cast(pa.int64()),
        "grp": out["grp"].cast(pa.int64()),
        "bin": out["bin"].cast(pa.int64()),
        "fill": out["fill"].cast(pa.int64()),
    }).sort_by("doc_id")


def q_concat_packed_documents(sf_dir: str) -> pa.Table:
    """Packed training sequences: greedy first-fit bins (capacity 2048
    chars, partition-local by doc_id // 500) -> per-bin text concatenation
    in ONE grp shuffle (ops.pack.concat_packed); md5 compared against the
    recursive-CTE + string_agg oracle."""
    import hashlib

    from jsonschema_validator_ray.ops.pack import concat_packed

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars", "text"])
    out = _collect(concat_packed(ds, "doc_id", "n_chars", "text",
                                 capacity=2048, part_size=500))
    md5 = [hashlib.md5(t.encode()).hexdigest()
           for t in out["packed_text"].to_pylist()]   # bins-scale result
    return pa.table({
        "grp": out["grp"].cast(pa.int64()),
        "bin": out["bin"].cast(pa.int64()),
        "n_docs": out["n_docs"].cast(pa.int64()),
        "packed_chars": out["packed_chars"].cast(pa.int64()),
        "packed_md5": pa.array(md5, pa.string()),
    }).sort_by([("grp", "ascending"), ("bin", "ascending")])


def q_shuffle_positions_documents(sf_dir: str) -> pa.Table:
    """Deterministic seeded global shuffle for training epochs: each doc's
    position = global rank of a bijective 64-bit hash mix of its id
    (ops.stats.assign_global_rank — one range sort + cross-block prefix
    offsets). Unique keys by construction (odd multiplier mod 2^64), so
    the rank is SQL-exact."""
    from jsonschema_validator_ray.ops.stats import assign_global_rank

    ds = _read(sf_dir, "documents", ["doc_id"])
    from jsonschema_validator_ray.rayutil import strip_meta

    def keyfn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        k = ids * np.uint64(2654435761)   # odd multiplier: bijective mod 2^64
        return strip_meta(batch).append_column(
            "skey", pa.array(k, pa.uint64()))

    out = _collect(assign_global_rank(
        ds.map_batches(keyfn, batch_format="pyarrow", zero_copy_batch=True),
        "skey"))
    return pa.table({
        "doc_id": out["doc_id"].cast(pa.int64()),
        "pos": out["pos"].cast(pa.int64()),
    }).sort_by("doc_id")


def q_jsonl_roundtrip_documents(sf_dir: str) -> pa.Table:
    """JSONL source/sink losslessness: documents -> write_json shards ->
    read_json -> aggregate recomputed from the REREAD rows (text length
    recomputed, not carried) — equal to the oracle over the original
    table iff the JSONL roundtrip preserved every row and string."""
    from jsonschema_validator_ray.sources.files import read_jsonl, \
        write_jsonl

    path = "/tmp/graft_files/jsonl_documents"
    write_jsonl(_read(sf_dir, "documents",
                      ["doc_id", "lang", "text"]), path)
    from jsonschema_validator_ray.rayutil import strip_meta

    def partial(batch: pa.Table) -> pa.Table:
        return strip_meta(pa.table({
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "sum_ids": pa.array([pc.sum(batch["doc_id"]).as_py() or 0],
                                pa.int64()),
            "sum_text_chars": pa.array(
                [pc.sum(pc.utf8_length(batch["text"])).as_py() or 0],
                pa.int64()),
            "n_langs_max": pa.array(
                [pc.count_distinct(batch["lang"]).as_py() or 0],
                pa.int64()),
        }))

    parts = _collect(read_jsonl(path).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    return pa.table({
        "n_docs": pa.array([pc.sum(parts["n_docs"]).as_py()], pa.int64()),
        "sum_ids": pa.array([pc.sum(parts["sum_ids"]).as_py()], pa.int64()),
        "sum_text_chars": pa.array(
            [pc.sum(parts["sum_text_chars"]).as_py()], pa.int64()),
    })


def q_csv_roundtrip_documents(sf_dir: str) -> pa.Table:
    """CSV source/sink losslessness on the typed columns (ints + strings;
    quoting-safe): documents -> write_csv shards -> read_csv -> per-lang
    counts/sums recomputed from the reread rows."""
    from jsonschema_validator_ray.ops.aggregates import grouped_aggregate
    from jsonschema_validator_ray.sources.files import read_csv, write_csv

    path = "/tmp/graft_files/csv_documents"
    write_csv(_read(sf_dir, "documents",
                    ["doc_id", "lang", "source", "n_chars"]), path)
    out = _collect(grouped_aggregate(
        read_csv(path), ["lang"],
        [("doc_id", "count", "n_docs"), ("n_chars", "sum", "sum_chars")]))
    return pa.table({
        "lang": out["lang"],
        "n_docs": out["n_docs"].cast(pa.int64()),
        "sum_chars": out["sum_chars"].cast(pa.int64()),
    }).sort_by("lang")


def q_ipc_roundtrip_documents(sf_dir: str) -> pa.Table:
    """Arrow IPC (Feather V2) source/sink losslessness: documents ->
    write_ipc (one self-describing .arrow shard per block) -> read_ipc
    (one zero-copy decode task per shard) -> aggregate recomputed from the
    REREAD rows (text length recomputed, not carried) — equal to the
    oracle over the original table iff the IPC roundtrip preserved every
    row and string. The write-side shard manifest cross-checks the reread
    row count."""
    from jsonschema_validator_ray.sources.files import read_ipc, write_ipc

    path = "/tmp/graft_files/ipc_documents"
    manifest = write_ipc(_read(sf_dir, "documents",
                               ["doc_id", "lang", "text"]), path)
    from jsonschema_validator_ray.rayutil import strip_meta

    def partial(batch: pa.Table) -> pa.Table:
        return strip_meta(pa.table({
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "sum_ids": pa.array([pc.sum(batch["doc_id"]).as_py() or 0],
                                pa.int64()),
            "sum_text_chars": pa.array(
                [pc.sum(pc.utf8_length(batch["text"])).as_py() or 0],
                pa.int64()),
        }))

    parts = _collect(read_ipc(path).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    n_reread = pc.sum(parts["n_docs"]).as_py()
    if n_reread != pc.sum(manifest["n_rows"]).as_py():
        raise AssertionError("IPC reread row count != written manifest")
    return pa.table({
        "n_docs": pa.array([n_reread], pa.int64()),
        "sum_ids": pa.array([pc.sum(parts["sum_ids"]).as_py()], pa.int64()),
        "sum_text_chars": pa.array(
            [pc.sum(parts["sum_text_chars"]).as_py()], pa.int64()),
    })


def q_orc_roundtrip_documents(sf_dir: str) -> pa.Table:
    """Apache ORC source/sink losslessness: documents -> write_orc (one
    content-addressed .orc shard per block, pyarrow.orc encode straight
    from the Arrow block) -> read_orc (one zero-copy decode task per
    shard) -> per-lang aggregate recomputed from the REREAD rows (char
    count recomputed, not carried) — equal to the oracle over the
    original parquet iff the ORC roundtrip preserved every row, string
    and group key. The write-side shard manifest cross-checks the reread
    row count."""
    from jsonschema_validator_ray.sources.files import read_orc, write_orc

    path = "/tmp/graft_files/orc_documents"
    manifest = write_orc(_read(sf_dir, "documents",
                               ["doc_id", "lang", "text"]), path)
    from jsonschema_validator_ray.rayutil import strip_meta

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"lang": batch["lang"],
                      "chars": pc.utf8_length(batch["text"]),
                      "doc_id": batch["doc_id"]})
        g = t.group_by("lang").aggregate(
            [("chars", "sum"), ("doc_id", "count"), ("doc_id", "sum")])
        return strip_meta(pa.table({
            "lang": g["lang"],
            "n_docs": g["doc_id_count"].cast(pa.int64()),
            "sum_ids": g["doc_id_sum"].cast(pa.int64()),
            "sum_chars": g["chars_sum"].cast(pa.int64())}))

    parts = _collect(read_orc(path).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    n_reread = pc.sum(parts["n_docs"]).as_py()
    if n_reread != pc.sum(manifest["n_rows"]).as_py():
        raise AssertionError("ORC reread row count != written manifest")
    g = parts.group_by("lang").aggregate(
        [("n_docs", "sum"), ("sum_ids", "sum"), ("sum_chars", "sum")])
    return pa.table({
        "lang": g["lang"],
        "n_docs": g["n_docs_sum"].cast(pa.int64()),
        "sum_ids": g["sum_ids_sum"].cast(pa.int64()),
        "sum_chars": g["sum_chars_sum"].cast(pa.int64()),
    }).sort_by("lang")


def q_user_journeys_events(sf_dir: str) -> pa.Table:
    """Per-user ordered event-type journey (first 8 events by (ts,
    event_id)) via ops.aggregates.grouped_string_agg — SQL
    ``string_agg(... ORDER BY ...)`` over ``row_number() <= 8``, the
    funnel-mining path-extraction primitive. One key-hash bucket shuffle;
    paths built by a single ListArray + binary_join kernel per bucket."""
    from jsonschema_validator_ray.ops.aggregates import grouped_string_agg

    out = _collect(grouped_string_agg(
        _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                 "event_type"]),
        "user_id", "event_type", ["ts", "event_id"], sep=">", cap=8))
    return out.sort_by("user_id")


def q_apply_changes_orders(sf_dir: str) -> pa.Table:
    """CDC merge (ops.merge.apply_changes — SQL MERGE/upsert in ONE hash
    shuffle): a deterministic change stream synthesized from orders
    (updates for key%10==3, deletes for key%10==7, inserts at key+1e9 for
    key%10==1, and a SECOND higher-seq update for key%100==13 so
    latest-wins is exercised) applied to the orders snapshot; the merged
    table is fingerprinted per status with an int64 cents quantization
    (floor(p*100+0.5) — bit-deterministic IEEE, no float-sum-order
    hazard). All change arithmetic (+1000, *0.5, *2) is exact-IEEE and
    identical in the oracle."""
    from jsonschema_validator_ray.ops.merge import apply_changes
    from jsonschema_validator_ray.rayutil import strip_meta

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]
    snap_schema = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_orderstatus", pa.string()), ("o_totalprice", pa.float64())])
    ch_schema = pa.schema(
        list(zip(snap_schema.names, snap_schema.types))
        + [("seq", pa.int64()), ("op", pa.string())])

    def make_changes(batch: pa.Table) -> pa.Table:
        kk = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        parts = []

        def emit(t: pa.Table, key_col, price, seq: int, op: str,
                 null_vals: bool = False):
            n = t.num_rows
            parts.append(pa.table({
                "o_orderkey": key_col,
                "o_custkey": pa.nulls(n, pa.int64()) if null_vals
                else t["o_custkey"],
                "o_orderstatus": pa.nulls(n, pa.string()) if null_vals
                else t["o_orderstatus"],
                "o_totalprice": price,
                "seq": pa.array(np.full(n, seq, np.int64), pa.int64()),
                "op": pa.array([op] * n, pa.string()),
            }, schema=ch_schema))

        t = batch.filter(pa.array(kk % 10 == 3))
        emit(t, t["o_orderkey"], pc.add(t["o_totalprice"], 1000.0), 2, "U")
        t = batch.filter(pa.array(kk % 10 == 7))
        emit(t, t["o_orderkey"], pa.nulls(t.num_rows, pa.float64()),
             1, "D", null_vals=True)
        t = batch.filter(pa.array(kk % 10 == 1))
        emit(t, pc.add(t["o_orderkey"],
                       pa.scalar(1_000_000_000, pa.int64())),
             pc.multiply(t["o_totalprice"], 0.5), 3, "U")
        t = batch.filter(pa.array(kk % 100 == 13))
        emit(t, t["o_orderkey"], pc.multiply(t["o_totalprice"], 2.0),
             5, "U")
        return strip_meta(pa.concat_tables(parts))

    merged = apply_changes(
        _read(sf_dir, "orders", cols),
        _read(sf_dir, "orders", cols).map_batches(
            make_changes, batch_format="pyarrow", zero_copy_batch=True),
        key="o_orderkey", snapshot_schema=snap_schema,
        changes_schema=ch_schema)

    def partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(
            pc.multiply(batch["o_totalprice"], 100.0), 0.5)), pa.int64())
        t = pa.table({"o_orderstatus": batch["o_orderstatus"],
                      "cents": cents, "k": batch["o_orderkey"]})
        g = t.group_by("o_orderstatus").aggregate(
            [("cents", "sum"), ("k", "sum"), ("k", "count")])
        return strip_meta(pa.table({
            "o_orderstatus": g["o_orderstatus"],
            "n_rows": g["k_count"].cast(pa.int64()),
            "sum_cents": g["cents_sum"].cast(pa.int64()),
            "sum_keys": g["k_sum"].cast(pa.int64())}))

    parts = _collect(merged.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    g = parts.group_by("o_orderstatus").aggregate(
        [("n_rows", "sum"), ("sum_cents", "sum"), ("sum_keys", "sum")])
    return pa.table({
        "o_orderstatus": g["o_orderstatus"],
        "n_rows": g["n_rows_sum"].cast(pa.int64()),
        "sum_cents": g["sum_cents_sum"].cast(pa.int64()),
        "sum_keys": g["sum_keys_sum"].cast(pa.int64()),
    }).sort_by("o_orderstatus")


def q_locf_events(sf_dir: str) -> pa.Table:
    """Per-user forward-fill (ops.aggregates.grouped_locf — SQL
    ``last_value(x IGNORE NULLS) OVER (PARTITION BY user ORDER BY ts,
    event_id ROWS UNBOUNDED PRECEDING)``): value is treated as OBSERVED
    only on purchase/click events (a deterministic mask applied
    identically in the oracle), every other row carries the user's last
    observation forward; rows before a user's first observation stay
    null. One key-hash bucket shuffle, vectorized in-bucket fill."""
    from jsonschema_validator_ray.ops.aggregates import grouped_locf
    from jsonschema_validator_ray.rayutil import strip_meta

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def mask(batch: pa.Table) -> pa.Table:
        obs = pc.if_else(
            pc.is_in(batch["event_type"],
                     value_set=pa.array(["purchase", "click"])),
            batch["value"], pa.nulls(batch.num_rows, pa.float64()))
        return strip_meta(pa.table({
            "user_id": batch["user_id"], "ts": batch["ts"],
            "event_id": batch["event_id"], "obs": obs}))

    out = _collect(grouped_locf(
        ds.map_batches(mask, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", ["ts", "event_id"], "obs"))
    return out.select(["user_id", "event_id", "filled"]) \
        .sort_by("event_id")


def q_throttle_events(sf_dir: str) -> pa.Table:
    """Windowed throttle / dedup-by-time-window
    (ops.aggregates.windowed_first — SQL ``row_number() OVER (PARTITION
    BY user_id, date_trunc('hour', ts) ORDER BY ts, event_id) = 1``):
    keep each user's FIRST event per clock hour. The hour column is
    ``pc.floor_temporal(ts, unit="hour")`` = DuckDB ``date_trunc``.
    One bucket shuffle hashed on user_id only (all of a user's windows
    co-locate); composite run detection via OR-ed run_starts masks."""
    from jsonschema_validator_ray.ops.aggregates import windowed_first
    from jsonschema_validator_ray.rayutil import strip_meta

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def add_hour(batch: pa.Table) -> pa.Table:
        return strip_meta(pa.table({
            "user_id": batch["user_id"],
            "hour": pc.floor_temporal(batch["ts"], unit="hour"),
            "ts": batch["ts"], "event_id": batch["event_id"]}))

    out = _collect(windowed_first(
        ds.map_batches(add_hour, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id", "hour"], ["ts", "event_id"]))
    return out.select(["user_id", "event_id"]).sort_by("event_id")


def q_event_transitions(sf_dir: str) -> pa.Table:
    """Markov next-event transition matrix
    (ops.aggregates.transition_counts — SQL ``lead(event_type) OVER
    (PARTITION BY user_id ORDER BY ts, event_id)`` + GROUP BY): counts
    and conditional probabilities P(to | from) over adjacent event pairs
    per user. Partial counts per bucket (|types|² rows), folded
    driver-side; p = n/total is one IEEE division of exact ints on both
    sides, so the float matches the oracle bitwise."""
    from jsonschema_validator_ray.ops.aggregates import transition_counts

    parts = _collect(transition_counts(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]),
        "user_id", ["ts", "event_id"], "event_type"))
    g = parts.group_by(["from_tag", "to_tag"]).aggregate([("n", "sum")])
    ft = g["from_tag"].to_pylist()
    n = np.asarray(g["n_sum"].to_pylist(), np.int64)
    totals: dict = {}
    for f, c in zip(ft, n):
        totals[f] = totals.get(f, 0) + int(c)
    p = n.astype(np.float64) / np.array([totals[f] for f in ft],
                                        np.float64)
    return pa.table({
        "from_type": g["from_tag"], "to_type": g["to_tag"],
        "n": g["n_sum"].cast(pa.int64()),
        "p": pa.array(p, pa.float64()),
    }).sort_by([("from_type", "ascending"), ("to_type", "ascending")])


def q_compact_documents(sf_dir: str) -> pa.Table:
    """Small-file compaction round-trip (ops.sink.compact_parquet): the
    documents table is first written as MANY content-addressed parts
    (repartition(32) -> ~32 small files), then compacted shuffle-free to
    a handful of target-sized files; the per-lang aggregate is recomputed
    from the COMPACTED directory — equal to the oracle over the original
    table iff compaction preserved every row and string. The query
    asserts the file count actually dropped (the op's whole point)."""
    import shutil

    import ray.data

    from jsonschema_validator_ray.ops.sink import (compact_parquet,
                                                   write_partitioned_parquet)
    from jsonschema_validator_ray.rayutil import strip_meta

    src = "/tmp/graft_files/compact_src"
    dst = "/tmp/graft_files/compact_dst"
    # content-addressed sinks union stale generations across sf switches
    shutil.rmtree(src, ignore_errors=True)
    shutil.rmtree(dst, ignore_errors=True)
    write_partitioned_parquet(
        _read(sf_dir, "documents", ["doc_id", "lang", "text"])
        .repartition(32), src)
    stats = compact_parquet(src, dst, target_rows_per_file=1_000_000_000)
    if not (stats["n_files_out"] < stats["n_files_in"]):
        raise AssertionError(f"compaction did not reduce files: {stats}")

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"lang": batch["lang"],
                      "chars": pc.utf8_length(batch["text"]),
                      "doc_id": batch["doc_id"]})
        g = t.group_by("lang").aggregate(
            [("doc_id", "count"), ("doc_id", "sum"), ("chars", "sum")])
        return strip_meta(pa.table({
            "lang": g["lang"],
            "n_docs": g["doc_id_count"].cast(pa.int64()),
            "sum_ids": g["doc_id_sum"].cast(pa.int64()),
            "sum_chars": g["chars_sum"].cast(pa.int64())}))

    parts = _collect(ray.data.read_parquet(dst).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    g = parts.group_by("lang").aggregate(
        [("n_docs", "sum"), ("sum_ids", "sum"), ("sum_chars", "sum")])
    return pa.table({
        "lang": g["lang"],
        "n_docs": g["n_docs_sum"].cast(pa.int64()),
        "sum_ids": g["sum_ids_sum"].cast(pa.int64()),
        "sum_chars": g["sum_chars_sum"].cast(pa.int64()),
    }).sort_by("lang")


def q_npy_roundtrip_embeddings(sf_dir: str) -> pa.Table:
    """NumPy .npy source/sink over the embedding matrix: embeddings
    (list<float>) -> one float32 matrix shard per block (write_numpy) ->
    read_npy -> an order-independent quantized checksum recomputed from
    the REREAD ndarrays. The checksum quantizes each element with
    floor(x*1e6 + 0.5) in float64 — bit-deterministic IEEE ops that DuckDB
    evaluates identically, avoiding both float-summation order and the
    round-half-even vs half-away divergence."""
    import numpy as np

    from jsonschema_validator_ray.sources.files import read_npy, write_npy

    path = "/tmp/graft_files/npy_embeddings"

    def to_mat(batch: pa.Table) -> dict:
        emb = batch["embedding"].combine_chunks()
        offs = emb.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if widths.size and (widths != widths[0]).any():
            raise ValueError("ragged embedding lists cannot shard to .npy")
        flat = emb.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float32, copy=False)
        return {"data": flat.reshape(len(emb), int(widths[0]))
                if widths.size else flat.reshape(0, 0)}

    write_npy(_read(sf_dir, "embeddings", ["embedding"]).map_batches(
        to_mat, batch_format="pyarrow", zero_copy_batch=True),
        path, "data")

    def checks(batch: dict) -> dict:
        m = np.asarray(batch["data"], dtype=np.float64)
        q = np.floor(m * 1e6 + 0.5).astype(np.int64)
        return {"n_vecs": np.array([m.shape[0]], np.int64),
                "dim": np.array([m.shape[1]], np.int64),
                "qsum": np.array([int(q.sum())], np.int64)}

    parts = _collect(read_npy(path).map_batches(checks,
                                                batch_format="numpy"))
    return pa.table({
        "n_vecs": pa.array([pc.sum(parts["n_vecs"]).as_py()], pa.int64()),
        "dim": pa.array([pc.max(parts["dim"]).as_py()], pa.int64()),
        "qsum": pa.array([pc.sum(parts["qsum"]).as_py()], pa.int64()),
    })


def q_spearman_lineitem(sf_dir: str) -> pa.Table:
    """Exact tie-aware Spearman rank correlation of quantity vs
    extendedprice (ops.stats.spearman_corr: JOIN-FREE — broadcast x-rank
    lookup + one sorted-distinct scan emitting partial moments; the cross
    moment folds as sum_y ry * (sum of rx over y's rows))."""
    from jsonschema_validator_ray.ops.stats import spearman_corr

    r = spearman_corr(
        lambda: _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"]),
        "l_quantity", "l_extendedprice")
    return pa.table({
        "spearman_r6": pa.array([round(r["spearman"], 6)], pa.float64()),
        "n": pa.array([r["n"]], pa.int64()),
    })


def q_dense_hourly_events(sf_dir: str) -> pa.Table:
    """Gap-filled hourly counts (time-series densify/resample): empty
    hours appear with n=0 (ops.aggregates.dense_time_counts — per-batch
    bucket partials, calendar-sized driver fold, np.arange calendar)."""
    from jsonschema_validator_ray.ops.aggregates import dense_time_counts

    return dense_time_counts(_read(sf_dir, "events", ["ts"]), "ts",
                             unit="hour")


def q_zscore_flags_events(sf_dir: str) -> pa.Table:
    """Per-type z-score outlier counts (feature-scaling QA): mergeable
    moments fold -> broadcast (mean, stddev_pop) -> streaming flag count
    (ops.aggregates.grouped_zscore_flags, zero shuffle)."""
    from jsonschema_validator_ray.ops.aggregates import grouped_zscore_flags

    return grouped_zscore_flags(
        lambda: _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value", k=2.0)


def q_global_quantiles_lineitem(sf_dir: str) -> pa.Table:
    """Exact global quantile_cont WITHOUT a full-data sort
    (ops.stats.global_quantiles: (value, cnt) fold -> distinct-value-scale
    range sort -> each block emits only the ranks covering a target —
    at most 8 rows leave the workers)."""
    from jsonschema_validator_ray.ops.stats import global_quantiles

    r = global_quantiles(_read(sf_dir, "lineitem", ["l_extendedprice"]),
                         "l_extendedprice", qs=(0.25, 0.5, 0.75, 0.99))
    q = r["quantiles"]
    return pa.table({
        "q25": pa.array([round(q[0.25], 5)], pa.float64()),
        "q50": pa.array([round(q[0.5], 5)], pa.float64()),
        "q75": pa.array([round(q[0.75], 5)], pa.float64()),
        "q99": pa.array([round(q[0.99], 5)], pa.float64()),
        "n": pa.array([r["n"]], pa.int64()),
    })


def q_mad_outliers_events(sf_dir: str) -> pa.Table:
    """Robust per-type outlier flagging: |value - median| > 3 * MAD
    (ops.aggregates.mad_outlier_filter — two exact grouped-median passes
    broadcast into a streaming filter; bit-exact vs quantile_cont SQL)."""
    from jsonschema_validator_ray.ops.aggregates import mad_outlier_filter

    out = _collect(mad_outlier_filter(
        lambda: _read(sf_dir, "events", ["event_id", "event_type", "value"]),
        "event_type", "value", k=3.0))
    return pa.table({
        "event_id": out["event_id"].cast(pa.int64()),
        "event_type": out["event_type"],
    }).sort_by("event_id")


def q_corr_lineitem(sf_dir: str) -> pa.Table:
    """Per-returnflag Pearson corr(quantity, extendedprice) — algebraic
    moments partial+final, no shuffle."""
    from jsonschema_validator_ray.ops.aggregates import grouped_corr

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])
    out = grouped_corr(ds, "l_returnflag", "l_quantity", "l_extendedprice")
    return pa.table({
        "l_returnflag": out["l_returnflag"],
        "n": out["n"],
        "corr_r6": pc.round(out["corr"], ndigits=6),
    }).sort_by("l_returnflag")


def q_schema_union_documents(sf_dir: str) -> pa.Table:
    """Schema-evolution union (sources.files.union_by_name): documents is
    split into two on-disk parquet generations with DIFFERENT column sets
    (even doc_ids carry (doc_id, lang, n_chars); odd ones the later
    (doc_id, source) shape), read back as two Datasets and unioned by
    name over the null-filled superset schema — then one aggregate whose
    per-column null counts prove both the row union and the padding."""
    from jsonschema_validator_ray.ops.sink import write_partitioned_parquet
    from jsonschema_validator_ray.rayutil import clean_read_schema, strip_meta

    def keep_parity(par: int):
        def fn(batch: pa.Table) -> pa.Table:
            ok = pc.equal(pc.bit_wise_and(batch["doc_id"],
                                          pa.scalar(1, pa.int64())),
                          pa.scalar(par, pa.int64()))
            return strip_meta(batch.filter(ok))
        return fn

    even = _read(sf_dir, "documents",
                 ["doc_id", "lang", "n_chars"]).map_batches(
        keep_parity(0), batch_format="pyarrow", zero_copy_batch=True)
    odd = _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        keep_parity(1), batch_format="pyarrow", zero_copy_batch=True)
    import shutil

    # the sink is resume-by-skip (content-addressed): clear the fixture
    # dir so a different-sf rerun cannot union stale generations
    shutil.rmtree("/tmp/graft_files/schema_union", ignore_errors=True)
    dirs = {}
    for name, part in (("gen_a", even), ("gen_b", odd)):
        out_dir = f"/tmp/graft_files/schema_union/{name}"
        write_partitioned_parquet(part, out_dir)
        dirs[name] = out_dir

    import ray.data

    from jsonschema_validator_ray.sources.files import union_by_name

    def _rd(d):
        import glob
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        sch = clean_read_schema(files[0], None)
        return ray.data.read_parquet(files, schema=sch), sch

    ds_a, sch_a = _rd(dirs["gen_a"])
    ds_b, sch_b = _rd(dirs["gen_b"])
    u = union_by_name([ds_a, ds_b], [sch_a, sch_b])

    def partial(batch: pa.Table) -> pa.Table:
        return strip_meta(pa.table({
            "n_rows": pa.array([batch.num_rows], pa.int64()),
            "n_lang": pa.array(
                [batch.num_rows - batch["lang"].null_count], pa.int64()),
            "n_source": pa.array(
                [batch.num_rows - batch["source"].null_count], pa.int64()),
            "sum_chars": pa.array(
                [pc.sum(batch["n_chars"]).as_py() or 0], pa.int64()),
        }))

    parts = _collect(u.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True))
    return pa.table({
        c: pa.array([pc.sum(parts[c]).as_py() or 0], pa.int64())
        for c in ("n_rows", "n_lang", "n_source", "sum_chars")})


def q_regression_events(sf_dir: str) -> pa.Table:
    """Per-event-type OLS fit of value on hour-of-day
    (ops.aggregates.grouped_linear_regression — mergeable moments
    partial+final, no shuffle): the load/quality-trend primitive. SQL
    regr_slope/regr_intercept semantics, 6 dp."""
    from jsonschema_validator_ray.ops.aggregates import \
        grouped_linear_regression
    from jsonschema_validator_ray.rayutil import strip_meta

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def add_hod(batch: pa.Table) -> pa.Table:
        return strip_meta(pa.table({
            "event_type": batch["event_type"],
            "hod": pc.hour(batch["ts"]).cast(pa.float64()),
            "value": batch["value"],
        }))

    out = grouped_linear_regression(
        ds.map_batches(add_hod, batch_format="pyarrow",
                       zero_copy_batch=True), "event_type", "hod", "value")
    return pa.table({
        "event_type": out["event_type"],
        "n": out["n"],
        "slope_r6": pc.round(out["slope"], ndigits=6),
        "intercept_r6": pc.round(out["intercept"], ndigits=6),
    }).sort_by("event_type")


def q_covariance_embeddings(sf_dir: str) -> pa.Table:
    """Population covariance matrix of the first 4 embedding coordinates
    (ops.stats.embedding_covariance — ONE streaming pass, one BLAS matmul
    partial per batch, O(dims²) fold state, no shuffle): the
    whitening/PCA-prep primitive. SQL covar_pop semantics, 6 dp."""
    from jsonschema_validator_ray.ops.stats import embedding_covariance

    out = embedding_covariance(
        _read(sf_dir, "embeddings", ["embedding"]), "embedding", dims=4)
    return pa.table({
        "i": out["i"], "j": out["j"], "n": out["n"],
        "cov_r6": pc.round(out["cov"], ndigits=6),
    }).sort_by([("i", "ascending"), ("j", "ascending")])


def q_weighted_sample_documents(sf_dir: str) -> pa.Table:
    """A-Res weighted sample: 50 docs selected with probability ∝ length,
    deterministic hash uniforms — SQL reproduces the exact selection."""
    from jsonschema_validator_ray.ops.sampling import weighted_sample

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    t = weighted_sample(ds, "doc_id", "n_chars", 50, seed=7)
    return pa.table({
        "doc_id": t["doc_id"].cast(pa.int64()),
        "score_r6": pc.round(t["score"], ndigits=6),
    }).sort_by("doc_id")


def q_semdedup_embeddings(sf_dir: str) -> pa.Table:
    """SELF-ORACLE (embedding_neardup_ivf precedent, documented there):
    SemDeDup keeper selection — drop every vector with an earlier-id
    cosine-neighbor ≥ 0.45, pairs generated cluster-locally with the same
    deterministic 3-probe IVF whose recall is 1.0 on these corpora, so the
    dropped set must EQUAL the exact all-pairs SQL derivation."""
    from jsonschema_validator_ray.ops.dedup import semdedup

    ds = _read_staged(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semdedup(ds, "vec_id", "embedding", threshold=0.45,
                    n_centroids=8, n_assign=3)


def q_chunk_dedup_documents(sf_dir: str) -> pa.Table:
    """Cross-document exact span dedup: 3-word chunks, global first
    occurrence kept, per-doc reassembled text compared by md5."""
    from jsonschema_validator_ray.ops.dedup import chunk_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(chunk_dedup(ds, "doc_id", "text", window=3))
    return out.select(["doc_id", "n_chunks", "n_kept", "clean_md5"]) \
        .sort_by("doc_id")


def q_asof_join_events_orders(sf_dir: str) -> pa.Table:
    """Backward AS-OF join: each event matched to the SAME user's latest
    order at-or-before the event timestamp (``ops.join.asof_join`` — one
    hash-bucket shuffle, vectorized searchsorted match in-bucket), then the
    order stats AT the matched date via ``ops.join.range_agg_join`` with a
    degenerate ``[asof, asof+1us)`` interval. The output (matched date +
    aggregates at that date) is tie-insensitive, so it compares exactly
    against DuckDB's native ASOF JOIN. Money in integer cents."""
    from jsonschema_validator_ray.ops.join import asof_join, range_agg_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])
    matched = asof_join(events, orders.select_columns(
        ["o_custkey", "o_orderdate"]), on="user_id", right_on="o_custkey",
        left_ts="ts", right_ts="o_orderdate",
        left_schema=pa.schema([("event_id", pa.int64()),
                               ("user_id", pa.int64()),
                               ("ts", pa.timestamp("us"))]),
        right_ts_type=pa.timestamp("us"))

    def add_end(batch: pa.Table) -> pa.Table:
        a = batch["asof_ts"].cast(pa.int64())
        return batch.append_column(
            "asof_end", pc.add(a, pa.scalar(1, pa.int64())))

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "o_orderdate": batch["o_orderdate"],
            "price_cents": pc.cast(pc.round(pc.multiply(
                batch["o_totalprice"], 100.0)), pa.int64())})

    # materialize between the asof groupby and the range-agg groupby:
    # chaining two all-to-alls in one streaming execution measured ~2x
    # slower (round-1 finding); the matched stream is left-table-sized
    out = range_agg_join(
        matched.map_batches(add_end, batch_format="pyarrow",
                            zero_copy_batch=True).materialize(),
        orders.map_batches(cents, batch_format="pyarrow",
                           zero_copy_batch=True),
        on="user_id", point_on="o_custkey", start="asof_ts",
        end="asof_end", point_ts="o_orderdate", value="price_cents",
        # static schema: a schema probe here would re-run the asof shuffle
        range_schema=pa.schema([
            ("event_id", pa.int64()), ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")), ("asof_ts", pa.timestamp("us")),
            ("asof_end", pa.int64())]))
    t = _collect(out)
    return pa.table({
        "event_id": t["event_id"],
        "user_id": t["user_id"],
        "asof_date": t["asof_ts"],
        "n_at_asof": t["n_points"],
        "sum_price_cents": t["sum_value"],
    }).sort_by("event_id")


def q_order_window_events(sf_dir: str) -> pa.Table:
    """Range (interval) aggregate join: per order, the count and value-sum
    of the SAME user's events inside ``[o_orderdate, o_orderdate+7d)`` —
    ``ops.join.range_agg_join``: one shuffle, per-bucket lexsort +
    prefix-sum + two searchsorted's per interval, so only |orders| rows
    leave the shuffle however dense the events. LEFT semantics (orders
    with no events report 0)."""
    from jsonschema_validator_ray.ops.join import range_agg_join

    week_us = 7 * 86400 * 10**6

    def mk_ranges(batch: pa.Table) -> pa.Table:
        d = batch["o_orderdate"].cast(pa.int64())
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_custkey": batch["o_custkey"],
            "w_start": d,
            "w_end": pc.add(d, pa.scalar(week_us, pa.int64()))})

    def mk_points(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"], "ts": batch["ts"],
            "value_cents": pc.cast(pc.round(pc.multiply(
                batch["value"], 100.0)), pa.int64())})

    ranges = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(mk_ranges, batch_format="pyarrow", zero_copy_batch=True)
    points = _read(sf_dir, "events", ["user_id", "ts", "value"]) \
        .map_batches(mk_points, batch_format="pyarrow", zero_copy_batch=True)
    t = _collect(range_agg_join(ranges, points, on="o_custkey",
                                point_on="user_id", start="w_start",
                                end="w_end", point_ts="ts",
                                value="value_cents",
                                range_schema=pa.schema([
                                    ("o_orderkey", pa.int64()),
                                    ("o_custkey", pa.int64()),
                                    ("w_start", pa.int64()),
                                    ("w_end", pa.int64())])))
    return pa.table({
        "o_orderkey": t["o_orderkey"],
        "n_events": t["n_points"],
        "sum_value_cents": t["sum_value"],
    }).sort_by("o_orderkey")


def q_value_quantiles_by_event_type(sf_dir: str) -> pa.Table:
    """EXACT grouped quantiles (q25/q50/q90 of event value per event_type)
    via ``ops.aggregates.grouped_quantiles`` — hash-bucket groupby, one
    sort + segmented ``np.quantile`` per bucket; linear interpolation
    matches SQL ``quantile_cont`` bit-for-bit (rounded to 6 digits for the
    value-hash)."""
    from jsonschema_validator_ray.ops.aggregates import grouped_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    t = _collect(grouped_quantiles(ds, "event_type", "value",
                                   [0.25, 0.5, 0.9]))
    return pa.table({
        "event_type": t["event_type"],
        "n": t["n"],
        "q25": pc.round(t["q25"], ndigits=6),
        "q50": pc.round(t["q50"], ndigits=6),
        "q90": pc.round(t["q90"], ndigits=6),
    }).sort_by("event_type")


def q_top3_orders_per_customer(sf_dir: str) -> pa.Table:
    """Per-group top-k window (``row_number() OVER (PARTITION BY o_custkey
    ORDER BY o_totalprice DESC, o_orderkey) <= 3``) via
    ``ops.aggregates.grouped_top_k`` — one bucket shuffle, numpy lexsort +
    segmented rank per bucket, only 3 rows per customer leave the stage.
    Price in integer cents (exact in this corpus)."""
    from jsonschema_validator_ray.ops.aggregates import grouped_top_k

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "o_orderkey": batch["o_orderkey"],
            "price_cents": pc.cast(pc.round(pc.multiply(
                batch["o_totalprice"], 100.0)), pa.int64())})

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_totalprice"]) \
        .map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    t = _collect(grouped_top_k(ds, "o_custkey", "price_cents", 3,
                               descending=True, tiebreak="o_orderkey"))
    return t.select(["o_custkey", "o_orderkey", "price_cents", "rk"]) \
        .sort_by([("o_custkey", "ascending"), ("rk", "ascending")])


def q_multimodal_image_features(sf_dir: str) -> pa.Table:
    """Image decode → resize → mean-pool over an actor pool, SELF-ORACLED:
    ``dec_width``/``dec_height`` come from the decoded PPM header (the SQL
    oracle re-derives them from the generator's deterministic size formula),
    and ``feature_exact`` is elementwise equality of the Ray-computed
    rgb_mean against a driver-side recompute from the regenerated payloads —
    a real round-trip check surfaced through the gate."""
    import ray.data

    from jsonschema_validator_ray.ops.multimodal import (
        ImageFeatureStage, decode_ppm, extract_image_features,
        synthetic_media_table)

    media = synthetic_media_table(96)
    ds = ray.data.from_arrow(media)
    out = _collect(extract_image_features(ds)).sort_by("media_id")

    # ground truth: regenerate + decode locally with the same math
    stage = ImageFeatureStage(target=32)
    truth = {}
    for mid, mtype, payload in zip(media["media_id"].to_pylist(),
                                   media["media_type"].to_pylist(),
                                   media["payload"].to_pylist()):
        if mtype == "image":
            img = decode_ppm(payload)
            truth[mid] = stage._resize_nn(img).reshape(-1, 3) \
                .mean(axis=0).astype("float32")
    exact = [bool((truth[mid] == pa.array(f).to_numpy(
                zero_copy_only=False)).all())
             for mid, f in zip(out["media_id"].to_pylist(),
                               out["rgb_mean"].to_pylist())]
    return pa.table({
        "media_id": out["media_id"],
        "width": out["dec_width"],
        "height": out["dec_height"],
        "feature_exact": pa.array(exact),
    })


def q_multimodal_audio_frames(sf_dir: str) -> pa.Table:
    """Audio frame-sampling over real PCM WAV payloads (stdlib decode),
    actor-pool stage with small batches for binary columns. SELF-ORACLED:
    ``n_frames`` is re-derived by the SQL oracle from the generator's
    deterministic sample count, and ``rms_exact`` compares the Ray-computed
    RMS against a driver-side decode-and-recompute of the same payloads."""
    import numpy as np
    import ray.data

    from jsonschema_validator_ray.ops.multimodal import (
        decode_wav, sample_audio_frames, synthetic_media_table)

    media = synthetic_media_table(96)
    ds = ray.data.from_arrow(media)
    out = _collect(sample_audio_frames(ds)).sort_by("media_id")

    truth = {}
    for mid, mtype, payload in zip(media["media_id"].to_pylist(),
                                   media["media_type"].to_pylist(),
                                   media["payload"].to_pylist()):
        if mtype == "audio":
            samples, _sr = decode_wav(payload)
            truth[mid] = float(np.sqrt(np.mean(samples ** 2)))
    exact = [truth[mid] == rms
             for mid, rms in zip(out["media_id"].to_pylist(),
                                 out["rms"].to_pylist())]
    return pa.table({
        "media_id": out["media_id"],
        "n_frames": out["n_frames"],
        "rms_exact": pa.array(exact),
    })


def q_multimodal_resize_images(sf_dir: str) -> pa.Table:
    """Image decode → nearest-neighbor resize → PPM RE-ENCODE over an actor
    pool — image-in/image-out normalization (every image leaves at 48×48).
    SELF-ORACLED like the other multimodal queries: original decoded dims
    are re-derived by the SQL oracle from the generator's size formula, and
    ``payload_exact`` is BYTE equality of each Ray-resized PPM payload
    against a driver-side decode→resize→encode recompute — the strongest
    round-trip check (deterministic encode makes it possible)."""
    import ray.data

    from jsonschema_validator_ray.ops.multimodal import (
        ImageResizeStage, _encode_ppm, decode_ppm, resize_images,
        synthetic_media_table)

    media = synthetic_media_table(96)
    ds = ray.data.from_arrow(media)
    out = _collect(resize_images(ds, target_w=48, target_h=48)) \
        .sort_by("media_id")

    stage = ImageResizeStage(target_w=48, target_h=48)
    truth = {}
    for mid, mtype, payload in zip(media["media_id"].to_pylist(),
                                   media["media_type"].to_pylist(),
                                   media["payload"].to_pylist()):
        if mtype == "image":
            truth[mid] = _encode_ppm(stage._resize_nn(decode_ppm(payload)))
    keep = [i for i, t in enumerate(out["media_type"].to_pylist())
            if t == "image"]
    img = out.take(keep)
    exact = [truth[mid] == p
             for mid, p in zip(img["media_id"].to_pylist(),
                               img["payload"].to_pylist())]
    return pa.table({
        "media_id": img["media_id"],
        "width": pc.cast(img["width"], pa.int64()),
        "height": pc.cast(img["height"], pa.int64()),
        "orig_width": pc.cast(img["orig_width"], pa.int64()),
        "orig_height": pc.cast(img["orig_height"], pa.int64()),
        "payload_exact": pa.array(exact),
    })


def q_multimodal_video_frames(sf_dir: str) -> pa.Table:
    """Video frame-sampling over REAL y4m (YUV4MPEG2 C444) payloads — pure
    numpy decode, actor pool, small batches. SELF-ORACLED like the
    image/audio queries: decoded dims and frame counts are re-derived by
    the SQL oracle from the generator's deterministic formulas
    (n_frames = 4 + (i // 3) % 3, sampled at stride 2), and ``luma_exact``
    compares the Ray-computed per-frame luma means against a driver-side
    decode-and-recompute of the regenerated payloads."""
    import numpy as np
    import ray.data

    from jsonschema_validator_ray.ops.multimodal import (
        decode_y4m, sample_video_frames, synthetic_media_table)

    media = synthetic_media_table(96)
    ds = ray.data.from_arrow(media)
    out = _collect(sample_video_frames(ds, stride=2)).sort_by("media_id")

    truth = {}
    for mid, mtype, payload in zip(media["media_id"].to_pylist(),
                                   media["media_type"].to_pylist(),
                                   media["payload"].to_pylist()):
        if mtype == "video":
            frames = decode_y4m(payload)[::2]
            truth[mid] = frames[..., 0].reshape(frames.shape[0], -1) \
                .mean(axis=1).astype(np.float32)
    exact = [bool((truth[mid] == pa.array(v).to_numpy(
                zero_copy_only=False)).all())
             for mid, v in zip(out["media_id"].to_pylist(),
                               out["luma_mean"].to_pylist())]
    return pa.table({
        "media_id": out["media_id"],
        "n_frames": out["n_frames"],
        "n_sampled": out["n_sampled"],
        "width": out["dec_width"],
        "height": out["dec_height"],
        "luma_exact": pa.array(exact),
    })


def q_drift_events_type(sf_dir: str) -> pa.Table:
    """Chi-square drift of event_type frequencies vs the uniform reference.

    The chi² STATISTIC is SQL-expressible and oracle-checked; the p-value
    (regularized incomplete gamma) is not — it is asserted against
    published chi-square table values in tests/test_sketches.py instead."""
    from jsonschema_validator_ray.ops.aggregates import value_counts
    from jsonschema_validator_ray.state.drift import chi_square_test

    ds = _read(sf_dir, "events", ["event_type"])
    vc = value_counts(ds, "event_type")
    observed = dict(zip(vc["event_type"].to_pylist(), vc["n"].to_pylist()))
    stat, pval = chi_square_test(observed, {t: 0.2 for t in EVENT_TYPES})
    n_cats = len(set(observed) | set(EVENT_TYPES))
    return pa.table({
        "constraint_id": pa.array(["drift:event_type"]),
        "statistic": pa.array([round(stat, 6)], pa.float64()),
        "n_categories": pa.array([n_cats], pa.int64()),
    })


def q_repetition_documents(sf_dir: str) -> pa.Table:
    """Intra-document word-repetition metric (dup-span quality filter):
    per doc, n_words / n_distinct_words / dup_ratio — one vectorized
    map_batches pass (``ops.text.add_word_repetition``); ratio arithmetic
    is exactly-rounded IEEE on both engine and oracle sides."""
    from jsonschema_validator_ray.ops.text import add_word_repetition

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _collect(add_word_repetition(ds)).sort_by("doc_id")


def q_tfidf_documents(sf_dir: str) -> pa.Table:
    """Per-document top-3 TF-IDF keyword extraction (linear-idf variant,
    bit-identical scores to SQL — see ``ops.text.tfidf_top_terms``): one
    DF pass + one broadcast-vocab score pass, both column-pruned reads."""
    from jsonschema_validator_ray.ops.text import tfidf_top_terms

    out = _collect(tfidf_top_terms(
        lambda: _read(sf_dir, "documents", ["doc_id", "text"]), k=3))
    return out.sort_by([("doc_id", "ascending"), ("rank", "ascending")])


def q_customer_order_totals(sf_dir: str) -> pa.Table:
    """LEFT OUTER reduce-side join: every customer with order count + exact
    integer-cent spend, customers without orders kept at zero. Orders are
    partially aggregated per batch BEFORE the shuffle (combiner), combined
    per key inside each bucket (``right_fn``), then left-joined — only
    result-scale rows leave the all-to-all."""
    from jsonschema_validator_ray.ops.join import reduce_side_hash_join

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "c_custkey": batch["o_custkey"],
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "cents": pc.cast(pc.round(pc.multiply(batch["o_totalprice"],
                                                  100.0)), pa.int64()),
        })
        g = pa.TableGroupBy(t, "c_custkey").aggregate(
            [("one", "sum"), ("cents", "sum")])
        return pa.table({"c_custkey": g["c_custkey"],
                         "n_part": g["one_sum"].cast(pa.int64()),
                         "cents_part": g["cents_sum"].cast(pa.int64())})

    def combine_right(rt: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(rt, "c_custkey").aggregate(
            [("n_part", "sum"), ("cents_part", "sum")])
        return pa.table({"c_custkey": g["c_custkey"],
                         "n_orders": g["n_part_sum"].cast(pa.int64()),
                         "total_cents": g["cents_part_sum"]
                         .cast(pa.int64())})

    def finish(j: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": j["c_custkey"].cast(pa.int64()),
            "n_orders": pc.fill_null(j["n_orders"], 0).cast(pa.int64()),
            "total_cents": pc.fill_null(j["total_cents"], 0)
            .cast(pa.int64()),
        })

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(reduce_side_hash_join(
        cust, orders, "c_custkey", join_type="left outer",
        right_fn=combine_right, group_fn=finish,
        left_schema=pa.schema([("c_custkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("n_part", pa.int64()),
                                ("cents_part", pa.int64())])))
    return out.sort_by("c_custkey")


def q_sink_roundtrip_documents(sf_dir: str) -> pa.Table:
    """Sink round-trip as a gate row: documents stream through the
    resumable content-addressed Parquet sink (one file per block, atomic
    tmp+rename, manifest) into /tmp, are read BACK with ray.data, and
    per-lang counts + char sums of the round-tripped copy are compared to
    SQL over the ORIGINAL table — write-path fidelity, driver-checked. The
    output dir is keyed by sf_dir and cleared per run (fresh write, not a
    resume skip)."""
    import hashlib
    import shutil

    from jsonschema_validator_ray.ops.sink import write_partitioned_parquet

    out_dir = os.path.join(
        "/tmp/graft_sink_roundtrip",
        hashlib.sha1(sf_dir.encode()).hexdigest()[:12])
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    write_partitioned_parquet(ds, out_dir)

    import ray.data
    back = ray.data.read_parquet(out_dir)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"lang": batch["lang"],
                      "one": pa.array(np.ones(batch.num_rows, np.int64)),
                      "chars": batch["n_chars"].cast(pa.int64())})
        return pa.TableGroupBy(t, "lang").aggregate(
            [("one", "sum"), ("chars", "sum")])

    parts = _collect(back.map_batches(partial, batch_format="pyarrow"))
    g = pa.TableGroupBy(parts, "lang").aggregate(
        [("one_sum", "sum"), ("chars_sum", "sum")]).sort_by("lang")
    return pa.table({"lang": g["lang"],
                     "n_docs": g["one_sum_sum"].cast(pa.int64()),
                     "sum_chars": g["chars_sum_sum"].cast(pa.int64())})


def q_event_deltas(sf_dir: str) -> pa.Table:
    """LAG window analog: per user, microseconds since the PREVIOUS event
    (ordered by ts, event_id; first event per user → null). One hash-bucket
    groupby keeps whole users per bucket; in-bucket it's one sort + one
    vectorized diff — the canonical lag/lead shape at any scale."""
    from jsonschema_validator_ray.rayutil import bucket_groups

    def lag_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"event_id": pa.array([], pa.int64()),
                          "user_id": pa.array([], pa.int64()),
                          "delta_us": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        srt = group.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                             ("event_id", "ascending")])
        uid = srt["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ts = srt["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        delta = np.empty(uid.size, np.int64)
        delta[0] = 0
        delta[1:] = ts[1:] - ts[:-1]
        first = np.empty(uid.size, bool)
        first[0] = True
        first[1:] = uid[1:] != uid[:-1]
        return pa.table({
            "event_id": srt["event_id"].cast(pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "delta_us": pc.if_else(pa.array(first),
                                   pa.nulls(uid.size, pa.int64()),
                                   pa.array(delta, pa.int64())),
        })

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = _collect(bucket_groups(ds, "user_id", lag_bucket))
    return out.sort_by("event_id")


def q_value_histogram_events(sf_dir: str) -> pa.Table:
    """Fixed-bin histogram of event values (profiling op): 20 bins of width
    25, top-clamped. Per-batch ``np.bincount`` partials, one tiny final
    merge — no shuffle at any scale. floor(value/25) is an exactly-rounded
    double op, bitwise-identical to the SQL side."""
    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        bins = np.minimum(np.floor(v / 25.0), 19.0).astype(np.int64)
        counts = np.bincount(bins, minlength=20)
        return pa.table({"bin": pa.array(np.arange(20, dtype=np.int64)),
                         "n": pa.array(counts, pa.int64())})

    parts = _collect(_read(sf_dir, "events", ["value"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    g = pa.TableGroupBy(parts, "bin").aggregate([("n", "sum")])
    g = g.sort_by("bin")
    return pa.table({"bin": g["bin"].cast(pa.int64()),
                     "n": g["n_sum"].cast(pa.int64())})


def q_events_pivot(sf_dir: str) -> pa.Table:
    """Pivot/reshape: one row per day, one count column per event type plus
    the row total (long → wide). One per-batch partial groupby over the
    finest (day, type) level; the pivot happens on the DAYS×TYPES-scale
    merged result, never on raw rows."""
    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "day": pc.floor_temporal(batch["ts"], unit="day"),
            "event_type": batch["event_type"],
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })
        return pa.TableGroupBy(t, ["day", "event_type"]).aggregate(
            [("one", "sum")])

    parts = _collect(_read(sf_dir, "events", ["ts", "event_type"])
                     .map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True))
    fine = pa.TableGroupBy(parts, ["day", "event_type"]).aggregate(
        [("one_sum", "sum")])
    days = fine["day"].to_pylist()
    types = fine["event_type"].to_pylist()
    ns = fine["one_sum_sum"].to_pylist()
    by_day: dict = {}
    for d, ty, n in zip(days, types, ns):       # DAYS×TYPES-scale loop
        by_day.setdefault(d, {})[ty] = n
    day_sorted = sorted(by_day)
    cols: dict = {"day": pa.array(day_sorted, fine["day"].type)}
    for ty in EVENT_TYPES:
        cols[f"n_{ty}"] = pa.array(
            [by_day[d].get(ty, 0) for d in day_sorted], pa.int64())
    cols["n_total"] = pa.array(
        [sum(by_day[d].values()) for d in day_sorted], pa.int64())
    return pa.table(cols)


def q_orders_by_nation(sf_dir: str) -> pa.Table:
    """MAP-SIDE broadcast inner join (vs the reduce-side family): the
    customer→nation dimension map is built once driver-side, ``ray.put``
    ONCE, and every orders batch enriches via two vectorized lookups — the
    fact table is never shuffled; per-batch partials are nation-scale."""
    import pyarrow.parquet as _pq

    import ray

    cust = _pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                          columns=["c_custkey", "c_nationkey"])
    nation = _pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                            columns=["n_nationkey", "n_name"])
    dim = cust.join(nation, keys="c_nationkey", right_keys="n_nationkey")
    dim_ref = ray.put((dim["c_custkey"].combine_chunks(),
                       dim["n_name"].combine_chunks()))

    def partial(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(dim_ref)
        pos = pc.index_in(batch["o_custkey"], value_set=keys)
        t = pa.table({
            "n_name": names.take(pos),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "cents": pc.cast(pc.round(pc.multiply(batch["o_totalprice"],
                                                  100.0)), pa.int64()),
        })
        return pa.TableGroupBy(t, "n_name").aggregate(
            [("one", "sum"), ("cents", "sum")])

    parts = _collect(_read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
                     .map_batches(partial, batch_format="pyarrow"))
    g = pa.TableGroupBy(parts, "n_name").aggregate(
        [("one_sum", "sum"), ("cents_sum", "sum")])
    g = g.sort_by("n_name")
    return pa.table({"n_name": g["n_name"],
                     "n_orders": g["one_sum_sum"].cast(pa.int64()),
                     "total_cents": g["cents_sum_sum"].cast(pa.int64())})


def q_label_centroids_embeddings(sf_dir: str) -> pa.Table:
    """Per-label embedding centroid sums in exact fixed-point (floor(x·2²⁴)
    — tie-free, bit-identical to the SQL side): per-batch partial
    (label, dim) sums via one reduceat, tiny final merge. The aggregation a
    coarse-quantizer / IVF training stage runs over the full corpus."""
    from jsonschema_validator_ray.ops.simsearch import label_centroids

    parts = _collect(label_centroids(
        _read(sf_dir, "embeddings", ["label", "embedding"])))
    g = pa.TableGroupBy(parts, ["label", "dim"]).aggregate(
        [("sum_e24", "sum"), ("n", "sum")])
    return pa.table({
        "label": g["label"].cast(pa.int64()),
        "dim": g["dim"].cast(pa.int64()),
        "sum_e24": g["sum_e24_sum"].cast(pa.int64()),
        "n": g["n_sum"].cast(pa.int64()),
    }).sort_by([("label", "ascending"), ("dim", "ascending")])


def q_top_returns_customers(sf_dir: str) -> pa.Table:
    """TPC-H Q10 shape — the full join-chain composition: returned-item
    revenue per customer, nation name attached, top 20. Stages: (1)
    lineitem read with the `l_returnflag = 'R'` predicate PUSHED INTO the
    scan + per-batch partial revenue aggregation by order (exact integer
    e4 units); (2) ONE reduce-side hash join against orders with in-bucket
    combine, emitting customer-keyed partials only; (3) customer + nation
    are dimension tables → broadcast-joined driver-side (customer-scale,
    never shuffled); (4) global top-20. Only result-scale rows ever leave
    the one all-to-all."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from jsonschema_validator_ray.ops.join import reduce_side_hash_join
    from jsonschema_validator_ray.rayutil import ensure_worker_importable
    ensure_worker_importable()

    def rev_partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"],
                                             100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        t = pa.table({"o_orderkey": batch["l_orderkey"], "rev": rev})
        g = pa.TableGroupBy(t, "o_orderkey").aggregate([("rev", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "rev_part": g["rev_sum"].cast(pa.int64())})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_returnflag"],   # filter column rides in the read schema
               filter=(pads.field("l_returnflag") == "R")) \
        .map_batches(rev_partial, batch_format="pyarrow",
                     zero_copy_batch=True)

    def combine_right(rt: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(rt, "o_orderkey").aggregate([("rev_part", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "rev": g["rev_part_sum"].cast(pa.int64())})

    def by_customer(j: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(j.select(["o_custkey", "rev"]), "o_custkey") \
            .aggregate([("rev", "sum")])
        return pa.table({"c_custkey": g["o_custkey"].cast(pa.int64()),
                         "rev_part": g["rev_sum"].cast(pa.int64())})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    per_cust = _collect(reduce_side_hash_join(
        orders, li, "o_orderkey", right_fn=combine_right,
        group_fn=by_customer,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("rev_part", pa.int64())])))
    total = pa.TableGroupBy(per_cust, "c_custkey") \
        .aggregate([("rev_part", "sum")])

    # dimension joins stay driver-side (customer/nation-scale, no shuffle)
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    j = pa.table({"c_custkey": total["c_custkey"].cast(pa.int64()),
                  "revenue_e4": total["rev_part_sum"].cast(pa.int64())}) \
        .join(cust, keys="c_custkey", join_type="inner") \
        .join(nation, keys="c_nationkey", right_keys="n_nationkey",
              join_type="inner")
    j = j.sort_by([("revenue_e4", "descending"), ("c_custkey", "ascending")])
    return j.select(["c_custkey", "c_name", "n_name", "revenue_e4"]) \
        .slice(0, 20)


def q_quality_filter_by_lang(sf_dir: str) -> pa.Table:
    """Group-relative quality gating (the per-source/per-language threshold
    step of a corpus-curation pipeline): keep docs whose mean word length
    is at or above their LANGUAGE's exact median. Composition: one
    vectorized feature pass → exact grouped median (hash-bucket groupby,
    lang-sized result) → broadcast the 5-row threshold table → streamed
    filter pass. Equality at the boundary is IEEE-safe: an interpolated
    median can only equal a doc's value when its two middle neighbors are
    equal, where numpy and quantile_cont agree bitwise."""
    import ray

    from jsonschema_validator_ray.ops.aggregates import grouped_quantiles

    def featurize(batch: pa.Table) -> pa.Table:
        n_chars = pc.utf8_length(batch["text"]).cast(pa.float64())
        n_words = pc.add(pc.count_substring(batch["text"], " "), 1) \
            .cast(pa.float64())
        return pa.table({"doc_id": batch["doc_id"], "lang": batch["lang"],
                         "mean_word_len": pc.divide(n_chars, n_words)})

    feats = _read(sf_dir, "documents", ["doc_id", "lang", "text"]) \
        .map_batches(featurize, batch_format="pyarrow", zero_copy_batch=True)
    med_tbl = _collect(grouped_quantiles(feats, "lang", "mean_word_len",
                                         [0.5]))
    med_ref = ray.put((med_tbl["lang"].combine_chunks(),
                       med_tbl["q50"].combine_chunks()))

    def keep(batch: pa.Table) -> pa.Table:
        langs, meds = ray.get(med_ref)
        thresh = meds.take(pc.index_in(batch["lang"], value_set=langs))
        return batch.filter(pc.greater_equal(batch["mean_word_len"],
                                             thresh))

    out = _collect(feats.map_batches(keep, batch_format="pyarrow"))
    return out.sort_by("doc_id")


def q_term_search_documents(sf_dir: str) -> pa.Table:
    """Inverted-index build (one term-hash-bucket shuffle, posting blobs)
    + boolean AND search: docs containing BOTH 'hash' and 'window'. The
    search touches only the two matched posting rows, never the corpus."""
    from jsonschema_validator_ray.ops.index import (build_inverted_index,
                                                    term_search)

    idx = build_inverted_index(_read(sf_dir, "documents",
                                     ["doc_id", "text"]))
    docs = term_search(idx, ["hash", "window"], mode="and")
    return pa.table({"doc_id": pa.array(np.sort(docs), pa.int64())})


def q_chunk_documents(sf_dir: str) -> pa.Table:
    """Fixed-width overlapping character chunking (embedding/context-window
    prep): 200-char windows, 40-char overlap (stride 160). Row-local
    flat-map, no shuffle; oracled by a lateral generate-series substring."""
    from jsonschema_validator_ray.ops.text import chunk_text

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _collect(chunk_text(ds, chunk_chars=200, overlap=40))
    return out.sort_by([("doc_id", "ascending"), ("chunk_idx", "ascending")])


def q_redact_events_props(sf_dir: str) -> pa.Table:
    """Regex redaction (PII-scrub shape) over the error events' JSON props:
    digit runs -> <NUM> plus a per-row match count. Scan-pushdown filter on
    event_type; Arrow RE2 kernels == DuckDB regexp semantics."""
    import pyarrow.dataset as pads

    from jsonschema_validator_ray.ops.text import redact_pattern

    ds = _read(sf_dir, "events", ["event_id", "props", "event_type"],
               filter=(pads.field("event_type") == "error"))
    out = _collect(redact_pattern(ds, "props"))
    return pa.table({
        "event_id": out["event_id"],
        "redacted": out["redacted"],
        "n_redactions": out["n_redactions"],
    }).sort_by("event_id")


def q_cluster_assign_embeddings(sf_dir: str) -> pa.Table:
    """Distributed nearest-centroid assignment + per-cluster aggregate over
    the embeddings (seed centroids = the 8 smallest vec_ids, found with a
    streaming min-k pass — SQL-reconstructible, so the whole distributed
    assignment path is exactly oracle-checked)."""
    from jsonschema_validator_ray.ops.cluster import (assign_clusters,
                                                      seed_centroids)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seeds = seed_centroids(ds, "embedding", "vec_id", 8)
    out = assign_clusters(_read(sf_dir, "embeddings",
                                ["vec_id", "embedding"]), seeds)
    return pa.table({
        "cluster_id": out["cluster_id"],
        "n_members": out["n_members"],
        "min_vec_id": out["min_id"],
    })


def q_heavy_hitters_events(sf_dir: str) -> pa.Table:
    """Mergeable heavy-hitters top-k over event_type (Misra-Gries family;
    bounded partial size per block). With capacity >= the enum domain the
    sketch is exact and err_bound = 0 — the SQL oracle checks the exact
    regime; the capacity<distinct bound is pytest-covered."""
    from jsonschema_validator_ray.ops.aggregates import heavy_hitters

    return heavy_hitters(_read(sf_dir, "events", ["event_type"]),
                         "event_type", k=5, capacity=64)


def q_outlier_events_p99(sf_dir: str) -> pa.Table:
    """Per-group quantile outlier filter: events whose value exceeds their
    event_type's exact p99. One grouped exact-quantile pass broadcast into
    a streaming vectorized filter (no second shuffle)."""
    from jsonschema_validator_ray.ops.aggregates import \
        quantile_threshold_filter

    out = _collect(quantile_threshold_filter(
        lambda: _read(sf_dir, "events", ["event_id", "event_type", "value"]),
        "event_type", "value", q=0.99))
    return pa.table({
        "event_id": out["event_id"],
        "event_type": out["event_type"],
        "value": out["value"],
    }).sort_by("event_id")


def q_funnel_events(sf_dir: str) -> pa.Table:
    """Ordered funnel (view -> click -> purchase) with earliest-completion
    semantics: one hash-bucket shuffle co-locating whole users, vectorized
    per-step minimum.reduceat in-bucket. Oracled by the classic chained
    min-after-previous-step funnel CTE."""
    from jsonschema_validator_ray.ops.aggregates import funnel_steps

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = _collect(funnel_steps(ds, "user_id", "ts", "event_type",
                                ["view", "click", "purchase"]))
    return out.sort_by("user_id")


def q_grouped_distinct_users_by_type(sf_dir: str) -> pa.Table:
    """EXACT per-group distinct count with pre-shuffle pair dedup (the
    combiner bounds shuffle volume by distinct pairs, not rows)."""
    from jsonschema_validator_ray.ops.aggregates import grouped_exact_distinct

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    out = _collect(grouped_exact_distinct(ds, "event_type", "user_id"))
    return out.sort_by("event_type")


def q_approx_distinct_users_by_type(sf_dir: str) -> pa.Table:
    """SELF-ORACLE (hll_distinct_events precedent): per-group mergeable
    HyperLogLog distinct (one 4 KiB register block per group per batch,
    register-max fold — values never shuffle). ``n_exact`` comes from the
    engine's own exact pair-dedup path and is genuinely SQL-derivable;
    ``within_bound`` verifies the HLL estimate is within ±3% of exact per
    group (p=12, typical error 1.6%; oracle states TRUE)."""
    from jsonschema_validator_ray.ops.aggregates import (
        grouped_approx_distinct, grouped_exact_distinct)

    approx = grouped_approx_distinct(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        "event_type", "user_id")
    exact = _collect(grouped_exact_distinct(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        "event_type", "user_id")).sort_by("event_type")
    amap = dict(zip(approx["event_type"].to_pylist(),
                    approx["approx_distinct"].to_pylist()))
    ok = [abs(amap[k] - n) / max(n, 1) <= 0.03
          for k, n in zip(exact["event_type"].to_pylist(),
                          exact["n_distinct"].to_pylist())]
    return pa.table({
        "event_type": exact["event_type"],
        "n_exact": exact["n_distinct"],
        "within_bound": pa.array(ok, pa.bool_()),
    })


def q_unpivot_events_daily(sf_dir: str) -> pa.Table:
    """UNPIVOT / melt (wide -> long), the inverse reshape of `events_pivot`:
    per-day click/view value sums (exact integer cents) widened per type,
    then melted back to (day, name, val) rows with the streaming `unpivot`
    operator. Oracled by DuckDB's native UNPIVOT."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import unpivot

    def partial(batch: pa.Table) -> pa.Table:
        # group ALL events by day with per-type conditional sums — exactly
        # the oracle's CASE WHEN ... ELSE 0: a day with zero click/view
        # events must still emit (day, 0.0) rows, so the type filter must
        # never drop a day from the grouping
        cents = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                        pa.int64())
        t = pa.table({
            "day": pc.floor_temporal(batch["ts"], unit="day"),
            "click_cents": pc.if_else(
                pc.equal(batch["event_type"], "click"), cents,
                pa.scalar(0, pa.int64())),
            "view_cents": pc.if_else(
                pc.equal(batch["event_type"], "view"), cents,
                pa.scalar(0, pa.int64())),
        })
        return pa.TableGroupBy(t, ["day"]).aggregate(
            [("click_cents", "sum"), ("view_cents", "sum")])

    parts = _collect(_read(sf_dir, "events", ["ts", "event_type", "value"])
                     .map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True))
    fine = pa.TableGroupBy(parts, ["day"]).aggregate(
        [("click_cents_sum", "sum"), ("view_cents_sum", "sum")])
    order = pc.sort_indices(fine["day"])
    fine = fine.take(order)
    wide_t = pa.table({
        "day": fine["day"].cast(pa.timestamp("us")),
        "click": pc.divide(fine["click_cents_sum_sum"].cast(pa.float64()),
                           pa.scalar(100.0)),
        "view": pc.divide(fine["view_cents_sum_sum"].cast(pa.float64()),
                          pa.scalar(100.0)),
    })
    out = _collect(unpivot(ray.data.from_arrow(wide_t), ["day"],
                           ["click", "view"]))
    return out.sort_by([("day", "ascending"), ("name", "ascending")])


def q_ntile_events(sf_dir: str) -> pa.Table:
    """NTILE(4) quartile assignment per event_type ordered by (value,
    event_id) — the rank-window family member next to per-group top-k.
    One hash-bucket shuffle; in-bucket one lexsort + the SQL NTILE split
    (first n%k tiles get the extra row), fully vectorized."""
    K = 4
    from jsonschema_validator_ray.rayutil import bucket_groups

    def tile_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "tile": pa.array([], pa.int64())})
        et = group["event_type"].combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, val, et))
        et_s, eid_s = et[order], eid[order]
        seg = np.flatnonzero(np.concatenate([[True], et_s[1:] != et_s[:-1]]))
        sizes = np.diff(np.append(seg, et_s.size))
        seg_start = np.repeat(seg, sizes)
        n = np.repeat(sizes, sizes)           # group size per row
        r = np.arange(et_s.size, dtype=np.int64) - seg_start
        big, small = n % K, n // K            # SQL NTILE split
        cut = big * (small + 1)
        tile = np.where(r < cut, r // (small + 1),
                        big + (r - cut) // np.maximum(small, 1))
        return pa.table({"event_id": pa.array(eid_s, pa.int64()),
                         "tile": pa.array(tile + 1, pa.int64())})

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = _collect(bucket_groups(ds, "event_type", tile_bucket))
    return out.sort_by("event_id")


def q_approx_quantiles_by_event_type(sf_dir: str) -> pa.Table:
    """SELF-ORACLE (approx-distinct precedent): per-group t-digest
    quantiles — the mergeable 100-TB path beside the exact
    `value_quantiles_by_event_type`. ``p50_exact``/``p99_exact`` come from
    the engine's exact grouped-quantile pass (SQL ``quantile_cont``-exact,
    already oracle-proven); ``within_bound`` verifies the digest's p50/p99
    land within 5% RELATIVE of exact per group (compression 500 measures
    <=1.5% worst-group at 32-cpu block counts; the bound carries 3x margin
    because digest error grows with the number of merged per-block
    partials). Oracle recomputes the exact quantiles and states TRUE."""
    from jsonschema_validator_ray.ops.aggregates import (
        grouped_quantiles, grouped_tdigest_quantiles)

    approx = grouped_tdigest_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value", [0.5, 0.99], compression=500.0)
    exact = _collect(grouped_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value", [0.5, 0.99])).sort_by("event_type")
    amap = {k: (p50, p99) for k, p50, p99 in zip(
        approx["event_type"].to_pylist(), approx["q50"].to_pylist(),
        approx["q99"].to_pylist())}
    ok = []
    for k, p50, p99 in zip(exact["event_type"].to_pylist(),
                           exact["q50"].to_pylist(),
                           exact["q99"].to_pylist()):
        a50, a99 = amap[k]
        ok.append(abs(a50 - p50) <= 0.05 * max(abs(p50), 1e-9)
                  and abs(a99 - p99) <= 0.05 * max(abs(p99), 1e-9))
    return pa.table({
        "event_type": exact["event_type"],
        "p50_exact": pc.round(exact["q50"], 4),
        "p99_exact": pc.round(exact["q99"], 4),
        "within_bound": pa.array(ok, pa.bool_()),
    })


def q_clean_corpus_documents(sf_dir: str) -> pa.Table:
    """C4-style corpus-cleaning cascade — the composed flagship for the
    documents table: streaming quality filters (length >= 150 chars,
    word-dup ratio <= 0.55, language allowlist) feeding the distributed
    exact-dedup keeper groupby. One pass computes the repetition features
    in place (append mode), the filter prunes before the only shuffle, and
    the dedup shuffle moves (hash, id) pairs only."""
    from jsonschema_validator_ray.ops.dedup import exact_dedup_keepers
    from jsonschema_validator_ray.ops.text import add_word_repetition

    LANGS = pa.array(["en", "de", "fr", "es"])

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.greater_equal(batch["n_chars"], 150),
                    pc.less_equal(batch["dup_ratio"], 0.55)),
            pc.is_in(batch["lang"], value_set=LANGS))
        return batch.filter(mask)

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    filtered = add_word_repetition(ds, append=True) \
        .map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(exact_dedup_keepers(filtered, "doc_id", "text"))
    return pa.table({
        "doc_id": out["keeper_id"].cast(pa.int64()),
        "n_copies": out["n_copies"].cast(pa.int64()),
    }).sort_by("doc_id")


def q_neardup_keep_best_documents(sf_dir: str) -> pa.Table:
    """Quality-priority near-dup keeper selection: the components pipeline
    (exact trigram-Jaccard pairs -> distributed connected components) with
    the keeper policy a production dedup uses — keep the LONGEST member of
    each cluster (tie: lowest doc_id) instead of the smallest id. Member
    lengths come from a broadcast-filtered second read (member set is
    output-scale)."""
    from jsonschema_validator_ray.ops.dedup import (
        connected_components, ngram_jaccard_near_duplicates)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_near_duplicates(ds, "doc_id", "text", n=3,
                                          threshold=0.5,
                                          n_docs=_nrows(sf_dir, "documents"))
    cc = connected_components(pairs)
    members = pa.array(sorted(cc["node"].to_pylist()), pa.int64())

    def member_lens(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.is_in(batch["doc_id"], value_set=members))
        return sel.select(["doc_id", "n_chars"])

    lens = _collect(_read(sf_dir, "documents", ["doc_id", "n_chars"])
                    .map_batches(member_lens, batch_format="pyarrow",
                                 zero_copy_batch=True))
    lmap = dict(zip(lens["doc_id"].to_pylist(), lens["n_chars"].to_pylist()))
    nodes = cc["node"].to_pylist()
    comps = cc["component"].to_pylist()
    best: dict = {}
    for node, comp in zip(nodes, comps):
        key = (lmap[node], -node)         # longest wins, tie -> lowest id
        if comp not in best or key > best[comp][0]:
            best[comp] = (key, node)
    keepers = {comp: node for comp, (_, node) in best.items()}
    return pa.table({
        "doc_id": pa.array(nodes, pa.int64()),
        "component": pa.array(comps, pa.int64()),
        "keep": pa.array([keepers[c] == n for n, c in zip(nodes, comps)],
                         pa.bool_()),
    }).sort_by("doc_id")


def q_rolling_window_events(sf_dir: str) -> pa.Table:
    """ROWS-frame rolling window (5-row sum+count per user ordered by
    ts, event_id) — the remaining SQL window-frame kind next to RANGE
    sliding / cumulative / LAG. Values are fixed-point cents so the
    cumsum-difference in-bucket sums are bit-exact vs SQL's windowed sum."""
    from jsonschema_validator_ray.ops.aggregates import grouped_rolling_window

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                        pa.int64())
        return batch.drop_columns(["value"]).append_column("cents", cents)

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]) \
        .map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_rolling_window(
        ds, "user_id", "ts", "cents", window_rows=5, tiebreak="event_id"))
    return pa.table({
        "event_id": out["event_id"],
        "win_sum_cents": out["win_sum"],
        "win_n": out["win_n"],
    }).sort_by("event_id")


def q_bloom_semi_join_events(sf_dir: str) -> pa.Table:
    """Exact semi-join accelerated by a broadcast Bloom prefilter: events
    of users who ever purchased. Bloom-failing rows resolve without the
    exact set; survivors are exactly verified, so the result is precisely
    SQL EXISTS semantics."""
    import pyarrow.dataset as pads

    from jsonschema_validator_ray.ops.aggregates import value_counts
    from jsonschema_validator_ray.ops.join import bloom_semi_join

    cols = ["user_id", "event_type"]
    right = _read(sf_dir, "events", cols,
                  filter=(pads.field("event_type") == "purchase"))
    left = _read(sf_dir, "events", cols)
    kept = bloom_semi_join(left, right, "user_id", "user_id")
    out = value_counts(kept, "event_type")
    return pa.table({"event_type": out["event_type"],
                     "n_events": out["n"]})


def q_hive_partition_roundtrip_documents(sf_dir: str) -> pa.Table:
    """Key-partitioned resumable sink gate: write documents hive-partitioned
    by lang (one lang=<v>/ dir, content-addressed parts inside), then read
    each partition back PRUNED (only that directory) and report its row
    count — oracled by the plain per-lang counts."""
    import shutil

    import ray.data

    from jsonschema_validator_ray.ops.sink import write_hive_partitioned

    name = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/graft_sink/hive_documents_{name}"
    # fresh dir per run: content-addressed resume assumes the SAME plan;
    # gate runs vary num_cpus (block boundaries), so a prior run's parts
    # would coexist with this run's (the documented different-plan caveat
    # in ops/sink.py) and inflate directory-level read-back counts
    shutil.rmtree(out_dir, ignore_errors=True)
    manifest = write_hive_partitioned(
        _read(sf_dir, "documents", ["doc_id", "text", "lang"]),
        out_dir, "lang")
    by_lang: dict = {}
    for f in manifest["files"]:     # pruned read: only this run's manifest
        lang = os.path.basename(os.path.dirname(f)).split("=", 1)[1]
        by_lang.setdefault(lang, []).append(f)
    rows = []
    for lang in sorted(by_lang):
        n = ray.data.read_parquet(by_lang[lang]).count()
        assert n == manifest["partitions"][lang]
        rows.append((lang, n))
    return pa.table({"lang": pa.array([r[0] for r in rows]),
                     "n_docs": pa.array([r[1] for r in rows], pa.int64())})


def q_kmeans_clusters_embeddings(sf_dir: str) -> pa.Table:
    """SELF-ORACLE (hll/ivf precedent): full-corpus distributed Lloyd's
    k-means (k=8, 4 iterations — one partial+final map_batches pass per
    iteration, no shuffle). ``n_assigned`` is genuinely SQL-derivable
    (every embedding gets a cluster); ``objective_monotone`` /
    ``improved`` are the Ray-side verification of Lloyd's guaranteed
    monotone objective (spherical k-means: mean max-cosine never
    decreases; the oracle states TRUE)."""
    from jsonschema_validator_ray.ops.cluster import (assign_clusters,
                                                      kmeans_fit)

    # size-gate (ngram hot-df precedent): below the cap, stage the corpus
    # blocks in the object store ONCE and let every Lloyd pass re-execute
    # from memory — each fresh-scan iteration otherwise pays a full
    # read+plan (~1 s of pure orchestration per pass at gate scale).
    # Above the cap _read_staged hands back the LAZY scan, and the factory
    # returns that same re-executable plan each call — every Lloyd pass
    # re-runs the read (streaming, nothing pinned), which satisfies
    # kmeans_fit's ds_factory contract as long as passes only consume the
    # Dataset (don't attach per-pass state to the shared object).
    base = _read_staged(sf_dir, "embeddings", ["vec_id", "embedding"])
    factory = lambda: base                                      # noqa: E731

    cents, objs = kmeans_fit(factory, k=8, iters=4)
    out = assign_clusters(factory(), cents)
    n_assigned = int(pc.sum(out["n_members"]).as_py())
    monotone = all(objs[i + 1] >= objs[i] - 1e-12
                   for i in range(len(objs) - 1))
    improved = objs[-1] >= objs[0] - 1e-12
    return pa.table({
        "n_assigned": pa.array([n_assigned], pa.int64()),
        "objective_monotone": pa.array([monotone], pa.bool_()),
        "improved": pa.array([improved], pa.bool_()),
    })


def q_skewkurt_events(sf_dir: str) -> pa.Table:
    """Per-event-type sample skewness / excess kurtosis of value
    (ops.aggregates.grouped_skew_kurt — mergeable power-sum partials,
    no shuffle): the distribution-shape drift signal. Bias-corrected
    G1/G2, exactly DuckDB's skewness()/kurtosis(), 6 dp."""
    from jsonschema_validator_ray.ops.aggregates import grouped_skew_kurt

    out = grouped_skew_kurt(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value")
    return pa.table({
        "event_type": out["event_type"],
        "n": out["n"],
        "skew_r6": pc.round(out["skew"], ndigits=6),
        "kurt_r6": pc.round(out["kurt"], ndigits=6),
    })


def q_bm25_search_documents(sf_dir: str) -> pa.Table:
    """BM25 ranked retrieval (ops/index.py::bm25_search) for the 3-term
    query ('spark','data','slow') over documents: two streaming passes
    (per-term df/doc/token partials, then broadcast-idf scoring with
    per-batch bincount tf matrices and composable local top-k under the
    (rounded score desc, doc_id asc) total order). Lucene idf, k1=1.2,
    b=0.75, top 10; the oracle replays the exact formula in SQL."""
    from jsonschema_validator_ray.ops.index import bm25_search

    ds = _read_staged(sf_dir, "documents", ["doc_id", "text"])
    return bm25_search(ds, ["spark", "data", "slow"],
                       id_column="doc_id", column="text",
                       k1=1.2, b=0.75, top_k=10)


def q_lm_score_documents(sf_dir: str) -> pa.Table:
    """Unigram LM corpus fit + per-document mean token log-probability
    (ops/lm.py) — the CCNet-style quality/outlier signal in its
    exactly-SQL-checkable form. Fit is one partial+final pass at
    vocabulary scale; scoring broadcasts (vocab, logprob) once and runs
    one vectorized map_batches pass (index_in lookup + reduceat means)."""
    from jsonschema_validator_ray.ops.lm import unigram_fit, unigram_score

    corpus = _read_staged(sf_dir, "documents", ["doc_id", "text"])
    vocab, logprob, _total = unigram_fit(corpus, "text")
    out = _collect(unigram_score(corpus, "doc_id", "text", vocab, logprob))
    out = out.sort_by("doc_id")
    return pa.table({
        "doc_id": out["doc_id"],
        "n_tokens": out["n_tokens"],
        "avg_logprob_r6": pc.round(out["avg_logprob"], ndigits=6),
    })


def q_fuzzy_match_part_names(sf_dir: str) -> pa.Table:
    """Blocked Levenshtein similarity SELF-join over distinct part names
    (ops/fuzzy.py): every unordered pair of distinct p_name values within
    edit distance 2, canonicalized name_a < name_b. Distinct extraction
    is one streaming pass; candidates come from lossless length-window
    blocking; the verify stage is a pair-axis-vectorized DP distributed
    via map_batches. ASCII corpus, so the codepoint-based engine agrees
    exactly with DuckDB's byte-based levenshtein()."""
    from jsonschema_validator_ray.ops.fuzzy import fuzzy_join

    parts = _read(sf_dir, "part", ["p_name"])
    return fuzzy_join(parts, parts, "p_name", "p_name", max_dist=2)


def q_global_sort_documents(sf_dir: str) -> pa.Table:
    """GLOBAL multi-key ORDER BY — the all-to-all range-sort primitive
    proven end-to-end: every document's exact global position under
    ``(lang ASC, n_chars DESC, doc_id ASC)``. Multi-key order is encoded
    into ONE monotone string key (fixed-width zero-padded fields, the
    numeric DESC leg as ``10^9 − n_chars``) so
    ``ops.stats.assign_global_rank`` (Ray range sort + per-block prefix
    offsets + vectorized arange) applies unchanged; ``doc_id`` in the key
    makes ranks unique, matching SQL ``row_number()`` bitwise; the field
    separator is NUL (below every printable byte), so variable-length
    lang values order like SQL even when one prefixes another. Corpus
    columns are non-null (a null lang would need a NULLS FIRST/LAST
    convention in the encoding)."""
    from jsonschema_validator_ray.ops.stats import assign_global_rank

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def add_key(batch: pa.Table) -> pa.Table:
        inv = pc.subtract(pa.scalar(1_000_000_000, pa.int64()),
                          batch["n_chars"].cast(pa.int64()))
        key = pc.binary_join_element_wise(
            batch["lang"],
            pc.utf8_lpad(pc.cast(inv, pa.string()), 10, "0"),
            pc.utf8_lpad(pc.cast(batch["doc_id"].cast(pa.int64()),
                                 pa.string()), 10, "0"),
            pa.scalar("\x00"))
        return batch.append_column("_k", key)

    out = _collect(assign_global_rank(
        ds.map_batches(add_key, batch_format="pyarrow",
                       zero_copy_batch=True), "_k"))
    return pa.table({
        "pos": out["pos"],
        "doc_id": out["doc_id"].cast(pa.int64()),
    }).sort_by([("pos", "ascending")])


def q_entity_resolution_parts(sf_dir: str) -> pa.Table:
    """END-TO-END entity resolution — the canonical record-linkage
    composition over existing operators: blocked Levenshtein similarity
    self-join (``ops.fuzzy.fuzzy_join``) → distributed connected
    components over the match graph (``ops.dedup.connected_components``)
    → canonical keeper per entity cluster (lexicographic min name,
    exactly the dedup-keeper rule). Names get dense ids by SORTED rank so
    min-id == min-name and the int-keyed component engine applies
    unchanged. Only names participating in ≥1 match appear (singletons
    are already canonical). Oracle replays the closure with the
    recursive-CTE + ``levenshtein`` transitive-reachability SQL."""
    from jsonschema_validator_ray.ops.dedup import connected_components
    from jsonschema_validator_ray.ops.fuzzy import fuzzy_join

    parts = _read(sf_dir, "part", ["p_name"])
    pairs = fuzzy_join(parts, parts, "p_name", "p_name", max_dist=2)
    names = pa.array(
        sorted(set(pairs["name_a"].to_pylist())
               | set(pairs["name_b"].to_pylist())), pa.string())
    comp = connected_components(pa.table({
        "id_a": pc.index_in(pairs["name_a"], value_set=names)
        .cast(pa.int64()),
        "id_b": pc.index_in(pairs["name_b"], value_set=names)
        .cast(pa.int64()),
    }))
    node_names = names.take(comp["node"])
    canon_names = names.take(comp["component"])
    return pa.table({
        "name": node_names,
        "canonical": canon_names,
        "keep": pc.equal(comp["node"], comp["component"]),
    }).sort_by([("name", "ascending")])


def q_integrity_check_tables(sf_dir: str) -> pa.Table:
    """Cross-table referential-integrity report (ops/integrity.py): pk
    uniqueness over the four dimension keys plus five fk-orphan relations
    — the four real TPC-H-ish edges (all clean in the corpus, asserting
    ZERO violations is itself the check) and the deliberately-unsatisfied
    events.user_id->supplier.s_suppkey audit edge, whose orphan count
    exercises the non-zero path. Each table is read ONCE with all its
    checked key columns pruned at the scan (lineitem's three fk columns
    share a single pass), no shuffle; oracle is the UNION ALL of
    count(DISTINCT) / NOT EXISTS counts."""
    from jsonschema_validator_ray.ops.integrity import integrity_report

    cust = _read(sf_dir, "customer", ["c_custkey"])
    part = _read(sf_dir, "part", ["p_partkey"])
    supp = _read(sf_dir, "supplier", ["s_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey"])
    ev = _read(sf_dir, "events", ["user_id"])
    return integrity_report(
        pk_checks=[
            ("pk:customer.c_custkey", cust, "c_custkey"),
            ("pk:orders.o_orderkey", orders, "o_orderkey"),
            ("pk:part.p_partkey", part, "p_partkey"),
            ("pk:supplier.s_suppkey", supp, "s_suppkey"),
        ],
        fk_checks=[
            ("fk:orders.o_custkey->customer.c_custkey",
             orders, "o_custkey", cust, "c_custkey"),
            ("fk:lineitem.l_orderkey->orders.o_orderkey",
             li, "l_orderkey", orders, "o_orderkey"),
            ("fk:lineitem.l_partkey->part.p_partkey",
             li, "l_partkey", part, "p_partkey"),
            ("fk:lineitem.l_suppkey->supplier.s_suppkey",
             li, "l_suppkey", supp, "s_suppkey"),
            ("fk:events.user_id->supplier.s_suppkey",
             ev, "user_id", supp, "s_suppkey"),
        ])


def q_histogram_events(sf_dir: str) -> pa.Table:
    """Fixed-width 20-bin histogram of events.value
    (ops.stats.histogram — two fold passes, min/max then bincount
    partials, NO shuffle; O(n_bins) fold state per block). The bin
    expression and edges are IEEE-identical to the SQL
    ``least(floor((x-mn)*20/(mx-mn)), 19)`` formulation, so counts and
    lo_edge values match the oracle bitwise."""
    from jsonschema_validator_ray.ops.stats import histogram

    return histogram(
        lambda: _read(sf_dir, "events", ["value"]), "value", n_bins=20)


def q_minmax_scale_events(sf_dir: str) -> pa.Table:
    """Per-event-type min-max normalization of events.value
    (ops.stats.grouped_minmax_scale — per-key (min,max) fold pass +
    broadcast rescale, NO shuffle): the feature-scaling primitive.
    ``scaled`` is one subtract + one divide in float64, bitwise equal to
    the SQL window formulation; zero-range groups yield NULL. Output is
    capped to the 1000 smallest event_ids (the full rescaled table is
    row-scale; the cap keeps the gate artifact driver-sized while still
    crossing every event_type)."""
    from jsonschema_validator_ray.ops.stats import grouped_minmax_scale
    from jsonschema_validator_ray.rayutil import strip_meta

    def block_top(batch: pa.Table) -> pa.Table:
        # per-block top-1000 combiner: the driver folds ~1000 rows per
        # block, never the full row-scale rescaled table (review r5)
        return strip_meta(batch.sort_by("event_id").slice(0, 1000))

    out = _collect(grouped_minmax_scale(
        lambda: _read(sf_dir, "events",
                      ["event_id", "event_type", "value"]),
        "event_type", "value")
        .map_batches(block_top, batch_format="pyarrow",
                     zero_copy_batch=True))
    return out.sort_by("event_id").slice(0, 1000) \
        .select(["event_id", "event_type", "scaled"])


def q_cohort_retention_events(sf_dir: str) -> pa.Table:
    """Cohort retention matrix over events
    (ops.aggregates.cohort_retention — per-batch distinct (user, day)
    combiner, ONE user-hash shuffle, calendar²-sized partials folded
    driver-side): for each first-active-day cohort, how many of its
    users were active age_days later."""
    from jsonschema_validator_ray.ops.aggregates import cohort_retention

    return cohort_retention(
        _read(sf_dir, "events", ["user_id", "ts"]), "user_id", "ts")


def q_interevent_gaps_events(sf_dir: str) -> pa.Table:
    """Per-user inter-event gap stats (ops.aggregates.interevent_gaps —
    ONE user-hash shuffle, in-bucket sort + np.diff + Arrow groupby;
    groups complete in-bucket so no second pass): count / mean / max of
    microsecond gaps between consecutive events ordered by
    (ts, event_id). avg_gap_us is one IEEE division of exact int64 sums
    — bitwise vs the SQL lag() oracle."""
    from jsonschema_validator_ray.ops.aggregates import interevent_gaps

    return _collect(interevent_gaps(
        _read(sf_dir, "events", ["user_id", "ts", "event_id"]),
        "user_id", "ts", "event_id")).sort_by("user_id")


def q_json_schema_infer_events(sf_dir: str) -> pa.Table:
    """JSON schema inference over events.props
    (ops.jsoninfer.infer_json_schema — per-batch DISTINCT-payload
    combiner so the stdlib parse runs at payload-cardinality scale, not
    row scale; keys×types partials folded driver-side, NO shuffle): one
    (jkey, jtype, n) row per top-level key × observed JSON type, with
    DuckDB json_type names (UBIGINT/BIGINT split on sign)."""
    from jsonschema_validator_ray.ops.jsoninfer import infer_json_schema

    return infer_json_schema(_read(sf_dir, "events", ["props"]), "props")


def q_winsorize_events(sf_dir: str) -> pa.Table:
    """Per-event-type winsorization of events.value at [p05, p95]
    (ops.stats.grouped_winsorize — discrete quantile_disc thresholds via
    ONE bucket shuffle, then a broadcast comparison-only clip, so the
    output matches SQL least(greatest(...)) bitwise). Output capped to
    the 1000 smallest event_ids via a per-block top-k combiner (the
    full clipped table is row-scale)."""
    from jsonschema_validator_ray.ops.stats import grouped_winsorize
    from jsonschema_validator_ray.rayutil import strip_meta

    def block_top(batch: pa.Table) -> pa.Table:
        return strip_meta(batch.sort_by("event_id").slice(0, 1000))

    out = _collect(grouped_winsorize(
        lambda: _read(sf_dir, "events",
                      ["event_id", "event_type", "value"]),
        "event_type", "value", 0.05, 0.95)
        .map_batches(block_top, batch_format="pyarrow",
                     zero_copy_batch=True))
    return out.sort_by("event_id").slice(0, 1000) \
        .select(["event_id", "event_type", "clipped"])


def q_resume_validate_transcripts(sf_dir: str) -> pa.Table:
    """Checkpointed resumable validation (the north rule's resumability
    contract): ``run_partitioned`` over the corpus with a simulated
    mid-run kill (``max_partitions`` stops after half the partitions;
    the manifest write is the atomic commit point), then a second call
    that SKIPS the finished partitions (matching lineage ``ir_hash``),
    completes the rest, and finalizes (sketch merge + cross-partition
    boundary merge + overlap recheck). Returns the definitive violation
    table (``pipelines.read_violations``) — oracled by the SAME SQL as
    the single-shot flagship, so the gate row proves resume ==
    single-shot bitwise."""
    import shutil

    from jsonschema_validator_ray.pipelines import (read_violations,
                                                    run_partitioned)

    gen, spec = _ensure_current_corpus(sf_dir)
    out = os.path.join("/tmp/graft_resume",
                       os.path.basename(os.path.normpath(gen.out_dir)))
    shutil.rmtree(out, ignore_errors=True)
    first = run_partitioned(gen.files, out, spec=spec,
                            files_per_partition=1,
                            max_partitions=max(1, len(gen.files) // 2))
    if len(gen.files) > 1 and first.get("complete"):
        raise AssertionError("simulated kill did not stop the first run")
    second = run_partitioned(gen.files, out, spec=spec,
                             files_per_partition=1)
    if not second.get("complete"):
        raise AssertionError("resume did not finalize the run")
    return read_violations(out).sort_by([
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("constraint_id", "ascending")])


def q_lineage_manifest_transcripts(sf_dir: str) -> pa.Table:
    """Per-partition LINEAGE surface (north-rule: "resumable from
    checkpoint with per-partition lineage + metrics"): run the partitioned
    pipeline to completion (one partition per input file), then read back
    the checkpoint manifests and assert the lineage contract the resume
    path depends on — one manifest per input file, every manifest carrying
    the run's constraint-IR hash (stale-IR refusal key), its exact input
    file list, and non-degenerate metrics + serialized sketch/boundary
    state. ``n_partitions`` is oracled independently via DuckDB
    ``read_parquet(..., filename=true)`` — the SQL side counts the corpus
    files without seeing the manifests."""
    import json
    import shutil

    from jsonschema_validator_ray.constraints.ir import compile_constraints
    from jsonschema_validator_ray.pipelines import run_partitioned

    gen, spec = _ensure_current_corpus(sf_dir)
    # pid-unique scratch: concurrent gate runs must not rmtree each
    # other's manifests mid-run (review r5); removed afterwards
    out = os.path.join(
        "/tmp/graft_lineage",
        f"{os.path.basename(os.path.normpath(gen.out_dir))}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    try:
        res = run_partitioned(gen.files, out, spec=spec,
                              files_per_partition=1)
        if not res.get("complete"):
            raise AssertionError("partitioned run did not finalize")
        ir = compile_constraints(spec)
        mdir = os.path.join(out, "manifests")
        manifests = []
        for pid, f in enumerate(gen.files):
            with open(os.path.join(mdir, f"part-{pid:05d}.json")) as fh:
                manifests.append((f, json.load(fh)))
        lineage_complete = all(
            m["ir_hash"] == ir.ir_hash and m["input_files"] == [f]
            for f, m in manifests)
        metrics_present = all(
            m["metrics"].get("n_violations", -1) >= 0
            and m["metrics"].get("wall_s", 0) > 0
            and bool(m.get("sketch_b64"))
            for _, m in manifests)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return pa.table({
        "n_partitions": pa.array([len(manifests)], pa.int64()),
        "lineage_complete": pa.array([lineage_complete], pa.bool_()),
        "metrics_present": pa.array([metrics_present], pa.bool_()),
    })


def q_salted_validate_transcripts(sf_dir: str) -> pa.Table:
    """The flagship validation through the global-sort fallback, kept as
    the skew-handling gate row: a Dataset source cannot be re-read for the
    one-pass plan's exact re-check, so ``validate()`` checks groups with the
    range sort, whose partitioner splits the corpus's hot conversations
    across blocks while the run-boundary merge restores exact cross-block
    semantics. Oracled by the SAME SQL as the flagship, so the row proves
    the fallback stays exact."""
    import ray.data

    from jsonschema_validator_ray.pipelines import validate
    from jsonschema_validator_ray.rayutil import clean_read_schema

    gen, spec = _ensure_current_corpus(sf_dir)
    files = list(gen.files)
    # 16 sorted blocks: a hot conversation spans several of them, and the
    # sort's cost stays that of a file source (Ray's default read split
    # made ~60 blocks: 4-13 s with 32 Ray CPUs on a one-core host)
    res = validate(ray.data.read_parquet(
        files, schema=clean_read_schema(files[0]), override_num_blocks=16),
        spec=spec)
    return res.violations.sort_by([
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("constraint_id", "ascending")])


def q_text_roundtrip_documents(sf_dir: str) -> pa.Table:
    """Plain-text lines source/sink losslessness (sources.files
    write_text/read_text — content-addressed idempotent .txt shards,
    one line per document): the aggregate is recomputed from the REREAD
    lines (count, distinct count, char sum, min/max line), equal to the
    oracle over the original column iff the roundtrip preserved every
    line byte-for-byte."""
    from jsonschema_validator_ray.rayutil import strip_meta
    from jsonschema_validator_ray.sources.files import read_text, write_text

    path = "/tmp/graft_files/text_documents"
    write_text(_read(sf_dir, "documents", ["text"]), path, "text")

    def partial(batch: pa.Table) -> pa.Table:
        import hashlib

        col = batch["text"]
        # order-independent content checksum: sum of 40-bit md5 prefixes
        # (the per-line hashlib loop is the roundtrip-CHECK's cost, not an
        # engine op's — same convention as the chunk/pack md5 compares)
        # 40-bit prefixes keep the int64 sum overflow-free to ~10^6 lines
        s = sum(int(hashlib.md5(t.encode()).hexdigest()[:10], 16)
                for t in col.to_pylist())
        return strip_meta(pa.table({
            "n_lines": pa.array([batch.num_rows], pa.int64()),
            "sum_chars": pa.array(
                [pc.sum(pc.utf8_length(col)).as_py() or 0], pa.int64()),
            "md5sum": pa.array([s], pa.int64()),
            "min_line": pa.array([pc.min(col).as_py()], pa.string()),
            "max_line": pa.array([pc.max(col).as_py()], pa.string()),
        }))

    parts = _collect(read_text(path).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    return pa.table({
        "n_lines": pa.array([pc.sum(parts["n_lines"]).as_py()], pa.int64()),
        "sum_chars": pa.array([pc.sum(parts["sum_chars"]).as_py()],
                              pa.int64()),
        "md5sum": pa.array([pc.sum(parts["md5sum"]).as_py()], pa.int64()),
        "min_line": pa.array([pc.min(parts["min_line"]).as_py()],
                             pa.string()),
        "max_line": pa.array([pc.max(parts["max_line"]).as_py()],
                             pa.string()),
    })


def q_vocab_coverage_documents(sf_dir: str) -> pa.Table:
    """Tokenizer vocab-coverage point (ops.text.vocab_coverage): share
    of token occurrences covered by the 20 most frequent tokens —
    vocabulary-sized partials, one driver fold, NO shuffle. top_k=20 on
    the ~30-word synthetic vocab keeps the value non-trivial."""
    from jsonschema_validator_ray.ops.text import vocab_coverage

    return vocab_coverage(_read(sf_dir, "documents", ["text"]),
                          "text", top_k=20)


def q_quantize_embeddings(sf_dir: str) -> pa.Table:
    """Symmetric per-vector int8 quantization of the embeddings table
    (ops.embed.quantize_embeddings — max-abs scaling, round-half-away
    codes in [-127,127], one segmented reduce per batch, NO shuffle).
    Gate projects the first four codes per vector so the oracle can
    replay the exact SQL round() arithmetic."""
    from jsonschema_validator_ray.ops.embed import quantize_embeddings

    out = _collect(quantize_embeddings(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        "embedding", "vec_id"))
    codes = out["codes"].combine_chunks()
    first4 = {f"c{i}": pc.list_element(codes, i).cast(pa.int64())
              for i in range(4)}
    return pa.table({
        "vec_id": out["vec_id"], "n_dims": out["n_dims"],
        "max_abs": out["max_abs"], **first4}).sort_by("vec_id")


def q_pattern_census_events(sf_dir: str) -> pa.Table:
    """Multi-pattern regex census over events.props
    (ops.text.pattern_census — the PII/compliance-scan shape: per
    event_type, total match count + rows-with-a-match for each named
    RE2 pattern; per-batch |keys|x|patterns| partials folded
    driver-side, NO shuffle). Gate patterns hit the synthetic corpus
    (digit runs, multi-digit runs, the literal \"k\" JSON key); a real
    pipeline points the same op at email/phone/SSN patterns."""
    from jsonschema_validator_ray.ops.text import pattern_census

    return pattern_census(
        _read(sf_dir, "events", ["event_type", "props"]),
        "event_type", "props",
        {"digits": "[0-9]+", "multi_digit": "[0-9]{2,}",
         "key_k": '"k"'})


def q_bigram_counts_documents(sf_dir: str) -> pa.Table:
    """Corpus-wide adjacent-token-pair counts over documents.text
    (ops.text.bigram_counts — the BPE tokenizer-training merge
    statistic: per-batch offset-arithmetic pair emission + Arrow
    group-by partials, driver fold at bigram-vocabulary cardinality,
    NO shuffle)."""
    from jsonschema_validator_ray.ops.text import bigram_counts

    return bigram_counts(_read(sf_dir, "documents", ["text"]))


def queries() -> dict[str, Callable[[str], Any]]:
    """All gate queries, ORDER-CURATED for the driver's 50-row artifact cap.

    The driver's CORRECTNESS_r{N}.json records at most the FIRST 50 entries
    (in dict insertion order), so the first 50 below are a cross-section
    spanning every operator family in VERDICT.md's tables: the flagship
    validate/verdict pair plus the checkpoint-resume run, the per-partition
    lineage-manifest surface, and the
    salted-groupby skew-splitting run (resume and salted reuse the flagship
    oracle — proving resume == single-shot and salted == sort bitwise), each
    constraint kind (struct/ref/enum/
    mono/unique plus the cross-column table CHECK kind; mono and TPC-H Q1
    are tail-listed variants), aggregation + table profiler +
    HLL sketch (the inclusion–exclusion corpus-overlap estimate; global
    distinct is a tail-listed variant) + per-group heavy hitters +
    skew/kurtosis moments, text
    analysis (token count / lang-id / unigram-LM scoring; quality scoring
    is a tail-listed variant), BM25 ranked retrieval, a
    partitioned-sink round-trip, JSON schema inference (the discovery half
    of constraint compilation), ALL dedup families (exact, MinHash-LSH,
    SimHash, n-gram Jaccard, embedding, chunk,
    incremental-snapshot, connected components, conversation-level
    transcript dedup; SemDeDup and
    decontamination are tail-listed variants), every join shape (as-of, full-outer,
    fuzzy-Levenshtein, table diff, TPC-H Q5 chain, Q3; the range/interval
    window joins are tail-listed variants) plus CDC MERGE/upsert, the
    sequence-mining family (Markov event transitions; journeys/throttle
    tail-listed), the drift family (chi-square; KS and PSI tail-listed),
    Spearman (global quantiles tail-listed), PageRank, k-means,
    similarity search
    (brute; IVF tail-listed), top-k, hash split, sessionization,
    forward-fill (LOCF), the SFT-prep family (rendering,
    packing; turn pairs, context truncation and alternation are tail-listed
    variants),
    the cross-table referential-integrity report, and multimodal image
    features (audio/video/resize tail-listed).
    Entries 51+ are additional variants within already-represented
    families, verified by scripts/driver_sim.py (the full-surface mirror)
    and tests/.
    """
    return {
        "transcript_validate": q_transcript_validate,
        "transcript_verdict": q_transcript_verdict,
        "resume_validate_transcripts": q_resume_validate_transcripts,
        "lineage_manifest_transcripts": q_lineage_manifest_transcripts,
        "salted_validate_transcripts": q_salted_validate_transcripts,
        "struct_check_events": q_struct_check_events,
        "check_constraint_transcripts": q_check_constraint_transcripts,
        "ref_check_lineitem": q_ref_check_lineitem,
        "enum_check_events": q_enum_check_events,
        "lm_score_documents": q_lm_score_documents,
        "unique_check_events": q_unique_check_events,
        "profile_table_events": q_profile_table_events,
        "token_count_documents": q_token_count_documents,
        "langid_documents": q_langid_documents,
        "conv_dedup_transcripts": q_conv_dedup_transcripts,
        "grouped_heavy_hitters_events": q_grouped_heavy_hitters_events,
        "overlap_users_hll": q_overlap_users_hll,
        "hive_partition_roundtrip_documents": q_hive_partition_roundtrip_documents,
        "exact_dedup_documents": q_exact_dedup_documents,
        "minhash_neardup_documents": q_minhash_neardup_documents,
        "simhash_neardup_documents": q_simhash_neardup_documents,
        "ngram_jaccard_neardup": q_ngram_jaccard_neardup,
        "embedding_neardup": q_embedding_neardup,
        "json_schema_infer_events": q_json_schema_infer_events,
        "chunk_dedup_documents": q_chunk_dedup_documents,
        "incremental_dedup_documents": q_incremental_dedup_documents,
        "neardup_components_documents": q_neardup_components_documents,
        "apply_changes_orders": q_apply_changes_orders,
        "asof_join_events_orders": q_asof_join_events_orders,
        "event_transitions": q_event_transitions,
        "fuzzy_match_part_names": q_fuzzy_match_part_names,
        "user_activity_full_outer": q_user_activity_full_outer,
        "table_diff_orders": q_table_diff_orders,
        "local_supplier_volume": q_local_supplier_volume,
        "shipping_priority": q_shipping_priority,
        "drift_events_type": q_drift_events_type,
        "skewkurt_events": q_skewkurt_events,
        "spearman_lineitem": q_spearman_lineitem,
        "pagerank_purchases": q_pagerank_purchases,
        "kmeans_clusters_embeddings": q_kmeans_clusters_embeddings,
        "simsearch_top5": q_simsearch_top5,
        "bm25_search_documents": q_bm25_search_documents,
        "topk_orders": q_topk_orders,
        "split_assign_documents": q_split_assign_documents,
        "sessionize_events": q_sessionize_events,
        "locf_events": q_locf_events,
        "integrity_check_tables": q_integrity_check_tables,
        "render_sft_transcripts": q_render_sft_transcripts,
        "pack_documents": q_pack_documents,
        "multimodal_image_features": q_multimodal_image_features,
        "quality_documents": q_quality_documents,
        "global_quantiles_lineitem": q_global_quantiles_lineitem,
        "multimodal_audio_frames": q_multimodal_audio_frames,
        "turn_pairs_transcripts": q_turn_pairs_transcripts,
        "entity_resolution_parts": q_entity_resolution_parts,
        "violations_by_constraint_transcripts": q_violations_by_constraint_transcripts,
        "weighted_avg_lineitem": q_weighted_avg_lineitem,
        "random_projection_embeddings": q_random_projection_embeddings,
        "global_sort_documents": q_global_sort_documents,
        "hll_distinct_events": q_hll_distinct_events,
        "conv_stats": q_conv_stats,
        "profile_events": q_profile_events,
        "revenue_forecast": q_revenue_forecast,
        "normalized_dedup_documents": q_normalized_dedup_documents,
        "running_total_orders": q_running_total_orders,
        "top_words_documents": q_top_words_documents,
        "lang_stats_documents": q_lang_stats_documents,
        "events_per_day": q_events_per_day,
        "simsearch_multi": q_simsearch_multi,
        "sliding_window_events": q_sliding_window_events,
        "sample_events": q_sample_events,
        "viewers_without_purchase": q_viewers_without_purchase,
        "stratified_sample_documents": q_stratified_sample_documents,
        "events_rollup": q_events_rollup,
        "top_returns_customers": q_top_returns_customers,
        "label_centroids_embeddings": q_label_centroids_embeddings,
        "event_deltas": q_event_deltas,
        "sink_roundtrip_documents": q_sink_roundtrip_documents,
        "value_histogram_events": q_value_histogram_events,
        "events_pivot": q_events_pivot,
        "orders_by_nation": q_orders_by_nation,
        "quality_filter_by_lang": q_quality_filter_by_lang,
        "term_search_documents": q_term_search_documents,
        "chunk_documents": q_chunk_documents,
        "redact_events_props": q_redact_events_props,
        "cluster_assign_embeddings": q_cluster_assign_embeddings,
        "heavy_hitters_events": q_heavy_hitters_events,
        "outlier_events_p99": q_outlier_events_p99,
        "funnel_events": q_funnel_events,
        "grouped_distinct_users_by_type": q_grouped_distinct_users_by_type,
        "approx_distinct_users_by_type": q_approx_distinct_users_by_type,
        "approx_quantiles_by_event_type": q_approx_quantiles_by_event_type,
        "ntile_events": q_ntile_events,
        "unpivot_events_daily": q_unpivot_events_daily,
        "clean_corpus_documents": q_clean_corpus_documents,
        "neardup_keep_best_documents": q_neardup_keep_best_documents,
        "rolling_window_events": q_rolling_window_events,
        "rolling_distinct_users": q_rolling_distinct_users,
        "cms_counts_events": q_cms_counts_events,
        "welch_ttest_events": q_welch_ttest_events,
        "benford_audit_events": q_benford_audit_events,
        "sequence_audit_events": q_sequence_audit_events,
        "zonemap_transcripts": q_zonemap_transcripts,
        "interval_coverage_events": q_interval_coverage_events,
        "bloom_semi_join_events": q_bloom_semi_join_events,
        "repetition_documents": q_repetition_documents,
        "tfidf_documents": q_tfidf_documents,
        "customer_order_totals": q_customer_order_totals,
        "fingerprint_documents": q_fingerprint_documents,
        "embedding_neardup_ivf": q_embedding_neardup_ivf,
        "weighted_sample_documents": q_weighted_sample_documents,
        "mode_event_type_by_user": q_mode_event_type_by_user,
        "latest_event_per_user": q_latest_event_per_user,
        "vocab_entropy_by_lang": q_vocab_entropy_by_lang,
        "concat_packed_documents": q_concat_packed_documents,
        "shuffle_positions_documents": q_shuffle_positions_documents,
        "jsonl_roundtrip_documents": q_jsonl_roundtrip_documents,
        "csv_roundtrip_documents": q_csv_roundtrip_documents,
        "ipc_roundtrip_documents": q_ipc_roundtrip_documents,
        "orc_roundtrip_documents": q_orc_roundtrip_documents,
        "npy_roundtrip_embeddings": q_npy_roundtrip_embeddings,
        "user_journeys_events": q_user_journeys_events,
        "throttle_events": q_throttle_events,
        "compact_documents": q_compact_documents,
        "order_window_events": q_order_window_events,
        "histogram_events": q_histogram_events,
        "minmax_scale_events": q_minmax_scale_events,
        "cohort_retention_events": q_cohort_retention_events,
        "interevent_gaps_events": q_interevent_gaps_events,
        "semdedup_embeddings": q_semdedup_embeddings,
        "winsorize_events": q_winsorize_events,
        "pattern_census_events": q_pattern_census_events,
        "quantize_embeddings": q_quantize_embeddings,
        "vocab_coverage_documents": q_vocab_coverage_documents,
        "text_roundtrip_documents": q_text_roundtrip_documents,
        "bigram_counts_documents": q_bigram_counts_documents,
        "regression_events": q_regression_events,
        "covariance_embeddings": q_covariance_embeddings,
        "schema_union_documents": q_schema_union_documents,
        "mad_outliers_events": q_mad_outliers_events,
        "dense_hourly_events": q_dense_hourly_events,
        "zscore_flags_events": q_zscore_flags_events,
        "percent_rank_events": q_percent_rank_events,
        "bpe_token_count_documents": q_bpe_token_count_documents,
        "mixture_sample_documents": q_mixture_sample_documents,
        "cooccurrence_events": q_cooccurrence_events,
        "response_latency_transcripts": q_response_latency_transcripts,
        "tool_cooccurrence_transcripts": q_tool_cooccurrence_transcripts,
        "corr_lineitem": q_corr_lineitem,
        "value_quantiles_by_event_type": q_value_quantiles_by_event_type,
        "top3_orders_per_customer": q_top3_orders_per_customer,
        "multimodal_video_frames": q_multimodal_video_frames,
        "multimodal_resize_images": q_multimodal_resize_images,
        "alternation_transcripts": q_alternation_transcripts,
        "mono_check_events": q_mono_check_events,
        "pricing_summary_lineitem": q_pricing_summary_lineitem,
        "decontaminate_documents": q_decontaminate_documents,
        "order_window_overlaps": q_order_window_overlaps,
        "ks_drift_events": q_ks_drift_events,
        "psi_drift_events": q_psi_drift_events,
        "jsd_drift_events": q_jsd_drift_events,
        "ivf_search_embeddings": q_ivf_search_embeddings,
        "truncate_context_transcripts": q_truncate_context_transcripts,
    }


_TX_GLOB = _CURRENT_LINK + "/part-*.parquet"


def _split_assign_sql() -> str:
    """CASE-threshold oracle for ``hash_split``: the integer bounds come
    from the engine's own ``split_thresholds`` so both sides compare against
    the SAME uint32 cut points (recomputing round(cum*2^32) in SQL risks a
    one-ulp divergence at a bucket edge)."""
    from jsonschema_validator_ray.ops.sampling import split_thresholds

    pairs = split_thresholds(_SPLITS)
    whens = "\n                        ".join(
        f"WHEN h < {t} THEN '{name}'" for name, t in pairs[:-1])
    # NULL guard FIRST: hash_split emits a NULL split for a null doc_id,
    # while a bare CASE would fall through to the ELSE label (NULL < t is
    # never true) — latent divergence if the corpus ever plants null ids
    # (ADVICE r4)
    return f"""
        SELECT doc_id, lang,
               CASE WHEN doc_id IS NULL THEN NULL
                    {whens}
                    ELSE '{pairs[-1][0]}' END AS split
        FROM (SELECT doc_id, lang,
                     (CAST(doc_id AS HUGEINT) * 2654435761
                      + {_SPLIT_SEED} * 2654435769) % 4294967296 AS h
              FROM documents)
        ORDER BY doc_id
    """


def _transcript_violation_sql() -> str:
    """UNION-of-SELECTs oracle for every SQL-expressible constraint of the
    transcript spec (row kernels + uniqueness + monotonicity), over the
    corpus the Ray query just validated (read through the fixed symlink)."""
    from jsonschema_validator_ray.constraints.ir import ROLES, TOOL_DICTIONARY

    roles = ", ".join(f"'{r}'" for r in ROLES)
    tools = ", ".join(f"'{t}'" for t in TOOL_DICTIONARY)
    return f"""
        WITH tx AS (SELECT * FROM read_parquet('{_TX_GLOB}')),
        v AS (
            SELECT conv_id, turn_idx, 'required:conv_id' AS constraint_id,
                   'Required property is missing' AS message
            FROM tx WHERE conv_id IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'type:conv_id', 'Invalid Type'
            FROM tx WHERE conv_id IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'required:turn_idx',
                   'Required property is missing'
            FROM tx WHERE turn_idx IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'type:turn_idx', 'Invalid Type'
            FROM tx WHERE turn_idx IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'required:role',
                   'Required property is missing'
            FROM tx WHERE role IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'type:role', 'Invalid Type'
            FROM tx WHERE role IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'enum:role', 'Value not in enumeration'
            FROM tx WHERE role IS NOT NULL AND role NOT IN ({roles})
            UNION ALL
            SELECT conv_id, turn_idx, 'required:text',
                   'Required property is missing'
            FROM tx WHERE text IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'type:text', 'Invalid Type'
            FROM tx WHERE text IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'format:text',
                   'String length out of bounds'
            FROM tx WHERE length(text) > 32768
            UNION ALL
            SELECT conv_id, turn_idx, 'ref:tool', 'Unresolved reference'
            FROM tx WHERE tool IS NOT NULL AND tool NOT IN ({tools})
            UNION ALL
            SELECT conv_id, turn_idx, 'required:ts',
                   'Required property is missing'
            FROM tx WHERE ts IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'type:ts', 'Invalid Type'
            FROM tx WHERE ts IS NULL
            UNION ALL
            SELECT conv_id, turn_idx, 'range:ts', 'Value out of range'
            FROM tx WHERE ts < TIMESTAMP '2020-01-01 00:00:00'
                       OR ts > TIMESTAMP '2035-01-01 00:00:00'
            UNION ALL
            SELECT conv_id, turn_idx, 'unique:(conv_id,turn_idx)',
                   'Duplicate key'
            FROM (SELECT conv_id, turn_idx,
                         row_number() OVER (PARTITION BY conv_id, turn_idx)
                             AS rn
                  FROM tx
                  WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL)
            WHERE rn > 1
            UNION ALL
            SELECT conv_id, turn_idx, 'mono:turn_idx',
                   'Non-monotonic ts for turn order'
            FROM (SELECT conv_id, turn_idx, ts,
                         lag(ts) OVER w AS pts,
                         lag(turn_idx) OVER w AS ptid
                  FROM tx
                  WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL
                        AND ts IS NOT NULL
                  WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
            WHERE ts < pts AND turn_idx <> ptid
        )
        SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
               constraint_id, message
        FROM v ORDER BY conv_id, turn_idx, constraint_id
    """


def oracle_sql() -> dict[str, str]:
    # the transcript oracles read through the /tmp corpus symlink: make sure
    # it exists even if the driver evaluates oracles before queries (the
    # query itself re-points the link at the sf it was handed). This side
    # effect is best-effort: a failure here must NEVER blank the whole gate
    # (round 2's CORRECTNESS artifact came back empty) — corpora are already
    # pregenerated at import, and each transcript query re-ensures its own.
    try:
        if not os.path.islink(_CURRENT_LINK):
            _ensure_current_corpus("/root/testdata/sf0.01")
    except Exception:           # pragma: no cover
        pass
    tx_v = _transcript_violation_sql()
    from jsonschema_validator_ray.ops.embed import jl_matrix
    _jl = jl_matrix(4, 64)
    _jl_rows = [", ".join(f"{float(v):.1f}" for v in _jl[j])
                for j in range(4)]
    _jl_sel = ",\n                   ".join(
        f"round(list_dot_product(CAST(embedding AS DOUBLE[]), "
        f"[{_jl_rows[j]}]), 6) AS y{j}_r6" for j in range(4))
    return {
        "transcript_validate": tx_v,
        "weighted_avg_lineitem": """
            WITH t AS (
                SELECT l_returnflag,
                       CAST(l_quantity AS BIGINT) AS w,
                       CAST(l_quantity AS BIGINT)
                       * CAST(floor(CAST(l_extendedprice AS DOUBLE) * 100.0
                                    + 0.5) AS BIGINT) AS wx
                FROM lineitem
                WHERE l_returnflag IS NOT NULL AND l_quantity IS NOT NULL
                      AND l_extendedprice IS NOT NULL
            )
            SELECT l_returnflag,
                   CAST(sum(w) AS BIGINT) AS sum_qty,
                   CAST(sum(wx) AS BIGINT) AS sum_qty_cents,
                   CAST(sum(wx) AS DOUBLE) / CAST(sum(w) AS DOUBLE)
                       AS weighted_avg_cents
            FROM t GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "random_projection_embeddings": f"""
            SELECT vec_id,
                   {_jl_sel}
            FROM embeddings
            WHERE vec_id IS NOT NULL AND embedding IS NOT NULL
                  AND len(embedding) = 64
            ORDER BY vec_id
        """,
        "check_constraint_transcripts": f"""
            WITH tx AS (SELECT * FROM read_parquet('{_TX_GLOB}')),
            v AS (
                SELECT conv_id, turn_idx,
                       'check:turn_idx_under_hot_cap' AS constraint_id,
                       'Check constraint failed' AS message
                FROM tx WHERE NOT (turn_idx < 8000)
                UNION ALL
                SELECT conv_id, turn_idx,
                       'check:user_turns_carry_no_tool',
                       'Check constraint failed'
                FROM tx WHERE role = 'user' AND tool IS NOT NULL
            )
            SELECT * FROM v
            ORDER BY conv_id, turn_idx, constraint_id
        """,
        "violations_by_constraint_transcripts": f"""
            SELECT constraint_id, CAST(count(*) AS BIGINT) AS n
            FROM ({tx_v}) GROUP BY constraint_id ORDER BY constraint_id
        """,
        "resume_validate_transcripts": tx_v,
        "salted_validate_transcripts": tx_v,
        "text_roundtrip_documents": """
            SELECT CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars,
                   CAST(sum(CAST(('0x' || substr(md5(text), 1, 10))
                                 AS BIGINT)) AS BIGINT) AS md5sum,
                   min(text) AS min_line, max(text) AS max_line
            FROM documents WHERE text IS NOT NULL
        """,
        "transcript_verdict": f"""
            WITH tx AS (SELECT * FROM read_parquet('{_TX_GLOB}')),
            v AS ({tx_v.replace('ORDER BY conv_id, turn_idx, constraint_id',
                                '')})
            SELECT (SELECT count(*) FROM v) = 0 AS passed,
                   (SELECT count(*) FROM tx) AS n_rows
        """,
        "conv_stats": f"""
            SELECT conv_id,
                   CAST(count(*) AS BIGINT) AS n_turns,
                   CAST(count(tool) AS BIGINT) AS n_tool_calls,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars
            FROM read_parquet('{_TX_GLOB}')
            GROUP BY conv_id ORDER BY conv_id
        """,
        "profile_events": """
            SELECT count(*) AS n_rows,
                   count(*) - count(props) AS n_null_props,
                   count(DISTINCT event_type) AS n_distinct_event_type,
                   min(ts) AS min_ts, max(ts) AS max_ts
            FROM events
        """,
        "enum_check_events": """
            SELECT event_type, count(*) AS n,
                   event_type IN ('click','error','purchase','signup','view')
                       AS is_valid
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "ref_check_lineitem": """
            SELECT count(*) AS n_total,
                   count(*) FILTER (WHERE p.p_partkey IS NULL) AS n_dangling
            FROM lineitem l LEFT JOIN part p ON l.l_partkey = p.p_partkey
        """,
        "unique_check_events": """
            SELECT count(*) AS n_rows, count(DISTINCT event_id) AS n_distinct
            FROM events
        """,
        "mono_check_events": """
            WITH w AS (
                SELECT user_id, ts,
                       lag(ts) OVER (PARTITION BY user_id ORDER BY event_id)
                           AS pts
                FROM events)
            SELECT user_id,
                   count(*) FILTER (WHERE ts < pts) AS n_regressions
            FROM w GROUP BY user_id ORDER BY user_id
        """,
        "struct_check_events": """
            WITH e AS (
                SELECT event_id, props,
                       json_extract_string(props, '$.k') AS raw,
                       TRY_CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS kv
                FROM events)
            SELECT event_id, 'range:props/k' AS constraint_id,
                   'Value out of range' AS message
            FROM e WHERE kv < 0 OR kv > 49
            UNION ALL
            SELECT event_id, 'required:props/k',
                   'Required property is missing'
            FROM e WHERE props IS NOT NULL
                  AND ltrim(props, ' ' || chr(9) || chr(10) || chr(13))
                      LIKE '{%'
                  AND raw IS NULL
            UNION ALL
            SELECT event_id, 'type:props/k', 'Invalid Type'
            FROM e WHERE raw IS NOT NULL AND kv IS NULL
            ORDER BY event_id, constraint_id
        """,
        "pricing_summary_lineitem": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                       AS BIGINT) AS sum_base_price_cents,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                       AS BIGINT) AS sum_disc_price_e4,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "topk_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "shipping_priority": """
            SELECT l_orderkey,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                       AS BIGINT) AS revenue_e4,
                   o_orderdate, o_orderpriority
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1995-03-15 00:00:00'
              AND l_shipdate > TIMESTAMP '1995-03-15 00:00:00'
            GROUP BY l_orderkey, o_orderdate, o_orderpriority
            ORDER BY revenue_e4 DESC, o_orderdate, l_orderkey LIMIT 10
        """,
        "revenue_forecast": """
            SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_e4,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01 00:00:00'
              AND l_shipdate <  TIMESTAMP '1997-01-01 00:00:00'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "normalized_dedup_documents": """
            SELECT min(doc_id) AS keeper_id, count(*) AS n_copies
            FROM (SELECT doc_id,
                         trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))
                             AS norm
                  FROM documents)
            GROUP BY norm ORDER BY keeper_id
        """,
        "running_total_orders": """
            SELECT o_custkey, o_orderkey,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        OVER (PARTITION BY o_custkey
                              ORDER BY o_orderdate, o_orderkey)
                       AS BIGINT) AS running_spend_cents
            FROM orders ORDER BY o_custkey, o_orderkey
        """,
        "top_words_documents": """
            SELECT word, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS word
                  FROM documents)
            GROUP BY word ORDER BY n DESC, word LIMIT 20
        """,
        "exact_dedup_documents": """
            SELECT min(doc_id) AS keeper_id, count(*) AS n_copies
            FROM documents GROUP BY text ORDER BY keeper_id
        """,
        "token_count_documents": """
            SELECT doc_id, length(text) AS n_chars_calc,
                   len(string_split(text, ' ')) AS n_tokens
            FROM documents ORDER BY doc_id
        """,
        "mixture_sample_documents": """
            WITH p(lang, share) AS (VALUES ('en', 0.4), ('de', 0.2),
                                           ('es', 0.2), ('fr', 0.1),
                                           ('zh', 0.1)),
            cnt AS (SELECT lang, count(*) AS n FROM documents
                    GROUP BY lang),
            cap AS (SELECT c.lang,
                           LEAST(c.n, CAST(floor(400 * p.share) AS BIGINT))
                               AS cap
                    FROM cnt c JOIN p ON c.lang = p.lang),
            ranked AS (SELECT lang, doc_id,
                              row_number() OVER (
                                  PARTITION BY lang
                                  ORDER BY (CAST(doc_id AS HUGEINT)
                                            * 2654435761
                                            + 7 * 2654435769) % 4294967296,
                                           doc_id) AS rk
                       FROM documents)
            SELECT r.lang, r.doc_id, r.rk
            FROM ranked r JOIN cap ON r.lang = cap.lang
            WHERE r.rk <= cap.cap
            ORDER BY r.lang, r.doc_id
        """,
        "split_assign_documents": _split_assign_sql(),
        "turn_pairs_transcripts": f"""
            WITH w AS (
                SELECT conv_id, turn_idx, role, text,
                       lead(turn_idx) OVER win AS n_turn,
                       lead(role) OVER win AS n_role,
                       lead(text) OVER win AS n_text
                FROM read_parquet('{_TX_GLOB}')
                WINDOW win AS (PARTITION BY conv_id
                               ORDER BY turn_idx, role, text)
            )
            SELECT conv_id,
                   CAST(turn_idx AS BIGINT) AS turn_idx_from,
                   CAST(n_turn AS BIGINT) AS turn_idx_to,
                   text AS text_from,
                   n_text AS text_to
            FROM w
            WHERE role = 'user' AND n_role = 'assistant'
            ORDER BY conv_id, turn_idx_from, turn_idx_to, text_from
        """,
        "truncate_context_transcripts": f"""
            WITH t AS (
                SELECT conv_id, turn_idx, role, text,
                       CASE WHEN text IS NULL THEN 0
                            ELSE len(string_split(text, ' ')) END AS n_tok
                FROM read_parquet('{_TX_GLOB}')
            ),
            w AS (
                SELECT conv_id, turn_idx,
                       sum(n_tok) OVER (PARTITION BY conv_id
                                        ORDER BY turn_idx, role, text
                                        ROWS UNBOUNDED PRECEDING) AS cum
                FROM t
            )
            SELECT conv_id,
                   CAST(turn_idx AS BIGINT) AS turn_idx,
                   CAST(cum AS BIGINT) AS cum_tokens
            FROM w WHERE cum <= {_CTX_BUDGET}
            ORDER BY conv_id, turn_idx, cum_tokens
        """,
        "alternation_transcripts": f"""
            WITH w AS (
                SELECT conv_id, role,
                       lag(role) OVER (PARTITION BY conv_id
                                       ORDER BY turn_idx, role, text) AS prev
                FROM read_parquet('{_TX_GLOB}')
            )
            SELECT conv_id,
                   CAST(count(*) AS BIGINT) AS n_turns,
                   CAST(coalesce(sum(CASE WHEN role = prev THEN 1 END), 0)
                        AS BIGINT) AS n_repeats,
                   coalesce(sum(CASE WHEN role = prev THEN 1 END), 0) = 0
                       AS alternating
            FROM w GROUP BY conv_id ORDER BY conv_id
        """,
        "render_sft_transcripts": f"""
            SELECT conv_id,
                   CAST(count(role || ': ' || text) AS BIGINT) AS n_lines,
                   CAST(length(string_agg(role || ': ' || text, chr(10)
                               ORDER BY turn_idx, role, text)) AS BIGINT)
                       AS n_chars,
                   md5(string_agg(role || ': ' || text, chr(10)
                       ORDER BY turn_idx, role, text)) AS digest
            FROM read_parquet('{_TX_GLOB}')
            GROUP BY conv_id ORDER BY conv_id
        """,
        # conversation-level dedup: the oracle plants the SAME deterministic
        # duplicates as the query ('dup-'||conv_id for ids ending in '0'),
        # renders each conversation with the render_sft expression, and
        # groups whole conversations by rendered body (NULL bodies form one
        # SQL group, matching the engine's deterministic null-hash group)
        # lineage surface: SQL counts the corpus files independently
        # (filename=true); the booleans are the Ray side's own manifest
        # contract assertions (oracle emits TRUE)
        "lineage_manifest_transcripts": f"""
            SELECT CAST(count(DISTINCT filename) AS BIGINT) AS n_partitions,
                   TRUE AS lineage_complete,
                   TRUE AS metrics_present
            FROM read_parquet('{_TX_GLOB}', filename=true)
        """,
        "conv_dedup_transcripts": f"""
            WITH tx AS (SELECT conv_id, turn_idx, role, text
                        FROM read_parquet('{_TX_GLOB}')),
            aug AS (
                SELECT * FROM tx
                UNION ALL
                SELECT 'dup-' || conv_id, turn_idx, role, text
                FROM tx WHERE conv_id LIKE '%0'
            ),
            body AS (
                SELECT conv_id,
                       string_agg(role || ': ' || text, chr(10)
                                  ORDER BY turn_idx, role, text) AS rendered
                FROM aug GROUP BY conv_id
            )
            SELECT min(conv_id) AS keeper_conv,
                   CAST(count(*) AS BIGINT) AS n_copies
            FROM body GROUP BY rendered ORDER BY keeper_conv
        """,
        "interval_coverage_events": """
            WITH iv AS (
                SELECT user_id, epoch_us(ts) AS s,
                       epoch_us(ts)
                       + CAST(floor(value * 1000000) AS BIGINT) AS e
                FROM events
                WHERE user_id IS NOT NULL AND ts IS NOT NULL
                      AND value IS NOT NULL
            ),
            iv2 AS (SELECT * FROM iv WHERE e > s),
            m AS (
                SELECT user_id, s, e,
                       max(e) OVER (PARTITION BY user_id ORDER BY s, e
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS pmax
                FROM iv2
            ),
            isl AS (
                SELECT user_id, s, e,
                       CASE WHEN pmax IS NULL OR s > pmax
                            THEN 1 ELSE 0 END AS ni
                FROM m
            ),
            gg AS (
                SELECT user_id, s, e,
                       sum(ni) OVER (PARTITION BY user_id ORDER BY s, e
                                     ROWS UNBOUNDED PRECEDING) AS isl_id
                FROM isl
            ),
            per AS (SELECT user_id, isl_id, min(s) AS s0, max(e) AS e1
                    FROM gg GROUP BY 1, 2)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
                   CAST(sum(e1 - s0) AS BIGINT) AS covered_us
            FROM per GROUP BY user_id ORDER BY user_id
        """,
        "benford_audit_events": """
            WITH v AS (SELECT value AS x FROM events
                       WHERE value IS NOT NULL AND value >= 1
                             AND isfinite(value)),
            d AS (SELECT CAST(floor(x / pow(10, floor(log10(x))))
                              AS BIGINT) AS digit FROM v),
            c AS (SELECT digit, CAST(count(*) AS BIGINT) AS n_obs
                  FROM d GROUP BY digit),
            g AS (SELECT CAST(range AS BIGINT) AS digit FROM range(1, 10)),
            f AS (SELECT g.digit, coalesce(c.n_obs, 0) AS n_obs
                  FROM g LEFT JOIN c USING (digit)),
            t AS (SELECT sum(n_obs) AS tot FROM f),
            x AS (SELECT sum(pow(f.n_obs - log10(1 + 1.0/f.digit) * t.tot,
                                 2)
                             / (log10(1 + 1.0/f.digit) * t.tot)) AS chi2
                  FROM f, t)
            SELECT f.digit, f.n_obs,
                   round(log10(1 + 1.0/f.digit) * t.tot, 6) AS expected_r6,
                   round(x.chi2, 6) AS chi2_r6
            FROM f, t, x ORDER BY f.digit
        """,
        "sequence_audit_events": """
            SELECT CAST(count(event_id) AS BIGINT) AS n_rows,
                   CAST(sum(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_null,
                   CAST(count(DISTINCT event_id) AS BIGINT) AS n_distinct,
                   CAST(min(event_id) AS BIGINT) AS min_id,
                   CAST(max(event_id) AS BIGINT) AS max_id,
                   CAST(count(event_id) - count(DISTINCT event_id)
                        AS BIGINT) AS n_dup_rows,
                   CAST(max(event_id) - min(event_id) + 1
                        - count(DISTINCT event_id) AS BIGINT) AS n_missing
            FROM events
        """,
        "welch_ttest_events": """
            WITH s AS (
                SELECT CASE WHEN event_type = 'view' THEN 'a'
                            ELSE 'b' END AS side, value
                FROM events
                WHERE event_type IN ('view', 'purchase')
                      AND value IS NOT NULL
            ),
            agg AS (SELECT side, count(*) AS n, avg(value) AS m,
                           var_samp(value) AS v
                    FROM s GROUP BY side),
            w AS (SELECT
                    max(CASE WHEN side = 'a' THEN n END) AS na,
                    max(CASE WHEN side = 'a' THEN m END) AS ma,
                    max(CASE WHEN side = 'a' THEN v END) AS va,
                    max(CASE WHEN side = 'b' THEN n END) AS nb,
                    max(CASE WHEN side = 'b' THEN m END) AS mb,
                    max(CASE WHEN side = 'b' THEN v END) AS vb
                  FROM agg)
            SELECT CAST(coalesce(na, 0) AS BIGINT) AS n_a,
                   CAST(coalesce(nb, 0) AS BIGINT) AS n_b,
                   round(ma, 6) AS mean_a_r6, round(mb, 6) AS mean_b_r6,
                   round((ma - mb) / sqrt(va/na + vb/nb), 6) AS t_r6,
                   round(pow(va/na + vb/nb, 2)
                         / (pow(va/na, 2)/(na - 1)
                            + pow(vb/nb, 2)/(nb - 1)), 6) AS df_r6
            FROM w
        """,
        # zone map: the oracle recomputes the footer facts by FULL SCAN with
        # filename=true — metadata path vs data path must agree exactly
        "zonemap_transcripts": f"""
            SELECT regexp_extract(filename, '[^/]+$') AS file,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(CASE WHEN conv_id IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_nulls,
                   min(conv_id) AS min_conv,
                   max(conv_id) AS max_conv
            FROM read_parquet('{_TX_GLOB}', filename=true)
            GROUP BY 1 ORDER BY 1
        """,
        # SELF-ORACLE (hll pattern): exact GROUP BY counts + the Ray side's
        # own CM upper-bound certificate assertion
        "cms_counts_events": """
            SELECT event_type, CAST(count(*) AS BIGINT) AS n_exact,
                   TRUE AS within_bound
            FROM events WHERE event_type IS NOT NULL
            GROUP BY event_type ORDER BY event_type
        """,
        "rolling_distinct_users": """
            WITH du AS (
                SELECT DISTINCT CAST(ts AS DATE) AS d, user_id FROM events
                WHERE ts IS NOT NULL AND user_id IS NOT NULL
            ),
            days AS (SELECT DISTINCT d FROM du)
            SELECT CAST(w.d AS VARCHAR) AS day,
                   CAST(count(DISTINCT du.user_id) AS BIGINT) AS n_keys
            FROM days w
            JOIN du ON du.d BETWEEN w.d - INTERVAL 6 DAY AND w.d
            GROUP BY w.d ORDER BY day
        """,
        "grouped_heavy_hitters_events": """
            WITH c AS (
                SELECT event_type,
                       CAST(CAST(ts AS DATE) AS VARCHAR) AS item,
                       count(*) AS cnt
                FROM events
                WHERE event_type IS NOT NULL AND ts IS NOT NULL
                GROUP BY 1, 2
            ),
            r AS (
                SELECT event_type, item, cnt,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY cnt DESC, item ASC) AS rn
                FROM c
            )
            SELECT event_type, item,
                   CAST(cnt AS BIGINT) AS est_count,
                   CAST(0 AS BIGINT) AS err_bound
            FROM r WHERE rn <= 3 ORDER BY event_type, item
        """,
        # SELF-ORACLE (hll_distinct_events pattern): exact INTERSECT count +
        # the Ray side's own within-bound assertion on the sketch estimate
        "overlap_users_hll": """
            SELECT CAST((
                SELECT count(*) FROM (
                    SELECT user_id FROM events
                    WHERE event_type = 'view' AND user_id IS NOT NULL
                    INTERSECT
                    SELECT user_id FROM events
                    WHERE event_type = 'purchase' AND user_id IS NOT NULL
                )
            ) AS BIGINT) AS n_exact,
            TRUE AS within_bound
        """,
        "psi_drift_events": f"""
            WITH b AS (
                SELECT CAST(LEAST(GREATEST(floor(value / 25.0), 0), 19)
                            AS BIGINT) AS bin,
                       CASE WHEN ts >= TIMESTAMP '{_PSI_SPLIT}'
                            THEN 1 ELSE 0 END AS side
                FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
            ),
            c AS (SELECT bin,
                         sum(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS n_ref,
                         sum(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS n_cur
                  FROM b GROUP BY bin),
            t AS (SELECT sum(n_ref) AS tr, sum(n_cur) AS tc FROM c)
            SELECT round(sum((CAST(n_cur AS DOUBLE) / tc
                              - CAST(n_ref AS DOUBLE) / tr)
                             * ln((CAST(n_cur AS DOUBLE) / tc)
                                  / (CAST(n_ref AS DOUBLE) / tr))), 6)
                       AS psi,
                   CAST(count(*) AS BIGINT) AS n_buckets_used,
                   CAST(min(tr) AS BIGINT) AS n_ref,
                   CAST(min(tc) AS BIGINT) AS n_cur
            FROM c, t WHERE n_ref > 0 AND n_cur > 0
        """,
        "jsd_drift_events": f"""
            WITH c AS (
                SELECT event_type,
                       CAST(count(*) FILTER
                            (WHERE ts < TIMESTAMP '{_PSI_SPLIT}')
                            AS DOUBLE) AS nr,
                       CAST(count(*) FILTER
                            (WHERE ts >= TIMESTAMP '{_PSI_SPLIT}')
                            AS DOUBLE) AS nc
                FROM events
                WHERE event_type IS NOT NULL AND ts IS NOT NULL
                GROUP BY event_type
            ),
            t AS (SELECT sum(nr) AS tr, sum(nc) AS tc FROM c),
            d AS (SELECT nr / tr AS p, nc / tc AS q FROM c, t)
            SELECT round(sum(
                       CASE WHEN p > 0
                            THEN 0.5 * p * log2(2.0 * p / (p + q))
                            ELSE 0 END
                       + CASE WHEN q > 0
                              THEN 0.5 * q * log2(2.0 * q / (p + q))
                              ELSE 0 END), 6) AS jsd,
                   CAST(count(*) AS BIGINT) AS n_categories,
                   CAST((SELECT min(tr) FROM t) AS BIGINT) AS n_ref,
                   CAST((SELECT min(tc) FROM t) AS BIGINT) AS n_cur
            FROM d
        """,
        "cooccurrence_events": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events
                       WHERE user_id IS NOT NULL
                         AND event_type IS NOT NULL)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM d a JOIN d b ON a.user_id = b.user_id
                             AND a.event_type < b.event_type
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "response_latency_transcripts": f"""
            WITH w AS (
                SELECT conv_id, role, ts,
                       lead(role) OVER win AS n_role,
                       lead(ts) OVER win AS n_ts
                FROM read_parquet('{_TX_GLOB}')
                WINDOW win AS (PARTITION BY conv_id
                               ORDER BY turn_idx, role, ts)
            )
            SELECT conv_id,
                   CAST(count(*) AS BIGINT) AS n_pairs,
                   CAST(sum(epoch_us(n_ts) - epoch_us(ts)) AS BIGINT)
                       AS total_latency_us
            FROM w WHERE role = 'user' AND n_role = 'assistant'
            GROUP BY conv_id ORDER BY conv_id
        """,
        "tool_cooccurrence_transcripts": f"""
            WITH d AS (SELECT DISTINCT conv_id, tool
                       FROM read_parquet('{_TX_GLOB}')
                       WHERE conv_id IS NOT NULL AND tool IS NOT NULL)
            SELECT a.tool AS tool_a, b.tool AS tool_b,
                   CAST(count(*) AS BIGINT) AS n_convs
            FROM d a JOIN d b ON a.conv_id = b.conv_id
                             AND a.tool < b.tool
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "profile_table_events": """
            SELECT 'event_id' AS "column", count(*) AS n_rows,
                   count(*) - count(event_id) AS n_nulls,
                   count(DISTINCT event_id) AS n_distinct,
                   FALSE AS approx,
                   CAST(min(event_id) AS BIGINT) AS min_int,
                   CAST(max(event_id) AS BIGINT) AS max_int,
                   CAST(NULL AS DOUBLE) AS min_float,
                   CAST(NULL AS DOUBLE) AS max_float
            FROM events
            UNION ALL
            SELECT 'event_type', count(*), count(*) - count(event_type),
                   count(DISTINCT event_type), FALSE, NULL, NULL, NULL, NULL
            FROM events
            UNION ALL
            SELECT 'props', count(*), count(*) - count(props),
                   count(DISTINCT props), FALSE, NULL, NULL, NULL, NULL
            FROM events
            UNION ALL
            SELECT 'ts', count(*), count(*) - count(ts),
                   count(DISTINCT ts), FALSE,
                   epoch_us(min(ts)), epoch_us(max(ts)), NULL, NULL
            FROM events
            UNION ALL
            SELECT 'user_id', count(*), count(*) - count(user_id),
                   count(DISTINCT user_id), FALSE,
                   CAST(min(user_id) AS BIGINT),
                   CAST(max(user_id) AS BIGINT), NULL, NULL
            FROM events
            UNION ALL
            SELECT 'value', count(*), count(*) - count(value),
                   count(DISTINCT value), FALSE, NULL, NULL,
                   min(value), max(value)
            FROM events
            ORDER BY "column"
        """,
        "pagerank_purchases": f"""
            WITH e AS (SELECT o.o_custkey AS src,
                              l.l_suppkey + {_PR_SUPP_OFFSET} AS dst,
                              CAST(count(*) AS DOUBLE) AS w
                       FROM lineitem l
                       JOIN orders o ON l.l_orderkey = o.o_orderkey
                       -- null-endpoint edges are DROPPED by the engine
                       -- (ops.graph.pagerank edge filter) — encode that
                       -- contract here so a null custkey/suppkey can never
                       -- plant a NULL node with rank 0.15 (ADVICE r4)
                       WHERE o.o_custkey IS NOT NULL
                             AND l.l_suppkey IS NOT NULL
                       GROUP BY 1, 2),
            ow AS (SELECT src, sum(w) AS ow FROM e GROUP BY src),
            n AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
            r0 AS (SELECT node, 1.0 AS r FROM n),
            r1 AS (SELECT n.node,
                          0.15 + 0.85 * coalesce(
                              sum(r0.r * e.w / ow.ow), 0) AS r
                   FROM n LEFT JOIN e ON e.dst = n.node
                          LEFT JOIN ow ON ow.src = e.src
                          LEFT JOIN r0 ON r0.node = e.src
                   GROUP BY n.node),
            r2 AS (SELECT n.node,
                          0.15 + 0.85 * coalesce(
                              sum(r1.r * e.w / ow.ow), 0) AS r
                   FROM n LEFT JOIN e ON e.dst = n.node
                          LEFT JOIN ow ON ow.src = e.src
                          LEFT JOIN r1 ON r1.node = e.src
                   GROUP BY n.node)
            SELECT node, round(r, 6) AS rank FROM r2 ORDER BY node
        """,
        "incremental_dedup_documents": """
            SELECT d.doc_id FROM documents d
            WHERE NOT EXISTS (SELECT 1 FROM documents s
                              WHERE s.doc_id % 3 = 0 AND s.text = d.text)
            ORDER BY d.doc_id
        """,
        "local_supplier_volume": """
            WITH asia AS (SELECT n_nationkey, n_name
                          FROM nation JOIN region
                               ON n_regionkey = r_regionkey
                          WHERE r_name = 'ASIA')
            SELECT a.n_name,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT))) AS BIGINT) AS rev_e4
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN asia a ON s_nationkey = a.n_nationkey
            WHERE c_nationkey = s_nationkey
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY a.n_name
            ORDER BY rev_e4 DESC, n_name
        """,
        "bpe_token_count_documents": """
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\\w+|[^\\w\\s]'))
                        AS BIGINT) AS n_bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "lang_stats_documents": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "viewers_without_purchase": """
            SELECT DISTINCT user_id FROM events WHERE event_type = 'view'
            EXCEPT
            SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
            ORDER BY user_id
        """,
        "sample_events": """
            SELECT event_id, user_id FROM events
            WHERE (event_id * 2654435761 + 7 * 2654435769) % 4294967296
                  < CAST(0.1 * 4294967296 AS BIGINT)
            ORDER BY event_id
        """,
        "events_per_day": """
            SELECT date_trunc('day', ts) AS day, count(*) AS n
            FROM events GROUP BY 1 ORDER BY 1
        """,
        # SELF-ORACLES (documented): the SQL re-derives every deterministic
        # column (decoded dims / frame counts from the generator's size
        # formulas) and asserts the round-trip flags the Ray side computes
        # by comparing decoded output against regenerated ground truth —
        # a decode or feature regression fails the gate.
        "langid_documents": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   TRUE AS planted_ok
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "fingerprint_documents": """
            SELECT CAST((SELECT count(*) FROM documents) AS BIGINT)
                       AS n_docs,
                   CAST(COALESCE((SELECT sum(c * (c - 1) / 2)
                                  FROM (SELECT count(*) AS c FROM documents
                                        GROUP BY text) WHERE c > 1), 0)
                        AS BIGINT) AS n_dup_pairs,
                   TRUE AS dup_fp_equal
        """,
        "asof_join_events_orders": """
            WITH m AS (
                SELECT e.event_id, e.user_id, o.o_orderdate AS asof_date
                FROM events e ASOF JOIN orders o
                  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate)
            SELECT m.event_id, m.user_id, m.asof_date,
                   CAST(count(*) AS BIGINT) AS n_at_asof,
                   CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_price_cents
            FROM m JOIN orders o
              ON o.o_custkey = m.user_id AND o.o_orderdate = m.asof_date
            GROUP BY m.event_id, m.user_id, m.asof_date
            ORDER BY m.event_id
        """,
        "order_window_events": """
            SELECT o.o_orderkey,
                   CAST(count(e.ts) AS BIGINT) AS n_events,
                   CAST(COALESCE(sum(CAST(round(e.value * 100) AS BIGINT)),
                                 0) AS BIGINT) AS sum_value_cents
            FROM orders o LEFT JOIN events e
              ON e.user_id = o.o_custkey
             AND e.ts >= o.o_orderdate
             AND e.ts < o.o_orderdate + INTERVAL 7 DAY
            GROUP BY o.o_orderkey ORDER BY o.o_orderkey
        """,
        "value_quantiles_by_event_type": """
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   round(quantile_cont(value, 0.25), 6) AS q25,
                   round(quantile_cont(value, 0.50), 6) AS q50,
                   round(quantile_cont(value, 0.90), 6) AS q90
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "top3_orders_per_customer": """
            SELECT o_custkey, o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
                   CAST(rk AS BIGINT) AS rk
            FROM (SELECT o_custkey, o_orderkey, o_totalprice,
                         row_number() OVER (
                             PARTITION BY o_custkey
                             ORDER BY o_totalprice DESC, o_orderkey) AS rk
                  FROM orders)
            WHERE rk <= 3 ORDER BY o_custkey, rk
        """,
        "multimodal_image_features": """
            SELECT range AS media_id,
                   64 + 32 * (range % 4) AS width,
                   64 + 32 * ((range + 1) % 4) AS height,
                   TRUE AS feature_exact
            FROM range(0, 96, 3) ORDER BY media_id
        """,
        "multimodal_audio_frames": """
            SELECT range AS media_id, CAST(2 AS BIGINT) AS n_frames,
                   TRUE AS rms_exact
            FROM range(1, 96, 3) ORDER BY media_id
        """,
        "multimodal_resize_images": """
            SELECT range AS media_id,
                   CAST(48 AS BIGINT) AS width,
                   CAST(48 AS BIGINT) AS height,
                   64 + 32 * (range % 4) AS orig_width,
                   64 + 32 * ((range + 1) % 4) AS orig_height,
                   TRUE AS payload_exact
            FROM range(0, 96, 3) ORDER BY media_id
        """,
        "multimodal_video_frames": """
            SELECT range AS media_id,
                   4 + (range // 3) % 3 AS n_frames,
                   CAST(ceil((4 + (range // 3) % 3) / 2.0) AS BIGINT)
                       AS n_sampled,
                   64 + 32 * (range % 4) AS width,
                   64 + 32 * ((range + 1) % 4) AS height,
                   TRUE AS luma_exact
            FROM range(2, 96, 3) ORDER BY media_id
        """,
        "drift_events_type": """
            WITH ref(event_type) AS (VALUES ('click'), ('error'),
                                            ('purchase'), ('signup'),
                                            ('view')),
            obs AS (SELECT event_type, CAST(count(*) AS DOUBLE) AS n
                    FROM events GROUP BY event_type),
            tot AS (SELECT sum(n) AS total FROM obs),
            cats AS (SELECT COALESCE(o.n, 0) AS n,
                            r.event_type IS NOT NULL AS in_ref
                     FROM ref r FULL OUTER JOIN obs o
                          ON r.event_type = o.event_type)
            SELECT 'drift:event_type' AS constraint_id,
                   round(sum(pow(n - (CASE WHEN in_ref THEN 0.2 ELSE 1e-9
                                      END) * total, 2)
                             / ((CASE WHEN in_ref THEN 0.2 ELSE 1e-9
                                 END) * total)), 6) AS statistic,
                   CAST(count(*) AS BIGINT) AS n_categories
            FROM cats, tot
        """,
        "simsearch_top5": """
            SELECT b.vec_id,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS cos
            FROM embeddings a CROSS JOIN embeddings b
            WHERE a.vec_id = 0 AND b.vec_id <> 0
            ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                            CAST(b.embedding AS DOUBLE[])) DESC,
                     b.vec_id
            LIMIT 5
        """,
        # SELF-ORACLE (documented in q_ivf_search_embeddings): n_results is
        # genuinely SQL-derivable (an ANN top-k must return exactly k rows
        # on a corpus with > k candidates); recall_floor_ok is the Ray-side
        # verification that IVF recall vs the engine's own exact top-5
        # meets the ≥0.6 floor (deterministic 0.8 on these corpora now that
        # centroid training is order-independent; oracle states TRUE).
        "ivf_search_embeddings": """
            SELECT CAST(5 AS BIGINT) AS n_results, TRUE AS recall_floor_ok
        """,
        # SELF-ORACLE (documented in q_hll_distinct_events): n_exact is
        # genuinely SQL-derived; within_bound is the Ray-side ±2% HLL
        # accuracy verification (oracle states TRUE).
        "hll_distinct_events": """
            SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_exact,
                   TRUE AS within_bound
            FROM events
        """,
        "simsearch_multi": """
            SELECT query_id, vec_id, cos FROM (
                SELECT a.vec_id AS query_id, b.vec_id,
                       round(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])), 4) AS cos,
                       row_number() OVER (
                           PARTITION BY a.vec_id
                           ORDER BY list_cosine_similarity(
                               CAST(a.embedding AS DOUBLE[]),
                               CAST(b.embedding AS DOUBLE[])) DESC,
                               b.vec_id) AS rn
                FROM embeddings a CROSS JOIN embeddings b
                WHERE a.vec_id IN (0,1,2,3,4)
                  AND b.vec_id NOT IN (0,1,2,3,4))
            WHERE rn <= 3
            ORDER BY query_id, cos DESC, vec_id
        """,
        "sessionize_events": """
            WITH w AS (
                SELECT user_id, ts,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS pts
                FROM events)
            SELECT user_id,
                   count(*) FILTER (WHERE pts IS NULL
                                    OR ts - pts > INTERVAL 30 MINUTE)
                       AS n_sessions
            FROM w GROUP BY user_id ORDER BY user_id
        """,
        "ngram_jaccard_neardup": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            tri AS (SELECT DISTINCT doc_id,
                           unnest(list_transform(
                               generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                               AS t
                    FROM w WHERE len(ws) >= 3),
            cnt AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
                      FROM tri a JOIN tri b
                        ON a.t = b.t AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT id_a, id_b,
                   round(CAST(i AS DOUBLE) / (ca.n + cb.n - i), 4) AS jaccard
            FROM inter JOIN cnt ca ON ca.doc_id = id_a
                       JOIN cnt cb ON cb.doc_id = id_b
            WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.5
            ORDER BY id_a, id_b
        """,
        "neardup_components_documents": """
            WITH RECURSIVE
            w AS (SELECT doc_id, string_split(text, ' ') AS ws
                  FROM documents),
            tri AS (SELECT DISTINCT doc_id,
                           unnest(list_transform(
                               generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                               AS t
                    FROM w WHERE len(ws) >= 3),
            cnt AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
                      FROM tri a JOIN tri b
                        ON a.t = b.t AND a.doc_id < b.doc_id
                      GROUP BY 1, 2),
            p AS (SELECT id_a, id_b
                  FROM inter JOIN cnt ca ON ca.doc_id = id_a
                             JOIN cnt cb ON cb.doc_id = id_b
                  WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.5),
            edges AS (SELECT id_a AS u, id_b AS v FROM p
                      UNION SELECT id_b, id_a FROM p),
            reach(node, m) AS (
                SELECT u, v FROM edges
                UNION
                SELECT reach.node, edges.v
                FROM reach JOIN edges ON edges.u = reach.m),
            comp AS (SELECT node, least(node, min(m)) AS component
                     FROM reach GROUP BY node)
            SELECT node AS doc_id, component, node = component AS keep
            FROM comp ORDER BY doc_id
        """,
        "decontaminate_documents": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            tri AS (SELECT DISTINCT doc_id,
                           unnest(list_transform(
                               generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                               AS t
                    FROM w WHERE len(ws) >= 3),
            bench AS (SELECT DISTINCT t FROM tri WHERE doc_id < 5),
            ov AS (SELECT tri.doc_id, count(*) AS n_overlap
                   FROM tri JOIN bench USING (t)
                   WHERE tri.doc_id >= 5 GROUP BY 1),
            docs AS (SELECT doc_id, count(*) AS n_grams FROM tri
                     WHERE doc_id >= 5 GROUP BY 1)
            SELECT d.doc_id, d.n_grams,
                   COALESCE(o.n_overlap, 0) AS n_overlap,
                   COALESCE(o.n_overlap, 0) >= 5 AS contaminated
            FROM docs d LEFT JOIN ov o ON o.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        "stratified_sample_documents": """
            SELECT lang, doc_id, rk FROM (
                SELECT lang, doc_id,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761
                                     + 7 * 2654435769) % 4294967296,
                                    doc_id) AS rk
                FROM documents)
            WHERE rk <= 20 ORDER BY lang, doc_id
        """,
        "sink_roundtrip_documents": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "event_deltas": """
            SELECT event_id, user_id,
                   CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id)
                       AS BIGINT) AS delta_us
            FROM events ORDER BY event_id
        """,
        "value_histogram_events": """
            WITH b AS (SELECT CAST(least(floor(value / 25.0), 19.0)
                                   AS BIGINT) AS bin FROM events),
            bins AS (SELECT CAST(range AS BIGINT) AS bin FROM range(0, 20))
            SELECT bins.bin,
                   CAST(coalesce(count(b.bin), 0) AS BIGINT) AS n
            FROM bins LEFT JOIN b USING (bin)
            GROUP BY bins.bin ORDER BY bins.bin
        """,
        "events_pivot": """
            SELECT date_trunc('day', ts) AS day,
                   CAST(count(*) FILTER (event_type = 'click') AS BIGINT)
                       AS n_click,
                   CAST(count(*) FILTER (event_type = 'error') AS BIGINT)
                       AS n_error,
                   CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT)
                       AS n_purchase,
                   CAST(count(*) FILTER (event_type = 'signup') AS BIGINT)
                       AS n_signup,
                   CAST(count(*) FILTER (event_type = 'view') AS BIGINT)
                       AS n_view,
                   CAST(count(*) AS BIGINT) AS n_total
            FROM events GROUP BY day ORDER BY day
        """,
        "orders_by_nation": """
            SELECT n.n_name,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "label_centroids_embeddings": """
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(i AS BIGINT) AS dim,
                   CAST(sum(CAST(floor(CAST(embedding[i] AS DOUBLE)
                                       * 16777216.0) AS BIGINT)) AS BIGINT)
                       AS sum_e24,
                   CAST(count(*) AS BIGINT) AS n
            FROM embeddings, range(1, 65) t(i)
            GROUP BY label, i ORDER BY label, dim
        """,
        "top_returns_customers": """
            SELECT c.c_custkey, c.c_name, n.n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_e4
            FROM customer c, orders o, lineitem l, nation n
            WHERE c.c_custkey = o.o_custkey
              AND l.l_orderkey = o.o_orderkey
              AND l.l_returnflag = 'R'
              AND c.c_nationkey = n.n_nationkey
            GROUP BY c.c_custkey, c.c_name, n.n_name
            ORDER BY revenue_e4 DESC, c.c_custkey
            LIMIT 20
        """,
        "quality_filter_by_lang": """
            WITH q AS (
                SELECT doc_id, lang,
                       CAST(length(text) AS DOUBLE)
                           / len(string_split(text, ' ')) AS mean_word_len
                FROM documents),
            m AS (SELECT lang, quantile_cont(mean_word_len, 0.5) AS med
                  FROM q GROUP BY lang)
            SELECT q.doc_id, q.lang, q.mean_word_len
            FROM q JOIN m USING (lang)
            WHERE q.mean_word_len >= m.med
            ORDER BY q.doc_id
        """,
        "term_search_documents": """
            SELECT doc_id FROM documents
            WHERE list_contains(string_split(text, ' '), 'hash')
              AND list_contains(string_split(text, ' '), 'window')
            ORDER BY doc_id
        """,
        "chunk_documents": """
            SELECT d.doc_id, k AS chunk_idx,
                   substring(d.text, k*160 + 1, 200) AS chunk_text,
                   CAST(length(substring(d.text, k*160 + 1, 200)) AS BIGINT)
                       AS n_chunk_chars
            FROM documents d
            CROSS JOIN (SELECT unnest(range(0, CAST(ceil(
                (SELECT max(n_chars) FROM documents)::DOUBLE / 160)
                AS BIGINT))) AS k) ks
            WHERE k*160 < d.n_chars
            ORDER BY d.doc_id, k
        """,
        "redact_events_props": """
            SELECT event_id,
                   regexp_replace(props, '[0-9]+', '<NUM>', 'g') AS redacted,
                   CAST(len(regexp_extract_all(props, '[0-9]+')) AS BIGINT)
                       AS n_redactions
            FROM events WHERE event_type = 'error'
            ORDER BY event_id
        """,
        "cluster_assign_embeddings": """
            WITH seeds AS (
                SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS cvec
                FROM embeddings WHERE vec_id < 8),
            scored AS (
                SELECT e.vec_id, s.cid,
                       list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]), s.cvec) AS cos
                FROM embeddings e CROSS JOIN seeds s),
            best AS (
                SELECT vec_id,
                       (array_agg(cid ORDER BY cos DESC, cid))[1]
                           AS cluster_id
                FROM scored GROUP BY vec_id)
            SELECT cluster_id, CAST(count(*) AS BIGINT) AS n_members,
                   CAST(min(vec_id) AS BIGINT) AS min_vec_id
            FROM best GROUP BY cluster_id ORDER BY cluster_id
        """,
        "heavy_hitters_events": """
            SELECT event_type AS item, CAST(count(*) AS BIGINT) AS est_count,
                   CAST(0 AS BIGINT) AS err_bound
            FROM events GROUP BY event_type
            ORDER BY est_count DESC, item LIMIT 5
        """,
        "unpivot_events_daily": """
            WITH daily AS (
                SELECT date_trunc('day', ts) AS day,
                       sum(CASE WHEN event_type = 'click'
                                THEN CAST(round(value * 100) AS BIGINT)
                                ELSE 0 END) / 100.0 AS click,
                       sum(CASE WHEN event_type = 'view'
                                THEN CAST(round(value * 100) AS BIGINT)
                                ELSE 0 END) / 100.0 AS view
                FROM events GROUP BY 1)
            SELECT day, name, val
            FROM daily UNPIVOT (val FOR name IN (click, view))
            ORDER BY day, name
        """,
        "ntile_events": """
            SELECT event_id,
                   CAST(ntile(4) OVER (PARTITION BY event_type
                                       ORDER BY value, event_id)
                        AS BIGINT) AS tile
            FROM events ORDER BY event_id
        """,
        # SELF-ORACLE (documented in q_approx_quantiles_by_event_type):
        # the exact quantiles are SQL-derived (quantile_cont); within_bound
        # is the Ray-side 5%-relative t-digest accuracy verification
        # (oracle states TRUE).
        "approx_quantiles_by_event_type": """
            SELECT event_type,
                   round(quantile_cont(value, 0.5), 4) AS p50_exact,
                   round(quantile_cont(value, 0.99), 4) AS p99_exact,
                   TRUE AS within_bound
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "clean_corpus_documents": """
            WITH m AS (
                SELECT doc_id, text, lang, n_chars,
                       1.0 - CAST(len(list_distinct(string_split(text, ' ')))
                                  AS DOUBLE) / len(string_split(text, ' '))
                           AS dup_ratio
                FROM documents),
            f AS (SELECT * FROM m
                  WHERE n_chars >= 150 AND dup_ratio <= 0.55
                    AND lang IN ('en', 'de', 'fr', 'es'))
            SELECT CAST(min(doc_id) AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_copies
            FROM f GROUP BY text ORDER BY doc_id
        """,
        "neardup_keep_best_documents": """
            WITH RECURSIVE
            w AS (SELECT doc_id, string_split(text, ' ') AS ws
                  FROM documents),
            tri AS (SELECT DISTINCT doc_id,
                           unnest(list_transform(
                               generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                               AS t
                    FROM w WHERE len(ws) >= 3),
            cnt AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
                      FROM tri a JOIN tri b
                        ON a.t = b.t AND a.doc_id < b.doc_id
                      GROUP BY 1, 2),
            p AS (SELECT id_a, id_b
                  FROM inter JOIN cnt ca ON ca.doc_id = id_a
                             JOIN cnt cb ON cb.doc_id = id_b
                  WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.5),
            edges AS (SELECT id_a AS u, id_b AS v FROM p
                      UNION SELECT id_b, id_a FROM p),
            reach(node, m) AS (
                SELECT u, v FROM edges
                UNION
                SELECT reach.node, edges.v
                FROM reach JOIN edges ON edges.u = reach.m),
            comp AS (SELECT node, least(node, min(m)) AS component
                     FROM reach GROUP BY node),
            scored AS (SELECT comp.node, comp.component, d.n_chars
                       FROM comp JOIN documents d ON d.doc_id = comp.node),
            best AS (SELECT component,
                            (array_agg(node ORDER BY n_chars DESC, node))[1]
                                AS keeper
                     FROM scored GROUP BY component)
            SELECT s.node AS doc_id, s.component,
                   s.node = b.keeper AS keep
            FROM scored s JOIN best b USING (component)
            ORDER BY doc_id
        """,
        "rolling_window_events": """
            SELECT event_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w
                        AS BIGINT) AS win_sum_cents,
                   CAST(count(*) OVER w AS BIGINT) AS win_n
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
            ORDER BY event_id
        """,
        "bloom_semi_join_events": """
            SELECT e.event_type, CAST(count(*) AS BIGINT) AS n_events
            FROM events e
            WHERE EXISTS (SELECT 1 FROM events p
                          WHERE p.event_type = 'purchase'
                            AND p.user_id = e.user_id)
            GROUP BY e.event_type ORDER BY e.event_type
        """,
        "hive_partition_roundtrip_documents": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "grouped_distinct_users_by_type": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # SELF-ORACLE (documented in q_approx_distinct_users_by_type):
        # n_exact is genuinely SQL-derived; within_bound is the Ray-side
        # per-group +/-3% HLL accuracy verification (oracle states TRUE).
        "approx_distinct_users_by_type": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_exact,
                   TRUE AS within_bound
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "funnel_events": """
            WITH s0 AS (SELECT user_id, min(ts) AS t_view FROM events
                        WHERE event_type = 'view' GROUP BY user_id),
            s1 AS (SELECT e.user_id, min(e.ts) AS t_click FROM events e
                   JOIN s0 ON e.user_id = s0.user_id
                   WHERE e.event_type = 'click' AND e.ts > s0.t_view
                   GROUP BY e.user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t_purchase FROM events e
                   JOIN s1 ON e.user_id = s1.user_id
                   WHERE e.event_type = 'purchase' AND e.ts > s1.t_click
                   GROUP BY e.user_id)
            SELECT s0.user_id, s0.t_view, s1.t_click, s2.t_purchase
            FROM s0 JOIN s1 ON s0.user_id = s1.user_id
                    JOIN s2 ON s1.user_id = s2.user_id
            ORDER BY s0.user_id
        """,
        "outlier_events_p99": """
            WITH th AS (
                SELECT event_type, quantile_cont(value, 0.99) AS p99
                FROM events GROUP BY event_type)
            SELECT e.event_id, e.event_type, e.value
            FROM events e JOIN th USING (event_type)
            WHERE e.value > th.p99
            ORDER BY e.event_id
        """,
        # SELF-ORACLE (documented in q_kmeans_clusters_embeddings):
        # n_assigned is genuinely SQL-derivable (Lloyd's assigns every
        # embedding exactly one cluster); the two booleans are the Ray-side
        # verification of the algorithm's guaranteed monotone objective
        # (oracle states TRUE).
        "kmeans_clusters_embeddings": """
            SELECT CAST(count(*) AS BIGINT) AS n_assigned,
                   TRUE AS objective_monotone, TRUE AS improved
            FROM embeddings
        """,
        "repetition_documents": """
            SELECT doc_id,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
                   CAST(len(list_distinct(string_split(text, ' ')))
                        AS BIGINT) AS n_distinct_words,
                   1.0 - CAST(len(list_distinct(string_split(text, ' ')))
                              AS DOUBLE) / len(string_split(text, ' '))
                       AS dup_ratio
            FROM documents ORDER BY doc_id
        """,
        "tfidf_documents": """
            WITH words AS (
                SELECT doc_id, u.w AS term
                FROM documents, unnest(string_split(text, ' ')) AS u(w)
                WHERE u.w <> ''),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                   FROM words GROUP BY doc_id, term),
            df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
                   FROM words GROUP BY term),
            n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term, tf.tf, df.df,
                       tf.tf * (n.n / df.df) AS score,
                       row_number() OVER (
                           PARTITION BY tf.doc_id
                           ORDER BY tf.tf * (n.n / df.df) DESC,
                                    tf.term ASC) AS rnk
                FROM tf JOIN df USING (term), n)
            SELECT doc_id, term, tf, df, score,
                   CAST(rnk AS BIGINT) AS rank
            FROM scored WHERE rnk <= 3 ORDER BY doc_id, rank
        """,
        "customer_order_totals": """
            SELECT c.c_custkey,
                   CAST(coalesce(o.n_orders, 0) AS BIGINT) AS n_orders,
                   CAST(coalesce(o.total_cents, 0) AS BIGINT) AS total_cents
            FROM customer c LEFT JOIN (
                SELECT o_custkey, count(*) AS n_orders,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT))
                           AS total_cents
                FROM orders GROUP BY o_custkey) o
                ON c.c_custkey = o.o_custkey
            ORDER BY c.c_custkey
        """,
        "events_rollup": """
            WITH e AS (SELECT event_type, date_trunc('day', ts) AS day,
                              CAST(round(value * 100) AS BIGINT) AS vc
                       FROM events)
            SELECT event_type, day, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(vc) AS BIGINT) AS value_cents
            FROM e
            GROUP BY GROUPING SETS ((event_type, day), (event_type), ())
            ORDER BY event_type NULLS LAST, day NULLS LAST
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS cos
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.45
            ORDER BY id_a, id_b
        """,
        # SELF-ORACLE (documented): the IVF path is approximate by design,
        # but with the deterministic hash-sampled k-means seed and 3-probe
        # assignment its recall is 1.0 on these corpora (cross-checked in
        # tests/test_ops.py), so its output must EQUAL the exact all-pairs
        # join — the same SQL verifies both, and any recall regression
        # fails this gate instead of hiding behind "no oracle".
        "embedding_neardup_ivf": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS cos
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.45
            ORDER BY id_a, id_b
        """,
        "percent_rank_events": """
            SELECT event_id, event_type,
                   round(percent_rank() OVER (PARTITION BY event_type
                                              ORDER BY value), 6) AS prk_r6
            FROM events WHERE value IS NOT NULL
            ORDER BY event_id
        """,
        "order_window_overlaps": """
            WITH w AS (
                SELECT o_orderkey, o_custkey,
                       o_orderdate AS s,
                       o_orderdate + INTERVAL 7 DAY AS e
                FROM orders)
            SELECT a.o_orderkey, CAST(count(*) AS BIGINT) AS n_overlaps
            FROM w a JOIN w b
              ON a.o_custkey = b.o_custkey
             AND b.s < a.e AND b.e > a.s
            GROUP BY a.o_orderkey ORDER BY a.o_orderkey
        """,
        "table_diff_orders": """
            WITH base AS (SELECT o_orderkey AS k, o_custkey AS ck,
                                 CAST(round(o_totalprice * 100) AS BIGINT)
                                     AS cents
                          FROM orders),
            l AS (SELECT * FROM base WHERE k % 97 <> 0),
            r AS (SELECT k, ck,
                         cents + CASE WHEN k % 101 = 0 THEN 12345
                                      ELSE 0 END AS cents
                  FROM base WHERE k % 89 <> 0)
            SELECT COALESCE(l.k, r.k) AS o_orderkey,
                   CASE WHEN r.k IS NULL THEN 'only_left'
                        WHEN l.k IS NULL THEN 'only_right'
                        ELSE 'changed' END AS status,
                   CASE WHEN l.k IS NULL OR r.k IS NULL THEN 0
                        ELSE CAST(l.ck IS DISTINCT FROM r.ck AS BIGINT)
                           + CAST(l.cents IS DISTINCT FROM r.cents
                                  AS BIGINT) END AS n_changed_cols
            FROM l FULL OUTER JOIN r ON l.k = r.k
            WHERE l.k IS NULL OR r.k IS NULL
               OR l.ck IS DISTINCT FROM r.ck
               OR l.cents IS DISTINCT FROM r.cents
            ORDER BY o_orderkey
        """,
        "user_activity_full_outer": """
            SELECT coalesce(e.uid, o.uid) AS uid, e.n_events, o.n_orders
            FROM (SELECT user_id AS uid, CAST(count(*) AS BIGINT) AS n_events
                  FROM events GROUP BY 1) e
            FULL OUTER JOIN
                 (SELECT o_custkey AS uid,
                         CAST(count(*) AS BIGINT) AS n_orders
                  FROM orders GROUP BY 1) o
              ON e.uid = o.uid
            ORDER BY uid
        """,
        "mode_event_type_by_user": """
            SELECT user_id, mode, n FROM (
                SELECT user_id, event_type AS mode,
                       CAST(count(*) AS BIGINT) AS n,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY count(*) DESC,
                                                   event_type) AS rn
                FROM events
                WHERE user_id IS NOT NULL AND event_type IS NOT NULL
                GROUP BY user_id, event_type)
            WHERE rn = 1 ORDER BY user_id
        """,
        "latest_event_per_user": """
            SELECT user_id, event_id, ts, event_type FROM (
                SELECT user_id, event_id, ts, event_type,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts DESC, event_id) AS rn
                FROM events
                WHERE user_id IS NOT NULL AND ts IS NOT NULL)
            WHERE rn = 1 ORDER BY user_id
        """,
        "vocab_entropy_by_lang": """
            WITH w AS (SELECT lang,
                              unnest(string_split(text, ' ')) AS w
                       FROM documents
                       WHERE lang IS NOT NULL AND text IS NOT NULL),
            cnt AS (SELECT lang, w, CAST(count(*) AS DOUBLE) AS c
                    FROM w GROUP BY lang, w),
            tot AS (SELECT lang, sum(c) AS t FROM cnt GROUP BY lang)
            SELECT cnt.lang AS lang,
                   round(-sum((c / t) * log2(c / t)), 6) AS entropy_r6,
                   CAST(max(t) AS BIGINT) AS n_words
            FROM cnt JOIN tot USING (lang)
            GROUP BY cnt.lang ORDER BY lang
        """,
        "ks_drift_events": """
            WITH pts AS (
                SELECT value AS v,
                       CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END
                           AS a,
                       CASE WHEN event_type = 'view' THEN 1 ELSE 0 END AS b
                FROM events
                WHERE value IS NOT NULL
                  AND event_type IN ('purchase', 'view')),
            agg AS (SELECT v, CAST(sum(a) AS DOUBLE) AS ca,
                           CAST(sum(b) AS DOUBLE) AS cb
                    FROM pts GROUP BY v),
            cum AS (SELECT v, sum(ca) OVER (ORDER BY v) AS cum_a,
                           sum(cb) OVER (ORDER BY v) AS cum_b
                    FROM agg),
            tot AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM agg)
            SELECT round(max(abs(cum_a / na - cum_b / nb)), 6) AS ks_stat_r6,
                   CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b
            FROM cum, tot GROUP BY na, nb
        """,
        "pack_documents": """
            WITH RECURSIVE ranked AS (
                SELECT doc_id, n_chars, doc_id // 500 AS grp,
                       row_number() OVER (PARTITION BY doc_id // 500
                                          ORDER BY doc_id) AS rn
                FROM documents
                WHERE doc_id IS NOT NULL AND n_chars IS NOT NULL),
            packed AS (
                SELECT grp, rn, doc_id, n_chars,
                       CAST(0 AS BIGINT) AS bin, n_chars AS fill
                FROM ranked WHERE rn = 1
                UNION ALL
                SELECT r.grp, r.rn, r.doc_id, r.n_chars,
                       CASE WHEN p.fill + r.n_chars <= 2048 THEN p.bin
                            ELSE p.bin + 1 END,
                       CASE WHEN p.fill + r.n_chars <= 2048
                            THEN p.fill + r.n_chars ELSE r.n_chars END
                FROM packed p
                JOIN ranked r ON r.grp = p.grp AND r.rn = p.rn + 1)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(grp AS BIGINT) AS grp, bin,
                   CAST(fill AS BIGINT) AS fill
            FROM packed ORDER BY doc_id
        """,
        "concat_packed_documents": """
            WITH RECURSIVE ranked AS (
                SELECT doc_id, n_chars, doc_id // 500 AS grp,
                       row_number() OVER (PARTITION BY doc_id // 500
                                          ORDER BY doc_id) AS rn
                FROM documents
                WHERE doc_id IS NOT NULL AND n_chars IS NOT NULL),
            packed AS (
                SELECT grp, rn, doc_id, n_chars,
                       CAST(0 AS BIGINT) AS bin, n_chars AS fill
                FROM ranked WHERE rn = 1
                UNION ALL
                SELECT r.grp, r.rn, r.doc_id, r.n_chars,
                       CASE WHEN p.fill + r.n_chars <= 2048 THEN p.bin
                            ELSE p.bin + 1 END,
                       CASE WHEN p.fill + r.n_chars <= 2048
                            THEN p.fill + r.n_chars ELSE r.n_chars END
                FROM packed p
                JOIN ranked r ON r.grp = p.grp AND r.rn = p.rn + 1)
            SELECT CAST(p.grp AS BIGINT) AS grp,
                   p.bin,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(length(string_agg(d.text, ' ' ORDER BY d.doc_id))
                        AS BIGINT) AS packed_chars,
                   md5(string_agg(d.text, ' ' ORDER BY d.doc_id))
                       AS packed_md5
            FROM packed p JOIN documents d USING (doc_id)
            GROUP BY p.grp, p.bin ORDER BY grp, bin
        """,
        "shuffle_positions_documents": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(row_number() OVER (
                        ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761)
                                 % 18446744073709551616) AS BIGINT) AS pos
            FROM documents ORDER BY doc_id
        """,
        "jsonl_roundtrip_documents": """
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(doc_id) AS BIGINT) AS sum_ids,
                   CAST(sum(length(text)) AS BIGINT) AS sum_text_chars
            FROM documents
        """,
        "csv_roundtrip_documents": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "ipc_roundtrip_documents": """
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(doc_id) AS BIGINT) AS sum_ids,
                   CAST(sum(length(text)) AS BIGINT) AS sum_text_chars
            FROM documents
        """,
        "user_journeys_events": """
            WITH r AS (
                SELECT user_id, event_type,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn,
                       count(*) OVER (PARTITION BY user_id) AS cnt
                FROM events
                WHERE user_id IS NOT NULL AND event_type IS NOT NULL
            )
            SELECT user_id,
                   string_agg(event_type, '>' ORDER BY rn) AS path,
                   CAST(max(cnt) AS BIGINT) AS n_events
            FROM r WHERE rn <= 8
            GROUP BY user_id ORDER BY user_id
        """,
        "apply_changes_orders": """
            WITH ch AS (
                SELECT o_orderkey AS k, 2 AS seq, 'U' AS op,
                       o_orderstatus AS s, o_totalprice + 1000.0 AS p
                FROM orders WHERE o_orderkey % 10 = 3
                UNION ALL
                SELECT o_orderkey, 1, 'D', NULL, NULL
                FROM orders WHERE o_orderkey % 10 = 7
                UNION ALL
                SELECT o_orderkey + 1000000000, 3, 'U',
                       o_orderstatus, o_totalprice * 0.5
                FROM orders WHERE o_orderkey % 10 = 1
                UNION ALL
                SELECT o_orderkey, 5, 'U',
                       o_orderstatus, o_totalprice * 2.0
                FROM orders WHERE o_orderkey % 100 = 13
            ),
            latest AS (
                SELECT k, op, s, p FROM (
                    SELECT ch.*, row_number() OVER (
                        PARTITION BY k ORDER BY seq DESC, op DESC) AS rn
                    FROM ch) t
                WHERE rn = 1
            ),
            merged AS (
                SELECT o.o_orderkey AS k, o.o_orderstatus AS s,
                       o.o_totalprice AS p
                FROM orders o
                WHERE NOT EXISTS (SELECT 1 FROM latest l
                                  WHERE l.k = o.o_orderkey)
                UNION ALL
                SELECT k, s, p FROM latest WHERE op <> 'D'
            )
            SELECT s AS o_orderstatus,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(CAST(floor(p * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_cents,
                   CAST(sum(k) AS BIGINT) AS sum_keys
            FROM merged GROUP BY s ORDER BY s
        """,
        "event_transitions": """
            WITH pairs AS (
                SELECT event_type AS from_type,
                       lead(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS to_type
                FROM events WHERE user_id IS NOT NULL
            )
            SELECT from_type, to_type,
                   CAST(count(*) AS BIGINT) AS n,
                   count(*) / sum(count(*))
                       OVER (PARTITION BY from_type) AS p
            FROM pairs
            WHERE from_type IS NOT NULL AND to_type IS NOT NULL
            GROUP BY from_type, to_type
            ORDER BY from_type, to_type
        """,
        "compact_documents": """
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(doc_id) AS BIGINT) AS sum_ids,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "histogram_events": """
            WITH mm AS (
                SELECT min("value") AS mn, max("value") AS mx
                FROM events WHERE "value" IS NOT NULL
            ),
            b AS (
                SELECT least(CAST(floor(("value" - mm.mn) * 20
                                        / (mm.mx - mm.mn)) AS BIGINT),
                             19) AS bin
                FROM events, mm WHERE "value" IS NOT NULL
            )
            SELECT b.bin,
                   mm.mn + b.bin * ((mm.mx - mm.mn) / 20) AS lo_edge,
                   CAST(count(*) AS BIGINT) AS n
            FROM b, mm GROUP BY b.bin, mm.mn, mm.mx ORDER BY b.bin
        """,
        "minmax_scale_events": """
            WITH mm AS (
                SELECT event_type, min("value") AS mn, max("value") AS mx
                FROM events
                WHERE "value" IS NOT NULL AND event_type IS NOT NULL
                GROUP BY event_type
            )
            SELECT e.event_id, e.event_type,
                   CASE WHEN mm.mx > mm.mn
                        THEN (e."value" - mm.mn) / (mm.mx - mm.mn)
                   END AS scaled
            FROM events e JOIN mm USING (event_type)
            WHERE e."value" IS NOT NULL
            ORDER BY e.event_id LIMIT 1000
        """,
        "cohort_retention_events": """
            WITH ud AS (
                SELECT DISTINCT user_id, date_trunc('day', ts) AS d
                FROM events
                WHERE user_id IS NOT NULL AND ts IS NOT NULL
            ),
            f AS (
                SELECT user_id, min(d) AS cohort_day
                FROM ud GROUP BY user_id
            )
            SELECT f.cohort_day,
                   CAST(date_diff('day', f.cohort_day, ud.d) AS BIGINT)
                       AS age_days,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM ud JOIN f USING (user_id)
            GROUP BY f.cohort_day, age_days
            ORDER BY f.cohort_day, age_days
        """,
        "json_schema_infer_events": """
            SELECT u.jkey,
                   json_type(u.props, '$.' || u.jkey) AS jtype,
                   CAST(count(*) AS BIGINT) AS n
            FROM (SELECT props, unnest(json_keys(props)) AS jkey
                  FROM events
                  WHERE props IS NOT NULL AND json_valid(props)) u
            GROUP BY u.jkey, jtype ORDER BY u.jkey, jtype
        """,
        "winsorize_events": """
            WITH thr AS (
                SELECT event_type,
                       quantile_disc("value", 0.05) AS lo,
                       quantile_disc("value", 0.95) AS hi
                FROM events WHERE "value" IS NOT NULL
                GROUP BY event_type
            )
            SELECT e.event_id, e.event_type,
                   least(greatest(e."value", thr.lo), thr.hi) AS clipped
            FROM events e JOIN thr USING (event_type)
            WHERE e."value" IS NOT NULL
            ORDER BY e.event_id LIMIT 1000
        """,
        "pattern_census_events": """
            WITH base AS (SELECT event_type, props FROM events
                          WHERE event_type IS NOT NULL
                                AND props IS NOT NULL),
            c AS (
                SELECT event_type, 'digits' AS pattern,
                       len(regexp_extract_all(props, '[0-9]+')) AS c
                FROM base
                UNION ALL
                SELECT event_type, 'key_k',
                       len(regexp_extract_all(props, '"k"')) FROM base
                UNION ALL
                SELECT event_type, 'multi_digit',
                       len(regexp_extract_all(props, '[0-9]{2,}'))
                FROM base)
            SELECT event_type, pattern,
                   CAST(sum(c) AS BIGINT) AS n_matches,
                   CAST(count(*) FILTER (WHERE c > 0) AS BIGINT) AS n_rows
            FROM c GROUP BY event_type, pattern
            ORDER BY pattern, event_type
        """,
        "quantize_embeddings": """
            WITH q AS (
                SELECT vec_id,
                       CAST(len(embedding) AS BIGINT) AS n_dims,
                       list_max(list_transform(
                           embedding, x -> abs(CAST(x AS DOUBLE))))
                           AS max_abs,
                       embedding
                FROM embeddings
                WHERE vec_id IS NOT NULL AND embedding IS NOT NULL
                      AND len(embedding) > 0)
            SELECT vec_id, n_dims, max_abs,
                   CAST(CASE WHEN max_abs = 0 THEN 0 ELSE
                        round(CAST(embedding[1] AS DOUBLE) * 127.0
                              / max_abs) END AS BIGINT) AS c0,
                   CAST(CASE WHEN max_abs = 0 THEN 0 ELSE
                        round(CAST(embedding[2] AS DOUBLE) * 127.0
                              / max_abs) END AS BIGINT) AS c1,
                   CAST(CASE WHEN max_abs = 0 THEN 0 ELSE
                        round(CAST(embedding[3] AS DOUBLE) * 127.0
                              / max_abs) END AS BIGINT) AS c2,
                   CAST(CASE WHEN max_abs = 0 THEN 0 ELSE
                        round(CAST(embedding[4] AS DOUBLE) * 127.0
                              / max_abs) END AS BIGINT) AS c3
            FROM q ORDER BY vec_id
        """,
        "vocab_coverage_documents": """
            WITH c AS (SELECT w, CAST(count(*) AS BIGINT) AS n
                       FROM (SELECT unnest(string_split(text, ' ')) AS w
                             FROM documents WHERE text IS NOT NULL)
                       GROUP BY w),
            top AS (SELECT n FROM c ORDER BY n DESC LIMIT 20)
            SELECT (SELECT CAST(sum(n) AS BIGINT) FROM c) AS n_tokens,
                   (SELECT CAST(count(*) AS BIGINT) FROM c) AS n_vocab,
                   CAST(20 AS BIGINT) AS top_k,
                   (SELECT CAST(sum(n) AS BIGINT) FROM top) AS covered,
                   (SELECT CAST(sum(n) AS DOUBLE) FROM top)
                       / (SELECT CAST(sum(n) AS DOUBLE) FROM c)
                       AS coverage
        """,
        "bigram_counts_documents": """
            WITH t AS (SELECT string_split(text, ' ') AS l FROM documents
                       WHERE text IS NOT NULL),
            p AS (SELECT l[i] AS a, l[i+1] AS b
                  FROM t, unnest(generate_series(1, len(l) - 1)) AS g(i))
            SELECT a, b, CAST(count(*) AS BIGINT) AS n
            FROM p GROUP BY a, b ORDER BY a, b
        """,
        "interevent_gaps_events": """
            WITH g AS (
                SELECT user_id,
                       date_diff('microsecond',
                                 lag(ts) OVER (PARTITION BY user_id
                                               ORDER BY ts, event_id),
                                 ts) AS gap
                FROM events
                WHERE user_id IS NOT NULL AND ts IS NOT NULL
            )
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(sum(gap) AS DOUBLE) / count(*) AS avg_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us
            FROM g WHERE gap IS NOT NULL
            GROUP BY user_id ORDER BY user_id
        """,
        "locf_events": """
            SELECT user_id, event_id,
                   last_value(CASE WHEN event_type IN ('purchase', 'click')
                                   THEN value END IGNORE NULLS)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND CURRENT ROW) AS filled
            FROM events WHERE user_id IS NOT NULL
            ORDER BY event_id
        """,
        "throttle_events": """
            SELECT user_id, event_id FROM (
                SELECT user_id, event_id,
                       row_number() OVER (
                           PARTITION BY user_id, date_trunc('hour', ts)
                           ORDER BY ts, event_id) AS rn
                FROM events
                WHERE user_id IS NOT NULL AND ts IS NOT NULL) t
            WHERE rn = 1 ORDER BY event_id
        """,
        "orc_roundtrip_documents": """
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(doc_id) AS BIGINT) AS sum_ids,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "npy_roundtrip_embeddings": """
            WITH el AS (SELECT unnest(embedding) AS x,
                               len(embedding) AS d
                        FROM embeddings)
            SELECT CAST((SELECT count(*) FROM embeddings) AS BIGINT)
                       AS n_vecs,
                   CAST(max(d) AS BIGINT) AS dim,
                   CAST(sum(CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS qsum
            FROM el
        """,
        "spearman_lineitem": """
            WITH base AS (
                SELECT l_quantity AS x, l_extendedprice AS y FROM lineitem
                WHERE l_quantity IS NOT NULL
                  AND l_extendedprice IS NOT NULL),
            r AS (SELECT rank() OVER (ORDER BY x)
                         + (count(*) OVER (PARTITION BY x) - 1) / 2.0 AS rx,
                         rank() OVER (ORDER BY y)
                         + (count(*) OVER (PARTITION BY y) - 1) / 2.0 AS ry
                  FROM base)
            SELECT round(corr(rx, ry), 6) AS spearman_r6,
                   CAST(count(*) AS BIGINT) AS n
            FROM r
        """,
        "dense_hourly_events": """
            WITH d AS (SELECT date_trunc('hour', ts) AS bucket,
                              count(*) AS cnt
                       FROM events WHERE ts IS NOT NULL GROUP BY 1),
            b AS (SELECT min(bucket) AS lo, max(bucket) AS hi FROM d),
            cal AS (SELECT unnest(generate_series(lo, hi,
                                                  INTERVAL 1 HOUR))
                        AS bucket FROM b)
            SELECT cal.bucket AS bucket,
                   CAST(COALESCE(cnt, 0) AS BIGINT) AS n
            FROM cal LEFT JOIN d USING (bucket) ORDER BY bucket
        """,
        "zscore_flags_events": """
            WITH m AS (SELECT event_type, avg(value) AS mu,
                              stddev_pop(value) AS sd
                       FROM events
                       WHERE value IS NOT NULL AND event_type IS NOT NULL
                       GROUP BY event_type)
            SELECT e.event_type AS event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN abs(e.value - mu) > 2.0 * sd
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_out
            FROM events e JOIN m USING (event_type)
            WHERE e.value IS NOT NULL
            GROUP BY e.event_type ORDER BY event_type
        """,
        "global_quantiles_lineitem": """
            SELECT round(quantile_cont(l_extendedprice, 0.25), 5) AS q25,
                   round(quantile_cont(l_extendedprice, 0.5), 5) AS q50,
                   round(quantile_cont(l_extendedprice, 0.75), 5) AS q75,
                   round(quantile_cont(l_extendedprice, 0.99), 5) AS q99,
                   CAST(count(l_extendedprice) AS BIGINT) AS n
            FROM lineitem
        """,
        "mad_outliers_events": """
            WITH med AS (SELECT event_type,
                                quantile_cont(value, 0.5) AS m
                         FROM events WHERE value IS NOT NULL
                         GROUP BY event_type),
            mad AS (SELECT e.event_type,
                           quantile_cont(abs(e.value - med.m), 0.5) AS s
                    FROM events e JOIN med USING (event_type)
                    WHERE e.value IS NOT NULL GROUP BY e.event_type)
            SELECT e.event_id, e.event_type
            FROM events e
            JOIN med USING (event_type) JOIN mad USING (event_type)
            WHERE e.value IS NOT NULL
              AND abs(e.value - med.m) > 3.0 * mad.s
            ORDER BY e.event_id
        """,
        "schema_union_documents": """
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(CASE WHEN doc_id % 2 = 0 THEN 1 END)
                        AS BIGINT) AS n_lang,
                   CAST(count(CASE WHEN doc_id % 2 = 1 THEN 1 END)
                        AS BIGINT) AS n_source,
                   CAST(sum(CASE WHEN doc_id % 2 = 0 THEN n_chars
                            ELSE 0 END) AS BIGINT) AS sum_chars
            FROM documents
        """,
        "regression_events": """
            SELECT event_type,
                   CAST(count(CASE WHEN value IS NOT NULL
                              AND ts IS NOT NULL
                              THEN 1 END) AS BIGINT) AS n,
                   round(regr_slope(value, hour(ts)), 6) AS slope_r6,
                   round(regr_intercept(value, hour(ts)), 6)
                       AS intercept_r6
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "covariance_embeddings": """
            WITH b AS (SELECT CAST(embedding[1] AS DOUBLE) AS x0,
                              CAST(embedding[2] AS DOUBLE) AS x1,
                              CAST(embedding[3] AS DOUBLE) AS x2,
                              CAST(embedding[4] AS DOUBLE) AS x3
                       FROM embeddings
                       WHERE embedding IS NOT NULL
                         AND len(embedding) >= 4)
            SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
                   CAST((SELECT count(*) FROM b) AS BIGINT) AS n,
                   round(cov, 6) AS cov_r6
            FROM (
                SELECT 0 AS i, 0 AS j, covar_pop(x0, x0) AS cov FROM b
                UNION ALL SELECT 0, 1, covar_pop(x0, x1) FROM b
                UNION ALL SELECT 0, 2, covar_pop(x0, x2) FROM b
                UNION ALL SELECT 0, 3, covar_pop(x0, x3) FROM b
                UNION ALL SELECT 1, 1, covar_pop(x1, x1) FROM b
                UNION ALL SELECT 1, 2, covar_pop(x1, x2) FROM b
                UNION ALL SELECT 1, 3, covar_pop(x1, x3) FROM b
                UNION ALL SELECT 2, 2, covar_pop(x2, x2) FROM b
                UNION ALL SELECT 2, 3, covar_pop(x2, x3) FROM b
                UNION ALL SELECT 3, 3, covar_pop(x3, x3) FROM b)
            ORDER BY i, j
        """,
        "corr_lineitem": """
            SELECT l_returnflag,
                   CAST(count(CASE WHEN l_quantity IS NOT NULL
                              AND l_extendedprice IS NOT NULL
                              THEN 1 END) AS BIGINT) AS n,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr_r6
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "weighted_sample_documents": """
            SELECT doc_id, round(score, 6) AS score_r6 FROM (
                SELECT doc_id,
                       ln((((doc_id * 2654435761 + 7 * 2654435769)
                            % 4294967296) + 1) / 4294967297.0)
                           / n_chars AS score
                FROM documents WHERE n_chars > 0
                ORDER BY score DESC, doc_id LIMIT 50)
            ORDER BY doc_id
        """,
        # SELF-ORACLE (same IVF recall-1.0 precedent as above): SemDeDup's
        # dropped set = vectors with ANY earlier-id neighbor ≥ threshold —
        # exactly derivable from the all-pairs join the IVF path reproduces.
        "semdedup_embeddings": """
            SELECT DISTINCT b.vec_id AS dropped_id
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.45
            ORDER BY dropped_id
        """,
        "chunk_dedup_documents": """
            WITH words AS (
                SELECT doc_id,
                       generate_subscripts(string_split(text, ' '), 1) - 1
                           AS wi,
                       unnest(string_split(text, ' ')) AS w
                FROM documents
            ), chunks AS (
                SELECT doc_id, wi // 3 AS ci,
                       string_agg(w, ' ' ORDER BY wi) AS chunk
                FROM words GROUP BY doc_id, wi // 3
            ), ranked AS (
                SELECT doc_id, ci, chunk,
                       row_number() OVER (PARTITION BY chunk
                                          ORDER BY doc_id, ci) AS rn
                FROM chunks
            ), per_doc AS (
                SELECT doc_id,
                       CAST(count(*) AS BIGINT) AS n_chunks,
                       CAST(count(*) FILTER (rn = 1) AS BIGINT) AS n_kept,
                       md5(coalesce(string_agg(chunk, ' ' ORDER BY ci)
                                        FILTER (rn = 1), '')) AS clean_md5
                FROM ranked GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(p.n_chunks, 0) AS n_chunks,
                   coalesce(p.n_kept, 0) AS n_kept,
                   coalesce(p.clean_md5, md5('')) AS clean_md5
            FROM (SELECT DISTINCT doc_id FROM documents) d
            LEFT JOIN per_doc p ON p.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        "sliding_window_events": """
            SELECT event_id,
                   CAST(count(*) OVER (
                       PARTITION BY user_id ORDER BY ts
                       RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                             AND CURRENT ROW) AS BIGINT)
                       AS n_events_last_hour
            FROM events ORDER BY event_id
        """,
        "quality_documents": """
            SELECT doc_id,
                   length(text) AS n_chars_calc,
                   length(regexp_replace(text, '[^.,;:!?]', '', 'g'))
                       / greatest(CAST(length(text) AS DOUBLE), 1.0)
                       AS punct_ratio,
                   CAST(length(text) AS DOUBLE)
                       / (len(string_split(text, ' ')))
                       AS mean_word_len
            FROM documents ORDER BY doc_id
        """,
        "integrity_check_tables": """
            SELECT * FROM (
                SELECT 'pk:customer.c_custkey' AS check_name,
                       CAST((SELECT count(*) FROM customer) AS BIGINT)
                           AS n_rows,
                       CAST((SELECT count(*) - count(DISTINCT c_custkey)
                             FROM customer) AS BIGINT) AS n_violations
                UNION ALL
                SELECT 'pk:orders.o_orderkey',
                       (SELECT count(*) FROM orders),
                       (SELECT count(*) - count(DISTINCT o_orderkey)
                        FROM orders)
                UNION ALL
                SELECT 'pk:part.p_partkey',
                       (SELECT count(*) FROM part),
                       (SELECT count(*) - count(DISTINCT p_partkey)
                        FROM part)
                UNION ALL
                SELECT 'pk:supplier.s_suppkey',
                       (SELECT count(*) FROM supplier),
                       (SELECT count(*) - count(DISTINCT s_suppkey)
                        FROM supplier)
                UNION ALL
                SELECT 'fk:orders.o_custkey->customer.c_custkey',
                       (SELECT count(*) FROM orders),
                       (SELECT count(*) FROM orders o
                        WHERE NOT EXISTS (SELECT 1 FROM customer c
                                          WHERE c.c_custkey = o.o_custkey))
                UNION ALL
                SELECT 'fk:lineitem.l_orderkey->orders.o_orderkey',
                       (SELECT count(*) FROM lineitem),
                       (SELECT count(*) FROM lineitem l
                        WHERE NOT EXISTS (SELECT 1 FROM orders o
                                          WHERE o.o_orderkey = l.l_orderkey))
                UNION ALL
                SELECT 'fk:lineitem.l_partkey->part.p_partkey',
                       (SELECT count(*) FROM lineitem),
                       (SELECT count(*) FROM lineitem l
                        WHERE NOT EXISTS (SELECT 1 FROM part p
                                          WHERE p.p_partkey = l.l_partkey))
                UNION ALL
                SELECT 'fk:lineitem.l_suppkey->supplier.s_suppkey',
                       (SELECT count(*) FROM lineitem),
                       (SELECT count(*) FROM lineitem l
                        WHERE NOT EXISTS (SELECT 1 FROM supplier s
                                          WHERE s.s_suppkey = l.l_suppkey))
                UNION ALL
                SELECT 'fk:events.user_id->supplier.s_suppkey',
                       (SELECT count(*) FROM events),
                       (SELECT count(*) FROM events e
                        WHERE NOT EXISTS (SELECT 1 FROM supplier s
                                          WHERE s.s_suppkey = e.user_id))
            ) ORDER BY check_name
        """,
        "global_sort_documents": """
            SELECT row_number() OVER (
                       ORDER BY lang, n_chars DESC, doc_id) AS pos,
                   doc_id
            FROM documents ORDER BY pos
        """,
        "entity_resolution_parts": """
            WITH RECURSIVE
            n AS (SELECT DISTINCT p_name FROM part
                  WHERE p_name IS NOT NULL),
            p AS (SELECT a.p_name AS na, b.p_name AS nb
                  FROM n a JOIN n b ON a.p_name < b.p_name
                  WHERE levenshtein(a.p_name, b.p_name) <= 2),
            edges AS (SELECT na AS u, nb AS v FROM p
                      UNION SELECT nb, na FROM p),
            reach(node, m) AS (
                SELECT u, v FROM edges
                UNION
                SELECT reach.node, edges.v
                FROM reach JOIN edges ON edges.u = reach.m),
            comp AS (SELECT node, least(node, min(m)) AS component
                     FROM reach GROUP BY node)
            SELECT node AS name, component AS canonical,
                   node = component AS keep
            FROM comp ORDER BY name
        """,
        "fuzzy_match_part_names": """
            WITH n AS (SELECT DISTINCT p_name FROM part)
            SELECT a.p_name AS name_a, b.p_name AS name_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
            FROM n a JOIN n b ON a.p_name < b.p_name
            WHERE levenshtein(a.p_name, b.p_name) <= 2
            ORDER BY name_a, name_b
        """,
        "lm_score_documents": """
            WITH words AS (SELECT doc_id,
                                  unnest(string_split(text, ' ')) AS w
                           FROM documents WHERE text IS NOT NULL),
                 c AS (SELECT w, count(*) AS cnt FROM words GROUP BY w),
                 t AS (SELECT CAST(count(*) AS DOUBLE) AS tot FROM words)
            SELECT words.doc_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   round(avg(ln(c.cnt / t.tot)), 6) AS avg_logprob_r6
            FROM words JOIN c ON words.w = c.w CROSS JOIN t
            GROUP BY words.doc_id ORDER BY words.doc_id
        """,
        "bm25_search_documents": """
            WITH words AS (SELECT doc_id,
                                  unnest(string_split(text, ' ')) AS w
                           FROM documents WHERE text IS NOT NULL),
                 dl AS (SELECT doc_id, count(*) AS dl
                        FROM words GROUP BY doc_id),
                 st AS (SELECT CAST(count(*) AS DOUBLE) AS n_docs,
                               CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl
                        FROM dl),
                 tf AS (SELECT doc_id, w, CAST(count(*) AS DOUBLE) AS tf
                        FROM words WHERE w IN ('spark', 'data', 'slow')
                        GROUP BY doc_id, w),
                 df AS (SELECT w, CAST(count(DISTINCT doc_id) AS DOUBLE)
                                   AS df
                        FROM words WHERE w IN ('spark', 'data', 'slow')
                        GROUP BY w)
            SELECT tf.doc_id,
                   round(sum(ln((st.n_docs - df.df + 0.5)
                                / (df.df + 0.5) + 1.0)
                             * tf.tf * (1.2 + 1.0)
                             / (tf.tf + 1.2 * (1.0 - 0.75
                                + 0.75 * dl.dl / st.avgdl))), 6)
                       AS score_r6
            FROM tf JOIN df ON tf.w = df.w
                 JOIN dl ON tf.doc_id = dl.doc_id
                 CROSS JOIN st
            GROUP BY tf.doc_id
            ORDER BY score_r6 DESC, tf.doc_id LIMIT 10
        """,
        "skewkurt_events": """
            SELECT event_type,
                   CAST(count(value) AS BIGINT) AS n,
                   round(skewness(value), 6) AS skew_r6,
                   round(kurtosis(value), 6) AS kurt_r6
            FROM events GROUP BY event_type ORDER BY event_type
        """,
    }
