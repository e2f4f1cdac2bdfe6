"""Round-4 operator review regressions stay fixed (fifth batch): top-k ties,
sliced embedding matrices, null values through range-agg/quantiles, bloom
int64 exactness, string session users."""

import numpy as np
import pyarrow as pa
import pytest

from jsonschema_validator_ray.rayutil import collect_partials


def test_brute_force_topk_tie_breaks_by_id(ray_session):
    """Cosine ties at the LOCAL k boundary keep the smallest id — the old
    position-order tiebreak returned whichever row came first in the block
    (review r4: ids [10,2,7], identical vectors, k=1 must give id=2)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.simsearch import brute_force_topk

    v = [1.0, 0.0, 0.0, 0.0]
    t = pa.table({
        "vec_id": pa.array([10, 2, 7], pa.int64()),
        "embedding": pa.array([v, v, v], pa.list_(pa.float64())),
    })
    out = brute_force_topk(ray.data.from_arrow(t), np.array([v]),
                           "vec_id", "embedding", k=1)
    assert out["vec_id"].to_pylist() == [2]


def test_to_matrix_sliced_fixed_size_list():
    """_to_matrix honors slice offsets on fixed_size_list columns —
    .values ignored them and crashed the reshape (review r4)."""
    from jsonschema_validator_ray.ops.simsearch import _to_matrix

    arr = pa.array([[float(i), float(i + 10)] for i in range(6)],
                   pa.list_(pa.float64(), 2))
    m = _to_matrix(arr.slice(2, 3))
    assert m.shape == (3, 2)
    assert m[0, 0] == 2.0 and m[2, 1] == 14.0


def test_range_agg_join_null_point_values(ray_session):
    """A null point value contributes 0 to sum_value (SQL SUM ignores
    nulls) while n_points keeps COUNT(*) — it crashed ArrowInvalid before
    (review r4)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.join import range_agg_join

    ranges = pa.table({
        "k": pa.array([1], pa.int64()),
        "t0": pa.array([0], pa.int64()),
        "t1": pa.array([100], pa.int64()),
    })
    points = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "t": pa.array([10, 20, 30], pa.int64()),
        "val": pa.array([2, None, 3], pa.int64()),
    })
    out = range_agg_join(
        ray.data.from_arrow(ranges), ray.data.from_arrow(points),
        on="k", point_on="k", start="t0", end="t1",
        point_ts="t", value="val").take_all()
    assert [r["n_points"] for r in out] == [3]
    assert [r["sum_value"] for r in out] == [5]


def test_grouped_quantiles_ignore_nulls(ray_session):
    """quantile_cont semantics: nulls are ignored by the quantile while n
    stays count(*) — one null used to poison every quantile of its group
    (review r4)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import grouped_quantiles

    t = pa.table({
        "g": pa.array([1, 1, 1, 1], pa.int64()),
        "v": pa.array([1.0, 2.0, 5.0, None], pa.float64()),
    })
    out = pa.concat_tables(collect_partials(grouped_quantiles(
        ray.data.from_arrow(t), "g", "v", [0.5]), keep_empty=True))
    assert out["n"].to_pylist() == [4]           # count(*) includes the null
    assert out["q50"].to_pylist() == [2.0]       # median of non-nulls


def test_bloom_semi_join_large_keys_with_null(ray_session):
    """A null left key must not decay the batch to float64: keys 2^60 and
    2^60+1 stay distinguishable in the exact verify (review r4), and null
    keys still never match EXISTS / are kept by NOT EXISTS."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.join import bloom_semi_join

    big = 1 << 60
    left = pa.table({"k": pa.array([big, big + 1, None], pa.int64())})
    right = pa.table({"k": pa.array([big], pa.int64())})
    semi = bloom_semi_join(ray.data.from_arrow(left),
                           ray.data.from_arrow(right), "k", "k").take_all()
    assert [r["k"] for r in semi] == [big]
    anti = bloom_semi_join(ray.data.from_arrow(left),
                           ray.data.from_arrow(right), "k", "k",
                           negate=True).take_all()
    assert sorted((r["k"] is None, r["k"]) for r in anti) \
        == [(False, big + 1), (True, None)]


def test_sessionize_string_user_ids(ray_session):
    """sessionize_counts returns the user column in its input type — the
    unconditional int64 cast crashed on string ids (review r4)."""
    import ray
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import sessionize_counts

    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table({
        "user_id": pa.array(["u_1", "u_1", "u_2"], pa.string()),
        "ts": pa.array([base, base + np.timedelta64(2, "h"),
                        base], pa.timestamp("us")),
    })
    out = sessionize_counts(ray.data.from_arrow(t), "user_id", "ts", "ts")
    got = dict(zip(out["user_id"].to_pylist(),
                   out["n_sessions"].to_pylist()))
    assert got == {"u_1": 2, "u_2": 1}


def _sessionize_counts(ds):
    from jsonschema_validator_ray.ops.aggregates import sessionize_counts

    out = sessionize_counts(ds, "user_id", "ts", "ts")
    assert dict(zip(out["user_id"].to_pylist(),
                    out["n_sessions"].to_pylist())) \
        == {u: 2 if u < 10 else 1 for u in [0, 1, 2, 3, 10, 11, 12, 13]}


def _cooccurrence_pairs(ds):
    from jsonschema_validator_ray.ops.aggregates import cooccurrence_pairs

    out = cooccurrence_pairs(ds, "user_id", "ev")
    assert out.to_pylist() == [{"a": "a", "b": "b", "n_keys": 4}]


def _value_counts(ds):
    from jsonschema_validator_ray.ops.aggregates import value_counts

    out = value_counts(ds, "ev")
    assert out.to_pylist() == [{"ev": "a", "n": 8}, {"ev": "b", "n": 4}]


def _top_k(ds):
    from jsonschema_validator_ray.ops.aggregates import top_k

    assert top_k(ds, "user_id", 2)["user_id"].to_pylist() == [13, 12]


def _cohort_retention(ds):
    from jsonschema_validator_ray.ops.aggregates import cohort_retention

    out = cohort_retention(ds, "user_id", "ts")
    assert out["age_days"].to_pylist() == [0]
    assert out["n_users"].to_pylist() == [8]


def _brute_force_topk(ds):
    from jsonschema_validator_ray.ops.simsearch import brute_force_topk

    out = brute_force_topk(ds, np.array([1.0, 0.0]), "user_id", "vec", k=1)
    assert out["user_id"].to_pylist() == [13]


@pytest.mark.parametrize(
    "op", [_sessionize_counts, _cooccurrence_pairs, _value_counts, _top_k,
           _cohort_retention, _brute_force_topk],
    ids=lambda op: op.__name__.lstrip("_"))
def test_collecting_op_runs_one_execution(ray_session, tmp_path, op):
    """An op that collects its result driver-side executes its plan once.
    A lazy to_arrow_refs() collect re-ran the plan (every upstream UDF and
    shuffle) for its schema probe; collecting through rayutil's
    collect_partials runs it once. A UDF ahead of the op marks each call
    with a file, so its call count must equal that of one plain
    materialize() of the same input."""
    import uuid

    import ray.data

    base = np.datetime64("2024-01-01T00:00:00", "us")
    blocks = [pa.table({
        "user_id": pa.array([b, b, 10 + b], pa.int64()),
        "ts": pa.array([base, base + np.timedelta64(2, "h"), base],
                       pa.timestamp("us")),
        "ev": pa.array(["a", "b", "a"], pa.string()),
        "vec": pa.array([[float(u), 1.0] for u in (b, b, 10 + b)],
                        pa.list_(pa.float64())),
    }) for b in range(4)]

    def counted(name):
        d = tmp_path / name
        d.mkdir()

        def mark(batch):
            (d / uuid.uuid4().hex).touch()
            return batch

        ds = ray.data.from_arrow(blocks).map_batches(
            mark, batch_format="pyarrow", batch_size=None)
        return d, ds

    once, ds = counted("materialize")
    ds.materialize()
    seen, ds = counted("op")
    op(ds)
    assert len(list(once.iterdir())) >= 1
    assert len(list(seen.iterdir())) == len(list(once.iterdir()))


def test_to_arrow_refs_only_in_rayutil():
    """rayutil.block_refs is the package's one to_arrow_refs() call: every
    driver-side collect goes through it (and so materializes first)."""
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent \
        / "jsonschema_validator_ray"
    hits = sorted(str(p.relative_to(pkg)) for p in pkg.rglob("*.py")
                  if "to_arrow_refs(" in p.read_text())
    assert hits == ["rayutil.py"]


def test_transcript_ops_ignore_wide_unused_column(ray_session, monkeypatch):
    """The grouped ops whose output holds only columns they name project
    those columns before their shuffle: an extra wide column they never
    read leaves their output unchanged and never leaves the tag stage
    (the tagger is wrapped to fail on any batch that would carry it into
    the shuffle)."""
    import ray.data

    from jsonschema_validator_ray import rayutil
    from jsonschema_validator_ray.ops.aggregates import (
        adjacent_pairs, alternation_stats, funnel_steps, grouped_percent_rank,
        grouped_quantiles, render_conversations, sessionize_counts)

    base = np.datetime64("2024-01-01T00:00:00", "us")
    n = 60
    t = pa.table({
        "conv_id": pa.array([i // 6 for i in range(n)], pa.int64()),
        "turn_idx": pa.array([i % 6 for i in range(n)], pa.int64()),
        "ts": pa.array([base + np.timedelta64(40 * (i % 6), "m")
                        for i in range(n)], pa.timestamp("us")),
        "role": pa.array(["user" if i % 2 == 0 else "assistant"
                          for i in range(n)], pa.string()),
        "text": pa.array([f"t{i}" for i in range(n)], pa.string()),
        "id": pa.array(range(n), pa.int64()),
    })
    wide = t.append_column("blob", pa.array(["x" * 20_000] * n))
    tagger = rayutil.bucket_tagger

    def checked_tagger(key, n_buckets, prepare=None):
        tag = tagger(key, n_buckets, prepare)

        def checked(batch):
            out = tag(batch)
            if "blob" in out.column_names:
                raise ValueError("the unused blob column entered a shuffle")
            return out
        return checked

    monkeypatch.setattr(rayutil, "bucket_tagger", checked_tagger)

    def collected(ds, *order):
        return pa.concat_tables(collect_partials(ds)).sort_by(
            [(c, "ascending") for c in order])

    def run(tbl):
        ds = ray.data.from_arrow(tbl).repartition(3)
        return [
            sessionize_counts(ds, "conv_id", "ts", "turn_idx"),
            collected(adjacent_pairs(
                ds, "conv_id", "turn_idx", "role", "user", "assistant",
                "text"), "conv_id", "turn_idx_from"),
            collected(render_conversations(
                ds, "conv_id", "turn_idx", "role", "text"), "conv_id"),
            collected(alternation_stats(
                ds, "conv_id", "turn_idx", "role", "text"), "conv_id"),
            collected(funnel_steps(
                ds, "conv_id", "ts", "role", ["user", "assistant"]),
                "conv_id"),
            collected(grouped_percent_rank(ds, "conv_id", "turn_idx", "id"),
                      "id"),
            collected(grouped_quantiles(ds, "conv_id", "turn_idx", [0.5]),
                      "conv_id"),
        ]

    got, want = run(wide), run(t)
    for g, w in zip(got, want):
        assert "blob" not in g.column_names
        assert g.equals(w)
    sess, pairs, rendered, alt, funnel, prk, quant = got
    assert sess["n_sessions"].to_pylist() == [6] * 10
    assert pairs.num_rows == 30 and rendered.num_rows == 10
    assert alt["alternating"].to_pylist() == [True] * 10
    assert funnel.num_rows == 10
    assert prk["prk"].to_pylist() == [i / 5 for i in range(6)] * 10
    assert quant["q50"].to_pylist() == [2.5] * 10


def test_bucket_shuffle_only_in_rayutil():
    """rayutil.bucket_groups is the package's one keyed shuffle: no other
    module of the package and no gate query calls ``groupby(`` or
    ``map_groups`` or does bucket arithmetic, no op re-tags batches,
    unions sides or hashes a key column by hand, no op or query takes a
    bucket count, and no pipeline or stage sorts a Dataset."""
    import inspect
    import pathlib
    import re

    from jsonschema_validator_ray import rayutil

    root = pathlib.Path(__file__).resolve().parent.parent
    pkg = root / "jsonschema_validator_ray"
    assert (pkg / "rayutil.py").read_text().count('groupby("_bucket")') == 1
    assert not inspect.signature(rayutil.default_buckets).parameters
    entry = root / "__ray_entry__.py"
    for f in sorted(pkg.rglob("*.py")) + [entry]:
        if f == pkg / "rayutil.py":
            continue
        src = f.read_text()
        for banned in ("groupby(", "map_groups", "% np.uint64(n_buckets)"):
            assert banned not in src, (f.name, banned)
    for f in sorted((pkg / "pipelines").glob("*.py")) \
            + sorted((pkg / "stages").glob("*.py")):
        assert ".sort(" not in f.read_text(), f.name
    for f in sorted((pkg / "ops").glob("*.py")) + [entry]:
        src = f.read_text()
        assert not re.search(r"\bn_buckets\b", src), f.name
        if f != entry:      # the gate unions generated rows into a corpus
            for banned in ('"_bucket"', '"_jb"', '"_side"', "np_column_hash",
                           ".union("):
                assert banned not in src, (f.name, banned)


def test_bucket_groups_reserved_column_in_single_input(ray_session):
    """A single-input shuffle whose rows already carry ``_bucket`` fails
    with a message naming it: in the tag task for a row-keeping op, and
    before any Ray work when ``columns=`` names it."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import (grouped_argmax,
                                                         grouped_quantiles)

    t = pa.table({"k": [1, 1, 2], "v": [3, 4, 5], "_bucket": [0, 0, 0]})
    clash = r"ValueError: bucket_groups: input columns \['_bucket'\]"
    with pytest.raises(Exception, match=clash):     # the task's traceback
        grouped_argmax(ray.data.from_arrow(t), "k", "v").take_all()
    with pytest.raises(ValueError, match=clash[len("ValueError: "):]):
        grouped_quantiles(ray.data.from_arrow(t), "k", "_bucket", [0.5])


def _routed_shuffles():
    """One small call per op on the co-partitioned or keyed shuffles of
    ops/join.py, ops/merge.py, ops/index.py, ops/dedup.py, ops/pack.py and
    validate()'s keyed group check; each returns a Dataset or a table."""
    import ray.data

    from jsonschema_validator_ray.constraints import compile_constraints
    from jsonschema_validator_ray.constraints.ir import TRANSCRIPT_SPEC
    from jsonschema_validator_ray.ops import dedup, index, join, merge, pack
    from jsonschema_validator_ray.pipelines import validate

    rng = np.random.default_rng(5)
    n = 300
    left = pa.table({"k": rng.integers(0, 40, n), "lv": np.arange(n)})
    right = pa.table({"k": rng.integers(0, 50, n), "rv": np.arange(n)})
    events = pa.table({"uid": rng.integers(0, 25, n),
                       "ts": rng.integers(0, 1000, n), "eid": np.arange(n)})
    orders = pa.table({"cid": rng.integers(0, 30, n),
                       "ots": rng.integers(0, 1000, n)})
    starts = rng.integers(0, 500, 80)
    ranges = pa.table({"uid": rng.integers(0, 25, 80), "s": starts,
                       "e": starts + rng.integers(0, 300, 80),
                       "rid": np.arange(80)})
    snap = pa.table({"k": np.arange(150), "v": rng.integers(0, 3, 150)})
    other = pa.table({"k": np.arange(40, 190),
                      "v": rng.integers(0, 3, 150)})
    changes = pa.table({"k": rng.integers(0, 200, 120),
                        "v": rng.integers(0, 9, 120),
                        "seq": rng.integers(0, 4, 120),
                        "op": rng.choice(["U", "D"], 120)})
    words = ["a", "b", "c", "d", "e"]
    docs = pa.table({"doc_id": np.arange(90),
                     "text": [" ".join(rng.choice(words, 6))
                              for _ in range(90)]})
    old_docs = pa.table({"doc_id": np.arange(30),
                         "text": docs["text"].to_pylist()[::3]})
    twins = pa.table({"doc_id": np.arange(90),
                      "text": docs["text"].to_pylist()[:30] * 3})
    vecs = pa.table({"vec_id": np.arange(60), "embedding": pa.array(
        rng.normal(size=(60, 8)).tolist(), pa.list_(pa.float32()))})
    sized = docs.append_column("sz", pa.array(rng.integers(1, 9, 90)))
    # 3160 pairs: over 2048, so the verify runs two vp partitions, and a
    # doc's set is placed with both
    r, c = np.triu_indices(80, k=1)
    cand = pa.table({"id_a": r, "id_b": c})
    # conversations scattered over the rows, with duplicate turns and
    # regressing ts
    turns = pa.table({
        "conv_id": [f"c{k}" for k in rng.integers(0, 20, n)],
        "turn_idx": pa.array(rng.integers(0, 12, n), pa.int32()),
        "role": rng.choice(["user", "assistant"], n).tolist(),
        "text": ["x"] * n, "tool": pa.nulls(n, pa.string()),
        "ts": pa.array(rng.integers(0, 10**9, n), pa.timestamp("us"))})

    def ds(t, blocks=3):
        return ray.data.from_arrow(t).repartition(blocks)

    def validate_keyed():
        # 16-row batches: most conversations' runs overlap across batches
        res = validate(ds(turns), ir=compile_constraints(TRANSCRIPT_SPEC),
                       sketch=False, batch_size=16)
        assert res.metrics["wide_stage"] == "keyed", res.metrics
        return res.violations

    return {
        "reduce_side_hash_join": lambda: join.reduce_side_hash_join(
            ds(left), ds(right), "k", join_type="full outer"),
        "asof_join": lambda: join.asof_join(
            ds(events), ds(orders), on="uid", right_on="cid", left_ts="ts",
            right_ts="ots"),
        "range_agg_join": lambda: join.range_agg_join(
            ds(ranges), ds(orders), on="uid", point_on="cid", start="s",
            end="e", point_ts="ots", value="ots"),
        "interval_overlap_join": lambda: join.interval_overlap_join(
            ds(ranges), ds(ranges, 2), on="uid", a_start="s", a_end="e",
            b_start="s", b_end="e"),
        "table_diff": lambda: join.table_diff(ds(snap), ds(other), "k"),
        "apply_changes": lambda: merge.apply_changes(
            ds(snap), ds(changes), key="k", snapshot_schema=snap.schema,
            changes_schema=changes.schema),
        "build_inverted_index": lambda: index.build_inverted_index(
            ds(docs)),
        "dedup_against_snapshot_shuffle": lambda: dedup
        .dedup_against_snapshot(ds(docs), ds(old_docs), "doc_id", "text",
                                route="shuffle"),
        "chunk_dedup": lambda: dedup.chunk_dedup(ds(docs), "doc_id",
                                                 "text", window=2),
        "minhash_near_duplicates": lambda: dedup.minhash_near_duplicates(
            ds(docs), "doc_id", "text", verify_threshold=0.5),
        "simhash_near_duplicates": lambda: dedup.simhash_near_duplicates(
            ds(twins), "doc_id", "text"),
        "ngram_hot_grams": lambda: dedup.ngram_hot_grams(
            dedup.ngram_gram_blobs(ds(docs), "doc_id", "text", 2), 3),
        "ngram_jaccard_near_duplicates": lambda: dedup
        .ngram_jaccard_near_duplicates(ds(docs), "doc_id", "text", n=2,
                                       threshold=0.5),
        # threshold -1 keeps every pair that shares a centroid, so a bucket
        # compared as a whole would add the pairs that share none
        "embedding_neardup_ivf": lambda: dedup.embedding_neardup_ivf(
            ds(vecs), "vec_id", "embedding", threshold=-1.0, n_centroids=4,
            n_assign=1),
        "pack_sequences": lambda: pack.pack_sequences(
            ds(sized), "doc_id", "sz", capacity=12, part_size=10),
        "concat_packed": lambda: pack.concat_packed(
            ds(sized), "doc_id", "sz", "text", capacity=12, part_size=10),
        "_jaccard_verify_pairs": lambda: dedup._jaccard_verify_pairs(
            ds(docs), ds(cand), "doc_id", "text", k=3, verify_threshold=0.5,
            pair_cap_bytes=1),
        "validate_keyed": validate_keyed,
    }


@pytest.mark.parametrize("op", [
    "apply_changes", "asof_join", "build_inverted_index", "chunk_dedup",
    "dedup_against_snapshot_shuffle", "interval_overlap_join",
    "range_agg_join", "reduce_side_hash_join", "table_diff",
    "minhash_near_duplicates", "simhash_near_duplicates", "ngram_hot_grams",
    "ngram_jaccard_near_duplicates", "embedding_neardup_ivf",
    "pack_sequences", "concat_packed", "_jaccard_verify_pairs",
    "validate_keyed"])
def test_routed_shuffles_do_not_depend_on_bucket_count(ray_session, request,
                                                       op):
    """Each op's output at the default bucket count equals its output with
    every key in one bucket (chunk_dedup and the sharded
    _jaccard_verify_pairs cover both of their shuffles)."""
    def run():
        t = _routed_shuffles()[op]()
        if not isinstance(t, pa.Table):
            t = pa.concat_tables(b for b in collect_partials(t)
                                 if b.num_columns)
        return t.sort_by([(c, "ascending") for c in t.column_names])

    want = run()
    request.getfixturevalue("one_bucket")
    got = run()
    assert want.num_rows > 0
    assert got.equals(want)


def test_no_ray_builtin_aggregates():
    """ops.aggregates.grouped_aggregate is the one grouped aggregate: Ray
    Data's row-at-a-time ``groupby(...).aggregate/count/sum/...`` appears
    nowhere in the package or the gate queries."""
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    builtin = re.compile(
        r"groupby\([^)]+\)\s*\.(aggregate|count|sum|min|max|mean|std)\(")
    for f in sorted((root / "jsonschema_validator_ray").rglob("*.py")) \
            + [root / "__ray_entry__.py"]:
        src = f.read_text()
        assert "ray.data.aggregate" not in src, f
        assert not builtin.search(src), f


def test_bucket_groups_quiets_empty_partition_warnings(ray_session):
    """Every bucket shuffle installs the empty-partition WARNING filter
    itself, not only the processes that call
    quiet_empty_partition_warnings() up front."""
    import logging

    import ray.data

    from jsonschema_validator_ray import rayutil
    from jsonschema_validator_ray.ops.aggregates import grouped_aggregate

    logger = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")

    def installed():
        return [f for f in logger.filters
                if isinstance(f, rayutil._EmptySchemaFilter)]

    for f in installed():
        logger.removeFilter(f)
    out = grouped_aggregate(ray.data.from_arrow(pa.table({"k": [1, 2, 2]})),
                            ["k"], [("k", "count", "n")]).take_all()
    assert sorted((r["k"], r["n"]) for r in out) == [(1, 1), (2, 2)]
    assert len(installed()) == 1


_NO_PYTHONPATH_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])          # the driver imports the package...
import pyarrow as pa
import ray
import ray.data

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
# first: no other op has probed worker importability yet
from jsonschema_validator_ray.ops.sampling import stratified_sample

strat = stratified_sample(ray.data.from_arrow(pa.table(
    {"g": ["a", "a", "b"], "k": [1, 2, 3]})), "g", "k", k=1).take_all()
from jsonschema_validator_ray.ops.dedup import minhash_near_duplicates
from jsonschema_validator_ray.ops.stats import global_quantiles

q = global_quantiles(ray.data.from_arrow(pa.table({"x": [1.0, 2.0, 3.0]})),
                     "x", qs=(0.5,))
text = "the quick brown fox jumps over the lazy dog again and again"
docs = ray.data.from_arrow(pa.table({"doc_id": [1, 2, 3],
                                     "text": [text, text, "zzz yyy xxx"]}))
pairs = minhash_near_duplicates(docs, "doc_id", "text")
print("RESULT", q["quantiles"][0.5], pairs.num_rows, len(strat))
ray.shutdown()
"""


def test_ops_run_when_workers_lack_the_package(tmp_path):
    """global_quantiles and minhash_near_duplicates start Ray work with a
    direct materialize(), not a rayutil collect, and a bucket_groups
    shuffle may be consumed by a plain take_all(). All must probe worker
    importability first: with PYTHONPATH unset the workers cannot import
    the package, and without the probe they die with ModuleNotFoundError.
    Runs in a fresh process with its own one-CPU Ray node."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_PYTHONPATH_SCRIPT, repo], env=env,
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "RESULT 2.0 1 2" in proc.stdout, proc.stdout[-2000:]
