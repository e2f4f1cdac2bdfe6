"""ops.aggregates.transition_counts (Markov adjacent-pair counts) and
ops.sink.compact_parquet (shuffle-free small-file compaction)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq


def test_transition_counts_planted(ray_session):
    """Pairs never straddle groups; null groups drop; null tags exclude
    the pairs touching them but do NOT break adjacency of the rest."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import transition_counts

    t = pa.table({
        "g": pa.array([1, 1, 1, 1, 2, 2, None], pa.int64()),
        "o": pa.array([1, 2, 3, 4, 1, 2, 1], pa.int64()),
        "tag": pa.array(["a", "b", None, "a", "a", "a", "z"]),
    })
    out = transition_counts(ray.data.from_arrow(t).repartition(3),
                            "g", ["o"], "tag")
    folded: dict = {}
    for r in out.take_all():
        k = (r["from_tag"], r["to_tag"])
        folded[k] = folded.get(k, 0) + r["n"]
    # group 1: a->b, b->NULL (dropped), NULL->a (dropped); group 2: a->a
    assert folded == {("a", "b"): 1, ("a", "a"): 1}


def test_compact_parquet_reduces_files_keeps_rows(ray_session, tmp_path):
    """Compaction merges many small parts into few, preserving every row
    and the schema; the manifest counts match the data."""
    import ray.data

    from jsonschema_validator_ray.ops.sink import (
        compact_parquet, write_partitioned_parquet)

    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    t = pa.table({"k": pa.array(range(1000), pa.int64()),
                  "s": pa.array([f"v{i}" for i in range(1000)])})
    write_partitioned_parquet(ray.data.from_arrow(t).repartition(16), src)
    n_src = len([f for f in os.listdir(src) if f.endswith(".parquet")])
    assert n_src > 4

    stats = compact_parquet(src, dst, target_rows_per_file=500)
    assert stats["n_files_in"] == n_src
    assert stats["n_files_out"] <= 2
    assert stats["n_rows"] == 1000

    back = pq.read_table(dst)
    assert back.num_rows == 1000
    assert sorted(back["k"].to_pylist()) == list(range(1000))
