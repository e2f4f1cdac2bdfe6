"""Property-based tests (hypothesis): the vectorized wide-stage checkers and
sketches agree with naive Python oracles on arbitrary small inputs —
including nulls, duplicate keys, ties, and single-row groups.

Extends the reference's table-driven test style (SURVEY.md §5.1) with
randomized coverage it lacked. No Ray needed — these drive the kernels
directly on hand-built Arrow tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonschema_validator_ray.constraints.ir import GroupCheck
from jsonschema_validator_ray.stages.groupcheck import (
    SortedRunChecker,
    merge_run_boundaries,
)

GC = GroupCheck()

# one conversation's rows: (turn_idx | None, ts_us | None)
conv_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 6)),
              st.one_of(st.none(), st.integers(0, 50))),
    min_size=0, max_size=8)
corpora = st.dictionaries(st.sampled_from(["a", "b", "c"]), conv_rows,
                          min_size=1, max_size=3)


def naive_check(conv_map: dict) -> set:
    """Reference semantics, row-at-a-time: per conversation, rows with null
    turn_idx are excluded; uniqueness = any repeated turn_idx (one violation
    per extra occurrence); mono = over rows with valid ts in stable
    turn-idx order, adjacent (differing-tid) pairs must not regress."""
    out = []
    for conv, rows in conv_map.items():
        rows = [(t, s) for t, s in rows if t is not None]
        rows.sort(key=lambda r: r[0])   # python sort is stable
        for i in range(1, len(rows)):
            if rows[i][0] == rows[i - 1][0]:
                out.append((conv, rows[i][0], "unique"))
        valid = [(t, s) for t, s in rows if s is not None]
        for i in range(1, len(valid)):
            if valid[i][1] < valid[i - 1][1] and valid[i][0] != valid[i - 1][0]:
                out.append((conv, valid[i][0], "mono"))
    return set((c, t, k) for c, t, k in out)


def engine_check(conv_map: dict, split_at: int | None = None) -> set:
    """Run the sorted-run checker over the corpus as ONE sorted stream,
    optionally split into two blocks at an arbitrary row index (exercising
    the run-boundary merge)."""
    rows = []
    for conv in sorted(conv_map):
        rs = [(t, s) for t, s in conv_map[conv]]
        rs.sort(key=lambda r: (r[0] is None, r[0] if r[0] is not None else 0))
        for t, s in rs:
            rows.append((conv, t, s))
    # global sort order (conv, tid) with nulls last, stable — mirror ds.sort
    rows.sort(key=lambda r: (r[0], r[1] is None, r[1] if r[1] is not None else 0))

    def to_table(chunk):
        return pa.table({
            "conv_id": pa.array([r[0] for r in chunk], pa.string()),
            "turn_idx": pa.array([r[1] for r in chunk], pa.int32()),
            "ts": pa.array([np.datetime64(r[2], "us") if r[2] is not None
                            else None for r in chunk], pa.timestamp("us")),
        })

    checker = SortedRunChecker(GC, boundary_mode="edges")
    chunks = [rows] if not split_at else [rows[:split_at], rows[split_at:]]
    viols = []
    bounds = []
    for chunk in chunks:
        if not chunk:
            continue
        out = checker(to_table(chunk))
        v = out.filter(pc.equal(out["kind"], "violation"))
        viols.extend(zip(v["conv_id"].to_pylist(), v["turn_idx"].to_pylist(),
                         v["constraint_id"].to_pylist()))
        b = out.filter(pc.equal(out["kind"], "boundary"))
        bounds.append(b.drop_columns(["kind", "turn_idx", "constraint_id",
                                      "message"]))
    if bounds:
        cross = merge_run_boundaries(pa.concat_tables(bounds), GC)
        viols.extend(zip(cross["conv_id"].to_pylist(),
                         cross["turn_idx"].to_pylist(),
                         cross["constraint_id"].to_pylist()))
    kind = {"unique:(conv_id,turn_idx)": "unique", "mono:turn_idx": "mono"}
    return set((c, t, kind[k]) for c, t, k in viols)


@settings(max_examples=200, deadline=None)
@given(corpora)
def test_sorted_run_checker_matches_naive(conv_map):
    assert engine_check(conv_map) == naive_check(conv_map)


@settings(max_examples=200, deadline=None)
@given(corpora, st.integers(0, 20))
def test_block_split_boundary_merge_matches_naive(conv_map, split):
    """Splitting the sorted stream at ANY point must not change the verdict
    set: the run-boundary merge restores exact global semantics."""
    n = sum(len(v) for v in conv_map.values())
    assert engine_check(conv_map, split_at=min(split, n)) \
        == naive_check(conv_map)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**60), min_size=0, max_size=500),
       st.lists(st.integers(0, 2**60), min_size=0, max_size=500))
def test_hll_merge_commutes_and_bounds(xs, ys):
    from jsonschema_validator_ray.state.hll import HyperLogLog

    a = HyperLogLog(12)
    a.update_hashes(np.array(xs, np.uint64))
    b = HyperLogLog(12)
    b.update_hashes(np.array(ys, np.uint64))
    ab = HyperLogLog.from_bytes(a.to_bytes()).merge(b)
    ba = HyperLogLog.from_bytes(b.to_bytes()).merge(a)
    assert (ab.registers == ba.registers).all()     # merge commutes
    true = len(set(xs) | set(ys))
    if true >= 100:
        assert abs(ab.cardinality() - true) / true < 0.15


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=10,
                max_size=400), st.floats(0.05, 0.95))
def test_tdigest_quantile_within_range(values, q):
    from jsonschema_validator_ray.state.tdigest import TDigest

    t = TDigest()
    t.update(np.array(values, np.float64))
    est = t.quantile(q)
    assert min(values) <= est <= max(values)
