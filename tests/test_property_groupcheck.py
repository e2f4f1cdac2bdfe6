"""Property-based tests (hypothesis, and seeded random layouts): the
vectorized group checks and sketches agree with naive Python oracles on
arbitrary small inputs — including nulls, duplicate keys, ties, and
single-row groups.

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
from jsonschema_validator_ray.constraints.kernels import group_check_table
from jsonschema_validator_ray.stages.groupcheck import (
    RUN_BOUNDARY_SCHEMA,
    SortedRunChecker,
    local_group_check,
    merge_run_boundaries,
    resolve_runs,
    segmented_running_max,
    split_overlapping_runs,
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

    checker = SortedRunChecker(GC)
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


def _random_corpus(rng, n: int) -> pa.Table:
    """Group-check columns with null keys, duplicate turn_idx and null ts;
    half the corpora are clustered by conversation, half in random order."""
    conv = np.array([f"c{c:02d}" for c in rng.integers(0, rng.integers(1, 30), n)],
                    dtype=object)
    conv[rng.random(n) < 0.03] = None
    tid = [None if rng.random() < 0.05 else int(x)
           for x in rng.integers(0, rng.integers(1, 15), n)]
    ts = [None if rng.random() < 0.1 else int(x)
          for x in rng.integers(0, 50, n)]
    t = pa.table({"conv_id": pa.array(conv.tolist(), pa.string()),
                  "turn_idx": pa.array(tid, pa.int32()),
                  "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us"))})
    if rng.random() < 0.5:
        t = t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    return t


def _vset(t: pa.Table) -> list:
    return sorted(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(),
                      t["constraint_id"].to_pylist(),
                      t["message"].to_pylist()), key=repr)


def _per_conversation(t: pa.Table) -> list:
    """The reference: group_check_table on each conversation's rows."""
    keyed = t.filter(pc.is_valid(t["conv_id"]))
    out = [group_check_table(keyed.filter(pc.equal(keyed["conv_id"], c)), GC)
           for c in pc.unique(keyed["conv_id"]).to_pylist()]
    return _vset(pa.concat_tables(out)) if out else []


def _one_pass(t: pa.Table, bounds: list) -> list:
    """The one-pass plan over the batches ``t[bounds[i]:bounds[i+1]]``:
    batch-local checks, then the driver's split, merge and re-check."""
    group, runs = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        g, r = local_group_check(t.slice(a, b - a), GC)
        group.append(g)
        runs.append(r.select(RUN_BOUNDARY_SCHEMA.names))
    mergeable, overlap = split_overlapping_runs(pa.concat_tables(runs))

    def recheck(convs):
        rows = t.filter(pc.is_in(t["conv_id"],
                                 value_set=pa.array(convs, pa.string())))
        return local_group_check(rows, GC)[0]

    return _vset(resolve_runs(pa.concat_tables(group), mergeable, overlap,
                              GC, recheck))


def test_one_pass_matches_per_conversation_check_in_any_batch_layout():
    """Split and permute random corpora into random batch layouts: the
    one-pass result equals group_check_table per conversation over the
    whole table, whatever the row order and wherever batches split —
    including splits at a duplicated turn_idx, where the seam merge cannot
    tell which run holds the turn's latest ts."""
    rng = np.random.default_rng(20)
    for case in range(300):
        t = _random_corpus(rng, int(rng.integers(1, 300)))
        if rng.random() < 0.3:
            t = t.take(pa.array(rng.permutation(t.num_rows)))
        k = min(t.num_rows, int(rng.integers(1, 8)))
        cuts = rng.choice(np.arange(1, t.num_rows + 1), k, replace=False)
        bounds = sorted({0, t.num_rows, *cuts.tolist()})
        assert _one_pass(t, bounds) == _per_conversation(t), case


def _overlap_loop(records: list) -> set:
    """Per-record reference for split_overlapping_runs: in (first_tid,
    last_tid) order, a record overlaps when it starts at or before the
    largest last_tid of its conversation's earlier records."""
    out, run_max = set(), {}
    for conv, first, last in sorted(records):
        if conv in run_max and first <= run_max[conv]:
            out.add(conv)
        run_max[conv] = max(run_max.get(conv, last), last)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(-3, 9), st.integers(0, 6)),
                min_size=0, max_size=12))
def test_split_overlapping_runs_matches_loop(spans):
    """The vectorized split equals the per-record loop, and the mergeable
    records are exactly the other conversations' records."""
    records = [(c, f, f + w) for c, f, w in spans]
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in records], pa.string()),
        "first_tid": pa.array([r[1] for r in records], pa.int64()),
        "last_tid": pa.array([r[2] for r in records], pa.int64()),
        "first_vts": pa.array([0.0] * len(records)),
        "last_vts": pa.array([0.0] * len(records)),
        "first_vtid": pa.array([r[1] for r in records], pa.int64()),
        "last_vtid": pa.array([r[2] for r in records], pa.int64()),
    }, schema=RUN_BOUNDARY_SCHEMA)
    mergeable, overlap = split_overlapping_runs(tbl)
    want = _overlap_loop(records)
    assert overlap.to_pylist() == sorted(want)
    assert sorted(zip(mergeable["conv_id"].to_pylist(),
                      mergeable["first_tid"].to_pylist(),
                      mergeable["last_tid"].to_pylist())) \
        == sorted(r for r in records if r[0] not in want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                         max_size=6), min_size=0, max_size=6))
def test_segmented_running_max_matches_loop(segments):
    """The rank-lifted running max equals a per-segment accumulate over
    the whole int64 range (no offset on the values can wrap)."""
    v = np.array([x for seg in segments for x in seg], np.int64)
    seg = np.repeat(np.arange(len(segments)), [len(s) for s in segments])
    want = [m for s in segments for m in np.maximum.accumulate(s)]
    assert segmented_running_max(v, seg).tolist() == want


def test_runs_sharing_a_duplicated_turn_are_rechecked():
    """Batch A holds turns 4 and 5 (ts 10, 30), batch B turn 5 again and
    turn 6 (ts 20, 25). In (turn_idx, ts) order the ts run 10, 20, 30, 25:
    turn 6 regresses. Only the re-check sees it — the seam merge compares
    B's first ts with A's last at the same turn and skips the pair."""
    t = pa.table({"conv_id": ["c"] * 4,
                  "turn_idx": pa.array([4, 5, 5, 6], pa.int32()),
                  "ts": pa.array([10, 30, 20, 25], pa.timestamp("us"))})
    _, overlap = split_overlapping_runs(pa.concat_tables(
        [local_group_check(t.slice(0, 2), GC)[1],
         local_group_check(t.slice(2, 2), GC)[1]]))
    assert overlap.to_pylist() == ["c"]
    expected = [("c", 5, "unique:(conv_id,turn_idx)", "Duplicate key"),
                ("c", 6, "mono:turn_idx", "Non-monotonic ts for turn order")]
    assert _one_pass(t, [0, 2, 4]) == expected
    assert _per_conversation(t) == expected
    # and the result does not depend on the physical order of the rows
    assert _per_conversation(t.take(pa.array([3, 2, 1, 0]))) == expected


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
