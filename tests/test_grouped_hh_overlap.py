"""Per-group heavy hitters (keyed Misra-Gries) and HLL inclusion–exclusion
overlap: exact-when-capacity-suffices, MG lower-bound + error certificate
when batches overflow, and sketch-overlap accuracy at realistic skew."""

import numpy as np
import pyarrow as pa
import pytest

from jsonschema_validator_ray.ops.aggregates import grouped_heavy_hitters
from jsonschema_validator_ray.state.hll import HyperLogLog


def _exact_counts(groups, items):
    from collections import Counter
    return Counter(zip(groups, items))


def _make_ds(ray_session, groups, items, n_blocks=4):
    import ray.data

    t = pa.table({"g": pa.array(groups, pa.string()),
                  "it": pa.array(items, pa.string())})
    return ray.data.from_arrow(t).repartition(n_blocks)


def test_grouped_hh_exact_when_capacity_suffices(ray_session):
    rng = np.random.default_rng(3)
    groups = rng.choice(["a", "b", "c"], size=5000).tolist()
    items = rng.choice([f"i{j}" for j in range(20)], size=5000).tolist()
    ds = _make_ds(ray_session, groups, items)
    out = grouped_heavy_hitters(ds, "g", "it", k=4, capacity=64)
    exact = _exact_counts(groups, items)
    assert (np.asarray(out["err_bound"]) == 0).all()
    # engine top-4 per group == exact top-4 with (cnt desc, item asc) ties
    for g in ("a", "b", "c"):
        want = sorted(((c, i) for (gg, i), c in exact.items() if gg == g),
                      key=lambda t: (-t[0], t[1]))[:4]
        got = out.filter(pa.compute.equal(out["g"], g))
        got_pairs = sorted(zip(got["est_count"].to_pylist(),
                               got["item"].to_pylist()),
                           key=lambda t: (-t[0], t[1]))
        assert got_pairs == want


def test_grouped_hh_mg_bound_under_overflow(ray_session):
    # one group with 500 distinct items but a dominant head; capacity 16
    # forces per-batch drops — the MG contract must still hold:
    #   est <= true <= est + err_bound, and the heavy head must survive
    rng = np.random.default_rng(11)
    head = ["hot1"] * 1500 + ["hot2"] * 900
    tail = [f"t{j}" for j in rng.integers(0, 500, size=3000)]
    items = head + tail
    rng.shuffle(items)
    groups = ["g"] * len(items)
    ds = _make_ds(ray_session, groups, items, n_blocks=6)
    out = grouped_heavy_hitters(ds, "g", "it", k=5, capacity=16)
    exact = _exact_counts(groups, items)
    got = dict(zip(out["item"].to_pylist(), out["est_count"].to_pylist()))
    errs = set(out["err_bound"].to_pylist())
    assert len(errs) == 1            # one certificate per group
    err = errs.pop()
    assert err > 0                   # capacity 16 << 502 distinct: drops real
    for item, est in got.items():
        true = exact[("g", item)]
        assert est <= true <= est + err, (item, est, true, err)
    assert "hot1" in got and "hot2" in got   # heavy head survives


def test_grouped_hh_null_and_empty(ray_session):
    ds = _make_ds(ray_session,
                  ["a", "a", None, "b"], ["x", None, "y", "x"], n_blocks=2)
    out = grouped_heavy_hitters(ds, "g", "it", k=2, capacity=8)
    rows = sorted(zip(out["g"].to_pylist(), out["it" if "it" in
                                                out.column_names else "item"]
                      .to_pylist(), out["est_count"].to_pylist()))
    assert rows == [("a", "x", 1), ("b", "x", 1)]


def test_rolling_distinct_gap_and_reactivation(ray_session):
    # user 1 active on days 0 and 3 (one window: still ONE user), user 2 on
    # day 0 only, day 10 isolated after a gap — windows anchored on
    # observed days only, trailing 3 days
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import rolling_distinct

    base = np.datetime64("2024-01-01T12:00:00", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    ts = [base, base, base + 3 * day, base + 10 * day, None]
    users = [1, 2, 1, 3, 4]
    t = pa.table({"u": pa.array(users, pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us"))})
    out = rolling_distinct(ray.data.from_arrow(t).repartition(2),
                           "u", "ts", window_days=3)
    rows = dict(zip(out["day"].to_pylist(), out["n_keys"].to_pylist()))
    # observed days: 01-01 (u1,u2), 01-04 (u1 again), 01-11 (u3)
    assert rows == {"2024-01-01": 2,   # u1, u2
                    "2024-01-04": 1,   # only u1's day-3 activity in window
                    "2024-01-11": 1}   # gap: window holds only u3


def test_interval_coverage_islands(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import interval_coverage

    # user 1: [0,10) + [5,20) overlap -> one island [0,20); [20,30) touches
    # (s == prev end -> same island, half-open union); [50,60) is separate.
    # user 2: nested [0,100) + [10,20) -> one island; later [90,95) nested
    # inside the running end even though a "gap" follows a shorter e.
    rows = [
        (1, 0, 10), (1, 5, 20), (1, 20, 30), (1, 50, 60),
        (2, 0, 100), (2, 10, 20), (2, 90, 95),
        (3, 7, 7),            # degenerate e == s: dropped
        (None, 0, 5), (4, None, 5), (4, 3, None),   # null rows: dropped
    ]
    t = pa.table({
        "k": pa.array([r[0] for r in rows], pa.int64()),
        "s": pa.array([r[1] for r in rows], pa.int64()),
        "e": pa.array([r[2] for r in rows], pa.int64()),
    })
    out = interval_coverage(ray.data.from_arrow(t).repartition(3),
                            "k", "s", "e")
    got = {r["k"]: (r["n_islands"], r["covered_us"])
           for r in out.take_all()}
    assert got == {1: (2, 40), 2: (1, 100)}


def test_interval_coverage_exact_over_full_int64_range(ray_session,
                                                      one_bucket):
    """Groups whose end values span the whole int64 range share one bucket
    and still get their exact islands: the running max of ``end`` is
    rank-lifted per group, so no groups x range offset can wrap (the
    segment-offset version refused 3 such groups with a ValueError)."""
    import ray.data

    from jsonschema_validator_ray.ops.aggregates import interval_coverage

    def run(n_groups):
        t = pa.table({"k": pa.array(range(n_groups), pa.int64()),
                      "s": pa.array([0] * n_groups, pa.int64()),
                      "e": pa.array([10] + [2 ** 62] * (n_groups - 1),
                                    pa.int64())})
        out = interval_coverage(ray.data.from_arrow(t), "k", "s", "e")
        return {r["k"]: (r["n_islands"], r["covered_us"])
                for r in out.take_all()}

    assert run(2) == {0: (1, 10), 1: (1, 2 ** 62)}
    assert run(3) == {0: (1, 10), 1: (1, 2 ** 62), 2: (1, 2 ** 62)}
    assert run(5) == {0: (1, 10)} | {k: (1, 2 ** 62) for k in range(1, 5)}

    # islands and gaps at both ends of int64 in every group: a later
    # group's small ends must not inherit an earlier group's huge ones
    big = 2 ** 63 - 1
    rows = []
    for k in range(4):
        rows += [(k, -big, -big + 5), (k, -big + 3, -big + 9),
                 (k, 100, 200), (k, big - 50, big - 10), (k, big - 20, big)]
    t = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                  "s": pa.array([r[1] for r in rows], pa.int64()),
                  "e": pa.array([r[2] for r in rows], pa.int64())})
    out = interval_coverage(ray.data.from_arrow(t).repartition(3),
                            "k", "s", "e")
    got = {r["k"]: (r["n_islands"], r["covered_us"])
           for r in out.take_all()}
    assert got == {k: (3, 9 + 100 + 50) for k in range(4)}


def test_cms_upper_bound_and_merge_under_collisions():
    # narrow sketch (width 64) + 500 distinct keys: collisions guaranteed,
    # the CM contract must still hold after a partial merge:
    #   true <= est <= true + ceil(e/width * N)  (checked for EVERY key —
    #   stricter than the probabilistic statement, but reliable at d=4)
    from collections import Counter

    from jsonschema_validator_ray.state.cms import CountMinSketch

    rng = np.random.default_rng(5)
    stream = [f"k{int(v)}" for v in rng.zipf(1.5, size=8000) % 500]
    parts = [CountMinSketch(width=64, d=4) for _ in range(4)]
    for i, chunk in enumerate(np.array_split(np.array(stream), 4)):
        parts[i].update(chunk.tolist())
    merged = CountMinSketch.from_bytes(parts[0].to_bytes(), width=64, d=4)
    for p in parts[1:]:
        merged.merge(p)
    assert merged.n == len(stream)
    true = Counter(stream)
    keys = sorted(true)
    est = merged.estimate(keys)
    bound = merged.error_bound()
    for k, e in zip(keys, est):
        assert true[k] <= e <= true[k] + bound, (k, true[k], e, bound)


def test_cms_merge_rejects_shape_mismatch():
    """Merging sketches of different shapes is a typed error that holds
    under ``python -O`` (a bare assert would vanish there)."""
    from jsonschema_validator_ray.state.cms import CountMinSketch

    with pytest.raises(ValueError, match="Count-Min"):
        CountMinSketch(width=64, d=4).merge(CountMinSketch(width=64, d=1))
    with pytest.raises(ValueError, match="Count-Min"):
        CountMinSketch(width=64, d=4).merge(CountMinSketch(width=32, d=4))


def test_welch_ttest_matches_direct_formula(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.stats import welch_ttest

    rng = np.random.default_rng(9)
    xa = rng.normal(10.0, 2.0, size=400)
    xb = rng.normal(10.6, 3.0, size=300)
    t = pa.table({
        "g": pa.array(["a"] * 400 + ["b"] * 300 + ["c", None]),
        "v": pa.array(np.concatenate([xa, xb, [99.0, 5.0]])),
    })
    r = welch_ttest(ray.data.from_arrow(t).repartition(5), "g", "v",
                    "a", "b")
    va, vb = xa.var(ddof=1), xb.var(ddof=1)
    se2 = va / 400 + vb / 300
    t_direct = (xa.mean() - xb.mean()) / np.sqrt(se2)
    df_direct = se2 ** 2 / ((va / 400) ** 2 / 399 + (vb / 300) ** 2 / 299)
    assert r["n_a"] == 400 and r["n_b"] == 300
    assert abs(r["t_stat"] - t_direct) < 1e-9
    assert abs(r["df"] - df_direct) < 1e-6


def test_welch_ttest_degenerate_sides(ray_session):
    import math

    import ray.data

    from jsonschema_validator_ray.ops.stats import welch_ttest

    t = pa.table({"g": pa.array(["a", "b", "b"]),
                  "v": pa.array([1.0, 2.0, 3.0])})
    r = welch_ttest(ray.data.from_arrow(t), "g", "v", "a", "b")
    assert r["n_a"] == 1 and math.isnan(r["t_stat"])
    r2 = welch_ttest(ray.data.from_arrow(t), "g", "v", "x", "y")
    assert r2["n_a"] == 0 and r2["n_b"] == 0 and math.isnan(r2["df"])


def test_benford_audit_counts_and_chi2(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.stats import benford_audit

    # 1..9 once each (flat), plus zeros/negatives/nulls dropped; leading
    # digit must survive magnitude (11, 215, 3000)
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
            11.0, 215.0, 3000.0, 0.0, -5.0, None]
    t = pa.table({"v": pa.array(vals, pa.float64())})
    out = benford_audit(ray.data.from_arrow(t).repartition(3), "v")
    got = dict(zip(out["digit"].to_pylist(), out["n_obs"].to_pylist()))
    assert got == {1: 2, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1}
    n = 12
    p = np.log10(1 + 1 / np.arange(1, 10))
    obs = np.array([got[d] for d in range(1, 10)], float)
    chi2 = (((obs - p * n) ** 2) / (p * n)).sum()
    assert abs(out["chi2_r6"][0].as_py() - round(chi2, 6)) < 1e-9


def test_benford_audit_subnormal_and_boundary_no_crash(ray_session):
    # review r5: 5e-324 used to underflow pow -> inf ratio -> bincount
    # crash; nextafter(1e20, 0) used to produce digit 0 and be silently
    # dropped. Both must now land on a 1-9 digit with nothing lost.
    import ray.data

    from jsonschema_validator_ray.ops.stats import benford_audit

    vals = [5e-324, float(np.nextafter(1e20, 0)), 1e23, 2.0]
    t = pa.table({"v": pa.array(vals, pa.float64())})
    out = benford_audit(ray.data.from_arrow(t), "v")
    assert int(pa.compute.sum(out["n_obs"]).as_py()) == len(vals)
    got = dict(zip(out["digit"].to_pylist(), out["n_obs"].to_pylist()))
    assert got[9] >= 1      # nextafter(1e20, 0) = 9.999...e19 -> digit 9
    assert got[2] >= 1


def test_benford_audit_empty_input(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.stats import benford_audit

    t = pa.table({"v": pa.array([None, -1.0, 0.0], pa.float64())})
    out = benford_audit(ray.data.from_arrow(t), "v")
    assert out["n_obs"].to_pylist() == [0] * 9
    assert out["expected_r6"].to_pylist() == [0.0] * 9   # SQL-parity zeros
    assert out["chi2_r6"].to_pylist() == [None] * 9      # SQL 0/0 -> NULL


def test_sequence_audit_all_null_envelope(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.stats import sequence_audit

    t = pa.table({"id": pa.array([None, None], pa.int64())})
    out = sequence_audit(ray.data.from_arrow(t), "id")
    row = {c: out[c][0].as_py() for c in out.column_names}
    assert row["n_missing"] is None     # SQL NULL envelope
    assert row["n_dup_rows"] == 0 and row["n_null"] == 2


def test_sequence_audit_gaps_dups_nulls(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.stats import sequence_audit

    ids = [5, 6, 6, 9, 10, None]      # dup 6; missing 7, 8; one null
    t = pa.table({"id": pa.array(ids, pa.int64())})
    out = sequence_audit(ray.data.from_arrow(t).repartition(2), "id")
    row = {c: out[c][0].as_py() for c in out.column_names}
    assert row == {"n_rows": 5, "n_null": 1, "n_distinct": 4,
                   "min_id": 5, "max_id": 10, "n_dup_rows": 1,
                   "n_missing": 2}


def test_check_constraint_kernel_semantics():
    # pure kernel test, no Ray: guarded implication, SQL CHECK null
    # semantics (unknown passes), column-vs-column comparison, 'in'
    from jsonschema_validator_ray.constraints.ir import compile_constraints
    from jsonschema_validator_ray.constraints.kernels import evaluate_kernel

    spec = {"version": 1, "columns": {}, "table": {"checks": [
        {"name": "user_no_tool", "when": {"column": "role",
                                          "equals": "user"},
         "assert": {"column": "tool", "op": "null"}},
        {"name": "a_le_b", "assert": {"column": "a", "op": "le",
                                      "other_column": "b"}},
        {"name": "role_known", "assert": {"column": "role", "op": "in",
                                          "values": ["user", "tool"]}},
    ]}}
    ir = compile_constraints(spec)
    batch = pa.table({
        "role": pa.array(["user", "user", "tool", None, "x"]),
        "tool": pa.array(["t", None, "t", "t", None]),
        "a": pa.array([1, 5, None, 2, 3], pa.int64()),
        "b": pa.array([2, 4, 7, None, 3], pa.int64()),
    })
    masks = {c.cid: evaluate_kernel(c, batch, ir).to_pylist()
             for c in ir.row_constraints}
    # guard: only role='user' rows can fire; null guard passes
    assert masks["check:user_no_tool"] == [True, False, False, False,
                                           False]
    # a<=b: 5>4 fires; NULL comparisons (rows 3, 4) pass like SQL CHECK
    assert masks["check:a_le_b"] == [False, True, False, False, False]
    # in: 'x' fires, NULL role passes (is_in null -> unknown -> pass)
    assert masks["check:role_known"] == [False, False, False, False,
                                         True]


def test_check_constraint_compile_errors():
    import pytest as _pytest

    from jsonschema_validator_ray.constraints.ir import compile_constraints
    from jsonschema_validator_ray.jsonvalidate.types import SchemaError

    with _pytest.raises(SchemaError):
        compile_constraints({"version": 1, "columns": {}, "table": {
            "checks": [{"name": "bad", "assert": {"column": "a",
                                                  "op": "frob"}}]}})
    with _pytest.raises(SchemaError):
        compile_constraints({"version": 1, "columns": {}, "table": {
            "checks": [{"name": "bad", "assert": {"column": "a",
                                                  "op": "in",
                                                  "values": []}}]}})
    # a comparison with neither `value` nor `other_column`, and an assert
    # with no `column`, are SchemaErrors naming the check, not KeyErrors
    for op in ("eq", "ne", "lt", "le", "gt", "ge"):
        with _pytest.raises(SchemaError, match="'no_operand'"):
            compile_constraints({"version": 1, "columns": {}, "table": {
                "checks": [{"name": "no_operand",
                            "assert": {"column": "a", "op": op}}]}})
    with _pytest.raises(SchemaError, match="'no_column'"):
        compile_constraints({"version": 1, "columns": {}, "table": {
            "checks": [{"name": "no_column",
                        "assert": {"op": "lt", "value": 3}}]}})


def test_random_projection_deterministic_and_shape(ray_session):
    import ray.data

    from jsonschema_validator_ray.ops.embed import (jl_matrix,
                                                    random_projection)

    # matrix is a pure function of the cell index
    assert np.array_equal(jl_matrix(4, 8), jl_matrix(4, 8))
    assert set(np.unique(jl_matrix(16, 64))) <= {-1, 0, 1}

    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 8)).astype(np.float32)
    t = pa.table({
        "id": pa.array(range(22), pa.int64()),
        "e": pa.array(list(x.tolist()) + [None, [1.0, 2.0]],  # bad rows
                      pa.list_(pa.float32())),
    })
    out = random_projection(ray.data.from_arrow(t), "e", "id",
                            in_dims=8, out_dims=3).take_all()
    assert len(out) == 20          # null + wrong-length rows dropped
    r = jl_matrix(3, 8).astype(np.float64)
    want = x.astype(np.float64) @ r.T
    got = np.array([[row[f"y{j}"] for j in range(3)] for row in
                    sorted(out, key=lambda d: d["id"])])
    assert np.allclose(got, want, atol=1e-12)


def test_hll_inclusion_exclusion_overlap_accuracy():
    # pure-sketch check (no Ray needed): |A∩B| via est(A)+est(B)-est(A∪B)
    a_ids = [f"u{i}" for i in range(30000)]
    b_ids = [f"u{i}" for i in range(20000, 50000)]   # true overlap = 10000
    ha, hb = HyperLogLog(12), HyperLogLog(12)
    ha.update(a_ids)
    hb.update(b_ids)
    hu = HyperLogLog.from_bytes(ha.to_bytes()).merge(hb)
    est = ha.cardinality() + hb.cardinality() - hu.cardinality()
    assert abs(est - 10000) <= 0.05 * 50000   # 5% of |A∪B|
