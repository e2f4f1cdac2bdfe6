"""End-to-end golden run (SURVEY.md §5.2 item 3): deterministic synthetic
transcripts with enumerated injected violations; the engine must find exactly
that set; kill/resume must be byte-identical;
drift verdicts must separate injected/drifted/clean variants."""

import json
import numpy as np
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jsonschema_validator_ray.constraints import compile_constraints
from jsonschema_validator_ray.pipelines import run_partitioned, validate
from jsonschema_validator_ray.sources import (
    generate_transcripts,
    reference_stats,
    spec_with_drift,
)

N_CONVS = 300


def rows(tbl: pa.Table) -> list:
    return sorted(zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist(),
                      tbl["constraint_id"].to_pylist(), tbl["message"].to_pylist()),
                  key=lambda r: (r[0], -1 if r[1] is None else r[1], r[2]))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("tx")
    gen = generate_transcripts(str(d), n_convs=N_CONVS, n_files=4)
    spec = spec_with_drift(reference_stats(N_CONVS))
    return gen, spec


def test_generator_deterministic(tmp_path):
    a = generate_transcripts(str(tmp_path / "a"), n_convs=50, n_files=2)
    b = generate_transcripts(str(tmp_path / "b"), n_convs=50, n_files=2)
    for fa, fb in zip(a.files, b.files):
        assert pq.read_table(fa).equals(pq.read_table(fb))
    assert a.golden_violations.equals(b.golden_violations)


def test_engine_matches_golden(ray_session, corpus):
    gen, spec = corpus
    res = validate(gen.out_dir, spec=spec)
    assert rows(res.violations) == rows(gen.golden_violations)
    assert res.passed is False                      # row violations exist
    assert all(d["passed"] for d in res.drift)      # ...but no drift
    assert res.metrics["n_rows"] > gen.n_turns      # includes duplicated rows


def test_one_pass_rechecks_overlapping_conversations(ray_session, corpus):
    """Small batches split conversations across batches, and each injected
    cross-file duplicate row opens a second run inside its conversation's
    range: the one-pass plan merges the split runs, re-checks the
    overlapping conversations from the files and matches the golden set."""
    gen, spec = corpus
    res = validate(gen.out_dir, spec=spec, batch_size=512)
    assert res.metrics["wide_stage"] == "local"
    assert res.metrics["wide_stage_fallback"] is None
    assert res.metrics["rechecked_convs"] > 0
    assert rows(res.violations) == rows(gen.golden_violations)


def test_unclustered_and_dataset_sources_fall_back_to_keyed_check(
        ray_session, corpus, tmp_path):
    """A row-shuffled multi-file corpus (one run record per conversation per
    batch) and a Dataset source split into small batches (overlapping runs
    and nothing to re-read) take the keyed fallback, say why in the metrics
    and still match the golden set."""
    import ray.data

    # 3,000 conversations, so the one hot conversation (8,208 turns) does
    # not fill most of every batch
    big = generate_transcripts(str(tmp_path / "big"), n_convs=3000, n_files=4)
    t = pa.concat_tables([pq.read_table(f).replace_schema_metadata(None)
                          for f in big.files])
    t = t.take(pa.array(np.random.default_rng(5).permutation(t.num_rows)))
    files = []
    for k, part in enumerate(np.array_split(np.arange(t.num_rows), 3)):
        files.append(str(tmp_path / f"shuffled{k}.parquet"))
        pq.write_table(t.take(pa.array(part)), files[-1])
    ir = compile_constraints(spec_with_drift(reference_stats(3000)))
    res = validate(files, ir=ir, batch_size=256)
    assert res.metrics["wide_stage"] == "keyed"
    assert "overlapping runs" in res.metrics["wide_stage_fallback"]
    assert rows(res.violations) == rows(big.golden_violations)

    gen, spec = corpus
    res = validate(ray.data.read_parquet(gen.files), spec=spec,
                   batch_size=512)
    assert res.metrics["wide_stage"] == "keyed"
    assert "dataset" in res.metrics["wide_stage_fallback"]
    assert rows(res.violations) == rows(gen.golden_violations)


def test_hot_conversation_copied_to_another_file_falls_back_to_keyed_check(
        ray_session, corpus, tmp_path):
    """A copy of the hot conversation (8,208 turns) in another file overlaps
    every run of it, and its rows are most of the corpus: past
    MAX_RECHECK_SHARE of the checked rows, so validate() takes the keyed
    fallback instead of re-reading the conversation into the driver. The
    result is exact: each copied row's row violations once more, plus one
    duplicate key per copied row."""
    import pyarrow.compute as pc

    gen, spec = corpus
    assert validate(gen.out_dir, spec=spec,
                    batch_size=2048).metrics["wide_stage"] == "local"
    t = pa.concat_tables([pq.read_table(f).replace_schema_metadata(None)
                          for f in gen.files])
    counts = pc.value_counts(t["conv_id"])
    hot = counts.field("values")[
        pc.index(counts.field("counts"),
                 pc.max(counts.field("counts"))).as_py()].as_py()
    copy = t.filter(pc.equal(t["conv_id"], hot))
    assert copy.num_rows >= 8208
    pq.write_table(copy, str(tmp_path / "hot-copy.parquet"))
    res = validate(list(gen.files) + [str(tmp_path / "hot-copy.parquet")],
                   spec=spec, batch_size=2048)
    assert res.metrics["wide_stage"] == "keyed"
    assert "overlapping runs" in res.metrics["wide_stage_fallback"]

    golden = gen.golden_violations
    is_group = pc.or_(pc.starts_with(golden["constraint_id"], "mono:"),
                      pc.starts_with(golden["constraint_id"], "unique:"))
    again = golden.filter(pc.and_(pc.equal(golden["conv_id"], hot),
                                  pc.invert(is_group)))
    tids = copy["turn_idx"].drop_null()
    dup = pa.table({
        "conv_id": pa.array([hot] * len(tids), pa.string()),
        "turn_idx": tids.cast(pa.int32()),
        "constraint_id": pa.array(["unique:(conv_id,turn_idx)"] * len(tids)),
        "message": pa.array(["Duplicate key"] * len(tids)),
    }).cast(golden.schema)
    assert rows(res.violations) == rows(pa.concat_tables([golden, again, dup]))


def test_validate_on_files_runs_one_execution(ray_session, corpus):
    """The one-pass plan reads its source once: validate() runs ONE Ray
    Data execution on files and on a Dataset whose conversations never
    span batches, counted from Ray Data's own "Starting execution" log
    records. The same Dataset in small batches falls back to the keyed
    check and runs two — the control that the count sees a second
    execution."""
    import logging

    import ray.data

    class Starts(logging.Handler):
        def __init__(self):
            super().__init__(logging.INFO)
            self.n = 0

        def emit(self, record):
            self.n += "Starting execution of Dataset" in record.getMessage()

    gen, spec = corpus
    logger = logging.getLogger("ray.data")
    level = logger.level
    logger.setLevel(logging.INFO)
    counts = {}
    try:
        for name, source, batch_size in (
                ("files", gen.out_dir, 65536),
                ("dataset", ray.data.read_parquet(gen.files), 65536),
                ("dataset_split", ray.data.read_parquet(gen.files), 512)):
            handler = Starts()
            logger.addHandler(handler)
            try:
                res = validate(source, spec=spec, batch_size=batch_size)
            finally:
                logger.removeHandler(handler)
            counts[name] = (handler.n, res.metrics["wide_stage"])
    finally:
        logger.setLevel(level)
    assert counts == {"files": (1, "local"), "dataset": (1, "local"),
                      "dataset_split": (2, "keyed")}


def test_run_records_returned_only_in_partitioned_mode(ray_session, corpus):
    """ValidationResult.boundaries carries the run records only for
    finalize (merge_boundaries_now=False), on either group-check plan."""
    import ray.data

    gen, spec = corpus
    for source, batch_size, plan in (
            (gen.out_dir, 65536, "local"),
            (ray.data.read_parquet(gen.files), 512, "keyed")):
        merged = validate(source, spec=spec, sketch=False,
                          batch_size=batch_size)
        assert merged.metrics["wide_stage"] == plan
        assert merged.boundaries is None
        raw = validate(source, spec=spec, sketch=False,
                       batch_size=batch_size, merge_boundaries_now=False)
        assert raw.metrics["wide_stage"] == plan
        assert raw.boundaries.num_rows > 0


def test_fused_reports_row_violation_count(ray_session, corpus):
    """The fused row-validate+sketch stage's own counter agrees with the
    golden row violations (everything but the mono:/unique: group checks)."""
    gen, spec = corpus
    res = validate(gen.out_dir, spec=spec)
    expected = sum(1 for c in gen.golden_violations["constraint_id"].to_pylist()
                   if not (c.startswith("mono:") or c.startswith("unique:")))
    assert res.metrics["n_row_violations"] == expected


@pytest.mark.parametrize("mode", ["enumerate", "verdict"])
@pytest.mark.parametrize("sketch", [True, False])
def test_row_count_reported_in_every_mode(ray_session, corpus, mode, sketch):
    """metrics["n_rows"] is the input row count whatever the mode and
    sketch setting: every row-stage batch reports its own count."""
    gen, spec = corpus
    n_input = sum(pq.read_metadata(f).num_rows for f in gen.files)
    res = validate(gen.out_dir, spec=spec, mode=mode, sketch=sketch,
                   batch_size=1000)
    assert res.metrics["n_rows"] == n_input


def test_verdict_mode_fail_fast(ray_session, corpus):
    gen, spec = corpus
    res = validate(gen.out_dir, spec=spec, mode="verdict", sketch=False)
    assert res.passed is False
    assert res.metrics["n_rows"] == 0 or res.metrics["n_row_violations"] >= 0
    # verdict mode materializes no row-level violation rows
    row_cids = [c for c in res.violations["constraint_id"].to_pylist()
                if not (c.startswith("mono:") or c.startswith("unique:"))]
    assert row_cids == []


def test_drifted_variant_fails_drift_only(ray_session, tmp_path, corpus):
    _, spec = corpus
    gen = generate_transcripts(str(tmp_path / "drift"), n_convs=N_CONVS,
                               n_files=2, inject=False, drifted=True)
    res = validate(gen.out_dir, spec=spec)
    assert res.violations.num_rows == 0
    assert not any(d["passed"] for d in res.drift)
    assert res.passed is False


def test_clean_variant_passes(ray_session, tmp_path, corpus):
    _, spec = corpus
    gen = generate_transcripts(str(tmp_path / "clean"), n_convs=N_CONVS,
                               n_files=2, inject=False)
    res = validate(gen.out_dir, spec=spec)
    assert res.violations.num_rows == 0
    assert res.passed is True


def test_partitioned_resume_identical(ray_session, corpus, tmp_path):
    gen, spec = corpus
    ir = compile_constraints(spec)
    out = str(tmp_path / "out")

    # simulate a mid-run kill: only 2 partitions complete
    r1 = run_partitioned(gen.files, out, ir=ir, files_per_partition=1,
                         max_partitions=2)
    assert r1["complete"] is False and r1["partitions_done"] == 2

    # resume: skips completed partitions, finishes, finalizes
    before = {p: os.path.getmtime(os.path.join(out, "manifests", p))
              for p in os.listdir(os.path.join(out, "manifests"))}
    r2 = run_partitioned(gen.files, out, ir=ir, files_per_partition=1)
    assert r2["complete"] is True
    after = {p: os.path.getmtime(os.path.join(out, "manifests", p))
             for p in before}
    assert before == after  # completed partitions untouched on resume

    # partitioned result == direct single-run result == golden
    viol = pa.concat_tables([
        pq.read_table(os.path.join(out, "violations", f))
        for f in sorted(os.listdir(os.path.join(out, "violations")))])
    # finalize() supersedes group rows for rechecked convs via cleaned concat;
    # reconstruct the definitive set the same way finalize reports it
    assert r2["n_violations"] == gen.golden_violations.num_rows
    assert r2["passed"] is False
    assert r2["partition_verdicts"].count(False) >= 1
    # the duplicated row crosses a file boundary -> its conv was rechecked
    assert len(r2["overlap_rechecked_convs"]) >= 1

    # summary is on disk and matches
    with open(os.path.join(out, "summary.json")) as f:
        s = json.load(f)
    assert s["n_violations"] == gen.golden_violations.num_rows


def test_partitioned_refuses_stale_ir(ray_session, corpus, tmp_path):
    gen, spec = corpus
    out = str(tmp_path / "out2")
    ir = compile_constraints(spec)
    run_partitioned(gen.files[:2], out, ir=ir, files_per_partition=1)
    spec2 = json.loads(json.dumps(spec))
    spec2["columns"]["text"]["max_length"] = 99
    ir2 = compile_constraints(spec2)
    # stale manifests (different IR hash) are not reused: partitions re-run
    r = run_partitioned(gen.files[:2], out, ir=ir2, files_per_partition=1)
    assert r["complete"] is True
    with open(os.path.join(out, "manifests", "part-00000.json")) as f:
        assert json.load(f)["ir_hash"] == ir2.ir_hash


def test_null_group_key_rows_survive_pipeline(ray_session, tmp_path):
    """A corpus row with null conv_id reports required/type violations from
    the row stage and does not crash the wide stage."""
    import pyarrow.parquet as _pq
    from jsonschema_validator_ray.constraints.ir import TRANSCRIPT_SPEC

    t = pa.table({
        "conv_id": pa.array(["c1", "c1", None], pa.string()),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "role": pa.array(["system", "user", "user"], pa.string()),
        "text": pa.array(["a", "b", "c"], pa.string()),
        "tool": pa.array([None, None, None], pa.string()),
        "ts": pa.array([np.datetime64("2024-01-01T00:00:00", "us"),
                        np.datetime64("2024-01-01T00:00:01", "us"),
                        np.datetime64("2024-01-01T00:00:02", "us")],
                       pa.timestamp("us")),
    })
    p = str(tmp_path / "nullconv.parquet")
    _pq.write_table(t, p)
    res = validate(p, spec=TRANSCRIPT_SPEC)
    cids = sorted(res.violations["constraint_id"].to_pylist())
    assert cids == ["required:conv_id", "type:conv_id"], cids


def test_generator_shard_count_invariant(tmp_path):
    """Different n_files shardings produce the same logical corpus (row
    multiset) and identical golden violations."""
    a = generate_transcripts(str(tmp_path / "s2"), n_convs=60, n_files=2)
    b = generate_transcripts(str(tmp_path / "s5"), n_convs=60, n_files=5)

    def rows(gen):
        t = pa.concat_tables([pq.read_table(f) for f in gen.files])
        return sorted(map(tuple, zip(*[t[c].to_pylist()
                                       for c in t.column_names])), key=repr)

    assert rows(a) == rows(b)
    assert a.golden_violations.equals(b.golden_violations)


def test_generator_rejects_stale_shards(tmp_path):
    """Re-generating into a directory that holds shards from a DIFFERENT
    plan must rewrite them, not silently reuse them (plan-token guard)."""
    d = str(tmp_path / "reuse")
    generate_transcripts(d, n_convs=120, n_files=3)
    gen = generate_transcripts(d, n_convs=40, n_files=3)
    total = sum(pq.read_table(f).num_rows for f in gen.files)
    import numpy as np
    from jsonschema_validator_ray.sources.transcripts import conv_len
    expected = int(conv_len(np.arange(40, dtype=np.int64)).sum())
    # +1 row per cross-shard duplicated conversation (dup convs: c%101==17)
    assert abs(total - expected) <= 2


def test_partitioned_sigkill_resume(ray_session, corpus, tmp_path):
    """REAL kill -9 mid-run (not the max_partitions simulation): a child
    process running run_partitioned is SIGKILLed after its first partition
    commits; resuming in this process completes the job and the final
    violation set equals a clean single-shot run."""
    import signal
    import subprocess
    import sys
    import time as _time

    gen, spec = corpus
    out = str(tmp_path / "killed")
    spec_json = json.dumps(spec)
    child_code = f"""
import json, sys
sys.path.insert(0, {json.dumps(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))})
import ray
ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
from jsonschema_validator_ray.pipelines import run_partitioned
run_partitioned({json.dumps(gen.files)}, {json.dumps(out)},
                spec=json.loads({json.dumps(spec_json)}),
                files_per_partition=1, finalize_run=False)
"""
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)   # child owns a separate local cluster
    p = subprocess.Popen([sys.executable, "-c", child_code], env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    manifests = os.path.join(out, "manifests")
    deadline = _time.time() + 180
    try:
        while _time.time() < deadline:
            if os.path.isdir(manifests) and any(
                    f.endswith(".json") for f in os.listdir(manifests)):
                break
            if p.poll() is not None:
                break
            _time.sleep(0.25)
        else:
            raise AssertionError("child never committed a partition")
    finally:
        if p.poll() is None:
            p.send_signal(signal.SIGKILL)
        p.wait()
    done_before = len([f for f in os.listdir(manifests)
                       if f.endswith(".json")])
    assert done_before >= 1

    # resume in THIS process: completed partitions skip, rest run, finalize
    summary = run_partitioned(gen.files, out, spec=spec,
                              files_per_partition=1)
    assert summary["complete"] is True

    parts = sorted(os.listdir(os.path.join(out, "violations")))
    got = pa.concat_tables([
        pq.read_table(os.path.join(out, "violations", f)) for f in parts])
    clean = validate(gen.out_dir, spec=spec)
    assert rows(got) == rows(clean.violations)


def test_strategies_agree_on_random_corpora(ray_session, tmp_path):
    """validate() and the partitioned path (run_partitioned + read_violations)
    must produce IDENTICAL violation sets on randomized adversarial corpora
    (null keys, duplicate turn_idx, null ts, shuffled row order). Each corpus
    is shuffled across 3 files, so conversations straddle partitions and the
    finalize-time boundary merge and overlap re-check both run. Both run at
    the default batch size and at 16 rows a batch, where most conversations
    overlap and both take the keyed fallback."""
    import numpy as np
    from jsonschema_validator_ray.constraints.ir import TRANSCRIPT_SPEC
    from jsonschema_validator_ray.pipelines import read_violations

    def vrows(v):
        return sorted(zip(v["conv_id"].to_pylist(), v["turn_idx"].to_pylist(),
                          v["constraint_id"].to_pylist(),
                          v["message"].to_pylist()), key=repr)

    ir = compile_constraints(TRANSCRIPT_SPEC)
    rng = np.random.default_rng(77)
    rechecked = 0
    plans = set()
    for case in range(3):
        n = 400
        convs = rng.integers(0, 40, n)
        tid = rng.integers(0, 12, n).astype(object)
        tid[rng.random(n) < 0.05] = None
        ts_base = np.datetime64("2024-01-01T00:00:00", "us")
        ts = (ts_base + rng.integers(0, 10_000, n).astype("timedelta64[s]")) \
            .astype(object)
        ts[rng.random(n) < 0.05] = None
        conv_ids = np.array([f"c{c:04d}" for c in convs], dtype=object)
        conv_ids[rng.random(n) < 0.03] = None
        roles = rng.choice(["system", "user", "assistant", "tool", "oops"], n)
        t = pa.table({
            "conv_id": pa.array(conv_ids.tolist(), pa.string()),
            "turn_idx": pa.array([int(x) if x is not None else None
                                  for x in tid], pa.int32()),
            "role": pa.array(roles.tolist(), pa.string()),
            "text": pa.array(["x"] * n, pa.string()),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array(ts.tolist(), pa.timestamp("us")),
        })
        d = tmp_path / f"rand{case}"
        d.mkdir()
        shard = rng.integers(0, 3, n)
        files = []
        for k in range(3):
            files.append(str(d / f"part{k}.parquet"))
            pq.write_table(t.filter(pa.array(shard == k)), files[-1])
        want = None
        for batch_size in (65536, 16):
            single = validate(files, ir=ir, sketch=False,
                              batch_size=batch_size)
            plans.add((batch_size, single.metrics["wide_stage"]))
            out = str(tmp_path / f"out{case}-{batch_size}")
            summary = run_partitioned(files, out, ir=ir,
                                      files_per_partition=1,
                                      batch_size=batch_size)
            assert summary["complete"] is True
            rechecked += len(summary["overlap_rechecked_convs"])
            for m in os.listdir(os.path.join(out, "manifests")):
                with open(os.path.join(out, "manifests", m)) as f:
                    plans.add((batch_size,
                               json.load(f)["metrics"]["wide_stage"]))
            got = vrows(read_violations(out))
            assert got == vrows(single.violations), (case, batch_size)
            want = want or got
            assert got == want, (case, batch_size)
    assert rechecked > 0        # the overlap re-check path actually ran
    assert plans == {(65536, "local"), (16, "keyed")}


def test_read_violations_matches_single_shot(ray_session, corpus, tmp_path):
    """pipelines.read_violations reconstructs exactly the set finalize()
    counted — and a killed-then-resumed partitioned run yields the same
    violation rows as one unpartitioned validate()."""
    from jsonschema_validator_ray.pipelines import read_violations

    gen, spec = corpus
    ir = compile_constraints(spec)
    out = str(tmp_path / "rv")

    # un-finalized runs refuse (no summary.json yet)
    run_partitioned(gen.files, out, ir=ir, files_per_partition=1,
                    max_partitions=1)
    with pytest.raises(ValueError):
        read_violations(out)

    r = run_partitioned(gen.files, out, ir=ir, files_per_partition=1)
    assert r["complete"] is True
    viol = read_violations(out)
    assert viol.num_rows == r["n_violations"]
    single = validate(gen.out_dir, ir=ir)
    assert rows(viol) == rows(single.violations)


def test_finalize_removes_stale_cross_file(ray_session, corpus, tmp_path):
    """A part-cross.parquet left by an earlier finalize (e.g. under a
    previous IR) is removed/overwritten by the next finalize, so
    read_violations can never report phantom rows (review r5)."""
    from jsonschema_validator_ray.pipelines import read_violations

    gen, spec = corpus
    ir = compile_constraints(spec)
    out = str(tmp_path / "stale_cross")
    r1 = run_partitioned(gen.files, out, ir=ir, files_per_partition=1)
    assert r1["complete"] is True

    # plant a stale cross file (schema-compatible rows from a partition)
    cross = os.path.join(out, "violations", "part-cross.parquet")
    donor = pq.read_table(os.path.join(out, "violations",
                                       "part-00000.parquet"))
    planted = donor if donor.num_rows else pq.read_table(
        os.path.join(out, "violations", "part-00001.parquet"))
    pq.write_table(pa.concat_tables([planted] * 3), cross)

    # re-run: partitions all skip (manifests match), finalize recomputes
    r2 = run_partitioned(gen.files, out, ir=ir, files_per_partition=1)
    assert r2["complete"] is True
    viol = read_violations(out)
    assert viol.num_rows == r2["n_violations"] == r1["n_violations"]


def test_zero_row_file_validates_clean(ray_session, tmp_path):
    """A Parquet file with no rows gives an empty result, not a KeyError:
    Ray drops the schema of an all-empty map output, and validate() falls
    back to the combined schema."""
    from jsonschema_validator_ray.constraints.ir import TRANSCRIPT_SPEC

    path = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array([], pa.string()),
        "turn_idx": pa.array([], pa.int32()),
        "role": pa.array([], pa.string()),
        "text": pa.array([], pa.string()),
        "tool": pa.array([], pa.string()),
        "ts": pa.array([], pa.timestamp("us")),
    }), path)
    for kw in ({}, {"mode": "verdict", "sketch": False}):
        res = validate(path, spec=TRANSCRIPT_SPEC, **kw)
        assert res.violations.num_rows == 0, kw
        assert res.metrics["n_rows"] == 0, kw
