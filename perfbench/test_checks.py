"""Tests of the benchmark's own correctness checks, on a tiny corpus: each
check accepts the engine's true output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (ROOT, HERE) if p not in sys.path]

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import run as bench  # noqa: E402
from spans import RayDataExecutions, Tracer  # noqa: E402

N_CONVS = 300


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from jsonschema_validator_ray.sources import (generate_transcripts,
                                                  reference_stats,
                                                  spec_with_drift)

    gen = generate_transcripts(str(tmp_path_factory.mktemp("corpus")),
                               n_convs=N_CONVS, n_files=2, workers=1)
    spec = spec_with_drift(reference_stats(N_CONVS))
    planted = bench.planted_conv_ids(7, N_CONVS)
    want = oracle.compute(gen.files, pa.table({"conv_id": planted}),
                          {"violations", "sessionize_counts", "adjacent_pairs",
                           "conv_dedup"})
    return gen, spec, planted, want


@pytest.fixture(scope="module")
def ray_session(tmp_path_factory):
    prior = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + prior if prior else "")
    session = bench.RaySession(str(tmp_path_factory.mktemp("ray")))
    session.start()
    try:
        yield session
    finally:
        session.stop()


def _read(files, cols):
    import ray.data

    return ray.data.read_parquet(files, columns=cols)


def test_sql_oracle_matches_golden(corpus):
    gen, _, _, want = corpus
    assert oracle.check_violations(want["violations"], want["violations"],
                                   gen.golden_violations) == []


def test_violation_and_validate_checks(ray_session, corpus):
    from jsonschema_validator_ray.pipelines import validate

    gen, spec, _, want = corpus
    res = validate(gen.files, spec=spec)
    golden = gen.golden_violations
    assert oracle.check_violations(res.violations, want["violations"],
                                   golden) == []
    assert oracle.check_validate(res.metrics, res.drift, want["n_rows"]) == []

    dropped = res.violations.slice(1)
    errs = oracle.check_violations(dropped, want["violations"], golden)
    assert len(errs) == 2 and "vs SQL" in errs[0] and "vs golden" in errs[1]
    changed = res.violations.set_column(
        2, "constraint_id",
        pa.array(["enum:role"] * res.violations.num_rows, pa.string()))
    assert oracle.check_violations(changed, want["violations"], golden)
    assert oracle.check_validate(res.metrics, res.drift, want["n_rows"] + 1)
    drifted = [dict(res.drift[0], passed=False)] + res.drift[1:]
    assert oracle.check_validate(res.metrics, drifted, want["n_rows"])


def test_verdict_check(ray_session, corpus):
    from jsonschema_validator_ray.pipelines import validate

    gen, spec, _, want = corpus
    res = validate(gen.files, spec=spec, mode="verdict", sketch=False)
    assert oracle.check_verdict(res.passed, res.metrics, want["violations"],
                                want["n_rows"]) == []
    assert oracle.check_verdict(True, res.metrics, want["violations"],
                                want["n_rows"])


def test_resume_checks(ray_session, corpus, tmp_path):
    from jsonschema_validator_ray.pipelines import (read_violations,
                                                    run_partitioned)

    gen, spec, _, want = corpus
    files = bench.resume_order(3, gen.files)
    out = str(tmp_path / "run")
    stopped = run_partitioned(files, out, spec=spec, max_partitions=1)
    before = oracle.manifest_snapshot(out)
    assert oracle.check_stopped(stopped, before, 1, 2) == []
    assert oracle.check_stopped(stopped, {}, 1, 2)           # manifest missing
    assert oracle.check_stopped(dict(stopped, complete=True), before, 1, 2)

    summary = run_partitioned(files, out, spec=spec)
    after = oracle.manifest_snapshot(out)
    n_viol = want["violations"].num_rows
    assert oracle.check_resumed(summary, before, after, 2, want["n_rows"],
                                n_viol) == []
    lost = dict(after)
    lost.pop(sorted(before)[0])
    assert oracle.check_resumed(summary, before, lost, 2, want["n_rows"],
                                n_viol)
    os.unlink(os.path.join(out, "manifests", sorted(after)[-1]))
    assert oracle.check_resumed(summary, before,
                                oracle.manifest_snapshot(out), 2,
                                want["n_rows"], n_viol)

    got = read_violations(out)
    assert oracle.check_violations(got, want["violations"],
                                   gen.golden_violations) == []
    assert oracle.check_violations(got.slice(1), want["violations"],
                                   gen.golden_violations)


def test_session_check(ray_session, corpus):
    from jsonschema_validator_ray.ops.aggregates import sessionize_counts

    gen, _, _, want = corpus
    got = sessionize_counts(_read(gen.files, ["conv_id", "ts", "turn_idx"]),
                            "conv_id", "ts", "turn_idx")
    assert oracle.check_sessions(got, want["sessionize_counts"]) == []
    counts = got["n_sessions"].to_pylist()
    counts[0] += 1
    changed = got.set_column(1, "n_sessions", pa.array(counts, pa.int64()))
    assert oracle.check_sessions(changed, want["sessionize_counts"])


def test_pairs_check(ray_session, corpus):
    from jsonschema_validator_ray.ops.aggregates import adjacent_pairs

    gen, _, _, want = corpus
    got = bench.collect(adjacent_pairs(
        _read(gen.files, ["conv_id", "turn_idx", "role", "text"]),
        "conv_id", "turn_idx", "role", "user", "assistant", "text"))
    assert oracle.check_pairs(got, want["adjacent_pairs"]) == []
    assert oracle.check_pairs(got.slice(1), want["adjacent_pairs"])


def test_conv_dedup_check(ray_session, corpus):
    from jsonschema_validator_ray.ops.aggregates import render_conversations
    from jsonschema_validator_ray.ops.dedup import exact_dedup_keepers

    gen, _, planted, want = corpus
    ds = bench.plant_duplicates(
        _read(gen.files, ["conv_id", "turn_idx", "role", "text"]), planted)
    got = bench.collect(exact_dedup_keepers(
        render_conversations(ds, "conv_id", "turn_idx", "role", "text"),
        "conv_id", "rendered"))
    assert oracle.check_conv_dedup(got, want["conv_dedup"]) == []
    assert pc.max(got["n_copies"]).as_py() == 2
    ones = got.set_column(got.schema.get_field_index("n_copies"), "n_copies",
                          pa.array([1] * got.num_rows, pa.int64()))
    assert oracle.check_conv_dedup(ones, want["conv_dedup"])


def test_seeded_choices(corpus):
    gen = corpus[0]
    order = bench.resume_order(5, gen.files)
    assert sorted(order) == sorted(gen.files)
    biggest = max(gen.files, key=lambda f: os.path.getsize(f))
    assert order[0] == biggest
    a, b = bench.planted_conv_ids(1, N_CONVS), bench.planted_conv_ids(2, N_CONVS)
    assert a == bench.planted_conv_ids(1, N_CONVS) and a != b
    assert len(a) == N_CONVS // bench.DUP_EVERY and "c00000001" not in a


def test_span_self_time_and_execution_records(tmp_path):
    import json
    import logging

    tracer = Tracer("t")
    with tracer.span("outer") as outer:
        pass
    outer["start"], outer["end"] = 0.0, 10.0
    tracer.add_child(outer, "a", 1.0, 4.0)
    tracer.add_child(outer, "b", 3.0, 6.0)      # overlaps a: counted once
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    spans = json.loads(path.read_text())["spans"]
    assert spans[0]["self_s"] == pytest.approx(5.0)

    rec = RayDataExecutions()
    logger = logging.getLogger("ray.data.test_checks")
    rec.install()
    try:
        logger.info("Starting execution of Dataset dataset_3_0. Full logs "
                    "are in /x")
        logger.info("✔️  Dataset dataset_3_0 execution finished in 0.25 "
                    "seconds")
    finally:
        rec.remove()
    (got,) = rec.drain()
    assert got[0] == "dataset_3_0" and got[3] == 0.25 and got[2] >= got[1]
