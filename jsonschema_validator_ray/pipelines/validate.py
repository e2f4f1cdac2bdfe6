"""The flagship pipeline: transcript-table constraint validation, Ray-Data-first.

Lifecycle (SURVEY.md §3.5; the analog of the reference's three entry points):

  1. DRIVER compile: spec → ConstraintIR (hash-stamped).
  2. ``read_parquet`` → ONE fused ``map_batches`` pass producing violation
     rows, per-batch partial sketches and each batch's own group check —
     its (conv_id, turn_idx, ts) rows sorted locally and checked for
     uniqueness + monotonicity, with one run record per conversation
     (stages/rowstage.py, stages/groupcheck.py). It is the only stage that
     touches full-width data, and it reads the input once.
  3. Driver: resolve the group check from the run records. Conversations
     whose runs follow one another merge exactly at their seams; the few
     whose runs overlap (duplicate rows in another file, a split at a
     duplicated turn) are re-checked exactly from their own rows, read
     with predicate pushdown, and their batch-local group rows are dropped.
     A ``Dataset`` source whose runs all follow one another is done here,
     as a file source is. The plan falls back to the keyed group check —
     a 3-column re-read shuffled on the group key by
     ``rayutil.bucket_groups``, every conversation checked whole in its
     bucket — when a ``Dataset`` source has any overlapping runs (no files
     to re-read) or when the overlapping conversations hold more than
     ``MAX_RECHECK_SHARE`` of the checked rows (input not clustered by
     conversation, or one hot conversation copied into another file).
     ``metrics`` records the plan taken (``wide_stage``), why it fell back
     and how many conversations and rows were re-checked.
  4. Driver: merge partial sketches → drift verdicts; verdict = no
     violations ∧ all drift checks pass.

``run_partitioned`` wraps this per input-file-group with lineage manifests
(input files, IR hash, metrics, serialized sketch + run records) so a
killed run resumes by skipping completed partitions; ``finalize`` resolves
the run records of all partitions together, exactly as step 3 does within
one call: boundary merge for conversations whose runs follow one another,
targeted re-check for those whose runs overlap.
"""

from __future__ import annotations

import base64
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..constraints.ir import ConstraintIR, compile_constraints
from ..constraints.kernels import VIOLATION_SCHEMA
from ..rayutil import bucket_groups, collect_partials, strip_meta
from ..stages.groupcheck import (RUN_BOUNDARY_SCHEMA, local_group_check,
                                 merge_run_boundaries, resolve_runs,
                                 split_overlapping_runs, stack_check_out)
from ..stages.rowstage import (COMBINED_SCHEMA, RowValidateAndSketch,
                               select_kind, split_combined,
                               split_group_check)
from ..state.sketches import SketchState

Source = Union[str, Sequence[str], "ray.data.Dataset"]  # noqa: F821

# The one-pass group check falls back to the keyed check when the driver
# would re-check more than this share of the checked rows: the rows of the
# conversations whose runs overlap, which the driver process alone reads
# back and holds. scripts/recheck_crossover.py (1 Ray CPU on a one-core
# host, 176,576 rows in 4 files, 65,536-row batches, the rows of a chosen
# share of conversations scattered over the files; medians of 4 runs of 5
# reps) measured whole calls, local vs keyed: 0.55 vs 0.87 s at 2%
# re-checked rows, 0.60 vs 0.93 s at 10%, 0.63 vs 0.93 s at 19%, 0.77 vs
# 0.99 s at 46% and 0.82 vs 1.06 s at 92%. On one CPU the local plan
# always wins. Its driver stage grows 0.04 -> 0.21 s in one process; the
# keyed stage's 0.36-0.41 s spreads over the cluster's CPUs, and spread
# evenly over 4 CPUs it passes the re-check between 19% and 46%. The bound
# stays below that crossing: the re-checked rows are driver memory.
MAX_RECHECK_SHARE = 0.10


@dataclass
class ValidationResult:
    violations: pa.Table
    sketch: SketchState
    drift: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    passed: bool = True
    boundaries: Optional[pa.Table] = None   # unmerged run boundaries (partitioned mode)


def _source_paths(source: Source) -> Optional[list]:
    """The Parquet files of a path source (a directory lists its
    ``*.parquet`` files, minus the generator's golden file), or None for a
    ``Dataset``."""
    if hasattr(source, "map_batches"):
        return None
    if isinstance(source, str) and os.path.isdir(source):
        return sorted(
            os.path.join(source, f) for f in os.listdir(source)
            if f.endswith(".parquet") and not f.startswith("golden"))
    if isinstance(source, str):
        return [source]
    return list(source)


def _dataset_from(source: Source, columns: Optional[list] = None,
                  target_block_bytes: int = 128 * 1024 * 1024,
                  blocks_per_cpu_floor: int = 2):
    """Read with blocks sized to the DATA, not the file count.

    The right block size is STAGE-dependent (measured at 70M turns, 32 cpus):
    the embarrassingly-parallel row stage wants many small blocks (~32 MB —
    64→256 blocks cut its wall 28 s → 10 s: long read tasks starve the map
    otherwise), while a shuffle's all-to-all cost grows with the block
    count, so the keyed group check's re-read takes few large ones (the
    128 MB default; 256 blocks made the range sort it replaced 25x slower).
    Callers pick via ``target_block_bytes`` / ``blocks_per_cpu_floor``.
    parquet compresses this corpus ~4x; sizing targets IN-MEMORY bytes."""
    import ray
    import ray.data

    paths = _source_paths(source)
    if paths is None:                           # already a Dataset
        return source.select_columns(columns) if columns else source
    total_bytes = 4 * sum(os.path.getsize(p) for p in paths)
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    nblocks = max(blocks_per_cpu_floor * cpus,
                  total_bytes // target_block_bytes + 1)
    # never split below ~2 MB/block: at tiny scale the per-cpu floor would
    # shatter a 10 MB corpus into 256 tasks of pure scheduling overhead
    # (measured: the sf0.01 driver gate paid ~20 s/query for 32k rows)
    nblocks = min(nblocks, max(cpus, total_bytes // (2 * 1024 * 1024) + 1))
    # read with an explicit METADATA-FREE schema: the corpus carries a
    # graft_plan resume token in its footer metadata, which makes pa.Schema
    # unhashable and defeats Ray's schema dedup in every unify — inside the
    # read op's block splitting and every shuffle reduce ('Failed to hash
    # the schemas' spam). One driver-side footer read buys clean blocks.
    from ..rayutil import clean_read_schema

    return ray.data.read_parquet(paths, columns=columns,
                                 schema=clean_read_schema(paths[0], columns),
                                 override_num_blocks=int(nblocks))


def _collect(ds) -> Optional[pa.Table]:
    """Materialize a SMALL dataset driver-side as one Arrow table (see
    ``rayutil.collect_partials``). One empty block is kept when every block
    is empty, so the caller still sees the stage's schema."""
    tables = collect_partials(ds, keep_empty=True)
    tables = [t for t in tables if t.num_rows] or tables[:1]
    return pa.concat_tables(tables, promote_options="default") if tables \
        else None


def _keyed_check(source: Source, gc) -> tuple[pa.Table, pa.Table]:
    """The fallback group check: a pruned 3-column re-read shuffled on the
    group key by ``bucket_groups``. Every conversation meets whole in one
    bucket, so ``local_group_check`` there is exact and emits one run
    record per conversation. Returns (final violations, run records)."""
    # ts is only projected when mono is checked: a unique-only spec must
    # not require (or cast) a ts column at all (review r4)
    cols = [gc.group_key, gc.order_by] + \
        ([gc.ts_column] if gc.check_mono else [])

    # rows with a null group/order key are excluded from group checks:
    # they already fired required/type kernels
    def drop_null_keys(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.and_(pc.is_valid(batch[gc.group_key]),
                                    pc.is_valid(batch[gc.order_by])))

    def per_bucket(rows: pa.Table) -> pa.Table:
        return stack_check_out(*local_group_check(rows, gc))

    out = _collect(bucket_groups(_dataset_from(source, columns=cols),
                                 gc.group_key, per_bucket,
                                 prepare=drop_null_keys))
    if out is None or "kind" not in out.column_names:
        # no bucket emitted rows: Ray loses the schema of an empty output
        return VIOLATION_SCHEMA.empty_table(), RUN_BOUNDARY_SCHEMA.empty_table()
    return (select_kind(out, "violation", VIOLATION_SCHEMA),
            select_kind(out, "boundary", RUN_BOUNDARY_SCHEMA))


def _group_check(source: Source, paths: Optional[list], combined: pa.Table,
                 gc, merge_boundaries_now: bool):
    """Resolve the row stage's one-pass group check, or fall back to the
    keyed group check (see the module docstring). Returns (group
    violations, run records, plan metrics). With
    ``merge_boundaries_now=False`` (partitioned mode) the batch-local rows
    and the raw run records are returned as they are: ``finalize`` resolves
    them across partitions."""
    plan = {"wide_stage": "local", "wide_stage_fallback": None,
            "rechecked_convs": 0, "rechecked_rows": 0}
    group, counted = split_group_check(combined)
    mergeable, overlap = split_overlapping_runs(counted)
    n_rows = pc.sum(counted["n_rows"]).as_py() or 0
    n_recheck = pc.sum(counted.filter(pc.is_in(
        counted["conv_id"], value_set=overlap))["n_rows"]).as_py() or 0
    if paths is None and len(overlap):
        plan["wide_stage_fallback"] = (
            f"dataset source: {len(overlap)} conversations with overlapping "
            f"runs and no files to re-read")
    elif n_recheck > MAX_RECHECK_SHARE * n_rows:
        plan["wide_stage_fallback"] = (
            f"{n_recheck} of {n_rows} rows in conversations with "
            f"overlapping runs (re-check bound {MAX_RECHECK_SHARE:.0%})")
    if plan["wide_stage_fallback"] is not None:
        viol, runs = _keyed_check(source, gc)
        return viol, runs, {**plan, "wide_stage": "keyed"}
    if merge_boundaries_now:
        group = resolve_runs(group, mergeable, overlap, gc,
                             lambda convs: _recheck_convs(paths, convs, gc))
        plan.update(rechecked_convs=len(overlap), rechecked_rows=n_recheck)
    return group, counted.select(RUN_BOUNDARY_SCHEMA.names), plan


def validate(source: Source, spec: Optional[dict] = None,
             ir: Optional[ConstraintIR] = None, *, mode: str = "enumerate",
             sketch: bool = True, batch_size: int = 65536,
             merge_boundaries_now: bool = True,
             out_dir: Optional[str] = None) -> ValidationResult:
    """Run the full validation pipeline. Ray must already be initialised.

    The row stage runs as plain tasks, not an actor pool: its setup (the
    constraint IR) is cheap, and tasks reuse warm workers with no pool
    ramp-up. It is the only Ray Data execution unless the group check falls
    back to the keyed check. ``boundaries`` (the run records) is returned
    only with ``merge_boundaries_now=False``, for ``finalize``."""
    from ..rayutil import ensure_worker_importable
    ensure_worker_importable()

    if ir is None:
        ir = compile_constraints(spec)
    gc = ir.group_check
    paths = _source_paths(source)

    # row stage: many small blocks (pipeline-friendly; see _dataset_from)
    ds = _dataset_from(source, target_block_bytes=32 * 1024 * 1024,
                       blocks_per_cpu_floor=8)
    t0 = time.perf_counter()
    stage = RowValidateAndSketch(ir, mode=mode, sketch=sketch)
    combined_t = _collect(ds.map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size))
    t_row = time.perf_counter() - t0
    if combined_t is None or "kind" not in combined_t.column_names:
        # zero input rows: Ray loses the schema of an all-empty map output
        combined_t = COMBINED_SCHEMA.empty_table()

    t_merge_start = time.perf_counter()
    violations, state, counters = split_combined(combined_t)
    viol_parts = [violations]
    boundaries = None
    plan = {"wide_stage": None, "wide_stage_fallback": None,
            "rechecked_convs": 0, "rechecked_rows": 0}
    t1 = time.perf_counter()
    if gc is not None:
        group, runs, plan = _group_check(
            source, paths, combined_t, gc, merge_boundaries_now)
        viol_parts.append(group)
        if not merge_boundaries_now:
            boundaries = runs
    t_wide = time.perf_counter() - t1
    all_viol = pa.concat_tables(viol_parts)

    drift = state.evaluate_drift(ir.drift_checks) if sketch else []
    # verdict mode materializes NO row-violation rows — the per-batch verdict
    # counters are the only trace of row-kernel failures, so fold them in
    passed = (all_viol.num_rows == 0
              and counters.get("n_row_violations", 0) == 0
              and all(d["passed"] for d in drift))

    if all_viol.num_rows:
        by_c = pa.TableGroupBy(all_viol, "constraint_id").aggregate(
            [("constraint_id", "count")])
        by_constraint = dict(zip(by_c["constraint_id"].to_pylist(),
                                 by_c["constraint_id_count"].to_pylist()))
    else:
        by_constraint = {}
    metrics = {
        **counters,
        "n_violations": int(all_viol.num_rows),
        "violations_by_constraint": {str(k): int(v)
                                     for k, v in by_constraint.items()},
        "wall_s": round(time.perf_counter() - t0, 3),
        "wall_row_stage_s": round(t_row, 3),
        # the keyed check on the fallback path; the driver-side seam merge
        # and re-check on the one-pass path
        "wall_wide_stage_s": round(t_wide, 3),
        "wall_driver_merge_s": round(
            time.perf_counter() - t_merge_start - t_wide, 3),
        **plan,
        "ir_hash": ir.ir_hash,
        "mode": mode,
    }

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        pq.write_table(all_viol, os.path.join(out_dir, "violations.parquet"))
        with open(os.path.join(out_dir, "summary.json"), "w") as f:
            json.dump({"metrics": metrics, "drift": drift, "passed": passed,
                       "sketch": state.summary()}, f, indent=2, default=str)

    return ValidationResult(violations=all_viol, sketch=state, drift=drift,
                            metrics=metrics, passed=passed, boundaries=boundaries)


# ---------------------------------------------------------------------------
# Partitioned, resumable execution with per-partition lineage manifests
# ---------------------------------------------------------------------------

def _partition_paths(out_dir: str, pid: int) -> tuple[str, str]:
    return (os.path.join(out_dir, "violations", f"part-{pid:05d}.parquet"),
            os.path.join(out_dir, "manifests", f"part-{pid:05d}.json"))


def run_partitioned(input_files: Sequence[str], out_dir: str,
                    spec: Optional[dict] = None, ir: Optional[ConstraintIR] = None,
                    *, files_per_partition: int = 1,
                    max_partitions: Optional[int] = None,
                    batch_size: int = 65536,
                    finalize_run: bool = True) -> dict:
    """Validate input files in resumable partitions.

    Each partition = a file group, processed with the full cluster's
    parallelism, producing ``violations/part-N.parquet`` +
    ``manifests/part-N.json`` (lineage: input files, IR hash, metrics,
    serialized sketch + boundary records, per-partition verdict). On re-run,
    partitions whose manifest exists with a matching IR hash are SKIPPED
    (``max_partitions`` limits work per call — used by resume tests to
    simulate a mid-run kill)."""
    if ir is None:
        ir = compile_constraints(spec)
    os.makedirs(os.path.join(out_dir, "violations"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)

    groups = [list(input_files[i:i + files_per_partition])
              for i in range(0, len(input_files), files_per_partition)]
    done = 0
    for pid, files in enumerate(groups):
        vpath, mpath = _partition_paths(out_dir, pid)
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            if m.get("ir_hash") == ir.ir_hash:
                continue  # completed under the same IR — resume skip
        if max_partitions is not None and done >= max_partitions:
            continue
        t0 = time.perf_counter()
        res = validate(files, ir=ir, batch_size=batch_size,
                       merge_boundaries_now=False)
        pq.write_table(res.violations, vpath)
        manifest = {
            "partition": pid,
            "input_files": files,
            "ir_hash": ir.ir_hash,
            "metrics": res.metrics,
            "verdict": bool(res.violations.num_rows == 0),
            "sketch_b64": res.sketch.to_b64(),
            "boundaries_b64": _table_b64(res.boundaries),
            "duration_s": round(time.perf_counter() - t0, 3),
        }
        tmp = mpath + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, mpath)  # manifest write is the atomic commit point
        done += 1

    if finalize_run and all(os.path.exists(_partition_paths(out_dir, pid)[1])
                            for pid in range(len(groups))):
        return finalize(out_dir, len(groups), ir)
    return {"complete": False, "partitions_done": sum(
        os.path.exists(_partition_paths(out_dir, p)[1]) for p in range(len(groups))),
        "partitions_total": len(groups)}


def _table_b64(tbl: Optional[pa.Table]) -> Optional[str]:
    if tbl is None:
        return None
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return base64.b64encode(sink.getvalue().to_pybytes()).decode()


def _table_from_b64(data: Optional[str]) -> Optional[pa.Table]:
    if not data:
        return None
    return pa.ipc.open_stream(base64.b64decode(data)).read_all()


def finalize(out_dir: str, n_partitions: int, ir: ConstraintIR) -> dict:
    """Merge partition manifests: sketches → drift verdicts; run records →
    cross-partition uniqueness/monotonicity, by the boundary merge for
    conversations whose runs follow one another and a targeted exact
    re-check for those whose runs overlap (``split_overlapping_runs``)."""
    gc = ir.group_check
    state = SketchState()
    all_bounds = []
    manifests = []
    for pid in range(n_partitions):
        _, mpath = _partition_paths(out_dir, pid)
        with open(mpath) as f:
            m = json.load(f)
        if m["ir_hash"] != ir.ir_hash:
            raise RuntimeError(
                f"partition {pid} has stale IR hash {m['ir_hash']} != {ir.ir_hash}"
                " — refuse to finalize (analog of 'Uninitialised schema')")
        manifests.append(m)
        state.merge(SketchState.from_b64(m["sketch_b64"]))
        b = _table_from_b64(m.get("boundaries_b64"))
        if b is not None and b.num_rows:
            all_bounds.append(b)

    cross_viol = VIOLATION_SCHEMA.empty_table()
    overlap_convs: list = []
    if gc is not None and all_bounds:
        mergeable, overlap = split_overlapping_runs(
            pa.concat_tables(all_bounds))
        overlap_convs = overlap.to_pylist()
        files = [f for m in manifests for f in m["input_files"]]
        cross_viol = pa.concat_tables([
            merge_run_boundaries(mergeable, gc),
            _recheck_convs(files, overlap_convs, gc)])

    part_viol = _cleaned_partition_violations(out_dir, n_partitions,
                                              overlap_convs)
    all_viol = pa.concat_tables([part_viol, cross_viol])
    cross_path = os.path.join(out_dir, "violations", "part-cross.parquet")
    # remove any PRIOR finalize's cross file first: a re-run under a new IR
    # that produces zero cross rows would otherwise leave the stale file
    # for read_violations to pick up as phantom violations (review r5)
    if os.path.exists(cross_path):
        os.unlink(cross_path)
    if cross_viol.num_rows:
        pq.write_table(cross_viol, cross_path)

    drift = state.evaluate_drift(ir.drift_checks)
    passed = all_viol.num_rows == 0 and all(d["passed"] for d in drift)
    summary = {
        "complete": True,
        "passed": bool(passed),
        "n_rows": state.n_rows,
        "n_violations": int(all_viol.num_rows),
        "n_partitions": n_partitions,
        "partition_verdicts": [bool(m["verdict"]) for m in manifests],
        "overlap_rechecked_convs": overlap_convs,
        "drift": drift,
        "sketch": state.summary(),
        "ir_hash": ir.ir_hash,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=str)
    return summary


def _recheck_convs(files: Sequence[str], convs: list, gc) -> pa.Table:
    """Exact in-memory group check for a small set of conversations, reading
    only their rows (predicate pushdown) from ``files``. Returns the
    DEFINITIVE group-check violations for those convs."""
    if not convs:
        return VIOLATION_SCHEMA.empty_table()
    cols = [gc.group_key, gc.order_by] + \
        ([gc.ts_column] if gc.check_mono else [])
    tables = [strip_meta(pq.read_table(f, columns=cols,
                                       filters=[(gc.group_key, "in", convs)]))
              for f in sorted(set(files))]
    # all of each conversation's rows are here: the local check is exact
    whole = pa.concat_tables(tables, promote_options="default")
    return local_group_check(whole, gc)[0]


def _cleaned_partition_violations(out_dir: str, n_partitions: int,
                                  overlap_convs: list) -> pa.Table:
    """Per-partition violation rows with group-check rows for
    overlap-rechecked conversations dropped (the recheck's exact rows,
    carried in the cross-partition file, supersede them)."""
    cleaned = []
    for pid in range(n_partitions):
        vpath, _ = _partition_paths(out_dir, pid)
        t = pq.read_table(vpath)
        if overlap_convs:
            is_group = pc.or_(
                pc.starts_with(t["constraint_id"], "mono:"),
                pc.starts_with(t["constraint_id"], "unique:"))
            drop = pc.and_(is_group, pc.is_in(
                t["conv_id"], value_set=pa.array(overlap_convs)))
            t = t.filter(pc.invert(drop))
        cleaned.append(t)
    return pa.concat_tables(cleaned)


def read_violations(out_dir: str) -> pa.Table:
    """Definitive violation table of a FINALIZED partitioned run — exactly
    the set ``finalize()`` counted in ``summary.json``: per-partition rows
    (minus group-check rows superseded by the overlap recheck) plus the
    cross-partition boundary/recheck rows. The single-shot equivalence
    contract (resume produces the same violations as one unpartitioned
    ``validate()`` run) is oracle-checked by the
    ``resume_validate_transcripts`` gate query."""
    spath = os.path.join(out_dir, "summary.json")
    if not os.path.exists(spath):
        raise ValueError(
            "read_violations needs a finalized run (no summary.json in "
            f"{out_dir!r}) — resume it with run_partitioned first")
    with open(spath) as f:
        s = json.load(f)
    if not s.get("complete"):
        raise ValueError(
            "read_violations needs a finalized run (summary.json reports "
            "complete=false) — resume it with run_partitioned first")
    part = _cleaned_partition_violations(
        out_dir, int(s["n_partitions"]),
        list(s.get("overlap_rechecked_convs") or []))
    cross = os.path.join(out_dir, "violations", "part-cross.parquet")
    if os.path.exists(cross):
        part = pa.concat_tables([part, pq.read_table(cross)])
    return part
