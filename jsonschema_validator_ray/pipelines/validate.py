"""The flagship pipeline: transcript-table constraint validation, Ray-Data-first.

Lifecycle (SURVEY.md §3.5; the analog of the reference's three entry points):

  1. DRIVER compile: spec → ConstraintIR (hash-stamped).
  2. ``read_parquet`` → ONE fused ``map_batches`` pass producing violation
     rows + per-batch partial sketches (stages/rowstage.py) — the only stage
     that touches full-width data, and it reads the input once.
  3. Wide stage over a 3-column projection: a range sort on (conv_id,
     turn_idx) and one vectorized sorted-run pass per block for uniqueness
     + monotonicity (stages/groupcheck.py). The range partitioner splits hot
     conversations across blocks; the boundary merge restores exactness.
  4. Driver: merge partial sketches → drift verdicts; merge run boundaries →
     cross-split violations; verdict = no violations ∧ all drift checks pass.

``run_partitioned`` wraps this per input-file-group with lineage manifests
(input files, IR hash, metrics, serialized sketch + boundary state) so a
killed run resumes by skipping completed partitions; cross-partition
uniqueness/monotonicity is restored at finalize via the boundary merge plus a
targeted re-check of the (rare) conversations whose turn ranges overlap
between partitions.
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
from ..constraints.kernels import VIOLATION_SCHEMA, group_check_table
from ..rayutil import collect_partials, strip_meta
from ..stages.groupcheck import SortedRunChecker, merge_run_boundaries
from ..stages.rowstage import RowValidateAndSketch, split_combined
from ..state.sketches import SketchState

Source = Union[str, Sequence[str], "ray.data.Dataset"]  # noqa: F821


@dataclass
class ValidationResult:
    violations: pa.Table
    sketch: SketchState
    drift: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    passed: bool = True
    boundaries: Optional[pa.Table] = None   # unmerged run boundaries (partitioned mode)


def _dataset_from(source: Source, columns: Optional[list] = None,
                  target_block_bytes: int = 128 * 1024 * 1024,
                  blocks_per_cpu_floor: int = 2):
    """Read with blocks sized to the DATA, not the file count.

    The right block size is STAGE-dependent (measured at 70M turns, 32 cpus):
    the embarrassingly-parallel row stage wants many small blocks (~32 MB —
    64→256 blocks cut its wall 28 s → 10 s: long read tasks starve the map
    otherwise), while the wide stage's sort shuffle pays superlinear per-block
    overhead and wants few large ones (~128 MB — 256 blocks blew its wall up
    25x). Callers pick via ``target_block_bytes`` / ``blocks_per_cpu_floor``.
    parquet compresses this corpus ~4x; sizing targets IN-MEMORY bytes."""
    import ray
    import ray.data

    if hasattr(source, "map_batches"):          # already a Dataset
        return source.select_columns(columns) if columns else source
    if isinstance(source, str) and os.path.isdir(source):
        paths = sorted(
            os.path.join(source, f) for f in os.listdir(source)
            if f.endswith(".parquet") and not f.startswith("golden"))
    elif isinstance(source, str):
        paths = [source]
    else:
        paths = list(source)
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


def _wide_stage(source: Source, gc,
                merge_boundaries_now: bool) -> Optional[pa.Table]:
    """Uniqueness + monotonicity over a pruned 3-column re-read: a global
    range sort on (group_key, order_by), then one vectorized
    ``SortedRunChecker`` pass per sorted block. The range partitioner splits
    hot conversations at block granularity; the driver-side boundary merge
    restores exact semantics across the splits."""
    # ts is only projected when mono is checked: a unique-only spec must
    # not require (or cast) a ts column at all (review r4)
    cols = [gc.group_key, gc.order_by] + \
        ([gc.ts_column] if gc.check_mono else [])
    gds = _dataset_from(source, columns=cols)  # pruned second read

    # rows with a null group/order key are excluded from group checks (they
    # already fired required/type kernels) — and Ray's sort key comparators
    # cannot order None against strings anyway
    def _drop_null_keys(batch: pa.Table) -> pa.Table:

        # strip_meta: metadata-carrying schemas are unhashable and defeat
        # Ray's schema dedup inside the downstream sort shuffle
        return strip_meta(batch).filter(
            pc.and_(pc.is_valid(batch[gc.group_key]),
                    pc.is_valid(batch[gc.order_by])))

    sds = gds.map_batches(_drop_null_keys, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .sort([gc.group_key, gc.order_by])
    # edges-only boundaries suffice within one sorted stream; the
    # partitioned runner needs every run's record for cross-partition
    # overlap detection (independently sorted partitions)
    checker = SortedRunChecker(
        gc, boundary_mode="edges" if merge_boundaries_now else "all")
    return _collect(sds.map_batches(checker, batch_format="pyarrow",
                                    zero_copy_batch=True))


def validate(source: Source, spec: Optional[dict] = None,
             ir: Optional[ConstraintIR] = None, *, mode: str = "enumerate",
             sketch: bool = True, batch_size: int = 65536,
             merge_boundaries_now: bool = True,
             out_dir: Optional[str] = None) -> ValidationResult:
    """Run the full validation pipeline. Ray must already be initialised.

    The row stage runs as plain tasks, not an actor pool: its setup (the
    constraint IR) is cheap, and tasks reuse warm workers with no pool
    ramp-up. The row and wide stages run one after the other: overlapping
    them on a CPU-saturated node was measured zero-sum."""
    from ..rayutil import ensure_worker_importable
    ensure_worker_importable()

    if ir is None:
        ir = compile_constraints(spec)
    gc = ir.group_check

    # row stage: many small blocks (pipeline-friendly; see _dataset_from)
    ds = _dataset_from(source, target_block_bytes=32 * 1024 * 1024,
                       blocks_per_cpu_floor=8)
    t0 = time.perf_counter()
    stage = RowValidateAndSketch(ir, mode=mode, sketch=sketch)
    combined_t = _collect(ds.map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size))
    t_row = time.perf_counter() - t0
    t1 = time.perf_counter()
    out_t = _wide_stage(source, gc, merge_boundaries_now) \
        if gc is not None else None
    t_wide = time.perf_counter() - t1

    t_merge_start = time.perf_counter()
    violations, state, counters = split_combined(combined_t)
    viol_parts = [violations]
    boundaries = None
    if out_t is not None and "kind" not in out_t.column_names:
        # all blocks emitted empty tables: Ray loses the schema of an
        # all-empty map output — semantically there is no wide-stage output
        out_t = None
    if out_t is not None:
        gv = out_t.filter(pc.equal(out_t["kind"], "violation"))
        viol_parts.append(pa.table(
            {n: gv[n] for n in VIOLATION_SCHEMA.names}, schema=VIOLATION_SCHEMA))
        boundaries = out_t.filter(pc.equal(out_t["kind"], "boundary")) \
            .drop_columns(["kind", "turn_idx", "constraint_id", "message"])
        if merge_boundaries_now:
            viol_parts.append(merge_run_boundaries(boundaries, gc))
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
        "wall_wide_stage_s": round(t_wide, 3),
        "wall_driver_merge_s": round(time.perf_counter() - t_merge_start, 3),
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
    """Merge partition manifests: sketches → drift verdicts; run boundaries →
    cross-partition uniqueness/monotonicity; targeted exact re-check for
    conversations whose turn ranges overlap across partitions."""
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
        bounds = pa.concat_tables(all_bounds)
        # detect convs whose runs OVERLAP in turn ranges across partitions —
        # boundary records alone can't resolve those; re-check them exactly
        srt = bounds.sort_by([("conv_id", "ascending"), ("first_tid", "ascending")])
        conv = srt["conv_id"].to_pylist()
        ft = srt["first_tid"].to_pylist()
        lt = srt["last_tid"].to_pylist()
        overlap = set()
        run_max = None
        for i in range(len(conv)):
            if i and conv[i] == conv[i - 1]:
                if ft[i] < run_max:   # strictly inside a prior run's range
                    overlap.add(conv[i])
                run_max = max(run_max, lt[i])
            else:
                run_max = lt[i]
        overlap_convs = sorted(overlap)
        if overlap:
            keep = pa.array([c not in overlap for c in conv])
            cross_viol = merge_run_boundaries(srt.filter(keep), gc)
            recheck = _recheck_convs(manifests, overlap_convs, gc)
            cross_viol = pa.concat_tables([cross_viol, recheck])
        else:
            cross_viol = merge_run_boundaries(bounds, gc)

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


def _recheck_convs(manifests: list, convs: list, gc) -> pa.Table:
    """Exact in-memory group check for a small set of conversations, reading
    only their rows (predicate pushdown) from the partitions that contain
    them. Returns the DEFINITIVE group-check violations for those convs."""
    files = []
    for m in manifests:
        files.extend(m["input_files"])
    tables = []
    cols = [gc.group_key, gc.order_by, gc.ts_column]
    for f in sorted(set(files)):
        t = pq.read_table(f, columns=cols,
                          filters=[(gc.group_key, "in", list(convs))])
        if t.num_rows:
            tables.append(t)
    if not tables:
        return VIOLATION_SCHEMA.empty_table()
    whole = pa.concat_tables(tables)
    parts = []
    for c in convs:
        g = whole.filter(pc.equal(whole[gc.group_key], c))
        if g.num_rows:
            parts.append(group_check_table(g, gc))
    return pa.concat_tables(parts) if parts else VIOLATION_SCHEMA.empty_table()


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
