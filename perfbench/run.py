#!/usr/bin/env python3
"""Benchmark of the jsonschema_validator_ray engine.

    python3 perfbench/run.py --workload validate_flagship --seed 1 \\
        --seconds 10 --trace 0

Three workloads run over one deterministic transcript corpus made by
``sources.generate_transcripts`` (injection on, undrifted, several files):

- ``validate_flagship``: ``validate()`` in enumerate mode on the default
  strategy, then ``validate(mode="verdict", sketch=False)``;
- ``resume_partitioned``: ``run_partitioned`` stopped after half its
  partitions, resumed, then ``read_violations``;
- ``transcript_prep``: ``sessionize_counts``, ``adjacent_pairs`` and
  ``render_conversations`` into ``exact_dedup_keepers`` over the corpus read
  with plain ``ray.data.read_parquet``.

Every output is checked against DuckDB SQL over the same files (and the
generator's golden violations). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics and writes the span
file under ``.perfbench-traces/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("validate_flagship", "resume_partitioned", "transcript_prep")
RAY_CPUS = 1                     # constant: block/bucket counts derive from it
OBJECT_STORE_BYTES = 512 << 20
N_CONVS = 4_000                  # one hot conversation, in the first file
N_FILES = 4
DUP_EVERY = 10                   # one conversation in ten is re-ingested
SETUP_REPS = 3
# Ray's AF_UNIX sockets live under <temp>/session_<stamp>_<pid>/sockets/ and
# must stay within 107 bytes; a longer run directory leaves Ray its default.
MAX_RAY_TEMP_LEN = 40


def log(*parts) -> None:
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def pin_environment() -> None:
    """Fixed CPU budget, default engine knobs, repo importable by workers.
    Must run before numpy, pyarrow or Ray are imported."""
    os.environ["OMP_NUM_THREADS"] = "1"
    for key in [k for k in os.environ if k.startswith("GRAFT_")]:
        del os.environ[key]
    prior = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + prior if prior else "")
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


# ---------------------------------------------------------------------------
# process-level helpers
# ---------------------------------------------------------------------------

class RaySession:
    """Starts and stops the local Ray node; ``stop`` waits for every process
    the node started."""

    def __init__(self, run_dir: str):
        temp = os.path.join(run_dir, "ray")
        self.temp_dir = temp if len(temp) <= MAX_RAY_TEMP_LEN else None

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        kwargs = dict(address="local", num_cpus=RAY_CPUS, num_gpus=0,
                      include_dashboard=False, logging_level="ERROR",
                      log_to_driver=False,
                      object_store_memory=OBJECT_STORE_BYTES)
        if self.temp_dir:
            kwargs["_temp_dir"] = self.temp_dir
        ray.init(**kwargs)
        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray
        import psutil          # Ray's bundled copy: import Ray first

        if not ray.is_initialized():
            return
        t0 = time.perf_counter()
        kids = psutil.Process().children(recursive=True)
        ray.shutdown()
        _, alive = psutil.wait_procs(kids, timeout=20)
        for p in alive:
            p.kill()
        psutil.wait_procs(alive, timeout=10)
        log(f"ray stopped in {time.perf_counter() - t0:.2f} s"
            + (f", killed {len(alive)} lingering processes" if alive else ""))


class PeakRss:
    """Peak resident memory of this process, sampled every few ms between
    ``start`` and ``stop``."""

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = interval_s
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _rss(self, fd: int) -> int:
        return int(os.pread(fd, 256, 0).split()[1]) * self._page

    def _loop(self) -> None:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
        try:
            while not self._stop.is_set():
                self.peak = max(self.peak, self._rss(fd))
                self._stop.wait(self.interval_s)
            self.peak = max(self.peak, self._rss(fd))
        finally:
            os.close(fd)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak / (1 << 20)


def tree_cpu_s() -> float:
    """User plus system CPU seconds of this process and of the Ray worker
    processes under it, which run every task. Time the host steals from
    this VM is not in it, and neither is the Ray node's own periodic
    background work (raylet, GCS, agents), which grows with wall time
    rather than with the work done."""
    import ray  # noqa: F401
    import psutil          # Ray's bundled copy: import Ray first

    total = time.process_time()          # all threads, ns resolution
    for p in psutil.Process().children(recursive=True):
        try:
            if not p.name().startswith("ray::"):
                continue
            t = p.cpu_times()
        except psutil.Error:
            continue
        total += t.user + t.system
    return total


def host_cpu_times() -> list:
    """The host's aggregate CPU jiffies from /proc/stat (user, nice,
    system, idle, iowait, irq, softirq, steal, ...): the stolen share tells
    a slow run on a busy host from a slow program."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, names in os.walk(path) for f in names)


def collect(ds):
    """Driver-side Arrow table of a Dataset's result (one execution)."""
    import pyarrow as pa
    import ray

    blocks = ray.get(ds.materialize().to_arrow_refs())
    blocks = [b for b in blocks if b.num_rows] or blocks[:1]
    return pa.concat_tables(blocks, promote_options="default")


# ---------------------------------------------------------------------------
# seeded benchmark-side choices (the generator itself has no seed)
# ---------------------------------------------------------------------------

def planted_conv_ids(seed: int, n_convs: int) -> list:
    """Conversations re-ingested as ``'dup-' || conv_id``: one in
    ``DUP_EVERY``, drawn by the seed from the ordinary (non-hot)
    conversations, so every seed re-ingests the same amount of work."""
    import numpy as np

    from jsonschema_validator_ray.sources.transcripts import HOT_LEN, conv_len

    idx = np.arange(n_convs, dtype=np.int64)
    ordinary = idx[conv_len(idx) < HOT_LEN]
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(ordinary, n_convs // DUP_EVERY, replace=False))
    return [f"c{int(c):08d}" for c in pick]


def resume_order(seed: int, files: list) -> list:
    """Input-file order for the partitioned run; the first half is what the
    stopped call commits. The largest file (the one holding the hot
    conversation) always comes first and the seed orders the rest, so the
    stop point moves with the seed while each call's turn count does not."""
    import numpy as np
    import pyarrow.parquet as pq

    by_rows = sorted(files, key=lambda f: (-pq.ParquetFile(f).metadata.num_rows,
                                           f))
    rest = by_rows[1:]
    np.random.default_rng(seed).shuffle(rest)
    return by_rows[:1] + rest


def plant_duplicates(ds, conv_ids: list):
    """``ds`` with the rows of ``conv_ids`` re-ingested under ``'dup-' ||
    conv_id``, appended batch by batch in one read pass (the closure is
    pickled by value for the workers)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    wanted = pa.array(conv_ids, pa.string())

    def with_dups(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.is_in(batch["conv_id"], value_set=wanted))
        renamed = pc.binary_join_element_wise(
            pa.scalar("dup-"), sel["conv_id"].cast(pa.string()),
            pa.scalar(""))
        sel = sel.set_column(sel.schema.get_field_index("conv_id"),
                             "conv_id", renamed)
        return pa.concat_tables([batch, sel])

    return ds.map_batches(with_dups, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# operation bookkeeping
# ---------------------------------------------------------------------------

class RoundAbort(Exception):
    """An operation raised: the rest of its round cannot run."""


class Ops:
    """Runs, times and checks the engine calls of the timed rounds."""

    def __init__(self, tracer, executions):
        self.tracer = tracer
        self.executions = executions      # RayDataExecutions or None
        self.attempted = 0
        self.failed = 0
        self.walls: dict = {}
        self.cpus: dict = {}
        self.calls: dict = {}             # name -> [span, ...] (traced)

    def run(self, name: str, fn, check):
        self.attempted += 1
        if self.executions is not None:
            self.executions.drain()
        c0 = tree_cpu_s()
        with self.tracer.span(name) as sp:
            t0 = time.perf_counter()
            try:
                value = fn()
            except Exception:
                self.failed += 1
                log(f"{name} raised:\n{traceback.format_exc()}")
                raise RoundAbort(name)
            wall = time.perf_counter() - t0
        cpu = tree_cpu_s() - c0
        if self.executions is not None:
            self.tracer.attach_executions(sp, self.executions.drain())
            self.calls.setdefault(name, []).append(sp)
        try:
            errs = check(value)
        except Exception as e:            # a malformed output is a miss
            errs = [f"check raised {e!r}"]
        if errs:
            self.failed += 1
            log(f"{name} check failed: " + "; ".join(errs))
        else:
            self.walls.setdefault(name, []).append(wall)
            self.cpus.setdefault(name, []).append(cpu)
        return value

    def total(self, series: dict, names) -> float:
        """Sum of the named calls' medians: one round's cost, where a stall
        that hits one call does not move the other calls' samples."""
        if not all(series.get(n) for n in names):
            raise RuntimeError(f"no successful call of {names}: nothing to "
                               "report")
        return sum(median(series[n]) for n in names)

    def finish_round(self, attempted_before: int, per_round: int) -> None:
        """Count the operations an aborted round never reached as attempted
        and failed, so every round counts the same number of operations."""
        missing = attempted_before + per_round - self.attempted
        self.attempted += missing
        self.failed += missing


def timed_rounds(seconds: float, round_fn, ops: Ops, per_round: int) -> int:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        before = ops.attempted
        try:
            round_fn(r)
        except RoundAbort:
            pass
        ops.finish_round(before, per_round)
        r += 1
        if time.perf_counter() >= t_end:
            return r


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Context:
    """What set-up hands the timed rounds."""

    def __init__(self, run_dir, tracer, planted):
        self.run_dir = run_dir
        self.tracer = tracer
        self.planted = planted       # conv_ids re-ingested as duplicates
        self.gen = None
        self.files: list = []
        self.resume_files: list = []
        self.ir = None
        self.oracle: dict = {}
        self.layer: dict = {}        # per-layer samples gathered in rounds

    def note(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)


class ValidateFlagship:
    oracles = {"violations"}
    per_round = 2
    headline = ("pipelines.validate",)
    step = ("pipelines.verdict",)

    def warmup(self, ctx) -> None:
        from jsonschema_validator_ray.pipelines import validate

        validate(ctx.files[:1], ir=ctx.ir)
        validate(ctx.files[:1], ir=ctx.ir, mode="verdict", sketch=False)

    def round(self, ctx, ops: Ops, r: int) -> None:
        from oracle import check_validate, check_verdict, check_violations
        from jsonschema_validator_ray.pipelines import validate

        o, golden = ctx.oracle, ctx.gen.golden_violations
        res = ops.run(
            "pipelines.validate", lambda: validate(ctx.files, ir=ctx.ir),
            lambda v: check_violations(v.violations, o["violations"], golden)
            + check_validate(v.metrics, v.drift, o["n_rows"]))
        m = res.metrics
        ctx.note("pipelines.row_stage_s", m["wall_row_stage_s"])
        ctx.note("pipelines.wide_stage_s", m["wall_wide_stage_s"])
        ctx.note("pipelines.driver_merge_s", m["wall_driver_merge_s"])
        ops.run("pipelines.verdict",
                lambda: validate(ctx.files, ir=ctx.ir, mode="verdict",
                                 sketch=False),
                lambda v: check_verdict(v.passed, v.metrics,
                                        o["violations"], o["n_rows"]))

    def layers(self, ctx, ops: Ops) -> dict:
        out = {"pipelines.validate_s":
               median(ops.walls.get("pipelines.validate")),
               "pipelines.verdict_s":
               median(ops.walls.get("pipelines.verdict"))}
        for k in ("row_stage_s", "wide_stage_s", "driver_merge_s"):
            out["pipelines." + k] = median(ctx.layer.get("pipelines." + k))
        out.update(_execution_stats(ctx, ops, "pipelines.validate",
                                    "pipelines.ray_executions",
                                    "pipelines.ray_exec_s"))
        out.update(in_process_layers(ctx))
        return out


class ResumePartitioned:
    oracles = {"violations"}

    def __init__(self, traced: bool):
        self.traced = traced
        # traced runs split the resume into finalize_run=False + finalize()
        resume = ("pipelines.run_partitioned_resume",) \
            + (("pipelines.finalize",) if traced else ())
        self.step = resume + ("pipelines.read_violations",)
        self.headline = ("pipelines.run_partitioned_killed",) + self.step
        self.per_round = len(self.headline)

    def warmup(self, ctx) -> None:
        from jsonschema_validator_ray.pipelines import (read_violations,
                                                        run_partitioned)

        out = os.path.join(ctx.run_dir, "resume-warmup")
        run_partitioned(ctx.files[:1], out, ir=ctx.ir)
        read_violations(out)
        shutil.rmtree(out)

    def round(self, ctx, ops: Ops, r: int) -> None:
        out = os.path.join(ctx.run_dir, f"resume-{r}")
        try:
            self._cycle(ctx, ops, r, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _cycle(self, ctx, ops: Ops, r: int, out: str) -> None:
        from oracle import (check_resumed, check_stopped, check_violations,
                            manifest_snapshot)
        from jsonschema_validator_ray.pipelines import (finalize,
                                                        read_violations,
                                                        run_partitioned)

        files, ir, o = ctx.resume_files, ctx.ir, ctx.oracle
        n, half = len(files), len(files) // 2
        ops.run(
            "pipelines.run_partitioned_killed",
            lambda: run_partitioned(files, out, ir=ir, max_partitions=half),
            lambda s: check_stopped(s, manifest_snapshot(out), half, n))
        before = manifest_snapshot(out)

        def resumed(s):
            return check_resumed(s, before, manifest_snapshot(out), n,
                                 o["n_rows"], o["violations"].num_rows)

        if self.traced:
            ops.run(
                "pipelines.run_partitioned_resume",
                lambda: run_partitioned(files, out, ir=ir,
                                        finalize_run=False),
                lambda s: [] if s.get("partitions_done") == n else
                [f"resume committed {s.get('partitions_done')} of {n}"])
            summary = ops.run("pipelines.finalize",
                              lambda: finalize(out, n, ir), resumed)
        else:
            summary = ops.run(
                "pipelines.run_partitioned_resume",
                lambda: run_partitioned(files, out, ir=ir), resumed)
        ops.run(
            "pipelines.read_violations", lambda: read_violations(out),
            lambda v: check_violations(v, o["violations"],
                                       ctx.gen.golden_violations))
        ctx.note("pipelines.checkpoint_mb", dir_bytes(out) / (1 << 20))
        ctx.note("pipelines.manifest_mb",
                 dir_bytes(os.path.join(out, "manifests")) / (1 << 20))
        ctx.note("pipelines.partitions_skipped",
                 sum(1 for k, v in before.items()
                     if manifest_snapshot(out).get(k) == v))
        ctx.note("pipelines.overlap_rechecked_convs",
                 len(summary.get("overlap_rechecked_convs") or []))
        if self.traced and r == 0:
            self._boundary_layers(ctx, out)

    def _boundary_layers(self, ctx, out: str) -> None:
        """Sketch bytes and the cross-partition boundary merge, measured on
        the manifests of the first finished run."""
        import base64

        import pyarrow as pa

        from jsonschema_validator_ray.stages.groupcheck import (
            merge_run_boundaries)

        sketch_bytes, bounds = 0, []
        mdir = os.path.join(out, "manifests")
        for name in sorted(os.listdir(mdir)):
            with open(os.path.join(mdir, name)) as f:
                m = json.load(f)
            sketch_bytes += len(base64.b64decode(m["sketch_b64"]))
            if m.get("boundaries_b64"):
                bounds.append(pa.ipc.open_stream(
                    base64.b64decode(m["boundaries_b64"])).read_all())
        ctx.note("state.sketch_bytes", sketch_bytes)
        table = pa.concat_tables(bounds)
        walls = []
        for _ in range(3):
            with ctx.tracer.span("stages.merge_run_boundaries",
                                 rows=table.num_rows):
                t0 = time.perf_counter()
                merge_run_boundaries(table, ctx.ir.group_check)
                walls.append(time.perf_counter() - t0)
        ctx.note("stages.merge_run_boundaries_s", median(walls))

    def layers(self, ctx, ops: Ops) -> dict:
        out = {
            "pipelines.run_partitioned_killed_s":
            median(ops.walls.get("pipelines.run_partitioned_killed")),
            "pipelines.run_partitioned_resume_s":
            median(ops.walls.get("pipelines.run_partitioned_resume")),
            "pipelines.finalize_s": median(ops.walls.get("pipelines.finalize")),
            "pipelines.read_violations_s":
            median(ops.walls.get("pipelines.read_violations")),
        }
        for k in ("checkpoint_mb", "manifest_mb", "partitions_skipped",
                  "overlap_rechecked_convs"):
            out["pipelines." + k] = median(ctx.layer.get("pipelines." + k))
        for k in ("state.sketch_bytes", "stages.merge_run_boundaries_s"):
            out[k] = median(ctx.layer.get(k))
        # one validate() call per partition the resume call processes
        half = len(ctx.resume_files) - len(ctx.resume_files) // 2
        spans = ops.calls.get("pipelines.run_partitioned_resume", [])
        if spans:
            out["pipelines.ray_executions"] = median(
                [len(ctx.tracer.children(s)) / half for s in spans])
            out["pipelines.ray_exec_s"] = median(
                [sum(c["reported_s"] for c in ctx.tracer.children(s)) / half
                 for s in spans])
        return out


class TranscriptPrep:
    oracles = {"sessionize_counts", "adjacent_pairs", "conv_dedup"}
    OPS = ("sessionize_counts", "adjacent_pairs", "conv_dedup")
    per_round = len(OPS)
    headline = tuple("ops." + op for op in OPS)
    step = ("ops.conv_dedup",)

    @staticmethod
    def _read(files, cols):
        import ray.data

        return ray.data.read_parquet(files, columns=cols)

    def _calls(self, files, planted):
        from jsonschema_validator_ray.ops.aggregates import (
            adjacent_pairs, render_conversations, sessionize_counts)
        from jsonschema_validator_ray.ops.dedup import exact_dedup_keepers

        text_cols = ["conv_id", "turn_idx", "role", "text"]
        return {
            "sessionize_counts": lambda: sessionize_counts(
                self._read(files, ["conv_id", "ts", "turn_idx"]),
                "conv_id", "ts", "turn_idx"),
            "adjacent_pairs": lambda: collect(adjacent_pairs(
                self._read(files, text_cols), "conv_id", "turn_idx", "role",
                "user", "assistant", "text")),
            "conv_dedup": lambda: collect(exact_dedup_keepers(
                render_conversations(
                    plant_duplicates(self._read(files, text_cols), planted),
                    "conv_id", "turn_idx", "role", "text"),
                "conv_id", "rendered")),
        }

    def warmup(self, ctx) -> None:
        for call in self._calls(ctx.files[:1], ctx.planted).values():
            call()

    def round(self, ctx, ops: Ops, r: int) -> None:
        from oracle import check_conv_dedup, check_pairs, check_sessions

        checks = {"sessionize_counts": check_sessions,
                  "adjacent_pairs": check_pairs,
                  "conv_dedup": check_conv_dedup}
        calls = self._calls(ctx.files, ctx.planted)
        for op in self.OPS:
            ops.run("ops." + op, calls[op],
                    lambda v, op=op: checks[op](v, ctx.oracle[op]))

    def layers(self, ctx, ops: Ops) -> dict:
        out = {}
        for op in self.OPS:
            out[f"ops.{op}_s"] = median(ops.walls.get("ops." + op))
            out.update(_execution_stats(ctx, ops, "ops." + op,
                                        f"ops.{op}.executions",
                                        f"ops.{op}.ray_exec_s"))
        return out


def _execution_stats(ctx, ops: Ops, span_name: str, count_key: str,
                     secs_key: str) -> dict:
    """Median Ray Data executions per call, and their summed seconds."""
    spans = ops.calls.get(span_name, [])
    counts = [len(ctx.tracer.children(s)) for s in spans]
    secs = [sum(c["reported_s"] for c in ctx.tracer.children(s))
            for s in spans]
    return {count_key: median(counts), secs_key: median(secs)}


def in_process_layers(ctx) -> dict:
    """Constraint kernels, sketches and the row/sorted-run stages run
    in-process (no Ray) over the corpus in the row stage's batch size."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from jsonschema_validator_ray.constraints.kernels import make_row_validator
    from jsonschema_validator_ray.stages.groupcheck import SortedRunChecker
    from jsonschema_validator_ray.stages.rowstage import (
        RowValidateAndSketch, split_combined)
    from jsonschema_validator_ray.state.sketches import SketchState

    tracer, ir = ctx.tracer, ctx.ir
    table = pq.read_table(ctx.files)
    n = table.num_rows
    batch = 65536                      # validate()'s default batch_size
    batches = [table.slice(i, batch) for i in range(0, n, batch)]

    def timed(name, fn, rows):
        walls = []
        for _ in range(3):
            with tracer.span(name, rows=rows):
                t0 = time.perf_counter()
                fn()
                walls.append(time.perf_counter() - t0)
        return median(walls)

    out = {}
    enum_kernel = make_row_validator(ir, "enumerate")
    verdict_kernel = make_row_validator(ir, "verdict")
    out["constraints.row_kernel_rows_per_s"] = n / timed(
        "constraints.row_kernel", lambda: [enum_kernel(b) for b in batches], n)
    out["constraints.verdict_kernel_rows_per_s"] = n / timed(
        "constraints.verdict_kernel",
        lambda: [verdict_kernel(b) for b in batches], n)
    out["state.sketch_update_rows_per_s"] = n / timed(
        "state.sketch_update",
        lambda: [SketchState().update_batch(b) for b in batches], n)
    stage = RowValidateAndSketch(ir)
    out["stages.row_stage_rows_per_s"] = n / timed(
        "stages.row_stage", lambda: [stage(b) for b in batches], n)
    combined = pa.concat_tables([stage(b) for b in batches])
    out["stages.split_combined_s"] = timed(
        "stages.split_combined", lambda: split_combined(combined), n)
    payloads = combined.filter(pc.equal(combined["kind"], "sketch"))[
        "payload"].to_pylist()
    partials = [SketchState.from_bytes(p) for p in payloads]

    def merge_all():
        merged = SketchState()
        for p in partials:
            merged.merge(p)

    out["state.merge_s"] = timed("state.merge", merge_all, len(partials))
    gc = ir.group_check
    keys = table.select([gc.group_key, gc.order_by, gc.ts_column])
    keys = keys.filter(pc.and_(pc.is_valid(keys[gc.group_key]),
                               pc.is_valid(keys[gc.order_by])))
    keys = keys.sort_by([(gc.group_key, "ascending"),
                         (gc.order_by, "ascending")])
    checker = SortedRunChecker(gc)
    blocks = [keys.slice(i, batch) for i in range(0, keys.num_rows, batch)]
    out["stages.sorted_run_check_rows_per_s"] = keys.num_rows / timed(
        "stages.sorted_run_check", lambda: [checker(b) for b in blocks],
        keys.num_rows)
    return out


PER_LAYER = (
    ("sources.generate_s", "s"), ("sources.reference_stats_s", "s"),
    ("constraints.compile_s", "s"),
    ("constraints.row_kernel_rows_per_s", "rows/s"),
    ("constraints.verdict_kernel_rows_per_s", "rows/s"),
    ("state.sketch_update_rows_per_s", "rows/s"), ("state.merge_s", "s"),
    ("state.sketch_bytes", "bytes"),
    ("stages.row_stage_rows_per_s", "rows/s"),
    ("stages.sorted_run_check_rows_per_s", "rows/s"),
    ("stages.split_combined_s", "s"), ("stages.merge_run_boundaries_s", "s"),
    ("pipelines.validate_s", "s"), ("pipelines.verdict_s", "s"),
    ("pipelines.row_stage_s", "s"), ("pipelines.wide_stage_s", "s"),
    ("pipelines.driver_merge_s", "s"),
    ("pipelines.ray_executions", "count"), ("pipelines.ray_exec_s", "s"),
    ("pipelines.run_partitioned_killed_s", "s"),
    ("pipelines.run_partitioned_resume_s", "s"),
    ("pipelines.finalize_s", "s"), ("pipelines.read_violations_s", "s"),
    ("pipelines.partitions_skipped", "count"),
    ("pipelines.overlap_rechecked_convs", "count"),
    ("pipelines.manifest_mb", "MiB"), ("pipelines.checkpoint_mb", "MiB"),
    ("ops.sessionize_counts_s", "s"),
    ("ops.sessionize_counts.executions", "count"),
    ("ops.sessionize_counts.ray_exec_s", "s"),
    ("ops.adjacent_pairs_s", "s"), ("ops.adjacent_pairs.executions", "count"),
    ("ops.adjacent_pairs.ray_exec_s", "s"),
    ("ops.conv_dedup_s", "s"), ("ops.conv_dedup.executions", "count"),
    ("ops.conv_dedup.ray_exec_s", "s"),
    ("trace.op_s", "s"), ("trace.op_cpu_s", "cpu-s"),
)


# ---------------------------------------------------------------------------
# set-up and the run
# ---------------------------------------------------------------------------

def set_up(workload, ctx, session: RaySession, rep: int) -> float:
    """Ray start, corpus generation, drift reference, spec compile and one
    warm-up call of each of the workload's operations on the first corpus
    file (the resume workload: one whole partitioned run of it)."""
    from jsonschema_validator_ray.constraints.ir import compile_constraints
    from jsonschema_validator_ray.sources import (generate_transcripts,
                                                  reference_stats,
                                                  spec_with_drift)

    tracer = ctx.tracer
    corpus = os.path.join(ctx.run_dir, f"corpus-{rep}")
    t0 = time.perf_counter()
    with tracer.span("setup", rep=rep):
        with tracer.span("ray.start"):
            session.start()
        with tracer.span("sources.generate"):
            gen = generate_transcripts(corpus, n_convs=N_CONVS,
                                       n_files=N_FILES, workers=1)
        with tracer.span("sources.reference_stats"):
            spec = spec_with_drift(reference_stats(N_CONVS))
        with tracer.span("constraints.compile"):
            ir = compile_constraints(spec)
        ctx.gen, ctx.files, ctx.ir = gen, list(gen.files), ir
        with tracer.span("warmup"):
            workload.warmup(ctx)
    return time.perf_counter() - t0


def run(args) -> dict:
    import pyarrow as pa

    import oracle
    from spans import NullTracer, RayDataExecutions, Tracer

    traced = bool(args.trace)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if traced else NullTracer(run_id)
    executions = RayDataExecutions() if traced else None
    workload = {"validate_flagship": ValidateFlagship,
                "resume_partitioned": lambda: ResumePartitioned(traced),
                "transcript_prep": TranscriptPrep}[args.workload]()

    run_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    session = RaySession(run_dir)
    ctx = Context(run_dir, tracer, planted_conv_ids(args.seed, N_CONVS))
    try:
        setup_walls = []
        for rep in range(SETUP_REPS):
            if rep:
                session.stop()
                shutil.rmtree(os.path.join(run_dir, f"corpus-{rep - 1}"))
            setup_walls.append(set_up(workload, ctx, session, rep))
            if rep == 0 and executions is not None:
                executions.install()
        log(f"setup walls {[round(w, 3) for w in setup_walls]}")
        ctx.resume_files = resume_order(args.seed, ctx.files)

        o = ctx.oracle = oracle.compute(
            ctx.files, pa.table({"conv_id": ctx.planted}), workload.oracles)
        correct = True
        if "violations" in o:
            errs = oracle.check_violations(o["violations"], o["violations"],
                                           ctx.gen.golden_violations)
            if errs:
                log("SQL oracle disagrees with the golden violations: "
                    + "; ".join(errs))
                correct = False

        ops = Ops(tracer, executions)
        rss = PeakRss()
        cpu0 = host_cpu_times()
        rss.start()
        rounds = timed_rounds(args.seconds,
                              lambda r: workload.round(ctx, ops, r),
                              ops, workload.per_round)
        peak_mib = rss.stop()
        busy = [b - a for a, b in zip(cpu0, host_cpu_times())]
        log(f"{rounds} rounds, {ops.attempted} operations, "
            f"{ops.failed} failed; host CPU over the rounds: "
            f"{100 * busy[7] / sum(busy):.1f}% stolen, "
            f"{100 * busy[3] / sum(busy):.1f}% idle")
        for name, walls in ops.walls.items():
            log(f"  {name}: wall {[round(w, 3) for w in walls]} "
                f"cpu {[round(c, 3) for c in ops.cpus[name]]}")

        n_rows = o["n_rows"]
        if traced:
            layer = {name: 0.0 for name, _ in PER_LAYER}
            for name, key in (("sources.generate_s", "sources.generate"),
                              ("sources.reference_stats_s",
                               "sources.reference_stats"),
                              ("constraints.compile_s",
                               "constraints.compile")):
                layer[name] = median(tracer.durations(key))
            layer.update(workload.layers(ctx, ops))
            layer["trace.op_s"] = ops.total(ops.walls, workload.headline)
            layer["trace.op_cpu_s"] = ops.total(ops.cpus, workload.headline)
            metrics = {name: {"value": float(layer[name]), "unit": unit}
                       for name, unit in PER_LAYER}
            trace_dir = os.path.join(ROOT, ".perfbench-traces")
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir, run_id + ".json")
            tracer.write(path, extra={"per_layer": layer,
                                      "setup_walls": setup_walls})
            log(f"trace written to {path}")
        else:
            log(f"wall: {n_rows / ops.total(ops.walls, workload.headline):.0f}"
                f" turns/s, step {ops.total(ops.walls, workload.step):.3f} s")
            metrics = {
                "setup_s": {"value": median(setup_walls), "unit": "s"},
                "turns_per_cpu_s": {
                    "value": n_rows / ops.total(ops.cpus, workload.headline),
                    "unit": "turns/cpu-s"},
                "step_cpu_s": {"value": ops.total(ops.cpus, workload.step),
                               "unit": "cpu-s"},
                "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
            }
        return {"correct": bool(correct and ops.failed == 0),
                "attempted": ops.attempted, "failed": ops.failed,
                "metrics": metrics}
    finally:
        if executions is not None:
            executions.remove()
        session.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)   # still clean up
    pin_environment()
    sys.path.insert(0, HERE)
    try:
        import jsonschema_validator_ray  # noqa: F401
    except ImportError as e:
        log(f"the engine package is not importable from {ROOT}: {e}")
        return 2
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
