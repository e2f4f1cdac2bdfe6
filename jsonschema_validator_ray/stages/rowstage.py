"""The fused row-local stage: validate + sketch + batch-local group check.

ONE pass over the 100 TB input: each Arrow batch produces (a) its row
violation rows, (b) one count row (its row and row-violation counts, in
either mode), (c) one serialized partial-sketch row and (d), when the IR
has a group check, the batch's own uniqueness/monotonicity check: its
group-check rows sorted locally and checked by ``local_group_check``, giving
batch-local group violations and one run record per conversation. All of
it is combined in a single output table (the `kind` column discriminates).
The input is read exactly once; the combined output is tiny relative to
the input, so the pipeline's only full-data stage is this map_batches. The
driver resolves conversations that span batches from the run records (see
``pipelines.validate``).

Run as plain tasks (an instance is passed to ``map_batches``): the
constructor compiles the row validator once on the driver, and the
per-batch call only evaluates vectorized kernels. Partial sketches are
emitted PER BATCH so retried/resumed batches merge idempotently by key.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..constraints.ir import ConstraintIR
from ..constraints.kernels import VIOLATION_SCHEMA, make_row_validator
from ..state.sketches import SketchState
from .groupcheck import (RUN_BOUNDARY_SCHEMA, RUNS_COUNTED,
                         local_group_check)

COMBINED_SCHEMA = pa.schema([
    # "violation" (row kernels) | "sketch" |
    # "count" (the batch's n_rows and n_violations) |
    # "group" (batch-local group-check violation) |
    # "run" (run record; n_rows = the run's row count)
    ("kind", pa.string()),
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("constraint_id", pa.string()),
    ("message", pa.string()),
    ("n_rows", pa.int64()),
    ("n_violations", pa.int64()),
    ("payload", pa.binary()),
    *[f for f in RUN_BOUNDARY_SCHEMA if f.name != "conv_id"],
])


def _rows(kind: str, n: int, cols) -> pa.Table:
    """``n`` COMBINED_SCHEMA rows of one kind; columns not in ``cols`` are
    null."""
    have = cols.column_names if isinstance(cols, pa.Table) else cols
    return pa.table([pa.repeat(kind, n) if f.name == "kind"
                     else cols[f.name] if f.name in have
                     else pa.nulls(n, f.type) for f in COMBINED_SCHEMA],
                    schema=COMBINED_SCHEMA)


def select_kind(table: pa.Table, kind: str, schema: pa.Schema) -> pa.Table:
    """The rows of one ``kind`` of a kind-tagged stage output, projected to
    ``schema``."""
    rows = table.filter(pc.equal(table["kind"], kind))
    return pa.table([rows[name] for name in schema.names], schema=schema)


class RowValidateAndSketch:
    """Callable stage for ``map_batches``; row validator compiled once. The
    group check runs when ``ir.group_check`` is set."""

    def __init__(self, ir: ConstraintIR, mode: str = "enumerate",
                 sketch: bool = True):
        self.ir = ir
        self.mode = mode
        self.sketch = sketch
        self.validate = make_row_validator(ir, mode)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.validate(batch)
        if self.mode == "enumerate":
            parts = [_rows("violation", out.num_rows, out)]
            n_violations = out.num_rows
        else:
            parts = []
            n_violations = out["n_violations"][0].as_py()
        parts.append(_rows("count", 1, {
            "n_rows": pa.array([batch.num_rows], pa.int64()),
            "n_violations": pa.array([n_violations], pa.int64())}))
        if self.sketch:
            s = SketchState()
            s.update_batch(batch)
            parts.append(_rows("sketch", 1, {
                "payload": pa.array([s.to_bytes()], pa.binary())}))
        if self.ir.group_check is not None:
            group, runs = local_group_check(batch, self.ir.group_check)
            parts.append(_rows("group", group.num_rows, group))
            parts.append(_rows("run", runs.num_rows, runs))
        return pa.concat_tables(parts)


def split_combined(combined: pa.Table):
    """Driver-side split of the (small) combined output: row violation rows,
    merged SketchState, and the row/violation counters summed over every
    batch's count row."""
    violations = select_kind(combined, "violation", VIOLATION_SCHEMA)

    sk = combined.filter(pc.equal(combined["kind"], "sketch"))
    state = SketchState()
    for payload in sk["payload"].to_pylist():
        state.merge(SketchState.from_bytes(payload))

    counts = combined.filter(pc.equal(combined["kind"], "count"))
    return violations, state, {
        "n_rows": int(pc.sum(counts["n_rows"]).as_py() or 0),
        "n_row_violations": int(pc.sum(counts["n_violations"]).as_py() or 0)}


def split_group_check(combined: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Driver-side split of the one-pass group check: (batch-local group
    violations, run records with each run's row count in ``n_rows``)."""
    return (select_kind(combined, "group", VIOLATION_SCHEMA),
            select_kind(combined, "run", RUNS_COUNTED))
