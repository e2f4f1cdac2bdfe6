"""The fused row-local validate + sketch stage.

ONE pass over the 100 TB input: each Arrow batch produces (a) its violation
rows and (b) one serialized partial-sketch row, combined in a single output
table (`kind` column discriminates). The input is read exactly once; the
combined output is tiny relative to the input, so the pipeline's only
full-data stage is this map_batches.

Run as plain tasks (an instance is passed to ``map_batches``): the
constructor compiles the row validator once on the driver, and the
per-batch call only evaluates vectorized kernels. Partial sketches are
emitted PER BATCH so retried/resumed batches merge idempotently by key.
"""

from __future__ import annotations

import pyarrow as pa

from ..constraints.ir import ConstraintIR
from ..constraints.kernels import VIOLATION_SCHEMA, make_row_validator
from ..state.sketches import SketchState

COMBINED_SCHEMA = pa.schema([
    ("kind", pa.string()),            # "violation" | "sketch" | "verdict"
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("constraint_id", pa.string()),
    ("message", pa.string()),
    ("n_rows", pa.int64()),
    ("n_violations", pa.int64()),
    ("payload", pa.binary()),
])


class RowValidateAndSketch:
    """Callable stage for ``map_batches``; row validator compiled once."""

    def __init__(self, ir: ConstraintIR, mode: str = "enumerate",
                 sketch: bool = True):
        self.ir = ir
        self.mode = mode
        self.sketch = sketch
        self.validate = make_row_validator(ir, mode)

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = []
        out = self.validate(batch)
        if self.mode == "enumerate":
            k = out.num_rows
            if k:
                parts.append(pa.table({
                    "kind": pa.array(["violation"] * k),
                    "conv_id": out["conv_id"],
                    "turn_idx": out["turn_idx"],
                    "constraint_id": out["constraint_id"],
                    "message": out["message"],
                    "n_rows": pa.nulls(k, pa.int64()),
                    "n_violations": pa.nulls(k, pa.int64()),
                    "payload": pa.nulls(k, pa.binary()),
                }, schema=COMBINED_SCHEMA))
        else:
            parts.append(pa.table({
                "kind": pa.array(["verdict"]),
                "conv_id": pa.nulls(1, pa.string()),
                "turn_idx": pa.nulls(1, pa.int32()),
                "constraint_id": out["first_constraint_id"],
                "message": pa.nulls(1, pa.string()),
                "n_rows": out["n_rows"],
                "n_violations": out["n_violations"],
                "payload": pa.nulls(1, pa.binary()),
            }, schema=COMBINED_SCHEMA))
        if self.sketch:
            s = SketchState()
            s.update_batch(batch)
            parts.append(pa.table({
                "kind": pa.array(["sketch"]),
                "conv_id": pa.nulls(1, pa.string()),
                "turn_idx": pa.nulls(1, pa.int32()),
                "constraint_id": pa.nulls(1, pa.string()),
                "message": pa.nulls(1, pa.string()),
                "n_rows": pa.array([batch.num_rows], pa.int64()),
                "n_violations": pa.nulls(1, pa.int64()),
                "payload": pa.array([s.to_bytes()], pa.binary()),
            }, schema=COMBINED_SCHEMA))
        if not parts:
            return COMBINED_SCHEMA.empty_table()
        return pa.concat_tables(parts)


def split_combined(combined: pa.Table):
    """Driver-side split of the (small) combined output: violation rows,
    merged SketchState, and row/violation counters."""
    import pyarrow.compute as pc

    viol = combined.filter(pc.equal(combined["kind"], "violation"))
    violations = pa.table({name: viol[name] for name in
                           ("conv_id", "turn_idx", "constraint_id", "message")},
                          schema=VIOLATION_SCHEMA)

    sk = combined.filter(pc.equal(combined["kind"], "sketch"))
    state = SketchState()
    for payload in sk["payload"].to_pylist():
        state.merge(SketchState.from_bytes(payload))

    verd = combined.filter(pc.equal(combined["kind"], "verdict"))
    n_rows = sum(x or 0 for x in verd["n_rows"].to_pylist()) or state.n_rows
    n_row_violations = sum(x or 0 for x in verd["n_violations"].to_pylist()) \
        or violations.num_rows
    return violations, state, {"n_rows": int(n_rows),
                               "n_row_violations": int(n_row_violations)}
