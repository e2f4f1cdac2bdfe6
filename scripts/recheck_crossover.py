"""Time validate()'s two group-check plans against each other at several
overlap shares: the one-pass plan (batch-local checks, seam merge and the
driver's exact re-check of conversations whose runs overlap) and the keyed
fallback (a 3-column re-read on ``rayutil.bucket_groups``). The figures
behind ``pipelines.validate.MAX_RECHECK_SHARE``.

A generator corpus is rewritten so that the rows of a chosen share of its
conversations are scattered over the files (row-shuffled), which makes
their runs overlap; the other conversations stay clustered. Each share is
validated with the bound forced open (local) and shut (keyed), alternating,
and both plans must return the same violations.

Usage: python scripts/recheck_crossover.py OUT_DIR [N_CONVS] [REPS] [SHARES]
  e.g. python scripts/recheck_crossover.py /tmp/xo 40000 5 0,0.05,0.1,0.2,0.5,1
Run with the repo on PYTHONPATH (Ray workers import the package). Prints
one JSON line per share: the re-checked share of rows and the median wall
seconds of each plan, whole call and wide stage.
"""

import importlib
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
from ray.data import DataContext

out_dir = sys.argv[1]
n_convs = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
reps = int(sys.argv[3]) if len(sys.argv) > 3 else 5
shares = [float(x) for x in
          (sys.argv[4] if len(sys.argv) > 4 else "0,0.05,0.1,0.2,0.5,1")
          .split(",")]

ray.init(num_cpus=int(os.environ.get("RAY_CPUS", 1)), include_dashboard=False,
         logging_level="ERROR", object_store_memory=512 << 20)
DataContext.get_current().enable_progress_bars = False

from jsonschema_validator_ray.constraints.ir import compile_constraints  # noqa: E402
from jsonschema_validator_ray.sources import (generate_transcripts,  # noqa: E402
                                              reference_stats, spec_with_drift)

V = importlib.import_module("jsonschema_validator_ray.pipelines.validate")

gen = generate_transcripts(os.path.join(out_dir, "gen"), n_convs=n_convs,
                           n_files=4, workers=1)
ir = compile_constraints(spec_with_drift(reference_stats(n_convs)))
tables = [pq.read_table(f).replace_schema_metadata(None) for f in gen.files]
counts = pc.value_counts(pa.concat_tables(tables)["conv_id"])
convs = counts.field("values").to_pylist()
sizes = counts.field("counts").to_numpy()
total = int(sizes.sum())


def scattered_corpus(share: float) -> list:
    """The corpus with the rows of ~``share`` of its rows' conversations
    scattered over the files."""
    d = os.path.join(out_dir, f"share-{share}")
    os.makedirs(d, exist_ok=True)
    rng = np.random.default_rng(1)
    pick, acc = [], 0
    for i in rng.permutation(len(convs)):
        if acc + sizes[i] <= share * total:
            pick.append(convs[i])
            acc += sizes[i]
    chosen = pa.array(pick, pa.string())
    moved = pa.concat_tables([t.filter(pc.is_in(t["conv_id"], value_set=chosen))
                              for t in tables])
    moved = moved.take(pa.array(rng.permutation(moved.num_rows)))
    dest = rng.integers(0, len(tables), moved.num_rows)
    paths = []
    for k, t in enumerate(tables):
        stay = t.filter(pc.invert(pc.is_in(t["conv_id"], value_set=chosen)))
        paths.append(os.path.join(d, f"part{k}.parquet"))
        pq.write_table(pa.concat_tables(
            [stay, moved.filter(pa.array(dest == k))]), paths[-1])
    return paths


def key(tbl: pa.Table) -> list:
    return sorted(map(str, zip(*(tbl[c].to_pylist() for c in
                                 ("conv_id", "turn_idx", "constraint_id")))))


V.validate(gen.files, ir=ir)                      # warm-up
for share in shares:
    files = scattered_corpus(share)
    walls = {"local": [], "keyed": []}
    found = {}
    for r in range(reps):
        for plan in (("local", "keyed") if r % 2 == 0
                     else ("keyed", "local")):
            V.MAX_RECHECK_SHARE = 2.0 if plan == "local" else -1.0
            t0 = time.perf_counter()
            res = V.validate(files, ir=ir)
            walls[plan].append((time.perf_counter() - t0,
                                res.metrics["wall_wide_stage_s"]))
            assert res.metrics["wide_stage"] == plan, res.metrics
            found[plan] = key(res.violations)
            if plan == "local":
                rechecked = res.metrics["rechecked_rows"]
    assert found["local"] == found["keyed"], share
    print(json.dumps({
        "target_share": share, "rows": total,
        "rechecked_share": round(rechecked / total, 4),
        **{f"{plan}_{part}_s": round(float(np.median([w[i] for w in ws])), 3)
           for plan, ws in walls.items()
           for i, part in enumerate(("call", "wide"))}}), flush=True)
ray.shutdown()
