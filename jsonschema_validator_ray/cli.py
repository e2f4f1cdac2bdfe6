"""CLI entry point — the ``ray job submit`` surface.

    python -m jsonschema_validator_ray.cli validate \
        --input /data/transcripts --out /tmp/out \
        [--spec spec.json] [--mode enumerate|verdict] \
        [--partitioned --files-per-partition 4]

    python -m jsonschema_validator_ray.cli generate \
        --out /tmp/tx --n-convs 3000 [--no-inject] [--drifted]

Owns its Ray session (the only module besides bench.py and the test fixture
that does): init if not already initialised, shutdown at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = repo + os.pathsep + os.environ.get("PYTHONPATH", "")

    p = argparse.ArgumentParser(prog="jsonschema_validator_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="run the validation pipeline")
    v.add_argument("--input", required=True,
                   help="parquet file/dir of transcripts")
    v.add_argument("--out", required=True)
    v.add_argument("--spec", help="constraint spec JSON (default: transcript spec)")
    v.add_argument("--mode", default="enumerate", choices=["enumerate", "verdict"])
    v.add_argument("--partitioned", action="store_true",
                   help="resumable per-file-group partitions with manifests")
    v.add_argument("--files-per-partition", type=int, default=4)
    v.add_argument("--num-cpus", type=int, default=None)
    v.add_argument("--batch-size", type=int, default=65536)

    g = sub.add_parser("generate", help="generate synthetic transcripts")
    g.add_argument("--out", required=True)
    g.add_argument("--n-convs", type=int, default=3000)
    g.add_argument("--n-files", type=int, default=8)
    g.add_argument("--no-inject", action="store_true")
    g.add_argument("--drifted", action="store_true")

    args = p.parse_args(argv)

    if args.cmd == "generate":
        from .sources import generate_transcripts

        gen = generate_transcripts(args.out, n_convs=args.n_convs,
                                   n_files=args.n_files,
                                   inject=not args.no_inject,
                                   drifted=args.drifted)
        print(json.dumps({"files": len(gen.files), "n_turns": gen.n_turns,
                          "golden_violations": gen.golden_violations.num_rows
                          if not args.no_inject else 0}))
        return 0

    ray = _ray_session(args.num_cpus)
    try:
        from .constraints.ir import TRANSCRIPT_SPEC
        from .pipelines import run_partitioned, validate

        if args.spec:
            with open(args.spec) as f:
                spec = json.load(f)
        else:
            spec = TRANSCRIPT_SPEC

        if args.partitioned:
            src = args.input
            if os.path.isdir(src):
                files = sorted(os.path.join(src, f) for f in os.listdir(src)
                               if f.endswith(".parquet")
                               and not f.startswith("golden"))
            else:
                files = [src]
            summary = run_partitioned(files, args.out, spec=spec,
                                      files_per_partition=args.files_per_partition,
                                      batch_size=args.batch_size)
            print(json.dumps(summary, default=str))
            return 0 if summary.get("passed") else 1

        res = validate(args.input, spec=spec, mode=args.mode,
                       batch_size=args.batch_size, out_dir=args.out)
        print(json.dumps({"passed": res.passed, "metrics": res.metrics,
                          "drift": res.drift}, default=str))
        return 0 if res.passed else 1
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
