"""jsonschema_validator_ray — a Ray-Data-native schema + constraint validation engine.

A from-scratch engine generalizing the semantics of the Rust reference
``macisamuele/jsonschema-validator`` (per-document JSON Schema Draft-4 keyword
validation: ``type`` / ``properties`` / ``$ref``) to table-scale Parquet
validation of multi-turn conversation transcripts, executed Ray-Data-first:

- ``jsonvalidate``  — driver-side per-document Draft-4 validator that byte-matches
  the reference's error paths and messages on its own fixtures
  (reference: src/keywords/*.rs, src/types/*.rs).
- ``constraints``   — the compiled Constraint IR + vectorized Arrow kernels.
- ``state``         — streaming sketches (HLL, t-digest) + drift tests (KS, chi-square).
- ``sources``       — deterministic synthetic transcript generator (+ injected violations).
- ``stages``        — Ray Data stages: row-local validate + sketch, sorted-run
  group checks.
- ``pipelines``     — end-to-end resumable validation pipeline with per-partition
  lineage manifests.
- ``ops``           — large-scale training-data operators (dedup, similarity search,
  text analysis, multimodal stubs).
"""

import logging as _logging

# The testdata parquet footers carry a pandas-metadata dict; Ray's schema
# dedup tries to hash it and logs a WARNING per read task ("Failed to hash
# the schemas ... unhashable type: 'dict'"). Harmless but noisy in every
# bench/driver log — silence just that logger (workers import this package,
# so the filter applies cluster-wide).
_logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow").setLevel(_logging.ERROR)


__version__ = "0.1.0"
