"""Driver-side Ray helpers: worker importability and the one collect path.

Ray pickles map_batches callables BY REFERENCE (module + qualname), so worker
processes must be able to import this package. When the driver initialises Ray
before the package's path reaches PYTHONPATH (the graft driver does exactly
this), workers would die with ModuleNotFoundError and the pipeline would hang
in retries.

``ensure_worker_importable()`` PROBES a worker once per process: if the
package imports there, nothing happens (by-reference pickling stays — it is
~2x faster end-to-end because by-value re-serializes module state with every
task). Only when the probe fails are the package's loaded modules registered
with cloudpickle's by-value serializer, shipping the code inside task payloads
instead.

:func:`block_refs` is the one place that turns a Dataset into driver-side
block refs; :func:`collect_partials` (and :func:`fold_partials` on top of it)
fetches those blocks. Every operator collects through them, so the
materialize-first rule and the worker-import probe live here only.
:func:`bucket_groups` is likewise the one keyed hash-bucket shuffle: of the
single-input grouped operators, and, in its multi-input form, of the
co-partitioned joins, merges and dedups whose sides meet per bucket.
"""

from __future__ import annotations

import logging as _logging
import sys


class _EmptySchemaFilter(_logging.Filter):
    """Hides Ray Data's schema-change WARNING only when one side of the
    transition is an EMPTY schema (empty shuffle partition blocks) — see
    quiet_empty_partition_warnings."""

    def filter(self, record) -> bool:
        msg = record.getMessage()
        return not ("RefBundle with a different schema" in msg
                    and ("new schema: ." in msg             # real -> empty
                         or "Previous schema: , " in msg))  # empty -> real


_probe_result: dict = {}
_registered: set = set()


def _worker_can_import(pkg: str) -> bool:
    import ray

    @ray.remote(num_cpus=0)
    def probe() -> bool:
        import importlib.util
        return importlib.util.find_spec(pkg) is not None

    try:
        return bool(ray.get(probe.remote(), timeout=30))
    except Exception:
        return False


def ensure_worker_importable(prefix: str = "jsonschema_validator_ray") -> None:
    try:
        from ray import cloudpickle
        import ray
        if not ray.is_initialized():
            return
    except Exception:
        return
    if prefix not in _probe_result:
        _probe_result[prefix] = _worker_can_import(prefix)
    if _probe_result[prefix]:
        return  # workers import the package: keep fast by-reference pickling
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(prefix) or name in _registered:
            continue
        try:
            cloudpickle.register_pickle_by_value(mod)
            _registered.add(name)
        except Exception:
            pass


def strip_meta(t):
    """Drop schema metadata from a table about to enter a shuffle.

    A ``pa.Schema`` carrying metadata is UNHASHABLE (``hash(schema)`` raises
    ``unhashable type: 'dict'``), which silently defeats Ray Data's
    block-schema deduplication in every reduce task — one warning line per
    reduce PLUS the real cost of re-shipping the schema with every block in
    the all-to-all. Parquet written via pandas (the test tables) and the
    bench corpus (its ``graft_plan`` resume token) both carry metadata, so
    every stage that appends a bucket/tag column to a read batch must strip
    it here. No-op (and allocation-free) for clean schemas."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def pad_to(batch, schema):
    """``batch`` laid out as ``schema``: columns taken by name and cast to
    the schema's types, missing ones null-filled, extra ones dropped."""
    import pyarrow as pa

    cols = [batch[f.name].cast(f.type) if f.name in batch.column_names
            else pa.nulls(batch.num_rows, f.type) for f in schema]
    return pa.table(cols, schema=schema)


def quiet_empty_partition_warnings() -> None:
    """Suppress Ray Data's 'RefBundle with a different schema' WARNING for
    the benign empty-partition case ONLY.

    A distributed sort/groupby shuffle whose range partitioner lands zero
    rows in some output partition emits that partition as a block with an
    EMPTY schema; the streaming executor then logs a schema-change warning
    per transition (streaming_executor_state.py). There is no user-side
    knob to avoid empty shuffle partitions (bucket count ≥ block count
    guarantees some), and empty blocks unify fine downstream — so filter
    exactly the transitions whose NEW schema is empty ('new schema: .'),
    keeping any real schema-mismatch warning visible. Idempotent."""
    logger = _logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    if not any(isinstance(f, _EmptySchemaFilter) for f in logger.filters):
        logger.addFilter(_EmptySchemaFilter())


def clean_read_schema(path: str, columns=None):
    """Explicit METADATA-FREE read schema for ``read_parquet(schema=...)``:
    testdata/generator parquet carries pandas / graft_plan footer metadata,
    which makes ``pa.Schema`` unhashable and defeats Ray's block-schema
    dedup in every unify (the 'Failed to hash the schemas' spam). One
    driver-side footer read (~ms) buys clean schemas on every block. The
    single shared implementation of the recipe previously copy-pasted at
    each read site."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    full = pq.read_schema(path).remove_metadata()
    return pa.schema([full.field(c) for c in (columns or full.names)])


def avail_cpus() -> int:
    """Available cluster CPUs (4 when Ray isn't up — the test default)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 4)) \
        if ray.is_initialized() else 4


def default_buckets() -> int:
    """Shared hash-bucket count policy: ~4 buckets per available CPU
    (whole-group-per-bucket shuffles want enough buckets to spread skew but
    not so many that per-group task overhead dominates). The single
    definition for every bucketed operator."""
    return 4 * avail_cpus()


def bucket_tagger(key: str, n_buckets: int, prepare=None):
    """The map side of :func:`bucket_groups`: a batch function that runs
    ``prepare`` (optional per-batch filter or pre-aggregation), strips the
    schema metadata (:func:`strip_meta`) and appends ``_bucket`` =
    ``np_column_hash(key) % n_buckets``."""
    import numpy as np
    import pyarrow as pa

    from .stages.groupcheck import np_column_hash

    n = np.uint64(n_buckets)

    def tag(batch):
        t = strip_meta(batch if prepare is None else prepare(batch))
        h = (np_column_hash(t[key]) % n).astype(np.int64)
        return t.append_column("_bucket", pa.array(h, pa.int64()))
    return tag


def bucket_groups(ds, key, per_bucket=None, *, prepare=None, columns=None):
    """The keyed hash-bucket shuffle. Every key's rows meet in one bucket;
    the bucket count is :func:`default_buckets` and results never depend
    on it.

    **Single input** ``bucket_groups(ds, key, per_bucket, prepare=,
    columns=)``: project to ``columns`` (when given), tag each batch with
    :func:`bucket_tagger` in ONE ``map_batches`` (``prepare`` runs there,
    before the hash), then one ``groupby`` on ``_bucket`` + ``map_groups``;
    each bucket reaches ``per_bucket`` with ``_bucket`` already dropped.

    **Multi input** ``bucket_groups(sides, per_bucket)``: ``sides`` is a
    list of ``(ds, key, prepare, schema)``, where ``schema`` is the layout
    ``prepare`` (or, when None, the side itself) produces. Each side is
    tagged in its own ``map_batches``, padded to the union of the side
    layouts (:func:`pad_to`; a name shared by several sides takes the first
    side's type) and marked with its ``_side`` index; the sides are
    ``union``-ed and share the one ``groupby``. Equal keys of all sides
    therefore meet in one bucket, and ``per_bucket(*tables)`` gets one
    table per side with exactly that side's ``schema``: a side with no rows
    in the bucket arrives as a zero-row table. A side schema carrying
    ``_bucket`` or ``_side``, or missing its key, raises ``ValueError``
    before any Ray work.

    Installs :func:`quiet_empty_partition_warnings`: buckets outnumber the
    groups of a small input, and each empty one would log a schema
    WARNING."""
    import functools

    if isinstance(ds, list):
        tagged, split = _tag_sides(ds)
        per_bucket = key
    else:
        if columns is not None:
            ds = ds.select_columns(list(dict.fromkeys(columns)))
        tagged = ds.map_batches(bucket_tagger(key, default_buckets(), prepare),
                                batch_format="pyarrow", zero_copy_batch=True)

        def split(group):
            return (group.drop_columns(["_bucket"]),)
    ensure_worker_importable()
    quiet_empty_partition_warnings()

    @functools.wraps(per_bucket)     # Ray names the operator after the op
    def untagged(group):
        return per_bucket(*split(group))

    return tagged.groupby("_bucket").map_groups(untagged,
                                                batch_format="pyarrow")


def _tag_sides(sides):
    """Map side of the multi-input :func:`bucket_groups`: the union of the
    tagged sides, and the function that splits a bucket back into them."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    schemas = []
    for _ds, key, _prepare, schema in sides:
        schema = getattr(schema, "base_schema", schema)  # ray Schema -> Arrow
        schema = pa.schema(list(zip(schema.names, schema.types)))
        clash = sorted({"_bucket", "_side"} & set(schema.names))
        if clash:
            raise ValueError(f"bucket_groups: input columns {clash} clash "
                             "with the shuffle's reserved columns "
                             "['_bucket', '_side']")
        if key not in schema.names:
            raise ValueError(f"bucket_groups: key {key!r} is not a column "
                             f"of its side {schema.names}")
        schemas.append(schema)
    layout: dict = {}
    for schema in schemas:
        for f in schema:
            layout.setdefault(f.name, f.type)
    layout = pa.schema(list(layout.items()) + [("_bucket", pa.int64())])
    n_buckets = default_buckets()

    def side_tagger(i, key, prepare):
        tag = bucket_tagger(key, n_buckets, prepare)

        def tag_side(batch):
            t = pad_to(tag(batch), layout)
            return t.append_column("_side", pa.array(
                np.full(t.num_rows, i, np.int8), pa.int8()))
        return tag_side

    tagged = [ds.map_batches(side_tagger(i, key, prepare),
                             batch_format="pyarrow", zero_copy_batch=True)
              for i, (ds, key, prepare, _schema) in enumerate(sides)]

    def split(group):
        side = group["_side"]
        return tuple(
            group.filter(pc.equal(side, pa.scalar(i, pa.int8())))
            .select(schema.names).cast(schema)
            for i, schema in enumerate(schemas))

    return tagged[0].union(*tagged[1:]), split


def block_refs(ds):
    """Execute ``ds`` once and return the ObjectRefs of its Arrow blocks —
    for callers that pass blocks on to remote tasks without pulling them to
    the driver. Probes worker importability first, then ``materialize()``s:
    ``to_arrow_refs()`` on a lazy plan asks for the schema, which re-runs
    the whole plan (every upstream UDF and shuffle) under a limit-1 probe.
    The single ``to_arrow_refs()`` call of the package."""
    ensure_worker_importable()
    return ds.materialize().to_arrow_refs()


def collect_partials(ds, keep_empty: bool = False):
    """Execute ``ds`` once (:func:`block_refs`) and fetch its Arrow blocks
    driver-side: the one collect path of every operator that folds or
    returns a small result. Empty blocks are dropped; ``keep_empty=True``
    returns every block — callers that need the partial SCHEMA even when
    zero rows survived (typed empty results)."""
    import ray

    blocks = ray.get(block_refs(ds))
    return blocks if keep_empty else [t for t in blocks if t.num_rows]


def fold_partials(ds, keys, sums):
    """Driver fold for partial-aggregate ops: collect the plan's blocks
    (:func:`collect_partials`), concat, one final Arrow group-by on
    ``keys`` summing each column in ``sums`` (result columns keep the
    input names, cast to int64). Returns None when no partial produced
    rows — callers supply their own typed empty table. The partial
    cardinality contract (keys-domain-sized, never row-sized) is the
    caller's to uphold; this helper only removes the boilerplate."""
    import pyarrow as pa

    parts = collect_partials(ds)
    if not parts:
        return None
    cat = pa.concat_tables(parts, promote_options="default")
    g = pa.TableGroupBy(cat, list(keys)).aggregate(
        [(c, "sum") for c in sums])
    cols = {k: g[k] for k in keys}
    cols.update({c: g[f"{c}_sum"].cast(pa.int64()) for c in sums})
    return pa.table(cols)
