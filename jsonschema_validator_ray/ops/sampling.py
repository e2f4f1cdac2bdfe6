"""Sampling operators.

Two shapes, both streaming (one vectorized ``map_batches`` filter, no
shuffle, no driver materialization):

- ``hash_sample``: DETERMINISTIC sampling by a key column via Knuth
  multiplicative hashing — the same rows are kept on every run, at any block
  split, and the predicate is reproducible in plain SQL
  (``(key * 2654435761 + seed * 2654435769) % 2^32 < fraction * 2^32``).
  This is the
  sampling to use inside resumable pipelines (re-runs see the same sample)
  and for oracle-checked queries.
- ``random_sample``: seeded pseudo-random sampling for rows without a usable
  key — deterministic PER (seed, row-position-hash) so it stays stable under
  Ray's block splitting by hashing the row's content columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.hll import hash64

KNUTH = np.uint64(2654435761)
SEED_MIX = np.uint64(2654435769)   # seed is spread across the hash space —
_MOD = np.uint64(1) << np.uint64(32)  # a raw +seed would barely move the set


def _threshold(fraction: float) -> np.uint64:
    """Keep threshold = ROUND(fraction * 2^32), matching the SQL oracle's
    ``CAST(fraction * 4294967296 AS BIGINT)`` (DuckDB CAST rounds; Python
    ``int()`` truncates — off by one at e.g. fraction=0.1, review r4)."""
    return np.uint64(int(round(fraction * float(1 << 32))))


def _keep_mask_from_ints(ids: np.ndarray, fraction: float,
                         seed: int) -> np.ndarray:
    h = (ids.astype(np.uint64) * KNUTH + np.uint64(seed) * SEED_MIX) % _MOD
    return h < _threshold(fraction)


def hash_sample(ds, key_column: str, fraction: float, seed: int = 42):
    """Deterministic keyed sample: keep rows whose Knuth-hashed key falls
    under ``fraction``. Integer keys use the SQL-reproducible multiplicative
    hash; other dtypes hash via the vectorized 64-bit column hash.

    Null keys are DROPPED — exactly the SQL predicate's semantics (a NULL
    key makes the WHERE expression NULL) and the only deterministic choice
    (NaN→uint64 is an undefined cast; review r4)."""
    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[key_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
            col = batch[key_column]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
        if pa.types.is_integer(col.type):
            ids = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            mask = _keep_mask_from_ints(ids, fraction, seed)
        else:
            h = (hash64(col) + np.uint64(seed) * SEED_MIX) % _MOD
            mask = h < _threshold(fraction)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def random_sample(ds, fraction: float, seed: int = 42,
                  salt_columns: list | None = None):
    """Seeded pseudo-random sample without a designated key: the keep
    decision hashes the first (or given) columns' values, so it is stable
    under block re-splitting and resume — unlike RNG-per-task sampling."""
    def keep(batch: pa.Table) -> pa.Table:
        cols = salt_columns or batch.column_names[:1]
        acc = np.zeros(batch.num_rows, np.uint64)
        for name in cols:
            acc ^= hash64(batch[name])
        h = (acc * KNUTH + np.uint64(seed) * SEED_MIX) % _MOD
        return batch.filter(pa.array(h < _threshold(fraction)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def weighted_sample(ds, key_column: str, weight_column: str, k: int,
                    seed: int = 42) -> pa.Table:
    """Weighted sampling WITHOUT coordination — the A-Res scheme of
    Efraimidis & Spirakis (2006): each row gets score ``ln(u) / w`` with a
    DETERMINISTIC per-key uniform ``u = (knuth(key)+1) / (2^32+1)``, and the
    sample is the global top-``k`` scores (heavier rows get scores nearer 0,
    hence higher selection probability ∝ w). Because ``u`` derives from the
    same Knuth multiplicative hash as ``hash_sample``, the selection is
    stable across runs/blocks AND reproducible in plain SQL (same libm
    ``ln``/division on the same doubles — bit-identical ordering).

    Distributed shape: one streaming score ``map_batches`` → the partial
    top-k merge of ``aggregates.top_k`` (k rows per block reach the driver,
    no shuffle). Rows with a null key or null/non-positive weight are
    dropped — ``ln(u)/w`` is undefined / sign-flipped there, matching the
    SQL ``WHERE w > 0`` (null-key parity with ``hash_sample``). Integer
    keys use the SQL-reproducible Knuth hash; other key types hash via the
    vectorized 64-bit column hash (deterministic, not SQL-expressible).
    Returns the k sampled rows + ``score`` (round before hashing
    comparisons)."""
    import pyarrow.compute as pc

    from .aggregates import top_k

    def score(batch: pa.Table) -> pa.Table:
        col = batch[weight_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # drop null KEYS too: NaN→uint64 is an undefined cast (platform-
        # dependent garbage u, breaking the reproducibility contract);
        # matches hash_sample/stratified_sample null-key semantics
        ok = pc.and_kleene(
            pc.and_kleene(pc.is_valid(col), pc.is_valid(batch[key_column])),
            pc.greater(col.cast(pa.float64()), pa.scalar(0.0)))
        batch = batch.filter(ok.fill_null(False))
        kcol = batch[key_column].combine_chunks() \
            if isinstance(batch[key_column], pa.ChunkedArray) \
            else batch[key_column]
        if pa.types.is_integer(kcol.type):
            keys = kcol.to_numpy(zero_copy_only=False).astype(np.uint64)
            h = (keys * KNUTH + np.uint64(seed) * SEED_MIX) % _MOD
        else:               # string/other keys: vectorized 64-bit hash
            h = (hash64(kcol) + np.uint64(seed) * SEED_MIX) % _MOD
        u = (h.astype(np.float64) + 1.0) / 4294967297.0
        w = batch[weight_column].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.float64) \
            if isinstance(batch[weight_column], pa.ChunkedArray) \
            else batch[weight_column].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return batch.append_column(
            "score", pa.array(np.log(u) / w, pa.float64()))

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)
    return top_k(scored, "score", k, descending=True, tiebreak=key_column)


def stratified_sample(ds, group_column: str, key_column: str, k: int,
                      seed: int = 42, k_by_group: dict | None = None):
    """Per-group deterministic sample — per-source caps / balanced subsets
    in a training-data pipeline: each group keeps its ``k`` rows with the
    smallest Knuth-hashed key (ties by key), so the selection is stable
    across runs and block splits and reproducible in plain SQL
    (``row_number() OVER (PARTITION BY g ORDER BY knuth(key), key) <= k``).

    ONE hash-bucket groupby (whole groups per bucket — string group keys
    fine), in-group vectorized rank: dictionary-encoded group codes +
    lexsort + segmented arange. Only k rows per group leave the shuffle.
    Returns a Dataset of the kept rows + ``rk`` (1-based rank within group).

    Null semantics (review r4): a null GROUP value forms its own stratum
    (matching SQL ``PARTITION BY``); null KEY rows are dropped — SQL ranks
    them last with a nondeterministic row_number tiebreak, so there is no
    deterministic selection to reproduce.

    ``k_by_group`` (optional) overrides ``k`` with a PER-GROUP cap keyed by
    group value — groups absent from the dict keep NOTHING. This is the
    primitive under :func:`mixture_sample`."""
    import pyarrow.compute as pc

    from ..rayutil import bucket_groups

    def bucket_sample(body: pa.Table) -> pa.Table:
        vk = pc.is_valid(body[key_column])
        if not pc.all(vk).as_py():
            body = body.filter(vk)
        if body.num_rows == 0:
            return body.append_column("rk", pa.array([], pa.int64()))
        enc = body[group_column].combine_chunks().dictionary_encode()
        codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        key = body[key_column].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (key * KNUTH + np.uint64(seed) * SEED_MIX) % _MOD
        order = np.lexsort((key, h, codes))
        cs = codes[order]
        starts = np.flatnonzero(np.concatenate([[True], cs[1:] != cs[:-1]]))
        seg = np.repeat(starts, np.diff(np.concatenate([starts,
                                                        [cs.size]])))
        rk = np.arange(cs.size, dtype=np.int64) - seg + 1
        if k_by_group is None:
            cap_row = np.full(cs.size, k, np.int64)
        else:
            # dictionary index -1 is the null stratum (dict value None)
            caps = np.array(
                [int(k_by_group.get(v, 0))
                 for v in enc.dictionary.to_pylist()] + [
                    int(k_by_group.get(None, 0))], np.int64)
            cap_row = caps[cs]          # cs == -1 indexes the appended null
        sel = rk <= cap_row
        keep = order[sel]
        out = body.take(pa.array(keep, pa.int64()))
        return out.append_column("rk", pa.array(rk[sel], pa.int64()))

    return bucket_groups(ds, group_column, bucket_sample)


def mixture_sample(ds_factory, group_column: str, key_column: str,
                   proportions: dict, total: int, seed: int = 42):
    """Dataset-MIXTURE resampling — the "data mixing" step of an LLM
    training pipeline: sample each group (source/language/domain) to hit a
    target proportion of ``total``, capped by availability. Per-group cap =
    ``min(count_g, floor(total * proportions[g]))``; groups absent from
    ``proportions`` are dropped entirely; within a group the kept rows are
    the deterministic smallest-Knuth-hash ``key_column`` rows, so the
    selection is stable across runs and reproducible in plain SQL (same
    rank as :func:`stratified_sample`).

    ``ds_factory`` is a zero-arg callable returning the input Dataset —
    TWO passes run over it (same contract as ``text.tfidf_top_terms``):
    pass 1 streams per-group availability counts (group-cardinality rows to
    the driver, no shuffle), pass 2 is one stratified hash-bucket groupby
    keeping only the capped rows. Returns a Dataset of kept rows + ``rk``.
    """
    from ..rayutil import collect_partials

    def cnt(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select([group_column]), group_column) \
            .aggregate([([], "count_all")])
        return g.rename_columns([group_column, "n"])

    parts = collect_partials(ds_factory().map_batches(
        cnt, batch_format="pyarrow", zero_copy_batch=True))
    avail: dict = {}
    for t in pa.concat_tables(parts).group_by(group_column) \
            .aggregate([("n", "sum")]).to_pylist():
        avail[t[group_column]] = int(t["n_sum"])

    caps = {g: min(avail.get(g, 0), int(np.floor(total * float(p))))
            for g, p in proportions.items()}
    return stratified_sample(ds_factory(), group_column, key_column,
                             k=0, seed=seed, k_by_group=caps)


def split_thresholds(splits) -> list[tuple[str, int]]:
    """Cumulative uint32 thresholds for :func:`hash_split` — exposed so the
    SQL oracle can inline the EXACT integers the engine compares against
    (recomputing ``round(cum_share * 2^32)`` in SQL risks a one-ulp float
    divergence at the bucket edges). Thresholds depend only on the shares;
    the seed enters the HASH, never the cut points."""
    labels = [name for name, _ in splits]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate split labels: {labels}")
    shares = [float(s) for _, s in splits]
    if any(s < 0 for s in shares) or abs(sum(shares) - 1.0) > 1e-9:
        raise ValueError(f"split shares must be >=0 and sum to 1: {shares}")
    out, cum = [], 0.0
    for name, s in zip(labels, shares):
        cum += s
        out.append((name, int(round(cum * float(1 << 32)))))
    out[-1] = (out[-1][0], 1 << 32)   # remainder always lands in the last
    return out


def hash_split(ds, key_column: str, splits, seed: int = 42):
    """Deterministic train/val/test assignment — the canonical dataset-split
    step of a training pipeline: every row gets a ``split`` label from the
    Knuth-hashed key, so the partition is (a) stable across runs, block
    splits and cluster sizes, (b) consistent for a given key across
    DIFFERENT datasets (the same doc_id always lands in the same split — no
    train/test leakage when several tables are split with the same seed),
    and (c) reproducible in plain SQL via the same
    ``(key * 2654435761 + seed * 2654435769) % 2^32`` hash and the integer
    thresholds of :func:`split_thresholds`.

    ``splits`` is an ordered list of ``(label, share)`` with shares summing
    to 1 (the last label absorbs the rounding remainder). Streaming shape:
    ONE vectorized ``map_batches`` pass, no shuffle, no driver state. Null
    keys get a NULL split (they hash nowhere deterministic; callers filter
    or route them explicitly). Integer keys use the SQL-reproducible
    multiplicative hash; other dtypes the vectorized 64-bit column hash."""
    import pyarrow.compute as pc

    pairs = split_thresholds(splits)
    labels = pa.array([name for name, _ in pairs], pa.string())
    bounds = np.array([t for _, t in pairs], np.uint64)

    def assign(batch: pa.Table) -> pa.Table:
        col = batch[key_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col)
        if pa.types.is_integer(col.type):
            ids = col.fill_null(0).to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            h = (ids * KNUTH + np.uint64(seed) * SEED_MIX) % _MOD
        else:
            # polars hash handles nulls directly; the masked rows' hash
            # values never surface (null split below)
            h = (hash64(col) + np.uint64(seed) * SEED_MIX) % _MOD
        idx = np.searchsorted(bounds, h, side="right").astype(np.int32)
        lab = pc.take(labels, pa.array(idx, pa.int32()))
        lab = pc.if_else(valid, lab, pa.scalar(None, pa.string()))
        return batch.append_column("split", lab)

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)
