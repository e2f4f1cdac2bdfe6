"""Similarity search over an embedding column (``list<float>``).

- Brute-force cosine top-k: the baseline — the query matrix is broadcast via
  ``ray.put`` ONCE; every batch does one numpy matmul against it and emits
  only its local top-k (partial top-k), so the shuffle carries k rows per
  batch, not the corpus.
- IVF (inverted-file) variant: k-means-lite centroids trained on a sample,
  vectors assigned to nearest centroid inside ``map_batches``; queries probe
  only the nearest ``n_probe`` centroid buckets — the at-scale path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rayutil import collect_partials


def _to_matrix(col) -> np.ndarray:
    """Arrow list<float> / fixed_size_list<float> column → (n, dim) float64
    matrix via zero-copy flatten of the child values — never to_pylist()."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), np.float64)
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        # flatten() is SLICE-AWARE; .values ignores the slice offset and
        # crashes the reshape on any sliced column (review r4)
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(n, dim).astype(np.float64, copy=False)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    if not (widths == widths[0]).all():
        return np.asarray(col.to_pylist(), np.float64)  # ragged: slow path
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(n, int(widths[0])).astype(np.float64, copy=False)


def brute_force_topk(ds, query_vectors: np.ndarray, id_column: str,
                     vec_column: str, k: int = 5,
                     exclude_ids=None) -> pa.Table:
    """Exact cosine top-k for each query vector.

    Returns (query_idx, vec_id-named id_column, cos) with deterministic
    (cos desc, id asc) ordering per query.
    """
    import ray

    q = np.asarray(query_vectors, np.float64)
    if q.ndim == 1:
        q = q[None, :]
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q_ref = ray.put(qn)                      # broadcast once
    excl = set(exclude_ids or ())

    def partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)                  # zero-copy from local store
        ids = batch[id_column].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        mat = _to_matrix(batch[vec_column])
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = qm @ mat.T                    # (n_q, n_batch)
        out_q, out_id, out_cos = [], [], []
        for qi in range(qm.shape[0]):
            s = sims[qi]
            mask = ~np.isin(ids, list(excl)) if excl else \
                np.ones(len(ids), bool)
            cand = np.flatnonzero(mask)
            if cand.size == 0:
                continue
            # local top-k: only these rows can reach the global answer.
            # lexsort (cos desc, id asc) — position-order tiebreak would
            # drop the SMALLEST id on ties at the k boundary and make the
            # result depend on block partitioning (review r4)
            take = cand[np.lexsort((ids[cand], -s[cand]))[:k]]
            out_q += [qi] * take.size
            out_id += ids[take].tolist()
            out_cos += s[take].tolist()
        return pa.table({
            "query_idx": pa.array(out_q, pa.int32()),
            id_column: pa.array(out_id, pa.int64()),
            "cos": pa.array(out_cos, pa.float64()),
        })

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")
    # final: per-query global top-k with deterministic tiebreak
    out = []
    for qi in sorted(set(parts["query_idx"].to_pylist())):
        sub = parts.filter(pa.compute.equal(parts["query_idx"], qi))
        sub = sub.sort_by([("cos", "descending"), (id_column, "ascending")])
        out.append(sub.slice(0, k))
    return pa.concat_tables(out) if out else parts


def train_ivf_centroids(ds, vec_column: str, n_centroids: int = 16,
                        sample_rows: int = 2048, iters: int = 8,
                        seed: int = 13, id_column: str | None = None) -> np.ndarray:
    """k-means-lite on a driver-side sample (Lloyd iterations, numpy).

    With ``id_column`` the sample is a deterministic hash sample spread over
    the WHOLE corpus (ops/sampling.py), not the first ``sample_rows`` rows —
    first-rows sampling biases centroids toward the leading files' clusters.
    ``ds.count()`` is metadata-only for parquet sources."""
    src = ds.select_columns([c for c in (id_column, vec_column) if c])
    if id_column is not None:
        from .sampling import hash_sample

        total = ds.count()
        if total > sample_rows:
            frac = min(1.0, 2.0 * sample_rows / total)
            src = hash_sample(src, id_column, frac, seed=seed)
        # keep EVERY hash survivor (~2x sample_rows): a limit() here would
        # keep the first sample_rows in dataset order and re-introduce the
        # leading-files bias the hash sample exists to remove (review r4)
    else:
        src = src.limit(sample_rows)
    sample = pa.concat_tables(collect_partials(src, keep_empty=True),
                              promote_options="default")
    if id_column is not None:
        # block-arrival order is NOT deterministic (parallel read tasks);
        # sorting the sample by id makes the k-means init — and therefore
        # every IVF result — a pure function of the corpus, which the
        # recall-1.0 self-oracle (ivf_search_embeddings) depends on
        sample = sample.sort_by(id_column)
    x = _to_matrix(sample[vec_column])
    x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    cents = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            members = x[assign == c]
            if len(members):
                v = members.mean(axis=0)
                cents[c] = v / max(np.linalg.norm(v), 1e-12)
    return cents


def ivf_topk(ds, query_vectors: np.ndarray, id_column: str, vec_column: str,
             k: int = 5, n_centroids: int = 16, n_probe: int = 4,
             exclude_ids=None) -> pa.Table:
    """IVF approximate top-k: assign batch vectors to centroids, search only
    the ``n_probe`` buckets nearest each query. Same output schema as
    brute_force_topk."""
    import ray

    cents = train_ivf_centroids(ds, vec_column, n_centroids,
                                id_column=id_column)
    q = np.asarray(query_vectors, np.float64)
    if q.ndim == 1:
        q = q[None, :]
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    probes = np.argsort(-(qn @ cents.T), axis=1)[:, :n_probe]  # (n_q, n_probe)
    cents_ref = ray.put(cents)
    q_ref = ray.put(qn)
    probes_ref = ray.put(probes)
    excl = set(exclude_ids or ())

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        qm = ray.get(q_ref)
        pr = ray.get(probes_ref)
        ids = batch[id_column].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        mat = _to_matrix(batch[vec_column])
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        assign = np.argmax(mat @ c.T, axis=1)
        out_q, out_id, out_cos = [], [], []
        for qi in range(qm.shape[0]):
            in_probe = np.isin(assign, pr[qi])
            if excl:
                in_probe &= ~np.isin(ids, list(excl))
            cand = np.flatnonzero(in_probe)
            if cand.size == 0:
                continue
            s = mat[cand] @ qm[qi]
            # same (cos desc, id asc) local tiebreak as brute_force_topk
            take = cand[np.lexsort((ids[cand], -s))[:k]]
            out_q += [qi] * take.size
            out_id += ids[take].tolist()
            out_cos += (mat[take] @ qm[qi]).tolist()
        return pa.table({
            "query_idx": pa.array(out_q, pa.int32()),
            id_column: pa.array(out_id, pa.int64()),
            "cos": pa.array(out_cos, pa.float64()),
        })

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")
    out = []
    for qi in sorted(set(parts["query_idx"].to_pylist())):
        sub = parts.filter(pa.compute.equal(parts["query_idx"], qi))
        sub = sub.sort_by([("cos", "descending"), (id_column, "ascending")])
        out.append(sub.slice(0, k))
    return pa.concat_tables(out) if out else parts


def label_centroids(ds, label_column: str = "label",
                    vec_column: str = "embedding"):
    """Per-label centroid sums over an embedding column — the aggregation
    an IVF/coarse-quantizer training stage needs, in EXACT integer space.

    Each component is fixed-pointed as ``floor(x * 2**24)`` (scaling a
    double by a power of two is exact, and ``floor`` — unlike ``round`` —
    has no .5 ties, so numpy and SQL agree bitwise on every value), then
    partially summed per (label, dim) inside each batch with one stable
    sort + ``np.add.reduceat`` over the (rows × dim) matrix. Partials are
    label×dim-scale (tiny), merged with one final groupby. The caller
    divides ``sum_e24 / (n * 2**24)`` for the float centroid.

    Returns a Dataset of ``(label, dim, sum_e24, n)``, dim 1-based."""
    def partial(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch[vec_column])          # (n, dim) float64
        dim = m.shape[1] if m.size else 0
        if m.shape[0] == 0 or dim == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "sum_e24": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        scaled = np.floor(m * 16777216.0).astype(np.int64)
        labels = batch[label_column].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(labels, kind="stable")
        ls, ms = labels[order], scaled[order]
        new = np.empty(ls.size, bool)
        new[0] = True
        new[1:] = ls[1:] != ls[:-1]
        starts = np.flatnonzero(new)
        counts = np.append(starts[1:], ls.size) - starts
        sums = np.add.reduceat(ms, starts, axis=0)   # (L, dim)
        n_lab = starts.size
        return pa.table({
            "label": pa.array(np.repeat(ls[starts], dim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                    n_lab), pa.int64()),
            "sum_e24": pa.array(sums.ravel(), pa.int64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    return ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
