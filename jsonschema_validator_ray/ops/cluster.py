"""Distributed k-means (spherical / cosine) over an embedding column.

The reference crate has no clustering; this is the engine's
semantic-clustering foundation for training-data pipelines (cluster-local
near-dedup, data mixing, IVF index training at corpus scale — SURVEY §2.2
embedding rows). Design for 100 TB:

- **Seeding** is one streaming `map_batches` pass: each block emits its k
  smallest-id rows, the driver merges k × n_blocks tiny partials — no sort
  shuffle, deterministic (a pure function of the corpus, like
  `simsearch.train_ivf_centroids`'s sorted-sample init).
- **Each Lloyd's iteration is ONE `map_batches` pass** emitting per-centroid
  partial `(count, vec_sum, objective)` rows (k rows per block, float64);
  the driver reduces the tiny partial table and re-broadcasts the k×d
  centroid matrix via `ray.put`. No all-to-all anywhere: the shuffle-free
  partial+final shape is exactly the engine's aggregate pattern
  (`ops/aggregates.py`).
- **Assignment** is a vectorized `x @ centroids.T` argmax per batch
  (ties → lowest centroid id, matching SQL `ORDER BY cos DESC, cid`).

Spherical k-means (unit-normalized rows and centroids, maximize the sum of
cosines) is used because the corpus similarity operators (`ops/simsearch`,
`ops/dedup` embedding paths) are cosine-based; Lloyd's objective is
monotonically non-decreasing, which the self-oracled gate row asserts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import collect_partials
from .simsearch import _to_matrix


def _unit_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def _tiny_collect(ds) -> pa.Table:
    """Materialize a partial-sized (k × n_blocks rows) Dataset driver-side."""
    return pa.concat_tables(collect_partials(ds), promote_options="default")


def seed_centroids(ds, vec_column: str, id_column: str, k: int) -> np.ndarray:
    """Deterministic seeds: the k smallest-``id_column`` vectors, found with
    one per-block min-k partial pass (no sort shuffle)."""
    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([id_column, vec_column])
        return sel.sort_by(id_column).slice(0, k)

    merged = _tiny_collect(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)).sort_by(id_column).slice(0, k)
    return _unit_rows(_to_matrix(merged[vec_column]))


def kmeans_fit(ds_factory, vec_column: str = "embedding",
               id_column: str = "vec_id", k: int = 8, iters: int = 4):
    """Full-corpus distributed Lloyd's. ``ds_factory`` is a zero-arg callable
    returning a fresh Dataset (one fresh scan per pass — the streaming
    alternative to pinning the corpus in the object store at 100 TB).

    Returns ``(centroids, objectives)`` — unit-row float64 ``(k, d)`` matrix
    and the per-iteration objective (mean max-cosine) list, whose
    non-decreasing property is the ``kmeans_clusters_embeddings`` gate
    invariant.
    """
    import ray

    cents = seed_centroids(ds_factory(), vec_column, id_column, k)
    k = cents.shape[0]              # corpus smaller than k: clamp (the
    objectives: list[float] = []    # reduce arrays below are k-sized)
    for _ in range(iters):
        ref = ray.put(cents)

        def partial(batch: pa.Table, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            xn = _unit_rows(_to_matrix(batch[vec_column]))
            cos = xn @ c.T
            a = np.argmax(cos, axis=1)
            kk, d = c.shape
            counts = np.bincount(a, minlength=kk).astype(np.int64)
            sums = np.zeros((kk, d), np.float64)
            # k is small: one vectorized sum per non-empty cluster beats
            # np.add.at's per-element scatter
            for cid in np.flatnonzero(counts):
                sums[cid] = xn[a == cid].sum(axis=0)
            return pa.table({
                "cid": pa.array(np.arange(kk, dtype=np.int64)),
                "n": pa.array(counts),
                "s": pa.array(list(sums), pa.list_(pa.float64())),
                "obj": pa.array(
                    np.full(kk, float(cos.max(axis=1).sum()) / kk,
                            np.float64)),
            })

        parts = _tiny_collect(ds_factory().map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True))
        n = np.zeros(k, np.int64)
        s = np.zeros((k, cents.shape[1]), np.float64)
        cids = parts["cid"].to_numpy(zero_copy_only=False)
        ns = parts["n"].to_numpy(zero_copy_only=False)
        svecs = _to_matrix(parts["s"]).astype(np.float64)
        np.add.at(n, cids, ns)
        np.add.at(s, cids, svecs)
        total = int(n.sum())
        objectives.append(float(parts["obj"].to_numpy(
            zero_copy_only=False).sum()) / max(total, 1))
        nonzero = n > 0
        new = cents.copy()
        new[nonzero] = _unit_rows(s[nonzero] / n[nonzero, None])
        cents = new
    return cents, objectives


def assign_clusters(ds, centroids: np.ndarray, vec_column: str = "embedding",
                    id_column: str = "vec_id") -> pa.Table:
    """Per-cluster stats under nearest-centroid (cosine) assignment:
    ``(cluster_id, n_members, min_<id>, obj_sum)``, computed with one
    partial+final pass (broadcast centroid matrix, no shuffle). Ties break
    to the lowest cluster id — `np.argmax` first-max, matching SQL
    ``ORDER BY cos DESC, cid``."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def partial(batch: pa.Table, _ref=ref) -> pa.Table:
        c = ray.get(_ref)
        xn = _unit_rows(_to_matrix(batch[vec_column]))
        cos = xn @ c.T
        a = np.argmax(cos, axis=1)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        kk = c.shape[0]
        counts = np.bincount(a, minlength=kk).astype(np.int64)
        mins = np.full(kk, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, a, ids.astype(np.int64))
        objs = np.zeros(kk, np.float64)
        np.add.at(objs, a, cos[np.arange(a.size), a])
        return pa.table({"cluster_id": pa.array(np.arange(kk,
                                                          dtype=np.int64)),
                         "n_members": pa.array(counts),
                         "min_id": pa.array(mins),
                         "obj_sum": pa.array(objs)})

    parts = _tiny_collect(ds.map_batches(partial, batch_format="pyarrow",
                                         zero_copy_batch=True))
    g = pa.TableGroupBy(parts, "cluster_id").aggregate(
        [("n_members", "sum"), ("min_id", "min"), ("obj_sum", "sum")])
    g = g.filter(pc.greater(g["n_members_sum"], 0))
    return pa.table({
        "cluster_id": g["cluster_id"],
        "n_members": g["n_members_sum"].cast(pa.int64()),
        "min_id": g["min_id_min"].cast(pa.int64()),
        "obj_sum": g["obj_sum_sum"],
    }).sort_by("cluster_id")
