"""Distributed inverted-index build + boolean term search.

The index-build shape every search/retrieval stage of a training-data
pipeline needs: one pass extracts distinct (term, doc) postings per batch
(vectorized: Arrow split + dictionary-encode + one lexsort — no per-doc
Python), the keyed shuffle ``rayutil.bucket_groups`` hashed on the term
co-locates each term's postings, and each bucket emits one row per term:
``(term, df, postings)`` with the posting list packed as a sorted-int64
binary blob. Only vocabulary-scale rows leave the shuffle (Zipf: vocab ≪
corpus). Searches then read ONLY the matched terms' posting rows and
intersect sorted arrays — never the corpus.

At 100 TB: the build is a single all-to-all keyed by term hash (hot terms
are single-bucket but posting blobs are bounded by doc count; shard a
pathological term's postings by doc-id range if one term's list outgrows a
worker). The index Dataset can be written as term-bucket-partitioned
parquet for reuse (resumable, one directory per bucket).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import bucket_groups, collect_partials


def build_inverted_index(ds, column: str = "text", id_column: str = "doc_id"):
    """Dataset of ``(term, df, postings)`` — postings a binary blob of the
    term's SORTED distinct int64 doc ids. Docs must not repeat across input
    rows (one row per doc)."""

    def postings_partial(batch: pa.Table) -> pa.Table:
        """Distinct (term, doc) pairs of one batch."""
        # null text -> no postings (fill_null then the "" filter below;
        # NaN lens from a null list would crash np.repeat)
        words = pc.split_pattern(pc.fill_null(batch[column], ""), " ")
        lens = pc.list_value_length(words).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).combine_chunks()
        doc_rep = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        doc_rep = doc_rep[keep]
        codes = flat.dictionary_encode()
        idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((doc_rep, idx))
        ci, di = idx[order], doc_rep[order]
        new = np.empty(ci.size, bool)
        if ci.size:
            new[0] = True
            new[1:] = (ci[1:] != ci[:-1]) | (di[1:] != di[:-1])
        ci, di = ci[new], di[new]
        ids = batch[id_column].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "term": codes.dictionary.take(pa.array(ci, pa.int64())),
            "doc_id": pa.array(ids[di], pa.int64())})

    def merge_bucket(group: pa.Table) -> pa.Table:
        """One row per term: sorted distinct doc ids packed to a blob.
        The only per-item Python here iterates TERMS (vocab-scale)."""
        srt = group.sort_by([("term", "ascending"), ("doc_id", "ascending")])
        terms = srt["term"].combine_chunks()
        docs = srt["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        codes = terms.dictionary_encode()
        idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        new = np.empty(idx.size, bool)
        out_terms, out_df, out_blobs = [], [], []
        if idx.size:
            new[0] = True
            new[1:] = idx[1:] != idx[:-1]
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], idx.size)
            # distinct within a (term) run: docs repeat across input batches
            for s, e in zip(starts, ends):
                d = docs[s:e]
                d = d[np.concatenate([[True], d[1:] != d[:-1]])]
                out_terms.append(idx[s])
                out_df.append(d.size)
                out_blobs.append(d.tobytes())
        return pa.table({
            "term": codes.dictionary.take(
                pa.array(np.array(out_terms, np.int64), pa.int64())),
            "df": pa.array(np.array(out_df, np.int64), pa.int64()),
            "postings": pa.array(out_blobs, pa.binary()),
        })

    return bucket_groups(ds, "term", merge_bucket, prepare=postings_partial)


def term_search(index_ds, terms: list[str], mode: str = "and") -> np.ndarray:
    """Boolean search over a built index: sorted int64 doc ids matching ALL
    (``and``) or ANY (``or``) of ``terms``. Reads ONLY the matched terms'
    posting rows (a filter pushed into the index Dataset), never the corpus."""
    if mode not in ("and", "or"):
        raise ValueError(f"term_search: mode must be 'and' or 'or', "
                         f"got {mode!r}")
    want = pa.array(sorted(set(terms)), pa.string())

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "term" not in batch.column_names:
            return pa.table({"term": pa.array([], pa.string()),
                             "postings": pa.array([], pa.binary())})
        sel = batch.filter(pc.is_in(batch["term"], value_set=want))
        return sel.select(["term", "postings"])

    hits = index_ds.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True)
    found: dict[str, np.ndarray] = {}
    for t in collect_partials(hits):
        if "term" not in t.column_names:
            continue   # empty shuffle-partition blocks carry no schema
        for term, blob in zip(t["term"].to_pylist(),
                              t["postings"].to_pylist()):
            found[term] = np.frombuffer(blob, np.int64)
    lists = [found.get(term, np.zeros(0, np.int64)) for term in terms]
    if not lists:
        return np.zeros(0, np.int64)
    acc = lists[0]
    for d in lists[1:]:
        if mode == "and":
            acc = acc[np.isin(acc, d, assume_unique=True)]
        else:
            acc = np.union1d(acc, d)
    return acc


def bm25_search(ds, terms: list[str], id_column: str = "doc_id",
                column: str = "text", k1: float = 1.2, b: float = 0.75,
                top_k: int = 10) -> pa.Table:
    """BM25 ranked retrieval for a SMALL query over the raw corpus — the
    relevance-ranked sibling of `term_search`, shaped for the "few query
    terms, huge corpus" case where materializing an index first would be
    wasted work (retrieval-augmented dataset curation runs thousands of
    such ad-hoc scoring passes).

    Two streaming passes, NO shuffle:
    1. STATS — per-batch partials of (per-term df, doc count, token
       count), folded driver-side (one row per query term per block).
       Assumes one input row per document (the `build_inverted_index`
       contract).
    2. SCORE — broadcasts (terms, idf, avgdl) and computes each doc's
       ``Σ_t idf_t · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))`` with
       one bincount-matrix per batch (no per-doc Python), using the
       Lucene idf ``ln((N − df + 0.5)/(df + 0.5) + 1)``. Each batch
       emits only its local top-k by the TOTAL order (rounded-6dp score
       desc, id asc) — a per-batch top-k under a total order composes
       exactly, so the driver merge of block partials is the global
       top-k, and the 6dp pre-rounding makes the cut SQL-replayable.

    Tokenization is the repo-wide space-split convention; docs matching
    no query term are excluded (SQL inner-join semantics). Repeated
    query terms weight linearly (Lucene query-tf semantics: each term's
    contribution is multiplied by its multiplicity in ``terms``).
    Returns ``(id_column, score_r6)``.
    """
    qterms = list(dict.fromkeys(terms))            # stable-order distinct
    qtf = np.array([terms.count(t) for t in qterms], np.float64)
    want = pa.array(qterms, pa.string())
    empty = pa.table({id_column: pa.array([], pa.int64()),
                      "score_r6": pa.array([], pa.float64())})
    if not qterms:
        return empty

    def _tok(batch: pa.Table):
        """(flat tokens, per-doc lens, query-term idx, doc_rep) for the
        batch's non-null-text rows."""
        sel = batch.filter(pc.is_valid(batch[column]))
        words = pc.split_pattern(sel[column], " ")
        lens = pc.list_value_length(words).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words)
        idx = pc.index_in(flat, value_set=want).fill_null(-1) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        return sel, lens, idx, doc_rep

    T = len(qterms)

    def stats_partial(batch: pa.Table) -> pa.Table:
        _sel, lens, idx, doc_rep = _tok(batch)
        hit = idx >= 0
        # df = docs containing the term at least once: dedupe (term, doc)
        pair = idx[hit] * np.int64(len(lens) + 1) + doc_rep[hit]
        upair = np.unique(pair)
        df = np.bincount((upair // np.int64(len(lens) + 1)).astype(np.int64),
                         minlength=T) if len(lens) else np.zeros(T, np.int64)
        return pa.table({
            "term_i": pa.array(np.arange(T, dtype=np.int64)),
            "df": pa.array(df.astype(np.int64), pa.int64()),
            "n_docs": pa.array([len(lens)] + [0] * (T - 1), pa.int64()),
            "n_tokens": pa.array([int(lens.sum())] + [0] * (T - 1),
                                 pa.int64()),
        })

    parts = collect_partials(ds.map_batches(
        stats_partial, batch_format="pyarrow", zero_copy_batch=True))
    df = np.zeros(T, np.int64)
    n_docs = 0
    n_tokens = 0
    for t in parts:
        df[t["term_i"].to_numpy(zero_copy_only=False)] += \
            t["df"].to_numpy(zero_copy_only=False)
        n_docs += int(pc.sum(t["n_docs"]).as_py() or 0)
        n_tokens += int(pc.sum(t["n_tokens"]).as_py() or 0)

    if n_docs == 0:
        return empty
    avgdl = n_tokens / n_docs
    # query-tf-weighted idf, captured in the closure directly: a
    # |query|-sized float array ships with the serialized fn for free —
    # ray.put broadcast only pays off for large arrays (review r5)
    w = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0) * qtf

    def score(batch: pa.Table) -> pa.Table:
        sel, lens, idx, doc_rep = _tok(batch)
        if not len(lens):
            return empty
        hit = idx >= 0
        tf = np.bincount(doc_rep[hit] * np.int64(T) + idx[hit],
                         minlength=len(lens) * T) \
            .reshape(len(lens), T).astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * (lens[:, None] / avgdl))
        s = ((tf * (k1 + 1.0) / denom) * w[None, :]).sum(axis=1)
        keep = tf.sum(axis=1) > 0            # inner-join semantics
        if not keep.any():
            return empty
        ids = sel[id_column]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.cast(pa.int64()).to_numpy(zero_copy_only=False)[keep]
        r6 = np.round(s[keep], 6)
        order = np.lexsort((ids, -r6))[:top_k]  # local top-k, total order
        return pa.table({id_column: pa.array(ids[order], pa.int64()),
                         "score_r6": pa.array(r6[order], pa.float64())})

    parts = collect_partials(ds.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True))
    if not parts:
        return empty
    merged = pa.concat_tables(parts)
    ids = merged[id_column].to_numpy(zero_copy_only=False)
    r6 = merged["score_r6"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -r6))[:top_k]
    return pa.table({id_column: pa.array(ids[order], pa.int64()),
                     "score_r6": pa.array(r6[order], pa.float64())})
