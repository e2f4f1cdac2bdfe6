"""Unigram language-model fit + per-document log-probability scoring.

The classic corpus-level quality/outlier signal (CCNet-style filtering
uses a KenLM perplexity; the unigram variant is its exactly-SQL-checkable
core): fit token frequencies over a reference corpus, then score every
document by its mean token log-probability — template spam scores high,
lorem-ipsum/garbage scores low, and decontamination-adjacent pipelines
threshold on it.

Tokenization matches the repo-wide convention (``split_pattern(col, " ")``
↔ DuckDB ``string_split(col, ' ')``, empties kept, null texts dropped).

Scale shape: FIT is one streaming pass of per-batch explode+groupby
partials folded driver-side at VOCABULARY scale (the same
dictionary-scale contract as `vocab_entropy`; for a 100-TB open-web vocab
the named growth path is a distributed `grouped_sum` + minimum-count
truncation, which only changes where the fold runs). SCORE broadcasts the
(vocab, logprob) pair once via ``ray.put`` and is one vectorized
``map_batches`` pass: ``index_in`` for the token→logprob lookup,
``np.add.reduceat`` over the list offsets for the per-document mean — no
per-row Python, no shuffle in either pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import collect_partials


def unigram_fit(ds, column: str = "text"):
    """One streaming pass over ``ds[column]``: returns ``(vocab, logprob,
    total)`` where ``vocab`` is the sorted distinct-token pa.StringArray,
    ``logprob[i] = ln(count_i / total)`` and ``total`` is the corpus token
    count. Null texts are dropped (SQL ``unnest`` semantics)."""
    def partial(batch: pa.Table) -> pa.Table:
        col = batch[column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.drop_null()
        words = pc.list_flatten(pc.split_pattern(col, " "))
        g = pa.TableGroupBy(pa.table({"w": words}), "w") \
            .aggregate([([], "count_all")])
        return pa.table({"w": g["w"],
                         "c": g["count_all"].cast(pa.int64())})

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    if not parts:
        return (pa.array([], pa.string()), np.zeros(0, np.float64), 0)
    folded = pa.TableGroupBy(pa.concat_tables(parts), "w") \
        .aggregate([("c", "sum")]).sort_by("w")
    counts = folded["c_sum"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    total = int(counts.sum())
    # ln(c / tot), not ln(c) − ln(tot): bit-matches the SQL replay
    logprob = np.log(counts / float(total))
    vocab = folded["w"]
    if isinstance(vocab, pa.ChunkedArray):
        vocab = vocab.combine_chunks()
    return (vocab, logprob, total)


def unigram_score(ds, id_col: str, column: str, vocab, logprob):
    """Score each non-null-text row: returns a Dataset with ``(id_col,
    n_tokens, avg_logprob)``. Out-of-vocabulary tokens score ``-inf``
    (unsmoothed — a doc containing any unseen token gets ``-inf``, the
    strict-decontamination convention; smooth upstream by fitting with
    pseudo-counts if needed)."""
    import ray

    vocab_ref = ray.put(vocab)
    lp_ref = ray.put(logprob)

    def score(batch: pa.Table) -> pa.Table:
        voc = ray.get(vocab_ref)
        lp = ray.get(lp_ref)
        sel = batch.select([id_col, column])
        sel = sel.filter(pc.is_valid(sel[column]))
        words = pc.split_pattern(sel[column], " ")
        lens = pc.list_value_length(words).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words)
        idx = pc.index_in(flat, value_set=voc).fill_null(-1) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        # masked gather, not np.where(lp[maximum(idx,0)]): an EMPTY fitted
        # vocab (all-null fit corpus) must score every token -inf, and
        # np.where would eagerly index lp[0] out of bounds (review r5)
        vals = np.full(len(idx), -np.inf)
        hit = idx >= 0
        if hit.any():
            vals[hit] = lp[idx[hit]]
        # split_pattern yields >= 1 token per non-null text ('' -> ['']),
        # so every segment is non-empty and reduceat is well-defined
        starts = np.zeros(len(lens), np.int64)
        if len(lens):
            starts[1:] = np.cumsum(lens)[:-1]
        sums = np.add.reduceat(vals, starts) if len(lens) \
            else np.zeros(0, np.float64)
        ids = sel[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({
            id_col: ids,
            "n_tokens": pa.array(lens, pa.int64()),
            "avg_logprob": pa.array(sums / np.maximum(lens, 1),
                                    pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)
