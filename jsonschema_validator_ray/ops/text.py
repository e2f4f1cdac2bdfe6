"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language ID (stopword/charset heuristic), document
fingerprinting. All vectorized per Arrow batch; the language-ID stage is a
callable CLASS (actor pool) so its compiled tables load once per actor."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import bucket_groups, collect_partials, fold_partials, \
    strip_meta
from ..stages.groupcheck import run_starts

# minimal public stopword lists (top function words per language)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on",
           "with", "as", "was", "at", "by", "be", "this", "are", "or"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "zu",
           "den", "mit", "von", "auf", "für", "im", "dem", "des", "sich"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "un", "une", "dans",
           "que", "pour", "qui", "sur", "pas", "au", "par", "avec"},
    "es": {"el", "la", "los", "las", "de", "y", "es", "un", "una", "en", "que",
           "por", "para", "con", "no", "se", "del", "al"},
}


def add_token_count(ds, column: str = "text", out: str = "n_tokens"):
    """Whitespace token count, vectorized: count(' ') + 1 on space-normalized
    text (matches DuckDB ``len(string_split(text, ' '))`` for single-space
    corpora)."""
    def fn(batch: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(batch[column], " "), 1)
        return batch.append_column(out, n.cast(pa.int64()))
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_BPEISH = re.compile(r"\w+|[^\w\s]")


def add_bpeish_token_count(ds, column: str = "text", out: str = "n_bpe_tokens"):
    """BPE-ish token count: words + punctuation runs via the regex split
    most BPE vocabularies pre-tokenize with (``\\w+|[^\\w\\s]``). Counted
    with the vectorized Arrow RE2 kernel (``count_substring_regex``) — the
    same regex engine family as DuckDB, so SQL oracles match exactly; no
    per-row Python loop. Null text counts 0 (not null), matching the
    whitespace `add_token_count` convention."""
    def fn(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch[column],
                                     _BPEISH.pattern).cast(pa.int64())
        return batch.append_column(out, n.fill_null(0))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def add_quality_score(ds, column: str = "text"):
    """Heuristic quality features + score: length, punctuation ratio,
    uppercase ratio, mean word length, stopword ratio (en). Vectorized with
    pyarrow kernels; score is a bounded 0..1 combination."""
    stop_en = pa.array(sorted(_STOPWORDS["en"]))

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[column]
        n_chars = pc.utf8_length(text).cast(pa.float64())
        n_alpha = pc.utf8_length(
            pc.replace_substring_regex(text, r"[^A-Za-z]", "")).cast(pa.float64())
        n_punct = pc.utf8_length(
            pc.replace_substring_regex(text, r"[^.,;:!?]", "")).cast(pa.float64())
        n_upper = pc.utf8_length(
            pc.replace_substring_regex(text, r"[^A-Z]", "")).cast(pa.float64())
        n_tok = pc.add(pc.count_substring(text, " "), 1).cast(pa.float64())
        safe_chars = pc.max_element_wise(n_chars, 1.0)
        punct_ratio = pc.divide(n_punct, safe_chars)
        upper_ratio = pc.divide(n_upper, pc.max_element_wise(n_alpha, 1.0))
        mean_word_len = pc.divide(n_chars, n_tok)
        score = pc.multiply(
            pc.min_element_wise(pc.divide(n_chars, 200.0), 1.0),
            pc.subtract(1.0, pc.min_element_wise(punct_ratio, 1.0)))
        out = batch
        for name, arr in (("n_chars_calc", n_chars.cast(pa.int64())),
                          ("punct_ratio", punct_ratio),
                          ("upper_ratio", upper_ratio),
                          ("mean_word_len", mean_word_len),
                          ("quality_score", score)):
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


class LangIdStage:
    """Language-ID actor stage: stopword-hit voting over the four supported
    languages; ties/no-hits → 'unknown'. Stopword value-sets are built ONCE
    per actor (the model-load pattern).

    Vectorized ACROSS documents (VERDICT r4 #5): ONE slice+lower pass, ONE
    regex split to a flat token array, ONE ``pc.is_in`` per language over
    the flattened tokens, per-doc vote sums via ``np.add.reduceat`` — no
    per-doc Python. Tokens = maximal ``[a-zà-ÿäöüß]+`` runs of the
    lowercased first 2000 chars (splitting on the complement yields the
    same runs plus boundary ''s, which hit no stopword); votes count token
    MULTIPLICITY; ties keep the earlier language in en/de/fr/es order
    (``np.argmax`` first-max, matching the old strictly-greater loop)."""

    def __init__(self, column: str = "text", out: str = "lang_pred"):
        self.column = column
        self.out = out
        self.langs = list(_STOPWORDS)            # insertion order en/de/fr/es
        self.value_sets = [pa.array(sorted(_STOPWORDS[lg]))
                           for lg in self.langs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch.append_column(self.out, pa.array([], pa.string()))
        col = pc.fill_null(batch[self.column].combine_chunks()
                           if isinstance(batch[self.column], pa.ChunkedArray)
                           else batch[self.column], "")
        low = pc.utf8_lower(pc.utf8_slice_codeunits(col, 0, 2000))
        toks = pc.split_pattern_regex(low, "[^a-zà-ÿäöüß]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = pc.list_value_length(toks).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flat = toks.flatten()
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]) \
            .astype(np.int64)
        hits = np.zeros((n, len(self.langs)), np.int64)
        nonempty = counts > 0
        for j, vs in enumerate(self.value_sets):
            m = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if m.size:
                hits[nonempty, j] = np.add.reduceat(
                    m, starts[nonempty])[:np.count_nonzero(nonempty)]
        best = np.argmax(hits, axis=1)
        preds = np.array(["unknown"] + self.langs, object)[
            np.where(hits[np.arange(n), best] > 0, best + 1, 0)]
        return batch.append_column(self.out,
                                   pa.array(preds.tolist(), pa.string()))


def add_lang_id(ds, column: str = "text", concurrency=(1, 4)):
    return ds.map_batches(LangIdStage, fn_constructor_kwargs={"column": column},
                          batch_format="pyarrow", concurrency=concurrency)


def add_fingerprint(ds, column: str = "text", out: str = "fingerprint",
                    window: int = 64, cap: int = 4096):
    """Rolling-hash document fingerprint (winnowing-style): the minimum of a
    64-bit polynomial rolling hash over byte windows — stable under small
    shifts. Docs shorter than ``window`` hash their whole byte string; only
    the first ``cap`` UTF-8 bytes count.

    Vectorized ACROSS documents (VERDICT r4 #5) via the invertible-base
    prefix trick: hash(w at j) = B^{j+w-1} · (p_{j+w} − p_j) with
    p_i = Σ_{u<i} b_u·B^{−u}, all mod 2^64 (B odd ⇒ invertible). One
    truncated-bytes pool per batch, one weighted cumsum, one gather per
    window boundary, one ``np.minimum.reduceat`` per doc — zero per-doc
    Python. Power tables (B^i and B^{−i}, i ≤ cap) build once at factory
    time and ship with the closure."""
    B = 1000003
    Binv = pow(B, -1, 1 << 64)
    BP = np.empty(cap + 1, np.uint64)     # BP[i] = B^i mod 2^64
    PW = np.empty(cap + 1, np.uint64)     # PW[i] = B^-i mod 2^64
    BP[0] = PW[0] = 1
    with np.errstate(over="ignore"):
        for i in range(1, cap + 1):
            BP[i] = BP[i - 1] * np.uint64(B)
            PW[i] = PW[i - 1] * np.uint64(Binv)

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out_vals = np.zeros(n, np.uint64)
        if n == 0:
            return batch.append_column(out, pa.array(out_vals, pa.uint64()))
        col = batch[column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        bcol = pc.binary_slice(pc.fill_null(col, "").cast(pa.binary()),
                               0, cap)
        boff = np.frombuffer(bcol.buffers()[1], np.int32)[
            bcol.offset: bcol.offset + n + 1].astype(np.int64)
        data = np.frombuffer(bcol.buffers()[2], np.uint8)[boff[0]:boff[-1]] \
            .astype(np.uint64)
        boff = boff - boff[0]
        lens = boff[1:] - boff[:-1]
        # errstate CONTEXT, not np.seterr: a bare seterr would permanently
        # disable overflow reporting for every other stage sharing the
        # worker process (review r4); uint64 wraparound IS the hash here
        with np.errstate(over="ignore"):
            wlen = np.minimum(lens, window)            # short docs: full doc
            wcnt = np.where(lens > 0, lens - wlen + 1, 0)
            total = int(wcnt.sum())
            if total == 0:
                return batch.append_column(out,
                                           pa.array(out_vals, pa.uint64()))
            doc_of = np.repeat(np.arange(n), wcnt)
            c0 = np.concatenate([[0], np.cumsum(wcnt)[:-1]]).astype(np.int64)
            pos = np.arange(total, dtype=np.int64) - np.repeat(c0, wcnt)
            # weighted prefix sums: q_i = b_i * B^-(pos within doc)
            inpos = np.arange(data.size, dtype=np.int64) \
                - np.repeat(boff[:-1], lens)
            ce = np.zeros(data.size + 1, np.uint64)
            np.cumsum(data * PW[inpos], out=ce[1:])
            g0 = boff[:-1][doc_of] + pos
            g1 = g0 + wlen[doc_of]
            h = (ce[g1] - ce[g0]) * BP[pos + wlen[doc_of] - 1]
            nz = np.flatnonzero(wcnt)
            out_vals[nz] = np.minimum.reduceat(h, c0[nz])[:nz.size]
        return batch.append_column(out, pa.array(out_vals, pa.uint64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def add_word_repetition(ds, column: str = "text", id_column: str = "doc_id",
                        append: bool = False):
    """Intra-document word-repetition quality metric (the dup-span heuristic
    most web-scale text filters apply before near-dup): per document,
    ``n_words``, ``n_distinct_words`` and ``dup_ratio = 1 - distinct/words``.

    Fully vectorized per Arrow batch: ONE ``split_pattern`` (Arrow list
    array), ONE ``dictionary_encode`` of the flattened words (string → code,
    no Python strings materialized), ONE ``np.lexsort`` over (doc, code)
    with adjacent-diff distinct counting — zero per-document Python.
    Empty-string pieces from repeated separators count as words on BOTH the
    engine and the DuckDB ``string_split`` oracle side, by construction."""
    def fn(batch: pa.Table) -> pa.Table:
        valid = pc.is_valid(batch[column])
        words = pc.split_pattern(pc.fill_null(batch[column], ""), " ")
        lens = pc.list_value_length(words).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        codes = pc.list_flatten(words).combine_chunks().dictionary_encode()
        idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_rep = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        order = np.lexsort((idx, doc_rep))
        di, ci = doc_rep[order], idx[order]
        new = np.empty(di.size, bool)
        if di.size:
            new[0] = True
            new[1:] = (di[1:] != di[:-1]) | (ci[1:] != ci[:-1])
        n_distinct = np.bincount(di[new], minlength=lens.size) \
            .astype(np.int64)
        dup_ratio = 1.0 - n_distinct / lens    # exact IEEE ops: matches SQL
        # null text -> null metrics (SQL string_split(NULL) semantics), the
        # fill_null above only exists to keep the vector math crash-free
        cols = {
            "n_words": pc.if_else(valid, pa.array(lens, pa.int64()),
                                  pa.scalar(None, pa.int64())),
            "n_distinct_words": pc.if_else(
                valid, pa.array(n_distinct, pa.int64()),
                pa.scalar(None, pa.int64())),
            "dup_ratio": pc.if_else(valid,
                                    pa.array(dup_ratio, pa.float64()),
                                    pa.scalar(None, pa.float64())),
        }
        if append:                  # keep every input column (composition)
            out = batch
            for name, arr in cols.items():
                out = out.append_column(name, arr)
            return out
        return pa.table({id_column: batch[id_column], **cols})
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def tfidf_top_terms(ds_factory, column: str = "text",
                    id_column: str = "doc_id", k: int = 3):
    """Per-document top-``k`` TF-IDF terms over the corpus — the classic
    keyword-extraction stage of a training-data pipeline.

    Two streaming passes:

    1. **DF pass**: per batch, distinct (doc, term) pairs are counted per
       term (dictionary-encode + lexsort, no per-doc Python); the per-batch
       partials are summed driver-side into the (term → document frequency)
       vocabulary plus the corpus size N. The vocabulary is Zipf-bounded
       (≪ corpus bytes) and is broadcast ONCE via ``ray.put``; at a scale
       where the vocab outgrows a broadcast, swap the lookup for a
       reduce-side join on term — the pass structure is unchanged.
    2. **Score pass**: per batch, per-(doc, term) tf via the same
       encode+lexsort, df looked up with ``pc.index_in`` against the
       broadcast vocab, score = ``tf * (N / df)`` (linear-idf variant: every
       arithmetic op is an exactly-rounded IEEE double op, so scores are
       BIT-IDENTICAL to the SQL oracle's — ``ln``-idf ranks ties of this
       variant identically but is not reproducible across engines to the
       last ulp; swap ``N / df`` for ``np.log(N / df)`` if drift-tolerant),
       then per-doc top-k by (score desc, term asc) with one lexsort and a
       segmented rank — no per-doc Python.

    ``ds_factory`` is a zero-arg callable returning a fresh Dataset over the
    corpus (two passes = two reads; a factory keeps both reads
    column-pruned at the source instead of materializing pass 1's input).
    Returns a Dataset of (id, term, tf, df, score, rank), rank 1-based.
    """
    import ray

    def flat_terms(batch: pa.Table):
        # null text -> no terms (fill_null + the "" filter below)
        words = pc.split_pattern(pc.fill_null(batch[column], ""), " ")
        lens = pc.list_value_length(words).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).combine_chunks()
        doc_rep = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        return flat.filter(pa.array(keep)), doc_rep[keep]

    def df_partial(batch: pa.Table) -> pa.Table:
        flat, doc_rep = flat_terms(batch)
        codes = flat.dictionary_encode()
        idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((idx, doc_rep))
        di, ci = doc_rep[order], idx[order]
        new = np.empty(di.size, bool)
        if di.size:
            new[0] = True
            new[1:] = (di[1:] != di[:-1]) | (ci[1:] != ci[:-1])
        dfc = np.bincount(ci[new], minlength=len(codes.dictionary))
        return pa.table({"term": codes.dictionary,
                         "df": pa.array(dfc, pa.int64())})

    # pass 1: document frequencies (docs never span batches, so per-batch
    # distinct-(doc,term) counts sum exactly); N from parquet metadata
    n_docs = ds_factory().count()
    parts = [t.select(["term", "df"]) for t in collect_partials(
        ds_factory().map_batches(df_partial, batch_format="pyarrow",
                                 zero_copy_batch=True))]
    vocab_tbl = pa.TableGroupBy(pa.concat_tables(parts), "term") \
        .aggregate([("df", "sum")]).sort_by("term") if parts else \
        pa.table({"term": pa.array([], pa.string()),
                  "df_sum": pa.array([], pa.int64())})
    vocab_ref = ray.put((vocab_tbl["term"].combine_chunks(),
                         vocab_tbl["df_sum"].combine_chunks()
                         .to_numpy(zero_copy_only=False).astype(np.int64),
                         float(n_docs)))

    def score_topk(batch: pa.Table) -> pa.Table:
        terms_arr, dfs, n = ray.get(vocab_ref)
        flat, doc_rep = flat_terms(batch)
        codes = flat.dictionary_encode()
        idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((idx, doc_rep))
        di, ci = doc_rep[order], idx[order]
        new = np.empty(di.size, bool)
        if di.size:
            new[0] = True
            new[1:] = (di[1:] != di[:-1]) | (ci[1:] != ci[:-1])
        starts = np.flatnonzero(new)
        bounds = np.append(starts, di.size)
        tf = (bounds[1:] - bounds[:-1]).astype(np.int64)
        g_doc, g_code = di[starts], ci[starts]
        # alphabetical rank + df via ONE index_in against the sorted vocab
        vpos = pc.index_in(codes.dictionary, value_set=terms_arr) \
            .to_numpy(zero_copy_only=False).astype(np.int64)[g_code]
        score = tf * (n / dfs[vpos])        # exactly-rounded IEEE: SQL-exact
        sel = np.lexsort((vpos, -score, g_doc))
        seg = np.flatnonzero(np.concatenate(
            [[True], g_doc[sel][1:] != g_doc[sel][:-1]]))
        rank = np.arange(sel.size, dtype=np.int64) \
            - np.repeat(seg, np.append(seg[1:], sel.size) - seg)
        mask = rank < k
        keep = sel[mask]                # original group indices of top-k
        kept_rank = rank[mask]          # aligned: rank[i] ranks sel[i]
        ids = batch[id_column].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            id_column: pa.array(ids[g_doc[keep]]),
            "term": terms_arr.take(pa.array(vpos[keep], pa.int64())),
            "tf": pa.array(tf[keep], pa.int64()),
            "df": pa.array(dfs[vpos[keep]], pa.int64()),
            "score": pa.array(score[keep], pa.float64()),
            "rank": pa.array(kept_rank + 1, pa.int64()),
        })

    return ds_factory().map_batches(score_topk, batch_format="pyarrow",
                                    zero_copy_batch=True)


def chunk_text(ds, column: str = "text", id_column: str = "doc_id",
               chunk_chars: int = 200, overlap: int = 40):
    """Split documents into fixed-width overlapping character windows — the
    standard prep step for embedding / context-window-bounded training data.

    Chunk ``k`` of a document covers codepoints ``[k*stride, k*stride +
    chunk_chars)`` with ``stride = chunk_chars - overlap``; a chunk exists
    iff ``k*stride < len(text)``, so every codepoint lands in >=1 chunk and
    consecutive chunks share ``overlap`` codepoints. Matches SQL
    ``substring(text, k*stride + 1, chunk_chars)`` exactly (both
    ``pc.utf8_slice_codeunits`` and DuckDB ``substring`` count codepoints).

    Fully vectorized and streaming: one `map_batches` flat-map, no shuffle;
    per batch it loops over chunk ORDINALS (bounded by max_doc_len/stride,
    not rows), each ordinal one Arrow filter + slice. At 100 TB this is a
    pure row-local stage — output scales by ~len/stride, so block sizes
    stay bounded by the input block size times that factor.
    """
    if overlap >= chunk_chars:
        raise ValueError("overlap must be < chunk_chars")
    stride = chunk_chars - overlap

    def fn(batch: pa.Table) -> pa.Table:
        lens = pc.utf8_length(batch[column]).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
        outs = []
        k = 0
        while True:
            mask = lens > k * stride
            if not mask.any():
                break
            sel = batch.filter(pa.array(mask))
            piece = pc.utf8_slice_codeunits(
                sel[column], start=k * stride, stop=k * stride + chunk_chars)
            outs.append(pa.table({
                id_column: sel[id_column],
                "chunk_idx": pa.array(
                    np.full(sel.num_rows, k, np.int64)),
                "chunk_text": piece,
                "n_chunk_chars": pc.utf8_length(piece).cast(pa.int64()),
            }))
            k += 1
        if not outs:
            return pa.table({
                id_column: pa.array([], batch.schema.field(id_column).type),
                "chunk_idx": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
                "n_chunk_chars": pa.array([], pa.int64()),
            })
        return pa.concat_tables(outs)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def redact_pattern(ds, column: str, pattern: str = r"[0-9]+",
                   replacement: str = "<NUM>", out: str = "redacted",
                   hits: str = "n_redactions"):
    """Regex redaction (PII-scrub shape): replace every match of ``pattern``
    in ``column`` with ``replacement`` and count the matches per row.

    Both kernels are Arrow RE2 (`replace_substring_regex` /
    `count_substring_regex`) — the same regex engine family as DuckDB's
    `regexp_replace` / `regexp_extract_all`, so oracle SQL matches exactly
    for RE2-compatible patterns. Stateless row-local `map_batches`: at
    100 TB this streams with zero shuffle and the pattern compiles once
    per kernel invocation inside Arrow (no per-row Python).
    """
    def fn(batch: pa.Table) -> pa.Table:
        col = batch[column]
        return batch.append_column(
            out, pc.replace_substring_regex(
                col, pattern=pattern, replacement=replacement)) \
            .append_column(hits, pc.count_substring_regex(
                col, pattern=pattern).cast(pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def vocab_entropy(ds, key: str, column: str = "text"):
    """Per-group Shannon entropy (bits) of the space-token vocabulary
    distribution — the corpus-diversity statistic a training-data pipeline
    uses to spot template-generated or low-diversity slices.

    Tokenization matches the repo-wide convention (``split_pattern(col,
    " ")`` ↔ DuckDB ``string_split(col, ' ')``, empties kept). Scale shape:
    the per-batch partial explodes tokens and pre-aggregates to distinct
    ``(key, word, count)`` rows (Arrow group-by, no per-row Python), so the
    hash-bucket shuffle moves vocabulary-sized rows, not token-sized; the
    in-bucket final folds counts once more and computes each key's entropy
    with one segmented ``bincount`` pass. Null keys/texts are dropped.

    Returns columns ``(key, entropy, n_words)``.
    """
    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, column])
        mask = pc.and_kleene(pc.is_valid(sel[key]),
                             pc.is_valid(sel[column])).fill_null(False)
        sel = sel.filter(mask)
        words = pc.split_pattern(sel[column], " ")
        lens = pc.list_value_length(words).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        karr = sel[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        rep = karr.take(pa.array(
            np.repeat(np.arange(len(lens), dtype=np.int64), lens)))
        t = pa.table({key: rep, "w": pc.list_flatten(words)})
        g = pa.TableGroupBy(t, [key, "w"]).aggregate([([], "count_all")])
        return pa.table({key: g[key], "w": g["w"],
                         "c": g["count_all"].cast(pa.int64())})

    def final(body: pa.Table) -> pa.Table:
        if body.num_rows == 0:
            return pa.table({key: body[key],
                             "entropy": pa.array([], pa.float64()),
                             "n_words": pa.array([], pa.int64())})
        folded = pa.TableGroupBy(body, [key, "w"]).aggregate([("c", "sum")])
        srt = folded.sort_by([(key, "ascending")])
        karr = srt[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        c = srt["c_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        first = run_starts(karr)
        gid = np.cumsum(first) - 1
        tot = np.bincount(gid, weights=c)
        p = c / tot[gid]
        ent = np.bincount(gid, weights=-p * np.log2(p))
        idx = np.flatnonzero(first)
        return pa.table({key: karr.take(pa.array(idx, pa.int64())),
                         "entropy": pa.array(ent, pa.float64()),
                         "n_words": pa.array(tot.astype(np.int64),
                                             pa.int64())})

    return bucket_groups(ds, key, final, prepare=partial)


def pattern_census(ds, key: str, column: str,
                   patterns: "dict[str, str]") -> pa.Table:
    """Multi-pattern regex census — the PII / compliance-scan shape: for
    each named RE2 pattern, report per-``key`` totals of (a) matches and
    (b) rows with at least one match. A real pipeline points this at
    email/phone/SSN patterns before release gating; the op is the same
    regardless of pattern set.

    Scale shape: one streaming pass, NO shuffle at any size — each batch
    runs every pattern through the vectorized Arrow RE2 kernel
    (``count_substring_regex``, the same regex family as DuckDB's
    ``regexp_extract_all``, so oracle SQL matches exactly for
    RE2-compatible patterns) and pre-aggregates to ``(key, pattern,
    n_matches, n_rows)`` partials whose cardinality is |key domain| ×
    |patterns|; the driver folds the tiny partials with one final
    group-by. Rows where ``key`` or ``column`` is null are dropped (the
    SQL ``WHERE both IS NOT NULL`` contract). Patterns compile once per
    kernel invocation inside Arrow — no per-row Python anywhere.

    Returns ``(key, pattern, n_matches, n_rows)`` sorted by
    (pattern, key)."""
    names = sorted(patterns)
    pats = dict(patterns)

    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, column])
        mask = pc.and_kleene(pc.is_valid(sel[key]),
                             pc.is_valid(sel[column])).fill_null(False)
        sel = sel.filter(mask)
        parts = []
        for name in names:
            cnt = pc.count_substring_regex(
                sel[column], pattern=pats[name]).cast(pa.int64())
            t = pa.table({key: sel[key], "c": cnt,
                          "hit": pc.greater(cnt, 0).cast(pa.int64())})
            g = pa.TableGroupBy(t, key).aggregate(
                [("c", "sum"), ("hit", "sum")])
            parts.append(pa.table({
                key: g[key],
                "pattern": pa.array([name] * g.num_rows, pa.string()),
                "n_matches": g["c_sum"].cast(pa.int64()),
                "n_rows": g["hit_sum"].cast(pa.int64())}))
        out = pa.concat_tables(parts) if parts else None
        if out is None or out.num_rows == 0:
            return pa.table({key: pa.array([], batch.schema.field(key).type),
                             "pattern": pa.array([], pa.string()),
                             "n_matches": pa.array([], pa.int64()),
                             "n_rows": pa.array([], pa.int64())})
        return strip_meta(out)

    folded = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [key, "pattern"], ["n_matches", "n_rows"])
    if folded is None:
        return pa.table({key: pa.array([], pa.string()),
                         "pattern": pa.array([], pa.string()),
                         "n_matches": pa.array([], pa.int64()),
                         "n_rows": pa.array([], pa.int64())})
    return folded.sort_by([("pattern", "ascending"), (key, "ascending")])


def bigram_counts(ds, column: str = "text") -> pa.Table:
    """Corpus-wide adjacent-token-pair counts — the inner statistic of a
    BPE tokenizer-training merge step (count every adjacent symbol pair,
    merge the argmax) and of bigram language models. Tokenization is the
    repo-wide convention: ``split_pattern(col, " ")`` ↔ DuckDB
    ``string_split(col, ' ')``, empties kept; pairs never cross document
    boundaries.

    Scale shape: one streaming pass, NO shuffle — per batch, tokens
    flatten to one values buffer + offsets, pair indices come from a
    single boolean mask that knocks out each document's final token
    (pure offset arithmetic, no per-doc Python), and an Arrow group-by
    collapses the batch to distinct ``(a, b, n)`` partials. The driver
    folds partials with one final group-by: partial cardinality is
    bounded by the bigram vocabulary, not row count. Null texts drop.

    Returns ``(a, b, n)`` sorted by (a, b)."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.drop_null()
        empty = pa.table({"a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if len(col) == 0:
            return empty
        words = pc.split_pattern(col, " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.values
        if len(flat) < 2:
            return empty
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.ones(len(flat), bool)
        # each list's last token starts no pair (lists here are never
        # empty: split of a non-null string yields >= 1 token)
        mask[offs[1:] - 1] = False
        idx = np.flatnonzero(mask)
        t = pa.table({"a": flat.take(pa.array(idx, pa.int64())),
                      "b": flat.take(pa.array(idx + 1, pa.int64()))})
        g = pa.TableGroupBy(t, ["a", "b"]).aggregate([([], "count_all")])
        return strip_meta(pa.table({
            "a": g["a"], "b": g["b"],
            "n": g["count_all"].cast(pa.int64())}))

    folded = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), ["a", "b"], ["n"])
    if folded is None:
        return pa.table({"a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return folded.sort_by([("a", "ascending"), ("b", "ascending")])


def vocab_coverage(ds, column: str = "text", top_k: int = 1000) -> pa.Table:
    """Tokenizer vocabulary-coverage curve point: the fraction of all
    token OCCURRENCES covered by the ``top_k`` most frequent tokens —
    the statistic that decides a tokenizer's vocab size (coverage
    ≥ 99.9% at k means a k-entry vocab leaves ≤0.1% of the stream as
    OOV/bytes). Tokenization is the repo-wide space-split convention.

    Scale shape: per-batch Arrow group-by collapses tokens to distinct
    ``(word, n)`` partials (vocabulary-sized, never token-stream-sized),
    one driver fold, one ``np.sort`` at vocabulary scale. Top-k ties
    break by total count only (coverage is a SUM over the k largest
    counts, so which same-count word enters the cutoff cannot change
    the result — SQL-stable without a tiebreaker). Null texts drop.

    Returns one row: ``(n_tokens, n_vocab, top_k, covered, coverage)``
    with ``coverage`` the IEEE double ``covered / n_tokens``."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[column].drop_null()
        words = pc.list_flatten(pc.split_pattern(col, " "))
        g = pa.TableGroupBy(pa.table({"w": words}), "w") \
            .aggregate([([], "count_all")])
        return strip_meta(pa.table({
            "w": g["w"], "n": g["count_all"].cast(pa.int64())}))

    folded = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), ["w"], ["n"])
    if folded is None:
        return pa.table({"n_tokens": pa.array([0], pa.int64()),
                         "n_vocab": pa.array([0], pa.int64()),
                         "top_k": pa.array([top_k], pa.int64()),
                         "covered": pa.array([0], pa.int64()),
                         "coverage": pa.array([float("nan")],
                                              pa.float64())})
    n = folded["n"].to_numpy(zero_copy_only=False)
    total = int(n.sum())
    srt = np.sort(n)[::-1]
    covered = int(srt[:top_k].sum())
    return pa.table({
        "n_tokens": pa.array([total], pa.int64()),
        "n_vocab": pa.array([int(n.size)], pa.int64()),
        "top_k": pa.array([top_k], pa.int64()),
        "covered": pa.array([covered], pa.int64()),
        "coverage": pa.array([covered / total], pa.float64())})
