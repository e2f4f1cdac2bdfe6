"""Exact distributed order statistics (SURVEY.md §2.2 aggregations row).

`ks_two_sample` is the exact two-sample Kolmogorov–Smirnov statistic — the
standard numeric-drift test a training-data pipeline runs between two data
slices (time periods, sources, shards). Unlike the sketch-based
`state/drift.py::ks_statistic_from_cdf` (t-digest approximation against a
reference CDF), this one is EXACT over the full data.

Scale shape: KS is an order statistic, so ONE global range sort of the
distinct-value fold is unavoidable. Everything around it is shrunk first:
a per-batch `(value, count_a, count_b)` fold turns the sort input from
row-scale into distinct-value-scale, then two tiny per-block passes (a
summary pass for cross-block prefix offsets, a vectorized CDF-gap pass)
finish the job. The per-block passes run as raw Ray tasks over the
materialized sorted block refs — the Dataset API cannot express a
cross-block prefix scan. Partitioning assumption (documented, exact): Ray
sort produces range-partitioned blocks that are value-disjoint except
possibly at boundary ties; a value whose run continues into the next block
(next block's min equals it) is evaluated only in the LAST block containing
it, where the prefix offsets already include every earlier occurrence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import block_refs, bucket_groups, collect_partials, \
    fold_partials, strip_meta


def _fold_partial(value_col: str, side_col: str):
    def fold(batch: pa.Table) -> pa.Table:

        sel = batch.select([value_col, side_col])
        mask = pc.and_kleene(pc.is_valid(sel[value_col]),
                             pc.is_valid(sel[side_col])).fill_null(False)
        sel = sel.filter(mask)
        side = sel[side_col].cast(pa.int64())
        t = pa.table({value_col: sel[value_col], "ca": side,
                      "cb": pc.subtract(pa.scalar(1, pa.int64()), side)})
        g = pa.TableGroupBy(t, value_col).aggregate([("ca", "sum"),
                                                     ("cb", "sum")])
        return strip_meta(pa.table({value_col: g[value_col],
                                    "ca": g["ca_sum"].cast(pa.int64()),
                                    "cb": g["cb_sum"].cast(pa.int64())}))
    return fold


def ks_two_sample(ds, value_col: str, side_col: str) -> dict:
    """Exact two-sample KS statistic between the rows where ``side_col``
    is 1 (sample A) and 0 (sample B). Null values/sides are dropped.

    Returns ``{"ks_stat": float, "n_a": int, "n_b": int}`` — the supremum
    CDF gap evaluated after all ties at each distinct value, matching the
    windowed-cumulative SQL formulation exactly.
    """
    import ray

    folded = ds.map_batches(_fold_partial(value_col, side_col),
                            batch_format="pyarrow", zero_copy_batch=True)
    refs = block_refs(folded.sort(value_col))

    @ray.remote
    def blk_summary(t: pa.Table):
        if t.num_rows == 0:
            return (None, None, 0, 0)
        return (t[value_col][0].as_py(),
                t[value_col][t.num_rows - 1].as_py(),
                int(pc.sum(t["ca"]).as_py() or 0),
                int(pc.sum(t["cb"]).as_py() or 0))

    summaries = ray.get([blk_summary.remote(r) for r in refs])
    order = sorted((i for i, s in enumerate(summaries)
                    if s[0] is not None),
                   key=lambda i: (summaries[i][0], summaries[i][1]))
    n_a = sum(s[2] for s in summaries)
    n_b = sum(s[3] for s in summaries)
    if n_a == 0 or n_b == 0:
        raise ValueError("ks_two_sample: one sample is empty "
                         f"(n_a={n_a}, n_b={n_b})")

    @ray.remote
    def blk_gap(t: pa.Table, off_a: int, off_b: int, next_vmin):
        g = pa.TableGroupBy(t, value_col).aggregate([("ca", "sum"),
                                                     ("cb", "sum")])
        srt = g.sort_by(value_col)
        v = srt[value_col].to_numpy(zero_copy_only=False)
        cum_a = off_a + np.cumsum(
            srt["ca_sum"].to_numpy(zero_copy_only=False).astype(np.float64))
        cum_b = off_b + np.cumsum(
            srt["cb_sum"].to_numpy(zero_copy_only=False).astype(np.float64))
        d = np.abs(cum_a / n_a - cum_b / n_b)
        if next_vmin is not None:
            d = d[v != next_vmin]   # run continues: next block evaluates it
        return float(d.max()) if d.size else 0.0

    gaps, off_a, off_b = [], 0, 0
    for pos, i in enumerate(order):
        nxt = summaries[order[pos + 1]][0] if pos + 1 < len(order) else None
        gaps.append(blk_gap.remote(refs[i], off_a, off_b, nxt))
        off_a += summaries[i][2]
        off_b += summaries[i][3]
    return {"ks_stat": max(ray.get(gaps)), "n_a": n_a, "n_b": n_b}


def assign_global_rank(ds, sort_col: str, out: str = "pos",
                       descending: bool = False):
    """Global ``row_number() OVER (ORDER BY sort_col)`` (1-based): one Ray
    range sort, then a per-block count pass feeding driver-side prefix
    offsets (nblocks integers), then a per-block vectorized ``arange`` —
    the same cross-block prefix-scan shape as ``ks_two_sample``, expressed
    as raw Ray tasks over the sorted block refs because the Dataset API
    has no ordered-scan operator. Requires DISTINCT sort keys for a
    well-defined rank (duplicate keys get an arbitrary but consistent
    order within their run — callers needing SQL parity must pass a unique
    key). Returns a Dataset of ``ds``'s columns + ``out``.

    This is the primitive behind deterministic training-data shuffles:
    sort by a seeded hash mix of the id and assign positions.
    """
    import ray

    from ..rayutil import ensure_worker_importable
    ensure_worker_importable()

    refs = block_refs(ds.sort(sort_col, descending=descending))

    @ray.remote
    def blk_summary(t: pa.Table):
        if t.num_rows == 0:
            return (None, None, 0)
        return (t[sort_col][0].as_py(),
                t[sort_col][t.num_rows - 1].as_py(), t.num_rows)

    summaries = ray.get([blk_summary.remote(r) for r in refs])
    order = sorted((i for i, s in enumerate(summaries) if s[0] is not None),
                   key=lambda i: (summaries[i][0], summaries[i][1]),
                   reverse=descending)

    @ray.remote
    def blk_rank(t: pa.Table, offset: int) -> pa.Table:
        return t.append_column(out, pa.array(
            np.arange(offset + 1, offset + 1 + t.num_rows), pa.int64()))

    out_refs, offset = [], 0
    for i in order:
        out_refs.append(blk_rank.remote(refs[i], offset))
        offset += summaries[i][2]
    return ray.data.from_arrow_refs(out_refs)


def _sorted_distinct_scan(folded, key: str, val_cols, block_fn):
    """The engine's generic EXACT distinct-key ordered scan: ``folded`` is
    a Dataset of PARTIAL ``(key, *val_cols)`` rows (per-batch pre-folds —
    the same key may appear many times, in many blocks). One range sort,
    one tiny per-block summary pass, then a driver walk that resolves
    boundary keys (a key whose run spans blocks is EMITTED exactly once —
    in its first block — with its globally merged sums), and one per-block
    task that folds its slice, applies the corrections, and hands
    ``block_fn(key_array, cum_before, {col: np.ndarray})`` the exact
    per-distinct rows (``cum_before`` = total ``cnt`` of all smaller keys;
    ``val_cols`` must include ``cnt``). Returns the list of result refs.

    This replaces Ray Data's grouped ``aggregate`` for ordered
    distinct-key statistics — the partial fold + sort costs a fraction of
    Ray's generic hash groupby at the same exactness (measured 9.0 s ->
    ~1.5 s on a 600k-row column), and the ordered scan is something the
    groupby cannot express at all.
    """
    import ray

    refs = block_refs(folded.sort(key))

    def _fold(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, key).aggregate([(c, "sum") for c in val_cols])
        g = g.sort_by(key)
        return pa.table({key: g[key],
                         **{c: g[f"{c}_sum"] for c in val_cols}})

    @ray.remote
    def blk_summary(t: pa.Table):
        if t.num_rows == 0:
            return None
        g = _fold(t)
        n = g.num_rows
        return {
            "vmin": g[key][0].as_py(), "vmax": g[key][n - 1].as_py(),
            "first": {c: g[c][0].as_py() for c in val_cols},
            "last": {c: g[c][n - 1].as_py() for c in val_cols},
            "tot_cnt": int(pc.sum(t["cnt"]).as_py() or 0),
            "ndistinct": n,
        }

    summaries = ray.get([blk_summary.remote(r) for r in refs])
    order = sorted((i for i, s in enumerate(summaries) if s is not None),
                   key=lambda i: (summaries[i]["vmin"], summaries[i]["vmax"]))

    # global totals for every block-boundary key (spanning runs merge here)
    boundary_tot: dict = {}
    for i in order:
        s = summaries[i]
        ends = [("vmin", "first")] if s["ndistinct"] == 1             else [("vmin", "first"), ("vmax", "last")]
        for kname, cname in ends:
            acc = boundary_tot.setdefault(
                s[kname], {c: 0 for c in val_cols})
            for c in val_cols:
                acc[c] += s[cname][c]

    @ray.remote
    def blk_main(t: pa.Table, sum_prev: int, first_prev_cnt: int,
                 emit_first: bool, first_totals, last_totals):
        g = _fold(t)
        n = g.num_rows
        karr = g[key]
        cols = {c: g[c].to_numpy(zero_copy_only=False).astype(np.float64)
                for c in val_cols}
        cum_before = sum_prev + np.cumsum(cols["cnt"]) - cols["cnt"]
        keep = np.ones(n, bool)
        if emit_first:
            for c in val_cols:
                cols[c][0] = first_totals[c]
            cum_before[0] = sum_prev - first_prev_cnt
        else:
            keep[0] = False
        if n > 1 and last_totals is not None:
            for c in val_cols:
                cols[c][n - 1] = last_totals[c]
        if not keep.all():
            karr = karr.filter(pa.array(keep))
            cols = {c: v[keep] for c, v in cols.items()}
            cum_before = cum_before[keep]
        return block_fn(karr, cum_before, cols)

    out_refs, cum, prev_seen = [], 0, {}
    for i in order:
        s = summaries[i]
        first_prev = prev_seen.get(s["vmin"], 0)
        out_refs.append(blk_main.remote(
            refs[i], cum, first_prev, first_prev == 0,
            boundary_tot[s["vmin"]],
            boundary_tot[s["vmax"]] if s["ndistinct"] > 1 else None))
        cum += s["tot_cnt"]
        prev_seen[s["vmin"]] = first_prev + s["first"]["cnt"]
        if s["ndistinct"] > 1:
            prev_seen[s["vmax"]] = prev_seen.get(s["vmax"], 0) \
                + s["last"]["cnt"]
    return out_refs


def _count_fold(col: str):
    def fold(batch: pa.Table) -> pa.Table:
        sel = batch.select([col]).drop_null()
        g = pa.TableGroupBy(sel, col).aggregate([([], "count_all")])
        return strip_meta(pa.table({
            col: g[col], "cnt": g["count_all"].cast(pa.int64())}))
    return fold


def _avg_rank_refs(ds, col: str, out: str):
    """Distinct-value average ranks via the sorted-distinct scan:
    ``avg_rank(v) = (#values < v) + (count(v) + 1) / 2`` (1-based, the
    tie-aware rank Spearman needs). Returns block refs of ``(col, out)``."""
    folded = ds.map_batches(_count_fold(col), batch_format="pyarrow",
                            zero_copy_batch=True)

    def block_fn(karr, cum_before, cols):
        cnt = cols["cnt"]
        return pa.table({col: karr,
                         out: pa.array(cum_before + (cnt + 1.0) / 2.0,
                                       pa.float64()),
                         "__cnt": pa.array(cnt, pa.float64())})

    return _sorted_distinct_scan(folded, col, ["cnt"], block_fn)


def spearman_corr(ds_factory, x: str, y: str,
                  broadcast_cap_rows: int = 4_000_000) -> dict:
    """Exact Spearman rank correlation with proper tie handling (average
    ranks) — Pearson correlation of the two rank variables.

    JOIN-FREE at scale shape: (1) the x average-rank table comes from one
    partial-count fold + sorted-distinct scan; it is broadcast when its
    distinct count fits ``broadcast_cap_rows`` (corr is symmetric — if x
    is too wide but y fits, the sides swap; only when BOTH exceed the cap
    does it raise, pointing at the join formulation). (2) one pass over
    the rows maps each row's rx by lookup and pre-folds
    ``(y, cnt, sum_rx)`` per batch. (3) a second sorted-distinct scan
    merges those partials in y order, derives ry from the count prefix,
    and emits per-block PARTIAL MOMENTS (n, Σry, Σry², Σrx·ry) — the
    cross-moment needs no row pairing because Σ rx·ry = Σ_y ry·(Σ rx over
    y's rows). Σrx, Σrx² fold from the x table. Driver combines moments.
    Rows with a null in either column are excluded (SQL WHERE parity).

    Returns ``{"spearman": float, "n": int}``.
    """
    import math

    import ray

    def base():
        def dropnulls(batch: pa.Table) -> pa.Table:
            sel = batch.select([x, y])
            both = pc.and_kleene(pc.is_valid(sel[x]), pc.is_valid(sel[y]))
            return strip_meta(sel.filter(both.fill_null(False)))
        return ds_factory().map_batches(dropnulls, batch_format="pyarrow",
                                        zero_copy_batch=True)

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    def rank_table(col, out):
        refs = _avg_rank_refs(base(), col, out)
        # cap check BEFORE pulling blocks driver-side: an over-cap rank
        # table never leaves the object store
        if sum(ray.get([_nrows.remote(r) for r in refs])) \
                > broadcast_cap_rows:
            return None
        tabs = [t for t in ray.get(refs) if t.num_rows]
        return pa.concat_tables(tabs) if tabs else pa.table(
            {col: pa.array([], pa.float64()),
             out: pa.array([], pa.float64()),
             "__cnt": pa.array([], pa.float64())})

    a, b = x, y
    xtab = rank_table(a, "rx")
    if xtab is None:
        a, b = y, x
        xtab = rank_table(a, "rx")
        if xtab is None:
            raise ValueError(
                "spearman_corr: both columns exceed broadcast_cap_rows "
                "distinct values; raise the cap (each rank-table row is "
                "~16 bytes) or pre-bucket the values")

    xkeys = xtab[a].combine_chunks()
    xranks = xtab["rx"].to_numpy(zero_copy_only=False)

    def fold_y(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch[a], value_set=xkeys) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        rx = xranks[pos]
        t = pa.table({b: batch[b], "cnt": pa.array(
            np.ones(batch.num_rows, np.int64), pa.int64()),
            "sum_rx": pa.array(rx, pa.float64())})
        g = pa.TableGroupBy(t, b).aggregate([("cnt", "sum"),
                                             ("sum_rx", "sum")])
        return strip_meta(pa.table({
            b: g[b], "cnt": g["cnt_sum"].cast(pa.int64()),
            "sum_rx": g["sum_rx_sum"]}))

    def moments_fn(karr, cum_before, cols):
        cnt, sum_rx = cols["cnt"], cols["sum_rx"]
        ry = cum_before + (cnt + 1.0) / 2.0
        return pa.table({
            "n": pa.array([float(cnt.sum())], pa.float64()),
            "s_ry": pa.array([float((cnt * ry).sum())], pa.float64()),
            "s_ry2": pa.array([float((cnt * ry * ry).sum())], pa.float64()),
            "s_rxry": pa.array([float((ry * sum_rx).sum())], pa.float64()),
        })

    parts = pa.concat_tables(
        [t for t in ray.get(_sorted_distinct_scan(
            base().map_batches(fold_y, batch_format="pyarrow",
                               zero_copy_batch=True),
            b, ["cnt", "sum_rx"], moments_fn)) if t.num_rows])
    n = float(pc.sum(parts["n"]).as_py())
    s_ry = float(pc.sum(parts["s_ry"]).as_py())
    s_ry2 = float(pc.sum(parts["s_ry2"]).as_py())
    s_rxry = float(pc.sum(parts["s_rxry"]).as_py())
    # Σrx, Σrx² from the x rank table (cnt per distinct value)
    xcnts = xtab["__cnt"].to_numpy(zero_copy_only=False)
    s_rx = float((xcnts * xranks).sum())
    s_rx2 = float((xcnts * xranks * xranks).sum())

    if n == 0:
        raise ValueError("spearman_corr: no non-null (x, y) rows")
    cov = n * s_rxry - s_rx * s_ry
    vx = n * s_rx2 - s_rx * s_rx
    vy = n * s_ry2 - s_ry * s_ry
    denom = math.sqrt(vx) * math.sqrt(vy)
    rho = float("nan") if denom == 0 else cov / denom
    return {"spearman": rho, "n": int(n)}


def global_quantiles(ds, col: str, qs=(0.25, 0.5, 0.75, 0.99)) -> dict:
    """Exact global continuous quantiles (``quantile_cont`` parity) WITHOUT
    a full-data sort: a per-batch ``(value, cnt)`` fold turns the sort
    input from row-scale into distinct-value-scale, the sorted-distinct
    scan assigns exact global rank prefixes, and each block emits ONLY the
    ``(rank, value)`` rows that cover a needed target rank — at most
    ``2·len(qs)`` rows leave the workers in total. The driver
    linearly interpolates (``v[floor] + frac·(v[ceil] − v[floor])`` at
    rank ``q·(n−1)``, 0-based — numpy ``method="linear"`` / SQL
    ``quantile_cont`` semantics). Nulls drop (SQL aggregate parity).

    Scale shape: the only all-to-all is the range sort of the folded
    pairs — bounded by distinct values, not rows; everything after is a
    tiny per-block pass plus an O(len(qs)) driver fold.

    Returns ``{"quantiles": {q: value}, "n": int}``.
    """
    import ray

    from ..rayutil import ensure_worker_importable

    qs = tuple(float(q) for q in qs)
    if not qs:
        raise ValueError("global_quantiles: qs must be non-empty")
    bad = [q for q in qs if not 0.0 <= q <= 1.0]
    if bad:
        raise ValueError(f"global_quantiles: quantiles out of [0, 1]: {bad}")
    ensure_worker_importable()      # the materialize() below runs first
    folded = ds.map_batches(_count_fold(col), batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    n = int(folded.sum("cnt") or 0)
    if n == 0:
        raise ValueError(f"global_quantiles: no non-null rows in {col!r}")
    targets = np.asarray(qs, np.float64) * (n - 1)    # 0-based cont. ranks
    need = np.unique(np.concatenate(
        [np.floor(targets), np.ceil(targets)])).astype(np.int64)

    def block_fn(karr, cum_before, cols):
        # row i covers global 0-based ranks [lo[i], hi[i]]; a needed rank
        # resolves in exactly one block (the scan emits each distinct
        # value once, with its globally merged count)
        lo = cum_before
        hi = cum_before + cols["cnt"] - 1.0
        i = np.searchsorted(lo, need, side="right") - 1
        ok = (i >= 0) & (i < lo.size)
        ok[ok] &= need[ok] <= hi[i[ok]]
        vals = pc.take(karr, pa.array(i[ok], pa.int64())) \
            .cast(pa.float64())
        return pa.table({"rank": pa.array(need[ok], pa.int64()),
                         "value": vals})

    got = pa.concat_tables(
        [t for t in ray.get(_sorted_distinct_scan(
            folded, col, ["cnt"], block_fn)) if t.num_rows])
    rankmap = dict(zip(got["rank"].to_pylist(), got["value"].to_pylist()))
    out = {}
    for q, t in zip(qs, targets):
        f, c = int(np.floor(t)), int(np.ceil(t))
        out[float(q)] = rankmap[f] + (t - f) * (rankmap[c] - rankmap[f])
    return {"quantiles": out, "n": n}


def psi_drift(ds, value_col: str, ts_col: str, split_ts_us: int,
              bins: int = 20, width: float = 25.0) -> dict:
    """Population Stability Index — the standard production drift metric
    (finance/ML-monitoring practice; PSI < 0.1 stable, > 0.25 major shift)
    between the value distributions BEFORE and AFTER ``split_ts_us``:
    ``PSI = Σ_b (p_cur − p_ref) · ln(p_cur / p_ref)`` over the fixed-width
    value buckets (clamped to ``[0, bins)``), summing only buckets observed
    on BOTH sides (the standard empty-bucket exclusion — reported as
    ``n_buckets_used``). Proportions are per-side totals over ALL rows.

    Scale shape: one streaming ``map_batches`` pass emitting a
    ``bins × (n_ref, n_cur)`` partial per batch (np.bincount per side), one
    tiny driver fold — no shuffle at any scale (same partial+final shape as
    the chi²/KS drift family). Null value/ts rows drop. ``floor(v/width)``
    and the ln-sum are exactly-rounded IEEE doubles, SQL-replayable to 6
    decimals."""
    split = np.int64(split_ts_us)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].combine_chunks() \
            if isinstance(batch[value_col], pa.ChunkedArray) \
            else batch[value_col]
        t = batch[ts_col].combine_chunks() \
            if isinstance(batch[ts_col], pa.ChunkedArray) else batch[ts_col]
        ok = (pc.and_(pc.is_valid(v), pc.is_valid(t))
              .to_numpy(zero_copy_only=False))
        vv = v.cast(pa.float64()).fill_null(0.0) \
            .to_numpy(zero_copy_only=False)[ok]
        tt = t.cast(pa.int64()).fill_null(0) \
            .to_numpy(zero_copy_only=False)[ok]
        b = np.floor(vv / width)
        # NaN/inf parity with the SQL LEAST(GREATEST(...)) oracle: DuckDB
        # orders NaN greater than everything, so NaN and +inf land in the
        # TOP bin; a plain np.clip would carry NaN into an undefined int
        # cast and crash bincount (review r4 batch 2)
        b = np.where(np.isnan(b), bins - 1,
                     np.clip(b, 0, bins - 1)).astype(np.int64)
        cur = tt >= split
        n_ref = np.bincount(b[~cur], minlength=bins)
        n_cur = np.bincount(b[cur], minlength=bins)
        return pa.table({
            "bin": pa.array(np.arange(bins, dtype=np.int64)),
            "n_ref": pa.array(n_ref.astype(np.int64), pa.int64()),
            "n_cur": pa.array(n_cur.astype(np.int64), pa.int64()),
        })

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    n_ref = np.zeros(bins, np.int64)
    n_cur = np.zeros(bins, np.int64)
    for t in parts:
        idx = t["bin"].to_numpy(zero_copy_only=False)
        np.add.at(n_ref, idx, t["n_ref"].to_numpy(zero_copy_only=False))
        np.add.at(n_cur, idx, t["n_cur"].to_numpy(zero_copy_only=False))
    tot_ref, tot_cur = int(n_ref.sum()), int(n_cur.sum())
    if not tot_ref or not tot_cur:
        raise ValueError("psi_drift: one side has no rows")
    use = (n_ref > 0) & (n_cur > 0)
    if not use.any():
        # fully disjoint distributions: PSI's standard form is undefined
        # (every bucket one-sided). Returning 0.0 would read maximal drift
        # as 'perfectly stable' and diverge from the SQL NULL (review r4
        # batch 2) — fail loudly instead.
        raise ValueError("psi_drift: no bucket is populated on both sides "
                         "(fully disjoint distributions)")
    p_ref = n_ref[use] / tot_ref
    p_cur = n_cur[use] / tot_cur
    psi = float(np.sum((p_cur - p_ref) * np.log(p_cur / p_ref)))
    return {"psi": psi, "n_buckets_used": int(use.sum()),
            "n_ref": tot_ref, "n_cur": tot_cur}


def embedding_covariance(ds, list_col: str, dims: int) -> pa.Table:
    """Population covariance matrix of the first ``dims`` coordinates of a
    ``list<float>`` embedding column, in ONE streaming pass with NO
    shuffle: each batch reshapes the list column's flat value buffer into
    an (B, D) float64 matrix and emits a single partial row
    ``(n, Σx[dims], Σxᵀx[dims×dims])`` (one BLAS matmul per batch); the
    driver folds the tiny partials and finishes
    ``cov(i,j) = Σxixj/n − μiμj`` — SQL ``covar_pop`` semantics. This is
    the whitening/PCA-prep primitive: at 100 TB the fold state is
    O(dims²) per block regardless of row count.

    Rows with a null or ragged list are dropped (documented: covariance
    needs complete coordinate vectors). Returns the upper triangle as
    ``(i, j, n, cov)`` rows, i ≤ j."""
    if dims < 1:
        raise ValueError("dims must be >= 1")

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[list_col].combine_chunks()
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            col = col.filter(valid)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if widths.size and (widths < dims).any():
            keep = widths >= dims
            col = col.filter(pa.array(keep))
            offs = col.offsets.to_numpy(zero_copy_only=False)
            widths = np.diff(offs)
        n = len(col)
        flat = col.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        if n and (widths == widths[0]).all():
            mat = flat.reshape(n, int(widths[0]))[:, :dims]
        else:                       # ragged tail: gather per-row starts
            starts = offs[:-1].astype(np.int64)
            idx = starts[:, None] + np.arange(dims)[None, :]
            mat = flat[idx] if n else np.zeros((0, dims))
        sx = mat.sum(axis=0)
        sxx = mat.T @ mat
        return strip_meta(pa.table({
            "n": pa.array([n], pa.int64()),
            "sx": pa.array([sx.tolist()],
                           pa.list_(pa.float64())),
            "sxx": pa.array([sxx.reshape(-1).tolist()],
                            pa.list_(pa.float64())),
        }))

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    n_tot = 0
    sx = np.zeros(dims)
    sxx = np.zeros((dims, dims))
    for t in parts:
        n_tot += int(pc.sum(t["n"]).as_py() or 0)
        for row_sx, row_sxx in zip(t["sx"].to_pylist(),
                                   t["sxx"].to_pylist()):
            sx += np.asarray(row_sx)
            sxx += np.asarray(row_sxx).reshape(dims, dims)
    if n_tot == 0:
        raise ValueError("embedding_covariance: no complete rows")
    mu = sx / n_tot
    cov = sxx / n_tot - np.outer(mu, mu)
    iu, ju = np.triu_indices(dims)
    return pa.table({
        "i": pa.array(iu.astype(np.int64), pa.int64()),
        "j": pa.array(ju.astype(np.int64), pa.int64()),
        "n": pa.array(np.full(iu.size, n_tot, np.int64), pa.int64()),
        "cov": pa.array(cov[iu, ju], pa.float64()),
    })


def histogram(ds_factory, col: str, n_bins: int = 20) -> pa.Table:
    """Fixed-width histogram of a numeric column — the distribution
    profile every data-quality report starts with. Two streaming passes
    by necessity (the bin edges are a global order statistic): pass 1
    folds per-batch ``(min, max)`` one-row partials driver-side; pass 2
    folds per-batch ``np.bincount`` partials over
    ``bin = floor((x - lo) * n_bins / (hi - lo))`` with the top edge
    clamped into the last bin. NO shuffle at any size — fold state is
    O(n_bins) per block regardless of row count.

    The bin expression is one subtract, one multiply, one divide in
    float64 — IEEE-identical to the SQL
    ``least(floor((x - mn) * n_bins / (mx - mn)), n_bins - 1)``
    formulation, so counts match an oracle bitwise. Nulls drop; a
    degenerate column (lo == hi) lands every row in bin 0. Only
    NON-EMPTY bins are returned as ``(bin, lo_edge, n)`` rows, with
    ``lo_edge = lo + bin * ((hi - lo) / n_bins)``. Non-finite values
    (NaN/±inf) drop like nulls — they have no bin and would poison the
    width arithmetic on BOTH the engine and the SQL side (DuckDB's
    ``CAST(floor(NaN) AS BIGINT)`` errors outright)."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")

    def minmax(batch: pa.Table) -> pa.Table:
        v = batch[col].drop_null().cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        v = v[np.isfinite(v)]
        if v.size == 0:
            return strip_meta(pa.table({
                "mn": pa.array([], pa.float64()),
                "mx": pa.array([], pa.float64())}))
        return strip_meta(pa.table({
            "mn": pa.array([v.min()], pa.float64()),
            "mx": pa.array([v.max()], pa.float64())}))

    mm_parts = collect_partials(ds_factory().map_batches(
        minmax, batch_format="pyarrow", zero_copy_batch=True))
    empty = pa.table({"bin": pa.array([], pa.int64()),
                      "lo_edge": pa.array([], pa.float64()),
                      "n": pa.array([], pa.int64())})
    if not mm_parts:
        return empty
    parts = pa.concat_tables(mm_parts, promote_options="default")
    lo = pc.min(parts["mn"]).as_py()
    hi = pc.max(parts["mx"]).as_py()

    def counts(batch: pa.Table) -> pa.Table:
        v = batch[col].drop_null().cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        v = v[np.isfinite(v)]
        if hi > lo:
            b = np.floor((v - lo) * n_bins / (hi - lo))
            b = np.minimum(b, n_bins - 1).astype(np.int64)
        else:
            b = np.zeros(v.size, np.int64)
        cnt = np.bincount(b, minlength=n_bins)
        return strip_meta(pa.table({
            "bin": pa.array(np.arange(n_bins, dtype=np.int64), pa.int64()),
            "cnt": pa.array(cnt, pa.int64())}))

    clist = collect_partials(ds_factory().map_batches(
        counts, batch_format="pyarrow", zero_copy_batch=True))
    if not clist:
        return empty
    cparts = pa.concat_tables(clist, promote_options="default")
    g = pa.TableGroupBy(cparts, "bin").aggregate([("cnt", "sum")])
    g = g.filter(pc.greater(g["cnt_sum"], 0)).sort_by("bin")
    bins = g["bin"].to_numpy(zero_copy_only=False)
    width = (hi - lo) / n_bins
    return pa.table({
        "bin": g["bin"].cast(pa.int64()),
        "lo_edge": pa.array(lo + bins * width, pa.float64()),
        "n": g["cnt_sum"].cast(pa.int64())})


def grouped_minmax_scale(ds_factory, key: str, value: str):
    """Per-group min-max normalization ``(x - min) / (max - min)`` — the
    feature-scaling pass of a training-data pipeline, kept exact: pass 1
    folds per-batch per-key ``(min, max)`` partials driver-side (fold
    state is key-domain × blocks, NO shuffle); pass 2 broadcasts the tiny
    (key, lo, hi) table via closure capture and rescales every row in one
    vectorized ``map_batches``. The scale expression is one subtract and
    one divide in float64, IEEE-identical to the SQL window formulation
    ``(x - min(x) OVER (PARTITION BY key)) / (max(...) - min(...))``.

    Rows with a null key or value drop; a zero-range group (min == max)
    yields NULL scaled values (the SQL ``CASE WHEN mx > mn`` contract).
    Streams the input schema plus a ``scaled`` float64 column."""
    from ..rayutil import ensure_worker_importable
    ensure_worker_importable()

    def minmax(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, value])
        both = pc.and_kleene(pc.is_valid(sel[key]), pc.is_valid(sel[value]))
        sel = sel.filter(both.fill_null(False))
        t = pa.table({key: sel[key], "v": sel[value].cast(pa.float64())})
        g = pa.TableGroupBy(t, key).aggregate([("v", "min"), ("v", "max")])
        return strip_meta(pa.table({key: g[key], "mn": g["v_min"],
                                    "mx": g["v_max"]}))

    # keep 0-row partials: their schemas carry the key/value types, so an
    # all-null input folds to an EMPTY typed (key, lo, hi) table and the
    # scale pass below streams out 0 rows with the right schema
    mlist = collect_partials(ds_factory().map_batches(
        minmax, batch_format="pyarrow", zero_copy_batch=True),
        keep_empty=True)
    parts = pa.concat_tables(mlist, promote_options="default")
    folded = pa.TableGroupBy(parts, key).aggregate([("mn", "min"),
                                                    ("mx", "max")])
    mm_keys = folded[key].combine_chunks()
    mm_lo = folded["mn_min"].to_numpy(zero_copy_only=False)
    mm_hi = folded["mx_max"].to_numpy(zero_copy_only=False)

    def scale(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch[key], value_set=mm_keys)
        valid = pc.and_(pc.is_valid(pos), pc.is_valid(batch[value])) \
            .to_numpy(zero_copy_only=False)
        vi = np.flatnonzero(valid)
        kept = strip_meta(batch).take(pa.array(vi, pa.int64()))
        p = pos.to_numpy(zero_copy_only=False)[vi].astype(np.int64)
        vals = kept[value].cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        lo, hi = mm_lo[p], mm_hi[p]
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = (vals - lo) / (hi - lo)
        arr = pa.array(scaled, pa.float64())
        arr = pc.if_else(pa.array(hi > lo),
                         arr, pa.nulls(vi.size, pa.float64()))
        return kept.append_column("scaled", arr)

    return ds_factory().map_batches(scale, batch_format="pyarrow",
                                    zero_copy_batch=True)


def grouped_winsorize(ds_factory, key: str, value: str,
                      lo_q: float = 0.05, hi_q: float = 0.95):
    """Per-group winsorization — clip ``value`` into its group's
    ``[quantile(lo_q), quantile(hi_q)]`` band, the robust outlier-taming
    pass run before scaling or model fitting. Thresholds are DISCRETE
    order statistics (SQL ``quantile_disc``: ``sorted[max(0,
    ceil(q*n)-1)]`` over non-null values) — exact data values, never
    interpolated, so the clip is comparison-only and matches the SQL
    ``least(greatest(x, lo), hi)`` formulation bitwise.

    Two passes: (1) per-group thresholds via ONE hash-bucket shuffle
    (exact order statistics need each group's full value set in one
    place — same enum-sized-key-domain contract as grouped_quantiles;
    unbounded key domains should prefer the t-digest sketch); (2) the
    key-domain-sized (key, lo, hi) table broadcasts via closure capture
    into one vectorized clip over the stream. Null keys/values drop.
    Streams the input schema plus a ``clipped`` float64 column."""
    if not (0.0 <= lo_q <= hi_q <= 1.0):
        raise ValueError("need 0 <= lo_q <= hi_q <= 1")
    from .aggregates import run_starts

    def project(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, value])
        both = pc.and_kleene(pc.is_valid(sel[key]),
                             pc.is_valid(sel[value])).fill_null(False)
        return sel.filter(both)

    def bucket_thresholds(body: pa.Table) -> pa.Table:
        if body.num_rows == 0:
            return pa.table({key: pa.array([], body.schema.field(key).type),
                             "lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64())})
        srt = body.sort_by([(key, "ascending"), (value, "ascending")])
        k_arr = srt[key].combine_chunks()
        v = srt[value].cast(pa.float64()).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(run_starts(k_arr))
        ends = np.append(starts[1:], srt.num_rows)
        ns = ends - starts
        lo_i = starts + np.maximum(0, np.ceil(lo_q * ns).astype(np.int64) - 1)
        hi_i = starts + np.maximum(0, np.ceil(hi_q * ns).astype(np.int64) - 1)
        return pa.table({key: k_arr.take(pa.array(starts, pa.int64())),
                         "lo": pa.array(v[lo_i], pa.float64()),
                         "hi": pa.array(v[hi_i], pa.float64())})

    thr = pa.concat_tables(collect_partials(
        bucket_groups(ds_factory(), key, bucket_thresholds, prepare=project),
        keep_empty=True), promote_options="default")
    thr_keys = thr[key].combine_chunks()
    thr_lo = thr["lo"].to_numpy(zero_copy_only=False)
    thr_hi = thr["hi"].to_numpy(zero_copy_only=False)

    def clip(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch[key], value_set=thr_keys)
        valid = pc.and_(pc.is_valid(pos), pc.is_valid(batch[value])) \
            .to_numpy(zero_copy_only=False)
        vi = np.flatnonzero(valid)
        kept = strip_meta(batch).take(pa.array(vi, pa.int64()))
        p = pos.to_numpy(zero_copy_only=False)[vi].astype(np.int64)
        vals = kept[value].cast(pa.float64()).to_numpy(zero_copy_only=False)
        clipped = np.minimum(np.maximum(vals, thr_lo[p]), thr_hi[p])
        return kept.append_column("clipped",
                                  pa.array(clipped, pa.float64()))

    return ds_factory().map_batches(clip, batch_format="pyarrow",
                                    zero_copy_batch=True)


def jsd_drift(ds, cat_col: str, ts_col: str, split_ts_us: int) -> dict:
    """Jensen-Shannon divergence (bits) between the CATEGORY distributions
    before/after ``split_ts_us`` — the drift family's information-theoretic
    member (chi² tests independence, KS covers continuous values, PSI the
    bucketed-production practice; JSD is the symmetric, always-finite
    [0, 1]-bounded distance): ``JSD = ½·KL(p‖m) + ½·KL(q‖m)`` with
    ``m = (p+q)/2``, zero-probability categories contributing 0 (the
    0·log 0 convention), so one-sided categories are well-defined — no
    empty-bucket exclusion needed, unlike PSI.

    Scale shape: identical to the chi²/PSI drift ops — one streaming
    ``map_batches`` pass emitting per-batch ``(category, n_ref, n_cur)``
    partials (Arrow group-by, category-domain cardinality), one tiny
    driver fold, NO shuffle. Null category/ts rows drop. The statistic is
    a sum of exactly-rounded IEEE doubles, SQL-replayable to 6 decimals
    (drift-family precedent)."""
    split = np.int64(split_ts_us)

    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([cat_col, ts_col])
        ok = pc.and_kleene(pc.is_valid(sel[cat_col]),
                           pc.is_valid(sel[ts_col])).fill_null(False)
        sel = sel.filter(ok)
        cur = pc.greater_equal(sel[ts_col].cast(pa.int64()),
                               pa.scalar(int(split), pa.int64()))
        t = pa.table({cat_col: sel[cat_col],
                      "nr": pc.invert(cur).cast(pa.int64()),
                      "nc": cur.cast(pa.int64())})
        g = pa.TableGroupBy(t, cat_col).aggregate(
            [("nr", "sum"), ("nc", "sum")])
        return strip_meta(pa.table({
            cat_col: g[cat_col],
            "n_ref": g["nr_sum"].cast(pa.int64()),
            "n_cur": g["nc_sum"].cast(pa.int64())}))

    folded = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), [cat_col], ["n_ref", "n_cur"])
    if folded is None:
        raise ValueError("jsd_drift: no non-null rows")
    nr = folded["n_ref"].to_numpy(zero_copy_only=False).astype(np.float64)
    nc = folded["n_cur"].to_numpy(zero_copy_only=False).astype(np.float64)
    tr, tc = nr.sum(), nc.sum()
    if not tr or not tc:
        raise ValueError("jsd_drift: one side has no rows")
    p, q = nr / tr, nc / tc
    m2 = p + q                      # = 2m; KL terms use 2p/(p+q) directly
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = np.where(p > 0, 0.5 * p * np.log2(2.0 * p / m2), 0.0)
        rt = np.where(q > 0, 0.5 * q * np.log2(2.0 * q / m2), 0.0)
    return {"jsd": float(np.sum(lt) + np.sum(rt)),
            "n_categories": int(folded.num_rows),
            "n_ref": int(tr), "n_cur": int(tc)}


def welch_ttest(ds, group_col: str, value_col: str, side_a, side_b) -> dict:
    """Welch's unequal-variance two-sample t-test between two groups of
    ``value_col`` — the A/B significance test behind "did the metric move
    between cohorts / data snapshots": t statistic plus Welch–Satterthwaite
    degrees of freedom. Complements the drift family (chi²/KS/PSI/JSD test
    distributions; this tests MEANS with a variance-aware denominator).

    Scale shape: one streaming pass, NO shuffle — each batch emits per-side
    mergeable CENTRAL-moment partials ``(n, mean, M2)`` (the numerically
    stable form; raw Σx² would cancel for large-mean columns), the driver
    folds them with Chan/Pébay pairwise updates over blocks×2 rows, and the
    finish is closed-form:

        t  = (m_a − m_b) / sqrt(v_a/n_a + v_b/n_b)      v = M2/(n−1)
        df = (v_a/n_a + v_b/n_b)² /
             ((v_a/n_a)²/(n_a−1) + (v_b/n_b)²/(n_b−1))

    Null values are skipped; a side with n < 2 (or both variances zero)
    yields NaN t/df. Returns a dict with per-side n/mean/var and t/df."""

    def partial(batch: pa.Table) -> pa.Table:
        rows = {"side": [], "pn": [], "pm": [], "p2": []}
        garr = batch[group_col]
        varr = batch[value_col]
        for tag, side in (("a", side_a), ("b", side_b)):
            mask = pc.and_kleene(pc.equal(garr, side),
                                 pc.is_valid(varr)).fill_null(False)
            x = varr.filter(mask).cast(pa.float64()) \
                .to_numpy(zero_copy_only=False)
            n = x.size
            mean = float(x.mean()) if n else 0.0
            m2 = float(((x - mean) ** 2).sum()) if n else 0.0
            rows["side"].append(tag)
            rows["pn"].append(n)
            rows["pm"].append(mean)
            rows["p2"].append(m2)
        return pa.table({"side": pa.array(rows["side"], pa.string()),
                         "pn": pa.array(rows["pn"], pa.int64()),
                         "pm": pa.array(rows["pm"], pa.float64()),
                         "p2": pa.array(rows["p2"], pa.float64())})

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    state = {"a": [0, 0.0, 0.0], "b": [0, 0.0, 0.0]}
    if parts:
        merged = pa.concat_tables(parts, promote_options="default")
        # (n, mean, M2) pairwise merge — the 2-moment subset of the
        # per-key Pébay fold in ops/aggregates.grouped_skew_kurt; any
        # fix to that merge's numerics belongs in both places
        for side, nB, mB, M2B in zip(merged["side"].to_pylist(),
                                     merged["pn"].to_pylist(),
                                     merged["pm"].to_pylist(),
                                     merged["p2"].to_pylist()):
            if nB == 0:
                continue
            nA, mA, M2A = state[side]
            n = nA + nB
            delta = mB - mA
            state[side] = [n, mA + delta * nB / n,
                           M2A + M2B + delta * delta * nA * nB / n]
    (na, ma, M2a), (nb, mb, M2b) = state["a"], state["b"]
    va = M2a / (na - 1) if na > 1 else float("nan")
    vb = M2b / (nb - 1) if nb > 1 else float("nan")
    se2 = (va / na if na else float("nan")) + \
          (vb / nb if nb else float("nan"))
    if se2 and se2 > 0 and na > 1 and nb > 1:
        t = (ma - mb) / np.sqrt(se2)
        df = se2 ** 2 / ((va / na) ** 2 / (na - 1)
                         + (vb / nb) ** 2 / (nb - 1))
    else:
        t, df = float("nan"), float("nan")
    return {"n_a": int(na), "n_b": int(nb),
            "mean_a": float(ma), "mean_b": float(mb),
            "var_a": float(va), "var_b": float(vb),
            "t_stat": float(t), "df": float(df)}


def benford_audit(ds, value_col: str) -> pa.Table:
    """Benford first-significant-digit audit — the classic fabricated-data
    / unit-mix-up screen for positive numeric columns: observed counts of
    the leading digit 1-9 vs the Benford expectation ``log10(1 + 1/d)``,
    with the chi-square statistic of the fit. An EXPECTED-distribution
    conformance test, complementing the drift family's two-sample tests.

    Scale shape: one streaming pass, NO shuffle — the leading digit is
    pure float arithmetic (``d = floor(v / 10^floor(log10 v))``, fully
    vectorized), each batch emits a 9-long count partial, the driver adds
    them. Rows with null/zero/negative values are excluded (they have no
    leading significant digit — same WHERE on the SQL side).

    Cross-engine float caveat (measured): for ``0 < v < 1`` the digit
    depends on libm ``pow`` rounding — numpy's ``pow(10, -1)`` is 1 ulp
    BELOW 0.1 while DuckDB's is not, so 0.3 reads digit 3 here and 2
    there. Oracle-exact parity therefore holds only for ``1 <= v < 1e23``
    (only 10^0..10^22 are exactly representable doubles); the gate query
    filters ``value >= 1`` on both sides, and callers auditing sub-1
    magnitudes should pre-scale to integers. Outside that window the op
    itself stays total and crash-free (review r5): subnormal exponents
    are clamped before ``pow`` can underflow to an inf ratio, and a
    bounded decade-renormalization loop folds every ratio back into
    ``[1, 10)`` instead of silently bincount-dropping digit-0/digit-10
    artifacts of log10 rounding.

    Returns one row per digit: ``(digit, n_obs, expected_r6, chi2_r6)``
    with the global chi² repeated per row (flat gate-friendly layout)."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        v = v[np.isfinite(v) & (v > 0)]
        with np.errstate(divide="ignore"):
            e = np.clip(np.floor(np.log10(v)), -307.0, 308.0)
            ratio = v / np.power(10.0, e)
        # log10 rounding leaves ratio one decade off at boundaries, and
        # the subnormal clamp above can leave it up to 17 decades low —
        # renormalize instead of dropping (bounded, usually 0 passes)
        for _ in range(17):
            lo = ratio < 1.0
            hi = ratio >= 10.0
            if not (lo.any() or hi.any()):
                break
            ratio = np.where(lo, ratio * 10.0, ratio)
            ratio = np.where(hi, ratio / 10.0, ratio)
        digit = np.clip(np.floor(ratio), 1, 9).astype(np.int64)
        counts = np.bincount(digit, minlength=10)[1:10]
        return pa.table({"digit": pa.array(np.arange(1, 10, dtype=np.int64)),
                         "n": pa.array(counts.astype(np.int64))})

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    obs = np.zeros(9, np.int64)
    for t in parts:
        obs[np.asarray(t["digit"]) - 1] += np.asarray(t["n"])
    total = int(obs.sum())
    digits = np.arange(1, 10)
    p = np.log10(1.0 + 1.0 / digits)
    # empty-input parity with the SQL replay (review r5): expected is
    # p * 0 = 0.0 (the oracle's coalesced zero rows always sum), chi²
    # is NULL (SQL 0/0 division)
    chi2 = float(((obs - p * total) ** 2 / (p * total)).sum()) \
        if total else None
    return pa.table({
        "digit": pa.array(digits.astype(np.int64)),
        "n_obs": pa.array(obs),
        "expected_r6": pa.array(np.round(p * total, 6)),
        "chi2_r6": pa.array([round(chi2, 6) if chi2 is not None else None]
                            * 9, pa.float64()),
    })


def sequence_audit(ds, id_col: str) -> pa.Table:
    """Sequence-completeness audit of a monotonically-assigned integer id
    column — the ingest-gap screen ("did we drop a shard?"): min, max,
    row count, DISTINCT count, duplicate rows and missing ids implied by
    the ``[min, max]`` envelope. Null ids are counted separately.

    Scale shape: per-batch partials carry min/max/count plus the batch's
    DISTINCT ids packed as int64 bytes (the `hll_distinct_events` exact-
    side idiom — cardinality-scale driver state, the HLL estimate is the
    swap-in for row-scale-cardinality ids); one streaming pass, no
    shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[id_col]
        n_null = int(pc.sum(pc.is_null(col).cast(pa.int64())).as_py() or 0)
        ids = col.drop_null().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        u = np.unique(ids)
        return pa.table({
            "mn": pa.array([int(u[0]) if u.size else None], pa.int64()),
            "mx": pa.array([int(u[-1]) if u.size else None], pa.int64()),
            "n": pa.array([int(ids.size)], pa.int64()),
            "n_null": pa.array([n_null], pa.int64()),
            "uniq": pa.array([u.tobytes()], pa.binary()),
        })

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    if not parts:
        empty = pa.array([0], pa.int64())
        # SQL parity: with no ids, max-min+1-count is NULL, not 0
        return pa.table({"n_rows": empty, "n_null": empty,
                         "n_distinct": empty,
                         "min_id": pa.array([None], pa.int64()),
                         "max_id": pa.array([None], pa.int64()),
                         "n_dup_rows": empty,
                         "n_missing": pa.array([None], pa.int64())})
    merged = pa.concat_tables(parts, promote_options="default")
    mn = pc.min(merged["mn"]).as_py()
    mx = pc.max(merged["mx"]).as_py()
    n = int(pc.sum(merged["n"]).as_py() or 0)
    n_null = int(pc.sum(merged["n_null"]).as_py() or 0)
    u = np.unique(np.frombuffer(b"".join(merged["uniq"].to_pylist()),
                                np.int64))
    n_distinct = int(u.size)
    # SQL parity (review r5): an all-null column has NULL min/max, so
    # the envelope-derived n_missing is NULL too (n_dup stays 0 - 0 = 0)
    n_missing = (mx - mn + 1 - n_distinct) if n_distinct else None
    return pa.table({
        "n_rows": pa.array([n], pa.int64()),
        "n_null": pa.array([n_null], pa.int64()),
        "n_distinct": pa.array([n_distinct], pa.int64()),
        "min_id": pa.array([mn], pa.int64()),
        "max_id": pa.array([mx], pa.int64()),
        "n_dup_rows": pa.array([n - n_distinct], pa.int64()),
        "n_missing": pa.array([n_missing], pa.int64()),
    })
