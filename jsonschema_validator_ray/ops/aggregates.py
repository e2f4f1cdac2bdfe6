"""Profiling / aggregation operators (SURVEY.md §2.2 aggregations row).

Pattern: PARTIAL per-batch aggregation inside ``map_batches`` (vectorized
Arrow kernels), FINAL merge of the tiny partial rows — the combiner push-down
that keeps a 10^12-row profile from shuffling anything but per-batch
summaries. Grouped aggregates with small key domains use the same shape;
large-key ones add the keyed bucket shuffle (``rayutil.bucket_groups``)
between the partial and the final fold (``grouped_aggregate``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# module-level so worker closures carry these by value when the package
# is cloudpickled by-value (runtime relative imports inside worker fns
# break the no-PYTHONPATH fallback — ADVICE r4)
from ..rayutil import bucket_groups, collect_partials, strip_meta
from ..stages.groupcheck import run_starts, segmented_running_max


def profile_columns(ds, numeric_cols: Sequence[str] = (),
                    null_cols: Sequence[str] = (),
                    distinct_cols: Sequence[str] = (),
                    ts_cols: Sequence[str] = ()) -> pa.Table:
    """Single-row table profile: row count, per-column null counts, exact
    distinct counts (small-domain columns only), min/max of timestamp cols.

    Partial+final: each batch emits one summary row; the driver folds them.
    Exact distincts carry per-batch value sets — only valid for small domains
    (enums); use state.HyperLogLog for unbounded columns.
    """
    numeric_cols, null_cols = list(numeric_cols), list(null_cols)
    distinct_cols, ts_cols = list(distinct_cols), list(ts_cols)

    def partial(batch: pa.Table) -> pa.Table:
        out = {"n_rows": [batch.num_rows]}
        for c in null_cols:
            out[f"nulls_{c}"] = [batch.num_rows - pc.count(batch[c]).as_py()]
        for c in numeric_cols:
            out[f"min_{c}"] = [pc.min(batch[c]).as_py()]
            out[f"max_{c}"] = [pc.max(batch[c]).as_py()]
            out[f"sum_{c}"] = [pc.sum(batch[c]).as_py()]
        for c in ts_cols:
            out[f"min_{c}"] = [pc.min(batch[c]).as_py()]
            out[f"max_{c}"] = [pc.max(batch[c]).as_py()]
        for c in distinct_cols:
            vals = pc.unique(batch[c].combine_chunks()
                             if isinstance(batch[c], pa.ChunkedArray)
                             else batch[c]).drop_null()
            out[f"set_{c}"] = [[str(v) for v in vals.to_pylist()]]
        return pa.table(out)

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")

    final = {"n_rows": pa.array([pc.sum(parts["n_rows"]).as_py()], pa.int64())}
    for c in null_cols:
        final[f"n_null_{c}"] = pa.array(
            [pc.sum(parts[f"nulls_{c}"]).as_py()], pa.int64())
    for c in numeric_cols:
        final[f"min_{c}"] = pa.array([pc.min(parts[f"min_{c}"]).as_py()])
        final[f"max_{c}"] = pa.array([pc.max(parts[f"max_{c}"]).as_py()])
        final[f"sum_{c}"] = pa.array([pc.sum(parts[f"sum_{c}"]).as_py()])
    for c in ts_cols:
        final[f"min_{c}"] = pa.array([pc.min(parts[f"min_{c}"]).as_py()],
                                     parts[f"min_{c}"].type)
        final[f"max_{c}"] = pa.array([pc.max(parts[f"max_{c}"]).as_py()],
                                     parts[f"max_{c}"].type)
    for c in distinct_cols:
        merged = set()
        for s in parts[f"set_{c}"].to_pylist():
            merged.update(s)
        final[f"n_distinct_{c}"] = pa.array([len(merged)], pa.int64())
    return pa.table(final)


def value_counts(ds, column: str, flag_set: Optional[Sequence] = None,
                 flag_name: str = "is_valid") -> pa.Table:
    """Category histogram via partial per-batch ``value_counts`` + small final
    fold (no cluster shuffle for enum-sized domains). Optionally adds a
    membership flag against ``flag_set`` (the enum kernel's summary analog)."""
    def partial(batch: pa.Table) -> pa.Table:
        col = batch[column].combine_chunks() \
            if isinstance(batch[column], pa.ChunkedArray) else batch[column]
        vc = pc.value_counts(col.drop_null())
        return pa.table({
            column: pa.array([i["values"].as_py() for i in vc]),
            "n": pa.array([i["counts"].as_py() for i in vc], pa.int64()),
        })

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")
    folded = pa.TableGroupBy(parts, column).aggregate([("n", "sum")])
    out = pa.table({column: folded[column],
                    "n": folded["n_sum"].cast(pa.int64())})
    if flag_set is not None:
        flag = pc.is_in(out[column], value_set=pa.array(list(flag_set)))
        out = out.append_column(flag_name, flag)
    return out.sort_by(column)


# per-batch partials of each aggregate kind, and the fold of each partial
_AGG_PARTIALS = {"sum": ("sum",), "count": ("count_all",), "min": ("min",),
                 "max": ("max",), "mean": ("sum", "count")}
_AGG_FOLD = {"sum": "sum", "count_all": "sum", "count": "sum", "min": "min",
             "max": "max"}


def grouped_aggregate(ds, keys: Sequence[str], aggs: Sequence[tuple]) -> "ray.data.Dataset":  # noqa: F821
    """``SELECT keys, agg(column) AS alias ... GROUP BY keys`` as a partial
    per batch plus a final fold, on the one bucket shuffle
    (:func:`~jsonschema_validator_ray.rayutil.bucket_groups`, hashed on
    ``keys[0]``).

    ``aggs``: (column, kind, alias) with kind in sum|count|min|max|mean.
    ``count`` is ``count(*)`` (its column is ignored); sum, min, max and
    mean skip nulls, and a group with no valid value gets null. The tag
    task runs one Arrow group-by per batch (count → row count, sum / min /
    max → the same kind, mean → a sum and a count of valid values), so the
    shuffle moves at most one row per group per batch; each bucket re-folds
    its partials with one more Arrow group-by (sums of sums and counts, min
    of mins, max of maxes, mean = sum / count). Output: the keys, then one
    column per alias in ``aggs`` order, counts int64, mean float64, rows in
    no particular order. A null key is one group of its own, as in SQL
    ``GROUP BY``."""
    keys = list(keys)
    for _, kind, _ in aggs:
        if kind not in _AGG_PARTIALS:
            raise ValueError(f"grouped_aggregate: unknown kind {kind!r}, "
                             f"expected one of {sorted(_AGG_PARTIALS)}")
    # one partial per distinct (column, fn), named as Arrow names it;
    # count(*) reads no column
    parts = {(c, fn): fn if c is None else f"{c}_{fn}" for c, fn in (
        (None if fn == "count_all" else col, fn)
        for col, kind, _ in aggs for fn in _AGG_PARTIALS[kind])}
    read = list(dict.fromkeys(keys + [c for c, _ in parts if c is not None]))

    def combine(batch: pa.Table) -> pa.Table:
        return pa.TableGroupBy(batch.select(read), keys).aggregate(
            [([] if c is None else c, fn) for c, fn in parts])

    def final(group: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(group, keys).aggregate(
            [(n, _AGG_FOLD[fn]) for (_, fn), n in parts.items()])

        def folded(c, fn):
            return g[f"{parts[(c, fn)]}_{_AGG_FOLD[fn]}"]
        cols = {k: g[k] for k in keys}
        for col, kind, alias in aggs:
            if kind == "count":
                cols[alias] = folded(None, "count_all").cast(pa.int64())
            elif kind == "mean":
                cols[alias] = pc.divide(folded(col, "sum").cast(pa.float64()),
                                        folded(col, "count").cast(pa.float64()))
            else:
                cols[alias] = folded(col, kind)
        return pa.table(cols)

    return bucket_groups(ds, keys[0], final, prepare=combine)


def top_k(ds, key: str, k: int, *, descending: bool = True,
          tiebreak: Optional[str] = None) -> pa.Table:
    """Global top-k with deterministic tiebreak. PARTIAL top-k per batch (the
    only rows that can reach the global answer) → tiny driver-side final sort —
    no global sort shuffle."""
    cols = [key] + ([tiebreak] if tiebreak else [])

    def partial(batch: pa.Table) -> pa.Table:
        order = [(key, "descending" if descending else "ascending")]
        if tiebreak:
            order.append((tiebreak, "ascending"))
        return batch.sort_by(order).slice(0, k)

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")
    order = [(key, "descending" if descending else "ascending")]
    if tiebreak:
        order.append((tiebreak, "ascending"))
    return parts.sort_by(order).slice(0, k)


def _argmax_rows(table: pa.Table, key: str, order_col: str,
                 tiebreak: str | None) -> pa.Table:
    """Keep each key's single best row: max ``order_col``, ties broken by
    the smallest ``tiebreak`` value. Type-generic (string or numeric keys)
    — one Arrow sort + a vectorized run-boundary mask, no per-row Python."""
    if table.num_rows == 0:
        return table
    keys = [(key, "ascending"), (order_col, "descending")]
    if tiebreak is not None:
        keys.append((tiebreak, "ascending"))
    srt = table.sort_by(keys)
    return srt.filter(pa.array(run_starts(srt[key])))


def grouped_argmax(ds, key: str, order_col: str, *,
                   tiebreak: str | None = None):
    """Latest-row-per-group (the ``row_number() OVER (PARTITION BY key
    ORDER BY order_col DESC, tiebreak) = 1`` window): each key's whole row
    at its maximum ``order_col``, deterministic under ties via ``tiebreak``
    (ascending).

    Scale shape — this is grouped_top_k(k=1) with a COMBINER: the per-batch
    partial keeps at most one row per key per batch, so the hash-bucket
    shuffle moves ≤ #keys × #batches rows instead of the full table; the
    in-bucket final repeats the same argmax. Works for string or integer
    keys (no int64-cast restriction — the run-boundary scan is Arrow-typed).
    Null keys / null order values are dropped in the partial stage."""
    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.and_kleene(pc.is_valid(batch[key]),
                             pc.is_valid(batch[order_col])).fill_null(False)
        return _argmax_rows(batch.filter(mask), key, order_col, tiebreak)

    def final(group: pa.Table) -> pa.Table:
        return _argmax_rows(group, key, order_col, tiebreak)

    return bucket_groups(ds, key, final, prepare=partial)


def grouped_mode(ds, key: str, value: str):
    """Per-group MODE (most frequent value, ties → smallest value — the
    deterministic tiebreak SQL expresses as
    ``row_number() OVER (PARTITION BY key ORDER BY cnt DESC, value)``).

    Scale shape: per-batch ``(key, value, count)`` pre-aggregation shrinks
    the shuffle to distinct-pair rows, ONE hash-bucket groupby on the key
    co-locates each key's pairs, and the in-bucket argmax is a sort + run
    scan (no Python per group). Works for string or integer keys/values."""
    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, value])
        both = pc.and_kleene(pc.is_valid(sel[key]), pc.is_valid(sel[value]))
        sel = sel.filter(both.fill_null(False))
        g = pa.TableGroupBy(sel, [key, value]).aggregate([([], "count_all")])
        return pa.table({key: g[key], value: g[value],
                         "cnt": g["count_all"].cast(pa.int64())})

    def bucket_mode(body: pa.Table) -> pa.Table:
        if body.num_rows == 0:
            return pa.table({key: body[key], "mode": body[value],
                             "n": pa.array([], pa.int64())})
        folded = pa.TableGroupBy(body, [key, value]) \
            .aggregate([("cnt", "sum")])
        srt = folded.sort_by([(key, "ascending"),
                              ("cnt_sum", "descending"),
                              (value, "ascending")])
        top = srt.filter(pa.array(run_starts(srt[key])))
        return pa.table({key: top[key], "mode": top[value],
                         "n": top["cnt_sum"].cast(pa.int64())})

    return bucket_groups(ds, key, bucket_mode, prepare=partial)


def grouped_string_agg(ds, key: str, value: str,
                       order_cols: "Sequence[str]", *, sep: str = ">",
                       cap: int = 8):
    """Per-group ORDERED string aggregation capped at the first ``cap``
    elements (SQL ``string_agg(value, sep ORDER BY order_cols)`` over
    ``row_number() <= cap``) — the journey/path-extraction primitive
    (per-user event sequences for funnel mining, per-conversation role
    traces). Emits one row per key: ``(key, path, n_events)`` where
    ``n_events`` is the UNCAPPED group size.

    Scale shape: rows shrink to ``(key, order_cols, value)`` at the scan,
    ONE key-hash bucket shuffle co-locates each key, and the in-bucket
    fold is fully vectorized — sort, key-run detection, a segmented rank
    (``arange - starts[seg]``) for the cap, then ``ListArray`` offsets +
    ``pc.binary_join`` (the render_sft idiom) build every path in one
    kernel call. The cap bounds output row width, so a hot key costs its
    row count in the sort, never an unbounded string. Null keys and null
    values are dropped (documented join-key contract)."""
    cols = [key, *order_cols, value]

    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select(cols)
        ok = pc.and_kleene(pc.is_valid(sel[key]), pc.is_valid(sel[value]))
        return sel.filter(ok.fill_null(False))

    def bucket_agg(body: pa.Table) -> pa.Table:
        if body.num_rows == 0:
            return pa.table({key: body[key],
                             "path": pa.array([], pa.string()),
                             "n_events": pa.array([], pa.int64())})
        srt = body.sort_by([(key, "ascending")]
                           + [(c, "ascending") for c in order_cols])
        karr = srt[key].combine_chunks()
        vals = srt[value].combine_chunks()
        n = len(karr)
        first = run_starts(karr)
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))
        seg = np.cumsum(first) - 1
        rank = np.arange(n) - starts[seg]
        kept_vals = vals.filter(pa.array(rank < cap))
        kept_sizes = np.minimum(sizes, cap)
        offsets = np.concatenate(([0], np.cumsum(kept_sizes))) \
            .astype(np.int64)
        lst = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), kept_vals)
        return pa.table({
            key: karr.take(pa.array(starts, pa.int64())),
            "path": pc.binary_join(lst, sep),
            "n_events": pa.array(sizes, pa.int64())})

    return bucket_groups(ds, key, bucket_agg, prepare=partial)


def grouped_locf(ds, key: str, order_cols: "Sequence[str]", value: str):
    """Per-group forward-fill (LOCF — last observation carried forward):
    SQL ``last_value(value IGNORE NULLS) OVER (PARTITION BY key ORDER BY
    order_cols ROWS UNBOUNDED PRECEDING)`` — the sensor/gap-fill window
    primitive. Emits every input row as ``(key, *order_cols, filled)``;
    rows before a group's first observation stay null.

    Scale shape: rows shrink to the needed columns at the scan, ONE
    key-hash bucket shuffle co-locates each key, and the in-bucket fill
    is fully vectorized — sort, :func:`run_starts` run detection, then a
    single ``np.maximum.accumulate`` over observation positions clamped
    at each group's start index (an observation from the PREVIOUS group
    has a position below the clamp, so fills never leak across keys).
    A null take-index re-nullifies pre-observation rows in one ``take``
    kernel. Null keys are dropped (documented grouped-op contract)."""
    cols = [key, *order_cols, value]

    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select(cols)
        if sel[key].null_count:
            sel = sel.filter(pc.is_valid(sel[key]))
        return sel

    def bucket_fill(body: pa.Table) -> pa.Table:
        srt = body.sort_by([(key, "ascending")]
                           + [(c, "ascending") for c in order_cols])
        v = srt[value].combine_chunks()
        n = len(v)
        first = run_starts(srt[key])
        seg = np.cumsum(first) - 1
        group_floor = np.flatnonzero(first)[seg] if n else \
            np.zeros(0, np.int64)
        pos = np.arange(n)
        valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
        last_obs = np.maximum.accumulate(np.where(valid, pos, -1))
        src = np.where(last_obs >= group_floor, last_obs, -1)
        idx = pa.array(np.where(src >= 0, src, 0), pa.int64(),
                       mask=src < 0)      # null index -> null fill
        return pa.table(
            {c: srt[c] for c in (key, *order_cols)}
            | {"filled": v.take(idx)})

    return bucket_groups(ds, key, bucket_fill, prepare=partial)


def windowed_first(ds, keys: "Sequence[str]", order_cols: "Sequence[str]"):
    """Keep the FIRST row of each composite-key group: SQL
    ``row_number() OVER (PARTITION BY keys ORDER BY order_cols) = 1`` —
    the throttle / dedup-by-time-window primitive (e.g. first event per
    (user, hour)). Rows with a null in ANY key column are dropped
    (documented grouped-op contract).

    Scale shape: ONE bucket shuffle hashed on ``keys[0]`` only — every
    window of one entity co-locates while windows stay bounded per
    entity, so hot entities cost their row count in the in-bucket sort,
    never a driver merge. In-bucket: sort by keys + order, then the
    composite run mask is the elementwise OR of :func:`run_starts` over
    each key column (a row opens a group iff ANY key changed)."""
    def partial(batch: pa.Table) -> pa.Table:
        if any(batch[k].null_count for k in keys):
            ok = None
            for k in keys:
                m = pc.is_valid(batch[k])
                ok = m if ok is None else pc.and_(ok, m)
            batch = batch.filter(ok)
        return batch

    def bucket_first(body: pa.Table) -> pa.Table:
        srt = body.sort_by([(k, "ascending") for k in keys]
                           + [(c, "ascending") for c in order_cols])
        first = run_starts(srt[keys[0]])
        for k in keys[1:]:
            first |= run_starts(srt[k])
        return srt.filter(pa.array(first))

    return bucket_groups(ds, keys[0], bucket_first, prepare=partial)


def grouped_percent_rank(ds, key: str, value: str, id_col: str):
    """SQL ``percent_rank() OVER (PARTITION BY key ORDER BY value)`` =
    ``(rank − 1) / (n − 1)`` with min-rank ties, 0.0 for single-row
    partitions. Returns ``(id_col, key, prk)`` for every row.

    ONE hash-bucket shuffle (whole partitions per bucket), in-bucket a
    single lexsort + two run scans (key segments for n, (key, value) runs
    for the tie-min rank) — no Python per group. Rows with a NULL value are
    dropped (their SQL rank depends on NULLS FIRST/LAST dialect defaults);
    NULL keys form their own partition. Only the three named columns
    enter the shuffle."""
    def bucket_prk(body: pa.Table) -> pa.Table:
        body = body.filter(pc.is_valid(body[value]))
        n = body.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             key: body[key],
                             "prk": pa.array([], pa.float64())})
        karr = body[key].combine_chunks() \
            if isinstance(body[key], pa.ChunkedArray) else body[key]
        codes = karr.dictionary_encode().indices.fill_null(-1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        vals = body[value].cast(pa.float64()) \
            .to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, codes))
        cs, vs = codes[order], vals[order]
        new_key = np.ones(n, bool)
        new_key[1:] = cs[1:] != cs[:-1]
        seg_starts = np.flatnonzero(new_key)
        seg_sizes = np.diff(np.append(seg_starts, n))
        pos = np.arange(n, dtype=np.int64) \
            - np.repeat(seg_starts, seg_sizes)
        new_run = new_key.copy()
        new_run[1:] |= vs[1:] != vs[:-1]
        ri = np.flatnonzero(new_run)
        rank0 = np.repeat(pos[ri], np.diff(np.append(ri, n)))
        denom = np.repeat(seg_sizes, seg_sizes).astype(np.float64) - 1.0
        prk = np.where(denom > 0, rank0 / np.maximum(denom, 1.0), 0.0)
        inv = np.empty(n, np.int64)
        inv[order] = np.arange(n)
        return pa.table({
            id_col: body[id_col].cast(pa.int64()),
            key: body[key],
            "prk": pa.array(prk[inv], pa.float64())})

    return bucket_groups(ds, key, bucket_prk, columns=[id_col, key, value])


def grouped_corr(ds, key: str, x: str, y: str) -> pa.Table:
    """Per-group Pearson correlation via MERGEABLE MOMENTS — the algebraic
    aggregate shape: each batch emits per-key ``(n, Σx, Σy, Σx², Σy², Σxy)``
    partials (one vectorized Arrow groupby per batch, float64), the driver
    folds the tiny partial table and finishes
    ``(nΣxy − ΣxΣy) / √((nΣx²−Σx²ᵗᵒᵗ)(nΣy²−Σy²ᵗᵒᵗ))``. No shuffle at any
    size — partial rows are ``distinct keys × blocks``.

    Rows where either coordinate is NULL are skipped (SQL ``corr``
    semantics); single-point or zero-variance groups yield NULL."""
    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, x, y])
        both = pc.and_kleene(pc.is_valid(sel[x]), pc.is_valid(sel[y]))
        sel = sel.filter(both.fill_null(False))
        xf = sel[x].cast(pa.float64())
        yf = sel[y].cast(pa.float64())
        t = pa.table({key: sel[key], "x": xf, "y": yf,
                      "xx": pc.multiply(xf, xf), "yy": pc.multiply(yf, yf),
                      "xy": pc.multiply(xf, yf)})
        return pa.TableGroupBy(t, key).aggregate(
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("yy", "sum"), ("xy", "sum")])

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")
    final = pa.TableGroupBy(parts, key).aggregate(
        [("x_count", "sum"), ("x_sum", "sum"), ("y_sum", "sum"),
         ("xx_sum", "sum"), ("yy_sum", "sum"), ("xy_sum", "sum")])
    n = final["x_count_sum"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    sx = final["x_sum_sum"].to_numpy(zero_copy_only=False)
    sy = final["y_sum_sum"].to_numpy(zero_copy_only=False)
    sxx = final["xx_sum_sum"].to_numpy(zero_copy_only=False)
    syy = final["yy_sum_sum"].to_numpy(zero_copy_only=False)
    sxy = final["xy_sum_sum"].to_numpy(zero_copy_only=False)
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        corr = np.where(denom > 0, (n * sxy - sx * sy) / denom, np.nan)
    corr_arr = pa.array(corr, pa.float64())
    corr_arr = pc.if_else(pc.is_nan(corr_arr),
                          pa.nulls(len(corr), pa.float64()), corr_arr)
    return pa.table({key: final[key],
                     "n": final["x_count_sum"].cast(pa.int64()),
                     "corr": corr_arr}).sort_by(key)


def grouped_linear_regression(ds, key: str, x: str, y: str) -> pa.Table:
    """Per-group ordinary-least-squares fit of ``y`` on ``x`` via the same
    mergeable-moments shape as ``grouped_corr``: each batch emits per-key
    ``(n, Σx, Σy, Σx², Σxy)`` partials (one vectorized Arrow groupby,
    float64), the driver folds the tiny partial table and finishes
    ``slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)``,
    ``intercept = (Σy − slope·Σx) / n`` — SQL ``regr_slope`` /
    ``regr_intercept`` semantics. No shuffle at any size — partial rows
    are ``distinct keys × blocks``.

    Rows where either coordinate is NULL are skipped; zero-variance or
    single-point groups yield NULL slope/intercept (matching SQL)."""
    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, x, y])
        both = pc.and_kleene(pc.is_valid(sel[x]), pc.is_valid(sel[y]))
        sel = sel.filter(both.fill_null(False))
        xf = sel[x].cast(pa.float64())
        yf = sel[y].cast(pa.float64())
        t = pa.table({key: sel[key], "x": xf, "y": yf,
                      "xx": pc.multiply(xf, xf),
                      "xy": pc.multiply(xf, yf)})
        return pa.TableGroupBy(t, key).aggregate(
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("xy", "sum")])

    parts = pa.concat_tables(collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True),
        promote_options="default")
    final = pa.TableGroupBy(parts, key).aggregate(
        [("x_count", "sum"), ("x_sum", "sum"), ("y_sum", "sum"),
         ("xx_sum", "sum"), ("xy_sum", "sum")])
    n = final["x_count_sum"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    sx = final["x_sum_sum"].to_numpy(zero_copy_only=False)
    sy = final["y_sum_sum"].to_numpy(zero_copy_only=False)
    sxx = final["xx_sum_sum"].to_numpy(zero_copy_only=False)
    sxy = final["xy_sum_sum"].to_numpy(zero_copy_only=False)
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = n * sxx - sx * sx
        slope = np.where(denom > 0, (n * sxy - sx * sy) / denom, np.nan)
        intercept = np.where(denom > 0, (sy - slope * sx) / n, np.nan)
    return pa.table({key: final[key],
                     "n": final["x_count_sum"].cast(pa.int64()),
                     "slope": _nan_to_null(slope),
                     "intercept": _nan_to_null(intercept)}).sort_by(key)


def _nan_to_null(v) -> pa.Array:
    """float64 array with NaN encoded as Arrow NULL (shared by the
    mergeable-moments family's finish steps)."""
    arr = pa.array(v, pa.float64())
    return pc.if_else(pc.is_nan(arr), pa.nulls(len(arr), pa.float64()), arr)


def grouped_skew_kurt(ds, key: str, x: str) -> pa.Table:
    """Per-group sample skewness (G1) and excess kurtosis (G2) — the
    distribution-shape tail of the mergeable-moments family
    (`grouped_corr` / `grouped_linear_regression`). Numerically STABLE:
    each batch computes per-key CENTRAL moments ``(n, mean, M2, M3, M4)``
    with one dictionary-code segmentation (sort + reduceat, no per-row
    Python), and the driver folds partials with Pébay's pairwise update
    formulas — raw Σx⁴ power sums would catastrophically cancel for
    large-mean data (epoch timestamps, ids), which is exactly where
    DuckDB's own raw-moment accumulation degrades; on such columns this
    op is deliberately MORE accurate than the SQL replay (documented
    divergence; the gate column is O(100)-scale where both agree to
    6 dp). Driver fold state is distinct-keys × blocks rows. Finishes
    with the bias-corrected estimators DuckDB's ``skewness`` /
    ``kurtosis`` implement: ``G1 = (m₃/m₂^1.5)·√(n(n−1))/(n−2)``,
    ``G2 = ((n+1)(m₄/m₂² − 3) + 6)·(n−1)/((n−2)(n−3))``.

    NULL semantics match SQL: every key group appears in the output —
    including all-NULL-value groups (n = 0) and NULL keys (their own
    group, as in GROUP BY); skewness needs n ≥ 3, kurtosis n ≥ 4, both
    NULL for zero-variance groups; NULL x rows are skipped from the
    moments but not from group membership."""
    def partial(batch: pa.Table) -> pa.Table:
        karr = batch[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        denc = pc.dictionary_encode(karr)
        codes = denc.indices.fill_null(-1).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        xarr = batch[x]
        if isinstance(xarr, pa.ChunkedArray):
            xarr = xarr.combine_chunks()
        valid = pc.is_valid(xarr).to_numpy(zero_copy_only=False)
        xv = np.where(valid,
                      xarr.cast(pa.float64()).fill_null(0.0)
                      .to_numpy(zero_copy_only=False), 0.0)
        order = np.argsort(codes, kind="stable")
        cs, xs, vs = codes[order], xv[order], valid[order]
        if not len(cs):
            return pa.table({key: karr.slice(0, 0),
                             "pn": pa.array([], pa.int64()),
                             "pm": pa.array([], pa.float64()),
                             "p2": pa.array([], pa.float64()),
                             "p3": pa.array([], pa.float64()),
                             "p4": pa.array([], pa.float64())})
        starts = np.flatnonzero(np.diff(cs, prepend=cs[0] - 1))
        counts = np.diff(np.append(starts, cs.size))
        nv = np.add.reduceat(vs.astype(np.int64), starts)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(nv > 0,
                            np.add.reduceat(xs * vs, starts)
                            / np.maximum(nv, 1), 0.0)
        d = (xs - np.repeat(mean, counts)) * vs
        d2 = d * d
        m2s = np.add.reduceat(d2, starts)
        m3s = np.add.reduceat(d2 * d, starts)
        m4s = np.add.reduceat(d2 * d2, starts)
        keys_out = karr.take(pa.array(order[starts], pa.int64()))
        return pa.table({key: keys_out,
                         "pn": pa.array(nv, pa.int64()),
                         "pm": pa.array(mean, pa.float64()),
                         "p2": pa.array(m2s, pa.float64()),
                         "p3": pa.array(m3s, pa.float64()),
                         "p4": pa.array(m4s, pa.float64())})

    tables = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True),
        keep_empty=True)
    tables = [t for t in tables if t.num_rows] or tables[:1]
    parts = pa.concat_tables(tables, promote_options="default")
    # driver fold: Pébay pairwise merge per key, sequential over the
    # distinct-keys × blocks partial rows (same driver scale as the
    # profiler's merges). None stands for the NULL key group.
    state: dict = {}
    for krow, nB, mB, M2B, M3B, M4B in zip(
            parts[key].to_pylist(), parts["pn"].to_pylist(),
            parts["pm"].to_pylist(), parts["p2"].to_pylist(),
            parts["p3"].to_pylist(), parts["p4"].to_pylist()):
        cur = state.get(krow)
        if cur is None or cur[0] == 0:
            state[krow] = [nB, mB, M2B, M3B, M4B]
            continue
        if nB == 0:
            continue
        nA, mA, M2A, M3A, M4A = cur
        n = nA + nB
        delta = mB - mA
        mean = mA + delta * nB / n
        M2 = M2A + M2B + delta * delta * nA * nB / n
        M3 = (M3A + M3B
              + delta ** 3 * nA * nB * (nA - nB) / n ** 2
              + 3.0 * delta * (nA * M2B - nB * M2A) / n)
        M4 = (M4A + M4B
              + delta ** 4 * nA * nB * (nA * nA - nA * nB + nB * nB)
              / n ** 3
              + 6.0 * delta * delta * (nA * nA * M2B + nB * nB * M2A)
              / n ** 2
              + 4.0 * delta * (nA * M3B - nB * M3A) / n)
        state[krow] = [n, mean, M2, M3, M4]

    keys_list = list(state.keys())
    n = np.array([state[k][0] for k in keys_list], np.float64)
    M2 = np.array([state[k][2] for k in keys_list], np.float64)
    M3 = np.array([state[k][3] for k in keys_list], np.float64)
    M4 = np.array([state[k][4] for k in keys_list], np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        m2 = M2 / n
        m3 = M3 / n
        m4 = M4 / n
        ok2 = m2 > 0
        skew = np.where(
            ok2 & (n >= 3),
            (m3 / np.where(ok2, m2, 1.0) ** 1.5)
            * np.sqrt(n * (n - 1.0)) / (n - 2.0), np.nan)
        kurt = np.where(
            ok2 & (n >= 4),
            ((n + 1.0) * (m4 / np.where(ok2, m2, 1.0) ** 2 - 3.0) + 6.0)
            * (n - 1.0) / ((n - 2.0) * (n - 3.0)), np.nan)

    key_type = parts.schema.field(key).type
    return pa.table({key: pa.array(keys_list, key_type),
                     "n": pa.array(n.astype(np.int64), pa.int64()),
                     "skew": _nan_to_null(skew),
                     "kurt": _nan_to_null(kurt)}).sort_by(key)


def grouped_quantiles(ds, key: str, value: str, qs: Sequence[float]):
    """EXACT grouped quantiles (linear interpolation, = SQL
    ``quantile_cont``): per distinct ``key``, the quantiles of ``value`` at
    each q in ``qs`` plus the group row count.

    One hash-bucket groupby co-locates each key's rows; inside a bucket one
    sort segments the rows by key and ``np.quantile`` runs per segment —
    the per-bucket loop is over DISTINCT KEYS, never rows, so it stays
    cheap for the enum-sized key domains exact quantiles are meant for.
    (Unbounded key domains at scale should prefer the mergeable t-digest in
    ``state/tdigest.py`` — exact quantiles fundamentally need each group's
    full value set in one place.) Returns a Dataset of
    ``(key, n, q_<pct>...)`` rows. Only ``key`` and ``value`` enter the
    shuffle.
    """
    qs = list(qs)
    qnames = [f"q{int(round(q * 100)):02d}" for q in qs]

    def bucket_quantiles(group: pa.Table) -> pa.Table:
        empty = {key: pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())} \
            | {qn: pa.array([], pa.float64()) for qn in qnames}
        if group.num_rows == 0:
            return pa.table(empty)
        srt = group.sort_by([(key, "ascending")])
        k_arr = srt[key].combine_chunks() \
            if isinstance(srt[key], pa.ChunkedArray) else srt[key]
        v = srt[value].to_numpy(zero_copy_only=False)
        n = srt.num_rows
        same = np.zeros(n, bool)
        if n > 1:
            same[1:] = pc.equal(k_arr.slice(1), k_arr.slice(0, n - 1)) \
                .to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(~same)
        ends = np.append(starts[1:], n)
        rows = {key: k_arr.take(pa.array(starts, pa.int64())),
                "n": pa.array(ends - starts, pa.int64())}

        def seg_q(s0, e0):
            # SQL quantile_cont IGNORES nulls (while n stays count(*));
            # feeding NaN through np.quantile poisoned every quantile of a
            # group containing one null (review r4)
            seg = v[s0:e0]
            seg = seg[seg == seg]
            return np.quantile(seg, qs) if seg.size \
                else np.full(len(qs), np.nan)

        qmat = np.stack([seg_q(s, e) for s, e in zip(starts, ends)])
        for j, qn in enumerate(qnames):
            rows[qn] = pa.array(qmat[:, j], pa.float64())
        return pa.table(rows)

    return bucket_groups(ds, key, bucket_quantiles, columns=[key, value])


def grouped_top_k(ds, key: str, order_col: str, k: int, *,
                  descending: bool = True, tiebreak: str | None = None):
    """Per-group top-k (the ``row_number() OVER (PARTITION BY key ORDER BY
    order_col) <= k`` window): keeps each key's k best rows with a 1-based
    ``rk`` rank column appended. Deterministic under ties when ``tiebreak``
    (ascending) is given.

    One hash-bucket groupby, then one numpy lexsort per bucket + a
    segmented ``arange`` for ranks — no per-row Python. Only k rows per key
    leave the shuffle stage. Returns a Dataset with ``ds``'s columns + rk.

    Keys of ANY hashable Arrow type work (string/int/...): the in-bucket
    rank path segments on dictionary codes, not on the raw values (r5 —
    lifts the ADVICE-r3 integer-key restriction). Null keys form their own
    group, matching SQL ``PARTITION BY`` null semantics.
    """
    def bucket_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.append_column("rk", pa.array([], pa.int64()))
        codes = pc.dictionary_encode(group[key].combine_chunks()) \
            .indices.cast(pa.int64())
        kv = codes.fill_null(-1).to_numpy(zero_copy_only=False)
        ov = group[order_col].to_numpy(zero_copy_only=False)
        sort_keys = [-ov if descending else ov, kv]
        if tiebreak is not None:
            sort_keys.insert(0, group[tiebreak]
                             .to_numpy(zero_copy_only=False))
        order = np.lexsort(sort_keys)          # last key is primary
        ks = kv[order]
        starts = np.flatnonzero(np.diff(ks, prepend=ks[0] - 1))
        counts = np.diff(np.append(starts, ks.size))
        rk = np.arange(ks.size) - np.repeat(starts, counts) + 1
        keep = rk <= k
        out = group.take(pa.array(order[keep], pa.int64()))
        return out.append_column("rk", pa.array(rk[keep], pa.int64()))

    return bucket_groups(ds, key, bucket_topk)


def sessionize_counts(ds, user_col: str, ts_col: str, order_col: str,
                      gap_us: int = 30 * 60 * 1_000_000) -> pa.Table:
    """Gap-based sessionization (the batch form of a session window): per
    user, events ordered by (ts, order_col) start a new session when the gap
    to the previous event exceeds ``gap_us``. Returns (user, n_sessions).

    Execution: hash-bucket groupby keeps WHOLE users per bucket (no session
    can straddle buckets), then one vectorized pass per bucket."""
    def count_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by([(user_col, "ascending"), (ts_col, "ascending"),
                             (order_col, "ascending")])
        n = srt.num_rows
        if n == 0:
            return pa.table({user_col: pa.array([], pa.int64()),
                             "n_sessions": pa.array([], pa.int64())})
        user = srt[user_col].combine_chunks() \
            if isinstance(srt[user_col], pa.ChunkedArray) else srt[user_col]
        ts_np = srt[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        same_user = np.zeros(n, bool)
        if n > 1:
            same_user[1:] = pc.equal(user.slice(1), user.slice(0, n - 1)) \
                .to_numpy(zero_copy_only=False)
        new_session = ~same_user | (np.diff(ts_np, prepend=ts_np[0] - 1)
                                    > gap_us)
        # per-user session counts: runs of the (sorted) user column
        run_starts = np.flatnonzero(~same_user)
        counts = np.add.reduceat(new_session.astype(np.int64), run_starts)
        users = user.take(pa.array(run_starts, pa.int64()))
        # return the user values in their INPUT type — the unconditional
        # int64 cast crashed on string user ids and nothing here needs
        # integer users (review r4)
        return pa.table({user_col: users,
                         "n_sessions": pa.array(counts, pa.int64())})

    out = bucket_groups(ds, user_col, count_bucket,
                        columns=[user_col, ts_col, order_col])
    parts = pa.concat_tables(collect_partials(out, keep_empty=True),
                             promote_options="default")
    return parts.sort_by(user_col)


def adjacent_pairs(ds, group_col: str, order_col: str, tag_col: str,
                   from_tag: str, to_tag: str, payload_col: str):
    """Adjacent-turn pair extraction — the SFT data-prep step over
    transcripts: per group (conversation), with rows ordered by
    ``order_col``, emit every adjacent row pair whose tags transition
    ``from_tag`` → ``to_tag`` (user prompt → assistant response). Output
    columns: ``group_col``, ``{order,payload}_col + "_from"/"_to"``.

    Execution shape: ONE hash-bucket groupby on ``group_col`` (whole
    conversations co-locate — no pair can straddle buckets), then a fully
    vectorized in-bucket pass: lexsort, shifted equality masks, one ``take``
    of the matching row indices. Output is a streaming Dataset.

    Determinism: rows tie-broken by ``(order_col, tag_col, payload_col)``
    so duplicate order values (the corpus plants turn_idx duplicates) yield
    the same pairs as the SQL ``LEAD ... ORDER BY`` with the same tiebreak.
    Null-group rows form their own SQL-`PARTITION BY`-style group (null ==
    null); null tags match neither side of the transition."""
    def pairs_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by([(group_col, "ascending"),
                             (order_col, "ascending"),
                             (tag_col, "ascending"),
                             (payload_col, "ascending")])
        n = srt.num_rows
        g = srt[group_col].combine_chunks() \
            if isinstance(srt[group_col], pa.ChunkedArray) else srt[group_col]
        tag = srt[tag_col].combine_chunks() \
            if isinstance(srt[tag_col], pa.ChunkedArray) else srt[tag_col]
        same = _same_group_mask(g, n)
        is_from = pc.equal(tag, from_tag).fill_null(False) \
            .to_numpy(zero_copy_only=False)
        is_to = pc.equal(tag, to_tag).fill_null(False) \
            .to_numpy(zero_copy_only=False)
        idx = _adjacent_pair_idx(same, is_from, is_to)
        lhs = srt.take(pa.array(idx, pa.int64()))
        rhs = srt.take(pa.array(idx + 1, pa.int64()))
        return pa.table({
            group_col: lhs[group_col],
            order_col + "_from": lhs[order_col],
            order_col + "_to": rhs[order_col],
            payload_col + "_from": lhs[payload_col],
            payload_col + "_to": rhs[payload_col],
        })

    return bucket_groups(ds, group_col, pairs_bucket,
                         columns=[group_col, order_col, tag_col, payload_col])


def transition_counts(ds, group_col: str, order_cols: "Sequence[str]",
                      tag_col: str):
    """Markov transition counts — the sequence-mining primitive behind
    next-event prediction and journey analysis: within each group, with
    rows ordered by ``order_cols``, count every ADJACENT tag pair
    (SQL ``lead(tag) OVER (PARTITION BY group ORDER BY order)`` +
    ``GROUP BY from, to``). Emits PARTIAL counts ``(from_tag, to_tag,
    n)`` per bucket — output cardinality is |tag domain|², driver-scale;
    callers fold with one tiny final group_by and derive probabilities.

    Scale shape: rows shrink to the needed columns at the scan, ONE
    group-hash bucket shuffle co-locates each group (no pair can
    straddle buckets), and the in-bucket pass is one sort + shifted
    masks + two ``take`` calls + an Arrow group_by — no per-row Python.
    Null-group rows are dropped; pairs where EITHER side's tag is null
    are excluded (mirrors the SQL ``WHERE from IS NOT NULL AND to IS
    NOT NULL`` contract). Rows tying on ``order_cols`` are tie-broken
    by the tag (the adjacent_pairs determinism rule) — give unique
    order columns when the counts must match a specific SQL ``lead``
    order."""
    cols = [group_col, *order_cols, tag_col]

    def project(batch: pa.Table) -> pa.Table:
        sel = batch.select(cols)
        if sel[group_col].null_count:
            sel = sel.filter(pc.is_valid(sel[group_col]))
        return sel

    def bucket_pairs(body: pa.Table) -> pa.Table:
        srt = body.sort_by([(group_col, "ascending")]
                           + [(c, "ascending") for c in order_cols]
                           + [(tag_col, "ascending")])
        n = srt.num_rows
        g = srt[group_col].combine_chunks()
        tag = srt[tag_col].combine_chunks()
        same = _same_group_mask(g, n)
        valid = pc.is_valid(tag).to_numpy(zero_copy_only=False)
        idx = _adjacent_pair_idx(same, valid, valid)
        t = pa.table({"from_tag": tag.take(pa.array(idx, pa.int64())),
                      "to_tag": tag.take(pa.array(idx + 1, pa.int64()))})
        gb = t.group_by(["from_tag", "to_tag"]).aggregate(
            [([], "count_all")])
        return pa.table({"from_tag": gb["from_tag"],
                         "to_tag": gb["to_tag"],
                         "n": gb["count_all"].cast(pa.int64())})

    return bucket_groups(ds, group_col, bucket_pairs, prepare=project)


def _adjacent_pair_idx(same: np.ndarray, lhs_ok: np.ndarray,
                       rhs_ok: np.ndarray) -> np.ndarray:
    """Indices ``i`` of a SORTED table where rows ``(i, i+1)`` form a
    same-group adjacent pair and both per-side masks hold — the shared
    core of adjacent_pairs / transition_counts (``same`` has length
    n-1, the side masks length n)."""
    n = len(lhs_ok)
    if n < 2:
        return np.array([], np.int64)
    return np.flatnonzero(same & lhs_ok[:-1] & rhs_ok[1:])


def _same_group_mask(g: pa.Array, n: int) -> np.ndarray:
    """Shifted row-adjacency mask over a SORTED group column: True where row
    i+1 belongs to the same group as row i. Null groups compare EQUAL to
    each other (SQL ``PARTITION BY`` semantics — all-null keys are one
    partition)."""
    if n < 2:
        return np.zeros(max(n - 1, 0), bool)
    a, b = g.slice(0, n - 1), g.slice(1)
    return pc.or_kleene(
        pc.equal(a, b),
        pc.and_(pc.is_null(a), pc.is_null(b))).fill_null(False) \
        .to_numpy(zero_copy_only=False)


def truncate_context(ds, group_col: str, order_col: str, text_col: str,
                     budget: int, tag_col: str | None = None):
    """Context-window capping — the "fit the conversation into the model's
    context" step of a training pipeline: per group (conversation), with
    rows ordered by ``(order_col, tag_col, text_col)``, keep the longest
    PREFIX whose cumulative whitespace-token count stays within ``budget``.
    Output = the kept rows plus ``cum_tokens`` (the running total through
    each row).

    Token convention matches ``ops.text.token_count`` / the DuckDB
    ``len(string_split(text, ' '))`` oracle exactly (single-space split,
    empty parts count); null text counts 0 tokens — the same value a SQL
    window ``sum`` produces by skipping the NULL.

    Execution: ONE hash-bucket groupby on ``group_col`` (whole conversations
    co-locate), then a vectorized in-bucket pass — one Arrow
    ``count_substring``, one segmented cumsum, one filter. Streaming output
    Dataset; nothing driver-side."""
    sort_keys = [(group_col, "ascending"), (order_col, "ascending")] \
        + ([(tag_col, "ascending")] if tag_col else []) \
        + [(text_col, "ascending")]

    def cap_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by(sort_keys)
        n = srt.num_rows
        g = srt[group_col].combine_chunks() \
            if isinstance(srt[group_col], pa.ChunkedArray) else srt[group_col]
        toks = pc.add(pc.count_substring(srt[text_col], " "), 1) \
            .cast(pa.int64())
        tk = toks.combine_chunks().fill_null(0) \
            .to_numpy(zero_copy_only=False) \
            if isinstance(toks, pa.ChunkedArray) \
            else toks.fill_null(0).to_numpy(zero_copy_only=False)
        cum = np.cumsum(tk)
        starts = np.concatenate([[0], np.flatnonzero(
            ~_same_group_mask(g, n)) + 1]) if n else np.array([0], np.int64)
        counts = np.diff(np.concatenate([starts, [n]]))
        base = np.repeat(cum[starts] - tk[starts], counts) \
            if n else np.array([], np.int64)
        cum_in = cum - base
        keep = cum_in <= budget
        out = srt.filter(pa.array(keep))
        return out.append_column(
            "cum_tokens", pa.array(cum_in[keep], pa.int64()))

    return bucket_groups(ds, group_col, cap_bucket)


def alternation_stats(ds, group_col: str, order_col: str, tag_col: str,
                      text_col: str | None = None):
    """Conversation-quality structure metric: per group, the number of rows
    and the number of adjacent SAME-tag transitions (consecutive same-role
    turns — the classic malformed-transcript smell), plus an
    ``alternating`` verdict (zero repeats). Rows order by
    ``(order_col, tag_col[, text_col])`` — the same deterministic tiebreak
    as :func:`adjacent_pairs`, so duplicate order values count identically
    in the SQL LAG oracle. A null tag equals nothing (not even another
    null), matching SQL ``role = lag(role)`` null semantics.

    One hash-bucket groupby over the sort columns only, vectorized
    shifted-equality + ``reduceat`` in-bucket; group-cardinality rows
    leave each bucket."""
    sort_keys = [(group_col, "ascending"), (order_col, "ascending"),
                 (tag_col, "ascending")] \
        + ([(text_col, "ascending")] if text_col else [])

    def stats_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by(sort_keys)
        n = srt.num_rows
        g = srt[group_col].combine_chunks() \
            if isinstance(srt[group_col], pa.ChunkedArray) else srt[group_col]
        tag = srt[tag_col].combine_chunks() \
            if isinstance(srt[tag_col], pa.ChunkedArray) else srt[tag_col]
        same_g = _same_group_mask(g, n)
        if n > 1:
            same_tag = pc.equal(tag.slice(0, n - 1), tag.slice(1)) \
                .fill_null(False).to_numpy(zero_copy_only=False)
        else:
            same_tag = np.zeros(max(n - 1, 0), bool)
        rep = np.concatenate([[False], same_g & same_tag]) \
            if n else np.array([], bool)
        starts = np.concatenate([[0], np.flatnonzero(~same_g) + 1]) \
            if n else np.array([], np.int64)
        if not n:
            return pa.table({group_col: g,
                             "n_turns": pa.array([], pa.int64()),
                             "n_repeats": pa.array([], pa.int64()),
                             "alternating": pa.array([], pa.bool_())})
        counts = np.diff(np.concatenate([starts, [n]]))
        reps = np.add.reduceat(rep.astype(np.int64), starts)
        return pa.table({
            group_col: g.take(pa.array(starts, pa.int64())),
            "n_turns": pa.array(counts, pa.int64()),
            "n_repeats": pa.array(reps, pa.int64()),
            "alternating": pa.array(reps == 0),
        })

    return bucket_groups(ds, group_col, stats_bucket,
                         columns=[c for c, _ in sort_keys])


def render_conversations(ds, group_col: str, order_col: str, role_col: str,
                         text_col: str, line_sep: str = "\n",
                         role_sep: str = ": "):
    """Render each conversation into ONE training-sample string — the final
    "materialize SFT samples" step: per group, rows ordered by
    ``(order_col, role_col, text_col)`` become ``role: text`` lines joined
    with ``line_sep``. SQL ``||``/``string_agg`` null semantics exactly: a
    null role OR text nulls that line out of the join (``count`` of lines
    skips it), and a conversation with zero renderable lines renders NULL.

    Output: ``(group_col, n_lines, n_chars, rendered)``. One hash-bucket
    groupby; in-bucket everything is Arrow kernels — one element-wise
    concat, one ``ListArray`` + ``binary_join`` (the `concat_packed`
    machinery), zero per-row Python."""
    sort_keys = [(group_col, "ascending"), (order_col, "ascending"),
                 (role_col, "ascending"), (text_col, "ascending")]

    def render_bucket(group: pa.Table) -> pa.Table:
        srt = group.sort_by(sort_keys)
        n = srt.num_rows
        g = srt[group_col].combine_chunks() \
            if isinstance(srt[group_col], pa.ChunkedArray) else srt[group_col]
        if not n:
            return pa.table({group_col: g,
                             "n_lines": pa.array([], pa.int64()),
                             "n_chars": pa.array([], pa.int64()),
                             "rendered": pa.array([], pa.string())})
        lines = pc.binary_join_element_wise(
            srt[role_col].combine_chunks()
            if isinstance(srt[role_col], pa.ChunkedArray) else srt[role_col],
            srt[text_col].combine_chunks()
            if isinstance(srt[text_col], pa.ChunkedArray) else srt[text_col],
            pa.scalar(role_sep))
        ok = pc.is_valid(lines).to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.flatnonzero(
            ~_same_group_mask(g, n)) + 1])
        counts = np.diff(np.concatenate([starts, [n]]))
        nv = np.add.reduceat(ok.astype(np.int64), starts)
        # reduceat quirk: a start index equal to the NEXT start (empty
        # segment) copies the element — impossible here (counts >= 1), but
        # a group whose rows are ALL null still gets nv from its own rows
        offsets = np.concatenate([[0], np.cumsum(nv)]).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                     lines.filter(pa.array(ok))),
            line_sep)
        rendered = pc.if_else(pa.array(nv > 0), joined,
                              pa.scalar(None, pa.string()))
        return pa.table({
            group_col: g.take(pa.array(starts, pa.int64())),
            "n_lines": pa.array(nv, pa.int64()),
            "n_chars": pc.utf8_length(rendered).cast(pa.int64()),
            "rendered": rendered,
        })

    return bucket_groups(ds, group_col, render_bucket,
                         columns=[group_col, order_col, role_col, text_col])


def cooccurrence_pairs(ds, key_col: str, value_col: str) -> pa.Table:
    """Value co-occurrence ("market basket") counts: for every unordered
    pair of DISTINCT values sharing a key (two event types performed by the
    same user, two tools used in the same conversation), how many keys
    exhibit both. Null keys/values drop (SQL DISTINCT + self-join parity).

    Scale shape: per-batch ``(key, value)`` DISTINCT pre-aggregation bounds
    the shuffle by distinct pairs, ONE hash-bucket groupby on the key, then
    a fully vectorized in-bucket pass — per-key segments from one lexsort,
    all (i<j) index pairs decoded in closed form from a triangular-number
    arange (no Python loop over keys), one small (a, b) groupby per bucket.
    Only pair-domain² rows leave each bucket; the driver folds a
    domain²-scale table. Per-key distinct-value fan-out is assumed
    bucket-memory-bounded (true for enum-like domains; a 10^5-value key
    would emit 10^10 pairs and needs a cap upstream)."""
    def distinct_partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key_col, value_col])
        ok = pc.and_(pc.is_valid(sel[key_col]), pc.is_valid(sel[value_col]))
        g = pa.TableGroupBy(sel.filter(ok), [key_col, value_col]) \
            .aggregate([])
        return g

    def pairs_bucket(group: pa.Table) -> pa.Table:
        # bucket-level distinct (batch partials can repeat a pair)
        group = pa.TableGroupBy(group, [key_col, value_col]).aggregate([])
        srt = group.sort_by([(key_col, "ascending"),
                             (value_col, "ascending")])
        n = srt.num_rows
        vals = srt[value_col].combine_chunks() \
            if isinstance(srt[value_col], pa.ChunkedArray) \
            else srt[value_col]
        empty = pa.table({"a": pa.array([], vals.type),
                          "b": pa.array([], vals.type),
                          "n_keys": pa.array([], pa.int64())})
        if n < 2:
            return empty
        g = srt[key_col].combine_chunks() \
            if isinstance(srt[key_col], pa.ChunkedArray) else srt[key_col]
        starts = np.concatenate([[0], np.flatnonzero(
            ~_same_group_mask(g, n)) + 1])
        m = np.diff(np.concatenate([starts, [n]]))
        t_cnt = m * (m - 1) // 2            # pairs per key
        tot = int(t_cnt.sum())
        if not tot:
            return empty
        seg = np.repeat(np.arange(m.size), t_cnt)
        k = np.arange(tot, dtype=np.int64) \
            - np.repeat(np.cumsum(t_cnt) - t_cnt, t_cnt)
        ms = m[seg].astype(np.float64)
        # closed-form triangular decode of pair index k -> (i, j), i < j
        i = np.floor((2.0 * ms - 1.0
                      - np.sqrt((2.0 * ms - 1.0) ** 2 - 8.0 * k)) / 2.0) \
            .astype(np.int64)
        # one-step correction against sqrt boundary error (off-by-one at
        # exact triangular offsets): offset(i) <= k < offset(i+1) must hold
        mi = m[seg]
        off = (i * (2 * mi - i - 1)) // 2
        i = np.where(off > k, i - 1, i)
        off = (i * (2 * mi - i - 1)) // 2
        nxt = ((i + 1) * (2 * mi - i - 2)) // 2
        i = np.where(k >= nxt, i + 1, i)
        off = (i * (2 * mi - i - 1)) // 2
        j = k - off + i + 1
        base = starts[seg]
        a = vals.take(pa.array(base + i, pa.int64()))
        b = vals.take(pa.array(base + j, pa.int64()))
        gb = pa.TableGroupBy(pa.table({"a": a, "b": b}), ["a", "b"]) \
            .aggregate([([], "count_all")])
        return pa.table({"a": gb["a"], "b": gb["b"],
                         "n_keys": gb["count_all"].cast(pa.int64())})

    all_parts = collect_partials(
        bucket_groups(ds, key_col, pairs_bucket, prepare=distinct_partial),
        keep_empty=True)
    parts = [t for t in all_parts if t.num_rows]
    if not parts:
        # preserve the VALUE type in the empty result: buckets emit typed
        # empties (vals.type); the string fallback only covers a dataset
        # that produced no blocks at all (review r4 batch 2)
        if all_parts:
            return all_parts[0]
        return pa.table({"a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "n_keys": pa.array([], pa.int64())})
    fold = pa.TableGroupBy(pa.concat_tables(parts, promote_options="default"),
                           ["a", "b"]).aggregate([("n_keys", "sum")])
    fold = fold.sort_by([("a", "ascending"), ("b", "ascending")])
    return pa.table({"a": fold["a"], "b": fold["b"],
                     "n_keys": fold["n_keys_sum"].cast(pa.int64())})


def profile_table(ds, columns: list,
                  approx_above: int | None = None) -> pa.Table:
    """Full per-column data-quality profile — the "describe the table"
    sweep run before any pipeline: for every column, exact row/null counts,
    distinct count, and min/max (int-family columns — integers and
    timestamps — in ``min_int``/``max_int`` as epoch-µs/int64; float
    columns in ``min_float``/``max_float``; other types null both).

    Distinct counting folds each column's DISTINCT 128-bit value hashes
    (``state.hll.hash_pair128`` — the ``exact_dedup_keepers`` key;
    collision-negligible at 10^12 rows) per batch and unions them
    INCREMENTALLY on the driver: exact, nulls excluded (SQL
    ``count(DISTINCT col)``), driver peak bounded by column cardinality
    plus one batch's distincts.

    ``approx_above`` bounds that driver state for row-scale-cardinality
    columns (unique ids at 10^12 rows): the moment a column's RUNNING exact
    distinct count crosses the cap, its hash set is folded into a
    ``HyperLogLog`` (p=14, ~0.8% standard error) and freed; later batches
    feed the sketch directly, so driver memory per column is
    min(cardinality, cap) hashes + 16 KiB of registers. Columns that
    crossed the cap report the HLL estimate and ``approx = true`` in the
    output; columns below it stay exact with ``approx = false``
    (VERDICT r4 #8). One streaming pass, no shuffle either way."""
    from ..state.hll import HyperLogLog, hash_pair128

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for name in columns:
            col = batch[name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            nn = col.null_count
            vals = col.drop_null()
            if len(vals):
                h1, h2 = hash_pair128(vals)
                uniq = np.unique(np.stack([h1, h2], axis=1), axis=0)
            else:
                uniq = np.empty((0, 2), np.uint64)
            mn_i = mx_i = None
            mn_f = mx_f = None
            if len(vals):
                t = vals.type
                if pa.types.is_integer(t) or pa.types.is_timestamp(t):
                    mm = pc.min_max(vals.cast(pa.int64()))
                    mn_i, mx_i = mm["min"].as_py(), mm["max"].as_py()
                elif pa.types.is_floating(t):
                    mm = pc.min_max(vals)
                    mn_f, mx_f = mm["min"].as_py(), mm["max"].as_py()
            rows.append((name, batch.num_rows, nn, uniq.tobytes(),
                         mn_i, mx_i, mn_f, mx_f))
        return pa.table({
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_nulls": pa.array([r[2] for r in rows], pa.int64()),
            "uniq": pa.array([r[3] for r in rows], pa.binary()),
            "min_int": pa.array([r[4] for r in rows], pa.int64()),
            "max_int": pa.array([r[5] for r in rows], pa.int64()),
            "min_float": pa.array([r[6] for r in rows], pa.float64()),
            "max_float": pa.array([r[7] for r in rows], pa.float64()),
        })

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    # ONE pass over the partial tables; distinct blobs union in BATCHED
    # merges: pending blobs accumulate to ~64 MB then fold into the merged
    # array via one np.unique — driver peak stays bounded at
    # cardinality + 64 MB (review r4 batch 2) without paying an
    # O(C log C) re-sort per part (the per-part version made this the
    # slowest extended-bench query at 6.7 s; batched merging is ~one sort)
    MERGE_BYTES = 64 << 20
    acc = {name: {"n_rows": 0, "n_nulls": 0,
                  "uniq": np.empty((0, 2), np.uint64),
                  "pending": [], "pending_bytes": 0, "hll": None,
                  "mn_i": None, "mx_i": None, "mn_f": None, "mx_f": None}
           for name in columns}

    def _merge(a):
        if a["hll"] is not None:
            # approx mode: pending partials feed the sketch (h1 alone is a
            # uniform 64-bit hash — the second word only tightens the exact
            # path's collision bound) and are freed immediately
            for p in a["pending"]:
                a["hll"].update_hashes(p[:, 0])
            a["pending"], a["pending_bytes"] = [], 0
            return
        if a["pending"]:
            a["uniq"] = np.unique(
                np.concatenate([a["uniq"]] + a["pending"]), axis=0)
            a["pending"], a["pending_bytes"] = [], 0
        if approx_above is not None and a["uniq"].shape[0] > approx_above:
            h = HyperLogLog(p=14)
            h.update_hashes(a["uniq"][:, 0])
            a["hll"] = h
            a["uniq"] = np.empty((0, 2), np.uint64)   # free the exact set

    def _fold_min(cur, v):
        return v if cur is None else (v if v is not None and v < cur
                                      else cur)

    def _fold_max(cur, v):
        return v if cur is None else (v if v is not None and v > cur
                                      else cur)

    for t in parts:
        names_col = t["column"].to_pylist()
        for k, name in enumerate(names_col):
            a = acc[name]
            a["n_rows"] += t["n_rows"][k].as_py()
            a["n_nulls"] += t["n_nulls"][k].as_py()
            part_u = np.frombuffer(t["uniq"][k].as_py(),
                                   np.uint64).reshape(-1, 2)
            if part_u.size:
                a["pending"].append(part_u)
                a["pending_bytes"] += part_u.nbytes
                if a["pending_bytes"] > MERGE_BYTES:
                    _merge(a)
            a["mn_i"] = _fold_min(a["mn_i"], t["min_int"][k].as_py())
            a["mx_i"] = _fold_max(a["mx_i"], t["max_int"][k].as_py())
            a["mn_f"] = _fold_min(a["mn_f"], t["min_float"][k].as_py())
            a["mx_f"] = _fold_max(a["mx_f"], t["max_float"][k].as_py())
    for name in columns:
        _merge(acc[name])
    out = [(name, a["n_rows"], a["n_nulls"],
            int(round(a["hll"].cardinality())) if a["hll"] is not None
            else int(a["uniq"].shape[0]),
            a["hll"] is not None,
            a["mn_i"], a["mx_i"], a["mn_f"], a["mx_f"])
           for name, a in ((n, acc[n]) for n in columns)]
    return pa.table({
        "column": pa.array([r[0] for r in out], pa.string()),
        "n_rows": pa.array([r[1] for r in out], pa.int64()),
        "n_nulls": pa.array([r[2] for r in out], pa.int64()),
        "n_distinct": pa.array([r[3] for r in out], pa.int64()),
        "approx": pa.array([r[4] for r in out], pa.bool_()),
        "min_int": pa.array([r[5] for r in out], pa.int64()),
        "max_int": pa.array([r[6] for r in out], pa.int64()),
        "min_float": pa.array([r[7] for r in out], pa.float64()),
        "max_float": pa.array([r[8] for r in out], pa.float64()),
    })


def heavy_hitters(ds, column: str, k: int = 10,
                  capacity: int = 256) -> pa.Table:
    """Mergeable heavy-hitters top-k (Misra-Gries / Space-Saving family,
    public algorithm): per batch ONE exact vectorized ``value_counts``; if
    a batch holds more than ``capacity`` distinct values, only the top
    ``capacity`` survive and the largest dropped count is carried as that
    partial's error term. The driver sums the tiny partials.

    Returned estimates are LOWER bounds with a global error certificate:
    ``est_count <= true_count <= est_count + err_bound`` (an item can only
    lose mass where it was dropped, and each partial drops at most its
    ``dmax`` per item). Any item with true count > N/capacity per batch is
    guaranteed to survive — the standard MG frequent-items guarantee. With
    ``capacity >= distinct(column)`` (enum-domain keys, the oracle-gate
    case) nothing is dropped and counts are exact with err_bound = 0.

    Null keys are dropped (same policy as the HLL / grouped-distinct
    sketches; a null "item" has no meaningful identity to count).

    100-TB shape: partial size is bounded by ``capacity`` rows per block
    regardless of the key cardinality — the bounded-memory alternative to
    an exact groupby when the domain is unbounded (cf. hot domains / URLs
    in web-scale corpora).
    """
    def partial(batch: pa.Table) -> pa.Table:
        vc = batch.select([column]).drop_null() \
            .group_by(column).aggregate(
            [([], "count_all")]).rename_columns([column, "cnt"])
        dmax = 0
        if vc.num_rows > capacity:
            vc = vc.sort_by([("cnt", "descending")])
            dmax = int(vc["cnt"][capacity].as_py())
            vc = vc.slice(0, capacity)
        # the error term rides as a dedicated NULL-item marker ROW (not a
        # repeated column): per-partial accounting then survives any block
        # bundling/coalescing Ray applies between map outputs and
        # the collected blocks
        items = pa.concat_arrays(
            [vc[column].cast(pa.string()).combine_chunks(),
             pa.array([None], pa.string())])
        cnts = pa.concat_arrays(
            [vc["cnt"].cast(pa.int64()).combine_chunks(),
             pa.array([0], pa.int64())])
        dmaxs = pa.concat_arrays(
            [pa.array(np.zeros(vc.num_rows, np.int64)),
             pa.array([dmax], pa.int64())])
        return pa.table({"item": items, "cnt": cnts, "dmax": dmaxs})

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = pa.concat_tables(parts, promote_options="default")
    # conservative certificate: one dmax per PARTIAL (its marker row — each
    # partial can hide at most dmax occurrences of any absent item)
    markers = merged.filter(pc.is_null(merged["item"]))
    err = int(pc.sum(markers["dmax"]).as_py() or 0)
    merged = merged.filter(pc.is_valid(merged["item"]))
    g = pa.TableGroupBy(merged, "item").aggregate([("cnt", "sum")])
    top = g.sort_by([("cnt_sum", "descending"), ("item", "ascending")]) \
        .slice(0, k)
    return pa.table({
        "item": top["item"],
        "est_count": top["cnt_sum"].cast(pa.int64()),
        "err_bound": pa.array(np.full(top.num_rows, err, np.int64)),
    })


def grouped_heavy_hitters(ds, group_col: str, item_col: str, k: int = 3,
                          capacity: int = 256) -> pa.Table:
    """Per-GROUP mergeable heavy hitters (keyed Misra-Gries): for every
    group, the top-``k`` most frequent items with per-group lower-bound
    counts and error certificates. The unkeyed :func:`heavy_hitters`
    generalized to "hot items per domain" — top days per event type, hot
    URLs per site, most-used tools per role.

    Per batch ONE exact vectorized ``group_by(group, item).count``; any
    group holding more than ``capacity`` distinct items in that batch keeps
    only its top ``capacity`` and carries the largest dropped count as a
    per-(partial, group) marker row (``item = NULL``) — the same dedicated
    marker-row design as :func:`heavy_hitters`, so the accounting survives
    block bundling. The driver folds the capacity-bounded partials, sums
    each group's markers into its ``err_bound``, and takes the per-group
    top-``k`` with a deterministic ``(count DESC, item ASC)`` tie-break via
    one lexsort + segment ranks (no Python loop over groups).

    Guarantees per group (standard MG frequent-items): ``est_count <=
    true_count <= est_count + err_bound``; any item with true in-batch
    count > batch_group_rows/capacity survives its partial. With
    ``capacity >= per-group distinct(item)`` (the oracle-gate case:
    calendar days per event type) nothing is dropped — counts exact,
    ``err_bound = 0``. Null groups/items are dropped (SQL ``WHERE both
    IS NOT NULL`` parity; a null item has no identity to count).

    100-TB shape: each partial is bounded by ``groups x capacity`` rows
    per block regardless of item cardinality, and the driver fold is
    (group-domain x capacity)-scale — the bounded-memory alternative to an
    exact two-key groupby when the item domain is unbounded."""
    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, item_col]).drop_null()
        vc = t.group_by([group_col, item_col]).aggregate(
            [([], "count_all")]).rename_columns(
            [group_col, item_col, "cnt"])
        vc = vc.sort_by([(group_col, "ascending"), ("cnt", "descending"),
                         (item_col, "ascending")])
        n = vc.num_rows
        grp = vc[group_col].combine_chunks()
        items = vc[item_col].cast(pa.string()).combine_chunks()
        cnts = vc["cnt"].cast(pa.int64()).combine_chunks()
        if not n:
            return pa.table({group_col: grp, "item": items, "cnt": cnts,
                             "dmax": pa.array([], pa.int64())})
        starts = np.concatenate([[0], np.flatnonzero(
            ~_same_group_mask(grp, n)) + 1])
        counts = np.diff(np.concatenate([starts, [n]]))
        rank = np.arange(n) - np.repeat(starts, counts)
        keep = rank < capacity
        kept = pa.table({group_col: grp.filter(pa.array(keep)),
                         "item": items.filter(pa.array(keep)),
                         "cnt": cnts.filter(pa.array(keep))})
        kept = kept.append_column(
            "dmax", pa.array(np.zeros(kept.num_rows, np.int64)))
        over = rank == capacity          # first dropped row per fat group
        if not over.any():
            return kept
        markers = pa.table({
            group_col: grp.filter(pa.array(over)),
            "item": pa.nulls(int(over.sum()), pa.string()),
            "cnt": pa.array(np.zeros(int(over.sum()), np.int64)),
            "dmax": cnts.filter(pa.array(over)),
        })
        return pa.concat_tables([kept, markers])

    blocks = collect_partials(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), keep_empty=True)
    parts = [t for t in blocks if t.num_rows]
    if not parts:
        gt = blocks[0].schema.field(group_col).type if blocks \
            else pa.string()
        return pa.table({group_col: pa.array([], gt),
                         "item": pa.array([], pa.string()),
                         "est_count": pa.array([], pa.int64()),
                         "err_bound": pa.array([], pa.int64())})
    merged = pa.concat_tables(parts, promote_options="default")
    markers = merged.filter(pc.is_null(merged["item"]))
    errs = pa.TableGroupBy(markers.select([group_col, "dmax"]), group_col) \
        .aggregate([("dmax", "sum")])
    folded = pa.TableGroupBy(
        merged.filter(pc.is_valid(merged["item"]))
        .select([group_col, "item", "cnt"]),
        [group_col, "item"]).aggregate([("cnt", "sum")])
    folded = folded.sort_by([(group_col, "ascending"),
                             ("cnt_sum", "descending"),
                             ("item", "ascending")])
    n = folded.num_rows
    grp = folded[group_col].combine_chunks()
    starts = np.concatenate([[0], np.flatnonzero(
        ~_same_group_mask(grp, n)) + 1]) if n else np.array([0], np.int64)
    counts = np.diff(np.concatenate([starts, [n]]))
    rank = np.arange(n) - np.repeat(starts, counts)
    top = folded.filter(pa.array(rank < k))
    # per-group error certificate (0 for groups that never overflowed)
    err_map = dict(zip(errs[group_col].to_pylist(),
                       errs["dmax_sum"].to_pylist())) if errs.num_rows else {}
    err_col = pa.array([int(err_map.get(v, 0))
                        for v in top[group_col].to_pylist()], pa.int64())
    return pa.table({
        group_col: top[group_col],
        "item": top["item"],
        "est_count": top["cnt_sum"].cast(pa.int64()),
        "err_bound": err_col,
    }).sort_by([(group_col, "ascending"), ("item", "ascending")])


def rolling_distinct(ds, key_col: str, ts_col: str,
                     window_days: int = 7) -> pa.Table:
    """Trailing-window distinct count: for every OBSERVED calendar day,
    how many distinct keys were active in the ``window_days``-day window
    ending that day — the "7-day active users" / corpus-freshness metric.
    A windowed COUNT(DISTINCT) is not a plain rolling sum (the same key
    active on 3 days of one window still counts once), which is why this
    is its own operator rather than a rolling-window variant.

    Scale shape: rows shrink to distinct ``(key, day)`` pairs inside each
    batch (Arrow group-by combiner), then ONE hash shuffle on the key.
    Because expansion of a pair to its ``window_days`` trailing window-end
    days never changes the key, the distinct-per-window count is computed
    entirely IN-BUCKET (``count_distinct`` per window day) — key buckets
    partition the key domain, so per-bucket distinct counts ADD, and the
    driver folds calendar-scale partials only. Observed-day markers ride
    along (kind=1 rows) so window days past the last observed day — or
    inside gaps — are dropped exactly like the SQL join against the
    observed-day list. Null keys/timestamps drop.
    """
    def pairs_partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([key_col, ts_col])
        both = pc.and_kleene(pc.is_valid(sel[key_col]),
                             pc.is_valid(sel[ts_col])).fill_null(False)
        sel = sel.filter(both)
        t = pa.table({key_col: sel[key_col],
                      "d": pc.cast(pc.floor_temporal(sel[ts_col],
                                                     unit="day"),
                                   pa.date32())})
        return pa.TableGroupBy(t, [key_col, "d"]).aggregate([])

    def bucket_counts(body: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(body, [key_col, "d"]).aggregate([])
        d32 = g["d"].combine_chunks().cast(pa.int32()) \
            .to_numpy(zero_copy_only=False)
        n = d32.size
        if not n:
            return pa.table({"wd": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int64()),
                             "kind": pa.array([], pa.int8())})
        win = np.arange(window_days, dtype=np.int32)
        wdays = (d32[:, None] + win[None, :]).ravel()
        widx = np.repeat(np.arange(n), window_days)
        keys = g[key_col].combine_chunks() \
            if isinstance(g[key_col], pa.ChunkedArray) else g[key_col]
        exp = pa.table({"wd": pa.array(wdays, pa.int32()),
                        key_col: keys.take(pa.array(widx))})
        cnt = pa.TableGroupBy(exp, "wd").aggregate(
            [(key_col, "count_distinct")])
        obs = np.unique(d32)
        return pa.table({
            "wd": pa.concat_arrays([cnt["wd"].combine_chunks(),
                                    pa.array(obs, pa.int32())]),
            "n": pa.concat_arrays(
                [cnt[f"{key_col}_count_distinct"].cast(pa.int64())
                 .combine_chunks(),
                 pa.array(np.zeros(obs.size, np.int64))]),
            "kind": pa.array(np.concatenate(
                [np.zeros(cnt.num_rows, np.int8),
                 np.ones(obs.size, np.int8)])),
        })

    parts = collect_partials(
        bucket_groups(ds, key_col, bucket_counts, prepare=pairs_partial))
    if not parts:
        return pa.table({"day": pa.array([], pa.string()),
                         "n_keys": pa.array([], pa.int64())})
    merged = pa.concat_tables(parts, promote_options="default")
    counts = merged.filter(pc.equal(merged["kind"], 0))
    observed = np.unique(
        merged.filter(pc.equal(merged["kind"], 1))["wd"].combine_chunks()
        .to_numpy(zero_copy_only=False))
    folded = pa.TableGroupBy(counts.select(["wd", "n"]), "wd") \
        .aggregate([("n", "sum")])
    keep = np.isin(folded["wd"].combine_chunks()
                   .to_numpy(zero_copy_only=False), observed)
    folded = folded.filter(pa.array(keep)).sort_by([("wd", "ascending")])
    return pa.table({
        "day": folded["wd"].cast(pa.date32()).cast(pa.string()),
        "n_keys": folded["n_sum"].cast(pa.int64()),
    })


def interval_coverage(ds, key: str, start_col: str,
                      end_col: str) -> "ray.data.Dataset":  # noqa: F821
    """Per-group interval UNION ("islands and gaps"): merge each group's
    overlapping/touching ``[start, end)`` intervals into maximal islands
    and report the island count and total covered microseconds — active
    uptime from heartbeats, covered wall-clock from session spans, audio
    coverage from utterance segments. Not a plain aggregate: overlap
    credit must not double-count, which takes an ordered merge.

    Scale shape: three-column scan, ONE hash-bucket shuffle co-locating
    whole groups, then a fully vectorized in-bucket pass: sort by
    ``(key, start, end)``; the within-group running max of ``end`` is one
    :func:`segmented_running_max` (rank-lifted ``np.maximum.accumulate``,
    exact over the whole int64 range, no Python loop). A new island starts where ``start > running_max(end)`` of all earlier rows
    in the group; island extents then fall out of ``np.maximum.reduceat``
    over island starts.
    Degenerate/null rows drop: SQL-matching ``WHERE key IS NOT NULL AND
    start IS NOT NULL AND end IS NOT NULL AND end > start``."""
    cols = [key, start_col, end_col]

    def project(batch: pa.Table) -> pa.Table:
        sel = batch.select(cols)
        ok = pc.and_kleene(
            pc.and_kleene(pc.is_valid(sel[key]),
                          pc.is_valid(sel[start_col])),
            pc.greater(sel[end_col], sel[start_col])).fill_null(False)
        return sel.filter(ok)

    def bucket_islands(body: pa.Table) -> pa.Table:
        srt = body.sort_by([(key, "ascending"), (start_col, "ascending"),
                            (end_col, "ascending")])
        n = srt.num_rows
        if not n:
            return pa.table({
                key: pa.array([], body.schema.field(key).type),
                "n_islands": pa.array([], pa.int64()),
                "covered_us": pa.array([], pa.int64())})
        g = srt[key].combine_chunks()
        s = srt[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        e = srt[end_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        seg_start = np.concatenate([[True], ~_same_group_mask(g, n)])
        seg_id = np.cumsum(seg_start) - 1
        run_end = segmented_running_max(e, seg_id)
        prev_run_end = np.empty_like(run_end)
        prev_run_end[1:] = run_end[:-1]
        new_island = seg_start | (s > prev_run_end)
        new_island[0] = True
        isl_starts = np.flatnonzero(new_island)
        isl_s0 = s[isl_starts]
        isl_e1 = np.maximum.reduceat(run_end, isl_starts)
        isl_seg = seg_id[isl_starts]
        seg_first = np.concatenate([[True], isl_seg[1:] != isl_seg[:-1]]) \
            if isl_starts.size else np.array([], bool)
        grp_starts = np.flatnonzero(seg_first)
        n_islands = np.diff(np.concatenate(
            [grp_starts, [isl_starts.size]]))
        covered = np.add.reduceat(isl_e1 - isl_s0, grp_starts)
        return pa.table({
            key: g.take(pa.array(isl_starts[grp_starts], pa.int64())),
            "n_islands": pa.array(n_islands, pa.int64()),
            "covered_us": pa.array(covered, pa.int64()),
        })

    return bucket_groups(ds, key, bucket_islands, prepare=project)


def quantile_threshold_filter(ds_factory, key: str, value: str,
                              q: float = 0.99):
    """Per-group quantile outlier filter: rows where ``value`` exceeds the
    group's exact q-quantile. Two passes by design — the threshold is a
    global property of each group: pass 1 is `grouped_quantiles` (small
    per-key result), pass 2 broadcasts the key->threshold table into a
    streaming vectorized filter (``index_in`` + ``take``, no shuffle).

    Same small-side-broadcast shape as the tool-dictionary ref check
    (SURVEY §2.2 joins row): at 100 TB the threshold table is key-domain
    sized and ships once via closure capture, never per batch.

    Null semantics match the SQL inner-join + ``>`` comparison: rows with a
    null key or null value are dropped (a null key joins nothing; ``NULL >
    p99`` is never true).
    """
    qname = f"q{int(round(q * 100)):02d}"
    th = pa.concat_tables(collect_partials(grouped_quantiles(
        ds_factory(), key, value, [q])), promote_options="default")
    th = th.drop_null()             # null-key pseudo-groups join nothing
    keys = th[key].combine_chunks()
    thresholds = th[qname].to_numpy(zero_copy_only=False)

    def keep(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch[key], value_set=keys)
        posv = pos.to_numpy(zero_copy_only=False)
        valid = pc.and_(pc.is_valid(pos),
                        pc.is_valid(batch[value])) \
            .to_numpy(zero_copy_only=False)
        mask = np.zeros(batch.num_rows, bool)
        if valid.any():
            vi = np.flatnonzero(valid)
            t = thresholds[posv[vi].astype(np.int64)]
            vals = batch[value].to_numpy(zero_copy_only=False)[vi]
            mask[vi] = vals > t
        return batch.filter(pa.array(mask))

    return ds_factory().map_batches(keep, batch_format="pyarrow",
                                    zero_copy_batch=True)


def funnel_steps(ds, user_col: str, ts_col: str, type_col: str,
                 steps: Sequence[str]):
    """Ordered funnel / sequence matching with earliest-completion
    semantics: per user, find ``t_1 = min ts of step 1``, then ``t_k =
    min ts of step k strictly after t_{k-1}``; emit users completing every
    step with their step timestamps. Equivalent SQL: a chain of
    min-after-previous-step GROUP BYs (the classic funnel CTE).

    Execution (100-TB shape): ONE hash-bucket groupby co-locates whole
    users (same wide-stage shape as sessionize/uniqueness), then each
    bucket resolves fully vectorized — one lexsort by (user, ts), one
    ``np.minimum.reduceat`` per funnel step over sentinel-masked
    timestamps; INF propagates through later steps so incomplete users
    never need a second pass. Per-bucket work is O(rows log rows) with a
    loop over STEPS (constant), never rows. Keys and timestamps must be
    non-null and integer-castable (int64 user ids, epoch-us timestamps).
    Only the three named columns enter the shuffle.
    """
    step_names = list(steps)
    out_cols = [f"t_{s}" for s in step_names]
    INF = np.iinfo(np.int64).max

    def match_bucket(group: pa.Table) -> pa.Table:
        empty = {user_col: pa.array([], pa.int64())} | {
            c: pa.array([], pa.timestamp("us")) for c in out_cols}
        if group.num_rows == 0:
            return pa.table(empty)
        users = group[user_col].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        tcodes = pc.fill_null(pc.index_in(
            group[type_col], value_set=pa.array(step_names)), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ts, users))
        users_s, ts_s, tc_s = users[order], ts[order], tcodes[order]
        seg = np.flatnonzero(np.concatenate(
            [[True], users_s[1:] != users_s[:-1]]))
        seg_of_row = np.repeat(np.arange(seg.size),
                               np.diff(np.append(seg, users_s.size)))
        prev = np.full(seg.size, np.iinfo(np.int64).min, np.int64)
        step_ts = []
        for k in range(len(step_names)):
            cand = (tc_s == k) & (ts_s > prev[seg_of_row])
            tk = np.minimum.reduceat(np.where(cand, ts_s, INF), seg)
            step_ts.append(tk)
            prev = tk          # INF propagates: incomplete users stay INF
        ok = step_ts[-1] != INF
        cols = {user_col: pa.array(users_s[seg][ok], pa.int64())}
        for c, tk in zip(out_cols, step_ts):
            cols[c] = pa.array(tk[ok], pa.int64()).cast(pa.timestamp("us"))
        return pa.table(cols)

    return bucket_groups(ds, user_col, match_bucket,
                         columns=[user_col, ts_col, type_col])


def grouped_approx_distinct(ds, key: str, value: str,
                            p: int = 12) -> pa.Table:
    """Per-group approximate distinct count: one mergeable HyperLogLog per
    group. Each batch emits one ``2**p``-byte register block per group
    PRESENT in the batch (binary rows); the driver folds blocks with
    register-wise max per group — values never shuffle, partial volume is
    ``groups_present × 2**p`` bytes per block regardless of row count.

    This is the grouped form of the global HLL constraint sketch
    (`state/hll.py`, same registers/merge): the 100-TB path for
    per-key cardinality over unbounded value domains, where the exact
    pair-dedup groupby (`grouped_exact_distinct`) would shuffle every
    distinct pair. Intended for enum-sized key domains (the per-batch
    group loop is over groups present, never rows).
    """
    from ..state.hll import HyperLogLog, hash64

    def partial(batch: pa.Table) -> pa.Table:
        # SQL count(DISTINCT v) semantics: null values never count, null
        # keys form no group (mirrors grouped_exact_distinct's drop_null)
        batch = batch.select([key, value]).drop_null()
        keys = batch[key].combine_chunks() \
            if isinstance(batch[key], pa.ChunkedArray) else batch[key]
        uk = pc.unique(keys)
        hashes = hash64(batch[value])
        codes = pc.index_in(keys, value_set=uk) \
            .to_numpy(zero_copy_only=False)
        regs = []
        for i in range(len(uk)):
            h = HyperLogLog(p)
            h.update_hashes(hashes[codes == i])
            regs.append(h.to_bytes())
        return pa.table({key: uk, "regs": pa.array(regs, pa.binary())})

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = pa.concat_tables(parts, promote_options="default")
    folded: dict = {}
    for kv, rb in zip(merged[key].to_pylist(), merged["regs"].to_pylist()):
        h = HyperLogLog.from_bytes(rb)
        folded[kv] = h if kv not in folded else folded[kv].merge(h)
    keys_sorted = sorted(folded)
    return pa.table({
        key: pa.array(keys_sorted),
        "approx_distinct": pa.array(
            [round(folded[kv].cardinality()) for kv in keys_sorted],
            pa.int64()),
    })


def grouped_exact_distinct(ds, key: str, value: str):
    """EXACT per-group distinct count with pre-shuffle dedup: each batch
    first reduces to its distinct ``(key, value)`` pairs (the combiner),
    then ONE hash-bucket groupby on ``key`` co-locates each group's
    surviving pairs and counts distinct values vectorized (sort + adjacent
    compare). Shuffle volume is bounded by the distinct-pair count, not
    the row count."""
    def pair_partial(batch: pa.Table) -> pa.Table:
        return batch.select([key, value]).group_by([key, value]) \
            .aggregate([]).drop_null()

    def count_bucket(group: pa.Table) -> pa.Table:
        # preserve the INPUT key type (the old unconditional string cast
        # broke downstream type-based compares for integer keys; review r4,
        # third batch) — the empty branch types its array off the group's
        # schema, which is present even for zero rows
        if group.num_rows == 0:
            return pa.table({
                key: pa.array([], group.schema.field(key).type),
                "n_distinct": pa.array([], pa.int64())})
        t = group.select([key, value]).group_by([key, value]).aggregate([])
        g = pa.TableGroupBy(t, key).aggregate([([], "count_all")])
        return pa.table({key: g[key],
                         "n_distinct": g["count_all"].cast(pa.int64())})

    return bucket_groups(ds, key, count_bucket, prepare=pair_partial)


def grouped_rolling_window(ds, key: str, ts: str, value_int: str,
                           window_rows: int = 5,
                           tiebreak: str | None = None):
    """ROWS-frame rolling window per key (SQL ``ROWS BETWEEN n-1 PRECEDING
    AND CURRENT ROW``): appends ``win_sum``/``win_n`` — the exact sum and
    count of the current row and up to ``window_rows - 1`` preceding rows
    ordered by ``(ts, tiebreak)``. Completes the window-frame family next
    to the RANGE sliding window, cumulative running total and LAG deltas.

    ``value_int`` must be an integer column (exact sums — callers encode
    decimals as fixed-point first, e.g. cents): the cumsum-difference trick
    used in-bucket is bit-exact over int64 where float partial sums would
    drift vs SQL's windowed sum.

    One hash-bucket shuffle co-locates whole keys; in-bucket it's one
    lexsort + one global cumsum + two vectorized gathers — no per-row or
    per-group Python. Keys/ts must be non-null and integer-castable.
    """
    sort_cols = [ts] + ([tiebreak] if tiebreak else [])

    def window_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.append_column(
                "win_sum", pa.array([], pa.int64())).append_column(
                "win_n", pa.array([], pa.int64()))
        keys = group[key].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        sort_arrays = [group[c].combine_chunks().cast(
            pa.int64(), safe=False).to_numpy(zero_copy_only=False)
            for c in sort_cols]
        order = np.lexsort(tuple(reversed(sort_arrays)) + (keys,))
        sorted_t = group.take(pa.array(order, pa.int64()))
        vals = sorted_t[value_int].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keys_s = keys[order]
        seg = np.flatnonzero(np.concatenate(
            [[True], keys_s[1:] != keys_s[:-1]]))
        seg_start = np.repeat(seg, np.diff(np.append(seg, keys_s.size)))
        i = np.arange(keys_s.size, dtype=np.int64)
        w = np.maximum(i - window_rows + 1, seg_start)
        csum = np.concatenate([[0], np.cumsum(vals, dtype=np.int64)])
        return sorted_t.append_column(
            "win_sum", pa.array(csum[i + 1] - csum[w], pa.int64())) \
            .append_column("win_n", pa.array(i - w + 1, pa.int64()))

    return bucket_groups(ds, key, window_bucket)


def grouped_tdigest_quantiles(ds, key: str, value: str,
                              qs: Sequence[float],
                              compression: float = 200.0) -> pa.Table:
    """Per-group APPROXIMATE quantiles via mergeable t-digests — the
    100-TB companion to `grouped_quantiles` (exact needs each group's full
    value set in one bucket; the digest needs ~compression centroids per
    group per block, merged centroid-wise, values never shuffle). Same
    partial+final shape as `grouped_approx_distinct`: each block emits one
    serialized digest per group present; the driver folds per group.
    """
    from ..state.tdigest import TDigest

    qs = list(qs)

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key].combine_chunks() \
            if isinstance(batch[key], pa.ChunkedArray) else batch[key]
        uk = pc.unique(keys.drop_null())
        vals = batch[value].to_numpy(zero_copy_only=False)
        codes = pc.index_in(keys, value_set=uk) \
            .to_numpy(zero_copy_only=False)
        blobs = []
        for i in range(len(uk)):
            d = TDigest(compression=compression)
            d.update(vals[codes == i])
            blobs.append(d.to_bytes())
        return pa.table({key: uk, "td": pa.array(blobs, pa.binary())})

    parts = collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = pa.concat_tables(parts, promote_options="default")
    folded: dict = {}
    for kv, blob in zip(merged[key].to_pylist(), merged["td"].to_pylist()):
        d = TDigest.from_bytes(blob)
        folded[kv] = d if kv not in folded else folded[kv].merge(d)
    keys_sorted = sorted(folded)
    cols = {key: pa.array(keys_sorted)}
    for q in qs:
        cols[f"q{int(round(q * 100)):02d}"] = pa.array(
            [folded[kv].quantile(q) for kv in keys_sorted], pa.float64())
    return pa.table(cols)


def unpivot(ds, id_cols: Sequence[str], value_cols: Sequence[str],
            name_col: str = "name", value_col: str = "val"):
    """UNPIVOT / melt (wide -> long): one output row per (input row,
    value column), carrying ``id_cols`` plus the column's name and value.
    The inverse reshape of the pivot; streaming row-local `map_batches`
    (per batch the loop is over VALUE COLUMNS, each emission a zero-copy
    column select), no shuffle, output scales by ``len(value_cols)``."""
    id_cols, value_cols = list(id_cols), list(value_cols)

    def fn(batch: pa.Table) -> pa.Table:
        outs = []
        for c in value_cols:
            cols = {k: batch[k] for k in id_cols}
            cols[name_col] = pa.array([c] * batch.num_rows, pa.string())
            cols[value_col] = batch[c].cast(pa.float64())
            outs.append(pa.table(cols))
        if not outs:
            return pa.table({k: batch[k] for k in id_cols})
        return pa.concat_tables(outs)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def mad_outlier_filter(ds_factory, key: str, value: str, k: float = 3.0):
    """Robust per-group outlier filter: keep rows where
    ``|value - median| > k * MAD`` (MAD = median absolute deviation, the
    robust sigma). Three passes by necessity — each threshold is a global
    order statistic of its group: (1) exact grouped median, broadcast;
    (2) exact grouped median of |value - median| over a streaming absdev
    derivation (no shuffle beyond grouped_quantiles' own bucket pass);
    (3) broadcast (median, MAD) into a vectorized streaming filter. The
    broadcast tables are key-domain sized and ship once via closure
    capture. Null keys/values drop (SQL inner-join semantics); a zero-MAD
    group (>=50% of values identical) flags every value not equal to its
    median, matching the strict ``>`` in the SQL oracle.
    """
    def _kv(ds_q, col):
        t = pa.concat_tables(collect_partials(ds_q),
                             promote_options="default").drop_null()
        return t[key].combine_chunks(), \
            t[col].to_numpy(zero_copy_only=False)

    med_keys, med_vals = _kv(
        grouped_quantiles(ds_factory(), key, value, [0.5]), "q50")

    def absdev(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch[key], value_set=med_keys)
        posv = pos.to_numpy(zero_copy_only=False)
        valid = pc.and_(pc.is_valid(pos), pc.is_valid(batch[value])) \
            .to_numpy(zero_copy_only=False)
        vi = np.flatnonzero(valid)
        vals = batch[value].to_numpy(zero_copy_only=False)[vi] \
            .astype(np.float64)
        dev = np.abs(vals - med_vals[posv[vi].astype(np.int64)])
        karr = batch[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        return strip_meta(pa.table({
            key: karr.take(pa.array(vi, pa.int64())),
            "absdev": pa.array(dev, pa.float64())}))

    mad_keys, mad_vals = _kv(
        grouped_quantiles(ds_factory().map_batches(
            absdev, batch_format="pyarrow", zero_copy_batch=True),
            key, "absdev", [0.5]), "q50")

    def keep(batch: pa.Table) -> pa.Table:
        pos_med = pc.index_in(batch[key], value_set=med_keys)
        pos_mad = pc.index_in(batch[key], value_set=mad_keys)
        valid = pc.and_(pc.and_(pc.is_valid(pos_med), pc.is_valid(pos_mad)),
                        pc.is_valid(batch[value])) \
            .to_numpy(zero_copy_only=False)
        mask = np.zeros(batch.num_rows, bool)
        vi = np.flatnonzero(valid)
        if vi.size:
            p_med = pos_med.to_numpy(zero_copy_only=False)[vi] \
                .astype(np.int64)
            p_mad = pos_mad.to_numpy(zero_copy_only=False)[vi] \
                .astype(np.int64)
            vals = batch[value].to_numpy(zero_copy_only=False)[vi] \
                .astype(np.float64)
            mask[vi] = np.abs(vals - med_vals[p_med]) > k * mad_vals[p_mad]
        return batch.filter(pa.array(mask))

    return ds_factory().map_batches(keep, batch_format="pyarrow",
                                    zero_copy_batch=True)


def dense_time_counts(ds, ts_col: str, unit: str = "hour") -> pa.Table:
    """Gap-filled time-bucket counts (the resample/densify step a
    time-series pipeline runs before plotting or windowing): counts per
    ``unit`` bucket INCLUDING empty buckets between the observed min and
    max. Per-batch ``(bucket, cnt)`` partials fold driver-side (the bucket
    domain is calendar-sized — hours over years is ~10^4 rows — so the
    final fold is a driver table like ``events_per_day``'s, not a
    shuffle); the dense calendar comes from one ``np.arange`` over
    datetime64. Null timestamps are dropped. Returns ``(bucket, n)``."""
    step = {"day": np.timedelta64(24 * 3600 * 10**6, "us"),
            "hour": np.timedelta64(3600 * 10**6, "us"),
            "minute": np.timedelta64(60 * 10**6, "us")}[unit]

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[ts_col].drop_null()
        b = pc.floor_temporal(col, unit=unit)
        t = pa.table({"bucket": b})
        g = pa.TableGroupBy(t, "bucket").aggregate([([], "count_all")])
        return strip_meta(pa.table({
            "bucket": g["bucket"],
            "cnt": g["count_all"].cast(pa.int64())}))

    parts = pa.concat_tables(collect_partials(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)),
        promote_options="default")
    if parts.num_rows == 0:
        return pa.table({"bucket": pa.array([], pa.timestamp("us")),
                         "n": pa.array([], pa.int64())})
    folded = pa.TableGroupBy(parts, "bucket").aggregate([("cnt", "sum")])
    buckets = folded["bucket"].combine_chunks() \
        .cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
    counts = folded["cnt_sum"].to_numpy(zero_copy_only=False)
    cal = np.arange(buckets.min(), buckets.max() + step, step)
    n = np.zeros(cal.size, np.int64)
    n[((buckets - cal[0]) // step).astype(np.int64)] = counts
    return pa.table({"bucket": pa.array(cal, pa.timestamp("us")),
                     "n": pa.array(n, pa.int64())})


def grouped_zscore_flags(ds_factory, key: str, value: str,
                         k: float = 2.0):
    """Per-group z-score outlier counts: for each key, the row count and
    how many rows sit beyond ``k`` population standard deviations of the
    group mean. Pass 1 folds mergeable moments ``(n, Σv, Σv²)`` per batch
    (zero shuffle, driver-final like `grouped_corr`); pass 2 broadcasts
    ``(mean, stddev_pop)`` into a streaming vectorized flag count. Null
    keys/values drop (SQL inner-join parity). Returns a driver-side
    ``pa.Table`` of ``(key, n, n_out)``."""
    def moments(batch: pa.Table) -> pa.Table:
        sel = batch.select([key, value])
        both = pc.and_kleene(pc.is_valid(sel[key]), pc.is_valid(sel[value]))
        sel = sel.filter(both.fill_null(False))
        v = sel[value].cast(pa.float64())
        t = pa.table({key: sel[key], "n": pa.array(
            np.ones(sel.num_rows, np.int64), pa.int64()),
            "s": v, "s2": pc.multiply(v, v)})
        g = pa.TableGroupBy(t, key).aggregate(
            [("n", "sum"), ("s", "sum"), ("s2", "sum")])
        return strip_meta(pa.table({key: g[key], "n": g["n_sum"],
                                    "s": g["s_sum"], "s2": g["s2_sum"]}))

    parts = pa.concat_tables(collect_partials(ds_factory().map_batches(
        moments, batch_format="pyarrow", zero_copy_batch=True)),
        promote_options="default")
    folded = pa.TableGroupBy(parts, key).aggregate(
        [("n", "sum"), ("s", "sum"), ("s2", "sum")]).drop_null()
    keys = folded[key].combine_chunks()
    nn = folded["n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    mu = folded["s_sum"].to_numpy(zero_copy_only=False) / nn
    sd = np.sqrt(np.maximum(
        folded["s2_sum"].to_numpy(zero_copy_only=False) / nn - mu * mu, 0.0))

    def flags(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch[key], value_set=keys)
        valid = pc.and_(pc.is_valid(pos), pc.is_valid(batch[value])) \
            .to_numpy(zero_copy_only=False)
        vi = np.flatnonzero(valid)
        if vi.size == 0:
            return strip_meta(pa.table({
                key: keys.slice(0, 0),
                "n": pa.array([], pa.int64()),
                "n_out": pa.array([], pa.int64())}))
        p = pos.to_numpy(zero_copy_only=False)[vi].astype(np.int64)
        v = batch[value].to_numpy(zero_copy_only=False)[vi] \
            .astype(np.float64)
        out = (np.abs(v - mu[p]) > k * sd[p]).astype(np.int64)
        t = pa.table({key: keys.take(pa.array(p, pa.int64())),
                      "n": pa.array(np.ones(vi.size, np.int64), pa.int64()),
                      "n_out": pa.array(out, pa.int64())})
        g = pa.TableGroupBy(t, key).aggregate([("n", "sum"),
                                               ("n_out", "sum")])
        return strip_meta(pa.table({key: g[key], "n": g["n_sum"],
                                    "n_out": g["n_out_sum"]}))

    fparts = pa.concat_tables(collect_partials(ds_factory().map_batches(
        flags, batch_format="pyarrow", zero_copy_batch=True)),
        promote_options="default")
    g = pa.TableGroupBy(fparts, key).aggregate([("n", "sum"),
                                                ("n_out", "sum")])
    return pa.table({key: g[key], "n": g["n_sum"].cast(pa.int64()),
                     "n_out": g["n_out_sum"].cast(pa.int64())}) \
        .sort_by(key)


def cohort_retention(ds, user_col: str, ts_col: str) -> pa.Table:
    """Cohort retention matrix — the activation/retention report every
    product and training-corpus freshness analysis runs: each user's
    cohort is their FIRST active day; the output counts, for every
    ``(cohort_day, age_days)`` cell, how many of that cohort's users were
    active ``age_days`` after joining (SQL: distinct (user, day) pairs
    joined to per-user ``min(day)``, grouped by cohort and day
    difference).

    Scale shape: rows shrink to distinct ``(user, day)`` pairs INSIDE
    each batch first (per-batch Arrow groupby — the combiner), ONE hash
    shuffle on the user co-locates each user's pair set, and the
    in-bucket pass is a sort + run-boundary scan + one groupby emitting
    ``(cohort, age, n)`` PARTIALS whose cardinality is calendar², folded
    by a tiny driver groupby. Null users/timestamps drop. Days are
    day-truncated timestamps; ``age_days`` is an exact integer (both
    sides are midnight-aligned)."""
    day_us = 86_400_000_000

    def pairs_partial(batch: pa.Table) -> pa.Table:
        sel = batch.select([user_col, ts_col])
        both = pc.and_kleene(pc.is_valid(sel[user_col]),
                             pc.is_valid(sel[ts_col])).fill_null(False)
        sel = sel.filter(both)
        t = pa.table({user_col: sel[user_col],
                      "d": pc.floor_temporal(sel[ts_col], unit="day")})
        return pa.TableGroupBy(t, [user_col, "d"]).aggregate([])

    def bucket_cells(body: pa.Table) -> pa.Table:
        srt = body.sort_by([(user_col, "ascending"), ("d", "ascending")])
        n = srt.num_rows
        if n == 0:
            return pa.table({
                "cohort_day": pa.array([], pa.timestamp("us")),
                "age_days": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64())})
        user = srt[user_col].combine_chunks()
        d = srt["d"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(run_starts(user))
        # distinct (user, day) across batches: drop same-user same-day dups
        seg = np.zeros(n, np.int64)
        seg[starts] = 1
        seg = np.cumsum(seg) - 1          # run index per row
        keep = np.ones(n, bool)
        keep[1:] = (seg[1:] != seg[:-1]) | (d[1:] != d[:-1])
        d = d[keep]
        seg = seg[keep]
        cohort = d[np.searchsorted(seg, np.arange(seg.max() + 1
                                                  if seg.size else 0))]
        t = pa.table({
            "cohort_day": pa.array(cohort[seg], pa.int64())
            .cast(pa.timestamp("us")),
            "age_days": pa.array((d - cohort[seg]) // day_us, pa.int64())})
        g = pa.TableGroupBy(t, ["cohort_day", "age_days"]) \
            .aggregate([([], "count_all")])
        return pa.table({"cohort_day": g["cohort_day"],
                         "age_days": g["age_days"],
                         "cnt": g["count_all"].cast(pa.int64())})

    plist = collect_partials(
        bucket_groups(ds, user_col, bucket_cells, prepare=pairs_partial))
    if not plist:
        return pa.table({"cohort_day": pa.array([], pa.timestamp("us")),
                         "age_days": pa.array([], pa.int64()),
                         "n_users": pa.array([], pa.int64())})
    parts = pa.concat_tables(plist, promote_options="default")
    g = pa.TableGroupBy(parts, ["cohort_day", "age_days"]) \
        .aggregate([("cnt", "sum")])
    return pa.table({
        "cohort_day": g["cohort_day"], "age_days": g["age_days"],
        "n_users": g["cnt_sum"].cast(pa.int64())}) \
        .sort_by([("cohort_day", "ascending"), ("age_days", "ascending")])


def interevent_gaps(ds, key: str, ts_col: str,
                    order_col: str) -> "ray.data.Dataset":  # noqa: F821
    """Per-group inter-event gap statistics — the burstiness/recency
    profile behind session design and rate-limit tuning: for each group,
    the count, mean and max of the microsecond gaps between CONSECUTIVE
    events ordered by ``(ts, order_col)`` (SQL ``ts - lag(ts) OVER
    (PARTITION BY key ORDER BY ts, order_col)``).

    Scale shape: the scan shrinks to three columns, ONE hash-bucket
    shuffle co-locates whole groups (no gap can straddle buckets), and
    the in-bucket pass is a sort + shifted same-group mask + ``np.diff``
    + one Arrow groupby — each group's final row is complete in its
    bucket, so there is no second pass. ``avg_gap_us`` is one IEEE
    division of exact int64 sums, matching SQL bitwise. Null keys or
    timestamps drop; single-event groups (no gap) emit nothing."""
    cols = [key, ts_col, order_col]

    def project(batch: pa.Table) -> pa.Table:
        sel = batch.select(cols)
        both = pc.and_kleene(pc.is_valid(sel[key]),
                             pc.is_valid(sel[ts_col])).fill_null(False)
        return sel.filter(both)

    def bucket_stats(body: pa.Table) -> pa.Table:
        srt = body.sort_by([(key, "ascending"), (ts_col, "ascending"),
                            (order_col, "ascending")])
        n = srt.num_rows
        empty = pa.table({key: pa.array([], body.schema.field(key).type),
                          "n_gaps": pa.array([], pa.int64()),
                          "avg_gap_us": pa.array([], pa.float64()),
                          "max_gap_us": pa.array([], pa.int64())})
        if n < 2:
            return empty
        g = srt[key].combine_chunks()
        ts = srt[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        same = _same_group_mask(g, n)
        idx = np.flatnonzero(same)
        if idx.size == 0:
            return empty
        gaps = ts[idx + 1] - ts[idx]
        t = pa.table({key: g.take(pa.array(idx, pa.int64())),
                      "gap": pa.array(gaps, pa.int64())})
        gb = pa.TableGroupBy(t, key).aggregate(
            [("gap", "count"), ("gap", "sum"), ("gap", "max")])
        cnt = gb["gap_count"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        s = gb["gap_sum"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({key: gb[key],
                         "n_gaps": gb["gap_count"].cast(pa.int64()),
                         "avg_gap_us": pa.array(s / cnt, pa.float64()),
                         "max_gap_us": gb["gap_max"].cast(pa.int64())})

    return bucket_groups(ds, key, bucket_stats, prepare=project)
