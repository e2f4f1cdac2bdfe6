"""Distributed joins.

Two shapes (SURVEY.md §2.2 joins/lookups row):

- **Broadcast semi/anti join** for small dimension sides: ``ray.put`` the key
  set once, ``pc.is_in`` per batch (see the `ref` kernel and
  ``__ray_entry__.q_ref_check_lineitem``).
- **Co-partitioned joins** for LARGE-LARGE inputs (``reduce_side_hash_join``,
  ``asof_join``, ``range_agg_join``, ``interval_overlap_join``,
  ``table_diff``): both sides go through the multi-input
  ``rayutil.bucket_groups``, which hashes each side on its key and hands
  every bucket to the op as one table per side; the op matches them with
  pyarrow's vectorized ``Table.join`` or numpy searches. Because a key's
  rows of BOTH sides land in exactly one bucket, outer semantics and any
  aggregation keyed by the join key complete inside the bucket — no second
  shuffle. An optional ``group_fn`` post-processes each joined bucket in
  place (partial aggregation, local top-k) so only result-scale rows leave
  the shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import bucket_groups, collect_partials


def reduce_side_hash_join(left_ds, right_ds, key: str, *, group_fn=None,
                          join_type: str = "inner", right_fn=None,
                          left_fn=None, left_schema: pa.Schema | None = None,
                          right_schema: pa.Schema | None = None):
    """Join two Datasets on an integer ``key``; returns a Dataset of joined
    rows (or of ``group_fn``'s per-bucket output). Column names other than
    ``key`` must be disjoint across sides.

    ``join_type`` is any pyarrow ``Table.join`` type (``inner``,
    ``left outer``, ``left semi``, ``left anti``, ...) — outer semantics
    hold globally because BOTH sides of one key land in exactly one bucket,
    so a left row with no right match is unmatched in its bucket too.
    ``right_fn`` / ``left_fn`` (optional) pre-transform each bucket's side
    slice before the join — e.g. combining per-batch partial aggregates down
    to one row per key so the join output stays result-scale (both sides can
    be pre-aggregated for outer joins of two aggregates).

    Pass ``left_schema`` / ``right_schema`` when a side is a derived
    (mapped) Dataset: ``Dataset.schema()`` on one executes part of the
    upstream pipeline as a probe — an explicit schema skips that re-execution
    (same pattern as ``asof_join`` / ``range_agg_join``)."""
    l_schema = left_schema if left_schema is not None else left_ds.schema()
    r_schema = right_schema if right_schema is not None \
        else right_ds.schema()
    # the right key arrives cast to the left key's type: Arrow joins equal
    # key types only
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_schema = pa.schema([(n, l_types.get(n, t) if n == key else t)
                          for n, t in zip(r_schema.names, r_schema.types)])

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if left_fn is not None:
            lt = left_fn(lt)
        if right_fn is not None:
            rt = right_fn(rt)
        j = lt.join(rt, keys=key, join_type=join_type)
        return group_fn(j) if group_fn is not None else j

    return bucket_groups([(left_ds, key, None, l_schema),
                          (right_ds, key, None, r_schema)], join_bucket)


def _check_reserved(reserved: set, schema: pa.Schema, op: str) -> None:
    """The join's own tag columns must not already be input columns."""
    clash = sorted(reserved & set(schema.names))
    if clash:
        raise ValueError(f"{op}: input columns {clash} clash with the "
                         f"join's reserved columns {sorted(reserved)}")


def _with_columns(batch: pa.Table, cols: dict, keep_batch: bool) -> pa.Table:
    """``cols`` appended to ``batch`` (``keep_batch``) or alone."""
    if not keep_batch:
        return pa.table(cols)
    for name, col in cols.items():
        batch = batch.append_column(name, col)
    return batch


def asof_join(left_ds, right_ds, *, on: str, right_on: str,
              left_ts: str, right_ts: str,
              left_schema: pa.Schema | None = None,
              right_ts_type: pa.DataType | None = None):
    """Distributed backward as-of join: for each left row, find the LATEST
    right timestamp at-or-before the left timestamp within the same key.

    Emits every left column plus ``asof_ts`` (the matched right timestamp —
    tie-insensitive: when several right rows share the winning timestamp the
    output is identical whichever wins, so results are deterministic and
    SQL-oracle-comparable). Inner semantics: left rows with no right row
    at-or-before their timestamp are dropped.

    Shape: both sides are co-partitioned on the key by
    ``rayutil.bucket_groups`` and matched inside each bucket fully
    vectorized — the right side is lexsorted by (key, ts) and each left row
    resolved with a single ``np.searchsorted`` over a dense (key_rank,
    ts_rank) compound, so a hot bucket never degenerates to a Python loop.

    Partitioning assumption (same as ``reduce_side_hash_join``): all rows of
    one key land in one bucket, which must fit in a worker's heap; the
    compound is bounded by rows² < 2**63 per bucket.

    Key/timestamp requirements (ADVICE r3): keys and timestamps must be
    integer-castable; rows where either is NULL are dropped before the
    shuffle on BOTH sides — matching SQL inner ASOF semantics, where a null
    key never equals anything and ``ts >= NULL`` is never true.
    """
    # Dataset.schema() executes the plan up to a limit-1 probe — pass the
    # schemas explicitly when an upstream shuffle would make that a full
    # second execution
    l_schema = left_schema if left_schema is not None else left_ds.schema()
    if right_ts_type is not None:
        ts_type = right_ts_type
    else:
        r_schema = right_ds.schema()
        ts_type = r_schema.types[list(r_schema.names).index(right_ts)]
    _check_reserved({"_k", "_ts"}, l_schema, "asof_join")
    l_names = list(l_schema.names)
    keyed = [("_k", pa.int64()), ("_ts", pa.int64())]

    def keyed_rows(key_col: str, ts_col: str, keep_batch: bool):
        def prepare(batch: pa.Table) -> pa.Table:
            # drop null-key/ts rows (SQL inner-asof semantics; a null would
            # otherwise decay the compound arrays to float/object downstream)
            batch = batch.filter(pc.and_(pc.is_valid(batch[key_col]),
                                         pc.is_valid(batch[ts_col])))
            return _with_columns(batch, {
                "_k": batch[key_col].cast(pa.int64()),
                "_ts": batch[ts_col].cast(pa.int64())}, keep_batch)
        return prepare

    def match_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        out = lt.select(l_names)
        if lt.num_rows == 0 or rt.num_rows == 0:
            return out.slice(0, 0).append_column("asof_ts",
                                                 pa.nulls(0, ts_type))
        lk = lt["_k"].to_numpy()
        lts = lt["_ts"].to_numpy()
        rk = rt["_k"].to_numpy()
        rts = rt["_ts"].to_numpy()
        order = np.lexsort((rts, rk))
        rk, rts = rk[order], rts[order]
        uniq = np.unique(rts)
        band = np.int64(uniq.size + 1)
        dkeys = np.unique(np.concatenate([rk, lk]))
        dk_r = np.searchsorted(dkeys, rk)
        dk_l = np.searchsorted(dkeys, lk)
        comp_r = dk_r * band + np.searchsorted(uniq, rts)
        # rank of the largest right-ts <= left-ts; rank -1 lands below the
        # key's band and the dense-key check below rejects it
        comp_l = dk_l * band + np.searchsorted(uniq, lts, side="right") - 1
        idx = np.searchsorted(comp_r, comp_l, side="right") - 1
        safe = np.clip(idx, 0, None)
        valid = (idx >= 0) & (dk_r[safe] == dk_l)
        asof = pa.array(rts[safe[valid]], pa.int64()).cast(ts_type)
        return out.filter(pa.array(valid)).append_column("asof_ts", asof)

    return bucket_groups(
        [(left_ds, "_k", keyed_rows(on, left_ts, True),
          pa.schema(list(zip(l_schema.names, l_schema.types)) + keyed)),
         (right_ds, "_k", keyed_rows(right_on, right_ts, False),
          pa.schema(keyed))], match_bucket)


def range_agg_join(range_ds, point_ds, *, on: str, point_on: str,
                   start: str, end: str, point_ts: str,
                   value: str | None = None,
                   range_schema: pa.Schema | None = None):
    """Distributed range (interval) aggregate join: for each range row
    ``[start, end)`` count the points of the same key whose timestamp falls
    inside the interval, plus (optionally) the sum of an int64 ``value``
    column over those points.

    Emits every range-side column plus ``n_points`` and (if ``value``)
    ``sum_value`` — LEFT semantics: ranges with no points report 0. The
    aggregate form sidesteps the row explosion of a materialized pair
    output: only |ranges| rows leave the shuffle however dense the points.

    Shape: one co-partitioned shuffle (``rayutil.bucket_groups``) brings
    each key's ranges and points together; inside a bucket the points are
    lexsorted by (key, ts) once, a prefix-sum built over the value column,
    and every interval resolved with two ``np.searchsorted`` calls over a
    dense (key_rank, ts_rank) compound — O((P+R) log P) per bucket, no
    Python loop. Partitioning assumption: all rows of one key fit in one
    bucket (see ``asof_join``).

    Key/timestamp requirements (ADVICE r3): keys, interval bounds and point
    timestamps must be integer-castable; rows with a NULL key or bound/ts
    are dropped before the shuffle (a null key matches no interval in SQL,
    and a null-bounded interval contains nothing).
    """
    # see asof_join: pass range_schema to skip a full-pipeline schema probe
    r_schema = range_schema if range_schema is not None \
        else range_ds.schema()
    _check_reserved({"_k", "_t0", "_t1", "_pv"}, r_schema, "range_agg_join")
    r_names = list(r_schema.names)

    def ranges(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.and_(pc.is_valid(batch[on]), pc.is_valid(batch[start])),
            pc.is_valid(batch[end])))
        return batch.append_column("_k", batch[on].cast(pa.int64())) \
            .append_column("_t0", batch[start].cast(pa.int64())) \
            .append_column("_t1", batch[end].cast(pa.int64()))

    def points(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[point_on]),
                                     pc.is_valid(batch[point_ts])))
        pv = batch[value].cast(pa.int64()) if value is not None \
            else pa.nulls(batch.num_rows, pa.int64())
        return pa.table({"_k": batch[point_on].cast(pa.int64()),
                         "_t0": batch[point_ts].cast(pa.int64()),
                         "_pv": pv})

    agg_names = ["n_points"] + (["sum_value"] if value is not None else [])

    def agg_bucket(rt: pa.Table, pt: pa.Table) -> pa.Table:
        out = rt.select(r_names)
        if rt.num_rows == 0 or pt.num_rows == 0:
            zeros = pa.array(np.zeros(rt.num_rows, np.int64), pa.int64())
            for n in agg_names:
                out = out.append_column(n, zeros)
            return out
        pk = pt["_k"].to_numpy()
        pts_arr = pt["_t0"].to_numpy()
        order = np.lexsort((pts_arr, pk))
        pk, pts_arr = pk[order], pts_arr[order]
        rk = rt["_k"].to_numpy()
        t0 = rt["_t0"].to_numpy()
        t1 = rt["_t1"].to_numpy()
        uniq = np.unique(pts_arr)
        band = np.int64(uniq.size + 1)
        dkeys = np.unique(np.concatenate([pk, rk]))
        comp_p = np.searchsorted(dkeys, pk) * band \
            + np.searchsorted(uniq, pts_arr)
        dk_r = np.searchsorted(dkeys, rk)
        lo = np.searchsorted(comp_p, dk_r * band + np.searchsorted(uniq, t0))
        hi = np.searchsorted(comp_p, dk_r * band + np.searchsorted(uniq, t1))
        out = out.append_column("n_points", pa.array(hi - lo, pa.int64()))
        if value is not None:
            # fill nulls on the ARROW side so the numpy array stays int64:
            # a null decays to_numpy to float64, the cumsum then drifts past
            # 2^53 and the int64 re-cast is wrong or raises (review r4,
            # third batch) — SQL SUM ignores nulls, so they contribute 0
            # while n_points keeps its COUNT(*) semantics
            pv = pc.fill_null(pt["_pv"], 0) \
                .to_numpy(zero_copy_only=False)[order]
            cum = np.concatenate([[0], np.cumsum(pv)])
            out = out.append_column("sum_value",
                                    pa.array(cum[hi] - cum[lo], pa.int64()))
        return out

    keyed = [("_k", pa.int64()), ("_t0", pa.int64())]
    return bucket_groups(
        [(range_ds, "_k", ranges,
          pa.schema(list(zip(r_schema.names, r_schema.types)) + keyed
                    + [("_t1", pa.int64())])),
         (point_ds, "_k", points,
          pa.schema(keyed + [("_pv", pa.int64())]))], agg_bucket)


def interval_overlap_join(a_ds, b_ds, *, on: str, a_start: str, a_end: str,
                          b_on: str | None = None, b_start: str = "",
                          b_end: str = "",
                          a_schema: pa.Schema | None = None):
    """Interval × interval OVERLAP aggregate join: for each A interval
    ``[a_start, a_end)`` count the same-key B intervals it overlaps
    (``b_start < a_end AND b_end > a_start``). Emits every A column plus
    ``n_overlaps`` — the aggregate form keeps the output |A|-scale however
    dense the overlap graph (a materialized pair join is quadratic in the
    worst case).

    Shape (same as ``range_agg_join``): one co-partitioned shuffle brings
    each key's A and B rows together; in-bucket the count decomposes into
    two monotone scans — ``#(b_start < a_end) − #(b_end ≤ a_start)`` — each
    resolved with one ``np.searchsorted`` over a dense (key_rank,
    bound_rank) compound. O((A+B) log B) per bucket, no Python loop.
    Keys/bounds must be integer-castable and non-null (null rows dropped
    before the shuffle, matching SQL join-predicate semantics).

    Intervals are interpreted as SETS: a degenerate row (``end ≤ start``,
    the empty interval) overlaps nothing — such B rows are dropped before
    the shuffle and such A rows report 0 (the count decomposition below is
    only valid for well-formed intervals; the raw SQL predicate
    ``b_start < a_end AND b_end > a_start`` can still fire for ill-formed
    rows, a documented divergence — review r4, third batch)."""
    b_on = b_on or on
    schema_a = a_schema if a_schema is not None else a_ds.schema()
    _check_reserved({"_k", "_s", "_e"}, schema_a, "interval_overlap_join")
    a_names = list(schema_a.names)
    bounds = [("_k", pa.int64()), ("_s", pa.int64()), ("_e", pa.int64())]

    def bounded(key: str, s_col: str, e_col: str, is_a: bool):
        def prepare(batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.and_(
                pc.and_(pc.is_valid(batch[key]), pc.is_valid(batch[s_col])),
                pc.is_valid(batch[e_col])))
            if not is_a:        # empty B intervals overlap nothing
                batch = batch.filter(pc.less(batch[s_col].cast(pa.int64()),
                                             batch[e_col].cast(pa.int64())))
            return _with_columns(batch, {
                "_k": batch[key].cast(pa.int64()),
                "_s": batch[s_col].cast(pa.int64()),
                "_e": batch[e_col].cast(pa.int64())}, is_a)
        return prepare

    def agg_bucket(at: pa.Table, bt: pa.Table) -> pa.Table:
        out = at.select(a_names)
        if at.num_rows == 0 or bt.num_rows == 0:
            return out.append_column(
                "n_overlaps",
                pa.array(np.zeros(at.num_rows, np.int64), pa.int64()))
        bk = bt["_k"].to_numpy()
        bs = bt["_s"].to_numpy()
        be = bt["_e"].to_numpy()
        ak = at["_k"].to_numpy()
        as_ = at["_s"].to_numpy()
        ae = at["_e"].to_numpy()
        dkeys = np.unique(np.concatenate([bk, ak]))
        dk_a = np.searchsorted(dkeys, ak)
        # compound 1: sorted (key, b_start) — count b_start < a_end per key
        uniq_s = np.unique(bs)
        band_s = np.int64(uniq_s.size + 1)
        o1 = np.lexsort((bs, bk))
        comp_s = np.searchsorted(dkeys, bk[o1]) * band_s \
            + np.searchsorted(uniq_s, bs[o1])
        lo_k = np.searchsorted(comp_s, dk_a * band_s)           # key start
        c1 = np.searchsorted(
            comp_s, dk_a * band_s + np.searchsorted(uniq_s, ae)) - lo_k
        # compound 2: sorted (key, b_end) — count b_end <= a_start per key
        uniq_e = np.unique(be)
        band_e = np.int64(uniq_e.size + 1)
        o2 = np.lexsort((be, bk))
        comp_e = np.searchsorted(dkeys, bk[o2]) * band_e \
            + np.searchsorted(uniq_e, be[o2])
        lo_k2 = np.searchsorted(comp_e, dk_a * band_e)
        c2 = np.searchsorted(
            comp_e, dk_a * band_e
            + np.searchsorted(uniq_e, as_, side="right")) - lo_k2
        n_ov = np.where(ae > as_, c1 - c2, 0)   # empty A intervals → 0
        return out.append_column("n_overlaps",
                                 pa.array(n_ov, pa.int64()))

    return bucket_groups(
        [(a_ds, "_k", bounded(on, a_start, a_end, True),
          pa.schema(list(zip(schema_a.names, schema_a.types)) + bounds)),
         (b_ds, "_k", bounded(b_on, b_start, b_end, False),
          pa.schema(bounds))], agg_bucket)


_BLOOM_KEEP_CACHE: dict = {}


def bloom_semi_join(left_ds, right_ds, left_key: str, right_key: str,
                    m_bits: int = 1 << 22, k: int = 5,
                    negate: bool = False):
    """Broadcast-Bloom semi-join (anti-join with ``negate=True``), EXACT.

    Pass 1 streams the RIGHT side into per-block Bloom partials (one
    ``m_bits/8``-byte row each, OR-folded on the driver) plus each block's
    distinct key list. Pass 2 streams the LEFT side: rows failing the bloom
    are DEFINITELY non-members (a bloom has no false negatives) and are
    resolved without touching the exact set; only bloom-passing candidates
    are verified against the exact broadcast key set, so false positives
    never leak — results are exactly the SQL EXISTS / NOT EXISTS semi-join.

    100-TB shape: the bloom ships once via ``ray.put`` and prunes the
    exact-verify volume to true matches + the false-positive εN; the left
    side never shuffles. The exact key set is assumed dictionary-scale
    (same broadcast-small-side assumption as `ref_check`); when the right
    side's distinct keys exceed the broadcast budget, verify survivors with
    `reduce_side_hash_join` instead.

    Key requirements (same as the as-of/range joins): join keys must be
    integer-castable — the exact-verify set is a sorted int64 array. Null
    left keys never match (SQL EXISTS) and are kept by ``negate`` (SQL NOT
    EXISTS); null right keys are dropped.
    """
    import ray

    from ..state.bloom import BloomFilter

    def right_partial(batch: pa.Table) -> pa.Table:
        keys = batch[right_key].combine_chunks() \
            if isinstance(batch[right_key], pa.ChunkedArray) \
            else batch[right_key]
        keys = pc.unique(keys.drop_null())
        bf = BloomFilter(m_bits=m_bits, k=k)
        bf.add(keys)
        return pa.table({
            "bits": pa.array([bf.to_bytes()], pa.binary()),
            "keys": pa.array([keys.cast(pa.int64()).to_pylist()],
                             pa.list_(pa.int64())),
        })

    parts = collect_partials(right_ds.map_batches(
        right_partial, batch_format="pyarrow", zero_copy_batch=True))
    bf = BloomFilter(m_bits=m_bits, k=k)
    exact: set = set()
    for t in parts:
        for bb, kk in zip(t["bits"].to_pylist(), t["keys"].to_pylist()):
            bf = bf.merge(BloomFilter.from_bytes(bb, k=k))
            exact.update(kk)
    bits_ref = ray.put(bf.to_bytes())
    exact_ref = ray.put(np.array(sorted(exact), np.int64))

    def keep(batch: pa.Table) -> pa.Table:
        # reconstructing the filter copies m_bits/8 bytes — do it once per
        # worker per broadcast, not once per batch (review r4); single-entry
        # cache keyed by the object ref, same idiom as dedup's pair index
        ck = bits_ref.hex()
        cached = _BLOOM_KEEP_CACHE.get(ck)
        if cached is None:
            _BLOOM_KEEP_CACHE.clear()
            cached = (BloomFilter.from_bytes(ray.get(bits_ref), k=k),
                      ray.get(exact_ref))
            _BLOOM_KEEP_CACHE[ck] = cached
        bloom, ex = cached
        col = batch[left_key]
        carr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        # null keys NEVER match EXISTS (pinned semantics): mask them out of
        # the bloom survivors explicitly — the hash of a null is arbitrary
        maybe = bloom.contains(col) \
            & pc.is_valid(carr).to_numpy(zero_copy_only=False)
        # fill nulls BEFORE to_numpy: a single null decays the whole array
        # to float64 and keys above 2^53 lose exactness in the verify
        # compare (review r4); filled zeros never reach cand (masked above)
        vals = carr.cast(pa.int64()).fill_null(0) \
            .to_numpy(zero_copy_only=False)
        member = maybe.copy()
        if maybe.any():             # exact-verify ONLY the bloom survivors
            cand = vals[maybe]
            if ex.size:
                pos = np.minimum(np.searchsorted(ex, cand), ex.size - 1)
                member[maybe] = ex[pos] == cand
            else:
                member[maybe] = False
        return batch.filter(pa.array(~member if negate else member))

    return left_ds.map_batches(keep, batch_format="pyarrow",
                               zero_copy_batch=True)


def table_diff(left_ds, right_ds, key: str, *,
               left_schema: pa.Schema | None = None):
    """Distributed table DIFF by primary key: emits one row per differing
    key with ``status`` in ``{'only_left', 'only_right', 'changed'}`` plus
    ``n_changed_cols``; identical rows emit NOTHING — the
    "did this migration/rewrite change anything?" validation op.

    Both sides must share one schema (pass ``left_schema`` when the sides
    are derived datasets — it is used for both, skipping schema probes).
    ``key`` must be unique per side and integer-castable; null-key rows are
    dropped before the shuffle (a null PK identifies nothing). Column-value
    comparison is SQL ``IS DISTINCT FROM``: null == null, null != value.

    Shape: one co-partitioned shuffle (all rows of a key land in one
    bucket), then a vectorized in-bucket full-outer join + per-column
    equality scan; ONLY differing keys leave the workers, so output is
    diff-scale however large the inputs. 100-TB fit: equal tables cost one
    shuffle of the compared columns and return ~nothing — prune to the
    columns under comparison at the read for cheaper checks.
    """
    schema = left_schema if left_schema is not None else left_ds.schema()
    others = [n for n in schema.names if n != key]
    names = set(schema.names)
    # reserve the presence markers AND the right-side rename suffix: a user
    # column literally named '<col>__r' would collide with the renamed
    # right side inside the bucket join
    reserved = {"_pres", "_pres_r"} | {c + "__r" for c in others}
    clash = reserved & names
    if clash:
        raise ValueError(f"table_diff: column names {sorted(clash)} clash "
                         "with internal tag/rename names")
    payload = pa.schema([(key, pa.int64())]
                        + [(n, schema.types[schema.names.index(n)])
                           for n in others])

    def keyed(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[key]))
        return batch.set_column(batch.column_names.index(key), key,
                                batch[key].cast(pa.int64()))

    out_schema = pa.schema([(key, pa.int64()), ("status", pa.string()),
                            ("n_changed_cols", pa.int64())])

    def diff_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        ones_l = pa.array(np.ones(lt.num_rows, np.int8))
        ones_r = pa.array(np.ones(rt.num_rows, np.int8))
        lt = lt.append_column("_pres", ones_l)
        rt = rt.rename_columns([key] + [c + "__r" for c in others]) \
            .append_column("_pres_r", ones_r)
        j = lt.join(rt, keys=key, join_type="full outer")
        pl = pc.is_valid(j["_pres"]).to_numpy(zero_copy_only=False)
        pr = pc.is_valid(j["_pres_r"]).to_numpy(zero_copy_only=False)
        ndiff = np.zeros(j.num_rows, np.int64)
        for c in others:
            a, b = j[c], j[c + "__r"]
            # IS DISTINCT FROM: equal → same; both null → same; else diff
            same = pc.or_kleene(pc.equal(a, b),
                                pc.and_(pc.is_null(a), pc.is_null(b)))
            ndiff += pc.invert(pc.fill_null(same, False)) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
        changed = pl & pr & (ndiff > 0)
        status = np.where(~pr, "only_left",
                          np.where(~pl, "only_right", "changed"))
        keep = changed | ~pl | ~pr
        return pa.table({
            key: j[key].to_numpy(zero_copy_only=False)[keep],
            "status": pa.array(status[keep], pa.string()),
            "n_changed_cols": np.where(pl & pr, ndiff, 0)[keep],
        }, schema=out_schema)

    return bucket_groups([(left_ds, key, keyed, payload),
                          (right_ds, key, keyed, payload)], diff_bucket)
