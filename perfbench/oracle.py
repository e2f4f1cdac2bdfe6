"""Expected outputs computed apart from the engine, and the checks that
compare engine outputs against them.

Every oracle is a DuckDB SQL query over the same Parquet files the engine
reads. The check functions return a list of mismatch messages: an empty list
means the output is correct. They take plain Arrow tables and dicts, so the
benchmark's own tests can feed them perturbed outputs.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

VIOLATION_TYPES = {"conv_id": pa.string(), "turn_idx": pa.int32(),
                   "constraint_id": pa.string(), "message": pa.string()}
SESSION_TYPES = {"conv_id": pa.string(), "n_sessions": pa.int64()}
PAIR_TYPES = {"conv_id": pa.string(), "turn_idx_from": pa.int64(),
              "turn_idx_to": pa.int64(), "text_from": pa.string(),
              "text_to": pa.string()}
DEDUP_TYPES = {"keeper_conv": pa.string(), "n_copies": pa.int64()}
SESSION_GAP = "INTERVAL 30 MINUTE"   # ops.aggregates.sessionize_counts default


def connect():
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads = 1")
    con.execute("SET memory_limit = '1GB'")
    return con


def _files_sql(files) -> str:
    return "[" + ", ".join("'" + f.replace("'", "''") + "'" for f in files) + "]"


def violations_sql(files) -> str:
    """Every SQL-expressible constraint of the transcript spec: row kernels,
    (conv_id, turn_idx) uniqueness and ts monotonicity in turn order."""
    from jsonschema_validator_ray.constraints.ir import ROLES, TOOL_DICTIONARY

    roles = ", ".join(f"'{r}'" for r in ROLES)
    tools = ", ".join(f"'{t}'" for t in TOOL_DICTIONARY)
    missing, bad_type = "'Required property is missing'", "'Invalid Type'"
    row_checks = [
        ("conv_id IS NULL", "required:conv_id", missing),
        ("conv_id IS NULL", "type:conv_id", bad_type),
        ("turn_idx IS NULL", "required:turn_idx", missing),
        ("turn_idx IS NULL", "type:turn_idx", bad_type),
        ("role IS NULL", "required:role", missing),
        ("role IS NULL", "type:role", bad_type),
        (f"role IS NOT NULL AND role NOT IN ({roles})", "enum:role",
         "'Value not in enumeration'"),
        ("text IS NULL", "required:text", missing),
        ("text IS NULL", "type:text", bad_type),
        ("length(text) > 32768", "format:text",
         "'String length out of bounds'"),
        (f"tool IS NOT NULL AND tool NOT IN ({tools})", "ref:tool",
         "'Unresolved reference'"),
        ("ts IS NULL", "required:ts", missing),
        ("ts IS NULL", "type:ts", bad_type),
        ("ts < TIMESTAMP '2020-01-01' OR ts > TIMESTAMP '2035-01-01'",
         "range:ts", "'Value out of range'"),
    ]
    selects = [f"SELECT conv_id, turn_idx, '{cid}' AS constraint_id, "
               f"{msg} AS message FROM tx WHERE {cond}"
               for cond, cid, msg in row_checks]
    selects.append("""
        SELECT conv_id, turn_idx, 'unique:(conv_id,turn_idx)', 'Duplicate key'
        FROM (SELECT conv_id, turn_idx,
                     row_number() OVER (PARTITION BY conv_id, turn_idx) AS rn
              FROM tx WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL)
        WHERE rn > 1""")
    selects.append("""
        SELECT conv_id, turn_idx, 'mono:turn_idx',
               'Non-monotonic ts for turn order'
        FROM (SELECT conv_id, turn_idx, ts, lag(ts) OVER w AS pts,
                     lag(turn_idx) OVER w AS ptid
              FROM tx
              WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL
                    AND ts IS NOT NULL
              WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
        WHERE ts < pts AND turn_idx <> ptid""")
    union = "\nUNION ALL\n".join(selects)
    return f"""
        WITH tx AS (SELECT * FROM read_parquet({_files_sql(files)})),
        v AS ({union})
        SELECT conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
               constraint_id, message
        FROM v ORDER BY conv_id, turn_idx, constraint_id"""


def count_sql(files) -> str:
    return f"SELECT count(*) FROM read_parquet({_files_sql(files)})"


def sessions_sql(files) -> str:
    """A conversation's first turn opens a session, and so does every turn
    whose gap to the previous turn exceeds the gap. A null ts has no gap:
    it opens no session unless it is the first turn (``pts IS NULL`` alone
    would count every null ts that follows another null ts)."""
    return f"""
        WITH w AS (
            SELECT conv_id, ts,
                   lag(ts) OVER win AS pts,
                   row_number() OVER win AS rn
            FROM read_parquet({_files_sql(files)})
            WINDOW win AS (PARTITION BY conv_id
                           ORDER BY ts NULLS LAST, turn_idx))
        SELECT conv_id,
               CAST(count(*) FILTER (WHERE rn = 1
                                     OR ts - pts > {SESSION_GAP})
                    AS BIGINT) AS n_sessions
        FROM w GROUP BY conv_id ORDER BY conv_id"""


def pairs_sql(files) -> str:
    return f"""
        WITH w AS (
            SELECT conv_id, turn_idx, role, text,
                   lead(turn_idx) OVER win AS n_turn,
                   lead(role) OVER win AS n_role,
                   lead(text) OVER win AS n_text
            FROM read_parquet({_files_sql(files)})
            WINDOW win AS (PARTITION BY conv_id
                           ORDER BY turn_idx, role, text))
        SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx_from,
               CAST(n_turn AS BIGINT) AS turn_idx_to,
               text AS text_from, n_text AS text_to
        FROM w WHERE role = 'user' AND n_role = 'assistant'
        ORDER BY conv_id, turn_idx_from, turn_idx_to, text_from"""


def conv_dedup_sql(files) -> str:
    """Conversation-level dedup with the planted duplicates: every conv_id in
    the registered ``planted`` table is re-ingested as ``'dup-' || conv_id``."""
    return f"""
        WITH tx AS (SELECT conv_id, turn_idx, role, text
                    FROM read_parquet({_files_sql(files)})),
        aug AS (
            SELECT * FROM tx
            UNION ALL
            SELECT 'dup-' || conv_id, turn_idx, role, text
            FROM tx WHERE conv_id IN (SELECT conv_id FROM planted)),
        body AS (
            SELECT conv_id,
                   string_agg(role || ': ' || text, chr(10)
                              ORDER BY turn_idx, role, text) AS rendered
            FROM aug GROUP BY conv_id)
        SELECT min(conv_id) AS keeper_conv,
               CAST(count(*) AS BIGINT) AS n_copies
        FROM body GROUP BY rendered ORDER BY keeper_conv"""


def compute(files, planted: pa.Table, need: set) -> dict:
    """Run the oracles named in ``need`` ("violations",
    "sessionize_counts", "adjacent_pairs", "conv_dedup"); ``n_rows`` is
    always computed."""
    con = connect()
    try:
        out = {"n_rows": con.execute(count_sql(files)).fetchone()[0]}
        if "violations" in need:
            out["violations"] = con.execute(violations_sql(files)).arrow()
        if "sessionize_counts" in need:
            out["sessionize_counts"] = con.execute(
                sessions_sql(files)).arrow()
        if "adjacent_pairs" in need:
            out["adjacent_pairs"] = con.execute(pairs_sql(files)).arrow()
        if "conv_dedup" in need:
            con.register("planted", planted)
            out["conv_dedup"] = con.execute(conv_dedup_sql(files)).arrow()
        return out
    finally:
        con.close()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _canon(tbl: pa.Table, types: dict) -> pa.Table:
    """The named columns, cast to one type each, in one row order."""
    t = pa.table({c: tbl[c].cast(t) for c, t in types.items()})
    return t.sort_by([(c, "ascending") for c in types])


def _diff(name: str, got: pa.Table, want: pa.Table) -> list:
    if got.num_rows != want.num_rows:
        return [f"{name}: {got.num_rows} rows, expected {want.num_rows}"]
    if not got.equals(want):
        bad = sum(1 for a, b in zip(got.to_pylist(), want.to_pylist())
                  if a != b)
        return [f"{name}: {bad} of {want.num_rows} rows differ"]
    return []


def check_violations(got: pa.Table, oracle: pa.Table,
                     golden: pa.Table) -> list:
    """Violations equal the SQL oracle and the generator's golden set."""
    g = _canon(got, VIOLATION_TYPES)
    return (_diff("violations vs SQL", g, _canon(oracle, VIOLATION_TYPES))
            + _diff("violations vs golden", g,
                    _canon(golden, VIOLATION_TYPES)))


def check_validate(metrics: dict, drift: list, n_rows: int) -> list:
    errs = []
    if metrics.get("n_rows") != n_rows:
        errs.append(f"n_rows {metrics.get('n_rows')} != count(*) {n_rows}")
    failed = [d.get("constraint_id") for d in drift if not d["passed"]]
    if not drift or failed:
        errs.append(f"drift checks on the undrifted corpus: failed={failed}"
                    f" of {len(drift)}")
    return errs


def check_verdict(passed: bool, metrics: dict, oracle: pa.Table,
                  n_rows: int) -> list:
    errs = []
    if passed and oracle.num_rows:
        errs.append(f"verdict passed but the oracle finds "
                    f"{oracle.num_rows} violations")
    if not passed and not oracle.num_rows:
        errs.append("verdict failed but the oracle finds no violation")
    if metrics.get("n_rows") != n_rows:
        errs.append(f"verdict n_rows {metrics.get('n_rows')} != {n_rows}")
    return errs


def manifest_snapshot(out_dir: str) -> dict:
    """{manifest file name: (mtime_ns, size)} of a partitioned run."""
    mdir = os.path.join(out_dir, "manifests")
    if not os.path.isdir(mdir):
        return {}
    snap = {}
    for name in sorted(os.listdir(mdir)):
        if name.endswith(".json"):
            st = os.stat(os.path.join(mdir, name))
            snap[name] = (st.st_mtime_ns, st.st_size)
    return snap


def check_stopped(summary: dict, snapshot: dict, n_committed: int,
                  n_total: int) -> list:
    """The stopped call is not complete and committed exactly
    ``n_committed`` partitions."""
    errs = []
    if summary.get("complete"):
        errs.append("stopped run reports complete=True")
    if summary.get("partitions_done") != n_committed \
            or len(snapshot) != n_committed:
        errs.append(f"stopped run committed {summary.get('partitions_done')}"
                    f" partitions ({len(snapshot)} manifests), expected "
                    f"{n_committed}")
    if summary.get("partitions_total") != n_total:
        errs.append(f"partitions_total {summary.get('partitions_total')} != "
                    f"{n_total}")
    return errs


def check_resumed(summary: dict, before: dict, after: dict, n_total: int,
                  n_rows: int, n_violations: int) -> list:
    """The resumed call finalized, left every committed manifest untouched
    (it skipped exactly those partitions) and wrote all the others."""
    errs = []
    if not summary.get("complete"):
        errs.append("resumed run did not finalize")
    rewritten = sorted(k for k, v in before.items() if after.get(k) != v)
    if rewritten:
        errs.append(f"resume rewrote or lost committed manifests {rewritten}")
    if len(after) != n_total:
        errs.append(f"{len(after)} manifests after resume, expected {n_total}")
    if summary.get("n_rows") != n_rows:
        errs.append(f"finalized n_rows {summary.get('n_rows')} != {n_rows}")
    if summary.get("n_violations") != n_violations:
        errs.append(f"finalized n_violations {summary.get('n_violations')}"
                    f" != {n_violations}")
    return errs


def check_sessions(got: pa.Table, oracle: pa.Table) -> list:
    return _diff("sessions", _canon(got, SESSION_TYPES),
                 _canon(oracle, SESSION_TYPES))


def check_pairs(got: pa.Table, oracle: pa.Table) -> list:
    return _diff("pairs", _canon(got, PAIR_TYPES), _canon(oracle, PAIR_TYPES))


def check_conv_dedup(got: pa.Table, oracle: pa.Table) -> list:
    """(keeper, copies) per distinct rendered conversation."""
    g = pa.table({"keeper_conv": got["keeper_id"],
                  "n_copies": got["n_copies"]})
    errs = _diff("conv dedup", _canon(g, DEDUP_TYPES),
                 _canon(oracle, DEDUP_TYPES))
    if not errs and pc.max(oracle["n_copies"]).as_py() < 2:
        errs.append("conv dedup: no planted duplicate was found")
    return errs
