"""SQL DML pipelines: INSERT INTO … SELECT / UPDATE … SET / DELETE FROM …
WHERE over snapshot stores, plus parameterized ($n) statements.

Reference analogs: insert_translator.cpp / update_translator.cpp /
delete_translator.cpp (DML through codegen) and the extended-query
protocol's parameter binding (parser/expression_defs.h:66 PARAMETER,
network/postgres/statement.cpp).  Here DML lowers onto immutable snapshot
versions (state/snapshots.py) — INSERT appends part files, UPDATE is a
mapped rewrite, DELETE is a filtered rewrite, every prior version stays
readable (time travel).
"""

from __future__ import annotations

import os
import shutil


def sql_dml_roundtrip(sf_dir: str):
    """INSERT → count → DELETE → count, all through SQL text.

    Seeds a snapshot store with ``nation``, appends the region-1 rows via
    ``INSERT INTO nat SELECT …``, deletes every region-1 row via a
    PARAMETERIZED ``DELETE FROM nat WHERE n_regionkey = $1``, and returns
    (phase, n_rows) after each statement.  The oracle recomputes both
    counts from the base table: after_insert = N + N₁, after_delete =
    N - N₁ (the delete removes originals AND the inserted copies).
    """
    import pandas as pd
    import ray.data as rd

    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    root = os.path.join(
        "/tmp/terrier_ray_dml", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    shutil.rmtree(root, ignore_errors=True)
    snapshots.create_snapshot(
        root, rd.read_parquet(f"{sf_dir.rstrip('/')}/nation.parquet")
    )
    stores = {"nat": root}
    sql_dml("INSERT INTO nat SELECT * FROM nation WHERE n_regionkey = 1",
            sf_dir, stores)
    n_after_insert = snapshots.scan(root).count()
    sql_dml("DELETE FROM nat WHERE n_regionkey = $1", sf_dir, stores, params=[1])
    n_after_delete = snapshots.scan(root).count()
    return pd.DataFrame(
        {
            "phase": ["after_delete", "after_insert"],
            "n_rows": [int(n_after_delete), int(n_after_insert)],
        }
    )


def sql_update_roundtrip(sf_dir: str):
    """Parameterized ``UPDATE … SET … WHERE`` through SQL text.

    Seeds a snapshot store with ``nation`` and shifts region-$1 keys by
    +100; matched rows take the SET expression (evaluated on the original
    row values), others pass through unchanged.  The oracle recomputes the
    post-image with a CASE projection over the base table."""
    import pandas as pd
    import ray.data as rd

    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    root = os.path.join(
        "/tmp/terrier_ray_dml_upd", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    shutil.rmtree(root, ignore_errors=True)
    snapshots.create_snapshot(
        root, rd.read_parquet(f"{sf_dir.rstrip('/')}/nation.parquet")
    )
    sql_dml(
        "UPDATE nat SET n_nationkey = n_nationkey + 100 WHERE n_regionkey = $1",
        sf_dir,
        {"nat": root},
        params=[1],
    )
    df = snapshots.scan(root).to_pandas()[["n_name", "n_nationkey"]]
    df["new_key"] = df.pop("n_nationkey").astype("int64")
    return df.sort_values("n_name").reset_index(drop=True)


def sql_param_segment_counts(sf_dir: str):
    """Parameterized SELECT: the same statement text the oracle runs with
    literals, executed here with $1/$2 bind values."""
    from terrier_ray.sql import sql

    return sql(
        "SELECT c_mktsegment, count(*) AS n FROM customer "
        "WHERE c_acctbal > $1 AND c_nationkey < $2 "
        "GROUP BY c_mktsegment ORDER BY c_mktsegment",
        sf_dir,
        params=[1000.0, 20],
    )


def sql_prepared_reexecute(sf_dir: str):
    """Prepared statement (parse once, execute many — statement.cpp
    extended-query-protocol analog): two executions of one handle with
    different $1 bindings, stacked with their binding tag.  The oracle runs
    the same text twice with the literals inlined."""
    import pyarrow as pa

    from terrier_ray.sql import prepare

    ps = prepare(
        "SELECT c_mktsegment, count(*) AS n FROM customer "
        "WHERE c_acctbal > $1 GROUP BY c_mktsegment ORDER BY c_mktsegment",
        sf_dir,
    )
    outs = []
    for tag, bal in (("hi", 5000.0), ("lo", 0.0)):
        t = pa.Table.from_pandas(ps.execute([bal]).to_pandas())
        outs.append(t.append_column("bind", pa.array([tag] * t.num_rows)))
    both = pa.concat_tables(outs)
    return both.sort_by([("bind", "ascending"), ("c_mktsegment", "ascending")])


def sql_insert_values_roundtrip(sf_dir: str):
    """``INSERT INTO t (cols) VALUES (...), (...)`` through SQL text (the
    inline-values sibling of the SELECT-sourced INSERT; reference:
    insert_translator.cpp covers both children).  Seeds a snapshot store
    with ``nation``, appends two literal rows (one value bound via $1), and
    returns the appended rows plus the post-insert total.  The oracle
    reproduces the literals and recomputes the count from the base table."""
    import pandas as pd
    import ray.data as rd

    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    root = os.path.join(
        "/tmp/terrier_ray_dml_vals", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    shutil.rmtree(root, ignore_errors=True)
    snapshots.create_snapshot(
        root, rd.read_parquet(f"{sf_dir.rstrip('/')}/nation.parquet")
    )
    sql_dml(
        "INSERT INTO nat (n_nationkey, n_name, n_regionkey) "
        "VALUES (100, 'ATLANTIS', $1), (101, 'LEMURIA', 2)",
        sf_dir,
        {"nat": root},
        params=[1],
    )
    df = snapshots.scan(root).to_pandas()
    new = df[df["n_nationkey"] >= 100][
        ["n_nationkey", "n_name", "n_regionkey"]
    ].copy()
    new["n_total"] = int(len(df))
    for c in ("n_nationkey", "n_regionkey", "n_total"):
        new[c] = new[c].astype("int64")
    return new.sort_values("n_nationkey").reset_index(drop=True)


def sql_udf_taxed_orders(sf_dir: str):
    """Scalar UDF through the SQL front-end (the executable CREATE FUNCTION
    analog, sql/udf.py — the reference parses CREATE FUNCTION but has no
    execution path): register ``taxed(x) = x*2+1`` as a VECTORIZED Arrow
    callable, call it from SQL text, drop it after (the compiled plan
    captured the callable, so the drop cannot affect execution).  The
    oracle runs the inlined arithmetic — doubling and +1 are IEEE-exact in
    float64, so the driver's atol=0 value hash must match."""
    import pyarrow.compute as pc

    from terrier_ray.sql import drop_function, register_function, sql

    register_function("taxed", lambda x: pc.add(pc.multiply(x, 2.0), 1.0))
    try:
        return sql(
            "SELECT o_orderkey, taxed(o_totalprice) AS taxed "
            "FROM orders WHERE o_orderkey <= 320 ORDER BY o_orderkey",
            sf_dir,
        )
    finally:
        drop_function("taxed")


def sql_insert_index_ingest(sf_dir: str):
    """SQL DML unified with incremental index ingest (VERDICT r4 #6): an
    ``INSERT INTO <webtext store> SELECT …`` through the SQL front-end
    emits a DELTA SEGMENT (index/segments.ingest_snapshot_delta) that
    SegmentedBM25 consumes next to the base segment — the flagship index
    tracks DML with no monolithic rebuild (insert_translator.cpp maintains
    indexes inside INSERT; this is the immutable-batch analog).

    Flow: webtext corpus → snapshot store v1 → base segment; INSERT the
    '/p7'-suffixed pages back with '-v2' urls (disjoint docids — the
    SegmentedBM25 contract) → v2 → delta segment over ONLY the appended
    part files; query the segmented index.  Rows: (query_id, rank, docid,
    score); rows-only (BM25 is not SQL-expressible) — the
    bit-identical-vs-monolithic-rebuild identity is asserted in
    tests/test_state.py."""
    import ray.data as rd

    from terrier_ray.datagen.webtext import generate_queries, webtext_for_sf
    from terrier_ray.index.bm25 import SegmentedBM25, hits_table
    from terrier_ray.index.segments import ingest_snapshot_delta
    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    web = webtext_for_sf(sf_dir)
    work = os.path.join(
        "/tmp/terrier_ray_dml_ingest", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    shutil.rmtree(work, ignore_errors=True)
    sqlsf = os.path.join(work, "sqlsf")
    os.makedirs(sqlsf, exist_ok=True)
    os.symlink(os.path.abspath(web), os.path.join(sqlsf, "web.parquet"))
    store = os.path.join(work, "store")
    segroot = os.path.join(work, "segments")
    kw = dict(num_buckets=8, num_salts=2, heavy_min_df=200)

    snapshots.create_snapshot(store, rd.read_parquet(web))
    base_seg = ingest_snapshot_delta(segroot, store, 0, **kw)
    sql_dml(
        "INSERT INTO webstore SELECT CONCAT(url, '-v2') AS url, warc_ts, "
        "html, text, lang FROM web WHERE url LIKE '%/p7'",
        sqlsf,
        {"webstore": store},
    )
    delta_seg = ingest_snapshot_delta(segroot, store, 1, **kw)
    assert delta_seg is not None, "INSERT appended no part files"
    seg = SegmentedBM25([base_seg, delta_seg])

    queries = generate_queries(8)
    return hits_table(
        (qid, seg.search(text, 10))
        for qid, text in zip(
            queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
        )
    )


def sql_delete_index_ingest(sf_dir: str):
    """SQL DELETE unified with incremental index maintenance — the
    delete_translator.cpp analog (the reference deletes from every index
    inside the DELETE plan): a ``DELETE FROM <webtext store>`` through the
    SQL front-end emits a TOMBSTONE sidecar
    (index/segments.sync_snapshot_dml) carrying exact stat deltas
    mined from the segment's own corpus epoch; SegmentedBM25 applies it at
    query time and stays bit-identical to a rebuild over the remaining docs
    (asserted in tests/test_state.py) — no monolithic rebuild, and no
    Lucene-style stale df/avgdl.

    Flow: webtext corpus → snapshot store v1 → base segment; DELETE the
    '/p3'-suffixed pages → v2 → tombstone; query the segmented index.
    Rows: (query_id, rank, docid, score); rows-only (BM25 is not
    SQL-expressible)."""
    import ray.data as rd

    from terrier_ray.datagen.webtext import generate_queries, webtext_for_sf
    from terrier_ray.index.bm25 import SegmentedBM25, hits_table
    from terrier_ray.index.segments import ingest_snapshot_delta, sync_snapshot_dml
    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    web = webtext_for_sf(sf_dir)
    work = os.path.join(
        "/tmp/terrier_ray_dml_tomb", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    shutil.rmtree(work, ignore_errors=True)
    sqlsf = os.path.join(work, "sqlsf")
    os.makedirs(sqlsf, exist_ok=True)
    os.symlink(os.path.abspath(web), os.path.join(sqlsf, "web.parquet"))
    store = os.path.join(work, "store")
    segroot = os.path.join(work, "segments")
    kw = dict(num_buckets=8, num_salts=2, heavy_min_df=200)

    snapshots.create_snapshot(store, rd.read_parquet(web))
    base_seg = ingest_snapshot_delta(segroot, store, 0, **kw)
    # sql_dml returns the NEW SNAPSHOT VERSION (snapshots.delete_rows →
    # nxt), not a deleted-row count; the zero-match case is caught by the
    # tombstone assert below (sql_update_index_ingest precedent)
    v = sql_dml(
        "DELETE FROM webstore WHERE url LIKE '%/p3'", sqlsf, {"webstore": store}
    )
    assert v == 2, f"DELETE snapshot version {v} != 2"
    _, tomb = sync_snapshot_dml(segroot, store, 1, 2)
    assert tomb is not None, "DELETE tombstoned no indexed docs"
    seg = SegmentedBM25([base_seg], tombstone_dirs=[tomb])

    queries = generate_queries(8)
    return hits_table(
        (qid, seg.search(text, 10))
        for qid, text in zip(
            queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
        )
    )


def sql_update_index_ingest(sf_dir: str):
    """SQL UPDATE unified with incremental index maintenance — the
    update_translator.cpp analog (the reference re-indexes changed rows as
    delete+insert inside the UPDATE plan): ``UPDATE <webtext store> SET
    text = …`` through the SQL front-end, then
    ``index/segments.sync_snapshot_dml`` diffs the two snapshot versions BY
    CONTENT and emits both halves — a tombstone for the stale bodies in the
    base segment and a delta segment carrying the new bodies (same docids;
    per-segment tombstone scoping keeps the delta copies live).
    SegmentedBM25 over the result is bit-identical to a rebuild over the
    updated snapshot (asserted in tests/test_state.py).

    Query-time serving goes through ``DistributedSegmentedBM25`` — the bm25
    executor's one shard task per (segment, docid range) unit with
    driver-side global stats, rank-AND-score-identical to the local
    SegmentedBM25 (tested) — so the DML'd index keeps the 1e12-doc serving
    shape without a compaction.

    Rows: (query_id, rank, docid, score) over queries that include the
    updated vocabulary; rows-only (BM25 is not SQL-expressible)."""
    import ray.data as rd

    from terrier_ray.datagen.webtext import generate_queries, webtext_for_sf
    from terrier_ray.index.bm25 import DistributedSegmentedBM25, hits_table
    from terrier_ray.index.segments import (
        ingest_snapshot_delta,
        sync_snapshot_dml,
    )
    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    web = webtext_for_sf(sf_dir)
    work = os.path.join(
        "/tmp/terrier_ray_dml_upd_idx", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    shutil.rmtree(work, ignore_errors=True)
    sqlsf = os.path.join(work, "sqlsf")
    os.makedirs(sqlsf, exist_ok=True)
    os.symlink(os.path.abspath(web), os.path.join(sqlsf, "web.parquet"))
    store = os.path.join(work, "store")
    segroot = os.path.join(work, "segments")
    kw = dict(num_buckets=8, num_salts=2, heavy_min_df=200)

    snapshots.create_snapshot(store, rd.read_parquet(web))
    base_seg = ingest_snapshot_delta(segroot, store, 0, **kw)
    v = sql_dml(
        "UPDATE webstore SET text = 'zebra quokka xylophone census zebra' "
        "WHERE url LIKE '%/p5'",
        sqlsf,
        {"webstore": store},
    )
    assert v == 2, "UPDATE did not publish snapshot v2"
    delta_seg, tomb = sync_snapshot_dml(segroot, store, 1, 2, **kw)
    assert delta_seg is not None and tomb is not None
    seg = DistributedSegmentedBM25([base_seg, delta_seg], tombstone_dirs=[tomb])

    queries = generate_queries(7)
    texts = queries.column("text").to_pylist() + ["zebra quokka"]
    qids = queries.column("query_id").to_pylist() + [9999]
    return hits_table(zip(qids, seg.search_many(texts, 10)))


def phrase_matches_dml(sf_dir: str):
    """Positional phrase retrieval over a DML-maintained segmented index:
    base positional segment over the sf webtext → SQL UPDATE rewrites a
    slice of docs to a known phrase → ``sync_snapshot_dml`` (positional
    delta + per-segment tombstone) → ``segmented_phrase_matches`` (the
    bm25 executor's phrase phase over a ``SegmentedBM25``) finds the NEW
    bodies by position intersection and must not surface the stale ones (identity vs a monolithic positional rebuild is asserted
    in tests/test_state.py).  Rows: (phrase_id, phrase, docid,
    n_occurrences); rows-only (phrase adjacency is not SQL-expressible
    on these tables)."""
    import ray.data as rd

    from terrier_ray.datagen.webtext import webtext_for_sf
    from terrier_ray.index.segments import (
        ingest_snapshot_delta,
        sync_snapshot_dml,
    )
    from terrier_ray.pipelines.fulltext import segmented_phrase_matches
    from terrier_ray.sql import sql_dml
    from terrier_ray.state import snapshots

    web = webtext_for_sf(sf_dir)
    work = os.path.join(
        "/tmp/terrier_ray_dml_phrase",
        os.path.basename(sf_dir.rstrip("/")) or "sf",
    )
    shutil.rmtree(work, ignore_errors=True)
    sqlsf = os.path.join(work, "sqlsf")
    os.makedirs(sqlsf, exist_ok=True)
    os.symlink(os.path.abspath(web), os.path.join(sqlsf, "web.parquet"))
    store = os.path.join(work, "store")
    segroot = os.path.join(work, "segments")
    kw = dict(num_buckets=8, num_salts=2, heavy_min_df=200, positions=True)

    snapshots.create_snapshot(store, rd.read_parquet(web))
    base = ingest_snapshot_delta(segroot, store, 0, **kw)
    sql_dml(
        "UPDATE webstore SET text = "
        "'zebra quokka xylophone herd sighting near the zebra quokka pen' "
        "WHERE url LIKE '%/p7'",
        sqlsf,
        {"webstore": store},
    )
    delta, tomb = sync_snapshot_dml(segroot, store, 1, 2, **kw)
    segs = [base] + ([delta] if delta else [])
    return segmented_phrase_matches(
        segs,
        ["zebra quokka", "quokka xylophone herd", "the of"],
        tombstone_dirs=[tomb] if tomb else None,
    )


QUERIES = {
    "phrase_matches_dml": phrase_matches_dml,
    "sql_dml_roundtrip": sql_dml_roundtrip,
    "sql_delete_index_ingest": sql_delete_index_ingest,
    "sql_update_index_ingest": sql_update_index_ingest,
    "sql_insert_index_ingest": sql_insert_index_ingest,
    "sql_insert_values_roundtrip": sql_insert_values_roundtrip,
    "sql_update_roundtrip": sql_update_roundtrip,
    "sql_param_segment_counts": sql_param_segment_counts,
    "sql_prepared_reexecute": sql_prepared_reexecute,
    "sql_udf_taxed_orders": sql_udf_taxed_orders,
}

ORACLE_SQL = {
    "sql_insert_values_roundtrip": """
        SELECT *
        FROM (
            SELECT 100 AS n_nationkey, 'ATLANTIS' AS n_name, 1 AS n_regionkey,
                   (SELECT COUNT(*) + 2 FROM nation) AS n_total
            UNION ALL
            SELECT 101, 'LEMURIA', 2, (SELECT COUNT(*) + 2 FROM nation)
        ) v
        ORDER BY n_nationkey
    """,
    "sql_dml_roundtrip": """
        SELECT 'after_delete' AS phase,
               (SELECT COUNT(*) FROM nation)
             - (SELECT COUNT(*) FROM nation WHERE n_regionkey = 1) AS n_rows
        UNION ALL
        SELECT 'after_insert' AS phase,
               (SELECT COUNT(*) FROM nation)
             + (SELECT COUNT(*) FROM nation WHERE n_regionkey = 1) AS n_rows
        ORDER BY phase
    """,
    "sql_update_roundtrip": """
        SELECT n_name,
               CAST(CASE WHEN n_regionkey = 1 THEN n_nationkey + 100
                         ELSE n_nationkey END AS BIGINT) AS new_key
        FROM nation ORDER BY n_name
    """,
    "sql_param_segment_counts": """
        SELECT c_mktsegment, count(*) AS n FROM customer
        WHERE c_acctbal > 1000.0 AND c_nationkey < 20
        GROUP BY c_mktsegment ORDER BY c_mktsegment
    """,
    "sql_prepared_reexecute": """
        SELECT * FROM (
            SELECT c_mktsegment, count(*) AS n, 'hi' AS bind FROM customer
            WHERE c_acctbal > 5000.0 GROUP BY c_mktsegment
            UNION ALL
            SELECT c_mktsegment, count(*) AS n, 'lo' AS bind FROM customer
            WHERE c_acctbal > 0.0 GROUP BY c_mktsegment
        ) ORDER BY bind, c_mktsegment
    """,
    "sql_udf_taxed_orders": """
        SELECT o_orderkey, o_totalprice * 2.0 + 1.0 AS taxed
        FROM orders WHERE o_orderkey <= 320 ORDER BY o_orderkey
    """,
}
