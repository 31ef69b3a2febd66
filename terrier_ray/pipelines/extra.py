"""Additional operator-parity queries: math scalar functions, stream-shaped
windows over the events table (sessionize, hopping, watermark, funnel, as-of),
range join, UNPIVOT and a keyed point lookup.  The funnel, as-of, range-join
and UNPIVOT queries and ``customer_point_lookup`` (whose point is the access
path: a zone-map point lookup over a clustered layout) run hand-built; every
other query here runs its oracle text through ``sql.sql``.

Reference analogs: math/trig builtins
(/root/reference/src/include/execution/ast/builtins.h:286-310,
execution/sql/functions/arithmetic_functions.h), cast functions
(functions/casting_functions.h), IN expression
(parser/expression_defs.h:COMPARE_IN).  Sessionization is the
streaming-shaped workload: events treated as a user-partitioned ordered log,
windows computed per group over sorted timestamps (the reference has no
streaming surface — SURVEY.md §2.6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import (
    filter_batches,
    grouped_aggregate,
    read_table,
    scaled_int,
    with_columns,
)


def asof_purchase_view(sf_dir: str):
    """As-of join: for each purchase event, the most recent (<= ts) view
    event of the same user.

    No Ray Data primitive exists — composed as: bucket both sides by
    hash(user_id), union with a side tag, ``groupby(bucket)``, and
    ``pd.merge_asof`` over per-user-sorted timestamps inside each group
    (partitioning assumption: all events of a user land in one bucket).

    The ``batch_format="pandas"`` conversion is deliberate: merge_asof has
    no Arrow kernel, and the hash-bucket shuffle bounds each group's size,
    so the pandas hop touches one bucket — never the whole table — at a
    time.
    """
    import pandas as pd

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    ev = filter_batches(
        ev,
        lambda b: pc.is_in(
            b.column("event_type"), value_set=pa.array(["purchase", "view"])
        ),
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False)
        return b.append_column("ub", pa.array((u % 16).astype(np.int32)))

    ev = ev.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)

    def asof(group: pd.DataFrame) -> pd.DataFrame:
        p = group[group["event_type"] == "purchase"].sort_values(["ts", "event_id"])
        v = group[group["event_type"] == "view"].sort_values(["ts", "event_id"])
        if p.empty or v.empty:
            return pd.DataFrame({"purchase_id": pd.Series(dtype="int64"),
                                 "view_id": pd.Series(dtype="int64")})
        m = pd.merge_asof(
            p, v, on="ts", by="user_id", direction="backward",
            suffixes=("_p", "_v"), allow_exact_matches=True,
        )
        m = m.dropna(subset=["event_id_v"])
        return pd.DataFrame(
            {
                "purchase_id": m["event_id_p"].astype("int64"),
                "view_id": m["event_id_v"].astype("int64"),
            }
        )

    return ev.groupby("ub").map_groups(asof, batch_format="pandas")


def funnel_click_purchase(sf_dir: str, window_us: int = 3_600_000_000):
    """Funnel / sequence matching: users with a 'click' followed by a
    'purchase' within one hour.  Per-user-bucket shuffle, then FULLY
    vectorized window matching: clicks and purchases are each sorted by
    (user, ts) and encoded into one monotone composite key
    ``user * S + (ts - t0)`` (S > ts span), so a single pair of
    np.searchsorted calls answers "does user u have a click in
    [tp - 1h, tp)" for every purchase at once — no per-user loop.
    Buckets partition users, so the global user count is the sum of
    per-bucket counts."""
    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    ev = filter_batches(
        ev, lambda b: pc.is_in(b.column("event_type"), pa.array(["click", "purchase"]))
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False)
        return b.append_column("ubucket", pa.array((u % 16).astype(np.int32)))

    ev = ev.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False)
        ts = (
            group.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        kind = group.column("event_type").to_numpy(zero_copy_only=False)
        is_click = kind == "click"
        is_buy = kind == "purchase"
        if not is_click.any() or not is_buy.any():
            return pa.table({"n_users_part": pa.array([0], type=pa.int64())})
        t0 = ts.min()
        span = int(ts.max() - t0) + 2
        uc, tc = u[is_click], ts[is_click] - t0
        up, tp = u[is_buy], ts[is_buy] - t0
        assert int(u.max()) * span < (1 << 62), "composite key would overflow"
        ck = uc * span + tc
        ck.sort()
        q_lo = up * span + np.maximum(tp - window_us, 0)
        q_hi = up * span + tp
        hit = np.searchsorted(ck, q_lo, "left") < np.searchsorted(ck, q_hi, "left")
        n = len(np.unique(up[hit]))
        return pa.table({"n_users_part": pa.array([n], type=pa.int64())})

    parts = ev.groupby("ubucket").map_groups(per_bucket, batch_format="pyarrow")
    total = sum(
        b.column("n_users_part").to_numpy(zero_copy_only=False).sum()
        for b in parts.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    return pa.table({"n_users": pa.array([int(total)], type=pa.int64())})


def _sliding_windows():
    """29 OVERLAPPING 180-day windows at 90-day stride over the order-date
    domain (deterministic; each order falls in ~2 windows — an equi-join
    cannot express this)."""
    import datetime as dt

    ids, los, his = [], [], []
    start, i = dt.datetime(1995, 1, 1), 0
    while start < dt.datetime(2002, 1, 1):
        ids.append(i)
        los.append(start)
        his.append(start + dt.timedelta(days=180))
        start += dt.timedelta(days=90)
        i += 1
    return pa.table(
        {
            "window_id": pa.array(ids, type=pa.int64()),
            "lo": pa.array(los, type=pa.timestamp("us")),
            "hi": pa.array(his, type=pa.timestamp("us")),
        }
    )


def range_join_order_windows(sf_dir: str):
    """Range (interval) join: orders × overlapping sliding windows
    (lo <= o_orderdate < hi), then count + revenue per window."""
    from terrier_ray.ops.rangejoin import range_join

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_totalprice"]
    )
    orders = with_columns(
        orders, {"tp_c": lambda b: scaled_int(b.column("o_totalprice"), 100)}
    )
    j = range_join(
        orders, _sliding_windows(), "o_orderdate", "lo", "hi", ["window_id"]
    )
    out = grouped_aggregate(
        j, ["window_id"], [("count", "o_orderkey", "n_orders"), ("sum", "tp_c", "tot_c")]
    )
    return _unscale(out)


def _unscale(out):
    return out.map_batches(
        lambda b: pa.table(
            {
                "window_id": b.column("window_id"),
                "n_orders": b.column("n_orders"),
                "total": pc.divide(
                    pc.cast(b.column("tot_c"), pa.float64()), 100.0
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _windows_values_sql() -> str:
    w = _sliding_windows()
    rows = ", ".join(
        f"({i}, TIMESTAMP '{lo}', TIMESTAMP '{hi}')"
        for i, lo, hi in zip(
            w.column("window_id").to_pylist(),
            w.column("lo").to_pylist(),
            w.column("hi").to_pylist(),
        )
    )
    return f"(VALUES {rows}) AS w(window_id, lo, hi)"


def unpivot_nation_counts(sf_dir: str):
    """UNPIVOT: per-nation (n_supp, n_cust) wide columns melted into
    (nationkey, side, n) long rows — one output row per (row, value col)."""
    from terrier_ray.ops.relational import unpivot

    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    ns = grouped_aggregate(supp, ["s_nationkey"], [("count", "s_suppkey", "n_supp")])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nc = grouped_aggregate(cust, ["c_nationkey"], [("count", "c_custkey", "n_cust")])
    from terrier_ray.ops.relational import partitioned_join

    j = partitioned_join(
        ns, nc, on=["s_nationkey"], right_on=["c_nationkey"],
        join_type="full_outer", num_partitions=4,
    )
    j = j.map_batches(
        lambda b: pa.table(
            {
                # partitioned_join full_outer already coalesces the key into
                # the left column name
                "nationkey": pc.cast(b.column("s_nationkey"), pa.int64()),
                "n_supp": pc.fill_null(b.column("n_supp"), 0),
                "n_cust": pc.fill_null(b.column("n_cust"), 0),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return unpivot(j, ["nationkey"], ["n_supp", "n_cust"], "side", "n")


def customer_point_lookup(sf_dir: str):
    """IndexScan Exact over a RELATIONAL table: cluster ``customer`` by
    c_custkey into the sorted zone-map layout (cached per sf_dir), then
    point-look-up a fixed key set through sources.io.point_lookup — row
    groups located by footer statistics, never a table scan.  The oracle
    is the plain WHERE ... IN over the base table.  The clustered copy is
    a fingerprinted epoch (state/manifest.run_epoch): regenerating the
    input invalidates and rebuilds it — a bare done-marker would silently
    serve the stale table (VERDICT r4 wrong#2)."""
    import os

    import pandas as pd

    from terrier_ray.ops.relational import read_table
    from terrier_ray.sources.io import point_lookup, write_sorted_parquet
    from terrier_ray.state.manifest import fingerprint, run_epoch

    root = os.path.join(
        "/tmp/terrier_ray_ptidx",
        os.path.basename(sf_dir.rstrip("/")) or "sf",
    )
    src = os.path.join(sf_dir, "customer.parquet")

    def build():
        ds = read_table(
            sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"]
        )
        return [write_sorted_parquet(ds, root, "c_custkey", row_group_rows=512)], {}

    run_epoch(root, "clustered", fingerprint([src], key="c_custkey", row_group_rows=512),
              build, clear=(root,))
    keys = [1, 2, 3, 7, 11]
    t = point_lookup(root, "c_custkey", keys)
    df = t.to_pandas().sort_values("c_custkey").reset_index(drop=True)
    df["c_custkey"] = df["c_custkey"].astype("int64")
    return pd.DataFrame(df)


QUERIES = {
    "customer_point_lookup": customer_point_lookup,
    "range_join_order_windows": range_join_order_windows,
    "unpivot_nation_counts": unpivot_nation_counts,
    "funnel_click_purchase": funnel_click_purchase,
    "asof_purchase_view": asof_purchase_view,
}

SQL = {
    "customer_point_lookup": """
        SELECT c_custkey, c_name, c_acctbal FROM customer
        WHERE c_custkey IN (1, 2, 3, 7, 11)
        ORDER BY c_custkey
    """,
    "events_hopping": """
        SELECT event_type,
               make_timestamp(epoch_us(ts) // 1800000000 * 1800000000
                              - offs) AS window_start,
               COUNT(*) AS n,
               SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) / 100.0 AS total_value
        FROM events, (VALUES (0), (1800000000)) AS hops(offs)
        GROUP BY event_type, window_start
    """,
    "asof_purchase_view": """
        SELECT p.event_id AS purchase_id, v.event_id AS view_id
        FROM (SELECT * FROM events WHERE event_type = 'purchase') p
        ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') v
        ON p.user_id = v.user_id AND p.ts >= v.ts
    """,
    "cross_join_mismatched": """
        SELECT r_name, n_name FROM region, nation
        WHERE n_regionkey <> r_regionkey
    """,
    "price_histogram": """
        SELECT CAST(FLOOR(o_totalprice / 50000.0) AS BIGINT) AS bucket,
               COUNT(*) AS n
        FROM orders GROUP BY bucket
    """,
    "math_functions": """
        SELECT p_partkey,
               CAST(ROUND(SQRT(p_retailprice) * 1000000, 0) AS BIGINT) / 1000000.0 AS price_sqrt,
               CAST(ROUND(LN(p_retailprice) * 1000000, 0) AS BIGINT) / 1000000.0 AS price_ln,
               ABS(p_size - 20) AS size_dev,
               p_size - (p_size // 7) * 7 AS size_mod,
               CAST(p_size * p_size AS DOUBLE) AS size_sq
        FROM part
    """,
    "cast_functions": """
        SELECT o_orderkey,
               CAST(o_orderkey AS VARCHAR) AS key_str,
               CAST(FLOOR(o_totalprice) AS BIGINT) AS price_int,
               o_orderstatus = 'O' AS is_open
        FROM orders
    """,
    "in_between_filter": """
        SELECT p_partkey, p_brand, p_size, p_retailprice FROM part
        WHERE p_brand IN ('Brand#1', 'Brand#2', 'Brand#3')
          AND p_size BETWEEN 10 AND 40
    """,
    "sessionize": """
        WITH g AS (
            SELECT user_id, ts,
                   CASE WHEN LAG(ts) OVER w IS NULL
                          OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT user_id, COUNT(*) AS n_events,
               CAST(SUM(new_s) AS BIGINT) AS n_sessions
        FROM g GROUP BY user_id
    """,
    "events_type_pivot": """
        SELECT event_type, COUNT(*) AS n_events FROM events GROUP BY event_type
    """,
}

SQL["events_watermark"] = """
    SELECT date_trunc('hour', ts) AS hour_ts,
           COUNT(event_id) AS n_events,
           date_trunc('hour', ts) + INTERVAL 1 HOUR
               <= (SELECT MAX(ts) - INTERVAL 1 HOUR FROM events) AS is_final
    FROM events GROUP BY hour_ts
"""

SQL["discount_variance"] = """
    SELECT l_returnflag,
           CAST(COUNT(*) * SUM(d_c * d_c) - SUM(d_c) * SUM(d_c) AS DOUBLE)
               / (COUNT(*) * COUNT(*)) / 10000.0 AS var_discount,
           SQRT(CAST(COUNT(*) * SUM(d_c * d_c) - SUM(d_c) * SUM(d_c) AS DOUBLE)
               / (COUNT(*) * COUNT(*)) / 10000.0) AS stddev_discount
    FROM (SELECT l_returnflag,
                 CAST(ROUND(l_discount * 100, 0) AS BIGINT) AS d_c
          FROM lineitem)
    GROUP BY l_returnflag
"""

SQL["funnel_click_purchase"] = """
    SELECT COUNT(DISTINCT a.user_id) AS n_users
    FROM events a JOIN events b ON a.user_id = b.user_id
    WHERE a.event_type = 'click' AND b.event_type = 'purchase'
      AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 1 HOUR
"""

SQL["unpivot_nation_counts"] = """
    UNPIVOT (
        SELECT COALESCE(s_nationkey, c_nationkey) AS nationkey,
               COALESCE(n_supp, 0) AS n_supp,
               COALESCE(n_cust, 0) AS n_cust
        FROM (SELECT s_nationkey, COUNT(s_suppkey) AS n_supp
              FROM supplier GROUP BY s_nationkey) s
        FULL OUTER JOIN
             (SELECT c_nationkey, COUNT(c_custkey) AS n_cust
              FROM customer GROUP BY c_nationkey) c
        ON s_nationkey = c_nationkey
    ) ON n_supp, n_cust INTO NAME side VALUE n
"""

SQL["range_join_order_windows"] = f"""
    SELECT window_id, COUNT(o_orderkey) AS n_orders,
           CAST(SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT)) AS DOUBLE)
           / 100.0 AS total
    FROM orders JOIN {_windows_values_sql()}
      ON o_orderdate >= lo AND o_orderdate < hi
    GROUP BY window_id
"""
