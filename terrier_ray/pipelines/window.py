"""Window-function query suite (DuckDB-oracled) over the orders table.

Every query here runs its oracle text through ``sql.sql``; windows lower
onto ``ops.window.windowed`` — one hash shuffle + vectorized segment
kernels; see that module's docstring for the scale contract.
"""

from __future__ import annotations


SQL = {
    "sql_window_frames": """
        SELECT o_custkey, o_orderkey,
               SUM(tp_c) OVER (PARTITION BY o_custkey
                               ORDER BY o_orderdate, o_orderkey
                               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                   / 100.0 AS mv_sum,
               AVG(tp_c) OVER (PARTITION BY o_custkey
                               ORDER BY o_orderdate, o_orderkey
                               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                   AS mv_avg,
               SUM(tp_c) OVER (PARTITION BY o_custkey
                               ORDER BY o_orderdate, o_orderkey
                               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                   AS run_sum,
               LAST_VALUE(o_orderkey) OVER (
                   PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                   ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                   AS last_ord
        FROM (SELECT o_custkey, o_orderkey, o_orderdate,
                     CAST(ROUND(o_totalprice * 100, 0) AS BIGINT) AS tp_c
              FROM orders) t
""",
    "top2_orders_per_priority": """
        SELECT o_orderkey, o_orderpriority, o_totalprice FROM (
            SELECT o_orderkey, o_orderpriority, o_totalprice,
                   ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                      ORDER BY o_totalprice DESC) AS rn
            FROM orders)
        WHERE rn <= 2
    """,
    "window_moving_spend": """
        SELECT o_custkey, o_orderkey,
               SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT))
                   OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) / 100.0
                   AS mv_sum,
               AVG(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT))
                   OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                   AS mv_avg_c
        FROM orders
    """,
    "window_first_last": """
        SELECT o_custkey, o_orderkey,
               FIRST_VALUE(o_orderkey)
                   OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                   AS first_ord,
               LAST_VALUE(o_orderkey)
                   OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                   AS last_ord,
               NTH_VALUE(o_orderkey, 2)
                   OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
                   AS second_ord
        FROM orders
    """,
    "window_percentiles": """
        SELECT o_orderkey, o_orderpriority,
               PERCENT_RANK() OVER (PARTITION BY o_orderpriority
                                    ORDER BY o_orderdate) AS pr,
               CUME_DIST() OVER (PARTITION BY o_orderpriority
                                 ORDER BY o_orderdate) AS cd
        FROM orders
    """,
    "window_order_rank": """
        SELECT o_custkey, o_orderkey, rn FROM (
            SELECT o_custkey, o_orderkey,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                                      ORDER BY o_orderdate, o_orderkey) AS rn
            FROM orders)
        WHERE rn <= 3
    """,
    "window_running_spend": """
        SELECT o_custkey, o_orderkey,
               SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT))
                   OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) / 100.0
                   AS running_spend
        FROM orders
    """,
    "window_ntile": """
        SELECT o_orderkey, o_orderpriority,
               NTILE(4) OVER (PARTITION BY o_orderpriority
                              ORDER BY o_totalprice, o_orderkey) AS quartile
        FROM orders
    """,
    "window_order_gap_days": """
        SELECT o_custkey, o_orderkey,
               DATEDIFF('day',
                        LAG(o_orderdate) OVER (PARTITION BY o_custkey
                                               ORDER BY o_orderdate, o_orderkey),
                        o_orderdate) AS gap_days
        FROM orders
    """,
}
