"""Window-function query suite (DuckDB-oracled) over the orders table.

The running/moving SUM and the LAG day-gap run via ``ops.window.windowed``
— one hash shuffle + vectorized segment kernels; see that module's
docstring for the scale contract.  Their oracle texts use forms the SQL
front-end rejects (a window over an expression, DATEDIFF); every other
query here runs its oracle text through ``sql.sql``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import read_table, scaled_int, unscale, with_columns
from terrier_ray.ops.window import windowed

_ORDER = ["o_orderdate", "o_orderkey"]  # unique per partition → deterministic


def window_running_spend(sf_dir: str):
    """Per-customer cumulative spend in order-date order (running SUM)."""
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    orders = with_columns(
        orders, {"tp_c": lambda b: scaled_int(b.column("o_totalprice"), 100)}
    )
    w = windowed(orders, ["o_custkey"], _ORDER, [("cumsum", "tp_c", "spend_c")])
    return w.map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("o_orderkey"),
                "running_spend": unscale(b.column("spend_c"), 100),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def window_order_gap_days(sf_dir: str):
    """Days since the customer's previous order (LAG; null on first order)."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    w = windowed(orders, ["o_custkey"], _ORDER, [("lag", "o_orderdate", "prev_date")])

    def finish(b: pa.Table) -> pa.Table:
        us = pc.subtract(
            pc.cast(b.column("o_orderdate"), pa.int64()),
            pc.cast(b.column("prev_date"), pa.int64()),
        )
        return pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("o_orderkey"),
                "gap_days": pc.divide(us, 86_400_000_000),
            }
        )

    return w.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def window_moving_spend(sf_dir: str):
    """3-order moving SUM/AVG of spend per customer (frame ROWS BETWEEN
    2 PRECEDING AND CURRENT ROW) — exact integer-cents frame sums."""
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    orders = with_columns(
        orders, {"tp_c": lambda b: scaled_int(b.column("o_totalprice"), 100)}
    )
    w = windowed(
        orders,
        ["o_custkey"],
        _ORDER,
        [("moving_sum", "tp_c", "msum_c", 3), ("moving_avg", "tp_c", "mv_avg_c", 3)],
    )
    return w.map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("o_orderkey"),
                "mv_sum": unscale(b.column("msum_c"), 100),
                "mv_avg_c": b.column("mv_avg_c"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


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

QUERIES = {
    "window_running_spend": window_running_spend,
    "window_order_gap_days": window_order_gap_days,
    "window_moving_spend": window_moving_spend,
}
