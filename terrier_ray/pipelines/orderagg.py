"""Order-statistics aggregate queries (DuckDB-oracled): exact grouped
median / percentile and ordered STRING_AGG.  Each oracle text runs through
``sql.sql``, whose ordered-set aggregates lower onto
``ops.orderagg.grouped_quantiles``; the t-digest estimate is hand-built."""

from __future__ import annotations


def approx_percentiles_order_value(sf_dir: str):
    """t-digest approximate p50/p90/p99 of o_totalprice (rows-only: the
    estimate is approximate by design; the error bound is unit-tested in
    tests/test_sketch.py and the exact counterparts are the oracled
    median_order_value / p90_order_value).  Only O(δ) centroid summaries
    ever leave a block — the 1e12-row percentile path."""
    import pyarrow as pa

    from terrier_ray.ops.relational import read_table
    from terrier_ray.ops.sketch import approx_percentile

    orders = read_table(sf_dir, "orders", columns=["o_totalprice"])
    qs = [0.5, 0.9, 0.99]
    est = approx_percentile(orders, "o_totalprice", qs)
    return pa.table({"q": pa.array(qs), "approx_value": pa.array(est)})


SQL = {
    "sql_percentile_within_group": """
        SELECT o_orderpriority,
               PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY tp_c) / 100.0
                   AS median_price,
               PERCENTILE_CONT(0.9) WITHIN GROUP (ORDER BY tp_c) AS p90_c,
               PERCENTILE_DISC(0.75) WITHIN GROUP (ORDER BY tp_c) AS p75_c
        FROM (SELECT o_orderpriority,
                     CAST(ROUND(o_totalprice * 100, 0) AS BIGINT) AS tp_c
              FROM orders) t
        GROUP BY o_orderpriority
""",
    "p75_disc_order_value": """
        SELECT o_orderpriority,
               PERCENTILE_DISC(0.75) WITHIN GROUP (ORDER BY o_totalprice)
                   AS p75_price
        FROM orders GROUP BY o_orderpriority
    """,
    "median_order_value": """
        SELECT o_orderpriority,
               MEDIAN(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT)) / 100.0
                   AS median_price
        FROM orders GROUP BY o_orderpriority
    """,
    "p90_order_value": """
        SELECT o_orderpriority,
               QUANTILE_CONT(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT), 0.9) / 100.0
                   AS p90_price
        FROM orders GROUP BY o_orderpriority
    """,
    "nations_csv": """
        SELECT n_regionkey, STRING_AGG(n_name, ',' ORDER BY n_name) AS names
        FROM nation GROUP BY n_regionkey
    """,
    "window_dense_rank": """
        SELECT o_orderkey, o_orderpriority,
               DENSE_RANK() OVER (PARTITION BY o_orderpriority
                                  ORDER BY o_orderdate) AS dr
        FROM orders
    """,
}

QUERIES = {
    "approx_percentiles_order_value": approx_percentiles_order_value,
}
