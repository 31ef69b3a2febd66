"""Order-statistics aggregate queries (DuckDB-oracled): exact grouped
median / percentile and ordered STRING_AGG, via ``ops.orderagg``.  The
MEDIAN / QUANTILE_CONT / ordered STRING_AGG oracle texts do not parse in
the SQL front-end; PERCENTILE_DISC and DENSE_RANK run through ``sql.sql``."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.orderagg import grouped_quantile, grouped_string_agg
from terrier_ray.ops.relational import read_table, scaled_int, with_columns


def _orders_cents(sf_dir: str):
    orders = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    return with_columns(
        orders, {"tp_c": lambda b: scaled_int(b.column("o_totalprice"), 100)}
    )


def median_order_value(sf_dir: str):
    """Exact MEDIAN(o_totalprice) per priority (integer-cents inputs)."""
    w = grouped_quantile(
        _orders_cents(sf_dir), ["o_orderpriority"], "tp_c", 0.5, "median_c"
    )
    return w.map_batches(
        lambda b: pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "median_price": pc.divide(b.column("median_c"), 100.0),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def p90_order_value(sf_dir: str):
    """Exact PERCENTILE_CONT(0.9) per priority — interpolated position."""
    w = grouped_quantile(
        _orders_cents(sf_dir), ["o_orderpriority"], "tp_c", 0.9, "p90_c"
    )
    return w.map_batches(
        lambda b: pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "p90_price": pc.divide(b.column("p90_c"), 100.0),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def nations_csv(sf_dir: str):
    """STRING_AGG(n_name, ',' ORDER BY n_name) per region."""
    nation = read_table(sf_dir, "nation", columns=["n_regionkey", "n_name"])
    return grouped_string_agg(
        nation, ["n_regionkey"], "n_name", ",", "names", num_partitions=4
    )


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
    "median_order_value": median_order_value,
    "p90_order_value": p90_order_value,
    "nations_csv": nations_csv,
    "approx_percentiles_order_value": approx_percentiles_order_value,
}
