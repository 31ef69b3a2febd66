"""TPC-H-style relational query suite over the driver's testdata tables.

Each query is its DuckDB oracle SQL string (``SQL[name]``); ``queries()``
runs that same text through the SQL front-end (``terrier_ray.sql.sql``), so
the driver's row-count/schema/value-hash gate compares the front-end
end-to-end against DuckDB.

Reference workload analog: the reference ships hand-built TPC-H plans for
Q1,Q4,Q5,Q6,Q7,Q11,Q16,Q18,Q19 (reference test/test_util/tpch/
tpch_query.cpp; runner benchmark/runner/tpch_runner.cpp:13-27).

Float determinism recipe (verbatim in every string): every float SUM is
computed over ``CAST(ROUND(term*scale,0) AS BIGINT)`` fixed-point integers
(exact in any summation order) and divided once by the scale; every
AVG/derived float is rounded via the same integer scaling — plain
``ROUND(x, d)`` yields 1-ulp-different doubles across engines and WILL fail
a value-hash.
"""

from __future__ import annotations

SQL: dict[str, str] = {
    "q1_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)) / 100.0 AS sum_base_price,
               SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) / 100.0 AS sum_disc_price,
               SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 100, 0) AS BIGINT)) / 100.0 AS sum_charge,
               CAST(ROUND((SUM(l_quantity) / COUNT(*)) * 10000, 0) AS BIGINT) / 10000.0 AS avg_qty,
               COUNT(*) AS count_order,
               CAST(ROUND(((SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)) / 100.0) / COUNT(*)) * 10000, 0) AS BIGINT) / 10000.0 AS avg_price,
               CAST(ROUND(((SUM(CAST(ROUND(l_discount * 10000, 0) AS BIGINT)) / 10000.0) / COUNT(*)) * 1000000, 0) AS BIGINT) / 1000000.0 AS avg_disc
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    "q6_forecast_revenue": """
        SELECT SUM(CAST(ROUND(l_extendedprice * l_discount * 100, 0) AS BIGINT)) / 100.0 AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    "q3_shipping_priority": """
        SELECT l_orderkey,
               SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) / 100.0 AS revenue,
               o_orderdate, o_orderpriority
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1998-01-01'
          AND l_shipdate > TIMESTAMP '1998-01-01'
        GROUP BY l_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue DESC, o_orderdate, l_orderkey
        LIMIT 10
    """,
    "q5_local_supplier_volume": """
        SELECT n_name,
               SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) / 100.0 AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY n_name
    """,
    "q4_order_priority": """
        SELECT o_orderpriority, COUNT(*) AS order_count
        FROM (
            SELECT DISTINCT o_orderkey AS l_orderkey, o_orderpriority
            FROM orders JOIN lineitem ON l_orderkey = o_orderkey
            WHERE o_orderdate >= TIMESTAMP '1996-07-01'
              AND o_orderdate < TIMESTAMP '1996-10-01'
              AND l_shipdate > o_orderdate
        )
        GROUP BY o_orderpriority
    """,
    "q18_large_volume": """
        SELECT l_orderkey, o_orderdate, o_totalprice, sum_qty
        FROM (
            SELECT l_orderkey, SUM(l_quantity) AS sum_qty
            FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > 300
        ) q JOIN orders ON l_orderkey = o_orderkey
        ORDER BY o_totalprice DESC, l_orderkey
        LIMIT 20
    """,
    "top10_orders": """
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM orders
        ORDER BY o_totalprice DESC, o_orderkey
        LIMIT 10
    """,
    "distinct_segments": "SELECT DISTINCT c_mktsegment FROM customer",
    "string_functions": """
        SELECT p_partkey, UPPER(p_name) AS name_upper,
               LENGTH(p_name) AS name_len,
               SUBSTR(p_type, 1, 4) AS type_prefix,
               CONCAT(p_brand, '-', CAST(p_size AS VARCHAR)) AS brand_size
        FROM part WHERE p_size > 25
    """,
    "like_filter": """
        SELECT p_partkey, p_name, p_type FROM part
        WHERE p_name LIKE '%ab%' OR p_type LIKE 'ECONO%'
    """,
    "date_functions": """
        SELECT YEAR(o_orderdate) AS yr, MONTH(o_orderdate) AS mo,
               COUNT(*) AS n_orders,
               SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT)) / 100.0 AS total
        FROM orders GROUP BY yr, mo
    """,
    "events_hourly": """
        SELECT event_type, DATE_TRUNC('hour', ts) AS hour_ts,
               COUNT(*) AS n,
               SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) / 100.0 AS total_value
        FROM events GROUP BY event_type, hour_ts
    """,
    "case_expression": """
        SELECT o_orderkey,
               CASE WHEN o_totalprice > 400000 THEN 'big'
                    WHEN o_totalprice > 150000 THEN 'mid'
                    ELSE 'small' END AS size_class
        FROM orders
    """,
    "semi_join_urgent": """
        SELECT c_custkey, c_name FROM customer
        WHERE EXISTS (SELECT 1 FROM orders
                      WHERE o_custkey = c_custkey
                        AND o_orderpriority = '1-URGENT')
    """,
    "anti_join_no_urgent": """
        SELECT c_custkey FROM customer
        WHERE NOT EXISTS (SELECT 1 FROM orders
                          WHERE o_custkey = c_custkey
                            AND o_orderpriority = '1-URGENT')
    """,
    "union_names": """
        SELECT c_name AS name FROM customer
        UNION ALL
        SELECT s_name AS name FROM supplier
    """,
    "count_distinct_segments": """
        SELECT c_nationkey, COUNT(DISTINCT c_mktsegment) AS n_segments
        FROM customer GROUP BY c_nationkey
    """,
    "nation_balance_stats": """
        SELECT c_nationkey,
               MIN(c_acctbal) AS min_bal,
               MAX(c_acctbal) AS max_bal,
               COUNT(*) AS n,
               CAST(ROUND(((SUM(CAST(ROUND(c_acctbal * 100, 0) AS BIGINT)) / 100.0) / COUNT(*)) * 10000, 0) AS BIGINT) / 10000.0 AS avg_bal
        FROM customer GROUP BY c_nationkey
    """,
    "lineitem_global_stats": """
        SELECT COUNT(*) AS n,
               SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)) / 100.0 AS total_price,
               CAST(ROUND((SUM(l_quantity) / COUNT(*)) * 10000, 0) AS BIGINT) / 10000.0 AS avg_qty,
               MIN(l_extendedprice) AS min_price,
               MAX(l_extendedprice) AS max_price
        FROM lineitem
    """,
}
