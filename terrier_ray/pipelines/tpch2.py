"""Second TPC-H-style query batch: the remaining queries of the reference's
hand-built workload (Q1,Q4,Q5,Q6,Q7,Q11,Q16,Q18,Q19 per
reference benchmark/runner/tpch_runner.cpp:13-27 and
test/test_util/tpch/tpch_query.cpp) that are expressible over the driver's
testdata tables, plus Q10.

Adaptations forced by the testdata schema (no ``partsupp`` table; lineitem
has no shipmode/commitdate/receiptdate; part has no container):

- Q7 / Q10 / Q14 are faithful to the reference shapes.
- Q11 keeps its plan shape (grouped SUM + HAVING against a scalar-subquery
  global fraction) but runs over ``orders`` value per customer instead of
  partsupp stock value per part.
- Q16 keeps its shape (COUNT(DISTINCT supplier) per part attribute group with
  NOT-IN style exclusions) using ``lineitem`` (l_partkey, l_suppkey) as the
  part-supplier relation.
- Q19 keeps its disjunctive-predicate join shape with (brand, size, quantity)
  range conjuncts in place of the container/shipmode terms.

Each query is its oracle SQL string, run through the SQL front-end by
``queries()``.  Float determinism: the integer-scaling recipe from tpch.py
(see its module docstring) is written verbatim in every string.
"""

from __future__ import annotations

_REV_SQL = "SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT))"

SQL = {
    "q7_volume_shipping": f"""
        SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
               YEAR(l_shipdate) AS l_year,
               {_REV_SQL} / 100.0 AS revenue
        FROM lineitem
        JOIN orders   ON l_orderkey = o_orderkey
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN customer ON o_custkey = c_custkey
        JOIN nation n1 ON s_nationkey = n1.n_nationkey
        JOIN nation n2 ON c_nationkey = n2.n_nationkey
        WHERE ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_8')
            OR (n1.n_name = 'NATION_8' AND n2.n_name = 'NATION_3'))
          AND l_shipdate BETWEEN TIMESTAMP '1996-01-01' AND TIMESTAMP '1997-12-31'
        GROUP BY supp_nation, cust_nation, l_year
    """,
    "q10_returned_items": f"""
        SELECT c_custkey, c_name,
               {_REV_SQL} / 100.0 AS revenue,
               c_acctbal, n_name
        FROM lineitem
        JOIN orders   ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN nation   ON c_nationkey = n_nationkey
        WHERE l_returnflag = 'R'
          AND o_orderdate >= TIMESTAMP '1996-10-01'
          AND o_orderdate <  TIMESTAMP '1997-01-01'
        GROUP BY c_custkey, c_name, c_acctbal, n_name
        ORDER BY {_REV_SQL} DESC, c_custkey
        LIMIT 20
    """,
    "q11_important_customers": """
        SELECT o_custkey,
               SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT)) / 100.0 AS value
        FROM orders GROUP BY o_custkey
        HAVING SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT))
               * (SELECT COUNT(DISTINCT o_custkey) FROM orders) * 2 > (
            SELECT SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT))
            FROM orders) * 3
    """,
    "q14_promo_revenue": """
        SELECT 100.0 * CAST(SUM(CASE WHEN p_type = 'PROMO'
                   THEN CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)
                   ELSE 0 END) AS DOUBLE)
               / CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)) AS DOUBLE)
               AS promo_revenue
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= TIMESTAMP '1996-09-01'
          AND l_shipdate <  TIMESTAMP '1996-10-01'
    """,
    "q16_supplier_cnt": """
        SELECT p_brand, p_type, p_size,
               COUNT(DISTINCT l_suppkey) AS supplier_cnt
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
          AND p_size IN (1, 5, 9, 13, 17, 21, 25, 29)
        GROUP BY p_brand, p_type, p_size
    """,
    "q19_disjunctive_revenue": """
        SELECT COALESCE(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100, 0) AS BIGINT)), 0) / 100.0
               AS revenue
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
           OR (p_brand = 'Brand#13' AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
           OR (p_brand = 'Brand#14' AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15)
    """,
}

SQL["cube_order_stats"] = """
    SELECT o_orderpriority, o_orderstatus, COUNT(*) AS n,
           SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT)) / 100.0 AS total
    FROM orders GROUP BY CUBE(o_orderpriority, o_orderstatus)
"""
SQL["rollup_order_stats"] = """
    SELECT o_orderpriority, o_orderstatus, COUNT(*) AS n,
           SUM(CAST(ROUND(o_totalprice * 100, 0) AS BIGINT)) / 100.0 AS total
    FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
"""
SQL["left_join_order_counts"] = """
    SELECT c_custkey, c_name, COALESCE(n_orders, 0) AS n_orders
    FROM customer LEFT JOIN (
        SELECT o_custkey, COUNT(o_orderkey) AS n_orders
        FROM orders WHERE o_orderdate < TIMESTAMP '1996-06-01'
        GROUP BY o_custkey
    ) ON c_custkey = o_custkey
"""
SQL["full_join_nation_presence"] = """
    SELECT COALESCE(s_nationkey, c_nationkey) AS nationkey,
           COALESCE(n_supp, 0) AS n_supp,
           COALESCE(n_cust, 0) AS n_cust
    FROM (SELECT s_nationkey, COUNT(s_suppkey) AS n_supp
          FROM supplier GROUP BY s_nationkey) s
    FULL OUTER JOIN
         (SELECT c_nationkey, COUNT(c_custkey) AS n_cust
          FROM customer GROUP BY c_nationkey) c
    ON s_nationkey = c_nationkey
"""

QUERIES = {
}
