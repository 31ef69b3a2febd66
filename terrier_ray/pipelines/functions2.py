"""Extended scalar-function parity: strings, date parts, trig/math, NULL
handling, scalar subquery, INTERSECT/EXCEPT, LIMIT+OFFSET, each
DuckDB-oracled.

Mirrors the reference's SQL-visible builtin surface
(src/include/execution/sql/functions/string_functions.h:17-115,
date_time_functions.h:10-110, ast/builtins.h:286-310).  Every query here
runs its oracle text through ``sql.sql``.  Trig outputs are pinned with
the integer-scaling round (libm last-ulp differences across engines).
"""

from __future__ import annotations


SQL = {
    "string_functions2": """
        SELECT p_partkey,
               LPAD(p_name, 15, '*') AS name_lpad,
               REVERSE(p_name) AS name_rev,
               STARTS_WITH(p_brand, 'Brand#1') AS brand_starts,
               STRPOS(p_name, 'a') AS pos_a,
               REPEAT(p_brand, 2) AS brand_x2,
               SPLIT_PART(p_brand, '#', 2) AS brand_num,
               LEFT(p_name, 3) AS name_left3,
               TRIM(p_name, 'ab') AS name_trim
        FROM part
    """,
    "date_functions2": """
        SELECT event_id,
               QUARTER(ts) AS q, DAY(ts) AS d, ISODOW(ts) AS idow,
               DAYOFYEAR(ts) AS doy, HOUR(ts) AS hr, MINUTE(ts) AS mi,
               EPOCH_US(ts) AS ep_us,
               ((YEAR(ts) - 1) // 100) + 1 AS century,
               YEAR(ts) // 10 AS decade
        FROM events
    """,
    "trig_functions": """
        SELECT l_orderkey, l_linenumber,
               CAST(ROUND(SIN(l_discount) * 1e9, 0) AS BIGINT) / 1e9 AS s,
               CAST(ROUND(COS(l_discount) * 1e9, 0) AS BIGINT) / 1e9 AS c,
               CAST(ROUND(TAN(l_discount) * 1e9, 0) AS BIGINT) / 1e9 AS t,
               CAST(ROUND(ATAN2(l_discount, l_tax + 1.0) * 1e9, 0) AS BIGINT) / 1e9 AS a2,
               CAST(ROUND(EXP(l_discount) * 1e9, 0) AS BIGINT) / 1e9 AS e,
               CAST(ROUND(LOG10(l_discount + 1.0) * 1e9, 0) AS BIGINT) / 1e9 AS l10,
               CEIL(l_discount * 10.0) AS ce,
               FLOOR(l_discount * 10.0) AS fl,
               CAST(SIGN(l_discount - 0.05) AS DOUBLE) AS sg
        FROM lineitem
    """,
    "null_handling": """
        SELECT l_orderkey, l_linenumber,
               NULLIF(l_discount, 0.0) AS disc_or_null,
               NULLIF(l_discount, 0.0) IS NULL AS is_free,
               COALESCE(NULLIF(l_discount, 0.0), -1.0) AS disc_filled
        FROM lineitem
    """,
    "scalar_subquery": """
        SELECT p_partkey, p_retailprice FROM part
        WHERE p_retailprice > (
            SELECT (SUM(CAST(ROUND(p_retailprice * 100, 0) AS BIGINT)) / 100.0)
                   / COUNT(*)
            FROM part)
    """,
    "intersect_nations": """
        SELECT c_nationkey FROM customer
        INTERSECT
        SELECT s_nationkey FROM supplier
    """,
    "except_sizes": """
        SELECT p_size FROM part
        EXCEPT
        SELECT c_nationkey FROM customer
    """,
    "intersect_all_nations": """
        SELECT c_nationkey FROM customer
        INTERSECT ALL
        SELECT s_nationkey FROM supplier
    """,
    "except_all_sizes": """
        SELECT p_size FROM part
        EXCEPT ALL
        SELECT c_nationkey FROM customer
    """,
    "limit_offset": """
        SELECT o_orderkey, o_totalprice FROM orders
        ORDER BY o_totalprice DESC, o_orderkey
        LIMIT 15 OFFSET 5
    """,
}
