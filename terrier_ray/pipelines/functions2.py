"""Extended scalar-function parity: strings, date parts, trig/math, NULL
handling, scalar subquery, INTERSECT/EXCEPT, LIMIT+OFFSET, each
DuckDB-oracled.

Mirrors the reference's SQL-visible builtin surface
(src/include/execution/sql/functions/string_functions.h:17-115,
date_time_functions.h:10-110, ast/builtins.h:286-310).  The string and
date-part queries the SQL front-end cannot parse run as pyarrow.compute
pipelines here; the rest run their oracle text through ``sql.sql``.  Trig
outputs are pinned with the integer-scaling round (libm last-ulp
differences across engines).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import read_table, with_columns


def string_functions2(sf_dir: str):
    """lpad/reverse/starts_with/position/repeat/split_part/trim/left."""
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand"])
    return with_columns(
        part,
        {
            "name_lpad": lambda b: pc.utf8_lpad(b.column("p_name"), 15, "*"),
            "name_rev": lambda b: pc.utf8_reverse(b.column("p_name")),
            "brand_starts": lambda b: pc.starts_with(b.column("p_brand"), "Brand#1"),
            "pos_a": lambda b: pc.cast(
                pc.add(pc.find_substring(b.column("p_name"), "a"), 1), pa.int64()
            ),
            "brand_x2": lambda b: pc.binary_repeat(b.column("p_brand"), 2),
            "brand_num": lambda b: pc.list_element(
                pc.split_pattern(b.column("p_brand"), "#"), 1
            ),
            "name_left3": lambda b: pc.utf8_slice_codeunits(b.column("p_name"), 0, 3),
            "name_trim": lambda b: pc.utf8_trim(b.column("p_name"), "ab"),
        },
    ).select_columns(
        [
            "p_partkey",
            "name_lpad",
            "name_rev",
            "brand_starts",
            "pos_a",
            "brand_x2",
            "brand_num",
            "name_left3",
            "name_trim",
        ]
    )


def date_functions2(sf_dir: str):
    """quarter/day/isodow/dayofyear/hour/minute/epoch_us + century/decade."""
    ev = read_table(sf_dir, "events", columns=["event_id", "ts"])
    return with_columns(
        ev,
        {
            "q": lambda b: pc.cast(pc.quarter(b.column("ts")), pa.int64()),
            "d": lambda b: pc.cast(pc.day(b.column("ts")), pa.int64()),
            "idow": lambda b: pc.cast(
                pc.day_of_week(b.column("ts"), count_from_zero=False, week_start=1),
                pa.int64(),
            ),
            "doy": lambda b: pc.cast(pc.day_of_year(b.column("ts")), pa.int64()),
            "hr": lambda b: pc.cast(pc.hour(b.column("ts")), pa.int64()),
            "mi": lambda b: pc.cast(pc.minute(b.column("ts")), pa.int64()),
            "ep_us": lambda b: pc.cast(b.column("ts"), pa.int64()),
            "century": lambda b: pc.cast(
                pc.add(pc.divide(pc.subtract(pc.year(b.column("ts")), 1), 100), 1),
                pa.int64(),
            ),
            "decade": lambda b: pc.cast(
                pc.divide(pc.year(b.column("ts")), 10), pa.int64()
            ),
        },
    ).select_columns(
        ["event_id", "q", "d", "idow", "doy", "hr", "mi", "ep_us", "century", "decade"]
    )


QUERIES = {
    "string_functions2": string_functions2,
    "date_functions2": date_functions2,
}

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
