"""Third scalar-function parity batch, closing the reference's SQL-visible
builtin list (/root/reference/src/include/execution/sql/functions/
string_functions.h:17-115 ascii/chr/rpad/ltrim/rtrim/right;
date_time_functions.h:10-110 second/millisecond/microseconds;
ast/builtins.h:286-310 cot/truncate/log2/cbrt/asin/acos).

Same contracts as functions2.py: every query runs its oracle text through
``sql.sql``, DuckDB-oracled with identical column names; libm-backed
outputs pinned with the integer-scaling round.  DuckDB date-part semantics
are Postgres-style composites (MILLISECOND = s*1000+ms) — mirrored exactly.
initcap and hyperbolics are omitted: DuckDB has no INITCAP/SINH to oracle
against (arrow's utf8_title covers the initcap use case).
"""

from __future__ import annotations


SQL = {
    "string_functions3": """
        SELECT p_partkey,
               ASCII(p_name) AS ascii_name,
               CHR(65 + CAST(p_partkey % 26 AS INTEGER)) AS chr_key,
               RPAD(p_name, 15, '*') AS name_rpad,
               LTRIM(p_name, 'pat') AS name_ltrim,
               RTRIM(p_name, '0123456789') AS name_rtrim,
               RIGHT(p_name, 3) AS name_right3
        FROM part
    """,
    "date_functions3": """
        SELECT event_id,
               SECOND(ts) AS sec,
               MILLISECOND(ts) AS ms_pg,
               MICROSECOND(ts) AS us_pg
        FROM events
    """,
    "math_functions3": """
        SELECT l_orderkey, l_linenumber,
               CAST(ROUND(COT(l_discount + 0.5) * 1e9, 0) AS BIGINT) / 1e9 AS ct,
               CAST(TRUNC(l_tax * 100.0) AS DOUBLE) AS tr,
               CAST(ROUND(LOG2(l_discount + 1.0) * 1e9, 0) AS BIGINT) / 1e9 AS l2,
               CAST(ROUND(CBRT(l_tax + 1.0) * 1e9, 0) AS BIGINT) / 1e9 AS cb,
               CAST(ROUND(ASIN(l_discount) * 1e9, 0) AS BIGINT) / 1e9 AS asn,
               CAST(ROUND(ACOS(l_discount) * 1e9, 0) AS BIGINT) / 1e9 AS acs
        FROM lineitem
    """,
}
