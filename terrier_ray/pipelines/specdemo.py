"""A query written as a declarative spec (terrier_ray.api) and as SQL text.

``SPEC`` is the hand-written spec the API tests build; the driver entry
runs the oracle text through ``sql.sql``, which lowers onto the same verbs.
"""

from __future__ import annotations

#: big-ticket order count per customer nation — filter → broadcast join →
#: grouped aggregate, all as data
SPEC = {
    "scan": {"table": "orders", "columns": ["o_orderkey", "o_custkey", "o_totalprice"]},
    "ops": [
        {
            "op": "filter",
            "expr": {
                "fn": "greater",
                "args": [{"col": "o_totalprice"}, {"lit": 300000.0}],
            },
        },
        {
            "op": "join",
            "right": {"scan": {"table": "customer", "columns": ["c_custkey", "c_nationkey"]}},
            "on": ["o_custkey"],
            "right_on": ["c_custkey"],
            "broadcast": True,
        },
        {
            "op": "group_agg",
            "keys": ["c_nationkey"],
            "aggs": [["count", "o_orderkey", "n_big"]],
        },
    ],
}


SQL = {
    "spec_big_orders_by_nation": """
        SELECT c_nationkey, COUNT(o_orderkey) AS n_big
        FROM orders JOIN customer ON o_custkey = c_custkey
        WHERE o_totalprice > 300000
        GROUP BY c_nationkey
    """,
}

