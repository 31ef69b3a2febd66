"""Sampling query suite (DuckDB-oracled where expressible).

Deterministic per-source mixture, stratified and budget-packing samples;
each SQL oracle runs the identical modular-hash arithmetic.  Every oracled
query here runs its oracle text through ``sql.sql``; sequence packing
(``ops/packing.py``) is iterative and stays hand-built.
"""

from __future__ import annotations

from terrier_ray.ops.relational import read_table


def pack_documents(sf_dir: str, budget: int = 1500):
    """Sequence packing: greedy FFD of documents into ``budget``-char bins
    (n_chars as the token-length proxy), hash-bucketed for determinism and
    scale (ops/packing.py).  Rows-only: bin assignment is an iterative
    algorithm, not SQL-expressible; invariants are unit-tested."""
    from terrier_ray.ops.packing import pack_bins

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return pack_bins(docs, "doc_id", "n_chars", budget=budget)


SQL = {
    "stratified_sample_documents": """
        SELECT doc_id, source FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source
            ORDER BY (((doc_id % 1000003) * 2654435761) % 1000000007)
                     * 2147483648 + (doc_id % 2147483648)
        ) <= 5
    """,
    "mixture_sample_documents": """
        SELECT doc_id, source FROM documents
        WHERE ((doc_id % 1000003) * 2654435761) % 1000 <
              CASE source
                   WHEN 'src0' THEN 1000
                   WHEN 'src1' THEN 750
                   WHEN 'src2' THEN 500
                   WHEN 'src3' THEN 250
                   ELSE 100
              END
    """,
    "sample_bernoulli_customers": """
        SELECT c_custkey, c_mktsegment FROM customer
        WHERE ((c_custkey % 1000003) * 2654435761) % 1000 < 200
    """,
    "sample_fixed_orders": """
        SELECT o_orderkey, o_totalprice FROM orders
        ORDER BY ((o_orderkey % 1000003) * 2654435761) % 1000000007, o_orderkey
        LIMIT 100
    """,
    "bloom_semi_join_urgent": """
        SELECT c_custkey, c_name FROM customer
        WHERE EXISTS (SELECT 1 FROM orders
                      WHERE o_custkey = c_custkey
                        AND o_orderpriority = '1-URGENT')
    """,
}

QUERIES = {
    "pack_documents": pack_documents,
}
