"""Sampling query suite (DuckDB-oracled where expressible).

Deterministic per-source mixture, stratified and budget-packing samples
(`ops/sample.py`, `ops/packing.py`); each SQL oracle runs the identical
modular-hash arithmetic.  The Bernoulli, fixed-n and bloom semi-join
queries run their oracle text through ``sql.sql``.
"""

from __future__ import annotations

from terrier_ray.ops.relational import read_table


def mixture_sample_documents(sf_dir: str):
    """Pretraining data mixing: per-source deterministic sampling rates
    over the documents table (keep-all src0, taper src1-src3, thin the
    long tail to 10%).  SQL mirror = same hash arithmetic + CASE."""
    from terrier_ray.ops.sample import mixture_sample

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return mixture_sample(
        docs,
        "source",
        "doc_id",
        {"src0": 1000, "src1": 750, "src2": 500, "src3": 250},
        default_permil=100,
    )


def stratified_sample_documents(sf_dir: str, n_per_source: int = 5):
    """Exactly-n-per-source eval subset (per-stratum hash-rank top-n)."""
    from terrier_ray.ops.sample import stratified_sample

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return stratified_sample(docs, "source", "doc_id", n_per_source)


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
    "stratified_sample_documents": stratified_sample_documents,
    "mixture_sample_documents": mixture_sample_documents,
    "pack_documents": pack_documents,
}
