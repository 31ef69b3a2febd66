"""Corpus-selection operators for training-data pipelines.

Beyond-reference surfaces (like pipelines/hygiene.py — the reference has no
curation tier; these extend SURVEY §2's LLM-pipeline operators):

- ``take_until_budget``: keep the highest-value documents (by ``n_chars``,
  ties by doc_id) until a global token/char budget is exhausted — the
  "select the best N tokens" step of a data-mixing recipe, SQL-oracled
  against a running-sum window.
- ``duplicated_ngram_stats``: per-document count of word-5-gram instances
  whose gram also occurs in ANOTHER document — the corpus-internal
  repeated-substring signal of Lee et al., "Deduplicating Training Data
  Makes Language Models Better" (2022), reduced to fixed-length n-grams.

Scale posture is the point of both:

- A naive budget cut is a GLOBAL SORT + prefix scan over every row.  Here
  it is (1) one tiny grouped count by ``n_chars`` value (NDV ≤ max doc
  length, corpus-size-independent) from which the driver derives the exact
  budget arithmetic, and (2) one hash-partitioned window pass
  (ROW_NUMBER within each n_chars value) — the running sum of any row is
  ``prefix_above[value] + rank_within_value * value``, so no global order
  is ever imposed.
- The n-gram pass is ONE gram-keyed exchange: each hash bucket sees all
  instances of its grams, so document frequency, the dup flag, and the
  per-document PARTIAL sums all happen inside the bucket task; only
  doc-level partials (two ints per doc per bucket) reach the final small
  groupby.  At 1e12 docs you would exchange a 16-byte gram hash instead of
  the gram string (same plan, constant-factor cheaper); the oracled entry
  keys on the string so the DuckDB comparison is exact by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from terrier_ray.ops.relational import (
    _multi_key_bucket,
    grouped_aggregate,
    read_table,
)

#: Budget for take_until_budget, as an integer fraction of total corpus
#: chars (3/10) — scale-invariant, mirrored verbatim in the SQL oracle.
_BUDGET_NUM, _BUDGET_DEN = 3, 10


def take_until_budget(sf_dir: str):
    """Keep documents in (n_chars DESC, doc_id ASC) order while the running
    total of ``n_chars`` stays within 3/10 of the corpus total.

    Returns (doc_id, n_chars, cum_chars) for every kept document, where
    cum_chars is the SQL running sum ``SUM(n_chars) OVER (ORDER BY n_chars
    DESC, doc_id)`` — computed distributedly as prefix_above + rank*value
    (see module docstring), integer arithmetic end to end.
    """
    import ray

    from terrier_ray.ops.window import windowed

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    docs = docs.materialize()  # consumed twice (histogram + window pass)

    hist = pa.concat_tables(
        grouped_aggregate(
            docs, ["n_chars"], [("count", "doc_id", "n_docs")]
        ).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    vals = hist.column("n_chars").to_numpy(zero_copy_only=False)
    cnts = hist.column("n_docs").to_numpy(zero_copy_only=False)
    order = np.argsort(-vals)  # values are distinct post-groupby
    vals, cnts = vals[order], cnts[order]
    mass = vals * cnts
    total = int(mass.sum())
    budget = (_BUDGET_NUM * total) // _BUDGET_DEN
    # prefix_above[i] = total chars of all docs with n_chars > vals[i]
    prefix_above = np.concatenate(([0], np.cumsum(mass)[:-1]))
    # ascending copies for the vectorized searchsorted lookup inside tasks
    lut_vals = vals[::-1].copy()
    lut_prefix = prefix_above[::-1].copy()
    lut_ref = ray.put((lut_vals, lut_prefix, budget))

    ranked = windowed(
        docs, ["n_chars"], ["doc_id"], [("row_number", None, "__rn")]
    )

    def finish(batch: pa.Table) -> pa.Table:
        lv, lp, b = ray.get(lut_ref)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        rn = batch.column("__rn").to_numpy(zero_copy_only=False)
        cum = lp[np.searchsorted(lv, nc)] + rn * nc
        keep = cum <= b
        out = batch.drop_columns(["__rn"]).filter(pa.array(keep))
        return out.append_column("cum_chars", pa.array(cum[keep]))

    return ranked.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


_NGRAM_N = 5


def _gram_stream(batch: pa.Table, n: int) -> pa.Table:
    """(doc_id, gram) for every word-n-gram instance in the batch — one
    vectorized pass over all docs' concatenated words with doc-boundary
    grams masked out (the top_bigrams kernel generalized to n)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    words_per = [t.split(" ") for t in texts]
    lens = np.array([len(w) for w in words_per], dtype=np.int64)
    empty = pa.table(
        {"doc_id": pa.array([], type=pa.int64()),
         "gram": pa.array([], type=pa.string())}
    )
    if lens.sum() < n:
        return empty
    all_w = np.asarray([w for ws in words_per for w in ws], dtype=object)
    grams = all_w[: len(all_w) - n + 1]
    for i in range(1, n):
        grams = grams + " " + all_w[i : len(all_w) - n + 1 + i]
    # a gram starting at global offset j belongs to the doc iff it does not
    # straddle that doc's end: j + n <= doc_end
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    ends = np.cumsum(lens)
    j = np.arange(len(grams), dtype=np.int64)
    doc_idx = np.searchsorted(ends, j, side="right")
    valid = j + n <= ends[doc_idx]
    if not valid.any():
        return empty
    return pa.table(
        {
            "doc_id": pa.array(ids[doc_idx[valid]]),
            "gram": pa.array(grams[valid], type=pa.string()),
        }
    )


def duplicated_ngram_stats(sf_dir: str, n: int = _NGRAM_N, num_partitions: int = 32):
    """Per-document duplicated-n-gram counts: n_grams = total word-n-gram
    instances, n_dup_grams = instances whose gram occurs in >= 2 DISTINCT
    documents corpus-wide.  Docs with fewer than n words yield no row
    (no grams), matching the SQL oracle's join semantics.

    One gram-keyed bucket exchange; document frequency, the dup flag and
    per-doc partial sums are all computed inside the bucket task (arrow
    group_by + join), so the second shuffle carries only doc partials.
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def emit(batch: pa.Table) -> pa.Table:
        g = _gram_stream(batch, n)
        return g.append_column(
            "__gbucket", pa.array(_multi_key_bucket(g, ["gram"], num_partitions))
        )

    grams = docs.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_stats(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["__gbucket"])
        # instances per (gram, doc) — keys-first column order (see CLAUDE.md)
        per_doc = t.group_by(["gram", "doc_id"]).aggregate([([], "count_all")])
        per_doc = per_doc.rename_columns(["gram", "doc_id", "cnt"])
        nd = per_doc.group_by("gram").aggregate([("doc_id", "count")])
        nd = nd.rename_columns(["gram", "nd"])
        joined = per_doc.join(nd, keys="gram")
        cnt = joined.column("cnt").to_numpy(zero_copy_only=False)
        dup = joined.column("nd").to_numpy(zero_copy_only=False) >= 2
        part = pa.table(
            {
                "doc_id": joined.column("doc_id"),
                "g": pa.array(cnt),
                "d": pa.array(np.where(dup, cnt, 0)),
            }
        )
        out = part.group_by("doc_id").aggregate([("g", "sum"), ("d", "sum")])
        return out.rename_columns(["doc_id", "g", "d"])

    partials = grams.groupby("__gbucket").map_groups(
        bucket_stats, batch_format="pyarrow"
    )
    return grouped_aggregate(
        partials,
        ["doc_id"],
        [("sum", "g", "n_grams"), ("sum", "d", "n_dup_grams")],
    )


QUERIES = {
    "take_until_budget": take_until_budget,
    "duplicated_ngram_stats": duplicated_ngram_stats,
}

SQL = {
    "take_until_budget": f"""
        WITH ranked AS (
            SELECT doc_id, n_chars,
                   CAST(SUM(n_chars) OVER (ORDER BY n_chars DESC, doc_id)
                        AS BIGINT) AS cum_chars
            FROM documents
        )
        SELECT doc_id, n_chars, cum_chars FROM ranked
        WHERE cum_chars <= ({_BUDGET_NUM} * (SELECT SUM(n_chars)
                                             FROM documents)) // {_BUDGET_DEN}
    """,
    "duplicated_ngram_stats": f"""
        WITH w AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), g AS (
            SELECT doc_id,
                   array_to_string(list_slice(w, i, i + {_NGRAM_N - 1}), ' ')
                       AS gram
            FROM w, unnest(range(1, len(w) - {_NGRAM_N - 2})) AS t(i)
        ), df AS (
            SELECT gram, COUNT(DISTINCT doc_id) AS nd FROM g GROUP BY gram
        )
        SELECT g.doc_id, COUNT(*) AS n_grams,
               CAST(SUM(CASE WHEN df.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_dup_grams
        FROM g JOIN df USING (gram)
        GROUP BY g.doc_id
    """,
}
