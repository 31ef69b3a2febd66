"""Text-analysis query entry points over the ``documents`` table.

The token-count, BPE-count and JSON-extract queries run their oracle text
through ``sql.sql``; the rest are hand-built (model, iterative or
multi-exchange work)."""

from __future__ import annotations

from terrier_ray.ops.relational import grouped_aggregate, read_table
from terrier_ray.ops.taskstate import task_fn
from terrier_ray.text.analysis import (
    LangId,
    QualityScorer,
    fingerprint_batch,
)


def quality_scores(sf_dir: str):
    """Quality heuristics (stopword set is cheap state → stateless task fn,
    built once per worker process; see ops.taskstate)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        task_fn(QualityScorer), batch_format="pyarrow", batch_size=256
    )


def lang_id(sf_dir: str):
    """Heuristic n-gram language ID per document (tiny n-gram tables are
    cheap state → stateless task fn built once per worker process)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        task_fn(LangId), batch_format="pyarrow", batch_size=256
    )


def fingerprints(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True)


def term_doc_frequency(sf_dir: str, k: int = 20):
    """Top-k tokens by document frequency: per-batch distinct (doc, token)
    pairs (numpy unique — one pass, no Python token loop), map-side partial
    df combine, bucket-shuffled grouped sum, top-k.  The tokenizer is the
    index tokenizer (``[a-z0-9]+`` over lower()), mirrored exactly in the
    SQL oracle's regexp — the first fully-SQL-oracled tokenization query."""
    import numpy as np
    import pyarrow as pa

    from terrier_ray.ops.relational import topk
    from terrier_ray.text.tokenize import TOKEN_RE

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        toks, dids = [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            uniq = np.unique(np.asarray(TOKEN_RE.findall(t.lower()), dtype=object))
            toks.append(uniq)
            dids.append(np.full(len(uniq), did, dtype=np.int64))
        if not toks:
            return pa.table(
                {"token": pa.array([], type=pa.string()),
                 "doc_id": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {
                "token": pa.array(np.concatenate(toks), type=pa.string()),
                "doc_id": pa.array(np.concatenate(dids)),
            }
        )

    pairs = docs.map_batches(
        distinct_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    df = grouped_aggregate(pairs, ["token"], [("count", "doc_id", "df")])
    return topk(df, ["df", "token"], k=k, descending=[True, False])


def tfidf_top_terms(sf_dir: str, top: int = 3):
    """Per-document top-``top`` TF-IDF terms (rows-only: float scores;
    exactness is unit-tested against a direct numpy computation in
    tests/test_pipelines.py).  Two passes: (1) the distributed df aggregate
    (same plan as term_doc_frequency) collected and broadcast as a
    token→idf map — at web scale broadcast only the live query vocabulary
    or partition the df table; (2) per batch, tf from one np.unique per doc
    and a vectorized top-k select."""
    import math

    import numpy as np
    import pyarrow as pa

    from terrier_ray.text.tokenize import TOKEN_RE

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        toks, dids = [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            uniq = np.unique(np.asarray(TOKEN_RE.findall(t.lower()), dtype=object))
            toks.append(uniq)
            dids.append(np.full(len(uniq), did, dtype=np.int64))
        return pa.table(
            {
                "token": pa.array(
                    np.concatenate(toks) if toks else np.array([], dtype=object),
                    type=pa.string(),
                ),
                "doc_id": pa.array(
                    np.concatenate(dids) if dids else np.array([], dtype=np.int64)
                ),
            }
        )

    pairs = docs.map_batches(
        distinct_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    df_ds = grouped_aggregate(pairs, ["token"], [("count", "doc_id", "df")])
    df_tab = pa.concat_tables(
        df_ds.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    n_docs = docs.count()
    idf = {
        t: math.log(n_docs / d)
        for t, d in zip(
            df_tab.column("token").to_pylist(), df_tab.column("df").to_pylist()
        )
    }

    def score(batch: pa.Table) -> pa.Table:
        out_d, out_t, out_s = [], [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = np.asarray(TOKEN_RE.findall(t.lower()), dtype=object)
            if len(toks) == 0:
                continue
            uniq, cnt = np.unique(toks, return_counts=True)
            tf = cnt / len(toks)
            w = tf * np.array([idf.get(x, 0.0) for x in uniq])
            k = min(top, len(uniq))
            sel = np.argsort(-w, kind="stable")[:k]
            out_d.extend([did] * k)
            out_t.extend(uniq[sel].tolist())
            out_s.extend(w[sel].tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_d, type=pa.int64()),
                "term": pa.array(out_t, type=pa.string()),
                "tfidf": pa.array(out_s, type=pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


SQL = {
    "term_doc_frequency": """
        SELECT token, COUNT(DISTINCT doc_id) AS df
        FROM (SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
              FROM documents)
        GROUP BY token
        ORDER BY df DESC, token
        LIMIT 20
    """,
    "token_counts": r"""
        SELECT doc_id,
               LENGTH(regexp_split_to_array(TRIM(text), '\s+')) AS n_tokens
        FROM documents
        WHERE LENGTH(TRIM(text)) > 0
    """,
    "docs_by_lang": """
        SELECT lang, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars,
               CAST(ROUND(AVG(n_chars) * 10000, 0) AS BIGINT) / 10000.0 AS avg_chars
        FROM documents GROUP BY lang
    """,
    "bpe_token_counts": r"""
        SELECT doc_id,
               LENGTH(regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^\sa-zA-Z0-9]+'))
                   AS n_bpe_tokens
        FROM documents
    """,
    "json_extract_props": """
        SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k
        FROM events
    """,
}


def cm_term_counts(sf_dir: str, probes: tuple = ()):
    """Count-min point-frequency estimates for probe terms over the corpus
    token stream (ops/sketch.py cm_*: O(depth·width) mergeable state, one
    grouped sum regardless of corpus size).  Rows-only: estimates carry the
    one-sided CM error (est ≥ true; ≤ true + (e/width)·N w.h.p.) — the
    bound itself is unit-tested against exact counts."""
    import numpy as np
    import pyarrow as pa

    from terrier_ray.ops.sketch import cm_dense, cm_partials, cm_query
    from terrier_ray.ops.relational import grouped_aggregate
    from terrier_ray.text.tokenize import TOKEN_RE

    probes = list(probes) or ["table", "row", "fast", "scan", "value", "the"]
    docs = read_table(sf_dir, "documents", columns=["text"])

    def token_partials(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch.column("text").to_pylist():
            toks.extend(TOKEN_RE.findall(t.lower()))
        if not toks:
            return pa.table(
                {"__slot": pa.array([], type=pa.int64()),
                 "__count": pa.array([], type=pa.int64())}
            )
        uniq, cnt = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return cm_partials(
            pa.array(uniq, type=pa.string()), weights=cnt.astype(np.int64)
        )

    partials = docs.map_batches(
        token_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    merged_ds = grouped_aggregate(partials, ["__slot"], [("sum", "__count", "__count")])
    merged = pa.concat_tables(
        merged_ds.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    mat = cm_dense(merged)
    probe_arr = pa.array(probes, type=pa.string())
    return pa.table(
        {"term": probe_arr, "est_count": pa.array(cm_query(mat, probe_arr))}
    )


def lm_quality_scores(sf_dir: str):
    """Char-trigram LM quality scores (text/lm.py: train once on a
    deterministic 5% hash sample — fixed-size model broadcast via ray.put —
    then one vectorized scoring pass).  Rows-only: float scores; ranking
    behavior and exactness vs a naive per-doc computation are unit-tested."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    from terrier_ray.text.lm import lm_quality

    return lm_quality(docs)
