"""Corpus-hygiene operators for training-data pipelines.

Beyond-reference surfaces (the reference engine has no text-curation ops;
these extend SURVEY §2's LLM-pipeline tier the same way dedup/curate do):

- benchmark decontamination, exact substring probes (SQL-oracled) and
  word-n-gram hash overlap (rows-only + unit-tested oracle),
- PII / pattern redaction (vectorized RE2; the oracled ``pii_redact``
  query runs its SQL through ``sql.sql``, and ``redact_batch`` serves the
  curation funnel),
- Gopher-style per-document repetition statistics (SQL-oracled),
- corpus-wide top-k word bigrams (SQL-oracled).

Scale posture: the benchmark side of decontamination is SMALL BY NATURE
(eval suites are MBs, the corpus is TBs) — it is collected once on the
driver, broadcast via ``ray.put``, and probed inside ``map_batches``;
the corpus side streams.  Bigram counting pre-aggregates per batch
(np.unique combiner) before the grouped sum, so the shuffle carries one
row per distinct gram per batch, never one per token.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import grouped_aggregate, read_table, topk

#: Which corpus documents stand in for "the benchmark" in the testdata
#: (deterministic, scale-invariant): every 97th doc_id.
_PROBE_MOD = 97
#: Probe snippet length for the exact-substring variant (mirrors the SQL
#: oracle's substr(text, 1, 48)).
_PROBE_LEN = 48


def _benchmark_texts(sf_dir: str) -> list[str]:
    """Collect the benchmark documents' texts (driver-side: the benchmark
    set is small by construction — see module docstring)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = (ids % _PROBE_MOD) == 0
        return batch.filter(pa.array(mask))

    hits = docs.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
    parts = list(hits.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not parts:  # no doc_id hits the probe stride → zero probes, not a crash
        return []
    tab = pa.concat_tables(parts)
    # Deterministic probe order (matches the SQL CTE's source order).
    tab = tab.sort_by("doc_id")
    return tab.column("text").to_pylist()


def decontaminate(sf_dir: str):
    """Exact-substring benchmark decontamination: flag every corpus document
    whose text contains any benchmark probe snippet.

    Probes (first ``_PROBE_LEN`` chars of each benchmark doc) are broadcast
    once via ``ray.put``; each batch runs one vectorized
    ``pc.match_substring`` pass per probe (probe count is benchmark-sized,
    not corpus-sized).  Duplicate probes count twice — the SQL oracle's
    ``COUNT(*)`` over the probes CTE has the same semantics."""
    import ray

    probes = [t[:_PROBE_LEN] for t in _benchmark_texts(sf_dir)]
    probes_ref = ray.put(probes)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def flag(batch: pa.Table) -> pa.Table:
        ps: list[str] = ray.get(probes_ref)
        text = batch.column("text")
        n_hit = np.zeros(len(batch), dtype=np.int64)
        for p in ps:
            n_hit += pc.match_substring(text, p).to_numpy(zero_copy_only=False)
        keep = n_hit > 0
        return pa.table(
            {
                "doc_id": batch.column("doc_id").filter(pa.array(keep)),
                "n_probes_hit": pa.array(n_hit[keep], type=pa.int64()),
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def decontaminate_ngram(sf_dir: str, width: int = 8):
    """Word-n-gram hash decontamination (the scale path: probes become a
    fixed-size uint64 hash set regardless of benchmark text size).

    The benchmark docs' n-gram hashes (same rolling-polynomial tokenizer
    hash as MinHash shingles — ``dedup._batch_shingle_hashes``) are
    collected, uniqued, sorted, and broadcast; each corpus batch computes
    its docs' n-gram hashes vectorized and counts distinct contaminated
    grams via ``np.isin`` against the sorted set.  Returns one row per
    contaminated doc: (doc_id, n_contaminated_ngrams).  Rows-only entry —
    exactness vs a naive token-set oracle is unit-tested."""
    import ray

    from terrier_ray.pipelines.dedup import _batch_shingle_hashes

    bench = _benchmark_texts(sf_dir)
    bench_grams = np.unique(
        np.concatenate(
            [g for g in _batch_shingle_hashes(bench, width=width)]
            or [np.empty(0, dtype=np.uint64)]
        )
    )
    grams_ref = ray.put(bench_grams)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def flag(batch: pa.Table) -> pa.Table:
        bg: np.ndarray = ray.get(grams_ref)
        texts = batch.column("text").to_pylist()
        per_doc = _batch_shingle_hashes(texts, width=width)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_id, out_n = [], []
        for did, grams in zip(ids, per_doc):
            uniq = np.unique(grams)
            n = int(np.isin(uniq, bg, assume_unique=True).sum())
            if n:
                out_id.append(int(did))
                out_n.append(n)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "n_contaminated_ngrams": pa.array(out_n, type=pa.int64()),
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def decontaminate_filter(ds, sf_dir: str, width: int = 8):
    """Funnel-stage form of ``decontaminate_ngram``: return ``ds`` minus
    the documents sharing any ``width``-gram with the benchmark set (the
    curate pipeline composes this between its quality gate and dedup)."""
    import ray

    from terrier_ray.pipelines.dedup import _batch_shingle_hashes

    bench = _benchmark_texts(sf_dir)
    bench_grams = np.unique(
        np.concatenate(
            [g for g in _batch_shingle_hashes(bench, width=width)]
            or [np.empty(0, dtype=np.uint64)]
        )
    )
    grams_ref = ray.put(bench_grams)

    def keep(batch: pa.Table) -> pa.Table:
        bg: np.ndarray = ray.get(grams_ref)
        per_doc = _batch_shingle_hashes(batch.column("text").to_pylist(), width=width)
        mask = np.fromiter(
            (not np.isin(np.unique(g), bg, assume_unique=True).any() for g in per_doc),
            dtype=bool,
            count=len(per_doc),
        )
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


#: Redaction patterns, applied IN ORDER to the running string.  Counts are
#: taken per pattern on the ORIGINAL string (mirrored in the SQL oracle).
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("n_emails", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("n_ips", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("n_nums", r"\d[\d-]{5,}\d|\d+", "<NUM>"),
]


def redact_batch(
    col: pa.ChunkedArray | pa.Array,
    patterns: list[tuple[str, str, str]] = PII_PATTERNS,
) -> tuple[pa.ChunkedArray | pa.Array, dict[str, pa.Array]]:
    """Vectorized RE2 redaction: returns (redacted column, per-pattern
    match counts on the original column).  Both pyarrow and DuckDB compile
    these patterns with RE2, so the SQL oracle is bit-identical."""
    counts: dict[str, pa.Array] = {}
    out = col
    for name, pat, repl in patterns:
        counts[name] = pc.cast(pc.count_substring_regex(col, pat), pa.int64())
        out = pc.replace_substring_regex(out, pattern=pat, replacement=repl)
    return out, counts


def repetition_stats(sf_dir: str):
    """Gopher-style per-document repetition statistics: total words,
    distinct words, and the top single word's occurrence count (all ints —
    downstream filters derive fractions; ints keep the oracle exact).
    Word = single-space split, mirroring DuckDB's ``string_split(text, ' ')``
    including empty fields."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        texts = batch.column("text").to_pylist()
        n_words = np.empty(len(texts), dtype=np.int64)
        n_distinct = np.empty(len(texts), dtype=np.int64)
        top_cnt = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            words = np.asarray(t.split(" "), dtype=object)
            uniq, cnt = np.unique(words, return_counts=True)
            n_words[i] = len(words)
            n_distinct[i] = len(uniq)
            top_cnt[i] = cnt.max()
        return pa.table(
            {
                "doc_id": ids,
                "n_words": pa.array(n_words),
                "n_distinct_words": pa.array(n_distinct),
                "top_word_count": pa.array(top_cnt),
            }
        )

    return docs.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def top_bigrams(sf_dir: str, k: int = 20):
    """Corpus-wide top-k adjacent word bigrams.

    Per batch: ONE vectorized pass — all docs' words concatenated, bigrams
    formed by shifted elementwise concat, doc-boundary bigrams masked out,
    then a per-batch ``np.unique`` partial count (combiner) so the shuffle
    carries distinct-gram partials, not raw tokens.  Grouped sum + top-k."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        words_per = [t.split(" ") for t in texts]
        lens = np.array([len(w) for w in words_per], dtype=np.int64)
        if lens.sum() == 0:
            return pa.table(
                {"bigram": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64())}
            )
        all_w = np.asarray([w for ws in words_per for w in ws], dtype=object)
        if len(all_w) < 2:
            return pa.table(
                {"bigram": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64())}
            )
        grams = all_w[:-1] + " " + all_w[1:]
        valid = np.ones(len(grams), dtype=bool)
        ends = np.cumsum(lens)[:-1]  # bigrams straddling doc boundaries
        valid[ends - 1] = False
        uniq, cnt = np.unique(grams[valid], return_counts=True)
        return pa.table(
            {
                "bigram": pa.array(uniq, type=pa.string()),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    partials = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = grouped_aggregate(partials, ["bigram"], [("sum", "n", "n")])
    return topk(summed, ["n", "bigram"], k=k, descending=[True, False])


def chunk_documents(sf_dir: str, window: int = 200, stride: int = 150):
    """Overlapping fixed-size character chunks (RAG / embedding prep):
    chunk i of a doc = text[i·stride : i·stride+window], with
    n_chunks = ceil(max(len − overlap, 1) / stride) so every doc (even an
    empty one) yields ≥ 1 chunk and the last window reaches the tail.

    Vectorized per CHUNK INDEX, not per row: one ``utf8_slice_codeunits``
    kernel pass per i over the docs long enough to have an i-th chunk —
    max-chunks passes per batch, zero Python row loops.  Slicing is by
    codepoint on both sides (substr in DuckDB, utf8 slice here), identical
    on any text."""
    overlap = window - stride
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        L = pc.utf8_length(text).to_numpy(zero_copy_only=False)
        n = np.ceil(np.maximum(L - overlap, 1) / stride).astype(np.int64)
        parts = []
        for i in range(int(n.max()) if len(n) else 0):
            m = pa.array(n > i)
            sub = batch.filter(m)
            parts.append(
                pa.table(
                    {
                        "doc_id": sub.column("doc_id"),
                        "chunk_no": pa.array(
                            np.full(sub.num_rows, i, dtype=np.int64)
                        ),
                        "chunk": pc.utf8_slice_codeunits(
                            sub.column("text"), i * stride, i * stride + window
                        ),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "chunk_no": pa.array([], type=pa.int64()),
                    "chunk": pa.array([], type=pa.string()),
                }
            )
        return pa.concat_tables(parts)

    return docs.map_batches(chunks, batch_format="pyarrow", zero_copy_batch=True)


QUERIES = {
    "decontaminate": decontaminate,
    "chunk_documents": chunk_documents,
    "decontaminate_ngram": decontaminate_ngram,
    "repetition_stats": repetition_stats,
    "top_bigrams": top_bigrams,
}

SQL = {
    "chunk_documents": """
        SELECT doc_id, CAST(i AS BIGINT) AS chunk_no,
               substr(text, 1 + i*150, 200) AS chunk
        FROM documents,
             unnest(range(0, CAST(ceil(greatest(length(text) - 50, 1)
                                       / 150.0) AS BIGINT))) AS t(i)
    """,
    "decontaminate": f"""
        WITH probes AS (
            SELECT substr(text, 1, {_PROBE_LEN}) AS p
            FROM documents WHERE doc_id % {_PROBE_MOD} = 0
        )
        SELECT d.doc_id,
               (SELECT COUNT(*) FROM probes WHERE contains(d.text, p))
                   AS n_probes_hit
        FROM documents d
        WHERE EXISTS (SELECT 1 FROM probes WHERE contains(d.text, p))
    """,
    "pii_redact": r"""
        SELECT event_id,
               regexp_replace(regexp_replace(regexp_replace(props,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                   '<EMAIL>', 'g'),
                   '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
                   '\d[\d-]{5,}\d|\d+', '<NUM>', 'g') AS props_redacted,
               CAST(len(regexp_extract_all(props,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                   AS BIGINT) AS n_emails,
               CAST(len(regexp_extract_all(props,
                   '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))
                   AS BIGINT) AS n_ips,
               CAST(len(regexp_extract_all(props, '\d[\d-]{5,}\d|\d+'))
                   AS BIGINT) AS n_nums
        FROM events
    """,
    "repetition_stats": """
        WITH words AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS w
            FROM documents
        ), wc AS (
            SELECT doc_id, w, COUNT(*) AS c FROM words GROUP BY doc_id, w
        )
        SELECT doc_id,
               CAST(SUM(c) AS BIGINT) AS n_words,
               COUNT(*) AS n_distinct_words,
               CAST(MAX(c) AS BIGINT) AS top_word_count
        FROM wc GROUP BY doc_id
    """,
    "top_bigrams": """
        WITH ws AS (SELECT string_split(text, ' ') AS w FROM documents),
        grams AS (
            SELECT unnest(list_zip(w[:len(w)-1], w[2:])) AS z FROM ws
        )
        SELECT z[1] || ' ' || z[2] AS bigram, COUNT(*) AS n
        FROM grams GROUP BY bigram
        ORDER BY n DESC, bigram LIMIT 20
    """,
}
