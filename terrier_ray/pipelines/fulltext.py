"""Flagship pipeline: webtext → inverted index → BM25 top-k (north rule).

The webtext corpus is synthesized deterministically per scale factor (no
external data; see terrier_ray/datagen/webtext.py) and the index is cached
under /tmp keyed by corpus — repeat calls reuse the built index via the
epoch manifests.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from terrier_ray.datagen.webtext import generate_queries, webtext_for_sf
from terrier_ray.index.bm25 import BM25Scorer, hits_table
from terrier_ray.index.build import build_index

INDEX_ROOT = "/tmp/terrier_ray_index"


def ensure_index(sf_dir: str, **kwargs) -> str:
    web = webtext_for_sf(sf_dir)
    name = os.path.basename(web.rstrip("/"))
    field = kwargs.get("field", "body")
    if field != "body":  # per-field indexes live side by side (BM25F)
        name = f"{name}-{field}"
    if kwargs.get("positions"):  # positional build = separate cached layout
        name = f"{name}-pos"
    idx_dir = os.path.join(INDEX_ROOT, name)
    build_index(web, idx_dir, **kwargs)
    return idx_dir


def bm25_topk(sf_dir: str, k: int = 10, num_queries: int = 20):
    """Build (or reuse) the index for this sf and run the query set through a
    BM25Scorer actor pool → (query_id, rank, docid, score)."""
    import ray.data as rd

    idx_dir = ensure_index(sf_dir)
    queries = generate_queries(num_queries)
    ds = rd.from_arrow(queries).repartition(4)
    return ds.map_batches(
        BM25Scorer,
        batch_format="pyarrow",
        batch_size=8,
        concurrency=2,
        fn_constructor_kwargs={"index_dir": idx_dir, "k": k},
    )


def bm25_topk_distributed(sf_dir: str, k: int = 10, num_queries: int = 20):
    """Distributed BM25 = SHARD-SIDE scoring (``DistributedBM25``):
    docid-range tasks score with their local doclens and return partial
    top-k; the caller merges k-lists (sorter.cpp:424-430 analog).  Decoded
    postings never transit to the caller.  Rank-AND-score-identical to
    bm25_topk."""
    return _sharded_topk(sf_dir, k, num_queries, num_shards=None)


def bm25_topk_sharded(sf_dir: str, k: int = 10, num_queries: int = 20):
    """``bm25_topk_distributed`` split into at least four docid ranges."""
    return _sharded_topk(sf_dir, k, num_queries, num_shards=4)


def _sharded_topk(sf_dir: str, k: int, num_queries: int, num_shards):
    from terrier_ray.index.bm25 import DistributedBM25

    queries = generate_queries(num_queries)
    res = DistributedBM25(ensure_index(sf_dir)).search_many(
        queries.column("text").to_pylist(), k=k, num_shards=num_shards
    )
    return hits_table(zip(queries.column("query_id").to_pylist(), res))


def boolean_matches(sf_dir: str, num_queries: int = 10):
    """Unranked boolean retrieval over the same inverted index: for each
    generated query "t1 t2 t3 ..." run MUST=t1 ∧ SHOULD=(t2|t3) ∧ NOT=last
    term; returns (query_id, docid) match rows (rows-only: verified exactly
    vs a naive corpus scan in tests/test_index_bm25.py)."""
    from terrier_ray.index.bm25 import BM25Index

    idx_dir = ensure_index(sf_dir)
    idx = BM25Index(idx_dir)
    queries = generate_queries(num_queries)
    qids, docids = [], []
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        terms = text.split()
        hits = idx.search_boolean(
            must=terms[:1],
            should=terms[1:3] or None,
            must_not=terms[3:4] or None,
        )
        qids.extend([qid] * len(hits))
        docids.extend(int(d) for d in hits)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int32()),
            "docid": pa.array(docids, type=pa.int64()),
        }
    )


def bm25f_topk(
    sf_dir: str,
    k: int = 10,
    num_queries: int = 20,
    w_title: float = 2.0,
    w_body: float = 1.0,
):
    """Multi-field ranked retrieval (BM25F weighted-field-sum variant, the
    Elasticsearch multi_match "most_fields" shape):

        score(q, d) = w_title * BM25_title(q, d) + w_body * BM25_body(q, d)

    over TWO per-field inverted indexes that share url-hash docids — the
    title index is the same distributed build with
    ``extract_title_reference`` as the extraction stage (build_index
    field="title").  Each field's BM25 is the pinned formula; combination
    is float64 in (title, body) chunk order via the same element-order
    ``np.add.at`` discipline as ``BM25Index.search``, so scores are
    bit-identical to the scalar two-oracle mirror (tests/test_multifield.py).
    Rank: combined score desc, docid asc.  Rows-only entry (BM25 is not
    SQL-expressible)."""
    from terrier_ray.index.bm25 import BM25Index

    idx_title = BM25Index(ensure_index(sf_dir, field="title"))
    idx_body = BM25Index(ensure_index(sf_dir))
    return bm25f_combine(
        idx_title, idx_body, generate_queries(num_queries),
        k=k, w_title=w_title, w_body=w_body,
    )


def bm25f_combine(idx_title, idx_body, queries, *, k, w_title, w_body):
    """The BM25F combination core over two open per-field index handles
    (see ``bm25f_topk`` for the pinned formula and ordering)."""
    from terrier_ray.index.bm25 import _accumulate, _topk

    per_query = []
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        dt, st = idx_title.score_all(text)
        db, sb = idx_body.score_all(text)
        # title chunk first, then body
        uniq, acc = _accumulate([dt, db], [w_title * st, w_body * sb])
        per_query.append((qid, _topk(uniq, acc, k)))
    return hits_table(per_query)


def _typo_queries(num_queries: int):
    """``generate_queries`` with ONE deterministic typo injected per query
    (delete / substitute / transpose by qid mod 3, position from a
    per-query seeded rng, never position 0 so the fuzzy prefix survives).
    Deterministic: same num_queries → same corrupted texts."""
    q = generate_queries(num_queries)
    out = []
    for qid, text in zip(
        q.column("query_id").to_pylist(), q.column("text").to_pylist()
    ):
        terms = text.split()
        rng = np.random.default_rng(1234 + qid)
        i = max(range(len(terms)), key=lambda j: (len(terms[j]), -j))
        t = terms[i]
        op = qid % 3
        pos = 1 + int(rng.integers(0, max(1, len(t) - 1)))
        if op == 0 and len(t) >= 4:  # delete
            t2 = t[:pos] + t[pos + 1 :]
        elif op == 1 and pos < len(t):  # substitute
            t2 = t[:pos] + chr(ord("a") + int(rng.integers(0, 26))) + t[pos + 1 :]
        elif pos + 1 < len(t):  # transpose
            t2 = t[:pos] + t[pos + 1] + t[pos] + t[pos + 2 :]
        else:
            t2 = t[:-1] if len(t) > 2 else t + "x"
        terms[i] = t2
        out.append(" ".join(terms))
    return pa.table(
        {"query_id": q.column("query_id"), "text": pa.array(out, pa.string())}
    )


def fuzzy_topk(
    sf_dir: str,
    k: int = 10,
    num_queries: int = 12,
    max_edits: int = 1,
    prefix_len: int = 1,
):
    """Fuzzy BM25 retrieval (Lucene FuzzyQuery analog): each query carries
    one injected typo; every query term is OR-expanded to dictionary
    variants within ``max_edits`` (OSA distance, transpositions count 1)
    sharing its first ``prefix_len`` chars, scored ``boost * idf * wd``
    with ``boost = 1 - ed/min(len(t), len(v))``.  Candidate variants come
    from a pruned term-dictionary prefix scan (no posting blobs touched
    until the surviving variants' lookups).  Rows-only entry: scores are
    bit-identical to the independent ``OracleBM25.search_fuzzy`` scalar
    loop (tests/test_fuzzy.py)."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    queries = _typo_queries(num_queries)
    return hits_table(
        (qid, idx.search_fuzzy(text, k=k, max_edits=max_edits,
                               prefix_len=prefix_len))
        for qid, text in zip(
            queries.column("query_id").to_pylist(),
            queries.column("text").to_pylist(),
        )
    )


def prefix_terms(sf_dir: str, prefix: str = "wi"):
    """Term-dictionary prefix scan (IndexScan range analog): all indexed
    terms starting with ``prefix``, with df/cf — column-pruned, predicate-
    pushed reads of the posting buckets (posting blobs never touched)."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    return idx.terms_in_range(prefix=prefix)


def terms_desc_limit(sf_dir: str, hi: str = "n", limit: int = 50):
    """Descending, limited term-dictionary scan (IndexScanType Descending /
    DescendingLimit analog, plan_node_defs.h:143-152): the ``limit``
    largest indexed terms below ``hi``, df/cf attached, bounded per posting
    bucket before the merge."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    return idx.terms_in_range(hi=hi, descending=True, limit=limit)


def index_corpus_stats(sf_dir: str):
    """Corpus-level stats of the built index (docs, postings, terms)."""
    import glob
    import json

    import pandas as pd
    import pyarrow.parquet as pq

    idx_dir = ensure_index(sf_dir)
    with open(os.path.join(idx_dir, "stats.json")) as f:
        stats = json.load(f)
    bm = pd.read_parquet(os.path.join(idx_dir, "bucket_metrics.parquet"))
    # per-bucket n_terms is DISTINCT-in-bucket; a salted heavy term spans
    # several buckets, so de-overcount from the (tiny) heavy list exactly.
    # bucket_metrics was recorded PRE-fold: folded heavy terms' overcount is
    # taken from stats['fold_dup_terms'] (exact, recorded by the fold pass
    # itself), and only the still-salted terms need the file scan.  A
    # stats.json without either field is not a servable index and raises.
    n_terms = int(bm["n_terms"].sum()) - int(stats["fold_dup_terms"])
    heavy = stats["salted_terms"]
    if heavy:
        occ, seen = 0, set()
        for f in sorted(
            glob.glob(os.path.join(idx_dir, "postings", "bucket-*.parquet"))
        ):
            t = pq.read_table(f, filters=[("term", "in", heavy)], columns=["term"])
            terms = set(t.column("term").to_pylist())
            occ += len(terms)
            seen |= terms
        n_terms = n_terms - occ + len(seen)
    return pd.DataFrame(
        {
            "n_docs": [stats["n_docs"]],
            "avgdl": [round(stats["avgdl"], 4)],
            "n_terms": [n_terms],
            "n_postings": [int(bm["n_postings"].sum())],
            "n_heavy_terms": [len(stats["heavy_terms"])],
        }
    )


def _fetch_indexed_winners(
    web: str, need: "list[int]", extra_cols: "tuple[str, ...]" = ()
):
    """ONE pruned distributed pass over the webtext corpus → the winner row
    of exactly the ``need`` docids, under the SAME winner rule the index
    build used for duplicated urls (``build._dedup_group``: per docid keep
    max (warc_ts, dl, token-hash)), so callers see the row the index
    actually scored.  docid = url hash computed per batch; the is_in filter
    against the tiny hit set is a broadcast semi join — extraction touches
    |need| docs, never the corpus.  Returns a pa.Table with docid, text,
    terms/tfs, plus ``extra_cols`` (e.g. lang for facets)."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from terrier_ray.datagen.webtext import url_doc_id
    from terrier_ray.extract.html import HtmlExtractor
    from terrier_ray.index.build import _dedup_group
    from terrier_ray.text.tokenize import Tokenizer

    need_arr = pa.array(np.asarray(sorted(need), dtype=np.int64))
    cols = ["url", "warc_ts", "html", "text", *extra_cols]
    ds = rd.read_parquet(web, columns=cols)
    extractor = HtmlExtractor()

    def fetch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        d = pa.array(url_doc_id(batch.column("url")).astype(np.int64))
        batch = batch.append_column("docid", d)
        batch = batch.filter(pc_.is_in(d, value_set=need_arr))
        return extractor(batch)

    batches = list(ds.map_batches(fetch, batch_format="pyarrow", zero_copy_batch=True)
                   .iter_batches(batch_size=None, batch_format="pyarrow"))
    if not batches:  # no docid matched: the same chain over no rows, typed
        schema = pads.dataset(web).schema
        batches = [fetch(pa.schema([schema.field(c) for c in cols]).empty_table())]
    texts_tbl = pa.concat_tables(batches)
    tok = Tokenizer()(texts_tbl)  # row-aligned with texts_tbl
    tbl = tok.append_column("text", texts_tbl.column("text"))
    for c in extra_cols:
        if c not in tbl.column_names:  # the Tokenizer carries lang itself
            tbl = tbl.append_column(c, texts_tbl.column(c))
    return _dedup_group(tbl) if tbl.num_rows else tbl


def _fetch_indexed_texts(web: str, need: "list[int]") -> "dict[int, str]":
    """docid → indexed text for exactly ``need`` (see _fetch_indexed_winners)."""
    winners = _fetch_indexed_winners(web, need)
    return dict(
        zip(
            winners.column("docid").to_pylist(),
            winners.column("text").to_pylist(),
        )
    )


def _mine_phrases(idx, web: str, num_phrases: int) -> "list[str]":
    """Deterministic phrase set: each generated query's BM25 rank-1 doc
    contributes one interior trigram of its token stream, so every phrase
    has ≥1 guaranteed match and the set is stable per scale factor.
    (Mining fetches the seed docs' texts — phrase MATCHING must not.)"""
    from terrier_ray.text.tokenize import tokenize

    queries = generate_queries(num_phrases)
    seed_docs = []
    for text in queries.column("text").to_pylist():
        hits = idx.search(text, 1)
        if hits:
            seed_docs.append(int(hits[0][0]))
    seed_text = _fetch_indexed_texts(web, sorted(set(seed_docs)))
    phrases: list[str] = []
    for d in seed_docs:
        toks = tokenize(seed_text.get(d, ""))
        if len(toks) >= 3:
            s = min(10, len(toks) - 3)
            p = " ".join(toks[s : s + 3])
            if p not in phrases:
                phrases.append(p)
    return phrases


def _phrase_table(rows: "list[tuple[int, str, int, int]]"):

    return pa.table(
        {
            "phrase_id": pa.array([r[0] for r in rows], type=pa.int32()),
            "phrase": pa.array([r[1] for r in rows], type=pa.string()),
            "docid": pa.array([r[2] for r in rows], type=pa.int64()),
            "n_occurrences": pa.array([r[3] for r in rows], type=pa.int64()),
        }
    )


def _match_phrases_scan(idx, web: str, phrases: "list[str]"):
    """AND candidates over the index, then verify adjacency by fetching the
    candidates' texts in one pruned distributed pass (the positional-free
    'slow phrase' plan; see phrase_matches)."""
    from terrier_ray.text.tokenize import tokenize

    cand = {p: idx.search_boolean(must=[p]) for p in phrases}
    need = sorted({int(d) for ds_ in cand.values() for d in ds_})
    text_of = _fetch_indexed_texts(web, need)
    toks_of = {
        d: np.asarray(tokenize(t), dtype=object) for d, t in text_of.items()
    }

    rows: list[tuple[int, str, int, int]] = []
    for pid, phrase in enumerate(phrases):
        seq = tokenize(phrase)
        for d in cand[phrase]:
            t = toks_of.get(int(d))
            if t is None or len(t) < len(seq):
                continue
            pos = np.flatnonzero(t[: len(t) - len(seq) + 1] == seq[0])
            for j in range(1, len(seq)):
                if len(pos) == 0:
                    break
                pos = pos[t[pos + j] == seq[j]]
            if len(pos):
                rows.append((pid, phrase, int(d), int(len(pos))))
    return _phrase_table(rows)


def _match_phrases_positional(idx, phrases: "list[str]", slop: int = 0):
    """Position-intersect phrase matching over a POSITIONAL reader: AND
    the terms' postings for candidates, then intersect per-term position
    lists shifted by phrase offset — ZERO corpus text reads, so a
    stopword-heavy phrase costs position-block decodes, never a text
    refetch of a huge AND set.  This is the executor's phase 1
    (``bm25._shard_phrases``), the ONE position-intersection path: the
    query language's phrase clauses and this table-shaped entry agree
    doc-for-doc.  ``slop >= 1`` counts minimal proximity windows instead.
    Rows sort by (phrase_id, docid)."""
    from terrier_ray.index.bm25 import _shard_phrases

    clauses = [{"field": None, "text": p, "slop": slop} for p in phrases]
    hits = _shard_phrases(clauses, {None: idx.units()})
    rows = [(pid, phrase, d, c)
            for pid, (phrase, parts) in enumerate(zip(phrases, hits))
            for docs, counts in parts for d, c in zip(docs.tolist(), counts.tolist())]
    return _phrase_table(sorted(rows, key=lambda r: (r[0], r[2])))


def segmented_phrase_matches(
    segment_dirs: "list[str]",
    phrases: "list[str]",
    tombstone_dirs: "list[str] | None" = None,
):
    """Position-intersect phrase retrieval over a DML-maintained SEGMENTED
    index (every segment built with positions=True): the executor's phase
    1 over a ``SegmentedBM25``, which drops each segment's tombstoned
    docids before counting — live doc sets are disjoint across segments,
    so there is one row per (phrase, live doc), identical to a positional
    rebuild over the post-DML snapshot (tested).  Rows sort by
    (phrase_id, docid)."""
    from terrier_ray.index.bm25 import SegmentedBM25

    seg = SegmentedBM25(segment_dirs, tombstone_dirs=tombstone_dirs)
    return _match_phrases_positional(seg, phrases)


def phrase_matches(sf_dir: str, num_phrases: int = 6):
    """Exact phrase retrieval — the "slow phrase" plan: AND the phrase's
    terms over the inverted index (rarest-first vectorized postings
    intersection, ``search_boolean``), fetch ONLY the surviving candidates'
    texts in one pruned distributed pass, and verify token adjacency
    vectorized per candidate (``_match_phrases_scan``).

    Scale posture (1e12 docs): candidates = AND of all phrase terms, so a
    selective phrase prunes to a handful of docs before any text is read; a
    stopword-only phrase degenerates to a huge AND set — the classic fix is
    the POSITIONAL index, which this engine also offers
    (``phrase_matches_positional``: build_index(positions=True) +
    per-posting position deltas intersected instead of re-tokenizing);
    this entry keeps the positional-free plan for indexes built without
    the sidecar.  Rows: (phrase_id, phrase, docid, n_occurrences);
    rows-only — verified exactly vs a naive full-scan oracle in
    tests/test_index_bm25.py.  Reference analog: conjunctive IndexScan +
    table verify (src/include/planner/plannodes/plan_node_defs.h:143-152)."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    web = webtext_for_sf(sf_dir)
    phrases = _mine_phrases(idx, web, num_phrases)
    return _match_phrases_scan(idx, web, phrases)


def phrase_matches_positional(sf_dir: str, num_phrases: int = 6):
    """Exact phrase retrieval over a POSITIONAL index (the classic fast
    plan): same deterministically-mined phrase set as ``phrase_matches``,
    but matching intersects per-posting position lists — zero corpus text
    reads in the matching phase (spy-asserted in tests), identical rows to
    the scan plan.  The positional index is a separate cached build
    (``build_index(positions=True)``) whose size overhead is logged in its
    stats['positions_bytes']."""
    from terrier_ray.index.bm25 import BM25Index

    web = webtext_for_sf(sf_dir)
    idx = BM25Index(ensure_index(sf_dir, positions=True))
    phrases = _mine_phrases(idx, web, num_phrases)
    return _match_phrases_positional(idx, phrases)


def proximity_matches(sf_dir: str, num_phrases: int = 6, slop: int = 2):
    """Unordered-window proximity retrieval over the POSITIONAL index —
    the Terrier/Indri ``#uwN`` operator (query-string syntax
    ``\"a b\"~slop``): a match is a MINIMAL token window containing every
    distinct phrase token with span <= n_distinct + slop, counted under
    minimal-interval semantics (``bm25._minimal_window_count``, the
    one window kernel).  Same deterministically-mined phrase set as
    ``phrase_matches``; zero corpus text reads (candidates = AND of the
    distinct tokens, then per-candidate position-block decodes).  Rows:
    (phrase_id, phrase, docid, n_occurrences) where n_occurrences is the
    minimal-window count; rows-only — verified exactly vs a naive
    full-scan window oracle in tests/test_querylang.py.  Exact-phrase
    docs are a subset of each phrase's proximity docs when its tokens
    are distinct (span = n <= n + slop; tested)."""
    from terrier_ray.index.bm25 import BM25Index

    web = webtext_for_sf(sf_dir)
    idx = BM25Index(ensure_index(sf_dir, positions=True))
    return _match_phrases_positional(idx, _mine_phrases(idx, web, num_phrases), slop)


def bm25_snippets(sf_dir: str, k: int = 5, num_queries: int = 5, window: int = 20):
    """Search-result snippets: BM25 top-k per query, then ONE pruned
    distributed pass over the webtext corpus fetches just the hit docs'
    texts (docid = url hash, computed per batch + is_in filter against the
    tiny hit set — a broadcast semi join), and a per-hit vectorized window
    pick maximizes distinct query terms inside ``window`` tokens.
    Rows: (query_id, rank, docid, snippet); rows-only (free text), the
    contains-a-query-term invariant is unit-tested."""
    from terrier_ray.index.bm25 import BM25Index, _query_terms
    from terrier_ray.text.tokenize import TOKEN_RE

    idx = BM25Index(ensure_index(sf_dir))
    queries = generate_queries(num_queries)
    hits: dict[int, list[int]] = {}
    terms_by_q: dict[int, list[str]] = {}
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        terms_by_q[qid] = _query_terms(text)
        hits[qid] = [d for d, _s in idx.search(text, k=k)]
    need = sorted({d for ds in hits.values() for d in ds})
    # most webtext rows carry only `html` — the shared pruned fetch runs the
    # SAME extractor + duplicated-url winner rule the index build used, so
    # the snippet is cut from the text the index actually scored
    text_of = _fetch_indexed_texts(webtext_for_sf(sf_dir), need)

    def best_window(text: str, terms: list[str]) -> str:
        toks = TOKEN_RE.findall(text.lower())
        if not toks:
            return ""
        tset = set(terms)
        is_hit = np.array([t in tset for t in toks])
        if not is_hit.any():
            return " ".join(toks[:window])
        # windowed count of distinct-ish hits: maximize hit count in a
        # `window`-token span (cumsum difference), earliest best span wins
        cs = np.concatenate(([0], np.cumsum(is_hit.astype(np.int64))))
        n = len(toks)
        starts = np.arange(max(1, n - window + 1))
        score = cs[np.minimum(starts + window, n)] - cs[starts]
        s = int(np.argmax(score))
        return " ".join(toks[s : s + window])

    return hits_table(
        ((qid, [(d, best_window(text_of.get(d, ""), terms_by_q[qid])) for d in ds])
         for qid, ds in hits.items()),
        value=("snippet", pa.string()),
    )


def more_like_this(sf_dir: str, num_docs: int = 5, k: int = 10, max_terms: int = 10):
    """MoreLikeThis (Lucene analog): for each seed doc, mine its strongest
    tf*idf terms from the FORWARD corpus representation (the index's
    tokenized corpus epoch: docid → terms/tfs) and BM25-rank the rest of
    the corpus with that mined query.

    Pinned semantics (the scalar oracle mirror re-derives them
    independently, tests/test_multifield.py):

    - seeds = the ``num_docs`` smallest docids in the corpus
    - per term weight = tf * idf(n_docs, df) (float64; df from the index's
      term dictionary); top ``max_terms`` by (weight desc, term asc);
      query term order = that selection order (tokens are [a-z0-9]+ so the
      joined query re-tokenizes to exactly the selected terms)
    - hits = exact BM25 top-(k+1) minus the seed itself, first k kept,
      re-ranked 1..k

    The seed term-vector fetch reads only (docid, terms, tfs) with an is_in
    filter; at 1e12 docs the clustered docid layout (sources/io.point_lookup)
    makes it a row-group-pruned point read — same hook as the relational
    point lookup.  Rows-only entry (not SQL-expressible)."""
    import pyarrow.dataset as pads

    from terrier_ray.index.bm25 import BM25Index, idf

    idx_dir = ensure_index(sf_dir)
    idx = BM25Index(idx_dir)
    corpus = pads.dataset(os.path.join(idx_dir, "corpus"))
    all_ids = corpus.to_table(columns=["docid"]).column("docid").to_numpy()
    seeds = np.sort(all_ids)[:num_docs]
    seed_tab = corpus.to_table(
        columns=["docid", "terms", "tfs"],
        filter=pads.field("docid").isin(pa.array(seeds)),
    )
    by_seed = {
        int(d): (t, f)
        for d, t, f in zip(
            seed_tab.column("docid").to_pylist(),
            seed_tab.column("terms").to_pylist(),
            seed_tab.column("tfs").to_pylist(),
        )
    }
    per_seed = []
    for seed in (int(s) for s in seeds):
        terms, tfs = by_seed[seed]
        dfs = idx.df_of(terms)
        weighted = [
            (float(tf) * idf(idx.n_docs, dfs[t]), t)
            for t, tf in zip(terms, tfs)
            if t in dfs
        ]
        weighted.sort(key=lambda v: (-v[0], v[1]))
        sel = [t for _, t in weighted[:max_terms]]
        if not sel:
            continue
        hits = [(d, s) for d, s in idx.search(" ".join(sel), k=k + 1) if d != seed]
        per_seed.append((seed, hits[:k]))
    return hits_table(per_seed, key=("seed_docid", pa.int64()))


def bm25_facets(sf_dir: str, k: int = 50, num_queries: int = 10):
    """Faceted search (the search-engine sidebar): top-k BM25 hits per
    query, faceted by the hit docs' ``lang`` — (query_id, lang, n_docs)
    counts sorted by (query_id, lang).

    The facet attribute comes from the WINNER row of each hit docid
    (_fetch_indexed_winners — same dedup rule the index scored), fetched in
    ONE pruned distributed pass over the union of all queries' hit sets;
    ranking is ``search`` (exact top-k).  Rows-only entry: verified vs a scalar oracle mirror in
    tests/test_multifield.py."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    web = webtext_for_sf(sf_dir)
    queries = generate_queries(num_queries)
    hits_by_q: dict[int, list[int]] = {}
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        hits_by_q[qid] = [d for d, _ in idx.search(text, k=k)]
    need = sorted({d for hs in hits_by_q.values() for d in hs})
    if not need:
        return pa.table(
            {
                "query_id": pa.array([], pa.int32()),
                "lang": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
            }
        )
    if idx.has_docvalues:
        # fast path: the facet attribute IS the docvalue sidecar — one
        # memmap gather over the hit set, zero corpus reads (sidecar langs
        # equal winner langs by the epoch-2c contract, tested); present
        # whenever build_index(docvalues=True) ran on this cached index
        lang_of = dict(zip(need, idx.docvalues_of(np.asarray(need))))
    else:
        winners = _fetch_indexed_winners(web, need, extra_cols=("lang",))
        lang_of = dict(
            zip(
                winners.column("docid").to_pylist(),
                winners.column("lang").to_pylist(),
            )
        )
    counts: dict[tuple[int, str], int] = {}
    for qid, hs in hits_by_q.items():
        for d in hs:
            key = (qid, lang_of[d])
            counts[key] = counts.get(key, 0) + 1
    rows = sorted(counts.items())
    return pa.table(
        {
            "query_id": pa.array([q for (q, _), _ in rows], type=pa.int32()),
            "lang": pa.array([l for (_, l), _ in rows], type=pa.string()),
            "n_docs": pa.array([n for _, n in rows], type=pa.int64()),
        }
    )


def feedback_topk(
    sf_dir: str,
    k: int = 10,
    num_queries: int = 10,
    fb_docs: int = 5,
    fb_terms: int = 8,
    beta: float = 0.4,
):
    """Pseudo-relevance feedback (Rocchio-style, the RM3-shaped two-pass):

    1. initial exact BM25 top-``fb_docs`` for the raw query
    2. expansion candidates mined from those docs' FORWARD term vectors
       (the index's corpus epoch): for each term t not in the original
       query, ``w_e = float(sum of tf over fb docs) * idf(n_docs, df_t)``;
       top ``fb_terms`` by (w_e desc, term asc)
    3. final ranking = ``search_weighted`` over original clauses at boost
       1.0 (query order) followed by expansion clauses at boost
       ``beta * w_e / w_max`` (selection order; w_max = the top expansion
       weight) — float64 throughout, accumulation in clause order.

    All three steps are pinned and mirrored by the scalar oracle test
    (tests/test_multifield.py).  The fb-doc term-vector fetch is the same
    is_in pruned read as more_like_this.  Rows-only entry."""
    import pyarrow.dataset as pads

    from terrier_ray.index.bm25 import BM25Index, _query_terms, idf

    idx_dir = ensure_index(sf_dir)
    idx = BM25Index(idx_dir)
    corpus = pads.dataset(os.path.join(idx_dir, "corpus"))
    queries = generate_queries(num_queries)
    per_query = []
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        qterms = _query_terms(text)
        fb = [d for d, _ in idx.search(text, k=fb_docs)]
        clauses = [(t, 1.0) for t in qterms]
        if fb:
            fb_tab = corpus.to_table(
                columns=["terms", "tfs"],
                filter=pads.field("docid").isin(
                    pa.array(np.asarray(sorted(fb), dtype=np.int64))
                ),
            )
            tf_sum: dict[str, int] = {}
            for terms, tfs in zip(
                fb_tab.column("terms").to_pylist(), fb_tab.column("tfs").to_pylist()
            ):
                for t, f in zip(terms, tfs):
                    if t not in qterms:
                        tf_sum[t] = tf_sum.get(t, 0) + f
            dfs = idx.df_of(sorted(tf_sum))
            weighted = sorted(
                (
                    (float(s) * idf(idx.n_docs, dfs[t]), t)
                    for t, s in tf_sum.items()
                    if t in dfs
                ),
                key=lambda v: (-v[0], v[1]),
            )[:fb_terms]
            if weighted:
                w_max = weighted[0][0]
                clauses += [(t, beta * w / w_max) for w, t in weighted]
        per_query.append((qid, idx.search_weighted(clauses, k=k)))
    return hits_table(per_query)


def suggest_terms(sf_dir: str, prefix: str = "wi", limit: int = 10):
    """Prefix autocomplete over the term dictionary: the ``limit`` most
    frequent indexed terms starting with ``prefix``, ordered (df desc,
    term asc) — the search-box suggest shape.  One pruned (term, df, cf)
    prefix scan of the posting buckets (terms_in_range), no posting blobs.
    Rows-only entry; exact vs the oracle df map in tests."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    t = idx.terms_in_range(prefix=prefix)
    rows = sorted(
        zip(t.column("term").to_pylist(), t.column("df").to_pylist()),
        key=lambda v: (-v[1], v[0]),
    )[:limit]
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], type=pa.string()),
            "df": pa.array([int(r[1]) for r in rows], type=pa.int64()),
        }
    )


def did_you_mean(sf_dir: str, num_queries: int = 12, max_edits: int = 1):
    """Spell correction ("did you mean"): per query term, if the term is
    NOT in the dictionary, replace it with its best fuzzy variant —
    ``fuzzy_expand`` order is (ed asc, df desc, term asc), so the best
    variant is the closest, then most frequent.  In-dictionary terms are
    kept verbatim.  Returns (query_id, original, corrected) over the same
    deterministically typo'd query set as fuzzy_topk.  Rows-only entry;
    bit-identical to the oracle mirror in tests/test_multifield.py."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir))
    queries = _typo_queries(num_queries)
    qids, originals, correcteds = [], [], []
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        terms = text.split()
        present = idx.df_of(terms)
        out = []
        for t in terms:
            if t in present:
                out.append(t)
                continue
            cands = idx.fuzzy_expand(t, max_edits=max_edits, prefix_len=1)
            out.append(cands[0][0] if cands else t)
        qids.append(qid)
        originals.append(text)
        correcteds.append(" ".join(out))
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int32()),
            "original": pa.array(originals, type=pa.string()),
            "corrected": pa.array(correcteds, type=pa.string()),
        }
    )


def search_query_string(sf_dir: str, k: int = 10, distributed: bool = False):
    """Lucene-style query-string retrieval — the unified front door over
    every search primitive (``index/querylang.py``): boolean occurs
    (``+must -not``), boosts (``^2``), prefix (``pre*``), fuzzy
    (``term~1``), exact phrases (``"a b"`` via the positional index), and
    per-field scoping (``title:term`` against the title-field index).
    Runs a fixed deterministic suite of query strings exercising each
    construct; every execution identity (bare == exact TAAT, boost ==
    search_weighted, phrase == positional matcher, field == per-field
    search) is pinned in tests/test_querylang.py.  Rows: (query_id,
    query, rank, docid, score); rows-only (free-text query language).

    ``distributed=True`` serves the same suite through shard-side scoring
    (``QueryStringEngine.search_distributed``: coordinator-side expansion,
    two-round phrase df, per-range scoring + filters, k-list merge) —
    rank-AND-score-identical rows, so the two entries' tables match
    byte-for-byte (tested)."""
    from terrier_ray.index.bm25 import BM25Index
    from terrier_ray.index.querylang import QueryStringEngine

    web = webtext_for_sf(sf_dir)
    body = BM25Index(ensure_index(sf_dir, positions=True))
    title = BM25Index(ensure_index(sf_dir, field="title"))
    engine = QueryStringEngine({"body": body, "title": title})

    base = generate_queries(4).column("text").to_pylist()
    terms: list[str] = []
    for qtext in base:
        for w in qtext.split():
            if w not in terms:
                terms.append(w)
    t0, t1, t2 = terms[0], terms[1], terms[2]
    typo = t0[:-1] + ("x" if t0[-1] != "x" else "q")
    mined = _mine_phrases(body, web, 1)
    suite = [
        base[0],  # plain multi-term (== exact TAAT)
        f"+{t0} {t1}",  # MUST filter + SHOULD scoring
        f"{t0} -{t1}",  # exclusion
        f"{t0}^2 {t1}",  # per-clause boost
        f"{t0[:2]}*",  # dictionary prefix expansion
        f"{typo}~1",  # fuzzy (OSA ed<=1)
        # positional phrase pseudo-term — dropped (deterministically, so the
        # distributed variant stays byte-identical) when no phrase is minable
        *([f'"{mined[0]}"'] if mined else []),
        # unordered-window proximity (slop) over the same mined phrase
        *([f'"{mined[0]}"~2'] if mined else []),
        f"title:{t0} {t1}",  # field-scoped clause
        f"+title:{t0} -{t1} {t2}^1.5",  # combined
    ]
    run = (
        (lambda qstr: engine.search_distributed(qstr, k=k, num_shards=4))
        if distributed
        else (lambda qstr: engine.search(qstr, k=k))
    )
    return hits_table(
        (((qid, qstr), run(qstr)) for qid, qstr in enumerate(suite)), ("query",)
    )


def bm25_filtered_topk(sf_dir: str, k: int = 10, num_queries: int = 10):
    """Attribute-FILTERED ranked retrieval (Lucene FilteredQuery analog;
    the reference's predicate-below-topk plan shape): BM25 top-k
    restricted to docs whose ``lang`` docvalue equals each of the two
    most frequent corpus languages, per query.  The filter is a docvalue
    sidecar gather over the candidate set (``BM25Index.search_filtered``
    — the doclens memmap discipline applied to a doc attribute, epoch 2c
    of the build), never a corpus read; the distributed variant pushes
    the mask into the scoring shards (``search_many_sharded(filter_lang=)``
    — identity tested).  Rows: (query_id, query, lang, rank, docid,
    score); rows-only (BM25 scores), identity-vs-post-filter pinned in
    tests/test_index_bm25.py."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir, docvalues=True))
    # two most frequent dictionary values, deterministically: count codes
    # over the whole sidecar (tiny: one uint16 bincount)
    names = idx.docvalue_dict
    counts = np.bincount(idx.docvalues.values(), minlength=0x10000)[: len(names)]
    top_langs = [
        names[i]
        for i in sorted(range(len(names)), key=lambda i: (-int(counts[i]), names[i]))[:2]
    ]
    queries = generate_queries(num_queries)
    return hits_table(
        (
            ((qid, text, lang), idx.search_filtered(text, k=k, lang=lang))
            for qid, text in zip(
                queries.column("query_id").to_pylist(),
                queries.column("text").to_pylist(),
            )
            for lang in top_langs
        ),
        ("query", "lang"),
    )


def bm25_time_filtered_topk(sf_dir: str, k: int = 10, num_queries: int = 10):
    """RANGE-filtered ranked retrieval over the NUMERIC docvalues sidecar
    (Lucene NumericDocValues / date-range filter analog): BM25 top-k
    restricted to docs whose winner-row ``warc_ts`` falls in the newer
    half of the corpus — the deterministic median split [median, +inf),
    computed from the sidecar itself (no corpus read).  Same
    identity-to-post-filter contract as the lang filter
    (``search_filtered(ts_range=)``, tested), and the distributed
    variant pushes the range mask into the scoring shards.  Rows:
    (query_id, query, rank, docid, score); rows-only (BM25 scores)."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir, docvalues=True))
    all_ts = idx.docvalues_ts.values()
    median = int(np.sort(all_ts)[len(all_ts) // 2])
    hi = int(all_ts.max()) + 1
    queries = generate_queries(num_queries)
    return hits_table(
        (
            ((qid, text), idx.search_filtered(text, k=k, ts_range=(median, hi)))
            for qid, text in zip(
                queries.column("query_id").to_pylist(),
                queries.column("text").to_pylist(),
            )
        ),
        ("query",),
    )


def bm25_sorted_by_time(sf_dir: str, k: int = 10, num_queries: int = 10):
    """Sort-by-field retrieval (newest matching docs first — the Lucene
    SortField / ES sort analog, ``BM25Index.search_sorted_by_ts``): docs
    matching >= 1 query term ordered by the numeric warc_ts docvalue
    (ts desc, docid asc) instead of BM25 score.  Rows: (query_id, query,
    rank, docid, ts); rows-only, identity-vs-python-sort pinned in
    tests/test_index_bm25.py."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir, docvalues=True))
    queries = generate_queries(num_queries)
    return hits_table(
        (
            ((qid, text), idx.search_sorted_by_ts(text, k=k))
            for qid, text in zip(
                queries.column("query_id").to_pylist(),
                queries.column("text").to_pylist(),
            )
        ),
        ("query",),
        value=("ts", pa.int64()),
    )


def bm25_date_histogram(sf_dir: str, num_queries: int = 6, num_buckets: int = 8):
    """Date-histogram aggregation over each query's match set (the ES
    date_histogram facet, ``BM25Index.date_histogram``): matching docs
    bucketed by sidecar warc_ts at a deterministic interval (the corpus
    ts span split into ``num_buckets``).  Rows: (query_id, query,
    bucket_start, n_docs); rows-only, counts pinned vs a numpy oracle in
    tests/test_index_bm25.py."""
    from terrier_ray.index.bm25 import BM25Index

    idx = BM25Index(ensure_index(sf_dir, docvalues=True))
    all_ts = idx.docvalues_ts.values()
    span = int(all_ts.max()) - int(all_ts.min())
    interval = max(1, span // num_buckets)
    queries = generate_queries(num_queries)
    qids, qs, starts, counts = [], [], [], []
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        for b, c in idx.date_histogram(text, interval):
            qids.append(qid)
            qs.append(text)
            starts.append(b)
            counts.append(c)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int32()),
            "query": pa.array(qs, type=pa.string()),
            "bucket_start": pa.array(starts, type=pa.int64()),
            "n_docs": pa.array(counts, type=pa.int64()),
        }
    )


def search_explain(sf_dir: str):
    """Search-side EXPLAIN (``QueryStringEngine.explain`` — the retrieval
    analog of the SQL ``explain()`` entry): per-clause expansion counts,
    dictionary dfs, phrase/proximity candidate bounds, and the
    distributed round shape for a fixed suite of query strings, one row
    per plan line.  STATS-ONLY (dictionary column probes, no postings or
    position decodes — asserted cheap in tests).  Rows-only (plan text
    is engine-specific, like ``sql_explain_q3``)."""
    from terrier_ray.index.bm25 import BM25Index
    from terrier_ray.index.querylang import QueryStringEngine

    web = webtext_for_sf(sf_dir)
    body = BM25Index(ensure_index(sf_dir, positions=True))
    title = BM25Index(ensure_index(sf_dir, field="title"))
    engine = QueryStringEngine({"body": body, "title": title})
    base = generate_queries(2).column("text").to_pylist()
    t0 = base[0].split()[0]
    mined = _mine_phrases(body, web, 1)
    suite = [
        base[0],
        f"+{t0[:2]}* -{t0} title:{t0}^2",
        *([f'"{mined[0]}"~2 {t0}'] if mined else []),
    ]
    qids, steps, lines = [], [], []
    for qid, qstr in enumerate(suite):
        for step, line in enumerate(engine.explain(qstr, num_shards=4).splitlines()):
            qids.append(qid)
            steps.append(step)
            lines.append(line)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int32()),
            "step": pa.array(steps, type=pa.int32()),
            "plan": pa.array(lines, type=pa.string()),
        }
    )


def bm25f_true_topk(
    sf_dir: str,
    k: int = 10,
    num_queries: int = 20,
    w_title: float = 2.0,
    w_body: float = 1.0,
):
    """TRUE BM25F (Robertson/Zaragoza): field-weighted term frequencies
    are merged BEFORE the single saturation, unlike ``bm25f_topk``'s
    per-field-score sum:

        tf'(t, d)  = w_title*tf_title + w_body*tf_body
        dl'(d)     = w_title*dl_title + w_body*dl_body
        avgdl'     = w_title*avgdl_title + w_body*avgdl_body
        df'(t)     = |docs with t in EITHER field|
        score(q,d) = sum_t idf(N, df') * tf'*(k1+1)/(tf' + k1*(1-b+b*dl'/avgdl'))

    computed query-time from the two per-field indexes (postings union via
    np.union1d + scatter-add, doclens from each field's memmapped sidecar;
    title contribution added before body at every merge point, float64).
    Accumulation runs in query-term order — bit-identical to the scalar
    two-oracle mirror (tests/test_multifield.py).  Rank: score desc,
    docid asc.  Rows-only entry."""
    from terrier_ray.index.bm25 import BM25Index

    idx_title = BM25Index(ensure_index(sf_dir, field="title"))
    idx_body = BM25Index(ensure_index(sf_dir))
    queries = generate_queries(num_queries)
    return hits_table(
        (qid, bm25f_true_search(idx_title, idx_body, text, k=k,
                                w_title=w_title, w_body=w_body))
        for qid, text in zip(
            queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
        )
    )


def bm25f_true_search(idx_title, idx_body, query, *, k, w_title, w_body):
    """One true-BM25F query over two open per-field index handles (see
    ``bm25f_true_topk`` for the pinned formula)."""
    from terrier_ray.index.bm25 import _accumulate, _query_terms, _topk, _wd, idf

    assert idx_title.n_docs == idx_body.n_docs, "per-field indexes must align"
    n_docs = idx_body.n_docs
    avgdlw = w_title * idx_title.avgdl + w_body * idx_body.avgdl
    terms = _query_terms(query)
    pt = idx_title.lookup(terms)
    pb = idx_body.lookup(terms)
    chunks_d, chunks_c = [], []
    for t in terms:
        a, b = pt.get(t), pb.get(t)
        if a is None and b is None:
            continue
        dt = a[1].astype(np.int64) if a is not None else np.empty(0, np.int64)
        db = b[1].astype(np.int64) if b is not None else np.empty(0, np.int64)
        union = np.union1d(dt, db)  # sorted unique
        tfw = np.zeros(len(union), dtype=np.float64)
        if a is not None:
            tfw[np.searchsorted(union, dt)] += w_title * a[2].astype(np.float64)
        if b is not None:
            tfw[np.searchsorted(union, db)] += w_body * b[2].astype(np.float64)
        dlw = (
            w_title * idx_title.doc_len(union)
            + w_body * idx_body.doc_len(union)
        )
        chunks_d.append(union)
        chunks_c.append(idf(n_docs, len(union)) * _wd(tfw, dlw, avgdlw))
    return _topk(*_accumulate(chunks_d, chunks_c), k)  # query-term order
