"""End-to-end index build + BM25 vs the pure-Python oracle (rank-identical)."""

from __future__ import annotations

import glob
import os

import pytest

from terrier_ray.datagen.webtext import generate_queries, url_doc_id
from terrier_ray.index.build import build_index
from terrier_ray.index.bm25 import BM25Index, BM25Scorer
from terrier_ray.index.oracle import OracleBM25


@pytest.fixture(scope="module")
def built_index(ray_session, webtext_small, tmp_root):
    out = os.path.join(str(tmp_root), "index_small")
    stats = build_index(
        webtext_small,
        out,
        num_buckets=4,
        num_salts=3,
        docvalues=True,  # the filtered-retrieval sidecar tests share this
        heavy_min_df=20,  # force the salted heavy-hitter path
    )
    return out, stats


@pytest.fixture(scope="module")
def oracle(webtext_small):
    return OracleBM25(webtext_small)


def test_stats_match_oracle(built_index, oracle):
    _, stats = built_index
    assert stats["n_docs"] == oracle.n_docs
    assert stats["avgdl"] == oracle.avgdl
    assert len(stats["heavy_terms"]) > 0  # salting path exercised


def test_df_matches_oracle(built_index, oracle):
    import pyarrow.parquet as pq

    out, stats = built_index
    files = sorted(glob.glob(os.path.join(out, "postings", "bucket-*.parquet")))
    assert files
    engine_df: dict[str, int] = {}
    rows_per_term: dict[str, int] = {}
    for f in files:
        t = pq.read_table(f, columns=["term", "df"])
        for term, df in zip(t.column("term").to_pylist(), t.column("df").to_pylist()):
            engine_df[term] = engine_df.get(term, 0) + df  # sum salted parts
            rows_per_term[term] = rows_per_term.get(term, 0) + 1
    assert engine_df == oracle.df
    # the fold pass merged every heavy term's salted sub-postings into ONE
    # row (fmt-2 multi-part container) in its primary bucket — salting is
    # exchange-time only, and lookups single-probe every term
    assert stats.get("salted_terms") == []
    assert all(n == 1 for n in rows_per_term.values()), rows_per_term
    import numpy as np

    from terrier_ray.index.build import term_hash

    heavy = sorted(stats["heavy_terms"])
    th = term_hash(np.asarray(heavy, dtype=object))
    folded_fmt2 = 0
    for t_name, h in zip(heavy, th):
        b = int(h % stats["num_buckets"])
        tab = pq.read_table(
            os.path.join(out, "postings", f"bucket-{b:05d}.parquet"),
            filters=[("term", "==", t_name)],
        )
        assert tab.num_rows == 1, t_name  # merged row lives in the primary
        folded_fmt2 += tab.column("postings")[0].as_py()[0] == 2
    assert folded_fmt2 > 0, "no heavy term was exchange-split then folded"


def test_topk_rank_identical(built_index, oracle):
    out, _ = built_index
    idx = BM25Index(out)
    queries = generate_queries(30)
    n_nonempty = 0
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        got = idx.search(text, k=10)
        want = oracle.search(text, k=10)
        assert got == want, f"query {qid} ({text!r}): {got} != {want}"
        n_nonempty += bool(got)
    assert n_nonempty > 20


def test_pruned_spike_geometry_regression(built_index, force_prune):
    """MaxScore's probe-only decision on the adversarial geometry that once
    broke a block-max pruner (a true top-k doc dropped, seen live at 960k
    docs).  Constructed over real docids via a monkeypatched lookup: term
    A has a high-tf spike doc (upper bound ≫ typical weight) and doc X
    sits in a weak A-block; an earlier A+B doc Y sets the k=2 threshold
    above X's A-only score, so only term B — whose bound is below that
    threshold, making it probe-only — lifts X into the top-2.  The
    hand-computed top-2 must equal ``search`` on the MaxScore path and on
    the exact path."""
    import numpy as np

    from terrier_ray.index import bm25
    from terrier_ray.index.bm25 import B, K1, idf

    out, _ = built_index
    idx = BM25Index(out)
    cand = idx.doclens.docids()[:40].astype(np.uint64)  # real docids, sorted unique

    def wd(docid, tf):
        dl = float(idx.doc_len(np.asarray([int(docid)], dtype=np.int64))[0])
        return tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / idx.avgdl))

    # roles: spike < Y < X by docid, with wd1(Y) just above wd1(X) so the
    # k=2 threshold set at Y rejects X's A-only block bound but not X itself
    spike = cand[0]
    wd1 = {int(dd): wd(dd, 1) for dd in cand[1:]}
    pick = None
    for yi, y in enumerate(cand[1:-1], start=1):
        for x in cand[yi + 1:]:
            gap = wd1[int(y)] - wd1[int(x)]
            if 0.0 < gap < 0.08:
                pick = (y, x)
                break
        if pick:
            break
    assert pick, "no (Y, X) docid pair with the needed doc-length relation"
    y_doc, x_doc = pick

    # term A: spike tf=20 (block 1, with Y), X alone in block 2
    a_dids = np.array([spike, y_doc, x_doc], dtype=np.uint64)
    a_tfs = np.array([20, 1, 1], dtype=np.uint32)
    a_bm = np.array([max(wd(spike, 20), wd(y_doc, 1)), wd(x_doc, 1)],
                    dtype=np.float32)
    # term B: tf=1 at Y (the threshold-setter), tf=8 at X
    b_dids = np.array([y_doc, x_doc], dtype=np.uint64)
    b_tfs = np.array([1, 8], dtype=np.uint32)
    b_bm = np.array([max(wd(y_doc, 1), wd(x_doc, 8))], dtype=np.float32)
    df_a, df_b = 100, 300  # idf_B ≪ idf_A so A's ub alone clears the bar
    post = {"qqqa": (df_a, a_dids, a_tfs), "qqqb": (df_b, b_dids, b_tfs)}
    idx.lookup = lambda terms: {t: post.get(t) for t in terms}
    getattr(idx, "_wd_cache", {}).clear()  # drop cached synthetic weights

    w_a, w_b = idf(idx.n_docs, df_a), idf(idx.n_docs, df_b)
    score = {
        int(dd): w_a * wd(dd, int(a_tfs[i])) for i, dd in enumerate(a_dids)
    }
    for i, dd in enumerate(b_dids):
        score[int(dd)] = score.get(int(dd), 0.0) + w_b * wd(dd, int(b_tfs[i]))
    # geometry preconditions (if these fail the test no longer proves the bug)
    thr = score[int(y_doc)]  # k=2 threshold when cursors reach X
    assert w_a * float(a_bm.max()) > thr          # A alone clears the bar
    assert w_a * float(a_bm[1]) <= thr            # A-only block bound rejects X
    assert score[int(x_doc)] > thr                # but X truly beats the kth
    # after A, the k=2 cut sits at Y's A-only score and B's bound is below
    # it: B is only probed at A's candidates, never scanned
    assert w_b * float(b_bm.max()) < w_a * wd(y_doc, 1)
    # ... and so is the bound MaxScore itself uses for B
    bound_b = bm25._bound(bm25.Unit(idx), "qqqb", post["qqqb"], idx.avgdl)
    assert w_b * bound_b < w_a * wd(y_doc, 1)
    want = sorted(score.items(), key=lambda x: (-x[1], x[0]))[:2]
    force_prune(True)
    got = idx.search("qqqa qqqb", 2)
    assert got == want
    force_prune(False)
    assert got == idx.search("qqqa qqqb", 2)


def test_scorer_stage(ray_session, built_index, oracle):
    import ray.data as rd

    out, _ = built_index
    queries = generate_queries(12)
    ds = rd.from_arrow(queries).map_batches(
        BM25Scorer,
        batch_format="pyarrow",
        batch_size=4,
        concurrency=2,
        fn_constructor_kwargs={"index_dir": out, "k": 5},
    )
    df = ds.to_pandas().sort_values(["query_id", "rank"])
    for qid, g in df.groupby("query_id"):
        text = queries.column("text")[int(qid)].as_py()
        want = oracle.search(text, k=5)
        got = list(zip(g["docid"], g["score"]))
        assert [(int(d), float(s)) for d, s in got] == want


def test_resume_skips_epochs(built_index, webtext_small):
    out, _ = built_index
    stats2 = build_index(webtext_small, out, num_buckets=4,
                         num_salts=3, heavy_min_df=20)
    assert stats2["timings"] == {}  # every epoch skipped via manifest


@pytest.mark.parametrize(
    "victim_glob, epochs",
    [
        ("postings/bucket-*.parquet", ["postings"]),
        ("doclens/part-*.bin", ["doclens"]),
        ("docvalues/part-*.bin", ["docvalues"]),
        # postings are built from the stats epoch's heavy terms and salts
        ("stats.json", ["stats", "postings"]),
    ],
    ids=["bucket", "doclens_part", "docvalues_part", "stats_json"],
)
def test_resume_rebuilds_missing_bucket(
    built_index, webtext_small, oracle, victim_glob, epochs
):
    """A committed epoch whose output file went missing re-runs on the
    next build, with the epochs built from it; every other epoch's
    manifest still verifies and is skipped.  The rebuilt index opens and
    serves the oracle's rankings."""
    out, _ = built_index
    victim = sorted(glob.glob(os.path.join(out, victim_glob)))[0]
    os.remove(victim)
    stats3 = build_index(webtext_small, out, num_buckets=4, num_salts=3,
                         docvalues=True, heavy_min_df=20)
    assert list(stats3["timings"]) == [f"{e}_s" for e in epochs]
    assert os.path.exists(victim)
    idx = BM25Index(out)
    for text in generate_queries(5).column("text").to_pylist():
        assert idx.search(text, k=10) == oracle.search(text, k=10), text


def test_equal_size_rewrite_rebuilds_corpus(ray_session, tmp_root):
    """The corpus epoch's fingerprint carries each input file's mtime: an
    uncompressed input rewritten in place with one doc's text changed to
    an equal-length string keeps its size, and the next build must still
    re-run the corpus epoch and serve the new text."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from terrier_ray.datagen.webtext import generate_webtext_parquet

    web = generate_webtext_parquet(
        os.path.join(str(tmp_root), "webtext_uncompressed"), num_docs=300, seed=11
    )
    part = sorted(glob.glob(os.path.join(web, "*.parquet")))[0]
    tab = pq.read_table(part)
    pq.write_table(tab, part, compression="none")
    out = os.path.join(str(tmp_root), "index_equal_size")
    kw = dict(num_buckets=4, num_salts=2)
    build_index(web, out, **kw)

    urls = tab.column("url").to_pylist()
    texts = tab.column("text").to_pylist()
    # a doc with its own url and pre-extracted text, neither the min nor
    # the max text (its prefix is kept, so the footer stats keep their size)
    i = next(j for j, t in enumerate(texts)
             if t and len(t) > 40 and urls.count(urls[j]) == 1
             and min(x for x in texts if x) < t < max(texts))
    half = len(texts[i]) // 2
    texts[i] = texts[i][:half] + (" zzqmarker" * len(texts[i]))[: len(texts[i]) - half]
    size = os.path.getsize(part)
    tab = tab.set_column(tab.column_names.index("text"), "text",
                         pa.array(texts, type=pa.string()))
    pq.write_table(tab, part, compression="none")
    assert os.path.getsize(part) == size

    stats = build_index(web, out, **kw)
    assert "corpus_s" in stats["timings"]
    oracle = OracleBM25(web)
    idx = BM25Index(out)
    got = idx.search("zzqmarker", 10)
    assert got == oracle.search("zzqmarker", 10)
    assert [d for d, _ in got] == [int(url_doc_id([urls[i]])[0])]


def test_index_dir_relocates(ray_session, webtext_small, oracle, tmp_root):
    """A built index records no absolute path (manifests hold paths
    relative to the index dir or to their source, bucket_metrics.parquet
    relative to the index dir), so a moved index resumes with every epoch
    skipped and serves the oracle's rankings."""
    import json

    import pyarrow.parquet as pq

    out = os.path.join(str(tmp_root), "index_relocate")
    kw = dict(num_buckets=4, num_salts=3, heavy_min_df=20)
    build_index(webtext_small, out, **kw)
    for m in glob.glob(os.path.join(out, "_manifest", "*.json")):
        with open(m) as f:
            assert out not in f.read(), m
        with open(m) as f:
            json.load(f)
    cells = pq.read_table(os.path.join(out, "bucket_metrics.parquet")).to_pylist()
    assert cells and not any(out in str(v) for row in cells for v in row.values())

    moved = out + "_moved"
    os.rename(out, moved)
    assert build_index(webtext_small, moved, **kw)["timings"] == {}
    idx = BM25Index(moved)
    for text in generate_queries(10).column("text").to_pylist():
        assert idx.search(text, k=10) == oracle.search(text, k=10), text


def test_distributed_matches_local(ray_session, built_index, oracle):
    """Default search_many is the SHARD-SIDE engine (verdict r4 #1): spy
    that search_many_sharded is what it routes through, and that results
    stay rank-AND-score-identical to the oracle."""
    from terrier_ray.index.bm25 import DistributedBM25

    out, _ = built_index
    engine = DistributedBM25(out)
    calls = []
    orig = engine.search_many_sharded

    def spy(queries, k=10, num_shards=None):
        calls.append(len(queries))
        return orig(queries, k=k, num_shards=num_shards)

    engine.search_many_sharded = spy
    queries = generate_queries(20)
    texts = queries.column("text").to_pylist()
    res = engine.search_many(texts, k=10)
    assert calls == [len(texts)]  # default path IS shard-side scoring
    for text, got in zip(texts, res):
        assert got == oracle.search(text, k=10), text


def test_one_segment_is_the_monolithic_index(ray_session, built_index):
    """A monolithic index is one segment with no tombstones: the segmented
    readers over ``[index]`` equal the monolithic ones bit for bit, on
    generated queries and on their stopword-band variants."""
    from terrier_ray.index.bm25 import (
        DistributedBM25,
        DistributedSegmentedBM25,
        SegmentedBM25,
    )

    out, _ = built_index
    idx = BM25Index(out)
    seg = SegmentedBM25([out])
    assert (seg.n_docs, seg.avgdl) == (idx.n_docs, idx.avgdl)
    texts = generate_queries(20).column("text").to_pylist()
    qs = texts + [t + " the of and" for t in texts]
    for q in qs:
        assert seg.search(q, 10) == idx.search(q, 10), q
    want = DistributedBM25(out).search_many(qs, k=10)
    assert sum(bool(r) for r in want) > len(texts)
    assert DistributedSegmentedBM25([out]).search_many(qs, k=10) == want


def test_read_path_reaches_traced_layers(built_index, monkeypatch):
    """The benchmark's traced run wraps these attributes by name
    (perfbench/workloads.py::install_wrappers); a read path that bypasses
    one reports 0 for its layer and fails nothing.  So: a first-touch
    ``BM25Index.search`` on a fresh handle reaches ``lookup``,
    ``score_all``, ``bm25.decode_final_postings`` and the row-group
    fetch, and fills ``_cache``; ``SegmentedBM25.search`` reaches every
    segment's ``lookup``."""
    import pyarrow.parquet as pq

    from terrier_ray.index import bm25

    calls: list[tuple[str, object]] = []

    def spy(owner, name):
        orig = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append((name, args[0] if args else None))
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("lookup", "score_all", "search"):
        spy(bm25.BM25Index, name)
    spy(bm25, "decode_final_postings")
    spy(pq.ParquetFile, "read_row_groups")
    spy(bm25.SegmentedBM25, "search")

    out, _ = built_index
    q = generate_queries(1).column("text")[0].as_py()
    idx = BM25Index(out)
    assert idx.search(q, 10)
    names = [n for n, _ in calls]
    for name in ("search", "score_all", "lookup", "decode_final_postings",
                 "read_row_groups"):
        assert name in names, name
    assert any(t in idx._cache for t in bm25._query_terms(q))

    calls.clear()
    seg = bm25.SegmentedBM25([out, out])  # two segment handles
    seg.search(q, 10)
    looked_up = {id(obj) for n, obj in calls if n == "lookup"}
    assert [n for n, _ in calls][0] == "search"
    assert {id(s) for s in seg.segments} <= looked_up


def test_traced_wrap_targets_exist():
    """The traced benchmark run wraps named attributes across the build,
    segments, SQL and snapshot layers (perfbench/workloads.py
    ``install_wrappers``).  A rename or deletion of any of them fails
    here instead of reading 0 in the traced run."""
    import sys

    pb = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    sys.path.insert(0, pb)
    try:
        import workloads
        from spans import Tracer

        tracer = Tracer()
        try:
            workloads.install_wrappers(tracer)
            wrapped = {(getattr(o, "__name__", ""), a) for o, a, _ in tracer._patched}
        finally:
            tracer.restore()
    finally:
        sys.path.remove(pb)
    for target in [("BM25Index", "search"), ("SegmentedBM25", "search"),
                   ("terrier_ray.index.build", "build_index"),
                   ("terrier_ray.index.segments", "sync_snapshot_dml"),
                   ("terrier_ray.sql", "plan"),
                   ("terrier_ray.state.snapshots", "update_rows")]:
        assert target in wrapped, target


def test_stats_without_salted_terms_raises(built_index, tmp_root):
    """Every stats.json build_index writes lists ``salted_terms``; one
    without it is not a servable index and fails to open."""
    import json

    out, _ = built_index
    with open(os.path.join(out, "stats.json")) as f:
        stats = json.load(f)
    del stats["salted_terms"]
    broken = os.path.join(str(tmp_root), "idx_no_salted_terms")
    os.makedirs(broken, exist_ok=True)
    with open(os.path.join(broken, "stats.json"), "w") as f:
        json.dump(stats, f)
    with pytest.raises(KeyError, match="salted_terms"):
        BM25Index(broken)


def test_pruned_matches_oracle(built_index, oracle, force_prune):
    out, _ = built_index
    idx = BM25Index(out)
    queries = generate_queries(30)
    force_prune(True)
    for text in queries.column("text").to_pylist():
        # include stopword-heavy variants (the pruning-heavy path)
        for q in (text, text + " the of and a to"):
            assert idx.search(q, 10) == oracle.search(q, 10), q


def test_ef_path_rank_identical(ray_session, webtext_small, tmp_root, oracle):
    """Elias–Fano long-list container on the PRODUCTION path: lower the
    df threshold so common terms encode as EF, rebuild, and require the same
    rank-identity the varbyte path passes."""
    out = os.path.join(str(tmp_root), "index_ef")
    build_index(webtext_small, out, num_buckets=4, num_salts=3,
                heavy_min_df=20, ef_threshold=8)
    idx = BM25Index(out)
    # confirm EF format actually present in the stored postings
    import pyarrow.parquet as pq

    fmts = set()
    for f in glob.glob(os.path.join(out, "postings", "bucket-*.parquet")):
        for buf in pq.read_table(f, columns=["postings"]).column("postings").to_pylist():
            if buf:
                fmts.add(buf[0])
    assert 1 in fmts, "no Elias-Fano-encoded posting list was written"
    queries = generate_queries(64).column("text").to_pylist()
    for q in queries:
        mine = idx.search(q, 10)
        want = oracle.search(q, 10)
        assert [(d, s) for d, s in mine] == [(d, s) for d, s in want], q


def test_boolean_search_vs_naive(built_index):
    import numpy as np
    import pyarrow.dataset as pads

    out, _stats = built_index
    idx = BM25Index(out)
    corpus = pads.dataset(os.path.join(out, "corpus")).to_table(
        columns=["docid", "terms"]
    )
    docsets = {
        int(d): set(ts)
        for d, ts in zip(
            corpus.column("docid").to_pylist(), corpus.column("terms").to_pylist()
        )
    }
    # pick live vocabulary from the corpus itself
    from collections import Counter

    cnt = Counter(t for s in docsets.values() for t in s)
    common = [t for t, _ in cnt.most_common(3)]
    rare = [t for t, c in cnt.items() if c <= 3][:2]
    cases = [
        dict(must=[common[0], common[1]]),
        dict(must=[common[0]], must_not=[common[1]]),
        dict(should=[rare[0], common[2]] if rare else [common[2]]),
        dict(must=[common[0]], should=[common[1], common[2]], must_not=rare[:1]),
        dict(must_not=[common[0]]),  # pure NOT → corpus complement
    ]
    for case in cases:
        got = set(int(x) for x in idx.search_boolean(**case))
        want = set()
        for d, terms in docsets.items():
            ok = all(t in terms for t in case.get("must", []))
            if ok and case.get("should"):
                ok = any(t in terms for t in case["should"])
            if ok and case.get("must_not"):
                ok = not any(t in terms for t in case["must_not"])
            if ok:
                want.add(d)
        assert got == want, case


def test_segmented_index_rank_and_score_identical(
    ray_session, built_index, webtext_small, tmp_root
):
    """Delta-segment queries must be bit-identical to the monolithic index."""
    import pyarrow.parquet as pq

    from terrier_ray.datagen.webtext import generate_queries
    from terrier_ray.index.bm25 import SegmentedBM25
    from terrier_ray.index.segments import add_segment, compact_segments

    out, _stats = built_index
    # split the corpus rows into two disjoint "ingest batches"
    src = sorted(
        f
        for f in os.listdir(webtext_small)
        if f.endswith(".parquet")
    )
    tab = pq.read_table(os.path.join(webtext_small, src[0]))
    # split by url hash so the generator's planted DUPLICATE urls land in the
    # same segment (segments must hold disjoint docids — the ingest contract)
    from terrier_ray.datagen.webtext import url_doc_id

    side = url_doc_id(tab.column("url")) % 2 == 0
    import pyarrow as pa_

    mask = pa_.array(side)
    roots = os.path.join(str(tmp_root), "segments")
    parts = []
    for name, sl in [
        ("batch_a", tab.filter(mask)),
        ("batch_b", tab.filter(pa_.compute.invert(mask))),
    ]:
        d = os.path.join(str(tmp_root), name)
        os.makedirs(d, exist_ok=True)
        pq.write_table(sl, os.path.join(d, "webtext-000.parquet"))
        parts.append(d)
    segs = [
        add_segment(roots, p, num_buckets=4, num_salts=3,
                    heavy_min_df=20)
        for p in parts
    ]
    seg_idx = SegmentedBM25(segs)
    mono = BM25Index(out)
    assert seg_idx.n_docs == mono.n_docs
    assert seg_idx.avgdl == mono.avgdl
    for q in generate_queries(15).column("text").to_pylist():
        a = mono.search(q, k=10)
        b = seg_idx.search(q, k=10)
        assert a == b, q  # docids AND float64 scores, exact

    # compaction over the union corpus reproduces the monolithic results too
    comp = compact_segments(parts, os.path.join(str(tmp_root), "compacted"),
                            num_buckets=4, num_salts=3,
                            heavy_min_df=20)
    comp_idx = BM25Index(comp)
    for q in generate_queries(5).column("text").to_pylist():
        assert comp_idx.search(q, k=10) == mono.search(q, k=10), q


def test_bm25_snippets_contain_query_terms(ray_session):
    from terrier_ray.datagen.webtext import generate_queries
    from terrier_ray.index.bm25 import _query_terms
    from terrier_ray.pipelines.fulltext import bm25_snippets

    out = bm25_snippets("/root/testdata/sf0.001", k=3, num_queries=4).to_pandas()
    assert len(out) > 0
    queries = generate_queries(4)
    terms_by_q = {
        qid: set(_query_terms(t))
        for qid, t in zip(
            queries.column("query_id").to_pylist(),
            queries.column("text").to_pylist(),
        )
    }
    for _, row in out.iterrows():
        snip_toks = set(row["snippet"].split())
        # every retrieved doc contains at least one query term, and the
        # chosen window must surface it
        assert snip_toks & terms_by_q[row["query_id"]], row["snippet"]


def test_terms_in_range_vs_df_map(built_index, oracle):
    out, _ = built_index
    idx = BM25Index(out)
    t = idx.terms_in_range(prefix="w")
    got = dict(zip(t.column("term").to_pylist(), t.column("df").to_pylist()))
    want = {k: v for k, v in oracle.df.items() if k.startswith("w")}
    assert got == want
    assert t.column("term").to_pylist() == sorted(want)  # sorted contract
    lo_hi = idx.terms_in_range(lo="m", hi="p")
    terms = lo_hi.column("term").to_pylist()
    assert terms and all("m" <= x < "p" for x in terms)


def test_terms_descending_limit_vs_df_map(built_index, oracle):
    """IndexScanType Descending / DescendingLimit analog: exact vs the
    reversed oracle df map, with and without the per-bucket limit."""
    out, _ = built_index
    idx = BM25Index(out)

    full_desc = idx.terms_in_range(lo="m", hi="p", descending=True)
    want = sorted((k for k in oracle.df if "m" <= k < "p"), reverse=True)
    assert full_desc.column("term").to_pylist() == want
    got_df = dict(
        zip(full_desc.column("term").to_pylist(), full_desc.column("df").to_pylist())
    )
    assert got_df == {k: oracle.df[k] for k in want}

    k = max(1, len(want) // 3)
    lim = idx.terms_in_range(lo="m", hi="p", descending=True, limit=k)
    assert lim.column("term").to_pylist() == want[:k]

    asc_lim = idx.terms_in_range(prefix="w", limit=5)
    want_asc = sorted(t for t in oracle.df if t.startswith("w"))[:5]
    assert asc_lim.column("term").to_pylist() == want_asc

    empty = idx.terms_in_range(lo="￿", descending=True, limit=3)
    assert empty.num_rows == 0 and empty.column_names == ["term", "df", "cf"]


def test_three_segment_incremental_ingest(ray_session, webtext_small, tmp_root):
    """Three delta ingests, idempotent re-add, still exact vs monolithic."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from terrier_ray.datagen.webtext import generate_queries, url_doc_id
    from terrier_ray.index.bm25 import SegmentedBM25
    from terrier_ray.index.segments import add_segment, list_segments

    src = sorted(f for f in os.listdir(webtext_small) if f.endswith(".parquet"))
    tab = pq.read_table(os.path.join(webtext_small, src[0]))
    side = url_doc_id(tab.column("url")) % 3
    roots = os.path.join(str(tmp_root), "segments3")
    parts = []
    for i in range(3):
        d = os.path.join(str(tmp_root), f"ingest_{i}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            tab.filter(pa.array(side == i)), os.path.join(d, "webtext-000.parquet")
        )
        parts.append(d)
    segs = [
        add_segment(roots, p, num_buckets=4, num_salts=3,
                    heavy_min_df=20)
        for p in parts
    ]
    # idempotent: re-adding an already-built segment is a no-op resume
    assert add_segment(roots, parts[0], num_buckets=4,
                       num_salts=3, heavy_min_df=20) == segs[0]
    assert list_segments(roots) == sorted(segs)

    from terrier_ray.index.build import build_index

    mono_dir = os.path.join(str(tmp_root), "mono3")
    build_index(webtext_small, mono_dir, num_buckets=4,
                num_salts=3, heavy_min_df=20)
    from terrier_ray.index.bm25 import BM25Index

    mono = BM25Index(mono_dir)
    seg = SegmentedBM25(segs)
    for q in generate_queries(10).column("text").to_pylist():
        assert seg.search(q, k=10) == mono.search(q, k=10), q


def test_scale_paths_build_identical_corpus(
    ray_session, webtext_small, tmp_root, monkeypatch
):
    """The at-scale corpus paths (Ray per-block-partial url dedup + the
    distributed dup-resolve shuffle) must produce byte-identical corpus
    CONTENT to the small-input driver-side paths."""
    import pyarrow.dataset as pads

    from terrier_ray.index import build as B

    def corpus_key(d):
        tab = (
            pads.dataset(d)
            .to_table(columns=["docid", "warc_ts", "dl", "terms", "tfs"])
            .sort_by("docid")
        )
        return tab

    small_dir = os.path.join(str(tmp_root), "corpus_paths_small")
    B.build_corpus(webtext_small, small_dir)

    monkeypatch.setattr(B, "_PARALLEL_URL_BYTES", 0)
    monkeypatch.setattr(B, "_DRIVER_DUP_ROWS", 0)
    big_dir = os.path.join(str(tmp_root), "corpus_paths_big")
    B.build_corpus(webtext_small, big_dir)

    a, b = corpus_key(small_dir), corpus_key(big_dir)
    assert a.num_rows == b.num_rows
    assert a.equals(b)


def test_heavy_term_salted_subpostings(ray_session, tmp_root, force_prune):
    """Skew mitigation (north rule): plant a df≈N term and require that the
    single-exchange build splits it into docid-range sub-postings — max
    per-group posting rows bounded by ~df/num_salts — while search stays
    rank-AND-score-identical to an unsalted build of the same corpus."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from terrier_ray.datagen.webtext import generate_queries, generate_webtext_parquet
    from terrier_ray.index.build import build_index

    src = os.path.join(str(tmp_root), "webtext_planted")
    generate_webtext_parquet(src, num_docs=300, seed=7)
    # plant the token 'zzzhot' into (nearly) every document: html is binary
    # and ~30% of rows carry pre-extracted text the extractor keeps, so
    # plant in BOTH columns (empty html pages stay empty — df ≲ N)
    f = sorted(glob.glob(os.path.join(src, "*.parquet")))[0]
    tab = pq.read_table(f)
    html = [
        h.replace(b"</body>", b" zzzhot zzzhot</body>") if h else h
        for h in tab.column("html").to_pylist()
    ]
    text = [t + " zzzhot zzzhot" if t else t for t in tab.column("text").to_pylist()]
    tab = tab.set_column(
        tab.column_names.index("html"), "html", pa.array(html, pa.binary())
    )
    tab = tab.set_column(
        tab.column_names.index("text"), "text", pa.array(text, pa.string())
    )
    pq.write_table(tab, f)

    salts = 4
    salted_dir = os.path.join(str(tmp_root), "idx_planted_salted")
    stats = build_index(src, salted_dir, num_buckets=8, num_salts=salts,
                        heavy_min_df=50)
    assert "zzzhot" in stats["heavy_terms"]

    # post-fold the planted term has exactly ONE row, in its PRIMARY bucket,
    # holding an fmt-2 multi-part container whose parts are the exchange-time
    # docid-range sub-postings — parse the container header to verify the
    # split really happened and was balanced
    from terrier_ray.index.build import term_hash

    rows = []
    for bf in glob.glob(os.path.join(salted_dir, "postings", "bucket-*.parquet")):
        t = pq.read_table(bf, filters=[("term", "==", "zzzhot")])
        rows.extend(zip([bf] * t.num_rows, t.column("df").to_pylist(),
                        t.column("postings").to_pylist(), t.column("block_last").to_pylist()))
    assert len(rows) == 1, "fold pass left multiple rows"
    bf, total_df, blob, block_last = rows[0]
    primary = int(term_hash(np.asarray(["zzzhot"], dtype=object))[0] % 8)
    assert bf.endswith(f"bucket-{primary:05d}.parquet")
    n = stats["n_docs"]
    # ~1/8 of generated pages end in an unterminated <script> the extractor
    # strips to EOF (plant swallowed), so coverage is ~87%, not 100%
    assert total_df >= 0.8 * n
    assert blob[0] == 2, "merged row is not a multi-part container"
    nparts = int.from_bytes(blob[1:5], "little")
    assert nparts >= 2, "heavy term was not exchange-split"
    lens = np.frombuffer(blob[5 : 5 + 4 * nparts], dtype=np.uint32)
    offs = 5 + 4 * nparts + np.concatenate(([0], np.cumsum(lens)))
    part_n = [
        int.from_bytes(blob[int(o) + 1 : int(o) + 5], "little") for o in offs[:-1]
    ]
    assert sum(part_n) == total_df
    # docid-range salting over uniform 63-bit docids: no part should hold
    # more than ~2x the fair share
    assert max(part_n) <= max(2 * total_df // salts, 1), part_n

    unsalted_dir = os.path.join(str(tmp_root), "idx_planted_unsalted")
    build_index(src, unsalted_dir, num_buckets=8, num_salts=1, heavy_min_df=50)

    a = BM25Index(salted_dir)
    b = BM25Index(unsalted_dir)
    # merged lookup must reconstruct the identical posting list; the folded
    # row's block metadata stays sorted
    pa_, pb_ = a.lookup(["zzzhot"])["zzzhot"], b.lookup(["zzzhot"])["zzzhot"]
    assert pa_[0] == pb_[0] == total_df
    assert np.array_equal(pa_[1], pb_[1]) and np.array_equal(pa_[2], pb_[2])
    block_last = np.frombuffer(block_last, dtype="<u8")
    assert np.array_equal(np.sort(block_last), block_last)  # block_last still sorted
    for pruned in (False, True):
        force_prune(pruned)
        for q in ["zzzhot", "zzzhot weather news", "the zzzhot of"]:
            assert a.search(q, 10) == b.search(q, 10), (pruned, q)
    force_prune(False)
    queries = generate_queries(20).column("text").to_pylist()
    for q in queries:
        assert a.search(q, 10) == b.search(q, 10), q


def test_lpt_grouped_exchange_rank_identical(ray_session, webtext_small, tmp_root, oracle):
    """num_buckets > 64 forces the postings exchange into LPT-packed
    multi-bucket groups (64 balanced gkeys); the group builder must route
    every row back to its true (term, salt) bucket — rank-AND-score
    identical to the oracle, with every expected bucket file present."""
    out = os.path.join(str(tmp_root), "idx_lpt130")
    build_index(webtext_small, out, num_buckets=130, num_salts=3, heavy_min_df=20)
    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(out, "postings", "bucket-*.parquet"))
    assert len(files) > 64  # more buckets than exchange groups
    # df across all bucket files must reconstruct the oracle's df map
    engine_df: dict[str, int] = {}
    for f in files:
        t = pq.read_table(f, columns=["term", "df"])
        for term, df in zip(t.column("term").to_pylist(), t.column("df").to_pylist()):
            engine_df[term] = engine_df.get(term, 0) + df
    assert engine_df == oracle.df
    idx = BM25Index(out)
    for q in generate_queries(30).column("text").to_pylist():
        assert idx.search(q, 10) == oracle.search(q, 10), q


def test_phrase_matches_vs_naive_scan(ray_session):
    """phrase_matches (AND over the index + pruned-fetch adjacency verify)
    must agree EXACTLY — docids and occurrence counts — with a naive scan
    of every doc's token stream under the same dedup winner rule."""
    from terrier_ray.datagen.webtext import webtext_for_sf
    from terrier_ray.pipelines.fulltext import phrase_matches
    from terrier_ray.text.tokenize import tokenize

    sf = "/root/testdata/sf0.001"
    out = phrase_matches(sf)
    assert out.num_rows > 0
    phrases = dict(
        zip(out.column("phrase_id").to_pylist(), out.column("phrase").to_pylist())
    )
    got: dict[int, dict[int, int]] = {}
    for pid, d, n in zip(
        out.column("phrase_id").to_pylist(),
        out.column("docid").to_pylist(),
        out.column("n_occurrences").to_pylist(),
    ):
        got.setdefault(pid, {})[d] = n

    oracle = OracleBM25(webtext_for_sf(sf))
    for pid, p in phrases.items():
        seq = tokenize(p)
        want: dict[int, int] = {}
        for d, toks in oracle.doc_tokens.items():
            c = sum(
                1
                for i in range(len(toks) - len(seq) + 1)
                if toks[i : i + len(seq)] == seq
            )
            if c:
                want[d] = c
        assert got[pid] == want, p
        assert want, f"mined phrase {p!r} must match its seed doc"


def test_positional_index_and_phrases(ray_session, webtext_small, tmp_root, oracle, monkeypatch):
    """build_index(positions=True): positions_for must return the exact
    token positions (incl. salted heavy terms), BM25 scoring must stay
    rank-identical, the size overhead must be logged, and the positional
    phrase matcher must agree with the naive scan AND the scan-plan matcher
    with ZERO corpus text reads in the matching phase (spy-asserted)."""
    import numpy as np

    import terrier_ray.pipelines.fulltext as ft
    from terrier_ray.index.bm25 import BM25Index
    from terrier_ray.text.tokenize import tokenize

    out = os.path.join(str(tmp_root), "idx_positional")
    st = build_index(webtext_small, out, num_buckets=6, num_salts=3,
                     heavy_min_df=20, positions=True)
    assert st.get("positions_bytes", 0) > 0  # overhead logged
    idx = BM25Index(out)
    assert idx.has_positions

    # exact positions for a rare term and a salted heavy term
    heavy = st["heavy_terms"][0]
    for term in ["weather", heavy]:
        hits = idx.search_boolean(must=[term])
        if not len(hits):
            continue
        sample = [int(h) for h in hits[:5]] + [int(hits[-1])]
        got = idx.positions_for(term, sample)
        for d in sample:
            want = [i for i, t in enumerate(oracle.doc_tokens[d]) if t == term]
            assert got[d].tolist() == want, (term, d)

    # scoring unchanged by the sidecar
    for q in generate_queries(10).column("text").to_pylist():
        assert idx.search(q, 10) == oracle.search(q, 10), q

    # phrase matching: positional == scan plan == naive oracle scan,
    # with the corpus text fetch FORBIDDEN during positional matching
    web = webtext_small
    phrases = ft._mine_phrases(idx, web, 5)
    assert phrases
    scan_rows = ft._match_phrases_scan(idx, web, phrases)

    def no_fetch(*a, **k):
        raise AssertionError("positional phrase matching fetched corpus text")

    monkeypatch.setattr(ft, "_fetch_indexed_texts", no_fetch)
    pos_rows = ft._match_phrases_positional(idx, phrases)
    assert pos_rows.num_rows == scan_rows.num_rows > 0
    assert pos_rows.to_pydict() == scan_rows.to_pydict()
    # and vs the naive full scan over every doc's token stream
    for pid, p in enumerate(phrases):
        seq = tokenize(p)
        want = {
            d: c
            for d, toks in oracle.doc_tokens.items()
            if (c := sum(1 for i in range(len(toks) - len(seq) + 1)
                         if toks[i : i + len(seq)] == seq))
        }
        got = {
            d: n
            for q_pid, d, n in zip(
                pos_rows.column("phrase_id").to_pylist(),
                pos_rows.column("docid").to_pylist(),
                pos_rows.column("n_occurrences").to_pylist(),
            )
            if q_pid == pid
        }
        assert got == want, p


def _wire_rows(tab):
    """(term, docid, tf, dl) row multiset — the wire contract: order is
    free (the builder lexsorts) and salt/gkey are recomputed reduce-side."""
    return sorted(
        zip(
            tab.column("term").to_pylist(),
            tab.column("docid").to_pylist(),
            tab.column("tf").to_pylist(),
            tab.column("dl").to_pylist(),
        )
    )


def test_exchange_wire_format_roundtrip():
    """Wire format v2 (docid-sorted delta+varbyte docids, per-unique-doc
    dl, length-prefixed term dictionary, salt/gkey dropped) must round-trip
    the (term, docid, tf, dl) row MULTISET exactly, shrink the payload
    ≥2.3x even with all-distinct docids, and widen adaptively when a
    column's max exceeds the narrow width."""
    import numpy as np
    import pyarrow as pa

    from terrier_ray.index.build import _pack_exchange, _unpack_exchange

    rng = np.random.default_rng(7)
    n = 20_000
    vocab = np.array([f"term{i:04d}" for i in range(500)], dtype=object)
    # realistic shape: ~6k docs, several postings each, dl a per-DOC value
    docs = np.sort(rng.integers(0, 2**63, 6000, dtype=np.int64))
    di = rng.integers(0, len(docs), n)
    raw = pa.table(
        {
            "term": pa.array(vocab[rng.integers(0, 500, n)]),
            "docid": pa.array(docs[di]),
            "tf": pa.array(rng.integers(1, 5, n).astype(np.int32)),
            "dl": pa.array(((docs[di] % 2950) + 50).astype(np.int32)),
            "salt": pa.array(rng.integers(0, 4, n).astype(np.int32)),
            "gkey": pa.array(np.zeros(n, np.int32)),
        }
    )
    packed = _pack_exchange(raw)
    assert packed.num_rows == 1  # one-row all-blob table
    assert raw.nbytes / packed.nbytes > 2.3, raw.nbytes / packed.nbytes
    back = _unpack_exchange(packed)
    assert pa.types.is_dictionary(back.column("term").type)
    assert back.column("tf").type == pa.int32()
    assert "salt" not in back.column_names  # recomputed in build_group
    assert _wire_rows(back) == _wire_rows(raw)

    # width fallback: one 70k tf widens the tf blob, values still exact
    wide = raw.set_column(
        raw.column_names.index("tf"),
        "tf",
        pa.array(np.concatenate(([70_000], np.ones(n - 1))).astype(np.int32)),
    )
    assert _wire_rows(_unpack_exchange(_pack_exchange(wide))) == _wire_rows(wide)

    # empty part stays consistent
    empty = _pack_exchange(raw.slice(0, 0))
    assert _unpack_exchange(empty).num_rows == 0


def test_doclens_sidecar_memmap(built_index):
    """Scorer doclen state is a docid-sorted memmap sidecar (O(touched
    pages) per actor, not O(N) heap), exact vs the corpus scan."""
    import numpy as np
    import pyarrow.dataset as pads

    out, _ = built_index
    assert os.path.exists(os.path.join(out, "doclens", "meta.json"))
    idx = BM25Index(out)
    assert all(isinstance(d, np.memmap) for d, _ in idx.doclens.parts)
    corpus = pads.dataset(os.path.join(out, "corpus")).to_table(
        columns=["docid", "dl"]
    )
    d = corpus.column("docid").to_numpy(zero_copy_only=False).astype(np.int64)
    l = corpus.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
    got = idx.doc_len(d)
    assert np.array_equal(got, l)
    assert got.dtype == np.float64


@pytest.mark.parametrize(
    "name, column, dtype",
    [("doclens", "dl", "<i4"), ("docvalues", "lang", "<u2"),
     ("docvalues_ts", "warc_ts", "<i8")],
    ids=["doclens", "docvalues", "docvalues_ts"],
)
def test_sidecar_distributed_path_identical(
    built_index, ray_session, tmp_root, monkeypatch, name, column, dtype
):
    """The large-corpus sidecar path (Ray sort + in-task part writes) must
    write the same decoded docid→value map (and the same dictionary) as
    the driver-side sort, in disjoint ascending parts, and never move the
    payload through the driver."""
    import json

    import numpy as np

    from terrier_ray.index import build as build_mod

    out, _ = built_index
    corpus_dir = os.path.join(out, "corpus")

    def read_all(side_dir):
        with open(os.path.join(side_dir, "meta.json")) as f:
            meta = json.load(f)
        dids, vals = [], []
        prev_hi = -1
        for p in meta["parts"]:
            fp = os.path.join(side_dir, p["file"])
            n = p["n"]
            did = np.fromfile(fp, dtype="<i8", count=n)
            val = np.fromfile(fp, dtype=dtype, offset=8 * n, count=n)
            assert p["lo"] == int(did[0]) and p["hi"] == int(did[-1])
            assert p["lo"] > prev_hi, "parts must be disjoint ascending ranges"
            prev_hi = p["hi"]
            dids.append(did)
            vals.append(val)
        return meta, np.concatenate(dids), np.concatenate(vals)

    drv_dir = os.path.join(str(tmp_root), f"{name}_driver")
    build_mod.build_docid_sidecar(corpus_dir, drv_dir, column)

    # force the distributed branch with small in-task parts (splits inside
    # a single sorted block are exercised too)
    monkeypatch.setattr(build_mod, "_DRIVER_SIDE_BYTES", 0)
    monkeypatch.setattr(build_mod, "_SIDECAR_PART_ROWS", 64)
    dist_dir = os.path.join(str(tmp_root), f"{name}_dist")
    build_mod.build_docid_sidecar(corpus_dir, dist_dir, column)

    meta_a, d_a, v_a = read_all(drv_dir)
    meta_b, d_b, v_b = read_all(dist_dir)
    assert len(meta_b["parts"]) > 1
    assert meta_a["n"] == meta_b["n"] == len(d_a)
    assert meta_a.get("dict") == meta_b.get("dict")
    assert np.array_equal(d_a, d_b)
    assert np.array_equal(v_a, v_b)
    # the driver-side build is the one build_index wrote
    _, d_idx, v_idx = read_all(os.path.join(out, name))
    assert np.array_equal(d_a, d_idx) and np.array_equal(v_a, v_idx)


def test_index_without_doclens_sidecar_raises(built_index, tmp_root):
    """Every index build_index writes has a doclens epoch; a directory
    without the sidecar is not a servable index and fails to open."""
    import shutil

    out, _ = built_index
    broken = os.path.join(str(tmp_root), "idx_no_doclens")
    shutil.copytree(out, broken, ignore=shutil.ignore_patterns("doclens"))
    with pytest.raises(FileNotFoundError, match="doclens"):
        BM25Index(broken)


def test_distributed_sharded_rank_identical(built_index):
    """search_many_sharded: shard-side scoring over docid ranges + k-list
    merge must be rank-AND-score-identical to the single-process search —
    per-shard idf is global (fold-pass df sums), docs live in exactly one
    shard, accumulation stays query-term-ordered."""
    from terrier_ray.index.bm25 import BM25Index, DistributedBM25

    out, _ = built_index
    idx = BM25Index(out)
    engine = DistributedBM25(out)
    texts = generate_queries(15).column("text").to_pylist()
    for shards in (None, 3, 7):
        got = engine.search_many_sharded(texts, k=10, num_shards=shards)
        for q, hits in zip(texts, got):
            assert hits == idx.search(q, 10), (shards, q)


def test_auto_tune_layout_knobs():
    """auto_tune (r4 verdict #8): reproduces today's hand-picked layout at
    every test/bench corpus size, grows monotonically, and respects the
    64M-postings-per-bucket cap at 1e12 docs."""
    from terrier_ray.index.build import auto_tune

    # today's choices reproduced (webtext avg unique terms/doc ~ 110-150)
    for n in (1000, 8000, 60_000):
        for uniq in (100.0, 130.0, 150.0):
            assert auto_tune(n, uniq) == (16, 4), (n, uniq)

    # monotone nondecreasing in corpus size
    prev_b = prev_s = 0
    for n in (1_000, 60_000, 1_000_000, 7_680_000, 10**9, 10**12):
        b, s = auto_tune(n, 130.0)
        assert b >= prev_b and s >= prev_s, n
        assert b & (b - 1) == 0  # power of two
        prev_b, prev_s = b, s

    # per-bucket cap holds at web scale
    b, s = auto_tune(10**12, 130.0)
    assert (10**12 * 130.0) / b <= (64 << 20)
    assert 4 <= s <= 64


def test_fuzzy_expand_matches_oracle(built_index, oracle):
    """Expansion set, edit distances, dfs, AND pinned order (ed asc, df
    desc, term asc) identical to the independent oracle scan over the full
    df map — exercises the prefix-pruned dictionary scan + banded OSA DP
    against the full-matrix scalar DP."""
    out, _ = built_index
    idx = BM25Index(out)
    probe_terms = []
    for text in generate_queries(8).column("text").to_pylist():
        probe_terms.extend(text.split()[:2])
    # include a known typo shape: drop a char from a real dictionary term
    probe_terms.append(probe_terms[0][:2] + probe_terms[0][3:])
    n_nonempty = 0
    for t in probe_terms:
        got = idx.fuzzy_expand(t, max_edits=1, prefix_len=1)
        want = oracle.fuzzy_expand(t, max_edits=1, prefix_len=1)
        assert got == want, (t, got[:5], want[:5])
        n_nonempty += bool(got)
        if (t, 0) in [(v, e) for v, e, _ in got]:
            assert got[0][1] == 0  # exact hit sorts first (ed asc)
    assert n_nonempty >= len(probe_terms) - 1


def test_fuzzy_topk_rank_and_score_identical(built_index, oracle):
    """Engine fuzzy BM25 (prefix-pruned expansion + vectorized OR scoring)
    bit-identical — docids AND float64 scores — to the oracle's scalar
    (term x variant x doc) loop, over deterministically typo'd queries."""
    from terrier_ray.pipelines.fulltext import _typo_queries

    out, _ = built_index
    idx = BM25Index(out)
    queries = _typo_queries(12)
    n_nonempty = 0
    for qid, text in zip(
        queries.column("query_id").to_pylist(), queries.column("text").to_pylist()
    ):
        got = idx.search_fuzzy(text, k=10)
        want = oracle.search_fuzzy(text, k=10)
        assert got == want, f"query {qid} ({text!r}): {got} != {want}"
        n_nonempty += bool(got)
    assert n_nonempty >= 10


def test_fuzzy_finds_typo_targets(built_index, oracle):
    """A deleted-char typo of a mid-df dictionary term must still retrieve
    docs containing the original term (the FuzzyQuery point)."""
    out, _ = built_index
    idx = BM25Index(out)
    # pick a mid-df term with len >= 5 from the oracle df map
    cands = sorted(
        (t for t, df in oracle.df.items() if len(t) >= 5 and 3 <= df <= 30)
    )
    term = cands[0]
    typo = term[:2] + term[3:]
    hits = idx.search_fuzzy(typo, k=10)
    assert hits, (term, typo)
    target_docs = set(oracle.tf[term])
    assert target_docs & {d for d, _ in hits}, (term, typo, hits)


def test_content_hash_batch_independent_and_oracle_identical():
    """The dedup tie-break hash must be (a) independent of batch
    composition — the terms-list order is dictionary first-appearance
    order across the WHOLE batch, so hashing terms was partitioning-
    dependent — and (b) byte-identical to the oracle's raw-stream hash
    (the _dedup_group / OracleBM25 shared 3-tuple rule)."""
    import pyarrow as pa

    from terrier_ray.text.tokenize import Tokenizer, token_stream_hash, tokenize

    tok = Tokenizer()

    def batch(texts):
        return pa.table(
            {
                "url": [f"http://x/{i}" for i in range(len(texts))],
                "warc_ts": pa.array([0] * len(texts), type=pa.int64()),
                "text": texts,
            }
        )

    doc = "bravo alpha bravo"
    alone = tok(batch([doc]))
    batched = tok(batch(["alpha zulu", doc]))
    h_alone = alone.column("chash")[0].as_py()
    h_batched = batched.column("chash")[1].as_py()
    assert h_alone == h_batched
    assert h_alone == token_stream_hash(tokenize(doc))
    # and terms order genuinely differs between the two compositions —
    # the reason the hash must not come from the terms list
    assert alone.column("terms")[0].as_py() == ["bravo", "alpha"]
    assert batched.column("terms")[1].as_py() == ["alpha", "bravo"]


def test_read_term_rows_spanning_row_groups(tmp_path):
    """Row-group pruning must return EVERY row of a term whose rows cross a
    parquet row-group boundary (salted sub-postings colliding into one
    bucket / legacy v3 layout): bisect lands on the LAST group whose min
    <= term, so the scan has to back up to the first containing group —
    regression for the backward-scan fix in BM25Index._read_term_rows."""
    from collections import OrderedDict

    import pyarrow as pa
    import pyarrow.parquet as pq

    d = str(tmp_path)
    # term-sorted rows; row_group_size=2 → groups [aaa,ttt][ttt,ttt][zzz]:
    # mins=[aaa,ttt,zzz], maxs=[ttt,ttt,zzz] — bisect for 'ttt' lands on
    # group 1 and must back up to group 0 for the first 'ttt' row
    tab = pa.table(
        {
            "term": ["aaa", "ttt", "ttt", "ttt", "zzz"],
            "df": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "postings": pa.array([b"a", b"b", b"c", b"d", b"e"], type=pa.binary()),
        }
    )
    pq.write_table(tab, os.path.join(d, "bucket-00000.parquet"), row_group_size=2)

    class _FakeIdx:
        PF_CACHE_CAP = BM25Index.PF_CACHE_CAP
        postings_dir = d
        _pf_cache = OrderedDict()
        _bucket_handle = BM25Index._bucket_handle
        _read_term_rows = BM25Index._read_term_rows

    idx = _FakeIdx()
    got = idx._read_term_rows(0, ["ttt"])
    assert got.num_rows == 3, got.to_pydict()
    assert sorted(got.column("df").to_pylist()) == [2, 3, 4]
    # single-group terms at both edges stay exact
    assert idx._read_term_rows(0, ["aaa"]).column("df").to_pylist() == [1]
    assert idx._read_term_rows(0, ["zzz"]).column("df").to_pylist() == [5]
    assert idx._read_term_rows(0, ["mmm"]) is None or (
        idx._read_term_rows(0, ["mmm"]).num_rows == 0
    )


def test_pruned_tied_finalist_cut(ray_session, tmp_root, force_prune):
    """MaxScore's finalist cut must keep every candidate tied with the
    k-th accumulated mass: with N identical (tf, dl) postings the masses
    all tie, and an arbitrary argpartition pick of k candidates could
    drop the canonical (score desc, docid asc) winners — which the exact
    rescore can never recover.  Regression for the >=-threshold cut in
    bm25._maxscore."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from terrier_ray.datagen.webtext import generate_webtext_parquet

    src = os.path.join(str(tmp_root), "webtext_tied")
    generate_webtext_parquet(src, num_docs=60, seed=11)
    # every doc: "tietok filler{i}" → tf=1, dl=2 for all 60 docs, so every
    # accumulated mass for the query term ties exactly
    for f in sorted(glob.glob(os.path.join(src, "*.parquet"))):
        tab = pq.read_table(f)
        n = tab.num_rows
        texts = [f"tietok fillera{i}" for i in range(n)]
        tab = tab.set_column(
            tab.column_names.index("text"), "text", pa.array(texts, pa.string())
        )
        tab = tab.set_column(
            tab.column_names.index("html"),
            "html",
            pa.array([b""] * n, pa.binary()),
        )
        pq.write_table(tab, f)

    idx_dir = os.path.join(str(tmp_root), "idx_tied")
    build_index(src, idx_dir, num_buckets=4, num_salts=1)
    idx = BM25Index(idx_dir)
    k = 3  # k << 60 tied candidates → the finalist cut triggers
    force_prune(False)
    exact = idx.search("tietok", k)
    force_prune(True)
    pruned = idx.search("tietok", k)
    assert pruned == exact, (pruned, exact)
    # the canonical winners are the k SMALLEST docids of the tied set
    all_docids = sorted(int(x) for x in idx.doclens.docids())
    assert [d for d, _ in exact] == all_docids[:k]
    scores = {s for _, s in exact}
    assert len(scores) == 1  # genuinely tied


# ---------------------------------------------------------------- docvalues


def test_docvalues_sidecar_matches_corpus(built_index, webtext_small):
    """Every corpus winner's lang must round-trip through the docvalues
    sidecar (docid-sorted uint16 parts + global sorted dictionary)."""
    import pyarrow.dataset as pads

    out, _ = built_index
    idx = BM25Index(out)
    assert idx.has_docvalues
    t = pads.dataset(os.path.join(out, "corpus")).to_table(
        columns=["docid", "lang"]
    )
    d = t.column("docid").to_numpy(zero_copy_only=False)
    langs = t.column("lang").to_pylist()
    assert idx.docvalues_of(d) == langs
    # dictionary is the sorted distinct value set
    assert idx.docvalue_dict == sorted({l for l in langs if l is not None})


def test_search_filtered_identical_to_post_filter(built_index, ray_session):
    """search_filtered == post-filtering the unfiltered FULL ranking (its
    documented rank-AND-score identity), for every dictionary value; an
    unknown value matches nothing; lang=None is plain search."""
    import pyarrow.dataset as pads

    out, _ = built_index
    idx = BM25Index(out)
    t = pads.dataset(os.path.join(out, "corpus")).to_table(
        columns=["docid", "lang"]
    )
    lang_of = dict(
        zip(t.column("docid").to_pylist(), t.column("lang").to_pylist())
    )
    from terrier_ray.datagen.webtext import generate_queries

    for q in generate_queries(5).column("text").to_pylist():
        full = idx.search(q, k=10**9)
        for lang in idx.docvalue_dict:
            want = [(d, s) for d, s in full if lang_of[d] == lang][:10]
            assert idx.search_filtered(q, k=10, lang=lang) == want, (q, lang)
        assert idx.search_filtered(q, k=10, lang="zz-absent") == []
        assert idx.search_filtered(q, k=10) == idx.search(q, k=10)


def test_distributed_filtered_identical_to_local(built_index, ray_session):
    """search_many_sharded(filter_lang=...) pushes the docvalue mask into
    the shard tasks and must merge rank-AND-score-identical to the local
    filtered search at a shard count forcing real range splits."""
    from terrier_ray.datagen.webtext import generate_queries
    from terrier_ray.index.bm25 import DistributedBM25

    out, _ = built_index
    idx = BM25Index(out)
    dist = DistributedBM25(out)
    queries = generate_queries(4).column("text").to_pylist()
    for lang in idx.docvalue_dict[:2] + ["zz-absent"]:
        got = dist.search_many_sharded(
            queries, k=10, num_shards=3, filter_lang=lang
        )
        want = [idx.search_filtered(q, k=10, lang=lang) for q in queries]
        assert got == want, lang


def test_bm25_filtered_topk_entry(ray_session, sf_smoke):
    from terrier_ray.pipelines.fulltext import bm25_filtered_topk

    tab = bm25_filtered_topk(sf_smoke)
    assert tab.column_names == [
        "query_id", "query", "lang", "rank", "docid", "score",
    ]
    assert tab.num_rows > 0
    # per (query, lang) ranks start at 1; every hit's lang matches its
    # filter value (re-checked through the sidecar)
    from terrier_ray.pipelines.fulltext import ensure_index

    idx = BM25Index(ensure_index(sf_smoke))
    langs = tab.column("lang").to_pylist()
    docids = tab.column("docid").to_numpy(zero_copy_only=False)
    got = idx.docvalues_of(docids)
    assert got == langs


def test_facet_sidecar_equals_winner_fetch(ray_session, sf_smoke):
    """The bm25_facets fast path (docvalue sidecar gather) must agree with
    the slow path (winner-row fetch) on every hit doc's lang — the
    epoch-2c contract that sidecar values ARE the indexed winners'."""
    from terrier_ray.datagen.webtext import webtext_for_sf
    from terrier_ray.pipelines.fulltext import (
        _fetch_indexed_winners,
        ensure_index,
    )

    idx = BM25Index(ensure_index(sf_smoke, docvalues=True))
    web = webtext_for_sf(sf_smoke)
    need = sorted(int(d) for d in idx.doclens.docids()[:200])
    winners = _fetch_indexed_winners(web, need, extra_cols=("lang",))
    want = dict(
        zip(winners.column("docid").to_pylist(), winners.column("lang").to_pylist())
    )
    import numpy as np

    got = dict(zip(need, idx.docvalues_of(np.asarray(need))))
    assert got == want


def test_fetch_indexed_winners_absent_docids(ray_session, webtext_small):
    """Docids absent from the corpus match no row: the winner fetch returns
    a typed empty table with the columns a matching fetch has, not an
    ArrowInvalid from concatenating no batches."""
    from terrier_ray.datagen.webtext import url_doc_id
    from terrier_ray.pipelines.fulltext import _fetch_indexed_winners

    import pyarrow.dataset as pads

    url = pads.dataset(webtext_small).to_table(columns=["url"]).column("url")[0].as_py()
    hit = _fetch_indexed_winners(webtext_small, [int(url_doc_id([url])[0])], ("lang",))
    assert hit.num_rows == 1
    absent = [1, 2, 3]  # url hashes never land on these
    empty = _fetch_indexed_winners(webtext_small, absent, ("lang",))
    assert empty.num_rows == 0
    assert empty.schema == hit.schema


def test_distributed_stopword_identical_both_paths(built_index, oracle, force_prune):
    """Shard-side scoring of stopword-heavy queries equals the oracle on
    both sides of the path rule: exact TAAT and MaxScore in every
    ``_unit_task``, over the doclen parts and over finer docid ranges."""
    from terrier_ray.index.bm25 import DistributedBM25

    out, _ = built_index
    dist = DistributedBM25(out)
    texts = [t + " the of and" for t in generate_queries(10).column("text").to_pylist()]
    want = [oracle.search(q, 10) for q in texts]
    for pruned in (False, True):
        dist._task = force_prune(pruned)
        for shards in (None, 3):
            assert dist.search_many_sharded(texts, k=10, num_shards=shards) == want, (
                pruned, shards)


@pytest.fixture(scope="module")
def stopword_index(ray_session, tmp_root):
    """A 14k-doc index: big enough that the stopword band's summed df
    crosses the shipped path rule (``bm25.PRUNE_MIN_DF``)."""
    from terrier_ray.datagen.webtext import generate_webtext_parquet

    web = generate_webtext_parquet(os.path.join(str(tmp_root), "webtext_14k"),
                                   num_docs=14_000, seed=5)
    out = os.path.join(str(tmp_root), "index_14k")
    build_index(web, out, num_buckets=4)
    return out


def test_path_rule_unforced(stopword_index):
    """The path rule as shipped: a light query keeps every match in
    ``score_all(q, k)``, its stopword variant prunes to fewer docs with the
    same top k, and a plan with a negative weight stays exact."""
    from terrier_ray.index import bm25

    idx = BM25Index(stopword_index)
    k = 10
    light = generate_queries(1, seed=5).column("text")[0].as_py()
    stop = light + " the of and"

    def summed_df(q):
        return sum(p[0] for p in idx.lookup(bm25._query_terms(q)).values() if p is not None)

    assert summed_df(light) < bm25.PRUNE_MIN_DF <= summed_df(stop)
    assert len(idx.score_all(light, k)[0]) == len(idx.score_all(light)[0])
    assert len(idx.score_all(stop, k)[0]) < len(idx.score_all(stop)[0])
    assert idx.search(stop, k) == bm25._topk(*idx.score_all(stop), k)
    pos = tuple((t, 1.0) for t in bm25._query_terms(stop))
    neg = pos + (("the", -0.5),)
    assert len(idx._run(pos, k)[0]) < len(idx._run(pos)[0])
    assert len(idx._run(neg, k)[0]) == len(idx._run(neg)[0])
    assert idx.search_weighted(list(neg), k) == bm25._topk(*idx._run(neg), k)


def test_path_rule_counts_shard_postings(stopword_index):
    """The rule counts the postings inside the shard's units, not the
    whole rows: the stopword plan prunes over the whole index, but a
    quarter range of it stays exact.  A range unit's MaxScore bound holds
    at every live doc of its slice and reads no doclens outside it."""
    import numpy as np

    from terrier_ray.index import bm25

    idx = BM25Index(stopword_index)
    k = 10
    stop = generate_queries(1, seed=5).column("text")[0].as_py() + " the of and"
    plan = idx._filtered(stop)
    post = idx.lookup([t for t, _ in plan])
    whole = sum(p[0] for p in post.values() if p is not None)
    units = idx.units(True, 4)
    assert len(units) == 4
    assert bm25._prunes(plan, [bm25.Unit(idx)], [post], k)
    rows = [p for p in post.values() if p is not None]
    shares = [sum(i1 - i0 for i0, i1 in (bm25._span(u, p[1]) for p in rows)) for u in units]
    assert sum(shares) == whole
    assert max(shares) < bm25.PRUNE_MIN_DF
    assert not any(bm25._prunes(plan, [u], [post], k) for u in units)

    gathered = []
    real_gather = idx.doclens.gather
    idx.doclens.gather = lambda d: gathered.append(np.asarray(d)) or real_gather(d)
    for u in units:
        for t, p in post.items():
            b = bm25._bound(u, t, p, idx.avgdl)
            dids, tfs = bm25._live(u, p[1], p[2])
            if len(dids):
                assert b >= bm25._wd(tfs, real_gather(dids), idx.avgdl).max()
            else:
                assert b == 0.0
    assert not gathered  # the range bound uses the range's min doc length
    all_d, all_v = idx.doclens.docids(), idx.doclens.values()
    for u in units:
        assert idx.doclens.min_in(u.lo, u.hi) == all_v[(all_d >= u.lo) & (all_d < u.hi)].min()


def test_docid_column_min_in_reads_overlapping_parts(tmp_path):
    """``DocidColumn.min_in`` over a three-part sidecar equals the brute
    minimum for ranges inside one part, across parts and open-ended."""
    import json

    import numpy as np

    from terrier_ray.index.bm25 import _END, DocidColumn

    rng = np.random.default_rng(3)
    docids = np.sort(rng.choice(1 << 40, size=300, replace=False)).astype(np.int64)
    vals = rng.integers(1, 500, size=300).astype("<i4")
    parts = []
    for i, (a, b) in enumerate([(0, 100), (100, 220), (220, 300)]):
        f = f"part-{i}.bin"
        (tmp_path / f).write_bytes(docids[a:b].tobytes() + vals[a:b].tobytes())
        parts.append({"lo": int(docids[a]), "file": f, "n": b - a})
    (tmp_path / "meta.json").write_text(json.dumps({"parts": parts}))
    col = DocidColumn(str(tmp_path), "<i4")
    cuts = [0, int(docids[0]), int(docids[50]), int(docids[100]), int(docids[150]) + 1,
            int(docids[220]), int(docids[299]), int(docids[299]) + 1, _END]
    for lo in cuts:
        for hi in cuts:
            sel = vals[(docids >= lo) & (docids < hi)]
            assert col.min_in(lo, hi) == (sel.min() if len(sel) else None), (lo, hi)


def test_numeric_docvalues_match_corpus(built_index):
    """warc_ts round-trips through the numeric sidecar for every winner
    (timestamps cast to epoch int64 at build time)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads

    out, _ = built_index
    idx = BM25Index(out)
    assert idx.has_numeric_docvalues
    t = pads.dataset(os.path.join(out, "corpus")).to_table(
        columns=["docid", "warc_ts"]
    )
    d = t.column("docid").to_numpy(zero_copy_only=False)
    want = (
        t.column("warc_ts").combine_chunks().cast(pa.int64()).to_numpy()
    )
    got = idx.numeric_docvalue(d)
    assert (got == want).all()


def test_ts_range_filter_identical_to_post_filter(built_index, ray_session):
    """search_filtered(ts_range=) == post-filter of the full ranking by
    each doc's sidecar timestamp; composes with lang; distributed ==
    local; pagination composes too."""
    import numpy as np

    from terrier_ray.datagen.webtext import generate_queries
    from terrier_ray.index.bm25 import DistributedBM25

    out, _ = built_index
    idx = BM25Index(out)
    all_ts = idx.docvalues_ts.values()
    lo = int(np.sort(all_ts)[len(all_ts) // 3])
    hi = int(np.sort(all_ts)[2 * len(all_ts) // 3])
    dist = DistributedBM25(out)
    lang = idx.docvalue_dict[0]
    checked = 0
    for q in generate_queries(4).column("text").to_pylist():
        full = idx.search(q, k=10**9)
        ids = np.asarray([d for d, _ in full], dtype=np.int64)
        if not len(ids):
            continue
        ts = idx.numeric_docvalue(ids)
        langs = idx.docvalues_of(ids)
        want = [
            (d, s)
            for (d, s), t in zip(full, ts)
            if lo <= t < hi
        ][:10]
        got = idx.search_filtered(q, k=10, ts_range=(lo, hi))
        assert got == want, q
        checked += bool(want)
        # AND-composition with lang
        want_both = [
            (d, s)
            for (d, s), t, l in zip(full, ts, langs)
            if lo <= t < hi and l == lang
        ][:10]
        assert (
            idx.search_filtered(q, k=10, lang=lang, ts_range=(lo, hi))
            == want_both
        ), q
        # distributed == local
        assert dist.search_many_sharded(
            [q], k=10, num_shards=3, filter_ts=(lo, hi)
        )[0] == got, q
        # pagination under the range filter reconstructs the filtered rank
        full_f = idx.search_filtered(q, k=10**9, ts_range=(lo, hi))
        pages, cursor = [], None
        while True:
            page = idx.search_after(q, k=4, after=cursor, ts_range=(lo, hi))
            if not page:
                break
            pages.extend(page)
            cursor = page[-1]
        assert pages == full_f, q
    assert checked  # never vacuous


def test_bm25_time_filtered_topk_entry(ray_session, sf_smoke):
    import numpy as np

    from terrier_ray.pipelines.fulltext import (
        bm25_time_filtered_topk,
        ensure_index,
    )

    tab = bm25_time_filtered_topk(sf_smoke)
    assert tab.column_names == ["query_id", "query", "rank", "docid", "score"]
    assert tab.num_rows > 0
    # every hit's sidecar ts is in the newer half
    idx = BM25Index(ensure_index(sf_smoke))
    all_ts = idx.docvalues_ts.values()
    median = int(np.sort(all_ts)[len(all_ts) // 2])
    hits = tab.column("docid").to_numpy(zero_copy_only=False)
    assert (idx.numeric_docvalue(hits) >= median).all()


def test_sort_by_ts_and_date_histogram(built_index, ray_session):
    """search_sorted_by_ts == python sort of the match set by (ts desc,
    docid asc); date_histogram == numpy bucket counts over the same match
    set; lang/ts_range masks compose."""
    import numpy as np

    from terrier_ray.datagen.webtext import generate_queries

    out, _ = built_index
    idx = BM25Index(out)
    lang = idx.docvalue_dict[0]
    checked = 0
    for q in generate_queries(4).column("text").to_pylist():
        uniq, _acc = idx.score_all(q)
        if not len(uniq):
            continue
        ts = idx.numeric_docvalue(uniq)
        want = sorted(
            zip(uniq.tolist(), ts.tolist()), key=lambda p: (-p[1], p[0])
        )[:10]
        assert idx.search_sorted_by_ts(q, k=10) == want, q
        # ascending variant
        want_asc = sorted(
            zip(uniq.tolist(), ts.tolist()), key=lambda p: (p[1], p[0])
        )[:10]
        assert idx.search_sorted_by_ts(q, k=10, descending=False) == want_asc
        # lang mask composes
        langs = idx.docvalues_of(uniq)
        keep = [l == lang for l in langs]
        want_l = sorted(
            (
                (d, t)
                for (d, t), kp in zip(zip(uniq.tolist(), ts.tolist()), keep)
                if kp
            ),
            key=lambda p: (-p[1], p[0]),
        )[:10]
        assert idx.search_sorted_by_ts(q, k=10, lang=lang) == want_l
        # histogram == numpy oracle
        interval = max(1, (int(ts.max()) - int(ts.min())) // 5)
        b = (ts // interval) * interval
        vals, counts = np.unique(b, return_counts=True)
        assert idx.date_histogram(q, interval) == [
            (int(v), int(c)) for v, c in zip(vals, counts)
        ]
        assert sum(c for _, c in idx.date_histogram(q, interval)) == len(uniq)
        checked += 1
    assert checked


def test_sorted_and_histogram_entries(ray_session, sf_smoke):
    from terrier_ray.pipelines.fulltext import (
        bm25_date_histogram,
        bm25_sorted_by_time,
    )

    tab = bm25_sorted_by_time(sf_smoke)
    assert tab.column_names == ["query_id", "query", "rank", "docid", "ts"]
    assert tab.num_rows > 0
    # within each query, ts is non-increasing by rank
    import pandas as pd

    df = tab.to_pandas()
    for _qid, g in df.groupby("query_id"):
        g = g.sort_values("rank")
        assert (g["ts"].diff().dropna() <= 0).all()

    hist = bm25_date_histogram(sf_smoke)
    assert hist.column_names == ["query_id", "query", "bucket_start", "n_docs"]
    assert hist.num_rows > 0
    assert (hist.column("n_docs").to_numpy() > 0).all()


def test_filtered_search_raises_without_sidecar(ray_session, webtext_small, tmp_root):
    """A lang filter on an index with NO docvalues sidecar is a
    misconfiguration and raises (never a silent empty result); a corpus
    rebuild WITHOUT docvalues=True takes stale sidecars down with it."""
    out = os.path.join(str(tmp_root), "idx_no_dv")
    build_index(webtext_small, out, num_buckets=4, num_salts=1)
    idx = BM25Index(out)
    assert not idx.has_docvalues
    with pytest.raises(ValueError, match="docvalues"):
        idx.search_filtered("the", k=5, lang="en")
    with pytest.raises(ValueError, match="docvalues"):
        idx.search_sorted_by_ts("the", k=5, lang="en")
    # upgrade: sidecar appears...
    build_index(webtext_small, out, num_buckets=4, num_salts=1, docvalues=True)
    assert BM25Index(out).has_docvalues
    # ...and a forced corpus rebuild WITHOUT docvalues=True removes it
    # (derived sidecars never outlive their corpus)
    build_index(webtext_small, out, num_buckets=4, num_salts=1, force=True)
    assert not BM25Index(out).has_docvalues


def test_sharded_filter_raises_without_sidecar(ray_session, webtext_small, tmp_root):
    """The shard-side lang filter resolves through the same lookup as
    search_filtered: no docvalues sidecar raises, never a silent []."""
    from terrier_ray.index.bm25 import DistributedBM25

    out = os.path.join(str(tmp_root), "idx_nodocvalues_sharded")
    build_index(webtext_small, out, num_buckets=4, num_salts=1)
    with pytest.raises(ValueError, match="docvalues"):
        DistributedBM25(out).search_many_sharded(
            ["the"], k=5, num_shards=2, filter_lang="en"
        )


def test_numeric_docvalues_date32_cast(tmp_root):
    """The numeric sidecar must handle date32-typed columns (direct
    date32->int64 casts are unimplemented in this pyarrow; the builder
    hops through the storage type)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from terrier_ray.index.build import build_docid_sidecar

    src = os.path.join(str(tmp_root), "dv_date32_corpus")
    os.makedirs(src, exist_ok=True)
    tab = pa.table(
        {
            "docid": pa.array([5, 1, 9], pa.int64()),
            "warc_ts": pa.array([10, 20, 30], pa.date32()),
        }
    )
    pq.write_table(tab, os.path.join(src, "part-0.parquet"))
    dv = os.path.join(str(tmp_root), "dv_date32_out")
    meta = build_docid_sidecar(src, dv, "warc_ts")
    assert meta["n"] == 3
    with open(os.path.join(dv, meta["parts"][0]["file"]), "rb") as f:
        buf = f.read()
    did = np.frombuffer(buf, dtype="<i8", count=3)
    val = np.frombuffer(buf, dtype="<i8", offset=24, count=3)
    assert did.tolist() == [1, 5, 9]
    assert val.tolist() == [20, 10, 30]  # days-since-epoch, docid-sorted


def test_numeric_docvalues_rejects_null(tmp_root):
    """A null warc_ts has no int64 value: the builder raises instead of
    casting it through NaN into an arbitrary int64."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from terrier_ray.index.build import build_docid_sidecar

    src = os.path.join(str(tmp_root), "dv_null_corpus")
    os.makedirs(src, exist_ok=True)
    tab = pa.table(
        {
            "docid": pa.array([0, 1, 2], pa.int64()),
            "warc_ts": pa.array([10, None, 30], pa.timestamp("us")),
        }
    )
    pq.write_table(tab, os.path.join(src, "part-0.parquet"))
    with pytest.raises(ValueError, match="null"):
        build_docid_sidecar(src, os.path.join(str(tmp_root), "dv_null_out"), "warc_ts")
