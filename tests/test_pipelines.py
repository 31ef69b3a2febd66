"""Dedup / similarity / text-analysis / multimodal pipeline semantics."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from terrier_ray.pipelines.dedup import (
    MinHasher,
    SimHasher,
    ngram_jaccard_exact,
)
from terrier_ray.pipelines.multimodal import MediaDecoder, generate_media_table
from terrier_ray.text.analysis import LangId, QualityScorer


def test_minhash_estimates_jaccard():
    mh = MinHasher(num_perm=128)
    a = "the quick brown fox jumps over the lazy dog " * 10
    b = "the quick brown fox jumps over the lazy cat " * 10
    c = "completely different content with other words entirely " * 10
    sa, sb, sc = mh.signature(a), mh.signature(b), mh.signature(c)
    sim_ab = (sa == sb).mean()
    sim_ac = (sa == sc).mean()
    true_ab = ngram_jaccard_exact(a, b)
    assert abs(sim_ab - true_ab) < 0.15
    assert sim_ac < 0.1 < sim_ab


def test_minhash_identical_texts():
    mh = MinHasher()
    t = "some repeated document text here"
    assert np.array_equal(mh.signature(t), mh.signature(t))


def test_simhash_near_dup_close_hamming():
    a = "the quick brown fox jumps over the lazy dog and runs far away home"
    b = "the quick brown fox jumps over the lazy dog and runs far away house"
    c = "entirely unrelated words describing some other topic of discussion"
    ha, hb, hc = (SimHasher.simhash64(t) for t in (a, b, c))
    ham = lambda x, y: bin(x ^ y).count("1")
    assert ham(ha, hb) < ham(ha, hc)
    assert ham(ha, hb) <= 12


def test_lsh_pairs_find_duplicates(ray_session, tmp_root):
    import os
    import pyarrow.parquet as pq
    import ray.data as rd
    from terrier_ray.pipelines.dedup import minhash_lsh_pairs

    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    texts = [base, base + "extra tail", "unrelated words entirely different " * 8]
    texts += [f"random filler document number {i} with its own content" for i in range(20)]
    tab = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    d = os.path.join(str(tmp_root), "dupdocs")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tab, os.path.join(d, "documents.parquet"))
    pairs = minhash_lsh_pairs(d, jaccard_threshold=0.5).to_pandas()
    assert ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 1)).any()
    assert not ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 2)).any()


def test_quality_scorer_direct():
    qs = QualityScorer()
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(
                ["the cat sat on the mat and it was good", "!!! ??? ### $$$ %%%"],
            ),
        }
    )
    out = qs(batch).to_pandas()
    assert out.loc[0, "quality"] > out.loc[1, "quality"]
    assert out.loc[1, "punct_ratio"] > 0.5


def test_langid_direct():
    li = LangId()
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "the cat and the dog sat in the house with all of them",
                    "der hund und die katze ist nicht in das haus",
                    "xyzzy plugh qwerty",
                ]
            ),
        }
    )
    out = li(batch).to_pandas()
    assert list(out["lang_pred"]) == ["en", "de", "unk"]


def test_media_decoder_roundtrip(ray_session):
    from terrier_ray.pipelines.multimodal import media_features

    df = media_features(50).to_pandas()
    assert len(df) == 50
    assert {"media_id", "kind", "f0", "f7"} <= set(df.columns)
    # deterministic: same input → same features
    df2 = media_features(50).to_pandas()
    assert df.sort_values("media_id").reset_index(drop=True).equals(
        df2.sort_values("media_id").reset_index(drop=True)
    )


def test_media_decoder_rejects_real_formats():
    dec = MediaDecoder()
    with pytest.raises(NotImplementedError):
        dec._decode(b"\xff\xd8\xff\xe0 JPEG bytes")


def test_knn_exact_vs_numpy_oracle(ray_session, sf_smoke):
    import pyarrow.parquet as pq
    from terrier_ray.pipelines.similarity import knn_cosine

    got = knn_cosine(sf_smoke, query_vec_id=0, k=5).to_pandas()
    emb = pq.read_table(f"{sf_smoke}/embeddings.parquet")
    ids = np.asarray(emb.column("vec_id").to_pylist())
    m = np.asarray(emb.column("embedding").to_pylist(), dtype=np.float64)
    q = m[ids == 0][0]
    sims = (m @ (q / np.linalg.norm(q))) / np.linalg.norm(m, axis=1)
    mask = ids != 0
    order = np.lexsort((ids[mask], -np.round(sims[mask] * 10000) / 10000))
    want = ids[mask][order][:5]
    assert list(got["vec_id"]) == list(want)


def test_tfidf_top_terms_matches_direct(ray_session, tmp_root):
    import math
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from terrier_ray.pipelines.textops import tfidf_top_terms
    from terrier_ray.text.tokenize import TOKEN_RE

    texts = [
        "apple banana apple cherry",
        "banana cherry cherry date",
        "apple apple apple unique",
    ]
    tab = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    d = os.path.join(str(tmp_root), "tfidf_docs")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tab, os.path.join(d, "documents.parquet"))
    got = tfidf_top_terms(d, top=2).to_pandas()

    # direct reference
    toks = [TOKEN_RE.findall(t.lower()) for t in texts]
    df = {}
    for ts in toks:
        for t in set(ts):
            df[t] = df.get(t, 0) + 1
    for did, ts in enumerate(toks):
        uniq, cnt = np.unique(np.asarray(ts, dtype=object), return_counts=True)
        w = (cnt / len(ts)) * np.array([math.log(len(texts) / df[t]) for t in uniq])
        sel = np.argsort(-w, kind="stable")[:2]
        mine = got[got["doc_id"] == did].sort_values("tfidf", ascending=False)
        assert list(mine["term"]) == [uniq[i] for i in sel], did
        assert np.allclose(mine["tfidf"].values, w[sel], rtol=0, atol=0)


def test_media_resize_and_frames(ray_session):
    import numpy as np

    from terrier_ray.pipelines.multimodal import (
        FrameSampler,
        MediaResizer,
        generate_media_table,
        media_frames,
        media_resized,
    )

    out = media_resized(60, out_len=64).to_pandas()
    assert len(out) == 60
    assert (out["out_len"] == 64).all()
    assert all(len(b) == 64 for b in out["blob"])

    frames = media_frames(60).to_pandas()
    tab = generate_media_table(60).to_pandas()
    n_videos = (tab["kind"] == "video").sum()
    assert len(frames) == n_videos * 2  # frames 0 and 2 of 4, stride 2
    assert set(frames["frame_no"]) <= {0, 2}

    # real formats must fail loudly, not silently decode
    import pyarrow as pa_
    import pytest as pt

    fake = pa_.table(
        {
            "media_id": pa_.array([1], type=pa_.int64()),
            "kind": pa_.array(["image"]),
            "blob": pa_.array([b"\xff\xd8\xff\xe0JFIF-like"], type=pa_.binary()),
        }
    )
    with pt.raises(NotImplementedError):
        MediaResizer()(fake)
    with pt.raises(NotImplementedError):
        FrameSampler()(
            pa_.table(
                {
                    "media_id": pa_.array([1], type=pa_.int64()),
                    "kind": pa_.array(["video"]),
                    "blob": pa_.array([b"\x00\x00\x00 ftypmp42"], type=pa_.binary()),
                }
            )
        )


def test_curate_documents_funnel(ray_session, tmp_root):
    import os

    from terrier_ray.pipelines.curate import curate_documents
    from terrier_ray.sources.io import read_json_table  # noqa: F401 (env check)

    out_dir = os.path.join(str(tmp_root), "curated")
    t = curate_documents("/root/testdata/sf0.001", out_dir=out_dir)
    row = {c: t.column(c)[0].as_py() for c in t.column_names}
    # monotone funnel, drop-nothing accounting
    assert (
        row["n_in"]
        >= row["n_lang_ok"]
        >= row["n_quality_ok"]
        >= row["n_exact_unique"]
        >= row["n_curated"]
        > 0
    )
    # curated parquet exists and matches the final count
    import pyarrow.parquet as pq
    import glob

    files = glob.glob(os.path.join(out_dir, "*.parquet"))
    n = sum(pq.read_metadata(f).num_rows for f in files)
    assert n == row["n_curated"]
    # deterministic across runs
    t2 = curate_documents("/root/testdata/sf0.001")
    assert {c: t2.column(c)[0].as_py() for c in t2.column_names} == row


def test_curate_documents_distributed_labels(ray_session, tmp_root, monkeypatch):
    """distributed_labels=True must (a) run connected_components with
    collect=False so the label path stays a Dataset end-to-end (no driver
    concat), and (b) keep exactly one min-doc_id representative per
    near-dup cluster — verified against a reference union-find over the
    same LSH pairs."""
    import os

    import terrier_ray.ops.graph as graph_mod
    from terrier_ray.pipelines.curate import curate_documents
    from terrier_ray.pipelines.dedup import minhash_lsh_pairs

    seen: dict = {}
    orig = graph_mod.connected_components

    def spy(edges, *a, **kw):
        seen["collect"] = kw.get("collect", True)
        out = orig(edges, *a, **kw)
        seen["returned_dataset"] = not isinstance(out, pa.Table)
        return out

    monkeypatch.setattr(graph_mod, "connected_components", spy)

    sf = "/root/testdata/sf0.001"
    out_dir = os.path.join(str(tmp_root), "curated_dist")
    t = curate_documents(sf, out_dir=out_dir, distributed_labels=True)
    assert seen == {"collect": False, "returned_dataset": True}
    row = {c: t.column(c)[0].as_py() for c in t.column_names}
    assert row["n_in"] >= row["n_exact_unique"] >= row["n_curated"] > 0

    # exact in-test reference: replicate the three gates with the SAME
    # module components, then keep each cluster's min SURVIVING member
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from terrier_ray.pipelines.dedup import _text_hash
    from terrier_ray.text.analysis import LangId, QualityScorer

    docs = pq.read_table(
        os.path.join(sf, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    q_t, l_t = QualityScorer()(docs), LangId()(docs)
    mask = pc.and_(
        pc.or_(
            pc.equal(docs.column("lang"), "en"),
            pc.equal(l_t.column("lang_pred"), "en"),
        ),
        pc.and_(
            pc.greater_equal(q_t.column("quality"), 0.2),
            pc.greater_equal(q_t.column("n_words"), 10),
        ),
    )
    surv = docs.filter(mask)
    best: dict[str, int] = {}
    for d, h in zip(
        surv.column("doc_id").to_pylist(),
        _text_hash(surv.column("text").to_pylist()),
    ):
        if h not in best or d < best[h]:
            best[h] = d
    exact_surv = set(best.values())
    assert row["n_exact_unique"] == len(exact_surv)

    # union-find over the corpus-wide pairs
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = minhash_lsh_pairs(sf)
    for a, b in zip(
        pairs.column("doc_a").to_pylist(), pairs.column("doc_b").to_pylist()
    ):
        parent[find(a)] = find(b)
    clusters: dict[int, set] = {}
    for n in list(parent):
        clusters.setdefault(find(n), set()).add(n)
    # per cluster, drop every surviving member except the smallest one
    drop = set()
    for mem in clusters.values():
        alive = sorted(mem & exact_surv)
        drop |= set(alive[1:])
    expected = exact_surv - drop

    import glob

    kept = set()
    for f in glob.glob(os.path.join(out_dir, "*.parquet")):
        kept |= set(pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
    assert len(kept) == row["n_curated"]
    assert kept == expected


def test_ivf_indexed_matches_inline(ray_session):
    from terrier_ray.pipelines.similarity import (
        knn_cosine_ivf,
        knn_cosine_ivf_indexed,
    )

    inline = knn_cosine_ivf("/root/testdata/sf0.001", nprobe=4, k=10)
    indexed = knn_cosine_ivf_indexed("/root/testdata/sf0.001", nprobe=4, k=10)
    # identical centroid training (same seed, same sample) → identical cells
    # → identical candidate sets → identical top-k
    assert inline.column("vec_id").to_pylist() == indexed.column("vec_id").to_pylist()
    assert inline.column("sim").to_pylist() == indexed.column("sim").to_pylist()


def test_ivf_corrupt_manifest_rebuilds(ray_session, sf_smoke, tmp_root):
    """A corrupt IVF manifest is a stale build: the next call rebuilds the
    cells and commits a readable manifest instead of raising."""
    import glob
    import json
    import os

    from terrier_ray.pipelines.similarity import build_ivf_index

    out = os.path.join(str(tmp_root), "ivf_corrupt")
    build_ivf_index(sf_smoke, out, nlist=4, sample_rows=500)
    manifest = os.path.join(out, "_manifest", "ivf.json")
    with open(manifest, "w") as f:
        f.write("{not json")
    build_ivf_index(sf_smoke, out, nlist=4, sample_rows=500)
    with open(manifest) as f:
        outputs = json.load(f)["outputs"]
    assert "centroids.npy" in outputs
    assert all(os.path.exists(os.path.join(out, p)) for p in outputs)
    assert glob.glob(os.path.join(out, "cell=*", "*.parquet"))


def test_simhash_pairs_find_planted_dups(ray_session, tmp_root):
    import os

    import pyarrow.parquet as pq

    from terrier_ray.pipelines.dedup import simhash_near_dup_pairs

    base = "the quick brown fox jumps over the lazy dog again and again " * 20
    # one swapped word: hamming distance 2 (verified) — a true near-dup
    texts = [base, base.replace("dog", "cat", 1), "unrelated words entirely different " * 8]
    texts += [f"filler document number {i} with its very own words" for i in range(15)]
    tab = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    d = os.path.join(str(tmp_root), "shdocs")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tab, os.path.join(d, "documents.parquet"))
    pairs = simhash_near_dup_pairs(d).to_pandas()
    assert ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 1)).any()
    assert not ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 2)).any()
    assert (pairs["hamming"] <= 3).all()


def test_embedding_near_dup_pairs_above_threshold(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from terrier_ray.pipelines.similarity import embedding_near_dup_pairs

    out = embedding_near_dup_pairs("/root/testdata/sf0.001", threshold=0.35).to_pandas()
    assert len(out) > 0
    assert (out["sim"] >= 0.35).all()
    # verify a sample of reported pairs against brute-force cosine
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    ids = np.asarray(t.column("vec_id").to_pylist())
    m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    pos = {int(i): j for j, i in enumerate(ids)}
    for _, r in out.head(20).iterrows():
        true = float(mn[pos[int(r["doc_a"])] if "doc_a" in out.columns else pos[int(r["vec_a"])]] @ mn[pos[int(r["vec_b"])]])
        assert abs(true - r["sim"]) < 1e-3


def test_fingerprints_whitespace_invariant(ray_session, tmp_root):
    import os

    import pyarrow.parquet as pq

    from terrier_ray.pipelines.textops import fingerprints

    texts = ["hello   world", "hello world", "HELLO WORLD", "different text"]
    tab = pa.table(
        {
            "doc_id": pa.array(range(4), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    d = os.path.join(str(tmp_root), "fpdocs")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tab, os.path.join(d, "documents.parquet"))
    fp = fingerprints(d).to_pandas().set_index("doc_id")["fingerprint"]
    assert fp[0] == fp[1] == fp[2]  # whitespace + case normalized
    assert fp[3] != fp[0]


def test_ngram_jaccard_pairs_pipeline(ray_session, tmp_root):
    import os

    import pyarrow.parquet as pq

    from terrier_ray.pipelines.dedup import ngram_jaccard_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta " * 10
    texts = [base, base + "iota", "completely different words here entirely " * 8]
    texts += [f"filler doc {i} own content words" for i in range(10)]
    tab = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    d = os.path.join(str(tmp_root), "njdocs")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tab, os.path.join(d, "documents.parquet"))
    pairs = ngram_jaccard_pairs(d, threshold=0.5).to_pandas()
    hit = pairs[(pairs["doc_a"] == 0) & (pairs["doc_b"] == 1)]
    assert len(hit) == 1
    assert hit["jaccard"].iloc[0] > 0.8  # one extra shingle in ~80


def test_knn_lsh_subset_of_exact(ray_session, sf_smoke):
    import pyarrow.parquet as pq

    from terrier_ray.pipelines.similarity import knn_cosine_lsh

    got = knn_cosine_lsh(sf_smoke, query_vec_id=0, k=10).to_pandas()
    assert len(got) > 0
    # every reported similarity must equal the brute-force value (the LSH
    # filter only restricts the CANDIDATE set, never distorts scores)
    emb = pq.read_table(f"{sf_smoke}/embeddings.parquet")
    ids = np.asarray(emb.column("vec_id").to_pylist())
    m = np.asarray(emb.column("embedding").to_pylist(), dtype=np.float64)
    q = m[ids == 0][0]
    qn = q / np.linalg.norm(q)
    sims = (m @ qn) / np.linalg.norm(m, axis=1)
    pos = {int(i): j for j, i in enumerate(ids)}
    for _, r in got.iterrows():
        assert abs(sims[pos[int(r["vec_id"])]] - r["sim"]) < 1e-3
    # descending sim order
    assert (got["sim"].values[:-1] >= got["sim"].values[1:]).all()


def test_embedding_near_dup_bucket_guard(ray_session, tmp_root):
    """Oversized LSH buckets are deterministically subsampled (logged, never
    a silent O(n²)), and the block-wise triangle scan is exact: identical
    output for any sim_block_rows."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from terrier_ray.pipelines.similarity import embedding_near_dup_pairs

    rng = np.random.default_rng(0)
    base = rng.standard_normal(8)
    m = base[None, :] + 0.01 * rng.standard_normal((60, 8))
    d = os.path.join(str(tmp_root), "embskew")
    os.makedirs(d, exist_ok=True)
    tab = pa.table(
        {
            "vec_id": pa.array(np.arange(60, dtype=np.int64)),
            "embedding": pa.array(
                [list(map(float, r)) for r in m], pa.list_(pa.float32())
            ),
        }
    )
    pq.write_table(tab, os.path.join(d, "embeddings.parquet"))

    kw = dict(threshold=0.9, n_planes=2, n_tables=2)
    full = embedding_near_dup_pairs(d, **kw).to_pandas()
    # block decomposition is exact: tiny blocks give the identical result
    blocked = embedding_near_dup_pairs(d, sim_block_rows=7, **kw).to_pandas()
    key = ["vec_a", "vec_b"]
    assert full.sort_values(key).reset_index(drop=True).equals(
        blocked.sort_values(key).reset_index(drop=True)
    )
    assert len(full) > 200  # near-identical vectors: most pairs pass

    # every reported sim matches brute-force cosine over the stored floats
    t = pq.read_table(os.path.join(d, "embeddings.parquet"))
    mm = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    mn = mm / np.linalg.norm(mm, axis=1, keepdims=True)
    for _, r in full.head(30).iterrows():
        assert abs(float(mn[int(r["vec_a"])] @ mn[int(r["vec_b"])]) - r["sim"]) < 1e-3

    capped = embedding_near_dup_pairs(
        d, max_bucket_rows=16, sim_block_rows=7, **kw
    ).to_pandas()
    used = set(capped["vec_a"]) | set(capped["vec_b"])
    assert len(used) <= 16  # per-bucket work bounded by the cap
    assert 0 < len(capped) < len(full)
    assert (capped["sim"] >= 0.9).all()
    # the subsample is deterministic: same call → same pairs
    again = embedding_near_dup_pairs(
        d, max_bucket_rows=16, sim_block_rows=7, **kw
    ).to_pandas()
    assert capped.sort_values(key).reset_index(drop=True).equals(
        again.sort_values(key).reset_index(drop=True)
    )
