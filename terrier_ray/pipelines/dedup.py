"""Deduplication pipelines over the ``documents`` table.

- minhash_lsh:      shingle → minhash → band signatures → bucket groupby →
                    candidate pairs → Jaccard verify
- simhash:          64-bit simhash + hamming-bucket near-dup pairs
- ngram_jaccard:    exact n-gram Jaccard over candidate pairs
- (embedding near-dup lives in pipelines/similarity.py; exact dedup is
  its oracle SQL text run through ``sql.sql``)

All signature computation is per-batch vectorized numpy inside map_batches;
the only shuffles are the (hash/band/bucket) groupbys — the same
partial→partition→merge shape as the posting build (SURVEY.md §7.1).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import grouped_aggregate, read_table
from terrier_ray.ops.taskstate import task_fn

def _text_hash(texts: list[str]) -> np.ndarray:
    out = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        h = hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest()
        out[i] = int.from_bytes(h, "little") & ((1 << 63) - 1)
    return out


def approx_distinct_custkeys(sf_dir: str):
    """HyperLogLog COUNT(DISTINCT o_custkey): one streaming pass, O(2^p)
    state — the 1e12-row alternative to an exact distinct shuffle (±1.6%
    std error at p=12; accuracy-bounded in tests/test_sketch.py)."""
    from terrier_ray.ops.sketch import hll_count_distinct

    ds = read_table(sf_dir, "orders", columns=["o_custkey"])
    est = hll_count_distinct(ds, "o_custkey", p=12)
    return pa.table({"approx_distinct_custkeys": pa.array([est], type=pa.int64())})


def heavy_hitter_terms(sf_dir: str):
    """Approximate top-10 most frequent tokens over the documents corpus
    (Misra–Gries style mergeable summary).  Zipf-distributed tokens are the
    sketch's home turf: the head terms dominate every batch, so the top-k is
    exact in practice (guarantee: count > n_tokens/(k*capacity_factor))."""
    from terrier_ray.ops.sketch import mg_heavy_hitters

    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        """Vectorized tokenize + count: Arrow regex split (same [a-z0-9]+
        token rule as text.tokenize.TOKEN_RE, expressed as a split on the
        complement) then ONE group_by per batch — the exchange moves one
        (token, count) partial per distinct token per batch, never one row
        per token occurrence, and no Python-level token list is built."""
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column("text")), "[^a-z0-9]+"
        )
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pa.table({"token": flat}).group_by(["token"]).aggregate([([], "count_all")])
        return vc.rename_columns(["token", "cnt"])

    partials = docs.map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    return mg_heavy_hitters(partials, "token", k=10, capacity_factor=64, weight_col="cnt")


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


_FNV = np.uint64(1099511628211)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized (uint64 wraparound)."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


def _batch_shingle_hashes(texts: "list[str]", width: int = 5) -> "list[np.ndarray]":
    """Per-text arrays of word-shingle hashes, vectorized batch-wide:
    blake2b runs once per UNIQUE token in the batch (vocab ≪ token count),
    then each shingle hash is a rolling polynomial over token hashes +
    splitmix finalizer — no per-shingle digest calls (the old form was
    ~500 blake2b calls per document; this is the 1e12-doc hot path)."""
    toks_per = [t.lower().split() for t in texts]
    lens = np.array([len(t) for t in toks_per], dtype=np.int64)
    if lens.sum() == 0:
        return [np.empty(0, dtype=np.uint64) for _ in texts]
    all_toks = np.asarray(
        [tok for toks in toks_per for tok in toks], dtype=object
    )
    uniq, inv = np.unique(all_toks, return_inverse=True)
    hu = np.empty(len(uniq), dtype=np.uint64)
    for i, s in enumerate(uniq):  # uniques only — the one remaining loop
        hu[i] = int.from_bytes(
            hashlib.blake2b(s.encode(), digest_size=8).digest(), "little"
        )
    th_all = hu[inv]
    offsets = np.concatenate(([0], np.cumsum(lens)))
    out: list[np.ndarray] = []
    with np.errstate(over="ignore"):
        for d in range(len(texts)):
            th = th_all[offsets[d] : offsets[d + 1]]
            n = len(th)
            if n == 0:
                out.append(np.empty(0, dtype=np.uint64))
                continue
            w = min(width, n)
            acc = np.zeros(n - w + 1, dtype=np.uint64)
            for k in range(w):  # loop over width (5), vectorized over shingles
                acc = acc * _FNV + th[k : k + n - w + 1]
            out.append(_mix64(acc))
    return out


def _shingle_hashes(text: str, width: int = 5) -> np.ndarray:
    """Hashes of word-token shingles (single-text convenience wrapper)."""
    return _batch_shingle_hashes([text], width)[0]


def _decode_sigs(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """(n, num_perm) uint64 matrix from the packed-binary signature column."""
    vals = col.to_pylist()
    if not vals:
        return np.empty((0, 0), dtype=np.uint64)
    num_perm = len(vals[0]) // 8
    return np.frombuffer(b"".join(vals), dtype=np.uint64).reshape(-1, num_perm)


class MinHasher:
    """Per-batch minhash signatures (num_perm universal-hash permutations)."""

    def __init__(self, num_perm: int = 64, shingle_width: int = 5, seed: int = 7):
        rng = np.random.default_rng(seed)
        # multiply-add family mod 2^64 (odd multipliers): one wrapping
        # multiply + add per (perm, shingle) — a 61-bit-Mersenne modmul costs
        # 3 slow 64-bit mods per element and was the measured kernel hot spot
        self.a = rng.integers(1, np.iinfo(np.int64).max, size=num_perm).astype(
            np.uint64
        ) | np.uint64(1)
        self.b = rng.integers(0, np.iinfo(np.int64).max, size=num_perm).astype(
            np.uint64
        )
        self.num_perm = num_perm
        self.width = shingle_width

    def _sigs_batch(self, hashes: "list[np.ndarray]") -> np.ndarray:
        """(n_docs, num_perm) signatures in ONE vectorized pass: concatenate
        every doc's shingle hashes, apply all permutations as one (P, T)
        matrix op, per-doc min via np.minimum.reduceat — no per-doc loop."""
        n_docs = len(hashes)
        out = np.full(
            (n_docs, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64
        )
        nonempty = [i for i, h in enumerate(hashes) if len(h)]
        if not nonempty:
            return out
        big = np.concatenate([hashes[i] for i in nonempty])
        lens = np.array([len(hashes[i]) for i in nonempty], dtype=np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        with np.errstate(over="ignore"):
            x = self.a[:, None] * big[None, :] + self.b[:, None]
        mins = np.minimum.reduceat(x, offs, axis=1)
        out[np.asarray(nonempty)] = mins.T
        return out

    def signature(self, text: str) -> np.ndarray:
        return self._sigs_batch([_shingle_hashes(text, self.width)])[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = _batch_shingle_hashes(
            batch.column("text").to_pylist(), self.width
        )
        arr = self._sigs_batch(hashes)
        # packed little-endian uint64 bytes: a binary column survives Acero
        # join payloads (list<int64> does not) and decodes zero-copy
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sig": pa.array(
                    [row.tobytes() for row in np.ascontiguousarray(arr)],
                    type=pa.binary(),
                ),
            }
        )


def minhash_lsh_pairs(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.7,
):
    """Near-dup candidate pairs via banded LSH, verified by signature Jaccard.

    signatures → explode to (band_id, band_hash, doc_id) — the signature
    itself stays OUT of the band exchange (it is 64 int64s per row; shipping
    it through the shuffle multiplied exchange volume 60×) → bucketed
    groupby → candidate (doc_a, doc_b) → early distinct → Jaccard verify by
    joining the two signature sides back in (two co-partitioned joins —
    candidates are rare, so the joins are small).
    Returns (doc_a, doc_b, jaccard_est) with doc_a < doc_b.
    """
    rows_per_band = num_perm // bands
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # stateless task stage: MinHasher's state is two num_perm-long coefficient
    # arrays — an actor pool would pay a fresh ~1 s actor spawn per pipeline
    # execution for state that rebuilds in microseconds (taskstate.task_fn)
    sigs = docs.map_batches(
        task_fn(MinHasher, num_perm=num_perm),
        batch_format="pyarrow",
        batch_size=256,
    ).materialize()  # reused: band explode + both verify joins

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], type=pa.int32()),
                    "bh": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "sig": pa.array([], type=pa.list_(pa.int64())),
                }
            )
        sig = _decode_sigs(batch.column("sig"))
        # vectorized band hash: FNV fold over the band's rows + splitmix
        # finalizer (was one blake2b call per (doc, band))
        bh_cols = []
        with np.errstate(over="ignore"):
            for b in range(bands):
                chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
                acc = np.zeros(n, dtype=np.uint64)
                for c in range(rows_per_band):
                    acc = acc * _FNV + chunk[:, c].astype(np.uint64)
                bh_cols.append(
                    (_mix64(acc) & np.uint64((1 << 63) - 1)).astype(np.int64)
                )
        return pa.table(
            {
                "band": pa.array(
                    np.repeat(np.arange(bands, dtype=np.int32), n)
                ),
                "bh": pa.array(np.concatenate(bh_cols)),
                "doc_id": pa.array(np.tile(ids, bands)),
            }
        )

    banded = sigs.map_batches(explode_bands, batch_format="pyarrow")

    # (band, bh) has ~one distinct key per row — Ray's sort-shuffle groupby
    # cost grows with key cardinality, so shuffle on a small-int bucket of
    # the key and resolve the real (band, bh) segments inside each bucket
    # with one vectorized sort (the same pattern as grouped_aggregate).
    num_buckets = 32

    def tag_bucket(batch: pa.Table) -> pa.Table:
        bh = batch.column("bh").to_numpy(zero_copy_only=False)
        band = batch.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            key = _mix64((bh.astype(np.uint64)) + np.uint64(0x9E37) * band.astype(np.uint64))
        return batch.append_column(
            "__bucket", pa.array((key % np.uint64(num_buckets)).astype(np.int64))
        )

    _EMPTY_PAIRS = pa.table(
        {
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
        }
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["__bucket"]).sort_by(
            [("band", "ascending"), ("bh", "ascending"), ("doc_id", "ascending")]
        )
        n = t.num_rows
        if n < 2:
            return _EMPTY_PAIRS
        band = t.column("band").to_numpy(zero_copy_only=False)
        bh = t.column("bh").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        change = np.concatenate(
            ([True], (band[1:] != band[:-1]) | (bh[1:] != bh[:-1]))
        )
        starts = np.flatnonzero(change)
        seg_lens = np.diff(np.append(starts, n))
        multi = seg_lens >= 2  # singleton buckets (the vast majority) skipped
        if not multi.any():
            return _EMPTY_PAIRS
        a_list, b_list = [], []
        for s0, ln in zip(starts[multi], seg_lens[multi]):
            ai, bi = np.triu_indices(ln, k=1)
            a_list.append(s0 + ai)
            b_list.append(s0 + bi)
        a_idx = np.concatenate(a_list)
        b_idx = np.concatenate(b_list)
        return pa.table(
            {"doc_a": pa.array(ids[a_idx]), "doc_b": pa.array(ids[b_idx])}
        )

    cand_ds = (
        banded.map_batches(tag_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )

    # Candidate pairs are RARE by construction (LSH bands fire on near-dups
    # only), so the tail is driver-side: dedupe in numpy, fetch just the
    # candidate docs' signatures with a broadcast is_in filter over the
    # (already materialized) signature table, verify vectorized.  At 1e12
    # docs, where even candidates outgrow the driver, swap this tail for the
    # distributed form: bucket-shuffled grouped_aggregate dedupe + two
    # co-partitioned joins of sigs onto (doc_a, doc_b) — same semantics,
    # +3 exchanges (verify="join" if that shape is ever needed here).
    cand_tbl = pa.concat_tables(
        cand_ds.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    if cand_tbl.num_rows == 0:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "jaccard_est": pa.array([], type=pa.float64()),
            }
        )
    da = cand_tbl.column("doc_a").to_numpy(zero_copy_only=False)
    db = cand_tbl.column("doc_b").to_numpy(zero_copy_only=False)
    pairs = np.unique(np.stack([da, db], axis=1), axis=0)  # dedupe band hits
    da, db = pairs[:, 0], pairs[:, 1]

    need = pa.array(np.unique(np.concatenate([da, db])))
    sig_rows = pa.concat_tables(
        sigs.map_batches(
            lambda b: b.filter(pc.is_in(b.column("doc_id"), value_set=need)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    ids = sig_rows.column("doc_id").to_numpy(zero_copy_only=False)
    mat = _decode_sigs(sig_rows.column("sig"))
    pos = {int(i): j for j, i in enumerate(ids)}
    ia = np.array([pos[int(x)] for x in da], dtype=np.int64)
    ib = np.array([pos[int(x)] for x in db], dtype=np.int64)
    jac = (mat[ia] == mat[ib]).mean(axis=1)
    keep = jac >= jaccard_threshold
    return pa.table(
        {
            "doc_a": pa.array(da[keep]),
            "doc_b": pa.array(db[keep]),
            "jaccard_est": pa.array(jac[keep]),
        }
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHasher:
    """64-bit simhash over whitespace tokens; emits hash + 4 16-bit chunks
    (near-dup candidates share at least one chunk at hamming distance <=3)."""

    #: token-hash memo bound (vocabulary grows without limit at corpus scale)
    TOK_CACHE_CAP = 1 << 20

    def __init__(self):
        pass

    @staticmethod
    def simhash64(text: str) -> int:
        acc = np.zeros(64, dtype=np.int64)
        for tok in text.lower().split():
            h = int.from_bytes(
                hashlib.blake2b(tok.encode(), digest_size=8).digest(), "little"
            )
            bits = np.frombuffer(
                np.uint64(h).tobytes(), dtype=np.uint8
            )
            bitarr = np.unpackbits(bits, bitorder="little").astype(np.int64)
            acc += 2 * bitarr - 1
        return int(np.packbits((acc > 0).astype(np.uint8), bitorder="little").view("<u8")[0])

    def _batch_simhash(self, texts: "list[str]") -> np.ndarray:
        """Vectorized batch simhash, bit-identical to simhash64 per text:
        token hashes come from an actor-lifetime memo (Zipf vocab → mostly
        hits after the first batches; misses pay one blake2b), bit counting
        is one unpackbits + add.reduceat over the whole batch."""
        cache = getattr(self, "_tok_cache", None)
        if cache is None:
            cache = self._tok_cache = {}
        elif len(cache) > self.TOK_CACHE_CAP:
            # bounded actor-lifetime memory: the Zipf head re-enters the
            # memo within a batch or two, so a full reset is cheap
            cache.clear()
        toks_per = [t.lower().split() for t in texts]
        lens = np.array([len(t) for t in toks_per], dtype=np.int64)
        hs = np.zeros(len(texts), dtype=np.uint64)  # empty doc → 0 (as before)
        nonempty = np.flatnonzero(lens)
        if len(nonempty) == 0:
            return hs
        n_total = int(lens.sum())
        th = np.empty(n_total, dtype=np.uint64)
        i = 0
        for toks in toks_per:
            for tok in toks:
                h = cache.get(tok)
                if h is None:
                    h = cache[tok] = int.from_bytes(
                        hashlib.blake2b(tok.encode(), digest_size=8).digest(),
                        "little",
                    )
                th[i] = h
                i += 1
        bits = np.unpackbits(
            th.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        ).astype(np.int32)
        ne_lens = lens[nonempty]
        offs = np.concatenate(([0], np.cumsum(ne_lens)[:-1]))
        ones = np.add.reduceat(bits, offs, axis=0)
        cond = (2 * ones - ne_lens[:, None]) > 0
        packed = np.packbits(cond.astype(np.uint8), axis=1, bitorder="little")
        hs[nonempty] = packed.view("<u8").ravel()
        return hs

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = self._batch_simhash(batch.column("text").to_pylist())
        out = {"doc_id": batch.column("doc_id")}
        out["simhash"] = pa.array(hs.view(np.int64))
        for c in range(4):
            out[f"chunk{c}"] = pa.array(
                ((hs >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int32)
            )
        return pa.table(out)


def simhash_signatures(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(
        task_fn(SimHasher), batch_format="pyarrow", batch_size=256
    )


def simhash_near_dup_pairs(sf_dir: str, max_hamming: int = 3):
    """SimHash near-dup pairs: by the pigeonhole principle, two 64-bit
    hashes within hamming distance 3 share at least one of four 16-bit
    chunks — so candidates come from four chunk-keyed groupbys (the same
    banded-LSH shuffle shape as minhash, exact rather than probabilistic
    for the distance bound), then a vectorized popcount verify.
    Returns (doc_a, doc_b, hamming), doc_a < doc_b."""
    sigs = simhash_signatures(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parts = []
        for c in range(4):
            parts.append(
                pa.table(
                    {
                        "ck": pc.add(
                            pc.multiply(
                                pc.cast(batch.column(f"chunk{c}"), pa.int64()), 4
                            ),
                            c,
                        ),
                        "doc_id": batch.column("doc_id"),
                        "simhash": batch.column("simhash"),
                    }
                )
            )
        return pa.concat_tables(parts)

    banded = sigs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def tag(batch: pa.Table) -> pa.Table:
        ck = batch.column("ck").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__bucket", pa.array((_mix64(ck.astype(np.uint64)) % np.uint64(16)).astype(np.int64))
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["__bucket"]).sort_by(
            [("ck", "ascending"), ("doc_id", "ascending")]
        )
        n = t.num_rows
        empty = pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "hamming": pa.array([], type=pa.int64()),
            }
        )
        if n < 2:
            return empty
        ck = t.column("ck").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        hs = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        change = np.concatenate(([True], ck[1:] != ck[:-1]))
        starts = np.flatnonzero(change)
        seg_lens = np.diff(np.append(starts, n))
        multi = seg_lens >= 2
        if not multi.any():
            return empty
        a_list, b_list = [], []
        for s0, ln in zip(starts[multi], seg_lens[multi]):
            ai, bi = np.triu_indices(ln, k=1)
            a_list.append(s0 + ai)
            b_list.append(s0 + bi)
        a_idx = np.concatenate(a_list)
        b_idx = np.concatenate(b_list)
        x = hs[a_idx] ^ hs[b_idx]
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
        keep = ham <= max_hamming
        return pa.table(
            {
                "doc_a": pa.array(np.minimum(ids[a_idx], ids[b_idx])[keep]),
                "doc_b": pa.array(np.maximum(ids[a_idx], ids[b_idx])[keep]),
                "hamming": pa.array(ham[keep].astype(np.int64)),
            }
        )

    pairs = (
        banded.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )
    # a pair found via several chunks → dedupe (small bucket shuffle)
    return grouped_aggregate(
        pairs, ["doc_a", "doc_b"], [("min", "hamming", "hamming")]
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard verification (exact, for candidate pairs)
# ---------------------------------------------------------------------------


def dup_clusters(sf_dir: str, jaccard_threshold: float = 0.7):
    """Duplicate clusters: MinHash-LSH candidate pairs → connected components
    → (doc_id, cluster_id, cluster_size) for every doc in a non-trivial
    cluster.

    Components run union-find on the DRIVER over the verified near-dup pairs
    — bounded: only pairs above the Jaccard threshold ever reach the driver,
    a tiny fraction of the corpus.  At extreme duplication rates switch to
    iterated min-label propagation (join labels to edges + groupby-min per
    round); the pair-generation stages are identical either way.
    """
    pairs = minhash_lsh_pairs(sf_dir, jaccard_threshold=jaccard_threshold).to_pandas()
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = [(d, find(d)) for d in parent]
    if not rows:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "cluster_id": pa.array([], type=pa.int64()),
                "cluster_size": pa.array([], type=pa.int64()),
            }
        )
    import collections

    sizes = collections.Counter(r for _, r in rows)
    rows.sort()
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in rows], type=pa.int64()),
            "cluster_id": pa.array([r for _, r in rows], type=pa.int64()),
            "cluster_size": pa.array([sizes[r] for _, r in rows], type=pa.int64()),
        }
    )


def dup_clusters_distributed(sf_dir: str, jaccard_threshold: float = 0.7):
    """``dup_clusters`` with the components step DISTRIBUTED — the scale
    path the driver union-find's docstring promises for extreme duplication
    rates.

    Pairs → ``ops.graph.connected_components`` (hash-min label propagation:
    per round one co-partitioned join + one bucket-shuffled groupby-min,
    O(E) label-only exchange, driver sees a scalar) → cluster sizes via a
    grouped count joined back per bucket.  Output is row-identical to
    ``dup_clusters`` (asserted by test) with the same
    (doc_id, cluster_id, cluster_size) schema, sorted by doc_id.

    Driver boundary: this convenience wrapper still takes the pair TABLE
    from ``minhash_lsh_pairs`` and returns a driver-resident result, both
    O(duplicated docs).  If even those outgrow one node, feed a pair
    Dataset straight into ``connected_components(..., collect=False)`` and
    write the labels from tasks — the propagation itself never collects.
    """
    import ray.data as rd

    from terrier_ray.ops.graph import connected_components
    from terrier_ray.ops.relational import grouped_aggregate, partitioned_join

    pairs = minhash_lsh_pairs(sf_dir, jaccard_threshold=jaccard_threshold)
    edges = pa.table(
        {
            "src": pc.cast(pairs.column("doc_a"), pa.int64()),
            "dst": pc.cast(pairs.column("doc_b"), pa.int64()),
        }
    )
    cc = connected_components(edges)
    if cc.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "cluster_id": pa.array([], type=pa.int64()),
                "cluster_size": pa.array([], type=pa.int64()),
            }
        )
    cc_ds = rd.from_arrow(cc)
    # materialize: partitioned_join probes right.schema(), which would
    # re-execute the aggregation's whole shuffle lineage (CLAUDE.md pitfall)
    sizes = grouped_aggregate(
        cc_ds, ["label"], [("count", "node", "cluster_size")]
    ).materialize()
    out = partitioned_join(cc_ds, sizes, on=["label"])
    tab = pa.concat_tables(
        list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    tab = pa.table(
        {
            "doc_id": tab.column("node"),
            "cluster_id": tab.column("label"),
            "cluster_size": pc.cast(tab.column("cluster_size"), pa.int64()),
        }
    )
    return tab.sort_by([("doc_id", "ascending")])


def ngram_jaccard_exact(text_a: str, text_b: str, width: int = 5) -> float:
    sa = set(_shingle_hashes(text_a, width).tolist())
    sb = set(_shingle_hashes(text_b, width).tolist())
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5):
    """EXACT n-gram Jaccard over the LSH candidate pairs: minhash estimates
    propose (cheap, approximate), the true shingle-set Jaccard disposes —
    the verify side fetches only the candidate docs' texts (broadcast is_in
    filter; candidates are rare by construction).  Returns
    (doc_a, doc_b, jaccard) with the exact similarity."""
    cand = minhash_lsh_pairs(sf_dir, jaccard_threshold=0.0)
    if cand.num_rows == 0:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
    da = cand.column("doc_a").to_numpy(zero_copy_only=False)
    db = cand.column("doc_b").to_numpy(zero_copy_only=False)
    need = pa.array(np.unique(np.concatenate([da, db])))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    rows = pa.concat_tables(
        docs.map_batches(
            lambda b: b.filter(pc.is_in(b.column("doc_id"), value_set=need)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    text_of = dict(
        zip(rows.column("doc_id").to_pylist(), rows.column("text").to_pylist())
    )
    jac = np.array(
        [
            ngram_jaccard_exact(text_of[int(a)], text_of[int(b)])
            for a, b in zip(da, db)
        ]
    )
    keep = jac >= threshold
    return pa.table(
        {
            "doc_a": pa.array(da[keep]),
            "doc_b": pa.array(db[keep]),
            "jaccard": pa.array(jac[keep]),
        }
    )


# ---------------------------------------------------------------------------
# Exact duplicate-span removal (fixed word-window granularity)
# ---------------------------------------------------------------------------


_SEG_SHIFT = 20  # enc = doc_id << 20 | seg_no; guarded in _explode_segments


def segment_dedup(sf_dir: str, width: int = 5, num_partitions: int = 32):
    """Remove exact duplicate spans at fixed word-window granularity.

    Unit = consecutive NON-overlapping ``width``-word segments of each
    document (split on single spaces; the ragged tail segment with fewer
    than ``width`` words is always kept).  For every distinct full-width
    segment string the globally-first occurrence — min (doc_id, seg_no) —
    survives; every other occurrence is dropped, and each document's text
    is reassembled from its kept segments in original order.  Output:
    (doc_id, text, n_segments_kept).

    This is the fixed-granularity approximation of exact substring dedup
    (Lee et al. 2021, "Deduplicating Training Data Makes Language Models
    Better"): their suffix array finds arbitrary-offset duplicate spans
    with a global suffix sort; a fixed window finds window-aligned spans
    with two bucket exchanges and no global sort.  Reference analog: the
    same keep-first discipline as ``exact_dedup`` (min doc_id per distinct
    text), pushed below document granularity.

    Scale shape (100 TB): exactly two text-bearing all-to-all exchanges.
    (1) Segments bucket-shuffle on hash(segment) % P, so ALL occurrences
    of a segment string land in one bucket; the winner is marked with one
    vectorized Arrow group_by(min) + hash join per bucket — exact string
    equality, so unlike a 63-bit-hash key there is no collision data
    loss.  (2) Kept segments bucket-shuffle on doc_id for the ordered
    reassembly.  Nothing is driver-collected; per-bucket memory is
    bounded by input/num_partitions.
    """
    from terrier_ray.ops.relational import _multi_key_bucket

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        """Doc rows → (doc_id, seg_no, seg, n_words) segment rows, fully
        vectorized: Arrow split → flat words + parent indices → seg_no by
        offset math → ONE group_by('list') + binary_join per batch (Arrow
        group_by preserves within-group encounter order for 'list')."""
        batch = batch.combine_chunks()
        words = pc.split_pattern(batch.column("text"), " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.arange(len(flat), dtype=np.int64) - offsets[parent]
        seg_no = pos // width
        if len(seg_no) and int(seg_no.max()) >= (1 << _SEG_SHIFT):
            raise ValueError(
                f"document exceeds {(1 << _SEG_SHIFT) * width} words; "
                "raise _SEG_SHIFT"
            )
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[parent]
        t = pa.table(
            {
                "doc_id": pa.array(doc_ids),
                "seg_no": pa.array(seg_no),
                "word": flat,
            }
        )
        agg = t.group_by(["doc_id", "seg_no"], use_threads=False).aggregate(
            [("word", "list"), ("word", "count")]
        )
        # keys first, then aggregates in request order (pinned pyarrow
        # behavior, q11/cube precedent)
        seg = pc.binary_join(agg.column("word_list"), " ")
        return pa.table(
            {
                "doc_id": agg.column("doc_id"),
                "seg_no": agg.column("seg_no"),
                "seg": seg,
                "n_words": agg.column("word_count"),
            }
        )

    segs = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def tag_seg(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return batch.append_column(
            "__sbucket",
            pa.array(_multi_key_bucket(batch, ["seg"], num_partitions)),
        )

    def mark(group: pa.Table) -> pa.Table:
        """Per segment-hash bucket: keep every ragged tail, and of each
        distinct full-width segment string keep only the min-enc row."""
        t = group.drop_columns(["__sbucket"]).combine_chunks()
        # checked arithmetic: doc_id >= 2^(63-_SEG_SHIFT) must fail loudly
        # (the oracle's BIGINT overflow errors too) — a silent int64 wrap
        # would pick wrong keep-first winners (q11 multiply_checked precedent)
        enc = pc.add_checked(
            pc.multiply_checked(
                t.column("doc_id"), pa.scalar(1 << _SEG_SHIFT, pa.int64())
            ),
            t.column("seg_no"),
        )
        t = t.append_column("__enc", enc).combine_chunks()
        full_mask = pc.equal(t.column("n_words"), width)
        tail = t.filter(pc.invert(full_mask))
        full = t.filter(full_mask)
        if full.num_rows:
            winners = (
                full.select(["seg", "__enc"])
                .group_by(["seg"], use_threads=False)
                .aggregate([("__enc", "min")])
            )
            joined = full.join(winners, keys=["seg"], join_type="inner")
            keep = joined.filter(
                pc.equal(joined.column("__enc"), joined.column("__enc_min"))
            ).select(tail.column_names)
            out = pa.concat_tables([tail, keep])
        else:
            out = tail
        return out.drop_columns(["__enc", "n_words"])

    kept = (
        segs.map_batches(tag_seg, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__sbucket")
        .map_groups(mark, batch_format="pyarrow")
    )

    def tag_doc(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return batch.append_column(
            "__rbucket",
            pa.array(_multi_key_bucket(batch, ["doc_id"], num_partitions)),
        )

    def reassemble(group: pa.Table) -> pa.Table:
        t = (
            group.drop_columns(["__rbucket"])
            .combine_chunks()
            .sort_by([("doc_id", "ascending"), ("seg_no", "ascending")])
        )
        agg = t.select(["doc_id", "seg"]).group_by(
            ["doc_id"], use_threads=False
        ).aggregate([("seg", "list"), ("seg", "count")])
        text = pc.binary_join(agg.column("seg_list"), " ")
        return pa.table(
            {
                "doc_id": agg.column("doc_id"),
                "text": text,
                "n_segments_kept": agg.column("seg_count"),
            }
        )

    return (
        kept.map_batches(tag_doc, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__rbucket")
        .map_groups(reassemble, batch_format="pyarrow")
    )
