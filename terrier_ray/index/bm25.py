"""BM25 retrieval over the built index: exact TAAT and MaxScore-pruned TAAT.

Scoring formula (pinned; the pure-Python oracle re-implements it
independently in terrier_ray/index/oracle.py):

    idf(t)   = ln(1 + (N - df + 0.5) / (df + 0.5))
    wd(t, d) = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    score    = sum over unique query terms (first-occurrence order) idf * wd
    k1 = 1.2, b = 0.75 (classic defaults)

Rank order: score descending, docid ascending on ties.  Float64 everywhere;
per-doc accumulation happens in query-term order in every path, so scores
are bit-identical to the oracle's scalar loop (IEEE-754 determinism).

One kernel serves every ranked path: ``build._wd`` is the only ``wd``
expression, ``_accumulate`` the only per-doc float64 accumulation,
``_topk`` the only (score desc, docid asc) cut and ``_merge_topk`` the only
k-list merge; ``BM25Index.docvalue_mask`` is the only docvalue filter and
``_score_range_topk`` the only shard-side primitive (a monolithic index is
one segment with no tombstones).

Reference analogs: IndexScan / IndexNLJoin (posting lookup,
/root/reference/src/execution/compiler/operator/index_scan_translator.cpp),
top-k bounded heap (/root/reference/src/execution/sql/sorter.cpp:424-430).
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# K1 and B are the pinned constants, re-exported from the build (one copy)
from terrier_ray.index.build import (  # noqa: F401
    B,
    K1,
    _wd,
    decode_final_postings,
    term_hash,
)
from terrier_ray.text.tokenize import tokenize


def idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def _accumulate(
    chunks_d: "list[np.ndarray]", chunks_c: "list[np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-doc sums of the (docids, contributions) chunks: (docids
    ascending int64, scores float64).  ``np.add.at`` adds in element
    order, i.e. chunk order — callers pass chunks in query-term (clause)
    order, which is what keeps scores bit-identical to the oracle."""
    if not chunks_d:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    uniq, inverse = np.unique(np.concatenate(chunks_d), return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(acc, inverse, np.concatenate(chunks_c))
    return uniq, acc


def _topk(uniq: np.ndarray, acc: np.ndarray, k: int) -> "list[tuple[int, float]]":
    """The top ``k`` of (docids, scores) as [(docid, score)], ordered score
    desc, docid asc — a full lexsort, so exact under score ties."""
    order = np.lexsort((uniq, -acc))[:k]
    return [(int(uniq[i]), float(acc[i])) for i in order]


def _merge_topk(klists, k: int) -> "list[tuple[int, float]]":
    """Merge partial top-k lists whose doc sets are disjoint (one per
    shard) into the global top-k — the reference's parallel top-k merge
    (sorter.cpp:424-430)."""
    cand = [pair for kl in klists for pair in kl]
    cand.sort(key=lambda x: (-x[1], x[0]))
    return cand[:k]


def _slice_range(p: tuple, lo: int, hi: int) -> "tuple[np.ndarray, np.ndarray]":
    """(docids, tfs) of posting tuple ``p`` inside the docid range [lo, hi)."""
    dids = p[1]
    i0, i1 = np.searchsorted(dids, np.asarray([lo, hi], dtype=np.uint64))
    return dids[i0:i1], p[2][i0:i1]


def _live_weights(
    idx: "BM25Index", dids: np.ndarray, tfs: np.ndarray, avgdl: float,
    dead: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """(docids int64, idf-free wd) of one segment's postings, its ``dead``
    (sorted int64) docids dropped first; doc lengths come from the
    segment's own sidecar, ``avgdl`` is the caller's (global) one."""
    if dead is not None and dead.size:
        d64 = dids.astype(np.int64, copy=False)
        pos = np.clip(np.searchsorted(dead, d64), 0, dead.size - 1)
        keep = dead[pos] != d64
        if not keep.all():
            dids, tfs = dids[keep], tfs[keep]
    return dids.astype(np.int64), _wd(tfs, idx.doc_len(dids), avgdl)


def _query_terms(text: str) -> list[str]:
    """Unique query tokens, first-occurrence order (qtf ignored)."""
    seen: dict[str, None] = {}
    for t in tokenize(text):
        seen.setdefault(t)
    return list(seen)


def _osa_distance_le(
    a: str, b: str, maxd: int, transpositions: bool = True
) -> "int | None":
    """Optimal-string-alignment (Damerau-Levenshtein without substring
    re-edits) distance between ``a`` and ``b``, or None if it exceeds
    ``maxd`` (rows are abandoned as soon as their minimum exceeds the
    band — Ukkonen cutoff).  With ``transpositions=False`` this is plain
    Levenshtein.  Candidates reach here length-banded and prefix-pruned,
    so the per-pair O(len^2) DP is off the hot path."""
    if a == b:
        return 0
    if abs(len(a) - len(b)) > maxd:
        return None
    prev2: list[int] | None = None
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cost = 0 if ca == cb else 1
            best = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (
                transpositions
                and prev2 is not None
                and i > 1
                and j > 1
                and ca == b[j - 2]
                and a[i - 2] == cb
            ):
                best = min(best, prev2[j - 2] + 1)
            cur[j] = best
        if min(cur) > maxd:
            return None
        prev2, prev = prev, cur
    return prev[-1] if prev[-1] <= maxd else None


class DocidColumn:
    """One docid-keyed fixed-width sidecar (index/build.build_docid_sidecar):
    docid-sorted range parts, each ``int64 docid[n] ++ value[n]``, listed
    with their ranges in ``meta.json`` and np.memmap'd here — a reader's
    heap holds only the pages its lookups touch, O(touched), not O(N).

    ``dtype`` is the value layout (``<i4`` doclens, ``<u2`` dictionary
    codes, ``<i8`` numeric docvalues); ``meta`` keeps the sidecar's extra
    fields (``dict`` for a categorical column)."""

    def __init__(self, sidecar_dir: str, dtype: str):
        self.name = os.path.basename(sidecar_dir)
        self.dtype = np.dtype(dtype)
        with open(os.path.join(sidecar_dir, "meta.json")) as f:
            self.meta = json.load(f)
        #: each part's first docid — the part layout IS the shard boundary
        self.lo = np.array([p["lo"] for p in self.meta["parts"]], dtype=np.int64)
        self.parts: "list[tuple[np.ndarray, np.ndarray]]" = []
        for p in self.meta["parts"]:
            fp = os.path.join(sidecar_dir, p["file"])
            n = p["n"]
            did = np.memmap(fp, dtype="<i8", mode="r", offset=0, shape=(n,))
            val = np.memmap(fp, dtype=self.dtype, mode="r", offset=8 * n, shape=(n,))
            self.parts.append((did, val))

    @classmethod
    def open(cls, sidecar_dir: str, dtype: str) -> "DocidColumn | None":
        """The sidecar at ``sidecar_dir``, or None when it was not built."""
        if not os.path.exists(os.path.join(sidecar_dir, "meta.json")):
            return None
        return cls(sidecar_dir, dtype)

    def docids(self) -> np.ndarray:
        """Every docid, ascending (O(N))."""
        return np.concatenate([d for d, _ in self.parts] + [np.empty(0, np.int64)])

    def values(self) -> np.ndarray:
        """Every value, in docid order (O(N))."""
        return np.concatenate([v for _, v in self.parts] + [np.empty(0, self.dtype)])

    def gather(self, docids: np.ndarray) -> np.ndarray:
        """Values for ``docids``; a docid the sidecar lacks raises KeyError
        — never a silently-wrong value from a neighbouring row."""
        q = np.asarray(docids, dtype=np.int64)
        if len(self.parts) == 1:  # the common case: one part, one search
            did, val = self.parts[0]
            pos = np.clip(np.searchsorted(did, q), 0, len(did) - 1)
            if not (did[pos] == q).all():
                raise KeyError(
                    f"docid missing from the {self.name} sidecar — "
                    "sidecar/corpus mismatch"
                )
            return np.asarray(val[pos])
        pi = np.searchsorted(self.lo, q, side="right") - 1
        if (pi < 0).any():
            raise KeyError(
                f"docid(s) {q[pi < 0][:5].tolist()} not covered by any "
                f"{self.name} part — sidecar/corpus mismatch"
            )
        out = np.empty(len(q), dtype=self.dtype)
        for i in np.unique(pi):
            did, val = self.parts[int(i)]
            sel = pi == i
            pos = np.clip(np.searchsorted(did, q[sel]), 0, len(did) - 1)
            if not (did[pos] == q[sel]).all():
                raise KeyError(
                    f"docid missing from the {self.name} sidecar — "
                    "sidecar/corpus mismatch"
                )
            out[sel] = val[pos]
        return out


class BM25Index:
    """Query-side index handle: memmaps the doclen sidecar, reads posting
    buckets lazily with parquet predicate pushdown, caches per-term postings.

    Doclens: the build writes docid-SORTED fixed-width binary range shards
    (index/build.py build_docid_sidecar); ``self.doclens`` np.memmap's them
    (``DocidColumn``), so a scorer actor's heap holds only the pages its
    queries touch — O(touched), not O(N).  At 1e12 docs each shard task
    maps only its docid-range parts (``DistributedBM25``'s shard-side
    scoring); the part layout IS the shard boundary.  An index without the
    sidecar raises: every index build_index writes has one.

    Heavy terms: the build's second pass (build.fold_salted_postings) folds
    each heavy term's salted sub-postings into ONE fmt-2 row in its primary
    bucket, so a lookup probes exactly one bucket per term.  Only terms in
    stats['salted_terms'] (too big to fold into one parquet cell at scale)
    keep the multi-bucket layout; for those ``lookup`` reads the candidate
    buckets and concatenates the parts in salt order — ranges are disjoint
    and ascending, so postings, block_last and block_max metadata
    concatenate verbatim into one valid list.  Every stats.json
    build_index writes lists 'salted_terms'; one without it raises.
    """

    #: decoded-postings cache entries per index handle (bounded: a heavy
    #: term's decoded list is ~16B/doc; 4096 hot terms is plenty per actor)
    CACHE_CAP = 4096

    #: derived per-term BM25 weight arrays (float64, 8 B/posting); sized to
    #: the postings cache — a weight array is half its term's cached
    #: postings, and a serving query mix (bench: 1,818 distinct terms per
    #: 2,000 queries) must fit or the warm window pays the doc_len gather
    #: + weight arithmetic on every repeat
    WD_CACHE_CAP = 4096

    #: open ParquetFile handles (+ per-row-group term fences from footer
    #: statistics) per bucket file; a cold term lookup is then one direct
    #: read_row_group call (~0.5 ms) instead of a pq.read_table dataset
    #: scan with filter expressions (~2.9 ms measured) — at 1e12 docs a
    #: scorer touches a bounded hot set of buckets, so LRU-cap the handles
    PF_CACHE_CAP = 1024

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"]
        self.num_buckets = self.stats["num_buckets"]
        self.num_salts = int(self.stats.get("num_salts", 1))
        # terms still split across salted buckets (usually none)
        self._heavy = frozenset(self.stats["salted_terms"])
        self.postings_dir = os.path.join(index_dir, "postings")
        #: docid → dl (epoch 2b), memmapped; every index build_index
        #: writes has it, so a missing sidecar raises FileNotFoundError
        self.doclens = DocidColumn(os.path.join(index_dir, "doclens"), "<i4")
        from collections import OrderedDict

        self._cache: "OrderedDict[str, tuple | None]" = OrderedDict()
        self._wd_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._pf_cache: "OrderedDict[int, tuple | None]" = OrderedDict()
        # fuzzy serving caches: per-first-char dictionary slices (≤36) and
        # per-(term, params) expansion lists (fuzzy_expand docstring)
        self._dict_slice_cache: "OrderedDict[str, tuple]" = OrderedDict()
        self._fuzzy_cache: "OrderedDict[tuple, list]" = OrderedDict()

    def _bucket_handle(self, bucket: int):
        """(ParquetFile, rg_term_mins, rg_term_maxs) for a bucket, LRU-cached.

        The fences come from the parquet footer's per-row-group statistics
        on the ``term`` column (already parsed when the file opens — no data
        read).  Rows are term-sorted with 64-row groups (build contract), so
        locating a term is a binary search over the fences.  Truncated
        statistics stay safe: parquet truncates min DOWN and max UP, so the
        containment test can only widen, never miss."""
        if bucket in self._pf_cache:
            self._pf_cache.move_to_end(bucket)
            return self._pf_cache[bucket]
        path = os.path.join(self.postings_dir, f"bucket-{bucket:05d}.parquet")
        if not os.path.exists(path):
            ent = None
        else:
            pf = pq.ParquetFile(path)
            md = pf.metadata
            ti = pf.schema_arrow.get_field_index("term")
            mins, maxs = [], []
            for i in range(md.num_row_groups):
                st = md.row_group(i).column(ti).statistics
                if st is None or st.min is None or st.max is None:
                    mins = None  # stats missing: fall back to filtered read
                    break
                mins.append(st.min)
                maxs.append(st.max)
            ent = (pf, mins, maxs)
        self._pf_cache[bucket] = ent
        while len(self._pf_cache) > self.PF_CACHE_CAP:
            self._pf_cache.popitem(last=False)
        return ent

    def _read_term_rows(
        self, bucket: int, ts: "list[str]", columns: "list[str] | None" = None
    ) -> "pa.Table | None":
        """Posting rows of ``ts`` from one bucket: row-group-pruned direct
        reads through the cached file handle.  ``columns`` restricts the
        read (e.g. ["term", "df"] skips the posting blobs entirely)."""
        ent = self._bucket_handle(bucket)
        if ent is None:
            return None
        pf, mins, maxs = ent
        if mins is None:  # no footer statistics (foreign writer): slow path
            return pq.read_table(
                os.path.join(self.postings_dir, f"bucket-{bucket:05d}.parquet"),
                filters=[("term", "in", ts)],
                columns=columns,
            )
        import bisect

        want = set(ts)
        rgs: set[int] = set()
        for t in ts:
            i = bisect.bisect_right(mins, t) - 1
            # bisect lands on the LAST group with min <= t; a term whose
            # rows span several groups (salted sub-postings colliding into
            # one bucket / legacy v3 layout) makes consecutive mins equal
            # to t, so back up to the FIRST group that can contain it.
            while i - 1 >= 0 and maxs[i - 1] >= t:
                i -= 1
            # a term can span adjacent groups only as multiple rows (salted
            # sub-postings colliding into one bucket / legacy v3 layout)
            while 0 <= i < len(mins) and mins[i] <= t <= maxs[i]:
                rgs.add(i)
                i += 1
                if i >= len(mins) or mins[i] > t:
                    break
        if not rgs:
            return None
        tab = pf.read_row_groups(sorted(rgs), columns=columns)
        import pyarrow.compute as _pc

        return tab.filter(
            _pc.is_in(tab.column("term"), value_set=pa.array(sorted(want)))
        )

    def _wd_of(self, t: str, p: tuple) -> np.ndarray:
        """Idf-free BM25 doc-weight array for term ``t``'s postings, cached.

        Same float64 expression (and operation order) as the inline contrib
        in ``search`` — multiplying by idf afterwards is bit-identical to
        the one-shot ``idf * (...)``, so every consumer stays rank-AND-
        score-identical to the oracle.  Caching it removes the per-query
        doc_len gather + weight arithmetic for hot terms — the dominant
        memory traffic of a warm scorer actor."""
        w = self._wd_cache.get(t)
        if w is not None:
            self._wd_cache.move_to_end(t)
            return w
        _df, dids, tfs, _, _ = p
        w = _wd(tfs, self.doc_len(dids), self.avgdl)
        self._wd_cache[t] = w
        while len(self._wd_cache) > self.WD_CACHE_CAP:
            self._wd_cache.popitem(last=False)
        return w

    def doc_len(self, docids: np.ndarray) -> np.ndarray:
        """float64 doc lengths of ``docids`` from the doclens sidecar."""
        return self.doclens.gather(docids).astype(np.float64)

    def _buckets_of(self, term: str, h: int) -> list[int]:
        """Bucket file(s) holding a term's posting row(s)."""
        if term in self._heavy and self.num_salts > 1:
            from terrier_ray.index.build import salted_bucket

            salts = np.arange(self.num_salts, dtype=np.int64)
            bs = salted_bucket(np.full(self.num_salts, h, dtype=np.int64), salts,
                               self.num_buckets)
            return sorted(set(int(b) for b in bs))
        return [int(h % self.num_buckets)]

    @staticmethod
    def _merge_parts(parts: "list[tuple]"):
        """(salt, df, dids, tfs, bl, bm) parts → one posting tuple.

        Docid-range salting makes parts disjoint and ascending in salt
        order, so this is a concat; df sums to the term's true df."""
        if len(parts) == 1:
            _, df, dids, tfs, bl, bm = parts[0]
            return (df, dids, tfs, bl, bm)
        parts = sorted(parts, key=lambda p: p[0])
        return (
            sum(p[1] for p in parts),
            np.concatenate([p[2] for p in parts]),
            np.concatenate([p[3] for p in parts]),
            np.concatenate([p[4] for p in parts]),
            np.concatenate([p[5] for p in parts]),
        )

    def lookup(self, terms: list[str]):
        """Fetch posting rows for terms (grouped per bucket, one read each).

        Returns {term: (df, docids, tfs, block_last, block_max_wd) | None}.
        """
        result: dict[str, tuple | None] = {}
        missing = []
        for t in terms:
            if t in self._cache:
                result[t] = self._cache[t]
                self._cache.move_to_end(t)
            else:
                missing.append(t)
        if missing:
            th = term_hash(np.asarray(missing, dtype=object))
            by_bucket: dict[int, list[str]] = {}
            for t, h in zip(missing, th):
                for b in self._buckets_of(t, int(h)):
                    by_bucket.setdefault(b, []).append(t)
            parts: dict[str, list[tuple]] = {}
            for bucket, ts in by_bucket.items():
                tab = self._read_term_rows(bucket, ts)
                if tab is None or tab.num_rows == 0:
                    continue
                d = tab.to_pydict()  # one columnar decode, no per-cell .as_py()
                salts = d["salt"] if "salt" in d else [0] * tab.num_rows
                for term, salt, df, post, bl_b, bm_b in zip(
                    d["term"], salts, d["df"],
                    d["postings"], d["block_last"], d["block_max_wd"],
                ):
                    dids, tfs = decode_final_postings(post)
                    parts.setdefault(term, []).append(
                        (
                            int(salt),
                            int(df),
                            dids,
                            tfs,
                            np.frombuffer(bl_b, dtype="<u8"),
                            np.frombuffer(bm_b, dtype="<f4"),
                        )
                    )
            for t in missing:
                result[t] = self._merge_parts(parts[t]) if t in parts else None
                self._cache[t] = result[t]
                self._cache.move_to_end(t)
            while len(self._cache) > self.CACHE_CAP:
                self._cache.popitem(last=False)  # evict LRU (result keeps refs)
        return result

    def df_of(self, terms: "list[str]") -> "dict[str, int]":
        """Per-term document frequency WITHOUT decoding postings — a
        (term, df) column read of the probed buckets' pruned row groups,
        summing salted parts exactly as ``_merge_parts`` does.  Terms absent
        from the index are omitted.  This is the cheap stats feed for
        distributed segmented scoring: global idf needs every segment's df
        but none of their posting blobs."""
        out: dict[str, int] = {t: 0 for t in terms}
        if not terms:
            return {}
        th = term_hash(np.asarray(terms, dtype=object))
        by_bucket: dict[int, list[str]] = {}
        for t, h in zip(terms, th):
            for b in self._buckets_of(t, int(h)):
                by_bucket.setdefault(b, []).append(t)
        for bucket, ts in by_bucket.items():
            tab = self._read_term_rows(bucket, ts, columns=["term", "df"])
            if tab is None or tab.num_rows == 0:
                continue
            d = tab.to_pydict()
            for term, df in zip(d["term"], d["df"]):
                out[term] += int(df)
        return {t: v for t, v in out.items() if v > 0}

    # ------------------------------------------------------------------
    # exact term-at-a-time scoring (vectorized; the bench default)
    # ------------------------------------------------------------------

    def score_all(self, query: str) -> "tuple[np.ndarray, np.ndarray]":
        """Full exact accumulation over every matching doc (no top-k cut):
        (docids ascending int64, scores float64).  This is the per-field
        feed for BM25F combination; ``search`` is exactly this + the
        (score desc, docid asc) lexsort cut.  Each unique query term is a
        boost-1.0 clause (``1.0 * idf`` is exactly ``idf``)."""
        return self._score_clauses([(t, 1.0) for t in _query_terms(query)])

    def _score_clauses(
        self, clauses: "list[tuple[str, float]]"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Exact accumulation of weighted (term, boost) clauses in clause
        order: each contributes ``boost * idf(df) * wd`` per posting."""
        post = self.lookup([t for t, _ in clauses])
        chunks_d, chunks_c = [], []
        for t, boost in clauses:
            p = post.get(t)
            if p is None:
                continue
            chunks_d.append(p[1].astype(np.int64))
            chunks_c.append(boost * idf(self.n_docs, p[0]) * self._wd_of(t, p))
        return _accumulate(chunks_d, chunks_c)

    def search(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact top-k: ``score_all`` + the (score desc, docid asc) cut;
        candidate sets are bounded by query-term df (``search_pruned`` is
        the stopword-heavy path)."""
        return _topk(*self.score_all(query), k)

    # ------------------------------------------------------------------
    # docvalues (categorical forward index; Lucene DocValues analog)
    # ------------------------------------------------------------------

    @functools.cached_property
    def docvalues(self) -> "DocidColumn | None":
        """The lang docvalues sidecar (epoch 2c; None when not built) —
        opened on first use, so unfiltered serving never touches it."""
        return DocidColumn.open(os.path.join(self.index_dir, "docvalues"), "<u2")

    @functools.cached_property
    def docvalues_ts(self) -> "DocidColumn | None":
        """The warc_ts numeric docvalues sidecar (None when not built)."""
        return DocidColumn.open(os.path.join(self.index_dir, "docvalues_ts"), "<i8")

    @property
    def has_docvalues(self) -> bool:
        return self.docvalues is not None

    @property
    def has_numeric_docvalues(self) -> bool:
        return self.docvalues_ts is not None

    @property
    def docvalue_dict(self) -> "list[str]":
        """The sidecar's sorted value dictionary ([] = no sidecar)."""
        return list(self.docvalues.meta["dict"]) if self.docvalues else []

    def _lang_code(self, lang: str) -> "np.uint16 | None":
        """Dictionary code for ``lang``, or None when the value is absent
        from the dictionary (a filter that matches NOTHING — valid input,
        empty result).  Raises when the index has no sidecar at all — a
        misconfiguration, never a silent [] (the ONE lang-filter resolve
        shared by every filtered entry point)."""
        dictionary = self._docvalues_or_raise().meta["dict"]
        return np.uint16(dictionary.index(lang)) if lang in dictionary else None

    def _docvalues_or_raise(self) -> DocidColumn:
        if self.docvalues is None:
            raise ValueError(
                "index built without a docvalues sidecar "
                "(build_index(docvalues=True))"
            )
        return self.docvalues

    def docvalue_codes(self, docids: np.ndarray) -> np.ndarray:
        """Dictionary codes of the docvalue column for ``docids`` (uint16;
        0xFFFF = null) — the doc_len memmap-gather discipline applied to
        the attribute sidecar: a scorer touches only the pages its
        candidates land on."""
        return self._docvalues_or_raise().gather(docids)

    def docvalues_of(self, docids: np.ndarray) -> "list[str | None]":
        """Decoded docvalue strings for ``docids`` (None = null)."""
        codes = self.docvalue_codes(docids)
        d = self.docvalues.meta["dict"]
        return [d[c] if c != 0xFFFF else None for c in codes.tolist()]

    def numeric_docvalue(self, docids: np.ndarray) -> np.ndarray:
        """int64 numeric docvalues (warc_ts epoch units) for ``docids`` —
        the ``docvalue_codes`` gather over the numeric sidecar."""
        if self.docvalues_ts is None:
            raise ValueError(
                "index built without the numeric docvalues sidecar "
                "(build_index(docvalues=True))"
            )
        return self.docvalues_ts.gather(docids)

    def docvalue_mask(
        self,
        docids: np.ndarray,
        lang: "str | None" = None,
        ts_range: "tuple[int, int] | None" = None,
    ) -> np.ndarray:
        """Boolean keep mask of ``docids`` under the docvalue filters — the
        ONE mask every filtered path applies.  ``lang`` is a categorical
        equality filter (a value absent from the dictionary matches
        nothing); ``ts_range=(lo, hi)`` is a half-open [lo, hi) range over
        the numeric warc_ts sidecar (epoch int64); they AND together.  Each
        filter is one sidecar gather over ``docids``, never a corpus read;
        a filter on an index without its sidecar raises."""
        keep = np.ones(len(docids), dtype=bool)
        if lang is not None:
            code = self._lang_code(lang)
            if code is None:
                return np.zeros(len(docids), dtype=bool)
            keep &= self.docvalue_codes(docids) == code
        if ts_range is not None:
            ts = self.numeric_docvalue(docids)
            keep &= (ts >= int(ts_range[0])) & (ts < int(ts_range[1]))
        return keep

    def search_filtered(
        self,
        query: str,
        k: int = 10,
        lang: "str | None" = None,
        ts_range: "tuple[int, int] | None" = None,
    ) -> list[tuple[int, float]]:
        """Attribute-FILTERED exact top-k (``search_after`` page one): the
        full ``score_all`` accumulation, then ``docvalue_mask``, then the
        pinned (score desc, docid asc) cut — so results are rank-AND-score-
        identical to post-filtering the unfiltered full ranking (tested),
        the classic filtered-query semantics (Lucene FilteredQuery / the
        reference's predicate-below-topk plans)."""
        return self.search_after(query, k, None, lang, ts_range)

    def search_after(
        self,
        query: str,
        k: int = 10,
        after: "tuple[int, float] | None" = None,
        lang: "str | None" = None,
        ts_range: "tuple[int, int] | None" = None,
    ) -> list[tuple[int, float]]:
        """Deep pagination — the Lucene/Elasticsearch ``searchAfter``
        analog: the next ``k`` results strictly AFTER the cursor
        ``after = (docid, score)`` — a HIT TUPLE exactly as returned, so
        ``after=page[-1]`` is the whole paging protocol — in the
        engine's total result order
        (score desc, docid asc).  Page-by-page concatenation reconstructs
        the full ranking exactly (tested), because the cursor is a strict
        total-order cut, not an offset.  What the cursor buys is a
        bounded RESULT set per page — page N never ships or merges pages
        1..N-1, which on the distributed shape means O(k) per shard
        k-list instead of O(d+k) deep-prefix heaps everywhere; this
        single-handle implementation still re-runs the full TAAT
        accumulation + candidate sort per page (candidates are bounded
        by query df, same as ``search``).  ``after=None`` is
        page one (== ``search``); ``lang`` / ``ts_range`` compose the
        docvalue filters (``docvalue_mask``)."""
        uniq, acc = self.score_all(query)
        if not len(uniq):
            return []
        keep = self.docvalue_mask(uniq, lang, ts_range)
        if after is not None:
            d0, s0 = int(after[0]), float(after[1])
            keep &= (acc < s0) | ((acc == s0) & (uniq > d0))
        return _topk(uniq[keep], acc[keep], k)

    def search_sorted_by_ts(
        self,
        query: str,
        k: int = 10,
        descending: bool = True,
        lang: "str | None" = None,
        ts_range: "tuple[int, int] | None" = None,
    ) -> "list[tuple[int, int]]":
        """Sort-by-field retrieval (Lucene SortField / ES ``sort`` analog):
        the ``k`` docs matching >= 1 query term ordered by the numeric
        warc_ts docvalue — (ts desc, docid asc) by default, i.e. "newest
        matching" — instead of BM25 score.  Returns (docid, ts) pairs.
        The match set is ``score_all``'s candidate union (same lookup
        path, no score math consumed); ``lang`` / ``ts_range`` compose
        the same ``docvalue_mask`` as ``search_filtered``."""
        uniq, _acc = self.score_all(query)
        if not len(uniq):
            return []
        uniq = uniq[self.docvalue_mask(uniq, lang, ts_range)]
        ts = self.numeric_docvalue(uniq)
        order = np.lexsort((uniq, -ts if descending else ts))[:k]
        return [(int(uniq[i]), int(ts[i])) for i in order]

    def date_histogram(
        self,
        query: str,
        interval: int,
        lang: "str | None" = None,
    ) -> "list[tuple[int, int]]":
        """Date-histogram aggregation over the match set (the ES
        ``date_histogram`` facet): docs matching >= 1 query term bucketed
        by ``floor(ts / interval) * interval`` over the numeric sidecar —
        one gather + one bincount, zero corpus reads.  Returns sorted
        (bucket_start, n_docs) pairs, empty buckets omitted.  ``lang``
        composes the categorical mask."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        uniq, _acc = self.score_all(query)
        if not len(uniq):
            return []
        ts = self.numeric_docvalue(uniq[self.docvalue_mask(uniq, lang)])
        buckets = (ts // int(interval)) * int(interval)
        vals, counts = np.unique(buckets, return_counts=True)
        return [(int(b), int(c)) for b, c in zip(vals, counts)]

    def search_weighted(
        self, clauses: "list[tuple[str, float]]", k: int = 10
    ) -> list[tuple[int, float]]:
        """Exact top-k over weighted OR clauses: each (term, boost) clause
        contributes ``boost * idf(df) * wd`` and per-doc accumulation runs
        in CLAUSE order (float64, same element-order np.add.at discipline
        as ``search``; ``search`` == search_weighted with boost 1.0 per
        unique query term).  This is the boosted-query primitive behind
        relevance feedback (pipelines/fulltext.feedback_topk) and the
        Lucene BoostQuery analog."""
        return _topk(*self._score_clauses(clauses), k)

    # ------------------------------------------------------------------
    # fuzzy term matching (Lucene FuzzyQuery analog)
    # ------------------------------------------------------------------

    def fuzzy_expand(
        self,
        term: str,
        max_edits: int = 1,
        prefix_len: int = 1,
        max_expansions: int = 50,
        transpositions: bool = True,
    ) -> "list[tuple[str, int, int]]":
        """Dictionary terms within edit distance ``max_edits`` of ``term``
        that share its first ``prefix_len`` characters, as
        ``[(variant, edit_distance, df), ...]``.

        Semantics follow Lucene's FuzzyQuery: optimal-string-alignment
        distance (a transposition of adjacent characters counts as ONE edit
        when ``transpositions``), a required common prefix to prune the
        dictionary, and an expansion cap.  Selection and output order are
        pinned for score determinism: ``(edit_distance asc, df desc, term
        asc)``, truncated to ``max_expansions``.

        Candidate fetch is a ``terms_in_range`` prefix scan — a pruned
        (term, df, cf) column read of the posting buckets, no posting blobs
        — then a vectorized utf8-length band cut before the per-candidate
        banded DP.  With ``prefix_len=0`` the whole dictionary is scanned
        (fine at test scale; the 1e12-doc layout hook is the same sorted
        term-dictionary sidecar ``terms_in_range`` documents — Lucene walks
        a term FST with a Levenshtein automaton, which is the in-memory
        version of that sidecar).

        Caching (serving path): the per-FIRST-CHARACTER dictionary slice
        is LRU-cached on the handle (≤36 slices; a slice is (term, df)
        only — at 1e12 docs cap the cache or point it at the sidecar), and
        the final expansion list is LRU-cached per (term, params) — 21→2
        ms/query measured at 60k docs.
        """
        import pyarrow.compute as pc

        if prefix_len > len(term):
            prefix_len = len(term)
        key = (term, max_edits, prefix_len, max_expansions, transpositions)
        hit = self._fuzzy_cache.get(key)
        if hit is not None:
            self._fuzzy_cache.move_to_end(key)
            return hit
        if prefix_len > 0:
            first = term[:1]
            sl = self._dict_slice_cache.get(first)
            if sl is None:
                t = self.terms_in_range(prefix=first).combine_chunks()
                sl = (
                    t.column("term").chunk(0) if t.num_rows else t.column("term"),
                    t.column("df").chunk(0) if t.num_rows else t.column("df"),
                    pc.utf8_length(t.column("term")).to_numpy(zero_copy_only=False),
                )
                self._dict_slice_cache[first] = sl
                while len(self._dict_slice_cache) > 36:
                    self._dict_slice_cache.popitem(last=False)
            self._dict_slice_cache.move_to_end(first)
            terms_arr, dfs_arr, lens = sl
            band = np.abs(lens - len(term)) <= max_edits
            if prefix_len > 1:
                band &= pc.starts_with(
                    terms_arr, pattern=term[:prefix_len]
                ).to_numpy(zero_copy_only=False)
        else:
            dict_slice = self.terms_in_range()
            terms_arr = dict_slice.column("term")
            dfs_arr = dict_slice.column("df")
            lens = pc.utf8_length(terms_arr).to_numpy(zero_copy_only=False)
            band = np.abs(lens - len(term)) <= max_edits
        if not len(band) or not band.any():
            self._fuzzy_cache[key] = []
            while len(self._fuzzy_cache) > self.CACHE_CAP:
                self._fuzzy_cache.popitem(last=False)
            return []
        mask = pa.array(band)
        cand_terms = terms_arr.filter(mask).to_pylist()
        cand_dfs = dfs_arr.filter(mask).to_pylist()
        out: list[tuple[str, int, int]] = []
        for cand, df in zip(cand_terms, cand_dfs):
            ed = _osa_distance_le(term, cand, max_edits, transpositions)
            if ed is not None:
                out.append((cand, ed, int(df)))
        out.sort(key=lambda v: (v[1], -v[2], v[0]))
        out = out[:max_expansions]
        self._fuzzy_cache[key] = out
        while len(self._fuzzy_cache) > self.CACHE_CAP:
            self._fuzzy_cache.popitem(last=False)
        return out

    def search_fuzzy(
        self,
        query: str,
        k: int = 10,
        max_edits: int = 1,
        prefix_len: int = 1,
        max_expansions: int = 50,
    ) -> list[tuple[int, float]]:
        """Exact top-k BM25 where every query term is OR-expanded to its
        fuzzy dictionary variants (``fuzzy_expand``).

        Scoring is pinned (the oracle re-implements it independently):
        each variant v of query term t contributes ``boost * idf(df_v) *
        wd_v(d)`` with ``boost = 1 - ed / min(len(t), len(v))`` (Lucene's
        FuzzyTermsEnum boost; 1.0 for an exact dictionary hit), and per-doc
        accumulation runs in (query-term order) x (fuzzy_expand order),
        float64 — the same element-order ``np.add.at`` discipline as
        ``search``, so scores are bit-identical to the scalar oracle loop.
        Rank: score desc, docid asc.
        """
        terms = _query_terms(query)
        clauses: list[tuple[str, float]] = []  # (variant, boost) in order
        for t in terms:
            for cand, ed, _df in self.fuzzy_expand(
                t, max_edits=max_edits, prefix_len=prefix_len,
                max_expansions=max_expansions,
            ):
                boost = 1.0 if ed == 0 else 1.0 - ed / min(len(t), len(cand))
                clauses.append((cand, boost))
        return self.search_weighted(clauses, k=k)

    # ------------------------------------------------------------------
    # MaxScore-pruned exact term-at-a-time (the big-corpus serving path)
    # ------------------------------------------------------------------

    #: pruning safety margin against float-accumulation-order noise
    _EPS = 1e-9

    def search_pruned(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact top-k with MaxScore-style pruning.

        Terms are processed in DESCENDING upper-bound order; once the summed
        upper bounds of the remaining terms can no longer lift a new doc into
        the top-k, remaining (typically high-df) terms are only PROBED at the
        current candidates' positions (vectorized searchsorted) instead of
        scanned — 'the' with df=millions contributes |candidates| lookups,
        not df.  The final top-2k are re-scored in canonical query-term order
        (bit-identical to the oracle) and re-ranked, so results match
        ``search`` exactly; pruning uses an epsilon margin so accumulation-
        order float noise can never drop a true top-k doc.
        """
        terms = _query_terms(query)
        post = self.lookup(terms)
        live = []
        for ti, t in enumerate(terms):
            p = post.get(t)
            if p is None:
                continue
            df, dids, tfs, _, bm = p
            w = idf(self.n_docs, df)
            ub = w * float(bm.max()) if len(bm) else 0.0
            live.append((ub, ti, t, w, df, dids, tfs))
        if not live:
            return []
        live.sort(key=lambda x: -x[0])
        tail_ub = np.cumsum([ub for ub, *_ in live][::-1])[::-1]

        cand_d = np.empty(0, dtype=np.int64)
        cand_acc = np.empty(0, dtype=np.float64)
        for i, (ub, ti, t, w, df, dids, tfs) in enumerate(live):
            remaining = tail_ub[i]  # ub of this term + all later ones
            if len(cand_acc) >= k:
                kth = np.partition(cand_acc, len(cand_acc) - k)[len(cand_acc) - k]
            else:
                kth = -np.inf
            probe_only = len(cand_acc) >= k and remaining < kth - self._EPS
            if probe_only:
                # no new doc can reach top-k: probe existing candidates only
                pos = np.searchsorted(dids, cand_d.astype(np.uint64))
                pos_c = np.clip(pos, 0, len(dids) - 1)
                hit = dids[pos_c] == cand_d.astype(np.uint64)
                if hit.any():
                    wd_all = self._wd_cache.get(t)
                    if wd_all is not None:  # hot term: reuse cached weights
                        self._wd_cache.move_to_end(t)
                        cand_acc[hit] += w * wd_all[pos_c[hit]]
                    else:  # cold probe: compute only the hit positions
                        cand_acc[hit] += w * _wd(
                            tfs[pos_c[hit]], self.doc_len(cand_d[hit]), self.avgdl
                        )
                continue
            # full merge of this term's postings into the candidate set.
            # Both sides are sorted unique, so a searchsorted scatter-merge
            # replaces unique(concatenate)'s full re-sort — same values, same
            # per-doc add order (one add per term, in term-processing order),
            # ~4 linear passes instead of an n-log-n sort of the union.
            contrib = w * self._wd_of(t, (df, dids, tfs, None, None))
            d64 = dids.astype(np.int64)
            if not len(cand_d):
                cand_d, cand_acc = d64, contrib.copy()
                continue
            pos = np.searchsorted(cand_d, d64)
            pos_c = np.clip(pos, 0, len(cand_d) - 1)
            dup = cand_d[pos_c] == d64
            if dup.any():
                cand_acc[pos_c[dup]] += contrib[dup]
            nd, nc = d64[~dup], contrib[~dup]
            if len(nd):
                out_d = np.empty(len(cand_d) + len(nd), dtype=np.int64)
                out_a = np.empty(len(out_d), dtype=np.float64)
                ia = np.arange(len(cand_d)) + np.searchsorted(nd, cand_d)
                ib = np.arange(len(nd)) + np.searchsorted(cand_d, nd)
                out_d[ia], out_a[ia] = cand_d, cand_acc
                out_d[ib], out_a[ib] = nd, nc
                cand_d, cand_acc = out_d, out_a

        kk = min(2 * k, len(cand_d))
        if len(cand_d) > kk:
            # keep every doc tied with the kk-th accumulated value: with a
            # mass tie at the cut (identical tf/dl postings) an arbitrary
            # argpartition pick could drop the canonical (score desc, docid
            # asc) winners, which the rescore below cannot recover.
            thresh = cand_acc[np.argpartition(-cand_acc, kk - 1)[kk - 1]]
            part = np.flatnonzero(cand_acc >= thresh)
        else:
            part = np.arange(len(cand_d))
        finalists = cand_d[part]
        # canonical rescoring (query-term order) → bit-identical to oracle
        return _topk(finalists, self._rescore(finalists, terms, post), k)

    def _rescore(self, finalists: np.ndarray, terms: list[str], post: dict) -> np.ndarray:
        """Vectorized exact rescore of ``finalists`` (int64 docids).

        Per doc the float adds happen in query-term order with the exact
        expression of ``score_all`` (idf * wd as two ops, float64), so each
        score is bit-identical to scoring that doc alone — one searchsorted
        per TERM instead of one per (doc, term)."""
        scores = np.zeros(len(finalists), dtype=np.float64)
        if not len(finalists):
            return scores
        f_u64 = finalists.astype(np.uint64)
        for t in terms:
            p = post.get(t)
            if p is None:
                continue
            df, dids, tfs, _, _ = p
            pos = np.searchsorted(dids, f_u64)
            pos_c = np.clip(pos, 0, len(dids) - 1)
            hit = dids[pos_c] == f_u64
            if not hit.any():
                continue
            w = idf(self.n_docs, df)
            wd_all = self._wd_cache.get(t)
            if wd_all is not None:  # hot term: reuse cached weights
                self._wd_cache.move_to_end(t)
                scores[hit] += w * wd_all[pos_c[hit]]
            else:
                scores[hit] += w * _wd(
                    tfs[pos_c[hit]], self.doc_len(finalists[hit]), self.avgdl
                )
        return scores

    # ------------------------------------------------------------------
    # term-dictionary range scans (IndexScan Ascending* analog)
    # ------------------------------------------------------------------

    def terms_in_range(
        self,
        lo: str | None = None,
        hi: str | None = None,
        prefix: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ):
        """Range / prefix scan over the term dictionary: returns a sorted
        pa.Table (term, df, cf) for lo <= term < hi (or term LIKE
        'prefix%'), ascending by default.  Reference analog: IndexScanType
        AscendingClosed / OpenHigh / OpenLow plus Descending /
        DescendingLimit (src/include/planner/plannodes/
        plan_node_defs.h:143-152).  Terms are hash-bucketed on disk, so a
        range scan touches every bucket file — but ONLY the (term, df, cf)
        columns with a parquet predicate pushdown, never the posting blobs;
        at 1e12 docs a sorted term-dictionary sidecar per bucket would make
        this a binary search, the layout hook is the same.

        With ``limit`` the scan is bounded per bucket BEFORE the merge: each
        bucket contributes at most ``limit`` rows in scan order (the topk
        map-side-prune shape, ops/relational.py), so driver memory is
        O(limit × buckets) regardless of range width."""
        import glob as _glob

        import pyarrow.dataset as _pads

        if prefix is not None:
            lo, hi = prefix, prefix[:-1] + chr(ord(prefix[-1]) + 1)
        expr = None
        if lo is not None:
            expr = _pads.field("term") >= lo
        if hi is not None:
            e2 = _pads.field("term") < hi
            expr = e2 if expr is None else (expr & e2)
        files = sorted(_glob.glob(os.path.join(self.postings_dir, "bucket-*.parquet")))
        order = [("term", "descending" if descending else "ascending")]

        def agg(t: pa.Table) -> pa.Table:
            # salted heavy terms hold one row per sub-posting → re-sum df/cf
            # (pa group_by returns keys first, then aggregates — positional
            # rename relies on it, same as ops/relational)
            g = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
            return g.rename_columns(["term", "df", "cf"])

        if limit is None:
            t = _pads.dataset(files).to_table(columns=["term", "df", "cf"], filter=expr)
            return agg(t).sort_by(order)
        parts = []
        for f in files:
            pt = _pads.dataset(f).to_table(columns=["term", "df", "cf"], filter=expr)
            # aggregate per file BEFORE the limit slice: a term in the global
            # top-``limit`` is within the first ``limit`` DISTINCT terms of
            # every file it appears in, so no partial df can be cut off
            parts.append(agg(pt).sort_by(order).slice(0, limit))
        merged = pa.concat_tables(parts) if parts else pa.table(
            {"term": pa.array([], pa.string()),
             "df": pa.array([], pa.int64()),
             "cf": pa.array([], pa.int64())}
        )
        # a salted term's parts live in DIFFERENT files → aggregate again
        return agg(merged).sort_by(order).slice(0, limit)

    # ------------------------------------------------------------------
    # positional access (phrase-path only; posbucket sidecar files)
    # ------------------------------------------------------------------

    @property
    def has_positions(self) -> bool:
        return bool(self.stats.get("positions"))

    def positions_for(self, term: str, docids) -> "dict[int, np.ndarray]":
        """Token positions of ``term`` in each of ``docids`` (0-based over
        the doc's token stream) — dict view over ``positions_flat`` (one
        np.split per call; the heavy work is the batched flat gather)."""
        doc_seq, counts, _doc_rep, pos = self.positions_flat(term, docids)
        out: dict[int, np.ndarray] = {}
        if not len(doc_seq):
            return out
        bounds = np.cumsum(counts)[:-1]
        for d, arr in zip(doc_seq.tolist(), np.split(pos, bounds)):
            out[int(d)] = arr
        return out

    def positions_flat(self, term: str, docids):
        """Batched positional gather: token positions of ``term`` for every
        requested doc present in its postings, as FLAT arrays —
        ``(docs uint64, counts int64, doc_rep uint64, pos int64)`` where
        ``docs``/``counts`` give the per-doc segmentation of the parallel
        ``(doc_rep, pos)`` pair lists (positions ascending within a doc).

        Decodes each needed 128-posting block ONCE per salt — all block
        slices concatenate into a single varbyte decode (self-delimiting;
        every slice starts at a value boundary) — and un-deltas with ONE
        segmented cumsum, so the per-candidate cost is O(1) bookkeeping:
        a stopword-heavy phrase's 10^4-candidate AND set previously paid
        ~6 small numpy kernels per (term, candidate) (122k varbyte_decode
        calls / 9.4 s per 20 phrases profiled at sf0.1).  Never touches
        corpus text.

        Positions rows stay one per (term, salt) even after the fold pass;
        a salt's docid range is re-derived from ``salt_of_docid``'s
        arithmetic, so the block/posting indexing below is always relative
        to that salt's own sub-list of the merged postings."""
        if not self.has_positions:
            raise ValueError("index built without positions=True")
        from terrier_ray.index.build import (
            salt_of_docid,
            salted_bucket,
            term_hash,
        )
        from terrier_ray.index.codec import varbyte_decode

        empty = (
            np.empty(0, np.uint64),
            np.empty(0, np.int64),
            np.empty(0, np.uint64),
            np.empty(0, np.int64),
        )
        p = self.lookup([term]).get(term)
        if p is None:
            return empty
        _df, dids, tfs, _bl, _bm = p
        block = int(self.stats.get("block_size", 128))

        # posbucket rows per salt (heavy per ORIGINAL heavy_terms list —
        # the fold pass rewrites postings rows, never positions rows)
        heavy_all = frozenset(self.stats.get("heavy_terms", ()))
        h = int(term_hash(np.asarray([term], dtype=object))[0])
        if term in heavy_all and self.num_salts > 1:
            salts = np.arange(self.num_salts, dtype=np.int64)
            buckets = set(
                int(b)
                for b in salted_bucket(
                    np.full(self.num_salts, h, np.int64), salts, self.num_buckets
                )
            )
        else:
            buckets = {int(h % self.num_buckets)}
        rows: dict[int, tuple[bytes, np.ndarray]] = {}
        for b in sorted(buckets):
            path = os.path.join(self.postings_dir, f"posbucket-{b:05d}.parquet")
            if not os.path.exists(path):
                continue
            t = pq.read_table(path, filters=[("term", "=", term)])
            for s, blob, bo in zip(
                t.column("salt").to_pylist(),
                t.column("positions").to_pylist(),
                t.column("block_off").to_pylist(),
            ):
                rows[int(s)] = (blob, np.frombuffer(bo, dtype="<u4"))
        if not rows:
            return empty

        # per-salt sub-list boundaries within the merged postings.
        # BATCHED gather: one vectorized candidate locate, then per salt ONE
        # varbyte decode over the concatenation of the UNIQUE needed blocks
        # (varbyte is self-delimiting and every block slice starts at a
        # value boundary, so concatenated slices decode as one stream) —
        # a stopword-heavy phrase's 10^4-candidate AND set previously paid
        # ~6 small numpy kernels per (term, candidate) in varbyte_decode
        # (122k calls / 9.4 s per 20 phrases profiled at sf0.1); now the
        # per-candidate work is integer math + one tiny cumsum.
        q = ((1 << 63) + self.num_salts - 1) // self.num_salts
        q64 = np.asarray([int(d) for d in docids], dtype=np.uint64)
        if not len(q64):
            return empty
        locs = np.searchsorted(dids, q64)
        ok = locs < len(dids)
        ok[ok] = dids[locs[ok]] == q64[ok]
        if not ok.any():
            return empty
        heavy_salted = term in heavy_all and self.num_salts > 1
        salts_of = (
            (q64 // np.uint64(q)).astype(np.int64)
            if heavy_salted
            else np.zeros(len(q64), dtype=np.int64)
        )
        docs_parts: list[np.ndarray] = []
        counts_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        for s in sorted(rows):
            sel = ok & (salts_of == s)
            if not sel.any():
                continue
            blob, boff = rows[s]
            part_start = (
                int(np.searchsorted(dids, np.uint64(s * q))) if s else 0
            )
            part_end = (
                int(np.searchsorted(dids, np.uint64((s + 1) * q)))
                if heavy_salted
                else len(dids)
            )
            tfs_salt = tfs[part_start:part_end]
            # prefix position-counts per posting index within this salt part
            c = np.concatenate(
                ([0], np.cumsum(tfs_salt, dtype=np.int64))
            )
            i_part = locs[sel] - part_start
            bix = (i_part // block).astype(np.int64)
            uniq_b, b_inv = np.unique(bix, return_inverse=True)
            slices: list[bytes] = []
            offs = np.zeros(len(uniq_b), dtype=np.int64)
            total = 0
            for j, b in enumerate(uniq_b.tolist()):
                lo = int(boff[b])
                hi = int(boff[b + 1]) if b + 1 < len(boff) else len(blob)
                slices.append(blob[lo:hi])
                offs[j] = total
                total += int(
                    c[min((b + 1) * block, len(tfs_salt))] - c[b * block]
                )
            vals = varbyte_decode(b"".join(slices))
            # per-candidate value ranges inside the decoded stream, then
            # ONE segmented cumsum un-deltas every candidate at once
            starts = offs[b_inv] + (c[i_part] - c[bix * block])
            cnts = tfs_salt[i_part].astype(np.int64)
            tot = int(cnts.sum())
            seg0 = np.concatenate(([0], np.cumsum(cnts)[:-1]))
            flat_idx = (
                np.repeat(starts, cnts)
                + np.arange(tot, dtype=np.int64)
                - np.repeat(seg0, cnts)
            )
            gaps = vals[flat_idx].astype(np.int64)
            g = np.cumsum(gaps)
            corr = np.repeat(g[seg0] - gaps[seg0], cnts)
            docs_parts.append(q64[sel])
            counts_parts.append(cnts)
            pos_parts.append(g - corr)
        if not docs_parts:
            return empty
        docs = np.concatenate(docs_parts)
        counts = np.concatenate(counts_parts)
        pos = np.concatenate(pos_parts)
        return docs, counts, np.repeat(docs, counts), pos

    # ------------------------------------------------------------------
    # boolean retrieval (unranked set algebra over sorted docid lists)
    # ------------------------------------------------------------------

    def search_boolean(
        self,
        must: "list[str] | None" = None,
        should: "list[str] | None" = None,
        must_not: "list[str] | None" = None,
    ) -> np.ndarray:
        """Unranked boolean retrieval: docids satisfying
        (AND of ``must``) ∧ (OR of ``should``, when given) ∧ ¬(ANY of
        ``must_not``), ascending.  Posting lists are docid-sorted, so the
        set algebra is vectorized numpy intersect/union/setdiff — the
        classic conjunctive/disjunctive query path next to ranked BM25
        (reference analog: IndexScan Exact/range kinds,
        src/include/planner/plannodes/plan_node_defs.h:143-152).

        Terms are normalized with the index tokenizer; an unindexed MUST
        term yields the empty result (AND with ∅)."""
        must = [t for q in (must or []) for t in _query_terms(q)]
        should = [t for q in (should or []) for t in _query_terms(q)]
        must_not = [t for q in (must_not or []) for t in _query_terms(q)]
        post = self.lookup(list(dict.fromkeys(must + should + must_not)))

        def dids(term: str) -> np.ndarray:
            p = post.get(term)
            return np.empty(0, dtype=np.uint64) if p is None else p[1]

        acc: np.ndarray | None = None
        # rarest-first: every later intersection works on the smallest set
        for t in sorted(must, key=lambda t: len(dids(t))):
            d = dids(t)
            acc = d if acc is None else acc[np.isin(acc, d, assume_unique=True)]
            if len(acc) == 0:
                break
        if should:
            uni = np.unique(np.concatenate([dids(t) for t in should]))
            acc = uni if acc is None else acc[np.isin(acc, uni, assume_unique=True)]
        if acc is None:  # pure NOT query: complement over the corpus docids
            acc = self.doclens.docids().astype(np.uint64)  # sorted, unique
        if must_not and len(acc):
            excl = np.unique(np.concatenate([dids(t) for t in must_not]))
            acc = acc[~np.isin(acc, excl, assume_unique=True)]
        return np.sort(acc)


class SegmentedBM25:
    """Append-only segmented index — the incremental-update pattern (new
    documents build a DELTA segment with ``build_index``; no monolithic
    rebuild).  Queries merge segments at read time with EXACT global stats:
    n_docs and total_dl sum as integers, per-term df sums across segments,
    so every posting's contribution is bit-identical to an index built over
    the union corpus, and the per-doc float accumulation order (query-term
    major) is unchanged because within a term each doc contributes exactly
    one posting from exactly one segment.  ``search`` is therefore
    rank-AND-score-identical to the monolithic index (asserted in
    tests/test_index_bm25.py).

    Contract: LIVE doc sets are disjoint across segments — append-only
    ingest keeps them disjoint by construction, and an UPDATE keeps the
    invariant by tombstoning the old copy in its prior segment while the
    delta carries the new body (segments.sync_snapshot_dml).  When segment
    count or tombstone mass makes the per-query fan-out hurt, compact
    (terrier_ray.index.segments.maybe_compact / compact_segments).

    DELETE support (``tombstone_dirs``): each sidecar from
    ``segments.build_tombstones`` carries the EXACT stat deltas of a DML
    delete (matched-doc count, deleted dl sum, per-term deleted df — mined
    from the segments' own corpus epochs, so the tokenization is the
    index's own).  n_docs / avgdl / idf are adjusted with integer deltas
    and dead docids are masked out of the postings PER SEGMENT (the
    sidecar's ``seg`` column), so search stays bit-identical to an index
    REBUILT over the remaining docs — not the Lucene approximation where
    df/avgdl go stale until a merge.  Per-segment scoping is what makes
    UPDATE work: the same docid is dead in the base segment and live in
    the delta carrying its new body (segments.sync_snapshot_dml).
    Tombstone ranges must be disjoint (one per DML version step, like
    segments)."""

    def __init__(
        self,
        segment_dirs: "list[str]",
        tombstone_dirs: "list[str] | tuple[str, ...]" = (),
    ):
        if not segment_dirs:
            raise ValueError("need at least one segment")
        self.segments = [BM25Index(d) for d in segment_dirs]
        self._seg_names = [os.path.basename(d.rstrip("/")) for d in segment_dirs]
        self.n_docs = sum(s.n_docs for s in self.segments)
        total_dl = sum(int(s.stats["total_dl"]) for s in self.segments)
        # per-SEGMENT sorted deleted-docid arrays: an updated doc keeps its
        # docid (old body tombstoned in the base segment, new body live in a
        # delta), so the mask must not touch the delta's posting
        self._del_by_seg: dict[str, np.ndarray] = {}
        self._df_del: dict[str, int] = {}
        if tombstone_dirs:
            import json

            import pyarrow.parquet as _pq

            raw: dict[str, list[np.ndarray]] = {}
            for td in tombstone_dirs:
                with open(os.path.join(td, "meta.json")) as f:
                    meta = json.load(f)
                self.n_docs -= int(meta["n_del"])
                total_dl -= int(meta["dl_del"])
                dtab = _pq.read_table(os.path.join(td, "deleted.parquet"))
                d = dtab.column("docid").to_numpy(zero_copy_only=False)
                for sname, did in zip(dtab.column("seg").to_pylist(), d):
                    raw.setdefault(sname, []).append(did)
                ttab = _pq.read_table(os.path.join(td, "termdeltas.parquet"))
                for t, c in zip(ttab.column("term").to_pylist(),
                                ttab.column("df_del").to_pylist()):
                    self._df_del[t] = self._df_del.get(t, 0) + int(c)
            self._del_by_seg = {
                s: np.unique(np.asarray(v, dtype=np.int64))
                for s, v in raw.items()
            }
        self.avgdl = (total_dl / self.n_docs) if self.n_docs else 0.0

    @property
    def _del_ids(self) -> np.ndarray:
        """Union of all tombstoned docids (diagnostics/tests)."""
        if not self._del_by_seg:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(list(self._del_by_seg.values())))

    def search(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact top-k over every segment's live docs: per-term global df
        from the segments' posting rows (``lookup``) minus the tombstone
        df deltas, then each segment's postings through the dead-mask-and-
        weigh step the shard primitive uses (``_live_weights``)."""
        terms = _query_terms(query)
        posts = [seg.lookup(terms) for seg in self.segments]
        chunks_d, chunks_c = [], []
        for t in terms:
            df_total = sum(
                p[t][0] for p in posts if p.get(t) is not None
            ) - self._df_del.get(t, 0)
            if df_total <= 0:
                continue
            w = idf(self.n_docs, df_total)
            for seg, sname, post in zip(self.segments, self._seg_names, posts):
                p = post.get(t)
                if p is None:
                    continue
                d, wd = _live_weights(
                    seg, p[1], p[2], self.avgdl, self._del_by_seg.get(sname)
                )
                chunks_d.append(d)
                chunks_c.append(w * wd)
        return _topk(*_accumulate(chunks_d, chunks_c), k)


def _score_range_topk(
    index_dir: str, lo: int, hi: int,
    per_query_terms: "list[list[str]]", k: int,
    filter_lang: "str | None" = None,
    filter_ts: "tuple[int, int] | None" = None,
    stats: "tuple[int, float, dict[str, int]] | None" = None,
    dead: "np.ndarray | None" = None,
):
    """Shard-side scoring, the ONE primitive behind ``DistributedBM25`` and
    ``DistributedSegmentedBM25``: score every query against the docid
    range [lo, hi) of one index and return per-query partial top-k lists.

    Runs where the range's doclens live (BM25Index memmaps only the pages
    its range touches).  A monolithic index is one segment with no
    tombstones: its df in the posting rows is GLOBAL (the fold pass sums
    salted parts) and n_docs / avgdl are its own.  A segment of a
    ``SegmentedBM25`` gets the global ``stats = (n_docs, avgdl, df)`` —
    the integer-exact tombstone adjustments, df summed over segments minus
    the tombstones' df deltas — and its ``dead`` docids, masked before
    doc_len exactly as ``SegmentedBM25.search`` does.  Contributions
    accumulate in query-term order with the pinned float64 expression and
    each live doc lives in exactly ONE (segment, range), so the merged
    k-lists are rank-AND-score-identical to the local search.
    ``filter_lang`` / ``filter_ts`` apply ``docvalue_mask`` in-shard after
    accumulation, where the range's attribute pages live — the
    ``search_filtered`` semantics.  Sandbox note: posting rows decode fully
    and slice to the range; a cluster deployment document-partitions the
    postings per shard (the fmt-2 multi-part rows are already docid-range
    parts, so per-range decode is a layout detail, not a redesign)."""
    idx = BM25Index(index_dir)
    if stats is None:
        n_docs, avgdl, df_global = idx.n_docs, idx.avgdl, None
    else:
        n_docs, avgdl, df_global = stats
    post = idx.lookup(sorted({t for ts in per_query_terms for t in ts}))
    results = []
    for terms in per_query_terms:
        chunks_d, chunks_c = [], []
        for t in terms:
            p = post.get(t)
            if p is None:
                continue
            df = p[0] if df_global is None else df_global.get(t, 0)
            if df <= 0:
                continue
            d, wd = _live_weights(idx, *_slice_range(p, lo, hi), avgdl, dead)
            chunks_d.append(d)
            chunks_c.append(idf(n_docs, df) * wd)
        uniq, acc = _accumulate(chunks_d, chunks_c)
        if filter_lang is not None or filter_ts is not None:
            keep = idx.docvalue_mask(uniq, filter_lang, filter_ts)
            uniq, acc = uniq[keep], acc[keep]
        results.append(_topk(uniq, acc, k))
    return results


class DistributedSegmentedBM25:
    """Shard-side scoring over a DML-maintained segmented index — the
    ``search_many_sharded`` scale shape applied per segment, so the index
    keeps its 1e12-doc serving path through INSERT/UPDATE/DELETE without
    waiting for a compaction.

    Global stats come from tiny sidecars driver-side (n_docs/avgdl via
    SegmentedBM25's integer-exact tombstone adjustment; per-term df via
    ``BM25Index.df_of`` column reads minus tombstone df deltas — no
    posting blob ever decodes at the driver).  One ``_score_range_topk``
    task per (segment, doclen-part docid range) scores every query against
    its range with locally-memmapped doclens, masks ITS segment's dead
    docids, and returns a partial top-k; the caller merges k-lists.
    Live doc sets are disjoint across segments (SegmentedBM25 contract:
    an update tombstones the old copy), so the merge is
    rank-AND-score-identical to ``SegmentedBM25.search`` (tested)."""

    def __init__(
        self, segment_dirs: "list[str]",
        tombstone_dirs: "list[str] | None" = None,
    ):
        import ray

        self.local = SegmentedBM25(segment_dirs, tombstone_dirs=tombstone_dirs)
        self.segment_dirs = list(segment_dirs)
        self._score = ray.remote(_score_range_topk)

    def search_many(self, queries: "list[str]", k: int = 10):
        """Per-query top-k [(docid, score), ...] lists."""
        import ray

        per_query_terms = [_query_terms(q) for q in queries]
        terms = sorted({t for ts in per_query_terms for t in ts})
        df_global: dict[str, int] = {}
        for seg in self.local.segments:
            for t, v in seg.df_of(terms).items():
                df_global[t] = df_global.get(t, 0) + v
        for t, dd in self.local._df_del.items():
            if t in df_global:
                df_global[t] -= dd
        stats = (self.local.n_docs, self.local.avgdl, df_global)
        futs = [
            self._score.remote(
                sdir, lo, hi, per_query_terms, k, None, None, stats,
                self.local._del_by_seg.get(sname),
            )
            for seg, sdir, sname in zip(
                self.local.segments, self.segment_dirs, self.local._seg_names
            )
            for lo, hi in doclen_shard_ranges(seg, None)
        ]
        partials = ray.get(futs)
        return [_merge_topk([part[qi] for part in partials], k)
                for qi in range(len(queries))]


def doclen_shard_ranges(
    handle, num_shards: "int | None"
) -> "list[tuple[int, int]]":
    """Docid ranges to score per shard task: the doclen parts' natural
    boundaries (each shard's doclens are one contiguous mmap), split
    further when ``num_shards`` asks for more parallelism.  The ONE range
    discipline shared by every shard-side serving path (DistributedBM25
    and QueryStringEngine) — each corpus docid lands in exactly one range,
    so per-range partials merge exactly."""
    lows = [int(lo) for lo in handle.doclens.lo]
    bounds = lows + [1 << 63]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    if num_shards is None or num_shards <= len(ranges):
        return ranges
    per = -(-num_shards // len(ranges))
    out = []
    for lo, hi in ranges:
        step = max(1, (hi - lo) // per)
        cuts = list(range(lo, hi, step))[:per] + [hi]
        out.extend(zip(cuts[:-1], cuts[1:]))
    return out


class DistributedBM25:
    """Shard-side scatter-gather query execution, the 1e12-doc shape: the
    docid space splits into range shards (the doclen sidecar's natural
    boundaries), one ``_score_range_topk`` task per shard scores every
    query against ITS docid range using its locally-memmapped doclens and
    returns a partial top-k, and the caller merges k-lists — the
    reference's parallel top-k merge
    (/root/reference/src/execution/sql/sorter.cpp:424-430).  Decoded
    postings of hot terms never transit to one process; only k-row lists
    do.  Rank-AND-score-identical to ``BM25Index.search`` (disjoint
    shards, query-term-order accumulation; asserted in tests)."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self.local = BM25Index(index_dir)
        import ray

        self._score_range = ray.remote(_score_range_topk)

    def search_many_sharded(
        self,
        queries: "list[str]",
        k: int = 10,
        num_shards: "int | None" = None,
        filter_lang: "str | None" = None,
        filter_ts: "tuple[int, int] | None" = None,
    ):
        """Per-query top-k via shard-side scoring + k-list merge (see class
        docstring).  Returns one [(docid, score), ...] list per query.
        ``filter_lang`` (categorical equality) and ``filter_ts`` (numeric
        [lo, hi) range) push docvalue filters INTO the shard tasks (each
        masks its own range from its local attribute sidecar pages before
        the cut), so merged results equal ``BM25Index.search_filtered`` —
        filtered docids never transit."""
        import ray

        per_query_terms = [_query_terms(q) for q in queries]
        futs = [
            self._score_range.remote(
                self.index_dir, lo, hi, per_query_terms, k, filter_lang,
                filter_ts,
            )
            for lo, hi in doclen_shard_ranges(self.local, num_shards)
        ]
        partials = ray.get(futs)
        return [_merge_topk([part[qi] for part in partials], k)
                for qi in range(len(queries))]

    def search_many(
        self, queries: "list[str]", k: int = 10, num_shards: "int | None" = None
    ):
        """Default distributed query path = ``search_many_sharded``."""
        return self.search_many_sharded(queries, k=k, num_shards=num_shards)


class BM25Scorer:
    """Actor-pool map_batches stage: queries (query_id, text) → top-k rows.

    Index loaded ONCE per actor (__init__); per batch it scores each query
    with ``search_pruned`` and emits (query_id, rank, docid, score).
    """

    def __init__(self, index_dir: str, k: int = 10):
        self.index = BM25Index(index_dir)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docids, scores = [], [], [], []
        for qid, text in zip(
            batch.column("query_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for rank, (d, s) in enumerate(self.index.search_pruned(text, self.k), start=1):
                qids.append(qid)
                ranks.append(rank)
                docids.append(d)
                scores.append(s)
        return pa.table(
            {
                "query_id": pa.array(qids, type=pa.int32()),
                "rank": pa.array(ranks, type=pa.int32()),
                "docid": pa.array(docids, type=pa.int64()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )
