"""BM25 retrieval over the built index: one executor for every search
surface, MaxScore-pruned on stopword-heavy top-k queries.

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
k-list merge; ``BM25Index.docvalue_mask`` is the only docvalue filter.

One executor runs every query.  A query compiles to a *plan*: a tuple of
(term, weight) pairs for a bare or weighted OR query, or a dict whose
``clauses`` are MUST / SHOULD / NOT term-pair clauses and phrase
pseudo-terms, with an optional docvalue filter.  A *unit* is a segment's
``BM25Index``, a docid range and its sorted dead docids (``Unit``).
``execute`` runs plans with global stats (n_docs, avgdl, term df, phrase
df) over *shards* — the units whose docs accumulate together — and
returns each shard's (docids, scores) after the MUST, NOT and docvalue
masks.  A table is files plus removes (Delta Lake, VLDB'20): a
monolithic index is one segment with no tombstones, so ``BM25Index`` and
``SegmentedBM25`` share every read method (``_Reader``, one shard holding
all the reader's units), and every distributed surface ships (plans, a
one-unit shard) to one Ray task (``_unit_task``) and merges the k-lists
(``_fan_out``).

Given a query's k, the executor picks exact TAAT or MaxScore
(``_maxscore``) per OR plan and shard from how many fetched postings lie
in the shard's units (``_prunes``, ``PRUNE_MIN_DF``).  Both return the
exact top k with oracle-identical scores, so the rule moves only latency.

Reference analogs: IndexScan / IndexNLJoin (posting lookup,
/root/reference/src/execution/compiler/operator/index_scan_translator.cpp),
top-k bounded heap (/root/reference/src/execution/sql/sorter.cpp:424-430).
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import NamedTuple

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


# ----------------------------------------------------------------------
# the executor: plans over (segment, docid range) units
# ----------------------------------------------------------------------

#: clause occurs (the query-string grammar's prefixes)
MUST, SHOULD, MUST_NOT = "+", "", "-"

#: one past the largest docid (url hashes are 63-bit)
_END = 1 << 63

_NO_DOCS = np.empty(0, dtype=np.int64)
_NO_DOCS.flags.writeable = False


class Unit(NamedTuple):
    """What the executor runs a plan over: one segment's index, the docid
    range [lo, hi) of it, and that segment's sorted int64 dead
    (tombstoned) docids.  ``Unit(idx)`` is a whole monolithic index."""

    idx: "BM25Index"
    lo: int = 0
    hi: int = _END
    dead: np.ndarray = _NO_DOCS


def _span(u: Unit, dids: np.ndarray) -> "tuple[int, int]":
    """[i0, i1): the positions of sorted uint64 ``dids`` in u's range."""
    if u.lo > 0 or u.hi < _END:
        return tuple(np.searchsorted(dids, np.asarray([u.lo, u.hi], dtype=np.uint64)))
    return 0, len(dids)


def _live(u: Unit, dids: np.ndarray, tfs: np.ndarray):
    """(docids uint64, tfs) of a posting list inside unit ``u``: its docid
    range, with the unit's dead docids dropped."""
    i0, i1 = _span(u, dids)
    dids, tfs = dids[i0:i1], tfs[i0:i1]
    if u.dead.size and len(dids):
        d64 = dids.astype(np.int64)
        pos = np.clip(np.searchsorted(u.dead, d64), 0, u.dead.size - 1)
        keep = u.dead[pos] != d64
        if not keep.all():
            dids, tfs = dids[keep], tfs[keep]
    return dids, tfs


def _phrase_occurrences(idx, phrase: str, slop: int = 0):
    """(docids ascending int64, per-doc match counts int64) for the token
    sequence inside ``idx`` — a ``Unit`` or a whole index — by
    position-list intersection (zero corpus text reads).  With ``slop ==
    0`` a match is the exact adjacent sequence; with ``slop >= 1`` it is a
    MINIMAL unordered window over the DISTINCT tokens with span <=
    n_distinct + slop (querylang's proximity semantics; kernel
    ``_minimal_window_count``).  A unit's candidates are its live docids
    in its range, so dead docids never reach a position decode."""
    u = idx if isinstance(idx, Unit) else Unit(idx)
    idx = u.idx
    seq = tokenize(phrase)
    empty = np.empty(0, np.int64), np.empty(0, np.int64)
    if not seq:
        return empty
    if not idx.has_positions:
        raise ValueError(
            "phrase clauses need a positional index (build_index(positions=True))"
        )
    # Candidate AND over the unit's live postings, rarest-first — a shard
    # task intersects only its own range's postings, never the corpus's.
    uniq_terms = list(dict.fromkeys(seq))
    post = idx.lookup(uniq_terms)
    sliced: dict[str, np.ndarray] = {}
    for t in uniq_terms:
        p = post.get(t)
        if p is None:
            return empty  # AND with an unindexed term
        sliced[t] = _live(u, p[1], p[2])[0]
        if not len(sliced[t]):
            return empty
    cand: np.ndarray | None = None
    for t in sorted(uniq_terms, key=lambda t: len(sliced[t])):
        d = sliced[t]
        cand = d if cand is None else cand[np.isin(cand, d, assume_unique=True)]
        if not len(cand):
            return empty
    cand_list = [int(d) for d in cand]
    if slop:
        # one positions fetch per UNIQUE term (a repeated token reuses it)
        posmaps = {t: idx.positions_for(t, cand_list) for t in uniq_terms}
        docs: list[int] = []
        counts: list[int] = []
        window = len(uniq_terms) + int(slop)
        for d in cand_list:
            arrs = [posmaps[t].get(d) for t in uniq_terms]
            if any(a is None for a in arrs):
                continue
            c = _minimal_window_count(arrs, window)
            if c:
                docs.append(d)
                counts.append(c)
        return np.asarray(docs, np.int64), np.asarray(counts, np.int64)
    # EXACT phrase: one flat positions fetch per unique term, then the
    # whole adjacency intersection runs as len(seq)-1 GLOBAL intersect1d
    # calls over packed (candidate-ordinal << 32 | position - offset)
    # int64 keys — never a per-candidate loop (a stopword phrase's 10^4-
    # candidate AND set previously paid ~47k tiny intersect1d calls at
    # sf0.1).  Ordinal packing is collision-free: ordinals < 2^31 and
    # token positions < 2^32 - len(seq) (a doc's token count), and a
    # match's j-th position is >= j so the j-shift never borrows out of
    # the ordinal field for any surviving key.
    flats = {t: idx.positions_flat(t, cand_list)[2:] for t in uniq_terms}
    cand_arr = np.asarray(cand, dtype=np.uint64)  # sorted (intersect chain)
    shift = np.int64(1) << np.int64(32)
    keys: "np.ndarray | None" = None
    for j, t in enumerate(seq):
        doc_rep, pos = flats[t]
        if not len(doc_rep):
            return empty
        ordn = np.searchsorted(cand_arr, doc_rep).astype(np.int64)
        kj = ordn * shift + (pos - j)
        keys = kj if keys is None else np.intersect1d(
            keys, kj, assume_unique=True
        )
        if not len(keys):
            return empty
    ords, cnts = np.unique(keys >> np.int64(32), return_counts=True)
    return cand_arr[ords].astype(np.int64), cnts.astype(np.int64)


def _minimal_window_count(arrs: "list[np.ndarray]", window: int) -> int:
    """Number of MINIMAL windows containing >=1 position from every array
    with span (max - min + 1) <= ``window`` — minimal-interval semantics
    (Clarke/Cormack/Burkowski 1995): an interval covering all k labels
    such that dropping either endpoint breaks coverage.  Minimal windows
    never nest, each is identified by its right endpoint, so one
    two-pointer sweep over the label-merged position list enumerates
    them all exactly once.  Positions are token indices, distinct across
    arrays within a doc (one token per position), so the merged order is
    unambiguous.  O(total positions) per doc; callers bound the doc set
    by the candidate AND.  This sweep is the one remaining sequential
    Python kernel on the positional paths (the exact-phrase path is fully
    vectorized via packed-key intersect1d): a stopword-heavy proximity
    query pays ~87 ms at sf0.1 vs 26 ms exact.  A vectorized minimal-
    interval formulation exists (per-label running last-occurrence keys +
    a prev-same-label gather) if that tail ever matters."""
    k = len(arrs)
    if k == 1:
        return int(len(arrs[0]))  # every single occurrence spans 1 <= window
    pos = np.concatenate(arrs)
    lab = np.concatenate(
        [np.full(len(a), i, dtype=np.int32) for i, a in enumerate(arrs)]
    )
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    lab = lab[order]
    cnt = np.zeros(k, dtype=np.int64)
    covered = 0
    left = 0
    out = 0
    for r in range(len(pos)):
        t = int(lab[r])
        cnt[t] += 1
        if cnt[t] == 1:
            covered += 1
        if covered < k:
            continue
        while cnt[int(lab[left])] > 1:  # maximal left with full coverage
            cnt[int(lab[left])] -= 1
            left += 1
        # [left, r] is minimal iff r's label is unique inside it (dropping
        # the right endpoint breaks coverage; the left is unique by the
        # shrink above)
        if cnt[t] == 1 and int(pos[r]) - int(pos[left]) + 1 <= window:
            out += 1
    return out


def _plan_terms(plans) -> "dict[str | None, list[str]]":
    """{field: the plans' pair terms, unique, first-occurrence order}."""
    out: dict = {}
    for plan in plans:
        for f, pairs in ([(None, plan)] if isinstance(plan, tuple) else
                         [(c["field"], c["pairs"]) for c in plan["clauses"]
                          if c["kind"] == "pairs"]):
            out.setdefault(f, {}).update(pairs)  # keys: the terms, in order
    return {f: list(ts) for f, ts in out.items()}


def _phrase_clauses(plans) -> list:
    return [c for plan in plans if isinstance(plan, dict)
            for c in plan["clauses"] if c["kind"] == "phrase"]


def _shard_phrases(phrases: list, shard: dict) -> list:
    """Phase 1 on one shard: per phrase clause, each unit's LIVE (docids,
    match counts).  Dead docids drop before counting — an UPDATE leaves
    the same docid dead in the base segment and live in the delta — so
    the match counts sum to the global phrase df."""
    return [[_phrase_occurrences(u, c["text"], c["slop"]) for u in shard[c["field"]]]
            for c in phrases]


def _phrase_df(hits: list) -> "list[int]":
    """Global phrase df: each phrase's live matches summed over shards."""
    return [sum(len(d) for h in hits for d, _ in h[i]) for i in range(len(hits[0]))]


def _resolve_df(stats: dict, terms: dict) -> dict:
    """``stats`` with each callable df (a reader's ``df_of``) resolved to a
    dict over its field's plan terms."""
    return {f: (n, avgdl, df(terms.get(f, [])) if callable(df) else df)
            for f, (n, avgdl, df) in stats.items()}


def _pair_docs(units, posts, pairs, stats: tuple, chunks_d, chunks_c):
    """Each (term, weight) pair's live docids, one int64 array per unit
    that holds the term (disjoint across units).  With ``chunks_d`` set,
    also appends the pair's ``weight * idf * wd`` contributions, in pair
    order.  A unit that covers its whole index at that index's own avgdl,
    with no dead docids, reads the index's weight cache (``_wd_of``); any
    other weighs its live slice with the caller's (global) avgdl."""
    n_docs, avgdl, df = stats
    own = [u.lo <= 0 and u.hi >= _END and not u.dead.size and avgdl == u.idx.avgdl
           for u in units]
    docs = []
    for t, w in pairs:
        per_unit = []
        for u, post, whole in zip(units, posts, own):
            p = post.get(t)
            dft = 0 if p is None else p[0] if df is None else df.get(t, 0)
            if dft <= 0:
                continue
            dids, tfs = (p[1], p[2]) if whole else _live(u, p[1], p[2])
            per_unit.append(dids.astype(np.int64))
            if chunks_d is not None:
                chunks_d.append(per_unit[-1])
                wd = u.idx._wd_of(t, p) if whole else _wd(tfs, u.idx.doc_len(dids), avgdl)
                chunks_c.append(w * idf(n_docs, dft) * wd)
        docs.append(per_unit)
    return docs


#: MaxScore's margin against float accumulation-order noise
_EPS = 1e-9

#: the path rule (``_prunes``): a top-k OR plan with no negative weight
#: runs MaxScore when its terms hold this many postings inside the shard's
#: units.  Measured on a 60k-doc index (one cpu, k=10, p50, the side run
#: first alternating): an in-process reader crosses over near 5k postings
#: warm and 16k first-touch (pruned 4.4x / 2x faster at 30k, 1.5x at
#: k=1000), a shard task (``_unit_task``: a fresh handle on one docid range)
#: near 4k (pruned 2.4x faster at 16-24k, 5.2x at 32-48k).  The cut is twice
#: the larger crossover: light queries (summed df max 19,205) stay exact, the
#: stopword band (156,866 up) prunes in-process and on shards with 32k of it.
PRUNE_MIN_DF = 32_000


def _prunes(plan: tuple, units, posts: list, k) -> bool:
    return bool(k) and all(w >= 0 for _, w in plan) and sum(
        i1 - i0 for u, post in zip(units, posts) for t, _ in plan
        if (p := post.get(t)) is not None for i0, i1 in [_span(u, p[1])]
    ) >= PRUNE_MIN_DF


def _bound(u: Unit, t: str, p: tuple, avgdl: float) -> float:
    """``_wd(max tf, min dl, avgdl)`` over unit ``u``'s share of term
    ``t``'s posting row ``p`` (0.0 when it holds none).  ``_wd`` rises with
    tf and falls with dl, so this bounds the term at every live doc of u.
    A whole unit bounds its row, cached per (term, avgdl); a range unit
    takes its slice's max tf and its range's least doc length (cached per
    range), so a shard reads only its own doclens."""
    idx, (i0, i1) = u.idx, _span(u, p[1])
    whole = u.lo <= 0 and u.hi >= _END
    key = (t, avgdl) if whole else (u.lo, u.hi)
    b = idx._bound_cache.get(key)
    if b is None:
        b = idx._bound_cache[key] = (
            float(_wd(p[2].max(), idx.doc_len(p[1]).min(), avgdl)) if whole
            else np.float64(idx.doclens.min_in(u.lo, u.hi)))
        if len(idx._bound_cache) > idx.CACHE_CAP:
            del idx._bound_cache[next(iter(idx._bound_cache))]
    if whole:
        return b
    return float(_wd(p[2][i0:i1].max(), b, avgdl)) if i1 > i0 else 0.0


def _kth(acc: np.ndarray, k: int) -> float:
    """The k-th largest of ``acc``; -inf while it holds fewer than k."""
    return float(np.partition(acc, len(acc) - k)[len(acc) - k]) if len(acc) >= k else -np.inf


def _probe(p: tuple, docs: np.ndarray, dl: np.ndarray, avgdl: float):
    """(hit mask, ``wd`` at the hits) of posting ``p`` at ``docs`` (sorted
    int64, doc lengths ``dl``): the live docids of the unit ``p`` belongs
    to — never another unit's, whose body may differ after an UPDATE."""
    q = docs.astype(np.uint64)
    pos = np.minimum(np.searchsorted(p[1], q), len(p[1]) - 1)
    hit = p[1][pos] == q
    return hit, _wd(p[2][pos[hit]], dl[hit], avgdl)


def _maxscore(units, posts, pairs, stats: tuple, k: int):
    """MaxScore (Turtle & Flood 1995) over one shard's units: a superset
    of the OR plan ``pairs``' top ``k``, (docids ascending int64, exact
    scores float64).

    Per unit, a pair's bound is ``w * idf * _bound``.  Pairs run in
    descending bound order; once the bounds left cannot reach the
    running k-th score (less ``_EPS``), they are only probed at the
    unit's candidates.  Candidates within ``_EPS`` of the k-th score
    (ties included) are rescored in pair order with ``(w * idf) * wd``,
    bit-identical to ``_pair_docs``.  The k-th exact score carries from
    unit to unit of the shard, and a unit whose summed bounds cannot reach
    it is skipped (SAP, ICDE 2018); a local reader's one shard holds all
    its segments, a distributed task's shard one unit."""
    n_docs, avgdl, df = stats
    fin_d, fin_s, theta = [_NO_DOCS], [np.empty(0)], -np.inf
    for u, post in zip(units, posts):
        live = []  # (bound, pair index, w * idf, posting) of u's pairs
        for i, (t, w) in enumerate(pairs):
            p = post.get(t)
            dft = 0 if p is None else p[0] if df is None else df.get(t, 0)
            if dft > 0:
                wi = w * idf(n_docs, dft)
                live.append((wi * _bound(u, t, p, avgdl), i, wi, p))
        if not live or sum(b for b, *_ in live) < theta - _EPS:
            continue
        live.sort(key=lambda x: -x[0])
        tail = np.cumsum([b for b, *_ in live][::-1])[::-1]
        cand, acc, rest = _NO_DOCS, np.empty(0), []
        for j, (_b, i, wi, p) in enumerate(live):
            if tail[j] < max(theta, _kth(acc, k)) - _EPS:
                rest = live[j:]  # probe-only from here on
                break
            d, c = [], []
            _pair_docs([u], [post], (pairs[i],), stats, d, c)
            pos = np.searchsorted(cand, d[0])
            old = pos < len(cand)
            old[old] = cand[pos[old]] == d[0][old]
            acc[pos[old]] += c[0][old]
            cand = np.insert(cand, pos[~old], d[0][~old])
            acc = np.insert(acc, pos[~old], c[0][~old])
        dl = u.idx.doc_len(cand) if rest else None
        for _b, _i, wi, p in rest:
            hit, wd = _probe(p, cand, dl, avgdl)
            acc[hit] += wi * wd
        keep = acc >= max(theta, _kth(acc, k)) - _EPS
        fin = cand[keep]
        dl = dl[keep] if rest else u.idx.doc_len(fin)
        s = np.zeros(len(fin))
        for _b, _i, wi, p in sorted(live, key=lambda x: x[1]):
            hit, wd = _probe(p, fin, dl, avgdl)
            s[hit] += wi * wd
        fin_d.append(fin)
        fin_s.append(s)
        theta = max(theta, _kth(np.concatenate(fin_s), k))
    d = np.concatenate(fin_d)
    order = np.argsort(d)
    return d[order], np.concatenate(fin_s)[order]


def _score_shard(plans, shard: dict, posts: dict, stats: dict, hits, phrase_df, k=None):
    """Phase 2 on one shard: each plan's (docids, scores float64) after
    its MUST, NOT and docvalue masks; with ``k``, an OR plan the path rule
    (``_prunes``) picks returns ``_maxscore``'s superset of its top k.

    Contributions accumulate in clause order, then pair order within a
    clause (``_accumulate``); each live doc lives in exactly one unit, so
    its adds run in clause order whatever the unit.  A doc must match
    every MUST clause (a ``must_all`` clause needs every pair term, any
    other one of them); NOT clauses exclude and never score.  A plan with
    ``"score": False`` skips the weight math: its docids are the MUST
    match sets intersected rarest-first (or the shard's live docids when
    there is no MUST clause), ascending, and its scores None."""
    out, pi = [], 0  # pi: the next phrase clause's index into hits
    for plan in plans:
        if isinstance(plan, tuple):  # a bare or weighted OR query: no masks
            if _prunes(plan, shard[None], posts[None], k):
                out.append(_maxscore(shard[None], posts[None], plan, stats[None], k))
                continue
            chunks_d, chunks_c = [], []
            _pair_docs(shard[None], posts[None], plan, stats[None], chunks_d, chunks_c)
            out.append(_accumulate(chunks_d, chunks_c))
            continue
        scoring = plan.get("score", True)
        chunks_d, chunks_c, must, nots = [], [], [], []
        for c in plan["clauses"]:
            f = c["field"]
            scores = scoring and c["occur"] != MUST_NOT
            if c["kind"] == "phrase":
                n_docs, avgdl, _df = stats[f]
                for u, (docs, counts) in zip(shard[f], hits[pi]):
                    if scores and len(docs):
                        chunks_d.append(docs)
                        chunks_c.append(c["boost"] * idf(n_docs, phrase_df[pi])
                                        * _wd(counts, u.idx.doc_len(docs), avgdl))
                match = np.concatenate([_NO_DOCS, *(d for d, _ in hits[pi])])
                pi += 1
            else:
                docs = _pair_docs(shard[f], posts[f], c["pairs"], stats[f],
                                  chunks_d if scores else None, chunks_c)
                if c["occur"] == SHOULD:
                    continue  # membership comes from the scoring union
                if c["must_all"]:
                    match = functools.reduce(
                        lambda a, b: np.intersect1d(a, b, assume_unique=True),
                        [np.concatenate([_NO_DOCS, *d]) for d in docs])
                else:
                    match = np.unique(np.concatenate([_NO_DOCS, *(a for d in docs for a in d)]))
            if c["occur"] == MUST:
                must.append(match)
            elif c["occur"] == MUST_NOT:
                nots.append(match)
        if scoring:
            uniq, acc = _accumulate(chunks_d, chunks_c)
            masks = [np.isin(uniq, ms, assume_unique=True) for ms in must]
        else:
            uniq, acc, masks = None, None, []
            for ms in sorted(must, key=len):  # rarest-first
                uniq = ms if uniq is None else uniq[np.isin(uniq, ms, assume_unique=True)]
            if uniq is None:  # pure NOT: the shard's live docids
                live = [u.idx.doclens.docids().astype(np.uint64)
                        for u in shard[plan.get("field")]]
                uniq = np.concatenate([_live(u, d, d)[0] for u, d in
                                       zip(shard[plan.get("field")], live)])
            uniq = np.sort(uniq.astype(np.int64))
        if nots:
            masks.append(~np.isin(uniq, np.unique(np.concatenate(nots)), assume_unique=True))
        if plan.get("lang") is not None or plan.get("ts_range") is not None:
            masks.append(shard[plan.get("field")][0].idx.docvalue_mask(
                uniq, plan.get("lang"), plan.get("ts_range")))
        if masks:
            keep = np.logical_and.reduce(masks)
            uniq, acc = uniq[keep], None if acc is None else acc[keep]
        out.append((uniq, acc))
    return out


def _fetch(terms: dict, shard: dict) -> dict:
    """{field: each unit's postings of its ``terms``} — one bucket-grouped
    lookup per unit."""
    return {f: [u.idx.lookup(ts) for u in shard[f]] for f, ts in terms.items()}


def execute(plans: list, shards: "list[dict]", stats: dict, k=None) -> list:
    """The executor, in-process: run ``plans`` over ``shards`` and return,
    per shard, each plan's (docids, scores) after its masks — with ``k``,
    a superset of the exact top k for an OR plan the path rule prunes.

    A shard maps each field to the ``Unit``s one accumulation covers (a
    single reader's plans use field None): a local reader runs ONE shard
    holding all its units, a distributed surface one shard per unit.
    ``stats`` maps each field to (n_docs, avgdl, df): df None takes each
    term's df from its posting row (a monolithic index's row df is
    global), a dict is the global df, and a callable (a reader's
    ``df_of``) resolves after the units' postings are fetched, so it
    answers from the lookup cache.  Phase 1 finds every unit's live phrase
    matches and sums them to the global phrase df; phase 2 scores each
    shard.  Each live doc lives in exactly one unit, so shard results are
    disjoint and each doc's float64 adds run in clause order, as in one
    monolithic scan."""
    terms = _plan_terms(plans)
    posts = [_fetch(terms, s) for s in shards]
    stats = _resolve_df(stats, terms)
    phrases = _phrase_clauses(plans)
    hits = [_shard_phrases(phrases, s) if phrases else [] for s in shards]
    pdf = _phrase_df(hits) if phrases else []
    return [_score_shard(plans, s, post, stats, h, pdf, k)
            for s, post, h in zip(shards, posts, hits)]


def _unit_task(spec: dict, plans: list, k: int, stats=None, hits=None, phrase_df=None):
    """The one shard-side Ray task: open the shard ``spec`` — {field:
    [(index_dir, lo, hi, dead)]} — where its doclens live, so decoded
    postings never leave it.  Without ``stats``, phase 1: the shard's live
    phrase matches; with them, phase 2: each plan's partial top-k."""
    shard = {f: [Unit(BM25Index(d), lo, hi, dead) for d, lo, hi, dead in us]
             for f, us in spec.items()}
    if stats is None:
        return _shard_phrases(_phrase_clauses(plans), shard)
    parts = _score_shard(plans, shard, _fetch(_plan_terms(plans), shard), stats, hits,
                         phrase_df, k)
    return [_topk(d, s, k) for d, s in parts]


def _fan_out(task, plans: list, shards: "list[dict]", stats: dict, k: int):
    """Every distributed surface: one ``task`` (``ray.remote(_unit_task)``)
    per shard, then one k-list merge per plan.  Callable dfs resolve at
    the driver (``df_of`` reads (term, df) columns, never a posting blob).
    A plan with phrases takes two rounds: phase 1 returns each shard's
    live phrase matches, whose counts sum to the global phrase df, and
    each shard's matches ship back to its own phase-2 task, so position
    intersection runs once per (phrase, unit)."""
    import ray

    specs = [{f: [(u.idx.index_dir, u.lo, u.hi, u.dead) for u in us] for f, us in s.items()}
             for s in shards]
    stats = _resolve_df(stats, _plan_terms(plans))
    hits, pdf = [[]] * len(specs), []
    if _phrase_clauses(plans):
        hits = ray.get([task.remote(s, plans, k) for s in specs])
        pdf = _phrase_df(hits)
    parts = ray.get([task.remote(s, plans, k, stats, h, pdf) for s, h in zip(specs, hits)])
    return [_merge_topk([p[i] for p in parts], k) for i in range(len(plans))]


def hits_table(per_query_hits, extra: "tuple[str, ...]" = (),
               value: tuple = ("score", pa.float64()),
               key: tuple = ("query_id", pa.int32())) -> pa.Table:
    """The one ranked-hits table: (query_id, *extra, rank, docid, score)
    rows from (key, ranked (docid, score) hits) pairs.  A pair's key is
    the query id, or (query id, *values) for the ``extra`` string
    columns; ``value`` and ``key`` name and type the score and query-id
    columns."""
    cols: "list[list]" = [[] for _ in range(4 + len(extra))]
    for qkey, hits in per_query_hits:
        qkey = qkey if extra else (qkey,)
        for rank, (d, v) in enumerate(hits, start=1):
            for col, x in zip(cols, (*qkey, rank, d, v)):
                col.append(x)
    names = [key[0], *extra, "rank", "docid", value[0]]
    types = [key[1], *[pa.string()] * len(extra), pa.int32(), pa.int64(), value[1]]
    return pa.table({n: pa.array(c, type=t) for n, c, t in zip(names, cols, types)})


class _Reader:
    """The one reader interface of ``BM25Index`` and ``SegmentedBM25``:
    every read method compiles to a plan and runs ``execute`` over the
    reader's ``units()`` with its ``_stats()`` — n_docs, avgdl and the df
    source (``df_of``)."""

    def _run(self, plan, k=None) -> "tuple[np.ndarray, np.ndarray | None]":
        """One plan over this reader's units, as one shard: (docids
        ascending int64, scores), for at least the top ``k`` when given."""
        return execute([plan], [{None: self.units()}], {None: self._stats()}, k)[0][0]

    def _filtered(self, query: str, lang=None, ts_range=None):
        """The plan of ``query``'s unique terms, boost 1.0 each (``1.0 *
        idf`` is exactly ``idf``), under the docvalue filters.  A filter
        checks its sidecar first, so a missing one raises even when
        nothing matches."""
        pairs = tuple((t, 1.0) for t in _query_terms(query))
        if lang is None and ts_range is None:
            return pairs
        self.docvalue_mask(_NO_DOCS, lang, ts_range)
        return {"clauses": [{"occur": SHOULD, "field": None, "kind": "pairs",
                             "pairs": pairs, "must_all": False}],
                "lang": lang, "ts_range": ts_range}

    def score_all(self, query: str, k: "int | None" = None) -> "tuple[np.ndarray, np.ndarray]":
        """(docids ascending int64, exact scores float64): with ``k``
        None every matching doc (the per-field feed for BM25F combination),
        with ``k`` a superset of the exact top k (MaxScore when the path
        rule picks it).  ``search`` is this + the (score desc, docid asc)
        lexsort cut."""
        return self._run(self._filtered(query), k)

    def search(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact top-k: ``score_all`` + the (score desc, docid asc) cut;
        stopword-heavy queries take the MaxScore path."""
        return _topk(*self.score_all(query, k), k)

    def search_weighted(
        self, clauses: "list[tuple[str, float]]", k: int = 10
    ) -> list[tuple[int, float]]:
        """Exact top-k over weighted OR clauses: each (term, boost) clause
        contributes ``boost * idf(df) * wd`` and per-doc accumulation runs
        in CLAUSE order (``search`` == search_weighted with boost 1.0 per
        unique query term).  This is the boosted-query primitive behind
        relevance feedback (pipelines/fulltext.feedback_topk) and the
        Lucene BoostQuery analog."""
        return _topk(*self._run(tuple(clauses), k), k)

    def search_filtered(
        self,
        query: str,
        k: int = 10,
        lang: "str | None" = None,
        ts_range: "tuple[int, int] | None" = None,
    ) -> list[tuple[int, float]]:
        """Attribute-FILTERED exact top-k (``search_after`` page one): the
        full accumulation, then ``docvalue_mask``, then the pinned (score
        desc, docid asc) cut — so results are rank-AND-score-identical to
        post-filtering the unfiltered full ranking (tested), the classic
        filtered-query semantics (Lucene FilteredQuery / the reference's
        predicate-below-topk plans)."""
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
        ``after=page[-1]`` is the whole paging protocol — in the engine's
        total result order (score desc, docid asc).  Page-by-page
        concatenation reconstructs the full ranking exactly (tested),
        because the cursor is a strict total-order cut, not an offset;
        each page re-runs the accumulation (candidates are bounded by
        query df, same as ``search``).  ``after=None`` is page one (==
        ``search``); ``lang`` / ``ts_range`` compose the docvalue filters
        (``docvalue_mask``)."""
        uniq, acc = self._run(self._filtered(query, lang, ts_range))
        if after is not None:
            d0, s0 = int(after[0]), float(after[1])
            keep = (acc < s0) | ((acc == s0) & (uniq > d0))
            uniq, acc = uniq[keep], acc[keep]
        return _topk(uniq, acc, k)

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
        The match set is ``score_all``'s candidate union; ``lang`` /
        ``ts_range`` compose the same ``docvalue_mask`` as
        ``search_filtered``."""
        uniq, _acc = self._run(self._filtered(query, lang, ts_range))
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
        uniq, _acc = self._run(self._filtered(query, lang))
        ts = self.numeric_docvalue(uniq)
        buckets = (ts // int(interval)) * int(interval)
        vals, counts = np.unique(buckets, return_counts=True)
        return [(int(b), int(c)) for b, c in zip(vals, counts)]

    def search_boolean(
        self,
        must: "list[str] | None" = None,
        should: "list[str] | None" = None,
        must_not: "list[str] | None" = None,
    ) -> np.ndarray:
        """Unranked boolean retrieval: docids satisfying
        (AND of ``must``) ∧ (OR of ``should``, when given) ∧ ¬(ANY of
        ``must_not``), ascending uint64 — a non-scoring plan: each MUST
        token is a MUST clause, the SHOULD tokens one MUST clause matching
        their union, each NOT token a NOT clause; with no MUST clause the
        candidates are the reader's live docids (reference analog:
        IndexScan Exact/range kinds,
        src/include/planner/plannodes/plan_node_defs.h:143-152).

        Terms are normalized with the index tokenizer; an unindexed MUST
        term yields the empty result (AND with ∅)."""
        def clause(occur, terms):
            return {"occur": occur, "field": None, "kind": "pairs",
                    "pairs": tuple((t, 1.0) for t in terms), "must_all": False}

        def tokens(qs):
            return [t for q in (qs or []) for t in _query_terms(q)]

        clauses = [clause(MUST, [t]) for t in tokens(must)]
        if tokens(should):
            clauses.append(clause(MUST, tokens(should)))
        clauses += [clause(MUST_NOT, [t]) for t in tokens(must_not)]
        return self._run({"clauses": clauses, "score": False})[0].astype(np.uint64)


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

    def min_in(self, lo: int, hi: int):
        """The least value over the docids in [lo, hi), reading only the
        parts that range overlaps; None when it holds no docid."""
        lows = self.lo.tolist()
        vals = [val[np.searchsorted(did, lo):np.searchsorted(did, hi - 1, "right")]
                for (did, val), plo, phi in zip(self.parts, lows, lows[1:] + [_END])
                if plo < hi and phi > lo]
        return min((v.min() for v in vals if len(v)), default=None)

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


class BM25Index(_Reader):
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
    and ascending, so the postings concatenate verbatim into one valid
    list.  Every stats.json
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
        #: MaxScore's (term, avgdl) bounds and (lo, hi) least doc lengths
        self._bound_cache: "dict[tuple, float]" = {}
        # fuzzy serving caches: per-first-char dictionary slices (≤36) and
        # per-(term, params) expansion lists (fuzzy_expand docstring)
        self._dict_slice_cache: "OrderedDict[str, tuple]" = OrderedDict()
        self._fuzzy_cache: "OrderedDict[tuple, list]" = OrderedDict()

    def _bucket_handle(self, bucket: int):
        """(ParquetFile, rg_term_mins, rg_term_maxs, names) for a bucket, LRU-cached.

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
            ent = (pf, mins, maxs, frozenset(pf.schema_arrow.names))
        self._pf_cache[bucket] = ent
        while len(self._pf_cache) > self.PF_CACHE_CAP:
            self._pf_cache.popitem(last=False)
        return ent

    def _read_term_rows(
        self, bucket: int, ts: "list[str]", columns: "list[str] | None" = None
    ) -> "pa.Table | None":
        """Posting rows of ``ts`` from one bucket: row-group-pruned direct
        reads through the cached file handle.  ``columns`` restricts the
        read (e.g. ["term", "df"] skips the posting blobs entirely); a
        column the file lacks is skipped."""
        ent = self._bucket_handle(bucket)
        if ent is None:
            return None
        pf, mins, maxs, names = ent
        if columns is not None:
            columns = [c for c in columns if c in names]
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
        w = _wd(p[2], self.doc_len(p[1]), self.avgdl)
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
        """(salt, df, dids, tfs) parts → one posting tuple.

        Docid-range salting makes parts disjoint and ascending in salt
        order, so this is a concat; df sums to the term's true df."""
        if len(parts) == 1:
            return parts[0][1:]
        parts = sorted(parts, key=lambda p: p[0])
        return (sum(p[1] for p in parts), np.concatenate([p[2] for p in parts]),
                np.concatenate([p[3] for p in parts]))

    def lookup(self, terms: list[str]):
        """Fetch posting rows for terms (grouped per bucket, one read each).

        Returns {term: (df, docids, tfs) | None}; block metadata is not read.
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
                tab = self._read_term_rows(bucket, ts, ["term", "salt", "df", "postings"])
                if tab is None or tab.num_rows == 0:
                    continue
                d = tab.to_pydict()  # one columnar decode, no per-cell .as_py()
                salts = d["salt"] if "salt" in d else [0] * tab.num_rows
                for term, salt, df, post in zip(d["term"], salts, d["df"], d["postings"]):
                    dids, tfs = decode_final_postings(post)
                    parts.setdefault(term, []).append((int(salt), int(df), dids, tfs))
            for t in missing:
                result[t] = self._merge_parts(parts[t]) if t in parts else None
                self._cache[t] = result[t]
                self._cache.move_to_end(t)
            while len(self._cache) > self.CACHE_CAP:
                self._cache.popitem(last=False)  # evict LRU (result keeps refs)
        return result

    def df_of(self, terms: "list[str]") -> "dict[str, int]":
        """Per-term document frequency WITHOUT decoding postings: a term
        already in the postings cache answers from its row, any other from
        a (term, df) column read of the probed buckets' pruned row groups,
        summing salted parts exactly as ``_merge_parts`` does.  Terms absent
        from the index are omitted.  This is the cheap stats feed for
        segmented scoring: global idf needs every segment's df but none of
        their posting blobs."""
        out: dict[str, int] = {}
        rest = []
        for t in terms:
            if t in self._cache:
                if self._cache[t] is not None:
                    out[t] = self._cache[t][0]
            else:
                out[t] = 0
                rest.append(t)
        th = term_hash(np.asarray(rest, dtype=object)) if rest else []
        by_bucket: dict[int, list[str]] = {}
        for t, h in zip(rest, th):
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

    def units(self, sharded: bool = False, num_shards: "int | None" = None):
        """The executor's units: the whole index, or with ``sharded`` one
        unit per ``doclen_shard_ranges`` docid range."""
        if not sharded:
            return [Unit(self)]
        return [Unit(self, lo, hi) for lo, hi in doclen_shard_ranges(self, num_shards)]

    def _stats(self):
        # a monolithic index's posting-row df is already global
        return (self.n_docs, self.avgdl, None)

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
        clauses = [pair for t in _query_terms(query)
                   for pair in self.fuzzy_pairs(t, max_edits, prefix_len, max_expansions)]
        return self.search_weighted(clauses, k=k)

    def fuzzy_pairs(self, term: str, max_edits: int = 1, prefix_len: int = 1,
                    max_expansions: int = 50) -> "list[tuple[str, float]]":
        """``fuzzy_expand``'s variants as weighted (variant, boost) pairs,
        ``boost = 1 - ed / min(len(term), len(variant))`` (1.0 for an
        exact dictionary hit) — the one fuzzy weight, shared by
        ``search_fuzzy`` and the query language's ``term~e``."""
        return [(v, 1.0 - ed / max(1, min(len(term), len(v))))
                for v, ed, _df in self.fuzzy_expand(
                    term, max_edits=max_edits, prefix_len=prefix_len,
                    max_expansions=max_expansions)]

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
        _df, dids, tfs = p
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


class SegmentedBM25(_Reader):
    """Append-only segmented index — the incremental-update pattern (new
    documents build a DELTA segment with ``build_index``; no monolithic
    rebuild).  Queries run the executor over one unit per segment (one
    shard, one accumulation) with EXACT global stats: n_docs and total_dl sum as integers and per-term
    df sums across segments (``df_of``), so every posting's contribution
    is bit-identical to an index built over the union corpus, and each
    live doc's float adds run in clause order inside its one segment.
    Every read method of ``BM25Index`` that does not need a merged term
    dictionary or a docvalue sidecar — ``search``, ``score_all``,
    ``search_weighted``, ``search_after``, ``search_boolean``, and the
    query-string engine's terms, boosts, MUST/NOT, phrases and proximity —
    is rank-AND-score-identical to the monolithic index (tested).  Three
    things raise ``ValueError`` here: prefix and fuzzy expansion (they
    need a term dictionary merged across segments), and docvalue filters,
    sorting and histograms (DML snapshot segments carry no ``lang``
    sidecar).  Compact first for those.

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
    sidecar's ``seg`` column, carried by each ``Unit``), so search stays
    bit-identical to an index REBUILT over the remaining docs — not the
    Lucene approximation where df/avgdl go stale until a merge.
    Per-segment scoping is what makes UPDATE work: the same docid is dead
    in the base segment and live in the delta carrying its new body.
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
            raw: dict[str, list[np.ndarray]] = {}
            for td in tombstone_dirs:
                with open(os.path.join(td, "meta.json")) as f:
                    meta = json.load(f)
                self.n_docs -= int(meta["n_del"])
                total_dl -= int(meta["dl_del"])
                dtab = pq.read_table(os.path.join(td, "deleted.parquet"))
                d = dtab.column("docid").to_numpy(zero_copy_only=False)
                for sname, did in zip(dtab.column("seg").to_pylist(), d):
                    raw.setdefault(sname, []).append(did)
                ttab = pq.read_table(os.path.join(td, "termdeltas.parquet"))
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

    def units(self, sharded: bool = False, num_shards: "int | None" = None):
        """The executor's units: one per segment, carrying that segment's
        dead docids; with ``sharded``, one per (segment, doclen range)."""
        return [
            Unit(seg, lo, hi, self._del_by_seg.get(name, _NO_DOCS))
            for seg, name in zip(self.segments, self._seg_names)
            for lo, hi in (doclen_shard_ranges(seg, num_shards) if sharded
                           else [(0, _END)])
        ]

    def _stats(self):
        return (self.n_docs, self.avgdl, self.df_of)

    def df_of(self, terms: "list[str]") -> "dict[str, int]":
        """Global df over the live docs: the segments' summed posting-row
        df minus the tombstones' df deltas; terms with no live doc are
        omitted.  Terms a search just looked up answer from each segment's
        postings cache."""
        out: dict[str, int] = {}
        for seg in self.segments:
            for t, v in seg.df_of(terms).items():
                out[t] = out.get(t, 0) + v
        out = {t: v - self._df_del.get(t, 0) for t, v in out.items()}
        return {t: v for t, v in out.items() if v > 0}

    @property
    def has_positions(self) -> bool:
        return all(s.has_positions for s in self.segments)

    def docvalue_mask(self, *args, **kwargs):
        raise ValueError(
            "a segmented index has no docvalues: DML snapshot segments carry "
            "no lang sidecar (compact to filter, sort or facet)"
        )

    numeric_docvalue = docvalue_mask


class DistributedSegmentedBM25:
    """Shard-side scoring over a DML-maintained segmented index, so the
    index keeps its 1e12-doc serving path through INSERT/UPDATE/DELETE
    without waiting for a compaction.  Global stats come from tiny
    sidecars at the driver (n_docs/avgdl via SegmentedBM25's integer-exact
    tombstone adjustment; per-term df via ``SegmentedBM25.df_of`` — no
    posting blob decodes at the driver); one ``_unit_task`` per (segment,
    doclen-part docid range) unit scores every query against its range
    with locally-memmapped doclens and ITS segment's dead docids, and the
    driver merges the k-lists (``_fan_out``).  Live doc sets are disjoint
    across units, so the merge is rank-AND-score-identical to
    ``SegmentedBM25.search`` (tested)."""

    def __init__(
        self, segment_dirs: "list[str]",
        tombstone_dirs: "list[str] | None" = None,
    ):
        import ray

        self.local = SegmentedBM25(segment_dirs, tombstone_dirs=tombstone_dirs)
        self._task = ray.remote(_unit_task)

    def search_many(self, queries: "list[str]", k: int = 10):
        """Per-query top-k [(docid, score), ...] lists."""
        plans = [self.local._filtered(q) for q in queries]
        shards = [{None: [u]} for u in self.local.units(sharded=True)]
        return _fan_out(self._task, plans, shards, {None: self.local._stats()}, k)


def doclen_shard_ranges(
    handle, num_shards: "int | None"
) -> "list[tuple[int, int]]":
    """Docid ranges to score per shard task: the doclen parts' natural
    boundaries (each shard's doclens are one contiguous mmap), split
    further when ``num_shards`` asks for more parallelism.  The ONE range
    discipline shared by every unit builder (``units(sharded=True)`` and
    the query-string engine) — each corpus docid lands in exactly one
    range, so per-range partials merge exactly."""
    lows = [int(lo) for lo in handle.doclens.lo]
    bounds = lows + [_END]
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
    docid space splits into range units (the doclen sidecar's natural
    boundaries), one ``_unit_task`` per unit scores every query against
    ITS docid range using its locally-memmapped doclens and returns a
    partial top-k, and the caller merges k-lists — the reference's
    parallel top-k merge
    (/root/reference/src/execution/sql/sorter.cpp:424-430).  Decoded
    postings of hot terms never transit to one process; only k-row lists
    do.  Rank-AND-score-identical to ``BM25Index.search`` (disjoint
    shards, query-term-order accumulation; asserted in tests)."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self.local = BM25Index(index_dir)
        import ray

        self._task = ray.remote(_unit_task)

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
        plans = [self.local._filtered(q, filter_lang, filter_ts) for q in queries]
        shards = [{None: [u]} for u in self.local.units(True, num_shards)]
        return _fan_out(self._task, plans, shards, {None: self.local._stats()}, k)

    def search_many(
        self, queries: "list[str]", k: int = 10, num_shards: "int | None" = None
    ):
        """Default distributed query path = ``search_many_sharded``."""
        return self.search_many_sharded(queries, k=k, num_shards=num_shards)


class BM25Scorer:
    """Actor-pool map_batches stage: queries (query_id, text) → top-k rows.

    Index loaded ONCE per actor (__init__); per batch it scores each query
    with ``search`` (MaxScore on stopword-heavy queries) and emits
    (query_id, rank, docid, score).
    """

    def __init__(self, index_dir: str, k: int = 10):
        self.index = BM25Index(index_dir)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        return hits_table(
            (qid, self.index.search(text, self.k))
            for qid, text in zip(batch.column("query_id").to_pylist(),
                                 batch.column("text").to_pylist())
        )
