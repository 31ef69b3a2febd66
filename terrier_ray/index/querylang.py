"""Lucene-style query-string language over the inverted index.

One user-facing front door for every retrieval primitive the engine
exposes — the search-side analog of the SQL front-end (the reference's
user surface is the Postgres wire parser, ``/root/reference/src/parser``;
an IR engine's is the query string):

    +distributed -slow title:ray "exact phrase" fuzzy~1 pre* body^2.5

Grammar (whitespace-separated clauses — a clause ending mid-token is a
syntax error, never a silent split; exact duplicate clauses collapse to
the first occurrence, matching ``_query_terms``'s unique-token rule)::

    clause := [occur] [field ':'] atom ['^' boost]
    occur  := '+' (MUST) | '-' (MUST_NOT)        # default: SHOULD
    atom   := '"' words '"'                      # phrase (positional index)
            | '"' words '"' '~' slop             # proximity window (slop >= 1)
            | word '*'                           # prefix expansion
            | word '~' [edits]                   # fuzzy (OSA, default ed<=1)
            | word                               # plain term

Execution semantics (pinned for determinism; Lucene BooleanQuery analog):

- Every MUST and SHOULD clause contributes BM25 score; accumulation runs
  in CLAUSE order, then expansion order within a clause (float64
  ``np.add.at`` — the exact discipline of ``BM25Index.search``, so a
  bare-terms query is score-identical to exact TAAT, tested).
- MUST clauses filter: a doc must match every one (a multi-token MUST
  term clause requires ALL its tokens).  MUST_NOT clauses exclude docs
  matching ANY of their expansions.  With no MUST clause, membership
  comes from the scoring union (>=1 SHOULD matched).  A query with no
  positive clause is rejected (pure-negative needs a corpus scan — use
  ``search_boolean`` for unranked complement semantics).
- ``term*``: dictionary prefix scan (``terms_in_range`` — pruned
  (term, df) column read, no posting blobs), capped at ``max_expansions``
  selected by (df desc, term asc); each variant scores as itself
  (own idf) times the clause boost.
- ``term~e``: ``fuzzy_expand`` (OSA distance, required common prefix,
  same cap); variant weight = boost * (1 - ed / min(len(term),
  len(variant))) — Lucene FuzzyQuery's similarity ramp.
- ``"a b c"``: the phrase is scored as a PSEUDO-TERM — df = number of
  docs containing the exact adjacent sequence, tf = occurrence count —
  through the standard BM25 weight, using position-list intersection
  over a positional index (``positions_for`` — zero corpus text reads).
  Requires ``build_index(positions=True)``; raises otherwise.
- ``"a b c"~s`` (slop >= 1): UNORDERED-WINDOW proximity, the
  Terrier/Indri ``#uwN`` analog (NOT Lucene's ordered edit-distance
  slop): a match is a MINIMAL token window containing every distinct
  phrase token whose span (max pos - min pos + 1) is at most
  n_distinct_tokens + slop; tf = number of minimal windows (Clarke et
  al.'s minimal-interval semantics — minimal windows never nest, so
  the count is well-defined), df = docs with >= 1 window, scored as a
  pseudo-term exactly like a phrase.  ``~0`` is the exact ordered
  phrase above.  Same positional-index requirement and zero-text-read
  discipline; candidates are the AND of the distinct tokens, so an
  exact-phrase match is always a proximity match when tokens are
  distinct (span = n <= n + slop).
- ``field:atom`` routes the clause to that field's index (per-field
  indexes share the corpus docid space, so set algebra composes across
  fields); unknown fields raise.

Scale posture: every path composes the one-bucket-probe ``lookup``, the
pruned dictionary scan, and per-block position decodes — candidate sets
are bounded by clause df and no stage reads corpus text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Clause", "parse_query", "QueryStringEngine"]

MUST, SHOULD, MUST_NOT = "+", "", "-"


@dataclass(frozen=True)
class Clause:
    occur: str  # '+' | '' | '-'
    field: str | None  # None = default field
    kind: str  # 'term' | 'phrase' | 'prefix' | 'fuzzy'
    text: str
    boost: float = 1.0
    max_edits: int = 1
    slop: int = 0  # phrase clauses only: 0 = exact, >=1 = unordered window


_CLAUSE_RE = re.compile(
    r"""
    (?P<occur>[+-])?
    (?:(?P<field>[A-Za-z_][A-Za-z0-9_]*):)?
    (?:
        "(?P<phrase>[^"]*)"(?:~(?P<pslop>[0-9]{1,4}))?
      | (?P<word>[^\s+\-^~*:"][^\s^~*:"]*)
        (?:(?P<star>\*)|~(?P<edits>[0-9])?)?
    )
    (?:\^(?P<boost>[0-9]+(?:\.[0-9]+)?))?
    """,
    re.VERBOSE,
)


def parse_query(q: str) -> list[Clause]:
    """Parse a query string into clauses; raises ValueError with the
    offending offset on junk the grammar can't consume.  Clauses must be
    whitespace-separated — a clause that ends mid-token (``a~10``,
    ``foo*bar``, ``ab^2cd``) is a syntax error, not two clauses (silently
    splitting would return wrong results with no signal).  EXACT duplicate
    clauses collapse to the first occurrence, mirroring ``_query_terms``'s
    unique-token discipline so a bare repeated word stays score-identical
    to ``BM25Index.search`` (module contract above)."""
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    pos, n = 0, len(q)
    while pos < n:
        if q[pos].isspace():
            pos += 1
            continue
        m = _CLAUSE_RE.match(q, pos)
        if m is None or m.end() == m.start():
            raise ValueError(f"query syntax error at offset {pos}: {q[pos:]!r}")
        if m.end() < n and not q[m.end()].isspace():
            raise ValueError(
                f"query syntax error at offset {m.end()}: clauses are "
                f"whitespace-separated, got {q[m.end():]!r} after "
                f"{q[pos:m.end()]!r}"
            )
        occur = m.group("occur") or SHOULD
        field = m.group("field")
        boost = float(m.group("boost")) if m.group("boost") else 1.0
        if m.group("phrase") is not None:
            slop = int(m.group("pslop")) if m.group("pslop") else 0
            c = Clause(occur, field, "phrase", m.group("phrase"), boost, slop=slop)
        else:
            word = m.group("word")
            if m.group("star"):
                c = Clause(occur, field, "prefix", word, boost)
            elif "~" in q[m.start() : m.end()].split("^")[0]:
                ed = int(m.group("edits")) if m.group("edits") else 1
                if not 1 <= ed <= 2:
                    raise ValueError(f"fuzzy edits must be 1..2, got {ed}")
                c = Clause(occur, field, "fuzzy", word, boost, max_edits=ed)
            else:
                c = Clause(occur, field, "term", word, boost)
        if c not in seen:
            seen.add(c)
            clauses.append(c)
        pos = m.end()
    if not clauses:
        raise ValueError("empty query")
    if all(c.occur == MUST_NOT for c in clauses):
        raise ValueError(
            "pure-negative query needs a corpus scan; use search_boolean"
        )
    return clauses


def _accumulate_topk(chunks_d, chunks_c, must_sets, not_sets, k, mask_of=None):
    """The pinned TAAT accumulate → MUST/NOT filter → top-k kernel shared
    by the local engine and the shard tasks (ONE implementation so the
    rank-AND-score-identity contract lives in one place): the engine's
    ``_accumulate`` (float64 ``np.add.at`` in chunk = clause/expansion
    order), a boolean keep mask from the MUST intersections and NOT
    exclusions, then the engine's (score desc, docid asc) ``_topk`` cut.
    ``mask_of`` (docids → bool array) composes an extra candidate filter
    (the docvalue attribute mask) before the cut."""
    from terrier_ray.index.bm25 import _accumulate, _topk

    uniq, acc = _accumulate(chunks_d, chunks_c)
    if not len(uniq):
        return []
    keep = np.ones(len(uniq), dtype=bool)
    for ms in must_sets:
        keep &= np.isin(uniq, ms, assume_unique=True)
    if not_sets:
        excl = np.unique(np.concatenate(not_sets))
        if len(excl):
            keep &= ~np.isin(uniq, excl, assume_unique=True)
    if mask_of is not None:
        keep &= mask_of(uniq)
    return _topk(uniq[keep], acc[keep], k)


def _phrase_occurrences(
    idx,
    phrase: str,
    lo: int | None = None,
    hi: int | None = None,
    slop: int = 0,
):
    """(docids ascending int64, per-doc match counts int64) for the token
    sequence, by position-list intersection (the
    ``_match_phrases_positional`` kernel, expressed index-side).  With
    ``slop == 0`` a match is the exact adjacent sequence; with
    ``slop >= 1`` it is a MINIMAL unordered window over the DISTINCT
    tokens with span <= n_distinct + slop (module docstring's proximity
    semantics; kernel ``_minimal_window_count``).  With ``lo``/``hi``
    the candidate set is restricted to that docid range (the shard-side
    unit of ``search_distributed``)."""
    from terrier_ray.text.tokenize import tokenize

    seq = tokenize(phrase)
    empty = np.empty(0, np.int64), np.empty(0, np.int64)
    if not seq:
        return empty
    if not idx.has_positions:
        raise ValueError(
            "phrase clauses need a positional index (build_index(positions=True))"
        )
    # Candidate AND with the postings SLICED to [lo, hi) first (searchsorted
    # on the docid-sorted lists), rarest-first — a shard task intersects only
    # its own range's postings, never the full corpus's (search_boolean's
    # rarest-first discipline, range-restricted).
    from terrier_ray.index.bm25 import _slice_range

    uniq_terms = list(dict.fromkeys(seq))
    post = idx.lookup(uniq_terms)
    sliced: dict[str, np.ndarray] = {}
    for t in uniq_terms:
        p = post.get(t)
        if p is None:
            return empty  # AND with an unindexed term
        d = p[1] if lo is None else _slice_range(p, lo, hi)[0]
        if not len(d):
            return empty
        sliced[t] = d
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


def _qs_phrase_matches(index_dirs, lo, hi, phrases):
    """Phase-1 shard task of ``search_distributed``: UNFILTERED phrase /
    proximity matches per (field, text, slop) within this docid range.
    Returns one ``(docids int64, match counts int64)`` pair per phrase —
    the match lengths sum to each pseudo-term's exact global df (every doc
    lives in exactly one range), and the pairs ship BACK to the same
    range's phase-2 task so the position-intersect work runs exactly once
    per (phrase, range).  Wire size is bounded by the phrase's per-range
    df (doc ids + small counts, never postings or positions)."""
    from terrier_ray.index.bm25 import BM25Index

    idxs: dict = {}
    out = []
    for f, text, slop in phrases:
        idx = idxs.get(f) or idxs.setdefault(f, BM25Index(index_dirs[f]))
        out.append(_phrase_occurrences(idx, text, lo=lo, hi=hi, slop=slop))
    return out


def _qs_score_range(index_dirs, lo, hi, plan, phrase_hits, phrase_df, k,
                    filter_lang=None, filter_field=None):
    """Phase-2 shard task of ``search_distributed``: score every plan
    clause against the docid range [lo, hi) and return a partial top-k.

    Mirrors ``QueryStringEngine.search`` exactly, restricted to the range:
    per-clause contributions use the same float64 expression and clause
    order (term df in the posting rows is GLOBAL post-fold; phrase matches
    AND global phrase df arrive from phase 1, so position intersection ran
    exactly once per range), MUST/NOT filters apply shard-side (each doc
    lives in exactly one range, so the filtered partial k-lists merge
    rank-AND-score-identical to the single-handle engine — tested).
    MUST_NOT clauses contribute only their match set — no weight math.
    Postings decode where the range's doclens live and never transit."""
    from terrier_ray.index.bm25 import BM25Index, _slice_range, _wd, idf

    idxs: dict = {}  # lazy: only fields the plan actually references
    # one bucket-grouped lookup per field over all its pair terms
    post_by_field: dict = {}
    for cl in plan:
        if cl["kind"] == "pairs":
            post_by_field.setdefault(cl["field"], set()).update(
                t for t, _ in cl["pairs"]
            )
    post_by_field = {
        f: (
            idxs.get(f) or idxs.setdefault(f, BM25Index(index_dirs[f]))
        ).lookup(sorted(ts))
        for f, ts in post_by_field.items()
    }
    chunks_d: list[np.ndarray] = []
    chunks_c: list[np.ndarray] = []
    must_sets: list[np.ndarray] = []
    not_sets: list[np.ndarray] = []
    pi = 0
    for cl in plan:
        f = cl["field"]
        idx = idxs.get(f) or idxs.setdefault(f, BM25Index(index_dirs[f]))
        scoring = cl["occur"] != MUST_NOT
        chunks: list[tuple[np.ndarray, np.ndarray]] = []
        if cl["kind"] == "phrase":
            docs, counts = phrase_hits[pi]
            df = phrase_df[pi]
            pi += 1
            if scoring and len(docs):
                wd = _wd(np.asarray(counts), idx.doc_len(docs), idx.avgdl)
                chunks.append((docs, cl["boost"] * idf(idx.n_docs, df) * wd))
            match = docs
        else:
            post = post_by_field[cl["field"]]
            per_term_docs: list[np.ndarray] = []
            for t, w in cl["pairs"]:
                p = post.get(t)
                if p is None:
                    per_term_docs.append(np.empty(0, np.int64))
                    continue
                dids, tfs = _slice_range(p, lo, hi)
                d = dids.astype(np.int64)
                if scoring and len(d):
                    wd = _wd(tfs, idx.doc_len(dids), idx.avgdl)
                    chunks.append((d, w * idf(idx.n_docs, p[0]) * wd))
                per_term_docs.append(d)
            if cl["must_all"]:
                match = per_term_docs[0] if per_term_docs else np.empty(0, np.int64)
                for dd in per_term_docs[1:]:
                    match = np.intersect1d(match, dd, assume_unique=True)
            else:
                match = (
                    np.unique(np.concatenate(per_term_docs))
                    if per_term_docs
                    else np.empty(0, np.int64)
                )
        if cl["occur"] == MUST_NOT:
            not_sets.append(match)
            continue
        for d, w in chunks:
            chunks_d.append(d)
            chunks_c.append(w)
        if cl["occur"] == MUST:
            must_sets.append(match)
    mask_of = None
    if filter_lang is not None:
        # in-shard docvalue mask from the filter field's local sidecar
        # pages (docvalues are corpus-global; the coordinator validated
        # presence + dictionary membership)
        fidx = idxs.get(filter_field) or idxs.setdefault(
            filter_field, BM25Index(index_dirs[filter_field])
        )
        mask_of = lambda uniq: fidx.docvalue_mask(uniq, filter_lang)  # noqa: E731
    return _accumulate_topk(chunks_d, chunks_c, must_sets, not_sets, k, mask_of)


class QueryStringEngine:
    """Execute parsed query strings over one or more per-field
    ``BM25Index`` handles (same corpus; docids are corpus-global)."""

    def __init__(
        self,
        indexes,  # BM25Index | dict[str, BM25Index]
        default_field: str = "body",
        max_expansions: int = 50,
    ):
        if not isinstance(indexes, dict):
            indexes = {default_field: indexes}
        self.indexes = indexes
        self.default_field = default_field
        self.max_expansions = max_expansions
        self._remotes = None  # lazy (ray only needed for search_distributed)

    def _index_of(self, field: str | None):
        f = field or self.default_field
        try:
            return self.indexes[f]
        except KeyError:
            raise ValueError(
                f"unknown field {f!r}; indexed fields: {sorted(self.indexes)}"
            ) from None

    def _expand(self, idx, c: Clause) -> "list[tuple[str, float]]":
        """Clause → [(index term, weight)] in pinned order (see module doc)."""
        from terrier_ray.index.bm25 import _query_terms

        if c.kind == "term":
            return [(t, c.boost) for t in _query_terms(c.text)]
        if c.kind == "prefix":
            tab = idx.terms_in_range(prefix=c.text.lower())
            # (df desc, term asc), capped — fuzzy_expand's selection discipline
            df = tab.column("df").to_numpy(zero_copy_only=False)
            terms = tab.column("term").to_pylist()
            order = sorted(range(len(terms)), key=lambda i: (-int(df[i]), terms[i]))
            return [(terms[i], c.boost) for i in order[: self.max_expansions]]
        if c.kind == "fuzzy":
            base = c.text.lower()
            out = []
            for variant, ed, _df in idx.fuzzy_expand(
                base, max_edits=c.max_edits, max_expansions=self.max_expansions
            ):
                sim = 1.0 - ed / max(1, min(len(base), len(variant)))
                out.append((variant, c.boost * sim))
            return out
        raise AssertionError(c.kind)  # phrase handled by caller

    def _clause_postings(self, c: Clause):
        """Clause → (chunks, match_docids): ``chunks`` is the in-order list
        of (docids int64, weighted float64 contribs) feeding accumulation;
        ``match_docids`` (sorted unique int64) is the clause's match set.
        A multi-token MUST term clause matches the AND of its tokens; every
        other expansion matches the union (docids present in any chunk)."""
        from terrier_ray.index.bm25 import _wd, idf

        idx = self._index_of(c.field)
        scoring = c.occur != MUST_NOT  # negative clauses never score —
        # only their match set is needed, so skip all weight math
        if c.kind == "phrase":
            docs, counts = _phrase_occurrences(idx, c.text, slop=c.slop)
            if not scoring or not len(docs):
                return [], docs
            wd = _wd(counts, idx.doc_len(docs), idx.avgdl)
            contrib = c.boost * idf(idx.n_docs, len(docs)) * wd
            return [(docs, contrib)], docs
        pairs = self._expand(idx, c)
        post = idx.lookup([t for t, _ in pairs])
        chunks = []
        per_term_docs = []
        for t, w in pairs:
            p = post.get(t)
            if p is None:
                per_term_docs.append(np.empty(0, np.int64))
                continue
            d = p[1].astype(np.int64)
            if scoring:
                chunks.append((d, w * idf(idx.n_docs, p[0]) * idx._wd_of(t, p)))
            per_term_docs.append(d)
        if c.kind == "term" and c.occur == MUST and len(pairs) > 1:
            match = per_term_docs[0]
            for d in per_term_docs[1:]:
                match = np.intersect1d(match, d, assume_unique=True)
        else:
            match = (
                np.unique(np.concatenate(per_term_docs))
                if per_term_docs
                else np.empty(0, np.int64)
            )
        return chunks, match

    def _filter_mask_of(self, filter_lang: "str | None"):
        """Docvalue mask callable for ``filter_lang`` (None → no filter;
        value absent from the dictionary → match-nothing mask).  The
        sidecar is corpus-global, read through the default field's index
        — raises if that index was built without ``docvalues=True``."""
        if filter_lang is None:
            return None
        # same default-field-or-first fallback as _shard_ranges (the
        # sidecar is corpus-global, any field's copy is authoritative)
        idx = self.indexes.get(self.default_field)
        if idx is None:
            idx = self.indexes[min(self.indexes)]
        idx._lang_code(filter_lang)  # no sidecar: raise before scoring
        return lambda uniq: idx.docvalue_mask(uniq, filter_lang)

    def search(
        self, q: str, k: int = 10, filter_lang: "str | None" = None
    ) -> "list[tuple[int, float]]":
        clauses = parse_query(q)
        chunks_d: list[np.ndarray] = []
        chunks_c: list[np.ndarray] = []
        must_sets: list[np.ndarray] = []
        not_sets: list[np.ndarray] = []
        for c in clauses:
            chunks, match = self._clause_postings(c)
            if c.occur == MUST_NOT:
                not_sets.append(match)
                continue  # negative clauses never score
            for d, w in chunks:
                chunks_d.append(d)
                chunks_c.append(w)
            if c.occur == MUST:
                must_sets.append(match)
        return _accumulate_topk(
            chunks_d, chunks_c, must_sets, not_sets, k,
            self._filter_mask_of(filter_lang),
        )

    def explain(self, q: str, k: int = 10, num_shards: "int | None" = None) -> str:
        """Readable retrieval plan — the search-side analog of
        ``terrier_ray.sql.explain`` (the reference's EXPLAIN surface,
        src/include/parser/explain_statement.h analog).  STATS-ONLY cost
        model: clause expansion (the coordinator's own dictionary work)
        plus ``df_of`` (term, df) column probes — never a postings decode,
        never a position fetch, so explain stays cheap at any corpus size.
        Phrase/proximity clauses report their candidate-AND upper bound
        (min token df); the real df needs the intersection the plan
        itself runs.  Ends with the distributed shape ``search_distributed``
        would use: range count and whether a phase-1 match round is
        needed."""
        clauses = parse_query(q)
        occ_name = {MUST: "MUST", SHOULD: "SHOULD", MUST_NOT: "MUST_NOT"}
        lines = [f"QueryString k={k} default_field={self.default_field!r}"]
        n_phrases = 0
        for c in clauses:
            idx = self._index_of(c.field)
            f = c.field or self.default_field
            head = f"  {occ_name[c.occur]} field={f}"
            if c.boost != 1.0:
                head += f" boost={c.boost:g}"
            if c.kind == "phrase":
                n_phrases += 1
                from terrier_ray.text.tokenize import tokenize

                toks = list(dict.fromkeys(tokenize(c.text)))
                dfs = idx.df_of(toks)
                bound = min(dfs.values()) if dfs else 0
                if c.slop:
                    head += (
                        f" PROXIMITY {c.text!r} slop={c.slop} "
                        f"window={len(toks) + c.slop}"
                    )
                else:
                    head += f" PHRASE {c.text!r}"
                head += (
                    f" tokens={len(toks)} candidate_df<={bound}"
                    " via position-intersect"
                )
                lines.append(head)
                continue
            pairs = self._expand(idx, c)
            dfs = idx.df_of([t for t, _ in pairs])
            total_df = sum(dfs.values())
            head += f" {c.kind.upper()} {c.text!r} expansions={len(pairs)}"
            if c.kind == "term" and c.occur == MUST and len(pairs) > 1:
                head += " must_all"
            head += f" df={total_df}"
            lines.append(head)
            for t, w in pairs[:5]:
                lines.append(f"    - {t!r} df={dfs.get(t, 0)} weight={w:.3f}")
            if len(pairs) > 5:
                lines.append(f"    ... {len(pairs) - 5} more expansions")
        ranges = self._shard_ranges(num_shards)
        lines.append(
            f"  distributed: {len(ranges)} docid ranges, "
            + (
                f"2 rounds (phase-1 matches for {n_phrases} phrase/proximity "
                "clause(s), then shard-side scoring)"
                if n_phrases
                else "1 round (shard-side scoring, k-list merge)"
            )
        )
        return "\n".join(lines)

    # ------------------------------------------------------- distributed

    def _shard_ranges(self, num_shards):
        """Docid ranges from the default field's doclen parts —
        ``doclen_shard_ranges``, the one range discipline shared with
        ``DistributedBM25``.  ANY field's parts partition the shared
        corpus docid space (each doc in exactly one range), so an engine
        built without the default field falls back deterministically to
        the first indexed field by name."""
        from terrier_ray.index.bm25 import doclen_shard_ranges

        local = self.indexes.get(self.default_field)
        if local is None:
            local = self.indexes[min(self.indexes)]
        return doclen_shard_ranges(local, num_shards)

    def search_distributed(
        self,
        q: str,
        k: int = 10,
        num_shards: "int | None" = None,
        filter_lang: "str | None" = None,
    ) -> "list[tuple[int, float]]":
        """Query-string retrieval with SHARD-SIDE scoring — the 1e12-doc
        serving shape for the query language, rank-AND-score-identical to
        ``search`` (tested):

        - Clause EXPANSION (dictionary prefix scans, fuzzy OSA expansion)
          runs once at the coordinator — pruned (term, df) column reads,
          no posting blobs — and ships as a serializable weighted plan.
        - Phrase pseudo-term df needs a global count, so phrase queries
          take TWO rounds: phase 1 returns per-range unfiltered phrase
          matches (docids + adjacency counts, bounded by per-range phrase
          df — never postings or positions); their lengths sum to the
          exact global df, and each range's matches ship back to ITS
          phase-2 task, so position intersection runs once per (phrase,
          range).  Phrase-free queries skip phase 1.
        - Phase 2 tasks score every clause against their docid range with
          locally-memmapped doclens and apply MUST/NOT filters in-shard
          (each doc lives in exactly one range), returning partial top-k
          lists the coordinator merges — decoded postings never transit
          (the ``search_many_sharded`` / sorter.cpp:424-430 shape)."""
        import ray

        if self._remotes is None:
            self._remotes = (
                ray.remote(_qs_phrase_matches),
                ray.remote(_qs_score_range),
            )
        matches_remote, score_remote = self._remotes
        clauses = parse_query(q)
        filter_field = None
        if filter_lang is not None:
            # validate at the coordinator: sidecar present + dictionary
            # membership (absent value → empty result, no shard fan-out)
            filter_field = (
                self.default_field
                if self.default_field in self.indexes
                else min(self.indexes)
            )
            if self.indexes[filter_field]._lang_code(filter_lang) is None:
                return []
        index_dirs = {f: idx.index_dir for f, idx in self.indexes.items()}
        plan: list[dict] = []
        phrase_keys: list[tuple[str, str, int]] = []
        for c in clauses:
            f = c.field or self.default_field
            idx = self._index_of(c.field)
            if c.kind == "phrase":
                if not idx.has_positions:
                    raise ValueError(
                        "phrase clauses need a positional index "
                        "(build_index(positions=True))"
                    )
                plan.append(
                    {
                        "occur": c.occur,
                        "field": f,
                        "kind": "phrase",
                        "text": c.text,
                        "boost": c.boost,
                        "slop": c.slop,
                    }
                )
                phrase_keys.append((f, c.text, c.slop))
            else:
                pairs = self._expand(idx, c)
                plan.append(
                    {
                        "occur": c.occur,
                        "field": f,
                        "kind": "pairs",
                        "pairs": pairs,
                        "must_all": c.kind == "term"
                        and c.occur == MUST
                        and len(pairs) > 1,
                    }
                )
        ranges = self._shard_ranges(num_shards)
        phrase_df: list[int] = []
        hits_by_range: "list[list]" = [[] for _ in ranges]
        if phrase_keys:
            futs = [
                matches_remote.remote(index_dirs, lo, hi, phrase_keys)
                for lo, hi in ranges
            ]
            hits_by_range = ray.get(futs)
            phrase_df = [
                sum(len(r[pi][0]) for r in hits_by_range)
                for pi in range(len(phrase_keys))
            ]
        futs = [
            score_remote.remote(
                index_dirs, lo, hi, plan, hits, phrase_df, k,
                filter_lang, filter_field,
            )
            for (lo, hi), hits in zip(ranges, hits_by_range)
        ]
        from terrier_ray.index.bm25 import _merge_topk

        return _merge_topk(ray.get(futs), k)
