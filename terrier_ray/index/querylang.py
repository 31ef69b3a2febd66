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

Scale posture: a query compiles to ONE plan (``QueryStringEngine._plan``:
expansion runs once, at the coordinator) for the bm25 executor, which
runs it over (segment, docid range) units in-process (``search``) or as
one Ray task per unit (``search_distributed``).  Every unit composes the
one-bucket-probe ``lookup``, the pruned dictionary scan, and per-block
position decodes — candidate sets are bounded by clause df and no stage
reads corpus text.  A field may be a ``BM25Index`` or a DML-maintained
``SegmentedBM25``; on the segmented reader prefix and fuzzy expansion
(they need a term dictionary merged across segments) and ``filter_lang``
(DML snapshot segments carry no docvalue sidecar) raise ``ValueError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from terrier_ray.index.bm25 import (  # noqa: F401  (phrase kernels re-exported)
    MUST,
    MUST_NOT,
    SHOULD,
    SegmentedBM25,
    Unit,
    _fan_out,
    _minimal_window_count,
    _phrase_occurrences,
    _query_terms,
    _topk,
    _unit_task,
    doclen_shard_ranges,
    execute,
)

__all__ = ["Clause", "parse_query", "QueryStringEngine"]


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


class QueryStringEngine:
    """Execute parsed query strings over one or more per-field readers, a
    ``BM25Index`` or a ``SegmentedBM25`` each (same corpus; docids are
    corpus-global).  A query compiles to one plan (``_plan``) that the
    bm25 executor runs locally (``search``) or shard-side
    (``search_distributed``)."""

    def __init__(
        self,
        indexes,  # reader | dict[str, reader]
        default_field: str = "body",
        max_expansions: int = 50,
    ):
        if not isinstance(indexes, dict):
            indexes = {default_field: indexes}
        self.indexes = indexes
        self.default_field = default_field
        self.max_expansions = max_expansions
        self._task = None  # lazy (ray only needed for search_distributed)

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
        if c.kind == "term":
            return [(t, c.boost) for t in _query_terms(c.text)]
        if isinstance(idx, SegmentedBM25):
            raise ValueError(
                f"{c.kind} expansion needs a term dictionary merged across "
                "segments; compact the segmented index first"
            )
        if c.kind == "prefix":
            tab = idx.terms_in_range(prefix=c.text.lower())
            # (df desc, term asc), capped — fuzzy_expand's selection discipline
            df = tab.column("df").to_numpy(zero_copy_only=False)
            terms = tab.column("term").to_pylist()
            order = sorted(range(len(terms)), key=lambda i: (-int(df[i]), terms[i]))
            return [(terms[i], c.boost) for i in order[: self.max_expansions]]
        if c.kind == "fuzzy":
            return [(v, c.boost * w) for v, w in idx.fuzzy_pairs(
                c.text.lower(), c.max_edits, max_expansions=self.max_expansions)]
        raise AssertionError(c.kind)  # phrase handled by caller

    def _filter_field(self) -> str:
        """The field whose sidecar a docvalue filter reads: the sidecar is
        corpus-global, so any field's copy is authoritative — the default
        field, else the first indexed field by name."""
        return self.default_field if self.default_field in self.indexes else min(self.indexes)

    def _plan(self, q: str, filter_lang: "str | None"):
        """``q`` compiled to the executor's plan (index/bm25.py): clause
        expansion (dictionary prefix scans, fuzzy OSA expansion) runs here,
        once — pruned (term, df) column reads, no posting blobs.  None
        when ``filter_lang`` is absent from the dictionary (it matches
        nothing); a filter on a reader without the sidecar raises."""
        plan: dict = {"clauses": []}
        if filter_lang is not None:
            f = self._filter_field()
            self.indexes[f].docvalue_mask(np.empty(0, np.int64), filter_lang)
            if self.indexes[f]._lang_code(filter_lang) is None:
                return None
            plan.update(lang=filter_lang, field=f)
        for c in parse_query(q):
            f = c.field or self.default_field
            idx = self._index_of(c.field)
            if c.kind == "phrase":
                if not idx.has_positions:
                    raise ValueError(
                        "phrase clauses need a positional index "
                        "(build_index(positions=True))"
                    )
                plan["clauses"].append({"occur": c.occur, "field": f, "kind": "phrase",
                                        "text": c.text, "boost": c.boost, "slop": c.slop})
                continue
            pairs = self._expand(idx, c)
            plan["clauses"].append({
                "occur": c.occur, "field": f, "kind": "pairs", "pairs": pairs,
                "must_all": c.kind == "term" and c.occur == MUST and len(pairs) > 1,
            })
        return plan

    def _shards(self, sharded: bool = False, num_shards: "int | None" = None):
        """The executor's shards, {field: [Unit]} each.  Locally one shard
        holds every field's units.  Shard-side, a single reader splits by
        its own units; several fields must all be monolithic indexes, which
        share each docid range (the filter field's doclen parts,
        ``doclen_shard_ranges`` — any field's parts partition the shared
        corpus docid space)."""
        if not sharded:
            return [{f: r.units() for f, r in self.indexes.items()}]
        if len(self.indexes) == 1:
            ((f, reader),) = self.indexes.items()
            return [{f: [u]} for u in reader.units(True, num_shards)]
        if any(isinstance(r, SegmentedBM25) for r in self.indexes.values()):
            raise ValueError(
                "shard-side serving of several fields needs a monolithic index "
                "per field: per-field segments do not share docid ranges"
            )
        ranges = doclen_shard_ranges(self.indexes[self._filter_field()], num_shards)
        return [{f: [Unit(r, lo, hi)] for f, r in self.indexes.items()} for lo, hi in ranges]

    def _stats(self) -> dict:
        return {f: r._stats() for f, r in self.indexes.items()}

    def search(
        self, q: str, k: int = 10, filter_lang: "str | None" = None
    ) -> "list[tuple[int, float]]":
        plan = self._plan(q, filter_lang)
        if plan is None:
            return []
        return _topk(*execute([plan], self._shards(), self._stats())[0][0], k)

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
        occ_name = {MUST: "MUST", SHOULD: "SHOULD", MUST_NOT: "MUST_NOT"}
        lines = [f"QueryString k={k} default_field={self.default_field!r}"]
        n_phrases = 0
        for c, pc in zip(parse_query(q), self._plan(q, None)["clauses"]):
            idx = self._index_of(c.field)
            head = f"  {occ_name[c.occur]} field={pc['field']}"
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
            pairs = pc["pairs"]
            dfs = idx.df_of([t for t, _ in pairs])
            total_df = sum(dfs.values())
            head += f" {c.kind.upper()} {c.text!r} expansions={len(pairs)}"
            if pc["must_all"]:
                head += " must_all"
            head += f" df={total_df}"
            lines.append(head)
            for t, w in pairs[:5]:
                lines.append(f"    - {t!r} df={dfs.get(t, 0)} weight={w:.3f}")
            if len(pairs) > 5:
                lines.append(f"    ... {len(pairs) - 5} more expansions")
        shards = self._shards(sharded=True, num_shards=num_shards)
        lines.append(
            f"  distributed: {len(shards)} docid ranges, "
            + (
                f"2 rounds (phase-1 matches for {n_phrases} phrase/proximity "
                "clause(s), then shard-side scoring)"
                if n_phrases
                else "1 round (shard-side scoring, k-list merge)"
            )
        )
        return "\n".join(lines)

    def search_distributed(
        self,
        q: str,
        k: int = 10,
        num_shards: "int | None" = None,
        filter_lang: "str | None" = None,
    ) -> "list[tuple[int, float]]":
        """Query-string retrieval with SHARD-SIDE scoring — the 1e12-doc
        serving shape for the query language, rank-AND-score-identical to
        ``search`` (tested): the same plan ships to one ``_unit_task`` per
        shard (``_fan_out``).  Phrase pseudo-term df needs a global count,
        so phrase queries take two rounds — phase 1 returns each unit's
        live phrase matches, phase 2 scores with their summed df — and
        phrase-free queries one.  Each task applies the MUST/NOT and
        docvalue masks in-shard (each doc lives in exactly one unit) and
        returns a partial top-k; decoded postings never transit (the
        ``search_many_sharded`` / sorter.cpp:424-430 shape)."""
        import ray

        if self._task is None:
            self._task = ray.remote(_unit_task)
        plan = self._plan(q, filter_lang)
        if plan is None:
            return []
        shards = self._shards(sharded=True, num_shards=num_shards)
        return _fan_out(self._task, [plan], shards, self._stats(), k)[0]
