"""HTML → text extraction.

``extract_text_reference`` is THE reference extractor: a small, deterministic,
pure-Python function whose output per url is the engine's byte-identical
invariant (BASELINE.json input_hint).  The Ray pipeline stage
(``HtmlExtractor``) applies the exact same compiled rules per document inside
an actor pool (regexes compiled once per actor, the ThreadStateContainer
analog — /root/reference/src/include/execution/sql/thread_state_container.h:11-17).

Extraction rules (deterministic, order matters):
1. decode bytes as UTF-8 with replacement
2. strip HTML comments ``<!-- ... -->`` (unterminated → strip to end)
3. strip <script>/<style>/<noscript> element contents (unterminated → to end)
4. block-level tags (p, div, br, li, h1..h6, tr, table, ul, ol, title, head,
   body, html, section, article, header, footer, blockquote, pre, td, th)
   become a newline; every other tag becomes the empty string
5. unescape HTML entities (``html.unescape``)
6. whitespace-normalize: per line collapse runs of spaces/tabs, strip; drop
   empty lines; join remaining lines with a single ``\\n``
"""

from __future__ import annotations

import html as _htmllib
import re

import pyarrow as pa

_COMMENT_RE = re.compile(r"<!--.*?(?:-->|$)", re.DOTALL)
_SCRIPTISH_RE = re.compile(
    r"<(script|style|noscript)\b[^>]*>.*?(?:</\1\s*>|$)",
    re.DOTALL | re.IGNORECASE,
)
_BLOCK_TAG_RE = re.compile(
    r"</?(?:p|div|br|li|h[1-6]|tr|table|ul|ol|title|head|body|html|section"
    r"|article|header|footer|blockquote|pre|td|th)\b[^>]*/?>",
    re.IGNORECASE,
)
_ANY_TAG_RE = re.compile(r"<[^>]*>")
_SPACE_RE = re.compile(r"[ \t\r\f\v]+")


def _extract(doc: str) -> str:
    doc = _COMMENT_RE.sub("", doc)
    doc = _SCRIPTISH_RE.sub("", doc)
    doc = _BLOCK_TAG_RE.sub("\n", doc)
    doc = _ANY_TAG_RE.sub("", doc)
    doc = _htmllib.unescape(doc)
    lines = (_SPACE_RE.sub(" ", ln).strip() for ln in doc.split("\n"))
    return "\n".join(ln for ln in lines if ln)


def extract_text_reference(html_bytes: bytes | None) -> str:
    """The reference extractor. Byte-identical invariant is vs THIS function."""
    if html_bytes is None or len(html_bytes) == 0:
        return ""
    return _extract(bytes(html_bytes).decode("utf-8", errors="replace"))


class HtmlExtractor:
    """Actor-pool ``map_batches`` stage: html:binary → text:string.

    Rows whose ``text`` column is already non-empty keep it (pre-extracted
    input); others get ``extract_text_reference(html)``.  Emits the batch
    WITHOUT the heavy ``html`` column (SURVEY.md §7.4: drop html immediately).

    Usage::

        ds.map_batches(HtmlExtractor, batch_format="pyarrow",
                       concurrency=N, batch_size=256, zero_copy_batch=True)
    """

    def __init__(self) -> None:
        # compile once per actor; module import already compiled the regexes,
        # but touching them here documents the stateful-stage contract.
        self._extract = extract_text_reference

    def __call__(self, batch: pa.Table) -> pa.Table:
        html_col = batch.column("html")
        text_col = batch.column("text") if "text" in batch.column_names else None
        out = []
        ex = self._extract
        if text_col is None:
            out = [ex(h) for h in html_col.to_pylist()]
        else:
            for h, t in zip(html_col.to_pylist(), text_col.to_pylist()):
                out.append(t if t else ex(h))
        keep = [c for c in batch.column_names if c not in ("html", "text")]
        result = batch.select(keep)
        return result.append_column("text", pa.array(out, type=pa.string()))


_TITLE_RE = re.compile(r"<title\b[^>]*>(.*?)(?:</title\s*>|$)", re.DOTALL | re.IGNORECASE)
_WS_RE = re.compile(r"\s+")


def extract_title_reference(html_bytes: bytes | None) -> str:
    """THE title-field extractor (pinned; the BM25F oracle reuses it the
    way both sides reuse ``tokenize``):

    1. decode bytes as UTF-8 with replacement
    2. content of the FIRST ``<title ...>…</title>`` element, case-
       insensitive, dot-matches-newline; unterminated → to end of doc;
       no title element → empty string
    3. strip any tags inside it, unescape HTML entities
    4. collapse ALL whitespace runs to single spaces and strip

    The title always comes from ``html`` — a pre-extracted ``text`` column
    is body text and never consulted.
    """
    if html_bytes is None or len(html_bytes) == 0:
        return ""
    doc = bytes(html_bytes).decode("utf-8", errors="replace")
    m = _TITLE_RE.search(doc)
    if m is None:
        return ""
    t = _ANY_TAG_RE.sub("", m.group(1))
    return _WS_RE.sub(" ", _htmllib.unescape(t)).strip()


class TitleExtractor:
    """Actor/task ``map_batches`` stage: html:binary → text:string where
    text is the TITLE field (``extract_title_reference``).  Unlike
    ``HtmlExtractor`` it always overwrites any pre-set ``text`` column —
    body text is a different field.  Emits the batch without ``html``."""

    def __init__(self) -> None:
        self._extract = extract_title_reference

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = [self._extract(h) for h in batch.column("html").to_pylist()]
        keep = [c for c in batch.column_names if c not in ("html", "text")]
        result = batch.select(keep)
        return result.append_column("text", pa.array(out, type=pa.string()))
