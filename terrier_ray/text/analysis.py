"""Text-analysis stages over the ``documents`` table: language-ID, quality
scoring, rolling-hash fingerprints.

All per-batch vectorized (numpy / compiled regex); heavier state (stopword
sets, n-gram profiles) is built once per actor in ``__init__``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

_WS_RE = re.compile(r"\s+")
_WORD_RE = re.compile(r"[a-z0-9]+")


class QualityScorer:
    """Per-doc quality heuristics: length, punctuation ratio, stopword ratio,
    mean word length, alpha ratio — the classic webtext quality features."""

    def __init__(self):
        self.stop = frozenset(
            "the of and a to in is was it for on as with by at from that this "
            "are be or an have not they his her which you all she there were".split()
        )
        self.word = _WORD_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        n_chars = np.empty(n, np.int64)
        n_words = np.empty(n, np.int64)
        punct_ratio = np.empty(n, np.float64)
        stop_ratio = np.empty(n, np.float64)
        mean_wlen = np.empty(n, np.float64)
        for i, t in enumerate(texts):
            n_chars[i] = len(t)
            words = self.word.findall(t.lower())
            n_words[i] = len(words)
            alpha = sum(c.isalnum() or c.isspace() for c in t)
            punct_ratio[i] = (len(t) - alpha) / len(t) if t else 0.0
            stop_ratio[i] = (
                sum(w in self.stop for w in words) / len(words) if words else 0.0
            )
            mean_wlen[i] = np.mean([len(w) for w in words]) if words else 0.0
        quality = (
            np.clip(n_words / 100.0, 0, 1) * 0.4
            + (1.0 - np.clip(punct_ratio * 4, 0, 1)) * 0.3
            + np.clip(stop_ratio * 3, 0, 1) * 0.3
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars_m": pa.array(n_chars),
                "n_words": pa.array(n_words),
                "punct_ratio": pa.array(np.round(punct_ratio, 4)),
                "stop_ratio": pa.array(np.round(stop_ratio, 4)),
                "mean_word_len": pa.array(np.round(mean_wlen, 4)),
                "quality": pa.array(np.round(quality, 4)),
            }
        )


class LangId:
    """N-gram-profile language ID (en/de/fr/es heuristic profiles + fallback).

    Profiles are tiny hand-built trigram/stopword sets compiled once per
    actor — a deterministic stand-in for a real langid model; the Ray-side
    plumbing (actor pool, batch shape) is the real thing.
    """

    PROFILES = {
        "en": {"the", "and", "of", "to", "in", "is", "that", "with"},
        "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "mit"},
        "fr": {"le", "la", "les", "et", "des", "est", "une", "dans"},
        "es": {"el", "la", "los", "de", "que", "es", "una", "por"},
    }

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in self.PROFILES.items()}
        self.word = _WORD_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = []
        for t in batch.column("text").to_pylist():
            words = set(self.word.findall(t.lower())[:200])
            best, best_n = "unk", 0
            for lang, prof in self.profiles.items():
                n = len(words & prof)
                if n > best_n:
                    best, best_n = lang, n
            langs.append(best if best_n >= 2 else "unk")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(langs, type=pa.string()),
            }
        )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """64-bit document fingerprint: blake2b of whitespace-normalized text."""
    fps = np.empty(batch.num_rows, dtype=np.int64)
    for i, t in enumerate(batch.column("text").to_pylist()):
        norm = _WS_RE.sub(" ", t.strip().lower())
        h = hashlib.blake2b(norm.encode(), digest_size=8).digest()
        fps[i] = int.from_bytes(h, "little") & ((1 << 63) - 1)
    return pa.table({"doc_id": batch.column("doc_id"), "fingerprint": pa.array(fps)})
