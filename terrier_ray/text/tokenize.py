"""Canonical tokenization — ONE definition shared by engine and oracles.

Rule: lowercase the text, then tokens are maximal runs of ``[a-z0-9]`` (ASCII
letters/digits; everything else is a separator).  Deterministic and cheap;
matches the classic English IR tokenizer shape.

``Tokenizer`` is the corpus stage: per doc it counts term frequencies
(vectorized ``np.unique`` over the doc's token array) and emits
``(docid, warc_ts, dl, terms:list<string>, tfs:list<int32>)`` — the
tokenized-corpus representation the index build explodes into postings.
Reference analog: per-thread build state in CREATE INDEX
(/root/reference/src/execution/compiler/operator/index_create_translator.cpp:57-135).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from terrier_ray.datagen.webtext import url_doc_id

TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """The canonical tokenizer (used verbatim by the BM25 oracle)."""
    return TOKEN_RE.findall(text.lower())


def token_stream_hash(toks: list) -> int:
    """Canonical per-doc content hash: blake2b-64 of the RAW token stream
    (order-sensitive).  ONE definition shared by the Tokenizer (which emits
    it as the corpus ``chash`` column) and the rank-identity oracle — the
    dedup tie-break in ``build._dedup_group`` compares these, so the hash
    input must be identical on both sides AND independent of batch
    composition (the per-doc unique-terms list is NEITHER: its order is
    dictionary first-appearance order across the whole batch)."""
    return int.from_bytes(
        hashlib.blake2b("\x00".join(toks).encode("utf-8"), digest_size=8).digest(),
        "little",
    )


class Tokenizer:
    """Actor-pool map_batches stage: (url, warc_ts, text) → tokenized docs.

    Emits one row per input doc: docid (hash of url), warc_ts, dl (token
    count), terms (unique tokens, batch-dictionary first-appearance order —
    NOT sorted; consumers must not rely on the order), tfs (per-term
    counts), chash (``token_stream_hash`` of the raw token stream — the
    deterministic dedup tie-break).  Docs with zero tokens are kept (dl=0,
    empty lists) so dedup/statistics see them.

    ``positions=True`` (the positional-index corpus) adds one ``poss``
    binary column per doc: for each term, in terms-list order, the term's
    token positions as delta+varbyte (first absolute, 0-based over the
    doc's token stream).  No per-term length prefix is stored — tf_i IS
    the count, and varbyte is self-delimiting, so consumers split the blob
    by counting value boundaries (bytes with the high bit clear).  ~1 B
    per token before parquet compression.
    """

    def __init__(self, positions: bool = False) -> None:
        self._re = TOKEN_RE  # compiled once per actor
        self.positions = positions

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        texts = batch.column("text").to_pylist()
        findall = self._re.findall
        # one flat token stream + per-doc counts (regex per doc, counting
        # vectorized: Arrow dictionary-encode + one int64 np.unique per batch)
        tokens: list[str] = []
        dls = np.empty(len(texts), dtype=np.int64)
        chash = np.empty(len(texts), dtype=np.uint64)
        for i, t in enumerate(texts):
            toks = findall(t.lower()) if t else []
            dls[i] = len(toks)
            chash[i] = token_stream_hash(toks)
            tokens.extend(toks)
        poss_col = None
        if tokens:
            dic = pa.array(tokens, type=pa.string()).dictionary_encode()
            codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = dic.dictionary
            doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), dls)
            # (doc, term) pair counting in one sorted pass over int64 keys
            keys = doc_idx * np.int64(len(vocab)) + codes
            uniq_keys, tfs = np.unique(keys, return_counts=True)
            u_doc = uniq_keys // len(vocab)
            u_code = (uniq_keys % len(vocab)).astype(np.int32)
            per_doc = np.bincount(u_doc, minlength=len(texts))
            offsets = np.concatenate(([0], np.cumsum(per_doc))).astype(np.int32)
            flat_terms = pa.DictionaryArray.from_arrays(
                pa.array(u_code), vocab
            ).cast(pa.string())
            terms_col = pa.ListArray.from_arrays(pa.array(offsets), flat_terms)
            tfs_col = pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(tfs.astype(np.int32))
            )
            if self.positions:
                from terrier_ray.index.codec import _nbytes_for, varbyte_encode

                # token stream is in (doc, position) order; a STABLE sort by
                # (doc, term) key keeps positions ascending within each
                # (doc, term) group, and sorted-key groups line up with
                # uniq_keys — so gaps delta-encode per group in one pass
                doc_starts = np.concatenate(([0], np.cumsum(dls)[:-1]))
                pos_in_doc = np.arange(len(tokens), dtype=np.int64) - np.repeat(
                    doc_starts, dls
                )
                order = np.argsort(keys, kind="stable")
                pos_s = pos_in_doc[order]
                g0 = np.concatenate(([0], np.cumsum(tfs)[:-1]))
                gaps = pos_s.copy()
                gaps[1:] -= pos_s[:-1]
                gaps[g0] = pos_s[g0]  # first position absolute per group
                enc = memoryview(varbyte_encode(gaps.astype(np.uint64)))
                nb = _nbytes_for(gaps.astype(np.uint64))
                boff = np.concatenate(([0], np.cumsum(nb)))
                # the key sort is doc-major, so each doc's dls[i] values are
                # contiguous in the sorted stream: per-doc blob = one slice
                S = np.concatenate(([0], np.cumsum(dls)))
                poss_col = pa.array(
                    [bytes(enc[boff[S[i]] : boff[S[i + 1]]]) for i in range(len(texts))],
                    type=pa.binary(),
                )
        else:
            offsets = np.zeros(len(texts) + 1, dtype=np.int32)
            terms_col = pa.ListArray.from_arrays(
                pa.array(offsets), pa.array([], type=pa.string())
            )
            tfs_col = pa.ListArray.from_arrays(
                pa.array(offsets), pa.array([], type=pa.int32())
            )
        doc_ids = url_doc_id(urls)
        cols = {
            "docid": pa.array(doc_ids.astype(np.int64)),
            "warc_ts": batch.column("warc_ts"),
            "dl": pa.array(dls.astype(np.int32)),
            "terms": terms_col,
            "tfs": tfs_col,
            "chash": pa.array(chash, type=pa.uint64()),
        }
        if "lang" in batch.column_names:
            # categorical doc attribute carried into the corpus rows: the
            # docvalues sidecar epoch (index/build.build_docid_sidecar) turns it
            # into the filtered-retrieval forward index (Lucene DocValues
            # analog); absent on inputs without it (DML snapshot corpora)
            cols["lang"] = batch.column("lang")
        if self.positions:
            if poss_col is None:
                poss_col = pa.array([b""] * len(texts), type=pa.binary())
            cols["poss"] = poss_col
        return pa.table(cols)
