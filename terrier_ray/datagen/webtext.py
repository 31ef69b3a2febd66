"""Deterministic synthetic webtext corpus (no external data, seed-fixed).

Shape per BASELINE.json input_hint:
``url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string``.

Properties exercised (FIXTURES.md §1):
- Zipf-distributed vocabulary → heavy-hitter term skew (salted-postings path)
- duplicate urls with differing warc_ts (dedup keeps latest)
- empty html rows and whitespace-only-extraction rows
- HTML edge cases: comments, script/style, entities, nested + malformed tags
- a fraction of rows arrive with ``text`` pre-extracted (identical to the
  reference extractor's output), the rest with ``text == ""``

Everything derives from ``numpy.random.default_rng(seed)`` — same
(num_docs, seed) ⇒ byte-identical parquet content.
"""

from __future__ import annotations

import hashlib
import os
import datetime as _dt

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from terrier_ray.extract.html import extract_text_reference
from terrier_ray.state.manifest import fingerprint, run_epoch

WEBTEXT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_STOPWORDS = (
    "the of and a to in is was it for on as with by at from that this are be "
    "or an have not they his her which you all she there were when who will "
    "more no out up into them then its about time only could other these new "
    "some than first may such over our man even most after also many must"
).split()

_LANGS = ["en"] * 46 + ["de", "fr", "es", "xx"]

_BASE_TS = int(_dt.datetime(2024, 1, 1).timestamp() * 1_000_000)  # µs


def _make_vocab(rng: np.random.Generator, size: int = 6000) -> np.ndarray:
    syll = np.array(
        "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu ga ge gi "
        "go gu ha he hi ho hu ka ke ki ko ku la le li lo lu ma me mi mo mu na "
        "ne ni no nu pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to "
        "tu va ve vi vo vu wa we wi wo wu za ze zi zo zu".split()
    )
    n_needed = size - len(_STOPWORDS)
    parts = rng.integers(2, 5, size=n_needed)
    words = []
    for k in parts:
        words.append("".join(rng.choice(syll, size=k)))
    vocab = np.array(_STOPWORDS + words)
    # dedup while preserving order (collisions possible among generated words)
    _, idx = np.unique(vocab, return_index=True)
    return vocab[np.sort(idx)]


def _zipf_probs(n: int, s: float = 1.07) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks**-s
    return p / p.sum()


def _render_html(rng: np.random.Generator, title: str, paras: list[str]) -> bytes:
    """Assemble an HTML page with deterministic but varied edge cases."""
    style = rng.integers(0, 8)
    bits: list[str] = []
    bits.append("<html><head>")
    bits.append(f"<title>{title}</title>")
    if style % 2 == 0:
        bits.append("<style>body { color: #333; }\n.x{display:none}</style>")
    if style % 3 == 0:
        bits.append('<script type="text/javascript">var a = 1 < 2 && 3 > 2;</script>')
    bits.append("</head><body>")
    if style == 5:
        bits.append("<!-- hidden comment with <p>fake markup</p> -->")
    bits.append(f"<h1>{title}</h1>")
    for j, p in enumerate(paras):
        if style == 1 and j == 0:
            bits.append(f'<div class="c"><p>{p} &amp; more &lt;tags&gt;</p></div>')
        elif style == 2 and j == 0:
            bits.append(f'<p>{p} <a href="https://x.example/{j}">link {j}</a></p>')
        elif style == 3 and j == 0:
            bits.append(f"<p>{p}")  # malformed: unclosed <p>
        elif style == 4 and j == 0:
            bits.append(f"<ul><li>{p}</li><li>item&#39;s extra</li></ul>")
        elif style == 6 and j == 0:
            bits.append(f"<blockquote><p><b>{p}</b></p></blockquote>")
        else:
            bits.append(f"<p>{p}</p>")
    if style == 7:
        bits.append("<script>unterminated()")  # unterminated script to EOF
    bits.append("</body></html>")
    return "".join(bits).encode("utf-8")


def _generate_shard(
    rng: np.random.Generator,
    vocab: np.ndarray,
    probs: np.ndarray,
    n: int,
    shard_id: int,
) -> pa.Table:
    doc_lens = np.clip(rng.lognormal(mean=3.8, sigma=0.7, size=n), 10, 600).astype(np.int64)
    total = int(doc_lens.sum())
    token_idx = rng.choice(len(vocab), size=total, p=probs)
    tokens = vocab[token_idx]
    bounds = np.concatenate(([0], np.cumsum(doc_lens)))
    title_lens = rng.integers(3, 8, size=n)
    langs = np.array(_LANGS)[rng.integers(0, len(_LANGS), size=n)]
    ts_off = rng.integers(0, 90 * 24 * 3600, size=n) * 1_000_000
    pre_extracted = rng.random(n) < 0.3

    urls: list[str] = []
    htmls: list[bytes | None] = []
    texts: list[str] = []
    for i in range(n):
        doc_tokens = tokens[bounds[i] : bounds[i + 1]]
        title = " ".join(doc_tokens[: title_lens[i]])
        body = doc_tokens[title_lens[i] :]
        n_paras = max(1, len(body) // 60)
        paras = [" ".join(chunk) for chunk in np.array_split(body, n_paras)]
        url = f"https://site{int(rng.integers(0, 97))}.example.com/s{shard_id}/p{i}"
        roll = rng.random()
        if roll < 0.005:
            html = b""  # empty page
        elif roll < 0.01:
            html = b"<html><body>   \n\t  </body></html>"  # whitespace-only
        else:
            html = _render_html(rng, title, paras)
        urls.append(url)
        htmls.append(html)
        texts.append(extract_text_reference(html) if pre_extracted[i] else "")

    # duplicate urls (~2%): later warc_ts, different content
    n_dup = max(1, n // 50)
    dup_src = rng.integers(0, n, size=n_dup)
    for i in dup_src:
        urls.append(urls[i])
        htmls.append(_render_html(rng, "updated " + str(i), ["revised content here"]))
        texts.append("")
    langs = np.concatenate([langs, np.array(["en"] * n_dup)])
    ts = _BASE_TS + np.concatenate([ts_off, ts_off[dup_src] + 10_000_000_000])

    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts.astype("int64"), type=pa.timestamp("us")),
            "html": pa.array(htmls, type=pa.binary()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
        }
    )


def generate_webtext_parquet(
    out_dir: str,
    num_docs: int = 1000,
    seed: int = 42,
    shard_rows: int = 20_000,
) -> str:
    """Write a sharded webtext corpus; idempotent (one fingerprinted epoch,
    state/manifest.run_epoch)."""

    def generate():
        for f in os.listdir(out_dir):
            if f.endswith(".parquet"):
                os.remove(os.path.join(out_dir, f))
        rng = np.random.default_rng(seed)
        vocab = _make_vocab(rng)
        probs = _zipf_probs(len(vocab))
        parts = []
        for shard_id, start in enumerate(range(0, num_docs, shard_rows)):
            n = min(shard_rows, num_docs - start)
            table = _generate_shard(rng, vocab, probs, n, shard_id)
            parts.append(os.path.join(out_dir, f"part-{shard_id:05d}.parquet"))
            # small row groups: Ray's parquet reader splits at row-group
            # granularity, so one-row-group shards cap read (and therefore
            # extract/tokenize) parallelism at the file count — 12 files was
            # the measured scaling ceiling for the 240k-doc corpus at 16+ cpus
            pq.write_table(table, parts[-1], row_group_size=2048)
        return parts, {"rows": num_docs}

    inputs = fingerprint([], num_docs=num_docs, seed=seed, shard_rows=shard_rows, v=3)
    run_epoch(out_dir, "webtext", inputs, generate)
    return out_dir


def generate_queries(num_queries: int = 50, seed: int = 42) -> pa.Table:
    """Reference query set analog: (query_id, text), 1-4 mid-frequency terms."""
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(rng)
    # skip the top stopword band; sample from ranks 30..2000
    lo, hi = 30, min(2000, len(vocab))
    qrng = np.random.default_rng(seed + 1)
    texts = []
    for _ in range(num_queries):
        k = int(qrng.integers(1, 5))
        ranks = qrng.integers(lo, hi, size=k)
        texts.append(" ".join(vocab[ranks]))
    return pa.table(
        {
            "query_id": pa.array(np.arange(num_queries, dtype=np.int32)),
            "text": pa.array(texts, type=pa.string()),
        }
    )


_SF_DOCS = {"sf0.001": 1_000, "sf0.01": 8_000, "sf0.1": 60_000}


def webtext_for_sf(sf_dir: str, cache_root: str = "/tmp/terrier_ray_webtext") -> str:
    """Webtext corpus sized to a testdata sf dir, cached under /tmp."""
    name = os.path.basename(os.path.normpath(sf_dir))
    num_docs = _SF_DOCS.get(name, 1_000)
    out = os.path.join(cache_root, f"{name}-{num_docs}")
    return generate_webtext_parquet(out, num_docs=num_docs, seed=42)


def url_doc_id(urls: "pa.Array | list[str]") -> np.ndarray:
    """Deterministic docid: first 8 bytes of blake2b(url), masked to 63 bits."""
    if isinstance(urls, (pa.Array, pa.ChunkedArray)):
        urls = urls.to_pylist()
    out = np.empty(len(urls), dtype=np.uint64)
    mask = np.uint64((1 << 63) - 1)
    for i, u in enumerate(urls):
        h = hashlib.blake2b(u.encode("utf-8"), digest_size=8).digest()
        out[i] = np.uint64(int.from_bytes(h, "little")) & mask
    return out
