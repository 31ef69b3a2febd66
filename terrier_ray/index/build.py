"""Inverted-index build: the CREATE INDEX analog, Ray-Data-first.

Resumable epochs, run by the one epoch runner
(``terrier_ray.state.manifest.run_epoch``): each epoch's outputs are
committed by a manifest written last, so a killed run restarts from the
last committed epoch:

1. ``corpus``   read webtext → HtmlExtractor → Tokenizer → url-dedup
                (keep latest warc_ts) → tokenized corpus parquet
                ``(docid, warc_ts, dl, terms, tfs, chash, lang[, poss])``.
2. ``stats``    global N/avgdl (tiny aggregate) + heavy-hitter term detection
                from a file-sample (the ANALYZE analog, the reference's
                execution/compiler/operator/analyze_translator.cpp).
2b/2c. sidecars ``doclens`` always, ``docvalues`` (lang) and
                ``docvalues_ts`` (warc_ts) under ``docvalues=True``: one
                writer (``build_docid_sidecar``) lays each out as
                docid-sorted fixed-width memmap parts.
3. ``postings`` explode to (term, docid, tf, dl, salt) → ONE hash exchange
                on the bucket's LPT group → per-bucket vectorized encode →
                per-bucket posting parquet with block-max metadata, then
                the fold pass merges salted heavy-term sub-postings.

The partitioned build is the reference's partitioned-aggregation pattern
(thread-local tables → radix overflow partitions → per-partition merge,
the reference's execution/sql/aggregation_hash_table.cpp:647-769) at
cluster scale.  Zipf skew is carried by the bucket count: a bucket holds at
most (heaviest term's postings + its hash bucket's tail), and the per-bucket
encoder is vectorized end-to-end so even a whole-corpus stopword list costs
one lexsort + one varbyte pass.  (An earlier two-exchange design — salted
pkey shuffle → segment encode → second bucket shuffle → merge — spent two
sort barriers and an intermediate encode/decode to ship compressed segments
through the second exchange; with the exchange keyed directly on the final
bucket's group that second exchange does not exist.)

Scale notes (100 TB / 1e12 docs): docids here are 63-bit url hashes — a real
deployment would widen to 128-bit to keep collision odds negligible;
``num_buckets`` scales with data (it bounds per-group memory in the
exchange); the corpus epoch output is partitioned parquet so the postings
epoch re-reads it with column pruning instead of holding it in the object
store.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from terrier_ray.extract.html import HtmlExtractor
from terrier_ray.ops.relational import _get_broadcast  # per-worker bounded cache
from terrier_ray.index.codec import (
    EF_THRESHOLD,
    decode_posting_list,
    varbyte_encode,
)
from terrier_ray.state.manifest import fingerprint, run_epoch
from terrier_ray.text.tokenize import Tokenizer

#: container fmt tag for the verbatim fast path (codec._FMT_VBYTE)
_VBYTE_FMT = bytes([0])

K1 = 1.2
B = 0.75
BLOCK_SIZE = 128


def term_hash(terms: np.ndarray) -> np.ndarray:
    """Stable 63-bit hash per term (blake2b; loop over UNIQUE terms only)."""
    out = np.empty(len(terms), dtype=np.int64)
    mask = (1 << 63) - 1
    for i, t in enumerate(terms):
        h = hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest()
        out[i] = int.from_bytes(h, "little") & mask
    return out


#: below this input size, bounded control-path steps (dup detection, global
#: stats, heavy-term sampling) run driver-side with pyarrow — a Ray pipeline's
#: fixed startup (~1-2 s) dwarfs the work; above it the Ray path runs.
_DRIVER_SIDE_BYTES = 1 << 30

#: duplicated-url rows at or below this resolve on the driver (one
#: _dedup_group call) instead of paying a sort sub-pipeline's fixed cost;
#: ~2% dup rate means this covers corpora up to ~10M docs
_DRIVER_DUP_ROWS = 200_000

#: above this input size the duplicate-detection url scan runs as a Ray
#: pipeline (per-block partial uniques) — the driver's single-threaded url
#: decode costs ~2.3 s at 960k docs, a serial tax both scaling legs pay
_PARALLEL_URL_BYTES = 128 << 20


def _total_bytes(path: str) -> int:
    return sum(
        os.path.getsize(f) for f in glob.glob(os.path.join(path, "*.parquet"))
    )


def _scan_blocks(path: str, per_cpu: int = 2, floor_files: bool = True) -> int | None:
    """Read-block target for the corpus scans.

    Ray's parquet reader splits work at ROW-GROUP granularity; without an
    override it emits roughly one block per input file, so a 12-file corpus
    caps the extract/tokenize stage at 12-way parallelism no matter how many
    cpus the cluster has (the measured 4→16-cpu scaling ceiling).  Map-only
    passes want ~2 blocks/cpu for wave balance; shuffle inputs want ~1/cpu
    (see ops/relational._read_blocks_for).  Ray silently caps the override
    at the total row-group count, so this is safe on coarse files too.

    ``floor_files=False`` (shuffle inputs): do NOT floor at the file count —
    a corpus written as hundreds of task files otherwise forces hundreds of
    shuffle input blocks, and the all-to-all's task/fetch overhead grows
    with block count × partitions (measured: the 7.68M-doc postings exchange
    dropped 74 → 57 s at 16 cpus from this cap alone).  Oversized read
    blocks are safe: Ray's dynamic block splitting re-chops map outputs at
    target_max_block_size, so worker memory stays bounded.
    """
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_files = len(glob.glob(os.path.join(path, "*.parquet"))) or 1
    if not floor_files:
        return per_cpu * cpus
    return max(n_files, per_cpu * cpus)


# ---------------------------------------------------------------------------
# epoch 1: corpus
# ---------------------------------------------------------------------------


def _dedup_group(group: pa.Table) -> pa.Table:
    """Keep one row per docid: max (warc_ts, dl, content-hash).  The content
    hash breaks (warc_ts, dl) ties DETERMINISTICALLY — group row order is
    shuffle-dependent, and the rank-identity oracle (index/oracle.py) applies
    the identical 3-tuple rule.  The hash is the corpus ``chash`` column
    (``text.tokenize.token_stream_hash`` of the raw token stream, computed
    per doc by the Tokenizer) — hashing the ``terms`` list here would be
    batch-composition-dependent (dictionary first-appearance order) and
    would diverge from the oracle's raw-stream hash.  Runs only over the
    (tiny) duplicated set."""
    docid = group.column("docid").to_numpy(zero_copy_only=False)
    ts = group.column("warc_ts").to_numpy(zero_copy_only=False).astype("int64")
    dl = group.column("dl").to_numpy(zero_copy_only=False)
    th = group.column("chash").to_numpy(zero_copy_only=False)
    order = np.lexsort((th, dl, ts, docid))  # winners are last per docid run
    sorted_docid = docid[order]
    is_last = np.concatenate((sorted_docid[1:] != sorted_docid[:-1], [True]))
    keep = order[is_last]
    return group.take(pa.array(np.sort(keep)))


_EXTRACTOR = HtmlExtractor()
_TOKENIZER = Tokenizer()
_TOKENIZER_POS = Tokenizer(positions=True)


def _extract_batch(batch: pa.Table) -> pa.Table:
    return _EXTRACTOR(batch)


def _extract_title_batch(batch: pa.Table) -> pa.Table:
    # lazy singleton: TitleExtractor imports nothing heavy, but mirror the
    # module-level compiled-state pattern of _extract_batch
    from terrier_ray.extract.html import TitleExtractor

    global _TITLE_EXTRACTOR
    try:
        ex = _TITLE_EXTRACTOR
    except NameError:
        ex = _TITLE_EXTRACTOR = TitleExtractor()
    return ex(batch)


def _tokenize_batch(batch: pa.Table) -> pa.Table:
    return _TOKENIZER(batch)


def _tokenize_batch_pos(batch: pa.Table) -> pa.Table:
    return _TOKENIZER_POS(batch)


def build_corpus(
    webtext_path: str,
    corpus_dir: str,
    *,
    batch_size: int = 512,
    dedup_partitions: int = 32,
    positions: bool = False,
    field: str = "body",
):
    """Extract + tokenize + url-dedup in ONE raw scan, shuffling only dups.

    ``field`` selects the extraction stage: "body" (HtmlExtractor, the
    default) or "title" (TitleExtractor) — per-field indexes share docids
    (url hash), which is what BM25F multi-field scoring joins on.

    A url-keyed groupby over the tokenized corpus would move every terms/tfs
    list through an all-to-all exchange.  Instead:

    1. cheap pass over (url) ONLY (column pruning) → docid duplicate counts
       (driver-side below _DRIVER_SIDE_BYTES; above it per-block partial
       ``np.unique`` counts merged on the driver — NOT a full-cardinality
       groupby, which this Ray's sort shuffle prices by key count) → tiny
       duplicate set, broadcast via ray.put (at 1e12 docs: a Bloom filter
       instead of the exact set — same shape).
    2. main pass: read → extract → tokenize; each task WRITES its
       unique-docid rows straight into the corpus dir (content-derived
       deterministic filename + tmp/atomic-rename → idempotent under Ray
       task retry; no shuffle at all for the ~98% majority) and EMITS only
       duplicated-docid rows.  Those ~2% flow into a bounded bucket shuffle
       (docid % dedup_partitions — fixed key count, not data-sized) where
       each bucket resolves winners with the deterministic
       (warc_ts, dl, content-hash) rule (_dedup_group) and atomically
       writes ``dup-resolved-NNN.parquet``.

    Earlier shape: three pipelines (detect / write-unique / full re-scan +
    resolve).  Fusing the last two halves the raw-input scans and drops one
    Ray pipeline startup+finalize floor per build — fixed costs that taxed
    the big-cluster leg of the scaling criterion hardest.

    Extraction/tokenization state is module-level compiled regexes, so these
    run as STATELESS task stages (elastic, no CPU reservation) — actor pools
    here would reserve every core on small nodes and starve read/shuffle
    tasks.  Actor pools are reserved for heavy per-worker state (BM25Scorer).
    """
    import ray
    import ray.data as rd

    # --- pass 1: duplicate detection over url column only ---
    # adaptive: small inputs decode urls on the driver (one pyarrow read
    # beats a Ray pipeline's fixed startup); larger ones fan out
    if _total_bytes(webtext_path) < _PARALLEL_URL_BYTES:
        import pyarrow.dataset as pads

        from terrier_ray.datagen.webtext import url_doc_id

        url_tab = pads.dataset(webtext_path).to_table(columns=["url"])
        d = url_doc_id(url_tab.column("url")).astype(np.int64)
        uniq, cnt = np.unique(d, return_counts=True)
        dup_ids = np.sort(uniq[cnt > 1])
    else:
        urls = rd.read_parquet(
            webtext_path,
            columns=["url"],
            override_num_blocks=_scan_blocks(webtext_path),
        )

        def block_counts(batch: pa.Table) -> pa.Table:
            from terrier_ray.datagen.webtext import url_doc_id

            dd = url_doc_id(batch.column("url")).astype(np.int64)
            u, c = np.unique(dd, return_counts=True)
            return pa.table({"docid": pa.array(u), "c": pa.array(c.astype(np.int64))})

        parts = list(
            urls.map_batches(
                block_counts,
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        )
        if parts:
            alld = np.concatenate([t.column("docid").to_numpy() for t in parts])
            allc = np.concatenate([t.column("c").to_numpy() for t in parts])
            uniq, inv = np.unique(alld, return_inverse=True)
            tot = np.bincount(inv, weights=allc)
            dup_ids = uniq[tot > 1]  # np.unique output is already sorted
        else:
            dup_ids = np.empty(0, dtype=np.int64)
    dup_ref = ray.put(dup_ids)

    # --- main pass: write unique majority in-task, emit dups to the shuffle
    os.makedirs(corpus_dir, exist_ok=True)
    ds = rd.read_parquet(webtext_path, override_num_blocks=_scan_blocks(webtext_path))
    ds = ds.map_batches(
        _extract_title_batch if field == "title" else _extract_batch,
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True,
    )
    ds = ds.map_batches(
        _tokenize_batch_pos if positions else _tokenize_batch,
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True,
    )

    def write_unique_emit_dups(batch: pa.Table) -> pa.Table:
        dups = _get_broadcast(dup_ref)
        d = batch.column("docid").to_numpy(zero_copy_only=False)
        if len(dups):
            idx = np.clip(np.searchsorted(dups, d), 0, len(dups) - 1)
            is_dup = dups[idx] == d
        else:
            is_dup = np.zeros(len(d), dtype=bool)
        uniq_rows = batch.filter(pa.array(~is_dup))
        if uniq_rows.num_rows:
            # content-derived name: a retried task re-produces the same block
            # and overwrites its own output (tmp + atomic rename, like the
            # postings bucket writer) — small row groups keep it splittable
            tag = hashlib.blake2b(
                uniq_rows.column("docid").to_numpy(zero_copy_only=False).tobytes(),
                digest_size=8,
            ).hexdigest()
            final = os.path.join(corpus_dir, f"part-{tag}.parquet")
            tmp = f"{final}.tmp-{os.getpid()}"
            pq.write_table(uniq_rows, tmp, row_group_size=4096)
            os.replace(tmp, final)
        dup_rows = batch.filter(pa.array(is_dup))
        b = dup_rows.column("docid").to_numpy(zero_copy_only=False) % dedup_partitions
        return dup_rows.append_column("dbucket", pa.array(b.astype(np.int32)))

    # materialize BEFORE the groupby: the sort all-to-all re-executes its
    # input lineage (sampling), which would re-run the whole extract/tokenize
    # scan (+11 s measured at 4 cpus); the stream holds only the ~2% dup rows
    dup_stream = ds.map_batches(
        write_unique_emit_dups,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    ).materialize()

    def resolve_bucket(group: pa.Table) -> pa.Table:
        b = int(group.column("dbucket")[0].as_py())
        winners = _dedup_group(group.drop_columns(["dbucket"]))
        final = os.path.join(corpus_dir, f"dup-resolved-{b:03d}.parquet")
        tmp = f"{final}.tmp-{os.getpid()}"
        pq.write_table(winners, tmp, row_group_size=4096)
        os.replace(tmp, final)
        return pa.table({"dbucket": pa.array([b], type=pa.int32())})

    if len(dup_ids):
        if dup_stream.count() <= _DRIVER_DUP_ROWS:
            # the usual case (~2% dup rate): one driver-side resolve beats a
            # whole sort sub-pipeline's fixed cost; bounded by the threshold
            tabs = list(
                dup_stream.iter_batches(batch_size=None, batch_format="pyarrow")
            )
            allrows = pa.concat_tables(
                [t.drop_columns(["dbucket"]) for t in tabs]
            ).combine_chunks()
            winners = _dedup_group(allrows)
            final = os.path.join(corpus_dir, "dup-resolved-000.parquet")
            pq.write_table(winners, f"{final}.tmp", row_group_size=4096)
            os.replace(f"{final}.tmp", final)
        else:
            dup_stream.groupby("dbucket").map_groups(
                resolve_bucket, batch_format="pyarrow"
            ).materialize()


# ---------------------------------------------------------------------------
# epoch 2: stats + heavy-hitter detection
# ---------------------------------------------------------------------------


def compute_stats(
    corpus_dir: str,
    stats_path: str,
    *,
    num_buckets: int,
    num_salts: int,
    sample_files: int = 2,
    heavy_min_df: int | None = None,
    positions: bool = False,
):
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    n_docs = sum(pq.read_metadata(f).num_rows for f in files)

    # global dl sum: one narrow column; driver-side under the threshold,
    # Ray aggregate above it (the reference's ANALYZE is also a full pass).
    if _total_bytes(corpus_dir) < _DRIVER_SIDE_BYTES:
        import pyarrow.dataset as pads

        dl_tab = pads.dataset(corpus_dir).to_table(columns=["dl"])
        total_dl = int(pc.sum(dl_tab.column("dl")).as_py() or 0)
    else:
        import ray.data as rd
        from ray.data.aggregate import Sum

        ds = rd.read_parquet(corpus_dir, columns=["dl"])
        total_dl = int(ds.aggregate(Sum("dl"))["sum(dl)"] or 0)
    avgdl = (total_dl / n_docs) if n_docs else 0.0

    # heavy-hitter detection from a BOUNDED file sample (driver-side by
    # construction: sample_files caps the bytes read regardless of scale)
    sample = files[: max(1, min(sample_files, len(files)))]
    sampled_rows = sum(pq.read_metadata(f).num_rows for f in sample)
    frac = sampled_rows / max(1, n_docs)
    vc_parts = []
    for f in sample:
        terms = pq.read_table(f, columns=["terms"]).column("terms").combine_chunks()
        flat = terms.flatten() if isinstance(terms, pa.ListArray) else terms.chunk(0).flatten()
        vc = flat.value_counts()
        vc_parts.append(
            pa.table(
                {
                    "term": vc.field("values"),
                    "c": pc.cast(vc.field("counts"), pa.int64()),
                }
            )
        )
    df_tab = (
        pa.concat_tables(vc_parts)
        .to_pandas()
        .groupby("term", as_index=False)["c"]
        .sum()
        .rename(columns={"c": "df_est"})
    )

    if heavy_min_df is None:
        heavy_min_df = max(1000, int(0.01 * n_docs))
    est = df_tab["df_est"] / max(frac, 1e-9)
    heavy = sorted(df_tab.loc[est >= heavy_min_df, "term"].tolist())

    # per-bucket posting-mass estimate from the same sample: lets the
    # postings exchange LPT-pack buckets into balanced reduce groups
    # (Zipf head terms carry most of the mass and are all in the sample;
    # the unsampled tail spreads ~uniformly by hashing, so a uniform floor
    # keeps zero-sample buckets from clumping into one group)
    mass = np.zeros(num_buckets, dtype=np.float64)
    s_terms = np.asarray(df_tab["term"].tolist(), dtype=object)
    s_est = est.to_numpy()
    if len(s_terms):
        th = term_hash(s_terms)
        heavy_set = set(heavy)
        heavy_mask = np.fromiter(
            (t in heavy_set for t in s_terms), dtype=bool, count=len(s_terms)
        )
        plain_b = (th[~heavy_mask] % num_buckets).astype(np.int64)
        np.add.at(mass, plain_b, s_est[~heavy_mask])
        n_salts = max(1, int(num_salts))
        for s in range(n_salts):
            hb = salted_bucket(
                th[heavy_mask], np.full(heavy_mask.sum(), s, np.int64), num_buckets
            )
            np.add.at(mass, hb, s_est[heavy_mask] / n_salts)
    mass += max(1.0, float(mass.mean()) * 0.25)

    stats = {
        "n_docs": n_docs,
        "total_dl": total_dl,
        "avgdl": avgdl,
        "k1": K1,
        "b": B,
        "block_size": BLOCK_SIZE,
        "num_buckets": num_buckets,
        "num_salts": num_salts,
        "heavy_terms": heavy,
        "heavy_min_df": heavy_min_df,
        "sample_frac": frac,
        "positions": positions,
        "bucket_mass": [round(float(m), 2) for m in mass],
    }
    os.makedirs(os.path.dirname(stats_path), exist_ok=True)
    with open(stats_path + ".tmp", "w") as f:
        json.dump(stats, f)
    os.replace(stats_path + ".tmp", stats_path)
    return stats


# ---------------------------------------------------------------------------
# epochs 2b/2c: docid sidecars (docid-sorted fixed-width columns: doclens,
# the lang docvalues, the warc_ts docvalues)
# ---------------------------------------------------------------------------

#: rows per sidecar part file (12 B/row for doclens → ~96 MiB parts; each
#: part is one docid-range shard a scorer actor can hold/mmap independently)
_SIDECAR_PART_ROWS = 8 << 20

#: the per-part metadata rows a sidecar's meta.json lists
_PART_SCHEMA = pa.schema(
    [("file", pa.string()), ("n", pa.int64()), ("lo", pa.int64()), ("hi", pa.int64())]
)


def _write_sidecar_parts(
    did: np.ndarray, val: np.ndarray, out_dir: str, part_rows: int
) -> list[dict]:
    """Atomically write docid-sorted ``(did, val)`` as parts of at most
    ``part_rows`` rows, each ``int64 docid[n] ++ val[n]`` (``val`` already
    in its little-endian on-disk dtype).

    A part's name derives from its first docid, so task retries and build
    re-runs overwrite the same file idempotently (ranges are disjoint, so
    names cannot collide across parts)."""
    parts = []
    for s in range(0, len(did), part_rows):
        d, v = did[s : s + part_rows], val[s : s + part_rows]
        name = f"part-{int(d[0]):020d}.bin"
        tmp = os.path.join(out_dir, f"{name}.tmp-{os.getpid()}")
        with open(tmp, "wb") as f:
            f.write(np.ascontiguousarray(d, dtype="<i8").tobytes())
            f.write(np.ascontiguousarray(v).tobytes())
        os.replace(tmp, os.path.join(out_dir, name))
        parts.append({"file": name, "n": int(len(d)), "lo": int(d[0]), "hi": int(d[-1])})
    return parts


def _as_i64(col: pa.Array, column: str) -> np.ndarray:
    """Integer, timestamp or date column → ``<i8`` epoch units."""
    if col.null_count:
        # a null would reach int64 via NaN as an arbitrary value
        raise ValueError(
            f"numeric docvalues column {column!r} has {col.null_count} null(s)"
        )
    t = col.type
    if pa.types.is_date32(t):
        # date32 -> int64 directly is ArrowNotImplemented on this
        # pyarrow; hop through the storage type (days since epoch)
        col = col.cast(pa.int32()).cast(pa.int64())
    elif pa.types.is_timestamp(t) or pa.types.is_date64(t):
        col = col.cast(pa.int64())
    return np.asarray(col.to_numpy(zero_copy_only=False), dtype="<i8")


def build_docid_sidecar(corpus_dir: str, out_dir: str, column: str) -> dict:
    """Write one corpus column as docid-SORTED fixed-width binary parts.

    Scorers need dl for every docid a posting mentions, and filtered
    retrieval needs a doc attribute for every candidate; loading a whole
    map per actor is the single-node memory bound the 1e12-doc target
    can't pay (~16 TB).  A sidecar is the shard layout instead: contiguous
    docid-range parts, each ``int64 docid[n] ++ value[n]``, listed with
    their ranges in ``meta.json``.  BM25Index np.memmap's the parts (the
    ``bm25.DocidColumn`` reader) — actor heap holds only the pages a query
    touches, and a cluster deployment hands each shard task its
    docid-range subset (``DistributedBM25``'s shard-side scoring).

    The value encoding follows the column:

    - ``dl`` → ``<i4`` doc lengths (meta: parts only);
    - a string column → ``<u2`` codes into a GLOBAL sorted dictionary
      held in meta.json, 0xFFFF = null (Lucene DocValues analog; one tiny
      distinct pass builds the dictionary, bounded by the NDV);
    - any other column (integers, timestamps, dates) → ``<i8`` epoch
      units, nulls rejected (Lucene NumericDocValues analog).

    Small corpora sort driver-side; large ones run a Ray sort and write
    every part INSIDE the sort's output tasks: sorted blocks are disjoint
    contiguous docid ranges, so each task persists its range under a
    range-derived name and only the tiny per-part metadata reaches the
    driver.  (An earlier version streamed the whole sorted map through the
    driver via iter_batches: O(batch) memory, but all of the payload --
    ~12 TB of doclens at 1e12 docs -- through one process.)  Both paths
    write the same decoded map.
    """
    import pyarrow.dataset as pads
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    part_rows = _SIDECAR_PART_ROWS  # read here: Ray tasks see the driver's value
    corpus = pads.dataset(corpus_dir)
    typ = corpus.schema.field(column).type
    driver_side = _total_bytes(corpus_dir) < _DRIVER_SIDE_BYTES
    if driver_side:
        t = corpus.to_table(columns=["docid", column])
        col = t.column(column).combine_chunks()

    if column == "dl":
        extra: dict = {}
        encode = lambda c: np.asarray(c.to_numpy(zero_copy_only=False), dtype="<i4")  # noqa: E731
    elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
        if driver_side:
            values = pc.unique(col).to_pylist()
        else:
            # one tiny pass: per-block distinct values, unioned on the driver
            values = [
                r[column]
                for r in rd.read_parquet(
                    corpus_dir,
                    columns=[column],
                    override_num_blocks=_scan_blocks(corpus_dir, per_cpu=1),
                )
                .map_batches(
                    lambda b: pa.table(
                        {column: pc.unique(b.column(column).combine_chunks())}
                    ),
                    batch_format="pyarrow",
                    batch_size=None,
                    zero_copy_batch=True,
                )
                .take_all()
            ]
        dictionary = sorted({v for v in values if v is not None})
        if len(dictionary) >= 0xFFFF:
            raise ValueError(
                f"docvalue column {column!r} has {len(dictionary)} distinct "
                "values — the uint16 dictionary layout is for categorical "
                "attributes"
            )
        extra = {"column": column, "dict": dictionary}
        value_set = pa.array(dictionary, type=typ)
        encode = lambda c: np.asarray(  # noqa: E731
            pc.fill_null(pc.index_in(c, value_set=value_set), 0xFFFF)
            .to_numpy(zero_copy_only=False),
            dtype="<u2",
        )
    else:
        extra = {"column": column, "numeric": True}
        encode = lambda c: _as_i64(c, column)  # noqa: E731

    if driver_side:
        d = t.column("docid").to_numpy(zero_copy_only=False).astype(np.int64)
        v = encode(col)
        order = np.argsort(d)
        parts = _write_sidecar_parts(d[order], v[order], out_dir, part_rows)
    else:

        def write_task(b: pa.Table) -> pa.Table:
            d = b.column("docid").to_numpy(zero_copy_only=False).astype(np.int64)
            v = encode(b.column(column).combine_chunks())
            rows = _write_sidecar_parts(d, v, out_dir, part_rows)
            return pa.Table.from_pylist(rows, schema=_PART_SCHEMA)

        ds = rd.read_parquet(
            corpus_dir,
            columns=["docid", column],
            override_num_blocks=_scan_blocks(corpus_dir, per_cpu=1, floor_files=False),
        ).sort("docid")
        # Each sorted block is a contiguous, disjoint docid range (Ray sort
        # range-partitions); write it where it lands, ship only metadata.
        meta_rows = ds.map_batches(
            write_task, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        parts = sorted(
            ({k: r[k] for k in _PART_SCHEMA.names} for r in meta_rows),
            key=lambda r: r["lo"],
        )
    meta = {**extra, "parts": parts, "n": sum(p["n"] for p in parts)}
    mp = os.path.join(out_dir, "meta.json")
    with open(mp + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(mp + ".tmp", mp)
    return meta


# ---------------------------------------------------------------------------
# epoch 3: postings
# ---------------------------------------------------------------------------


def _wd(tf: np.ndarray, dl: np.ndarray, avgdl: float) -> np.ndarray:
    """BM25 doc-dependent weight, float64 (same expression as scoring/oracle)."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    return tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))


def _wd_upper_f32(wd64: np.ndarray) -> np.ndarray:
    """float32 upper bound of float64 weights (never rounds below true value)."""
    w32 = wd64.astype(np.float32)
    low = w32.astype(np.float64) < wd64
    w32[low] = np.nextafter(w32[low], np.float32(np.inf))
    return w32




#: 63-bit mask + mix constants for the salted-bucket hash (splitmix64 tail)
_MASK63 = np.uint64((1 << 63) - 1)
_SALT_GOLD = np.uint64(0x9E3779B97F4A7C15)
_SALT_MIX = np.uint64(0xFF51AFD7ED558CCD)


def salted_bucket(th: np.ndarray, salt: np.ndarray, num_buckets: int) -> np.ndarray:
    """Layout bucket of a heavy term's ``salt``-th sub-posting.

    Stable mix of (term_hash, salt) — both the build (_Exploder) and the
    query side (BM25Index.lookup) derive the sub-posting buckets from this,
    so no extra routing table is needed.  int64 in, int64 out."""
    x = th.astype(np.uint64) ^ ((np.asarray(salt, np.uint64) + np.uint64(1)) * _SALT_GOLD)
    x ^= x >> np.uint64(33)
    x *= _SALT_MIX
    x ^= x >> np.uint64(33)
    return ((x & _MASK63) % np.uint64(num_buckets)).astype(np.int64)


def salt_of_docid(docid: np.ndarray, num_salts: int) -> np.ndarray:
    """Docid-RANGE salt: the 63-bit docid space split into ``num_salts``
    contiguous ranges.  Range (not hash) salting keeps every sub-posting
    list docid-sorted AND the sub-lists disjoint + ordered by salt, so the
    query-side merge is a plain concat — postings, block_last and
    block_max metadata all concatenate verbatim (the 'merged in a second
    pass' of the north rule collapses to ordered reads)."""
    q = np.uint64(((1 << 63) + num_salts - 1) // num_salts)
    return (docid.astype(np.uint64) // q).astype(np.int32)


class _Exploder:
    """Corpus row → posting rows (term, docid, tf, dl, salt, bucket).

    ``bucket = term_hash % num_buckets`` is the term's FINAL layout bucket,
    so the single exchange both co-locates every posting of a term and lands
    it in the task that writes its bucket file.  (The earlier design ran a
    salted pkey shuffle → per-partition segment encode → a SECOND bucket
    shuffle → merge; the segment stage existed only to compress postings for
    that second exchange.  One exchange needs neither.)

    Heavy-hitter skew mitigation (the north rule's mandated salting): terms
    the stats epoch detected as heavy (df ≳ 1% N — at 1e12 docs the Zipf
    head, e.g. 'the' with ~10^12 postings ≈ 15 TB) are split into
    ``num_salts`` docid-range sub-postings, each routed to its OWN bucket
    via ``salted_bucket``; the per-bucket builder keeps (term, salt) groups
    separate, so the heaviest reduce task holds ~df/num_salts postings of a
    heavy term instead of all of them.  Reference analog: the 512-way radix
    overflow partitioning of skewed aggregations,
    /root/reference/src/execution/sql/aggregation_hash_table.cpp:647-769.
    Runs as a stateless task stage (instantiated once on the driver,
    shipped to tasks as a plain callable).
    """

    def __init__(
        self,
        num_buckets: int,
        heavy_terms=(),
        num_salts: int = 1,
        group_of: "np.ndarray | None" = None,
    ):
        self.num_buckets = num_buckets
        self.num_salts = max(1, int(num_salts))
        self.heavy = frozenset(heavy_terms) if self.num_salts > 1 else frozenset()
        # bucket → LPT-balanced exchange group (see build_postings); identity
        # when the exchange runs one bucket per group
        self.group_of = (
            group_of
            if group_of is not None
            else np.arange(num_buckets, dtype=np.int32)
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        terms_col = batch.column("terms")
        if isinstance(terms_col, pa.ChunkedArray):
            terms_col = terms_col.chunk(0)
        tfs_col = batch.column("tfs")
        if isinstance(tfs_col, pa.ChunkedArray):
            tfs_col = tfs_col.chunk(0)
        counts = np.diff(terms_col.offsets.to_numpy())
        flat = terms_col.flatten()
        flat_tfs = tfs_col.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
        docid = np.repeat(batch.column("docid").to_numpy(zero_copy_only=False), counts)
        dl = np.repeat(batch.column("dl").to_numpy(zero_copy_only=False), counts).astype(np.int32)
        pos_arr = None
        if "poss" in batch.column_names:
            # positional build: split each doc's concatenated position blob
            # into per-(doc, term) slices aligned with the flat terms.
            # Varbyte is self-delimiting, so value boundaries come from one
            # vectorized high-bit scan; group k holds flat_tfs[k] values
            # (the Tokenizer contract), so its byte range is a slice.
            poss = batch.column("poss")
            if isinstance(poss, pa.ChunkedArray):
                poss = poss.chunk(0)
            voff = np.frombuffer(poss.buffers()[1], dtype=np.int32)[
                poss.offset : poss.offset + len(poss) + 1
            ]
            data = np.frombuffer(poss.buffers()[2], dtype=np.uint8)
            lo, hi = int(voff[0]), int(voff[-1])
            db = data[lo:hi]
            if len(flat_tfs):
                val_end = np.flatnonzero((db & 0x80) == 0) + 1  # rel. to lo
                cum = np.cumsum(flat_tfs.astype(np.int64))
                g_end = val_end[cum - 1] if len(val_end) else np.zeros(0, np.int64)
                offs32 = np.concatenate(([0], g_end)).astype(np.int32)
            else:
                offs32 = np.zeros(1, dtype=np.int32)
            pos_arr = pa.BinaryArray.from_buffers(
                pa.binary(),
                len(flat_tfs),
                [None, pa.py_buffer(offs32.tobytes()), pa.py_buffer(db.tobytes())],
            )

        # dictionary-encode (C++) so the Python hash loop touches only the
        # per-batch UNIQUE terms, not every posting
        dic = flat.dictionary_encode()
        inverse = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.asarray(dic.dictionary.to_pylist(), dtype=object)
        uh = term_hash(uniq)
        th = uh[inverse] if len(inverse) else np.empty(0, np.int64)
        bucket = (th % self.num_buckets).astype(np.int64)
        salt = np.zeros(len(th), dtype=np.int32)
        if self.heavy:
            heavy_u = np.fromiter(
                (t in self.heavy for t in uniq), dtype=bool, count=len(uniq)
            )
            hm = heavy_u[inverse] if len(inverse) else np.empty(0, bool)
            if hm.any():
                salt[hm] = salt_of_docid(docid[hm], self.num_salts)
                bucket[hm] = salted_bucket(th[hm], salt[hm], self.num_buckets)
        # ship only the GROUP key; the group builder recomputes each row's
        # bucket from (term, salt) — same hash both sides — so the balanced
        # exchange costs no extra payload over the one-bucket-per-group shape
        cols = {
            "term": flat,
            "docid": pa.array(docid),
            "tf": pa.array(flat_tfs),
            "dl": pa.array(dl),
            "salt": pa.array(salt),
            "gkey": pa.array(self.group_of[bucket.astype(np.int32)]),
        }
        if pos_arr is not None:
            cols["pos"] = pos_arr
        return pa.table(cols)


def _as_dictionary(term_col) -> pa.DictionaryArray:
    """Term column (plain string, or already dictionary-encoded by the
    exchange wire format) → a single DictionaryArray.  combine_chunks
    unifies per-part dictionaries from the hash exchange's concat.

    A dictionary input is COMPACTED to its used codes when the carried
    vocabulary is much larger than what the slice references: build_group
    slices the group per bucket, and each slice inherits the whole
    group's unified dictionary — without compaction every build_bucket
    call would pay O(group vocabulary) for to_pylist + argsort instead of
    O(bucket vocabulary)."""
    if isinstance(term_col, pa.ChunkedArray):
        combined = term_col.combine_chunks()
        if isinstance(combined, pa.ChunkedArray):
            term_col = combined.chunk(0)
        else:
            term_col = combined
    if pa.types.is_dictionary(term_col.type):
        idx = term_col.indices.to_numpy(zero_copy_only=False)
        used = np.unique(idx)
        if len(used) * 2 < len(term_col.dictionary):
            remap = np.empty(len(term_col.dictionary), dtype=np.int32)
            remap[used] = np.arange(len(used), dtype=np.int32)
            term_col = pa.DictionaryArray.from_arrays(
                pa.array(remap[idx]),
                term_col.dictionary.take(pa.array(used)),
            )
        return term_col
    return term_col.dictionary_encode()


def _lpt_pack(mass: np.ndarray, num_groups: int) -> np.ndarray:
    """Longest-processing-time bin packing: bucket → exchange group.

    Greedy LPT over the stats epoch's per-bucket mass estimates keeps every
    reduce group within ~4/3 of the optimal balance, so the exchange has no
    range-glob straggler (Ray's sort-shuffle range partitioning over raw
    bucket ids put several heavy buckets in one reduce task — a measured
    22.6 s max task vs 4.7 s mean at 7.68M docs).  Deterministic given the
    stats, so resumed builds repack identically."""
    import heapq

    heap = [(0.0, g) for g in range(num_groups)]
    heapq.heapify(heap)
    out = np.zeros(len(mass), dtype=np.int32)
    for b in np.argsort(-mass, kind="stable"):
        load, g = heapq.heappop(heap)
        out[b] = g
        heapq.heappush(heap, (load + float(mass[b]), g))
    return out


def _make_bucket_builder(
    postings_dir: str,
    avgdl: float,
    ef_threshold: int | None = None,
    num_buckets: int | None = None,
    heavy_terms=(),
    num_salts: int = 1,
):
    """Per-bucket builder: raw postings of the bucket's terms → final file.

    Entirely vectorized over the bucket: one lexsort by (term, salt, docid),
    one varbyte encode of ALL docid gaps and ALL tf-1 values (varbyte is
    per-value independent, so per-term byte ranges are just slices), block
    metadata from two global reduceat passes.  The per-term Python loop only
    slices precomputed buffers; Elias–Fano re-encodes just the rare long
    lists.  Writes ``bucket-%05d.parquet`` atomically (tmp + rename →
    idempotent under Ray task retry) and returns one metrics row.

    Rows are keyed by (term, salt): a salted heavy term emits one row PER
    docid-range sub-posting (usually in different buckets, occasionally
    colliding into the same one — kept separate either way so the query-side
    salt-ordered concat stays a plain append).  Non-heavy terms always have
    salt 0 and exactly one row.
    """
    from terrier_ray.index.codec import _nbytes_for, ef_encode

    ef_t = EF_THRESHOLD if ef_threshold is None else ef_threshold
    heavy_set = frozenset(heavy_terms)

    def build_bucket(g: pa.Table, bucket: int) -> pa.Table:
        dic = _as_dictionary(g.column("term"))
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.asarray(dic.dictionary.to_pylist(), dtype=object)
        # dense ids in TERM-SORTED order so output rows come out term-sorted
        order_u = np.argsort(uniq, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order_u] = np.arange(len(uniq))
        tid = rank[codes]
        sorted_terms = uniq[order_u]
        docid = g.column("docid").to_numpy(zero_copy_only=False).astype(np.uint64)
        tf = g.column("tf").to_numpy(zero_copy_only=False)
        dl = g.column("dl").to_numpy(zero_copy_only=False)
        salt = (
            g.column("salt").to_numpy(zero_copy_only=False).astype(np.int32)
            if "salt" in g.column_names
            else np.zeros(len(docid), dtype=np.int32)
        )
        # (term, salt, docid) order; group per (term, salt) so a salted
        # heavy term keeps one row per docid-range sub-posting
        o = np.lexsort((docid, salt, tid))
        tid_s, did_s = tid[o], docid[o]
        tf_s, dl_s, salt_s = tf[o], dl[o], salt[o]
        chg = (np.diff(tid_s) != 0) | (np.diff(salt_s) != 0)
        s0 = np.concatenate(([0], np.flatnonzero(chg) + 1))
        ends = np.concatenate((s0[1:], [len(tid_s)]))
        lens = ends - s0
        T = len(s0)  # groups, not unique terms (salted terms span several)
        row_terms = sorted_terms[tid_s[s0]] if T else sorted_terms[:0]
        row_salts = salt_s[s0] if T else salt_s[:0]
        w32 = _wd_upper_f32(_wd(tf_s, dl_s, avgdl))
        cf = np.add.reduceat(tf_s.astype(np.int64), s0)

        # docid gaps within each term, then ONE varbyte encode for the bucket
        gaps = did_s.copy()
        gaps[1:] -= did_s[:-1]
        gaps[s0] = did_s[s0]
        did_enc = memoryview(varbyte_encode(gaps))
        did_off = np.concatenate(([0], np.cumsum(_nbytes_for(gaps))))
        tfm1 = tf_s.astype(np.uint64) - np.uint64(1)
        tf_enc = memoryview(varbyte_encode(tfm1))
        tf_off = np.concatenate(([0], np.cumsum(_nbytes_for(tfm1))))

        # block metadata: global block starts, two reduceat-shaped passes
        nblocks = (lens + BLOCK_SIZE - 1) // BLOCK_SIZE
        bstart_of = np.cumsum(nblocks) - nblocks
        rep = np.repeat(np.arange(T), nblocks)
        within = np.arange(int(nblocks.sum())) - np.repeat(bstart_of, nblocks)
        bs = s0[rep] + within * BLOCK_SIZE
        blast = did_s[np.minimum(bs + BLOCK_SIZE - 1, ends[rep] - 1)]
        bmax = np.maximum.reduceat(w32, bs)
        bl_bytes = blast.astype("<u8").tobytes()
        bm_bytes = bmax.astype("<f4").tobytes()

        # positional sidecar: per (term, salt) row, the group's position
        # blobs concatenated in docid order + per-block BYTE offsets (so a
        # point position fetch decodes one 128-posting block, not the list)
        pos_voff = pos_data = bo = None
        if "pos" in g.column_names:
            posc = g.column("pos")
            if isinstance(posc, pa.ChunkedArray):
                posc = posc.chunk(0)
            taken = posc.take(pa.array(o))
            pos_voff = np.frombuffer(taken.buffers()[1], dtype=np.int32)[
                taken.offset : taken.offset + len(o) + 1
            ].astype(np.int64)
            pos_data = np.frombuffer(taken.buffers()[2], dtype=np.uint8)
            bo = (pos_voff[bs] - pos_voff[s0[rep]]).astype("<u4").tobytes()

        rows_post: list = [b""] * T
        rows_bl: list = [b""] * T
        rows_bm: list = [b""] * T
        for k in range(T):
            n_k = int(lens[k])
            tfb = bytes(tf_enc[tf_off[s0[k]] : tf_off[ends[k]]])
            if n_k >= ef_t:
                db = ef_encode(did_s[s0[k] : ends[k]])
                fmt = b"\x01"
            else:
                db = bytes(did_enc[did_off[s0[k]] : did_off[ends[k]]])
                fmt = _VBYTE_FMT
            rows_post[k] = (
                fmt
                + n_k.to_bytes(4, "little")
                + len(db).to_bytes(4, "little")
                + db
                + tfb
            )
            b0, b1 = int(bstart_of[k]), int(bstart_of[k] + nblocks[k])
            rows_bl[k] = bl_bytes[8 * b0 : 8 * b1]
            rows_bm[k] = bm_bytes[4 * b0 : 4 * b1]

        out = pa.table(
            {
                "term": pa.array(list(row_terms), type=pa.string()),
                "salt": pa.array(row_salts, type=pa.int32()),
                "df": pa.array(lens.astype(np.int64)),
                "cf": pa.array(cf),
                "postings": pa.array(rows_post, type=pa.binary()),
                "block_last": pa.array(rows_bl, type=pa.binary()),
                "block_max_wd": pa.array(rows_bm, type=pa.binary()),
            }
        )
        os.makedirs(postings_dir, exist_ok=True)
        final = os.path.join(postings_dir, f"bucket-{bucket:05d}.parquet")
        tmp = final + f".tmp-{os.getpid()}"
        # small row groups + term-sorted rows → row-group statistics let a
        # per-term lookup (pq.read_table filters) decode ~64 rows instead of
        # the whole bucket; single-row-group buckets made every query decode
        # megabytes and throttled the warm query pool under concurrency
        pq.write_table(out, tmp, row_group_size=64)
        os.replace(tmp, final)
        positions_bytes = 0
        if pos_voff is not None:
            # positions live in a PARALLEL file so BM25 scoring lookups
            # never pay their bytes; rows mirror the posting rows 1:1
            rows_pos = [
                pos_data[pos_voff[s0[k]] : pos_voff[ends[k]]].tobytes()
                for k in range(T)
            ]
            rows_bo = [
                bo[4 * int(bstart_of[k]) : 4 * int(bstart_of[k] + nblocks[k])]
                for k in range(T)
            ]
            positions_bytes = int(pos_voff[-1] - pos_voff[0]) if len(o) else 0
            pos_tab = pa.table(
                {
                    "term": pa.array(list(row_terms), type=pa.string()),
                    "salt": pa.array(row_salts, type=pa.int32()),
                    "positions": pa.array(rows_pos, type=pa.binary()),
                    "block_off": pa.array(rows_bo, type=pa.binary()),
                }
            )
            pfinal = os.path.join(postings_dir, f"posbucket-{bucket:05d}.parquet")
            ptmp = pfinal + f".tmp-{os.getpid()}"
            pq.write_table(pos_tab, ptmp, row_group_size=64)
            os.replace(ptmp, pfinal)
        n_distinct = int(len(np.unique(tid_s[s0]))) if T else 0
        return pa.table(
            {
                "bucket": pa.array([bucket], type=pa.int32()),
                "n_terms": pa.array([n_distinct], type=pa.int64()),
                "n_rows": pa.array([T], type=pa.int64()),
                "n_postings": pa.array([len(tid_s)], type=pa.int64()),
                "max_group_postings": pa.array(
                    [int(lens.max()) if T else 0], type=pa.int64()
                ),
                "positions_bytes": pa.array([positions_bytes], type=pa.int64()),
                "file": pa.array([final], type=pa.string()),
            }
        )

    def build_group(group: pa.Table) -> pa.Table:
        """One LPT exchange group → its buckets' final files.

        Recomputes each row's layout bucket from (term, salt) with the same
        hashes the exploder used, sorts the group once by bucket, and runs
        the vectorized per-bucket encoder on each contiguous slice.  The
        compact wire format drops the ``salt`` column, so it is recomputed
        here too: salt is a pure function of (term ∈ heavy_terms, docid,
        num_salts) — identical to _Exploder's assignment, so a row lands in
        the bucket the exploder routed it to."""
        g = group.combine_chunks()
        if "bucket" in g.column_names:  # direct per-bucket input (tests)
            row_bucket = g.column("bucket").to_numpy(zero_copy_only=False).astype(np.int32)
            g = g.drop_columns(["bucket"])
        else:
            dic = _as_dictionary(g.column("term"))
            codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniq = np.asarray(dic.dictionary.to_pylist(), dtype=object)
            uh = term_hash(uniq)
            row_bucket = ((uh % num_buckets)[codes]).astype(np.int32)
            if heavy_set:
                # a heavy term's rows route via salted_bucket for EVERY
                # salt, including salt 0 — membership decides the route
                heavy_u = np.fromiter(
                    (t in heavy_set for t in uniq), dtype=bool, count=len(uniq)
                )
                hm = heavy_u[codes]
                salt = np.zeros(g.num_rows, dtype=np.int32)
                if hm.any():
                    did = g.column("docid").to_numpy(zero_copy_only=False)
                    salt[hm] = salt_of_docid(did[hm], num_salts)
                g = g.append_column("salt", pa.array(salt))
                if hm.any():
                    row_bucket[hm] = salted_bucket(
                        uh[codes[hm]], salt[hm], num_buckets
                    ).astype(np.int32)
        if g.num_rows == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int32()),
                    "n_terms": pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                    "n_postings": pa.array([], pa.int64()),
                    "max_group_postings": pa.array([], pa.int64()),
                    "positions_bytes": pa.array([], pa.int64()),
                    "file": pa.array([], pa.string()),
                }
            )
        order = np.argsort(row_bucket, kind="stable")
        gs = g.take(pa.array(order))
        rb = row_bucket[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(rb)) + 1))
        ends = np.concatenate((starts[1:], [len(rb)]))
        return pa.concat_tables(
            build_bucket(gs.slice(int(s), int(e - s)).combine_chunks(), int(rb[s]))
            for s, e in zip(starts, ends)
        )

    return build_group


def decode_final_postings(buf: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Decode a final posting row's ``postings`` binary → (docids, tfs).
    Delegates to the codec container (varbyte or Elias–Fano, tagged)."""
    return decode_posting_list(buf)


def build_postings(
    corpus_dir: str,
    postings_dir: str,
    stats: dict,
    *,
    ef_threshold: int | None = None,
):
    """Tokenized corpus → final per-bucket posting files in ONE exchange.

    explode (map) → hash exchange on the LPT group key → per-bucket final
    encode+write.  The term's full posting list is co-located by the one
    exchange, already in its final layout bucket, so there is no
    intermediate segment encode/decode and no second sort barrier.
    Per-bucket memory is bounded by total_postings / num_buckets —
    num_buckets scales with data — and the Zipf head is bounded by
    heavy-term docid-range salting (the stats epoch's detected heavy terms
    each split into num_salts sub-postings routed to distinct buckets; see
    _Exploder).

    The exchange is a two-stage raw-task hash shuffle
    (``_hash_exchange_postings``): M explode tasks each return num_groups
    pre-partitioned slices (``num_returns``), and one encode task per group
    gathers its parts from every map task.  The Dataset API cannot express
    a hash-partitioned co-location without imposing a global order — its
    ``groupby`` exchange is sort-based, and the Sort operator carries a
    measured cpu-count-INDEPENDENT serial floor (boundary sampling + phase
    barriers: ~37 s at 7.68M docs vs ~12 s for the hash exchange, quiet-host
    fits), which is exactly the term the N-vs-4N scaling criterion cannot
    amortize.  Partitioning assumptions: every posting of a (term, salt)
    maps to one group via ``group_of[bucket(term, salt)]`` on both sides;
    map outputs live in the object store until their group's encode
    consumes them (spills on pressure, exactly like the built-in shuffle's
    blocks); a multi-node deployment moves the same parts through plasma
    transfers.
    """
    num_buckets = stats["num_buckets"]
    # LPT-balanced exchange groups: FIXED count (a function of the data
    # layout, not the cluster size) so scaling legs run the identical job;
    # 64 groups keep every reduce task within the balance bound while the
    # per-group task count stays small (1024 raw buckets as groups would
    # mean 1024 encode tasks each fetching M tiny slices)
    num_groups = min(num_buckets, 64)
    mass = np.asarray(stats.get("bucket_mass", ()), dtype=np.float64)
    if len(mass) != num_buckets:
        mass = np.ones(num_buckets, dtype=np.float64)
    group_of = _lpt_pack(mass, num_groups)
    explode = _Exploder(
        num_buckets,
        heavy_terms=stats.get("heavy_terms", ()),
        num_salts=stats.get("num_salts", 1),
        group_of=group_of,
    )
    builder = _make_bucket_builder(
        postings_dir,
        stats["avgdl"],
        ef_threshold,
        num_buckets=num_buckets,
        # mirror _Exploder's gate: salted routing only when salting is on
        heavy_terms=(
            stats.get("heavy_terms", ()) if stats.get("num_salts", 1) > 1 else ()
        ),
        num_salts=stats.get("num_salts", 1),
    )
    metrics_df = _hash_exchange_postings(corpus_dir, explode, builder, num_groups)
    stats["salted_terms"] = fold_salted_postings(postings_dir, stats)
    return metrics_df


#: target UNCOMPRESSED corpus bytes per explode task in the hash exchange —
#: bounds per-task heap (a task's exploded rows are held until return)
#: independent of cluster size AND of the corpus file layout (work splits at
#: parquet row-group granularity, so few-but-huge files can't void the bound)
_EXPLODE_CHUNK_BYTES = 384 << 20


def _hash_exchange_postings(corpus_dir, explode, builder, num_groups):
    """Two-stage raw-task hash shuffle for the postings exchange.

    Stage 1: M explode tasks (M = max(cpus, uncompressed_bytes / chunk
    target); work assigned at ROW-GROUP granularity via LPT so task heap is
    bounded at any scale and any file layout) read their row groups, explode
    to posting rows, and return ``num_groups`` pre-partitioned slices via
    ``num_returns`` — each slice is its own object, so stage 2 fetches
    exactly its group's bytes.  Stage 2: one encode task per LPT-balanced
    group concatenates its M parts and runs the vectorized per-bucket
    encoder.  See build_postings for why this replaces the Dataset sort
    exchange.
    """
    import ray

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    if not files:
        return _empty_metrics_df()
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    # row-group work units (footer metadata only — no data reads)
    units: list[tuple[str, int]] = []
    sizes: list[int] = []
    for f in files:
        md = pq.read_metadata(f)
        for i in range(md.num_row_groups):
            units.append((f, i))
            sizes.append(md.row_group(i).total_byte_size)
    if not units:
        return _empty_metrics_df()
    total = sum(sizes)
    m = min(len(units), max(cpus, -(-total // _EXPLODE_CHUNK_BYTES)))
    task_of = _lpt_pack(np.asarray(sizes, dtype=np.float64), m)
    chunks: list[list[tuple[str, int]]] = [[] for _ in range(m)]
    for u, t in zip(units, task_of):
        chunks[int(t)].append(u)
    chunks = [c for c in chunks if c]

    explode_task = ray.remote(num_returns=num_groups)(_explode_part)
    encode_task = ray.remote(_encode_group)
    refs = [explode_task.remote(c, explode, num_groups) for c in chunks]
    if num_groups == 1:  # num_returns=1 yields a bare ref, not a list
        refs = [[r] for r in refs]
    enc = [
        encode_task.remote(builder, *[r[g] for r in refs])
        for g in range(num_groups)
    ]
    metrics = [m_ for m_ in ray.get(enc) if m_ is not None]
    if not metrics:
        return _empty_metrics_df()
    return pa.concat_tables(metrics).to_pandas()


def _width_for(mx: int) -> int:
    """Narrowest little-endian unsigned width (bytes) holding ``mx``."""
    if mx < 1 << 8:
        return 1
    if mx < 1 << 16:
        return 2
    return 4


def _pack_exchange(tab: pa.Table) -> pa.Table:
    """Compact wire format v2 for one map→reduce slice of the hash exchange.

    The exploded posting row is the exchange's whole byte bill (at 7.68M
    docs ~9.7 GB raw transits the object store), so each slice ships as a
    ONE-ROW all-binary table (``pa.Table.nbytes`` == what Ray's zero-copy
    Arrow serialization puts in the object store):

      - rows are SORTED BY DOCID (row order within a group is irrelevant —
        the bucket builder lexsorts by (term, salt, docid)), which makes
        ``docid`` delta+varbyte codable: a repeated docid is a 1-byte zero
        gap, a new docid costs ~⌈bits(2^63 / distinct_docids)/7⌉ bytes —
        ~4-5 B/posting on webtext vs 8 raw (round-4 shipped raw int64;
        63-bit url-hash docids only yield to the gap structure, not to
        rebasing);
      - ``dl`` is stored ONCE PER UNIQUE DOCID (it is a per-doc attribute
        repeated on every posting row) at adaptive u8/u16/u32 width;
      - ``term`` ships as length-prefixed unique strings (tdl varbyte
        lengths + tdb bytes) plus per-posting indices at adaptive
        u16/u32 width;
      - ``tf`` per posting at adaptive u8/u16/u32 width;
      - ``salt`` is DROPPED entirely: it is a pure function of
        (term ∈ heavy_terms, docid, num_salts) and the reduce side
        recomputes it in ``build_group`` (which already recomputes the
        layout bucket from the same inputs);
      - the routing-only ``gkey`` is dropped (the slice IS its group).

    Measured ~35 → ~9 B/posting on webtext (tools/exchange_bytes.py); the
    (term, docid, tf, dl) row multiset round-trips exactly (tested), so the
    bucket builder sees the rows the exploder produced."""
    tab = tab.combine_chunks()
    n = tab.num_rows
    docid = tab.column("docid").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(docid, kind="stable")
    docid = docid[order]
    from terrier_ray.index.codec import delta_encode

    gaps = delta_encode(docid.astype(np.uint64))
    did_blob = varbyte_encode(gaps)
    new_doc = np.empty(n, dtype=bool)
    if n:
        new_doc[0] = True
        new_doc[1:] = gaps[1:] != 0

    term = tab.column("term")
    if isinstance(term, pa.ChunkedArray):
        term = term.combine_chunks()
        if isinstance(term, pa.ChunkedArray):
            term = term.chunk(0) if term.num_chunks else pa.array([], pa.string())
    if not pa.types.is_dictionary(term.type):
        term = term.dictionary_encode()
    codes = term.indices.to_numpy(zero_copy_only=False).astype(np.int64)[order]
    used = np.unique(codes) if n else np.empty(0, np.int64)
    remap = np.zeros(max(1, len(term.dictionary)), dtype=np.int64)
    remap[used] = np.arange(len(used))
    codes = remap[codes]
    uniq_terms = [
        t.encode("utf-8")
        for t in term.dictionary.take(pa.array(used)).to_pylist()
    ]
    tdl = varbyte_encode(np.asarray([len(t) for t in uniq_terms], np.uint64))
    tdb = b"".join(uniq_terms)
    tw = _width_for(max(1, len(used)) - 1) if n else 1
    tw = 2 if tw == 1 else tw  # u16 floor: u8 dictionaries are rare + tiny

    tf = tab.column("tf").to_numpy(zero_copy_only=False)[order]
    tfw = _width_for(int(tf.max())) if n else 1
    dl_u = tab.column("dl").to_numpy(zero_copy_only=False)[order][new_doc]
    dlw = _width_for(int(dl_u.max())) if len(dl_u) else 1

    def blob(v: np.ndarray, w: int) -> bytes:
        return np.ascontiguousarray(v, dtype=f"<u{w}").tobytes()

    cols = {
        "n": pa.array([n], pa.int64()),
        "tdl": pa.array([tdl], pa.binary()),
        "tdb": pa.array([tdb], pa.binary()),
        "tw": pa.array([tw], pa.uint8()),
        "tix": pa.array([blob(codes, tw)], pa.binary()),
        "did": pa.array([did_blob], pa.binary()),
        "tfw": pa.array([tfw], pa.uint8()),
        "tfb": pa.array([blob(tf, tfw)], pa.binary()),
        "dlw": pa.array([dlw], pa.uint8()),
        "dlb": pa.array([blob(dl_u, dlw)], pa.binary()),
    }
    if "pos" in tab.column_names:
        # positional build: per-posting position blobs ride along as one
        # concatenated byte stream + a varbyte length stream (already
        # delta+varbyte inside, so no further narrowing applies)
        posl = posb = b""
        if n:
            posc = tab.column("pos")
            if isinstance(posc, pa.ChunkedArray):
                posc = posc.combine_chunks()
                if isinstance(posc, pa.ChunkedArray):
                    posc = posc.chunk(0)
            taken = posc.take(pa.array(order))
            voff = np.frombuffer(taken.buffers()[1], dtype=np.int32)[
                taken.offset : taken.offset + n + 1
            ]
            data = np.frombuffer(taken.buffers()[2], dtype=np.uint8)
            posl = varbyte_encode(np.diff(voff).astype(np.uint64))
            posb = data[int(voff[0]) : int(voff[-1])].tobytes()
        cols["posl"] = pa.array([posl], pa.binary())
        cols["posb"] = pa.array([posb], pa.binary())
    return pa.table(cols)


def _unpack_exchange(tab: pa.Table) -> pa.Table:
    """Wire slice v2 → builder input (term dictionary-encoded — the bucket
    builder consumes dictionaries directly via ``_as_dictionary``; docid
    delta-decoded; dl re-expanded from per-unique-doc to per-posting; NO
    salt column — ``build_group`` recomputes it from (term, docid)).
    tf/dl widen to int32 so parts with different adaptive widths concat."""
    from terrier_ray.index.codec import varbyte_decode

    tab = tab.combine_chunks()

    def buf(name: str):
        col = tab.column(name)
        arr = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
        return arr[0].as_buffer()

    def scalar(name: str) -> int:
        col = tab.column(name)
        return int(col[0].as_py())

    n = scalar("n")
    if n == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()).dictionary_encode(),
                "docid": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int32()),
                "dl": pa.array([], pa.int32()),
            }
        )
    gaps = varbyte_decode(buf("did"))
    docid = np.cumsum(gaps, dtype=np.uint64).astype(np.int64)
    new_doc = np.empty(n, dtype=bool)
    new_doc[0] = True
    new_doc[1:] = gaps[1:] != 0
    doc_ord = np.cumsum(new_doc) - 1

    lens = varbyte_decode(buf("tdl")).astype(np.int64)
    off32 = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
    dict_arr = pa.StringArray.from_buffers(
        len(lens), pa.py_buffer(off32.tobytes()), pa.py_buffer(bytes(buf("tdb")))
    )
    tix = np.frombuffer(buf("tix"), dtype=f"<u{scalar('tw')}").astype(np.int32)
    term = pa.DictionaryArray.from_arrays(pa.array(tix), dict_arr)
    tf = np.frombuffer(buf("tfb"), dtype=f"<u{scalar('tfw')}").astype(np.int32)
    dl_u = np.frombuffer(buf("dlb"), dtype=f"<u{scalar('dlw')}").astype(np.int32)
    out = {
        "term": term,
        "docid": pa.array(docid),
        "tf": pa.array(tf),
        "dl": pa.array(dl_u[doc_ord]),
    }
    if "posb" in tab.column_names:
        plens = varbyte_decode(buf("posl")).astype(np.int64)
        offs32 = np.concatenate(([0], np.cumsum(plens))).astype(np.int32)
        out["pos"] = pa.BinaryArray.from_buffers(
            pa.binary(),
            n,
            [None, pa.py_buffer(offs32.tobytes()), pa.py_buffer(bytes(buf("posb")))],
        )
    return pa.table(out)


def _explode_part(units, exploder, num_groups):
    """Hash-exchange stage 1: row groups → num_groups partitioned slices.

    Each 1024-row slice is exploded, sorted by group key and split into
    per-group pieces immediately, so the task never holds an unsorted AND a
    sorted copy of its whole exploded output — peak heap is the exploded
    rows (which must exist to be returned) plus one slice.  Row order within
    a group is irrelevant: the bucket builder lexsorts by (term, salt,
    docid), so output files are byte-identical regardless of assignment.
    Each group's concat is packed to the compact wire format
    (``_pack_exchange``) before return — the pack halves what the object
    store holds and what a multi-node cluster would move over the network.
    """
    per_group: list[list] = [[] for _ in range(num_groups)]
    by_file: dict[str, list[int]] = {}
    for f, rg in units:
        by_file.setdefault(f, []).append(rg)
    for f, rgs in sorted(by_file.items()):
        pf = pq.ParquetFile(f)
        cols = ["docid", "dl", "terms", "tfs"]
        if "poss" in pf.schema_arrow.names:  # positional corpus
            cols.append("poss")
        for rg in sorted(rgs):
            tab = pf.read_row_group(rg, columns=cols)
            for s in range(0, tab.num_rows, 1024):
                out = exploder(tab.slice(s, 1024))
                gk = out.column("gkey").to_numpy(zero_copy_only=False)
                order = np.argsort(gk, kind="stable")
                srt = out.take(pa.array(order))
                gks = gk[order]
                starts = np.searchsorted(gks, np.arange(num_groups))
                ends = np.concatenate((starts[1:], [len(gks)]))
                for g in range(num_groups):
                    if ends[g] > starts[g]:
                        per_group[g].append(
                            srt.slice(int(starts[g]), int(ends[g] - starts[g]))
                        )
    return tuple(
        _pack_exchange(pa.concat_tables(p)) if p else None for p in per_group
    )


def _encode_group(builder, *parts):
    """Hash-exchange stage 2: gather one group's parts, encode its buckets.
    Parts arrive in the compact wire format; widen each and concat (the
    dictionary term columns unify in combine_chunks)."""
    live = [
        _unpack_exchange(p) for p in parts if p is not None and p.num_rows
    ]
    if not live:
        return None
    return builder(pa.concat_tables(live).combine_chunks())


# ---------------------------------------------------------------------------
# epoch 3, second pass: fold salted heavy-term sub-postings into one row
# ---------------------------------------------------------------------------

#: a heavy term folds only when its full posting list fits one parquet cell
#: with headroom (merged blob is ~2-3 B/posting; 64M postings ≈ 200 MB).
#: Terms above the bound KEEP the salted multi-bucket layout and are listed
#: in stats['salted_terms'] for the query side's multi-probe fallback —
#: at 1e12 docs the Zipf head ('the', df ~ N) can never be one cell.
_FOLD_MAX_POSTINGS = 64 << 20


def _extract_heavy_rows(path: str, terms: "list[str]") -> pa.Table:
    """Fold stage A (one task per affected bucket file): READ-ONLY pruned
    fetch of the listed terms' sub-posting rows (term-sorted rows + 64-row
    row groups make the predicate pushdown touch only matching row groups).
    Blobs move task→task through the object store, never the driver."""
    return pq.read_table(path, filters=[("term", "in", terms)])


def _fold_rewrite(
    path: str, drop_terms: "list[str]", merge_terms: "list[str]", *parts
) -> int:
    """Fold stage B (ONE rewrite per affected bucket file): drop the salted
    sub-posting rows of ``drop_terms``, and for ``merge_terms`` (terms whose
    PRIMARY bucket is this file) append one merged row each — fmt-2 byte
    concat of the extracted parts in salt order (disjoint ascending docid
    ranges, so postings, block_last and block_max_wd concatenate verbatim;
    df/cf sum).  Depends on every stage-A ref, which is the read-before-
    write barrier."""
    from terrier_ray.index.codec import encode_multipart

    merged = None
    if merge_terms:
        live = [p for p in parts if p is not None and p.num_rows]
        rows = pa.concat_tables(live).combine_chunks() if live else None
        want = pc.is_in(
            rows.column("term"), value_set=pa.array(merge_terms, pa.string())
        )
        rows = rows.filter(want)
        d = rows.to_pydict()
        per_term: dict[str, list[tuple]] = {}
        for t, s, df, cf, po, bl, bm in zip(
            d["term"], d["salt"], d["df"], d["cf"],
            d["postings"], d["block_last"], d["block_max_wd"],
        ):
            per_term.setdefault(t, []).append((s, df, cf, po, bl, bm))
        out_rows = {"term": [], "salt": [], "df": [], "cf": [],
                    "postings": [], "block_last": [], "block_max_wd": []}
        for t in sorted(per_term):
            ps = sorted(per_term[t])  # salt order == ascending docid ranges
            out_rows["term"].append(t)
            out_rows["salt"].append(0)
            out_rows["df"].append(sum(p[1] for p in ps))
            out_rows["cf"].append(sum(p[2] for p in ps))
            out_rows["postings"].append(
                ps[0][3] if len(ps) == 1 else encode_multipart([p[3] for p in ps])
            )
            out_rows["block_last"].append(b"".join(p[4] for p in ps))
            out_rows["block_max_wd"].append(b"".join(p[5] for p in ps))
        merged = pa.table(
            {
                "term": pa.array(out_rows["term"], pa.string()),
                "salt": pa.array(out_rows["salt"], pa.int32()),
                "df": pa.array(out_rows["df"], pa.int64()),
                "cf": pa.array(out_rows["cf"], pa.int64()),
                "postings": pa.array(out_rows["postings"], pa.binary()),
                "block_last": pa.array(out_rows["block_last"], pa.binary()),
                "block_max_wd": pa.array(out_rows["block_max_wd"], pa.binary()),
            }
        )
    if os.path.exists(path):
        base = pq.read_table(path)
        if drop_terms:
            keep = pc.invert(
                pc.is_in(
                    base.column("term"),
                    value_set=pa.array(drop_terms, pa.string()),
                )
            )
            base = base.filter(keep)
    else:
        base = merged.slice(0, 0)
    out = base if merged is None else pa.concat_tables([base, merged])
    out = out.sort_by([("term", "ascending")])
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(out, tmp, row_group_size=64)
    os.replace(tmp, path)
    return 0 if merged is None else merged.num_rows


def fold_salted_postings(postings_dir: str, stats: dict) -> "list[str]":
    """The north rule's 'merged in a second small pass': after the exchange,
    each heavy term's ``num_salts`` docid-range sub-posting rows are folded
    into ONE fmt-2 multi-part row in the term's PRIMARY bucket
    (``term_hash % num_buckets``), so salting becomes purely an
    exchange-time skew mechanism and a query lookup probes exactly one
    bucket per term (round-3 lookups probed ``num_salts`` buckets — a
    measured 60-125%% query-latency tax at sandbox scale).

    Entirely byte-level: parts stay encoded (no decode/re-encode), blobs
    move task→task through the object store, and the touched files are
    bounded by heavy_terms × num_salts.  Terms whose total df exceeds
    ``_FOLD_MAX_POSTINGS`` (one parquet cell can't hold the merged blob at
    1e12-doc scale) keep the salted layout; the returned list of such
    still-salted terms goes to stats['salted_terms'] for the query side's
    multi-bucket probe fallback.  Idempotence: the pass runs inside the
    postings epoch, whose manifest only commits after it completes — a
    killed run rebuilds the epoch from the corpus.

    Positional sidecars (``posbucket-*.parquet``) are deliberately NOT
    folded: they stay one row per (term, salt) in the salted buckets, and
    ``BM25Index.positions_for`` re-derives each salt's docid range from
    ``salt_of_docid``'s arithmetic — position fetches are a per-candidate
    phrase-path operation, so the multi-probe cost the fold removes from
    every BM25 lookup never applies to them."""
    heavy = list(stats.get("heavy_terms", ()))
    num_salts = int(stats.get("num_salts", 1))
    # exact distinct-term bookkeeping for index_corpus_stats: bucket_metrics
    # records n_terms PRE-fold (a heavy term counts once per bucket its
    # salted sub-postings landed in); the fold collapses each folded term
    # into one bucket, so the pre-fold sum overcounts by (presence - 1) per
    # folded term.  Recorded here — the only place that knows the pre-fold
    # presence — and persisted via stats.json.
    stats["fold_dup_terms"] = 0
    if not heavy or num_salts <= 1:
        return []
    import ray

    num_buckets = stats["num_buckets"]
    th = term_hash(np.asarray(heavy, dtype=object))
    primary = {t: int(h % num_buckets) for t, h in zip(heavy, th)}
    file_terms: dict[int, set] = {}
    salts = np.arange(num_salts, dtype=np.int64)
    for t, h in zip(heavy, th):
        for b in salted_bucket(np.full(num_salts, h, np.int64), salts, num_buckets):
            file_terms.setdefault(int(b), set()).add(t)

    def bpath(b: int) -> str:
        return os.path.join(postings_dir, f"bucket-{b:05d}.parquet")

    # pre-pass: per-term total df from the (term, df) columns only (no blob
    # reads) decides the fold set BEFORE any file is touched
    sizes: dict[str, int] = {t: 0 for t in heavy}
    presence: dict[str, set] = {t: set() for t in heavy}
    for b, ts in file_terms.items():
        p = bpath(b)
        if not os.path.exists(p):
            continue
        t_df = pq.read_table(
            p, columns=["term", "df"], filters=[("term", "in", sorted(ts))]
        )
        for t, df in zip(t_df.column("term").to_pylist(), t_df.column("df").to_pylist()):
            sizes[t] += df
            presence[t].add(b)
    fold = {t for t in heavy if sizes[t] <= _FOLD_MAX_POSTINGS}
    stats["fold_dup_terms"] = sum(max(0, len(presence[t]) - 1) for t in fold)
    unfolded = sorted(set(heavy) - fold)
    if not fold:
        return unfolded

    extract = ray.remote(_extract_heavy_rows)
    a_refs = []
    drop_of: dict[int, list[str]] = {}
    for b, ts in sorted(file_terms.items()):
        ts_f = sorted(t for t in ts if t in fold)
        if ts_f and os.path.exists(bpath(b)):
            a_refs.append(extract.remote(bpath(b), ts_f))
            drop_of[b] = ts_f
    by_primary: dict[int, list[str]] = {}
    for t in sorted(fold):
        by_primary.setdefault(primary[t], []).append(t)
    fold_task = ray.remote(_fold_rewrite)
    # ONE rewrite per affected file (drop + merge together); every B task
    # takes every A ref — the refs ARE the read-before-write barrier
    ray.get(
        [
            fold_task.remote(
                bpath(b), drop_of.get(b, []), by_primary.get(b, []), *a_refs
            )
            for b in sorted(set(drop_of) | set(by_primary))
        ]
    )
    return unfolded


def _empty_metrics_df():
    import pandas as pd

    return pd.DataFrame(
        {
            "bucket": pd.Series([], dtype="int32"),
            "n_terms": pd.Series([], dtype="int64"),
            "n_rows": pd.Series([], dtype="int64"),
            "n_postings": pd.Series([], dtype="int64"),
            "max_group_postings": pd.Series([], dtype="int64"),
            "positions_bytes": pd.Series([], dtype="int64"),
            "file": pd.Series([], dtype="object"),
        }
    )


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------


def auto_tune(n_docs: int, avg_uniq_terms: float) -> "tuple[int, int]":
    """(num_buckets, num_salts) from corpus size — no hand-tuned knobs at
    1e12 docs (VERDICT r4 #8; both were env/default knobs before).

    num_buckets balances two bounds on est_postings = n_docs × avg unique
    terms/doc: a sqrt growth law (per-bucket postings grow with the corpus,
    so file count stays manageable — 2.6e8 half-megarow buckets at 1e12
    docs would be a filesystem problem, not a memory one) and a hard
    per-bucket cap of 64M postings (one bucket file stays a few hundred
    MB; also _FOLD_MAX_POSTINGS's cell bound).  Rounded to a power of two,
    floored at today's 16 — so every current test/bench corpus reproduces
    its existing choice exactly.  num_salts grows logarithmically (a heavy
    term's sub-postings stream per-block at query time, so salting only
    needs to bound the EXCHANGE's largest reduce unit): log2(n)/4, floored
    at today's default 4, capped 64.  Monotone in n_docs by construction
    (unit-tested)."""
    import math

    est = max(1.0, float(n_docs) * max(1.0, avg_uniq_terms))
    b = max(est / float(64 << 20), math.sqrt(est / 30_000.0))
    num_buckets = max(16, 1 << round(math.log2(max(1.0, b))))
    num_salts = min(64, max(4, round(math.log2(max(2.0, float(n_docs))) / 4)))
    return num_buckets, num_salts


def _sampled_avg_uniq_terms(corpus_dir: str) -> float:
    """Mean unique-terms-per-doc from the first corpus file (bounded read)."""
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    if not files:
        return 0.0
    t = pq.read_table(files[0], columns=["terms"])
    if t.num_rows == 0:
        return 0.0
    col = t.column("terms").combine_chunks()
    return float(pc.mean(pc.list_value_length(col)).as_py() or 0.0)


def build_index(
    webtext_path: str,
    out_dir: str,
    *,
    num_buckets: "int | None" = None,
    num_salts: "int | None" = None,
    heavy_min_df: int | None = None,
    batch_size: int = 512,
    ef_threshold: int | None = None,
    force: bool = False,
    positions: bool = False,
    field: str = "body",
    docvalues: bool = False,
) -> dict:
    """Build (or resume building) a BM25 index at ``out_dir``.

    ``field="title"`` indexes the TITLE field (extract_title_reference)
    instead of the body — docids stay url-hash, so per-field indexes align
    for BM25F combination (pipelines/fulltext.bm25f_topk).

    Returns the stats dict (n_docs, avgdl, …) plus per-epoch wall times.

    ``positions=True`` builds a POSITIONAL index: the corpus keeps each
    doc's per-term token positions (delta+varbyte blobs), the exchange
    carries them alongside the postings, and each bucket gains a parallel
    ``posbucket-*.parquet`` sidecar (one row per (term, salt): the
    positions blob in docid order + per-block byte offsets) that BM25
    scoring never reads — only the phrase path does
    (``BM25Index.positions_for``).  Size overhead is logged in
    stats['positions_bytes'].

    ``docvalues=True`` additionally writes the epoch-2c attribute sidecars
    (docid-sorted lang codes + dictionary, and warc_ts values) powering
    ``BM25Index.search_filtered`` — opt-in and ADDITIVE: each has its own
    fingerprinted epoch, so enabling them on an already-built index adds
    just the sidecars."""
    corpus_dir = os.path.join(out_dir, "corpus")
    postings_dir = os.path.join(out_dir, "postings")
    stats_path = os.path.join(out_dir, "stats.json")
    # v3: chash column (raw-token-stream content hash) replaces the
    # batch-order-dependent terms-list hash as the dedup tie-break
    # v4: lang docvalue column carried through Tokenizer for the filtered-
    # retrieval sidecar (epoch 2c); bump rebuilds pre-lang cached corpora
    fp_extra = {"corpus_format": 4}
    if positions:  # added only when on, so existing caches stay valid
        fp_extra["positions"] = True
    if field != "body":  # ditto: body-field fingerprints unchanged
        fp_extra["field"] = field
    timings: dict[str, float] = {}

    def epoch(name: str, inputs: dict, run, clear: "tuple[str, ...]" = ()) -> None:
        wall = run_epoch(out_dir, name, inputs, run, clear=clear, force=force)
        if wall is not None:  # timings list only the epochs that ran
            timings[f"{name}_s"] = wall

    def corpus_epoch():
        build_corpus(webtext_path, corpus_dir, batch_size=batch_size,
                     positions=positions, field=field)
        outputs = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
        return outputs, {"rows": sum(pq.read_metadata(f).num_rows for f in outputs)}

    # derived sidecars are corpus-derived: a corpus rebuild must take them
    # down too, or a later docvalues=False build serves STALE attribute
    # pages through has_docvalues
    epoch("corpus", fingerprint([webtext_path], **fp_extra), corpus_epoch, clear=(
        corpus_dir,
        os.path.join(out_dir, "docvalues"),
        os.path.join(out_dir, "docvalues_ts"),
    ))

    # resolve auto layout knobs from the corpus itself (footer row count +
    # a one-file unique-terms sample); the RESOLVED ints go into the epoch
    # fingerprints, so a resumed build re-derives identical params
    if num_buckets is None or num_salts is None:
        n_docs_est = sum(
            pq.read_metadata(f).num_rows
            for f in glob.glob(os.path.join(corpus_dir, "*.parquet"))
        )
        auto_b, auto_s = auto_tune(n_docs_est, _sampled_avg_uniq_terms(corpus_dir))
        if num_buckets is None:
            num_buckets = auto_b
        if num_salts is None:
            num_salts = auto_s
    params = {
        "num_buckets": num_buckets,
        "num_salts": num_salts,
        "heavy_min_df": heavy_min_df,
        "ef_threshold": ef_threshold,
        # bump to invalidate cached indexes on on-disk format changes
        # (v4: salted sub-postings folded into the primary bucket as fmt-2
        # multi-part rows; stats['salted_terms'] lists the unfolded rest)
        "format_version": 4,
    }
    if positions:
        params["positions"] = True

    def stats_epoch():
        st = compute_stats(
            corpus_dir,
            stats_path,
            num_buckets=num_buckets,
            num_salts=num_salts,
            heavy_min_df=heavy_min_df,
            positions=positions,
        )
        return [stats_path], {"n_docs": st["n_docs"], "heavy": len(st["heavy_terms"])}

    # postings are built from this epoch's heavy terms and salts, and the
    # postings epoch adds its fields to stats.json: a re-run of the stats
    # epoch takes the postings down with it, so they re-run too
    epoch("stats", fingerprint([corpus_dir], params=params), stats_epoch,
          clear=(postings_dir,))
    with open(stats_path) as f:
        stats = json.load(f)

    # epochs 2b/2c: docid sidecars.  doclens (memmap shards for scorers)
    # always; the docvalues pair (lang categorical forward index + warc_ts
    # numeric, for filtered retrieval) is OPT-IN, like Lucene's per-field
    # docvalues: the flagship build stays lean (no second corpus sort), and
    # each sidecar is ADDITIVE — its own fingerprinted epoch on the same
    # index dir, so enabling it later upgrades a cached index without
    # rebuilding postings
    sidecars = [("doclens", "dl", {"stage": "doclens", "v": 1})]
    if docvalues:
        corpus_files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
        if not corpus_files or "lang" not in pq.read_schema(corpus_files[0]).names:
            raise ValueError(
                "build_index(docvalues=True) needs a corpus with the lang "
                "column (DML snapshot corpora lack it)"
            )
        sidecars += [
            ("docvalues", "lang", {"stage": "docvalues", "v": 1, "column": "lang"}),
            ("docvalues_ts", "warc_ts",
             {"stage": "docvalues_ts", "v": 1, "column": "warc_ts"}),
        ]
    for name, column, fp_extra in sidecars:
        side_dir = os.path.join(out_dir, name)

        def sidecar_epoch(side_dir=side_dir, column=column):
            meta = build_docid_sidecar(corpus_dir, side_dir, column)
            outputs = [os.path.join(side_dir, p["file"]) for p in meta["parts"]]
            return outputs + [os.path.join(side_dir, "meta.json")], {"n": meta["n"]}

        epoch(name, fingerprint([corpus_dir], **fp_extra), sidecar_epoch,
              clear=(side_dir,))

    def postings_epoch():
        bucket_metrics = build_postings(
            corpus_dir, postings_dir, stats, ef_threshold=ef_threshold
        )
        if positions:  # log the positional sidecar's size overhead
            stats["positions_bytes"] = int(bucket_metrics["positions_bytes"].sum())
        # persist the fold outcome: the query side single-probes every term
        # EXCEPT those listed here (too big to fold at scale)
        with open(stats_path + ".tmp", "w") as f:
            json.dump(stats, f)
        os.replace(stats_path + ".tmp", stats_path)
        outputs = sorted(glob.glob(os.path.join(postings_dir, "bucket-*.parquet")))
        outputs += sorted(glob.glob(os.path.join(postings_dir, "posbucket-*.parquet")))
        # relative, like the manifests: the index dir can move
        bucket_metrics["file"] = [os.path.relpath(f, out_dir) for f in bucket_metrics["file"]]
        bucket_metrics.to_parquet(os.path.join(out_dir, "bucket_metrics.parquet"))
        return outputs, {
            "buckets": len(outputs),
            "n_terms": int(bucket_metrics["n_terms"].sum()),
            "n_rows": int(bucket_metrics["n_rows"].sum()),
            "n_postings": int(bucket_metrics["n_postings"].sum()),
            "max_group_postings": int(bucket_metrics["max_group_postings"].max()),
        }

    # epoch 3: postings
    epoch(
        "postings",
        fingerprint([corpus_dir], params=params, stage="postings"),
        postings_epoch,
        clear=(postings_dir,),
    )

    stats["timings"] = timings
    return stats
