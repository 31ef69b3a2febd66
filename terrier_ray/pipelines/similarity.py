"""Similarity search over the ``embeddings`` table (list<float> column).

- brute-force cosine top-k: numpy matmul per batch against a broadcast query
  matrix (the baseline; exact)
- LSH-bucketed variant: random-hyperplane signatures bucket the corpus; only
  matching buckets are scanned (the scale path; approximate)
- embedding near-dup pairs: cosine >= threshold via bucketed candidate pairs
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from terrier_ray.ops.relational import grouped_aggregate, read_table, rescale_round, topk


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column.

    Zero-copy path: fixed-width lists with no nulls expose their flat values
    buffer directly — ``values.to_numpy().reshape`` touches no Python objects
    (the 1e9-vector hot path; the old ``to_pylist`` built a Python list per
    row).  The float32→float64 widening is the only copy.
    """
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if arr.null_count == 0:
        offs = arr.offsets.to_numpy()
        widths = np.diff(offs)
        if (widths == widths[0]).all() and widths[0] > 0:
            vals = arr.values.to_numpy(zero_copy_only=False)
            return (
                vals[offs[0] : offs[-1]]
                .reshape(n, int(widths[0]))
                .astype(np.float64, copy=False)
            )
    return np.asarray(arr.to_pylist(), dtype=np.float64)


def _sq_dists_to(m: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances via the ‖a‖²−2a·b+‖b‖² expansion —
    one matmul, O(n·k) memory (the broadcast (n, k, dim) temp is the thing
    that OOMs at scale)."""
    return (
        (m * m).sum(axis=1)[:, None]
        - 2.0 * (m @ cent.T)
        + (cent * cent).sum(axis=1)[None, :]
    )


def _fetch_query_vec(sf_dir: str, query_vec_id: int) -> np.ndarray:
    """One query vector, fetched with a parquet row filter (row-group
    pruned by vec_id statistics) — NEVER a full-table driver read; at 1e9
    vectors the old ``read_table`` + boolean mask was a driver OOM before
    the pipeline started."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir.rstrip('/')}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", query_vec_id)],
    )
    if t.num_rows == 0:
        raise KeyError(f"vec_id {query_vec_id} not found")
    return _batch_matrix(t)[0]


def _sample_matrix(src: str, sample_rows: int) -> np.ndarray:
    """First ``sample_rows`` embeddings read ROW-GROUP-bounded (the IVF
    training sample): stops opening row groups once enough rows are held,
    instead of slicing a full-table read."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(src)
    parts, rows = [], 0
    for rg in range(pf.metadata.num_row_groups):
        parts.append(pf.read_row_group(rg, columns=["embedding"]))
        rows += parts[-1].num_rows
        if rows >= sample_rows:
            break
    tab = pa.concat_tables(parts).slice(0, sample_rows)
    return _batch_matrix(tab.combine_chunks())


def knn_cosine(sf_dir: str, query_vec_id: int = 0, k: int = 10):
    """Exact brute-force cosine top-k vs one query vector (excluded from hits).

    Per batch: one matmul against the broadcast query vector; per-batch local
    top-k then a global sort+limit — no full materialization.
    sim is rounded to 4 decimals (duckdb float32 vs numpy float64 noise).
    """
    q = _fetch_query_vec(sf_dir, query_vec_id)
    qn = q / np.linalg.norm(q)

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = _batch_matrix(batch)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qn) / norms
        keep = ids != query_vec_id
        return pa.table(
            {
                "vec_id": pa.array(ids[keep]),
                "sim": rescale_round(pa.array(sims[keep]), 4),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return topk(scored, ["sim", "vec_id"], k=k, descending=[True, False])


class HyperplaneLSH:
    """Random-hyperplane signatures: bucket = sign bits of W @ v (per batch)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 11):
        rng = np.random.default_rng(seed)
        self.w = rng.standard_normal((n_planes, dim))

    def bucket(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.w.T) > 0
        weights = (1 << np.arange(bits.shape[1])).astype(np.int64)
        return bits @ weights

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        return batch.append_column("bucket", pa.array(self.bucket(m)))


def knn_cosine_lsh(sf_dir: str, query_vec_id: int = 0, k: int = 10, n_planes: int = 4):
    """Approximate top-k: scan only vectors whose LSH bucket matches the query.

    At scale the bucketed corpus is written partitioned-by-bucket once and
    each query touches one partition; here we filter inline.
    """
    q = _fetch_query_vec(sf_dir, query_vec_id)
    lsh = HyperplaneLSH(len(q), n_planes)
    qbucket = int(lsh.bucket(q[None, :])[0])
    qn = q / np.linalg.norm(q)

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = _batch_matrix(batch)
        buckets = lsh.bucket(m)
        keep = (buckets == qbucket) & (ids != query_vec_id)
        m = m[keep]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qn) / norms
        return pa.table(
            {
                "vec_id": pa.array(ids[keep]),
                "sim": pa.array(np.round(sims, 4)),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return topk(scored, ["sim", "vec_id"], k=k, descending=[True, False])


def _kmeans(m: np.ndarray, k: int, iters: int = 10, seed: int = 3) -> np.ndarray:
    """Small deterministic Lloyd's k-means (IVF coarse quantizer training)."""
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(k, len(m)), replace=False)].copy()
    for _ in range(iters):
        assign = _sq_dists_to(m, cent).argmin(axis=1)
        for j in range(len(cent)):
            sel = m[assign == j]
            if len(sel):
                cent[j] = sel.mean(axis=0)
    return cent


def knn_cosine_ivf(
    sf_dir: str,
    query_vec_id: int = 0,
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 4,
):
    """IVF-style ANN: train a coarse quantizer on a sample (driver-side),
    assign vectors to cells per batch, scan only the ``nprobe`` cells nearest
    the query.  Scale path: cells written as parquet partitions once, queries
    read only their cells (here the assignment runs inline)."""
    q = _fetch_query_vec(sf_dir, query_vec_id)
    # train on a bounded row-group sample (never a full-table read)
    cent = _kmeans(
        _sample_matrix(f"{sf_dir.rstrip('/')}/embeddings.parquet", 10_000), nlist
    )
    qd = ((cent - q[None, :]) ** 2).sum(axis=1)
    probe = np.sort(np.argsort(qd)[:nprobe])
    qn = q / np.linalg.norm(q)

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = _batch_matrix(batch)
        cell = _sq_dists_to(m, cent).argmin(axis=1)
        keep = np.isin(cell, probe) & (ids != query_vec_id)
        m = m[keep]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qn) / norms
        return pa.table(
            {
                "vec_id": pa.array(ids[keep]),
                "sim": rescale_round(pa.array(sims), 4),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return topk(scored, ["sim", "vec_id"], k=k, descending=[True, False])


def embedding_near_dup_pairs(
    sf_dir: str,
    threshold: float = 0.35,
    n_planes: int = 4,
    n_tables: int = 8,
    max_bucket_rows: int = 65_536,
    sim_block_rows: int = 2_048,
):
    """Near-duplicate vector pairs above a cosine threshold (vec_a < vec_b)
    via amplified hyperplane LSH: L independent tables of k planes each
    (OR-amplification — recall 1-(1-p^k)^L where p = 1-θ/π), within-bucket
    exact cosine, then a grouped-max dedupe of pairs found by >1 table.

    The driver's embeddings table has NO true high-sim duplicates (max
    pairwise cosine ≈ 0.51 at every SF), so the default threshold surfaces
    the genuine top tail instead of returning an empty (vacuously correct)
    result; at 100 TB the shuffle key is (table, bucket) and each vector is
    replicated L times — the standard LSH space-for-recall trade.

    Bucket-size guard (no silent quadratics): within-bucket cosine runs
    BLOCK-wise (``sim_block_rows`` × n temp, never an n×n matrix), and a
    bucket larger than ``max_bucket_rows`` — a degenerate/skewed hash, e.g.
    n_planes too small for the corpus — is deterministically subsampled to
    the cap with a logged count of dropped rows; the right fix at scale is
    raising ``n_planes`` (bucket occupancy ~ N / 2^n_planes per table).
    """
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    # embedding dim from ONE parquet row, driver-side (a Dataset.take_batch
    # here leaves an orphaned iter_batches Prefetcher thread that races
    # ray.shutdown into a silent process exit — raycompat docstring)
    import pyarrow.parquet as _pq

    pf = _pq.ParquetFile(f"{sf_dir.rstrip('/')}/embeddings.parquet")
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first.column("embedding")[0].as_py())
    tables = [
        HyperplaneLSH(dim, n_planes, seed=11 + 7 * t) for t in range(n_tables)
    ]

    def tag(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        reps = []
        for t, lsh in enumerate(tables):
            key = np.int64(t) * (1 << n_planes) + lsh.bucket(m)
            reps.append(batch.append_column("bucket", pa.array(key)))
        return pa.concat_tables(reps)

    bucketed = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)

    def pairs(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "vec_a": pa.array([], type=pa.int64()),
                "vec_b": pa.array([], type=pa.int64()),
                "sim": pa.array([], type=pa.float64()),
            }
        )
        if len(ids) < 2:
            return empty
        m = _batch_matrix(group)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = m / norms[:, None]
        order = np.argsort(ids)
        ids, mn = ids[order], mn[order]
        n = len(ids)
        if n > max_bucket_rows:
            # degenerate bucket: subsample deterministically (even stride
            # over the id-sorted rows) and SAY so — never a silent O(n²)
            import sys

            step = -(-n // max_bucket_rows)
            sel = np.arange(0, n, step)
            print(
                f"embedding_near_dup_pairs: bucket "
                f"{int(group.column('bucket')[0].as_py())} holds {n} rows "
                f"(> max_bucket_rows={max_bucket_rows}); subsampled to "
                f"{len(sel)} — dropped {n - len(sel)} rows' comparisons; "
                f"raise n_planes to shrink bucket occupancy",
                file=sys.stderr,
            )
            ids, mn = ids[sel], mn[sel]
            n = len(ids)
        # block-wise upper-triangle scan: temp is (block, n), never (n, n)
        outs_a, outs_b, outs_s = [], [], []
        for s in range(0, n, sim_block_rows):
            e = min(s + sim_block_rows, n)
            sims = mn[s:e] @ mn[s:].T  # columns start at global index s
            ai, bi = np.nonzero(sims >= threshold)
            tri = bi > ai  # upper triangle: global col (s+bi) > global row (s+ai)
            if tri.any():
                outs_a.append(ids[ai[tri] + s])
                outs_b.append(ids[bi[tri] + s])
                outs_s.append(np.round(sims[ai[tri], bi[tri]], 4))
        if not outs_a:
            return empty
        return pa.table(
            {
                "vec_a": pa.array(np.concatenate(outs_a)),
                "vec_b": pa.array(np.concatenate(outs_b)),
                "sim": pa.array(np.concatenate(outs_s)),
            }
        )

    found = bucketed.groupby("bucket").map_groups(pairs, batch_format="pyarrow")
    # a pair can be found by several tables → dedupe; max is a no-op on the
    # identical recomputed sims, it just carries the column through
    return grouped_aggregate(found, ["vec_a", "vec_b"], [("max", "sim", "sim")])


def build_ivf_index(
    sf_dir: str,
    out_dir: str | None = None,
    nlist: int = 16,
    sample_rows: int = 10_000,
):
    """Materialized IVF index: train the coarse quantizer on a bounded
    driver-side sample, assign every vector to its cell DISTRIBUTED
    (map_batches), and write one parquet partition per cell plus the
    centroid matrix — after this one-time build, a query reads ONLY its
    ``nprobe`` cell files (the posting-bucket pattern applied to vectors).
    Idempotent per (input files, nlist, sample_rows) through the one
    epoch runner (state/manifest.run_epoch): a stale, partial or corrupt
    build (fingerprint mismatch, missing or unreadable manifest) is
    removed wholesale before rebuilding, so a crashed write can never
    leave duplicate part files and regenerated input can never silently
    reuse a stale index."""
    import glob
    import os

    from terrier_ray.state.manifest import fingerprint, run_epoch

    src = f"{sf_dir.rstrip('/')}/embeddings.parquet"
    out_dir = out_dir or os.path.join(
        "/tmp/terrier_ray_ivf", os.path.basename(sf_dir.rstrip("/")) + f"-{nlist}"
    )

    def build():
        cent = _kmeans(_sample_matrix(src, sample_rows), nlist)
        np.save(os.path.join(out_dir, "centroids.npy"), cent)

        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

        def assign(batch: pa.Table) -> pa.Table:
            cell = _sq_dists_to(_batch_matrix(batch), cent).argmin(axis=1)
            return batch.append_column("cell", pa.array(cell.astype(np.int32)))

        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
            out_dir, partition_cols=["cell"]
        )
        cells = sorted(glob.glob(os.path.join(out_dir, "cell=*", "*.parquet")))
        return [os.path.join(out_dir, "centroids.npy"), *cells], {"files": len(cells)}

    run_epoch(out_dir, "ivf", fingerprint([src], nlist=nlist, sample_rows=sample_rows),
              build, clear=(out_dir,))
    return out_dir


def knn_cosine_ivf_indexed(
    sf_dir: str, query_vec_id: int = 0, k: int = 10, nprobe: int = 4
):
    """ANN over the MATERIALIZED IVF index: load centroids, pick the
    ``nprobe`` nearest cells, read ONLY those parquet partitions, score.
    Same recall/cost trade as knn_cosine_ivf but the cell assignment is
    amortized into the one-time build (the 1e12-vector serving shape)."""
    import glob
    import os

    idx = build_ivf_index(sf_dir)
    cent = np.load(os.path.join(idx, "centroids.npy"))
    q = _fetch_query_vec(sf_dir, query_vec_id)
    qd = ((cent - q[None, :]) ** 2).sum(axis=1)
    probe = np.argsort(qd)[:nprobe].tolist()
    qn = q / np.linalg.norm(q)

    import ray.data as rd

    paths = [
        p
        for c in probe
        for p in sorted(glob.glob(os.path.join(idx, f"cell={c}", "*.parquet")))
    ]
    ds = rd.read_parquet(paths, columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = _batch_matrix(batch)
        keep = ids != query_vec_id
        m = m[keep]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qn) / norms
        return pa.table(
            {
                "vec_id": pa.array(ids[keep]),
                "sim": rescale_round(pa.array(sims), 4),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return topk(scored, ["sim", "vec_id"], k=k, descending=[True, False])


def semdedup(
    sf_dir: str,
    threshold: float = 0.99,
    nlist: int = 16,
    max_cluster_rows: int = 65_536,
    sim_block_rows: int = 2_048,
    extra=None,
):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, "SemDeDup:
    Data-efficient learning at web-scale through semantic deduplication" —
    public method): k-means-cluster the embeddings, then WITHIN each cluster
    drop every vector whose cosine to some LOWER-id vector in the same
    cluster reaches ``threshold``.  The lowest id of each near-dup group is
    the kept exemplar; the drop rule is non-transitive by construction
    (id-ordered pairwise, not chained), so it is fully vectorizable.

    Shape at scale: the quadratic sim pass is confined to one cluster per
    task (that is the entire point of clustering first) — ONE hash shuffle
    on the cell id, then block-wise (``sim_block_rows`` x n, never n x n)
    matmuls inside the cluster.  The quantizer trains on a bounded sample
    driver-side and broadcasts; clusters above ``max_cluster_rows`` are
    deterministically subsampled for the COMPARISON side with a logged
    count (rows beyond the cap are kept, never silently dropped) — the
    right fix at scale is raising ``nlist`` (occupancy ~ N / nlist).

    Returns (vec_id, cell, keep).  ``extra`` (testing hook) appends rows:
    a pyarrow Table of (vec_id, embedding) unioned into the input.
    """
    import ray.data as rd

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    if extra is not None:
        ds = ds.union(rd.from_arrow(extra))
        ds = ds.materialize()  # consumed by sample probe + the pipeline

    cent = _kmeans(
        _sample_matrix(f"{sf_dir.rstrip('/')}/embeddings.parquet", 10_000), nlist
    )

    def assign(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        cell = _sq_dists_to(m, cent).argmin(axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding"),
                "cell": pa.array(cell),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)

    def dedup_cell(group: pa.Table) -> pa.Table:
        group = group.sort_by("vec_id")
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        m = _batch_matrix(group)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        m = m / norms[:, None]
        n = len(ids)
        cap = min(n, max_cluster_rows)
        if n > max_cluster_rows:
            print(
                f"semdedup: cluster of {n} rows exceeds cap {max_cluster_rows}; "
                f"{n - max_cluster_rows} rows kept uncompared (raise nlist)"
            )
        keep = np.ones(n, dtype=bool)
        for s in range(1, cap, sim_block_rows):
            e = min(s + sim_block_rows, cap)
            sims = m[s:e] @ m[:e].T  # block x all-earlier-or-self
            # only j < i counts: mask the upper triangle incl. diagonal
            col = np.arange(e)
            row = np.arange(s, e)
            sims[col[None, :] >= row[:, None]] = -1.0
            keep[s:e] = sims.max(axis=1) < threshold
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "cell": group.column("cell"),
                "keep": pa.array(keep),
            }
        )

    return assigned.groupby("cell").map_groups(dedup_cell, batch_format="pyarrow")
