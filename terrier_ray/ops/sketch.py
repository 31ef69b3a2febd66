"""Approximate-aggregation sketches: HyperLogLog distinct counting.

Reference analog: the parser reserves AGGREGATE_TOP_K / AGGREGATE_HISTOGRAM
expression types for ANALYZE statistics
(/root/reference/src/include/parser/expression_defs.h:55-56); at 1e12 rows
an exact COUNT(DISTINCT) shuffle is exactly what you avoid — an HLL register
table is O(2^p) per stage regardless of input size, and register-wise MAX is
a commutative merge, so the whole sketch rides ONE tiny groupby.

Shape: per-batch vectorized register partials (numpy) → groupby(register)
MAX merge → driver-side harmonic estimate with the standard small/large
range corrections (Flajolet et al. 2007).  Standard error ≈ 1.04/sqrt(2^p).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _hash64(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized 64-bit avalanche hash (splitmix64 finalizer for ints;
    blake2b over the distinct set for strings — loop only on uniques)."""
    import hashlib

    if pa.types.is_integer(arr.type):
        v = pc.fill_null(arr, 0).to_numpy(zero_copy_only=False).astype(np.uint64)
        v = (v + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        v ^= v >> np.uint64(30)
        v = (v * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        v ^= v >> np.uint64(27)
        v = (v * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        v ^= v >> np.uint64(31)
        return v
    vals = np.asarray(
        ["\x00__null__" if x is None else str(x) for x in arr.to_pylist()],
        dtype=object,
    )
    uniq, inverse = np.unique(vals, return_inverse=True)
    h = np.empty(len(uniq), dtype=np.uint64)
    for i, u in enumerate(uniq):
        h[i] = int.from_bytes(
            hashlib.blake2b(u.encode(), digest_size=8).digest(), "little"
        )
    return h[inverse]


def hll_partials(batch_col: pa.ChunkedArray | pa.Array, p: int = 12) -> pa.Table:
    """One batch → (register, max_rank) partial rows (≤ 2^p of them)."""
    h = _hash64(batch_col)
    m = np.uint64(1) << np.uint64(p)
    reg = (h & (m - np.uint64(1))).astype(np.int64)
    rest = h >> np.uint64(p)
    # rank = position of first 1-bit in the remaining (64-p) bits, 1-based;
    # all-zero rest → 64-p+1
    width = 64 - p
    rank = np.full(len(h), width + 1, dtype=np.int64)
    nz = rest != 0
    # trailing-zero count via bit tricks: isolate lowest set bit, log2
    low = rest[nz] & (~rest[nz] + np.uint64(1))
    rank[nz] = np.log2(low.astype(np.float64)).astype(np.int64) + 1
    tab = pa.table({"__reg": pa.array(reg), "__rank": pa.array(rank)})
    return tab.group_by(["__reg"]).aggregate([("__rank", "max")]).rename_columns(
        ["__reg", "__rank"]
    )


def hll_estimate(registers: np.ndarray, p: int = 12) -> float:
    """Standard HLL estimate over a dense 2^p register array (0 = empty)."""
    m = float(1 << p)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.sum(registers == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    elif est > (1 << 32) / 30.0:
        est = -(2.0**64) * np.log1p(-est / 2.0**64)
    return float(est)


def mg_heavy_hitters(
    ds, col: str, k: int = 10, capacity_factor: int = 64, weight_col: str | None = None
):
    """Approximate top-k frequent values (Misra–Gries style, mergeable).

    Reference analog: the reserved AGGREGATE_TOP_K ANALYZE statistic
    (/root/reference/src/include/parser/expression_defs.h:55).

    Per batch: exact value_counts, keep the ``k * capacity_factor`` largest
    (a truncated MG summary; each kept counter lower-bounds the true batch
    count).  Merge: one small groupby summing partial counts, then top-k.
    Guarantee: any value with true global count > n_rows / (k *
    capacity_factor) survives every truncation, so sufficiently-heavy
    hitters are EXACT; returned ``count`` is always a lower bound.

    With ``weight_col``, input rows are (value, weight) PARTIAL counts (an
    upstream stage already counted within its batch) and the local summary
    sums weights instead of counting rows — same guarantee, applied to the
    weighted totals.

    Returns a pa.Table (value, count) of the k heaviest, count descending.
    """
    from terrier_ray.ops.relational import grouped_aggregate, topk

    cap = k * capacity_factor

    def local(batch: pa.Table) -> pa.Table:
        if weight_col is None:
            vc = batch.select([col]).group_by([col]).aggregate([([], "count_all")])
        else:
            vc = (
                batch.select([col, weight_col])
                .group_by([col])
                .aggregate([(weight_col, "sum")])
            )
        vc = vc.rename_columns([col, "__c"])
        if vc.num_rows > cap:
            vc = vc.sort_by([("__c", "descending")]).slice(0, cap)
        return vc

    merged = grouped_aggregate(
        ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True),
        [col],
        [("sum", "__c", "count")],
    )
    return topk(merged, ["count", col], k, descending=[True, False])


def hll_count_distinct(ds, col: str, p: int = 12) -> int:
    """Approximate COUNT(DISTINCT col) — one streaming pass, O(2^p) state."""
    from ray.data.aggregate import Max

    partials = ds.map_batches(
        lambda b: hll_partials(b.column(col), p),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    merged = partials.groupby("__reg").aggregate(Max("__rank", alias_name="r"))
    regs = np.zeros(1 << p, dtype=np.int64)
    for b in merged.iter_batches(batch_size=None, batch_format="pyarrow"):
        regs[b.column("__reg").to_numpy(zero_copy_only=False)] = b.column(
            "r"
        ).to_numpy(zero_copy_only=False)
    return int(round(hll_estimate(regs, p)))


# ---------------------------------------------------------------------------
# t-digest (mergeable approximate quantiles)
# ---------------------------------------------------------------------------

def _k_scale(q: np.ndarray, delta: int) -> np.ndarray:
    """t-digest k1 scale function (Dunning & Ertl): k(q) = δ/(2π)·asin(2q−1).
    Clusters get ~unit k-width → fine resolution at the tails, coarse in the
    middle; rank error is O(1/δ) with the tightest bounds at q→0/1."""
    return delta / (2.0 * np.pi) * np.arcsin(np.clip(2.0 * q - 1.0, -1.0, 1.0))


def _tdigest_cluster(
    means: np.ndarray, weights: np.ndarray, delta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Re-cluster (mean, weight) centroids sorted by mean into ≤~δ centroids:
    assign each input centroid a cluster id = floor(k(q_mid)) and fold with
    np.add.reduceat — fully vectorized, no per-centroid Python loop."""
    order = np.argsort(means, kind="stable")
    means, weights = means[order], weights[order]
    total = weights.sum()
    cum = np.cumsum(weights)
    q_mid = (cum - weights / 2.0) / total
    cluster = np.floor(_k_scale(q_mid, delta) - _k_scale(np.array([0.0]), delta)).astype(
        np.int64
    )
    starts = np.flatnonzero(np.diff(cluster, prepend=cluster[0] - 1))
    w = np.add.reduceat(weights, starts)
    m = np.add.reduceat(means * weights, starts) / w
    return m, w


def tdigest_partials(col: pa.ChunkedArray | pa.Array, delta: int = 200) -> pa.Table:
    """One batch → ≤~δ (mean, weight) centroid rows (the mergeable partial)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    v = col.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
    if len(v) == 0:
        return pa.table(
            {"mean": pa.array([], type=pa.float64()), "weight": pa.array([], type=pa.float64())}
        )
    m, w = _tdigest_cluster(v, np.ones_like(v), delta)
    return pa.table({"mean": pa.array(m), "weight": pa.array(w)})


def tdigest_quantile(
    means: np.ndarray, weights: np.ndarray, qs: "list[float]", delta: int = 200
) -> np.ndarray:
    """Final estimate: one more cluster pass, then interpolate between
    centroid midpoints in cumulative-weight space."""
    m, w = _tdigest_cluster(means, weights, delta)
    total = w.sum()
    cum = np.cumsum(w) - w / 2.0  # centroid midpoints
    return np.interp(np.asarray(qs, dtype=np.float64) * total, cum, m)


def approx_percentile(ds, col: str, qs: "list[float]", delta: int = 200) -> np.ndarray:
    """Distributed approximate percentiles: per-batch centroid partials
    (O(δ) rows each) → driver merge (O(δ·n_blocks) floats — KiBs) → final
    cluster + interpolation.  The exact alternative shuffles every row
    (ops/orderagg.py); this never moves more than centroid summaries."""
    parts = ds.map_batches(
        lambda b: tdigest_partials(b.column(col), delta),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    tbls = list(parts.iter_batches(batch_size=None, batch_format="pyarrow"))
    t = pa.concat_tables(tbls)
    means = t.column("mean").to_numpy(zero_copy_only=False)
    weights = t.column("weight").to_numpy(zero_copy_only=False)
    return tdigest_quantile(means, weights, qs, delta)


# ---------------------------------------------------------------------------
# count-min sketch (mergeable approximate frequencies)
# ---------------------------------------------------------------------------

#: Fixed per-depth seeds (any distinct odd constants work; pinned so
#: partials from different workers/runs merge correctly).
_CM_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


def _cm_remix(h: np.ndarray, seed: np.uint64) -> np.ndarray:
    """One extra avalanche round over already-hashed values, per depth."""
    with np.errstate(over="ignore"):
        v = (h ^ seed) * np.uint64(0xBF58476D1CE4E5B9)
        v ^= v >> np.uint64(31)
        v = v * np.uint64(0x94D049BB133111EB)
        v ^= v >> np.uint64(29)
    return v


def cm_partials(
    batch_col: pa.ChunkedArray | pa.Array,
    width: int = 2048,
    depth: int = 4,
    weights: np.ndarray | None = None,
) -> pa.Table:
    """One batch → sparse (slot, count) partial rows, mergeable by SUM
    (slot = depth_row · width + column index).  ``weights`` turns the
    input into (value, partial_count) pairs — an upstream stage already
    counted within its batch."""
    if depth > len(_CM_SEEDS):
        raise ValueError(f"depth ≤ {len(_CM_SEEDS)}")
    h = _hash64(batch_col)
    w = (
        np.ones(len(h), dtype=np.int64)
        if weights is None
        else np.asarray(weights, dtype=np.int64)
    )
    slots, counts = [], []
    for d in range(depth):
        idx = (_cm_remix(h, _CM_SEEDS[d]) % np.uint64(width)).astype(np.int64)
        key = d * width + idx
        uk, inv = np.unique(key, return_inverse=True)
        c = np.zeros(len(uk), dtype=np.int64)
        np.add.at(c, inv, w)
        slots.append(uk)
        counts.append(c)
    return pa.table(
        {
            "__slot": pa.array(np.concatenate(slots)),
            "__count": pa.array(np.concatenate(counts)),
        }
    )


def cm_dense(merged: pa.Table, width: int = 2048, depth: int = 4) -> np.ndarray:
    """Sparse merged (slot, count) rows → dense (depth, width) matrix."""
    mat = np.zeros(depth * width, dtype=np.int64)
    mat[merged.column("__slot").to_numpy(zero_copy_only=False)] = merged.column(
        "__count"
    ).to_numpy(zero_copy_only=False)
    return mat.reshape(depth, width)


def cm_query(
    mat: np.ndarray, probe: pa.Array | pa.ChunkedArray, width: int = 2048
) -> np.ndarray:
    """Point-frequency estimates for ``probe`` values: min over depth rows.
    One-sided error: estimate ≥ true count always; ≤ true + (e/width)·N
    with probability 1 − e^−depth (standard CM bound)."""
    h = _hash64(probe)
    depth = mat.shape[0]
    est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(depth):
        idx = (_cm_remix(h, _CM_SEEDS[d]) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, mat[d, idx])
    return est
