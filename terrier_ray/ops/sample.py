"""Deterministic distributed sampling operators.

RNG-free sampling: every row's fate is a pure function of its key, so the
result is reproducible across engines (the same arithmetic is expressible
in ANSI SQL for the driver's oracle), across machines, and across retries
(Ray may re-execute a task — a stateful RNG would sample differently on
replay).  This is the distributed-sound form of reservoir sampling: an
order-dependent reservoir loop cannot be parallelized or replayed, while
hash-rank sampling ("assign every row a deterministic pseudo-uniform rank,
keep the n smallest / the p-fraction below a cut") yields the same
distribution as one streaming pass.

Reference analog: the reference samples for ANALYZE statistics via
AGGREGATE_TOP_K / histogram sketches (src/include/parser/expression_defs.h
:55-56); it has no row-sampling operator — this is beyond-reference
training-data-pipeline surface (held-out splits, eval subsets).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import filter_batches

#: Knuth multiplicative-hash constant; the pre-mod keeps the int64 product
#: overflow-free for any BIGINT key (DuckDB raises on overflow, Arrow wraps —
#: the mod-first form is identical in both).
_MULT = 2654435761
_PREMOD = 1_000_003


def _rank(arr, modulus: int) -> pa.Array:
    """Deterministic pseudo-uniform rank in [0, modulus): the SQL-mirrorable
    ``((key % 1000003) * 2654435761) % modulus`` (numpy int64 — exact, no
    overflow since (PREMOD-1)*MULT < 2^63; pyarrow.compute has no modulo
    kernel in this version)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    k = pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False)
    return pa.array((k % _PREMOD) * _MULT % modulus)


def bernoulli_sample(ds, key_col: str, permil: int):
    """Keep ~permil/1000 of rows, decided per row by its key's hash rank.
    SQL mirror: ``WHERE ((key % 1000003) * 2654435761) % 1000 < permil``."""
    return filter_batches(
        ds, lambda b: pc.less(_rank(b.column(key_col), 1000), permil)
    )


def mixture_sample(
    ds,
    source_col: str,
    key_col: str,
    rates_permil: dict[str, int],
    default_permil: int = 0,
):
    """Data mixing: per-source deterministic Bernoulli rates (the
    pretraining mixture op — upsample/downsample each source toward a
    target composition; rates > 1000 are clamped to keep-all).

    Every row's fate is ``rank(key) < rate(source)`` with the same
    hash-rank as bernoulli_sample, so the SQL mirror is the identical
    arithmetic with a CASE over the source column.  The rate lookup is
    resolved once per distinct source per batch (np.unique inverse), not
    per row."""

    def mask(b: pa.Table) -> pa.Array:
        import numpy as np

        r = _rank(b.column(key_col), 1000).to_numpy(zero_copy_only=False)
        src = b.column(source_col)
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        sv = np.asarray(src.to_pylist(), dtype=object)
        uniq, inv = np.unique(sv, return_inverse=True)
        per_uniq = np.array(
            [min(int(rates_permil.get(s, default_permil)), 1000) for s in uniq],
            dtype=np.int64,
        )
        return pa.array(r < per_uniq[inv])

    return filter_batches(ds, mask)


def stratified_sample(ds, group_col: str, key_col: str, n_per_group: int):
    """Exact-n-per-stratum deterministic sample: within each group keep the
    ``n_per_group`` rows with the smallest hash rank (grouped_topk's
    map-side prune keeps the exchange at O(n · groups · batches)).

    The sort key is rank·2^31 + key%2^31 — unique for keys < 2^31, so the
    result is fully deterministic and the SQL mirror is
    ``QUALIFY row_number() OVER (PARTITION BY group ORDER BY <same
    arithmetic>) <= n``."""
    from terrier_ray.ops.relational import grouped_topk

    big = 1_000_000_007
    half = 1 << 31

    def tag(b: pa.Table) -> pa.Table:
        import numpy as np

        r = _rank(b.column(key_col), big).to_numpy(zero_copy_only=False)
        k = pc.cast(b.column(key_col), pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column("__srank", pa.array(r * half + (k % half)))

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_topk(
        tagged, [group_col], "__srank", n_per_group,
        descending=False, num_partitions=8,
    )
    return out.drop_columns(["__srank"])
