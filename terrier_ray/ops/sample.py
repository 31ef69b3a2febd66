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
