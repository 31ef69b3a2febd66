"""Order-sensitive grouped aggregates: exact quantiles (PERCENTILE_CONT /
MEDIAN) and ordered string concatenation (STRING_AGG).

These cannot ride ``groupby().aggregate`` (they need every value of a group,
ordered), so they use the same shape as ``ops.window``: ONE hash shuffle on
``hash(keys) % num_partitions`` then per-bucket vectorized segment kernels —
a bucket holds all rows of each of its keys, and many keys per bucket keep
the Python-call count at O(num_partitions), not O(num_groups).

Reference analog: the reference's ANALYZE computes per-column stats with
reserved AGGREGATE_TOP_K / AGGREGATE_HISTOGRAM parse nodes
(/root/reference/src/include/parser/expression_defs.h:55-56); exact grouped
quantiles are the same family of order-statistics aggregation.

Scale note: per-bucket memory is bounded by input/num_partitions (size it to
the worker heap); a single group always lands in one bucket by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import _multi_key_bucket
from terrier_ray.ops.window import _change_mask


def _tagged(ds, keys: Sequence[str], num_partitions: int):
    keys = list(keys)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__qbucket", pa.array(_multi_key_bucket(batch, keys, num_partitions))
        )

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def grouped_quantiles(
    ds,
    keys: Sequence[str],
    specs: "Sequence[tuple[str, str, float, str]]",
    num_partitions: int = 32,
):
    """Several exact order-statistics aggregates in ONE bucket shuffle:
    ``specs`` is (func, col, q, alias) per aggregate.  The SQL ordered-set
    aggregates lower here, so a SELECT with several of them still costs one
    exchange.

    - ``percentile_cont`` (MEDIAN is q=0.5) interpolates DuckDB's
      quantile_cont bit for bit: ``pos = q*(n-1); lo = floor(pos);
      frac = pos-lo; val = v[lo]*(1-frac) + v[lo+1]*frac`` in float64.
      The exact expression matters at the ulp level:
      ``v[lo] + (v[lo+1]-v[lo])*frac`` (numpy's t<0.5 lerp) differs in the
      last bit for large magnitudes.  Feed an integer-scaled column so the
      inputs themselves are engine-independent.
    - ``percentile_disc`` is the SMALLEST group value whose cumulative
      ordered position covers q — the element at ``ceil(q*n) - 1`` of the
      ascending sort (the first for q=0), input type preserved.
    - ``string_agg`` joins the group's non-NULL ``col`` values in ascending
      order with the separator ``q`` (NULL when there are none)."""
    keys = list(keys)
    specs = [tuple(s) for s in specs]

    def per_bucket(group: pa.Table) -> pa.Table:
        g = group.drop_columns(["__qbucket"])
        if g.num_rows == 0:
            cols = {k: g.column(k) for k in keys}
            for func, col, _q, alias in specs:
                typ = {"percentile_cont": pa.float64(),
                       "string_agg": pa.string()}.get(
                    func, g.schema.field(col).type)
                cols[alias] = pa.array([], type=typ)
            return pa.table(cols)
        out_cols: dict = {}
        head = None
        for func, col, q, alias in specs:
            t = g.sort_by(
                [(k, "ascending") for k in keys] + [(col, "ascending")]
            )
            starts = _change_mask(t, keys)
            start_idx = np.flatnonzero(starts)
            counts = np.diff(np.append(start_idx, t.num_rows))
            if head is None:  # group heads identical across sorts (same keys)
                head = t.take(pa.array(start_idx)).select(keys)
            if func == "percentile_cont":
                v = pc.cast(t.column(col).combine_chunks(), pa.float64()).to_numpy(
                    zero_copy_only=False
                )
                pos = q * (counts - 1).astype(np.float64)
                lo = np.floor(pos).astype(np.int64)
                frac = pos - lo
                lo_idx = start_idx + lo
                hi_idx = np.minimum(lo_idx + 1, start_idx + counts - 1)
                out_cols[alias] = pa.array(
                    v[lo_idx] * (1.0 - frac) + v[hi_idx] * frac, type=pa.float64()
                )
            elif func == "string_agg":  # q is the separator; NULLs skipped
                vals = t.column(col).combine_chunks()
                valid = vals.is_valid().to_numpy(zero_copy_only=False)
                n_valid = np.add.reduceat(valid.astype(np.int64), start_idx)
                offsets = np.concatenate(([0], np.cumsum(n_valid)))
                lists = pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), vals.filter(pa.array(valid)),
                    mask=pa.array(n_valid == 0),
                )
                out_cols[alias] = pc.binary_join(lists, q)
            else:  # percentile_disc
                off = np.ceil(q * counts.astype(np.float64)).astype(np.int64) - 1
                off = np.clip(off, 0, counts - 1)
                out_cols[alias] = t.column(col).combine_chunks().take(
                    pa.array(start_idx + off)
                )
        for alias, arr in out_cols.items():
            head = head.append_column(alias, arr)
        return head

    return (
        _tagged(ds, keys, num_partitions)
        .groupby("__qbucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )

