"""Partitioned window functions (ROW_NUMBER / RANK / running SUM / LAG /
LEAD) as a Ray-Data-native operator.

The reference has no window functions (no OVER support anywhere in
/root/reference/src/parser — windows are listed as a non-feature in
SURVEY.md §1.1); this is part of the beyond-reference training-data-pipeline
surface.

Execution shape — ONE hash shuffle, then vectorized segment math:

1. every batch tags rows with ``__wbucket = hash(partition_by) % P``
   (same stable bucketing as ``partitioned_join``), so a bucket holds ALL
   rows of every partition key mapped to it;
2. ``groupby(__wbucket).map_groups`` gives each bucket to one task, which
   sorts it by (partition_by, order_by) ONCE and computes every requested
   window column with numpy/Arrow segment kernels (no per-group Python
   loop — a bucket holds many groups and they are all processed together).

Scale notes: P (``num_partitions``) bounds per-task memory to ~input/P —
size it so a bucket fits a worker heap; skewed partition keys are fine
(a key's rows always fit one bucket by construction of the semantics —
windows NEED all rows of a key together; a single key larger than worker
memory would need a two-pass carry protocol, not implemented).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import _multi_key_bucket

#: spec kinds; (kind, col, alias).  col is ignored for row_number/rank/
#: dense_rank/percent_rank/cume_dist; for ntile, col is the integer bucket
#: count n.
KINDS = (
    "row_number",
    "rank",
    "dense_rank",
    "percent_rank",
    "cume_dist",
    "cumsum",
    "lag",
    "lead",
    "ntile",
    "moving_sum",
    "moving_avg",
    "first_value",
    "last_value",
    "nth_value",
)


def _change_mask(table: pa.Table, cols: Sequence[str]) -> np.ndarray:
    """True where row i differs from row i-1 on any of ``cols`` (row 0 True).
    SQL semantics: NULL == NULL for grouping/peer purposes (all NULL keys form
    ONE partition / one peer run), NULL vs value is a change."""
    n = table.num_rows
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    mask[0] = True
    for c in cols:
        arr = table.column(c).combine_chunks()
        a, b = arr.slice(1), arr.slice(0, n - 1)
        neq = pc.fill_null(pc.not_equal(a, b), True)  # null-vs-value: change
        if arr.null_count > 0:
            both_null = pc.and_(pc.is_null(a), pc.is_null(b))
            neq = pc.if_else(both_null, False, neq)  # null-vs-null: no change
        mask[1:] |= neq.to_numpy(zero_copy_only=False)
    return mask


def _sort_keys(partition_by, order_by, descending) -> list[tuple[str, str]]:
    if isinstance(descending, bool):
        descending = [descending] * len(order_by)
    return [(k, "ascending") for k in partition_by] + [
        (k, "descending" if d else "ascending")
        for k, d in zip(order_by, descending)
    ]


def first_rows(
    ds,
    partition_by: Sequence[str],
    order_by: Sequence[str],
    n: int,
    descending: bool | Sequence[bool] = False,
):
    """Drop each row whose ROW_NUMBER within its BATCH's part of its
    partition exceeds ``n`` — the map-side prune under ``QUALIFY
    ROW_NUMBER() ... <= n``.  A row among the first ``n`` of its whole
    partition is among the first ``n`` of its batch, and so are all rows
    before it, so a later ``windowed`` row_number keeps its exact value for
    every such row; the shuffle then carries at most n rows per partition
    per batch instead of the input (the reference sorter's per-thread top-k
    heaps, sorter.h:126-140)."""
    partition_by = list(partition_by)
    sort_keys = _sort_keys(partition_by, order_by, descending)

    def prune(batch: pa.Table) -> pa.Table:
        return _head_rows(batch, partition_by, sort_keys, n)

    return ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)


def _head_rows(table: pa.Table, partition_by, sort_keys, n: int) -> pa.Table:
    """The first ``n`` rows of each ``partition_by`` group of ``table``
    under ``sort_keys`` (partition keys first)."""
    t = table.sort_by(sort_keys)
    idx = np.arange(t.num_rows, dtype=np.int64)
    starts = _change_mask(t, partition_by)
    seg_start = np.maximum.accumulate(np.where(starts, idx, 0))
    return t.filter(pa.array(idx - seg_start < n))


def windowed(
    ds,
    partition_by: Sequence[str],
    order_by: Sequence[str],
    specs: Sequence[tuple[str, str | None, str]],
    num_partitions: int = 32,
    descending: bool | Sequence[bool] = False,
):
    """Append window columns per ``specs`` over (PARTITION BY partition_by
    ORDER BY order_by).  Row order of the output is arbitrary (set
    semantics), as everywhere else in the engine.

    - ``row_number``: 1-based position within the partition (ties broken by
      the full order_by — make it unique for determinism).
    - ``rank``: 1-based, equal order_by values share the minimum position.
    - ``dense_rank``: like rank but consecutive (no gaps after ties).
    - ``ntile``: SQL NTILE(col) — col carries the integer bucket count; the
      first (cnt % n) tiles get the extra row.
    - ``cumsum``: running sum of ``col`` (int64/float) in order_by order,
      inclusive of the current row (ROWS UNBOUNDED PRECEDING..CURRENT ROW).
    - ``lag`` / ``lead``: value of ``col`` one row before/after within the
      partition, null at the partition edge.
    - ``moving_sum`` / ``moving_avg``: frame ROWS BETWEEN (param-1) PRECEDING
      AND CURRENT ROW over an INTEGER ``col`` (the 4-tuple spec
      ``(kind, col, alias, w)`` carries the window width); avg is the exact
      integer frame sum / frame count, one float64 divide.
    - ``first_value`` / ``last_value`` / ``nth_value``: frame ROWS BETWEEN
      UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING (whole partition — mirror
      that frame explicitly in SQL: default RANGE..CURRENT ROW differs for
      last/nth); ``nth_value`` takes n via the 4th spec element and is null
      when the partition has fewer than n rows.
    """
    partition_by = list(partition_by)
    order_by = list(order_by)
    specs = [
        (s[0], s[1], s[2], s[3] if len(s) > 3 else None) for s in specs
    ]
    for kind, _col, _alias, _param in specs:
        if kind not in KINDS:
            raise ValueError(f"unknown window kind {kind!r}")
    sort_keys = _sort_keys(partition_by, order_by, descending)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__wbucket",
            pa.array(_multi_key_bucket(batch, partition_by, num_partitions)),
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["__wbucket"]).sort_by(sort_keys)
        n = t.num_rows
        if n == 0:
            return t
        starts = _change_mask(t, partition_by)
        idx = np.arange(n, dtype=np.int64)
        # index of the first row of each row's partition segment
        seg_start = np.maximum.accumulate(np.where(starts, idx, 0))
        out = t
        full_starts: np.ndarray | None = None
        seg_end: np.ndarray | None = None

        def _seg_end() -> np.ndarray:
            # per-row index of the LAST row of its partition segment
            nonlocal seg_end
            if seg_end is None:
                seg_id = np.cumsum(starts) - 1
                starts_idx = np.flatnonzero(starts)
                ends_per_seg = np.append(starts_idx[1:], n) - 1
                seg_end = ends_per_seg[seg_id]
            return seg_end

        def _int_prefix(colname: str) -> np.ndarray:
            arr = t.column(colname).combine_chunks()
            if not pa.types.is_integer(arr.type):
                raise ValueError(
                    "moving_sum/moving_avg require an integer column; scale "
                    "floats first (scaled_int) per the repo float recipe"
                )
            if arr.null_count > 0:
                arr = pc.fill_null(arr, 0)
            return np.cumsum(arr.to_numpy(zero_copy_only=False))

        for kind, col, alias, param in specs:
            if kind == "row_number":
                vals = pa.array(idx - seg_start + 1)
            elif kind == "rank":
                if full_starts is None:
                    full_starts = _change_mask(t, partition_by + order_by)
                run_start = np.maximum.accumulate(np.where(full_starts, idx, 0))
                vals = pa.array(run_start - seg_start + 1)
            elif kind == "dense_rank":
                if full_starts is None:
                    full_starts = _change_mask(t, partition_by + order_by)
                runs = np.cumsum(full_starts)  # global distinct-run counter
                vals = pa.array(runs - runs[seg_start] + 1)
            elif kind in ("percent_rank", "cume_dist"):
                if full_starts is None:
                    full_starts = _change_mask(t, partition_by + order_by)
                seg_id = np.cumsum(starts) - 1
                counts = np.bincount(seg_id)
                cnt = counts[seg_id].astype(np.float64)
                if kind == "percent_rank":
                    # (rank - 1) / (cnt - 1); SQL defines 0 for 1-row groups
                    run_start = np.maximum.accumulate(np.where(full_starts, idx, 0))
                    rank = (run_start - seg_start + 1).astype(np.float64)
                    vals = pa.array(
                        np.where(cnt > 1, (rank - 1.0) / (cnt - 1.0), 0.0)
                    )
                else:
                    # rows up to and including the current peer run, / cnt;
                    # a run's exclusive end = the next run's start index
                    ends = np.concatenate((np.flatnonzero(full_starts)[1:], [n]))
                    run_id = np.cumsum(full_starts) - 1
                    run_end = ends[run_id]
                    vals = pa.array((run_end - seg_start).astype(np.float64) / cnt)
            elif kind == "ntile":
                nt = int(col)
                # partition size per row, via segment ids
                seg_id = np.cumsum(starts) - 1
                counts = np.bincount(seg_id)
                cnt = counts[seg_id]
                rn0 = idx - seg_start
                # SQL NTILE: first (cnt % n) buckets get ceil(cnt/n) rows
                k = cnt // nt
                r = cnt % nt
                thresh = r * (k + 1)
                big = rn0 < thresh
                small_k = np.maximum(k, 1)  # avoid /0; unreachable when k==0
                vals = pa.array(
                    np.where(
                        big,
                        rn0 // np.maximum(k + 1, 1) + 1,
                        r + (rn0 - thresh) // small_k + 1,
                    )
                )
            elif kind == "cumsum":
                arr = t.column(col).combine_chunks()
                if not pa.types.is_integer(arr.type):
                    # the whole-bucket cumsum-minus-base trick is exact only
                    # for ints; float running sums drift 1 ulp from SQL's
                    # per-partition order — use the integer-scaling recipe
                    raise ValueError(
                        "cumsum requires an integer column; scale floats "
                        "first (scaled_int) per the repo float recipe"
                    )
                if arr.null_count > 0:
                    arr = pc.fill_null(arr, 0)  # SQL SUM skips nulls
                v = arr.to_numpy(zero_copy_only=False)
                cum = np.cumsum(v)
                base = cum[seg_start] - v[seg_start]
                vals = pa.array(cum - base)
            elif kind in ("moving_sum", "moving_avg"):
                w = int(param)
                cum = _int_prefix(col)
                lo = np.maximum(idx - w + 1, seg_start)
                pre = np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0)
                msum = cum - pre
                if kind == "moving_sum":
                    vals = pa.array(msum)
                else:
                    vals = pa.array(msum.astype(np.float64) / (idx - lo + 1))
            elif kind == "first_value":
                vals = t.column(col).combine_chunks().take(pa.array(seg_start))
            elif kind == "last_value":
                vals = t.column(col).combine_chunks().take(pa.array(_seg_end()))
            elif kind == "nth_value":
                nth = int(param)
                pos = seg_start + nth - 1
                vals = t.column(col).combine_chunks().take(
                    pa.array(pos, mask=pos > _seg_end())
                )
            elif kind == "lag":
                take_idx = pa.array(idx - 1, mask=starts)
                vals = t.column(col).combine_chunks().take(take_idx)
            elif kind == "lead":
                ends = np.empty(n, dtype=bool)
                ends[:-1] = starts[1:]
                ends[-1] = True
                take_idx = pa.array(idx + 1, mask=ends)
                vals = t.column(col).combine_chunks().take(take_idx)
            out = out.append_column(alias, vals)
        return out

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby("__wbucket").map_groups(per_bucket, batch_format="pyarrow")
