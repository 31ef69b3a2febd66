"""Relational operators over ray.data.Dataset — SURVEY.md §2 parity layer.

Each helper maps a reference physical operator to its Ray-Data-native shape
(citations → /root/reference/src/...):

- read_table            SeqScan/CSVScan w/ column pruning + predicate pushdown
                        (execution/compiler/operator/seq_scan_translator.cpp)
- filter_batches/expr   FilterManager DNF filters (execution/sql/filter_manager.h:23)
- with_columns/project  ProjectionTranslator (operator/projection_translator.cpp)
- broadcast_join        HashJoin, small build side broadcast once via ray.put
                        (operator/hash_join_translator.cpp; build/probe
                        join_hash_table.h:30-43) — no shuffle
- partitioned_join      HashJoin, both sides large → Ray hash-shuffle join
                        (Dataset.join), the cluster-scale JoinHashTable
                        MergeParallel (join_hash_table.cpp:556-617)
- grouped_aggregate     AggregationHashTable partial→partition→merge
                        (aggregation_hash_table.cpp:647-769): map-side partial
                        combine per batch (Arrow group_by) then a SMALL
                        ray groupby over partials — the shuffle moves one row
                        per (key, batch), not one per input row
- global_aggregate      static aggregation (operator/static_aggregation_translator.cpp)
- sort_limit/topk       Sorter + top-k heaps (sql/sorter.cpp:153-430):
                        per-block bounded sort, then global merge
- distinct              DISTINCT→GROUP BY rewrite
                        (optimizer/query_to_operator_transformer.cpp:110-123)
- union_all             ds.union (SetOp analog; reference never executes these)

All hot paths are Arrow-native (batch_format="pyarrow", pyarrow.compute);
no per-row Python.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

Expr = Any  # pyarrow.dataset expression


def _read_blocks_for(path: str) -> int | None:
    """Read-block count: measured on this Ray version, downstream shuffle ops
    (hash aggregate / sort) run best with exactly num_cpus input blocks —
    2*cpus blocks triples shuffle wall-time (aggregator oversubscription) and
    byte-proportional tiny counts starve reduce parallelism.  Large inputs
    (>8 MiB/cpu) fall back to Ray's natural file/row-group splitting."""
    import os as _os

    try:
        size = _os.path.getsize(path)
    except OSError:
        return None
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    if size < (1 << 20):
        return 4
    if size // (8 << 20) <= cpus:
        return cpus
    return None


def read_table(
    sf_dir: str,
    name: str,
    columns: Sequence[str] | None = None,
    filter: Expr | None = None,
):
    """SeqScan: parquet read with column pruning + row-group predicate
    pushdown; block count sized by bytes (not a fixed cpu multiple) so small
    inputs don't shatter into overhead-dominated shuffle tasks."""
    import ray.data as rd

    from terrier_ray.sources.io import hashable_schema

    path = f"{sf_dir.rstrip('/')}/{name}.parquet"
    return rd.read_parquet(
        path,
        columns=list(columns) if columns else None,
        filter=filter,
        override_num_blocks=_read_blocks_for(path),
        schema=hashable_schema(path, columns),
    )


def filter_expr(ds, expr: Expr):
    """Vectorized filter with a pyarrow dataset expression, applied per Arrow
    batch (Ray's ``ds.filter(expr=...)`` wants a string on this version;
    ``pa.Table.filter`` accepts the Expression directly)."""

    def apply(batch: pa.Table) -> pa.Table:
        return batch.filter(expr)

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def filter_batches(ds, mask_fn: Callable[[pa.Table], pa.Array]):
    """Vectorized filter: mask_fn(batch)->BooleanArray, applied per Arrow batch."""

    def apply(batch: pa.Table) -> pa.Table:
        return batch.filter(mask_fn(batch))

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def with_columns(ds, builders: dict[str, Callable[[pa.Table], pa.Array]]):
    """Projection: append computed columns (pyarrow.compute expressions)."""

    def apply(batch: pa.Table) -> pa.Table:
        for name, fn in builders.items():
            col = fn(batch)
            if not isinstance(col, (pa.Array, pa.ChunkedArray)):
                # scalar result (literal expr / pc scalar kernel): broadcast
                v = col.as_py() if isinstance(col, pa.Scalar) else col
                col = pa.array([v] * batch.num_rows)
            if name in batch.column_names:
                batch = batch.set_column(
                    batch.column_names.index(name), name, col
                )
            else:
                batch = batch.append_column(name, col)
        return batch

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def project(ds, columns: Sequence[str]):
    return ds.select_columns(list(columns))


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def broadcast_join(
    ds,
    small: pa.Table,
    keys: Sequence[str],
    right_keys: Sequence[str] | None = None,
    join_type: str = "inner",
):
    """Hash join with a broadcast build side (dimension tables, lookups).

    ``small`` is put in the object store ONCE; every map task reads it
    zero-copy and runs an Arrow (Acero) hash join per batch.  No shuffle —
    this is the IndexNLJoin/broadcast analog for small sides.
    join_type: inner | left outer | left semi | left anti.  Build keys are
    cast to the probe keys' types, as ``partitioned_join`` does.
    """
    import ray

    ref = ray.put(small)
    keys = list(keys)
    rkeys = list(right_keys) if right_keys else keys

    def apply(batch: pa.Table) -> pa.Table:
        right = _get_broadcast(ref)
        for lk, rk in zip(keys, rkeys):
            typ = batch.schema.field(lk).type
            if right.schema.field(rk).type != typ:
                right = right.set_column(
                    right.schema.get_field_index(rk), rk,
                    pc.cast(right.column(rk), typ),
                )
        return batch.join(
            right, keys=keys, right_keys=rkeys, join_type=join_type
        )

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


#: per-worker broadcast cache, FIFO-bounded: a long-lived worker serving many
#: queries would otherwise pin every dimension table ever broadcast
_BCAST: dict[str, object] = {}
_BCAST_MAX = 8


def _get_broadcast(ref):
    import ray

    key = ref.hex()
    if key not in _BCAST:
        while len(_BCAST) >= _BCAST_MAX:
            _BCAST.pop(next(iter(_BCAST)))
        _BCAST[key] = ray.get(ref)
    return _BCAST[key]


def cross_join(ds, small: pa.Table):
    """NestLoop/cross product with a broadcast right side.

    Reference analog: the nested-loop join plan node
    (src/include/planner/plannodes/nested_loop_join_plan_node.h).  The
    right table is ``ray.put`` once; every batch emits |batch| × |small|
    rows — callers filter immediately after, and the right side must be
    dimension-sized (the SQL lowering only reaches this for comma-FROM
    tables with no equi condition)."""
    import ray

    ref = ray.put(small)

    def cross(batch: pa.Table) -> pa.Table:
        right = _get_broadcast(ref)
        n, r = batch.num_rows, right.num_rows
        out = batch.take(pa.array(np.repeat(np.arange(n), r)))
        ridx = pa.array(np.tile(np.arange(r), n))
        for name in right.column_names:
            out = out.append_column(name, right.column(name).take(ridx))
        return out

    return ds.map_batches(cross, batch_format="pyarrow", zero_copy_batch=True)


def partitioned_join(
    left,
    right,
    on: Sequence[str],
    right_on: Sequence[str] | None = None,
    join_type: str = "inner",
    num_partitions: int = 16,
    post_fn: Callable[[pa.Table], pa.Table] | None = None,
):
    """Both-sides-large hash-shuffle join.

    Ray's ``Dataset.join`` (hash shuffle) raises ArrowInvalid on Ray 2.49
    when a shuffle partition receives zero rows from one side (schema-less
    empty block), which small/filtered inputs hit easily — so this is a
    cogroup: pad both sides to a common schema with a side tag, union,
    ``groupby(bucket)`` (bucket = stable hash of key), and run an Acero hash
    join per bucket.  Same shuffle shape, robust to sparsity; at scale
    ``num_partitions`` bounds per-bucket memory.
    join_type: inner | left_semi | left_anti | left_outer | right_outer |
    full_outer.

    ``post_fn`` runs INSIDE each bucket task on that bucket's
    join output — the join-aggregation fusion hook: when a downstream
    GROUP BY's keys are functionally dependent on the join key (every key
    row lives in exactly one bucket), a per-bucket Arrow group_by here is
    COMPLETE, and the entire second all-to-all shuffle disappears.
    """
    rkeys = list(right_on) if right_on else list(on)
    lkeys = list(on)

    lschema = left.schema()
    rschema = right.schema()
    lnames = list(lschema.names)
    rnames = list(rschema.names)
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    overlap = (set(lnames) | set(lkeys)) & (set(rnames) - set(rkeys))
    if overlap:
        raise ValueError(f"non-key column name overlap: {overlap}")

    r_payload = [n for n in rnames if n not in rkeys]
    combined_names = lnames + r_payload

    def pad_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {name: batch.column(name) for name in lnames}
        for name in r_payload:
            cols[name] = pa.nulls(n, type=rtypes[name])
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        cols["__bucket"] = pa.array(
            _multi_key_bucket(batch, lkeys, num_partitions)
        )
        return pa.table(cols)

    def pad_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for name in lnames:
            if name in lkeys:
                src = rkeys[lkeys.index(name)]
                cols[name] = pc.cast(batch.column(src), ltypes[name])
            else:
                cols[name] = pa.nulls(n, type=ltypes[name])
        for name in r_payload:
            cols[name] = batch.column(name)
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        cols["__bucket"] = pa.array(
            _multi_key_bucket(batch, rkeys, num_partitions)
        )
        return pa.table(cols)

    lp = left.map_batches(pad_left, batch_format="pyarrow", zero_copy_batch=True)
    rp = right.map_batches(pad_right, batch_format="pyarrow", zero_copy_batch=True)
    both = lp.union(rp)
    # union doubles the block count; the downstream sort-shuffle degrades
    # sharply past num_cpus input blocks — coalesce first (no data movement)
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    both = both.repartition(cpus)

    arrow_join_type = {
        "inner": "inner",
        "left_semi": "left semi",
        "left_anti": "left anti",
        "right_semi": "right semi",
        "right_anti": "right anti",
        "left_outer": "left outer",
        "right_outer": "right outer",
        "full_outer": "full outer",
    }[join_type]
    # semi/anti emit one side's columns only; outer joins null-extend the
    # payload (key columns are coalesced across sides by Arrow since both
    # carry lnames).  Right semi/anti emit the RIGHT side's columns (keys
    # under the left key names — both sides carry lnames after padding).
    if join_type in ("left_semi", "left_anti"):
        out_cols = lnames
    elif join_type in ("right_semi", "right_anti"):
        out_cols = lkeys + r_payload
    else:
        out_cols = lnames + r_payload

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        lt = group.filter(pa.array(side == 0)).select(lnames)
        rt = group.filter(pa.array(side == 1)).select(lkeys + r_payload)
        joined = lt.join(
            rt, keys=lkeys, right_keys=lkeys, join_type=arrow_join_type
        )
        out = joined.select(out_cols)
        return post_fn(out) if post_fn is not None else out

    return both.groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


def _multi_key_bucket(batch: pa.Table, keys: Sequence[str], num_buckets: int) -> np.ndarray:
    acc = np.zeros(batch.num_rows, dtype=np.int64)
    for k in keys:
        acc = acc * np.int64(1000003) + stable_bucket(batch.column(k), 1 << 30)
    return np.abs(acc) % num_buckets


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: supported spec ops → (arrow partial agg, bucket merge agg)
_AGG_PLAN = {
    "sum": ("sum", "sum"),
    "count": ("count", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
    "mean": None,  # rewritten to sum+count
}


def grouped_aggregate(
    ds,
    keys: Sequence[str],
    specs: Sequence[tuple[str, str, str]],
    num_partitions: int = 32,
):
    """GROUP BY with map-side partial aggregation.

    specs: (op, column, alias) with op ∈ sum|count|min|max|mean.
    count counts non-null of ``column`` (use count+any non-null col or a
    count of a key column for COUNT(*) semantics on non-null keys).

    Stage 1 (map): Arrow ``Table.group_by`` per batch → one partial row per
    distinct key per batch.  Stage 2 (shuffle): merge the partials.
    Stage 3 (map): finalize means, rename.

    The shuffle moves partials on ``hash(keys) % num_partitions`` (one
    small-int key) and re-aggregates each bucket with one vectorized Arrow
    group_by: Ray's sort-shuffle ``groupby().aggregate`` cost grows with key
    CARDINALITY (measured ~0.16 s at 100 distinct keys → ~1 s at 10k,
    regardless of row count), so high-NDV groupings would pay dearly on it.

    KNOWN LIMIT (Ray 2.49): a zero-row input yields a schema-LESS empty
    result — the sort-shuffle drops even typed empty blocks, and Ray's
    aggregate type promotion (e.g. Min(float32)→double) can't be replayed
    reliably to synthesize a seed schema.  Oracled queries must therefore
    keep predicates selective-but-nonempty at every test SF.
    """
    keys = list(keys)
    # rewrite means → sum + count partials
    plan: list[tuple[str, str, str]] = []  # (arrow_op, col, partial_name)
    finals: list[tuple[str, str, str]] = []  # (merge_op, partial_name, alias)
    mean_fixups: list[tuple[str, str, str]] = []  # (alias, sum_name, cnt_name)
    for op, col, alias in specs:
        if op == "mean":
            s_name, c_name = f"__msum_{alias}", f"__mcnt_{alias}"
            plan += [("sum", col, s_name), ("count", col, c_name)]
            finals += [("sum", s_name, s_name), ("sum", c_name, c_name)]
            mean_fixups.append((alias, s_name, c_name))
        else:
            arrow_op, merge_op = _AGG_PLAN[op]
            pname = f"__p_{alias}"
            plan.append((arrow_op, col, pname))
            finals.append((merge_op, pname, alias))

    def partial(batch: pa.Table) -> pa.Table:
        gb = batch.group_by(keys)
        # dedupe (col, op) pairs — arrow errors on duplicate output names
        seen: set[tuple[str, str]] = set()
        aggs = []
        for op, col, _ in plan:
            if (col, op) not in seen:
                seen.add((col, op))
                aggs.append((col, op))
        out = gb.aggregate(aggs)
        # arrow names results "<col>_<op>"; rename to our partial names.
        # duplicate (col, op) pairs are deduplicated by arrow → map carefully.
        rename: dict[str, str] = {}
        for (op, col, pname) in plan:
            rename.setdefault(f"{col}_{op}", pname)
        cols, names = [], []
        for n in out.column_names:
            if n in keys:
                cols.append(out.column(n))
                names.append(n)
        for (op, col, pname) in plan:
            src = f"{col}_{op}"
            cols.append(out.column(src))
            names.append(pname)
        return pa.table(dict(zip(names, cols)))

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def fix_means(batch: pa.Table) -> pa.Table:
        for alias, s_name, c_name in mean_fixups:
            mean = pc.divide(
                pc.cast(batch.column(s_name), pa.float64()),
                pc.cast(batch.column(c_name), pa.float64()),
            )
            batch = batch.append_column(alias, mean)
        drop = [n for _, s, c in mean_fixups for n in (s, c)]
        return batch.drop_columns(drop)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__gbucket",
            pa.array(_multi_key_bucket(batch, keys, num_partitions)),
        )

    def merge_bucket(group: pa.Table) -> pa.Table:
        gb = group.drop_columns(["__gbucket"]).group_by(keys)
        merged = gb.aggregate([(pname, op) for op, pname, _a in finals])
        rename = {f"{pname}_{op}": alias for op, pname, alias in finals}
        merged = merged.rename_columns(
            [rename.get(n, n) for n in merged.column_names]
        )
        return fix_means(merged) if mean_fixups else merged

    tagged = partials.map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True
    )
    return tagged.groupby("__gbucket").map_groups(
        merge_bucket, batch_format="pyarrow"
    )


def grouping_sets_aggregate(
    ds,
    keys: Sequence[str],
    specs: Sequence[tuple[str, str, str]],
    sets: Sequence[Sequence[str]],
):
    """GROUP BY GROUPING SETS(sets): rolled-up key columns null-filled.

    ONE distributed finest-level ``grouped_aggregate`` over all ``keys``
    does the heavy lifting; every requested grouping set (each ⊆ keys) is
    derived from the (small) finest result driver-side by re-aggregating
    partials (sum of sums, count as sum, min of mins, max of maxes) — no
    second pass over the input.  specs ops: sum | count | min | max (mean
    is not re-aggregable from finals; derive it from sum+count columns).
    """
    keys = list(keys)
    sets = [list(s) for s in sets]
    for op, _c, _a in specs:
        if op not in ("sum", "count", "min", "max"):
            raise ValueError(f"grouping sets cannot re-aggregate {op!r}")
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of keys")

    finest_ds = grouped_aggregate(ds, keys, specs)
    batches = list(finest_ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    finest = pa.concat_tables(batches)
    key_types = {k: finest.schema.field(k).type for k in keys}
    aliases = [alias for _op, _c, alias in specs]
    #: how to fold finals one more level
    refold = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}

    out_tables = []
    for subset in sets:
        if subset == keys:
            out_tables.append(finest.select(keys + aliases))
            continue
        if subset:
            gb = finest.group_by(subset).aggregate(
                [(alias, refold[op]) for (op, _c, alias) in specs]
            )
            gb = gb.rename_columns(subset + aliases)
        else:  # grand total
            cols = {}
            for op, _c, alias in specs:
                fn = {"sum": pc.sum, "count": pc.sum, "min": pc.min, "max": pc.max}[
                    refold[op] if op == "count" else op
                ]
                cols[alias] = pa.array([fn(finest.column(alias)).as_py()])
            gb = pa.table(cols)
        n = gb.num_rows
        full = {}
        for k in keys:
            full[k] = (
                gb.column(k) if k in subset else pa.nulls(n, type=key_types[k])
            )
        for alias in aliases:
            full[alias] = gb.column(alias)
        out_tables.append(pa.table(full))
    return pa.concat_tables(out_tables)


def cube_aggregate(ds, keys: Sequence[str], specs: Sequence[tuple[str, str, str]]):
    """GROUP BY CUBE(keys): every subset of ``keys`` as a grouping set."""
    from itertools import combinations

    keys = list(keys)
    sets = [list(keys)]
    for r in range(len(keys) - 1, -1, -1):
        sets += [list(s) for s in combinations(keys, r)]
    return grouping_sets_aggregate(ds, keys, specs, sets)


def rollup_aggregate(ds, keys: Sequence[str], specs: Sequence[tuple[str, str, str]]):
    """GROUP BY ROLLUP(keys): the prefix grouping sets (k0..kn, k0..kn-1,
    …, ()) — the hierarchy drill-up."""
    keys = list(keys)
    sets = [keys[:r] for r in range(len(keys), -1, -1)]
    return grouping_sets_aggregate(ds, keys, specs, sets)


def global_aggregate(ds, specs: Sequence[tuple[str, str, str]]):
    """No-group aggregation → one-row pyarrow Table (small, driver-side).

    count / the mean denominator are SQL COUNT(col) — NON-NULL counts (a
    per-batch is_valid indicator summed), matching grouped_aggregate; Ray's
    ``Count()`` counts rows and would inflate AVG over nullable columns.
    """
    from ray.data.aggregate import Max, Min, Sum

    nn_cols = {
        col: f"__nn_{col}"
        for op, col, _a in specs
        if op in ("count", "mean")
    }
    if nn_cols:

        def add_indicators(batch: pa.Table) -> pa.Table:
            for col, name in nn_cols.items():
                batch = batch.append_column(
                    name, pc.cast(pc.is_valid(batch.column(col)), pa.int64())
                )
            return batch

        ds = ds.map_batches(
            add_indicators, batch_format="pyarrow", zero_copy_batch=True
        )

    aggs = []
    post = {}
    for op, col, alias in specs:
        if op == "sum":
            aggs.append(Sum(col, alias_name=alias))
        elif op == "min":
            aggs.append(Min(col, alias_name=alias))
        elif op == "max":
            aggs.append(Max(col, alias_name=alias))
        elif op == "count":
            aggs.append(Sum(nn_cols[col], alias_name=alias))
        elif op == "mean":
            s, c = f"__s_{alias}", f"__c_{alias}"
            aggs += [Sum(col, alias_name=s), Sum(nn_cols[col], alias_name=c)]
            post[alias] = (s, c)
    row = ds.aggregate(*aggs)
    out = {}
    for op, col, alias in specs:
        if alias in post:
            s, c = post[alias]
            cnt = row[c]
            out[alias] = [row[s] / cnt if cnt else None]
        elif op == "count":
            out[alias] = [row[alias] or 0]
        else:
            out[alias] = [row[alias]]
    return pa.table(out)


# ---------------------------------------------------------------------------
# sort / top-k / distinct / set ops
# ---------------------------------------------------------------------------


def sort_limit(
    ds,
    keys: Sequence[str],
    descending: bool | Sequence[bool] = False,
    limit: int | None = None,
):
    out = ds.sort(list(keys), descending=descending)
    return out.limit(limit) if limit is not None else out


def topk(
    ds,
    keys: Sequence[str],
    k: int,
    descending: bool | Sequence[bool] = True,
) -> pa.Table:
    """Exact top-k: per-block bounded sort (the per-thread top-k heap analog,
    sorter.cpp:424-430) then ONE driver-side merge of the <=k survivors per
    block.  A global ``ds.sort`` would range-shuffle everything to rank 20
    rows — the driver merge moves k x num_blocks rows, bounded and tiny even
    with thousands of blocks."""
    keys = list(keys)
    if isinstance(descending, bool):
        descending = [descending] * len(keys)
    arrow_order = [
        (key, "descending" if d else "ascending") for key, d in zip(keys, descending)
    ]

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        return batch.sort_by(arrow_order).slice(0, k)

    pruned = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    batches = list(pruned.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not batches:
        schema = pruned.schema()
        return pa.table(
            {n: pa.array([], type=t) for n, t in zip(schema.names, schema.types)}
        )
    survivors = pa.concat_tables(batches)
    return survivors.sort_by(arrow_order).slice(0, k)


def distinct(ds, cols: Sequence[str], num_partitions: int = 32):
    """DISTINCT via per-batch dedup, bucket shuffle on hash(cols), and one
    vectorized Arrow dedup per bucket (see grouped_aggregate's shuffle note:
    Ray's sort-shuffle groupby cost grows with key cardinality, which is
    exactly what DISTINCT maximizes)."""
    cols = list(cols)

    def local(batch: pa.Table) -> pa.Table:
        dd = batch.select(cols).group_by(cols).aggregate([])
        return dd.append_column(
            "__dbucket", pa.array(_multi_key_bucket(dd, cols, num_partitions))
        )

    def bucket_dedup(group: pa.Table) -> pa.Table:
        return group.drop_columns(["__dbucket"]).group_by(cols).aggregate([])

    return (
        ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__dbucket")
        .map_groups(bucket_dedup, batch_format="pyarrow")
    )


def union_all(*datasets):
    first, *rest = datasets
    return first.union(*rest)


def setop_all(
    left,
    right,
    columns: Sequence[str],
    right_columns: "Sequence[str] | None" = None,
    mode: str = "intersect",
    num_partitions: int = 32,
    dedupe: bool = False,
):
    """INTERSECT [ALL] / EXCEPT [ALL] — bag (multiset) or set semantics.

    With ``dedupe=True`` the SQL-standard DISTINCT variants: INTERSECT
    emits one copy when both sides contain the key; EXCEPT emits one copy
    when the left contains the key and the right does NOT (any right
    presence eliminates the value entirely — not a count subtraction).

    Reference analog: SetOpPlanNode INTERSECT_ALL / EXCEPT_ALL
    (src/include/planner/plannodes/plan_node_defs.h:118-127 — planned but
    never executable in the reference; we execute it).  For a key value
    with m left copies and n right copies the output carries min(m, n)
    copies (intersect) or max(m - n, 0) copies (except), per SQL standard.

    NULL-keys caveat (same class as the NOT-IN-subquery note in
    _semi_anti_join_op): the count tables meet through a hash join that
    drops NULL keys, whereas SQL set operations treat NULLs as EQUAL
    (NULL INTERSECT NULL yields a NULL row in DuckDB).  Rows whose value
    tuple contains a NULL are therefore omitted; coalesce NULLs to a
    sentinel first if they must participate.

    Scale shape: each side collapses to one (key, count) row per distinct
    key via the bucket-shuffled grouped_aggregate (no raw-row exchange),
    the two count tables co-partition through partitioned_join, and the
    multiplicity re-expansion runs INSIDE the join bucket via ``post_fn``
    (np.repeat over the joined counts) — rows shipped across the wire are
    O(distinct keys), never O(input rows)."""
    columns = list(columns)
    right_columns = list(right_columns or columns)
    if right_columns != columns:
        ren = dict(zip(right_columns, columns))

        def rename(batch: pa.Table) -> pa.Table:
            return batch.select(right_columns).rename_columns(
                [ren[c] for c in right_columns]
            )

        right = right.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
    else:
        right = right.map_batches(
            lambda b: b.select(columns), batch_format="pyarrow", zero_copy_batch=True
        )
    left = left.map_batches(
        lambda b: b.select(columns), batch_format="pyarrow", zero_copy_batch=True
    )

    def ones(name):
        return lambda b: pa.array(np.ones(b.num_rows, dtype=np.int64))

    lc = grouped_aggregate(
        with_columns(left, {"__one": ones("__one")}),
        columns,
        [("sum", "__one", "__lc")],
        num_partitions=num_partitions,
    )
    rc = grouped_aggregate(
        with_columns(right, {"__one": ones("__one")}),
        columns,
        [("sum", "__one", "__rc")],
        num_partitions=num_partitions,
    )

    intersect = mode == "intersect"

    def expand(t: pa.Table) -> pa.Table:
        m = t.column("__lc").to_numpy(zero_copy_only=False)
        n = t.column("__rc").fill_null(0).to_numpy(zero_copy_only=False)
        if dedupe:
            k = ((m > 0) & (n > 0) if intersect else (m > 0) & (n == 0)).astype(
                np.int64
            )
        else:
            k = np.minimum(m, n) if intersect else np.maximum(m - n, 0)
        idx = np.repeat(np.arange(t.num_rows), k)
        return t.select(columns).take(pa.array(idx))

    return partitioned_join(
        lc,
        rc,
        on=columns,
        join_type="inner" if intersect else "left_outer",
        num_partitions=num_partitions,
        post_fn=expand,
    )


#: matches DuckDB ROUND (half away from zero) on every sign
ROUND_MODE = "half_towards_infinity"


def scaled_int(arr, scale: int) -> pa.Array:
    """round(x * scale) as int64 — exact-decimal fixed-point representation.

    Used to make float aggregates engine-independent: integer sums are exact
    in any order, and the single final division by the scale yields the same
    double in every engine.  SQL mirror:
    ``CAST(ROUND(x * scale, 0) AS BIGINT)``."""
    return pc.cast(
        pc.round(pc.multiply(arr, float(scale)), ndigits=0, round_mode=ROUND_MODE),
        pa.int64(),
    )


def unscale(arr, scale: int):
    """int64 fixed-point → double: x / scale.  SQL mirror: ``x / scale.0``."""
    return pc.divide(pc.cast(arr, pa.float64()), float(scale))


def rescale_round(arr, ndigits: int):
    """Round a double to ``ndigits`` decimals via exact integer scaling —
    produces bit-identical doubles across engines (plain ROUND(x, d) differs
    by 1 ulp between implementations).  SQL mirror:
    ``CAST(ROUND(x * 1eN, 0) AS BIGINT) / 1eN.0``."""
    scale = 10 ** ndigits
    return unscale(scaled_int(arr, scale), scale)


def round_arr(arr, ndigits: int):
    return pc.round(arr, ndigits=ndigits, round_mode=ROUND_MODE)


def round_columns(ds, decimals: dict[str, int]):
    """Round float columns, DuckDB-compatible rounding mode.

    Float-aggregate determinism recipe (used by the query suite): ROUND each
    TERM before SUMming (making partial sums exact multiples of 10^-d, immune
    to summation order), then ROUND the result — mirrored verbatim in the
    oracle SQL."""

    def apply(batch: pa.Table) -> pa.Table:
        for col, d in decimals.items():
            batch = batch.set_column(
                batch.column_names.index(col),
                col,
                round_arr(batch.column(col), d),
            )
        return batch

    return ds.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def stable_bucket(arr: pa.ChunkedArray | pa.Array, num_buckets: int) -> np.ndarray:
    """Deterministic bucket id per value (ints: mod; strings: blake2b).
    Nulls all land in bucket 0 (SQL groups NULL keys together)."""
    null_mask = None
    if arr.null_count > 0:
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(arr.type):
        v = (
            pc.fill_null(arr, 0).to_numpy(zero_copy_only=False)
            if null_mask is not None
            else arr.to_numpy(zero_copy_only=False)
        )
        out = (v % num_buckets).astype(np.int32)
    else:
        vals = np.asarray(
            ["\x00\x00__null__" if v is None else str(v) for v in arr.to_pylist()],
            dtype=object,
        )
        uniq, inverse = np.unique(vals, return_inverse=True)
        h = np.empty(len(uniq), dtype=np.int64)
        for i, u in enumerate(uniq):
            h[i] = int.from_bytes(
                hashlib.blake2b(u.encode(), digest_size=8).digest(), "little"
            ) & ((1 << 63) - 1)
        out = (h[inverse] % num_buckets).astype(np.int32)
    if null_mask is not None:
        out[null_mask] = 0
    return out


def unpivot(
    ds,
    id_cols: Sequence[str],
    value_cols: Sequence[str],
    name_col: str = "name",
    value_col: str = "value",
):
    """UNPIVOT/melt: wide columns → (name, value) long rows, one output row
    per (input row, value column).  Purely per-batch (no shuffle); value
    columns are cast to a common type by Arrow concat."""
    id_cols, value_cols = list(id_cols), list(value_cols)

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            t = pa.table(
                {
                    **{k: batch.column(k) for k in id_cols},
                    name_col: pa.array([c] * batch.num_rows, type=pa.string()),
                    value_col: batch.column(c),
                }
            )
            parts.append(t)
        return pa.concat_tables(parts, promote_options="permissive")

    return ds.map_batches(melt, batch_format="pyarrow", zero_copy_batch=True)


def grouped_topk(
    ds,
    keys: Sequence[str],
    sort_col: str,
    n: int,
    descending: bool = True,
    num_partitions: int = 32,
):
    """Top-n rows per key group — with a MAP-SIDE PRUNE
    (``ops.window.first_rows``) that a bare window function cannot do: each
    batch keeps at most n candidates per key BEFORE the shuffle (a
    per-batch vectorized lexsort + segment head), so the exchange carries O(n · keys · batches) candidate rows instead of the
    whole input; the per-bucket reduce applies the same kernel once more for
    the exact result.  Reference analog: Sorter top-k heaps per thread +
    merge (sorter.h:126-140, sorter.cpp:424).  Ties broken by whatever
    order the sort is given — add a unique column to ``keys``' sort for
    determinism (the SQL mirror is ROW_NUMBER OVER (PARTITION BY keys ORDER
    BY sort_col [DESC]) <= n with the same tiebreak, which the SQL
    front-end lowers to the same prune); NULL keys form one group."""
    from terrier_ray.ops.window import _head_rows, _sort_keys, first_rows

    keys = list(keys)
    sort_keys = _sort_keys(keys, [sort_col], descending)
    pruned = first_rows(ds, keys, [sort_col], n, descending=descending)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__tbucket",
            pa.array(_multi_key_bucket(batch, keys, num_partitions)),
        )

    def final(group: pa.Table) -> pa.Table:
        return _head_rows(group.drop_columns(["__tbucket"]), keys, sort_keys, n)

    return (
        pruned.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__tbucket")
        .map_groups(final, batch_format="pyarrow")
    )
