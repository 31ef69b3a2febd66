"""Spec rewrite pass — the optimizer analog.

Reference analog: the rewrite rules in
/root/reference/src/include/optimizer/rule.h:16-79 (predicate push-down
through joins, filter-into-scan, projection pruning) and the cost-based
broadcast-vs-shuffle join choice the reference's cascades optimizer makes
from table stats (src/optimizer/statistics).  Ours operates on the
declarative spec JSON (terrier_ray/api.py) so it benefits both the SQL
front-end and hand-written specs:

1. **Filter push-down.**  A ``filter`` op in the pre-aggregation region
   whose columns all belong to one base table is moved into that table's
   scan — as a pyarrow row-group predicate when the expression is in the
   pushable subset (``api.compile_scan_filter``), else as a batch filter
   right after the scan.  Outer-join safety: filters only pass ``inner``
   joins, and only push INTO a join's right side when that join is
   ``inner`` (a WHERE on the nullable side of LEFT JOIN does not commute).
2. **Projection pruning.**  When the spec ends in a ``project``, every
   scan's ``columns`` is set to the referenced subset — at 100 TB the
   difference between shipping 16 lineitem columns and 4 out of storage.
3. **Join strategy.**  A join whose right side is a bare scan small enough
   to fit in the object store (compressed bytes from the parquet footer,
   post-pruning) becomes a broadcast join: ``ray.put`` once, Acero
   hash-join per batch, no shuffle.  Larger sides keep the cogroup
   hash-shuffle.
4. **Join order.**  Within a run of consecutive inner joins, selective
   broadcast joins move ahead of big shuffle joins (``_reorder_joins``)
   so every later exchange sees the already-shrunk stream — subject to
   key availability, and only when a later project pins column order.
5. **Shuffle-join bucket count.**  ``_size_join_partitions`` targets
   ~64 MB estimated input per bucket instead of a fixed 16 (floored at
   16, capped at 256).

``optimize`` never changes results — only where work happens.  Tests
assert plan shape AND value-identity against the naive spec.
"""

from __future__ import annotations

import copy
from typing import Any, Mapping, Optional

from terrier_ray.api import compile_scan_filter

#: spec ops after which a filter is a HAVING / post-shape filter — never
#: moved (aggregates, windows, sorts and row-slices change row identity)
_BARRIERS = {
    "group_agg", "global_agg", "window", "sort", "limit", "distinct",
    "rollup", "cube", "unpivot", "sample", "quantile",
}

#: compressed build-side bytes below which a join broadcasts; one object
#: store copy per node at cluster scale, zero shuffle
DEFAULT_BROADCAST_MAX_BYTES = 64 << 20


def _expr_cols(e: Mapping[str, Any], out: set[str]) -> None:
    if "col" in e:
        out.add(e["col"])
    for a in e.get("args", []):
        _expr_cols(a, out)


def _schema_cols(sf_dir: str, table: str) -> list[str]:
    from terrier_ray.sources.io import hashable_schema

    s = hashable_schema(f"{sf_dir.rstrip('/')}/{table}.parquet")
    return list(s.names) if s is not None else []


def _table_bytes(sf_dir: str, table: str, columns: Optional[list[str]]) -> int:
    """Compressed on-disk bytes of ``columns`` (all if None), from footers."""
    import glob
    import os

    import pyarrow.parquet as pq

    path = f"{sf_dir.rstrip('/')}/{table}.parquet"
    files = (
        sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
        if os.path.isdir(path)
        else [path]
    )
    total = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                c = g.column(ci)
                if columns is None or c.path_in_schema.split(".")[0] in columns:
                    total += c.total_compressed_size
    return total


def _and_expr(a: Optional[Mapping[str, Any]], b: Mapping[str, Any]):
    return b if a is None else {"fn": "and_kleene", "args": [a, b]}


# ---------------------------------------------------------------------------
# 0. table statistics (ANALYZE output + parquet footers) and selectivity
# ---------------------------------------------------------------------------

#: ANALYZE-registered stats: (sf_dir, table) → {col: {n, ndv, min, max}}.
#: pipelines.analyze.analyze_table fills this; footer stats are the
#: always-available fallback (the reference's pg_statistic analog —
#: src/optimizer/statistics/stats_storage.cpp feeds its cost model the
#: same way).
_ANALYZE_STATS: "dict[tuple[str, str], dict[str, dict]]" = {}


def register_table_stats(sf_dir: str, table: str, stats: "dict[str, dict]") -> None:
    """Register ANALYZE output for the planner: {col: {n, ndv, min, max}}."""
    _ANALYZE_STATS[(sf_dir.rstrip("/"), table)] = stats


#: Footer-stat memo: path → (state.manifest.fingerprint, result).
#: optimize() consults footers for the same tables many times per plan
#: (build side, join order, bucket sizing); the fingerprint (relative name,
#: size, mtime per file — stat calls only) keeps the cache correct when a
#: table is rewritten between plans.
_FOOTER_CACHE: "dict[str, tuple[dict, tuple]]" = {}


def _footer_ranges(sf_dir: str, table: str) -> "tuple[int, dict[str, tuple]]":
    """(row_count, {col: (min, max)}) from parquet footer statistics only —
    no data reads.  Columns with missing/truncated stats are omitted."""
    import pyarrow.parquet as pq

    from terrier_ray.state.manifest import fingerprint, parquet_files

    path = f"{sf_dir.rstrip('/')}/{table}.parquet"
    fp = fingerprint([path])
    hit = _FOOTER_CACHE.get(path)
    if hit is not None and hit[0] == fp:
        return hit[1]
    files = parquet_files(path)
    rows = 0
    rng: dict[str, list] = {}
    bad: set[str] = set()
    for f in files:
        md = pq.ParquetFile(f).metadata
        rows += md.num_rows
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                c = g.column(ci)
                name = c.path_in_schema.split(".")[0]
                st = c.statistics
                if st is None or st.min is None or st.max is None:
                    bad.add(name)
                    continue
                cur = rng.get(name)
                if cur is None:
                    rng[name] = [st.min, st.max]
                else:
                    cur[0] = min(cur[0], st.min)
                    cur[1] = max(cur[1], st.max)
    out = rows, {k: (v[0], v[1]) for k, v in rng.items() if k not in bad}
    _FOOTER_CACHE[path] = (fp, out)
    return out


def _to_num(v):
    """Literal / stats value → comparable float (datetimes via epoch)."""
    import datetime

    if isinstance(v, bool):
        return float(v)
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, (datetime.datetime,)):
        return v.timestamp()
    if isinstance(v, datetime.date):
        return datetime.datetime(v.year, v.month, v.day).timestamp()
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            try:  # ISO date/timestamp literals (pushed date filters)
                return datetime.datetime.fromisoformat(v).timestamp()
            except ValueError:
                return None
    return None


#: defaults when stats can't answer (the TrivialCostModel posture:
#: deterministic, bounded, never zero)
_SEL_EQ_DEFAULT = 0.1
_SEL_RANGE_DEFAULT = 0.3
_SEL_FLOOR = 1e-4


def _estimate_selectivity(
    e: Mapping[str, Any], sf_dir: str, table: str,
    ranges: "dict[str, tuple]",
) -> float:
    """Selectivity of a pushed scan-filter EXPR tree in (0, 1].

    Range predicates interpolate the column's footer [min, max] span;
    equality / IN use ANALYZE ndv when registered, else a fixed default.
    Unknown node shapes contribute 1.0 (never shrinks what it can't see)."""
    an = _ANALYZE_STATS.get((sf_dir.rstrip("/"), table), {})

    def ndv_of(col: str):
        s = an.get(col)
        return s.get("ndv") if s else None

    def span_of(col: str):
        s = an.get(col)
        if s and s.get("min") is not None and s.get("max") is not None:
            return _to_num(s["min"]), _to_num(s["max"])
        r = ranges.get(col)
        return (_to_num(r[0]), _to_num(r[1])) if r else (None, None)

    def walk(n: Mapping[str, Any]) -> float:
        fn = n.get("fn")
        args = n.get("args", [])
        if fn in ("and_kleene", "and_"):
            return max(_SEL_FLOOR, walk(args[0]) * walk(args[1]))
        if fn in ("or_kleene", "or_"):
            return min(1.0, walk(args[0]) + walk(args[1]))
        if fn in ("invert", "not"):
            return max(_SEL_FLOOR, 1.0 - walk(args[0]))
        col = lit = None
        flip = False
        if len(args) == 2:
            if "col" in args[0] and "lit" in args[1]:
                col, lit = args[0]["col"], args[1]["lit"]
            elif "lit" in args[0] and "col" in args[1]:
                col, lit, flip = args[1]["col"], args[0]["lit"], True
        if fn == "equal" and col is not None:
            ndv = ndv_of(col)
            return max(_SEL_FLOOR, 1.0 / ndv) if ndv else _SEL_EQ_DEFAULT
        if fn == "not_equal" and col is not None:
            ndv = ndv_of(col)
            return 1.0 - (1.0 / ndv if ndv else _SEL_EQ_DEFAULT)
        if fn in ("less", "less_equal", "greater", "greater_equal") and col is not None:
            lo, hi = span_of(col)
            v = _to_num(lit)
            if lo is None or hi is None or v is None or hi <= lo:
                return _SEL_RANGE_DEFAULT
            frac = (v - lo) / (hi - lo)
            if (fn in ("greater", "greater_equal")) != flip:
                frac = 1.0 - frac
            return min(1.0, max(_SEL_FLOOR, frac))
        if fn == "is_in" and len(args) == 1 and "col" in args[0]:
            vals = n.get("options", {}).get("__value_set") or ()
            ndv = ndv_of(args[0]["col"])
            per = (1.0 / ndv) if ndv else _SEL_EQ_DEFAULT
            return min(1.0, max(_SEL_FLOOR, per * max(1, len(vals))))
        if fn == "is_null":
            return 0.05
        if fn == "is_valid":
            return 0.95
        return 1.0

    return walk(e)


def _estimate_scan(sf_dir: str, scan: Mapping[str, Any]) -> "tuple[int, int]":
    """(est_rows, est_bytes) of a base-table scan node, filters applied.

    rows/bytes come from parquet footers (pruned to ``columns``); a pushed
    ``filter`` scales both by its estimated selectivity."""
    table = scan["table"]
    rows, ranges = _footer_ranges(sf_dir, table)
    size = _table_bytes(sf_dir, table, scan.get("columns"))
    sel = 1.0
    if scan.get("filter"):
        sel = _estimate_selectivity(scan["filter"], sf_dir, table, ranges)
    return max(1, int(rows * sel)), max(1, int(size * sel))


def optimize(
    spec: Mapping[str, Any],
    sf_dir: str,
    broadcast_max_bytes: int = DEFAULT_BROADCAST_MAX_BYTES,
) -> dict[str, Any]:
    """Naive spec → pushed/pruned/strategy-chosen spec (results unchanged)."""
    spec = copy.deepcopy(dict(spec))
    views = spec.pop("views", None)
    if views:
        # each view (CTE / derived table) is an independent plan
        views = {
            n: optimize(v, sf_dir, broadcast_max_bytes)
            for n, v in views.items()
        }
    if "setop" in spec:
        # set-op root: each branch is an independent plan; the outer ops
        # (sort/limit on the combined result) have nothing to push
        node = spec["setop"]
        node["left"] = optimize(node["left"], sf_dir, broadcast_max_bytes)
        node["right"] = optimize(node["right"], sf_dir, broadcast_max_bytes)
        if views:
            spec["views"] = views
        return spec
    # join right sides and embedded scalar-subquery plans optimize as
    # independent specs FIRST — a right side whose own filter folded into
    # its scan becomes a bare scan the outer passes can push into /
    # broadcast
    for op in spec.get("ops", []):
        if op["op"] in ("join", "cross_join"):
            op["right"] = optimize(op["right"], sf_dir, broadcast_max_bytes)
        if "expr" in op:
            _optimize_scalars(op["expr"], sf_dir, broadcast_max_bytes)
    _push_filters(spec, sf_dir)
    _prune_columns(spec, sf_dir)
    _choose_build_side(spec, sf_dir, broadcast_max_bytes)
    _choose_joins(spec, sf_dir, broadcast_max_bytes)
    _reorder_joins(spec, sf_dir)
    _size_join_partitions(spec, sf_dir)
    if views:
        spec["views"] = views
    return spec


def _optimize_scalars(
    e: dict[str, Any], sf_dir: str, broadcast_max_bytes: int
) -> None:
    if "scalar_subquery" in e:
        e["scalar_subquery"] = optimize(
            e["scalar_subquery"], sf_dir, broadcast_max_bytes
        )
    for a in e.get("args", []):
        _optimize_scalars(a, sf_dir, broadcast_max_bytes)


# ---------------------------------------------------------------------------
# 1. filter push-down
# ---------------------------------------------------------------------------


def _push_filters(spec: dict[str, Any], sf_dir: str) -> None:
    ops = spec.get("ops", [])
    root_is_table = "table" in spec["scan"]
    # view roots accept no scan filters (build ignores them) — push nothing
    root_cols = (
        set(_schema_cols(sf_dir, spec["scan"]["table"]))
        if root_is_table
        else set()
    )

    # join index → (right table, its columns); only bare-scan right sides
    joins: list[dict[str, Any]] = []
    defined: set[str] = set()  # compute aliases defined so far
    kept: list[dict[str, Any]] = []
    pre_join_filters: list[dict[str, Any]] = []  # root-owned, moved to front
    barrier_seen = False

    for op in ops:
        kind = op["op"]
        if kind in _BARRIERS:
            barrier_seen = True
        if kind == "compute":
            defined.add(op["alias"])
            kept.append(op)
            continue
        if kind == "join":
            joins.append(op)
            kept.append(op)
            continue
        if kind != "filter" or barrier_seen:
            kept.append(op)
            continue

        cols: set[str] = set()
        _expr_cols(op["expr"], cols)
        if cols & defined:
            kept.append(op)  # depends on a computed column; stays put
            continue
        all_inner = all(j.get("how", "inner") == "inner" for j in joins)

        if root_is_table and cols and cols <= root_cols and \
                (not joins or all_inner or _passes_left(joins)):
            _absorb(spec["scan"], op, pre_join_filters)
            continue

        owner = None
        for j in joins:
            right = j["right"]
            if right.get("ops") or "table" not in right["scan"]:
                continue
            rcols = set(_schema_cols(sf_dir, right["scan"]["table"]))
            # right key columns are coalesced away post-join; a filter that
            # references them was rebound via compute and already skipped
            if cols <= rcols and j.get("how", "inner") == "inner" and all_inner:
                owner = j
                break
        if owner is not None:
            right_ops: list[dict[str, Any]] = owner["right"].setdefault("ops", [])
            _absorb(owner["right"]["scan"], op, right_ops)
            continue
        kept.append(op)

    spec["ops"] = pre_join_filters + kept


def _passes_left(joins: list[dict[str, Any]]) -> bool:
    """Root-owned filters commute with inner and left_outer joins."""
    return all(j.get("how", "inner") in ("inner", "left_outer") for j in joins)


def _absorb(
    scan: dict[str, Any],
    filt: dict[str, Any],
    residual: list[dict[str, Any]],
) -> None:
    """Attach a filter to ``scan`` (pushable subset) or to ``residual``."""
    if compile_scan_filter(filt["expr"]) is not None:
        scan["filter"] = _and_expr(scan.get("filter"), filt["expr"])
    else:
        residual.append(filt)


# ---------------------------------------------------------------------------
# 2. projection pruning
# ---------------------------------------------------------------------------


def _collect_refs(spec: Mapping[str, Any], out: set[str]) -> None:
    scan = spec.get("scan", {})
    if scan.get("filter"):
        _expr_cols(scan["filter"], out)
    for op in spec.get("ops", []):
        kind = op["op"]
        if kind in ("filter",):
            _expr_cols(op["expr"], out)
        elif kind == "compute":
            _expr_cols(op["expr"], out)
        elif kind == "join":
            out.update(op["on"])
            out.update(op.get("right_on") or op["on"])
            _collect_refs(op["right"], out)
        elif kind == "cross_join":
            _collect_refs(op["right"], out)
        elif kind in ("group_agg", "rollup", "cube"):
            out.update(op.get("keys", []))
            out.update(a[1] for a in op["aggs"])
        elif kind == "quantile":
            out.update(op.get("keys", []))
            out.update(s_[1] for s_ in op["specs"])
        elif kind == "global_agg":
            out.update(a[1] for a in op["aggs"])
        elif kind == "window":
            out.update(op["partition_by"])
            out.update(op["order_by"])
            out.update(s[1] for s in op["specs"] if s[1])
        elif kind == "sort":
            out.update(op["keys"])
        elif kind == "distinct":
            out.update(op["columns"])
        elif kind == "project":
            out.update(op["columns"])
        elif kind == "rename":
            # renamed scans read every source column (conservative: the
            # prefixed targets are what downstream references)
            out.update(op["map"].keys())
        elif kind == "sample":
            out.add(op["key"])
        elif kind == "unpivot":
            out.update(op["id_cols"])
            out.update(op["value_cols"])


def _prune_columns(spec: dict[str, Any], sf_dir: str) -> None:
    ops = spec.get("ops", [])
    if not ops or ops[-1]["op"] != "project":
        return  # SELECT * — output needs every column
    refs: set[str] = set()
    _collect_refs(spec, refs)
    _apply_prune(spec, sf_dir, refs)


def _apply_prune(spec: dict[str, Any], sf_dir: str, refs: set[str]) -> None:
    scan = spec["scan"]
    if "table" in scan and not scan.get("columns"):
        schema_cols = _schema_cols(sf_dir, scan["table"])
        need = [c for c in schema_cols if c in refs]
        if need and len(need) < len(schema_cols):
            scan["columns"] = need
    for op in spec.get("ops", []):
        if op["op"] == "join":
            _apply_prune(op["right"], sf_dir, refs)


# ---------------------------------------------------------------------------
# 3. join strategy
# ---------------------------------------------------------------------------


def _choose_joins(
    spec: dict[str, Any], sf_dir: str, broadcast_max_bytes: int
) -> None:
    """Stats-driven broadcast-vs-cogroup choice per join.

    Build-side size is ESTIMATED, not assumed: footer row counts + pruned
    compressed bytes, scaled by the pushed scan filter's selectivity
    (footer min/max interpolation; ANALYZE ndv when registered) — so a big
    table behind a selective pushed predicate still broadcasts.  The
    estimate is annotated on the op (``est_right``) and rendered by
    ``explain()``.  Reference analog: implementation rules + cost model
    fed from stats storage (src/include/optimizer/rule.h:16-79,
    src/optimizer/cost_model/trivial_cost_model.cpp)."""
    for op in spec.get("ops", []):
        if op["op"] != "join":
            continue
        right = op["right"]
        _choose_joins(right, sf_dir, broadcast_max_bytes)
        if op.get("broadcast"):
            continue
        if any(o["op"] != "rename" for o in right.get("ops", [])):
            continue  # residual right-side batch ops: keep the shuffle join
        if op.get("how", "inner") not in ("inner", "left_outer"):
            continue
        rscan = right["scan"]
        if "table" not in rscan:
            continue  # view right sides keep the shuffle join
        rows, size = _estimate_scan(sf_dir, rscan)
        op["est_right"] = {"rows": rows, "bytes": size}
        if size <= broadcast_max_bytes:
            op["broadcast"] = True


def _choose_build_side(
    spec: dict[str, Any], sf_dir: str, broadcast_max_bytes: int
) -> None:
    """Build-side selection: when the plan's ROOT table is broadcast-small
    and the first join's right side is not, SWAP them so the small side
    builds and the big side probes (streams) — the classic hash-join build
    rule the reference's optimizer applies via statistics
    (src/optimizer/cost_model/trivial_cost_model.cpp; a shuffle of the big
    side costs O(big) network, the swap costs one small broadcast).

    Conservative preconditions (results provably unchanged):
      - root scan is a bare base table; any ops before the first join are
        renames only (they move onto the new broadcast side, which the
        broadcast executor applies to the built table);
      - the first op (after those renames) is an INNER equi join whose
        right side is a base-table scan (any right-side ops become root
        ops of the swapped plan);
      - a later ``project`` fixes the output column ORDER (joins emit
        left-side columns first, so a swap without a project would reorder
        SELECT-* output).
    Key coalescing: the swapped join carries keys under the old RIGHT
    names; a compute rebind per differing pair restores the old left
    names for downstream expressions."""
    ops = spec.get("ops", [])
    scan = spec.get("scan") or {}
    if "table" not in scan:
        return
    ji = 0
    while ji < len(ops) and ops[ji]["op"] == "rename":
        ji += 1
    if ji >= len(ops) or ops[ji]["op"] != "join":
        return
    op = ops[ji]
    right = op.get("right", {})
    rscan = right.get("scan", {})
    if (
        op.get("how", "inner") != "inner"
        or op.get("broadcast")
        or "table" not in rscan
        or not any(o["op"] == "project" for o in ops[ji + 1 :])
    ):
        return
    l_rows, l_size = _estimate_scan(sf_dir, scan)
    r_rows, r_size = _estimate_scan(sf_dir, rscan)
    if not (l_size <= broadcast_max_bytes < r_size):
        return
    left_side: dict[str, Any] = {"scan": scan}
    if ji:  # root renames ride with the (now broadcast) build side
        left_side["ops"] = ops[:ji]
    on, right_on = list(op["on"]), list(op.get("right_on") or op["on"])
    new_join = {
        "op": "join",
        "right": left_side,
        "on": right_on,
        "right_on": on,
        "how": "inner",
        "broadcast": True,
        "swapped_build": True,
        "est_right": {"rows": l_rows, "bytes": l_size},
    }
    rebinds = [
        {"op": "compute", "alias": l, "expr": {"col": r}}
        for l, r in zip(on, right_on)
        if l != r
    ]
    spec["scan"] = rscan
    spec["ops"] = list(right.get("ops", [])) + [new_join] + rebinds + ops[ji + 1 :]


def _right_out_cols(right: Mapping[str, Any], sf_dir: str) -> "list[str] | None":
    """Output column names of a join right-side spec, or None when they
    cannot be derived statically (view scans, batch-shaping ops)."""
    scan = right.get("scan") or {}
    if "table" not in scan:
        return None
    cols = list(scan.get("columns") or _schema_cols(sf_dir, scan["table"]))
    for o in right.get("ops", []):
        kind = o["op"]
        if kind == "rename":
            m = o["map"]
            cols = [m.get(c, c) for c in cols]
        elif kind == "compute":
            if o["alias"] not in cols:
                cols.append(o["alias"])
        elif kind == "project":
            cols = list(o["columns"])
        elif kind != "filter":
            return None
    return cols


def _join_rank(op: dict[str, Any], sf_dir: str):
    """Greedy ordering key: broadcast joins before shuffle joins, smaller
    estimated build first — the selective/cheap join shrinks the stream
    every later exchange sees."""
    est = op.get("est_right")
    if est is None:
        rscan = op["right"].get("scan") or {}
        if "table" in rscan and not any(
            o["op"] != "rename" for o in op["right"].get("ops", [])
        ):
            rows, size = _estimate_scan(sf_dir, rscan)
            est = op["est_right"] = {"rows": rows, "bytes": size}
    return (
        0 if op.get("broadcast") else 1,
        est["bytes"] if est else float("inf"),
    )


def _unit_out_cols(
    unit: list[dict[str, Any]], sf_dir: str
) -> "list[str] | None":
    """Columns a (join + key-rebind computes) unit adds, or None if
    unknown."""
    join = unit[0]
    rc = _right_out_cols(join["right"], sf_dir)
    if rc is None:
        return None
    ron = set(join.get("right_on") or join["on"])
    cols = [c for c in rc if c not in ron]
    cols.extend(o["alias"] for o in unit[1:])
    return cols


def _join_units(
    ops: list[dict[str, Any]], i: int
) -> "tuple[list[list[dict[str, Any]]], int]":
    """From ops[i], collect the maximal run of movable UNITS — an INNER
    join plus the key-rebind computes lowering appends after it (alias =
    the coalesced-away right key, expr = a bare left-key column; such a
    compute needs only the join's own left keys, so it rides with the
    join).  Returns (units, end_index)."""
    units: list[list[dict[str, Any]]] = []
    j = i
    while (
        j < len(ops)
        and ops[j]["op"] == "join"
        and ops[j].get("how", "inner") == "inner"
    ):
        join = ops[j]
        on = set(join["on"])
        ron = set(join.get("right_on") or join["on"])
        unit = [join]
        k = j + 1
        while (
            k < len(ops)
            and ops[k]["op"] == "compute"
            and set(ops[k]["expr"].keys()) == {"col"}
            and ops[k]["alias"] in ron
            and ops[k]["expr"]["col"] in on
        ):
            unit.append(ops[k])
            k += 1
        units.append(unit)
        j = k
    return units, j


def _greedy_join_order(
    units: list[list[dict[str, Any]]], avail: set[str], sf_dir: str
) -> "list[list[dict[str, Any]]] | None":
    """Order join units cheapest-first subject to key availability (a join
    can only move ahead of another if its left keys don't come from that
    other's right side).  Returns None when any unit's output columns are
    unknown or the constraint can't be met."""
    out_cols: dict[int, list[str]] = {}
    for u in units:
        oc = _unit_out_cols(u, sf_dir)
        if oc is None:
            return None
        out_cols[id(u[0])] = oc
    pos = {id(u[0]): k for k, u in enumerate(units)}
    avail = set(avail)
    remaining = list(units)
    ordered: list[list[dict[str, Any]]] = []
    while remaining:
        elig = [u for u in remaining if set(u[0]["on"]) <= avail]
        if not elig:
            return None
        pick = min(
            elig, key=lambda u: (_join_rank(u[0], sf_dir), pos[id(u[0])])
        )
        ordered.append(pick)
        remaining = [u for u in remaining if u is not pick]
        avail |= set(out_cols[id(pick[0])])
    return ordered


def _reorder_joins(spec: dict[str, Any], sf_dir: str) -> None:
    """Stats-driven join ORDERING: within a maximal run of consecutive
    INNER joins, execute selective broadcast joins (smallest estimated
    build first) before shuffle joins, so every later exchange sees the
    already-shrunk stream.  Inner joins commute under SQL multiset
    semantics; a move is made only when the moved join's keys are
    available at the new position, and only when a later ``project`` pins
    the output column order (joins append right-side columns, so the set
    is order-independent but the order isn't).  Moved joins carry
    ``reordered: True`` for ``explain()``.  Reference analog: join-order
    enumeration in the optimizer's rule set
    (src/include/optimizer/rule.h:16-40 LOGICAL_INNER_JOIN commute /
    associate rules) driven by TrivialCostModel."""
    ops = spec.get("ops", [])
    for o in ops:
        if o["op"] in ("join", "cross_join"):
            _reorder_joins(o["right"], sf_dir)
    scan = spec.get("scan") or {}
    if "table" not in scan:
        return
    avail: "set[str] | None" = set(
        scan.get("columns") or _schema_cols(sf_dir, scan["table"])
    )
    i = 0
    while i < len(ops) and avail is not None:
        op = ops[i]
        kind = op["op"]
        if kind == "join" and op.get("how", "inner") == "inner":
            units, j = _join_units(ops, i)
            if len(units) >= 2 and any(
                o2["op"] == "project" for o2 in ops[j:]
            ):
                new_units = _greedy_join_order(units, avail, sf_dir)
                if new_units is not None and [
                    id(u[0]) for u in new_units
                ] != [id(u[0]) for u in units]:
                    pos_old = {id(u[0]): k for k, u in enumerate(units)}
                    for k, u in enumerate(new_units):
                        if pos_old[id(u[0])] != k:
                            u[0]["reordered"] = True
                    ops[i:j] = [o for u in new_units for o in u]
                    spec["ops"] = ops
            for o2 in ops[i:j]:  # availability across the (ordered) run
                if o2["op"] == "compute":
                    avail.add(o2["alias"])
                    continue
                rc = _right_out_cols(o2["right"], sf_dir)
                if rc is None:
                    avail = None
                    break
                ron = set(o2.get("right_on") or o2["on"])
                avail |= {c for c in rc if c not in ron}
            i = j
            continue
        if kind == "rename":
            m = op["map"]
            avail = {m.get(c, c) for c in avail}
        elif kind == "compute":
            avail.add(op["alias"])
        elif kind == "project":
            avail = set(op["columns"])
        elif kind == "join":  # non-inner join: fixed barrier, track cols
            how = op.get("how", "inner")
            if "semi" in how or "anti" in how:
                pass  # semi/anti joins add no right-side columns
            else:
                rc = _right_out_cols(op["right"], sf_dir)
                if rc is None:
                    return
                ron = set(op.get("right_on") or op["on"])
                avail |= {c for c in rc if c not in ron}
        elif kind != "filter":
            return  # aggregates/windows/etc.: no join runs tracked past
        i += 1


#: target estimated compressed input bytes per shuffle-join bucket; the
#: count is clamped to [16, 256] (16 = the historical fixed default — never
#: fewer tasks than today on small inputs; 256 caps tiny-partition overhead)
_JOIN_PARTITION_BYTES = 64 << 20


def _size_join_partitions(spec: dict[str, Any], sf_dir: str) -> None:
    """Stats-driven shuffle-join bucket count (the third fixed heuristic
    after strategy and build side): ~64 MB of estimated, selectivity-scaled
    compressed input per bucket instead of a fixed 16.  Only sizes joins
    whose both sides are bare table scans (the estimate is meaningful) and
    never below the old default, so small-SF plans are unchanged."""
    scan = spec.get("scan") or {}
    for op in spec.get("ops", []):
        if op["op"] in ("join", "cross_join"):
            _size_join_partitions(op["right"], sf_dir)
        if (
            op["op"] != "join"
            or op.get("broadcast")
            or "num_partitions" in op
        ):
            continue
        rscan = op["right"].get("scan") or {}
        if "table" not in scan or "table" not in rscan:
            continue
        total = _estimate_scan(sf_dir, scan)[1] + _estimate_scan(sf_dir, rscan)[1]
        op["num_partitions"] = int(
            max(16, min(256, -(-total // _JOIN_PARTITION_BYTES)))
        )
