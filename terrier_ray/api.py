"""Declarative pipeline-spec API — the user-extension surface.

The reference's user extension point is TPL: user-writable programs over the
engine's operators (77 samples under /root/reference/sample_tpl/, run by
util/execution/tpl.cpp; CREATE FUNCTION exists only as parse/plan nodes with
no execution path).  Our analog: a JSON-able spec interpreted into a composed
``ray.data.Dataset`` pipeline over the same operator layer users could call
directly — useful for config-driven pipelines and for shipping query plans
to a cluster without shipping code.

Spec shape::

    {"scan": {"table": "orders", "columns": [...], }        # required
     "ops": [
       {"op": "filter",  "expr": EXPR},                     # boolean EXPR
       {"op": "compute", "alias": "x", "expr": EXPR},       # add/replace col
       {"op": "project", "columns": [...]},
       {"op": "join", "right": SPEC, "on": [...], "right_on": [...],
        "how": "inner|left_outer|...", "broadcast": false},
       {"op": "group_agg", "keys": [...],
        "aggs": [["sum"|"count"|"min"|"max"|"mean", col, alias], ...]},
       {"op": "window", "partition_by": [...], "order_by": [...],
        "specs": [[kind, col|null, alias], ...]},
       {"op": "sort", "keys": [...], "descending": bool, "limit": N},
       {"op": "sample", "key": col, "permil": N},          # deterministic
       {"op": "unpivot", "id_cols": [...], "value_cols": [...]},
       {"op": "rollup", "keys": [...], "aggs": [[op, col, alias], ...]},
     ]}

EXPR is a tree: ``{"col": name}`` | ``{"lit": value}`` |
``{"fn": pyarrow-compute-name, "args": [EXPR, ...]}`` — e.g.
``{"fn": "greater", "args": [{"col": "o_totalprice"}, {"lit": 100.0}]}``.
Only ``pyarrow.compute`` kernels and the few SQL builtins in ``_KERNELS``
are reachable: the spec stays declarative and safe (no eval of user code
strings).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from terrier_ray.ops.relational import (
    broadcast_join,
    filter_batches,
    grouped_aggregate,
    partitioned_join,
    project,
    read_table,
    sort_limit,
    with_columns,
)
from terrier_ray.ops.window import first_rows, windowed


def _lit_value(e: Mapping[str, Any]):
    v = e["lit"]
    if e.get("type") == "timestamp":
        import datetime as dt

        return pa.scalar(dt.datetime.fromisoformat(v), type=pa.timestamp("us"))
    if e.get("type") == "interval":  # microseconds
        return pa.scalar(v, type=pa.duration("us"))
    return v


def _per_array(fn):
    """Lift an Array → Array kernel to the EXPR calling convention: a
    literal first argument gives a scalar back (with_columns broadcasts)."""

    def call(x, *rest):
        if isinstance(x, (pa.Array, pa.ChunkedArray)):
            return fn(x, *rest)
        return fn(pa.array([x]), *rest)[0].as_py()

    return call


def _cbrt(x):
    # np.cbrt, not power(x, 1/3): the power is NaN for negative x
    x = pc.cast(x, pa.float64())
    return pa.array(np.cbrt(x.to_numpy(zero_copy_only=False)),
                    mask=pc.is_null(x).to_numpy(zero_copy_only=False))


def _ascii(s):
    # codepoint of the first character; '' is 0
    first = pc.utf8_slice_codeunits(s, 0, 1).to_pylist()
    return pa.array([c if c is None else ord(c) if c else 0 for c in first],
                    pa.int64())


def _chr(n):
    return pa.array([v if v is None else chr(v) for v in n.to_pylist()],
                    pa.string())


def _json_extract(s, path: str):
    # '$.a.b' paths; the value comes back as compact JSON text, like
    # DuckDB's JSON type cast to VARCHAR; a missing key is NULL.  Each
    # distinct document is parsed once.
    if not path.startswith("$."):
        raise ValueError(f"unsupported JSON path {path!r}")
    keys = path[2:].split(".")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    enc = pc.dictionary_encode(s)
    out = []
    for v in enc.dictionary.to_pylist():
        x = json.loads(v)
        for k in keys:
            x = x.get(k) if isinstance(x, dict) else None
        out.append(None if x is None else json.dumps(
            x, separators=(",", ":"), ensure_ascii=False))
    return pa.array(out, pa.string()).take(enc.indices)


#: SQL builtins with no pyarrow.compute kernel, named in EXPR trees like one
_KERNELS = {
    name: _per_array(fn) for name, fn in {
        "cbrt": _cbrt, "ascii": _ascii, "chr": _chr,
        "json_extract": _json_extract,
    }.items()
}


def _compile_expr(e: Mapping[str, Any]):
    """EXPR tree → fn(pa.Table) -> pa.Array, resolving pc kernels by name.

    Literals may carry ``"type": "timestamp"`` (ISO string → pa.scalar).
    The ``is_in`` kernel takes its value list via the ``__value_set``
    option (JSON-able; compiled to a pa.array once)."""
    if "col" in e:
        name = e["col"]
        return lambda b: b.column(name)
    if "lit" in e:
        v = _lit_value(e)
        return lambda b: v
    if "fn" in e:
        fn_name = e["fn"]
        kernel = _KERNELS.get(fn_name) or getattr(pc, fn_name, None)
        if kernel is None:
            raise ValueError(f"unknown pyarrow.compute kernel {fn_name!r}")
        arg_fns = [_compile_expr(a) for a in e.get("args", [])]
        opts = dict(e.get("options", {}))
        if "__value_set" in opts:
            opts["value_set"] = pa.array(opts.pop("__value_set"))
        return lambda b: kernel(*(f(b) for f in arg_fns), **opts)
    if "udf" in e:
        # resolved at COMPILE time so the pickled closure ships the
        # callable to every worker (no cross-cluster registry sync)
        from terrier_ray.sql.udf import lookup

        udf = lookup(e["udf"])
        if udf is None:
            raise ValueError(f"unknown UDF {e['udf']!r} (dropped?)")
        arg_fns = [_compile_expr(a) for a in e.get("args", [])]
        return lambda b: udf(*(f(b) for f in arg_fns))
    raise ValueError(f"bad expr node: {e!r}")


#: filter-tree nodes pushable into a parquet scan (see rewrite.pushdown)
_PUSH_CMP = {
    "equal": "==",
    "not_equal": "!=",
    "less": "<",
    "less_equal": "<=",
    "greater": ">",
    "greater_equal": ">=",
}


def compile_scan_filter(e: Mapping[str, Any]):
    """EXPR tree (pushable subset) → pyarrow.dataset Expression, or None.

    Pushable: comparisons of a column vs a literal, ``is_in``,
    ``is_null``/``is_valid``, and AND/OR combinations thereof.  Returns
    None when any node falls outside that subset (caller keeps the filter
    as a batch op instead)."""
    import pyarrow.dataset as pads

    def walk(n: Mapping[str, Any]):
        if "fn" not in n:
            return None
        fn = n["fn"]
        args = n.get("args", [])
        if fn in ("and_kleene", "and_"):
            l, r = walk(args[0]), walk(args[1])
            return (l & r) if l is not None and r is not None else None
        if fn in ("or_kleene", "or_"):
            l, r = walk(args[0]), walk(args[1])
            return (l | r) if l is not None and r is not None else None
        if fn in _PUSH_CMP and len(args) == 2:
            a, b = args
            if "col" in a and "lit" in b:
                f, v = pads.field(a["col"]), _lit_value(b)
            elif "lit" in a and "col" in b:
                flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                op = _PUSH_CMP[fn]
                op = flip.get(op, op)
                f, v = pads.field(b["col"]), _lit_value(a)
                return _apply_cmp(f, op, v)
            else:
                return None
            return _apply_cmp(f, _PUSH_CMP[fn], v)
        if fn == "is_in" and "col" in args[0]:
            vals = n.get("options", {}).get("__value_set")
            if vals is None:
                return None  # unknown option key: not pushable, never isin([])
            return pads.field(args[0]["col"]).isin(list(vals))
        if fn == "is_null" and "col" in args[0]:
            return pads.field(args[0]["col"]).is_null()
        if fn == "is_valid" and "col" in args[0]:
            return ~pads.field(args[0]["col"]).is_null()
        return None

    return walk(e)


def _apply_cmp(f, op: str, v):
    return {
        "==": lambda: f == v,
        "!=": lambda: f != v,
        "<": lambda: f < v,
        "<=": lambda: f <= v,
        ">": lambda: f > v,
        ">=": lambda: f >= v,
    }[op]()


class _ViewContext:
    """Execution context for named views (CTEs / derived tables).

    Holds the ``views`` map from the spec root, builds each view's dataset
    at most once, and materializes a view only when the plan references it
    more than once (a second consumption of a lazy Dataset would re-execute
    its whole lineage — and partitioned_join's schema probe re-executes it
    even for single consumers of long pipelines)."""

    def __init__(self, root_spec: Mapping[str, Any], sf_dir: str):
        self.views: Mapping[str, Any] = root_spec.get("views") or {}
        self.sf_dir = sf_dir
        self.cache: dict[str, Any] = {}
        self.refs: dict[str, int] = {name: 0 for name in self.views}
        self._count(root_spec)
        for v in self.views.values():
            self._count(v)

    def _count(self, spec: Mapping[str, Any]) -> None:
        if "setop" in spec:
            self._count(spec["setop"]["left"])
            self._count(spec["setop"]["right"])
        scan = spec.get("scan")
        if scan and "view" in scan:
            self.refs[scan["view"]] = self.refs.get(scan["view"], 0) + 1
        for op in spec.get("ops", []):
            if op["op"] in ("join", "cross_join"):
                self._count(op["right"])
            if "expr" in op:
                self._count_expr(op["expr"])

    def _count_expr(self, e: Mapping[str, Any]) -> None:
        if "scalar_subquery" in e:
            self._count(e["scalar_subquery"])
        for a in e.get("args", []):
            self._count_expr(a)

    def dataset(self, name: str):
        if name not in self.cache:
            ds = build(self.views[name], self.sf_dir, _ctx=self)
            if self.refs.get(name, 0) > 1:
                ds = ds.materialize()
            self.cache[name] = ds
        return self.cache[name]


def _resolve_scalar(sub_spec: Mapping[str, Any], sf_dir: str, ctx) -> dict:
    """Execute an uncorrelated scalar subquery spec → literal EXPR node.

    One row / one column by construction; an empty result is SQL NULL."""
    ds = build(sub_spec, sf_dir, _ctx=ctx)
    tabs = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    tab = pa.concat_tables(tabs) if tabs else None
    if tab is None or tab.num_rows == 0:
        return {"lit": None}
    col = tab.column(0)
    if pa.types.is_timestamp(col.type):
        return {"lit": col[0].as_py().isoformat(), "type": "timestamp"}
    return {"lit": col[0].as_py()}


def _subst_scalars(e: Mapping[str, Any], sf_dir: str, ctx) -> Mapping[str, Any]:
    if "scalar_subquery" in e:
        return _resolve_scalar(e["scalar_subquery"], sf_dir, ctx)
    if ("fn" in e or "udf" in e) and e.get("args"):
        return {
            **e,
            "args": [_subst_scalars(a, sf_dir, ctx) for a in e["args"]],
        }
    return e


def _build_setop(node: Mapping[str, Any], sf_dir: str, ctx=None):
    """UNION / INTERSECT / EXCEPT [ALL] root: branches build recursively,
    columns match by position, the left branch names the output."""
    from terrier_ray.ops.relational import distinct, setop_all, union_all

    left = build(node["left"], sf_dir, _ctx=ctx)
    right = build(node["right"], sf_dir, _ctx=ctx)
    lcols, rcols = list(node["left_cols"]), list(node["right_cols"])
    mode = node["mode"]
    if mode in ("union", "union_all"):
        left = left.map_batches(
            lambda b, c=lcols: b.select(c),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        right = right.map_batches(
            lambda b, rc=rcols, lc=lcols: b.select(rc).rename_columns(lc),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        ds = union_all(left, right)
        return distinct(ds, lcols) if mode == "union" else ds
    op = mode.removesuffix("_all")
    return setop_all(
        left, right, lcols, right_columns=rcols, mode=op,
        dedupe=not mode.endswith("_all"),
    )


def _values_table(v: Mapping[str, Any]) -> pa.Table:
    """A VALUES list's rows as an Arrow table."""
    return pa.table({
        c: pa.array([r[i] for r in v["rows"]], type=pa.type_for_alias(t))
        for i, (c, t) in enumerate(zip(v["columns"], v["types"]))
    })


def build(spec: Mapping[str, Any], sf_dir: str, _ctx=None):
    """Interpret ``spec`` into a (lazy) ``ray.data.Dataset``.

    ``_ctx`` (internal) threads the view registry + cache through nested
    builds; scalar-subquery EXPR nodes are executed here (once, driver
    side) and substituted as literals before compilation."""
    if _ctx is None:
        _ctx = _ViewContext(spec, sf_dir)
    if "setop" in spec:
        ds = _build_setop(spec["setop"], sf_dir, _ctx)
    else:
        scan = spec["scan"]
        if "view" in scan:
            ds = _ctx.dataset(scan["view"])
        elif "values" in scan:
            import ray.data as rd

            ds = rd.from_arrow(_values_table(scan["values"]))
        else:
            scan_filter = (
                compile_scan_filter(scan["filter"])
                if scan.get("filter")
                else None
            )
            ds = read_table(
                sf_dir,
                scan["table"],
                columns=scan.get("columns"),
                filter=scan_filter,
            )
    for op in spec.get("ops", []):
        kind = op["op"]
        if kind == "filter":
            mask_fn = _compile_expr(_subst_scalars(op["expr"], sf_dir, _ctx))
            ds = filter_batches(ds, mask_fn)
        elif kind == "compute":
            ds = with_columns(
                ds,
                {op["alias"]: _compile_expr(
                    _subst_scalars(op["expr"], sf_dir, _ctx)
                )},
            )
        elif kind == "project":
            ds = project(ds, op["columns"])
        elif kind == "rename":
            mapping = dict(op["map"])

            def _rename(batch: pa.Table, m=mapping) -> pa.Table:
                return batch.rename_columns(
                    [m.get(c, c) for c in batch.column_names]
                )

            ds = ds.map_batches(
                _rename, batch_format="pyarrow", zero_copy_batch=True
            )
        elif kind == "join":
            right_spec = op["right"]
            how = op.get("how", "inner")
            if op.get("broadcast"):
                import pyarrow.dataset as pads

                rscan = right_spec["scan"]
                rops = right_spec.get("ops", [])
                if any(o["op"] != "rename" for o in rops):
                    raise ValueError("broadcast right side must be a bare scan")
                small = pads.dataset(
                    f"{sf_dir.rstrip('/')}/{rscan['table']}.parquet"
                ).to_table(
                    columns=rscan.get("columns"),
                    filter=(
                        compile_scan_filter(rscan["filter"])
                        if rscan.get("filter")
                        else None
                    ),
                )
                for o in rops:
                    small = small.rename_columns(
                        [o["map"].get(c, c) for c in small.column_names]
                    )
                arrow_how = {"inner": "inner", "left_outer": "left outer"}[how]
                ds = broadcast_join(
                    ds, small, keys=op["on"],
                    right_keys=op.get("right_on"), join_type=arrow_how,
                )
            else:
                ds = partitioned_join(
                    ds,
                    build(right_spec, sf_dir, _ctx=_ctx),
                    on=op["on"],
                    right_on=op.get("right_on"),
                    join_type=how,
                    num_partitions=op.get("num_partitions", 16),
                )
        elif kind == "cross_join":
            import pyarrow.dataset as pads

            from terrier_ray.ops.relational import cross_join

            rscan = op["right"]["scan"]
            rops = op["right"].get("ops", [])
            if any(o["op"] != "rename" for o in rops):
                raise ValueError("cross_join right side must be a bare scan")
            view = _ctx.views.get(rscan.get("view"), {}).get("scan", {})
            if "values" in view:
                ds = cross_join(ds, _values_table(view["values"]))
                continue
            small = pads.dataset(
                f"{sf_dir.rstrip('/')}/{rscan['table']}.parquet"
            ).to_table(
                columns=rscan.get("columns"),
                filter=(
                    compile_scan_filter(rscan["filter"])
                    if rscan.get("filter")
                    else None
                ),
            )
            for o in rops:
                small = small.rename_columns(
                    [o["map"].get(c, c) for c in small.column_names]
                )
            ds = cross_join(ds, small)
        elif kind == "group_agg":
            ds = grouped_aggregate(
                ds, op["keys"], [tuple(a) for a in op["aggs"]]
            )
        elif kind == "quantile":
            from terrier_ray.ops.orderagg import grouped_quantiles

            ds = grouped_quantiles(
                ds, op["keys"], [tuple(s) for s in op["specs"]],
                num_partitions=op.get("num_partitions", 32),
            )
        elif kind == "window":
            if "top" in op:
                ds = first_rows(
                    ds, op["partition_by"], op["order_by"], op["top"],
                    descending=op.get("descending", False),
                )
            ds = windowed(
                ds,
                op["partition_by"],
                op["order_by"],
                [tuple(s) for s in op["specs"]],
                num_partitions=op.get("num_partitions", 32),
                descending=op.get("descending", False),
            )
        elif kind == "sort":
            ds = sort_limit(
                ds, op["keys"],
                descending=op.get("descending", False), limit=op.get("limit"),
            )
        elif kind == "sample":
            from terrier_ray.ops.sample import bernoulli_sample

            ds = bernoulli_sample(ds, op["key"], op["permil"])
        elif kind == "unpivot":
            from terrier_ray.ops.relational import unpivot

            ds = unpivot(
                ds,
                op["id_cols"],
                op["value_cols"],
                op.get("name_col", "name"),
                op.get("value_col", "value"),
            )
        elif kind in ("rollup", "cube"):
            import ray.data as rd

            from terrier_ray.ops.relational import (
                cube_aggregate,
                rollup_aggregate,
            )

            fn = rollup_aggregate if kind == "rollup" else cube_aggregate
            out = fn(ds, op["keys"], [tuple(a) for a in op["aggs"]])
            # grouping-sets refolds finish as a bounded-small arrow table
            ds = rd.from_arrow(out) if isinstance(out, pa.Table) else out
        elif kind == "global_agg":
            import ray.data as rd

            from terrier_ray.ops.relational import global_aggregate

            ds = rd.from_arrow(
                global_aggregate(ds, [tuple(a) for a in op["aggs"]])
            )
        elif kind == "distinct":
            from terrier_ray.ops.relational import distinct as _distinct

            ds = _distinct(ds, op["columns"])
        elif kind == "limit":
            # LIMIT n OFFSET m over the (already ordered) stream: the
            # surviving n+m rows are bounded-small by construction, so the
            # offset slice runs driver-side on an arrow table
            import ray.data as rd

            n, off = op["n"], op.get("offset", 0)
            head = ds.limit(n + off)
            tabs = list(
                head.iter_batches(batch_size=None, batch_format="pyarrow")
            )
            tab = (
                pa.concat_tables(tabs)
                if tabs
                # zero batches must keep column names/types (a following
                # project would raise on pa.table({}))
                else ds.schema().base_schema.empty_table()
            )
            ds = rd.from_arrow(tab.slice(off, n))
        else:
            raise ValueError(f"unknown op {kind!r}")
    return ds


def explain(spec: Mapping[str, Any], indent: str = "") -> str:
    """Textual plan of the spec (static; no execution)."""
    lines: list[str] = []
    for name, vspec in (spec.get("views") or {}).items():
        lines.append(f"{indent}View {name}:")
        lines.append(explain(vspec, indent + "    "))
    if "setop" in spec:
        node = spec["setop"]
        lines.append(f"{indent}SetOp[{node['mode']}] cols={node['left_cols']}")
        lines.append(explain(node["left"], indent + "    "))
        lines.append(explain(node["right"], indent + "    "))
        for op in spec.get("ops", []):
            lines.append(f"{indent}{op['op'].capitalize()}")
        return "\n".join(lines)
    scan = spec["scan"]
    if "values" in scan:
        src = f"values rows={len(scan['values']['rows'])}"
    else:
        src = scan["table"] if "table" in scan else f"view:{scan['view']}"
    lines.append(f"{indent}Scan {src} cols={scan.get('columns') or '*'}")
    for op in spec.get("ops", []):
        kind = op["op"]
        if kind == "join":
            side = "broadcast" if op.get("broadcast") else "shuffle-cogroup"
            est = op.get("est_right")
            extra = (
                f" build~{est['rows']}rows/{est['bytes']}B" if est else ""
            )
            if op.get("swapped_build"):
                extra += " (build side swapped: small probe→build)"
            if op.get("reordered"):
                extra += " (stats-reordered)"
            if not op.get("broadcast") and op.get("num_partitions"):
                extra += f" parts={op['num_partitions']}"
            lines.append(
                f"{indent}Join[{op.get('how', 'inner')},{side}] on={op['on']}{extra}"
            )
            lines.append(explain(op["right"], indent + "    "))
        elif kind == "group_agg":
            lines.append(
                f"{indent}GroupAgg keys={op['keys']} aggs={op['aggs']} (map-side partials)"
            )
        elif kind == "window":
            lines.append(
                f"{indent}Window part={op['partition_by']} specs={[s[0] for s in op['specs']]}"
                + (f" top={op['top']} (map-side prune)" if "top" in op else "")
            )
        elif kind == "sort":
            lines.append(
                f"{indent}Sort keys={op['keys']} limit={op.get('limit')}"
            )
        else:
            lines.append(f"{indent}{kind.capitalize()}")
    return "\n".join(lines)
