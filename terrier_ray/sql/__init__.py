"""SQL front-end: text → AST → spec → optimized spec → Ray Data pipeline.

The reference's primary entry point is SQL over the wire —
parser::PostgresParser (/root/reference/src/parser/postgresparser.cpp) →
binder → optimizer → plan, dispatched by traffic_cop
(/root/reference/src/traffic_cop/traffic_cop.cpp:323-379).  This package is
that path re-expressed over the declarative spec API: ``sql()`` takes an
ANSI SELECT (the subset in parser.py), lowers it onto ``terrier_ray.api``
spec verbs with DuckDB-identical value semantics (see lower.py docstring),
runs the rewrite pass (rewrite.py — push-down, pruning, join strategy),
and builds a lazy ``ray.data.Dataset``.
"""

from __future__ import annotations

from typing import Any, Mapping

import pyarrow as pa
from ray.data import Dataset

from terrier_ray.sql.lower import Catalog, lower, output_schema
from terrier_ray.sql.parser import parse
from terrier_ray.sql.rewrite import optimize
from terrier_ray.sql.udf import drop_function, register_function


def plan(
    query: str,
    sf_dir: str,
    optimized: bool = True,
    params: "Any | None" = None,
) -> Mapping[str, Any]:
    """SQL text → executable spec (optimized unless ``optimized=False``).

    ``params`` binds ``$n`` placeholders (1-based) before lowering — the
    extended-query-protocol shape (reference: parser/expression_defs.h:66
    PARAMETER, network/postgres/statement.cpp)."""
    from terrier_ray.sql.ast import Delete, Insert, InsertValues, Update, bind_params

    stmt = parse(query)
    if params is not None:
        stmt = bind_params(stmt, list(params))
    if isinstance(stmt, (Insert, InsertValues, Delete, Update)):
        raise ValueError(
            "INSERT/UPDATE/DELETE execute via sql_dml(), not plan()/sql()"
        )
    return _plan_stmt(stmt, sf_dir, optimized)


def _plan_stmt(stmt, sf_dir: str, optimized: bool = True) -> Mapping[str, Any]:
    catalog = Catalog(sf_dir)
    spec = dict(lower(stmt, catalog))
    if catalog.views:
        spec["views"] = catalog.views  # CTE / derived-table plans by name
    return optimize(spec, sf_dir) if optimized else spec


class SelectResult(Dataset):
    """The lazy Dataset ``sql()`` and ``PreparedStatement.execute()`` return.

    Ray Data's ``to_pandas()`` gives a frame with no columns when a Dataset
    has no rows (its batcher drops empty blocks).  For a SELECT with no
    rows this one returns the SELECT list's names, typed as the query
    yields them on non-empty input — DuckDB's empty-result shape.  A
    column of NULLs with no type (a global aggregate over no rows: Ray
    Data keeps no schema for empty blocks, so the aggregate cannot learn
    its input's types) gets the same typing: SUM over no rows is a float64
    NaN, as in DuckDB, not an object None.  The SELECT's schema is planned
    only in those two cases.  Transformations return plain Datasets."""

    _select: "tuple[str, str, Any] | None" = None

    def to_pandas(self, limit: "int | None" = None):
        df = super().to_pandas(limit=limit)
        if self._select is None:
            return df
        untyped = [c for c in df.columns if df[c].dtype == object and df[c].isna().all()]
        if len(df.columns) and not untyped:
            return df
        from terrier_ray.sql.ast import bind_params

        query, sf_dir, params = self._select
        stmt = parse(query)
        if params is not None:
            stmt = bind_params(stmt, list(params))
        schema = output_schema(stmt, Catalog(sf_dir))
        if not len(df.columns):
            return schema.empty_table().to_pandas()
        for c in untyped:
            df[c] = pa.array(df[c], type=schema.field(c).type).to_pandas()
        return df


def _select_result(ds: Dataset, query: str, sf_dir: str, params) -> SelectResult:
    res = Dataset.copy(ds, _as=SelectResult)
    res._select = (query, sf_dir, params)
    return res


def sql(query: str, sf_dir: str, optimized: bool = True,
        params: "Any | None" = None) -> SelectResult:
    """Execute a SELECT over the sf_dir parquet tables → lazy Dataset."""
    from terrier_ray.api import build

    ds = build(plan(query, sf_dir, optimized=optimized, params=params), sf_dir)
    return _select_result(ds, query, sf_dir, params)


class PreparedStatement:
    """Parse-once / execute-many SELECT statement — the extended-query-
    protocol object (reference: network/postgres/statement.cpp caches the
    parsed statement per session; PARAMETER expressions bind at Execute,
    parser/expression_defs.h:66).

    ``prepare()`` pays parsing once; every ``execute(params)`` binds the
    ``$n`` placeholders as typed literals into the CACHED AST, then lowers
    and optimizes — deliberately per-execute, because bound literals feed
    constant pushdown (parquet row-group pruning), the optimization a
    placeholder-shaped cached plan could not perform.  Lowering is
    microseconds next to any distributed read, so the trade is free here;
    the reference re-optimizes on bind for the same reason when parameter
    peeking matters.
    """

    def __init__(self, query: str, sf_dir: str, optimized: bool = True):
        from terrier_ray.sql.ast import Delete, Insert, InsertValues, Update

        self.query = query
        self.sf_dir = sf_dir
        self.optimized = optimized
        self._stmt = parse(query)
        if isinstance(self._stmt, (Insert, InsertValues, Delete, Update)):
            raise ValueError("prepare() takes a SELECT; DML runs via sql_dml()")

    def plan(self, params: "Any | None" = None) -> Mapping[str, Any]:
        from terrier_ray.sql.ast import bind_params

        # Always bind (None -> []): a prepared statement is exactly the
        # surface where $n placeholders are expected, and binding against
        # the empty list turns execute() on a parameterized statement into
        # the clear "no value bound for parameter $n" error instead of an
        # unlowered-Param failure deep in the planner.  Unparameterized
        # statements pass through bind_params untouched.
        stmt = bind_params(self._stmt, list(params) if params is not None else [])
        return _plan_stmt(stmt, self.sf_dir, self.optimized)

    def execute(self, params: "Any | None" = None) -> SelectResult:
        """Bind + lower + build → lazy Dataset."""
        from terrier_ray.api import build

        ds = build(self.plan(params), self.sf_dir)
        return _select_result(ds, self.query, self.sf_dir, params)


def prepare(query: str, sf_dir: str, optimized: bool = True) -> PreparedStatement:
    """PREPARE analog: returns a reusable parse-cached statement handle."""
    return PreparedStatement(query, sf_dir, optimized=optimized)


def _values_literal(e):
    """Evaluate a VALUES row expression: literals, bound $n params (already
    substituted by bind_params), NULL, and signed numbers.  Anything richer
    belongs in INSERT INTO t SELECT ..."""
    from terrier_ray.sql.ast import Lit, Unary

    if isinstance(e, Lit):
        if e.type == "timestamp":
            import datetime as _dt

            return _dt.datetime.fromisoformat(e.value)
        if e.type == "date":
            import datetime as _dt

            return _dt.date.fromisoformat(e.value)
        return e.value
    if isinstance(e, Unary) and e.op == "neg":
        return -_values_literal(e.operand)
    raise ValueError(
        f"INSERT ... VALUES supports literals/$n parameters, got {type(e).__name__}"
    )


def sql_dml(
    query: str,
    sf_dir: str,
    stores: Mapping[str, str],
    params: "Any | None" = None,
) -> int:
    """Execute ``INSERT INTO t SELECT …`` / ``UPDATE t SET … [WHERE …]`` /
    ``DELETE FROM t [WHERE …]``.

    ``stores`` maps mutable table names to snapshot-store roots
    (state/snapshots.py); SELECT sources and SET/WHERE columns bind against
    the sf_dir catalog and the target snapshot's schema respectively.
    Returns the newly published snapshot version (INSERT = append parts,
    UPDATE = mapped rewrite, DELETE = filtered rewrite; all leave prior
    versions readable — time travel).  Reference analog:
    insert_translator.cpp / update_translator.cpp / delete_translator.cpp,
    here lowered onto immutable snapshots instead of MVCC in-place
    writes."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from terrier_ray.api import _compile_expr, build
    from terrier_ray.sql.ast import Delete, Insert, InsertValues, Update, bind_params
    from terrier_ray.sql.lower import Binder, _Lowerer
    from terrier_ray.state import snapshots

    stmt = parse(query)
    if params is not None:
        stmt = bind_params(stmt, list(params))
    if isinstance(stmt, Insert):
        if stmt.table not in stores:
            raise ValueError(f"unknown mutable table {stmt.table!r}")
        root = stores[stmt.table]
        ds = build(_plan_stmt(stmt.select, sf_dir), sf_dir)
        target = pads.dataset(snapshots.snapshot_dir(root)).schema
        names = list(target.names)
        got = [f.name for f in ds.schema().base_schema]
        if set(got) != set(names):
            raise ValueError(
                f"INSERT column mismatch: select yields {got}, table has {names}"
            )
        if got != names:
            ds = ds.map_batches(
                lambda b: b.select(names),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        return snapshots.append_rows(root, ds)
    if isinstance(stmt, InsertValues):
        if stmt.table not in stores:
            raise ValueError(f"unknown mutable table {stmt.table!r}")
        root = stores[stmt.table]
        target = pads.dataset(snapshots.snapshot_dir(root)).schema
        names = stmt.columns if stmt.columns is not None else list(target.names)
        unknown = [c for c in names if c not in target.names]
        if unknown:
            raise ValueError(f"INSERT columns not in table: {unknown}")
        for r in stmt.rows:
            if len(r) != len(names):
                raise ValueError(
                    f"INSERT row has {len(r)} values for {len(names)} columns"
                )
        cols = {}
        for j, c in enumerate(target.names):
            typ = target.field(c).type
            if c in names:
                vals = [_values_literal(r[names.index(c)]) for r in stmt.rows]
            else:  # unspecified column → NULL
                vals = [None] * len(stmt.rows)
            cols[c] = pa.array(vals).cast(typ) if vals else pa.nulls(0, typ)
        import ray.data as rd

        return snapshots.append_rows(
            root, rd.from_arrow(pa.table(cols).cast(target))
        )
    if isinstance(stmt, Delete):
        if stmt.table not in stores:
            raise ValueError(f"unknown mutable table {stmt.table!r}")
        root = stores[stmt.table]
        if stmt.where is None:  # DELETE all rows
            return snapshots.delete_rows(
                root, lambda b: pa.array([False] * b.num_rows, type=pa.bool_())
            )
        schema = pads.dataset(snapshots.snapshot_dir(root)).schema
        catalog = Catalog(sf_dir)
        catalog.register_view(stmt.table, schema, {"scan": {"table": stmt.table}})
        node = _Lowerer(Binder(catalog, [(stmt.table, None)])).lower(stmt.where)
        cond = _compile_expr(node)

        def keep(batch: pa.Table):
            # DELETE removes rows where the predicate is TRUE; FALSE and
            # NULL rows stay (SQL three-valued semantics)
            return pc.fill_null(pc.invert(cond(batch)), True)

        return snapshots.delete_rows(root, keep)
    if isinstance(stmt, Update):
        if stmt.table not in stores:
            raise ValueError(f"unknown mutable table {stmt.table!r}")
        root = stores[stmt.table]
        schema = pads.dataset(snapshots.snapshot_dir(root)).schema
        catalog = Catalog(sf_dir)
        catalog.register_view(stmt.table, schema, {"scan": {"table": stmt.table}})
        low = _Lowerer(Binder(catalog, [(stmt.table, None)]))
        set_fns = []
        for col, e in stmt.sets:
            if col not in schema.names:
                raise ValueError(f"UPDATE target column {col!r} not in table")
            set_fns.append((col, _compile_expr(low.lower(e))))
        cond = (
            _compile_expr(low.lower(stmt.where)) if stmt.where is not None else None
        )

        def _fit(val, typ):
            # SET value → something pc.if_else can blend with the old
            # column: arrays cast to the column type, literals to a typed
            # scalar (if_else broadcasts scalars)
            if isinstance(val, pa.ChunkedArray):
                val = val.combine_chunks()
            if isinstance(val, pa.Array):
                return val if val.type == typ else pc.cast(val, typ)
            if not isinstance(val, pa.Scalar):
                val = pa.scalar(val)
            return val if val.type == typ else val.cast(typ)

        def transform(batch: pa.Table) -> pa.Table:
            # UPDATE applies where the predicate is TRUE; FALSE and NULL
            # rows keep their old values (SQL three-valued semantics).
            # All SET expressions read the ORIGINAL batch (SET a=b, b=a
            # swaps), then the columns are replaced.
            mask = pc.fill_null(cond(batch), False) if cond is not None else None
            news = [(col, fn(batch)) for col, fn in set_fns]
            for col, val in news:
                i = batch.schema.get_field_index(col)
                old = batch.column(i)
                val = _fit(val, old.type)
                new = val if mask is None else pc.if_else(mask, val, old)
                if isinstance(new, pa.Scalar):  # unconditional literal SET
                    new = pc.fill_null(pa.nulls(batch.num_rows, old.type), new)
                batch = batch.set_column(i, batch.field(i), new)
            return batch

        return snapshots.update_rows(root, transform)
    raise ValueError("sql_dml requires an INSERT, UPDATE or DELETE statement")


def explain(query: str, sf_dir: str, optimized: bool = True) -> str:
    """Textual plan for a SQL query (no execution)."""
    from terrier_ray.api import explain as _explain

    return _explain(plan(query, sf_dir, optimized=optimized))


def explain_analyze(query: str, sf_dir: str, optimized: bool = True,
                    params: "Any | None" = None):
    """EXPLAIN ANALYZE: execute the SELECT and report per-operator runtime
    metrics from the streaming executor.

    Returns ``(result, metrics)`` — ``result`` is the fully-executed
    (materialized) Dataset, ``metrics`` a pyarrow Table with one row per
    executed operator (fused stages appear under their fused name, shuffle
    sub-operators prefixed with the parent): output rows/bytes and total
    wall/cpu/UDF seconds summed over the operator's tasks.  This is the
    runtime half the static ``explain()`` lacks — the reference records the
    same per-pipeline operating-unit features for its self-driving models
    (src/self_driving/modeling/operating_unit_recorder.cpp; metrics are
    accumulated per pipeline into the MetricsStore,
    src/include/metrics/metrics_store.h).

    Timing values are runtime-dependent by nature; consumers that need
    determinism should read only ``operator``/``rows_out``.
    """
    import pyarrow as pa

    ds = sql(query, sf_dir, optimized=optimized, params=params).materialize()
    ops: list[dict] = []
    try:  # private stats API (same family raycompat already leans on)
        summ = ds._get_stats_summary()
        flat: list = []

        def _walk(s) -> None:  # parents hold the upstream stages
            for parent in s.parents:
                _walk(parent)
            flat.extend(s.operators_stats)

        _walk(summ)  # source-first, like the static explain()
        for op in flat:
            name = op.operator_name
            rows = op.output_num_rows or {}
            size = op.output_size_bytes or {}
            wall = op.wall_time or {}
            cpu = op.cpu_time or {}
            udf = op.udf_time or {}
            ops.append(
                {
                    "operator": name,
                    "rows_out": int(rows.get("sum", 0) or 0),
                    "bytes_out": int(size.get("sum", 0) or 0),
                    "wall_s": float(wall.get("sum", 0.0) or 0.0),
                    "cpu_s": float(cpu.get("sum", 0.0) or 0.0),
                    "udf_s": float(udf.get("sum", 0.0) or 0.0),
                }
            )
    except Exception:  # stats shape changed: degrade to the result row only
        pass
    ops.append(
        {
            "operator": "Result",
            "rows_out": int(ds.count()),
            "bytes_out": 0,
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "udf_s": 0.0,
        }
    )
    metrics = pa.table(
        {
            "operator": pa.array([o["operator"] for o in ops], pa.string()),
            "rows_out": pa.array([o["rows_out"] for o in ops], pa.int64()),
            "bytes_out": pa.array([o["bytes_out"] for o in ops], pa.int64()),
            "wall_s": pa.array([o["wall_s"] for o in ops], pa.float64()),
            "cpu_s": pa.array([o["cpu_s"] for o in ops], pa.float64()),
            "udf_s": pa.array([o["udf_s"] for o in ops], pa.float64()),
        }
    )
    return ds, metrics


__all__ = [
    "sql", "SelectResult", "sql_dml", "plan", "explain", "explain_analyze",
    "prepare", "PreparedStatement",
    "register_function", "drop_function",
    "parse", "lower", "optimize", "Catalog",
]
