"""Bind + lower a parsed SELECT onto the declarative spec API.

Reference analog: binder::BindNodeVisitor + the query-to-operator
transformer (/root/reference/src/include/binder/bind_node_visitor.h:38,
src/optimizer/query_to_operator_transformer.cpp) — names are resolved
against a catalog (parquet footers here), aggregates are split out of
scalar expressions, and the statement becomes a linear operator spec that
``terrier_ray.api.build`` executes.  The emitted spec is deliberately NAIVE
(full-column scans, filters after joins, all joins partitioned):
``terrier_ray.sql.rewrite.optimize`` is the optimizer pass that pushes
filters/projections into scans and picks join strategies, mirroring the
reference's rewrite rules (src/include/optimizer/rule.h:16-79).

Value-semantics contract: every lowering choice mirrors DuckDB semantics so
value-hashes against DuckDB match — ``/`` is float64 division, integer ``//``
truncates toward zero (NULL on a zero divisor), ROUND uses
half-towards-infinity (ops/relational.ROUND_MODE), CAST(float AS BIGINT)
rounds (DuckDB) rather than truncates (C), SUM over integers is widened to
float64 exactly as DuckDB's HUGEINT lands in pandas, and AND/OR are Kleene.
"""

from __future__ import annotations

import re
from typing import Any, Mapping, Optional

import pyarrow as pa

from terrier_ray.ops.relational import ROUND_MODE
from terrier_ray.sql.ast import (
    OrderedAgg,
    Agg,
    Between,
    BinOp,
    Case,
    Cast,
    Col,
    Exists,
    Expr,
    Fn,
    InList,
    InSubquery,
    IsNull,
    JoinClause,
    Like,
    Lit,
    OrderItem,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOpStmt,
    Star,
    Unary,
    WindowDef,
    WindowFn,
)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class Catalog:
    """Table → pa.Schema, from the sf_dir parquet footers (cached).

    Also carries the per-statement VIEW registry: CTEs and derived tables
    register a (schema, lowered spec) under a name; scans of those names
    emit ``{"scan": {"view": name}}`` and the spec root carries the
    ``views`` map for ``api.build`` to interpret (CTEs referenced more
    than once are materialized exactly once at execution)."""

    def __init__(self, sf_dir: str):
        self.sf_dir = sf_dir
        self._schemas: dict[str, pa.Schema] = {}
        self.views: dict[str, Mapping[str, Any]] = {}  # name → lowered spec
        self._view_schemas: dict[str, pa.Schema] = {}
        #: id(Select) → (the Select itself, FROM tables).  The Select is
        #: stored IN the value: an id()-keyed cache without a strong ref
        #: would hand a new object a dead object's recycled id.
        self._from_cache: dict[
            int, tuple[Any, list[tuple[str, Optional[str]]]]
        ] = {}
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def register_view(
        self, name: str, schema: pa.Schema, spec: Mapping[str, Any]
    ) -> None:
        self._view_schemas[name] = schema
        self.views[name] = spec

    def is_view(self, name: str) -> bool:
        return name in self._view_schemas

    def schema(self, table: str) -> pa.Schema:
        if table in self._view_schemas:  # views shadow base tables
            return self._view_schemas[table]
        if table not in self._schemas:
            from terrier_ray.sources.io import hashable_schema

            s = hashable_schema(f"{self.sf_dir.rstrip('/')}/{table}.parquet")
            if s is None:
                raise ValueError(f"unknown table {table!r}")
            self._schemas[table] = s
        return self._schemas[table]

    def columns(self, table: str) -> list[str]:
        return list(self.schema(table).names)


class Binder:
    """Resolves column names against the FROM entries (aliases honored).

    A table appearing more than once (self-join: ``nation n1 JOIN nation
    n2``) gets its columns disambiguated under PHYSICAL names
    ``{alias}__{column}`` — the statement lowering inserts a ``rename`` op
    after that entry's scan, so the physical name exists in the pipeline.
    """

    def __init__(self, catalog: Catalog, tables: list[tuple[str, Optional[str]]]):
        self.catalog = catalog
        self.tables = tables  # (table, alias) in FROM order
        self.by_alias = {a or t: t for t, a in tables}
        counts: dict[str, int] = {}
        for t, _a in tables:
            counts[t] = counts.get(t, 0) + 1
        self.dup_tables = {t for t, n in counts.items() if n > 1}
        self.col_owner: dict[str, str] = {}  # unqualified col → entry alias
        ambiguous: set[str] = set()
        for t, a in tables:
            entry = a or t
            for c in catalog.columns(t):
                if c in self.col_owner and self.col_owner[c] != entry:
                    ambiguous.add(c)
                self.col_owner.setdefault(c, entry)
        self.ambiguous = ambiguous

    def resolve(self, col: Col) -> tuple[str, str]:
        """→ (entry alias, column)."""
        if col.table is not None:
            t = self.by_alias.get(col.table)
            if t is None:
                raise ValueError(f"unknown table qualifier {col.table!r}")
            if col.name not in self.catalog.columns(t):
                raise ValueError(f"no column {col.name!r} in {t}")
            return col.table, col.name
        if col.name in self.ambiguous:
            raise ValueError(f"ambiguous column {col.name!r}")
        entry = self.col_owner.get(col.name)
        if entry is None:
            raise ValueError(f"unknown column {col.name!r}")
        return entry, col.name

    def physical(self, col: Col) -> str:
        """Post-scan column name (``alias__col`` for duplicated tables)."""
        entry, name = self.resolve(col)
        if self.by_alias[entry] in self.dup_tables:
            return f"{entry}__{name}"
        return name

    def rename_map(self, entry: str) -> Optional[dict[str, str]]:
        """Scan-time rename for a duplicated table's entry, else None."""
        t = self.by_alias[entry]
        if t not in self.dup_tables:
            return None
        return {c: f"{entry}__{c}" for c in self.catalog.columns(t)}

    def type_of(self, col: Col) -> pa.DataType:
        entry, c = self.resolve(col)
        return self.catalog.schema(self.by_alias[entry]).field(c).type


# ---------------------------------------------------------------------------
# type inference (just enough to mirror DuckDB result kinds)
# ---------------------------------------------------------------------------

_INT_FNS = {"YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND", "LENGTH",
            "LEN", "ASCII", "MILLISECOND", "MICROSECOND", "QUARTER", "ISODOW",
            "DAYOFYEAR", "EPOCH_US", "STRPOS", "DATEDIFF"}
_FLOAT_FNS = {"ROUND", "SQRT", "LN", "LOG", "LOG10", "LOG2", "EXP", "SIN",
              "COS", "TAN", "COT", "ASIN", "ACOS", "ATAN", "ATAN2", "ABS",
              "FLOOR", "CEIL", "CEILING", "TRUNC", "SIGN", "POWER", "CBRT"}
_STR_FNS = {"UPPER", "LOWER", "SUBSTR", "SUBSTRING", "CONCAT", "TRIM", "LTRIM",
            "RTRIM", "REPLACE", "LPAD", "RPAD", "REVERSE", "LEFT", "RIGHT",
            "REPEAT", "SPLIT_PART", "CHR", "REGEXP_REPLACE", "JSON_EXTRACT"}
_TS_FNS = {"DATE_TRUNC", "MAKE_TIMESTAMP"}

_CAST_KIND = {
    "BIGINT": "int", "INT": "int", "INTEGER": "int", "SMALLINT": "int",
    "TINYINT": "int", "HUGEINT": "int",
    "DOUBLE": "float", "FLOAT": "float", "REAL": "float", "DECIMAL": "float",
    "VARCHAR": "str", "TEXT": "str", "STRING": "str",
    "DATE": "date", "TIMESTAMP": "ts", "BOOLEAN": "bool",
}


def _kind_of_pa(t: pa.DataType) -> str:
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t):
        return "float"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    if pa.types.is_timestamp(t):
        return "ts"
    if pa.types.is_date(t):
        return "date"
    if pa.types.is_boolean(t):
        return "bool"
    return "other"


def infer_kind(e: Expr, binder: Binder) -> str:
    """'int' | 'float' | 'str' | 'ts' | 'date' | 'bool' | 'other'."""
    if isinstance(e, Col):
        return _kind_of_pa(binder.type_of(e))
    if isinstance(e, Lit):
        if e.type in ("timestamp", "interval"):
            return "ts" if e.type == "timestamp" else "interval"
        if e.type == "date":
            return "date"
        if isinstance(e.value, bool):
            return "bool"
        if isinstance(e.value, int):
            return "int"
        if isinstance(e.value, float):
            return "float"
        if isinstance(e.value, str):
            return "str"
        return "other"
    if isinstance(e, BinOp):
        if e.op in ("and", "or", "=", "<>", "<", "<=", ">", ">="):
            return "bool"
        if e.op == "/":
            return "float"
        lk, rk = infer_kind(e.left, binder), infer_kind(e.right, binder)
        if "ts" in (lk, rk):  # ts ± interval → ts; ts - ts → interval
            return "interval" if lk == rk else "ts"
        if "float" in (lk, rk):
            return "float"
        if lk == rk == "int":
            return "int"
        return "float" if {"int"} & {lk, rk} else lk
    if isinstance(e, Unary):
        return "bool" if e.op == "not" else infer_kind(e.operand, binder)
    if isinstance(e, Fn):
        if e.name in _INT_FNS:
            return "int"
        if e.name in _FLOAT_FNS:
            return infer_kind(e.args[0], binder) if e.name == "ABS" else "float"
        if e.name in _STR_FNS:
            return "str"
        if e.name in _TS_FNS:
            return "ts"
        if e.name == "REGEXP_SPLIT_TO_ARRAY":
            return "list"
        return "bool" if e.name == "STARTS_WITH" else "other"
    if isinstance(e, Agg):
        if e.func == "count":
            return "int"
        ak = infer_kind(e.arg, binder)
        if e.func == "avg":
            return "float"
        if e.func == "sum":
            # DuckDB SUM(int)→HUGEINT→float64 in pandas; lowering widens
            return "float" if ak == "int" else ak
        return ak
    if isinstance(e, Case):
        # fold ALL branch kinds (if_else promotes int+float → float64);
        # inspecting only the first WHEN mis-typed mixed CASEs
        kinds = {infer_kind(v, binder) for _, v in e.whens}
        if e.default is not None:
            kinds.add(infer_kind(e.default, binder))
        kinds.discard("other")
        if len(kinds) == 1:
            return kinds.pop()
        if kinds == {"int", "float"}:
            return "float"
        return "other"
    if isinstance(e, Cast):
        return _CAST_KIND.get(e.to, "other")
    if isinstance(e, (Like, InList, Between, IsNull, Exists, InSubquery)):
        return "bool"
    if isinstance(e, OrderedAgg):
        if e.func == "string_agg":
            return "str"
        return (
            "float"
            if e.func == "percentile_cont"
            else infer_kind(e.order, binder)
        )
    if isinstance(e, WindowFn):
        if e.func in ("row_number", "rank", "dense_rank", "ntile"):
            return "int"
        if e.func in ("percent_rank", "cume_dist", "avg"):
            return "float"
        k = infer_kind(e.args[0], binder) if e.args else "other"
        if e.func == "sum":
            # DuckDB SUM(int) OVER → HUGEINT → pandas float64 (q12 bug class)
            return "float" if k == "int" else k
        return k
    if isinstance(e, ScalarSubquery):
        f = output_schema(_aliased_scalar(e.stmt), binder.catalog)
        if len(f) != 1:
            raise ValueError("scalar subquery must produce one column")
        return _kind_of_pa(f.field(0).type)
    return "other"


#: canonical Arrow type per inferred kind (virtual-view schema synthesis);
#: plain column passthroughs keep their exact source type instead
_KIND_PA = {
    "int": pa.int64(),
    "float": pa.float64(),
    "str": pa.string(),
    "ts": pa.timestamp("us"),
    "date": pa.date32(),
    "bool": pa.bool_(),
}


def _register_from(
    sel: Select, catalog: Catalog
) -> list[tuple[str, Optional[str]]]:
    """FROM entries → [(physical name, alias)], lowering + registering any
    derived tables as views.  Cached per Select object so correlation
    probing and the actual lowering see the same view names."""
    cached = catalog._from_cache.get(id(sel))
    if cached is not None and cached[0] is sel:
        return cached[1]
    tables: list[tuple[str, Optional[str]]] = []
    refs = [sel.from_table] + [j.table for j in sel.joins]
    for tr in refs:
        if tr is None:
            continue
        if tr.values is not None:  # a VALUES list: a view over its rows
            name = catalog.fresh(f"{tr.alias}__v")
            cols, rows = tr.values
            schema = pa.Table.from_pylist(
                [dict(zip(cols, r)) for r in rows]).schema
            catalog.register_view(name, schema, {"scan": {"values": {
                "columns": cols, "types": [str(t) for t in schema.types],
                "rows": rows}}})
            tables.append((name, tr.alias))
        elif tr.subquery is not None:
            name = catalog.fresh(f"{tr.alias or 'subq'}__v")
            vspec = lower(tr.subquery, catalog)
            catalog.register_view(
                name, output_schema(tr.subquery, catalog), vspec
            )
            # the entry is addressable by its alias (or not at all)
            tables.append((name, tr.alias))
        else:
            tables.append((tr.table, tr.alias))
    catalog._from_cache[id(sel)] = (sel, tables)
    return tables


def output_schema(stmt: "Select | SetOpStmt", catalog: Catalog) -> pa.Schema:
    """Result schema of a statement — exact types for plain column
    passthroughs, canonical types (``_KIND_PA``) for computed items."""
    _register_ctes(stmt, catalog)
    if isinstance(stmt, SetOpStmt):
        return output_schema(stmt.left, catalog)
    sel = stmt
    tables = _register_from(sel, catalog)
    if len(sel.items) == 1 and isinstance(sel.items[0].expr, Star):
        return catalog.schema(tables[0][0])
    binder = Binder(catalog, tables)
    fields: list[pa.Field] = []
    for it in sel.items:
        e = it.expr
        if it.alias:
            name = it.alias
        elif isinstance(e, Col):
            name = e.name
        else:
            raise ValueError("computed select item requires an alias")
        if isinstance(e, Col):
            typ = binder.type_of(e)
        else:
            kind = infer_kind(e, binder)
            if kind not in _KIND_PA:
                raise ValueError(f"cannot type select item {name!r}")
            typ = _KIND_PA[kind]
        fields.append(pa.field(name, typ))
    return pa.schema(fields)


def _register_ctes(stmt: "Select | SetOpStmt", catalog: Catalog) -> None:
    """Register WITH entries (idempotent; later CTEs may use earlier ones)."""
    for name, cstmt in getattr(stmt, "ctes", []):
        if catalog.is_view(name):
            continue
        vspec = lower(cstmt, catalog)
        catalog.register_view(name, output_schema(cstmt, catalog), vspec)


# ---------------------------------------------------------------------------
# expression lowering → spec EXPR JSON (pyarrow.compute kernel trees)
# ---------------------------------------------------------------------------

_CMP_KERNEL = {
    "=": "equal", "<>": "not_equal", "<": "less", "<=": "less_equal",
    ">": "greater", ">=": "greater_equal",
}

_ARITH_KERNEL = {"+": "add", "-": "subtract", "*": "multiply"}


def _lit_json(lit: Lit) -> Mapping[str, Any]:
    if lit.type in ("timestamp", "date"):
        return {"lit": lit.value, "type": "timestamp"}
    if lit.type == "interval":
        return {"lit": lit.value, "type": "interval"}
    return {"lit": lit.value}


def _lit_arg(e: Fn, i: int, kind: type = int) -> Any:
    """``e``'s i-th argument, which must be a literal of ``kind``."""
    a = e.args[i] if i < len(e.args) else None
    if not (isinstance(a, Lit) and isinstance(a.value, kind)):
        raise ValueError(f"{e.name} argument {i + 1} must be a literal")
    return a.value


def _cast_int(node: Mapping[str, Any]) -> Mapping[str, Any]:
    return {"fn": "cast", "args": [node], "options": {"target_type": "int64"}}


#: DATEDIFF units whose Arrow ``<unit>s_between`` counts boundaries crossed,
#: as DuckDB's DATEDIFF does
_DATEDIFF_UNITS = {"year", "quarter", "day", "hour", "minute", "second",
                   "millisecond", "microsecond"}


class _Lowerer:
    """Expression → spec-EXPR JSON; Agg nodes become refs to agg columns.

    Column refs lower to their AST names directly: the statement lowering
    rebinds any join-dropped right key column (partitioned/broadcast joins
    coalesce right keys under the left key name) with a zero-copy
    ``compute`` op right after the join, so every logical name physically
    exists downstream.
    """

    def __init__(
        self,
        binder: Binder,
        agg_refs: Optional[dict[Agg, str]] = None,
        scalar_refs: Optional[dict[int, str]] = None,
        win_refs: Optional[dict[WindowFn, str]] = None,
        key_refs: Optional[dict[Expr, str]] = None,
    ):
        self.binder = binder
        self.agg_refs = agg_refs or {}
        #: computed GROUP BY expression → its key column (post-aggregation
        #: expressions may reuse the key expression, e.g. ``key + 1``)
        self.key_refs = key_refs or {}
        #: id(ScalarSubquery node) → column carrying its decorrelated value
        #: (MUST alias the caller's dict — the pre-pass fills it later)
        self.scalar_refs = {} if scalar_refs is None else scalar_refs
        #: WindowFn (structural) → column the window op appended (MUST
        #: alias the caller's dict — _lower_windows fills it later)
        self.win_refs = {} if win_refs is None else win_refs

    def lower(self, e: Expr) -> Mapping[str, Any]:
        if self.key_refs and e in self.key_refs:
            return {"col": self.key_refs[e]}
        if isinstance(e, ScalarSubquery):
            ref = self.scalar_refs.get(id(e))
            if ref is not None:
                return {"col": ref}
            # uncorrelated: embed the lowered statement; api.build executes
            # it once (driver-side single value) and substitutes a literal
            sub = lower(_aliased_scalar(e.stmt), self.binder.catalog)
            return {"scalar_subquery": sub}
        if isinstance(e, WindowFn):
            name = self.win_refs.get(e)
            if name is None:
                raise ValueError("window function in unexpected position")
            ref: Mapping[str, Any] = {"col": name}
            if e.func == "sum" and \
                    infer_kind(e.args[0], self.binder) == "int":
                # windowed cumsum emits int64; DuckDB window SUM(int) is
                # HUGEINT → pandas float64
                ref = {"fn": "cast", "args": [ref],
                       "options": {"target_type": "float64"}}
            return ref
        if isinstance(e, OrderedAgg):
            name = self.agg_refs.get(e)
            if name is None:
                raise ValueError("ordered-set aggregate in unexpected position")
            return {"col": name}
        if isinstance(e, Agg):
            name = self.agg_refs.get(e)
            if name is None:
                raise ValueError("aggregate in unexpected position")
            ref: Mapping[str, Any] = {"col": name}
            # engine SUM(int) is int64; DuckDB's HUGEINT lands in pandas as
            # float64 — widen so driver value-hashes agree (q12 bug class)
            if e.func == "sum" and infer_kind(e.arg, self.binder) == "int":
                ref = {"fn": "cast", "args": [ref],
                       "options": {"target_type": "float64"}}
            return ref
        if isinstance(e, Col):
            return {"col": self.binder.physical(e)}
        if isinstance(e, Lit):
            return _lit_json(e)
        if isinstance(e, BinOp):
            l, r = self.lower(e.left), self.lower(e.right)
            if e.op in ("and", "or"):
                return {"fn": f"{e.op}_kleene", "args": [l, r]}
            if e.op in _CMP_KERNEL:
                return {"fn": _CMP_KERNEL[e.op], "args": [l, r]}
            if e.op in _ARITH_KERNEL:
                return {"fn": _ARITH_KERNEL[e.op], "args": [l, r]}
            ints = e.op == "//" and infer_kind(e.left, self.binder) == \
                infer_kind(e.right, self.binder) == "int"
            if ints:
                # BIGINT '//': Arrow integer divide truncates toward zero
                # like DuckDB; a zero divisor gives NULL, not an error
                zero = {"fn": "equal", "args": [r, {"lit": 0}]}
                safe = {"fn": "if_else", "args": [zero, {"lit": 1}, r]}
                return {"fn": "if_else", "args": [
                    zero, {"lit": None}, {"fn": "divide", "args": [l, safe]}]}
            if e.op in ("/", "//"):
                # DuckDB '/' (and '//' on DOUBLE) is float64 division
                return {"fn": "divide", "args": [
                    {"fn": "cast", "args": [l], "options": {"target_type": "float64"}},
                    {"fn": "cast", "args": [r], "options": {"target_type": "float64"}},
                ]}
            if e.op == "%":
                # no pc modulo kernel on this build: x - (x // y) * y with
                # Arrow integer divide (truncates toward zero, like DuckDB %)
                if infer_kind(e.left, self.binder) != "int" or \
                        infer_kind(e.right, self.binder) != "int":
                    raise ValueError("MOD lowering supports integers only")
                return {"fn": "subtract", "args": [
                    l,
                    {"fn": "multiply",
                     "args": [{"fn": "divide", "args": [l, r]}, r]},
                ]}
            raise ValueError(f"unknown operator {e.op!r}")
        if isinstance(e, Unary):
            if e.op == "not":
                return {"fn": "invert", "args": [self.lower(e.operand)]}
            return {"fn": "negate", "args": [self.lower(e.operand)]}
        if isinstance(e, Like):
            if not isinstance(e.pattern, Lit) or not isinstance(e.pattern.value, str):
                raise ValueError("LIKE pattern must be a string literal")
            node = {"fn": "match_like", "args": [self.lower(e.operand)],
                    "options": {"pattern": e.pattern.value}}
            return {"fn": "invert", "args": [node]} if e.negated else node
        if isinstance(e, InList):
            vals = []
            for v in e.values:
                if not isinstance(v, Lit):
                    raise ValueError("IN list must be literals")
                vals.append(v.value)
            operand = self.lower(e.operand)
            node = {"fn": "is_in", "args": [operand],
                    "options": {"__value_set": vals}}
            if e.negated:
                # SQL: NULL NOT IN (...) is NULL (row dropped); pyarrow
                # is_in maps a NULL operand to false, so bare invert would
                # KEEP null rows — AND with is_valid to drop them
                return {"fn": "and_kleene", "args": [
                    {"fn": "invert", "args": [node]},
                    {"fn": "is_valid", "args": [operand]},
                ]}
            return node
        if isinstance(e, Between):
            lo = {"fn": "greater_equal",
                  "args": [self.lower(e.operand), self.lower(e.lo)]}
            hi = {"fn": "less_equal",
                  "args": [self.lower(e.operand), self.lower(e.hi)]}
            node = {"fn": "and_kleene", "args": [lo, hi]}
            return {"fn": "invert", "args": [node]} if e.negated else node
        if isinstance(e, IsNull):
            node = {"fn": "is_null", "args": [self.lower(e.operand)]}
            return {"fn": "invert", "args": [node]} if e.negated else node
        if isinstance(e, Case):
            # right-fold into nested if_else
            default: Mapping[str, Any] = (
                self.lower(e.default) if e.default is not None else {"lit": None}
            )
            out = default
            for cond, val in reversed(e.whens):
                out = {"fn": "if_else",
                       "args": [self.lower(cond), self.lower(val), out]}
            return out
        if isinstance(e, Cast):
            return self._lower_cast(e)
        if isinstance(e, Fn):
            return self._lower_fn(e)
        raise ValueError(f"cannot lower {e!r}")

    def _lower_cast(self, e: Cast) -> Mapping[str, Any]:
        kind = _CAST_KIND.get(e.to)
        inner = self.lower(e.operand)
        src = infer_kind(e.operand, self.binder)
        if kind == "int":
            if src == "float":
                # DuckDB CAST(float AS BIGINT) rounds to nearest (ties away
                # from zero); pc.cast truncates — round first
                inner = {"fn": "round", "args": [inner],
                         "options": {"ndigits": 0, "round_mode": ROUND_MODE}}
            return {"fn": "cast", "args": [inner],
                    "options": {"target_type": "int64"}}
        if kind == "float":
            return {"fn": "cast", "args": [inner],
                    "options": {"target_type": "float64"}}
        if kind == "str":
            if src == "float":
                raise ValueError(
                    "CAST(float AS VARCHAR) unsupported (engine/DuckDB "
                    "format divergence)"
                )
            return {"fn": "cast", "args": [inner],
                    "options": {"target_type": "string"}}
        if kind == "ts":
            return {"fn": "cast", "args": [inner],
                    "options": {"target_type": "timestamp[us]"}}
        raise ValueError(f"unsupported CAST target {e.to!r}")

    def _lower_fn(self, e: Fn) -> Mapping[str, Any]:
        name, args = e.name, e.args
        if name in ("LENGTH", "LEN") and isinstance(args[0], Fn) and \
                args[0].name == "REGEXP_EXTRACT_ALL":
            # the number of matches, counted by RE2 as DuckDB matches
            a = args[0]
            return _cast_int({"fn": "count_substring_regex",
                              "args": [self.lower(a.args[0])],
                              "options": {"pattern": _lit_arg(a, 1, str)}})
        la = [self.lower(a) for a in args]
        if name in ("UPPER", "LOWER"):
            return {"fn": f"utf8_{name.lower()}", "args": la}
        if name in ("LENGTH", "LEN"):
            list_arg = infer_kind(args[0], self.binder) == "list"
            return _cast_int({"fn": "list_value_length" if list_arg
                              else "utf8_length", "args": la})
        if name in ("SUBSTR", "SUBSTRING"):
            if len(args) != 3 or not isinstance(args[1], Lit) or not isinstance(args[2], Lit):
                raise ValueError("SUBSTR needs literal start/length")
            start = int(args[1].value) - 1
            stop = start + int(args[2].value)
            return {"fn": "utf8_slice_codeunits", "args": la[:1],
                    "options": {"start": start, "stop": stop}}
        if name == "CONCAT":
            return {"fn": "binary_join_element_wise",
                    "args": la + [{"lit": ""}],
                    "options": {"null_handling": "replace",
                                "null_replacement": ""}}
        if name in ("YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND",
                    "QUARTER"):
            return _cast_int({"fn": name.lower(), "args": la})
        if name == "DAYOFYEAR":
            return _cast_int({"fn": "day_of_year", "args": la})
        if name == "ISODOW":  # Monday = 1 .. Sunday = 7
            return _cast_int({"fn": "day_of_week", "args": la, "options": {
                "count_from_zero": False, "week_start": 1}})
        if name == "MAKE_TIMESTAMP" and len(args) == 1:  # from epoch µs
            return {"fn": "cast", "args": [_cast_int(la[0])],
                    "options": {"target_type": "timestamp[us]"}}
        if name == "EPOCH_US":
            return _cast_int({"fn": "cast", "args": la,
                              "options": {"target_type": "timestamp[us]"}})
        if name == "DATEDIFF":
            unit = _lit_arg(e, 0, str).lower()
            if unit not in _DATEDIFF_UNITS:
                raise ValueError(f"unsupported DATEDIFF unit {unit!r}")
            return _cast_int({"fn": f"{unit}s_between", "args": la[1:]})
        if name in ("LEFT", "RIGHT"):
            n = _lit_arg(e, 1)
            if name == "LEFT":
                opts = {"start": 0, "stop": n}
            else:  # RIGHT(s, 0) is '': a start of -0 would keep all of s
                opts = {"start": -n, "stop": 0} if n == 0 else {"start": -n}
            return {"fn": "utf8_slice_codeunits", "args": la[:1],
                    "options": opts}
        if name in ("LPAD", "RPAD"):
            # DuckDB cuts a longer string to the width; Arrow only pads
            n, pad = _lit_arg(e, 1), _lit_arg(e, 2, str)
            cut = {"fn": "utf8_slice_codeunits", "args": la[:1],
                   "options": {"start": 0, "stop": n}}
            return {"fn": f"utf8_{name[0].lower()}pad", "args": [cut],
                    "options": {"width": n, "padding": pad}}
        if name in ("TRIM", "LTRIM", "RTRIM"):
            # one-argument TRIM strips spaces only (DuckDB), not whitespace
            chars = _lit_arg(e, 1, str) if len(args) > 1 else " "
            return {"fn": f"utf8_{name[:-4].lower()}trim", "args": la[:1],
                    "options": {"characters": chars}}
        if name == "STARTS_WITH":
            return {"fn": "starts_with", "args": la[:1],
                    "options": {"pattern": _lit_arg(e, 1, str)}}
        if name == "STRPOS":
            # character position: 1 + the length of the text before the
            # first match (find_substring counts bytes), 0 when absent
            pat = {"pattern": _lit_arg(e, 1, str)}
            head = {"fn": "list_element", "args": [
                {"fn": "split_pattern", "args": la[:1],
                 "options": {**pat, "max_splits": 1}}, {"lit": 0}]}
            found = {"fn": "not_equal", "args": [
                {"fn": "find_substring", "args": la[:1], "options": pat},
                {"lit": -1}]}
            return _cast_int({"fn": "if_else", "args": [
                found, {"fn": "add", "args": [
                    {"fn": "utf8_length", "args": [head]}, {"lit": 1}]},
                {"lit": 0}]})
        if name == "REPEAT":
            return {"fn": "binary_repeat", "args": la}
        if name == "SPLIT_PART":
            # the k-th part as a 0/1-element list, joined: '' past the end
            k = _lit_arg(e, 2)
            if k < 1:
                raise ValueError("SPLIT_PART index must be positive")
            parts = {"fn": "split_pattern", "args": la[:1],
                     "options": {"pattern": _lit_arg(e, 1, str)}}
            return {"fn": "binary_join", "args": [
                {"fn": "list_slice", "args": [parts],
                 "options": {"start": k - 1, "stop": k}}, {"lit": ""}]}
        if name == "REGEXP_SPLIT_TO_ARRAY":
            return {"fn": "split_pattern_regex", "args": la[:1],
                    "options": {"pattern": _lit_arg(e, 1, str)}}
        if name == "REGEXP_REPLACE":
            flags = _lit_arg(e, 3, str) if len(args) > 3 else ""
            if flags not in ("", "g"):
                raise ValueError(
                    f"unsupported REGEXP_REPLACE options {flags!r}: only 'g'")
            glob = flags == "g"
            return {"fn": "replace_substring_regex", "args": la[:1],
                    "options": {"pattern": _lit_arg(e, 1, str),
                                "replacement": _lit_arg(e, 2, str),
                                "max_replacements": None if glob else 1}}
        if name == "JSON_EXTRACT" and not re.fullmatch(
                r"\$(\.[A-Za-z_]\w*)+", _lit_arg(e, 1, str)):
            raise ValueError("JSON_EXTRACT supports only '$.key.key' paths")
        if name in ("CBRT", "ASCII", "CHR", "JSON_EXTRACT"):
            return {"fn": name.lower(), "args": la}  # api._KERNELS
        if name == "DATE_TRUNC":
            if not isinstance(args[0], Lit):
                raise ValueError("DATE_TRUNC unit must be a literal")
            return {"fn": "floor_temporal", "args": la[1:],
                    "options": {"unit": str(args[0].value).lower()}}
        if name == "ROUND":
            nd = 0
            if len(args) == 2:
                if not isinstance(args[1], Lit):
                    raise ValueError("ROUND ndigits must be a literal")
                nd = int(args[1].value)
            return {"fn": "round", "args": la[:1],
                    "options": {"ndigits": nd, "round_mode": ROUND_MODE}}
        if name == "ABS":
            return {"fn": "abs", "args": la}
        _DIRECT = {
            "SIN": "sin", "COS": "cos", "TAN": "tan", "ASIN": "asin",
            "ACOS": "acos", "ATAN": "atan", "ATAN2": "atan2", "EXP": "exp",
            "LN": "ln", "LOG10": "log10", "LOG2": "log2", "SQRT": "sqrt",
            "FLOOR": "floor", "CEIL": "ceil", "CEILING": "ceil",
            "TRUNC": "trunc", "SIGN": "sign", "POWER": "power",
            "REVERSE": "utf8_reverse",
        }
        if name in _DIRECT:
            return {"fn": _DIRECT[name], "args": la}
        if name == "COT":
            return {"fn": "divide", "args": [{"lit": 1.0},
                                             {"fn": "tan", "args": la}]}
        if name in ("MILLISECOND", "MICROSECOND"):
            # DuckDB's part fns are Postgres-composite: sec*1000+ms (+us)
            def part(kernel: str) -> Mapping[str, Any]:
                return {"fn": "cast",
                        "args": [{"fn": kernel, "args": la}],
                        "options": {"target_type": "int64"}}

            ms = {"fn": "add", "args": [
                {"fn": "multiply", "args": [part("second"), {"lit": 1000}]},
                part("millisecond")]}
            if name == "MILLISECOND":
                return ms
            return {"fn": "add", "args": [
                {"fn": "multiply", "args": [ms, {"lit": 1000}]},
                part("microsecond")]}
        if name == "COALESCE":
            return {"fn": "coalesce", "args": la}
        if name == "NULLIF":
            eq = {"fn": "equal", "args": la}
            return {"fn": "if_else", "args": [eq, {"lit": None}, la[0]]}
        # registered scalar UDFs (sql/udf.py — the CREATE FUNCTION analog)
        from terrier_ray.sql.udf import lookup as _udf_lookup

        if _udf_lookup(name) is not None:
            return {"udf": name.lower(), "args": la}
        raise ValueError(f"unsupported function {name}()")


# ---------------------------------------------------------------------------
# statement lowering → spec
# ---------------------------------------------------------------------------


def _conjuncts(e: Optional[Expr]) -> list[Expr]:
    if e is None:
        return []
    if isinstance(e, BinOp) and e.op == "and":
        return _conjuncts(e.left) + _conjuncts(e.right)
    return [e]


def _collect_aggs(e: Expr, out: list[Agg]) -> None:
    if isinstance(e, (Agg, OrderedAgg)):
        if e not in out:
            out.append(e)
        return
    if isinstance(e, BinOp):
        _collect_aggs(e.left, out)
        _collect_aggs(e.right, out)
    elif isinstance(e, Unary):
        _collect_aggs(e.operand, out)
    elif isinstance(e, Fn):
        for a in e.args:
            _collect_aggs(a, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _collect_aggs(c, out)
            _collect_aggs(v, out)
        if e.default is not None:
            _collect_aggs(e.default, out)
    elif isinstance(e, Cast):
        _collect_aggs(e.operand, out)
    elif isinstance(e, (Like, IsNull)):
        _collect_aggs(e.operand, out)
    elif isinstance(e, Between):
        _collect_aggs(e.operand, out)
        _collect_aggs(e.lo, out)
        _collect_aggs(e.hi, out)
    elif isinstance(e, InList):
        _collect_aggs(e.operand, out)
    elif isinstance(e, InSubquery):
        _collect_aggs(e.operand, out)
    # ScalarSubquery / Exists: self-contained statements — no outer aggs


def _collect_windows(e: Expr, out: list[WindowFn]) -> None:
    if isinstance(e, WindowFn):
        if e not in out:
            out.append(e)
        return
    if isinstance(e, BinOp):
        _collect_windows(e.left, out)
        _collect_windows(e.right, out)
    elif isinstance(e, Unary):
        _collect_windows(e.operand, out)
    elif isinstance(e, Fn):
        for a in e.args:
            _collect_windows(a, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _collect_windows(c, out)
            _collect_windows(v, out)
        if e.default is not None:
            _collect_windows(e.default, out)
    elif isinstance(e, Cast):
        _collect_windows(e.operand, out)
    elif isinstance(e, (Like, IsNull)):
        _collect_windows(e.operand, out)
    elif isinstance(e, Between):
        _collect_windows(e.operand, out)
        _collect_windows(e.lo, out)
        _collect_windows(e.hi, out)
    elif isinstance(e, (InList, InSubquery)):
        _collect_windows(e.operand, out)


#: SQL window fn → ops/window.windowed kind (frame semantics per windowed())
_WIN_KIND = {
    "row_number": "row_number", "rank": "rank", "dense_rank": "dense_rank",
    "percent_rank": "percent_rank", "cume_dist": "cume_dist",
    "ntile": "ntile", "lag": "lag", "lead": "lead", "sum": "cumsum",
    "first_value": "first_value", "last_value": "last_value",
    "nth_value": "nth_value",
}


def _lower_windows(
    sel: Select,
    lo: "_Lowerer",
    ops: list[dict[str, Any]],
    win_refs: dict[WindowFn, str],
) -> None:
    """Extract WindowFn occurrences from the select items and QUALIFY,
    group them by window definition, and append one ``window`` op per
    distinct window (ops/window.windowed computes every spec of a window in
    ONE bucket shuffle).  ``win_refs`` maps each WindowFn to its output
    column."""
    binder = lo.binder
    all_wins: list[WindowFn] = []
    for it in sel.items:
        _collect_windows(it.expr, all_wins)
    if sel.qualify is not None:
        _collect_windows(sel.qualify, all_wins)
    if not all_wins:
        return
    if sel.group_by or sel.having is not None:
        raise ValueError(
            "window functions cannot mix with GROUP BY/HAVING in one "
            "SELECT; wrap the window in a derived table or CTE"
        )
    named = dict(sel.windows)
    groups: dict[WindowDef, list[tuple[WindowFn, str]]] = {}
    for wi, wf in enumerate(all_wins):
        wd = wf.window
        if isinstance(wd, str):
            if wd not in named:
                raise ValueError(f"unknown window {wd!r}")
            wd = named[wd]
        name = f"__win{wi}"
        for it in sel.items:  # bare aliased item → use the alias directly
            if it.alias and it.expr == wf:
                name = it.alias
                break
        win_refs[wf] = name
        groups.setdefault(wd, []).append((wf, name))

    computed: dict[Expr, str] = {}

    def phys(e: Expr) -> str:
        """Column of a window key / argument; an expression is computed
        into a hidden column first (once per distinct expression)."""
        if isinstance(e, Col):
            return binder.physical(e)
        if e not in computed:
            computed[e] = f"__wx{len(computed)}"
            ops.append({"op": "compute", "alias": computed[e],
                        "expr": lo.lower(e)})
        return computed[e]

    for wd, fns in groups.items():
        partition = [phys(c) for c in wd.partition_by]
        order = [phys(c) for c, _ in wd.order_by]
        desc = [d for _, d in wd.order_by]
        specs: list[list[Any]] = []
        fr = wd.frame
        whole = fr is not None and fr[1] == ("up",) and fr[2] == ("uf",)
        for wf, name in fns:
            kind = _WIN_KIND.get(wf.func)
            if wf.func == "avg":
                kind = "moving_avg"  # only the trailing-ROWS frame exists
            if kind is None:
                raise ValueError(f"unsupported window function {wf.func!r}")
            param = None
            # frame resolution: map onto the frames windowed() implements —
            # ranking functions / LAG / LEAD ignore the frame (SQL: frames
            # only affect aggregate and value window functions)
            if wf.func in ("sum", "avg"):
                if fr is not None:
                    unit, s, e = fr
                    if (unit == "rows" and s == ("up",) and e == ("cur",)
                            and wf.func == "sum"):
                        kind = "cumsum"
                    elif unit == "rows" and s[0] == "pre" and e == ("cur",):
                        kind = "moving_sum" if wf.func == "sum" else "moving_avg"
                        param = int(s[1]) + 1
                    else:
                        raise ValueError(
                            f"unsupported window frame for {wf.func.upper()}: "
                            "use ROWS BETWEEN k PRECEDING AND CURRENT ROW "
                            "(or UNBOUNDED PRECEDING AND CURRENT ROW for SUM)"
                        )
                elif wf.func == "avg":
                    raise ValueError(
                        "AVG OVER requires an explicit ROWS BETWEEN k "
                        "PRECEDING AND CURRENT ROW frame"
                    )
            elif fr is not None and wf.func in (
                "first_value", "last_value", "nth_value"
            ):
                first_ok = whole or (fr[1] == ("up",) and fr[0] in ("rows", "range"))
                if wf.func == "first_value" and not first_ok:
                    raise ValueError(
                        "FIRST_VALUE frame must start at UNBOUNDED PRECEDING"
                    )
                if wf.func != "first_value" and not whole:
                    raise ValueError(
                        f"{wf.func.upper()} supports only ROWS/RANGE BETWEEN "
                        "UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING "
                        "(the default frame's running variant is not implemented)"
                    )
            if kind in ("row_number", "rank", "dense_rank", "percent_rank",
                        "cume_dist"):
                specs.append([kind, None, name])
            elif kind == "ntile":
                if len(wf.args) != 1 or not isinstance(wf.args[0], Lit):
                    raise ValueError("NTILE requires a literal bucket count")
                specs.append([kind, int(wf.args[0].value), name])
            elif kind == "nth_value":
                if len(wf.args) != 2 or not isinstance(wf.args[1], Lit):
                    raise ValueError("NTH_VALUE(col, n) requires literal n")
                specs.append(
                    [kind, phys(wf.args[0]), name,
                     int(wf.args[1].value)]
                )
            elif kind in ("moving_sum", "moving_avg"):
                if not wf.args:
                    raise ValueError(f"{wf.func} requires a column argument")
                specs.append([kind, phys(wf.args[0]), name, param])
            else:  # lag / lead / cumsum / first_value / last_value
                if kind in ("lag", "lead") and len(wf.args) > 1:
                    if not (isinstance(wf.args[1], Lit)
                            and wf.args[1].value == 1):
                        raise ValueError("LAG/LEAD offset must be 1")
                if not wf.args:
                    raise ValueError(f"{wf.func} requires a column argument")
                specs.append([kind, phys(wf.args[0]), name])
        op = {
            "op": "window",
            "partition_by": partition,
            "order_by": order,
            "specs": specs,
            "descending": desc,
        }
        # QUALIFY ROW_NUMBER() ... <= n as the only window: prune each batch
        # to its first n rows per partition before the shuffle
        if len(groups) == 1 and len(fns) == 1 and fns[0][0].func == "row_number":
            for c in _conjuncts(sel.qualify):
                if (isinstance(c, BinOp) and c.op in ("<=", "<")
                        and c.left == fns[0][0] and isinstance(c.right, Lit)
                        and type(c.right.value) is int):
                    op["top"] = c.right.value - (c.op == "<")
        ops.append(op)


def _cols_in(e: Expr, out: set[str]) -> None:
    if isinstance(e, Col):
        out.add(e.name)
    elif isinstance(e, BinOp):
        _cols_in(e.left, out)
        _cols_in(e.right, out)
    elif isinstance(e, Unary):
        _cols_in(e.operand, out)
    elif isinstance(e, Fn):
        for a in e.args:
            _cols_in(a, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _cols_in(c, out)
            _cols_in(v, out)
        if e.default is not None:
            _cols_in(e.default, out)
    elif isinstance(e, Cast):
        _cols_in(e.operand, out)
    elif isinstance(e, (Like, IsNull)):
        _cols_in(e.operand, out)
    elif isinstance(e, Between):
        _cols_in(e.operand, out)
        _cols_in(e.lo, out)
        _cols_in(e.hi, out)
    elif isinstance(e, InList):
        _cols_in(e.operand, out)
    elif isinstance(e, InSubquery):
        _cols_in(e.operand, out)
    elif isinstance(e, Agg):
        if e.arg is not None:
            _cols_in(e.arg, out)


def _branch_out_cols(spec: Mapping[str, Any], catalog: Catalog) -> list[str]:
    """Output column names of a lowered branch spec."""
    if "setop" in spec:
        return list(spec["setop"]["left_cols"])
    ops = spec.get("ops", [])
    if ops and ops[-1]["op"] == "project":
        return list(ops[-1]["columns"])
    scan = spec["scan"]  # SELECT * branch (base table or registered view)
    return catalog.columns(scan.get("table") or scan["view"])


def _lower_setop(stmt: SetOpStmt, catalog: Catalog) -> Mapping[str, Any]:
    """UNION / INTERSECT / EXCEPT [ALL] → setop spec node.

    Branches lower independently; columns match BY POSITION (SQL standard)
    and the combined result carries the LEFT branch's names.  ORDER BY /
    LIMIT apply to the combined result and may only reference those output
    names."""
    left_spec = lower(stmt.left, catalog)
    right_spec = lower(stmt.right, catalog)
    lcols = _branch_out_cols(left_spec, catalog)
    rcols = _branch_out_cols(right_spec, catalog)
    if len(lcols) != len(rcols):
        raise ValueError(
            f"set operation branches have {len(lcols)} vs {len(rcols)} columns"
        )
    mode = stmt.op + ("_all" if stmt.all else "")
    spec: dict[str, Any] = {
        "setop": {
            "mode": mode,
            "left": left_spec,
            "right": right_spec,
            "left_cols": lcols,
            "right_cols": rcols,
        },
        "ops": [],
    }
    for oi in stmt.order_by:
        if not (isinstance(oi.expr, Col) and oi.expr.name in lcols):
            raise ValueError(
                "ORDER BY on a set operation must reference output columns"
            )
    shim = Select(order_by=stmt.order_by, limit=stmt.limit, offset=stmt.offset)
    _append_order_limit(spec, shim, lcols, {})
    return spec


def _colrefs(e: Expr, out: list[Col]) -> None:
    """Collect Col nodes (qualifiers preserved); subquery bodies excluded."""
    if isinstance(e, Col):
        out.append(e)
    elif isinstance(e, BinOp):
        _colrefs(e.left, out)
        _colrefs(e.right, out)
    elif isinstance(e, Unary):
        _colrefs(e.operand, out)
    elif isinstance(e, Fn):
        for a in e.args:
            _colrefs(a, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _colrefs(c, out)
            _colrefs(v, out)
        if e.default is not None:
            _colrefs(e.default, out)
    elif isinstance(e, Cast):
        _colrefs(e.operand, out)
    elif isinstance(e, (Like, IsNull, InList, InSubquery)):
        _colrefs(e.operand, out)
    elif isinstance(e, Between):
        _colrefs(e.operand, out)
        _colrefs(e.lo, out)
        _colrefs(e.hi, out)
    elif isinstance(e, Agg):
        if e.arg is not None:
            _colrefs(e.arg, out)


def _col_resolves(c: Col, binder: Binder) -> bool:
    try:
        binder.resolve(c)
        return True
    except ValueError:
        return False


def _resolvable(e: Expr, binder: Binder) -> bool:
    cols: list[Col] = []
    _colrefs(e, cols)
    return all(_col_resolves(c, binder) for c in cols)


def _and_all(conj: list[Expr]) -> Optional[Expr]:
    out: Optional[Expr] = None
    for c in conj:
        out = c if out is None else BinOp("and", out, c)
    return out


def _split_correlation(
    sub: Select, catalog: Catalog, outer_binder: Binder
) -> tuple[Binder, list[Expr], list[tuple[Col, Col]]]:
    """Split ``sub``'s WHERE into inner-local conjuncts and equality
    correlations → (inner binder, local conjuncts, [(outer Col, inner Col)]).

    The reference analog is the binder's subquery depth tracking + the
    optimizer's mark-join unnesting; we support the common shape — every
    correlated conjunct is ``inner_col = outer_col`` — and raise on the
    rest."""
    _register_ctes(sub, catalog)
    inner_binder = Binder(catalog, _register_from(sub, catalog))
    local: list[Expr] = []
    pairs: list[tuple[Col, Col]] = []
    for c in _conjuncts(sub.where):
        if _resolvable(c, inner_binder):
            local.append(c)
            continue
        ok = False
        if isinstance(c, BinOp) and c.op == "=" and \
                isinstance(c.left, Col) and isinstance(c.right, Col):
            for inner_c, outer_c in ((c.left, c.right), (c.right, c.left)):
                if _col_resolves(inner_c, inner_binder) and \
                        _col_resolves(outer_c, outer_binder):
                    pairs.append((outer_c, inner_c))
                    ok = True
                    break
        if not ok:
            raise ValueError(f"unsupported correlated predicate: {c!r}")
    return inner_binder, local, pairs


def _semi_anti_join_op(
    sub: Select,
    negated: bool,
    binder: Binder,
    catalog: Catalog,
    lo: "_Lowerer",
    extra_pairs: Optional[list[tuple[Col, Col]]] = None,
) -> dict[str, Any]:
    """[NOT] EXISTS / IN-subquery → left_semi / left_anti join op.

    The subquery becomes ``SELECT DISTINCT <inner keys> FROM ... WHERE
    <local>`` — the distinct shrinks the build side before the shuffle, and
    semi/anti joins emit left columns only, so downstream names are
    unchanged.  NOTE: NOT IN null-semantics divergence — a NULL in the
    subquery output makes SQL's NOT IN empty; the anti join ignores NULL
    keys (keys in this engine's datasets are non-null)."""
    inner_binder, local, pairs = _split_correlation(sub, catalog, binder)
    pairs = (extra_pairs or []) + pairs
    if not pairs:
        raise ValueError("EXISTS/IN subquery must correlate on column equality")
    items = [
        SelectItem(ic, f"__ek{i}") for i, (_oc, ic) in enumerate(pairs)
    ]
    inner_sel = Select(
        items=items,
        distinct=True,
        from_table=sub.from_table,
        joins=sub.joins,
        where=_and_all(local),
    )
    return {
        "op": "join",
        "right": lower(inner_sel, catalog),
        "on": [binder.physical(oc) for oc, _ic in pairs],
        "right_on": [f"__ek{i}" for i in range(len(pairs))],
        "how": "left_anti" if negated else "left_semi",
    }


def _aliased_scalar(stmt: "Select | SetOpStmt") -> "Select | SetOpStmt":
    """Give a scalar subquery's single computed item a synthetic alias
    (``SELECT SUM(x) FROM t`` has none; the spec needs an output name)."""
    import dataclasses

    if isinstance(stmt, Select) and len(stmt.items) == 1 and \
            stmt.items[0].alias is None and \
            not isinstance(stmt.items[0].expr, Col):
        return dataclasses.replace(
            stmt, items=[SelectItem(stmt.items[0].expr, "__scalar")]
        )
    return stmt


def _find_scalar_subs(e: Expr, out: list[ScalarSubquery]) -> None:
    if isinstance(e, ScalarSubquery):
        out.append(e)
    elif isinstance(e, BinOp):
        _find_scalar_subs(e.left, out)
        _find_scalar_subs(e.right, out)
    elif isinstance(e, Unary):
        _find_scalar_subs(e.operand, out)
    elif isinstance(e, Fn):
        for a in e.args:
            _find_scalar_subs(a, out)
    elif isinstance(e, Cast):
        _find_scalar_subs(e.operand, out)
    elif isinstance(e, (Like, IsNull, InList)):
        _find_scalar_subs(e.operand, out)
    elif isinstance(e, Between):
        _find_scalar_subs(e.operand, out)
        _find_scalar_subs(e.lo, out)
        _find_scalar_subs(e.hi, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _find_scalar_subs(c, out)
            _find_scalar_subs(v, out)
        if e.default is not None:
            _find_scalar_subs(e.default, out)


def _lower_quantified(
    c: Expr,
    binder: Binder,
    catalog: Catalog,
    ops: list[dict[str, Any]],
    scalar_refs: dict[int, str],
    lo: "_Lowerer",
) -> bool:
    """Handle a WHERE conjunct containing subqueries.

    Returns True when the conjunct is FULLY consumed (EXISTS / IN became a
    semi/anti join); False when it must still be emitted as a filter —
    after this call any correlated scalar subqueries inside it have been
    decorrelated into left_outer aggregate joins and registered in
    ``scalar_refs`` (uncorrelated ones lower inline later)."""
    node: Expr = c
    negated = False
    while isinstance(node, Unary) and node.op == "not":
        negated = not negated
        node = node.operand
    if isinstance(node, Exists):
        ops.append(
            _semi_anti_join_op(node.stmt, negated, binder, catalog, lo)
        )
        return True
    if isinstance(node, InSubquery):
        if not isinstance(node.operand, Col):
            raise ValueError("IN (subquery) operand must be a column")
        sub = node.stmt
        if not isinstance(sub, Select) or len(sub.items) != 1 or \
                sub.group_by or not isinstance(sub.items[0].expr, Col):
            raise ValueError(
                "IN (subquery) supports a single-column simple SELECT"
            )
        ops.append(
            _semi_anti_join_op(
                sub,
                negated != node.negated,
                binder,
                catalog,
                lo,
                extra_pairs=[(node.operand, sub.items[0].expr)],
            )
        )
        return True
    # correlated scalar subqueries inside an ordinary predicate
    subs: list[ScalarSubquery] = []
    _find_scalar_subs(c, subs)
    for sq in subs:
        if id(sq) in scalar_refs:
            continue
        sub = sq.stmt
        if not isinstance(sub, Select):
            continue  # set-op subquery: only valid uncorrelated
        inner_binder, local, pairs = _split_correlation(sub, catalog, binder)
        if not pairs:
            continue  # uncorrelated: _Lowerer embeds it
        if len(sub.items) != 1 or sub.group_by:
            raise ValueError(
                "correlated scalar subquery must be a single aggregate"
            )
        tag = catalog.fresh("__sc")
        keys = [
            SelectItem(ic, f"{tag}_k{i}") for i, (_oc, ic) in enumerate(pairs)
        ]
        dsel = Select(
            items=keys + [SelectItem(sub.items[0].expr, tag)],
            from_table=sub.from_table,
            joins=sub.joins,
            where=_and_all(local),
            group_by=[ic for _oc, ic in pairs],
        )
        ops.append({
            "op": "join",
            "right": lower(dsel, catalog),
            "on": [binder.physical(oc) for oc, _ic in pairs],
            "right_on": [f"{tag}_k{i}" for i in range(len(pairs))],
            # left outer: a no-row group is SQL NULL (comparisons reject it)
            "how": "left_outer",
        })
        scalar_refs[id(sq)] = tag
    return False


def _scan_node(catalog: Catalog, name: str) -> dict[str, Any]:
    return {"view": name} if catalog.is_view(name) else {"table": name}


def lower(sel: "Select | SetOpStmt", catalog: Catalog) -> Mapping[str, Any]:
    """Select AST → NAIVE spec (run ``rewrite.optimize`` before building)."""
    _register_ctes(sel, catalog)
    if isinstance(sel, SetOpStmt):
        return _lower_setop(sel, catalog)
    if sel.from_table is None:
        raise ValueError("SELECT without FROM is not supported")

    tables = _register_from(sel, catalog)
    binder = Binder(catalog, tables)
    scalar_refs: dict[int, str] = {}
    win_refs: dict[WindowFn, str] = {}
    lo = _Lowerer(binder, scalar_refs=scalar_refs, win_refs=win_refs)

    # ---- join planning (all names PHYSICAL: alias__col for self-joins) ----
    where_conj = _conjuncts(sel.where)
    used_in_join: set[int] = set()
    ops: list[dict[str, Any]] = []

    root_entry = tables[0][1] or tables[0][0]
    root_rename = binder.rename_map(root_entry)
    if root_rename:
        ops.append({"op": "rename", "map": root_rename})
    joined_cols: set[str] = {
        root_rename.get(c, c) if root_rename else c
        for c in catalog.columns(tables[0][0])
    }

    def equi_sides(c: Expr, right_cols: set[str]) -> Optional[tuple[str, str]]:
        """c is `a = b` joining right table to the joined-so-far set?"""
        if not (isinstance(c, BinOp) and c.op == "="
                and isinstance(c.left, Col) and isinstance(c.right, Col)):
            return None
        l, r = binder.physical(c.left), binder.physical(c.right)
        if l in joined_cols and r in right_cols:
            return l, r
        if r in joined_cols and l in right_cols:
            return r, l
        return None

    for j, (tname, _talias) in zip(sel.joins, tables[1:]):
        entry = _talias or tname
        rename = binder.rename_map(entry)
        right_cols = {
            rename.get(c, c) if rename else c
            for c in catalog.columns(tname)
        }
        on_pairs: list[tuple[str, str]] = []
        right_local: list[Expr] = []  # non-equi ON conjuncts on right cols
        post_join: list[Expr] = []  # non-equi ON conjuncts on joined cols
        if j.on is not None:
            for c in _conjuncts(j.on):
                pair = equi_sides(c, right_cols)
                if pair is not None:
                    on_pairs.append(pair)
                    continue
                cols: set[str] = set()
                _cols_in(c, cols)
                phys = {
                    binder.physical(Col(n)) if n in binder.col_owner else n
                    for n in cols
                }
                if phys <= right_cols and j.kind in ("inner", "left_outer"):
                    # right-side-only ON predicate: filter the right input
                    # BEFORE joining (equivalent for inner + left outer)
                    right_local.append(c)
                elif j.kind == "inner":
                    post_join.append(c)  # inner: ON ≡ WHERE
                else:
                    raise ValueError(f"unsupported join condition: {c!r}")
        else:  # comma-style FROM: pull equi conjuncts out of WHERE
            for i, c in enumerate(where_conj):
                if i in used_in_join:
                    continue
                pair = equi_sides(c, right_cols)
                if pair is not None:
                    on_pairs.append(pair)
                    used_in_join.add(i)
        right_spec: dict[str, Any] = {"scan": _scan_node(catalog, tname)}
        if rename:
            right_spec["ops"] = [{"op": "rename", "map": rename}]
        for c in right_local:
            right_spec.setdefault("ops", []).append(
                {"op": "filter", "expr": lo.lower(c)}
            )
        if not on_pairs:
            if j.on is not None:
                raise ValueError(
                    f"unsupported join condition for table {tname}"
                )
            # comma-FROM with no equi conjunct: cross product (broadcast
            # right side; the residual WHERE filters it right after)
            ops.append({"op": "cross_join", "right": right_spec})
            joined_cols |= right_cols
            continue
        ops.append({
            "op": "join",
            "right": right_spec,
            "on": [p[0] for p in on_pairs],
            "right_on": [p[1] for p in on_pairs],
            "how": j.kind,
        })
        # joins coalesce the right key under the left key's name; rebind the
        # dropped right name (zero-copy column ref) so later expressions that
        # reference it keep resolving
        for lcol, rcol in on_pairs:
            if rcol != lcol:
                ops.append({"op": "compute", "alias": rcol,
                            "expr": {"col": lcol}})
        joined_cols |= right_cols
        for c in post_join:
            ops.append({"op": "filter", "expr": lo.lower(c)})

    # ---- quantified / correlated WHERE conjuncts → joins -------------------
    residual_conj: list[Expr] = []
    for i, c in enumerate(where_conj):
        if i in used_in_join:
            continue
        if not _lower_quantified(c, binder, catalog, ops, scalar_refs, lo):
            residual_conj.append(c)

    # ---- residual WHERE ----------------------------------------------------
    for c in residual_conj:
        ops.append({"op": "filter", "expr": lo.lower(c)})

    # ---- window functions (evaluated after WHERE, before projection) -------
    _lower_windows(sel, lo, ops, win_refs)
    if sel.qualify is not None:
        ops.append({"op": "filter", "expr": lo.lower(sel.qualify)})

    # ---- SELECT * ----------------------------------------------------------
    if len(sel.items) == 1 and isinstance(sel.items[0].expr, Star):
        if sel.joins or sel.group_by or sel.distinct:
            raise ValueError("SELECT * only supported over a single table")
        out_cols = catalog.columns(tables[0][0])
        if sel.qualify is not None:  # drop QUALIFY's window columns
            ops.append({"op": "project", "columns": out_cols})
        spec = {"scan": _scan_node(catalog, tables[0][0]), "ops": ops}
        _append_order_limit(spec, sel, out_cols, {}, lo)
        return spec

    alias_expr: dict[str, Expr] = {}
    for it in sel.items:
        if it.alias:
            alias_expr[it.alias] = it.expr

    def deref_alias(e: Expr) -> Expr:
        """ORDER/GROUP BY may reference select aliases by name."""
        if isinstance(e, Col) and e.table is None and e.name in alias_expr \
                and e.name not in binder.col_owner:
            return alias_expr[e.name]
        return e

    has_aggs = bool(sel.group_by)
    all_aggs: list[Agg] = []
    for it in sel.items:
        _collect_aggs(it.expr, all_aggs)
    if sel.having is not None:
        _collect_aggs(sel.having, all_aggs)
    for oi in sel.order_by:
        _collect_aggs(deref_alias(oi.expr), all_aggs)
    has_aggs = has_aggs or bool(all_aggs)

    out_cols: list[str] = []
    for it in sel.items:
        if it.alias:
            out_cols.append(it.alias)
        elif isinstance(it.expr, Col):
            out_cols.append(it.expr.name)
        else:
            raise ValueError("computed select item requires an alias")

    if has_aggs:
        # GROUP BY CUBE(...) / ROLLUP(...) parse as function calls
        group_mode = "group"
        gb_exprs = list(sel.group_by)
        if len(gb_exprs) == 1 and isinstance(gb_exprs[0], Fn) \
                and gb_exprs[0].name in ("CUBE", "ROLLUP"):
            group_mode = gb_exprs[0].name.lower()
            gb_exprs = list(gb_exprs[0].args)

        # group keys: plain column | select alias | expression
        key_names: list[str] = []
        for gi, g in enumerate(gb_exprs):
            g = deref_alias(g)
            if isinstance(g, Col) and binder.physical(g) == g.name:
                key_names.append(g.name)
                continue
            # computed key: name it after the select alias that carries the
            # same expression, else a synthetic name
            name = None
            for it in sel.items:
                if it.alias and deref_alias(it.expr) == g:
                    name = it.alias
                    break
            name = name or f"__g{gi}"
            ops.append({"op": "compute", "alias": name, "expr": lo.lower(g)})
            key_names.append(name)

        # aggregate inputs + specs
        agg_refs: dict[Agg, str] = {}
        agg_specs: list[list[str]] = []
        _AGG_OP = {"sum": "sum", "count": "count", "min": "min",
                   "max": "max", "avg": "mean"}
        ord_aggs = [a for a in all_aggs if isinstance(a, OrderedAgg)]
        if ord_aggs:
            # PERCENTILE_CONT/DISC(q) WITHIN GROUP (ORDER BY col): lowers to
            # ONE quantile op (ops/orderagg.grouped_quantiles — complete
            # groups co-locate per bucket; percentiles are not decomposable
            # into the group_agg partial/merge shape)
            if len(ord_aggs) != len(all_aggs):
                raise ValueError(
                    "percentile aggregates cannot mix with plain aggregates "
                    "in one SELECT; compute them in separate CTEs and join"
                )
            if group_mode != "group" or not key_names:
                raise ValueError(
                    "percentile aggregates require a plain GROUP BY"
                )
            qspecs: list[list] = []
            for ai, a in enumerate(ord_aggs):
                name = f"__agg{ai}"
                agg_refs[a] = name
                if isinstance(a.order, Col):
                    col = binder.physical(a.order)
                else:
                    col = f"__q{ai}"
                    ops.append({"op": "compute", "alias": col,
                                "expr": lo.lower(a.order)})
                qspecs.append([a.func, col, a.q, name])
            ops.append({"op": "quantile", "keys": key_names, "specs": qspecs})
        elif any(a.distinct for a in all_aggs):
            # AGG(DISTINCT col): dedup (keys, col) first, then aggregate —
            # the reference's DistinctAggregationFilter
            # (src/include/execution/sql/aggregators.h) as a two-level
            # bucket-shuffle plan
            if len(all_aggs) != 1 or group_mode != "group":
                raise ValueError(
                    "DISTINCT aggregate cannot mix with other aggregates"
                )
            a = all_aggs[0]
            if not isinstance(a.arg, Col):
                raise ValueError("DISTINCT aggregate argument must be a column")
            phys = binder.physical(a.arg)
            name = "__agg0"
            agg_refs[a] = name
            ops.append({"op": "distinct", "columns": key_names + [phys]})
            agg_specs.append([_AGG_OP[a.func], phys, name])
        else:
            need_one = False
            for ai, a in enumerate(all_aggs):
                name = f"__agg{ai}"
                agg_refs[a] = name
                if a.arg is None:  # COUNT(*)
                    need_one = True
                    agg_specs.append(["count", "__one", name])
                    continue
                op = _AGG_OP[a.func]
                if isinstance(a.arg, Col):
                    agg_specs.append([op, binder.physical(a.arg), name])
                else:
                    tmp = f"__a{ai}"
                    ops.append({"op": "compute", "alias": tmp,
                                "expr": lo.lower(a.arg)})
                    agg_specs.append([op, tmp, name])
            if need_one:
                ops.append(
                    {"op": "compute", "alias": "__one", "expr": {"lit": 1}}
                )

        if ord_aggs:
            pass  # the quantile op above IS the aggregation
        elif key_names:
            kind = {"group": "group_agg", "cube": "cube",
                    "rollup": "rollup"}[group_mode]
            ops.append({"op": kind, "keys": key_names, "aggs": agg_specs})
        else:
            ops.append({"op": "global_agg", "aggs": agg_specs})

        # post-aggregation scalar expressions
        key_refs = {
            deref_alias(g): k for g, k in zip(gb_exprs, key_names)
            if not isinstance(deref_alias(g), Col)
        }
        post = _Lowerer(binder, agg_refs, scalar_refs=scalar_refs,
                        key_refs=key_refs)
        final_lower = post
        for it, out_name in zip(sel.items, out_cols):
            e = deref_alias(it.expr)
            if isinstance(e, Col) and binder.physical(e) == e.name \
                    and e.name in key_names and out_name == e.name:
                continue  # key passthrough (aliased keys fall through to a
                # zero-copy compute ref below)
            if e in [deref_alias(g) for g in gb_exprs] and out_name in key_names:
                continue  # computed key passthrough under its alias
            ops.append({"op": "compute", "alias": out_name,
                        "expr": post.lower(e)})
        if sel.having is not None:
            ops.append({"op": "filter", "expr": post.lower(sel.having)})
    else:
        final_lower = lo
        for it, out_name in zip(sel.items, out_cols):
            if isinstance(it.expr, Col) and \
                    binder.physical(it.expr) == out_name:
                continue
            ops.append({"op": "compute", "alias": out_name,
                        "expr": lo.lower(it.expr)})

    if sel.distinct:
        ops.append({"op": "distinct", "columns": out_cols})

    spec = {"scan": _scan_node(catalog, tables[0][0]), "ops": ops}
    _append_order_limit(spec, sel, out_cols, alias_expr, final_lower)
    spec["ops"].append({"op": "project", "columns": out_cols})
    return spec


def _append_order_limit(
    spec: dict[str, Any],
    sel: Select,
    out_cols: list[str],
    alias_expr: dict[str, Expr],
    lowerer: Optional[_Lowerer] = None,
) -> None:
    ops = spec["ops"]
    if sel.order_by:
        keys, desc = [], []
        for ki, oi in enumerate(sel.order_by):
            e = oi.expr
            if isinstance(e, Col) and (e.name in out_cols or e.name in alias_expr):
                keys.append(e.name)
            elif isinstance(e, Col):
                # sortable pre-projection column (physical name)
                keys.append(
                    lowerer.binder.physical(e) if lowerer else e.name
                )
            else:
                # expression: reuse the select alias carrying it, else sort
                # by a hidden computed column (dropped by the final project)
                name = None
                for a, ae in alias_expr.items():
                    if ae == e:
                        name = a
                        break
                if name is None:
                    if lowerer is None:
                        raise ValueError(
                            "ORDER BY expression must appear in SELECT"
                        )
                    name = f"__ord{ki}"
                    ops.append({"op": "compute", "alias": name,
                                "expr": lowerer.lower(e)})
                keys.append(name)
            desc.append(oi.descending)
        sort_op: dict[str, Any] = {"op": "sort", "keys": keys,
                                   "descending": desc}
        if sel.limit is not None and not sel.offset:
            sort_op["limit"] = sel.limit
            ops.append(sort_op)
            return
        ops.append(sort_op)
    if sel.limit is not None:
        ops.append({"op": "limit", "n": sel.limit, "offset": sel.offset or 0})
