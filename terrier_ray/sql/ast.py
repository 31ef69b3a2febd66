"""SQL AST node types (SELECT subset).

Reference analog: the parser's expression/statement node hierarchy —
/root/reference/src/include/parser/select_statement.h:20-120 and
parser/expression_defs.h (ExpressionType).  Ours is a deliberately small,
plain-dataclass tree: just enough SELECT to lower onto the spec API
(terrier_ray/api.py) — projection, FROM/JOIN, WHERE, GROUP BY/HAVING,
ORDER BY, LIMIT/OFFSET, scalar + aggregate expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


class Expr:
    """Marker base for expression nodes."""


@dataclass(frozen=True)
class Col(Expr):
    name: str
    table: Optional[str] = None  # qualifier as written (alias or table)


@dataclass(frozen=True)
class Lit(Expr):
    value: Any  # an interval's value is its length in microseconds
    type: Optional[str] = None  # None | "timestamp" | "date" | "interval"


@dataclass(frozen=True)
class Star(Expr):
    pass


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / % = <> < <= > >= and or
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # not | neg
    operand: Expr


@dataclass(frozen=True)
class Fn(Expr):
    name: str  # canonical UPPERCASE SQL function name
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Agg(Expr):
    func: str  # sum | count | min | max | avg
    arg: Optional[Expr]  # None for COUNT(*)
    distinct: bool = False


@dataclass(frozen=True)
class OrderedAgg(Expr):
    """Ordered-set aggregate: PERCENTILE_CONT/PERCENTILE_DISC(q) WITHIN
    GROUP (ORDER BY expr) (MEDIAN and QUANTILE_CONT are spellings of
    percentile_cont), or STRING_AGG(expr, q ORDER BY expr).  Lowers onto
    ops/orderagg.grouped_quantiles (exact, DuckDB-identical
    interpolation)."""

    func: str  # percentile_cont | percentile_disc | string_agg
    q: Any  # the fraction; string_agg's separator
    order: Expr


@dataclass(frozen=True)
class Case(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    default: Optional[Expr]


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    to: str  # canonical UPPERCASE type name


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    values: tuple[Expr, ...]  # literals
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    lo: Expr
    hi: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class WindowDef:
    """``( PARTITION BY ... ORDER BY ... [ROWS|RANGE BETWEEN ... ] )``.

    ``frame`` is None (default frame) or ``(unit, start, end)`` with unit
    'rows'/'range' and bounds ('up',) UNBOUNDED PRECEDING / ('pre', n) /
    ('cur',) CURRENT ROW / ('fol', n) / ('uf',) UNBOUNDED FOLLOWING.
    Lowering maps the frames the engine's windowed() kinds implement
    (trailing ROWS windows, unbounded frames) and rejects the rest."""

    partition_by: tuple[Expr, ...] = ()
    order_by: tuple[tuple[Expr, bool], ...] = ()  # (expr, descending)
    frame: "Optional[tuple]" = None


@dataclass(frozen=True)
class WindowFn(Expr):
    """``fn(args) OVER (window)`` / ``fn(args) OVER name``.

    The reference has no window functions (SURVEY §1.1 non-feature); these
    lower onto ops/window.windowed (one bucket shuffle + segment kernels).
    Structural equality on purpose: equal occurrences (e.g. LAG(ts) OVER w
    used twice in one SELECT) share one computed window column."""

    func: str  # lowercase: row_number | rank | lag | sum | ...
    args: tuple[Expr, ...]
    window: Any  # WindowDef | str (named WINDOW reference)


@dataclass(frozen=True, eq=False)
class ScalarSubquery(Expr):
    """``( SELECT ... )`` in expression position — one row, one column.

    Reference analog: ExpressionType::ROW_SUBQUERY
    (parser/expression_defs.h) — the reference plans these through the
    binder's subquery unnesting.  Identity (not structural) equality: each
    occurrence is lowered/decorrelated independently and tracked by id."""

    stmt: Any  # Select | SetOpStmt


@dataclass(frozen=True, eq=False)
class Exists(Expr):
    """``EXISTS ( SELECT ... )``; NOT EXISTS parses as Unary('not', Exists).

    Lowered by decorrelation to a left_semi / left_anti join when the
    subquery's WHERE splits into equality correlations + local filters."""

    stmt: Any  # Select


@dataclass(frozen=True, eq=False)
class InSubquery(Expr):
    """``col [NOT] IN ( SELECT ... )`` — uncorrelated; lowered to a
    left_semi (anti) join on the subquery's single output column."""

    operand: Expr
    stmt: Any  # Select | SetOpStmt
    negated: bool = False


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class TableRef:
    table: str
    alias: Optional[str] = None
    subquery: Optional[Any] = None  # Select | SetOpStmt for derived tables
    values: Optional[Any] = None  # (column names, literal rows) for VALUES


@dataclass
class JoinClause:
    table: TableRef
    kind: str  # inner | left_outer | right_outer | full_outer
    on: Optional[Expr]  # None only for comma-style FROM entries


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Select:
    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_table: Optional[TableRef] = None
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    ctes: list[tuple[str, Any]] = field(default_factory=list)  # WITH name AS (...)
    windows: list[tuple[str, WindowDef]] = field(default_factory=list)  # WINDOW w AS (...)
    qualify: Optional[Expr] = None  # filter over window results


@dataclass
class SetOpStmt:
    """UNION / INTERSECT / EXCEPT [ALL] over two statements.

    Reference analog: parser::SelectStatement's set-op linkage feeding
    SetOpPlanNode (src/include/planner/plannodes/plan_node_defs.h:118-127).
    ORDER BY / LIMIT / OFFSET attach to the combined result (SQL standard:
    branches carry neither)."""

    op: str  # union | intersect | except
    all: bool
    left: "Select | SetOpStmt"
    right: Select
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    ctes: list[tuple[str, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class Param(Expr):
    """Positional statement parameter ``$n`` (1-based) — the extended-query
    protocol's bind slot.  Reference analog: ExpressionType PARAMETER
    (src/include/parser/expression_defs.h:66) bound by
    network/postgres/statement.cpp.  ``bind_params`` substitutes the
    provided values as literals before lowering."""

    index: int


@dataclass
class Insert:
    """INSERT INTO <table> <select>.  Reference analog:
    src/execution/compiler/operator/insert_translator.cpp (the codegen
    path); here it lowers onto the snapshot store's append
    (state/snapshots.py)."""

    table: str
    select: Any  # Select | SetOpStmt


@dataclass
class InsertValues:
    """INSERT INTO <table> [(col, …)] VALUES (lit, …)[, …].  The inline-
    values sibling of Insert (reference: insert_translator.cpp handles both
    the VALUES and the scan child); row expressions are literals / ``$n``
    parameters / signed numbers — evaluated driver-side, appended as one
    part via the snapshot store."""

    table: str
    columns: Optional[list]  # None = table order
    rows: list  # list[list[Expr]]


@dataclass
class Delete:
    """DELETE FROM <table> [WHERE <expr>].  Reference analog:
    src/execution/compiler/operator/delete_translator.cpp; here a filtered
    snapshot rewrite (state/snapshots.py delete_rows)."""

    table: str
    where: Optional[Expr] = None


@dataclass
class Update:
    """UPDATE <table> SET col = expr [, …] [WHERE <expr>].  Reference
    analog: src/execution/compiler/operator/update_translator.cpp (delete +
    re-insert through the same pipeline); here one mapped snapshot rewrite
    (state/snapshots.py update_rows) — matched rows take the SET
    expressions (all evaluated against the ORIGINAL row, so ``SET a=b,
    b=a`` swaps), others pass through unchanged."""

    table: str
    sets: list  # list[tuple[str, Expr]]
    where: Optional[Expr] = None


def bind_params(node, params):
    """Substitute ``$n`` Param nodes with ``params[n-1]`` literals.

    Pure structural walk (frozen and mutable dataclasses alike via
    dataclasses.replace); returns the original object when nothing under it
    changed, so unparameterized statements pass through untouched."""
    import dataclasses

    if isinstance(node, Param):
        if not params or node.index < 1 or node.index > len(params):
            raise ValueError(f"no value bound for parameter ${node.index}")
        v = params[node.index - 1]
        import datetime as _dt

        if isinstance(v, _dt.datetime):
            return Lit(v.isoformat(sep=" "), "timestamp")
        if isinstance(v, _dt.date):
            return Lit(v.isoformat(), "date")
        return Lit(v)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            nv = bind_params(v, params)
            if nv is not v:
                changes[f.name] = nv
        return dataclasses.replace(node, **changes) if changes else node
    if isinstance(node, list):
        out = [bind_params(x, params) for x in node]
        return out if any(a is not b for a, b in zip(out, node)) else node
    if isinstance(node, tuple):
        out = tuple(bind_params(x, params) for x in node)
        return out if any(a is not b for a, b in zip(out, node)) else node
    return node
