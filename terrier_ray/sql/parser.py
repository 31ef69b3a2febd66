"""Recursive-descent SQL parser for the SELECT subset.

Reference analog: parser::PostgresParser
(/root/reference/src/parser/postgresparser.cpp) feeding the binder; ours is
a hand-written lexer + Pratt-style expression parser producing the plain
AST in terrier_ray/sql/ast.py.  Grammar (case-insensitive keywords)::

    SELECT [DISTINCT] item [, item ...]
    FROM table [alias] [, table [alias] ...]
    [ [LEFT|RIGHT|FULL] [OUTER] JOIN table [alias] ON expr ... ]
    [ WHERE expr ] [ GROUP BY expr, ... ] [ HAVING expr ]
    [ ORDER BY expr [ASC|DESC], ... ] [ LIMIT n [OFFSET m] ]

Expressions: literals (numbers, strings, TIMESTAMP/DATE '...',
INTERVAL n UNIT), column refs (optionally qualified), + - * / // %,
comparisons, AND/OR/NOT, LIKE, IN (...), BETWEEN, IS [NOT] NULL, searched
and simple CASE, CAST(x AS T), scalar function calls, the aggregates
SUM/COUNT/MIN/MAX/AVG (with COUNT(*) and DISTINCT arg), and the ordered-set
aggregates PERCENTILE_CONT/DISC ... WITHIN GROUP, MEDIAN, QUANTILE_CONT and
STRING_AGG(x, sep [ORDER BY x]).  QUALIFY filters on window results;
FROM takes ( VALUES (...), ... ) AS name(cols) lists of literals.
"""

from __future__ import annotations

import re
from typing import Optional

from terrier_ray.sql.ast import (
    Agg,
    Between,
    BinOp,
    Case,
    Cast,
    Col,
    Delete,
    Exists,
    Expr,
    Fn,
    Insert,
    InsertValues,
    InList,
    InSubquery,
    IsNull,
    JoinClause,
    Like,
    Lit,
    OrderedAgg,
    OrderItem,
    Param,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOpStmt,
    Star,
    TableRef,
    Unary,
    Update,
    WindowDef,
    WindowFn,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<str>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<param>\$\d+)
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|//|/|%|\(|\)|,|\.)
    """,
    re.VERBOSE,
)

_AGG_FUNCS = {"SUM", "COUNT", "MIN", "MAX", "AVG"}
_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
    "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "JOIN",
    "LEFT", "RIGHT", "FULL", "INNER", "OUTER", "ON", "ASC", "DESC",
    "TIMESTAMP", "DATE", "TRUE", "FALSE", "UNION", "INTERSECT", "EXCEPT",
    "ALL", "WITH", "EXISTS", "OVER", "PARTITION", "WINDOW",
    "INSERT", "INTO", "DELETE", "VALUES", "UPDATE", "SET",
    "ROWS", "RANGE", "PRECEDING", "FOLLOWING", "UNBOUNDED", "CURRENT", "ROW",
    "WITHIN", "QUALIFY",
}

#: INTERVAL n UNIT → microseconds per unit (fixed-length units only)
_INTERVAL_US = {
    "MICROSECOND": 1, "MILLISECOND": 1_000, "SECOND": 1_000_000,
    "MINUTE": 60_000_000, "HOUR": 3_600_000_000, "DAY": 86_400_000_000,
}


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # num | str | ident | kw | op
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind},{self.text!r})"


def tokenize(sql: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        m = _TOKEN_RE.match(sql, i)
        if not m:
            raise SyntaxError(f"SQL lex error at {i}: {sql[i:i+20]!r}")
        i = m.end()
        if m.lastgroup == "ws":
            continue
        text = m.group()
        kind = m.lastgroup
        if kind == "ident" and text.upper() in _KEYWORDS:
            out.append(Token("kw", text.upper(), m.start()))
        else:
            out.append(Token(kind, text, m.start()))
    out.append(Token("eof", "", n))
    return out


class Parser:
    def __init__(self, sql: str):
        self.toks = tokenize(sql)
        self.i = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept_kw(self, *kws: str) -> Optional[str]:
        t = self.peek()
        if t.kind == "kw" and t.text in kws:
            self.next()
            return t.text
        return None

    def expect_kw(self, kw: str) -> None:
        if not self.accept_kw(kw):
            raise SyntaxError(f"expected {kw} at {self.peek().text!r}")

    def accept_op(self, *ops: str) -> Optional[str]:
        t = self.peek()
        if t.kind == "op" and t.text in ops:
            self.next()
            return t.text
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SyntaxError(f"expected {op!r} at {self.peek().text!r}")

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return t.text
        raise SyntaxError(f"expected identifier at {t.text!r}")

    # -- entry --------------------------------------------------------------
    def parse_statement(self) -> "Select | SetOpStmt | Insert | InsertValues | Delete | Update":
        if self.accept_kw("INSERT"):
            self.expect_kw("INTO")
            table = self.expect_ident()
            cols = None
            if self.accept_op("("):
                cols = [self.expect_ident()]
                while self.accept_op(","):
                    cols.append(self.expect_ident())
                self.expect_op(")")
            if self.accept_kw("VALUES"):
                rows = []
                while True:
                    self.expect_op("(")
                    row = [self.expr()]
                    while self.accept_op(","):
                        row.append(self.expr())
                    self.expect_op(")")
                    rows.append(row)
                    if not self.accept_op(","):
                        break
                stmt: "Select | SetOpStmt | Insert | InsertValues | Delete" = (
                    InsertValues(table, cols, rows)
                )
            else:
                stmt = Insert(table, self.statement())
        elif self.accept_kw("DELETE"):
            self.expect_kw("FROM")
            table = self.expect_ident()
            where = self.expr() if self.accept_kw("WHERE") else None
            stmt = Delete(table, where)
        elif self.accept_kw("UPDATE"):
            table = self.expect_ident()
            self.expect_kw("SET")
            sets: list[tuple[str, Expr]] = []
            while True:
                col = self.expect_ident()
                self.expect_op("=")
                sets.append((col, self.expr()))
                if not self.accept_op(","):
                    break
            where = self.expr() if self.accept_kw("WHERE") else None
            stmt = Update(table, sets, where)
        else:
            stmt = self.statement()
        if self.peek().kind != "eof":
            raise SyntaxError(f"trailing tokens at {self.peek().text!r}")
        return stmt

    def statement(self) -> "Select | SetOpStmt":
        """statement := [WITH name AS (stmt), ...] term
        (UNION|EXCEPT [ALL] term)* [ORDER BY ...] [LIMIT ...];
        term := select_core (INTERSECT [ALL] select_core)* (INTERSECT binds
        tighter, per the standard).  ORDER BY / LIMIT attach to the combined
        result; WITH attaches to the outermost statement."""
        ctes: list[tuple[str, "Select | SetOpStmt"]] = []
        if self.accept_kw("WITH"):
            while True:
                name = self.expect_ident()
                self.expect_kw("AS")
                self.expect_op("(")
                ctes.append((name, self.statement()))
                self.expect_op(")")
                if not self.accept_op(","):
                    break
        stmt: Select | SetOpStmt = self._set_term()
        while True:
            op = self.accept_kw("UNION", "EXCEPT")
            if op is None:
                break
            all_ = bool(self.accept_kw("ALL"))
            stmt = SetOpStmt(op.lower(), all_, stmt, self._set_term())
        self._order_limit(stmt)
        stmt.ctes = ctes
        return stmt

    def _at_subquery(self) -> bool:
        """Next tokens open a subquery: ``( SELECT`` or ``( WITH``?"""
        t, t1 = self.peek(), self.peek(1)
        return (
            t.kind == "op" and t.text == "("
            and t1.kind == "kw" and t1.text in ("SELECT", "WITH")
        )

    def _set_term(self) -> "Select | SetOpStmt":
        left: Select | SetOpStmt = self.select_core()
        while self.accept_kw("INTERSECT"):
            all_ = bool(self.accept_kw("ALL"))
            left = SetOpStmt("intersect", all_, left, self.select_core())
        return left

    def _order_limit(self, stmt: "Select | SetOpStmt") -> None:
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            stmt.order_by.append(self.order_item())
            while self.accept_op(","):
                stmt.order_by.append(self.order_item())
        if self.accept_kw("LIMIT"):
            stmt.limit = int(self.next().text)
            if self.accept_kw("OFFSET"):
                stmt.offset = int(self.next().text)

    def select_core(self) -> Select:
        self.expect_kw("SELECT")
        sel = Select()
        sel.distinct = bool(self.accept_kw("DISTINCT"))
        sel.items.append(self.select_item())
        while self.accept_op(","):
            sel.items.append(self.select_item())

        if self.accept_kw("FROM"):
            sel.from_table = self.table_ref()
            while True:
                if self.accept_op(","):
                    sel.joins.append(
                        JoinClause(self.table_ref(), "inner", on=None)
                    )
                    continue
                kind = None
                if self.accept_kw("JOIN"):
                    kind = "inner"
                elif self.accept_kw("INNER"):
                    self.expect_kw("JOIN")
                    kind = "inner"
                elif self.accept_kw("LEFT"):
                    self.accept_kw("OUTER")
                    self.expect_kw("JOIN")
                    kind = "left_outer"
                elif self.accept_kw("RIGHT"):
                    self.accept_kw("OUTER")
                    self.expect_kw("JOIN")
                    kind = "right_outer"
                elif self.accept_kw("FULL"):
                    self.accept_kw("OUTER")
                    self.expect_kw("JOIN")
                    kind = "full_outer"
                if kind is None:
                    break
                tbl = self.table_ref()
                self.expect_kw("ON")
                on = self.expr()
                sel.joins.append(JoinClause(tbl, kind, on))

        if self.accept_kw("WHERE"):
            sel.where = self.expr()
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            sel.group_by.append(self.expr())
            while self.accept_op(","):
                sel.group_by.append(self.expr())
        if self.accept_kw("HAVING"):
            sel.having = self.expr()
        if self.accept_kw("WINDOW"):
            while True:
                wname = self.expect_ident()
                self.expect_kw("AS")
                sel.windows.append((wname, self._window_def()))
                if not self.accept_op(","):
                    break
        if self.accept_kw("QUALIFY"):
            sel.qualify = self.expr()
        return sel

    def select_item(self) -> SelectItem:
        if self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            return SelectItem(Star())
        e = self.expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return SelectItem(e, alias)

    def table_ref(self) -> TableRef:
        if self._at_subquery():  # derived table: FROM ( SELECT ... ) [alias]
            self.expect_op("(")
            sub = self.statement()
            self.expect_op(")")
            alias = None
            if self.accept_kw("AS"):
                alias = self.expect_ident()
            elif self.peek().kind == "ident":
                alias = self.expect_ident()
            return TableRef("", alias, subquery=sub)
        if self.peek(1).kind == "kw" and self.peek(1).text == "VALUES":
            # ( VALUES (lit, ...), ... ) [AS] alias [(col, ...)]
            self.expect_op("(")
            self.expect_kw("VALUES")
            rows = [self._literal_row()]
            while self.accept_op(","):
                rows.append(self._literal_row())
            self.expect_op(")")
            self.accept_kw("AS")
            alias = self.expect_ident()
            cols = [f"col{i}" for i in range(len(rows[0]))]
            if self.accept_op("("):
                cols = [self.expect_ident()]
                while self.accept_op(","):
                    cols.append(self.expect_ident())
                self.expect_op(")")
            return TableRef("", alias, values=(cols, rows))
        name = self.expect_ident()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return TableRef(name, alias)

    def _literal_row(self) -> list:
        self.expect_op("(")
        row = [self.expr()]
        while self.accept_op(","):
            row.append(self.expr())
        self.expect_op(")")
        for e in row:
            if not isinstance(e, Lit) or e.type is not None:
                raise SyntaxError("VALUES rows hold plain literals only")
        return [e.value for e in row]

    def order_item(self) -> OrderItem:
        e = self.expr()
        desc = False
        if self.accept_kw("DESC"):
            desc = True
        else:
            self.accept_kw("ASC")
        return OrderItem(e, desc)

    # -- expressions (precedence climbing) ----------------------------------
    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept_kw("OR"):
            left = BinOp("or", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept_kw("AND"):
            left = BinOp("and", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept_kw("NOT"):
            return Unary("not", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        while True:
            op = self.accept_op("=", "<>", "!=", "<=", ">=", "<", ">")
            if op:
                if op == "!=":
                    op = "<>"
                left = BinOp(op, left, self.additive())
                continue
            negated = False
            save = self.i
            if self.accept_kw("NOT"):
                negated = True
            if self.accept_kw("LIKE"):
                left = Like(left, self.additive(), negated)
                continue
            if self.accept_kw("IN"):
                if self._at_subquery():
                    self.expect_op("(")
                    sub = self.statement()
                    self.expect_op(")")
                    left = InSubquery(left, sub, negated)
                    continue
                self.expect_op("(")
                vals = [self.expr()]
                while self.accept_op(","):
                    vals.append(self.expr())
                self.expect_op(")")
                left = InList(left, tuple(vals), negated)
                continue
            if self.accept_kw("BETWEEN"):
                lo = self.additive()
                self.expect_kw("AND")
                hi = self.additive()
                left = Between(left, lo, hi, negated)
                continue
            if negated:
                self.i = save  # bare NOT belongs to not_expr
                break
            if self.accept_kw("IS"):
                neg = bool(self.accept_kw("NOT"))
                self.expect_kw("NULL")
                left = IsNull(left, neg)
                continue
            break
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return left
            left = BinOp(op, left, self.multiplicative())

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            op = self.accept_op("*", "/", "//", "%")
            if not op:
                return left
            left = BinOp(op, left, self.unary())

    def unary(self) -> Expr:
        if self.accept_op("-"):
            return Unary("neg", self.unary())
        if self.accept_op("+"):
            return self.unary()
        return self.primary()

    def primary(self) -> Expr:
        t = self.peek()
        if self._at_subquery():
            self.next()
            sub = self.statement()
            self.expect_op(")")
            return ScalarSubquery(sub)
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "num":
            self.next()
            txt = t.text
            if "." in txt or "e" in txt or "E" in txt:
                return Lit(float(txt))
            return Lit(int(txt))
        if t.kind == "str":
            self.next()
            return Lit(t.text[1:-1].replace("''", "'"))
        if t.kind == "param":
            self.next()
            return Param(int(t.text[1:]))
        if t.kind == "kw":
            if t.text in ("TIMESTAMP", "DATE"):
                self.next()
                s = self.next()
                if s.kind != "str":
                    raise SyntaxError(f"expected literal after {t.text}")
                return Lit(
                    s.text[1:-1], "timestamp" if t.text == "TIMESTAMP" else "date"
                )
            if t.text == "NULL":
                self.next()
                return Lit(None)
            if t.text == "TRUE":
                self.next()
                return Lit(True)
            if t.text == "FALSE":
                self.next()
                return Lit(False)
            if t.text == "EXISTS":
                self.next()
                self.expect_op("(")
                sub = self.statement()
                self.expect_op(")")
                return Exists(sub)
            if t.text == "CASE":
                return self.case_expr()
            if t.text in ("LEFT", "RIGHT") and self.peek(1).kind == "op" \
                    and self.peek(1).text == "(":
                self.next()
                self.expect_op("(")
                return self._call(t.text)
            if t.text == "CAST":
                self.next()
                self.expect_op("(")
                e = self.expr()
                self.expect_kw("AS")
                typ = self.expect_ident().upper()
                # two-word types (DOUBLE PRECISION)
                if typ == "DOUBLE" and self.peek().kind == "ident" and \
                        self.peek().text.upper() == "PRECISION":
                    self.next()
                self.expect_op(")")
                return Cast(e, typ)
            raise SyntaxError(f"unexpected keyword {t.text!r} in expression")
        if t.kind == "ident":
            if t.text.upper() == "INTERVAL" and self.peek(1).kind == "num":
                self.next()
                n = int(self.next().text)
                unit = self.expect_ident().upper().removesuffix("S")
                if unit not in _INTERVAL_US:
                    raise SyntaxError(f"unsupported INTERVAL unit {unit!r}")
                return Lit(n * _INTERVAL_US[unit], "interval")
            # function call / qualified column / bare column
            if self.peek(1).kind == "op" and self.peek(1).text == "(":
                name = self.expect_ident().upper()
                self.expect_op("(")
                return self._call(name)
            name = self.expect_ident()
            if self.accept_op("."):
                return Col(self.expect_ident(), table=name)
            return Col(name)
        raise SyntaxError(f"unexpected token {t.text!r}")

    def _call(self, name: str) -> Expr:
        """Function call after ``name (``: aggregates, ordered-set
        aggregates, then scalar functions (all optionally windowed)."""
        if name in ("PERCENTILE_CONT", "PERCENTILE_DISC"):
            qt = self.peek()
            if qt.kind != "num":
                raise SyntaxError(
                    f"{name} requires a literal fraction, got {qt.text!r}"
                )
            self.next()
            q = float(qt.text)
            self.expect_op(")")
            self.expect_kw("WITHIN")
            self.expect_kw("GROUP")
            self.expect_op("(")
            self.expect_kw("ORDER")
            self.expect_kw("BY")
            order = self.expr()
            if self.accept_kw("DESC"):
                raise SyntaxError(
                    f"{name} WITHIN GROUP (ORDER BY ... DESC) not "
                    "supported; use 1-q over ASC"
                )
            self.accept_kw("ASC")
            self.expect_op(")")
            return OrderedAgg(name.lower(), q, order)
        if name in _AGG_FUNCS:
            if self.accept_op("*"):
                self.expect_op(")")
                return self._maybe_over(Agg("count", None))
            distinct = bool(self.accept_kw("DISTINCT"))
            arg = self.expr()
            self.expect_op(")")
            return self._maybe_over(Agg(name.lower(), arg, distinct))
        args: list[Expr] = []
        if not self.accept_op(")"):
            args.append(self.expr())
            while self.accept_op(","):
                args.append(self.expr())
            if name == "STRING_AGG" and self.accept_kw("ORDER"):
                self.expect_kw("BY")
                if self.expr() != args[0]:
                    raise SyntaxError("STRING_AGG must order by its argument")
            self.expect_op(")")
        # MEDIAN / QUANTILE_CONT / STRING_AGG are spellings of the
        # ordered-set aggregates (exact, one bucket shuffle per SELECT)
        if name == "MEDIAN" and len(args) == 1:
            return OrderedAgg("percentile_cont", 0.5, args[0])
        if name == "QUANTILE_CONT" and len(args) == 2:
            if not isinstance(args[1], Lit):
                raise SyntaxError("QUANTILE_CONT requires a literal fraction")
            return OrderedAgg("percentile_cont", float(args[1].value), args[0])
        if name == "STRING_AGG" and len(args) == 2:
            if not isinstance(args[1], Lit):
                raise SyntaxError("STRING_AGG requires a literal separator")
            return OrderedAgg("string_agg", args[1].value, args[0])
        return self._maybe_over(Fn(name, tuple(args)))

    def _maybe_over(self, node: Expr) -> Expr:
        """``fn(...) [OVER (def) | OVER name]`` — wrap into WindowFn."""
        if not self.accept_kw("OVER"):
            return node
        if self.peek().kind == "op" and self.peek().text == "(":
            wd: "WindowDef | str" = self._window_def()
        else:
            wd = self.expect_ident()
        if isinstance(node, Agg):
            if node.distinct:
                raise SyntaxError("DISTINCT window aggregates not supported")
            args = () if node.arg is None else (node.arg,)
            return WindowFn(node.func, args, wd)
        return WindowFn(node.name.lower(), node.args, wd)

    def _window_def(self) -> WindowDef:
        self.expect_op("(")
        partition: list[Expr] = []
        order: list[tuple[Expr, bool]] = []
        if self.accept_kw("PARTITION"):
            self.expect_kw("BY")
            partition.append(self.expr())
            while self.accept_op(","):
                partition.append(self.expr())
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            while True:
                oi = self.order_item()
                order.append((oi.expr, oi.descending))
                if not self.accept_op(","):
                    break
        frame = None
        unit = self.accept_kw("ROWS", "RANGE")
        if unit:
            if self.accept_kw("BETWEEN"):
                start = self._frame_bound()
                self.expect_kw("AND")
                end = self._frame_bound()
            else:  # single-bound shorthand: end is CURRENT ROW
                start = self._frame_bound()
                end = ("cur",)
            frame = (unit.lower(), start, end)
        self.expect_op(")")
        return WindowDef(tuple(partition), tuple(order), frame)

    def _frame_bound(self) -> tuple:
        """UNBOUNDED PRECEDING | n PRECEDING | CURRENT ROW | n FOLLOWING |
        UNBOUNDED FOLLOWING → ('up',) / ('pre', n) / ('cur',) / ('fol', n) /
        ('uf',)."""
        if self.accept_kw("UNBOUNDED"):
            if self.accept_kw("PRECEDING"):
                return ("up",)
            self.expect_kw("FOLLOWING")
            return ("uf",)
        if self.accept_kw("CURRENT"):
            self.expect_kw("ROW")
            return ("cur",)
        t = self.peek()
        if t.kind == "num" and "." not in t.text:
            self.next()
            n = int(t.text)
            if self.accept_kw("PRECEDING"):
                return ("pre", n)
            self.expect_kw("FOLLOWING")
            return ("fol", n)
        raise SyntaxError(f"expected frame bound at {t.text!r}")

    def case_expr(self) -> Expr:
        """Searched CASE; the simple form ``CASE x WHEN v ...`` becomes
        ``CASE WHEN x = v ...``."""
        self.expect_kw("CASE")
        operand = None if self.peek().kind == "kw" and \
            self.peek().text == "WHEN" else self.expr()
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_kw("WHEN"):
            cond = self.expr()
            if operand is not None:
                cond = BinOp("=", operand, cond)
            self.expect_kw("THEN")
            whens.append((cond, self.expr()))
        default = None
        if self.accept_kw("ELSE"):
            default = self.expr()
        self.expect_kw("END")
        return Case(tuple(whens), default)


def parse(sql: str) -> "Select | SetOpStmt":
    """Parse one SELECT statement, possibly a UNION/INTERSECT/EXCEPT chain
    (trailing semicolon tolerated)."""
    return Parser(sql.strip().rstrip(";")).parse_statement()
