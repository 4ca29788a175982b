"""Deparser: turn an AST back into SQL text.

The distributed layer plans a query on the coordinator, rewrites table names
to shard names (``orders`` → ``orders_102008``), and ships the rewritten
query text to the worker over the (simulated) wire — precisely the
mechanism the paper describes for the fast-path/router/pushdown planners.
The deparser guarantees round-trip: ``parse(deparse(parse(q)))`` is
structurally identical to ``parse(q)``.
"""

from __future__ import annotations

import datetime as _dt
import json

from ..errors import ReproError
from . import ast as A


def deparse(node) -> str:
    """Render a statement or expression AST node as SQL text."""
    fn = _DISPATCH.get(type(node))
    if fn is None:
        raise ReproError(f"cannot deparse node type {type(node).__name__}")
    return fn(node)


def quote_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (dict, list)):
        return quote_literal(json.dumps(value, sort_keys=True, default=str)) + "::jsonb"
    if isinstance(value, _dt.datetime):
        return f"'{value.isoformat()}'::timestamp"
    if isinstance(value, _dt.date):
        return f"'{value.isoformat()}'::date"
    return "'" + str(value).replace("'", "''") + "'"


# ----------------------------------------------------------------- exprs


def _literal(n: A.Literal) -> str:
    return quote_literal(n.value)


def _param(n: A.Param) -> str:
    return f"${n.index}" if n.index is not None else f":{n.name}"


def _column_ref(n: A.ColumnRef) -> str:
    return f"{n.table}.{n.name}" if n.table else n.name


def _star(n: A.Star) -> str:
    return f"{n.table}.*" if n.table else "*"


_TIGHT_OPS = {"->", "->>", "#>", "#>>", "::"}


def _binary_op(n: A.BinaryOp) -> str:
    op = n.op.upper() if n.op in ("and", "or", "like", "ilike", "is") else n.op
    left, right = _paren(n.left), _paren(n.right)
    if n.op in _TIGHT_OPS:
        return f"{left}{n.op}{right}"
    return f"{left} {op} {right}"


def _paren(expr) -> str:
    text = deparse(expr)
    if isinstance(expr, (A.BinaryOp, A.CaseExpr, A.BetweenExpr, A.SubqueryExpr, A.UnaryOp)):
        return f"({text})"
    return text


def _unary_op(n: A.UnaryOp) -> str:
    if n.op == "not":
        return f"NOT {_paren(n.operand)}"
    return f"{n.op}{_paren(n.operand)}"


def _cast(n: A.Cast) -> str:
    return f"{_paren(n.operand)}::{n.type_name}"


def _func_call(n: A.FuncCall) -> str:
    if n.name == "_named_arg":
        return f"{n.args[0].value} := {deparse(n.args[1])}"
    if n.name == "_subscript":
        return f"{_paren(n.args[0])}[{deparse(n.args[1])}]"
    if n.name == "extract" and len(n.args) == 2 and isinstance(n.args[0], A.Literal):
        return f"extract({n.args[0].value} FROM {deparse(n.args[1])})"
    if n.name == "interval" and len(n.args) == 1 and isinstance(n.args[0], A.Literal):
        return f"interval '{n.args[0].value}'"
    args = ", ".join(deparse(a) for a in n.args)
    prefix = "DISTINCT " if n.distinct else ""
    order = ""
    if n.order_by:
        order = " ORDER BY " + ", ".join(_sort_key(k) for k in n.order_by)
    name = n.name
    if n.agg_phase == "partial":
        name = f"{n.name}"  # partial aggregates keep the name; phase is plan state
    text = f"{name}({prefix}{args}{order})"
    if n.filter is not None:
        text += f" FILTER (WHERE {deparse(n.filter)})"
    if n.over is not None:
        parts = []
        if n.over.partition_by:
            parts.append(
                "PARTITION BY " + ", ".join(deparse(e) for e in n.over.partition_by)
            )
        if n.over.order_by:
            parts.append(
                "ORDER BY " + ", ".join(_sort_key(k) for k in n.over.order_by)
            )
        text += f" OVER ({' '.join(parts)})"
    return text


def _case_expr(n: A.CaseExpr) -> str:
    parts = ["CASE"]
    if n.operand is not None:
        parts.append(deparse(n.operand))
    for cond, result in n.whens:
        parts.append(f"WHEN {deparse(cond)} THEN {deparse(result)}")
    if n.else_result is not None:
        parts.append(f"ELSE {deparse(n.else_result)}")
    parts.append("END")
    return " ".join(parts)


def _array_expr(n: A.ArrayExpr) -> str:
    return "ARRAY[" + ", ".join(deparse(e) for e in n.elements) + "]"


def _in_list(n: A.InList) -> str:
    items = ", ".join(deparse(i) for i in n.items)
    neg = "NOT " if n.negated else ""
    return f"{_paren(n.operand)} {neg}IN ({items})"


def _is_null(n: A.IsNull) -> str:
    return f"{_paren(n.operand)} IS {'NOT ' if n.negated else ''}NULL"


def _between(n: A.BetweenExpr) -> str:
    neg = "NOT " if n.negated else ""
    return f"{_paren(n.operand)} {neg}BETWEEN {_paren(n.low)} AND {_paren(n.high)}"


def _subquery_expr(n: A.SubqueryExpr) -> str:
    sub = deparse(n.query)
    if n.kind == "scalar":
        return f"({sub})"
    if n.kind == "exists":
        return f"EXISTS ({sub})"
    if n.kind == "in":
        neg = "NOT " if n.negated else ""
        return f"{_paren(n.operand)} {neg}IN ({sub})"
    if n.kind in ("any", "all"):
        return f"{_paren(n.operand)} {n.op} {n.kind.upper()} ({sub})"
    if n.kind == "array":
        return f"ARRAY({sub})"
    raise ReproError(f"unknown subquery kind {n.kind}")


# ----------------------------------------------------------------- FROM


def _table_ref(n: A.TableRef) -> str:
    return f"{n.name} AS {n.alias}" if n.alias and n.alias != n.name else n.name


def _subquery_ref(n: A.SubqueryRef) -> str:
    return f"({deparse(n.query)}) AS {n.alias}"


def _function_ref(n: A.FunctionRef) -> str:
    cols = f" ({', '.join(n.column_names)})" if n.column_names else ""
    return f"{deparse(n.func)} AS {n.alias}{cols}"


def _join_expr(n: A.JoinExpr) -> str:
    jt = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN",
          "full": "FULL JOIN", "cross": "CROSS JOIN"}[n.join_type]
    left = deparse(n.left)
    right = deparse(n.right)
    if isinstance(n.right, A.JoinExpr):
        right = f"({right})"
    text = f"{left} {jt} {right}"
    if n.condition is not None:
        text += f" ON {deparse(n.condition)}"
    elif n.using:
        text += f" USING ({', '.join(n.using)})"
    return text


# ------------------------------------------------------------ statements


def _sort_key(k: A.SortKey) -> str:
    text = deparse(k.expr)
    if not k.ascending:
        text += " DESC"
    if k.nulls_first is True:
        text += " NULLS FIRST"
    elif k.nulls_first is False:
        text += " NULLS LAST"
    return text


def _target(t) -> str:
    if isinstance(t, A.Star):
        return _star(t)
    text = deparse(t.expr)
    if t.alias:
        text += f" AS {t.alias}"
    return text


def _select(n: A.Select) -> str:
    parts = []
    if n.ctes:
        ctes = ", ".join(
            f"{c.name}{'(' + ', '.join(c.column_names) + ')' if c.column_names else ''}"
            f" AS ({deparse(c.query)})"
            for c in n.ctes
        )
        parts.append(f"WITH {ctes}")
    select_kw = "SELECT"
    if n.distinct:
        select_kw += " DISTINCT"
        if n.distinct_on:
            select_kw += " ON (" + ", ".join(deparse(e) for e in n.distinct_on) + ")"
    parts.append(select_kw + " " + ", ".join(_target(t) for t in n.targets))
    if n.from_items:
        parts.append("FROM " + ", ".join(deparse(f) for f in n.from_items))
    if n.where is not None:
        parts.append("WHERE " + deparse(n.where))
    if n.group_by:
        parts.append("GROUP BY " + ", ".join(deparse(e) for e in n.group_by))
    if n.having is not None:
        parts.append("HAVING " + deparse(n.having))
    for op, rhs in n.set_ops:
        arm = deparse(rhs)  # bare, its own clauses would be the whole's
        if (rhs.order_by or rhs.limit is not None or rhs.offset is not None
                or rhs.distinct or rhs.set_ops or rhs.ctes):
            arm = f"({arm})"
        parts.append(f"{op.upper()} {arm}")
    if n.order_by:
        parts.append("ORDER BY " + ", ".join(_sort_key(k) for k in n.order_by))
    if n.limit is not None:
        parts.append("LIMIT " + deparse(n.limit))
    if n.offset is not None:
        parts.append("OFFSET " + deparse(n.offset))
    if n.for_update:
        parts.append("FOR UPDATE")
    return " ".join(parts)


def _insert(n: A.Insert) -> str:
    parts = [f"INSERT INTO {n.table}"]
    if n.columns:
        parts.append("(" + ", ".join(n.columns) + ")")
    if n.select is not None:
        parts.append(deparse(n.select))
    elif n.rows:
        rows = ", ".join("(" + ", ".join(deparse(v) for v in row) + ")" for row in n.rows)
        parts.append("VALUES " + rows)
    else:
        parts.append("DEFAULT VALUES")
    if n.on_conflict is not None:
        oc = "ON CONFLICT"
        if n.on_conflict.columns:
            oc += " (" + ", ".join(n.on_conflict.columns) + ")"
        if n.on_conflict.action == "nothing":
            oc += " DO NOTHING"
        else:
            sets = ", ".join(f"{c} = {deparse(e)}" for c, e in n.on_conflict.updates)
            oc += " DO UPDATE SET " + sets
        parts.append(oc)
    if n.returning:
        parts.append("RETURNING " + ", ".join(_target(t) for t in n.returning))
    return " ".join(parts)


def _update(n: A.Update) -> str:
    table = f"{n.table} AS {n.alias}" if n.alias else n.table
    sets = ", ".join(f"{c} = {deparse(e)}" for c, e in n.assignments)
    text = f"UPDATE {table} SET {sets}"
    if n.where is not None:
        text += " WHERE " + deparse(n.where)
    if n.returning:
        text += " RETURNING " + ", ".join(_target(t) for t in n.returning)
    return text


def _delete(n: A.Delete) -> str:
    table = f"{n.table} AS {n.alias}" if n.alias else n.table
    text = f"DELETE FROM {table}"
    if n.where is not None:
        text += " WHERE " + deparse(n.where)
    if n.returning:
        text += " RETURNING " + ", ".join(_target(t) for t in n.returning)
    return text


def _column_def(c: A.ColumnDef) -> str:
    text = f"{c.name} {c.type_name}"
    if c.primary_key:
        text += " PRIMARY KEY"
    if c.unique:
        text += " UNIQUE"
    if c.not_null:
        text += " NOT NULL"
    if c.default is not None:
        text += f" DEFAULT {deparse(c.default)}"
    if c.references is not None:
        ref_table, ref_col = c.references
        text += f" REFERENCES {ref_table}"
        if ref_col:
            text += f" ({ref_col})"
    return text


def _create_table(n: A.CreateTable) -> str:
    items = [_column_def(c) for c in n.columns]
    if n.primary_key:
        items.append("PRIMARY KEY (" + ", ".join(n.primary_key) + ")")
    for cols in n.unique_constraints:
        items.append("UNIQUE (" + ", ".join(cols) + ")")
    for fk in n.foreign_keys:
        ref_cols = f" ({', '.join(fk.ref_columns)})" if fk.ref_columns else ""
        items.append(
            f"FOREIGN KEY ({', '.join(fk.columns)}) REFERENCES {fk.ref_table}{ref_cols}"
        )
    ine = "IF NOT EXISTS " if n.if_not_exists else ""
    text = f"CREATE TABLE {ine}{n.name} (" + ", ".join(items) + ")"
    if n.using:
        text += f" USING {n.using}"
    return text


def _create_index(n: A.CreateIndex) -> str:
    unique = "UNIQUE " if n.unique else ""
    ine = "IF NOT EXISTS " if n.if_not_exists else ""
    using = f" USING {n.using}" if n.using != "btree" else ""
    exprs = ", ".join(
        f"({deparse(e)})" if not isinstance(e, A.ColumnRef) else deparse(e) for e in n.exprs
    )
    return f"CREATE {unique}INDEX {ine}{n.name} ON {n.table}{using} ({exprs})"


def _alter_table(n: A.AlterTable) -> str:
    if n.action == "add_column":
        return f"ALTER TABLE {n.table} ADD COLUMN {_column_def(n.column)}"
    if n.action == "drop_column":
        return f"ALTER TABLE {n.table} DROP COLUMN {n.column_name}"
    if n.action == "add_foreign_key":
        fk = n.foreign_key
        ref_cols = f" ({', '.join(fk.ref_columns)})" if fk.ref_columns else ""
        named = f"CONSTRAINT {fk.name} " if fk.name else ""
        return (
            f"ALTER TABLE {n.table} ADD {named}FOREIGN KEY ({', '.join(fk.columns)})"
            f" REFERENCES {fk.ref_table}{ref_cols}"
        )
    raise ReproError(f"cannot deparse ALTER TABLE action {n.action}")


_DISPATCH = {
    A.Literal: _literal,
    A.Param: _param,
    A.ColumnRef: _column_ref,
    A.Star: _star,
    A.BinaryOp: _binary_op,
    A.UnaryOp: _unary_op,
    A.Cast: _cast,
    A.FuncCall: _func_call,
    A.CaseExpr: _case_expr,
    A.ArrayExpr: _array_expr,
    A.InList: _in_list,
    A.IsNull: _is_null,
    A.BetweenExpr: _between,
    A.SubqueryExpr: _subquery_expr,
    A.TableRef: _table_ref,
    A.SubqueryRef: _subquery_ref,
    A.FunctionRef: _function_ref,
    A.JoinExpr: _join_expr,
    A.Select: _select,
    A.Insert: _insert,
    A.Update: _update,
    A.Delete: _delete,
    A.CreateTable: _create_table,
    A.CreateIndex: _create_index,
    A.AlterTable: _alter_table,
    A.DropTable: lambda n: "DROP TABLE "
    + ("IF EXISTS " if n.if_exists else "")
    + ", ".join(n.names)
    + (" CASCADE" if n.cascade else ""),
    A.DropIndex: lambda n: f"DROP INDEX {'IF EXISTS ' if n.if_exists else ''}{n.name}",
    A.TruncateTable: lambda n: "TRUNCATE TABLE " + ", ".join(n.names),
    A.Begin: lambda n: "BEGIN",
    A.Commit: lambda n: "COMMIT",
    A.Rollback: lambda n: "ROLLBACK",
    A.PrepareTransaction: lambda n: f"PREPARE TRANSACTION '{n.gid}'",
    A.CommitPrepared: lambda n: f"COMMIT PREPARED '{n.gid}'",
    A.RollbackPrepared: lambda n: f"ROLLBACK PREPARED '{n.gid}'",
    A.Copy: lambda n: f"COPY {n.table}"
    + (f" ({', '.join(n.columns)})" if n.columns else "")
    + (" FROM STDIN" if n.direction == "from" else " TO STDOUT"),
    A.Vacuum: lambda n: "VACUUM" + (f" {n.table}" if n.table else ""),
    A.SetVar: lambda n: f"SET {'LOCAL ' if n.is_local else ''}{n.name} = {n.value}",
    A.ShowVar: lambda n: f"SHOW {n.name}",
    A.CallProcedure: lambda n: f"CALL {n.name}(" + ", ".join(deparse(a) for a in n.args) + ")",
}
