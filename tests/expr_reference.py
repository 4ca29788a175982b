"""The tree-walking expression interpreter, kept as the reference the
closure builders (``repro.engine.compile``) are held to by
``tests/test_expr_reference.py`` and ``tests/test_compile_parity.py``: same
value, same type and the same error for any expression and context.

One handler per node kind walks the tree on every call. It shares only
the value primitives of ``repro.engine.expr`` (``apply_binary``,
``lookup_column``) and ``repro.engine.datum`` with the builders, so a
node's meaning is stated here a second time, independently.
"""

from __future__ import annotations

import datetime as _dt

from repro.engine.datum import cast_value, compare_values, to_text
from repro.engine.expr import BoundParams, EvalContext, SlotRef, apply_binary, lookup_column
from repro.engine.functions import SCALAR_FUNCTIONS, is_aggregate
from repro.errors import CatalogError, DataError
from repro.sql import ast as A


def evaluate(expr, ctx: EvalContext):
    """Evaluate an expression AST node to a Python value."""
    handler = _EVAL.get(type(expr))
    if handler is None:
        raise DataError(f"cannot evaluate expression node {type(expr).__name__}")
    return handler(expr, ctx)


# ------------------------------------------------------------------ nodes


def _literal(node: A.Literal, ctx):
    return node.value


def _param(node: A.Param, ctx):
    params = ctx.params
    if type(params) is BoundParams:
        if node.index is not None:
            positional = params.positional
            if positional is None or node.index > len(positional):
                raise DataError(f"no value for parameter ${node.index}")
            return positional[node.index - 1]
        if node.name in params.named:
            return params.named[node.name]
        raise DataError(f"no value for parameter :{node.name}")
    if node.index is not None:
        if not isinstance(params, (list, tuple)) or node.index > len(params):
            raise DataError(f"no value for parameter ${node.index}")
        return params[node.index - 1]
    if not isinstance(params, dict) or node.name not in params:
        raise DataError(f"no value for parameter :{node.name}")
    return params[node.name]


def _slot_ref(node: SlotRef, ctx):
    return ctx.values[node.index]


def _cast(node: A.Cast, ctx):
    return cast_value(evaluate(node.operand, ctx), node.type_name)


def _is_null(node: A.IsNull, ctx):
    value = evaluate(node.operand, ctx)
    return (value is not None) if node.negated else (value is None)


def _between(node: A.BetweenExpr, ctx):
    value = evaluate(node.operand, ctx)
    low = evaluate(node.low, ctx)
    high = evaluate(node.high, ctx)
    if value is None or low is None or high is None:
        return None
    result = compare_values(value, low) >= 0 and compare_values(value, high) <= 0
    return (not result) if node.negated else result


def _in_list(node: A.InList, ctx):
    value = evaluate(node.operand, ctx)
    if value is None:
        return None
    saw_null = False
    for item in node.items:
        iv = evaluate(item, ctx)
        if iv is None:
            saw_null = True
        elif compare_values(value, iv) == 0:
            return not node.negated
    if saw_null:
        return None
    return node.negated


def _case(node: A.CaseExpr, ctx):
    if node.operand is not None:
        operand = evaluate(node.operand, ctx)
        for cond, result in node.whens:
            cv = evaluate(cond, ctx)
            if operand is not None and cv is not None and compare_values(operand, cv) == 0:
                return evaluate(result, ctx)
    else:
        for cond, result in node.whens:
            if evaluate(cond, ctx) is True:
                return evaluate(result, ctx)
    return evaluate(node.else_result, ctx) if node.else_result is not None else None


def _array(node: A.ArrayExpr, ctx):
    return [evaluate(e, ctx) for e in node.elements]


def _unary(node: A.UnaryOp, ctx):
    value = evaluate(node.operand, ctx)
    if node.op == "not":
        return None if value is None else (not value)
    if node.op == "-":
        return None if value is None else -value
    raise DataError(f"unknown unary operator {node.op!r}")


def _binary(node: A.BinaryOp, ctx):
    op = node.op
    if op == "and":
        left = evaluate(node.left, ctx)
        if left is False:
            return False
        right = evaluate(node.right, ctx)
        if right is False:
            return False
        return None if left is None or right is None else True
    if op == "or":
        left = evaluate(node.left, ctx)
        if left is True:
            return True
        right = evaluate(node.right, ctx)
        if right is True:
            return True
        return None if left is None or right is None else False
    left = evaluate(node.left, ctx)
    if op == "is":
        right = evaluate(node.right, ctx)
        return left is right if right is None else left == right
    right = evaluate(node.right, ctx)
    return apply_binary(op, left, right)

def _func_call(node: A.FuncCall, ctx):
    name = node.name.lower()
    if is_aggregate(name):
        raise DataError(f"aggregate function {name}() used outside of aggregation context")
    if name in ("now", "current_timestamp", "localtimestamp"):
        return _session_now(ctx)
    if name == "current_date":
        return _session_now(ctx).date()
    if name == "random":
        if ctx.session is not None:
            return ctx.session.rng.random()
        raise DataError("random() requires a session")
    if name in ("nextval", "setval", "currval"):
        return _sequence_fn(name, node, ctx)
    if name == "txid_current":
        return ctx.session.ensure_xid() if ctx.session else 0
    if name == "pg_backend_pid":
        return ctx.session.backend_pid if ctx.session else 0
    if name == "coalesce":  # evaluates only the arguments it needs
        for arg in node.args:
            value = evaluate(arg, ctx)
            if value is not None:
                return value
        return None
    args = [evaluate(arg, ctx) for arg in node.args]
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is not None:
        return fn(*args)
    # User-defined / extension function registered in the catalog.
    if ctx.session is not None:
        udf = ctx.session.instance.catalog.get_function(name)
        if udf is not None:
            return udf.fn(ctx.session, *args)
    raise CatalogError(f"function {name}() does not exist")


def _session_now(ctx):
    if ctx.session is not None:
        return ctx.session.now()
    return _dt.datetime(2021, 6, 20)  # deterministic default: SIGMOD'21 day one


def _sequence_fn(name, node, ctx):
    if ctx.session is None:
        raise DataError(f"{name}() requires a session")
    seq_name = evaluate(node.args[0], ctx)
    seq = ctx.session.instance.catalog.get_sequence(to_text(seq_name))
    if name == "nextval":
        return seq.nextval()
    if name == "setval":
        value = int(evaluate(node.args[1], ctx))
        seq.setval(value)
        return value
    return seq._next - 1


def _subquery(node: A.SubqueryExpr, ctx):
    if ctx.subquery_executor is None:
        raise DataError("subqueries are not supported in this context")
    rows = ctx.subquery_executor(node.query, ctx)
    if node.kind == "scalar":
        if not rows:
            return None
        if len(rows[0]) != 1:
            raise DataError("scalar subquery must return one column")
        if len(rows) > 1:
            raise DataError("scalar subquery returned more than one row")
        return rows[0][0]
    if node.kind == "exists":
        return bool(rows)
    if node.kind == "array":
        return [r[0] for r in rows]
    if node.kind == "in":
        value = evaluate(node.operand, ctx)
        if value is None:
            return None
        saw_null = False
        for row in rows:
            if row[0] is None:
                saw_null = True
            elif compare_values(value, row[0]) == 0:
                return not node.negated
        if saw_null:
            return None
        return node.negated
    if node.kind in ("any", "all"):
        value = evaluate(node.operand, ctx)
        results = [apply_binary(node.op, value, row[0]) for row in rows]
        if node.kind == "any":
            if any(r is True for r in results):
                return True
            return None if any(r is None for r in results) else False
        if all(r is True for r in results):
            return True
        return None if any(r is None for r in results) else False
    raise DataError(f"unknown subquery kind {node.kind!r}")


_EVAL = {
    A.Literal: _literal,
    A.Param: _param,
    A.ColumnRef: lookup_column,
    SlotRef: _slot_ref,
    A.Cast: _cast,
    A.IsNull: _is_null,
    A.BetweenExpr: _between,
    A.InList: _in_list,
    A.CaseExpr: _case,
    A.ArrayExpr: _array,
    A.UnaryOp: _unary,
    A.BinaryOp: _binary,
    A.FuncCall: _func_call,
    A.SubqueryExpr: _subquery,
}

