"""Expression compilation.

:func:`get_compiled` turns an expression AST into a Python closure
``fn(ctx) -> value`` once, so the executor's per-row loops (WHERE filters,
projections, join quals) pay the tree walk and dispatch-table lookups a
single time per statement instead of once per row.

Semantics are identical to :func:`repro.engine.expr.evaluate` by
construction: every node kind either composes child closures around the
same primitives the interpreter uses (``apply_binary``, ``cast_value``,
``compare_values``) or — for context-dependent nodes such as volatile
functions, UDFs and subqueries — delegates to the interpreter's own
handler. ``evaluate`` remains the fallback for anything unknown.

Compiled closures are cached by expression identity in a bounded LRU; the
statement cache returns the same AST per SQL text, so a statement compiles
once across executions. Trivial nodes (literals, columns, parameters) are
compiled on the fly without entering that cache — star expansion
materializes fresh ``ColumnRef`` objects and would churn it; column
lookups instead share one closure per ``(qualifier, name)``.

The same LRU holds the executor's *prepared shapes* (:func:`get_prepared`):
what a statement or FROM item needs that depends only on its AST and the
catalog — index candidates, expanded targets, assignment slots — keyed by
``(AST identity, catalog epoch)``, so DDL orphans them and they age out.
"""

from __future__ import annotations

from ..errors import DataError
from ..sql import ast as A
from .datum import cast_value, compare_values
from .expr import _func_call, _param, _subquery, apply_binary, evaluate
from .functions import SCALAR_FUNCTIONS, is_aggregate
from .lru import LRUCache

_COMPILE_CACHE = LRUCache(4096)
_COLUMN_LOOKUPS = LRUCache(1024)
_compile_count = 0


def compile_count() -> int:
    """Number of (non-trivial) expressions compiled so far; exposed as the
    ``expr_compile_count`` statistic."""
    return _compile_count


def get_compiled(expr):
    """A closure ``fn(ctx)`` evaluating ``expr``; cached per AST object."""
    kind = type(expr)
    if kind is A.Literal:
        value = expr.value
        return lambda ctx: value
    if kind is A.ColumnRef:
        # A column lookup depends only on (qualifier, name), so every
        # reference to the same column shares one closure.
        ref = (expr.table, expr.name)
        fn = _COLUMN_LOOKUPS.get(ref)
        if fn is None:
            table, name = ref
            fn = lambda ctx: ctx.lookup_column(table, name)  # noqa: E731
            _COLUMN_LOOKUPS.put(ref, fn)
        return fn
    if kind is A.Param:
        return lambda ctx: _param(expr, ctx)
    key = id(expr)
    memo = _COMPILE_CACHE.get(key)
    if memo is not None and memo[0] is expr:
        return memo[1]
    global _compile_count
    _compile_count += 1
    fn = _build(expr)
    # The strong reference to the AST keeps id(expr) from being recycled.
    _COMPILE_CACHE.put(key, (expr, fn))
    return fn


def get_prepared(node, epoch: int, build):
    """The prepared shape of ``node`` (a statement or FROM item) under the
    catalog state ``epoch``: ``build()`` runs on the first execution and
    after any DDL, every other execution reuses its result. Epochs are
    unique across catalogs (see ``Catalog.epoch``), so instances sharing a
    parsed AST never share a shape."""
    key = (id(node), epoch)
    memo = _COMPILE_CACHE.get(key)
    if memo is not None and memo[0] is node:
        return memo[1]
    shape = build()
    _COMPILE_CACHE.put(key, (node, shape))
    return shape


def _build(expr):
    builder = _BUILDERS.get(type(expr))
    if builder is None:
        # Unknown node: the interpreter raises the canonical error.
        return lambda ctx: evaluate(expr, ctx)
    return builder(expr)


# ---------------------------------------------------------------- builders


def _build_cast(node: A.Cast):
    operand = get_compiled(node.operand)
    type_name = node.type_name
    return lambda ctx: cast_value(operand(ctx), type_name)


def _build_is_null(node: A.IsNull):
    operand = get_compiled(node.operand)
    if node.negated:
        return lambda ctx: operand(ctx) is not None
    return lambda ctx: operand(ctx) is None


def _build_between(node: A.BetweenExpr):
    operand = get_compiled(node.operand)
    low = get_compiled(node.low)
    high = get_compiled(node.high)
    negated = node.negated

    def run(ctx):
        value = operand(ctx)
        lo = low(ctx)
        hi = high(ctx)
        if value is None or lo is None or hi is None:
            return None
        result = compare_values(value, lo) >= 0 and compare_values(value, hi) <= 0
        return (not result) if negated else result

    return run


def _build_in_list(node: A.InList):
    operand = get_compiled(node.operand)
    items = [get_compiled(item) for item in node.items]
    negated = node.negated

    def run(ctx):
        value = operand(ctx)
        if value is None:
            return None
        saw_null = False
        for item in items:
            iv = item(ctx)
            if iv is None:
                saw_null = True
            elif compare_values(value, iv) == 0:
                return not negated
        if saw_null:
            return None
        return negated

    return run


def _build_case(node: A.CaseExpr):
    whens = [(get_compiled(c), get_compiled(r)) for c, r in node.whens]
    else_fn = get_compiled(node.else_result) if node.else_result is not None else None
    if node.operand is not None:
        operand = get_compiled(node.operand)

        def run(ctx):
            value = operand(ctx)
            for cond, result in whens:
                cv = cond(ctx)
                if value is not None and cv is not None \
                        and compare_values(value, cv) == 0:
                    return result(ctx)
            return else_fn(ctx) if else_fn is not None else None

        return run

    def run(ctx):
        for cond, result in whens:
            if cond(ctx) is True:
                return result(ctx)
        return else_fn(ctx) if else_fn is not None else None

    return run


def _build_array(node: A.ArrayExpr):
    elements = [get_compiled(e) for e in node.elements]
    return lambda ctx: [e(ctx) for e in elements]


def _build_unary(node: A.UnaryOp):
    operand = get_compiled(node.operand)
    if node.op == "not":
        def run(ctx):
            value = operand(ctx)
            return None if value is None else (not value)
        return run
    if node.op == "-":
        def run(ctx):
            value = operand(ctx)
            return None if value is None else -value
        return run
    op = node.op

    def run(ctx):
        raise DataError(f"unknown unary operator {op!r}")

    return run


_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def _build_binary(node: A.BinaryOp):
    op = node.op
    left = get_compiled(node.left)
    right = get_compiled(node.right)
    if op == "and":
        def run(ctx):
            lv = left(ctx)
            if lv is False:
                return False
            rv = right(ctx)
            if rv is False:
                return False
            return None if lv is None or rv is None else True
        return run
    if op == "or":
        def run(ctx):
            lv = left(ctx)
            if lv is True:
                return True
            rv = right(ctx)
            if rv is True:
                return True
            return None if lv is None or rv is None else False
        return run
    if op == "is":
        def run(ctx):
            lv = left(ctx)
            rv = right(ctx)
            return lv is rv if rv is None else lv == rv
        return run
    check = _COMPARISONS.get(op)
    if check is not None:
        def run(ctx):
            lv = left(ctx)
            rv = right(ctx)
            if lv is None or rv is None:
                return None
            return check(compare_values(lv, rv))
        return run

    def run(ctx):
        return apply_binary(op, left(ctx), right(ctx))

    return run


#: Function names whose results depend on the session / wall clock; they
#: go through the interpreter's handler to share its exact behaviour.
_SESSION_FNS = frozenset((
    "now", "current_timestamp", "localtimestamp", "current_date", "random",
    "nextval", "setval", "currval", "txid_current", "pg_backend_pid",
))


def _build_func_call(node: A.FuncCall):
    name = node.name.lower()
    if (
        node.over is not None
        or node.agg_phase is not None
        or node.distinct
        or node.order_by
        or node.filter is not None
        or is_aggregate(name)
        or name in _SESSION_FNS
        or name not in SCALAR_FUNCTIONS
    ):
        # Aggregates raise, session functions need the session, unknown
        # names may resolve to catalog UDFs per-call: all interpreter turf.
        return lambda ctx: _func_call(node, ctx)
    fn = SCALAR_FUNCTIONS[name]
    args = [get_compiled(a) for a in node.args]
    return lambda ctx: fn(*[a(ctx) for a in args])


def _build_subquery(node: A.SubqueryExpr):
    return lambda ctx: _subquery(node, ctx)


_BUILDERS = {
    A.Cast: _build_cast,
    A.IsNull: _build_is_null,
    A.BetweenExpr: _build_between,
    A.InList: _build_in_list,
    A.CaseExpr: _build_case,
    A.ArrayExpr: _build_array,
    A.UnaryOp: _build_unary,
    A.BinaryOp: _build_binary,
    A.FuncCall: _build_func_call,
    A.SubqueryExpr: _build_subquery,
}
