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

Column references compile to slot reads. ``get_compiled(expr, layout)``
resolves every reference ``layout`` has *now*, to a bare ``values[slot]`` —
the caller promises to run the closure only over rows of that layout, which
is what a prepared shape knows about its own loops. A reference the layout
lacks (an outer query's column), and every reference compiled without a
layout, resolves on first use and remembers the answer in a one-entry
inline cache keyed by the context's layout; names no enclosing scope has
raise exactly what the interpreter raises.

A comparison of such a slot with a literal or parameter is one closure that
reads both operands itself (:func:`_build_comparison`). Like every builder
here it composes closures and builds no source: a statement with fresh
literals compiles without an ``exec``.

Compiled closures are cached by expression (and layout) identity in a
bounded LRU; the statement cache returns the same AST per SQL text, so a
statement compiles once across executions. Trivial nodes (literals,
columns, parameters, slots) are compiled on the fly without entering that
cache — star expansion materializes fresh ``ColumnRef`` objects and would
churn it.

The same LRU holds the executor's *prepared shapes* (:func:`get_prepared`):
what a statement or FROM item needs that depends only on its AST and the
catalog — index candidates, expanded targets, assignment slots — keyed by
``(AST identity, catalog epoch)``, so DDL orphans them and they age out.
"""

from __future__ import annotations

import operator

from ..errors import DataError
from ..sql import ast as A
from .datum import cast_value, compare_values
from .expr import (
    AmbiguousColumn, BoundParams, RowLayout, SlotRef, _func_call, _param,
    _subquery, apply_binary, evaluate, lookup_column,
)
from .functions import SCALAR_FUNCTIONS, is_aggregate
from .lru import LRUCache

_COMPILE_CACHE = LRUCache(4096)
_compile_count = 0


def compile_count() -> int:
    """Number of (non-trivial) expressions compiled so far; exposed as the
    ``expr_compile_count`` statistic."""
    return _compile_count


def slot_of(expr, layout: RowLayout):
    """The slot ``expr`` reads when it is nothing but a read of one slot of
    a ``layout`` row, else None. Lets a loop index the row itself instead
    of calling a closure."""
    kind = type(expr)
    if kind is SlotRef:
        return expr.index
    if kind is A.ColumnRef:
        try:
            return layout.resolve(expr)
        except AmbiguousColumn:
            return None  # raised when (if) the reference is evaluated
    return None


def get_compiled(expr, layout: RowLayout | None = None):
    """A closure ``fn(ctx)`` evaluating ``expr``; cached per AST object
    (and per layout when compiled against one)."""
    kind = type(expr)
    if kind is A.Literal:
        value = expr.value
        return lambda ctx: value
    if kind is A.ColumnRef:
        return _build_column(expr, layout)
    if kind is SlotRef:
        index = expr.index
        return lambda ctx: ctx.values[index]
    if kind is A.Param:
        return lambda ctx: _param(expr, ctx)
    # The None keeps these keys apart from get_prepared's (id, epoch,
    # *variant), whose variant holds names.
    key = id(expr) if layout is None else (id(expr), id(layout), None)
    memo = _COMPILE_CACHE.get(key)
    if memo is not None and memo[0] is expr and memo[1] is layout:
        return memo[2]
    global _compile_count
    _compile_count += 1
    builder = _BUILDERS.get(kind)
    if builder is None:
        # Unknown node: the interpreter raises the canonical error.
        fn = lambda ctx: evaluate(expr, ctx)  # noqa: E731
    else:
        fn = builder(expr, layout)
    # The strong references keep id(expr) / id(layout) from being recycled.
    _COMPILE_CACHE.put(key, (expr, layout, fn))
    return fn


def get_prepared(node, epoch: int, build, variant: tuple = ()):
    """The prepared shape of ``node`` (a statement, FROM item or table)
    under the catalog state ``epoch``: ``build()`` runs on the first
    execution and after any DDL, every other execution reuses its result.
    Epochs are unique across catalogs (see ``Catalog.epoch``), so instances
    sharing a parsed AST never share a shape. ``variant`` tells apart the
    shapes one node has (a table's, per column list)."""
    key = (id(node), epoch, *variant)
    memo = _COMPILE_CACHE.get(key)
    if memo is not None and memo[0] is node:
        return memo[1]
    shape = build()
    _COMPILE_CACHE.put(key, (node, shape))
    return shape


# ---------------------------------------------------------------- builders


def _build_column(ref: A.ColumnRef, layout: RowLayout | None):
    if layout is not None:
        slot = slot_of(ref, layout)
        if slot is not None:
            return lambda ctx: ctx.values[slot]
    # Resolved on first use per layout: the one-entry inline cache.
    hit_layout = None
    hit_slot = 0

    def run(ctx):
        nonlocal hit_layout, hit_slot
        if ctx.layout is hit_layout:
            return ctx.values[hit_slot]
        slot = ctx.layout.resolve(ref)
        if slot is None:
            return lookup_column(ref, ctx.outer)
        hit_layout, hit_slot = ctx.layout, slot
        return ctx.values[slot]

    return run


def _build_cast(node: A.Cast, layout):
    operand = get_compiled(node.operand, layout)
    type_name = node.type_name
    return lambda ctx: cast_value(operand(ctx), type_name)


def _build_is_null(node: A.IsNull, layout):
    operand = get_compiled(node.operand, layout)
    if node.negated:
        return lambda ctx: operand(ctx) is not None
    return lambda ctx: operand(ctx) is None


def _build_between(node: A.BetweenExpr, layout):
    operand = get_compiled(node.operand, layout)
    low = get_compiled(node.low, layout)
    high = get_compiled(node.high, layout)
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


def _build_in_list(node: A.InList, layout):
    operand = get_compiled(node.operand, layout)
    items = [get_compiled(item, layout) for item in node.items]
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


def _build_case(node: A.CaseExpr, layout):
    whens = [(get_compiled(c, layout), get_compiled(r, layout)) for c, r in node.whens]
    else_fn = get_compiled(node.else_result, layout) if node.else_result is not None else None
    if node.operand is not None:
        operand = get_compiled(node.operand, layout)

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


def _build_array(node: A.ArrayExpr, layout):
    elements = [get_compiled(e, layout) for e in node.elements]
    return lambda ctx: [e(ctx) for e in elements]


def _build_unary(node: A.UnaryOp, layout):
    operand = get_compiled(node.operand, layout)
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

#: Each comparison on two values of one plain type (int or str), which
#: order as ``compare_values`` orders them; and with its operands swapped.
_PLAIN_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                      "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_SWAPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _build_comparison(node: A.BinaryOp, layout):
    """``column op constant`` (either way round) over rows of ``layout``,
    as one closure that reads both operands itself: the column's slot, and
    the literal it holds or the parameter it looks up (the interpreter's
    ``_param`` only to raise). Two ints or two strs compare directly;
    anything else goes through ``compare_values`` with the operands in
    their written order. None when ``node`` is not such a comparison."""
    op = node.op
    swapped = False
    slot = slot_of(node.left, layout) if layout is not None else None
    constant = node.right
    if slot is None or type(constant) not in (A.Literal, A.Param):
        slot = slot_of(node.right, layout) if layout is not None else None
        constant, swapped = node.left, True
        if slot is None or type(constant) not in (A.Literal, A.Param):
            return None
    # ``plain(column value, constant)``: the constant on the right.
    plain = _PLAIN_COMPARISONS[_SWAPPED[op] if swapped else op]
    check = _COMPARISONS[op]

    def generic(value, const):
        if swapped:
            return check(compare_values(const, value))
        return check(compare_values(value, const))

    if type(constant) is A.Literal:
        const = constant.value
        if const is None:
            return lambda ctx: None
        kind = type(const) if type(const) in (int, str) else None

        def run(ctx):
            value = ctx.values[slot]
            if type(value) is kind:
                return plain(value, const)
            if value is None:
                return None
            return generic(value, const)

        return run

    positional = constant.index is not None
    # Where the value sits in the parameters: a list's position or a
    # mapping's name (``BoundParams`` holds one of each).
    key = constant.index - 1 if positional else constant.name
    container = (list, tuple) if positional else (dict,)

    def run(ctx):
        value = ctx.values[slot]
        params = ctx.params
        if type(params) is BoundParams:
            params = params.positional if positional else params.named
        if type(params) in container:
            try:
                const = params[key]
            except LookupError:
                const = _param(constant, ctx)
        else:
            const = _param(constant, ctx)
        if value is None or const is None:
            return None
        kind = type(value)
        if kind is type(const) and (kind is int or kind is str):
            return plain(value, const)
        return generic(value, const)

    return run


def _build_binary(node: A.BinaryOp, layout):
    op = node.op
    if op in _COMPARISONS:
        run = _build_comparison(node, layout)
        if run is not None:
            return run
    left = get_compiled(node.left, layout)
    right = get_compiled(node.right, layout)
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


def _build_func_call(node: A.FuncCall, layout):
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
    args = [get_compiled(a, layout) for a in node.args]
    return lambda ctx: fn(*[a(ctx) for a in args])


def _build_subquery(node: A.SubqueryExpr, layout):
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
