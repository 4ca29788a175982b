"""Expression compilation.

:func:`get_compiled` turns an expression AST into a closure ``fn(ctx) ->
value`` once, so per-row work pays the tree walk and dispatch lookups once
per statement. Semantics equal :func:`repro.engine.expr.evaluate` by
construction: every node kind composes child closures around the
interpreter's primitives (``apply_binary``, ``cast_value``,
``compare_values``) or — volatile functions, UDFs, subqueries, anything
unknown — delegates to the interpreter's own handler.

Column references compile to slot reads: ``get_compiled(expr, layout)``
resolves every reference ``layout`` has to ``values[slot]`` (the caller
runs it only over rows of that layout); any other reference resolves on
first use into a one-entry inline cache keyed by the context's layout, and
names no enclosing scope has raise what the interpreter raises. A slot
compared with a literal or parameter is one closure reading both operands
(:func:`_build_comparison`); a WHERE clause is split for the executor's
fused loops by :class:`WhereShape`. Nothing here builds source text.

Compiled closures are cached by expression (and layout) identity in a
bounded LRU, trivial nodes (literals, columns, parameters, slots) outside
it. The same LRU holds the executor's *prepared shapes*
(:func:`get_prepared`), keyed by ``(AST identity, catalog epoch)``, so DDL
orphans them and they age out.
"""

from __future__ import annotations

import functools
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

    def run(ctx):
        value = ctx.values[slot]
        const = param_value(constant, ctx.params)
        if const is UNBOUND:
            const = _param(constant, ctx)
        if value is None or const is None:
            return None
        kind = type(value)
        if kind is type(const) and (kind is int or kind is str):
            return plain(value, const)
        return generic(value, const)

    return run


#: What :func:`param_value` returns for a parameter it cannot look up.
UNBOUND = object()


def param_value(node: A.Param, params):
    """The value ``node`` names in ``params`` (a list's position or a
    mapping's name), or :data:`UNBOUND`: ``_param`` then answers or raises."""
    positional = node.index is not None
    if type(params) is BoundParams:
        params = params.positional if positional else params.named
    if type(params) in ((list, tuple) if positional else (dict,)):
        try:
            return params[node.index - 1 if positional else node.name]
        except LookupError:
            pass
    return UNBOUND


class _NoMatch:
    """The type no value has: a constant of any other type never matches."""


#: Each comparison negated, for two values of one plain type (int or str).
_NEGATED = {"=": "!=", "<>": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class WhereShape:
    """A WHERE clause as a fused loop runs it (``executor._write_loop``):
    its leading ``column op constant`` conjuncts written out — ``inline``,
    ``(slot, negated operator, Literal or Param)``, the constant resolved
    per execution (:meth:`constants`), never in the loop's text — the rest
    one closure (:attr:`rest`). A written-out test decides two ints or two
    strs only; on anything else the loop asks the whole clause's closure
    (:attr:`full`), which answers or raises as the interpreter does."""

    __slots__ = ("full", "inline", "rest")

    def __init__(self, where, layout: RowLayout):
        self.full = get_compiled(where, layout)
        self.inline: list[tuple] = []
        conjuncts = split_and(where)
        for c in conjuncts:
            if type(c) is not A.BinaryOp or c.op not in _NEGATED:
                break
            op, slot, constant = c.op, slot_of(c.left, layout), c.right
            if slot is None or type(constant) not in (A.Literal, A.Param):
                op, slot, constant = _SWAPPED[op], slot_of(c.right, layout), c.left
                if slot is None or type(constant) not in (A.Literal, A.Param):
                    break
            self.inline.append((slot, _NEGATED[op], constant))
        rest = conjuncts[len(self.inline):]
        self.rest = (get_compiled(and_all(rest), layout) if self.inline and rest
                     else None if self.inline else self.full)

    def constants(self, params) -> list:
        """``[value, its type or _NoMatch, ...]`` per written-out test
        under ``params``: what the loop compares with and whether it may."""
        out = []
        for _slot, _op, node in self.inline:
            value = (node.value if type(node) is A.Literal
                     else param_value(node, params))
            out += (value, type(value) if type(value) in (int, str) else _NoMatch)
        return out


def split_and(expr) -> list:
    """The conjuncts of ``expr``, left to right."""
    if isinstance(expr, A.BinaryOp) and expr.op == "and":
        return split_and(expr.left) + split_and(expr.right)
    return [expr]


def and_all(conjuncts: list):
    """The conjunction of ``conjuncts``, evaluated left to right."""
    return functools.reduce(lambda a, b: A.BinaryOp("and", a, b), conjuncts)


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
    args = [get_compiled(a, layout) for a in node.args]
    if name == "coalesce":
        return _coalesce(args)
    fn = SCALAR_FUNCTIONS[name]
    return lambda ctx: fn(*[a(ctx) for a in args])


def _coalesce(args):
    """COALESCE evaluates only the arguments it needs: up to the first
    that is not NULL."""
    if len(args) == 2:
        first, second = args

        def run(ctx):
            value = first(ctx)
            return second(ctx) if value is None else value
        return run

    def run(ctx):
        for arg in args:
            value = arg(ctx)
            if value is not None:
                return value
        return None
    return run


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
