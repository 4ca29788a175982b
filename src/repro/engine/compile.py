"""Expression compilation: the one definition of what an expression means.

Each node kind has one builder in :data:`_BUILDERS`, which turns a node into
a closure ``fn(ctx) -> value`` around its children's closures and the value
primitives of :mod:`repro.engine.expr` and :mod:`repro.engine.datum`. A kind
with no builder raises ``cannot evaluate expression node <Kind>`` when
called. Two entry points share the builders: :func:`get_compiled` caches a
closure per expression (and layout) identity in a bounded LRU and counts
the build (:func:`compile_count`); :func:`evaluate` builds for one call and
keeps nothing, so a tree evaluated once (a VALUES row, a LIMIT, a column
default) neither fills the LRU nor moves the count.

Against a layout, column references compile to slot reads; any other
reference resolves on first use into a one-entry inline cache keyed by the
context's layout. A slot compared with a literal or parameter is one
closure reading both operands (:func:`_build_comparison`); a WHERE clause
is split for the executor's fused loops by :class:`WhereShape`. The same
LRU holds the executor's *prepared shapes* (:func:`get_prepared`), keyed by
``(AST identity, catalog epoch)``, so DDL orphans them and they age out.
"""

from __future__ import annotations

import datetime as _dt
import functools
import operator

from ..errors import CatalogError, DataError
from ..sql import ast as A
from .datum import cast_value, compare_values, to_text
from .expr import (
    AmbiguousColumn, BoundParams, RowLayout, SlotRef, apply_binary, lookup_column,
)
from .functions import SCALAR_FUNCTIONS, _any_all, is_aggregate
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
    if kind in _TRIVIAL:
        return _BUILDERS[kind](expr, layout, get_compiled)
    # The None keeps these keys apart from get_prepared's (id, epoch,
    # *variant), whose variant holds names.
    key = id(expr) if layout is None else (id(expr), id(layout), None)
    memo = _COMPILE_CACHE.get(key)
    if memo is not None and memo[0] is expr and memo[1] is layout:
        return memo[2]
    global _compile_count
    _compile_count += 1
    fn = _BUILDERS.get(kind, _build_unknown)(expr, layout, get_compiled)
    # The strong references keep id(expr) / id(layout) from being recycled.
    _COMPILE_CACHE.put(key, (expr, layout, fn))
    return fn


def evaluate(expr, ctx):
    """``expr``'s value under ``ctx``, from a closure built for this one
    call by the same builders, neither cached nor counted."""
    return _build_once(expr, None)(ctx)


def _build_once(expr, layout):
    """``expr``'s closure, its children's built the same way: uncached."""
    return _BUILDERS.get(type(expr), _build_unknown)(expr, layout, _build_once)


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


#: What :func:`param_value` returns for a parameter it cannot look up.
UNBOUND = object()


def param_value(node: A.Param, params):
    """The value ``node`` names in ``params`` — a sequence's position, a
    mapping's name, or either through :class:`BoundParams` — or
    :data:`UNBOUND`."""
    positional = node.index is not None
    if type(params) is BoundParams:
        params = params.positional if positional else params.named
    if isinstance(params, (list, tuple) if positional else dict):
        try:
            return params[node.index - 1 if positional else node.name]
        except LookupError:
            pass
    return UNBOUND


# ---------------------------------------------------------------- builders
#
# A builder ``(node, layout, sub)`` returns ``node``'s closure, its
# children's compiled by ``sub(child, layout)``: get_compiled or _build_once.


def _build_unknown(node, layout, sub):
    message = f"cannot evaluate expression node {type(node).__name__}"

    def fails(ctx):
        raise DataError(message)
    return fails


def _build_literal(node: A.Literal, layout, sub):
    value = node.value
    return lambda ctx: value


def _build_param(node: A.Param, layout, sub):
    def run(ctx):
        value = param_value(node, ctx.params)
        if value is UNBOUND:
            name = f"${node.index}" if node.index is not None else f":{node.name}"
            raise DataError(f"no value for parameter {name}")
        return value
    return run


def _build_slot(node: SlotRef, layout, sub):
    index = node.index
    return lambda ctx: ctx.values[index]


def _build_column(ref: A.ColumnRef, layout: RowLayout | None, sub):
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


def _build_cast(node: A.Cast, layout, sub):
    operand = sub(node.operand, layout)
    type_name = node.type_name
    return lambda ctx: cast_value(operand(ctx), type_name)


def _build_is_null(node: A.IsNull, layout, sub):
    operand = sub(node.operand, layout)
    if node.negated:
        return lambda ctx: operand(ctx) is not None
    return lambda ctx: operand(ctx) is None


def _build_between(node: A.BetweenExpr, layout, sub):
    operand = sub(node.operand, layout)
    low = sub(node.low, layout)
    high = sub(node.high, layout)
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


def _member(value, candidates, negated: bool):
    """``value [NOT] IN candidates`` in three-valued logic; ``candidates``
    is consumed only up to the first equal one."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif compare_values(value, candidate) == 0:
            return not negated
    return None if saw_null else negated


def _build_in_list(node: A.InList, layout, sub):
    operand = sub(node.operand, layout)
    items = [sub(item, layout) for item in node.items]
    negated = node.negated
    return lambda ctx: _member(operand(ctx), (item(ctx) for item in items), negated)


def _build_case(node: A.CaseExpr, layout, sub):
    whens = [(sub(c, layout), sub(r, layout)) for c, r in node.whens]
    else_fn = sub(node.else_result, layout) if node.else_result is not None else None
    if node.operand is not None:
        operand = sub(node.operand, layout)

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


def _build_array(node: A.ArrayExpr, layout, sub):
    elements = [sub(e, layout) for e in node.elements]
    return lambda ctx: [e(ctx) for e in elements]


def _build_unary(node: A.UnaryOp, layout, sub):
    operand = sub(node.operand, layout)
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
        operand(ctx)
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
    the literal it holds or the parameter it looks up. Two ints or two strs
    compare directly; anything else goes through ``compare_values`` with
    the operands in their written order. None when ``node`` is not such a
    comparison."""
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

    param = _build_param(constant, layout, None)

    def run(ctx):
        value = ctx.values[slot]
        const = param_value(constant, ctx.params)
        if const is UNBOUND:
            const = param(ctx)  # raises
        if value is None or const is None:
            return None
        kind = type(value)
        if kind is type(const) and (kind is int or kind is str):
            return plain(value, const)
        return generic(value, const)

    return run


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
    (:attr:`full`), which answers or raises."""

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


def _build_binary(node: A.BinaryOp, layout, sub):
    op = node.op
    if op in _COMPARISONS:
        run = _build_comparison(node, layout)
        if run is not None:
            return run
    left = sub(node.left, layout)
    right = sub(node.right, layout)
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


#: Function names whose results depend on the session or the clock.
_SESSION_FNS = frozenset((
    "now", "current_timestamp", "localtimestamp", "current_date", "random",
    "nextval", "setval", "currval", "txid_current", "pg_backend_pid",
))


def _build_func_call(node: A.FuncCall, layout, sub):
    name = node.name.lower()
    if is_aggregate(name):
        def misplaced(ctx):
            raise DataError(
                f"aggregate function {name}() used outside of aggregation context")
        return misplaced
    args = [sub(a, layout) for a in node.args]
    if name in _SESSION_FNS:
        return _build_session_fn(name, args)
    if name == "coalesce":
        return _coalesce(args)
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is not None:
        return lambda ctx: fn(*[a(ctx) for a in args])

    def udf(ctx):
        """A user-defined / extension function, looked up in the session's
        catalog on every call."""
        values = [a(ctx) for a in args]
        if ctx.session is not None:
            found = ctx.session.instance.catalog.get_function(name)
            if found is not None:
                return found.fn(ctx.session, *values)
        raise CatalogError(f"function {name}() does not exist")

    return udf


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


def _session_now(ctx):
    if ctx.session is not None:
        return ctx.session.now()
    return _dt.datetime(2021, 6, 20)  # deterministic default: SIGMOD'21 day one


def _build_session_fn(name: str, args: list):
    """One of :data:`_SESSION_FNS`; only the sequence functions read their
    arguments."""
    if name in ("now", "current_timestamp", "localtimestamp"):
        return _session_now
    if name == "current_date":
        return lambda ctx: _session_now(ctx).date()
    if name == "txid_current":
        return lambda ctx: ctx.session.ensure_xid() if ctx.session else 0
    if name == "pg_backend_pid":
        return lambda ctx: ctx.session.backend_pid if ctx.session else 0

    def run(ctx):
        if ctx.session is None:
            raise DataError(f"{name}() requires a session")
        if name == "random":
            return ctx.session.rng.random()
        seq = ctx.session.instance.catalog.get_sequence(to_text(args[0](ctx)))
        if name == "nextval":
            return seq.nextval()
        if name == "setval":
            value = int(args[1](ctx))
            seq.setval(value)
            return value
        return seq._next - 1

    return run


def _build_subquery(node: A.SubqueryExpr, layout, sub):
    query, kind = node.query, node.kind
    operand = sub(node.operand, layout) if kind in ("in", "any", "all") else None

    def rows_of(ctx):
        if ctx.subquery_executor is None:
            raise DataError("subqueries are not supported in this context")
        return ctx.subquery_executor(query, ctx)

    if kind == "scalar":
        def run(ctx):
            rows = rows_of(ctx)
            if not rows:
                return None
            if len(rows[0]) != 1:
                raise DataError("scalar subquery must return one column")
            if len(rows) > 1:
                raise DataError("scalar subquery returned more than one row")
            return rows[0][0]
        return run
    if kind == "exists":
        return lambda ctx: bool(rows_of(ctx))
    if kind == "array":
        return lambda ctx: [r[0] for r in rows_of(ctx)]
    if kind == "in":
        negated = node.negated

        def run(ctx):
            rows = rows_of(ctx)
            return _member(operand(ctx), (row[0] for row in rows), negated)
        return run
    if kind in ("any", "all"):
        op = node.op

        def run(ctx):
            rows = rows_of(ctx)
            return _any_all(operand(ctx), op, kind, [row[0] for row in rows])
        return run

    def run(ctx):
        rows_of(ctx)
        raise DataError(f"unknown subquery kind {kind!r}")

    return run


_BUILDERS = {
    A.Literal: _build_literal,
    A.Param: _build_param,
    A.ColumnRef: _build_column,
    SlotRef: _build_slot,
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

#: Kinds whose closure is cheaper to build than to look up: never cached.
_TRIVIAL = frozenset((A.Literal, A.ColumnRef, SlotRef, A.Param))
