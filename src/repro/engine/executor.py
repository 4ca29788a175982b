"""Local query planner and executor.

Implements PostgreSQL's executor surface for the SQL subset the paper's
workloads need. Access-path selection is deliberately simple but realistic:

- equality / range predicates on a B-tree index's leading column(s) use the
  index (``Index Scan``);
- ``ILIKE '%needle%'`` predicates over an expression with a GIN index use
  the trigram index with recheck (``Bitmap Heap Scan``-alike);
- everything else is a sequential scan.

Joins pick a hash join for equi-join conditions and fall back to nested
loops. Aggregation is hash-based and understands the two-phase protocol
(partial / merge) used by distributed aggregation.

The executor also computes EXPLAIN output; the Citus planner hook prepends
its ``Custom Scan (Citus Adaptive)`` lines to these, matching how the real
extension nests distributed plans inside PostgreSQL plans.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from heapq import nsmallest
from itertools import islice

from ..errors import (
    CatalogError,
    DataError,
    ForeignKeyViolation,
    NotNullViolation,
    SyntaxErrorSQL,
    UniqueViolation,
)
from ..sql import ast as A
from ..sql.deparse import deparse
from .catalog import Table
from .datum import (
    Descending, caster, compare_values, ordering, plain_sort_type, to_text,
)
from .compile import get_compiled, get_prepared, slot_of
from .expr import EMPTY_LAYOUT, EvalContext, RowLayout, SlotRef, evaluate
from .functions import (
    _STAR, INLINE_ENV, SET_RETURNING_FUNCTIONS, _identity, get_aggregate,
    is_aggregate,
)
from .index import BTreeIndex, GinIndex, index_delete, row_key_fn
from .mvcc import COMMITTED
from .wal import jsonb_positions
from .window import compute_window_values, contains_window_function


@dataclass
class QueryResult:
    columns: list
    rows: list
    command: str = "SELECT"
    rowcount: int = 0

    def __post_init__(self):
        if self.command == "SELECT":
            self.rowcount = len(self.rows)

    def scalar(self):
        return self.rows[0][0] if self.rows and self.rows[0] else None

    def first(self):
        return self.rows[0] if self.rows else None

    def __iter__(self):
        return iter(self.rows)

    @classmethod
    def from_cursor(cls, cursor: "EngineCursor", batch_size: int = 1024) -> "QueryResult":
        """Materialize a cursor into the classic eager result shape."""
        rows: list = []
        while True:
            batch = cursor.fetch(batch_size)
            if not batch:
                break
            rows.extend(batch)
        return cls(cursor.columns, rows, command=cursor.command)


class EngineCursor:
    """Pull-based result of :meth:`LocalExecutor.execute_cursor`.

    ``fetch(n)`` returns up to ``n`` rows ([] once exhausted); ``close()``
    terminates early. The optional ``on_finish(error)`` callback fires
    exactly once — on exhaustion, close, or a mid-iteration error — which
    is how the owning session defers statement completion until every open
    cursor (portal) on it is done. ``snapshot`` is the one a lazy scan
    still reads under (None: the rows are already materialised); the
    session keeps it pinned until the cursor finishes.
    """

    def __init__(self, columns, rows_iter, command: str = "SELECT",
                 on_finish=None, snapshot=None):
        self.columns = columns
        self.command = command
        self.snapshot = snapshot
        self._iter = iter(rows_iter)
        self._on_finish = on_finish
        self.rows_fetched = 0
        self.exhausted = False
        self.closed = False

    def fetch(self, n: int) -> list:
        if self.closed or self.exhausted:
            return []
        n = max(int(n), 0)
        try:
            batch = list(islice(self._iter, n))
        except BaseException as exc:
            self.exhausted = True
            self._finish(exc)
            raise
        self.rows_fetched += len(batch)
        if len(batch) < n:
            self.exhausted = True
            self._finish(None)
        return batch

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        close_fn = getattr(self._iter, "close", None)
        if close_fn is not None:
            close_fn()
        self._finish(None)

    def _finish(self, error) -> None:
        callback, self._on_finish = self._on_finish, None
        if callback is not None:
            callback(error)


@dataclass
class RelOutput:
    """Result of resolving a FROM item: the layout its rows share and the
    rows themselves, each a flat list of values (never mutated: a base
    table's rows are the heap tuples' own lists)."""

    layout: RowLayout
    rows: list  # list[list], or a lazy iterable of them


# --------------------------------------------------------------------------
# prepared shapes: analyse once, execute many
# --------------------------------------------------------------------------
#
# Everything below depends only on a statement's AST and the catalog, so it
# is computed on the first execution and kept in the compile cache
# (compile.get_prepared) until DDL bumps the catalog epoch. Executing a
# shape evaluates its key expressions against the parameters, probes the
# indexes and runs the compiled closures.


class ScanShape:
    """A scan of one base table under one WHERE clause: the layout of the
    rows it yields, the predicate compiled against it, and the index
    candidates together with the expressions that supply their keys."""

    __slots__ = ("layout", "predicate", "terms", "btrees", "gin")

    def __init__(self, table: Table, alias: str, where, locking: bool = False):
        self.layout = RowLayout.of(
            alias, table.column_names(), table.name if locking else None)
        self.predicate = (get_compiled(where, self.layout)
                          if where is not None else None)
        # (column, op, value_fn, high_fn): ``column op value`` conjuncts
        # whose value does not depend on the scanned row. ``op`` is already
        # flipped for ``value op column``; BETWEEN carries both bounds.
        self.terms: list[tuple] = []
        #: (index name, its column names) for every B-tree index whose
        #: leading column some term constrains.
        self.btrees: list[tuple] = []
        #: (index name, needle) of the trigram index serving an
        #: ``ILIKE '%needle%'`` conjunct, if any.
        self.gin = None
        if where is None or not table.indexes:
            return
        patterns: list[tuple[str, str]] = []  # (indexed expr text, needle)
        for c in _split_and(where):
            if isinstance(c, A.BinaryOp) and c.op in _FLIPPED:
                left, right, op = c.left, c.right, c.op
                if isinstance(right, A.ColumnRef) and not isinstance(left, A.ColumnRef):
                    left, right, op = right, left, _FLIPPED[op]
                if (isinstance(left, A.ColumnRef) and left.table in (None, alias)
                        and not _references_columns(right)):
                    self.terms.append((left.name, op, get_compiled(right), None))
            elif isinstance(c, A.BetweenExpr) and isinstance(c.operand, A.ColumnRef):
                if not c.negated and c.operand.table in (None, alias):
                    self.terms.append((c.operand.name, "between",
                                       get_compiled(c.low), get_compiled(c.high)))
            elif isinstance(c, A.BinaryOp) and c.op in ("like", "ilike"):
                if isinstance(c.right, A.Literal) and isinstance(c.right.value, str):
                    pattern = c.right.value
                    if pattern.startswith("%") and pattern.endswith("%"):
                        needle = pattern.strip("%")
                        if "%" not in needle and "_" not in needle:
                            patterns.append((_normalized_expr_text(c.left, alias), needle))
        constrained = {term[0] for term in self.terms}
        for index in table.indexes.values():
            if isinstance(index.data, GinIndex):
                if self.gin is None:
                    index_text = _normalized_expr_text(index.exprs[0], alias)
                    for expr_text, needle in patterns:
                        # A needle too short for trigrams cannot use the index.
                        if (expr_text == index_text
                                and index.data.search_substring(needle) is not None):
                            self.gin = (index.name, needle)
                            break
                continue
            if not isinstance(index.data, BTreeIndex):
                continue
            index_cols = [e.name for e in index.exprs if isinstance(e, A.ColumnRef)]
            if len(index_cols) != len(index.exprs) or not index_cols:
                continue
            if index_cols[0] in constrained:
                self.btrees.append((index.name, index_cols))

    def probe(self, table: Table, ctx: EvalContext):
        """Pick an index for this execution's parameter values. Returns
        (description, IndexDef, tids) or None for a sequential scan.
        Read-only: EXPLAIN calls it too.

        The candidate TIDs are a superset of the matching rows; the caller
        re-applies the full WHERE clause (index recheck). A trigram match
        wins; otherwise the longest B-tree equality prefix, then a B-tree
        range, fewest TIDs breaking ties.
        """
        if self.gin is not None:
            name, needle = self.gin
            index = table.indexes[name]
            tids = index.data.search_substring(needle)
            return (f"Bitmap Heap Scan using {name}", index, sorted(tids))
        if not self.btrees:
            return None
        const_eq: dict[str, object] = {}
        ranges: dict[str, dict] = {}
        for col, op, value_fn, high_fn in self.terms:
            try:
                value = value_fn(ctx)
                high = high_fn(ctx) if high_fn is not None else None
            except Exception:
                continue  # e.g. an unbound parameter: the term cannot prune
            if op == "between":
                ranges[col] = {"low": value, "low_inc": True,
                               "high": high, "high_inc": True}
            elif value is None:
                continue
            elif op == "=":
                const_eq[col] = value
            elif op in (">", ">="):
                bound = ranges.setdefault(col, {})
                bound["low"] = value
                bound["low_inc"] = op == ">="
            else:
                bound = ranges.setdefault(col, {})
                bound["high"] = value
                bound["high_inc"] = op == "<="
        best = None
        for name, index_cols in self.btrees:
            index = table.indexes[name]
            data = index.data
            prefix = []
            for col in index_cols:
                if col in const_eq:
                    prefix.append(const_eq[col])
                else:
                    break
            if prefix:
                tids = data.scan_equal(prefix)
                score = len(prefix) * 1000 - len(tids)
            else:
                bound = ranges.get(index_cols[0])
                if not bound:
                    continue
                tids = data.scan_range(
                    bound.get("low"), bound.get("high"),
                    bound.get("low_inc", True), bound.get("high_inc", True),
                )
                score = -len(tids)
            if best is None or score > best[0]:
                best = (score, (f"Index Scan using {name}", index, tids))
        return best[1] if best else None


class SelectShape:
    """What one SELECT is, independent of its input: window / aggregate
    flags, whether it can stream, and — per input layout — the
    :class:`BoundSelect` holding everything compiled."""

    __slots__ = ("select", "has_windows", "aggregates", "streamable",
                 "join_plan", "_bound")

    def __init__(self, select: A.Select):
        self.select = select
        exprs = [entry.expr if isinstance(entry, A.TargetEntry) else entry
                 for entry in select.targets]
        plain = [e for e in exprs if not isinstance(e, A.Star)]
        self.has_windows = any(contains_window_function(e) for e in plain)
        #: Runs through the hash aggregate (GROUP BY or any aggregate call).
        self.aggregates = bool(select.group_by) or _has_aggregates(
            plain, select.having)
        #: Can run as a lazy scan -> filter -> project pipeline (given that
        #: the FROM item resolves to a base table at execution time).
        self.streamable = not (
            select.ctes or select.set_ops or select.distinct
            or select.order_by or select.for_update
            or select.having is not None
            or self.has_windows or self.aggregates
        ) and len(select.from_items) == 1 and isinstance(
            select.from_items[0], A.TableRef)
        #: ``(item layouts, join steps)`` of comma-separated FROM items:
        #: see :func:`_comma_join_plan`; replanned when a layout changes.
        self.join_plan = None
        self._bound = None

    def bound(self, layout: RowLayout) -> "BoundSelect":
        """This SELECT compiled against input rows of ``layout``; rebuilt
        only when the input layout changes (it is interned, so it does not
        between executions of one statement under one catalog state)."""
        bound = self._bound
        if bound is None or bound.layout is not layout:
            bound = self._bound = BoundSelect(self, layout)
        return bound


#: Where a sort key reads its value: the output row by position, the input
#: row by slot, or a closure evaluated over the input row.
_OUT, _IN, _FN = range(3)


class BoundSelect:
    """One SELECT's per-row work compiled against the layout of its input
    rows: WHERE, the star-expanded targets and their output names, and —
    prepared here so that no execution walks, copies or deparses the AST —
    the window rewrite, the aggregate operator and the ORDER BY keys.

    Window and aggregate results are appended to the row they belong to
    (slots ``layout.width`` onwards), and the calls that produced them
    become :class:`SlotRef` reads in a copy of the targets."""

    __slots__ = ("layout", "predicate", "columns", "target_fns",
                 "target_slots", "window_calls", "agg", "scope",
                 "sort_keys", "distinct_on")

    def __init__(self, shape: SelectShape, layout: RowLayout):
        select = shape.select
        self.layout = layout
        self.predicate = (get_compiled(select.where, layout)
                          if select.where is not None else None)
        targets = _expand_stars(select.targets, layout.columns)
        self.columns = _output_names(targets)
        self.window_calls: list[A.FuncCall] = []
        if shape.has_windows:
            targets = [A.TargetEntry(self._lift_windows(t.expr.copy()), t.alias)
                       for t in targets]
        self.agg = AggShape(select, targets, layout) if shape.aggregates else None
        if self.agg is None:
            self.target_fns = [get_compiled(t.expr, layout) for t in targets]
            slots = tuple(slot_of(t.expr, layout) for t in targets)
            #: Set when every target is a bare slot read: the projection
            #: is then one generated function that reads the slots.
            self.target_slots = slots if slots and None not in slots else None
        else:
            self.target_fns, self.target_slots = self.agg.target_fns, None
        #: What ORDER BY / DISTINCT ON expressions read besides the output
        #: row: the input row, or after a set operation nothing.
        scope = self.scope = EMPTY_LAYOUT if select.set_ops else layout
        self.sort_keys = [self._sort_key(sk, targets, scope)
                          for sk in select.order_by]
        self.distinct_on = [get_compiled(e, scope) for e in select.distinct_on]

    def _lift_windows(self, expr):
        def visit(node):
            if isinstance(node, A.FuncCall) and node.over is not None:
                self.window_calls.append(node)
                return SlotRef(self.layout.width + len(self.window_calls) - 1)
            return node

        return _transform_keep_identity(expr, visit)

    def _sort_key(self, sk: A.SortKey, targets, scope: RowLayout) -> tuple:
        """``(source, arg, descending, key function)`` for one ORDER BY
        entry: its value resolved once to an output position, an output
        alias, an input slot or a compiled closure, and its direction and
        NULL placement to a :func:`datum.ordering`."""
        expr = sk.expr
        source = arg = None
        if (isinstance(expr, A.Literal) and isinstance(expr.value, int)
                and 0 < expr.value <= len(targets)):
            source, arg = _OUT, expr.value - 1
        elif (self.agg is not None and scope is self.layout
                and _has_aggregates([expr], None)):
            # ORDER BY sum(x): one more aggregate slot on the group row.
            expr = self.agg.lift(expr.copy())
        elif isinstance(expr, A.ColumnRef):
            by_alias = [i for i, t in enumerate(targets)
                        if expr.table is None and t.alias == expr.name]
            by_name = [i for i, t in enumerate(targets)
                       if isinstance(t.expr, A.ColumnRef)
                       and t.expr.name == expr.name]
            if by_alias:
                source, arg = _OUT, by_alias[0]
            elif by_name and scope.slots.get(expr.key) is None:
                # Not an input column: an output column by name.
                source, arg = _OUT, by_name[0]
        if source is None:
            arg = slot_of(expr, scope)
            source = _IN
            if arg is None:
                source, arg = _FN, get_compiled(expr, scope)
        return (source, arg, *ordering(sk.ascending, sk.nulls_first))


class AggShape:
    """The hash aggregate of one SELECT over input rows of one layout.

    A group's output row is its first input row's values followed by one
    slot per aggregate call; targets, HAVING and aggregate ORDER BY keys
    are compiled over that row with each call replaced by a
    :class:`SlotRef` (in a copy: statements are cached and shared across
    sessions, so the rewrite must never touch the original tree).

    The per-row work — group key, group lookup, every call's accumulate
    step — is one generated function (:attr:`accumulate`), and the
    per-group work — group row, HAVING, output row — another
    (:attr:`finalize`), both built from the shape on first use."""

    __slots__ = ("layout", "group_fns", "group_slots", "steps", "aggs",
                 "inits", "finishers", "target_fns", "target_slots", "having",
                 "_loops")

    def __init__(self, select: A.Select, targets, layout: RowLayout):
        self.layout = layout
        # GROUP BY entries may be positional or alias references.
        group_exprs = [_resolve_ref(g, targets) for g in select.group_by]
        self.group_fns = [get_compiled(g, layout) for g in group_exprs]
        #: Per GROUP BY entry: its slot when it is a plain column.
        self.group_slots = [slot_of(g, layout) for g in group_exprs]
        #: Per aggregate call, in slot order: ``(accumulate, star, argument
        #: slot, argument closures, FILTER closure, distinct)``, the
        #: aggregate, the state constructor, and ``partial`` or ``finalize``.
        self.steps: list[tuple] = []
        self.aggs: list = []
        self.inits: list = []
        self.finishers: list = []
        self._loops = None
        lifted = [self.lift(t.expr.copy()) for t in targets]
        self.target_fns = [get_compiled(e, layout) for e in lifted]
        #: Per target: the group-row slot it reads when it is nothing else.
        self.target_slots = [slot_of(e, layout) for e in lifted]
        self.having = (get_compiled(self.lift(select.having.copy()), layout)
                       if select.having is not None else None)

    def lift(self, expr):
        """Replace the aggregate calls of ``expr`` (an expression this shape
        owns) by reads of their slots, registering each call."""
        def visit(node):
            if isinstance(node, A.FuncCall) and is_aggregate(node.name):
                self._register(node)
                return SlotRef(self.layout.width + len(self.steps) - 1)
            return node

        return _transform_keep_identity(expr, visit)

    def _register(self, node: A.FuncCall) -> None:
        agg = get_aggregate(node.name)
        layout = self.layout
        star = len(node.args) == 1 and isinstance(node.args[0], A.Star)
        arg_fns = [] if star else [get_compiled(a, layout) for a in node.args]
        arg_slot = slot_of(node.args[0], layout) if len(arg_fns) == 1 else None
        keep = get_compiled(node.filter, layout) if node.filter is not None else None
        self.steps.append((agg.accumulate, star, arg_slot, arg_fns, keep,
                           bool(node.distinct)))
        self.aggs.append(agg)
        self.inits.append(agg.init)
        self.finishers.append(
            agg.partial if node.agg_phase == "partial" else agg.finalize)
        self._loops = None

    @property
    def accumulate(self):
        """``accumulate(rows, ctx, groups, seen)``: fold ``rows`` into
        ``groups`` (key -> [first input row, state per call...], first-seen
        order; ``seen`` holds DISTINCT argument keys per (key, call)).

        Generated once the shape is complete — :meth:`lift` registers
        ORDER BY's aggregates after ``__init__`` — as one loop: group keys
        read from slots, aggregates that have an ``inline`` form written
        out over their argument slot, and FILTER, DISTINCT, expression
        arguments and every other aggregate as calls from the same loop."""
        return self._generated()[0]

    @property
    def finalize(self):
        """``finalize(groups, ctx) -> [(output row, group row), ...]`` over
        what :attr:`accumulate` left in ``groups``, in its order: a group
        row is the first input row's values and each call's result, and a
        group HAVING rejects has no output row.

        Generated beside :attr:`accumulate`, as one loop: identity
        finishers read the state in place, targets that read a slot are
        written out, and other finishers, HAVING and expression targets
        are calls from the same loop."""
        return self._generated()[1]

    def _generated(self) -> tuple:
        if self._loops is None:
            env = {"group_key": _group_key, "PLAIN": _PLAIN_KEYS, "STAR": _STAR,
                   **INLINE_ENV}
            source = "\n".join([*self._accumulate_source(env),
                                *self._finalize_source(env)])
            finalize = _generate("finalize", source, env)
            self._loops = (env["accumulate"], finalize)
        return self._loops

    def _finalize_source(self, env: dict) -> list:
        width = self.layout.width
        states, results = [], []
        finish = []  # statements computing the non-identity results
        for i, finisher in enumerate(self.finishers, 1):
            if finisher is _identity:
                states.append(f"r{i}")
            else:
                env[f"finish{i}"] = finisher
                states.append(f"s{i}")
                finish.append(f"r{i} = finish{i}(s{i})")
            results.append(f"r{i}")
        outputs, uses_ctx = [], self.having is not None
        for i, (fn, slot) in enumerate(zip(self.target_fns, self.target_slots)):
            if slot is None:
                env[f"target{i}"], uses_ctx = fn, True
                outputs.append(f"target{i}(ctx)")
            else:  # a group column, or a call the targets registered
                outputs.append(f"values[{slot}]" if slot < width
                               else results[slot - width])
        body = [*finish, f"row = [*values[:{width}], {', '.join(results)}]"]
        if uses_ctx:
            body.append("ctx.values = row")
        if self.having is not None:
            env["having"] = self.having
            body += ["if having(ctx) is not True:", " continue"]
        body.append(f"append(([{', '.join(outputs)}], row))")
        return ["def finalize(groups, ctx):",
                " pairs = []",
                " append = pairs.append",
                f" for values, {', '.join(states)} in groups.values():",
                *("  " + line for line in body),
                " return pairs"]

    def _accumulate_source(self, env: dict) -> list:
        body = []  # the loop's statements, one indent unit = one space
        uses_ctx = False
        keys = []
        for i, (fn, slot) in enumerate(zip(self.group_fns, self.group_slots)):
            if slot is not None:
                body.append(f"k{i} = values[{slot}]")
            else:
                env[f"group{i}"], uses_ctx = fn, True
                body.append(f"k{i} = group{i}(ctx)")
            body += [f"if type(k{i}) not in PLAIN:", f" k{i} = group_key(k{i})"]
            keys.append(f"k{i}")
        inits = ["values"]
        for i, agg in enumerate(self.aggs, 1):
            if agg.inline is not None:
                inits.append(agg.inline[0])
            else:
                env[f"init{i}"] = agg.init
                inits.append(f"init{i}()")
        body += [f"key = {keys[0] if len(keys) == 1 else '(' + ', '.join(keys) + ')'}",
                 "entry = get(key)",
                 "if entry is None:",
                 f" entry = groups[key] = [{', '.join(inits)}]"]
        for i, (step, agg) in enumerate(zip(self.steps, self.aggs), 1):
            accumulate, star, slot, arg_fns, keep, distinct = step
            state = f"entry[{i}]"
            env[f"accumulate{i}"] = accumulate
            for j, fn in enumerate(arg_fns):
                env[f"arg{i}_{j}"] = fn
            args = [f"arg{i}_{j}(ctx)" for j in range(len(arg_fns))]
            inline = ([line.format(s=state) for line in agg.inline[1]]
                      if agg.inline is not None else None)
            if star and inline is not None:
                # count(*): its statements do not read the argument.
                lines = inline if agg.name == "count" else ["v = STAR", *inline]
            elif star:
                lines = [f"{state} = accumulate{i}({state}, STAR)"]
            elif distinct:
                uses_ctx = True
                lines = [f"args = [{', '.join(args)}]",
                         "arg_key = tuple([group_key(v) for v in args])",
                         f"seen_args = seen.setdefault((key, {i}), set())",
                         "if arg_key not in seen_args:",
                         " seen_args.add(arg_key)",
                         f" {state} = accumulate{i}({state}, *args)"]
            elif len(args) == 1 and inline is not None:
                uses_ctx = uses_ctx or slot is None
                lines = [f"v = {f'values[{slot}]' if slot is not None else args[0]}",
                         "if v is not None:", *(" " + line for line in inline)]
            else:
                uses_ctx = uses_ctx or slot is None
                if slot is not None:
                    args = [f"values[{slot}]"]
                lines = [f"{state} = accumulate{i}({', '.join([state, *args])})"]
            if keep is not None:
                env[f"keep{i}"], uses_ctx = keep, True
                lines = [f"if keep{i}(ctx) is True:", *(" " + line for line in lines)]
            body += lines
        if uses_ctx:
            body.insert(0, "ctx.values = values")
        return ["def accumulate(rows, ctx, groups, seen):",
                " get = groups.get",
                " for values in rows:",
                *("  " + line for line in body)]


class JoinShape:
    """One join of two relations: the concatenated layout, the condition
    (built here for USING and for equi-conjuncts picked out of a WHERE),
    and — when the condition equi-joins the sides — the hash keys compiled
    against each side's layout."""

    __slots__ = ("left", "right", "layout", "conditional", "qual",
                 "left_keys", "right_keys", "left_slot", "right_slot")

    def __init__(self, left: RowLayout, right: RowLayout, condition):
        self.left, self.right = left, right
        self.layout = left.join(right)
        self.conditional = condition is not None  # else: cross product
        self.qual = self.left_keys = self.right_keys = None
        self.left_slot = self.right_slot = None
        if condition is None:
            return
        equi, residual = _extract_equi_keys(condition, left.slots, right.slots)
        if equi is not None:
            left_exprs, right_exprs = equi
            self.left_keys = [get_compiled(k, left) for k in left_exprs]
            self.right_keys = [get_compiled(k, right) for k in right_exprs]
            if len(left_exprs) == 1:
                # One plain column equals another, the common case: both
                # sides key on the slot's value (never one side alone: the
                # general key is a tuple).
                slots = slot_of(left_exprs[0], left), slot_of(right_exprs[0], right)
                if None not in slots:
                    self.left_slot, self.right_slot = slots
        if equi is None or residual:
            # Matching hash keys already imply a condition made of nothing
            # but the key equalities; anything more is rechecked per pair.
            self.qual = get_compiled(condition, self.layout)


class DmlShape:
    """An UPDATE or DELETE: its target scan, the table's full-row
    :class:`WriteShape`, the assignment slots ``(column position, caster,
    compiled value)`` and the RETURNING list ``(output names, compiled
    targets)``."""

    __slots__ = ("scan", "write", "assignments", "probes_unique", "returning")

    def __init__(self, stmt, table: Table, write: "WriteShape"):
        self.scan = ScanShape(table, stmt.alias or stmt.table, stmt.where)
        self.write = write
        layout = self.scan.layout
        self.assignments = []
        for col_name, expr in getattr(stmt, "assignments", ()):
            idx = table.column_index(col_name)
            self.assignments.append(
                (idx, caster(table.columns[idx].type_name),
                 get_compiled(expr, layout)))
        assigned = {idx for idx, _cast, _fn in self.assignments}
        #: Whether an assignment writes a column some unique key reads:
        #: only then can an updated row collide.
        self.probes_unique = any(
            assigned.intersection(reads)
            for _cols, _key, _index, reads in write.unique_keys)
        self.returning = _compile_returning(stmt.returning, table, layout)


class InsertShape:
    """An INSERT's row-shaped parts: the :class:`WriteShape` of its column
    list, the RETURNING list over the new row, and the ON CONFLICT DO
    UPDATE assignments over ``existing + proposed`` values — unqualified
    and table-qualified names read the existing row, ``excluded.col`` the
    proposed one."""

    __slots__ = ("write", "layout", "returning", "conflict_layout",
                 "conflict_updates")

    def __init__(self, stmt: A.Insert, table: Table, write: "WriteShape"):
        self.write = write
        names = table.column_names()
        layout = self.layout = RowLayout.of(table.name, names)
        self.returning = _compile_returning(stmt.returning, table, layout)
        self.conflict_layout = None
        self.conflict_updates = []
        if stmt.on_conflict is not None and stmt.on_conflict.action != "nothing":
            slots = dict(layout.slots)
            for i, name in enumerate(names):
                slots[f"excluded.{name}"] = len(names) + i
            both = self.conflict_layout = RowLayout(
                layout.columns, slots, width=2 * len(names))
            for col_name, expr in stmt.on_conflict.updates:
                idx = table.column_index(col_name)
                self.conflict_updates.append(
                    (idx, caster(table.columns[idx].type_name),
                     get_compiled(expr, both)))


class WriteShape:
    """How rows that supply ``columns`` are written to ``table``: what
    INSERT, COPY, UPDATE and DELETE would otherwise look up per row,
    resolved once per (table, column list, catalog epoch).

    Keys are read through ``key(values) -> list`` functions
    (:func:`index.row_key_fn`). Index *structures* are reached through
    their ``IndexDef`` at the start of each statement run: TRUNCATE swaps
    them without touching the catalog epoch.
    """

    __slots__ = ("table", "width", "build", "not_null", "jsonb",
                 "unique_keys", "indexes", "foreign_keys", "referencing")

    def __init__(self, table: Table, columns, catalog):
        names = table.column_names()
        position: dict[str, int] = {}
        for i, name in enumerate(columns):
            if name not in names:
                raise CatalogError(
                    f"column {name!r} of relation {table.name!r} does not exist")
            if name in position:
                raise CatalogError(f"column {name!r} specified more than once")
            position[name] = i
        self.table = table
        #: Values an input row must have.
        self.width = len(columns)
        #: ``build(values, ctx) -> full row``.
        self.build = _row_builder(table, position, catalog)
        self.not_null = [(i, col.name) for i, col in enumerate(table.columns)
                         if col.not_null]
        #: Where a full row has jsonb values, for the log's encoding.
        self.jsonb = jsonb_positions(table.columns)

        def columns_key(owner: Table, cols):
            return row_key_fn(owner, [A.ColumnRef(c) for c in cols])

        #: ``(key's column names or expression texts, key function, the
        #: IndexDef candidates come from or None for a heap scan, column
        #: positions the key reads)``: the primary key, the unique
        #: constraints, then every other unique index — keyed by the
        #: index's own extractor, so expression indexes are enforced like
        #: the rest.
        self.unique_keys: list[tuple] = []

        def add_unique(cols, key, index, exprs):
            if any(known[0] == cols for known in self.unique_keys):
                return
            reads = frozenset(
                names.index(node.name) for expr in exprs for node in A.walk(expr)
                if isinstance(node, A.ColumnRef) and node.name in names)
            self.unique_keys.append((cols, key, index, reads))

        for cols in (table.primary_key, *table.unique_constraints):
            if cols and all(c in names for c in cols):
                add_unique(list(cols), columns_key(table, cols),
                           _prefix_index(table, cols),
                           [A.ColumnRef(c) for c in cols])
        #: ``(IndexDef, what its ``insert`` takes of a row)`` of every
        #: index: the key, or for GIN the one indexed value.
        self.indexes: list[tuple] = []
        for index in table.indexes.values():
            gin = index.method == "gin"
            key = row_key_fn(table, index.exprs)
            self.indexes.append(
                (index, (lambda values, key=key: key(values)[0]) if gin else key))
            if index.unique:
                cols = [e.name if type(e) is A.ColumnRef
                        else _normalized_expr_text(e, table.name)
                        for e in index.exprs]
                add_unique(cols, key, None if gin else index, index.exprs)
        #: Outgoing: ``(key function, referenced table's name, and — when
        #: it exists — the Table, its probe index, its key function)``.
        self.foreign_keys: list[tuple] = []
        for fk in table.foreign_keys:
            if not all(c in names for c in fk.columns):
                continue  # a missing column reads as NULL: never checked
            ref = catalog.tables.get(fk.ref_table)
            target = (None, None, None)
            if ref is not None:
                ref_cols = fk.ref_columns or ref.primary_key
                target = (ref, _prefix_index(ref, ref_cols),
                          columns_key(ref, ref_cols))
            self.foreign_keys.append(
                (columns_key(table, fk.columns), fk.ref_table, *target))
        #: Incoming (ON DELETE RESTRICT): ``(this table's referenced key,
        #: referencing Table, its probe index, its key function)``.
        self.referencing: list[tuple] = []
        for other in catalog.tables.values():
            for fk in other.foreign_keys:
                ref_cols = fk.ref_columns or table.primary_key
                if (fk.ref_table != table.name or not ref_cols
                        or not all(c in names for c in ref_cols)
                        or not all(other.has_column(c) for c in fk.columns)):
                    continue
                self.referencing.append(
                    (columns_key(table, ref_cols), other,
                     _prefix_index(other, fk.columns),
                     columns_key(other, fk.columns)))

    def index_targets(self) -> list:
        """``(insert, key function)`` per index that has storage, for one
        statement run."""
        return [(index.data.insert, key)
                for index, key in self.indexes if index.data is not None]

    def check_not_null(self, full: list) -> None:
        for position, name in self.not_null:
            if full[position] is None:
                raise NotNullViolation(
                    f"null value in column {name!r} of relation {self.table.name!r}")

    def find_conflict(self, full: list, snapshot, xids, skip_row=None,
                      changed_from: list | None = None):
        """``(visible tuple, key columns)`` of the first unique key on
        which ``full`` collides with a row other than ``skip_row``, else
        None. A key with a NULL in it never conflicts. With
        ``changed_from`` (the row's previous values, for UPDATE) only keys
        whose value changed are probed."""
        table = self.table
        for cols, key_fn, index, _reads in self.unique_keys:
            key = key_fn(full)
            if None in key:
                continue
            if changed_from is not None and _same_keys(key_fn(changed_from), key):
                continue
            tup = _first_match(table, index, key_fn, key, snapshot, xids, skip_row)
            if tup is not None:
                return tup, cols
        return None

    def check_foreign_keys(self, full: list, catalog, snapshot, xids) -> None:
        for key_fn, ref_name, ref, index, ref_key_fn in self.foreign_keys:
            key = key_fn(full)
            if None in key:
                continue
            if ref is None:
                catalog.get_table(ref_name)  # raises: it does not exist
            if _first_match(ref, index, ref_key_fn, key, snapshot, xids) is None:
                raise ForeignKeyViolation(
                    f"insert on {self.table.name!r} violates foreign key"
                    f" to {ref_name!r}")

    def check_referencing(self, values: list, snapshot, xids) -> None:
        """ON DELETE RESTRICT semantics for incoming foreign keys."""
        for key_fn, other, index, other_key_fn in self.referencing:
            key = key_fn(values)
            if None in key:
                continue
            if _first_match(other, index, other_key_fn, key, snapshot, xids) is not None:
                raise ForeignKeyViolation(
                    f"row in {self.table.name!r} is still referenced"
                    f" from {other.name!r}")


def _generate(name: str, source: str, env: dict):
    """The function ``name`` that ``source`` defines, with ``env`` as its
    globals: how a shape turns what it resolved into one flat loop."""
    exec(source, env)  # noqa: S102 - source is assembled from shape facts only
    return env[name]


def _row_builder(table: Table, position: dict, catalog):
    """``build(values, ctx) -> full row`` for input rows that supply the
    columns of ``position`` (name -> input position): one generated cell
    per table column — the input value through the column type's caster,
    the next serial, the cast DEFAULT (evaluated under ``ctx``), or NULL."""
    cells, env = [], {}
    for i, col in enumerate(table.columns):
        if col.name in position:
            env[f"cast{i}"] = caster(col.type_name)
            cells.append(f"cast{i}(values[{position[col.name]}])")
        elif col.is_serial:
            sequence = catalog.get_sequence(f"{table.name}_{col.name}_seq")
            env[f"next{i}"] = sequence.nextval
            cells.append(f"next{i}()")
        elif col.default is not None:
            env[f"cast{i}"] = caster(col.type_name)
            env[f"default{i}"] = get_compiled(col.default)
            cells.append(f"cast{i}(default{i}(ctx))")
        else:
            cells.append("None")
    return _generate(
        "build", "def build(values, ctx):\n return [" + ", ".join(cells) + "]", env)


def _prefix_index(table: Table, cols):
    """The first non-GIN index whose leading plain columns are ``cols``:
    where candidates for a key on those columns come from."""
    for index in table.indexes.values():
        if index.method == "gin" or index.data is None:
            continue
        leading = []
        for expr in index.exprs:
            if not isinstance(expr, A.ColumnRef):
                break
            leading.append(expr.name)
        if leading[: len(cols)] == list(cols):
            return index
    return None


def _same_keys(existing: list, key: list) -> bool:
    """Whether a stored row's key equals ``key`` (which holds no NULL)."""
    for e, v in zip(existing, key):
        if e is None:
            return False
        kind = type(e)
        if (e != v if kind is type(v) and (kind is int or kind is str)
                else compare_values(e, v) != 0):
            return False
    return True


def _fetch_candidates(table: Table, index, tids: list, snapshot, xids) -> list:
    """The tuples of ``table`` visible to ``snapshot`` among ``tids``, the
    candidates ``index`` (an IndexDef) named: indexes are not MVCC-aware,
    so visibility is rechecked at the heap. Every consumer of index
    candidates comes through here.

    When most of the candidates turned out invisible, those that are dead
    to every snapshot (``Heap.is_dead`` under ``xids.horizon()``) lose
    their entry in ``index``, so the next probe of the key does not fetch
    and recheck them again — PostgreSQL's ``kill_prior_tuple``. Only the
    index shrinks: the heap versions, their chains and every byte and page
    count stay VACUUM's business (DESIGN.md, "Index entries die on access;
    one horizon")."""
    heap = table.heap
    clog = xids.clog
    visible = list(heap.fetch(tids, snapshot, clog))
    if 2 * len(visible) < len(tids):
        horizon = xids.horizon()
        for tup in filter(None, map(heap.get, tids)):
            if heap.is_dead(tup, horizon, clog):
                index_delete(table, index, tup)
    return visible


def _first_match(table: Table, index, key_fn, key: list, snapshot, xids,
                 skip_row=None):
    """The first tuple of ``table`` visible to ``snapshot`` whose key
    equals ``key``, not counting versions of row ``skip_row``. Candidates
    come from ``index`` (an IndexDef over a prefix of the key) or, without
    one, from a heap scan."""
    if index is not None and index.data is not None:
        candidates = _fetch_candidates(
            table, index, index.data.scan_equal(key), snapshot, xids)
    else:
        candidates = table.heap.scan(snapshot, xids.clog)
    for tup in candidates:
        if tup.row_id != skip_row and _same_keys(key_fn(tup.values), key):
            return tup
    return None


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


class LocalExecutor:
    """Executes statements against one instance's catalog and storage."""

    def __init__(self, session):
        self.session = session
        self.instance = session.instance
        self.catalog = session.instance.catalog
        self._subquery_cache: dict[int, list] = {}
        self._correlated_subqueries: set[int] = set()
        # The subquery callback handed to every EvalContext, built once per
        # params object rather than once per row.
        self._subquery_run = None
        self._subquery_params = None

    # ------------------------------------------------------------ helpers

    def _ctx(self, layout: RowLayout, params,
             outer: EvalContext | None = None) -> EvalContext:
        """A context for one loop over rows of ``layout``; the loop points
        ``ctx.values`` at each row in turn."""
        run = self._subquery_run
        if run is None or params is not self._subquery_params:
            run = self._subquery_run = self._subquery_executor(params)
            self._subquery_params = params
        ctx = EvalContext(None, params, self.session, run, outer)
        ctx.layout = layout
        return ctx

    def _prepared(self, node, build):
        """``node``'s prepared shape under the current catalog state."""
        return get_prepared(node, self.catalog.epoch, build)

    def _select_shape(self, select: A.Select) -> SelectShape:
        return self._prepared(select, lambda: SelectShape(select))

    def _subquery_executor(self, params):
        # Uncorrelated subqueries execute once (PostgreSQL's InitPlan);
        # correlated ones re-run per outer row.
        cache = self._subquery_cache

        def run(select: A.Select, outer_ctx: EvalContext):
            key = id(select)
            if key in cache:
                return cache[key]
            if key in self._correlated_subqueries:
                return self.execute_select(select, params, outer=outer_ctx).rows
            try:
                rows = self.execute_select(select, params, outer=None).rows
            except CatalogError:
                self._correlated_subqueries.add(key)
                return self.execute_select(select, params, outer=outer_ctx).rows
            cache[key] = rows
            return rows

        return run

    # ------------------------------------------------------------- SELECT

    def execute_select(self, select: A.Select, params, outer: EvalContext | None = None,
                       cte_env: dict | None = None) -> QueryResult:
        telemetry = self.instance.telemetry
        if telemetry is None or telemetry.traced is None:
            return self._execute_select_impl(select, params, outer, cte_env)
        # Inside a statement whose spans are kept (or an EXPLAIN ANALYZE
        # capture), each engine-level select — the coordinator merge query,
        # local-tier statements, InitPlans — shows up as its own span.
        span = telemetry.enter("select", "engine", self.instance.name)
        rows = None
        try:
            result = self._execute_select_impl(select, params, outer, cte_env)
            rows = len(result.rows)
            return result
        finally:
            telemetry.exit(span, rows)

    def _execute_select_impl(self, select: A.Select, params,
                             outer: EvalContext | None = None,
                             cte_env: dict | None = None) -> QueryResult:
        cte_env = dict(cte_env or {})
        for cte in select.ctes:
            sub = self.execute_select(cte.query, params, outer=outer, cte_env=cte_env)
            names = cte.column_names or sub.columns
            cte_env[cte.name] = (names, sub.rows)

        # (output values, input row) pairs: ORDER BY, DISTINCT ON and
        # FOR UPDATE may still need the row an output row was made from.
        bound, pairs = self._run_select_core(select, params, outer, cte_env)

        for op, rhs in select.set_ops:
            rhs_result = self.execute_select(rhs, params, outer=outer, cte_env=cte_env)
            pairs = _apply_set_op(op, pairs, [(r, None) for r in rhs_result.rows])

        offset, limit = 0, None
        if select.offset is not None or select.limit is not None:
            ctx0 = self._ctx(EMPTY_LAYOUT, params, outer)
            offset = int(evaluate(select.offset, ctx0)) if select.offset is not None else 0
            if select.limit is not None:
                limit = evaluate(select.limit, ctx0)
                if limit is not None:
                    limit = int(limit)
        if select.order_by:
            # With a LIMIT only the rows it keeps need ordering (DISTINCT,
            # which thins the order out afterwards, and FOR UPDATE keep the
            # full sort).
            top = (offset + limit if limit is not None and min(offset, limit) >= 0
                   and not (select.distinct or select.for_update) else None)
            pairs = self._sort_pairs(pairs, bound, params, outer, top)
        if select.distinct:
            pairs = self._distinct_pairs(pairs, bound, params, outer)
        if offset:
            pairs = pairs[offset:]
        if limit is not None:
            pairs = pairs[:limit]
        if select.for_update:
            self._lock_rows_for_update(pairs, bound.layout)
        return QueryResult(bound.columns, [values for values, _ in pairs])

    # ------------------------------------------------------ cursor SELECT

    def execute_cursor(self, select: A.Select, params,
                       outer: EvalContext | None = None,
                       cte_env: dict | None = None) -> EngineCursor:
        """Pull-based SELECT execution.

        Simple single-relation pipelines (scan → filter → project →
        offset/limit) stream genuinely lazily, stopping the heap scan as
        soon as a LIMIT is satisfied. Anything that needs a blocking
        operator (sort, grouping, DISTINCT, joins, set ops, windows, CTEs)
        materializes through :meth:`execute_select` first — the cursor
        then just batches the buffered rows, exactly like a Sort node
        feeding a portal.
        """
        if cte_env is None and self._cursor_streamable(select):
            return self._simple_select_cursor(select, params, outer)
        result = self.execute_select(select, params, outer=outer, cte_env=cte_env)
        return EngineCursor(result.columns, iter(result.rows))

    def _cursor_streamable(self, select: A.Select) -> bool:
        if not self._select_shape(select).streamable:
            return False
        name = select.from_items[0].name
        return (name not in self.session.temp_results
                and self.catalog.tables.get(name) is not None)

    def _simple_select_cursor(self, select: A.Select, params, outer) -> EngineCursor:
        ref = select.from_items[0]
        table = self.catalog.get_table(ref.name)
        self.session.acquire_table_lock(table.name, "AccessShare")
        scan = self._scan_shape(ref, table, select.where)
        bound = self._select_shape(select).bound(scan.layout)
        predicate = bound.predicate
        ctx = self._ctx(scan.layout, params, outer)
        offset = int(evaluate(select.offset, ctx)) if select.offset is not None else 0
        limit = None
        if select.limit is not None:
            value = evaluate(select.limit, ctx)
            if value is not None:
                limit = int(value)
        snapshot = self.session.snapshot()
        project = _projection(bound, ctx)

        def rows():
            if limit is not None and limit <= 0:
                return
            emitted = 0
            skipped = 0
            for values in self._scan_table_iter(table, scan, params, outer, snapshot):
                if predicate is not None:
                    ctx.values = values
                    if predicate(ctx) is not True:
                        continue
                if skipped < offset:
                    skipped += 1
                    continue
                yield project(values)
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

        return EngineCursor(bound.columns, rows(), snapshot=snapshot)

    def _run_select_core(self, select, params, outer, cte_env):
        """FROM → WHERE → (windows | aggregation) → projection. Returns the
        select bound to its input layout and the (output, input) pairs."""
        shape = self._select_shape(select)
        if shape.has_windows and shape.aggregates:
            raise DataError(
                "window functions combined with aggregation are not supported"
            )
        rel = self._resolve_from(select, shape, params, outer, cte_env)
        bound = shape.bound(rel.layout)
        ctx = self._ctx(rel.layout, params, outer)
        rows = rel.rows
        predicate = bound.predicate
        if predicate is not None:
            kept = []
            for values in rows:
                ctx.values = values
                if predicate(ctx) is True:
                    kept.append(values)
            rows = kept
        if bound.agg is not None:
            return bound, self._aggregate(bound.agg, rows, ctx)
        if not isinstance(rows, list):
            rows = list(rows)
        if bound.window_calls:
            results = [compute_window_values(call, rows, ctx)
                       for call in bound.window_calls]
            width = rel.layout.width
            rows = [values[:width] + list(extra)
                    for values, extra in zip(rows, zip(*results))]
        project = _projection(bound, ctx)
        return bound, [(project(values), values) for values in rows]

    # -------------------------------------------------------- aggregation

    def _aggregate(self, agg: AggShape, rows, ctx: EvalContext) -> list:
        """Hash aggregation of ``rows`` (any iterable, consumed once):
        (output values, group row) pairs in first-seen group order."""
        # key -> [first input row, state per aggregate call...]
        groups: dict = {}
        agg.accumulate(rows, ctx, groups, {})
        if not groups and not agg.group_fns:
            # Aggregate over empty input: one row of aggregate defaults.
            groups[()] = [[None] * agg.layout.width] + [init() for init in agg.inits]
        return agg.finalize(groups, ctx)

    # ------------------------------------------------------------ sorting

    def _sort_pairs(self, pairs, bound: BoundSelect, params, outer,
                    top: int | None = None) -> list:
        """ORDER BY. With ``top`` below the number of rows, only the first
        ``top`` rows of the order: ``heapq.nsmallest`` over each row's keys
        followed by its position, so ties keep their input order as a
        stable sort keeps them. Otherwise one stable sort per key, last key
        first."""
        count = len(pairs)
        bounded = top is not None and top < count
        ctx = None
        columns = []  # (keys, descending), last ORDER BY key first
        for source, arg, descending, key in reversed(bound.sort_keys):
            if source is _IN:
                column = [row[arg] for _out, row in pairs]
            elif source is _OUT:
                column = [out[arg] for out, _row in pairs]
            else:
                if ctx is None:
                    ctx = self._ctx(bound.scope, params, outer)
                column = []
                for _out, row in pairs:
                    ctx.values = row
                    column.append(arg(ctx))
            # Plain ints / strs are their own keys (datum.plain_sort_type).
            if plain_sort_type(column) is None:
                column = [key(value) for value in column]
            if bounded and descending:
                # One ascending tuple of keys: a DESC key turned round.
                column = list(map(Descending, column))
            columns.append((column, descending))
        if bounded:
            keys = [column for column, _descending in reversed(columns)]
            return [pairs[entry[-1]]
                    for entry in nsmallest(top, zip(*keys, range(count)))]
        order = range(count)
        for column, descending in columns:
            order = sorted(order, key=column.__getitem__, reverse=descending)
        return [pairs[i] for i in order]

    def _distinct_pairs(self, pairs, bound: BoundSelect, params, outer) -> list:
        seen = set()
        out = []
        distinct_on = bound.distinct_on
        if distinct_on:
            ctx = self._ctx(bound.scope, params, outer)
        for pair in pairs:
            if distinct_on:
                ctx.values = pair[1]
                key = tuple([_group_key(fn(ctx)) for fn in distinct_on])
            else:
                key = tuple([_group_key(v) for v in pair[0]])
            if key not in seen:
                seen.add(key)
                out.append(pair)
        return out

    def _lock_rows_for_update(self, pairs, layout: RowLayout):
        self.session.ensure_xid()
        for _, row in pairs:
            if row is None:
                continue
            for slot, table_name in layout.sources:
                tup = row[slot]
                if tup is not None:
                    self.session.acquire_row_lock(table_name, tup.row_id)

    # ----------------------------------------------------- FROM resolution

    def _resolve_from(self, select: A.Select, shape: SelectShape, params,
                      outer, cte_env) -> RelOutput:
        from_items, where = select.from_items, select.where
        if not from_items:
            return RelOutput(EMPTY_LAYOUT, [[]])
        locking = bool(select.for_update)
        # Only push WHERE into the scan for the single-base-table case;
        # multi-relation queries re-filter above anyway.
        scan_where = where if len(from_items) == 1 else None
        rel = self._resolve_item(from_items[0], params, outer, cte_env,
                                 locking, scan_where)
        if len(from_items) == 1:
            return rel
        # Comma-separated FROM items: plan as inner joins using any
        # applicable equi-join conjuncts from WHERE (hash joins instead of
        # raw cross products — TPC-H style "FROM a, b, c WHERE ..." relies
        # on this).
        remaining = [self._resolve_item(item, params, outer, cte_env, locking)
                     for item in from_items[1:]]
        layouts = [rel.layout, *(right.layout for right in remaining)]
        plan = shape.join_plan
        if plan is None or any(a is not b for a, b in zip(plan[0], layouts)):
            plan = shape.join_plan = (layouts, _comma_join_plan(layouts, where))
        for chosen, join in plan[1]:
            rel = self._join("inner", rel, remaining.pop(chosen), join, params, outer)
        return rel

    def _resolve_item(self, item, params, outer, cte_env, locking=False,
                      where=None) -> RelOutput:
        if isinstance(item, A.TableRef):
            return self._scan_relation(item, params, outer, cte_env, locking, where)
        if isinstance(item, A.SubqueryRef):
            sub = self.execute_select(item.query, params, outer=outer, cte_env=cte_env)
            return _rows_to_rel(item.alias, sub.columns, sub.rows)
        if isinstance(item, A.FunctionRef):
            return self._scan_function(item, params, outer)
        if isinstance(item, A.JoinExpr):
            return self._execute_join(item, params, outer, cte_env, locking)
        raise SyntaxErrorSQL(f"unsupported FROM item {type(item).__name__}")

    def _scan_function(self, item: A.FunctionRef, params, outer) -> RelOutput:
        fn = SET_RETURNING_FUNCTIONS.get(item.func.name.lower())
        if fn is None:
            raise CatalogError(f"set-returning function {item.func.name}() does not exist")
        ctx = self._ctx(EMPTY_LAYOUT, params, outer)
        args = [evaluate(a, ctx) for a in item.func.args]
        col_name = item.column_names[0] if item.column_names else item.alias
        return RelOutput(RowLayout.of(item.alias, [col_name]),
                         [[v] for v in fn(*args)])

    def _scan_relation(self, ref: A.TableRef, params, outer, cte_env,
                       locking=False, where=None) -> RelOutput:
        alias = ref.ref_name
        if ref.name in cte_env:
            names, rows = cte_env[ref.name]
            return _rows_to_rel(alias, names, rows)
        if ref.name in self.session.temp_results:
            names, rows = self.session.temp_results[ref.name]
            return _rows_to_rel(alias, names, rows)
        table = self.catalog.get_table(ref.name)
        self.session.acquire_table_lock(table.name, "AccessShare")
        scan = self._scan_shape(ref, table, where, locking)
        tuples = self._scan_tuples(table, scan, params, outer)
        if locking:
            return RelOutput(scan.layout, [[*tup.values, tup] for tup in tuples])
        return RelOutput(scan.layout, [tup.values for tup in tuples])

    def _scan_shape(self, ref: A.TableRef, table: Table, where,
                    locking: bool = False) -> ScanShape:
        """The prepared scan of a FROM-clause table reference. ``where``
        and ``locking`` are functions of the reference's position in its
        statement (the statement's WHERE for a lone FROM item, else None;
        whether the statement is FOR UPDATE), so the reference alone keys
        the shape. Every caller must therefore pass the same pair."""
        scan = self._prepared(ref, lambda: ScanShape(
            table, ref.ref_name, where, locking))
        assert bool(scan.layout.sources) == locking, "scan shape cached under other locking"
        return scan

    def _index_tuples(self, table: Table, scan: ScanShape, params, outer, snapshot):
        """Visible tuples from the best index for this execution, or None
        when the scan has to be sequential. Charges the index-scan stats."""
        if not scan.btrees and scan.gin is None:
            return None
        path = scan.probe(table, self._ctx(EMPTY_LAYOUT, params, outer))
        if path is None:
            return None
        _description, index, tids = path
        tuples = _fetch_candidates(table, index, tids, snapshot,
                                   self.instance.xids)
        stats = self.session.stats
        stats["index_lookups"] += 1
        stats["tuples_scanned"] += len(tuples)
        stats["pages_read"] += max(1, len(tuples))
        return tuples

    def _scan_tuples(self, table: Table, scan: ScanShape, params, outer) -> list:
        """The table's visible heap tuples (index candidates when an index
        serves the scan's WHERE; the caller re-applies the predicate). A
        tuple's ``values`` list is the row, under ``scan.layout``."""
        snapshot = self.session.snapshot()
        tuples = self._index_tuples(table, scan, params, outer, snapshot)
        if tuples is None:
            tuples = list(table.heap.scan(snapshot, self.instance.xids.clog))
            self.session.stats["tuples_scanned"] += len(tuples)
            self.session.stats["pages_read"] += table.heap.page_count
        return tuples

    def _scan_table_iter(self, table: Table, scan: ScanShape, params, outer,
                         snapshot):
        """Lazily yield rows from a table scan, charging scan stats
        incrementally so an early-terminated cursor only pays for what it
        actually read."""
        stats = self.session.stats
        # Index scans are already bounded by selectivity; the TIDs are
        # resolved eagerly so the stats match the materializing scan.
        tuples = self._index_tuples(table, scan, params, outer, snapshot)
        if tuples is not None:
            for tup in tuples:
                yield tup.values
            return
        # Sequential scan: pages charged as tuples stream out (approximate
        # — visible-tuple density — so a LIMIT-stopped scan pays less).
        tuples_per_page = max(1, len(table.heap.tuples) // max(table.heap.page_count, 1))
        stats["pages_read"] += 1
        seen = 0
        for tup in table.heap.scan(snapshot, self.instance.xids.clog):
            seen += 1
            stats["tuples_scanned"] += 1
            if seen % tuples_per_page == 0:
                stats["pages_read"] += 1
            yield tup.values

    # -------------------------------------------------------------- joins

    def _execute_join(self, join: A.JoinExpr, params, outer, cte_env,
                      locking=False) -> RelOutput:
        left = self._resolve_item(join.left, params, outer, cte_env, locking)
        right = self._resolve_item(join.right, params, outer, cte_env, locking)

        def condition():
            if join.join_type == "cross":
                return None
            if join.using:
                return _using_to_condition(join.using, left.layout, right.layout)
            return join.condition

        cell = self._prepared(join, lambda: [None])
        shape = cell[0]
        # Layouts are interned: the sides' only change with their columns.
        if (shape is None or shape.left is not left.layout
                or shape.right is not right.layout):
            shape = cell[0] = JoinShape(left.layout, right.layout, condition())
        return self._join(join.join_type, left, right, shape, params, outer)

    def _join(self, join_type, left: RelOutput, right: RelOutput,
              shape: JoinShape, params, outer) -> RelOutput:
        """Hash join when the condition equi-joins the sides, else nested
        loops; a join without a condition is the cross product. Output
        rows are ``left values + right values``. The probe side is the
        left one, except for RIGHT JOIN, which runs as a left join with
        the sides' roles swapped."""
        lrows, rrows = left.rows, right.rows
        if not isinstance(rrows, list):
            rrows = list(rrows)
        qual = shape.qual
        if not shape.conditional:
            return RelOutput(shape.layout, [l + r for l in lrows for r in rrows])
        swapped = join_type == "right"
        if swapped:
            probe_rows, build_rows = rrows, lrows
            if not isinstance(build_rows, list):
                build_rows = list(build_rows)
        else:
            probe_rows, build_rows = lrows, rrows
        keep_probe = join_type in ("left", "right", "full")
        probe_nulls = [None] * (shape.left.width if swapped else shape.right.width)
        ctx = self._ctx(shape.layout, params, outer)
        out_rows = []
        matched: set[int] = set()  # ids of matched build rows (FULL JOIN)
        track = join_type == "full"
        hashed = shape.left_keys is not None
        if hashed:
            probe_key = self._join_keys(shape, not swapped, params, outer)
            build_key = self._join_keys(shape, swapped, params, outer)
            table: dict = {}
            for row in build_rows:
                key = build_key(row)
                if key is not None:
                    table.setdefault(key, []).append(row)
            no_rows: list = []
        for prow in probe_rows:
            if hashed:
                key = probe_key(prow)
                candidates = table.get(key, no_rows) if key is not None else no_rows
            else:
                candidates = build_rows
            found = False
            for brow in candidates:
                merged = brow + prow if swapped else prow + brow
                if qual is not None:
                    ctx.values = merged
                    if qual(ctx) is not True:
                        continue
                out_rows.append(merged)
                found = True
                if track:
                    matched.add(id(brow))
            if not found and keep_probe:
                out_rows.append(probe_nulls + prow if swapped else prow + probe_nulls)
        if track:
            build_nulls = [None] * shape.left.width
            out_rows.extend(build_nulls + brow for brow in build_rows
                            if id(brow) not in matched)
        if hashed:
            self.session.stats["join_rows"] += len(out_rows)
        return RelOutput(shape.layout, out_rows)

    def _join_keys(self, shape: JoinShape, left_side: bool, params, outer):
        """``key(row)`` for one side of a hash join: the hashable join key,
        or None when a key column is NULL (NULL joins nothing)."""
        slot = shape.left_slot if left_side else shape.right_slot
        if slot is not None:
            return lambda row: _group_key(row[slot])
        fns = shape.left_keys if left_side else shape.right_keys
        ctx = self._ctx(shape.left if left_side else shape.right, params, outer)

        def key(row):
            ctx.values = row
            key = tuple([_group_key(fn(ctx)) for fn in fns])
            return None if None in key else key
        return key

    # ---------------------------------------------------------------- DML

    def _write_shape(self, table: Table, columns=None) -> WriteShape:
        """The table's prepared write shape for rows supplying ``columns``
        (default: every column, in table order)."""
        columns = tuple(columns) if columns is not None else tuple(
            table.column_names())
        return get_prepared(table, self.catalog.epoch, lambda: WriteShape(
            table, columns, self.catalog), columns)

    def _fk_checks(self) -> bool:
        return bool(self.session.get_guc("foreign_key_checks", True))

    def execute_insert(self, stmt: A.Insert, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        if stmt.select is None and not stmt.rows:
            columns = []  # INSERT ... DEFAULT VALUES
        else:
            columns = stmt.columns or None
        shape = self._prepared(stmt, lambda: InsertShape(
            stmt, table, self._write_shape(table, columns)))
        if stmt.select is not None:
            value_rows = self.execute_select(stmt.select, params).rows
        elif not stmt.rows:
            value_rows = [[]]
        else:
            ctx = self._ctx(EMPTY_LAYOUT, params)
            value_rows = [[evaluate(v, ctx) for v in row] for row in stmt.rows]
        on_conflict = stmt.on_conflict
        resolve = emit = None
        if on_conflict is not None:
            def resolve(conflict_tup, cols, full):
                if on_conflict.columns and set(on_conflict.columns) != set(cols):
                    raise UniqueViolation(
                        f"duplicate key violates unique constraint on {cols}")
                if on_conflict.action == "nothing":
                    return False
                self._apply_conflict_update(conflict_tup, shape, full, params)
                return True
        returned = []
        if shape.returning:
            returning_ctx = self._ctx(shape.layout, params)
            returning_fns = shape.returning[1]

            def emit(full):
                returning_ctx.values = full
                returned.append([fn(returning_ctx) for fn in returning_fns])
        inserted = self.append_rows(shape.write, value_rows, "INSERT", resolve, emit)
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="INSERT")
        result.rowcount = inserted
        return result

    def append_rows(self, shape: WriteShape, rows, command: str,
                    resolve=None, emit=None) -> int:
        """The append loop behind INSERT, COPY and ``insert_rows``: each
        row of ``rows`` (any iterable of value sequences) is cast and
        filled to a full row, checked — NOT NULL, then unique keys, then
        foreign keys, PostgreSQL's order — and appended to heap, indexes
        and WAL. Returns the number of rows written.

        A unique-key collision raises, unless ``resolve(existing tuple,
        key columns, full row)`` settles it (ON CONFLICT): it returns
        whether the row counts as written. ``emit(full row)`` sees every
        appended row (RETURNING).

        All probes of one run share one snapshot, taken after the xid is
        assigned (DESIGN.md, "Write shapes": nothing else runs inside a
        statement run, and the run's own rows are visible through
        ``own_xid``).
        """
        session, table = self.session, shape.table
        xid = session.ensure_xid()
        snapshot = session.snapshot()
        xids = self.instance.xids
        width, build, check_not_null = shape.width, shape.build, shape.check_not_null
        find_conflict = shape.find_conflict if shape.unique_keys else None
        check_fks = (shape.check_foreign_keys
                     if shape.foreign_keys and self._fk_checks() else None)
        ctx = EvalContext(session=session)  # for DEFAULT expressions
        heap_insert = table.heap.insert
        targets = shape.index_targets()
        wal_append = self.instance.wal.append_row
        name, jsonb = table.name, shape.jsonb
        count = appended = 0
        try:
            for values in rows:
                if len(values) != width:
                    raise DataError(
                        f"COPY row has {len(values)} values but {width}"
                        " columns expected" if command == "COPY" else
                        f"INSERT has {len(values)} expressions but {width}"
                        " target columns")
                full = build(values, ctx)
                check_not_null(full)
                if find_conflict is not None:
                    conflict = find_conflict(full, snapshot, xids)
                    if conflict is not None:
                        if resolve is None:
                            raise UniqueViolation(
                                "duplicate key value violates unique constraint"
                                f" on {name!r}")
                        if resolve(*conflict, full):
                            count += 1
                        continue
                if check_fks is not None:
                    check_fks(full, self.catalog, snapshot, xids)
                tup = heap_insert(full, xid)
                _index_tuple(targets, tup)
                wal_append(xid, "insert", name, tup.row_id, full, jsonb)
                appended += 1
                if emit is not None:
                    emit(full)
        finally:
            if appended:
                session.written_tables.add(name)
                session.stats["rows_written"] += appended
                session.stats["index_writes"] += appended * len(targets)
        return count + appended

    def _apply_conflict_update(self, conflict_tup, shape: InsertShape,
                               new_full, params):
        table = shape.write.table
        self.session.acquire_row_lock(table.name, conflict_tup.row_id)
        ctx = self._ctx(shape.conflict_layout, params)
        ctx.values = conflict_tup.values + new_full
        updated = list(conflict_tup.values)
        for idx, cast, assign_fn in shape.conflict_updates:
            updated[idx] = cast(assign_fn(ctx))
        self._do_update(shape.write, shape.write.index_targets(), conflict_tup,
                        updated)

    def _do_update(self, shape: WriteShape, targets, old_tup, new_values: list):
        table, session = shape.table, self.session
        xid = session.ensure_xid()
        heap = table.heap
        heap.mark_deleted(old_tup.tid, xid)
        heap.note_dead(old_tup)
        new_tup = heap.insert(new_values, xid, row_id=old_tup.row_id)
        _index_tuple(targets, new_tup)
        session.stats["index_writes"] += len(targets)
        self.instance.wal.append_row(xid, "update", table.name, old_tup.row_id,
                                     new_values, shape.jsonb)
        session.track_write(table.name)
        return new_tup

    def _dml_target_rows(self, table: Table, scan: ScanShape, ctx) -> list:
        """The heap tuples an UPDATE / DELETE acts on, with every row lock
        held. All locks are taken before anything is mutated, so a lock
        wait (parked statement) can re-run the statement from scratch
        without double-applying its effects."""
        tuples = self._scan_tuples(table, scan, ctx.params, None)
        predicate = scan.predicate
        if predicate is not None:
            kept = []
            for tup in tuples:
                ctx.values = tup.values
                if predicate(ctx) is True:
                    kept.append(tup)
            tuples = kept
        for tup in tuples:
            self.session.acquire_row_lock(table.name, tup.row_id)
        return tuples

    def _current_version(self, table: Table, row_id: int):
        """Re-read a locked row's newest version (simplified EvalPlanQual
        under READ COMMITTED); None when the row is gone — deleted by a
        transaction that committed while this one waited for the lock."""
        clog = self.instance.xids.clog
        current = table.heap.latest_version(row_id, clog)
        if current is None:
            return None
        xmax = current.xmax
        if (xmax is not None and xmax != self.session.xid
                and clog.status(xmax) == COMMITTED):
            return None
        return current

    def _dml_shape(self, stmt, table: Table) -> DmlShape:
        return self._prepared(stmt, lambda: DmlShape(
            stmt, table, self._write_shape(table)))

    def execute_update(self, stmt: A.Update, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        shape = self._dml_shape(stmt, table)
        write, scan = shape.write, shape.scan
        updated = 0
        returned = []
        ctx = self._ctx(scan.layout, params)
        targets = self._dml_target_rows(table, scan, ctx)
        check_fks = bool(write.foreign_keys) and self._fk_checks()
        snapshot = None
        xids = self.instance.xids
        if check_fks or shape.probes_unique:
            # One snapshot for the statement's constraint probes (see
            # append_rows); its earlier updates are visible through own_xid.
            snapshot = self.session.snapshot()
        index_targets = write.index_targets()
        for tup in targets:
            current = self._current_version(table, tup.row_id)
            if current is None:
                continue
            ctx.values = tup.values
            new_values = list(current.values)
            for idx, cast, assign_fn in shape.assignments:
                new_values[idx] = cast(assign_fn(ctx))
            write.check_not_null(new_values)
            if check_fks:
                write.check_foreign_keys(new_values, self.catalog, snapshot, xids)
            # Only a key whose value the assignments changed can collide.
            if shape.probes_unique and write.find_conflict(
                    new_values, snapshot, xids, current.row_id,
                    current.values) is not None:
                raise UniqueViolation(
                    f"duplicate key value violates unique constraint on {table.name!r}"
                )
            self._do_update(write, index_targets, current, new_values)
            updated += 1
            if shape.returning:
                ctx.values = new_values
                returned.append([fn(ctx) for fn in shape.returning[1]])
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="UPDATE")
        result.rowcount = updated
        return result

    def execute_delete(self, stmt: A.Delete, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        session = self.session
        session.acquire_table_lock(table.name, "RowExclusive")
        shape = self._dml_shape(stmt, table)
        returned = []
        ctx = self._ctx(shape.scan.layout, params)
        targets = self._dml_target_rows(table, shape.scan, ctx)
        check_referencing = snapshot = None
        if shape.write.referencing and self._fk_checks():
            check_referencing = shape.write.check_referencing
            snapshot = session.snapshot()  # one per statement, as above
        xids = self.instance.xids
        xid = session.ensure_xid()
        heap, name = table.heap, table.name
        wal_append = self.instance.wal.append_row
        deleted = 0
        try:
            for tup in targets:
                current = self._current_version(table, tup.row_id)
                if current is None:
                    continue
                if check_referencing is not None:
                    check_referencing(current.values, snapshot, xids)
                heap.mark_deleted(current.tid, xid)
                heap.note_dead(current)
                wal_append(xid, "delete", name, current.row_id)
                deleted += 1
                if shape.returning:
                    ctx.values = tup.values
                    returned.append([fn(ctx) for fn in shape.returning[1]])
        finally:
            if deleted:
                session.written_tables.add(name)
                session.stats["rows_written"] += deleted
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="DELETE")
        result.rowcount = deleted
        return result

    # ------------------------------------------------------------ EXPLAIN

    def explain(self, stmt, params) -> list[str]:
        if isinstance(stmt, A.Select):
            lines = []
            self._explain_from(stmt, params, lines)
            if self._select_shape(stmt).aggregates:
                lines.insert(0, "HashAggregate")
            if stmt.order_by:
                lines.insert(0, "Sort")
            if stmt.limit is not None:
                lines.insert(0, "Limit")
            return lines
        if isinstance(stmt, A.Insert):
            return [f"Insert on {stmt.table}"]
        if isinstance(stmt, A.Update):
            return [f"Update on {stmt.table}"]
        if isinstance(stmt, A.Delete):
            return [f"Delete on {stmt.table}"]
        return [type(stmt).__name__]

    def _explain_from(self, select: A.Select, params, lines: list[str]) -> None:
        single_table = len(select.from_items) == 1 and isinstance(
            select.from_items[0], A.TableRef
        )

        def describe(item):
            if isinstance(item, A.TableRef):
                if self.catalog.has_table(item.name):
                    path = None
                    if single_table and select.where is not None:
                        table = self.catalog.get_table(item.name)
                        # Same arguments as _resolve_from: the shape is
                        # cached on the reference and execution reuses it.
                        scan = self._scan_shape(item, table, select.where,
                                                bool(select.for_update))
                        path = scan.probe(table, self._ctx(EMPTY_LAYOUT, params, None))
                    if path is not None:
                        lines.append(f"{path[0]} on {item.name}")
                    else:
                        lines.append(f"Seq Scan on {item.name}")
                else:
                    lines.append(f"Scan on {item.name}")
            elif isinstance(item, A.JoinExpr):
                lines.append("Hash Join" if item.condition is not None else "Nested Loop")
                describe(item.left)
                describe(item.right)
            elif isinstance(item, A.SubqueryRef):
                lines.append(f"Subquery Scan on {item.alias}")
                self._explain_from(item.query, params, lines)
            elif isinstance(item, A.FunctionRef):
                lines.append(f"Function Scan on {item.func.name}")

        for item in select.from_items:
            describe(item)


# --------------------------------------------------------------------------
# module-level helpers
# --------------------------------------------------------------------------


def _has_aggregates(exprs, having) -> bool:
    """Whether a target list (or HAVING) aggregates at this query level.
    Aggregates inside subqueries belong to the subquery's own level, and
    an aggregate called as a window function (``sum(x) OVER ...``) is
    evaluated by the window pass, not by grouping."""
    return any(
        isinstance(node, A.FuncCall) and is_aggregate(node.name)
        for expr in (*exprs, having)
        for node in _walk_skip_subqueries(expr, skip_windows=True)
    )


def _walk_skip_subqueries(expr, skip_windows: bool = False):
    """Pre-order walk that does not descend into SubqueryExpr nodes (nor,
    with ``skip_windows``, into window function calls)."""
    if isinstance(expr, (list, tuple)):  # e.g. CASE's (condition, result) pairs
        for item in expr:
            yield from _walk_skip_subqueries(item, skip_windows)
        return
    if not isinstance(expr, A.Node) or isinstance(expr, A.SubqueryExpr):
        return
    if skip_windows and isinstance(expr, A.FuncCall) and expr.over is not None:
        return
    yield expr
    for name, may_hold_nodes in A.node_fields(type(expr)):
        if may_hold_nodes:
            yield from _walk_skip_subqueries(getattr(expr, name), skip_windows)


def _transform_keep_identity(expr, fn):
    """Like ast.transform but replaces nodes in place, in a visitation
    order that preserves the identity of untouched nodes. Does not descend
    into subqueries: their aggregates belong to the inner query level."""
    if isinstance(expr, list):
        return [_transform_keep_identity(v, fn) for v in expr]
    if isinstance(expr, tuple):
        return tuple(_transform_keep_identity(v, fn) for v in expr)
    if not isinstance(expr, A.Node) or isinstance(expr, A.SubqueryExpr):
        return expr
    result = fn(expr)
    if result is not expr:
        return result
    for name, may_hold_nodes in A.node_fields(type(expr)):
        if may_hold_nodes:
            setattr(expr, name, _transform_keep_identity(getattr(expr, name), fn))
    return expr


def _index_tuple(targets, tup) -> None:
    """Add one heap tuple version to every index of its table
    (``WriteShape.index_targets``)."""
    values, tid = tup.values, tup.tid
    for insert, key_fn in targets:
        insert(key_fn(values), tid)


#: Types whose values are their own :func:`_group_key`.
_PLAIN_KEYS = frozenset((int, str, float, type(None)))


def _group_key(value):
    """Hashable representation of a value for grouping / distinct / join:
    equal keys are equal SQL values. Python already hashes and compares
    ``1 == 1.0`` exactly, so numbers (bigints beyond 2**53 included), text
    and dates stand for themselves; NULL is None."""
    kind = type(value)
    if kind is int or kind is str or value is None or kind is float:
        return value
    if kind is bool:
        return ("b", value)  # True is not the number 1
    if isinstance(value, (dict, list)):
        return ("j", to_text(value))
    return value


def _expand_stars(targets, rel_columns: list):
    expanded = []
    for entry in targets:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else entry
        if isinstance(expr, A.Star):
            for alias, name in rel_columns:
                if expr.table is None or expr.table == alias:
                    expanded.append(A.TargetEntry(A.ColumnRef(name, table=alias), name))
        else:
            expanded.append(entry)
    return expanded


def _expand_returning(returning, table: Table):
    expanded = []
    for entry in returning:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else entry
        if isinstance(expr, A.Star):
            for name in table.column_names():
                expanded.append(A.TargetEntry(A.ColumnRef(name), name))
        else:
            expanded.append(entry)
    return expanded


def _compile_returning(returning, table: Table, layout: RowLayout):
    """``(output names, compiled targets)`` of a RETURNING list over rows
    of ``layout``; None without one."""
    if not returning:
        return None
    targets = _expand_returning(returning, table)
    return (_output_names(targets),
            [get_compiled(t.expr, layout) for t in targets])


def _output_names(targets) -> list[str]:
    names = []
    for entry in targets:
        if entry.alias:
            names.append(entry.alias)
        elif isinstance(entry.expr, A.ColumnRef):
            names.append(entry.expr.name)
        elif isinstance(entry.expr, A.FuncCall):
            names.append(entry.expr.name.lower())
        elif isinstance(entry.expr, A.Cast):
            inner = entry.expr.operand
            names.append(inner.name if isinstance(inner, A.ColumnRef) else entry.expr.type_name)
        else:
            names.append("?column?")
    return names


def _rows_to_rel(alias: str, columns: list[str], rows) -> RelOutput:
    """A relation over rows that already are value lists (a subquery's or
    CTE's result, a streamed intermediate result). ``rows`` passes through
    untouched, so a lazy source stays lazy and a single-pass consumer —
    the coordinator's hash aggregate over ``citus_intermediate`` — never
    materializes the whole stream."""
    return RelOutput(RowLayout.of(alias, columns), rows)


def _projection(bound: BoundSelect, ctx: EvalContext):
    """``project(values) -> output row`` (always a new list) for a SELECT
    without aggregation."""
    slots = bound.target_slots
    if slots is None:
        fns = bound.target_fns

        def project(values):
            ctx.values = values
            return [fn(ctx) for fn in fns]

        return project
    return _slot_projection(slots)


@functools.lru_cache(maxsize=256)
def _slot_projection(slots: tuple):
    """``project(values) -> [values[slot], ...]`` with the reads written
    out, generated once per slot tuple (not per statement, so fresh
    literals generate nothing)."""
    cells = ", ".join(f"values[{slot}]" for slot in slots)
    return _generate("project", f"def project(values):\n return [{cells}]", {})


def _comma_join_plan(layouts, where) -> list:
    """The joins of comma-separated FROM items, ``[(index into what is
    still unjoined, JoinShape), ...]``: each step takes the first item some
    equi-join conjunct of ``where`` connects to what is joined so far, or,
    failing that, cross-joins the next one."""
    conjuncts = _split_and(where) if where is not None else []
    left, remaining = layouts[0], list(layouts[1:])
    steps = []
    while remaining:
        chosen, condition = 0, None
        for i, right in enumerate(remaining):
            condition = _equi_condition_between(conjuncts, left.slots, right.slots)
            if condition is not None:
                chosen = i
                break
        join = JoinShape(left, remaining.pop(chosen), condition)
        steps.append((chosen, join))
        left = join.layout
    return steps


def _using_to_condition(using: list[str], left: RowLayout, right: RowLayout) -> A.Expr:
    conds = []
    for name in using:
        lalias = next((a for a, n in left.columns if n == name), None)
        ralias = next((a for a, n in right.columns if n == name), None)
        conds.append(
            A.BinaryOp("=", A.ColumnRef(name, table=lalias), A.ColumnRef(name, table=ralias))
        )
    cond = conds[0]
    for c in conds[1:]:
        cond = A.BinaryOp("and", cond, c)
    return cond


def _equi_condition_between(conjuncts, left_keys, right_keys):
    """AND together the conjuncts that equi-join two relations; None when
    no conjunct connects them."""
    found = []
    for c in conjuncts:
        if not (isinstance(c, A.BinaryOp) and c.op == "="):
            continue
        lrefs = _column_keys(c.left)
        rrefs = _column_keys(c.right)
        if not lrefs or not rrefs:
            continue
        connects = (
            (_subset(lrefs, left_keys) and _subset(rrefs, right_keys))
            or (_subset(lrefs, right_keys) and _subset(rrefs, left_keys))
        )
        if connects:
            found.append(c)
    if not found:
        return None
    condition = found[0]
    for c in found[1:]:
        condition = A.BinaryOp("and", condition, c)
    return condition


def _extract_equi_keys(condition, left_keys, right_keys):
    """Split a join condition for the hash join: ``(([left exprs], [right
    exprs]) or None, [conjuncts that are not key equalities])``."""
    left_exprs, right_exprs, residual = [], [], []
    for c in _split_and(condition):
        if isinstance(c, A.BinaryOp) and c.op == "=":
            lrefs = _column_keys(c.left)
            rrefs = _column_keys(c.right)
            if _subset(lrefs, left_keys) and _subset(rrefs, right_keys):
                left_exprs.append(c.left)
                right_exprs.append(c.right)
                continue
            if _subset(lrefs, right_keys) and _subset(rrefs, left_keys):
                left_exprs.append(c.right)
                right_exprs.append(c.left)
                continue
        residual.append(c)
    if not left_exprs:
        return None, residual
    return (left_exprs, right_exprs), residual


def _split_and(expr) -> list:
    if isinstance(expr, A.BinaryOp) and expr.op == "and":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _column_keys(expr) -> set:
    keys = set()
    for node in A.walk(expr):
        if isinstance(node, A.ColumnRef):
            keys.add(node.key)
        elif isinstance(node, A.SubqueryExpr):
            return set()  # never hash on subquery results
    return keys


def _subset(refs: set, keys) -> bool:
    return bool(refs) and all(r in keys for r in refs)


def _apply_set_op(op: str, left_pairs, right_pairs):
    """UNION / INTERSECT / EXCEPT over (output values, input row) pairs,
    first-occurrence order preserved. The plain forms return distinct
    rows; the ALL forms count multiplicities — INTERSECT ALL keeps
    ``min(l, r)`` copies of a row, EXCEPT ALL ``max(l - r, 0)``."""
    if op == "union all":
        return left_pairs + right_pairs
    kind, _, modifier = op.partition(" ")
    if kind not in ("union", "intersect", "except") or modifier not in ("", "all"):
        raise SyntaxErrorSQL(f"unsupported set operation {op!r}")
    if kind == "union":
        left_pairs, right_pairs = left_pairs + right_pairs, []

    def row_key(pair):
        return tuple([_group_key(v) for v in pair[0]])

    right_counts = Counter(row_key(pair) for pair in right_pairs)
    emitted = set()
    out = []
    for pair in left_pairs:
        key = row_key(pair)
        if modifier == "all":
            # Each right-hand copy pairs off with one left-hand copy.
            in_right = right_counts[key] > 0
            if in_right:
                right_counts[key] -= 1
        else:
            if key in emitted:
                continue
            emitted.add(key)
            in_right = key in right_counts
        if kind == "union" or in_right == (kind == "intersect"):
            out.append(pair)
    return out


def _resolve_ref(expr, targets):
    """Resolve positional (GROUP BY 1) and alias references to target exprs."""
    if isinstance(expr, A.Literal) and isinstance(expr.value, int):
        index = expr.value - 1
        if 0 <= index < len(targets):
            return targets[index].expr
    if isinstance(expr, A.ColumnRef) and expr.table is None:
        for entry in targets:
            if entry.alias == expr.name:
                return entry.expr
    return expr


def _references_columns(expr) -> bool:
    return any(isinstance(n, (A.ColumnRef, A.Star, A.SubqueryExpr)) for n in A.walk(expr))


def _normalized_expr_text(expr, alias: str | None) -> str:
    """Deparse an expression with table qualifiers stripped, so a query
    predicate can be matched against an index expression."""

    def strip(node):
        if isinstance(node, A.ColumnRef):
            return A.ColumnRef(node.name)
        return node

    return deparse(A.transform(expr.copy(), strip)).lower()
