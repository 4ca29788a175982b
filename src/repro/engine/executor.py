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

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

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
from .catalog import IndexDef, Table
from .datum import cast_value, compare_values, ordering, plain_sort_type, to_text
from .compile import get_compiled, get_prepared, slot_of
from .expr import EMPTY_LAYOUT, EvalContext, RowLayout, SlotRef, evaluate
from .functions import _STAR, SET_RETURNING_FUNCTIONS, get_aggregate, is_aggregate
from .index import BTreeIndex, GinIndex, index_insert
from .mvcc import COMMITTED, tuple_visible
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
    cursor (portal) on it is done.
    """

    def __init__(self, columns, rows_iter, command: str = "SELECT",
                 on_finish=None):
        self.columns = columns
        self.command = command
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
        (description, tids) or None for a sequential scan.

        The candidate TIDs are a superset of the matching rows; the caller
        re-applies the full WHERE clause (index recheck). A trigram match
        wins; otherwise the longest B-tree equality prefix, then a B-tree
        range, fewest TIDs breaking ties.
        """
        if self.gin is not None:
            name, needle = self.gin
            tids = table.indexes[name].data.search_substring(needle)
            return (f"Bitmap Heap Scan using {name}", sorted(tids))
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
            data = table.indexes[name].data
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
                best = (score, (f"Index Scan using {name}", tids))
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


#: Where a sort key reads its value: the output row by position, or a
#: closure evaluated over the input row.
_OUT, _FN = range(2)


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
            slots = [slot_of(t.expr, layout) for t in targets]
            #: Set when every target is a bare slot read: the projection
            #: is then one itemgetter call per row.
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
            source, arg = _FN, get_compiled(expr, scope)
        return (source, arg, *ordering(sk.ascending, sk.nulls_first))


class AggShape:
    """The hash aggregate of one SELECT over input rows of one layout.

    A group's output row is its first input row's values followed by one
    slot per aggregate call; targets, HAVING and aggregate ORDER BY keys
    are compiled over that row with each call replaced by a
    :class:`SlotRef` (in a copy: statements are cached and shared across
    sessions, so the rewrite must never touch the original tree)."""

    __slots__ = ("layout", "group_fns", "group_slot", "steps", "inits",
                 "finishers", "target_fns", "having")

    def __init__(self, select: A.Select, targets, layout: RowLayout):
        self.layout = layout
        # GROUP BY entries may be positional or alias references.
        group_exprs = [_resolve_ref(g, targets) for g in select.group_by]
        self.group_fns = [get_compiled(g, layout) for g in group_exprs]
        #: GROUP BY one plain column, the common case: its slot.
        self.group_slot = (slot_of(group_exprs[0], layout)
                           if len(group_exprs) == 1 else None)
        #: Per aggregate call, in slot order: ``(accumulate, star, argument
        #: slot, argument closures, FILTER closure, distinct)``, the state
        #: constructor, and ``partial`` or ``finalize``.
        self.steps: list[tuple] = []
        self.inits: list = []
        self.finishers: list = []
        self.target_fns = [get_compiled(self.lift(t.expr.copy()), layout)
                           for t in targets]
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
        self.inits.append(agg.init)
        self.finishers.append(
            agg.partial if node.agg_phase == "partial" else agg.finalize)


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
    """An UPDATE or DELETE: its target scan, the assignment slots
    ``(column position, type, compiled value)`` and the RETURNING list
    ``(output names, compiled targets)``."""

    __slots__ = ("scan", "assignments", "returning")

    def __init__(self, stmt, table: Table):
        self.scan = ScanShape(table, stmt.alias or stmt.table, stmt.where)
        layout = self.scan.layout
        self.assignments = []
        for col_name, expr in getattr(stmt, "assignments", ()):
            idx = table.column_index(col_name)
            self.assignments.append(
                (idx, table.columns[idx].type_name, get_compiled(expr, layout)))
        self.returning = _compile_returning(stmt.returning, table, layout)


class InsertShape:
    """An INSERT's row-shaped parts: the RETURNING list over the new row,
    and the ON CONFLICT DO UPDATE assignments over ``existing + proposed``
    values — unqualified and table-qualified names read the existing row,
    ``excluded.col`` the proposed one."""

    __slots__ = ("layout", "returning", "conflict_layout", "conflict_updates")

    def __init__(self, stmt: A.Insert, table: Table):
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
                    (idx, table.columns[idx].type_name, get_compiled(expr, both)))


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
        tracer = self.instance.tracer
        if tracer is not None and tracer.active:
            # Inside a traced statement (or EXPLAIN ANALYZE capture), each
            # engine-level select — the coordinator merge query, local-tier
            # statements, InitPlans — shows up as its own span.
            with tracer.span("select", "engine", node=self.instance.name) as span:
                result = self._execute_select_impl(select, params, outer, cte_env)
                if span is not None:
                    span.attrs["rows"] = len(result.rows)
                return result
        return self._execute_select_impl(select, params, outer, cte_env)

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

        if select.order_by:
            pairs = self._sort_pairs(pairs, bound, params, outer)
        if select.distinct:
            pairs = self._distinct_pairs(pairs, bound, params, outer)
        if select.offset is not None or select.limit is not None:
            ctx0 = self._ctx(EMPTY_LAYOUT, params, outer)
            offset = int(evaluate(select.offset, ctx0)) if select.offset is not None else 0
            if offset:
                pairs = pairs[offset:]
            if select.limit is not None:
                limit = evaluate(select.limit, ctx0)
                if limit is not None:
                    pairs = pairs[: int(limit)]
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

        return EngineCursor(bound.columns, rows())

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
        steps, inits = agg.steps, agg.inits
        group_fns, group_slot = agg.group_fns, agg.group_slot
        # key -> [first input row, state per aggregate call...]
        groups: dict = {}
        seen: dict = {}  # (key, call position) -> DISTINCT argument keys
        for values in rows:
            ctx.values = values
            if group_slot is not None:
                key = _group_key(values[group_slot])
            else:
                key = tuple([_group_key(fn(ctx)) for fn in group_fns])
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = [values]
                entry.extend([init() for init in inits])
            i = 0
            for accumulate, star, slot, arg_fns, keep, distinct in steps:
                i += 1
                if keep is not None and keep(ctx) is not True:
                    continue
                if star:
                    entry[i] = accumulate(entry[i], _STAR)
                elif slot is not None and not distinct:
                    entry[i] = accumulate(entry[i], values[slot])
                else:
                    args = [fn(ctx) for fn in arg_fns]
                    if distinct:
                        arg_key = tuple([_group_key(v) for v in args])
                        seen_args = seen.setdefault((key, i), set())
                        if arg_key in seen_args:
                            continue
                        seen_args.add(arg_key)
                    entry[i] = accumulate(entry[i], *args)

        width = agg.layout.width
        if not groups and not group_fns:
            # Aggregate over empty input: one row of aggregate defaults.
            groups[()] = [[None] * width] + [init() for init in inits]

        pairs = []
        having, target_fns, finishers = agg.having, agg.target_fns, agg.finishers
        for entry in groups.values():
            group_row = list(entry[0][:width])
            group_row.extend([finish(state)
                              for finish, state in zip(finishers, entry[1:])])
            ctx.values = group_row
            if having is not None and having(ctx) is not True:
                continue
            pairs.append(([fn(ctx) for fn in target_fns], group_row))
        return pairs

    # ------------------------------------------------------------ sorting

    def _sort_pairs(self, pairs, bound: BoundSelect, params, outer) -> list:
        """ORDER BY as one stable sort per key, last key first."""
        ctx = self._ctx(bound.scope, params, outer)
        for source, arg, descending, key in reversed(bound.sort_keys):
            if source is _OUT:
                column = [pair[0][arg] for pair in pairs]
            else:
                column = []
                for pair in pairs:
                    ctx.values = pair[1]
                    column.append(arg(ctx))
            # Plain ints / strs are their own keys (datum.plain_sort_type).
            keys = (column if plain_sort_type(column) is not None
                    else [key(value) for value in column])
            order = sorted(range(len(pairs)), key=keys.__getitem__,
                           reverse=descending)
            pairs = [pairs[i] for i in order]
        return pairs

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
        # Indexes are not MVCC-aware: recheck visibility at the heap.
        clog = self.instance.xids.clog
        get = table.heap.get
        tuples = []
        for tid in path[1]:
            tup = get(tid)
            if tup is not None and tuple_visible(tup.header, snapshot, clog):
                tuples.append(tup)
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

    def execute_insert(self, stmt: A.Insert, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        columns = stmt.columns or table.column_names()
        if stmt.select is not None:
            source = self.execute_select(stmt.select, params)
            value_rows = source.rows
        elif not stmt.rows:
            # INSERT ... DEFAULT VALUES
            columns = []
            value_rows = [[]]
        else:
            ctx = self._ctx(EMPTY_LAYOUT, params)
            value_rows = [[evaluate(v, ctx) for v in row] for row in stmt.rows]
        shape = self._prepared(stmt, lambda: InsertShape(stmt, table))
        returning_ctx = self._ctx(shape.layout, params)
        inserted = 0
        returned = []
        for values in value_rows:
            if len(values) != len(columns):
                raise DataError(
                    f"INSERT has {len(values)} expressions but {len(columns)} target columns"
                )
            full = self._build_full_row(table, columns, values)
            conflict_tup = self._find_conflict(table, full, stmt.on_conflict)
            if conflict_tup is not None:
                if stmt.on_conflict is None:
                    raise UniqueViolation(
                        f"duplicate key value violates unique constraint on {table.name!r}"
                    )
                if stmt.on_conflict.action == "nothing":
                    continue
                self._apply_conflict_update(table, conflict_tup, shape, full, params)
                inserted += 1
                continue
            self._check_not_null(table, full)
            self._check_foreign_keys(table, full)
            tup = self._do_insert(table, full)
            inserted += 1
            if shape.returning:
                returning_ctx.values = full
                returned.append([fn(returning_ctx) for fn in shape.returning[1]])
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="INSERT")
        result.rowcount = inserted
        return result

    def _build_full_row(self, table: Table, columns, values) -> list:
        full = []
        for col in table.columns:
            if col.name in columns:
                full.append(cast_value(values[columns.index(col.name)], col.type_name))
            elif col.is_serial:
                seq = self.catalog.get_sequence(f"{table.name}_{col.name}_seq")
                full.append(seq.nextval())
            elif col.default is not None:
                ctx = self._ctx(EMPTY_LAYOUT, None)
                full.append(cast_value(evaluate(col.default, ctx), col.type_name))
            else:
                full.append(None)
        return full

    def _check_not_null(self, table: Table, full: list) -> None:
        for col, value in zip(table.columns, full):
            if col.not_null and value is None:
                raise NotNullViolation(
                    f"null value in column {col.name!r} of relation {table.name!r}"
                )

    def _unique_key_sets(self, table: Table):
        if table.primary_key:
            yield table.primary_key
        for cols in table.unique_constraints:
            yield cols
        for index in table.indexes.values():
            if index.unique:
                cols = [e.name for e in index.exprs if isinstance(e, A.ColumnRef)]
                if len(cols) == len(index.exprs):
                    yield cols

    def _find_conflict(self, table: Table, full: list, on_conflict):
        snapshot = self.session.snapshot()
        clog = self.instance.xids.clog
        names = table.column_names()
        for cols in self._unique_key_sets(table):
            key_values = _pick(full, names, cols)
            if any(v is None for v in key_values):
                continue
            positions = [names.index(c) for c in cols]
            index = self._index_for_columns(table, cols)
            if index is not None:
                candidates = [table.heap.get(tid) for tid in index.data.scan_equal(key_values)]
            else:
                candidates = table.heap.tuples
            for tup in candidates:
                if tup is None:
                    continue
                if not tuple_visible(tup.header, snapshot, clog):
                    continue
                existing = tup.values
                if all(
                    existing[p] is not None
                    and compare_values(existing[p], v) == 0
                    for p, v in zip(positions, key_values)
                ):
                    if on_conflict is not None and on_conflict.columns:
                        if set(on_conflict.columns) != set(cols):
                            raise UniqueViolation(
                                f"duplicate key violates unique constraint on {cols}"
                            )
                    return tup
        return None

    def _apply_conflict_update(self, table, conflict_tup, shape: InsertShape,
                               new_full, params):
        self.session.acquire_row_lock(table.name, conflict_tup.row_id)
        ctx = self._ctx(shape.conflict_layout, params)
        ctx.values = conflict_tup.values + new_full
        updated = list(conflict_tup.values)
        for idx, type_name, assign_fn in shape.conflict_updates:
            updated[idx] = cast_value(assign_fn(ctx), type_name)
        self._do_update(table, conflict_tup, updated)

    def _do_insert(self, table: Table, full: list):
        xid = self.session.ensure_xid()
        tup = table.heap.insert(full, xid)
        self._index_insert(table, tup)
        self.instance.wal.append(xid, "insert", {
            "table": table.name, "row_id": tup.row_id, "values": _wal_values(full),
        })
        self.session.track_write(table.name)
        return tup

    def _do_update(self, table: Table, old_tup, new_values: list):
        xid = self.session.ensure_xid()
        table.heap.mark_deleted(old_tup.tid, xid)
        table.heap.note_dead(old_tup)
        new_tup = table.heap.insert(new_values, xid, row_id=old_tup.row_id)
        self._index_insert(table, new_tup)
        self.instance.wal.append(xid, "update", {
            "table": table.name, "row_id": old_tup.row_id, "values": _wal_values(new_values),
        })
        self.session.track_write(table.name)
        return new_tup

    def _do_delete(self, table: Table, tup):
        xid = self.session.ensure_xid()
        table.heap.mark_deleted(tup.tid, xid)
        table.heap.note_dead(tup)
        self.instance.wal.append(xid, "delete", {"table": table.name, "row_id": tup.row_id})
        self.session.track_write(table.name)

    def _index_insert(self, table: Table, tup):
        for index in table.indexes.values():
            if index.data is None:
                continue
            index_insert(table, index, tup)
            self.session.stats["index_writes"] += 1

    def _index_for_columns(self, table: Table, cols: list[str]) -> IndexDef | None:
        for index in table.indexes.values():
            if isinstance(index.data, GinIndex):
                continue
            index_cols = [e.name for e in index.exprs if isinstance(e, A.ColumnRef)]
            if index_cols[: len(cols)] == list(cols):
                return index
        return None

    def _check_foreign_keys(self, table: Table, full: list) -> None:
        if not table.foreign_keys or not self.session.get_guc("foreign_key_checks", True):
            return
        names = table.column_names()
        snapshot = self.session.snapshot()
        clog = self.instance.xids.clog
        for fk in table.foreign_keys:
            values = _pick(full, names, fk.columns)
            if any(v is None for v in values):
                continue
            ref_table = self.catalog.get_table(fk.ref_table)
            ref_cols = fk.ref_columns or ref_table.primary_key
            index = self._index_for_columns(ref_table, ref_cols)
            found = False
            if index is not None:
                for tid in index.data.scan_equal(values):
                    tup = ref_table.heap.get(tid)
                    if tup is not None and tuple_visible(tup.header, snapshot, clog):
                        found = True
                        break
            else:
                ref_names = ref_table.column_names()
                positions = [ref_names.index(c) for c in ref_cols]
                for tup in ref_table.heap.scan(snapshot, clog):
                    if all(
                        tup.values[p] is not None
                        and compare_values(tup.values[p], v) == 0
                        for p, v in zip(positions, values)
                    ):
                        found = True
                        break
            if not found:
                raise ForeignKeyViolation(
                    f"insert on {table.name!r} violates foreign key to {fk.ref_table!r}"
                )

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
        xmax = current.header.xmax
        if (xmax is not None and xmax != self.session.xid
                and clog.status(xmax) == COMMITTED):
            return None
        return current

    def execute_update(self, stmt: A.Update, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        shape = self._prepared(stmt, lambda: DmlShape(stmt, table))
        scan = shape.scan
        assigned = [idx for idx, _type_name, _fn in shape.assignments]
        updated = 0
        returned = []
        ctx = self._ctx(scan.layout, params)
        for tup in self._dml_target_rows(table, scan, ctx):
            current = self._current_version(table, tup.row_id)
            if current is None:
                continue
            ctx.values = tup.values
            new_values = list(current.values)
            for idx, type_name, assign_fn in shape.assignments:
                new_values[idx] = cast_value(assign_fn(ctx), type_name)
            self._check_not_null(table, new_values)
            self._check_foreign_keys(table, new_values)
            self._check_update_unique(table, current, new_values, assigned)
            self._do_update(table, current, new_values)
            updated += 1
            if shape.returning:
                ctx.values = new_values
                returned.append([fn(ctx) for fn in shape.returning[1]])
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="UPDATE")
        result.rowcount = updated
        return result

    def _check_update_unique(self, table, current, new_values, assigned):
        """Unique-constraint check for an UPDATE that assigned the column
        positions ``assigned``: only a changed key column can conflict."""
        changed = {
            table.columns[idx].name for idx in assigned
            if _group_key(current.values[idx]) != _group_key(new_values[idx])
        }
        if not changed:
            return
        for cols in self._unique_key_sets(table):
            if not changed.intersection(cols):
                continue
            conflict = self._find_conflict(table, new_values, None)
            if conflict is not None and conflict.row_id != current.row_id:
                raise UniqueViolation(
                    f"duplicate key value violates unique constraint on {table.name!r}"
                )

    def execute_delete(self, stmt: A.Delete, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        shape = self._prepared(stmt, lambda: DmlShape(stmt, table))
        deleted = 0
        returned = []
        ctx = self._ctx(shape.scan.layout, params)
        for tup in self._dml_target_rows(table, shape.scan, ctx):
            current = self._current_version(table, tup.row_id)
            if current is None:
                continue
            self._check_referencing_keys(table, current.values)
            self._do_delete(table, current)
            deleted += 1
            if shape.returning:
                ctx.values = tup.values
                returned.append([fn(ctx) for fn in shape.returning[1]])
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="DELETE")
        result.rowcount = deleted
        return result

    def _check_referencing_keys(self, table: Table, values: list) -> None:
        """ON DELETE RESTRICT semantics for incoming foreign keys."""
        if not self.session.get_guc("foreign_key_checks", True):
            return
        names = table.column_names()
        snapshot = self.session.snapshot()
        clog = self.instance.xids.clog
        for other in self.catalog.tables.values():
            for fk in other.foreign_keys:
                if fk.ref_table != table.name:
                    continue
                ref_cols = fk.ref_columns or table.primary_key
                if not ref_cols:
                    continue
                key = _pick(values, names, ref_cols)
                other_names = other.column_names()
                positions = [other_names.index(c) for c in fk.columns]
                for tup in other.heap.scan(snapshot, clog):
                    if all(
                        tup.values[p] is not None and compare_values(tup.values[p], v) == 0
                        for p, v in zip(positions, key)
                    ):
                        raise ForeignKeyViolation(
                            f"row in {table.name!r} is still referenced from {other.name!r}"
                        )

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


def _pick(values: list, names: list, wanted) -> list:
    """The ``wanted`` columns' values out of a full row of ``names`` (None
    for a column the table does not have)."""
    return [values[names.index(c)] if c in names else None for c in wanted]


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
    if len(slots) == 1:  # itemgetter(one slot) returns a bare value
        slot = slots[0]
        return lambda values: [values[slot]]
    getter = itemgetter(*slots)
    return lambda values: list(getter(values))


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


def _wal_values(values: list) -> list:
    return [to_text(v) if isinstance(v, (dict, list)) else v for v in values]
