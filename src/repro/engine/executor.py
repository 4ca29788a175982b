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

from dataclasses import dataclass, field

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
from .catalog import Catalog, IndexDef, RelationBinding, Table
from .datum import cast_value, compare_values, sort_key, to_text
from .compile import get_compiled, get_prepared
from .expr import EvalContext, Row, evaluate
from .functions import SET_RETURNING_FUNCTIONS, get_aggregate, is_aggregate
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
        batch: list = []
        try:
            for _ in range(max(int(n), 0)):
                try:
                    batch.append(next(self._iter))
                except StopIteration:
                    self.exhausted = True
                    break
        except BaseException as exc:
            self.exhausted = True
            self._finish(exc)
            raise
        self.rows_fetched += len(batch)
        if self.exhausted:
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
    """Result of resolving a FROM item: bound rows plus shape metadata."""

    columns: list  # list[(alias, column_name)]
    rows: list  # list[Row]
    keys: set = field(default_factory=set)  # resolvable reference keys


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
    """A scan of one base table under one WHERE clause: the column
    bindings, the compiled predicate, and the index candidates together
    with the expressions that supply their keys."""

    __slots__ = ("binding", "predicate", "terms", "btrees", "gin")

    def __init__(self, table: Table, binding: RelationBinding, where):
        self.binding = binding
        alias = binding.alias
        self.predicate = get_compiled(where) if where is not None else None
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
    """The projection side of one SELECT: compiled WHERE, window /
    aggregate flags, and the star-expanded target list with its output
    names and compiled expressions."""

    __slots__ = ("select", "predicate", "has_windows", "has_aggs",
                 "has_star", "streamable", "_star_columns", "_targets")

    def __init__(self, select: A.Select):
        self.select = select
        self.predicate = get_compiled(select.where) if select.where is not None else None
        exprs = [entry.expr if isinstance(entry, A.TargetEntry) else entry
                 for entry in select.targets]
        plain = [e for e in exprs if not isinstance(e, A.Star)]
        self.has_star = len(plain) != len(exprs)
        self.has_windows = any(contains_window_function(e) for e in plain)
        self.has_aggs = _has_aggregates(plain, select.having)
        #: Can run as a lazy scan -> filter -> project pipeline (given that
        #: the FROM item resolves to a base table at execution time).
        self.streamable = not (
            select.ctes or select.set_ops or select.group_by
            or select.distinct or select.order_by or select.for_update
            or select.having is not None or self.has_windows or self.has_aggs
        ) and len(select.from_items) == 1 and isinstance(
            select.from_items[0], A.TableRef)
        self._star_columns = None
        self._targets = None

    def targets(self, rel_columns: list):
        """``(targets, output names, compiled targets)`` with every star
        expanded over ``rel_columns``. The compiled list is None when the
        targets go through window / aggregate evaluation instead."""
        memo = self._targets
        if memo is None or (self.has_star
                            and self._star_columns is not rel_columns
                            and self._star_columns != rel_columns):
            targets = _expand_stars(self.select.targets, rel_columns)
            fns = None
            if not (self.has_windows or self.has_aggs or self.select.group_by):
                fns = [get_compiled(t.expr) for t in targets]
            memo = self._targets = (targets, _output_names(targets), fns)
            self._star_columns = rel_columns
        return memo


class DmlShape:
    """An UPDATE or DELETE: its target scan, the assignment slots
    ``(column position, type, compiled value)`` and the RETURNING list
    ``(output names, compiled targets)``."""

    __slots__ = ("scan", "assignments", "returning")

    def __init__(self, stmt, table: Table, catalog: Catalog):
        self.scan = ScanShape(
            table, catalog.binding(table, stmt.alias or stmt.table), stmt.where)
        self.assignments = []
        for col_name, expr in getattr(stmt, "assignments", ()):
            idx = table.column_index(col_name)
            self.assignments.append(
                (idx, table.columns[idx].type_name, get_compiled(expr)))
        self.returning = None
        if stmt.returning:
            targets = _expand_returning(stmt.returning, table)
            self.returning = (_output_names(targets),
                              [get_compiled(t.expr) for t in targets])


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

    def _ctx(self, row: Row, params, outer: EvalContext | None = None) -> EvalContext:
        run = self._subquery_run
        if run is None or params is not self._subquery_params:
            run = self._subquery_run = self._subquery_executor(params)
            self._subquery_params = params
        return EvalContext(row, params, self.session, run, outer)

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

        columns, pairs = self._run_select_core(select, params, outer, cte_env)

        for op, rhs in select.set_ops:
            rhs_result = self.execute_select(rhs, params, outer=outer, cte_env=cte_env)
            pairs = _apply_set_op(op, pairs, [(r, Row()) for r in rhs_result.rows])

        # ORDER BY over (values, row) pairs
        if select.order_by:
            pairs = self._sort_pairs(pairs, select.order_by, select, columns, params, outer)
        if select.distinct:
            pairs = _distinct_pairs(pairs, select.distinct_on, self, params, outer)
        offset = int(evaluate(select.offset, self._ctx(Row(), params, outer))) if select.offset else 0
        if offset:
            pairs = pairs[offset:]
        if select.limit is not None:
            limit = evaluate(select.limit, self._ctx(Row(), params, outer))
            if limit is not None:
                pairs = pairs[: int(limit)]
        if select.for_update:
            self._lock_rows_for_update(pairs)
        return QueryResult(columns, [values for values, _ in pairs])

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
        _targets, columns, target_fns = self._select_shape(select).targets(scan.binding.columns)
        predicate = scan.predicate
        ctx0 = self._ctx(Row(), params, outer)
        offset = int(evaluate(select.offset, ctx0)) if select.offset is not None else 0
        limit = None
        if select.limit is not None:
            value = evaluate(select.limit, ctx0)
            if value is not None:
                limit = int(value)
        snapshot = self.session.snapshot()

        def rows():
            if limit is not None and limit <= 0:
                return
            emitted = 0
            skipped = 0
            for row in self._scan_table_iter(table, scan, params, outer, snapshot):
                ctx = self._ctx(row, params, outer)
                if predicate is not None and predicate(ctx) is not True:
                    continue
                if skipped < offset:
                    skipped += 1
                    continue
                yield [fn(ctx) for fn in target_fns]
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

        return EngineCursor(columns, rows())

    def _run_select_core(self, select, params, outer, cte_env):
        shape = self._select_shape(select)
        rel = self._resolve_from(select.from_items, params, outer, cte_env,
                                 where=select.where)
        predicate = shape.predicate
        if predicate is not None:
            rel.rows = [
                row for row in rel.rows
                if predicate(self._ctx(row, params, outer)) is True
            ]
        targets, columns, target_fns = shape.targets(rel.columns)
        if shape.has_windows:
            targets = self._compute_windows(select, targets, rel, params, outer)
        if select.group_by or shape.has_aggs:
            if shape.has_windows:
                raise DataError(
                    "window functions combined with aggregation are not supported"
                )
            pairs = self._aggregate(select, targets, rel, params, outer)
        else:
            if shape.has_windows:
                target_fns = [get_compiled(t.expr) for t in targets]
            pairs = []
            for row in rel.rows:
                ctx = self._ctx(row, params, outer)
                pairs.append(([fn(ctx) for fn in target_fns], row))
        return columns, pairs

    def _compute_windows(self, select, targets, rel, params, outer):
        """Evaluate window functions over the filtered input and replace
        each window call with a reference to its per-row result."""
        window_nodes: list = []

        def visit(node):
            if isinstance(node, A.FuncCall) and node.over is not None:
                window_nodes.append(node)
                return A.ColumnRef(f"__win_{len(window_nodes) - 1}")
            return node

        rewritten = [
            A.TargetEntry(_transform_keep_identity(t.expr.copy(), visit), t.alias)
            for t in targets
        ]
        for index, node in enumerate(window_nodes):
            values = compute_window_values(self, node, rel.rows, params, outer)
            for row, value in zip(rel.rows, values):
                row.bind(None, f"__win_{index}", value)
        return rewritten

    # -------------------------------------------------------- aggregation

    def _aggregate(self, select, targets, rel, params, outer):
        # Resolve GROUP BY entries: positional and alias references.
        group_exprs = []
        for g in select.group_by:
            group_exprs.append(_resolve_ref(g, targets))
        # Collect aggregate nodes from targets + having, rewrite to refs.
        agg_nodes: list[A.FuncCall] = []

        def collect(expr):
            def visit(node):
                if isinstance(node, A.FuncCall) and is_aggregate(node.name):
                    for i, existing in enumerate(agg_nodes):
                        if existing is node:
                            return _AggRef(i)
                    agg_nodes.append(node)
                    return _AggRef(len(agg_nodes) - 1)
                return node

            return _transform_keep_identity(expr, visit)

        # Work on copies: statements are cached and shared across sessions,
        # so the _AggRef rewrite must never touch the original tree.
        rewritten_targets = [A.TargetEntry(collect(t.expr.copy()), t.alias) for t in targets]
        having = collect(select.having.copy()) if select.having is not None else None
        # ORDER BY may reference aggregates (ORDER BY sum(x) DESC): compute
        # them per group and bind under a recognizable name for the sorter.
        order_aggs = []
        for sk in select.order_by:
            if any(isinstance(n, A.FuncCall) and is_aggregate(n.name)
                   for n in _walk_skip_subqueries(sk.expr)):
                order_aggs.append((deparse(sk.expr), collect(sk.expr.copy())))

        groups: dict[tuple, list] = {}
        group_order: list[tuple] = []
        representative: dict[tuple, Row] = {}
        distinct_seen: dict[tuple, set] = {}
        group_fns = [get_compiled(g) for g in group_exprs]
        for row in rel.rows:
            ctx = self._ctx(row, params, outer)
            key = tuple(_group_key(fn(ctx)) for fn in group_fns)
            if key not in groups:
                groups[key] = [get_aggregate(n.name).init() for n in agg_nodes]
                group_order.append(key)
                representative[key] = row
            states = groups[key]
            for i, node in enumerate(agg_nodes):
                states[i] = self._accumulate(node, states[i], ctx,
                                             distinct_seen.setdefault((key, i), set())
                                             if node.distinct else None)

        if not groups and not select.group_by:
            # Aggregate over empty input: one row of aggregate defaults.
            key = ()
            groups[key] = [get_aggregate(n.name).init() for n in agg_nodes]
            group_order.append(key)
            representative[key] = Row()

        pairs = []
        for key in group_order:
            states = groups[key]
            finals = []
            for node, state in zip(agg_nodes, states):
                agg = get_aggregate(node.name)
                if node.agg_phase == "partial":
                    finals.append(agg.partial(state))
                else:
                    finals.append(agg.finalize(state))
            row = representative[key]
            out_row = Row()
            out_row.qualified.update(row.qualified)
            out_row.unqualified.update(row.unqualified)
            out_row._ambiguous |= row._ambiguous
            ctx = self._ctx(out_row, params, outer)
            ctx_agg = _AggContext(ctx, finals)
            if having is not None and _eval_agg(having, ctx_agg) is not True:
                continue
            values = [_eval_agg(t.expr, ctx_agg) for t in rewritten_targets]
            # Bind output aliases so ORDER BY can reference them.
            for t, v in zip(rewritten_targets, values):
                if t.alias:
                    out_row.bind(None, t.alias, v)
            for text, rewritten in order_aggs:
                out_row.bind(None, f"__agg_order__{text}", _eval_agg(rewritten, ctx_agg))
            pairs.append((values, out_row))
        return pairs

    def _accumulate(self, node: A.FuncCall, state, ctx, distinct_seen: set | None = None):
        agg = get_aggregate(node.name)
        if node.filter is not None and evaluate(node.filter, ctx) is not True:
            return state
        args = node.args
        if len(args) == 1 and isinstance(args[0], A.Star):
            from .functions import _STAR

            return agg.accumulate(state, _STAR)
        values = [evaluate(a, ctx) for a in args]
        if distinct_seen is not None:
            key = tuple(_group_key(v) for v in values)
            if key in distinct_seen:
                return state
            distinct_seen.add(key)
        return agg.accumulate(state, *values)

    # ------------------------------------------------------------ sorting

    def _sort_pairs(self, pairs, order_by, select, columns, params, outer):
        def key_fn(pair):
            values, row = pair
            keys = []
            for sk in order_by:
                value = self._eval_sort_expr(sk.expr, values, row, select, params, outer)
                # PostgreSQL default: NULLS LAST for ASC, NULLS FIRST for DESC.
                nulls_first = sk.nulls_first
                if nulls_first is None:
                    nulls_first = not sk.ascending
                null_rank = (0 if nulls_first else 1) if value is None else (
                    1 if nulls_first else 0
                )
                value_key = sort_key(value)
                if not sk.ascending:
                    value_key = _Reversed(value_key)
                keys.append((null_rank, value_key))
            return keys

        return sorted(pairs, key=key_fn)

    def _eval_sort_expr(self, expr, values, row, select, params, outer):
        if isinstance(expr, A.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if 0 <= index < len(values):
                return values[index]
        # Aggregate sort keys were pre-computed per group by _aggregate.
        agg_key = f"__agg_order__{deparse(expr)}"
        if row.has(None, agg_key):
            return row.lookup(None, agg_key)
        if isinstance(expr, A.ColumnRef) and expr.table is None:
            for i, entry in enumerate(select.targets):
                if isinstance(entry, A.TargetEntry) and entry.alias == expr.name:
                    return values[i]
        try:
            return evaluate(expr, self._ctx(row, params, outer))
        except CatalogError:
            # Reference to an output column by name.
            for i, entry in enumerate(select.targets):
                if (
                    isinstance(entry, A.TargetEntry)
                    and isinstance(entry.expr, A.ColumnRef)
                    and isinstance(expr, A.ColumnRef)
                    and entry.expr.name == expr.name
                ):
                    return values[i]
            raise

    def _lock_rows_for_update(self, pairs):
        xid = self.session.ensure_xid()
        for _, row in pairs:
            for table_name, row_id, _tid in row.provenance.values():
                self.session.acquire_row_lock(table_name, row_id)

    # ----------------------------------------------------- FROM resolution

    def _resolve_from(self, from_items, params, outer, cte_env, where=None) -> RelOutput:
        if not from_items:
            row = Row()
            return RelOutput(columns=[], rows=[row], keys=set())
        # Only push WHERE into the scan for the single-base-table case;
        # multi-relation queries re-filter above anyway.
        scan_where = where if len(from_items) == 1 else None
        rel = self._resolve_item(from_items[0], params, outer, cte_env, scan_where)
        if len(from_items) == 1:
            return rel
        # Comma-separated FROM items: plan as inner joins using any
        # applicable equi-join conjuncts from WHERE (hash joins instead of
        # raw cross products — TPC-H style "FROM a, b, c WHERE ..." relies
        # on this).
        remaining = [self._resolve_item(item, params, outer, cte_env)
                     for item in from_items[1:]]
        conjuncts = _split_and(where) if where is not None else []
        while remaining:
            chosen = None
            for i, right in enumerate(remaining):
                condition = _equi_condition_between(conjuncts, rel.keys, right.keys)
                if condition is not None:
                    chosen = (i, condition)
                    break
            if chosen is None:
                right = remaining.pop(0)
                rel = _cross_join(rel, right)
                continue
            i, condition = chosen
            right = remaining.pop(i)
            equi = _extract_equi_keys(condition, rel.keys, right.keys)
            if equi:
                rel = self._hash_join("inner", rel, right, equi, condition, params, outer)
            else:
                rel = self._nested_loop("inner", rel, right, condition, params, outer)
        return rel

    def _resolve_item(self, item, params, outer, cte_env, where=None) -> RelOutput:
        if isinstance(item, A.TableRef):
            return self._scan_relation(item, params, outer, cte_env, where)
        if isinstance(item, A.SubqueryRef):
            sub = self.execute_select(item.query, params, outer=outer, cte_env=cte_env)
            return _rows_to_rel(item.alias, sub.columns, sub.rows)
        if isinstance(item, A.FunctionRef):
            return self._scan_function(item, params, outer)
        if isinstance(item, A.JoinExpr):
            return self._execute_join(item, params, outer, cte_env)
        raise SyntaxErrorSQL(f"unsupported FROM item {type(item).__name__}")

    def _scan_function(self, item: A.FunctionRef, params, outer) -> RelOutput:
        fn = SET_RETURNING_FUNCTIONS.get(item.func.name.lower())
        if fn is None:
            raise CatalogError(f"set-returning function {item.func.name}() does not exist")
        ctx = self._ctx(Row(), params, outer)
        args = [evaluate(a, ctx) for a in item.func.args]
        values = fn(*args)
        col_name = item.column_names[0] if item.column_names else item.alias
        rows = []
        for v in values:
            row = Row()
            row.bind(item.alias, col_name, v)
            rows.append(row)
        return RelOutput(
            columns=[(item.alias, col_name)],
            rows=rows,
            keys={col_name, f"{item.alias}.{col_name}"},
        )

    def _scan_relation(self, ref: A.TableRef, params, outer, cte_env, where=None) -> RelOutput:
        alias = ref.ref_name
        if ref.name in cte_env:
            names, rows = cte_env[ref.name]
            return _rows_to_rel(alias, names, rows)
        if ref.name in self.session.temp_results:
            names, rows = self.session.temp_results[ref.name]
            return _rows_to_rel(alias, names, rows)
        table = self.catalog.get_table(ref.name)
        self.session.acquire_table_lock(table.name, "AccessShare")
        scan = self._scan_shape(ref, table, where)
        return RelOutput(scan.binding.columns,
                         self._scan_table(table, scan, params, outer),
                         scan.binding.keys)

    def _scan_shape(self, ref: A.TableRef, table: Table, where) -> ScanShape:
        """The prepared scan of a FROM-clause table reference. ``where`` is
        a function of the reference's position in its statement (the
        statement's WHERE for a lone FROM item, else None), so the
        reference alone keys the shape."""
        return self._prepared(ref, lambda: ScanShape(
            table, self.catalog.binding(table, ref.ref_name), where))

    def _index_tuples(self, table: Table, scan: ScanShape, params, outer, snapshot):
        """Visible tuples from the best index for this execution, or None
        when the scan has to be sequential. Charges the index-scan stats."""
        if not scan.btrees and scan.gin is None:
            return None
        path = scan.probe(table, self._ctx(Row(), params, outer))
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

    def _scan_table(self, table: Table, scan: ScanShape, params, outer) -> list:
        """The table's visible rows (index candidates when an index serves
        the scan's WHERE; the caller re-applies the predicate), bound."""
        snapshot = self.session.snapshot()
        tuples = self._index_tuples(table, scan, params, outer, snapshot)
        if tuples is None:
            tuples = list(table.heap.scan(snapshot, self.instance.xids.clog))
            self.session.stats["tuples_scanned"] += len(tuples)
            self.session.stats["pages_read"] += table.heap.page_count
        binding, table_name = scan.binding, table.name
        alias = binding.alias
        rows = []
        for tup in tuples:
            row = Row()
            row.bind_relation(binding, tup.values)
            row.provenance[alias] = (table_name, tup.row_id, tup.tid)
            rows.append(row)
        return rows

    def _scan_table_iter(self, table: Table, scan: ScanShape, params, outer,
                         snapshot):
        """Lazily yield bound rows from a table scan, charging scan stats
        incrementally so an early-terminated cursor only pays for what it
        actually read."""
        binding, table_name = scan.binding, table.name
        alias = binding.alias
        stats = self.session.stats

        def bind(tup) -> Row:
            row = Row()
            row.bind_relation(binding, tup.values)
            row.provenance[alias] = (table_name, tup.row_id, tup.tid)
            return row

        # Index scans are already bounded by selectivity; the TIDs are
        # resolved eagerly so the stats match the materializing scan.
        tuples = self._index_tuples(table, scan, params, outer, snapshot)
        if tuples is not None:
            for tup in tuples:
                yield bind(tup)
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
            yield bind(tup)

    # -------------------------------------------------------------- joins

    def _execute_join(self, join: A.JoinExpr, params, outer, cte_env) -> RelOutput:
        left = self._resolve_item(join.left, params, outer, cte_env)
        right = self._resolve_item(join.right, params, outer, cte_env)
        condition = join.condition
        if join.using:
            condition = _using_to_condition(join.using, left, right)
        if join.join_type == "cross" or condition is None:
            return _cross_join(left, right)
        equi = _extract_equi_keys(condition, left.keys, right.keys)
        if equi and join.join_type in ("inner", "left", "right", "full"):
            return self._hash_join(join.join_type, left, right, equi, condition, params, outer)
        return self._nested_loop(join.join_type, left, right, condition, params, outer)

    def _hash_join(self, join_type, left, right, equi, condition, params, outer) -> RelOutput:
        left_keys, right_keys = equi
        if join_type == "right":
            # Execute as a left join with sides swapped.
            swapped = self._hash_join("left", right, left, (right_keys, left_keys),
                                      condition, params, outer)
            return swapped
        table: dict[tuple, list[Row]] = {}
        right_key_fns = [get_compiled(k) for k in right_keys]
        left_key_fns = [get_compiled(k) for k in left_keys]
        qual = get_compiled(condition)
        for row in right.rows:
            ctx = self._ctx(row, params, outer)
            key = tuple(_group_key(fn(ctx)) for fn in right_key_fns)
            if any(k == ("null",) for k in key):
                continue
            table.setdefault(key, []).append(row)
        out_rows = []
        matched_right: set[int] = set()
        for lrow in left.rows:
            lctx = self._ctx(lrow, params, outer)
            key = tuple(_group_key(fn(lctx)) for fn in left_key_fns)
            matches = table.get(key, [])
            found = False
            for rrow in matches:
                merged = lrow.merge(rrow)
                if qual(self._ctx(merged, params, outer)) is True:
                    out_rows.append(merged)
                    matched_right.add(id(rrow))
                    found = True
            if not found and join_type in ("left", "full"):
                out_rows.append(_null_extend(lrow, right))
        if join_type == "full":
            for rrow in right.rows:
                if id(rrow) not in matched_right:
                    out_rows.append(_null_extend(rrow, left))
        self.session.stats["join_rows"] += len(out_rows)
        return RelOutput(left.columns + right.columns, out_rows, left.keys | right.keys)

    def _nested_loop(self, join_type, left, right, condition, params, outer) -> RelOutput:
        out_rows = []
        matched_right: set[int] = set()
        qual = get_compiled(condition)
        for lrow in left.rows:
            found = False
            for rrow in right.rows:
                merged = lrow.merge(rrow)
                if qual(self._ctx(merged, params, outer)) is True:
                    out_rows.append(merged)
                    matched_right.add(id(rrow))
                    found = True
            if not found and join_type in ("left", "full"):
                out_rows.append(_null_extend(lrow, right))
        if join_type in ("right", "full"):
            for rrow in right.rows:
                if id(rrow) not in matched_right:
                    out_rows.append(_null_extend(rrow, left))
        return RelOutput(left.columns + right.columns, out_rows, left.keys | right.keys)

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
            ctx = self._ctx(Row(), params)
            value_rows = [[evaluate(v, ctx) for v in row] for row in stmt.rows]
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
                self._apply_conflict_update(table, conflict_tup, stmt.on_conflict, full, params)
                inserted += 1
                continue
            self._check_not_null(table, full)
            self._check_foreign_keys(table, full)
            tup = self._do_insert(table, full)
            inserted += 1
            if stmt.returning:
                returned.append(self._returning_row(table, full, stmt.returning, params))
        cols = _output_names(_expand_returning(stmt.returning, table)) if stmt.returning else []
        result = QueryResult(cols, returned, command="INSERT")
        result.rowcount = inserted
        return result

    def _build_full_row(self, table: Table, columns, values) -> list:
        by_name = dict(zip(columns, values))
        full = []
        for col in table.columns:
            if col.name in by_name:
                full.append(cast_value(by_name[col.name], col.type_name))
            elif col.is_serial:
                seq = self.catalog.get_sequence(f"{table.name}_{col.name}_seq")
                full.append(seq.nextval())
            elif col.default is not None:
                ctx = self._ctx(Row(), None)
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
        row_map = dict(zip(names, full))
        for cols in self._unique_key_sets(table):
            key_values = [row_map.get(c) for c in cols]
            if any(v is None for v in key_values):
                continue
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
                existing = dict(zip(names, tup.values))
                if all(
                    existing.get(c) is not None
                    and compare_values(existing[c], row_map[c]) == 0
                    for c in cols
                ):
                    if on_conflict is not None and on_conflict.columns:
                        if set(on_conflict.columns) != set(cols):
                            raise UniqueViolation(
                                f"duplicate key violates unique constraint on {cols}"
                            )
                    return tup
        return None

    def _apply_conflict_update(self, table, conflict_tup, on_conflict, new_full, params):
        names = table.column_names()
        self.session.acquire_row_lock(table.name, conflict_tup.row_id)
        row = Row()
        row.bind_row(table.name, names, conflict_tup.values)
        excluded = Row()
        excluded.bind_row("excluded", names, new_full)
        merged = row.merge(excluded)
        ctx = self._ctx(merged, params)
        updated = list(conflict_tup.values)
        for col_name, expr in on_conflict.updates:
            idx = table.column_index(col_name)
            updated[idx] = cast_value(evaluate(expr, ctx), table.columns[idx].type_name)
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
        row_map = dict(zip(names, full))
        snapshot = self.session.snapshot()
        clog = self.instance.xids.clog
        for fk in table.foreign_keys:
            values = [row_map.get(c) for c in fk.columns]
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

    def _dml_target_rows(self, table: Table, scan: ScanShape, params) -> list:
        """Rows an UPDATE / DELETE acts on, with every row lock held. All
        locks are taken before anything is mutated, so a lock wait (parked
        statement) can re-run the statement from scratch without
        double-applying its effects."""
        rows = self._scan_table(table, scan, params, None)
        predicate = scan.predicate
        if predicate is not None:
            rows = [row for row in rows
                    if predicate(self._ctx(row, params)) is True]
        alias = scan.binding.alias
        for row in rows:
            self.session.acquire_row_lock(table.name, row.provenance[alias][1])
        return rows

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
        shape = self._prepared(stmt, lambda: DmlShape(stmt, table, self.catalog))
        scan = shape.scan
        binding = scan.binding
        alias = binding.alias
        assigned = [idx for idx, _type_name, _fn in shape.assignments]
        updated = 0
        returned = []
        for row in self._dml_target_rows(table, scan, params):
            current = self._current_version(table, row.provenance[alias][1])
            if current is None:
                continue
            ctx = self._ctx(row, params)
            new_values = list(current.values)
            for idx, type_name, assign_fn in shape.assignments:
                new_values[idx] = cast_value(assign_fn(ctx), type_name)
            self._check_not_null(table, new_values)
            self._check_foreign_keys(table, new_values)
            self._check_update_unique(table, current, new_values, assigned)
            self._do_update(table, current, new_values)
            updated += 1
            if shape.returning:
                out = Row()
                out.bind_relation(binding, new_values)
                out_ctx = self._ctx(out, params)
                returned.append([fn(out_ctx) for fn in shape.returning[1]])
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
        shape = self._prepared(stmt, lambda: DmlShape(stmt, table, self.catalog))
        alias = shape.scan.binding.alias
        deleted = 0
        returned = []
        for row in self._dml_target_rows(table, shape.scan, params):
            current = self._current_version(table, row.provenance[alias][1])
            if current is None:
                continue
            self._check_referencing_keys(table, current.values)
            self._do_delete(table, current)
            deleted += 1
            if shape.returning:
                ctx = self._ctx(row, params)
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
        row_map = dict(zip(names, values))
        snapshot = self.session.snapshot()
        clog = self.instance.xids.clog
        for other in self.catalog.tables.values():
            for fk in other.foreign_keys:
                if fk.ref_table != table.name:
                    continue
                ref_cols = fk.ref_columns or table.primary_key
                if not ref_cols:
                    continue
                key = [row_map.get(c) for c in ref_cols]
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

    def _returning_row(self, table, full, returning, params):
        names = table.column_names()
        row = Row()
        row.bind_row(table.name, names, full)
        ctx = self._ctx(row, params)
        return [evaluate(t.expr, ctx) for t in _expand_returning(returning, table)]

    # ------------------------------------------------------------ EXPLAIN

    def explain(self, stmt, params) -> list[str]:
        if isinstance(stmt, A.Select):
            lines = []
            self._explain_from(stmt, params, lines)
            if stmt.group_by or self._select_shape(stmt).has_aggs:
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
                        scan = self._scan_shape(item, table, select.where)
                        path = scan.probe(table, self._ctx(Row(), params, None))
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


@dataclass
class _AggRef(A.Expr):
    index: int = 0


class _AggContext:
    __slots__ = ("ctx", "values")

    def __init__(self, ctx, values):
        self.ctx = ctx
        self.values = values


def _eval_agg(expr, agg_ctx: _AggContext):
    if isinstance(expr, _AggRef):
        return agg_ctx.values[expr.index]
    if isinstance(expr, A.BinaryOp):
        left_has = _contains_aggref(expr.left)
        right_has = _contains_aggref(expr.right)
        if left_has or right_has:
            from .expr import apply_binary

            if expr.op == "and":
                lv = _eval_agg(expr.left, agg_ctx)
                rv = _eval_agg(expr.right, agg_ctx)
                if lv is False or rv is False:
                    return False
                return None if lv is None or rv is None else True
            if expr.op == "or":
                lv = _eval_agg(expr.left, agg_ctx)
                rv = _eval_agg(expr.right, agg_ctx)
                if lv is True or rv is True:
                    return True
                return None if lv is None or rv is None else False
            return apply_binary(expr.op, _eval_agg(expr.left, agg_ctx),
                                _eval_agg(expr.right, agg_ctx))
    if isinstance(expr, A.Cast) and _contains_aggref(expr.operand):
        return cast_value(_eval_agg(expr.operand, agg_ctx), expr.type_name)
    if isinstance(expr, A.FuncCall) and _contains_aggref(expr):
        from .functions import SCALAR_FUNCTIONS

        fn = SCALAR_FUNCTIONS.get(expr.name.lower())
        if fn is None:
            raise DataError(f"function {expr.name}() does not exist")
        return fn(*[_eval_agg(a, agg_ctx) for a in expr.args])
    if isinstance(expr, A.UnaryOp) and _contains_aggref(expr.operand):
        value = _eval_agg(expr.operand, agg_ctx)
        if expr.op == "not":
            return None if value is None else not value
        return None if value is None else -value
    return evaluate(expr, agg_ctx.ctx)


def _contains_aggref(expr) -> bool:
    return any(isinstance(n, _AggRef) for n in A.walk(expr))


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
    if isinstance(expr, A.SubqueryExpr):
        return
    if skip_windows and isinstance(expr, A.FuncCall) and expr.over is not None:
        return
    if isinstance(expr, A.Node):
        yield expr
        for name, may_hold_nodes in A.node_fields(type(expr)):
            if not may_hold_nodes:
                continue
            value = getattr(expr, name)
            if isinstance(value, A.Node):
                yield from _walk_skip_subqueries(value, skip_windows)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    if isinstance(v, A.Node):
                        yield from _walk_skip_subqueries(v, skip_windows)


def _transform_keep_identity(expr, fn):
    """Like ast.transform but replaces nodes in place via visitation order
    that preserves identity of untouched nodes (so aggregate collection can
    key by node identity). Does not descend into subqueries: their
    aggregates belong to the inner query level."""
    if isinstance(expr, A.SubqueryExpr):
        return expr
    result = fn(expr)
    if result is not expr:
        return result
    if not isinstance(expr, A.Node):
        return expr
    for name, may_hold_nodes in A.node_fields(type(expr)):
        if not may_hold_nodes:
            continue
        value = getattr(expr, name)
        if isinstance(value, A.Node):
            setattr(expr, name, _transform_keep_identity(value, fn))
        elif isinstance(value, list):
            setattr(
                expr,
                name,
                [
                    _transform_keep_identity(v, fn) if isinstance(v, A.Node) else v
                    for v in value
                ],
            )
        elif isinstance(value, tuple):
            setattr(
                expr,
                name,
                tuple(
                    _transform_keep_identity(v, fn) if isinstance(v, A.Node) else v
                    for v in value
                ),
            )
    return expr


def _group_key(value):
    """Hashable representation of a value for grouping / distinct / join."""
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if isinstance(value, (dict, list)):
        return ("j", to_text(value))
    return ("v", to_text(value), type(value).__name__)


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
    keys = set(columns) | {f"{alias}.{c}" for c in columns}
    rel_columns = [(alias, c) for c in columns]
    if not isinstance(rows, list):
        # Lazy source (a streaming intermediate result): keep it lazy so a
        # single-pass consumer — the coordinator's hash aggregate over
        # ``citus_intermediate`` — never materializes the whole stream.
        def bind_lazily():
            for values in rows:
                row = Row()
                row.bind_row(alias, columns, values)
                yield row

        return RelOutput(columns=rel_columns, rows=bind_lazily(), keys=keys)
    out_rows = []
    for values in rows:
        row = Row()
        row.bind_row(alias, columns, values)
        out_rows.append(row)
    return RelOutput(columns=rel_columns, rows=out_rows, keys=keys)


def _cross_join(left: RelOutput, right: RelOutput) -> RelOutput:
    rows = [l.merge(r) for l in left.rows for r in right.rows]
    return RelOutput(left.columns + right.columns, rows, left.keys | right.keys)


def _null_extend(row: Row, other: RelOutput) -> Row:
    extended = Row()
    extended.qualified.update(row.qualified)
    extended.unqualified.update(row.unqualified)
    extended._ambiguous |= row._ambiguous
    extended.provenance.update(row.provenance)
    for alias, name in other.columns:
        extended.bind(alias, name, None)
    return extended


def _using_to_condition(using: list[str], left: RelOutput, right: RelOutput) -> A.Expr:
    conds = []
    left_aliases = {a for a, _ in left.columns}
    right_aliases = {a for a, _ in right.columns}
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


def _equi_condition_between(conjuncts, left_keys: set, right_keys: set):
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


def _extract_equi_keys(condition, left_keys: set, right_keys: set):
    """If condition is a conjunction containing equi-join predicates, return
    ([left_exprs], [right_exprs]) for the hash join, else None."""
    conjuncts = _split_and(condition)
    left_exprs, right_exprs = [], []
    for c in conjuncts:
        if isinstance(c, A.BinaryOp) and c.op == "=":
            lrefs = _column_keys(c.left)
            rrefs = _column_keys(c.right)
            if lrefs and rrefs:
                if _subset(lrefs, left_keys) and _subset(rrefs, right_keys):
                    left_exprs.append(c.left)
                    right_exprs.append(c.right)
                elif _subset(lrefs, right_keys) and _subset(rrefs, left_keys):
                    left_exprs.append(c.right)
                    right_exprs.append(c.left)
    if not left_exprs:
        return None
    return left_exprs, right_exprs


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


def _subset(refs: set, keys: set) -> bool:
    return bool(refs) and all(r in keys for r in refs)


def _apply_set_op(op: str, left_pairs, right_pairs):
    if op == "union all":
        return left_pairs + right_pairs
    left_keys = [tuple(_group_key(v) for v in values) for values, _ in left_pairs]
    right_keys = [tuple(_group_key(v) for v in values) for values, _ in right_pairs]
    if op == "union":
        seen = set()
        out = []
        for (values, row), key in zip(left_pairs + right_pairs, left_keys + right_keys):
            if key not in seen:
                seen.add(key)
                out.append((values, row))
        return out
    right_set = set(right_keys)
    if op in ("intersect", "intersect all"):
        return [p for p, k in zip(left_pairs, left_keys) if k in right_set]
    if op in ("except", "except all"):
        return [p for p, k in zip(left_pairs, left_keys) if k not in right_set]
    raise SyntaxErrorSQL(f"unsupported set operation {op!r}")


def _distinct_pairs(pairs, distinct_on, executor, params, outer):
    seen = set()
    out = []
    for values, row in pairs:
        if distinct_on:
            ctx = executor._ctx(row, params, outer)
            key = tuple(_group_key(evaluate(e, ctx)) for e in distinct_on)
        else:
            key = tuple(_group_key(v) for v in values)
        if key not in seen:
            seen.add(key)
            out.append((values, row))
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


class _Reversed:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


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
