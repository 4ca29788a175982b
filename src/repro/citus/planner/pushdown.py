"""Logical pushdown planner (§3.5).

Plans multi-shard queries whose join tree can be fully pushed down: all
distributed tables are co-located and joined on their distribution columns
(checked via the equivalence analysis), and no inner subquery aggregates
across shards. Two merge strategies exist:

- **concat** — the GROUP BY contains the distribution column (or there is
  no aggregation): every group lives on one shard, so workers run the
  complete query and the coordinator only concatenates, re-sorts and
  re-limits. This is the trivially parallel case the paper describes.
- **two-phase aggregation** — otherwise the outermost aggregates are split
  into worker-side partial aggregates and a coordinator-side merge query
  over the combined intermediate result, the VeniceDB pattern of §5
  ("calculating partial aggregates on the worker nodes and merging the
  partial aggregates on the coordinator").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...engine.executor import QueryResult
from ...engine.functions import PARTIAL_REWRITES, is_aggregate
from ...errors import UnsupportedDistributedQuery
from ...sql import ast as A
from ...sql.deparse import deparse
from ..sharding import QueryAnalysis
from ..txn.deadlock import assign_distributed_txn_ids
from .tasks import CitusPlan, ShardRoutes, fold_write_results, sql_with_values


@dataclass
class PushdownSelect:
    """The shape of a multi-shard SELECT: everything planning decides from
    the statement alone. ``bind`` prunes shards under one execution's
    parameters and makes the plan."""

    mode: str  # "concat" | "merge"
    master_query: A.Select | None  # merge mode: query over the intermediate
    intermediate_columns: list  # column names of worker result
    visible_columns: list  # output column names
    hidden_sort_keys: list  # concat mode: (position, ascending, nulls_first)
    distinct: bool = False
    offset: A.Expr | None = None
    limit: A.Expr | None = None
    n_visible: int = 0
    # Observability: the anchor table's shard count before pruning, and
    # the clause-level split between worker and coordinator evaluation.
    total_shards: int = 0
    pushed_down: list = field(default_factory=list)
    coordinator: list = field(default_factory=list)
    # The query the shards run (``routes.stmt``), as tasks per shard of
    # the anchor table.
    routes: ShardRoutes | None = None
    # How the coordinator combines the shard streams (shown by EXPLAIN).
    merge_strategy: str = "Concat (streaming)"

    def bind(self, params):
        return MultiTaskSelectPlan(self, self.routes.pruned_tasks(params),
                                   params)


def plan_pushdown_select(ext, select: A.Select, analysis: QueryAnalysis,
                         search=None):
    """Build a PushdownSelect, or None when pushdown does not apply,
    raising UnsupportedDistributedQuery for recognisably unsupported SQL.
    Misses and raises record their structured reason into ``search``."""

    def unsupported(code, message):
        if search is not None:
            search.reject("pushdown", code, message)
        raise UnsupportedDistributedQuery(message)

    dist = analysis.distributed
    if not dist:
        if search is not None:
            search.reject("pushdown", "no_distributed_tables",
                          "statement references no distributed tables")
        return None
    if analysis.locals:
        unsupported(
            "local_tables",
            "joining local tables with distributed tables is not supported",
        )
    if select.for_update:
        unsupported(
            "for_update",
            "SELECT FOR UPDATE on multiple shards is not supported",
        )
    if select.set_ops:
        unsupported(
            "set_ops",
            "set operations on distributed tables require a single shard (router)",
        )
    if select.ctes:
        unsupported(
            "ctes",
            "CTEs over multiple shards are not supported in this reproduction",
        )
    colocation_ids = {o.dist.colocation_id for o in dist}
    if len(colocation_ids) != 1 or not analysis.all_dist_columns_equal():
        if search is not None:
            search.reject("pushdown", "non_colocated_join",
                          "tables are not co-located or not joined on their"
                          " distribution columns")
        return None  # hand over to the join-order planner
    if analysis.inner_cross_shard_agg:
        unsupported(
            "cross_shard_subquery_agg",
            "subqueries that aggregate across shards cannot be pushed down"
            " (only the outermost aggregation is distributed)",
        )

    try:
        _check_window_functions(select, analysis)
    except UnsupportedDistributedQuery as exc:
        if search is not None:
            search.reject("pushdown", "window_functions", str(exc))
        raise
    if _choose_mode(select, analysis) == "concat":
        return _plan_concat(ext, select, dist[0])
    return _plan_merge(ext, select, dist[0])


def _check_window_functions(select: A.Select, analysis: QueryAnalysis) -> None:
    """Multi-shard window functions push down only when every window is
    partitioned by the distribution column — each partition then lives on
    one shard (the same restriction Citus applies)."""
    windows = [
        n for t in select.targets if isinstance(t, A.TargetEntry)
        for n in A.walk(t.expr)
        if isinstance(n, A.FuncCall) and n.over is not None
    ]
    if not windows:
        return
    dist_roots = {
        analysis.equivalence.find(analysis.dist_column_key(occ))
        for occ in analysis.distributed
    }
    for window in windows:
        partition_ok = False
        for expr in window.over.partition_by:
            if isinstance(expr, A.ColumnRef):
                if analysis.equivalence.find(expr.key) in dist_roots:
                    partition_ok = True
                for occ in analysis.distributed:
                    if expr.table is None and expr.name == occ.dist.dist_column:
                        partition_ok = True
        if not partition_ok:
            raise UnsupportedDistributedQuery(
                "window functions on distributed tables must be partitioned"
                " by the distribution column"
            )


def _choose_mode(select: A.Select, analysis: QueryAnalysis) -> str:
    has_aggs = _query_has_aggregates(select)
    if not has_aggs and not select.group_by and not select.distinct:
        return "concat"
    if _group_by_contains_dist_column(select, analysis):
        return "concat"
    if not has_aggs and not select.group_by and select.distinct:
        return "concat"  # DISTINCT re-applied on the coordinator
    return "merge"


def _query_has_aggregates(select: A.Select) -> bool:
    nodes = list(select.targets)
    if select.having is not None:
        nodes.append(select.having)
    for entry in nodes:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else entry
        if expr is None:
            continue
        if any(isinstance(n, A.FuncCall) and is_aggregate(n.name) for n in _walk_no_subquery(expr)):
            return True
    return False


def _walk_no_subquery(expr):
    """Walk an expression without descending into subqueries (their
    aggregates belong to the subquery, not this level)."""
    if isinstance(expr, A.SubqueryExpr):
        return
    if isinstance(expr, A.Node):
        yield expr
        import dataclasses

        for f in dataclasses.fields(expr):
            value = getattr(expr, f.name)
            if isinstance(value, A.Node):
                yield from _walk_no_subquery(value)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    if isinstance(v, A.Node):
                        yield from _walk_no_subquery(v)


def _group_by_contains_dist_column(select: A.Select, analysis: QueryAnalysis) -> bool:
    if not select.group_by:
        return False
    dist = analysis.distributed
    if not dist:
        return False
    dist_roots = {
        analysis.equivalence.find(analysis.dist_column_key(occ)) for occ in dist
    }
    targets = [t for t in select.targets if isinstance(t, A.TargetEntry)]
    for g in select.group_by:
        expr = g
        if isinstance(g, A.Literal) and isinstance(g.value, int):
            index = g.value - 1
            if 0 <= index < len(targets):
                expr = targets[index].expr
        if isinstance(expr, A.ColumnRef):
            if analysis.equivalence.find(expr.key) in dist_roots:
                return True
            # Unqualified reference to a distribution column.
            for occ in dist:
                if expr.table is None and expr.name == occ.dist.dist_column:
                    return True
    return False


# ---------------------------------------------------------------- concat


def _plan_concat(ext, select, anchor):
    worker = select.copy()
    # Hidden sort keys are either ("pos", output_index) for an ORDER BY
    # key that is an output column (by position or by alias), or
    # ("appended", j) for sort expressions appended to the worker target
    # list — resolved against the actual result width at execution time,
    # because * targets expand only on the workers.
    hidden_sort = []
    visible = _visible_columns(select)
    n_appended = 0
    if worker.order_by:
        # Append hidden sort columns so the coordinator can re-sort the
        # concatenated rows, then push ORDER BY (+combined LIMIT) down.
        for ordinal, key in enumerate(worker.order_by):
            expr = key.expr
            if isinstance(expr, A.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
            else:
                position, expr = _resolve_output_alias(select.targets, expr)
            if position is not None:
                hidden_sort.append(
                    (("pos", position), key.ascending, key.nulls_first)
                )
            else:
                worker.targets.append(
                    A.TargetEntry(expr.copy(), f"worker_sort_{ordinal}")
                )
                hidden_sort.append(
                    (("appended", n_appended), key.ascending, key.nulls_first)
                )
                n_appended += 1
    limit, offset = select.limit, select.offset
    if worker.limit is not None and worker.offset is not None:
        worker.limit = A.BinaryOp("+", worker.limit, worker.offset)
    worker.offset = None
    pushed_down, coordinator = _classify_concat_clauses(select)
    if hidden_sort:
        merge_strategy = "MergeAppend (streaming)"
    elif limit is not None:
        merge_strategy = "Concat + LIMIT (early-stop)"
    else:
        merge_strategy = "Concat (streaming)"
    return PushdownSelect(
        mode="concat",
        master_query=None,
        intermediate_columns=[],
        visible_columns=visible,
        hidden_sort_keys=hidden_sort,
        distinct=select.distinct,
        offset=offset,
        limit=limit,
        n_visible=n_appended,  # reinterpreted: number of appended columns
        total_shards=len(anchor.dist.shards),
        pushed_down=pushed_down,
        coordinator=coordinator,
        routes=ShardRoutes(ext, worker, anchor.dist, anchor.alias),
        merge_strategy=merge_strategy,
    )


def _resolve_output_alias(targets, expr):
    """``(output position, sort expression)`` for one ORDER BY key. A bare
    name that is a target's output alias (which wins over an input column
    of the same name, and is not an expression a worker could evaluate as
    a target) sorts on that target's position — or, when a ``*`` before it
    leaves the position unknown until the workers expand it, on the
    aliased target's own expression. Any other key: ``(None, expr)``."""
    if not (isinstance(expr, A.ColumnRef) and expr.table is None):
        return None, expr
    after_star = False
    for index, entry in enumerate(targets):
        if isinstance(getattr(entry, "expr", entry), A.Star):
            after_star = True
        elif entry.alias == expr.name:
            return (None, entry.expr) if after_star else (index, expr)
    return None, expr


def _classify_concat_clauses(select: A.Select) -> tuple[list, list]:
    """Worker-evaluated vs. coordinator-re-applied clauses for concat mode:
    every group lives on one shard, so only the global re-sort, DISTINCT,
    and LIMIT/OFFSET need a coordinator pass over the concatenated rows."""
    pushed = ["WHERE"] if select.where is not None else []
    pushed.append("TARGET LIST")
    coordinator = []
    if select.group_by:
        pushed.append("GROUP BY")
    if select.having is not None:
        pushed.append("HAVING")
    if select.order_by:
        pushed.append("ORDER BY")
        coordinator.append("SORT (merge)")
    if select.distinct:
        coordinator.append("DISTINCT")
    if select.limit is not None:
        pushed.append("LIMIT (combined)")
        coordinator.append("LIMIT")
    if select.offset is not None:
        coordinator.append("OFFSET")
    return pushed, coordinator


def _visible_columns(select) -> list[str]:
    names = []
    for entry in select.targets:
        if isinstance(entry, A.TargetEntry):
            if entry.alias:
                names.append(entry.alias)
            elif isinstance(entry.expr, A.ColumnRef):
                names.append(entry.expr.name)
            elif isinstance(entry.expr, A.FuncCall):
                names.append(entry.expr.name.lower())
            else:
                names.append("?column?")
        else:
            names.append("*")
    return names


# ----------------------------------------------------------------- merge


def _plan_merge(ext, select, anchor):
    worker_targets: list[A.TargetEntry] = []
    worker_exprs_seen: dict[str, str] = {}  # deparse(expr) -> worker column

    def worker_column_for(expr, partial_name=None) -> str:
        key = (partial_name or "") + deparse(expr)
        name = worker_exprs_seen.get(key)
        if name is None:
            name = f"worker_column_{len(worker_targets)}"
            worker_exprs_seen[key] = name
            worker_targets.append(A.TargetEntry(expr.copy(), name))
        return name

    group_worker_cols: list[str] = []
    # DISTINCT aggregate arguments become extra worker grouping columns:
    # workers emit one row per (group keys, distinct value); the
    # coordinator re-applies the DISTINCT aggregate over them.
    distinct_group_cols: list[str] = []
    distinct_group_exprs: list = []

    def split(expr):
        """Rewrite ``expr`` into its master form, pushing aggregate inputs
        and group keys into the worker target list."""
        if isinstance(expr, A.FuncCall) and is_aggregate(expr.name):
            if expr.distinct and len(expr.args) == 1 and not expr.order_by:
                col = worker_column_for(expr.args[0])
                if col not in distinct_group_cols:
                    distinct_group_cols.append(col)
                    distinct_group_exprs.append(expr.args[0])
                return A.FuncCall(expr.name, [A.ColumnRef(col)], distinct=True)
            rewrite = PARTIAL_REWRITES.get(expr.name.lower())
            if rewrite is None or expr.distinct or expr.order_by:
                raise UnsupportedDistributedQuery(
                    f"aggregate {expr.name}({'DISTINCT ' if expr.distinct else ''}...)"
                    " cannot be distributed without grouping by the distribution column"
                )
            worker_name, merge_name = rewrite
            worker_agg = expr.copy()
            worker_agg.name = worker_name
            col = worker_column_for(worker_agg, partial_name=worker_name)
            merged = A.FuncCall(merge_name, [A.ColumnRef(col)])
            if expr.name.lower() == "count":
                # sum() over no partials (every shard pruned) is NULL; a
                # count is 0.
                merged = A.FuncCall("coalesce", [merged, A.Literal(0)])
            return merged
        if not _contains_aggregate(expr):
            col = worker_column_for(expr)
            if col not in group_worker_cols:
                group_worker_cols.append(col)
            return A.ColumnRef(col)
        # Mixed expression: recurse structurally.
        import dataclasses

        kwargs = {}
        for f in dataclasses.fields(expr):
            value = getattr(expr, f.name)
            if isinstance(value, A.Node):
                kwargs[f.name] = split(value)
            elif isinstance(value, list):
                kwargs[f.name] = [split(v) if isinstance(v, A.Node) else v for v in value]
            else:
                kwargs[f.name] = value
        return type(expr)(**kwargs)

    master_targets = []
    targets = [t for t in select.targets if isinstance(t, A.TargetEntry)]
    if len(targets) != len(select.targets):
        raise UnsupportedDistributedQuery(
            "SELECT * with cross-shard aggregation is not supported"
        )
    for entry in targets:
        master_targets.append(A.TargetEntry(split(entry.expr), entry.alias))

    # Original GROUP BY keys not already covered become hidden worker
    # columns so the coordinator can re-group identically.
    resolved_groups = []
    for g in select.group_by:
        expr = g
        if isinstance(g, A.Literal) and isinstance(g.value, int):
            index = g.value - 1
            if 0 <= index < len(targets):
                expr = targets[index].expr
        elif isinstance(g, A.ColumnRef) and g.table is None:
            for entry in targets:
                if entry.alias == g.name:
                    expr = entry.expr
                    break
        resolved_groups.append(expr)
        if not _contains_aggregate(expr):
            col = worker_column_for(expr)
            if col not in group_worker_cols:
                group_worker_cols.append(col)

    master_having = split(select.having) if select.having is not None else None
    master_order = []
    for key in select.order_by:
        if isinstance(key.expr, A.Literal) and isinstance(key.expr.value, int):
            master_order.append(A.SortKey(key.expr.copy(), key.ascending, key.nulls_first))
        elif isinstance(key.expr, A.ColumnRef) and key.expr.table is None and any(
            t.alias == key.expr.name for t in targets
        ):
            master_order.append(A.SortKey(key.expr.copy(), key.ascending, key.nulls_first))
        else:
            master_order.append(A.SortKey(split(key.expr), key.ascending, key.nulls_first))

    worker_query = A.Select(
        targets=worker_targets,
        from_items=[f.copy() for f in select.from_items],
        where=select.where.copy() if select.where is not None else None,
        group_by=[g.copy() for g in resolved_groups]
        + [e.copy() for e in distinct_group_exprs],
        distinct=False,
    )
    intermediate = "citus_intermediate"
    master_query = A.Select(
        targets=master_targets,
        from_items=[A.TableRef(intermediate)],
        group_by=[A.ColumnRef(c) for c in group_worker_cols],
        having=master_having,
        order_by=master_order,
        limit=select.limit.copy() if select.limit is not None else None,
        offset=select.offset.copy() if select.offset is not None else None,
        distinct=select.distinct,
    )
    pushed_down = ["PARTIAL AGGREGATES", "TARGET LIST"]
    if select.where is not None:
        pushed_down.insert(0, "WHERE")
    if select.group_by:
        pushed_down.append("GROUP BY (worker)")
    coordinator = ["MERGE AGGREGATES"]
    if select.group_by:
        coordinator.append("GROUP BY (merge)")
    if select.having is not None:
        coordinator.append("HAVING")
    if select.order_by:
        coordinator.append("ORDER BY")
    if select.limit is not None:
        coordinator.append("LIMIT")
    if select.offset is not None:
        coordinator.append("OFFSET")
    if select.distinct:
        coordinator.append("DISTINCT")
    return PushdownSelect(
        mode="merge",
        master_query=master_query,
        intermediate_columns=[t.alias for t in worker_targets],
        visible_columns=_visible_columns(select),
        hidden_sort_keys=[],
        n_visible=len(targets),
        total_shards=len(anchor.dist.shards),
        pushed_down=pushed_down,
        coordinator=coordinator,
        routes=ShardRoutes(ext, worker_query, anchor.dist, anchor.alias),
        merge_strategy="GroupAggregate Merge (incremental)",
    )


def _contains_aggregate(expr) -> bool:
    return any(
        isinstance(n, A.FuncCall) and is_aggregate(n.name) for n in _walk_no_subquery(expr)
    )


# ------------------------------------------------- streaming merge operators
#
# The execution side of the two merge strategies, operating over the
# adaptive executor's per-task streams (pull-based): run-draining k-way
# merge-append for ORDER BY (workers push the sort down, so each shard
# stream arrives pre-sorted), streaming concat with LIMIT early-stop, and
# an incremental GROUP BY merge that feeds worker partials into the
# coordinator's hash aggregate one batch at a time. Rows move through the
# concat operators a *run* at a time (a list: one fetched batch, or every
# buffered row the merge may emit before its next fetch). The coordinator
# buffer stays bounded by O(batch_size × stream_count); its peak is
# recorded via ``execution.note_buffered`` (the ``rows_buffered_peak``
# gauge).


class _Reversed:
    """Inverts a sort key's order, so that a descending key column can sit
    in a composite key that is compared ascending (the MergeAppend bisects
    and sorts whole-row keys; it cannot pass ``reverse=True`` per column)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


def merge_key_columns(plan: PushdownSelect, visible_width: int, width: int) -> list:
    """The coordinator MergeAppend's key columns, one ``(row position,
    descending, key function)`` per hidden sort key: positions resolved
    against the worker result (``width`` columns, the first
    ``visible_width`` of them visible), the key function a
    :func:`datum.ordering` key made to compare ascending. A position past
    the row is NULL in every row, so it orders nothing and is left out."""
    from ...engine.datum import ordering

    columns = []
    for (kind, index), ascending, nulls_first in plan.hidden_sort_keys:
        position = index if kind == "pos" else visible_width + index
        if position >= width:
            continue
        descending, key = ordering(ascending, nulls_first)
        columns.append((position, descending,
                        (lambda value, key=key: _Reversed(key(value)))
                        if descending else key))
    return columns


def concat_visible_columns(plan: PushdownSelect, streams, session, params) -> list:
    """The visible output column names of a concat-mode plan: the first
    shard stream's shape (``*`` targets expand only on the workers) with
    trailing hidden sort columns trimmed. With every shard pruned, the
    coordinator's own (empty) shell tables give the same shape."""
    if streams:
        first_columns = list(streams[0].columns)
    else:
        from ...engine.executor import LocalExecutor

        shape = plan.routes.stmt.copy()
        shape.limit = A.Literal(0)
        first_columns = LocalExecutor(session).execute_select(shape, params).columns
    n_appended = plan.n_visible
    visible_width = len(first_columns) - n_appended
    return first_columns[:visible_width] if n_appended else first_columns


def stream_concat_runs(plan: PushdownSelect, execution, session, params):
    """Streaming coordinator merge for concat-mode plans, as a generator
    of non-empty runs (lists) of visible rows (shared by the SELECT data
    plane and the INSERT..SELECT write pipeline).

    With ORDER BY: k-way MergeAppend over the pre-sorted shard streams.
    Without: plain concat in task order. Either way hidden columns,
    DISTINCT, OFFSET and LIMIT apply a run at a time; a satisfied LIMIT
    stops before the next fetch and closes the remaining streams — tasks
    whose stream was never started are skipped without ever being
    dispatched.
    """
    from ...engine.executor import _group_key
    from ...engine.expr import EvalContext, Row, evaluate

    streams = execution.streams
    ctx = EvalContext(row=Row(), params=params, session=session)
    offset = int(evaluate(plan.offset, ctx)) if plan.offset is not None else 0
    limit = None
    if plan.limit is not None:
        value = evaluate(plan.limit, ctx)
        if value is not None:
            limit = int(value)

    width = len(streams[0].columns) if streams else 0
    n_appended = plan.n_visible
    visible_width = width - n_appended

    if plan.hidden_sort_keys:
        source = _merge_append_runs(
            merge_key_columns(plan, visible_width, width), streams, execution)
    else:
        source = _concat_runs(streams, execution)

    try:
        seen = set() if plan.distinct else None
        skipped = 0
        emitted = 0
        satisfied = limit is not None and limit <= 0
        if not satisfied:
            for run in source:
                if n_appended:
                    run = [row[:visible_width] for row in run]
                if seen is not None:
                    fresh = []
                    for row in run:
                        key = tuple([_group_key(v) for v in row])
                        if key not in seen:
                            seen.add(key)
                            fresh.append(row)
                    run = fresh
                if skipped < offset:
                    drop = min(offset - skipped, len(run))
                    skipped += drop
                    run = run[drop:]
                if limit is not None and emitted + len(run) >= limit:
                    run = run[:limit - emitted]
                    satisfied = True
                emitted += len(run)
                if run:
                    yield run
                if satisfied:
                    break
        if satisfied and any(not s.done for s in streams):
            execution.note_early_termination()
    finally:
        for stream in streams:
            stream.close()


def run_streaming_concat(plan: PushdownSelect, execution, session, params):
    """Materializing wrapper over :func:`stream_concat_runs` — the SELECT
    statement path, which must return a full :class:`QueryResult`."""
    streams = execution.streams
    columns = concat_visible_columns(plan, streams, session, params)
    out_rows = []
    for run in stream_concat_runs(plan, execution, session, params):
        out_rows.extend(run)
    return QueryResult(columns, out_rows)


def _concat_runs(streams, execution):
    """Drain shard streams sequentially in task order, one batch — one
    run — at a time (the coordinator holds at most one batch)."""
    for stream in streams:
        while True:
            batch = stream.fetch()
            if batch is None:
                break
            execution.note_buffered(len(batch))
            yield batch


def _merge_append_runs(key_columns, streams, execution):
    """K-way merge over pre-sorted shard streams, a run at a time.
    Buffering is bounded to one in-flight batch per stream; ties break by
    task order then arrival order, as a stable sort of the concatenated
    shard results would.

    Each fetched batch is decorated with its rows' sort keys once. The
    *horizon* is the smallest ``(last buffered key, stream index)``: every
    buffered row at or below it precedes anything a later fetch can bring,
    so those prefixes — found by bisection, concatenated in task order and
    stable-sorted (already-sorted runs, which timsort merges) — are the
    next rows of the merge, and the horizon stream, now drained, is the one
    to fetch from. That is the stream a row-at-a-time heap merge fetches
    from at the same output position, so fetch order, buffered-row counts
    and LIMIT early termination are those of the heap merge.

    A key column whose values so far are all ints, or all strs sorted
    ascending, is keyed by the values themselves (negated for descending
    ints); the first batch that does not fit turns the column to
    :func:`datum.ordering` keys and re-keys what is buffered.
    """
    from bisect import bisect_left, bisect_right

    from ...engine.datum import plain_sort_type

    #: Per key column: None until a batch is seen, then int / str while the
    #: values are their own keys, False once generic.
    kinds = [None] * len(key_columns)

    def keys_of(batch) -> list:
        """A sort key per row; a plain column the batch does not fit turns
        generic first."""
        per_column = []
        for c, (position, descending, generic) in enumerate(key_columns):
            column = [row[position] for row in batch]
            kind = kinds[c]
            if kind is not False:
                found = plain_sort_type(column)
                if found is str and descending:
                    found = None
                if kind is None:
                    kind = kinds[c] = found or False
                elif found is not kind:
                    kind = kinds[c] = False
            if kind is False:
                column = [generic(value) for value in column]
            elif descending:
                column = [-value for value in column]
            per_column.append(column)
        if len(per_column) == 1:
            return per_column[0]
        # No key column at all: every row ties, task order decides.
        return list(zip(*per_column)) or [()] * len(batch)

    rows = [None] * len(streams)  # per live stream: the batch in flight,
    keys = [None] * len(streams)  # its rows' keys,
    start = [0] * len(streams)  # and how many of its rows are already out
    live = []  # streams with buffered rows, in task order
    held = 0

    def load(index) -> bool:
        """Buffer the stream's next batch; False once it is drained."""
        nonlocal held
        batch = streams[index].fetch()
        if not batch:
            return False
        rows[index], start[index] = batch, 0
        generic_before = kinds.count(False)
        keys[index] = keys_of(batch)
        if kinds.count(False) > generic_before:
            for other in live:
                if other != index:
                    keys[other] = keys_of(rows[other])
        held += len(batch)
        execution.note_buffered(held)
        return True

    def last_key(index):
        return keys[index][-1]

    for index in range(len(streams)):
        if load(index):
            live.append(index)
    while live:
        # min() keeps the first of equal keys: the lowest stream index.
        horizon_stream = min(live, key=last_key)
        horizon = last_key(horizon_stream)
        run_rows, run_keys = [], []
        for index in live:
            cut = (bisect_right if index <= horizon_stream else bisect_left)(
                keys[index], horizon, start[index])
            run_rows += rows[index][start[index]:cut]
            run_keys += keys[index][start[index]:cut]
            start[index] = cut
        held -= len(run_rows)
        order = sorted(range(len(run_rows)), key=run_keys.__getitem__)
        yield [run_rows[i] for i in order]
        if not load(horizon_stream):
            live.remove(horizon_stream)


def run_streaming_group_merge(plan: PushdownSelect, execution, session, params):
    """Incremental two-phase aggregation merge: worker partial-aggregate
    rows stream into the coordinator's hash aggregate one batch at a time
    instead of being concatenated wholesale first."""
    from ...engine.executor import LocalExecutor

    def intermediate_rows():
        for stream in execution.streams:
            while True:
                batch = stream.fetch()
                if batch is None:
                    break
                execution.note_buffered(len(batch))
                for row in batch:
                    yield row

    session.temp_results["citus_intermediate"] = (
        plan.intermediate_columns, intermediate_rows(),
    )
    try:
        result = LocalExecutor(session).execute_select(plan.master_query, params)
    finally:
        session.temp_results.pop("citus_intermediate", None)
    result.columns = plan.visible_columns
    return result


# ------------------------------------------------------------ DML pushdown


def plan_pushdown_dml(ext, stmt, analysis, search=None):
    """The shape of a multi-shard UPDATE/DELETE (one task per shard its
    WHERE clause does not rule out), or None."""
    dist_occurrences = analysis.distributed
    if len(dist_occurrences) != 1 or analysis.locals:
        if search is not None:
            search.reject("pushdown", "shape",
                          "multi-shard DML supports exactly one distributed"
                          " table and no local tables")
        return None
    if any(isinstance(n, A.SubqueryExpr) for n in A.walk(stmt)):
        message = "subqueries in multi-shard UPDATE/DELETE are not supported"
        if search is not None:
            search.reject("pushdown", "subquery", message)
        raise UnsupportedDistributedQuery(message)
    occ = dist_occurrences[0]
    return PushdownDML(ShardRoutes(ext, stmt, occ.dist, occ.alias))


class PushdownDML:
    """The shape of a multi-shard UPDATE/DELETE: its routes."""

    def __init__(self, routes):
        self.routes = routes

    def bind(self, params):
        return MultiTaskDMLPlan(self, self.routes.pruned_tasks(params))


def try_pushdown(ext, session, stmt, params, analysis, search=None):
    """The cascade's third tier: plan the statement's multi-shard shape
    and bind it."""
    if isinstance(stmt, A.Select):
        shape = plan_pushdown_select(ext, stmt, analysis, search=search)
    elif isinstance(stmt, (A.Update, A.Delete)):
        shape = plan_pushdown_dml(ext, stmt, analysis, search=search)
    else:
        if search is not None:
            search.reject("pushdown", "statement_kind",
                          f"{type(stmt).__name__} has no multi-shard pushdown plan")
        return None
    return shape.bind(params) if shape is not None else None


# ---------------------------------------------------------------- plans


class MultiTaskDMLPlan(CitusPlan):
    """Parallel, distributed UPDATE/DELETE."""

    tier = "pushdown"

    def __init__(self, shape, tasks):
        super().__init__(shape.routes.ext)
        self.shape = shape
        self.tasks = tasks

    def execute(self, session, params):
        results = self.ext.executor.execute_tasks(session, self.tasks, is_write=True)
        assign_distributed_txn_ids(self.ext, session)
        return fold_write_results(results, "UPDATE")

    def explain_info(self):
        return {
            "tier": self.tier,
            "detail": "Pushdown (DML)",
            "tasks": self.tasks,
            "is_write": True,
            "pushed_down": ["FULL STATEMENT"],
        }


class MultiTaskSelectPlan(CitusPlan):
    """Logical pushdown SELECT: concat or two-phase-aggregation merge. The
    coordinator-side merge evaluates LIMIT / OFFSET and the merge query
    under the parameters the shape was bound with."""

    tier = "pushdown"

    def __init__(self, shape, tasks, params):
        super().__init__(shape.routes.ext)
        self.shape = shape
        self.tasks = tasks
        self.params = params

    def execute(self, session, params):
        shape = self.shape
        execution = self.ext.executor.open_task_streams(session, self.tasks)
        merge_start = self.ext.cluster.clock.now()
        result = None
        try:
            if shape.mode == "concat":
                result = run_streaming_concat(shape, execution, session,
                                              self.params)
            else:
                result = run_streaming_group_merge(shape, execution, session,
                                                   self.params)
            return result
        finally:
            self._finish(execution, merge_start,
                         len(result.rows) if result is not None else 0)

    def _finish(self, execution, merge_start: float, rows: int) -> None:
        """Settle the execution and record the merge span. The merge
        interleaves with the fetches it drives, so its span covers the
        statement's whole executor window (the clock advances inside
        ``execution.finish()``)."""
        report = execution.finish()
        telemetry = self.ext.telemetry
        if telemetry.traced is not None:
            telemetry.event(
                "merge", "merge", merge_start,
                strategy=self.shape.merge_strategy,
                rows=rows,
                rows_buffered_peak=report.rows_buffered_peak,
                early_terminated=bool(report.early_terminations),
                tasks_skipped=report.tasks_skipped,
            )

    # ------------------------------------------------- streaming consumers

    def execute_batches(self, session, params):
        """Open this SELECT as a generator of visible row batches for a
        streaming consumer (the INSERT..SELECT write pipeline)."""
        execution = self.ext.executor.open_task_streams(session, self.tasks)
        return self._batch_generator(execution, session, self.params)

    def _batch_generator(self, execution, session, params):
        shape = self.shape
        batch_size = max(1, self.ext.config.stream_batch_size)
        merge_start = self.ext.cluster.clock.now()
        rows_out = 0
        try:
            if shape.mode == "concat":
                runs = stream_concat_runs(shape, execution, session, params)
            else:
                # Group-merge: the worker partials stream into the hash
                # aggregate batch by batch; the (much smaller) aggregated
                # output is then re-chunked for the consumer.
                runs = [run_streaming_group_merge(
                    shape, execution, session, params).rows]
            # Re-chunk the runs: a batch leaves as soon as it is full,
            # before the merge is asked for (and fetches for) its next run.
            batch = []
            for run in runs:
                batch.extend(run)
                while len(batch) >= batch_size:
                    rows_out += batch_size
                    yield batch[:batch_size]
                    del batch[:batch_size]
            if batch:
                rows_out += len(batch)
                yield batch
        finally:
            self._finish(execution, merge_start, rows_out)

    def explain_info(self):
        shape = self.shape
        merge_query = None
        if shape.mode == "merge" and shape.master_query is not None:
            merge_query = sql_with_values(shape.master_query, self.params)
        return {
            "tier": self.tier,
            "detail": "Pushdown" if shape.mode == "concat"
            else "Pushdown (partial aggregation)",
            "tasks": self.tasks,
            "total_shard_count": shape.total_shards or None,
            "pushed_down": shape.pushed_down,
            "coordinator": shape.coordinator,
            "merge_query": merge_query,
            "merge_strategy": shape.merge_strategy,
        }
