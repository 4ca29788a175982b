"""Logical pushdown planner (§3.5).

Plans multi-shard SELECT, UPDATE and DELETE statements whose join tree
can be fully pushed down: all distributed tables are co-located and joined
on their distribution columns (checked via the equivalence analysis, one
test for all three: an UPDATE or DELETE is a level whose FROM is the table
it writes, so a co-located subquery it reads runs on each shard too).
What cannot run per shard (:func:`run_once`) runs once first, as the
levels of one :class:`~.subplan.SubplanPlan`, and the rest comes back
through the cascade. Still refused: a correlated level that must run
once, and multi-shard FOR UPDATE. Everything here is decided from the
query tree: a level's output columns, a ``*`` among them, are named from
the tables' columns (:func:`~repro.engine.executor.level_targets`), never
by running it. Two merge strategies exist:

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

from dataclasses import dataclass, field, replace

from ...engine.executor import (
    QueryResult, has_aggregates, is_aggregate_call, level_targets,
    output_names, resolve_group_ref, transform_level,
)
from ...engine.functions import PARTIAL_REWRITES
from ...errors import UnsupportedDistributedQuery
from ...sql import ast as A
from ...sql.deparse import deparse
from ..copy_dist import select_star
from ..sharding import QueryAnalysis
from ..executor.adaptive import STREAM_BATCH_SIZE
from ..txn.deadlock import assign_distributed_txn_ids
from .subplan import SubplanPlan
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
    hidden_sort_keys: list  # concat: (worker row position, asc, nulls_first)
    distinct: bool = False
    offset: A.Expr | None = None
    limit: A.Expr | None = None
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

    if select.for_update:
        unsupported(
            "for_update",
            "SELECT FOR UPDATE on multiple shards is not supported",
        )
    if not _shards_align(analysis, search):
        return None  # hand over to the join-order planner
    if not _windows_stay_on_shards(analysis):
        unsupported(
            "window_functions",
            "window functions on distributed tables must be partitioned"
            " by the distribution column",
        )
    anchor = analysis.distributed[0]
    if pushes_down_without_merge(analysis, select):
        return _plan_concat(ext, select, anchor, analysis)
    return _plan_merge(ext, select, anchor, analysis)


def _shards_align(analysis: QueryAnalysis, search) -> bool:
    """A multi-shard SELECT, UPDATE and DELETE's test to run per shard
    (``shards_align``); a miss is recorded into ``search``."""
    if analysis.shards_align():
        return True
    if search is not None:
        search.reject("pushdown", "non_colocated_join",
                      "tables are not co-located or not joined on their"
                      " distribution columns")
    return False


def pushes_down_without_merge(analysis: QueryAnalysis, select: A.Select) -> bool:
    """Whether every shard can run ``select`` whole, the coordinator only
    concatenating: its tables are co-located and joined on their
    distribution columns, every window stays on one shard, no level
    aggregates across shards and nothing must run once (:func:`run_once`)."""
    return (analysis.shards_align()
            and _windows_stay_on_shards(analysis)
            and not analysis.aggregates_across_shards(select)
            and not run_once(analysis))


def _windows_stay_on_shards(analysis: QueryAnalysis) -> bool:
    """Multi-shard window functions push down only when every window, at
    every query level that runs on the shards, stays on one shard."""
    return all(map(analysis.windows_on_one_shard, analysis.levels))


# ---------------------------------------------------------------- concat


def _plan_concat(ext, select, anchor, analysis):
    worker = select.copy()
    # The output columns, named at plan time: a ``*`` counts as its columns.
    targets = level_targets(select, analysis.column_names)
    visible = output_names(targets)
    # The coordinator re-sorts the concatenated rows on the output column
    # an ORDER BY key names by position or by output alias (which wins over
    # an input column of the same name, and is no expression a worker could
    # evaluate), or on a hidden column appended to the worker's targets;
    # ORDER BY (+combined LIMIT) is pushed down. A position past the output
    # is a constant to the workers (the engine's rule): it orders nothing.
    hidden_sort = []
    for ordinal, key in enumerate(worker.order_by):
        expr, position = key.expr, None
        if isinstance(expr, A.Literal) and isinstance(expr.value, int):
            if not 0 < expr.value <= len(visible):
                continue
            position = expr.value - 1
        elif isinstance(expr, A.ColumnRef) and expr.table is None:
            position = next((index for index, entry in enumerate(targets)
                             if entry.alias == expr.name), None)
        if position is None:
            position = len(visible) + len(worker.targets) - len(select.targets)
            worker.targets.append(
                A.TargetEntry(expr.copy(), f"worker_sort_{ordinal}"))
        hidden_sort.append((position, key.ascending, key.nulls_first))
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
        total_shards=len(anchor.dist.shards),
        pushed_down=pushed_down,
        coordinator=coordinator,
        routes=ShardRoutes(ext, worker, anchor.dist, anchor.alias),
        merge_strategy=merge_strategy,
    )


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


# ----------------------------------------------------------------- merge


def _plan_merge(ext, select, anchor, analysis):
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

    def split_node(node):
        """The master form of one node: an aggregate call of this level
        merges its worker partials, a node holding none is a worker column
        (a group key), and any other is descended into."""
        if is_aggregate_call(node):
            if node.distinct and len(node.args) == 1 and not node.order_by:
                col = worker_column_for(node.args[0])
                if col not in distinct_group_cols:
                    distinct_group_cols.append(col)
                    distinct_group_exprs.append(node.args[0])
                return A.FuncCall(node.name, [A.ColumnRef(col)], distinct=True)
            rewrite = PARTIAL_REWRITES.get(node.name.lower())
            if rewrite is None or node.distinct or node.order_by:
                raise UnsupportedDistributedQuery(
                    f"aggregate {node.name}({'DISTINCT ' if node.distinct else ''}...)"
                    " cannot be distributed without grouping by the distribution column"
                )
            worker_name, merge_name = rewrite
            worker_agg = node.copy()
            worker_agg.name = worker_name
            col = worker_column_for(worker_agg, partial_name=worker_name)
            merged = A.FuncCall(merge_name, [A.ColumnRef(col)])
            if node.name.lower() == "count":
                # sum() over no partials (every shard pruned) is NULL; a
                # count is 0.
                merged = A.FuncCall("coalesce", [merged, A.Literal(0)])
            return merged
        if has_aggregates(node):
            return node
        col = worker_column_for(node)
        if col not in group_worker_cols:
            group_worker_cols.append(col)
        return A.ColumnRef(col)

    def split(expr):
        """Rewrite ``expr`` into its master form, pushing aggregate inputs
        and group keys into the worker target list."""
        return transform_level(expr.copy(), split_node)

    targets = level_targets(select, analysis.column_names)
    master_targets = [A.TargetEntry(split(t.expr), t.alias) for t in targets]

    # Original GROUP BY keys not already covered become hidden worker
    # columns so the coordinator can re-group identically.
    resolved_groups = [resolve_group_ref(g, targets) for g in select.group_by]
    for expr in resolved_groups:
        if not has_aggregates(expr):
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
        visible_columns=output_names(targets),
        hidden_sort_keys=[],
        total_shards=len(anchor.dist.shards),
        pushed_down=pushed_down,
        coordinator=coordinator,
        routes=ShardRoutes(ext, worker_query, anchor.dist, anchor.alias),
        merge_strategy="GroupAggregate Merge (incremental)",
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


def merge_key_columns(plan: PushdownSelect) -> list:
    """The coordinator MergeAppend's key columns, one ``(row position,
    descending, key function)`` per hidden sort key, the key function a
    :func:`datum.ordering` key made to compare ascending."""
    from ...engine.datum import Descending, ordering

    columns = []
    for position, ascending, nulls_first in plan.hidden_sort_keys:
        descending, key = ordering(ascending, nulls_first)
        columns.append((position, descending,
                        (lambda value, key=key: Descending(key(value)))
                        if descending else key))
    return columns


def stream_concat_runs(plan: PushdownSelect, execution, session, params):
    """Streaming coordinator merge for concat-mode plans, as a generator
    of non-empty runs of visible rows, each a column
    :class:`~repro.engine.executor.Batch` (shared by the SELECT data plane
    and the INSERT..SELECT write pipeline, which make rows of them).

    With ORDER BY: k-way MergeAppend over the pre-sorted shard streams.
    Without: plain concat in task order. Either way hidden columns are
    left behind, and DISTINCT, OFFSET and LIMIT apply a run at a time; a
    satisfied LIMIT stops before the next fetch and closes the remaining
    streams — tasks whose stream was never started are skipped without
    ever being dispatched.
    """
    from ...engine.executor import Batch, _group_key, limit_offset
    from ...engine.expr import EvalContext, Row

    streams = execution.streams
    offset, limit = limit_offset(
        plan, EvalContext(row=Row(), params=params, session=session))

    visible_width = len(plan.visible_columns)

    if plan.hidden_sort_keys:
        source = _merge_append_runs(
            merge_key_columns(plan), visible_width, streams, execution)
    else:
        source = _concat_runs(streams, execution, visible_width)

    try:
        seen = set() if plan.distinct else None
        skipped = 0
        emitted = 0
        satisfied = limit is not None and limit <= 0
        if not satisfied:
            for run in source:
                columns, count = run.columns, run.count
                if seen is not None:
                    fresh = []
                    for i, row in enumerate(zip(*columns) if columns
                                            else [()] * count):
                        key = tuple([_group_key(v) for v in row])
                        if key not in seen:
                            seen.add(key)
                            fresh.append(i)
                    if len(fresh) < count:
                        count = len(fresh)
                        columns = [list(map(column.__getitem__, fresh))
                                   for column in columns]
                if skipped < offset:
                    drop = min(offset - skipped, count)
                    skipped += drop
                    count -= drop
                    columns = [column[drop:] for column in columns]
                if limit is not None and emitted + count >= limit:
                    count = limit - emitted
                    columns = [column[:count] for column in columns]
                    satisfied = True
                emitted += count
                if count:
                    yield Batch(columns, count)
                if satisfied:
                    break
        if satisfied and any(not s.done for s in streams):
            execution.note_early_termination()
    finally:
        for stream in streams:
            stream.close()


def run_streaming_concat(plan: PushdownSelect, execution, session, params):
    """Materializing wrapper over :func:`stream_concat_runs` — the SELECT
    statement path, which must return a full :class:`QueryResult`: the
    client's rows, made here once."""
    return QueryResult(list(plan.visible_columns), [
        row for run in stream_concat_runs(plan, execution, session, params)
        for row in run.rows()])


def _concat_runs(streams, execution, visible_width: int):
    """Drain shard streams sequentially in task order, one batch — one
    run — at a time (the coordinator holds at most one batch)."""
    from ...engine.executor import Batch

    for stream in streams:
        while True:
            batch = stream.fetch()
            if batch is None:
                break
            execution.note_buffered(len(batch))
            if len(batch.columns) > visible_width:
                batch = Batch(batch.columns[:visible_width], batch.count)
            yield batch


def _merge_append_runs(key_columns, visible_width: int, streams, execution):
    """K-way merge over pre-sorted shard streams, a run at a time: runs of
    the first ``visible_width`` columns. Buffering is bounded to one
    in-flight batch per stream; ties break by task order then arrival
    order, as a stable sort of the concatenated shard results would.

    Each fetched batch is keyed once, from its sort-key columns. The
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
    from ...engine.executor import Batch

    #: Per key column: None until a batch is seen, then int / str while the
    #: values are their own keys, False once generic.
    kinds = [None] * len(key_columns)

    def keys_of(batch) -> list:
        """A sort key per row; a plain column the batch does not fit turns
        generic first."""
        per_column = []
        for c, (position, descending, generic) in enumerate(key_columns):
            column = batch.columns[position]
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
        return list(zip(*per_column)) or [()] * batch.count

    batches = [None] * len(streams)  # per live stream: the batch in flight,
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
        batches[index], start[index] = batch, 0
        generic_before = kinds.count(False)
        keys[index] = keys_of(batch)
        if kinds.count(False) > generic_before:
            for other in live:
                if other != index:
                    keys[other] = keys_of(batches[other])
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
        run_columns = [[] for _ in range(visible_width)]
        run_keys = []
        for index in live:
            first = start[index]
            cut = (bisect_right if index <= horizon_stream else bisect_left)(
                keys[index], horizon, first)
            if cut > first:
                for out, column in zip(run_columns, batches[index].columns):
                    out += column[first:cut]
                run_keys += keys[index][first:cut]
            start[index] = cut
        count = len(run_keys)
        held -= count
        order = sorted(range(count), key=run_keys.__getitem__)
        yield Batch([list(map(column.__getitem__, order)) for column in run_columns],
                    count)
        if not load(horizon_stream):
            live.remove(horizon_stream)


def run_streaming_group_merge(plan: PushdownSelect, execution, session, params,
                              as_rows: bool = True):
    """Incremental two-phase aggregation merge: worker partial-aggregate
    batches stream into the coordinator's hash aggregate one at a time
    instead of being concatenated wholesale first; the aggregate reads each
    batch's rows straight off its columns. The result is a QueryResult, or
    (``as_rows`` False) the merged output as a column Batch."""
    from ...engine.executor import LocalExecutor

    def intermediate_rows():
        for stream in execution.streams:
            while True:
                batch = stream.fetch()
                if batch is None:
                    break
                execution.note_buffered(len(batch))
                yield from zip(*batch.columns)

    session.temp_results["citus_intermediate"] = (
        plan.intermediate_columns, intermediate_rows(),
    )
    try:
        if not as_rows:
            return LocalExecutor(session).execute_select_columns(
                plan.master_query, params)[1]
        result = LocalExecutor(session).execute_select(plan.master_query, params)
    finally:
        session.temp_results.pop("citus_intermediate", None)
    result.columns = plan.visible_columns
    return result


# ------------------------------------------------------------ DML pushdown


def plan_pushdown_dml(ext, stmt, analysis, search=None):
    """The shape of a multi-shard UPDATE/DELETE (one task per shard of the
    written table its WHERE clause does not rule out, each inner level
    reading the co-located shards), or None."""
    if not _shards_align(analysis, search):
        return None
    occ = analysis.occurrences[0]
    return PushdownDML(ShardRoutes(ext, stmt, occ.dist, occ.alias))


class PushdownDML:
    """The shape of a multi-shard UPDATE/DELETE: its routes."""

    def __init__(self, routes):
        self.routes = routes

    def bind(self, params):
        return MultiTaskDMLPlan(self, self.routes.pruned_tasks(params))


def try_pushdown(ext, session, stmt, params, analysis, search=None):
    """The cascade's third tier: a SELECT, UPDATE or DELETE whose parts
    that cannot run per shard run once first, as the levels of one
    :class:`~.subplan.SubplanPlan`; else the statement's multi-shard
    shape, bound."""
    if isinstance(stmt, A.Select) and stmt.set_ops:  # the router declined it
        stmt, levels = _arms(stmt)
    else:
        levels = run_once(analysis, search)
    if levels:
        return SubplanPlan(ext, session, stmt, params, levels, analysis)
    shape = (plan_pushdown_select if isinstance(stmt, A.Select)
             else plan_pushdown_dml)(ext, stmt, analysis, search=search)
    return shape.bind(params) if shape is not None else None


def _arms(select):
    """A set operation over one subplan per arm: each arm runs once, and
    the set operation, with its ORDER BY and LIMIT, over their results."""
    arms = [replace(select, set_ops=[], order_by=[], limit=None, offset=None,
                    for_update=False), *(arm for _op, arm in select.set_ops)]
    readers = [A.Select([A.TargetEntry(A.Star())], [A.SubqueryRef(arm, f"arm_{i}")])
               for i, arm in enumerate(arms, 1)]
    return replace(readers[0], set_ops=[
        (op, reader) for (op, _arm), reader in zip(select.set_ops, readers[1:])],
        order_by=select.order_by, limit=select.limit, offset=select.offset,
        for_update=select.for_update), {id(arm): arm for arm in arms}


def run_once(analysis, search=None) -> dict:
    """What of a statement runs once before the rest reads it (§3.5's
    recursive planning): each inner level that cannot run per shard, by
    ``id``, and, outside those levels, each table read whole by name as
    ``SELECT * FROM t``: the distributed side of an outer join that
    preserves a side reading no shard (every shard would return its
    unmatched rows), and every local table while the rest reads shards.
    A correlated level is refused: a subplan does not decorrelate."""
    levels = analysis.subplans()
    if any(map(analysis.correlated, levels)):
        message = ("a correlated subquery that cannot run per shard is not"
                   " supported (a subplan does not decorrelate)")
        if search is not None:
            search.reject("pushdown", "correlated_subplan", message)
        raise UnsupportedDistributedQuery(message)
    inside = {key for level in levels for key in analysis.keys_in(level)}
    outside = [occ for occ in analysis.occurrences if occ.key not in inside]
    dist = {occ.key: occ.name for occ in outside
            if occ.dist is not None and not occ.dist.is_reference}
    whole = {key: dist[key] for preserved, other in analysis.outer_joins
             if not preserved & dist.keys() for key in sorted(other & dist.keys())}
    if dist.keys() - whole.keys():
        whole.update((occ.key, occ.name) for occ in outside if occ.dist is None)
    return {**{id(level): level for level in levels},
            **{name: select_star(name) for name in whole.values()}}


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

    def rows(self, session, params):
        """This SELECT's visible rows, streamed to a consumer that routes
        them: made a run at a time, and handed on a batch at a time, each
        batch as soon as it is full, before the merge is asked for (and
        fetches for) its next run."""
        execution = self.ext.executor.open_task_streams(session, self.tasks)
        shape, params = self.shape, self.params
        merge_start = self.ext.cluster.clock.now()
        rows_out = 0
        try:
            if shape.mode != "concat":
                # Group-merge: the worker partials stream into the hash
                # aggregate batch by batch; the (much smaller) aggregated
                # output stays columns, its rows made as they are taken.
                merged = run_streaming_group_merge(shape, execution, session,
                                                   params, as_rows=False)
                rows_out = merged.count
                yield from zip(*merged.columns)
                return
            batch = []
            for run in stream_concat_runs(shape, execution, session, params):
                batch.extend(run.rows())
                while len(batch) >= STREAM_BATCH_SIZE:
                    rows_out += STREAM_BATCH_SIZE
                    yield from batch[:STREAM_BATCH_SIZE]
                    del batch[:STREAM_BATCH_SIZE]
            rows_out += len(batch)
            yield from batch
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
