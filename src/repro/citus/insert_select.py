"""Distributed INSERT..SELECT (§3.8) — the backbone of real-time rollups.

Three strategies, chosen in this order:

1. **co-located pushdown** — source and destination are co-located and the
   SELECT is pushdownable per shard with the destination's distribution
   column produced by the source's: the INSERT..SELECT executes directly
   on co-located shard pairs, fully in parallel.
2. **re-partitioning** — no coordinator merge step is needed but the
   source and destination are not co-located: the distributed SELECT's
   per-shard results are re-routed by the destination's distribution
   column and inserted in batches.
3. **pull to coordinator** — the SELECT requires a merge step on the
   coordinator: run it as a regular distributed query, then distribute the
   result like a COPY.

The re-routing strategies are fully pipelined: the distributed SELECT is
consumed through the cursor machinery one batch at a time and fed straight
into the ShardCopyRouter's per-shard COPY channels, so the coordinator
never holds the intermediate result — its buffering is bounded by the read
batch size plus ``copy_flush_threshold × shards``.
"""

from __future__ import annotations

from .copy_dist import distribute_rows
from .observability import TaskTarget
from .planner.pushdown import MultiTaskSelectPlan, _choose_mode
from .planner.tasks import CitusPlan, fold_write_results, statement_routes
from .sharding import analyze_statement
from ..engine.executor import QueryResult
from ..sql import ast as A


def plan_insert_select(ext, stmt: A.Insert, params):
    cache = ext.metadata.cache
    dest = cache.tables.get(stmt.table)
    if dest is None:
        # Local destination fed from distributed source: run the select
        # distributed, insert locally.
        return CoordinatorInsertSelectPlan(ext, stmt, params, local_dest=True)
    analysis = analyze_statement(stmt.select, cache, params, ext.instance.catalog)
    if dest.is_reference:
        return CoordinatorInsertSelectPlan(ext, stmt, params)
    strategy = _choose_strategy(ext, stmt, dest, analysis)
    if strategy == "pushdown":
        return PushdownInsertSelectPlan(ext, stmt, params, dest)
    if strategy == "repartition":
        return RepartitionInsertSelectPlan(ext, stmt, params, dest)
    return CoordinatorInsertSelectPlan(ext, stmt, params)


def _choose_strategy(ext, stmt: A.Insert, dest, analysis) -> str:
    select = stmt.select
    dist_sources = analysis.distributed
    if not dist_sources:
        return "coordinator"  # SELECT over reference/local tables
    if analysis.locals or select.ctes or select.set_ops:
        return "coordinator"
    same_colocation = all(
        o.dist.colocation_id == dest.colocation_id for o in dist_sources
    )
    pushable = analysis.all_dist_columns_equal() and not analysis.inner_cross_shard_agg
    if not pushable:
        return "coordinator"
    needs_merge = _choose_mode(select, analysis) == "merge"
    if needs_merge:
        return "coordinator"
    # The destination's distribution column must be fed by the source's
    # distribution column for per-shard-pair execution.
    if same_colocation and _dest_key_from_source_key(stmt, dest, analysis):
        return "pushdown"
    return "repartition"


def _dest_key_from_source_key(stmt: A.Insert, dest, analysis) -> bool:
    select = stmt.select
    shell_columns = stmt.columns
    if not shell_columns:
        return False
    try:
        position = shell_columns.index(dest.dist_column)
    except ValueError:
        return False
    targets = [t for t in select.targets if isinstance(t, A.TargetEntry)]
    if position >= len(targets):
        return False
    expr = targets[position].expr
    if not isinstance(expr, A.ColumnRef):
        return False
    roots = {
        analysis.equivalence.find(analysis.dist_column_key(o))
        for o in analysis.distributed
    }
    return analysis.equivalence.find(expr.key) in roots


# --------------------------------------------------- streaming SELECT feed


def _select_row_stream(ext, session, select, params):
    """The SELECT side of the write pipeline: a lazy row iterator. A
    multi-shard pushdown SELECT is pulled through the cursor pipeline batch
    by batch, so rows flow straight into the copy channels without
    coordinator materialization; any other plan (router, join-order,
    reference, local) executes whole and yields its rows."""
    plan = session.instance.hooks.call_planner(session, select, params)
    if plan is None:
        yield from session._execute_local_dml(select, params).rows
        return
    if isinstance(plan, MultiTaskSelectPlan):
        for batch in plan.execute_batches(session, params):
            yield from batch
        return
    yield from plan.execute(session, params).rows


def _copy_targets(ext, dest) -> list[TaskTarget]:
    """What EXPLAIN shows of the destination side: one target per COPY
    channel, in channel index order (channel spans match back to these by
    index). The channels themselves are opened by the ShardCopyRouter."""
    if dest is None:
        return []
    if dest.is_reference:
        shard = dest.shards[0]
        return [
            TaskTarget(node, f"COPY {shard.shard_name}",
                       (dest.colocation_id, 0, node))
            for node in ext.metadata.all_placements(shard.shardid)
        ]
    cache = ext.metadata.cache
    return [
        TaskTarget(cache.placement_node(shard.shardid),
                   f"COPY {shard.shard_name}", (dest.colocation_id, index))
        for index, shard in enumerate(dest.shards)
    ]


def _repartition_info(ext, channel_count: int) -> dict:
    return {
        "flush_threshold": ext.config.copy_flush_threshold,
        "channels": channel_count,
    }


class PushdownInsertSelectPlan(CitusPlan):
    """Strategy 1: INSERT INTO dest_shard SELECT ... FROM src_shard, one
    task per co-located shard pair, fully parallel."""

    tier = "insert_select"
    detail = "Insert..Select (co-located)"

    def __init__(self, ext, stmt, params, dest):
        super().__init__(ext)
        self.dest = dest
        self.tasks = statement_routes(ext, stmt, dest).all_tasks(params)

    def execute(self, session, params):
        results = self.ext.executor.execute_tasks(session, self.tasks,
                                                  is_write=True)
        return fold_write_results(results, "INSERT")

    def explain_info(self):
        return {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": self.tasks,
            "total_shard_count": len(self.dest.shards),
            "pruned_shard_count": 0,
            "is_write": True,
            "pushed_down": ["INSERT..SELECT (per shard pair)"],
            "subplan": {"strategy": "pushdown", "destination": self.dest.name},
        }


class RepartitionInsertSelectPlan(CitusPlan):
    """Strategy 2: distributed SELECT whose per-shard results are re-routed
    by the destination's distribution column, without a coordinator merge
    of the query itself: the SELECT's cursor batches flow straight into the
    per-shard COPY channels."""

    tier = "insert_select"
    detail = "Insert..Select (repartition)"

    def __init__(self, ext, stmt, params, dest):
        super().__init__(ext)
        self.stmt = stmt
        self.dest = dest

    def execute(self, session, params):
        rows = _select_row_stream(self.ext, session, self.stmt.select, params)
        shell = self.ext.instance.catalog.get_table(self.stmt.table)
        columns = self.stmt.columns or shell.column_names()
        count = distribute_rows(self.ext, session, self.stmt.table,
                                rows, columns)
        out = QueryResult([], [], command="INSERT")
        out.rowcount = count
        return out

    def explain_info(self):
        return {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": _copy_targets(self.ext, self.dest),
            "total_shard_count": len(self.dest.shards),
            "pruned_shard_count": 0,
            "is_write": True,
            "pushed_down": ["SELECT (distributed)"],
            "coordinator": ["ROW RE-ROUTING"],
            "repartition": _repartition_info(self.ext, len(self.dest.shards)),
            "subplan": {"strategy": "repartition", "destination": self.dest.name},
        }


class CoordinatorInsertSelectPlan(CitusPlan):
    """Strategy 3: distributed SELECT with merge on the coordinator, then
    COPY-style distribution into the destination."""

    tier = "insert_select"
    detail = "Insert..Select (via coordinator)"

    def __init__(self, ext, stmt, params, local_dest: bool = False):
        super().__init__(ext)
        self.stmt = stmt
        self.local_dest = local_dest

    def execute(self, session, params):
        rows = _select_row_stream(self.ext, session, self.stmt.select, params)
        shell = self.ext.instance.catalog.get_table(self.stmt.table)
        columns = self.stmt.columns or shell.column_names()
        if self.local_dest:
            from ..engine.copy import insert_rows

            count = insert_rows(session, self.stmt.table, rows, columns)
        else:
            count = distribute_rows(self.ext, session, self.stmt.table,
                                    rows, columns)
        out = QueryResult([], [], command="INSERT")
        out.rowcount = count
        return out

    def explain_info(self):
        dest = None
        if not self.local_dest:
            dest = self.ext.metadata.cache.tables.get(self.stmt.table)
        tasks = _copy_targets(self.ext, dest)
        info = {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": tasks,
            "task_count": len(tasks) or 1,
            "is_write": True,
            "coordinator": ["SELECT MERGE", "ROW DISTRIBUTION"],
            "subplan": {"strategy": "coordinator", "destination": self.stmt.table},
        }
        if dest is not None:
            info["repartition"] = _repartition_info(self.ext, len(tasks))
        return info
