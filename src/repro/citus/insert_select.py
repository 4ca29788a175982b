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

from .copy_dist import copy_targets, distribute_rows
from .observability import TaskTarget
from .planner.pushdown import pushes_down_without_merge
from .planner.tasks import CitusPlan, fold_write_results, statement_routes
from .sharding import analyze_statement
from ..engine.executor import QueryResult, level_names, level_targets, width_error
from ..sql import ast as A


def plan_insert_select(ext, stmt: A.Insert, params):
    cache = ext.metadata.cache
    dest = cache.tables.get(stmt.table)
    analysis = analyze_statement(stmt.select, cache, params, ext.instance.catalog)
    # A local destination fed from a distributed source runs the select
    # distributed and inserts locally.
    strategy = ("coordinator" if dest is None or dest.is_reference
                else _choose_strategy(ext, stmt, dest, analysis))
    if strategy == "pushdown":
        return PushdownInsertSelectPlan(ext, stmt, params, dest)
    return ReroutingInsertSelectPlan(ext, stmt, strategy, dest, len(
        level_names(stmt.select, analysis.column_names)))


def _choose_strategy(ext, stmt: A.Insert, dest, analysis) -> str:
    select = stmt.select
    dist_sources = analysis.distributed
    if not dist_sources:
        return "coordinator"  # SELECT over reference/local tables
    if select.ctes or select.set_ops:
        return "coordinator"
    same_colocation = all(
        o.dist.colocation_id == dest.colocation_id for o in dist_sources
    )
    if not pushes_down_without_merge(analysis, select):
        return "coordinator"
    # The destination's distribution column must be fed by the source's
    # distribution column for per-shard-pair execution.
    if same_colocation and _dest_key_from_source_key(stmt, dest, analysis):
        return "pushdown"
    return "repartition"


def _dest_key_from_source_key(stmt: A.Insert, dest, analysis) -> bool:
    """Whether the column the destination is distributed by is fed the
    source's distribution column (a ``*`` counted as its columns)."""
    if dest.dist_column not in stmt.columns:
        return False
    targets = level_targets(stmt.select, analysis.column_names)
    position = stmt.columns.index(dest.dist_column)
    return position < len(targets) and analysis.dist_column_test(
        stmt.select)(targets[position].expr)


# --------------------------------------------------- streaming SELECT feed


def select_row_stream(ext, session, select, params):
    """The SELECT side of the write pipeline: a lazy row iterator. The
    statement is planned through the session's planner hook as the first
    row is asked for, then its plan streams its rows (``CitusPlan.rows``:
    a multi-shard pushdown SELECT batch by batch through the cursor
    pipeline, any other plan whole)."""
    plan = session.instance.hooks.call_planner(session, select, params)
    if plan is None:
        yield from session._execute_local_dml(select, params).rows
        return
    yield from plan.rows(session, params)


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


#: What a re-routing INSERT..SELECT says of itself, per strategy: its label
#: and where its work runs.
_REROUTING = {
    "repartition": ("Insert..Select (repartition)", {
        "pushed_down": ["SELECT (distributed)"],
        "coordinator": ["ROW RE-ROUTING"],
    }),
    "coordinator": ("Insert..Select (via coordinator)", {
        "coordinator": ["SELECT MERGE", "ROW DISTRIBUTION"],
    }),
}


class ReroutingInsertSelectPlan(CitusPlan):
    """Strategies 2 and 3: a distributed SELECT — without a coordinator
    merge ("repartition") or with one ("coordinator") — whose row stream is
    re-routed by the destination's distribution column: cursor batches flow
    straight into the per-shard COPY channels, or, for a local destination
    (``dest`` None), into the local table."""

    tier = "insert_select"

    def __init__(self, ext, stmt, strategy: str, dest, width: int):
        super().__init__(ext)
        self.stmt = stmt
        self.strategy = strategy
        self.dest = dest
        self.width = width  # the SELECT's output columns
        self.detail, self._shown = _REROUTING[strategy]
        #: A SELECT that reads the destination is read whole before the
        #: first flush: it must not see the statement's own inserts.
        self.drain = any(isinstance(node, A.TableRef) and node.name == stmt.table
                         for node in A.walk(stmt.select))

    def execute(self, session, params):
        stmt = self.stmt
        shell = self.ext.instance.catalog.get_table(stmt.table)
        # Without a column list the values fill the first columns
        # (PostgreSQL's rule); the rest take their defaults.
        columns = stmt.columns or shell.column_names()[:self.width]
        if self.width != len(columns):
            raise width_error("INSERT", self.width, len(columns))
        rows = select_row_stream(self.ext, session, stmt.select, params)
        if self.drain:
            rows = iter(list(rows))
        if self.dest is None:
            from ..engine.copy import insert_rows

            count = insert_rows(session, self.stmt.table, rows, columns)
        else:
            count = distribute_rows(self.ext, session, self.stmt.table,
                                    rows, columns)
        out = QueryResult([], [], command="INSERT")
        out.rowcount = count
        return out

    def explain_info(self):
        # The destination side is the ShardCopyRouter's COPY channels, in
        # channel index order (channel spans match back to these by index).
        tasks = [] if self.dest is None else [
            TaskTarget(node, f"COPY {shard_name}", group) for node, group, shard_name
            in copy_targets(self.ext.metadata.cache, self.dest)]
        info = {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": tasks,
            "is_write": True,
            "subplan": {"strategy": self.strategy, "destination": self.stmt.table},
            **self._shown,
        }
        if self.strategy == "repartition":
            info.update(total_shard_count=len(tasks), pruned_shard_count=0)
        else:
            info["task_count"] = len(tasks) or 1
        if self.dest is not None:
            info["repartition"] = {
                "flush_threshold": self.ext.config.copy_flush_threshold,
                "channels": len(tasks),
            }
        return info
