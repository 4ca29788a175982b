"""Distributed EXPLAIN: structured plan introspection (the observability
half of ``pg_stat_statements`` + ``EXPLAIN`` for the Citus layer).

``explain(session, sql)`` plans a statement through the installed planner
hooks **without executing it** and returns a :class:`DistributedExplain`
recording the optimizer's decisions:

- which planner tier of the §3.5 cascade fired (``fast_path`` / ``router``
  / ``pushdown`` / ``join_order``, plus the DML-specific tiers),
- pruned vs. total shard count,
- every task's target node and rewritten shard SQL,
- which clauses were pushed down to the workers vs. evaluated on the
  coordinator (the merge step),
- for multi-stage plans, the repartition/subplan structure and the
  coordinator-side merge query.

The result renders both as a plain dict (``as_dict()``, for asserting in
tests) and as a pg-style text tree (``as_text()``). That tree is the one
EXPLAIN format of the Citus layer: ``EXPLAIN``, ``EXPLAIN ANALYZE``,
``citus_explain()`` and ``citus_explain_analyze()`` all draw a plan
through :func:`describe_plan`; ANALYZE only adds ``(actual …)``
annotations and trailing ``Execution`` / ``Cross-Shard`` lines to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sql import ast as A
from ..sql import parse
from ..sql.deparse import deparse
from .planner.pipeline import tier_label
from .planner.tasks import CitusPlan

#: Tiers of the paper's §3.5 planner cascade, lowest overhead first.
PLANNER_TIERS = ("fast_path", "router", "pushdown", "join_order")


@dataclass
class TaskTarget:
    """One task of a distributed plan: where it runs and what it runs."""

    node: str
    sql: str | None = None
    shard_group: tuple | None = None
    #: EXPLAIN ANALYZE only: measured execution detail for this task —
    #: rows, bytes, time_ms, batches (streaming), queued_ms (blocking),
    #: skipped (never dispatched because the merge terminated early).
    actual: dict | None = None

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "sql": self.sql,
            "shard_group": self.shard_group,
            "actual": self.actual,
        }


@dataclass
class DistributedExplain:
    """Structured record of one planning decision."""

    sql: str
    tier: str  # fast_path | router | pushdown | join_order | ...
    planner: str  # display label, e.g. "Fast Path Router"
    task_count: int
    tasks: list[TaskTarget] = field(default_factory=list)
    total_shard_count: int | None = None  # shards of the anchor colocation group
    pruned_shard_count: int | None = None  # total - shards actually targeted
    pushed_down: list[str] = field(default_factory=list)
    coordinator: list[str] = field(default_factory=list)
    merge_query: str | None = None  # coordinator-side query over intermediates
    merge_strategy: str | None = None  # how shard streams combine (streaming)
    repartition: dict | None = None  # write-side row re-routing (COPY channels)
    subplan: dict | None = None  # repartition / insert..select structure
    is_write: bool = False
    local_plan: list[str] = field(default_factory=list)  # tier == "local" only
    cached: bool = False  # bound from a shape in the distributed plan cache
    #: Candidate-plan pipeline (citus.enable_plan_alternatives): one line
    #: per cascade tier tried — rejections with structured reasons, costed
    #: alternatives, and the chosen plan.
    considered: list[str] = field(default_factory=list)
    #: The full PlanSearch record as a dict (None when the GUC is off or
    #: the plan carries no search).
    search: dict | None = None
    #: EXPLAIN ANALYZE only: statement-level actuals — rows, total_ms, and
    #: the coordinator merge span (strategy, time_ms, rows, buffered peak,
    #: early termination). None for plain EXPLAIN.
    analyze: dict | None = None

    # ------------------------------------------------------------ reading

    @property
    def nodes(self) -> list[str]:
        """Distinct target nodes, sorted."""
        return sorted({t.node for t in self.tasks})

    @property
    def distributed(self) -> bool:
        return self.tier != "local"

    def as_dict(self) -> dict:
        return {
            "sql": self.sql,
            "tier": self.tier,
            "planner": self.planner,
            "task_count": self.task_count,
            "total_shard_count": self.total_shard_count,
            "pruned_shard_count": self.pruned_shard_count,
            "nodes": self.nodes,
            "tasks": [t.as_dict() for t in self.tasks],
            "pushed_down": list(self.pushed_down),
            "coordinator": list(self.coordinator),
            "merge_query": self.merge_query,
            "merge_strategy": self.merge_strategy,
            "repartition": self.repartition,
            "subplan": self.subplan,
            "is_write": self.is_write,
            "cached": self.cached,
            "considered": list(self.considered),
            "search": self.search,
            "analyze": self.analyze,
        }

    def as_text(self) -> str:
        """A pg-style EXPLAIN tree."""
        if self.tier == "local":
            return "\n".join(self.local_plan or ["(local plan)"])
        lines = ["Custom Scan (Citus Adaptive)"]
        marker = " (cached)" if self.cached else ""
        lines.append(f"  Planner: {self.planner}{marker}  [tier: {self.tier}]")
        for considered in self.considered:
            lines.append(f"  {considered}")
        if self.total_shard_count is not None and self.pruned_shard_count is not None:
            targeted = self.total_shard_count - self.pruned_shard_count
            lines.append(
                f"  Shards: {targeted} of {self.total_shard_count}"
                f" ({self.pruned_shard_count} pruned)"
            )
        lines.append(f"  Task Count: {self.task_count}")
        if self.nodes:
            lines.append(f"  Nodes: {', '.join(self.nodes)}")
        if self.pushed_down:
            lines.append(f"  Pushed Down: {', '.join(self.pushed_down)}")
        if self.coordinator:
            lines.append(f"  On Coordinator: {', '.join(self.coordinator)}")
        analyze = self.analyze or {}
        merge_actual = analyze.get("merge")
        if self.merge_strategy:
            line = f"  Merge: {self.merge_strategy}"
            if merge_actual:
                line += _merge_actual_suffix(merge_actual)
            lines.append(line)
        if self.repartition:
            line = ("  Repartition: streaming"
                    f" (flush_threshold={self.repartition['flush_threshold']},"
                    f" channels={self.repartition['channels']})")
            if "repartition" in analyze:
                line += _route_actual_suffix(analyze["repartition"])
            lines.append(line)
        if self.subplan:
            detail = ", ".join(f"{k}={v}" for k, v in self.subplan.items())
            lines.append(f"  ->  Subplan: {detail}")
        for task in self.tasks:
            lines.append(f"  ->  Task on {task.node}")
            if task.sql:
                lines.append(f"        {task.sql}")
            if task.actual is not None:
                lines.append(f"        {_task_actual_line(task.actual)}")
        if self.merge_query:
            lines.append(f"  ->  Merge Query (coordinator)")
            lines.append(f"        {self.merge_query}")
        if merge_actual and not self.merge_strategy:
            # The merge of a stage the plan runs inside its own execution
            # (the SELECT side of a re-routing INSERT..SELECT, a join-order
            # plan's final pushdown): known only once it ran.
            lines.append(f"Execution Merge: {merge_actual['strategy']}"
                         + _merge_actual_suffix(merge_actual))
        cross = analyze.get("cross_shard")
        if cross:
            lines.append(
                f"  Cross-Shard: groups={cross.get('groups', 0)}"
                f" nodes={cross.get('nodes', 0)}"
                f" recent_multi_group_fraction="
                f"{cross.get('recent_multi_group_fraction', 0.0):.4f}"
                f" recent_cross_node_fraction="
                f"{cross.get('recent_cross_node_fraction', 0.0):.4f}"
            )
        if self.analyze is not None:
            total = self.analyze.get("total_ms")
            summary = f"Execution: rows={self.analyze.get('rows', 0)}"
            if total is not None:
                summary += f" time={total:.3f} ms"
            skipped = self.analyze.get("tasks_skipped")
            if skipped:
                summary += f" tasks_skipped={skipped}"
            lines.append(summary)
        return "\n".join(lines)

    def __str__(self):
        return self.as_text()


# ----------------------------------------------------------------- explain


def explain(session, sql: str, params=None) -> DistributedExplain:
    """Plan ``sql`` through the session's planner hooks and describe the
    resulting distributed plan without executing it.

    Purely-local statements yield ``tier == "local"`` with the engine's
    own EXPLAIN lines attached.
    """
    statements = parse(sql)
    if not statements:
        raise ValueError("explain() needs exactly one statement")
    stmt = statements[0]
    if isinstance(stmt, A.Explain):
        stmt = stmt.statement
    plan = session.instance.hooks.call_planner(session, stmt, params)
    if plan is None:
        from ..engine.executor import LocalExecutor

        lines: list[str] = []
        if isinstance(stmt, (A.Select, A.Insert, A.Update, A.Delete)):
            lines = LocalExecutor(session).explain(stmt, params)
        return DistributedExplain(
            sql=sql, tier="local", planner="Local", task_count=0, local_plan=lines,
        )
    if not isinstance(plan, CitusPlan):
        # Another extension's CustomScan: its own EXPLAIN lines are all
        # there is to show.
        return DistributedExplain(
            sql=sql,
            tier="custom",
            planner=type(plan).__name__,
            task_count=0,
            local_plan=list(plan.explain_lines()),
        )
    return describe_plan(plan, sql)


def describe_plan(plan, sql: str = "") -> DistributedExplain:
    """What a :class:`~.planner.tasks.CitusPlan` says it is, as a
    DistributedExplain. The plan's tasks are the ones the executor runs;
    display-only targets (COPY channels, a join that is only known after
    a move) arrive as :class:`TaskTarget` already."""
    info = plan.explain_info()
    tasks = [
        t if isinstance(t, TaskTarget)
        else TaskTarget(t.node, t.sql_text(), t.shard_group)
        for t in info.get("tasks") or ()
    ]
    task_count = info.get("task_count", len(tasks))
    total = info.get("total_shard_count")
    if total is None and tasks:
        total = _total_shards_for_tasks(plan.ext, tasks)
    pruned = info.get("pruned_shard_count")
    if pruned is None and total is not None:
        targeted = _distinct_shards(tasks)
        if targeted is not None:
            pruned = max(total - targeted, 0)
    search = plan.search
    return DistributedExplain(
        sql=sql,
        tier=info["tier"],
        planner=info.get("detail") or tier_label(info["tier"]),
        task_count=task_count,
        tasks=tasks,
        total_shard_count=total,
        pruned_shard_count=pruned,
        pushed_down=list(info.get("pushed_down", ())),
        coordinator=list(info.get("coordinator", ())),
        merge_query=info.get("merge_query"),
        merge_strategy=info.get("merge_strategy"),
        repartition=info.get("repartition"),
        subplan=info.get("subplan"),
        is_write=bool(info.get("is_write", False)),
        cached=plan.cached,
        considered=search.considered_lines() if search is not None else [],
        search=search.as_dict() if search is not None else None,
    )


# --------------------------------------------------------- explain analyze


def _task_actual_line(actual: dict) -> str:
    """Render one task's measured execution, pg-style."""
    if actual.get("skipped"):
        return "(never dispatched)"
    parts = [f"actual rows={actual.get('rows', 0)}"]
    if "batches" in actual:
        parts.append(f"batches={actual['batches']}")
    parts.append(f"bytes={actual.get('bytes', 0)}")
    time_ms = actual.get("time_ms")
    if time_ms is not None:
        parts.append(f"time={time_ms:.3f} ms")
    queued_ms = actual.get("queued_ms")
    if queued_ms:
        parts.append(f"queued={queued_ms:.3f} ms")
    retries = actual.get("retries")
    if retries:
        parts.append(f"retries={retries}")
    return f"({' '.join(parts)})"


def _route_actual_suffix(route: dict) -> str:
    parts = [f"actual rows={route.get('rows', 0)}"]
    flushes = route.get("flushes")
    if flushes is not None:
        parts.append(f"flushes={flushes}")
    parts.append(f"bytes={route.get('bytes', 0)}")
    peak = route.get("channel_peak_rows")
    if peak:
        parts.append(f"channel_peak_rows={peak}")
    time_ms = route.get("time_ms")
    if time_ms is not None:
        parts.append(f"time={time_ms:.3f} ms")
    return f"  ({' '.join(parts)})"


def _merge_actual_suffix(merge: dict) -> str:
    parts = [f"actual rows={merge.get('rows', 0)}"]
    time_ms = merge.get("time_ms")
    if time_ms is not None:
        parts.append(f"time={time_ms:.3f} ms")
    peak = merge.get("rows_buffered_peak")
    if peak:
        parts.append(f"buffered_peak={peak}")
    if merge.get("early_terminated"):
        parts.append("early_terminated")
    return f"  ({' '.join(parts)})"


def _annotate_cross_shard(ext, explained) -> None:
    """Attach the co-access graph's view of a multi-shard DML statement:
    how many shard groups/nodes this plan spans, and what fraction of
    recent transactions (the window ring) went multi-group/cross-node."""
    if not explained.is_write or explained.task_count <= 1:
        return
    graph = ext.telemetry.txn_graph()
    if graph is None:
        return
    groups = {t.shard_group for t in explained.tasks
              if t.shard_group is not None}
    cross = {"groups": len(groups), "nodes": len(explained.nodes)}
    cross.update(graph.cross_shard_summary())
    explained.analyze["cross_shard"] = cross


def run_explain_analyze(plan, session, stmt, params=None) -> list[str]:
    """Execute a distributed plan under a trace capture and render the
    EXPLAIN tree annotated with per-task and merge actuals.

    The span tree is collected via :meth:`Telemetry.capture`, which works
    whatever the telemetry switches say; task spans are matched back to
    the plan's task list by their ``index`` attribute.
    """
    try:
        sql = deparse(stmt)
    except Exception:
        sql = type(stmt).__name__
    explained = describe_plan(plan, sql)
    ext = plan.ext
    telemetry = ext.telemetry
    start = telemetry.now()
    capture = telemetry.capture("explain_analyze")
    try:
        result = plan.execute(session, params)
    finally:
        root = telemetry.end_capture(capture)
    total_ms = (telemetry.now() - start) * 1000.0
    rows = result.rowcount or len(result.rows)
    analyze: dict = {"rows": rows, "total_ms": total_ms}
    tasks_skipped = 0
    for span in root.find(cat="executor", name="task"):
        index = span.attrs.get("index")
        if index is None or not (0 <= index < len(explained.tasks)):
            continue
        actual = {
            "rows": span.attrs.get("rows", 0),
            "bytes": span.attrs.get("bytes", 0),
            "time_ms": span.duration * 1000.0,
        }
        for key in ("batches", "queued_ms", "retries", "skipped"):
            if span.attrs.get(key):
                actual[key] = span.attrs[key]
        if actual.get("skipped"):
            tasks_skipped += 1
        # Last write wins: for multi-stage plans the final round of tasks
        # (the one explain_info describes) is emitted last.
        explained.tasks[index].actual = actual
    if tasks_skipped:
        analyze["tasks_skipped"] = tasks_skipped
    merge_spans = root.find(cat="merge")
    if merge_spans:
        merge = merge_spans[-1]
        analyze["merge"] = dict(merge.attrs)
        analyze["merge"]["time_ms"] = merge.duration * 1000.0
    route_spans = root.find(cat="repartition")
    if route_spans:
        route = route_spans[-1]
        analyze["repartition"] = dict(route.attrs)
        analyze["repartition"]["time_ms"] = route.duration * 1000.0
    explained.analyze = analyze
    _annotate_cross_shard(ext, explained)
    return explained.as_text().splitlines()


def _total_shards_for_tasks(ext, tasks: list[TaskTarget]) -> int | None:
    """Shard count of the colocation group the tasks anchor on."""
    colocation_ids = {
        t.shard_group[0] for t in tasks if t.shard_group is not None
    }
    if len(colocation_ids) != 1:
        return None
    (colocation_id,) = colocation_ids
    for table in ext.metadata.cache.tables.values():
        if table.colocation_id == colocation_id:
            return len(table.shards)
    return None


def _distinct_shards(tasks: list[TaskTarget]) -> int | None:
    indexes = set()
    for t in tasks:
        if t.shard_group is None:
            return None
        indexes.add(t.shard_group[:2])
    return len(indexes)
