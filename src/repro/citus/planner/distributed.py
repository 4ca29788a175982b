"""The distributed planner cascade (§3.5) and executable plan objects.

"For each query, Citus iterates over the four planners, from lowest to
highest overhead. If a particular planner can plan the query, Citus uses
it": fast path → router → logical pushdown → logical join-order. The walk
is driven over the explicit :data:`CASCADE` tier list and recorded into a
:class:`~.pipeline.PlanSearch` (tiers tried, accept/reject reasons, costed
candidates) when ``citus.enable_plan_alternatives`` is on. Plans are
:class:`CustomScanPlan` objects returned from the planner hook; their
``execute`` drives the adaptive executor and (for merge plans) the local
executor for the merge step on the coordinator.
"""

from __future__ import annotations

from ...engine.datum import cast_value, hash_value
from ...engine.executor import QueryResult
from ...engine.expr import EvalContext, Row, evaluate
from ...engine.hooks import CustomScanPlan
from ...errors import NotNullViolation, UnsupportedDistributedQuery
from ...sql import ast as A
from ..sharding import NO_VALUE, analyze_statement, statement_facts
from ..txn.deadlock import assign_distributed_txn_ids
from .fast_path import try_fast_path
from .pipeline import PlannerTier, PlanSearch, record_chosen_plan
from .pushdown import (plan_pushdown_dml, plan_pushdown_select,
                       run_streaming_concat, run_streaming_group_merge,
                       stream_concat_runs)
from .router import try_router
from .tasks import Task, rewrite_to_shard, task_sql_for_shard


def make_planner_hook(ext):
    """Build the planner_hook callable for this extension instance."""

    def planner_hook(session, stmt, params):
        cache = ext.metadata.cache
        if not cache.tables:
            return None
        # A statement mentioning no Citus table (every shard statement a
        # worker with synced metadata receives, for one) is recognised from
        # its memoized facts without re-walking the AST.
        facts = statement_facts(stmt)
        if facts.local_in is cache:
            return None
        if not any(name in cache.tables for name in facts.tables):
            facts.local_in = cache
            return None
        ext.stats["distributed_queries"] += 1
        plan = search = None
        cache_hit = False
        try:
            plan = ext.plan_cache.lookup(session, stmt, params)
            cache_hit = plan is not None
            if cache_hit:
                search = getattr(plan, "search", None)
            else:
                if ext.config.enable_plan_alternatives:
                    search = PlanSearch()
                plan = plan_statement(ext, session, stmt, params, search=search)
                if search is not None:
                    plan.search = search
                ext.plan_cache.store(stmt, plan)
        except UnsupportedDistributedQuery as exc:
            # The search (with every tier's rejection reason) is still
            # reported so citus_plan_alternatives() can explain why the
            # statement was unplannable.
            if search is not None:
                search.error = str(exc)
            raise
        finally:
            # Whatever was decided — tier, plan-cache hit, the search, or
            # that no plan could be made — is reported once, here.
            ext.telemetry.planned(ext, session, facts, params, plan, cache_hit,
                                  search)
        return plan

    return planner_hook


def _tier_fast_path(ext, session, stmt, params, analysis, search):
    tasks = try_fast_path(ext, stmt, params, search=search)
    if tasks is None:
        return None
    ext.stats["fast_path_queries"] += 1
    return SingleTaskPlan(ext, tasks, "Fast Path Router", tier="fast_path",
                          is_write=not isinstance(stmt, A.Select))


def _tier_router(ext, session, stmt, params, analysis, search):
    tasks = try_router(ext, stmt, params, analysis, search=search)
    if tasks is None:
        return None
    ext.stats["router_queries"] += 1
    return SingleTaskPlan(ext, tasks, "Router", tier="router",
                          is_write=not isinstance(stmt, A.Select))


def _tier_pushdown(ext, session, stmt, params, analysis, search):
    if isinstance(stmt, A.Select):
        plan = plan_pushdown_select(ext, stmt, params, analysis, search=search)
        if plan is None:
            return None
        ext.stats["pushdown_queries"] += 1
        return MultiTaskSelectPlan(ext, plan)
    if isinstance(stmt, (A.Update, A.Delete)):
        tasks = plan_pushdown_dml(ext, stmt, params, analysis, search=search)
        if tasks is None:
            return None
        ext.stats["pushdown_queries"] += 1
        return MultiTaskDMLPlan(ext, tasks)
    if search is not None:
        search.reject("pushdown", "statement_kind",
                      f"{type(stmt).__name__} has no multi-shard pushdown plan")
    return None


def _tier_join_order(ext, session, stmt, params, analysis, search):
    if not isinstance(stmt, A.Select):
        if search is not None:
            search.reject("join_order", "statement_kind",
                          "only SELECT joins can be repartitioned")
        return None
    from .join_order import plan_join_order

    plan = plan_join_order(ext, stmt, params, analysis, search=search)
    if plan is not None:
        ext.stats["repartition_queries"] += 1
    return plan


#: The §3.5 cascade, lowest overhead first. plan_statement walks this list.
CASCADE = (
    PlannerTier("fast_path", _tier_fast_path),
    PlannerTier("router", _tier_router),
    PlannerTier("pushdown", _tier_pushdown),
    PlannerTier("join_order", _tier_join_order),
)


def _disabled_tiers(ext) -> frozenset:
    raw = ext.config.planner_disabled_tiers
    if not raw:
        return frozenset()
    return frozenset(t.strip() for t in raw.split(",") if t.strip())


def plan_statement(ext, session, stmt, params, search=None) -> CustomScanPlan:
    cache = ext.metadata.cache

    if isinstance(stmt, A.Insert):
        plan = _pre_route_insert(ext, session, stmt, params, cache, search)
        if plan is not None:
            if search is not None:
                record_chosen_plan(search, plan)
            return plan

    analysis = analyze_statement(stmt, cache, params, ext.instance.catalog)

    # Queries touching only reference tables (optionally with local tables)
    # run locally against the coordinator's replicas; reference writes fan
    # out to every replica.
    if not analysis.distributed:
        if isinstance(stmt, (A.Update, A.Delete)) and cache.tables.get(
            getattr(stmt, "table", None)
        ):
            plan = ReferenceDMLPlan(ext, stmt, params)
        else:
            plan = LocalReferencePlan(ext, stmt, params)
        if search is not None:
            record_chosen_plan(search, plan)
        return plan

    disabled = _disabled_tiers(ext)
    for tier in CASCADE:
        if tier.name in disabled:
            if search is not None:
                search.reject(tier.name, "disabled",
                              "tier disabled via citus.planner_disabled_tiers")
            continue
        plan = tier.try_fn(ext, session, stmt, params, analysis, search)
        if plan is not None:
            if search is not None:
                record_chosen_plan(search, plan)
            return plan

    if isinstance(stmt, A.Select):
        raise UnsupportedDistributedQuery(
            "could not produce a distributed plan for this query shape"
        )
    raise UnsupportedDistributedQuery(
        f"cannot plan {type(stmt).__name__} on distributed tables"
    )


def _pre_route_insert(ext, session, stmt, params, cache, search):
    """INSERT statements route before the cascade: INSERT..SELECT has its
    own strategy choice, reference inserts replicate, and plain inserts
    either take the fast path or the coordinator row-evaluation plan."""
    if stmt.select is not None:
        from ..insert_select import plan_insert_select

        return plan_insert_select(ext, stmt, params)
    dist = cache.tables.get(stmt.table)
    if dist is None:
        return None  # falls through to the reference/local analysis
    if dist.is_reference:
        return ReferenceDMLPlan(ext, stmt, params)
    # Fast path for single-row inserts with explicit columns; the general
    # plan handles multi-row / positional inserts.
    if "fast_path" in _disabled_tiers(ext):
        if search is not None:
            search.reject("fast_path", "disabled",
                          "tier disabled via citus.planner_disabled_tiers")
        tasks = None
    else:
        tasks = try_fast_path(ext, stmt, params, search=search)
    if tasks is not None:
        ext.stats["fast_path_queries"] += 1
        return SingleTaskPlan(ext, tasks, "Fast Path Router",
                              tier="fast_path", is_write=True)
    return InsertValuesPlan(ext, stmt, params)


# ---------------------------------------------------------------- plans


class CitusPlan(CustomScanPlan):
    planner_name = "Citus Adaptive"
    #: Planner-cascade tier for observability ("fast_path", "router",
    #: "pushdown", "join_order", or a DML-specific tier).
    tier = "custom"
    #: True when this plan was replayed from the distributed plan cache.
    cached = False
    #: The PlanSearch recorded while planning this statement (None when
    #: citus.enable_plan_alternatives is off).
    search = None
    #: The distribution-column value the plan was routed on, when the
    #: planner resolved one (a plan-cache fast-path replay); telemetry asks
    #: ``partition_key_for`` itself for plans that carry none.
    dist_value = NO_VALUE

    def __init__(self, ext):
        self.ext = ext

    def _explain_header(self, task_count: int, detail: str | None = None) -> list[str]:
        lines = [f"Custom Scan (Citus Adaptive)"]
        if detail:
            marker = " (cached)" if self.cached else ""
            lines.append(f"  Planner: {detail}{marker}")
        lines.append(f"  Task Count: {task_count}")
        return lines

    def explain_info(self) -> dict:
        """Structured plan description consumed by
        :func:`repro.citus.observability.describe_plan`. ``tier`` is the
        cascade tier; ``detail`` (optional) overrides the display label
        when it carries more than the tier name."""
        return {"tier": self.tier, "tasks": []}

    def explain_analyze_lines(self, session, stmt, params) -> list[str]:
        """EXPLAIN ANALYZE: execute under trace capture and render the
        plan tree annotated with per-task actuals and the merge span."""
        from ..observability import run_explain_analyze

        return run_explain_analyze(self, session, stmt, params)


class SingleTaskPlan(CitusPlan):
    """Fast path / router: the entire statement is one task."""

    def __init__(self, ext, tasks, detail, tier, is_write=False,
                 dist_value=NO_VALUE):
        super().__init__(ext)
        self.tasks = tasks
        self.detail = detail
        self.tier = tier
        self.is_write = is_write
        self.dist_value = dist_value

    def execute(self, session, params):
        results = self.ext.executor.execute_tasks(session, self.tasks,
                                                  is_write=self.is_write)
        if self.is_write and session.in_transaction:
            assign_distributed_txn_ids(self.ext, session)
        return results[0]

    def explain_lines(self):
        lines = self._explain_header(1, self.detail)
        lines.append(f"  Task: {self.tasks[0].sql_text()}")
        return lines

    def explain_info(self):
        return {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": self.tasks,
            "is_write": self.is_write,
            "pushed_down": ["FULL STATEMENT"],
        }


class MultiTaskDMLPlan(CitusPlan):
    """Parallel, distributed UPDATE/DELETE."""

    tier = "pushdown"

    def __init__(self, ext, tasks):
        super().__init__(ext)
        self.tasks = tasks

    def execute(self, session, params):
        results = self.ext.executor.execute_tasks(session, self.tasks, is_write=True)
        assign_distributed_txn_ids(self.ext, session)
        rows = []
        columns = []
        total = 0
        command = "UPDATE"
        for result in results:
            if result is None:
                continue
            total += result.rowcount
            command = result.command
            if result.columns:
                columns = result.columns
                rows.extend(result.rows)
        out = QueryResult(columns, rows, command=command)
        out.rowcount = total
        return out

    def explain_lines(self):
        lines = self._explain_header(len(self.tasks), "Pushdown (DML)")
        if self.tasks:
            lines.append(f"  Task: {self.tasks[0].sql_text()}")
        return lines

    def explain_info(self):
        return {
            "tier": self.tier,
            "detail": "Pushdown (DML)",
            "tasks": self.tasks,
            "is_write": True,
            "pushed_down": ["FULL STATEMENT"],
        }


class MultiTaskSelectPlan(CitusPlan):
    """Logical pushdown SELECT: concat or two-phase-aggregation merge."""

    tier = "pushdown"

    def __init__(self, ext, plan, bound=None):
        super().__init__(ext)
        self.plan = plan
        # Plan-cache replay: merged (user + extracted-constant) parameters
        # that the coordinator-side merge/limit evaluation must use instead
        # of the raw user params.
        self.bound = bound

    def execute(self, session, params):
        if self.bound is not None:
            params = self.bound
        plan = self.plan
        execution = self.ext.executor.open_task_streams(session, plan.tasks)
        merge_start = self.ext.cluster.clock.now()
        result = None
        try:
            if plan.mode == "concat":
                result = run_streaming_concat(plan, execution, session, params)
            else:
                result = run_streaming_group_merge(plan, execution, session, params)
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
                "merge", "merge", merge_start, strategy=self._merge_label(),
                rows=rows,
                rows_buffered_peak=report.rows_buffered_peak,
                early_terminated=bool(report.early_terminations),
                tasks_skipped=report.tasks_skipped,
            )

    def _merge_label(self) -> str:
        plan = self.plan
        if plan.merge_strategy:
            return plan.merge_strategy
        return "concat" if plan.mode == "concat" else "group-merge"

    # ------------------------------------------------- streaming consumers

    def execute_batches(self, session, params):
        """Open this SELECT as a generator of visible row batches for a
        streaming consumer (the INSERT..SELECT write pipeline)."""
        if self.bound is not None:
            params = self.bound
        execution = self.ext.executor.open_task_streams(session, self.plan.tasks)
        return self._batch_generator(execution, session, params)

    def _batch_generator(self, execution, session, params):
        plan = self.plan
        batch_size = max(1, self.ext.config.stream_batch_size)
        merge_start = self.ext.cluster.clock.now()
        rows_out = 0
        try:
            if plan.mode == "concat":
                runs = stream_concat_runs(plan, execution, session, params)
            else:
                # Group-merge: the worker partials stream into the hash
                # aggregate batch by batch; the (much smaller) aggregated
                # output is then re-chunked for the consumer.
                runs = [run_streaming_group_merge(
                    plan, execution, session, params).rows]
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

    def explain_lines(self):
        lines = self._explain_header(
            len(self.plan.tasks),
            "Pushdown" if self.plan.mode == "concat" else "Pushdown (partial aggregation)",
        )
        if self.plan.tasks:
            lines.append(f"  Task: {self.plan.tasks[0].sql_text()}")
        if self.plan.mode == "merge":
            from ...sql.deparse import deparse

            lines.append(f"  Merge Query: {deparse(self.plan.master_query)}")
        return lines

    def explain_info(self):
        plan = self.plan
        merge_query = None
        if plan.mode == "merge" and plan.master_query is not None:
            from ...sql.deparse import deparse

            merge_query = deparse(plan.master_query)
        return {
            "tier": self.tier,
            "detail": "Pushdown" if plan.mode == "concat"
            else "Pushdown (partial aggregation)",
            "tasks": plan.tasks,
            "total_shard_count": plan.total_shards or None,
            "pushed_down": plan.pushed_down,
            "coordinator": plan.coordinator,
            "merge_query": merge_query,
            "merge_strategy": plan.merge_strategy,
        }


class InsertValuesPlan(CitusPlan):
    """Multi-row (or positional) INSERT: rows are evaluated on the
    coordinator (volatile functions like ``random()`` run once, centrally,
    as in Citus), grouped by target shard, and shipped as one task per
    shard."""

    tier = "insert_values"

    def __init__(self, ext, stmt: A.Insert, params):
        super().__init__(ext)
        self.stmt = stmt
        self.params = params
        self.dist = ext.metadata.cache.get_table(stmt.table)

    def execute(self, session, params):
        stmt = self.stmt
        cache = self.ext.metadata.cache
        shell = self.ext.instance.catalog.get_table(stmt.table)
        columns = stmt.columns or shell.column_names()
        try:
            dist_position = columns.index(self.dist.dist_column)
        except ValueError:
            raise NotNullViolation(
                "cannot perform an INSERT without the distribution column"
                f" {self.dist.dist_column!r}"
            ) from None
        ctx = EvalContext(row=Row(), params=params, session=session)
        dist_type = shell.column(self.dist.dist_column).type_name
        by_shard: dict[int, list[list]] = {}
        for row_exprs in stmt.rows:
            values = [evaluate(e, ctx) for e in row_exprs]
            dist_value = cast_value(values[dist_position], dist_type)
            if dist_value is None:
                raise NotNullViolation(
                    f"the distribution column {self.dist.dist_column!r} cannot be NULL"
                )
            values[dist_position] = dist_value
            index = self.dist.shard_index_for_value(dist_value)
            by_shard.setdefault(index, []).append(values)
        tasks = []
        for index, rows in sorted(by_shard.items()):
            shard = self.dist.shards[index]
            node = cache.placement_node(shard.shardid)
            insert = A.Insert(
                table=shard.shard_name,
                columns=list(columns),
                rows=[[A.Literal(v) for v in row] for row in rows],
                on_conflict=stmt.on_conflict.copy() if stmt.on_conflict else None,
                returning=[t.copy() for t in stmt.returning],
            )
            tasks.append(
                Task(node, None, None,
                     shard_group=(self.dist.colocation_id, index),
                     returns_rows=bool(stmt.returning), stmt=insert)
            )
        results = self.ext.executor.execute_tasks(session, tasks, is_write=True)
        if session.in_transaction:
            assign_distributed_txn_ids(self.ext, session)
        total = sum(r.rowcount for r in results if r is not None)
        rows = [row for r in results if r is not None for row in r.rows]
        cols = next((r.columns for r in results if r is not None and r.columns), [])
        out = QueryResult(cols, rows, command="INSERT")
        out.rowcount = total
        return out

    def explain_lines(self):
        return self._explain_header(len(self.stmt.rows), "Insert (values)")

    def explain_info(self):
        return {
            "tier": self.tier,
            "tasks": [],
            "task_count": len(self.stmt.rows),  # upper bound: one per row
            "total_shard_count": len(self.dist.shards),
            "is_write": True,
            "coordinator": ["ROW EVALUATION", "SHARD GROUPING"],
        }


class ReferenceDMLPlan(CitusPlan):
    """Writes to a reference table replicate to every placement; reads of
    the commit protocol treat each replica as a participant (2PC when the
    table has more than one replica)."""

    tier = "reference"

    def __init__(self, ext, stmt, params):
        super().__init__(ext)
        self.stmt = stmt
        self.params = params
        table_name = stmt.table
        self.dist = ext.metadata.cache.get_table(table_name)

    def execute(self, session, params):
        cache = self.ext.metadata.cache
        shard = self.dist.shards[0]
        nodes = self.ext.metadata.all_placements(shard.shardid)
        rewritten = rewrite_to_shard(self.stmt, cache, None)
        tasks = [
            Task(node, None, params, shard_group=(self.dist.colocation_id, 0, node),
                 returns_rows=bool(getattr(self.stmt, "returning", [])),
                 stmt=rewritten)
            for node in nodes
        ]
        results = self.ext.executor.execute_tasks(session, tasks, is_write=True)
        first = next((r for r in results if r is not None), None)
        if first is None:
            return QueryResult([], [], command="INSERT")
        return first

    def explain_lines(self):
        shard = self.dist.shards[0]
        n = len(self.ext.metadata.all_placements(shard.shardid))
        return self._explain_header(n, "Reference Table DML")

    def explain_info(self):
        from .tasks import Task, task_sql_for_shard

        shard = self.dist.shards[0]
        sql = task_sql_for_shard(self.stmt, self.ext.metadata.cache, None)
        tasks = [
            Task(node, sql, self.params,
                 shard_group=(self.dist.colocation_id, 0, node))
            for node in self.ext.metadata.all_placements(shard.shardid)
        ]
        return {
            "tier": self.tier,
            "tasks": tasks,
            "total_shard_count": 1,
            "pruned_shard_count": 0,
            "is_write": True,
            "pushed_down": ["FULL STATEMENT (per replica)"],
        }


class LocalReferencePlan(CitusPlan):
    """Reads over reference tables (optionally joined with local tables)
    answered from the local replicas without network traffic."""

    tier = "local_reference"

    def __init__(self, ext, stmt, params):
        super().__init__(ext)
        self.stmt = stmt

    def execute(self, session, params):
        rewritten = rewrite_to_shard(self.stmt, self.ext.metadata.cache, None)
        return session._execute_local_dml(rewritten, params)

    def explain_lines(self):
        lines = self._explain_header(0, "Local (reference replica)")
        return lines

    def explain_info(self):
        return {
            "tier": self.tier,
            "tasks": [],
            "task_count": 0,
            "coordinator": ["FULL STATEMENT (local replica)"],
        }
