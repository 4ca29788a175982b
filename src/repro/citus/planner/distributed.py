"""The distributed planner cascade (§3.5) and the planner hook.

"For each query, Citus iterates over the four planners, from lowest to
highest overhead. If a particular planner can plan the query, Citus uses
it": fast path → router → logical pushdown → logical join-order. The walk
is driven over the explicit :data:`CASCADE` tier list and recorded into a
:class:`~.pipeline.PlanSearch` (tiers tried, accept/reject reasons, costed
candidates) when ``citus.enable_plan_alternatives`` is on.

The first three tiers plan in two phases: a *shape* — what the tier decides
from the statement with its literals and parameters abstracted — and one
``shape.bind(params)`` per execution, which picks shards under the values
and makes the plan. The planner hook keeps accepted shapes in the
:class:`~.plan_cache.PlanCache`; a statement whose shape is there skips the
cascade and goes through the same ``bind``. Plans are
:class:`~.tasks.CitusPlan` objects returned from the planner hook; their
``execute`` drives the adaptive executor and (for merge plans) the local
executor for the merge step on the coordinator. The plans defined here are
made from the statement itself and planned every time.
"""

from __future__ import annotations

import json

from ...engine.compile import evaluate
from ...engine.datum import cast_value
from ...engine.executor import QueryResult, width_error
from ...engine.expr import EvalContext, Row
from ...engine.hooks import CustomScanPlan
from ...errors import NotNullViolation, ReproError, UnsupportedDistributedQuery
from ...sql import ast as A
from ...sql import parse
from ...sql.facts import statement_facts
from ..sharding import analyze_statement
from ..txn.deadlock import assign_distributed_txn_ids
from .fast_path import try_fast_path
from .pipeline import PlannerTier, PlanSearch, record_chosen_plan
from .plan_cache import normalized
from .pushdown import try_pushdown
from .router import try_router
from .tasks import CitusPlan, Task, fold_write_results, statement_routes


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
        plan = search = None
        cache_hit = False
        try:
            plan = ext.plan_cache.lookup(stmt, params)
            cache_hit = plan is not None
            if cache_hit:
                search = plan.search
            else:
                if ext.config.enable_plan_alternatives:
                    search = PlanSearch()
                # The cascade plans what the cache keys on: the statement's
                # template and its values, so an accepted shape holds none.
                plan = plan_statement(ext, session, *normalized(stmt, params),
                                      search=search)
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


def citus_plan_alternatives(ext, session, *rest) -> str:
    """The candidate-plan pipeline's PlanSearch records as JSON (the
    ``citus_plan_alternatives([sql])`` UDF).

    With a SQL argument the statement is planned afresh (bypassing the
    plan cache) and that single search — every cascade tier tried, each
    structured rejection, and all costed candidates — is returned.
    Without arguments, the ring buffer of recent searches is returned,
    newest last."""
    if not ext.config.enable_plan_alternatives:
        return json.dumps({"error": "citus.enable_plan_alternatives is off"})
    if not rest:
        return json.dumps([s.as_dict() for s in ext.telemetry.plan_searches])
    statements = parse(rest[0])
    if len(statements) != 1:
        raise ReproError("citus_plan_alternatives() needs exactly one statement")
    search = PlanSearch(statement=rest[0])
    try:
        plan_statement(ext, session, statements[0], None, search=search)
    except UnsupportedDistributedQuery as exc:
        search.error = str(exc)
    return json.dumps(search.as_dict())


def _tier_join_order(ext, session, stmt, params, analysis, search):
    if not isinstance(stmt, A.Select):
        if search is not None:
            search.reject("join_order", "statement_kind",
                          "only SELECT joins can be repartitioned")
        return None
    from .join_order import plan_join_order

    return plan_join_order(ext, stmt, params, analysis, search=search)


#: The §3.5 cascade, lowest overhead first. plan_statement walks this list.
CASCADE = (
    PlannerTier("fast_path", try_fast_path),
    PlannerTier("router", try_router),
    PlannerTier("pushdown", try_pushdown),
    PlannerTier("join_order", _tier_join_order),
)


def _walk(tiers, ext, session, stmt, params, analysis, search):
    """The first plan a tier makes of the statement, lowest overhead first
    (None: every tier declined)."""
    raw = ext.config.planner_disabled_tiers
    disabled = {t.strip() for t in raw.split(",")} if raw else ()
    for tier in tiers:
        if tier.name in disabled:
            if search is not None:
                search.reject(tier.name, "disabled",
                              "tier disabled via citus.planner_disabled_tiers")
            continue
        plan = tier.try_fn(ext, session, stmt, params, analysis, search)
        if plan is not None:
            return plan
    return None


def plan_statement(ext, session, stmt, params, search=None) -> CustomScanPlan:
    plan = _plan(ext, session, stmt, params, search)
    if search is not None:
        record_chosen_plan(search, plan)
    return plan


def _plan(ext, session, stmt, params, search):
    cache = ext.metadata.cache
    table = cache.tables.get(getattr(stmt, "table", None))
    if isinstance(stmt, A.Insert):
        if stmt.select is not None:
            from ..insert_select import plan_insert_select

            return plan_insert_select(ext, stmt, params)
        if table is not None:
            if table.is_reference:
                return ReferenceDMLPlan(ext, stmt, params)
            # A single-row insert with explicit columns takes the fast
            # path; multi-row / positional inserts, and any the fast path
            # declines, are evaluated row by row on the coordinator.
            return (_walk(CASCADE[:1], ext, session, stmt, params, None, search)
                    or InsertValuesPlan(ext, stmt, params))

    analysis = analyze_statement(stmt, cache, params, ext.instance.catalog)

    # Queries touching only reference tables (optionally with local tables)
    # run locally against the coordinator's replicas; reference writes fan
    # out to every replica.
    if not analysis.distributed:
        if isinstance(stmt, (A.Update, A.Delete)) and table is not None:
            return ReferenceDMLPlan(ext, stmt, params)
        return LocalReferencePlan(ext, stmt, params)

    plan = _walk(CASCADE, ext, session, stmt, params, analysis, search)
    if plan is not None:
        return plan
    if isinstance(stmt, A.Select):
        raise UnsupportedDistributedQuery(
            "could not produce a distributed plan for this query shape"
        )
    raise UnsupportedDistributedQuery(
        f"cannot plan {type(stmt).__name__} on distributed tables"
    )


# ---------------------------------------------------------------- plans


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
        # Without a column list the values fill the first columns
        # (PostgreSQL's rule): a distribution column past them reads NULL.
        columns = stmt.columns or shell.column_names()[
            :len(stmt.rows[0]) if stmt.rows else 0]
        try:
            dist_position = columns.index(self.dist.dist_column)
        except ValueError:
            raise NotNullViolation(
                "cannot perform an INSERT without the distribution column"
                f" {self.dist.dist_column!r}" if stmt.columns else
                f"the distribution column {self.dist.dist_column!r} cannot be NULL"
            ) from None
        ctx = EvalContext(row=Row(), params=self.params, session=session)
        by_shard: dict[int, list[list]] = {}
        for row_exprs in stmt.rows:
            values = [evaluate(e, ctx) for e in row_exprs]
            if len(values) != len(columns):
                raise width_error("INSERT", len(values), len(columns))
            dist_value = cast_value(values[dist_position],
                                    self.dist.dist_column_type)
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
            tasks.append(Task(node, insert, self.params,
                              (self.dist.colocation_id, index)))
        results = self.ext.executor.execute_tasks(session, tasks, is_write=True)
        if session.in_transaction:
            assign_distributed_txn_ids(self.ext, session)
        return fold_write_results(results, "INSERT")

    def explain_info(self):
        return {
            "tier": self.tier,
            "tasks": [],
            # Which shards is only known once the rows are evaluated; one
            # task per row is the upper bound.
            "task_count": len(self.stmt.rows),
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
        dist = ext.metadata.cache.get_table(stmt.table)
        self.tasks = statement_routes(ext, stmt, dist).replica_tasks(params)

    def execute(self, session, params):
        results = self.ext.executor.execute_tasks(session, self.tasks,
                                                  is_write=True)
        first = next((r for r in results if r is not None), None)
        if first is None:
            return QueryResult([], [], command="INSERT")
        return first

    def explain_info(self):
        return {
            "tier": self.tier,
            "tasks": self.tasks,
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
        self.local_stmt = statement_routes(ext, stmt).replica_stmt()
        self.params = params

    def execute(self, session, params):
        return session._execute_local_dml(self.local_stmt, self.params)

    def explain_info(self):
        return {
            "tier": self.tier,
            "tasks": [],
            "coordinator": ["FULL STATEMENT (local replica)"],
        }
