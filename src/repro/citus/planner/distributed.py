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

import itertools
import json
from contextlib import ExitStack, closing
from dataclasses import replace

from ...engine.catalog import Column
from ...engine.compile import evaluate, get_prepared
from ...engine.datum import (
    ANYELEMENT, TEXT, cast_value, refuse_number_against_text,
)
from ...engine.executor import (
    QueryResult, level_names, text_comparisons, width_error,
)
from ...engine.expr import EvalContext, Row
from ...engine.hooks import CustomScanPlan
from ...errors import NotNullViolation, ReproError, UnsupportedDistributedQuery
from ...sql import ast as A
from ...sql import parse
from ...sql.facts import statement_facts, statement_norm
from ..sharding import analyze_statement
from ..txn.deadlock import assign_distributed_txn_ids
from .fast_path import try_fast_path
from .join_order import plan_join_order
from .pipeline import PlannerTier, PlanSearch, record_chosen_plan
from .plan_cache import normalized
from .pushdown import run_once, try_pushdown
from .router import try_router
from .subplan import land, read_from, reference_intermediate
from .tasks import (
    CitusPlan, Task, fold_write_results, sql_with_values, statement_routes,
)


def make_planner_hook(ext):
    """Build the planner_hook callable for this extension instance."""

    def planner_hook(session, stmt, params):
        cache = ext.metadata.cache
        if not cache.tables:
            return None
        # Whether a statement mentions a Citus table (every shard statement
        # a worker with synced metadata receives does not) is read once
        # from its facts per metadata state, not re-walked.
        facts = statement_facts(stmt)
        if facts.citus_in is not cache:
            if facts.local_in is cache:
                return None
            if not any(name in cache.tables for name in facts.tables):
                facts.local_in = cache
                return None
            facts.citus_in = cache
        norm = statement_norm(facts)
        if norm is not None and norm[1]:
            _refuse_text_literals(ext.instance.catalog, norm[0], norm[1])
        plan = search = entry = None
        try:
            hit = ext.plan_cache.lookup(facts, params)
            if hit is not None:
                plan, entry = hit
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
                ext.plan_cache.store(facts, plan)
        except UnsupportedDistributedQuery as exc:
            # The search (with every tier's rejection reason) is still
            # reported so citus_plan_alternatives() can explain why the
            # statement was unplannable.
            if search is not None:
                search.error = str(exc)
            raise
        finally:
            # Whatever was decided — tier, the plan-cache entry that
            # answered, the search, or that no plan could be made — is
            # reported once, here.
            ext.telemetry.planned(ext, session, facts, params, plan, entry,
                                  search)
        return plan

    return planner_hook


def _refuse_text_literals(catalog, template, literals: dict) -> None:
    """The workers see a normalised statement's literals as parameters,
    which keep the column's rule: a numeric literal ``template`` compares
    with a text column of a table it reads or writes is refused here, on
    the coordinator's tables, as a single node refuses it
    (:func:`~repro.engine.executor.text_comparisons`). Which parameters
    meet a text column is the template's, found once per catalog state."""
    for op, name, operand_first in get_prepared(
            template, catalog.epoch,
            lambda: _text_parameters(catalog, template), ("text",)):
        if name in literals:
            refuse_number_against_text(op, literals[name], operand_first)


def _text_parameters(catalog, template) -> list:
    """``(op, parameter name, operand_first)`` per comparison of a text
    column of a table ``template`` reads or writes with a parameter."""
    where = template.where if isinstance(template, (A.Select, A.Update,
                                                    A.Delete)) else None
    if where is None:
        return []
    if isinstance(template, A.Select):
        refs, pending = [], list(template.from_items)
        while pending:
            item = pending.pop()
            if isinstance(item, A.JoinExpr):
                pending += (item.left, item.right)
            elif isinstance(item, A.TableRef):
                refs.append((item.name, item.ref_name))
    else:
        refs = [(template.table, template.alias or template.table)]
    found = []
    for name, alias in refs:
        table = catalog.tables.get(name)
        text = [] if table is None else [
            col.name for col in table.columns if col.type_name == TEXT]
        found += [(op, operand.name, operand_first) for op, operand,
                  operand_first in text_comparisons(where, alias, text)
                  if type(operand) is A.Param]
    return found


def citus_plan_alternatives(ext, session, *rest) -> str:
    """The candidate-plan pipeline's PlanSearch records as JSON (the
    ``citus_plan_alternatives([sql])`` UDF).

    With a SQL argument the statement is planned afresh (bypassing the
    plan cache) and that single search — every cascade tier tried, each
    structured rejection, and all costed candidates — is returned.
    Without arguments, the ring buffer of recent searches is returned,
    newest last: each plan's search once, a cached plan's replayed search
    from its first hit on, counting them (``hits``)."""
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


#: The §3.5 cascade, lowest overhead first. plan_statement walks this list.
CASCADE = (
    PlannerTier("fast_path", try_fast_path),
    PlannerTier("router", try_router),
    PlannerTier("pushdown", try_pushdown),
    PlannerTier("join_order", plan_join_order),
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

    if any(isinstance(node, A.Select) and node.ctes for node in A.walk(stmt)):
        stmt = _inline_ctes(stmt)
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


def _inline_ctes(stmt):
    """``stmt`` with every CTE, at any level, read as the subquery it
    names: a CTE gets the verdicts of a subquery in its place (runs per
    shard, or once)."""

    def inline(node):
        if not (isinstance(node, A.Select) and node.ctes):
            return node
        named = {}
        for cte in node.ctes:
            query = read_from(cte.query, named)  # earlier CTEs read in later ones
            if cte.column_names:
                query.targets = [A.TargetEntry(entry.expr, name) for entry, name
                                 in zip(query.targets, cte.column_names)]
            named[cte.name] = query
        return read_from(replace(node, ctes=[]), named)

    return A.transform(stmt, inline)


# ---------------------------------------------------------------- plans


_subplan_counter = itertools.count(1)


class SubplanPlan(CitusPlan):
    """A SELECT, UPDATE or DELETE some parts of which cannot run per shard
    (§3.5's recursive planning): its levels (:func:`~.pushdown.run_once`,
    by ``id``, or ``SELECT * FROM t`` by ``t``'s name). Each is planned
    through the cascade on its own and runs once, its rows streamed as
    they are into untyped columns of a reference intermediate
    (:func:`~.subplan.land`) on every node the rest reads it on. The rest,
    reading the intermediates in their place, is planned again; what it
    still runs once joins the levels, so no SubplanPlan nests another.
    Planned every time: nothing of it is kept in the plan cache."""

    tier = "subplan"
    detail = "Subplans (run once)"

    def __init__(self, ext, session, stmt, params, levels, analysis):
        super().__init__(ext)
        cache = ext.metadata.cache
        #: Per level: its plan and the intermediate its rows land in.
        self.subplans, self.queries, nodes = [], [], set()
        try:
            while levels:
                readers = {}
                for key, level in levels.items():
                    transient, readers[key] = _intermediate(
                        level_names(level, analysis.column_names))
                    self.subplans.append((_plan(ext, session, level, params,
                                                None), transient))
                    self.queries.append(sql_with_values(level, params))
                    cache.tables[transient.name] = transient
                stmt = read_from(stmt, readers)
                analysis = analyze_statement(stmt, cache, params,
                                             ext.instance.catalog)
                nodes |= _reading_nodes(ext, stmt, analysis)
                levels = run_once(analysis)
            self.nodes = sorted(nodes)
            self.plan = _plan(ext, session, stmt, params, None)
        finally:
            for _subplan, transient in self.subplans:
                cache.tables.pop(transient.name, None)

    def execute(self, session, params):
        with ExitStack() as landed:
            for plan, transient in self.subplans:
                table = transient.shards[0].shard_name
                rows = landed.enter_context(closing(plan.rows(session, params)))
                landed.enter_context(land(
                    self.ext, transient,
                    [(node, None, table) for node in self.nodes], rows))
            return self.plan.execute(session, params)

    def explain_info(self):
        info = self.plan.explain_info()
        return {**info, "tier": self.tier, "detail": self.detail,
                "subplan": {"strategy": "subplan", "queries": self.queries}}


def _reading_nodes(ext, stmt, analysis) -> set:
    """Where the rest of a statement, ``stmt``, reads its intermediates:
    beside the shards it reads, on every replica of a reference table it
    writes, and on the coordinator when it runs there (a SELECT whose own
    FROM reads no shard, a write to a local table)."""
    cache = ext.metadata.cache
    nodes = {cache.placement_node(shard.shardid)
             for occ in analysis.distributed for shard in occ.dist.shards}
    written = cache.tables.get(getattr(stmt, "table", None))
    if written is not None and written.is_reference:
        nodes.update(cache.placements[written.shards[0].shardid])
    elif written is None and not any(level is stmt for level in analysis.levels):
        nodes.add(ext.instance.name)
    return nodes


def _intermediate(names: list[str]):
    """The intermediate of a subplan level whose output columns ``names``
    lists, its columns c1, c2, ... untyped, and what the rest of the
    statement reads in the level's place: those columns under the level's
    names, which may repeat (``SELECT count(*), count(*)``)."""
    transient = reference_intermediate(
        f"citus_subplan_{next(_subplan_counter)}",
        [Column(f"c{i}", ANYELEMENT) for i in range(1, len(names) + 1)])
    return transient, A.Select(
        targets=[A.TargetEntry(A.ColumnRef(column.name), name)
                 for column, name in zip(transient.columns, names)],
        from_items=[A.TableRef(transient.name)])


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
