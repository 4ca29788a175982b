"""Tasks, the routes they are made from, and the plans made of them.

A distributed query plan is "a set of tasks (queries on shards) to run on
the workers" (§3.5). A :class:`Task` carries the rewritten SQL, the target
node, and the co-located shard group key used for connection affinity in
the adaptive executor. :class:`ShardRoutes` is the one place a statement
becomes shard tasks; :class:`CitusPlan` is what every tier's plan extends,
:class:`SingleTaskPlan` the plan of the two single-shard tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...engine.expr import BoundParams
from ...engine.hooks import CustomScanPlan
from ...sql import ast as A
from ...sql.deparse import deparse
from ..sharding import NO_VALUE, prune_shards
from ..txn.deadlock import assign_distributed_txn_ids


@dataclass
class Task:
    node: str
    sql: str | None
    params: object = None
    # (colocation_id, shard_index): tasks touching the same co-located shard
    # group must reuse the same connection within a transaction (§3.6.1).
    shard_group: tuple | None = None
    returns_rows: bool = True
    # Pre-parsed rewritten statement. When set, the executor ships the AST
    # directly (no deparse → lex → parse round-trip) and ``sql`` is only
    # materialized lazily for EXPLAIN/observability via :meth:`sql_text`.
    # Shard-rewritten ASTs may be shared across tasks and sessions, so they
    # must never be mutated downstream.
    stmt: object = None

    def sql_text(self) -> str | None:
        if self.sql is None and self.stmt is not None:
            self.sql = sql_with_values(self.stmt, self.params)
        return self.sql


def sql_with_values(stmt, params) -> str:
    """``stmt`` as EXPLAIN shows it. A normalised template carries synthetic
    parameter markers where the statement had literals; with the bound
    values substituted, every execution of a statement shows the SQL a
    reader would recognise, with this execution's values."""
    if type(params) is BoundParams:
        stmt = _substitute_bound(stmt, params)
    return deparse(stmt)


def _substitute_bound(stmt, bound):
    """Replace every resolvable parameter marker with its bound value."""

    def visit(node):
        if isinstance(node, A.Param):
            if node.index is not None and bound.positional is not None \
                    and node.index <= len(bound.positional):
                return A.Literal(bound.positional[node.index - 1])
            if node.name is not None and node.name in bound.named:
                return A.Literal(bound.named[node.name])
        return node

    return A.transform(stmt.copy(), visit)


def rewrite_to_shard(stmt, cache, shard_index: int | None):
    """Rewrite every Citus table reference in the statement to the shard
    name for ``shard_index`` (distributed) or the replica name (reference).

    Returns a new AST; the input is not modified.
    """

    def rename(name: str) -> str:
        dist = cache.tables.get(name)
        if dist is None:
            return name
        if dist.is_reference:
            return dist.shards[0].shard_name
        if shard_index is None:
            raise ValueError(f"no shard index for distributed table {name!r}")
        return dist.shards[shard_index].shard_name

    def visit(node):
        if isinstance(node, A.TableRef):
            new_name = rename(node.name)
            if new_name != node.name:
                # Keep the original name visible as the alias so column
                # references like ``orders.key`` keep resolving.
                return A.TableRef(new_name, alias=node.alias or node.name)
            return node
        if isinstance(node, (A.Insert, A.Update, A.Delete)):
            renamed = rename(node.table)
            if renamed != node.table:
                node = node.copy()
                if isinstance(node, (A.Update, A.Delete)) and node.alias is None:
                    node.alias = node.table
                node.table = renamed
            return node
        return node

    return A.transform(stmt.copy(), visit)


def task_sql_for_shard(stmt, cache, shard_index: int | None) -> str:
    return deparse(rewrite_to_shard(stmt, cache, shard_index))


class ShardRoutes:
    """The shard tasks of one statement on the shards of ``dist``, the
    hash-distributed table it is routed by (known to the statement as
    ``alias``). What a task on one shard is made of — placement node, shard
    group, shard-rewritten AST — is a function of the statement and the
    metadata cache only, so it is built the first time a bind lands on the
    shard and kept for as long as the shape that owns the routes. The ASTs
    are shared read-only across executions and sessions."""

    def __init__(self, ext, stmt, dist, alias=None):
        self.ext = ext
        self.stmt = stmt
        self.dist = dist
        self.alias = alias
        self.is_write = not isinstance(stmt, A.Select)
        self.returns_rows = not self.is_write or bool(
            getattr(stmt, "returning", None))
        self.memo: dict = {}  # shard_index -> (node, shard_group, AST)

    def task(self, shard_index: int, params) -> Task:
        route = self.memo.get(shard_index)
        if route is None:
            cache = self.ext.metadata.cache
            route = self.memo[shard_index] = (
                cache.placement_node(self.dist.shards[shard_index].shardid),
                (self.dist.colocation_id, shard_index),
                rewrite_to_shard(self.stmt, cache, shard_index),
            )
        node, group, stmt = route
        return Task(node, None, params, group, self.returns_rows, stmt)

    def pruned_tasks(self, params) -> list[Task]:
        """One task per shard the statement's WHERE clause does not rule
        out under ``params``."""
        shard_indexes = prune_shards(self.dist, self.stmt.where, params,
                                     self.alias)
        pruned = len(self.dist.shards) - len(shard_indexes)
        if pruned:
            self.ext.stat_counters.incr("planner_shards_pruned", pruned)
        return [self.task(index, params) for index in shard_indexes]


# ---------------------------------------------------------------- plans


class CitusPlan(CustomScanPlan):
    planner_name = "Citus Adaptive"
    #: Planner-cascade tier for observability ("fast_path", "router",
    #: "pushdown", "join_order", or a DML-specific tier).
    tier = "custom"
    #: The shape whose ``bind`` made this plan — what the plan cache stores.
    #: None: a plan made from the statement itself, planned every time.
    shape = None
    #: True when the shape came from the distributed plan cache.
    cached = False
    #: The PlanSearch recorded while planning this statement (None when
    #: citus.enable_plan_alternatives is off).
    search = None
    #: The distribution-column value the plan was routed on (the fast
    #: path); telemetry asks ``partition_key_for`` itself for plans that
    #: route on no single value.
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

    def __init__(self, shape, task, dist_value=NO_VALUE):
        self.ext = shape.routes.ext
        self.shape = shape
        self.tier = shape.tier
        self.detail = shape.detail
        self.is_write = shape.routes.is_write
        self.tasks = [task]
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
