"""Tasks, the routes they are made from, and the plans made of them.

A distributed query plan is "a set of tasks (queries on shards) to run on
the workers" (§3.5). A :class:`Task` carries the shard-rewritten statement,
the target node, and the co-located shard group key used for connection
affinity in the adaptive executor. :class:`ShardRoutes` is the one place a
statement becomes shard tasks; :class:`CitusPlan` is what every plan
extends and describes itself through, :class:`SingleTaskPlan` the plan of
the two single-shard tiers.
"""

from __future__ import annotations

from ...engine.executor import QueryResult
from ...engine.expr import BoundParams
from ...engine.hooks import CustomScanPlan
from ...sql import ast as A
from ...sql.deparse import deparse
from ..sharding import NO_VALUE, prune_shards, statement_facts
from ..txn.deadlock import assign_distributed_txn_ids


class Task:
    """One query on one shard placement. It always carries the
    shard-rewritten statement AST — the executor ships that, never text
    (no deparse → lex → parse round trip); :meth:`sql_text` is the lazy
    display form for EXPLAIN and observability. Shard-rewritten ASTs are
    shared across tasks, executions and sessions, so they must never be
    mutated downstream."""

    __slots__ = ("node", "stmt", "params", "shard_group", "_sql")

    def __init__(self, node: str, stmt, params=None, shard_group=None):
        if not isinstance(stmt, A.Statement):
            raise TypeError("a Task carries a shard-rewritten statement AST,"
                            f" not {type(stmt).__name__}")
        self.node = node
        self.stmt = stmt
        self.params = params
        # (colocation_id, shard_index): tasks touching the same co-located
        # shard group must reuse the same connection within a transaction
        # (§3.6.1).
        self.shard_group = shard_group
        self._sql = None

    def sql_text(self) -> str:
        if self._sql is None:
            self._sql = sql_with_values(self.stmt, self.params)
        return self._sql


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


class ShardRoutes:
    """The shard tasks of one statement on the placements of ``dist``, the
    table it is routed by (known to the statement as ``alias``): a shard of
    a hash-distributed table, or every replica of a reference table. What a
    task on one placement is made of — node, shard group, shard-rewritten
    AST — is a function of the statement and the metadata cache only, so it
    is built the first time a bind lands there and kept for as long as the
    shape (or the statement's :class:`~..sharding.StatementFacts`, see
    :func:`statement_routes`) that owns the routes. The ASTs are shared
    read-only across executions and sessions."""

    def __init__(self, ext, stmt, dist=None, alias=None):
        self.ext = ext
        self.stmt = stmt
        self.dist = dist
        self.alias = alias
        self.is_write = not isinstance(stmt, A.Select)
        self.memo: dict = {}  # shard_index -> (node, shard_group, AST)
        self._replica_stmt = None

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
        return Task(node, stmt, params, group)

    def pruned_tasks(self, params) -> list[Task]:
        """One task per shard the statement's WHERE clause does not rule
        out under ``params``."""
        shard_indexes = prune_shards(self.dist, self.stmt.where, params,
                                     self.alias)
        pruned = len(self.dist.shards) - len(shard_indexes)
        if pruned:
            self.ext.stat_counters.incr("planner_shards_pruned", pruned)
        return [self.task(index, params) for index in shard_indexes]

    def all_tasks(self, params) -> list[Task]:
        """One task per shard of ``dist``."""
        return [self.task(index, params)
                for index in range(len(self.dist.shards))]

    def replica_stmt(self):
        """The statement over reference-table replicas only (the same
        shard name on every node that holds one)."""
        if self._replica_stmt is None:
            self._replica_stmt = rewrite_to_shard(
                self.stmt, self.ext.metadata.cache, None)
        return self._replica_stmt

    def replica_tasks(self, params) -> list[Task]:
        """One task per placement of the reference table ``dist``: a write
        goes to every replica, each its own shard group."""
        dist, stmt = self.dist, self.replica_stmt()
        return [
            Task(node, stmt, params, (dist.colocation_id, 0, node))
            for node in self.ext.metadata.all_placements(dist.shards[0].shardid)
        ]


def statement_routes(ext, stmt, dist=None) -> ShardRoutes:
    """The routes of a statement that is planned every time (no shape for
    the plan cache to keep them on), remembered with the statement's other
    facts for as long as the metadata cache they were made from: a repeated
    execution ships the same shard AST objects, so the workers' prepared
    shapes are reused."""
    facts = statement_facts(stmt)
    cache = ext.metadata.cache
    if facts.routes_in is not cache:
        facts.routes = ShardRoutes(ext, stmt, dist)
        facts.routes_in = cache
    return facts.routes


def fold_write_results(results, command: str) -> QueryResult:
    """The coordinator's answer to a multi-task write: the tasks' row
    counts summed, their RETURNING rows concatenated in task order."""
    columns, rows, total = [], [], 0
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


# ---------------------------------------------------------------- plans


class CitusPlan(CustomScanPlan):
    """What every distributed plan is: a tier, the tasks the executor runs
    (when planning knows them) and one description of itself —
    :meth:`explain_info` — that EXPLAIN, EXPLAIN ANALYZE, ``citus_explain``
    and ``citus_explain_analyze`` all draw through
    :func:`~..observability.describe_plan`."""

    #: Planner-cascade tier for observability ("fast_path", "router",
    #: "pushdown", "join_order", or a DML-specific tier).
    tier = "custom"
    #: Display label, when it says more than the tier's.
    detail = None
    #: The tasks the executor runs; None for a plan whose tasks depend on
    #: what execution finds (row evaluation, a moved intermediate result).
    tasks = None
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
    #: Bytes the plan physically moves between nodes before its tasks run.
    estimated_network_bytes = 0.0

    def __init__(self, ext):
        self.ext = ext

    def explain_info(self) -> dict:
        """Structured plan description consumed by
        :func:`repro.citus.observability.describe_plan`. ``tier`` is the
        cascade tier; ``detail`` (optional) overrides the display label
        when it carries more than the tier name."""
        raise NotImplementedError

    def explain_lines(self) -> list[str]:
        from ..observability import describe_plan

        return describe_plan(self).as_text().splitlines()

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

    def explain_info(self):
        return {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": self.tasks,
            "is_write": self.is_write,
            "pushed_down": ["FULL STATEMENT"],
        }
