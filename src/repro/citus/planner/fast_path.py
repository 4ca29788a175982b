"""Fast path planner (§3.5).

Handles simple CRUD on a single distributed table with an equality filter
(or VALUES row) on the distribution column. The planner extracts the
distribution value directly, picks the shard, rewrites the table name, and
produces a single task — with deliberately minimal analysis so that
high-throughput CRUD workloads pay almost no planning overhead.
"""

from __future__ import annotations

from ...errors import NotNullViolation
from ...sql import ast as A
from ...sql.facts import statement_facts
from ..sharding import NO_VALUE, dist_value_for
from .tasks import ShardRoutes, SingleTaskPlan


class FastPathShape:
    """What the fast path decides about a statement once: the distributed
    table it is routed by (whose filter on the distribution column the
    statement's facts keep). ``bind`` does the rest per execution."""

    tier = "fast_path"
    detail = "Fast Path Router"

    def __init__(self, ext, stmt, dist):
        self.facts = statement_facts(stmt)
        self.routes = ShardRoutes(ext, stmt, dist)

    def bind(self, params):
        """The plan for these parameters, or None when they hold no
        distribution value a shard holds."""
        routes = self.routes
        value = dist_value_for(routes.ext.metadata.cache, self.facts, params)
        if value is NO_VALUE:
            return None
        task = routes.value_task(value, params)
        if task is None:
            return None
        return SingleTaskPlan(self, task, dist_value=value)


def try_fast_path(ext, session, stmt, params, analysis=None, search=None):
    """The cascade's first tier: a one-task plan, or None if the statement
    does not qualify for the fast path. A miss records its structured
    reason into ``search`` when a PlanSearch is being kept."""
    shape, reason = _fast_path_shape(ext, stmt)
    plan = shape.bind(params) if shape is not None else None
    if plan is None:
        # Cascade fall-through: the next (costlier) planner tier must run.
        ext.stat_counters.incr("planner_fast_path_misses")
        if search is not None:
            search.reject("fast_path", *reason)
    return plan


def _fast_path_shape(ext, stmt):
    """``(shape, why a bind of it declines)``, or ``(None, why the
    statement has no fast-path shape)``."""
    cache = ext.metadata.cache
    insert = isinstance(stmt, A.Insert)
    if insert:
        table_name = stmt.table
    elif isinstance(stmt, A.Select):
        if (
            len(stmt.from_items) != 1
            or not isinstance(stmt.from_items[0], A.TableRef)
            or stmt.ctes
            or stmt.set_ops
            or stmt.group_by
        ):
            return None, ("shape", "needs a single-table FROM without"
                          " CTEs, set operations, or GROUP BY")
        table_name = stmt.from_items[0].name
    elif isinstance(stmt, (A.Update, A.Delete)):
        table_name = stmt.table
    else:
        return None, ("statement_kind",
                      f"{type(stmt).__name__} has no fast path")

    dist = cache.tables.get(table_name)
    if dist is None or dist.is_reference:
        return None, ("table", f"{table_name!r} is not a hash-distributed table")
    no_value = ("no_dist_value", "no dist_column = constant filter")
    if insert:
        if stmt.select is not None or len(stmt.rows) != 1:
            # INSERT..SELECT and multi-row inserts take other paths.
            return None, ("shape", "INSERT..SELECT / multi-row insert")
        no_value = ("no_dist_value",
                    "positional insert or unresolvable distribution value")
        # A positional insert resolves its columns on the multi-row path.
        if stmt.columns and dist.dist_column not in stmt.columns:
            raise NotNullViolation(
                f"cannot perform an INSERT without the distribution column"
                f" {dist.dist_column!r}"
            )
    elif _contains_subquery(stmt):
        return None, ("subquery", "statement contains a subquery")
    return FastPathShape(ext, stmt, dist), no_value


def _contains_subquery(stmt) -> bool:
    return any(isinstance(n, A.SubqueryExpr) for n in A.walk(stmt))
