"""Router planner (§3.5).

Handles arbitrarily complex statements that can be scoped to one set of
co-located shards: every distributed table must share a colocation group
and have its distribution column constrained — directly or transitively
through join equalities — to the same constant. The whole query is then
rewritten to shard names and delegated to the placement node, which is why
"the router planner implicitly supports all SQL features that PostgreSQL
supports".
"""

from __future__ import annotations

from ...sql import ast as A
from ..sharding import analyze_statement
from .tasks import ShardRoutes, SingleTaskPlan


class RouterShape:
    """What the router decides about a statement once: that its distributed
    tables share a colocation group, and the table shards are picked from.
    Whether the distribution columns meet in one constant depends on the
    parameters, so ``bind`` re-runs the equivalence analysis."""

    tier = "router"
    detail = "Router"

    def __init__(self, ext, stmt, anchor):
        self.routes = ShardRoutes(ext, stmt, anchor)

    def bind(self, params, analysis=None):
        """The plan for these parameters (``analysis``: the statement's,
        when the caller already ran it over them), or None when they do not
        constrain every distribution column to one constant."""
        routes, ext = self.routes, self.routes.ext
        if analysis is None:
            analysis = analyze_statement(routes.stmt, ext.metadata.cache,
                                         params, ext.instance.catalog)
        value, ok = analysis.common_constant()
        if not ok:
            return None
        task = routes.value_task(value, params)
        if task is None:
            return None
        return SingleTaskPlan(self, task)


def try_router(ext, session, stmt, params, analysis, search=None):
    """The cascade's second tier: a one-task plan if the statement routes
    to a single shard group. A miss records its structured reason into
    ``search`` when given."""
    reason = _unroutable(stmt, analysis)
    plan = None
    if reason is None:
        shape = RouterShape(ext, stmt, analysis.distributed[0].dist)
        plan = shape.bind(params, analysis)
        reason = ("no_common_constant",
                  "distribution columns are not all constrained to one"
                  " constant")
    if plan is None:
        # Cascade fall-through: the statement needs a multi-shard planner.
        ext.stat_counters.incr("planner_router_misses")
        if search is not None:
            search.reject("router", *reason)
    return plan


def _unroutable(stmt, analysis):
    """Why no parameters could route the statement, or None."""
    if analysis.locals:
        return ("local_tables",
                "local/distributed table mix cannot be routed")
    written = (analysis.occurrences[0].dist
               if isinstance(stmt, (A.Update, A.Delete)) else None)
    if written is not None and written.is_reference:
        return ("reference_write", "a reference table is written on every replica")
    colocation_ids = {o.dist.colocation_id for o in analysis.distributed}
    if len(colocation_ids) != 1:
        return ("colocation",
                f"{len(colocation_ids)} colocation groups referenced")
    return None
