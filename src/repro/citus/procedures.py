"""Distributed stored procedures (§3.8).

``create_distributed_function`` (exposed here as
:func:`register_distributed_procedure`) replicates a procedure to all nodes
and records a *distribution argument*: CALLs whose distribution argument
lands on a worker-owned shard are delegated wholesale to that worker, which
"can then perform most operations locally without network round trips" —
the optimization the TPC-C benchmark (§4.1) relies on.

Delegation requires the worker to have synced metadata (it must plan the
procedure's queries against local shards); otherwise the CALL runs on the
coordinator.
"""

from __future__ import annotations

from ..engine.catalog import Procedure
from ..engine.compile import evaluate
from ..engine.executor import QueryResult
from ..engine.expr import EvalContext, Row
from ..sql import ast as A


def register_distributed_procedure(ext, name: str, fn, distribution_arg: int | None = None,
                                   colocated_table: str | None = None) -> None:
    """Register a procedure on every node ("Citus replicates database
    objects such as custom types and functions to all servers", §3)."""
    proc = Procedure(name, fn, distribution_arg, colocated_table)
    ext.instance.catalog.register_procedure(proc)
    if ext.cluster is not None:
        for node_name, instance in ext.cluster.nodes.items():
            if instance is not ext.instance:
                instance.catalog.register_procedure(
                    Procedure(name, fn, distribution_arg, colocated_table)
                )


def try_delegate_call(ext, session, stmt: A.CallProcedure):
    """Utility-hook handler for CALL: delegate to a worker if possible."""
    try:
        proc = ext.instance.catalog.get_procedure(stmt.name)
    except Exception:
        return None
    if proc.distribution_arg is None or proc.colocated_table is None:
        return None
    cache = ext.metadata.cache
    dist = cache.tables.get(proc.colocated_table)
    if dist is None or dist.is_reference:
        return None
    params = getattr(session, "_pending_params", None)
    ctx = EvalContext(row=Row(), params=params, session=session)
    args = [evaluate(a, ctx) for a in stmt.args]
    if proc.distribution_arg >= len(args):
        return None
    value = args[proc.distribution_arg]
    shard_index = dist.shard_index_for_value(value)
    node = cache.placement_node(dist.shards[shard_index].shardid)
    if node == ext.instance.name:
        return None  # local shard: plain local execution path
    if node not in cache.nodes_with_metadata:
        ext.stat_counters.incr("procedure_not_delegated")
        return None  # worker cannot plan distributed queries
    # Ship the whole CALL, its arguments evaluated; the worker executes it
    # with local planning.
    ext.worker_connection(node).execute_parsed(
        A.CallProcedure(stmt.name, [A.Literal(v) for v in args]))
    ext.stat_counters.incr("procedure_delegated")
    return QueryResult([], [], command="CALL")
