"""Distributed deadlock detection (§3.7.3).

A background daemon on the coordinator polls every worker for the edges of
its local lock wait-for graph, maps each backend to its distributed
transaction (assigned by the adaptive executor when a worker transaction
opens), merges nodes belonging to the same distributed transaction, and —
if the merged graph has a cycle — cancels the backend of the *youngest*
distributed transaction in the cycle.

Citus uses detection rather than wound-wait because PostgreSQL's
interactive protocol may have already returned results to the client, so
transactions cannot be silently restarted.
"""

from __future__ import annotations

from ...errors import ReproError
from ..executor.placement import SessionPools


def assign_distributed_txn_ids(ext, session) -> int:
    """Tag the coordinator transaction and all of its worker transactions
    with one distributed transaction id (lazily, on first multi-node use)."""
    dist_id = getattr(session, "_citus_dist_txn_id", None)
    if dist_id is None:
        dist_id = ext.next_distributed_txn_id()
        session._citus_dist_txn_id = dist_id
        if session.xid is not None:
            ext.instance.dist_txn_ids[session.xid] = (ext.instance.name, dist_id)
    pools = getattr(session, SessionPools.ATTR, None)
    if pools is not None:
        for conn in pools.all_connections():
            worker_xid = conn.session.xid
            if worker_xid is not None:
                worker_instance = conn.session.instance
                worker_instance.dist_txn_ids[worker_xid] = (ext.instance.name, dist_id)
    return dist_id


def detect_distributed_deadlocks(ext) -> list[int]:
    """One detection round. Returns the distributed txn ids cancelled."""
    # Gather (waiter, holder) edges from every node, including the
    # coordinator itself, expressed in distributed txn ids where known.
    edges: dict[tuple, set[tuple]] = {}
    backend_location: dict[tuple, list[tuple]] = {}  # dist id -> [(node, xid)]
    ext.stat_counters.incr("deadlock_checks")
    nodes = set(ext.all_node_names()) | {ext.instance.name}
    for name in nodes:
        try:
            instance = ext.cluster.node(name) if ext.cluster else ext.instance
        except ReproError:
            continue
        if name == ext.instance.name:
            instance = ext.instance
        if not instance.is_up:
            continue
        for waiter_xid, holder_xid in instance.locks.wait_graph_edges():
            waiter = _dist_key(instance, waiter_xid)
            holder = _dist_key(instance, holder_xid)
            if waiter == holder:
                continue  # same distributed transaction: not a deadlock edge
            edges.setdefault(waiter, set()).add(holder)
            # Only waiting backends are candidates for cancellation.
            backend_location.setdefault(waiter, []).append((name, waiter_xid))

    from ...engine.locks import find_cycle

    cancelled = []
    cycle = find_cycle(edges)
    while cycle:
        victim = _youngest(cycle)
        for node_name, xid in backend_location.get(victim, []):
            instance = ext.cluster.node(node_name) if ext.cluster else ext.instance
            instance.cancel_backend(xid)
        cancelled.append(victim)
        ext.stat_counters.incr("deadlock_victims")
        # Remove the victim and look for further cycles.
        edges.pop(victim, None)
        for holders in edges.values():
            holders.discard(victim)
        cycle = find_cycle(edges)
    return cancelled


def _dist_key(instance, xid: int):
    """Distributed txn id when assigned, else a node-local key."""
    mapped = instance.dist_txn_ids.get(xid)
    if mapped is not None:
        return ("dist",) + mapped
    return ("local", instance.name, xid)


def _youngest(cycle):
    """The youngest transaction: highest distributed id (assigned in start
    order); local-only transactions compare by xid."""

    def sort_key(key):
        if key[0] == "dist":
            return (1, key[2])
        return (0, key[2])

    return max(cycle, key=sort_key)
