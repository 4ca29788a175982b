"""Live cluster introspection: activity, lock waits, and tenant stats.

Backs the ``citus_dist_stat_activity``, ``citus_lock_waits`` and
``citus_stat_tenants`` UDFs. All three are *views over live state* — they
walk the cluster's sessions, lock managers and wait-event stacks at call
time rather than maintaining their own copies, so a blocked writer shows
up the instant it parks and disappears the instant it resolves.

Global PIDs follow the Citus 11 scheme: ``nodeid * 10_000_000_000 + pid``,
where the node id is the 1-based position in pg_dist_node (the coordinator,
which is usually not in pg_dist_node, gets group 0). The composite is
unique cluster-wide and lets operators correlate a row in
``citus_dist_stat_activity`` with the worker backend doing the waiting.
"""

from __future__ import annotations

from ..sql.deparse import deparse
from ..sql.facts import statement_facts, statement_fingerprint
from .record import rank

GPID_STRIDE = 10_000_000_000

#: The views' columns.
ACTIVITY_COLUMNS = ("global_pid", "nodename", "pid", "distributed_txn_id",
                    "application_name", "state", "wait_event_type",
                    "wait_event", "citus_tier", "query", "query_fingerprint",
                    "elapsed_ms")
LOCK_WAIT_COLUMNS = ("waiting_gpid", "blocking_gpid", "blocked_statement",
                     "current_statement_in_blocking_process",
                     "waiting_nodename", "blocking_nodename", "lock")
TENANT_COLUMNS = ("tenant_attribute", "query_count", "rows",
                  "total_query_time_ms", "total_wait_time_ms")


def node_group_id(ext, node_name: str) -> int:
    """1-based pg_dist_node position; 0 for the coordinator (not in
    pg_dist_node unless it is the only node)."""
    try:
        return ext.metadata.cache.nodes.index(node_name) + 1
    except ValueError:
        return 0


def global_pid(ext, node_name: str, backend_pid: int) -> int:
    return node_group_id(ext, node_name) * GPID_STRIDE + backend_pid


# ------------------------------------------------------------ tenant stats


class TenantStats:
    """Per-tenant resource accounting (citus_stat_tenants).

    A fold over closed statement records, keyed on the distribution-column
    value the planner hook extracted from shard-key filters; statements
    that touch many tenants (or none, e.g. DDL) are not attributed. A
    statement's wait is the whole µs of the waits its record noted — every
    wait accounted on its behalf, on any node, the sum ASH reads — so a
    tenant whose queries spend their time blocked on locks shows that
    directly.
    """

    __slots__ = ("entries",)

    def __init__(self):
        # tenant -> (calls, rows, query_seconds, wait_us), replaced per
        # fold: numbers only, which the collector untracks.
        self.entries: dict = {}

    def fold(self, records) -> None:
        entries = self.entries
        for record in records:
            tenant = record.tenant
            if tenant is None:
                continue
            calls, rows, query, wait = entries.get(tenant, (0, 0, 0.0, 0))
            entries[tenant] = (calls + 1, rows + (record.rows or 0),
                               query + (record.end - record.start),
                               wait + sum(record.waits[1::2]))

    def rows(self) -> list[list]:
        """:data:`TENANT_COLUMNS` rows, busiest (most calls) first."""
        entries = self.entries
        return [[t, calls, entries[t][1], entries[t][2] * 1000.0,
                 entries[t][3] / 1000.0]
                for t, calls in rank({t: e[0] for t, e in entries.items()})]

    def reset(self) -> None:
        self.entries.clear()


# ------------------------------------------------------------- activity


def _statement_text(stmt) -> str | None:
    if stmt is None:
        return None
    try:
        return deparse(stmt)
    except Exception:
        return f"<{type(stmt).__name__}>"


def _cluster_instances(ext):
    """(name, instance) for every alive node, coordinator first, workers
    in pg_dist_node order, any unregistered nodes after."""
    if ext.cluster is None:
        yield ext.instance.name, ext.instance
        return
    order = {name: i for i, name in enumerate(ext.metadata.cache.nodes)}
    coord = ext.instance.name

    def sort_key(name):
        if name == coord:
            return (0, 0, name)
        return (1, order.get(name, len(order)), name)

    for name in sorted(ext.cluster.nodes, key=sort_key):
        instance = ext.cluster.nodes[name]
        if instance.is_up:
            yield name, instance


def citus_dist_stat_activity(ext, _session) -> list[list]:
    """:data:`ACTIVITY_COLUMNS` rows, one per open session on every alive
    node."""
    rows = []
    for name, instance in _cluster_instances(ext):
        now = instance.now()
        for session in instance.sessions:
            wait = session.wait_events.current
            stmt = session.current_stmt
            if session.state == "active":
                elapsed = now - session.query_start_at
            else:
                elapsed = session.last_query_seconds
            rows.append([
                global_pid(ext, name, session.backend_pid),
                name,
                session.backend_pid,
                getattr(session, "_citus_dist_txn_id", None),
                session.application_name,
                session.state,
                wait.wclass if wait is not None else None,
                wait.event if wait is not None else None,
                getattr(session, "_citus_tier", None),
                _statement_text(stmt),
                (statement_fingerprint(statement_facts(stmt))[1]
                 if stmt is not None else None),
                elapsed * 1000.0,
            ])
    return rows


# ------------------------------------------------------------ lock waits


def _pool_owner_index(ext) -> dict:
    """Map ``id(worker_session)`` -> the coordinator session whose
    SessionPools leased it. Needed because single-statement writes outside
    BEGIN never get distributed transaction ids, yet their worker-side
    lock waits must still be attributed to the originating query."""
    from .executor.placement import SessionPools

    index = {}
    for _name, instance in _cluster_instances(ext):
        for session in instance.sessions:
            pools = getattr(session, SessionPools.ATTR, None)
            if pools is None:
                continue
            for conn in pools.all_connections():
                index[id(conn.session)] = session
    return index


def _owner_session(ext, instance, xid, local_session, pool_owners):
    """Resolve the session whose query caused transaction ``xid`` on
    ``instance`` to exist: the coordinator session when the xid belongs to
    a distributed transaction or a pooled worker connection, else the
    local session itself."""
    mapped = instance.dist_txn_ids.get(xid)
    if mapped is not None:
        coord_name, dist_id = mapped
        try:
            coord = (ext.cluster.node(coord_name) if ext.cluster is not None
                     else ext.instance)
        except Exception:
            coord = None
        if coord is not None:
            for session in coord.sessions:
                if getattr(session, "_citus_dist_txn_id", None) == dist_id:
                    return coord_name, session
    if local_session is not None:
        owner = pool_owners.get(id(local_session))
        if owner is not None:
            return owner.instance.name, owner
    if local_session is not None:
        return instance.name, local_session
    return instance.name, None


def citus_lock_waits(ext, session) -> list[list]:
    """:data:`LOCK_WAIT_COLUMNS` rows: one per (waiter, holder) edge in any
    node's wait-for graph, with both sides mapped back to the query that
    is blocked / blocking — across nodes, via distributed transaction ids
    or pool-lease ownership."""
    pool_owners = _pool_owner_index(ext)
    rows = []
    for name, instance in _cluster_instances(ext):
        sessions_by_xid = {
            s.xid: s for s in instance.sessions if s.xid is not None
        }
        for waiter_xid, holder_xids in sorted(instance.locks.wait_edges.items()):
            key = instance.locks.wait_keys.get(waiter_xid)
            waiter_node, waiter = _owner_session(
                ext, instance, waiter_xid, sessions_by_xid.get(waiter_xid),
                pool_owners,
            )
            for holder_xid in sorted(holder_xids):
                holder_node, holder = _owner_session(
                    ext, instance, holder_xid, sessions_by_xid.get(holder_xid),
                    pool_owners,
                )
                rows.append([
                    (global_pid(ext, waiter_node, waiter.backend_pid)
                     if waiter is not None else None),
                    (global_pid(ext, holder_node, holder.backend_pid)
                     if holder is not None else None),
                    _statement_text(
                        waiter.current_stmt if waiter is not None else None),
                    _statement_text(
                        holder.current_stmt if holder is not None else None),
                    waiter_node,
                    holder_node,
                    key,
                ])
    return rows
