"""Per-session worker connection pools, and the session's own backend.

Citus caches connections per backend for reuse across statements; within a
transaction, connections carry shard-group affinity state. The pools hang
off the coordinator session object and are torn down when the Citus
transaction callbacks fire (commit/abort close the txn blocks but keep the
connections cached, matching "Citus caches connections for higher
performance" in §3.2.1).

A task whose placement is on the session's own node takes no connection:
it runs in the session's :class:`LocalBackend`.
"""

from __future__ import annotations

from ...engine.copy import append_rows
from ...engine.locks import WouldBlock
from ...net.network import RemoteConnection


class LocalBackend:
    """The session's own backend, where a task on its own node runs (local
    execution): the shard statement goes straight to the session's
    :class:`~repro.engine.executor.LocalExecutor`, under the session's xid,
    with no connection, round trip or wire bytes — the executor's timeline
    charges it its rows' CPU only. ``elapsed`` and ``bytes_transferred``
    are a connection's cost counters, here always 0. ``did_write``: the
    transaction wrote a local placement inside what would be a worker
    transaction block, so the commit callbacks count the session as a
    participant.

    A lock wait parks the session's own statement where its driver may
    park (one task); elsewhere it fails the transaction as a synchronous
    statement's wait does."""

    __slots__ = ("session", "node_name", "did_write")

    elapsed = 0.0
    bytes_transferred = 0

    def __init__(self, session):
        self.session = session
        self.node_name = session.instance.name
        self.did_write = False

    def execute_parsed(self, stmt, params=None, allow_block: bool = False):
        try:
            return self.session._execute_local_dml(stmt, params)
        except WouldBlock as block:
            if allow_block:
                raise
            raise self.session.fail_lock_wait(block) from None

    def execute_cursor(self, stmt, params=None,
                       batch_size: int = 256) -> "LocalCursor":
        return LocalCursor(self.session.open_cursor(stmt, params), batch_size)

    def copy_rows(self, table: str, rows, columns=None,
                  pipelined: bool = False) -> int:
        """A COPY chunk through the shard's generated append writer (no
        stream to ride: ``pipelined`` changes nothing)."""
        session = self.session
        try:
            return append_rows(session, table, rows, columns, "COPY")
        except WouldBlock as block:
            raise session.fail_lock_wait(block) from None


class LocalCursor:
    """A local task's rows in batches of ``batch_size``, as
    :class:`~repro.net.network.RemoteCursor` hands them out (None once
    drained; a short batch is the last), with nothing on the wire."""

    __slots__ = ("_cursor", "batch_size", "exhausted")

    last_payload = 0

    def __init__(self, cursor, batch_size: int):
        self._cursor = cursor
        self.batch_size = batch_size
        self.exhausted = False

    @property
    def columns(self):
        return self._cursor.columns

    def fetch_batch(self):
        if self.exhausted:
            return None
        batch = self._cursor.fetch(self.batch_size)
        if batch.count < self.batch_size:
            self.exhausted = True
        return batch if batch.count else None

    def close(self) -> None:
        self._cursor.close()


class SessionPools:
    ATTR = "_citus_pools"

    def __init__(self, ext, session):
        self.ext = ext
        self.session = session
        self.by_node: dict[str, list[RemoteConnection]] = {}
        # The distributed transaction in flight has touched a shard (set
        # when an executor run ends) and is committing in two phases (set
        # by pre-commit); both cleared by the commit / abort callbacks
        # that end the transaction.
        self.touched = False
        self.twopc = False
        self.local = LocalBackend(session)

    @classmethod
    def for_session(cls, session, ext) -> "SessionPools":
        pools = getattr(session, cls.ATTR, None)
        if pools is None:
            pools = cls(ext, session)
            setattr(session, cls.ATTR, pools)
        return pools

    # ------------------------------------------------------------- access

    def _usable(self, node: str, conn: RemoteConnection) -> bool:
        """A cached connection is dead once its node crashed or was
        replaced by a promoted standby."""
        if conn.closed or not conn.session.instance.is_up:
            return False
        current = self.ext.cluster.nodes.get(node) if self.ext.cluster else None
        return current is None or current is conn.session.instance

    def idle_connections(self, node: str) -> list[RemoteConnection]:
        alive = []
        for conn in self.by_node.get(node, []):
            if self._usable(node, conn):
                alive.append(conn)
            elif not conn.closed:
                conn.closed = True  # drop zombies from the pool
                # The zombie still holds a shared-pool slot and an entry in
                # the active-connection gauge; release both, or a crashed
                # node permanently shrinks max_shared_pool_size.
                self.ext.release_shared_slot(node)
                self.ext.stat_counters.gauge_decr("connections_active", node=node)
                self.ext.stat_counters.incr("connections_dropped", node=node)
        return alive

    def connection_for_group(self, node: str, shard_group) -> RemoteConnection | None:
        """The connection that already accessed this co-located shard group
        inside the current transaction, if any."""
        if shard_group is None:
            return None
        for conn in self.by_node.get(node, []):
            if self._usable(node, conn) and shard_group in conn.accessed_groups:
                return conn
        return None

    def open_connection(self, node: str) -> RemoteConnection:
        conn = self.ext.cluster.connect(node, application_name="citus")
        self.by_node.setdefault(node, []).append(conn)
        self.ext.stat_counters.gauge_incr("connections_active", node=node)
        return conn

    def all_connections(self) -> list[RemoteConnection]:
        return [c for conns in self.by_node.values() for c in conns if not c.closed]

    def txn_connections(self) -> list[RemoteConnection]:
        return [c for c in self.all_connections() if c.in_txn_block]

    # ----------------------------------------------------------- lifecycle

    def end_transaction(self) -> None:
        """Reset per-transaction state, keep connections cached."""
        for conn in self.all_connections():
            conn.in_txn_block = False
            conn.did_write = False
            conn.accessed_groups.clear()
        self.local.did_write = False
        self.session.remote_txns.clear()
        # The next transaction gets its own distributed id, a younger one.
        self.session._citus_dist_txn_id = None

    def close_all(self) -> None:
        for conns in self.by_node.values():
            for conn in conns:
                if not conn.closed:
                    conn.close()
                    self.ext.release_shared_slot(conn.node_name)
                    self.ext.stat_counters.gauge_decr(
                        "connections_active", node=conn.node_name
                    )
        self.by_node.clear()
