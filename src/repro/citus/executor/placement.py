"""Per-session worker connection pools.

Citus caches connections per backend for reuse across statements; within a
transaction, connections carry shard-group affinity state. The pools hang
off the coordinator session object and are torn down when the Citus
transaction callbacks fire (commit/abort close the txn blocks but keep the
connections cached, matching "Citus caches connections for higher
performance" in §3.2.1).
"""

from __future__ import annotations

from ...net.network import RemoteConnection


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
        self.session.remote_txns.clear()

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
