"""PgBouncer-style transaction-mode connection pool (§3.2.1).

When every worker acts as a coordinator, each client connection fans out
into intra-cluster connections; the paper mitigates the resulting
connection explosion "by setting up connection pooling between the
instances, via PgBouncer". The pool multiplexes many client handles over a
bounded set of server sessions, leasing a server session per transaction.
"""

from __future__ import annotations

from ..engine.stats import stats_for
from ..engine.waitevents import WaitEventStack
from ..errors import TooManyConnections


class ConnectionPool:
    def __init__(self, instance, pool_size: int = 20, max_client_conn: int = 1000,
                 stats_holder=None):
        self.instance = instance
        self.pool_size = pool_size
        self.max_client_conn = max_client_conn
        # Counters default to the instance's private registry; passing the
        # cluster as stats_holder folds pool accounting into the shared
        # cluster-wide registry (citus_stat_counters, metrics snapshot).
        self.stats = stats_for(stats_holder if stats_holder is not None else instance)
        # Client:PoolLease wait events; the context-manager push/pop keeps
        # the in-progress gauge balanced even when a lease attempt fails.
        self.wait_events = WaitEventStack(instance)
        self._node = getattr(instance, "name", None)
        self._idle: list = []
        self._lease_count = 0
        self._client_count = 0
        #: Lease attempts that found every server session busy and raised
        #: ``TooManyConnections`` (mirrors the ``pool_exhausted`` counter;
        #: this pool rejects rather than queueing, so the client retries).
        self.waits = 0
        self.peak_leases = 0
        self.peak_clients = 0

    def client(self) -> "PooledClient":
        if self._client_count >= self.max_client_conn:
            self.stats.incr("pool_client_rejections", node=self._node)
            raise TooManyConnections("pgbouncer: no more client connections allowed")
        self._client_count += 1
        self.peak_clients = max(self.peak_clients, self._client_count)
        self.stats.gauge_incr("pool_clients", node=self._node)
        return PooledClient(self)

    @property
    def client_count(self) -> int:
        """Currently open client handles (high-water mark in ``peak_clients``)."""
        return self._client_count

    def _event(self, name: str, **attrs) -> None:
        """A pool event in the statement being recorded, if one is (the
        instance has a telemetry object once a Citus cluster attached it)."""
        telemetry = getattr(self.instance, "telemetry", None)
        if telemetry is not None and telemetry.traced is not None:
            telemetry.event(name, "pool", node=self._node, **attrs)

    def _acquire(self):
        with self.wait_events.waiting("Client", "PoolLease"):
            return self._lease_session()

    def _lease_session(self):
        if self._idle:
            session = self._idle.pop()
            self.stats.incr("pool_session_reuses", node=self._node)
            self._event("pool.lease", reused=True)
        elif self._lease_count < self.pool_size:
            session = self.instance.connect("pgbouncer")
            self.stats.incr("pool_sessions_opened", node=self._node)
            self._event("pool.lease", reused=False)
        else:
            self.waits += 1
            self.stats.incr("pool_exhausted", node=self._node)
            self._event("pool.exhausted", pool_size=self.pool_size)
            raise _PoolExhausted()
        self._lease_count += 1
        self.stats.gauge_incr("pool_leases", node=self._node)
        self.peak_leases = max(self.peak_leases, self._lease_count)
        return session

    def _release(self, session) -> None:
        self._lease_count -= 1
        self.stats.gauge_decr("pool_leases", node=self._node)
        self._event("pool.release")
        if session.in_transaction:
            session.rollback()
        self._idle.append(session)

    def close(self) -> None:
        for session in self._idle:
            session.close()
        self._idle.clear()


class _PoolExhausted(TooManyConnections):
    def __init__(self):
        super().__init__("pgbouncer: server pool exhausted, transaction queued")


class PooledClient:
    """A client handle: leases a server session per transaction block
    (transaction pooling mode), or per statement outside a block."""

    def __init__(self, pool: ConnectionPool):
        self.pool = pool
        self._leased = None
        self.closed = False

    def execute(self, sql: str, params=None):
        if self.closed:
            raise TooManyConnections(
                "pgbouncer: client handle is closed"
            )
        session = self._leased
        if session is None:
            session = self.pool._acquire()
        try:
            result = session.execute(sql, params)
        except Exception:
            if session.in_transaction:
                session.rollback()
            self.pool._release(session)
            self._leased = None
            raise
        if session.in_transaction:
            self._leased = session
        else:
            self._leased = None
            self.pool._release(session)
        return result

    def copy_rows(self, table: str, rows, columns=None) -> int:
        """Programmatic COPY FROM through the pool, with the same lease /
        release semantics as :meth:`execute` (COPY autocommits outside a
        transaction block, so the server session is released afterwards)."""
        if self.closed:
            raise TooManyConnections(
                "pgbouncer: client handle is closed"
            )
        session = self._leased
        if session is None:
            session = self.pool._acquire()
        try:
            count = session.copy_rows(table, rows, columns)
        except Exception:
            if session.in_transaction:
                session.rollback()
            self.pool._release(session)
            self._leased = None
            raise
        if session.in_transaction:
            self._leased = session
        else:
            self._leased = None
            self.pool._release(session)
        return count

    def close(self) -> None:
        """Idempotent: a double close must not underflow ``_client_count``
        or the ``pool_clients`` gauge (which would permanently inflate the
        pool's client capacity)."""
        if self.closed:
            return
        self.closed = True
        if self._leased is not None:
            self.pool._release(self._leased)
            self._leased = None
        self.pool._client_count -= 1
        self.pool.stats.gauge_decr("pool_clients", node=self.pool._node)
