"""One statement's worker connections and their reconstructed timeline.

The connection policy of §3.6.1 — slow start, the shared connection
limit, transaction affinity — for every way the adaptive executor runs a
statement (blocking tasks, streaming SELECT cursors, COPY channels).
Execution is single-threaded, so parallelism is reconstructed: each piece
of work is charged to the connection it ran on, a connection is "free" at
the end of what it has been charged so far, and the statement takes as
long as its busiest connection.
"""

from __future__ import annotations

from ...errors import NodeUnavailable
from .placement import SessionPools


class ConnectionTimeline:
    __slots__ = ("ext", "session", "pools", "report", "interval", "conns",
                 "busy", "preexisting", "used", "connects")

    def __init__(self, executor, session, report, tracing: bool):
        self.ext = executor.ext
        self.session = session
        self.pools = SessionPools.for_session(session, self.ext)
        self.report = report
        self.interval = executor.slow_start_interval
        self.conns: dict[str, list] = {}  # node -> connections in play
        self.busy: dict[int, float] = {}  # id(conn) -> time it is next free
        self.preexisting: set[int] = set()  # cached before this statement
        self.used: set[int] = set()
        # (node, start, end) of every connection established, for spans.
        self.connects: list | None = [] if tracing else None

    def _node_conns(self, node: str) -> list:
        conns = self.conns.get(node)
        if conns is None:
            conns = self.conns[node] = list(self.pools.idle_connections(node))
            for conn in conns:
                self.busy[id(conn)] = 0.0
                self.preexisting.add(id(conn))
        return conns

    def pinned(self, node: str, shard_group):
        """Transaction affinity: the connection that already touched this
        co-located shard group must run every later task on it. None when
        the group is not pinned."""
        conns = self._node_conns(node)
        conn = self.pools.connection_for_group(node, shard_group)
        if conn is not None:
            if id(conn) not in self.busy:
                # Opened by another execution of this session since this
                # node was first looked at (an INSERT..SELECT's read side).
                conns.append(conn)
                self.busy[id(conn)] = 0.0
                self.preexisting.add(id(conn))
            self.used.add(id(conn))
        return conn

    def acquire(self, node: str, shard_group, remaining: int):
        """The connection for the next piece of work on ``node``: the
        pinned one if there is one, else a :meth:`pick`."""
        conn = self.pinned(node, shard_group)
        return conn if conn is not None else self.pick(node, remaining)

    def pick(self, node: str, remaining: int):
        """A connection for unpinned work: the earliest-free one, or a new
        one when slow start allows. ``remaining`` counts this piece of work
        and those still to come on ``node``."""
        conns = self._node_conns(node)
        if not conns:
            conn = self._open(node, conns, 0.0)
        else:
            busy = self.busy
            conn = min(conns, key=lambda c: busy[id(c)])
            now = busy[id(conn)]
            # Slow start: the pool target grows by one every interval of
            # simulated time and never exceeds the work there is for it.
            allowance = 1 + int(now / self.interval)
            in_use = sum(1 for c in conns if busy[id(c)] > now)
            if len(conns) < min(allowance, remaining + in_use):
                conn = self._open(node, conns, now) or conn
        self.used.add(id(conn))
        return conn

    def _open(self, node: str, conns: list, now: float):
        ext = self.ext
        # The shared pool limit never starves a statement of its first
        # connection to a node; beyond that it is strict.
        if not ext.try_reserve_shared_slot(node, force=not conns):
            return None
        try:
            conn = self.pools.open_connection(node)
        except NodeUnavailable:
            ext.release_shared_slot(node)
            raise
        setup = ext.cluster.network.connection_setup_cost()
        conns.append(conn)
        self.busy[id(conn)] = now + setup
        self.report.connections_opened += 1
        ext.stat_counters.incr("connections_opened", node=node)
        self.session.wait_events.record("Net", "RemoteConnect", setup, node=node)
        if self.connects is not None:
            self.connects.append((node, now, now + setup))
        return conn

    def charge(self, conn, cost: float) -> float:
        """Occupy ``conn`` for ``cost`` simulated seconds from the moment it
        is free; returns that moment."""
        start = self.busy[id(conn)]
        self.busy[id(conn)] = start + cost
        return start

    def settle(self) -> None:
        """Fill the report's connection telemetry; ``report.elapsed`` is
        the busiest connection's time."""
        report = self.report
        reusable = self.used & self.preexisting
        for node, conns in self.conns.items():
            report.per_node_connections[node] = len(conns)
            reused = sum(1 for c in conns if id(c) in reusable)
            if reused:
                report.connections_reused += reused
                self.ext.stat_counters.incr("connections_reused", reused, node=node)
        report.connections_used = sum(report.per_node_connections.values())
        report.elapsed = max(self.busy.values(), default=0.0)
        self.session.stats["citus_connections"] += report.connections_opened

    def emit_connect_spans(self, tracer, base: float) -> None:
        for node, start, end in self.connects:
            tracer.add_span("connect", "network", base + start, base + end,
                            node=node)
