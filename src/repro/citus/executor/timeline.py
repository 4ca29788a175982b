"""One statement's worker connections and their reconstructed timeline.

The connection policy of §3.6.1 — slow start, the shared connection
limit, transaction affinity — for every way the adaptive executor runs a
statement (blocking tasks, streaming SELECT cursors, COPY channels).
Execution is single-threaded, so parallelism is reconstructed: each piece
of work is charged to the connection it ran on, a connection is "free" at
the end of what it has been charged so far, and the statement takes as
long as its busiest connection.

It is also the one place an executor run is *reported* from. The drivers
say what happened — a task began or ended on a node (:meth:`begin` /
:meth:`end`), a unit of connection work was done (:meth:`charge`), the run
is over (:meth:`settle` / :meth:`abandon`) — and the counters, in-flight
gauges, wait accounting and the run's entry in the statement record (see
:mod:`..record`) all follow from that here.

One task is its own timeline and builds none:
:meth:`~.adaptive.AdaptiveExecutor.execute_task` reports the same way, in
the same order, through the two pieces it shares with this class
(:func:`open_connection`, :func:`close_run`);
``tests/test_adaptive_executor.py`` holds the two to each other.
"""

from __future__ import annotations

from ...errors import NodeUnavailable
from ..record import (BATCH, BEGIN, CLOSE, CONNECT, DISPATCH, FAILED, FLUSH,
                      OK, TASK, TASKS)
from .placement import SessionPools

#: The ``Net`` wait event a unit of each kind is accounted as (opening a
#: transaction block and closing a cursor early are not waits).
_WAIT_EVENTS = {TASK: "RemoteExecute", DISPATCH: "RemoteDispatch",
                BATCH: "RemoteFetch", FLUSH: "RemoteCopy", CLOSE: None,
                BEGIN: None}

#: Counter a task's end is counted under (a skipped task never began).
_OUTCOME_COUNTERS = {"executed": "tasks_executed", "failed": "tasks_failed",
                     "blocked": "tasks_blocked", "skipped": "tasks_skipped"}


def open_connection(ext, session, pools, node: str, force: bool, report,
                    units, now: float):
    """Open a connection to ``node`` at ``now`` on the run's timeline and
    account for it; ``(connection, set-up seconds)``, or None when the
    shared pool limit says no — it never does to ``force``, a statement's
    first connection to a node."""
    if not ext.try_reserve_shared_slot(node, force=force):
        return None
    try:
        conn = pools.open_connection(node)
    except NodeUnavailable:
        ext.release_shared_slot(node)
        raise
    setup = ext.cluster.network.connection_setup_cost()
    report.connections_opened += 1
    ext.stat_counters.incr("connections_opened", node=node)
    session.wait_events.record("Net", "RemoteConnect", setup, node=node)
    if units is not None:
        units.append((CONNECT, -1, node, None, False, now, setup, 0, 0))
    return conn, setup


def close_run(ext, session, pools, driver: str, base: float, units, report,
              tasks, outcome: str, explicit: bool) -> None:
    """Close a run's entry in the statement record (``units`` None: nobody
    keeps one)."""
    if units is None:
        return
    # No transaction block, no local xid: the run never reaches the
    # commit callbacks and its transaction ends with it. Otherwise
    # they end it, and need to know it touched a shard.
    autocommit = not (explicit or session.remote_txns
                      or session.xid is not None)
    if units and not autocommit and outcome is not FAILED:
        pools.touched = True
    ext.telemetry.execution_end(driver, session, base, units, report, tasks,
                                outcome, explicit, autocommit)


class ConnectionTimeline:
    __slots__ = ("ext", "session", "pools", "report", "interval", "conns",
                 "busy", "preexisting", "used", "driver", "tasks", "base",
                 "explicit", "units", "counters")

    def __init__(self, executor, session, report, driver: str, tasks=None):
        ext = self.ext = executor.ext
        self.session = session
        self.pools = SessionPools.for_session(session, ext)
        self.report = report
        self.interval = ext.config.executor_slow_start_interval_ms / 1000.0
        self.conns: dict[str, list] = {}  # node -> connections in play
        self.busy: dict[int, float] = {}  # id(conn) -> time it is next free
        self.preexisting: set[int] = set()  # cached before this statement
        self.used: set[int] = set()
        self.driver = driver
        self.tasks = tasks
        self.base = ext.cluster.clock.now()
        self.explicit = session.in_transaction
        counters = self.counters = ext.stat_counters
        # A blocking-task run has always counted itself before the window
        # ring looks at the clock, the other two drivers after.
        if driver is TASKS:
            counters.incr("executor_statements")
        #: One tuple per unit of connection work (None: nobody wants them).
        self.units = ext.telemetry.execution_begin()
        if driver is not TASKS:
            counters.incr("executor_statements")
        counters.gauge_incr("executor_statements_in_flight")

    # ---------------------------------------------------------- connections

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
        # The shared pool limit never starves a statement of its first
        # connection to a node; beyond that it is strict.
        opened = open_connection(self.ext, self.session, self.pools, node,
                                 not conns, self.report, self.units, now)
        if opened is None:
            return None
        conn, setup = opened
        conns.append(conn)
        self.busy[id(conn)] = now + setup
        return conn

    # ------------------------------------------------------------ reporting

    def begin(self, node: str) -> None:
        """A task (shard stream, COPY channel) is now in flight on ``node``."""
        self.counters.gauge_incr("tasks_in_flight", node=node)

    def end(self, node: str, outcome: str) -> None:
        """The task ended: ``executed``, ``failed``, ``blocked`` (a shard
        stream hit a lock and the statement times out) or ``skipped``
        (never begun: the merge was satisfied without it)."""
        counters = self.counters
        if outcome != "skipped":
            counters.gauge_decr("tasks_in_flight", node=node)
        counters.incr(_OUTCOME_COUNTERS[outcome], node=node)

    def charge(self, conn, cost: float, kind: int, index: int, shard_group,
               is_write: bool, rows: int, nbytes: int) -> None:
        """One unit of connection work: occupy ``conn`` for ``cost``
        simulated seconds from the moment it is free, account the wait,
        and keep the unit for the record."""
        start = self.busy[id(conn)]
        self.busy[id(conn)] = start + cost
        node = conn.node_name
        wait_event = _WAIT_EVENTS[kind]
        if wait_event is not None:
            self.session.wait_events.record("Net", wait_event, cost, node=node)
        if self.units is not None:
            self.units.append((kind, index, node, shard_group, is_write,
                               start, cost, rows, nbytes))
        if kind == BATCH:
            if rows:
                report = self.report
                report.batches_fetched += 1
                report.bytes_streamed += nbytes
                self.counters.incr("batches_fetched", node=node)
                self.counters.incr("bytes_streamed", nbytes, node=node)
        elif kind == FLUSH:
            report = self.report
            report.copy_flushes += 1
            report.copy_rows_routed += rows
            report.copy_bytes_streamed += nbytes
            counters = self.counters
            counters.incr("copy_flushes", node=node)
            counters.incr("copy_rows_routed", rows, node=node)
            counters.incr("copy_bytes_streamed", nbytes, node=node)

    def settle(self, ok: bool = True, overlapped: bool = False) -> None:
        """The run is over: fill the report's connection telemetry
        (``report.elapsed`` is the busiest connection's time), advance the
        clock by it — by what is left of it beyond the time that already
        passed since the run began, when it ``overlapped`` the work that
        fed it — and close the run's entry in the record. ``ok`` False: a
        task failed on the way, so the run counts for nothing but its own
        cost."""
        report = self.report
        counters = self.counters
        reusable = self.used & self.preexisting
        for node, conns in self.conns.items():
            report.per_node_connections[node] = len(conns)
            reused = sum(1 for c in conns if id(c) in reusable)
            if reused:
                report.connections_reused += reused
                counters.incr("connections_reused", reused, node=node)
        report.connections_used = sum(report.per_node_connections.values())
        report.elapsed = max(self.busy.values(), default=0.0)
        self.session.stats["citus_connections"] += report.connections_opened
        clock = self.ext.cluster.clock
        if overlapped:
            clock.advance(max(0.0, report.elapsed - (clock.now() - self.base)))
        else:
            clock.advance(report.elapsed)
        counters.gauge_decr("executor_statements_in_flight")
        if report.rows_buffered_peak:
            counters.gauge_max("rows_buffered_peak", report.rows_buffered_peak)
        if report.copy_channel_peak_rows:
            counters.gauge_max("copy_channel_peak_rows",
                               report.copy_channel_peak_rows)
        self._close(OK if ok else FAILED)

    def abandon(self) -> None:
        """A blocking task raised: the statement fails without the run
        being settled."""
        self.counters.gauge_decr("executor_statements_in_flight")
        self.report.elapsed = max(self.busy.values(), default=0.0)
        self._close(FAILED)

    def _close(self, outcome: str) -> None:
        close_run(self.ext, self.session, self.pools, self.driver, self.base,
                  self.units, self.report, self.tasks, outcome, self.explicit)
