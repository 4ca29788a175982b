"""Adaptive executor (§3.6.1).

Runs a distributed plan's tasks over per-worker connection pools with:

- **slow start** — a statement begins with one connection per worker; every
  10 ms (simulated) the number of connections it may open grows by one, so
  sub-millisecond index lookups never pay for extra connections while long
  analytical tasks fan out to full parallelism;
- **shared connection limit** — a per-worker cap shared by all sessions on
  this node (``citus.max_shared_pool_size``), tracked in "shared memory"
  (the extension object);
- **connection affinity** — within a transaction, the connection that first
  touched a co-located shard group handles every later task on that group,
  preserving the visibility of uncommitted writes and locks.

That policy, and the timeline it is reconstructed on (execution is
functionally sequential; work is charged to the connection it ran on and a
statement takes as long as its busiest connection), live in
:class:`~.timeline.ConnectionTimeline`. This module drives it three ways:
blocking tasks (:meth:`AdaptiveExecutor.execute_tasks` — multi-shard DML,
multi-row INSERT, reference writes), per-task cursors
(:class:`StreamingExecution` — every multi-shard SELECT) and per-shard COPY
channels (:class:`CopyChannelExecution` — every COPY / re-routing
INSERT..SELECT). One task (fast path, router, anything pruned to a shard)
needs none of it — one connection is its own timeline — and takes
:meth:`AdaptiveExecutor.execute_task`, which reports the run exactly as the
timeline would. Parking on a lock belongs to that driver alone, slow start
to the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...engine.locks import WouldBlock
from ..record import (BATCH, BEGIN, BLOCKED, BLOCKED_TASK, CHANNELS, CLOSE,
                      DISPATCH, FAILED, FLUSH, OK, STREAMS, TASK, TASKS)
from ..txn.deadlock import assign_distributed_txn_ids
from .placement import SessionPools
from .timeline import ConnectionTimeline, close_run, open_connection


@dataclass
class ExecutionReport:
    """Telemetry for one distributed statement (consumed by tests and the
    performance model)."""

    task_count: int = 0
    connections_used: int = 0
    connections_opened: int = 0
    connections_reused: int = 0
    elapsed: float = 0.0
    per_node_connections: dict = field(default_factory=dict)
    # Streaming SELECT telemetry (zero for blocking tasks).
    bytes_streamed: int = 0
    batches_fetched: int = 0
    rows_buffered_peak: int = 0
    early_terminations: int = 0
    tasks_skipped: int = 0
    # COPY channel telemetry (zero unless the statement routes rows).
    copy_flushes: int = 0
    copy_rows_routed: int = 0
    copy_bytes_streamed: int = 0
    copy_channel_peak_rows: int = 0


class AdaptiveExecutor:
    def __init__(self, ext):
        self.ext = ext
        self.last_report: ExecutionReport | None = None

    # ------------------------------------------------------------ public

    def execute_tasks(self, session, tasks, is_write: bool = False):
        """Run tasks, return a list of QueryResults aligned with tasks."""
        if len(tasks) == 1:
            return [self.execute_task(session, tasks[0], is_write)]
        return self._execute_many(session, tasks, is_write)

    def execute_task(self, session, task, is_write: bool = False):
        """One task on one connection, as a straight line: the connection
        transaction affinity pins, else the node's first idle cached one,
        else a new one; BEGIN inside a transaction block; run; charge;
        advance the clock. The report, units, counters, gauges and wait
        events are the ones a :class:`ConnectionTimeline` of one task
        produces, in its order. A lock wait on the worker parks the
        statement (:class:`~repro.net.network.RemoteBlocked` propagates)."""
        ext = self.ext
        counters = ext.stat_counters
        pools = SessionPools.for_session(session, ext)
        report = ExecutionReport(task_count=1)
        clock = ext.cluster.clock
        base = clock.now()
        explicit = session.in_transaction
        # Counted before the window ring looks at the clock.
        counters.incr("executor_statements")
        units = ext.telemetry.execution_begin()
        counters.gauge_incr("executor_statements_in_flight")
        node, group = task.node, task.shard_group
        free = 0.0  # when the connection is next free, from ``base``
        outcome = FAILED
        try:
            idle = pools.idle_connections(node)
            conn = idle[0] if idle else None
            for cached in idle:
                if group in cached.accessed_groups:
                    conn = cached
                    break
            reused = conn is not None
            if not reused:
                conn, free = open_connection(ext, session, pools, node, True,
                                             report, units, 0.0)
            # The in-flight gauge is settled on every way out, so a failing
            # task (node crash, SQL error) can never leave it stuck.
            counters.gauge_incr("tasks_in_flight", node=node)
            before, bytes_before = conn.elapsed, conn.bytes_transferred
            begin_bytes = 0
            try:
                if explicit:
                    _enter_txn_block(ext, session, conn, is_write)
                    # The BEGIN's round trip is not on the task's timeline;
                    # its bytes are on the task's span.
                    begin_bytes = conn.bytes_transferred - bytes_before
                    before, bytes_before = conn.elapsed, conn.bytes_transferred
                if group is not None:
                    conn.accessed_groups.add(group)
                result = conn.execute_parsed(task.stmt, task.params,
                                             allow_block=True)
            except WouldBlock:
                # Lock wait: the statement parks — an executor suspension,
                # not a task failure. What it did so far is kept, and counts
                # if the statement goes on to complete; the connection stays
                # free.
                outcome = BLOCKED
                if units is not None:
                    units.append((BLOCKED_TASK, 0, node, group, is_write, free,
                                  conn.elapsed - before, 0,
                                  conn.bytes_transferred - bytes_before))
                counters.gauge_decr("tasks_in_flight", node=node)
                counters.incr("tasks_blocked", node=node)
                raise
            except Exception:
                counters.gauge_decr("tasks_in_flight", node=node)
                counters.incr("tasks_failed", node=node)
                raise
        except BaseException:
            counters.gauge_decr("executor_statements_in_flight")
            report.elapsed = free
            close_run(ext, session, pools, TASKS, base, units, report, None,
                      outcome, explicit)
            raise
        counters.gauge_decr("tasks_in_flight", node=node)
        counters.incr("tasks_executed", node=node)
        # Simulated cost: network latency accrued plus a CPU term
        # proportional to rows produced/affected.
        rows = result.rowcount if result.rowcount else len(result.rows)
        cost = (conn.elapsed - before) + rows * ext.config.per_row_cpu_cost
        session.wait_events.record("Net", "RemoteExecute", cost, node=node)
        if units is not None:
            if begin_bytes:
                units.append((BEGIN, 0, node, group, False, free, 0.0, 0,
                              begin_bytes))
            units.append((TASK, 0, node, group, is_write, free, cost, rows,
                          conn.bytes_transferred - bytes_before))
        # Every idle cached connection of the node was in play.
        report.connections_used = report.per_node_connections[node] = (
            len(idle) + report.connections_opened)
        if reused:
            report.connections_reused = 1
            counters.incr("connections_reused", 1, node=node)
        report.elapsed = free + cost
        session.stats["citus_connections"] += report.connections_opened
        clock.advance(report.elapsed)
        counters.gauge_decr("executor_statements_in_flight")
        close_run(ext, session, pools, TASKS, base, units, report, None, OK,
                  explicit)
        session.stats["citus_tasks"] += 1
        self.last_report = report
        if not explicit and not conn.in_txn_block:
            # Shard-group affinity only matters within a transaction.
            conn.accessed_groups.clear()
        return result

    def _execute_many(self, session, tasks, is_write: bool) -> list:
        """Blocking tasks over a :class:`ConnectionTimeline`: affinity-pinned
        tasks on their own connections, the rest over each node's
        slow-started pool. A lock wait surfaces as a lock timeout."""
        report = ExecutionReport(task_count=len(tasks))
        timeline = ConnectionTimeline(self, session, report, TASKS)
        need_txn_block = session.in_transaction or (
            is_write and _multi_group(tasks))

        results: list = [None] * len(tasks)
        by_node: dict[str, list[int]] = {}
        for i, task in enumerate(tasks):
            by_node.setdefault(task.node, []).append(i)

        def run(conn, i):
            self._execute_task(session, timeline, conn, tasks[i], results, i,
                               need_txn_block, is_write)

        try:
            for node, indexes in by_node.items():
                # Tasks pinned by transaction affinity run first, on
                # their own connections; the rest share the node's
                # slow-started pool.
                general = []
                for i in indexes:
                    conn = timeline.pinned(node, tasks[i].shard_group)
                    if conn is None:
                        general.append(i)
                    else:
                        run(conn, i)
                for n, i in enumerate(general):
                    run(timeline.pick(node, len(general) - n), i)
        except BaseException:
            timeline.abandon()
            raise
        timeline.settle()
        session.stats["citus_tasks"] += len(tasks)
        self.last_report = report
        if not need_txn_block:
            _clear_affinity(timeline.pools)
        return results

    def _execute_task(self, session, timeline, conn, task, results, i,
                      need_txn_block, is_write) -> None:
        node = conn.node_name
        group = task.shard_group
        # The in-flight gauge is settled on every way out, so a failing
        # task (node crash, lock timeout, SQL error) can never leave it stuck.
        timeline.begin(node)
        before, bytes_before = conn.elapsed, conn.bytes_transferred
        begin_bytes = 0
        try:
            if need_txn_block:
                _enter_txn_block(self.ext, session, conn, is_write)
                # The BEGIN's round trip is not on the task's timeline; its
                # bytes are on the task's span.
                begin_bytes = conn.bytes_transferred - bytes_before
                before, bytes_before = conn.elapsed, conn.bytes_transferred
            if group is not None:
                conn.accessed_groups.add(group)
            result = conn.execute_parsed(task.stmt, task.params)
        except Exception:
            timeline.end(node, "failed")
            raise
        timeline.end(node, "executed")
        results[i] = result
        # Per-task simulated cost: network latency accrued plus a CPU term
        # proportional to rows produced/affected.
        rows = result.rowcount if result.rowcount else len(result.rows)
        cost = (conn.elapsed - before) + rows * self.ext.config.per_row_cpu_cost
        if begin_bytes:
            timeline.charge(conn, 0.0, BEGIN, i, group, False, 0, begin_bytes)
        timeline.charge(conn, cost, TASK, i, group, is_write, rows,
                        conn.bytes_transferred - bytes_before)

    # -------------------------------------------------------- streaming

    def open_task_streams(self, session, tasks):
        """Entry point for multi-shard SELECTs: a :class:`StreamingExecution`
        whose per-task :class:`TaskStream` handles pull row batches on
        demand (none at all when every shard was pruned)."""
        return StreamingExecution(self, session, tasks,
                                  batch_size=self.ext.config.stream_batch_size)

    def open_copy_channels(self, session, expected_by_node):
        """Write-side entry point: a :class:`CopyChannelExecution` that
        accepts incremental per-shard COPY flushes from the
        ShardCopyRouter. ``expected_by_node`` counts the destination
        channels placed on each node."""
        return CopyChannelExecution(self, session, expected_by_node)


class TaskStream:
    """Pull handle for one task's rows. The remote cursor opens lazily on
    first fetch, so a coordinator merge that is satisfied early never
    dispatches the remaining tasks at all."""

    __slots__ = ("execution", "index", "task", "cursor", "conn", "opened",
                 "done", "failed")

    def __init__(self, execution: "StreamingExecution", index: int, task):
        self.execution = execution
        self.index = index
        self.task = task
        self.cursor = None
        self.conn = None
        self.opened = False
        self.done = False
        self.failed = False

    @property
    def columns(self):
        self.ensure_open()
        return self.cursor.columns

    def ensure_open(self) -> None:
        if not self.opened:
            self.execution._open_stream(self)

    def fetch(self):
        """Next row batch, or None once this shard stream is drained."""
        if self.done:
            return None
        self.ensure_open()
        return self.execution._fetch(self)

    def close(self) -> None:
        self.execution._close_stream(self)


class StreamingExecution:
    """One multi-shard SELECT executed as per-task remote cursors.

    Execution stays functionally sequential (single-threaded simulation),
    but the timeline is reconstructed as if the shard streams drained in
    parallel: every dispatch/fetch charges simulated busy time to the
    connection it ran on, and :meth:`finish` advances the clock by the
    maximum busy time over connections.
    """

    def __init__(self, executor: AdaptiveExecutor, session, tasks, batch_size: int):
        self.executor = executor
        self.ext = executor.ext
        self.session = session
        self.tasks = tasks
        self.batch_size = batch_size
        self.report = ExecutionReport(task_count=len(tasks))
        self.streams = [TaskStream(self, i, t) for i, t in enumerate(tasks)]
        self.need_txn_block = session.in_transaction
        # Slow-start sizing: streams not yet dispatched, per node.
        self._unopened: dict[str, int] = {}
        for task in tasks:
            self._unopened[task.node] = self._unopened.get(task.node, 0) + 1
        self._early_noted = False
        self._finished = False
        self.timeline = ConnectionTimeline(executor, session, self.report,
                                           STREAMS, tasks)

    # -------------------------------------------------- merge-side hooks

    def note_buffered(self, n: int) -> None:
        """Record the coordinator merge's current buffered row count."""
        if n > self.report.rows_buffered_peak:
            self.report.rows_buffered_peak = n

    def note_early_termination(self) -> None:
        """The merge is satisfied with shard streams still undrained."""
        if not self._early_noted:
            self._early_noted = True
            self.report.early_terminations += 1
            self.ext.stat_counters.incr("early_terminations")

    # ------------------------------------------------------ stream plumbing

    def _open_stream(self, stream: TaskStream) -> None:
        task = stream.task
        node = task.node
        timeline = self.timeline
        conn = timeline.acquire(node, task.shard_group, self._unopened[node])
        self._unopened[node] -= 1
        stream.conn = conn
        stream.opened = True
        if self.need_txn_block:
            _enter_txn_block(self.ext, self.session, conn)
        if task.shard_group is not None:
            conn.accessed_groups.add(task.shard_group)
        timeline.begin(node)
        before = conn.elapsed
        bytes_before = conn.bytes_transferred
        try:
            stream.cursor = conn.execute_cursor(
                task.stmt, task.params, batch_size=self.batch_size)
        except WouldBlock as block:
            self._stream_finished(stream, "blocked")
            from ...errors import LockTimeout

            raise LockTimeout(f"could not obtain lock: {block}") from None
        except Exception:
            self._stream_finished(stream, "failed")
            raise
        # The read is noted at dispatch (its bytes accrue per fetch), so
        # even a zero-row shard stream appears in the access set.
        timeline.charge(conn, conn.elapsed - before, DISPATCH, stream.index,
                        task.shard_group, False, 0,
                        conn.bytes_transferred - bytes_before)

    def _fetch(self, stream: TaskStream):
        conn = stream.conn
        before = conn.elapsed
        try:
            batch = stream.cursor.fetch_batch()
        except WouldBlock as block:
            # Multi-task statements never park; a remote lock wait during
            # a fetch surfaces as a lock timeout, like the blocking path.
            self._stream_finished(stream, "blocked")
            from ...errors import LockTimeout

            raise LockTimeout(f"could not obtain lock: {block}") from None
        except Exception:
            self._stream_finished(stream, "failed")
            raise
        cost = conn.elapsed - before
        rows = len(batch) if batch else 0
        if rows:
            cost += rows * self.ext.config.per_row_cpu_cost
        self.timeline.charge(conn, cost, BATCH, stream.index,
                             stream.task.shard_group, False, rows,
                             stream.cursor.last_payload if rows else 0)
        if batch is None:
            self._stream_finished(stream)
        return batch

    def _close_stream(self, stream: TaskStream) -> None:
        if stream.done:
            return
        if not stream.opened:
            # Never dispatched: the early-terminated merge skipped this
            # task outright — no connection, no round trips, no worker CPU.
            stream.done = True
            self.report.tasks_skipped += 1
            self.timeline.end(stream.task.node, "skipped")
            return
        conn = stream.conn
        before = conn.elapsed
        stream.cursor.close()
        self.timeline.charge(conn, conn.elapsed - before, CLOSE, stream.index,
                             stream.task.shard_group, False, 0, 0)
        self._stream_finished(stream)

    def _stream_finished(self, stream: TaskStream,
                         outcome: str = "executed") -> None:
        if stream.done:
            return
        stream.done = True
        stream.failed = outcome != "executed"
        node = stream.conn.node_name if stream.conn is not None else stream.task.node
        self.timeline.end(node, outcome)

    # ------------------------------------------------------------ finish

    def finish(self) -> ExecutionReport:
        """Close remaining streams, reconstruct the parallel timeline, and
        settle counters/gauges. Idempotent; always called (``finally``)."""
        if self._finished:
            return self.report
        self._finished = True
        for stream in self.streams:
            if not stream.done:
                try:
                    self._close_stream(stream)
                except Exception:
                    # Teardown must settle gauges even over broken conns.
                    self._stream_finished(stream, "failed")
        # A failed stream fails the statement: its accesses must not count
        # toward the transaction's co-access set.
        self.timeline.settle(ok=not any(s.failed for s in self.streams))
        self.session.stats["citus_tasks"] += len(self.tasks)
        self.executor.last_report = self.report
        if not self.session.in_transaction and not self.need_txn_block:
            _clear_affinity(self.timeline.pools)
        return self.report


class CopyChannelExecution:
    """One distributed write statement executed as per-shard COPY channels.

    The write-side counterpart of :class:`StreamingExecution`: the
    ShardCopyRouter hands over bounded row batches ("flushes") as its
    channels fill. Every flush runs inside a worker transaction block
    registered in ``session.remote_txns`` — a mid-stream error aborts
    through the normal statement-failure path and rolls back every shard,
    and the statement's commit settles through the 1PC/2PC callbacks.

    Connection affinity pins each shard group to the connection that took
    its first flush, so rows arrive at a shard in routing order and later
    statements in the same transaction see the uncommitted COPY. The
    timeline is reconstructed as if channels flushed in parallel: each
    flush charges simulated busy time to its connection. Because the
    flushes overlap the statement's read side (the distributed SELECT or
    client COPY stream that feeds the router), :meth:`finish` advances the
    clock only by the write timeline's *non-overlapped* remainder — the
    statement's end-to-end time is max(read, write), not read + write,
    which is exactly the pipelining win of §3.8.
    """

    def __init__(self, executor: AdaptiveExecutor, session, expected_by_node):
        self.executor = executor
        self.ext = executor.ext
        self.session = session
        self.report = ExecutionReport()
        # Slow-start sizing: how many channels may still open per node (the
        # count of destination shards placed there).
        self._unopened: dict[str, int] = dict(expected_by_node)
        self._channels: dict = {}  # channel key -> per-channel state
        self._finished = False
        # The timeline's base is the clock position when routing began:
        # everything the read side advances between now and finish()
        # overlaps the write timeline.
        self.timeline = ConnectionTimeline(executor, session, self.report,
                                           CHANNELS)

    # --------------------------------------------------- router-side hooks

    def note_buffered(self, n: int) -> None:
        """Record a buffered-row high-water mark from the router (its
        total across all channels) — the write-side bounded-buffer
        acceptance metric."""
        if n > self.report.copy_channel_peak_rows:
            self.report.copy_channel_peak_rows = n

    # ------------------------------------------------------------ channels

    def _channel(self, key, index, node, shard_group) -> dict:
        channel = self._channels.get(key)
        if channel is None:
            conn = self.timeline.acquire(node, shard_group,
                                         self._unopened[node])
            self._unopened[node] -= 1
            if shard_group is not None:
                conn.accessed_groups.add(shard_group)
            channel = {"index": index, "node": node, "conn": conn,
                       "flushes": 0, "done": False, "failed": False}
            self._channels[key] = channel
            self.timeline.begin(node)
        return channel

    def flush(self, key, index, node, shard_group, shard_name, columns,
              rows) -> None:
        """Ship one bounded row batch to its destination shard, inside the
        write transaction."""
        channel = self._channel(key, index, node, shard_group)
        conn = channel["conn"]
        # Every flush is transactional: a later error must be able to roll
        # back rows that already crossed the wire.
        _enter_txn_block(self.ext, self.session, conn, is_write=True)
        before = conn.elapsed
        bytes_before = conn.bytes_transferred
        try:
            # The first flush opens the shard's COPY stream (a round trip);
            # later flushes ride it asynchronously at bandwidth cost only.
            conn.copy_rows(shard_name, rows, columns,
                           pipelined=channel["flushes"] > 0)
        except Exception:
            self._channel_finished(channel, "failed")
            raise
        channel["flushes"] += 1
        cost = (conn.elapsed - before) + len(rows) * self.ext.config.per_row_cpu_cost
        self.timeline.charge(conn, cost, FLUSH, index, shard_group, True,
                             len(rows), conn.bytes_transferred - bytes_before)

    def _channel_finished(self, channel: dict, outcome: str = "executed") -> None:
        if channel["done"]:
            return
        channel["done"] = True
        channel["failed"] = outcome != "executed"
        self.timeline.end(channel["node"], outcome)

    # ------------------------------------------------------------ finish

    def finish(self) -> ExecutionReport:
        """Settle counters/gauges and reconstruct the parallel timeline.
        Idempotent; always called (``finally``), including on failure."""
        if self._finished:
            return self.report
        self._finished = True
        for channel in self._channels.values():
            self._channel_finished(channel)
        self.report.task_count = len(self._channels)
        # Pipelining: the read side already advanced the clock while rows
        # were being routed; only the write timeline's remainder beyond
        # that overlap extends the statement. A failed flush aborts the
        # whole write through the session's statement-failure path; only a
        # clean finish commits the statement's accesses.
        self.timeline.settle(
            ok=not any(c["failed"] for c in self._channels.values()),
            overlapped=True)
        self.session.stats["citus_tasks"] += len(self._channels)
        self.executor.last_report = self.report
        return self.report


def _enter_txn_block(ext, session, conn, is_write: bool = False) -> None:
    """What ``conn`` does next is part of the session's distributed
    transaction: open its worker transaction block if it has none."""
    conn.begin_if_needed()
    session.remote_txns[id(conn)] = conn
    if is_write:
        conn.did_write = True
    # Tag the worker transaction with the distributed txn id up front so
    # deadlock detection can merge the lock graphs even while a statement
    # is still waiting.
    conn.session.ensure_xid()
    assign_distributed_txn_ids(ext, session)


def _clear_affinity(pools: SessionPools) -> None:
    """Shard-group affinity only matters within a transaction; drop it so
    cached connections don't accumulate stale pins."""
    for conn in pools.all_connections():
        if not conn.in_txn_block:
            conn.accessed_groups.clear()


def _multi_group(tasks) -> bool:
    groups = {t.shard_group for t in tasks}
    nodes = {t.node for t in tasks}
    return len(groups) > 1 or len(nodes) > 1
