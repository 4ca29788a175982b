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
blocking tasks (:meth:`AdaptiveExecutor.execute_tasks` — fast path, router,
multi-shard DML), per-task cursors (:class:`StreamingExecution` — every
multi-shard SELECT) and per-shard COPY channels
(:class:`CopyChannelExecution` — every COPY / re-routing INSERT..SELECT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...engine.locks import WouldBlock
from .placement import SessionPools
from .timeline import ConnectionTimeline


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
        self.slow_start_interval = ext.config.executor_slow_start_interval_ms / 1000.0
        self.last_report: ExecutionReport | None = None

    # ------------------------------------------------------------ public

    def execute_tasks(self, session, tasks, is_write: bool = False):
        """Run tasks, return a list of QueryResults aligned with tasks."""
        report = ExecutionReport(task_count=len(tasks))
        counters = self.ext.stat_counters
        counters.incr("executor_statements")
        need_txn_block = is_write and (session.in_transaction or _multi_group(tasks))
        if session.in_transaction:
            need_txn_block = True

        results: list = [None] * len(tasks)
        by_node: dict[str, list[int]] = {}
        for i, task in enumerate(tasks):
            by_node.setdefault(task.node, []).append(i)

        # Tracing: collect per-task timeline events (offsets into this
        # statement's reconstructed-parallel timeline) and emit them as
        # spans anchored at the statement's start time.
        tracer = self.ext.tracer
        if tracer is None or not tracer.active:
            tracer = None
        events: list | None = [] if tracer is not None else None
        base = self.ext.cluster.clock.now() if tracer is not None else 0.0
        timeline = ConnectionTimeline(self, session, report,
                                      tracing=tracer is not None)

        graph = self.ext.txn_graph
        if graph is not None:
            graph.statement_begin()

        # Lock waits may only suspend single-task statements (router / fast
        # path); multi-task statements surface waits as lock timeouts.
        allow_block = len(tasks) == 1

        def run(conn, i):
            task = tasks[i]
            bytes_before = conn.bytes_transferred
            cost = self._execute_on(session, conn, task, results, i,
                                    need_txn_block, allow_block, is_write)
            start = timeline.charge(conn, cost)
            if events is not None:
                events.append((i, conn.node_name, start, cost,
                               conn.bytes_transferred - bytes_before,
                               task.shard_group))

        try:
            with counters.track("executor_statements_in_flight"):
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
            # Failed (or parked-and-retried) statement: its accesses must
            # not count toward the transaction's co-access set.
            if graph is not None:
                graph.discard_statement(session)
            raise
        finally:
            if tracer is not None:
                timeline.emit_connect_spans(tracer, base)
                self._emit_task_spans(tracer, base, events, results)
        timeline.settle()
        self.ext.cluster.clock.advance(report.elapsed)
        session.stats["citus_tasks"] += len(tasks)
        self.last_report = report
        if graph is not None:
            graph.statement_done(session, report.elapsed)
        if not session.in_transaction and not need_txn_block:
            _clear_affinity(timeline.pools)
        return results

    def _emit_task_spans(self, tracer, base: float, events: list, results) -> None:
        """Turn recorded timeline events into spans. Offsets are relative
        to the statement start (``base``), matching the executor's
        reconstructed-parallel timeline."""
        for i, node, start, cost, nbytes, group in events:
            result = results[i]
            rows = 0
            if result is not None:
                rows = result.rowcount or len(result.rows)
            tracer.add_span(
                "task", "executor", base + start, base + start + cost,
                node=node, index=i, rows=rows, bytes=nbytes,
                queued_ms=start * 1000.0,
                shard_group=group, retries=0,
            )

    def _execute_on(self, session, conn, task, results, i, need_txn_block,
                    allow_block=False, is_write=False) -> float:
        # The in-flight gauge is held via track() so that a failing task
        # (node crash, lock timeout, SQL error) can never leave it stuck.
        counters = self.ext.stat_counters
        with counters.track("tasks_in_flight", node=conn.node_name):
            try:
                cost = self._execute_task(session, conn, task, results, i,
                                          need_txn_block, allow_block, is_write)
            except WouldBlock:
                # Lock wait: the statement parks and retries wholesale —
                # an executor suspension, not a task failure.
                counters.incr("tasks_blocked", node=conn.node_name)
                raise
            except Exception:
                counters.incr("tasks_failed", node=conn.node_name)
                raise
        counters.incr("tasks_executed", node=conn.node_name)
        return cost

    def _execute_task(self, session, conn, task, results, i, need_txn_block,
                      allow_block=False, is_write=False) -> float:
        if need_txn_block:
            conn.begin_if_needed()
            session.remote_txns[id(conn)] = conn
            if is_write:
                conn.did_write = True
            # Tag the worker transaction with the distributed txn id up
            # front so deadlock detection can merge the lock graphs even
            # while this statement is still waiting.
            conn.session.ensure_xid()
            from ..txn.deadlock import assign_distributed_txn_ids

            assign_distributed_txn_ids(self.ext, session)
        if task.shard_group is not None:
            conn.accessed_groups.add(task.shard_group)
        graph = self.ext.txn_graph
        bytes_before = conn.bytes_transferred if graph is not None else 0
        before = conn.elapsed
        if task.stmt is not None:
            result = conn.execute_parsed(task.stmt, task.params,
                                         allow_block=allow_block)
        else:
            result = conn.execute(task.sql, task.params, allow_block=allow_block)
        results[i] = result
        # Per-task simulated cost: network latency accrued plus a CPU term
        # proportional to rows produced/affected.
        rows = result.rowcount if result.rowcount else len(result.rows)
        cpu_cost = rows * self.ext.config.per_row_cpu_cost
        cost = (conn.elapsed - before) + cpu_cost
        session.wait_events.record("Net", "RemoteExecute", cost,
                                   node=conn.node_name)
        if graph is not None:
            graph.note_access(session, conn.node_name, task.shard_group,
                              is_write, conn.bytes_transferred - bytes_before)
        return cost

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
        self.counters = self.ext.stat_counters
        self.report = ExecutionReport(task_count=len(tasks))
        self.streams = [TaskStream(self, i, t) for i, t in enumerate(tasks)]
        self.need_txn_block = session.in_transaction
        # Slow-start sizing: streams not yet dispatched, per node.
        self._unopened: dict[str, int] = {}
        for task in tasks:
            self._unopened[task.node] = self._unopened.get(task.node, 0) + 1
        self._early_noted = False
        self._finished = False
        # Tracing: per-stream timeline events (dispatch, cursor batches),
        # emitted as spans in finish(). Only collected when a
        # trace/capture is active at statement start.
        tracer = self.ext.tracer
        self.tracer = tracer if (tracer is not None and tracer.active) else None
        self.trace_base = (self.ext.cluster.clock.now()
                           if self.tracer is not None else 0.0)
        self._trace_events: dict[int, dict] = {}
        self.timeline = ConnectionTimeline(executor, session, self.report,
                                           tracing=self.tracer is not None)
        self.graph = self.ext.txn_graph
        if self.graph is not None:
            self.graph.statement_begin()
        self.counters.incr("executor_statements")
        self.counters.gauge_incr("executor_statements_in_flight")

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
            self.counters.incr("early_terminations")

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
            conn.begin_if_needed()
            self.session.remote_txns[id(conn)] = conn
            conn.session.ensure_xid()
            from ..txn.deadlock import assign_distributed_txn_ids

            assign_distributed_txn_ids(self.ext, self.session)
        if task.shard_group is not None:
            conn.accessed_groups.add(task.shard_group)
        self.counters.gauge_incr("tasks_in_flight", node=node)
        before = conn.elapsed
        try:
            stream.cursor = conn.execute_cursor(
                task.stmt, task.params, batch_size=self.batch_size, sql=task.sql,
            )
        except WouldBlock as block:
            self._stream_finished(stream, failed=True, blocked=True)
            from ...errors import LockTimeout

            raise LockTimeout(f"could not obtain lock: {block}") from None
        except Exception:
            self._stream_finished(stream, failed=True)
            raise
        cost = conn.elapsed - before
        start = timeline.charge(conn, cost)
        self.session.wait_events.record("Net", "RemoteDispatch", cost,
                                        node=conn.node_name)
        if self.graph is not None:
            # Read access recorded at dispatch (bytes accrue per fetch), so
            # even a zero-row shard stream appears in the access set.
            self.graph.note_access(self.session, conn.node_name,
                                   task.shard_group, False, 0)
        if self.tracer is not None:
            self._trace_events[stream.index] = {
                "node": conn.node_name,
                "group": task.shard_group,
                "open": (start, start + cost),
                "batches": [],
            }

    def _fetch(self, stream: TaskStream):
        conn = stream.conn
        before = conn.elapsed
        try:
            batch = stream.cursor.fetch_batch()
        except WouldBlock as block:
            # Multi-task statements never park; a remote lock wait during
            # a fetch surfaces as a lock timeout, like the blocking path.
            self._stream_finished(stream, failed=True, blocked=True)
            from ...errors import LockTimeout

            raise LockTimeout(f"could not obtain lock: {block}") from None
        except Exception:
            self._stream_finished(stream, failed=True)
            raise
        cost = conn.elapsed - before
        if batch:
            cost += len(batch) * self.ext.config.per_row_cpu_cost
        start = self.timeline.charge(conn, cost)
        self.session.wait_events.record("Net", "RemoteFetch", cost,
                                        node=conn.node_name)
        if self.tracer is not None and stream.index in self._trace_events:
            self._trace_events[stream.index]["batches"].append(
                (start, start + cost,
                 len(batch) if batch else 0,
                 stream.cursor.last_payload if batch else 0)
            )
        if batch is None:
            self._stream_finished(stream)
            return None
        self.report.batches_fetched += 1
        self.report.bytes_streamed += stream.cursor.last_payload
        self.counters.incr("batches_fetched", node=conn.node_name)
        self.counters.incr("bytes_streamed", stream.cursor.last_payload,
                           node=conn.node_name)
        if self.graph is not None:
            self.graph.note_access(self.session, conn.node_name,
                                   stream.task.shard_group, False,
                                   stream.cursor.last_payload)
        return batch

    def _close_stream(self, stream: TaskStream) -> None:
        if stream.done:
            return
        if not stream.opened:
            # Never dispatched: the early-terminated merge skipped this
            # task outright — no connection, no round trips, no worker CPU.
            stream.done = True
            self.report.tasks_skipped += 1
            self.counters.incr("tasks_skipped", node=stream.task.node)
            return
        conn = stream.conn
        before = conn.elapsed
        stream.cursor.close()
        cost = conn.elapsed - before
        start = self.timeline.charge(conn, cost)
        if self.tracer is not None and stream.index in self._trace_events:
            self._trace_events[stream.index]["close"] = (start, start + cost)
        self._stream_finished(stream)

    def _stream_finished(self, stream: TaskStream, failed: bool = False,
                         blocked: bool = False) -> None:
        if stream.done:
            return
        stream.done = True
        stream.failed = failed
        node = stream.conn.node_name if stream.conn is not None else stream.task.node
        self.counters.gauge_decr("tasks_in_flight", node=node)
        if blocked:
            self.counters.incr("tasks_blocked", node=node)
        elif failed:
            self.counters.incr("tasks_failed", node=node)
        else:
            self.counters.incr("tasks_executed", node=node)

    def _emit_stream_spans(self) -> None:
        """Emit the collected streaming timeline as spans: one ``task``
        span per dispatched stream with nested ``dispatch``/``batch``
        children, plus ``connect`` spans and zero-duration markers for
        tasks the early-terminated merge never dispatched."""
        tracer = self.tracer
        base = self.trace_base
        self.timeline.emit_connect_spans(tracer, base)
        for stream in self.streams:
            events = self._trace_events.get(stream.index)
            if events is None:
                # Never dispatched (early-terminated merge skipped it).
                tracer.add_span(
                    "task", "executor", base, base, node=stream.task.node,
                    index=stream.index, rows=0, bytes=0, batches=0,
                    skipped=True, retries=0,
                )
                continue
            open_start, open_end = events["open"]
            end = open_end
            cursor = stream.cursor
            task_span = tracer.add_span(
                "task", "executor", base + open_start, base + open_end,
                node=events["node"], index=stream.index,
                rows=cursor.rows_fetched if cursor is not None else 0,
                bytes=(256 + cursor.bytes_fetched) if cursor is not None else 0,
                batches=cursor.batches_fetched if cursor is not None else 0,
                shard_group=events["group"], retries=0,
            )
            if task_span is None:
                continue
            from ..tracing import Span

            task_span.add(Span("dispatch", "network", base + open_start,
                               base + open_end, node=events["node"]))
            for b_start, b_end, rows, nbytes in events["batches"]:
                task_span.add(Span("batch", "network", base + b_start,
                                   base + b_end, node=events["node"],
                                   attrs={"rows": rows, "bytes": nbytes}))
                end = max(end, b_end)
            close = events.get("close")
            if close is not None:
                task_span.add(Span("close", "network", base + close[0],
                                   base + close[1], node=events["node"]))
                end = max(end, close[1])
            task_span.end = base + end

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
                    self._stream_finished(stream, failed=True)
        report = self.report
        self.timeline.settle()
        if self.tracer is not None:
            self._emit_stream_spans()
        self.ext.cluster.clock.advance(report.elapsed)
        self.session.stats["citus_tasks"] += len(self.tasks)
        self.counters.gauge_decr("executor_statements_in_flight")
        if report.rows_buffered_peak:
            self.counters.gauge_max("rows_buffered_peak",
                                    report.rows_buffered_peak)
        self.executor.last_report = report
        if self.graph is not None:
            if any(stream.failed for stream in self.streams):
                self.graph.discard_statement(self.session)
            else:
                self.graph.statement_done(self.session, report.elapsed)
        if not self.session.in_transaction and not self.need_txn_block:
            _clear_affinity(self.timeline.pools)
        return report


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
        self.counters = self.ext.stat_counters
        self.report = ExecutionReport()
        # Slow-start sizing: how many channels may still open per node (the
        # count of destination shards placed there).
        self._unopened: dict[str, int] = dict(expected_by_node)
        self._channels: dict = {}  # channel key -> per-channel state
        self._finished = False
        # Clock position when routing began: everything the read side
        # advances between now and finish() overlaps the write timeline.
        self._start_clock = self.ext.cluster.clock.now()
        tracer = self.ext.tracer
        self.tracer = tracer if (tracer is not None and tracer.active) else None
        self.timeline = ConnectionTimeline(executor, session, self.report,
                                           tracing=self.tracer is not None)
        self.graph = self.ext.txn_graph
        if self.graph is not None:
            self.graph.statement_begin()
        self.counters.incr("executor_statements")
        self.counters.gauge_incr("executor_statements_in_flight")

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
            channel = {
                "index": index, "node": node, "group": shard_group,
                "conn": conn, "rows": 0, "bytes": 0, "flushes": 0,
                "events": [] if self.tracer is not None else None,
                "done": False,
            }
            self._channels[key] = channel
            self.counters.gauge_incr("tasks_in_flight", node=node)
        return channel

    def flush(self, key, index, node, shard_group, shard_name, columns,
              rows) -> None:
        """Ship one bounded row batch to its destination shard, inside the
        write transaction."""
        channel = self._channel(key, index, node, shard_group)
        conn = channel["conn"]
        # Every flush is transactional: a later error must be able to roll
        # back rows that already crossed the wire.
        conn.begin_if_needed()
        self.session.remote_txns[id(conn)] = conn
        conn.did_write = True
        conn.session.ensure_xid()
        from ..txn.deadlock import assign_distributed_txn_ids

        assign_distributed_txn_ids(self.ext, self.session)
        before = conn.elapsed
        bytes_before = conn.bytes_transferred
        try:
            # The first flush opens the shard's COPY stream (a round trip);
            # later flushes ride it asynchronously at bandwidth cost only.
            conn.copy_rows(shard_name, rows, columns,
                           pipelined=channel["flushes"] > 0)
        except Exception:
            self._channel_finished(channel, failed=True)
            raise
        nbytes = conn.bytes_transferred - bytes_before
        cost = (conn.elapsed - before) + len(rows) * self.ext.config.per_row_cpu_cost
        start = self.timeline.charge(conn, cost)
        self.session.wait_events.record("Net", "RemoteCopy", cost, node=node)
        channel["rows"] += len(rows)
        channel["bytes"] += nbytes
        channel["flushes"] += 1
        if channel["events"] is not None:
            channel["events"].append((start, start + cost, len(rows), nbytes))
        report = self.report
        report.copy_flushes += 1
        report.copy_rows_routed += len(rows)
        report.copy_bytes_streamed += nbytes
        self.counters.incr("copy_flushes", node=node)
        self.counters.incr("copy_rows_routed", len(rows), node=node)
        self.counters.incr("copy_bytes_streamed", nbytes, node=node)
        if self.graph is not None:
            self.graph.note_access(self.session, node, shard_group, True,
                                   nbytes)

    def _channel_finished(self, channel: dict, failed: bool = False) -> None:
        if channel["done"]:
            return
        channel["done"] = True
        channel["failed"] = failed
        node = channel["node"]
        self.counters.gauge_decr("tasks_in_flight", node=node)
        if failed:
            self.counters.incr("tasks_failed", node=node)
        else:
            self.counters.incr("tasks_executed", node=node)

    def _emit_channel_spans(self) -> None:
        """One ``task`` span per destination channel (matched back to the
        plan's per-shard task list by ``index``) with nested per-flush
        children, plus ``connect`` spans."""
        tracer = self.tracer
        base = self._start_clock
        self.timeline.emit_connect_spans(tracer, base)
        from ..tracing import Span

        for channel in self._channels.values():
            events = channel["events"] or []
            first = events[0][0] if events else 0.0
            last = events[-1][1] if events else 0.0
            task_span = tracer.add_span(
                "task", "executor", base + first, base + last,
                node=channel["node"], index=channel["index"],
                rows=channel["rows"], bytes=channel["bytes"],
                batches=channel["flushes"], shard_group=channel["group"],
                retries=0,
            )
            if task_span is None:
                continue
            for f_start, f_end, rows, nbytes in events:
                task_span.add(Span("flush", "network", base + f_start,
                                   base + f_end, node=channel["node"],
                                   attrs={"rows": rows, "bytes": nbytes}))

    # ------------------------------------------------------------ finish

    def finish(self) -> ExecutionReport:
        """Settle counters/gauges and reconstruct the parallel timeline.
        Idempotent; always called (``finally``), including on failure."""
        if self._finished:
            return self.report
        self._finished = True
        for channel in self._channels.values():
            self._channel_finished(channel)
        report = self.report
        report.task_count = len(self._channels)
        self.timeline.settle()
        clock = self.ext.cluster.clock
        if self.tracer is not None:
            self._emit_channel_spans()
            # Aggregate routing span: EXPLAIN ANALYZE lifts these actuals
            # onto the "Repartition:" line of the plan tree.
            self.tracer.add_span(
                "route", "repartition", self._start_clock,
                self._start_clock + report.elapsed,
                flushes=report.copy_flushes, rows=report.copy_rows_routed,
                bytes=report.copy_bytes_streamed,
                channel_peak_rows=report.copy_channel_peak_rows,
                channels=len(self._channels),
            )
        # Pipelining: the read side already advanced the clock while rows
        # were being routed; only the write timeline's remainder beyond
        # that overlap extends the statement.
        overlapped = clock.now() - self._start_clock
        clock.advance(max(0.0, report.elapsed - overlapped))
        self.session.stats["citus_tasks"] += len(self._channels)
        self.counters.gauge_decr("executor_statements_in_flight")
        if report.copy_channel_peak_rows:
            self.counters.gauge_max("copy_channel_peak_rows",
                                    report.copy_channel_peak_rows)
        self.executor.last_report = report
        if self.graph is not None:
            # A failed flush aborts the whole write through the session's
            # statement-failure path (abort_txn clears the collector); only
            # a clean finish commits the statement's accesses.
            if any(c.get("failed") for c in self._channels.values()):
                self.graph.discard_statement(self.session)
            else:
                self.graph.statement_done(self.session, report.elapsed)
        return report


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
