"""The telemetry spine: one cluster-shared object that records a statement
once and derives every surface from that record.

**Capture.** ``Session._dispatch`` opens one :class:`~.record.StatementRecord`
per top-level statement and the session's activity window closes it; in
between, the planner hook, the executor's :class:`~.executor.timeline.
ConnectionTimeline`, the transaction callbacks, the engine and the pools
append to whichever record is *current* through the handful of capture
methods below. None of them names a sensor. What stays eager is state, not
history: registry counters and gauges, the wait-event stacks, the ASH
sampler and the plan-search ring (the planner can be asked for a plan
outside any statement).

**Folds.** A closed record goes into a bounded pending buffer;
``citus_stat_statements``, ``citus_stat_tenants``, the co-access graph and
the window tallies, the slow log and the trace ring are folds run over the
pending records, in emission order, when a surface is read, a scope is
reset, the configuration changes, the buffer fills, or a window bucket is
about to close (:meth:`Telemetry.tick`). The registry drains it too before
any read (:meth:`~repro.engine.stats.StatsRegistry.add_pending_source`),
because the co-access fold produces the ``txngraph_*`` counters.

**One lifetime.** The record's ``start`` is the dispatch and its ``end`` the
close of the activity window, for every fold alike: a statement that parks
on a lock is one record spanning its wait (``instance.pump`` makes it
current again while it resumes), a cancelled or failed one is one record
with its error.
"""

from __future__ import annotations

from ..engine.compile import compile_count
from ..engine.stats import stats_for
from .ash import AshSampler
from .introspection import TenantStats
from .planner.plan_cache import statement_fingerprint
from .record import (ABORT, BLOCKED, COMMIT, E_ATTRS, E_END, EXECUTION, OK, TXN,
                     Ring, StatementRecord)
from .sharding import NO_VALUE, partition_key_for
from .tracing import (Span, StatementStats, build_subtree, build_trace,
                      export_chrome, slow_log_entry)
from .txngraph import TxnGraph

#: Closed records held unfolded at most. A constant, not a GUC: small
#: enough that folding is paid inside any measured loop, never parked until
#: the first read after it.
PENDING_MAX = 512

#: ``citus_stat_reset`` scopes.
SCOPES = ("counters", "statements", "tenants", "graph", "windows", "ash")

#: ``CitusConfig`` fields whose change reconfigures telemetry (the planner
#: hook reads ``enable_plan_alternatives`` from the config itself).
GUCS = frozenset({
    "enable_tracing", "trace_buffer_size", "log_min_duration",
    "enable_introspection", "enable_txn_graph", "stat_window_seconds",
    "stat_window_buckets", "enable_ash", "ash_sampling_interval",
    "ash_buffer_size",
})

_HOLDER_ATTR = "_citus_telemetry"

#: ``record.bucket`` of a statement with a blocked executor run, until its
#: close stamps the bucket it ended in.
_AT_CLOSE = -1


def telemetry_for(holder, clock) -> "Telemetry":
    """The telemetry object attached to ``holder`` (the cluster), creating
    it on first use — every node's extension and instance share it."""
    telemetry = getattr(holder, _HOLDER_ATTR, None)
    if telemetry is None:
        telemetry = Telemetry(holder, clock)
        setattr(holder, _HOLDER_ATTR, telemetry)
    return telemetry


class Telemetry:
    def __init__(self, holder, clock):
        self.clock = clock
        #: Simulated-clock seconds (0.0 on a single node with no clock).
        self.now = clock.now if clock is not None else float
        self.registry = stats_for(holder)
        # The folds.
        self.statements = StatementStats()
        self.tenants = TenantStats()
        self.graph = TxnGraph(clock, self.registry)
        self.traces = Ring(256)
        self.slow_log = Ring(256)
        # Eager state.
        self.plan_searches = Ring(128)
        self.ash = AshSampler(clock, self.registry)
        self.pending = Ring(PENDING_MAX)
        self._enrolled = False
        self.ext = None  # the extension ASH walks the cluster through
        #: The record capture methods append to, and the same record while
        #: it keeps span detail (else None) — the one test capture sites
        #: make before building anything.
        self.current: StatementRecord | None = None
        self.traced: StatementRecord | None = None
        # Switches, set by configure().
        self.tracing = self.introspection = self.graphing = False
        self.recording = False
        self.log_min_duration = -1.0
        # citus_stat_counters_reset() baseline for the engine-level
        # expression-compilation counter (a process-wide monotonic count).
        self.compile_baseline = 0

    # -------------------------------------------------------- configuration

    def configure(self, config, ext) -> None:
        """Apply the telemetry GUCs (at install and whenever one is set).
        Each ``enable_*`` gates its fold and the detail kept on the record;
        with tracing, introspection and the co-access graph all off no
        record is allocated."""
        self.drain()  # pending records were captured under the old switches
        if self.ext is None or ext.is_coordinator:
            self.ext = ext
        self.tracing = bool(config.enable_tracing)
        self.traces.resize(config.trace_buffer_size)
        self.slow_log.resize(config.trace_buffer_size)
        self.log_min_duration = float(config.log_min_duration)
        self.introspection = bool(config.enable_introspection)
        self.graphing = bool(config.enable_txn_graph)
        self.graph.configure(config.stat_window_seconds,
                             config.stat_window_buckets)
        self.recording = self.tracing or self.introspection or self.graphing
        # A single-node install has no shared clock to observe.
        self.ash.configure(config.enable_ash and ext.cluster is not None,
                           config.ash_sampling_interval,
                           config.ash_buffer_size, self.ext)
        instances = (ext.cluster.nodes.values() if ext.cluster is not None
                     else (ext.instance,))
        for instance in instances:
            instance.telemetry = self
            # Engine-level wait accounting lands in the cluster registry
            # (None switches it off on the hot path).
            instance.wait_registry = self.registry if self.introspection else None

    def reset(self, scopes) -> None:
        """Clear the named scopes (``citus_stat_reset`` and both legacy
        reset UDFs)."""
        self.drain()
        if "counters" in scopes:
            self.registry.reset()
            self.compile_baseline = compile_count()
        if "statements" in scopes:
            self.statements.reset()
        if "tenants" in scopes:
            self.tenants.reset()
        if "graph" in scopes:
            self.graph.reset_graph()
        if "windows" in scopes:
            self.graph.reset_windows()
        if "ash" in scopes:
            self.ash.reset()

    def rings(self) -> dict[str, Ring]:
        return {"ash": self.ash.ring, "pending": self.pending,
                "plan_searches": self.plan_searches,
                "slow_log": self.slow_log, "traces": self.traces}

    # ---------------------------------------------------------------- folds

    def _emit(self, record: StatementRecord) -> None:
        # Straight into the ring's storage: it is drained before it could
        # evict, and drain() keeps its high-water mark.
        pending = self.pending.items
        if len(pending) >= PENDING_MAX:
            self.drain()
        pending.append(record)
        if not self._enrolled:
            self._enrolled = True
            self.registry.add_pending_source(self._on_registry_read)

    def _on_registry_read(self, _registry) -> None:
        self._enrolled = False
        self.drain()

    def drain(self) -> None:
        """Run every fold over the pending records, in emission order."""
        pending = self.pending
        if not pending:
            return
        records = list(pending)
        pending.clear()
        if len(records) > pending.high_water:
            pending.high_water = len(records)
        introspection, graphing = self.introspection, self.graphing
        threshold = self.log_min_duration
        for record in records:
            if graphing:
                self.graph.fold(record)
            if introspection and record.kind == "statement":
                self.tenants.fold(record)
            if not record.traced:
                continue
            if record.kind == "statement":
                self.statements.fold(record)
                if 0 <= threshold <= (record.end - record.start) * 1000.0:
                    self.slow_log.append(slow_log_entry(record))
                self.traces.append(record)
            elif record.kind == "operation" and record.events:
                self.traces.append(record)

    def tick(self) -> int | None:
        """The eager half of the window ring: one compare against the
        current bucket; crossing a boundary folds what is pending into the
        closing bucket (and its counters) before the ring rolls. Returns
        the current bucket's index (None: windows off)."""
        windows = self.graph.windows
        now = self.now()
        if now < windows.safe_until:
            return windows.current.index
        if windows.width <= 0:
            return None
        current = windows.current
        if current is None or int(now / windows.width) > current.index:
            self.drain()
            current = windows.roll(now)
        return current.index

    # ------------------------------------------------- statement lifetime

    def _activate(self, record: StatementRecord | None):
        previous = self.current
        self.current = record
        self.traced = record if record is not None and record.traced else None
        return previous

    def open(self, session, stmt) -> StatementRecord:
        """``Session._dispatch`` of a top-level statement (nothing is
        current, and something is recording): open its record. A dispatch
        inside one nests a statement span with :meth:`enter` instead.
        Either mark goes to :meth:`leave`."""
        tracing = self.tracing
        record = session.record = self.current = StatementRecord(
            "statement", type(stmt).__name__, stmt, session.instance.name,
            self.now(), tracing)
        if tracing:
            self.traced = record
        return record

    def leave(self, mark) -> None:
        if type(mark) is StatementRecord:
            # The record stays open (its session's activity window closes
            # it) but is no longer what other sessions' work lands in.
            self.current = self.traced = None
        else:
            self.exit(mark)

    def resume(self, record: StatementRecord | None):
        """A parked statement is being retried or resolved: the record it
        was part of when it parked (if that is still open) is current
        again. Returns what to :meth:`restore` afterwards."""
        if record is None or record.end is not None:
            return self.current
        return self._activate(record)

    def restore(self, previous) -> None:
        self._activate(previous)

    def close(self, session, result, error) -> None:
        """The session's activity window closed: stamp the record's end,
        result and wait time and hand it to the folds."""
        record = session.record
        session.record = None
        if self.current is record:
            self._activate(None)
        if result is not None:
            record.rows = result.rowcount or len(result.rows)
        elif error is not None:
            record.error = type(error).__name__
        record.wait_seconds = session.wait_events.statement_seconds
        if record.bucket is not None:
            # It parked on a lock: the window counts it where it ended.
            record.bucket = self.tick()
        if record.traced or record.events or record.tenant is not None:
            self._finish(record)  # else: nothing any fold would read

    def _finish(self, record: StatementRecord) -> None:
        now = self.now()
        record.end = now if now > record.max_end else record.max_end
        self._emit(record)

    def operation(self, name: str):
        """Begin a non-statement operation (a maintenance cycle): its own
        record at the top level, a plain span inside a statement, nothing
        while tracing is off. Pass the mark to :meth:`end_operation`."""
        if self.current is not None:
            return (self.enter(name, "operation")
                    if self.traced is not None else None)
        if not self.tracing:
            return None
        record = StatementRecord("operation", name, None, None, self.now(),
                                 True)
        self._activate(record)
        return record

    def end_operation(self, mark) -> None:
        if type(mark) is StatementRecord:
            self._activate(None)
            self._finish(mark)
        elif mark is not None:
            self.exit(mark)

    def capture(self, name: str):
        """Force span detail for what follows, whatever the switches say
        (EXPLAIN ANALYZE needs the span tree of exactly one execution).
        Pass the mark to :meth:`end_capture`, which returns the tree. A
        capture is not a statement: outside one, only the co-access fold
        sees what ran under it; nested in a traced statement it shows up
        there as a subtree too."""
        record = self.current
        if record is None:
            record = StatementRecord("capture", name, None, None, self.now(),
                                     True)
            self._activate(record)
            return (record, None, False)
        was_traced = record.traced
        record.traced = True
        self.traced = record
        return (record, self.enter(name, "capture"), was_traced)

    def end_capture(self, mark) -> Span:
        record, event, was_traced = mark
        if event is None:
            self._activate(None)
            self._finish(record)
            self.drain()
            return build_trace(record)
        index = record.stack[-1]
        self.exit(event)
        record.traced = was_traced
        if self.current is record:
            self.traced = record if was_traced else None
        return build_subtree(record, index)

    # -------------------------------------------------------------- capture

    def enter(self, name: str, cat: str, node: str | None = None) -> list:
        """Open a span other events nest under, in the traced record."""
        record = self.traced
        events, stack = record.events, record.stack
        event = [stack[-1] if stack else -1, name, cat, self.now(), None,
                 node, None]
        stack.append(len(events))
        events.append(event)
        return event

    def exit(self, event: list, rows: int | None = None) -> None:
        event[E_END] = self.now()
        if rows is not None:
            event[E_ATTRS] = {"rows": rows}
        self.current.stack.pop()

    def event(self, name: str, cat: str, start: float | None = None,
              end: float | None = None, node: str | None = None,
              **attrs) -> None:
        """A complete span with explicit timestamps (default: an instant
        at the current simulated time) in the traced record; a no-op when
        nothing keeps span detail."""
        record = self.traced
        if record is None:
            return
        if start is None:
            start = end = self.now()
        elif end is None:
            end = self.now()
        record.add(name, cat, start, end, node, attrs)

    def planned(self, ext, session, facts, params, plan, cache_hit: bool,
                search) -> None:
        """The planner hook's one call: what was decided for the statement
        ``facts`` are about — the plan (None: unplannable), whether the
        plan cache answered, and the cascade's search record when one was
        kept."""
        registry = self.registry
        registry.incr("planner_total")
        tier = plan.tier if plan is not None else None
        if tier:
            registry.incr(f"planner_{tier}")
        if search is not None and (plan is not None or search.error is not None):
            if search.fingerprint is None:
                search.fingerprint = statement_fingerprint(facts)[0]
            self.plan_searches.append(search)
        record = self.current
        if plan is None or not (record is not None or self.introspection
                                or self.graphing):
            return
        # Tenant attribution is the value the plan was routed on (the fast
        # path's, planned or bound from the cache alike); a tier that
        # routes on no single value is asked for here, of the same
        # extractor. The session attributes are what the activity view and
        # ASH show for it.
        tenant = plan.dist_value
        if tenant is NO_VALUE:
            tenant = partition_key_for(ext.metadata.cache, facts, params)
        session._citus_tier = tier
        session._citus_tenant = tenant
        if record is None:
            return
        # Only fields still unset are filled, so a nested distributed
        # statement (UDF-internal SQL) cannot overwrite the outer one's.
        if tier is not None and record.tier is None:
            record.tier = tier
        if tenant is not None and record.tenant is None:
            record.tenant = tenant
        if record.tier is not None and not record.cached:
            record.cached = cache_hit
        if not record.traced:
            return
        if record.fingerprint is None:
            record.fingerprint, record.digest = statement_fingerprint(facts)
        tasks = plan.tasks
        attrs = {"tier": tier, "cached": cache_hit,
                 "tasks": len(tasks) if tasks is not None else None}
        found = plan.search
        if found is not None:
            # Search attributes ride on the plan event, so the Chrome trace
            # export shows what the cascade considered for every statement.
            attrs.update(found.event_attrs())
        now = self.now()
        record.add("plan", "planner", now, now, session.instance.name, attrs)

    def execution_begin(self) -> list | None:
        """An executor run starts: the list its units go into, or None when
        neither the co-access graph nor a trace wants them. Rolls the
        window ring first, so the run's counter increments accrue to the
        bucket containing its start."""
        if self.graphing:
            self.tick()
        elif self.traced is None:
            return None
        return []

    def execution_end(self, driver: str, session, base: float, units: list,
                      report, tasks, outcome: str, explicit: bool,
                      autocommit: bool) -> None:
        """An executor run ended (``outcome``: OK / FAILED / BLOCKED) after
        ``report.elapsed`` on its busiest connection. ``autocommit``: its
        transaction ends with it, not in the commit callbacks."""
        bucket = self.tick() if self.graphing and outcome is OK else None
        record = self.current
        if record is None:
            return  # run outside any recorded statement
        if outcome is BLOCKED and self.graphing:
            record.bucket = _AT_CLOSE
        record.add(driver, EXECUTION, base, base + report.elapsed, None,
                   (units, report, tasks,
                    (session.instance.name, session.backend_pid),
                    session._citus_tenant, explicit, outcome, bucket,
                    autocommit))

    def txn_end(self, session, committed: bool, twopc: bool = False) -> None:
        """The session's distributed transaction ended (the post-commit /
        abort callbacks, for a transaction that touched a shard)."""
        if not self.graphing:
            return
        key = (session.instance.name, session.backend_pid)
        bucket = self.tick() if committed else None
        record = self.current
        if record is None:
            self.drain()
            self.graph.end_txn(key, committed, twopc, bucket)
            return
        now = self.now()
        record.add(COMMIT if committed else ABORT, TXN, now, now, None,
                   (key, twopc, bucket))

    # ------------------------------------------------------------- surfaces

    def statement_rows(self) -> list[list]:
        self.drain()
        return self.statements.rows()

    def tenant_records(self) -> list[tuple]:
        if not self.introspection:
            return []
        self.drain()
        return self.tenants.records()

    def txn_graph(self) -> TxnGraph | None:
        """The co-access graph and window ring to read from (None while
        ``citus.enable_txn_graph`` is off)."""
        if not self.graphing:
            return None
        self.drain()
        return self.graph

    def trace_records(self, limit: int | None = None) -> list[StatementRecord]:
        """The trace ring (the newest ``limit`` of it), oldest first;
        :func:`~.tracing.build_trace` draws one as a span tree."""
        self.drain()
        records = list(self.traces)
        return records if limit is None else records[-limit:]

    def export_chrome(self, limit: int | None = None) -> dict:
        return export_chrome(self.trace_records(limit))

    def slow_queries(self) -> list[dict]:
        self.drain()
        return list(self.slow_log)

    def prometheus_lines(self, format_value, labels) -> list[str]:
        """Graph / window, ASH and ring-health families for
        ``citus_metrics_snapshot``."""
        lines: list[str] = []
        graph = self.txn_graph()
        if graph is not None:
            lines.extend(graph.prometheus_lines(format_value, labels))
        if self.ash.enabled:
            lines.extend(self.ash.prometheus_lines(format_value, labels))
        rings = sorted(self.rings().items())
        for family, kind, read in (
            ("citus_telemetry_ring_capacity", "gauge", lambda r: r.capacity),
            ("citus_telemetry_ring_high_water", "gauge", lambda r: r.high_water),
            ("citus_telemetry_ring_dropped_total", "counter", lambda r: r.dropped),
        ):
            lines.append(f"# TYPE {family} {kind}")
            lines.extend(f"{family}{labels(ring=name)} {read(ring)}"
                         for name, ring in rings)
        return lines

