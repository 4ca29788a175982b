"""The telemetry spine: one cluster-shared object that records a statement
once and derives every surface from that record.

**Capture.** ``Session._dispatch`` opens one :class:`~.record.StatementRecord`
per top-level statement and the session's activity window closes it; in
between, the planner hook, the executor's :class:`~.executor.timeline.
ConnectionTimeline`, the transaction callbacks, the engine and the pools
append to whichever record is *current* through the handful of capture
methods below, and the wait-event stacks note each wait they account on it.
None of them names a sensor. What stays eager is state, not history:
registry counters and gauges, the wait-event stacks and the plan-search
ring (the planner can be asked for a plan outside any statement).

**Folds.** A closed record goes into a bounded pending buffer;
``citus_stat_statements``, ``citus_stat_tenants``, the co-access graph,
the slow log, Active Session History and the trace ring are folds run over
the pending records, in emission order, when a surface is read, a scope is
reset, the configuration changes or the buffer fills. A fold reads only
the records, so when it runs does not change what it makes. The registry
drains the buffer too before any read
(:meth:`~repro.engine.stats.StatsRegistry.add_pending_source`), because the
co-access fold produces the ``txngraph_*`` counters.

**One lifetime.** The record's ``start`` is the dispatch and its ``end`` the
close of the activity window, for every fold alike: a statement that parks
on a lock is one record spanning its wait (``instance.pump`` makes it
current again while it resumes), a cancelled or failed one is one record
with its error.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ..engine.compile import compile_count
from ..engine.stats import stats_for
from ..sql.facts import statement_fingerprint
from .ash import ActiveSessionHistory
from .introspection import TenantStats
from .record import (ABORT, BLOCKED_TASK, COMMIT, EXECUTION, TXN, U_BYTES,
                     U_KIND, Ring, StatementRecord)
from .sharding import NO_VALUE, partition_key_for
from .tracing import (Span, StatementStats, build_subtree, build_trace,
                      export_chrome, slow_log_entry)
from .txngraph import TxnGraph

#: Closed records held unfolded at most. A constant, not a GUC: small
#: enough that folding is paid inside any measured loop, never parked until
#: the first read after it.
PENDING_MAX = 512

#: Entries the trace ring and the slow-query log each hold.
TRACE_RING_SIZE = 256

#: ``citus_stat_reset`` scopes.
SCOPES = ("counters", "statements", "tenants", "graph", "ash")

_HOLDER_ATTR = "_citus_telemetry"

#: Planner tier -> the registry batch key of a statement planned at it.
_PLANNED: dict = {}


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
        #: Simulated-clock seconds (0.0 on a single node with no clock).
        self.now = clock.now if clock is not None else float
        self.registry = stats_for(holder)
        # The folds.
        self.statements = StatementStats()
        self.tenants = TenantStats()
        self.graph = TxnGraph(self.registry)
        self.ash = ActiveSessionHistory()
        self.traces, self.slow_log = Ring(TRACE_RING_SIZE), Ring(TRACE_RING_SIZE)
        # Eager state.
        self.plan_searches = Ring(128)
        self.pending = Ring(PENDING_MAX)
        self._enrolled = False
        #: The record capture methods append to, and the same record while
        #: it keeps span detail (else None) — the one test capture sites
        #: make before building anything.
        self.current = self.traced = None
        # Switches, set by configure().
        self.tracing = self.introspection = self.graphing = False
        self.history = self.recording = self.noting = False
        self.log_min_duration = -1.0
        # citus_stat_counters_reset() baseline for the engine-level
        # expression-compilation counter (a process-wide monotonic count).
        self.compile_baseline = 0

    # -------------------------------------------------------- configuration

    def configure(self, config, ext) -> None:
        """Apply the telemetry GUCs (at install and after every
        ``citus_set_config``). Each ``enable_*`` gates its fold and the
        detail kept on the record; with tracing, introspection, the
        co-access graph and ASH all off no record is allocated."""
        self.drain()  # pending records were captured under the old switches
        if self.ash.ext is None or ext.is_coordinator:
            self.ash.ext = ext
        self.tracing = bool(config.enable_tracing)
        self.log_min_duration = float(config.log_min_duration)
        self.introspection = bool(config.enable_introspection)
        self.graphing = bool(config.enable_txn_graph)
        self.history = bool(config.enable_ash)
        self.recording = (self.tracing or self.introspection or self.graphing
                          or self.history)
        # A record notes its waits for ASH and the tenant fold.
        self.noting = self.history or self.introspection
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
            self.graph.reset()
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
        statements = [record for record in records
                      if record.kind == "statement"]
        if self.graphing:
            self.graph.fold(records)
        if self.introspection:
            self.tenants.fold(statements)
        if self.history:
            self.ash.fold(statements)
        statements = [record for record in statements if record.traced]
        if statements:
            self.statements.fold(statements)
        threshold = self.log_min_duration
        if threshold >= 0:
            self.slow_log.extend([
                slow_log_entry(record) for record in statements
                if threshold <= (record.end - record.start) * 1000.0])
        # The trace ring keeps traced statements and maintenance cycles.
        self.traces.extend([
            record for record in records if record.traced and (
                record.kind == "statement"
                or record.kind == "operation" and record.events)])

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
        record.pid = session.backend_pid
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
            self.current = self.traced = None
        if result is not None:
            record.rows = result.rowcount or len(result.rows)
        elif error is not None:
            record.error = type(error).__name__
        if (record.traced or record.events or record.tenant is not None
                or self.history):
            self._finish(record)  # else: nothing any fold would read

    def _finish(self, record: StatementRecord) -> None:
        now = self.now()
        record.end = now if now > record.max_end else record.max_end
        record.events = tuple(record.events)  # frozen: see .record
        if record.waits:
            record.waits = tuple(record.waits)
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
        self.exit(event)
        record.traced = was_traced
        if self.current is record:
            self.traced = record if was_traced else None
        return build_subtree(record, event)

    # -------------------------------------------------------------- capture

    def enter(self, name: str, cat: str, node: str | None = None) -> int:
        """Open a span other events nest under, in the traced record: its
        index, for :meth:`exit`."""
        record = self.traced
        record.events.append((record.top, name, cat, self.now(), None, node))
        record.top = len(record.events) - 1
        return record.top

    def exit(self, index: int, rows: int | None = None) -> None:
        record = self.current
        parent, name, cat, start, _end, node = record.events[index]
        record.events[index] = (parent, name, cat, start, self.now(), node) + (
            () if rows is None else ("rows", rows))
        record.top = parent

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
        record.add(name, cat, start, end, node,
                   tuple(chain.from_iterable(attrs.items())) if attrs else ())

    def planned(self, ext, session, facts, params, plan, hit, search) -> None:
        """The planner hook's one call: what was decided for the statement
        ``facts`` are about — the plan (None: unplannable), the plan-cache
        entry that answered (None: a miss), and the cascade's search record
        when one was kept. What a hit reports the same way every time (its
        counters, identity and plan event) is the entry's."""
        tier = plan.tier if plan is not None else None
        key = _PLANNED.get(tier)
        if key is None:
            key = _PLANNED[tier] = ((0, "planner_total", "", 1),) + (
                ((0, f"planner_{tier}", "", 1),) if tier else ())
        batch = self.registry.batch
        batch[key] = batch.get(key, 0) + 1
        if search is not None and (plan is not None or search.error is not None):
            # One ring entry per search: a cached plan's replayed search
            # joins on its first hit and counts the rest.
            if hit is not None:
                search.hits += 1
            if search.hits <= 1:
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
            record.cached = hit is not None
        if not record.traced:
            return
        if record.fingerprint is None:
            record.fingerprint, record.digest = statement_fingerprint(facts)
        tasks = plan.tasks
        count = len(tasks) if tasks is not None else None
        # Search attributes ride on the plan event, so the Chrome trace
        # export shows what the cascade considered for every statement.
        found = plan.search
        memo = hit.plan_event if hit is not None else None
        if memo is not None and memo[0] == count and memo[1] is found:
            attrs = memo[2]
        else:
            attrs = ("tier", tier, "cached", hit is not None, "tasks", count,
                     *(found.event_attrs() if found is not None else ()))
            if hit is not None:
                hit.plan_event = (count, found, attrs)
        now = self.now()
        record.add("plan", "planner", now, now, session.instance.name, attrs)

    def execution_begin(self) -> list | None:
        """An executor run starts: the list its units go into, or None when
        neither the co-access graph nor a trace wants them."""
        return [] if self.graphing or self.traced is not None else None

    def execution_end(self, driver: str, session, base: float,
                      elapsed: float, units: list, detail: tuple,
                      outcome: str, explicit: bool, autocommit: bool) -> None:
        """An executor run ended (``outcome``: OK / FAILED / BLOCKED) after
        ``elapsed`` on its busiest connection. ``autocommit``: its
        transaction ends with it, not in the commit callbacks."""
        record = self.current
        if record is None:
            return  # run outside any recorded statement
        fields = [session.instance.name, session.backend_pid,
                  session._citus_tenant, explicit, outcome, autocommit,
                  len(units)]
        for unit in units:
            fields += unit
            if unit[U_KIND] == BLOCKED_TASK:
                record.parked_wire += unit[U_BYTES]
            else:
                record.wire += unit[U_BYTES]
        fields += detail
        record.add(driver, EXECUTION, base, base + elapsed, None,
                   tuple(fields))

    def txn_end(self, session, committed: bool, twopc: bool = False) -> None:
        """The session's distributed transaction ended (the post-commit /
        abort callbacks, for a transaction that touched a shard)."""
        if not self.graphing:
            return
        key = (session.instance.name, session.backend_pid)
        record = self.current
        if record is None:
            self.drain()
            self.graph.end_txn(key, committed, twopc)
            return
        now = self.now()
        record.add(COMMIT if committed else ABORT, TXN, now, now, None,
                   key + (twopc,))

    def crashed(self, node: str) -> None:
        """``node`` crashed, and its sessions with it: the transactions
        they had in flight end as aborts, after what is pending (their
        statements) has been folded."""
        self.drain()
        self.graph.abort_sessions_of(node)

    # ------------------------------------------------------------- surfaces

    def counter_rows(self) -> list[list]:
        """``citus_stat_counters()``: [name, node, value] for every
        cluster-wide counter, then every gauge."""
        snap = self.registry.snapshot()
        # Expression compilations happen in the engine layer (shared by all
        # nodes of this process); surfaced here relative to the last reset.
        compiled = compile_count() - self.compile_baseline
        if compiled:
            snap.counters["expr_compile_count"] = Counter({"": compiled})
        return [[name, node or None, value]
                for kind in (snap.counters, snap.gauges) for name in sorted(kind)
                for node, value in sorted(kind[name].items())]

    def statement_rows(self) -> list[list]:
        self.drain()
        return self.statements.rows()

    def tenant_rows(self) -> list[list]:
        if not self.introspection:
            return []
        self.drain()
        return self.tenants.rows()

    def txn_graph(self) -> TxnGraph | None:
        """The co-access graph to read from (None while
        ``citus.enable_txn_graph`` is off)."""
        if not self.graphing:
            return None
        self.drain()
        return self.graph

    def session_history(self) -> ActiveSessionHistory | None:
        """ASH to read from (None while ``citus.enable_ash`` is off)."""
        if not self.history:
            return None
        self.drain()
        return self.ash

    def trace_records(self, limit: int | None = None) -> list[StatementRecord]:
        """The trace ring (the newest ``limit`` of it, none for 0), oldest
        first; :func:`~.tracing.build_trace` draws one as a span tree."""
        self.drain()
        records = list(self.traces)
        if limit is None:
            return records
        return records[-limit:] if limit > 0 else []

    def export_chrome(self, limit: int | None = None) -> dict:
        return export_chrome(self.trace_records(limit))

    def slow_queries(self) -> list[list]:
        self.drain()
        return [list(entry) for entry in self.slow_log]

    def metric_families(self) -> list[tuple]:
        """Graph and ring-health families for ``citus_metrics_snapshot``,
        as :func:`.metrics.render` takes them."""
        graph = self.txn_graph()
        families = [] if graph is None else graph.metric_families()
        rings = sorted(self.rings().items())
        families += [
            (f"citus_telemetry_ring_{field}", kind,
             [({"ring": name}, getattr(ring, attr)) for name, ring in rings])
            for field, kind, attr in (("capacity", "gauge", "capacity"),
                                      ("high_water", "gauge", "high_water"),
                                      ("dropped_total", "counter", "dropped"))]
        return families

