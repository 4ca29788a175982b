"""End-to-end distributed tracing and statement telemetry.

Every statement the coordinator dispatches gets a **trace**: a tree of
:class:`Span` objects stamped from the simulated clock — parse/plan (tier,
cache hit, task count), per-task dispatch (queue wait, connection setup,
network bytes, worker execution, cursor batches), the coordinator merge,
and the 2PC prepare/commit/recovery phases. Because every timestamp comes
from :class:`~repro.net.clock.SimClock`, traces are fully deterministic:
the same workload produces byte-identical span trees run after run.

On top of the span stream:

- :class:`StatementStats` aggregates finished traces per plan-cache
  fingerprint (and per tenant, extracted from the distribution-column
  filter) into the ``citus_stat_statements()`` view: calls, total/min/max
  time, a log-bucketed latency histogram (p50/p95/p99), rows, bytes, tier.
- :meth:`Tracer.export_chrome` renders buffered traces as Chrome
  trace-event JSON (open in ``chrome://tracing`` / Perfetto), one lane per
  node.
- A slow-query log gated by ``citus.log_min_duration`` (milliseconds;
  negative disables).

The tracer is attached to the *cluster* object (like the stats registry)
via :func:`trace_for`, so spans emitted by any layer — executor, network,
2PC callbacks, recovery daemon — land in the same trace. ``EXPLAIN
ANALYZE`` uses :meth:`Tracer.capture` to collect spans for a single
statement even while tracing is globally disabled.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager

from ..engine.expr import BoundParams
from ..engine.stats import LogHistogram
from ..sql import ast as A
from .sharding import statement_facts

#: Statement types that never appear in citus_stat_statements (transaction
#: control and introspection noise, mirroring real pg_stat_statements
#: defaults).
_UNTRACKED_STMTS = (A.Begin, A.Commit, A.Rollback, A.SetVar, A.ShowVar)


class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are simulated-clock seconds; ``attrs`` carries
    operation-specific detail (rows, bytes, tier, queue wait...);
    ``children`` nest.
    """

    __slots__ = ("name", "cat", "start", "end", "node", "attrs", "children")

    def __init__(self, name: str, cat: str, start: float, end: float | None = None,
                 node: str | None = None, attrs: dict | None = None):
        self.name = name
        self.cat = cat
        self.start = start
        self.end = start if end is None else end
        self.node = node
        self.attrs = attrs if attrs is not None else {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def add(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, cat: str | None = None, name: str | None = None) -> list["Span"]:
        """All descendant spans (including self) matching category/name."""
        return [
            s for s in self.walk()
            if (cat is None or s.cat == cat) and (name is None or s.name == name)
        ]

    def note_result(self, result) -> None:
        rows = getattr(result, "rowcount", 0) or len(getattr(result, "rows", ()))
        self.attrs["rows"] = rows

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "node": self.node,
            "attrs": dict(self.attrs),
            "children": [c.as_dict() for c in self.children],
        }

    def __repr__(self):
        return (f"Span({self.name!r}, cat={self.cat!r},"
                f" dur={self.duration * 1000:.3f}ms,"
                f" children={len(self.children)})")


class Trace:
    """A finished (or in-flight) statement trace: the root span plus the
    statement-level attribution the planner hook fills in."""

    __slots__ = ("root", "stmt", "session_name", "tier", "fingerprint",
                 "tenant", "cached", "rows", "error", "kind", "_sql")

    def __init__(self, root: Span, stmt=None, session_name: str | None = None,
                 kind: str = "statement"):
        self.root = root
        self.stmt = stmt
        self.session_name = session_name
        self.tier: str | None = None
        self.fingerprint: str | None = None
        self.tenant = None
        self.cached = False
        self.rows = 0
        self.error: str | None = None
        self.kind = kind
        self._sql: str | None = None

    @property
    def sql(self) -> str:
        """The statement's SQL text, deparsed lazily (only traces that are
        actually reported — stat_statements keys, slow log, export — pay
        for deparsing)."""
        if self._sql is None:
            if self.stmt is None:
                self._sql = self.root.name
            else:
                try:
                    from ..sql.deparse import deparse

                    self._sql = deparse(self.stmt)
                except Exception:
                    self._sql = type(self.stmt).__name__
        return self._sql

    @property
    def duration(self) -> float:
        return self.root.duration

    @property
    def bytes(self) -> int:
        """Total wire bytes attributed to this statement: the sum over
        task spans only — their batch children break the same bytes down
        per fetch, so summing every span would double-count."""
        return sum(
            s.attrs.get("bytes", 0)
            for s in self.root.walk()
            if s.cat == "executor"
        )

    def note_result(self, result) -> None:
        self.rows = (getattr(result, "rowcount", 0)
                     or len(getattr(result, "rows", ())))
        self.root.attrs["rows"] = self.rows

    def find(self, cat: str | None = None, name: str | None = None) -> list[Span]:
        return self.root.find(cat, name)

    def as_dict(self) -> dict:
        return {
            "sql": self.sql,
            "tier": self.tier,
            "fingerprint": self.fingerprint,
            "tenant": self.tenant,
            "cached": self.cached,
            "rows": self.rows,
            "bytes": self.bytes,
            "error": self.error,
            "duration_ms": self.duration * 1000.0,
            "root": self.root.as_dict(),
        }

    def __repr__(self):
        return (f"Trace({self.root.name!r}, tier={self.tier!r},"
                f" dur={self.duration * 1000:.3f}ms)")


def _stmt_sql(stmt) -> str:
    """SQL text of a statement AST, falling back to the node type name."""
    if stmt is None:
        return "<unknown>"
    try:
        from ..sql.deparse import deparse

        return deparse(stmt)
    except Exception:
        return type(stmt).__name__


class StatementStats:
    """Per-fingerprint aggregation of finished traces — the data behind
    ``citus_stat_statements()``.

    Keyed on ``(fingerprint, tenant)`` where the fingerprint is the same
    normalized-template key the distributed plan cache uses and the tenant
    is the distribution-column value of fast-path/router statements (None
    for multi-shard statements). Only statements that went through the
    distributed planner are tracked, matching real ``citus_stat_statements``.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[tuple, dict] = {}

    def record(self, trace: Trace) -> None:
        if trace.fingerprint is None:
            return
        key = (trace.fingerprint, trace.tenant)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = {
                # The query text deparses lazily in rows(): only entries
                # actually viewed pay for it, keeping record() off the
                # statement hot path.
                "query": None,
                "_stmt": trace.stmt,
                "tenant": trace.tenant,
                "tier": trace.tier,
                "calls": 0,
                "total_time": 0.0,
                "min_time": float("inf"),
                "max_time": 0.0,
                "rows": 0,
                "bytes": 0,
                "errors": 0,
                "cache_hits": 0,
                "histogram": LogHistogram(),
            }
        elapsed = trace.duration
        entry["calls"] += 1
        entry["total_time"] += elapsed
        entry["min_time"] = min(entry["min_time"], elapsed)
        entry["max_time"] = max(entry["max_time"], elapsed)
        entry["rows"] += trace.rows
        entry["bytes"] += trace.bytes
        entry["tier"] = trace.tier or entry["tier"]
        if trace.error:
            entry["errors"] += 1
        if trace.cached:
            entry["cache_hits"] += 1
        entry["histogram"].observe(elapsed)

    def rows(self) -> list[list]:
        """``citus_stat_statements()`` rows: [query, partition_key, tier,
        calls, total_ms, min_ms, max_ms, p50_ms, p95_ms, p99_ms, rows,
        bytes, plan_cache_hits], ordered by total time descending."""
        out = []
        for entry in self.entries.values():
            hist = entry["histogram"]
            if entry["query"] is None:
                entry["query"] = _stmt_sql(entry.pop("_stmt"))
            out.append([
                entry["query"],
                entry["tenant"],
                entry["tier"],
                entry["calls"],
                entry["total_time"] * 1000.0,
                (0.0 if entry["calls"] == 0 else entry["min_time"]) * 1000.0,
                entry["max_time"] * 1000.0,
                hist.percentile(50) * 1000.0,
                hist.percentile(95) * 1000.0,
                hist.percentile(99) * 1000.0,
                entry["rows"],
                entry["bytes"],
                entry["cache_hits"],
            ])
        out.sort(key=lambda r: r[4], reverse=True)
        return out

    def reset(self) -> None:
        self.entries.clear()


class Tracer:
    """The per-cluster trace collector.

    Single-threaded by construction (the whole cluster simulation is), so
    a plain span stack models the call tree exactly: nested statement
    dispatches (worker backends on the same process, UDF-internal SQL)
    become nested spans rather than separate traces.
    """

    def __init__(self, clock):
        self.clock = clock
        self.enabled = True
        self.buffer: deque[Trace] = deque(maxlen=256)
        self.stat_statements = StatementStats()
        self.slow_log: list[dict] = []
        #: citus.log_min_duration in milliseconds; negative disables.
        self.log_min_duration: float = -1.0
        self._stack: list[Span] = []
        self._trace: Trace | None = None

    # -------------------------------------------------------- configuration

    def configure(self, enabled: bool | None = None,
                  buffer_size: int | None = None,
                  log_min_duration: float | None = None) -> None:
        if enabled is not None:
            self.enabled = bool(enabled)
        if buffer_size is not None and buffer_size != self.buffer.maxlen:
            self.buffer = deque(self.buffer, maxlen=max(1, int(buffer_size)))
        if log_min_duration is not None:
            self.log_min_duration = float(log_min_duration)

    @property
    def active(self) -> bool:
        """True while any trace or capture is collecting — the cheap guard
        every instrumentation point checks before building spans."""
        return bool(self._stack)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------- recording

    def begin_statement(self, session, stmt) -> tuple:
        """Open a statement trace (or, inside an already-active trace, a
        nested statement span) and return an opaque token for
        :meth:`end_statement` / :meth:`fail_statement`.

        This begin/end pair is the statement-dispatch hot path — it avoids
        the generator machinery of the :meth:`statement` context manager.
        The caller must have checked ``tracer.enabled or tracer.active``.
        """
        name = type(stmt).__name__
        span = Span(name, "statement", self.clock.now(),
                    node=session.instance.name)
        if self._stack:
            self._stack[-1].add(span)
            self._stack.append(span)
            return (None, span)
        trace = Trace(span, stmt=stmt,
                      session_name=getattr(session, "name", None))
        self._trace = trace
        self._stack.append(span)
        return (trace, span)

    def end_statement(self, token: tuple, result=None) -> None:
        trace, span = token
        self._stack.pop()
        if trace is None:
            self._finalize(span)
            return
        if result is not None:
            trace.note_result(result)
        self._trace = None
        self._finalize(span)
        self._record(trace)

    def fail_statement(self, token: tuple, exc: BaseException) -> None:
        trace, _span = token
        if trace is not None:
            trace.error = type(exc).__name__
        self.end_statement(token)

    @contextmanager
    def statement(self, session, stmt):
        """Trace one statement dispatch (context-manager convenience over
        :meth:`begin_statement` / :meth:`end_statement`).

        At the top level this opens a new :class:`Trace` (recorded into the
        ring buffer on exit); inside an already-active trace — a worker
        backend on this process, UDF-internal SQL, EXPLAIN ANALYZE capture
        — it nests a child span instead.
        """
        if not self._stack and not self.enabled:
            yield None
            return
        token = self.begin_statement(session, stmt)
        try:
            yield token[0] if token[0] is not None else token[1]
        except BaseException as exc:
            self.fail_statement(token, exc)
            raise
        else:
            self.end_statement(token)

    @contextmanager
    def span(self, name: str, cat: str = "span", node: str | None = None,
             **attrs):
        """Nest a child span under the current one; no-op (yields None)
        when nothing is collecting."""
        if not self._stack:
            yield None
            return
        span = Span(name, cat, self.clock.now(), node=node, attrs=attrs)
        self._stack[-1].add(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self._finalize(span)

    def add_span(self, name: str, cat: str, start: float, end: float,
                 node: str | None = None, parent: Span | None = None,
                 **attrs) -> Span | None:
        """Attach a completed span with explicit timestamps (the executor's
        reconstructed-parallel timeline) under ``parent`` or the current
        span. Returns None when nothing is collecting."""
        if parent is None:
            if not self._stack:
                return None
            parent = self._stack[-1]
        span = Span(name, cat, start, end, node=node, attrs=attrs)
        parent.add(span)
        return span

    def event(self, name: str, cat: str = "event", node: str | None = None,
              **attrs) -> Span | None:
        """A zero-duration instant span at the current simulated time."""
        now = self.clock.now()
        return self.add_span(name, cat, now, now, node=node, **attrs)

    @contextmanager
    def capture(self, name: str = "capture"):
        """Force span collection for the duration of the block, regardless
        of the ``enabled`` flag, and yield the collecting root span.

        EXPLAIN ANALYZE uses this: it needs the span tree for exactly one
        execution even when tracing is off. The captured tree is *not*
        recorded into the buffer or statement stats (unless it is itself
        nested inside an enabled trace, in which case it shows up there as
        a subtree too).
        """
        root = Span(name, "capture", self.clock.now())
        if self._stack:
            self._stack[-1].add(root)
        self._stack.append(root)
        try:
            yield root
        finally:
            self._stack.pop()
            self._finalize(root)

    @contextmanager
    def operation(self, name: str):
        """Trace a non-statement operation (maintenance cycle, recovery
        round) as its own buffered trace. Nested under an active trace it
        degrades to a plain span; disabled tracing makes it a no-op."""
        if self._stack:
            with self.span(name, "operation") as span:
                yield span
            return
        if not self.enabled:
            yield None
            return
        root = Span(name, "operation", self.clock.now())
        trace = Trace(root, kind="operation")
        self._trace = trace
        self._stack.append(root)
        try:
            yield trace
        finally:
            self._stack.pop()
            self._trace = None
            self._finalize(root)
            if len(root.children) > 0:
                self.buffer.append(trace)

    def annotate(self, tier: str | None = None, fingerprint: str | None = None,
                 tenant=None, cached: bool | None = None) -> None:
        """Statement-level attribution from the planner hook. Only fills
        fields still unset so a nested distributed statement (UDF-internal
        SQL) cannot overwrite the outer statement's attribution."""
        trace = self._trace
        if trace is None:
            return
        if tier is not None and trace.tier is None:
            trace.tier = tier
        if fingerprint is not None and trace.fingerprint is None:
            trace.fingerprint = fingerprint
        if tenant is not None and trace.tenant is None:
            trace.tenant = tenant
        if cached is not None and trace.tier is not None and not trace.cached:
            trace.cached = cached

    def _finalize(self, span: Span) -> None:
        """Close a span: its end is the later of the current simulated time
        and its children's ends (executor spans use reconstructed offsets
        that the clock has already advanced past)."""
        end = self.clock.now()
        for child in span.children:
            if child.end > end:
                end = child.end
        span.end = max(end, span.start)

    def _record(self, trace: Trace) -> None:
        self.buffer.append(trace)
        if trace.kind == "statement" and not isinstance(
            trace.stmt, _UNTRACKED_STMTS
        ):
            self.stat_statements.record(trace)
        if self.log_min_duration >= 0:
            duration_ms = trace.duration * 1000.0
            if duration_ms >= self.log_min_duration:
                self.slow_log.append({
                    "sql": trace.sql,
                    "duration_ms": duration_ms,
                    "tier": trace.tier,
                    "tenant": trace.tenant,
                    "rows": trace.rows,
                    "error": trace.error,
                    "at": trace.root.start,
                })

    def reset(self) -> None:
        """Drop buffered traces, statement stats, and the slow-query log
        (does not touch in-flight spans)."""
        self.buffer.clear()
        self.stat_statements.reset()
        self.slow_log.clear()

    # --------------------------------------------------------------- export

    def export_chrome(self, limit: int | None = None) -> dict:
        """Buffered traces as a Chrome trace-event object (load the JSON in
        ``chrome://tracing`` or https://ui.perfetto.dev). Each node gets
        its own thread lane; span attrs become event ``args``."""
        traces = list(self.buffer)
        if limit is not None:
            traces = traces[-limit:]
        events: list[dict] = []
        tids: dict[str, int] = {}

        def tid_for(node: str | None) -> int:
            key = node or "coordinator"
            if key not in tids:
                tids[key] = len(tids)
            return tids[key]

        def emit(span: Span, trace_sql: str | None, inherit_node: str | None):
            node = span.node or inherit_node
            args = {k: v for k, v in span.attrs.items() if v is not None}
            if trace_sql is not None:
                args["sql"] = trace_sql
            events.append({
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid_for(node),
                "args": args,
            })
            for child in span.children:
                emit(child, None, node)

        for trace in traces:
            emit(trace.root, trace.sql, None)
        for name, tid in tids.items():
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_json(self, limit: int | None = None) -> str:
        return json.dumps(self.export_chrome(limit), default=str)


# --------------------------------------------------------------- attachment

_ATTR = "_citus_tracer"


def trace_for(holder, clock) -> Tracer:
    """The tracer attached to ``holder`` (the cluster object), creating it
    on first use — every node's extension shares the same tracer, exactly
    like the stats registry."""
    tracer = getattr(holder, _ATTR, None)
    if tracer is None:
        tracer = Tracer(clock)
        setattr(holder, _ATTR, tracer)
    return tracer


# --------------------------------------------------------- tenant extraction


# Tenant extraction is memoized on the statement's StatementFacts, so the
# WHERE-clause walk runs once per distinct statement and metadata state;
# per execution only a pre-compiled value lookup remains.

#: Resolver kinds a tenant expression compiles to (see _compile_tenant_plan).
_K_VALUE, _K_NAMED, _K_POSITIONAL, _K_EXPR = 0, 1, 2, 3


def _find_tenant_exprs(cache, stmt):
    """Candidate AST expressions holding the statement's distribution-column
    value (``dist_col = <expr>`` conjuncts, or the INSERT column), or None
    when the statement is not single-tenant-shaped."""
    from .planner.fast_path import _is_dist_ref
    from .sharding import _conjuncts

    if isinstance(stmt, A.Insert):
        dist = cache.tables.get(stmt.table)
        if dist is None or dist.is_reference or stmt.select is not None:
            return None
        if len(stmt.rows) != 1 or not stmt.columns:
            return None
        try:
            position = stmt.columns.index(dist.dist_column)
        except ValueError:
            return None
        return (stmt.rows[0][position],)
    if isinstance(stmt, A.Select):
        if len(stmt.from_items) != 1 or not isinstance(
            stmt.from_items[0], A.TableRef
        ):
            return None
        dist = cache.tables.get(stmt.from_items[0].name)
        if dist is None or dist.is_reference:
            return None
        where, alias = stmt.where, stmt.from_items[0].ref_name
    elif isinstance(stmt, (A.Update, A.Delete)):
        dist = cache.tables.get(stmt.table)
        if dist is None or dist.is_reference:
            return None
        where, alias = stmt.where, stmt.alias or stmt.table
    else:
        return None
    if where is None:
        return None
    exprs = []
    for conjunct in _conjuncts(where):
        if not (isinstance(conjunct, A.BinaryOp) and conjunct.op == "="):
            continue
        left, right = conjunct.left, conjunct.right
        if _is_dist_ref(right, dist, alias):
            left, right = right, left
        if _is_dist_ref(left, dist, alias):
            exprs.append(right)
    return tuple(exprs) or None


def _compile_tenant_plan(exprs):
    """Lower candidate expressions into (kind, payload) resolver steps so
    the per-execution path is a couple of inline dict lookups — no AST
    dispatch, no _const_of call for the common literal/param shapes."""
    if not exprs:
        return None
    plan = []
    for expr in exprs:
        if type(expr) is A.Literal:
            plan.append((_K_VALUE, expr.value))
        elif type(expr) is A.Param:
            if expr.name is not None:
                plan.append((_K_NAMED, expr.name))
            elif expr.index is not None:
                plan.append((_K_POSITIONAL, expr.index))
        else:
            # Casts and anything exotic fall back to full constant folding.
            plan.append((_K_EXPR, expr))
    return tuple(plan) or None


# Lazily bound once on first use (importing fast_path at module load would
# couple tracing into the planner package's import order); a per-call
# ``from ... import`` re-runs the importlib machinery on every statement.
_MISS = _const_of = None


def partition_key_for(ext, stmt, params):
    """The distribution-column value a single-tenant statement targets
    (the ``partition_key`` attribute of citus_stat_statements), or None
    for multi-shard statements."""
    global _MISS, _const_of
    cache = ext.metadata.cache
    facts = statement_facts(stmt)
    if facts.tenant_in is not cache:
        try:
            exprs = _find_tenant_exprs(cache, stmt)
        except Exception:
            exprs = None
        facts.tenant_plan = _compile_tenant_plan(exprs)
        facts.tenant_in = cache
    plan = facts.tenant_plan
    if plan is None:
        return None
    named = positional = None
    params_type = type(params)
    if params_type is dict:
        named = params
    elif params_type is BoundParams:
        named = params.named
        positional = params.positional
    elif params_type is list or params_type is tuple:
        positional = params
    for kind, payload in plan:
        if kind == _K_VALUE:
            return payload
        if kind == _K_NAMED:
            if named is not None and payload in named:
                return named[payload]
        elif kind == _K_POSITIONAL:
            if positional is not None and payload <= len(positional):
                return positional[payload - 1]
        else:
            if _const_of is None:
                from .planner.fast_path import _MISS, _const_of
            try:
                value = _const_of(payload, params)
            except Exception:
                return None
            if value is not _MISS:
                return value
    return None
