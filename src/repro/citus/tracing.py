"""Span trees, statement statistics and the Chrome trace export — all
derived from statement records.

The statement path allocates no :class:`Span`: it appends event tuples to
the statement's :class:`~.record.StatementRecord` (see :mod:`.record` for
the layout and :mod:`.telemetry` for who appends them). This module holds
what is made *from* records afterwards:

- :func:`build_trace` — the span tree of one record: parse/plan (tier,
  cache hit, task count), per-task dispatch (queue wait, connection setup,
  network bytes, worker execution, cursor batches), the coordinator merge,
  the 2PC prepare/commit/recovery phases. Built when ``citus_trace_export``,
  ``citus_slow_queries`` or EXPLAIN ANALYZE asks. Every timestamp comes from
  :class:`~repro.net.clock.SimClock`, so the same workload produces
  byte-identical span trees run after run.
- :class:`StatementStats` — the fold behind ``citus_stat_statements()``:
  per plan-cache fingerprint (and per tenant) calls, total/min/max time, a
  log-bucketed latency histogram (p50/p95/p99), rows, bytes, tier.
- :func:`export_chrome` — records as Chrome trace-event JSON (open in
  ``chrome://tracing`` / Perfetto), one lane per node.
"""

from __future__ import annotations

from ..engine.stats import LogHistogram
from ..sql import ast as A
from .record import (BATCH, BEGIN, BLOCKED_TASK, CHANNELS, CLOSE, CONNECT, DISPATCH,
                     E_ATTRS, E_CAT, E_END, E_NAME, E_NODE, E_PARENT, E_START,
                     EXECUTION, FLUSH, STREAMS, TXN, U_BYTES, U_COST, U_GROUP,
                     U_INDEX, U_KIND, U_NODE, U_ROWS, U_START, X_REPORT,
                     X_TASKS, X_UNITS, StatementRecord)

#: Statement types that never appear in citus_stat_statements (transaction
#: control and introspection noise, mirroring real pg_stat_statements
#: defaults).
_UNTRACKED_STMTS = (A.Begin, A.Commit, A.Rollback, A.SetVar, A.ShowVar)

#: Commit-phase spans that carry the transaction's access summary.
_ACCESS_SPANS = ("commit.1pc", "2pc.commit_records")


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

    def __repr__(self):
        return (f"Span({self.name!r}, cat={self.cat!r},"
                f" dur={self.duration * 1000:.3f}ms,"
                f" children={len(self.children)})")


def _stmt_sql(stmt) -> str:
    """SQL text of a statement AST, falling back to the node type name."""
    if stmt is None:
        return "<unknown>"
    try:
        from ..sql.deparse import deparse

        return deparse(stmt)
    except Exception:
        return type(stmt).__name__


def record_sql(record: StatementRecord) -> str:
    """The record's statement text, deparsed on demand (only records that
    are actually reported — slow log, export — pay for deparsing)."""
    return record.name if record.stmt is None else _stmt_sql(record.stmt)


# ------------------------------------------------------------ the span view


def build_trace(record: StatementRecord) -> Span:
    """The span tree of a closed record; its root is the statement."""
    attrs = {} if record.rows is None else {"rows": record.rows}
    root = Span(record.name, record.kind, record.start, record.end,
                node=record.node, attrs=attrs)
    _attach(record, root, -1)
    return root


def build_subtree(record: StatementRecord, index: int) -> Span:
    """The span tree under the open-span event at ``index`` of ``record``
    (an EXPLAIN ANALYZE capture nested in a statement)."""
    event = record.events[index]
    root = Span(event[E_NAME], event[E_CAT], event[E_START], event[E_END],
                node=event[E_NODE])
    _attach(record, root, index)
    _close_over_children(root)
    return root


def _close_over_children(span: Span) -> None:
    """A span that was open while others nested under it ends no earlier
    than they do (executor and commit spans use reconstructed offsets that
    may lie past the clock)."""
    for child in span.children:
        if child.end > span.end:
            span.end = child.end


def _attach(record: StatementRecord, root: Span, root_index: int) -> None:
    """Hang the spans of every event below ``root_index`` under ``root``."""
    events = record.events
    spans: dict[int, Span] = {root_index: root}
    opened: list[Span] = []
    failed = record.error is not None
    for index in range(root_index + 1, len(events)):
        event = events[index]
        parent = spans.get(event[E_PARENT])
        if parent is None:
            continue  # belongs to a sibling subtree
        cat = event[E_CAT]
        if cat is TXN:
            continue
        if cat is EXECUTION:
            _execution_spans(parent, event, failed)
            continue
        attrs = event[E_ATTRS]
        attrs = dict(attrs) if attrs else {}
        if record.access is not None and event[E_NAME] in _ACCESS_SPANS:
            attrs.update(record.access)
        end = event[E_END]
        span = Span(event[E_NAME], cat, event[E_START],
                    event[E_START] if end is None else end,
                    node=event[E_NODE], attrs=attrs)
        parent.add(span)
        if type(event) is list:
            spans[index] = span
            opened.append(span)
    for span in reversed(opened):
        _close_over_children(span)


def _execution_spans(parent: Span, event: tuple, statement_failed: bool) -> None:
    """One executor run's ``connect`` / ``task`` spans (and the ``route``
    span of a COPY-channel run), from its units."""
    base = event[E_START]
    payload = event[E_ATTRS]
    driver = event[E_NAME]
    by_task: dict[int, list] = {}
    begin_bytes = 0
    for unit in payload[X_UNITS]:
        kind = unit[U_KIND]
        if kind == BEGIN:
            begin_bytes = unit[U_BYTES]  # shown on the task it precedes
        elif kind == CONNECT:
            parent.add(Span("connect", "network", base + unit[U_START],
                            base + (unit[U_START] + unit[U_COST]),
                            node=unit[U_NODE]))
        elif kind == BLOCKED_TASK and statement_failed:
            continue
        elif driver is STREAMS or driver is CHANNELS:
            by_task.setdefault(unit[U_INDEX], []).append(unit)
        else:
            start = base + unit[U_START]
            parent.add(Span(
                "task", "executor", start, start + unit[U_COST],
                node=unit[U_NODE],
                attrs={"index": unit[U_INDEX], "rows": unit[U_ROWS],
                       "bytes": unit[U_BYTES] + begin_bytes,
                       "queued_ms": unit[U_START] * 1000.0,
                       "shard_group": unit[U_GROUP], "retries": 0}))
            begin_bytes = 0
    if driver is STREAMS:
        for index, task in enumerate(payload[X_TASKS]):
            units = by_task.get(index)
            if units is None:
                # Never dispatched (the early-terminated merge skipped it).
                parent.add(Span(
                    "task", "executor", base, base, node=task.node,
                    attrs={"index": index, "rows": 0, "bytes": 0,
                           "batches": 0, "skipped": True, "retries": 0}))
            else:
                parent.add(_unit_task_span(base, index, units))
    elif driver is CHANNELS:
        for index, units in by_task.items():
            parent.add(_unit_task_span(base, index, units))
        report = payload[X_REPORT]
        parent.add(Span(
            "route", "repartition", base, base + report.elapsed,
            attrs={"flushes": report.copy_flushes,
                   "rows": report.copy_rows_routed,
                   "bytes": report.copy_bytes_streamed,
                   "channel_peak_rows": report.copy_channel_peak_rows,
                   "channels": report.task_count}))


_UNIT_SPAN_NAMES = {DISPATCH: "dispatch", BATCH: "batch", CLOSE: "close",
                    FLUSH: "flush"}


def _unit_task_span(base: float, index: int, units: list) -> Span:
    """The ``task`` span of one shard stream or COPY channel, with one
    network child per dispatch / batch / close / flush."""
    first = units[0]
    node = first[U_NODE]
    span = Span("task", "executor", base + first[U_START], node=node)
    rows = nbytes = batches = 0
    last = 0.0
    for unit in units:
        kind = unit[U_KIND]
        # Offsets are summed before the base is added, as the executor
        # always did: the same floats, the same span times.
        end = unit[U_START] + unit[U_COST]
        attrs = None
        if kind == BATCH or kind == FLUSH:
            attrs = {"rows": unit[U_ROWS], "bytes": unit[U_BYTES]}
            if unit[U_ROWS] or kind == FLUSH:
                batches += 1
        span.add(Span(_UNIT_SPAN_NAMES[kind], "network", base + unit[U_START],
                      base + end, node=node, attrs=attrs))
        rows += unit[U_ROWS]
        nbytes += unit[U_BYTES]
        if end > last:
            last = end
    span.end = base + last
    span.attrs = {"index": index, "rows": rows, "bytes": nbytes,
                  "batches": batches, "shard_group": first[U_GROUP],
                  "retries": 0}
    return span


# ---------------------------------------------------- citus_stat_statements


class StatementStats:
    """Per-fingerprint aggregation of closed records — the fold behind
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

    def fold(self, record: StatementRecord) -> None:
        if (record.fingerprint is None or record.kind != "statement"
                or isinstance(record.stmt, _UNTRACKED_STMTS)):
            return
        key = (record.fingerprint, record.tenant)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = {
                # The query text deparses lazily in rows(): only entries
                # actually viewed pay for it.
                "query": None,
                "_stmt": record.stmt,
                "tenant": record.tenant,
                "tier": record.tier,
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
        elapsed = record.end - record.start
        entry["calls"] += 1
        entry["total_time"] += elapsed
        entry["min_time"] = min(entry["min_time"], elapsed)
        entry["max_time"] = max(entry["max_time"], elapsed)
        entry["rows"] += record.rows or 0
        entry["bytes"] += record.wire_bytes()
        entry["tier"] = record.tier or entry["tier"]
        if record.error:
            entry["errors"] += 1
        if record.cached:
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


def slow_log_entry(record: StatementRecord) -> dict:
    return {
        "sql": record_sql(record),
        "duration_ms": record.duration * 1000.0,
        "tier": record.tier,
        "tenant": record.tenant,
        "rows": record.rows or 0,
        "error": record.error,
        "at": record.start,
    }


# ------------------------------------------------------------------- export


def export_chrome(records) -> dict:
    """Records as a Chrome trace-event object (load the JSON in
    ``chrome://tracing`` or https://ui.perfetto.dev). Each node gets its
    own thread lane; span attrs become event ``args``."""
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

    for record in records:
        emit(build_trace(record), record_sql(record), None)
    for name, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": name},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
