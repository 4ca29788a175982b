"""The statement record: what telemetry captures, once, per statement.

A top-level statement gets one :class:`StatementRecord`, opened when the
session dispatches it and closed when the session's activity window closes
(so a statement that parks on a lock is one record spanning its wait).
Everything that happens on its behalf — nested worker dispatches, engine
selects, plan decisions, executor work, commit phases, waits — is appended
to ``events`` as plain tuples; the surfaces are folds over closed records
(see :mod:`.telemetry`) and span trees are a view built on demand
(:func:`.tracing.build_trace`).

**Events** are ``(parent, name, cat, start, end, node, attrs)``. ``parent``
is the index of the enclosing event in the same list (-1: the record's
root), ``start`` / ``end`` simulated-clock seconds. Spans that stay open
while other events nest under them (a nested statement, an engine select,
an EXPLAIN ANALYZE capture) are *lists* of the same shape whose ``end`` is
filled on exit; everything else is a tuple. Two categories are not spans:

- ``cat == EXECUTION`` — one run of the adaptive executor. ``name`` is the
  driver (:data:`TASKS` / :data:`STREAMS` / :data:`CHANNELS`), ``start``
  the clock when it began (unit offsets are relative to it) and ``attrs``
  an :data:`X_UNITS`... tuple. Its **units** — one tuple per piece of
  connection work, ``(kind, index, node, shard_group, is_write, start,
  cost, rows, bytes)`` — are at once the timeline the task spans are drawn
  from and the access set the co-access graph folds.
- ``cat == TXN`` — the session's distributed transaction ended; ``name`` is
  :data:`COMMIT` or :data:`ABORT`, ``attrs`` ``(session_key, twopc,
  bucket)``.
"""

from __future__ import annotations

from collections import deque

# Event fields.
E_PARENT, E_NAME, E_CAT, E_START, E_END, E_NODE, E_ATTRS = range(7)

#: Event categories that are not spans.
EXECUTION = "execution"
TXN = "txn"

#: Execution drivers (an EXECUTION event's name).
TASKS, STREAMS, CHANNELS = "tasks", "streams", "channels"

# Execution payload fields (an EXECUTION event's attrs).
(X_UNITS, X_REPORT, X_TASKS, X_SESSION, X_TENANT, X_EXPLICIT, X_OUTCOME,
 X_BUCKET, X_AUTOCOMMIT) = range(9)

#: Execution outcomes. A BLOCKED execution hit a lock and its statement
#: parked: it counts (accesses, window observation, task span) only if the
#: statement then completed without an error.
OK, FAILED, BLOCKED = "ok", "failed", "blocked"

# Unit fields.
(U_KIND, U_INDEX, U_NODE, U_GROUP, U_WRITE, U_START, U_COST, U_ROWS,
 U_BYTES) = range(9)

#: Unit kinds. CONNECT (connection establishment) and BEGIN (opening the
#: worker transaction block a blocking task then runs in: its bytes show
#: on the task's span, its round trip is not on the timeline) are not
#: accesses; a BLOCKED_TASK is the task that hit the lock in a BLOCKED
#: execution.
CONNECT, BEGIN, TASK, BLOCKED_TASK, DISPATCH, BATCH, CLOSE, FLUSH = range(8)

#: TXN event names.
COMMIT, ABORT = "commit", "abort"


class StatementRecord:
    """One top-level statement (``kind == "statement"``), maintenance
    operation (``"operation"``) or free-standing EXPLAIN ANALYZE capture
    (``"capture"``).

    ``fingerprint`` is the normalization template ``citus_stat_statements``
    keys on and ``digest`` its short form shown by the activity view and
    ASH — the join key across surfaces. ``traced`` says whether span detail
    is kept (``citus.enable_tracing``, or a capture in progress);
    ``max_end`` is the latest explicit event end, so the root closes no
    earlier than its children (commit phases are reconstructed past the
    clock). ``access`` is filled by the co-access fold: the transaction's
    access summary shown on its commit spans.
    """

    __slots__ = ("kind", "name", "stmt", "node", "start", "end", "max_end", "tier", "fingerprint", "digest", "tenant",
                 "cached", "rows", "error", "wait_seconds", "events", "stack",
                 "traced", "bucket", "access")

    def __init__(self, kind: str, name: str, stmt, node: str | None,
                 start: float, traced: bool):
        self.kind = kind
        self.name = name
        self.stmt = stmt
        self.node = node
        self.start = start
        self.end: float | None = None  # None while open
        self.max_end = start
        self.tier: str | None = None
        self.fingerprint: str | None = None
        self.digest: str | None = None
        self.tenant = None
        self.cached = False
        self.rows: int | None = None  # None: no result (failed, or open)
        self.error: str | None = None
        self.wait_seconds = 0.0
        self.events: list = []
        self.stack: list[int] = []  # indexes of the open span events
        self.traced = traced
        self.bucket: int | None = None  # window bucket it closed in
        self.access: dict | None = None

    def add(self, name: str, cat: str, start: float, end: float, node,
            attrs) -> None:
        """Append a complete event under whichever span is open."""
        if end > self.max_end:
            self.max_end = end
        stack = self.stack
        self.events.append((stack[-1] if stack else -1, name, cat, start, end,
                            node, attrs))

    @property
    def duration(self) -> float:
        return self.end - self.start  # never negative: see Telemetry.close

    def wire_bytes(self) -> int:
        """Wire bytes attributed to the statement: every unit that is
        drawn on a task span (the span's batch children break the same
        bytes down per fetch, so summing spans would double-count)."""
        failed = self.error is not None
        total = 0
        for event in self.events:
            if event[E_CAT] is EXECUTION:
                for unit in event[E_ATTRS][X_UNITS]:
                    if not (failed and unit[U_KIND] == BLOCKED_TASK):
                        total += unit[U_BYTES]
        return total


class Ring:
    """Bounded storage that says what it dropped: appending to a full ring
    evicts the oldest entry and counts it. ``high_water`` is the most
    entries it ever held."""

    __slots__ = ("items", "high_water", "dropped")

    def __init__(self, capacity: int):
        self.items: deque = deque(maxlen=max(1, int(capacity)))
        self.high_water = 0
        self.dropped = 0

    @property
    def capacity(self) -> int:
        return self.items.maxlen

    def append(self, item) -> None:
        items = self.items
        if len(items) == items.maxlen:
            self.dropped += 1
        elif len(items) == self.high_water:
            self.high_water += 1
        items.append(item)

    def extend(self, new: list) -> None:
        items = self.items
        overflow = len(items) + len(new) - items.maxlen
        if overflow > 0:
            self.dropped += overflow
        items.extend(new)
        if len(items) > self.high_water:
            self.high_water = len(items)

    def resize(self, capacity: int) -> None:
        """Change the capacity, keeping the newest entries."""
        capacity = max(1, int(capacity))
        if capacity != self.items.maxlen:
            self.dropped += max(0, len(self.items) - capacity)
            self.items = deque(self.items, maxlen=capacity)

    def clear(self) -> None:
        self.items.clear()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]
