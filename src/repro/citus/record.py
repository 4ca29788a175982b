"""The statement record: what telemetry captures, once, per statement.

A top-level statement gets one :class:`StatementRecord`, opened when the
session dispatches it and closed when the session's activity window closes
(so a statement that parks on a lock is one record spanning its wait).
Everything that happens on its behalf — nested worker dispatches, engine
selects, plan decisions, executor work, commit phases, waits — is appended
to ``events``; the surfaces are folds over closed records (see
:mod:`.telemetry`) and span trees a view built on demand
(:func:`.tracing.build_trace`).

**Events** are flat tuples ``(parent, name, cat, start, end, node,
*attrs)``: ``parent`` the index of the enclosing event (-1: the root),
``start`` / ``end`` simulated-clock seconds, a span's attrs ``key, value,
...``. A span others nest under (a nested statement, an engine select, an
EXPLAIN ANALYZE capture) is appended with ``end`` None and replaced on
exit. Two categories are not spans:

- ``EXECUTION`` — one run of the adaptive executor; ``name`` is the driver
  (:data:`TASKS` / :data:`STREAMS` / :data:`CHANNELS`), ``start`` when it
  began (unit offsets are relative to it). Its ``X_*`` fields are followed
  by its **units**, :data:`UNIT_WIDTH` values per piece of connection work
  (``U_*``, :func:`execution_units`) — at once the timeline task spans are
  drawn from and the access set the co-access graph folds — and then its
  detail (:func:`execution_detail`): a stream run's task nodes, a channel
  run's :data:`CHANNEL_FIELDS`, nothing for blocking tasks.
- ``TXN`` — the session's distributed transaction ended (:data:`COMMIT` /
  :data:`ABORT`): the session's :data:`X_NODE` / :data:`X_PID`, then
  :data:`X_TWOPC`.

**Frozen.** A closed record's ``events`` is a tuple of events of atomic
values (a shard group is a tuple of ints), which the collector untracks
(the events at its first pass, the tuple at the next): a record in the
pending buffer or trace ring keeps itself and its statement tracked.
"""

from __future__ import annotations

from collections import Counter, deque

# Event fields; a span's attrs start at E_ATTRS.
E_PARENT, E_NAME, E_CAT, E_START, E_END, E_NODE, E_ATTRS = range(7)

#: Event categories that are not spans.
EXECUTION = "execution"
TXN = "txn"

#: Execution drivers (an EXECUTION event's name).
TASKS, STREAMS, CHANNELS = "tasks", "streams", "channels"

# EXECUTION event fields: the session (node, backend pid), its tenant, in
# a transaction block, outcome, transaction ends with it, units. A TXN
# event: the session, then whether it committed in two phases.
(X_NODE, X_PID, X_TENANT, X_EXPLICIT, X_OUTCOME, X_AUTOCOMMIT,
 X_UNIT_COUNT, X_UNITS) = range(E_ATTRS, E_ATTRS + 8)
X_TWOPC = X_PID + 1

#: A channel run's detail: its report's COPY numbers, in this order.
CHANNEL_FIELDS = ("copy_flushes", "copy_rows_routed", "copy_bytes_streamed",
                  "copy_channel_peak_rows", "task_count")

#: Execution outcomes. A BLOCKED execution hit a lock and its statement
#: parked: it counts (accesses, task span) only if the statement then
#: completed without an error.
OK, FAILED, BLOCKED = "ok", "failed", "blocked"

# Unit fields.
(U_KIND, U_INDEX, U_NODE, U_GROUP, U_WRITE, U_START, U_COST, U_ROWS,
 U_BYTES) = range(9)
UNIT_WIDTH = 9

#: Unit kinds. CONNECT (connection establishment) and BEGIN (opening the
#: worker transaction block a blocking task then runs in: its bytes show
#: on the task's span, its round trip is not on the timeline) are not
#: accesses; a BLOCKED_TASK is the task that hit the lock in a BLOCKED
#: execution.
CONNECT, BEGIN, TASK, BLOCKED_TASK, DISPATCH, BATCH, CLOSE, FLUSH = range(8)

#: TXN event names.
COMMIT, ABORT = "commit", "abort"


def execution_units(event: tuple) -> list[tuple]:
    """An EXECUTION event's units, one ``U_*`` tuple each."""
    end = X_UNITS + event[X_UNIT_COUNT] * UNIT_WIDTH
    return [event[i:i + UNIT_WIDTH] for i in range(X_UNITS, end, UNIT_WIDTH)]


def execution_detail(event: tuple) -> tuple:
    """An EXECUTION event's detail: what follows its units."""
    return event[X_UNITS + event[X_UNIT_COUNT] * UNIT_WIDTH:]


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
    clock); ``top`` the index of the innermost open span (-1: none);
    ``wire`` / ``parked_wire`` the bytes of its executor units, a parked
    task's apart. ``access`` is filled by the co-access fold: the
    transaction's access summary shown on its commit spans. ``pid`` is the
    session's backend pid, and ``waits`` the waits accounted while the
    record was current, whole µs per (class, event, node), which ASH notes
    and folds and the tenant fold sums (flat key, µs pairs once closed).
    """

    __slots__ = ("kind", "name", "stmt", "node", "pid", "start", "end",
                 "max_end", "tier", "fingerprint", "digest", "tenant",
                 "cached", "rows", "error", "waits", "events",
                 "top", "traced", "wire", "parked_wire", "access")

    def __init__(self, kind: str, name: str, stmt, node: str | None,
                 start: float, traced: bool):
        self.kind, self.name, self.stmt, self.node = kind, name, stmt, node
        self.pid = None
        self.start = self.max_end = start
        self.end: float | None = None  # None while open
        self.tier = self.fingerprint = self.digest = self.tenant = None
        self.cached = False
        self.rows: int | None = None  # None: no result (failed, or open)
        self.error: str | None = None
        self.waits: list | tuple = ()  # a list once noted, a tuple closed
        self.events: list | tuple = []  # a tuple once closed
        self.top = -1
        self.traced = traced
        self.wire = self.parked_wire = 0
        self.access: tuple | None = None  # (nodes, groups, tenants)

    def add(self, name: str, cat: str, start: float, end: float, node,
            attrs: tuple = ()) -> None:
        """Append a complete event under whichever span is open."""
        if end > self.max_end:
            self.max_end = end
        self.events.append((self.top, name, cat, start, end, node) + attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start  # never negative: see Telemetry.close

    def wire_bytes(self) -> int:
        """Wire bytes of the units drawn on task spans (a failed
        statement's parked task is not)."""
        return self.wire + (self.parked_wire if self.error is None else 0)


class Ring:
    """Bounded storage that says what it dropped: appending to a full ring
    evicts the oldest entry and counts it. ``high_water`` is the most
    entries it ever held."""

    __slots__ = ("items", "high_water", "dropped")

    def __init__(self, capacity: int):
        self.items: deque = deque(maxlen=capacity)
        self.high_water = self.dropped = 0

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

    def extend(self, items: list) -> None:
        """Append each of ``items`` in turn, counted as :meth:`append`
        counts them."""
        store = self.items
        room = store.maxlen - len(store)
        if len(items) > room:
            self.dropped += len(items) - room
        store.extend(items)
        if len(store) > self.high_water:
            self.high_water = len(store)

    def clear(self) -> None:
        self.items.clear()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]


def _busiest(item) -> tuple:
    # Ties break on the key's text, so keys of mixed types (int and text
    # tenants, None in a tenant pair) still order.
    return -item[1], str(item[0])


def rank(items, with_detail: bool = False) -> list[tuple]:
    """Count ``items`` by key — an iterable of keys, or a ``{key: count}``
    mapping already counted — busiest first: ``[(key, count)]``. With
    ``with_detail`` the items are ``(key, detail, weight)`` triples: each
    key's weights are summed, and each row also names the detail carrying
    most of its weight, ranked the same way: ``[(key, total,
    top_detail)]``."""
    if not with_detail:
        return sorted(Counter(items).items(), key=_busiest)
    details: dict = {}
    for key, detail, weight in items:
        details.setdefault(key, Counter())[detail] += weight
    return sorted(((key, sum(per_key.values()),
                    min(per_key.items(), key=_busiest)[0])
                   for key, per_key in details.items()), key=_busiest)
