"""Per-session wait-event instrumentation, stamped from the simulated
clock.

PostgreSQL exposes *wait events* in ``pg_stat_activity``: whenever a
backend is not on-CPU it reports a (class, event) pair — ``Lock:tuple``,
``IO:WALSync``, ``Client:ClientRead`` — and tools like
``citus_dist_stat_activity`` surface them cluster-wide. This module is
the simulation's equivalent. Each :class:`~repro.engine.instance.Session`
(and each connection pool) owns a :class:`WaitEventStack`:

- **live waits** use :meth:`WaitEventStack.begin` /
  :meth:`WaitEventStack.finish` (or the :meth:`WaitEventStack.waiting`
  context manager) around a real suspension point — a lock conflict, a
  pool lease. The top of the stack is what the activity view reports as
  the session's current wait, and a ``wait_events_in_progress`` gauge
  tracks outstanding waits so tests can assert exception-safety.
- **reconstructed waits** use :meth:`WaitEventStack.record` for spans
  whose duration is computed from the cost model after the fact (remote
  I/O round trips, 2PC prepare/commit, WAL flush) — pure accounting, no
  stack entry.

Both note each wait on the telemetry's current statement record while
Active Session History or introspection is on (the one way ASH and the
tenant table learn of waits: ``ActiveSessionHistory.note``), and fold cumulative per-(class, event)
totals into whatever
:class:`~repro.engine.stats.StatsRegistry` the owning instance points at
via ``instance.wait_registry`` (the per-instance registry by default;
``install_citus`` repoints every node at the shared cluster registry so
``citus_stat_counters`` and the metrics snapshot see cluster-wide
totals). Counter names are ``wait_count:<Class>.<Event>`` and
``wait_time_us:<Class>.<Event>``, so :meth:`StatsRegistry.reset` clears
them like any other counter. Setting ``wait_registry`` to ``None``
disables the counters (the introspection kill-switch).

Wait-event class taxonomy (see DESIGN.md):

=========  ==========================================================
Class      Events
=========  ==========================================================
Lock       ``relation`` (table lock), ``tuple`` (row lock)
IPC        ``RemoteStatement`` (coordinator parked on a worker)
Net        ``RemoteConnect``, ``RemoteExecute``, ``RemoteDispatch``,
           ``RemoteFetch``, ``RemoteCopy``
TwoPC      ``Prepare``, ``CommitPrepared``, ``RollbackPrepared``,
           ``Commit1PC``, ``Rollback``
IO         ``WALFlush``
Client     ``PoolLease``
=========  ==========================================================
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

#: Gauge name for outstanding (begun but not finished) live waits.
IN_PROGRESS_GAUGE = "wait_events_in_progress"

#: Counter-name prefixes under which wait totals land in the registry.
COUNT_PREFIX = "wait_count:"
TIME_PREFIX = "wait_time_us:"


class WaitEvent:
    """One live wait on a :class:`WaitEventStack`."""

    __slots__ = ("wclass", "event", "start")

    def __init__(self, wclass: str, event: str, start: float):
        self.wclass = wclass
        self.event = event
        self.start = start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitEvent({self.wclass}.{self.event} @{self.start:.6f})"


class WaitEventStack:
    """The wait-event state of one session (or pool)."""

    __slots__ = ("instance", "node", "_stack", "_pending", "_enrolled_reg")

    def __init__(self, instance):
        self.instance = instance
        self.node = instance.name
        self._stack: list[WaitEvent] = []
        # Locally batched (class, event, node) -> [count, seconds, ASH
        # carry] (see record), folded into the registry only when it is
        # read (snapshot/reset drain pending sources). Accounting runs once
        # or twice per statement, so the hot path writes two list slots
        # instead of two labelled counters.
        self._pending: dict = {}
        self._enrolled_reg = None

    # ------------------------------------------------------------ reading

    @property
    def current(self) -> WaitEvent | None:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    # --------------------------------------------------------- live waits

    def begin(self, wclass: str, event: str) -> WaitEvent:
        we = WaitEvent(wclass, event, self.instance.now())
        self._stack.append(we)
        reg = self.instance.wait_registry
        if reg is not None:
            reg.gauge_incr(IN_PROGRESS_GAUGE, node=self.node)
        return we

    def finish(self, we: WaitEvent) -> None:
        """End a live wait begun with :meth:`begin`. Idempotent: finishing
        an event that is no longer on the stack is a no-op."""
        try:
            self._stack.remove(we)
        except ValueError:
            return
        now = self.instance.now()
        reg = self.instance.wait_registry
        if reg is not None:
            reg.gauge_decr(IN_PROGRESS_GAUGE, node=self.node)
        self.record(we.wclass, we.event, now - we.start)
        telemetry = self.instance.telemetry
        if telemetry is not None and telemetry.traced is not None:
            telemetry.event(f"wait.{we.wclass}.{we.event}", "wait",
                            we.start, now, node=self.node)

    @contextmanager
    def waiting(self, wclass: str, event: str):
        """``with stack.waiting("Client", "PoolLease"): ...`` — the wait is
        finished on exit even when the body raises."""
        we = self.begin(wclass, event)
        try:
            yield we
        finally:
            self.finish(we)

    def clear(self) -> None:
        """Drop all live waits without accounting (session death)."""
        reg = self.instance.wait_registry
        if reg is not None:
            for _ in self._stack:
                reg.gauge_decr(IN_PROGRESS_GAUGE, node=self.node)
        self._stack.clear()

    # -------------------------------------------------- reconstructed waits

    def record(self, wclass: str, event: str, seconds: float,
               node: str | None = None) -> None:
        """Account a wait whose duration the caller already knows (cost
        model deltas: remote round trips, 2PC, WAL flush): one entry per
        (class, event, node) holds the registry's totals and ASH's carry."""
        key = (wclass, event, node or self.node)
        instance = self.instance
        telemetry = instance.telemetry
        record = (telemetry.current if telemetry is not None
                  and telemetry.noting else None)
        reg = instance.wait_registry
        if reg is None:
            if record is not None:
                ash = telemetry.ash
                ash.note(record, ash.carry(key), seconds)
            return
        entry = self._pending.get(key) if self._enrolled_reg is reg else None
        if entry is None:
            entry = self._entry(reg, key, telemetry)
        entry[0] += 1
        entry[1] += seconds
        if record is not None:
            # (A stack whose entry predates the telemetry has no carry.)
            telemetry.ash.note(record, entry[2] or telemetry.ash.carry(key),
                               seconds)

    # ---------------------------------------------------------- accounting

    def _entry(self, reg, key: tuple, telemetry) -> list:
        """The batched ``[count, seconds, ASH carry]`` of ``key``, enrolled
        with ``reg``: the registry drains us before any read or reset."""
        if self._enrolled_reg is not reg:
            self._flush_pending(self._enrolled_reg)
            reg.add_pending_source(self._flush_pending)
            self._enrolled_reg = reg
        carry = telemetry.ash.carry(key) if telemetry is not None else None
        entry = self._pending[key] = [0, 0.0, carry]
        return entry

    def _flush_pending(self, reg=None) -> None:
        """Fold locally batched totals into the enrolled registry and
        disenroll (``reg`` is the draining registry, passed by
        :meth:`StatsRegistry._drain_pending`)."""
        target = self._enrolled_reg
        self._enrolled_reg = None
        pending = self._pending
        if target is None or not pending:
            return
        counters = target._counters
        for (wclass, event, node), (count, seconds, _carry) in pending.items():
            names = _COUNTER_NAMES.get((wclass, event))
            if names is None:
                key = f"{wclass}.{event}"
                names = _COUNTER_NAMES[(wclass, event)] = (
                    COUNT_PREFIX + key, TIME_PREFIX + key
                )
            per_node = counters.get(names[0])
            if per_node is None:
                per_node = counters[names[0]] = Counter()
            per_node[node] += count
            micros = int(seconds * 1e6)
            if micros:
                per_node = counters.get(names[1])
                if per_node is None:
                    per_node = counters[names[1]] = Counter()
                per_node[node] += micros
        pending.clear()


#: (class, event) -> (count counter name, time counter name). The taxonomy
#: is a small closed set, so this never grows past a few dozen entries —
#: it exists to keep string formatting off the per-statement hot path.
_COUNTER_NAMES: dict[tuple, tuple] = {}


def split_wait_counter(name: str) -> tuple | None:
    """``(is_time, class, event)`` of a ``wait_count:<Class>.<Event>`` or
    ``wait_time_us:<Class>.<Event>`` counter name; None for any other
    counter. The one reader of the names
    :meth:`WaitEventStack._flush_pending` writes."""
    for is_time, prefix in ((False, COUNT_PREFIX), (True, TIME_PREFIX)):
        if name.startswith(prefix):
            wclass, _, event = name[len(prefix):].partition(".")
            return is_time, wclass, event
    return None


def wait_class_totals(counters: dict) -> dict[str, int]:
    """Roll a flat counter mapping (``StatsSnapshot.as_dict()`` shape, or
    any ``{counter_name: value}`` dict) up to per-wait-class wait counts:
    ``{"Lock": 12, "Net": 40, ...}``.

    Only ``wait_count:`` entries contribute; per-node duplicates
    (``wait_count:Class.Event@node``) are skipped so a class is counted
    once, from its cluster-wide total. The traffic harness report rolls
    its counter delta up with it.
    """
    out: dict[str, int] = {}
    for name, value in counters.items():
        wait = split_wait_counter(name)
        if wait is not None and not wait[0] and "@" not in name:
            out[wait[1]] = out.get(wait[1], 0) + value
    return out


def wait_totals(registry) -> dict[tuple, dict]:
    """Aggregate a registry's wait counters into
    ``{(class, event, node): {"count": n, "seconds": s}}``. Nothing in the
    program renders from it (the metrics snapshot reads the counters
    itself); the wait-event tests read totals through it."""
    out: dict[tuple, dict] = {}
    for name, per_node in registry.snapshot().counters.items():
        wait = split_wait_counter(name)
        if wait is None:
            continue
        is_time, wclass, event = wait
        for node, value in per_node.items():
            entry = out.setdefault((wclass, event, node),
                                   {"count": 0, "seconds": 0.0})
            if is_time:
                entry["seconds"] += value / 1e6
            else:
                entry["count"] += value
    return out
