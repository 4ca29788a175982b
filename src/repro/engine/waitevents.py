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

Both fold cumulative per-(class, event) totals into whatever
:class:`~repro.engine.stats.StatsRegistry` the owning instance points at
via ``instance.wait_registry`` (the per-instance registry by default;
``install_citus`` repoints every node at the shared cluster registry so
``citus_stat_counters`` and the metrics snapshot see cluster-wide
totals). Counter names are ``wait_count:<Class>.<Event>`` and
``wait_time_us:<Class>.<Event>``, so :meth:`StatsRegistry.reset` clears
them like any other counter. Setting ``wait_registry`` to ``None``
disables accounting entirely (the introspection kill-switch).

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

    __slots__ = ("wclass", "event", "start", "detail")

    def __init__(self, wclass: str, event: str, start: float, detail=None):
        self.wclass = wclass
        self.event = event
        self.start = start
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitEvent({self.wclass}.{self.event} @{self.start:.6f})"


class WaitEventStack:
    """The wait-event state of one session (or pool)."""

    __slots__ = ("instance", "node", "_stack", "statement_seconds",
                 "_pending", "_enrolled_reg")

    def __init__(self, instance):
        self.instance = instance
        self.node = instance.name
        self._stack: list[WaitEvent] = []
        # Wait time accumulated since the owning session last began a
        # top-level statement; feeds per-tenant wait attribution.
        self.statement_seconds = 0.0
        # Locally batched (class, event, node) -> [count, seconds] totals,
        # folded into the registry only when it is read (snapshot/reset
        # drain pending sources). Accounting runs once or twice per
        # statement, so the hot path writes two list slots instead of two
        # labelled counters.
        self._pending: dict = {}
        self._enrolled_reg = None

    # ------------------------------------------------------------ reading

    @property
    def current(self) -> WaitEvent | None:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def frames(self) -> tuple:
        """The live waits bottom→top as an immutable snapshot — what the
        ASH sampler captures (the full stack, not just :attr:`current`)."""
        return tuple(self._stack)

    # --------------------------------------------------------- live waits

    def begin(self, wclass: str, event: str, detail=None) -> WaitEvent:
        we = WaitEvent(wclass, event, self.instance.now(), detail)
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
        elapsed = now - we.start
        self.statement_seconds += elapsed
        reg = self.instance.wait_registry
        if reg is not None:
            reg.gauge_decr(IN_PROGRESS_GAUGE, node=self.node)
            self._account(reg, we.wclass, we.event, elapsed, self.node)
        telemetry = self.instance.telemetry
        if telemetry is not None and telemetry.traced is not None:
            telemetry.event(f"wait.{we.wclass}.{we.event}", "wait",
                            we.start, now, node=self.node)

    @contextmanager
    def waiting(self, wclass: str, event: str, detail=None):
        """``with stack.waiting("Client", "PoolLease"): ...`` — the wait is
        finished on exit even when the body raises."""
        we = self.begin(wclass, event, detail)
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
        model deltas: remote round trips, 2PC, WAL flush)."""
        self.statement_seconds += seconds
        reg = self.instance.wait_registry
        if reg is not None:
            self._account(reg, wclass, event, seconds, node or self.node)

    # ---------------------------------------------------------- accounting

    def _account(self, reg, wclass: str, event: str, seconds: float,
                 node: str) -> None:
        # Batch locally; the registry drains us before any read or reset.
        # This keeps the per-statement cost to one small-dict update.
        if self._enrolled_reg is not reg:
            self._flush_pending(self._enrolled_reg)
            reg.add_pending_source(self._flush_pending)
            self._enrolled_reg = reg
        entry = self._pending.get((wclass, event, node))
        if entry is None:
            self._pending[(wclass, event, node)] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

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
        for (wclass, event, node), (count, seconds) in pending.items():
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


def wait_class_totals(counters: dict) -> dict[str, int]:
    """Roll a flat counter mapping (``StatsSnapshot.as_dict()`` shape, or
    any ``{counter_name: value}`` dict) up to per-wait-class sample counts:
    ``{"Lock": 12, "Net": 40, ...}``.

    Only ``wait_count:`` entries contribute; per-node duplicates
    (``wait_count:Class.Event@node``) are skipped so a class is counted
    once, from its cluster-wide total. Shared by the traffic harness
    report and the ASH timeline mode.
    """
    out: dict[str, int] = {}
    for name, value in counters.items():
        if name.startswith(COUNT_PREFIX) and "@" not in name:
            wclass = name[len(COUNT_PREFIX):].partition(".")[0]
            out[wclass] = out.get(wclass, 0) + value
    return out


def wait_totals(registry) -> dict[tuple, dict]:
    """Aggregate a registry's wait counters into
    ``{(class, event, node): {"count": n, "seconds": s}}`` — the shape the
    monitoring views and the Prometheus exporter render from."""
    snap = registry.snapshot()
    out: dict[tuple, dict] = {}

    def _entry(wclass, event, node):
        return out.setdefault((wclass, event, node),
                              {"count": 0, "seconds": 0.0})

    for name, per_node in snap.counters.items():
        if name.startswith(COUNT_PREFIX):
            wclass, _, event = name[len(COUNT_PREFIX):].partition(".")
            for node, value in per_node.items():
                _entry(wclass, event, node)["count"] += value
        elif name.startswith(TIME_PREFIX):
            wclass, _, event = name[len(TIME_PREFIX):].partition(".")
            for node, value in per_node.items():
                _entry(wclass, event, node)["seconds"] += value / 1e6
    return out
