"""Cluster-wide statistics counters (the ``pg_stat_*`` / ``citus_stat_*``
pattern).

A :class:`StatsRegistry` holds monotonically increasing **counters** and
up/down **gauges**, optionally labelled by node name, so the distributed
machinery can expose its internal decisions — which planner tier fired,
how many tasks ran, how many connections slow-start opened, how many 2PC
prepares each worker saw — as structured, queryable numbers.
:func:`log_bucket` and :func:`bucket_percentile` are the log-bucketed
latency histogram the statement statistics keep as plain numbers.

The registry is deliberately engine-level (it knows nothing about Citus):
any subsystem may attach one to a shared holder object via
:func:`stats_for` — the Citus extension attaches one to the
:class:`~repro.net.cluster.Cluster` so every node's extension increments
the *same* counters, which is what makes them cluster-wide.

Tests and benchmarks scope their measurements with ``snapshot()`` /
``diff()`` (or the :meth:`StatsRegistry.measure` context manager) instead
of resetting global state, and guard gauge balance with
:meth:`StatsRegistry.track`, which is exception-safe by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager

_UNLABELLED = ""


#: Histogram buckets grow by 1.5x per step from 1 µs (bucket 0: at or
#: below it): nine orders of magnitude in a few dozen integer counters.
_BASE, _LOG_FACTOR = 1e-6, math.log(1.5)


def log_bucket(value: float) -> int:
    """The histogram bucket of ``value`` (``citus_stat_statements`` keeps
    its histograms as ``{bucket: count}`` dicts of ints)."""
    if value <= _BASE:
        return 0
    return 1 + int(math.log(value / _BASE) / _LOG_FACTOR)


def bucket_percentile(buckets: dict, count: int, low: float, high: float,
                      p: float) -> float:
    """Value at percentile ``p`` (0..100) of ``count`` observations: the
    upper bound of the bucket holding that rank (so p50 <= p95 <= p99),
    clamped to the observed ``[low, high]``; 0.0 with none."""
    if count == 0:
        return 0.0
    rank = max(1, math.ceil(count * p / 100.0))
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= rank:
            return min(max(_BASE * math.exp(_LOG_FACTOR * index), low), high)
    return high


class StatsSnapshot:
    """An immutable point-in-time (or delta) view of a registry.

    ``counters`` / ``gauges`` map ``name -> {node -> value}``; the empty
    string labels the node-less total. The accessors mirror the registry's.
    """

    def __init__(self, counters: dict[str, Counter], gauges: dict[str, Counter]):
        self.counters = {name: Counter(c) for name, c in counters.items()}
        self.gauges = {name: Counter(c) for name, c in gauges.items()}

    # ------------------------------------------------------------ reading

    def value(self, name: str, node: str | None = None) -> int:
        per_node = self.counters.get(name)
        if per_node is None:
            return 0
        if node is None:
            return sum(per_node.values())
        return per_node.get(node, 0)

    def gauge(self, name: str, node: str | None = None) -> int:
        per_node = self.gauges.get(name)
        if per_node is None:
            return 0
        if node is None:
            return sum(per_node.values())
        return per_node.get(node, 0)

    def per_node(self, name: str) -> dict[str, int]:
        """``{node: value}`` for a labelled counter (node-less part under '')."""
        return dict(self.counters.get(name, ()))

    def diff(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """This snapshot minus an earlier one (zero entries dropped)."""
        counters = _subtract(self.counters, earlier.counters)
        gauges = _subtract(self.gauges, earlier.gauges)
        return StatsSnapshot(counters, gauges)

    def as_dict(self) -> dict:
        """Flat ``{name: total}`` plus ``{name@node: value}`` for labels."""
        out: dict[str, int] = {}
        for kind in (self.counters, self.gauges):
            for name, per_node in kind.items():
                total = 0
                for node, value in per_node.items():
                    total += value
                    if node != _UNLABELLED and value:
                        out[f"{name}@{node}"] = value
                if total or name not in out:
                    out[name] = total
        return out

    def __repr__(self):
        return f"StatsSnapshot({self.as_dict()!r})"


def _subtract(after: dict[str, Counter], before: dict[str, Counter]) -> dict[str, Counter]:
    out: dict[str, Counter] = {}
    for name in set(after) | set(before):
        delta = Counter()
        a, b = after.get(name, Counter()), before.get(name, Counter())
        for node in set(a) | set(b):
            d = a.get(node, 0) - b.get(node, 0)
            if d:
                delta[node] = d
        if delta:
            out[name] = delta
    return out


class StatsRegistry:
    """Counters and gauges with optional per-node labels."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Counter] = {}
        # Names registered through gauge_max: high-water marks, not live
        # levels, so reset() may safely zero them (live gauges it must not).
        self._peaks: set[str] = set()
        # Deferred writers (see add_pending_source): drained before any
        # read or reset so hot paths may batch counter updates locally.
        self._pending_sources: list = []
        #: Writes hot paths batch: ``{key: n}``, a key the ``(is_gauge,
        #: name, node or "", weight)`` writes that happen together, each
        #: adding ``n * weight`` when drained (an entry that nets to zero
        #: is still created, as writing one by one would have).
        self.batch: dict = {}

    # ------------------------------------------------------------ writing

    def incr(self, name: str, n: int = 1, node: str | None = None) -> None:
        # get-then-insert rather than setdefault: setdefault constructs a
        # throwaway Counter on every call, and incr is on the hot path.
        per_node = self._counters.get(name)
        if per_node is None:
            per_node = self._counters[name] = Counter()
        per_node[node or _UNLABELLED] += n

    def gauge_incr(self, name: str, n: int = 1, node: str | None = None) -> None:
        per_node = self._gauges.get(name)
        if per_node is None:
            per_node = self._gauges[name] = Counter()
        per_node[node or _UNLABELLED] += n

    def gauge_decr(self, name: str, n: int = 1, node: str | None = None) -> None:
        self.gauge_incr(name, -n, node)

    def gauge_max(self, name: str, value: int, node: str | None = None) -> None:
        """Raise a high-water-mark gauge to ``value`` if currently below it
        (``rows_buffered_peak``-style peak accounting)."""
        self._peaks.add(name)
        per_node = self._gauges.setdefault(name, Counter())
        key = node or _UNLABELLED
        if value > per_node[key]:
            per_node[key] = value

    @contextmanager
    def track(self, name: str, node: str | None = None):
        """Hold a gauge at +1 for the duration of a block.

        The decrement runs in a ``finally`` so a failing task can never
        leave an in-flight/connection gauge stuck high.
        """
        self.gauge_incr(name, 1, node)
        try:
            yield self
        finally:
            self.gauge_decr(name, 1, node)

    def add_pending_source(self, flush) -> None:
        """Enroll a deferred writer: ``flush(registry)`` will be called
        (once, then forgotten) before the next read or reset, letting a
        hot path accumulate counter updates in local state instead of
        writing through on every event. The writer re-enrolls whenever it
        has new pending data."""
        self._pending_sources.append(flush)

    def _drain_pending(self) -> None:
        sources = self._pending_sources
        if sources:
            self._pending_sources = []
            for flush in sources:
                flush(self)
        batch = self.batch
        if batch:
            tables = (self._counters, self._gauges)
            for key, n in batch.items():
                for is_gauge, name, node, weight in key:
                    per_node = tables[is_gauge].get(name)
                    if per_node is None:
                        per_node = tables[is_gauge][name] = Counter()
                    per_node[node] += n * weight
            batch.clear()

    def reset(self) -> None:
        """Zero the accumulated statistics.

        Counters and high-water-mark gauges (anything ever written
        through :meth:`gauge_max`, e.g. ``rows_buffered_peak``)
        are cleared. **Live** up/down gauges — current pool slots,
        in-flight tasks, open sessions — are preserved: zeroing a level
        while its resource is still held would let the matching decrement
        drive it negative and desynchronise admission control from
        reality forever after.
        """
        self._drain_pending()
        self._counters.clear()
        for name in self._peaks:
            self._gauges.pop(name, None)

    # ------------------------------------------------------------ reading

    def value(self, name: str, node: str | None = None) -> int:
        return self.snapshot().value(name, node)

    def gauge(self, name: str, node: str | None = None) -> int:
        return self.snapshot().gauge(name, node)

    def per_node(self, name: str) -> dict[str, int]:
        return self.snapshot().per_node(name)

    def snapshot(self) -> StatsSnapshot:
        self._drain_pending()
        return StatsSnapshot(self._counters, self._gauges)

    @contextmanager
    def measure(self):
        """``with registry.measure() as delta:`` — after the block, ``delta``
        holds the counter/gauge deltas accumulated inside it."""
        before = self.snapshot()
        box = _DeltaBox(self)
        try:
            yield box
        finally:
            box._delta = self.snapshot().diff(before)

    def as_dict(self) -> dict:
        return self.snapshot().as_dict()


class _DeltaBox:
    """Yielded by :meth:`StatsRegistry.measure`; proxies to the delta
    snapshot once the block exits (live registry values before that)."""

    def __init__(self, registry: StatsRegistry):
        self._registry = registry
        self._delta: StatsSnapshot | None = None

    @property
    def delta(self) -> StatsSnapshot:
        return self._delta if self._delta is not None else self._registry.snapshot()

    def value(self, name: str, node: str | None = None) -> int:
        return self.delta.value(name, node)

    def gauge(self, name: str, node: str | None = None) -> int:
        return self.delta.gauge(name, node)

    def per_node(self, name: str) -> dict[str, int]:
        return self.delta.per_node(name)

    def as_dict(self) -> dict:
        return self.delta.as_dict()


_ATTR = "_stats_registry"


def stats_for(holder) -> StatsRegistry:
    """The registry attached to ``holder``, creating it on first use.

    All parties that share the holder (e.g. every extension of one
    cluster) share the registry.
    """
    registry = getattr(holder, _ATTR, None)
    if registry is None:
        registry = StatsRegistry()
        setattr(holder, _ATTR, registry)
    return registry
