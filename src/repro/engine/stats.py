"""Cluster-wide statistics counters (the ``pg_stat_*`` / ``citus_stat_*``
pattern).

A :class:`StatsRegistry` holds monotonically increasing **counters** and
up/down **gauges**, optionally labelled by node name, so the distributed
machinery can expose its internal decisions — which planner tier fired,
how many tasks ran, how many connections slow-start opened, how many 2PC
prepares each worker saw — as structured, queryable numbers.
:class:`LogHistogram` is the log-bucketed latency histogram the statement
and window statistics keep per entry.

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


class LogHistogram:
    """A log-bucketed histogram of non-negative observations (latencies,
    byte counts).

    Buckets grow geometrically from ``base`` by ``factor`` per step, so a
    fixed, small number of integer counters covers nine orders of
    magnitude with bounded relative error — the classic HdrHistogram /
    Prometheus trade-off. Exact ``count``/``sum``/``min``/``max`` are kept
    alongside so the extremes never suffer bucket rounding.

    ``percentile`` walks the cumulative bucket counts and reports the
    upper bound of the bucket containing the requested rank, which makes
    p50 <= p95 <= p99 monotone by construction.
    """

    __slots__ = ("base", "log_factor", "buckets", "count", "sum", "min", "max")

    def __init__(self, base: float = 1e-6, factor: float = 1.5):
        self.base = base
        self.log_factor = math.log(factor)
        self.buckets: Counter = Counter()
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observation must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[self._index(value)] += 1

    def _index(self, value: float) -> int:
        if value <= self.base:
            return 0
        return 1 + int(math.log(value / self.base) / self.log_factor)

    def _upper_bound(self, index: int) -> float:
        return self.base * math.exp(self.log_factor * index)

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100); 0.0 on an empty histogram.

        Clamped to the observed ``min``/``max`` so bucket rounding can
        never report a value outside the real range.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(max(self._upper_bound(index), self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "LogHistogram") -> None:
        if other.base != self.base or other.log_factor != self.log_factor:
            raise ValueError("cannot merge histograms with different bucket layouts")
        self.buckets.update(other.buckets)
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self):
        return f"LogHistogram(count={self.count}, p50={self.percentile(50):.6g}, max={self.max:.6g})"


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
