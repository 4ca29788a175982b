"""Distributed-transaction co-access graph + time-windowed statistics.

The multi-tenant story (§2, §3.8) hinges on keeping transactions
single-node; the substrate a co-location policy needs is an *observed*
record of which shards transactions actually touch together. This module
folds closed statement records (:mod:`.record`) into that: a record's
executor runs carry one unit per piece of connection work — (node, shard
group, read/write, bytes) — and a transaction's **access set** is the
union over its statements' runs, tagged with each statement's tenant. When
the transaction ends (a ``TXN`` event from the 1PC/2PC callbacks, or an
autocommit statement's own end) the set is folded into a weighted graph:

- **vertex** = one co-located shard group, with lifetime txn/write/byte
  totals and a per-tenant touch count;
- **edge** = a pair of shard groups touched by the same transaction,
  weighted by count and bytes and tagged by how the transaction committed
  (``single_node`` / ``cross_node`` / ``twopc``).

Layered over the graph and the shared counter registry are
**time-bucketed windows**: a pg_stat_monitor-style ring of N fixed-width
buckets stamped from the simulated clock. Each bucket carries the counter
deltas accrued while it was current (diffed from a registry snapshot taken
at bucket open), a latency histogram of executor statements that *ended*
in it, and the co-access edges folded in it — so recent behavior is
queryable separately from lifetime aggregates, and edge recency (the
"recent" weight Lion-style policies want) falls out of the ring for free.
Buckets roll eagerly (one compare where an executor run begins and ends
and where a transaction ends — :meth:`~.telemetry.Telemetry.tick`); what
goes *into* a bucket is folded later, addressed by the bucket index the
event was stamped with.

Everything is driven by virtual time and deterministic insertion order, so
two same-seed runs serialize byte-for-byte identical graph and window
dumps.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque

from ..engine.stats import LogHistogram, StatsRegistry
from .record import (ABORT, BEGIN, BLOCKED, DISPATCH, E_ATTRS, E_CAT, E_NAME,
                     E_START, EXECUTION, OK, TXN, U_BYTES, U_GROUP, U_KIND, U_NODE, U_WRITE,
                     X_AUTOCOMMIT, X_BUCKET, X_EXPLICIT, X_OUTCOME, X_REPORT,
                     X_SESSION, X_TENANT, X_UNITS, StatementRecord, rank)

#: Transactions touching more shard groups than this skip pairwise edge
#: folding (the vertex totals still update) — a 32-shard analytical scan
#: would otherwise fold ~500 edges per statement.
MAX_EDGE_FANOUT = 16

#: Access-set attribute caps on trace spans (2PC commit paths).
_SPAN_ATTR_CAP = 8

#: Columns of the graph's and the window ring's rows.
EDGE_COLUMNS = ("src", "dst", "txns", "single_node", "cross_node", "twopc",
                "writes", "bytes", "recent_txns")
VERTEX_COLUMNS = ("shard", "txns", "writes", "bytes", "tenants",
                  "top_tenants")
WINDOW_COLUMNS = ("bucket", "start_s", "end_s", "current", "statements",
                  "p50_ms", "p95_ms", "p99_ms", "txns", "txns_multi_group",
                  "txns_cross_node", "txns_2pc", "edge_txns", "counters")


def group_label(group) -> str:
    """Render a shard group tuple ``(colocation_id, shard_index)`` as the
    stable vertex name used in rows, JSON, DOT, and Prometheus labels."""
    if group is None:
        return "?"
    return f"c{group[0]}.s{group[1]}"


class _OpenTxn:
    """The access set of one session's distributed transaction in flight:
    ``(node, shard_group, tenant) -> [writes, bytes]``."""

    __slots__ = ("entries", "explicit")

    def __init__(self):
        self.entries: dict = {}
        self.explicit = False

    def summary(self) -> dict:
        """Access-set attributes for 2PC/1PC trace spans: distinct nodes,
        shard groups, and tenants (sorted, capped)."""
        nodes: set = set()
        groups: set = set()
        tenants: set = set()
        for node, group, tenant in self.entries:
            nodes.add(node)
            if group is not None:
                groups.add(group)
            if tenant is not None:
                tenants.add(str(tenant))
        return {
            "access_nodes": sorted(nodes)[:_SPAN_ATTR_CAP],
            "access_groups": sorted(group_label(g) for g in groups)[:_SPAN_ATTR_CAP],
            "access_tenants": sorted(tenants)[:_SPAN_ATTR_CAP],
        }


class _Bucket:
    """One fixed-width window bucket.

    While current, it holds a registry snapshot from its open; on close
    the snapshot is diffed into ``counters`` and dropped. ``hist`` takes
    one observation per executor statement that ended inside the bucket
    (its ``count`` is the bucket's statement count); ``edges`` counts
    co-access edges folded inside it.
    """

    __slots__ = ("index", "hist", "edges", "txns", "multi_group",
                 "cross_node", "twopc", "baseline", "counters", "closed")

    def __init__(self, index: int, baseline=None):
        self.index = index
        self.hist = LogHistogram()
        self.edges: Counter = Counter()
        self.txns = 0
        self.multi_group = 0
        self.cross_node = 0
        self.twopc = 0
        self.baseline = baseline
        self.counters: dict | None = None
        self.closed = False


class WindowRing:
    """Ring of N fixed-duration buckets over the simulated clock.

    Rollover is lazy: every recording or read calls :meth:`roll` with the
    current virtual time, which closes the current bucket (materializing
    its counter delta), back-fills empty buckets for idle gaps (bounded by
    the ring size), and opens the bucket containing ``now``. A timestamp
    exactly on a boundary belongs to the *later* bucket (``int(t / width)``).
    Retention: only the newest N buckets (closed ring + current) survive.
    """

    def __init__(self, registry: StatsRegistry):
        self.registry = registry
        self.width = 0.0
        self.nbuckets = 0
        self.ring: deque = deque()
        self.current: _Bucket | None = None
        #: While the clock reads less than this, it is still inside the
        #: current bucket — the boundary test without the division (a hair
        #: early, so that ``int(t / width)`` alone decides at the boundary).
        self.safe_until = -math.inf

    def configure(self, width: float, nbuckets: int) -> None:
        width = float(width)
        nbuckets = max(1, int(nbuckets))
        if width == self.width and nbuckets == self.nbuckets:
            return
        self.width = width
        self.nbuckets = nbuckets
        self.reset()

    def reset(self) -> None:
        """Drop all buckets; the current bucket reopens on the next roll
        with a fresh counter baseline (reset-mid-bucket semantics)."""
        self.ring = deque(maxlen=max(0, self.nbuckets - 1))
        self.current = None
        self.safe_until = -math.inf

    # ------------------------------------------------------------ rolling

    def _close(self, bucket: _Bucket) -> None:
        bucket.counters = self.registry.snapshot().diff(bucket.baseline).as_dict()
        bucket.baseline = None
        bucket.closed = True

    def roll(self, now: float) -> _Bucket | None:
        if self.width <= 0:
            return None
        index = int(now / self.width)
        current = self.current
        if current is not None and index <= current.index:
            return current
        if current is not None:
            self._close(current)
            self.ring.append(current)
            # Idle gaps materialize as empty closed buckets so windows read
            # as "nothing happened", not "time never passed". Bounded: only
            # gaps that would still be inside the ring are created.
            for i in range(max(current.index + 1, index - self.nbuckets + 1),
                           index):
                gap = _Bucket(i)
                gap.counters = {}
                gap.closed = True
                self.ring.append(gap)
        self.current = _Bucket(index, baseline=self.registry.snapshot())
        self.safe_until = (index + 1) * self.width * (1.0 - 1e-9)
        return self.current

    def at(self, index) -> _Bucket | None:
        """The retained bucket with this index (what a fold addresses an
        observation to), or None once it has left the ring."""
        current = self.current
        if current is not None and current.index == index:
            return current
        for bucket in self.ring:
            if bucket.index == index:
                return bucket
        return None

    # ------------------------------------------------------------ reading

    def retained(self) -> list[_Bucket]:
        """All retained buckets oldest-first, the current one last."""
        current = self.current
        return list(self.ring) if current is None else [*self.ring, current]

    def buckets(self, now: float) -> list[_Bucket]:
        """:meth:`retained`, after rolling to ``now``."""
        self.roll(now)
        return self.retained()

    def bucket_counters(self, bucket: _Bucket) -> dict:
        if bucket.closed:
            return bucket.counters or {}
        return self.registry.snapshot().diff(bucket.baseline).as_dict()

    def recent_edge_weights(self) -> Counter:
        total: Counter = Counter()
        for bucket in self.retained():
            total.update(bucket.edges)
        return total

    def recent_txn_totals(self) -> tuple[int, int, int]:
        """(txns, multi_group, cross_node) summed over retained buckets."""
        buckets = self.retained()
        return (sum(b.txns for b in buckets),
                sum(b.multi_group for b in buckets),
                sum(b.cross_node for b in buckets))


class _EdgeStats:
    __slots__ = ("txns", "writes", "bytes", "single_node", "cross_node",
                 "twopc", "tenant_pairs")

    def __init__(self):
        self.txns = 0
        self.writes = 0
        self.bytes = 0
        self.single_node = 0
        self.cross_node = 0
        self.twopc = 0
        self.tenant_pairs: Counter = Counter()


class _VertexStats:
    __slots__ = ("txns", "writes", "bytes", "tenants")

    def __init__(self):
        self.txns = 0
        self.writes = 0
        self.bytes = 0
        self.tenants: Counter = Counter()


class TxnGraph:
    """The cluster-shared co-access graph + window ring: a fold over
    closed statement records, run by :class:`~.telemetry.Telemetry`."""

    def __init__(self, clock, registry: StatsRegistry):
        self.clock = clock
        self.registry = registry
        self.windows = WindowRing(registry)
        self.edges: dict[tuple, _EdgeStats] = {}
        self.vertices: dict[tuple, _VertexStats] = {}
        self.wide_txns = 0
        #: session key -> the transaction that session has in flight.
        self.open: dict[tuple, _OpenTxn] = {}

    def configure(self, window_seconds: float, window_buckets: int) -> None:
        self.windows.configure(window_seconds, window_buckets)

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    # --------------------------------------------------------------- fold

    def fold(self, record: StatementRecord) -> None:
        """One closed record, events in the order they happened: each
        executor run that counts is observed into the window bucket it
        ended in and its units join the session's transaction; a TXN event
        (or an autocommit statement that never reaches the commit
        callbacks) ends that transaction."""
        for event in record.events:
            cat = event[E_CAT]
            if cat is TXN:
                key, twopc, bucket = event[E_ATTRS]
                self.end_txn(key, event[E_NAME] is not ABORT, twopc, bucket,
                             record)
                continue
            if cat is not EXECUTION:
                continue
            payload = event[E_ATTRS]
            outcome = payload[X_OUTCOME]
            if outcome is BLOCKED and record.error is None:
                # Parked on a lock, then completed: it ended when the
                # statement did, after waiting that long.
                bucket = record.bucket
                elapsed = record.end - event[E_START]
            elif outcome is OK:
                bucket = payload[X_BUCKET]
                elapsed = payload[X_REPORT].elapsed
            else:
                continue
            slot = self.windows.at(bucket)
            if slot is not None:
                slot.hist.observe(elapsed)
            key = payload[X_SESSION]
            txn = self.open.get(key)
            if txn is None:
                txn = self.open[key] = _OpenTxn()
            if payload[X_EXPLICIT]:
                txn.explicit = True
            entries = txn.entries
            tenant = payload[X_TENANT]
            for unit in payload[X_UNITS]:
                kind = unit[U_KIND]
                if kind <= BEGIN:  # CONNECT, BEGIN: not accesses
                    continue
                access = (unit[U_NODE], unit[U_GROUP], tenant)
                entry = entries.get(access)
                if entry is None:
                    entry = entries[access] = [0, 0]
                if unit[U_WRITE]:
                    entry[0] += 1
                # A read is noted at dispatch; its bytes accrue per fetch.
                if kind != DISPATCH:
                    entry[1] += unit[U_BYTES]
            if payload[X_AUTOCOMMIT]:
                self.end_txn(key, True, False, bucket)

    def end_txn(self, key, committed: bool, twopc: bool, bucket,
                record: StatementRecord | None = None) -> None:
        """The session's transaction ended: classify its access set,
        update the lifetime graph and the window bucket it ended in, bump
        the shared counters. An abort only counts itself. ``record`` is
        the statement that ran the commit callbacks, whose commit spans
        show the access summary."""
        txn = self.open.pop(key, None)
        if txn is None or not txn.entries:
            return
        registry = self.registry
        if not committed:
            registry.incr("txngraph_txns_aborted")
            return
        if record is not None and record.traced:
            record.access = txn.summary()
        nodes: set = set()
        groups: dict[tuple, list] = {}  # group -> [writes, bytes, tenants set]
        for (node, group, tenant), (writes, nbytes) in txn.entries.items():
            nodes.add(node)
            if group is None:
                continue
            info = groups.get(group)
            if info is None:
                info = groups[group] = [0, 0, set()]
            info[0] += writes
            info[1] += nbytes
            if tenant is not None:
                info[2].add(str(tenant))

        cross_node = len(nodes) > 1
        multi_group = len(groups) > 1
        kind = "twopc" if twopc else ("cross_node" if cross_node
                                      else "single_node")
        registry.incr("txngraph_txns")
        if multi_group:
            registry.incr("txngraph_txns_multi_group")
        if cross_node:
            registry.incr("txngraph_txns_cross_node")
        if twopc:
            registry.incr("txngraph_txns_2pc")
        if txn.explicit:
            registry.incr("txngraph_txns_block")
            if multi_group:
                registry.incr("txngraph_txns_block_multi_group")

        slot = self.windows.at(bucket)
        if slot is not None:
            slot.txns += 1
            if multi_group:
                slot.multi_group += 1
            if cross_node:
                slot.cross_node += 1
            if twopc:
                slot.twopc += 1

        for group, (writes, nbytes, tenants) in groups.items():
            vertex = self.vertices.get(group)
            if vertex is None:
                vertex = self.vertices[group] = _VertexStats()
            vertex.txns += 1
            if writes:
                vertex.writes += 1
            vertex.bytes += nbytes
            for tenant in tenants:
                vertex.tenants[tenant] += 1

        if multi_group:
            if len(groups) > MAX_EDGE_FANOUT:
                # A very wide transaction (analytical fan-out) would fold
                # O(groups²) edges; count it instead of quadratic folding.
                self.wide_txns += 1
                registry.incr("txngraph_wide_txns")
            else:
                ordered = sorted(groups)
                for a_idx in range(len(ordered)):
                    for b_idx in range(a_idx + 1, len(ordered)):
                        a, b = ordered[a_idx], ordered[b_idx]
                        key = (a, b)
                        edge = self.edges.get(key)
                        if edge is None:
                            edge = self.edges[key] = _EdgeStats()
                        edge.txns += 1
                        info_a, info_b = groups[a], groups[b]
                        if info_a[0] or info_b[0]:
                            edge.writes += 1
                        edge.bytes += info_a[1] + info_b[1]
                        setattr(edge, kind, getattr(edge, kind) + 1)
                        pair = (",".join(sorted(info_a[2])) or None,
                                ",".join(sorted(info_b[2])) or None)
                        if pair != (None, None):
                            edge.tenant_pairs[pair] += 1
                        if slot is not None:
                            slot.edges[key] += 1

    def abort_sessions_of(self, node: str) -> None:
        """End as aborts the transactions of ``node``'s sessions (the node
        crashed: none of them can end any other way)."""
        for key in [key for key in self.open if key[0] == node]:
            self.end_txn(key, False, False, None)

    # ------------------------------------------------------------ resets

    def reset_graph(self) -> None:
        """citus_stat_reset('graph'): clear the lifetime edge/vertex
        aggregates. Window buckets and shared counters have their own
        scopes ('windows' / 'counters')."""
        self.edges.clear()
        self.vertices.clear()
        self.wide_txns = 0

    def reset_windows(self) -> None:
        """citus_stat_reset('windows'): drop every bucket; the current
        bucket restarts at the next event with a fresh counter baseline."""
        self.windows.reset()

    # ------------------------------------------------------------ reading

    def edge_rows(self) -> list[list]:
        """:data:`EDGE_COLUMNS` rows, sorted by (src, dst)."""
        recent = self.windows.recent_edge_weights()
        return [[group_label(a), group_label(b), edge.txns, edge.single_node,
                 edge.cross_node, edge.twopc, edge.writes, edge.bytes,
                 recent.get((a, b), 0)]
                for (a, b), edge in sorted(self.edges.items())]

    def vertex_rows(self) -> list[list]:
        """:data:`VERTEX_COLUMNS` rows, sorted by shard group."""
        return [[group_label(group), vertex.txns, vertex.writes, vertex.bytes,
                 len(vertex.tenants),
                 [tenant for tenant, _ in rank(vertex.tenants)[:5]]]
                for group, vertex in sorted(self.vertices.items())]

    def as_json(self) -> str:
        """Sorted-key JSON export, edges with their tenant-pair detail."""
        payload = {
            "vertices": [dict(zip(VERTEX_COLUMNS, row))
                         for row in self.vertex_rows()],
            "edges": [
                dict(zip(EDGE_COLUMNS, row), tenant_pairs=[
                    ["|".join(p or "" for p in pair), count]
                    for pair, count in rank(self.edges[key].tenant_pairs)[:5]
                ])
                for key, row in zip(sorted(self.edges), self.edge_rows())
            ],
            "wide_txns": self.wide_txns,
        }
        return json.dumps(payload, sort_keys=True)

    def as_dot(self) -> str:
        """GraphViz dump: cross-node/2PC edges render dashed/bold so the
        distributed-transaction hot pairs jump out."""
        lines = ["graph citus_txn_graph {"]
        for shard, txns, *_ in self.vertex_rows():
            lines.append(f'  "{shard}" [label="{shard}\\ntxns={txns}"];')
        for src, dst, txns, _single, cross_node, twopc, *_ in self.edge_rows():
            style = "bold" if twopc else ("dashed" if cross_node else "solid")
            lines.append(
                f'  "{src}" -- "{dst}" [label="{txns}", style={style}];')
        lines.append("}")
        return "\n".join(lines)

    def window_rows(self) -> list[list]:
        """:data:`WINDOW_COLUMNS` rows, one per retained bucket, oldest
        first; ``counters`` is the sorted-key JSON of every cluster counter
        delta accrued during the bucket."""
        width = self.windows.width
        rows = []
        for bucket in self.windows.buckets(self._now()):
            counters = self.windows.bucket_counters(bucket)
            hist = bucket.hist
            rows.append([
                bucket.index, bucket.index * width, (bucket.index + 1) * width,
                not bucket.closed, hist.count,
                hist.percentile(50) * 1000.0, hist.percentile(95) * 1000.0,
                hist.percentile(99) * 1000.0, bucket.txns, bucket.multi_group,
                bucket.cross_node, bucket.twopc, sum(bucket.edges.values()),
                json.dumps(counters, sort_keys=True),
            ])
        return rows

    def cross_shard_summary(self) -> dict:
        """Recent cross-shard behavior for EXPLAIN ANALYZE annotation."""
        txns, multi, cross = self.windows.recent_txn_totals()
        return {
            "recent_txns": txns,
            "recent_multi_group_fraction": round(multi / txns, 6) if txns else 0.0,
            "recent_cross_node_fraction": round(cross / txns, 6) if txns else 0.0,
        }

    # --------------------------------------------------------- prometheus

    def metric_families(self) -> list[tuple]:
        """Graph / window families for ``citus_metrics_snapshot``, as
        :func:`.metrics.render` takes them, in sorted-key order."""
        edges = [({"src": group_label(a), "dst": group_label(b)}, edge)
                 for (a, b), edge in sorted(self.edges.items())]
        buckets = [({"bucket": str(b.index)}, b)
                   for b in self.windows.buckets(self._now())]
        return [
            ("citus_txn_graph_edges", "gauge", [({}, len(self.edges))]),
            ("citus_txn_graph_vertices", "gauge", [({}, len(self.vertices))]),
            ("citus_txn_graph_edge_txns_total", "counter",
             [(labels, edge.txns) for labels, edge in edges]),
            ("citus_txn_graph_edge_bytes_total", "counter",
             [(labels, edge.bytes) for labels, edge in edges]),
            ("citus_txn_graph_vertex_txns_total", "counter",
             [({"shard": group_label(group)}, vertex.txns)
              for group, vertex in sorted(self.vertices.items())]),
            ("citus_txn_window_statements", "gauge",
             [(labels, b.hist.count) for labels, b in buckets]),
            ("citus_txn_window_txns", "gauge",
             [(labels, b.txns) for labels, b in buckets]),
            ("citus_txn_window_statement_p99_seconds", "gauge",
             [(labels, b.hist.percentile(99)) for labels, b in buckets]),
        ]


#: ``citus_stat_txn_graph(mode)``: mode -> (the report method, the columns
#: of its rows); the text exports have none.
MODES = {
    "edges": (TxnGraph.edge_rows, EDGE_COLUMNS),
    "vertices": (TxnGraph.vertex_rows, VERTEX_COLUMNS),
    "json": (TxnGraph.as_json, None),
    "dot": (TxnGraph.as_dot, None),
}

#: What a text mode returns while ``citus.enable_txn_graph`` is off.
OFF_TEXT = {"json": "{}", "dot": "graph citus_txn_graph {\n}"}
