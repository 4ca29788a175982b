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
                     X_SESSION, X_TENANT, X_UNITS, StatementRecord)

#: Transactions touching more shard groups than this skip pairwise edge
#: folding (the vertex totals still update) — a 32-shard analytical scan
#: would otherwise fold ~500 edges per statement.
MAX_EDGE_FANOUT = 16

#: Access-set attribute caps on trace spans (2PC commit paths).
_SPAN_ATTR_CAP = 8


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
    one observation per executor statement that ended inside the bucket;
    ``edges`` counts co-access edges folded inside it.
    """

    __slots__ = ("index", "statements", "hist", "edges", "txns",
                 "multi_group", "cross_node", "twopc",
                 "baseline", "counters", "closed")

    def __init__(self, index: int, baseline=None):
        self.index = index
        self.statements = 0
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

    def buckets(self, now: float) -> list[_Bucket]:
        """All retained buckets oldest-first, after rolling to ``now``."""
        self.roll(now)
        out = list(self.ring)
        if self.current is not None:
            out.append(self.current)
        return out

    def bucket_counters(self, bucket: _Bucket) -> dict:
        if bucket.closed:
            return bucket.counters or {}
        return self.registry.snapshot().diff(bucket.baseline).as_dict()

    def recent_edge_weights(self) -> Counter:
        total: Counter = Counter()
        for bucket in self.ring:
            total.update(bucket.edges)
        if self.current is not None:
            total.update(self.current.edges)
        return total

    def recent_txn_totals(self) -> tuple[int, int, int]:
        """(txns, multi_group, cross_node) summed over retained buckets."""
        txns = multi = cross = 0
        buckets = list(self.ring)
        if self.current is not None:
            buckets.append(self.current)
        for b in buckets:
            txns += b.txns
            multi += b.multi_group
            cross += b.cross_node
        return txns, multi, cross


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
                slot.statements += 1
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

    def edge_records(self) -> list[dict]:
        recent = self.windows.recent_edge_weights()
        records = []
        for (a, b) in sorted(self.edges):
            edge = self.edges[(a, b)]
            records.append({
                "src": group_label(a),
                "dst": group_label(b),
                "txns": edge.txns,
                "writes": edge.writes,
                "bytes": edge.bytes,
                "single_node": edge.single_node,
                "cross_node": edge.cross_node,
                "twopc": edge.twopc,
                "recent_txns": recent.get((a, b), 0),
            })
        return records

    def vertex_records(self) -> list[dict]:
        records = []
        for group in sorted(self.vertices):
            vertex = self.vertices[group]
            top = sorted(vertex.tenants.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:5]
            records.append({
                "shard": group_label(group),
                "txns": vertex.txns,
                "writes": vertex.writes,
                "bytes": vertex.bytes,
                "tenants": len(vertex.tenants),
                "top_tenants": [t for t, _ in top],
            })
        return records

    def as_json(self) -> str:
        payload = {
            "vertices": self.vertex_records(),
            "edges": [
                dict(record, tenant_pairs=[
                    ["|".join(p or "" for p in pair), count]
                    for pair, count in sorted(
                        self.edges[key].tenant_pairs.items(),
                        key=lambda kv: (-kv[1], kv[0]))[:5]
                ])
                for key, record in zip(sorted(self.edges),
                                       self.edge_records())
            ],
            "wide_txns": self.wide_txns,
        }
        return json.dumps(payload, sort_keys=True)

    def as_dot(self) -> str:
        """GraphViz dump: cross-node/2PC edges render dashed/bold so the
        distributed-transaction hot pairs jump out."""
        lines = ["graph citus_txn_graph {"]
        for record in self.vertex_records():
            lines.append(
                f'  "{record["shard"]}" [label="{record["shard"]}'
                f'\\ntxns={record["txns"]}"];'
            )
        for record in self.edge_records():
            style = "solid"
            if record["twopc"]:
                style = "bold"
            elif record["cross_node"]:
                style = "dashed"
            lines.append(
                f'  "{record["src"]}" -- "{record["dst"]}"'
                f' [label="{record["txns"]}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def window_records(self) -> list[dict]:
        width = self.windows.width
        records = []
        buckets = self.windows.buckets(self._now())
        for bucket in buckets:
            counters = self.windows.bucket_counters(bucket)
            hist = bucket.hist
            records.append({
                "bucket": bucket.index,
                "start_s": bucket.index * width,
                "end_s": (bucket.index + 1) * width,
                "current": not bucket.closed,
                "statements": bucket.statements,
                "p50_ms": hist.percentile(50) * 1000.0,
                "p95_ms": hist.percentile(95) * 1000.0,
                "p99_ms": hist.percentile(99) * 1000.0,
                "txns": bucket.txns,
                "txns_multi_group": bucket.multi_group,
                "txns_cross_node": bucket.cross_node,
                "txns_2pc": bucket.twopc,
                "edge_txns": sum(bucket.edges.values()),
                "counters": json.dumps(counters, sort_keys=True),
            })
        return records

    def cross_shard_summary(self) -> dict:
        """Recent cross-shard behavior for EXPLAIN ANALYZE annotation."""
        txns, multi, cross = self.windows.recent_txn_totals()
        return {
            "recent_txns": txns,
            "recent_multi_group_fraction": round(multi / txns, 6) if txns else 0.0,
            "recent_cross_node_fraction": round(cross / txns, 6) if txns else 0.0,
        }

    # --------------------------------------------------------- prometheus

    def prometheus_lines(self, format_value, labels) -> list[str]:
        """Graph/window metric families for ``citus_metrics_snapshot``.
        Emitted in sorted-key order; ``format_value`` / ``labels`` are the
        snapshot module's canonical formatters so escaping and float
        rendering stay byte-identical with the rest of the scrape."""
        lines = [
            "# TYPE citus_txn_graph_edges gauge",
            f"citus_txn_graph_edges {len(self.edges)}",
            "# TYPE citus_txn_graph_vertices gauge",
            f"citus_txn_graph_vertices {len(self.vertices)}",
        ]
        edge_txns, edge_bytes = [], []
        for (a, b) in sorted(self.edges):
            edge = self.edges[(a, b)]
            lbl = labels(src=group_label(a), dst=group_label(b))
            edge_txns.append(f"citus_txn_graph_edge_txns_total{lbl} {edge.txns}")
            edge_bytes.append(
                f"citus_txn_graph_edge_bytes_total{lbl} {edge.bytes}")
        if edge_txns:
            lines.append("# TYPE citus_txn_graph_edge_txns_total counter")
            lines.extend(edge_txns)
            lines.append("# TYPE citus_txn_graph_edge_bytes_total counter")
            lines.extend(edge_bytes)
        vertex_lines = []
        for group in sorted(self.vertices):
            lbl = labels(shard=group_label(group))
            vertex_lines.append(
                f"citus_txn_graph_vertex_txns_total{lbl}"
                f" {self.vertices[group].txns}")
        if vertex_lines:
            lines.append("# TYPE citus_txn_graph_vertex_txns_total counter")
            lines.extend(vertex_lines)
        window_stmt, window_txns, window_p99 = [], [], []
        for bucket in self.windows.buckets(self._now()):
            lbl = labels(bucket=str(bucket.index))
            window_stmt.append(
                f"citus_txn_window_statements{lbl} {bucket.statements}")
            window_txns.append(f"citus_txn_window_txns{lbl} {bucket.txns}")
            window_p99.append(
                f"citus_txn_window_statement_p99_seconds{lbl}"
                f" {format_value(bucket.hist.percentile(99))}")
        if window_stmt:
            lines.append("# TYPE citus_txn_window_statements gauge")
            lines.extend(window_stmt)
            lines.append("# TYPE citus_txn_window_txns gauge")
            lines.extend(window_txns)
            lines.append("# TYPE citus_txn_window_statement_p99_seconds gauge")
            lines.extend(window_p99)
        return lines
