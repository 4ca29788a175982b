"""Distributed-transaction co-access graph.

The multi-tenant story (§2, §3.8) hinges on keeping transactions
single-node; the substrate a co-location policy needs is an *observed*
record of which shards transactions actually touch together. This module
folds closed statement records (:mod:`.record`) into that: a record's
executor runs carry one unit per piece of connection work — (node, shard
group, read/write, bytes) — and a transaction's **access set** is the
union over its statements' runs. When the transaction ends (a ``TXN``
event from the 1PC/2PC callbacks, or an autocommit statement's own end)
the set is classified into the ``txngraph_*`` counters (multi-group,
cross-node, 2PC, block) and folded into the graph's **vertices**: per
co-located shard group, lifetime txn/write/byte totals.

The graph keeps no edges: a pair weight would have one reader, a
co-location placement policy, and none is built. The fold reads nothing
but the records, in emission order, so two same-seed runs dump identical
vertices. Which tenants use a group is ``citus_stat_tenants`` joined
through ``get_shard_id_for_distribution_column``; a recent weight is the
graph since the last ``citus_stat_reset('graph')``.
"""

from __future__ import annotations

from ..engine.stats import StatsRegistry
from .record import (ABORT, BEGIN, BLOCKED, DISPATCH, E_CAT, E_NAME, EXECUTION,
                     OK, TXN, U_BYTES, U_GROUP, U_KIND, U_NODE, U_WRITE,
                     UNIT_WIDTH, X_AUTOCOMMIT, X_EXPLICIT, X_NODE, X_OUTCOME,
                     X_PID, X_TENANT, X_TWOPC, X_UNIT_COUNT, X_UNITS,
                     StatementRecord)

#: Access-set attribute caps on trace spans (2PC commit paths).
_SPAN_ATTR_CAP = 8

#: Columns of the graph's rows.
VERTEX_COLUMNS = ("shard", "txns", "writes", "bytes")

#: Registry batch keys (``StatsRegistry.batch``): a one-unit transaction,
#: and a committed one by (multi-group, cross-node, 2PC, block).
_ONE = ((0, "txngraph_txns", "", 1),)
_ENDED: dict = {}


def group_label(group) -> str:
    """Render a shard group tuple ``(colocation_id, shard_index)`` as the
    stable vertex name used in rows and Prometheus labels."""
    if group is None:
        return "?"
    return f"c{group[0]}.s{group[1]}"


class _OpenTxn:
    """The access set of one session's distributed transaction in flight:
    ``(node, shard_group) -> [writes, bytes]``, and the tenants its
    statements were routed on (shown on its commit spans only)."""

    __slots__ = ("entries", "tenants", "explicit")

    def __init__(self):
        self.entries: dict = {}
        self.tenants: set = set()
        self.explicit = False

    def summary(self) -> tuple:
        """What 2PC/1PC trace spans show of the access set: its distinct
        nodes, shard groups and tenants (each sorted, capped)."""
        nodes = {node for node, _group in self.entries}
        groups = {group for _node, group in self.entries if group is not None}
        return (tuple(sorted(nodes)[:_SPAN_ATTR_CAP]),
                tuple(sorted(group_label(g) for g in groups)[:_SPAN_ATTR_CAP]),
                tuple(sorted(self.tenants)[:_SPAN_ATTR_CAP]))


class _VertexStats:
    __slots__ = ("txns", "writes", "bytes")

    def __init__(self):
        self.txns = self.writes = self.bytes = 0


class TxnGraph:
    """The cluster-shared co-access graph: a fold over closed statement
    records, run by :class:`~.telemetry.Telemetry`."""

    def __init__(self, registry: StatsRegistry):
        self.registry = registry
        self.vertices: dict[tuple, _VertexStats] = {}
        #: session key -> the transaction that session has in flight.
        self.open: dict[tuple, _OpenTxn] = {}

    # --------------------------------------------------------------- fold

    def fold(self, records) -> None:
        """Closed records, in emission order, each's events in the order
        they happened: the units of each executor run that counts join the
        session's transaction; a TXN event (or an autocommit statement that
        never reaches the commit callbacks) ends that transaction."""
        for record in records:
            self._fold(record)

    def _fold(self, record: StatementRecord) -> None:
        for event in record.events:
            cat = event[E_CAT]
            if cat is TXN:
                self.end_txn((event[X_NODE], event[X_PID]),
                             event[E_NAME] is not ABORT, event[X_TWOPC],
                             record)
                continue
            if cat is not EXECUTION:
                continue
            outcome = event[X_OUTCOME]
            # A run that parked on a lock counts once its statement
            # completed without an error.
            if outcome is not OK and (outcome is not BLOCKED
                                      or record.error is not None):
                continue
            key, autocommit = (event[X_NODE], event[X_PID]), event[X_AUTOCOMMIT]
            if autocommit and event[X_UNIT_COUNT] == 1 and key not in self.open:
                # One unit that is its own transaction (a point statement):
                # its access, if it is one, is all end_txn would settle.
                (kind, _index, _node, group, write, _start, _cost, _rows,
                 nbytes) = event[X_UNITS:X_UNITS + UNIT_WIDTH]
                if kind > BEGIN:
                    batch = self.registry.batch
                    batch[_ONE] = batch.get(_ONE, 0) + 1
                    if group is not None:
                        self._touch(group, write, 0 if kind == DISPATCH else nbytes)
                continue
            txn = self.open.get(key)
            if txn is None:
                txn = self.open[key] = _OpenTxn()
            if event[X_EXPLICIT]:
                txn.explicit = True
            entries = txn.entries
            # An autocommit run's transaction ends with it: no commit span
            # shows its access summary, so its tenant is not noted.
            tenant = None if autocommit else event[X_TENANT]
            # The units, read in place (execution_units makes a tuple each).
            for i in range(X_UNITS, X_UNITS + event[X_UNIT_COUNT] * UNIT_WIDTH,
                           UNIT_WIDTH):
                kind = event[i + U_KIND]
                if kind <= BEGIN:  # CONNECT, BEGIN: not accesses
                    continue
                if tenant is not None:  # the run accessed a shard for it
                    txn.tenants.add(str(tenant))
                    tenant = None
                access = (event[i + U_NODE], event[i + U_GROUP])
                entry = entries.get(access)
                if entry is None:
                    entry = entries[access] = [0, 0]
                if event[i + U_WRITE]:
                    entry[0] += 1
                # A read is noted at dispatch; its bytes accrue per fetch.
                if kind != DISPATCH:
                    entry[1] += event[i + U_BYTES]
            if autocommit:
                self.end_txn(key, True, False)

    def end_txn(self, key, committed: bool, twopc: bool,
                record: StatementRecord | None = None) -> None:
        """The session's transaction ended: classify its access set into
        the shared counters and update the lifetime vertices. An abort only
        counts itself. ``record`` is the statement that ran the commit
        callbacks, whose commit spans show the access summary."""
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
        groups: dict[tuple, list] = {}  # group -> [writes, bytes]
        for (node, group), (writes, nbytes) in txn.entries.items():
            nodes.add(node)
            if group is None:
                continue
            info = groups.get(group)
            if info is None:
                info = groups[group] = [0, 0]
            info[0] += writes
            info[1] += nbytes

        kind = (len(groups) > 1, len(nodes) > 1, twopc, txn.explicit)
        key = _ENDED.get(kind)
        if key is None:
            multi_group, cross_node, twopc, block = kind
            key = _ENDED[kind] = tuple(
                (0, f"txngraph_txns{name}", "", 1) for name, counted in (
                    ("", True), ("_multi_group", multi_group),
                    ("_cross_node", cross_node), ("_2pc", twopc),
                    ("_block", block),
                    ("_block_multi_group", block and multi_group))
                if counted)
        batch = registry.batch
        batch[key] = batch.get(key, 0) + 1

        for group, (writes, nbytes) in groups.items():
            self._touch(group, writes, nbytes)

    def _touch(self, group, writes: int, nbytes: int) -> None:
        """A committed transaction accessed ``group``."""
        vertex = self.vertices.get(group)
        if vertex is None:
            vertex = self.vertices[group] = _VertexStats()
        vertex.txns += 1
        if writes:
            vertex.writes += 1
        vertex.bytes += nbytes

    def abort_sessions_of(self, node: str) -> None:
        """End as aborts the transactions of ``node``'s sessions (the node
        crashed: none of them can end any other way)."""
        for key in [key for key in self.open if key[0] == node]:
            self.end_txn(key, False, False)

    def reset(self) -> None:
        """citus_stat_reset('graph'): clear the lifetime vertex aggregates
        (the shared counters have their own scope)."""
        self.vertices.clear()

    # ------------------------------------------------------------ reading

    def vertex_rows(self) -> list[list]:
        """:data:`VERTEX_COLUMNS` rows, sorted by shard group."""
        return [[group_label(group), vertex.txns, vertex.writes, vertex.bytes]
                for group, vertex in sorted(self.vertices.items())]

    # --------------------------------------------------------- prometheus

    def metric_families(self) -> list[tuple]:
        """Graph families for ``citus_metrics_snapshot``, as
        :func:`.metrics.render` takes them, in sorted-key order."""
        return [
            ("citus_txn_graph_vertices", "gauge", [({}, len(self.vertices))]),
            ("citus_txn_graph_vertex_txns_total", "counter",
             [({"shard": group_label(group)}, vertex.txns)
              for group, vertex in sorted(self.vertices.items())]),
        ]

