"""Distributed COPY (§3.8).

The coordinator parses the incoming row stream, routes every row to its
shard by hashing the distribution column, and streams row batches to the
shards over per-shard COPY channels — "the coordinator opens COPY commands
for each of the shards and streams rows to the shards asynchronously,
which means writes are partially parallelized across cores even with a
single client."

Routing is pipelined: each shard has a bounded COPY channel that flushes
to its worker whenever it reaches ``citus.copy_flush_threshold`` rows, so
the coordinator holds O(flush_threshold × shards) rows instead of the whole
input. Every flush runs inside the write transaction — a mid-stream error
(NULL distribution value, cast failure, worker error) rolls back all shards
through the normal 1PC/2PC machinery.

Reference-table COPY replicates every row to all placements.
"""

from __future__ import annotations

from ..engine.datum import caster
from ..errors import NotNullViolation, SQLError


class ShardCopyRouter:
    """Hash-routes an incoming row stream into per-target-shard bounded
    COPY channels, flushing each channel to its worker incrementally.

    Channels are plain row buffers; the wire work (connection choice,
    transaction registration, byte costing, counters, spans) lives in the
    executor's :class:`~.executor.adaptive.CopyChannelExecution`, which the
    router drives through ``flush``. The router tracks the total buffered
    row count across all channels as it routes and reports the high-water
    mark to the execution at the end, so the ``copy_channel_peak_rows``
    gauge records the true coordinator peak.
    """

    def __init__(self, ext, session, dist, shell, columns):
        self.ext = ext
        self.dist = dist
        self.columns = columns
        self.flush_threshold = ext.config.copy_flush_threshold
        self.casters = [caster(shell.column(c).type_name) for c in columns]
        self.dist_position = (None if dist.is_reference
                              else _dist_position(columns, dist))
        self.targets = copy_targets(ext.metadata.cache, dist)
        expected: dict[str, int] = {}
        for node, _group, _name in self.targets:
            expected[node] = expected.get(node, 0) + 1
        self.execution = ext.executor.open_copy_channels(
            session, expected_by_node=expected
        )
        self.channels: list[list] = [[] for _ in self.targets]
        self.buffered = 0
        self.peak_buffered = 0
        self.total = 0

    def route(self, row) -> None:
        """Cast, route, and buffer one row; flush its channel when full."""
        values = [cast(v) for cast, v in zip(self.casters, row)]
        position = self.dist_position
        if position is None:
            # Reference table: replicate to every placement channel.
            for index in range(len(self.targets)):
                self._buffer(index, values)
        else:
            dist_value = values[position]
            if dist_value is None:
                raise NotNullViolation(
                    f"the distribution column {self.dist.dist_column!r}"
                    " cannot be NULL in COPY"
                )
            self._buffer(self.dist.shard_index_for_value(dist_value), values)
        self.total += 1

    def _buffer(self, index: int, values) -> None:
        channel = self.channels[index]
        channel.append(values)
        buffered = self.buffered + 1
        self.buffered = buffered
        if buffered > self.peak_buffered:
            self.peak_buffered = buffered
        if len(channel) >= self.flush_threshold:
            self._flush(index)

    def _flush(self, index: int) -> None:
        rows = self.channels[index]
        if not rows:
            return
        node, group, shard_name = self.targets[index]
        self.channels[index] = []
        self.buffered -= len(rows)
        self.execution.flush(index, index, node, group, shard_name,
                             self.columns, rows)

    def finish(self) -> int:
        """Flush every channel's remainder and settle the execution.
        Returns the number of input rows routed."""
        for index in range(len(self.channels)):
            self._flush(index)
        self.execution.note_buffered(self.peak_buffered)
        self.execution.finish()
        return self.total

    def abort(self) -> None:
        """Settle executor gauges after a mid-stream error. Worker-side
        rollback happens through the statement-failure path, which aborts
        every transaction block registered in ``session.remote_txns``."""
        self.execution.note_buffered(self.peak_buffered)
        self.execution.finish()


def copy_targets(cache, dist) -> list[tuple]:
    """``(node, shard group, shard name)`` per COPY channel into ``dist``, in
    channel index order: one per shard, or for a reference table one per
    placement (every row replicates to all)."""
    if dist.is_reference:
        shard = dist.shards[0]
        return [(node, (dist.colocation_id, 0, node), shard.shard_name)
                for node in cache.placements[shard.shardid]]
    return [(cache.placement_node(shard.shardid), (dist.colocation_id, index),
             shard.shard_name)
            for index, shard in enumerate(dist.shards)]


def distribute_rows(ext, session, table_name: str, rows, columns=None) -> int:
    """Route and apply rows of a COPY into a Citus table. Returns count.

    ``rows`` may be any iterable (including a generator fed by the
    streaming read pipeline); it is consumed incrementally and never
    materialized in full.
    """
    dist = ext.metadata.cache.get_table(table_name)
    shell = ext.instance.catalog.get_table(table_name)
    columns = list(columns or shell.column_names())

    router = ShardCopyRouter(ext, session, dist, shell, columns)
    try:
        route = router.route  # hot loop: one call per input row
        for row in rows:
            route(row)
        total = router.finish()  # flushes every channel's remainder
    except BaseException as exc:
        router.abort()
        # SQLErrors roll back through the engine's statement-failure
        # path; a non-SQL error (e.g. the client's row iterator raised)
        # bypasses it, so abort the flushed worker transactions here —
        # otherwise the next statement would commit the partial COPY.
        if not isinstance(exc, SQLError):
            session._statement_failed(exc)
        raise
    session.stats["rows_copied"] += total
    return total


def _dist_position(columns, dist) -> int:
    try:
        return columns.index(dist.dist_column)
    except ValueError:
        raise NotNullViolation(
            f"COPY into {dist.name!r} requires the distribution column"
            f" {dist.dist_column!r}"
        ) from None
