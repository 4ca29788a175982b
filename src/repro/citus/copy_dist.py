"""Distributed COPY (§3.8), and the one way rows move between nodes.

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

Reference-table COPY replicates every row to all placements. The same
router carries a join's intermediate results (§3.5), a shard move (§3.4)
and a tenant split: a streamed read feeding :func:`move_rows`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing

from ..engine.datum import caster
from ..errors import NotNullViolation, SQLError
from ..sql import ast as A
from .executor.timeline import count_flush


class ShardCopyRouter:
    """Hash-routes a row stream into bounded per-target channels and hands
    each full channel to a sink: the executor's
    :class:`~.executor.adaptive.CopyChannelExecution` for a COPY or
    INSERT..SELECT, :class:`UtilityChannels` for every other move.

    ``targets`` are ``(node, shard group, shard name)`` per shard of
    ``dist``, in channel order. ``shell``'s column types cast the rows; a
    move passes None, its rows being read from a table of the same shape.
    The buffered-row high-water mark across all channels goes to the sink
    at the end (the ``copy_channel_peak_rows`` gauge). Only
    :func:`distribute_rows` (``refuse_null``) refuses a NULL distribution
    value; a moved row keeps the shard hash(NULL) routes to.
    """

    def __init__(self, dist, shell, columns, targets, flush_threshold: int,
                 refuse_null: bool = False):
        self.dist = dist
        self.columns = columns
        self.targets = targets
        self.flush_threshold = flush_threshold
        self.refuse_null = refuse_null
        self.casters = (None if shell is None else
                        [caster(shell.column(c).type_name) for c in columns])
        self.dist_position = None
        if not dist.is_reference:
            if dist.dist_column not in columns:
                raise NotNullViolation(f"COPY into {dist.name!r} requires the"
                                       f" distribution column {dist.dist_column!r}")
            self.dist_position = columns.index(dist.dist_column)

    def copy(self, rows, sink) -> int:
        """Cast, route and buffer every row, flushing a channel to ``sink``
        when it is full; then flush the remainders and settle the sink,
        also on failure. Returns the number of rows routed."""
        casters, targets, columns = self.casters, self.targets, self.columns
        threshold, position = self.flush_threshold, self.dist_position
        index_for = self.dist.shard_index_for_value
        channels: list[list] = [[] for _ in targets]
        every = range(len(targets))
        alone = [(index,) for index in every]  # a shard index's one channel
        # Rows only accumulate between flushes, so the peak is the count
        # buffered when a channel flushes (or when routing stops).
        buffered = peak = total = 0

        def flush(index: int) -> None:
            nonlocal buffered, peak
            batch = channels[index]
            peak = max(peak, buffered)
            buffered -= len(batch)
            channels[index] = []
            node, group, shard_name = targets[index]
            sink.flush(index, node, group, shard_name, columns, batch)

        try:
            for row in rows:  # hot loop: one pass per input row
                values = row if casters is None else [
                    cast(v) for cast, v in zip(casters, row)]
                if position is None:
                    indexes = every  # reference: replicate to every placement
                else:
                    value = values[position]
                    if value is None and self.refuse_null:
                        raise NotNullViolation(
                            f"the distribution column {self.dist.dist_column!r}"
                            " cannot be NULL in COPY")
                    indexes = alone[index_for(value)]
                for index in indexes:
                    channel = channels[index]
                    channel.append(values)
                    buffered += 1
                    if len(channel) >= threshold:
                        flush(index)
                total += 1
            for index in every:
                if channels[index]:
                    flush(index)
        finally:
            sink.finish(max(peak, buffered))
        return total


class UtilityChannels:
    """The router's second sink: each channel flushes over its node's
    utility connection, outside the session's transaction (the join's
    tasks must see its intermediates; nothing commits through 2PC). A
    channel's first flush is a round trip, later ones are pipelined."""

    def __init__(self, ext):
        self.ext = ext
        self.opened: set[int] = set()

    def flush(self, index, node, _shard_group, shard_name, columns, rows) -> None:
        conn = self.ext.worker_connection(node)
        sent = conn.bytes_transferred
        conn.copy_rows(shard_name, rows, columns, pipelined=index in self.opened)
        self.opened.add(index)
        count_flush(self.ext.stat_counters, node, len(rows),
                    conn.bytes_transferred - sent)

    def finish(self, peak_rows: int) -> None:
        if peak_rows:
            self.ext.stat_counters.gauge_max("copy_channel_peak_rows", peak_rows)


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
    cache = ext.metadata.cache
    dist = cache.get_table(table_name)
    shell = ext.instance.catalog.get_table(table_name)
    targets = copy_targets(cache, dist)
    router = ShardCopyRouter(dist, shell, list(columns or shell.column_names()),
                             targets, ext.config.copy_flush_threshold,
                             refuse_null=True)
    execution = ext.executor.open_copy_channels(
        session, expected_by_node=Counter(node for node, _, _ in targets))
    try:
        total = router.copy(rows, execution)
    except BaseException as exc:
        # SQLErrors roll back through the engine's statement-failure
        # path; a non-SQL error (e.g. the client's row iterator raised)
        # bypasses it, so abort the flushed worker transactions here —
        # otherwise the next statement would commit the partial COPY.
        if not isinstance(exc, SQLError):
            session._statement_failed(exc)
        raise
    session.stats["rows_copied"] += total
    return total


def move_rows(ext, dist, shell, targets, rows) -> int:
    """Route ``rows`` — whole rows of ``shell``, already typed — into
    ``targets`` of ``dist`` over the nodes' utility connections: a join's
    intermediates, a moved shard, a split's shards. Returns the number of
    rows routed; closing ``rows`` is the caller's."""
    router = ShardCopyRouter(dist, None, shell.column_names(), targets,
                             ext.config.copy_flush_threshold)
    return router.copy(rows, UtilityChannels(ext))


def placement_rows(ext, node: str, shard_name: str):
    """Every row of one shard placement, read in cursor batches over a
    connection of its own (the node's utility connection may be the write
    side of the same move)."""
    with closing(ext.cluster.connect(node, "citus_copy")) as conn, \
            closing(conn.execute_cursor(select_star(shard_name))) as cursor:
        while (batch := cursor.fetch_batch()) is not None:
            yield from batch


def select_star(table: str) -> A.Select:
    """``SELECT * FROM table``."""
    return A.Select(targets=[A.TargetEntry(A.Star())],
                    from_items=[A.TableRef(table)])
