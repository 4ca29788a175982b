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

import struct
import zlib
from bisect import bisect_right
from collections import Counter
from contextlib import closing

from ..engine.datum import HASH_SEED, INT32_MAX, hash_value
from ..engine.executor import _indent, _Writer, cast_lines, width_error
from ..errors import NotNullViolation, SQLError
from ..sql import ast as A
from .executor.timeline import count_flush
from .metadata import HASH

_U32 = struct.Struct("<I")


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

    The routing itself is one generated loop per (table, column list,
    column types, ``refuse_null``), kept on ``dist`` (:func:`_route_loop`).
    """

    def __init__(self, dist, shell, columns, targets, flush_threshold: int,
                 refuse_null: bool = False):
        self.columns = columns
        self.targets = targets
        self.flush_threshold = flush_threshold
        types = (None if shell is None else
                 tuple(shell.column(c).type_name for c in columns))
        position = None
        if not dist.is_reference:
            if dist.dist_column not in columns:
                raise NotNullViolation(f"COPY into {dist.name!r} requires the"
                                       f" distribution column {dist.dist_column!r}")
            position = columns.index(dist.dist_column)
        key = (tuple(columns), types, refuse_null)
        loop = dist.copy_loops.get(key)
        if loop is None:
            loop = dist.copy_loops[key] = _route_loop(
                dist, len(columns), types, position, refuse_null)
        self._loop = loop

    def copy(self, rows, sink) -> int:
        """Check the width of, cast, route and buffer every row, flushing a
        channel to ``sink`` when it is full; then flush the remainders and
        settle the sink, also on failure. Returns the number of rows
        routed."""
        return self._loop(rows, [[] for _ in self.targets], self.targets,
                          self.columns, self.flush_threshold, sink)


def _route_loop(dist, width: int, types, position, refuse_null: bool):
    """``run(rows, channels, targets, columns, threshold, sink) -> rows
    routed``, written for ``dist`` and input rows of ``width`` values of
    column ``types`` (None: already typed). Per row: the width check (the
    single node's COPY error); each cell cast unless it already has its
    type's exact Python type (so ``column_constant`` has nothing left to
    read); the distribution value's hash — an int's written out bit for bit
    as ``datum.hash_value`` computes it, anything else through it — and its
    shard by bisection, or every channel of a reference table;
    then the channel append, flushing a full channel. Rows only accumulate
    between flushes, so the peak is the count buffered when a channel
    flushes (or when routing stops)."""
    w = _Writer()
    lines = [f"if len(row) != {width}:",
             f" raise {w.bind(width_error, 'width_error')}('COPY', len(row), {width})"]
    if types is None:
        value = "row[{}]".format
    else:
        value = "c{}".format
        for i, type_name in enumerate(types):
            lines += cast_lines(w, f"c{i}", f"row[{i}]", type_name)
        lines.append(f"row = ({''.join(value(i) + ', ' for i in range(width))})")
    flush = ["if buffered > peak:", " peak = buffered", "buffered -= len(channel)",
             "channels[i] = []", "node, group, name = targets[i]",
             "sink.flush(i, node, group, name, columns, channel)"]
    append = ["channel = channels[i]", "channel.append(row)", "buffered += 1",
              "if len(channel) >= threshold:", *_indent(flush)]
    if position is None:  # a reference table: every placement gets the row
        lines += ["for i in every:", *_indent(append)]
    else:
        lines.append(f"d = {value(position)}")
        if refuse_null:
            lines += ["if d is None:",
                      f" raise {w.bind(NotNullViolation, 'NotNull')}"
                      f"({w.bind(_NULL_DISTRIBUTION.format(dist.dist_column), 'message')})"]
        if dist.method == HASH:
            crc32 = w.bind(zlib.crc32, "crc32")
            maxes = [shard.max_value for shard in dist.shards]
            lines += ["if type(d) is int:",
                      f" h = {crc32}({w.bind(_U32.pack, 'pack')}({crc32}(b'i%d' % d)),"
                      f" {HASH_SEED})",
                      f" if h > {INT32_MAX}:", f"  h -= {2 ** 32}",
                      "else:", f" h = {w.bind(hash_value, 'hash_value')}(d)",
                      f"i = {w.bind(bisect_right, 'bisect_right')}"
                      f"({w.bind(dist._mins, 'mins')}, h) - 1",
                      f"if i < 0 or h > {w.bind(maxes, 'maxes')}[i]:",
                      f" i = {w.bind(dist.shard_index_for_hash, 'index_for_hash')}(h)"]
        else:
            lines.append(f"i = {w.bind(dist.shard_index_for_value, 'index_for')}(d)")
        lines += append
    body = ["buffered = peak = total = 0",
            *(("every = range(len(channels))",) if position is None else ()),
            "try:", " for row in rows:", *_indent(_indent(lines)),
            "  total += 1",
            " for i, channel in enumerate(channels):", "  if channel:",
            *_indent(_indent(_indent(flush))),
            "finally:", " sink.finish(max(peak, buffered))", "return total"]
    return w.function("rows, channels, targets, columns, threshold, sink", body)


_NULL_DISTRIBUTION = "the distribution column {!r} cannot be NULL in COPY"


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
            yield from batch.rows()


def select_star(table: str) -> A.Select:
    """``SELECT * FROM table``."""
    return A.Select(targets=[A.TargetEntry(A.Star())],
                    from_items=[A.TableRef(table)])
