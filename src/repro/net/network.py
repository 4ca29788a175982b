"""Simulated network: latency accounting and remote connections.

A :class:`RemoteConnection` is what the Citus adaptive executor opens to a
worker node: it wraps a backend (:class:`~repro.engine.instance.Session`)
on the target instance and charges network round trips and connection
establishment to per-connection counters. The executor aggregates those
counters to compute elapsed simulated time for a distributed query
(max over parallel connections, sum over sequential statements).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ..engine.datum import uniform_type
from ..engine.executor import Batch, EngineCursor
from ..engine.instance import Parked
from ..engine.locks import WouldBlock
from ..errors import NodeUnavailable
from ..sql import ast as A

#: Per-row wire framing overhead (DataRow message header).
_ROW_OVERHEAD = 2

#: Transaction-control statements carry no state: one AST serves every
#: connection.
BEGIN, COMMIT, ROLLBACK = A.Begin(), A.Commit(), A.Rollback()


def _values_bytes(values) -> int:
    """Wire size of each value in turn: the per-value rule."""
    total = 0
    for value in values:
        if value is None or isinstance(value, bool):
            total += 1
        elif isinstance(value, (int, float)):
            total += 8
        elif isinstance(value, str):
            total += len(value) + 1
        else:
            total += len(str(value)) + 1
    return total


def estimate_row_bytes(row) -> int:
    """Wire-size estimate of one result row: framing plus each value by
    the per-value rule. The reference that :func:`estimate_columns_bytes`
    must add up to."""
    return _ROW_OVERHEAD + _values_bytes(row)


#: Wire width of the types whose values all cost the same.
_FIXED_WIDTH = {int: 8, float: 8, bool: 1, type(None): 1}


def estimate_columns_bytes(columns, count: int) -> int:
    """Wire-size estimate of ``count`` rows given as columns — the payload
    the bandwidth model charges for a cursor batch, a result set or a COPY
    chunk. Exactly the sum of :func:`estimate_row_bytes` over the rows,
    priced a column at a time: a column whose values share one type needs
    no per-value branch (a column of lists, such as partial aggregates'
    ``[sum, count]``, is priced from its items). Other columns take the
    per-value rule."""
    total = count * _ROW_OVERHEAD
    for column in columns:
        kind = uniform_type(column)
        if kind in _FIXED_WIDTH:
            total += _FIXED_WIDTH[kind] * count
        elif kind is str:
            total += sum(map(len, column)) + count
        elif kind is list:
            # ``str([a, b])`` is ``"[" + repr(a) + ", " + repr(b) + "]"``:
            # price the items' text and the brackets and separators around
            # it, not each list's text.
            lengths = list(map(len, column))
            total += (sum(map(len, map(repr, chain.from_iterable(column))))
                      + 2 * sum(lengths) + 2 * lengths.count(0) + count)
        else:
            total += _values_bytes(column)
    return total


def estimate_rows_bytes(rows) -> int:
    """:func:`estimate_columns_bytes` of rows: transposed, then priced by
    column. One row and ragged rows take the per-row rule."""
    if len(rows) == 1:
        return estimate_row_bytes(rows[0])
    widths = set(map(len, rows))
    if len(widths) > 1:  # ragged
        return sum(map(estimate_row_bytes, rows))
    batch = Batch.of_rows(rows, widths.pop() if widths else 0)
    return estimate_columns_bytes(batch.columns, batch.count)


class RemoteBlocked(WouldBlock):
    """A statement shipped to a worker is waiting for a lock there.

    Carries the worker-side parked-statement handle; the coordinator parks
    its own statement and polls the handle instead of re-sending the SQL.
    """

    def __init__(self, handle, conn):
        super().__init__(("remote", conn.node_name), set(), "Remote")
        self.handle = handle
        self.conn = conn


@dataclass
class NetworkSpec:
    rtt_ms: float = 0.5  # same-datacenter round trip
    connection_setup_ms: float = 15.0  # TCP + TLS + auth + fork backend
    bandwidth_mb_s: float = 1000.0


class Network:
    """Latency model + global traffic counters."""

    def __init__(self, clock, spec: NetworkSpec | None = None):
        self.clock = clock
        self.spec = spec or NetworkSpec()
        self.messages_sent = 0
        self.bytes_sent = 0

    def note_round_trip(self, payload_bytes: int = 256) -> float:
        """Record one request/response exchange; returns its latency in
        seconds (not advanced on the clock — callers aggregate)."""
        self.messages_sent += 1
        self.bytes_sent += payload_bytes
        transfer = payload_bytes / (self.spec.bandwidth_mb_s * 1e6)
        return self.spec.rtt_ms / 1000.0 + transfer

    def note_transfer(self, payload_bytes: int) -> float:
        """Record extra payload riding an exchange already counted by
        :meth:`note_round_trip` (a blocking result set following its
        request): bandwidth cost only, no additional message or RTT."""
        self.bytes_sent += payload_bytes
        return payload_bytes / (self.spec.bandwidth_mb_s * 1e6)

    def connection_setup_cost(self) -> float:
        return self.spec.connection_setup_ms / 1000.0


class RemoteConnection:
    """A coordinator-to-worker connection (what the executor pools).

    Tracks the transaction block state and which co-located shard group the
    connection has touched in the current transaction — the assignment
    invariant of §3.6.1 ("the same connection will be used for any
    subsequent access to the same set of co-located shards").
    """

    def __init__(self, node_name: str, session, network: Network):
        self.node_name = node_name
        self.session = session
        self.network = network
        self.in_txn_block = False
        self.accessed_groups: set = set()  # (colocation_id, shard_index) pairs
        self.busy_until = 0.0  # simulated time when current task finishes
        self.elapsed = 0.0  # total simulated busy time
        self.round_trips = 0
        self.bytes_transferred = 0  # wire bytes either direction
        self.closed = False

    def execute(self, sql: str, params=None, payload_bytes: int = 256):
        """One blocking request/response exchange of SQL text — a user's
        (``run_command_on_workers``); everything the coordinator builds
        itself goes through :meth:`execute_parsed`.

        The request is charged as one round trip up front — it crosses the
        wire whether or not the worker statement then fails — and the
        response rows are charged at their actual byte size
        (``estimate_rows_bytes``), so the blocking plane prices the wire
        exactly like the streaming cursors do.
        """
        if self.closed:
            raise NodeUnavailable(f"connection to {self.node_name} is closed")
        self.round_trips += 1
        self.bytes_transferred += payload_bytes
        self.elapsed += self.network.note_round_trip(payload_bytes)
        return self._charge_result(self.session.execute(sql, params))

    def execute_parsed(self, stmt, params=None, payload_bytes: int = 256,
                       allow_block: bool = False):
        """Ship a statement AST to the worker backend, skipping the
        deparse → lexer → parser round-trip: the one payload of every
        command the coordinator sends. Network cost accounting is identical
        to :meth:`execute` — the simulation charges for the wire exchange,
        not for parsing. With ``allow_block`` a lock wait on the worker
        parks the statement there and raises :class:`RemoteBlocked`; one
        that completes pays nothing for it."""
        if self.closed:
            raise NodeUnavailable(f"connection to {self.node_name} is closed")
        self.round_trips += 1
        self.bytes_transferred += payload_bytes
        self.elapsed += self.network.note_round_trip(payload_bytes)
        try:
            return self._charge_result(
                self.session.execute_parsed(stmt, params, allow_block))
        except Parked as parked:
            raise RemoteBlocked(parked.handle, self) from None

    def _charge_result(self, result):
        """Bandwidth-charge a blocking result set at its actual wire size
        (the response rides the round trip already counted, so only the
        transfer term is added — no extra message)."""
        rows = getattr(result, "rows", None)
        if rows:
            payload = estimate_rows_bytes(rows)
            self.bytes_transferred += payload
            self.elapsed += self.network.note_transfer(payload)
        return result

    def execute_async(self, sql: str, params=None):
        self.round_trips += 1
        self.elapsed += self.network.note_round_trip()
        return self.session.execute_async(sql, params)

    def execute_cursor(self, stmt, params=None,
                       batch_size: int = 256) -> "RemoteCursor":
        """Open a worker-side cursor for a SELECT task; batches are then
        pulled on demand via :meth:`RemoteCursor.fetch_batch`. Only the
        dispatch round trip is charged here — each batch pays for its own
        transfer at its actual byte size."""
        if self.closed:
            raise NodeUnavailable(f"connection to {self.node_name} is closed")
        self.round_trips += 1
        self.bytes_transferred += 256
        self.elapsed += self.network.note_round_trip()
        engine_cursor = self.session.execute_parsed_cursor(stmt, params)
        if engine_cursor is None:
            # Not cursor-capable on the worker backend: materialize there
            # and stream the buffered result (the wire protocol is the
            # same either way).
            result = self.session.execute_parsed(stmt, params)
            engine_cursor = EngineCursor.over(
                result.columns, Batch.of_rows(result.rows, len(result.columns)))
        return RemoteCursor(self, engine_cursor, batch_size)

    def copy_rows(self, table: str, rows, columns=None,
                  pipelined: bool = False) -> int:
        if self.closed:
            raise NodeUnavailable(f"connection to {self.node_name} is closed")
        # Charge the wire cost up front, like execute(): the rows cross the
        # network whether or not the worker-side copy then fails. The
        # payload is the rows' actual wire size, same pricing as the
        # result-set and cursor-batch directions. A ``pipelined`` chunk
        # rides a COPY stream that is already open on this connection —
        # the sender does not wait for a per-chunk response, so it costs
        # bandwidth only, no extra round trip (§3.8 "streams rows to the
        # shards asynchronously"). ``rows`` is a channel's non-empty batch.
        payload = estimate_rows_bytes(rows)
        self.bytes_transferred += payload
        if pipelined:
            self.elapsed += self.network.note_transfer(payload)
        else:
            self.round_trips += 1
            self.elapsed += self.network.note_round_trip(payload_bytes=payload)
        return self.session.copy_rows(table, rows, columns)

    def begin_if_needed(self) -> None:
        if not self.in_txn_block:
            self.execute_parsed(BEGIN)
            self.in_txn_block = True

    def close(self) -> None:
        if not self.closed:
            if self.in_txn_block:
                try:
                    self.session.rollback()
                except Exception:
                    pass
            self.session.close()
            self.closed = True


class RemoteCursor:
    """A pull-based remote result stream over one connection.

    Each ``fetch_batch()`` is a round trip charged at the batch's actual
    byte size (bandwidth-aware). ``close()`` before exhaustion sends a
    small CLOSE message and drops the worker-side cursor without
    transferring the remaining rows — the early-termination primitive the
    streaming coordinator merge relies on.
    """

    def __init__(self, conn: RemoteConnection, engine_cursor: EngineCursor,
                 batch_size: int):
        self.conn = conn
        self.batch_size = max(1, int(batch_size))
        self._cursor = engine_cursor
        self.bytes_fetched = 0
        self.batches_fetched = 0
        self.rows_fetched = 0
        self.last_payload = 0
        self.exhausted = False
        self.closed = False

    @property
    def columns(self):
        return self._cursor.columns

    def fetch_batch(self):
        """Next :class:`~repro.engine.executor.Batch` of rows, as columns
        and priced as they are, or None once the stream is exhausted."""
        if self.closed or self.exhausted:
            return None
        if self.conn.closed:
            raise NodeUnavailable(
                f"connection to {self.conn.node_name} is closed"
            )
        batch = self._cursor.fetch(self.batch_size)
        count = batch.count
        if not count:
            self.exhausted = True
            # Observing end-of-stream costs a bare round trip.
            self.conn.round_trips += 1
            self.conn.bytes_transferred += _ROW_OVERHEAD
            self.conn.elapsed += self.conn.network.note_round_trip(_ROW_OVERHEAD)
            self.last_payload = 0
            return None
        payload = estimate_columns_bytes(batch.columns, count)
        self.conn.round_trips += 1
        self.conn.bytes_transferred += payload
        self.conn.elapsed += self.conn.network.note_round_trip(payload)
        self.last_payload = payload
        self.bytes_fetched += payload
        self.batches_fetched += 1
        self.rows_fetched += count
        if count < self.batch_size:
            # A short batch signals end-of-stream in-band: no extra round
            # trip needed to observe exhaustion.
            self.exhausted = True
        return batch

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if not self.exhausted and not self.conn.closed:
            self.conn.round_trips += 1
            self.conn.bytes_transferred += _ROW_OVERHEAD
            self.conn.elapsed += self.conn.network.note_round_trip(_ROW_OVERHEAD)
        self._cursor.close()
