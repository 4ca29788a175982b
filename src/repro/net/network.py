"""Simulated network: latency accounting and remote connections.

A :class:`RemoteConnection` is what the Citus adaptive executor opens to a
worker node: it wraps a backend (:class:`~repro.engine.instance.Session`)
on the target instance and charges its wire use to per-connection
counters, in one of two ways: an *exchange* (a round trip carrying its
bytes: a command and its response, a stream's dispatch, a COPY stream's
first chunk) or a *ride* (bytes on an exchange already open: a result
set, every batch of a result stream, a pipelined COPY chunk). The
executor aggregates those counters to compute elapsed simulated time for
a distributed query (max over parallel connections, sum over sequential
statements).
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
        """Record payload riding an exchange already counted by
        :meth:`note_round_trip`: bandwidth cost only, no additional
        message or RTT."""
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

    def exchange(self, payload: int = 256) -> None:
        """Charge one round trip carrying ``payload`` bytes: a request and
        the response its sender waits for. It crosses the wire whether or
        not the worker then fails, so callers charge it first."""
        if self.closed:
            raise NodeUnavailable(f"connection to {self.node_name} is closed")
        self.round_trips += 1
        self.bytes_transferred += payload
        self.elapsed += self.network.note_round_trip(payload)

    def ride(self, payload: int) -> None:
        """Charge ``payload`` bytes riding an exchange already open on this
        connection — a result set, a stream's batch, a pipelined COPY
        chunk: bandwidth only, no round trip."""
        if self.closed:
            raise NodeUnavailable(f"connection to {self.node_name} is closed")
        self.bytes_transferred += payload
        self.elapsed += self.network.note_transfer(payload)

    def execute(self, sql: str, params=None):
        """One blocking exchange of SQL text — a user's
        (``run_command_on_workers``); everything the coordinator builds
        itself goes through :meth:`execute_parsed`. The response rows ride
        it at their byte size (:meth:`_charge_result`)."""
        self.exchange()
        return self._charge_result(self.session.execute(sql, params))

    def execute_parsed(self, stmt, params=None, allow_block: bool = False):
        """Ship a statement AST to the worker backend, skipping the
        deparse → lexer → parser round-trip: the one payload of every
        command the coordinator sends. Priced as :meth:`execute` — the
        simulation charges for the wire exchange, not for parsing. With
        ``allow_block`` a lock wait on the worker parks the statement there
        and raises :class:`RemoteBlocked`; one that completes pays nothing
        for it."""
        self.exchange()
        try:
            return self._charge_result(
                self.session.execute_parsed(stmt, params, allow_block))
        except Parked as parked:
            raise RemoteBlocked(parked.handle, self) from None

    def _charge_result(self, result):
        """A blocking result set rides its exchange at its byte size, the
        price its rows would have as a stream's batches."""
        rows = getattr(result, "rows", None)
        if rows:
            self.ride(estimate_rows_bytes(rows))
        return result

    def execute_async(self, sql: str, params=None):
        """Dispatch one statement without waiting for it: its exchange is
        charged, its result is the handle's."""
        self.exchange()
        return self.session.execute_async(sql, params)

    def execute_cursor(self, stmt, params=None,
                       batch_size: int = 256) -> "RemoteCursor":
        """Dispatch a SELECT task as a result stream: this exchange is the
        stream's one round trip, and every batch then rides it
        (:meth:`RemoteCursor.fetch_batch`)."""
        self.exchange()
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
        """One COPY chunk (a channel's non-empty batch) at its rows' byte
        size, charged before the worker copies it. A ``pipelined`` chunk
        rides a COPY stream already open on this connection — the sender
        waits for no per-chunk response (§3.8 "streams rows to the shards
        asynchronously"); any other opens one with a round trip."""
        payload = estimate_rows_bytes(rows)
        if pipelined:
            self.ride(payload)
        else:
            self.exchange(payload)
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
    """A worker's result stream over one connection.

    The stream flows on its dispatch: :meth:`RemoteConnection.execute_cursor`
    is its one round trip, and each ``fetch_batch()`` rides it at the
    batch's byte size, as a pipelined COPY chunk rides its stream. The end
    arrives in-band: with a short last batch, or — when no rows or an exact
    multiple of the batch size leave none short — as a bare end frame.
    ``close()`` before the end cancels the rest without transferring it —
    the early-termination primitive of the streaming coordinator merge —
    for one small round trip (the cancel and the worker's ReadyForQuery)
    carrying the one batch the credit window had in flight, priced as the
    last batch received.
    """

    def __init__(self, conn: RemoteConnection, engine_cursor: EngineCursor,
                 batch_size: int):
        self.conn = conn
        self.batch_size = max(1, int(batch_size))
        self._cursor = engine_cursor
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
        conn = self.conn
        if conn.closed:
            raise NodeUnavailable(f"connection to {conn.node_name} is closed")
        batch = self._cursor.fetch(self.batch_size)
        count = batch.count
        if count < self.batch_size:
            self.exhausted = True
        if not count:
            self.last_payload = 0
            conn.ride(_ROW_OVERHEAD)  # the end frame
            return None
        self.last_payload = payload = estimate_columns_bytes(batch.columns, count)
        conn.ride(payload)
        return batch

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if not self.exhausted and not self.conn.closed:
            self.conn.exchange(_ROW_OVERHEAD + self.last_payload)
        self._cursor.close()
