"""Write-ahead log.

Every data modification, transaction outcome, and 2PC state change is
appended here before it is considered durable. The WAL supports:

- crash recovery: :meth:`WriteAheadLog.read` is replayed on restart,
  restoring committed data *and prepared transactions* (the property §3.7.2
  of the paper relies on: "PostgreSQL implements commands to prepare the
  state of a transaction in a way that ... survives restarts and recovery");
- named restore points (§3.9): Citus creates a *consistent restore point*
  across all nodes; restoring each node's WAL to the same named point yields
  a cluster where every 2PC either committed everywhere or is recoverable.

A stored record is one exact ``tuple`` of non-container values, which
CPython's collector untracks the first time it examines it: the log grows
with every written row and lives as long as its instance, and a container
that stays tracked is walked again by every full collection. Records are
appended to a tail list; once the tail holds :data:`BLOCK` records, the
next record that is not a row change seals it into one tuple of records
(a sealed block is untracked too, so a full collection walks one pointer
per block, not one per record). This module defines the stored layout
(:func:`stored_form`, :func:`row_record_bytes`) and :meth:`WriteAheadLog.read`
decodes it; a statement's generated writer (``executor.WriteShape``)
appends its row records in that layout to the tail itself.
"""

from __future__ import annotations

import json
from itertools import chain

from .datum import JSONB, cast_value, exact_type, is_array_type, to_text

# Record types
INSERT = "insert"
UPDATE = "update"
DELETE = "delete"
COMMIT = "commit"
ABORT = "abort"
PREPARE = "prepare"
COMMIT_PREPARED = "commit_prepared"
ABORT_PREPARED = "abort_prepared"
RESTORE_POINT = "restore_point"
DDL = "ddl"

ROW_KINDS = (INSERT, UPDATE, DELETE)

#: Tail records that make a sealed block (at least).
BLOCK = 1024

_LSN, _KIND, _TEXT = 0, 2, 3
#: Where a row record's values start: ``(lsn, xid, kind, table, row_id,
#: *values)``, flat, so no nested tuple keeps the record tracked for a
#: second collection.
_VALUES = 5


def row_record_bytes(table: str, width: int | None) -> int:
    """What a row change of ``table`` adds to ``bytes_written``: 64 + the
    table name + 8 for the row id, and 8 per value (``width`` values; None
    for a delete, which carries none)."""
    return 72 + len(table) + (8 * width if width is not None else 0)


def _stored(value):
    return to_text(value) if isinstance(value, (dict, list)) else value


def _stored_jsonb(value):
    return json.dumps(value) if type(value) is str else _stored(value)


def stored_form(type_name: str):
    """How a row record stores a value of a column of (normalized) type
    ``type_name``: None when as it is (every type whose cast fixes a
    scalar Python type), else the encoder :meth:`WriteAheadLog.append_row`
    applies — a json or array value as its JSON text, and for jsonb also a
    string, which would otherwise read back as the text of a document
    (:func:`decode_value` reverses both)."""
    if type_name == JSONB:
        return _stored_jsonb
    return None if exact_type(type_name) is not None else _stored


def decode_value(stored, type_name: str):
    """The value of a column of (normalized) type ``type_name`` that the
    log stored as ``stored``: the JSON text of a jsonb or array value parsed
    back, every other value cast as its column's input."""
    if type(stored) is str and (type_name == JSONB or is_array_type(type_name)):
        value = json.loads(stored)
        return value if type_name == JSONB else cast_value(value, type_name)
    return cast_value(stored, type_name)


class WriteAheadLog:
    """An append-only, in-memory WAL with byte accounting for the perf model."""

    def __init__(self):
        #: Sealed blocks, oldest first: tuples of records, never changed.
        self._blocks: list[tuple] = []
        #: The records since the last seal. Cleared in place when sealed,
        #: so an ``append`` a writer bound stays this log's.
        self._records: list[tuple] = []
        self._next_lsn = 1
        self.bytes_written = 0

    def append(self, xid: int, kind: str, text: str | None = None) -> int:
        """Log a record that is not a row change — a transaction outcome,
        or with ``text`` a 2PC gid, DDL statement or restore-point name —
        sealing the tail once it holds a block's worth. Returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        tail = self._records
        tail.append((lsn, xid, kind, text))
        self.bytes_written += 64 if text is None else 64 + len(text)
        if len(tail) >= BLOCK:
            self._blocks.append(tuple(tail))
            tail.clear()
        return lsn

    def append_row(self, xid: int, kind: str, table: str, row_id: int,
                   values=None, jsonb: tuple = ()) -> None:
        """Log one row change: insert / update carry the new ``values``,
        delete does not; ``jsonb`` are the positions of the table's jsonb
        columns. The row-at-a-time form of what a statement's generated
        writer appends itself (``executor.WriteShape``: it takes
        ``_next_lsn``, appends the flat record to ``_records`` with each
        value in its :func:`stored_form` and adds :func:`row_record_bytes`)."""
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        if values is None:
            self._records.append((lsn, xid, kind, table, row_id))
        else:
            stored = [_stored(v) for v in values]
            for i in jsonb:
                stored[i] = _stored_jsonb(values[i])
            self._records.append((lsn, xid, kind, table, row_id, *stored))
        self.bytes_written += row_record_bytes(
            table, None if values is None else len(values))

    @property
    def records(self) -> list[tuple]:
        """The stored records, as stored (see :meth:`read` for their
        fields), in one new list."""
        return [*chain.from_iterable(self._blocks), *self._records]

    @property
    def current_lsn(self) -> int:
        return self._next_lsn - 1

    def read(self, upto_lsn: int | None = None):
        """Yield the records up to ``upto_lsn`` (all by default), decoded:
        ``(lsn, xid, kind, table, row_id, values)`` for a row change —
        ``values`` a tuple, None for a delete — and ``(lsn, xid, kind,
        text)`` for any other record, ``text`` None for commit and abort."""
        for record in chain(*self._blocks, self._records):
            if upto_lsn is not None and record[_LSN] > upto_lsn:
                return
            if record[_KIND] in ROW_KINDS:
                values = record[_VALUES:] if record[_KIND] != DELETE else None
                yield record[:_VALUES] + (values,)
            else:
                yield record

    def create_restore_point(self, name: str) -> int:
        """Write a named restore point; returns its LSN."""
        return self.append(0, RESTORE_POINT, name)

    def find_restore_point(self, name: str) -> int | None:
        """LSN of the most recent restore point with the given name."""
        for part in (self._records, *reversed(self._blocks)):
            for record in reversed(part):
                if record[_KIND] == RESTORE_POINT and record[_TEXT] == name:
                    return record[_LSN]
        return None

    def clone(self, lose: int = 0) -> "WriteAheadLog":
        """Snapshot the WAL (used for standby replication and backups),
        less its last ``lose`` records — what an asynchronous standby had
        not received yet. The copy shares the sealed blocks it keeps
        whole."""
        copy = WriteAheadLog()
        blocks, tail = self._blocks[:], self._records[:]
        while lose > len(tail) and blocks:
            lose -= len(tail)
            tail = list(blocks.pop())
        del tail[max(0, len(tail) - lose):]
        copy._blocks, copy._records = blocks, tail
        copy._next_lsn = self._next_lsn
        copy.bytes_written = self.bytes_written
        return copy
