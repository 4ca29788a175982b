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
that stays tracked is walked again by every full collection. Only this
module knows the stored layout; :meth:`WriteAheadLog.read` decodes it.
"""

from __future__ import annotations

from .datum import to_text

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

_LSN, _KIND, _TEXT = 0, 2, 3
#: Where a row record's values start: ``(lsn, xid, kind, table, row_id,
#: *values)``, flat, so no nested tuple keeps the record tracked for a
#: second collection.
_VALUES = 5


class WriteAheadLog:
    """An append-only, in-memory WAL with byte accounting for the perf model."""

    def __init__(self):
        self._records: list[tuple] = []
        self._next_lsn = 1
        self.bytes_written = 0

    def append(self, xid: int, kind: str, text: str | None = None) -> int:
        """Log a record that is not a row change — a transaction outcome,
        or with ``text`` a 2PC gid, DDL statement or restore-point name.
        Returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        self._records.append((lsn, xid, kind, text))
        self.bytes_written += 64 if text is None else 64 + len(text)
        return lsn

    def append_row(self, xid: int, kind: str, table: str, row_id: int,
                   values=None) -> None:
        """Log a row change: insert / update carry the new ``values`` (a
        json or array value as its text), delete does not."""
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        size = 72 + len(table)  # 64 + the row_id's 8
        if values is None:
            self._records.append((lsn, xid, kind, table, row_id))
        else:
            self._records.append((lsn, xid, kind, table, row_id, *[
                to_text(v) if isinstance(v, (dict, list)) else v
                for v in values]))
            size += 8 * len(values)
        self.bytes_written += size

    @property
    def records(self) -> list[tuple]:
        """The stored records, as stored (see :meth:`read` for their
        fields)."""
        return self._records

    @property
    def current_lsn(self) -> int:
        return self._next_lsn - 1

    def read(self, upto_lsn: int | None = None):
        """Yield the records up to ``upto_lsn`` (all by default), decoded:
        ``(lsn, xid, kind, table, row_id, values)`` for a row change —
        ``values`` a tuple, None for a delete — and ``(lsn, xid, kind,
        text)`` for any other record, ``text`` None for commit and abort."""
        for record in self._records:
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
        for record in reversed(self._records):
            if record[_KIND] == RESTORE_POINT and record[_TEXT] == name:
                return record[_LSN]
        return None

    def clone(self, lose: int = 0) -> "WriteAheadLog":
        """Snapshot the WAL (used for standby replication and backups),
        less its last ``lose`` records — what an asynchronous standby had
        not received yet."""
        copy = WriteAheadLog()
        copy._records = self._records[:max(0, len(self._records) - lose)]
        copy._next_lsn = self._next_lsn
        copy.bytes_written = self.bytes_written
        return copy
