"""Write-ahead log.

Every data modification, transaction outcome, and 2PC state change is
appended here before it is considered durable. The WAL supports:

- crash recovery: :meth:`WriteAheadLog.records` are replayed on restart,
  restoring committed data *and prepared transactions* (the property §3.7.2
  of the paper relies on: "PostgreSQL implements commands to prepare the
  state of a transaction in a way that ... survives restarts and recovery");
- named restore points (§3.9): Citus creates a *consistent restore point*
  across all nodes; restoring each node's WAL to the same named point yields
  a cluster where every 2PC either committed everywhere or is recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Record types
INSERT = "insert"
UPDATE = "update"
DELETE = "delete"
COMMIT = "commit"
ABORT = "abort"
PREPARE = "prepare"
COMMIT_PREPARED = "commit_prepared"
ABORT_PREPARED = "abort_prepared"
CHECKPOINT = "checkpoint"
RESTORE_POINT = "restore_point"
DDL = "ddl"


@dataclass
class WalRecord:
    lsn: int
    xid: int
    kind: str
    payload: dict = field(default_factory=dict)


class WriteAheadLog:
    """An append-only, in-memory WAL with byte accounting for the perf model."""

    def __init__(self):
        self._records: list[WalRecord] = []
        self._next_lsn = 1
        self.bytes_written = 0

    def append(self, xid: int, kind: str, payload: dict | None = None) -> WalRecord:
        record = WalRecord(self._next_lsn, xid, kind, payload or {})
        self._next_lsn += 1
        self._records.append(record)
        self.bytes_written += 64 + _payload_size(record.payload)
        return record

    def append_row(self, xid: int, kind: str, table: str, row_id: int,
                   values: list | None = None) -> WalRecord:
        """:meth:`append` for a row change (insert / update carry the new
        ``values``, delete does not), sized from its parts instead of by
        walking the payload: the same record and the same byte count."""
        payload = {"table": table, "row_id": row_id}
        size = 72 + len(table)  # 64 + the row_id's 8
        if values is not None:
            payload["values"] = values
            size += 8 * len(values)
        record = WalRecord(self._next_lsn, xid, kind, payload)
        self._next_lsn += 1
        self._records.append(record)
        self.bytes_written += size
        return record

    @property
    def records(self) -> list[WalRecord]:
        return self._records

    @property
    def current_lsn(self) -> int:
        return self._next_lsn - 1

    def create_restore_point(self, name: str) -> int:
        """Write a named restore point; returns its LSN."""
        return self.append(0, RESTORE_POINT, {"name": name}).lsn

    def find_restore_point(self, name: str) -> int | None:
        """LSN of the most recent restore point with the given name."""
        for record in reversed(self._records):
            if record.kind == RESTORE_POINT and record.payload.get("name") == name:
                return record.lsn
        return None

    def records_until(self, lsn: int) -> list[WalRecord]:
        return [r for r in self._records if r.lsn <= lsn]

    def clone(self) -> "WriteAheadLog":
        """Snapshot the WAL (used for standby replication and backups)."""
        copy = WriteAheadLog()
        copy._records = list(self._records)
        copy._next_lsn = self._next_lsn
        copy.bytes_written = self.bytes_written
        return copy


def _payload_size(payload: dict) -> int:
    size = 0
    for value in payload.values():
        if isinstance(value, str):
            size += len(value)
        elif isinstance(value, (list, tuple)):
            size += 8 * len(value)
        else:
            size += 8
    return size
