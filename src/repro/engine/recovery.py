"""WAL replay: crash recovery and point-in-time restore.

The replay algorithm mirrors PostgreSQL redo at the logical level:

1. DDL records rebuild the catalog (they are only logged once committed —
   our DDL autocommits or is distributed under 2PC by the Citus layer).
2. Data records are buffered per transaction and applied when the
   transaction's COMMIT (or COMMIT PREPARED) record is reached.
3. Transactions that reached PREPARE but have no resolution record by end
   of log are restored *as prepared*: their effects are written with an
   in-doubt xid (invisible to snapshots), their row locks are re-acquired,
   and they appear in ``instance.prepared_txns`` for 2PC recovery (§3.7.2).
"""

from __future__ import annotations

from ..sql import parse
from .index import index_insert
from .locks import LockManager
from .mvcc import XidManager
from .wal import (ABORT, ABORT_PREPARED, COMMIT, COMMIT_PREPARED, DDL, DELETE,
                  INSERT, PREPARE, ROW_KINDS, UPDATE, WriteAheadLog,
                  decode_value)


def replay_wal(instance, upto_lsn: int | None = None) -> None:
    from .catalog import Catalog
    from .instance import PreparedTransaction

    records = instance.wal.read(upto_lsn)

    # Reset volatile state. The WAL object survives (it is the durable part).
    instance.catalog = Catalog()
    instance.xids = XidManager()
    instance.locks = LockManager()
    instance.prepared_txns = {}
    instance.sessions = []
    old_wal = instance.wal
    instance.wal = WriteAheadLog()  # suppress re-logging during replay
    instance.is_up = True

    # Re-register extension-provided objects (UDFs, hooks survive in the
    # registry because extensions are reinstalled by the caller; builtins
    # need nothing).
    pending: dict[int, list] = {}
    prepared_gids: dict[int, str] = {}
    resolved: dict[int, bool] = {}
    max_xid = 100

    session = instance.connect("wal_replay")
    try:
        for _lsn, xid, kind, *body in records:
            max_xid = max(max_xid, xid + 1)
            if kind == DDL:
                for stmt in parse(body[0]):
                    session._execute_utility(stmt, None, None)
            elif kind in ROW_KINDS:
                pending.setdefault(xid, []).append((kind, *body))
            elif kind == COMMIT:
                _apply_changes(instance, session, pending.pop(xid, []))
                resolved[xid] = True
            elif kind == ABORT:
                pending.pop(xid, None)
                resolved[xid] = False
            elif kind == PREPARE:
                prepared_gids[xid] = body[0]
            elif kind in (COMMIT_PREPARED, ABORT_PREPARED):
                # Matched by gid: a transaction restored as prepared by an
                # earlier replay is resolved under a new xid, but its
                # changes were logged under the xid that prepared it.
                xid = next((x for x, gid in prepared_gids.items()
                            if gid == body[0]), xid)
                changes = pending.pop(xid, [])
                prepared_gids.pop(xid, None)
                resolved[xid] = kind == COMMIT_PREPARED
                if resolved[xid]:
                    _apply_changes(instance, session, changes)

        # Unresolved prepared transactions: restore as prepared.
        instance.xids.next_xid = max_xid
        for xid, gid in prepared_gids.items():
            new_xid = _restore_prepared(instance, session, xid, pending.pop(xid, []), gid)
            instance.prepared_txns[gid] = PreparedTransaction(gid, new_xid, instance.name)
    finally:
        session.close()
        instance.wal = old_wal


def _apply_changes(instance, session, records) -> None:
    """Apply one committed transaction's data changes with a fresh xid."""
    if not records:
        return
    xid = instance.xids.allocate()
    _write_records(instance, records, xid)
    instance.xids.finish(xid, committed=True)


def _restore_prepared(instance, session, orig_xid: int, records, gid: str) -> int:
    xid = instance.xids.allocate()
    _write_records(instance, records, xid, lock_rows=True)
    instance.xids.mark_prepared(xid)
    return xid


def _write_records(instance, records, xid: int, lock_rows: bool = False) -> None:
    for kind, name, row_id, values in records:
        table = instance.catalog.get_table(name)
        if kind == INSERT:
            tup = table.heap.insert(_cast_row(table, values), xid, row_id=row_id)
            table.heap._next_row_id = max(table.heap._next_row_id, row_id + 1)
            _reindex(table, tup)
        elif kind == UPDATE:
            old = table.heap.latest_version(row_id)
            if old is not None:
                table.heap.mark_deleted(old.tid, xid)
            tup = table.heap.insert(_cast_row(table, values), xid, row_id=row_id)
            _reindex(table, tup)
        elif kind == DELETE:
            old = table.heap.latest_version(row_id)
            if old is not None:
                table.heap.mark_deleted(old.tid, xid)
        if lock_rows:
            instance.locks.acquire_row(table.name, row_id, xid)


def _cast_row(table, values) -> list:
    return [decode_value(v, col.type_name) for v, col in zip(values, table.columns)]


def _reindex(table, tup) -> None:
    for index in table.indexes.values():
        if index.data is not None:
            index_insert(table, index, tup)
