"""PostgresInstance and Session: the per-server engine.

A :class:`PostgresInstance` is one "PostgreSQL server" in the simulation:
catalog + storage + WAL + lock manager + xid manager + hook registry +
connection accounting. A :class:`Session` is one backend (connection); the
instance enforces ``max_connections`` exactly because the paper's §2.3/§3.2
connection-scalability discussion depends on that limit being real.

Concurrency model: the simulation is single-threaded and cooperative.
A statement that must wait for a row lock either

- raises :class:`~repro.errors.LockTimeout` from the synchronous
  :meth:`Session.execute` (callers — the workload drivers — treat it like
  ``lock_timeout`` firing and retry/abort), or
- is *parked* when issued via :meth:`Session.execute_async`; parked
  statements re-run when :meth:`PostgresInstance.pump` is called after a
  lock release, which is how the deadlock-detection tests stage real
  multi-session waits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..errors import (
    DeadlockDetected,
    InvalidTransactionState,
    LockTimeout,
    NodeUnavailable,
    QueryCanceled,
    SQLError,
    SyntaxErrorSQL,
    TooManyConnections,
    TransactionAborted,
)
from ..sql import ast as A
from ..sql import deparse, parse
from .catalog import Catalog, Column, ForeignKey, IndexDef, Table
from .datum import cast_value
from .executor import LocalExecutor, QueryResult
from .hooks import BackgroundWorker, HookRegistry
from .index import BTreeIndex, GinIndex, index_insert
from .locks import LockManager, WouldBlock
from .lru import LRUCache
from .mvcc import XidManager
from .stats import stats_for
from .waitevents import WaitEventStack
from .wal import WriteAheadLog

_statement_cache = LRUCache(8192)


def _parse_cached(sql: str) -> list:
    stmts = _statement_cache.get(sql)
    if stmts is None:
        stmts = parse(sql)
        _statement_cache.put(sql, stmts)
    return stmts


@dataclass
class InstanceSpec:
    """Hardware description used by the performance model (§4: Azure VMs
    with 16 vcpus, 64 GiB memory, 7500 IOPS network-attached disks)."""

    cores: int = 16
    memory_gb: float = 64.0
    disk_iops: float = 7500.0
    network_rtt_ms: float = 0.5


@dataclass
class PreparedTransaction:
    gid: str
    xid: int
    owner_node: str = ""


class PostgresInstance:
    def __init__(self, name: str = "pg", spec: InstanceSpec | None = None,
                 max_connections: int = 300, clock=None):
        self.name = name
        self.spec = spec or InstanceSpec()
        self.max_connections = max_connections
        self.clock = clock  # simulated clock (may be None for local use)
        self.catalog = Catalog()
        self.xids = XidManager()
        self.locks = LockManager()
        self.wal = WriteAheadLog()
        self.hooks = HookRegistry()
        self.settings: dict[str, object] = {
            "max_connections": max_connections,
            "foreign_key_checks": True,
        }
        self.prepared_txns: dict[str, PreparedTransaction] = {}
        self.sessions: list[Session] = []
        self._backend_pids = itertools.count(1000)
        self._parked: list[_ParkedStatement] = []
        self.cancel_requests: set[int] = set()
        # xid -> (coordinator node name, distributed transaction id);
        # populated by the Citus UDF assign_distributed_transaction_id.
        self.dist_txn_ids: dict[int, tuple] = {}
        self.rng = random.Random(hash(name) & 0xFFFF)
        self.is_up = True
        # Extensions record themselves here (CREATE EXTENSION equivalent).
        self.extensions: dict[str, object] = {}
        # What records this node's statements, or None on a plain
        # instance: an object with open() / leave() / close() / resume() /
        # restore() for the statement lifetime and enter() / exit() /
        # event() for spans inside it, whose ``current`` is the open
        # statement record (None: none) and ``traced`` the same while span
        # detail is wanted (install_citus attaches the cluster's
        # repro.citus.telemetry.Telemetry to every node).
        self.telemetry = None
        # Where sessions fold cumulative wait-event time (see
        # repro.engine.waitevents). Per-instance registry by default;
        # install_citus repoints every node at the shared cluster registry.
        # None disables wait accounting entirely.
        self.wait_registry = stats_for(self)

    # -------------------------------------------------------- connections

    def connect(self, application_name: str = "") -> "Session":
        if not self.is_up:
            raise NodeUnavailable(f"node {self.name!r} is not accepting connections")
        if len(self.sessions) >= self.max_connections:
            raise TooManyConnections(
                f"remaining connection slots on {self.name!r} are reserved"
            )
        session = Session(self, application_name)
        self.sessions.append(session)
        return session

    def disconnect(self, session: "Session") -> None:
        if session.in_transaction:
            session.rollback()
        if session in self.sessions:
            self.sessions.remove(session)

    @property
    def connection_count(self) -> int:
        return len(self.sessions)

    # -------------------------------------------------------------- time

    def now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def wal_flush_seconds(self) -> float:
        """Modeled cost of one WAL fsync on this instance's disk."""
        return 1.0 / self.spec.disk_iops if self.spec.disk_iops else 0.0

    # --------------------------------------------------------- scheduling

    def pump(self) -> int:
        """Retry parked (lock-waiting) statements; returns how many made
        progress. Called after every lock release."""
        progressed = 0
        telemetry = self.telemetry
        for parked in list(self._parked):
            if parked.done:
                self._parked.remove(parked)
                continue
            if telemetry is None:
                progressed += self._retry(parked)
                continue
            # What happens on the statement's behalf from here on belongs
            # to the record it was part of when it parked.
            outer = telemetry.resume(parked.record)
            try:
                progressed += self._retry(parked)
            finally:
                telemetry.restore(outer)
        return progressed

    def _retry(self, parked: "_ParkedStatement") -> bool:
        """Retry or resolve one parked statement; True if it progressed."""
        remote = getattr(parked, "remote_handle", None)
        if remote is not None:
            # Waiting on a worker-side statement: poll, don't re-execute.
            if not remote.done:
                return False
            self._parked.remove(parked)
            if remote.error is not None:
                parked.session._statement_failed(remote.error)
                parked.fail(remote.error)
            else:
                parked.session._statement_succeeded()
                parked.succeed(remote.result)
            return True
        if parked.session.xid in self.cancel_requests:
            self.cancel_requests.discard(parked.session.xid)
            self._parked.remove(parked)
            parked.session._fail_transaction()
            parked.fail(QueryCanceled(
                "canceling statement due to deadlock victim cancellation"
            ))
            return True
        try:
            result = parked.session._execute_statement(
                parked.stmt, parked.params, parked.copy_data
            )
        except WouldBlock as block:
            parked.session._register_wait(block)
            return False
        except SQLError as exc:
            self._parked.remove(parked)
            parked.session._statement_failed(exc)
            parked.fail(exc)
            return True
        self._parked.remove(parked)
        parked.session.locks_cleared_wait()
        parked.session._statement_succeeded()
        parked.succeed(result)
        return True

    def park(self, parked: "_ParkedStatement") -> None:
        self._parked.append(parked)

    def cancel_backend(self, xid: int) -> None:
        """Request cancellation of the backend running transaction ``xid``
        (the distributed deadlock detector's kill mechanism)."""
        self.cancel_requests.add(xid)
        self.pump()

    # ------------------------------------------------------- maintenance

    def register_background_worker(self, name: str, fn: Callable, interval: float = 2.0):
        worker = BackgroundWorker(name, fn, interval)
        self.hooks.background_workers.append(worker)
        return worker

    def run_background_workers(self, force: bool = False) -> int:
        ran = 0
        now = self.now()
        for worker in self.hooks.background_workers:
            if force:
                worker.last_run = now
                worker.fn(self)
                ran += 1
            elif worker.maybe_run(self, now):
                ran += 1
        return ran

    # ------------------------------------------------- crash and recovery

    def crash(self) -> None:
        """Simulate a crash: all sessions die, volatile state is lost.
        Call :meth:`restart` to run WAL recovery."""
        self.is_up = False
        for session in self.sessions:
            session.wait_events.clear()
        self.sessions.clear()
        self._parked.clear()
        self.xids.pinned.clear()  # open cursors died with their sessions
        for xid in list(self.xids.active):
            # In-progress (non-prepared) transactions are implicitly aborted.
            if self.xids.clog.status(xid) == "in_progress":
                self.xids.finish(xid, committed=False)
        self.locks = LockManager()

    def restart(self, upto_lsn: int | None = None) -> None:
        """WAL recovery: rebuild catalog and heap contents from the log.

        Committed transactions are restored; prepared-but-unresolved
        transactions are restored *as prepared* with their row locks
        re-held, which is what 2PC recovery (§3.7.2) depends on.
        """
        from .recovery import replay_wal

        replay_wal(self, upto_lsn)
        self.is_up = True

    def restore_to_point(self, name: str) -> None:
        lsn = self.wal.find_restore_point(name)
        if lsn is None:
            from ..errors import RecoveryError

            raise RecoveryError(f"restore point {name!r} not found on {self.name!r}")
        self.crash()
        self.restart(upto_lsn=lsn)

    # -------------------------------------------------------------- stats

    def total_data_bytes(self) -> int:
        return sum(t.heap.total_bytes for t in self.catalog.tables.values())

    def table_bytes(self, name: str) -> int:
        return self.catalog.get_table(name).heap.total_bytes


@dataclass
class _ParkedStatement:
    session: "Session"
    stmt: A.Statement
    params: object
    copy_data: object
    on_done: Optional[Callable] = None
    done: bool = False
    result: object = None
    error: Optional[Exception] = None
    # Set when the wait is on a worker node: the worker-side parked handle.
    remote_handle: object = None
    # The telemetry record the statement was part of when it parked (its
    # own, or the coordinating statement's for a worker backend).
    record: object = None

    def succeed(self, result):
        self.done = True
        self.result = result
        self.session._finish_activity(result)
        if self.on_done:
            self.on_done(self)

    def fail(self, error):
        self.done = True
        self.error = error
        self.session._finish_activity(None, error)
        if self.on_done:
            self.on_done(self)

    def get(self):
        if not self.done:
            raise LockTimeout("statement is still waiting for a lock")
        if self.error is not None:
            raise self.error
        return self.result


class Session:
    """One backend. Implements the transaction state machine, statement
    dispatch through the hook chain, and lock-wait handling."""

    def __init__(self, instance: PostgresInstance, application_name: str = ""):
        self.instance = instance
        self.application_name = application_name
        self.backend_pid = next(instance._backend_pids)
        self.xid: int | None = None
        self.in_transaction = False  # explicit BEGIN block
        self.aborted = False
        self.local_settings: dict[str, object] = {}
        self.txn_settings: dict[str, object] = {}
        self.stats: dict[str, int] = _zero_stats()
        self.temp_results: dict[str, tuple] = {}  # intermediate results (Citus)
        self.rng = random.Random(self.backend_pid * 7919)
        self.written_tables: set[str] = set()
        self._now = None
        # Citus: remote connections opened on behalf of this session's
        # transaction (worker sessions), managed by the adaptive executor.
        self.remote_txns: dict = {}
        self.on_commit_callbacks: list[Callable] = []
        # Open engine cursors (portals). Statement completion — autocommit,
        # lock release — is deferred until the count drains back to zero.
        self._open_cursors = 0
        self._cursor_error = None
        # Live introspection: current wait (see repro.engine.waitevents)
        # and pg_stat_activity-style state, read by the cluster activity
        # views. ``state`` stays "active" while a statement is parked.
        self.wait_events = WaitEventStack(instance)
        self.state = "idle"
        self.current_stmt: A.Statement | None = None
        self.query_start_at = 0.0
        self.last_query_seconds = 0.0
        self._activity_depth = 0
        self._stmt_wait = None
        # The statement record this session opened and its activity window
        # will close (see PostgresInstance.telemetry); None: not recorded.
        self.record = None
        # Stamped by the Citus planner hook for tenant/tier attribution.
        self._citus_tenant = None
        self._citus_tier = None

    # -------------------------------------------------------------- time

    def now(self):
        import datetime as _dt

        base = _dt.datetime(2021, 6, 20)
        seconds = self.instance.now()
        return base + _dt.timedelta(seconds=seconds)

    # ------------------------------------------------------------- public

    def _check_up(self) -> None:
        if not self.instance.is_up:
            raise NodeUnavailable(
                f"terminating connection: node {self.instance.name!r} went down"
            )

    def execute(self, sql: str, params=None, copy_data=None) -> QueryResult:
        """Execute SQL synchronously. Multi-statement scripts return the
        last statement's result. A lock conflict raises LockTimeout."""
        self._check_up()
        result = QueryResult([], [], command="NONE")
        for stmt in _parse_cached(sql):
            result = self._dispatch(stmt, params, copy_data)
        return result

    def execute_async(self, sql: str, params=None) -> _ParkedStatement:
        """Execute SQL, parking on lock conflicts instead of raising.

        Returns a handle whose ``get()`` yields the result once the lock
        wait resolves (after ``instance.pump()`` calls).
        """
        stmts = _parse_cached(sql)
        if len(stmts) != 1:
            raise SyntaxErrorSQL("execute_async takes a single statement")
        return self.execute_parsed_async(stmts[0], params)

    def execute_parsed(self, stmt: A.Statement, params=None,
                       park_on_block: bool = False) -> QueryResult:
        """Execute a single pre-parsed statement, skipping the lexer and
        parser. Used by the deparse-free distributed task path: the
        coordinator ships the rewritten AST instead of SQL text. The AST
        must be treated as immutable — it may be shared across sessions.

        The one way in for a dispatch that may park: with ``park_on_block``
        a lock conflict parks the statement and raises :class:`Parked`
        carrying its handle, instead of LockTimeout; a statement that
        completes returns its result either way."""
        self._check_up()
        return self._dispatch(stmt, params, None, park_on_block)

    def execute_parsed_async(self, stmt: A.Statement, params=None) -> _ParkedStatement:
        """Pre-parsed variant of :meth:`execute_async`."""
        try:
            result = self.execute_parsed(stmt, params, park_on_block=True)
        except Parked as parked:
            return parked.handle
        handle = _ParkedStatement(self, stmt, params, None)
        handle.succeed(result)
        return handle

    def execute_parsed_cursor(self, stmt: A.Statement, params=None):
        """Open a pull-based cursor (portal) over a pre-parsed SELECT.

        Returns an :class:`~repro.engine.executor.EngineCursor`, or None
        when the statement is not cursor-capable on this backend (not a
        SELECT, or a planner hook claims it) — callers then fall back to
        :meth:`execute_parsed`. Statement completion (autocommit, lock
        release) is deferred until every open cursor on this session has
        finished, mirroring how a portal holds its transaction resources
        until it is closed.
        """
        self._check_up()
        if not isinstance(stmt, A.Select):
            return None
        if self.aborted:
            raise TransactionAborted(
                "current transaction is aborted, commands ignored until end of block"
            )
        if self.instance.hooks.call_planner(self, stmt, params) is not None:
            return None
        try:
            cursor = LocalExecutor(self).execute_cursor(stmt, params)
        except WouldBlock as block:
            # Cursor opens never park: surface the wait exactly like a
            # synchronous multi-task statement does.
            self._register_wait(block)
            victim = self._check_local_deadlock()
            if victim == self.xid:
                self._fail_transaction()
                raise DeadlockDetected("deadlock detected") from None
            self.locks_cleared_wait()
            self._fail_transaction()
            raise LockTimeout(f"could not obtain lock: {block}") from None
        except SQLError:
            self._statement_failed(None)
            raise
        self._open_cursors += 1
        # A lazy scan reads under its snapshot long after this statement
        # returned — across other sessions' commits, VACUUMs and probes:
        # the horizon must not pass it until the cursor is done.
        if cursor.snapshot is not None:
            self.instance.xids.pinned.append(cursor.snapshot)
        cursor._on_finish = partial(self._cursor_finished, cursor.snapshot)
        return cursor

    def _cursor_finished(self, snapshot, error=None) -> None:
        # By identity; a no-op after a crash (the pins died with it).
        pinned = self.instance.xids.pinned
        pinned[:] = [held for held in pinned if held is not snapshot]
        self._open_cursors = max(0, self._open_cursors - 1)
        if error is not None and self._cursor_error is None:
            self._cursor_error = error
        if self._open_cursors == 0:
            error, self._cursor_error = self._cursor_error, None
            if error is not None:
                self._statement_failed(error)
            else:
                self._statement_succeeded()

    def close(self) -> None:
        self.instance.disconnect(self)

    # --------------------------------------------------------- GUC access

    def set_guc(self, name: str, value, is_local: bool = False) -> None:
        if is_local:
            self.txn_settings[name] = value
        else:
            self.local_settings[name] = value

    def get_guc(self, name: str, default=None):
        if name in self.txn_settings:
            return self.txn_settings[name]
        if name in self.local_settings:
            return self.local_settings[name]
        return self.instance.settings.get(name, default)

    # -------------------------------------------------------- transactions

    def ensure_xid(self) -> int:
        if self.xid is None:
            self.xid = self.instance.xids.allocate()
        return self.xid

    def snapshot(self):
        return self.instance.xids.take_snapshot(self.xid or 0)

    def begin(self) -> None:
        if self.in_transaction:
            return  # WARNING: there is already a transaction in progress
        self.in_transaction = True
        self.aborted = False

    def commit(self) -> None:
        if self.aborted:
            self._finish_abort()
            return
        # Pre-commit hooks run even without a local xid: a transaction may
        # consist purely of remote work (Citus worker transactions).
        for callback in self.instance.hooks.pre_commit_callbacks:
            try:
                callback(self)
            except Exception:
                self._abort_transaction()
                raise
        xid = self.xid
        if xid is not None:
            self.instance.wal.append(xid, "commit")
            self.wait_events.record("IO", "WALFlush",
                                    self.instance.wal_flush_seconds())
            self.instance.xids.finish(xid, committed=True)
            self.instance.locks.release_all(xid)
        self._reset_txn_state()
        for callback in self.instance.hooks.post_commit_callbacks:
            callback(self)
        for callback in self.on_commit_callbacks:
            callback(self)
        self.on_commit_callbacks.clear()
        self.instance.pump()

    def rollback(self) -> None:
        self._abort_transaction()

    def _abort_transaction(self) -> None:
        self._end_stmt_wait()
        if self.xid is not None:
            xid = self.xid
            self.instance.wal.append(xid, "abort")
            self.wait_events.record("IO", "WALFlush",
                                    self.instance.wal_flush_seconds())
            self.instance.xids.finish(xid, committed=False)
            self.instance.locks.release_all(xid)
        self._reset_txn_state()
        for callback in self.instance.hooks.abort_callbacks:
            callback(self)
        self.on_commit_callbacks.clear()
        self.instance.pump()

    def _finish_abort(self) -> None:
        self._abort_transaction()

    def _reset_txn_state(self) -> None:
        self.xid = None
        self.in_transaction = False
        self.aborted = False
        self.txn_settings.clear()
        self.written_tables.clear()
        self.temp_results.clear()

    def prepare_transaction(self, gid: str) -> None:
        if self.xid is None:
            raise InvalidTransactionState("PREPARE TRANSACTION requires an active transaction")
        if gid in self.instance.prepared_txns:
            raise InvalidTransactionState(f"transaction identifier {gid!r} is already in use")
        xid = self.xid
        self.instance.wal.append(xid, "prepare", {"gid": gid})
        self.wait_events.record("IO", "WALFlush",
                                self.instance.wal_flush_seconds())
        self.instance.xids.mark_prepared(xid)
        self.instance.prepared_txns[gid] = PreparedTransaction(gid, xid, self.instance.name)
        # Locks are deliberately NOT released: PREPARE keeps them.
        self.xid = None
        self.in_transaction = False
        self.txn_settings.clear()
        self.written_tables.clear()

    def commit_prepared(self, gid: str) -> None:
        prepared = self.instance.prepared_txns.pop(gid, None)
        if prepared is None:
            raise InvalidTransactionState(f"prepared transaction {gid!r} does not exist")
        self.instance.wal.append(prepared.xid, "commit_prepared", {"gid": gid})
        self.wait_events.record("IO", "WALFlush",
                                self.instance.wal_flush_seconds())
        self.instance.xids.resolve_prepared(prepared.xid, committed=True)
        self.instance.locks.release_all(prepared.xid)
        self.instance.pump()

    def rollback_prepared(self, gid: str) -> None:
        prepared = self.instance.prepared_txns.pop(gid, None)
        if prepared is None:
            raise InvalidTransactionState(f"prepared transaction {gid!r} does not exist")
        self.instance.wal.append(prepared.xid, "abort_prepared", {"gid": gid})
        self.wait_events.record("IO", "WALFlush",
                                self.instance.wal_flush_seconds())
        self.instance.xids.resolve_prepared(prepared.xid, committed=False)
        self.instance.locks.release_all(prepared.xid)
        self.instance.pump()

    # ------------------------------------------------------------- locking

    def acquire_table_lock(self, table: str, mode: str) -> None:
        xid = self.ensure_xid()
        self.instance.locks.acquire_table(table, mode, xid)

    def acquire_row_lock(self, table: str, row_id: int) -> None:
        xid = self.ensure_xid()
        self.instance.locks.acquire_row(table, row_id, xid)

    def _register_wait(self, block: WouldBlock) -> None:
        xid = self.ensure_xid()
        self.instance.locks.add_wait(xid, block.holders, key=block.key)
        if self._stmt_wait is None:
            kind = block.key[0] if isinstance(block.key, tuple) and block.key else "lock"
            event = {"table": "relation", "row": "tuple"}.get(kind, kind)
            self._stmt_wait = self.wait_events.begin("Lock", event,
                                                     detail=block.key)

    def locks_cleared_wait(self) -> None:
        self._end_stmt_wait()
        if self.xid is not None:
            self.instance.locks.clear_wait(self.xid)

    def _end_stmt_wait(self) -> None:
        wait = self._stmt_wait
        if wait is not None:
            self._stmt_wait = None
            self.wait_events.finish(wait)

    def track_write(self, table: str) -> None:
        self.written_tables.add(table)
        self.stats["rows_written"] += 1

    # ----------------------------------------------------------- dispatch

    def _dispatch(self, stmt: A.Statement, params, copy_data, park_on_block=False):
        # Activity tracking: the outermost dispatch of a statement owns the
        # session's pg_stat_activity-style window. A nested dispatch (UDFs,
        # commit hooks running SQL on the same session — including while a
        # *parked* statement still holds the window) must not clobber it.
        owns_activity = self._activity_depth == 0 and self.state != "active"
        self._activity_depth += 1
        if owns_activity:
            self.current_stmt = stmt
            self.query_start_at = self.instance.now()
            self.state = "active"
            self.wait_events.statement_seconds = 0.0
        # A top-level statement opens a record here and the activity window
        # closes it; a dispatch inside one (a worker backend on this
        # process, UDF-internal SQL) nests a span in that record. A plain
        # instance, or a cluster recording nothing, pays the attribute
        # loads only.
        telemetry = self.instance.telemetry
        mark = None
        if telemetry is not None:
            if telemetry.current is None:
                if owns_activity and telemetry.recording:
                    mark = telemetry.open(self, stmt)
            elif telemetry.traced is not None:
                mark = telemetry.enter(type(stmt).__name__, "statement",
                                       self.instance.name)
        try:
            result = self._dispatch_inner(stmt, params, copy_data,
                                          park_on_block)
        except Parked:
            # The statement stays logically active while parked; the parked
            # handle's succeed/fail finishes the activity window (and with
            # it the record, which spans the wait).
            self._activity_depth -= 1
            if mark is not None:
                telemetry.leave(mark)
            raise
        except BaseException as exc:
            self._activity_depth -= 1
            if mark is not None:
                telemetry.leave(mark)
            if owns_activity:
                self._finish_activity(None, exc)
            raise
        self._activity_depth -= 1
        if mark is not None:
            telemetry.leave(mark)
        if owns_activity:
            self._finish_activity(result)
        return result

    def _finish_activity(self, result=None, error=None) -> None:
        """Close the current statement's activity window: settle any live
        wait, flip the reported state back to idle, and close the
        statement's record with its result or error. Idempotent —
        parked-handle resolution and the dispatch epilogue may both call
        it."""
        if self.state != "active":
            return
        self._end_stmt_wait()
        now = self.instance.now()
        self.last_query_seconds = now - self.query_start_at
        if self.aborted:
            self.state = "idle in transaction (aborted)"
        elif self.in_transaction:
            self.state = "idle in transaction"
        else:
            self.state = "idle"
        self._citus_tenant = None
        if self.record is not None:
            self.instance.telemetry.close(self, result, error)

    def _dispatch_inner(self, stmt: A.Statement, params, copy_data,
                        park_on_block=False):
        if self.aborted and not isinstance(stmt, (A.Rollback, A.Commit)):
            raise TransactionAborted(
                "current transaction is aborted, commands ignored until end of block"
            )
        try:
            result = self._execute_statement(stmt, params, copy_data)
        except WouldBlock as block:
            remote_handle = getattr(block, "handle", None)
            if remote_handle is None:
                self._register_wait(block)
            if park_on_block:
                if remote_handle is not None and self._stmt_wait is None:
                    # Parked on a worker-side statement, not a local lock.
                    self._stmt_wait = self.wait_events.begin(
                        "IPC", "RemoteStatement", detail=block.key
                    )
                handle = _ParkedStatement(self, stmt, params, copy_data)
                handle.remote_handle = remote_handle
                if self.instance.telemetry is not None:
                    handle.record = self.instance.telemetry.current
                self.instance.park(handle)
                self._check_local_deadlock()
                raise Parked(handle) from None
            if remote_handle is not None:
                # Synchronous caller on a remote wait: treat as timeout and
                # cancel the worker-side statement to keep state consistent.
                remote_handle.session.instance.cancel_backend(
                    remote_handle.session.xid or -1
                )
                self._fail_transaction()
                raise LockTimeout(f"could not obtain remote lock: {block}") from None
            victim = self._check_local_deadlock()
            if victim == self.xid:
                self._fail_transaction()
                raise DeadlockDetected("deadlock detected") from None
            self.locks_cleared_wait()
            self._fail_transaction()
            raise LockTimeout(
                f"could not obtain lock: {block}"
            ) from None
        except SQLError:
            self._statement_failed(None)
            raise
        self._statement_succeeded()
        return result

    def _statement_failed(self, exc) -> None:
        if self.in_transaction:
            self.aborted = True
        elif self.xid is not None or self.remote_txns:
            # Pure-remote statements (e.g. distributed COPY) also need the
            # abort callbacks so worker transaction blocks roll back.
            self._abort_transaction()

    def _fail_transaction(self) -> None:
        """An error that aborts the transaction's effects immediately (lock
        timeout, deadlock victim). Inside an explicit block, the block stays
        open in the aborted state until the client issues ROLLBACK."""
        in_block = self.in_transaction
        self._abort_transaction()
        if in_block:
            self.in_transaction = True
            self.aborted = True

    def _statement_succeeded(self) -> None:
        needs_commit = self.xid is not None or self.remote_txns
        if not self.in_transaction and needs_commit:
            self.commit()

    def _check_local_deadlock(self) -> int | None:
        """Run PostgreSQL's local deadlock check; abort the youngest
        transaction in a cycle. Returns the victim xid, if any."""
        cycle = self.instance.locks.find_local_cycle()
        if not cycle:
            return None
        victim = max(cycle)
        if victim != self.xid:
            self.instance.cancel_backend(victim)
        return victim

    # ----------------------------------------------------- statement exec

    def _execute_statement(self, stmt, params, copy_data) -> QueryResult:
        if isinstance(stmt, (A.Select, A.Insert, A.Update, A.Delete)):
            plan = self.instance.hooks.call_planner(self, stmt, params)
            if plan is not None:
                return plan.execute(self, params)
            return self._execute_local_dml(stmt, params)
        if isinstance(stmt, A.Begin):
            self.begin()
            return QueryResult([], [], command="BEGIN")
        if isinstance(stmt, A.Commit):
            self.commit()
            return QueryResult([], [], command="COMMIT")
        if isinstance(stmt, A.Rollback):
            self.rollback()
            return QueryResult([], [], command="ROLLBACK")
        if isinstance(stmt, A.PrepareTransaction):
            self.prepare_transaction(stmt.gid)
            return QueryResult([], [], command="PREPARE TRANSACTION")
        if isinstance(stmt, A.CommitPrepared):
            self.commit_prepared(stmt.gid)
            return QueryResult([], [], command="COMMIT PREPARED")
        if isinstance(stmt, A.RollbackPrepared):
            self.rollback_prepared(stmt.gid)
            return QueryResult([], [], command="ROLLBACK PREPARED")
        if isinstance(stmt, A.SetVar):
            self.set_guc(stmt.name, stmt.value, stmt.is_local)
            return QueryResult([], [], command="SET")
        if isinstance(stmt, A.ShowVar):
            return QueryResult([stmt.name], [[self.get_guc(stmt.name)]])
        if isinstance(stmt, A.Explain):
            return self._explain(stmt, params)
        # Utility path (DDL, COPY, VACUUM, CALL, ...)
        self._pending_copy_data = copy_data  # visible to utility hooks
        self._pending_params = params
        result = self.instance.hooks.call_utility(self, stmt)
        if result is not None:
            return result
        return self._execute_utility(stmt, params, copy_data)

    def _execute_local_dml(self, stmt, params) -> QueryResult:
        executor = LocalExecutor(self)
        if isinstance(stmt, A.Select):
            return executor.execute_select(stmt, params)
        if isinstance(stmt, A.Insert):
            return executor.execute_insert(stmt, params)
        if isinstance(stmt, A.Update):
            return executor.execute_update(stmt, params)
        return executor.execute_delete(stmt, params)

    def _explain(self, stmt: A.Explain, params) -> QueryResult:
        inner = stmt.statement
        plan = self.instance.hooks.call_planner(self, inner, params)
        if plan is not None:
            lines = list(plan.explain_lines())
        else:
            lines = LocalExecutor(self).explain(inner, params)
        if stmt.analyze:
            # EXPLAIN ANALYZE: run the statement and report actuals
            # (simulated elapsed time for distributed plans).
            if plan is not None:
                analyzer = getattr(plan, "explain_analyze_lines", None)
                if analyzer is not None:
                    # Distributed plans execute under trace capture and
                    # render per-task actuals plus the merge span.
                    return QueryResult(
                        ["QUERY PLAN"],
                        [[line] for line in analyzer(self, inner, params)],
                    )
                result = plan.execute(self, params)
                lines.append(
                    f"  (actual rows={result.rowcount or len(result.rows)})"
                )
            else:
                result = self._execute_local_dml(inner, params) if isinstance(
                    inner, (A.Select, A.Insert, A.Update, A.Delete)
                ) else None
                if result is not None:
                    lines.append(
                        f"  (actual rows={result.rowcount or len(result.rows)})"
                    )
        return QueryResult(["QUERY PLAN"], [[line] for line in lines])

    # ---------------------------------------------------------------- DDL

    def _execute_utility(self, stmt, params, copy_data) -> QueryResult:
        if isinstance(stmt, A.CreateTable):
            created = self.create_table_from_ast(stmt)
            if created:
                self._log_ddl(stmt)
            return QueryResult([], [], command="CREATE TABLE")
        if isinstance(stmt, A.CreateIndex):
            created = self.create_index_from_ast(stmt)
            if created:
                self._log_ddl(stmt)
            return QueryResult([], [], command="CREATE INDEX")
        if isinstance(stmt, A.DropTable):
            for name in stmt.names:
                self.instance.catalog.drop_table(name, stmt.if_exists)
            self._log_ddl(stmt)
            return QueryResult([], [], command="DROP TABLE")
        if isinstance(stmt, A.DropIndex):
            self.instance.catalog.drop_index(stmt.name, stmt.if_exists)
            self._log_ddl(stmt)
            return QueryResult([], [], command="DROP INDEX")
        if isinstance(stmt, A.TruncateTable):
            for name in stmt.names:
                table = self.instance.catalog.get_table(name)
                self.acquire_table_lock(name, "AccessExclusive")
                table.heap.__init__(name)
                for index in table.indexes.values():
                    index.data = _fresh_index_structure(index)
            self._log_ddl(stmt)
            return QueryResult([], [], command="TRUNCATE")
        if isinstance(stmt, A.AlterTable):
            self._alter_table(stmt)
            self._log_ddl(stmt)
            return QueryResult([], [], command="ALTER TABLE")
        if isinstance(stmt, A.Vacuum):
            return self._vacuum(stmt)
        if isinstance(stmt, A.Copy):
            from .copy import execute_copy

            return execute_copy(self, stmt, copy_data)
        if isinstance(stmt, A.CallProcedure):
            return self._call_procedure(stmt, params)
        raise SyntaxErrorSQL(f"unsupported utility statement {type(stmt).__name__}")

    def _log_ddl(self, stmt) -> None:
        self.instance.wal.append(self.xid or 0, "ddl", {"sql": deparse(stmt)})

    def create_table_from_ast(self, stmt: A.CreateTable) -> bool:
        table = build_table(stmt)
        _create_constraint_indexes(table)
        return self.instance.catalog.create_table(table, stmt.if_not_exists)

    def create_index_from_ast(self, stmt: A.CreateIndex) -> bool:
        table = self.instance.catalog.get_table(stmt.table)
        index = IndexDef(stmt.name, stmt.table, stmt.exprs, stmt.unique, stmt.using)
        index.data = _fresh_index_structure(index)
        created = self.instance.catalog.create_index(index, stmt.if_not_exists)
        if created:
            self._backfill_index(table, index)
        return created

    def _backfill_index(self, table: Table, index: IndexDef) -> None:
        for tup in table.heap.tuples:
            index_insert(table, index, tup)

    def _alter_table(self, stmt: A.AlterTable) -> None:
        table = self.instance.catalog.get_table(stmt.table)
        self.acquire_table_lock(stmt.table, "AccessExclusive")
        if stmt.action == "add_column":
            col = Column(stmt.column.name, stmt.column.type_name,
                         not_null=stmt.column.not_null, default=stmt.column.default)
            table.columns.append(col)
            default_value = None
            if col.default is not None:
                from .expr import EvalContext, Row, evaluate

                default_value = cast_value(
                    evaluate(col.default, EvalContext(row=Row(), session=self)), col.type_name
                )
            for tup in table.heap.tuples:
                tup.values.append(default_value)
        elif stmt.action == "drop_column":
            idx = table.column_index(stmt.column_name)
            table.columns.pop(idx)
            for tup in table.heap.tuples:
                tup.values.pop(idx)
        elif stmt.action == "add_foreign_key":
            fk = stmt.foreign_key
            table.foreign_keys.append(
                ForeignKey(fk.name or f"{stmt.table}_fk", fk.columns, fk.ref_table,
                           fk.ref_columns)
            )
        else:
            raise SyntaxErrorSQL(f"unsupported ALTER TABLE action {stmt.action!r}")
        self.instance.catalog.bump_epoch()

    def _vacuum(self, stmt: A.Vacuum) -> QueryResult:
        horizon = self.instance.xids.horizon()
        tables = (
            [self.instance.catalog.get_table(stmt.table)]
            if stmt.table
            else list(self.instance.catalog.tables.values())
        )
        removed = 0
        for table in tables:
            dead_tids = set(table.heap.vacuum(horizon, self.instance.xids.clog))
            if dead_tids:
                # Entries no probe has killed yet must not outlive the
                # version they name.
                for index in table.indexes.values():
                    if index.data is not None:
                        index.data.prune(dead_tids)
            removed += len(dead_tids)
        result = QueryResult([], [], command="VACUUM")
        result.rowcount = removed
        return result

    def _call_procedure(self, stmt: A.CallProcedure, params) -> QueryResult:
        from .expr import EvalContext, Row, evaluate

        proc = self.instance.catalog.get_procedure(stmt.name)
        ctx = EvalContext(row=Row(), params=params, session=self)
        args = [evaluate(a, ctx) for a in stmt.args]
        value = proc.fn(self, *args)
        if isinstance(value, QueryResult):
            return value
        return QueryResult([], [], command="CALL")

    # ------------------------------------------------------- direct COPY

    def copy_rows(self, table_name: str, rows, columns: list[str] | None = None) -> int:
        """Programmatic COPY FROM: append rows (lists of values).

        Dispatches as a COPY statement so extension utility hooks (e.g. the
        Citus distributed COPY) intercept it, and autocommits outside a
        transaction block.
        """
        stmt = A.Copy(table_name, list(columns or []), "from", {})
        result = self._dispatch(stmt, None, rows)
        return result.rowcount


class Parked(Exception):
    """Control-flow signal: the statement was parked (``park_on_block``);
    ``handle`` resolves once its lock wait does."""

    def __init__(self, handle: _ParkedStatement):
        super().__init__("parked")
        self.handle = handle


def _zero_stats() -> dict[str, int]:
    from collections import defaultdict

    return defaultdict(int)


def build_table(stmt: A.CreateTable) -> Table:
    """Construct a catalog Table from a CREATE TABLE statement."""
    columns = []
    primary_key = list(stmt.primary_key)
    unique_constraints = [list(u) for u in stmt.unique_constraints]
    foreign_keys = []
    for cdef in stmt.columns:
        col = Column(cdef.name, cdef.type_name, not_null=cdef.not_null or cdef.primary_key,
                     default=cdef.default)
        columns.append(col)
        if cdef.primary_key:
            primary_key = [cdef.name]
        if cdef.unique:
            unique_constraints.append([cdef.name])
        if cdef.references is not None:
            ref_table, ref_col = cdef.references
            foreign_keys.append(
                ForeignKey(f"{stmt.name}_{cdef.name}_fkey", [cdef.name], ref_table,
                           [ref_col] if ref_col else [])
            )
    for fk in stmt.foreign_keys:
        foreign_keys.append(
            ForeignKey(fk.name or f"{stmt.name}_fkey", list(fk.columns), fk.ref_table,
                       list(fk.ref_columns))
        )
    # Primary key columns are implicitly NOT NULL, as in PostgreSQL.
    for col in columns:
        if col.name in primary_key:
            col.not_null = True
    return Table(
        name=stmt.name,
        columns=columns,
        primary_key=primary_key,
        unique_constraints=unique_constraints,
        foreign_keys=foreign_keys,
        access_method=stmt.using or "heap",
    )


def _create_constraint_indexes(table: Table) -> None:
    """Primary keys and unique constraints are backed by B-tree indexes,
    as in PostgreSQL."""
    if table.primary_key:
        index = IndexDef(
            f"{table.name}_pkey", table.name,
            [A.ColumnRef(c) for c in table.primary_key], unique=True,
        )
        index.data = BTreeIndex(len(index.exprs))
        table.indexes[index.name] = index
    for i, cols in enumerate(table.unique_constraints):
        index = IndexDef(
            f"{table.name}_ukey_{i}", table.name,
            [A.ColumnRef(c) for c in cols], unique=True,
        )
        index.data = BTreeIndex(len(index.exprs))
        table.indexes[index.name] = index
    # Foreign-key source columns get supporting indexes (helps RESTRICT
    # checks; PostgreSQL users almost always create these).
    for fk in table.foreign_keys:
        name = f"{table.name}_{fk.columns[0]}_fk_idx"
        if name not in table.indexes:
            index = IndexDef(name, table.name, [A.ColumnRef(c) for c in fk.columns])
            index.data = BTreeIndex(len(index.exprs))
            table.indexes[name] = index


def _fresh_index_structure(index: IndexDef):
    if index.method == "gin":
        return GinIndex()
    return BTreeIndex(len(index.exprs))
