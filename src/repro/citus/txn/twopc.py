"""Distributed transactions: 1PC delegation and two-phase commit (§3.7).

Wired into the engine's transaction callbacks:

- **pre-commit** — if the coordinator transaction touched exactly one
  worker transaction, send a plain COMMIT (single-node delegation, §3.7.1:
  the worker "provides the same transactional guarantees as a single
  PostgreSQL server"). If it touched several, run phase one: PREPARE
  TRANSACTION on every participant, then write a commit record per
  prepared transaction into ``pg_dist_transaction`` — the records become
  durable atomically with the local commit.
- **post-commit** — phase two: COMMIT PREPARED on a best-effort basis;
  failures are left for the recovery daemon.
- **abort** — ROLLBACK (or ROLLBACK PREPARED) everywhere, best-effort.
"""

from __future__ import annotations

import itertools

from ...errors import ReproError
from ..executor.placement import SessionPools

_gid_counter = itertools.count(1)


def make_gid(coordinator_name: str, backend_pid: int) -> str:
    return f"citus_{coordinator_name}_{backend_pid}_{next(_gid_counter)}"


class TransactionCallbacks:
    """The pre-commit / post-commit / abort hooks Citus installs."""

    def __init__(self, ext):
        self.ext = ext

    def _timed(self, session, conn, name: str, wait_event: str, fn, **attrs):
        """Run ``fn()`` and report it as a commit phase: a TwoPC wait event
        on the coordinator session and a 2pc span in the open statement
        record, both sized by the connection's elapsed delta — the commit
        path never advances the cluster clock, so phase times are
        reconstructed the same way the executor's timeline is."""
        before = conn.elapsed
        telemetry = self.ext.telemetry
        start = telemetry.now()
        try:
            return fn()
        finally:
            delta = conn.elapsed - before
            session.wait_events.record("TwoPC", wait_event, delta,
                                       node=conn.node_name)
            if telemetry.traced is not None:
                telemetry.event(name, "2pc", start, start + delta,
                                node=conn.node_name, **attrs)

    # ----------------------------------------------------------- pre-commit

    def pre_commit(self, session) -> None:
        pools = getattr(session, SessionPools.ATTR, None)
        if pools is None:
            return
        participants = pools.txn_connections()
        if not participants:
            return
        # Read-only participants commit with a plain COMMIT; only writers
        # need atomic commitment.
        writers = [c for c in participants if getattr(c, "did_write", False)]
        readers = [c for c in participants if c not in writers]
        for conn in readers:
            conn.execute("COMMIT")
            conn.in_txn_block = False
        if not writers:
            pools.end_transaction()
            return
        counters = self.ext.stat_counters
        if len(writers) == 1:
            # Single worker transaction: delegate, no 2PC needed (§3.7.1).
            conn = writers[0]
            self._timed(session, conn, "commit.1pc", "Commit1PC",
                        lambda: conn.execute("COMMIT"))
            conn.in_txn_block = False
            session.stats["citus_1pc_commits"] += 1
            counters.incr("onepc_commits", node=conn.node_name)
            pools.end_transaction()
            return
        # Phase one: prepare every writer.
        prepared: list[tuple] = []  # (conn, gid)
        session.stats["citus_2pc_commits"] += 1
        counters.incr("twopc_transactions")
        pools.twopc = True
        participants = writers
        for conn in participants:
            gid = make_gid(self.ext.instance.name, session.backend_pid)
            try:
                self._timed(
                    session, conn, "2pc.prepare", "Prepare",
                    lambda c=conn, g=gid: c.execute(f"PREPARE TRANSACTION '{g}'"),
                    gid=gid,
                )
            except Exception:
                # Prepare failed: abort the already-prepared participants
                # and the local transaction.
                counters.incr("twopc_prepare_failures", node=conn.node_name)
                for other_conn, other_gid in prepared:
                    _best_effort(other_conn, f"ROLLBACK PREPARED '{other_gid}'")
                    counters.incr("twopc_rollback_prepared", node=other_conn.node_name)
                for other in participants:
                    if other is not conn and all(other is not c for c, _ in prepared):
                        _best_effort(other, "ROLLBACK")
                conn.in_txn_block = False
                pools.end_transaction()
                raise
            conn.in_txn_block = False
            counters.incr("twopc_prepares", node=conn.node_name)
            prepared.append((conn, gid))
        # Commit records: become durable together with the local commit.
        for _conn, gid in prepared:
            self.ext.metadata.write_commit_record(session, gid)
        self.ext.telemetry.event("2pc.commit_records", "2pc",
                                 records=len(prepared))
        session._citus_prepared = prepared  # handed to post-commit

    # ---------------------------------------------------------- post-commit

    def post_commit(self, session) -> None:
        prepared = getattr(session, "_citus_prepared", None)
        if prepared:
            for conn, gid in prepared:
                if self.ext.failpoints.get("skip_commit_prepared"):
                    # Failure injection: leave the prepared transaction for
                    # the recovery daemon.
                    continue
                self._timed(
                    session, conn, "2pc.commit_prepared",
                    "CommitPrepared",
                    lambda c=conn, g=gid: _best_effort(c, f"COMMIT PREPARED '{g}'"),
                    gid=gid,
                )
                self.ext.stat_counters.incr(
                    "twopc_commit_prepared", node=conn.node_name
                )
            session._citus_prepared = None
        pools = getattr(session, SessionPools.ATTR, None)
        if pools is not None:
            pools.end_transaction()
            if pools.touched:
                # Durably committed everywhere: the transaction that
                # touched those shards is over. (For an autocommit 2PC this
                # is the commit of the first commit record, written on the
                # same session — before the second phase.)
                self.ext.telemetry.txn_end(session, True, pools.twopc)
            pools.touched = pools.twopc = False

    # --------------------------------------------------------------- abort

    def abort(self, session) -> None:
        prepared = getattr(session, "_citus_prepared", None)
        if prepared:
            # The local commit failed after phase one: without visible
            # commit records, recovery must abort these; do it eagerly.
            for conn, gid in prepared:
                self._timed(
                    session, conn, "2pc.rollback_prepared",
                    "RollbackPrepared",
                    lambda c=conn, g=gid: _best_effort(c, f"ROLLBACK PREPARED '{g}'"),
                    gid=gid,
                )
                self.ext.stat_counters.incr(
                    "twopc_rollback_prepared", node=conn.node_name
                )
            session._citus_prepared = None
        pools = getattr(session, SessionPools.ATTR, None)
        if pools is None:
            return
        for conn in pools.txn_connections():
            self._timed(session, conn, "rollback", "Rollback",
                        lambda c=conn: _best_effort(c, "ROLLBACK"))
            conn.in_txn_block = False
        pools.end_transaction()
        if pools.touched:
            self.ext.telemetry.txn_end(session, False)
        pools.touched = pools.twopc = False


def _best_effort(conn, sql: str) -> None:
    try:
        conn.execute(sql)
    except ReproError:
        pass
