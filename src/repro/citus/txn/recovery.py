"""2PC recovery (§3.7.2).

Run by the maintenance daemon: compare each worker's pending prepared
transactions (those with this coordinator's gid prefix) against the local
``pg_dist_transaction`` commit records.

- Commit record present (visible) → the coordinator committed, so the
  prepared transaction must COMMIT PREPARED.
- No record for a gid whose coordinator transaction has ended → the
  coordinator aborted before writing records, so ROLLBACK PREPARED.

Resolved commit records are garbage-collected afterwards.
"""

from __future__ import annotations

from ...errors import ReproError
from ...sql import ast as A


def _timed_recovery(telemetry, conn, name: str, gid: str, fn) -> None:
    """Run one recovery resolution, reporting it as a 2pc span sized by
    the connection's elapsed delta."""
    before = conn.elapsed
    start = telemetry.now()
    try:
        fn()
    finally:
        telemetry.event(name, "2pc", start, start + (conn.elapsed - before),
                        node=conn.node_name, gid=gid)


def _in_flight_gids(ext) -> set:
    """Gids of 2PCs currently between phase one and phase two on a live
    backend (their outcome is not yet decided by the local commit)."""
    gids = set()
    for session in ext.instance.sessions:
        for _conn, gid in getattr(session, "_citus_prepared", None) or ():
            gids.add(gid)
    return gids


def recover_prepared_transactions(ext) -> dict:
    """Returns {"committed": n, "aborted": n} for observability."""
    stats = {"committed": 0, "aborted": 0}
    counters = ext.stat_counters
    counters.incr("recovery_rounds")
    session = ext.instance.connect("citus_recovery")
    try:
        prefix = f"citus_{ext.instance.name}_"
        known_gids = set()
        all_reachable = True
        for node in ext.all_node_names():
            try:
                worker = ext.cluster.node(node)
            except ReproError:
                all_reachable = False
                continue
            if not worker.is_up:
                all_reachable = False
                continue
            in_flight = _in_flight_gids(ext)
            for gid in list(worker.prepared_txns):
                if not gid.startswith(prefix):
                    continue  # another coordinator owns this one
                if gid in in_flight:
                    continue  # the coordinator transaction has not ended yet
                known_gids.add(gid)
                conn = ext.worker_connection(node)
                telemetry = ext.telemetry
                if ext.metadata.commit_record_exists(session, gid):
                    _timed_recovery(telemetry, conn, "2pc.recover_commit", gid,
                                    lambda: conn.execute_parsed(A.CommitPrepared(gid)))
                    stats["committed"] += 1
                    counters.incr("recovery_committed", node=node)
                else:
                    _timed_recovery(telemetry, conn, "2pc.recover_abort", gid,
                                    lambda: conn.execute_parsed(A.RollbackPrepared(gid)))
                    stats["aborted"] += 1
                    counters.incr("recovery_aborted", node=node)
        # Garbage-collect commit records whose prepared transactions are
        # gone — but only when every node could be checked this round: a
        # down node may still hold a prepared transaction whose record we
        # must keep until it resolves.
        if all_reachable:
            for (gid,) in session.execute(
                "SELECT gid FROM pg_dist_transaction"
            ).rows:
                if gid.startswith(prefix) and gid not in known_gids:
                    ext.metadata.delete_commit_record(session, gid)
                    counters.incr("recovery_records_gced")
        return stats
    finally:
        session.close()
