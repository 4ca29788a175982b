"""Distributed transaction tests: 1PC delegation, 2PC, commit records,
recovery, atomic visibility, distributed deadlock detection."""

import pytest

from repro.errors import DeadlockDetected, LockTimeout, QueryCanceled
from tests.conftest import find_keys_on_distinct_nodes


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    return s


@pytest.fixture
def keys(citus, s):
    k1, k2 = find_keys_on_distinct_nodes(citus, "t")
    s.execute("INSERT INTO t VALUES ($1, 0), ($2, 0)", [k1, k2])
    s.stats.clear()  # the fixture's cross-node insert is itself a 2PC
    return k1, k2


class TestCommitProtocols:
    def test_single_node_txn_uses_1pc(self, citus, s, keys):
        k1, _ = keys
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("COMMIT")
        assert s.stats["citus_1pc_commits"] == 1
        assert s.stats.get("citus_2pc_commits", 0) == 0

    def test_multi_node_txn_uses_2pc(self, citus, s, keys):
        k1, k2 = keys
        counters = citus.coordinator_ext.stat_counters
        before = counters.value("twopc_transactions")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 2 WHERE k = $1", [k2])
        s.execute("COMMIT")
        assert s.stats["citus_2pc_commits"] == 1
        assert counters.value("twopc_transactions") == before + 1

    def test_2pc_writes_commit_records(self, citus, s, keys):
        k1, k2 = keys
        before = s.execute("SELECT count(*) FROM pg_dist_transaction").scalar()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 2 WHERE k = $1", [k2])
        s.execute("COMMIT")
        after = s.execute("SELECT count(*) FROM pg_dist_transaction").scalar()
        assert after == before + 2

    def test_rollback_across_nodes(self, citus, s, keys):
        k1, k2 = keys
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 9 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 9 WHERE k = $1", [k2])
        s.execute("ROLLBACK")
        assert s.execute("SELECT sum(v) FROM t").scalar() == 0

    def test_multi_shard_statement_is_atomic(self, citus, s, keys):
        # A single multi-shard UPDATE outside a block still commits via 2PC.
        s.execute("UPDATE t SET v = 7")
        assert s.execute("SELECT sum(v) FROM t").scalar() == 14
        assert s.stats.get("citus_2pc_commits", 0) >= 1

    def test_read_only_txn_needs_no_2pc(self, citus, s, keys):
        s.execute("BEGIN")
        s.execute("SELECT count(*) FROM t")
        s.execute("COMMIT")
        assert s.stats.get("citus_2pc_commits", 0) == 0

    def test_txn_sees_own_writes_across_statements(self, citus, s, keys):
        k1, _ = keys
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 5 WHERE k = $1", [k1])
        assert s.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 5
        s.execute("ROLLBACK")
        assert s.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 0

    def test_uncommitted_invisible_to_other_coordinator_session(self, citus, s, keys):
        k1, _ = keys
        other = citus.coordinator_session("other")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 5 WHERE k = $1", [k1])
        assert other.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 0
        s.execute("COMMIT")
        assert other.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 5


class TestRecovery:
    def test_failed_commit_prepared_recovered_as_commit(self, citus, s, keys):
        k1, k2 = keys
        ext = citus.coordinator_ext
        ext.failpoints["skip_commit_prepared"] = True
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 10 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 10 WHERE k = $1", [k2])
        s.execute("COMMIT")
        ext.failpoints.clear()
        pending = sum(len(citus.cluster.node(n).prepared_txns)
                      for n in citus.cluster.node_names())
        assert pending == 2
        result = citus.run_maintenance()
        assert result["recovery"]["committed"] == 2
        assert s.execute("SELECT sum(v) FROM t").scalar() == 20

    def test_orphaned_prepared_without_record_rolls_back(self, citus, s, keys):
        k1, _ = keys
        # Simulate a worker-prepared transaction whose coordinator died
        # before writing a commit record.
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("t")
        from repro.engine.datum import hash_value

        index = dist.shard_index_for_hash(hash_value(k1))
        node = ext.metadata.cache.placement_node(dist.shards[index].shardid)
        worker_session = citus.cluster.node(node).connect()
        shard = dist.shards[index].shard_name
        worker_session.execute("BEGIN")
        worker_session.execute(f"UPDATE {shard} SET v = 99 WHERE k = {k1}")
        worker_session.execute(
            f"PREPARE TRANSACTION 'citus_{ext.instance.name}_999_12345'"
        )
        result = citus.run_maintenance()
        assert result["recovery"]["aborted"] == 1
        assert s.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 0

    def test_commit_records_garbage_collected(self, citus, s, keys):
        k1, k2 = keys
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k2])
        s.execute("COMMIT")
        citus.run_maintenance()
        assert s.execute("SELECT count(*) FROM pg_dist_transaction").scalar() == 0

    def test_recovery_after_coordinator_restart(self, citus, s, keys):
        k1, k2 = keys
        ext = citus.coordinator_ext
        ext.failpoints["skip_commit_prepared"] = True
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 3 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 3 WHERE k = $1", [k2])
        s.execute("COMMIT")
        ext.failpoints.clear()
        # Coordinator crashes; commit records are in its WAL.
        citus.coordinator.crash()
        citus.coordinator.restart()
        ext._utility_connections.clear()
        result = citus.run_maintenance()
        assert result["recovery"]["committed"] == 2
        check = citus.coordinator_session("check")
        assert check.execute("SELECT sum(v) FROM t").scalar() == 6


class TestDistributedRestorePoint:
    def test_cluster_restore_is_consistent(self, citus, s, keys):
        k1, k2 = keys
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        admin = citus.coordinator_session("admin")
        admin.execute("SELECT citus_create_restore_point('checkpoint1')")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 100 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 100 WHERE k = $1", [k2])
        s.execute("COMMIT")
        citus.restore_to_point("checkpoint1")
        check = citus.coordinator_session("check")
        rows = dict(check.execute("SELECT k, v FROM t").rows)
        assert rows[k1] == 1 and rows[k2] == 0


class TestDistributedDeadlock:
    def test_cross_node_deadlock_detected(self, citus, s, keys):
        k1, k2 = keys
        a = citus.coordinator_session("a")
        b = citus.coordinator_session("b")
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        b.execute("BEGIN")
        b.execute("UPDATE t SET v = 2 WHERE k = $1", [k2])
        fa = a.execute_async(f"UPDATE t SET v = 1 WHERE k = {k2}")
        fb = b.execute_async(f"UPDATE t SET v = 2 WHERE k = {k1}")
        assert not fa.done and not fb.done
        cancelled = citus.run_maintenance()["deadlocks_cancelled"]
        assert len(cancelled) == 1
        citus.pump()
        # The younger transaction (b) is the victim.
        assert fb.done and isinstance(fb.error, QueryCanceled)
        b.execute("ROLLBACK")
        citus.pump()
        assert fa.done and fa.error is None
        a.execute("COMMIT")
        rows = dict(s.execute("SELECT k, v FROM t").rows)
        assert rows[k1] == 1 and rows[k2] == 1

    def test_the_transaction_that_started_last_is_the_victim(self, citus, s,
                                                             keys):
        # a ran a transaction before b began, then began the one that
        # deadlocks after b: a's is the younger one.
        k1, k2 = keys
        a = citus.coordinator_session("a")
        b = citus.coordinator_session("b")
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 0 WHERE k = $1", [k1])
        a.execute("COMMIT")
        b.execute("BEGIN")
        b.execute("UPDATE t SET v = 2 WHERE k = $1", [k2])
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        fa = a.execute_async(f"UPDATE t SET v = 1 WHERE k = {k2}")
        fb = b.execute_async(f"UPDATE t SET v = 2 WHERE k = {k1}")
        assert len(citus.run_maintenance()["deadlocks_cancelled"]) == 1
        citus.pump()
        assert fa.done and isinstance(fa.error, QueryCanceled)
        a.execute("ROLLBACK")
        citus.pump()
        assert fb.done and fb.error is None
        b.execute("COMMIT")

    def test_each_transaction_gets_its_own_younger_id(self, citus, s, keys):
        k1, k2 = keys
        ids = []
        for v in range(3):
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = $1 WHERE k = $2", [v, k1])
            s.execute("UPDATE t SET v = $1 WHERE k = $2", [v, k2])
            ids.append(s._citus_dist_txn_id)
            s.execute("COMMIT")
        assert ids[0] < ids[1] < ids[2]

    @pytest.mark.parametrize("end", ["COMMIT", "ROLLBACK"])
    def test_no_node_keeps_the_id_of_an_ended_transaction(self, citus, s,
                                                          keys, end):
        k1, k2 = keys
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k2])
        ext = citus.coordinator_ext
        nodes = [ext.instance] + [citus.cluster.node(name)
                                  for name in ext.all_node_names()]
        assert any(node.dist_txn_ids for node in nodes)
        s.execute(end)
        assert [node.dist_txn_ids for node in nodes] == [{}] * len(nodes)
        assert s._citus_dist_txn_id is None

    def test_no_false_positives_without_cycle(self, citus, s, keys):
        k1, k2 = keys
        a = citus.coordinator_session("a")
        b = citus.coordinator_session("b")
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        fb = b.execute_async(f"UPDATE t SET v = 2 WHERE k = {k1}")
        cancelled = citus.run_maintenance()["deadlocks_cancelled"]
        assert cancelled == []
        a.execute("COMMIT")
        citus.pump()
        assert fb.done and fb.error is None

    def test_same_distributed_txn_edges_ignored(self, citus, s, keys):
        # A transaction waiting on itself across nodes is not a deadlock;
        # ensure the detector merges nodes by distributed txn id.
        from repro.citus.txn.deadlock import detect_distributed_deadlocks

        ext = citus.coordinator_ext
        node = citus.cluster.node("worker1")
        node.dist_txn_ids[500] = ("coordinator", 42)
        node.dist_txn_ids[501] = ("coordinator", 42)
        node.locks.add_wait(500, {501})
        try:
            assert detect_distributed_deadlocks(ext) == []
        finally:
            node.locks.clear_wait(500)
            node.dist_txn_ids.clear()


class TestSnapshotLimitations:
    def test_no_distributed_snapshot_isolation(self, citus, s, keys):
        """§3.7.4: a concurrent multi-node read may see a 2PC half-applied.
        This documents the relaxed guarantee rather than hiding it."""
        k1, k2 = keys
        ext = citus.coordinator_ext
        s.execute("INSERT INTO t VALUES (999999, 0) ON CONFLICT DO NOTHING")
        # The anomaly window exists between phase-two COMMIT PREPAREDs;
        # with the failpoint we freeze inside it and read.
        ext.failpoints["skip_commit_prepared"] = True
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 50 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 50 WHERE k = $1", [k2])
        s.execute("COMMIT")
        ext.failpoints.clear()
        reader = citus.coordinator_session("reader")
        total_mid = reader.execute("SELECT sum(v) FROM t").scalar()
        citus.run_maintenance()
        total_after = reader.execute("SELECT sum(v) FROM t").scalar()
        assert total_mid == 0  # prepared-but-uncommitted: invisible
        assert total_after == 100
