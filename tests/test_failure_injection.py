"""Failure injection: node failures at every interesting point in the
distributed protocols (§3.7.2's robustness claims, §3.9's failover)."""

import pytest

from repro.errors import NodeUnavailable, ReproError
from tests.conftest import find_keys_on_distinct_nodes
from repro.net.cluster import StandbyConfig


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
    s.stats.clear()
    return k1, k2


def node_of(citus, table, key):
    from repro.engine.datum import hash_value

    ext = citus.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    index = dist.shard_index_for_hash(hash_value(key))
    return ext.metadata.cache.placement_node(dist.shards[index].shardid)


class TestQueryTimeFailures:
    def test_read_from_failed_node_errors(self, citus, s, keys):
        k1, _ = keys
        citus.cluster.fail_node(node_of(citus, "t", k1))
        with pytest.raises(ReproError):
            fresh = citus.coordinator_session("fresh")
            fresh.execute("SELECT * FROM t WHERE k = $1", [k1])

    def test_other_shards_still_readable_after_failure(self, citus, s, keys):
        k1, k2 = keys
        citus.cluster.fail_node(node_of(citus, "t", k1))
        fresh = citus.coordinator_session("fresh")
        assert fresh.execute("SELECT v FROM t WHERE k = $1", [k2]).scalar() == 0

    def test_recovered_standby_serves_reads(self, citus, s, keys):
        k1, _ = keys
        node = node_of(citus, "t", k1)
        citus.cluster.enable_standby(node, StandbyConfig(mode="synchronous"))
        citus.cluster.fail_node(node)
        citus.cluster.promote_standby(node)
        citus.coordinator_ext._utility_connections.clear()
        fresh = citus.coordinator_session("fresh")
        assert fresh.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 0


    def test_no_statement_runs_on_a_crashed_node(self, citus):
        """Every way into a backend refuses once its node is down — the
        parking variants too (they used to skip the check; the executor was
        safe only because ``SessionPools._usable`` filtered first)."""
        from repro.sql import parse

        stmt = parse("SELECT 1")[0]
        worker = citus.cluster.nodes["worker1"]
        backend = worker.connect()
        cached = citus.cluster.connect("worker1")  # before the crash
        assert backend.execute_async("SELECT 1").get().rows == [[1]]
        worker.crash()
        for run in (
            lambda: backend.execute("SELECT 1"),
            lambda: backend.execute_parsed(stmt),
            lambda: backend.execute_async("SELECT 1"),
            lambda: backend.execute_parsed_async(stmt),
            lambda: backend.execute_parsed(stmt, park_on_block=True),
            lambda: cached.execute_parsed(stmt, allow_block=True),
            lambda: cached.execute("SELECT 1"),
        ):
            with pytest.raises(NodeUnavailable):
                run()


class TestTwoPhaseCommitFailures:
    def test_prepare_failure_aborts_everywhere(self, citus, s, keys):
        """A worker dying before PREPARE: the whole transaction aborts and
        no partial state survives."""
        k1, k2 = keys
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 9 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 9 WHERE k = $1", [k2])
        # Kill one participant before COMMIT: its connection dies, so the
        # pre-commit PREPARE on it fails.
        citus.cluster.fail_node(node_of(citus, "t", k2))
        reg = citus.coordinator_ext.stat_counters
        with reg.measure() as m:
            with pytest.raises(ReproError):
                s.execute("COMMIT")
        assert m.value("twopc_prepare_failures") == 1
        assert m.value("twopc_commit_prepared") == 0
        # Revive and check the surviving node rolled back.
        citus.cluster.node(node_of(citus, "t", k2)).restart()
        citus.coordinator_ext._utility_connections.clear()
        fresh = citus.coordinator_session("fresh")
        assert fresh.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 0
        assert fresh.execute("SELECT sum(v) FROM t").scalar() == 0

    def test_crash_between_phases_recovers_to_commit(self, citus, s, keys):
        """Worker restarts after PREPARE but before COMMIT PREPARED: the
        prepared transaction survives the restart (WAL) and the recovery
        daemon completes it from the commit record."""
        k1, k2 = keys
        ext = citus.coordinator_ext
        ext.failpoints["skip_commit_prepared"] = True
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 5 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 5 WHERE k = $1", [k2])
        s.execute("COMMIT")
        ext.failpoints.clear()
        victim = node_of(citus, "t", k2)
        citus.cluster.node(victim).crash()
        citus.cluster.node(victim).restart()
        ext._utility_connections.clear()
        assert citus.cluster.node(victim).prepared_txns  # survived restart
        reg = ext.stat_counters
        with reg.measure() as m:
            result = citus.run_maintenance()
        assert result["recovery"]["committed"] >= 1
        # The cluster-wide counters agree with the maintenance report.
        assert m.value("recovery_rounds") >= 1
        assert m.value("recovery_committed") == result["recovery"]["committed"]
        assert m.value("recovery_committed", node=victim) >= 1
        assert m.value("recovery_aborted") == 0
        fresh = citus.coordinator_session("fresh")
        assert fresh.execute("SELECT sum(v) FROM t").scalar() == 10

    def test_recovery_skips_down_nodes_and_finishes_later(self, citus, s, keys):
        k1, k2 = keys
        ext = citus.coordinator_ext
        ext.failpoints["skip_commit_prepared"] = True
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 3 WHERE k = $1", [k1])
        s.execute("UPDATE t SET v = 3 WHERE k = $1", [k2])
        s.execute("COMMIT")
        ext.failpoints.clear()
        down = node_of(citus, "t", k2)
        up = node_of(citus, "t", k1)
        citus.cluster.fail_node(down)
        reg = ext.stat_counters
        # First pass: only the live node's prepared txn resolves.
        with reg.measure() as m1:
            first = citus.run_maintenance()["recovery"]
        assert first["committed"] == 1
        assert m1.value("recovery_committed", node=up) == 1
        assert m1.value("recovery_committed", node=down) == 0
        citus.cluster.node(down).restart()
        ext._utility_connections.clear()
        with reg.measure() as m2:
            second = citus.run_maintenance()["recovery"]
        assert second["committed"] == 1
        assert m2.value("recovery_committed", node=down) == 1
        fresh = citus.coordinator_session("fresh")
        assert fresh.execute("SELECT sum(v) FROM t").scalar() == 6


class TestConnectionFailures:
    def test_closed_remote_connection_recreated(self, citus, s, keys):
        from repro.citus.executor.placement import SessionPools

        k1, _ = keys
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        for conn in pools.all_connections():
            conn.close()
        # Next statement transparently opens fresh connections.
        assert s.execute("SELECT v FROM t WHERE k = $1", [k1]).scalar() == 0

    def test_utility_connection_recreated_after_failover(self, citus, s, keys):
        ext = citus.coordinator_ext
        node = citus.worker_names()[0]
        citus.cluster.enable_standby(node)
        citus.cluster.fail_node(node)
        citus.cluster.promote_standby(node)
        # worker_connection must detect the stale instance and reconnect.
        conn = ext.worker_connection(node)
        assert conn.session.instance is citus.cluster.node(node)
