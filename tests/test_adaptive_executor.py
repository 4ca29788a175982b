"""Adaptive executor tests: slow start, shared connection limits,
connection caching, and transaction affinity (§3.6.1).

The executor runs a statement's work three ways — blocking tasks
(multi-shard DML), streaming cursors (multi-shard SELECT) and COPY
channels — and §3.6.1's connection policy must not depend on which, so the
policy tests take the driver as a parameter. Each driver puts four pieces
of work on each of the two workers. Those tests set the slow-start
interval on the executor to one of two extremes, so what is asserted
follows from the policy alone, not from what a task costs: never = the
pool target stays at one connection; at once = the target is all the work
left (from the first moment a connection has been busy), still capped by
the shared limit.
"""

import pytest

from repro.citus.executor.placement import SessionPools
from repro.errors import SQLError
from tests.conftest import counters_dict, find_keys_on_distinct_nodes

NEVER, AT_ONCE = 1e9, 1e-9

DRIVERS = {
    "dml": lambda s: s.execute("UPDATE t SET v = v + 1"),
    "select": lambda s: s.execute("SELECT * FROM t"),
    "copy": lambda s: s.copy_rows("t", [[k, k] for k in range(101, 165)]),
}
# The same statements, failing on one shard after others have run.
FAILING = {
    "dml": lambda s: s.execute("UPDATE t SET v = 1 / (k - 5)"),
    "select": lambda s: s.execute("SELECT 1 / (k - 5) FROM t"),
    "copy": lambda s: s.copy_rows(  # 5 is taken
        "t", [[k, k] for k in range(101, 133)] + [[5, 0]]
        + [[k, k] for k in range(133, 197)]),
}
each_driver = pytest.mark.parametrize("driver", sorted(DRIVERS))


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    for k in range(1, 17):
        s.execute("INSERT INTO t VALUES ($1, $2)", [k, k])
    return s


def telemetry(citus, s, driver, interval, run=DRIVERS):
    """Run one driver's statement; what its connection picking did."""
    executor = citus.coordinator_ext.executor
    executor.slow_start_interval = interval
    run[driver](s)
    report = executor.last_report
    assert report.task_count == 8
    return (report.connections_opened, report.per_node_connections,
            report.connections_reused)


def gauges(s, name):
    """{node: value} of one citus_stat_counters() gauge."""
    return {node: v for (n, node), v in counters_dict(s).items() if n == name}


class TestSlowStart:
    def test_single_task_uses_one_connection(self, citus, s):
        executor = citus.coordinator_ext.executor
        s.execute("SELECT * FROM t WHERE k = 1")
        report = executor.last_report
        assert report.task_count == 1
        assert report.connections_used == 1

    def test_fast_tasks_do_not_fan_out(self, citus, s):
        # Sub-millisecond tasks finish before the 10ms slow-start step, so
        # few extra connections open even with 4 tasks per worker.
        executor = citus.coordinator_ext.executor
        s.execute("SELECT count(*) FROM t")
        report = executor.last_report
        assert report.task_count == 8
        assert report.connections_used <= 4  # ~1-2 per worker

    @each_driver
    def test_cold_session_opens_one_connection_per_worker(self, citus, s, driver):
        fresh = citus.coordinator_session()
        assert telemetry(citus, fresh, driver, NEVER) == (
            2, {"worker1": 1, "worker2": 1}, 0)

    @each_driver
    def test_ramp_is_bounded_by_the_work_left(self, citus, s, driver):
        # The first piece runs on the cached connection; once that is busy
        # the pool grows to the three pieces left, and no further.
        assert telemetry(citus, s, driver, AT_ONCE) == (
            4, {"worker1": 3, "worker2": 3}, 2)
        assert gauges(s, "shared_pool_slots") == {"worker1": 3, "worker2": 3}

    def test_elapsed_is_max_not_sum(self, citus, s):
        config = citus.coordinator_ext.config
        old = config.per_row_cpu_cost
        config.per_row_cpu_cost = 0.01
        try:
            s.execute("SELECT * FROM t")  # 16 rows over 8 tasks
            report = citus.coordinator_ext.executor.last_report
            # Sum of costs would be >= 0.16s; parallel max must be lower.
            assert report.elapsed < 0.16
        finally:
            config.per_row_cpu_cost = old


class TestSharedConnectionLimit:
    @each_driver
    def test_limit_caps_fanout(self, citus, s, driver):
        ext = citus.coordinator_ext
        ext.config.max_shared_pool_size = 2
        assert telemetry(citus, s, driver, AT_ONCE) == (
            2, {"worker1": 2, "worker2": 2}, 2)
        assert ext.stats["shared_pool_throttled"] > 0
        assert gauges(s, "shared_pool_slots") == {"worker1": 2, "worker2": 2}

    def test_slots_released_on_pool_close(self, citus, s):
        ext = citus.coordinator_ext
        s.execute("SELECT count(*) FROM t")
        used_before = dict(ext._shared_slots)
        pools = SessionPools.for_session(s, ext)
        pools.close_all()
        assert sum(ext._shared_slots.values()) < sum(used_before.values())

    @each_driver
    def test_failure_mid_statement_leaks_nothing(self, citus, s, driver):
        ext = citus.coordinator_ext
        ext.config.copy_flush_threshold = 4  # flush before the bad row
        with pytest.raises(SQLError):
            telemetry(citus, s, driver, AT_ONCE, run=FAILING)
        assert s.execute("SELECT count(*), sum(v) FROM t").rows == [[16, 136]]
        assert gauges(s, "executor_statements_in_flight") == {None: 0}
        assert set(gauges(s, "tasks_in_flight").values()) == {0}
        # The plane stays usable, and every slot taken is given back.
        telemetry(citus, s, driver, AT_ONCE)
        SessionPools.for_session(s, ext).close_all()
        assert set(gauges(s, "shared_pool_slots").values()) == {0}
        assert sum(ext._shared_slots.values()) == 0


class TestConnectionCaching:
    @each_driver
    def test_without_ramp_the_cached_connection_does_everything(self, citus, s, driver):
        # The fixture's single-key INSERTs left one connection per worker.
        assert telemetry(citus, s, driver, NEVER) == (
            0, {"worker1": 1, "worker2": 1}, 2)

    def test_connections_reused_across_statements(self, citus, s):
        s.execute("SELECT count(*) FROM t")
        opened_first = s.stats["citus_connections"]
        s.execute("SELECT count(*) FROM t")
        # Second statement reuses cached connections: no growth (or tiny).
        assert s.stats["citus_connections"] == opened_first

    def test_worker_connection_count_bounded(self, citus, s):
        for _ in range(20):
            s.execute("SELECT count(*) FROM t")
        for name in citus.worker_names():
            # One cached connection per session per worker (plus utility).
            assert citus.cluster.node(name).connection_count <= 4


class TestTransactionAffinity:
    def test_same_group_same_connection_in_txn(self, citus, s):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        conn_before = pools.all_connections()
        groups_before = {id(c): set(c.accessed_groups) for c in conn_before}
        s.execute("UPDATE t SET v = 2 WHERE k = $1", [k1])  # same shard
        # No new txn connection was created for the same shard group.
        assert len(pools.txn_connections()) == 1
        s.execute("COMMIT")

    @each_driver
    def test_pinned_groups_stay_on_their_connection(self, citus, s, driver):
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 0 WHERE k = $1", [k1])
        (writer,) = pools.txn_connections()
        (pinned,) = writer.accessed_groups
        telemetry(citus, s, driver, AT_ONCE)  # fans out inside the txn
        holders = [c for c in pools.all_connections() if pinned in c.accessed_groups]
        assert holders == [writer]
        # Every group is pinned to exactly one connection.
        groups = [g for c in pools.all_connections() for g in c.accessed_groups]
        assert len(groups) == len(set(groups)) == 8
        s.execute("ROLLBACK")

    def test_multi_shard_read_sees_txn_writes(self, citus, s):
        # The read of a modified shard must use the writing connection.
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 777 WHERE k = $1", [k1])
        total = s.execute("SELECT count(*) FROM t WHERE v = 777").scalar()
        assert total == 1
        s.execute("ROLLBACK")

    def test_affinity_cleared_after_commit(self, citus, s):
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("COMMIT")
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())
        assert all(not c.in_txn_block for c in pools.all_connections())


class TestClockAccounting:
    def test_clock_advances_with_queries(self, citus, s):
        before = citus.cluster.clock.now()
        s.execute("SELECT count(*) FROM t")
        assert citus.cluster.clock.now() > before

    def test_network_counters_grow(self, citus, s):
        before = citus.cluster.network.messages_sent
        s.execute("SELECT count(*) FROM t")
        assert citus.cluster.network.messages_sent >= before + 8
