"""Stored procedure delegation (§3.8), columnar storage, HA failover,
and the PgBouncer pool."""

import pytest

from repro.citus import register_distributed_procedure
from repro.citus.columnar import ColumnarStore, get_store
from repro.net.cluster import StandbyConfig
from repro.net.pool import ConnectionPool
from repro.errors import TooManyConnections


# ------------------------------------------------------------- procedures


def make_transfer_proc():
    def transfer(session, account, amount):
        session.execute("BEGIN")
        session.execute(
            "UPDATE accounts SET balance = balance + $1 WHERE aid = $2",
            [amount, account],
        )
        session.execute(
            "INSERT INTO ledger (aid, delta) VALUES ($1, $2)", [account, amount]
        )
        session.execute("COMMIT")

    return transfer


@pytest.fixture
def proc_cluster(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE accounts (aid int PRIMARY KEY, balance int)")
    s.execute("SELECT create_distributed_table('accounts', 'aid')")
    s.execute("CREATE TABLE ledger (aid int, delta int, lid serial,"
              " PRIMARY KEY (aid, lid))")
    s.execute("SELECT create_distributed_table('ledger', 'aid',"
              " colocate_with := 'accounts')")
    s.copy_rows("accounts", [[i, 100] for i in range(1, 21)])
    register_distributed_procedure(
        citus.coordinator_ext, "transfer", make_transfer_proc(),
        distribution_arg=0, colocated_table="accounts",
    )
    return citus, s


class TestProcedureDelegation:
    def test_call_without_metadata_runs_on_coordinator(self, proc_cluster):
        citus, s = proc_cluster
        s.execute("CALL transfer(5, 10)")
        assert s.execute("SELECT balance FROM accounts WHERE aid = 5").scalar() == 110
        assert citus.coordinator_ext.stat_counters.value("procedure_delegated") == 0

    def test_call_delegated_with_metadata_sync(self, proc_cluster):
        citus, s = proc_cluster
        citus.enable_metadata_sync()
        counters = citus.coordinator_ext.stat_counters
        before = counters.value("procedure_delegated")
        for aid in range(1, 11):
            s.execute("CALL transfer($1, 1)", [aid])
        delegated = counters.value("procedure_delegated")
        assert delegated > before  # most keys live on workers
        total = s.execute("SELECT sum(balance) FROM accounts").scalar()
        assert total == 20 * 100 + 10

    def test_delegated_procedure_is_transactional(self, proc_cluster):
        citus, s = proc_cluster
        citus.enable_metadata_sync()
        s.execute("CALL transfer(3, 7)")
        ledger = s.execute("SELECT count(*) FROM ledger WHERE aid = 3").scalar()
        assert ledger == 1
        assert s.execute("SELECT balance FROM accounts WHERE aid = 3").scalar() == 107


# --------------------------------------------------------------- columnar


class TestColumnarStore:
    def test_stripes_and_compression(self):
        store = ColumnarStore("t", ["a", "b"], ["int", "text"])
        store.append_rows([[i, "hello world " * 3] for i in range(25_000)])
        store.finalize()
        assert store.stripe_count == 3  # 10k rows per stripe
        # Compressed int column is much smaller than raw 8B/row.
        assert store.column_bytes("a") < 25_000 * 8

    def test_projection_reads_fewer_bytes(self):
        store = ColumnarStore("t", ["a", "b"], ["int", "text"])
        store.append_rows([[i, "x" * 100] for i in range(5000)])
        narrow = store.scan_bytes(["a"])
        wide = store.scan_bytes(["a", "b"])
        assert narrow < wide / 5

    def test_zone_map_pruning(self):
        store = ColumnarStore("t", ["ts", "v"], ["int", "int"])
        # Two stripes with disjoint ts ranges.
        store.append_rows([[i, 0] for i in range(10_000)])
        store.append_rows([[i, 0] for i in range(50_000, 60_000)])
        store.finalize()
        full = store.scan_bytes(["v"])
        pruned = store.scan_bytes(["v"], predicate_column="ts", low=55_000, high=56_000)
        assert pruned <= full / 2

    def test_alter_access_method(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE logs (id int PRIMARY KEY, line text)")
        s.execute("SELECT create_distributed_table('logs', 'id')")
        s.copy_rows("logs", [[i, f"line {i}"] for i in range(100)])
        s.execute("SELECT alter_table_set_access_method('logs', 'columnar')")
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("logs")
        for shard in dist.shards:
            node = ext.metadata.cache.placement_node(shard.shardid)
            table = citus.cluster.node(node).catalog.get_table(shard.shard_name)
            assert table.access_method == "columnar"
            assert get_store(table) is not None
        # Queries still answer correctly.
        assert s.execute("SELECT count(*) FROM logs").scalar() == 100

    def test_columnar_scan_cost_model(self, citus, citus_session):
        from repro.citus.columnar import columnar_scan_cost_pages

        s = citus_session
        s.execute("CREATE TABLE wide (id int PRIMARY KEY, a text, b text)")
        s.execute("SELECT create_distributed_table('wide', 'id')")
        s.copy_rows("wide", [[i, "a" * 200, "b" * 200] for i in range(500)])
        s.execute("SELECT alter_table_set_access_method('wide', 'columnar')")
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("wide")
        shard = dist.shards[0]
        node = ext.metadata.cache.placement_node(shard.shardid)
        table = citus.cluster.node(node).catalog.get_table(shard.shard_name)
        narrow = columnar_scan_cost_pages(table, ["id"])
        full = columnar_scan_cost_pages(table, None)
        assert narrow <= full


# --------------------------------------------------------------------- HA


class TestFailover:
    @pytest.fixture
    def ha(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        s.copy_rows("t", [[i, i] for i in range(40)])
        return citus, s

    def test_synchronous_standby_loses_nothing(self, ha):
        citus, s = ha
        citus.cluster.enable_standby("worker1", StandbyConfig(mode="synchronous"))
        citus.cluster.fail_node("worker1")
        citus.cluster.promote_standby("worker1")
        citus.coordinator_ext._utility_connections.clear()
        assert s.execute("SELECT count(*) FROM t").scalar() == 40

    def test_async_standby_may_lose_tail(self, ha):
        citus, s = ha
        citus.cluster.enable_standby(
            "worker1", StandbyConfig(mode="asynchronous", async_lag_records=10)
        )
        s.copy_rows("t", [[100 + i, i] for i in range(20)])
        citus.cluster.fail_node("worker1")
        citus.cluster.promote_standby("worker1")
        citus.coordinator_ext._utility_connections.clear()
        count = s.execute("SELECT count(*) FROM t").scalar()
        assert count <= 60  # some tail may be gone, never extra rows

    def test_failed_node_rejects_connections(self, ha):
        citus, s = ha
        from repro.errors import NodeUnavailable

        citus.cluster.fail_node("worker1")
        with pytest.raises(NodeUnavailable):
            citus.cluster.connect("worker1")

    def test_failover_takes_seconds_on_the_clock(self, ha):
        citus, s = ha
        citus.cluster.enable_standby("worker2")
        before = citus.cluster.clock.now()
        citus.cluster.fail_node("worker2")
        citus.cluster.promote_standby("worker2")
        assert 20 <= citus.cluster.clock.now() - before <= 30

    def test_unconfigured_standby_rejected(self, ha):
        citus, s = ha
        from repro.errors import NodeUnavailable

        with pytest.raises(NodeUnavailable):
            citus.cluster.promote_standby("worker1")


# -------------------------------------------------------------- pgbouncer


class TestConnectionPool:
    def test_pool_multiplexes_clients(self, pg):
        pg.connect().execute("CREATE TABLE t (a int)")
        pool = ConnectionPool(pg, pool_size=2, max_client_conn=50)
        clients = [pool.client() for _ in range(10)]
        for i, client in enumerate(clients):
            client.execute("INSERT INTO t VALUES ($1)", [i])
        # Server-side sessions stay bounded by pool_size (+1 setup session).
        assert pg.connection_count <= 3

    def test_txn_holds_lease_until_commit(self, pg):
        pg.connect().execute("CREATE TABLE t (a int)")
        pool = ConnectionPool(pg, pool_size=2)
        client = pool.client()
        client.execute("BEGIN")
        client.execute("INSERT INTO t VALUES (1)")
        assert client._leased is not None
        client.execute("COMMIT")
        assert client._leased is None

    def test_max_clients_enforced(self, pg):
        pool = ConnectionPool(pg, pool_size=1, max_client_conn=2)
        pool.client()
        pool.client()
        with pytest.raises(TooManyConnections):
            pool.client()

    def test_pool_exhaustion_raises(self, pg):
        pg.connect().execute("CREATE TABLE t (a int)")
        pool = ConnectionPool(pg, pool_size=1)
        c1, c2 = pool.client(), pool.client()
        c1.execute("BEGIN")
        c1.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(TooManyConnections):
            c2.execute("SELECT 1")
        c1.execute("COMMIT")
        c2.execute("SELECT 1")
