"""Tenant isolation (§2.1) and range-partitioned tables (§3.3.1)."""

import pytest

from repro.citus.rebalancer import move_shard
from repro.engine.datum import hash_value
from repro.errors import ForeignKeyViolation, MetadataError, ReproError


@pytest.fixture
def tenants(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE tenants (tid int PRIMARY KEY, name text)")
    s.execute("SELECT create_distributed_table('tenants', 'tid')")
    s.execute("CREATE TABLE docs (tid int, did int, PRIMARY KEY (tid, did))")
    s.execute("SELECT create_distributed_table('docs', 'tid', colocate_with := 'tenants')")
    s.copy_rows("tenants", [[i, f"t{i}"] for i in range(30)])
    s.copy_rows("docs", [[i, d] for i in range(30) for d in range(2)])
    return s


class TestTenantIsolation:
    def test_split_creates_single_value_shard(self, citus, tenants):
        s = tenants
        shardid = s.execute(
            "SELECT isolate_tenant_to_new_shard('tenants', 7)"
        ).scalar()
        dist = citus.coordinator_ext.metadata.cache.get_table("tenants")
        shard = next(x for x in dist.shards if x.shardid == shardid)
        assert shard.min_value == shard.max_value == hash_value(7)

    def test_all_data_preserved(self, citus, tenants):
        s = tenants
        before = s.execute("SELECT count(*) FROM docs").scalar()
        s.execute("SELECT isolate_tenant_to_new_shard('tenants', 7)")
        assert s.execute("SELECT count(*) FROM docs").scalar() == before
        assert s.execute("SELECT count(*) FROM tenants").scalar() == 30
        assert s.execute("SELECT name FROM tenants WHERE tid = 7").scalar() == "t7"

    def test_colocated_tables_split_together(self, citus, tenants):
        s = tenants
        s.execute("SELECT isolate_tenant_to_new_shard('tenants', 7)")
        cache = citus.coordinator_ext.metadata.cache
        t, d = cache.get_table("tenants"), cache.get_table("docs")
        assert t.shard_count == d.shard_count
        for st, sd in zip(t.shards, d.shards):
            assert (st.min_value, st.max_value) == (sd.min_value, sd.max_value)

    def test_colocated_join_still_works(self, citus, tenants):
        s = tenants
        s.execute("SELECT isolate_tenant_to_new_shard('tenants', 7)")
        rows = s.execute(
            "SELECT t.tid, count(*) FROM tenants t JOIN docs d ON t.tid = d.tid"
            " GROUP BY t.tid ORDER BY t.tid"
        ).rows
        assert len(rows) == 30 and all(r[1] == 2 for r in rows)

    def test_isolated_shard_can_move_to_own_node(self, citus, tenants):
        s = tenants
        shardid = s.execute(
            "SELECT isolate_tenant_to_new_shard('tenants', 7)"
        ).scalar()
        ext = citus.coordinator_ext
        source = ext.metadata.cache.placement_node(shardid)
        target = "worker2" if source == "worker1" else "worker1"
        move_shard(ext, s, shardid, target)
        assert ext.metadata.cache.placement_node(shardid) == target
        assert s.execute("SELECT name FROM tenants WHERE tid = 7").scalar() == "t7"

    def test_isolating_twice_is_idempotent(self, citus, tenants):
        s = tenants
        first = s.execute("SELECT isolate_tenant_to_new_shard('tenants', 7)").scalar()
        second = s.execute("SELECT isolate_tenant_to_new_shard('tenants', 7)").scalar()
        assert first == second

    def test_writes_route_to_isolated_shard(self, citus, tenants):
        s = tenants
        shardid = s.execute(
            "SELECT isolate_tenant_to_new_shard('tenants', 7)"
        ).scalar()
        s.execute("UPDATE tenants SET name = 'isolated' WHERE tid = 7")
        ext = citus.coordinator_ext
        node = ext.metadata.cache.placement_node(shardid)
        dist = ext.metadata.cache.get_table("tenants")
        shard = next(x for x in dist.shards if x.shardid == shardid)
        check = citus.cluster.node(node).connect()
        assert check.execute(
            f"SELECT name FROM {shard.shard_name} WHERE tid = 7"
        ).scalar() == "isolated"

    def test_reference_table_rejected(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE rt (id int PRIMARY KEY)")
        s.execute("SELECT create_reference_table('rt')")
        with pytest.raises(MetadataError):
            s.execute("SELECT isolate_tenant_to_new_shard('rt', 1)")


class TestRangeDistribution:
    @pytest.fixture
    def ranged(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE events (ts int PRIMARY KEY, v int)")
        s.execute(
            "SELECT create_range_distributed_table('events', 'ts',"
            " ARRAY[ARRAY[0, 99], ARRAY[100, 199], ARRAY[200, 299]])"
        )
        s.copy_rows("events", [[i, i] for i in range(0, 300, 10)])
        return s

    def test_metadata_method(self, citus, ranged):
        dist = citus.coordinator_ext.metadata.cache.get_table("events")
        assert dist.method == "r"
        assert [(x.min_value, x.max_value) for x in dist.shards] == [
            (0, 99), (100, 199), (200, 299)
        ]

    def test_point_queries_route_by_value(self, citus, ranged):
        s = ranged
        assert s.execute("SELECT v FROM events WHERE ts = 150").scalar() == 150
        text = "\n".join(
            r[0] for r in s.execute("EXPLAIN SELECT * FROM events WHERE ts = 150").rows
        )
        assert "Task Count: 1" in text
        assert "Shards: 1 of 3 (2 pruned)" in text

    def test_range_predicate_prunes_shards(self, citus, ranged):
        s = ranged
        text = "\n".join(
            r[0] for r in s.execute(
                "EXPLAIN SELECT count(*) FROM events WHERE ts >= 100 AND ts < 200"
            ).rows
        )
        assert "Task Count: 1" in text
        assert "Shards: 1 of 3 (2 pruned)" in text
        assert s.execute(
            "SELECT count(*) FROM events WHERE ts >= 100 AND ts < 200"
        ).scalar() == 10

    def test_between_prunes(self, citus, ranged):
        s = ranged
        text = "\n".join(
            r[0] for r in s.execute(
                "EXPLAIN SELECT count(*) FROM events WHERE ts BETWEEN 50 AND 149"
            ).rows
        )
        assert "Task Count: 2" in text
        assert "Shards: 2 of 3 (1 pruned)" in text
        assert s.execute(
            "SELECT count(*) FROM events WHERE ts BETWEEN 50 AND 149"
        ).scalar() == 10

    def test_value_outside_ranges_rejected(self, ranged):
        with pytest.raises(MetadataError):
            ranged.execute("INSERT INTO events VALUES (999, 0)")

    def test_overlapping_ranges_rejected(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE bad (k int PRIMARY KEY)")
        with pytest.raises(MetadataError):
            s.execute(
                "SELECT create_range_distributed_table('bad', 'k',"
                " ARRAY[ARRAY[0, 100], ARRAY[50, 200]])"
            )

    def test_non_integer_column_rejected(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE bad (k text PRIMARY KEY)")
        with pytest.raises(MetadataError):
            s.execute(
                "SELECT create_range_distributed_table('bad', 'k',"
                " ARRAY[ARRAY[0, 100]])"
            )

    def test_aggregate_across_range_shards(self, ranged):
        assert ranged.execute("SELECT sum(v) FROM events").scalar() == sum(
            range(0, 300, 10)
        )


class TestCitusShardsView:
    def test_monitoring_udf_lists_every_placement(self, citus, tenants):
        rows = tenants.execute("SELECT citus_shards()").scalar()
        ext = citus.coordinator_ext
        expected = sum(
            len(ext.metadata.cache.placements[s.shardid])
            for t in ext.metadata.cache.tables.values()
            for s in t.shards
        )
        assert len(rows) == expected
        assert all(len(entry) == 5 for entry in rows)


class TestForeignKeyGroup:
    """A co-location group whose members reference each other splits as
    one: every split shard's foreign key references the split beside it."""

    @pytest.fixture
    def shop(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE customers (cid int PRIMARY KEY, name text)")
        s.execute("SELECT create_distributed_table('customers', 'cid')")
        s.execute("CREATE TABLE orders (oid int, cid int, PRIMARY KEY (cid, oid),"
                  " FOREIGN KEY (cid) REFERENCES customers (cid))")
        s.execute("SELECT create_distributed_table('orders', 'cid',"
                  " colocate_with := 'customers')")
        s.copy_rows("customers", [[c, f"c{c}"] for c in range(20)])
        s.copy_rows("orders", [[c * 10 + j, c] for c in range(20) for j in range(2)])
        return s

    def test_isolating_a_referencing_table_splits_the_group_together(
            self, citus, shop):
        s = shop
        shardid = s.execute("SELECT isolate_tenant_to_new_shard('orders', 7)").scalar()
        cache = citus.coordinator_ext.metadata.cache
        customers, orders = cache.get_table("customers"), cache.get_table("orders")
        assert customers.shard_count == orders.shard_count == 10
        assert s.execute("SELECT count(*) FROM customers c JOIN orders o"
                         " ON c.cid = o.cid").scalar() == 40
        # The tenant's orders shard references the tenant's customers shard.
        s.execute("INSERT INTO orders VALUES (700, 7)")
        with pytest.raises(ForeignKeyViolation):
            s.execute("DELETE FROM customers WHERE cid = 7")
        node = citus.cluster.node(cache.placement_node(shardid))
        tenant = next(x for x in orders.shards if x.shardid == shardid)
        index = orders.shards.index(tenant)
        assert [fk.ref_table for fk in node.catalog.get_table(
            tenant.shard_name).foreign_keys] == [customers.shards[index].shard_name]

    def test_a_failed_split_drops_its_shards_and_keeps_the_metadata(
            self, citus, shop, monkeypatch):
        from repro.net.network import RemoteConnection

        cache = citus.coordinator_ext.metadata.cache
        before = {name: [x.shardid for x in t.shards]
                  for name, t in cache.tables.items()}
        tables = {n: set(node.catalog.tables) for n, node in citus.cluster.nodes.items()}
        copy_rows = RemoteConnection.copy_rows

        def failing_copy(conn, table, rows, *rest, **kwargs):
            if table.startswith("orders"):
                raise ReproError("copy failed")
            return copy_rows(conn, table, rows, *rest, **kwargs)

        monkeypatch.setattr(RemoteConnection, "copy_rows", failing_copy)
        with pytest.raises(ReproError, match="copy failed"):
            shop.execute("SELECT isolate_tenant_to_new_shard('orders', 7)")
        cache = citus.coordinator_ext.metadata.cache
        assert {name: [x.shardid for x in t.shards]
                for name, t in cache.tables.items()} == before
        assert {n: set(node.catalog.tables)
                for n, node in citus.cluster.nodes.items()} == tables
        assert shop.execute("SELECT count(*) FROM orders").scalar() == 40
