"""Shard rebalancer tests (§3.4): plans, moves, policies, data safety."""

from collections import Counter

import pytest

from repro.citus.rebalancer import (
    BY_DISK_SIZE,
    BY_SHARD_COUNT,
    RebalanceStrategy,
    Rebalancer,
    move_shard,
    progress_for,
)
from repro.errors import ForeignKeyViolation, ReproError


@pytest.fixture
def loaded(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE d (k int PRIMARY KEY, v text)")
    s.execute("SELECT create_distributed_table('d', 'k')")
    s.execute("CREATE TABLE e (k int PRIMARY KEY, n int)")
    s.execute("SELECT create_distributed_table('e', 'k', colocate_with := 'd')")
    s.copy_rows("d", [[i, f"value-{i}"] for i in range(60)])
    s.copy_rows("e", [[i, i] for i in range(60)])
    return s


def placement_counts(citus):
    placements = citus.coordinator_ext.metadata.cache.placements
    return Counter(node for nodes in placements.values() for node in nodes)


class TestMoveShard:
    def test_move_preserves_data_and_routing(self, citus, loaded):
        s = loaded
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("d")
        shard = dist.shards[0]
        source = ext.metadata.cache.placement_node(shard.shardid)
        target = "worker2" if source == "worker1" else "worker1"
        before = s.execute("SELECT count(*) FROM d").scalar()
        admin = citus.coordinator_session("admin")
        move_shard(ext, admin, shard.shardid, target)
        assert ext.metadata.cache.placement_node(shard.shardid) == target
        assert s.execute("SELECT count(*) FROM d").scalar() == before

    def test_colocated_shards_move_together(self, citus, loaded):
        ext = citus.coordinator_ext
        cache = ext.metadata.cache
        d, e = cache.get_table("d"), cache.get_table("e")
        shard_d, shard_e = d.shards[2], e.shards[2]
        source = cache.placement_node(shard_d.shardid)
        target = "worker2" if source == "worker1" else "worker1"
        admin = citus.coordinator_session("admin")
        move_shard(ext, admin, shard_d.shardid, target)
        cache = ext.metadata.cache  # reload replaced the cache object
        assert cache.placement_node(shard_d.shardid) == target
        assert cache.placement_node(shard_e.shardid) == target

    def test_source_shard_dropped_after_move(self, citus, loaded):
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("d")
        shard = dist.shards[1]
        source = ext.metadata.cache.placement_node(shard.shardid)
        target = "worker2" if source == "worker1" else "worker1"
        admin = citus.coordinator_session("admin")
        move_shard(ext, admin, shard.shardid, target)
        assert not citus.cluster.node(source).catalog.has_table(shard.shard_name)
        assert citus.cluster.node(target).catalog.has_table(shard.shard_name)

    def test_move_to_same_node_noop(self, citus, loaded):
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("d")
        shard = dist.shards[0]
        node = ext.metadata.cache.placement_node(shard.shardid)
        admin = citus.coordinator_session("admin")
        move_shard(ext, admin, shard.shardid, node)
        assert ext.metadata.cache.placement_node(shard.shardid) == node

    def test_writes_resume_after_move(self, citus, loaded):
        s = loaded
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("d")
        shard = dist.shards[0]
        source = ext.metadata.cache.placement_node(shard.shardid)
        target = "worker2" if source == "worker1" else "worker1"
        admin = citus.coordinator_session("admin")
        move_shard(ext, admin, shard.shardid, target)
        # A key hashed to the moved shard routes to the new placement.
        lo, hi = shard.min_value, shard.max_value
        from repro.engine.datum import hash_value

        key = next(k for k in range(10_000) if lo <= hash_value(k) <= hi)
        s.execute("INSERT INTO d VALUES ($1, 'post-move') ON CONFLICT (k)"
                  " DO UPDATE SET v = 'post-move'", [key])
        assert s.execute("SELECT v FROM d WHERE k = $1", [key]).scalar() == "post-move"

    def test_reference_move_onto_a_copy_leaves_the_copy(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE r (k int PRIMARY KEY, v text)")
        s.execute("SELECT create_reference_table('r')")
        s.copy_rows("r", [[i, f"r{i}"] for i in range(5)])
        ext = citus.coordinator_ext
        shard = ext.metadata.cache.get_table("r").shards[0]
        placements = list(ext.metadata.cache.placements[shard.shardid])
        # The CREATE on a worker already holding the replica fails, and
        # the failed move must not drop that live replica.
        with pytest.raises(ReproError, match="already exists"):
            s.execute("SELECT citus_move_shard_placement($1, 'worker1')",
                      [shard.shardid])
        assert ext.metadata.cache.placements[shard.shardid] == placements
        worker = citus.cluster.node("worker1").connect("check")
        try:
            assert worker.execute(
                f"SELECT count(*) FROM {shard.shard_name}").scalar() == 5
        finally:
            worker.close()


class TestRebalance:
    def test_rebalance_after_adding_node(self, citus, loaded):
        citus.add_worker("worker3")
        admin = citus.coordinator_session("admin")
        moves = Rebalancer(citus.coordinator_ext).rebalance(admin)
        assert moves
        counts = placement_counts(citus)
        assert counts["worker3"] > 0
        assert max(counts.values()) - min(counts.values()) <= 2
        assert loaded.execute("SELECT count(*) FROM d").scalar() == 60

    def test_balanced_cluster_plans_nothing(self, citus, loaded):
        plan = Rebalancer(citus.coordinator_ext).plan()
        assert plan == []

    def test_rebalance_by_size(self, citus, loaded):
        citus.add_worker("worker3")
        admin = citus.coordinator_session("admin")
        moves = Rebalancer(citus.coordinator_ext, BY_DISK_SIZE).rebalance(admin)
        assert moves
        assert loaded.execute("SELECT count(*) FROM d").scalar() == 60

    def test_custom_constraint_policy(self, citus, loaded):
        citus.add_worker("worker3")
        # Nothing may move to worker3: the plan must respect the constraint.
        strategy = RebalanceStrategy(
            name="avoid-worker3",
            shard_allowed_on_node=lambda ext, shard, node: node != "worker3",
        )
        plan = Rebalancer(citus.coordinator_ext, strategy).plan()
        assert all(m.target != "worker3" for m in plan)

    def test_custom_capacity_policy(self, citus, loaded):
        citus.add_worker("worker3")
        # worker3 has double capacity: it should end up with >= others.
        strategy = RebalanceStrategy(
            name="big-worker3",
            node_capacity=lambda ext, node: 2.0 if node == "worker3" else 1.0,
        )
        admin = citus.coordinator_session("admin")
        Rebalancer(citus.coordinator_ext, strategy).rebalance(admin)
        counts = placement_counts(citus)
        assert counts["worker3"] >= max(counts["worker1"], counts["worker2"]) - 1

    def test_rebalance_udf(self, citus, loaded):
        citus.add_worker("worker3")
        admin = citus.coordinator_session("admin")
        moved = admin.execute("SELECT rebalance_table_shards()").scalar()
        assert moved > 0

    def test_clock_advances_during_move(self, citus, loaded):
        citus.add_worker("worker3")
        before = citus.cluster.clock.now()
        admin = citus.coordinator_session("admin")
        Rebalancer(citus.coordinator_ext).rebalance(admin)
        # Each move includes a catch-up window of ~2s simulated.
        assert citus.cluster.clock.now() > before + 1.0


class TestForeignKeyGroup:
    """Moves of a co-location group whose members reference each other:
    the referenced shard is in place before rows that reference it."""

    @pytest.fixture
    def shop(self, citus, citus_session):
        # orders is distributed first, so it comes first in the metadata;
        # the foreign key arrives afterwards.
        s = citus_session
        s.execute("CREATE TABLE orders (oid int, cid int, PRIMARY KEY (cid, oid))")
        s.execute("SELECT create_distributed_table('orders', 'cid')")
        s.execute("CREATE TABLE customers (cid int PRIMARY KEY, name text)")
        s.execute("SELECT create_distributed_table('customers', 'cid',"
                  " colocate_with := 'orders')")
        s.execute("ALTER TABLE orders ADD FOREIGN KEY (cid) REFERENCES customers (cid)")
        s.copy_rows("customers", [[c, f"c{c}"] for c in range(30)])
        s.copy_rows("orders", [[c * 10 + j, c] for c in range(30) for j in range(2)])
        return s

    @staticmethod
    def intact(citus, s):
        assert s.execute("SELECT count(*) FROM customers c JOIN orders o"
                         " ON c.cid = o.cid").scalar() == 60
        with pytest.raises(ForeignKeyViolation):
            s.execute("INSERT INTO orders VALUES (1, 999)")
        # Every shard lives exactly where the metadata says, nowhere else.
        cache = citus.coordinator_ext.metadata.cache
        for table in ("customers", "orders"):
            for shard in cache.get_table(table).shards:
                holders = [n for n, node in citus.cluster.nodes.items()
                           if node.catalog.has_table(shard.shard_name)]
                assert holders == [cache.placement_node(shard.shardid)]

    def test_moving_the_referencing_shard_then_the_referenced_one(self, citus, shop):
        cache = citus.coordinator_ext.metadata.cache
        orders_shard = cache.get_table("orders").shards[0]
        customers_shard = cache.get_table("customers").shards[0]
        source = cache.placement_node(orders_shard.shardid)
        target = "worker2" if source == "worker1" else "worker1"
        shop.execute("SELECT citus_move_shard_placement($1, $2)",
                     [orders_shard.shardid, target])
        assert citus.coordinator_ext.metadata.cache.placement_node(
            customers_shard.shardid) == target
        self.intact(citus, shop)
        shop.execute("SELECT citus_move_shard_placement($1, $2)",
                     [customers_shard.shardid, source])
        assert citus.coordinator_ext.metadata.cache.placement_node(
            orders_shard.shardid) == source
        self.intact(citus, shop)

    def test_rebalance_moves_the_group(self, citus, shop):
        citus.add_worker("worker3")
        assert shop.execute("SELECT rebalance_table_shards()").scalar() > 0
        assert placement_counts(citus)["worker3"] > 0
        self.intact(citus, shop)

    def test_drain_moves_the_group(self, citus, shop):
        assert shop.execute("SELECT citus_drain_node('worker1')").scalar() > 0
        assert placement_counts(citus)["worker1"] == 0
        self.intact(citus, shop)

    def test_a_failed_move_drops_what_it_made_on_the_target(
            self, citus, shop, monkeypatch):
        from repro.net.network import RemoteConnection

        ext = citus.coordinator_ext
        shard = ext.metadata.cache.get_table("orders").shards[0]
        source = ext.metadata.cache.placement_node(shard.shardid)
        target = "worker2" if source == "worker1" else "worker1"
        tables = set(citus.cluster.node(target).catalog.tables)
        copy_rows = RemoteConnection.copy_rows

        def failing_copy(conn, table, rows, *rest, **kwargs):
            if table.startswith("orders"):
                raise ReproError("copy failed")
            return copy_rows(conn, table, rows, *rest, **kwargs)

        monkeypatch.setattr(RemoteConnection, "copy_rows", failing_copy)
        with pytest.raises(ReproError, match="copy failed"):
            move_shard(ext, shop, shard.shardid, target)
        monkeypatch.undo()
        assert set(citus.cluster.node(target).catalog.tables) == tables
        assert ext.metadata.cache.placement_node(shard.shardid) == source
        assert {m.status for m in progress_for(ext).moves} == {"failed"}
        self.intact(citus, shop)
