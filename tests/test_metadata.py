"""Citus metadata tests: table distribution, co-location, shard layout,
reference tables, validation, metadata sync."""

import pytest

from repro.engine.datum import hash_value
from repro.errors import MetadataError
from repro.citus.metadata import INT32_MAX, INT32_MIN, split_hash_ranges


class TestSplitHashRanges:
    def test_full_coverage_no_gaps(self):
        for count in (1, 2, 7, 32):
            ranges = split_hash_ranges(count)
            assert ranges[0][0] == INT32_MIN
            assert ranges[-1][1] == INT32_MAX
            for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
                assert lo2 == hi1 + 1

    def test_invalid_count(self):
        with pytest.raises(MetadataError):
            split_hash_ranges(0)


class TestCreateDistributedTable:
    def test_creates_shards_and_metadata(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY, v text)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("d")
        assert dist.shard_count == 8
        assert dist.dist_column == "k"
        # Physical shard tables exist on the placement nodes.
        for shard in dist.shards:
            node = ext.metadata.cache.placement_node(shard.shardid)
            assert citus.cluster.node(node).catalog.has_table(shard.shard_name)

    def test_metadata_tables_queryable_by_sql(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        assert s.execute(
            "SELECT partmethod FROM pg_dist_partition WHERE logicalrelid = 'd'"
        ).scalar() == "h"
        assert s.execute(
            "SELECT count(*) FROM pg_dist_shard WHERE logicalrelid = 'd'"
        ).scalar() == 8

    def test_shard_ids_start_like_real_citus(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        dist = citus.coordinator_ext.metadata.cache.get_table("d")
        assert dist.shards[0].shardid >= 102008

    def test_round_robin_placement(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        placements = citus.coordinator_ext.metadata.cache.placements
        from collections import Counter

        counts = Counter(node for nodes in placements.values() for node in nodes)
        assert counts["worker1"] == 4 and counts["worker2"] == 4

    def test_existing_rows_move_to_shards(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY, v int)")
        s.execute("INSERT INTO d VALUES (1, 10), (2, 20), (3, 30)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        assert s.execute("SELECT count(*) FROM d").scalar() == 3
        # Shell heap is empty; data lives in shards.
        shell = citus.coordinator.catalog.get_table("d")
        assert len(shell.heap.tuples) == 0

    def test_already_distributed_rejected(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        with pytest.raises(MetadataError):
            s.execute("SELECT create_distributed_table('d', 'k')")

    def test_unique_constraint_must_include_dist_column(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int, other int PRIMARY KEY)")
        with pytest.raises(MetadataError):
            s.execute("SELECT create_distributed_table('d', 'k')")

    def test_jsonb_distribution_column_rejected(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (j jsonb)")
        with pytest.raises(MetadataError):
            s.execute("SELECT create_distributed_table('d', 'j')")

    def test_custom_shard_count(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k', shard_count := 4)")
        assert citus.coordinator_ext.metadata.cache.get_table("d").shard_count == 4


class TestColocation:
    def test_explicit_colocation_shares_group(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE a (k int PRIMARY KEY)")
        s.execute("CREATE TABLE b (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('a', 'k')")
        s.execute("SELECT create_distributed_table('b', 'k', colocate_with := 'a')")
        cache = citus.coordinator_ext.metadata.cache
        assert cache.get_table("a").colocation_id == cache.get_table("b").colocation_id

    def test_colocated_shards_on_same_nodes(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE a (k int PRIMARY KEY)")
        s.execute("CREATE TABLE b (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('a', 'k')")
        s.execute("SELECT create_distributed_table('b', 'k', colocate_with := 'a')")
        cache = citus.coordinator_ext.metadata.cache
        a, b = cache.get_table("a"), cache.get_table("b")
        for sa, sb in zip(a.shards, b.shards):
            assert (sa.min_value, sa.max_value) == (sb.min_value, sb.max_value)
            assert cache.placement_node(sa.shardid) == cache.placement_node(sb.shardid)

    def test_implicit_colocation_by_type(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE a (k int PRIMARY KEY)")
        s.execute("CREATE TABLE b (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('a', 'k')")
        s.execute("SELECT create_distributed_table('b', 'k')")
        cache = citus.coordinator_ext.metadata.cache
        assert cache.get_table("a").colocation_id == cache.get_table("b").colocation_id

    def test_different_types_not_implicitly_colocated(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE a (k int PRIMARY KEY)")
        s.execute("CREATE TABLE b (k text PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('a', 'k')")
        s.execute("SELECT create_distributed_table('b', 'k')")
        cache = citus.coordinator_ext.metadata.cache
        assert cache.get_table("a").colocation_id != cache.get_table("b").colocation_id

    def test_colocate_with_type_mismatch_rejected(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE a (k int PRIMARY KEY)")
        s.execute("CREATE TABLE b (k text PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('a', 'k')")
        with pytest.raises(MetadataError):
            s.execute("SELECT create_distributed_table('b', 'k', colocate_with := 'a')")

    def test_colocate_with_a_range_table_rejected(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE r (k int PRIMARY KEY)")
        s.execute("SELECT create_range_distributed_table('r', 'k',"
                  " ARRAY[ARRAY[0, 99], ARRAY[100, 199]])")
        s.execute("CREATE TABLE b (k int PRIMARY KEY)")
        # The range table's column is an int, as the hash table's is; its
        # colocation group is not a hash group.
        assert citus.coordinator_ext.metadata.cache.get_table("r").dist_column_type == "int"
        with pytest.raises(MetadataError, match="range:int vs int"):
            s.execute("SELECT create_distributed_table('b', 'k', colocate_with := 'r')")

    def test_colocate_none_makes_new_group(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE a (k int PRIMARY KEY)")
        s.execute("CREATE TABLE b (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('a', 'k')")
        s.execute("SELECT create_distributed_table('b', 'k', colocate_with := 'none')")
        cache = citus.coordinator_ext.metadata.cache
        assert cache.get_table("a").colocation_id != cache.get_table("b").colocation_id


class TestReferenceTables:
    def test_replica_on_every_node_and_coordinator(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE r (id int PRIMARY KEY, v text)")
        s.execute("SELECT create_reference_table('r')")
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("r")
        assert dist.is_reference and dist.shard_count == 1
        shard_name = dist.shards[0].shard_name
        for node in ["coordinator", "worker1", "worker2"]:
            assert citus.cluster.node(node).catalog.has_table(shard_name)

    def test_write_replicates_everywhere(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE r (id int PRIMARY KEY, v text)")
        s.execute("SELECT create_reference_table('r')")
        s.execute("INSERT INTO r VALUES (1, 'x')")
        dist = citus.coordinator_ext.metadata.cache.get_table("r")
        shard_name = dist.shards[0].shard_name
        for node in ["coordinator", "worker1", "worker2"]:
            inst = citus.cluster.node(node)
            check = inst.connect()
            assert check.execute(f"SELECT count(*) FROM {shard_name}").scalar() == 1
            check.close()

    def test_read_answered_locally(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE r (id int PRIMARY KEY, v text)")
        s.execute("SELECT create_reference_table('r')")
        s.execute("INSERT INTO r VALUES (1, 'x')")
        before = citus.cluster.network.messages_sent
        assert s.execute("SELECT v FROM r WHERE id = 1").scalar() == "x"
        # No worker round trip: local replica answered.
        assert citus.cluster.network.messages_sent == before

    def test_update_reference_table(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE r (id int PRIMARY KEY, v int)")
        s.execute("SELECT create_reference_table('r')")
        s.execute("INSERT INTO r VALUES (1, 0)")
        s.execute("UPDATE r SET v = 5 WHERE id = 1")
        assert s.execute("SELECT v FROM r WHERE id = 1").scalar() == 5


class TestShardForValue:
    def test_udf_round_trips_with_pruning(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        dist = citus.coordinator_ext.metadata.cache.get_table("d")
        for key in (0, 1, 17, 12345):
            shardid = s.execute(
                "SELECT get_shard_id_for_distribution_column('d', $1)", [key]
            ).scalar()
            index = dist.shard_index_for_hash(hash_value(key))
            assert dist.shards[index].shardid == shardid


class TestMetadataSync:
    def test_worker_gets_metadata_and_shells(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        s.execute("INSERT INTO d VALUES (1, 10)")
        citus.enable_metadata_sync()
        worker_ext = citus.cluster.node("worker1").extensions["citus"]
        assert worker_ext.metadata.cache.is_citus_table("d")
        ws = citus.session_on("worker1")
        assert ws.execute("SELECT count(*) FROM d").scalar() == 1

    def test_worker_can_write(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        citus.enable_metadata_sync()
        ws = citus.session_on("worker2")
        ws.execute("INSERT INTO d VALUES (5, 50)")
        assert s.execute("SELECT v FROM d WHERE k = 5").scalar() == 50

    def test_ddl_udfs_rejected_on_worker(self, citus, citus_session):
        citus.enable_metadata_sync()
        ws = citus.session_on("worker1")
        ws.execute("CREATE TABLE w_local (k int PRIMARY KEY)")
        with pytest.raises(MetadataError):
            ws.execute("SELECT create_distributed_table('w_local', 'k')")

    def test_new_table_syncs_automatically(self, citus, citus_session):
        citus.enable_metadata_sync()
        s = citus_session
        s.execute("CREATE TABLE late (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('late', 'k')")
        worker_ext = citus.cluster.node("worker1").extensions["citus"]
        assert worker_ext.metadata.cache.is_citus_table("late")


class TestDropAndUndistribute:
    def test_drop_distributed_table_removes_shards(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE d (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        dist = citus.coordinator_ext.metadata.cache.get_table("d")
        shard_names = [(citus.coordinator_ext.metadata.cache.placement_node(x.shardid),
                        x.shard_name) for x in dist.shards]
        s.execute("DROP TABLE d")
        assert not citus.coordinator_ext.metadata.cache.is_citus_table("d")
        for node, shard_name in shard_names:
            assert not citus.cluster.node(node).catalog.has_table(shard_name)

    def test_undistribute_pulls_data_back(self, citus, citus_session):
        s = citus_session
        ext = citus.coordinator_ext
        s.execute("CREATE TABLE d (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('d', 'k')")
        # More rows than the COPY channels of all shards hold at once.
        count = ext.config.copy_flush_threshold * ext.config.shard_count + 100
        s.copy_rows("d", [[k, k * 10] for k in range(count)])
        before = s.execute("SELECT * FROM d ORDER BY k").rows
        s.execute("SELECT undistribute_table('d')")
        assert not ext.metadata.cache.is_citus_table("d")
        assert s.execute("SELECT * FROM d ORDER BY k").rows == before
        assert len(before) == count
