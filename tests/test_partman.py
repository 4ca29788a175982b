"""pg_partman-style time partitioning and its composition with Citus
("individual shards are locally partitioned", §6)."""

import pytest

from repro import PostgresInstance, make_cluster
from repro.errors import MetadataError
from repro.partman import install_partman


@pytest.fixture
def partitioned():
    pg = PostgresInstance("pg")
    install_partman(pg)
    s = pg.connect()
    s.execute("CREATE TABLE metrics (ts int, device int, v float,"
              " PRIMARY KEY (ts, device))")
    s.execute("SELECT create_parent('metrics', 'ts', 100)")
    s.execute("INSERT INTO metrics VALUES (5, 1, 1.0), (105, 1, 2.0), (250, 2, 3.0)")
    return pg, s


@pytest.fixture(scope="module")
def pruning_pair():
    """``m`` partitioned by 100 over rows 5, 99, 150, 250, and the same rows
    in a plain table."""
    sessions = []
    for partman in (True, False):
        pg = PostgresInstance("pg")
        if partman:
            install_partman(pg)
        s = pg.connect()
        s.execute("CREATE TABLE m (ts int PRIMARY KEY, v int)")
        if partman:
            s.execute("SELECT create_parent('m', 'ts', 100)")
        s.execute("INSERT INTO m VALUES (5, 1), (99, 1), (150, 1), (250, 1)")
        sessions.append(s)
    return sessions


#: Filters on the partition column: the partitions a SELECT scans, and its
#: rows and a DELETE's count, which a plain table gives too.
PRUNING = {
    "range": ("ts >= 100 AND ts < 200", 1),
    "equality": ("m.ts = 250", 1),
    "strict_float_bound": ("ts > 98.5", 3),
    "strict_bound": ("ts > 99", 2),
    "text_bound": ("ts >= '100'", 2),
    "text_equals": ("ts = '150'", 1),
    "text_between": ("ts BETWEEN '100' AND 200", 2),
    "mixed_in_list": ("ts IN (5, '250')", 2),
    "null_equals": ("ts = NULL", 0),
    "unbounded": ("v = 1", 3),
}


class TestPartitioning:
    def test_children_created_on_demand(self, partitioned):
        _pg, s = partitioned
        parts = s.execute("SELECT show_partitions('metrics')").scalar()
        assert parts == ["metrics_p0", "metrics_p100", "metrics_p200"]

    def test_existing_rows_migrate_on_create_parent(self):
        pg = PostgresInstance("pg")
        install_partman(pg)
        s = pg.connect()
        s.execute("CREATE TABLE m (ts int PRIMARY KEY, v int)")
        s.execute("INSERT INTO m VALUES (1, 1), (150, 2)")
        s.execute("SELECT create_parent('m', 'ts', 100)")
        assert s.execute("SELECT count(*) FROM m").scalar() == 2
        shell = pg.catalog.get_table("m")
        assert len(shell.heap.tuples) == 0  # shell emptied; data in children

    def test_select_unions_partitions(self, partitioned):
        _pg, s = partitioned
        assert s.execute("SELECT count(*) FROM metrics").scalar() == 3
        rows = s.execute("SELECT ts FROM metrics ORDER BY ts").rows
        assert [r[0] for r in rows] == [5, 105, 250]

    def test_partition_pruning_on_range(self, partitioned):
        _pg, s = partitioned
        text = "\n".join(r[0] for r in s.execute(
            "EXPLAIN SELECT * FROM metrics WHERE ts >= 100 AND ts < 200"
        ).rows)
        assert "metrics_p100" in text
        assert "metrics_p0" not in text and "metrics_p200" not in text

    def test_pruning_on_equality(self, partitioned):
        _pg, s = partitioned
        text = "\n".join(r[0] for r in s.execute(
            "EXPLAIN SELECT * FROM metrics WHERE ts = 250"
        ).rows)
        assert text.count("-> Scan") == 1

    @pytest.mark.parametrize("where, scans", PRUNING.values(), ids=list(PRUNING))
    def test_pruning_agrees_with_a_plain_table(self, pruning_pair, where, scans):
        parts, plain = pruning_pair
        sql = f"SELECT ts FROM m WHERE {where} ORDER BY ts"
        assert parts.execute(sql).rows == plain.execute(sql).rows
        text = "\n".join(r[0] for r in parts.execute(f"EXPLAIN {sql}").rows)
        assert text.count("-> Scan") == scans
        delete = f"DELETE FROM m WHERE {where}"
        for session in pruning_pair:
            session.execute("BEGIN")
        try:
            assert parts.execute(delete).rowcount == plain.execute(delete).rowcount
        finally:
            for session in pruning_pair:
                session.execute("ROLLBACK")

    def test_aggregate_over_partitions(self, partitioned):
        _pg, s = partitioned
        rows = s.execute(
            "SELECT device, sum(v) FROM metrics GROUP BY device ORDER BY device"
        ).rows
        assert rows == [[1, 3.0], [2, 3.0]]

    def test_update_and_delete_fan_out(self, partitioned):
        _pg, s = partitioned
        assert s.execute("UPDATE metrics SET v = v + 1").rowcount == 3
        assert s.execute("DELETE FROM metrics WHERE ts < 100").rowcount == 1
        assert s.execute("SELECT count(*) FROM metrics").scalar() == 2

    def test_copy_routes_to_partitions(self, partitioned):
        _pg, s = partitioned
        s.execute("COPY metrics FROM STDIN", copy_data=[[777, 9, 9.0]])
        parts = s.execute("SELECT show_partitions('metrics')").scalar()
        assert "metrics_p700" in parts

    def test_null_partition_key_rejected(self, partitioned):
        from repro.errors import DataError

        _pg, s = partitioned
        with pytest.raises(DataError):
            s.execute("INSERT INTO metrics VALUES (NULL, 1, 0)")

    def test_parent_in_join_position_rejected(self, partitioned):
        _pg, s = partitioned
        s.execute("CREATE TABLE other (id int PRIMARY KEY)")
        with pytest.raises(MetadataError):
            s.execute("SELECT * FROM other o JOIN metrics m ON o.id = m.device")

    def test_double_create_parent_rejected(self, partitioned):
        _pg, s = partitioned
        with pytest.raises(MetadataError):
            s.execute("SELECT create_parent('metrics', 'ts', 100)")

    def test_non_integer_column_rejected(self):
        pg = PostgresInstance("pg")
        install_partman(pg)
        s = pg.connect()
        s.execute("CREATE TABLE m (name text PRIMARY KEY)")
        with pytest.raises(MetadataError):
            s.execute("SELECT create_parent('m', 'name', 100)")


class TestCitusComposition:
    """The paper's §6 layering: a distributed table whose *shards* are
    locally time-partitioned on each worker by pg_partman."""

    @pytest.fixture
    def composed(self, citus, citus_session):
        for name in citus.cluster.node_names():
            install_partman(citus.cluster.node(name))
        s = citus_session
        s.execute("CREATE TABLE events (device int, ts int, v float,"
                  " PRIMARY KEY (device, ts))")
        s.execute("SELECT create_distributed_table('events', 'device')")
        s.copy_rows(
            "events",
            [[d, t, float(d + t)] for d in range(1, 9) for t in (5, 150, 260)],
        )
        ext = citus.coordinator_ext
        for shard in ext.metadata.cache.get_table("events").shards:
            node = ext.metadata.cache.placement_node(shard.shardid)
            ext.worker_connection(node).execute(
                f"SELECT create_parent('{shard.shard_name}', 'ts', 100)"
            )
        return citus, s

    def test_distributed_queries_see_all_rows(self, composed):
        _citus, s = composed
        assert s.execute("SELECT count(*) FROM events").scalar() == 24

    def test_time_filter_prunes_inside_shards(self, composed):
        _citus, s = composed
        assert s.execute(
            "SELECT count(*) FROM events WHERE ts >= 100 AND ts < 200"
        ).scalar() == 8

    def test_device_routing_still_works(self, composed):
        _citus, s = composed
        rows = s.execute(
            "SELECT ts FROM events WHERE device = 3 ORDER BY ts"
        ).rows
        assert [r[0] for r in rows] == [5, 150, 260]

    def test_shard_partitions_exist_on_workers(self, composed):
        citus, _s = composed
        ext = citus.coordinator_ext
        partitioned_shards = 0
        for shard in ext.metadata.cache.get_table("events").shards:
            node = ext.metadata.cache.placement_node(shard.shardid)
            worker = citus.cluster.node(node)
            children = [t for t in worker.catalog.tables
                        if t.startswith(shard.shard_name + "_p")]
            partman = worker.extensions["pg_partman"]
            assert shard.shard_name in partman.parents
            if children:
                partitioned_shards += 1
        # Partitions materialize on demand: every shard that holds rows has
        # local time partitions.
        assert partitioned_shards >= 1

    def test_writes_through_coordinator_land_in_partitions(self, composed):
        citus, s = composed
        s.execute("INSERT INTO events VALUES (3, 999, 0.0)")
        ext = citus.coordinator_ext
        from repro.engine.datum import hash_value

        dist = ext.metadata.cache.get_table("events")
        index = dist.shard_index_for_hash(hash_value(3))
        shard = dist.shards[index]
        node = ext.metadata.cache.placement_node(shard.shardid)
        worker = citus.cluster.node(node)
        assert worker.catalog.has_table(f"{shard.shard_name}_p900")
