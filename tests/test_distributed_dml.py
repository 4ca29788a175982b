"""Distributed DML: multi-row inserts, COPY routing, INSERT..SELECT
strategies, DDL propagation, reference-table writes."""

import pytest

from repro.citus.observability import explain
from repro.errors import NotNullViolation, UniqueViolation
from tests.conftest import explain_text


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE ev (id int PRIMARY KEY, grp int, val int)")
    s.execute("SELECT create_distributed_table('ev', 'id')")
    return s


class TestInserts:
    def test_multi_row_insert_routes_by_hash(self, citus, s):
        s.execute("INSERT INTO ev VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30)")
        assert s.execute("SELECT count(*) FROM ev").scalar() == 3
        # Each row landed on the shard owning its hash.
        from repro.engine.datum import hash_value

        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("ev")
        for key in (1, 2, 3):
            index = dist.shard_index_for_hash(hash_value(key))
            node = ext.metadata.cache.placement_node(dist.shards[index].shardid)
            check = citus.cluster.node(node).connect()
            found = check.execute(
                f"SELECT count(*) FROM {dist.shards[index].shard_name} WHERE id = {key}"
            ).scalar()
            check.close()
            assert found == 1

    def test_positional_insert_without_columns(self, s):
        s.execute("INSERT INTO ev VALUES (5, 9, 90)")
        assert s.execute("SELECT val FROM ev WHERE id = 5").scalar() == 90

    def test_insert_missing_dist_column_rejected(self, s):
        with pytest.raises(NotNullViolation):
            s.execute("INSERT INTO ev (grp, val) VALUES (1, 1)")

    def test_positional_insert_fills_the_first_columns(self, s):
        s.execute("INSERT INTO ev VALUES (6, 2)")
        assert s.execute("SELECT grp, val FROM ev WHERE id = 6").rows == [[2, None]]
        s.execute("CREATE TABLE tail (v int, id int)")
        s.execute("SELECT create_distributed_table('tail', 'id')")
        # A distribution column past the values reads NULL.
        with pytest.raises(NotNullViolation, match="cannot be NULL"):
            s.execute("INSERT INTO tail VALUES (1)")
        s.execute("INSERT INTO tail SELECT id, grp FROM ev")
        assert s.execute("SELECT v, id FROM tail").rows == [[6, 2]]

    def test_insert_null_dist_column_rejected(self, s):
        with pytest.raises(NotNullViolation):
            s.execute("INSERT INTO ev VALUES (NULL, 1, 1)")

    def test_duplicate_key_across_statements(self, s):
        s.execute("INSERT INTO ev VALUES (1, 1, 1)")
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO ev VALUES (1, 2, 2)")

    def test_on_conflict_do_update_routed(self, s):
        s.execute("INSERT INTO ev VALUES (1, 1, 1)")
        s.execute(
            "INSERT INTO ev VALUES (1, 1, 99) ON CONFLICT (id)"
            " DO UPDATE SET val = excluded.val"
        )
        assert s.execute("SELECT val FROM ev WHERE id = 1").scalar() == 99

    def test_returning_from_distributed_insert(self, s):
        r = s.execute("INSERT INTO ev VALUES (7, 1, 70) RETURNING val")
        assert r.rows == [[70]]

    def test_volatile_function_evaluated_on_coordinator(self, citus, s):
        # md5(random()) must be computed once on the coordinator so the
        # row routes consistently with its stored value.
        s.execute("CREATE TABLE evt (eid text PRIMARY KEY, d int)")
        s.execute("SELECT create_distributed_table('evt', 'eid')")
        s.execute("INSERT INTO evt VALUES (md5(random()::text), 1)")
        eid = s.execute("SELECT eid FROM evt").scalar()
        # The row is findable by its key via the fast path.
        assert s.execute("SELECT d FROM evt WHERE eid = $1", [eid]).scalar() == 1


class TestCopy:
    def test_copy_routes_and_counts(self, s):
        rows = [[i, i % 3, i * 10] for i in range(50)]
        r = s.execute("COPY ev FROM STDIN", copy_data=rows)
        assert r.rowcount == 50
        assert s.execute("SELECT count(*) FROM ev").scalar() == 50

    def test_copy_rows_api_routes(self, s):
        n = s.copy_rows("ev", [[100, 1, 1], [101, 1, 2]])
        assert n == 2
        assert s.execute("SELECT count(*) FROM ev WHERE id >= 100").scalar() == 2

    def test_copy_csv_text(self, s):
        r = s.execute("COPY ev FROM STDIN WITH (FORMAT csv)",
                      copy_data="200,5,1\n201,5,2\n")
        assert r.rowcount == 2

    def test_copy_is_atomic_across_shards(self, citus, s):
        # A duplicate key mid-stream must roll back the entire COPY.
        s.execute("INSERT INTO ev VALUES (5, 0, 0)")
        with pytest.raises(UniqueViolation):
            s.execute("COPY ev FROM STDIN",
                      copy_data=[[4, 0, 0], [5, 0, 0], [6, 0, 0]])
        assert s.execute("SELECT count(*) FROM ev").scalar() == 1

    def test_copy_null_dist_column_rejected(self, s):
        with pytest.raises(NotNullViolation):
            s.execute("COPY ev FROM STDIN", copy_data=[[None, 1, 1]])

    def test_copy_to_reference_table_replicates(self, citus, s):
        s.execute("CREATE TABLE dims (id int PRIMARY KEY, n text)")
        s.execute("SELECT create_reference_table('dims')")
        s.copy_rows("dims", [[1, "a"], [2, "b"]])
        dist = citus.coordinator_ext.metadata.cache.get_table("dims")
        shard = dist.shards[0].shard_name
        for node in citus.cluster.node_names():
            check = citus.cluster.node(node).connect()
            assert check.execute(f"SELECT count(*) FROM {shard}").scalar() == 2
            check.close()


class TestInsertSelect:
    @pytest.fixture
    def loaded(self, citus, s):
        s.copy_rows("ev", [[i, i % 4, i] for i in range(40)])
        s.execute("CREATE TABLE rollup (id int PRIMARY KEY, doubled int)")
        s.execute("SELECT create_distributed_table('rollup', 'id',"
                  " colocate_with := 'ev')")
        s.execute("CREATE TABLE grp_rollup (grp int PRIMARY KEY, total int)")
        s.execute("SELECT create_distributed_table('grp_rollup', 'grp',"
                  " colocate_with := 'none')")
        return s

    def test_colocated_pushdown_strategy(self, citus, loaded):
        s = loaded
        sql = "INSERT INTO rollup (id, doubled) SELECT id, val * 2 FROM ev"
        assert explain(s, sql).subplan["strategy"] == "pushdown"
        r = s.execute(sql)
        assert r.rowcount == 40
        assert s.execute("SELECT doubled FROM rollup WHERE id = 3").scalar() == 6

    def test_repartition_strategy(self, citus, loaded):
        s = loaded
        # Source grouped by grp (dist col of destination, not of source):
        # no merge step but not co-located → repartition.
        sql = ("INSERT INTO grp_rollup (grp, total)"
               " SELECT grp, val FROM ev WHERE id < 4")
        assert explain(s, sql).subplan["strategy"] == "repartition"
        r = s.execute(sql)
        assert r.rowcount == 4

    def test_coordinator_strategy_with_merge(self, citus, loaded):
        s = loaded
        sql = ("INSERT INTO grp_rollup (grp, total)"
               " SELECT grp, sum(val) FROM ev GROUP BY grp")
        assert explain(s, sql).subplan["strategy"] == "coordinator"
        r = s.execute(sql)
        assert r.rowcount == 4
        total = s.execute("SELECT sum(total) FROM grp_rollup").scalar()
        assert total == sum(range(40))

    def test_explain_shows_strategy(self, citus, loaded):
        text = explain_text(
            loaded, "INSERT INTO rollup (id, doubled) SELECT id, val FROM ev"
        )
        assert "Insert..Select (co-located)" in text


class TestDdlPropagation:
    def test_create_index_reaches_all_shards(self, citus, s):
        s.execute("CREATE INDEX ev_val_idx ON ev (val)")
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("ev")
        for shard in dist.shards:
            node = ext.metadata.cache.placement_node(shard.shardid)
            table = citus.cluster.node(node).catalog.get_table(shard.shard_name)
            assert any("ev_val_idx" in name for name in table.indexes)

    def test_alter_add_column_everywhere(self, citus, s):
        s.execute("INSERT INTO ev VALUES (1, 1, 1)")
        s.execute("ALTER TABLE ev ADD COLUMN note text DEFAULT 'n'")
        assert s.execute("SELECT note FROM ev WHERE id = 1").scalar() == "n"
        s.execute("INSERT INTO ev (id, grp, val, note) VALUES (2, 1, 1, 'x')")
        assert s.execute("SELECT note FROM ev WHERE id = 2").scalar() == "x"

    def test_truncate_distributed(self, s):
        s.copy_rows("ev", [[i, 0, 0] for i in range(10)])
        s.execute("TRUNCATE TABLE ev")
        assert s.execute("SELECT count(*) FROM ev").scalar() == 0

    def test_vacuum_distributed(self, s):
        s.copy_rows("ev", [[i, 0, 0] for i in range(10)])
        s.execute("UPDATE ev SET val = val + 1")
        s.execute("VACUUM ev")  # propagates without error


class TestForeignKeysAcrossShards:
    def test_colocated_fk_enforced_on_shards(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE tenants (tid int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('tenants', 'tid')")
        s.execute(
            "CREATE TABLE docs (tid int, did int, PRIMARY KEY (tid, did),"
            " FOREIGN KEY (tid) REFERENCES tenants (tid))"
        )
        s.execute("SELECT create_distributed_table('docs', 'tid',"
                  " colocate_with := 'tenants')")
        s.execute("INSERT INTO tenants VALUES (1)")
        s.execute("INSERT INTO docs VALUES (1, 1)")
        from repro.errors import ForeignKeyViolation

        with pytest.raises(ForeignKeyViolation):
            s.execute("INSERT INTO docs VALUES (2, 1)")  # tenant 2 missing

    def test_fk_to_reference_table(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE kinds (kid int PRIMARY KEY)")
        s.execute("SELECT create_reference_table('kinds')")
        s.execute(
            "CREATE TABLE items (id int PRIMARY KEY, kid int"
            " REFERENCES kinds (kid))"
        )
        s.execute("SELECT create_distributed_table('items', 'id')")
        s.execute("INSERT INTO kinds VALUES (1)")
        s.execute("INSERT INTO items VALUES (10, 1)")
        from repro.errors import ForeignKeyViolation

        with pytest.raises(ForeignKeyViolation):
            s.execute("INSERT INTO items VALUES (11, 99)")
