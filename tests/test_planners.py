"""Distributed planner cascade tests: which planner picks up which query
shape, shard pruning, and the unsupported-SQL boundary."""

import pytest

from repro.errors import UnsupportedDistributedQuery
from tests.conftest import explain_text


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE orders (key int, id int, total float, tag text,"
              " PRIMARY KEY (key, id))")
    s.execute("SELECT create_distributed_table('orders', 'key')")
    s.execute("CREATE TABLE lines (key int, id int, qty int, PRIMARY KEY (key, id))")
    s.execute("SELECT create_distributed_table('lines', 'key', colocate_with := 'orders')")
    s.execute("CREATE TABLE dims (id int PRIMARY KEY, name text)")
    s.execute("SELECT create_reference_table('dims')")
    s.execute("CREATE TABLE other (okey int PRIMARY KEY, val int)")
    s.execute("SELECT create_distributed_table('other', 'okey', colocate_with := 'none')")
    for k in range(1, 9):
        s.execute("INSERT INTO orders VALUES ($1, 1, $2, 'x')", [k, float(k)])
        s.execute("INSERT INTO lines VALUES ($1, 1, $2)", [k, k * 2])
        s.execute("INSERT INTO other VALUES ($1, $2)", [k, k * 10])
    s.execute("INSERT INTO dims VALUES (1, 'one')")
    return s


class TestFastPath:
    def test_select_by_key(self, s):
        text = explain_text(s, "SELECT * FROM orders WHERE key = 3")
        assert "Fast Path Router" in text and "Task Count: 1" in text

    def test_update_by_key(self, s):
        text = explain_text(s, "UPDATE orders SET total = 0 WHERE key = 3")
        assert "Fast Path Router" in text

    def test_delete_by_key(self, s):
        text = explain_text(s, "DELETE FROM orders WHERE key = 3")
        assert "Fast Path Router" in text

    def test_single_row_insert(self, s):
        text = explain_text(s, "INSERT INTO orders (key, id, total) VALUES (9, 1, 0)")
        assert "Fast Path Router" in text

    def test_fast_path_with_parameter(self, s):
        text = explain_text(s, "SELECT * FROM orders WHERE key = $1", [3])
        assert "Fast Path Router" in text

    def test_extra_filters_still_fast_path(self, s):
        text = explain_text(s, "SELECT * FROM orders WHERE key = 3 AND id > 0")
        assert "Fast Path Router" in text

    def test_rewrites_to_shard_name(self, s):
        text = explain_text(s, "SELECT * FROM orders WHERE key = 3")
        assert "orders_1020" in text  # shard suffix present


class TestRouter:
    def test_colocated_join_single_tenant(self, s):
        text = explain_text(
            s,
            "SELECT o.total, l.qty FROM orders o JOIN lines l"
            " ON o.key = l.key WHERE o.key = 3",
        )
        assert "Planner: Router" in text and "Task Count: 1" in text

    def test_join_with_reference_table_routes(self, s):
        text = explain_text(
            s,
            "SELECT o.total, d.name FROM orders o JOIN dims d ON o.id = d.id"
            " WHERE o.key = 3",
        )
        assert "Planner: Router" in text

    def test_aggregate_within_tenant_routes(self, s):
        text = explain_text(
            s, "SELECT count(*), sum(total) FROM orders WHERE key = 3 GROUP BY tag"
        )
        assert "Router" in text

    def test_transitive_filter_inference(self, s):
        # Filter on l.key propagates to o.key through the join equality.
        text = explain_text(
            s,
            "SELECT * FROM orders o JOIN lines l ON o.key = l.key WHERE l.key = 5",
        )
        assert "Task Count: 1" in text

    def test_different_keys_cannot_route(self, s):
        rows = s.execute(
            "SELECT count(*) FROM orders o JOIN lines l ON o.key = l.key"
            " WHERE o.key = 3 AND l.key = 4"
        ).rows
        # Contradictory filters: not routable to one shard, but pushdown
        # still answers it (empty).
        assert rows == [[0]]


class TestPushdown:
    def test_multi_shard_scan(self, s):
        text = explain_text(s, "SELECT * FROM orders")
        assert "Pushdown" in text and "Task Count: 8" in text

    def test_group_by_dist_column_is_concat(self, s):
        text = explain_text(s, "SELECT key, sum(total) FROM orders GROUP BY key")
        assert "Planner: Pushdown" in text
        assert "Merge Query" not in text

    def test_group_by_other_column_is_two_phase(self, s):
        text = explain_text(s, "SELECT tag, sum(total) FROM orders GROUP BY tag")
        assert "partial aggregation" in text
        assert "Merge Query" in text

    def test_avg_split_into_partials(self, s):
        text = explain_text(s, "SELECT avg(total) FROM orders")
        assert "avg_partial" in text and "avg_merge" in text

    def test_colocated_join_pushdown(self, s):
        text = explain_text(
            s,
            "SELECT o.key, sum(l.qty) FROM orders o JOIN lines l ON o.key = l.key"
            " GROUP BY o.key",
        )
        assert "Pushdown" in text and "Task Count: 8" in text

    def test_shard_pruning_with_in_list(self, s, citus):
        from repro.engine.datum import hash_value

        dist = citus.coordinator_ext.metadata.cache.get_table("orders")
        keys = [1, 2]
        expected = {dist.shard_index_for_hash(hash_value(k)) for k in keys}
        text = explain_text(s, "SELECT * FROM orders WHERE key IN (1, 2)")
        assert f"Task Count: {len(expected)}" in text

    def test_pruning_contradictory_equality(self, s):
        text = explain_text(s, "SELECT * FROM orders WHERE key = 1 AND key = 9999")
        # Intersection of two single-shard prunes; at most 1 task.
        assert "Task Count: 0" in text or "Task Count: 1" in text

    def test_limit_pushdown_with_order(self, s):
        rows = s.execute(
            "SELECT key, total FROM orders ORDER BY total DESC LIMIT 3"
        ).rows
        assert [r[0] for r in rows] == [8, 7, 6]

    def test_star_with_expression_order_by(self, s):
        # Hidden sort columns appended on the workers must not clip the
        # star-expanded output (regression).
        rows = s.execute(
            "SELECT * FROM orders ORDER BY total + 0 DESC LIMIT 2"
        ).rows
        assert len(rows[0]) == 4  # key, id, total, tag all present
        assert rows[0][2] >= rows[1][2]

    def test_offset_applied_on_coordinator(self, s):
        rows = s.execute(
            "SELECT key FROM orders ORDER BY key LIMIT 3 OFFSET 2"
        ).rows
        assert [r[0] for r in rows] == [3, 4, 5]

    def test_count_distinct_non_dist_column(self, s):
        assert s.execute("SELECT count(DISTINCT tag) FROM orders").scalar() == 1

    def test_having_after_merge(self, s):
        rows = s.execute(
            "SELECT tag, count(*) FROM orders GROUP BY tag HAVING count(*) > 7"
        ).rows
        assert rows == [["x", 8]]

    def test_parallel_dml(self, s):
        text = explain_text(s, "UPDATE orders SET total = total + 1")
        assert "Pushdown (DML)" in text and "Task Count: 8" in text
        r = s.execute("UPDATE orders SET total = total + 1")
        assert r.rowcount == 8


class TestJoinOrderPlanner:
    def test_non_colocated_join_uses_join_order_planner(self, s, citus):
        text = explain_text(
            s,
            "SELECT count(*) FROM orders o JOIN other x ON o.id = x.okey",
        )
        assert "Join Order" in text

    def test_broadcast_result_correct(self, s):
        count = s.execute(
            "SELECT count(*) FROM orders o JOIN other x ON o.id = x.okey"
        ).scalar()
        assert count == 8  # id=1 joins okey=1 across 8 order rows

    def test_repartition_on_dist_key_of_anchor(self, s, citus):
        # other.okey is its dist col; join on o.id = x.okey makes `other`
        # the anchor and orders the moved side (or broadcast if cheaper).
        rows = s.execute(
            "SELECT x.okey, count(*) FROM orders o JOIN other x ON o.key = x.okey"
            " GROUP BY x.okey ORDER BY x.okey"
        ).rows
        assert len(rows) == 8

    def test_stats_track_repartition_queries(self, s, citus):
        counters = citus.coordinator_ext.stat_counters
        before = counters.value("planner_join_order")
        s.execute("SELECT count(*) FROM orders o JOIN other x ON o.id = x.okey")
        assert counters.value("planner_join_order") == before + 1

    def test_disabling_the_join_order_tier_raises(self, s, citus):
        s.execute("SELECT citus_set_config('planner_disabled_tiers', 'join_order')")
        with pytest.raises(UnsupportedDistributedQuery):
            s.execute("SELECT count(*) FROM orders o JOIN other x ON o.id = x.okey")

    def test_intermediate_tables_cleaned_up(self, s, citus):
        s.execute("SELECT count(*) FROM orders o JOIN other x ON o.id = x.okey")
        for name in citus.cluster.node_names():
            instance = citus.cluster.node(name)
            leftovers = [t for t in instance.catalog.tables
                         if t.startswith("citus_repart") or t.startswith("citus_bcast")]
            assert leftovers == []
        assert not any(
            t.startswith("citus_repart") or t.startswith("citus_bcast")
            for t in citus.coordinator_ext.metadata.cache.tables
        )


class TestUnsupported:
    def test_local_distributed_join_agrees(self, s):
        # The local table runs once, read whole; the join reads its rows
        # beside every shard.
        s.execute("CREATE TABLE plain_local (id int PRIMARY KEY)")
        s.execute("INSERT INTO plain_local VALUES (1), (2)")
        sql = "SELECT * FROM orders o JOIN plain_local p ON o.id = p.id"
        assert "Planner: Subplans (run once)" in explain_text(s, sql)
        expected = [[*row, 1] for row in s.execute("SELECT * FROM orders").rows]
        assert len(expected) == 8
        assert sorted(map(list, s.execute(sql).rows)) == sorted(expected)

    def test_three_way_non_colocated_rejected(self, s):
        s.execute("CREATE TABLE third (tkey int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('third', 'tkey', colocate_with := 'none')")
        with pytest.raises(UnsupportedDistributedQuery):
            s.execute(
                "SELECT count(*) FROM orders o, other x, third t"
                " WHERE o.id = x.okey AND x.val = t.tkey"
            )

    def test_multi_shard_select_for_update_rejected(self, s):
        with pytest.raises(UnsupportedDistributedQuery):
            s.execute("SELECT * FROM orders FOR UPDATE")

    def test_inner_cross_shard_aggregate_runs_once(self, s):
        # One tag over eight rows: a single node counts one group of 8.
        # Run per shard, each shard's count would be averaged instead.
        sql = ("SELECT avg(c) FROM (SELECT tag, count(*) AS c FROM orders"
               " GROUP BY tag) AS sub")
        assert "Planner: Subplans (run once)" in explain_text(s, sql)
        assert s.execute(sql).scalar() == 8.0

    def test_inner_aggregate_on_dist_column_allowed(self, s):
        # VeniceDB pattern: inner GROUP BY includes the distribution column.
        value = s.execute(
            "SELECT avg(c) FROM (SELECT key, count(*) AS c FROM orders"
            " GROUP BY key) AS sub"
        ).scalar()
        assert value == 1.0


class TestPlannerCascadeOrdering:
    def test_stats_count_each_planner(self, s, citus):
        counters = citus.coordinator_ext.stat_counters
        base_fast = counters.value("planner_fast_path")
        base_push = counters.value("planner_pushdown")
        s.execute("SELECT * FROM orders WHERE key = 1")
        s.execute("SELECT count(*) FROM orders")
        assert counters.value("planner_fast_path") == base_fast + 1
        assert counters.value("planner_pushdown") == base_push + 1

    def test_reference_only_query_local(self, s, citus):
        text = explain_text(s, "SELECT * FROM dims")
        assert "Local (reference replica)" in text
