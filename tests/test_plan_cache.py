"""Distributed plan cache: replay correctness, invalidation, isolation.

The cache (``repro.citus.planner.plan_cache``) keys entries on the
parameterized *shape* of a statement and replays only the value-dependent
part of planning. These tests pin down the three properties that make
that safe:

- replayed plans re-extract the distribution value per execution, so the
  same cached entry routes different key values to different shards;
- any metadata change (DDL propagation, shard moves) bumps the metadata
  generation and discards stale entries — a cached plan never executes
  against an old placement;
- entries are shared across sessions but plans are rebuilt per execution,
  so concurrent sessions never observe each other's bindings.
"""

import pytest

from repro.citus.observability import explain
from tests.conftest import find_keys_on_distinct_nodes


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    for k in range(1, 17):
        s.execute(f"INSERT INTO t VALUES ({k}, {k * 10})")
    return s


@pytest.fixture
def reg(citus):
    return citus.coordinator_ext.stat_counters


def node_of(citus, table, key):
    from repro.engine.datum import hash_value

    ext = citus.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    index = dist.shard_index_for_hash(hash_value(key))
    return ext.metadata.cache.placement_node(dist.shards[index].shardid)


def shard_of(citus, table, key):
    from repro.engine.datum import hash_value

    dist = citus.coordinator_ext.metadata.cache.get_table(table)
    return dist.shards[dist.shard_index_for_hash(hash_value(key))]


class TestHitsAndMisses:
    def test_first_execution_misses_then_hits(self, s, reg):
        with reg.measure() as m:
            s.execute("SELECT v FROM t WHERE k = 3")
        assert m.value("plan_cache_misses") == 1
        assert m.value("plan_cache_hits") == 0
        with reg.measure() as m:
            s.execute("SELECT v FROM t WHERE k = 3")
        assert m.value("plan_cache_hits") == 1
        assert m.value("plan_cache_misses") == 0

    def test_different_literals_share_one_entry(self, s, reg):
        s.execute("SELECT v FROM t WHERE k = 1")  # warm
        with reg.measure() as m:
            for key in (2, 3, 4, 5):
                assert s.execute(
                    f"SELECT v FROM t WHERE k = {key}"
                ).scalar() == key * 10
        assert m.value("plan_cache_hits") == 4
        assert m.value("plan_cache_misses") == 0

    def test_bound_parameters_hit_the_same_entry(self, s, reg):
        s.execute("SELECT v FROM t WHERE k = $1", [1])  # warm
        with reg.measure() as m:
            assert s.execute("SELECT v FROM t WHERE k = $1", [7]).scalar() == 70
        assert m.value("plan_cache_hits") == 1

    def test_hit_results_match_fresh_results_for_dml(self, s, reg):
        s.execute("UPDATE t SET v = v + 1 WHERE k = 2")  # warm (miss)
        with reg.measure() as m:
            s.execute("UPDATE t SET v = v + 1 WHERE k = 3")
        assert m.value("plan_cache_hits") == 1
        assert s.execute("SELECT v FROM t WHERE k = 3").scalar() == 31
        assert s.execute("SELECT v FROM t WHERE k = 2").scalar() == 21
        assert s.execute("SELECT v FROM t WHERE k = 4").scalar() == 40

    def test_single_row_insert_replays(self, s, reg):
        s.execute("INSERT INTO t (k, v) VALUES (100, 1)")  # warm
        with reg.measure() as m:
            s.execute("INSERT INTO t (k, v) VALUES (101, 2)")
        assert m.value("plan_cache_hits") == 1
        assert s.execute("SELECT v FROM t WHERE k = 101").scalar() == 2

    def test_multi_shard_aggregate_replays(self, s, reg):
        q = "SELECT count(*), sum(v) FROM t"
        first = s.execute(q).rows  # warm: full plan + skeleton on first hit
        s.execute(q)
        with reg.measure() as m:
            assert s.execute(q).rows == first
        assert m.value("plan_cache_hits") == 1

    def test_counters_surface_through_the_udf(self, s):
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("SELECT v FROM t WHERE k = 1")
        rows = s.execute("SELECT citus_stat_counters()").scalar()
        names = {r[0] for r in rows}
        assert "plan_cache_hits" in names
        assert "plan_cache_misses" in names


class TestParamRepruning:
    """One cached entry must route each execution by its own values."""

    def test_same_entry_routes_keys_to_distinct_nodes(self, citus, s, reg):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        s.execute(f"SELECT v FROM t WHERE k = {k1}")  # warm
        with reg.measure() as m:
            e1 = explain(s, f"SELECT v FROM t WHERE k = {k1}")
            e2 = explain(s, f"SELECT v FROM t WHERE k = {k2}")
        assert m.value("plan_cache_hits") == 2
        assert e1.nodes != e2.nodes
        assert e1.nodes == [node_of(citus, "t", k1)]
        assert e2.nodes == [node_of(citus, "t", k2)]

    def test_replayed_task_sql_carries_the_new_value(self, citus, s):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        s.execute(f"SELECT v FROM t WHERE k = {k1}")  # warm
        e = explain(s, f"SELECT v FROM t WHERE k = {k2}")
        assert e.cached
        assert f"= {k2}" in e.tasks[0].sql
        assert shard_of(citus, "t", k2).shard_name in e.tasks[0].sql

    def test_pushdown_dml_prunes_per_execution(self, citus, s, reg):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        # v is not the distribution column, but the planner still prunes on
        # the k equality; warm with one key, replay with the other.
        s.execute(f"UPDATE t SET v = 0 WHERE k = {k1} AND v > -1")
        with reg.measure() as m:
            s.execute(f"UPDATE t SET v = 0 WHERE k = {k2} AND v > -1")
        assert m.value("plan_cache_hits") == 1
        assert s.execute(f"SELECT v FROM t WHERE k = {k2}").scalar() == 0


class TestInvalidation:
    """Metadata changes must discard cached entries (generation bump)."""

    def test_ddl_invalidates(self, s, reg):
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("CREATE INDEX t_v_idx ON t (v)")
        with reg.measure() as m:
            assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 10
        assert m.value("plan_cache_invalidations") == 1
        assert m.value("plan_cache_hits") == 0
        # ...and the freshly stored entry serves the next execution.
        with reg.measure() as m:
            s.execute("SELECT v FROM t WHERE k = 1")
        assert m.value("plan_cache_hits") == 1

    def test_alter_table_invalidates(self, s, reg):
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("ALTER TABLE t ADD COLUMN note text")
        with reg.measure() as m:
            s.execute("SELECT v FROM t WHERE k = 1")
        assert m.value("plan_cache_invalidations") == 1

    def test_shard_move_invalidates_and_replans_to_new_node(
        self, citus, s, reg
    ):
        key = find_keys_on_distinct_nodes(citus, "t", count=1)[0]
        q = f"SELECT v FROM t WHERE k = {key}"
        s.execute(q)
        old_node = explain(s, q).nodes[0]
        target = "worker2" if old_node == "worker1" else "worker1"
        shardid = shard_of(citus, "t", key).shardid
        s.execute(
            f"SELECT citus_move_shard_placement({shardid}, '{target}')"
        )
        with reg.measure() as m:
            e = explain(s, q)
        assert m.value("plan_cache_invalidations") == 1
        # The replanned statement targets the *new* placement and still
        # finds the row: the cached plan never touched the stale node.
        assert e.nodes == [target]
        assert s.execute(q).scalar() == key * 10

    def test_create_distributed_table_invalidates(self, s, reg):
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("CREATE TABLE u (k int)")
        s.execute("SELECT create_distributed_table('u', 'k')")
        with reg.measure() as m:
            s.execute("SELECT v FROM t WHERE k = 1")
        assert m.value("plan_cache_invalidations") == 1

    def test_stale_entry_is_deleted_not_resurrected(self, citus, s, reg):
        ext = citus.coordinator_ext
        s.execute("SELECT v FROM t WHERE k = 1")
        ext.metadata.bump_generation()
        with reg.measure() as m:
            s.execute("SELECT v FROM t WHERE k = 1")  # invalidate + restore
            s.execute("SELECT v FROM t WHERE k = 1")
        assert m.value("plan_cache_invalidations") == 1
        assert m.value("plan_cache_hits") == 1


class TestSessionIsolation:
    """Entries are shared per coordinator, but never leak bindings."""

    def test_two_sessions_interleave_without_mixing_values(self, citus, s):
        other = citus.coordinator_session("other")
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        s.execute(f"SELECT v FROM t WHERE k = {k1}")  # warm from session 1
        for _ in range(3):
            assert other.execute(
                f"SELECT v FROM t WHERE k = {k2}"
            ).scalar() == k2 * 10
            assert s.execute(
                f"SELECT v FROM t WHERE k = {k1}"
            ).scalar() == k1 * 10

    def test_replayed_plans_are_fresh_objects(self, citus, s):
        q = "SELECT v FROM t WHERE k = 5"
        s.execute(q)
        e1 = explain(s, q)
        e2 = explain(s, q)
        assert e1.tasks is not e2.tasks
        assert e1.tasks[0] is not e2.tasks[0]

    def test_transaction_in_one_session_is_invisible_to_cached_reads(
        self, citus, s
    ):
        other = citus.coordinator_session("other")
        q = "SELECT v FROM t WHERE k = 6"
        s.execute(q)  # warm
        other.execute("BEGIN")
        other.execute("UPDATE t SET v = -1 WHERE k = 6")
        assert s.execute(q).scalar() == 60  # uncommitted write not visible
        other.execute("ROLLBACK")
        assert s.execute(q).scalar() == 60


class TestExplainMarker:
    @pytest.mark.parametrize("sql, params", [
        ("SELECT v FROM t WHERE k = $1", [3]),
        ("UPDATE t SET v = v + $2 WHERE k = $1", [3, 1]),
        ("SELECT count(*) FROM t WHERE v > $1", [20]),
        ("UPDATE t SET v = v WHERE v > $1", [20]),
        ("SELECT v FROM t WHERE k = 3 AND v > 20", None),
        ("SELECT v FROM t WHERE k = :key", {"key": 3}),
    ])
    def test_a_planned_and_a_cached_shape_explain_alike(self, s, sql, params):
        """One bind, one rendering: the first execution shows the task SQL
        every later one does, with this execution's values in it."""
        first = explain(s, sql, params).as_dict()
        second = explain(s, sql, params).as_dict()
        assert (first.pop("cached"), second.pop("cached")) == (False, True)
        for key in ("tier", "nodes", "task_count", "pruned_shard_count", "tasks"):
            assert first[key] == second[key], key
        assert all("$" not in task["sql"] and ":" not in task["sql"]
                   for task in first["tasks"])
        text = [s.execute(f"EXPLAIN {sql}", params).rows for _ in range(2)]
        assert [line for line in text[0] if "Task:" in line[0]] == [
            line for line in text[1] if "Task:" in line[0]]

    def test_second_explain_is_marked_cached(self, s):
        q = "SELECT v FROM t WHERE k = 3"
        first = explain(s, q)
        second = explain(s, q)
        assert not first.cached
        assert second.cached
        assert "(cached)" not in first.as_text()
        assert "(cached)" in second.as_text()
        assert second.as_dict()["cached"] is True

    def test_uncacheable_tiers_never_carry_the_marker(self, s):
        s.execute("CREATE TABLE r (d int PRIMARY KEY)")
        s.execute("SELECT create_reference_table('r')")
        s.execute("INSERT INTO r VALUES (1)")
        q = "SELECT * FROM r"
        explain(s, q)
        assert not explain(s, q).cached


class TestReplayErrors:
    """A replay may fall back to a full replan only for what the statement
    itself gets wrong (a ``ReproError``); a bug in replay must not hide as
    a slightly lower hit ratio."""

    def test_a_missing_parameter_is_a_miss_and_the_replan_reports_it(self, s, reg):
        from repro.errors import DataError

        sql = "SELECT v FROM t WHERE k = $1 AND v > $2"
        assert s.execute(sql, [3, 0]).rows == [[30]]
        assert s.execute(sql, [4, 0]).rows == [[40]]
        with reg.measure() as m:
            # $1 resolves, so the replay routes; the worker finds no $2.
            with pytest.raises(DataError, match="no value for parameter"):
                s.execute(sql, [3])
            # No $1: nothing to route on, the replay declines, the cascade
            # replans the statement down to a multi-shard plan, same error.
            with pytest.raises(DataError, match="no value for parameter"):
                s.execute(sql, [])
        assert m.value("plan_cache_hits") == 1
        assert m.value("plan_cache_misses") == 1

    def test_a_failing_cast_in_replay_replans_to_the_same_error(self, s, reg):
        from repro.errors import DataError

        sql = "SELECT v FROM t WHERE k = CAST($1 AS int)"
        assert s.execute(sql, ["3"]).rows == [[30]]
        assert s.execute(sql, ["4"]).rows == [[40]]
        with reg.measure() as m:
            with pytest.raises(DataError, match="invalid input for type int"):
                s.execute(sql, ["three"])
        assert m.value("plan_cache_misses") == 1  # DataError is a ReproError

    def test_a_bug_in_replay_propagates(self, citus, s, reg, monkeypatch):
        from repro.citus.planner.fast_path import FastPathShape

        s.execute("SELECT v FROM t WHERE k = 3")

        def broken(self, params):
            raise TypeError("replay is broken")

        monkeypatch.setattr(FastPathShape, "bind", broken)
        with reg.measure() as m:
            with pytest.raises(TypeError, match="replay is broken"):
                s.execute("SELECT v FROM t WHERE k = 4")
        assert m.value("plan_cache_misses") == 0
        monkeypatch.undo()
        assert s.execute("SELECT v FROM t WHERE k = 4").rows == [[40]]

    def test_a_bug_in_the_extractor_propagates(self, citus, s, monkeypatch):
        from repro.citus import sharding

        def broken(cache, stmt):
            raise TypeError("extractor is broken")

        monkeypatch.setattr(sharding, "_find_tenant_exprs", broken)
        with pytest.raises(TypeError, match="extractor is broken"):
            s.execute("SELECT v FROM t WHERE k = 5 AND v = 50")
