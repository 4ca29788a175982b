"""Unit tests for the query equivalence analysis — the logic that decides
co-location, routing constants, and pushdown legality (§3.5's brain)."""

import pytest

from repro.citus.sharding import analyze_statement, prune_shards
from repro.sql import parse_one


@pytest.fixture
def env(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE a (key int PRIMARY KEY, x int)")
    s.execute("SELECT create_distributed_table('a', 'key')")
    s.execute("CREATE TABLE b (key int PRIMARY KEY, y int)")
    s.execute("SELECT create_distributed_table('b', 'key', colocate_with := 'a')")
    s.execute("CREATE TABLE c (ckey int PRIMARY KEY)")
    s.execute("SELECT create_distributed_table('c', 'ckey', colocate_with := 'none')")
    s.execute("CREATE TABLE ref (id int PRIMARY KEY)")
    s.execute("SELECT create_reference_table('ref')")
    ext = citus.coordinator_ext
    return ext, s


def analyze(ext, sql, params=None):
    return analyze_statement(parse_one(sql), ext.metadata.cache, params,
                             ext.instance.catalog)


class TestOccurrenceClassification:
    def test_distributed_vs_reference_vs_local(self, env):
        ext, s = env
        s.execute("CREATE TABLE plain (id int PRIMARY KEY)")
        analysis = analyze(ext, "SELECT * FROM a, ref, plain")
        assert [o.name for o in analysis.distributed] == ["a"]
        assert [o.name for o in analysis.references] == ["ref"]
        assert [o.name for o in analysis.locals] == ["plain"]

    def test_subquery_tables_counted(self, env):
        ext, _ = env
        analysis = analyze(
            ext, "SELECT * FROM (SELECT key FROM a) sub JOIN b ON sub.key = b.key"
        )
        assert {o.name for o in analysis.distributed} == {"a", "b"}


class TestEquivalence:
    def test_join_on_dist_columns_colocates(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a JOIN b ON a.key = b.key")
        assert analysis.all_dist_columns_equal()

    def test_join_on_other_columns_does_not(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a JOIN b ON a.x = b.y")
        assert not analysis.all_dist_columns_equal()

    def test_transitive_equality(self, env):
        ext, _ = env
        analysis = analyze(
            ext,
            "SELECT * FROM a, b WHERE a.key = a.x AND a.x = b.key",
        )
        assert analysis.all_dist_columns_equal()

    def test_using_clause_joins_equivalence(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a JOIN b USING (key)")
        assert analysis.all_dist_columns_equal()

    def test_bare_columns_qualified_by_catalog_scope(self, env):
        ext, _ = env
        # x belongs only to a; y only to b: the bare-name equality binds.
        analysis = analyze(
            ext, "SELECT * FROM a, b WHERE x = y AND a.key = b.key"
        )
        assert analysis.all_dist_columns_equal()

    def test_subquery_output_alias_links(self, env):
        ext, _ = env
        analysis = analyze(
            ext,
            "SELECT * FROM (SELECT key AS k2 FROM a) sub JOIN b ON sub.k2 = b.key",
        )
        assert analysis.all_dist_columns_equal()

    def test_in_subquery_implies_equality(self, env):
        ext, _ = env
        analysis = analyze(
            ext, "SELECT * FROM a WHERE key IN (SELECT key FROM b)"
        )
        assert analysis.all_dist_columns_equal()

    def test_cross_join_not_falsely_colocated(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a x, a y")
        # Self cross join without a join predicate must NOT claim
        # co-location (it would silently drop cross-shard pairs).
        assert not analysis.all_dist_columns_equal()


class TestConstants:
    def test_direct_constant(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a WHERE key = 7")
        value, ok = analysis.common_constant()
        assert ok and value == 7

    def test_parameter_constant(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a WHERE key = $1", params=[9])
        value, ok = analysis.common_constant()
        assert ok and value == 9

    def test_constant_propagates_through_join(self, env):
        ext, _ = env
        analysis = analyze(
            ext, "SELECT * FROM a JOIN b ON a.key = b.key WHERE b.key = 4"
        )
        value, ok = analysis.common_constant()
        assert ok and value == 4

    def test_conflicting_constants_fail(self, env):
        ext, _ = env
        analysis = analyze(
            ext,
            "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.key = 1 AND b.key = 2",
        )
        _value, ok = analysis.common_constant()
        assert not ok

    def test_or_disjunction_gives_no_constant(self, env):
        ext, _ = env
        analysis = analyze(ext, "SELECT * FROM a WHERE key = 1 OR key = 2")
        _value, ok = analysis.common_constant()
        assert not ok  # not a single shard; pushdown handles it

    #: Joins of the co-located ``a`` and ``b`` whose keys meet one constant,
    #: read as the column's type: each plans one router task.
    ROUTED = {
        "int": ("SELECT * FROM a, b WHERE a.key = 5 AND b.key = 5", None),
        "text_and_int": ("SELECT * FROM a, b WHERE a.key = '5' AND b.key = 5", None),
        "text_parameter": ("SELECT * FROM a, b WHERE a.key = $1 AND b.key = 5", ["5"]),
        "cast": ("SELECT * FROM a JOIN b ON a.key = b.key WHERE b.key = '5'::int",
                 None),
    }

    @pytest.mark.parametrize("name", sorted(ROUTED))
    def test_constants_meet_as_the_column_type(self, env, name):
        from repro.citus.observability import explain

        ext, s = env
        sql, params = self.ROUTED[name]
        value, ok = analyze(ext, sql, params).common_constant()
        assert ok and value == 5
        plan = explain(s, sql, params)
        assert (plan.tier, len(plan.tasks)) == ("router", 1)


class TestInnerAggregates:
    def test_inner_agg_on_dist_col_allowed(self, env):
        ext, _ = env
        analysis = analyze(
            ext,
            "SELECT avg(c) FROM (SELECT key, count(*) AS c FROM a GROUP BY key) s",
        )
        assert not analysis.inner_cross_shard_agg

    def test_inner_agg_cross_shard_flagged(self, env):
        ext, _ = env
        analysis = analyze(
            ext,
            "SELECT avg(c) FROM (SELECT x, count(*) AS c FROM a GROUP BY x) s",
        )
        assert analysis.inner_cross_shard_agg

    @pytest.mark.parametrize("inner", [
        "SELECT key, count(*) AS c FROM a GROUP BY 1",
        "SELECT key AS id, count(*) AS c FROM a GROUP BY id",
        "SELECT key, sum(x) OVER (PARTITION BY key) AS c FROM a",
    ], ids=["position", "alias", "window"])
    def test_inner_level_on_dist_col_not_flagged(self, env, inner):
        ext, _ = env
        analysis = analyze(ext, f"SELECT avg(c) FROM ({inner}) s")
        assert not analysis.inner_cross_shard_agg


class TestPruning:
    def test_equality_prunes_to_one(self, env):
        ext, _ = env
        dist = ext.metadata.cache.get_table("a")
        stmt = parse_one("SELECT * FROM a WHERE key = 5")
        assert len(prune_shards(dist, stmt.where, None, "a")) == 1

    def test_in_list_prunes(self, env):
        ext, _ = env
        dist = ext.metadata.cache.get_table("a")
        stmt = parse_one("SELECT * FROM a WHERE key IN (1, 2, 3)")
        pruned = prune_shards(dist, stmt.where, None, "a")
        assert 1 <= len(pruned) <= 3

    def test_unprunable_predicate_keeps_all(self, env):
        ext, _ = env
        dist = ext.metadata.cache.get_table("a")
        stmt = parse_one("SELECT * FROM a WHERE x > 10")
        assert len(prune_shards(dist, stmt.where, None, "a")) == dist.shard_count

    def test_or_on_dist_col_keeps_all(self, env):
        ext, _ = env
        dist = ext.metadata.cache.get_table("a")
        stmt = parse_one("SELECT * FROM a WHERE key = 1 OR key = 2")
        # Disjunctions are not pruned (conservative, correct).
        assert len(prune_shards(dist, stmt.where, None, "a")) == dist.shard_count


class TestDistributedCopyTo:
    def test_copy_to_reads_all_shards(self, env):
        _ext, s = env
        s.copy_rows("a", [[i, i] for i in range(12)])
        result = s.execute("COPY a TO STDOUT")
        assert result.command == "COPY"
        assert len(result.rows) == 12
