"""Analyse once, execute many: the executor's prepared statement shapes.

A shape (index candidates, compiled predicate / targets / assignments,
output names) is built on a statement's first execution and reused for
every later execution of the *same AST object* — the engine's statement
cache and the distributed plan cache both hand the executor identical
objects — until DDL bumps the catalog epoch. These tests execute one
parsed AST repeatedly and require it to behave like a freshly parsed
statement every time, in particular across DDL.
"""

import pytest

from repro import PostgresInstance
from repro.engine.catalog import Column, IndexDef, Table
from repro.engine.index import BTreeIndex, index_key_values
from repro.sql import parse, parse_expression

from .conftest import explain_text


def fresh(session, sql, params=None):
    """Execute a newly parsed AST: no shape can be cached for it."""
    return session.execute_parsed(parse(sql)[0], params)


def same_as_fresh(session, stmt, sql, params=None):
    """Execute the long-lived AST ``stmt`` and a fresh parse of the same
    text; assert identical columns and rows; return the result."""
    reused = session.execute_parsed(stmt, params)
    reference = fresh(session, sql, params)
    assert reused.columns == reference.columns
    assert reused.rows == reference.rows
    return reused


@pytest.fixture
def items(session):
    session.execute("CREATE TABLE items (k int PRIMARY KEY, grp int, v int)")
    session.copy_rows("items", [[k, k % 5, 0] for k in range(1, 41)])
    return session


class TestInvalidationOnLocalTable:
    def test_create_and_drop_index_change_the_access_path(self, items):
        sql = "SELECT k FROM items WHERE grp = :g ORDER BY k"
        stmt = parse(sql)[0]
        params = {"g": 3}
        expected = [[k] for k in range(1, 41) if k % 5 == 3]

        def index_lookups(run):
            before = items.stats["index_lookups"]
            run()
            return items.stats["index_lookups"] - before

        assert same_as_fresh(items, stmt, sql, params).rows == expected
        assert index_lookups(lambda: items.execute_parsed(stmt, params)) == 0

        items.execute("CREATE INDEX items_grp ON items (grp)")
        assert same_as_fresh(items, stmt, sql, params).rows == expected
        assert index_lookups(lambda: items.execute_parsed(stmt, params)) == 1
        assert "Index Scan using items_grp" in explain_text(items, sql, params)

        items.execute("DROP INDEX items_grp")
        # The dropped index is neither probed nor looked up by name.
        assert same_as_fresh(items, stmt, sql, params).rows == expected
        assert index_lookups(lambda: items.execute_parsed(stmt, params)) == 0
        assert "Seq Scan on items" in explain_text(items, sql, params)

    def test_select_star_sees_an_added_column(self, items):
        sql = "SELECT * FROM items WHERE k = 7"
        stmt = parse(sql)[0]
        assert same_as_fresh(items, stmt, sql).columns == ["k", "grp", "v"]
        items.execute("ALTER TABLE items ADD COLUMN note text DEFAULT 'n/a'")
        result = same_as_fresh(items, stmt, sql)
        assert result.columns == ["k", "grp", "v", "note"]
        assert result.rows == [[7, 2, 0, "n/a"]]
        items.execute("ALTER TABLE items DROP COLUMN grp")
        assert same_as_fresh(items, stmt, sql).rows == [[7, 0, "n/a"]]

    def test_update_assignment_slots_follow_a_dropped_column(self, items):
        sql = "UPDATE items SET v = v + :d WHERE k = :k RETURNING *"
        stmt = parse(sql)[0]
        assert items.execute_parsed(stmt, {"d": 5, "k": 9}).rows == [[9, 4, 5]]
        items.execute("ALTER TABLE items DROP COLUMN grp")  # v moves to slot 1
        assert items.execute_parsed(stmt, {"d": 5, "k": 9}).rows == [[9, 10]]
        assert items.execute("SELECT v FROM items WHERE k = 9").rows == [[10]]

    def test_delete_returning_and_recreated_table(self, items):
        sql = "DELETE FROM items WHERE k = :k RETURNING k, v"
        stmt = parse(sql)[0]
        assert items.execute_parsed(stmt, {"k": 1}).rows == [[1, 0]]
        items.execute("DROP TABLE items")
        items.execute("CREATE TABLE items (v text, k int)")
        items.execute("INSERT INTO items VALUES ('x', 1)")
        assert items.execute_parsed(stmt, {"k": 1}).rows == [[1, "x"]]

    def test_shapes_are_not_shared_between_instances(self):
        """Two catalogs never share an epoch, so one AST executed on two
        instances with different definitions of the same table name gets a
        shape per instance."""
        stmt = parse("SELECT * FROM t WHERE a = 1")[0]
        first, second = PostgresInstance("one").connect(), PostgresInstance("two").connect()
        first.execute("CREATE TABLE t (a int PRIMARY KEY, b int)")
        second.execute("CREATE TABLE t (z text, a int)")
        first.execute("INSERT INTO t VALUES (1, 2)")
        second.execute("INSERT INTO t VALUES ('z', 1)")
        for _ in range(2):
            assert first.execute_parsed(stmt).rows == [[1, 2]]
            assert second.execute_parsed(stmt).rows == [["z", 1]]

    def test_crash_recovery_discards_shapes(self, pg, items):
        sql = "SELECT * FROM items WHERE k = 3"
        stmt = parse(sql)[0]
        assert items.execute_parsed(stmt).rows == [[3, 3, 0]]
        pg.crash()
        pg.restart()
        session = pg.connect()
        assert same_as_fresh(session, stmt, sql).rows == [[3, 3, 0]]


class TestInvalidationOnWorkerShard:
    """The shard statement a worker receives on a plan-cache hit is the
    same AST object every time; DDL applied to the shard must still be
    seen, with no help from the coordinator's plan cache."""

    def _setup(self, citus):
        session = citus.coordinator_session()
        session.execute("CREATE TABLE accounts (k int PRIMARY KEY, grp int, v int)")
        session.execute("SELECT create_distributed_table('accounts', 'k')")
        session.copy_rows("accounts", [[k, k % 3, 0] for k in range(1, 31)])
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("accounts")
        shard = dist.shards[dist.shard_index_for_value(5)]
        worker = citus.cluster.nodes[ext.metadata.cache.placement_node(shard.shardid)]
        return session, ext, worker, f"accounts_{shard.shardid}"

    def test_ddl_on_the_shard_reaches_the_cached_shard_statement(self, citus):
        session, ext, worker, shard_name = self._setup(citus)
        sql = "SELECT * FROM accounts WHERE k = :k AND grp = :g"
        params = {"k": 5, "g": 2}
        assert session.execute(sql, params).rows == [[5, 2, 0]]
        hits = ext.stat_counters.value("plan_cache_hits")
        assert session.execute(sql, params).rows == [[5, 2, 0]]
        assert ext.stat_counters.value("plan_cache_hits") == hits + 1

        admin = worker.connect("ddl")
        admin.execute(f"ALTER TABLE {shard_name} ADD COLUMN note text DEFAULT 'new'")
        result = session.execute(sql, params)  # still a plan-cache hit
        assert ext.stat_counters.value("plan_cache_hits") == hits + 2
        assert result.columns == ["k", "grp", "v", "note"]
        assert result.rows == [[5, 2, 0, "new"]]

    def test_shard_statement_across_index_ddl(self, citus):
        _session, _ext, worker, shard_name = self._setup(citus)
        ws = worker.connect("shard-stmt")
        sql = f"SELECT k FROM {shard_name} accounts WHERE grp = :g ORDER BY k"
        stmt = parse(sql)[0]
        expected = fresh(ws, sql, {"g": 2}).rows
        assert expected and same_as_fresh(ws, stmt, sql, {"g": 2}).rows == expected
        ws.execute(f"CREATE INDEX shard_grp ON {shard_name} (grp)")
        before = ws.stats["index_lookups"]
        assert ws.execute_parsed(stmt, {"g": 2}).rows == expected
        assert ws.stats["index_lookups"] == before + 1
        ws.execute("DROP INDEX shard_grp")
        assert ws.execute_parsed(stmt, {"g": 2}).rows == expected
        assert ws.stats["index_lookups"] == before + 1


class TestShapeExecution:
    def test_key_expressions_are_evaluated_per_execution(self, items):
        stmt = parse("SELECT v FROM items WHERE k = :k")[0]
        items.execute("UPDATE items SET v = k * 10")
        for k in (3, 17, 40, 3):
            assert items.execute_parsed(stmt, {"k": k}).rows == [[k * 10]]
        assert items.execute_parsed(stmt, {"k": 999}).rows == []

    def test_constant_on_the_left_is_flipped(self, items):
        """``5 < k`` constrains k from below. (Before shapes, the flipped
        operator was computed and then dropped, so the index returned
        ``k <= 5`` and the recheck filtered every row out.)"""
        assert items.execute("SELECT count(*) FROM items WHERE 35 < k").rows == [[5]]
        assert items.execute("SELECT k FROM items WHERE 39 <= k ORDER BY k").rows == [[39], [40]]
        assert items.execute("SELECT k FROM items WHERE 2 > k").rows == [[1]]
        assert "Index Scan using items_pkey" in explain_text(
            items, "SELECT k FROM items WHERE 35 < k")

    def test_scan_statistics_do_not_depend_on_shape_reuse(self, items):
        """The perf model reads index_lookups / tuples_scanned / pages_read,
        so the first (shape-building) and later executions charge alike."""
        statements = [
            ("SELECT v FROM items WHERE k = :k", {"k": 4}),
            ("SELECT k FROM items WHERE k BETWEEN 5 AND 9", None),
            ("SELECT count(*) FROM items WHERE grp = 1", None),
            ("UPDATE items SET v = v + 1 WHERE k = :k", {"k": 4}),
        ]
        keys = ("index_lookups", "tuples_scanned", "pages_read")
        for sql, params in statements:
            stmt = parse(sql)[0]
            charged = []
            for _ in range(3):
                before = [items.stats[key] for key in keys]
                items.execute_parsed(stmt, params)
                charged.append([items.stats[key] - b for key, b in zip(keys, before)])
            assert charged[0] == charged[1] == charged[2], sql

    def test_unbound_parameter_falls_back_to_the_recheck(self, items):
        stmt = parse("SELECT k FROM items WHERE k = :missing")[0]
        for _ in range(2):
            with pytest.raises(Exception, match="missing"):
                items.execute_parsed(stmt, {})

    def test_subquery_callback_is_built_once_per_params_object(self, items):
        from repro.engine.executor import LocalExecutor
        from repro.engine.expr import EMPTY_LAYOUT

        executor = LocalExecutor(items)
        params = {"k": 1}
        first = executor._ctx(EMPTY_LAYOUT, params)
        assert executor._ctx(EMPTY_LAYOUT, params).subquery_executor is first.subquery_executor
        other = executor._ctx(EMPTY_LAYOUT, {"k": 1})
        assert other.subquery_executor is not first.subquery_executor


class TestIndexKeyValues:
    def _table(self):
        return Table("t", [Column("a", "int"), Column("name", "text")])

    def test_plain_columns_are_read_by_position(self):
        table = self._table()
        index = IndexDef("i", "t", [parse_expression("name"), parse_expression("t.a")])
        index.data = BTreeIndex(2)
        assert index_key_values(table, index, [7, "Ada"]) == ["Ada", 7]

    def test_expressions_are_evaluated_over_the_row(self):
        table = self._table()
        index = IndexDef("i", "t", [parse_expression("lower(name)"), parse_expression("a")])
        index.data = BTreeIndex(2)
        assert index_key_values(table, index, [7, "Ada"]) == ["ada", 7]

    def test_expression_index_is_maintained_by_insert_backfill_and_replay(self, pg, session):
        session.execute("CREATE TABLE people (id int PRIMARY KEY, name text)")
        session.execute("INSERT INTO people VALUES (1, 'Ada')")
        session.execute("CREATE INDEX people_lower ON people (lower(name))")  # backfill
        session.execute("INSERT INTO people VALUES (2, 'Bob')")  # insert
        pg.crash()
        pg.restart()  # replay
        data = pg.catalog.get_table("people").indexes["people_lower"].data
        assert [len(data.scan_equal([name])) for name in ("ada", "bob", "Ada")] == [1, 1, 0]
