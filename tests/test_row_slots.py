"""Semantics the row-slot representation must keep.

The engine's rows are ``(shared layout, flat values)``: column references
compile to slot reads, joins concatenate value lists, and aggregation /
sorting / joins are prepared once per statement shape. Every case here
runs twice on one parsed AST — the first execution builds the shapes
(layouts, compiled closures), the second reuses them — and both must
agree, result for result and error for error.
"""

import pytest

from repro import PostgresInstance
from repro.engine.expr import AmbiguousColumn
from repro.errors import CatalogError, LockTimeout
from repro.sql import parse


@pytest.fixture
def pg():
    return PostgresInstance("slots")


@pytest.fixture
def s(pg):
    session = pg.connect()
    session.execute("CREATE TABLE a (id int PRIMARY KEY, x int, tag text)")
    session.execute("CREATE TABLE b (id int PRIMARY KEY, a_id int, y int)")
    session.execute("CREATE TABLE c (id int PRIMARY KEY, b_id int, z text)")
    session.execute("INSERT INTO a VALUES (1, 10, 'p'), (2, 20, 'q'), (3, 30, 'p')")
    session.execute("INSERT INTO b VALUES (1, 1, 100), (2, 1, 200), (3, 2, 300), (4, 9, 900)")
    session.execute("INSERT INTO c VALUES (1, 1, 'c1'), (2, 3, 'c3')")
    return session


def twice(session, sql, params=None):
    """Execute one parsed AST twice (shape-building, then shape-reusing);
    both executions must return the same thing, which is returned."""
    stmt = parse(sql)[0]
    first = session.execute_parsed(stmt, params)
    second = session.execute_parsed(stmt, params)
    assert first.columns == second.columns, sql
    assert first.rows == second.rows, sql
    return second


def twice_raises(session, sql, error, match):
    stmt = parse(sql)[0]
    for _ in range(2):
        with pytest.raises(error, match=match):
            session.execute_parsed(stmt, None)


class TestNameResolution:
    def test_ambiguous_unqualified_column_after_a_join(self, s):
        twice_raises(s, "SELECT id FROM a JOIN b ON a.id = b.a_id",
                     AmbiguousColumn, "column reference 'id' is ambiguous")
        twice_raises(s, "SELECT a.x FROM a JOIN b ON a.id = b.a_id WHERE id = 1",
                     AmbiguousColumn, "column reference 'id' is ambiguous")
        rows = twice(s, "SELECT a.id, b.id FROM a JOIN b ON a.id = b.a_id"
                        " ORDER BY b.id").rows
        assert rows == [[1, 1], [1, 2], [2, 3]]

    def test_unknown_columns_keep_their_messages(self, s):
        twice_raises(s, "SELECT nope FROM a", CatalogError,
                     "column 'nope' does not exist")
        twice_raises(s, "SELECT a.nope FROM a", CatalogError,
                     "column 'a.nope' does not exist")
        twice_raises(s, "SELECT z.x FROM a", CatalogError,
                     "column 'z.x' does not exist")
        # No row, no evaluation, no error — as before.
        assert twice(s, "SELECT nope FROM a WHERE id = 99").rows == []

    def test_self_join_under_two_aliases(self, s):
        rows = twice(s, "SELECT l.id, r.id FROM a l JOIN a r ON l.tag = r.tag"
                        " WHERE l.id < r.id").rows
        assert rows == [[1, 3]]

    def test_star_over_two_and_three_way_joins(self, s):
        r = twice(s, "SELECT * FROM a JOIN b ON a.id = b.a_id ORDER BY b.id")
        assert r.columns == ["id", "x", "tag", "id", "a_id", "y"]
        assert r.rows[0] == [1, 10, "p", 1, 1, 100]
        r = twice(s, "SELECT b.*, a.tag FROM a JOIN b ON a.id = b.a_id ORDER BY b.id")
        assert r.columns == ["id", "a_id", "y", "tag"]
        assert r.rows == [[1, 1, 100, "p"], [2, 1, 200, "p"], [3, 2, 300, "q"]]
        r = twice(s, "SELECT * FROM a JOIN b ON a.id = b.a_id"
                     " JOIN c ON c.b_id = b.id ORDER BY c.id")
        assert r.columns == ["id", "x", "tag", "id", "a_id", "y", "id", "b_id", "z"]
        assert r.rows == [[1, 10, "p", 1, 1, 100, 1, 1, "c1"],
                          [2, 20, "q", 3, 2, 300, 2, 3, "c3"]]
        r = twice(s, "SELECT c.*, a.* FROM a, b, c"
                     " WHERE a.id = b.a_id AND c.b_id = b.id ORDER BY c.id")
        assert r.rows == [[1, 1, "c1", 1, 10, "p"], [2, 3, "c3", 2, 20, "q"]]

    def test_join_using(self, s):
        r = twice(s, "SELECT a.tag, b.y FROM a JOIN b USING (id) ORDER BY a.id")
        assert r.rows == [["p", 100], ["q", 200], ["p", 300]]
        r = twice(s, "SELECT * FROM a JOIN b USING (id) WHERE a.id = 2")
        assert r.rows == [[2, 20, "q", 2, 1, 200]]


class TestOuterJoins:
    def test_left_join_null_extends_the_right_side(self, s):
        rows = twice(s, "SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.a_id"
                        " ORDER BY a.id, b.y").rows
        assert rows == [[1, 100], [1, 200], [2, 300], [3, None]]

    def test_right_join_null_extends_the_left_side(self, s):
        r = twice(s, "SELECT * FROM a RIGHT JOIN b ON a.id = b.a_id ORDER BY b.id")
        assert r.columns == ["id", "x", "tag", "id", "a_id", "y"]
        assert r.rows[-1] == [None, None, None, 4, 9, 900]
        assert r.rows[0] == [1, 10, "p", 1, 1, 100]

    def test_full_join_keeps_both_sides(self, s):
        rows = twice(s, "SELECT a.id, b.id FROM a FULL JOIN b ON a.id = b.a_id").rows
        assert sorted(rows, key=repr) == sorted(
            [[1, 1], [1, 2], [2, 3], [3, None], [None, 4]], key=repr)

    def test_non_equi_outer_join_runs_as_nested_loops(self, s):
        rows = twice(s, "SELECT a.id, b.id FROM a LEFT JOIN b ON b.y > a.x * 20"
                        " ORDER BY a.id, b.id").rows
        assert rows == [[1, 3], [1, 4], [2, 4], [3, 4]]

    def test_residual_condition_is_rechecked_on_hash_matches(self, s):
        rows = twice(s, "SELECT a.id, b.id FROM a LEFT JOIN b"
                        " ON a.id = b.a_id AND b.y > 100 ORDER BY a.id").rows
        assert rows == [[1, 2], [2, 3], [3, None]]

    def test_null_keys_join_nothing(self, s):
        s.execute("INSERT INTO b VALUES (5, NULL, 500), (6, NULL, 600)")
        s.execute("INSERT INTO a VALUES (4, NULL, 'n')")
        assert twice(s, "SELECT count(*) FROM a JOIN b ON a.id = b.a_id").rows == [[3]]
        assert twice(s, "SELECT count(*) FROM a JOIN b ON a.x = b.a_id").rows == [[0]]
        rows = twice(s, "SELECT b.id, a.id FROM b LEFT JOIN a ON a.x = b.a_id"
                        " WHERE b.id >= 5 ORDER BY b.id").rows
        assert rows == [[5, None], [6, None]]


class TestSubqueries:
    def test_two_level_correlated_subquery_reads_a_grandparent_column(self, s):
        # The innermost query reads a.id two scopes up.
        rows = twice(s, """
            SELECT a.id FROM a
            WHERE EXISTS (
                SELECT 1 FROM b WHERE b.a_id = a.id AND EXISTS (
                    SELECT 1 FROM c WHERE c.b_id = b.id AND c.id <= a.id))
            ORDER BY a.id""").rows
        assert rows == [[1], [2]]

    def test_correlated_scalar_subquery_in_the_target_list(self, s):
        rows = twice(s, "SELECT a.id, (SELECT sum(b.y) FROM b WHERE b.a_id = a.id)"
                        " FROM a ORDER BY a.id").rows
        assert rows == [[1, 300], [2, 300], [3, None]]

    def test_uncorrelated_subquery_runs_once(self, s):
        stmt = parse("SELECT id FROM a WHERE x > (SELECT min(y) FROM b) / 10"
                     " ORDER BY id")[0]
        for _ in range(2):
            before = s.stats["tuples_scanned"]
            assert s.execute_parsed(stmt, None).rows == [[2], [3]]
            # One scan of a (3 rows) and ONE of b (4 rows) — not one per a row.
            assert s.stats["tuples_scanned"] - before == 7


class TestAggregation:
    def test_group_by_position_alias_and_expression(self, s):
        expected = [["p", 2, 40], ["q", 1, 20]]
        assert twice(s, "SELECT tag, count(*), sum(x) FROM a GROUP BY 1 ORDER BY 1").rows == expected
        assert twice(s, "SELECT tag AS t, count(*), sum(x) FROM a GROUP BY t ORDER BY t").rows == expected
        rows = twice(s, "SELECT x / 20, count(*) FROM a GROUP BY x / 20 ORDER BY 1").rows
        assert rows == [[0, 1], [1, 2]]

    def test_having_and_order_by_an_aggregate_not_in_the_targets(self, s):
        assert twice(s, "SELECT tag FROM a GROUP BY tag HAVING count(*) > 1").rows == [["p"]]
        rows = twice(s, "SELECT a_id FROM b GROUP BY a_id ORDER BY sum(y) DESC, a_id").rows
        assert rows == [[9], [1], [2]]
        rows = twice(s, "SELECT a_id, count(*) AS n FROM b GROUP BY a_id"
                        " ORDER BY n DESC, max(y)").rows
        assert rows == [[1, 2], [2, 1], [9, 1]]

    def test_count_distinct_and_filter(self, s):
        rows = twice(s, "SELECT count(DISTINCT tag), count(DISTINCT x),"
                        " count(*) FILTER (WHERE x > 10),"
                        " sum(x) FILTER (WHERE tag = 'p') FROM a").rows
        assert rows == [[2, 3, 2, 40]]

    def test_aggregate_over_empty_input(self, s):
        rows = twice(s, "SELECT count(*), sum(x), min(tag) FROM a WHERE id > 99").rows
        assert rows == [[0, None, None]]
        assert twice(s, "SELECT tag, count(*) FROM a WHERE id > 99 GROUP BY tag").rows == []

    def test_expression_over_aggregates_and_group_columns(self, s):
        rows = twice(s, "SELECT tag, sum(x) / count(*) + 1,"
                        " CASE WHEN count(*) > 1 THEN 'many' ELSE tag END"
                        " FROM a GROUP BY tag ORDER BY tag").rows
        assert rows == [["p", 21, "many"], ["q", 21, "q"]]

    def test_aggregate_over_a_join(self, s):
        rows = twice(s, "SELECT a.tag, count(*), sum(b.y) FROM a JOIN b"
                        " ON a.id = b.a_id GROUP BY a.tag ORDER BY a.tag").rows
        assert rows == [["p", 2, 300], ["q", 1, 300]]


class TestOrdering:
    def test_window_function_with_order_by_alias(self, s):
        rows = twice(s, "SELECT id, row_number() OVER (PARTITION BY tag ORDER BY x DESC) AS rn,"
                        " sum(x) OVER (ORDER BY id) AS running"
                        " FROM a ORDER BY rn DESC, id").rows
        assert rows == [[1, 2, 10], [2, 1, 30], [3, 1, 60]]

    def test_order_by_input_column_output_position_and_expression(self, s):
        assert twice(s, "SELECT tag FROM a ORDER BY x DESC").rows == [["p"], ["q"], ["p"]]
        assert twice(s, "SELECT id, x FROM a ORDER BY 2 DESC").rows[0] == [3, 30]
        assert twice(s, "SELECT id FROM a ORDER BY -x, id").rows == [[3], [2], [1]]
        rows = twice(s, "SELECT tag, x FROM a ORDER BY tag DESC, x DESC").rows
        assert rows == [["q", 20], ["p", 30], ["p", 10]]

    def test_nulls_order_with_mixed_directions(self, s):
        s.execute("INSERT INTO a VALUES (4, NULL, 'p'), (5, NULL, 'q')")
        rows = twice(s, "SELECT tag, x FROM a ORDER BY tag, x DESC").rows
        assert rows == [["p", None], ["p", 30], ["p", 10], ["q", None], ["q", 20]]
        rows = twice(s, "SELECT tag, x FROM a ORDER BY tag DESC, x NULLS FIRST").rows
        assert rows == [["q", None], ["q", 20], ["p", None], ["p", 10], ["p", 30]]

    def test_distinct_on_keeps_the_first_row_in_order(self, s):
        rows = twice(s, "SELECT DISTINCT ON (tag) tag, id FROM a ORDER BY tag, x DESC").rows
        assert rows == [["p", 3], ["q", 2]]


class TestLockingAndDml:
    def _row_ids(self, pg, table, ids):
        heap = pg.catalog.get_table(table).heap
        return {(table, tup.row_id) for tup in heap.tuples if tup.values[0] in ids}

    def test_select_for_update_over_a_join_locks_the_joined_rows(self, pg, s):
        stmt = parse("SELECT a.id, b.id FROM a JOIN b ON a.id = b.a_id"
                     " WHERE b.y >= 200 FOR UPDATE")[0]
        for _ in range(2):
            s.execute("BEGIN")
            rows = s.execute_parsed(stmt, None).rows
            assert sorted(rows) == [[1, 2], [2, 3]]
            held = set(pg.locks._row_locks)
            assert held == (self._row_ids(pg, "a", {1, 2})
                            | self._row_ids(pg, "b", {2, 3}))
            s.execute("ROLLBACK")
            assert not pg.locks._row_locks

    def test_for_update_with_an_outer_join_skips_the_null_side(self, pg, s):
        s.execute("BEGIN")
        rows = twice(s, "SELECT a.id FROM a LEFT JOIN b ON a.id = b.a_id"
                        " WHERE a.id = 3 FOR UPDATE").rows
        assert rows == [[3]]
        assert set(pg.locks._row_locks) == self._row_ids(pg, "a", {3})
        s.execute("ROLLBACK")

    def test_explain_does_not_strip_the_row_locks(self, pg, s):
        # EXPLAIN builds the scan shape the execution then reuses: it must
        # be the locking one, both for EXPLAIN ANALYZE and for a later
        # execution of the explained AST.
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("EXPLAIN ANALYZE SELECT * FROM a WHERE id = 1 FOR UPDATE")
        assert set(pg.locks._row_locks) == self._row_ids(pg, "a", {1})
        with pytest.raises(LockTimeout):
            other.execute("UPDATE a SET x = 0 WHERE id = 1")
        s.execute("ROLLBACK")
        stmt = parse("EXPLAIN SELECT * FROM a WHERE id = 2 FOR UPDATE")[0]
        s.execute_parsed(stmt, None)
        s.execute("BEGIN")
        assert s.execute_parsed(stmt.statement, None).rows == [[2, 20, "q"]]
        assert set(pg.locks._row_locks) == self._row_ids(pg, "a", {2})
        s.execute("ROLLBACK")

    def test_update_returning_sees_the_new_row(self, s):
        stmt = parse("UPDATE a SET x = x + id WHERE tag = 'p'"
                     " RETURNING id, x, a.x * 2 AS doubled")[0]
        r = s.execute_parsed(stmt, None)
        assert r.columns == ["id", "x", "doubled"]
        assert sorted(r.rows) == [[1, 11, 22], [3, 33, 66]]
        assert sorted(s.execute_parsed(stmt, None).rows) == [[1, 12, 24], [3, 36, 72]]

    def test_delete_and_insert_returning(self, s):
        stmt = parse("INSERT INTO a VALUES (:id, :x, 'new') RETURNING *, x + 1")[0]
        assert s.execute_parsed(stmt, {"id": 7, "x": 70}).rows == [[7, 70, "new", 71]]
        assert s.execute_parsed(stmt, {"id": 8, "x": 80}).rows == [[8, 80, "new", 81]]
        delete = parse("DELETE FROM a WHERE tag = 'new' AND id = :id"
                       " RETURNING id, a.tag, x / 10")[0]
        assert s.execute_parsed(delete, {"id": 7}).rows == [[7, "new", 7]]
        assert s.execute_parsed(delete, {"id": 8}).rows == [[8, "new", 8]]
        assert s.execute_parsed(delete, {"id": 8}).rows == []

    def test_on_conflict_do_update_reads_existing_and_excluded(self, s):
        stmt = parse("INSERT INTO a VALUES (:id, :x, 'up') ON CONFLICT (id)"
                     " DO UPDATE SET x = a.x + excluded.x, tag = excluded.tag")[0]
        s.execute_parsed(stmt, {"id": 1, "x": 5})
        s.execute_parsed(stmt, {"id": 1, "x": 7})
        s.execute_parsed(stmt, {"id": 50, "x": 1})
        rows = s.execute("SELECT id, x, tag FROM a WHERE id IN (1, 50) ORDER BY id").rows
        assert rows == [[1, 22, "up"], [50, 1, "up"]]
        # An unqualified name is the existing row's column.
        s.execute("INSERT INTO a VALUES (1, 100, 'z') ON CONFLICT (id)"
                  " DO UPDATE SET x = x + 1")
        assert s.execute("SELECT x FROM a WHERE id = 1").scalar() == 23


class TestLayoutFollowsTheCatalog:
    def test_same_ast_after_alter_table_add_column(self, s):
        star = parse("SELECT * FROM a WHERE id = 1")[0]
        joined = parse("SELECT * FROM a JOIN b ON a.id = b.a_id WHERE b.id = 1")[0]
        grouped = parse("SELECT tag, count(*) FROM a GROUP BY tag ORDER BY tag")[0]
        assert s.execute_parsed(star, None).rows == [[1, 10, "p"]]
        assert s.execute_parsed(joined, None).rows == [[1, 10, "p", 1, 1, 100]]
        assert s.execute_parsed(grouped, None).rows == [["p", 2], ["q", 1]]
        s.execute("ALTER TABLE a ADD COLUMN extra int")
        s.execute("UPDATE a SET extra = id * 7 WHERE id = 1")
        for _ in range(2):
            r = s.execute_parsed(star, None)
            assert r.columns == ["id", "x", "tag", "extra"]
            assert r.rows == [[1, 10, "p", 7]]
            assert s.execute_parsed(joined, None).rows == [[1, 10, "p", 7, 1, 1, 100]]
            assert s.execute_parsed(grouped, None).rows == [["p", 2], ["q", 1]]
            assert s.execute_parsed(parse("SELECT * FROM a WHERE id = 1")[0],
                                    None).rows == r.rows

    def test_one_ast_on_two_instances(self):
        """Compiled closures are cached per AST; a layout belongs to a
        relation shape, so instances with different tables under one name
        must not read each other's slots."""
        stmt = parse("SELECT v FROM t WHERE k = 1")[0]
        first, second = PostgresInstance("one").connect(), PostgresInstance("two").connect()
        first.execute("CREATE TABLE t (k int, v text)")
        second.execute("CREATE TABLE t (pad int, v text, k int)")
        first.execute("INSERT INTO t VALUES (1, 'first')")
        second.execute("INSERT INTO t VALUES (0, 'second', 1)")
        for _ in range(2):
            assert first.execute_parsed(stmt, None).rows == [["first"]]
            assert second.execute_parsed(stmt, None).rows == [["second"]]
