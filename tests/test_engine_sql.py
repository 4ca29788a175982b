"""End-to-end SQL tests against a single engine instance: the PostgreSQL
substrate Citus builds on."""

import pytest

from repro.errors import (
    CatalogError,
    DataError,
    ForeignKeyViolation,
    NotNullViolation,
    UniqueViolation,
)


@pytest.fixture
def s(session):
    session.execute(
        "CREATE TABLE t (id serial PRIMARY KEY, k int, v text, f float)"
    )
    session.execute(
        "INSERT INTO t (k, v, f) VALUES"
        " (1, 'a', 1.5), (1, 'b', 2.5), (2, 'c', 3.5), (2, 'd', NULL), (3, NULL, 5.0)"
    )
    return session


class TestSelectBasics:
    def test_select_constant_no_from(self, session):
        assert session.execute("SELECT 1 + 2").scalar() == 3

    def test_projection_and_alias(self, s):
        r = s.execute("SELECT k AS key, v FROM t WHERE id = 1")
        assert r.columns == ["key", "v"]
        assert r.rows == [[1, "a"]]

    def test_star(self, s):
        r = s.execute("SELECT * FROM t WHERE id = 3")
        assert r.columns == ["id", "k", "v", "f"]

    def test_where_filters(self, s):
        assert s.execute("SELECT count(*) FROM t WHERE k = 1").scalar() == 2

    def test_where_null_comparison_excludes(self, s):
        # NULL = NULL is not true
        assert s.execute("SELECT count(*) FROM t WHERE v = NULL").scalar() == 0

    def test_is_null(self, s):
        assert s.execute("SELECT count(*) FROM t WHERE v IS NULL").scalar() == 1

    def test_order_by_desc_with_null(self, s):
        rows = s.execute("SELECT f FROM t ORDER BY f DESC").rows
        assert rows[0][0] is None  # PostgreSQL: NULLS FIRST on DESC
        assert rows[1][0] == 5.0

    def test_order_by_nulls_last(self, s):
        rows = s.execute("SELECT f FROM t ORDER BY f DESC NULLS LAST").rows
        assert rows[-1][0] is None

    def test_order_by_positional(self, s):
        rows = s.execute("SELECT k, f FROM t WHERE f IS NOT NULL ORDER BY 2 DESC").rows
        assert rows[0][1] == 5.0

    def test_limit_offset(self, s):
        rows = s.execute("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1").rows
        assert rows == [[2], [3]]

    def test_distinct(self, s):
        rows = s.execute("SELECT DISTINCT k FROM t ORDER BY k").rows
        assert rows == [[1], [2], [3]]

    def test_distinct_on(self, s):
        rows = s.execute("SELECT DISTINCT ON (k) k, v FROM t ORDER BY k, v").rows
        assert rows == [[1, "a"], [2, "c"], [3, None]]

    def test_in_list(self, s):
        assert s.execute("SELECT count(*) FROM t WHERE k IN (1, 3)").scalar() == 3

    def test_between(self, s):
        assert s.execute("SELECT count(*) FROM t WHERE f BETWEEN 2 AND 4").scalar() == 2

    def test_case_expression(self, s):
        rows = s.execute(
            "SELECT id, CASE WHEN k = 1 THEN 'one' ELSE 'many' END FROM t ORDER BY id"
        ).rows
        assert rows[0][1] == "one" and rows[2][1] == "many"

    def test_union_all_and_except(self, session):
        rows = session.execute("SELECT 1 UNION ALL SELECT 1 UNION ALL SELECT 2").rows
        assert len(rows) == 3
        rows = session.execute("SELECT 1 UNION SELECT 1").rows
        assert len(rows) == 1

    def test_generate_series(self, session):
        rows = session.execute("SELECT i FROM generate_series(1, 4) AS g (i)").rows
        assert [r[0] for r in rows] == [1, 2, 3, 4]

    def test_cte(self, s):
        rows = s.execute(
            "WITH big AS (SELECT * FROM t WHERE f > 2)"
            " SELECT count(*) FROM big"
        ).rows
        assert rows == [[3]]  # f in {2.5, 3.5, 5.0}


BIG = 2**53  # beyond here float() collapses neighbouring integers


class TestNeighbouringBigints:
    """Grouping, hashing and ordering keys must keep bigints exact: built
    through ``float`` they collapse 2**53 and 2**53 + 1 into one value."""

    @pytest.fixture
    def big(self, session):
        session.execute("CREATE TABLE big (a bigint, tag text)")
        session.execute(
            f"INSERT INTO big VALUES ({BIG + 1}, 'odd'), ({BIG}, 'even'),"
            f" ({BIG + 1}, 'odd again')")
        session.execute("CREATE TABLE other (a bigint)")
        session.execute(f"INSERT INTO other VALUES ({BIG})")
        return session

    def test_group_by(self, big):
        rows = big.execute("SELECT a, count(*) FROM big GROUP BY a ORDER BY a").rows
        assert rows == [[BIG, 1], [BIG + 1, 2]]

    def test_distinct_and_count_distinct(self, big):
        assert sorted(big.execute("SELECT DISTINCT a FROM big").rows) == [[BIG], [BIG + 1]]
        assert big.execute("SELECT count(DISTINCT a) FROM big").scalar() == 2

    def test_hash_join(self, big):
        rows = big.execute(
            "SELECT big.tag FROM big JOIN other ON big.a = other.a").rows
        assert rows == [["even"]]

    def test_set_operations(self, big):
        assert big.execute(
            "SELECT a FROM big INTERSECT SELECT a FROM other").rows == [[BIG]]
        assert big.execute(
            "SELECT a FROM big EXCEPT SELECT a FROM other").rows == [[BIG + 1]]
        assert len(big.execute(
            "SELECT a FROM big UNION SELECT a FROM other").rows) == 2

    def test_order_by(self, big):
        rows = big.execute("SELECT a, tag FROM big ORDER BY a DESC, tag").rows
        assert rows == [[BIG + 1, "odd"], [BIG + 1, "odd again"], [BIG, "even"]]
        assert big.execute("SELECT a FROM big ORDER BY a LIMIT 1").rows == [[BIG]]

    def test_numeric_types_still_compare_across_types(self, session):
        session.execute("CREATE TABLE n (i int, f float)")
        session.execute("INSERT INTO n VALUES (1, 1.0), (2, 2.5), (1, 1.0)")
        assert session.execute(
            "SELECT count(*) FROM n a JOIN n b ON a.i = b.f").scalar() == 4
        assert session.execute(
            "SELECT i FROM n INTERSECT SELECT f FROM n").rows == [[1]]
        assert session.execute(
            "SELECT true UNION SELECT 1 UNION SELECT 1.0").rows == [[True], [1]]

    def test_distributed_group_by(self, citus_session):
        s = citus_session
        s.execute("CREATE TABLE big (k int, a bigint)")
        s.execute("SELECT create_distributed_table('big', 'k')")
        s.execute("INSERT INTO big VALUES " + ", ".join(
            f"({k}, {BIG + k % 2})" for k in range(1, 21)))
        rows = s.execute("SELECT a, count(*) FROM big GROUP BY a ORDER BY a").rows
        assert rows == [[BIG, 10], [BIG + 1, 10]]
        assert s.execute("SELECT count(DISTINCT a) FROM big").scalar() == 2
        assert s.execute(
            "SELECT a FROM big ORDER BY a DESC, k LIMIT 1").rows == [[BIG + 1]]


class TestSetOperations:
    """All six operators, with duplicates and NULLs on both sides: the plain
    forms return distinct rows, the ALL forms count multiplicities."""

    @pytest.fixture
    def lr(self, session):
        session.execute("CREATE TABLE l (x int)")
        session.execute("CREATE TABLE r (x int)")
        session.execute("INSERT INTO l VALUES (3), (1), (1), (NULL), (2), (1), (NULL)")
        session.execute("INSERT INTO r VALUES (1), (NULL), (1), (4), (4)")
        return session

    def run(self, session, op):
        return [row[0] for row in session.execute(
            f"SELECT x FROM l {op} SELECT x FROM r").rows]

    def test_union_all(self, lr):
        assert self.run(lr, "UNION ALL") == [3, 1, 1, None, 2, 1, None, 1, None, 1, 4, 4]

    def test_union(self, lr):
        assert self.run(lr, "UNION") == [3, 1, None, 2, 4]

    def test_intersect(self, lr):
        assert self.run(lr, "INTERSECT") == [1, None]

    def test_intersect_all(self, lr):
        # min(3, 2) ones, min(2, 1) NULLs
        assert self.run(lr, "INTERSECT ALL") == [1, 1, None]

    def test_except(self, lr):
        assert self.run(lr, "EXCEPT") == [3, 2]

    def test_except_all(self, lr):
        # 3 - 2 ones and 2 - 1 NULLs survive, after the paired-off copies
        assert self.run(lr, "EXCEPT ALL") == [3, 2, 1, None]

    def test_order_by_applies_to_the_combined_result(self, lr):
        rows = lr.execute(
            "SELECT x FROM l EXCEPT ALL (SELECT x FROM r) ORDER BY x DESC").rows
        assert rows == [[None], [3], [2], [1]]


class TestAggregates:
    def test_count_sum_avg_min_max(self, s):
        row = s.execute(
            "SELECT count(*), count(f), sum(f), avg(f), min(f), max(f) FROM t"
        ).first()
        assert row[0] == 5 and row[1] == 4
        assert row[2] == pytest.approx(12.5)
        assert row[3] == pytest.approx(3.125)
        assert row[4] == 1.5 and row[5] == 5.0

    def test_group_by(self, s):
        rows = s.execute("SELECT k, count(*) FROM t GROUP BY k ORDER BY k").rows
        assert rows == [[1, 2], [2, 2], [3, 1]]

    def test_group_by_positional(self, s):
        rows = s.execute("SELECT k, count(*) FROM t GROUP BY 1 ORDER BY 1").rows
        assert len(rows) == 3

    def test_having(self, s):
        rows = s.execute(
            "SELECT k FROM t GROUP BY k HAVING count(*) > 1 ORDER BY k"
        ).rows
        assert rows == [[1], [2]]

    def test_count_distinct(self, s):
        assert s.execute("SELECT count(DISTINCT k) FROM t").scalar() == 3

    def test_aggregate_on_empty_input(self, s):
        row = s.execute("SELECT count(*), sum(f), max(v) FROM t WHERE k = 99").first()
        assert row == [0, None, None]

    def test_group_by_empty_input_no_rows(self, s):
        rows = s.execute("SELECT k, count(*) FROM t WHERE k = 99 GROUP BY k").rows
        assert rows == []

    def test_filter_clause(self, s):
        row = s.execute(
            "SELECT count(*) FILTER (WHERE k = 1), count(*) FROM t"
        ).first()
        assert row == [2, 5]

    def test_expression_over_aggregates(self, s):
        value = s.execute("SELECT sum(f) / count(f) FROM t").scalar()
        assert value == pytest.approx(12.5 / 4)

    def test_string_agg_and_array_agg(self, s):
        row = s.execute(
            "SELECT array_agg(v) FROM t WHERE k = 1"
        ).scalar()
        assert row == ["a", "b"]

    def test_stddev(self, session):
        session.execute("CREATE TABLE n (x float)")
        session.execute("INSERT INTO n VALUES (2), (4), (4), (4), (5), (5), (7), (9)")
        value = session.execute("SELECT stddev(x) FROM n").scalar()
        assert value == pytest.approx(2.138, abs=0.01)


class TestJoins:
    @pytest.fixture
    def joined(self, session):
        session.execute("CREATE TABLE a (id int PRIMARY KEY, x int)")
        session.execute("CREATE TABLE b (id int PRIMARY KEY, a_id int, y text)")
        session.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
        session.execute(
            "INSERT INTO b VALUES (1, 1, 'p'), (2, 1, 'q'), (3, 2, 'r'), (4, 9, 's')"
        )
        return session

    def test_inner_join(self, joined):
        rows = joined.execute(
            "SELECT a.x, b.y FROM a JOIN b ON a.id = b.a_id ORDER BY b.id"
        ).rows
        assert rows == [[10, "p"], [10, "q"], [20, "r"]]

    def test_left_join_null_extension(self, joined):
        rows = joined.execute(
            "SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.a_id ORDER BY a.id, b.y"
        ).rows
        assert [3, None] in rows

    def test_right_join(self, joined):
        rows = joined.execute(
            "SELECT b.id, a.x FROM a RIGHT JOIN b ON a.id = b.a_id ORDER BY b.id"
        ).rows
        assert [4, None] in rows

    def test_full_join(self, joined):
        rows = joined.execute(
            "SELECT a.id, b.id FROM a FULL JOIN b ON a.id = b.a_id"
        ).rows
        assert len(rows) == 5  # 3 matched + a.3 + b.4

    def test_cross_join(self, joined):
        assert len(joined.execute("SELECT * FROM a CROSS JOIN b").rows) == 12

    def test_comma_join_with_where_is_hash_join(self, joined):
        rows = joined.execute(
            "SELECT count(*) FROM a, b WHERE a.id = b.a_id"
        ).rows
        assert rows == [[3]]

    def test_self_join_with_aliases(self, joined):
        rows = joined.execute(
            "SELECT x.id, y.id FROM a x JOIN a y ON x.id < y.id"
        ).rows
        assert len(rows) == 3

    def test_using(self, joined):
        rows = joined.execute("SELECT count(*) FROM a JOIN b USING (id)").rows
        assert rows == [[3]]


class TestSubqueries:
    def test_scalar_subquery(self, s):
        value = s.execute("SELECT (SELECT max(f) FROM t)").scalar()
        assert value == 5.0

    def test_in_subquery(self, s):
        rows = s.execute(
            "SELECT id FROM t WHERE k IN (SELECT k FROM t WHERE f > 3) ORDER BY id"
        ).rows
        assert [r[0] for r in rows] == [3, 4, 5]

    def test_correlated_exists(self, session):
        session.execute("CREATE TABLE o (id int PRIMARY KEY)")
        session.execute("CREATE TABLE l (o_id int, qty int)")
        session.execute("INSERT INTO o VALUES (1), (2), (3)")
        session.execute("INSERT INTO l VALUES (1, 5), (3, 7)")
        rows = session.execute(
            "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM l WHERE l.o_id = o.id)"
            " ORDER BY id"
        ).rows
        assert rows == [[1], [3]]

    def test_scalar_subquery_multiple_rows_errors(self, s):
        with pytest.raises(DataError):
            s.execute("SELECT (SELECT k FROM t)")

    def test_subquery_in_from(self, s):
        value = s.execute(
            "SELECT sum(c) FROM (SELECT k, count(*) AS c FROM t GROUP BY k) AS g"
        ).scalar()
        assert value == 5


class TestDml:
    def test_insert_returning(self, s):
        r = s.execute("INSERT INTO t (k, v) VALUES (9, 'z') RETURNING id, k")
        assert r.rows[0][1] == 9

    def test_insert_defaults_and_serial(self, session):
        session.execute("CREATE TABLE d (id serial PRIMARY KEY, n int DEFAULT 7)")
        session.execute("INSERT INTO d (n) VALUES (1)")
        session.execute("INSERT INTO d DEFAULT VALUES")
        rows = session.execute("SELECT id, n FROM d ORDER BY id").rows
        assert rows == [[1, 1], [2, 7]]

    def test_update_rowcount(self, s):
        r = s.execute("UPDATE t SET v = 'updated' WHERE k = 1")
        assert r.rowcount == 2

    def test_update_expression_references_old_value(self, s):
        s.execute("UPDATE t SET f = f * 2 WHERE id = 1")
        assert s.execute("SELECT f FROM t WHERE id = 1").scalar() == 3.0

    def test_delete_returning(self, s):
        r = s.execute("DELETE FROM t WHERE k = 3 RETURNING id")
        assert r.rowcount == 1 and r.rows == [[5]]

    def test_unique_violation(self, s):
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO t (id, k) VALUES (1, 5)")

    def test_not_null_violation(self, session):
        session.execute("CREATE TABLE nn (a int NOT NULL)")
        with pytest.raises(NotNullViolation):
            session.execute("INSERT INTO nn VALUES (NULL)")

    def test_on_conflict_do_nothing(self, s):
        r = s.execute("INSERT INTO t (id, k) VALUES (1, 99) ON CONFLICT DO NOTHING")
        assert r.rowcount == 0
        assert s.execute("SELECT k FROM t WHERE id = 1").scalar() == 1

    def test_on_conflict_do_update_with_excluded(self, session):
        session.execute("CREATE TABLE kv (k int PRIMARY KEY, v int)")
        session.execute("INSERT INTO kv VALUES (1, 10)")
        session.execute(
            "INSERT INTO kv VALUES (1, 20) ON CONFLICT (k) DO UPDATE SET v = excluded.v"
        )
        assert session.execute("SELECT v FROM kv WHERE k = 1").scalar() == 20

    def test_update_unique_violation(self, session):
        session.execute("CREATE TABLE u (k int PRIMARY KEY)")
        session.execute("INSERT INTO u VALUES (1), (2)")
        with pytest.raises(UniqueViolation):
            session.execute("UPDATE u SET k = 1 WHERE k = 2")


class TestColumnLists:
    """A statement's column list is validated once, by its write shape:
    PostgreSQL's ``column "nope" of relation "t" does not exist`` and
    ``column "k" specified more than once``. (Both used to succeed: the
    unknown column's value was dropped, the duplicate's first one taken.)"""

    @pytest.fixture
    def cl(self, session):
        session.execute("CREATE TABLE cl (k int PRIMARY KEY, v int)")
        session.execute("CREATE TABLE src (a int, b int)")
        session.execute("INSERT INTO src VALUES (1, 2)")
        return session

    UNKNOWN = "column 'nope' of relation 'cl' does not exist"
    TWICE = "column 'k' specified more than once"

    def test_insert_values(self, cl):
        with pytest.raises(CatalogError) as unknown:
            cl.execute("INSERT INTO cl (k, nope) VALUES (3, 4)")
        assert str(unknown.value) == self.UNKNOWN
        with pytest.raises(CatalogError) as twice:
            cl.execute("INSERT INTO cl (k, k) VALUES (1, 2)")
        assert str(twice.value) == self.TWICE
        assert cl.execute("SELECT count(*) FROM cl").scalar() == 0

    def test_copy(self, cl):
        with pytest.raises(CatalogError) as unknown:
            cl.copy_rows("cl", [[3, 4]], ["k", "nope"])
        assert str(unknown.value) == self.UNKNOWN
        with pytest.raises(CatalogError) as twice:
            cl.copy_rows("cl", [[1, 2]], ["k", "k"])
        assert str(twice.value) == self.TWICE
        with pytest.raises(CatalogError):
            cl.execute("COPY cl (k, nope) FROM STDIN WITH (FORMAT csv)",
                       copy_data="3,4\n")
        assert cl.execute("SELECT count(*) FROM cl").scalar() == 0

    def test_insert_select(self, cl):
        with pytest.raises(CatalogError) as unknown:
            cl.execute("INSERT INTO cl (k, nope) SELECT a, b FROM src")
        assert str(unknown.value) == self.UNKNOWN
        with pytest.raises(CatalogError) as twice:
            cl.execute("INSERT INTO cl (k, k) SELECT a, b FROM src")
        assert str(twice.value) == self.TWICE
        assert cl.execute("SELECT count(*) FROM cl").scalar() == 0

    def test_a_valid_list_in_another_order_still_works(self, cl):
        cl.execute("INSERT INTO cl (v, k) VALUES (10, 1)")
        cl.copy_rows("cl", [[20, 2]], ["v", "k"])
        cl.execute("INSERT INTO cl (v, k) SELECT b, a + 2 FROM src")
        assert cl.execute("SELECT k, v FROM cl ORDER BY k").rows == [
            [1, 10], [2, 20], [3, 2]]


class TestUniqueKeys:
    """Unique keys come from the index's own key extractor, so an
    expression index is enforced like a column one."""

    @pytest.fixture
    def people(self, session):
        session.execute("CREATE TABLE people (id int PRIMARY KEY, name text, n int)")
        session.execute("CREATE UNIQUE INDEX people_lower ON people (lower(name))")
        session.execute("INSERT INTO people VALUES (1, 'Abc', 1)")
        return session

    def test_insert_and_copy_collide_on_the_expression(self, people):
        with pytest.raises(UniqueViolation):
            people.execute("INSERT INTO people VALUES (2, 'ABC', 2)")
        with pytest.raises(UniqueViolation):
            people.copy_rows("people", [[3, "aBC", 3]])
        people.execute("INSERT INTO people VALUES (4, 'abcd', 4)")
        assert people.execute("SELECT count(*) FROM people").scalar() == 2

    def test_null_keys_never_conflict(self, people):
        people.execute("INSERT INTO people VALUES (2, NULL, 2), (3, NULL, 3)")
        assert people.execute("SELECT count(*) FROM people").scalar() == 3

    def test_on_conflict_sees_the_expression_key(self, people):
        r = people.execute("INSERT INTO people VALUES (2, 'ABC', 2) ON CONFLICT DO NOTHING")
        assert r.rowcount == 0
        # A conflict on another key than the ON CONFLICT target raises.
        with pytest.raises(UniqueViolation):
            people.execute("INSERT INTO people VALUES (2, 'ABC', 2)"
                           " ON CONFLICT (id) DO UPDATE SET n = 9")
        assert people.execute("SELECT id, name, n FROM people").rows == [[1, "Abc", 1]]

    def test_update_collides_on_the_expression(self, people):
        people.execute("INSERT INTO people VALUES (2, 'xyz', 2)")
        with pytest.raises(UniqueViolation):
            people.execute("UPDATE people SET name = 'ABC' WHERE id = 2")
        # Re-casing a row's own name is no conflict with itself.
        people.execute("UPDATE people SET name = 'ABC' WHERE id = 1")
        people.execute("UPDATE people SET n = n + 1")
        assert people.execute("SELECT name, n FROM people ORDER BY id").rows == [
            ["ABC", 2], ["xyz", 3]]

    def test_update_checks_each_changed_key_on_its_own(self, session):
        """The row's own unchanged primary key used to mask a collision on
        a second unique key."""
        session.execute("CREATE TABLE two (k int PRIMARY KEY, u int UNIQUE)")
        session.execute("INSERT INTO two VALUES (1, 10), (2, 20)")
        with pytest.raises(UniqueViolation):
            session.execute("UPDATE two SET u = 10 WHERE k = 2")
        session.execute("UPDATE two SET u = 30 WHERE k = 2")
        # Swapping within one statement still collides mid-way, as in
        # PostgreSQL without a deferrable constraint.
        with pytest.raises(UniqueViolation):
            session.execute("UPDATE two SET u = 40 - u")
        assert session.execute("SELECT k, u FROM two ORDER BY k").rows == [
            [1, 10], [2, 30]]


class TestForeignKeys:
    @pytest.fixture
    def fk(self, session):
        session.execute("CREATE TABLE parent (id int PRIMARY KEY)")
        session.execute(
            "CREATE TABLE child (id int PRIMARY KEY, parent_id int"
            " REFERENCES parent (id))"
        )
        session.execute("INSERT INTO parent VALUES (1), (2)")
        return session

    def test_valid_insert(self, fk):
        fk.execute("INSERT INTO child VALUES (1, 1)")

    def test_fk_violation_on_insert(self, fk):
        with pytest.raises(ForeignKeyViolation):
            fk.execute("INSERT INTO child VALUES (1, 99)")

    def test_null_fk_allowed(self, fk):
        fk.execute("INSERT INTO child VALUES (1, NULL)")

    def test_restrict_on_delete(self, fk):
        fk.execute("INSERT INTO child VALUES (1, 1)")
        with pytest.raises(ForeignKeyViolation):
            fk.execute("DELETE FROM parent WHERE id = 1")

    def test_delete_unreferenced_parent_ok(self, fk):
        fk.execute("INSERT INTO child VALUES (1, 1)")
        fk.execute("DELETE FROM parent WHERE id = 2")


class TestDdl:
    def test_create_drop(self, session):
        session.execute("CREATE TABLE x (a int)")
        session.execute("DROP TABLE x")
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM x")

    def test_create_if_not_exists(self, session):
        session.execute("CREATE TABLE x (a int)")
        session.execute("CREATE TABLE IF NOT EXISTS x (a int)")

    def test_duplicate_table_errors(self, session):
        session.execute("CREATE TABLE x (a int)")
        with pytest.raises(CatalogError):
            session.execute("CREATE TABLE x (a int)")

    def test_alter_add_column_with_default(self, s):
        s.execute("ALTER TABLE t ADD COLUMN extra int DEFAULT 42")
        assert s.execute("SELECT extra FROM t WHERE id = 1").scalar() == 42

    def test_alter_drop_column(self, s):
        s.execute("ALTER TABLE t DROP COLUMN f")
        with pytest.raises(CatalogError):
            s.execute("SELECT f FROM t")

    def test_truncate(self, s):
        s.execute("TRUNCATE TABLE t")
        assert s.execute("SELECT count(*) FROM t").scalar() == 0

    def test_index_scan_used_for_pk(self, s):
        s.execute("SELECT * FROM t WHERE id = 2")
        assert s.stats["index_lookups"] >= 1

    def test_secondary_index_backfill(self, s):
        s.execute("CREATE INDEX t_k_idx ON t (k)")
        before = s.stats["index_lookups"]
        assert s.execute("SELECT count(*) FROM t WHERE k = 1").scalar() == 2
        assert s.stats["index_lookups"] > before

    def test_range_scan_via_index(self, s):
        s.execute("CREATE INDEX t_f_idx ON t (f)")
        rows = s.execute("SELECT f FROM t WHERE f > 2 AND f < 4 ORDER BY f").rows
        assert rows == [[2.5], [3.5]]


class TestCopyAndVacuum:
    def test_copy_rows(self, s):
        n = s.copy_rows("t", [[100, 5, "c1", 1.0], [101, 5, "c2", 2.0]])
        assert n == 2
        assert s.execute("SELECT count(*) FROM t WHERE k = 5").scalar() == 2

    def test_copy_csv_text(self, session):
        session.execute("CREATE TABLE c (a int, b text)")
        r = session.execute(
            "COPY c FROM STDIN WITH (FORMAT csv)", copy_data="1,x\n2,y\n"
        )
        assert r.rowcount == 2

    def test_copy_unique_violation(self, s):
        with pytest.raises(UniqueViolation):
            s.copy_rows("t", [[1, 9, "dup", 0.0]])

    def test_vacuum_reclaims_dead_tuples(self, session):
        session.execute("CREATE TABLE vt (a int)")
        session.execute("INSERT INTO vt VALUES (1), (2), (3)")
        session.execute("UPDATE vt SET a = a + 10")
        table = session.instance.catalog.get_table("vt")
        versions_before = len(table.heap.tuples)
        session.execute("VACUUM vt")
        assert len(table.heap.tuples) < versions_before
        assert session.execute("SELECT count(*) FROM vt").scalar() == 3


class TestJsonb:
    def test_arrow_operators(self, session):
        session.execute("CREATE TABLE j (d jsonb)")
        session.execute("""INSERT INTO j VALUES ('{"a": {"b": [1, 2, 3]}}')""")
        assert session.execute("SELECT d->'a'->'b' FROM j").scalar() == [1, 2, 3]
        assert session.execute("SELECT d#>>'{a,b,1}' FROM j").scalar() == "2"

    def test_containment(self, session):
        session.execute("CREATE TABLE j (d jsonb)")
        session.execute("""INSERT INTO j VALUES ('{"tags": ["x", "y"]}')""")
        assert session.execute(
            """SELECT count(*) FROM j WHERE d @> '{"tags": ["x"]}'"""
        ).scalar() == 1

    def test_jsonb_path_query_array(self, session):
        session.execute("CREATE TABLE j (d jsonb)")
        session.execute(
            """INSERT INTO j VALUES ('{"items": [{"n": "a"}, {"n": "b"}]}')"""
        )
        value = session.execute(
            "SELECT jsonb_path_query_array(d, '$.items[*].n') FROM j"
        ).scalar()
        assert value == ["a", "b"]


class TestExplain:
    def test_seq_scan(self, s):
        text = "\n".join(r[0] for r in s.execute("EXPLAIN SELECT * FROM t").rows)
        assert "Seq Scan on t" in text

    def test_insert(self, s):
        text = s.execute("EXPLAIN INSERT INTO t (k) VALUES (1)").rows[0][0]
        assert "Insert" in text
