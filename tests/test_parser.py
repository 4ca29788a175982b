"""Parser unit tests: statement shapes and expression precedence."""

import pytest

from repro.errors import SyntaxErrorSQL
from repro.sql import ast as A
from repro.sql import parse, parse_expression, parse_one


class TestSelect:
    def test_simple_select(self):
        stmt = parse_one("SELECT a, b FROM t")
        assert isinstance(stmt, A.Select)
        assert len(stmt.targets) == 2
        assert isinstance(stmt.from_items[0], A.TableRef)

    def test_star(self):
        stmt = parse_one("SELECT * FROM t")
        assert isinstance(stmt.targets[0].expr, A.Star)

    def test_qualified_star(self):
        stmt = parse_one("SELECT t.* FROM t")
        assert isinstance(stmt.targets[0].expr, A.Star)
        assert stmt.targets[0].expr.table == "t"

    def test_alias_with_and_without_as(self):
        stmt = parse_one("SELECT a AS x, b y FROM t")
        assert stmt.targets[0].alias == "x"
        assert stmt.targets[1].alias == "y"

    def test_where_group_having_order_limit_offset(self):
        stmt = parse_one(
            "SELECT a, count(*) FROM t WHERE a > 1 GROUP BY a"
            " HAVING count(*) > 2 ORDER BY a DESC LIMIT 5 OFFSET 2"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit.value == 5
        assert stmt.offset.value == 2

    def test_order_by_nulls(self):
        stmt = parse_one("SELECT a FROM t ORDER BY a ASC NULLS FIRST, b NULLS LAST")
        assert stmt.order_by[0].nulls_first is True
        assert stmt.order_by[1].nulls_first is False

    def test_distinct(self):
        assert parse_one("SELECT DISTINCT a FROM t").distinct

    def test_distinct_on(self):
        stmt = parse_one("SELECT DISTINCT ON (a) a, b FROM t")
        assert stmt.distinct and len(stmt.distinct_on) == 1

    def test_join_types(self):
        stmt = parse_one(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y"
        )
        outer = stmt.from_items[0]
        assert isinstance(outer, A.JoinExpr)
        assert outer.join_type == "left"
        assert outer.left.join_type == "inner"

    def test_join_using(self):
        stmt = parse_one("SELECT * FROM a JOIN b USING (k)")
        assert stmt.from_items[0].using == ["k"]

    def test_cross_join(self):
        stmt = parse_one("SELECT * FROM a CROSS JOIN b")
        assert stmt.from_items[0].join_type == "cross"

    def test_comma_join(self):
        stmt = parse_one("SELECT * FROM a, b, c")
        assert len(stmt.from_items) == 3

    def test_subquery_in_from(self):
        stmt = parse_one("SELECT x FROM (SELECT a AS x FROM t) sub")
        assert isinstance(stmt.from_items[0], A.SubqueryRef)
        assert stmt.from_items[0].alias == "sub"

    def test_function_in_from(self):
        stmt = parse_one("SELECT i FROM generate_series(1, 10) AS g (i)")
        ref = stmt.from_items[0]
        assert isinstance(ref, A.FunctionRef)
        assert ref.alias == "g"
        assert ref.column_names == ["i"]

    def test_cte(self):
        stmt = parse_one("WITH top AS (SELECT a FROM t) SELECT * FROM top")
        assert stmt.ctes[0].name == "top"

    def test_union_all(self):
        stmt = parse_one("SELECT 1 UNION ALL SELECT 2")
        assert stmt.set_ops[0][0] == "union all"

    def test_union_distinct(self):
        stmt = parse_one("SELECT 1 UNION SELECT 2")
        assert stmt.set_ops[0][0] == "union"

    def test_intersect_binds_tighter_than_union(self):
        stmt = parse_one("SELECT 1 UNION SELECT 2 INTERSECT SELECT 3 EXCEPT SELECT 4")
        assert [op for op, _arm in stmt.set_ops] == ["union", "except"]
        assert stmt.set_ops[0][1].set_ops[0][0] == "intersect"

    def test_for_update(self):
        assert parse_one("SELECT a FROM t FOR UPDATE").for_update


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_and_or(self):
        expr = parse_expression("a OR b AND c")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_not(self):
        expr = parse_expression("NOT a = b")
        assert isinstance(expr, A.UnaryOp)
        assert expr.op == "not"

    def test_unary_minus_folds_literal(self):
        expr = parse_expression("-5")
        assert isinstance(expr, A.Literal) and expr.value == -5

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, A.BetweenExpr)

    def test_not_between(self):
        assert parse_expression("x NOT BETWEEN 1 AND 2").negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, A.InList)
        assert len(expr.items) == 3

    def test_in_subquery(self):
        expr = parse_expression("x IN (SELECT a FROM t)")
        assert isinstance(expr, A.SubqueryExpr) and expr.kind == "in"

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert expr.kind == "exists"

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT max(a) FROM t)")
        assert expr.kind == "scalar"

    def test_any_subquery(self):
        expr = parse_expression("x = ANY (SELECT a FROM t)")
        assert expr.kind == "any" and expr.op == "="

    def test_case_searched(self):
        expr = parse_expression("CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END")
        assert len(expr.whens) == 2
        assert expr.else_result.value == 3

    def test_case_with_operand(self):
        expr = parse_expression("CASE x WHEN 1 THEN 'one' END")
        assert expr.operand is not None

    def test_cast_postfix(self):
        expr = parse_expression("a::int")
        assert isinstance(expr, A.Cast) and expr.type_name == "int"

    def test_cast_function(self):
        expr = parse_expression("CAST(a AS double precision)")
        assert expr.type_name == "double precision"

    def test_typed_literal(self):
        expr = parse_expression("date '2020-01-01'")
        assert isinstance(expr, A.Cast) and expr.type_name == "date"

    def test_json_chain(self):
        expr = parse_expression("data->'payload'->>'type'")
        assert expr.op == "->>"
        assert expr.left.op == "->"

    def test_is_null(self):
        assert isinstance(parse_expression("x IS NULL"), A.IsNull)
        assert parse_expression("x IS NOT NULL").negated

    def test_is_distinct_from(self):
        expr = parse_expression("a IS DISTINCT FROM b")
        assert isinstance(expr, A.UnaryOp)
        expr2 = parse_expression("a IS NOT DISTINCT FROM b")
        assert isinstance(expr2, A.FuncCall)

    def test_like_ilike(self):
        assert parse_expression("a LIKE 'x%'").op == "like"
        assert parse_expression("a ILIKE '%y'").op == "ilike"

    def test_not_like(self):
        expr = parse_expression("a NOT LIKE 'x'")
        assert isinstance(expr, A.UnaryOp) and expr.op == "not"

    def test_array_literal(self):
        expr = parse_expression("ARRAY[1, 2, 3]")
        assert isinstance(expr, A.ArrayExpr)

    def test_subscript(self):
        expr = parse_expression("arr[2]")
        assert expr.name == "_subscript"

    def test_count_star(self):
        expr = parse_expression("count(*)")
        assert isinstance(expr.args[0], A.Star)

    def test_count_distinct(self):
        assert parse_expression("count(DISTINCT x)").distinct

    def test_filter_clause(self):
        expr = parse_expression("count(*) FILTER (WHERE x > 1)")
        assert expr.filter is not None

    def test_named_argument(self):
        expr = parse_expression("f(a, opt := 5)")
        assert expr.args[1].name == "_named_arg"

    def test_extract(self):
        expr = parse_expression("extract(year FROM d)")
        assert expr.name == "extract"
        assert expr.args[0].value == "year"

    def test_interval(self):
        expr = parse_expression("interval '1 day'")
        assert expr.name == "interval"

    def test_params(self):
        assert parse_expression("$3").index == 3
        assert parse_expression(":name").name == "name"


class TestDml:
    def test_insert_values(self):
        stmt = parse_one("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_one("INSERT INTO t SELECT * FROM u")
        assert stmt.select is not None

    def test_insert_on_conflict_nothing(self):
        stmt = parse_one("INSERT INTO t VALUES (1) ON CONFLICT DO NOTHING")
        assert stmt.on_conflict.action == "nothing"

    def test_insert_on_conflict_update(self):
        stmt = parse_one(
            "INSERT INTO t (k, v) VALUES (1, 2) ON CONFLICT (k)"
            " DO UPDATE SET v = excluded.v"
        )
        assert stmt.on_conflict.action == "update"
        assert stmt.on_conflict.columns == ["k"]

    def test_insert_returning(self):
        stmt = parse_one("INSERT INTO t VALUES (1) RETURNING *")
        assert stmt.returning

    def test_update(self):
        stmt = parse_one("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_update_with_alias(self):
        assert parse_one("UPDATE t AS x SET a = 1").alias == "x"

    def test_delete(self):
        stmt = parse_one("DELETE FROM t WHERE a < 0 RETURNING a")
        assert stmt.where is not None and stmt.returning


class TestDdl:
    def test_create_table(self):
        stmt = parse_one(
            "CREATE TABLE t (id serial PRIMARY KEY, name text NOT NULL,"
            " age int DEFAULT 0, tag varchar(10) UNIQUE)"
        )
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[2].default.value == 0
        assert stmt.columns[3].unique

    def test_create_table_composite_pk(self):
        stmt = parse_one("CREATE TABLE t (a int, b int, PRIMARY KEY (a, b))")
        assert stmt.primary_key == ["a", "b"]

    def test_create_table_fk_inline(self):
        stmt = parse_one("CREATE TABLE t (a int REFERENCES u (id))")
        assert stmt.columns[0].references == ("u", "id")

    def test_create_table_fk_table_level(self):
        stmt = parse_one(
            "CREATE TABLE t (a int, b int, FOREIGN KEY (a, b) REFERENCES u (x, y))"
        )
        assert stmt.foreign_keys[0].columns == ["a", "b"]

    def test_create_table_if_not_exists(self):
        assert parse_one("CREATE TABLE IF NOT EXISTS t (a int)").if_not_exists

    def test_create_table_using(self):
        assert parse_one("CREATE TABLE t (a int) USING columnar").using == "columnar"

    def test_create_index(self):
        stmt = parse_one("CREATE INDEX i ON t (a, b)")
        assert stmt.table == "t" and len(stmt.exprs) == 2

    def test_create_unique_index(self):
        assert parse_one("CREATE UNIQUE INDEX i ON t (a)").unique

    def test_create_gin_expression_index(self):
        stmt = parse_one(
            "CREATE INDEX i ON t USING gin ((lower(name)) gin_trgm_ops)"
        )
        assert stmt.using == "gin"
        assert isinstance(stmt.exprs[0], A.FuncCall)

    def test_drop_table(self):
        stmt = parse_one("DROP TABLE IF EXISTS a, b CASCADE")
        assert stmt.names == ["a", "b"] and stmt.if_exists and stmt.cascade

    def test_alter_add_column(self):
        stmt = parse_one("ALTER TABLE t ADD COLUMN c text")
        assert stmt.action == "add_column"

    def test_alter_drop_column(self):
        assert parse_one("ALTER TABLE t DROP COLUMN c").action == "drop_column"

    def test_truncate(self):
        assert parse_one("TRUNCATE TABLE a, b").names == ["a", "b"]


class TestTransactionsAndUtility:
    def test_txn_control(self):
        assert isinstance(parse_one("BEGIN"), A.Begin)
        assert isinstance(parse_one("START TRANSACTION"), A.Begin)
        assert isinstance(parse_one("COMMIT"), A.Commit)
        assert isinstance(parse_one("END"), A.Commit)
        assert isinstance(parse_one("ROLLBACK"), A.Rollback)
        assert isinstance(parse_one("ABORT"), A.Rollback)

    def test_two_phase_commit_statements(self):
        assert parse_one("PREPARE TRANSACTION 'g1'").gid == "g1"
        assert parse_one("COMMIT PREPARED 'g1'").gid == "g1"
        assert parse_one("ROLLBACK PREPARED 'g1'").gid == "g1"

    def test_copy_from(self):
        stmt = parse_one("COPY t (a, b) FROM STDIN WITH (FORMAT csv)")
        assert stmt.direction == "from" and stmt.columns == ["a", "b"]

    def test_copy_to(self):
        assert parse_one("COPY t TO STDOUT").direction == "to"

    def test_vacuum(self):
        stmt = parse_one("VACUUM FULL ANALYZE t")
        assert stmt.full and stmt.analyze and stmt.table == "t"

    def test_explain(self):
        stmt = parse_one("EXPLAIN SELECT 1")
        assert isinstance(stmt.statement, A.Select)

    def test_set_show(self):
        stmt = parse_one("SET search_path = foo")
        assert stmt.name == "search_path"
        assert parse_one("SHOW max_connections").name == "max_connections"

    def test_set_local(self):
        assert parse_one("SET LOCAL lock_timeout = 100").is_local

    def test_call(self):
        stmt = parse_one("CALL new_order(1, 2)")
        assert stmt.name == "new_order" and len(stmt.args) == 2

    def test_multi_statement_script(self):
        stmts = parse("SELECT 1; SELECT 2; ;")
        assert len(stmts) == 2


class TestErrors:
    def test_garbage(self):
        with pytest.raises(SyntaxErrorSQL):
            parse_one("FLARB 1")

    def test_missing_paren(self):
        with pytest.raises(SyntaxErrorSQL):
            parse_one("SELECT f(1")

    def test_two_statements_for_parse_one(self):
        with pytest.raises(SyntaxErrorSQL):
            parse_one("SELECT 1; SELECT 2")
