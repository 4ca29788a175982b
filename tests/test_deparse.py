"""Deparser round-trip tests: parse → deparse → parse → deparse must be a
fixpoint. This property is what lets the distributed planner ship rewritten
queries to workers."""

import pytest

from repro.sql import deparse, parse_one
from repro.sql.deparse import quote_literal

CORPUS = [
    "SELECT 1",
    "SELECT a, b AS bee FROM t",
    "SELECT * FROM t WHERE a = 1 AND b <> 'x' OR c IS NULL",
    "SELECT count(*), sum(v), avg(DISTINCT v) FROM t GROUP BY k HAVING count(*) > 1",
    "SELECT a FROM t ORDER BY a DESC NULLS LAST LIMIT 10 OFFSET 5",
    "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y",
    "SELECT * FROM a JOIN b USING (k, j)",
    "SELECT x FROM (SELECT a AS x FROM t WHERE a > 0) AS sub WHERE x < 10",
    "SELECT i FROM generate_series(1, 5) AS g (i)",
    "WITH w AS (SELECT 1 AS one) SELECT one FROM w",
    "SELECT 1 UNION ALL SELECT 2 UNION SELECT 3",
    "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
    "SELECT data->'payload'->>'type' FROM events",
    "SELECT data#>>'{a,b}' FROM events",
    "SELECT x FROM t WHERE x BETWEEN 1 AND 10",
    "SELECT x FROM t WHERE x NOT IN (1, 2) AND y LIKE 'a%'",
    "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
    "SELECT x FROM t WHERE x = ANY (SELECT y FROM u)",
    "SELECT ARRAY[1, 2, 3], arr[1] FROM t",
    "SELECT x::int, CAST(y AS text) FROM t",
    "SELECT extract(year FROM d), date_trunc('day', ts) FROM t",
    "SELECT f(a, named := 2) FROM t",
    "SELECT count(*) FILTER (WHERE x > 0) FROM t",
    "SELECT DISTINCT ON (a) a, b FROM t ORDER BY a",
    "SELECT a FROM t FOR UPDATE",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
    "INSERT INTO t SELECT a, b FROM u WHERE a > 0",
    "INSERT INTO t (k, v) VALUES (1, 2) ON CONFLICT (k) DO UPDATE SET v = excluded.v",
    "INSERT INTO t VALUES (1) ON CONFLICT DO NOTHING",
    "INSERT INTO t VALUES (1) RETURNING a, b",
    "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3 RETURNING *",
    "UPDATE t AS u SET a = 1 WHERE u.id = 2",
    "DELETE FROM t WHERE a IS NOT NULL RETURNING a",
    "CREATE TABLE t (id serial PRIMARY KEY, name text NOT NULL DEFAULT 'x',"
    " ref int REFERENCES u (id), UNIQUE (name), FOREIGN KEY (ref) REFERENCES u (id))",
    "CREATE TABLE IF NOT EXISTS t (a int, b int, PRIMARY KEY (a, b))",
    "CREATE INDEX i ON t (a, b)",
    "CREATE UNIQUE INDEX i ON t (a)",
    "CREATE INDEX i ON t USING gin ((lower(x)))",
    "DROP TABLE IF EXISTS a, b CASCADE",
    "DROP INDEX IF EXISTS i",
    "TRUNCATE TABLE a, b",
    "ALTER TABLE t ADD COLUMN c text DEFAULT 'd'",
    "ALTER TABLE t DROP COLUMN c",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
    "PREPARE TRANSACTION 'gid_1'",
    "COMMIT PREPARED 'gid_1'",
    "ROLLBACK PREPARED 'gid_1'",
    "COPY t (a, b) FROM STDIN",
    "VACUUM t",
    "CALL proc(1, 'x')",
    "SELECT d + interval '1 day' FROM t",
]


@pytest.mark.parametrize("sql", CORPUS, ids=lambda s: s[:48])
def test_round_trip_fixpoint(sql):
    once = deparse(parse_one(sql))
    twice = deparse(parse_one(once))
    assert once == twice


class TestQuoteLiteral:
    def test_null(self):
        assert quote_literal(None) == "NULL"

    def test_string_escaping(self):
        assert quote_literal("it's") == "'it''s'"

    def test_bool(self):
        assert quote_literal(True) == "true"

    def test_jsonb(self):
        text = quote_literal({"a": 1})
        assert text.endswith("::jsonb")

    def test_roundtrip_through_parser(self):
        import datetime as dt

        from repro.sql import parse_expression
        from repro.engine.expr import EvalContext, evaluate

        for value in [1, 2.5, "x'y", True, None, dt.date(2020, 1, 2), {"k": [1]}]:
            expr = parse_expression(quote_literal(value))
            result = evaluate(expr, EvalContext())
            assert result == value


def test_deparse_shard_rewrite_stays_parseable(citus_session):
    """The SQL EXPLAIN shows under every "Task on <node>" line (and under
    "Merge Query") must itself be parseable."""
    from repro.sql import parse_one as p

    citus_session.execute("CREATE TABLE rt (k int PRIMARY KEY, v jsonb)")
    citus_session.execute("SELECT create_distributed_table('rt', 'k')")
    lines = [row[0] for row in citus_session.execute(
        "EXPLAIN SELECT v->>'x', count(*) FROM rt WHERE v->>'x' ILIKE '%a%'"
        " GROUP BY v->>'x'"
    ).rows]
    shown = [sql.strip() for header, sql in zip(lines, lines[1:])
             if header.startswith("  ->  ")]
    assert len(shown) > 1 and all("rt_" in sql for sql in shown[:-1])
    assert "citus_intermediate" in shown[-1]
    for sql in shown:
        p(sql)
