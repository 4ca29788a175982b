"""Window function tests: engine semantics and distributed pushdown."""

import pytest

from repro.errors import DataError, UnsupportedDistributedQuery


@pytest.fixture
def s(session):
    session.execute("CREATE TABLE t (g int, k int, v int, PRIMARY KEY (g, k))")
    session.execute(
        "INSERT INTO t VALUES (1,1,10),(1,2,30),(1,3,20),(1,4,30),"
        " (2,1,5),(2,2,5),(2,3,50)"
    )
    return session


class TestRanking:
    def test_row_number(self, s):
        rows = s.execute(
            "SELECT k, row_number() OVER (PARTITION BY g ORDER BY v DESC)"
            " FROM t WHERE g = 1 ORDER BY k"
        ).rows
        assert rows == [[1, 4], [2, 1], [3, 3], [4, 2]]

    def test_rank_with_ties(self, s):
        rows = s.execute(
            "SELECT k, rank() OVER (PARTITION BY g ORDER BY v)"
            " FROM t WHERE g = 1 ORDER BY k"
        ).rows
        # v: 10(k1)=1, 30(k2)=3, 20(k3)=2, 30(k4)=3 — rank skips after ties
        assert rows == [[1, 1], [2, 3], [3, 2], [4, 3]]

    def test_dense_rank(self, s):
        rows = s.execute(
            "SELECT k, dense_rank() OVER (PARTITION BY g ORDER BY v)"
            " FROM t WHERE g = 1 ORDER BY k"
        ).rows
        assert rows == [[1, 1], [2, 3], [3, 2], [4, 3]]

    def test_ntile(self, s):
        rows = s.execute(
            "SELECT k, ntile(2) OVER (PARTITION BY g ORDER BY k)"
            " FROM t WHERE g = 1 ORDER BY k"
        ).rows
        assert [r[1] for r in rows] == [1, 1, 2, 2]

    def test_row_number_without_partition(self, s):
        rows = s.execute(
            "SELECT row_number() OVER (ORDER BY g, k) FROM t ORDER BY 1"
        ).rows
        assert [r[0] for r in rows] == list(range(1, 8))


class TestAggregateWindows:
    def test_partition_total(self, s):
        rows = s.execute(
            "SELECT DISTINCT g, sum(v) OVER (PARTITION BY g) FROM t ORDER BY g"
        ).rows
        assert rows == [[1, 90], [2, 60]]

    def test_running_sum_default_frame(self, s):
        rows = s.execute(
            "SELECT k, sum(v) OVER (PARTITION BY g ORDER BY k)"
            " FROM t WHERE g = 2 ORDER BY k"
        ).rows
        assert rows == [[1, 5], [2, 10], [3, 60]]

    def test_running_sum_peers_share_frame(self, s):
        # Two rows with the same ORDER BY key are peers: both see the frame
        # ending at the last peer (PostgreSQL RANGE default).
        rows = s.execute(
            "SELECT k, sum(k) OVER (PARTITION BY g ORDER BY v)"
            " FROM t WHERE g = 2 ORDER BY k"
        ).rows
        # v: k1=5, k2=5 (peers), k3=50
        assert rows == [[1, 3], [2, 3], [3, 6]]

    def test_avg_and_count_windows(self, s):
        row = s.execute(
            "SELECT avg(v) OVER (PARTITION BY g), count(*) OVER (PARTITION BY g)"
            " FROM t WHERE g = 1 LIMIT 1"
        ).first()
        assert row[0] == pytest.approx(22.5)
        assert row[1] == 4

    def test_expression_around_window(self, s):
        rows = s.execute(
            "SELECT k, v - avg(v) OVER (PARTITION BY g) AS delta"
            " FROM t WHERE g = 2 ORDER BY k"
        ).rows
        assert [r[1] for r in rows] == [-15.0, -15.0, 30.0]


class TestNavigation:
    def test_lag_lead(self, s):
        rows = s.execute(
            "SELECT k, lag(v) OVER (PARTITION BY g ORDER BY k),"
            " lead(v) OVER (PARTITION BY g ORDER BY k)"
            " FROM t WHERE g = 2 ORDER BY k"
        ).rows
        assert rows == [[1, None, 5], [2, 5, 50], [3, 5, None]]

    def test_lag_with_offset_and_default(self, s):
        rows = s.execute(
            "SELECT k, lag(v, 2, -1) OVER (PARTITION BY g ORDER BY k)"
            " FROM t WHERE g = 2 ORDER BY k"
        ).rows
        assert [r[1] for r in rows] == [-1, -1, 5]

    def test_first_and_last_value(self, s):
        row = s.execute(
            "SELECT first_value(v) OVER (PARTITION BY g ORDER BY k),"
            " last_value(v) OVER (PARTITION BY g ORDER BY k)"
            " FROM t WHERE g = 2 LIMIT 1"
        ).first()
        assert row == [5, 50]


class TestWindowErrors:
    def test_window_plus_group_by_rejected(self, s):
        with pytest.raises(DataError):
            s.execute(
                "SELECT g, sum(v), row_number() OVER (ORDER BY g)"
                " FROM t GROUP BY g"
            )


class TestDistributedWindows:
    @pytest.fixture
    def c(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE t (g int, k int, v int, PRIMARY KEY (g, k))")
        s.execute("SELECT create_distributed_table('t', 'g')")
        s.copy_rows("t", [[g, k, g * 10 + k] for g in range(1, 7) for k in range(1, 4)])
        return s

    def test_partition_by_dist_column_pushes_down(self, c):
        rows = c.execute(
            "SELECT g, k, row_number() OVER (PARTITION BY g ORDER BY v DESC)"
            " FROM t ORDER BY g, k"
        ).rows
        for g, k, rn in rows:
            assert rn == 4 - k  # v grows with k: highest v → row_number 1

    def test_results_match_single_postgres(self, c):
        from repro import PostgresInstance

        pg = PostgresInstance("pg").connect()
        pg.execute("CREATE TABLE t (g int, k int, v int, PRIMARY KEY (g, k))")
        pg.copy_rows("t", [[g, k, g * 10 + k] for g in range(1, 7) for k in range(1, 4)])
        sql = ("SELECT g, k, sum(v) OVER (PARTITION BY g ORDER BY k)"
               " FROM t ORDER BY g, k")
        assert c.execute(sql).rows == pg.execute(sql).rows

    def test_non_dist_partition_rejected(self, c):
        with pytest.raises(UnsupportedDistributedQuery):
            c.execute("SELECT row_number() OVER (PARTITION BY k ORDER BY v) FROM t")

    @pytest.mark.parametrize("window", [
        "row_number() OVER (PARTITION BY k ORDER BY v)",
        "sum(v) OVER (PARTITION BY k)",
    ], ids=["ranking", "aggregate"])
    def test_non_dist_partition_rejected_in_a_subquery(self, c, window):
        # Every level that runs on the shards is held to the rule.
        with pytest.raises(UnsupportedDistributedQuery,
                           match="partitioned by the distribution column"):
            c.execute(f"SELECT count(*) FROM (SELECT g, {window} AS r FROM t) s"
                      " WHERE r = 1")

    @pytest.mark.parametrize("window", [
        "row_number() OVER (PARTITION BY k ORDER BY v)",
        "sum(v) OVER ()",
    ], ids=["ranking", "aggregate"])
    def test_non_dist_partition_rejected_in_an_insert_select(self, c, window):
        # A co-located INSERT..SELECT must not run the window per shard pair.
        c.execute("CREATE TABLE w (g int, v int)")
        c.execute("SELECT create_distributed_table('w', 'g', colocate_with := 't')")
        with pytest.raises(UnsupportedDistributedQuery,
                           match="partitioned by the distribution column"):
            c.execute(f"INSERT INTO w (g, v) SELECT g, {window} FROM t")
        assert c.execute("SELECT count(*) FROM w").scalar() == 0

    def test_no_partition_rejected(self, c):
        with pytest.raises(UnsupportedDistributedQuery):
            c.execute("SELECT row_number() OVER (ORDER BY v) FROM t")

    def test_single_tenant_window_routes(self, c):
        # With a distribution filter the router delegates the whole query:
        # any window shape is fine on one shard.
        rows = c.execute(
            "SELECT k, row_number() OVER (ORDER BY v DESC) FROM t"
            " WHERE g = 3 ORDER BY k"
        ).rows
        assert [r[1] for r in rows] == [3, 2, 1]
