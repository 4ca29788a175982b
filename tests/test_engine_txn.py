"""Single-node transaction semantics: blocks, visibility, locking,
deadlocks, crash recovery, restore points."""

import datetime as dt

import pytest

from repro.errors import (
    DeadlockDetected,
    InvalidTransactionState,
    LockTimeout,
    TooManyConnections,
    TransactionAborted,
    UniqueViolation,
)


@pytest.fixture
def s(pg):
    s = pg.connect()
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return s


class TestTransactionBlocks:
    def test_rollback_discards(self, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 99 WHERE k = 1")
        assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 99
        s.execute("ROLLBACK")
        assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 10

    def test_commit_persists(self, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 99 WHERE k = 1")
        s.execute("COMMIT")
        assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 99

    def test_error_aborts_block_until_rollback(self, s):
        s.execute("BEGIN")
        with pytest.raises(Exception):
            s.execute("INSERT INTO t VALUES (1, 0)")  # PK violation
        with pytest.raises(TransactionAborted):
            s.execute("SELECT 1")
        s.execute("ROLLBACK")
        assert s.execute("SELECT 1").scalar() == 1

    def test_implicit_txn_autocommits(self, s):
        s.execute("UPDATE t SET v = 5 WHERE k = 1")
        other = s.instance.connect()
        assert other.execute("SELECT v FROM t WHERE k = 1").scalar() == 5

    def test_uncommitted_invisible_to_other_session(self, pg, s):
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (3, 30)")
        assert other.execute("SELECT count(*) FROM t").scalar() == 2
        s.execute("COMMIT")
        assert other.execute("SELECT count(*) FROM t").scalar() == 3


class TestRowLocking:
    def test_conflicting_update_times_out_synchronously(self, pg, s):
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = 1")
        with pytest.raises(LockTimeout):
            other.execute("UPDATE t SET v = 2 WHERE k = 1")
        s.execute("COMMIT")

    def test_parked_statement_resumes_after_commit(self, pg, s):
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = 1")
        handle = other.execute_async("UPDATE t SET v = 2 WHERE k = 1")
        assert not handle.done
        s.execute("COMMIT")
        assert handle.done and handle.error is None
        assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 2

    def test_blocked_update_sees_new_value_after_wait(self, pg, s):
        # READ COMMITTED re-check: increments compose, none is lost.
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = v + 1 WHERE k = 1")
        handle = other.execute_async("UPDATE t SET v = v + 1 WHERE k = 1")
        s.execute("COMMIT")
        assert handle.done
        assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 12

    def test_parked_delete_reruns_over_the_committed_rows(self, pg, s):
        # The DELETE locks its targets as a set: it parks on row 2 with
        # row 1 already locked, and re-runs from scratch once row 2's
        # holder commits, reading the version that holder wrote.
        s.execute("INSERT INTO t VALUES (3, 30)")
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 21 WHERE k = 2")
        s.execute("DELETE FROM t WHERE k = 3")
        handle = other.execute_async(
            "DELETE FROM t WHERE v >= 10 RETURNING k, v")
        assert not handle.done
        s.execute("COMMIT")
        assert handle.done and handle.error is None
        assert sorted(handle.result.rows) == [[1, 10], [2, 21]]
        assert s.execute("SELECT count(*) FROM t").scalar() == 0

    def test_select_for_update_blocks_writer(self, pg, s):
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("SELECT * FROM t WHERE k = 1 FOR UPDATE")
        with pytest.raises(LockTimeout):
            other.execute("DELETE FROM t WHERE k = 1")
        s.execute("ROLLBACK")

    def test_non_conflicting_rows_dont_block(self, pg, s):
        other = pg.connect()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = 1")
        other.execute("UPDATE t SET v = 2 WHERE k = 2")  # no conflict
        s.execute("COMMIT")


class TestLocalDeadlock:
    def test_deadlock_detected_and_victim_aborted(self, pg, s):
        a, b = pg.connect(), pg.connect()
        a.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("BEGIN")
        b.execute("UPDATE t SET v = 2 WHERE k = 2")
        handle = a.execute_async("UPDATE t SET v = 1 WHERE k = 2")
        with pytest.raises(DeadlockDetected):
            b.execute("UPDATE t SET v = 2 WHERE k = 1")
        pg.pump()
        assert handle.done and handle.error is None
        a.execute("COMMIT")
        b.execute("ROLLBACK")
        rows = s.execute("SELECT k, v FROM t ORDER BY k").rows
        assert rows == [[1, 1], [2, 1]]


class TestPreparedTransactions:
    def test_prepare_then_commit(self, pg, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 77 WHERE k = 1")
        s.execute("PREPARE TRANSACTION 'p1'")
        # Effects invisible while prepared; locks still held.
        other = pg.connect()
        assert other.execute("SELECT v FROM t WHERE k = 1").scalar() == 10
        with pytest.raises(LockTimeout):
            other.execute("UPDATE t SET v = 0 WHERE k = 1")
        other.execute("COMMIT PREPARED 'p1'")
        assert other.execute("SELECT v FROM t WHERE k = 1").scalar() == 77

    def test_prepare_then_rollback(self, pg, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 77 WHERE k = 1")
        s.execute("PREPARE TRANSACTION 'p2'")
        s.execute("ROLLBACK PREPARED 'p2'")
        assert s.execute("SELECT v FROM t WHERE k = 1").scalar() == 10

    def test_duplicate_gid_rejected(self, pg, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = 1")
        s.execute("PREPARE TRANSACTION 'dup'")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 2 WHERE k = 2")
        with pytest.raises(InvalidTransactionState):
            s.execute("PREPARE TRANSACTION 'dup'")

    def test_unknown_gid(self, s):
        with pytest.raises(InvalidTransactionState):
            s.execute("COMMIT PREPARED 'nope'")

    def test_session_usable_after_prepare(self, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = 1")
        s.execute("PREPARE TRANSACTION 'p3'")
        # New work proceeds in a fresh transaction.
        s.execute("UPDATE t SET v = 5 WHERE k = 2")
        s.execute("ROLLBACK PREPARED 'p3'")


class TestCrashRecovery:
    def test_committed_data_survives_crash(self, pg, s):
        s.execute("INSERT INTO t VALUES (3, 30)")
        pg.crash()
        pg.restart()
        s2 = pg.connect()
        assert s2.execute("SELECT count(*) FROM t").scalar() == 3

    def test_in_flight_txn_rolls_back_on_crash(self, pg, s):
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (3, 30)")
        pg.crash()
        pg.restart()
        s2 = pg.connect()
        assert s2.execute("SELECT count(*) FROM t").scalar() == 2

    def test_prepared_txn_survives_crash_with_locks(self, pg, s):
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 42 WHERE k = 1")
        s.execute("PREPARE TRANSACTION 'px'")
        pg.crash()
        pg.restart()
        s2 = pg.connect()
        assert "px" in pg.prepared_txns
        with pytest.raises(LockTimeout):
            s2.execute("UPDATE t SET v = 0 WHERE k = 1")
        s2.execute("COMMIT PREPARED 'px'")
        assert s2.execute("SELECT v FROM t WHERE k = 1").scalar() == 42

    def test_prepared_txn_resolved_after_a_crash_stays_resolved(self, pg, s):
        # COMMIT / ROLLBACK PREPARED of a restored transaction is logged
        # under its new xid; a second replay must still match it by gid.
        for gid, value in (("pc", 42), ("pr", 7)):
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = $1 WHERE k = 1", [value])
            s.execute(f"PREPARE TRANSACTION '{gid}'")
            pg.crash()
            pg.restart()
            s = pg.connect()
            s.execute(f"{'COMMIT' if gid == 'pc' else 'ROLLBACK'} PREPARED '{gid}'")
        pg.crash()
        pg.restart()
        s2 = pg.connect()
        assert pg.prepared_txns == {}
        assert s2.execute("SELECT v FROM t WHERE k = 1").scalar() == 42
        s2.execute("UPDATE t SET v = 0 WHERE k = 1")  # no lock left behind

    def test_indexes_rebuilt_after_recovery(self, pg, s):
        s.execute("CREATE INDEX t_v_idx ON t (v)")
        s.execute("INSERT INTO t VALUES (3, 30)")
        pg.crash()
        pg.restart()
        s2 = pg.connect()
        assert s2.execute("SELECT k FROM t WHERE v = 30").scalar() == 3
        assert s2.stats["index_lookups"] >= 1

    def test_restore_point(self, pg, s):
        pg.wal.create_restore_point("before")
        s.execute("DELETE FROM t WHERE k = 1")
        pg.restore_to_point("before")
        s2 = pg.connect()
        assert s2.execute("SELECT count(*) FROM t").scalar() == 2

    def test_updates_replay_in_order(self, pg, s):
        for i in range(5):
            s.execute("UPDATE t SET v = $1 WHERE k = 1", [i])
        pg.crash()
        pg.restart()
        s2 = pg.connect()
        assert s2.execute("SELECT v FROM t WHERE k = 1").scalar() == 4

    def test_replay_round_trips_every_record_kind_and_value_type(self, pg, s):
        """Every kind of record and every value type, through a crash: the
        tables and the prepared transactions are what they were, and the
        in-doubt transaction commits what it wrote."""
        s.execute("CREATE TABLE kinds (k int PRIMARY KEY, b bool, f float,"
                  " d date, ts timestamp, j jsonb, note text, tags text[],"
                  " ns int[])")
        s.copy_rows("kinds", [
            [1, True, 1.5, dt.date(2024, 2, 29), dt.datetime(2024, 3, 1, 10, 30),
             {"a": [1, 2], "b": None}, "x", ["x", "y"], [1, 2]],
            [2, None, None, None, None, None, None, None, None],
            [3, False, -0.25, "2021-06-20", "2021-06-20T08:00:00", [1, "two"], "",
             ['"q"', "[1]"], []],
            [4, True, 3.0, None, None, 7, "gone", None, None]])
        # jsonb scalars: a string (also one that reads as a document), a
        # number, a bool and JSON null.
        s.execute("""INSERT INTO kinds (k, j) VALUES (10, '"abc"'),"""
                  """ (11, '"{\\"a\\": 1}"'), (12, '2.5'), (13, 'false'),"""
                  """ (14, 'null')""")
        s.execute("INSERT INTO kinds (k, tags, ns) VALUES (15, ARRAY['x','y'],"
                  " ARRAY[3, 4])")
        s.execute("UPDATE kinds SET f = f * 2, j = '{\"c\": {\"d\": true}}' WHERE k = 1")
        s.execute("UPDATE kinds SET j = '\"updated\"' WHERE k = 12")
        s.execute("DELETE FROM kinds WHERE k = 4")
        s.execute("BEGIN")
        s.execute("INSERT INTO kinds (k, note) VALUES (5, 'aborted')")
        s.execute("ROLLBACK")
        for gid, end in (("pc", "COMMIT"), ("pr", "ROLLBACK")):
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = v + 1 WHERE k = 1")
            s.execute(f"PREPARE TRANSACTION '{gid}'")
            s.execute(f"{end} PREPARED '{gid}'")
        pg.wal.create_restore_point("settled")
        s.execute("BEGIN")
        s.execute("INSERT INTO kinds VALUES (6, false, 0.5, '2020-01-01', NULL,"
                  " '[true]', 'in doubt', NULL, NULL)")
        s.execute("UPDATE t SET v = 0 WHERE k = 2")
        s.execute("PREPARE TRANSACTION 'doubt'")
        assert {record[2] for record in pg.wal.read()} == {
            "ddl", "insert", "update", "delete", "commit", "abort", "prepare",
            "commit_prepared", "abort_prepared", "restore_point"}

        def contents():
            session = pg.connect()
            return ([session.execute(f"SELECT * FROM {table} ORDER BY k").rows
                     for table in ("t", "kinds")],
                    {gid: p.owner_node for gid, p in pg.prepared_txns.items()})

        before = contents()
        assert before[1] == {"doubt": pg.name}
        assert [row[5] for row in before[0][1] if row[0] >= 10] == [
            "abc", '{"a": 1}', "updated", False, None, None]
        assert before[0][1][-1][7:] == [["x", "y"], [3, 4]]
        pg.crash()
        pg.restart()
        assert contents() == before
        pg.connect().execute("COMMIT PREPARED 'doubt'")
        tables, prepared = contents()
        assert prepared == {} and tables[0] == [[1, 11], [2, 0]]
        assert tables[1][3] == [6, False, 0.5, dt.date(2020, 1, 1), None, [True],
                                "in doubt", None, None]
        # Back to the restore point: the in-doubt transaction never began.
        pg.restore_to_point("settled")
        assert contents() == ([[[1, 11], [2, 20]], before[0][1]], {})

    def test_a_copy_hands_the_log_values_not_its_rows(self, pg, s):
        """Mutating the rows (and a json value in them) after the COPY
        leaves the log as it was."""
        s.execute("CREATE TABLE docs (k int PRIMARY KEY, j jsonb, tags text)")
        rows = [[1, {"a": 1}, "x"], [2, [1], "y"]]
        s.copy_rows("docs", rows)
        logged = list(pg.wal.records)
        rows[0][2] = "changed"
        rows[0][1]["a"] = 2
        rows[1][1].append(2)
        rows.append([3, None, "z"])
        assert pg.wal.records == logged
        assert [record[5] for record in pg.wal.read()
                if record[2] == "insert"][-2:] == [
            (1, '{"a": 1}', "x"), (2, "[1]", "y")]

    def test_an_async_standby_loses_exactly_its_lag(self):
        from repro.net.cluster import Cluster, StandbyConfig

        cluster = Cluster()
        node = cluster.add_node("n1")
        session = node.connect()
        session.execute("CREATE TABLE t (k int PRIMARY KEY)")
        for k in range(5):  # an insert and a commit record each
            session.execute("INSERT INTO t VALUES ($1)", [k])
        logged = list(node.wal.records)
        cluster.enable_standby("n1", StandbyConfig(mode="asynchronous",
                                                   async_lag_records=3))
        cluster.fail_node("n1")
        standby = cluster.promote_standby("n1")
        assert standby.wal.records == logged[:-3]
        # The fourth insert lost its commit record, the fifth both records.
        rows = standby.connect().execute("SELECT k FROM t ORDER BY k").rows
        assert rows == [[0], [1], [2]]


class TestConnectionLimits:
    def test_max_connections_enforced(self):
        from repro.engine import PostgresInstance

        pg = PostgresInstance("small", max_connections=2)
        pg.connect()
        pg.connect()
        with pytest.raises(TooManyConnections):
            pg.connect()

    def test_disconnect_frees_slot(self):
        from repro.engine import PostgresInstance

        pg = PostgresInstance("small", max_connections=1)
        s = pg.connect()
        s.close()
        pg.connect()


class TestGucSettings:
    def test_set_and_show(self, s):
        s.execute("SET application_name = myapp")
        assert s.execute("SHOW application_name").scalar() == "myapp"

    def test_set_local_cleared_at_txn_end(self, s):
        s.execute("BEGIN")
        s.execute("SET LOCAL work_mem = 64")
        assert s.execute("SHOW work_mem").scalar() == 64
        s.execute("COMMIT")
        assert s.execute("SHOW work_mem").scalar() is None


class TestUniqueProbeWaitsForTheInserter:
    """An INSERT of a key another transaction is inserting waits for that
    transaction, as PostgreSQL's does: parked, or timed out when run
    synchronously; once the inserter ends the key is probed again."""

    @pytest.fixture
    def pair(self, pg, s):
        a, b = s, pg.connect()
        a.execute("BEGIN")
        a.execute("INSERT INTO t VALUES (3, 30)")
        return pg, a, b

    def test_a_synchronous_insert_times_out(self, pair):
        _pg, _a, b = pair
        with pytest.raises(LockTimeout):
            b.execute("INSERT INTO t VALUES (3, 31)")

    def test_the_inserter_commits_and_the_waiter_is_a_duplicate(self, pair):
        pg, a, b = pair
        handle = b.execute_async("INSERT INTO t VALUES (3, 31)")
        assert not handle.done
        assert pg.locks.wait_keys == {b.xid: ("transactionid", a.xid)}
        a.execute("COMMIT")
        pg.pump()
        with pytest.raises(UniqueViolation):
            handle.get()
        assert a.execute("SELECT v FROM t WHERE k = 3").rows == [[30]]

    def test_the_inserter_aborts_and_the_waiter_inserts(self, pair):
        pg, a, b = pair
        handle = b.execute_async(
            "INSERT INTO t VALUES (3, 31) ON CONFLICT (k) DO UPDATE SET v = 0")
        a.execute("ROLLBACK")
        pg.pump()
        assert handle.get().rowcount == 1
        assert a.execute("SELECT v FROM t WHERE k = 3").rows == [[31]]

    @pytest.mark.parametrize("outcome, rows", [
        ("COMMIT PREPARED 'p1'", [[3, 30]]), ("ROLLBACK PREPARED 'p1'", [[3, 31]])],
        ids=["commit", "rollback"])
    def test_a_prepared_inserter_is_waited_for(self, pair, outcome, rows):
        """A prepared transaction still holds its key: the waiter is a
        duplicate after COMMIT PREPARED and inserts after ROLLBACK PREPARED."""
        pg, a, b = pair
        a.execute("PREPARE TRANSACTION 'p1'")
        with pytest.raises(LockTimeout):
            b.execute("INSERT INTO t VALUES (3, 31)")
        handle = b.execute_async("INSERT INTO t VALUES (3, 31)")
        assert not handle.done
        a.execute(outcome)
        pg.pump()
        if outcome.startswith("COMMIT"):
            with pytest.raises(UniqueViolation):
                handle.get()
        else:
            assert handle.get().rowcount == 1
        assert a.execute("SELECT k, v FROM t WHERE k = 3").rows == rows

    def test_a_statement_that_has_written_rows_fails_instead(self, pair):
        pg, a, b = pair
        b.execute("BEGIN")
        with pytest.raises(LockTimeout):  # it could not run again from scratch
            b.execute_async("INSERT INTO t VALUES (4, 40), (3, 31)")
        assert b.aborted
        b.execute("ROLLBACK")
        a.execute("COMMIT")
        assert a.execute("SELECT k FROM t ORDER BY k").rows == [[1], [2], [3]]
