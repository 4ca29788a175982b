"""Single-node transaction semantics: blocks, visibility, locking,
deadlocks, crash recovery, restore points."""

import pytest

from repro.errors import (
    DeadlockDetected,
    InvalidTransactionState,
    LockTimeout,
    TooManyConnections,
    TransactionAborted,
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
