"""Storage-layer tests: MVCC visibility, heap vacuum, B-tree / GIN indexes,
lock manager, WAL."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import PostgresInstance
from repro.engine.heap import Heap
from repro.engine.index import BTreeIndex, GinIndex, trigrams
from repro.engine.locks import LockManager, WouldBlock, find_cycle
from repro.engine.mvcc import ABORTED, Snapshot, XidManager, tuple_visible
from repro.engine.wal import WriteAheadLog


class TestMvccVisibility:
    def setup_method(self):
        self.xids = XidManager()

    def test_committed_insert_visible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.finish(writer, committed=True)
        snap = self.xids.take_snapshot()
        assert tuple_visible(tup, snap, self.xids.clog)

    def test_uncommitted_insert_invisible_to_others(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        snap = self.xids.take_snapshot()  # writer still active
        assert not tuple_visible(tup, snap, self.xids.clog)

    def test_own_writes_visible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        snap = self.xids.take_snapshot(own_xid=writer)
        assert tuple_visible(tup, snap, self.xids.clog)

    def test_aborted_insert_invisible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.finish(writer, committed=False)
        snap = self.xids.take_snapshot()
        assert not tuple_visible(tup, snap, self.xids.clog)

    def test_committed_delete_hides_tuple(self):
        w1 = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], w1)
        self.xids.finish(w1, committed=True)
        w2 = self.xids.allocate()
        heap.mark_deleted(tup.tid, w2)
        self.xids.finish(w2, committed=True)
        snap = self.xids.take_snapshot()
        assert not tuple_visible(tup, snap, self.xids.clog)

    def test_aborted_delete_leaves_tuple_visible(self):
        w1 = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], w1)
        self.xids.finish(w1, committed=True)
        w2 = self.xids.allocate()
        heap.mark_deleted(tup.tid, w2)
        self.xids.finish(w2, committed=False)
        snap = self.xids.take_snapshot()
        assert tuple_visible(tup, snap, self.xids.clog)

    def test_snapshot_taken_before_commit_does_not_see(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        snap = self.xids.take_snapshot()
        self.xids.finish(writer, committed=True)
        # Snapshot was taken while writer was in progress: still invisible.
        assert not tuple_visible(tup, snap, self.xids.clog)

    def test_future_xid_invisible(self):
        snap = self.xids.take_snapshot()
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.finish(writer, committed=True)
        assert not tuple_visible(tup, snap, self.xids.clog)

    def test_prepared_txn_stays_invisible(self):
        writer = self.xids.allocate()
        heap = Heap("t")
        tup = heap.insert([1], writer)
        self.xids.mark_prepared(writer)
        snap = self.xids.take_snapshot()
        assert not tuple_visible(tup, snap, self.xids.clog)
        self.xids.resolve_prepared(writer, committed=True)
        snap = self.xids.take_snapshot()
        assert tuple_visible(tup, snap, self.xids.clog)


class TestHeapVacuum:
    def test_vacuum_removes_dead_versions(self):
        xids = XidManager()
        heap = Heap("t")
        w1 = xids.allocate()
        t1 = heap.insert([1], w1)
        xids.finish(w1, True)
        w2 = xids.allocate()
        heap.mark_deleted(t1.tid, w2)
        heap.insert([2], w2, row_id=t1.row_id)
        xids.finish(w2, True)
        removed = heap.vacuum(xids.next_xid, xids.clog)
        assert len(removed) == 1
        assert len(heap.tuples) == 1
        assert list(heap.tuples[0].values) == [2]

    def test_vacuum_keeps_versions_visible_to_old_snapshots(self):
        xids = XidManager()
        heap = Heap("t")
        w1 = xids.allocate()
        t1 = heap.insert([1], w1)
        xids.finish(w1, True)
        old_reader = xids.allocate()  # long-running txn
        w2 = xids.allocate()
        heap.mark_deleted(t1.tid, w2)
        xids.finish(w2, True)
        removed = heap.vacuum(old_reader, xids.clog)
        assert removed == []  # xmax >= oldest active: keep

    def test_vacuum_asks_the_commit_log_once_per_xid(self):
        """Aborted inserters, deleters committed below and above the
        horizon, a prepared deleter and an unknown (crashed) inserter: the
        reclaimed TIDs, their order and the rebuilt chains are what
        ``Heap.is_dead`` per version gives, and each distinct xid is asked
        about once."""
        xids = XidManager()
        heap = Heap("t")
        committed = xids.allocate()
        rows = [heap.insert([k], committed) for k in range(12)]
        xids.finish(committed, True)
        aborted = xids.allocate()
        for k in range(3):
            heap.insert([100 + k], aborted)
        heap.mark_deleted(rows[0].tid, aborted)
        xids.finish(aborted, False)
        heap.insert([200], 10_000)  # an xid the log never heard of
        below = xids.allocate()
        for tup in rows[1:4]:
            heap.mark_deleted(tup.tid, below)
            heap.insert([tup.values[0] + 1], below, row_id=tup.row_id)
        xids.finish(below, True)
        prepared = xids.allocate()  # below the horizon, but not committed
        for tup in rows[6:8]:
            heap.mark_deleted(tup.tid, prepared)
        heap.insert([300], prepared)
        xids.mark_prepared(prepared)
        reader = xids.allocate()  # the horizon: older deletes are dead
        above = xids.allocate()
        for tup in rows[4:6]:
            heap.mark_deleted(tup.tid, above)
        xids.finish(above, True)
        horizon = reader
        expected = [tup.tid for tup in heap.tuples
                    if Heap.is_dead(tup, horizon, xids.clog)]
        survivors = [tup for tup in heap.tuples
                     if not Heap.is_dead(tup, horizon, xids.clog)]
        asked = []
        status = xids.clog.status
        xids.clog.status = lambda xid: asked.append(xid) or status(xid)
        assert heap.vacuum(horizon, xids.clog) == expected
        assert len(expected) == 3 + 1 + 3  # aborted, unknown, deleted below
        assert sorted(asked) == sorted(set(asked))
        assert set(asked) == {committed, aborted, 10_000, below, prepared}
        assert heap.tuples == survivors
        assert_chains_match_heap(heap, None)

    def test_page_accounting(self):
        heap = Heap("t")
        xids = XidManager()
        w = xids.allocate()
        for i in range(100):
            heap.insert([i, "x" * 100], w)
        assert heap.total_bytes > 100 * 100
        assert heap.page_count >= 2


def brute_force_latest(heap, row_id, clog=None):
    """``Heap.latest_version`` as it was before version chains: a scan of
    every stored tuple. The reference the chain walk is checked against."""
    newest = None
    for tup in heap.tuples:
        if tup.row_id != row_id:
            continue
        if clog is not None and clog.status(tup.xmin) == ABORTED:
            continue
        newest = tup
    return newest


def assert_chains_match_heap(heap, clog):
    """Every row's chain is exactly its stored versions, newest first, and
    ``latest_version`` agrees with the brute-force scan with and without
    abort filtering — including for rows vacuum removed entirely."""
    for row_id in range(1, heap._next_row_id + 1):
        stored = [tup for tup in heap.tuples if tup.row_id == row_id]
        chain = list(heap.versions(row_id))
        assert [id(t) for t in chain] == [id(t) for t in reversed(stored)]
        assert heap.latest_version(row_id) is brute_force_latest(heap, row_id)
        assert heap.latest_version(row_id, clog) is brute_force_latest(heap, row_id, clog)


_chain_ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 12), st.booleans()),
    st.tuples(st.just("update"), st.integers(1, 12), st.booleans()),
    st.tuples(st.just("delete"), st.integers(1, 12), st.booleans()),
    st.tuples(st.just("vacuum"), st.just(0), st.just(True)),
    st.tuples(st.just("crash"), st.just(0), st.just(True)),
)


class TestVersionChains:
    def test_latest_version_skips_aborted_only_with_a_clog(self):
        xids = XidManager()
        heap = Heap("t")
        w1 = xids.allocate()
        first = heap.insert([1], w1)
        xids.finish(w1, True)
        w2 = xids.allocate()
        second = heap.insert([2], w2, row_id=first.row_id)
        xids.finish(w2, False)
        assert heap.latest_version(first.row_id) is second
        assert heap.latest_version(first.row_id, xids.clog) is first
        assert heap.latest_version(first.row_id + 1) is None

    def test_vacuum_relinks_chains_over_survivors(self):
        xids = XidManager()
        heap = Heap("t")
        w = xids.allocate()
        v1 = heap.insert([1], w)
        xids.finish(w, True)
        for value in (2, 3):
            w = xids.allocate()
            heap.mark_deleted(heap.latest_version(v1.row_id).tid, w)
            heap.insert([value], w, row_id=v1.row_id)
            xids.finish(w, True)
        assert [list(t.values) for t in heap.versions(v1.row_id)] == [[3], [2], [1]]
        assert len(heap.vacuum(xids.next_xid, xids.clog)) == 2
        assert [list(t.values) for t in heap.versions(v1.row_id)] == [[3]]
        assert_chains_match_heap(heap, xids.clog)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_chain_ops, max_size=25))
    def test_property_chains_equal_brute_force_scan(self, ops):
        """Random insert / update / delete / abort / vacuum / crash-recovery
        sequences through the engine: after every step the chains and
        ``latest_version`` equal a brute-force scan of ``heap.tuples``, so
        no chain ever references a vacuumed tuple or misses a replayed one."""
        pg = PostgresInstance("chains")
        session = pg.connect()
        session.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        next_key = 1
        for op, arg, commit in ops:
            if op == "vacuum":
                session.execute("VACUUM t")
            elif op == "crash":
                pg.crash()
                pg.restart()
                session = pg.connect()
            else:
                session.execute("BEGIN")
                if op == "insert":
                    session.execute("INSERT INTO t VALUES (:k, 0)", {"k": next_key})
                    next_key += 1
                elif op == "update":
                    session.execute("UPDATE t SET v = v + 1 WHERE k <= :k", {"k": arg})
                else:
                    session.execute("DELETE FROM t WHERE k = :k", {"k": arg})
                session.execute("COMMIT" if commit else "ROLLBACK")
            assert_chains_match_heap(pg.catalog.get_table("t").heap, pg.xids.clog)

    def test_update_and_delete_never_scan_the_heap_for_a_version(self):
        """Clock-free complexity check: on a heap carrying 20k dead
        versions, single-row and 2k-row UPDATEs and a 2k-row DELETE reach
        their target versions through the index and the version chains;
        nothing iterates ``heap.tuples`` (which ``latest_version`` used to
        do once per target row)."""

        class CountingList(list):
            iterations = 0

            def __iter__(self):
                CountingList.iterations += 1
                return super().__iter__()

        pg = PostgresInstance("complexity")
        session = pg.connect()
        session.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        session.copy_rows("t", [[k, 0] for k in range(1, 2001)])
        for _ in range(10):
            session.execute("UPDATE t SET v = v + 1 WHERE k >= 1")
        heap = pg.catalog.get_table("t").heap
        assert heap.dead_tuples == 20_000
        heap.tuples = CountingList(heap.tuples)
        one = session.execute("UPDATE t SET v = v + 1 WHERE k = 77")
        many = session.execute("UPDATE t SET v = v + 1 WHERE k >= 1")
        gone = session.execute("DELETE FROM t WHERE k >= 1")
        assert (one.rowcount, many.rowcount, gone.rowcount) == (1, 2000, 2000)
        assert CountingList.iterations == 0
        assert type(heap.tuples) is CountingList


def assert_scan_matches_tuple_visible(heap, snapshot, clog):
    """``Heap.scan`` (per-snapshot xid verdicts, inlined test) returns
    exactly the tuples the reference rule admits, evaluated afresh — and so
    does ``Heap.fetch`` over index candidates: every TID ever handed out,
    newest first, reclaimed ones included."""
    admitted = [t.tid for t in heap.tuples if tuple_visible(t, snapshot, clog)]
    assert [t.tid for t in heap.scan(snapshot, clog)] == admitted
    candidates = range(heap._next_tid, 0, -1)
    assert [t.tid for t in heap.fetch(candidates, snapshot, clog)] == admitted[::-1]


_WRITERS = 3
_visibility_ops = st.one_of(
    st.tuples(st.sampled_from(["insert", "commit", "abort", "prepare",
                               "resolve", "snapshot"]),
              st.integers(0, _WRITERS - 1), st.booleans()),
    st.tuples(st.sampled_from(["update", "delete"]),
              st.integers(0, _WRITERS - 1), st.integers(0, 5)),
    st.tuples(st.just("vacuum"), st.just(0), st.just(True)),
    st.tuples(st.just("reader_snapshot"), st.just(0), st.just(True)),
)


class TestScanVisibilityParity:
    """A snapshot remembers its verdict on every xid it has met; the
    verdict must therefore never change while the snapshot lives. The
    reference, ``tuple_visible``, asks the commit log every time."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_visibility_ops, max_size=40))
    def test_property_held_snapshots_scan_what_tuple_visible_admits(self, ops):
        """Three interleaved writers (each on its own keys, so no lock
        waits) insert / update / delete, commit / abort, PREPARE and
        COMMIT / ROLLBACK PREPARED, with VACUUMs in between. Snapshots —
        a bystander's, or a writer's own mid-transaction — are held across
        all later steps; after every step each of them, and a fresh one,
        scans what the reference admits."""
        pg = PostgresInstance("visibility")
        admin = pg.connect()
        admin.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        heap, clog = pg.catalog.get_table("t").heap, pg.xids.clog
        writers = [pg.connect() for _ in range(_WRITERS)]
        inserted = [0] * _WRITERS  # writer w owns keys w, w + 3, w + 6, ...
        prepared = [None] * _WRITERS  # gid awaiting resolution (locks held)
        held = []
        gids = 0
        for op, w, arg in ops:
            writer = writers[w]
            if op == "insert" and prepared[w] is None:
                writer.execute("BEGIN")
                writer.execute("INSERT INTO t VALUES (:k, 0)",
                               {"k": inserted[w] * _WRITERS + w})
                inserted[w] += 1
            elif op in ("update", "delete") and prepared[w] is None and inserted[w]:
                writer.execute("BEGIN")
                writer.execute("UPDATE t SET v = v + 1 WHERE k = :k"
                               if op == "update" else "DELETE FROM t WHERE k = :k",
                               {"k": arg % inserted[w] * _WRITERS + w})
            elif op == "commit":
                writer.execute("COMMIT")
            elif op == "abort":
                writer.execute("ROLLBACK")
            elif op == "prepare" and writer.xid is not None:
                gids += 1
                prepared[w] = f"g{gids}"
                writer.execute(f"PREPARE TRANSACTION '{prepared[w]}'")
            elif op == "resolve" and prepared[w] is not None:
                admin.execute(("COMMIT" if arg else "ROLLBACK")
                              + f" PREPARED '{prepared[w]}'")
                prepared[w] = None
            elif op == "vacuum":
                admin.execute("VACUUM t")
            elif op == "snapshot":
                held.append(writer.snapshot())  # sees its own writes
            elif op == "reader_snapshot":
                held.append(pg.xids.take_snapshot())
            for snapshot in held + [pg.xids.take_snapshot()]:
                assert_scan_matches_tuple_visible(heap, snapshot, clog)

    def _keys(self, heap, snapshot, clog):
        assert_scan_matches_tuple_visible(heap, snapshot, clog)
        return sorted(t.values[0] for t in heap.scan(snapshot, clog))

    def test_a_prepared_writer_stays_invisible_to_a_snapshot_that_met_it(self):
        pg = PostgresInstance("prepared")
        writer, other = pg.connect(), pg.connect()
        writer.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        writer.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
        heap, clog = pg.catalog.get_table("t").heap, pg.xids.clog
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (3, 0)")
        writer.execute("DELETE FROM t WHERE k = 1")
        xid = writer.xid
        writer.execute("PREPARE TRANSACTION 'g'")
        during = pg.xids.take_snapshot()
        assert self._keys(heap, during, clog) == [1, 2]
        assert during.verdicts[xid] is False
        other.execute("COMMIT PREPARED 'g'")
        # The log now says committed; the snapshot predates that.
        assert self._keys(heap, during, clog) == [1, 2]
        assert during.verdicts[xid] is False
        assert self._keys(heap, pg.xids.take_snapshot(), clog) == [2, 3]

    def test_own_deletes_and_an_aborted_xmax(self):
        pg = PostgresInstance("own")
        writer = pg.connect()
        writer.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        writer.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
        heap, clog = pg.catalog.get_table("t").heap, pg.xids.clog
        writer.execute("BEGIN")
        writer.execute("DELETE FROM t WHERE k = 1")
        writer.execute("INSERT INTO t VALUES (3, 0)")
        own, bystander = writer.snapshot(), pg.xids.take_snapshot()
        assert self._keys(heap, own, clog) == [2, 3]
        assert self._keys(heap, bystander, clog) == [1, 2]
        writer.execute("ROLLBACK")
        # Row 1 keeps the aborted deleter in xmax and is visible again.
        assert heap.tuples[0].xmax is not None
        assert self._keys(heap, pg.xids.take_snapshot(), clog) == [1, 2]
        assert self._keys(heap, bystander, clog) == [1, 2]

    def test_a_lazily_consumed_cursor_keeps_its_snapshot_across_a_commit(self):
        from repro.sql import parse

        pg = PostgresInstance("cursor")
        reader, writer = pg.connect(), pg.connect()
        reader.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        reader.copy_rows("t", [[k, 0] for k in range(1, 9)])
        cursor = reader.execute_parsed_cursor(parse("SELECT k FROM t")[0])
        assert cursor.fetch(3).rows() == [[1], [2], [3]]
        writer.execute("BEGIN")
        writer.execute("DELETE FROM t WHERE k = 6")
        writer.execute("INSERT INTO t VALUES (9, 0)")
        writer.execute("COMMIT")
        # Neither the committed delete nor the committed insert is seen.
        assert cursor.fetch(100).rows() == [[4], [5], [6], [7], [8]]
        assert reader.execute("SELECT k FROM t ORDER BY k").rows == [
            [1], [2], [3], [4], [5], [7], [8], [9]]

    @pytest.mark.parametrize("disturbance", ["vacuum", "probes", "both"])
    @pytest.mark.parametrize("sql", [
        "SELECT k, v FROM t WHERE k = 1",  # index path
        "SELECT k, v FROM t",  # sequential path
    ], ids=["index", "seq"])
    def test_an_open_cursor_keeps_the_versions_it_can_see(self, sql, disturbance):
        """A cursor's snapshot outlives its statement: neither VACUUM nor a
        probe that kills index entries may take a version it can still see.
        ``min(xids.active)`` alone is the cursor's *own* xid here, above
        the updater it holds in progress, so the old version — the only one
        the cursor sees — used to be reclaimed and the row vanished."""
        from repro.sql import parse

        pg = PostgresInstance("pinned")
        reader, writer, other = pg.connect(), pg.connect(), pg.connect()
        reader.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        reader.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET v = 11 WHERE k = 1")
        cursor = reader.execute_parsed_cursor(parse(sql)[0])
        updater = writer.xid
        assert reader.xid > updater and updater in cursor.snapshot.in_progress
        writer.execute("COMMIT")
        assert pg.xids.horizon() == updater  # pinned; min(active) is above
        table = pg.catalog.get_table("t")
        old = table.heap.tuples[0]
        if disturbance != "vacuum":
            # Enough committed versions for every probe to find most of its
            # candidates invisible, which is what triggers a kill.
            for v in range(12, 16):
                other.execute("UPDATE t SET v = $1 WHERE k = 1", [v])
            for _ in range(3):
                assert other.execute("SELECT v FROM t WHERE k = 1").rows == [[15]]
                other.execute("INSERT INTO t VALUES (1, 0) ON CONFLICT (k) DO NOTHING")
        if disturbance != "probes":
            assert other.execute("VACUUM t").rowcount == 0
        assert old in table.heap.tuples
        assert old.tid in table.indexes["t_pkey"].data.scan_equal([1])
        expected = [[1, 10], [2, 20]][:cursor_rows(sql)]
        assert cursor.fetch(10).rows() == expected
        # The cursor is done: the pin is gone, and so may the versions be.
        assert pg.xids.pinned == [] and pg.xids.horizon() == pg.xids.next_xid
        assert other.execute("SELECT v FROM t WHERE k = 1").rows == [
            [11 if disturbance == "vacuum" else 15]]
        if disturbance != "vacuum":  # five dead of six: that probe killed them
            assert table.indexes["t_pkey"].data.scan_equal([1]) == [
                table.heap.tuples[-1].tid]
        assert other.execute("VACUUM t").rowcount >= 1
        assert len(table.heap.tuples) == len(table.indexes["t_pkey"].data) == 2

    def test_a_closed_or_crashed_cursor_unpins(self):
        from repro.sql import parse

        pg = PostgresInstance("unpin")
        session = pg.connect()
        session.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        stmt = parse("SELECT k FROM t")[0]
        first, second = (session.execute_parsed_cursor(stmt) for _ in range(2))
        assert len(pg.xids.pinned) == 2
        first.close()
        assert pg.xids.pinned == [second.snapshot]
        # A materialised cursor holds no snapshot, so it pins nothing.
        sorted_cursor = session.execute_parsed_cursor(
            parse("SELECT k FROM t ORDER BY k")[0])
        assert sorted_cursor.snapshot is None and len(pg.xids.pinned) == 1
        pg.crash()
        assert pg.xids.pinned == []
        pg.restart()
        second.close()  # its session is gone; must not disturb the new state
        assert pg.xids.pinned == [] and pg.xids.horizon() == pg.xids.next_xid


def cursor_rows(sql: str) -> int:
    return 1 if "WHERE" in sql else 2


class TestVacuumPrunesIndexes:
    """VACUUM must drop the index entries of the versions it reclaims:
    after it, every index holds exactly one entry per stored tuple."""

    def _churn(self, session):
        session.execute("CREATE TABLE t (k int PRIMARY KEY, v int, body text)")
        session.execute("CREATE INDEX t_body_trgm ON t USING gin (body gin_trgm_ops)")
        session.copy_rows("t", [[k, 0, f"message number {k}"] for k in range(1, 101)])
        for _ in range(5):
            session.execute("UPDATE t SET v = v + 1")
        session.execute("DELETE FROM t WHERE k <= 50")

    def test_btree_and_gin_hold_one_entry_per_stored_tuple(self, pg, session):
        self._churn(session)
        table = pg.catalog.get_table("t")
        # Probes kill entries of versions dead to every snapshot (the DELETE's
        # range probe did): entries ⊆ stored tuples ⊇ what a snapshot can see.
        entries = set(table.indexes["t_pkey"].data.scan_all())
        assert entries <= {tup.tid for tup in table.heap.tuples}
        assert entries >= {tup.tid for tup in table.heap.scan(
            session.snapshot(), pg.xids.clog)}
        before = session.execute("SELECT k, v FROM t ORDER BY k").rows
        assert session.execute("VACUUM t").rowcount == 550
        assert len(table.heap.tuples) == 50
        live_tids = {tup.tid for tup in table.heap.tuples}
        for name in ("t_pkey", "t_body_trgm"):
            assert len(table.indexes[name].data) == 50, name
        assert set(table.indexes["t_pkey"].data.scan_all()) == live_tids
        assert table.indexes["t_body_trgm"].data.search_substring("number") == live_tids
        # Scans read the same rows, and probes no longer wade through dead TIDs.
        assert session.execute("SELECT k, v FROM t ORDER BY k").rows == before
        assert table.indexes["t_pkey"].data.scan_equal([77]) == [
            tup.tid for tup in table.heap.tuples if tup.values[0] == 77]

    def test_versions_an_open_snapshot_may_need_keep_their_entries(self, pg, session):
        session.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        session.copy_rows("t", [[k, 0] for k in range(1, 11)])
        session.execute("UPDATE t SET v = 1")  # reclaimable: 10 dead versions
        reader = pg.connect()
        reader.execute("BEGIN")
        reader.execute("INSERT INTO t VALUES (99, 0)")  # holds an xid open
        session.execute("UPDATE t SET v = 2")  # deleted after the reader began
        session.execute("VACUUM t")
        table = pg.catalog.get_table("t")
        # 10 live + 10 not yet reclaimable + the reader's uncommitted row.
        assert len(table.heap.tuples) == 21
        assert len(table.indexes["t_pkey"].data) == 21
        reader.execute("COMMIT")
        session.execute("VACUUM t")
        assert len(table.heap.tuples) == len(table.indexes["t_pkey"].data) == 11


# ------------------------------------------------ index entries die on access

_BODIES = ["apple pie", "apple tart", "berry pie", None]
_NEEDLES = ["apple", "pie", "berry"]
_KEYS = st.integers(1, 4)
_SESSIONS = st.integers(0, 2)

#: One schedule step: ``(op, session, a, b)``. Three sessions share a few
#: keys of ``t (k PRIMARY KEY, v, body, n)`` — B-tree on ``k``, B-tree on the
#: mutable ``v``, trigram GIN on ``body``, and ``n`` in no index. The four
#: kinds are drawn equally often (repeats weight an op within its kind), so
#: a schedule keeps transactions open across other sessions' probes.
_index_steps = st.one_of(
    st.tuples(st.sampled_from(["update_v", "update_v", "update_n", "update_key",
                               "delete", "insert", "upsert"]),
              _SESSIONS, _KEYS, _KEYS),
    st.tuples(st.sampled_from(["begin", "begin", "commit", "commit", "rollback",
                               "prepare"]),
              _SESSIONS, st.just(0), st.just(0)),
    st.tuples(st.sampled_from(["read_k", "read_k", "read_v", "range_k", "range_v",
                               "read_body"]),
              _SESSIONS, _KEYS, st.just(0)),
    st.tuples(st.sampled_from(["open_index", "open_seq", "fetch", "fetch", "close",
                               "vacuum", "vacuum", "commit_prepared",
                               "commit_prepared", "rollback_prepared", "crash"]),
              _SESSIONS, st.integers(0, 3), st.integers(1, 3)),
)


def _index_tids(index) -> set:
    data = index.data
    return set(data._tid_keys) if isinstance(data, GinIndex) else set(data.scan_all())


def assert_indexes_cover_the_heap(pg, sessions):
    """What must hold between a table's heap and its indexes whatever
    probes have killed: entries name stored tuples under the key those
    tuples have; every version that is not dead to every snapshot — in
    particular every one the current, a session's or a pinned snapshot can
    see, and the victim of a prepared deleter — has its entry in every
    index."""
    table = pg.catalog.get_table("t")
    heap, xids = table.heap, pg.xids
    horizon = xids.horizon()
    snapshots = [xids.take_snapshot(), *xids.pinned,
                 *(session.snapshot() for session in sessions)]
    needed = {tup.tid for snapshot in snapshots
              for tup in heap.scan(snapshot, xids.clog)}
    prepared = {txn.xid for txn in pg.prepared_txns.values()}
    needed |= {tup.tid for tup in heap.tuples if tup.xmax in prepared}
    assert needed <= {tup.tid for tup in heap.tuples
                      if not heap.is_dead(tup, horizon, xids.clog)}
    for name, index in table.indexes.items():
        tids = _index_tids(index)
        assert tids <= set(heap._by_tid), name
        assert needed <= tids, (name, sorted(needed - tids))
        if isinstance(index.data, BTreeIndex):
            position = table.column_index(index.exprs[0].name)
            entries = index.data._entries
            assert entries == sorted(entries), name
            assert entries == sorted(
                (BTreeIndex.make_key([heap.get(tid).values[position]]), tid)
                for tid in tids), name


def run_index_schedule(steps):
    """Drive ``steps`` through one instance, checking after every step
    that the indexes still cover the heap, that an indexed read returns
    what the same predicate admits over ``Heap.scan`` under the same
    snapshot, that an INSERT collides exactly when its key is visible, and
    that a cursor returns what its snapshot admitted when it was opened."""
    from repro.errors import SQLError, UniqueViolation
    from repro.sql import parse

    pg = PostgresInstance("schedule")
    admin = pg.connect()
    admin.execute("CREATE TABLE t (k int PRIMARY KEY, v int, body text, n int)")
    admin.execute("CREATE INDEX t_v ON t (v)")
    admin.execute("CREATE INDEX t_body ON t USING gin (body gin_trgm_ops)")
    admin.copy_rows("t", [[k, k, _BODIES[k % 4], 0] for k in (1, 2, 3)])
    admin.close()
    sessions = [pg.connect() for _ in range(3)]
    cursors = []  # [cursor, its session, rows it must return, rows so far]
    gids = 0

    def visible(session, keep):
        table = pg.catalog.get_table("t")
        return sorted(list(tup.values) for tup in table.heap.scan(
            session.snapshot(), pg.xids.clog) if keep(tup.values))

    reads = {
        "read_k": ("SELECT * FROM t WHERE k = $1", lambda a: lambda r: r[0] == a),
        "read_v": ("SELECT * FROM t WHERE v = $1", lambda a: lambda r: r[1] == a),
        "range_k": ("SELECT * FROM t WHERE k <= $1", lambda a: lambda r: r[0] <= a),
        "range_v": ("SELECT * FROM t WHERE v > $1", lambda a: lambda r: r[1] > a),
    }
    for op, s, a, b in steps:
        session = sessions[s]
        busy = any(owner is session for _c, owner, _e, _g in cursors)
        try:
            if op == "crash":
                pg.crash()
                pg.restart()
                sessions = [pg.connect() for _ in range(3)]
                cursors.clear()
            elif op in ("fetch", "close"):
                if cursors:
                    entry = cursors[a % len(cursors)]
                    cursor, _owner, expected, got = entry
                    if op == "fetch":
                        got.extend(cursor.fetch(b).rows())
                    else:
                        cursor.close()
                    if cursor.exhausted:
                        assert sorted(got) == expected
                    if cursor.exhausted or cursor.closed:
                        cursors.remove(entry)
            elif op in ("commit_prepared", "rollback_prepared"):
                if pg.prepared_txns:
                    gid = sorted(pg.prepared_txns)[a % len(pg.prepared_txns)]
                    session.execute(f"{op.split('_')[0].upper()} PREPARED '{gid}'")
            elif busy:
                pass  # a session with a portal open only fetches and closes
            elif op in ("open_index", "open_seq"):
                # On an idle session, so nothing it writes later can show
                # through the snapshot's own-xid rule.
                if session.xid is None and not session.in_transaction:
                    keep = (lambda r: r[0] <= 5) if op == "open_index" else (lambda r: True)
                    sql = "SELECT * FROM t" + (" WHERE k <= 5" if op == "open_index" else "")
                    cursor = session.execute_parsed_cursor(parse(sql)[0])
                    assert cursor.snapshot in pg.xids.pinned
                    cursors.append([cursor, session, visible(session, keep), []])
            elif op in reads:
                sql, keep = reads[op]
                lookups = session.stats["index_lookups"]
                rows = session.execute(sql, [a]).rows
                assert session.stats["index_lookups"] == lookups + 1
                assert sorted(rows) == visible(session, keep(a))
            elif op == "read_body":
                needle = _NEEDLES[a % len(_NEEDLES)]
                lookups = session.stats["index_lookups"]
                rows = session.execute(
                    f"SELECT * FROM t WHERE body ILIKE '%{needle}%'").rows
                assert session.stats["index_lookups"] == lookups + 1
                assert sorted(rows) == visible(
                    session, lambda r: r[2] is not None and needle in r[2])
            elif op == "insert":
                taken = bool(visible(session, lambda r: r[0] == a))
                try:
                    session.execute("INSERT INTO t VALUES ($1, $2, $3, 0)",
                                    [a, b, _BODIES[b % 4]])
                except UniqueViolation:
                    assert taken
                else:
                    assert not taken
            elif op == "upsert":
                session.execute(
                    "INSERT INTO t VALUES ($1, $2, $3, 0) ON CONFLICT (k)"
                    " DO UPDATE SET v = excluded.v, body = excluded.body",
                    [a, b, _BODIES[b % 4]])
                assert visible(session, lambda r: r[0] == a)[0][:3] == [
                    a, b, _BODIES[b % 4]]
            elif op == "update_key":
                session.execute("UPDATE t SET k = $2 WHERE k = $1", [a, b])
            elif op == "update_v":
                session.execute("UPDATE t SET v = $2, body = $3 WHERE k = $1",
                                [a, b, _BODIES[b % 4]])
            elif op == "update_n":
                session.execute("UPDATE t SET n = n + 1 WHERE k = $1", [a])
            elif op == "delete":
                session.execute("DELETE FROM t WHERE k = $1", [a])
            elif op == "prepare":
                if session.in_transaction and session.xid is not None:
                    gids += 1
                    session.execute(f"PREPARE TRANSACTION 'g{gids}'")
            else:
                session.execute({"begin": "BEGIN", "commit": "COMMIT",
                                 "rollback": "ROLLBACK", "vacuum": "VACUUM t"}[op])
        except SQLError:
            pass  # lock timeout, aborted block, duplicate key on UPDATE
        assert_indexes_cover_the_heap(pg, sessions)
        # What a cursor's snapshot admitted when it was taken is all still
        # stored (and, by the above, indexed), fetched yet or not.
        for cursor, _owner, expected, got in cursors:
            stored = sorted(list(tup.values) for tup in pg.catalog.get_table(
                "t").heap.scan(cursor.snapshot, pg.xids.clog))
            assert [row for row in expected if row not in stored] == []
            assert [row for row in got if row not in expected] == []
    return pg


class TestIndexEntriesDieOnAccess:
    """Index probes delete the entries of versions that are dead to every
    snapshot (DESIGN.md, "Index entries die on access; one horizon"). No
    schedule of writers, 2PC, cursors, VACUUM, crashes and probes may make
    an index miss a version some snapshot can see."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_index_steps, min_size=30, max_size=80))
    # Session 1 inserts the key session 0 is inserting: it waits for session
    # 0 (here: times out) instead of storing the key a second time.
    @example([("delete", 1, 2, 1), ("begin", 0, 0, 0), ("insert", 0, 2, 1),
              ("insert", 1, 2, 1), ("upsert", 0, 2, 2)])
    def test_property_indexes_cover_the_heap_under_any_schedule(self, steps):
        run_index_schedule(steps)

    @pytest.mark.parametrize("steps", [
        # a cursor that met the updater in progress; the updater commits;
        # VACUUM, then a probe storm, with the cursor still unread
        [("begin", 0, 0, 0), ("update_v", 0, 1, 2), ("open_index", 1, 0, 0),
         ("commit", 0, 0, 0), ("vacuum", 2, 0, 0), ("fetch", 1, 0, 3)],
        [("begin", 0, 0, 0), ("update_v", 0, 1, 2), ("open_seq", 1, 0, 0),
         ("commit", 0, 0, 0), ("update_v", 0, 1, 3), ("update_v", 0, 1, 4),
         ("read_k", 2, 1, 0), ("read_v", 2, 1, 0), ("read_body", 2, 0, 0),
         ("fetch", 1, 0, 3)],
        # an uncommitted insert probed from outside is not dead
        [("begin", 0, 0, 0), ("insert", 0, 4, 1), ("read_k", 1, 4, 0),
         ("insert", 1, 4, 2), ("commit", 0, 0, 0), ("read_k", 1, 4, 0)],
        # kills are not state: replay re-inserts the entries, probes re-kill
        [("update_v", 0, 1, 2), ("update_v", 0, 1, 3), ("read_k", 1, 1, 0),
         ("crash", 0, 0, 0), ("read_k", 1, 1, 0), ("read_v", 1, 3, 0),
         ("vacuum", 0, 0, 0)],
        # an aborted key change leaves an entry under a key nobody has
        [("begin", 0, 0, 0), ("update_key", 0, 1, 4), ("rollback", 0, 0, 0),
         ("read_k", 1, 4, 0), ("insert", 1, 4, 1), ("range_k", 2, 4, 0)],
    ], ids=["cursor-vacuum", "cursor-probes", "uncommitted-insert",
            "crash-replay", "aborted-key-change"])
    def test_named_schedules(self, steps):
        run_index_schedule(steps)

    def test_a_prepared_deleters_victim_keeps_its_entries(self):
        steps = [("delete", 0, 2, 0), ("delete", 0, 3, 0), ("vacuum", 0, 0, 0),
                 ("begin", 0, 0, 0), ("delete", 0, 1, 0), ("prepare", 0, 0, 0)]
        probes = [("read_k", 1, 1, 0), ("read_v", 1, 1, 0), ("read_body", 1, 0, 0),
                  ("insert", 1, 1, 1), ("vacuum", 1, 0, 0)] * 3
        pg = run_index_schedule(steps + probes)
        table = pg.catalog.get_table("t")
        assert [len(index.data) for index in table.indexes.values()] == [1, 1, 1]
        pg = run_index_schedule(
            steps + probes + [("commit_prepared", 1, 0, 1)] + probes[:3])
        table = pg.catalog.get_table("t")
        assert [len(index.data) for index in table.indexes.values()] == [0, 0, 0]
        assert len(table.heap.tuples) == 1  # the heap version is VACUUM's


class TestBTreeIndex:
    @given(st.one_of(st.integers(), st.text(), st.booleans(), st.floats(),
                     st.none(), st.dates()))
    def test_a_column_key_is_the_padded_sort_key(self, value):
        from repro.engine.datum import sort_key
        from repro.engine.index import _column_key

        key = sort_key(value)
        assert _column_key(value) == key + (0,) * (4 - len(key))

    def test_insert_and_equal_scan(self):
        index = BTreeIndex(1)
        for i, tid in [(5, 1), (3, 2), (5, 3), (7, 4)]:
            index.insert([i], tid)
        assert index.scan_equal([5]) == [1, 3]

    def test_range_scan(self):
        index = BTreeIndex(1)
        for i in range(10):
            index.insert([i], i + 100)
        assert index.scan_range(3, 6) == [103, 104, 105, 106]
        assert index.scan_range(3, 6, low_inclusive=False) == [104, 105, 106]
        assert index.scan_range(3, 6, high_inclusive=False) == [103, 104, 105]
        assert index.scan_range(None, 2) == [100, 101, 102]
        assert index.scan_range(8, None) == [108, 109]

    def test_composite_prefix_scan(self):
        index = BTreeIndex(2)
        index.insert([1, "a"], 1)
        index.insert([1, "b"], 2)
        index.insert([2, "a"], 3)
        assert index.scan_equal([1]) == [1, 2]
        assert index.scan_equal([1, "b"]) == [2]

    def test_delete(self):
        index = BTreeIndex(1)
        index.insert([1], 10)
        index.insert([1], 11)
        index.delete([1], 10)
        assert index.scan_equal([1]) == [11]

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=60))
    def test_property_scan_all_is_sorted(self, keys):
        index = BTreeIndex(1)
        for tid, key in enumerate(keys):
            index.insert([key], tid)
        values = [keys[tid] for tid in index.scan_all()]
        assert values == sorted(values)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=60),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=50))
    def test_property_range_scan_equals_filter(self, keys, lo, hi):
        index = BTreeIndex(1)
        for tid, key in enumerate(keys):
            index.insert([key], tid)
        got = sorted(index.scan_range(lo, hi))
        expected = sorted(t for t, k in enumerate(keys) if lo <= k <= hi)
        assert got == expected


class TestGinIndex:
    def test_trigram_extraction(self):
        grams = trigrams("fix postgres")
        assert "pos" in grams and "fix" in grams

    def test_substring_search(self):
        index = GinIndex()
        index.insert("fix the postgres planner", 1)
        index.insert("update readme", 2)
        index.insert("postgresql rocks", 3)
        assert index.search_substring("postgres") == {1, 3}

    def test_short_needle_returns_none(self):
        index = GinIndex()
        index.insert("abc", 1)
        assert index.search_substring("ab") is None  # too short: seq scan

    def test_delete(self):
        index = GinIndex()
        index.insert("hello world", 1)
        index.delete("hello world", 1)
        assert index.search_substring("hello") == set()

    def test_candidates_are_superset_not_exact(self):
        # GIN may return false positives (recheck needed), never misses.
        index = GinIndex()
        texts = ["abcdef", "defabc", "xyzabc", "nothing here"]
        for tid, text in enumerate(texts):
            index.insert(text, tid)
        candidates = index.search_substring("abc")
        actual = {t for t, text in enumerate(texts) if "abc" in text}
        assert actual <= candidates


class TestLockManager:
    def test_row_lock_conflict(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        with pytest.raises(WouldBlock):
            locks.acquire_row("t", 1, xid=11)

    def test_row_lock_reentrant(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        locks.acquire_row("t", 1, xid=10)

    def test_a_row_set_locks_the_prefix_before_a_conflict(self):
        locks = LockManager()
        locks.acquire_row("t", 3, xid=10)
        with pytest.raises(WouldBlock) as block:
            locks.acquire_rows("t", [1, 2, 3, 4], xid=11)
        assert block.value.key == ("row", "t", 3)
        assert block.value.holders == {10}
        # The rows before the conflict are 11's, the one after is free;
        # the same as locking them one at a time.
        one_by_one = LockManager()
        one_by_one.acquire_row("t", 3, xid=10)
        with pytest.raises(WouldBlock):
            for row_id in [1, 2, 3, 4]:
                one_by_one.acquire_row("t", row_id, xid=11)
        assert locks._row_locks == one_by_one._row_locks == {
            "t": {3: 10, 1: 11, 2: 11}}
        assert locks._held_rows == one_by_one._held_rows
        locks.acquire_rows("t", [4], xid=12)
        locks.release_all(10)
        locks.acquire_rows("t", [1, 2, 3], xid=11)  # its own rows again
        with pytest.raises(WouldBlock):
            locks.acquire_rows("t", [3, 4], xid=11)
        assert locks._row_locks["t"] == {1: 11, 2: 11, 3: 11, 4: 12}

    def test_a_first_row_conflict_holds_nothing(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        with pytest.raises(WouldBlock):
            locks.acquire_rows("t", [1, 2], xid=11)
        assert 11 not in locks._held_rows

    def test_row_lock_release_allows_next(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        locks.release_all(10)
        locks.acquire_row("t", 1, xid=11)

    def test_table_lock_conflict_matrix(self):
        locks = LockManager()
        locks.acquire_table("t", "RowExclusive", xid=1)
        locks.acquire_table("t", "RowExclusive", xid=2)  # compatible
        with pytest.raises(WouldBlock):
            locks.acquire_table("t", "AccessExclusive", xid=3)

    def test_access_share_blocks_only_access_exclusive(self):
        locks = LockManager()
        locks.acquire_table("t", "AccessShare", xid=1)
        locks.acquire_table("t", "Exclusive", xid=2)
        with pytest.raises(WouldBlock):
            locks.acquire_table("t", "AccessExclusive", xid=3)

    def test_wait_edges_and_cycle(self):
        locks = LockManager()
        locks.add_wait(1, {2})
        locks.add_wait(2, {3})
        assert locks.find_local_cycle() is None
        locks.add_wait(3, {1})
        cycle = locks.find_local_cycle()
        assert set(cycle) == {1, 2, 3}

    def test_release_clears_wait_edges(self):
        locks = LockManager()
        locks.add_wait(1, {2})
        locks.release_all(2)
        assert locks.wait_graph_edges() == []

    def test_transfer_preserves_locks(self):
        locks = LockManager()
        locks.acquire_row("t", 1, xid=10)
        locks.transfer(10, 20)
        with pytest.raises(WouldBlock):
            locks.acquire_row("t", 1, xid=30)
        locks.acquire_row("t", 1, xid=20)  # new owner re-acquires fine

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    def test_property_find_cycle_is_real(self, edge_list):
        edges = {}
        for a, b in edge_list:
            if a != b:
                edges.setdefault(a, set()).add(b)
        cycle = find_cycle(edges)
        if cycle is not None:
            # Verify: each consecutive pair is an edge, and it wraps.
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert nxt in edges.get(node, set())


class TestWal:
    def test_append_and_lsn_monotonic(self):
        wal = WriteAheadLog()
        first = wal.append(1, "ddl", "CREATE TABLE t (k int)")
        wal.append_row(1, "insert", "t", 1, [1])
        assert wal.append(1, "commit") == first + 2 == wal.current_lsn

    def test_restore_point_lookup(self):
        wal = WriteAheadLog()
        wal.append_row(1, "insert", "t", 1, [1])
        lsn = wal.create_restore_point("rp")
        wal.append_row(2, "insert", "t", 2, [2])
        assert wal.find_restore_point("rp") == lsn
        assert wal.find_restore_point("missing") is None

    def test_records_until(self):
        wal = WriteAheadLog()
        wal.append_row(1, "insert", "t", 1, [1])
        lsn = wal.create_restore_point("rp")
        wal.append_row(2, "insert", "t", 2, [2])
        assert list(wal.read(lsn)) == [(1, 1, "insert", "t", 1, (1,)),
                                       (2, 0, "restore_point", "rp")]
        assert len(list(wal.read())) == 3

    def test_clone_is_independent(self):
        wal = WriteAheadLog()
        wal.append_row(1, "insert", "t", 1, [1])
        clone = wal.clone()
        wal.append_row(2, "delete", "t", 1)
        assert len(clone.records) == 1
        assert len(wal.records) == 2
        assert list(wal.read())[1] == (2, 2, "delete", "t", 1, None)

    def test_bytes_accounting_grows(self):
        wal = WriteAheadLog()
        before = wal.bytes_written
        wal.append_row(1, "insert", "t", 1, ["x" * 100])
        assert wal.bytes_written == before + 64 + 8 + len("t") + 8
        wal.append(1, "prepare", "gid-1")
        assert wal.bytes_written == before + 81 + 64 + len("gid-1")
