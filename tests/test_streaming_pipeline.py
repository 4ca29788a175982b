"""Streaming tuple pipeline: cursor-based engine execution, batched wire
transfer, and the streaming coordinator merge.

Covers the pull-based data plane end to end:

- engine layer: ``EngineCursor`` semantics and genuine lazy scans (a
  satisfied LIMIT stops the heap scan early);
- wire layer: a ``RemoteCursor`` is one round trip, its batches ride it
  at their byte size, the same price the blocking plane charges for the
  same rows, and an early ``close()`` is one small trip; plus the
  ``copy_rows`` closed-connection/up-front-charge fix;
- executor/merge layer: bounded coordinator buffering (the acceptance
  criterion: ``rows_buffered_peak`` ≤ batch_size × shard_count for a
  multi-shard ORDER BY … LIMIT over ≥ 10k rows), LIMIT early-stop skipping
  undispatched tasks, result parity with a single-node oracle, and the
  ``citus_stat_counters()`` entries;
- the satellite regressions: parked statements while cursors are open, and
  ``accessed_groups`` affinity clearing after non-transactional statements.
"""

import pytest

from repro import make_cluster
from repro.citus.executor.adaptive import STREAM_BATCH_SIZE
from repro.errors import NodeUnavailable

from .conftest import counter_total, counters_dict, find_keys_on_distinct_nodes
from .oracle import normalized, oracle_session


def load_events(s, distributed: bool):
    s.execute("CREATE TABLE events (k int PRIMARY KEY, v int, label text)")
    if distributed:
        s.execute("SELECT create_distributed_table('events', 'k')")
    rows = [[k, k % 500, f"label-{k}"] for k in range(1, 10_001)]
    s.copy_rows("events", rows, ["k", "v", "label"])
    return s


@pytest.fixture
def big(citus):
    """10k rows across 8 shards on the 2-worker cluster."""
    return load_events(citus.coordinator_session(), distributed=True)


@pytest.fixture(scope="module")
def oracle():
    """The same 10k rows on one plain engine instance."""
    return load_events(oracle_session(), distributed=False)


# --------------------------------------------------------------- acceptance


class TestBoundedBuffering:
    def test_order_by_limit_bounded_peak(self, citus, big):
        """The acceptance criterion: a multi-shard ORDER BY … LIMIT 10 over
        10k rows / 8 shards keeps the coordinator buffer bounded, asserted
        against citus_stat_counters()."""
        ext = citus.coordinator_ext
        result = big.execute("SELECT k, v FROM events ORDER BY v, k LIMIT 10")
        assert len(result.rows) == 10

        batch_size = STREAM_BATCH_SIZE
        shard_count = 8
        report = ext.executor.last_report
        assert report.task_count == shard_count
        assert 0 < report.rows_buffered_peak <= batch_size * shard_count

        counters = counters_dict(big)
        gauge_peak = counters[("rows_buffered_peak", None)]
        assert 0 < gauge_peak <= batch_size * shard_count

    def test_peak_far_below_total_rows(self, citus, big):
        # Streaming the full 10k-row table through an un-limited ORDER BY
        # must never buffer anything near the total result.
        big.execute("SELECT k FROM events ORDER BY v")
        report = citus.coordinator_ext.executor.last_report
        assert report.rows_buffered_peak < 10_000 / 2

    def test_group_merge_buffer_is_one_batch(self, citus, big):
        big.execute("SELECT v, count(*) FROM events GROUP BY v")
        report = citus.coordinator_ext.executor.last_report
        # Incremental merge holds at most one in-flight worker batch.
        assert report.rows_buffered_peak <= STREAM_BATCH_SIZE


class TestEarlyTermination:
    def test_limit_without_order_skips_tasks(self, citus, big):
        result = big.execute("SELECT k FROM events LIMIT 5")
        assert len(result.rows) == 5
        report = citus.coordinator_ext.executor.last_report
        assert report.early_terminations == 1
        # Only the stream(s) needed to satisfy the LIMIT were dispatched.
        assert report.tasks_skipped >= 6

    def test_early_termination_counter_exposed(self, citus, big):
        before = counter_total(big, "early_terminations")
        big.execute("SELECT k FROM events LIMIT 1")
        big.execute("SELECT k, v FROM events ORDER BY v LIMIT 1")
        assert counter_total(big, "early_terminations") == before + 2

    def test_full_drain_is_not_early_terminated(self, citus, big):
        before = counter_total(big, "early_terminations")
        big.execute("SELECT count(*) FROM events")
        big.execute("SELECT k FROM events WHERE v = 1")
        assert counter_total(big, "early_terminations") == before


class TestStreamingCounters:
    def test_bytes_and_batches_counted(self, citus, big):
        before = counters_dict(big)
        big.execute("SELECT k, v, label FROM events WHERE v < 50")
        after = counters_dict(big)
        batches = sum(
            after.get(("batches_fetched", w), 0) - before.get(("batches_fetched", w), 0)
            for w in citus.worker_names()
        )
        bytes_streamed = sum(
            after.get(("bytes_streamed", w), 0) - before.get(("bytes_streamed", w), 0)
            for w in citus.worker_names()
        )
        assert batches > 0
        assert bytes_streamed > 0
        report = citus.coordinator_ext.executor.last_report
        assert report.batches_fetched == batches
        assert report.bytes_streamed == bytes_streamed

    def test_payload_charged_from_actual_row_bytes(self, citus, big):
        # Wider rows must charge more bytes than narrow ones for the same
        # row count (bandwidth-aware accounting, not a flat guess).
        big.execute("SELECT k FROM events WHERE v = 7")
        narrow = citus.coordinator_ext.executor.last_report.bytes_streamed
        big.execute("SELECT k, v, label FROM events WHERE v = 7")
        wide = citus.coordinator_ext.executor.last_report.bytes_streamed
        assert wide > narrow

    def test_gauges_settle_to_zero(self, citus, big):
        big.execute("SELECT k FROM events ORDER BY v LIMIT 3")
        big.execute("SELECT v, sum(k) FROM events GROUP BY v")
        counters = counters_dict(big)
        assert counters.get(("executor_statements_in_flight", None), 0) == 0
        for worker in citus.worker_names():
            assert counters.get(("tasks_in_flight", worker), 0) == 0


# ------------------------------------------------------------------ parity


# Every ORDER BY below is a total order, so the single node's row sequence
# is the only right answer — except the OFFSET query, which orders by v
# alone and returns k: there only the sort keys (v = k % 500) are fixed.
TIES = "SELECT k FROM events ORDER BY v OFFSET 5 LIMIT 10"
PARITY_QUERIES = [
    "SELECT k, v FROM events ORDER BY v, k LIMIT 20",
    "SELECT k, v FROM events ORDER BY v DESC, k LIMIT 20",
    "SELECT k FROM events ORDER BY label DESC LIMIT 7",
    "SELECT k, v FROM events ORDER BY 2 DESC, 1 LIMIT 15",
    "SELECT k, v FROM events WHERE v < 30 ORDER BY v, k",
    TIES,
    "SELECT DISTINCT v FROM events WHERE v < 40 ORDER BY v",
    "SELECT count(*), sum(v) FROM events",
    "SELECT v, count(*), sum(k) FROM events GROUP BY v ORDER BY v LIMIT 25",
    "SELECT v, count(*) FROM events GROUP BY v HAVING count(*) > 10 ORDER BY v",
    "SELECT avg(v) FROM events WHERE k <= 5000",
]


class TestSingleNodeParity:
    """Multi-shard SELECTs return what a single node returns."""

    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_same_rows_as_single_node(self, big, oracle, sql):
        streamed = big.execute(sql)
        expected = oracle.execute(sql)
        assert streamed.columns == expected.columns
        if sql == TIES:
            assert ([k % 500 for (k,) in streamed.rows]
                    == [k % 500 for (k,) in expected.rows])
        else:
            assert normalized(streamed.rows) == normalized(expected.rows)

    def test_nulls_ordering_parity(self, citus):
        sessions = citus.coordinator_session(), oracle_session()
        for s in sessions:
            s.execute("CREATE TABLE n (k int PRIMARY KEY, v int)")
        sessions[0].execute("SELECT create_distributed_table('n', 'k')")
        for s in sessions:
            for k in range(1, 41):
                v = "NULL" if k % 5 == 0 else str(k % 7)
                s.execute(f"INSERT INTO n VALUES ({k}, {v})")
        for sql in [
            "SELECT v, k FROM n ORDER BY v, k",
            "SELECT v, k FROM n ORDER BY v DESC, k LIMIT 11",
            "SELECT v, k FROM n ORDER BY v NULLS FIRST, k",
        ]:
            assert sessions[0].execute(sql).rows == sessions[1].execute(sql).rows

    def test_streaming_used_inside_transaction_block(self, citus, big):
        # Affinity + txn blocks still stream; results must see own writes.
        big.execute("BEGIN")
        big.execute("UPDATE events SET v = 99999 WHERE k = 17")
        rows = big.execute(
            "SELECT k FROM events WHERE v = 99999 ORDER BY k"
        ).rows
        assert rows == [[17]]
        big.execute("ROLLBACK")

    def test_plan_cache_replay_streams(self, citus, big):
        sql = "SELECT k FROM events WHERE v = $1 ORDER BY k LIMIT 4"
        first = big.execute(sql, [3]).rows
        again = big.execute(sql, [3]).rows  # replayed from the plan cache
        assert first == again
        report = citus.coordinator_ext.executor.last_report
        assert report.batches_fetched > 0  # replay went through streams


# ----------------------------------------------------------------- EXPLAIN


class TestMergeStrategyExplain:
    def test_merge_append_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT k FROM events ORDER BY v LIMIT 5')"
        ).scalar()
        assert "Merge: MergeAppend (streaming)" in text

    def test_limit_early_stop_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT k FROM events LIMIT 5')"
        ).scalar()
        assert "Merge: Concat + LIMIT (early-stop)" in text

    def test_group_merge_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT v, count(*) FROM events GROUP BY v')"
        ).scalar()
        assert "Merge: GroupAggregate Merge (incremental)" in text

    def test_plain_concat_rendered(self, citus, big):
        text = big.execute(
            "SELECT citus_explain('SELECT k FROM events WHERE v = 1')"
        ).scalar()
        assert "Merge: Concat (streaming)" in text


# ------------------------------------------------------------- engine layer


class TestEngineCursor:
    def test_fetch_batches_and_exhaustion(self, session):
        session.execute("CREATE TABLE t (k int, v int)")
        for k in range(10):
            session.execute(f"INSERT INTO t VALUES ({k}, {k * 10})")
        from repro.sql import parse

        stmt = parse("SELECT k FROM t")[0]
        cursor = session.execute_parsed_cursor(stmt)
        assert cursor is not None
        batches = []
        while True:
            batch = cursor.fetch(4)
            if not batch:
                break
            batches.append(batch)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [b.rows() for b in batches] == [[[0], [1], [2], [3]],
                                               [[4], [5], [6], [7]], [[8], [9]]]
        assert cursor.exhausted
        assert cursor.fetch(4).rows() == []

    def test_limit_stops_heap_scan_early(self, session):
        session.execute("CREATE TABLE t (k int, v int)")
        for k in range(200):
            session.execute(f"INSERT INTO t VALUES ({k}, {k})")
        from repro.sql import parse

        before = session.stats["tuples_scanned"]
        stmt = parse("SELECT k FROM t LIMIT 5")[0]
        cursor = session.execute_parsed_cursor(stmt)
        rows = cursor.fetch(100)
        assert len(rows) == 5
        scanned = session.stats["tuples_scanned"] - before
        # Genuinely lazy: the scan stopped at the LIMIT instead of reading
        # all 200 heap tuples.
        assert scanned <= 10

    def test_close_releases_and_autocommits(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.execute("INSERT INTO t VALUES (1)")
        from repro.sql import parse

        cursor = session.execute_parsed_cursor(parse("SELECT k FROM t")[0])
        assert session._open_cursors == 1
        cursor.close()
        assert session._open_cursors == 0
        # Completion ran: the next statement starts a fresh snapshot.
        assert session.execute("SELECT count(*) FROM t").scalar() == 1

    def test_non_select_returns_none(self, session):
        session.execute("CREATE TABLE t (k int)")
        from repro.sql import parse

        assert session.execute_parsed_cursor(parse("INSERT INTO t VALUES (1)")[0]) is None

    def test_sorted_select_materializes_but_batches(self, session):
        session.execute("CREATE TABLE t (k int)")
        for k in (3, 1, 2):
            session.execute(f"INSERT INTO t VALUES ({k})")
        from repro.sql import parse

        cursor = session.execute_parsed_cursor(parse("SELECT k FROM t ORDER BY k")[0])
        assert cursor.fetch(2).rows() == [[1], [2]]
        assert cursor.fetch(2).rows() == [[3]]


# --------------------------------------------------------------- wire layer


def _wire_time(conn, nbytes: int, trips: int) -> float:
    """What ``trips`` round trips carrying ``nbytes`` in all cost: RTT per
    trip plus the bytes at the network's bandwidth."""
    spec = conn.network.spec
    return trips * spec.rtt_ms / 1000.0 + nbytes / (spec.bandwidth_mb_s * 1e6)


class TestRemoteCursor:
    def _cluster_conn(self):
        cluster = make_cluster(workers=1, shard_count=2)
        worker = cluster.cluster.node("worker1")
        conn = cluster.cluster.connect("worker1")
        session = conn.session
        session.execute("CREATE TABLE w (k int, pad text)")
        for k in range(30):
            session.execute(f"INSERT INTO w VALUES ({k}, 'x{k}')")
        return conn

    def test_one_round_trip_per_stream_however_many_batches(self):
        """The dispatch is the stream's one round trip; every batch rides
        it at its byte size, and so does the end frame of a stream with no
        short last batch (30 rows in batches of 10 or 30)."""
        from repro.net.network import estimate_row_bytes
        from repro.sql import parse

        conn = self._cluster_conn()
        rows = conn.execute("SELECT k, pad FROM w").rows
        for batch_size in (7, 10, 30, 64):
            trips, nbytes, elapsed = (conn.round_trips, conn.bytes_transferred,
                                      conn.elapsed)
            cursor = conn.execute_cursor(parse("SELECT k, pad FROM w")[0],
                                         batch_size=batch_size)
            assert conn.round_trips == trips + 1
            fetched, payloads = [], []
            while (batch := cursor.fetch_batch()) is not None:
                fetched += batch.rows()
                payloads.append(cursor.last_payload)
            assert cursor.exhausted and fetched == rows
            assert len(payloads) == -(-30 // batch_size)
            end_frame = 2 if 30 % batch_size == 0 else 0
            assert sum(payloads) == sum(map(estimate_row_bytes, rows))
            assert conn.round_trips == trips + 1
            assert (conn.bytes_transferred - nbytes
                    == 256 + sum(payloads) + end_frame)
            assert conn.elapsed - elapsed == pytest.approx(
                _wire_time(conn, conn.bytes_transferred - nbytes, 1), rel=1e-12)
            cursor.close()  # drained: nothing left to cancel
            assert conn.round_trips == trips + 1

    def test_bigger_rows_cost_more(self):
        from repro.net.network import estimate_row_bytes

        assert estimate_row_bytes([1, "abcdef"]) > estimate_row_bytes([1, "a"])
        assert estimate_row_bytes([None]) < estimate_row_bytes([12345])

    def test_early_close_charges_one_small_trip(self):
        """A close before the end is one round trip carrying the cancel's
        frame and the batch the credit window had in flight, priced as the
        last batch received (none before the first)."""
        conn = self._cluster_conn()
        from repro.sql import parse

        for fetched in (0, 1, 3):
            cursor = conn.execute_cursor(parse("SELECT k FROM w")[0], batch_size=5)
            for _ in range(fetched):
                cursor.fetch_batch()
            in_flight = cursor.last_payload
            assert in_flight == (5 * (2 + 8) if fetched else 0)
            trips, nbytes, elapsed = (conn.round_trips, conn.bytes_transferred,
                                      conn.elapsed)
            cursor.close()
            assert conn.round_trips == trips + 1
            assert conn.bytes_transferred - nbytes == 2 + in_flight
            assert conn.elapsed - elapsed == pytest.approx(
                _wire_time(conn, 2 + in_flight, 1), rel=1e-12)
            assert cursor.fetch_batch() is None
            cursor.close()
            assert conn.round_trips == trips + 1

    def test_fetch_on_closed_connection_raises(self):
        conn = self._cluster_conn()
        from repro.sql import parse

        cursor = conn.execute_cursor(parse("SELECT k FROM w")[0], batch_size=5)
        conn.closed = True
        with pytest.raises(NodeUnavailable):
            cursor.fetch_batch()


class TestCopyRowsFix:
    def test_closed_connection_raises_before_copy(self):
        cluster = make_cluster(workers=1, shard_count=2)
        conn = cluster.cluster.connect("worker1")
        conn.session.execute("CREATE TABLE c (k int)")
        conn.closed = True
        with pytest.raises(NodeUnavailable):
            conn.copy_rows("c", [[1]])
        # Nothing was copied on the worker.
        other = cluster.cluster.connect("worker1")
        assert other.session.execute("SELECT count(*) FROM c").scalar() == 0

    def test_round_trip_charged_up_front(self):
        cluster = make_cluster(workers=1, shard_count=2)
        conn = cluster.cluster.connect("worker1")
        conn.session.execute("CREATE TABLE c (k int)")
        trips = conn.round_trips
        elapsed = conn.elapsed
        with pytest.raises(Exception):
            conn.copy_rows("missing_table", [[1], [2]])
        # The wire exchange happened even though the copy failed.
        assert conn.round_trips == trips + 1
        assert conn.elapsed > elapsed


# --------------------------------------------- satellites: parked + affinity


class TestParkedStatementsWithOpenCursors:
    def test_remote_block_parks_while_streams_drain(self, citus):
        s = citus.coordinator_session("writer")
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        for k in range(1, 41):
            s.execute(f"INSERT INTO t VALUES ({k}, 0)")
        k1, _ = find_keys_on_distinct_nodes(citus, "t")

        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])

        other = citus.coordinator_session("reader")
        # The multi-shard streaming SELECT takes only AccessShare locks and
        # must drain cleanly while the row lock is held elsewhere.
        assert other.execute("SELECT count(*) FROM t").scalar() == 40

        # A conflicting single-task write parks on the remote lock
        # (RemoteBlocked) instead of failing, with cursors having come and
        # gone on the same worker sessions.
        handle = other.execute_async(f"UPDATE t SET v = 2 WHERE k = {k1}")
        assert not handle.done
        # While parked, further streaming statements on the *writer* session
        # (which holds the lock) still work.
        assert s.execute("SELECT count(*) FROM t WHERE v = 1").scalar() == 1
        s.execute("COMMIT")
        citus.pump()
        assert handle.done and handle.error is None
        assert other.execute(
            "SELECT v FROM t WHERE k = $1", [k1]
        ).scalar() == 2

    def test_worker_session_defers_commit_until_cursors_close(self, citus):
        s = citus.coordinator_session()
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        for k in range(1, 9):
            s.execute(f"INSERT INTO t VALUES ({k}, {k})")
        # Two concurrent portals on one backend: completion only when both
        # have finished.
        worker = citus.cluster.node("worker1")
        ws = worker.connect()
        ws.execute("CREATE TABLE plain (k int)")
        ws.execute("INSERT INTO plain VALUES (1), (2), (3)")
        from repro.sql import parse

        c1 = ws.execute_parsed_cursor(parse("SELECT k FROM plain")[0])
        c2 = ws.execute_parsed_cursor(parse("SELECT k FROM plain")[0])
        assert ws._open_cursors == 2
        while c1.fetch(2):
            pass
        assert ws._open_cursors == 1
        c2.close()
        assert ws._open_cursors == 0

    def test_open_shard_streams_survive_a_worker_side_vacuum(self, citus4, monkeypatch):
        """Every shard cursor of a streaming SELECT holds its snapshot from
        dispatch to its last batch. An update the snapshots hold in
        progress commits, and every worker VACUUMs and takes a storm of
        index probes, between the dispatch and the first fetch: the old
        versions are the only ones those snapshots can see and must still
        be there (the workers' horizon used to be ``min(xids.active)``,
        the reading backends' own xids, and every row vanished)."""
        from repro.citus.executor.adaptive import StreamingExecution

        s = citus4.coordinator_session("reader")
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        s.copy_rows("t", [[k, k] for k in range(1, 81)])
        writer = citus4.coordinator_session("writer")
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET v = v + 1000")
        workers = [node for name, node in citus4.cluster.nodes.items()
                   if name.startswith("worker")]
        assert len(workers) == 4
        fetch = StreamingExecution._fetch
        disturbed = []

        def disturb_before_the_first_fetch(execution, stream):
            if not disturbed:
                disturbed.append(len(execution.streams))
                for other in execution.streams:
                    other.ensure_open()
                writer.execute("COMMIT")
                for _ in range(3):  # two more versions of every row, probed
                    writer.execute("UPDATE t SET v = v + 1000 WHERE k > 0")
                for instance in workers:
                    admin = instance.connect()
                    assert admin.execute("VACUUM").rowcount == 0
                    admin.close()
            return fetch(execution, stream)

        monkeypatch.setattr(StreamingExecution, "_fetch",
                            disturb_before_the_first_fetch)
        # No ORDER BY: a sorting task materialises on the worker at dispatch
        # and holds no snapshot; these scan lazily, through the index.
        rows = s.execute("SELECT k, v FROM t WHERE k > 0").rows
        assert disturbed == [16]
        assert sorted(rows) == [[k, k] for k in range(1, 81)]
        monkeypatch.undo()
        assert s.execute("SELECT count(*), min(v - k) FROM t").rows == [[80, 4000]]
        for instance in workers:
            assert instance.xids.pinned == []
            assert instance.connect().execute("VACUUM").rowcount > 0


class TestAffinityClearing:
    def test_accessed_groups_cleared_after_streaming_select(self, citus, big):
        from repro.citus.executor.placement import SessionPools

        big.execute("SELECT k FROM events ORDER BY v LIMIT 5")
        pools = SessionPools.for_session(big, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())

    def test_accessed_groups_cleared_after_autocommit_write(self, citus, big):
        from repro.citus.executor.placement import SessionPools

        big.execute("UPDATE events SET v = v WHERE k = 1")
        pools = SessionPools.for_session(big, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())

    def test_affinity_pins_survive_inside_block(self, citus, big):
        from repro.citus.executor.placement import SessionPools

        big.execute("BEGIN")
        big.execute("UPDATE events SET v = v + 1 WHERE k = 1")
        big.execute("SELECT count(*) FROM events")  # streaming read in txn
        pools = SessionPools.for_session(big, citus.coordinator_ext)
        assert any(c.accessed_groups for c in pools.all_connections())
        big.execute("ROLLBACK")
        big.execute("SELECT count(*) FROM events")
        assert all(not c.accessed_groups for c in pools.all_connections())


# ------------------------------------------------------------ blocking tasks


class TestBlockingTaskReport:
    def test_streaming_report_fields_default_zero(self, citus, big):
        # Single-task router queries use the blocking path.
        big.execute("SELECT v FROM events WHERE k = 1")
        report = citus.coordinator_ext.executor.last_report
        assert report.rows_buffered_peak == 0
        assert report.early_terminations == 0
