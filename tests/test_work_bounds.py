"""Clock-free bounds on per-execution work.

A prepared statement shape is analysed once: a repeated execution must
not deparse, copy or re-walk its AST, and must not build row layouts —
those are per relation shape, never per row. Nor does the analytics read
path pay per row for what a batch or a column can answer at once: the
commit log is asked once per distinct xid, all-int and all-text sort
columns are their own keys on workers and coordinator, the wire prices a
batch by its columns and a shard's stream at one round trip, and the
coordinator merge pushes nothing onto a heap. The write path is bound the
same way: a COPY resolves its column types, column positions, constraints
and snapshot per statement, a tuple
version's width is computed once for insert, delete and vacuum, a DELETE
looks for incoming foreign keys once, routing builds no list per row, and
the ledger's aggregate statements never call an accumulator function —
nor, on a shard, a finisher for ``count`` / ``sum``; an int column
compared with an int parameter never calls ``compare_values``, and
``ORDER BY … LIMIT`` sorts no more rows than it keeps.
And a much-updated row does not tax its own index: probes examine a
constant number of candidates however many versions the row has had, and
a B-tree entry is placed and removed by bisection however many duplicates
its key has. Counting calls instead of timing them makes the bound exact
and the test deterministic.
"""

import contextlib
import gc
import heapq
import importlib
import sys
from collections import Counter

import pytest

from repro import PostgresInstance, make_cluster
from repro.citus import introspection, record as record_module, tracing, txngraph
from repro.citus.extension import CitusConfig
from repro.citus.record import (BATCH, CLOSE, CONNECT, DISPATCH, E_CAT,
                                EXECUTION, U_KIND, execution_units)
from repro.citus.telemetry import PENDING_MAX
from repro.engine import datum, heap as heap_module, stats
from repro.engine.catalog import Table
from repro.engine.compile import get_compiled
from repro.engine.executor import LocalExecutor, _group_key
from repro.engine.expr import BoundParams, RowLayout
from repro.engine.functions import AGGREGATES, _identity
from repro.engine.heap import Heap
from repro.engine.index import BTreeIndex
from repro.engine.mvcc import CommitLog, XidManager
from repro.engine.wal import BLOCK, WriteAheadLog
from repro.net import network
from repro.sql import ast as A
from repro.sql import parse, parse_expression

ROWS = 1_000

#: The statements a worker receives for the ledger's ``analytics_scan``
#: shapes (the pushdown planner's task SQL, shard suffixes dropped).
SHARD_STATEMENTS = {
    "group_agg": "SELECT tenant AS worker_column_0, count(*) AS worker_column_1,"
                 " sum(v) AS worker_column_2, avg_partial(v) AS worker_column_3"
                 " FROM events AS events GROUP BY tenant",
    "order_limit": "SELECT k, v, v AS worker_sort_0, k AS worker_sort_1"
                   " FROM events AS events ORDER BY v, k LIMIT 10",
    "full_order": "SELECT k, v, v AS worker_sort_0 FROM events AS events ORDER BY v",
    "ref_join": "SELECT t.plan AS worker_column_0, count(*) AS worker_column_1,"
                " sum(e.v) AS worker_column_2 FROM events AS e"
                " JOIN tenants AS t ON e.tenant = t.id GROUP BY t.plan",
    "filter_scan": "SELECT k, tenant FROM events AS events WHERE v = :f",
}

#: The same shapes as a client sends them to the coordinator.
CLIENT_STATEMENTS = {
    "group_agg": "SELECT tenant, count(*), sum(v), avg(v) FROM events"
                 " GROUP BY tenant ORDER BY tenant",
    "order_limit": "SELECT k, v FROM events ORDER BY v, k LIMIT 10",
    "full_order": "SELECT k, v FROM events ORDER BY v",
    "ref_join": "SELECT t.plan, count(*), sum(e.v) FROM events e"
                " JOIN tenants t ON e.tenant = t.id"
                " GROUP BY t.plan ORDER BY t.plan",
    "filter_scan": "SELECT k, tenant FROM events WHERE v = :f",
}


def _counter(counts, name, original):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return wrapper


@pytest.fixture
def work(monkeypatch):
    """Counts of ``deparse`` calls, AST copies and layouts built."""
    counts = Counter()
    # ``repro.sql.deparse`` the attribute is the function; patch it wherever
    # a ``from ... import deparse`` bound it.
    deparse = importlib.import_module("repro.sql.deparse").deparse
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and vars(module).get("deparse") is deparse):
            monkeypatch.setattr(module, "deparse",
                                _counter(counts, "deparse", deparse))
    monkeypatch.setattr(A.Node, "copy", _counter(counts, "copy", A.Node.copy))
    monkeypatch.setattr(RowLayout, "__init__",
                        _counter(counts, "layouts", RowLayout.__init__))
    return counts


@pytest.fixture
def row_work(monkeypatch):
    """Counts of the per-row calls the read path must not make: commit-log
    lookups (``clog_status``, against ``clog_budget`` = one per distinct
    xid of each heap scanned, plus one), generic ``datum.sort_key`` keys,
    per-row wire pricing and heap pushes."""
    counts = Counter()
    scan, open_scan = Heap.scan, LocalExecutor._open_scan

    def budget(heap):
        xids = {t.xmin for t in heap.tuples}
        xids.update(t.xmax for t in heap.tuples)
        counts["clog_budget"] += len(xids - {None}) + 1

    def budgeted_scan(heap, snapshot, clog):
        budget(heap)
        return scan(heap, snapshot, clog)

    def budgeted_open_scan(executor, table, *args):
        budget(table.heap)  # the statement's fused loop scans this heap
        return open_scan(executor, table, *args)

    monkeypatch.setattr(Heap, "scan", budgeted_scan)
    monkeypatch.setattr(LocalExecutor, "_open_scan", budgeted_open_scan)
    monkeypatch.setattr(CommitLog, "status",
                        _counter(counts, "clog_status", CommitLog.status))
    monkeypatch.setattr(datum, "sort_key",
                        _counter(counts, "sort_key", datum.sort_key))
    monkeypatch.setattr(network, "estimate_row_bytes",
                        _counter(counts, "row_bytes", network.estimate_row_bytes))
    monkeypatch.setattr(heapq, "heappush",
                        _counter(counts, "heappush", heapq.heappush))
    return counts


def load(session, distributed: bool):
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    if distributed:
        session.execute("SELECT create_distributed_table('events', 'k')")
        session.execute("SELECT create_reference_table('tenants')")
    session.copy_rows("events", [[k, k % 20, (k * 7) % 50, f"label-{k % 97}"]
                                 for k in range(1, ROWS + 1)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(20)])


@pytest.mark.parametrize("shape", sorted(SHARD_STATEMENTS))
def test_second_execution_of_a_shard_statement_does_no_ast_work(work, shape):
    session = PostgresInstance("worker").connect()
    load(session, distributed=False)
    stmt = parse(SHARD_STATEMENTS[shape])[0]
    params = {"f": 7}
    work.clear()
    first = session.execute_parsed(stmt, params)
    # Layouts are per relation (and per join of relations), not per row.
    from_items = 2 if shape == "ref_join" else 1
    assert work["layouts"] <= 2 * from_items, work
    work.clear()
    second = session.execute_parsed(stmt, params)
    assert second.rows == first.rows and len(first.rows) > 0
    assert work == Counter(), f"{shape}: second execution did {dict(work)}"


def test_a_wide_comma_from_plans_its_joins_once(work):
    """Six comma-separated items joined in a chain listed last-first, so
    that every step has to look past unconnected candidates: at most one
    layout per item (fewer when already interned) and one per join step —
    not one per candidate pair — then nothing on the next execution."""
    session = PostgresInstance("worker").connect()
    for i in range(6):
        session.execute(f"CREATE TABLE t{i} (id int PRIMARY KEY, up int)")
        session.execute(f"INSERT INTO t{i} VALUES (1, 1), (2, 2), (3, 3)")
    chain = " AND ".join(f"t{i}.up = t{i + 1}.id" for i in reversed(range(5)))
    stmt = parse("SELECT t0.id, t5.id FROM t0, t5, t4, t3, t2, t1"
                 f" WHERE {chain} ORDER BY t0.id")[0]
    work.clear()
    first = session.execute_parsed(stmt, None)
    assert first.rows == [[1, 1], [2, 2], [3, 3]]
    assert 5 <= work["layouts"] <= 6 + 5, work
    before = session.stats["join_rows"]
    work.clear()
    assert session.execute_parsed(stmt, None).rows == first.rows
    assert work == Counter(), dict(work)
    # Five hash joins of three rows each: no step fell back to a cross join.
    assert session.stats["join_rows"] - before == 15


def test_repeated_rounds_through_a_cluster_stay_within_bounds(work):
    cluster = make_cluster(workers=2, shard_count=4)
    session = cluster.coordinator_session()
    load(session, distributed=True)

    def one_round():
        return {shape: session.execute(sql, {"f": 7}).rows
                for shape, sql in CLIENT_STATEMENTS.items()}

    first = one_round()
    one_round()
    work.clear()
    assert one_round() == first
    # Workers and the coordinator merge run on prepared shapes; what is
    # left is the coordinator's per-statement bookkeeping.
    assert work["layouts"] == 0, work
    assert work["copy"] == 0, work
    assert work["deparse"] < 100, work


def churn(session):
    """Leave more than one xid in the heaps without changing any result: a
    committed UPDATE (dead versions carrying an xmax) and a rolled-back
    DELETE (an aborted xmax on live rows)."""
    session.execute("UPDATE events SET label = label WHERE k <= 50")
    session.execute("BEGIN")
    session.execute("DELETE FROM events WHERE k > 990")
    session.execute("ROLLBACK")


def assert_no_per_row_work(counts, shape):
    assert 0 < counts["clog_status"] <= counts["clog_budget"], (shape, counts)
    assert counts["sort_key"] == 0, (shape, counts)
    assert counts["heappush"] == 0, (shape, counts)


@pytest.mark.parametrize("shape", sorted(SHARD_STATEMENTS))
def test_a_shard_statement_asks_the_commit_log_per_xid_and_sorts_on_plain_keys(
        row_work, shape):
    session = PostgresInstance("worker").connect()
    load(session, distributed=False)
    churn(session)
    stmt = parse(SHARD_STATEMENTS[shape])[0]
    row_work.clear()
    assert session.execute_parsed(stmt, {"f": 7}).rows
    assert_no_per_row_work(row_work, shape)
    if shape in ("order_limit", "full_order"):
        # A NULL in the sort column: the generic keys are taken, not skipped.
        session.execute("UPDATE events SET v = NULL WHERE k = 500")
        row_work.clear()
        rows = session.execute_parsed(stmt, {"f": 7}).rows
        assert row_work["sort_key"] > 0
        assert (rows[-1][:2] == [500, None]) == (shape == "full_order")


def test_a_round_through_a_cluster_pays_per_batch_not_per_row(row_work):
    cluster = make_cluster(workers=4, shard_count=16)
    session = cluster.coordinator_session()
    load(session, distributed=True)
    churn(session)
    for shape, sql in CLIENT_STATEMENTS.items():
        row_work.clear()
        assert session.execute(sql, {"f": 7}).rows
        assert_no_per_row_work(row_work, shape)
        if shape != "filter_scan":
            # Every shard answers with several rows (filter_scan's may
            # answer with one, which the one-row rule prices).
            assert row_work["row_bytes"] == 0, (shape, row_work)
    session.execute("UPDATE events SET v = NULL WHERE k = 500")
    for shape in ("order_limit", "full_order"):
        row_work.clear()
        rows = session.execute(CLIENT_STATEMENTS[shape], {"f": 7}).rows
        assert row_work["sort_key"] > 0 and row_work["heappush"] == 0
        assert (rows[-1] == [500, None]) == (shape == "full_order")


@pytest.mark.parametrize("shape", [*sorted(CLIENT_STATEMENTS), "no_rows"])
def test_a_multi_shard_select_makes_one_round_trip_per_task(shape):
    """A task's result streams on its dispatch: however many batches a
    shard answers with (500 rows: two of ``STREAM_BATCH_SIZE``), and with
    none, the statement's round trips are its tasks."""
    cluster = make_cluster(workers=2, shard_count=2)
    session = cluster.coordinator_session()
    load(session, distributed=True)
    sql = CLIENT_STATEMENTS.get(shape, "SELECT k FROM events WHERE v < 0")
    session.execute(sql, {"f": 7})  # open the connections
    network = cluster.cluster.network
    trips = network.messages_sent
    session.execute(sql, {"f": 7})
    report = cluster.coordinator_ext.executor.last_report
    assert network.messages_sent - trips == report.task_count == 2
    if shape == "full_order":
        assert report.batches_fetched == 4


# ------------------------------------------------------------- write side

COLUMNS = 4  # of ``events``


def event_rows(first: int, count: int) -> list:
    return [[k, k % 20, (k * 7) % 50, f"label-{k % 97}"]
            for k in range(first, first + count)]


@pytest.fixture
def write_work(monkeypatch):
    """Counts of what the write path may do per statement, not per row."""
    counts = Counter()
    # datum's own functions call it through the module global.
    monkeypatch.setattr(datum, "normalize_type",
                        _counter(counts, "normalize_type", datum.normalize_type))
    monkeypatch.setattr(XidManager, "take_snapshot",
                        _counter(counts, "snapshots", XidManager.take_snapshot))
    monkeypatch.setattr(Table, "column_names",
                        _counter(counts, "column_names", Table.column_names))
    monkeypatch.setattr(Table, "column_index",
                        _counter(counts, "column_index", Table.column_index))
    monkeypatch.setattr(heap_module, "_value_width",
                        _counter(counts, "value_width", heap_module._value_width))
    return counts


def empty_events(distributed: bool):
    if distributed:
        cluster = make_cluster(workers=4, shard_count=16)
        session = cluster.coordinator_session()
    else:
        cluster, session = None, PostgresInstance("worker").connect()
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    if distributed:
        session.execute("SELECT create_distributed_table('events', 'k')")
    return cluster, session


def test_a_copy_on_one_worker_resolves_everything_per_statement(write_work):
    _cluster, session = empty_events(distributed=False)
    write_work.clear()
    assert session.copy_rows("events", event_rows(1, ROWS)) == ROWS
    first = Counter(write_work)
    # Types are resolved per column (less when a caster is already built),
    # never per value; the probes of all 1,000 rows share one snapshot.
    assert first["normalize_type"] <= COLUMNS, first
    assert first["snapshots"] == 1, first
    # Width: once per value at most (fixed-width types need no call).
    assert first["value_width"] <= ROWS * COLUMNS, first
    # A statement of ten rows asks the catalog exactly as often as one of
    # a thousand did on top of building the shape.
    write_work.clear()
    session.copy_rows("events", event_rows(ROWS + 1, ROWS))
    thousand = Counter(write_work)
    write_work.clear()
    session.copy_rows("events", event_rows(2 * ROWS + 1, 10))
    ten = Counter(write_work)
    for name in ("column_names", "column_index", "normalize_type", "snapshots"):
        assert thousand[name] == ten[name] <= first[name], (name, thousand, ten)
    assert thousand["column_names"] <= 2 and thousand["column_index"] == 0


def test_delete_and_vacuum_reuse_the_width_and_take_one_snapshot(write_work):
    _cluster, session = empty_events(distributed=False)
    session.copy_rows("events", event_rows(1, ROWS))
    inserted = write_work["value_width"]
    write_work.clear()
    assert session.execute("DELETE FROM events").rowcount == ROWS
    assert write_work["snapshots"] == 1, write_work  # the scan's
    assert write_work["column_names"] <= 3 and write_work["column_index"] == 0
    session.execute("VACUUM events")
    heap = session.instance.catalog.get_table("events").heap
    assert (len(heap.tuples), heap.live_bytes, heap.dead_bytes) == (0, 0, 0)
    # insert + delete + vacuum: every value was measured once, at insert.
    assert write_work["value_width"] == 0 and inserted <= ROWS * COLUMNS


def test_a_delete_walks_the_catalog_for_incoming_foreign_keys_once(monkeypatch):
    session = PostgresInstance("worker").connect()
    session.execute("CREATE TABLE owners (id int PRIMARY KEY)")
    session.execute("CREATE TABLE pets (id int PRIMARY KEY, owner int REFERENCES owners (id))")
    session.copy_rows("owners", [[i] for i in range(ROWS)])
    session.copy_rows("pets", [[1, 7]])
    walks = Counter()

    class CountingTables(dict):
        def values(self):
            walks["tables"] += 1
            return super().values()

    catalog = session.instance.catalog
    monkeypatch.setattr(catalog, "tables", CountingTables(catalog.tables))
    assert session.execute("DELETE FROM owners WHERE id <> 7").rowcount == ROWS - 1
    assert walks["tables"] <= 1, walks
    with pytest.raises(Exception, match="still referenced from 'pets'"):
        session.execute("DELETE FROM owners")
    assert walks["tables"] <= 1, walks


def test_a_copy_through_a_cluster_pays_per_flush_not_per_row(write_work):
    cluster, session = empty_events(distributed=True)
    write_work.clear()
    assert session.copy_rows("events", event_rows(1, ROWS)) == ROWS
    report = cluster.coordinator_ext.executor.last_report
    flushes = report.copy_flushes
    assert flushes == 16
    # The router and sixteen shard statements share the casters of two
    # distinct types; each shard statement takes one snapshot, and so does
    # the INSERT of each connection's 2PC commit record.
    assert write_work["normalize_type"] <= COLUMNS, write_work
    assert write_work["snapshots"] <= flushes + report.connections_used, write_work
    # ... whose two values are measured like any other row's: once.
    assert (write_work["value_width"]
            <= ROWS * COLUMNS + 2 * report.connections_used), write_work
    first = Counter(write_work)
    write_work.clear()
    session.copy_rows("events", event_rows(ROWS + 1, ROWS))
    assert write_work["column_names"] < first["column_names"]
    assert write_work["column_names"] <= 3 * flushes, write_work
    assert write_work["column_index"] <= COLUMNS, write_work  # the router's
    assert write_work["normalize_type"] == 0, write_work
    write_work.clear()
    assert session.execute("DELETE FROM events WHERE k <= :k",
                           {"k": ROWS}).rowcount == ROWS
    report = cluster.coordinator_ext.executor.last_report
    assert write_work["snapshots"] <= 16 + report.connections_used, write_work
    write_work.clear()
    session.execute("VACUUM events")
    assert write_work["value_width"] == 0, write_work


def test_routing_builds_no_list_per_row():
    cluster = make_cluster(workers=2, shard_count=8)
    session = cluster.coordinator_session()
    session.execute("CREATE TABLE events (k int PRIMARY KEY, v int)")
    session.execute("SELECT create_distributed_table('events', 'k')")
    dist = cluster.coordinator_ext.metadata.cache.get_table("events")
    iterations = Counter()

    class CountingShards(list):
        def __iter__(self):
            iterations["shards"] += 1
            return super().__iter__()

    dist.shards = CountingShards(dist.shards)
    indexes = {dist.shard_index_for_hash(datum.hash_value(k)) for k in range(200)}
    indexes |= {dist.shard_index_for_value(k) for k in range(200)}
    assert len(indexes) == 8
    assert iterations["shards"] == 0


def write_round(session, first: int) -> int:
    """A COPY, an UPDATE, a DELETE, a 2PC transfer and a rolled-back
    UPDATE over fresh keys from ``first``; returns the heap versions
    written."""
    session.copy_rows("events", event_rows(first, ROWS))
    session.execute("UPDATE events SET v = v + 1 WHERE k >= :lo AND k < :hi",
                    {"lo": first, "hi": first + 100})
    session.execute("DELETE FROM events WHERE k >= :lo AND k < :hi",
                    {"lo": first + 900, "hi": first + ROWS})
    session.execute("BEGIN")
    session.execute("UPDATE events SET v = v - 1 WHERE k = :k", {"k": first})
    session.execute("UPDATE events SET v = v + 1 WHERE k = :k", {"k": first + 1})
    session.execute("PREPARE TRANSACTION 'transfer'")
    session.execute("COMMIT PREPARED 'transfer'")
    session.execute("BEGIN")
    session.execute("UPDATE events SET v = 0 WHERE k = :k", {"k": first + 2})
    session.execute("ROLLBACK")
    return ROWS + 100 + 2 + 1


def test_written_rows_leave_nothing_for_the_collector_but_the_heap():
    """The WAL lives as long as its instance and grows with every row: a
    record the collector kept tracking would be walked again by every full
    collection. After one collection no stored record is tracked, and what
    a write leaves behind for the collector is its heap version — one
    object per row: the version's values are a tuple of plain values, which
    a collection untracks.

    An index entry is a tuple holding its key tuple: a collection untracks
    the key, and the entry only in the next one when both were young. So
    objects are counted after two collections, on both sides: after one,
    how many entries are still tracked depends on where the automatic
    collections fell, and that on what earlier tests left in the
    process-wide caches the warm-up adds to (what an eviction frees lowers
    the generation counts). They are counted before the test builds anything
    of its own: the first ``Counter`` over a generator in a process fills
    the ``collections.abc`` caches, which would count against the writes
    when the test runs alone."""
    _cluster, session = empty_events(distributed=False)
    wal = session.instance.wal
    write_round(session, 1)  # the statements' shapes, plans and caches
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    written = write_round(session, ROWS + 1)
    gc.collect()
    assert not any(map(gc.is_tracked, wal.records))
    gc.collect()
    after = len(gc.get_objects())
    kinds = Counter(record[2] for record in wal.read())
    assert {"insert", "update", "delete", "prepare", "commit_prepared",
            "abort", "commit"} <= set(kinds)
    assert after - before <= written


def test_the_log_leaves_the_collector_a_pointer_per_sealed_block():
    """The log's tail is sealed into one tuple of records once it holds a
    block's worth, so what a full collection follows out of the log is a
    pointer per sealed block and the tail, however long the log. The
    generated writer appends to the tail it bound at the start of its run:
    sealing clears that list in place, and no record is lost."""
    _cluster, session = empty_events(distributed=False)
    wal = session.instance.wal
    for first in range(1, 6 * ROWS, ROWS):
        write_round(session, first)
    gc.collect()
    gc.collect()
    records = wal.records
    count = len(records)
    assert count > 4 * BLOCK
    assert [record[0] for record in records] == list(range(1, count + 1))
    assert [record[:5] for record in wal.read()] == [
        record[:5] for record in records]
    held = (wal._blocks, wal._records, *wal._blocks, *records)
    walked = sum(len(gc.get_referents(part)) for part in held
                 if gc.is_tracked(part))
    assert walked <= count // BLOCK + BLOCK, (walked, count)
    # A clone shares the blocks it keeps whole.
    clone = wal.clone(lose=3)
    assert clone.records == records[:-3]
    assert all(kept is block for kept, block in zip(clone._blocks, wal._blocks))


def rollup_cluster(shard_count: int):
    """``events`` with 400 rows, and ``rollup`` distributed by a column of
    its own: an INSERT..SELECT from one to the other re-partitions."""
    cluster = make_cluster(workers=2, shard_count=shard_count)
    session = cluster.coordinator_session()
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int,"
                    " label text)")
    session.execute("SELECT create_distributed_table('events', 'k')")
    session.execute("CREATE TABLE rollup (tenant int, bucket int, n int, total int)")
    session.execute("SELECT create_distributed_table('rollup', 'tenant',"
                    " colocate_with := 'none')")
    session.copy_rows("events", event_rows(1, 400))
    return cluster, session


def test_a_utility_statement_leaves_no_copy_batch_on_its_session():
    """A worker session keeps no COPY batch after the statement: the rows
    of a table deleted and vacuumed are not kept alive by whichever
    session took them last."""
    cluster, session = rollup_cluster(shard_count=4)
    session.execute("INSERT INTO rollup SELECT tenant, v, count(*), sum(v)"
                    " FROM events GROUP BY tenant, v")
    workers = [cluster.cluster.node(name) for name in cluster.cluster.node_names()
               if name != cluster.coordinator.name]
    assert all(getattr(worker_session, "_pending_copy_data", None) is None
               for worker in workers for worker_session in worker.sessions)
    rollup = {tup.values for worker in workers
              for table in worker.catalog.tables.values()
              if table.name.startswith("rollup_") for tup in table.heap.tuples}
    assert len(rollup) >= 100
    session.execute("DELETE FROM rollup")
    session.execute("VACUUM rollup")
    gc.collect()

    def deleted_row(item) -> bool:
        try:
            return type(item) in (list, tuple) and tuple(item) in rollup
        except TypeError:  # holds an unhashable value: not a row
            return False

    kept = [item for part in gc.get_objects() if type(part) is list
            for item in part if deleted_row(item)]
    assert not kept


def test_a_multi_shard_statement_leaves_no_cycle_for_the_collector():
    """A multi-shard SELECT, a re-partitioning INSERT..SELECT and a
    multi-shard DELETE free their tasks, streams, cursors, timelines and
    reports when they finish: nothing of them is cyclic garbage."""
    _cluster, session = rollup_cluster(shard_count=8)

    def op():
        session.execute("SELECT tenant, count(*) FROM events GROUP BY tenant")
        session.execute("SELECT k, v FROM events ORDER BY v, k LIMIT 5")
        session.execute("INSERT INTO rollup SELECT tenant, v, count(*), sum(v)"
                        " FROM events GROUP BY tenant, v")
        session.execute("DELETE FROM rollup WHERE n > 0")

    op()  # shapes, plans, connections
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(20):
            op()
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    for name in ("Task", "TaskStream", "StreamingExecution", "ConnectionTimeline",
                 "ExecutionReport", "EngineCursor", "RemoteCursor"):
        assert garbage[name] == 0, garbage


JOIN_ROWS = 20_000


def test_a_repartition_join_streams_its_moved_side_through_bounded_channels():
    """The moved side of a 20,000-row repartition join streams into its
    eight intermediates: the coordinator holds at most
    ``copy_flush_threshold`` rows per intermediate, and the join returns
    what it returned when that side was materialised on the coordinator
    whole. Its simulated time is pinned (12.10 ms): each shard read is one
    round trip, its dispatch, that its batches ride, and the move carries
    the two columns the join reads (``k``, ``n``), not ``pad``."""
    cluster = make_cluster(workers=4, shard_count=8)
    session = cluster.coordinator_session()
    ext = cluster.coordinator_ext
    session.execute("CREATE TABLE events (k int PRIMARY KEY, v int)")
    session.execute("SELECT create_distributed_table('events', 'k')")
    session.execute("CREATE TABLE moved (k int PRIMARY KEY, n int, pad text)")
    session.execute("SELECT create_distributed_table('moved', 'k',"
                    " colocate_with := 'none')")
    session.copy_rows("events", [[k, k % 97] for k in range(JOIN_ROWS)])
    session.copy_rows("moved", [[k, 7 * k % JOIN_ROWS, "x" * 16]
                                for k in range(JOIN_ROWS)])
    session.execute("SELECT citus_stat_counters_reset()")
    start = cluster.cluster.clock.now()
    with ext.stat_counters.measure() as m:
        rows = session.execute("SELECT count(*), sum(e.v), sum(m.k) FROM events e"
                               " JOIN moved m ON m.n = e.k").rows
    assert rows == [[JOIN_ROWS, 959289, 199990000]]
    assert cluster.cluster.clock.now() - start == pytest.approx(0.012095076,
                                                                abs=1e-9)
    assert m.value("repartition_rows_moved") == JOIN_ROWS
    peak = ext.stat_counters.gauge("copy_channel_peak_rows")
    assert 0 < peak <= ext.config.copy_flush_threshold * 8


FLUSH = 16  # copy_flush_threshold of the move and split below


@pytest.fixture
def shop():
    """customers ← orders, co-located on cid, with a foreign key, and more
    than 2 × ``FLUSH`` rows in every shard."""
    cluster = make_cluster(workers=2, shard_count=2,
                           config=CitusConfig(copy_flush_threshold=FLUSH))
    s = cluster.coordinator_session()
    s.execute("CREATE TABLE customers (cid int PRIMARY KEY, name text)")
    s.execute("SELECT create_distributed_table('customers', 'cid')")
    s.execute("CREATE TABLE orders (oid int, cid int, PRIMARY KEY (cid, oid),"
              " FOREIGN KEY (cid) REFERENCES customers (cid))")
    s.execute("SELECT create_distributed_table('orders', 'cid',"
              " colocate_with := 'customers')")
    s.copy_rows("customers", [[c, f"c{c}"] for c in range(200)])
    s.copy_rows("orders", [[c * 10 + j, c] for c in range(200) for j in range(3)])
    s.execute("SELECT citus_stat_counters_reset()")
    return cluster, s


def shop_contents(s):
    return [s.execute(f"SELECT * FROM {table} ORDER BY {key}").rows
            for table, key in (("customers", "cid"), ("orders", "cid, oid"))]


def test_a_shard_move_streams_each_shard_in_bounded_flushes(shop):
    cluster, s = shop
    ext = cluster.coordinator_ext
    shard = ext.metadata.cache.get_table("customers").shards[0]
    source = ext.metadata.cache.placement_node(shard.shardid)
    before = shop_contents(s)
    with ext.stat_counters.measure() as m:
        s.execute("SELECT citus_move_shard_placement($1, $2)",
                  [shard.shardid, "worker2" if source == "worker1" else "worker1"])
    assert shop_contents(s) == before
    moved = m.value("rebalancer_rows_copied")
    assert moved > 2 * 2 * FLUSH  # two shards, each over 2 × FLUSH rows
    assert m.value("copy_rows_routed") == moved
    assert m.value("copy_flushes") > 2  # more than one flush per shard
    assert 0 < ext.stat_counters.gauge("copy_channel_peak_rows") <= FLUSH


def test_a_tenant_split_streams_each_shard_in_bounded_flushes(shop):
    cluster, s = shop
    ext = cluster.coordinator_ext
    before = shop_contents(s)
    with ext.stat_counters.measure() as m:
        s.execute("SELECT isolate_tenant_to_new_shard('orders', 7)")
    assert ext.metadata.cache.get_table("orders").shard_count == 4
    assert shop_contents(s) == before
    assert m.value("copy_flushes") > 2 * 3  # two members, three splits each
    assert 0 < ext.stat_counters.gauge("copy_channel_peak_rows") <= 3 * FLUSH


#: The three aggregate statements of the ledger's workloads (the shard
#: statements above, and the rollup of ``write_mix``).
AGGREGATE_STATEMENTS = {
    "group_agg": SHARD_STATEMENTS["group_agg"],
    "ref_join": SHARD_STATEMENTS["ref_join"],
    "rollup": "SELECT tenant, v, count(*), sum(v) FROM events GROUP BY tenant, v",
}


@pytest.fixture
def accumulator_calls(monkeypatch):
    """Calls of the accumulate functions the generated loop writes out."""
    counts = Counter()
    for name in ("count", "sum", "avg", "avg_partial", "avg_merge"):
        agg = AGGREGATES[name]
        monkeypatch.setattr(agg, "accumulate",
                            _counter(counts, name, agg.accumulate))
    return counts


@pytest.mark.parametrize("name", sorted(AGGREGATE_STATEMENTS))
def test_a_ledger_aggregate_calls_no_accumulator(accumulator_calls, name):
    session = PostgresInstance("worker").connect()
    load(session, distributed=False)
    # Parsed after the patch: a fresh shape would pick the wrappers up.
    rows = session.execute_parsed(parse(AGGREGATE_STATEMENTS[name])[0]).rows
    assert len(rows) > 1
    assert accumulator_calls == Counter(), accumulator_calls


@contextlib.contextmanager
def profiled(*functions):
    """Calls of ``functions`` while the block runs, counted by code object
    (so every alias a ``from ... import`` bound, and every caller, is seen),
    and the length of every list sorted (None: a ``sorted()`` call, whose
    input the profiler does not show)."""
    codes = {fn.__code__: fn.__name__ for fn in functions}
    calls, sorts = Counter(), []

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                calls[name] += 1
        elif event == "c_call":
            if arg is sorted:
                sorts.append(None)
            elif (getattr(arg, "__name__", None) == "sort"
                  and type(getattr(arg, "__self__", None)) is list):
                sorts.append(len(arg.__self__))

    sys.setprofile(hook)
    try:
        yield calls, sorts
    finally:
        sys.setprofile(None)


def test_a_shard_group_aggregate_calls_no_finisher_for_count_or_sum():
    """``count``, ``sum`` and ``avg_partial`` finish (or ship) their state
    as it is: the generated finalisation reads the state in place instead
    of calling the identity per group and call."""
    session = PostgresInstance("worker").connect()
    load(session, distributed=False)
    assert {AGGREGATES[name].partial for name in ("count", "sum", "avg_partial")} \
        | {AGGREGATES[name].finalize for name in ("count", "sum")} == {_identity}
    stmt = parse(SHARD_STATEMENTS["group_agg"])[0]
    session.execute_parsed(stmt)  # the shape and its generated loops
    with profiled(_identity) as (calls, _sorts):
        rows = session.execute_parsed(stmt).rows
    assert len(rows) == 20
    assert calls == Counter(), calls


def test_an_int_column_against_an_int_parameter_never_calls_compare_values():
    session = PostgresInstance("worker").connect()
    load(session, distributed=False)
    stmt = parse(SHARD_STATEMENTS["filter_scan"])[0]
    session.execute_parsed(stmt, {"f": 7})
    for params in ({"f": 7}, BoundParams(None, {"f": 7})):
        with profiled(datum.compare_values) as (calls, _sorts):
            rows = session.execute_parsed(stmt, params).rows
        assert len(rows) == ROWS // 50
        assert calls == Counter(), calls


def test_order_by_limit_keeps_its_top_rows_without_sorting_the_input():
    """``ORDER BY v, k LIMIT 10`` over 1,000 rows: nothing sorts more than
    the ten rows kept, and all-int keys take no generic sort key."""
    session = PostgresInstance("worker").connect()
    load(session, distributed=False)
    stmt = parse(SHARD_STATEMENTS["order_limit"])[0]
    session.execute_parsed(stmt)
    with profiled(datum.sort_key) as (calls, sorts):
        rows = session.execute_parsed(stmt).rows
    assert [row[:2] for row in rows] == sorted(
        ([k, (k * 7) % 50] for k in range(1, ROWS + 1)),
        key=lambda row: (row[1], row[0]))[:10]
    assert calls == Counter(), calls
    assert None not in sorts and max(sorts, default=0) <= 10, sorts


def test_ledger_aggregates_through_a_cluster_call_no_accumulator(accumulator_calls):
    cluster = make_cluster(workers=4, shard_count=16)
    session = cluster.coordinator_session()
    load(session, distributed=True)
    session.execute("CREATE TABLE rollup (tenant int, bucket int, n int, total int)")
    session.execute("SELECT create_distributed_table('rollup', 'tenant',"
                    " colocate_with := 'none')")
    for name in ("group_agg", "ref_join"):
        assert session.execute(CLIENT_STATEMENTS[name]).rows
    assert session.execute("INSERT INTO rollup SELECT tenant, v, count(*), sum(v)"
                           " FROM events GROUP BY tenant, v").rowcount > 1
    # Worker partials and coordinator merges alike: count / sum over slots
    # and avg's partial and merge are written out.
    assert accumulator_calls == Counter(), accumulator_calls


# ------------------------------------------------------------- telemetry
#
# The statement path records; it does not aggregate. With the shipped
# configuration a statement allocates one record and appends tuples to it:
# no span objects, no histogram observation, no fold — those run when a
# surface is read.


@pytest.fixture
def telemetry_work(monkeypatch, registry=None):
    """Counts of what telemetry constructs and calls while a statement
    runs: span objects, statement records, histogram observations, fold
    entry points, ``@contextmanager`` generators entered, registry writes
    (those batched in ``registry`` too, when one is given)."""
    counts = Counter()

    def count(owner, attr, name):
        monkeypatch.setattr(owner, attr,
                            _counter(counts, name, vars(owner)[attr]))

    count(tracing.Span, "__init__", "spans")
    count(record_module.StatementRecord, "__init__", "records")
    _count_function(monkeypatch, counts, stats.log_bucket, "observes")
    count(tracing.StatementStats, "fold", "folds")
    count(introspection.TenantStats, "fold", "folds")
    count(txngraph.TxnGraph, "fold", "folds")
    count(txngraph.TxnGraph, "end_txn", "folds")
    count(contextlib._GeneratorContextManager, "__enter__", "generators")
    for write in ("incr", "gauge_incr", "gauge_max"):
        count(stats.StatsRegistry, write, "registry_writes")
    if registry is not None:
        monkeypatch.setattr(registry, "batch",
                            _CountedBatch(counts, registry.batch))
    return counts


class _CountedBatch(dict):
    """A registry's batch (``StatsRegistry.batch``) that counts each write
    to it as a registry write."""

    def __init__(self, counts, items):
        super().__init__(items)
        self.counts = counts

    def __setitem__(self, key, value):
        self.counts["registry_writes"] += 1
        super().__setitem__(key, value)


def _fast_path_cluster(config=None):
    cluster = make_cluster(workers=4, shard_count=16, config=config)
    session = cluster.coordinator_session()
    session.execute("CREATE TABLE kv (k int PRIMARY KEY, v int)")
    session.execute("SELECT create_distributed_table('kv', 'k')")
    session.copy_rows("kv", [[k, k] for k in range(64)])
    return cluster, session


@pytest.mark.parametrize("sql", [
    "SELECT v FROM kv WHERE k = $1",
    "UPDATE kv SET v = v + 1 WHERE k = $1",
])
def test_a_warmed_fast_path_statement_records_once_and_folds_nothing(sql):
    cluster, session = _fast_path_cluster()
    telemetry = cluster.coordinator_ext.telemetry
    for key in (1, 2, 3):  # plan cache, connections, prepared shapes
        session.execute(sql, [key])
    telemetry.drain()
    # Patched only now, so the fixture's wrappers see one statement.
    with pytest.MonkeyPatch.context() as patch:
        counts = telemetry_work.__wrapped__(patch, telemetry.registry)
        session.execute(sql, [4])
        assert counts["records"] == 1
        assert counts["spans"] == 0
        assert counts["observes"] == 0
        assert counts["folds"] == 0
        assert counts["generators"] == 0
        # The run, its task in flight, its end, the plan and the cache
        # hit: one batched write each.
        assert 0 < counts["registry_writes"] <= 5
        assert len(telemetry.pending) == 1
        # Reading a surface is what folds it.
        rows = session.execute("SELECT citus_stat_statements()").scalar()
        assert counts["folds"] > 0 and counts["observes"] > 0
    assert any(row[1] == 4 for row in rows)


# A plan-cache hit is a route, and one task a straight line: a warmed
# single-shard statement re-derives nothing. The distribution value is
# resolved once (routing and tenant attribution share it), the shard's
# (node, group, statement) triple and the cached PlanSearch are the entry's,
# and the executor looks at the target node's cached connections once,
# without a ConnectionTimeline; the worker parks nothing.


def _same_shard_keys(cluster, keys, count):
    """``count`` of ``keys`` that live on one shard of ``kv``."""
    dist = cluster.coordinator_ext.metadata.cache.get_table("kv")
    by_shard = {}
    for key in keys:
        found = by_shard.setdefault(dist.shard_index_for_value(key), [])
        found.append(key)
        if len(found) == count:
            return found
    raise AssertionError("no shard holds that many of the keys")


def _count_function(patch, counts, fn, name):
    """Count calls of a module-level function wherever a ``from ... import``
    bound it."""
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and vars(module).get(fn.__name__) is fn):
            patch.setattr(module, fn.__name__, _counter(counts, name, fn))


def _route_work(patch):
    """Counts of what a warmed single-shard statement must not redo."""
    from repro.citus import sharding
    from repro.citus.executor.placement import SessionPools
    from repro.citus.executor.timeline import ConnectionTimeline
    from repro.citus.metadata import MetadataCache
    from repro.citus.planner import pipeline, tasks
    from repro.engine import instance
    from repro.sql import facts

    counts = Counter()

    def count(owner, attr, name):
        patch.setattr(owner, attr, _counter(counts, name, vars(owner)[attr]))

    def count_function(fn, name):
        _count_function(patch, counts, fn, name)

    # The table set of an AST never seen before is a walk (one call per
    # node): counted as such, once, apart from any other walk.
    walk, table_set, in_table_set = A.walk, facts.collect_table_names, []

    def counted_walk(node):
        if not in_table_set:
            counts["walks"] += 1
        return walk(node)

    def counted_table_set(stmt):
        counts["table_sets"] += 1
        in_table_set.append(stmt)
        try:
            return table_set(stmt)
        finally:
            in_table_set.pop()

    patch.setattr(A, "walk", counted_walk)
    patch.setattr(facts, "collect_table_names", counted_table_set)
    count(sharding, "_conjuncts", "conjuncts")
    count_function(tasks.rewrite_to_shard, "rewrites")
    count_function(sharding.dist_value_for, "dist_values")
    count(MetadataCache, "placement_node", "placement_nodes")
    count(pipeline.PlanSearch, "__init__", "plan_searches")
    count(ConnectionTimeline, "__init__", "timelines")
    count(instance._ParkedStatement, "__init__", "parked")
    count(SessionPools, "idle_connections", "idle_connections")
    count(SessionPools, "_usable", "usable")
    return counts


@pytest.mark.parametrize("form", ["positional", "update", "literal", "insert"])
def test_a_warmed_single_shard_statement_replays_a_route_in_a_straight_line(form):
    cluster, session = _fast_path_cluster()
    telemetry = cluster.coordinator_ext.telemetry
    loaded = form != "insert"
    keys = _same_shard_keys(
        cluster, range(64) if loaded else range(1000, 2000), 4)

    def run(key):
        if form == "literal":  # a text, and an AST, never seen before
            return session.execute(f"SELECT v FROM kv WHERE k = {key}")
        sql = {"positional": "SELECT v FROM kv WHERE k = $1",
               "update": "UPDATE kv SET v = v + 1 WHERE k = $1",
               "insert": "INSERT INTO kv (k, v) VALUES ($1, 0)"}[form]
        return session.execute(sql, [key])

    for key in keys[:3]:  # plan cache, the shard's route, the connection
        run(key)
    telemetry.drain()
    dist = cluster.coordinator_ext.metadata.cache.get_table("kv")
    node = cluster.coordinator_ext.metadata.cache.placement_node(
        dist.shards[dist.shard_index_for_value(keys[3])].shardid)
    cached = len(getattr(session, "_citus_pools").by_node[node])
    with pytest.MonkeyPatch.context() as patch:
        counts = telemetry_work.__wrapped__(patch, telemetry.registry)
        work = _route_work(patch)
        result = run(keys[3])
    assert result.rowcount == 1 if form in ("update", "insert") else result.rows
    # A literal text of a known skeleton comes with its table set.
    assert work.pop("table_sets", 0) == 0
    assert work == {"dist_values": 1, "idle_connections": 1, "usable": cached}
    assert cached >= 1
    assert counts["records"] == 1
    assert 0 < counts["registry_writes"] <= 5
    (record,) = telemetry.pending
    assert record.tenant == keys[3] and record.cached


# A miss is bounded like a hit: the first execution of a shape goes through
# the same bind every later one does, so it routes once and resolves the
# distribution value once (routing and tenant attribution share it).


@pytest.mark.parametrize("sql, params", [
    ("SELECT v FROM kv WHERE k = $1", [7]),
    ("UPDATE kv SET v = v + 1 WHERE k = $1", [7]),
    ("INSERT INTO kv (k, v) VALUES ($1, 0)", [1007]),
    ("SELECT v FROM kv WHERE k = 7", None),
])
def test_the_first_execution_of_a_fast_path_shape_routes_once(sql, params):
    cluster, session = _fast_path_cluster()
    telemetry = cluster.coordinator_ext.telemetry
    telemetry.drain()
    with pytest.MonkeyPatch.context() as patch:
        work = _route_work(patch)
        result = session.execute(sql, params)
    assert result.rows == [[7]] if "SELECT" in sql else result.rowcount == 1
    assert (work["rewrites"], work["placement_nodes"], work["dist_values"]) == (
        1, 1, 1)
    (record,) = telemetry.pending
    assert record.tenant == (params or [7])[0] and not record.cached


# A point statement pays for its shape once: a literal text of a known
# token skeleton is handed over built, with its normalisation, fingerprint
# and table set; a unique-key read or write on the shard goes from key to
# row without the probe, the FROM resolution or the fused loop.


def test_a_literal_text_of_a_known_skeleton_is_not_parsed_or_normalised():
    import hashlib

    from repro.sql import facts, parser

    cluster, session = _fast_path_cluster()
    for key in (1, 2, 3):  # parsed and learned, then served
        session.execute(f"SELECT v FROM kv WHERE k = {key}")
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _count_function(patch, counts, parser.parse, "parse")
        patch.setattr(parser.Parser, "parse_statements", _counter(
            counts, "parser", parser.Parser.parse_statements))
        patch.setattr(facts, "_normalize_value",
                      _counter(counts, "normalize", facts._normalize_value))
        patch.setattr(facts, "_fingerprint",
                      _counter(counts, "fingerprint", facts._fingerprint))
        patch.setattr(hashlib, "md5", _counter(counts, "md5", hashlib.md5))
        assert session.execute("SELECT v FROM kv WHERE k = 42").rows == [[42]]
    assert counts == Counter()


@pytest.mark.parametrize("sql", ["SELECT v FROM kv WHERE k = $1",
                                 "UPDATE kv SET v = v + 1 WHERE k = $1"])
def test_a_point_statement_goes_from_key_to_row_in_one_step(sql):
    from repro.engine.executor import ScanShape

    cluster, session = _fast_path_cluster()
    for key in (1, 2, 3):  # plan cache, connections, prepared shapes
        session.execute(sql, [key])
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScanShape, "probe",
                      _counter(counts, "probes", ScanShape.probe))
        for name in ("_resolve_from", "_drain", "_point_rows"):
            patch.setattr(LocalExecutor, name,
                          _counter(counts, name, vars(LocalExecutor)[name]))
        result = session.execute(sql, [42])
    assert result.rows == [[42]] if "SELECT" in sql else result.rowcount == 1
    assert counts == {"_point_rows": 1}


def test_a_pushdown_select_shape_is_planned_once():
    from repro.citus.planner import pushdown

    cluster, session = _fast_path_cluster()
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _count_function(patch, counts, pushdown.plan_pushdown_select, "plans")
        for floor in (0, 32):  # planned, then bound from the plan cache
            assert session.execute("SELECT count(*) FROM kv WHERE v >= $1",
                                   [floor]).scalar() == 64 - floor
    assert counts["plans"] == 1


def test_a_repeated_colocated_insert_select_ships_the_same_shard_statements(work):
    """A co-located INSERT..SELECT is planned every time, but what its
    tasks are made of is kept with the statement's facts: the second
    execution rewrites nothing, deparses nothing, and the workers — handed
    the ASTs they prepared the first time — parse nothing."""
    from repro.citus.planner import tasks

    cluster, session = _fast_path_cluster()
    session.execute("CREATE TABLE kv_copy (k int, v int)")
    session.execute("SELECT create_distributed_table('kv_copy', 'k',"
                    " colocate_with := 'kv')")
    sql = "INSERT INTO kv_copy (k, v) SELECT k, v + $1 FROM kv"
    shipped = []
    execute_tasks = cluster.coordinator_ext.executor.execute_tasks

    def recording(session, task_list, is_write=False):
        shipped.append({t.shard_group: t.stmt for t in task_list})
        return execute_tasks(session, task_list, is_write)

    cluster.coordinator_ext.executor.execute_tasks = recording
    assert session.execute(sql, [1]).rowcount == 64
    session.execute("BEGIN")  # the commit's PREPARE TRANSACTION '<gid>' texts are new
    with pytest.MonkeyPatch.context() as patch:
        _count_function(patch, work, tasks.rewrite_to_shard, "rewrites")
        _count_function(patch, work, parse, "parses")
        work.clear()
        assert session.execute(sql, [2]).rowcount == 64
    session.execute("COMMIT")
    assert (work["rewrites"], work["deparse"], work["copy"],
            work["parses"]) == (0, 0, 0, 0)
    first, second = shipped
    assert len(first) == 16 and first.keys() == second.keys()
    assert all(second[group] is stmt for group, stmt in first.items())
    assert session.execute(
        "SELECT count(*), sum(v) FROM kv_copy").rows == [[128, 2 * 2016 + 64 * 3]]
    # A metadata change makes new routes: the old ones named old placements.
    session.execute("CREATE TABLE unrelated (k int)")
    session.execute("SELECT create_distributed_table('unrelated', 'k')")
    assert session.execute(sql, [3]).rowcount == 64
    assert shipped[2].keys() == first.keys()
    assert all(shipped[2][group] is not stmt for group, stmt in first.items())


@pytest.mark.parametrize("sql, params, tenant", [
    ("SELECT v FROM kv WHERE k = 7", None, 7),
    ("SELECT v FROM kv WHERE k = :key", {"key": 7}, 7),
    ("SELECT v FROM kv WHERE k = $1", [7], 7),
    ("SELECT v FROM kv WHERE k = CAST($1 AS int)", ["7"], 7),
    ("UPDATE kv SET v = v WHERE v >= 0 AND 7 = k", None, 7),
    ("INSERT INTO kv (v, k) VALUES (0, $1) ON CONFLICT (k) DO NOTHING", [7], 7),
    # Router tier: the extractor sees no single-table shape, on a miss and
    # on a replay alike (the replay's common constant is not the tenant).
    ("SELECT a.v FROM kv a JOIN kv b ON a.k = b.k WHERE a.k = $1", [7], None),
])
def test_tenant_attribution_is_the_same_on_a_miss_and_on_a_hit(sql, params, tenant):
    cluster, session = _fast_path_cluster()
    counters = cluster.coordinator_ext.stat_counters
    with counters.measure() as m:
        for _ in range(3):
            session.execute(sql, params)
    assert m.value("plan_cache_misses") == 1 and m.value("plan_cache_hits") == 2
    rows = [row for row in session.execute("SELECT citus_stat_statements()").scalar()
            if " kv" in row[0] and "citus_stat" not in row[0]]
    # One row: every execution was keyed by the same partition key.
    assert [(row[1], row[3], row[12]) for row in rows] == [(tenant, 3, 2)]


def test_a_streaming_select_keeps_one_tuple_per_unit_of_connection_work():
    cluster, session = _fast_path_cluster()
    telemetry = cluster.coordinator_ext.telemetry
    session.execute("SELECT k, v FROM kv ORDER BY k")  # warm the connections
    telemetry.drain()
    with pytest.MonkeyPatch.context() as patch:
        counts = telemetry_work.__wrapped__(patch)
        assert len(session.execute("SELECT k, v FROM kv ORDER BY k").rows) == 64
        assert counts["records"] == 1
        assert counts["spans"] == counts["folds"] == counts["observes"] == 0
    (record,) = telemetry.pending
    (execution,) = [e for e in record.events if e[E_CAT] is EXECUTION]
    kinds = Counter(unit[U_KIND] for unit in execution_units(execution))
    report = cluster.coordinator_ext.executor.last_report
    assert kinds[DISPATCH] == 16  # one per shard stream
    assert kinds[BATCH] >= report.batches_fetched >= 16
    assert kinds[CONNECT] == 0 and kinds[CLOSE] == 0
    # Besides the engine's own select span per worker statement (a sorted
    # shard query is not a lazy cursor), the record holds per-statement
    # events only: the plan, the run, the merge.
    engine = [e for e in record.events if e[E_CAT] == "engine"]
    assert len(engine) <= 16 + 1
    assert len(record.events) - len(engine) <= 3


def test_no_record_with_every_telemetry_switch_off(telemetry_work):
    config = CitusConfig(enable_tracing=False, enable_introspection=False,
                         enable_plan_alternatives=False,
                         enable_txn_graph=False, enable_ash=False)
    cluster, session = _fast_path_cluster(config)
    session.execute("SELECT v FROM kv WHERE k = $1", [5])
    session.execute("BEGIN")
    session.execute("UPDATE kv SET v = 0 WHERE k = $1", [5])
    session.execute("COMMIT")
    session.execute("SELECT count(*) FROM kv")
    assert telemetry_work["records"] == 0
    assert telemetry_work["spans"] == telemetry_work["folds"] == 0
    # EXPLAIN ANALYZE still gets its span tree.
    text = session.execute("SELECT citus_explain_analyze("
                           "'SELECT count(*) FROM kv')").scalar()
    assert "actual rows=" in text
    assert telemetry_work["records"] == 1 and telemetry_work["folds"] == 0


def test_unfolded_records_never_exceed_the_pending_constant():
    cluster, session = _fast_path_cluster()
    telemetry = cluster.coordinator_ext.telemetry
    assert PENDING_MAX <= 1024
    for i in range(5_000):
        session.execute("SELECT v FROM kv WHERE k = $1", [i % 64])
        assert len(telemetry.pending) <= PENDING_MAX
    assert telemetry.pending.high_water <= PENDING_MAX
    assert telemetry.pending.dropped == 0
    rows = session.execute("SELECT citus_stat_statements()").scalar()
    assert sum(row[3] for row in rows if "SELECT v FROM kv" in row[0]) == 5_000


# ---------------------------------------------- telemetry and the collector
#
# What telemetry keeps beyond a statement is either untracked by the
# collector or one object: a closed record's events are flat tuples of
# atomic values, a statement statistics entry is one object whose histogram
# buckets are a dict of ints, a tenant's totals a tuple of numbers.

OFF = CitusConfig(enable_tracing=False, enable_introspection=False,
                  enable_plan_alternatives=False, enable_txn_graph=False,
                  enable_ash=False)


def _tracked_growth(config, new_tenants: int) -> int:
    """Tracked objects left after ``new_tenants`` warmed fast-path
    statements on as many new tenants, once everything is folded and
    collected. The trace ring and pending buffer are full before, so the
    records the loop adds replace as many."""
    cluster, session = _fast_path_cluster(config)
    telemetry = cluster.coordinator_ext.telemetry
    sql = "SELECT v FROM kv WHERE k = $1"
    for i in range(PENDING_MAX + 300):
        session.execute(sql, [i % 64])
    telemetry.drain()
    gc.collect()
    before = len(gc.get_objects())
    for key in range(1_000, 1_000 + new_tenants):
        session.execute(sql, [key])
    telemetry.drain()
    gc.collect()
    return len(gc.get_objects()) - before


def test_new_tenants_leave_one_object_per_statistics_entry_and_tenant():
    new_tenants = 300
    on = _tracked_growth(None, new_tenants)
    off = _tracked_growth(OFF, new_tenants)
    # Each new tenant is one new citus_stat_statements entry and one new
    # citus_stat_tenants entry.
    assert on - off <= 2 * new_tenants, (on, off)


def test_closed_records_keep_only_themselves_for_the_collector():
    cluster, session = _fast_path_cluster()
    telemetry = cluster.coordinator_ext.telemetry
    # Point reads and writes, multi-shard reads (many units each) and
    # explicit transactions (commit events and access summaries).
    for i in range(80):
        session.execute("SELECT v FROM kv WHERE k = $1", [i % 64])
        session.execute("UPDATE kv SET v = v + 1 WHERE k = $1", [i % 64])
        session.execute("SELECT count(*) FROM kv")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = v + 1 WHERE k = $1", [i % 64])
        session.execute("UPDATE kv SET v = v + 1 WHERE k = $1", [(i + 7) % 64])
        session.execute("COMMIT")
    records = list(telemetry.traces) + list(telemetry.pending)
    assert len(telemetry.traces) == telemetry.traces.capacity
    assert len(telemetry.pending) > 0

    def tracked() -> int:
        kept = set()
        for record in records:
            for part in (record, record.events, *record.events, record.access,
                         record.stmt):
                if gc.is_tracked(part):
                    kept.add(id(part))
        return len(kept)

    # The statements are the session's cached ASTs: a few, shared.
    statements = len({id(record.stmt) for record in records})
    assert statements <= 8
    gc.collect()
    # A container still tracked is met before what it holds in the pass
    # that untracks its contents, and goes in the next one.
    assert tracked() <= 2 * len(records) + statements
    gc.collect()
    assert tracked() == len(records) + statements


# ------------------------------------------- index entries die on access


@pytest.fixture
def probe_work(monkeypatch):
    """Candidates per B-tree equality probe and TIDs handed to
    ``Heap.fetch``, counted from outside (as the script that sized the
    problem did): ``probes``, ``candidates``, the ``most`` any one probe
    returned, ``fetched``."""
    counts = Counter()
    scan_equal, fetch = BTreeIndex.scan_equal, Heap.fetch

    def counted_scan_equal(index, values):
        tids = scan_equal(index, values)
        counts["probes"] += 1
        counts["candidates"] += len(tids)
        counts["most"] = max(counts["most"], len(tids))
        return tids

    def counted_fetch(heap, tids, snapshot, clog):
        counts["fetched"] += len(tids)
        return fetch(heap, tids, snapshot, clog)

    monkeypatch.setattr(BTreeIndex, "scan_equal", counted_scan_equal)
    monkeypatch.setattr(Heap, "fetch", counted_fetch)
    return counts


def hot_row_table():
    pg = PostgresInstance("hot")
    session = pg.connect()
    session.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    session.copy_rows("t", [[k, 0] for k in range(1, 101)])
    return pg, session, pg.catalog.get_table("t").indexes["t_pkey"].data


def test_probes_of_a_hot_row_examine_a_constant_number_of_candidates(probe_work):
    pg, session, pkey = hot_row_table()
    probe_work.clear()
    for _ in range(500):
        # Each UPDATE probes the key itself, so the kills happen on the way.
        session.execute("UPDATE t SET v = v + 1 WHERE k = 1")
    assert probe_work["probes"] == 500 and probe_work["most"] <= 4, probe_work
    assert probe_work["candidates"] == probe_work["fetched"] <= 3 * 500
    assert len(pkey) <= 104
    for sql in ("SELECT v FROM t WHERE k = 1",
                "UPDATE t SET v = v + 1 WHERE k = 1",
                "INSERT INTO t VALUES (1, 0) ON CONFLICT (k) DO UPDATE SET v = t.v + 1"):
        probe_work.clear()
        session.execute(sql)
        assert probe_work["probes"] == 1, (sql, probe_work)
        assert probe_work["candidates"] == probe_work["fetched"] <= 4, (sql, probe_work)
    assert session.execute("SELECT v FROM t WHERE k = 1").rows == [[502]]
    # The heap is VACUUM's: every version is still stored.
    assert len(pg.catalog.get_table("t").heap.tuples) == 100 + 502


def test_nothing_is_killed_under_an_open_xid_and_the_first_probe_after_it_kills(
        probe_work):
    pg, session, pkey = hot_row_table()
    holder = pg.connect()
    holder.execute("BEGIN")
    holder.execute("INSERT INTO t VALUES (1000, 0)")  # holds an xid open
    for _ in range(50):
        session.execute("UPDATE t SET v = v + 1 WHERE k = 1")
    # Every version was deleted at or above the horizon: all 51 stay.
    assert len(pkey) == 100 + 1 + 50
    assert len(pkey.scan_equal([1])) == 51
    holder.execute("COMMIT")
    probe_work.clear()
    assert session.execute("SELECT v FROM t WHERE k = 1").rows == [[50]]
    assert probe_work["candidates"] == 51
    assert len(pkey.scan_equal([1])) == 1 and len(pkey) == 101
    probe_work.clear()
    session.execute("SELECT v FROM t WHERE k = 1")
    assert probe_work["candidates"] == probe_work["fetched"] == 1


def test_a_duplicate_key_is_placed_and_removed_by_bisection(monkeypatch):
    comparisons = Counter()

    class CountedKey:
        def __init__(self, value):
            self.value = value

        def __eq__(self, other):
            comparisons["n"] += 1
            return self.value == other.value

        def __lt__(self, other):
            comparisons["n"] += 1
            return self.value < other.value

    monkeypatch.setattr(BTreeIndex, "make_key", staticmethod(
        lambda values: tuple(CountedKey(v) for v in values)))
    index = BTreeIndex(1)
    for key in (6, 8):
        index.insert([key], key)
    for tid in range(100, 600):
        index.insert([7], tid)
    # A pair comparison costs at most three key comparisons (equal? then
    # which differs, then less?); 502 entries are ~9 bisection steps.
    budget = 3 * 10
    comparisons.clear()
    index.insert([7], 600)  # the 501st duplicate, behind all the others
    assert 0 < comparisons["n"] <= budget, comparisons
    assert index.scan_equal([7])[-2:] == [599, 600]
    comparisons.clear()
    index.delete([7], 599)
    index.delete([7], 599)  # gone already: a no-op
    assert 0 < comparisons["n"] <= 2 * budget, comparisons
    assert index.scan_equal([7])[-2:] == [598, 600] and len(index) == 502


# ---------------------------------------------------- the generated writer
#
# A written row is one pass through the write shape's generated text: no
# row-at-a-time heap, index or log call, one B-tree key per row per index
# (the unique probe's is the one inserted), and no cast of a value that
# already has its column's type — on a worker, and through the router.


def test_a_copy_into_a_keyed_table_is_written_by_the_generated_writer():
    _cluster, session = empty_events(distributed=False)
    session.execute("CREATE INDEX events_tenant ON events (tenant)")
    session.copy_rows("events", event_rows(1, 10))  # the shape and its text
    casters = {datum.caster(t) for t in ("int", "text")}
    with profiled(Heap.insert, WriteAheadLog.append_row, BTreeIndex.insert,
                  BTreeIndex.make_key, *casters) as (calls, _sorts):
        assert session.copy_rows("events", event_rows(11, ROWS)) == ROWS
    # Two indexes: the primary key's probe key is the key it inserts.
    assert calls == Counter({"make_key": 2 * ROWS}), calls


def test_a_json_or_array_cell_is_serialised_once_per_write():
    """Its stored width and its row record's text come from one
    ``to_text``: one call per written jsonb / array cell, on COPY, INSERT
    and UPDATE alike."""
    session = PostgresInstance("docs").connect()
    session.execute("CREATE TABLE docs (k int PRIMARY KEY, j jsonb,"
                    " tags int[], v int)")
    session.copy_rows("docs", [[0, {"a": 0}, [0], 0]])  # the shape
    with profiled(datum.to_text) as (calls, _sorts):
        session.copy_rows("docs", [[k, {"a": k}, [k, k], k]
                                   for k in range(1, 21)])
        session.execute("INSERT INTO docs VALUES"
                        " (100, '{\"b\": 1}', ARRAY[1, 2], 0)")
        session.execute("UPDATE docs SET v = v + 1 WHERE k <= 10")
    assert calls == Counter({"to_text": 2 * (20 + 1 + 11)}), calls


def test_a_copy_through_a_cluster_casts_no_value_of_its_column_type():
    _cluster, session = empty_events(distributed=True)
    session.copy_rows("events", event_rows(1, 10))
    casters = {datum.caster(t) for t in ("int", "text")}
    with profiled(*casters) as (calls, _sorts):
        assert session.copy_rows("events", event_rows(11, ROWS)) == ROWS
    assert calls == Counter(), calls
    # A text constant for the int key is cast once, where it is routed.
    with profiled(*casters) as (calls, _sorts):
        assert session.copy_rows("events", [["5000", 1, 2, "x"]]) == 1
    assert calls == Counter({"cast": 1}), calls


# ------------------------------------------------------- fused worker loops
#
# A shard statement runs as one generated loop: the heap's visibility test,
# the WHERE clause's column-against-constant tests and the hash join's probe
# are written into it, and the scan statistics are charged once.


def ledger_shard(rows: int = 625):
    """One ``analytics_scan`` shard on a plain instance: ``rows`` events
    and the 200-row reference table."""
    session = PostgresInstance("worker").connect()
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    session.copy_rows("events", [[k, (k * 31) % 200, (k * 7) % 500, f"label-{k % 97}"]
                                 for k in range(1, rows + 1)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(200)])
    return session


def run_as_worker(session, stmt) -> list:
    """A worker's run of a shard statement: a cursor over bound
    parameters, fetched in 256-row batches."""
    cursor = session.execute_parsed_cursor(stmt, BoundParams(None, {"f": 7}))
    rows = []
    while batch := cursor.fetch(256):
        rows += batch.rows()
    return rows


def test_a_shard_scan_and_join_make_no_call_per_row():
    """Over 625 rows ``filter_scan`` and ``ref_join`` call neither the
    heap's visibility generator, nor the WHERE closure (an int column
    against an int parameter), nor a join-key function."""
    session = ledger_shard()
    layout = RowLayout.of("events", ["k", "tenant", "v", "label"])
    where = get_compiled(parse_expression("v = :f"), layout)
    for shape in ("filter_scan", "ref_join"):
        stmt = parse(SHARD_STATEMENTS[shape])[0]
        run_as_worker(session, stmt)
        with profiled(heap_module._visible, where, _group_key) as (calls, _sorts):
            assert run_as_worker(session, stmt)
        assert calls == Counter(), (shape, calls)


def test_a_statement_writes_the_session_stats_a_constant_number_of_times():
    """Statistics are charged once per statement (per fetch for a lazy
    scan), however many rows it reads."""
    def writes(rows):
        session = ledger_shard(rows)
        counts = Counter()

        class CountingStats(type(session.stats)):
            def __setitem__(self, key, value):
                counts[key] += 1
                super().__setitem__(key, value)

        session.stats = CountingStats(int, session.stats)
        for sql in SHARD_STATEMENTS.values():
            run_as_worker(session, parse(sql)[0])
        return counts

    few, many = writes(100), writes(1_000)
    assert few == many and few["tuples_scanned"] > 0, (few, many)


def test_fresh_literals_of_one_structure_generate_no_loop():
    """200 statements that differ only in a literal: the loop's text holds
    no constant, so after the first none of them runs an ``exec``."""
    session = ledger_shard(100)
    sql = "SELECT tenant, count(*), sum(v) FROM events WHERE v = {} GROUP BY tenant"
    session.execute(sql.format(0))
    execs = []

    def hook(frame, event, arg):
        if event == "c_call" and arg is exec:
            execs.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        for literal in range(1, 201):
            session.execute(sql.format(literal))
    finally:
        sys.setprofile(None)
    assert execs == [], Counter(execs)


def test_a_tree_evaluated_once_is_neither_cached_nor_counted():
    """``evaluate`` builds its closure for one call: a fresh tree (a VALUES
    row, a LIMIT, a column default, what a served skeleton hands out) takes
    no entry of the LRU the prepared shapes share, and adds nothing to
    ``expr_compile_count``."""
    from repro.engine import compile as engine_compile
    from repro.engine.expr import EvalContext

    def state():
        return engine_compile.compile_count(), len(engine_compile._COMPILE_CACHE)

    before = state()
    for text in ["1 + 2", "CAST('3' AS int) * -4", "coalesce(NULL, 'a' || 'b')",
                 "CASE WHEN 1 < 2 THEN ARRAY[1, 2] END", "7 IN (1, 2, 7)",
                 "-1 BETWEEN abs(-2) AND 3 OR NULL IS NULL"]:
        engine_compile.evaluate(parse_expression(text), EvalContext())
    assert state() == before
