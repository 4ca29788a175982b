"""Clock-free bounds on per-execution work.

A prepared statement shape is analysed once: a repeated execution must
not deparse, copy or re-walk its AST, and must not build row layouts —
those are per relation shape, never per row. Nor does the analytics read
path pay per row for what a batch or a column can answer at once: the
commit log is asked once per distinct xid, all-int and all-text sort
columns are their own keys on workers and coordinator, the wire prices a
batch by its columns, and the coordinator merge pushes nothing onto a
heap. The write path is bound the same way: a COPY resolves its column
types, column positions, constraints and snapshot per statement, a tuple
version's width is computed once for insert, delete and vacuum, a DELETE
looks for incoming foreign keys once, routing builds no list per row, and
the ledger's aggregate statements never call an accumulator function.
And a much-updated row does not tax its own index: probes examine a
constant number of candidates however many versions the row has had, and
a B-tree entry is placed and removed by bisection however many duplicates
its key has. Counting calls instead of timing them makes the bound exact
and the test deterministic.
"""

import contextlib
import heapq
import importlib
import sys
from collections import Counter

import pytest

from repro import PostgresInstance, make_cluster
from repro.citus import introspection, record as record_module, tracing, txngraph
from repro.citus.extension import CitusConfig
from repro.citus.record import (BATCH, CLOSE, CONNECT, DISPATCH, E_ATTRS, E_CAT,
                                EXECUTION, X_UNITS)
from repro.citus.telemetry import PENDING_MAX
from repro.engine import datum, heap as heap_module, stats
from repro.engine.catalog import Table
from repro.engine.expr import RowLayout
from repro.engine.functions import AGGREGATES
from repro.engine.heap import Heap
from repro.engine.index import BTreeIndex
from repro.engine.mvcc import CommitLog, XidManager
from repro.net import network
from repro.sql import ast as A
from repro.sql import parse

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
    scan = Heap.scan

    def budgeted_scan(heap, snapshot, clog):
        xids = {t.header.xmin for t in heap.tuples}
        xids.update(t.header.xmax for t in heap.tuples)
        counts["clog_budget"] += len(xids - {None}) + 1
        return scan(heap, snapshot, clog)

    monkeypatch.setattr(Heap, "scan", budgeted_scan)
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
    for name in ("count", "sum", "avg", "avg_partial"):
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
    # and avg's partial are written out (avg's *merge* is a call, of
    # another function).
    assert accumulator_calls == Counter(), accumulator_calls


# ------------------------------------------------------------- telemetry
#
# The statement path records; it does not aggregate. With the shipped
# configuration a statement allocates one record and appends tuples to it:
# no span objects, no histogram observation, no fold — those run when a
# surface is read.


@pytest.fixture
def telemetry_work(monkeypatch):
    """Counts of what telemetry constructs and calls while a statement
    runs: span objects, statement records, histogram observations, fold
    entry points, ``@contextmanager`` generators entered, registry writes."""
    counts = Counter()

    def count(owner, attr, name):
        monkeypatch.setattr(owner, attr,
                            _counter(counts, name, vars(owner)[attr]))

    count(tracing.Span, "__init__", "spans")
    count(record_module.StatementRecord, "__init__", "records")
    count(stats.LogHistogram, "observe", "observes")
    count(tracing.StatementStats, "fold", "folds")
    count(introspection.TenantStats, "fold", "folds")
    count(txngraph.TxnGraph, "fold", "folds")
    count(txngraph.TxnGraph, "end_txn", "folds")
    count(txngraph.WindowRing, "roll", "rolls")
    count(contextlib._GeneratorContextManager, "__enter__", "generators")
    for write in ("incr", "gauge_incr", "gauge_max"):
        count(stats.StatsRegistry, write, "registry_writes")
    return counts


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
        counts = telemetry_work.__wrapped__(patch)
        session.execute(sql, [4])
        assert counts["records"] == 1
        assert counts["spans"] == 0
        assert counts["observes"] == 0
        assert counts["folds"] == 0
        assert counts["rolls"] == 0
        assert counts["generators"] == 0
        assert 0 < counts["registry_writes"] <= 11
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

    counts = Counter()

    def count(owner, attr, name):
        patch.setattr(owner, attr, _counter(counts, name, vars(owner)[attr]))

    def count_function(fn, name):
        _count_function(patch, counts, fn, name)

    # The table set of an AST never seen before is a walk (one call per
    # node): counted as such, once, apart from any other walk.
    walk, table_set, in_table_set = A.walk, sharding.collect_table_names, []

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
    patch.setattr(sharding, "collect_table_names", counted_table_set)
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
        counts = telemetry_work.__wrapped__(patch)
        work = _route_work(patch)
        result = run(keys[3])
    assert result.rowcount == 1 if form in ("update", "insert") else result.rows
    assert work.pop("table_sets", 0) == (1 if form == "literal" else 0)
    assert work == {"dist_values": 1, "idle_connections": 1, "usable": cached}
    assert cached >= 1
    assert counts["records"] == 1
    assert 0 < counts["registry_writes"] <= 11
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
    kinds = Counter(unit[0] for unit in execution[E_ATTRS][X_UNITS])
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
