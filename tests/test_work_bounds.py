"""Clock-free bounds on per-execution work.

A prepared statement shape is analysed once: a repeated execution must
not deparse, copy or re-walk its AST, and must not build row layouts —
those are per relation shape, never per row. Nor does the analytics read
path pay per row for what a batch or a column can answer at once: the
commit log is asked once per distinct xid, all-int and all-text sort
columns are their own keys on workers and coordinator, the wire prices a
batch by its columns, and the coordinator merge pushes nothing onto a
heap. Counting calls instead of timing them makes the bound exact and the
test deterministic.
"""

import heapq
import importlib
import sys
from collections import Counter

import pytest

from repro import PostgresInstance, make_cluster
from repro.engine import datum
from repro.engine.expr import RowLayout
from repro.engine.heap import Heap
from repro.engine.mvcc import CommitLog
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
