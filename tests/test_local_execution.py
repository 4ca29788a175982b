"""Local execution: a task on the session's own node runs in the session's
own backend and transaction — no connection, no round trip.

Two layouts hold placements on the node a session runs on: Citus 0+1 (the
coordinator is its only worker) and a metadata-synced worker coordinating
a statement (MX). On both, a statement's tasks on the session's node make
no round trip and open no connection to it, see the transaction's own
writes, commit with the local transaction (one-phase alone, as the
non-prepared participant of a 2PC beside a remote writer) and wait on the
node's lock graph like any statement of the node.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import make_cluster
from repro.citus.executor.placement import SessionPools
from repro.citus.record import (E_CAT, EXECUTION, TASK, U_BYTES, U_KIND,
                                U_NODE, execution_units)
from repro.engine.datum import hash_value
from repro.errors import LockTimeout
from repro.net.cluster import Cluster

LAYOUTS = ("citus_0+1", "mx_worker")


class Wire:
    """Every connection the cluster opens, by node (``Cluster.connect``
    wrapped from outside), and what crossed them."""

    def __init__(self):
        self.conns: list = []

    def trips(self, node: str) -> int:
        return sum(conn.round_trips for conn in self.conns
                   if conn.node_name == node)

    def opened(self, node: str) -> int:
        return sum(1 for conn in self.conns if conn.node_name == node)

    @contextlib.contextmanager
    def to(self, node: str):
        """What the block sent ``node``: ``{"trips": n, "opened": n}``."""
        seen = {}
        trips, opened = self.trips(node), self.opened(node)
        yield seen
        seen["trips"] = self.trips(node) - trips
        seen["opened"] = self.opened(node) - opened


class Layout:
    """A session on a node holding placements of ``t (k int PRIMARY KEY, v
    int)``, ``local`` keys whose shard is on that node, and on MX a
    ``remote`` key on the other worker."""

    def __init__(self, name: str, wire: Wire):
        self.wire = wire
        if name == "citus_0+1":
            self.citus = make_cluster(workers=0, shard_count=4)
            admin = self.session = self.citus.coordinator_session()
        else:
            self.citus = make_cluster(workers=2, shard_count=8)
            admin = self.citus.coordinator_session()
        admin.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        admin.execute("SELECT create_distributed_table('t', 'k')")
        if name == "mx_worker":
            self.citus.enable_metadata_sync()
            self.session = self.citus.session_on("worker1")
        # A table of the session's node alone: what a plain statement does.
        self.session.execute("CREATE TABLE plain (k int PRIMARY KEY, v int)")
        self.node = self.session.instance.name
        self.ext = self.session.instance.extensions["citus"]
        cache = self.ext.metadata.cache
        dist = cache.get_table("t")
        by_node: dict[str, list[int]] = {}
        for key in range(1, 1000):
            shard = dist.shards[dist.shard_index_for_hash(hash_value(key))]
            by_node.setdefault(cache.placement_node(shard.shardid),
                               []).append(key)
        # Keys 1..100 are loaded; ``fresh`` ones are not.
        self.local = [k for k in by_node[self.node] if k <= 100]
        self.fresh = [k for k in by_node[self.node] if k > 100]
        self.remote = next((keys[0] for node, keys in by_node.items()
                            if node != self.node), None)
        admin.execute("INSERT INTO t (k, v) SELECT g, 0 FROM"
                      " generate_series(1, 100) AS g")
        self.peer = self.citus.session_on(self.node, "peer")

    def counter(self, name: str, node: str | None = None) -> int:
        return self.ext.stat_counters.value(name, node=node)

    def value(self, key: int):
        return self.peer.execute("SELECT v FROM t WHERE k = $1", [key]).scalar()


def wired(monkeypatch, name: str) -> Layout:
    """``Layout(name)`` built with every connection counted."""
    wire = Wire()
    connect = Cluster.connect

    def counted(cluster, node_name, application_name=""):
        conn = connect(cluster, node_name, application_name)
        wire.conns.append(conn)
        return conn

    monkeypatch.setattr(Cluster, "connect", counted)
    return Layout(name, wire)


@pytest.fixture(params=LAYOUTS)
def layout(request, monkeypatch):
    return wired(monkeypatch, request.param)


# ------------------------------------------------------- (a) no round trip


STATEMENTS = {
    "fast_path_select": ("SELECT v FROM t WHERE k = $1",
                         lambda lay: [lay.local[0]]),
    "fast_path_update": ("UPDATE t SET v = v + 1 WHERE k = $1",
                         lambda lay: [lay.local[0]]),
    "fast_path_insert": ("INSERT INTO t (k, v) VALUES ($1, 7)",
                         lambda lay: [lay.fresh[0]]),
    "multi_shard_select": ("SELECT count(*), sum(v) FROM t", lambda lay: None),
    "multi_shard_update": ("UPDATE t SET v = v + 1 WHERE v >= 0",
                           lambda lay: None),
}


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_a_statement_reaches_its_own_node_without_a_connection(layout, name):
    sql, params = STATEMENTS[name]
    with layout.wire.to(layout.node) as sent:
        result = layout.session.execute(sql, params(layout))
    assert sent == {"trips": 0, "opened": 0}, name
    if name == "multi_shard_select":
        assert result.rows[0][0] == 100
    pools = SessionPools.for_session(layout.session, layout.ext)
    assert layout.node not in pools.by_node


def test_a_copy_whose_chunks_land_locally_sends_nothing(layout):
    keys = layout.fresh[:5]
    with layout.wire.to(layout.node) as sent:
        layout.session.copy_rows("t", [[k, k] for k in keys], ["k", "v"])
    assert sent == {"trips": 0, "opened": 0}
    report = layout.ext.executor.last_report
    assert report.copy_rows_routed == len(keys)
    assert report.connections_opened == 0
    assert [layout.value(k) for k in keys] == keys


def test_a_local_task_reports_one_unit_and_no_wait_on_the_wire(layout):
    key = layout.local[0]
    layout.session.execute("SELECT v FROM t WHERE k = $1", [key])
    report = layout.ext.executor.last_report
    assert (report.task_count, report.connections_used,
            report.connections_opened, report.connections_reused) == (1, 0, 0, 0)
    record = layout.ext.telemetry.trace_records()[-1]
    (run,) = [event for event in record.events if event[E_CAT] == EXECUTION]
    (unit,) = execution_units(run)
    assert (unit[U_KIND], unit[U_NODE], unit[U_BYTES]) == (TASK, layout.node, 0)
    assert not any(key[0] == "Net" for key in record.waits[::2])


# ------------------------------------------------- (b) the transaction's own


def test_a_transaction_reads_its_own_local_write(layout):
    s, key, fresh = layout.session, layout.local[0], layout.fresh[0]
    with layout.wire.to(layout.node) as sent:
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 41 WHERE k = $1", [key])
        assert s.execute("SELECT v FROM t WHERE k = $1", [key]).scalar() == 41
        assert s.execute("SELECT sum(v) FROM t").scalar() == 41
        # Every later way in reaches the placements it touched locally.
        s.execute("UPDATE t SET v = v + 1 WHERE v >= 0")
        s.copy_rows("t", [[fresh, 7]], ["k", "v"])
        assert s.execute("SELECT v FROM t WHERE k = $1", [key]).scalar() == 42
        assert s.execute("SELECT count(*), sum(v) FROM t").rows == [
            [101, 42 + 99 + 7]]
        # Not visible outside the transaction until it commits.
        assert layout.value(key) == 0
        s.execute("COMMIT")
    assert (layout.value(key), layout.value(fresh)) == (42, 7)
    # Once touched locally, a placement is never reached through a
    # connection: the session holds none to its own node.
    assert sent == {"trips": 0, "opened": 0}
    assert layout.node not in SessionPools.for_session(s, layout.ext).by_node


def test_read_write_abort_leaves_nothing(layout):
    s, key = layout.session, layout.local[0]
    s.execute("BEGIN")
    assert s.execute("SELECT v FROM t WHERE k = $1", [key]).scalar() == 0
    s.execute("UPDATE t SET v = 5 WHERE k = $1", [key])
    s.execute("INSERT INTO t (k, v) VALUES ($1, 1)", [layout.fresh[0]])
    s.execute("ROLLBACK")
    assert layout.value(key) == 0
    assert layout.peer.execute("SELECT count(*) FROM t").scalar() == 100
    assert s.xid is None and not s.remote_txns


# -------------------------------------------------------- (c) (d) commit


def test_local_writes_alone_commit_in_one_phase(layout):
    s = layout.session
    onepc, twopc = layout.counter("onepc_commits"), layout.counter(
        "twopc_transactions")
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = 1 WHERE k = $1", [layout.local[0]])
    s.execute("UPDATE t SET v = 2 WHERE k = $1", [layout.local[1]])
    s.execute("COMMIT")
    assert layout.counter("onepc_commits") == onepc + 1
    assert layout.counter("onepc_commits", layout.node) >= 1
    assert layout.counter("twopc_transactions") == twopc
    assert (layout.value(layout.local[0]), layout.value(layout.local[1])) == (1, 2)


def test_a_read_only_transaction_counts_no_commit(layout):
    s = layout.session
    onepc = layout.counter("onepc_commits")
    s.execute("BEGIN")
    s.execute("SELECT v FROM t WHERE k = $1", [layout.local[0]])
    s.execute("COMMIT")
    assert layout.counter("onepc_commits") == onepc


@pytest.fixture
def mx(monkeypatch):
    """Citus 0+1 has no remote node: 2PC beside a local write is MX's."""
    return wired(monkeypatch, "mx_worker")


def test_a_local_and_a_remote_write_take_two_phases(mx):
    s = mx.session
    remote = mx.citus.cluster.node("worker2")
    before = {name: mx.counter(name) for name in (
        "twopc_transactions", "twopc_prepares", "onepc_commits")}
    remote_prepares = mx.counter("twopc_prepares", "worker2")
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = 1 WHERE k = $1", [mx.local[0]])
    s.execute("UPDATE t SET v = 2 WHERE k = $1", [mx.remote])
    s.execute("COMMIT")
    assert mx.counter("twopc_transactions") == before["twopc_transactions"] + 1
    # One PREPARE, the remote participant's: the local one commits with
    # the local transaction that holds the commit record.
    assert mx.counter("twopc_prepares") == before["twopc_prepares"] + 1
    assert mx.counter("twopc_prepares", "worker2") == remote_prepares + 1
    assert mx.counter("onepc_commits") == before["onepc_commits"]
    assert not remote.prepared_txns
    assert (mx.value(mx.local[0]), mx.value(mx.remote)) == (1, 2)


def test_recovery_commits_the_remote_side(mx):
    s = mx.session
    remote = mx.citus.cluster.node("worker2")
    mx.ext.failpoints["skip_commit_prepared"] = True
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = 3 WHERE k = $1", [mx.local[0]])
    s.execute("UPDATE t SET v = 4 WHERE k = $1", [mx.remote])
    s.execute("COMMIT")
    mx.ext.failpoints["skip_commit_prepared"] = False
    # The local side committed with its commit record; the remote one is
    # prepared, waiting for recovery.
    (gid,) = remote.prepared_txns
    assert mx.session.execute("SELECT count(*) FROM pg_dist_transaction"
                              " WHERE gid = $1", [gid]).scalar() == 1
    assert mx.value(mx.local[0]) == 3
    assert mx.ext.run_maintenance()["recovery"]["committed"] == 1
    assert not remote.prepared_txns
    assert mx.value(mx.remote) == 4


# ----------------------------------------------------------- (e) lock waits


@pytest.mark.parametrize("table", ["t", "plain"])
def test_a_local_row_lock_conflict_parks_like_a_plain_statement(layout, table):
    """``plain`` is an undistributed table of the node: the distributed
    statement must wait the way it does."""
    holder, waiter, key = layout.session, layout.peer, layout.local[0]
    if table == "plain":
        layout.session.execute("INSERT INTO plain (k, v) VALUES ($1, 0)", [key])
    holder.execute("BEGIN")
    holder.execute(f"UPDATE {table} SET v = 1 WHERE k = $1", [key])
    handle = waiter.execute_async(f"UPDATE {table} SET v = 2 WHERE k = $1 "
                                  "RETURNING v", [key])
    assert not handle.done
    edges = layout.session.instance.locks.wait_graph_edges()
    assert (waiter.xid, holder.xid) in edges
    holder.execute("COMMIT")
    layout.citus.pump()
    assert handle.done
    assert handle.get().rows == [[2]]
    assert waiter.execute(f"SELECT v FROM {table} WHERE k = $1",
                          [key]).scalar() == 2


@pytest.mark.parametrize("table", ["t", "plain"])
def test_a_local_row_lock_conflict_times_out_like_a_plain_statement(layout,
                                                                    table):
    holder, waiter, key = layout.session, layout.peer, layout.local[0]
    if table == "plain":
        layout.session.execute("INSERT INTO plain (k, v) VALUES ($1, 0)", [key])
    holder.execute("BEGIN")
    holder.execute(f"UPDATE {table} SET v = 1 WHERE k = $1", [key])
    with pytest.raises(LockTimeout):
        waiter.execute(f"UPDATE {table} SET v = 2 WHERE k = $1", [key])
    assert waiter.xid is None and not waiter.instance.locks.wait_graph_edges()
    holder.execute("ROLLBACK")
    assert waiter.execute(f"UPDATE {table} SET v = 3 WHERE k = $1",
                          [key]).rowcount == 1


def test_a_multi_shard_statement_does_not_park_on_a_local_lock(layout):
    """Multi-task statements never park (a retry would run their finished
    tasks again): a local lock wait fails the statement."""
    holder, waiter, key = layout.session, layout.peer, layout.local[0]
    holder.execute("BEGIN")
    holder.execute("UPDATE t SET v = 1 WHERE k = $1", [key])
    with pytest.raises(LockTimeout):
        waiter.execute_async("UPDATE t SET v = v + 10 WHERE v >= 0")
    assert waiter.xid is None and not waiter.remote_txns
    holder.execute("COMMIT")
    assert layout.peer.execute("SELECT sum(v) FROM t").scalar() == 1
