"""Live cluster introspection: wait events, citus_dist_stat_activity,
citus_lock_waits, get_rebalance_progress, citus_stat_tenants, and the
Prometheus metrics snapshot."""

from __future__ import annotations

import re

import pytest

from repro import PostgresInstance
from repro.citus.api import make_cluster
from repro.citus.extension import TELEMETRY_SWITCHES
from repro.citus.introspection import GPID_STRIDE, global_pid
from repro.citus.metrics import metrics_snapshot
from repro.citus.rebalancer import MOVE_PHASES, progress_for
from repro.engine.stats import stats_for
from repro.engine.waitevents import IN_PROGRESS_GAUGE, wait_totals
from repro.errors import NodeUnavailable, TooManyConnections
from repro.net.pool import ConnectionPool

from .conftest import find_keys_on_distinct_nodes
from .golden import telemetry_script


def _make_table(citus, rows: int = 20):
    session = citus.coordinator_session()
    session.execute("CREATE TABLE accounts (k int, v int)")
    session.execute("SELECT create_distributed_table('accounts', 'k')")
    for i in range(rows):
        session.execute(f"INSERT INTO accounts (k, v) VALUES ({i}, {i})")
    return session


def _udf_rows(session, call: str):
    return session.execute(f"SELECT {call}").rows[0][0]


# ------------------------------------------------------------- wait events


def test_wait_event_totals_accumulate(citus):
    session = _make_table(citus)
    totals = wait_totals(stats_for(citus.cluster))
    classes = {wclass for wclass, _event, _node in totals}
    # Remote execution, connection setup, and WAL flushes all happened.
    assert "Net" in classes
    assert "IO" in classes
    for entry in totals.values():
        assert entry["count"] > 0
        assert entry["seconds"] >= 0.0


def test_wait_events_survive_lease_failure():
    """A forced failure mid-lease must not leave a dangling in-progress
    wait event: the gauge returns to zero and the stack is empty."""
    instance = PostgresInstance("pg_pool")
    pool = ConnectionPool(instance, pool_size=0)
    with pytest.raises(TooManyConnections):
        pool._acquire()
    registry = instance.wait_registry
    assert registry.snapshot().gauge(IN_PROGRESS_GAUGE) == 0
    assert pool.wait_events.depth == 0
    totals = wait_totals(registry)
    assert totals[("Client", "PoolLease", "pg_pool")]["count"] == 1


def test_wait_event_gauge_balanced_after_workload(citus):
    _make_table(citus)
    snap = stats_for(citus.cluster).snapshot()
    assert snap.gauge(IN_PROGRESS_GAUGE) == 0


def test_twopc_wait_events_recorded(citus):
    session = _make_table(citus)
    k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
    session.execute("BEGIN")
    session.execute(f"UPDATE accounts SET v = 1 WHERE k = {k1}")
    session.execute(f"UPDATE accounts SET v = 1 WHERE k = {k2}")
    session.execute("COMMIT")
    totals = wait_totals(stats_for(citus.cluster))
    events = {event for wclass, event, _node in totals if wclass == "TwoPC"}
    assert "Prepare" in events
    assert "CommitPrepared" in events


def test_introspection_can_be_disabled(citus):
    session = citus.coordinator_session()
    session.execute("SELECT citus_set_config('enable_introspection', $1)",
                    [False])
    assert citus.coordinator.wait_registry is None
    # Drop the totals accumulated while the cluster was built.
    session.execute("SELECT citus_stat_counters_reset()")
    session.execute("CREATE TABLE t0 (k int, v int)")
    session.execute("SELECT create_distributed_table('t0', 'k')")
    session.execute("INSERT INTO t0 (k, v) VALUES (1, 1)")
    assert not wait_totals(stats_for(citus.cluster))
    assert _udf_rows(session, "citus_stat_tenants()") == []
    session.execute("SELECT citus_set_config('enable_introspection', $1)",
                    [True])
    session.execute("INSERT INTO t0 (k, v) VALUES (2, 2)")
    assert wait_totals(stats_for(citus.cluster))


# ---------------------------------------------------------------- activity


def test_dist_stat_activity_lists_all_nodes(citus):
    session = _make_table(citus)
    rows = _udf_rows(session, "citus_dist_stat_activity()")
    by_node = {}
    for row in rows:
        by_node.setdefault(row[1], []).append(row)
    assert set(by_node) >= {"coordinator", "worker1", "worker2"}
    # The session running the view reports itself as active on the UDF.
    me = [r for r in rows if r[0] == global_pid(citus.coordinator_ext,
                                               "coordinator",
                                               session.backend_pid)]
    assert len(me) == 1
    assert me[0][5] == "active"
    assert "citus_dist_stat_activity" in me[0][9]


def test_global_pids_are_unique_and_node_scoped(citus):
    session = _make_table(citus)
    rows = _udf_rows(session, "citus_dist_stat_activity()")
    gpids = [row[0] for row in rows]
    assert len(gpids) == len(set(gpids))
    for row in rows:
        node, pid = row[1], row[2]
        group = 0 if node == "coordinator" else int(node[len("worker"):])
        assert row[0] == group * GPID_STRIDE + pid


def test_activity_shows_wait_event_for_blocked_writer(citus):
    a = _make_table(citus)
    b = citus.coordinator_session()
    a.execute("BEGIN")
    a.execute("UPDATE accounts SET v = 100 WHERE k = 3")
    fut = b.execute_async("UPDATE accounts SET v = 200 WHERE k = 3")
    citus.pump()
    rows = _udf_rows(a, "citus_dist_stat_activity()")
    blocked = [r for r in rows if r[2] == b.backend_pid
               and r[1] == "coordinator"]
    assert len(blocked) == 1
    assert blocked[0][5] == "active"
    assert (blocked[0][6], blocked[0][7]) == ("IPC", "RemoteStatement")
    # The worker backend doing the actual lock wait shows Lock:tuple.
    worker_waits = [(r[6], r[7]) for r in rows if r[1] != "coordinator"]
    assert ("Lock", "tuple") in worker_waits
    a.execute("COMMIT")
    citus.pump()
    assert fut.get().rowcount == 1


# -------------------------------------------------------------- lock waits


def test_lock_waits_blocked_writer_has_correct_blocking_gpid(citus):
    a = _make_table(citus)
    b = citus.coordinator_session()
    a.execute("BEGIN")
    a.execute("UPDATE accounts SET v = 100 WHERE k = 3")
    fut = b.execute_async("UPDATE accounts SET v = 200 WHERE k = 3")
    citus.pump()
    rows = _udf_rows(a, "citus_lock_waits()")
    assert len(rows) == 1
    (waiting_gpid, blocking_gpid, blocked_sql, blocking_sql,
     waiting_node, blocking_node, lock) = rows[0]
    ext = citus.coordinator_ext
    assert waiting_gpid == global_pid(ext, "coordinator", b.backend_pid)
    assert blocking_gpid == global_pid(ext, "coordinator", a.backend_pid)
    assert blocked_sql == "UPDATE accounts SET v = 200 WHERE k = 3"
    assert waiting_node == "coordinator"
    assert blocking_node == "coordinator"
    assert lock[0] == "row"
    a.execute("ROLLBACK")
    citus.pump()
    assert fut.get().rowcount == 1
    assert _udf_rows(a, "citus_lock_waits()") == []


def test_lock_waits_resolves_distributed_transactions(citus):
    """Two multi-statement transactions colliding on the same key: both
    sides carry distributed transaction ids and still resolve back to
    their coordinator sessions."""
    a = _make_table(citus)
    b = citus.coordinator_session()
    k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
    a.execute("BEGIN")
    a.execute(f"UPDATE accounts SET v = 1 WHERE k = {k1}")
    a.execute(f"UPDATE accounts SET v = 1 WHERE k = {k2}")
    b.execute("BEGIN")
    fut = b.execute_async(f"UPDATE accounts SET v = 2 WHERE k = {k1}")
    citus.pump()
    citus.run_maintenance()  # assigns distributed txn ids to waiters
    rows = _udf_rows(a, "citus_lock_waits()")
    ext = citus.coordinator_ext
    pairs = {(r[0], r[1]) for r in rows}
    assert (global_pid(ext, "coordinator", b.backend_pid),
            global_pid(ext, "coordinator", a.backend_pid)) in pairs
    a.execute("COMMIT")
    citus.pump()
    assert fut.done
    b.execute("COMMIT")


# ------------------------------------------------------ rebalance progress


def test_rebalance_progress_phases_advance_monotonically(citus):
    session = _make_table(citus, rows=50)
    rows = _udf_rows(session, "citus_shards()")
    table, shardid, _name, node, _size = rows[0]
    target = "worker2" if node == "worker1" else "worker1"
    session.execute(
        f"SELECT citus_move_shard_placement({shardid}, '{target}')"
    )
    progress = progress_for(citus.coordinator_ext)
    assert progress.moves
    for move in progress.moves:
        phases = [phase for phase, _at in move.phase_history]
        # Every phase entered in taxonomy order, no repeats, no skips
        # before the point reached.
        assert phases == list(MOVE_PHASES[:len(phases)])
        times = [at for _phase, at in move.phase_history]
        assert times == sorted(times)
        assert move.status == "completed"
    view = _udf_rows(session, "get_rebalance_progress()")
    moved = [r for r in view if r[2] == shardid]
    assert len(moved) == 1
    assert moved[0][3] == node and moved[0][4] == target
    assert moved[0][5] == moved[0][6] > 0  # bytes_copied == bytes_total
    assert moved[0][9] == "metadata" and moved[0][10] == "completed"


def test_rebalance_failed_move_is_recorded(citus):
    session = _make_table(citus, rows=30)
    rows = _udf_rows(session, "citus_shards()")
    table, shardid, _name, node, _size = rows[0]
    target = "worker2" if node == "worker1" else "worker1"
    citus.cluster.fail_node(target)
    with pytest.raises(NodeUnavailable):
        session.execute(
            f"SELECT citus_move_shard_placement({shardid}, '{target}')"
        )
    view = _udf_rows(session, "get_rebalance_progress()")
    failed = [r for r in view if r[2] == shardid]
    assert len(failed) == 1
    assert failed[0][5] == 0 < failed[0][6]  # nothing copied of a readable source
    assert failed[0][10] == "failed"
    assert "NodeUnavailable" in failed[0][11]
    counters = stats_for(citus.cluster).snapshot()
    assert counters.value("rebalancer_moves_failed") >= 1


def test_a_move_from_a_down_source_reports_no_bytes(citus):
    session = _make_table(citus, rows=30)
    _table, shardid, name, node, _size = _udf_rows(session, "citus_shards()")[0]
    target = "worker2" if node == "worker1" else "worker1"
    citus.cluster.fail_node(node)
    with pytest.raises(NodeUnavailable):
        session.execute(f"SELECT citus_move_shard_placement({shardid}, '{target}')")
    failed = [r for r in _udf_rows(session, "get_rebalance_progress()")
              if r[2] == shardid]
    # The source could not be read, so its size is not reported either.
    assert [(r[5], r[6], r[10]) for r in failed] == [(0, 0, "failed")]
    assert not citus.cluster.node(target).catalog.has_table(name)


# ------------------------------------------------------------ tenant stats


def test_tenant_stats_attribute_rows_under_plan_cache(citus):
    session = _make_table(citus)
    # The seed INSERTs are tenant-attributed too; start from a clean slate
    # so only the measured statements count.
    session.execute("SELECT citus_stat_reset('tenants')")
    before = stats_for(citus.cluster).snapshot().value("plan_cache_hits")
    for _ in range(2):
        session.execute("SELECT v FROM accounts WHERE k = $1", [5])
        session.execute("SELECT v FROM accounts WHERE k = $1", [9])
    after = stats_for(citus.cluster).snapshot().value("plan_cache_hits")
    assert after > before  # the fast path really was cached
    rows = {r[0]: r for r in _udf_rows(session, "citus_stat_tenants()")}
    assert rows[5][1] == 2 and rows[5][2] == 2
    assert rows[9][1] == 2 and rows[9][2] == 2
    assert rows[5][3] >= 0.0 and rows[5][4] >= 0.0


def test_tenant_stats_include_wait_time_of_blocked_writer(citus):
    a = _make_table(citus)
    b = citus.coordinator_session()
    a.execute("BEGIN")
    a.execute("UPDATE accounts SET v = 100 WHERE k = 3")
    fut = b.execute_async("UPDATE accounts SET v = 200 WHERE k = 3")
    citus.pump()
    citus.cluster.clock.advance(1.5)
    a.execute("COMMIT")
    citus.pump()
    assert fut.get().rowcount == 1
    rows = {r[0]: r for r in _udf_rows(a, "citus_stat_tenants()")}
    # Tenant 3 spent the blocked interval waiting; attribution must
    # include it (total_wait_time_ms > the advance we injected).
    assert rows[3][4] >= 1500.0


def test_a_parked_statement_is_one_statement_with_its_full_latency(citus):
    """The writer that waited is one call of its fingerprint — not an
    error plus a lost completion — in the statement view too, with the
    same time the tenant table gives it."""
    a = _make_table(citus)
    b = citus.coordinator_session()
    a.execute("SELECT citus_stat_reset()")
    a.execute("BEGIN")
    a.execute("UPDATE accounts SET v = 100 WHERE k = 3")
    fut = b.execute_async("UPDATE accounts SET v = 200 WHERE k = 3")
    citus.pump()
    citus.cluster.clock.advance(1.5)
    a.execute("COMMIT")
    citus.pump()
    assert fut.get().rowcount == 1
    # Both updates share a fingerprint and a tenant: one row, two calls.
    (row,) = [r for r in _udf_rows(a, "citus_stat_statements()")
              if r[0].startswith("UPDATE accounts")]
    assert row[3] == 2 and row[10] == 2  # two calls, a row each
    assert row[6] >= 1500.0 - 1e-6  # max_ms spans the wait
    tenant = {r[0]: r for r in _udf_rows(a, "citus_stat_tenants()")}[3]
    assert tenant[1] == 2 and tenant[2] == 2
    telemetry = citus.coordinator_ext.telemetry
    (record,) = [r for r in telemetry.trace_records()
                 if r.name == "Update" and r.duration >= 1.5 - 1e-9]
    assert record.error is None and record.rows == 1


def test_a_cancelled_parked_statement_is_one_statement_with_its_error(citus):
    a = _make_table(citus)
    b = citus.coordinator_session()
    k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
    a.execute("BEGIN")
    a.execute(f"UPDATE accounts SET v = 1 WHERE k = {k1}")
    b.execute("BEGIN")
    b.execute(f"UPDATE accounts SET v = 2 WHERE k = {k2}")
    a.execute("SELECT citus_stat_reset('statements')")
    fa = a.execute_async(f"UPDATE accounts SET v = 11 WHERE k = {k2}")
    fb = b.execute_async(f"UPDATE accounts SET v = 22 WHERE k = {k1}")
    citus.cluster.clock.advance(0.75)
    assert len(citus.run_maintenance()["deadlocks_cancelled"]) == 1
    citus.pump()
    assert fb.done and fb.error is not None  # the younger one is the victim
    b.execute("ROLLBACK")
    citus.pump()
    assert fa.get().rowcount == 1
    a.execute("COMMIT")
    records = [r for r in citus.coordinator_ext.telemetry.trace_records()
               if r.name == "Update" and r.duration >= 0.75 - 1e-9]
    assert sorted(r.error or "" for r in records) == ["", "QueryCanceled"]
    # One call each (same fingerprint, one row per tenant).
    calls = {r[1]: r[3] for r in _udf_rows(a, "citus_stat_statements()")
             if r[0].startswith("UPDATE accounts")}
    assert calls == {k1: 1, k2: 1}


# ------------------------------------------------------------------ resets


def test_stat_counters_reset_clears_wait_events_and_tenants(citus):
    session = _make_table(citus)
    session.execute("SELECT v FROM accounts WHERE k = 5")
    assert wait_totals(stats_for(citus.cluster))
    assert _udf_rows(session, "citus_stat_tenants()")
    session.execute("SELECT citus_stat_counters_reset()")
    assert not wait_totals(stats_for(citus.cluster))
    assert _udf_rows(session, "citus_stat_tenants()") == []


def test_citus_stat_reset_modes(citus):
    session = _make_table(citus)
    session.execute("SELECT v FROM accounts WHERE k = 5")
    session.execute("SELECT citus_stat_reset('tenants')")
    assert _udf_rows(session, "citus_stat_tenants()") == []
    assert wait_totals(stats_for(citus.cluster))  # counters untouched
    session.execute("SELECT citus_stat_reset('all')")
    assert not wait_totals(stats_for(citus.cluster))
    assert _udf_rows(session, "citus_stat_statements()") == []
    with pytest.raises(Exception):
        session.execute("SELECT citus_stat_reset('bogus')")


# ----------------------------------------------------------------- metrics


def test_metrics_snapshot_renders_prometheus_text(citus):
    session = _make_table(citus)
    text = _udf_rows(session, "citus_metrics_snapshot()")
    assert isinstance(text, str)
    lines = text.splitlines()
    assert "# TYPE citus_wait_events_total counter" in lines
    assert any(l.startswith("citus_wait_events_total{") for l in lines)
    assert any(l.startswith("citus_wait_time_seconds_total{") for l in lines)
    assert 'citus_node_up{node="worker1"} 1' in lines
    assert 'citus_node_up{node="worker2"} 1' in lines
    assert any(l.startswith("citus_node_connections{") for l in lines)
    assert any(l.startswith("citus_planner_total_total") for l in lines)
    # Deterministic: identical state renders byte-identically. (Not
    # through the UDF twice: a statement is itself recorded, which moves
    # the trace ring's high-water mark.)
    ext = citus.coordinator_ext
    assert metrics_snapshot(ext) == metrics_snapshot(ext)


def test_metrics_snapshot_reports_down_node(citus):
    session = _make_table(citus)
    citus.cluster.fail_node("worker2")
    text = _udf_rows(session, "citus_metrics_snapshot()")
    assert 'citus_node_up{node="worker2"} 0' in text.splitlines()


_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE = re.compile(r"([^{ ]+)(?:\{(.*)\})? (\S+)")
_LABEL = re.compile(r'([^=,]+)="((?:[^"\\]|\\.)*)"')


def assert_well_formed(text: str) -> set[str]:
    """Every family has one ``# TYPE`` line, before its samples, which are
    contiguous and at least one; names are Prometheus names. Returns the
    families."""
    samples: dict[str, int] = {}  # family -> samples, in scrape order
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split(" ")
            assert name not in samples, f"second # TYPE for {name}"
            assert _NAME.fullmatch(name) and kind in ("counter", "gauge")
            assert all(samples.values()), f"# TYPE without samples: {line}"
            samples[name] = 0
            continue
        match = _SAMPLE.fullmatch(line)
        assert match, line
        name, labels, value = match.groups()
        current = list(samples)[-1] if samples else None
        assert name == current, f"{name} sampled outside its family"
        if labels:
            pairs = list(_LABEL.finditer(labels))
            assert ",".join(p.group(0) for p in pairs) == labels, line
            assert all(_NAME.fullmatch(p.group(1)) for p in pairs), line
        float(value)
        samples[name] += 1
    assert all(samples.values()), "a # TYPE line without samples"
    return set(samples)


@pytest.mark.parametrize("switches", ["on", "off"])
def test_the_whole_scrape_is_well_formed(switches):
    """The golden telemetry script's cluster, as shipped and with every
    telemetry switch off: the scrape is valid exposition text throughout,
    ring-health families included."""
    on = switches == "on"
    config = telemetry_script.script_config(
        **{name: on for name in TELEMETRY_SWITCHES})
    _citus, session, _ = telemetry_script.drive(config)
    families = assert_well_formed(_udf_rows(session, "citus_metrics_snapshot()"))
    assert {"citus_telemetry_ring_capacity", "citus_node_up"} <= families
    assert ("citus_txn_graph_vertices" in families) == on
    assert ("citus_wait_events_total" in families) == on
