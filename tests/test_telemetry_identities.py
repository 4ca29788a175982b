"""The referee: every telemetry surface is a view of the same statements,
so their totals must agree with each other.

Read through the public UDFs only. The uncontended half held before the
telemetry spine too; the contended half did not — a statement that parked
on a lock was an error plus a lost completion to the tracer, a full
statement to the tenant table, nothing to the window ring and no
transaction to the co-access graph.
"""

from __future__ import annotations

import json

import pytest

from repro import make_cluster
from repro.workloads.traffic import TrafficConfig, TrafficHarness


def _udf(session, call: str):
    return session.execute(f"SELECT {call}").scalar()


class Surfaces:
    """One read of every surface the identities relate."""

    def __init__(self, citus):
        session = citus.coordinator_session("referee")
        self.counters: dict[str, int] = {}
        for name, _node, value in _udf(session, "citus_stat_counters()"):
            self.counters[name] = self.counters.get(name, 0) + value
        # [query, partition_key, tier, calls, total_ms, min, max, p50, p95,
        #  p99, rows, bytes, plan_cache_hits]
        self.statements = _udf(session, "citus_stat_statements()")
        # [tenant, query_count, rows, total_query_time_ms, total_wait_time_ms]
        self.tenants = _udf(session, "citus_stat_tenants()")
        # [bucket, start_s, end_s, current, statements, p50, p95, p99, txns,
        #  txns_multi_group, txns_cross_node, txns_2pc, edge_txns, counters]
        self.windows = _udf(session, "citus_stat_windows()")
        self.vertices = _udf(session, "citus_stat_txn_graph('vertices')")
        self.flamegraph = _udf(session, "citus_ash('flamegraph')")
        self.ash_samples = _udf(session, "citus_ash()")
        self.trace_events = json.loads(
            _udf(session, "citus_trace_export()"))["traceEvents"]
        session.close()

    def traces(self):
        """The exported ring as (root event, descendant events) pairs: a
        trace's root is the one event carrying the statement's SQL."""
        out = []
        for event in self.trace_events:
            if event["ph"] != "X":
                continue
            if "sql" in event["args"]:
                out.append((event, []))
            else:
                out[-1][1].append(event)
        return out


def assert_sensors_agree(s: Surfaces) -> None:
    calls = sum(row[3] for row in s.statements)
    assert calls == s.counters.get("planner_total", 0)
    assert calls == sum(row[1] for row in s.tenants)
    assert sum(row[4] for row in s.statements) == pytest.approx(
        sum(row[3] for row in s.tenants), abs=1e-6)

    assert sum(row[4] for row in s.windows) == \
        s.counters.get("executor_statements", 0)
    txns = s.counters.get("txngraph_txns", 0)
    assert sum(row[8] for row in s.windows) == txns
    assert sum(row[11] for row in s.windows) \
        == s.counters.get("txngraph_txns_2pc", 0) \
        == s.counters.get("twopc_transactions", 0)
    for vertex in s.vertices:
        assert vertex[1] <= txns

    flame_total = sum(int(line.rsplit(" ", 1)[1])
                      for line in s.flamegraph.splitlines())
    assert flame_total == len(s.ash_samples) == s.counters.get("ash_samples", 0)

    total_ms_by_query: dict[str, float] = {}
    for row in s.statements:
        total_ms_by_query[row[0]] = total_ms_by_query.get(row[0], 0.0) + row[4]
    traced_ms_by_query: dict[str, float] = {}
    for root, spans in s.traces():
        start, end = root["ts"], root["ts"] + root["dur"]
        for span in spans:
            assert start - 1e-6 <= span["ts"]
            assert span["ts"] + span["dur"] <= end + 1e-6
        sql = root["args"]["sql"]
        traced_ms_by_query[sql] = traced_ms_by_query.get(sql, 0.0) \
            + root["dur"] / 1000.0
    for sql, traced_ms in traced_ms_by_query.items():
        if sql in total_ms_by_query:
            assert traced_ms <= total_ms_by_query[sql] + 1e-6


# ------------------------------------------------------------- uncontended


@pytest.fixture(scope="module")
def traffic_surfaces():
    citus = make_cluster(workers=4, shard_count=16, max_connections=4000)
    config = TrafficConfig(
        sessions=2000, tenants=400, zipf_s=1.1, seed=31415,
        sim_duration=120.0, max_transactions=6000, think="exponential",
        think_mean=2.0, ramp_seconds=10.0, session_lifetime=(4, 12),
        pool_size=32, max_client_conn=4000,
    )
    TrafficHarness(citus, config).run()
    return Surfaces(citus)


def test_sensors_agree_after_a_2000_session_run(traffic_surfaces):
    assert_sensors_agree(traffic_surfaces)


def test_the_run_is_the_one_the_identities_were_stated_for(traffic_surfaces):
    """The totals at the commit before the telemetry spine; a change in
    any of them is a change in what the workload did, not in a sensor."""
    s = traffic_surfaces
    assert sum(row[3] for row in s.statements) == 6897
    assert sum(row[4] for row in s.statements) == pytest.approx(
        3764.401342, abs=1e-5)
    assert s.counters["executor_statements"] == 6921
    assert s.counters["txngraph_txns"] == 6009
    assert s.counters["twopc_transactions"] == 57
    assert len(s.ash_samples) == 423


# --------------------------------------------------------------- contended


@pytest.fixture
def contended_surfaces():
    """Session A holds a row lock for 250 ms of simulated time; session
    B's UPDATE of the same row parks on it and completes after A commits."""
    citus = make_cluster(workers=2, shard_count=8)
    a = citus.coordinator_session("a")
    a.execute("CREATE TABLE accounts (k int PRIMARY KEY, v int)")
    a.execute("SELECT create_distributed_table('accounts', 'k')")
    a.execute("INSERT INTO accounts (k, v) VALUES (3, 3)")
    b = citus.coordinator_session("b")
    a.execute("SELECT citus_stat_reset()")
    a.execute("BEGIN")
    a.execute("UPDATE accounts SET v = 100 WHERE k = 3")
    parked = b.execute_async("UPDATE accounts SET v = 200 WHERE k = 3")
    citus.pump()
    assert not parked.done
    citus.cluster.clock.advance(0.25)
    a.execute("COMMIT")
    citus.pump()
    assert parked.get().rowcount == 1
    return Surfaces(citus)


def test_sensors_agree_when_a_statement_parks_on_a_lock(contended_surfaces):
    s = contended_surfaces
    assert_sensors_agree(s)
    assert sum(row[10] for row in s.statements) == sum(row[2] for row in s.tenants)


def test_a_parked_statement_is_one_statement_everywhere(contended_surfaces):
    s = contended_surfaces
    (row,) = s.statements  # same fingerprint, same tenant: one row
    assert row[3] == 2  # A's update and B's
    assert row[10] == 2  # both updated the row
    assert row[6] >= 250.0 - 1e-6  # B's latency spans its wait
    assert row[4] == pytest.approx(s.tenants[0][3], abs=1e-6)
    assert sum(w[4] for w in s.windows) == 2
    # Both committed transactions touched a shard: both are in the graph.
    assert s.counters["txngraph_txns"] == 2
    assert s.vertices[0][1] == 2
    # B is one trace, without an error, whose wait span covers the wait.
    updates = [(root, spans) for root, spans in s.traces()
               if root["name"] == "Update"]
    assert len(updates) == 2
    _root, spans = max(updates, key=lambda t: t[0]["dur"])
    waits = [sp for sp in spans if sp["cat"] == "wait"]
    assert any(sp["name"] == "wait.IPC.RemoteStatement"
               and sp["dur"] >= 250_000.0 - 1e-3 for sp in waits)
