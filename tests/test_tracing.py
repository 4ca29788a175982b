"""End-to-end distributed tracing, citus_stat_statements, and EXPLAIN
ANALYZE: the multi-shard span-tree shape, histogram percentile
math, per-fingerprint telemetry, 2PC span nesting, slow-query log, and
the Chrome trace export."""

from __future__ import annotations

import json

import pytest

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.citus.record import Ring
from repro.citus.tracing import build_trace
from .conftest import find_keys_on_distinct_nodes, percentile


def _setup_items(cc, rows: int = 64):
    s = cc.coordinator_session()
    s.execute("CREATE TABLE items (k int PRIMARY KEY, v text)")
    s.execute("SELECT create_distributed_table('items', 'k')")
    s.copy_rows("items", [[i, f"val{i}"] for i in range(rows)])
    return s


# ------------------------------------------------------- histogram math


class TestLogHistogram:
    def test_percentiles_track_a_uniform_distribution(self):
        values = [i / 1000.0 for i in range(1, 1001)]  # uniform 0.001..1.0
        p50, p95, p99 = (percentile(values, p) for p in (50, 95, 99))
        # Bucket upper bounds overestimate by at most one factor (1.5x),
        # and the clamp keeps everything inside the observed range.
        assert 0.5 <= p50 <= 0.5 * 1.5
        assert 0.95 <= p95 <= 1.0
        assert 0.99 <= p99 <= 1.0
        assert p50 <= p95 <= p99

    def test_constant_distribution_collapses_to_the_value(self):
        values = [0.25] * 100
        assert percentile(values, 50) == 0.25
        assert percentile(values, 99) == 0.25

    def test_bimodal_distribution(self):
        values = [0.001] * 90 + [1.0] * 10
        assert percentile(values, 50) <= 0.002  # fast mode
        assert percentile(values, 95) == 1.0  # slow mode, clamped to max
        assert percentile(values, 99) == 1.0


# ---------------------------------------------------------- span shape


def test_multi_shard_select_span_shape():
    """A multi-shard SELECT's span tree: one task span per shard on both
    workers, one merge span, and statement bytes that are exactly the
    cursor batches plus one dispatch message per task."""
    cc = make_cluster(workers=2, shard_count=8)
    s = _setup_items(cc)
    s.execute("SELECT k, v FROM items ORDER BY k")
    record = cc.coordinator_ext.telemetry.trace_records()[-1]
    trace = build_trace(record)

    assert record.tier == "pushdown"
    assert record.rows == 64

    tasks = trace.find("executor", "task")
    assert len(tasks) == 8
    assert {sp.node for sp in tasks} == {"worker1", "worker2"}
    assert sorted(sp.attrs["index"] for sp in tasks) == list(range(8))
    assert sum(sp.attrs["rows"] for sp in tasks) == 64

    assert len(trace.find("merge")) == 1

    batches = trace.find("network", "batch")
    dispatches = trace.find("network", "dispatch")
    assert batches and len(dispatches) == 8
    dispatch_bytes = 256  # RemoteConnection's request payload
    assert record.wire_bytes() == (sum(sp.attrs["bytes"] for sp in batches)
                           + dispatch_bytes * len(dispatches))


def test_task_spans_carry_queue_and_connection_detail(citus):
    _setup_items(citus)
    # A fresh session has no pooled executor connections yet, so the
    # establishment cost lands inside this statement's trace.
    s = citus.coordinator_session()
    s.execute("SELECT count(*) FROM items")
    trace = build_trace(citus.coordinator_ext.telemetry.trace_records()[-1])
    tasks = trace.find("executor", "task")
    assert len(tasks) == 8
    for sp in tasks:
        assert sp.attrs["bytes"] > 0
        assert sp.attrs["retries"] == 0
        assert sp.duration > 0
    # Connection establishment shows up as network spans.
    assert trace.find("network", "connect")
    # The planner annotated the trace and emitted a plan event.
    (plan_event,) = trace.find("planner", "plan")
    assert plan_event.attrs["tier"] == "pushdown"
    assert plan_event.attrs["tasks"] == 8


# ----------------------------------------------------- stat statements


def test_stat_statements_mixed_workload(citus):
    s = _setup_items(citus)
    s.execute("SELECT citus_stat_statements_reset()")
    for _ in range(3):
        s.execute("SELECT v FROM items WHERE k = 7")
    for _ in range(4):
        s.execute("SELECT count(*) FROM items")
    rows = s.execute("SELECT citus_stat_statements()").scalar()
    # [query, partition_key, tier, calls, total_ms, min_ms, max_ms,
    #  p50_ms, p95_ms, p99_ms, rows, bytes, plan_cache_hits]
    assert len(rows) >= 2  # two distinct fingerprints at least

    (tenant_row,) = [r for r in rows if r[1] == 7]
    assert tenant_row[2] in ("fast_path", "router")
    assert tenant_row[3] == 3  # calls
    assert tenant_row[12] >= 2  # replayed from the plan cache after call 1

    (multi_row,) = [r for r in rows if "count" in r[0]]
    assert multi_row[1] is None  # no single tenant for multi-shard scans
    assert multi_row[2] == "pushdown"
    assert multi_row[3] == 4
    assert multi_row[10] == 4  # one aggregate row per call
    assert multi_row[11] > 0  # wire bytes

    for r in rows:
        total, mn, mx, p50, p95, p99 = r[4], r[5], r[6], r[7], r[8], r[9]
        assert p50 <= p95 <= p99
        assert mn <= p50 and p99 <= mx + 1e-9
        assert total >= mx

    assert s.execute("SELECT citus_stat_statements_reset()").scalar() is True
    assert s.execute("SELECT citus_stat_statements()").scalar() == []


def test_stat_statements_separates_tenants(citus):
    s = _setup_items(citus)
    s.execute("SELECT citus_stat_statements_reset()")
    k1, k2 = find_keys_on_distinct_nodes(citus, "items")
    s.execute(f"SELECT v FROM items WHERE k = {k1}")
    s.execute(f"SELECT v FROM items WHERE k = {k2}")
    rows = s.execute("SELECT citus_stat_statements()").scalar()
    tenants = {r[1] for r in rows}
    assert {k1, k2} <= tenants  # same fingerprint, one entry per tenant


# ----------------------------------------------------- explain analyze


def test_explain_analyze_multi_shard_order_by_limit(citus):
    s = _setup_items(citus, rows=100)
    text = "\n".join(
        r[0] for r in s.execute(
            "EXPLAIN ANALYZE SELECT k, v FROM items ORDER BY k LIMIT 10"
        ).rows
    )
    assert "Custom Scan (Citus Adaptive)" in text
    assert "Task Count: 8" in text
    # Per-task actuals from the streaming cursors.
    assert "actual rows=" in text
    assert "batches=" in text
    # The coordinator merge span with its measured actuals.
    assert "Merge:" in text
    assert "Execution: rows=10 time=" in text


def test_explain_analyze_works_while_tracing_disabled():
    cc = make_cluster(workers=2, shard_count=8,
                      config=CitusConfig(enable_tracing=False))
    s = _setup_items(cc)
    assert not cc.coordinator_ext.telemetry.trace_records()  # nothing recorded
    text = "\n".join(
        r[0] for r in s.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM items"
        ).rows
    )
    # capture() collects spans for the one statement regardless of the
    # citus.enable_tracing GUC...
    assert "actual rows=" in text
    assert "Execution: rows=1 time=" in text
    # ...without recording anything into the trace ring.
    assert not cc.coordinator_ext.telemetry.trace_records()


def test_explain_analyze_udf(citus):
    s = _setup_items(citus)
    text = s.execute(
        "SELECT citus_explain_analyze('SELECT count(*) FROM items')"
    ).scalar()
    assert "Custom Scan (Citus Adaptive)" in text
    assert "Execution: rows=1 time=" in text


# ------------------------------------------------------------- 2PC spans


def test_2pc_spans_nest_under_the_commit_statement(citus):
    s = _setup_items(citus)
    k1, k2 = find_keys_on_distinct_nodes(citus, "items")
    s.execute("BEGIN")
    s.execute(f"UPDATE items SET v = 'x' WHERE k = {k1}")
    s.execute(f"UPDATE items SET v = 'y' WHERE k = {k2}")
    s.execute("COMMIT")
    trace = build_trace(citus.coordinator_ext.telemetry.trace_records()[-1])
    assert trace.name == "Commit"
    prepares = trace.find("2pc", "2pc.prepare")
    commits = trace.find("2pc", "2pc.commit_prepared")
    assert len(prepares) == 2 and len(commits) == 2
    assert {sp.node for sp in prepares} == {"worker1", "worker2"}
    assert trace.find("2pc", "2pc.commit_records")
    for sp in prepares:
        assert sp.attrs["gid"].startswith("citus_")
        assert sp.duration > 0
    # The exported trace keeps the phases nested under the statement.
    export = json.loads(
        s.execute("SELECT citus_trace_export()").scalar()
    )
    names = [e["name"] for e in export["traceEvents"]]
    assert "2pc.prepare" in names and "2pc.commit_prepared" in names


def test_chrome_export_has_one_lane_per_node(citus):
    s = _setup_items(citus)
    s.execute("SELECT count(*) FROM items")
    export = citus.coordinator_ext.telemetry.export_chrome()
    events = export["traceEvents"]
    lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "coordinator" in lanes
    assert {"worker1", "worker2"} <= lanes
    slices = [e for e in events if e["ph"] == "X"]
    assert slices
    for e in slices:
        assert e["dur"] >= 0 and e["ts"] >= 0
    assert export["displayTimeUnit"] == "ms"


# ------------------------------------------------------- slow-query log


def test_slow_query_log_gated_by_log_min_duration(citus):
    s = _setup_items(citus)
    entries = s.execute("SELECT citus_slow_queries()").scalar()
    assert entries == []  # disabled by default (log_min_duration < 0)
    s.execute("SELECT citus_set_config('log_min_duration', 0)")
    s.execute("SELECT count(*) FROM items")
    entries = s.execute("SELECT citus_slow_queries()").scalar()
    assert any("count" in e[0] for e in entries)
    (entry,) = [e for e in entries if "count" in e[0]]
    assert entry[1] > 0  # duration_ms
    assert entry[2] == "pushdown"
    # Raising the threshold above every simulated latency mutes the log.
    s.execute("SELECT citus_set_config('log_min_duration', 60000)")
    before = len(s.execute("SELECT citus_slow_queries()").scalar())
    s.execute("SELECT count(*) FROM items")
    assert len(s.execute("SELECT citus_slow_queries()").scalar()) == before


def test_slow_query_log_is_bounded_and_counts_what_it_dropped():
    """The slow log is a bounded ring, like the trace ring beside it: it
    stops growing at capacity and the metrics snapshot says how many
    entries it evicted."""
    cc = make_cluster(workers=2, shard_count=8,
                      config=CitusConfig(log_min_duration=0.0))
    cc.coordinator_ext.telemetry.slow_log = Ring(8)
    s = _setup_items(cc)
    logged_by_setup = cc.coordinator_ext.telemetry.slow_log.dropped \
        + len(s.execute("SELECT citus_slow_queries()").scalar())
    for k in range(20):
        s.execute("SELECT v FROM items WHERE k = $1", [k])
    entries = s.execute("SELECT citus_slow_queries()").scalar()
    assert [e[3] for e in entries] == list(range(12, 20))  # the newest 8
    metrics = s.execute("SELECT citus_metrics_snapshot()").scalar().splitlines()
    # Everything logged (the 20 reads, the two surface reads before this
    # one) beyond the eight kept was counted as dropped.
    logged = logged_by_setup + 20 + 2
    assert f'citus_telemetry_ring_dropped_total{{ring="slow_log"}} {logged - 8}' \
        in metrics
    assert 'citus_telemetry_ring_capacity{ring="slow_log"} 8' in metrics
    assert 'citus_telemetry_ring_high_water{ring="slow_log"} 8' in metrics
