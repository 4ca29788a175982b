"""Active Session History: a fold over closed statement records. Each
statement's waits, the report modes over a time range, their
reconciliation with each other and with the wait counters, GUC toggles,
the reset scope, and the harness's ASH-driven SLO diagnostics."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.citus.record import Ring
from repro.engine.waitevents import split_wait_counter
from repro.errors import MetadataError
from repro.workloads.traffic import (
    LatencyRule,
    TrafficConfig,
    TrafficHarness,
)


def _set(session, name, value):
    session.execute("SELECT citus_set_config(:n, :v)", {"n": name, "v": value})


def _ash(session, *args):
    sql = "SELECT citus_ash(" + ", ".join(
        f":a{i}" for i in range(len(args))) + ")" if args else \
        "SELECT citus_ash()"
    return session.execute(sql, {f"a{i}": v for i, v in enumerate(args)}).scalar()


def _accounts(citus):
    s = citus.coordinator_session("probe")
    s.execute("CREATE TABLE accounts (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('accounts', 'k')")
    s.execute("INSERT INTO accounts (k, v) VALUES (3, 3)")
    return s


def _waits(row) -> set:
    """A statement row's waits as (class, event) pairs."""
    return {(wclass, event) for wclass, event, _node, _us in row[8]}


# ------------------------------------------------------ statement rows


class TestStatementRows:
    def test_a_statements_reconstructed_waits_are_on_its_row(self, citus):
        s = _accounts(citus)
        s.execute("UPDATE accounts SET v = 4 WHERE k = 3")
        row = _ash(s)[-1]
        start, end, gpid, node, fp, tier, tenant, wait_us, waits = row
        assert node == "coordinator" and gpid % 10_000_000_000 == s.backend_pid
        assert tier == "fast_path" and tenant == 3 and fp
        assert start <= end
        assert _waits(row) == {("Net", "RemoteExecute"), ("IO", "WALFlush")}
        assert wait_us == sum(us for *_key, us in waits) > 0
        # The round trip and the flush were on the worker holding the key.
        assert len({n for _c, _e, n, _us in waits}) == 1
        assert waits[0][2].startswith("worker")
        # In a block, the commit is the COMMIT statement's wait.
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = 5 WHERE k = 3")
        s.execute("COMMIT")
        assert ("TwoPC", "Commit1PC") in _waits(_ash(s)[-1])

    def test_waits_are_noted_without_the_wait_counters(self):
        """ASH notes waits itself: with ``enable_introspection`` off (no
        wait counters) a statement's row still carries them."""
        citus = make_cluster(workers=2, shard_count=8,
                             config=CitusConfig(enable_introspection=False))
        s = _accounts(citus)
        s.execute("UPDATE accounts SET v = 4 WHERE k = 3")
        assert _waits(_ash(s)[-1]) == {("Net", "RemoteExecute"),
                                       ("IO", "WALFlush")}

    def test_live_wait_stack_is_captured_in_full(self, citus):
        """A statement that parks on a lock is one row spanning its wait,
        carrying the coordinator's wait on the worker and the worker's
        wait on the lock beneath it."""
        a = _accounts(citus)
        b = citus.coordinator_session("b")
        a.execute("BEGIN")
        a.execute("UPDATE accounts SET v = 100 WHERE k = 3")
        parked = b.execute_async("UPDATE accounts SET v = 200 WHERE k = 3")
        citus.pump()
        citus.cluster.clock.advance(0.25)
        a.execute("COMMIT")
        citus.pump()
        assert parked.get().rowcount == 1
        (row,) = [r for r in _ash(a) if r[2] % 10_000_000_000 == b.backend_pid]
        waits = {(c, e): (n, us) for c, e, n, us in row[8]}
        # 250 ms, less the µs fraction a whole-µs row carries forward.
        assert waits[("IPC", "RemoteStatement")][0] == "coordinator"
        assert waits[("IPC", "RemoteStatement")][1] >= 249_999
        assert waits[("Lock", "tuple")][0].startswith("worker")
        assert waits[("Lock", "tuple")][1] >= 249_999
        assert row[1] - row[0] >= 0.25 - 1e-9

    def test_ring_is_bounded_and_keeps_newest(self, citus):
        s = _accounts(citus)
        citus.coordinator_ext.telemetry.ash.ring = Ring(5)
        started = []
        for v in range(20):
            started.append(citus.cluster.clock.advance(1.0))
            s.execute("UPDATE accounts SET v = :v WHERE k = 3", {"v": v})
        assert [row[0] for row in _ash(s)] == started[-5:]  # newest retained
        assert citus.coordinator_ext.telemetry.ash.ring.dropped > 0

    def test_range_filter_is_inclusive(self, citus):
        """A statement is in ``[start, end]`` when it overlaps it."""
        s = _accounts(citus)
        clock = citus.cluster.clock
        started = []
        for _ in range(5):
            clock.advance_to(int(clock.now()) + 1.0)
            started.append(clock.now())
            s.execute("SELECT v FROM accounts WHERE k = 3")
        windowed = {row[0] for row in _ash(s, "statements", started[1],
                                           started[3])}
        assert windowed == set(started[1:4])


# ------------------------------------------------------------ gating


class TestGating:
    def test_disable_makes_the_udf_go_quiet(self, citus):
        s = _accounts(citus)
        _set(s, "enable_ash", False)
        for node in citus.cluster.nodes.values():
            assert not node.extensions["citus"].telemetry.history
        held = len(citus.coordinator_ext.telemetry.ash.ring)
        s.execute("UPDATE accounts SET v = 5 WHERE k = 3")
        assert _ash(s) == []
        assert _ash(s, "flamegraph") == ""
        assert len(citus.coordinator_ext.telemetry.ash.ring) == held

    def test_reenable_resumes_with_history_intact(self, citus):
        s = _accounts(citus)
        before = _ash(s)
        assert before
        _set(s, "enable_ash", False)
        citus.cluster.clock.advance(10.0)
        s.execute("UPDATE accounts SET v = 5 WHERE k = 3")  # not recorded
        _set(s, "enable_ash", True)
        s.execute("UPDATE accounts SET v = 6 WHERE k = 3")
        rows = _ash(s)
        assert rows[:len(before)] == before  # old history survived
        (update,) = [row for row in rows[len(before):] if row[5] == "fast_path"]
        assert update[0] > 10.0

    def test_off_at_create_records_nothing(self):
        citus = make_cluster(workers=2, shard_count=8,
                             config=CitusConfig(enable_ash=False))
        s = _accounts(citus)
        s.execute("UPDATE accounts SET v = 5 WHERE k = 3")
        assert len(citus.coordinator_ext.telemetry.ash.ring) == 0
        assert _ash(s) == []

    def test_reset_scope_clears_ring_only(self, citus):
        s = _accounts(citus)
        assert _ash(s)
        s.execute("SELECT citus_stat_reset('ash')")
        # Only the reset itself, which closed after it.
        assert len(_ash(s)) == 1
        # The wait counters belong to the 'counters' scope.
        counters = {r[0] for r in s.execute("SELECT citus_stat_counters()").scalar()}
        assert "wait_time_us:Net.RemoteExecute" in counters

    def test_reset_all_clears_the_ring_too(self, citus):
        s = _accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        assert len(_ash(s)) == 1

    def test_unknown_scope_message_and_docstring_list_ash(self, citus):
        s = citus.coordinator_session("probe")
        with pytest.raises(MetadataError, match="ash"):
            s.execute("SELECT citus_stat_reset('bogus')")
        doc = citus.coordinator_ext.instance.catalog.get_function(
            "citus_stat_reset").fn.__doc__
        assert "'ash'" in doc

    def test_unknown_report_mode_is_rejected(self, citus):
        s = citus.coordinator_session("probe")
        with pytest.raises(MetadataError, match="flamegraph"):
            _ash(s, "bogus")


# ------------------------------------------------ traffic-run acceptance


def smoke_config(**overrides) -> TrafficConfig:
    base = dict(
        sessions=100,
        tenants=40,
        sim_duration=10.0,
        think_mean=1.0,
        ramp_seconds=2.0,
        seed=777,
    )
    base.update(overrides)
    return TrafficConfig(**base)


def _traffic_cluster():
    """A cluster whose ASH ring holds a whole smoke run, every surface
    reset before it."""
    citus = make_cluster(workers=2, shard_count=8, max_connections=2000)
    citus.coordinator_ext.telemetry.ash.ring = Ring(8192)
    citus.coordinator_session("reset").execute("SELECT citus_stat_reset()")
    return citus


@pytest.fixture(scope="module")
def ash_run():
    """One shared 100-session traffic run."""
    citus = _traffic_cluster()
    harness = TrafficHarness(citus, smoke_config())
    harness.run()
    return citus, harness


def _total_us(session, *args) -> int:
    return sum(row[7] for row in _ash(session, "statements", *args))


#: Wait classes the counters see that no statement record does, and why.
#: A pgbouncer lease is taken before the pooled statement is dispatched,
#: so before its record opens (in this run every lease is immediate: 0 µs).
ACCRUED_OUTSIDE_A_RECORD = {("Client", "PoolLease")}


class TestTrafficRun:
    def test_waits_are_the_wait_counters(self, ash_run):
        """Over the whole run, ASH's wait time per (class, event) is the
        ``wait_time_us:`` counter's, to within the counters' rounding: a
        flush truncates to whole µs, so each accounted wait can lose
        under one."""
        citus, _ = ash_run
        assert citus.coordinator_ext.telemetry.ash.ring.dropped == 0
        s = citus.coordinator_session("report")
        ash = {(c, e): us for c, e, us, _pct, _node in _ash(s, "top_waits")}
        assert {("Net", "RemoteExecute"), ("IO", "WALFlush"),
                ("TwoPC", "Commit1PC")} <= set(ash)
        counted, micros = Counter(), Counter()
        for name, _node, value in s.execute(
                "SELECT citus_stat_counters()").scalar():
            wait = split_wait_counter(name)
            if wait is not None and "@" not in name:
                (micros if wait[0] else counted)[wait[1:]] += value
        for key in set(micros) | set(ash):
            if key in ACCRUED_OUTSIDE_A_RECORD:
                assert key not in ash
                continue
            assert abs(ash.get(key, 0) - micros[key]) <= counted[key], key

    def test_flamegraph_counts_sum_to_ring_total(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        flamegraph = _ash(s, "flamegraph")
        assert flamegraph
        total = 0
        for line in flamegraph.splitlines():
            stack, _, us = line.rpartition(" ")
            frames = stack.split(";")
            # The node the wait was on, its class and event, then the
            # statement's fingerprint.
            assert frames[0] in ("coordinator", "worker1", "worker2")
            assert len(frames) == 4
            assert int(us) > 0
            total += int(us)
        assert total == _total_us(s) > 0

    def test_top_waits_percentages_cover_the_ring(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _ash(s, "top_waits")
        assert rows
        assert sum(r[2] for r in rows) == _total_us(s)
        assert abs(sum(r[3] for r in rows) - 100.0) < 1.0
        # Busiest first.
        assert [r[2] for r in rows] == sorted(
            (r[2] for r in rows), reverse=True)

    def test_top_queries_report_fingerprints_with_waits(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _ash(s, "top_queries")
        assert rows
        for fp, wait_us, pct, top_wait in rows:
            assert fp and wait_us > 0 and 0 < pct <= 100.0
            assert "." in top_wait

    def test_top_tenants_see_the_zipf_skew(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _ash(s, "top_tenants")
        assert rows
        assert rows[0][1] == max(r[1] for r in rows)

    def test_timeline_buckets_reconcile(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _ash(s, "timeline")
        assert rows
        # Read in process: every UDF call is a statement the next one sees.
        ash = citus.coordinator_ext.telemetry.session_history()
        assert sum(r[3] for r in rows) == len(ash.rows()) - 1
        assert sum(r[4] for r in rows) == _total_us(s)
        for _b, start, end, _statements, wait_us, classes in rows:
            assert end > start
            assert sum(json.loads(classes).values()) == wait_us

    def test_same_seed_runs_produce_identical_ash_dumps(self):
        dumps = []
        for _ in range(2):
            citus = _traffic_cluster()
            TrafficHarness(citus, smoke_config()).run()
            s = citus.coordinator_session("dump")
            dumps.append(json.dumps(
                {mode: _ash(s, mode) for mode in (
                    "statements", "top_waits", "top_queries", "top_tenants",
                    "timeline", "flamegraph")}, sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_slo_failure_embeds_ash_diagnostics(self):
        citus = _traffic_cluster()
        harness = TrafficHarness(citus, smoke_config())
        harness.run()
        impossible = [LatencyRule("everything instant", percentile=95,
                                  max_ms=1e-9)]
        report = harness.report(impossible)
        assert not report["slo"]["passed"]
        assert report["slo"]["failed_rules"] == ["everything instant"]
        ash = report["ash"]
        assert ash["statements"] > 0 and ash["wait_us"] > 0
        assert ash["window"] == [harness._sim_start, harness._sim_end]
        assert 0 < len(ash["top_waits"]) <= 5
        assert 0 < len(ash["top_queries"]) <= 5
        top = ash["top_waits"][0]
        assert ash["headline"] == (
            f"{top['pct']}% of wait time in {top['wait_event_type']}."
            f"{top['wait_event']} on node {top['top_node']}")
        assert (top["wait_event_type"], top["wait_event"]) == \
            ("Net", "RemoteExecute")

    def test_passing_slo_report_omits_ash_section(self, ash_run):
        _, harness = ash_run
        report = harness.report()
        assert report["slo"]["passed"]
        assert "ash" not in report
