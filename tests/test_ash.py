"""Active Session History: deterministic sampling, report modes,
flamegraph reconciliation, GUC toggles, reset scope, and the harness's
ASH-driven SLO diagnostics."""

from __future__ import annotations

import json

import pytest

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.errors import MetadataError
from repro.workloads.traffic import (
    LatencyRule,
    TrafficConfig,
    TrafficHarness,
)


def _set(session, name, value):
    session.execute("SELECT citus_set_config(:n, :v)", {"n": name, "v": value})


def _samples(session, *args):
    sql = "SELECT citus_ash(" + ", ".join(
        f":a{i}" for i in range(len(args))) + ")" if args else \
        "SELECT citus_ash()"
    return session.execute(sql, {f"a{i}": v for i, v in enumerate(args)}).scalar()


# --------------------------------------------------------- sampler core


class TestSamplingLoop:
    def test_samples_every_crossed_boundary(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 0.5)
        clock = citus.cluster.clock
        clock.advance(1.2)  # crosses 0.5 and 1.0
        times = sorted({row[0] for row in _samples(s)})
        assert times == [0.5, 1.0]

    def test_time_zero_is_never_sampled(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 0.5)
        citus.cluster.clock.advance(0.4)  # no boundary crossed
        assert _samples(s) == []

    def test_landing_exactly_on_boundary_samples_once(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        clock = citus.cluster.clock
        clock.advance_to(2.0)  # samples t=1.0 and t=2.0
        clock.advance(1.0)  # samples t=3.0 only — no resample of 2.0
        times = [row[0] for row in _samples(s)]
        per_tick = times.count(1.0)
        assert times.count(2.0) == per_tick
        assert times.count(3.0) == per_tick

    def test_every_alive_node_session_is_sampled(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        citus.cluster.clock.advance(1.0)
        rows = _samples(s)
        # The probe session itself must be among the sampled sessions.
        assert any(row[2] == "coordinator" for row in rows)
        # Every sample carries a cluster-unique global PID and a state.
        assert all(isinstance(row[1], int) and row[3] for row in rows)

    def test_live_wait_stack_is_captured_in_full(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 0.5)
        stack = s.wait_events
        outer = stack.begin("Client", "PoolLease")
        inner = stack.begin("Lock", "tuple")
        citus.cluster.clock.advance(0.6)
        stack.finish(inner)
        stack.finish(outer)
        mine = [row for row in _samples(s)
                if row[6] == "Client.PoolLease>Lock.tuple"]
        assert mine, "nested stack not captured bottom-to-top"
        # The reported wait is the top frame; the stack column keeps all.
        assert mine[0][4] == "Lock" and mine[0][5] == "tuple"

    def test_ring_is_bounded_and_keeps_newest(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        _set(s, "ash_buffer_size", 5)
        for _ in range(20):
            citus.cluster.clock.advance(1.0)
        rows = _samples(s)
        assert len(rows) == 5
        assert rows[-1][0] == 20.0  # newest retained

    def test_range_filter_is_inclusive(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        for _ in range(5):
            citus.cluster.clock.advance(1.0)
        windowed = {row[0] for row in _samples(s, "samples", 2.0, 4.0)}
        assert windowed == {2.0, 3.0, 4.0}


# ------------------------------------------------------------ gating


class TestGating:
    def test_disable_detaches_observer_and_udf_goes_quiet(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "enable_ash", False)
        for node in citus.cluster.nodes.values():
            assert not node.extensions["citus"].telemetry.ash.enabled
        assert citus.cluster.clock._observers == []
        citus.cluster.clock.advance(5.0)
        assert _samples(s) == []
        assert _samples(s, "flamegraph") == ""

    def test_reenable_resumes_with_history_intact(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        citus.cluster.clock.advance(1.0)
        before = len(_samples(s))
        assert before > 0
        _set(s, "enable_ash", False)
        citus.cluster.clock.advance(10.0)  # unsampled gap
        _set(s, "enable_ash", True)
        citus.cluster.clock.advance(1.0)  # samples t=12.0
        rows = _samples(s)
        assert len(rows) > before  # old history survived the off period
        assert {row[0] for row in rows} == {1.0, 12.0}

    def test_detached_at_create_never_builds_a_sampler(self):
        citus = make_cluster(workers=2, shard_count=8,
                             config=CitusConfig(enable_ash=False))
        sampler = citus.coordinator_ext.telemetry.ash
        assert not sampler.enabled
        assert citus.cluster.clock._observers == []
        citus.cluster.clock.advance(5.0)
        assert len(sampler.ring) == 0

    def test_reset_scope_clears_ring_only(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        citus.cluster.clock.advance(3.0)
        assert _samples(s)
        s.execute("SELECT citus_stat_reset('ash')")
        assert _samples(s) == []
        # The lifetime sampling counters belong to the 'counters' scope.
        counters = {r[0]: r[2]
                    for r in s.execute("SELECT citus_stat_counters()").scalar()
                    if r[1] is None}
        assert counters.get("ash_sample_ticks", 0) > 0

    def test_reset_all_clears_the_ring_too(self, citus):
        s = citus.coordinator_session("probe")
        _set(s, "ash_sampling_interval", 1.0)
        citus.cluster.clock.advance(3.0)
        s.execute("SELECT citus_stat_reset('all')")
        assert _samples(s) == []

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
            _samples(s, "bogus")


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
    # A sub-second sampling interval so the 10s smoke run lands thousands
    # of samples, including mid-statement ones.
    return make_cluster(workers=2, shard_count=8, max_connections=2000,
                        config=CitusConfig(ash_sampling_interval=0.05))


@pytest.fixture(scope="module")
def ash_run():
    """One shared 100-session traffic run with ASH sampling at 50ms."""
    citus = _traffic_cluster()
    harness = TrafficHarness(citus, smoke_config())
    harness.run()
    return citus, harness


class TestTrafficRun:
    def test_flamegraph_counts_sum_to_ring_total(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        ring = _samples(s)
        flamegraph = _samples(s, "flamegraph")
        assert ring and flamegraph
        total = 0
        for line in flamegraph.splitlines():
            stack, _, count = line.rpartition(" ")
            frames = stack.split(";")
            # Every line: node first, then at least one (class, event)
            # pair, i.e. an odd frame count unless a fingerprint rides at
            # the end.
            assert frames[0] in ("coordinator", "worker1", "worker2")
            assert len(frames) >= 3
            assert int(count) > 0
            total += int(count)
        assert total == len(ring)

    def test_raw_sample_times_are_monotonic(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        times = [row[0] for row in _samples(s)]
        assert times == sorted(times)

    def test_top_waits_percentages_cover_the_ring(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _samples(s, "top_waits")
        assert rows
        assert sum(r[2] for r in rows) == len(_samples(s))
        assert abs(sum(r[3] for r in rows) - 100.0) < 1.0
        # Busiest first.
        assert [r[2] for r in rows] == sorted(
            (r[2] for r in rows), reverse=True)

    def test_top_queries_report_fingerprints_with_waits(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _samples(s, "top_queries")
        assert rows
        for fp, samples, pct, top_wait in rows:
            assert fp and samples > 0 and 0 < pct <= 100.0
            assert "." in top_wait

    def test_top_tenants_see_the_zipf_skew(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _samples(s, "top_tenants")
        assert rows
        assert rows[0][1] == max(r[1] for r in rows)

    def test_timeline_buckets_reconcile(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        rows = _samples(s, "timeline")
        assert rows
        assert sum(r[3] for r in rows) == len(_samples(s))
        for _b, start, end, samples, active, idle, wait_json in rows:
            assert end > start
            assert active + idle == samples
            json.loads(wait_json)  # valid sorted-key JSON

    def test_metrics_snapshot_exports_ash_families(self, ash_run):
        citus, _ = ash_run
        s = citus.coordinator_session("report")
        text = s.execute("SELECT citus_metrics_snapshot()").scalar()
        assert "citus_ash_ring_samples " in text
        assert "citus_ash_ring_capacity " in text
        assert 'citus_ash_node_samples{node="worker1"}' in text
        assert "citus_ash_samples_total" in text
        # The ring gauge agrees with the UDF.
        ring_line = next(line for line in text.splitlines()
                         if line.startswith("citus_ash_ring_samples "))
        assert int(ring_line.split()[1]) == len(_samples(s))

    def test_same_seed_runs_produce_identical_ash_dumps(self):
        dumps = []
        for _ in range(2):
            citus = _traffic_cluster()
            TrafficHarness(citus, smoke_config()).run()
            s = citus.coordinator_session("dump")
            dumps.append((
                _samples(s, "flamegraph"),
                json.dumps(_samples(s), sort_keys=True),
            ))
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
        assert ash["samples"] > 0
        assert ash["window"] == [harness._sim_start, harness._sim_end]
        assert 0 < len(ash["top_waits"]) <= 5
        assert 0 < len(ash["top_queries"]) <= 5
        assert ash["headline"] is None or "% of ASH samples in" in ash["headline"]

    def test_passing_slo_report_omits_ash_section(self, ash_run):
        _, harness = ash_run
        report = harness.report()
        assert report["slo"]["passed"]
        assert "ash" not in report
