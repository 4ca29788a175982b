"""Closed-loop multi-tenant traffic SLO gate.

Drives ≥ 2,000 concurrent simulated sessions — Zipf tenant skew,
exponential think times, connection churn through the per-node pgbouncer
pools, a YCSB/TPC-C/gharchive workload mix — over the virtual clock of a
4+1 cluster with every worker acting as coordinator, then gates CI on:

1. **Tail-latency SLOs** read from ``citus_stat_statements`` (p99 router
   reads/writes, p95 across all fingerprints, in simulated ms) plus pool
   health (zero client rejections) and a bounded 2PC rate — not
   throughput alone.
2. **Reproducibility**: the whole run repeats from the same seed on a
   fresh cluster and the two SLO reports must serialize byte-for-byte
   identically. Every reported number is virtual-time-derived, so any
   difference means nondeterminism crept into the engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_traffic.py [--quick]
        [--out benchmarks/results/bench_traffic_slo.json]

A full run rewrites the checked-in ``benchmarks/results/bench_traffic.txt``
and, with that ``--out``, ``bench_traffic_slo.json``; a ``--quick`` run
(CI's, with ``--out benchmarks/results/bench_traffic_quick.json``, which
git ignores) only prints its summary.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402
from repro.workloads.traffic import (  # noqa: E402
    CounterRule,
    RatioRule,
    TrafficConfig,
    default_slo_spec,
    run_traffic,
)

from common import RESULTS_DIR, finish, gate_parser, write_report  # noqa: E402

SESSIONS = 2000  # acceptance floor: ≥ 2,000 concurrent simulated sessions
SHARD_COUNT = 16


def slo_spec(flush_threshold: int):
    """The stock SLOs plus the streaming-write guard on the gharchive
    ingest: coordinator COPY buffering must stay bounded by the per-shard
    channel budget (flush_threshold × shards), so a future PR can't
    silently re-materialize the write path."""
    return default_slo_spec() + [
        CounterRule(
            "gharchive copy channels bounded", "copy_channel_peak_rows",
            flush_threshold * SHARD_COUNT,
        ),
        # End-to-end validation of the TPC-C mix's ~7% cross-warehouse
        # payment target, observed through the transaction co-access
        # graph: payments are the mix's only explicit BEGIN..COMMIT
        # blocks, so the block-transaction counters isolate them. The
        # configured 0.07 loses the ~1/16 of cross-warehouse draws whose
        # two warehouses hash to the same shard group, so the expected
        # multi-group fraction is ≈ 0.065; bound it to [0.03, 0.12].
        RatioRule(
            "tpcc cross-warehouse txn fraction",
            "txngraph_txns_block_multi_group",
            ("txngraph_txns_block",),
            max_ratio=0.12, min_ratio=0.03,
        ),
    ]


def traffic_config(quick: bool) -> TrafficConfig:
    return TrafficConfig(
        sessions=SESSIONS,
        tenants=400,
        zipf_s=1.1,
        seed=31415,
        sim_duration=120.0,
        # The wall-time knob: virtual time is free, transactions are not.
        max_transactions=10_000 if quick else 30_000,
        think="exponential",
        think_mean=2.0,
        ramp_seconds=10.0,
        session_lifetime=(4, 12),
        pool_size=32,
        max_client_conn=4000,
    )


def one_run(config: TrafficConfig) -> dict:
    citus = make_cluster(workers=4, shard_count=SHARD_COUNT, max_connections=4000)
    threshold = citus.coordinator_ext.config.copy_flush_threshold
    report = run_traffic(citus, config, slo_spec(threshold))
    # Graph and ASH dumps ride inside the report, so the byte-for-byte
    # determinism gate also covers the co-access graph's vertices and the
    # Active Session History ring (same seed → identical citus_ash()
    # output). The flamegraph carries every statement's waits in
    # aggregated form; the row count pins the ring size too.
    session = citus.coordinator_session("traffic_graph_dump")
    try:
        report["txn_graph"] = session.execute(
            "SELECT citus_stat_txn_graph()").scalar()
        report["ash_flamegraph"] = session.execute(
            "SELECT citus_ash('flamegraph')").scalar()
        report["ash_statements"] = len(
            session.execute("SELECT citus_ash()").scalar())
    finally:
        session.close()
    return report


def summarize(report: dict) -> str:
    lines = ["== Closed-loop traffic harness: SLO gate ==", ""]
    totals = report["transactions"]
    lines.append(f"sessions (peak concurrent clients): {report['peak_clients']}")
    lines.append(f"simulated seconds driven: {report['sim_seconds']}")
    lines.append(
        f"transactions: {totals['transactions']}"
        f" (aborted {totals['transactions_aborted']},"
        f" churned sessions {totals['sessions_churned']})"
    )
    lines.append(f"throughput: {report['transactions_per_sim_sec']:.1f} txn/sim-s")
    lines.append(f"per mix: {report['per_mix']}")
    lines.append(
        f"pool: {report['pool']['pool_sessions_opened']} server sessions,"
        f" {report['pool']['pool_session_reuses']} reuses,"
        f" {report['pool']['pool_client_rejections']} client rejections"
    )
    lines.append(f"2PC rate: {report['twopc']['rate']}")
    lines.append("")
    lines.append("SLO rules:")
    for rule in report["slo"]["rules"]:
        observed = rule.get("observed_ms", rule.get("observed",
                            rule.get("observed_ratio")))
        threshold = rule.get("threshold_ms", rule.get("threshold",
                             rule.get("threshold_ratio")))
        verdict = "PASS" if rule["passed"] else "FAIL"
        lines.append(f"  [{verdict}] {rule['rule']}: {observed} (≤ {threshold})")
    ash = report.get("ash")
    if ash is not None:
        lines.append("")
        lines.append(f"ASH diagnostics ({ash['statements']} statements,"
                     f" {ash['wait_us']} µs of waits in window):")
        if ash.get("headline"):
            lines.append(f"  {ash['headline']}")
        for wait in ash["top_waits"]:
            lines.append(
                f"  {wait['wait_event_type']}.{wait['wait_event']}:"
                f" {wait['wait_us']} µs ({wait['pct']}%),"
                f" mostly {wait['top_node']}"
            )
    return "\n".join(lines)


def run(quick: bool = False) -> dict:
    config = traffic_config(quick)
    reports, walls = [], []
    for label in ("first", "repeat"):
        t0 = time.perf_counter()
        reports.append(one_run(config))
        walls.append(time.perf_counter() - t0)
        print(f"{label} run: {walls[-1]:.1f}s wall for "
              f"{reports[-1]['transactions']['transactions']} transactions")
    report, repeat = reports

    deterministic = (json.dumps(report, sort_keys=True)
                     == json.dumps(repeat, sort_keys=True))
    gates = {
        "slo_passed": bool(report["slo"]["passed"]),
        "deterministic": deterministic,
        "sessions_concurrent": report["peak_clients"] >= SESSIONS,
    }
    return {
        "config": report["config"],
        "gates": gates,
        "passed": all(gates.values()),
        "report": report,
        # Wall timings are informational only and live OUTSIDE the
        # deterministic report that the byte-for-byte gate compares.
        "wall_seconds": {"first": round(walls[0], 1),
                         "second": round(walls[1], 1)},
    }


def main(argv=None) -> int:
    args = gate_parser(__doc__).parse_args(argv)
    result = run(quick=args.quick)
    text = summarize(result["report"])
    if args.quick:  # the checked-in report is a full run's
        print("\n" + text)
    else:
        write_report("bench_traffic", text)
    failed = [name for name, ok in result["gates"].items() if not ok]
    if failed:
        # The run's collapsed-stack ASH profile (µs of waits per
        # node;class;event;fingerprint) beside the report, for CI to
        # upload: what the cluster waited on, as flamegraph.pl or
        # speedscope render it.
        fg_path = os.path.join(RESULTS_DIR, "bench_traffic_flamegraph.txt")
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(fg_path, "w") as f:
            f.write(result["report"].get("ash_flamegraph", "") + "\n")
        print(f"wrote ASH flamegraph to {fg_path}")
    return finish(args, result, [f"traffic gate {name}" for name in failed])


if __name__ == "__main__":
    raise SystemExit(main())
