"""Streaming write data plane benchmark: pipelined INSERT..SELECT
repartitioning and COPY ingest.

Two write shapes through the real planner + executor code path:

- **repartition** — a large ``INSERT INTO dest SELECT …`` whose
  destination distribution key is fed by a non-distribution column, so
  every row moves through the coordinator's per-shard COPY channels;
- **copy_ingest** — gharchive-style event ingest (Fig. 7a): one large
  programmatic COPY of JSON event rows into a distributed table.

Each shape runs on a fresh cluster and reports wall throughput, simulated
(virtual-clock) statement time, and the coordinator's write-side buffering
high-water mark, which must stay ≤ flush_threshold × shards however many
rows flow through. (The materialized write plane these shapes were once
compared against is gone; its last numbers — among them the simulated
max(read, write) vs read + write overlap win on repartition — are the
final ``trajectory`` entry of BENCH_insert_select.json.)

Usage::

    PYTHONPATH=src python benchmarks/bench_insert_select.py [--quick]
        [--out results.json] [--baseline baseline.json]

``--baseline`` enforces the CI gate: bounded channel peak on both shapes
and a >30% throughput regression floor against the checked-in baseline
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402
from repro.workloads import gharchive  # noqa: E402

#: Fraction of baseline rows/sec below which --baseline fails.
REGRESSION_FLOOR = 0.70

ROWS = 50_000  # acceptance floor: ≥ 50k-row repartition INSERT..SELECT
QUICK_ROWS = 12_000
SHARDS = 8

REPARTITION_SQL = "INSERT INTO dest (id, val) SELECT v, k FROM src"


def _cluster():
    return make_cluster(workers=2, shard_count=SHARDS, max_connections=2000)


def _events(n: int) -> list:
    rows = []
    for i in range(n):
        event_id = hashlib.md5(f"bench-{i}".encode()).hexdigest()
        rows.append([event_id, {
            "type": "PushEvent",
            "created_at": f"2020-01-{i % 7 + 1:02d}T12:00:00",
            "repo": f"org/repo-{i % 97}",
            "payload": {"commits": [{"sha": event_id[:10], "message": "m"}]},
        }])
    return rows


def _measure(cluster, fn) -> dict:
    """Wall + virtual-clock elapsed for one write statement, plus the
    executor's write-side channel report."""
    ext = cluster.coordinator_ext
    clock = ext.cluster.clock
    wall0, sim0 = time.perf_counter(), clock.now()
    rows = fn()
    wall = time.perf_counter() - wall0
    sim = clock.now() - sim0
    report = ext.executor.last_report
    return {
        "rows": rows,
        "wall_seconds": round(wall, 3),
        "rows_per_sec": round(rows / wall, 1),
        "sim_seconds": round(sim, 6),
        "copy_flushes": report.copy_flushes,
        "copy_channel_peak_rows": report.copy_channel_peak_rows,
        "copy_bytes_streamed": report.copy_bytes_streamed,
    }


def _run_repartition(rows: int) -> dict:
    cluster = _cluster()
    s = cluster.coordinator_session()
    s.execute("CREATE TABLE src (k int PRIMARY KEY, v int, label text)")
    s.execute("SELECT create_distributed_table('src', 'k')")
    s.execute("CREATE TABLE dest (id int, val int)")
    s.execute("SELECT create_distributed_table('dest', 'id')")
    s.copy_rows("src", ([k, k, f"label-{k}"] for k in range(1, rows + 1)),
                ["k", "v", "label"])

    def go():
        s.execute(REPARTITION_SQL)
        return rows

    out = _measure(cluster, go)
    assert s.execute("SELECT count(*) FROM dest").scalar() == rows
    return out


def _run_copy_ingest(rows: int) -> dict:
    cluster = _cluster()
    s = cluster.coordinator_session()
    gharchive.create_schema(s, distributed=True, with_index=False,
                            with_rollup=False)
    events = _events(rows)

    def go():
        return s.copy_rows("github_events", events, ["event_id", "data"])

    out = _measure(cluster, go)
    assert s.execute("SELECT count(*) FROM github_events").scalar() == rows
    return out


SHAPES = {
    "repartition": _run_repartition,
    "copy_ingest": _run_copy_ingest,
}


def run(quick: bool = False) -> dict:
    rows = QUICK_ROWS if quick else ROWS
    flush_threshold = _cluster().coordinator_ext.config.copy_flush_threshold
    results: dict = {}
    for name, shape in SHAPES.items():
        shape(1_000)  # warm the process before timing
        results[name] = shape(rows)
    return {
        "config": {"workers": 2, "shard_count": SHARDS, "rows": rows,
                   "flush_threshold": flush_threshold, "quick": quick},
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced row count (CI smoke)")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument("--baseline",
                        help="baseline JSON; fail on >30%% throughput "
                             "regression or an unbounded channel peak")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    for name, r in report["results"].items():
        print(f"{name:>12}: {r['rows_per_sec']:>9.1f} rows/sec"
              f"  (sim {r['sim_seconds'] * 1e3:.1f} ms,"
              f" peak {r['copy_channel_peak_rows']} of {r['rows']} rows buffered)")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.out}")

    if args.baseline:
        failed = False
        with open(args.baseline) as f:
            baseline = json.load(f)
        ceiling = report["config"]["flush_threshold"] * SHARDS
        for name, r in report["results"].items():
            peak = r["copy_channel_peak_rows"]
            print(f"{name} channel peak: {peak} (ceiling {ceiling})")
            if not 0 < peak <= ceiling:
                print(f"FAIL: {name} channel peak exceeded"
                      " flush_threshold x shard_count")
                failed = True
            base = baseline["results"][name]["rows_per_sec"]
            now = r["rows_per_sec"]
            floor = base * REGRESSION_FLOOR
            print(f"{name}: {now:.1f} vs baseline {base:.1f}"
                  f" rows/sec (floor {floor:.1f})")
            if now < floor:
                print(f"FAIL: {name} throughput regressed >30%")
                failed = True
        if failed:
            return 1
        print("OK: channel peaks bounded, within regression budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
