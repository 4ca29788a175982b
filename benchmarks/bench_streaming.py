"""Streaming data-plane benchmark: the pull-based tuple pipeline, through
the real planner + executor code path.

Three query shapes, chosen to exercise the three coordinator merge
strategies of the pipeline:

- **limit_scan** — ``SELECT … LIMIT k`` without ORDER BY: tasks are
  dispatched lazily, the merge stops at the first satisfied batch, and the
  remaining shards are skipped entirely (plus the worker-side lazy heap
  scan stops after k tuples);
- **order_by_limit** — ``SELECT … ORDER BY col LIMIT k``: k-way
  merge-append over per-shard sorted streams, draining one batch per
  stream;
- **full_scan_order** — un-limited ``ORDER BY`` over the whole table: the
  drain-everything case, plus the bounded-buffer guarantee.

(The materializing plane these shapes were once compared against is gone;
its last numbers are the final ``trajectory`` entry of BENCH_streaming.json.)

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--quick]
        [--out results.json] [--baseline baseline.json]

``--baseline`` compares limit_scan throughput against a checked-in
baseline JSON and exits non-zero on a >30% regression, and independently
fails if ``rows_buffered_peak`` for the order_by_limit shape exceeds the
batch_size × shard_count ceiling (clock-free, so gated on a single
measurement) — the CI smoke job.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402

#: Fraction of baseline limit_scan throughput below which --baseline fails.
REGRESSION_FLOOR = 0.70

ROWS = 10_000
SHARDS = 8


def _setup():
    cluster = make_cluster(workers=2, shard_count=SHARDS,
                           max_connections=2000)
    session = cluster.coordinator_session()
    session.execute(
        "CREATE TABLE events (k int PRIMARY KEY, v int, label text)"
    )
    session.execute("SELECT create_distributed_table('events', 'k')")
    rows = [[k, k % 500, f"label-{k}"] for k in range(1, ROWS + 1)]
    session.copy_rows("events", rows, ["k", "v", "label"])
    return cluster, session


QUERIES = {
    "limit_scan": "SELECT k, v FROM events LIMIT 10",
    "order_by_limit": "SELECT k, v FROM events ORDER BY v, k LIMIT 10",
    "full_scan_order": "SELECT k FROM events ORDER BY v",
}


def _bench(session, ext, sql: str, iterations: int) -> dict:
    """Timings of ``iterations`` executions of ``sql``. ``median_ms`` is
    the per-statement median, which a collector pause does not move."""
    session.execute(sql)  # warm-up: parse + plan cache
    durations = []
    for _ in range(iterations):
        start = time.perf_counter()
        session.execute(sql)
        durations.append(time.perf_counter() - start)
    report = ext.executor.last_report
    seconds = sum(durations)
    return {
        "statements": iterations, "seconds": seconds,
        "stmts_per_sec": iterations / seconds,
        "median_ms": statistics.median(durations) * 1e3,
        "rows_buffered_peak": report.rows_buffered_peak,
        "tasks_skipped": report.tasks_skipped,
    }


def run(quick: bool = False) -> dict:
    iters = {
        "limit_scan": 50 if quick else 200,
        "order_by_limit": 50 if quick else 200,
        "full_scan_order": 10 if quick else 40,
    }
    cluster, session = _setup()
    ext = cluster.coordinator_ext
    results = {name: _bench(session, ext, sql, iters[name])
               for name, sql in QUERIES.items()}
    return {
        "config": {"workers": 2, "shard_count": SHARDS, "rows": ROWS,
                   "batch_size": ext.config.stream_batch_size,
                   "quick": quick},
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument("--baseline",
                        help="baseline JSON; fail on >30%% limit_scan "
                             "regression or an unbounded merge buffer")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    for name, r in report["results"].items():
        print(f"{name:>16}: {r['stmts_per_sec']:>8.1f} stmts/sec"
              f"  (median {r['median_ms']:.2f} ms,"
              f" peak buffer {r['rows_buffered_peak']})")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.out}")

    if args.baseline:
        failed = False
        with open(args.baseline) as f:
            baseline = json.load(f)
        base = baseline["results"]["limit_scan"]["stmts_per_sec"]
        now = report["results"]["limit_scan"]["stmts_per_sec"]
        floor = base * REGRESSION_FLOOR
        print(f"limit_scan: {now:.1f} vs baseline {base:.1f}"
              f" (floor {floor:.1f})")
        if now < floor:
            print("FAIL: limit_scan throughput regressed >30%")
            failed = True
        ceiling = report["config"]["batch_size"] * SHARDS
        peak = report["results"]["order_by_limit"]["rows_buffered_peak"]
        print(f"order_by_limit peak buffer: {peak} (ceiling {ceiling})")
        if not 0 < peak <= ceiling:
            print("FAIL: coordinator merge buffer exceeded"
                  " batch_size x shard_count")
            failed = True
        if failed:
            return 1
        print("OK: within regression budget, buffer bounded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
