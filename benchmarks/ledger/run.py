#!/usr/bin/env python3
"""The ledger's command line.

One run of one workload (what the driver calls, and one *repeat* of a set)::

    python3 benchmarks/ledger/run.py --workload oltp_point --seed 7 \\
        --seconds 10 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exit status is non-zero when any correctness check failed.

Without ``--workload`` it runs a whole *set* — every workload, several
repeats each in a fresh subprocess, medians and quartiles — see
``sets.py`` and README.md::

    python3 benchmarks/ledger/run.py [--seed N] [--quick] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT]  # so the imports below work when run as a script

from benchmarks.ledger.host import canary_us, commit_id, host_speed  # noqa: E402

DEFAULT_SEED = 31415
DEFAULT_SECONDS = 10


def bootstrap() -> None:
    """Make ``repro`` importable: the program under test, built from this
    checkout's source."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"ledger: no program to measure at {src}/repro")
    sys.path[:0] = [src]


def run_once(args, import_s: float) -> int:
    from benchmarks.ledger import metrics, phases
    from benchmarks.ledger.workloads import WORKLOADS

    started = time.perf_counter()
    workload_cls = WORKLOADS[args.workload]
    ops = phases.op_count(workload_cls, args.seconds)
    if args.trace:
        # Three phases share the run's time budget.
        ops = max(1, ops // 2)
        record = phases.traced_run(workload_cls, args.seed, ops)
        declared = metrics.PER_LAYER
    else:
        record = phases.plain_run(workload_cls, args.seed, ops, import_s)
        declared = metrics.END_TO_END
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": record["metrics"][m.name], "unit": m.unit}
                    for m in declared},
    }
    if args.report:
        record.update(
            workload=args.workload, why=workload_cls.why, trace=args.trace,
            seed=args.seed, seconds=args.seconds, ops=ops, commit=commit_id(),
            python=platform.python_version(), nproc=os.cpu_count(),
            wall_seconds_total=time.perf_counter() - started)
        with open(args.report, "w") as f:
            json.dump(record, f, indent=1)
    for error in record["errors"]:
        print(f"FAILED CHECK: {error}", file=sys.stderr)
    for m in declared:
        print(f"{m.name:<42} {record['metrics'][m.name]:>16.6f} {m.unit}"
              f"  [{m.clock}]")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this workload once; without it,"
                        " run a whole set of repeats of every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="op counts are sized to measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--report", help="also write this run's full record here")
    parser.add_argument("--quick", action="store_true",
                        help="set only: op counts / 10, fewer repeats (self-test)")
    parser.add_argument("--out", help="set only: where to write the ledger")
    args = parser.parse_args(argv)

    bootstrap()
    before = canary_us()
    started = time.perf_counter()
    from benchmarks.ledger.workloads import WORKLOADS  # imports the program

    import_s = (time.perf_counter() - started) * host_speed(before, canary_us())
    if args.workload is None:
        from benchmarks.ledger.sets import run_set

        return run_set(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(WORKLOADS)}")
    return run_once(args, import_s)


if __name__ == "__main__":
    raise SystemExit(main())
