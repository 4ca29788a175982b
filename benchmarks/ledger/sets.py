"""A *set of runs*: every workload, several repeats, medians and quartiles.

One repeat is one ``run.py --workload`` subprocess (fresh interpreter,
fresh cluster). Repeats of the four workloads are interleaved round-robin
(w1, w2, w3, w4, w1, ...) so a slow minute on the host spreads over all of
them, and all use one seed, so every simulated-clock metric and program
counter must come out identical: a repeat that differs marks the workload
non-deterministic and fails the set.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from . import metrics
from .host import commit_id
from .phases import RESULTS_DIR, op_count
from .workloads import WORKLOADS

#: (untraced, traced) repeats per workload.
FULL_REPEATS = (5, 3)
QUICK_REPEATS = (2, 1)

PREDICTIONS = [
    "With nothing contending, a layer made x % faster saves at most x % of its"
    " self-time share of the blocking path: halving planner.* can move"
    " oltp_point wall_op_p50_us by about a tenth and nothing on analytics_scan.",
    "traffic_mix sim_ops_per_s is bound by think time and the ramp; it moves"
    " only if simulated latency approaches the 2 s think time.",
    "Simulated metrics move only when round trips, bytes or the cost model"
    " change; a host-only speed-up leaves every sim metric and count identical.",
]


def summarize(values: list) -> dict:
    """Median, quartiles and range of one metric's per-repeat values."""
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def run_repeat(workload: str, seed: int, seconds: float, trace: int,
               index: int) -> dict:
    """One repeat in a fresh interpreter; returns its full record."""
    report = os.path.join(RESULTS_DIR, f"repeat_{workload}_t{trace}_{index}.json")
    command = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--report", report]
    done = subprocess.run(command, capture_output=True, text=True)
    if not os.path.exists(report):
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}"
                           f" without a report:\n{done.stderr}")
    with open(report) as f:
        record = json.load(f)
    os.remove(report)
    return record


def fold(workload: str, plain: list, traced: list) -> dict:
    """One workload's entry in the ledger, from its repeats' records."""
    declared = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}

    def table(records, names):
        return {
            name: {**summarize([r["metrics"][name] for r in records]),
                   "unit": declared[name].unit, "better": declared[name].better,
                   "clock": declared[name].clock, "bound": declared[name].bound}
            for name in names
        }

    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "why": WORKLOADS[workload].why,
        "ops_per_repeat": plain[0]["ops"],
        "samples_per_repeat": plain[0]["samples"],
        "end_to_end": table(plain, [m.name for m in metrics.END_TO_END]),
        "per_layer": table(traced, [m.name for m in metrics.PER_LAYER]),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "errors": [e for r in records for e in r["errors"]][:10],
        "sim_digest": plain[0]["sim_digest"],
        # Traced repeats run half the ops, so they agree among themselves.
        "deterministic": (len({r["sim_digest"] for r in plain}) == 1
                          and len({r["sim_digest"] for r in traced}) == 1),
        "canary_us": [us for r in records for us in r["canary_us"]],
    }


def print_ledger(ledger: dict) -> None:
    for name, entry in ledger["workloads"].items():
        print(f"\n== {name}: {entry['ops_per_repeat']} ops/repeat,"
              f" failed {entry['failed']}/{entry['attempted']},"
              f" {'deterministic' if entry['deterministic'] else 'NON-DETERMINISTIC'}")
        for section in ("end_to_end", "per_layer"):
            for metric, row in entry[section].items():
                if section == "per_layer" and not any(row["values"]):
                    continue  # does not apply to this workload
                print(f"  {metric:<40} {row['median']:>16.4f} {row['unit']:<6}"
                      f" [{row['clock']:<5}] q1 {row['q1']:.4f} q3 {row['q3']:.4f}"
                      f" n={row['n']}")
        for error in entry["errors"]:
            print(f"  FAILED CHECK: {error}")


def run_set(args) -> int:
    started = time.perf_counter()
    seconds = args.seconds / 10 if args.quick else args.seconds
    plain_repeats, traced_repeats = QUICK_REPEATS if args.quick else FULL_REPEATS
    os.makedirs(RESULTS_DIR, exist_ok=True)

    plain = {name: [] for name in WORKLOADS}
    traced = {name: [] for name in WORKLOADS}
    for index in range(max(plain_repeats, traced_repeats)):
        for name in WORKLOADS:
            if index < plain_repeats:
                plain[name].append(run_repeat(name, args.seed, seconds, 0, index))
            if index < traced_repeats:
                traced[name].append(run_repeat(name, args.seed, seconds, 1, index))
            print(f"repeat {index + 1} of {name} done", file=sys.stderr)

    ledger = {
        "stamp": {
            "commit": commit_id(), "seed": args.seed, "seconds": seconds,
            "quick": args.quick, "repeats": [plain_repeats, traced_repeats],
            "ops": {name: op_count(cls, seconds) for name, cls in WORKLOADS.items()},
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "wall_seconds_total": time.perf_counter() - started,
        },
        "predictions": PREDICTIONS,
        "workloads": {name: fold(name, plain[name], traced[name])
                      for name in WORKLOADS},
    }
    print_ledger(ledger)
    out = args.out or os.path.join(RESULTS_DIR, "ledger.json")
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1)
    print(f"\nwrote {out}")

    bad = [name for name, entry in ledger["workloads"].items()
           if entry["failed"] or not entry["deterministic"]]
    if bad:
        print(f"FAIL: {', '.join(bad)} failed a check or did not repeat"
              " exactly in simulated time")
        return 1
    return 0
