"""Telemetry overhead gate: what each sensor costs on the hot path.

One protocol for every telemetry switch. Each row of :data:`GATES` asks
two questions of one GUC:

- **off** — is a switched-off sensor free? A cluster installed with only
  this GUC on, then switched off through ``citus_set_config`` exactly how
  an operator would, against the **detached** baseline: a cluster installed
  with all five ``citus.enable_*`` telemetry GUCs off (no statement record
  is allocated, no clock observer attached). What is left must be the cost
  of the guard checks alone.
- **on** — what does the sensor cost where it runs? The shipped
  configuration (all five on, **with**) against the same configuration
  **without** this one GUC.

Two loops: the fast-path CRUD pair (``bench_hotpath``'s workload) and the
router transaction (BEGIN / UPDATE / SELECT / COMMIT on one key). A gate is
judged by the median of per-round throughput ratios — the four modes timed
back-to-back per round in alternating order on rotating, independently
allocated clusters, GC parked — and a miss is re-measured once before it
fails (a noisy CI box cannot fail it on a scheduler hiccup). The Chrome
trace of a shipped-configuration cluster is always written, so a failing
CI run can upload it.

What all five cost together is the ledger's
``telemetry.wall_overhead_frac``.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--quick]
        [--out results.json] [--trace-out trace.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402
from repro.citus.extension import CitusConfig  # noqa: E402

TELEMETRY_GUCS = ("enable_tracing", "enable_introspection",
                  "enable_plan_alternatives", "enable_txn_graph", "enable_ash")

#: Virtual seconds between ASH samples — far below the 1 s default, so the
#: timed loop crosses a sampling boundary every few statements.
ASH_INTERVAL = 0.01

#: Independently allocated clusters per mode, rotated across rounds: a
#: cluster's memory layout alone moves its throughput by several percent
#: (with three per mode the same tree read 5 % to 17 % on one gate).
CLUSTERS_PER_MODE = 6

_DEFAULT_TRACE_OUT = os.path.join(
    os.path.dirname(__file__), "results", "bench_telemetry_trace.json")


def crud_loop(session, iterations: int) -> float:
    """The fast-path workload; returns statements/sec."""
    select_sql = "SELECT v FROM accounts WHERE key = :key"
    update_sql = "UPDATE accounts SET v = v + :d WHERE key = :key"
    start = time.perf_counter()
    for i in range(iterations):
        key = (i % 200) + 1
        session.execute(select_sql, {"key": key})
        session.execute(update_sql, {"d": 1, "key": key})
    return iterations * 2 / (time.perf_counter() - start)


def txn_loop(session, iterations: int) -> float:
    """The router-transaction workload; returns statements/sec."""
    update_sql = "UPDATE accounts SET v = v + :d WHERE key = :key"
    select_sql = "SELECT v FROM accounts WHERE key = :key"
    start = time.perf_counter()
    for i in range(iterations // 2):
        key = (i % 200) + 1
        session.execute("BEGIN")
        session.execute(update_sql, {"d": 1, "key": key})
        session.execute(select_sql, {"key": key})
        session.execute("COMMIT")
    return (iterations // 2) * 4 / (time.perf_counter() - start)


#: (GUC, loop, off budget, on budget): the most throughput the switched-off
#: sensor may cost against the detached baseline, and the switched-on one
#: in the shipped configuration.
GATES = (
    ("enable_tracing", crud_loop, 0.05, 0.22),
    ("enable_introspection", crud_loop, 0.05, 0.05),
    ("enable_txn_graph", txn_loop, 0.05, 0.10),
    ("enable_ash", txn_loop, 0.05, 0.10),
)

MODES = ("detached", "off", "without", "with")


def setup(guc: str, mode: str):
    """A loaded cluster with the telemetry GUCs ``mode`` asks for."""
    enabled = {"detached": (), "off": (guc,), "with": TELEMETRY_GUCS,
               "without": [g for g in TELEMETRY_GUCS if g != guc]}[mode]
    config = CitusConfig(ash_sampling_interval=ASH_INTERVAL,
                         **{name: name in enabled for name in TELEMETRY_GUCS})
    cluster = make_cluster(workers=2, shard_count=8, max_connections=2000,
                           config=config)
    session = cluster.coordinator_session()
    session.execute(
        "CREATE TABLE accounts (key int PRIMARY KEY, v int, filler text)")
    session.execute("SELECT create_distributed_table('accounts', 'key')")
    session.copy_rows(
        "accounts", [[k, 0, f"filler-{k}"] for k in range(1, 201)],
        ["key", "v", "filler"])
    if mode == "off":
        session.execute("SELECT citus_set_config(:guc, :v)",
                        {"guc": guc, "v": False})
        session.execute("SELECT citus_stat_reset()")  # what loading recorded
    return cluster, session


def measure_rounds(loop, sessions, iterations, trials, overheads, rates) -> None:
    """``trials`` interleaved rounds of ``loop`` over the four modes
    (rotating the cluster set, alternating the order, GC parked): appends
    each round's two overheads and each mode's rate."""
    gc_was_enabled = gc.isenabled()
    try:
        for trial in range(trials):
            rate = {}
            for mode in MODES if trial % 2 == 0 else MODES[::-1]:
                gc.collect()
                gc.disable()
                rate[mode] = loop(sessions[mode][trial % CLUSTERS_PER_MODE],
                                  iterations)
                if gc_was_enabled:
                    gc.enable()
            overheads["off"].append(1.0 - rate["off"] / rate["detached"])
            overheads["on"].append(1.0 - rate["with"] / rate["without"])
            for mode in MODES:
                rates[mode].append(rate[mode])
    finally:
        if gc_was_enabled:
            gc.enable()


def check_recorded(guc: str, on_session, off_session) -> None:
    """The shipped configuration really recorded through this sensor, and
    the cluster where it was switched off did not."""
    surface = {
        "enable_tracing": "citus_stat_statements()",
        "enable_introspection": "citus_stat_tenants()",
        "enable_txn_graph": "citus_stat_txn_graph('vertices')",
        "enable_ash": "citus_ash()",
    }[guc]
    if not on_session.execute(f"SELECT {surface}").scalar():
        raise AssertionError(f"{guc} on recorded nothing in {surface}")
    if off_session.execute(f"SELECT {surface}").scalar():
        raise AssertionError(f"{guc} off still recorded into {surface}")


def run(quick: bool = False) -> dict:
    # Many short rounds beat few long ones: the median of per-round ratios
    # is what shrinks with the round count.
    iterations = 200 if quick else 500
    trials = 24 if quick else 36
    gates = {}
    trace = None
    for guc, loop, off_budget, on_budget in GATES:
        # Fresh clusters per gate, the baseline's too: the loops grow the
        # tables' version chains, so a reused cluster would be a slower one.
        clusters = {mode: [setup(guc, mode) for _ in range(CLUSTERS_PER_MODE)]
                    for mode in MODES}
        sessions = {mode: [session for _cluster, session in clusters[mode]]
                    for mode in clusters}
        for mode_sessions in sessions.values():
            for session in mode_sessions:
                loop(session, max(iterations // 5, 20))
        overheads = {"off": [], "on": []}
        rates = {mode: [] for mode in sessions}
        budgets = {"off": off_budget, "on": on_budget}
        measure_rounds(loop, sessions, iterations, trials, overheads, rates)
        medians = {m: statistics.median(overheads[m]) for m in overheads}
        confirmed = any(medians[m] > budgets[m] for m in medians)
        if confirmed:
            print(f"{guc}: over budget at "
                  + ", ".join(f"{m}={medians[m] * 100:+.2f}%" for m in medians)
                  + "; running confirmation pass")
            measure_rounds(loop, sessions, iterations, trials, overheads, rates)
            medians = {m: statistics.median(overheads[m]) for m in overheads}
        check_recorded(guc, sessions["with"][0], sessions["off"][0])
        if guc == "enable_tracing":
            trace = clusters["with"][0][0].coordinator_ext.telemetry.export_chrome(50)
        gates[guc] = {
            "loop": loop.__name__,
            "stmts_per_sec": {mode: max(rates[mode]) for mode in rates},
            "overhead": medians,
            "round_overheads": overheads,
            "budgets": budgets,
            "confirmation_pass": confirmed,
        }
        print(f"{guc} ({loop.__name__}): "
              + ", ".join(f"{mode} {max(rates[mode]):.0f}/s" for mode in rates))
        print(f"  off vs detached: {medians['off'] * 100:+6.2f}%"
              f" (budget {off_budget * 100:.0f}%)")
        print(f"  with vs without: {medians['on'] * 100:+6.2f}%"
              f" (budget {on_budget * 100:.0f}%)")
    return {"config": {"iterations": iterations, "trials": trials,
                       "quick": quick},
            "gates": gates, "trace": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument("--trace-out", default=_DEFAULT_TRACE_OUT,
                        help="write the tracing-on Chrome trace here")
    args = parser.parse_args(argv)

    report = run(quick=args.quick)

    os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
    with open(args.trace_out, "w") as f:
        json.dump(report.pop("trace"), f, default=str)
    print(f"wrote {args.trace_out} (open in chrome://tracing)")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.out}")

    failed = [f"{guc} {mode}" for guc, gate in report["gates"].items()
              for mode, budget in gate["budgets"].items()
              if gate["overhead"][mode] > budget]
    for gate in failed:
        print(f"FAIL: telemetry overhead over budget: {gate}")
    if failed:
        return 1
    print("OK: telemetry overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
