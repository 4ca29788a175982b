"""Hot-path gate: what each ``citus.enable_*`` switch costs a statement.

One protocol for the four telemetry sensors and the candidate-plan
pipeline. Each row of :data:`GATES` asks two questions of one GUC:

- **off** — is a switched-off sensor free? A cluster installed with only
  this GUC on, then switched off through ``citus_set_config`` exactly how
  an operator would, against the **detached** baseline: a cluster installed
  with all five GUCs off (no statement record, no plan search). What is
  left must be the cost of the guard checks alone. Nor may the switched-off
  configuration (**without**) be slower than the same one with the sensor
  on (**with**) by more than that budget: work the off path does in every
  cluster, the detached one too, shows only there.
- **on** — what does the sensor cost where it runs? The shipped
  configuration (all five on, **with**) against the same configuration
  **without** this one GUC.

Two loops over 200 rows on 2 workers / 8 shards: the fast-path CRUD pair
(single-key SELECT / UPDATE), each of whose modes must also stay above
:data:`FAST_PATH_FLOOR`, and the router transaction (BEGIN / UPDATE /
SELECT / COMMIT on one key). A gate is judged by the median of per-round
ratios — the four modes timed back-to-back per round in alternating order
on rotating, independently allocated clusters, GC parked — and the floor
by the median of per-round rates timed the same way with the collector
on, as the fast path runs (a regression that only allocates shows there
as collections). A miss is re-measured once before it fails (a noisy CI
box cannot fail it on a scheduler hiccup). The Chrome trace of a
shipped-configuration cluster is always written, so a failing CI run can
upload it. What all five cost together is the ledger's
``telemetry.wall_overhead_frac``.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--quick]
        [--out results.json] [--trace-out trace.json]
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402
from repro.citus.extension import TELEMETRY_SWITCHES, CitusConfig  # noqa: E402

from common import finish, gate_parser  # noqa: E402

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
#: sensor may cost against the detached baseline (and against itself
#: switched on), and the switched-on one in the shipped configuration.
GATES = (
    ("enable_tracing", crud_loop, 0.05, 0.22),
    ("enable_introspection", crud_loop, 0.05, 0.04),
    ("enable_txn_graph", txn_loop, 0.05, 0.07),
    ("enable_ash", txn_loop, 0.05, 0.08),
    ("enable_plan_alternatives", crud_loop, 0.05, 0.06),
)

#: Statements/sec under which no mode of a ``crud_loop`` gate's median
#: round with the collector on may fall: the fast path's own floor, with
#: every sensor off and in the shipped configuration alike.
FAST_PATH_FLOOR = 5371
#: Rounds per mode of the collector-on rates the floor is checked on.
FLOOR_ROUNDS = 8

MODES = ("detached", "off", "without", "with")


def setup(guc: str, mode: str):
    """A loaded cluster with the ``citus.enable_*`` switches ``mode``
    asks for."""
    enabled = {"detached": (), "off": (guc,), "with": TELEMETRY_SWITCHES,
               "without": [g for g in TELEMETRY_SWITCHES if g != guc]}[mode]
    config = CitusConfig(**{name: name in enabled
                            for name in TELEMETRY_SWITCHES})
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
        cluster.coordinator_ext.telemetry.plan_searches.clear()
    return cluster, session


def measure_rounds(loop, sessions, iterations, trials, overheads) -> None:
    """``trials`` interleaved rounds of ``loop`` over the four modes
    (rotating the cluster set, alternating the order, GC parked): appends
    each round's three overheads."""
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
            overheads["off_vs_on"].append(1.0 - rate["without"] / rate["with"])
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_floor(sessions, iterations, rates) -> None:
    """:data:`FLOOR_ROUNDS` interleaved rounds of ``crud_loop`` over the
    four modes as :func:`measure_rounds` times them, but with the
    collector on: appends each mode's rate."""
    for trial in range(FLOOR_ROUNDS):
        for mode in MODES if trial % 2 == 0 else MODES[::-1]:
            rates[mode].append(crud_loop(
                sessions[mode][trial % CLUSTERS_PER_MODE], iterations))


def check_recorded(guc: str, on_session, off_session) -> None:
    """The shipped configuration really recorded through this sensor, and
    the cluster where it was switched off did not."""
    surface = {
        "enable_tracing": "citus_stat_statements()",
        "enable_introspection": "citus_stat_tenants()",
        "enable_txn_graph": "citus_stat_txn_graph()",
        "enable_ash": "citus_ash()",
        "enable_plan_alternatives": "the plan-search ring",
    }[guc]

    def recorded(session) -> bool:
        if guc == "enable_plan_alternatives":  # its UDF refuses while off
            ext = session.instance.extensions["citus"]
            return bool(ext.telemetry.plan_searches)
        return bool(session.execute(f"SELECT {surface}").scalar())

    if not recorded(on_session):
        raise AssertionError(f"{guc} on recorded nothing in {surface}")
    if recorded(off_session):
        raise AssertionError(f"{guc} off still recorded into {surface}")


def run(quick: bool = False) -> tuple[dict, list[str]]:
    """Every gate's report, and its failures."""
    # Many short rounds beat few long ones: the median of per-round ratios
    # is what shrinks with the round count.
    iterations = 200 if quick else 500
    trials = 24 if quick else 36
    gates, failures = {}, []
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
        overheads = {"off": [], "on": [], "off_vs_on": []}
        # The floor's rates, collector on: a crud_loop row's only.
        rates = {mode: [] for mode in MODES} if loop is crud_loop else {}
        budgets = {"off": off_budget, "on": on_budget, "off_vs_on": off_budget}

        def misses():
            return ([f"{guc} {m}: {statistics.median(overheads[m]) * 100:+.2f}%"
                     f" over its {budgets[m] * 100:.0f}% budget"
                     for m in overheads
                     if statistics.median(overheads[m]) > budgets[m]]
                    + [f"{guc} {mode}: {statistics.median(rates[mode]):.0f}"
                       f" stmts/s under the fast-path floor {FAST_PATH_FLOOR}"
                       for mode in rates
                       if statistics.median(rates[mode]) < FAST_PATH_FLOOR])

        def measure():
            measure_rounds(loop, sessions, iterations, trials, overheads)
            if rates:
                measure_floor(sessions, iterations, rates)

        measure()
        missed = misses()
        confirmed = bool(missed)
        if confirmed:
            print("; ".join(missed) + "; running confirmation pass")
            measure()
            missed = misses()
        failures += missed
        check_recorded(guc, sessions["with"][0], sessions["off"][0])
        if guc == "enable_tracing":
            trace = clusters["with"][0][0].coordinator_ext.telemetry.export_chrome(50)
        medians = {m: statistics.median(overheads[m]) for m in overheads}
        median_rates = {mode: statistics.median(rates[mode]) for mode in rates}
        gates[guc] = {
            "loop": loop.__name__,
            "stmts_per_sec": median_rates,
            "floor": FAST_PATH_FLOOR if rates else None,
            "overhead": medians,
            "round_overheads": overheads,
            "budgets": budgets,
            "confirmation_pass": confirmed,
        }
        print(f"{guc} ({loop.__name__}, median round)")
        if rates:
            print("  collector on: " + ", ".join(
                f"{mode} {median_rates[mode]:.0f}/s" for mode in rates)
                + f" (floor {FAST_PATH_FLOOR})")
        for m, label in (("off", "off vs detached"), ("on", "with vs without"),
                         ("off_vs_on", "without vs with")):
            print(f"  {label}: {medians[m] * 100:+6.2f}%"
                  f" (budget {budgets[m] * 100:.0f}%)")
    return {"config": {"iterations": iterations, "trials": trials,
                       "quick": quick},
            "gates": gates, "trace": trace}, failures


def main(argv=None) -> int:
    parser = gate_parser(__doc__)
    parser.add_argument("--trace-out", default=_DEFAULT_TRACE_OUT,
                        help="write the tracing-on Chrome trace here")
    args = parser.parse_args(argv)
    report, failures = run(quick=args.quick)
    os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
    with open(args.trace_out, "w") as f:
        json.dump(report.pop("trace"), f, default=str)
    print(f"wrote {args.trace_out} (open in chrome://tracing)")
    return finish(args, report, failures)


if __name__ == "__main__":
    raise SystemExit(main())
