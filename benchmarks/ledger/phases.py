"""One run's phases: set up a cluster, warm up, measure, check.

Importing this module imports the program under test; ``run.py`` times
that import as part of ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import time

from . import metrics
from . import spans as span_math
from .host import canary_us, host_speed, peak_rss_mb

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Set-ups timed per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Spans kept in ``trace_<workload>.json`` (whole ops, from the first).
TRACE_FILE_SPANS = 12_000


def op_count(workload_cls, seconds: float) -> int:
    return max(1, round(workload_cls.ops_per_second * seconds))


def cluster_totals(citus) -> dict:
    """Monotonic totals read from public surfaces; a phase reports their
    growth over the measured ops. Sessions closed in between take their
    statistics with them — none of the workloads closes one mid-run."""
    network = citus.cluster.network
    totals = {"net_messages": network.messages_sent,
              "net_bytes": network.bytes_sent,
              "wal_bytes": 0, "tuples_scanned": 0, "index_lookups": 0}
    for name in citus.cluster.node_names():
        instance = citus.cluster.node(name)
        totals["wal_bytes"] += instance.wal.bytes_written
        for session in instance.sessions:
            totals["tuples_scanned"] += session.stats.get("tuples_scanned", 0)
            totals["index_lookups"] += session.stats.get("index_lookups", 0)
    return totals


def read_counters(session) -> dict:
    """``citus_stat_counters()`` folded over nodes: name -> cluster total."""
    totals: dict[str, int] = {}
    for name, _node, value in session.execute(
            "SELECT citus_stat_counters()").scalar():
        totals[name] = totals.get(name, 0) + value
    return totals


def timed_setup(workload, telemetry: bool = True) -> float:
    """Seconds to build the workload's cluster and load it, at reference
    host speed (scaled by a canary on either side, like the op times)."""
    gc.collect()
    before = canary_us()
    start = time.perf_counter()
    workload.setup(telemetry)
    elapsed = time.perf_counter() - start
    return elapsed * host_speed(before, canary_us())


def run_phase(workload_cls, seed: int, ops: int, *, telemetry: bool = True,
              recorder=None, phase: int = 0) -> dict:
    """Set up a fresh cluster, warm up, run the measured ops, check."""
    workload = workload_cls(seed, ops, phase)
    setup_s = timed_setup(workload, telemetry)
    workload.warm_up()

    admin = workload.citus.coordinator_session("ledger_admin")
    admin.execute("SELECT citus_stat_counters_reset()")
    before = cluster_totals(workload.citus)
    if recorder is not None:
        recorder.enabled = True
    try:
        workload.measure(recorder)
    finally:
        if recorder is not None:
            recorder.enabled = False
    counters = read_counters(admin)
    after = cluster_totals(workload.citus)
    workload.finish()

    deltas = {key: after[key] - before[key] for key in after}
    spec = workload.citus.cluster.network.spec
    deltas["net_wire_ms"] = (deltas["net_messages"] * spec.rtt_ms
                             + deltas["net_bytes"] / (spec.bandwidth_mb_s * 1e3))
    return {
        "ops": ops,
        "setup_s": setup_s,
        "walls": workload.walls,
        "sims": workload.sims,
        "step_walls": workload.step_walls,
        "step_sims": workload.step_sims,
        "sim_elapsed": workload.sim_elapsed,
        "loop_ns": workload.loop_ns,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors[:10],
        "rows_returned": workload.rows_returned,
        "client_copy_rows_per_op": workload.client_copy_rows_per_op,
        "counters": counters,
        "deltas": deltas,
        "canaries": workload.canaries,
    }


def sim_digest(phase: dict) -> str:
    """Hash of everything that must repeat exactly for a seed."""
    exact = {"sim": metrics.sim_metrics(phase), "counters": phase["counters"],
             "deltas": phase["deltas"], "attempted": phase["attempted"],
             "failed": phase["failed"]}
    return hashlib.sha256(
        json.dumps(exact, sort_keys=True).encode()).hexdigest()


# -------------------------------------------------------------------- runs


def plain_run(workload_cls, seed: int, ops: int, import_s: float) -> dict:
    """``--trace 0``: one measured phase on a fresh process and cluster,
    then further set-ups only to steady ``setup_s``."""
    phase = run_phase(workload_cls, seed, ops)
    rss = peak_rss_mb()  # before the extra set-ups can raise it
    setups = [phase["setup_s"]]
    setups += [timed_setup(workload_cls(seed, ops))
               for _ in range(SETUP_REPEATS - 1)]
    values = metrics.end_to_end(phase, import_s + statistics.median(setups), rss)
    return {
        "metrics": values,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "errors": phase["errors"],
        "canary_us": [us for _done, us in phase["canaries"]],
        "sim_digest": sim_digest(phase),
        "setup_samples_s": setups,
        "import_s": import_s,
        "samples": len(phase["walls"]),
    }


def traced_run(workload_cls, seed: int, ops: int) -> dict:
    """``--trace 1``: the same ops three times on fresh clusters — shipped
    configuration, shipped configuration under the span wrappers, and
    every telemetry GUC off — for the per-layer table."""
    default = run_phase(workload_cls, seed, ops, phase=0)
    off = run_phase(workload_cls, seed, ops, telemetry=False, phase=1)
    # Traced last: its spans stay in memory until the metrics are made.
    recorder = span_math.SpanRecorder()
    span_math.install(recorder)
    try:
        traced = run_phase(workload_cls, seed, ops, recorder=recorder, phase=2)
    finally:
        recorder.remove()

    phases = (default, off, traced)
    values = metrics.per_layer(default, traced, off, recorder.spans)
    write_trace(workload_cls.name, seed, ops, recorder.spans, values)
    return {
        "metrics": values,
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "errors": [error for phase in phases for error in phase["errors"]],
        "canary_us": [us for phase in phases for _done, us in phase["canaries"]],
        "sim_digest": sim_digest(default),
        "samples": len(default["walls"]),
    }


def write_trace(workload: str, seed: int, ops: int, spans, summary: dict) -> str:
    """Keep the per-layer summary and the spans of the first ops (whole
    ops, up to TRACE_FILE_SPANS) so the file stays under a megabyte."""
    kept = spans[:TRACE_FILE_SPANS]
    if len(spans) > len(kept):
        whole = len(kept)
        while whole and spans[whole - 1][span_math.OP] == spans[len(kept)][span_math.OP]:
            whole -= 1
        # An op with more spans than the cap is kept cut short.
        kept = kept[:whole] or kept
    origin = spans[0][span_math.START] if spans else 0
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"trace_{workload}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": workload, "seed": seed, "ops_traced": ops,
            "spans_recorded": len(spans), "columns": span_math.COLUMNS,
            "spans": [[name, layer, start - origin, end - origin, parent, op]
                      for name, layer, start, end, parent, op in kept],
            "per_layer": summary,
        }, f, separators=(",", ":"))
    return path
