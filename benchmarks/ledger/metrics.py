"""Metric declarations and the arithmetic that fills them.

``END_TO_END`` and ``PER_LAYER`` are the single list of names, units and
directions; BENCHMARK.json repeats them for the driver and
``test_ledger.py`` checks the two agree. Every timing is on one of two
clocks: **wall** (host time — what Python costs us; noisy) or **sim**
(``SimClock`` — what the modelled cluster would take; exact for a seed).
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

from . import spans as span_math
from .host import host_speed
from .workloads import AnalyticsScan, WriteMix


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "wall" | "sim" | "count"
    bound: float | None = None  # end-to-end only: tolerated relative worsening


END_TO_END = [
    Metric("wall_ops_per_s", "1/s", "higher", "wall", 0.25),
    Metric("wall_op_p50_us", "us", "lower", "wall", 0.25),
    Metric("sim_ops_per_s", "1/s", "higher", "sim", 0.02),
    Metric("sim_op_mean_ms", "ms", "lower", "sim", 0.02),
    Metric("setup_s", "s", "lower", "wall", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "wall", 0.10),
]

_STEPS = AnalyticsScan.steps + WriteMix.steps

PER_LAYER = [
    Metric("sql.self_us_per_op", "us", "lower", "wall"),
    Metric("sql.parse_calls_per_op", "count", "lower", "count"),
    Metric("sql.deparse_calls_per_op", "count", "lower", "count"),
    Metric("planner.self_us_per_op", "us", "lower", "wall"),
    Metric("planner.hook_calls_per_op", "count", "lower", "count"),
    Metric("planner.cache_lookup_us_per_op", "us", "lower", "wall"),
    Metric("planner.cache_hit_ratio", "ratio", "higher", "count"),
    Metric("planner.plan_statement_calls_per_op", "count", "lower", "count"),
    Metric("planner.plan_statement_us_per_op", "us", "lower", "wall"),
    Metric("executor.self_us_per_op", "us", "lower", "wall"),
    Metric("executor.tasks_per_op", "count", "lower", "count"),
    Metric("executor.batches_fetched_per_op", "count", "lower", "count"),
    Metric("executor.tasks_skipped_per_op", "count", "higher", "count"),
    Metric("executor.rows_buffered_peak", "count", "lower", "count"),
    Metric("net.round_trips_per_op", "count", "lower", "count"),
    Metric("net.bytes_per_op", "bytes", "lower", "count"),
    Metric("net.sim_wire_ms_per_op", "ms", "lower", "sim"),
    Metric("net.connections_opened_per_op", "count", "lower", "count"),
    Metric("net.self_us_per_op", "us", "lower", "wall"),
    Metric("net.pool_reuse_ratio", "ratio", "higher", "count"),
    Metric("net.pool_exhausted_per_op", "count", "lower", "count"),
    Metric("engine.worker_self_us_per_op", "us", "lower", "wall"),
    Metric("engine.coord_self_us_per_op", "us", "lower", "wall"),
    Metric("engine.tuples_scanned_per_row_returned", "ratio", "lower", "count"),
    Metric("engine.index_lookups_per_op", "count", "lower", "count"),
    Metric("engine.worker_statements_per_op", "count", "lower", "count"),
    Metric("engine.commit_us_per_op", "us", "lower", "wall"),
    Metric("engine.wal_bytes_per_op", "bytes", "lower", "count"),
    Metric("txn.self_us_per_op", "us", "lower", "wall"),
    Metric("txn.twopc_frac", "ratio", "lower", "count"),
    Metric("txn.prepares_per_op", "count", "lower", "count"),
    Metric("txn.aborts_per_op", "count", "lower", "count"),
    Metric("writeplane.self_us_per_row", "us", "lower", "wall"),
    Metric("writeplane.copy_flushes_per_op", "count", "lower", "count"),
    Metric("writeplane.copy_channel_peak_rows", "count", "lower", "count"),
    Metric("writeplane.repartition_rows_per_op", "count", "lower", "count"),
    Metric("telemetry.wall_overhead_frac", "ratio", "lower", "wall"),
    Metric("telemetry.sim_identical", "bool", "higher", "sim"),
    *(Metric(f"shape.{step}.{suffix}", unit, "lower", clock)
      for step in _STEPS
      for suffix, unit, clock in (("wall_p50_us", "us", "wall"),
                                  ("sim_ms", "ms", "sim"))),
    Metric("latency.wall_op_p99_us", "us", "lower", "wall"),
    Metric("latency.sim_op_p50_ms", "ms", "lower", "sim"),
    Metric("latency.sim_op_p99_ms", "ms", "lower", "sim"),
    Metric("harness.generator_frac", "ratio", "lower", "wall"),
    Metric("trace.overhead_frac", "ratio", "lower", "wall"),
    Metric("trace.unattributed_frac", "ratio", "lower", "wall"),
    Metric("host.canary_us", "us", "lower", "wall"),
    Metric("host.drift_frac", "ratio", "lower", "wall"),
]

#: A tail is reported only with ten samples beyond it (p99 needs 1,000).
TAIL_MIN_SAMPLES = 1000


def percentile(values, p: float):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def sim_metrics(phase: dict) -> dict:
    """The simulated-clock view of a phase: exact for a seed, and
    unchanged by anything that only speeds up or slows down the host."""
    sims = phase["sims"]
    return {
        "sim_ops_per_s": len(sims) / phase["sim_elapsed"],
        "sim_op_mean_ms": 1e3 * sum(sims) / len(sims),
        "sim_op_p50_ms": 1e3 * percentile(sims, 50),
        "sim_op_p99_ms": 1e3 * percentile(sims, 99),
    }


def _slices(phase: dict):
    """``(op times, host speed)`` for each slice of the measured ops.

    A slice lies between two canaries; its host speed is the reference
    canary time over the mean of the two, so 0.8 means the host ran at
    four fifths of reference speed while the slice's ops ran."""
    walls, canaries = phase["walls"], phase["canaries"]
    full = canaries[1][0] - canaries[0][0]
    for (start, before), (end, after) in zip(canaries, canaries[1:]):
        if 2 * (end - start) >= full:  # skip a short tail of leftover ops
            yield walls[start:end], host_speed(before, after)


def wall_ops_per_s(phase: dict) -> float:
    """Median over the slices of ops per second of op time, at reference
    host speed. A stall of a few seconds spoils the slices it falls in and
    the median passes over them; a slow minute is scaled out by the
    canaries."""
    return statistics.median(len(walls) / (sum(walls) / 1e9) / speed
                             for walls, speed in _slices(phase))


def wall_op_p50_us(phase: dict) -> float:
    """Median over the slices of each slice's median op time, at
    reference host speed."""
    return statistics.median(statistics.median(walls) * speed
                             for walls, speed in _slices(phase)) / 1e3


def phase_speed(phase: dict) -> float:
    """The phase's median slice speed: the one factor that puts its other
    wall times (layer self times, tails, step times) at reference speed."""
    return statistics.median(speed for _walls, speed in _slices(phase))


def end_to_end(phase: dict, setup_s: float, peak_rss_mb: float) -> dict:
    sim = sim_metrics(phase)
    return {
        "wall_ops_per_s": wall_ops_per_s(phase),
        "wall_op_p50_us": wall_op_p50_us(phase),
        "sim_ops_per_s": sim["sim_ops_per_s"],
        "sim_op_mean_ms": sim["sim_op_mean_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(default: dict, traced: dict, off: dict, spans) -> dict:
    """Every ``PER_LAYER`` value for one workload.

    ``default`` is an untraced phase on the shipped configuration,
    ``traced`` the same ops with the span wrappers on (its spans are
    ``spans``), ``off`` the same ops with every telemetry GUC off. Span
    and count metrics come from the traced phase; tails, shapes and the
    two overhead ratios from the untraced ones. A metric that does not
    apply to the workload is 0.
    """
    ops = len(traced["walls"])
    summary = span_math.summarize(spans)
    traced_us = phase_speed(traced) / 1e3  # span ns -> us at reference speed
    default_us = phase_speed(default) / 1e3
    layer_us = {layer: ns * traced_us
                for layer, ns in summary["layer_self_ns"].items()}
    calls, inclusive, own = (summary["calls"], summary["inclusive_ns"],
                             summary["self_ns"])
    counters, deltas = traced["counters"], traced["deltas"]

    def per_op(value: float) -> float:
        return value / ops

    hits = counters.get("plan_cache_hits", 0)
    onepc = counters.get("onepc_commits", 0)
    twopc = counters.get("twopc_transactions", 0)
    reuses = counters.get("pool_session_reuses", 0)
    routed = counters.get("copy_rows_routed", 0)
    client_copy = traced["client_copy_rows_per_op"]
    walls = default["walls"]
    slice_means = [statistics.fmean(chunk) * speed
                   for chunk, speed in _slices(default)]
    quarter = max(1, len(slice_means) // 4)
    supports_tail = len(walls) >= TAIL_MIN_SAMPLES
    sim = sim_metrics(default)

    values = {
        "sql.self_us_per_op": per_op(layer_us.get("sql", 0.0)),
        "sql.parse_calls_per_op": per_op(calls.get("parser.parse", 0)),
        "sql.deparse_calls_per_op": per_op(calls.get("deparse.deparse", 0)),
        "planner.self_us_per_op": per_op(layer_us.get("planner", 0.0)),
        "planner.hook_calls_per_op": per_op(
            calls.get("HookRegistry.call_planner", 0)),
        "planner.cache_lookup_us_per_op": per_op(
            inclusive.get("PlanCache.lookup", 0) * traced_us),
        "planner.cache_hit_ratio": _ratio(
            hits, hits + counters.get("plan_cache_misses", 0)),
        "planner.plan_statement_calls_per_op": per_op(
            calls.get("distributed.plan_statement", 0)),
        "planner.plan_statement_us_per_op": per_op(
            inclusive.get("distributed.plan_statement", 0) * traced_us),
        "executor.self_us_per_op": per_op(layer_us.get("executor", 0.0)),
        "executor.tasks_per_op": per_op(counters.get("tasks_executed", 0)),
        "executor.batches_fetched_per_op": per_op(
            counters.get("batches_fetched", 0)),
        "executor.tasks_skipped_per_op": per_op(counters.get("tasks_skipped", 0)),
        "executor.rows_buffered_peak": counters.get("rows_buffered_peak", 0),
        "net.round_trips_per_op": per_op(deltas["net_messages"]),
        "net.bytes_per_op": per_op(deltas["net_bytes"]),
        "net.sim_wire_ms_per_op": per_op(deltas["net_wire_ms"]),
        "net.connections_opened_per_op": per_op(
            counters.get("connections_opened", 0)),
        "net.self_us_per_op": per_op(
            layer_us.get("net", 0.0) + layer_us.get("pool", 0.0)),
        "net.pool_reuse_ratio": _ratio(
            reuses, reuses + counters.get("pool_sessions_opened", 0)),
        "net.pool_exhausted_per_op": per_op(counters.get("pool_exhausted", 0)),
        "engine.worker_self_us_per_op": per_op(layer_us.get("engine.worker", 0.0)),
        "engine.coord_self_us_per_op": per_op(layer_us.get("engine.coord", 0.0)),
        "engine.tuples_scanned_per_row_returned": _ratio(
            deltas["tuples_scanned"], traced["rows_returned"]),
        "engine.index_lookups_per_op": per_op(deltas["index_lookups"]),
        "engine.worker_statements_per_op": per_op(summary["worker_statements"]),
        "engine.commit_us_per_op": per_op(own.get("Session.commit", 0) * traced_us),
        "engine.wal_bytes_per_op": per_op(deltas["wal_bytes"]),
        "txn.self_us_per_op": per_op(layer_us.get("txn", 0.0)),
        "txn.twopc_frac": _ratio(twopc, onepc + twopc),
        "txn.prepares_per_op": per_op(counters.get("twopc_prepares", 0)),
        "txn.aborts_per_op": per_op(calls.get("TransactionCallbacks.abort", 0)),
        "writeplane.self_us_per_row": _ratio(layer_us.get("writeplane", 0.0),
                                             routed),
        "writeplane.copy_flushes_per_op": per_op(counters.get("copy_flushes", 0)),
        "writeplane.copy_channel_peak_rows": counters.get(
            "copy_channel_peak_rows", 0),
        "writeplane.repartition_rows_per_op": (
            0.0 if client_copy is None else per_op(routed) - client_copy),
        "telemetry.wall_overhead_frac": 1 - _ratio(wall_ops_per_s(default),
                                                   wall_ops_per_s(off)),
        "telemetry.sim_identical": float(sim == sim_metrics(off)),
        "latency.wall_op_p99_us": (percentile(walls, 99) * default_us
                                   if supports_tail else 0.0),
        "latency.sim_op_p50_ms": sim["sim_op_p50_ms"],
        "latency.sim_op_p99_ms": sim["sim_op_p99_ms"] if supports_tail else 0.0,
        "harness.generator_frac": 1 - _ratio(sum(walls), default["loop_ns"]),
        "trace.overhead_frac": 1 - _ratio(wall_ops_per_s(traced),
                                          wall_ops_per_s(default)),
        "trace.unattributed_frac": 1 - _ratio(
            sum(summary["layer_self_ns"].values()), sum(traced["walls"])),
        "host.canary_us": statistics.median(
            us for phase in (default, traced, off) for _done, us in phase["canaries"]),
        "host.drift_frac": _ratio(statistics.fmean(slice_means[-quarter:]),
                                  statistics.fmean(slice_means[:quarter])) - 1,
    }
    for step in _STEPS:
        step_walls = default["step_walls"].get(step)
        values[f"shape.{step}.wall_p50_us"] = (
            statistics.median(step_walls) * default_us if step_walls else 0.0)
        values[f"shape.{step}.sim_ms"] = (
            1e3 * statistics.median(default["step_sims"][step])
            if step_walls else 0.0)
    return values
