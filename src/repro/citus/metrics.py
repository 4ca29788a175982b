"""Prometheus text-format snapshot of the cluster's observable state.

``citus_metrics_snapshot()`` renders, in one deterministic scrape:

- every cluster-wide counter and gauge from the shared StatsRegistry
  (``citus_<name>_total{node="..."}`` / ``citus_<name>{node="..."}``),
- wait-event accounting, re-shaped from the ``wait_count:Class.Event`` /
  ``wait_time_us:Class.Event`` counters into
  ``citus_wait_events_total{class=...,event=...,node=...}`` and
  ``citus_wait_time_seconds_total{...}``,
- the co-access graph, window ring and ASH families, and for every
  telemetry ring its capacity, high-water mark and drop count
  (``citus_telemetry_ring_*{ring=...}``),
- per-node health: up/down, open connections, parked-statement queue
  depth, and pgbouncer pool lease occupancy.

Output is sorted so two snapshots of identical state are byte-identical —
tests and diffing tools rely on that.
"""

from __future__ import annotations

import re

from ..engine.waitevents import COUNT_PREFIX, TIME_PREFIX

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str) -> str:
    return "citus_" + _NAME_RE.sub("_", raw)


def _escape(value) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(**kwargs) -> str:
    items = [(k, v) for k, v in kwargs.items() if v not in (None, "")]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_wait_key(name: str) -> tuple[str, str]:
    wclass, _, event = name.partition(".")
    return wclass, event


def metrics_snapshot(ext) -> str:
    snap = ext.stat_counters.snapshot()
    lines: list[str] = []

    # --- wait events (pulled out of the counter namespace first) ---
    wait_counts: list[tuple] = []
    wait_times: list[tuple] = []
    plain_counters: list[tuple] = []
    for name in sorted(snap.counters):
        for node in sorted(snap.counters[name]):
            value = snap.counters[name][node]
            if name.startswith(COUNT_PREFIX):
                wclass, event = _parse_wait_key(name[len(COUNT_PREFIX):])
                wait_counts.append((wclass, event, node, value))
            elif name.startswith(TIME_PREFIX):
                wclass, event = _parse_wait_key(name[len(TIME_PREFIX):])
                wait_times.append((wclass, event, node, value / 1e6))
            else:
                plain_counters.append((name, node, value))

    lines.append("# TYPE citus_wait_events_total counter")
    for wclass, event, node, value in wait_counts:
        lines.append(
            "citus_wait_events_total"
            + _labels(**{"class": wclass, "event": event, "node": node})
            + f" {_format_value(value)}"
        )
    lines.append("# TYPE citus_wait_time_seconds_total counter")
    for wclass, event, node, seconds in wait_times:
        lines.append(
            "citus_wait_time_seconds_total"
            + _labels(**{"class": wclass, "event": event, "node": node})
            + f" {_format_value(seconds)}"
        )

    # --- plain counters ---
    previous = None
    for name, node, value in plain_counters:
        metric = _metric_name(name) + "_total"
        if metric != previous:
            lines.append(f"# TYPE {metric} counter")
            previous = metric
        lines.append(metric + _labels(node=node) + f" {_format_value(value)}")

    # --- gauges ---
    previous = None
    for name in sorted(snap.gauges):
        metric = _metric_name(name)
        for node in sorted(snap.gauges[name]):
            if metric != previous:
                lines.append(f"# TYPE {metric} gauge")
                previous = metric
            lines.append(
                metric + _labels(node=node)
                + f" {_format_value(snap.gauges[name][node])}"
            )

    # --- co-access graph + window ring, ASH ring, ring health ---
    lines.extend(ext.telemetry.prometheus_lines(_format_value, _labels))

    # --- per-node health ---
    nodes = ({ext.instance.name: ext.instance} if ext.cluster is None
             else ext.cluster.nodes)
    up_lines, conn_lines, queue_lines, pool_lines = [], [], [], []
    for name in sorted(nodes):
        instance = nodes[name]
        up_lines.append(
            "citus_node_up" + _labels(node=name)
            + f" {1 if instance.is_up else 0}"
        )
        conn_lines.append(
            "citus_node_connections" + _labels(node=name)
            + f" {len(instance.sessions)}"
        )
        queue_lines.append(
            "citus_node_parked_statements" + _labels(node=name)
            + f" {len(instance._parked)}"
        )
        local = getattr(instance, "_stats_registry", None)
        if local is not None:
            leases = local.snapshot().gauges.get("pool_leases")
            if leases:
                pool_lines.append(
                    "citus_node_pool_leases" + _labels(node=name)
                    + f" {sum(leases.values())}"
                )
    lines.append("# TYPE citus_node_up gauge")
    lines.extend(up_lines)
    lines.append("# TYPE citus_node_connections gauge")
    lines.extend(conn_lines)
    lines.append("# TYPE citus_node_parked_statements gauge")
    lines.extend(queue_lines)
    if pool_lines:
        lines.append("# TYPE citus_node_pool_leases gauge")
        lines.extend(pool_lines)

    return "\n".join(lines) + "\n"
