"""Prometheus text-format snapshot of the cluster's observable state.

``citus_metrics_snapshot()`` renders, in one deterministic scrape:

- every cluster-wide counter and gauge from the shared StatsRegistry
  (``citus_<name>_total{node="..."}`` / ``citus_<name>{node="..."}``),
- wait-event accounting, re-shaped from the ``wait_count:Class.Event`` /
  ``wait_time_us:Class.Event`` counters into
  ``citus_wait_events_total{class=...,event=...,node=...}`` and
  ``citus_wait_time_seconds_total{...}``,
- the co-access graph's vertex families, and for every
  telemetry ring its capacity, high-water mark and drop count
  (``citus_telemetry_ring_*{ring=...}``),
- per-node health: up/down, open connections, parked-statement queue
  depth, and pgbouncer pool lease occupancy.

This module is the only one that knows the exposition format. Every
other module hands over its metrics as *families* — ``(name, kind,
[(labels, value), ...])`` with ``labels`` a dict — and :func:`render` writes
them: one ``# TYPE`` line, then the family's samples; a family with no
samples prints nothing. Output is sorted so two snapshots of identical
state are byte-identical — tests and diffing tools rely on that.
"""

from __future__ import annotations

import re

from ..engine.waitevents import split_wait_counter

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str) -> str:
    return "citus_" + _NAME_RE.sub("_", raw)


def _escape(value) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(labels: dict) -> str:
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels.items()
                    if v not in (None, ""))
    return "{" + body + "}" if body else ""


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def render(families) -> str:
    """Prometheus text of ``(name, kind, [(labels, value), ...])``
    families, in the order given."""
    lines = []
    for name, kind, samples in families:
        if samples:
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(f"{name}{_labels(labels)} {_format_value(value)}"
                         for labels, value in samples)
    return "\n".join(lines) + "\n"


def metrics_snapshot(ext) -> str:
    snap = ext.stat_counters.snapshot()
    # Wait counters are pulled out of the counter namespace first.
    waits: dict[bool, list] = {False: [], True: []}  # is_time -> samples
    counters: dict[str, list] = {}
    for name in sorted(snap.counters):
        wait = split_wait_counter(name)
        for node, value in sorted(snap.counters[name].items()):
            if wait is None:
                counters.setdefault(_metric_name(name) + "_total", []).append(
                    ({"node": node}, value))
            else:
                is_time, wclass, event = wait
                waits[is_time].append(
                    ({"class": wclass, "event": event, "node": node},
                     value / 1e6 if is_time else value))
    gauges: dict[str, list] = {}
    for name in sorted(snap.gauges):
        gauges.setdefault(_metric_name(name), []).extend(
            ({"node": node}, value)
            for node, value in sorted(snap.gauges[name].items()))
    return render([
        ("citus_wait_events_total", "counter", waits[False]),
        ("citus_wait_time_seconds_total", "counter", waits[True]),
        *((metric, "counter", samples) for metric, samples in counters.items()),
        *((metric, "gauge", samples) for metric, samples in gauges.items()),
        *ext.telemetry.metric_families(),
        *_node_families(ext),
    ])


def _node_families(ext) -> list[tuple]:
    """Per-node health: up/down, open connections, parked statements and
    pgbouncer pool leases."""
    nodes = ({ext.instance.name: ext.instance} if ext.cluster is None
             else ext.cluster.nodes)
    names = sorted(nodes)
    leases = []
    for name in names:
        local = getattr(nodes[name], "_stats_registry", None)
        held = (None if local is None
                else local.snapshot().gauges.get("pool_leases"))
        if held:
            leases.append(({"node": name}, sum(held.values())))
    return [
        ("citus_node_up", "gauge",
         [({"node": n}, 1 if nodes[n].is_up else 0) for n in names]),
        ("citus_node_connections", "gauge",
         [({"node": n}, len(nodes[n].sessions)) for n in names]),
        ("citus_node_parked_statements", "gauge",
         [({"node": n}, len(nodes[n]._parked)) for n in names]),
        ("citus_node_pool_leases", "gauge", leases),
    ]
