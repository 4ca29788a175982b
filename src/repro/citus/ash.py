"""Active Session History: a deterministic cluster-wide wait/state sampler.

``citus_dist_stat_activity`` answers "what is the cluster doing *right
now*" and the counters answer "what happened in total" — this module
answers the question operators actually ask when a tail-latency SLO
breaks: *what was the cluster doing between t1 and t2, and what was it
waiting on?* It is the simulation's equivalent of pg_wait_sampling /
Oracle-style ASH tooling layered over ``pg_stat_activity``.

There are no threads. The sampler registers a **clock observer** on the
shared :class:`~repro.net.clock.SimClock`; whenever any component advances
virtual time across a ``citus.ash_sampling_interval`` boundary, the
observer fires and snapshots every session cluster-wide through the
existing :func:`~repro.citus.introspection.activity_records` path (query
deparse skipped — only the fingerprint digest is kept). One **sample** is
one (boundary, session) pair:

``(virtual timestamp, global PID, node, state, full WaitEventStack frames
— not just the top one —, fingerprint digest, planner tier, tenant
dist-key, distributed txn id)``

Samples land in a bounded ring (``citus.ash_buffer_size``, newest-N
retention). Because virtual time is deterministic, two same-seed runs
produce byte-for-byte identical rings — the ASH dump is part of the
``bench_traffic`` determinism gate.

Report modes (the ``citus_ash()`` UDF):

- ``samples`` — the raw ring, optionally windowed to ``[start, end]``;
- ``top_waits`` / ``top_queries`` / ``top_tenants`` — sample-count
  rollups over a time range (a session with no live wait counts as
  ``CPU.Running`` while active, ``Idle.<state>`` otherwise);
- ``timeline`` — fixed-width buckets with active/idle splits and
  per-wait-class totals via the shared
  :func:`~repro.engine.waitevents.wait_class_totals` helper;
- ``flamegraph`` — collapsed-stack format
  (``node;wclass;event;...;fingerprint count``), one line per distinct
  stack, counts summing to the sample total — feed straight into
  flamegraph.pl or speedscope.

Cost model: with ``citus.enable_ash`` off the observer is detached, so
every clock advance pays exactly one empty-list test inside ``SimClock``.
The ring survives while the sampler is off, so switching it back on
resumes with history intact.
"""

from __future__ import annotations

import json
import math

from ..engine.waitevents import COUNT_PREFIX, wait_class_totals
from .record import Ring

#: Sample tuple layout (kept a plain tuple: the ring holds up to
#: ``ash_buffer_size`` of them and dict samples would triple memory).
S_T, S_GPID, S_NODE, S_STATE, S_STACK, S_FP, S_TIER, S_TENANT, S_DTXN = \
    range(9)

#: Default ring capacity, in session-samples (not ticks).
DEFAULT_BUFFER_SIZE = 65536

#: Timeline buckets default to this many sampling intervals.
TIMELINE_BUCKETS_PER_INTERVAL = 10


def top_frame(sample) -> tuple:
    """The (class, event) a sample reports as its wait: the top live
    frame of the captured stack, or the synthetic ``CPU.Running`` /
    ``Idle.<state>`` frames for sessions that were not waiting."""
    stack = sample[S_STACK]
    if stack:
        return stack[-1]
    if sample[S_STATE] == "active":
        return ("CPU", "Running")
    return ("Idle", sample[S_STATE].replace(" ", "_"))


class AshSampler:
    """The cluster-shared Active Session History ring — one per cluster,
    owned by its :class:`~.telemetry.Telemetry`; ``enabled`` follows
    ``citus.enable_ash``."""

    def __init__(self, clock, registry):
        self.clock = clock
        self.registry = registry
        self.ring = Ring(DEFAULT_BUFFER_SIZE)
        self.interval = 0.0
        self.enabled = False
        self.ext = None
        self._attached = False
        # Re-entrancy latch: sampling must never recurse, even if a future
        # capture path advances the clock while we walk the sessions.
        self._sampling = False

    # --------------------------------------------------------- lifecycle

    def configure(self, enabled: bool, interval: float, buffer_size: int,
                  ext=None) -> None:
        """(Re)apply the ash GUCs. Attaches or detaches the clock
        observer; resizing the ring keeps the newest samples."""
        if ext is not None and (self.ext is None
                                or getattr(ext, "is_coordinator", False)):
            self.ext = ext
        self.interval = float(interval)
        self.ring.resize(buffer_size)
        self.enabled = bool(enabled) and self.clock is not None
        if self.enabled and not self._attached:
            self.clock.add_observer(self._on_advance)
            self._attached = True
        elif not self.enabled and self._attached:
            self.clock.remove_observer(self._on_advance)
            self._attached = False

    def reset(self) -> None:
        """citus_stat_reset('ash'): drop every buffered sample. The
        ``ash_samples`` / ``ash_sample_ticks`` counters live in the shared
        registry and belong to the 'counters' scope."""
        self.ring.clear()

    # ---------------------------------------------------------- sampling

    def _on_advance(self, previous: float, now: float) -> None:
        """Clock observer: sample once per interval boundary crossed by
        this advance. A boundary ``b`` is sampled when ``previous < b <=
        now``, so an advance landing exactly on a boundary samples it and
        the next advance starting there does not resample it."""
        interval = self.interval
        if interval <= 0.0 or self._sampling or self.ext is None:
            return
        first = math.floor(previous / interval) + 1
        last = math.floor(now / interval)
        if last < first:
            return
        self._sampling = True
        try:
            rows = self._snapshot_rows()
            for index in range(first, last + 1):
                t = index * interval
                self.ring.extend([(t,) + row for row in rows])
            ticks = last - first + 1
            self.registry.incr("ash_sample_ticks", ticks)
            if rows:
                self.registry.incr("ash_samples", ticks * len(rows))
        finally:
            self._sampling = False

    def _snapshot_rows(self) -> list[tuple]:
        """One timestamp-less sample row per open session cluster-wide,
        via the activity view's record path (deparse skipped)."""
        from .introspection import activity_records

        rows = []
        for rec in activity_records(self.ext, with_query=False):
            session = rec["session"]
            rows.append((
                rec["global_pid"],
                rec["nodename"],
                rec["state"],
                tuple((we.wclass, we.event)
                      for we in session.wait_events.frames()),
                rec["query_fingerprint"],
                rec["citus_tier"],
                getattr(session, "_citus_tenant", None),
                rec["distributed_txn_id"],
            ))
        return rows

    # ----------------------------------------------------------- reading

    def samples(self, start: float | None = None,
                end: float | None = None) -> list[tuple]:
        """Ring samples with ``start <= t <= end``, oldest first."""
        if start is None and end is None:
            return list(self.ring)
        lo = -math.inf if start is None else start
        hi = math.inf if end is None else end
        return [s for s in self.ring if lo <= s[S_T] <= hi]

    def raw_records(self, start=None, end=None) -> list[dict]:
        records = []
        for s in self.samples(start, end):
            stack = s[S_STACK]
            wait = stack[-1] if stack else None
            records.append({
                "sample_time": s[S_T],
                "global_pid": s[S_GPID],
                "nodename": s[S_NODE],
                "state": s[S_STATE],
                "wait_event_type": wait[0] if wait else None,
                "wait_event": wait[1] if wait else None,
                "wait_stack": ">".join(f"{c}.{e}" for c, e in stack),
                "query_fingerprint": s[S_FP],
                "citus_tier": s[S_TIER],
                "tenant": s[S_TENANT],
                "distributed_txn_id": s[S_DTXN],
            })
        return records

    def top_waits(self, start=None, end=None, limit=None) -> list[dict]:
        """Sample counts by reported wait (class, event) over the range,
        busiest first, each with the node contributing most samples."""
        counts: dict[tuple, int] = {}
        nodes: dict[tuple, dict] = {}
        total = 0
        for s in self.samples(start, end):
            total += 1
            key = top_frame(s)
            counts[key] = counts.get(key, 0) + 1
            per_node = nodes.setdefault(key, {})
            per_node[s[S_NODE]] = per_node.get(s[S_NODE], 0) + 1
        records = []
        for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            top_node = sorted(nodes[key].items(),
                              key=lambda kv: (-kv[1], kv[0]))[0][0]
            records.append({
                "wait_event_type": key[0],
                "wait_event": key[1],
                "samples": n,
                "pct": round(100.0 * n / total, 2),
                "top_node": top_node,
            })
        return records[:limit] if limit else records

    def top_queries(self, start=None, end=None, limit=None) -> list[dict]:
        """Sample counts by statement fingerprint (sessions with no
        statement are skipped; pct is still of *all* samples in range, so
        the numbers read as time shares of the window)."""
        counts: dict[str, int] = {}
        waits: dict[str, dict] = {}
        total = 0
        for s in self.samples(start, end):
            total += 1
            fp = s[S_FP]
            if fp is None:
                continue
            counts[fp] = counts.get(fp, 0) + 1
            per_wait = waits.setdefault(fp, {})
            frame = "{0}.{1}".format(*top_frame(s))
            per_wait[frame] = per_wait.get(frame, 0) + 1
        records = []
        for fp, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            top_wait = sorted(waits[fp].items(),
                              key=lambda kv: (-kv[1], kv[0]))[0][0]
            records.append({
                "query_fingerprint": fp,
                "samples": n,
                "pct": round(100.0 * n / total, 2) if total else 0.0,
                "top_wait": top_wait,
            })
        return records[:limit] if limit else records

    def top_tenants(self, start=None, end=None, limit=None) -> list[dict]:
        counts: dict = {}
        total = 0
        for s in self.samples(start, end):
            total += 1
            tenant = s[S_TENANT]
            if tenant is None:
                continue
            counts[tenant] = counts.get(tenant, 0) + 1
        records = [
            {
                "tenant": tenant,
                "samples": n,
                "pct": round(100.0 * n / total, 2) if total else 0.0,
            }
            for tenant, n in sorted(counts.items(),
                                    key=lambda kv: (-kv[1], str(kv[0])))
        ]
        return records[:limit] if limit else records

    def timeline(self, start=None, end=None,
                 bucket_seconds: float | None = None) -> list[dict]:
        """Bucketed workload phases: per fixed-width bucket, the sample
        count, active/idle split, and per-wait-class totals (rolled up by
        the shared ``wait_class_totals`` helper, the same rollup the
        traffic harness report uses on the counter delta)."""
        width = bucket_seconds or (self.interval * TIMELINE_BUCKETS_PER_INTERVAL)
        if width <= 0:
            width = 1.0
        buckets: dict[int, list] = {}
        for s in self.samples(start, end):
            index = int(s[S_T] / width)
            info = buckets.get(index)
            if info is None:
                # [samples, active, synthesized wait counters]
                info = buckets[index] = [0, 0, {}]
            info[0] += 1
            if s[S_STATE] == "active":
                info[1] += 1
            stack = s[S_STACK]
            if stack:
                name = COUNT_PREFIX + "{0}.{1}".format(*stack[-1])
                info[2][name] = info[2].get(name, 0) + 1
        records = []
        for index in sorted(buckets):
            samples, active, counters = buckets[index]
            records.append({
                "bucket": index,
                "start_s": index * width,
                "end_s": (index + 1) * width,
                "samples": samples,
                "active": active,
                "idle": samples - active,
                "wait_classes": json.dumps(
                    wait_class_totals(counters), sort_keys=True),
            })
        return records

    def flamegraph(self, start=None, end=None) -> str:
        """Collapsed-stack export: ``node;wclass;event;...;fingerprint
        count`` lines (sorted), counts summing to the number of samples
        in range. Sessions with no live wait collapse under synthetic
        ``CPU;Running`` / ``Idle;<state>`` frames so every sample is
        represented and the totals reconcile with the ring."""
        counts: dict[str, int] = {}
        for s in self.samples(start, end):
            frames = [s[S_NODE]]
            stack = s[S_STACK]
            if stack:
                for wclass, event in stack:
                    frames.append(wclass)
                    frames.append(event)
            elif s[S_STATE] == "active":
                frames += ["CPU", "Running"]
            else:
                frames += ["Idle", s[S_STATE].replace(" ", "_")]
            if s[S_FP]:
                frames.append(s[S_FP])
            key = ";".join(frames)
            counts[key] = counts.get(key, 0) + 1
        return "\n".join(f"{stack} {n}" for stack, n in sorted(counts.items()))

    # ------------------------------------------------------- diagnostics

    def slo_diagnostics(self, start=None, end=None, top_n: int = 5) -> dict:
        """What the traffic harness embeds in its report when an SLO
        fails: the top waits and fingerprints overlapping the failing
        window, plus a one-line headline naming the dominant non-idle
        wait ("62% of samples in TwoPC.CommitPrepared on node w2")."""
        sampled = self.samples(start, end)
        waits = self.top_waits(start, end, limit=top_n)
        queries = self.top_queries(start, end, limit=top_n)
        headline = None
        busy = next((w for w in waits if w["wait_event_type"] != "Idle"), None)
        if busy is not None:
            headline = (
                f"{busy['pct']}% of ASH samples in "
                f"{busy['wait_event_type']}.{busy['wait_event']}"
                f" on node {busy['top_node']}"
            )
        return {
            "window": [start, end],
            "samples": len(sampled),
            "sampling_interval_s": self.interval,
            "top_waits": waits,
            "top_queries": queries,
            "headline": headline,
        }

    # -------------------------------------------------------- prometheus

    def prometheus_lines(self, format_value, labels) -> list[str]:
        """``citus_ash_*`` families for ``citus_metrics_snapshot`` (the
        ``ash_samples`` / ``ash_sample_ticks`` lifetime counters ride the
        plain-counter exporter already). Emitted in sorted order with the
        snapshot module's canonical formatters."""
        lines = [
            "# TYPE citus_ash_ring_samples gauge",
            f"citus_ash_ring_samples {len(self.ring)}",
            "# TYPE citus_ash_ring_capacity gauge",
            f"citus_ash_ring_capacity {self.ring.capacity}",
            "# TYPE citus_ash_sampling_interval_seconds gauge",
            f"citus_ash_sampling_interval_seconds {format_value(self.interval)}",
        ]
        by_node: dict[str, int] = {}
        by_wait: dict[tuple, int] = {}
        for s in self.ring:
            by_node[s[S_NODE]] = by_node.get(s[S_NODE], 0) + 1
            key = top_frame(s)
            by_wait[key] = by_wait.get(key, 0) + 1
        node_lines = [
            f"citus_ash_node_samples{labels(node=node)} {by_node[node]}"
            for node in sorted(by_node)
        ]
        if node_lines:
            lines.append("# TYPE citus_ash_node_samples gauge")
            lines.extend(node_lines)
        wait_lines = [
            "citus_ash_wait_samples"
            + labels(**{"class": wclass, "event": event})
            + f" {by_wait[(wclass, event)]}"
            for wclass, event in sorted(by_wait)
        ]
        if wait_lines:
            lines.append("# TYPE citus_ash_wait_samples gauge")
            lines.extend(wait_lines)
        return lines
