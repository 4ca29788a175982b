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
existing :func:`~repro.citus.introspection.session_activity` path (query
deparse skipped — only the fingerprint digest is kept). One **sample** is
one (boundary, session) pair:

``(virtual timestamp, global PID, node, state, full WaitEventStack frames
— not just the top one —, fingerprint digest, planner tier, tenant
dist-key, distributed txn id)``

Samples land in a bounded ring (:data:`BUFFER_SIZE`, newest-N
retention). Because virtual time is deterministic, two same-seed runs
produce byte-for-byte identical rings — the ASH dump is part of the
``bench_traffic`` determinism gate.

Report modes (the ``citus_ash()`` UDF; :data:`MODES` has each one's
columns):

- ``samples`` — the raw ring, optionally windowed to ``[start, end]``;
- ``top_waits`` / ``top_queries`` / ``top_tenants`` — sample-count
  rollups over a time range, ranked by :func:`~.record.rank` (a session
  with no live wait counts as ``CPU.Running`` while active,
  ``Idle.<state>`` otherwise);
- ``timeline`` — fixed-width buckets with active/idle splits and
  per-wait-class sample counts;
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
from collections import Counter

from .introspection import session_activity
from .record import Ring, rank

#: Sample tuple layout (kept a plain tuple: the ring holds up to
#: ``BUFFER_SIZE`` of them and dict samples would triple memory).
S_T, S_GPID, S_NODE, S_STATE, S_STACK, S_FP, S_TIER, S_TENANT, S_DTXN = \
    range(9)

#: Ring capacity, in session-samples (not ticks).
BUFFER_SIZE = 65536

#: Timeline buckets default to this many sampling intervals.
TIMELINE_BUCKETS_PER_INTERVAL = 10

#: Columns of each report's rows.
SAMPLE_COLUMNS = ("sample_time", "global_pid", "nodename", "state",
                  "wait_event_type", "wait_event", "wait_stack",
                  "query_fingerprint", "citus_tier", "tenant",
                  "distributed_txn_id")
WAIT_COLUMNS = ("wait_event_type", "wait_event", "samples", "pct", "top_node")
QUERY_COLUMNS = ("query_fingerprint", "samples", "pct", "top_wait")
TENANT_COLUMNS = ("tenant", "samples", "pct")
TIMELINE_COLUMNS = ("bucket", "start_s", "end_s", "samples", "active", "idle",
                    "wait_classes")


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
        self.ring = Ring(BUFFER_SIZE)
        self.interval = 0.0
        self.enabled = False
        self.ext = None
        self._attached = False
        # Re-entrancy latch: sampling must never recurse, even if a future
        # capture path advances the clock while we walk the sessions.
        self._sampling = False

    # --------------------------------------------------------- lifecycle

    def configure(self, enabled: bool, interval: float, ext=None) -> None:
        """(Re)apply the ash GUCs: attaches or detaches the clock
        observer."""
        if ext is not None and (self.ext is None
                                or getattr(ext, "is_coordinator", False)):
            self.ext = ext
        self.interval = float(interval)
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
        via the activity view's path (deparse skipped)."""
        rows = []
        for session, (gpid, node, _pid, dtxn, _app, state, _wait_type,
                      _wait, tier, _query, fingerprint, _elapsed) \
                in session_activity(self.ext, with_query=False):
            rows.append((
                gpid,
                node,
                state,
                tuple((we.wclass, we.event)
                      for we in session.wait_events.frames()),
                fingerprint,
                tier,
                getattr(session, "_citus_tenant", None),
                dtxn,
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

    def sample_rows(self, start=None, end=None) -> list[list]:
        """The raw ring over the range, one :data:`SAMPLE_COLUMNS` row per
        sample."""
        rows = []
        for t, gpid, node, state, stack, fp, tier, tenant, dtxn in \
                self.samples(start, end):
            wait_type, wait = stack[-1] if stack else (None, None)
            rows.append([t, gpid, node, state, wait_type, wait,
                         ">".join(f"{c}.{e}" for c, e in stack), fp, tier,
                         tenant, dtxn])
        return rows

    def top_waits(self, start=None, end=None) -> list[list]:
        """Sample counts by reported wait (class, event) over the range,
        busiest first, each with the node contributing most samples
        (:data:`WAIT_COLUMNS`)."""
        sampled = self.samples(start, end)
        return [[wclass, event, n, round(100.0 * n / len(sampled), 2), node]
                for (wclass, event), n, node in rank(
                    ((top_frame(s), s[S_NODE]) for s in sampled),
                    with_detail=True)]

    def top_queries(self, start=None, end=None) -> list[list]:
        """Sample counts by statement fingerprint (sessions with no
        statement are skipped; pct is still of *all* samples in range, so
        the numbers read as time shares of the window), each with the wait
        it reported most (:data:`QUERY_COLUMNS`)."""
        sampled = self.samples(start, end)
        return [[fp, n, round(100.0 * n / len(sampled), 2), wait]
                for fp, n, wait in rank(
                    ((s[S_FP], "{0}.{1}".format(*top_frame(s)))
                     for s in sampled if s[S_FP] is not None),
                    with_detail=True)]

    def top_tenants(self, start=None, end=None) -> list[list]:
        """Sample counts by tenant, busiest first (:data:`TENANT_COLUMNS`)."""
        sampled = self.samples(start, end)
        return [[tenant, n, round(100.0 * n / len(sampled), 2)]
                for tenant, n in rank(s[S_TENANT] for s in sampled
                                      if s[S_TENANT] is not None)]

    def timeline(self, start=None, end=None,
                 bucket_seconds: float | None = None) -> list[list]:
        """Bucketed workload phases: per fixed-width bucket (default
        :data:`TIMELINE_BUCKETS_PER_INTERVAL` sampling intervals), the
        sample count, active/idle split, and per-wait-class counts of the
        waits sampled in it (:data:`TIMELINE_COLUMNS`)."""
        width = bucket_seconds or (self.interval * TIMELINE_BUCKETS_PER_INTERVAL)
        if width <= 0:
            width = 1.0
        buckets: dict[int, list] = {}
        for s in self.samples(start, end):
            index = int(s[S_T] / width)
            info = buckets.get(index)
            if info is None:
                # [samples, active, wait class -> samples]
                info = buckets[index] = [0, 0, Counter()]
            info[0] += 1
            if s[S_STATE] == "active":
                info[1] += 1
            stack = s[S_STACK]
            if stack:
                info[2][stack[-1][0]] += 1
        return [[index, index * width, (index + 1) * width, samples, active,
                 samples - active, json.dumps(classes, sort_keys=True)]
                for index, (samples, active, classes) in sorted(buckets.items())]

    def flamegraph(self, start=None, end=None) -> str:
        """Collapsed-stack export: ``node;wclass;event;...;fingerprint
        count`` lines (sorted), counts summing to the number of samples
        in range. Sessions with no live wait collapse under the synthetic
        frame :func:`top_frame` reports for them, so every sample is
        represented and the totals reconcile with the ring."""
        counts = Counter()
        for s in self.samples(start, end):
            frames = [s[S_NODE]]
            for wclass, event in s[S_STACK] or (top_frame(s),):
                frames += (wclass, event)
            if s[S_FP]:
                frames.append(s[S_FP])
            counts[";".join(frames)] += 1
        return "\n".join(f"{stack} {n}" for stack, n in sorted(counts.items()))

    # ------------------------------------------------------- diagnostics

    def slo_diagnostics(self, start=None, end=None, top_n: int = 5) -> dict:
        """What the traffic harness embeds in its report when an SLO
        fails: the top waits and fingerprints overlapping the failing
        window (records keyed by column), plus a one-line headline naming
        the dominant non-idle wait ("62% of samples in
        TwoPC.CommitPrepared on node w2")."""
        sampled = self.samples(start, end)
        waits = [dict(zip(WAIT_COLUMNS, row))
                 for row in self.top_waits(start, end)[:top_n]]
        queries = [dict(zip(QUERY_COLUMNS, row))
                   for row in self.top_queries(start, end)[:top_n]]
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

    def metric_families(self) -> list[tuple]:
        """``citus_ash_*`` families for ``citus_metrics_snapshot``, as
        :func:`.metrics.render` takes them. The ring's capacity is the
        ring-health family's, and the ``ash_samples`` / ``ash_sample_ticks``
        lifetime counters are plain counters."""
        return [
            ("citus_ash_ring_samples", "gauge", [({}, len(self.ring))]),
            ("citus_ash_sampling_interval_seconds", "gauge",
             [({}, self.interval)]),
            ("citus_ash_node_samples", "gauge",
             [({"node": node}, n)
              for node, n in sorted(rank(s[S_NODE] for s in self.ring))]),
            ("citus_ash_wait_samples", "gauge",
             [({"class": wclass, "event": event}, n)
              for (wclass, event), n
              in sorted(rank(map(top_frame, self.ring)))]),
        ]


#: ``citus_ash(mode, ...)``: mode -> (the report method, the columns of its
#: rows); flamegraph is text and has none.
MODES = {
    "samples": (AshSampler.sample_rows, SAMPLE_COLUMNS),
    "top_waits": (AshSampler.top_waits, WAIT_COLUMNS),
    "top_queries": (AshSampler.top_queries, QUERY_COLUMNS),
    "top_tenants": (AshSampler.top_tenants, TENANT_COLUMNS),
    "timeline": (AshSampler.timeline, TIMELINE_COLUMNS),
    "flamegraph": (AshSampler.flamegraph, None),
}
