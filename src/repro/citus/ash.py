"""Active Session History: what the cluster's statements waited on, when.

``citus_dist_stat_activity`` answers "what is the cluster doing *right
now*" and the counters answer "what happened in total"; this module
answers the question operators ask when a tail-latency SLO breaks: *what
were the statements between t1 and t2 waiting on?* It is the simulation's
equivalent of pg_wait_sampling / Oracle-style ASH, without the sampling.

ASH is a fold over closed statement records (:mod:`.record`), beside the
statement, tenant, co-access and slow-log folds. Every wait a wait-event
stack accounts while a record is current — live (a lock, a pool lease) or
reconstructed from the cost model (a round trip, a 2PC phase, a WAL
flush) — is noted on that record (:meth:`ActiveSessionHistory.note`,
from :meth:`~repro.engine.waitevents.WaitEventStack.record`): its whole
microseconds, summed per (class, event, node). The part of a microsecond
left over carries into the key's next wait, so the totals stay within a
microsecond per key of the exact sums (a wait's cost is often a fraction
of a microsecond past a whole one, and rounding each wait alone would
drift). The fold turns each closed top-level statement into one row of a
bounded ring (:data:`BUFFER_SIZE`, newest-N retention):

``(start, end, backend pid, node, fingerprint digest, planner tier,
tenant, *waits)``

its waits flat ``(class, event, node), µs`` pairs, every row holding the
one key object per (class, event, node). A report over ``[start, end]``
reads the rows of the statements overlapping it, and every report sums the
same integers, so the wait totals of ``top_waits``, ``timeline`` and
``flamegraph`` over one range are equal.
The waits of a statement's parallel tasks add up, so its wait time can
exceed its duration: no report derives a busy time as duration minus
waits. Rows hold simulated times and are folded in emission order, so two
same-seed runs dump byte-identical reports.

Report modes (the ``citus_ash()`` UDF; :data:`MODES` has each one's
columns):

- ``statements`` — the ring's rows, each with its waits;
- ``top_waits`` / ``top_queries`` / ``top_tenants`` — wait time by
  (class, event), fingerprint and tenant, ranked by
  :func:`~.record.rank`, each with the node / wait carrying most of it;
- ``timeline`` — fixed-width buckets by statement start: statements,
  wait time, and wait time per class;
- ``flamegraph`` — collapsed-stack text (``node;class;event;fingerprint
  µs``, the node the wait was on), one line per distinct stack, for
  flamegraph.pl or speedscope.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from ..sql.facts import statement_facts, statement_fingerprint
from .introspection import global_pid
from .record import Ring, rank

# Row fields; a row's waits follow as ``(class, event, node), µs`` pairs.
R_START, R_END, R_PID, R_NODE, R_FP, R_TIER, R_TENANT, R_WAITS = range(8)

#: Ring capacity, in statements: about 0.4 MB full (rows of one to three
#: waits, measured under tracemalloc).
BUFFER_SIZE = 2048

#: Timeline bucket width when none is given.
TIMELINE_BUCKET_SECONDS = 1.0

#: Columns of each report's rows.
STATEMENT_COLUMNS = ("start_s", "end_s", "global_pid", "nodename",
                     "query_fingerprint", "citus_tier", "tenant", "wait_us",
                     "waits")
WAIT_COLUMNS = ("wait_event_type", "wait_event", "wait_us", "pct", "top_node")
QUERY_COLUMNS = ("query_fingerprint", "wait_us", "pct", "top_wait")
TENANT_COLUMNS = ("tenant", "wait_us", "pct")
TIMELINE_COLUMNS = ("bucket", "start_s", "end_s", "statements", "wait_us",
                    "wait_classes")


def _pct(part: int, whole: int) -> float:
    return round(100.0 * part / whole, 2) if whole else 0.0


def _waits(row):
    """A row's waits: ``((class, event, node), µs)`` pairs."""
    return zip(row[R_WAITS::2], row[R_WAITS + 1::2])


class ActiveSessionHistory:
    """The cluster-shared ASH ring: a fold over closed statement records,
    run by :class:`~.telemetry.Telemetry` while ``citus.enable_ash`` is
    on. Switching it off keeps the ring."""

    def __init__(self):
        self.ring = Ring(BUFFER_SIZE)
        #: (class, event, node) -> [that key, the µs fraction carried over].
        self.keys: dict = {}
        self.ext = None  # the coordinator's extension: global PIDs

    def reset(self) -> None:
        """citus_stat_reset('ash'). The carries restart at zero in place:
        the wait-event stacks hold them."""
        self.ring.clear()
        for entry in self.keys.values():
            entry[1] = 0.0

    def carry(self, key: tuple) -> list:
        """``[key, µs fraction carried over]`` of (class, event, node)."""
        entry = self.keys.get(key)
        if entry is None:
            entry = self.keys[key] = [key, 0.0]
        return entry

    def note(self, record, carry: list, seconds: float) -> None:
        """A wait of ``carry``'s key accounted while ``record`` is current:
        its whole µs join the key's in ``record.waits`` (flat ``key, µs``
        pairs, a list until the record closes), the fraction carries."""
        micros = carry[1] + seconds * 1e6
        us = int(micros)
        carry[1] = micros - us
        if us:
            waits = record.waits
            key = carry[0]
            if not waits:
                record.waits = [key, us]
                return
            for i in range(0, len(waits), 2):
                if waits[i] is key:
                    waits[i + 1] += us
                    return
            waits += (key, us)

    def fold(self, records) -> None:
        """Each closed top-level statement becomes one row."""
        self.ring.extend([
            (record.start, record.end, record.pid, record.node,
             record.digest if record.digest is not None or record.stmt is None
             else statement_fingerprint(statement_facts(record.stmt))[1],
             record.tier, record.tenant, *record.waits)
            for record in records])

    # ----------------------------------------------------------- reading

    def rows(self, start: float | None = None,
             end: float | None = None) -> list[tuple]:
        """Ring rows of the statements overlapping ``[start, end]``
        (bounds inclusive, either optional), in the order they closed."""
        lo = -math.inf if start is None else start
        hi = math.inf if end is None else end
        return [row for row in self.ring
                if row[R_START] <= hi and row[R_END] >= lo]

    def statement_rows(self, start=None, end=None) -> list[list]:
        """:data:`STATEMENT_COLUMNS` rows, waits as ``[class, event, node,
        µs]`` lists."""
        return [[row[R_START], row[R_END],
                 global_pid(self.ext, row[R_NODE], row[R_PID]),
                 *row[R_NODE:R_WAITS], sum(row[R_WAITS + 1::2]),
                 [[*key, us] for key, us in _waits(row)]]
                for row in self.rows(start, end)]

    def _ranked(self, start, end, by, detail) -> list[tuple]:
        """Wait time in range by ``by(row, (class, event, node))`` (None:
        not counted), busiest first: ``(key, µs, pct of all wait time in
        range, the detail(row, wait) carrying most of it)``."""
        waits = [(row, wait, us) for row in self.rows(start, end)
                 for wait, us in _waits(row)]
        total = sum(us for _row, _wait, us in waits)
        return [(key, us, _pct(us, total), top) for key, us, top in rank(
            ((by(row, wait), detail(row, wait), us)
             for row, wait, us in waits if by(row, wait) is not None),
            with_detail=True)]

    def top_waits(self, start=None, end=None) -> list[list]:
        """Wait time by (class, event), each with the node that waited most
        on it (:data:`WAIT_COLUMNS`)."""
        return [[*wait, us, pct, node] for wait, us, pct, node in self._ranked(
            start, end, lambda _row, wait: wait[:2],
            lambda _row, wait: wait[2])]

    def top_queries(self, start=None, end=None) -> list[list]:
        """Wait time by statement fingerprint, each with the wait it spent
        most on (:data:`QUERY_COLUMNS`)."""
        return [list(ranked) for ranked in self._ranked(
            start, end, lambda row, _wait: row[R_FP],
            lambda _row, wait: f"{wait[0]}.{wait[1]}")]

    def top_tenants(self, start=None, end=None) -> list[list]:
        """Wait time by tenant (:data:`TENANT_COLUMNS`)."""
        return [[tenant, us, pct] for tenant, us, pct, _none in self._ranked(
            start, end, lambda row, _wait: row[R_TENANT], lambda *_: None)]

    def timeline(self, start=None, end=None,
                 bucket_seconds: float | None = None) -> list[list]:
        """Fixed-width buckets (default :data:`TIMELINE_BUCKET_SECONDS`) by
        statement start: statements, wait time and wait time per class
        (:data:`TIMELINE_COLUMNS`)."""
        width = bucket_seconds or TIMELINE_BUCKET_SECONDS
        buckets: dict[int, list] = {}
        for row in self.rows(start, end):
            index = int(row[R_START] / width)
            info = buckets.get(index)
            if info is None:
                info = buckets[index] = [0, Counter()]  # statements, per class
            info[0] += 1
            for (wclass, _event, _node), us in _waits(row):
                info[1][wclass] += us
        return [[index, index * width, (index + 1) * width, statements,
                 sum(classes.values()), json.dumps(classes, sort_keys=True)]
                for index, (statements, classes) in sorted(buckets.items())]

    def flamegraph(self, start=None, end=None) -> str:
        """Collapsed-stack export: ``node;class;event;fingerprint µs``
        lines (sorted), the µs summing to the wait time in range."""
        stacks = Counter()
        for row in self.rows(start, end):
            tail = f";{row[R_FP]}" if row[R_FP] else ""
            for (wclass, event, node), us in _waits(row):
                stacks[f"{node};{wclass};{event}{tail}"] += us
        return "\n".join(f"{stack} {us}"
                         for stack, us in sorted(stacks.items()))

    # ------------------------------------------------------- diagnostics

    def slo_diagnostics(self, start=None, end=None, top_n: int = 5) -> dict:
        """What the traffic harness embeds in its report when an SLO
        fails: the top waits and fingerprints of the statements
        overlapping the failing window (records keyed by column), and a
        one-line headline naming the top wait ("62.1% of wait time in
        TwoPC.CommitPrepared on node worker2"; None when nothing waited)."""
        waits = [dict(zip(WAIT_COLUMNS, row))
                 for row in self.top_waits(start, end)]
        top = waits[0] if waits else None
        return {
            "window": [start, end],
            "statements": len(self.rows(start, end)),
            "wait_us": sum(wait["wait_us"] for wait in waits),
            "top_waits": waits[:top_n],
            "top_queries": [dict(zip(QUERY_COLUMNS, row))
                            for row in self.top_queries(start, end)[:top_n]],
            "headline": top and (
                f"{top['pct']}% of wait time in {top['wait_event_type']}."
                f"{top['wait_event']} on node {top['top_node']}"),
        }


#: ``citus_ash(mode, ...)``: mode -> (the report method, the columns of its
#: rows); flamegraph is text and has none.
MODES = {
    "statements": (ActiveSessionHistory.statement_rows, STATEMENT_COLUMNS),
    "top_waits": (ActiveSessionHistory.top_waits, WAIT_COLUMNS),
    "top_queries": (ActiveSessionHistory.top_queries, QUERY_COLUMNS),
    "top_tenants": (ActiveSessionHistory.top_tenants, TENANT_COLUMNS),
    "timeline": (ActiveSessionHistory.timeline, TIMELINE_COLUMNS),
    "flamegraph": (ActiveSessionHistory.flamegraph, None),
}
