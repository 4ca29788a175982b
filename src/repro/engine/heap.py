"""Heap storage: MVCC tuple versions, page accounting, dead tuples, vacuum.

A :class:`Heap` stores all versions of all rows of one table (or one shard —
shards are just tables named ``<table>_<shardid>``). Each logical row keeps
a stable ``row_id`` across UPDATE version chains, which is what row-level
locks attach to.

Page accounting feeds the performance model: the paper's benchmarks hinge
on whether the working set fits in memory, so the heap tracks an estimated
on-disk size from row widths.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from .datum import to_text
from .mvcc import ABORTED, COMMITTED, CommitLog, Snapshot

PAGE_SIZE = 8192
TUPLE_OVERHEAD = 28  # header bytes per tuple, roughly PostgreSQL's


@dataclass(slots=True)
class HeapTuple:
    """One stored version of a row, with its MVCC header: ``xmin`` wrote
    it, ``xmax`` (None while live) deleted or replaced it."""

    tid: int
    row_id: int
    values: list
    xmin: int
    xmax: int | None = None
    #: The next-older stored version of the same logical row (its version
    #: chain, newest first); maintained by :class:`Heap`.
    older: "HeapTuple | None" = field(default=None, repr=False, compare=False)
    #: Estimated stored size, computed once where the version is written
    #: (:meth:`Heap.insert`, or a write shape's generated writer); what
    #: ``live_bytes`` grew by, so what dead-tuple accounting and vacuum
    #: take back.
    width: int = field(default=0, repr=False, compare=False)


def _value_width(value) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 4
    if isinstance(value, (dict, list)):
        return len(to_text(value)) + 8
    return 16


#: What :func:`_value_width` gives every value of each Python type a cast
#: can fix (``datum.exact_type``), NULL aside: bytes, or ``LENGTH`` for a
#: ``str`` (its length + 4). A column whose type fixes none (jsonb, arrays,
#: unknown types) measures each value.
LENGTH = "length"
VALUE_WIDTHS = {int: 8, float: 8, bool: 1, str: LENGTH, _dt.date: 16,
                _dt.datetime: 16}


def _visible(tuples, snapshot: Snapshot, clog: CommitLog):
    """Yield the ``tuples`` visible to the snapshot: :func:`mvcc.tuple_visible`
    inlined, asking the snapshot about each distinct xid once
    (``Snapshot.verdicts``). ``xmax`` is read fresh per tuple."""
    verdicts = snapshot.verdicts
    sees_xid = snapshot.sees_xid
    for tup in tuples:
        xid = tup.xmin
        seen = verdicts.get(xid)
        if seen is None:
            seen = verdicts[xid] = sees_xid(xid, clog)
        if not seen:
            continue
        xid = tup.xmax
        if xid is not None:
            # Deleted, unless the deleter is invisible to us or aborted.
            seen = verdicts.get(xid)
            if seen is None:
                seen = verdicts[xid] = sees_xid(xid, clog)
            if seen:
                continue
        yield tup


class Heap:
    """All tuple versions of one table, in insertion order."""

    def __init__(self, name: str):
        self.name = name
        self.tuples: list[HeapTuple] = []
        self._by_tid: dict[int, HeapTuple] = {}
        # row_id -> newest stored version; older versions hang off
        # HeapTuple.older, so a row's chain costs one dict slot.
        self._newest: dict[int, HeapTuple] = {}
        self._next_tid = 1
        self._next_row_id = 1
        self.live_bytes = 0
        self.dead_bytes = 0
        self.dead_tuples = 0

    # ------------------------------------------------------------- writes

    def insert(self, values: list, xmin: int, row_id: int | None = None) -> HeapTuple:
        if row_id is None:
            row_id = self._next_row_id
            self._next_row_id += 1
        values = list(values)
        width = TUPLE_OVERHEAD
        for value in values:
            width += _value_width(value)
        tid = self._next_tid
        tup = HeapTuple(tid, row_id, values, xmin, None,
                        self._newest.get(row_id), width)
        self._newest[row_id] = tup
        self._next_tid = tid + 1
        self.tuples.append(tup)
        self._by_tid[tid] = tup
        self.live_bytes += width
        return tup

    def mark_deleted(self, tid: int, xmax: int) -> HeapTuple:
        tup = self._by_tid[tid]
        tup.xmax = xmax
        return tup

    def get(self, tid: int) -> HeapTuple | None:
        return self._by_tid.get(tid)

    # -------------------------------------------------------------- reads

    def scan(self, snapshot: Snapshot, clog: CommitLog):
        """Yield the tuples visible to the snapshot, in insertion order."""
        return _visible(self.tuples, snapshot, clog)

    def fetch(self, tids, snapshot: Snapshot, clog: CommitLog):
        """Yield the visible tuples among ``tids`` — index candidates:
        indexes are not MVCC-aware and may name reclaimed versions."""
        return _visible(filter(None, map(self._by_tid.get, tids)), snapshot, clog)

    def versions(self, row_id: int):
        """Stored versions of one logical row, newest first."""
        tup = self._newest.get(row_id)
        while tup is not None:
            yield tup
            tup = tup.older

    def latest_version(self, row_id: int, clog: CommitLog | None = None) -> HeapTuple | None:
        """The newest non-aborted version of a logical row (used by UPDATE
        re-checks after lock waits). Versions inserted by aborted
        transactions are skipped — they are not part of the live chain.
        Walks only the row's own version chain."""
        tup = self._newest.get(row_id)
        if clog is not None:
            while tup is not None and clog.status(tup.xmin) == ABORTED:
                tup = tup.older
        return tup

    # ------------------------------------------------------------- vacuum

    @staticmethod
    def is_dead(tup: HeapTuple, horizon: int, clog: CommitLog) -> bool:
        """Whether no snapshot can see this version, now or ever: its
        inserter aborted (an xid the log does not know — a crash before
        the commit record — reads as aborted), or its deleter committed
        below ``horizon`` (:meth:`XidManager.horizon`). Monotone: once
        true it stays true, which is what lets both VACUUM and an index
        probe act on it without coordination."""
        if clog.status(tup.xmin) == ABORTED:
            return True
        xmax = tup.xmax
        return (xmax is not None and xmax < horizon
                and clog.status(xmax) == COMMITTED)

    def vacuum(self, horizon: int, clog: CommitLog) -> list[int]:
        """Remove the versions that are dead to every snapshot
        (:meth:`is_dead`), as PostgreSQL's autovacuum does. Returns the
        TIDs of the reclaimed versions, so the caller can prune the index
        entries still pointing at them.
        """
        keep: list[HeapTuple] = []
        reclaimed: list[int] = []
        newest: dict[int, HeapTuple] = {}
        is_dead = self.is_dead
        for tup in self.tuples:
            if is_dead(tup, horizon, clog):
                reclaimed.append(tup.tid)
                self.live_bytes -= tup.width
                del self._by_tid[tup.tid]
            else:
                # Re-link the chains over the survivors only.
                tup.older = newest.get(tup.row_id)
                newest[tup.row_id] = tup
                keep.append(tup)
        self.tuples = keep
        self._newest = newest
        self.dead_tuples = 0
        self.dead_bytes = 0
        return reclaimed

    def note_dead(self, tup: HeapTuple) -> None:
        self.dead_tuples += 1
        self.dead_bytes += tup.width

    # ---------------------------------------------------------- statistics

    @property
    def total_bytes(self) -> int:
        return max(self.live_bytes, 0)

    @property
    def page_count(self) -> int:
        return max(1, (self.total_bytes + PAGE_SIZE - 1) // PAGE_SIZE)

