"""Transaction IDs, commit log (clog), and MVCC snapshots.

The model follows PostgreSQL: every transaction gets a 64-bit-ish
monotonically increasing xid; a snapshot records the set of transactions
that were in progress when it was taken plus the next-xid horizon; tuple
visibility is decided from (xmin, xmax) against the snapshot and the
commit log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

IN_PROGRESS = "in_progress"
COMMITTED = "committed"
ABORTED = "aborted"
PREPARED = "prepared"


@dataclass
class Snapshot:
    """An MVCC snapshot: xids >= xmax or in ``in_progress`` are invisible."""

    xmax: int
    in_progress: frozenset = frozenset()
    # The xid of the owning transaction; its own effects are always visible.
    own_xid: int = 0
    #: xid -> :meth:`sees_xid`, filled by :meth:`Heap.scan`. The verdict
    #: cannot change while the snapshot lives: the only xids the commit log
    #: is asked about are below ``xmax`` and outside ``in_progress``, so
    #: they had already committed or aborted when the snapshot was taken.
    #: The three that must never be remembered as visible are invisible by
    #: the snapshot's own fields, whatever the log says later — a writer
    #: still running, a prepared 2PC writer awaiting COMMIT PREPARED (it
    #: stays in ``XidManager.active``, hence in ``in_progress``), and an
    #: xid at or past the ``xmax`` horizon.
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)

    def sees_xid(self, xid: int, clog: "CommitLog") -> bool:
        """Whether a transaction's effects are visible to this snapshot."""
        if xid == self.own_xid:
            return True
        if xid >= self.xmax or xid in self.in_progress:
            return False
        return clog.status(xid) == COMMITTED


class CommitLog:
    """Transaction status registry (PostgreSQL's pg_xact / clog)."""

    def __init__(self):
        self._status: dict[int, str] = {}

    def begin(self, xid: int) -> None:
        self._status[xid] = IN_PROGRESS

    def commit(self, xid: int) -> None:
        self._status[xid] = COMMITTED

    def abort(self, xid: int) -> None:
        self._status[xid] = ABORTED

    def prepare(self, xid: int) -> None:
        self._status[xid] = PREPARED

    def status(self, xid: int) -> str:
        # Unknown xids are treated as aborted (crash before commit record).
        return self._status.get(xid, ABORTED)

    def snapshot_state(self) -> dict[int, str]:
        return dict(self._status)


class XidManager:
    """Allocates xids and produces snapshots."""

    def __init__(self, start: int = 100):
        self.next_xid = start
        self.clog = CommitLog()
        self.active: set[int] = set()
        #: Snapshots that outlive the statement that took them — one per
        #: open cursor, from open until the session is told it finished.
        self.pinned: list[Snapshot] = []

    def allocate(self) -> int:
        xid = self.next_xid
        self.next_xid += 1
        self.active.add(xid)
        self.clog.begin(xid)
        return xid

    def finish(self, xid: int, committed: bool) -> None:
        if committed:
            self.clog.commit(xid)
        else:
            self.clog.abort(xid)
        self.active.discard(xid)

    def mark_prepared(self, xid: int) -> None:
        """A prepared transaction is no longer running but its effects stay
        invisible (it is neither committed nor aborted)."""
        self.clog.prepare(xid)
        # It stays in `active` so snapshots keep treating it as in-progress.

    def resolve_prepared(self, xid: int, committed: bool) -> None:
        self.finish(xid, committed)

    def take_snapshot(self, own_xid: int = 0) -> Snapshot:
        return Snapshot(self.next_xid, frozenset(self.active), own_xid)

    def horizon(self) -> int:
        """The xid below which a committed delete is seen by every snapshot
        that exists or can still be taken — the one place that says which
        transactions may yet need an old version (PostgreSQL's
        oldest-snapshot xmin). A snapshot taken from now on treats exactly
        ``active`` as in progress (prepared xids stay in it until they are
        resolved); a pinned one whatever was in progress when it was taken,
        and nothing at or past its own ``xmax``. The value never
        decreases: new xids and new snapshots start at or above it."""
        oldest = min(self.active, default=self.next_xid)
        for snapshot in self.pinned:
            oldest = min(oldest, snapshot.xmax, *snapshot.in_progress)
        return oldest


@dataclass(slots=True)
class HeapTupleHeader:
    """MVCC header carried by every heap tuple version."""

    xmin: int
    xmax: int | None = None


def tuple_visible(header: HeapTupleHeader, snapshot: Snapshot, clog: CommitLog) -> bool:
    """PostgreSQL-style visibility check for one tuple version."""
    if not snapshot.sees_xid(header.xmin, clog):
        return False
    if header.xmax is None:
        return True
    # Deleted: invisible if the deleter is visible to us (incl. ourselves),
    # unless the deleting transaction aborted.
    if header.xmax == snapshot.own_xid:
        return False
    if snapshot.sees_xid(header.xmax, clog):
        return False
    return True
