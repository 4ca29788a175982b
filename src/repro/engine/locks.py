"""Multi-granularity lock manager with a wait-for graph.

Provides table-level lock modes (a condensed version of PostgreSQL's eight
modes) and row-level exclusive locks keyed by ``(table, row_id)``. Because
the simulation is single-threaded, a conflicting acquisition does not block
a thread: it raises :class:`WouldBlock` carrying the holder, and the session
layer decides to park the statement (async execution), run deadlock
detection, or surface a lock conflict. The wait-for graph built here is
exactly what the Citus distributed deadlock detector polls from each worker
(§3.7.3: "edges in their lock graph (process a waits for process b)").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError

# Table lock modes, weakest to strongest.
ACCESS_SHARE = "AccessShare"
ROW_SHARE = "RowShare"
ROW_EXCLUSIVE = "RowExclusive"
SHARE = "Share"
SHARE_ROW_EXCLUSIVE = "ShareRowExclusive"
EXCLUSIVE = "Exclusive"
ACCESS_EXCLUSIVE = "AccessExclusive"

_MODES = [
    ACCESS_SHARE,
    ROW_SHARE,
    ROW_EXCLUSIVE,
    SHARE,
    SHARE_ROW_EXCLUSIVE,
    EXCLUSIVE,
    ACCESS_EXCLUSIVE,
]
_LEVEL = {mode: i for i, mode in enumerate(_MODES)}

# conflicts[a] = set of modes that conflict with a (PostgreSQL's matrix,
# condensed to the modes we implement).
_CONFLICTS = {
    ACCESS_SHARE: {ACCESS_EXCLUSIVE},
    ROW_SHARE: {EXCLUSIVE, ACCESS_EXCLUSIVE},
    ROW_EXCLUSIVE: {SHARE, SHARE_ROW_EXCLUSIVE, EXCLUSIVE, ACCESS_EXCLUSIVE},
    SHARE: {ROW_EXCLUSIVE, SHARE_ROW_EXCLUSIVE, EXCLUSIVE, ACCESS_EXCLUSIVE},
    SHARE_ROW_EXCLUSIVE: {ROW_EXCLUSIVE, SHARE, SHARE_ROW_EXCLUSIVE, EXCLUSIVE, ACCESS_EXCLUSIVE},
    EXCLUSIVE: {ROW_SHARE, ROW_EXCLUSIVE, SHARE, SHARE_ROW_EXCLUSIVE, EXCLUSIVE, ACCESS_EXCLUSIVE},
    ACCESS_EXCLUSIVE: set(_MODES),
}


class WouldBlock(ReproError):
    """Internal signal: the lock is held in a conflicting mode.

    Not a user-facing error — the session layer catches it.
    """

    def __init__(self, key, holders: set[int], mode: str):
        super().__init__(f"lock {key} held by {sorted(holders)} (wanted {mode})")
        self.key = key
        self.holders = holders
        self.mode = mode


@dataclass
class _TableLock:
    holders: dict[int, str] = field(default_factory=dict)  # xid -> strongest mode


class LockManager:
    def __init__(self):
        self._table_locks: dict[str, _TableLock] = {}
        self._row_locks: dict[tuple, int] = {}  # (table, row_id) -> xid
        # xid -> set of xids it waits for (edges polled by the deadlock detector)
        self.wait_edges: dict[int, set[int]] = {}
        # xid -> the lock key it is waiting on (("table", name) or
        # ("row", table, row_id)); feeds the citus_lock_waits view.
        self.wait_keys: dict[int, tuple] = {}
        self._held_tables: dict[int, set[str]] = {}
        self._held_rows: dict[int, set[tuple]] = {}

    # ------------------------------------------------------------ tables

    def acquire_table(self, table: str, mode: str, xid: int) -> None:
        lock = self._table_locks.setdefault(table, _TableLock())
        current = lock.holders.get(xid)
        if current is not None and _LEVEL[current] >= _LEVEL[mode]:
            return
        conflicts = {
            other
            for other, held in lock.holders.items()
            if other != xid and (held in _CONFLICTS[mode] or mode in _CONFLICTS[held])
        }
        if conflicts:
            raise WouldBlock(("table", table), conflicts, mode)
        lock.holders[xid] = mode if current is None or _LEVEL[mode] > _LEVEL[current] else current
        self._held_tables.setdefault(xid, set()).add(table)

    # -------------------------------------------------------------- rows

    def acquire_row(self, table: str, row_id: int, xid: int) -> None:
        key = (table, row_id)
        holder = self._row_locks.get(key)
        if holder is not None and holder != xid:
            raise WouldBlock(("row",) + key, {holder}, "RowExclusive")
        self._row_locks[key] = xid
        self._held_rows.setdefault(xid, set()).add(key)

    # ----------------------------------------------------------- waiting

    def add_wait(self, waiter_xid: int, holder_xids: set[int],
                 key: tuple | None = None) -> None:
        self.wait_edges.setdefault(waiter_xid, set()).update(
            h for h in holder_xids if h != waiter_xid
        )
        if key is not None:
            self.wait_keys[waiter_xid] = key

    def clear_wait(self, waiter_xid: int) -> None:
        self.wait_edges.pop(waiter_xid, None)
        self.wait_keys.pop(waiter_xid, None)

    def wait_graph_edges(self) -> list[tuple[int, int]]:
        """Flattened (waiter, holder) edges — the payload workers return to
        the distributed deadlock detector."""
        return [
            (waiter, holder)
            for waiter, holders in self.wait_edges.items()
            for holder in holders
        ]

    def find_local_cycle(self) -> list[int] | None:
        """Detect a cycle in the local wait-for graph; returns the xids on
        the cycle or None. This is PostgreSQL's single-node deadlock check."""
        return find_cycle(self.wait_edges)

    # ------------------------------------------------------------ release

    def release_all(self, xid: int) -> None:
        for table in self._held_tables.pop(xid, ()):  # noqa: B007
            lock = self._table_locks.get(table)
            if lock:
                lock.holders.pop(xid, None)
                if not lock.holders:
                    self._table_locks.pop(table, None)
        for key in self._held_rows.pop(xid, ()):
            if self._row_locks.get(key) == xid:
                del self._row_locks[key]
        self.clear_wait(xid)
        # Nobody should keep waiting on a finished transaction.
        for holders in self.wait_edges.values():
            holders.discard(xid)

    def transfer(self, old_xid: int, new_xid: int) -> None:
        """Re-own all locks (used when a prepared transaction is recovered
        after a crash: PREPARE TRANSACTION preserves locks)."""
        for table in self._held_tables.pop(old_xid, set()).copy():
            lock = self._table_locks.setdefault(table, _TableLock())
            mode = lock.holders.pop(old_xid, ACCESS_SHARE)
            lock.holders[new_xid] = mode
            self._held_tables.setdefault(new_xid, set()).add(table)
        for key in self._held_rows.pop(old_xid, set()).copy():
            self._row_locks[key] = new_xid
            self._held_rows.setdefault(new_xid, set()).add(key)


def find_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    """Find a cycle in a waiter→holder digraph; returns the cycle nodes."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    stack: list[int] = []

    def visit(node: int) -> list[int] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in edges.get(node, ()):  # noqa: B007
            c = color.get(nxt, WHITE)
            if c == GRAY:
                return stack[stack.index(nxt):]
            if c == WHITE:
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for start in list(edges):
        if color.get(start, WHITE) == WHITE:
            cycle = visit(start)
            if cycle is not None:
                return cycle
    return None
