"""Index access methods: B-tree and GIN (trigram).

Indexes map key values to heap TIDs. They are *not* MVCC-aware — like
PostgreSQL, they may return TIDs of invisible tuple versions; the executor
rechecks visibility (and for GIN, rechecks the predicate) against the heap,
and deletes the entries of versions it finds dead to every snapshot
(``executor._fetch_candidates``), so a much-updated row's key stays short
between VACUUMs.

The GIN index models ``pg_trgm``'s ``gin_trgm_ops``: the indexed expression
is rendered to text, split into trigrams, and each trigram maps to the set
of TIDs containing it. An ``ILIKE '%needle%'`` probe intersects the TID
sets of the needle's trigrams — the same containment-with-recheck strategy
PostgreSQL uses for Figure 7(b)'s dashboard query.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import chain
from operator import itemgetter

from ..sql import ast as A
from .compile import get_compiled
from .datum import sort_key, to_text
from .expr import EvalContext, Row, RowLayout


#: The fields of one column's part of a B-tree key, and what pads a
#: :func:`sort_key` (two to four fields) to them.
_COLUMN_WIDTH = 4
_PAD = {2: (0, 0), 3: (0,)}


#: :func:`sort_key`'s type rank of an exact int and of a str, the two key
#: types :func:`_column_key` writes out without asking it.
_INT_RANK, _STR_RANK = sort_key(0)[1], sort_key("")[1]


def _column_key(value) -> tuple:
    """One column's part of a B-tree key: :func:`sort_key`, padded to four
    fields with zeros — the same order (a shorter key sorts first only
    against a longer one it is a prefix of, where the pad's 0 is below the
    longer key's last field), at a fixed width."""
    kind = type(value)
    if kind is int:
        return (0, _INT_RANK, value, 0)
    if kind is str:
        return (0, _STR_RANK, value, 0)
    key = sort_key(value)
    return key if len(key) == _COLUMN_WIDTH else key + _PAD[len(key)]


class BTreeIndex:
    """One sorted list of ``(key, tid)`` pairs, searched by bisection.

    A key is one flat tuple of atomic values, four per column
    (:func:`_column_key`): a sorted list of such pairs orders as the
    per-column :func:`sort_key` tuples would, so heterogeneous values order
    consistently with the executor's ORDER BY, and the collector untracks
    a key the first time it looks at it (a tuple of tuples takes one
    collection per level). Equal keys are ordered by tid, so an entry's
    place is found by one bisection on the pair however many duplicates
    its key has. A probe bisects with a 1-tuple ``(key prefix,)``, which
    sorts just before every pair whose key starts with that prefix.
    """

    def __init__(self, n_columns: int):
        self.n_columns = n_columns
        self._entries: list[tuple[tuple, int]] = []  # (sortable_key, tid)

    @staticmethod
    def make_key(values) -> tuple:
        if len(values) == 1:
            return _column_key(values[0])
        return tuple(chain.from_iterable(map(_column_key, values)))

    def insert(self, values, tid: int) -> None:
        bisect.insort(self._entries, (self.make_key(values), tid))

    def delete(self, values, tid: int) -> None:
        """Drop the entry ``(key of values, tid)``; a no-op when it is not
        (or no longer) there."""
        entry = (self.make_key(values), tid)
        entries = self._entries
        pos = bisect.bisect_left(entries, entry)
        if pos < len(entries) and entries[pos] == entry:
            del entries[pos]

    def prune(self, dead_tids: set[int]) -> None:
        """Drop every entry pointing at a reclaimed TID, in one pass."""
        self._entries = [e for e in self._entries if e[1] not in dead_tids]

    def scan_equal(self, values) -> list[int]:
        """TIDs whose leading columns equal ``values`` (may be a prefix)."""
        prefix = self.make_key(values)
        width = len(prefix)
        entries = self._entries
        whole = width == _COLUMN_WIDTH * self.n_columns  # no slice to compare
        tids = []
        for i in range(bisect.bisect_left(entries, (prefix,)), len(entries)):
            key, tid = entries[i]
            if (key if whole else key[:width]) != prefix:
                break
            tids.append(tid)
        return tids

    def scan_range(self, low=None, high=None, low_inclusive=True, high_inclusive=True) -> list[int]:
        """TIDs with leading-column key in [low, high] (single-column ranges)."""
        low_key = _column_key(low) if low is not None else None
        high_key = _column_key(high) if high is not None else None
        entries = self._entries
        lo = bisect.bisect_left(entries, (low_key,)) if low_key is not None else 0
        tids = []
        for i in range(lo, len(entries)):
            key, tid = entries[i]
            first = key[:_COLUMN_WIDTH]
            if high_key is not None:
                beyond = first > high_key if high_inclusive else first >= high_key
                if beyond:
                    break
            if low_key is not None and not low_inclusive and first == low_key:
                continue
            tids.append(tid)
        return tids

    def scan_all(self) -> list[int]:
        """All TIDs in key order (index-only-scan ordering)."""
        return [tid for _, tid in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


def trigrams(text: str) -> set[str]:
    """pg_trgm-style trigram extraction (lower-cased, space-padded words)."""
    grams: set[str] = set()
    for word in text.lower().split():
        padded = "  " + word + " "
        for i in range(len(padded) - 2):
            grams.add(padded[i : i + 3])
    return grams


class GinIndex:
    """Inverted index: trigram -> set of TIDs. Rechecks happen at the heap."""

    def __init__(self):
        self._postings: dict[str, set[int]] = defaultdict(set)
        self._tid_keys: dict[int, set[str]] = {}
        self.entry_count = 0

    def insert(self, value, tid: int) -> None:
        grams = trigrams(to_text(value)) if value is not None else set()
        self._tid_keys[tid] = grams
        for gram in grams:
            self._postings[gram].add(tid)
        self.entry_count += len(grams)

    def delete(self, value, tid: int) -> None:
        for gram in self._tid_keys.pop(tid, set()):
            postings = self._postings.get(gram)
            if postings:
                postings.discard(tid)
                self.entry_count -= 1

    def prune(self, dead_tids: set[int]) -> None:
        """Drop the postings of every reclaimed TID."""
        for tid in dead_tids:
            self.delete(None, tid)

    def __len__(self) -> int:
        """Number of indexed TIDs."""
        return len(self._tid_keys)

    def search_substring(self, needle: str) -> set[int] | None:
        """Candidate TIDs that may contain ``needle`` (ILIKE '%needle%').

        Returns None when the needle is too short to extract trigrams from
        (the planner must fall back to a sequential scan, as PostgreSQL does).
        """
        grams = _substring_trigrams(needle)
        if not grams:
            return None
        result: set[int] | None = None
        for gram in grams:
            postings = self._postings.get(gram, set())
            result = set(postings) if result is None else (result & postings)
            if not result:
                return set()
        return result if result is not None else set()


def _substring_trigrams(needle: str) -> set[str]:
    """Trigrams fully contained in any match of %needle% (no padding —
    we don't know the match boundaries)."""
    grams: set[str] = set()
    for word in needle.lower().split():
        if len(word) < 3:
            continue
        for i in range(len(word) - 2):
            grams.add(word[i : i + 3])
    return grams


def row_key_fn(table, exprs):
    """``key(values) -> list``: the values of ``exprs`` over one heap row
    of ``table``, with everything resolved here, once: plain columns are
    read by position, anything else through its compiled closure."""
    parts = []  # a column position, or a compiled closure
    layout = None
    for expr in exprs:
        if type(expr) is A.ColumnRef and expr.table in (None, table.name):
            parts.append(table.column_index(expr.name))
            continue
        if layout is None:
            layout = RowLayout.of(table.name, table.column_names())
        parts.append(get_compiled(expr, layout))
    if layout is None:
        if len(parts) == 1:  # itemgetter(one position) returns a bare value
            position = parts[0]
            return lambda values: [values[position]]
        if not parts:
            return lambda values: []
        getter = itemgetter(*parts)
        return lambda values: list(getter(values))
    ctx = EvalContext(Row(layout))

    def key(values):
        ctx.values = values
        return [values[part] if type(part) is int else part(ctx)
                for part in parts]

    return key


def index_key_fn(table, index):
    """``key(values) -> list``: :func:`row_key_fn` of ``index`` over heap
    rows of ``table``, made once and kept on the index until its table's
    columns change."""
    key = index.key
    if key is None:
        key = index.key = row_key_fn(table, index.exprs)
    return key


def index_key_values(table, index, values: list) -> list:
    """The key of one heap row in ``index``."""
    return index_key_fn(table, index)(values)


def _entry_key(table, index, tup):
    """What ``index.data`` files one heap tuple version under: its key,
    or for GIN the one indexed value."""
    key = index_key_fn(table, index)(tup.values)
    return key[0] if isinstance(index.data, GinIndex) else key


def index_insert(table, index, tup) -> None:
    """Add one heap tuple version to ``index``."""
    index.data.insert(_entry_key(table, index, tup), tup.tid)


def index_delete(table, index, tup) -> None:
    """Drop one heap tuple version's entry from ``index``, if it is there."""
    index.data.delete(_entry_key(table, index, tup), tup.tid)
