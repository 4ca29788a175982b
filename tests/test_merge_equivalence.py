"""The run-draining MergeAppend against the row-at-a-time heap merge.

The coordinator's concat-mode merge hands out rows a run at a time; what
it replaced — a ``heapq`` merge paying a key tuple, a push and a pop per
row — is kept here verbatim as the reference. Over fake pre-sorted shard
streams (clock-free: no cluster, no network) the two must agree on the
rows, on *when* each stream is fetched from (stream index, rows handed to
the consumer so far), on every ``note_buffered`` value, and on what a
satisfied LIMIT leaves unfetched.
"""

import heapq
from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.citus.planner.pushdown import PushdownSelect, stream_concat_runs
from repro.engine.datum import ordering
from repro.engine.datum import sort_key as value_sort_key
from repro.engine.executor import _group_key
from repro.sql import ast as A

# ------------------------------------------------------------ the reference


class _Reversed:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


def make_concat_sort_key(plan, visible_width):
    specs = []
    for position_spec, ascending, nulls_first in plan.hidden_sort_keys:
        kind, index = position_spec
        position = index if kind == "pos" else visible_width + index
        nf = nulls_first if nulls_first is not None else not ascending
        specs.append((position, ascending, nf))

    def key_fn(row):
        keys = []
        for position, ascending, nf in specs:
            value = row[position] if position < len(row) else None
            null_rank = (0 if nf else 1) if value is None else (1 if nf else 0)
            value_key = value_sort_key(value)
            if not ascending:
                value_key = _Reversed(value_key)
            keys.append((null_rank, value_key))
        return keys

    return key_fn


def _merge_append_rows(plan, streams, execution, visible_width):
    """PR 16's heap merge, verbatim."""
    key_fn = make_concat_sort_key(plan, visible_width)
    pending = [deque() for _ in streams]
    heap: list = []
    held = 0
    seq = 0

    def push_next(index):
        nonlocal held, seq
        rows = pending[index]
        if not rows:
            batch = streams[index].fetch()
            if not batch:
                return
            rows.extend(batch)
            held += len(batch)
            execution.note_buffered(held)
        row = rows.popleft()
        heapq.heappush(heap, (key_fn(row), index, seq, row))
        seq += 1

    for index in range(len(streams)):
        push_next(index)
    while heap:
        _key, index, _seq, row = heapq.heappop(heap)
        held -= 1
        yield row
        push_next(index)


def _concat_rows(streams, execution):
    for stream in streams:
        while True:
            batch = stream.fetch()
            if batch is None:
                break
            execution.note_buffered(len(batch))
            for row in batch:
                yield row


def reference_concat_rows(plan, execution):
    """PR 16's ``stream_concat_rows``: one row at a time (DISTINCT keyed by
    the engine's ``_group_key``, the fix that rides with this change)."""
    streams = execution.streams
    offset = plan.offset.value if plan.offset is not None else 0
    limit = plan.limit.value if plan.limit is not None else None
    first_columns = list(streams[0].columns) if streams else []
    n_appended = plan.n_visible
    visible_width = len(first_columns) - n_appended
    if plan.hidden_sort_keys:
        source = _merge_append_rows(plan, streams, execution, visible_width)
    else:
        source = _concat_rows(streams, execution)
    try:
        seen = set() if plan.distinct else None
        skipped = 0
        emitted = 0
        satisfied = limit is not None and limit <= 0
        if not satisfied:
            for row in source:
                if n_appended:
                    row = row[:visible_width]
                if seen is not None:
                    key = tuple(_group_key(v) for v in row)
                    if key in seen:
                        continue
                    seen.add(key)
                if skipped < offset:
                    skipped += 1
                    continue
                yield row
                emitted += 1
                if limit is not None and emitted >= limit:
                    satisfied = True
                    break
        if satisfied and any(not s.done for s in streams):
            execution.note_early_termination()
    finally:
        for stream in streams:
            stream.close()


# ------------------------------------------------------------- fake streams


class FakeStream:
    """One shard's pre-sorted rows behind ``TaskStream``'s pull surface,
    with ``RemoteCursor``'s end-of-stream rule: a short batch ends the
    stream in-band, a full last batch needs one more (empty) fetch."""

    def __init__(self, execution, index, rows, batch_size, width):
        self.execution, self.index = execution, index
        self.rows, self.batch_size = rows, batch_size
        self.columns = [f"c{i}" for i in range(width)]
        self.cursor = 0
        self.exhausted = self.done = self.closed = False

    def fetch(self):
        if self.done:
            return None
        self.execution.trace.append((self.index, self.execution.delivered))
        batch = None
        if not self.exhausted:
            batch = self.rows[self.cursor:self.cursor + self.batch_size]
            self.cursor += len(batch)
            self.exhausted = len(batch) < self.batch_size
        if not batch:
            self.done = True
            return None
        return batch

    def close(self):
        self.done = self.closed = True


class FakeExecution:
    def __init__(self, shards, batch_size, width):
        self.trace = []  # (stream index, rows delivered before the fetch)
        self.buffered = []  # every note_buffered value
        self.delivered = 0
        self.early_terminations = 0
        self.streams = [FakeStream(self, i, rows, batch_size, width)
                        for i, rows in enumerate(shards)]

    def note_buffered(self, n):
        self.buffered.append(n)

    def note_early_termination(self):
        self.early_terminations += 1

    def observed(self):
        return (self.trace, self.buffered, self.early_terminations,
                [s.closed for s in self.streams])


def run_reference(plan, shards, batch_size, width):
    execution = FakeExecution(shards, batch_size, width)
    out = []
    for row in reference_concat_rows(plan, execution):
        out.append(row)
        execution.delivered += 1
    return out, execution.observed()


def run_merge(plan, shards, batch_size, width):
    execution = FakeExecution(shards, batch_size, width)
    out = []
    for run in stream_concat_runs(plan, execution, None, None):
        assert run, "runs are never empty"
        out.extend(run)
        execution.delivered += len(run)
    return out, execution.observed()


def make_plan(sort_keys, n_appended=0, distinct=False, offset=None, limit=None):
    return PushdownSelect(
        mode="concat", master_query=None, intermediate_columns=[],
        visible_columns=[], hidden_sort_keys=sort_keys, distinct=distinct,
        offset=None if offset is None else A.Literal(offset),
        limit=None if limit is None else A.Literal(limit),
        n_visible=n_appended)


def worker_sorted(rows, sort_keys, first_key_position):
    """What a worker's ORDER BY returns: one stable sort per key, last key
    first (``LocalExecutor._sort_pairs``)."""
    for offset, (_, ascending, nulls_first) in reversed(list(enumerate(sort_keys))):
        descending, key = ordering(ascending, nulls_first)
        rows = sorted(rows, key=lambda row: key(row[first_key_position + offset]),
                      reverse=descending)
    return rows


# --------------------------------------------------------------- properties

_INTS = st.integers(-3, 3)  # a narrow range: ties everywhere
_BIGINTS = st.sampled_from([2**53, 2**53 + 1, -2**63, 2**63 - 1, 0])
_FLOATS = st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0, 2.5])
_STRS = st.sampled_from(["", "a", "B", "b", "é", "ab", "10", "9"])
_BOOLS = st.booleans()
_KEY_VALUES = {
    "int": _INTS,
    "bigint": st.one_of(_INTS, _BIGINTS),
    "float": _FLOATS,
    "str": _STRS,
    "bool": _BOOLS,
    "int+float": st.one_of(_INTS, _FLOATS),
    "mixed": st.one_of(_INTS, _FLOATS, _STRS, _BOOLS),
}


@st.composite
def merge_cases(draw):
    n_keys = draw(st.integers(1, 3))
    directions = [(draw(st.booleans()), draw(st.sampled_from([None, True, False])))
                  for _ in range(n_keys)]
    values = []
    for _ in range(n_keys):
        kind = draw(st.sampled_from(sorted(_KEY_VALUES)))
        column = _KEY_VALUES[kind]
        if draw(st.booleans()):
            column = st.one_of(st.none(), column)
        values.append(column)
    # The keys are output columns ("pos") or hidden ones appended after a
    # payload column; with no unique id in the row DISTINCT has work to do.
    appended = draw(st.booleans())
    with_id = draw(st.booleans())
    first_key = 1
    sort_keys = [(("appended" if appended else "pos", i if appended else i + 1),
                  ascending, nulls_first)
                 for i, (ascending, nulls_first) in enumerate(directions)]
    shards = []
    serial = 0
    for _ in range(draw(st.integers(1, 6))):
        rows = []
        for keys in draw(st.lists(st.tuples(*values), max_size=15)):
            serial += 1
            rows.append([serial if with_id else serial % 2, *keys])
        shards.append(worker_sorted(rows, sort_keys, first_key))
    plan = make_plan(
        sort_keys if draw(st.integers(0, 7)) else [],  # sometimes no ORDER BY
        n_appended=n_keys if appended else 0,
        distinct=draw(st.booleans()),
        offset=draw(st.one_of(st.none(), st.integers(0, 8))),
        limit=draw(st.one_of(st.none(), st.integers(0, 25))))
    return plan, shards, draw(st.integers(1, 7)), 1 + n_keys


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(merge_cases())
def test_run_draining_merge_equals_the_heap_merge(case):
    """Rows, fetch trace, buffered-row counts, early termination and
    stream closing all equal the row-at-a-time reference's."""
    plan, shards, batch_size, width = case
    expected_rows, expected_seen = run_reference(plan, shards, batch_size, width)
    rows, seen = run_merge(plan, shards, batch_size, width)
    assert rows == expected_rows
    # ``==`` on rows lets True pass for 1: compare the types too.
    assert [[type(v) for v in row] for row in rows] \
        == [[type(v) for v in row] for row in expected_rows]
    assert seen == expected_seen


# ------------------------------------------------------------ named corners

ASC = [(("pos", 0), True, None)]


def both(plan, shards, batch_size, width=1):
    expected = run_reference(plan, shards, batch_size, width)
    got = run_merge(plan, shards, batch_size, width)
    assert got == expected
    return got


def test_limit_satisfied_mid_run_fetches_nothing_more_and_closes_every_stream():
    shards = [[[1], [2], [3], [9]], [[4], [5], [6], [7]], [[8]]]
    rows, (trace, buffered, early, closed) = both(
        make_plan(ASC, limit=2), shards, batch_size=4)
    assert rows == [[1], [2]]
    # Stream 1's 7 is the horizon, so the first run is 1 ... 7: the three
    # initial fetches, then the LIMIT is met inside that run.
    assert trace == [(0, 0), (1, 0), (2, 0)]
    assert buffered == [4, 8, 9]
    assert early == 1 and closed == [True, True, True]


def test_limit_met_by_the_last_row_of_a_run_does_not_fetch_the_next_batch():
    shards = [[[1], [2], [3], [4]], [[5], [6]]]
    rows, (trace, _, early, closed) = both(
        make_plan(ASC, limit=2), shards, batch_size=2)
    assert rows == [[1], [2]]
    assert trace == [(0, 0), (1, 0)]  # stream 0's second batch stays put
    assert early == 1 and closed == [True, True]


def test_a_tie_across_a_batch_boundary_keeps_task_then_arrival_order():
    # Stream 0's batch ends on key 2 and its next batch starts with key 2;
    # stream 1 starts with key 2: all of stream 0's 2s come first.
    shards = [[[1, "a"], [2, "b"], [2, "c"], [3, "d"]],
              [[2, "e"], [2, "f"], [4, "g"]]]
    rows, (trace, _, _, _) = both(make_plan(ASC), shards, batch_size=2, width=2)
    assert [r[1] for r in rows] == ["a", "b", "c", "e", "f", "d", "g"]
    # Stream 1's 2s wait until stream 0's next batch has shown its 2.
    assert trace[:3] == [(0, 0), (1, 0), (0, 2)]


def test_a_null_in_a_later_batch_rekeys_what_is_buffered():
    shards = [[[1], [5], [None]], [[2], [3], [4]], [[0], [None], [None]]]
    for nulls_first in (None, False):
        rows, _ = both(make_plan([(("pos", 0), True, nulls_first)]),
                       shards, batch_size=2)
        assert rows == [[0], [1], [2], [3], [4], [5], [None], [None], [None]]


def test_descending_ints_and_strings():
    ints = [[[9], [4], [4]], [[7], [4], [1]], []]
    rows, _ = both(make_plan([(("pos", 0), False, None)]), ints, batch_size=2)
    assert rows == [[9], [7], [4], [4], [4], [1]]
    strs = [[["b"], ["a"]], [["c"], ["a"], [""]]]
    rows, _ = both(make_plan([(("pos", 0), False, None)]), strs, batch_size=1)
    assert rows == [["c"], ["b"], ["a"], ["a"], [""]]


def test_a_sort_position_past_the_row_orders_nothing():
    shards = [[[3], [1]], [[2]]]
    rows, _ = both(make_plan([(("pos", 5), True, None)]), shards, batch_size=2)
    assert rows == [[3], [1], [2]]  # task order, as if every key were NULL


def test_no_streams_and_empty_streams():
    assert both(make_plan(ASC), [], batch_size=3)[0] == []
    assert both(make_plan(ASC), [[], [], []], batch_size=3)[0] == []
    assert both(make_plan(ASC, limit=0), [[[1]]], batch_size=3)[0] == []
