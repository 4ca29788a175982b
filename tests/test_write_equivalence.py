"""The prepared write path must be indistinguishable from the per-row one.

``LocalExecutor.append_rows`` (one loop behind INSERT, COPY and
``insert_rows``, driven by a prepared ``WriteShape``) and the shape-driven
DELETE replaced a per-row sequence that resolved everything again for every
row. That sequence is kept here, verbatim, as the reference::

    _build_full_row -> _check_not_null -> _find_conflict
        -> _check_foreign_keys -> _do_insert
    _check_referencing_keys -> _do_delete

Hypothesis drives the same script of statements through two fresh
instances — one with the reference loops patched in under the unchanged
``Session`` machinery (xids, autocommit, abort), one as shipped — and
requires the same heap versions, index entries (of every version some
snapshot can still see: see ``state_of``), WAL records and
``bytes_written``, ``live_bytes`` / ``dead_bytes``, ``rows_written`` /
``index_writes`` / ``rows_copied`` statistics, sequence positions, and the
same error class and message from every statement (an error at another row
leaves another heap and WAL, so "at the same row" is part of the state).

One deliberate difference is folded into the reference: the parent's INSERT
probed unique keys *before* NOT NULL while its COPY checked NOT NULL first;
the single driver uses COPY's (and PostgreSQL's) order for both, so the
reference INSERT does too. And, as in PostgreSQL, the reference's unique
probe waits for another transaction inserting the same key, in progress or
prepared (``_wait_for_inserter``); the parent's saw through a prepared one.
"""

import datetime as dt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PostgresInstance
from repro.engine import copy as engine_copy
from repro.engine.compile import evaluate
from repro.engine.datum import cast_value, compare_values
from repro.engine.executor import LocalExecutor, QueryResult
from repro.engine.expr import EMPTY_LAYOUT
from repro.engine.index import GinIndex, index_insert
from repro.engine.mvcc import IN_PROGRESS, PREPARED, tuple_visible
from repro.engine.locks import WouldBlock
from repro.errors import (
    DataError,
    ForeignKeyViolation,
    LockTimeout,
    NotNullViolation,
    SQLError,
    UniqueViolation,
)
from repro.sql import ast as A

# --------------------------------------------------------------------------
# the parent's per-row write path, verbatim (methods of LocalExecutor there)
# --------------------------------------------------------------------------


def _pick(values, names, wanted):
    return [values[names.index(c)] if c in names else None for c in wanted]


def _build_full_row(self, table, columns, values):
    full = []
    for col in table.columns:
        if col.name in columns:
            full.append(cast_value(values[columns.index(col.name)], col.type_name))
        elif col.is_serial:
            seq = self.catalog.get_sequence(f"{table.name}_{col.name}_seq")
            full.append(seq.nextval())
        elif col.default is not None:
            ctx = self._ctx(EMPTY_LAYOUT, None)
            full.append(cast_value(evaluate(col.default, ctx), col.type_name))
        else:
            full.append(None)
    return full


def _check_not_null(self, table, full):
    for col, value in zip(table.columns, full):
        if col.not_null and value is None:
            raise NotNullViolation(
                f"null value in column {col.name!r} of relation {table.name!r}"
            )


def _unique_key_sets(self, table):
    if table.primary_key:
        yield table.primary_key
    for cols in table.unique_constraints:
        yield cols
    for index in table.indexes.values():
        if index.unique:
            cols = [e.name for e in index.exprs if isinstance(e, A.ColumnRef)]
            if len(cols) == len(index.exprs):
                yield cols


def _index_for_columns(self, table, cols):
    for index in table.indexes.values():
        if isinstance(index.data, GinIndex):
            continue
        index_cols = [e.name for e in index.exprs if isinstance(e, A.ColumnRef)]
        if index_cols[: len(cols)] == list(cols):
            return index
    return None


def _find_conflict(self, table, full, on_conflict, written=False):
    snapshot = self.session.snapshot()
    clog = self.instance.xids.clog
    names = table.column_names()
    for cols in _unique_key_sets(self, table):
        key_values = _pick(full, names, cols)
        if any(v is None for v in key_values):
            continue
        positions = [names.index(c) for c in cols]
        index = _index_for_columns(self, table, cols)
        if index is not None:
            candidates = [table.heap.get(tid) for tid in index.data.scan_equal(key_values)]
        else:
            candidates = table.heap.tuples
        for tup in candidates:
            if tup is None:
                continue
            if not tuple_visible(tup, snapshot, clog):
                continue
            existing = tup.values
            if all(
                existing[p] is not None
                and compare_values(existing[p], v) == 0
                for p, v in zip(positions, key_values)
            ):
                if on_conflict is not None and on_conflict.columns:
                    if set(on_conflict.columns) != set(cols):
                        raise UniqueViolation(
                            f"duplicate key violates unique constraint on {cols}"
                        )
                return tup
        if index is not None:
            _wait_for_inserter(self, table, candidates, positions, key_values, written)
    return None


def _wait_for_inserter(self, table, candidates, positions, key_values, written):
    """Another transaction inserting the same key, still in progress or
    prepared, is waited for: ``WouldBlock`` on its xid, or ``LockTimeout``
    once the statement has written rows (it cannot run again)."""
    own, status = self.session.snapshot().own_xid, self.instance.xids.clog.status
    for tup in candidates:
        if (tup is not None and tup.xmin != own
                and status(tup.xmin) in (IN_PROGRESS, PREPARED)
                and all(tup.values[p] is not None and compare_values(tup.values[p], v) == 0
                        for p, v in zip(positions, key_values))):
            if written:
                raise LockTimeout(f"could not wait for transaction {tup.xmin}"
                                  f" inserting the same key into {table.name!r}")
            raise WouldBlock(("transactionid", tup.xmin), {tup.xmin}, "ShareLock")


def _check_foreign_keys(self, table, full):
    if not table.foreign_keys or not self.session.get_guc("foreign_key_checks", True):
        return
    names = table.column_names()
    snapshot = self.session.snapshot()
    clog = self.instance.xids.clog
    for fk in table.foreign_keys:
        values = _pick(full, names, fk.columns)
        if any(v is None for v in values):
            continue
        ref_table = self.catalog.get_table(fk.ref_table)
        ref_cols = fk.ref_columns or ref_table.primary_key
        index = _index_for_columns(self, ref_table, ref_cols)
        found = False
        if index is not None:
            for tid in index.data.scan_equal(values):
                tup = ref_table.heap.get(tid)
                if tup is not None and tuple_visible(tup, snapshot, clog):
                    found = True
                    break
        else:
            ref_names = ref_table.column_names()
            positions = [ref_names.index(c) for c in ref_cols]
            for tup in ref_table.heap.scan(snapshot, clog):
                if all(
                    tup.values[p] is not None
                    and compare_values(tup.values[p], v) == 0
                    for p, v in zip(positions, values)
                ):
                    found = True
                    break
        if not found:
            raise ForeignKeyViolation(
                f"insert on {table.name!r} violates foreign key to {fk.ref_table!r}"
            )


def _index_insert(self, table, tup):
    for index in table.indexes.values():
        if index.data is None:
            continue
        index_insert(table, index, tup)
        self.session.stats["index_writes"] += 1


def _jsonb(table):
    return tuple(i for i, col in enumerate(table.columns) if col.type_name == "jsonb")


def _do_insert(self, table, full):
    xid = self.session.ensure_xid()
    tup = table.heap.insert(full, xid)
    _index_insert(self, table, tup)
    self.instance.wal.append_row(xid, "insert", table.name, tup.row_id, full,
                                 _jsonb(table))
    self.session.track_write(table.name)
    return tup


def _check_referencing_keys(self, table, values):
    """ON DELETE RESTRICT semantics for incoming foreign keys."""
    if not self.session.get_guc("foreign_key_checks", True):
        return
    names = table.column_names()
    snapshot = self.session.snapshot()
    clog = self.instance.xids.clog
    for other in self.catalog.tables.values():
        for fk in other.foreign_keys:
            if fk.ref_table != table.name:
                continue
            ref_cols = fk.ref_columns or table.primary_key
            if not ref_cols:
                continue
            key = _pick(values, names, ref_cols)
            other_names = other.column_names()
            positions = [other_names.index(c) for c in fk.columns]
            for tup in other.heap.scan(snapshot, clog):
                if all(
                    tup.values[p] is not None and compare_values(tup.values[p], v) == 0
                    for p, v in zip(positions, key)
                ):
                    raise ForeignKeyViolation(
                        f"row in {table.name!r} is still referenced from {other.name!r}"
                    )


def _do_delete(self, table, tup):
    xid = self.session.ensure_xid()
    table.heap.mark_deleted(tup.tid, xid)
    table.heap.note_dead(tup)
    self.instance.wal.append_row(xid, "delete", table.name, tup.row_id)
    self.session.track_write(table.name)


def reference_copy_into(session, table_name, rows, columns=None):
    table = session.instance.catalog.get_table(table_name)
    session.acquire_table_lock(table_name, "RowExclusive")
    executor = LocalExecutor(session)
    columns = columns or table.column_names()
    count = 0
    for values in rows:
        values = list(values)
        if len(values) != len(columns):
            raise DataError(
                f"COPY row has {len(values)} values but {len(columns)} columns expected"
            )
        full = _build_full_row(executor, table, columns, values)
        _check_not_null(executor, table, full)
        if _find_conflict(executor, table, full, None, count > 0) is not None:
            raise UniqueViolation(
                f"duplicate key value violates unique constraint on {table_name!r}"
            )
        _check_foreign_keys(executor, table, full)
        _do_insert(executor, table, full)
        count += 1
    session.stats["rows_copied"] += count
    return count


def reference_insert_rows(session, table_name, rows, columns=None):
    table = session.instance.catalog.get_table(table_name)
    session.acquire_table_lock(table_name, "RowExclusive")
    executor = LocalExecutor(session)
    columns = list(columns or table.column_names())
    count = 0
    for values in rows:
        values = list(values)
        if len(values) != len(columns):
            raise DataError(
                f"INSERT has {len(values)} expressions"
                f" but {len(columns)} target columns"
            )
        full = _build_full_row(executor, table, columns, values)
        _check_not_null(executor, table, full)
        if _find_conflict(executor, table, full, None, count > 0) is not None:
            raise UniqueViolation(
                f"duplicate key value violates unique constraint on {table_name!r}"
            )
        _check_foreign_keys(executor, table, full)
        _do_insert(executor, table, full)
        count += 1
    return count


def reference_execute_insert(self, stmt, params):
    """The parent's ``execute_insert`` for VALUES rows without ON CONFLICT
    or RETURNING (those parts did not change), in the issue's order."""
    table = self.catalog.get_table(stmt.table)
    self.session.acquire_table_lock(table.name, "RowExclusive")
    columns = stmt.columns or table.column_names()
    ctx = self._ctx(EMPTY_LAYOUT, params)
    value_rows = [[evaluate(v, ctx) for v in row] for row in stmt.rows]
    inserted = 0
    for values in value_rows:
        if len(values) != len(columns):
            raise DataError(
                f"INSERT has {len(values)} expressions but {len(columns)} target columns"
            )
        full = _build_full_row(self, table, columns, values)
        _check_not_null(self, table, full)
        if _find_conflict(self, table, full, None, inserted > 0) is not None:
            raise UniqueViolation(
                f"duplicate key value violates unique constraint on {table.name!r}"
            )
        _check_foreign_keys(self, table, full)
        _do_insert(self, table, full)
        inserted += 1
    result = QueryResult([], [], command="INSERT")
    result.rowcount = inserted
    return result


def reference_execute_delete(self, stmt, params):
    table = self.catalog.get_table(stmt.table)
    self.session.acquire_table_lock(table.name, "RowExclusive")
    shape = self._dml_shape(stmt, table)
    deleted = 0
    ctx = self._ctx(shape.scan.layout, params)
    for tup in self._dml_target_rows(table, shape.scan, ctx):
        current = self._current_version(table, tup.row_id)
        if current is None:
            continue
        _check_referencing_keys(self, table, current.values)
        _do_delete(self, table, current)
        deleted += 1
    result = QueryResult([], [], command="DELETE")
    result.rowcount = deleted
    return result


# --------------------------------------------------------------------------
# the script both instances run
# --------------------------------------------------------------------------

SCHEMA = [
    "CREATE TABLE owners (id int PRIMARY KEY, label text)",
    # serial, default, NOT NULL (with and without a default), primary key,
    # a two-column UNIQUE that admits NULLs, an outgoing foreign key, and
    # one column of every type that needs a cast.
    "CREATE TABLE items ("
    " seq serial, k int PRIMARY KEY, owner int REFERENCES owners (id),"
    " a int, b text, qty float DEFAULT 1.5, ok bool NOT NULL DEFAULT true,"
    " tags int[], meta jsonb, day date, note text NOT NULL, UNIQUE (a, b))",
    # incoming foreign key: deleting a referenced item is restricted
    "CREATE TABLE refs (id int PRIMARY KEY, item int REFERENCES items (k))",
]

ITEM_COLUMNS = ["k", "owner", "a", "b", "qty", "ok", "tags", "meta", "day", "note"]

#: Per column ``(usual, hostile)``: values that are already right or need
#: a cast, and what only a *hostile* batch (one in five) may also hold — a
#: NULL where it is not allowed, a foreign key to nothing, a value no cast
#: accepts. Most statements must get past the casts and constraints to test
#: what comes after. Key domains are small enough for batches to collide.
VALUES = {
    "k": (st.one_of(st.integers(0, 15), st.sampled_from(["3", 4.0, 5.6, True])),
          st.sampled_from([None, "x"])),
    "owner": (st.sampled_from([None, 0, 1, "1", 0.0]), st.integers(2, 9)),
    "a": (st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["1", 2.0])),
          st.just("a")),
    "b": (st.one_of(st.none(), st.sampled_from(["x", "y", 7, True])), st.none()),
    "qty": (st.sampled_from([None, 2, 2.5, "3.25", "1e3", True]), st.just("q")),
    "ok": (st.sampled_from([True, False, "t", "no", "ON", 0, 1]),
           st.sampled_from([None, "maybe"])),
    "tags": (st.sampled_from([None, [1, 2], ["3", 4.0], []]), st.just("7")),
    "meta": (st.sampled_from([None, {"a": [1, 2]}, [1, "x"], '{"b": {"c": 1}}',
                              "[1, 2]", 5]), st.just("{oops")),
    "day": (st.sampled_from(
        [None, dt.date(2024, 2, 29), "2024-03-01", dt.datetime(2024, 3, 2, 10, 30),
         "2024-03-03T08:00:00"]), st.just("soon")),
    "note": (st.sampled_from(["n", "", 12, 1.5]), st.none()),
}


@st.composite
def item_batches(draw):
    columns = draw(st.lists(st.sampled_from(ITEM_COLUMNS), min_size=1,
                            max_size=len(ITEM_COLUMNS), unique=True))
    hostile = draw(st.integers(0, 4)) == 0
    # A friendly batch supplies what NOT NULL / the primary key need.
    for needed in ("k", "note"):
        if needed not in columns and not (hostile and draw(st.booleans())):
            columns.append(needed)
    columns = draw(st.permutations(columns))
    cells = [st.one_of(*VALUES[c]) if hostile else VALUES[c][0] for c in columns]
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=5))
    if hostile and draw(st.booleans()):  # a row of the wrong width
        rows.append(rows[-1] + (1,))
    return columns, [list(row) for row in rows]


@st.composite
def steps(draw):
    kind = draw(st.sampled_from(
        ["copy", "copy", "insert", "insert_rows", "owners", "refs",
         "delete_items", "delete_owner", "begin", "commit", "rollback",
         "prepare", "vacuum"]))
    if kind in ("copy", "insert", "insert_rows"):
        return (kind, *draw(item_batches()))
    if kind == "owners":
        return (kind, draw(st.lists(st.integers(1, 9), min_size=1, max_size=2,
                                    unique=True)))
    if kind == "refs":
        return (kind, draw(st.integers(0, 40)), draw(st.integers(0, 15)))
    if kind in ("delete_items", "delete_owner"):
        return (kind, draw(st.integers(0, 15)))
    return (kind,)


def outcome(fn):
    try:
        return ("ok", fn())
    except SQLError as exc:
        return ("err", type(exc).__name__, str(exc))


def run_script(script, reference: bool, monkeypatch_context):
    """Run ``script`` on a fresh instance; returns (per-step outcomes,
    final state)."""
    with monkeypatch_context() as patch:
        if reference:
            patch.setattr(engine_copy, "copy_into", reference_copy_into)
            patch.setattr(engine_copy, "insert_rows", reference_insert_rows)
            patch.setattr(LocalExecutor, "execute_insert", reference_execute_insert)
            patch.setattr(LocalExecutor, "execute_delete", reference_execute_delete)
        instance = PostgresInstance("w")
        session = instance.connect()
        for ddl in SCHEMA:
            session.execute(ddl)
        session.copy_rows("owners", [[0, "zero"], [1, "one"]])
        outcomes = []
        prepared = 0
        for step in script:
            kind = step[0]
            if kind == "copy":
                _kind, columns, rows = step
                run = lambda: session.copy_rows("items", rows, columns)  # noqa: E731
            elif kind == "insert":
                _kind, columns, rows = step
                width = len(rows[0])
                sql = (f"INSERT INTO items ({', '.join(columns)}) VALUES "
                       + ", ".join(
                           "(" + ", ".join(f"${r * width + c + 1}"
                                           for c in range(len(row))) + ")"
                           for r, row in enumerate(rows)))
                # Positions stay aligned: only the last row can be wider.
                params = [v for row in rows for v in row]
                run = lambda: session.execute(sql, params).rowcount  # noqa: E731
            elif kind == "insert_rows":
                _kind, columns, rows = step

                def run():
                    # insert_rows runs inside a statement of its caller's;
                    # an explicit block stands in for it here.
                    own_block = not session.in_transaction
                    if own_block:
                        session.execute("BEGIN")
                    try:
                        count = engine_copy.insert_rows(session, "items",
                                                        iter(rows), columns)
                    except SQLError:
                        session.execute("ROLLBACK")
                        raise
                    except WouldBlock as block:
                        # The caller's statement, run synchronously, times
                        # out on the wait.
                        session.execute("ROLLBACK")
                        raise LockTimeout(f"could not obtain lock: {block}") from None
                    if own_block:
                        session.execute("COMMIT")
                    return count
            elif kind == "owners":
                ids = step[1]
                run = lambda: session.copy_rows(  # noqa: E731
                    "owners", [[i, f"o{i}"] for i in ids])
            elif kind == "refs":
                run = lambda: session.execute(  # noqa: E731
                    "INSERT INTO refs VALUES ($1, $2)", [step[1], step[2]]).rowcount
            elif kind == "delete_items":
                run = lambda: session.execute(  # noqa: E731
                    "DELETE FROM items WHERE k <= $1", [step[1]]).rowcount
            elif kind == "delete_owner":
                run = lambda: session.execute(  # noqa: E731
                    "DELETE FROM owners WHERE id = $1", [step[1] % 10]).rowcount
            elif kind == "begin":
                run = lambda: session.execute("BEGIN").command  # noqa: E731
            elif kind == "commit":
                run = lambda: session.execute("COMMIT").command  # noqa: E731
            elif kind == "rollback":
                run = lambda: session.execute("ROLLBACK").command  # noqa: E731
            elif kind == "prepare":
                if not session.in_transaction or session.xid is None:
                    continue
                prepared += 1
                gid = f"g{prepared}"
                # Its rows stay prepared-uncommitted for the rest of the
                # script: in no snapshot, yet not aborted, so a later write
                # of one of their keys waits for them (and times out).
                run = lambda: session.execute(  # noqa: E731
                    f"PREPARE TRANSACTION '{gid}'").command
            else:
                if session.in_transaction:
                    continue
                run = lambda: session.execute("VACUUM").rowcount  # noqa: E731
            outcomes.append((kind, outcome(run)))
        if session.in_transaction:
            session.execute("ROLLBACK")
        return outcomes, state_of(instance, session)


def state_of(instance, session):
    tables = {}
    horizon, clog = instance.xids.horizon(), instance.xids.clog
    for name, table in instance.catalog.tables.items():
        heap = table.heap
        # The reference probes the indexes around the executor's candidate
        # fetch, so it never kills an entry and the shipped path does:
        # entries are compared up to those of versions dead to every
        # snapshot (and must name stored tuples only).
        needed = {t.tid for t in heap.tuples
                  if not heap.is_dead(t, horizon, clog)}
        for index in table.indexes.values():
            assert {tid for _key, tid in index.data._entries} <= set(heap._by_tid)
        tables[name] = {
            "tuples": [(t.tid, t.row_id, t.values, t.xmin, t.xmax)
                       for t in heap.tuples],
            "chains": {row_id: [t.tid for t in heap.versions(row_id)]
                       for row_id in sorted({t.row_id for t in heap.tuples})},
            "bytes": (heap.live_bytes, heap.dead_bytes, heap.dead_tuples),
            "indexes": {index_name: [entry for entry in index.data._entries
                                     if entry[1] in needed]
                        for index_name, index in table.indexes.items()},
        }
    return {
        "tables": tables,
        "wal": list(instance.wal.records),
        "wal_bytes": instance.wal.bytes_written,
        "stats": {key: session.stats[key]
                  for key in ("rows_written", "index_writes", "rows_copied")},
        "sequences": {name: seq._next
                      for name, seq in instance.catalog.sequences.items()},
        "clog": instance.xids.clog.snapshot_state(),
    }


def assert_equivalent(script, monkeypatch):
    expected = run_script(script, True, monkeypatch.context)
    actual = run_script(script, False, monkeypatch.context)
    assert actual[0] == expected[0], script
    for key in expected[1]:
        assert actual[1][key] == expected[1][key], (key, script)


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(script=st.lists(steps(), min_size=1, max_size=10))
def test_prepared_writes_match_the_per_row_reference(script, monkeypatch):
    assert_equivalent(script, monkeypatch)


GOOD = ["k", "owner", "a", "b", "note"]


@pytest.mark.parametrize("script", [
    # duplicates inside one batch, and against committed rows
    [("copy", GOOD, [[1, 0, 1, "x", "n"], [1, 0, 2, "y", "n"]])],
    [("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("copy", GOOD, [[2, 1, 1, "x", "m"]])],
    # NULLs in the two-column UNIQUE never conflict
    [("copy", GOOD, [[1, 0, 1, None, "n"], [2, 0, 1, None, "n"],
                     [3, 0, None, "x", "n"], [4, 0, None, "x", "n"]])],
    # against the transaction's own earlier statement
    [("begin",), ("insert", GOOD, [[1, 0, 1, "x", "n"]]),
     ("insert", GOOD, [[1, 1, 2, "y", "m"]]), ("commit",)],
    # an aborted row does not conflict; a prepared-uncommitted one is waited for
    [("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("rollback",),
     ("copy", GOOD, [[1, 0, 1, "x", "n"]])],
    [("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("prepare",),
     ("insert_rows", GOOD, [[1, 0, 1, "x", "n"]])],
    [("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("prepare",),
     ("insert", GOOD, [[1, 0, 1, "x", "n"]])],
    # foreign keys out (missing owner) and in (referenced item)
    [("copy", GOOD, [[1, 3, 1, "x", "n"]])],
    [("owners", [3]), ("copy", GOOD, [[1, 3, 1, "x", "n"]]), ("refs", 1, 1),
     ("delete_items", 6), ("delete_owner", 3), ("delete_owner", 2)],
    # serial, defaults, NOT NULL, casts, a subset in another order
    [("copy", ["note", "k"], [["n", "5"], [12, 6.0]]),
     ("insert", ["ok", "k", "note", "qty", "day", "meta", "tags"],
      [["yes", 1, "n", "2", "2024-03-01", '{"a": 1}', ["1", 2.0]]]),
     ("copy", ["k"], [[2]]), ("delete_items", 5), ("vacuum",)],
    # NOT NULL is checked before the unique keys, for INSERT as for COPY
    [("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("insert", GOOD, [[1, 0, 2, "y", None]]),
     ("insert_rows", GOOD, [[1, 0, 2, "y", None]])],
    # a bad value and a wrong width stop at the same row
    [("copy", ["k", "note"], [[1, "n"], ["x", "n"], [2, "n"]])],
    [("insert_rows", ["k", "note"], [[1, "n"], [2, "n", 3]])],
], ids=lambda script: "-".join(step[0] for step in script))
def test_named_cases_match_the_reference(script, monkeypatch):
    assert_equivalent(script, monkeypatch)


def test_the_named_cases_do_what_their_names_say(monkeypatch):
    """Guard against a vacuous comparison: the outcomes are the expected
    errors, not two equal crashes."""
    def outcomes(script):
        return [o for _kind, o in run_script(script, False, monkeypatch.context)[0]]

    dup = outcomes([("copy", GOOD, [[1, 0, 1, "x", "n"], [1, 0, 2, "y", "n"]])])
    assert dup == [("err", "UniqueViolation",
                    "duplicate key value violates unique constraint on 'items'")]
    nulls = outcomes([("copy", GOOD, [[1, 0, 1, None, "n"], [2, 0, 1, None, "n"]])])
    assert nulls == [("ok", 2)]
    fk = outcomes([("copy", GOOD, [[1, 3, 1, "x", "n"]])])
    assert fk == [("err", "ForeignKeyViolation",
                   "insert on 'items' violates foreign key to 'owners'")]
    restricted = outcomes([("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("refs", 1, 1),
                           ("delete_items", 6)])
    assert restricted[-1] == ("err", "ForeignKeyViolation",
                              "row in 'items' is still referenced from 'refs'")
    both = outcomes([("copy", GOOD, [[1, 0, 1, "x", "n"]]),
                     ("insert", GOOD, [[1, 0, 2, "y", None]])])
    assert both[-1] == ("err", "NotNullViolation",
                        "null value in column 'note' of relation 'items'")
    for step in ("insert_rows", "insert"):
        prepared = outcomes([("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]),
                             ("prepare",), (step, GOOD, [[1, 0, 1, "x", "n"]])])
        assert prepared[-1] == ("err", "LockTimeout", "could not obtain lock: lock"
                                " ('transactionid', 101) held by [101] (wanted ShareLock)")


# --------------------------------------------------------------------------
# the generated writer against the row-at-a-time heap, index and log
# --------------------------------------------------------------------------
#
# ``WriteShape``'s generated ``append`` / ``update`` / ``delete`` write a
# row's cells, its heap version (tid, row id, chain, width, live and dead
# bytes), its index entries and its WAL record in line. The reference runs
# today's probes (``find_conflict``, ``check_foreign_keys``) but writes
# through ``Heap.insert``, ``index.index_insert`` and
# ``WriteAheadLog.append_row``, one call per row, under every column type
# and every statement that writes a version.

#: The column list of each write shape the reference run asked for.
SHAPE_COLUMNS = {}


def reference_append_rows(self, shape, rows, command, resolve=None, emit=None):
    session, table = self.session, shape.table
    session.ensure_xid()
    snapshot = session.snapshot()
    xids = self.instance.xids
    columns = SHAPE_COLUMNS[id(shape)]
    check_fks = bool(shape.foreign_keys) and self._fk_checks()
    count = 0
    for values in rows:
        values = list(values)
        if len(values) != len(columns):
            raise DataError(
                f"COPY row has {len(values)} values but {len(columns)} columns"
                " expected" if command == "COPY" else
                f"INSERT has {len(values)} expressions but {len(columns)}"
                " target columns")
        full = _build_full_row(self, table, columns, values)
        _check_not_null(self, table, full)
        conflict = shape.find_conflict(full, snapshot, xids)
        if conflict is not None:
            if resolve is None:
                raise UniqueViolation(
                    f"duplicate key value violates unique constraint on {table.name!r}")
            if resolve(*conflict, full):
                count += 1
            continue
        if check_fks:
            shape.check_foreign_keys(full, self.catalog, snapshot, xids)
        _do_insert(self, table, full)
        count += 1
        if emit is not None:
            emit(full)
    return count


def reference_do_update(self, shape, old_tup, new_values):
    table, session = shape.table, self.session
    xid = session.ensure_xid()
    heap = table.heap
    heap.mark_deleted(old_tup.tid, xid)
    heap.note_dead(old_tup)
    new_tup = heap.insert(new_values, xid, row_id=old_tup.row_id)
    _index_insert(self, table, new_tup)
    self.instance.wal.append_row(xid, "update", table.name, old_tup.row_id,
                                 new_values, _jsonb(table))
    session.track_write(table.name)


KIND_SCHEMA = [
    "CREATE TABLE own (id int PRIMARY KEY)",
    # Every column type, serial and DEFAULT, a unique expression index and
    # a two-column index over a nullable int and a float.
    "CREATE TABLE kinds (id serial PRIMARY KEY, i int, b bigint NOT NULL DEFAULT 7,"
    " f float, n numeric, t text, u uuid, ok bool, d date, ts timestamp,"
    " j jsonb, arr int[], x inet, o int REFERENCES own (id),"
    " note text NOT NULL DEFAULT 'n')",
    "CREATE UNIQUE INDEX kinds_lower ON kinds (lower(t))",
    "CREATE INDEX kinds_if ON kinds (i, f)",
    # Incoming: deleting a referenced kind is restricted.
    "CREATE TABLE uses (id int PRIMARY KEY, kind int REFERENCES kinds (id))",
    # UNIQUE (a) probes through the primary key's index after the primary
    # key's own probe: a kill there moves the place that probe found.
    "CREATE TABLE pairs (a int, b int, c text, PRIMARY KEY (a, b), UNIQUE (a))",
]

KIND_COLUMNS = ["id", "i", "b", "f", "n", "t", "u", "ok", "d", "ts", "j", "arr",
                "x", "o", "note"]

#: Per column (usual, hostile), as ``VALUES`` above.
KIND_VALUES = {
    "id": (st.integers(1, 12), st.sampled_from([None, "x"])),
    "i": (st.sampled_from([None, 0, 1, 3, "2", 1.0, True]), st.just("i")),
    "b": (st.sampled_from([5, "6", 2 ** 40, -1]), st.none()),
    "f": (st.sampled_from([None, 1.5, 2, "3.5", -0.0]), st.just("f")),
    "n": (st.sampled_from([None, 2.5, "1e3", 3]), st.just("n")),
    "t": (st.sampled_from([None, "a", "A", "b", "B", "c", 7]), st.none()),
    "u": (st.sampled_from([None, "abc", "123e4567-e89b-12d3-a456-426614174000"]),
          st.none()),
    "ok": (st.sampled_from([None, True, "f", 0]), st.just("maybe")),
    "d": (st.sampled_from([None, "2024-03-01", dt.date(2024, 2, 29),
                           dt.datetime(2024, 3, 2, 10, 30)]), st.just("soon")),
    "ts": (st.sampled_from([None, "2024-03-01 10:00:00", dt.datetime(2024, 1, 1),
                            dt.date(2024, 1, 2)]), st.just("later")),
    "j": (st.sampled_from([None, '"hi"', '"x y"', {"a": [1]}, "[1, 2]", 5, True]),
          st.just("{oops")),
    "arr": (st.sampled_from([None, [1, 2], ["3", 4.0], []]), st.just("7")),
    "x": (st.sampled_from([None, "10.0.0.1", 5, {"k": 1}, [1]]), st.none()),
    "o": (st.sampled_from([None, 0, 1, "1"]), st.integers(2, 9)),
    "note": (st.sampled_from(["n", "", 12]), st.none()),
}


@st.composite
def kind_batches(draw):
    columns = draw(st.lists(st.sampled_from(KIND_COLUMNS), min_size=1,
                            max_size=len(KIND_COLUMNS), unique=True))
    hostile = draw(st.integers(0, 4)) == 0
    columns = draw(st.permutations(columns))
    cells = [st.one_of(*KIND_VALUES[c]) if hostile else KIND_VALUES[c][0]
             for c in columns]
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=4))
    if hostile and draw(st.booleans()):  # a row of the wrong width
        rows.append(rows[-1] + (1,))
    return columns, [list(row) for row in rows]


@st.composite
def kind_steps(draw):
    kind = draw(st.sampled_from(
        ["copy", "copy", "insert", "returning", "upsert_nothing", "upsert_update",
         "update", "update_key", "delete", "uses", "pairs", "pairs", "delete_pairs",
         "begin", "commit", "rollback", "vacuum"]))
    if kind in ("copy", "insert", "returning", "upsert_nothing", "upsert_update"):
        return (kind, *draw(kind_batches()))
    if kind == "pairs":
        return (kind, draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                                              st.sampled_from(["p", None])),
                                    min_size=1, max_size=3)))
    if kind == "update_key":
        return (kind, draw(KIND_VALUES["t"][0]), draw(st.integers(0, 12)))
    if kind in ("update", "delete", "delete_pairs", "uses"):
        return (kind, draw(st.integers(0, 12)))
    return (kind,)


def _values_sql(table, columns, rows, suffix=""):
    width = len(rows[0])
    return (f"INSERT INTO {table} ({', '.join(columns)}) VALUES "
            + ", ".join("(" + ", ".join(f"${r * width + c + 1}" for c in range(len(row)))
                        + ")" for r, row in enumerate(rows)) + suffix,
            [v for row in rows for v in row])


def run_kind_script(script, reference: bool, monkeypatch_context):
    with monkeypatch_context() as patch:
        if reference:
            original = LocalExecutor._write_shape

            def remembering(self, table, columns=None):
                shape = original(self, table, columns)
                SHAPE_COLUMNS[id(shape)] = (list(columns) if columns is not None
                                            else table.column_names())
                return shape

            patch.setattr(LocalExecutor, "_write_shape", remembering)
            patch.setattr(LocalExecutor, "append_rows", reference_append_rows)
            patch.setattr(LocalExecutor, "_do_update", reference_do_update)
            patch.setattr(LocalExecutor, "execute_delete", reference_execute_delete)
        instance = PostgresInstance("w")
        session = instance.connect()
        for ddl in KIND_SCHEMA:
            session.execute(ddl)
        session.copy_rows("own", [[0], [1]])
        outcomes = []
        for step in script:
            kind = step[0]
            if kind == "copy":
                run = lambda: session.copy_rows("kinds", step[2], step[1])  # noqa: E731
            elif kind in ("insert", "returning", "upsert_nothing", "upsert_update"):
                suffix = {"insert": "", "returning": " RETURNING id, t, j, x, b",
                          "upsert_nothing": " ON CONFLICT DO NOTHING",
                          "upsert_update": " ON CONFLICT (id) DO UPDATE SET"
                                           " i = kinds.i + 1, j = excluded.j,"
                                           " t = excluded.t RETURNING *"}[kind]
                sql, params = _values_sql("kinds", step[1], step[2], suffix)
                run = lambda: (lambda r: (r.rowcount, r.rows))(  # noqa: E731
                    session.execute(sql, params))
            elif kind == "update":
                run = lambda: session.execute(  # noqa: E731
                    "UPDATE kinds SET i = i + 1, f = 0.5, arr = ARRAY[9]"
                    " WHERE id <= $1 RETURNING id, i", [step[1]]).rows
            elif kind == "update_key":
                run = lambda: session.execute(  # noqa: E731
                    "UPDATE kinds SET t = $1 WHERE id = $2", [step[1], step[2]]).rowcount
            elif kind == "delete":
                run = lambda: session.execute(  # noqa: E731
                    "DELETE FROM kinds WHERE id <= $1", [step[1]]).rowcount
            elif kind == "uses":
                run = lambda: session.execute(  # noqa: E731
                    "INSERT INTO uses VALUES ($1, $2)", [step[1] + 100, step[1]]).rowcount
            elif kind == "pairs":
                run = lambda: session.copy_rows(  # noqa: E731
                    "pairs", [list(row) for row in step[1]])
            elif kind == "delete_pairs":
                run = lambda: session.execute(  # noqa: E731
                    "DELETE FROM pairs WHERE a = $1", [step[1] % 4]).rowcount
            elif kind == "begin":
                run = lambda: session.execute("BEGIN").command  # noqa: E731
            elif kind == "commit":
                run = lambda: session.execute("COMMIT").command  # noqa: E731
            elif kind == "rollback":
                run = lambda: session.execute("ROLLBACK").command  # noqa: E731
            else:
                if session.in_transaction:
                    continue
                run = lambda: session.execute("VACUUM").rowcount  # noqa: E731
            outcomes.append((kind, outcome(run)))
        if session.in_transaction:
            session.execute("ROLLBACK")
        state = state_of(instance, session)
        state["widths"] = {name: [t.width for t in table.heap.tuples]
                           for name, table in instance.catalog.tables.items()}
        return outcomes, state


def assert_kinds_equivalent(script, monkeypatch):
    expected = run_kind_script(script, True, monkeypatch.context)
    actual = run_kind_script(script, False, monkeypatch.context)
    assert actual[0] == expected[0], script
    for key in expected[1]:
        assert actual[1][key] == expected[1][key], (key, script)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(script=st.lists(kind_steps(), min_size=1, max_size=10))
def test_the_generated_writer_matches_the_row_at_a_time_reference(script, monkeypatch):
    assert_kinds_equivalent(script, monkeypatch)


KIND_ROW = ["i", "t", "j", "x", "arr", "u", "ts"]


@pytest.mark.parametrize("script", [
    # every type once, a jsonb string among them, then NULLs, then a
    # duplicate inside one batch
    [("copy", KIND_COLUMNS, [[1, 1, 5, 1.5, 2.5, "a", "abc", True, "2024-03-01",
                              "2024-03-01 10:00:00", '"hi"', [1], {"k": 1}, 0, "n"],
                             [2, None, 6, None, None, None, None, None, None, None,
                              None, None, None, None, "m"]]),
     ("copy", ["id", "t"], [[3, "c"], [3, "d"]])],
    # the unique expression index: "A" collides with "a"
    [("copy", ["t"], [["a"]]), ("insert", ["t"], [["A"]]),
     ("returning", ["t", "j"], [["b", '"x y"']])],
    # ON CONFLICT, both actions, and an UPDATE that moves a unique key
    [("copy", KIND_ROW, [[1, "a", '"hi"', "10.0.0.1", [1], None, None]]),
     ("upsert_nothing", ["id", "t"], [[1, "q"], [2, "r"]]),
     ("upsert_update", ["id", "t", "j"], [[1, "z", {"a": [1]}]]),
     ("update_key", "r", 1), ("update_key", "y", 1), ("update", 5)],
    # a key killed mid-probe: the primary key's place moves under UNIQUE (a)
    [("pairs", [(0, 0, "p"), (1, 1, "p"), (2, 0, None)]), ("delete_pairs", 1),
     ("pairs", [(1, 2, "p"), (3, 0, None)]), ("pairs", [(1, 3, None)]), ("vacuum",)],
    # foreign keys out and in, then a failure mid-batch
    [("copy", ["o"], [[1], [0]]), ("uses", 1), ("delete", 3),
     ("copy", ["o"], [[0], [7]]), ("copy", ["i", "note"], [[1, "n"], ["i", "n"], [2, "n"]])],
], ids=["types", "expression_key", "on_conflict", "killed_mid_probe", "keys_and_failures"])
def test_named_writer_cases_match_the_reference(script, monkeypatch):
    assert_kinds_equivalent(script, monkeypatch)


# --------------------------------------------------------------------------
# the generated router against shard_index_for_value
# --------------------------------------------------------------------------

#: Per distribution-column type: values a COPY may hand the router — of
#: the column's type or needing a cast (text constants read as the type).
ROUTED = {
    "int": [0, 1, -7, 2 ** 31 + 5, "3", " 12", 4.0, True, 10 ** 20],
    "bigint": [2 ** 40, "-9", 3.0],
    "float": [1.5, 2, "2.5", -0.0, float("inf")],
    "numeric": [3, "1e3", 0.1],
    "text": ["a", "3", 7, "", "é"],
    "uuid": ["123e4567-e89b-12d3-a456-426614174000", "x"],
    "bool": [True, False, "t", 0],
    "date": ["2024-03-01", dt.date(2024, 2, 29), dt.datetime(2024, 1, 1, 5)],
    "timestamp": ["2024-03-01 10:00:00", dt.datetime(2024, 1, 1), dt.date(2024, 1, 2)],
}


class _CollectingSink:
    """Where each routed row landed, by channel."""

    def __init__(self):
        self.landed = {}
        self.peak = None

    def flush(self, index, _node, _group, _shard, _columns, rows):
        for row in rows:
            self.landed.setdefault(index, []).append(list(row))

    def finish(self, peak):
        self.peak = peak


@pytest.fixture(scope="module")
def routed_tables():
    from repro import make_cluster

    cluster = make_cluster(workers=2, shard_count=8)
    session = cluster.coordinator_session()
    for i, type_name in enumerate(ROUTED):
        session.execute(f"CREATE TABLE r{i} (k {type_name}, n int)")
        session.execute(f"SELECT create_distributed_table('r{i}', 'k')")
    session.execute("CREATE TABLE ref (k int, n int)")
    session.execute("SELECT create_reference_table('ref')")
    return cluster


def _route(cluster, table, rows, cast: bool, refuse_null: bool, threshold=2):
    from repro.citus.copy_dist import ShardCopyRouter, copy_targets

    ext = cluster.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    shell = ext.instance.catalog.get_table(table)
    sink = _CollectingSink()
    router = ShardCopyRouter(dist, shell if cast else None, ["k", "n"],
                             copy_targets(ext.metadata.cache, dist), threshold,
                             refuse_null=refuse_null)
    assert router.copy(iter(rows), sink) == len(rows)
    return dist, sink


@pytest.mark.parametrize("type_name", sorted(ROUTED))
def test_the_generated_router_picks_shard_index_for_values_shard(routed_tables,
                                                                 type_name):
    table = f"r{list(ROUTED).index(type_name)}"
    values = ROUTED[type_name]
    rows = [[value, n] for n, value in enumerate(values)]
    dist, sink = _route(routed_tables, table, rows, cast=True, refuse_null=True)
    assert sum(map(len, sink.landed.values())) == len(rows)
    for index, landed in sink.landed.items():
        for row in landed:
            value = values[row[1]]
            cast = cast_value(value, type_name)
            assert row[0] == cast and type(row[0]) is type(cast), (value, row)
            assert dist.shard_index_for_value(cast) == index, (value, index)
            if isinstance(value, str) and type_name in ("int", "bigint"):
                # A text constant reads as the column's type.
                assert dist.shard_index_for_value(value) == index
    # A move routes typed rows as they are, NULL included, uncast.
    typed = [[cast_value(v, type_name), n] for n, v in enumerate(values)] + [[None, -1]]
    dist, sink = _route(routed_tables, table, typed, cast=False, refuse_null=False)
    for index, landed in sink.landed.items():
        assert all(dist.shard_index_for_value(row[0]) == index for row in landed)
    # A COPY refuses it.
    with pytest.raises(NotNullViolation, match="cannot be NULL in COPY"):
        _route(routed_tables, table, [[values[0], 0], [None, 1]], cast=True,
               refuse_null=True)


def test_the_generated_router_replicates_a_reference_row_and_checks_width(
        routed_tables):
    rows = [[k, k] for k in range(5)]
    _dist, sink = _route(routed_tables, "ref", rows, cast=True, refuse_null=True)
    placements = len(sink.landed)
    assert placements >= 2 and all(landed == rows for landed in sink.landed.values())
    # The second row fills the first channel: one more than a row per channel.
    assert sink.peak == placements + 1
    with pytest.raises(DataError, match="COPY row has 3 values but 2 columns"):
        _route(routed_tables, "r0", [[1, 1], [2, 2, 2]], cast=True, refuse_null=True)
