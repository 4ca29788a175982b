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
reference INSERT does too.
"""

import datetime as dt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PostgresInstance
from repro.engine import copy as engine_copy
from repro.engine.datum import cast_value, compare_values, to_text
from repro.engine.executor import LocalExecutor, QueryResult
from repro.engine.expr import EMPTY_LAYOUT, evaluate
from repro.engine.index import GinIndex, index_insert
from repro.engine.mvcc import tuple_visible
from repro.errors import (
    DataError,
    ForeignKeyViolation,
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


def _wal_values(values):
    return [to_text(v) if isinstance(v, (dict, list)) else v for v in values]


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


def _find_conflict(self, table, full, on_conflict):
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
            if not tuple_visible(tup.header, snapshot, clog):
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
    return None


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
                if tup is not None and tuple_visible(tup.header, snapshot, clog):
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


def _do_insert(self, table, full):
    xid = self.session.ensure_xid()
    tup = table.heap.insert(full, xid)
    _index_insert(self, table, tup)
    self.instance.wal.append(xid, "insert", {
        "table": table.name, "row_id": tup.row_id, "values": _wal_values(full),
    })
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
    self.instance.wal.append(xid, "delete", {"table": table.name, "row_id": tup.row_id})
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
        if _find_conflict(executor, table, full, None) is not None:
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
        if _find_conflict(executor, table, full, None) is not None:
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
        if _find_conflict(self, table, full, None) is not None:
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
                # script: in no snapshot, yet not aborted.
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
            "tuples": [(t.tid, t.row_id, t.values, t.header.xmin, t.header.xmax)
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
        "wal": [(r.lsn, r.xid, r.kind, r.payload) for r in instance.wal.records],
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
    # an aborted row does not conflict; a prepared-uncommitted one is not seen
    [("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("rollback",),
     ("copy", GOOD, [[1, 0, 1, "x", "n"]])],
    [("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]), ("prepare",),
     ("insert_rows", GOOD, [[1, 0, 1, "x", "n"]])],
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
    prepared = outcomes([("begin",), ("copy", GOOD, [[1, 0, 1, "x", "n"]]),
                         ("prepare",), ("insert_rows", GOOD, [[1, 0, 1, "x", "n"]])])
    assert prepared[-1] == ("ok", 1)
