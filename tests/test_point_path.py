"""A point statement — a scan whose ``=`` conjuncts cover every column of
its only index candidate, a unique B-tree — goes from key to row in one
step (``ScanShape.point``, ``LocalExecutor._point_select``,
``_dml_target_rows``). It must do what the generic path (probe, stream,
fused loop) does: the same rows in the same order, the same index and scan
statistics, the same locks, and the same index entries killed. Each case
runs on two identical instances, one with the point step switched off."""

from collections import Counter

import pytest

from repro import PostgresInstance
from repro.engine import executor
from repro.engine.executor import ScanShape
from repro.sql import parse

STATS = ("index_lookups", "tuples_scanned", "pages_read")


def instance():
    pg = PostgresInstance("point")
    s, other = pg.connect(), pg.connect()
    s.execute("CREATE TABLE accounts (key int PRIMARY KEY, v int, filler text)")
    s.execute("CREATE TABLE district (w int, d int, name text, ytd int,"
              " PRIMARY KEY (w, d))")
    s.execute("CREATE TABLE tagged (id int PRIMARY KEY, tag int, note text)")
    s.execute("CREATE INDEX tagged_tag ON tagged (tag)")
    s.copy_rows("accounts", [[k, k % 4, f"filler-{k}"] for k in range(1, 41)])
    s.copy_rows("district", [[w, d, f"d{w}-{d}", 0]
                             for w in range(1, 4) for d in range(1, 11)])
    s.copy_rows("tagged", [[i, i % 5, f"n{i}"] for i in range(1, 21)])
    return pg, s, other


def _uncommitted(s, other):
    other.execute("BEGIN")
    other.execute("INSERT INTO accounts VALUES (41, 1, 'x')")
    other.execute("UPDATE accounts SET v = 9 WHERE key = 3")
    other.execute("DELETE FROM accounts WHERE key = 4")


def _aborted(s, other):
    other.execute("BEGIN")
    other.execute("INSERT INTO accounts VALUES (41, 1, 'x')")
    other.execute("UPDATE accounts SET v = 9 WHERE key = 3")
    other.execute("ROLLBACK")


def _updated_twice(s, other):
    for _ in range(2):
        s.execute("UPDATE accounts SET v = v + 1 WHERE key = 3")
        s.execute("UPDATE district SET ytd = ytd + 1 WHERE w = 2 AND d = 3")


def _own_xid(s, other):
    s.execute("BEGIN")
    s.execute("UPDATE accounts SET v = 7 WHERE key = 3")
    s.execute("INSERT INTO accounts VALUES (41, 2, 'mine')")
    s.execute("DELETE FROM accounts WHERE key = 4")


def _deleted(s, other):
    s.execute("DELETE FROM accounts WHERE key IN (3, 4)")
    s.execute("DELETE FROM district WHERE w = 2 AND d = 3")


def _killed(s, other):
    # Dead versions outnumber the live one: the first probe kills them.
    for _ in range(6):
        s.execute("UPDATE accounts SET v = v + 1 WHERE key = 3")


SCENARIOS = {"committed": lambda s, other: None, "uncommitted": _uncommitted,
             "aborted": _aborted, "updated_twice": _updated_twice,
             "own_xid": _own_xid, "deleted": _deleted, "killed": _killed}

#: (statement, parameters, how its scan runs): "key" — the point step, a
#: point shape's complete key looked up without a probe; "probed" — a point
#: shape whose key this execution leaves incomplete (a NULL, a constant
#: that does not read as the column's type, an unbound parameter), probed
#: as any other; None — the generic path (no point shape, or a statement
#: that is more than a scan and a projection).
STATEMENTS = [
    ("SELECT v, filler FROM accounts WHERE key = 3", None, "key"),
    ("SELECT * FROM accounts WHERE key = :k", {"k": 4}, "key"),
    ("SELECT key, v FROM accounts WHERE key = $1", [41], "key"),
    ("SELECT v FROM accounts WHERE key = 3 AND v > 0", None, "key"),
    ("SELECT v FROM accounts WHERE v >= 0 AND key = 3 AND filler LIKE 'f%'",
     None, "key"),
    ("SELECT v FROM accounts WHERE key = 3 AND key = 4", None, "key"),
    ("SELECT v FROM accounts WHERE key = '3'", None, "key"),
    ("SELECT v FROM accounts WHERE key = '3'::int", None, "key"),
    ("SELECT v FROM accounts WHERE key = '3.5'", None, "probed"),
    ("SELECT v FROM accounts WHERE key = NULL", None, "probed"),
    ("SELECT v FROM accounts WHERE key = :k", {"k": None}, "probed"),
    ("SELECT v FROM accounts WHERE key = :missing", {"k": 3}, "probed"),
    ("SELECT name, ytd FROM district WHERE w = 2 AND d = 3", None, "key"),
    ("SELECT name FROM district WHERE d = $2 AND w = $1", [2, 3], "key"),
    ("SELECT name FROM district WHERE w = 2", None, None),
    ("SELECT note FROM tagged WHERE id = 3 AND tag = 3", None, None),
    ("SELECT note FROM tagged WHERE id = 3", None, "key"),
    ("SELECT v FROM accounts WHERE key = 3 FOR UPDATE", None, None),
    ("SELECT v FROM accounts WHERE key = 3 LIMIT 1", None, None),
    ("SELECT v FROM accounts WHERE key = random()", None, None),
    ("UPDATE accounts SET v = v + 1 WHERE key = 3", None, "key"),
    ("UPDATE accounts SET v = v + 1 WHERE key = :k AND v < 100", {"k": 41}, "key"),
    ("UPDATE district SET ytd = ytd + 5 WHERE w = $1 AND d = $2", [2, 3], "key"),
    ("UPDATE accounts SET v = 0 WHERE key = NULL", None, "probed"),
    ("DELETE FROM accounts WHERE key = 4 RETURNING filler", None, "key"),
    ("DELETE FROM tagged WHERE id = 3 AND tag = 3", None, None),
]


def held_locks(session):
    locks = session.instance.locks
    xid = session.xid
    return (sorted(locks._held_tables.get(xid, ())),
            sorted((table, row_id)
                   for table, ids in locks._held_rows.get(xid, {}).items()
                   for row_id in ids))


def index_sizes(pg):
    return {name: len(index.data._entries)
            for table in pg.catalog.tables.values()
            for name, index in table.indexes.items()}


def outcome(pg, s, other, scenario, sql, params, probes):
    """What one statement does after ``scenario``: its result or error,
    its statistics, the locks its transaction holds, the index sizes; and
    the ``ScanShape.probe`` calls it made (``probes`` counts them)."""
    SCENARIOS[scenario](s, other)
    if not s.in_transaction:
        s.execute("BEGIN")  # keep the locks to compare them
    before, probed = Counter(s.stats), probes["calls"]
    try:
        result = s.execute(sql, params)
        got = ("ok", result.columns, result.rows, result.rowcount)
    except Exception as exc:  # compared between the two paths
        got = ("error", type(exc).__name__, str(exc))
    stats = tuple(s.stats[name] - before[name] for name in STATS)
    return (got, stats, held_locks(s), index_sizes(pg)), probes["calls"] - probed


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("sql, params, scan", STATEMENTS,
                         ids=[sql for sql, _params, _scan in STATEMENTS])
def test_the_point_step_does_what_the_generic_path_does(scenario, sql, params,
                                                        scan, monkeypatch):
    probes, probe = Counter(), ScanShape.probe

    def counted_probe(self, table, ctx):
        probes["calls"] += 1
        return probe(self, table, ctx)

    monkeypatch.setattr(ScanShape, "probe", counted_probe)
    fast, fast_probes = outcome(*instance(), scenario, sql, params, probes)
    with monkeypatch.context() as generic:
        generic.setattr(ScanShape, "point_key", lambda self, ctx: None)
        slow, slow_probes = outcome(*instance(), scenario, sql, params, probes)
    assert fast == slow
    assert slow_probes == 1
    assert fast_probes == (0 if scan == "key" else 1)


def test_a_script_of_point_writes_leaves_the_heap_the_generic_path_leaves():
    def script(pg, s, other):
        for key in (3, 3, 5, 41):
            s.execute("UPDATE accounts SET v = v + 1 WHERE key = $1", [key])
        s.execute("UPDATE district SET ytd = ytd + 1 WHERE w = 1 AND d = 2")
        s.execute("DELETE FROM accounts WHERE key = 5")
        return [[(t.tid, t.row_id, t.xmin, t.xmax, list(t.values))
                 for t in pg.catalog.get_table(name).heap.tuples]
                for name in ("accounts", "district")]

    fast = script(*instance())
    with pytest.MonkeyPatch.context() as generic:
        generic.setattr(ScanShape, "point_key", lambda self, ctx: None)
        slow = script(*instance())
    assert fast == slow


def test_a_point_shape_needs_a_unique_btree_that_is_the_only_candidate():
    pg, s, _other = instance()
    s.execute("CREATE INDEX accounts_v ON accounts (v)")
    s.execute("CREATE TABLE plain (k int, v int)")
    s.execute("CREATE INDEX plain_k ON plain (k)")
    table = pg.catalog.get_table

    def shape(name, where):
        return ScanShape(table(name), name, parse(
            f"SELECT * FROM {name} WHERE {where}")[0].where)

    assert shape("accounts", "key = 1").point is not None
    assert shape("accounts", "key = 1 AND v = 2").point is None  # two candidates
    assert shape("accounts", "key = 1 AND filler = 'x'").point is not None
    assert shape("plain", "k = 1").point is None  # not unique
    assert shape("district", "w = 1").point is None  # a prefix only
    assert shape("district", "w = 1 AND d = $1").point is not None
    assert shape("accounts", "key = abs(-1)").point is None  # not a constant
    assert executor._stable(parse("SELECT '3'::int")[0].targets[0].expr)
