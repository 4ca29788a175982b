"""The generated aggregate loop must equal the interpretive one it replaced.

``AggShape.accumulate`` is one generated function per shape: group keys
read from slots, ``count`` / ``sum`` / ``avg`` / ``avg_partial`` / ``min`` /
``max`` written out over their argument slot, and FILTER, DISTINCT,
expression arguments and every other aggregate called from the same loop.
The per-step interpreter that used to run inside ``_aggregate`` is kept
here, verbatim, as the reference: every aggregation a test statement runs —
worker partials and coordinator merges alike — is computed both ways over
the same input rows and must give the same (output, group row) pairs, in the
same first-seen group order, with the same value types.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PostgresInstance, make_cluster
from repro.engine.executor import LocalExecutor, _group_key
from repro.engine.functions import _STAR

from .oracle import ROLLUP


def reference_aggregate(self, agg, rows, ctx):
    """The parent's ``LocalExecutor._aggregate``, verbatim but for reading
    ``group_slot`` off the shape's per-key slots."""
    steps, inits = agg.steps, agg.inits
    group_fns = agg.group_fns
    group_slot = agg.group_slots[0] if len(agg.group_slots) == 1 else None
    # key -> [first input row, state per aggregate call...]
    groups: dict = {}
    seen: dict = {}  # (key, call position) -> DISTINCT argument keys
    for values in rows:
        ctx.values = values
        if group_slot is not None:
            key = _group_key(values[group_slot])
        else:
            key = tuple([_group_key(fn(ctx)) for fn in group_fns])
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = [values]
            entry.extend([init() for init in inits])
        i = 0
        for accumulate, star, slot, arg_fns, keep, distinct in steps:
            i += 1
            if keep is not None and keep(ctx) is not True:
                continue
            if star:
                entry[i] = accumulate(entry[i], _STAR)
            elif slot is not None and not distinct:
                entry[i] = accumulate(entry[i], values[slot])
            else:
                args = [fn(ctx) for fn in arg_fns]
                if distinct:
                    arg_key = tuple([_group_key(v) for v in args])
                    seen_args = seen.setdefault((key, i), set())
                    if arg_key in seen_args:
                        continue
                    seen_args.add(arg_key)
                entry[i] = accumulate(entry[i], *args)

    width = agg.layout.width
    if not groups and not group_fns:
        # Aggregate over empty input: one row of aggregate defaults.
        groups[()] = [[None] * width] + [init() for init in inits]

    pairs = []
    having, target_fns, finishers = agg.having, agg.target_fns, agg.finishers
    for entry in groups.values():
        group_row = list(entry[0][:width])
        group_row.extend([finish(state)
                          for finish, state in zip(finishers, entry[1:])])
        ctx.values = group_row
        if having is not None and having(ctx) is not True:
            continue
        pairs.append(([fn(ctx) for fn in target_fns], group_row))
    return pairs


def typed(value):
    """``value`` with the type of every scalar in it: 1, 1.0 and True differ."""
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return (type(value).__name__, value)


@pytest.fixture
def both_ways(monkeypatch):
    """Run every hash aggregation through the reference as well; returns
    the list of (group count, call count) of the aggregations compared."""
    shipped = LocalExecutor._aggregate
    compared = []

    def checked(self, agg, rows, ctx):
        rows = list(rows)
        expected = reference_aggregate(self, agg, rows, ctx)
        actual = shipped(self, agg, rows, ctx)
        assert typed(actual) == typed(expected)
        compared.append((len(actual), len(agg.steps)))
        return actual

    monkeypatch.setattr(LocalExecutor, "_aggregate", checked)
    return compared


# ------------------------------------------------------------- hypothesis

BIG = 2**53
#: ``f`` has a type the engine does not know, so its values pass uncast:
#: the column mixes ints and floats.
TABLE = "CREATE TABLE t (g1 int, g2 text, b bool, x int, f anynumber, big bigint)"

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 2)),                # g1
        st.one_of(st.none(), st.sampled_from(["a", "b"])),      # g2
        st.one_of(st.none(), st.booleans()),                    # b
        st.one_of(st.none(), st.integers(-3, 5)),               # x
        st.one_of(st.none(), st.sampled_from([0.5, 1.0, -2.25, 3])),  # f: int + float
        st.one_of(st.none(), st.integers(BIG, BIG + 3)),        # big
    ),
    max_size=12,
)

SLOT_KEYS = ["g1", "g2", "b", "big"]
EXPRESSION_KEYS = ["g1 + 1", "coalesce(g2, 'z')", "x % 2", "b AND true"]

ARGUMENTS = {
    "count": ["x", "f", "b", "g2", "x + 1"],
    "sum": ["x", "f", "big", "x * f", "big + 1"],
    "avg": ["x", "f", "big", "x + f"],
    "avg_partial": ["x", "f", "x + 1"],
    "avg_merge": ["ARRAY[x, 1]", "ARRAY[f, 2]"],
    "min": ["x", "f", "g2", "b", "big", "coalesce(f, x)"],
    "max": ["x", "f", "g2", "b", "big", "x - 1"],
    "array_agg": ["x", "g2", "x * 2"],
    "string_agg": ["g2, '-'", "g2", "CAST(x AS text), ','"],
    "stddev": ["x", "f", "x + 1"],
}
FILTERS = ["", "", " FILTER (WHERE x > 0)", " FILTER (WHERE b)",
           " FILTER (WHERE g1 IS NOT NULL)"]


@st.composite
def aggregate_calls(draw):
    name = draw(st.sampled_from(["count(*)", *ARGUMENTS]))
    if name == "count(*)":
        return name + draw(st.sampled_from(FILTERS))
    argument = draw(st.sampled_from(ARGUMENTS[name]))
    distinct = "DISTINCT " if draw(st.integers(0, 3)) == 0 else ""
    return f"{name}({distinct}{argument})" + draw(st.sampled_from(FILTERS))


@st.composite
def statements(draw):
    keys = draw(st.lists(st.sampled_from(SLOT_KEYS + EXPRESSION_KEYS),
                         max_size=3, unique=True))
    calls = draw(st.lists(aggregate_calls(), min_size=0 if keys else 1, max_size=4))
    sql = "SELECT " + ", ".join([*keys, *calls]) + " FROM t"
    if keys:
        sql += " GROUP BY " + ", ".join(keys)
    if calls and draw(st.integers(0, 4)) == 0:
        sql += f" ORDER BY {calls[0]}"  # a call lifted after the targets
    return sql


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=rows_strategy, sql=statements())
def test_generated_loop_matches_the_interpretive_loop(both_ways, rows, sql):
    session = PostgresInstance("agg").connect()
    session.execute(TABLE)
    if rows:
        session.copy_rows("t", [list(row) for row in rows])
    del both_ways[:]
    session.execute(sql)
    assert len(both_ways) == 1


@pytest.mark.parametrize("sql, expected", [
    # empty input: one row of defaults without GROUP BY, none with
    ("SELECT count(*), count(x), sum(x), avg(x), min(x), max(x), array_agg(x),"
     " string_agg(g2, ','), stddev(x) FROM t WHERE false",
     [[0, 0, None, None, None, None, None, None, None]]),
    ("SELECT g1, count(*) FROM t WHERE false GROUP BY g1", []),
    # first-seen group order; bool, int and float keys stay apart
    ("SELECT b, count(*) FROM t GROUP BY b", [[True, 2], [None, 1], [False, 1]]),
    ("SELECT x, count(*) FROM t GROUP BY x", [[1, 2], [0, 1], [None, 1]]),
    # bigints above 2**53 neither collide as keys nor lose digits in sums
    ("SELECT big, count(*) FROM t GROUP BY big",
     [[BIG + 1, 2], [BIG + 2, 1], [BIG, 1]]),
    ("SELECT sum(big), min(big), max(big) FROM t", [[4 * BIG + 4, BIG, BIG + 2]]),
    # int + float in one column: min / max across the types, sum in input order
    ("SELECT min(f), max(f), sum(f), count(DISTINCT f) FROM t", [[0.5, 3, 5.5, 3]]),
    ("SELECT sum(x) FILTER (WHERE b), count(*) FILTER (WHERE x > 0) FROM t", [[2, 2]]),
])
def test_named_cases(both_ways, sql, expected):
    session = PostgresInstance("agg").connect()
    session.execute(TABLE)
    session.copy_rows(
        "t", [[0, "a", True, 1, 0.5, BIG + 1], [1, "b", None, 0, 3, BIG + 2],
              [0, None, False, None, 1.0, BIG + 1], [2, "a", True, 1, 1.0, BIG]])
    assert typed(session.execute(sql).rows) == typed(expected)
    assert len(both_ways) == 1


# ------------------------------------------- the ledger's three statements

#: The aggregate statements of the ledger's workloads, as clients send them.
LEDGER_STATEMENTS = {
    "group_agg": "SELECT tenant, count(*), sum(v), avg(v) FROM events"
                 " GROUP BY tenant ORDER BY tenant",
    "ref_join": "SELECT t.plan, count(*), sum(e.v) FROM events e"
                " JOIN tenants t ON e.tenant = t.id"
                " GROUP BY t.plan ORDER BY t.plan",
    "rollup": ROLLUP,
}


def load(session, distributed):
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    session.execute("CREATE TABLE rollup (tenant int, bucket int, n int, total int)")
    if distributed:
        session.execute("SELECT create_distributed_table('events', 'k')")
        session.execute("SELECT create_reference_table('tenants')")
        session.execute("SELECT create_distributed_table('rollup', 'tenant',"
                        " colocate_with := 'none')")
    session.copy_rows("events", [[k, (k * 31) % 40, (k * 7) % 50, f"label-{k % 97}"]
                                 for k in range(1, 801)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(40)])


@pytest.mark.parametrize("name", sorted(LEDGER_STATEMENTS))
@pytest.mark.parametrize("layout", ["single", "4x16"])
def test_the_ledgers_aggregate_statements(both_ways, name, layout):
    """``group_agg``, ``ref_join`` and the rollup, on one node and through a
    (4, 16) cluster: every worker partial and the coordinator's merge."""
    if layout == "single":
        session = PostgresInstance("agg").connect()
    else:
        session = make_cluster(workers=4, shard_count=16).coordinator_session()
    load(session, distributed=layout != "single")
    del both_ways[:]
    result = session.execute(LEDGER_STATEMENTS[name])
    assert result.rows or result.rowcount
    # One aggregation on a single node; through the cluster one partial
    # per shard and the coordinator's merge (the rollup's GROUP BY is not on
    # the distribution column, so its groups are merged before re-routing).
    assert len(both_ways) == (1 if layout == "single" else 16 + 1), both_ways
    assert all(groups > 0 for groups, _calls in both_ways)
