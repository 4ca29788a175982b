"""Compiled expressions must be indistinguishable from the reference
interpreter (``tests/expr_reference.py``).

``repro.engine.compile.get_compiled`` turns expression ASTs into closures
for the executor's per-row loops. These tests run the same expression
through both — the reference's ``evaluate`` and the compiled closure —
over the corpus exercised by ``test_expr_functions.py`` (three-valued logic,
comparisons, arithmetic, string/date functions, CASE, casts, IN/BETWEEN,
LIKE) plus Hypothesis-generated operand combinations, asserting identical
results *and* identical errors (same exception type and message).

The executor additionally caches a *prepared shape* per statement AST
(``compile.get_prepared``): the same corpus runs as SELECT targets, WHERE
predicates and UPDATE assignments, asserting that the shape-building first
execution, the shape-reusing second execution and a freshly parsed
statement all agree with the interpreter. A fourth position is the
executor's *generated aggregate loop* (``AggShape.accumulate``): the corpus
as GROUP BY key, aggregate argument and FILTER, the three places where the
generated code calls out to a compiled closure.

Two specialised paths get their own parity checks: the one-closure
comparison of a column with a literal or parameter, against ``evaluate``
over every value type on either side; and ``ORDER BY … LIMIT``'s top-N
heap, against the full sort sliced.
"""

import datetime as dt
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PostgresInstance
from repro.engine.compile import get_compiled
from repro.engine.expr import BoundParams, EvalContext, Row, RowLayout
from repro.errors import CatalogError, DataError
from repro.sql import ast as A
from repro.sql import parse, parse_expression

from .expr_reference import evaluate


def both(text, **bindings):
    """Evaluate ``text`` interpreted, compiled with column references left
    to the inline cache, and compiled against the row's layout (slot reads
    resolved at compile time); assert parity; return the interpreted
    outcome tag."""
    return parity(text, Row.of(**bindings), bindings)


def parity(text, row, bindings=None):
    expr = parse_expression(text)
    ctx = EvalContext(row=row)

    def run(fn):
        try:
            return ("ok", fn())
        except (DataError, CatalogError) as exc:
            return ("err", type(exc).__name__, str(exc))

    interpreted = run(lambda: evaluate(expr, ctx))
    inline_cached = get_compiled(expr)
    static = get_compiled(expr, row.layout)
    for label, fn in (("inline-cached", inline_cached),
                      ("inline-cached again", inline_cached),
                      ("against layout", static)):
        compiled = run(lambda: fn(ctx))
        assert compiled == interpreted, (
            f"{text!r} with {bindings}: interpreted={interpreted} "
            f"{label}={compiled}"
        )
    # The same closures over a second row of another layout: the inline
    # cache must re-resolve, and a nested scope must reach the first row.
    if bindings is not None:
        shifted = Row.of(**{"__pad": 0, **bindings})
        assert run(lambda: inline_cached(EvalContext(row=shifted))) == interpreted
    inner = EvalContext(row=Row(), outer=ctx)
    assert run(lambda: inline_cached(inner)) == interpreted
    assert run(lambda: get_compiled(expr, inner.layout)(inner)) == interpreted
    return interpreted


class TestColumnResolutionParity:
    """Unknown and ambiguous references fail alike — class and message —
    whichever way the reference was resolved."""

    def test_unknown_columns(self):
        assert both("nope + 1", x=1) == (
            "err", "CatalogError", "column 'nope' does not exist")
        assert both("t.x", x=1) == (
            "err", "CatalogError", "column 't.x' does not exist")

    def test_ambiguous_and_qualified_after_a_join(self):
        joined = RowLayout.of("a", ["x", "y"]).join(RowLayout.of("b", ["x"]))
        row = Row(joined, [1, 2, 3])
        assert parity("x + 1", row) == (
            "err", "AmbiguousColumn", "column reference 'x' is ambiguous")
        assert parity("a.x + b.x + y", row) == ("ok", 6)


# The corpus from test_expr_functions.py, as (expression, bindings) pairs.
CORPUS = [
    # three-valued logic
    ("NULL AND false", {}),
    ("NULL AND true", {}),
    ("NULL OR true", {}),
    ("NULL OR false", {}),
    ("NOT NULL", {}),
    ("1 = NULL", {}),
    ("NULL <> NULL", {}),
    ("1 + NULL", {}),
    ("coalesce(NULL, NULL, 3)", {}),
    ("nullif(5, 5)", {}),
    ("nullif(5, 6)", {}),
    ("1 IN (1, NULL)", {}),
    ("2 IN (1, NULL)", {}),
    ("2 NOT IN (1, NULL)", {}),
    # operators
    ("7 / 2", {}),
    ("-7 / 2", {}),
    ("7 % 3", {}),
    ("1 / 0", {}),
    ("1 % 0", {}),
    ("2 < 10", {}),
    ("'2' < '10'", {}),
    ("1.5 + 2", {}),
    ("-(-3)", {}),
    ("'abc' || 'def'", {}),
    ("'a' || NULL", {}),
    ("true AND false OR true", {}),
    ("x IS NULL", {"x": None}),
    ("x IS NOT NULL", {"x": None}),
    ("x IS NULL", {"x": 1}),
    # BETWEEN
    ("5 BETWEEN 1 AND 9", {}),
    ("5 NOT BETWEEN 1 AND 9", {}),
    ("NULL BETWEEN 1 AND 9", {}),
    ("5 BETWEEN NULL AND 9", {}),
    # CASE
    ("CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END",
     {"x": 3}),
    ("CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END",
     {"x": -3}),
    ("CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END",
     {"x": 0}),
    ("CASE WHEN x > 0 THEN 'pos' END", {"x": None}),
    ("CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END", {"x": 2}),
    ("CASE x WHEN 1 THEN 'one' ELSE 'many' END", {"x": None}),
    # casts
    ("CAST('42' AS int)", {}),
    ("CAST('oops' AS int)", {}),
    ("CAST(1 AS boolean)", {}),
    ("CAST('2024-02-29' AS date)", {}),
    ("'7'::int + 1", {}),
    # LIKE / regex
    ("'hello' LIKE 'h%'", {}),
    ("'hello' LIKE 'h_llo'", {}),
    ("'hello' NOT LIKE 'x%'", {}),
    ("'HELLO' ILIKE 'he%'", {}),
    ("x LIKE 'a%'", {"x": None}),
    ("'hello' ~ 'l+o'", {}),
    # string functions
    ("lower('ABC')", {}),
    ("upper('abc')", {}),
    ("length('abcd')", {}),
    ("substring('abcdef', 2, 3)", {}),
    ("concat('a', NULL, 'b')", {}),
    ("abs(-5)", {}),
    ("round(2.567, 2)", {}),
    ("greatest(1, 9, 4)", {}),
    ("least(1, 9, 4)", {}),
    ("power(2, 10)", {}),
    # arrays
    ("ARRAY[1, 2, 3]", {}),
    ("2 = ANY(ARRAY[1, 2, 3])", {}),
]


class TestCorpusParity:
    @pytest.mark.parametrize("text,bindings", CORPUS,
                             ids=[c[0] for c in CORPUS])
    def test_compiled_matches_interpreted(self, text, bindings):
        both(text, **bindings)

    def test_division_by_zero_is_the_same_error(self):
        tag = both("1 / 0")
        assert tag[0] == "err"
        assert "division by zero" in tag[2]

    def test_bad_cast_is_the_same_error(self):
        assert both("CAST('oops' AS int)")[0] == "err"


def _outcome(fn):
    try:
        return ("ok", fn())
    except DataError as exc:
        return ("err", type(exc).__name__, str(exc))


def shape_cached_and_first_execution_agree(session, sql):
    """Run one AST twice (first execution builds the prepared shape, the
    second reuses it) and a fresh parse once; all three outcomes must be
    equal. Returns the outcome."""
    stmt = parse(sql)[0]
    first = _outcome(lambda: session.execute_parsed(stmt).rows)
    cached = _outcome(lambda: session.execute_parsed(stmt).rows)
    fresh = _outcome(lambda: session.execute_parsed(parse(sql)[0]).rows)
    assert first == cached == fresh, f"{sql!r}: {first} / {cached} / {fresh}"
    return first


class TestShapeCachedParity:
    """Every corpus expression as a statement, in each position a prepared
    shape compiles: target list, WHERE (scan predicate) and UPDATE SET."""

    @pytest.fixture
    def one(self):
        session = PostgresInstance("parity").connect()
        session.execute("CREATE TABLE one (id int PRIMARY KEY, x int, out text)")
        return session

    @pytest.mark.parametrize("text,bindings", CORPUS,
                             ids=[c[0] for c in CORPUS])
    def test_statement_matches_interpreter(self, one, text, bindings):
        one.execute("INSERT INTO one VALUES (1, :x, NULL)", {"x": bindings.get("x")})
        interpreted = both(text, **bindings)

        selected = shape_cached_and_first_execution_agree(
            one, f"SELECT {text} AS r FROM one WHERE id = 1")
        if interpreted[0] == "ok":
            assert selected == ("ok", [[interpreted[1]]])
        else:
            assert selected == interpreted

        filtered = shape_cached_and_first_execution_agree(
            one, f"SELECT id FROM one WHERE ({text}) IS NOT DISTINCT FROM ({text})")
        assert filtered == (("ok", [[1]]) if interpreted[0] == "ok" else interpreted)

        assigned = shape_cached_and_first_execution_agree(
            one, f"UPDATE one SET out = CAST(({text}) AS text) WHERE id = 1 RETURNING out")
        if interpreted[0] == "ok":
            expected = both(f"CAST(({text}) AS text)", **bindings)
            assert assigned == ("ok", [[expected[1]]])
        else:
            assert assigned == interpreted

        as_text = f"CAST(({text}) AS text)"
        grouped = shape_cached_and_first_execution_agree(
            one, f"SELECT {as_text}, min({as_text}), count(*) FILTER"
                 f" (WHERE ({text}) IS NOT DISTINCT FROM ({text}))"
                 f" FROM one GROUP BY {as_text}")
        if interpreted[0] == "ok":
            assert grouped == ("ok", [[expected[1], expected[1], 1]])
        else:
            assert grouped == interpreted


scalars = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.booleans(),
    st.text(alphabet="ab%_", max_size=4),
)


class TestPropertyParity:
    @given(a=st.one_of(st.none(), st.integers(-20, 20)),
           b=st.one_of(st.none(), st.integers(-20, 20)),
           op=st.sampled_from(["+", "-", "*", "/", "%", "=", "<>", "<",
                               "<=", ">", ">="]))
    def test_binary_ops(self, a, b, op):
        both(f"x {op} y", x=a, y=b)

    @given(a=st.one_of(st.none(), st.booleans()),
           b=st.one_of(st.none(), st.booleans()),
           op=st.sampled_from(["AND", "OR"]))
    def test_kleene_logic(self, a, b, op):
        both(f"x {op} y", x=a, y=b)

    @given(v=st.one_of(st.none(), st.integers(-10, 10)),
           lo=st.one_of(st.none(), st.integers(-10, 10)),
           hi=st.one_of(st.none(), st.integers(-10, 10)),
           negated=st.booleans())
    def test_between(self, v, lo, hi, negated):
        kw = "NOT BETWEEN" if negated else "BETWEEN"
        both(f"x {kw} y AND z", x=v, y=lo, z=hi)

    @given(v=st.one_of(st.none(), st.integers(0, 5)),
           items=st.lists(st.one_of(st.none(), st.integers(0, 5)),
                          min_size=1, max_size=4),
           negated=st.booleans())
    def test_in_list(self, v, items, negated):
        kw = "NOT IN" if negated else "IN"
        names = [f"i{n}" for n in range(len(items))]
        text = f"x {kw} ({', '.join(names)})"
        both(text, x=v, **dict(zip(names, items)))

    @given(s=st.one_of(st.none(), st.text(alphabet="abc", max_size=5)),
           pattern=st.text(alphabet="abc%_", max_size=4))
    def test_like(self, s, pattern):
        both("x LIKE p", x=s, p=pattern)


# ------------------------------------------- column against a constant

#: Operands of every type a column or a constant may hold; the naive and
#: the zone-aware timestamp cannot be compared, so the error (which names
#: both operands, in order) is compared too.
OPERANDS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(2**53, 2**53 + 2),
    st.sampled_from([-1.5, 0.0, 1.0, 2.5]),
    st.booleans(),
    st.sampled_from(["", "a", "b", "10", "2"]),
    st.sampled_from([dt.date(2024, 1, 1), dt.date(2024, 2, 29),
                     dt.datetime(2024, 1, 1),
                     dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc)]),
    st.sampled_from([{"a": 1}, {"a": [True, None]}, [1, "x"], []]),
)
#: How the constant is written: a literal, or a parameter (named or
#: positional) bound in a plain dict / list or in ``BoundParams``.
FORMS = ["literal", "named", "positional", "bound named", "bound positional"]


def comparison(op, form, column_left, const):
    """``x op constant`` (or ``constant op x``) and the parameters that
    bind the constant."""
    if form == "literal":
        constant, params = A.Literal(const), None
    elif form.endswith("named"):
        constant, params = A.Param(name="p"), {"p": const}
    else:
        constant, params = A.Param(index=1), [const]
    if form.startswith("bound"):
        params = (BoundParams(None, params) if isinstance(params, dict)
                  else BoundParams(params))
    column = A.ColumnRef("x")
    expr = (A.BinaryOp(op, column, constant) if column_left
            else A.BinaryOp(op, constant, column))
    return expr, params


def typed_outcome(fn):
    try:
        value = fn()
        return ("ok", type(value).__name__, value)
    except (DataError, CatalogError) as exc:
        return ("err", type(exc).__name__, str(exc))


class TestComparisonClosureParity:
    """A comparison of a column with a literal or parameter compiles to one
    closure over the row's layout (reading both operands itself); it must
    return what ``evaluate`` returns — value and type — or raise what it
    raises, whichever side the column is on."""

    @settings(max_examples=400, deadline=None)
    @given(value=OPERANDS, const=OPERANDS,
           op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
           form=st.sampled_from(FORMS), column_left=st.booleans())
    def test_matches_the_interpreter(self, value, const, op, form, column_left):
        expr, params = comparison(op, form, column_left, const)
        row = Row.of(x=value)
        ctx = EvalContext(row=row, params=params)
        compiled = get_compiled(expr, row.layout)
        assert compiled.__qualname__.startswith("_build_comparison")
        assert (typed_outcome(lambda: compiled(ctx))
                == typed_outcome(lambda: evaluate(expr, ctx)))

    @pytest.mark.parametrize("form", FORMS[1:])
    @pytest.mark.parametrize("params", [None, {}, [], {"q": 1}, BoundParams(),
                                        BoundParams([])])
    def test_a_missing_parameter_raises_what_the_interpreter_raises(
            self, form, params):
        expr, _bound = comparison("=", form, True, 1)
        row = Row.of(x=1)
        ctx = EvalContext(row=row, params=params)
        compiled = typed_outcome(lambda: get_compiled(expr, row.layout)(ctx))
        assert compiled == typed_outcome(lambda: evaluate(expr, ctx))
        assert compiled[0] == "err"


# --------------------------------------------------------- ORDER BY LIMIT

#: ``m`` has a type the engine does not know: its values pass uncast, so
#: one column mixes every type (generic sort keys).
SORT_TABLE = "CREATE TABLE s (id int, a int, b text, m anything)"
SORT_KEYS = ["a", "b", "m", "2", "coalesce(a, -1)", "id"]
#: One NaN object throughout, so rows holding it compare equal.
NAN = float("nan")

sort_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),            # a: ties
        st.one_of(st.none(), st.sampled_from(["x", "y", "Y", ""])),
        st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(
            [1.5, NAN, "1", "z", True, dt.date(2024, 1, 1), {"k": 1}])),
    ),
    max_size=14,
)


@st.composite
def order_bys(draw):
    keys = draw(st.lists(st.sampled_from(SORT_KEYS), min_size=1, max_size=3,
                         unique=True))
    return ", ".join(
        key + draw(st.sampled_from(["", " ASC", " DESC"]))
        + draw(st.sampled_from(["", " NULLS FIRST", " NULLS LAST"]))
        for key in keys)


#: Thirteen rows with ties in ``a`` and ``b``, NULLs in all three, and
#: every type in ``m``, NaN among them.
NAMED_SORT_ROWS = [
    [0, 2, "y", 1], [1, None, "x", "1"], [2, 1, None, None], [3, 2, "x", 1.5],
    [4, 0, "Y", True], [5, 1, "x", dt.date(2024, 1, 1)], [6, None, None, -2],
    [7, 2, "", {"k": 1}], [8, 0, "y", "z"], [9, 1, "x", None], [10, 3, "y", 1],
    [11, 0, None, 0], [12, 3, "x", NAN],
]


def assert_top_n_is_the_full_sort_sliced(rows, select, limit, offset):
    """``select`` (which ends in its ORDER BY) with ``LIMIT limit [OFFSET
    offset]`` returns the rows of its full sort, sliced: values, types and
    order alike."""
    session = PostgresInstance("topn").connect()
    session.execute(SORT_TABLE)
    if rows:
        session.copy_rows("s", rows)
    full = session.execute(select).rows
    clause = f" LIMIT {limit}" + ("" if offset is None else f" OFFSET {offset}")
    kept = session.execute(select + clause).rows
    start = offset or 0
    expected = full[start:] if limit == "NULL" else full[start:start + int(limit)]
    assert typed(kept) == typed(expected), (select + clause, full)
    return kept


class TestTopNParity:
    """``ORDER BY … LIMIT n [OFFSET m]`` keeps its first rows through a
    bounded heap; they must be the rows of the full sort, sliced, in the
    same order — ties in input order, DESC and NULL placement as asked."""

    @pytest.mark.parametrize("order_by", [
        "a", "a DESC", "b DESC, a", "a NULLS FIRST, id DESC", "a DESC NULLS LAST",
        "b NULLS FIRST", "m", "m DESC", "m DESC NULLS LAST, a", "2 DESC",
        "coalesce(a, -1) DESC", "id DESC", "a, b DESC NULLS FIRST, m",
    ])
    @pytest.mark.parametrize("limit, offset", [
        ("0", None), ("1", None), ("4", None), ("4", 3), ("0", 3), ("NULL", 2),
        ("12", None), ("13", None), ("100", 1),
    ])
    def test_named_cases(self, order_by, limit, offset):
        kept = assert_top_n_is_the_full_sort_sliced(
            NAMED_SORT_ROWS, f"SELECT id, a, b, m FROM s ORDER BY {order_by}",
            limit, offset)
        if limit == "4" and offset is None and order_by == "id DESC":
            assert [row[0] for row in kept] == [12, 11, 10, 9]

    @pytest.mark.parametrize("direction, expected", [
        ("", [0.0, 1.0, NAN, None]), (" DESC", [None, NAN, 1.0, 0.0])])
    def test_nan_sorts_above_every_number(self, direction, expected):
        rows = [[0, None, None, 1.0], [1, None, None, NAN],
                [2, None, None, 0.0], [3, None, None, None]]
        for limit in ("1", "2", "3", "NULL"):
            kept = assert_top_n_is_the_full_sort_sliced(
                rows, f"SELECT id, m FROM s ORDER BY m{direction}", limit, None)
            assert [row[1] for row in kept] == expected[:len(kept)]

    @settings(max_examples=300, deadline=None)
    @given(rows=sort_rows, order_by=order_bys(),
           limit=st.sampled_from(["0", "1", "3", "5", "100", "NULL"]),
           offset=st.sampled_from([None, 0, 2, 5]),
           distinct=st.booleans())
    def test_random_cases(self, rows, order_by, limit, offset, distinct):
        if distinct and not all(key.split()[0] in ("a", "b", "2")
                                for key in order_by.split(", ")):
            return  # DISTINCT's ORDER BY names output columns
        select = ("SELECT DISTINCT a, b" if distinct
                  else "SELECT id, a, b, m") + f" FROM s ORDER BY {order_by}"
        assert_top_n_is_the_full_sort_sliced(
            [[i, *row] for i, row in enumerate(rows)], select, limit, offset)


def typed(rows):
    return [[(type(v).__name__, v) for v in row] for row in rows]


# --------------------------------------------------------------- fused loops

#: ``events`` and ``tenants`` as the ledger's shards hold them, and
#: ``accounts`` as ``oltp_point``'s: what the statements below scan.
EVENTS = ["k", "tenant", "v", "label"]
TENANTS = ["id", "plan"]

#: Every statement a worker runs for the ledger — ``analytics_scan``'s five
#: shapes, ``write_mix``'s rollup, counts and multi-row UPDATE,
#: ``oltp_point``'s point SELECT and UPDATE — and the outer joins, with the
#: parameters they are bound with (as the coordinator binds them).
FUSED = {
    "group_agg": "SELECT tenant AS worker_column_0, count(*) AS worker_column_1,"
                 " sum(v) AS worker_column_2, avg_partial(v) AS worker_column_3"
                 " FROM events AS events GROUP BY tenant",
    "order_limit": "SELECT k, v, v AS worker_sort_0, k AS worker_sort_1"
                   " FROM events AS events ORDER BY v, k LIMIT 10",
    "full_order": "SELECT k, v, v AS worker_sort_0 FROM events AS events ORDER BY v",
    "ref_join": "SELECT t.plan AS worker_column_0, count(*) AS worker_column_1,"
                " sum(e.v) AS worker_column_2 FROM events AS e"
                " JOIN tenants AS t ON e.tenant = t.id GROUP BY t.plan",
    "filter_scan": "SELECT k, tenant FROM events AS events WHERE v = :f",
    "rollup": "SELECT tenant, v, count(*), sum(v) FROM events GROUP BY tenant, v",
    "counts": "SELECT count(*), sum(v) FROM events",
    "point_select": "SELECT v FROM accounts WHERE key = :key",
    "left_join": "SELECT e.k, t.plan FROM events e LEFT JOIN tenants t ON e.tenant = t.id",
    "right_join": "SELECT e.k, t.plan FROM events e RIGHT JOIN tenants t ON e.tenant = t.id",
    "full_join": "SELECT e.k, t.plan FROM events e FULL JOIN tenants t ON e.tenant = t.id",
}
FUSED_DML = {
    "multi_update": ("UPDATE events SET v = v + 1 WHERE tenant = :t", "events",
                     "tenant = :t", 2),
    "point_update": ("UPDATE accounts SET v = v + :d WHERE key = :key", "accounts",
                     "key = :key", 1),
}
PARAMS = BoundParams(None, {"f": 7, "key": 5, "t": 22, "d": 1})


def visible(session, table):
    """``table``'s rows the session's snapshot sees, by ``tuple_visible``."""
    from repro.engine.mvcc import tuple_visible

    snapshot, clog = session.snapshot(), session.instance.xids.clog
    return [t.values for t in session.instance.catalog.get_table(table).heap.tuples
            if tuple_visible(t, snapshot, clog)]


def where(session, table, condition, alias=None):
    """The visible rows ``condition`` holds for, by ``evaluate``."""
    expr = parse_expression(condition)
    columns = session.instance.catalog.get_table(table).column_names()
    layout = RowLayout.of(alias or table, columns)
    return [row for row in visible(session, table)
            if evaluate(expr, EvalContext(Row(layout, row), PARAMS)) is True]


def joined(session, kind):
    """``events e <kind> JOIN tenants t ON e.tenant = t.id`` as a nested
    loop over the visible rows, the condition evaluated per pair."""
    layout = RowLayout.of("e", EVENTS).join(RowLayout.of("t", TENANTS))
    condition = parse_expression("e.tenant = t.id")
    left = [list(row) for row in visible(session, "events")]
    right = [list(row) for row in visible(session, "tenants")]
    out, matched = [], set()
    for lrow in left:
        hit = False
        for i, rrow in enumerate(right):
            if evaluate(condition, EvalContext(Row(layout, lrow + rrow))) is True:
                out.append(lrow + rrow)
                hit = True
                matched.add(i)
        if not hit and kind in ("left", "full"):
            out.append(lrow + [None, None])
    if kind in ("right", "full"):
        out += [[None] * 4 + rrow for i, rrow in enumerate(right) if i not in matched]
    return out


def grouped(rows, key, *calls):
    """Hash aggregation in first-seen order: per group the key's values,
    then each call's result over the group's rows."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(key(row)), []).append(row)
    return [[*k, *(call(members) for call in calls)] for k, members in groups.items()]


def total(values):
    values = [v for v in values if v is not None]
    return sum(values) if values else None


def expected_rows(session, name):
    events = visible(session, "events")
    v_last = sorted(events, key=lambda r: (r[2] is None, r[2] or 0, r[0]))
    return {
        "group_agg": lambda: grouped(
            events, lambda r: [r[1]], len, lambda g: total(r[2] for r in g),
            lambda g: [total(r[2] for r in g), sum(r[2] is not None for r in g)]),
        "order_limit": lambda: [[r[0], r[2], r[2], r[0]] for r in v_last[:10]],
        "full_order": lambda: [[r[0], r[2], r[2]] for r in v_last],
        "ref_join": lambda: grouped(joined(session, "inner"), lambda r: [r[5]], len,
                                    lambda g: total(r[2] for r in g)),
        "filter_scan": lambda: [[r[0], r[1]] for r in where(session, "events", "v = :f")],
        "rollup": lambda: grouped(events, lambda r: [r[1], r[2]], len,
                                  lambda g: total(r[2] for r in g)),
        "counts": lambda: [[len(events), total(r[2] for r in events)]],
        "point_select": lambda: [[r[1]] for r in where(session, "accounts", "key = :key")],
        **{f"{kind}_join": (lambda kind=kind: [[r[0], r[5]] for r in joined(session, kind)])
           for kind in ("left", "right", "full")},
    }[name]()


def expected_stats(session, name):
    """``(tuples_scanned, pages_read)`` by the rules statements have always
    been charged by: a sequential scan its visible tuples and every page —
    a lazy cursor one page up front and one per tuples-per-page tuples —
    and an index scan its visible candidates, one page each (at least
    one)."""
    def heap_scan(table):
        heap = session.instance.catalog.get_table(table).heap
        return len(visible(session, table)), heap.page_count

    if name == "point_select":
        found = len(where(session, "accounts", "key = :key"))
        return found, max(1, found)
    if name == "filter_scan":
        heap = session.instance.catalog.get_table("events").heap
        per_page = max(1, len(heap.tuples) // max(heap.page_count, 1))
        seen = len(visible(session, "events"))
        return seen, 1 + seen // per_page
    scans = [heap_scan("events")]
    if "join" in name:
        scans.append(heap_scan("tenants"))
    return tuple(map(sum, zip(*scans)))


def run_fused(session, name):
    stmt = parse(FUSED[name])[0]
    if name != "filter_scan":
        return session.execute_parsed(stmt, PARAMS).rows
    cursor = session.execute_parsed_cursor(stmt, PARAMS)  # as a worker runs it
    rows = []
    while batch := cursor.fetch(256):
        rows += batch.rows()
    return rows


def fused_instance():
    pg = PostgresInstance("fused")
    session, other = pg.connect(), pg.connect()
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    session.execute("CREATE TABLE accounts (key int PRIMARY KEY, v int, filler text)")
    # Tenants 35-39 have no events, events of tenants 30-34 no tenant row.
    session.copy_rows("events", [[k, k % 35, (k * 7) % 13, f"label-{k}"]
                                 for k in range(1, 301)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(40)])
    session.copy_rows("accounts", [[k, 0, f"filler-{k}"] for k in range(1, 51)])
    return session, other


def _other_uncommitted(s, other):
    other.execute("BEGIN")
    other.execute("INSERT INTO events VALUES (1001, 3, 7, 'x'), (1002, NULL, 7, 'y')")
    other.execute("DELETE FROM events WHERE k <= 20")
    other.execute("UPDATE tenants SET plan = 'moved' WHERE id = 2")


def _aborted_insert(s, other):
    other.execute("BEGIN")
    other.execute("INSERT INTO events VALUES (1001, 3, 7, 'x')")
    other.execute("INSERT INTO tenants VALUES (99, 'gone')")
    other.execute("ROLLBACK")


def _updated_twice(s, other):
    for _ in range(2):
        s.execute("UPDATE events SET v = v + 1 WHERE k % 7 = 0")
        s.execute("UPDATE accounts SET v = v + 1 WHERE key = 5")


def _own_writes(s, other):
    s.execute("BEGIN")
    s.execute("INSERT INTO events VALUES (1001, 22, 7, 'mine')")
    s.execute("UPDATE events SET v = 7 WHERE k % 11 = 0")
    s.execute("DELETE FROM events WHERE k % 13 = 0")
    s.execute("UPDATE accounts SET v = 3 WHERE key = 5")


def _null_keys(s, other):
    s.execute("INSERT INTO events VALUES (1001, NULL, NULL, 'n'), (1002, NULL, 7, 'n'),"
              " (1003, 4, NULL, 'n')")


def _empty(s, other):
    for table in ("events", "tenants", "accounts"):
        s.execute(f"DELETE FROM {table}")
        s.execute(f"VACUUM {table}")


SCENARIOS = {"committed": lambda s, other: None,
             "other_uncommitted": _other_uncommitted, "aborted_insert": _aborted_insert,
             "updated_twice": _updated_twice, "own_writes": _own_writes,
             "null_keys": _null_keys, "empty_shard": _empty}


def by_repr(rows):
    return sorted((typed([row])[0] for row in rows), key=repr)


class TestFusedLoopParity:
    """Each worker statement of the ledger runs as one generated loop (scan,
    visibility, WHERE, join probe, aggregate or projection). It must return
    what a reference built row by row from ``mvcc.tuple_visible`` and
    the reference ``evaluate`` returns, and charge the scan statistics statements
    have always been charged, under every visibility case a shard meets."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_ledger_statement(self, scenario):
        session, other = fused_instance()
        SCENARIOS[scenario](session, other)
        for name in FUSED:
            expected = expected_rows(session, name)
            scanned, pages = expected_stats(session, name)
            before = Counter(session.stats)
            got = run_fused(session, name)
            assert by_repr(got) == by_repr(expected), (scenario, name)
            if name in ("order_limit", "full_order"):
                assert [row[1] for row in got] == [row[1] for row in expected]
            assert (session.stats["tuples_scanned"] - before["tuples_scanned"],
                    session.stats["pages_read"] - before["pages_read"]) \
                == (scanned, pages), (scenario, name)
        if scenario != "own_writes":
            session.execute("BEGIN")
        for name, (sql, table, condition, column) in FUSED_DML.items():
            targets = {row[0]: row for row in where(session, table, condition)}
            assert session.execute(sql, PARAMS).rowcount == len(targets), name
            for row in visible(session, table):
                if row[0] in targets:
                    assert row[column] == targets[row[0]][column] + 1, (scenario, name)
        session.execute("ROLLBACK")

    def test_a_cursor_closed_after_its_first_batch_is_charged_what_it_read(self):
        """A lazy scan stopped after one 256-row fetch has read up to its
        256th row: tuples up to there, one page up front and one per
        tuples-per-page tuples."""
        session, other = fused_instance()
        session.copy_rows("events", [[k, k % 25, k % 3, "more"] for k in range(301, 626)])
        _other_uncommitted(session, other)
        stmt = parse("SELECT k, tenant FROM events AS events WHERE v < :f")[0]
        heap = session.instance.catalog.get_table("events").heap
        per_page = max(1, len(heap.tuples) // max(heap.page_count, 1))
        kept = {row[0] for row in where(session, "events", "v < :f")}
        assert len(kept) > 256
        seen = passed = 0
        for values in visible(session, "events"):
            seen += 1
            passed += values[0] in kept
            if passed == 256:
                break
        before = Counter(session.stats)
        cursor = session.execute_parsed_cursor(stmt, PARAMS)
        assert len(cursor.fetch(256)) == 256
        cursor.close()
        assert (session.stats["tuples_scanned"] - before["tuples_scanned"],
                session.stats["pages_read"] - before["pages_read"]) \
            == (seen, 1 + seen // per_page)
