"""Compiled expressions must be indistinguishable from the interpreter.

``repro.engine.compile.get_compiled`` turns expression ASTs into closures
for the executor's per-row loops. These tests run the same expression
through both paths — ``evaluate`` and the compiled closure — over the
corpus exercised by ``test_expr_functions.py`` (three-valued logic,
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PostgresInstance
from repro.engine.compile import get_compiled
from repro.engine.expr import BoundParams, EvalContext, Row, RowLayout, evaluate
from repro.errors import CatalogError, DataError
from repro.sql import ast as A
from repro.sql import parse, parse_expression


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
