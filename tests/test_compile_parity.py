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
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PostgresInstance
from repro.engine.compile import get_compiled
from repro.engine.expr import EvalContext, Row, RowLayout, evaluate
from repro.errors import CatalogError, DataError
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
