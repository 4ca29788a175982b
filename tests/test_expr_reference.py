"""The closure builders must be indistinguishable from the reference
interpreter (``tests/expr_reference.py``).

``repro.engine.compile`` is the one definition of what an expression node
means; the interpreter it replaced is kept in ``tests/`` to hold it to.
Hypothesis draws expression trees over every node kind — literals of every
type and NULL, parameters bound every way, columns of this and an outer
scope (unknown and ambiguous ones too), slots, casts, IS NULL, BETWEEN,
IN lists, both CASE forms, arrays, unary and binary operators, scalar,
session, user-defined, unknown and aggregate functions (COALESCE's
laziness among them), subqueries of every kind and a node kind nothing can
evaluate — and requires every entry point to return what the reference
returns, with the same type, or raise the same error:

- :func:`repro.engine.compile.evaluate`, built for one call;
- :func:`repro.engine.compile.get_compiled` with no layout (column
  references resolved per call), called twice (the inline cache's hit);
- ``get_compiled`` against the row's layout (slot reads resolved once).

Each evaluation gets a fresh context: the session's random generator and
sequences start over, so volatile functions answer alike.
"""

import datetime as dt
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile as C
from repro.engine.catalog import Catalog
from repro.engine.expr import BoundParams, EvalContext, Row, RowLayout, SlotRef
from repro.sql import ast as A
from repro.sql import parse_expression

from . import expr_reference as reference


@dataclass
class CannedQuery(A.Select):
    """A subquery whose rows the test supplies."""

    canned: list = field(default_factory=list)


class FakeSession:
    """What expressions ask of a session: the clock, a random generator,
    an xid, a backend pid and a catalog of sequences and functions."""

    def __init__(self):
        self.rng = random.Random(7)
        self.backend_pid = 4242
        self.instance = self
        self.catalog = Catalog()
        self.catalog.get_sequence("s").setval(9)
        self.catalog.register_function("twice", lambda session, x: [x, x])

    def now(self):
        return dt.datetime(2024, 2, 29, 12, 30)

    def ensure_xid(self):
        return 731


#: The row every expression is evaluated over: one relation, or a join
#: whose ``a`` is ambiguous; or either as the outer scope of a row of
#: ``INNER``. Each is wide enough for the slots drawn (0 and 1).
SINGLE = RowLayout.of("t", ["a", "b", "c"])
JOINED = RowLayout.of("t", ["a", "b"]).join(RowLayout.of("u", ["a", "c"]))
INNER = RowLayout.of("v", ["d", "e"])

VALUES = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.sampled_from([-1.5, 0.0, 2.5]),
    st.booleans(),
    st.text(alphabet="ab%_\\", max_size=3),
    st.sampled_from(["7", "2024-03-01", "t", '{"k": [1, 2]}']),
    st.sampled_from([dt.date(2024, 2, 29), dt.datetime(2024, 3, 1, 8, 0),
                     dt.timedelta(days=2)]),
    st.sampled_from([[1, None, 3], ["x"], [], {"k": [1, 2]}, {"a": "b"}]),
)
CASTS = ["int", "bigint", "float", "text", "boolean", "date", "jsonb", "int[]"]
UNARY = ["not", "-", "~"]
BINARY = ["and", "or", "is", "=", "<>", "<", "<=", ">", ">=", "+", "-", "/",
          "%", "||", "like", "ilike", "~", "!~", "->", "->>", "#>>", "@>"]
FUNCTIONS = ["lower", "upper", "length", "abs", "nullif", "greatest", "least",
             "mod", "concat", "round", "coalesce", "num_nulls", "to_jsonb",
             # session functions
             "now", "current_date", "random", "txid_current", "pg_backend_pid",
             "nextval", "currval", "setval",
             # a UDF, an unknown name, aggregates
             "twice", "nope", "sum", "count"]
SUBQUERY_KINDS = ["scalar", "exists", "array", "in", "any", "all", "bogus"]


def leaves():
    return st.one_of(
        VALUES.map(A.Literal),
        st.integers(1, 3).map(lambda i: A.Param(index=i)),
        st.sampled_from(["p", "q"]).map(lambda n: A.Param(name=n)),
        st.sampled_from([A.ColumnRef("a"), A.ColumnRef("b"), A.ColumnRef("c"),
                         A.ColumnRef("a", "t"), A.ColumnRef("a", "u"),
                         A.ColumnRef("d"), A.ColumnRef("nope")]),
        st.integers(0, 1).map(SlotRef),
        st.just(A.Star()),
    )


def extend(children):
    lists = st.lists(children, min_size=1, max_size=3)
    # Mostly NULLs and small ints, so comparisons with the operand decide.
    cells = st.one_of(st.none(), st.integers(-2, 2), VALUES)
    rows = st.lists(st.lists(cells, min_size=1, max_size=2), max_size=3)
    return st.one_of(
        st.builds(A.Cast, children, st.sampled_from(CASTS)),
        st.builds(A.IsNull, children, st.booleans()),
        st.builds(A.BetweenExpr, children, children, children, st.booleans()),
        st.builds(A.InList, children, lists, st.booleans()),
        st.builds(lambda whens, other: A.CaseExpr(whens, other),
                  st.lists(st.tuples(children, children), min_size=1, max_size=2),
                  st.none() | children),
        st.builds(lambda operand, whens, other: A.CaseExpr(whens, other, operand),
                  children, st.lists(st.tuples(children, children), min_size=1,
                                     max_size=2), st.none() | children),
        st.builds(A.ArrayExpr, lists),
        st.builds(A.UnaryOp, st.sampled_from(UNARY), children),
        st.builds(A.BinaryOp, st.sampled_from(BINARY), children, children),
        # ``*`` over leaves only: a string times a product could not be held.
        st.builds(A.BinaryOp, st.just("*"), leaves(), leaves()),
        st.builds(lambda name, args: A.FuncCall(name, args),
                  st.sampled_from(FUNCTIONS),
                  st.lists(children | st.just(A.Literal("s")), max_size=3)),
        st.builds(lambda kind, operand, op, negated, canned: A.SubqueryExpr(
                      kind=kind, query=CannedQuery(canned=canned), operand=operand,
                      op=op, negated=negated),
                  st.sampled_from(SUBQUERY_KINDS),
                  st.integers(-2, 2).map(A.Literal) | children,
                  st.sampled_from(["=", "<", "<>"]), st.booleans(), rows),
    )


EXPRESSIONS = st.recursive(leaves(), extend, max_leaves=8)

PARAMS = st.one_of(
    st.none(),
    st.lists(VALUES, max_size=3),
    st.lists(VALUES, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(["p", "q"]), VALUES),
    st.builds(BoundParams, st.none() | st.lists(VALUES, max_size=3),
              st.dictionaries(st.sampled_from(["p", "q"]), VALUES)),
)


@st.composite
def contexts(draw):
    """``(layout, make)``: ``make()`` builds a fresh context over one drawn
    row — the current scope's, or an outer scope's under a row of ``INNER``."""
    layout = draw(st.sampled_from([SINGLE, JOINED]))
    values = draw(st.lists(VALUES, min_size=layout.width, max_size=layout.width))
    params = draw(PARAMS)
    with_session = draw(st.booleans())
    with_subqueries = draw(st.booleans())
    inner = draw(st.none() | st.lists(VALUES, min_size=2, max_size=2))

    def run_subquery(query, ctx):
        return [list(row) for row in query.canned]

    def make():
        ctx = EvalContext(
            Row(layout, list(values)), params,
            FakeSession() if with_session else None,
            run_subquery if with_subqueries else None)
        if inner is not None:
            ctx = EvalContext(Row(INNER, list(inner)), ctx.params, ctx.session,
                              ctx.subquery_executor, outer=ctx)
        return ctx

    return layout, make


def outcome(fn):
    """What ``fn()`` does: its value's type and repr, or its error's."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - every error must agree
        return ("err", type(exc).__name__, str(exc))
    return ("ok", type(value).__name__, repr(value))


def assert_every_entry_point_agrees(expr, layout, make):
    expected = outcome(lambda: reference.evaluate(expr, make()))
    inline = C.get_compiled(expr)
    static = C.get_compiled(expr, make().layout)
    got = {
        "evaluate": outcome(lambda: C.evaluate(expr, make())),
        "get_compiled": outcome(lambda: inline(make())),
        "get_compiled again": outcome(lambda: inline(make())),
        "get_compiled against the layout": outcome(lambda: static(make())),
    }
    for entry, answer in got.items():
        assert answer == expected, (entry, expr, layout.columns)


class TestEveryNodeKind:
    @settings(max_examples=1500, deadline=None)
    @given(expr=EXPRESSIONS, context=contexts())
    def test_closures_match_the_reference(self, expr, context):
        layout, make = context
        assert_every_entry_point_agrees(expr, layout, make)

    @pytest.mark.parametrize("text", [
        # COALESCE reads only up to its first non-NULL argument
        "coalesce(1, 1 / 0)", "coalesce(NULL, 2, 1 / 0)", "coalesce(NULL, NULL)",
        "coalesce(a, b, 1 / 0)",
        # Kleene logic stops where the answer is known
        "false AND 1 / 0 = 1", "true OR 1 / 0 = 1", "NULL AND 1 / 0 = 1",
        # CASE evaluates only the branch it takes
        "CASE WHEN true THEN 1 ELSE 1 / 0 END", "CASE 1 WHEN 1 THEN 2 WHEN 1 / 0 THEN 3 END",
        # IN stops at the first equal item
        "1 IN (1, 1 / 0)", "NULL IN (1 / 0)",
        # session functions, with and without a session
        "now()", "current_date", "random()", "nextval('s') + currval('s')",
        "setval('s', 3)", "txid_current()", "pg_backend_pid()", "twice(2)",
        "nope(1 / 0)", "sum(a)", "count(*)",
        # PostgreSQL's remainder sign and LIKE escapes
        "-7 % 2", "7 % -2", "-7.5 % 2", "mod(-7, 2)", r"'50%' LIKE '50\%'",
        r"'a_c' LIKE 'a\_c'", r"'a\b' LIKE 'a\\b'", r"'A_C' ILIKE 'a\_c'",
        r"'a' LIKE 'a\'",
    ])
    @pytest.mark.parametrize("with_session", [False, True])
    def test_named_cases(self, text, with_session):
        row = Row(SINGLE, [None, 5, "x"])

        def make():
            return EvalContext(row, None, FakeSession() if with_session else None)

        assert_every_entry_point_agrees(parse_expression(text), SINGLE, make)

    @pytest.mark.parametrize("kind, canned", [
        ("scalar", []), ("scalar", [[1]]), ("scalar", [[1], [2]]), ("scalar", [[1, 2]]),
        ("exists", []), ("exists", [[None]]), ("array", [[1], [None]]),
        ("in", [[2], [None]]), ("in", [[1], [None]]), ("any", [[0], [None]]),
        ("all", [[0], [None]]), ("all", [[0], [0]]), ("bogus", []),
    ])
    def test_subqueries(self, kind, canned):
        expr = A.SubqueryExpr(kind=kind, query=CannedQuery(canned=canned),
                              operand=A.Literal(1), op="<")

        def make():
            return EvalContext(Row(), None, None, lambda q, ctx: q.canned)

        assert_every_entry_point_agrees(expr, SINGLE, make)
        no_executor = outcome(lambda: C.evaluate(expr, EvalContext()))
        assert no_executor == outcome(lambda: reference.evaluate(expr, EvalContext()))
        assert no_executor[1] == "DataError"


def test_every_node_kind_the_parser_emits_has_exactly_one_builder():
    """The builder table covers every expression node kind but ``*`` (which
    a target list or ``count(*)`` expands, never evaluates), the slot
    reference the executor substitutes, and nothing else; the reference
    covers the same kinds."""
    kinds = set()
    pending = [A.Expr]
    while pending:
        for sub in pending.pop().__subclasses__():
            kinds.add(sub)
            pending.append(sub)
    assert set(C._BUILDERS) == kinds - {A.Star}
    assert set(C._BUILDERS) == set(reference._EVAL)
    assert len(set(C._BUILDERS.values())) == len(C._BUILDERS)
    assert outcome(lambda: C.evaluate(A.Star(), EvalContext())) == (
        "err", "DataError", "cannot evaluate expression node Star")
