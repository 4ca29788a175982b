"""Expression evaluation and function library tests, including the
distributed aggregate partial/merge protocol property tests."""

import datetime as dt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine.compile import evaluate
from repro.engine.expr import EvalContext, Row, apply_binary, like_match
from repro.engine.functions import (
    AGGREGATES,
    PARTIAL_REWRITES,
    SCALAR_FUNCTIONS,
    get_aggregate,
)
from repro.errors import CatalogError, DataError
from repro.sql import parse_expression


def ev(text, **bindings):
    return evaluate(parse_expression(text), EvalContext(row=Row.of(**bindings)))


class TestThreeValuedLogic:
    def test_and_or_kleene(self):
        assert ev("NULL AND false") is False
        assert ev("NULL AND true") is None
        assert ev("NULL OR true") is True
        assert ev("NULL OR false") is None

    def test_not_null(self):
        assert ev("NOT NULL") is None

    def test_comparison_with_null(self):
        assert ev("1 = NULL") is None
        assert ev("NULL <> NULL") is None

    def test_arithmetic_null_propagation(self):
        assert ev("1 + NULL") is None

    def test_coalesce(self):
        assert ev("coalesce(NULL, NULL, 3)") == 3

    def test_nullif(self):
        assert ev("nullif(5, 5)") is None
        assert ev("nullif(5, 6)") == 5

    def test_in_list_with_null_semantics(self):
        assert ev("1 IN (1, NULL)") is True
        assert ev("2 IN (1, NULL)") is None
        assert ev("2 NOT IN (1, NULL)") is None


class TestOperators:
    def test_integer_division_truncates_like_postgres(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3  # truncation toward zero, not floor
        assert ev("6 / 2") == 3
        assert ev("7.0 / 2") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(DataError):
            ev("1 / 0")

    def test_modulo(self):
        assert ev("7 % 3") == 1

    def test_string_concat(self):
        assert ev("'a' || 'b' || 1") == "ab1"

    def test_array_concat(self):
        assert ev("ARRAY[1] || ARRAY[2, 3]") == [1, 2, 3]

    def test_jsonb_merge(self):
        assert ev("""'{"a": 1}'::jsonb || '{"b": 2}'::jsonb""") == {"a": 1, "b": 2}

    def test_date_arithmetic(self):
        assert ev("date '2020-01-01' + 30") == dt.date(2020, 1, 31)
        assert ev("date '2020-02-01' - date '2020-01-01'") == dt.timedelta(days=31)

    def test_timestamp_plus_interval(self):
        value = ev("timestamp '2020-01-01T00:00:00' + interval '90 minutes'")
        assert value == dt.datetime(2020, 1, 1, 1, 30)

    def test_regex_match(self):
        assert ev("'postgres' ~ 'gre'") is True
        assert ev("'POSTGRES' ~* 'gre'") is True
        assert ev("'abc' !~ 'z'") is True

    def test_between_symmetric_behavior(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("5 NOT BETWEEN 1 AND 10") is False


class TestLikeMatching:
    @pytest.mark.parametrize(
        "text, pattern, ci, expected",
        [
            ("hello", "h%", False, True),
            ("hello", "%llo", False, True),
            ("hello", "h_llo", False, True),
            ("hello", "H%", False, False),
            ("Hello", "h%", True, True),
            ("abc", "%b%", False, True),
            ('["fix postgres"]', "%postgres%", True, True),
            ("100%", "100%", False, True),
            # a backslash makes the next character literal
            ("50%", r"50\%", False, True),
            ("50x", r"50\%", False, False),
            ("a_c", r"a\_c", False, True),
            ("abc", r"a\_c", False, False),
            ("a\\b", r"a\\b", False, True),
            ("ab", r"a\b", False, True),
            ("A_C", r"a\_c", True, True),
            # the whole text: no newline slips past the end
            ("abc\n", "abc", False, False),
        ],
    )
    def test_patterns(self, text, pattern, ci, expected):
        assert like_match(text, pattern, ci) is expected

    def test_a_trailing_escape_is_an_error(self):
        with pytest.raises(DataError, match="must not end with escape character"):
            like_match("a", "a\\", False)

    def test_an_escaped_pattern_is_not_looked_up_in_the_trigram_index(self):
        from repro import PostgresInstance

        session = PostgresInstance("like").connect()
        session.execute("CREATE TABLE docs (k int PRIMARY KEY, body text)")
        session.execute("CREATE INDEX docs_trgm ON docs USING gin (body gin_trgm_ops)")
        session.copy_rows("docs", [[1, "xabcy"], [2, "xa\\bcy"], [3, "none"]])
        assert session.execute(
            r"SELECT k FROM docs WHERE body LIKE '%a\bc%'").rows == [[1]]

    @given(st.text(alphabet="abc%_", max_size=10))
    def test_property_full_wildcard_matches_everything(self, text):
        assert like_match(text, "%", False)


class TestScalarFunctions:
    def test_math(self):
        assert ev("abs(-5)") == 5
        assert ev("round(2.567, 2)") == 2.57
        assert ev("floor(2.9)") == 2.0
        assert ev("power(2, 10)") == 1024.0
        assert ev("greatest(1, 9, 4)") == 9
        assert ev("least(1, NULL, 4)") == 1

    def test_strings(self):
        assert ev("lower('ABC')") == "abc"
        assert ev("length('hello')") == 5
        assert ev("substring('hello', 2, 3)") == "ell"
        assert ev("split_part('a-b-c', '-', 2)") == "b"
        assert ev("replace('aaa', 'a', 'b')") == "bbb"
        assert ev("md5('x')") == "9dd4e461268c8034f5c8564e155c67a6"
        assert ev("left('hello', 2)") == "he"
        assert ev("strpos('hello', 'll')") == 3

    def test_dates(self):
        assert ev("date_trunc('month', timestamp '2020-05-17T10:00:00')") == \
            dt.datetime(2020, 5, 1)
        assert ev("extract(year FROM date '1998-03-01')") == 1998.0
        assert ev("date_part('dow', date '2021-06-20')") == 0.0  # Sunday

    def test_jsonb_functions(self):
        assert ev("""jsonb_array_length('[1,2,3]'::jsonb)""") == 3
        assert ev("jsonb_build_object('a', 1, 'b', 2)") == {"a": 1, "b": 2}
        assert ev("""jsonb_typeof('{"x":1}'::jsonb)""") == "object"

    def test_width_bucket(self):
        assert ev("width_bucket(35, 0, 100, 10)") == 4

    def test_hashtext_matches_datum(self):
        from repro.engine.datum import hash_value

        assert ev("hashtext('k')") == hash_value("k")


class TestAggregateProtocol:
    """The distributed two-phase aggregation invariant: splitting any input
    among workers, computing partials, and merging them must equal the
    direct aggregate."""

    def direct(self, name, values):
        agg = get_aggregate(name)
        state = agg.init()
        for v in values:
            state = agg.accumulate(state, v)
        return agg.finalize(state)

    def two_phase(self, name, chunks):
        agg = get_aggregate(name)
        partials = []
        for chunk in chunks:
            state = agg.init()
            for v in chunk:
                state = agg.accumulate(state, v)
            partials.append(agg.partial(state))
        merged = agg.init()
        for p in partials:
            merged = agg.merge(merged, p)
        return agg.finalize(merged)

    @pytest.mark.parametrize("name", ["count", "sum", "avg", "min", "max", "stddev"])
    @given(data=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   min_value=-1e6, max_value=1e6) | st.none(),
                         min_size=0, max_size=40),
           split=st.integers(min_value=1, max_value=5))
    # A spread of 18 near 8.6e5: a (n, sum, sum of squares) state lost 1e-6
    # of stddev's value to cancellation when merged from two chunks.
    @example(data=[856160.0, 856148.421875, 856159.0, 856142.421875,
                   856157.421875], split=2)
    def test_property_partial_merge_equals_direct(self, name, data, split):
        chunks = [data[i::split] for i in range(split)]
        direct = self.direct(name, data)
        merged = self.two_phase(name, chunks)
        if isinstance(direct, float) and isinstance(merged, float):
            assert merged == pytest.approx(direct, rel=1e-6, abs=1e-9)
        else:
            assert merged == direct

    def test_every_partial_rewrite_names_exist(self):
        for coord_name, (worker, merge) in PARTIAL_REWRITES.items():
            assert coord_name in AGGREGATES
            assert worker in AGGREGATES
            assert merge in AGGREGATES

    def test_approx_count_distinct_accuracy(self):
        agg = get_aggregate("approx_count_distinct")
        state = agg.init()
        for i in range(5000):
            state = agg.accumulate(state, f"value-{i % 1000}")
        estimate = agg.finalize(state)
        assert 900 <= estimate <= 1100  # ~2% typical HLL error at 2^10 regs

    def test_approx_merge_is_union(self):
        agg = get_aggregate("approx_count_distinct")
        s1, s2 = agg.init(), agg.init()
        for i in range(500):
            s1 = agg.accumulate(s1, i)
        for i in range(250, 750):
            s2 = agg.accumulate(s2, i)
        merged = agg.merge(agg.init(), agg.partial(s1))
        merged = agg.merge(merged, agg.partial(s2))
        estimate = agg.finalize(merged)
        assert 650 <= estimate <= 850  # true union is 750


class TestGenerateSeries:
    def test_ints(self):
        fn = SCALAR_FUNCTIONS  # noqa: F841 (scalar registry untouched)
        from repro.engine.functions import SET_RETURNING_FUNCTIONS

        gs = SET_RETURNING_FUNCTIONS["generate_series"]
        assert gs(1, 5) == [1, 2, 3, 4, 5]
        assert gs(5, 1, -2) == [5, 3, 1]

    def test_zero_step_raises(self):
        from repro.engine.functions import SET_RETURNING_FUNCTIONS

        with pytest.raises(DataError):
            SET_RETURNING_FUNCTIONS["generate_series"](1, 5, 0)


class TestRowScoping:
    def _two_aliases(self):
        from repro.engine.expr import RowLayout

        layout = RowLayout.of("a", ["x"]).join(RowLayout.of("b", ["x"]))
        return EvalContext(row=Row(layout, [1, 2]))

    def test_ambiguous_column_raises(self):
        from repro.engine.expr import AmbiguousColumn

        with pytest.raises(AmbiguousColumn, match="column reference 'x' is ambiguous"):
            evaluate(parse_expression("x"), self._two_aliases())

    def test_qualified_lookup_still_works(self):
        ctx = self._two_aliases()
        assert evaluate(parse_expression("a.x"), ctx) == 1
        assert evaluate(parse_expression("b.x"), ctx) == 2

    def test_outer_context_fallback(self):
        outer = EvalContext(row=Row.of("t", k=42))
        inner = EvalContext(row=Row(), outer=outer)
        assert evaluate(parse_expression("t.k"), inner) == 42
        with pytest.raises(CatalogError, match="column 't.nope' does not exist"):
            evaluate(parse_expression("t.nope"), inner)
