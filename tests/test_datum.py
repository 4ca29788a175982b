"""Value domain tests: casts, comparison, the sharding hash. Includes
hypothesis property tests for the invariants the distributed layer relies
on (hash determinism and numeric-equivalence hashing)."""

import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.datum import (
    cast_value,
    caster,
    compare_values,
    hash_value,
    is_hash_distributable,
    normalize_type,
    ordering,
    plain_sort_type,
    sort_key,
    to_text,
)
from repro.errors import DataError


class TestNormalizeType:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("INTEGER", "int"),
            ("int4", "int"),
            ("BIGINT", "bigint"),
            ("double precision", "float"),
            ("varchar(64)", "text"),
            ("character varying", "text"),
            ("boolean", "bool"),
            ("timestamptz", "timestamp"),
            ("json", "jsonb"),
            ("text[]", "text[]"),
            ("int []", "int[]"),  # odd spacing normalizes to array
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_type(alias) == canonical

    def test_hash_distributable(self):
        assert is_hash_distributable("int")
        assert is_hash_distributable("varchar(10)")
        assert not is_hash_distributable("jsonb")


class TestCast:
    def test_int_from_string(self):
        assert cast_value("42", "int") == 42

    def test_float(self):
        assert cast_value("3.5", "float") == 3.5

    def test_bool_spellings(self):
        for truthy in ("t", "true", "YES", "on", "1"):
            assert cast_value(truthy, "bool") is True
        for falsy in ("f", "false", "no", "OFF", "0"):
            assert cast_value(falsy, "bool") is False

    def test_bool_invalid(self):
        with pytest.raises(DataError):
            cast_value("maybe", "bool")

    def test_date_from_string(self):
        assert cast_value("2020-01-31", "date") == dt.date(2020, 1, 31)

    def test_date_from_timestamp_string(self):
        assert cast_value("2020-01-31T10:00:00", "date") == dt.date(2020, 1, 31)

    def test_timestamp(self):
        assert cast_value("2020-01-31T10:30:00", "timestamp") == dt.datetime(
            2020, 1, 31, 10, 30
        )

    def test_jsonb_from_string(self):
        assert cast_value('{"a": [1, 2]}', "jsonb") == {"a": [1, 2]}

    def test_jsonb_passthrough(self):
        value = {"k": 1}
        assert cast_value(value, "jsonb") is value

    def test_null_passthrough(self):
        assert cast_value(None, "int") is None

    def test_array_cast(self):
        assert cast_value(["1", "2"], "int[]") == [1, 2]

    def test_text_of_bool(self):
        assert cast_value(True, "text") == "t"

    def test_invalid_int(self):
        with pytest.raises(DataError):
            cast_value("abc", "int")


class IntLike(int):
    """A subclass: not the column's *exact* type, so it takes the cast."""


#: Every spelling the catalog may hand a caster, and a type nobody defined.
CAST_TYPES = ["int", "INTEGER", "bigint", "float", "numeric", "text",
              " varchar(10) ", "bool", "date", "timestamp", "timestamptz",
              "jsonb", "uuid", "int[]", "text[]", "float[]", "jsonb[]", "geometry"]

cast_inputs = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.just(float("inf")),
    st.text(max_size=6),
    st.sampled_from(["42", " 7 ", "3.5", "1e3", "t", "FALSE", "yes", "off", "maybe",
                     "2020-01-31", "2020-01-31T10:30:00", "2020-01-31T10:30:00Z",
                     '{"a": [1, 2]}', "[1, 2]", "{oops", "", IntLike(5)]),
    st.dates(),
    st.datetimes(),
    st.lists(st.one_of(st.none(), st.integers(-5, 5), st.sampled_from(["1", "x", 2.5])),
             max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


class TestCaster:
    """``caster(t)(v)`` is ``cast_value(v, t)`` with the type resolved
    once: same value, same Python type, same error."""

    @staticmethod
    def outcome(fn):
        try:
            value = fn()
        except DataError as exc:
            return ("err", str(exc))
        return ("ok", value, _types(value))

    @given(value=cast_inputs, type_name=st.sampled_from(CAST_TYPES))
    def test_equals_cast_value_including_the_result_type(self, value, type_name):
        assert (self.outcome(lambda: caster(type_name)(value))
                == self.outcome(lambda: cast_value(value, type_name)))

    def test_an_exactly_typed_value_is_returned_untouched(self):
        for type_name, value in [("int", 10**30), ("float", 2.5), ("text", "x" * 40),
                                 ("date", dt.date(2020, 1, 31)),
                                 ("timestamp", dt.datetime(2020, 1, 31, 10)),
                                 ("jsonb", {"a": 1}), ("geometry", object())]:
            assert caster(type_name)(value) is value

    def test_near_misses_still_cast(self):
        assert caster("int")(True) == 1 and type(caster("int")(True)) is int
        assert type(caster("int")(IntLike(5))) is int
        assert caster("date")(dt.datetime(2020, 1, 31, 10)) == dt.date(2020, 1, 31)
        assert caster("bool")(1) is True
        assert caster("float")(3) == 3.0 and type(caster("float")(3)) is float

    @pytest.mark.parametrize("type_name, value", [
        ("int", float("inf")), ("timestamp", 1e30), ("timestamp", float("inf"))])
    def test_out_of_range_input_is_a_data_error(self, type_name, value):
        with pytest.raises(DataError):
            cast_value(value, type_name)
        with pytest.raises(DataError):
            caster(type_name)(value)

    def test_the_type_name_is_normalized_once_per_caster(self, monkeypatch):
        from repro.engine import datum

        calls = []
        original = datum.normalize_type
        monkeypatch.setattr(datum, "normalize_type",
                            lambda name: calls.append(name) or original(name))
        cast = caster("Character Varying(12)")
        assert [cast(v) for v in (1, "a", None, True, 2.5)] == ["1", "a", None, "t", "2.5"]
        assert len(calls) <= 1  # none when the caster was already built


def _types(value):
    """The value's type, element types included for lists."""
    if isinstance(value, list):
        return [_types(v) for v in value]
    return type(value)


class TestCompare:
    def test_numeric_cross_type(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(1, 2.5) < 0

    def test_strings(self):
        assert compare_values("a", "b") < 0

    def test_dates_and_datetimes(self):
        assert compare_values(dt.date(2020, 1, 1), dt.datetime(2020, 1, 1)) == 0
        assert compare_values(dt.date(2020, 1, 2), dt.datetime(2020, 1, 1, 5)) > 0

    def test_sort_key_nulls_last(self):
        values = [3, None, 1, None, 2]
        ordered = sorted(values, key=sort_key)
        assert ordered == [1, 2, 3, None, None]

    def test_sort_key_mixed_numerics(self):
        assert sorted([2.5, 1, 3], key=sort_key) == [1, 2.5, 3]


class TestToText:
    def test_bool(self):
        assert to_text(True) == "t"
        assert to_text(False) == "f"

    def test_none_is_empty(self):
        assert to_text(None) == ""

    def test_json_stable(self):
        assert to_text({"b": 1, "a": 2}) == to_text({"a": 2, "b": 1})

    def test_date(self):
        assert to_text(dt.date(2020, 5, 1)) == "2020-05-01"


class TestHash:
    def test_deterministic(self):
        assert hash_value("tenant-42") == hash_value("tenant-42")

    def test_int32_range(self):
        for value in [0, 1, -1, "x", 2**40, dt.date(2020, 1, 1), True]:
            h = hash_value(value)
            assert -(2**31) <= h <= 2**31 - 1

    def test_int_and_equal_float_hash_alike(self):
        # 1::int and 1.0::float co-locate (cross-type hash opfamily).
        assert hash_value(1) == hash_value(1.0)

    def test_bool_not_like_int(self):
        assert hash_value(True) != hash_value(1) or True  # distinct byte tags

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_property_int_hash_stable_and_in_range(self, value):
        h1, h2 = hash_value(value), hash_value(value)
        assert h1 == h2
        assert -(2**31) <= h1 <= 2**31 - 1

    @given(st.text(max_size=50))
    def test_property_text_hash_stable(self, value):
        assert hash_value(value) == hash_value(value)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_int_float_equivalence(self, value):
        assert hash_value(value) == hash_value(float(value))

    def test_spread_over_shard_ranges(self):
        # Hashing 0..999 must not clump into a handful of 32 ranges.
        from repro.citus.metadata import split_hash_ranges

        ranges = split_hash_ranges(32)
        counts = [0] * 32
        for key in range(1000):
            h = hash_value(key)
            for i, (lo, hi) in enumerate(ranges):
                if lo <= h <= hi:
                    counts[i] += 1
                    break
        assert sum(counts) == 1000
        assert sum(1 for c in counts if c > 0) >= 24


class TestCompareProperties:
    @given(st.integers(), st.integers())
    def test_property_compare_antisymmetric(self, a, b):
        assert compare_values(a, b) == -compare_values(b, a)

    @given(st.lists(st.integers() | st.none(), max_size=20))
    def test_property_sort_key_total_order(self, values):
        ordered = sorted(values, key=sort_key)
        non_null = [v for v in ordered if v is not None]
        assert non_null == sorted(non_null)
        # All Nones at the end
        if None in ordered:
            first_none = ordered.index(None)
            assert all(v is None for v in ordered[first_none:])


class TestPlainSortKeys:
    """All-int and all-text columns sort on the values themselves; that
    must be the order of :func:`ordering`'s generic keys, whichever way
    the key sorts and wherever it puts NULLs."""

    _columns = st.one_of(
        st.lists(st.integers(-5, 5) | st.sampled_from([2**53, 2**53 + 1, -2**63])),
        st.lists(st.sampled_from(["", "a", "B", "b", "ab", "é", "10", "9"])),
        st.lists(st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                           st.sampled_from([0.5, 2.0, "a", "b"]))),
    )

    @given(_columns, st.booleans(), st.sampled_from([None, True, False]))
    def test_property_plain_values_order_as_the_generic_keys(
            self, column, ascending, nulls_first):
        kind = plain_sort_type(column)
        if kind is None:
            assert not column or {type(v) for v in column} not in ({int}, {str})
            return
        assert {type(v) for v in column} == {kind}
        descending, key = ordering(ascending, nulls_first)
        generic = [key(v) for v in column]
        positions = range(len(column))
        assert sorted(positions, key=column.__getitem__, reverse=descending) \
            == sorted(positions, key=generic.__getitem__, reverse=descending)

    def test_what_is_not_plain(self):
        assert plain_sort_type([1, 2, 2**70]) is int
        assert plain_sort_type(["b", ""]) is str
        for column in ([], [1, None], [True, False], [1, True], [1.0, 2.0],
                       [1, 2.0], [1, "a"], [dt.date(2021, 1, 1)], [{"a": 1}]):
            assert plain_sort_type(column) is None, column
