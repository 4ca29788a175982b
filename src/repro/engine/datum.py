"""SQL value domain: types, casts, comparisons, and the sharding hash.

Values are represented as plain Python objects:

=============  =========================================
SQL type       Python representation
=============  =========================================
int/bigint     int
float/numeric  float
text/varchar   str
bool           bool
date           datetime.date
timestamp(tz)  datetime.datetime
jsonb          dict | list | str | int | float | bool | None
uuid           str
<type>[]       list
NULL           None
=============  =========================================

``hash_value`` is the deterministic 32-bit hash used for hash-partitioning
distributed tables (the stand-in for PostgreSQL's ``hashtext``/``hash_any``).
It is stable across processes and Python versions, which matters because
shard pruning on the coordinator and tuple routing during COPY must agree.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import struct
import zlib

from ..errors import DataError

# Canonical type names. Aliases are folded into these during normalization.
INT = "int"
BIGINT = "bigint"
FLOAT = "float"
NUMERIC = "numeric"
TEXT = "text"
BOOL = "bool"
DATE = "date"
TIMESTAMP = "timestamp"
JSONB = "jsonb"
UUID = "uuid"

_ALIASES = {
    "integer": INT,
    "int4": INT,
    "int8": BIGINT,
    "smallint": INT,
    "serial": INT,
    "bigserial": BIGINT,
    "double precision": FLOAT,
    "real": FLOAT,
    "float8": FLOAT,
    "float4": FLOAT,
    "decimal": NUMERIC,
    "varchar": TEXT,
    "char": TEXT,
    "character varying": TEXT,
    "character": TEXT,
    "string": TEXT,
    "boolean": BOOL,
    "timestamptz": TIMESTAMP,
    "timestamp with time zone": TIMESTAMP,
    "timestamp without time zone": TIMESTAMP,
    "json": JSONB,
}

_HASHABLE_TYPES = (INT, BIGINT, FLOAT, NUMERIC, TEXT, BOOL, DATE, TIMESTAMP, UUID)

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1


def normalize_type(name: str) -> str:
    """Fold a SQL type name (possibly an alias, possibly with a length
    modifier like ``varchar(64)`` or an array suffix) to a canonical name."""
    name = name.strip().lower()
    is_array = name.endswith("[]")
    if is_array:
        name = name[:-2].strip()
    if "(" in name:
        name = name[: name.index("(")].strip()
    name = _ALIASES.get(name, name)
    return name + "[]" if is_array else name


def is_array_type(name: str) -> bool:
    return name.endswith("[]")


def is_hash_distributable(type_name: str) -> bool:
    """Whether a column of this type may be used as a hash distribution column."""
    return normalize_type(type_name) in _HASHABLE_TYPES


def cast_value(value, type_name: str):
    """Cast ``value`` to the given SQL type, mimicking PostgreSQL's input
    conversion. ``None`` passes through (SQL NULL is typeless). The
    reference for :func:`caster`, which is what per-row loops use."""
    if value is None:
        return None
    return _cast(value, normalize_type(type_name))


def _cast(value, t: str):
    """``cast_value`` of a non-NULL value to the *normalized* type ``t``."""
    if is_array_type(t):
        if not isinstance(value, list):
            raise DataError(f"cannot cast {value!r} to {t}")
        elem = t[:-2]
        return [cast_value(v, elem) for v in value]
    try:
        if t in (INT, BIGINT):
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                return int(round(value))
            return int(value)
        if t in (FLOAT, NUMERIC):
            return float(value)
        if t == TEXT:
            return to_text(value)
        if t == BOOL:
            return _cast_bool(value)
        if t == DATE:
            return _cast_date(value)
        if t == TIMESTAMP:
            return _cast_timestamp(value)
        if t == JSONB:
            if isinstance(value, str):
                return json.loads(value)
            return value
        if t == UUID:
            return str(value)
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise DataError(f"invalid input for type {t}: {value!r}") from exc
    # Unknown type: pass through untouched (user-defined type).
    return value


#: The Python type a value of each SQL type already has when no cast is
#: needed: ``cast_value`` returns exactly such a value as it is (``bool``
#: is not ``int``, a ``datetime`` is not a ``date``).
_EXACT = {
    INT: int, BIGINT: int, FLOAT: float, NUMERIC: float, TEXT: str,
    UUID: str, BOOL: bool, DATE: _dt.date, TIMESTAMP: _dt.datetime,
}


@functools.lru_cache(maxsize=256)
def caster(type_name: str):
    """``cast(value) == cast_value(value, type_name)``, result type
    included, with the type name resolved here instead of per value: a
    value that already has the column's exact Python type (or is NULL)
    is returned untouched, anything else — every array and json value
    included — takes ``cast_value``'s path."""
    t = normalize_type(type_name)
    exact = _EXACT.get(t)

    def cast(value):
        if value is None or type(value) is exact:
            return value
        return _cast(value, t)

    return cast


def _cast_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    if isinstance(value, str):
        v = value.strip().lower()
        if v in ("t", "true", "yes", "on", "1"):
            return True
        if v in ("f", "false", "no", "off", "0"):
            return False
    raise DataError(f"invalid input for type bool: {value!r}")


def _cast_date(value) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return _dt.date.fromisoformat(value.strip()[:10])
    raise DataError(f"invalid input for type date: {value!r}")


def _cast_timestamp(value) -> _dt.datetime:
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, str):
        return _dt.datetime.fromisoformat(value.strip().replace("Z", "+00:00"))
    if isinstance(value, (int, float)):
        return _dt.datetime.utcfromtimestamp(value)
    raise DataError(f"invalid input for type timestamp: {value!r}")


def to_text(value) -> str:
    """Render a value the way PostgreSQL prints it in text output."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "t" if value else "f"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=str)
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    return str(value)


_TYPE_ORDER = {bool: 0, int: 1, float: 1, str: 2}


def compare_values(a, b) -> int:
    """Three-way compare with SQL semantics for mixed numeric types.

    NULL ordering is handled by callers (comparison operators on NULL yield
    NULL; ORDER BY treats NULLs as largest, as PostgreSQL does by default).
    """
    if isinstance(a, bool) and isinstance(b, bool):
        return (a > b) - (a < b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return (a > b) - (a < b)
    if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        sa, sb = to_text(a), to_text(b)
        return (sa > sb) - (sa < sb)
    if type(a) is not type(b):
        if isinstance(a, _dt.datetime) and isinstance(b, _dt.date):
            b = _dt.datetime(b.year, b.month, b.day)
        elif isinstance(b, _dt.datetime) and isinstance(a, _dt.date):
            a = _dt.datetime(a.year, a.month, a.day)
        else:
            sa, sb = to_text(a), to_text(b)
            return (sa > sb) - (sa < sb)
    try:
        return (a > b) - (a < b)
    except TypeError as exc:
        raise DataError(f"cannot compare {a!r} and {b!r}") from exc


def sort_key(value):
    """A key usable by ``sorted`` that matches ``compare_values`` ordering
    within a single column and places NULLs last."""
    if value is None:
        return (2, 0)
    if isinstance(value, bool):
        return (0, _TYPE_ORDER[bool], int(value))
    if isinstance(value, (int, float)):
        # As is: int and float compare exactly with each other, and
        # float(value) would collapse neighbouring bigints above 2**53.
        return (0, _TYPE_ORDER[int], value)
    if isinstance(value, _dt.datetime):
        return (0, 3, value.isoformat())
    if isinstance(value, _dt.date):
        return (0, 3, _dt.datetime(value.year, value.month, value.day).isoformat())
    return (0, 4, to_text(value))


def ordering(ascending: bool, nulls_first: bool | None):
    """How one ORDER BY key sorts: ``(descending, key)`` for a stable
    ``sort(key=..., reverse=descending)`` over ``key(value)``. A
    multi-key ORDER BY is one such sort per key, last key first. NULLs go
    where ``nulls_first`` says — by PostgreSQL's default last when
    ascending, first when descending — whichever way the sort runs."""
    if nulls_first is None:
        nulls_first = not ascending
    null_key = (0 if nulls_first == ascending else 1,)
    rank = 1 - null_key[0]

    def key(value):
        return null_key if value is None else (rank, sort_key(value))

    return not ascending, key


def uniform_type(column):
    """The exact type every value of ``column`` has (``bool`` is not
    ``int``, NULL is ``NoneType``); None when they differ or there are
    none. One pass in C, so a per-batch decision costs no per-value branch."""
    kinds = set(map(type, column))
    return kinds.pop() if len(kinds) == 1 else None


def plain_sort_type(column):
    """``int`` or ``str`` when every value of ``column`` is exactly that
    type, else None. Such values are their own sort keys: :func:`ordering`
    maps them to ``(rank, (0, 1, v))`` / ``(rank, (0, 4, v))`` with one
    rank and one prefix throughout, so the values order as the tuples do
    and ``sorted`` compares machine ints or strs instead. NULLs, bools,
    floats (NaN), dates, json and mixed columns are not plain."""
    kind = uniform_type(column)
    return kind if kind is int or kind is str else None


def hash_value(value) -> int:
    """Deterministic 32-bit signed hash used for hash partitioning.

    This is the moral equivalent of PostgreSQL's ``hash_any``; the exact bit
    pattern differs, but the properties that matter are preserved: stable
    across processes, well-spread over the int32 range, and equal inputs of
    equivalent numeric types hash equally (so ``1::int`` and ``1::bigint``
    co-locate, as in PostgreSQL's cross-type hash opfamily).
    """
    data = _hash_bytes(value)
    h = zlib.crc32(data)
    # Mix a second round so short integer keys spread across the full range.
    h = zlib.crc32(struct.pack("<I", h), 0x9E3779B9)
    return h - 2**32 if h > _INT32_MAX else h


def _hash_bytes(value) -> bytes:
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"i" + str(int(value)).encode() if value.is_integer() else b"f" + repr(value).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, _dt.datetime):
        return b"t" + value.isoformat().encode()
    if isinstance(value, _dt.date):
        return b"d" + value.isoformat().encode()
    return b"j" + to_text(value).encode("utf-8")
