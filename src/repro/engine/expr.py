"""What expressions evaluate against, and the value primitives they share.

An :class:`EvalContext` carries everything an expression can touch: the
current row (a shared :class:`RowLayout` plus flat values), query
parameters, the executing session (for volatile functions, sequences,
UDFs), and a callback for executing subqueries with the outer row visible
(correlated subqueries). What each expression node means is defined once,
by its builder in :mod:`repro.engine.compile`; the operators here
(:func:`apply_binary`, :func:`like_match`, the jsonb helpers) are what
those builders call.

NULL propagation follows SQL three-valued logic: comparison/arithmetic
operators yield NULL on NULL input.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import CatalogError, DataError
from ..sql import ast as A
from .datum import compare_values, to_text
from .lru import LRUCache


class BoundParams:
    """Parameter bindings for a cached distributed plan.

    A plan-cache template replaces the statement's literals with synthetic
    named parameters (``__c0``, ``__c1``, ...); at execution time the
    extracted constant values are merged with the user's positional or
    named parameters into one object that answers both ``$n`` and
    ``:name`` lookups.
    """

    __slots__ = ("positional", "named")

    def __init__(self, positional=None, named=None):
        self.positional = positional  # list/tuple or None
        self.named = named if named is not None else {}


class AmbiguousColumn(DataError):
    pass


class RowLayout:
    """What every row of one relation has in common: which slot of the
    row's flat ``values`` list each column reference names.

    ``slots`` maps both spellings of a reference (``alias.col`` and
    ``col``) to a position; an unqualified name two relations supply is
    in ``ambiguous`` and raises on resolution, as PostgreSQL would.
    ``columns`` lists the visible ``(alias, name)`` pairs in star order.
    ``sources`` names the hidden slots — ``(slot, table name)`` — that a
    row-locking scan fills with the heap tuple each base relation's part
    of the row came from (SELECT ... FOR UPDATE reads them).

    A layout is immutable and shared: :meth:`of` returns the same object
    for the same relation shape, a join shape concatenates its sides'
    layouts once, and compiled column references resolve against a layout
    once instead of per row.
    """

    __slots__ = ("columns", "slots", "ambiguous", "sources", "width")

    def __init__(self, columns, slots, ambiguous=frozenset(), sources=(),
                 width=None):
        self.columns = columns
        self.slots = slots
        self.ambiguous = ambiguous
        self.sources = sources
        self.width = len(columns) if width is None else width

    @classmethod
    def of(cls, alias: str | None, names, source_table: str | None = None):
        """The layout of one relation's columns under ``alias``; with
        ``source_table``, one more (hidden) slot for the row's heap tuple.
        Interned: equal arguments return the identical layout, so what was
        compiled against it is found again on the next execution."""
        key = (alias, tuple(names), source_table)
        layout = _LAYOUTS.get(key)
        if layout is None:
            layout = cls._build(alias, key[1], source_table)
            _LAYOUTS.put(key, layout)
        return layout

    @classmethod
    def _build(cls, alias, names, source_table):
        slots: dict[str, int] = {}
        ambiguous = set()
        for slot, name in enumerate(names):
            if alias:
                slots[f"{alias}.{name}"] = slot
                if name in slots:
                    ambiguous.add(name)
            slots[name] = slot
        columns = [(alias, name) for name in names]
        if source_table is None:
            return cls(columns, slots, frozenset(ambiguous))
        return cls(columns, slots, frozenset(ambiguous),
                   ((len(columns), source_table),), len(columns) + 1)

    def join(self, other: "RowLayout") -> "RowLayout":
        """The layout of ``left.values + right.values``."""
        shift = self.width
        slots = dict(self.slots)
        for key, slot in other.slots.items():
            slots[key] = slot + shift
        mine = {name for _alias, name in self.columns}
        clashing = {name for _alias, name in other.columns if name in mine}
        sources = self.sources + tuple(
            (slot + shift, table) for slot, table in other.sources)
        return RowLayout(self.columns + other.columns, slots,
                         self.ambiguous | other.ambiguous | clashing,
                         sources, shift + other.width)

    def resolve(self, ref: A.ColumnRef):
        """The slot ``ref`` names, or None when this layout does not have
        the column (the reference may belong to an outer query)."""
        slot = self.slots.get(ref.key)
        if slot is not None and ref.table is None and ref.name in self.ambiguous:
            raise AmbiguousColumn(f"column reference {ref.name!r} is ambiguous")
        return slot


_LAYOUTS = LRUCache(1024)
EMPTY_LAYOUT = RowLayout([], {})


class Row:
    """One row standing alone: a layout and the values it names. The
    executor's loops pass bare value lists and keep the layout on the
    relation; a ``Row`` is how everything else (contexts with no input
    row, tests) hands a row to an :class:`EvalContext`."""

    __slots__ = ("layout", "values")

    def __init__(self, layout: RowLayout = EMPTY_LAYOUT, values=()):
        self.layout = layout
        self.values = values

    @classmethod
    def of(cls, alias: str | None = None, **columns) -> "Row":
        return cls(RowLayout.of(alias, list(columns)), list(columns.values()))


class EvalContext:
    """What an expression evaluates against. A per-row loop builds one
    context for the loop's layout and re-points ``values`` at each row."""

    __slots__ = ("layout", "values", "params", "session",
                 "subquery_executor", "outer")

    def __init__(self, row: Row | None = None, params=None, session=None,
                 subquery_executor: Optional[Callable] = None,
                 outer: Optional["EvalContext"] = None):
        self.layout = row.layout if row is not None else EMPTY_LAYOUT
        self.values = row.values if row is not None else ()
        self.params = params  # list (for $n) or dict (for :name)
        self.session = session  # Session, for volatile functions / UDFs
        self.subquery_executor = subquery_executor  # (Select, EvalContext) -> rows
        self.outer = outer


@dataclass
class SlotRef(A.Expr):
    """A read of one slot of the current row by position: what the executor
    puts where an aggregate or window call stood once its per-group /
    per-row result has been appended to the row."""

    index: int = 0


def lookup_column(ref: A.ColumnRef, ctx: EvalContext):
    """``ref``'s value in the nearest enclosing scope that has the column."""
    scope = ctx
    while scope is not None:
        slot = scope.layout.resolve(ref)
        if slot is not None:
            return scope.values[slot]
        scope = scope.outer
    raise CatalogError(f"column {ref.key!r} does not exist")


_LIKE_CACHE = LRUCache(4096)


def like_match(text: str, pattern: str, case_insensitive: bool) -> bool:
    """``text [I]LIKE pattern``: ``%`` is any run of characters, ``_`` any
    one, and a backslash makes the character after it literal."""
    key = (pattern, case_insensitive)
    regex = _LIKE_CACHE.get(key)
    if regex is None:
        parts = []
        chars = iter(pattern)
        for ch in chars:
            if ch == "\\":
                ch = next(chars, None)
                if ch is None:
                    raise DataError("LIKE pattern must not end with escape character")
                parts.append(re.escape(ch))
            else:
                parts.append({"%": ".*", "_": "."}.get(ch) or re.escape(ch))
        flags = re.IGNORECASE | re.DOTALL if case_insensitive else re.DOTALL
        regex = re.compile("".join(parts) + r"\Z", flags)
        _LIKE_CACHE.put(key, regex)
    return regex.match(text) is not None


def apply_binary(op: str, left, right):
    """Apply a (non-logical) binary operator with NULL propagation."""
    if op in ("->", "->>", "#>", "#>>"):
        return _json_op(op, left, right)
    if left is None or right is None:
        return None
    if op in ("=", "<>", "<", "<=", ">", ">="):
        c = compare_values(left, right)
        return {"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]
    if op == "+":
        if isinstance(left, (_dt.date, _dt.datetime)) and isinstance(right, _dt.timedelta):
            return _as_ts(left) + right
        if isinstance(right, (_dt.date, _dt.datetime)) and isinstance(left, _dt.timedelta):
            return _as_ts(right) + left
        if isinstance(left, _dt.date) and isinstance(right, (int, float)):
            return left + _dt.timedelta(days=int(right))
        return left + right
    if op == "-":
        if isinstance(left, (_dt.date, _dt.datetime)) and isinstance(right, _dt.timedelta):
            return _as_ts(left) - right
        if isinstance(left, (_dt.date, _dt.datetime)) and isinstance(right, (_dt.date, _dt.datetime)):
            return _as_ts(left) - _as_ts(right)
        if isinstance(left, _dt.date) and isinstance(right, (int, float)):
            return left - _dt.timedelta(days=int(right))
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise DataError("division by zero")
        if isinstance(left, int) and isinstance(right, int) \
                and not isinstance(left, bool) and not isinstance(right, bool):
            # PostgreSQL integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if op == "%":
        if right == 0:
            raise DataError("division by zero")
        # PostgreSQL's remainder takes the dividend's sign, as / truncates.
        remainder = abs(left) % abs(right)
        return remainder if left >= 0 else -remainder
    if op == "||":
        if isinstance(left, dict) and isinstance(right, dict):
            merged = dict(left)
            merged.update(right)
            return merged
        if isinstance(left, list) or isinstance(right, list):
            left_list = left if isinstance(left, list) else [left]
            right_list = right if isinstance(right, list) else [right]
            return left_list + right_list
        return to_text(left) + to_text(right)
    if op in ("like", "ilike"):
        return like_match(to_text(left), to_text(right), op == "ilike")
    if op in ("~", "~*"):
        flags = re.IGNORECASE if op == "~*" else 0
        return re.search(str(right), to_text(left), flags) is not None
    if op == "!~":
        return re.search(str(right), to_text(left)) is None
    if op == "@>":
        return _jsonb_contains(_coerce_json(left), _coerce_json(right))
    if op == "<@":
        return _jsonb_contains(_coerce_json(right), _coerce_json(left))
    raise DataError(f"unknown operator {op!r}")


def _as_ts(v):
    if isinstance(v, _dt.datetime):
        return v
    return _dt.datetime(v.year, v.month, v.day)


def _json_op(op, left, right):
    if left is None or right is None:
        return None
    if op in ("->", "->>"):
        result = None
        if isinstance(left, dict):
            result = left.get(to_text(right)) if not isinstance(right, int) else left.get(str(right))
        elif isinstance(left, list) and isinstance(right, int):
            if -len(left) <= right < len(left):
                result = left[right]
        if op == "->>":
            return to_text(result) if result is not None else None
        return result
    # #> / #>> : path as array of keys; PostgreSQL's '{a,b,c}' text-array
    # literal syntax is accepted too.
    if isinstance(right, str) and right.startswith("{") and right.endswith("}"):
        right = [k.strip() for k in right[1:-1].split(",")] if len(right) > 2 else []
    current = left
    for key in right if isinstance(right, list) else [right]:
        if isinstance(current, dict):
            current = current.get(to_text(key))
        elif isinstance(current, list):
            try:
                current = current[int(key)]
            except (ValueError, IndexError, TypeError):
                current = None
        else:
            current = None
        if current is None:
            break
    if op == "#>>":
        return to_text(current) if current is not None else None
    return current


def _coerce_json(value):
    """String operands of jsonb operators parse as jsonb (operator typing)."""
    if isinstance(value, str):
        import json

        try:
            return json.loads(value)
        except ValueError:
            return value
    return value


def _jsonb_contains(container, contained) -> bool:
    if isinstance(container, dict) and isinstance(contained, dict):
        return all(
            k in container and _jsonb_contains(container[k], v) for k, v in contained.items()
        )
    if isinstance(container, list):
        if isinstance(contained, list):
            return all(any(_jsonb_contains(c, item) for c in container) for item in contained)
        return any(_jsonb_contains(c, contained) for c in container)
    return container == contained
