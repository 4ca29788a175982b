"""Built-in SQL functions and aggregates.

Aggregates implement the two-phase protocol that distributed aggregation
needs (§3.5 / §5: "calculating partial aggregates on the worker nodes and
merging the partial aggregates on the coordinator"): every aggregate has an
``accumulate`` step, a ``partial`` serialization, and a ``merge`` step. The
logical pushdown planner rewrites ``avg(x)`` on the coordinator into
``avg_partial(x)`` on the workers plus ``avg_merge(partial)`` on top.

Scalar functions include the jsonb toolbox used by the paper's real-time
analytics benchmark (``jsonb_path_query_array`` with ``$.a.b[*].c`` paths,
``jsonb_array_length``) and a HyperLogLog-style distinct-count aggregate
(``approx_count_distinct``) standing in for the ``hll`` extension VeniceDB
uses.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import DataError
from .datum import cast_value, compare_values, hash_value, to_text
from .expr import apply_binary

# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------


@dataclass
class Aggregate:
    name: str
    init: Callable[[], object]
    accumulate: Callable  # (state, value) -> state ; count(*) passes _STAR
    finalize: Callable[[object], object]
    # Distributed protocol:
    partial: Callable[[object], object]  # state -> shippable partial value
    merge: Callable[[object, object], object]  # (state, partial) -> state
    # Name of the aggregate the *coordinator* applies over worker partials.
    merge_name: Optional[str] = None
    #: ``(initial state as a literal, statements)``: what ``accumulate``
    #: does with one non-NULL argument ``v`` (a NULL leaves the state as it
    #: is), written out for the executor's generated aggregate loop with
    #: ``{s}`` standing for the state. It may update a state list in place
    #: (every group gets its own from the literal). Must agree with
    #: ``init`` / ``accumulate``, which stay the reference and what window
    #: aggregates, DISTINCT and multi-argument calls run.
    inline: Optional[tuple] = None


_STAR = object()


def _count_init():
    return 0


def _sum_init():
    return None


def _avg_init():
    return [None, 0]  # [sum, count]


def _minmax_init():
    return None


def _identity(state):
    return state


AGGREGATES: dict[str, Aggregate] = {}


def _register_agg(agg: Aggregate) -> None:
    AGGREGATES[agg.name] = agg


_register_agg(
    Aggregate(
        "count",
        _count_init,
        lambda s, v: s + (1 if v is _STAR or v is not None else 0),
        _identity,
        _identity,
        lambda s, p: s + (p or 0),
        merge_name="sum",
        inline=("0", ("{s} += 1",)),
    )
)


def _sum_accum(state, value):
    if value is None:
        return state
    return value if state is None else state + value


_SUM_INLINE = ("None", ("t = {s}",
                        "{s} = v if t is None else t + v"))
_register_agg(
    Aggregate("sum", _sum_init, _sum_accum, _identity, _identity, _sum_accum,
              merge_name="sum", inline=_SUM_INLINE)
)


def _avg_accum(state, value):
    if value is None:
        return state
    total, count = state
    return [value if total is None else total + value, count + 1]


def _avg_final(state):
    total, count = state
    if count == 0 or total is None:
        return None
    return total / count


def _avg_merge(state, part):
    if part is None:
        return state
    total, count = state
    ptotal, pcount = part
    if ptotal is not None:
        total = ptotal if total is None else total + ptotal
    return [total, count + pcount]


_AVG_INLINE = ("[None, 0]", ("t = {s}",
                             "t[0] = v if t[0] is None else t[0] + v",
                             "t[1] += 1"))
_register_agg(Aggregate("avg", _avg_init, _avg_accum, _avg_final, _identity, _avg_merge,
                        merge_name="avg_merge", inline=_AVG_INLINE))
_register_agg(Aggregate("avg_partial", _avg_init, _avg_accum, _identity, _identity, _avg_merge,
                        inline=_AVG_INLINE))
#: ``_avg_merge`` over the state in place: a worker's ``[sum, count]``
#: folded into the group's.
_AVG_MERGE_INLINE = ("[None, 0]", ("t = {s}",
                                   "p = v[0]",
                                   "if p is not None:",
                                   " t[0] = p if t[0] is None else t[0] + p",
                                   "t[1] += v[1]"))
_register_agg(Aggregate("avg_merge", _avg_init, _avg_merge, _avg_final, _identity,
                        _avg_merge, inline=_AVG_MERGE_INLINE))


def _min_accum(state, value):
    if value is None:
        return state
    if state is None or compare_values(value, state) < 0:
        return value
    return state


def _max_accum(state, value):
    if value is None:
        return state
    if state is None or compare_values(value, state) > 0:
        return value
    return state


def _minmax_inline(op: str) -> tuple:
    return ("None", ("t = {s}",
                     f"if t is None or compare_values(v, t) {op} 0:",
                     " {s} = v"))


#: Names the ``inline`` statements use besides ``v`` and the state.
INLINE_ENV = {"compare_values": compare_values}

_register_agg(Aggregate("min", _minmax_init, _min_accum, _identity, _identity, _min_accum,
                        merge_name="min", inline=_minmax_inline("<")))
_register_agg(Aggregate("max", _minmax_init, _max_accum, _identity, _identity, _max_accum,
                        merge_name="max", inline=_minmax_inline(">")))


def _array_agg_accum(state, value):
    state = state or []
    state.append(value)
    return state


_register_agg(
    Aggregate(
        "array_agg",
        lambda: None,
        _array_agg_accum,
        lambda s: s,
        lambda s: s,
        lambda s, p: (s or []) + (p or []),
        merge_name="array_cat_agg",
    )
)
_register_agg(
    Aggregate(
        "array_cat_agg",
        lambda: None,
        lambda s, p: (s or []) + (p or []),
        lambda s: s,
        lambda s: s,
        lambda s, p: (s or []) + (p or []),
    )
)
_register_agg(
    Aggregate(
        "jsonb_agg",
        lambda: None,
        _array_agg_accum,
        lambda s: s or [],
        lambda s: s,
        lambda s, p: (s or []) + (p or []),
        merge_name="array_cat_agg",
    )
)


def _string_agg_init():
    return None


def _string_agg_accum(state, value, sep=","):
    if value is None:
        return state
    return to_text(value) if state is None else state + sep + to_text(value)


_register_agg(
    Aggregate(
        "string_agg",
        _string_agg_init,
        _string_agg_accum,
        _identity,
        _identity,
        lambda s, p, sep=",": p if s is None else (s if p is None else s + sep + p),
    )
)


def _stddev_init():
    # n, mean, M2 (the sum of squared deviations from the mean): a sum of
    # squares would cancel catastrophically on values far from zero.
    return [0, 0.0, 0.0]


def _stddev_accum(state, value):
    """Welford's update."""
    if value is None:
        return state
    n, mean, m2 = state
    n += 1
    delta = value - mean
    mean += delta / n
    return [n, mean, m2 + delta * (value - mean)]


def _stddev_final(state):
    n, _mean, m2 = state
    if n < 2:
        return None
    return math.sqrt(m2 / (n - 1))


def _stddev_merge(state, part):
    """Chan et al.'s pairwise combination of two partial states."""
    if part is None or not part[0]:
        return state
    n_a, mean_a, m2_a = state
    if not n_a:
        return list(part)
    n_b, mean_b, m2_b = part
    n = n_a + n_b
    delta = mean_b - mean_a
    return [n, mean_a + delta * n_b / n,
            m2_a + m2_b + delta * delta * n_a * n_b / n]


_register_agg(Aggregate("stddev", _stddev_init, _stddev_accum, _stddev_final, _identity,
                        _stddev_merge, merge_name="stddev_merge"))
_register_agg(Aggregate("stddev_partial", _stddev_init, _stddev_accum, _identity, _identity,
                        _stddev_merge))
_register_agg(
    Aggregate(
        "stddev_merge",
        _stddev_init,
        lambda s, p: _stddev_merge(s, p),
        _stddev_final,
        _identity,
        _stddev_merge,
    )
)

# HyperLogLog-flavoured approximate distinct count (stands in for the hll
# extension mentioned in the VeniceDB case study). State: dict of register
# index -> max leading-zero rank, 2^b registers.

_HLL_BITS = 10
_HLL_REGISTERS = 1 << _HLL_BITS


def _hll_init():
    return {}


def _hll_accum(state, value):
    if value is None:
        return state
    h = hash_value(value) & 0xFFFFFFFF
    # Remix: the crc-based shard hash isn't uniform enough in its low bits
    # for leading-zero counting; a multiplicative finalizer fixes the bias.
    h = (h * 0x9E3779B1 + 0x85EBCA6B) & 0xFFFFFFFF
    register = h >> (32 - _HLL_BITS)
    tail = h & ((1 << (32 - _HLL_BITS)) - 1)
    rank = (32 - _HLL_BITS) - tail.bit_length() + 1
    if state.get(register, 0) < rank:
        state[register] = rank
    return state


def _hll_final(state):
    m = _HLL_REGISTERS
    alpha = 0.7213 / (1 + 1.079 / m)
    total = sum(2.0 ** -state.get(i, 0) for i in range(m))
    estimate = alpha * m * m / total
    zeros = m - len(state)
    if estimate <= 2.5 * m and zeros:
        estimate = m * math.log(m / zeros)
    return int(round(estimate))


def _hll_merge(state, part):
    if not part:
        return state
    for register, rank in part.items():
        register = int(register)
        if state.get(register, 0) < rank:
            state[register] = rank
    return state


def _hll_partial(state):
    return {str(k): v for k, v in state.items()}  # json-safe keys


_register_agg(Aggregate("approx_count_distinct", _hll_init, _hll_accum, _hll_final, _hll_partial,
                        _hll_merge, merge_name="approx_merge"))
_register_agg(Aggregate("approx_partial", _hll_init, _hll_accum, _hll_partial, _hll_partial,
                        _hll_merge))
_register_agg(
    Aggregate(
        "approx_merge",
        _hll_init,
        lambda s, p: _hll_merge(s, p),
        _hll_final,
        _hll_partial,
        _hll_merge,
    )
)

_register_agg(
    Aggregate(
        "bool_and",
        lambda: None,
        lambda s, v: s if v is None else (v if s is None else s and v),
        _identity,
        _identity,
        lambda s, p: s if p is None else (p if s is None else s and p),
        merge_name="bool_and",
    )
)
_register_agg(
    Aggregate(
        "bool_or",
        lambda: None,
        lambda s, v: s if v is None else (v if s is None else s or v),
        _identity,
        _identity,
        lambda s, p: s if p is None else (p if s is None else s or p),
        merge_name="bool_or",
    )
)


def is_aggregate(name: str) -> bool:
    return name.lower() in AGGREGATES


def get_aggregate(name: str) -> Aggregate:
    agg = AGGREGATES.get(name.lower())
    if agg is None:
        raise DataError(f"unknown aggregate {name!r}")
    return agg


# The worker-side rewrite for distributed two-phase aggregation:
# coordinator aggregate name -> (worker aggregate name, coordinator merge name)
PARTIAL_REWRITES = {
    "count": ("count", "sum"),
    "sum": ("sum", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
    "avg": ("avg_partial", "avg_merge"),
    "stddev": ("stddev_partial", "stddev_merge"),
    "array_agg": ("array_agg", "array_cat_agg"),
    "jsonb_agg": ("jsonb_agg", "array_cat_agg"),
    "bool_and": ("bool_and", "bool_and"),
    "bool_or": ("bool_or", "bool_or"),
    "approx_count_distinct": ("approx_partial", "approx_merge"),
}


# --------------------------------------------------------------------------
# Scalar functions
# --------------------------------------------------------------------------


def _jsonb_path(value, path: str) -> list:
    """Evaluate a simple SQL/JSON path like ``$.payload.commits[*].message``.

    Returns the list of matched values (jsonb_path_query_array semantics).
    """
    steps = _parse_json_path(path)
    current = [value]
    for step in steps:
        nxt = []
        for item in current:
            if step == "[*]":
                if isinstance(item, list):
                    nxt.extend(item)
            elif isinstance(step, int):
                if isinstance(item, list) and -len(item) <= step < len(item):
                    nxt.append(item[step])
            else:
                if isinstance(item, dict) and step in item:
                    nxt.append(item[step])
        current = nxt
    return current


_PATH_TOKEN = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)|\[(\*|\d+)\]")


def _parse_json_path(path: str) -> list:
    path = path.strip()
    if path.startswith("$"):
        path = path[1:]
    steps = []
    for match in _PATH_TOKEN.finditer(path):
        if match.group(1) is not None:
            steps.append(match.group(1))
        else:
            token = match.group(2)
            steps.append("[*]" if token == "*" else int(token))
    return steps


def _substring(text, start=None, length=None):
    if text is None:
        return None
    s = to_text(text)
    start = 1 if start is None else int(start)
    begin = max(start - 1, 0)
    if length is None:
        return s[begin:]
    return s[begin : begin + int(length)]


def _date_trunc(field, value):
    value = cast_value(value, "timestamp")
    if value is None:
        return None
    field = str(field).lower()
    if field == "year":
        return value.replace(month=1, day=1, hour=0, minute=0, second=0, microsecond=0)
    if field == "month":
        return value.replace(day=1, hour=0, minute=0, second=0, microsecond=0)
    if field == "week":
        start = value - _dt.timedelta(days=value.weekday())
        return start.replace(hour=0, minute=0, second=0, microsecond=0)
    if field == "day":
        return value.replace(hour=0, minute=0, second=0, microsecond=0)
    if field == "hour":
        return value.replace(minute=0, second=0, microsecond=0)
    if field == "minute":
        return value.replace(second=0, microsecond=0)
    if field == "second":
        return value.replace(microsecond=0)
    raise DataError(f"unsupported date_trunc field {field!r}")


def _extract(field, value):
    field = str(field).lower()
    if isinstance(value, _dt.timedelta):
        if field == "epoch":
            return value.total_seconds()
        if field == "day":
            return float(value.days)
        raise DataError(f"unsupported extract field {field!r} for interval")
    value = cast_value(value, "timestamp")
    if value is None:
        return None
    mapping = {
        "year": value.year,
        "month": value.month,
        "day": value.day,
        "hour": value.hour,
        "minute": value.minute,
        "second": value.second,
        "dow": (value.weekday() + 1) % 7,
        "doy": value.timetuple().tm_yday,
        "epoch": value.timestamp() if value.tzinfo else value.replace(
            tzinfo=_dt.timezone.utc
        ).timestamp(),
        "quarter": (value.month - 1) // 3 + 1,
    }
    if field not in mapping:
        raise DataError(f"unsupported extract field {field!r}")
    return float(mapping[field])


_INTERVAL_RE = re.compile(r"(-?\d+(?:\.\d+)?)\s*(\w+)")

_INTERVAL_UNITS = {
    "us": 1e-6, "microsecond": 1e-6, "microseconds": 1e-6,
    "ms": 1e-3, "millisecond": 1e-3, "milliseconds": 1e-3,
    "s": 1, "sec": 1, "secs": 1, "second": 1, "seconds": 1,
    "min": 60, "mins": 60, "minute": 60, "minutes": 60,
    "h": 3600, "hour": 3600, "hours": 3600,
    "d": 86400, "day": 86400, "days": 86400,
    "week": 604800, "weeks": 604800,
    "mon": 2592000, "month": 2592000, "months": 2592000,
    "year": 31536000, "years": 31536000,
}


def _interval(spec) -> _dt.timedelta:
    total = 0.0
    for number, unit in _INTERVAL_RE.findall(str(spec)):
        scale = _INTERVAL_UNITS.get(unit.lower())
        if scale is None:
            raise DataError(f"unknown interval unit {unit!r}")
        total += float(number) * scale
    return _dt.timedelta(seconds=total)


def _split_part(text, delimiter, n):
    if text is None:
        return None
    parts = to_text(text).split(to_text(delimiter))
    index = int(n) - 1
    return parts[index] if 0 <= index < len(parts) else ""


def _any_all(left, op, kind, array):
    """``left op ANY / ALL (array)`` in three-valued logic: an array or a
    subquery's column."""
    if array is None:
        return None
    results = [apply_binary(op, left, item) for item in array]
    if any(r is True for r in results) if kind == "any" \
            else all(r is True for r in results):
        return True
    return None if any(r is None for r in results) else False


def _width_bucket(value, low, high, buckets):
    if value is None:
        return None
    if value < low:
        return 0
    if value >= high:
        return int(buckets) + 1
    return int((value - low) / (high - low) * buckets) + 1


SCALAR_FUNCTIONS: dict[str, Callable] = {
    # math
    "abs": lambda x: None if x is None else abs(x),
    "round": lambda x, n=0: None if x is None else round(x, int(n)) if n else float(round(x)),
    "floor": lambda x: None if x is None else float(math.floor(x)),
    "ceil": lambda x: None if x is None else float(math.ceil(x)),
    "ceiling": lambda x: None if x is None else float(math.ceil(x)),
    "mod": lambda a, b: apply_binary("%", a, b),
    "power": lambda a, b: None if a is None or b is None else float(a) ** float(b),
    "sqrt": lambda x: None if x is None else math.sqrt(x),
    "ln": lambda x: None if x is None else math.log(x),
    "log": lambda x: None if x is None else math.log10(x),
    "exp": lambda x: None if x is None else math.exp(x),
    "sign": lambda x: None if x is None else float((x > 0) - (x < 0)),
    "width_bucket": _width_bucket,
    "greatest": lambda *xs: max((x for x in xs if x is not None), default=None),
    "least": lambda *xs: min((x for x in xs if x is not None), default=None),
    # strings
    "lower": lambda s: None if s is None else to_text(s).lower(),
    "upper": lambda s: None if s is None else to_text(s).upper(),
    "length": lambda s: None if s is None else len(to_text(s)),
    "char_length": lambda s: None if s is None else len(to_text(s)),
    "substring": _substring,
    "substr": _substring,
    "left": lambda s, n: None if s is None else to_text(s)[: int(n)],
    "right": lambda s, n: None if s is None else to_text(s)[-int(n):] if int(n) else "",
    "concat": lambda *xs: "".join(to_text(x) for x in xs if x is not None),
    "md5": lambda s: None if s is None else hashlib.md5(to_text(s).encode()).hexdigest(),
    "trim": lambda s: None if s is None else to_text(s).strip(),
    "btrim": lambda s: None if s is None else to_text(s).strip(),
    "ltrim": lambda s: None if s is None else to_text(s).lstrip(),
    "rtrim": lambda s: None if s is None else to_text(s).rstrip(),
    "replace": lambda s, a, b: None if s is None else to_text(s).replace(to_text(a), to_text(b)),
    "repeat": lambda s, n: None if s is None else to_text(s) * int(n),
    "lpad": lambda s, n, fill=" ": None if s is None else to_text(s).rjust(int(n), to_text(fill))[: int(n)],
    "rpad": lambda s, n, fill=" ": None if s is None else to_text(s).ljust(int(n), to_text(fill))[: int(n)],
    "position": lambda sub, s: None if s is None else to_text(s).find(to_text(sub)) + 1,
    "strpos": lambda s, sub: None if s is None else to_text(s).find(to_text(sub)) + 1,
    "split_part": _split_part,
    "starts_with": lambda s, p: None if s is None else to_text(s).startswith(to_text(p)),
    "reverse": lambda s: None if s is None else to_text(s)[::-1],
    "ascii": lambda s: None if not s else ord(to_text(s)[0]),
    "chr": lambda n: None if n is None else chr(int(n)),
    "to_char": lambda v, fmt=None: to_text(v),
    "to_hex": lambda n: None if n is None else format(int(n), "x"),
    # date / time
    "date_trunc": _date_trunc,
    "extract": _extract,
    "date_part": lambda f, v: _extract(f, v),
    "interval": _interval,
    "make_date": lambda y, m, d: _dt.date(int(y), int(m), int(d)),
    "make_timestamp": lambda y, m, d, h=0, mi=0, s=0: _dt.datetime(
        int(y), int(m), int(d), int(h), int(mi), int(s)
    ),
    "age": lambda a, b: cast_value(a, "timestamp") - cast_value(b, "timestamp"),
    # jsonb
    "jsonb_array_length": lambda j: None if j is None else len(j) if isinstance(j, list) else 0,
    "jsonb_path_query_array": lambda j, p: _jsonb_path(j, to_text(p)),
    "jsonb_extract_path_text": lambda j, *ks: _jsonb_extract_text(j, ks),
    "jsonb_typeof": lambda j: {dict: "object", list: "array", str: "string", bool: "boolean",
                               int: "number", float: "number", type(None): "null"}.get(type(j)),
    "jsonb_build_object": lambda *kv: {to_text(kv[i]): kv[i + 1] for i in range(0, len(kv), 2)},
    "to_jsonb": lambda v: v,
    "jsonb_array_elements_text": lambda j: [to_text(x) for x in (j or [])],
    # misc
    "coalesce": lambda *xs: next((x for x in xs if x is not None), None),
    "nullif": lambda a, b: None if (a is not None and b is not None and compare_values(a, b) == 0) else a,
    "hashtext": hash_value,
    "hashint8": hash_value,
    "version": lambda: "PostgreSQL 13.2 (repro) with citus-repro 9.5",
    "array_length": lambda a, dim=1: None if a is None else len(a),
    "array_cat": lambda a, b: (a or []) + (b or []),
    "array_append": lambda a, v: (a or []) + [v],
    "array_position": lambda a, v: next(
        (i + 1 for i, x in enumerate(a or []) if x is not None and compare_values(x, v) == 0), None
    ),
    "unnest": lambda a: list(a or []),
    "num_nulls": lambda *xs: sum(1 for x in xs if x is None),
    "num_nonnulls": lambda *xs: sum(1 for x in xs if x is not None),
    # internal helpers produced by the parser
    "_any_all": _any_all,
    "_not_distinct": lambda a, b: (a is None and b is None)
    or (a is not None and b is not None and compare_values(a, b) == 0),
    "_subscript": lambda a, i: None
    if a is None or i is None or not isinstance(a, (list, str)) or not (1 <= int(i) <= len(a))
    else a[int(i) - 1],
}


def _jsonb_extract_text(j, keys):
    current = j
    for key in keys:
        if isinstance(current, dict):
            current = current.get(to_text(key))
        elif isinstance(current, list):
            try:
                current = current[int(key)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    return to_text(current) if current is not None else None


# Set-returning functions usable in FROM.
def _generate_series(start, stop, step=1):
    if isinstance(start, _dt.datetime) or isinstance(start, _dt.date):
        start = cast_value(start, "timestamp")
        stop = cast_value(stop, "timestamp")
        delta = step if isinstance(step, _dt.timedelta) else _interval(step)
        out = []
        current = start
        while current <= stop:
            out.append(current)
            current = current + delta
        return out
    step = int(step)
    if step == 0:
        raise DataError("generate_series step must not be zero")
    values = []
    current = int(start)
    stop = int(stop)
    while (step > 0 and current <= stop) or (step < 0 and current >= stop):
        values.append(current)
        current += step
    return values


SET_RETURNING_FUNCTIONS: dict[str, Callable] = {
    "generate_series": _generate_series,
    "unnest": lambda a: list(a or []),
    "jsonb_array_elements": lambda j: list(j or []),
}
