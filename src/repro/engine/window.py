"""Window function execution.

Supports ranking functions (``row_number``, ``rank``, ``dense_rank``,
``ntile``), navigation (``lag``, ``lead``, ``first_value``, ``last_value``)
and any aggregate from the aggregate library used as a window.

Frame semantics follow PostgreSQL defaults: with an ORDER BY the frame is
*range between unbounded preceding and current row* (running aggregates,
peers included); without one, the whole partition.
"""

from __future__ import annotations

from ..errors import DataError
from ..sql import ast as A
from .compile import get_compiled
from .datum import ordering, to_text
from .functions import _STAR, get_aggregate, is_aggregate

RANKING_FUNCTIONS = {"row_number", "rank", "dense_rank", "ntile"}
NAVIGATION_FUNCTIONS = {"lag", "lead", "first_value", "last_value"}


def is_window_capable(name: str) -> bool:
    name = name.lower()
    return (
        name in RANKING_FUNCTIONS
        or name in NAVIGATION_FUNCTIONS
        or is_aggregate(name)
    )


def compute_window_values(node: A.FuncCall, rows: list, ctx) -> list:
    """Evaluate one window function over the input rows; returns a value
    per row, aligned with ``rows`` order. ``ctx`` is the caller's loop
    context for the rows' layout; it is re-pointed at rows here."""
    name = node.name.lower()
    if not is_window_capable(name):
        raise DataError(f"{name}() is not a window function")
    window = node.over
    layout = ctx.layout

    def over(fn, i):
        ctx.values = rows[i]
        return fn(ctx)

    # Partition rows.
    partition_fns = [get_compiled(e, layout) for e in window.partition_by]
    partitions: dict[tuple, list[int]] = {}
    for i in range(len(rows)):
        key = tuple([_hashable(over(fn, i)) for fn in partition_fns])
        partitions.setdefault(key, []).append(i)

    order_fns = [get_compiled(sk.expr, layout) for sk in window.order_by]
    arg_fns = [get_compiled(a, layout) for a in node.args
               if not isinstance(a, A.Star)]
    values: list = [None] * len(rows)
    for indices in partitions.values():
        ordered = _order_partition(indices, window.order_by, order_fns, over)
        peer_groups = _peer_groups(ordered, order_fns, over)
        if name in RANKING_FUNCTIONS:
            _compute_ranking(name, arg_fns, over, ordered, peer_groups, values)
        elif name in NAVIGATION_FUNCTIONS:
            _compute_navigation(name, arg_fns, over, ordered, values)
        else:
            _compute_window_aggregate(node, arg_fns, over, ordered, peer_groups,
                                      values, running=bool(window.order_by))
    return values


def _order_partition(indices, order_by, order_fns, over):
    """The partition's row indices in window order: one stable sort per
    ORDER BY key, last key first (a descending key sorts reversed)."""
    ordered = list(indices)
    for sk, fn in reversed(list(zip(order_by, order_fns))):
        descending, key = ordering(sk.ascending, sk.nulls_first)
        ordered.sort(key=lambda i: key(over(fn, i)), reverse=descending)
    return ordered


def _peer_groups(ordered, order_fns, over):
    """Group consecutive rows with equal ORDER BY keys (rank peers)."""
    if not order_fns:
        return [list(ordered)]
    groups = []
    last_key = object()
    for i in ordered:
        key = tuple([_hashable(over(fn, i)) for fn in order_fns])
        if key != last_key:
            groups.append([i])
            last_key = key
        else:
            groups[-1].append(i)
    return groups


def _compute_ranking(name, arg_fns, over, ordered, peer_groups, values):
    if name == "row_number":
        for position, i in enumerate(ordered, start=1):
            values[i] = position
        return
    if name == "ntile":
        buckets = int(over(arg_fns[0], ordered[0])) if arg_fns else 1
        n = len(ordered)
        for position, i in enumerate(ordered):
            values[i] = min(position * buckets // n + 1, buckets)
        return
    rank = 1
    dense = 1
    seen = 0
    for group in peer_groups:
        for i in group:
            values[i] = rank if name == "rank" else dense
        seen += len(group)
        rank = seen + 1
        dense += 1


def _compute_navigation(name, arg_fns, over, ordered, values):
    if name in ("first_value", "last_value"):
        source = ordered[0] if name == "first_value" else ordered[-1]
        for i in ordered:
            values[i] = over(arg_fns[0], source)
        return
    offset = 1
    default = None
    for position, i in enumerate(ordered):
        if len(arg_fns) > 1:
            offset = int(over(arg_fns[1], i))
        if len(arg_fns) > 2:
            default = over(arg_fns[2], i)
        target = position - offset if name == "lag" else position + offset
        if 0 <= target < len(ordered):
            values[i] = over(arg_fns[0], ordered[target])
        else:
            values[i] = default


def _compute_window_aggregate(node, arg_fns, over, ordered, peer_groups,
                              values, running: bool):
    agg = get_aggregate(node.name)

    def accumulate(state, i):
        if not arg_fns:  # count(*) / no arguments
            return agg.accumulate(state, _STAR)
        return agg.accumulate(state, *[over(fn, i) for fn in arg_fns])

    state = agg.init()
    if not running:
        for i in ordered:
            state = accumulate(state, i)
        final = agg.finalize(state)
        for i in ordered:
            values[i] = final
        return
    # Running aggregate over peer groups (default frame).
    for group in peer_groups:
        for i in group:
            state = accumulate(state, i)
        # All peers share the frame end at the last peer.
        snapshot = agg.finalize(_copy_state(state))
        for i in group:
            values[i] = snapshot


def _copy_state(state):
    if isinstance(state, list):
        return list(state)
    if isinstance(state, dict):
        return dict(state)
    return state


def _hashable(value):
    if isinstance(value, (dict, list)):
        return to_text(value)
    return value
