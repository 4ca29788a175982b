"""Local query planner and executor.

Implements PostgreSQL's executor surface for the SQL subset the paper's
workloads need. Access-path selection is deliberately simple but realistic:

- equality / range predicates on a B-tree index's leading column(s) use the
  index (``Index Scan``);
- ``ILIKE '%needle%'`` predicates over an expression with a GIN index use
  the trigram index with recheck (``Bitmap Heap Scan``-alike);
- everything else is a sequential scan.

Joins pick a hash join for equi-join conditions and fall back to nested
loops. Aggregation is hash-based and understands the two-phase protocol
(partial / merge) used by distributed aggregation.

The executor also computes EXPLAIN output; the Citus planner hook prepends
its ``Custom Scan (Citus Adaptive)`` lines to these, matching how the real
extension nests distributed plans inside PostgreSQL plans.
"""

from __future__ import annotations

import functools
import weakref
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from heapq import nsmallest

from ..errors import (
    CatalogError,
    DataError,
    ForeignKeyViolation,
    LockTimeout,
    NotNullViolation,
    SyntaxErrorSQL,
    UniqueViolation,
)
from ..sql import ast as A
from ..sql.deparse import deparse
from .catalog import Table
from .datum import (
    TEXT, Descending, caster, column_constant, compare_values, exact_type,
    ordering, plain_sort_type, refuse_number_against_text, to_text,
)
from .compile import (
    WhereShape, and_all, evaluate, get_compiled, get_prepared, slot_of, split_and,
)
from .expr import EMPTY_LAYOUT, EvalContext, RowLayout, SlotRef
from .functions import (
    _STAR, INLINE_ENV, SET_RETURNING_FUNCTIONS, _identity, get_aggregate,
    is_aggregate,
)
from .heap import (LENGTH, TUPLE_OVERHEAD, VALUE_WIDTHS, HeapTuple,
                   _value_width, stored_width)
from .index import BTreeIndex, GinIndex, index_delete, index_key_fn, row_key_fn
from .locks import WouldBlock
from .mvcc import COMMITTED, IN_PROGRESS, PREPARED
from .wal import row_record_bytes, stored_form
from .window import compute_window_values


@dataclass
class QueryResult:
    columns: list
    rows: list
    command: str = "SELECT"
    rowcount: int = 0

    def __post_init__(self):
        if self.command == "SELECT":
            self.rowcount = len(self.rows)

    def scalar(self):
        return self.rows[0][0] if self.rows and self.rows[0] else None

    def first(self):
        return self.rows[0] if self.rows else None

    def __iter__(self):
        return iter(self.rows)


class Batch:
    """Result rows as columns: ``columns[c][i]`` is column ``c`` of row
    ``i``, ``count`` rows (a batch may have rows and no columns). What a
    cursor hands out, the wire prices and the coordinator merges; rows are
    made once, by whoever needs them (:meth:`rows`)."""

    __slots__ = ("columns", "count")

    def __init__(self, columns, count: int):
        self.columns = columns
        self.count = count

    @classmethod
    def of_rows(cls, rows, width: int) -> "Batch":
        """Rows of ``width`` values, turned into columns (by position:
        ``zip(*rows)`` would make an iterator per row)."""
        return cls([[row[c] for row in rows] for c in range(width)], len(rows))

    def __len__(self) -> int:
        return self.count

    def rows(self) -> list:
        """One list per row, made now."""
        if self.columns:
            return list(map(list, zip(*self.columns)))
        return [[] for _ in range(self.count)]


class EngineCursor:
    """Pull-based result of :meth:`LocalExecutor.execute_cursor`.

    ``fetch(n)`` returns the next :class:`Batch` of up to ``n`` rows
    (empty once exhausted) from ``pull(n)``, which returns fewer than ``n``
    only when it is done.
    ``close()`` terminates early. The optional ``on_finish(error)`` callback fires
    exactly once — on exhaustion, close, or a mid-iteration error — which
    is how the owning session defers statement completion until every open
    cursor (portal) on it is done. ``snapshot`` is the one a lazy scan
    still reads under (None: the rows are already materialised); the
    session keeps it pinned until the cursor finishes.
    """

    def __init__(self, columns, pull, command: str = "SELECT",
                 on_finish=None, snapshot=None):
        self.columns = columns
        self.command = command
        self.snapshot = snapshot
        self._pull = pull
        self._on_finish = on_finish
        self.rows_fetched = 0
        self.exhausted = False
        self.closed = False

    @classmethod
    def over(cls, columns, batch: Batch, command: str = "SELECT") -> "EngineCursor":
        """A cursor over a result already made, handed out a slice at a time."""
        position = 0

        def pull(n):
            nonlocal position
            start, position = position, min(position + n, batch.count)
            if start == 0 and position == batch.count:
                return batch
            return Batch([column[start:position] for column in batch.columns],
                         position - start)

        return cls(columns, pull, command)

    def fetch(self, n: int) -> Batch:
        if self.closed or self.exhausted:
            return Batch([[] for _ in self.columns], 0)
        n = max(int(n), 0)
        try:
            batch = self._pull(n)
        except BaseException as exc:
            self.exhausted = True
            self._finish(exc)
            raise
        self.rows_fetched += batch.count
        if batch.count < n:
            self.exhausted = True
            self._finish(None)
        return batch

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._finish(None)

    def _finish(self, error) -> None:
        # What is left to pull goes now: a finished cursor can be held on to
        # (by an execution's cycle of streams) long after.
        self._pull = None
        callback, self._on_finish = self._on_finish, None
        if callback is not None:
            callback(error)


class Stream:
    """One execution's FROM item as the head of a fused loop. ``kind`` is
    ``heap`` (tuple versions; ``visibility`` — the snapshot's verdicts, its
    test, the commit log — is applied in the loop), ``tuples`` (visible
    index candidates) or ``rows`` (value lists or tuples already made, never
    mutated). ``stages`` holds ``(JoinShape, join type, stream is the left
    side)`` per join, ``builds`` its ``(hash table or None, build rows, ids
    of matched build rows)``; ``layout`` is what comes out."""

    __slots__ = ("kind", "source", "layout", "width", "locking", "shape",
                 "heap", "visibility", "stages", "builds")

    def __init__(self, kind: str, source, layout: RowLayout, shape=None,
                 heap=None, visibility=None):
        self.kind, self.source, self.layout = kind, source, layout
        self.width = layout.width  # of the source's part of each row
        #: Whether a row is the tuple's values followed by the tuple itself.
        self.locking = kind != "rows" and bool(layout.sources)
        self.shape, self.heap, self.visibility = shape, heap, visibility
        self.stages: list[tuple] = []
        self.builds: list[tuple] = []

    @classmethod
    def of(cls, layout: RowLayout, rows) -> "Stream":
        """Rows already made (a lazy iterable stays lazy)."""
        return cls("rows", rows, layout)


# --------------------------------------------------------------------------
# prepared shapes: analyse once, execute many
# --------------------------------------------------------------------------
#
# Everything below depends only on a statement's AST and the catalog, so it
# is computed on the first execution and kept in the compile cache
# (compile.get_prepared) until DDL bumps the catalog epoch. Executing a
# shape evaluates its key expressions against the parameters, probes the
# indexes and runs the compiled closures.


class ScanShape:
    """A scan of one base table under one WHERE clause: the layout of the
    rows it yields, the predicate compiled against it, and the index
    candidates together with the expressions that supply their keys."""

    __slots__ = ("layout", "where", "terms", "btrees", "gin", "point", "loops")

    def __init__(self, table: Table, alias: str, where, locking: bool = False):
        self.layout = RowLayout.of(
            alias, table.column_names(), table.name if locking else None)
        self.where = WhereShape(where, self.layout) if where is not None else None
        #: The fused loops that scan through this shape (``_drain``).
        self.loops: dict = {}
        # (column, op, value_fn, high_fn, column type): ``column op value``
        # conjuncts whose value does not depend on the scanned row. ``op``
        # is already flipped for ``value op column``; BETWEEN carries both
        # bounds.
        self.terms: list[tuple] = []
        #: (index name, its column names) for every B-tree index whose
        #: leading column some term constrains.
        self.btrees: list[tuple] = []
        #: (index name, needle) of the trigram index serving an
        #: ``ILIKE '%needle%'`` conjunct, if any.
        self.gin = None
        #: ``(IndexDef, its column names)`` when this is a *point* shape:
        #: ``=`` conjuncts on every column of a unique B-tree, the only
        #: index candidate, their values constants or parameters — one key,
        #: and :meth:`probe` could choose nothing else (:meth:`point_key`).
        self.point = None
        if where is None:
            return
        text = [col.name for col in table.columns if col.type_name == TEXT]
        for op, operand, operand_first in (
                text_comparisons(where, alias, text) if text else ()):
            if type(operand) is A.Literal:
                refuse_number_against_text(op, operand.value, operand_first)
        if not table.indexes:
            return
        types = {col.name: col.type_name for col in table.columns}
        patterns: list[tuple[str, str]] = []  # (indexed expr text, needle)
        stable = True  # every term's value a constant or a parameter
        for c in split_and(where):
            if isinstance(c, A.BinaryOp) and c.op in _FLIPPED:
                left, right, op = c.left, c.right, c.op
                if isinstance(right, A.ColumnRef) and not isinstance(left, A.ColumnRef):
                    left, right, op = right, left, _FLIPPED[op]
                if (isinstance(left, A.ColumnRef) and left.table in (None, alias)
                        and not _references_columns(right)):
                    self.terms.append((left.name, op, get_compiled(right), None,
                                       types.get(left.name)))
                    stable = stable and _stable(right)
            elif isinstance(c, A.BetweenExpr) and isinstance(c.operand, A.ColumnRef):
                if not c.negated and c.operand.table in (None, alias):
                    self.terms.append((c.operand.name, "between", get_compiled(c.low),
                                       get_compiled(c.high), types.get(c.operand.name)))
                    stable = stable and _stable(c.low) and _stable(c.high)
            elif isinstance(c, A.BinaryOp) and c.op in ("like", "ilike"):
                if isinstance(c.right, A.Literal) and isinstance(c.right.value, str):
                    pattern = c.right.value
                    if pattern.startswith("%") and pattern.endswith("%"):
                        needle = pattern.strip("%")
                        if not {"%", "_", "\\"} & set(needle):
                            patterns.append((_normalized_expr_text(c.left, alias), needle))
        constrained = {term[0] for term in self.terms}
        for index in table.indexes.values():
            if isinstance(index.data, GinIndex):
                if self.gin is None:
                    index_text = _normalized_expr_text(index.exprs[0], alias)
                    for expr_text, needle in patterns:
                        # A needle too short for trigrams cannot use the index.
                        if (expr_text == index_text
                                and index.data.search_substring(needle) is not None):
                            self.gin = (index.name, needle)
                            break
                continue
            if not isinstance(index.data, BTreeIndex):
                continue
            index_cols = [e.name for e in index.exprs if isinstance(e, A.ColumnRef)]
            if len(index_cols) != len(index.exprs) or not index_cols:
                continue
            if index_cols[0] in constrained:
                self.btrees.append((index.name, index_cols))
        if stable and self.gin is None and len(self.btrees) == 1:
            index = table.indexes[self.btrees[0][0]]
            cols = self.btrees[0][1]
            if index.unique and {col for col, op, *_ in self.terms
                                 if op == "="}.issuperset(cols):
                self.point = (index, cols)

    def bind(self, ctx: EvalContext) -> tuple[dict, dict]:
        """This execution's ``=`` constant and range bounds per column:
        every term evaluated once, read as its column's type. A term whose
        value does not evaluate (an unbound parameter) or does not read as
        the column's type, and an ``=`` NULL, constrains nothing."""
        const_eq: dict[str, object] = {}
        ranges: dict[str, dict] = {}
        for col, op, value_fn, high_fn, type_name in self.terms:
            try:
                # A text constant reads as the column's type (or the term
                # cannot use the index, and the recheck decides).
                value = column_constant(value_fn(ctx), type_name)
                high = (column_constant(high_fn(ctx), type_name)
                        if high_fn is not None else None)
            except Exception:
                continue  # e.g. an unbound parameter: the term cannot prune
            if op == "between":
                ranges[col] = {"low": value, "low_inc": True,
                               "high": high, "high_inc": True}
            elif value is None:
                continue
            elif op == "=":
                const_eq[col] = value
            elif op in (">", ">="):
                bound = ranges.setdefault(col, {})
                bound["low"] = value
                bound["low_inc"] = op == ">="
            else:
                bound = ranges.setdefault(col, {})
                bound["high"] = value
                bound["high_inc"] = op == "<="
        return const_eq, ranges

    def point_key(self, ctx: EvalContext) -> list | None:
        """A point shape's key under ``ctx`` — what :meth:`probe` would
        look up, by the same :meth:`bind` — or None when some key column
        has no ``=`` value (a NULL, an unbound parameter, a constant that
        does not read as the column's type): then the scan is probed as
        any other, its values evaluated again, which a constant or a
        parameter allows."""
        const_eq = self.bind(ctx)[0]
        key = []
        for col in self.point[1]:
            if col not in const_eq:
                return None
            key.append(const_eq[col])
        return key

    def probe(self, table: Table, ctx: EvalContext):
        """Pick an index for this execution's parameter values. Returns
        (description, IndexDef, tids) or None for a sequential scan.
        Read-only: EXPLAIN calls it too.

        The candidate TIDs are a superset of the matching rows; the caller
        re-applies the full WHERE clause (index recheck). A trigram match
        wins; otherwise the longest B-tree equality prefix, then a B-tree
        range, fewest TIDs breaking ties.
        """
        if self.gin is not None:
            name, needle = self.gin
            index = table.indexes[name]
            tids = index.data.search_substring(needle)
            return (f"Bitmap Heap Scan using {name}", index, sorted(tids))
        if not self.btrees:
            return None
        const_eq, ranges = self.bind(ctx)
        best = None
        for name, index_cols in self.btrees:
            index = table.indexes[name]
            data = index.data
            prefix = []
            for col in index_cols:
                if col in const_eq:
                    prefix.append(const_eq[col])
                else:
                    break
            if prefix:
                tids = data.scan_equal(prefix)
                score = len(prefix) * 1000 - len(tids)
            else:
                bound = ranges.get(index_cols[0])
                if not bound:
                    continue
                tids = data.scan_range(
                    bound.get("low"), bound.get("high"),
                    bound.get("low_inc", True), bound.get("high_inc", True),
                )
                score = -len(tids)
            if best is None or score > best[0]:
                best = (score, (f"Index Scan using {name}", index, tids))
        return best[1] if best else None


class SelectShape:
    """What one SELECT is, independent of its input: window / aggregate
    flags, whether it can stream, and — per input layout — the
    :class:`BoundSelect` holding everything compiled."""

    __slots__ = ("select", "has_windows", "aggregates", "streamable",
                 "single", "point", "join_plan", "_bound")

    def __init__(self, select: A.Select):
        self.select = select
        self.has_windows = bool(window_calls(select.targets))
        #: Runs through the hash aggregate (GROUP BY or any aggregate call).
        self.aggregates = is_aggregating(select)
        #: Can run as a lazy scan -> filter -> project pipeline (given that
        #: the FROM item resolves to a base table at execution time).
        self.streamable = not (
            select.ctes or select.set_ops or select.distinct
            or select.order_by or select.for_update
            or select.having is not None
            or self.has_windows or self.aggregates
        ) and len(select.from_items) == 1 and isinstance(
            select.from_items[0], A.TableRef)
        #: A scan and a projection, nothing else (no LIMIT / OFFSET, no
        #: subquery): when its scan is a point shape it runs in
        #: ``LocalExecutor._point_select``.
        self.single = (self.streamable and select.limit is None
                       and select.offset is None and not any(
                           isinstance(node, A.SubqueryExpr)
                           for node in A.walk([select.targets, select.where])))
        #: ``(Table, point ScanShape, BoundSelect)`` of a single SELECT
        #: whose scan is a point shape, False when it is not; None until
        #: its first execution.
        self.point = None
        #: ``(item layouts, join steps)`` of comma-separated FROM items:
        #: see :func:`_comma_join_plan`; replanned when a layout changes.
        self.join_plan = None
        self._bound = None

    def bound(self, layout: RowLayout) -> "BoundSelect":
        """This SELECT compiled against input rows of ``layout``; rebuilt
        only when the input layout changes (it is interned, so it does not
        between executions of one statement under one catalog state)."""
        bound = self._bound
        if bound is None or bound.layout is not layout:
            bound = self._bound = BoundSelect(self, layout)
        return bound


#: Where a sort key reads its value: the output row by position, the input
#: row by slot, or a closure evaluated over the input row.
_OUT, _IN, _FN = range(3)


class BoundSelect:
    """One SELECT's per-row work compiled against the layout of its input
    rows: WHERE, the star-expanded targets and their output names, and —
    prepared here so that no execution walks, copies or deparses the AST —
    the window rewrite, the aggregate operator and the ORDER BY keys.

    Window and aggregate results are appended to the row they belong to
    (slots ``layout.width`` onwards), and the calls that produced them
    become :class:`SlotRef` reads in a copy of the targets."""

    __slots__ = ("layout", "where", "columns", "target_fns",
                 "target_slots", "window_calls", "agg", "scope",
                 "sort_keys", "distinct_on", "keeps_inputs", "loops")

    def __init__(self, shape: SelectShape, layout: RowLayout):
        select = shape.select
        self.layout = layout
        self.where = (WhereShape(select.where, layout)
                      if select.where is not None else None)
        #: The fused loops this SELECT runs (``LocalExecutor._drain``).
        self.loops: dict = {}
        targets = _expand_stars(select.targets, layout.columns)
        self.columns = output_names(targets)
        self.window_calls: list[A.FuncCall] = []
        if shape.has_windows:
            targets = [A.TargetEntry(self._lift_windows(t.expr.copy()), t.alias)
                       for t in targets]
        self.agg = AggShape(select, targets, layout) if shape.aggregates else None
        #: Per target of a SELECT without aggregation: its closure, and the
        #: slot it reads when it is nothing else (the loop reads it).
        self.target_fns = self.target_slots = None
        if self.agg is None:
            self.target_fns = [get_compiled(t.expr, layout) for t in targets]
            self.target_slots = [slot_of(t.expr, layout) for t in targets]
        #: What ORDER BY / DISTINCT ON expressions read besides the output
        #: row: the input row, or after a set operation nothing.
        scope = self.scope = EMPTY_LAYOUT if select.set_ops else layout
        self.sort_keys = [self._sort_key(sk, targets, scope)
                          for sk in select.order_by]
        self.distinct_on = [get_compiled(e, scope) for e in select.distinct_on]
        #: Whether anything reads an output row's input row again.
        self.keeps_inputs = bool(
            select.for_update or self.distinct_on
            or any(key[0] is not _OUT for key in self.sort_keys))

    def _lift_windows(self, expr):
        def visit(node):
            if isinstance(node, A.FuncCall) and node.over is not None:
                self.window_calls.append(node)
                return SlotRef(self.layout.width + len(self.window_calls) - 1)
            return node

        return transform_level(expr, visit)

    def _sort_key(self, sk: A.SortKey, targets, scope: RowLayout) -> tuple:
        """``(source, arg, descending, key function)`` for one ORDER BY
        entry: its value resolved once to an output position, an output
        alias, an input slot or a compiled closure, and its direction and
        NULL placement to a :func:`datum.ordering`."""
        expr = sk.expr
        source = arg = None
        if (isinstance(expr, A.Literal) and isinstance(expr.value, int)
                and 0 < expr.value <= len(targets)):
            source, arg = _OUT, expr.value - 1
        elif (self.agg is not None and scope is self.layout
                and has_aggregates(expr)):
            # ORDER BY sum(x): one more aggregate slot on the group row.
            expr = self.agg.lift(expr.copy())
        elif isinstance(expr, A.ColumnRef):
            by_alias = [i for i, t in enumerate(targets)
                        if expr.table is None and t.alias == expr.name]
            by_name = [i for i, t in enumerate(targets)
                       if isinstance(t.expr, A.ColumnRef)
                       and t.expr.name == expr.name]
            if by_alias:
                source, arg = _OUT, by_alias[0]
            elif by_name and scope.slots.get(expr.key) is None:
                # Not an input column: an output column by name.
                source, arg = _OUT, by_name[0]
        if source is None:
            arg = slot_of(expr, scope)
            source = _IN
            if arg is None:
                source, arg = _FN, get_compiled(expr, scope)
            else:
                # An input column the output holds as it is: read it there.
                for i, target in enumerate(targets):
                    if slot_of(target.expr, scope) == arg:
                        source, arg = _OUT, i
                        break
        return (source, arg, *ordering(sk.ascending, sk.nulls_first))


class AggShape:
    """The hash aggregate of one SELECT over input rows of one layout.

    A group's row is its first input row's values followed by one slot
    per aggregate call; targets, HAVING and aggregate ORDER BY keys are
    compiled over that row with each call replaced by a :class:`SlotRef`
    (in a copy: statements are cached and shared across sessions, so the
    rewrite must never touch the original tree). The groups themselves are
    kept by column: ``groups`` maps a key to its group's number, in
    first-seen order, and each slot of the group row is one list — the
    first row's values, each call's states — so a group costs the
    collector its key at most, and the row is made only where something
    reads it whole.

    The per-row work — group key, group lookup, every call's accumulate
    step — is written into the fused loop that feeds the aggregate
    (:meth:`accumulate_lines`), and the per-group work — group row,
    HAVING, output values — is one generated function
    (:meth:`finalizer`), built from the shape on first use."""

    __slots__ = ("layout", "group_fns", "group_slots", "steps", "aggs",
                 "inits", "finishers", "target_fns", "target_slots", "having",
                 "loops", "_finalize")

    def __init__(self, select: A.Select, targets, layout: RowLayout):
        self.layout = layout
        # GROUP BY entries may be positional or alias references.
        group_exprs = [resolve_group_ref(g, targets) for g in select.group_by]
        self.group_fns = [get_compiled(g, layout) for g in group_exprs]
        #: Per GROUP BY entry: its slot when it is a plain column.
        self.group_slots = [slot_of(g, layout) for g in group_exprs]
        #: Per aggregate call, in slot order: ``(accumulate, star, argument
        #: slot, argument closures, FILTER closure, distinct)``, the
        #: aggregate, the state constructor, and ``partial`` or ``finalize``.
        self.steps: list[tuple] = []
        self.aggs: list = []
        self.inits: list = []
        self.finishers: list = []
        #: The fused loops that feed this aggregate (``_drain``).
        self.loops: dict = {}
        self._finalize: dict = {}
        lifted = [self.lift(t.expr.copy()) for t in targets]
        self.target_fns = [get_compiled(e, layout) for e in lifted]
        #: Per target: the group-row slot it reads when it is nothing else.
        self.target_slots = [slot_of(e, layout) for e in lifted]
        self.having = (get_compiled(self.lift(select.having.copy()), layout)
                       if select.having is not None else None)

    def lift(self, expr):
        """Replace the aggregate calls of ``expr`` (an expression this shape
        owns) by reads of their slots, registering each call."""
        def visit(node):
            if is_aggregate_call(node):
                self._register(node)
                return SlotRef(self.layout.width + len(self.steps) - 1)
            return node

        return transform_level(expr, visit)

    def _register(self, node: A.FuncCall) -> None:
        agg = get_aggregate(node.name)
        layout = self.layout
        star = len(node.args) == 1 and isinstance(node.args[0], A.Star)
        arg_fns = [] if star else [get_compiled(a, layout) for a in node.args]
        arg_slot = slot_of(node.args[0], layout) if len(arg_fns) == 1 else None
        keep = get_compiled(node.filter, layout) if node.filter is not None else None
        self.steps.append((agg.accumulate, star, arg_slot, arg_fns, keep,
                           bool(node.distinct)))
        self.aggs.append(agg)
        self.inits.append(agg.init)
        self.finishers.append(
            agg.partial if node.agg_phase == "partial" else agg.finalize)
        self._finalize.clear()

    def finalizer(self, as_rows: bool, keep: bool):
        """``finalize(count, firsts, states, ctx, out, kept)``, over the
        ``count`` groups in order (HAVING drops groups): each call's state
        column finished into its results; the output values appended to
        ``out`` — one list per group with ``as_rows``, else each to its
        column, a whole column at a time when no value needs the group row
        — and with ``keep`` the group row to ``kept``. Generated once the
        shape is complete (:meth:`lift` registers ORDER BY's calls after
        ``__init__``): identity finishers leave the state column as it is,
        slot targets are written out, the rest are calls from the loop."""
        run = self._finalize.get((as_rows, keep))
        if run is None:
            w = _Writer()
            run = self._finalize[as_rows, keep] = w.function(
                "count, firsts, states, ctx, out, kept",
                self._finalize_lines(w, as_rows, keep))
        return run

    def _finalize_lines(self, w: "_Writer", as_rows: bool, keep: bool) -> list:
        width = self.layout.width
        head = [f"first{c} = firsts[{c}]" for c in range(width)]
        for j, finisher in enumerate(self.finishers, 1):
            head.append(f"state{j} = states[{j - 1}]")
            if finisher is not _identity:
                head.append(f"state{j} = list(map("
                            f"{w.bind(finisher, 'finish')}, state{j}))")
        # The column each slot of the group row is read from.
        columns = ([f"first{c}" for c in range(width)]
                   + [f"state{j}" for j in range(1, len(self.finishers) + 1)])
        sources = [None if slot is None else columns[slot]
                   for slot in self.target_slots]
        uses_ctx = self.having is not None or None in sources
        if not (as_rows or keep or uses_ctx):
            # Every output is a group column or a call's results, whole.
            return head + [f"out[{c}].extend({column})"
                           for c, column in enumerate(sources)]
        body = []
        if uses_ctx or keep:
            body.append(f"row = [{', '.join(f'{column}[g]' for column in columns)}]")
        if uses_ctx:
            body.append("ctx.values = row")
        if self.having is not None:
            body += [f"if {w.bind(self.having, 'having')}(ctx) is not True:",
                     " continue"]
        outputs = [f"{w.bind(fn, 'target')}(ctx)" if column is None
                   else f"{column}[g]"
                   for fn, column in zip(self.target_fns, sources)]
        if as_rows:
            head.append("append = out.append")
            body.append(f"append([{', '.join(outputs)}])")
        else:
            head += _put_lines(len(outputs), "out")
            body += [f"put{c}({value})" for c, value in enumerate(outputs)]
        if keep:
            head.append("keep = kept.append")
            body.append("keep(row)")
        return [*head, "for g in range(count):", *_indent(body)]

    def head_lines(self) -> list:
        """What the fused loop reads off its ``out`` before the first row:
        the group map, DISTINCT's seen sets, and per group-row slot the
        column a new group appends to (a state column also by name)."""
        lines = ["groups, seen, firsts, states = out", "get = groups.get"]
        lines += [f"first{c} = firsts[{c}].append"
                  for c in range(self.layout.width)]
        for j in range(1, len(self.aggs) + 1):
            lines += [f"state{j} = states[{j - 1}]", f"new{j} = state{j}.append"]
        return lines

    def accumulate_lines(self, w: "_Writer") -> list:
        """The accumulate step over the fused loop's current row: fold it
        into group ``g`` (``groups``: key -> group number; a new group
        appends the row's values and each call's initial state to their
        columns; ``seen`` holds DISTINCT argument keys per (key, call)).
        Slot keys and ``inline`` aggregates are written out; FILTER,
        DISTINCT, expressions and other aggregates are calls from the
        loop."""
        body = []  # the step's statements, one indent unit = one space
        uses_ctx = False
        keys = []
        for i, (fn, slot) in enumerate(zip(self.group_fns, self.group_slots)):
            if slot is not None:
                body.append(f"k{i} = {w.read(slot)}")
            else:
                uses_ctx = True
                body.append(f"k{i} = {w.bind(fn, 'group')}(ctx)")
            body += [f"if type(k{i}) not in PLAIN:", f" k{i} = group_key(k{i})"]
            keys.append(f"k{i}")
        new = ["g = groups[key] = len(groups)"]
        new += [f"first{c}({w.read(c)})" for c in range(self.layout.width)]
        for j, agg in enumerate(self.aggs, 1):
            new.append(f"new{j}(" + (agg.inline[0] if agg.inline is not None
                                      else f"{w.bind(agg.init, 'init')}()") + ")")
        body += [f"key = {keys[0] if len(keys) == 1 else '(' + ', '.join(keys) + ')'}",
                 "g = get(key)", "if g is None:", *_indent(new)]
        for i, (step, agg) in enumerate(zip(self.steps, self.aggs), 1):
            accumulate, star, slot, arg_fns, keep, distinct = step
            state = f"state{i}[g]"
            args = ([f"{w.bind(fn, 'arg')}(ctx)" for fn in arg_fns]
                    if distinct or slot is None else [w.read(slot)])
            inline = ([line.format(s=state) for line in agg.inline[1]]
                      if agg.inline is not None else None)
            if star and inline is not None:
                # count(*): its statements do not read the argument.
                lines = inline if agg.name == "count" else ["v = STAR", *inline]
            elif star:
                lines = [f"{state} = {w.bind(accumulate, 'acc')}({state}, STAR)"]
            elif distinct:
                uses_ctx = True
                lines = [f"args = [{', '.join(args)}]",
                         "arg_key = tuple([group_key(v) for v in args])",
                         f"seen_args = seen.setdefault((key, {i}), set())",
                         "if arg_key not in seen_args:",
                         " seen_args.add(arg_key)",
                         f" {state} = {w.bind(accumulate, 'acc')}({state}, *args)"]
            elif len(args) == 1 and inline is not None:
                uses_ctx = uses_ctx or slot is None
                lines = [f"v = {args[0]}", "if v is not None:",
                         *(" " + line for line in inline)]
            else:
                uses_ctx = uses_ctx or slot is None
                lines = [f"{state} = {w.bind(accumulate, 'acc')}"
                         f"({', '.join([state, *args])})"]
            if keep is not None:
                uses_ctx = True
                lines = [f"if {w.bind(keep, 'keep')}(ctx) is True:",
                         *(" " + line for line in lines)]
            body += lines
        return [*w.point(self.layout), *body] if uses_ctx else body


class JoinShape:
    """One join of two relations: the concatenated layout, the condition
    (built here for USING and for equi-conjuncts picked out of a WHERE),
    and — when the condition equi-joins the sides — the hash keys compiled
    against each side's layout."""

    __slots__ = ("left", "right", "layout", "conditional", "qual",
                 "left_keys", "right_keys", "left_slot", "right_slot", "loops")

    def __init__(self, left: RowLayout, right: RowLayout, condition):
        self.left, self.right = left, right
        self.layout = left.join(right)
        #: The fused loops that end with this join's probe (``_drain``).
        self.loops: dict = {}
        self.conditional = condition is not None  # else: cross product
        self.qual = self.left_keys = self.right_keys = None
        self.left_slot = self.right_slot = None
        if condition is None:
            return
        equi, residual = _extract_equi_keys(condition, left.slots, right.slots)
        if equi is not None:
            left_exprs, right_exprs = equi
            self.left_keys = [get_compiled(k, left) for k in left_exprs]
            self.right_keys = [get_compiled(k, right) for k in right_exprs]
            if len(left_exprs) == 1:
                # One plain column equals another, the common case: both
                # sides key on the slot's value (never one side alone: the
                # general key is a tuple).
                slots = slot_of(left_exprs[0], left), slot_of(right_exprs[0], right)
                if None not in slots:
                    self.left_slot, self.right_slot = slots
        if equi is None or residual:
            # Matching hash keys already imply a condition made of nothing
            # but the key equalities; anything more is rechecked per pair.
            self.qual = get_compiled(condition, self.layout)


class DmlShape:
    """An UPDATE or DELETE: its target scan, the table's full-row
    :class:`WriteShape`, the assignment slots ``(column position, caster,
    compiled value)`` and the RETURNING list ``(output names, compiled
    targets)``."""

    __slots__ = ("scan", "write", "assignments", "probes_unique", "returning")

    def __init__(self, stmt, table: Table, write: "WriteShape"):
        self.scan = ScanShape(table, stmt.alias or stmt.table, stmt.where)
        self.write = write
        layout = self.scan.layout
        self.assignments = []
        for col_name, expr in getattr(stmt, "assignments", ()):
            idx = table.column_index(col_name)
            self.assignments.append(
                (idx, caster(table.columns[idx].type_name),
                 get_compiled(expr, layout)))
        assigned = {idx for idx, _cast, _fn in self.assignments}
        #: Whether an assignment writes a column some unique key reads:
        #: only then can an updated row collide.
        self.probes_unique = any(
            assigned.intersection(reads)
            for _cols, _key, _index, reads, _positions in write.unique_keys)
        self.returning = _compile_returning(stmt.returning, table, layout)


class InsertShape:
    """An INSERT's row-shaped parts: the :class:`WriteShape` of its column
    list, the RETURNING list over the new row, and the ON CONFLICT DO
    UPDATE assignments over ``existing + proposed`` values — unqualified
    and table-qualified names read the existing row, ``excluded.col`` the
    proposed one."""

    __slots__ = ("write", "layout", "returning", "conflict_layout",
                 "conflict_updates")

    def __init__(self, stmt: A.Insert, table: Table, write: "WriteShape"):
        self.write = write
        names = table.column_names()
        layout = self.layout = RowLayout.of(table.name, names)
        self.returning = _compile_returning(stmt.returning, table, layout)
        self.conflict_layout = None
        self.conflict_updates = []
        if stmt.on_conflict is not None and stmt.on_conflict.action != "nothing":
            slots = dict(layout.slots)
            for i, name in enumerate(names):
                slots[f"excluded.{name}"] = len(names) + i
            both = self.conflict_layout = RowLayout(
                layout.columns, slots, width=2 * len(names))
            for col_name, expr in stmt.on_conflict.updates:
                idx = table.column_index(col_name)
                self.conflict_updates.append(
                    (idx, caster(table.columns[idx].type_name),
                     get_compiled(expr, both)))


class WriteShape:
    """How rows that supply ``columns`` are written to ``table``: what
    INSERT, COPY, UPDATE and DELETE would otherwise look up per row,
    resolved once per (table, column list, catalog epoch), and the
    writers generated from it (DESIGN.md, "Write shapes"): :attr:`append`,
    the loop behind INSERT, COPY and ``insert_rows``; :attr:`update`, an
    UPDATE's new version; :attr:`delete`, a deleted version.

    Keys are read through ``key(values) -> list`` functions
    (:func:`index.row_key_fn`). Index *structures* are reached through
    their ``IndexDef`` at the start of each run: TRUNCATE swaps them
    without touching the catalog epoch.
    """

    __slots__ = ("table", "width", "not_null", "unique_keys", "indexes",
                 "foreign_keys", "referencing", "append", "update", "delete")

    def __init__(self, table: Table, columns, catalog):
        names = table.column_names()
        position: dict[str, int] = {}
        for i, name in enumerate(columns):
            if name not in names:
                raise CatalogError(
                    f"column {name!r} of relation {table.name!r} does not exist")
            if name in position:
                raise CatalogError(f"column {name!r} specified more than once")
            position[name] = i
        self.table = table
        #: Values an input row must have.
        self.width = len(columns)
        self.not_null = [(i, col.name) for i, col in enumerate(table.columns)
                         if col.not_null]

        def columns_key(owner: Table, cols):
            return row_key_fn(owner, [A.ColumnRef(c) for c in cols])

        #: ``(key's column names or expression texts, key function, the
        #: IndexDef candidates come from or None for a heap scan, column
        #: positions the key reads, its column positions when it is plain
        #: columns)``: the primary key, the unique constraints, then every
        #: other unique index — keyed by the index's own extractor, so
        #: expression indexes are enforced like the rest.
        self.unique_keys: list[tuple] = []

        def add_unique(cols, key, index, exprs):
            if any(known[0] == cols for known in self.unique_keys):
                return
            reads = frozenset(
                names.index(node.name) for expr in exprs for node in A.walk(expr)
                if isinstance(node, A.ColumnRef) and node.name in names)
            self.unique_keys.append(
                (cols, key, index, reads, _plain_positions(table, exprs)))

        for cols in (table.primary_key, *table.unique_constraints):
            if cols and all(c in names for c in cols):
                add_unique(list(cols), columns_key(table, cols),
                           _prefix_index(table, cols),
                           [A.ColumnRef(c) for c in cols])
        #: ``(IndexDef, key function)`` of every index.
        self.indexes: list[tuple] = []
        for index in table.indexes.values():
            key = index_key_fn(table, index)
            self.indexes.append((index, key))
            if index.unique:
                cols = [e.name if type(e) is A.ColumnRef
                        else _normalized_expr_text(e, table.name)
                        for e in index.exprs]
                add_unique(cols, key, None if index.method == "gin" else index,
                           index.exprs)
        #: Outgoing: ``(key function, referenced table's name, and — when
        #: it exists — the Table, its probe index, its key function)``.
        self.foreign_keys: list[tuple] = []
        for fk in table.foreign_keys:
            if not all(c in names for c in fk.columns):
                continue  # a missing column reads as NULL: never checked
            ref = catalog.tables.get(fk.ref_table)
            target = (None, None, None)
            if ref is not None:
                ref_cols = fk.ref_columns or ref.primary_key
                target = (ref, _prefix_index(ref, ref_cols),
                          columns_key(ref, ref_cols))
            self.foreign_keys.append(
                (columns_key(table, fk.columns), fk.ref_table, *target))
        #: Incoming (ON DELETE RESTRICT): ``(this table's referenced key,
        #: referencing Table, its probe index, its key function)``.
        self.referencing: list[tuple] = []
        for other in catalog.tables.values():
            for fk in other.foreign_keys:
                ref_cols = fk.ref_columns or table.primary_key
                if (fk.ref_table != table.name or not ref_cols
                        or not all(c in names for c in ref_cols)
                        or not all(other.has_column(c) for c in fk.columns)):
                    continue
                self.referencing.append(
                    (columns_key(table, ref_cols), other,
                     _prefix_index(other, fk.columns),
                     columns_key(other, fk.columns)))
        #: ``append(rows, command, xid, ctx, snapshot, xids, wal, resolve,
        #: emit, foreign-key check or None, catalog, stats, written tables)
        #: -> rows written``.
        self.append = _append_writer(self, position, catalog)
        #: ``update(old version, new row, xid, wal)``.
        self.update = _update_writer(self)
        #: ``delete(version, xid, wal)``.
        self.delete = _delete_writer(self)

    def check_not_null(self, full: list) -> None:
        for position, name in self.not_null:
            if full[position] is None:
                raise NotNullViolation(_not_null_message(name, self.table))

    def find_conflict(self, full: list, snapshot, xids, skip_row=None,
                      changed_from: list | None = None, written: bool = False):
        """``(visible tuple, key columns)`` of the first unique key on
        which ``full`` collides with a row other than ``skip_row``, else
        None. A key with a NULL in it never conflicts. With
        ``changed_from`` (the row's previous values, for UPDATE) only keys
        whose value changed are probed. A key another transaction is
        inserting waits for it (:func:`_unique_match`)."""
        table = self.table
        for cols, key_fn, index, _reads, _positions in self.unique_keys:
            key = key_fn(full)
            if None in key:
                continue
            if changed_from is not None and _same_keys(key_fn(changed_from), key):
                continue
            tup = _unique_match(table, index, key_fn, key, snapshot, xids,
                                skip_row, written)
            if tup is not None:
                return tup, cols
        return None

    def check_foreign_keys(self, full: list, catalog, snapshot, xids) -> None:
        for key_fn, ref_name, ref, index, ref_key_fn in self.foreign_keys:
            key = key_fn(full)
            if None in key:
                continue
            if ref is None:
                catalog.get_table(ref_name)  # raises: it does not exist
            if _first_match(ref, index, ref_key_fn, key, snapshot, xids) is None:
                raise ForeignKeyViolation(
                    f"insert on {self.table.name!r} violates foreign key"
                    f" to {ref_name!r}")

    def check_referencing(self, values: list, snapshot, xids) -> None:
        """ON DELETE RESTRICT semantics for incoming foreign keys."""
        for key_fn, other, index, other_key_fn in self.referencing:
            key = key_fn(values)
            if None in key:
                continue
            if _first_match(other, index, other_key_fn, key, snapshot, xids) is not None:
                raise ForeignKeyViolation(
                    f"row in {self.table.name!r} is still referenced"
                    f" from {other.name!r}")


def _not_null_message(name: str, table: Table) -> str:
    return f"null value in column {name!r} of relation {table.name!r}"


_DUPLICATE = "duplicate key value violates unique constraint on {!r}"


def width_error(command: str, got: int, width: int) -> DataError:
    """A row of ``got`` values where ``width`` are written: the COPY error,
    or INSERT's."""
    if command == "COPY":
        return DataError(f"COPY row has {got} values but {width} columns expected")
    return DataError(f"INSERT has {got} expressions but {width} target columns")


def _plain_positions(table: Table, exprs) -> list | None:
    """The column positions of ``exprs`` when each is a plain column of
    ``table`` (what :func:`index.row_key_fn` reads by position), else None."""
    if not all(type(e) is A.ColumnRef and e.table in (None, table.name)
               for e in exprs):
        return None
    return [table.column_index(e.name) for e in exprs]


# --------------------------------------------------------------------------
# the generated writers
# --------------------------------------------------------------------------
#
# A written row is one pass through text generated per WriteShape: the
# cells of the full row, NOT NULL, the unique and foreign-key probes, the
# heap version with its width, every index entry and the WAL record. An
# UPDATE's new version runs the same version, index and record lines.
# DESIGN.md, "Write shapes".


def _append_writer(shape: WriteShape, position: dict, catalog):
    table, w = shape.table, _Writer()
    cell = "c{}".format
    row_lines = _cell_lines(w, table, position, catalog)
    row_lines.append(f"row = ({''.join(cell(i) + ', ' for i in range(len(table.columns)))})")
    for i, name in shape.not_null:
        row_lines += [f"if c{i} is None:",
                      f" raise {w.bind(NotNullViolation, 'NotNull')}"
                      f"({w.bind(_not_null_message(name, table), 'message')})"]
    probed = set()  # indexes whose entry goes where the unique probe looked
    not_null = {i for i, _name in shape.not_null}
    for cols, key_fn, index, _reads, positions in shape.unique_keys:
        key, test = _key_lines(w, key_fn, positions, cell, not_null)
        conflict = [
            f"tup = {w.bind(_unique_match, 'unique_match')}({w.bind(table, 'table')},"
            f" {w.bind(index, 'index')}, {w.bind(key_fn, 'key')}, k, snapshot, xids,"
            " None, bool(count or appended))",
            "if tup is not None:",
            " if resolve is None:",
            f"  raise {w.bind(UniqueViolation, 'Unique')}"
            f"({w.bind(_DUPLICATE.format(table.name), 'message')})",
            f" if resolve(tup, {w.bind(cols, 'cols')}, row):",
            "  count += 1",
            " continue"]
        j = next((j for j, (known, _key) in enumerate(shape.indexes)
                  if known is index and index.method != "gin"
                  and len(index.exprs) == len(cols)), None)
        if j is None:
            row_lines += [*key, *_guarded(test, conflict)]
            continue
        # The key's own B-tree: the row's entry is made here — its tid is
        # the heap's next, since nothing before the version takes one —
        # and bisected once. It goes where that bisection ends unless a
        # candidate was fetched (and maybe killed) or a later probe removed
        # an entry (n<j>).
        probed.add(j)
        probe = [f"p{j} = {w.bind(bisect_left, 'bisect_left')}(e{j}, x{j})",
                 f"if p{j} and e{j}[p{j} - 1][0] == x{j}[0]:",
                 f" p{j} = -1", *_indent(conflict),
                 "else:", f" n{j} = len(e{j})"]
        row_lines += [*key, f"x{j} = ({w.bind(BTreeIndex.make_key, 'make_key')}(k),"
                            " heap._next_tid)",
                      *((f"p{j} = -1",) if test != "True" else ()),
                      *_guarded(test, probe)]
    fks = ["if fks is not None:", " fks(row, catalog, snapshot, xids)"]
    loop = [f"if len(values) != {shape.width}:",
            f" raise {w.bind(width_error, 'width_error')}"
            f"(command, len(values), {shape.width})",
            *row_lines, *fks,
            *_version_lines(w, shape, cell, "insert", probed),
            "appended += 1", "if emit is not None:", " emit(row)"]
    body = [*_prologue(w, shape), "count = appended = 0", "try:",
            " for values in rows:", *_indent(_indent(loop)),
            "finally:", " if appended:",
            f"  written.add({w.bind(table.name, 'name')})",
            "  stats['rows_written'] += appended",
            f"  stats['index_writes'] += appended * {len(shape.indexes)}",
            "return count + appended"]
    return w.function("rows, command, xid, ctx, snapshot, xids, wal, resolve,"
                      " emit, fks, catalog, stats, written", body)


def _guarded(test: str, lines: list) -> list:
    return lines if test == "True" else [f"if {test}:", *_indent(lines)]


def _update_writer(shape: WriteShape):
    w = _Writer()
    body = [*_prologue(w, shape), *_retire_lines("old"),
            *_version_lines(w, shape, "row[{}]".format, "update", set())]
    return w.function("old, row, xid, wal", body)


def _delete_writer(shape: WriteShape):
    w = _Writer()
    body = [*_prologue(w, shape, versions=False), *_retire_lines("tup"),
            *_record_lines(w, shape.table, "delete", "tup.row_id", None)]
    return w.function("tup, xid, wal", body)


def _prologue(w: "_Writer", shape: WriteShape, versions: bool = True) -> list:
    """What a run of the writer's lines reads once: the heap and the log,
    and to write versions the heap's containers and each index's structure
    (B-tree entries ``e<j>``, a GIN index ``d<j>``)."""
    lines = [f"heap = {w.bind(shape.table, 'table')}.heap",
             "log = wal._records.append"]
    if not versions:
        return lines
    lines += ["add_tuple = heap.tuples.append", "by_tid = heap._by_tid",
              "newest = heap._newest"]
    for j, (index, _key) in enumerate(shape.indexes):
        data = f"{w.bind(index, 'index')}.data"
        lines.append(f"d{j} = {data}" if index.method == "gin"
                     else f"e{j} = {data}._entries")
    return lines


def _retire_lines(version: str) -> list:
    """``version`` deleted by ``xid``: its xmax, and its bytes dead."""
    return [f"{version}.xmax = xid", "heap.dead_tuples += 1",
            f"heap.dead_bytes += {version}.width"]


def _record_lines(w: "_Writer", table: Table, kind: str, row_id: str,
                  stored: list | None) -> list:
    """The WAL record of one row change — ``stored`` its values (None for
    a delete) — and its bytes."""
    values = "".join(f", {value}" for value in stored or ())
    return ["lsn = wal._next_lsn", "wal._next_lsn = lsn + 1",
            f"log((lsn, xid, {kind!r}, {w.bind(table.name, 'name')}, {row_id}"
            f"{values}))",
            f"wal.bytes_written += "
            f"{row_record_bytes(table.name, None if stored is None else len(table.columns))}"]


def _cell_lines(w: "_Writer", table: Table, position: dict, catalog) -> list:
    """``c<i>`` per table column, in column order (a serial advances and
    a cast fails where it always did): the input value, cast unless it
    already has its column type's exact Python type; the next serial; the
    cast DEFAULT (evaluated under ``ctx``); or NULL."""
    lines = []
    for i, col in enumerate(table.columns):
        if col.name in position:
            lines += cast_lines(w, f"c{i}", f"values[{position[col.name]}]",
                                col.type_name)
        elif col.is_serial:
            sequence = catalog.get_sequence(f"{table.name}_{col.name}_seq")
            lines.append(f"c{i} = {w.bind(sequence.nextval, 'next')}()")
        elif col.default is not None:
            lines.append(f"c{i} = {w.bind(caster(col.type_name), 'cast')}"
                         f"({w.bind(get_compiled(col.default), 'default')}(ctx))")
        else:
            lines.append(f"c{i} = None")
    return lines


def cast_lines(w: "_Writer", var: str, value: str, type_name: str) -> list:
    """Statements setting ``var`` to ``value`` cast to ``type_name`` —
    ``datum.caster``'s rule written out: NULL and a value that already has
    the type's exact Python type stay as they are, anything else (every
    value of a type with no exact Python type) is cast."""
    cast = w.bind(caster(type_name), "cast")
    exact = exact_type(type_name)
    if exact is None:
        return [f"{var} = {cast}({value})"]
    return [f"{var} = {value}",
            f"if type({var}) is not {w.bind(exact, 'exact')} and {var} is not None:",
            f" {var} = {cast}({var})"]


def _key_lines(w: "_Writer", key_fn, positions, cell, not_null) -> tuple:
    """(statements setting ``k``, the key of the row being written, and
    the test that it holds no NULL — "True" when NOT NULL has made sure):
    the cells of a plain-column key, else its function's list."""
    if positions is None:
        return [f"k = {w.bind(key_fn, 'key')}(row)"], "None not in k"
    tests = [f"{cell(p)} is not None" for p in positions if p not in not_null]
    return ([f"k = ({', '.join(cell(p) for p in positions)},)"],
            " and ".join(tests) or "True")


def _version_lines(w: "_Writer", shape: WriteShape, cell, kind: str,
                   probed: set) -> list:
    """``row`` (cells ``cell(i)``) as a heap version — tid, row id,
    chain, width, ``live_bytes`` —, its entry in every index and its WAL
    record. An ``insert`` follows NOT NULL, so a NOT NULL cell holds a
    value; an index in ``probed`` has its entry ``x<j>`` and, when ``p<j>``
    is not -1, the place the unique probe found for it."""
    table = shape.table
    lines = ["tid = heap._next_tid", "heap._next_tid = tid + 1"]
    if kind == "insert":
        lines += ["row_id = heap._next_row_id", "heap._next_row_id = row_id + 1",
                  "older = None"]  # a fresh row id has no chain
    else:
        lines += ["row_id = old.row_id", "older = newest.get(row_id)"]
    fixed, terms, stored = TUPLE_OVERHEAD, [], []
    for i, col in enumerate(table.columns):
        c, rule = cell(i), VALUE_WIDTHS.get(exact_type(col.type_name))
        known = kind == "insert" and col.not_null
        form = stored_form(col.type_name)
        stored.append(c if form is None else f"s{i}")
        if form is not None:
            # A json / array value is serialised once: the record stores
            # the text its width is measured from.
            lines.append(f"s{i} = {w.bind(form, 'stored')}({c})")
            terms.append(f"{w.bind(stored_width, 'width')}({c}, s{i})")
        elif rule is None:
            terms.append(f"{w.bind(_value_width, 'width')}({c})")
        elif rule == LENGTH:
            terms.append(f"len({c}) + 4" if known
                         else f"(len({c}) + 4 if {c} is not None else 1)")
        elif known or rule == 1:
            fixed += rule
        else:
            terms.append(f"({rule} if {c} is not None else 1)")
    lines += [f"width = {' + '.join([str(fixed), *terms])}",
              f"tup = {w.bind(HeapTuple, 'Tuple')}"
              "(tid, row_id, row, xid, None, older, width)",
              "add_tuple(tup)", "by_tid[tid] = tup", "newest[row_id] = tup",
              "heap.live_bytes += width"]
    insort_ = w.bind(insort, "insort")
    for j, (index, key_fn) in enumerate(shape.indexes):
        positions = _plain_positions(table, index.exprs)
        if index.method == "gin":
            value = (cell(positions[0]) if positions is not None
                     else f"{w.bind(key_fn, 'key')}(row)[0]")
            lines.append(f"d{j}.insert({value}, tid)")
        elif j in probed:
            lines += [f"if p{j} >= 0 and len(e{j}) == n{j}:",
                      f" e{j}.insert(p{j}, x{j})",
                      "else:", f" {insort_}(e{j}, x{j})"]
        else:
            key = (f"({', '.join(cell(p) for p in positions)},)"
                   if positions is not None else f"{w.bind(key_fn, 'key')}(row)")
            lines.append(f"{insort_}(e{j}, ({w.bind(BTreeIndex.make_key, 'make_key')}"
                         f"({key}), tid))")
    if stored == [cell(i) for i in range(len(stored))]:
        stored = ["*row"]
    return lines + _record_lines(w, table, kind, "row_id", stored)


@functools.lru_cache(maxsize=512)
def _factory(source: str):
    """The ``factory`` that ``source`` defines, exec'd once per text: the
    values a shape binds are its arguments, never part of the text."""
    env = {"PLAIN": _PLAIN_KEYS, "group_key": _group_key, "NONE": (),
           "STAR": _STAR, **INLINE_ENV}
    exec(source, env)  # noqa: S102 - source is assembled from shape facts only
    return env["factory"]


class _Writer:
    """One generated function under construction: the values its text
    names (:meth:`bind`), and the variables the current row is spread over."""

    def __init__(self, joins: bool = False):
        self.names: list[str] = []
        self.values: list = []
        self._bound: dict = {}
        #: ``[variable, width]`` per part of the current row, in layout order.
        self.parts: list = []
        #: Closures read more than one layout: each call names its own.
        self.joins = joins
        self.layout = EMPTY_LAYOUT

    def bind(self, value, prefix: str) -> str:
        name = self._bound.get(id(value))
        if name is None:
            name = self._bound[id(value)] = f"{prefix}_{len(self.names)}"
            self.names.append(name)
            self.values.append(value)
        return name

    def read(self, slot: int) -> str:
        """The expression reading ``slot`` of the current row."""
        for var, width in self.parts:
            if slot < width or var == self.parts[-1][0]:
                return f"{var}[{slot}]"
            slot -= width

    def row(self) -> str:
        """The expression making the current row one sequence: a part as it
        is, parts joined into one list (a stored version's values are a
        tuple, a row made elsewhere may be a list)."""
        if len(self.parts) == 1:
            return self.parts[0][0]
        return f"[{', '.join(f'*{var}' for var, _width in self.parts)}]"

    def point(self, layout: RowLayout) -> list:
        """Statements pointing ``ctx`` at the current row, of ``layout``."""
        lines = [f"ctx.values = {self.row()}"]
        if self.joins:
            lines.append(f"ctx.layout = {self.bind(layout, 'layout')}")
        return lines

    def function(self, signature: str, body: list):
        """The function ``body`` makes, bound to this writer's values."""
        source = "\n".join([f"def factory({', '.join(self.names)}):",
                            f" def run({signature}):",
                            *("  " + line for line in body),
                            " return run"])
        return _factory(source)(*self.values)


#: ``heap._visible`` written into a loop over heap tuples.
_VISIBLE = ("x = tup.xmin", "vis = verdicts.get(x)", "if vis is None:",
            " vis = verdicts[x] = sees(x, clog)", "if not vis:", " continue",
            "x = tup.xmax", "if x is not None:", " vis = verdicts.get(x)",
            " if vis is None:", "  vis = verdicts[x] = sees(x, clog)",
            " if vis:", "  continue", "scanned += 1")


def _indent(lines) -> list:
    return [" " + line for line in lines]


def _write_loop(stream: Stream, where: WhereShape | None, sink):
    """``run(source, ctx, visibility, consts, builds, out)``: one stream
    through WHERE into a sink — ``rows``, ``targets`` (heap tuples),
    ``("columns", BoundSelect)`` (each target into its column, and the input
    row when the select reads it again), ``("out_rows", BoundSelect)`` (the
    same with one list per output row), ``("agg", AggShape)`` or
    ``("cursor", BoundSelect, has OFFSET)`` (columns, ``n`` rows at most).
    Returns the tuples it saw visible and the hash-join rows it made (a
    cursor: the rows still to skip and the rows it fell short of ``n``).
    DESIGN.md, "Fused worker loops"."""
    tag = sink if type(sink) is str else sink[0]
    w = _Writer(bool(stream.stages))
    w.layout = stream.layout  # of the rows WHERE and the sink read
    body = []
    if stream.kind == "heap":
        body.append("verdicts, sees, clog = visibility")
    if where is not None and where.inline:
        body.append(", ".join(f"c{i}, t{i}" for i in range(len(where.inline)))
                    + " = consts")
    for j in range(len(stream.stages)):
        body.append(f"h{j}, r{j}, s{j} = builds[{j}]")
    if tag == "agg":
        body += sink[1].head_lines()
    elif tag == "cursor":
        body += ["columns, n, skip = out", *_put_lines(len(sink[1].target_fns))]
    elif tag == "columns":
        body += ["columns, inputs = out", *_put_lines(len(sink[1].target_fns))]
    elif tag == "out_rows":
        body += ["rows, inputs = out", "append = rows.append"]
    else:
        body.append("append = out.append")
    if tag in ("columns", "out_rows") and sink[1].keeps_inputs:
        body.append("keep = inputs.append")
    body.append("scanned = joined = 0")
    if stream.kind == "rows":
        body.append("for row in source:")
    else:
        body += ["for tup in source:",
                 *_indent(_VISIBLE if stream.kind == "heap" else ()),
                 " row = [*tup.values, tup]" if stream.locking else " row = tup.values"]
    w.parts = [["row", stream.width]]
    tails = []  # (stage, the row's parts before it): FULL JOIN remainders
    body += _indent(_downstream(w, stream.stages, 0, where, sink, tails))
    for j, parts in tails:
        # The build rows no probe matched, with NULLs for the probe side.
        w.parts = [*parts, [f"b{j}", stream.stages[j][0].right.width]]
        body += [f"for b{j} in r{j}:",
                 f" if id(b{j}) in s{j}:",
                 "  continue",
                 *(f" {var} = {w.bind([None] * width, 'nulls')}"
                   for var, width in parts),
                 *((" joined += 1",) if stream.stages[j][0].left_keys else ()),
                 *_indent(_downstream(w, stream.stages, j + 1, where, sink, []))]
    body.append(f"return scanned, {'(skip, n)' if tag == 'cursor' else 'joined'}")
    return w.function("source, ctx, visibility, consts, builds, out", body)


def _downstream(w: _Writer, stages, j: int, where, sink, tails) -> list:
    """The loop body from join stage ``j`` on, then WHERE, then the sink."""
    if j == len(stages):
        return _where_lines(w, where) + _sink_lines(w, sink)
    shape, join_type, stream_left = stages[j]
    slot = shape.left_slot if stream_left else shape.right_slot
    hashed = shape.left_keys is not None
    if not hashed:  # a nested loop: every build row is a candidate
        lines = [f"m{j} = r{j}"]
    elif slot is not None:
        lines = [f"k = {w.read(slot)}", "if type(k) not in PLAIN:", " k = group_key(k)"]
    else:
        lines = w.point(shape.left if stream_left else shape.right)
        keys = [f"group_key({w.bind(fn, 'key')}(ctx))"
                for fn in (shape.left_keys if stream_left else shape.right_keys)]
        lines += [f"k = ({', '.join(keys)},)", "if None in k:", " k = None"]
    if hashed:
        lines.append(f"m{j} = h{j}.get(k, NONE)")
    parts = w.parts
    width = shape.right.width if stream_left else shape.left.width

    def joined(var):
        return [*parts, [var, width]] if stream_left else [[var, width], *parts]

    if shape.qual is not None:
        w.parts = joined("b")
        lines += ["hits = []", f"for b in m{j}:",
                  *_indent(w.point(shape.layout)),
                  f" if {w.bind(shape.qual, 'qual')}(ctx) is True:",
                  "  hits.append(b)",
                  f"m{j} = hits"]
    if join_type == "full":
        lines += [f"for b in m{j}:", f" s{j}.add(id(b))"]
        tails.append((j, parts))
    if join_type in ("left", "right", "full"):
        lines += [f"if not m{j}:", f" m{j} = {w.bind([[None] * width], 'nulls')}"]
    w.parts = joined(f"b{j}")
    inner = _downstream(w, stages, j + 1, where, sink, tails)
    w.parts = parts
    # join_rows counts what hash joins make.
    return [*lines, f"for b{j} in m{j}:", *((" joined += 1",) if hashed else ()),
            *_indent(inner)]


def _where_lines(w: _Writer, where: WhereShape | None, i: int = 0) -> list:
    """WHERE: the written-out tests from the ``i``-th on, nested one in
    the other, each falling back to the whole clause, then the rest of the
    clause."""
    if where is None:
        return []
    if i == len(where.inline):
        return _decide_lines(w, where.rest) if where.rest is not None else []
    slot, negated, _constant = where.inline[i]
    return [f"v = {w.read(slot)}", f"if type(v) is t{i}:",
            f" if v {negated} c{i}:", "  continue",
            *_indent(_where_lines(w, where, i + 1)), "else:",
            *_indent(_decide_lines(w, where.full))]


def _decide_lines(w: _Writer, fn) -> list:
    """Skip the row unless the compiled clause ``fn`` is true of it."""
    return [*w.point(w.layout), f"if {w.bind(fn, 'where')}(ctx) is not True:",
            " continue"]


def _sink_lines(w: _Writer, sink) -> list:
    if sink == "rows":
        return [f"append({w.row()})"]
    if sink == "targets":
        return ["append(tup)"]
    if sink[0] == "agg":
        return sink[1].accumulate_lines(w)
    bound, lines, parts = sink[1], [], w.parts
    keep = sink[0] != "cursor" and bound.keeps_inputs
    if len(parts) > 1 and (keep or None in bound.target_slots):
        # One list for the closures and the input row kept.
        lines.append(f"merged = {w.row()}")
        w.parts = [["merged", bound.layout.width]]
    cells = [w.read(slot) if slot is not None else f"{w.bind(fn, 'target')}(ctx)"
             for fn, slot in zip(bound.target_fns, bound.target_slots)]
    if None in bound.target_slots:
        lines += w.point(bound.layout)
    if sink[0] == "out_rows":
        lines.append(f"append([{', '.join(cells)}])")
    else:  # columns, cursor
        if sink[0] == "cursor" and sink[2]:
            lines += ["if skip:", " skip -= 1", " continue"]
        lines += [f"put{c}({cell})" for c, cell in enumerate(cells)]
    row, w.parts = w.row(), parts
    if sink[0] == "cursor":
        return [*lines, "n -= 1", "if not n:", " break"]
    return [*lines, *((f"keep({row})",) if keep else ())]


def _put_lines(width: int, columns: str = "columns") -> list:
    """Name each output column's ``append``: ``put0``, ``put1``, …"""
    return [f"put{c} = {columns}[{c}].append" for c in range(width)]


def _prefix_index(table: Table, cols):
    """The first non-GIN index whose leading plain columns are ``cols``:
    where candidates for a key on those columns come from."""
    for index in table.indexes.values():
        if index.method == "gin" or index.data is None:
            continue
        leading = []
        for expr in index.exprs:
            if not isinstance(expr, A.ColumnRef):
                break
            leading.append(expr.name)
        if leading[: len(cols)] == list(cols):
            return index
    return None


def _same_keys(existing: list, key: list) -> bool:
    """Whether a stored row's key equals ``key`` (which holds no NULL)."""
    for e, v in zip(existing, key):
        if e is None:
            return False
        kind = type(e)
        if (e != v if kind is type(v) and (kind is int or kind is str)
                else compare_values(e, v) != 0):
            return False
    return True


def _fetch_candidates(table: Table, index, tids: list, snapshot, xids) -> list:
    """The tuples of ``table`` visible to ``snapshot`` among ``tids``, the
    candidates ``index`` (an IndexDef) named: indexes are not MVCC-aware,
    so visibility is rechecked at the heap. Every consumer of index
    candidates comes through here.

    When most of the candidates turned out invisible, those that are dead
    to every snapshot (``Heap.is_dead`` under ``xids.horizon()``) lose
    their entry in ``index``, so the next probe of the key does not fetch
    and recheck them again — PostgreSQL's ``kill_prior_tuple``. Only the
    index shrinks: the heap versions, their chains and every byte and page
    count stay VACUUM's business (DESIGN.md, "Index entries die on access;
    one horizon")."""
    heap = table.heap
    clog = xids.clog
    visible = list(heap.fetch(tids, snapshot, clog))
    if 2 * len(visible) < len(tids):
        horizon = xids.horizon()
        for tup in filter(None, map(heap.get, tids)):
            if heap.is_dead(tup, horizon, clog):
                index_delete(table, index, tup)
    return visible


def _first_match(table: Table, index, key_fn, key: list, snapshot, xids,
                 skip_row=None):
    """The first tuple of ``table`` visible to ``snapshot`` whose key
    equals ``key``, not counting versions of row ``skip_row``. Candidates
    come from ``index`` (an IndexDef over a prefix of the key) or, without
    one, from a heap scan."""
    if index is not None and index.data is not None:
        candidates = _fetch_candidates(
            table, index, index.data.scan_equal(key), snapshot, xids)
    else:
        candidates = table.heap.scan(snapshot, xids.clog)
    for tup in candidates:
        if tup.row_id != skip_row and _same_keys(key_fn(tup.values), key):
            return tup
    return None


def _unique_match(table: Table, index, key_fn, key: list, snapshot, xids,
                  skip_row=None, written: bool = False):
    """:func:`_first_match` for a unique key. When no visible version has
    ``key`` but a version some other transaction is still inserting (or has
    prepared) has, the probe waits for that inserter, as a row lock waits
    for its holder: ``WouldBlock`` on its xid, so the statement parks or,
    run synchronously, times out, and probes again from scratch once the
    inserter has ended — a committed one is then a duplicate. A statement
    that has ``written`` rows already cannot run again from scratch: it
    fails with ``LockTimeout``, which aborts its transaction."""
    tup = _first_match(table, index, key_fn, key, snapshot, xids, skip_row)
    if tup is not None or index is None or index.data is None:
        return tup
    heap, status, own = table.heap, xids.clog.status, snapshot.own_xid
    for tid in index.data.scan_equal(key):
        version = heap.get(tid)
        if (version is not None and version.xmin != own
                and status(version.xmin) in (IN_PROGRESS, PREPARED)
                and version.row_id != skip_row
                and _same_keys(key_fn(version.values), key)):
            if written:
                raise LockTimeout(
                    f"could not wait for transaction {version.xmin} inserting"
                    f" the same key into {table.name!r}")
            raise WouldBlock(("transactionid", version.xmin), {version.xmin},
                             "ShareLock")
    return None


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


class _Subqueries:
    """An executor's subquery callback for one params object: uncorrelated
    subqueries execute once (PostgreSQL's InitPlan), correlated ones re-run
    per outer row. The executor keeps it, so it reaches the executor through
    a weak proxy — a strong reference would make every executor a reference
    cycle, left for the collector after its statement."""

    __slots__ = ("executor", "params")

    def __init__(self, executor: "LocalExecutor", params):
        self.executor = weakref.proxy(executor)
        self.params = params

    def __call__(self, select: A.Select, outer_ctx: EvalContext):
        executor, params, key = self.executor, self.params, id(select)
        cache = executor._subquery_cache
        if key in cache:
            return cache[key]
        ctes = executor._cte_env
        if key in executor._correlated_subqueries:
            return executor.execute_select(select, params, outer_ctx, ctes).rows
        try:
            rows = executor.execute_select(select, params, None, ctes).rows
        except CatalogError:
            executor._correlated_subqueries.add(key)
            return executor.execute_select(select, params, outer_ctx, ctes).rows
        cache[key] = rows
        return rows


class LocalExecutor:
    """Executes statements against one instance's catalog and storage."""

    def __init__(self, session):
        self.session = session
        self.instance = session.instance
        self.catalog = session.instance.catalog
        self._subquery_cache: dict[int, list] = {}
        self._correlated_subqueries: set[int] = set()
        # The subquery callback handed to every EvalContext, built once per
        # params object rather than once per row.
        self._subquery_run: _Subqueries | None = None
        #: The CTEs in scope of the SELECT being executed: its subqueries
        #: read them, as its FROM items do.
        self._cte_env: dict | None = None

    # ------------------------------------------------------------ helpers

    def _ctx(self, layout: RowLayout, params,
             outer: EvalContext | None = None) -> EvalContext:
        """A context for one loop over rows of ``layout``; the loop points
        ``ctx.values`` at each row in turn."""
        run = self._subquery_run
        if run is None or params is not run.params:
            run = self._subquery_run = _Subqueries(self, params)
        ctx = EvalContext(None, params, self.session, run, outer)
        ctx.layout = layout
        return ctx

    def _prepared(self, node, build):
        """``node``'s prepared shape under the current catalog state."""
        return get_prepared(node, self.catalog.epoch, build)

    def _select_shape(self, select: A.Select) -> SelectShape:
        return self._prepared(select, lambda: SelectShape(select))

    # ------------------------------------------------------------- SELECT

    def execute_select(self, select: A.Select, params, outer: EvalContext | None = None,
                       cte_env: dict | None = None) -> QueryResult:
        """A SELECT's result, its rows made at this edge."""
        return self._select(select, params, outer, cte_env, True)

    def execute_select_columns(self, select: A.Select, params) -> tuple:
        """A SELECT's output names and its rows as a column :class:`Batch`."""
        return self._select(select, params, None, None, False)

    def _select(self, select, params, outer, cte_env, as_rows: bool):
        """The result as a QueryResult, or (``as_rows`` False) as its output
        names and a column :class:`Batch`."""
        telemetry = self.instance.telemetry
        if telemetry is None or telemetry.traced is None:
            return self._execute_select_impl(select, params, outer, cte_env, as_rows)
        # Inside a statement whose spans are kept (or an EXPLAIN ANALYZE
        # capture), each engine-level select — the coordinator merge query,
        # local-tier statements, InitPlans — shows up as its own span.
        span = telemetry.enter("select", "engine", self.instance.name)
        rows = None
        try:
            result = self._execute_select_impl(select, params, outer, cte_env,
                                               as_rows)
            rows = len(result.rows if as_rows else result[1])
            return result
        finally:
            telemetry.exit(span, rows)

    def _execute_select_impl(self, select: A.Select, params, outer, cte_env,
                             as_rows: bool):
        shape = self._select_shape(select)
        if as_rows and shape.single and not cte_env:
            result = self._point_select(select, shape, params, outer)
            if result is not None:
                return result
        cte_env = dict(cte_env or {})
        enclosing, self._cte_env = self._cte_env, cte_env
        for cte in select.ctes:
            sub = self.execute_select(cte.query, params, outer=outer, cte_env=cte_env)
            names = cte.column_names or sub.columns
            cte_env[cte.name] = (names, sub.rows)

        # The output — rows for a QueryResult, columns for a cursor's batch —
        # and per output row the input row it was made from (None: nothing
        # reads it): ORDER BY, DISTINCT ON and FOR UPDATE may still need
        # it. Each step below narrows or permutes ``order``; the output is
        # permuted once, at the end.
        bound, out, inputs, count = self._run_select_core(
            select, shape, params, outer, cte_env, as_rows)

        if select.set_ops and select.for_update:
            raise DataError("FOR UPDATE is not allowed with UNION/INTERSECT/EXCEPT")
        if select.set_ops:
            rows = out if as_rows else Batch(out, count).rows()
            for op, rhs in select.set_ops:
                rhs_result = self.execute_select(rhs, params, outer=outer,
                                                 cte_env=cte_env)
                rows = _apply_set_op(op, rows, rhs_result.rows)
            out = rows if as_rows else Batch.of_rows(rows, len(bound.columns)).columns
            inputs, count = None, len(rows)

        order = None  # the rows kept, in output order; None: all, as made
        offset, limit = 0, None
        if select.offset is not None or select.limit is not None:
            offset, limit = limit_offset(select, self._ctx(EMPTY_LAYOUT, params, outer))
        if select.order_by:
            # With a LIMIT only the rows it keeps need ordering (DISTINCT,
            # which thins the order out afterwards, and FOR UPDATE keep the
            # full sort).
            top = (offset + limit if limit is not None
                   and not (select.distinct or select.for_update) else None)
            order = self._sort_order(out, as_rows, inputs, count, bound, params,
                                     outer, top)
        if select.distinct:
            order = self._distinct_order(out, as_rows, inputs, count, order,
                                         bound, params, outer)
        if offset or limit is not None:
            order = (order if order is not None else range(count))[
                offset:None if limit is None else offset + limit]
        if order is not None:
            count = len(order)
            out = (list(map(out.__getitem__, order)) if as_rows
                   else [list(map(column.__getitem__, order)) for column in out])
            if inputs is not None:
                inputs = list(map(inputs.__getitem__, order))
        if select.for_update:
            self._lock_rows_for_update(inputs, bound.layout)
        self._cte_env = enclosing
        if as_rows:
            return QueryResult(bound.columns, out)
        return bound.columns, Batch(out, count)

    # ------------------------------------------------------ cursor SELECT

    def execute_cursor(self, select: A.Select, params,
                       outer: EvalContext | None = None,
                       cte_env: dict | None = None) -> EngineCursor:
        """Pull-based SELECT execution.

        Simple single-relation pipelines (scan → filter → project →
        offset/limit) stream genuinely lazily, stopping the heap scan as
        soon as a LIMIT is satisfied. Anything that needs a blocking
        operator (sort, grouping, DISTINCT, joins, set ops, windows, CTEs)
        runs to its columns first — the cursor then hands them out a slice
        at a time, exactly like a Sort node feeding a portal.
        """
        if cte_env is None and self._cursor_streamable(select):
            return self._scan_cursor(select, params, outer)
        return EngineCursor.over(*self._select(select, params, outer, cte_env, False))

    def _cursor_streamable(self, select: A.Select) -> bool:
        if not self._select_shape(select).streamable:
            return False
        name = select.from_items[0].name
        return (name not in self.session.temp_results
                and self.catalog.tables.get(name) is not None)

    def _scan_cursor(self, select: A.Select, params, outer) -> EngineCursor:
        """A lazy scan: each fetch resumes the fused loop where the last one
        stopped and charges what it scanned — a sequential scan one page up
        front, then one per tuples-per-page tuples — so a LIMIT or an early
        ``close()`` pays for what was read. The first fetch opens it."""
        ref = select.from_items[0]
        table = self.catalog.get_table(ref.name)
        self.session.acquire_table_lock(table.name, "AccessShare")
        scan = self._scan_shape(ref, table, select.where)
        bound = self._select_shape(select).bound(scan.layout)
        ctx = self._ctx(scan.layout, params, outer)
        skip, left = limit_offset(select, ctx)  # left: rows LIMIT still allows
        snapshot = self.session.snapshot()
        stats = self.session.stats
        sink = ("cursor", bound, select.offset is not None)
        stream = run = consts = None
        seen = per_page = 0

        def pull(n):
            nonlocal stream, run, consts, skip, left, seen, per_page
            want = n if left is None else min(n, left)
            columns = [[] for _ in bound.columns]
            if want <= 0:
                return Batch(columns, 0)
            if stream is None:
                stream = self._open_scan(table, scan, params, outer, snapshot)
                heap = stream.heap
                if heap is not None:
                    per_page = max(1, len(heap.tuples) // max(heap.page_count, 1))
                    stats["pages_read"] += 1
                stream.source = iter(stream.source)
                run = self._loop(bound, stream, bound.where, sink)
                consts = bound.where.constants(params) if bound.where else ()
            scanned, (skip, short) = run(stream.source, ctx, stream.visibility,
                                         consts, (), (columns, want, skip))
            if scanned:
                stats["tuples_scanned"] += scanned
                stats["pages_read"] += (seen + scanned) // per_page - seen // per_page
                seen += scanned
            if left is not None:
                left -= want - short
            return Batch(columns, want - short)

        return EngineCursor(bound.columns, pull, snapshot=snapshot)

    def _point_select(self, select: A.Select, shape: SelectShape, params,
                      outer) -> QueryResult | None:
        """A scan and a projection whose scan is a point shape, from the
        table lock to the output rows in one step (:meth:`_point_rows`, then
        the targets). None — nothing done — when the scan is no point shape
        or this execution's key is incomplete."""
        ref = select.from_items[0]
        point = shape.point
        if point is None:
            table = self.catalog.tables.get(ref.name)
            scan = table and self._scan_shape(ref, table, select.where)
            point = shape.point = scan is not None and scan.point is not None and (
                table, scan, shape.bound(scan.layout))
        if not point or ref.name in self.session.temp_results:
            return None
        table, scan, bound = point
        ctx = self._ctx(scan.layout, params, outer)
        key = scan.point_key(ctx)
        if key is None:
            return None
        self.session.acquire_table_lock(table.name, "AccessShare")
        targets, rows = bound.target_fns, []
        for tup in self._point_rows(table, scan, key, ctx):
            ctx.values = tup.values
            rows.append([fn(ctx) for fn in targets])
        return QueryResult(bound.columns, rows)

    def _run_select_core(self, select, shape: SelectShape, params, outer,
                         cte_env, as_rows: bool):
        """FROM → WHERE → (windows | aggregation) → projection, as one
        fused loop. Returns the select bound to its input layout, the output
        as rows or as columns, the input row of each output row (None when
        nothing reads them again; a group's row after aggregation) and the
        number of rows."""
        if shape.has_windows and shape.aggregates:
            raise DataError(
                "window functions combined with aggregation are not supported"
            )
        stream = self._resolve_from(select, shape, params, outer, cte_env)
        bound = shape.bound(stream.layout)
        ctx = self._ctx(stream.layout, params, outer)
        if bound.agg is not None:
            out, groups = self._aggregate(bound.agg, stream, ctx, bound.where,
                                          as_rows, bound.keeps_inputs)
            count = len(out) if as_rows else len(out[0]) if out else len(groups)
            return bound, out, groups, count
        where = bound.where
        if bound.window_calls:
            rows = self._drain(stream, bound, "rows", ctx, where)
            results = [compute_window_values(call, rows, ctx)
                       for call in bound.window_calls]
            width = stream.layout.width
            stream = Stream.of(stream.layout, [
                (*values[:width], *extra)
                for values, extra in zip(rows, zip(*results))])
            where = None
        inputs = [] if bound.keeps_inputs else None
        if as_rows:
            rows = self._drain(stream, bound, ("out_rows", bound), ctx, where,
                               ([], inputs))[0]
            return bound, rows, inputs, len(rows)
        columns = [[] for _ in bound.target_fns]
        self._drain(stream, bound, ("columns", bound), ctx, where, (columns, inputs))
        return bound, columns, inputs, len(columns[0]) if columns else 0

    def _loop(self, anchor, stream: Stream, where, sink):
        """The fused loop of ``stream`` through ``where`` into ``sink``,
        kept on ``anchor``, whose layout fixes the loop but for the source."""
        key = (stream.kind, stream.locking, sink if type(sink) is str else sink[0],
               where is not None)
        run = anchor.loops.get(key)
        if run is None:
            run = anchor.loops[key] = _write_loop(stream, where, sink)
        return run

    def _drain(self, stream: Stream, anchor, sink, ctx, where=None, out=None):
        """Run ``stream`` through ``where`` into ``sink`` and charge, once,
        what it read: a sequential scan its visible tuples and every page."""
        if out is None:
            out = []
        run = self._loop(anchor, stream, where, sink)
        consts = where.constants(ctx.params) if where is not None else ()
        scanned, joined = run(stream.source, ctx, stream.visibility, consts,
                              stream.builds, out)
        stats = self.session.stats
        if stream.heap is not None:
            stats["tuples_scanned"] += scanned
            stats["pages_read"] += stream.heap.page_count
        if stream.stages:
            stats["join_rows"] += joined
            ctx.layout = stream.layout  # the loop pointed it at each closure's
        return out

    # -------------------------------------------------------- aggregation

    def _aggregate(self, agg: AggShape, stream: Stream, ctx: EvalContext,
                   where=None, as_rows: bool = True, keep: bool = True) -> tuple:
        """Hash aggregation of ``stream`` through ``where``, accumulated
        in its loop: the groups' outputs — rows, or columns — and with
        ``keep`` their group rows (else None), in first-seen group order."""
        # key -> group number; per group-row slot, its column (AggShape).
        groups: dict = {}
        firsts = [[] for _ in range(agg.layout.width)]
        states = [[] for _ in agg.inits]
        self._drain(stream, agg, ("agg", agg), ctx, where,
                    (groups, {}, firsts, states))
        if not groups and not agg.group_fns:
            # Aggregate over empty input: one row of aggregate defaults.
            groups[()] = 0
            for column in firsts:
                column.append(None)
            for column, init in zip(states, agg.inits):
                column.append(init())
        out = [] if as_rows else [[] for _ in agg.target_fns]
        kept = [] if keep else None
        agg.finalizer(as_rows, keep)(len(groups), firsts, states, ctx, out, kept)
        return out, kept

    # ------------------------------------------------------------ sorting

    def _sort_order(self, out, as_rows: bool, inputs, count: int,
                    bound: BoundSelect, params, outer,
                    top: int | None = None) -> list:
        """ORDER BY over ``out`` (rows, or columns): the positions of the rows
        in output order. With ``top`` below the number of rows, only the
        first ``top`` of them: ``heapq.nsmallest`` over each row's keys
        followed by its position, so ties keep their input order as a
        stable sort keeps them. Otherwise one stable sort per key, last key
        first."""
        bounded = top is not None and top < count
        ctx = None
        keyed = []  # (keys, descending), last ORDER BY key first
        for source, arg, descending, key in reversed(bound.sort_keys):
            if source is _OUT:
                column = [row[arg] for row in out] if as_rows else out[arg]
            elif source is _IN:
                column = [row[arg] for row in inputs]
            else:
                if ctx is None:
                    ctx = self._ctx(bound.scope, params, outer)
                column = []
                for row in inputs if inputs is not None else [None] * count:
                    ctx.values = row
                    column.append(arg(ctx))
            # Plain ints / strs are their own keys (datum.plain_sort_type).
            if plain_sort_type(column) is None:
                column = [key(value) for value in column]
            if bounded and descending:
                # One ascending tuple of keys: a DESC key turned round.
                column = list(map(Descending, column))
            keyed.append((column, descending))
        if bounded:
            keys = [column for column, _descending in reversed(keyed)]
            return [entry[-1] for entry in nsmallest(top, zip(*keys, range(count)))]
        order = range(count)
        for column, descending in keyed:
            order = sorted(order, key=column.__getitem__, reverse=descending)
        return order

    def _distinct_order(self, out, as_rows: bool, inputs, count: int, order,
                        bound: BoundSelect, params, outer) -> list:
        """DISTINCT [ON]: the positions of ``order`` (None: every row, as
        made) whose key was not seen at an earlier one."""
        seen = set()
        kept = []
        distinct_on = bound.distinct_on
        if distinct_on:
            ctx = self._ctx(bound.scope, params, outer)
        elif not as_rows:
            out = list(zip(*out)) if out else [()] * count
        for i in order if order is not None else range(count):
            if distinct_on:
                ctx.values = inputs[i] if inputs is not None else None
                key = tuple([_group_key(fn(ctx)) for fn in distinct_on])
            else:
                key = tuple([_group_key(v) for v in out[i]])
            if key not in seen:
                seen.add(key)
                kept.append(i)
        return kept

    def _lock_rows_for_update(self, inputs, layout: RowLayout):
        self.session.ensure_xid()
        for row in inputs:
            if row is None:
                continue
            for slot, table_name in layout.sources:
                tup = row[slot]
                if tup is not None:
                    self.session.acquire_row_lock(table_name, tup.row_id)

    # ----------------------------------------------------- FROM resolution

    def _resolve_from(self, select: A.Select, shape: SelectShape, params,
                      outer, cte_env) -> Stream:
        from_items, where = select.from_items, select.where
        if not from_items:
            return Stream.of(EMPTY_LAYOUT, [[]])
        locking = bool(select.for_update)
        # Only push WHERE into the scan for the single-base-table case;
        # multi-relation queries filter above the joins anyway.
        scan_where = where if len(from_items) == 1 else None
        stream = self._open(from_items[0], params, outer, cte_env, locking,
                            scan_where)
        if len(from_items) == 1:
            return stream
        # Comma-separated FROM items: plan as inner joins using any
        # applicable equi-join conjuncts from WHERE (hash joins instead of
        # raw cross products — TPC-H style "FROM a, b, c WHERE ..." relies
        # on this).
        remaining = [self._resolve_item(item, params, outer, cte_env, locking)
                     for item in from_items[1:]]
        layouts = [stream.layout, *(right.layout for right in remaining)]
        plan = shape.join_plan
        if plan is None or any(a is not b for a, b in zip(plan[0], layouts)):
            plan = shape.join_plan = (layouts, _comma_join_plan(layouts, where))
        for chosen, join in plan[1]:
            self._probe(stream, join, "inner", True, remaining.pop(chosen),
                        params, outer)
        return stream

    def _resolve_item(self, item, params, outer, cte_env, locking=False,
                      where=None) -> Stream:
        """A FROM item resolved to rows."""
        if isinstance(item, (A.TableRef, A.JoinExpr)):
            return self._materialise(
                self._open(item, params, outer, cte_env, locking, where),
                params, outer)
        if isinstance(item, A.SubqueryRef):
            sub = self.execute_select(item.query, params, outer=outer, cte_env=cte_env)
            return Stream.of(RowLayout.of(item.alias, sub.columns), sub.rows)
        if isinstance(item, A.FunctionRef):
            return self._scan_function(item, params, outer)
        raise SyntaxErrorSQL(f"unsupported FROM item {type(item).__name__}")

    def _scan_function(self, item: A.FunctionRef, params, outer) -> Stream:
        fn = SET_RETURNING_FUNCTIONS.get(item.func.name.lower())
        if fn is None:
            raise CatalogError(f"set-returning function {item.func.name}() does not exist")
        ctx = self._ctx(EMPTY_LAYOUT, params, outer)
        args = [evaluate(a, ctx) for a in item.func.args]
        col_name = item.column_names[0] if item.column_names else item.alias
        return Stream.of(RowLayout.of(item.alias, [col_name]),
                         [[v] for v in fn(*args)])

    def _open(self, item, params, outer, cte_env, locking=False,
              where=None) -> Stream:
        """A FROM item as the head of a fused loop: a base table or a join
        streams, anything else is resolved to rows first."""
        if isinstance(item, A.JoinExpr):
            return self._open_join(item, params, outer, cte_env, locking)
        if not isinstance(item, A.TableRef):
            return self._resolve_item(item, params, outer, cte_env)
        for named in (cte_env, self.session.temp_results):
            if item.name in named:
                names, rows = named[item.name]
                return Stream.of(RowLayout.of(item.ref_name, names), rows)
        table = self.catalog.get_table(item.name)
        self.session.acquire_table_lock(table.name, "AccessShare")
        scan = self._scan_shape(item, table, where, locking)
        return self._open_scan(table, scan, params, outer, self.session.snapshot())

    def _open_scan(self, table: Table, scan: ScanShape, params, outer,
                   snapshot) -> Stream:
        """The table's rows under ``snapshot``: the index candidates when an
        index serves the scan's WHERE (the loop rechecks it), else the heap."""
        tuples = self._index_tuples(table, scan, params, outer, snapshot)
        if tuples is not None:
            return Stream("tuples", tuples, scan.layout, scan)
        return Stream("heap", table.heap.tuples, scan.layout, scan, table.heap,
                      (snapshot.verdicts, snapshot.sees_xid, self.instance.xids.clog))

    def _materialise(self, stream: Stream, params, outer) -> Stream:
        """``stream`` resolved to rows (rows already made pass through,
        lazy or not)."""
        if stream.kind == "rows" and not stream.stages:
            return stream
        anchor = stream.stages[-1][0] if stream.stages else stream.shape
        ctx = self._ctx(stream.layout, params, outer)
        return Stream.of(stream.layout, self._drain(stream, anchor, "rows", ctx))

    def _scan_shape(self, ref: A.TableRef, table: Table, where,
                    locking: bool = False) -> ScanShape:
        """The prepared scan of a FROM-clause table reference. ``where``
        and ``locking`` are functions of the reference's position in its
        statement (the statement's WHERE for a lone FROM item, else None;
        whether the statement is FOR UPDATE), so the reference alone keys
        the shape. Every caller must therefore pass the same pair."""
        scan = self._prepared(ref, lambda: ScanShape(
            table, ref.ref_name, where, locking))
        assert bool(scan.layout.sources) == locking, "scan shape cached under other locking"
        return scan

    def _index_tuples(self, table: Table, scan: ScanShape, params, outer, snapshot):
        """Visible tuples from the best index for this execution, or None
        when the scan has to be sequential. Charges the index-scan stats."""
        if not scan.btrees and scan.gin is None:
            return None
        path = scan.probe(table, self._ctx(EMPTY_LAYOUT, params, outer))
        if path is None:
            return None
        _description, index, tids = path
        return self._charged(table, index, tids, snapshot)

    def _point_rows(self, table: Table, scan: ScanShape, key: list, ctx) -> list:
        """The tuples under a point shape's ``key`` that pass its whole
        WHERE: one bisection for the index entries, the versions visible
        to a new snapshot, charged as :meth:`_index_tuples` charges them."""
        index = scan.point[0]
        where, rows = scan.where.full, []
        for tup in self._charged(table, index, index.data.scan_equal(key),
                                 self.session.snapshot()):
            ctx.values = tup.values
            if where(ctx) is True:
                rows.append(tup)
        return rows

    def _charged(self, table: Table, index, tids: list, snapshot) -> list:
        """``_fetch_candidates`` of ``tids``, charged as an index scan."""
        tuples = _fetch_candidates(table, index, tids, snapshot,
                                   self.instance.xids)
        stats = self.session.stats
        stats["index_lookups"] += 1
        stats["tuples_scanned"] += len(tuples)
        stats["pages_read"] += max(1, len(tuples))
        return tuples

    # -------------------------------------------------------------- joins

    def _open_join(self, join: A.JoinExpr, params, outer, cte_env,
                   locking=False) -> Stream:
        """A JOIN as a stream probing the other side's rows. The left side
        streams but for RIGHT JOIN; the left side is resolved first."""
        swapped = join.join_type == "right"
        if swapped:
            build = self._resolve_item(join.left, params, outer, cte_env, locking)
            stream = self._open(join.right, params, outer, cte_env, locking)
            left, right = build.layout, stream.layout
        else:
            stream = self._open(join.left, params, outer, cte_env, locking)
            build = self._resolve_item(join.right, params, outer, cte_env, locking)
            left, right = stream.layout, build.layout
        cell = self._prepared(join, lambda: [None])
        shape = cell[0]
        # Layouts are interned: the sides' only change with their columns.
        if shape is None or shape.left is not left or shape.right is not right:
            condition = (None if join.join_type == "cross" else join.condition
                         if not join.using else
                         _using_to_condition(join.using, left, right))
            shape = cell[0] = JoinShape(left, right, condition)
        self._probe(stream, shape, join.join_type, not swapped, build, params, outer)
        return stream

    def _probe(self, stream: Stream, shape: JoinShape, join_type: str,
               stream_left: bool, build: Stream, params, outer) -> None:
        """Add a join to ``stream`` over ``build``'s rows: hashed on their
        key for an equi-join (a NULL key joins nothing), else all of them."""
        rows = build.source if isinstance(build.source, list) else list(build.source)
        table = None
        if shape.left_keys is not None:
            table = {}
            slot = shape.right_slot if stream_left else shape.left_slot
            fns = shape.right_keys if stream_left else shape.left_keys
            ctx = self._ctx(build.layout, params, outer)
            for row in rows:
                if slot is not None:
                    key = row[slot]
                    if type(key) not in _PLAIN_KEYS:
                        key = _group_key(key)
                else:
                    ctx.values = row
                    key = tuple([_group_key(fn(ctx)) for fn in fns])
                    if None in key:
                        continue
                if key is not None:
                    table.setdefault(key, []).append(row)
        stream.stages.append((shape, join_type, stream_left))
        stream.builds.append((table, rows, set()))
        stream.layout = shape.layout

    # ---------------------------------------------------------------- DML

    def _write_shape(self, table: Table, columns=None) -> WriteShape:
        """The table's prepared write shape for rows supplying ``columns``
        (default: every column, in table order)."""
        columns = tuple(columns) if columns is not None else tuple(
            table.column_names())
        return get_prepared(table, self.catalog.epoch, lambda: WriteShape(
            table, columns, self.catalog), columns)

    def _fk_checks(self) -> bool:
        return bool(self.session.get_guc("foreign_key_checks", True))

    def execute_insert(self, stmt: A.Insert, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        selected = None
        if stmt.select is None and not stmt.rows:
            columns = []  # INSERT ... DEFAULT VALUES
        elif stmt.columns:
            columns = stmt.columns
        else:
            # Without a column list the values fill the first columns
            # (PostgreSQL's rule); the rest take their defaults.
            if stmt.select is not None:
                selected = self.execute_select(stmt.select, params)
            width = (len(selected.columns) if selected is not None
                     else len(stmt.rows[0]))
            columns = table.column_names()[:width]
        shape = self._prepared(stmt, lambda: InsertShape(
            stmt, table, self._write_shape(table, columns)))
        if stmt.select is not None:
            if selected is None:
                selected = self.execute_select(stmt.select, params)
            value_rows = selected.rows
        elif not stmt.rows:
            value_rows = [[]]
        else:
            ctx = self._ctx(EMPTY_LAYOUT, params)
            value_rows = [[evaluate(v, ctx) for v in row] for row in stmt.rows]
        on_conflict = stmt.on_conflict
        resolve = emit = None
        if on_conflict is not None:
            def resolve(conflict_tup, cols, full):
                if on_conflict.columns and set(on_conflict.columns) != set(cols):
                    raise UniqueViolation(
                        f"duplicate key violates unique constraint on {cols}")
                if on_conflict.action == "nothing":
                    return False
                self._apply_conflict_update(conflict_tup, shape, full, params)
                return True
        returned = []
        if shape.returning:
            returning_ctx = self._ctx(shape.layout, params)
            returning_fns = shape.returning[1]

            def emit(full):
                returning_ctx.values = full
                returned.append([fn(returning_ctx) for fn in returning_fns])
        inserted = self.append_rows(shape.write, value_rows, "INSERT", resolve, emit)
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="INSERT")
        result.rowcount = inserted
        return result

    def append_rows(self, shape: WriteShape, rows, command: str,
                    resolve=None, emit=None) -> int:
        """The append behind INSERT, COPY and ``insert_rows``: each row of
        ``rows`` (any iterable of value sequences) is cast and filled to a
        full row, checked — NOT NULL, then unique keys, then foreign keys,
        PostgreSQL's order — and appended to heap, indexes and WAL, all in
        the shape's generated :attr:`WriteShape.append`. Returns the number
        of rows written.

        A unique-key collision raises, unless ``resolve(existing tuple,
        key columns, full row)`` settles it (ON CONFLICT): it returns
        whether the row counts as written. ``emit(full row)`` sees every
        appended row (RETURNING).

        All probes of one run share one snapshot, taken after the xid is
        assigned (DESIGN.md, "Write shapes": nothing else runs inside a
        statement run, and the run's own rows are visible through
        ``own_xid``).
        """
        session = self.session
        xid = session.ensure_xid()
        check_fks = (shape.check_foreign_keys
                     if shape.foreign_keys and self._fk_checks() else None)
        return shape.append(
            rows, command, xid, EvalContext(session=session), session.snapshot(),
            self.instance.xids, self.instance.wal, resolve, emit, check_fks,
            self.catalog, session.stats, session.written_tables)

    def _apply_conflict_update(self, conflict_tup, shape: InsertShape,
                               new_full, params):
        table = shape.write.table
        self.session.acquire_row_lock(table.name, conflict_tup.row_id)
        ctx = self._ctx(shape.conflict_layout, params)
        ctx.values = (*conflict_tup.values, *new_full)
        updated = list(conflict_tup.values)
        for idx, cast, assign_fn in shape.conflict_updates:
            updated[idx] = cast(assign_fn(ctx))
        self._do_update(shape.write, conflict_tup, tuple(updated))

    def _do_update(self, shape: WriteShape, old_tup, new_values: tuple) -> None:
        session = self.session
        shape.update(old_tup, new_values, session.ensure_xid(), self.instance.wal)
        session.stats["index_writes"] += len(shape.indexes)
        session.track_write(shape.table.name)

    def _dml_target_rows(self, table: Table, scan: ScanShape, ctx) -> list:
        """The heap tuples an UPDATE / DELETE acts on, with every row lock
        held. All locks are taken before anything is mutated, so a lock
        wait (parked statement) can re-run the statement from scratch
        without double-applying its effects."""
        key = scan.point_key(ctx) if scan.point is not None else None
        if key is not None:
            tuples = self._point_rows(table, scan, key, ctx)
        else:
            stream = self._open_scan(table, scan, ctx.params, None,
                                     self.session.snapshot())
            tuples = self._drain(stream, scan, "targets", ctx, scan.where)
        if tuples:
            self.session.acquire_row_locks(
                table.name, [tup.row_id for tup in tuples])
        return tuples

    def _current_version(self, table: Table, row_id: int):
        """Re-read a locked row's newest version (simplified EvalPlanQual
        under READ COMMITTED); None when the row is gone — deleted by a
        transaction that committed while this one waited for the lock.
        Callers skip it for a target nobody deleted or replaced (``xmax``
        None): that is its own newest version."""
        clog = self.instance.xids.clog
        current = table.heap.latest_version(row_id, clog)
        if current is None:
            return None
        xmax = current.xmax
        if (xmax is not None and xmax != self.session.xid
                and clog.status(xmax) == COMMITTED):
            return None
        return current

    def _dml_shape(self, stmt, table: Table) -> DmlShape:
        return self._prepared(stmt, lambda: DmlShape(
            stmt, table, self._write_shape(table)))

    def execute_update(self, stmt: A.Update, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        self.session.acquire_table_lock(table.name, "RowExclusive")
        shape = self._dml_shape(stmt, table)
        write, scan = shape.write, shape.scan
        updated = 0
        returned = []
        ctx = self._ctx(scan.layout, params)
        targets = self._dml_target_rows(table, scan, ctx)
        check_fks = bool(write.foreign_keys) and self._fk_checks()
        snapshot = None
        xids = self.instance.xids
        if check_fks or shape.probes_unique:
            # One snapshot for the statement's constraint probes (see
            # append_rows); its earlier updates are visible through own_xid.
            snapshot = self.session.snapshot()
        for tup in targets:
            current = (tup if tup.xmax is None
                       else self._current_version(table, tup.row_id))
            if current is None:
                continue
            ctx.values = tup.values
            new_values = list(current.values)
            for idx, cast, assign_fn in shape.assignments:
                new_values[idx] = cast(assign_fn(ctx))
            new_values = tuple(new_values)
            write.check_not_null(new_values)
            if check_fks:
                write.check_foreign_keys(new_values, self.catalog, snapshot, xids)
            # Only a key whose value the assignments changed can collide.
            if shape.probes_unique and write.find_conflict(
                    new_values, snapshot, xids, current.row_id,
                    current.values, updated > 0) is not None:
                raise UniqueViolation(_DUPLICATE.format(table.name))
            self._do_update(write, current, new_values)
            updated += 1
            if shape.returning:
                ctx.values = new_values
                returned.append([fn(ctx) for fn in shape.returning[1]])
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="UPDATE")
        result.rowcount = updated
        return result

    def execute_delete(self, stmt: A.Delete, params) -> QueryResult:
        table = self.catalog.get_table(stmt.table)
        session = self.session
        session.acquire_table_lock(table.name, "RowExclusive")
        shape = self._dml_shape(stmt, table)
        returned = []
        ctx = self._ctx(shape.scan.layout, params)
        targets = self._dml_target_rows(table, shape.scan, ctx)
        check_referencing = snapshot = None
        if shape.write.referencing and self._fk_checks():
            check_referencing = shape.write.check_referencing
            snapshot = session.snapshot()  # one per statement, as above
        xids, wal = self.instance.xids, self.instance.wal
        xid = session.ensure_xid()
        delete, name = shape.write.delete, table.name
        deleted = 0
        try:
            for tup in targets:
                current = (tup if tup.xmax is None
                           else self._current_version(table, tup.row_id))
                if current is None:
                    continue
                if check_referencing is not None:
                    check_referencing(current.values, snapshot, xids)
                delete(current, xid, wal)
                deleted += 1
                if shape.returning:
                    ctx.values = tup.values
                    returned.append([fn(ctx) for fn in shape.returning[1]])
        finally:
            if deleted:
                session.written_tables.add(name)
                session.stats["rows_written"] += deleted
        cols = shape.returning[0] if shape.returning else []
        result = QueryResult(cols, returned, command="DELETE")
        result.rowcount = deleted
        return result

    # ------------------------------------------------------------ EXPLAIN

    def explain(self, stmt, params) -> list[str]:
        if isinstance(stmt, A.Select):
            lines = []
            self._explain_from(stmt, params, lines)
            if self._select_shape(stmt).aggregates:
                lines.insert(0, "HashAggregate")
            if stmt.order_by:
                lines.insert(0, "Sort")
            if stmt.limit is not None:
                lines.insert(0, "Limit")
            return lines
        if isinstance(stmt, A.Insert):
            return [f"Insert on {stmt.table}"]
        if isinstance(stmt, A.Update):
            return [f"Update on {stmt.table}"]
        if isinstance(stmt, A.Delete):
            return [f"Delete on {stmt.table}"]
        return [type(stmt).__name__]

    def _explain_from(self, select: A.Select, params, lines: list[str]) -> None:
        single_table = len(select.from_items) == 1 and isinstance(
            select.from_items[0], A.TableRef
        )

        def describe(item):
            if isinstance(item, A.TableRef):
                if self.catalog.has_table(item.name):
                    path = None
                    if single_table and select.where is not None:
                        table = self.catalog.get_table(item.name)
                        # Same arguments as _resolve_from: the shape is
                        # cached on the reference and execution reuses it.
                        scan = self._scan_shape(item, table, select.where,
                                                bool(select.for_update))
                        path = scan.probe(table, self._ctx(EMPTY_LAYOUT, params, None))
                    if path is not None:
                        lines.append(f"{path[0]} on {item.name}")
                    else:
                        lines.append(f"Seq Scan on {item.name}")
                else:
                    lines.append(f"Scan on {item.name}")
            elif isinstance(item, A.JoinExpr):
                lines.append("Hash Join" if item.condition is not None else "Nested Loop")
                describe(item.left)
                describe(item.right)
            elif isinstance(item, A.SubqueryRef):
                lines.append(f"Subquery Scan on {item.alias}")
                self._explain_from(item.query, params, lines)
            elif isinstance(item, A.FunctionRef):
                lines.append(f"Function Scan on {item.func.name}")

        for item in select.from_items:
            describe(item)


# --------------------------------------------------------------------------
# module-level helpers
# --------------------------------------------------------------------------


def limit_offset(node, ctx: EvalContext) -> tuple:
    """``(offset, limit)`` of ``node``'s OFFSET and LIMIT expressions (a
    SELECT's, or a merge plan's) under ``ctx``. A missing or NULL OFFSET is
    0 and a missing or NULL LIMIT None, no limit; a negative one raises, as
    in PostgreSQL."""
    bounds = []
    for expr, clause in ((node.offset, "OFFSET"), (node.limit, "LIMIT")):
        value = None if expr is None else evaluate(expr, ctx)
        if value is not None:
            value = int(value)
            if value < 0:
                raise DataError(f"{clause} must not be negative")
        bounds.append(value)
    return bounds[0] or 0, bounds[1]


def is_aggregate_call(node) -> bool:
    """Whether ``node`` is an aggregate call of the query level it sits in:
    an aggregate called as a window function (``sum(x) OVER ...``) is
    evaluated by the window pass, not by grouping."""
    return (isinstance(node, A.FuncCall) and node.over is None
            and is_aggregate(node.name))


def has_aggregates(expr) -> bool:
    """Whether ``expr`` (a node, or a list of them) calls an aggregate at
    this query level: not inside a subquery, whose aggregates belong to its
    own level, nor inside a window call; CASE arms, FILTER and arguments
    included."""
    return any(map(is_aggregate_call, _walk_level(expr, skip_windows=True)))


def window_calls(expr) -> list:
    """The window function calls of ``expr`` (a node, or a list of them)
    at this query level."""
    return [node for node in _walk_level(expr)
            if isinstance(node, A.FuncCall) and node.over is not None]


def is_aggregating(select: A.Select) -> bool:
    """Whether a SELECT level runs through the hash aggregate: it has a
    GROUP BY, or its targets or HAVING call an aggregate at its level."""
    return bool(select.group_by) or has_aggregates([select.targets, select.having])


def _walk_level(expr, skip_windows: bool = False):
    """Pre-order walk of one query level: it does not descend into
    SubqueryExpr nodes (nor, with ``skip_windows``, into window calls)."""
    if isinstance(expr, (list, tuple)):  # e.g. CASE's (condition, result) pairs
        for item in expr:
            yield from _walk_level(item, skip_windows)
        return
    if not isinstance(expr, A.Node) or isinstance(expr, A.SubqueryExpr):
        return
    if skip_windows and isinstance(expr, A.FuncCall) and expr.over is not None:
        return
    yield expr
    for name, may_hold_nodes in A.node_fields(type(expr)):
        if may_hold_nodes:
            yield from _walk_level(getattr(expr, name), skip_windows)


def transform_level(expr, fn):
    """Replace, top down and in place, every node ``fn`` maps to a new one,
    and descend into each node it returns unchanged (untouched nodes keep
    their identity). A subquery is offered to ``fn`` but never descended
    into: its aggregates belong to the inner query level."""
    if isinstance(expr, list):
        return [transform_level(v, fn) for v in expr]
    if isinstance(expr, tuple):
        return tuple(transform_level(v, fn) for v in expr)
    if not isinstance(expr, A.Node):
        return expr
    result = fn(expr)
    if result is not expr or isinstance(expr, A.SubqueryExpr):
        return result
    for name, may_hold_nodes in A.node_fields(type(expr)):
        if may_hold_nodes:
            setattr(expr, name, transform_level(getattr(expr, name), fn))
    return expr


#: Types whose values are their own :func:`_group_key`.
_PLAIN_KEYS = frozenset((int, str, float, type(None)))


def _group_key(value):
    """Hashable representation of a value for grouping / distinct / join:
    equal keys are equal SQL values. Python already hashes and compares
    ``1 == 1.0`` exactly, so numbers (bigints beyond 2**53 included), text
    and dates stand for themselves; NULL is None."""
    kind = type(value)
    if kind is int or kind is str or value is None or kind is float:
        return value
    if kind is bool:
        return ("b", value)  # True is not the number 1
    if isinstance(value, (dict, list)):
        return ("j", to_text(value))
    return value


def _expand_stars(targets, rel_columns: list):
    expanded = []
    for entry in targets:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else entry
        if isinstance(expr, A.Star):
            for alias, name in rel_columns:
                if expr.table is None or expr.table == alias:
                    expanded.append(A.TargetEntry(A.ColumnRef(name, table=alias), name))
        else:
            expanded.append(entry)
    return expanded


def _expand_returning(returning, table: Table):
    expanded = []
    for entry in returning:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else entry
        if isinstance(expr, A.Star):
            for name in table.column_names():
                expanded.append(A.TargetEntry(A.ColumnRef(name), name))
        else:
            expanded.append(entry)
    return expanded


def _compile_returning(returning, table: Table, layout: RowLayout):
    """``(output names, compiled targets)`` of a RETURNING list over rows
    of ``layout``; None without one."""
    if not returning:
        return None
    targets = _expand_returning(returning, table)
    return (output_names(targets),
            [get_compiled(t.expr, layout) for t in targets])


def output_names(targets) -> list[str]:
    """The column names of a (star-expanded) target list, as PostgreSQL
    names them."""
    names = []
    for entry in targets:
        if entry.alias:
            names.append(entry.alias)
        elif isinstance(entry.expr, A.ColumnRef):
            names.append(entry.expr.name)
        elif isinstance(entry.expr, A.FuncCall):
            names.append(entry.expr.name.lower())
        elif isinstance(entry.expr, A.Cast):
            inner = entry.expr.operand
            names.append(inner.name if isinstance(inner, A.ColumnRef) else entry.expr.type_name)
        else:
            names.append("?column?")
    return names


def _comma_join_plan(layouts, where) -> list:
    """The joins of comma-separated FROM items, ``[(index into what is
    still unjoined, JoinShape), ...]``: each step takes the first item some
    equi-join conjunct of ``where`` connects to what is joined so far, or,
    failing that, cross-joins the next one."""
    conjuncts = split_and(where) if where is not None else []
    left, remaining = layouts[0], list(layouts[1:])
    steps = []
    while remaining:
        chosen, condition = 0, None
        for i, right in enumerate(remaining):
            condition = _equi_condition_between(conjuncts, left.slots, right.slots)
            if condition is not None:
                chosen = i
                break
        join = JoinShape(left, remaining.pop(chosen), condition)
        steps.append((chosen, join))
        left = join.layout
    return steps


def _using_to_condition(using: list[str], left: RowLayout, right: RowLayout) -> A.Expr:
    return and_all([A.BinaryOp(
        "=", A.ColumnRef(name, table=next((a for a, n in left.columns if n == name), None)),
        A.ColumnRef(name, table=next((a for a, n in right.columns if n == name), None)))
        for name in using])


def _equi_sides(c, left_keys, right_keys):
    """``(left expression, right expression)`` of an ``=`` conjunct whose
    two sides read one relation each; None for any other conjunct."""
    if isinstance(c, A.BinaryOp) and c.op == "=":
        lrefs, rrefs = _column_keys(c.left), _column_keys(c.right)
        if _subset(lrefs, left_keys) and _subset(rrefs, right_keys):
            return c.left, c.right
        if _subset(lrefs, right_keys) and _subset(rrefs, left_keys):
            return c.right, c.left
    return None


def _equi_condition_between(conjuncts, left_keys, right_keys):
    """AND together the conjuncts that equi-join two relations; None when
    no conjunct connects them."""
    found = [c for c in conjuncts if _equi_sides(c, left_keys, right_keys)]
    return and_all(found) if found else None


def _extract_equi_keys(condition, left_keys, right_keys):
    """Split a join condition for the hash join: ``(([left exprs], [right
    exprs]) or None, [conjuncts that are not key equalities])``."""
    pairs, residual = [], []
    for c in split_and(condition):
        sides = _equi_sides(c, left_keys, right_keys)
        (pairs if sides else residual).append(sides or c)
    if not pairs:
        return None, residual
    return ([left for left, _ in pairs], [right for _, right in pairs]), residual


def _column_keys(expr) -> set:
    keys = set()
    for node in A.walk(expr):
        if isinstance(node, A.ColumnRef):
            keys.add(node.key)
        elif isinstance(node, A.SubqueryExpr):
            return set()  # never hash on subquery results
    return keys


def _subset(refs: set, keys) -> bool:
    return bool(refs) and all(r in keys for r in refs)


def _apply_set_op(op: str, left_rows, right_rows):
    """UNION / INTERSECT / EXCEPT over rows, first-occurrence order
    preserved. The plain forms return distinct rows; the ALL forms count
    multiplicities — INTERSECT ALL keeps ``min(l, r)`` copies of a row,
    EXCEPT ALL ``max(l - r, 0)``."""
    if op == "union all":
        return left_rows + right_rows
    kind, _, modifier = op.partition(" ")
    if kind not in ("union", "intersect", "except") or modifier not in ("", "all"):
        raise SyntaxErrorSQL(f"unsupported set operation {op!r}")
    if kind == "union":
        left_rows, right_rows = left_rows + right_rows, []

    def row_key(row):
        return tuple([_group_key(v) for v in row])

    right_counts = Counter(map(row_key, right_rows))
    emitted = set()
    out = []
    for row in left_rows:
        key = row_key(row)
        if modifier == "all":
            # Each right-hand copy pairs off with one left-hand copy.
            in_right = right_counts[key] > 0
            if in_right:
                right_counts[key] -= 1
        else:
            if key in emitted:
                continue
            emitted.add(key)
            in_right = key in right_counts
        if kind == "union" or in_right == (kind == "intersect"):
            out.append(row)
    return out


def resolve_group_ref(expr, targets):
    """The target expression a GROUP BY item names by position (``GROUP BY
    1``) or by output alias; any other item as it is. Before ``*`` is
    expanded, a position at or past it names no known target."""
    if isinstance(expr, A.Literal) and isinstance(expr.value, int):
        index = expr.value - 1
        if 0 <= index < len(targets) and not any(
                isinstance(t.expr, A.Star) for t in targets[:index + 1]):
            return targets[index].expr
    if isinstance(expr, A.ColumnRef) and expr.table is None:
        for entry in targets:
            if entry.alias == expr.name:
                return entry.expr
    return expr


def _stable(expr) -> bool:
    """A constant or a parameter, cast or not: evaluating it again gives
    the same value and changes nothing."""
    while type(expr) is A.Cast:
        expr = expr.operand
    return type(expr) in (A.Literal, A.Param)


_COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")


def text_comparisons(where, alias: str, text_columns):
    """``(op, operand, operand_first)`` for every comparison ``where``
    combines with AND / OR / NOT of one of ``text_columns`` of the table
    ``alias`` names with some other operand — what PostgreSQL refuses when
    that operand is a number."""

    def text(expr) -> bool:
        return (type(expr) is A.ColumnRef and expr.name in text_columns
                and expr.table in (None, alias))

    pending = [where]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is A.BinaryOp:
            if node.op == "and" or node.op == "or":
                pending += (node.left, node.right)
            elif node.op in _COMPARISONS:
                op = "<>" if node.op == "!=" else node.op
                if text(node.left):
                    yield op, node.right, False
                if text(node.right):
                    yield op, node.left, True
        elif kind is A.UnaryOp and node.op == "not":
            pending.append(node.operand)
        elif kind is A.InList and text(node.operand):
            for item in node.items:
                yield "=", item, False
        elif kind is A.BetweenExpr and text(node.operand):
            yield ">=", node.low, False
            yield "<=", node.high, False


def _references_columns(expr) -> bool:
    return any(isinstance(n, (A.ColumnRef, A.Star, A.SubqueryExpr)) for n in A.walk(expr))


def _normalized_expr_text(expr, alias: str | None) -> str:
    """Deparse an expression with table qualifiers stripped, so a query
    predicate can be matched against an index expression."""

    def strip(node):
        if isinstance(node, A.ColumnRef):
            return A.ColumnRef(node.name)
        return node

    return deparse(A.transform(expr.copy(), strip)).lower()
