"""Shard pruning and query analysis shared by the distributed planners.

The central abstraction is the *equivalence analysis* of a query: walking
WHERE clauses and join conditions, we build a union-find over column
references and constants. The router planner then asks "do all distributed
tables have their distribution column in one equivalence class together
with a constant?" and the pushdown planner asks "are all distribution
columns in the same class as each other?" — which is exactly the co-located
join detection of §3.5.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..engine.compile import UNBOUND, param_value, split_and
from ..engine.datum import cast_value, column_constant, hash_value
from ..engine.executor import (
    is_aggregating, level_targets, output_names, resolve_group_ref,
    window_calls,
)
from ..errors import ReproError
from ..sql import ast as A
from ..sql.facts import StatementFacts
from .metadata import RANGE, DistributedTable, MetadataCache


@dataclass
class TableOccurrence:
    """One reference to a table in the query tree. ``key`` names its
    columns in the equivalence web: the alias, made unique per reference
    (:func:`_ref_key`), so two levels reading a table under one alias are
    two occurrences, not one."""

    name: str
    alias: str
    dist: DistributedTable | None  # None for local tables
    key: str


class QueryAnalysis:
    """Everything the planner cascade needs to know about a statement."""

    def __init__(self, cache: MetadataCache, catalog=None):
        self.cache, self.catalog = cache, catalog
        self.occurrences: list[TableOccurrence] = []
        self.equivalence = UnionFind()
        # Equivalence-class constants: root -> constant value
        self.constants: dict[object, object] = {}
        #: Every level whose FROM reads a distributed table.
        self.levels: list[A.Select] = []
        #: An UPDATE or DELETE as the level it is (:func:`_write_level`).
        self.write: A.Select | None = None
        #: The level a subquery is read by, and whether it is read as an
        #: expression (not as a FROM item), by the subquery's ``id``.
        self.readers: dict[int, tuple[A.Statement, bool]] = {}
        #: One ``(preserved, other)`` pair of table key sets per side an
        #: outer join keeps every row of (two for a FULL join).
        self.outer_joins: list[tuple[set, set]] = []
        #: FROM item ``id`` -> (the item, its key): see :func:`_ref_key`.
        self.ref_keys: dict[int, tuple] = {}
        #: Set operations some arm of which reads a distributed table, by
        #: ``id``: (the level, whether its arms can run on each shard, the
        #: output positions that are some arms' distribution column and not
        #: all arms'); and per one that can run so, a distribution column
        #: key per arm.
        self.set_op_levels: dict[int, tuple[A.Select, bool, set]] = {}
        self.aligned_arms: list[list[str]] = []

    @property
    def distributed(self) -> list[TableOccurrence]:
        return [o for o in self.occurrences if o.dist is not None and not o.dist.is_reference]

    @property
    def references(self) -> list[TableOccurrence]:
        return [o for o in self.occurrences if o.dist is not None and o.dist.is_reference]

    @property
    def locals(self) -> list[TableOccurrence]:
        return [o for o in self.occurrences if o.dist is None]

    def dist_column_key(self, occ: TableOccurrence) -> str:
        return f"{occ.key}.{occ.dist.dist_column}"

    def subplans(self) -> list[A.Select]:
        """The outermost inner levels that cannot run per shard: each runs
        once, as a subplan, and the statement reads its result (§3.5's
        recursive planning). A level inside one of them runs with it."""
        levels = set(map(id, self.levels))
        inner = [select for select in self.levels + [
            select for select, _aligned, _mixed in self.set_op_levels.values()
            if id(select) not in levels] if id(select) in self.readers]
        once = {id(select) for select in inner
                if self._runs_once(select, levels)}
        return [select for select in inner if id(select) in once
                and not any(id(outer) in once for outer in self._readers_of(select))]

    def _readers_of(self, select):
        reader = self.readers.get(id(select))
        while reader is not None:
            yield reader[0]
            reader = self.readers.get(id(reader[0]))

    def _runs_once(self, select: A.Select, levels: set) -> bool:
        """Whether an inner level cannot run per shard: it is an expression
        of a level whose FROM reads no distributed table (every shard would
        answer that level whole), an UPDATE or DELETE reads it and its
        tables do not align with the written table's shards (join order
        plans no write), it or an arm of its set operation aggregates,
        takes DISTINCT or LIMIT, or windows across shards, or its arms do
        not align on the shards (:func:`_align_arms`)."""
        reader, in_expr = self.readers[id(select)]
        if in_expr and id(reader) not in levels:
            return True
        if reader is self.write:
            keys = self.keys_in(select) | {self.occurrences[0].key}
            if not self.shards_align([o for o in self.distributed if o.key in keys]):
                return True
        _level, aligned, _mixed = self.set_op_levels.get(
            id(select), (None, True, ()))
        return not aligned or any(map(self._whole_only, [
            select, *(arm for _op, arm in select.set_ops)]))

    def _whole_only(self, select: A.Select) -> bool:
        """Whether a level's rows on one shard are not its share of the
        whole: it aggregates, takes DISTINCT or LIMIT, or windows across
        shards."""
        is_dist = self.dist_column_test(select)
        distinct = select.distinct_on or [
            t.expr for t in level_targets(select, self.column_names)]
        return (self.aggregates_across_shards(select)
                or select.limit is not None or select.offset is not None
                or (bool(select.distinct or select.distinct_on)
                    and not any(map(is_dist, distinct)))
                or not self.windows_on_one_shard(select, is_dist))

    def windows_on_one_shard(self, select: A.Select, is_dist=None) -> bool:
        """Whether every window of a level is partitioned by the
        distribution column: each partition then lives on one shard (the
        restriction Citus applies)."""
        windows = window_calls([select.targets, select.order_by])
        if not windows:
            return True
        is_dist = is_dist or self.dist_column_test(select)
        return all(any(map(is_dist, w.over.partition_by)) for w in windows)

    def keys_in(self, node) -> set:
        """The keys of the FROM items a part of the statement reads, inside
        its subqueries too."""
        return {self.ref_keys[id(item)][1] for item in A.walk(node)
                if id(item) in self.ref_keys}

    def table_columns(self, table: str) -> list:
        """The columns of a table the statement reads: an intermediate
        result's as what registered it made them
        (:func:`~.planner.subplan.land`), any other's from the coordinator's
        catalog; none for a CTE's name."""
        dist = self.cache.tables.get(table)
        if dist is not None and dist.columns is not None:
            return dist.columns
        if self.catalog is not None and self.catalog.has_table(table):
            return self.catalog.get_table(table).columns
        return []

    def column_names(self, table: str) -> list[str]:
        """A table's column names, for :func:`level_targets`."""
        return [c.name for c in self.table_columns(table)]

    def correlated(self, select: A.Select) -> bool:
        """Whether a level reads a column of a level around it: one whose
        qualifier no FROM item inside it names, or a bare name that no table
        inside it may hold. A subplan does not decorrelate."""
        scope, names = {}, set()
        for node in A.walk(select):
            if isinstance(node, A.Select):
                names.update(output_names(
                    t for t in node.targets if not isinstance(t.expr, A.Star)))
                for item in node.from_items:
                    _add_to_scope(item, scope, self)
        return not all(
            ref.table in scope if ref.table is not None else (
                ref.name in names or any(ref.name in columns or not columns
                                         for _key, columns in scope.values()))
            for ref in A.walk(select) if isinstance(ref, A.ColumnRef))

    def aggregates_across_shards(self, select: A.Select) -> bool:
        """Whether a SELECT level aggregates rows of more than one shard
        into one: it aggregates (:func:`is_aggregating`) without grouping
        on a distribution column."""
        return is_aggregating(select) and not any(
            map(self.dist_column_test(select),
                (resolve_group_ref(g, select.targets) for g in select.group_by)))

    def dist_column_test(self, select: A.Select):
        """A test of whether an expression of a SELECT level is the
        distribution column: a column, bound to its table through the
        level's scope, in the distribution columns' class, or a bare name
        no one table owns that names one. A GROUP BY or window partition
        on it keeps each group on one shard."""
        roots = {self.equivalence.find(self.dist_column_key(o))
                 for o in self.distributed}
        names = {o.dist.dist_column for o in self.distributed}
        scope = _build_scope(select.from_items, self)

        def test(expr) -> bool:
            if not isinstance(expr, A.ColumnRef):
                return False
            key = _qualify(expr.key, scope)
            return key in names or self.equivalence.find(key) in roots

        return test

    def constant_for(self, occ: TableOccurrence):
        root = self.equivalence.find(self.dist_column_key(occ))
        for const_key, value in self.constants.items():
            if self.equivalence.find(const_key) == root:
                return value
        return None

    def all_dist_columns_equal(self) -> bool:
        """True when every distributed table's distribution column is in the
        same equivalence class (co-located join on the distribution key)."""
        dist = self.distributed
        if len(dist) <= 1:
            return True
        roots = {self.equivalence.find(self.dist_column_key(o)) for o in dist}
        return len(roots) == 1

    def shards_align(self, occurrences=None) -> bool:
        """Whether every shard's rows meet only rows of the same shards: the
        distributed tables (``occurrences``, by default every one; at least
        one) are of one colocation group and their distribution columns one
        class, the arms of a set operation that runs on each shard counted
        as one (they are not equal, so a router does not take one arm's
        constant for another's)."""
        occurrences = self.distributed if occurrences is None else occurrences
        merged = self.equivalence
        if self.aligned_arms:
            merged = UnionFind()
            merged.parent = dict(self.equivalence.parent)
            for first, *others in self.aligned_arms:
                for key in others:
                    merged.union(first, key)
        return (len({o.dist.colocation_id for o in occurrences}) == 1
                and len({merged.find(self.dist_column_key(o))
                         for o in occurrences}) <= 1)

    def common_constant(self):
        """The constant shared by every distribution column, or a sentinel.
        Equal constants share one class (:func:`_bind_constant`), so the
        columns meet one constant exactly when they are in one class that
        holds a constant."""
        dist = self.distributed
        value = self.constant_for(dist[0]) if dist else None
        if value is None or not self.all_dist_columns_equal():
            return None, False
        return value, True


class UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, key):
        self.parent.setdefault(key, key)
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


_CONST_MARK = "\x00const:"


def analyze_statement(stmt, cache: MetadataCache, params=None,
                      catalog=None) -> QueryAnalysis:
    """Build the QueryAnalysis for a DML statement.

    ``catalog`` (the coordinator's shell-table catalog) enables scope-aware
    qualification of bare column references — ``WHERE o_orderkey =
    l_orderkey`` binds each side to the table that owns the column.
    """
    analysis = QueryAnalysis(cache, catalog)
    if isinstance(stmt, A.Insert):
        _add_occurrence(A.TableRef(stmt.table), cache, analysis)
        if stmt.select is not None:
            _analyze_select(stmt.select, cache, analysis, params)
    elif isinstance(stmt, (A.Update, A.Delete)):
        analysis.write = _write_level(stmt)
        _analyze_select(analysis.write, cache, analysis, params)
    else:
        _analyze_select(stmt, cache, analysis, params)
    _finalize_unqualified_refs(analysis)
    return analysis


def _write_level(stmt) -> A.Select:
    """An UPDATE or DELETE as the level it is: its target is its FROM; its
    WHERE, SET values and RETURNING are its expressions."""
    return A.Select(
        targets=[A.TargetEntry(value) for _column, value in getattr(
            stmt, "assignments", ())] + list(stmt.returning),
        from_items=[A.TableRef(stmt.table, stmt.alias)], where=stmt.where)


def _build_scope(from_items, analysis) -> dict:
    """alias -> (its key, {column name: type name, None when unknown})
    visible under that alias."""
    scope: dict[str, dict] = {}
    for item in from_items:
        _add_to_scope(item, scope, analysis)
    return scope


def _add_to_scope(item, scope: dict, analysis) -> None:
    # A function of the module, not a closure that calls itself: that
    # closure would be a reference cycle holding the analysis.
    if isinstance(item, A.TableRef):
        scope[item.ref_name] = (_ref_key(item, analysis), {
            c.name: c.type_name for c in analysis.table_columns(item.name)})
    elif isinstance(item, A.SubqueryRef):
        scope[item.alias] = (_ref_key(item, analysis), dict.fromkeys(
            output_names(level_targets(item.query, analysis.column_names))))
    elif isinstance(item, A.FunctionRef):
        scope[item.alias] = (_ref_key(item, analysis),
                             dict.fromkeys(item.column_names))
    elif isinstance(item, A.JoinExpr):
        _add_to_scope(item.left, scope, analysis)
        _add_to_scope(item.right, scope, analysis)


def _ref_key(item, analysis) -> str:
    """The key a FROM item's columns go by in the equivalence web: its
    alias, or the alias and a number when an item met before holds it (the
    same alias at another level is another reference to the table)."""
    found = analysis.ref_keys.get(id(item))
    if found is not None:
        return found[1]
    alias = item.ref_name if isinstance(item, A.TableRef) else item.alias
    taken = {key for _item, key in analysis.ref_keys.values()}
    key, n = alias, 1
    while key in taken:
        n += 1
        key = f"{alias}#{n}"
    analysis.ref_keys[id(item)] = (item, key)  # the item kept: ids stay unique
    return key


def _qualify(key: str, scope: dict) -> str:
    """A column reference's key as its FROM item's key and the column: a
    qualified reference through its alias in ``scope``, a bare name when
    exactly one item there may hold it (else the key as written)."""
    table, _, name = key.rpartition(".")
    if table:
        entry = scope.get(table)
        return key if entry is None else f"{entry[0]}.{name}"
    owners = [ref_key for ref_key, columns in scope.values() if name in columns]
    return f"{owners[0]}.{name}" if len(owners) == 1 else key


def _finalize_unqualified_refs(analysis: QueryAnalysis) -> None:
    """Let unqualified filter columns (``WHERE key = 5``) reach the
    distribution column, but only when the binding is unambiguous: exactly
    one table in the query could own the name. With two distributed tables
    sharing a distribution column name, a bare-name union would falsely
    co-locate a cross join, so it is skipped (the SQL would be ambiguous
    at execution time anyway)."""
    dist_col_owners: dict[str, list] = {}
    for occ in analysis.occurrences:
        if occ.dist is not None and occ.dist.dist_column:
            dist_col_owners.setdefault(occ.dist.dist_column, []).append(occ)
    for column, owners in dist_col_owners.items():
        if len(owners) == 1:
            analysis.equivalence.union(f"{owners[0].key}.{column}", column)


def _analyze_select(select: A.Select, cache, analysis: QueryAnalysis, params,
                    reader=None) -> list[TableOccurrence]:
    """Analyse one level (its subqueries and set operation's arms too);
    the distributed tables its FROM reads."""
    if reader is not None:
        analysis.readers[id(select)] = reader
    scope = _build_scope(select.from_items, analysis)
    start = len(analysis.occurrences)
    for item in select.from_items:
        _analyze_from_item(item, cache, analysis, params, scope, select)
    dist = [o for o in analysis.occurrences[start:]
            if o.dist is not None and not o.dist.is_reference]
    if dist:
        analysis.levels.append(select)
    # ORDER BY / GROUP BY expressions run on the workers too: a subquery in
    # them reads shards like one in the targets does.
    for expr in [select.where, select.having, *(t.expr for t in select.targets),
                 *(key.expr for key in select.order_by), *select.group_by]:
        if expr is not None:
            _collect_subquery_tables(expr, cache, analysis, params, scope, select)
    if select.where is not None:
        _collect_equalities(select.where, analysis, params, scope)
    arms = [(select, dist)] + [(rhs, _analyze_select(rhs, cache, analysis, params))
                               for _op, rhs in select.set_ops]
    if len(arms) > 1 and any(arm_dist for _arm, arm_dist in arms):
        _align_arms(select, arms, analysis)
    return dist


def _align_arms(select: A.Select, arms, analysis: QueryAnalysis) -> None:
    """Whether the arms of a set operation can run on each shard, over
    its rows: each arm reads a distributed table, all of one colocation
    group (a shard then holds every arm's share), and a UNION, INTERSECT or
    EXCEPT, which deduplicates per shard, has an output column that is
    every arm's distribution column (equal rows then share a shard). An
    output column that is some arms' distribution column and not all arms'
    is bound to no column (:func:`_output_key`): joined on, it would pair
    rows of different shards."""
    find = analysis.equivalence.find
    outputs = []  # per arm: which of its output columns is its dist column
    for arm, dist in arms:
        roots = {find(analysis.dist_column_key(o)) for o in dist}
        outputs.append([key is not None and find(key) in roots
                        for _name, key in _outputs(arm, analysis)])
    columns = list(zip(*outputs))
    aligned = (all(dist for _arm, dist in arms)
               and len({o.dist.colocation_id for _arm, dist in arms
                        for o in dist}) == 1
               and (any(map(all, columns))
                    or all(op == "union all" for op, _rhs in select.set_ops)))
    mixed = {position for position, column in enumerate(columns)
             if any(column) and not all(column)}
    analysis.set_op_levels[id(select)] = (select, aligned, mixed)
    if aligned:
        analysis.aligned_arms.append(
            [analysis.dist_column_key(dist[0]) for _arm, dist in arms])


def _analyze_from_item(item, cache, analysis, params, scope, select):
    if isinstance(item, A.TableRef):
        _add_occurrence(item, cache, analysis)
    elif isinstance(item, A.SubqueryRef):
        _analyze_select(item.query, cache, analysis, params, (select, False))
        # Column refs through the subquery alias join the equivalence web via
        # the subquery's target names: alias.colname ~ target expr when the
        # target is a plain column reference.
        for name, key in _outputs(item.query, analysis):
            if key is not None:
                analysis.equivalence.union(
                    f"{_ref_key(item, analysis)}.{name}", key)
    elif isinstance(item, A.JoinExpr):
        _analyze_from_item(item.left, cache, analysis, params, scope, select)
        _analyze_from_item(item.right, cache, analysis, params, scope, select)
        if item.condition is not None:
            _collect_equalities(item.condition, analysis, params, scope)
            _collect_subquery_tables(item.condition, cache, analysis, params,
                                     scope, select)
        if item.join_type in ("left", "full"):
            analysis.outer_joins.append((analysis.keys_in(item.left),
                                         analysis.keys_in(item.right)))
        if item.join_type in ("right", "full"):
            analysis.outer_joins.append((analysis.keys_in(item.right),
                                         analysis.keys_in(item.left)))
        for name in item.using:
            left_alias = _leftmost_alias(item.left)
            right_alias = _leftmost_alias(item.right)
            if left_alias and right_alias:
                analysis.equivalence.union(f"{left_alias}.{name}", f"{right_alias}.{name}")


def _outputs(select: A.Select, analysis) -> list[tuple]:
    """``(name, key)`` per column a level outputs (a ``*`` counted as its
    columns): the key of the column it passes on, when it outputs a plain
    column there that a set operation's arms do not mix up
    (:func:`_align_arms`), else None."""
    targets = level_targets(select, analysis.column_names)
    scope = _build_scope(select.from_items, analysis)
    mixed = analysis.set_op_levels.get(id(select), (None, True, ()))[2]
    return [(name, _qualify(entry.expr.key, scope)
             if isinstance(entry.expr, A.ColumnRef) and position not in mixed
             else None)
            for position, (name, entry) in enumerate(
                zip(output_names(targets), targets))]


def _leftmost_alias(item):
    if isinstance(item, A.TableRef):
        return item.ref_name
    if isinstance(item, A.SubqueryRef):
        return item.alias
    if isinstance(item, A.JoinExpr):
        return _leftmost_alias(item.left)
    return None


def _add_occurrence(ref: A.TableRef, cache, analysis):
    analysis.occurrences.append(TableOccurrence(
        ref.name, ref.ref_name, cache.tables.get(ref.name),
        _ref_key(ref, analysis)))


def _collect_equalities(expr, analysis: QueryAnalysis, params, scope=None) -> None:
    """Register col=col and col=const conjuncts (top-level AND only)."""
    scope = scope or {}
    for conjunct in _conjuncts(expr):
        if not (isinstance(conjunct, A.BinaryOp) and conjunct.op == "="):
            continue
        col, other = conjunct.left, conjunct.right
        if not isinstance(col, A.ColumnRef):
            col, other = other, col
        if not isinstance(col, A.ColumnRef):
            continue
        if isinstance(other, A.ColumnRef):
            analysis.equivalence.union(_qualify(col.key, scope),
                                       _qualify(other.key, scope))
        elif _is_constant(other):
            _bind_constant(analysis, _qualify(col.key, scope), other, params, scope)


def _bind_constant(analysis, col_key, constant, params, scope):
    """Put ``col_key`` in the class of ``constant``, read as the column's
    type when the scope knows it: ``a.key = '5'`` and ``b.key = 5`` meet."""
    ref_key, _, name = col_key.rpartition(".")
    columns = next((columns for key, columns in scope.values()
                    if key == ref_key), {})
    value = _constant_value(constant, params, columns.get(name))
    if value is NO_VALUE:
        return
    const_key = f"{_CONST_MARK}{hash_value(value)}"
    analysis.equivalence.union(col_key, const_key)
    # Stored under the stable const key; constant_for chases the class.
    analysis.constants[const_key] = value


_conjuncts = split_and


def _collect_subquery_tables(expr, cache, analysis, params, scope, reader) -> None:
    for node in A.walk(expr):
        # A subquery inside another was analysed with the one around it.
        if isinstance(node, A.SubqueryExpr) and id(node.query) not in analysis.readers:
            _analyze_select(node.query, cache, analysis, params, (reader, True))
            # `x IN (SELECT col FROM ...)` implies x = col for the matched
            # rows, which keeps pushdown-legal queries like TPC-H Q18
            # (IN over a GROUP BY on the distribution column) routable.
            if (
                node.kind in ("in", "any")
                and isinstance(node.operand, A.ColumnRef)
                and not node.negated
            ):
                outputs = _outputs(node.query, analysis)
                if len(outputs) == 1 and outputs[0][1] is not None:
                    analysis.equivalence.union(
                        _qualify(node.operand.key, scope or {}), outputs[0][1])


# -------------------------------------------------- a column's constant filter

#: "No constant here": what :func:`_constant_value` reads an unbound
#: parameter as and :func:`dist_value_for` answers, when None is a value.
NO_VALUE = object()


def _is_constant(expr) -> bool:
    """A literal, a parameter, or a cast of one."""
    while isinstance(expr, A.Cast):
        expr = expr.operand
    return isinstance(expr, (A.Literal, A.Param))


def _constant_value(expr, params, type_name=None):
    """A constant (:func:`_is_constant`) under ``params``, read as a value
    of a column of ``type_name`` (:func:`~repro.engine.datum.column_constant`:
    ``'150'`` against an int column is 150, ``'abc'`` raises DataError), or
    :data:`NO_VALUE` for a parameter ``params`` do not bind. The one reader
    of a constant a column is compared with."""
    if isinstance(expr, A.Param):
        value = param_value(expr, params)
        if value is UNBOUND:
            return NO_VALUE
    elif isinstance(expr, A.Literal):
        value = expr.value
    elif isinstance(expr, A.Cast):
        value = _constant_value(expr.operand, params)
        if value is NO_VALUE:
            return NO_VALUE
        value = cast_value(value, expr.type_name)
    else:
        return NO_VALUE
    return column_constant(value, type_name)


_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_BOUNDS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _names(expr, column, alias) -> bool:
    """Whether ``expr`` reads ``column`` of the table the statement knows as
    ``alias`` (PostgreSQL's rule: once a table is aliased, only the alias
    names it)."""
    return (isinstance(expr, A.ColumnRef) and expr.name == column
            and expr.table in (None, alias))


class ColumnFilter:
    """What the top-level AND terms of one WHERE clause compare one column
    with: each ``=`` / ``IN`` list and each bound, kept as the constants
    written (literals, parameters, casts of them; routing never evaluates
    ``random()``). Found once per (WHERE, column, alias) and read per
    execution through :func:`_constant_value` as values of the column's
    type, by the fast path's route, tenant attribution, shard pruning and
    partman's partition pruning alike."""

    __slots__ = ("type_name", "equal", "bounds")

    def __init__(self, where, column, alias, type_name):
        self.type_name = type_name
        self.equal = []  # one tuple of constants per ``=`` (one) / IN term
        self.bounds = []  # (op, constant) per bound; BETWEEN gives two
        for conjunct in _conjuncts(where):
            if isinstance(conjunct, A.BinaryOp) and conjunct.op in _FLIPPED:
                op, col, constant = conjunct.op, conjunct.left, conjunct.right
                if _names(constant, column, alias):
                    op, col, constant = _FLIPPED[op], constant, col
                if _names(col, column, alias) and _is_constant(constant):
                    if op == "=":
                        self.equal.append((constant,))
                    else:
                        self.bounds.append((op, constant))
            elif isinstance(conjunct, A.InList) and not conjunct.negated:
                if (_names(conjunct.operand, column, alias)
                        and all(map(_is_constant, conjunct.items))):
                    self.equal.append(tuple(conjunct.items))
            elif isinstance(conjunct, A.BetweenExpr) and not conjunct.negated:
                if _names(conjunct.operand, column, alias):
                    self.bounds += [(op, bound) for op, bound in (
                        (">=", conjunct.low), ("<=", conjunct.high))
                        if _is_constant(bound)]

    def values(self, params):
        """The values the column may equal under ``params`` — those every
        ``=`` / ``IN`` term the parameters bind allows (NULL equals
        nothing) — or None when no such term constrains it."""
        equal = self.equal
        if len(equal) == 1 and len(equal[0]) == 1:  # one ``=`` (a route's)
            value = _constant_value(equal[0][0], params, self.type_name)
            return (None if value is NO_VALUE
                    else [] if value is None else [value])
        allowed = None
        for term in equal:
            read = []
            for constant in term:
                value = _constant_value(constant, params, self.type_name)
                if value is NO_VALUE:
                    break  # an unbound parameter: the term says nothing
                if value is not None:
                    read.append(value)
            else:
                allowed = read if allowed is None else [
                    value for value in allowed if value in read]
        return allowed

    def overlapping(self, params, intervals) -> list[int]:
        """Indexes of the ``(lo, hi)`` value intervals that may hold a
        value passing the filter under ``params``. Strict bounds stay
        strict: ``> 98.5`` keeps ``[0, 99]``."""
        values, bounds = self.values(params), []
        for op, constant in self.bounds:
            value = _constant_value(constant, params, self.type_name)
            if value is None:
                return []  # a NULL bound: no value passes
            if value is not NO_VALUE:
                bounds.append((_BOUNDS[op], op[0] == ">", value))
        return [
            i for i, (lo, hi) in enumerate(intervals)
            if (values is None or any(lo <= v <= hi for v in values))
            and all(passes(hi if lower else lo, value)
                    for passes, lower, value in bounds)
        ]

    def shards(self, table: DistributedTable, params) -> list[int]:
        """Indexes of the shards of ``table``, filtered on its distribution
        column, that may hold passing rows: a hash table's shards of the
        value set; a range table's shards whose interval overlaps the value
        set and the bounds (a value in no shard's range matches none)."""
        if table.is_reference:
            return [0]
        if table.method == RANGE:
            return self.overlapping(
                params, [(s.min_value, s.max_value) for s in table.shards])
        values = self.values(params)
        if values is None:
            return list(range(table.shard_count))
        return sorted({table.shard_index_for_value(v) for v in values})


def dist_filter(table: DistributedTable, where, alias=None) -> ColumnFilter:
    """The filter ``where`` puts on ``table``'s distribution column."""
    return ColumnFilter(where, table.dist_column, alias or table.name,
                        table.dist_column_type)


def prune_shards(table: DistributedTable, where, params=None, alias: str | None = None):
    """Shard indexes that may contain rows matching the filter
    (:meth:`ColumnFilter.shards`)."""
    return dist_filter(table, where, alias).shards(table, params)


# --------------------------------------------------------- tenant extraction

def _tenant_filter(cache, stmt) -> ColumnFilter | None:
    """The filter on the distribution column of the table a
    single-tenant-shaped statement reads or writes — a single-table SELECT,
    an UPDATE or DELETE, a one-row INSERT (its VALUES entry read as an
    ``=``) — or None when it has no ``=`` term."""
    if isinstance(stmt, A.Select):
        ref = stmt.from_items[0] if len(stmt.from_items) == 1 else None
        if not isinstance(ref, A.TableRef):
            return None
        table, where, alias = ref.name, stmt.where, ref.ref_name
    elif isinstance(stmt, (A.Update, A.Delete)):
        table, where, alias = stmt.table, stmt.where, stmt.alias or stmt.table
    elif isinstance(stmt, A.Insert) and stmt.select is None and len(stmt.rows) == 1:
        table, where, alias = stmt.table, None, stmt.table
    else:
        return None
    dist = cache.tables.get(table)
    if dist is None or dist.is_reference:
        return None
    if isinstance(stmt, A.Insert):
        row = dict(zip(stmt.columns, stmt.rows[0]))
        if dist.dist_column not in row:
            return None  # a positional INSERT, or a row too short to name it
        where = A.BinaryOp("=", A.ColumnRef(dist.dist_column), row[dist.dist_column])
    tenant = dist_filter(dist, where, alias)
    return tenant if tenant.equal else None


def dist_value_for(cache: MetadataCache, facts: StatementFacts, params):
    """The one value a single-tenant-shaped statement lets its distribution
    column equal under ``params`` (read by its tenant filter, found once
    per statement and metadata state), else :data:`NO_VALUE`. The fast
    path's bind routes on it and tenant attribution reports it."""
    if facts.tenant_in is not cache:
        facts.tenant_filter = _tenant_filter(cache, facts.stmt)
        facts.tenant_in = cache
    tenant = facts.tenant_filter
    values = tenant.values(params) if tenant is not None else None
    return values[0] if values is not None and len(values) == 1 else NO_VALUE


def partition_key_for(cache: MetadataCache, facts: StatementFacts, params):
    """The ``partition_key`` attribute of citus_stat_statements:
    :func:`dist_value_for`, with None for multi-shard statements and for a
    value that does not read (a failing cast)."""
    try:
        value = dist_value_for(cache, facts, params)
    except ReproError:
        return None
    return None if value is NO_VALUE else value
