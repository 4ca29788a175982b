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

from dataclasses import dataclass

from ..engine.compile import UNBOUND, param_value
from ..engine.datum import cast_value, hash_value
from ..engine.expr import BoundParams
from ..errors import ReproError
from ..sql import ast as A
from ..sql.facts import StatementFacts
from .metadata import RANGE, DistributedTable, MetadataCache


@dataclass
class TableOccurrence:
    """One reference to a table in the query tree."""

    name: str
    alias: str
    dist: DistributedTable | None  # None for local tables


class QueryAnalysis:
    """Everything the planner cascade needs to know about a statement."""

    def __init__(self):
        self.occurrences: list[TableOccurrence] = []
        self.equivalence = UnionFind()
        # Equivalence-class constants: root -> constant value
        self.constants: dict[object, object] = {}
        self.has_subquery_from = False
        self.inner_cross_shard_agg = False
        #: One ``(preserved, other)`` pair of alias sets per side an outer
        #: join keeps every row of (two for a FULL join).
        self.outer_joins: list[tuple[set, set]] = []

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
        return f"{occ.alias}.{occ.dist.dist_column}"

    def replicated_preserved_side(self) -> set | None:
        """The aliases of an outer join's preserved side that reads no
        distributed table while the other side does, or None. Run once per
        shard, such a join returns that side's unmatched rows once per
        shard, so it cannot be pushed down."""
        dist = {occ.alias for occ in self.distributed}
        for preserved, other in self.outer_joins:
            if not preserved & dist and other & dist:
                return preserved
        return None

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

    def common_constant(self):
        """The constant shared by every distribution column, or a sentinel."""
        dist = self.distributed
        if not dist:
            return None, False
        values = []
        for occ in dist:
            value = self.constant_for(occ)
            if value is None:
                return None, False
            values.append(value)
        first_hash = hash_value(values[0])
        if all(hash_value(v) == first_hash for v in values[1:]):
            return values[0], True
        return None, False


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
    analysis = QueryAnalysis()
    analysis.catalog = catalog
    if isinstance(stmt, A.Select):
        _analyze_select(stmt, cache, analysis, params, depth=0)
    elif isinstance(stmt, A.Insert):
        _add_occurrence(stmt.table, stmt.table, cache, analysis)
        if stmt.select is not None:
            _analyze_select(stmt.select, cache, analysis, params, depth=1)
    elif isinstance(stmt, (A.Update, A.Delete)):
        alias = stmt.alias or stmt.table
        _add_occurrence(stmt.table, alias, cache, analysis)
        scope = _build_scope([A.TableRef(stmt.table, stmt.alias)], cache, analysis)
        if stmt.where is not None:
            _collect_equalities(stmt.where, analysis, params, scope)
            _collect_subquery_tables(stmt.where, cache, analysis, params, scope)
    _finalize_unqualified_refs(analysis)
    return analysis


def _build_scope(from_items, cache, analysis) -> dict:
    """alias -> set of column names visible under that alias."""
    scope: dict[str, set] = {}

    def add(item):
        if isinstance(item, A.TableRef):
            columns = _table_columns(item.name, analysis)
            if columns:
                scope[item.ref_name] = columns
        elif isinstance(item, A.SubqueryRef):
            names = set()
            for entry in item.query.targets:
                if isinstance(entry, A.TargetEntry):
                    if entry.alias:
                        names.add(entry.alias)
                    elif isinstance(entry.expr, A.ColumnRef):
                        names.add(entry.expr.name)
            scope[item.alias] = names
        elif isinstance(item, A.JoinExpr):
            add(item.left)
            add(item.right)

    for item in from_items:
        add(item)
    return scope


def _table_columns(name, analysis) -> set:
    catalog = getattr(analysis, "catalog", None)
    if catalog is not None and catalog.has_table(name):
        return set(catalog.get_table(name).column_names())
    return set()


def _qualify(key: str, scope: dict) -> str:
    """Bind a bare column name to its owning alias when unambiguous."""
    if "." in key or not scope:
        return key
    owners = [alias for alias, columns in scope.items() if key in columns]
    if len(owners) == 1:
        return f"{owners[0]}.{key}"
    return key


def _finalize_unqualified_refs(analysis: QueryAnalysis) -> None:
    """Let unqualified filter columns (``WHERE key = 5``) reach the
    distribution column, but only when the binding is unambiguous: exactly
    one table in the query could own the name. With two distributed tables
    sharing a distribution column name, a bare-name union would falsely
    co-locate a cross join, so it is skipped (the SQL would be ambiguous
    at execution time anyway)."""
    if len(analysis.occurrences) == 1:
        occ = analysis.occurrences[0]
        if occ.dist is not None and occ.dist.dist_column:
            analysis.equivalence.union(
                f"{occ.alias}.{occ.dist.dist_column}", occ.dist.dist_column
            )
        return
    dist_col_owners: dict[str, list] = {}
    for occ in analysis.occurrences:
        if occ.dist is not None and occ.dist.dist_column:
            dist_col_owners.setdefault(occ.dist.dist_column, []).append(occ)
    for column, owners in dist_col_owners.items():
        if len(owners) == 1:
            analysis.equivalence.union(f"{owners[0].alias}.{column}", column)


def _analyze_select(select: A.Select, cache, analysis: QueryAnalysis, params, depth: int):
    for cte in select.ctes:
        _analyze_select(cte.query, cache, analysis, params, depth + 1)
    scope = _build_scope(select.from_items, cache, analysis)
    for item in select.from_items:
        _analyze_from_item(item, cache, analysis, params, depth, scope)
    if select.where is not None:
        _collect_equalities(select.where, analysis, params, scope)
        _collect_subquery_tables(select.where, cache, analysis, params, scope)
    if select.having is not None:
        _collect_subquery_tables(select.having, cache, analysis, params, scope)
    for entry in select.targets:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else None
        if expr is not None:
            _collect_subquery_tables(expr, cache, analysis, params, scope)
    # ORDER BY / GROUP BY expressions run on the workers too: a subquery in
    # them reads shards like one in the targets does.
    for expr in [*(key.expr for key in select.order_by), *select.group_by]:
        _collect_subquery_tables(expr, cache, analysis, params, scope)
    # Does an inner (non-top-level) query aggregate across shards? That
    # blocks pushdown: only the outermost aggregation can be split into
    # partial/merge phases.
    if depth > 0 and _has_cross_shard_aggregate(select, cache):
        analysis.inner_cross_shard_agg = True
    for _op, rhs in select.set_ops:
        _analyze_select(rhs, cache, analysis, params, depth)


def _analyze_from_item(item, cache, analysis, params, depth, scope=None):
    if isinstance(item, A.TableRef):
        _add_occurrence(item.name, item.ref_name, cache, analysis)
    elif isinstance(item, A.SubqueryRef):
        analysis.has_subquery_from = True
        _analyze_select(item.query, cache, analysis, params, depth + 1)
        # Column refs through the subquery alias join the equivalence web via
        # the subquery's target names: alias.colname ~ target expr when the
        # target is a plain column reference.
        inner_scope = _build_scope(item.query.from_items, cache, analysis)
        for entry in item.query.targets:
            if isinstance(entry, A.TargetEntry) and isinstance(entry.expr, A.ColumnRef):
                out_name = entry.alias or entry.expr.name
                analysis.equivalence.union(
                    f"{item.alias}.{out_name}", _qualify(entry.expr.key, inner_scope)
                )
    elif isinstance(item, A.JoinExpr):
        _analyze_from_item(item.left, cache, analysis, params, depth, scope)
        _analyze_from_item(item.right, cache, analysis, params, depth, scope)
        if item.condition is not None:
            _collect_equalities(item.condition, analysis, params, scope)
            _collect_subquery_tables(item.condition, cache, analysis, params, scope)
        if item.join_type in ("left", "full"):
            analysis.outer_joins.append((_aliases_under(item.left),
                                         _aliases_under(item.right)))
        if item.join_type in ("right", "full"):
            analysis.outer_joins.append((_aliases_under(item.right),
                                         _aliases_under(item.left)))
        for name in item.using:
            left_alias = _leftmost_alias(item.left)
            right_alias = _leftmost_alias(item.right)
            if left_alias and right_alias:
                analysis.equivalence.union(f"{left_alias}.{name}", f"{right_alias}.{name}")


def _aliases_under(item) -> set:
    """The aliases of the tables a FROM item reads, inside subqueries too."""
    return {node.ref_name for node in A.walk(item) if isinstance(node, A.TableRef)}


def _leftmost_alias(item):
    if isinstance(item, A.TableRef):
        return item.ref_name
    if isinstance(item, A.SubqueryRef):
        return item.alias
    if isinstance(item, A.JoinExpr):
        return _leftmost_alias(item.left)
    return None


def _add_occurrence(name, alias, cache, analysis):
    dist = cache.tables.get(name)
    analysis.occurrences.append(TableOccurrence(name, alias, dist))


def _collect_equalities(expr, analysis: QueryAnalysis, params, scope=None) -> None:
    """Register col=col and col=const conjuncts (top-level AND only)."""
    scope = scope or {}
    for conjunct in _conjuncts(expr):
        if isinstance(conjunct, A.BinaryOp) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            left_col = _plain_column(left)
            right_col = _plain_column(right)
            if left_col:
                left_col = _qualify(left_col, scope)
            if right_col:
                right_col = _qualify(right_col, scope)
            if left_col and right_col:
                analysis.equivalence.union(left_col, right_col)
            elif left_col and _is_constant(right):
                _bind_constant(analysis, left_col, _constant_value(right, params))
            elif right_col and _is_constant(left):
                _bind_constant(analysis, right_col, _constant_value(left, params))


def _bind_constant(analysis, col_key, value):
    if value is NO_VALUE:
        return
    const_key = f"{_CONST_MARK}{hash_value(value)}"
    analysis.equivalence.union(col_key, const_key)
    # Stored under the stable const key; constant_for chases the class.
    analysis.constants[const_key] = value


def _conjuncts(expr):
    if isinstance(expr, A.BinaryOp) and expr.op == "and":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _plain_column(expr):
    if isinstance(expr, A.ColumnRef):
        return expr.key
    return None


#: "No constant here": what constant folding and :func:`dist_value_for`
#: answer when None is a value.
NO_VALUE = object()


def _is_constant(expr) -> bool:
    if isinstance(expr, A.Literal):
        return True
    if isinstance(expr, A.Param):
        return True
    if isinstance(expr, A.Cast):
        return _is_constant(expr.operand)
    return False


def _constant_value(expr, params):
    if isinstance(expr, A.Literal):
        return expr.value
    if isinstance(expr, A.Cast):
        inner = _constant_value(expr.operand, params)
        return cast_value(inner, expr.type_name) if inner is not NO_VALUE else NO_VALUE
    if isinstance(expr, A.Param):
        value = param_value(expr, params)
        return NO_VALUE if value is UNBOUND else value
    return NO_VALUE


def _collect_subquery_tables(expr, cache, analysis, params, scope=None) -> None:
    for node in A.walk(expr):
        if isinstance(node, A.SubqueryExpr):
            _analyze_select(node.query, cache, analysis, params, depth=1)
            # `x IN (SELECT col FROM ...)` implies x = col for the matched
            # rows, which keeps pushdown-legal queries like TPC-H Q18
            # (IN over a GROUP BY on the distribution column) routable.
            if (
                node.kind in ("in", "any")
                and isinstance(node.operand, A.ColumnRef)
                and len(node.query.targets) == 1
                and isinstance(node.query.targets[0], A.TargetEntry)
                and isinstance(node.query.targets[0].expr, A.ColumnRef)
                and not node.negated
            ):
                inner_scope = _build_scope(node.query.from_items, cache, analysis)
                analysis.equivalence.union(
                    _qualify(node.operand.key, scope or {}),
                    _qualify(node.query.targets[0].expr.key, inner_scope),
                )


def _has_cross_shard_aggregate(select: A.Select, cache) -> bool:
    """Does this (sub)query aggregate rows without grouping by a
    distribution column of a table it reads?"""
    from ..engine.functions import is_aggregate

    has_agg = False
    for entry in select.targets:
        expr = entry.expr if isinstance(entry, A.TargetEntry) else None
        if expr is None:
            continue
        if any(isinstance(n, A.FuncCall) and is_aggregate(n.name) for n in A.walk(expr)):
            has_agg = True
            break
    if not has_agg and not select.group_by:
        return False
    if not has_agg:
        # plain GROUP BY without aggregates is a distinct-like operation;
        # same rule applies.
        pass
    dist_tables = []
    for item in select.from_items:
        for ref in _flatten_tables(item):
            dist = cache.tables.get(ref.name)
            if dist is not None and not dist.is_reference:
                dist_tables.append((ref, dist))
    if not dist_tables:
        return False
    group_names = set()
    for g in select.group_by:
        if isinstance(g, A.ColumnRef):
            group_names.add(g.name)
    for ref, dist in dist_tables:
        if dist.dist_column in group_names:
            return False
    return True


def _flatten_tables(item):
    if isinstance(item, A.TableRef):
        yield item
    elif isinstance(item, A.JoinExpr):
        yield from _flatten_tables(item.left)
        yield from _flatten_tables(item.right)


# --------------------------------------------------------- tenant extraction

# Tenant extraction is memoized on the statement's StatementFacts, so the
# WHERE-clause walk runs once per distinct statement and metadata state;
# per execution only a pre-compiled value lookup remains.

#: Resolver kinds a tenant expression compiles to (see _compile_tenant_plan).
_K_VALUE, _K_NAMED, _K_POSITIONAL, _K_EXPR = 0, 1, 2, 3


def _is_dist_ref(expr, dist, alias) -> bool:
    return (
        isinstance(expr, A.ColumnRef)
        and expr.name == dist.dist_column
        and expr.table in (None, alias)
    )


def _find_tenant_exprs(cache, stmt):
    """Candidate AST expressions holding the statement's distribution-column
    value (``dist_col = <expr>`` conjuncts, or the INSERT column), or None
    when the statement is not single-tenant-shaped."""
    if isinstance(stmt, A.Insert):
        dist = cache.tables.get(stmt.table)
        if dist is None or dist.is_reference or stmt.select is not None:
            return None
        if len(stmt.rows) != 1 or dist.dist_column not in stmt.columns:
            return None
        return (stmt.rows[0][stmt.columns.index(dist.dist_column)],)
    if isinstance(stmt, A.Select):
        if len(stmt.from_items) != 1 or not isinstance(
            stmt.from_items[0], A.TableRef
        ):
            return None
        dist = cache.tables.get(stmt.from_items[0].name)
        where, alias = stmt.where, stmt.from_items[0].ref_name
    elif isinstance(stmt, (A.Update, A.Delete)):
        dist = cache.tables.get(stmt.table)
        where, alias = stmt.where, stmt.alias or stmt.table
    else:
        return None
    if dist is None or dist.is_reference or where is None:
        return None
    exprs = []
    for conjunct in _conjuncts(where):
        if not (isinstance(conjunct, A.BinaryOp) and conjunct.op == "="):
            continue
        left, right = conjunct.left, conjunct.right
        if _is_dist_ref(right, dist, alias):
            left, right = right, left
        if _is_dist_ref(left, dist, alias):
            exprs.append(right)
    return tuple(exprs) or None


def _compile_tenant_plan(exprs):
    """Lower candidate expressions into (kind, payload) resolver steps so
    the per-execution path is a couple of inline dict lookups — no AST
    dispatch, no constant folding for the common literal/param shapes."""
    if not exprs:
        return None
    plan = []
    for expr in exprs:
        if type(expr) is A.Literal:
            plan.append((_K_VALUE, expr.value))
        elif type(expr) is A.Param:
            if expr.name is not None:
                plan.append((_K_NAMED, expr.name))
            elif expr.index is not None:
                plan.append((_K_POSITIONAL, expr.index))
        else:
            # Casts and anything exotic fall back to full constant folding.
            plan.append((_K_EXPR, expr))
    return tuple(plan) or None


def dist_value_for(cache: MetadataCache, facts: StatementFacts, params):
    """The distribution-column value a single-tenant-shaped statement names
    (the first ``dist_col = <constant>`` conjunct that resolves under
    ``params``, or the INSERT's distribution column), else :data:`NO_VALUE`.
    The one extractor: the fast path's bind routes on it (over the shape's
    template and the execution's bound parameters) and tenant attribution
    reports it."""
    if facts.tenant_in is not cache:
        facts.tenant_plan = _compile_tenant_plan(
            _find_tenant_exprs(cache, facts.stmt))
        facts.tenant_in = cache
    plan = facts.tenant_plan
    if plan is None:
        return NO_VALUE
    named = positional = None
    params_type = type(params)
    if params_type is dict:
        named = params
    elif params_type is BoundParams:
        named = params.named
        positional = params.positional
    elif isinstance(params, (list, tuple)):
        positional = params
    elif isinstance(params, dict):
        named = params
    for kind, payload in plan:
        if kind == _K_VALUE:
            return payload
        if kind == _K_NAMED:
            if named is not None and payload in named:
                return named[payload]
        elif kind == _K_POSITIONAL:
            if positional is not None and payload <= len(positional):
                return positional[payload - 1]
        else:
            value = _constant_value(payload, params)
            if value is not NO_VALUE:
                return value
    return NO_VALUE


def partition_key_for(cache: MetadataCache, facts: StatementFacts, params):
    """The ``partition_key`` attribute of citus_stat_statements:
    :func:`dist_value_for`, with None for multi-shard statements and for a
    value that does not fold (a failing cast)."""
    try:
        value = dist_value_for(cache, facts, params)
    except ReproError:
        return None
    return None if value is NO_VALUE else value


def prune_shards(table: DistributedTable, where, params=None, alias: str | None = None):
    """Shard indexes that may contain rows matching the filter.

    Handles ``dist_col = const`` (single shard) and ``dist_col IN (...)``.
    Anything else returns all shards.
    """
    if table.is_reference:
        return [0]
    all_indexes = list(range(table.shard_count))
    if where is None:
        return all_indexes
    alias = alias or table.name
    matches: set[int] | None = None
    for conjunct in _conjuncts(where):
        values = _dist_filter_values(conjunct, table, alias, params)
        if values is not None:
            shard_set = set()
            for v in values:
                try:
                    shard_set.add(table.shard_index_for_value(v))
                except Exception:
                    pass  # value outside all ranges: matches no shard
            matches = shard_set if matches is None else (matches & shard_set)
            continue
        if table.method == RANGE:
            # Range tables additionally prune inequality predicates on the
            # distribution column by shard-interval overlap.
            interval = _dist_range_bound(conjunct, table, alias, params)
            if interval is not None:
                low, high = interval
                shard_set = {
                    i for i, shard in enumerate(table.shards)
                    if (low is None or shard.max_value >= low)
                    and (high is None or shard.min_value <= high)
                }
                matches = shard_set if matches is None else (matches & shard_set)
    return sorted(matches) if matches is not None else all_indexes


def _dist_range_bound(conjunct, table, alias, params):
    """(low, high) bound implied by an inequality/BETWEEN on the dist col
    of a range-partitioned table; None when not applicable."""
    if isinstance(conjunct, A.BetweenExpr) and not conjunct.negated:
        if _is_dist_col(conjunct.operand, table, alias):
            low = _constant_value(conjunct.low, params) if _is_constant(conjunct.low) else NO_VALUE
            high = _constant_value(conjunct.high, params) if _is_constant(conjunct.high) else NO_VALUE
            if low is not NO_VALUE and high is not NO_VALUE:
                return (low, high)
        return None
    if not (isinstance(conjunct, A.BinaryOp) and conjunct.op in ("<", "<=", ">", ">=")):
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    if _is_dist_col(right, table, alias) and _is_constant(left):
        left, right, op = right, left, flipped[op]
    if not (_is_dist_col(left, table, alias) and _is_constant(right)):
        return None
    value = _constant_value(right, params)
    if value is NO_VALUE:
        return None
    if op in (">", ">="):
        return (value + (1 if op == ">" else 0), None)
    return (None, value - (1 if op == "<" else 0))


def _dist_filter_values(conjunct, table, alias, params):
    if isinstance(conjunct, A.BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if _is_dist_col(right, table, alias) and _is_constant(left):
            left, right = right, left
        if _is_dist_col(left, table, alias) and _is_constant(right):
            value = _constant_value(right, params)
            return None if value is NO_VALUE else [value]
    if isinstance(conjunct, A.InList) and not conjunct.negated:
        if _is_dist_col(conjunct.operand, table, alias):
            values = []
            for item in conjunct.items:
                if not _is_constant(item):
                    return None
                value = _constant_value(item, params)
                if value is NO_VALUE:
                    return None
                values.append(value)
            return values
    return None


def _is_dist_col(expr, table: DistributedTable, alias: str) -> bool:
    return (
        isinstance(expr, A.ColumnRef)
        and expr.name == table.dist_column
        and expr.table in (None, alias, table.name)
    )
