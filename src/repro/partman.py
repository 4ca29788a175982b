"""pg_partman-style time partitioning — a *second* extension (§6).

The related-work section notes that "Citus does work with pg_partman …
many real-time analytics applications that use Citus also use pg_partman
on top of distributed tables, in which case the individual shards are
locally partitioned to get both the benefits of distributed tables and
time partitioning."

This module reproduces that composition: ``install_partman(instance)``
registers a planner hook and a UDF through the *same* extension API Citus
uses. ``create_parent('table', 'column', width)`` turns a table into a
range-partitioned parent over an integer time column:

- INSERT/COPY on the parent routes rows to child partitions
  ``<parent>_p<start>`` (created on demand per interval);
- SELECT on the parent scans only the children whose interval overlaps the
  query's partition-column predicates (partition pruning);
- UPDATE/DELETE fan out to the (pruned) children.

Because both extensions speak through hooks, a Citus worker with partman
installed partitions *shard* tables locally — the exact layering the paper
describes. Hook ordering decides conflicts (the Citus/TimescaleDB
incompatibility of §6): partman must be installed after Citus so the
distributed planner sees distributed tables first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine.executor import QueryResult
from .errors import DataError, MetadataError
from .sql import ast as A
from .sql.facts import statement_facts


@dataclass
class PartmanParent:
    table: str
    column: str
    width: int
    children: dict[int, str] = field(default_factory=dict)  # start -> child name


class PartmanExtension:
    def __init__(self, instance):
        self.instance = instance
        self.parents: dict[str, PartmanParent] = {}
        instance.extensions["pg_partman"] = self

    # ------------------------------------------------------------- setup

    def create_parent(self, session, table: str, column: str, width: int) -> str:
        catalog = self.instance.catalog
        shell = catalog.get_table(table)
        col = shell.column(column)
        if col.type_name not in ("int", "bigint"):
            raise MetadataError(
                "partman reproduction partitions on integer time columns"
            )
        if table in self.parents:
            raise MetadataError(f"{table!r} is already partitioned")
        parent = PartmanParent(table, column, int(width))
        # Read existing rows BEFORE registering the parent: registration
        # flips the planner hook on, which would scan the (empty) children.
        rows = [list(t) for t in session.execute(f"SELECT * FROM {table}").rows]
        self.parents[table] = parent
        if rows:
            position = shell.column_index(column)
            table_obj = self.instance.catalog.get_table(table)
            session.acquire_table_lock(table, "AccessExclusive")
            table_obj.heap.__init__(table)
            from .engine.instance import _fresh_index_structure

            for index in table_obj.indexes.values():
                index.data = _fresh_index_structure(index)
            self._route_rows(session, parent, shell, rows, position)
        return table

    # ------------------------------------------------------------ routing

    def _child_for(self, session, parent: PartmanParent, value: int) -> str:
        start = (int(value) // parent.width) * parent.width
        child = parent.children.get(start)
        if child is None:
            child = f"{parent.table}_p{start}"
            shell = self.instance.catalog.get_table(parent.table)
            from .citus.ddl import table_to_create_stmt

            stmt = table_to_create_stmt(shell)
            stmt.name = child
            stmt.foreign_keys = []
            stmt.if_not_exists = True
            session._execute_utility(stmt, None, None)
            parent.children[start] = child
        return child

    def _route_rows(self, session, parent, shell, rows, position) -> int:
        buckets: dict[str, list] = {}
        for row in rows:
            value = row[position]
            if value is None:
                raise DataError(
                    f"partition column {parent.column!r} cannot be NULL"
                )
            child = self._child_for(session, parent, value)
            buckets.setdefault(child, []).append(row)
        total = 0
        for child, child_rows in buckets.items():
            total += session.copy_rows(child, child_rows)
        return total

    # ----------------------------------------------------------- pruning

    def pruned_children(self, parent: PartmanParent, where, params) -> list[str]:
        from .citus.sharding import _conjuncts, _dist_range_bound, _is_constant, \
            _constant_value, NO_VALUE

        children = sorted(parent.children.items())
        if where is None:
            return [name for _start, name in children]

        class _Probe:
            dist_column = parent.column
            name = parent.table

        low = high = None
        for conjunct in _conjuncts(where):
            if isinstance(conjunct, A.BinaryOp) and conjunct.op == "=":
                left, right = conjunct.left, conjunct.right
                if isinstance(right, A.ColumnRef):
                    left, right = right, left
                if (
                    isinstance(left, A.ColumnRef)
                    and left.name == parent.column
                    and _is_constant(right)
                ):
                    value = _constant_value(right, params)
                    if value is not NO_VALUE:
                        low = high = value
                continue
            bound = _dist_range_bound(conjunct, _Probe, parent.table, params)
            if bound is not None:
                blow, bhigh = bound
                if blow is not None:
                    low = blow if low is None else max(low, blow)
                if bhigh is not None:
                    high = bhigh if high is None else min(high, bhigh)
        out = []
        for start, name in children:
            end = start + parent.width - 1
            if low is not None and end < low:
                continue
            if high is not None and start > high:
                continue
            out.append(name)
        return out


class _PartitionedScanPlan:
    """CustomScan over the pruned children: the parent reference is
    rewritten into a UNION ALL subquery over the surviving partitions
    (PostgreSQL's Append node), so filters, joins, aggregation, ordering
    and limits all apply unchanged."""

    def __init__(self, ext: PartmanExtension, stmt, children: list[str], alias: str):
        self.ext = ext
        self.stmt = stmt
        self.children = children
        self.alias = alias

    def execute(self, session, params):
        rewritten = self.stmt.copy()
        parent_name = self.stmt.from_items[0].name
        if self.children:
            union = A.Select(
                targets=[A.TargetEntry(A.Star())],
                from_items=[A.TableRef(self.children[0])],
            )
            for child in self.children[1:]:
                union.set_ops.append((
                    "union all",
                    A.Select(targets=[A.TargetEntry(A.Star())],
                             from_items=[A.TableRef(child)]),
                ))
        else:
            # No partition survives pruning: scan the (empty) shell with an
            # always-false filter to keep the output shape.
            union = A.Select(
                targets=[A.TargetEntry(A.Star())],
                from_items=[A.TableRef(parent_name)],
                where=A.BinaryOp("=", A.Literal(1), A.Literal(0)),
            )
        rewritten.from_items = [A.SubqueryRef(union, self.alias)] + [
            f.copy() for f in self.stmt.from_items[1:]
        ]
        return session._execute_local_dml(rewritten, params)

    def explain_lines(self):
        lines = ["Append (partman partitions)"]
        for child in self.children:
            lines.append(f"  -> Scan on {child}")
        return lines


def install_partman(instance) -> PartmanExtension:
    ext = PartmanExtension(instance)

    def create_parent_udf(session, table, column, width):
        return ext.create_parent(session, table, column, int(width))

    instance.catalog.register_function("create_parent", create_parent_udf)

    def show_partitions_udf(session, table):
        parent = ext.parents.get(table)
        if parent is None:
            raise MetadataError(f"{table!r} is not partitioned")
        return [name for _s, name in sorted(parent.children.items())]

    instance.catalog.register_function("show_partitions", show_partitions_udf)

    def planner_hook(session, stmt, params):
        if isinstance(stmt, A.Select):
            if (
                stmt.from_items
                and isinstance(stmt.from_items[0], A.TableRef)
                and stmt.from_items[0].name in ext.parents
            ):
                ref = stmt.from_items[0]
                parent = ext.parents[ref.name]
                children = ext.pruned_children(parent, stmt.where, params)
                return _PartitionedScanPlan(ext, stmt, children, ref.ref_name)
            # A parent anywhere else (join right side, subquery) would read
            # the empty shell silently: refuse instead.
            if any(name in ext.parents for name in statement_facts(stmt).tables):
                raise MetadataError(
                    "partitioned parents are supported as the leading FROM"
                    " table in this reproduction"
                )
            return None
        if isinstance(stmt, A.Insert) and stmt.table in ext.parents:
            return _PartitionedInsertPlan(ext, stmt)
        if isinstance(stmt, (A.Update, A.Delete)) and stmt.table in ext.parents:
            return _PartitionedDmlPlan(ext, stmt)
        return None

    instance.hooks.planner_hooks.append(planner_hook)

    def utility_hook(session, stmt):
        if isinstance(stmt, A.Copy) and stmt.direction == "from" \
                and stmt.table in ext.parents:
            parent = ext.parents[stmt.table]
            shell = instance.catalog.get_table(stmt.table)
            from .engine.copy import _normalize_rows

            copy_data = getattr(session, "_pending_copy_data", None)
            if copy_data is None:
                raise DataError("COPY FROM STDIN requires copy_data")
            rows = [list(r) for r in _normalize_rows(copy_data, session, stmt)]
            columns = stmt.columns or shell.column_names()
            position = columns.index(parent.column)
            count = ext._route_rows(session, parent, shell, rows, position)
            result = QueryResult([], [], command="COPY")
            result.rowcount = count
            return result
        return None

    instance.hooks.utility_hooks.append(utility_hook)
    return ext


class _PartitionedInsertPlan:
    def __init__(self, ext, stmt):
        self.ext = ext
        self.stmt = stmt

    def execute(self, session, params):
        from .engine.compile import evaluate
        from .engine.expr import EvalContext, Row

        stmt = self.stmt
        shell = self.ext.instance.catalog.get_table(stmt.table)
        parent = self.ext.parents[stmt.table]
        columns = stmt.columns or shell.column_names()
        position = columns.index(parent.column)
        ctx = EvalContext(row=Row(), params=params, session=session)
        rows = [[evaluate(v, ctx) for v in row] for row in stmt.rows]
        count = self.ext._route_rows(session, parent, shell, rows, position)
        result = QueryResult([], [], command="INSERT")
        result.rowcount = count
        return result

    def explain_lines(self):
        return ["Insert (partman routed)"]


class _PartitionedDmlPlan:
    def __init__(self, ext, stmt):
        self.ext = ext
        self.stmt = stmt

    def execute(self, session, params):
        parent = self.ext.parents[self.stmt.table]
        children = self.ext.pruned_children(parent, self.stmt.where, params)
        total = 0
        for child in children:
            rewritten = self.stmt.copy()
            rewritten.table = child
            if getattr(rewritten, "alias", None) is None and not isinstance(
                rewritten, A.Insert
            ):
                rewritten.alias = self.stmt.table
            result = session._execute_local_dml(rewritten, params)
            total += result.rowcount
        command = "UPDATE" if isinstance(self.stmt, A.Update) else "DELETE"
        result = QueryResult([], [], command=command)
        result.rowcount = total
        return result

    def explain_lines(self):
        return ["DML (partman fan-out)"]
