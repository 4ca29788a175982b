"""Abstract syntax tree for the SQL dialect understood by the engine.

The node set covers the PostgreSQL subset that the Citus paper's workloads
need: full SELECT (joins, subqueries, grouping, ordering, set operations),
DML with RETURNING, DDL, transaction control including the two-phase-commit
statements (PREPARE TRANSACTION / COMMIT PREPARED / ROLLBACK PREPARED),
COPY, CALL, and utility statements.

All nodes are frozen-ish dataclasses (mutable for planner rewrites where
noted). ``render``/``deparse`` lives in :mod:`repro.sql.deparse` because the
distributed layer must turn planned queries back into SQL text to ship to
worker nodes, exactly as Citus rewrites table names to shard names.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional


class Node:
    """Base class for all AST nodes."""

    def copy(self):
        """Shallow-ish structural copy (deep over Node children and lists)."""
        return _copy_node(self)


def _copy_node(obj):
    if isinstance(obj, Node):
        kwargs = {}
        for f in dataclasses.fields(obj):
            kwargs[f.name] = _copy_node(getattr(obj, f.name))
        return type(obj)(**kwargs)
    if isinstance(obj, list):
        return [_copy_node(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_node(v) for v in obj)
    return obj


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class Literal(Expr):
    value: object

    def __repr__(self):
        return f"Literal({self.value!r})"


@dataclass
class Param(Expr):
    """A query parameter: ``$1`` (1-based index) or ``:name``."""

    index: Optional[int] = None
    name: Optional[str] = None


@dataclass
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expr):
    """``*`` or ``alias.*`` in a target list or ``count(*)``."""

    table: Optional[str] = None


@dataclass
class WindowDef(Node):
    """OVER (PARTITION BY ... ORDER BY ...) — frames default to
    PostgreSQL's (range between unbounded preceding and current row)."""

    partition_by: list = field(default_factory=list)
    order_by: list = field(default_factory=list)  # list[SortKey]


@dataclass
class FuncCall(Expr):
    name: str
    args: list = field(default_factory=list)
    distinct: bool = False
    # Set by the local planner when the aggregate should emit/consume
    # partial state (distributed two-phase aggregation).
    agg_phase: Optional[str] = None  # None | "partial" | "merge"
    order_by: list = field(default_factory=list)
    filter: Optional[Expr] = None
    # Present when this is a window function call (fn(...) OVER (...)).
    over: Optional[WindowDef] = None


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass
class Cast(Expr):
    operand: Expr
    type_name: str


@dataclass
class CaseExpr(Expr):
    whens: list = field(default_factory=list)  # list[(cond_expr, result_expr)]
    else_result: Optional[Expr] = None
    # CASE <operand> WHEN <val> ... form keeps the operand here.
    operand: Optional[Expr] = None


@dataclass
class ArrayExpr(Expr):
    elements: list = field(default_factory=list)


@dataclass
class InList(Expr):
    operand: Expr
    items: list = field(default_factory=list)
    negated: bool = False


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class SubqueryExpr(Expr):
    """Scalar subquery, ``IN (SELECT ..)``, ``EXISTS (SELECT ..)``, or
    ``expr op ANY/ALL (SELECT ..)``."""

    query: "Select"
    kind: str = "scalar"  # scalar | in | exists | any | all
    operand: Optional[Expr] = None
    op: Optional[str] = None
    negated: bool = False


# --------------------------------------------------------------------------
# FROM clause
# --------------------------------------------------------------------------


@dataclass
class FromItem(Node):
    pass


@dataclass
class TableRef(FromItem):
    name: str
    alias: Optional[str] = None

    @property
    def ref_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(FromItem):
    query: "Select"
    alias: str


@dataclass
class FunctionRef(FromItem):
    """FROM generate_series(..) AS alias — set-returning function source."""

    func: FuncCall
    alias: str
    column_names: list = field(default_factory=list)


@dataclass
class JoinExpr(FromItem):
    left: FromItem
    right: FromItem
    join_type: str = "inner"  # inner | left | right | full | cross
    condition: Optional[Expr] = None
    using: list = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Statement(Node):
    pass


@dataclass
class TargetEntry(Node):
    expr: Expr
    alias: Optional[str] = None


@dataclass
class SortKey(Node):
    expr: Expr
    ascending: bool = True
    nulls_first: Optional[bool] = None


@dataclass
class CommonTableExpr(Node):
    name: str
    query: "Select"
    column_names: list = field(default_factory=list)


@dataclass
class Select(Statement):
    targets: list = field(default_factory=list)  # list[TargetEntry | Star]
    from_items: list = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list = field(default_factory=list)  # list[SortKey]
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False
    distinct_on: list = field(default_factory=list)
    ctes: list = field(default_factory=list)  # list[CommonTableExpr]
    # Set operation chain: ("union"|"union all"|"intersect"|"except", Select)
    set_ops: list = field(default_factory=list)
    for_update: bool = False


@dataclass
class OnConflict(Node):
    columns: list = field(default_factory=list)
    action: str = "nothing"  # nothing | update
    updates: list = field(default_factory=list)  # list[(col, expr)]


@dataclass
class Insert(Statement):
    table: str
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # list[list[Expr]]
    select: Optional[Select] = None
    on_conflict: Optional[OnConflict] = None
    returning: list = field(default_factory=list)


@dataclass
class Update(Statement):
    table: str
    alias: Optional[str] = None
    assignments: list = field(default_factory=list)  # list[(col, expr)]
    where: Optional[Expr] = None
    returning: list = field(default_factory=list)


@dataclass
class Delete(Statement):
    table: str
    alias: Optional[str] = None
    where: Optional[Expr] = None
    returning: list = field(default_factory=list)


@dataclass
class ColumnDef(Node):
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Optional[Expr] = None
    references: Optional[tuple] = None  # (table, column)


@dataclass
class ForeignKeyDef(Node):
    columns: list
    ref_table: str
    ref_columns: list
    name: Optional[str] = None


@dataclass
class CreateTable(Statement):
    name: str
    columns: list = field(default_factory=list)  # list[ColumnDef]
    primary_key: list = field(default_factory=list)
    foreign_keys: list = field(default_factory=list)  # list[ForeignKeyDef]
    unique_constraints: list = field(default_factory=list)  # list[list[str]]
    if_not_exists: bool = False
    using: Optional[str] = None  # access method: heap (default) | columnar


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    exprs: list = field(default_factory=list)  # list[Expr]
    unique: bool = False
    using: str = "btree"  # btree | gin
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    names: list = field(default_factory=list)
    if_exists: bool = False
    cascade: bool = False


@dataclass
class DropIndex(Statement):
    name: str
    if_exists: bool = False


@dataclass
class TruncateTable(Statement):
    names: list = field(default_factory=list)


@dataclass
class AlterTable(Statement):
    table: str
    action: str = ""  # add_column | drop_column | add_foreign_key | set_default
    column: Optional[ColumnDef] = None
    column_name: Optional[str] = None
    foreign_key: Optional[ForeignKeyDef] = None
    default: Optional[Expr] = None


@dataclass
class Begin(Statement):
    pass


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    pass


@dataclass
class PrepareTransaction(Statement):
    gid: str = ""


@dataclass
class CommitPrepared(Statement):
    gid: str = ""


@dataclass
class RollbackPrepared(Statement):
    gid: str = ""


@dataclass
class Copy(Statement):
    table: str
    columns: list = field(default_factory=list)
    direction: str = "from"  # from | to
    options: dict = field(default_factory=dict)


@dataclass
class Vacuum(Statement):
    table: Optional[str] = None
    full: bool = False
    analyze: bool = False


@dataclass
class Explain(Statement):
    statement: Statement = None
    analyze: bool = False


@dataclass
class SetVar(Statement):
    name: str = ""
    value: object = None
    is_local: bool = False


@dataclass
class ShowVar(Statement):
    name: str = ""


@dataclass
class CallProcedure(Statement):
    name: str = ""
    args: list = field(default_factory=list)


#: Annotations of fields that can never hold a Node (directly or inside a
#: list/tuple); ``walk`` and ``transform`` skip them.
_SCALAR_ANNOTATIONS = frozenset((
    "str", "bool", "int", "dict",
    "Optional[str]", "Optional[bool]", "Optional[int]",
))
_FIELDS: dict[type, tuple] = {}


def node_fields(cls) -> tuple:
    """``(name, may_hold_nodes)`` per dataclass field, computed once per
    node class instead of calling ``dataclasses.fields`` per visited node."""
    slots = _FIELDS.get(cls)
    if slots is None:
        slots = _FIELDS[cls] = tuple(
            (f.name, f.type not in _SCALAR_ANNOTATIONS)
            for f in dataclasses.fields(cls)
        )
    return slots


def walk(node):
    """Yield every Node in the tree rooted at ``node`` (pre-order)."""
    if isinstance(node, Node):
        yield node
        for name, may_hold_nodes in node_fields(type(node)):
            if may_hold_nodes:
                child = getattr(node, name)
                if child is not None:
                    yield from walk(child)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from walk(item)


def transform(node, fn):
    """Rebuild the tree bottom-up, replacing each Node with ``fn(node)``.

    ``fn`` receives a node whose children have already been transformed and
    returns the (possibly new) node.
    """
    if isinstance(node, Node):
        kwargs = {}
        for name, may_hold_nodes in node_fields(type(node)):
            value = getattr(node, name)
            kwargs[name] = transform(value, fn) if may_hold_nodes else value
        return fn(type(node)(**kwargs))
    if isinstance(node, list):
        return [transform(v, fn) for v in node]
    if isinstance(node, tuple):
        return tuple(transform(v, fn) for v in node)
    return node
