"""Tasks and shard-name rewriting.

A distributed query plan is "a set of tasks (queries on shards) to run on
the workers" (§3.5). A :class:`Task` carries the rewritten SQL, the target
node, and the co-located shard group key used for connection affinity in
the adaptive executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...sql import ast as A
from ...sql.deparse import deparse


@dataclass
class Task:
    node: str
    sql: str | None
    params: object = None
    # (colocation_id, shard_index): tasks touching the same co-located shard
    # group must reuse the same connection within a transaction (§3.6.1).
    shard_group: tuple | None = None
    returns_rows: bool = True
    # Pre-parsed rewritten statement. When set, the executor ships the AST
    # directly (no deparse → lex → parse round-trip) and ``sql`` is only
    # materialized lazily for EXPLAIN/observability via :meth:`sql_text`.
    # Shard-rewritten ASTs may be shared across tasks and sessions, so they
    # must never be mutated downstream.
    stmt: object = None

    def sql_text(self) -> str | None:
        if self.sql is None and self.stmt is not None:
            stmt = self.stmt
            from ...engine.expr import BoundParams

            if type(self.params) is BoundParams:
                # Plan-cache replay templates carry synthetic parameter
                # markers; substitute the bound values so EXPLAIN shows the
                # same SQL a freshly planned statement would.
                stmt = _substitute_bound(stmt, self.params)
            self.sql = deparse(stmt)
        return self.sql


def _substitute_bound(stmt, bound):
    """Replace every resolvable parameter marker with its bound value."""

    def visit(node):
        if isinstance(node, A.Param):
            if node.index is not None and bound.positional is not None \
                    and node.index <= len(bound.positional):
                return A.Literal(bound.positional[node.index - 1])
            if node.name is not None and node.name in bound.named:
                return A.Literal(bound.named[node.name])
        return node

    return A.transform(stmt.copy(), visit)


def rewrite_to_shard(stmt, cache, shard_index: int | None):
    """Rewrite every Citus table reference in the statement to the shard
    name for ``shard_index`` (distributed) or the replica name (reference).

    Returns a new AST; the input is not modified.
    """

    def rename(name: str) -> str:
        dist = cache.tables.get(name)
        if dist is None:
            return name
        if dist.is_reference:
            return dist.shards[0].shard_name
        if shard_index is None:
            raise ValueError(f"no shard index for distributed table {name!r}")
        return dist.shards[shard_index].shard_name

    def visit(node):
        if isinstance(node, A.TableRef):
            new_name = rename(node.name)
            if new_name != node.name:
                # Keep the original name visible as the alias so column
                # references like ``orders.key`` keep resolving.
                return A.TableRef(new_name, alias=node.alias or node.name)
            return node
        if isinstance(node, (A.Insert, A.Update, A.Delete)):
            renamed = rename(node.table)
            if renamed != node.table:
                node = node.copy()
                if isinstance(node, (A.Update, A.Delete)) and node.alias is None:
                    node.alias = node.table
                node.table = renamed
            return node
        return node

    return A.transform(stmt.copy(), visit)


def task_sql_for_shard(stmt, cache, shard_index: int | None) -> str:
    return deparse(rewrite_to_shard(stmt, cache, shard_index))
