"""Intermediate results (§3.5): the one step that makes them.

A statement reads an intermediate result where a part of it cannot run per
shard: the moved side of a non-co-located join (``join_order``), or a
subquery level that runs once as a subplan (``distributed.SubplanPlan``).
:func:`land` creates it, moves the rows in, registers it in the metadata
cache and drops it again; :func:`read_from` rewrites a statement to read it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import replace

from ...engine.catalog import Column, Table
from ...sql import ast as A
from ..copy_dist import move_rows, select_star
from ..ddl import drop_quietly, shard_ddl
from ..metadata import REFERENCE, DistributedTable, ShardInterval


def reference_intermediate(name: str) -> DistributedTable:
    """The metadata of an intermediate result every node reads whole."""
    return DistributedTable(name, REFERENCE, None, None, -1,
                            [ShardInterval(0, name, None, None)])


@contextmanager
def land(ext, transient: DistributedTable, columns, targets, rows):
    """The one step that makes a statement's intermediate result (§3.5):
    ``rows`` — a subplan's, or a join's moved side — are landed as
    ``transient`` into tables of ``columns`` (copies of their names and
    types, none of their constraints) at ``targets`` (``(node, shard group,
    table)`` per COPY channel), and ``transient`` is registered in the
    metadata cache, so the statement reading it plans as over any Citus
    table. On exit it is unregistered and its tables dropped, whatever
    happened; closing ``rows`` is the caller's. The first row is pulled
    before any table exists, so a read that fails to start leaves nothing
    to drop."""
    cache = ext.metadata.cache
    table = Table(transient.name, [Column(c.name, c.type_name) for c in columns])
    created: list[tuple] = []  # (node, table_name)
    try:
        head = list(itertools.islice(rows, 1))
        for node, _group, name in targets:
            conn = ext.worker_connection(node)
            for stmt in shard_ddl(cache, table, name, {}):
                conn.execute_parsed(stmt)
            created.append((node, name))
        ext.stat_counters.incr("repartition_rows_moved", move_rows(
            ext, transient, table, targets, itertools.chain(head, rows)))
        cache.tables[transient.name] = transient
        yield
    finally:
        cache.tables.pop(transient.name, None)
        for node, name in created:
            drop_quietly(ext, node, name)


def read_from(node, names: dict):
    """A copy of ``node`` in which each table ``names`` maps by name, and
    each subquery level it maps by ``id``, is read from what it maps to: a
    table name, or a query (a CTE's, or one reading an intermediate's
    columns back under the level's names)."""
    if isinstance(node, (list, tuple)):
        return type(node)(read_from(item, names) for item in node)
    if not isinstance(node, A.Node):
        return node
    if isinstance(node, A.TableRef) and node.name in names:
        source = names[node.name]
        return (A.TableRef(source, alias=node.ref_name) if isinstance(source, str)
                else A.SubqueryRef(source.copy(), node.ref_name))
    level = getattr(node, "query", None)
    if isinstance(node, (A.SubqueryRef, A.SubqueryExpr)) and id(level) in names:
        source = names[id(level)]
        if isinstance(source, str):
            if isinstance(node, A.SubqueryRef):
                return A.TableRef(source, alias=node.alias)
            source = select_star(source)
        node = replace(node, query=source.copy())
    return type(node)(**{
        name: read_from(getattr(node, name), names) if may_hold_nodes
        else getattr(node, name)
        for name, may_hold_nodes in A.node_fields(type(node))})
