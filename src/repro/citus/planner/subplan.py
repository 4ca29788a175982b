"""Intermediate results (§3.5) and the run-once plan that makes them.

A statement reads an intermediate result where a part of it cannot run per
shard: a subquery level that runs once, or the moved side of a
non-co-located join (``join_order``). Each is a level of one
:class:`SubplanPlan`. :func:`land` creates an intermediate, moves the rows
in, registers it in the metadata cache and drops it again;
:func:`read_from` rewrites a statement to read it.
"""

from __future__ import annotations

import itertools
import weakref
from contextlib import ExitStack, closing, contextmanager
from dataclasses import replace

from ...engine.catalog import Column, Table
from ...engine.datum import ANYELEMENT
from ...engine.executor import level_names
from ...sql import ast as A
from ..copy_dist import copy_targets, move_rows
from ..ddl import drop_quietly, shard_ddl
from ..metadata import REFERENCE, DistributedTable, ShardInterval
from ..sharding import analyze_statement
from .tasks import CitusPlan, sql_with_values


@contextmanager
def land(ext, transient: DistributedTable, targets, rows):
    """The one step that makes a statement's intermediate result (§3.5):
    ``rows`` — a subplan level's — are landed as ``transient`` into tables
    of its ``columns`` (copies of their names and types, none of their
    constraints) at ``targets`` (``(node, shard group, table)`` per COPY
    channel), and ``transient`` is registered in the metadata cache, so the
    statement reading it plans as over any Citus table: its columns are
    what the planner reads, never a catalog. On exit it is unregistered and
    its tables dropped, whatever happened; closing ``rows`` is the
    caller's. The first row is pulled before any table exists, so a read
    that fails to start leaves nothing to drop."""
    cache = ext.metadata.cache
    table = Table(transient.name, [Column(c.name, c.type_name)
                                   for c in transient.columns])
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
    each node it maps by ``id``, is read from what it maps to: for a table,
    a table name or a query (a CTE's, or one reading an intermediate's
    columns back under the level's names); for any other node (a subquery
    level, a WHERE conjunct a level applied) the node in its place."""
    if isinstance(node, (list, tuple)):
        return type(node)(read_from(item, names) for item in node)
    if not isinstance(node, A.Node):
        return node
    if isinstance(node, A.TableRef):
        source = names.get(id(node), names.get(node.name))
        if source is not None:
            return (A.TableRef(source, alias=node.ref_name)
                    if isinstance(source, str)
                    else A.SubqueryRef(source.copy(), node.ref_name))
    elif id(node) in names:
        node = names[id(node)].copy()
    return type(node)(**{
        name: read_from(getattr(node, name), names) if may_hold_nodes
        else getattr(node, name)
        for name, may_hold_nodes in A.node_fields(type(node))})


#: An intermediate is ``citus_subplan_<session>_<position>``: no two
#: sessions' names meet on a node, and a level is named by its position
#: among the session's intermediates in the cache (an earlier round's are
#: there), the same every time the statement is planned.
INTERMEDIATE = "citus_subplan_"
_sessions, _session_numbers = weakref.WeakKeyDictionary(), itertools.count(1)


class SubplanPlan(CitusPlan):
    """A SELECT, UPDATE or DELETE some parts of which cannot run per shard
    (§3.5's recursive planning): its levels (:func:`~.pushdown.run_once`'s,
    by ``id`` or table name; a join's moved side). Each is planned through
    the cascade and runs once into an intermediate (:func:`land`): over
    ``over``'s anchor's shard intervals by its join column (a
    re-partition), else whole on every node reading it. The rest, reading
    the intermediates in their place and ``pushed``'s conjuncts as TRUE,
    goes through the cascade again; a SubplanPlan that makes (what the rest
    still runs once, or its next move) gives this plan its levels and
    ``moves`` (one record per join move), so none nests another. Planned
    every time: nothing of it is kept in the plan cache."""

    tier = "subplan"
    detail = "Subplans (run once)"

    def __init__(self, ext, session, stmt, params, levels, analysis,
                 over=(), pushed=(), move=None):
        from .distributed import _plan  # the cascade plans every level

        super().__init__(ext)
        cache = ext.metadata.cache
        readers = {id(conjunct): A.Literal(True) for conjunct in pushed}
        number = _sessions.get(session) or _sessions.setdefault(
            session, next(_session_numbers))
        #: Per level: its plan and the intermediate its rows land in; and
        #: where the levels read (a later round's read earlier intermediates).
        self.subplans, self.queries, self.level_nodes = [], [], set()
        self.moves = [move] if move else []
        try:
            for key, level in levels.items():
                transient, readers[key] = _intermediate(next(
                    name for n in itertools.count(1)
                    if (name := f"{INTERMEDIATE}{number}_{n}") not in cache.tables),
                    level_names(level, analysis.column_names), *over)
                self.subplans.append((_plan(ext, session, level, params,
                                            None), transient))
                self.queries.append(sql_with_values(level, params))
                if any(isinstance(node, A.TableRef)
                       and node.name.startswith(INTERMEDIATE)
                       for node in A.walk(level)):
                    self.level_nodes |= _reading_nodes(ext, level, params)
                cache.tables[transient.name] = transient
            stmt = read_from(stmt, readers)
            nodes = _reading_nodes(ext, stmt, params)
            plan = _plan(ext, session, stmt, params, None)
            if isinstance(plan, SubplanPlan):
                self.subplans += plan.subplans
                self.queries += plan.queries
                self.moves += plan.moves
                self.level_nodes |= plan.level_nodes
                nodes |= plan.level_nodes.union(plan.nodes)
                plan = plan.plan
            self.nodes, self.plan = sorted(nodes), plan
        finally:
            for _subplan, transient in self.subplans:
                cache.tables.pop(transient.name, None)

    def execute(self, session, params):
        cache = self.ext.metadata.cache
        with ExitStack() as landed:
            for plan, transient in self.subplans:
                targets = ([(node, None, transient.shards[0].shard_name)
                            for node in self.nodes] if transient.is_reference
                           else copy_targets(cache, transient))
                rows = landed.enter_context(closing(plan.rows(session, params)))
                landed.enter_context(land(self.ext, transient, targets, rows))
            return self.plan.execute(session, params)

    def explain_info(self):
        return {**self.plan.explain_info(), "tier": self.tier,
                "detail": self.detail, "subplan": {
                    "strategy": "subplan", "queries": self.queries,
                    **({"moves": self.moves} if self.moves else {})}}


def _reading_nodes(ext, stmt, params) -> set:
    """Where ``stmt``, the rest of a statement or a level, reads
    intermediates: beside the shards it reads, on every replica of a
    reference table it writes, and on the coordinator when it runs there (a
    SELECT whose own FROM reads no shard, a write to a local table)."""
    cache = ext.metadata.cache
    analysis = analyze_statement(stmt, cache, params, ext.instance.catalog)
    nodes = {cache.placement_node(shard.shardid)
             for occ in analysis.distributed for shard in occ.dist.shards}
    written = cache.tables.get(getattr(stmt, "table", None))
    if written is not None and written.is_reference:
        nodes.update(cache.placements[written.shards[0].shardid])
    elif written is None and not any(level is stmt for level in analysis.levels):
        nodes.add(ext.instance.name)
    return nodes


def _intermediate(name: str, names: list[str], anchor=None, column=None):
    """Intermediate ``name`` of a level whose output columns ``names``
    lists, its columns c1, c2, ... untyped, and what the rest reads in the
    level's place: those columns under the level's names, which may repeat
    (``SELECT count(*), count(*)``). With an ``anchor``, it is distributed
    over the anchor's shard intervals by the level's output ``column``;
    else every node reads it whole."""
    columns = [Column(f"c{i}", ANYELEMENT) for i in range(1, len(names) + 1)]
    transient = (DistributedTable(name, REFERENCE, None, None, -1,
                                  [ShardInterval(0, name, None, None)], columns)
                 if anchor is None else replace(
                     anchor, name=name, dist_column=f"c{names.index(column) + 1}",
                     shards=[replace(s, table_name=name) for s in anchor.shards],
                     columns=columns))
    return transient, A.Select(
        targets=[A.TargetEntry(A.ColumnRef(col.name), out)
                 for col, out in zip(columns, names)],
        from_items=[A.TableRef(name)])
