"""Logical join order planner (§3.5): non-co-located joins.

When the join tree cannot be pushed down, one side is streamed through the
ShardCopyRouter (``copy_dist.move_rows``) into an *intermediate result* so
that the join becomes co-located:

- **re-partition join** — the moved table's rows are hashed on the join
  column into buckets aligned with the anchor table's shard ranges and
  loaded into per-shard intermediate tables on the anchor's nodes; network
  cost ≈ size(moved).
- **broadcast join** — the moved table is replicated in full to every node
  holding anchor shards; network cost ≈ size(moved) × #nodes. Chosen when
  the moved side is small or when neither side joins on its distribution
  column.

The planner estimates both costs and "chooses the order that minimizes the
network traffic". After the move, the rewritten query is handed to the
logical pushdown planner — the intermediate table is registered in the
metadata cache as a transient co-located (or reference) table, which makes
the pushdown machinery (including two-phase aggregation) apply unchanged.

Both moves are uses of :func:`~.subplan.land`, the one step that makes a
statement's intermediate result; it also lands the rows of every subquery
level that cannot run per shard, which runs once as a subplan
(:class:`~.distributed.SubplanPlan`).

Scope (documented limitation, cf. the paper's own "4 of the 22 TPC-H
queries are unsupported"): exactly two distributed tables per join; a
correlated subquery that cannot run per shard is unsupported, since a
subplan does not decorrelate.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from dataclasses import replace

from ...errors import UnsupportedDistributedQuery
from ...sql import ast as A
from ..copy_dist import copy_targets, select_star
from ..insert_select import select_row_stream
from ..observability import TaskTarget
from ..sharding import analyze_statement
from .pipeline import candidate_cost
from .pushdown import plan_pushdown_select
from .subplan import land, read_from, reference_intermediate
from .tasks import CitusPlan

_intermediate_counter = itertools.count(1)


def plan_join_order(ext, session, select, params, analysis, search=None):
    """The cascade's fourth tier: a RepartitionPlan, or None when this
    planner does not apply.

    Every costed strategy (repartition per join side, broadcast per side)
    is — when a PlanSearch is being recorded — fed into the pipeline as one
    chosen candidate plus the losing alternatives, which is where EXPLAIN's
    "Considered:" lines show them."""
    if not isinstance(select, A.Select):
        if search is not None:
            search.reject("join_order", "statement_kind",
                          "only SELECT joins can be repartitioned")
        return None
    dist = analysis.distributed
    if len(dist) != 2 or analysis.locals:
        if search is not None:
            search.reject("join_order", "shape",
                          "repartition joins support exactly two distributed"
                          " tables and no local tables")
        return None
    if select.set_ops or select.for_update:
        if search is not None:
            search.reject("join_order", "shape",
                          "set operations and FOR UPDATE cannot be repartitioned")
        return None
    a, b = dist
    candidates = []
    # Re-partition candidates: anchor joined on its own distribution column.
    for anchor, moved in ((a, b), (b, a)):
        join_col = _join_column_on_dist_key(ext, analysis, anchor, moved)
        if join_col is not None:
            candidates.append(
                ("repartition", anchor, moved, join_col, ext.table_size_estimate(moved.name))
            )
    # Broadcast candidates, unless the moved side is one an outer join
    # against the anchor preserves: every anchor shard would return its
    # unmatched rows.
    n_nodes = max(len(ext.all_node_names()), 1)
    for anchor, moved in ((a, b), (b, a)):
        if not any(moved.alias in preserved and anchor.alias in other
                   for preserved, other in analysis.outer_joins):
            candidates.append(
                ("broadcast", anchor, moved, None,
                 ext.table_size_estimate(moved.name) * n_nodes)
            )
    if not candidates:
        message = ("an outer join that preserves both sides needs a"
                   " repartition on a distribution column, and neither side"
                   " joins on one")
        if search is not None:
            search.reject("join_order", "outer_join_broadcast", message)
        raise UnsupportedDistributedQuery(message)
    # "Chooses the order that minimizes the network traffic" (§3.5): the
    # move's network bytes decide; the per-task dispatch charge is the same
    # for every strategy (one task per anchor shard) and only matters for
    # the cross-tier cost reporting below.
    candidates.sort(key=lambda c: c[4])
    strategy, anchor, moved, join_col, cost = candidates[0]
    ext.stat_counters.incr(f"join_order_{strategy}")
    if search is not None:
        # The chosen strategy, then every losing one, cheapest first.
        record = search.accept
        for kind, c_anchor, c_moved, _col, network_bytes in candidates:
            record("join_order", f"Join Order ({kind})",
                   candidate_cost(len(c_anchor.dist.shards), network_bytes),
                   strategy=kind, moved_table=c_moved.name,
                   network_bytes=int(network_bytes))
            record = search.alternative
    return RepartitionPlan(ext, select, params, strategy, anchor, moved,
                           join_col, cost)


def _join_column_on_dist_key(ext, analysis, anchor, moved):
    """If the anchor's distribution column is equi-joined with a column of
    the moved table, return that column's name."""
    equivalence = analysis.equivalence
    anchor_root = equivalence.find(analysis.dist_column_key(anchor))
    shell = ext.instance.catalog.get_table(moved.name)
    for column in shell.column_names():
        key = f"{moved.key}.{column}"
        if key in equivalence.parent and equivalence.find(key) == anchor_root:
            return column
    return None


class RepartitionPlan(CitusPlan):
    """Executable plan: move one side, then push the join down. The final
    join's tasks are only known after the move, so ``tasks`` stays None."""

    tier = "join_order"

    def __init__(self, ext, select, params, strategy, anchor, moved, join_col,
                 cost):
        super().__init__(ext)
        self.select = select
        self.params = params
        self.strategy = strategy
        self.detail = f"Join Order ({strategy})"
        self.anchor = anchor
        self.moved = moved
        self.join_col = join_col
        self.estimated_network_bytes = cost

    # ------------------------------------------------------------ execute

    def execute(self, session, params):
        ext = self.ext
        cache = ext.metadata.cache
        anchor = self.anchor.dist
        qid = next(_intermediate_counter)
        if self.strategy == "repartition":
            # One intermediate beside each anchor shard, over its interval:
            # the moved rows hashed on the join column.
            name = f"citus_repart_{qid}"
            transient = replace(anchor, name=name, dist_column=self.join_col,
                                shards=[replace(shard, table_name=name)
                                        for shard in anchor.shards])
            targets = copy_targets(cache, transient)
        else:
            # One reference copy on every node holding an anchor shard.
            name = f"citus_bcast_{qid}"
            transient = reference_intermediate(name)
            targets = [(node, None, transient.shards[0].shard_name) for node in
                       sorted({cache.placement_node(s.shardid) for s in anchor.shards})]
        shell = ext.instance.catalog.get_table(self.moved.name)
        # The moved side streams through the session's own plan, so inside
        # a transaction block it sees the block's writes.
        rows = select_row_stream(ext, session, select_star(self.moved.name), None)
        with closing(rows), land(ext, transient, shell.columns, targets, rows):
            rewritten = read_from(self.select, {self.moved.name: name})
            analysis = analyze_statement(rewritten, cache, self.params,
                                         ext.instance.catalog)
            shape = plan_pushdown_select(ext, rewritten, analysis)
            if shape is None:
                raise UnsupportedDistributedQuery(
                    "non-co-located join could not be made co-located"
                )
            return shape.bind(self.params).execute(session, params)

    def explain_info(self):
        cache = self.ext.metadata.cache
        # The final join runs one task per anchor shard once the moved side
        # is in place; the task SQL is only known after the move, so the
        # targets carry the node and shard group but no SQL.
        tasks = [
            TaskTarget(cache.placement_node(shard.shardid),
                       shard_group=(self.anchor.dist.colocation_id, index))
            for index, shard in enumerate(self.anchor.dist.shards)
        ]
        return {
            "tier": self.tier,
            "detail": self.detail,
            "tasks": tasks,
            "total_shard_count": len(self.anchor.dist.shards),
            "pruned_shard_count": 0,
            "pushed_down": ["CO-LOCATED JOIN (after move)"],
            "coordinator": ["INTERMEDIATE RESULT MOVE"],
            "subplan": {
                "strategy": self.strategy,
                "anchor_table": self.anchor.dist.name,
                "moved_table": self.moved.name,
                "join_column": self.join_col,
                "estimated_network_bytes": int(self.estimated_network_bytes),
            },
        }
