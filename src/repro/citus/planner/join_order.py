"""Logical join order planner (§3.5): non-co-located joins.

When the join tree cannot be pushed down, one side is materialized as an
*intermediate result* and physically moved so that the join becomes
co-located:

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

Scope (documented limitation, cf. the paper's own "4 of the 22 TPC-H
queries are unsupported"): exactly two distributed tables per query;
correlated subqueries against non-co-located tables are unsupported.
"""

from __future__ import annotations

import itertools

from ...errors import UnsupportedDistributedQuery
from ...sql import ast as A
from ...sql.deparse import deparse
from ..metadata import REFERENCE, ShardInterval
from ..observability import TaskTarget
from ..sharding import analyze_statement
from .pipeline import candidate_cost
from .pushdown import plan_pushdown_select
from .tasks import CitusPlan

_intermediate_counter = itertools.count(1)


def plan_join_order(ext, select: A.Select, params, analysis, search=None):
    """Return a RepartitionPlan, or None when this planner does not apply.

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
    if select.ctes or select.set_ops or select.for_update:
        if search is not None:
            search.reject("join_order", "shape",
                          "CTEs, set operations, and FOR UPDATE cannot be"
                          " repartitioned")
        return None
    if not ext.config.enable_repartition_joins:
        message = ("the query contains a non-co-located join and"
                   " citus.enable_repartition_joins is off")
        if search is not None:
            search.reject("join_order", "disabled", message)
        raise UnsupportedDistributedQuery(message)
    a, b = dist
    candidates = []
    # Re-partition candidates: anchor joined on its own distribution column.
    for anchor, moved in ((a, b), (b, a)):
        join_col = _join_column_on_dist_key(ext, analysis, anchor, moved)
        if join_col is not None:
            candidates.append(
                ("repartition", anchor, moved, join_col, ext.table_size_estimate(moved.name))
            )
    # Broadcast candidates are always available for inner joins.
    n_nodes = max(len(ext.all_node_names()), 1)
    for anchor, moved in ((a, b), (b, a)):
        candidates.append(
            ("broadcast", anchor, moved, None,
             ext.table_size_estimate(moved.name) * n_nodes)
        )
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
    anchor_root = equivalence.find(f"{anchor.alias}.{anchor.dist.dist_column}")
    shell = ext.instance.catalog.get_table(moved.name)
    for column in shell.column_names():
        key = f"{moved.alias}.{column}"
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
        qid = next(_intermediate_counter)
        name = f"citus_repart_{qid}" if self.strategy == "repartition" else f"citus_bcast_{qid}"
        shell = ext.instance.catalog.get_table(self.moved.name)
        columns = shell.column_names()

        # 1. Materialize the moved table on the coordinator.
        moved_rows = session.execute(f"SELECT * FROM {self.moved.name}").rows
        ext.stat_counters.incr("repartition_rows_moved", len(moved_rows))
        ext.stat_counters.incr("repartition_bytes", int(self.estimated_network_bytes))

        created: list[tuple] = []  # (node, table_name)
        try:
            if self.strategy == "repartition":
                self._load_repartitioned(ext, name, shell, columns, moved_rows, created)
                transient = _transient_distributed(name, self.anchor.dist, self.join_col,
                                                   shell, columns)
            else:
                self._load_broadcast(ext, name, shell, columns, moved_rows, created)
                transient = _transient_reference(ext, name)
            cache.tables[name] = transient

            rewritten = _replace_table(self.select, self.moved.name, name)
            analysis = analyze_statement(rewritten, cache, self.params,
                                         ext.instance.catalog)
            shape = plan_pushdown_select(ext, rewritten, analysis)
            if shape is None:
                raise UnsupportedDistributedQuery(
                    "non-co-located join could not be made co-located"
                )
            return shape.bind(self.params).execute(session, params)
        finally:
            cache.tables.pop(name, None)
            for node, table in created:
                try:
                    ext.worker_connection(node).execute(f"DROP TABLE IF EXISTS {table}")
                except Exception:
                    pass

    def _load_repartitioned(self, ext, name, shell, columns, rows, created):
        cache = ext.metadata.cache
        join_position = columns.index(self.join_col)
        buckets: dict[int, list] = {}
        for row in rows:
            index = self.anchor.dist.shard_index_for_value(row[join_position])
            buckets.setdefault(index, []).append(row)
        for i, shard in enumerate(self.anchor.dist.shards):
            node = cache.placement_node(shard.shardid)
            table = f"{name}_{shard.shardid}"
            conn = ext.worker_connection(node)
            conn.execute(_intermediate_ddl(table, shell))
            conn.copy_rows(table, buckets.get(i, []), columns)
            created.append((node, table))

    def _load_broadcast(self, ext, name, shell, columns, rows, created):
        cache = ext.metadata.cache
        nodes = {
            cache.placement_node(shard.shardid) for shard in self.anchor.dist.shards
        }
        table = f"{name}_0"
        for node in sorted(nodes):
            conn = ext.worker_connection(node)
            conn.execute(_intermediate_ddl(table, shell))
            conn.copy_rows(table, rows, columns)
            created.append((node, table))

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


def _intermediate_ddl(table_name: str, shell) -> str:
    cols = [A.ColumnDef(c.name, c.type_name) for c in shell.columns]
    return deparse(A.CreateTable(name=table_name, columns=cols))


def _transient_distributed(name, anchor_dist, join_col, shell, columns):
    from ..metadata import DistributedTable

    shards = [
        ShardInterval(s.shardid, name, s.min_value, s.max_value)
        for s in anchor_dist.shards
    ]
    return DistributedTable(
        name, "h", join_col, anchor_dist.dist_column_type, anchor_dist.colocation_id, shards
    )


def _transient_reference(ext, name):
    from ..metadata import DistributedTable

    shard = ShardInterval(0, name, None, None)
    return DistributedTable(name, REFERENCE, None, None, -1, [shard])


def _replace_table(select: A.Select, old: str, new: str) -> A.Select:
    def visit(node):
        if isinstance(node, A.TableRef) and node.name == old:
            return A.TableRef(new, alias=node.alias or node.name)
        return node

    return A.transform(select.copy(), visit)
