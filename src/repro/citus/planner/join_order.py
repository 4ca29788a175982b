"""Logical join order planner (§3.5): non-co-located joins.

When the join tree cannot be pushed down, one distributed table at a time
moves into an *intermediate result* so that the join becomes co-located:

- **re-partition join** — the moved table's rows are hashed on the join
  column into an intermediate over the anchor table's shard intervals;
  network cost ≈ size(moved).
- **broadcast join** — the moved table is replicated in full to every node
  the rest of the statement reads shards on; network cost ≈ size(moved) ×
  #nodes. Chosen when the moved side is small or when neither side joins
  on its distribution column.

The planner costs both for every pair of distributed tables that do not
align and "chooses the order that minimizes the network traffic". The move
is one more level of the run-once plan (:class:`~.subplan.SubplanPlan`):
``SELECT <the columns the rest reads> FROM t WHERE <t's own WHERE
conjuncts>``. The rest, reading that level's intermediate in ``t``'s
place, goes back through the cascade: while it is not co-located, its
cheapest move is the next level, so N distributed tables take N - 1 moves.

Scope (cf. the paper's own "4 of the 22 TPC-H queries are unsupported"):
no FOR UPDATE, no write. An intermediate is never moved again (its size is
unknown until it lands), nor is a table aligned with one; once one is
there, every re-partition lands beside its shards. What cannot run per
shard has run once before this tier sees the statement (``run_once``).
"""

from __future__ import annotations

import collections
import itertools

from ...engine.compile import and_all, split_and
from ...errors import UnsupportedDistributedQuery
from ...sql import ast as A
from .pipeline import candidate_cost
from .subplan import INTERMEDIATE, SubplanPlan


def plan_join_order(ext, session, select, params, analysis, search=None):
    """The cascade's fourth tier: a RepartitionPlan, or None when this
    planner does not apply. Every costed move goes into ``search`` (the
    chosen one, then the losing alternatives): EXPLAIN's "Considered:"."""
    if not isinstance(select, A.Select):
        if search is not None:
            search.reject("join_order", "statement_kind",
                          "only SELECT joins can be repartitioned")
        return None
    if select.for_update:
        if search is not None:
            search.reject("join_order", "shape",
                          "FOR UPDATE cannot be repartitioned")
        return None
    dist = analysis.distributed
    # A table aligned with an earlier move's intermediate stays (an
    # intermediate is never moved), and once there is one, every move
    # joins its shards: each round leaves one group fewer to align.
    landed = [occ for occ in dist if occ.name.startswith(INTERMEDIATE)]

    def fixed(occ):
        return any(analysis.shards_align([occ, other]) for other in landed)

    pairs = [(anchor, moved) for anchor, moved in itertools.permutations(dist, 2)
             if not fixed(moved) and (fixed(anchor) or not landed)
             and not analysis.shards_align([anchor, moved])]
    # Re-partition candidates: anchor joined on its own distribution column.
    candidates = [
        ("repartition", anchor, moved, join_col, ext.table_size_estimate(moved.name))
        for anchor, moved in pairs
        if (join_col := _join_column_on_dist_key(analysis, anchor, moved))]
    # Broadcast candidates, one per moved table, unless an outer join
    # against another distributed table preserves it: every shard would
    # return its unmatched rows.
    n_nodes = max(len(ext.all_node_names()), 1)
    keys, broadcast = {occ.key for occ in dist}, {}
    for anchor, moved in pairs:
        if not any(moved.key in preserved and other & keys
                   for preserved, other in analysis.outer_joins):
            broadcast.setdefault(moved.key, (
                "broadcast", anchor, moved, None,
                ext.table_size_estimate(moved.name) * n_nodes))
    candidates += broadcast.values()
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
    return RepartitionPlan(ext, session, select, params, analysis, strategy,
                           anchor, moved, join_col, cost)


def _join_column_on_dist_key(analysis, anchor, moved):
    """If the anchor's distribution column is equi-joined with a column of
    the moved table, return that column's name."""
    equivalence = analysis.equivalence
    anchor_root = equivalence.find(analysis.dist_column_key(anchor))
    for column in analysis.column_names(moved.name):
        key = f"{moved.key}.{column}"
        if key in equivalence.parent and equivalence.find(key) == anchor_root:
            return column
    return None


def _moved_level(analysis, select, moved, join_col):
    """A moved table's FROM item, its level ``SELECT <the columns the rest
    reads, the join column among them> FROM t WHERE <t's own conjuncts>``
    (reading only ``t``'s columns, no subquery; none while an outer join
    makes ``t`` nullable: the rest must see the rows it NULL-extends fail
    them) and the conjuncts the rest reads as TRUE: all but those with a
    column equal to another column or a constant, a link that may be what
    aligns the intermediate (``f.n = 1 AND e.k = 1``)."""
    ref = next(item for item, key in analysis.ref_keys.values()
               if key == moved.key)
    # The innermost level whose FROM holds it (a pre-order walk).
    level = [node for node in A.walk(select) if isinstance(node, A.Select)
             and any(item is ref for item in A.walk(node.from_items))][-1]
    own, pushed = [], []
    if level.where is not None and not any(
            moved.key in other for _preserved, other in analysis.outer_joins):
        find = analysis.equivalence.find
        classes = collections.Counter(map(find, list(analysis.equivalence.parent)))
        for conjunct in split_and(level.where):
            keys = analysis.column_keys(level, conjunct)
            if keys and {key.rpartition(".")[0] for key in keys} == {moved.key} \
                    and not any(isinstance(node, A.SubqueryExpr)
                                for node in A.walk(conjunct)):
                own.append(conjunct)
                if all(classes[find(key)] <= 1 for key in keys):
                    pushed.append(conjunct)
    applied = {id(node) for conjunct in pushed for node in A.walk(conjunct)}
    read, whole = {join_col}, False
    for node in A.walk(select):
        if id(node) in applied:
            continue
        if isinstance(node, A.ColumnRef) and node.table in (None, ref.ref_name):
            read.add(node.name)
        elif isinstance(node, A.JoinExpr):
            read.update(node.using)
        whole = whole or (isinstance(node, A.Star) and node.table == ref.ref_name
                          or isinstance(node, A.TargetEntry) and node.expr == A.Star())
    columns = analysis.column_names(moved.name)
    targets = [name for name in columns if whole or name in read] or columns[:1]
    return ref, pushed, A.Select(
        targets=[A.TargetEntry(A.ColumnRef(name, ref.ref_name)) for name in targets],
        from_items=[A.TableRef(ref.name, ref.alias)],
        where=and_all(own) if own else None)


class RepartitionPlan(SubplanPlan):
    """A non-co-located join: ``moved``, the cheapest side to move, is the
    first level of a run-once plan (the rest's own moves follow it)."""

    tier = "join_order"

    def __init__(self, ext, session, select, params, analysis, strategy,
                 anchor, moved, join_col, cost):
        self.strategy, self.moved, self.estimated_network_bytes, self.detail = (
            strategy, moved, cost, f"Join Order ({strategy})")
        ref, pushed, level = _moved_level(analysis, select, moved, join_col)
        super().__init__(ext, session, select, params, {id(ref): level},
                         analysis, over=(anchor.dist, join_col)
                         if strategy == "repartition" else (), pushed=pushed,
                         move={"strategy": strategy, "anchor_table": anchor.dist.name,
                               "moved_table": moved.name, "join_column": join_col,
                               "estimated_network_bytes": int(cost)})

    # benchmarks/ledger/spans.py wraps this class's own ``execute`` by name
    # (``vars(owner)[attr]``): the entry stays until that list drops it.
    execute = SubplanPlan.execute

    def explain_info(self):
        return {**super().explain_info(), "subplan": {
            **self.moves[0], "queries": self.queries, "moves": self.moves}}
