"""Shard rebalancer (§3.4).

``Rebalancer.rebalance`` computes a move plan — by shard count (default),
by data size, or under a custom policy of cost/capacity/constraint
functions — and applies it with :func:`move_shard`, which performs the
logical-replication move protocol:

1. create shard replicas (the shard and all shards co-located with it) on
   the target node and copy the data while writes continue,
2. briefly block writes, replay the remaining changes (simulated as a short
   catch-up window on the cluster clock),
3. update ``pg_dist_placement`` so new queries route to the new node,
4. drop the old placements.

"The last few steps typically only take a few seconds, hence there is
minimal write downtime."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..errors import RebalanceError
from .ddl import shard_ddl_statements

#: Phases every shard move passes through, in order (§3.4's protocol:
#: initial copy under logical replication, write-blocked catch-up,
#: metadata switch). ``get_rebalance_progress`` reports where each
#: in-flight move currently is.
MOVE_PHASES = ("copy", "catchup", "metadata")


@dataclass
class ShardMoveProgress:
    """Live progress of one shard move, exposed by
    ``get_rebalance_progress()``. A move that dies mid-protocol is kept
    with ``status="failed"`` and the phase it reached — a silently
    dropped entry would hide exactly the moves an operator most needs to
    see."""

    move_id: int
    table_name: str
    shardid: int
    source: str
    target: str
    bytes_total: int = 0
    bytes_copied: int = 0
    rows_total: int = 0
    rows_copied: int = 0
    phase: str = "copy"
    status: str = "moving"  # moving | completed | failed
    error: str | None = None
    started_at: float = 0.0
    updated_at: float = 0.0
    # [(phase, simulated time entered)] — monotone along MOVE_PHASES.
    phase_history: list = field(default_factory=list)

    def enter_phase(self, phase: str, at: float) -> None:
        self.phase = phase
        self.updated_at = at
        self.phase_history.append((phase, at))


class RebalanceProgress:
    """The cluster-wide shard-move progress table (bounded history)."""

    MAX_MOVES = 256

    def __init__(self):
        self.moves: list[ShardMoveProgress] = []
        self._seq = itertools.count(1)

    def start_move(self, table_name: str, shardid: int, source: str,
                   target: str, at: float, bytes_total: int = 0) -> ShardMoveProgress:
        move = ShardMoveProgress(
            next(self._seq), table_name, shardid, source, target,
            bytes_total=bytes_total, started_at=at, updated_at=at,
        )
        move.phase_history.append(("copy", at))
        self.moves.append(move)
        if len(self.moves) > self.MAX_MOVES:
            del self.moves[: len(self.moves) - self.MAX_MOVES]
        return move

    def active_moves(self) -> list[ShardMoveProgress]:
        return [m for m in self.moves if m.status == "moving"]


_PROGRESS_ATTR = "_citus_rebalance_progress"


def progress_for(ext) -> RebalanceProgress:
    """The progress table shared by every extension of one cluster."""
    holder = ext.cluster if ext.cluster is not None else ext
    progress = getattr(holder, _PROGRESS_ATTR, None)
    if progress is None:
        progress = RebalanceProgress()
        setattr(holder, _PROGRESS_ATTR, progress)
    return progress


@dataclass
class RebalanceStrategy:
    """A custom rebalance policy (the SQL-defined cost/capacity/constraint
    functions of the real rebalancer, as Python callables)."""

    name: str = "by_shard_count"
    # cost of one shard (default: every shard costs 1 → balance by count)
    shard_cost: Callable = lambda ext, shard: 1.0
    # relative capacity of a node (default: homogeneous)
    node_capacity: Callable = lambda ext, node: 1.0
    # may this shard live on this node?
    shard_allowed_on_node: Callable = lambda ext, shard, node: True


BY_SHARD_COUNT = RebalanceStrategy()
BY_DISK_SIZE = RebalanceStrategy(
    name="by_disk_size",
    shard_cost=lambda ext, shard: max(_shard_bytes(ext, shard), 1),
)


def _shard_bytes(ext, shard) -> int:
    node = ext.metadata.cache.placements.get(shard.shardid)
    if node is None:
        return 0
    instance = ext.cluster.node(node)
    if not instance.catalog.has_table(shard.shard_name):
        return 0
    return instance.catalog.get_table(shard.shard_name).heap.total_bytes


@dataclass
class ShardMove:
    shardid: int
    source: str
    target: str


class Rebalancer:
    def __init__(self, ext, strategy: RebalanceStrategy | None = None):
        self.ext = ext
        self.strategy = strategy or BY_SHARD_COUNT

    # ------------------------------------------------------------ planning

    def plan(self) -> list[ShardMove]:
        """Greedy plan: repeatedly move a leading co-location group from the
        most loaded node to the least loaded node that accepts it, until the
        imbalance cannot be improved."""
        ext = self.ext
        cache = ext.metadata.cache
        nodes = ext.all_node_names()
        if len(nodes) < 2:
            return []
        # Moves operate on colocation groups: the anchor shard plus all
        # shards co-located with it move together.
        groups = self._colocation_groups()
        load: dict[str, float] = {n: 0.0 for n in nodes}
        group_cost: dict[tuple, float] = {}
        group_node: dict[tuple, str] = {}
        for key, shards in groups.items():
            cost = sum(self.strategy.shard_cost(ext, s) for s in shards)
            group_cost[key] = cost
            node = cache.placements.get(shards[0].shardid)
            group_node[key] = node
            if node in load:
                load[node] += cost
        capacity = {n: max(self.strategy.node_capacity(ext, n), 1e-9) for n in nodes}

        moves: list[ShardMove] = []
        for _ in range(len(groups) * 2):
            utilization = {n: load[n] / capacity[n] for n in nodes}
            src = max(nodes, key=lambda n: utilization[n])
            dst = min(nodes, key=lambda n: utilization[n])
            gap_before = utilization[src] - utilization[dst]
            if gap_before < 1e-9:
                break
            candidates = [
                key for key, node in group_node.items()
                if node == src and all(
                    self.strategy.shard_allowed_on_node(ext, s, dst)
                    for s in groups[key]
                )
            ]
            best = None
            for key in candidates:
                delta = group_cost[key]
                new_src = (load[src] - delta) / capacity[src]
                new_dst = (load[dst] + delta) / capacity[dst]
                # The move only helps if it strictly narrows the gap.
                gap_after = abs(new_src - new_dst)
                if gap_after < gap_before - 1e-9:
                    if best is None or gap_after < best[0]:
                        best = (gap_after, key)
            if best is None:
                break
            key = best[1]
            delta = group_cost[key]
            for shard in groups[key]:
                moves.append(ShardMove(shard.shardid, src, dst))
            load[src] -= delta
            load[dst] += delta
            group_node[key] = dst
        return moves

    def rebalance(self, session) -> list[ShardMove]:
        moves = self.plan()
        self.ext.stat_counters.incr("rebalancer_runs")
        for move in moves:
            move_shard(self.ext, session, move.shardid, move.target,
                       move_colocated=False)
        return moves

    def _colocation_groups(self) -> dict:
        """(colocation_id, shard_index) -> [ShardInterval...] that must move
        together."""
        cache = self.ext.metadata.cache
        groups: dict[tuple, list] = {}
        for table in cache.tables.values():
            if table.is_reference:
                continue
            for index, shard in enumerate(table.shards):
                groups.setdefault((table.colocation_id, index), []).append(shard)
        return groups


def move_shard(ext, session, shardid: int, target_node: str,
               move_colocated: bool = True) -> None:
    """Move one shard placement (and, by default, its co-located shards)
    using the logical-replication protocol."""
    cache = ext.metadata.cache
    shard, table = _find_shard(ext, shardid)
    source_node = cache.placement_node(shardid)
    if source_node == target_node:
        return
    to_move = [(shard, table)]
    if move_colocated and not table.is_reference:
        index = [s.shardid for s in table.shards].index(shardid)
        for other in cache.colocated_tables(table.colocation_id):
            if other.name == table.name:
                continue
            other_shard = other.shards[index]
            to_move.append((other_shard, other))

    source = ext.cluster.node(source_node)
    clock = ext.cluster.clock
    progress = progress_for(ext)
    entries = []
    for shard_interval, dist_table in to_move:
        total = 0
        if source.is_up and source.catalog.has_table(shard_interval.shard_name):
            total = source.catalog.get_table(shard_interval.shard_name).heap.total_bytes
        entries.append(progress.start_move(
            dist_table.name, shard_interval.shardid, source_node, target_node,
            clock.now(), bytes_total=total,
        ))
    try:
        for entry, (shard_interval, dist_table) in zip(entries, to_move):
            shell = ext.instance.catalog.get_table(dist_table.name)
            shard_index = None
            if not dist_table.is_reference:
                shard_index = [s.shardid for s in dist_table.shards].index(
                    shard_interval.shardid
                )
            target_conn = ext.worker_connection(target_node)
            # 1. Create the replica structure on the target.
            for ddl in shard_ddl_statements(ext, shell, shard_interval.shard_name,
                                            shard_index):
                target_conn.execute(ddl)
            # 2. Initial copy under logical replication (reads and writes
            # continue on the source while this runs).
            rows = _read_shard_rows(source, shard_interval.shard_name)
            entry.rows_total = len(rows)
            before = target_conn.elapsed
            target_conn.copy_rows(shard_interval.shard_name, rows)
            session.wait_events.record("Net", "RemoteCopy",
                                       target_conn.elapsed - before,
                                       node=target_node)
            entry.rows_copied = len(rows)
            entry.bytes_copied = entry.bytes_total
            ext.stat_counters.incr("rebalancer_rows_copied", len(rows))
            clock.advance(len(rows) * 1e-6 + 0.05)
            entry.updated_at = clock.now()
        # 3. Brief write block + catch-up + metadata switch (seconds, not
        # minutes: "minimal write downtime").
        for entry in entries:
            entry.enter_phase("catchup", clock.now())
        clock.advance(2.0)
        for entry, (shard_interval, _table) in zip(entries, to_move):
            entry.enter_phase("metadata", clock.now())
            ext.metadata.update_placement(session, shard_interval.shardid,
                                          target_node)
        ext.sync_metadata_if_enabled(session)
        # 4. Drop the old placements.
        for shard_interval, _table in to_move:
            try:
                ext.worker_connection(source_node).execute(
                    f"DROP TABLE IF EXISTS {shard_interval.shard_name}"
                )
            except Exception:
                pass
    except Exception as exc:
        # Record the aborted move with the phase it reached instead of
        # silently dropping it from the progress table.
        at = clock.now()
        for entry in entries:
            if entry.status == "moving":
                entry.status = "failed"
                entry.error = f"{type(exc).__name__}: {exc}"
                entry.updated_at = at
        ext.stat_counters.incr("rebalancer_moves_failed", len(entries))
        raise
    at = clock.now()
    for entry in entries:
        entry.status = "completed"
        entry.updated_at = at
    ext.stat_counters.incr("rebalancer_shard_moves", len(to_move), node=target_node)


def _read_shard_rows(instance, shard_name: str) -> list:
    session = instance.connect("shard_move")
    try:
        return [list(r) for r in session.execute(f"SELECT * FROM {shard_name}").rows]
    finally:
        session.close()


def _find_shard(ext, shardid: int):
    for table in ext.metadata.cache.tables.values():
        for shard in table.shards:
            if shard.shardid == shardid:
                return shard, table
    raise RebalanceError(f"shard {shardid} not found in metadata")


def drain_node(ext, session, node_name: str) -> list[ShardMove]:
    """Move every shard off a node (preparation for removing it), using the
    same logical-replication move protocol. Reference-table replicas stay
    (they exist everywhere by definition)."""
    cache = ext.metadata.cache
    targets = [n for n in ext.all_node_names() if n != node_name]
    if not targets:
        raise RebalanceError("cannot drain the only node in the cluster")
    moves: list[ShardMove] = []
    ext.stat_counters.incr("rebalancer_drains")
    balancer = Rebalancer(ext)
    rotation = 0
    for key, shards in balancer._colocation_groups().items():
        anchor = shards[0]
        if cache.placements.get(anchor.shardid) != node_name:
            continue
        target = targets[rotation % len(targets)]
        rotation += 1
        move_shard(ext, session, anchor.shardid, target, move_colocated=True)
        cache = ext.metadata.cache
        for shard in shards:
            moves.append(ShardMove(shard.shardid, node_name, target))
    return moves


def undistribute_table(ext, session, table_name: str) -> None:
    """Convert a Citus table back to a local table: pull all rows to the
    coordinator shell, drop shards and metadata."""
    dist = ext.metadata.cache.get_table(table_name)
    rows = session.execute(f"SELECT * FROM {table_name}").rows
    ext.ddl.propagate_drop_table(session, table_name)
    shell = ext.instance.catalog.get_table(table_name)
    if rows:
        session.copy_rows(table_name, rows)
