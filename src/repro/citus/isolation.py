"""Tenant isolation: ``isolate_tenant_to_new_shard`` (§2.1).

"Customers may need control over tenant placement to avoid issues with
noisy neighbors. For this, Citus provides features to view hotspots, to
isolate a tenant onto its own server, and to provide fine-grained control
over tenant placement."

The mechanism, as in real Citus: the shard covering the tenant's hash
value is *split* into up to three shards — the range below the tenant,
the single-value range [h, h], and the range above — across the whole
co-location group so the ranges stay aligned. The tenant's dedicated shard
can then be moved to its own node with ``citus_move_shard_placement``.
"""

from __future__ import annotations

from ..engine.datum import hash_value
from ..errors import MetadataError
from .ddl import shard_ddl_statements
from .metadata import ShardInterval


def isolate_tenant_to_new_shard(ext, session, table_name: str, tenant_value) -> int:
    """Split the shard holding ``tenant_value`` so the tenant gets a shard
    of its own (across the entire co-location group). Returns the new
    shardid that exclusively holds the tenant."""
    cache = ext.metadata.cache
    dist = cache.get_table(table_name)
    if dist.is_reference:
        raise MetadataError("cannot isolate a tenant of a reference table")
    from .metadata import RANGE

    if dist.method == RANGE:
        raise MetadataError("tenant isolation applies to hash-distributed tables")
    tenant_hash = hash_value(tenant_value)
    index = dist.shard_index_for_hash(tenant_hash)
    old = dist.shards[index]
    if old.min_value == tenant_hash and old.max_value == tenant_hash:
        return old.shardid  # already isolated

    # The split ranges (skipping empty ones).
    ranges = []
    if old.min_value < tenant_hash:
        ranges.append((old.min_value, tenant_hash - 1))
    tenant_range_position = len(ranges)
    ranges.append((tenant_hash, tenant_hash))
    if old.max_value > tenant_hash:
        ranges.append((tenant_hash + 1, old.max_value))

    group = [
        t for t in cache.colocated_tables(dist.colocation_id) if not t.is_reference
    ]
    node = cache.placement_node(old.shardid)
    tenant_shardid = None
    for member in group:
        member_old = member.shards[index]
        new_ids = ext.allocate_shard_ids(len(ranges))
        intervals = [
            ShardInterval(sid, member.name, lo, hi)
            for sid, (lo, hi) in zip(new_ids, ranges)
        ]
        if member.name == table_name:
            tenant_shardid = intervals[tenant_range_position].shardid
        _split_physical_shard(ext, session, member, member_old, intervals, node, index)
    ext.sync_metadata_if_enabled(session)
    ext.stat_counters.incr("tenant_isolations")
    return tenant_shardid


def _split_physical_shard(ext, session, dist_table, old: ShardInterval,
                          intervals: list[ShardInterval], node: str,
                          shard_index: int) -> None:
    shell = ext.instance.catalog.get_table(dist_table.name)
    conn = ext.worker_connection(node)
    dist_position = shell.column_index(dist_table.dist_column)
    # 1. Create the new shard tables next to the old one.
    for interval in intervals:
        for ddl in shard_ddl_statements(ext, shell, interval.shard_name, shard_index):
            conn.execute(ddl)
    # 2. Route the old shard's rows into the splits by hash.
    rows = conn.execute(f"SELECT * FROM {old.shard_name}").rows
    buckets: dict[int, list] = {}
    for row in rows:
        h = hash_value(row[dist_position])
        for i, interval in enumerate(intervals):
            if interval.min_value <= h <= interval.max_value:
                buckets.setdefault(i, []).append(list(row))
                break
    for i, interval in enumerate(intervals):
        if buckets.get(i):
            conn.copy_rows(interval.shard_name, buckets[i])
    # 3. Swap the metadata: old shard out, splits in.
    _replace_shard_metadata(ext, session, old, intervals, node)
    # 4. Drop the old physical shard.
    conn.execute(f"DROP TABLE IF EXISTS {old.shard_name}")


def _replace_shard_metadata(ext, session, old: ShardInterval,
                            intervals: list[ShardInterval], node: str) -> None:
    session.execute("DELETE FROM pg_dist_shard WHERE shardid = $1", [old.shardid])
    session.execute("DELETE FROM pg_dist_placement WHERE shardid = $1", [old.shardid])
    for interval in intervals:
        session.execute(
            "INSERT INTO pg_dist_shard (shardid, logicalrelid, shardminvalue,"
            " shardmaxvalue) VALUES ($1, $2, $3, $4)",
            [interval.shardid, interval.table_name, interval.min_value,
             interval.max_value],
        )
        session.execute(
            "INSERT INTO pg_dist_placement (shardid, nodename) VALUES ($1, $2)",
            [interval.shardid, node],
        )
    ext.metadata.reload(session)
