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

from contextlib import closing
from dataclasses import replace

from ..engine.datum import column_constant, hash_value
from ..errors import MetadataError
from ..sql import ast as A
from .copy_dist import move_rows, placement_rows
from .ddl import drop_quietly, referenced_first, shard_ddl
from .metadata import RANGE, ShardInterval


def isolate_tenant_to_new_shard(ext, session, table_name: str, tenant_value,
                                *_options) -> int:
    """Split the shard holding ``tenant_value`` so the tenant gets a shard
    of its own (across the entire co-location group). Returns the new
    shardid that exclusively holds the tenant. Citus's cascade and
    transfer-mode options are accepted and ignored.

    Every member's split shards are created first (a foreign key between
    members references the split beside it), filled referenced member
    first, then the group's metadata is swapped in one step and the old
    shards are dropped last. A failure before the swap drops what was
    created and leaves the metadata as it was."""
    cache = ext.metadata.cache
    dist = cache.get_table(table_name)
    if dist.is_reference:
        raise MetadataError("cannot isolate a tenant of a reference table")
    if dist.method == RANGE:
        raise MetadataError("tenant isolation applies to hash-distributed tables")
    tenant_hash = hash_value(column_constant(tenant_value, dist.dist_column_type))
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
    splits = {
        member.name: [
            ShardInterval(sid, member.name, lo, hi)
            for sid, (lo, hi) in zip(ext.allocate_shard_ids(len(ranges)), ranges)
        ]
        for member in group
    }
    node = cache.placement_node(old.shardid)
    conn = ext.worker_connection(node)
    catalog = ext.instance.catalog
    group = referenced_first(catalog, group, lambda member: member.name)
    created = []
    try:
        # 1. Create the new shard tables next to the old ones.
        for member in group:
            shell = catalog.get_table(member.name)
            for position, interval in enumerate(splits[member.name]):
                beside = {name: intervals[position].shard_name
                          for name, intervals in splits.items()}
                create, *indexes = shard_ddl(cache, shell, interval.shard_name,
                                             beside)
                conn.execute_parsed(create)
                created.append(interval.shard_name)
                for stmt in indexes:
                    conn.execute_parsed(stmt)
        # 2. Stream each old shard into its splits, routed by hash.
        for member in group:
            intervals = splits[member.name]
            with closing(placement_rows(
                    ext, node, member.shards[index].shard_name)) as rows:
                move_rows(ext, replace(member, shards=intervals),
                          catalog.get_table(member.name),
                          [(node, None, interval.shard_name)
                           for interval in intervals], rows)
    except Exception:
        for name in created:
            drop_quietly(ext, node, name)
        raise
    # 3. Swap the metadata: old shards out, splits in.
    new = [interval for member in group for interval in splits[member.name]]
    ext.metadata.replace_shards(
        session, [member.shards[index].shardid for member in group], new,
        {interval.shardid: [node] for interval in new})
    # 4. Drop the old physical shards.
    for member in group:
        conn.execute_parsed(A.DropTable([member.shards[index].shard_name],
                                        if_exists=True))
    ext.sync_metadata_if_enabled(session)
    ext.stat_counters.incr("tenant_isolations")
    return splits[table_name][tenant_range_position].shardid
