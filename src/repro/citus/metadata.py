"""Citus metadata: the pg_dist_* catalogs and their in-memory cache.

Exactly like the real extension, metadata lives in ordinary tables on the
coordinator (so it is transactional, WAL-logged, and survives restarts) and
is mirrored into an in-memory cache used by the planners. ``sync_to_node``
copies the tables to a worker, which is what lets any node act as a
coordinator (§3.2.1).

Tables (column layout follows the real catalogs, trimmed):

- ``pg_dist_node(nodeid, nodename, groupid, noderole, hasmetadata)``
- ``pg_dist_partition(logicalrelid, partmethod, partkey, colocationid)``
  with partmethod 'h' (hash), 'n' (reference), or 'r' (range)
- ``pg_dist_shard(shardid, logicalrelid, shardminvalue, shardmaxvalue)``
- ``pg_dist_placement(placementid, shardid, nodename, shardstate)``
- ``pg_dist_colocation(colocationid, shardcount, distributioncolumntype)``
- ``pg_dist_transaction(gid, coordinator)`` — the 2PC commit records
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..engine.datum import hash_value as _hash
from ..errors import MetadataError

HASH = "h"
REFERENCE = "n"
RANGE = "r"

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

FIRST_SHARD_ID = 102008  # same first shardid as a fresh real Citus install

METADATA_DDL = """
CREATE TABLE IF NOT EXISTS pg_dist_node (
    nodeid serial PRIMARY KEY,
    nodename text NOT NULL UNIQUE,
    groupid int,
    noderole text DEFAULT 'primary',
    hasmetadata bool DEFAULT false
);
CREATE TABLE IF NOT EXISTS pg_dist_partition (
    logicalrelid text PRIMARY KEY,
    partmethod text NOT NULL,
    partkey text,
    colocationid int
);
CREATE TABLE IF NOT EXISTS pg_dist_shard (
    shardid bigint PRIMARY KEY,
    logicalrelid text NOT NULL,
    shardminvalue bigint,
    shardmaxvalue bigint
);
CREATE TABLE IF NOT EXISTS pg_dist_placement (
    placementid serial PRIMARY KEY,
    shardid bigint NOT NULL,
    nodename text NOT NULL,
    shardstate int DEFAULT 1
);
CREATE TABLE IF NOT EXISTS pg_dist_colocation (
    colocationid serial PRIMARY KEY,
    shardcount int,
    distributioncolumntype text
);
CREATE TABLE IF NOT EXISTS pg_dist_transaction (
    gid text PRIMARY KEY,
    coordinator text
);
"""


@dataclass
class ShardInterval:
    shardid: int
    table_name: str
    min_value: int
    max_value: int

    @property
    def shard_name(self) -> str:
        return f"{self.table_name}_{self.shardid}"


@dataclass
class DistributedTable:
    name: str
    method: str  # HASH | REFERENCE | RANGE
    dist_column: str | None
    dist_column_type: str | None
    colocation_id: int
    shards: list[ShardInterval] = field(default_factory=list)  # ordered by min_value

    def __post_init__(self):
        # What routing bisects: the shard list is fixed once the cache
        # entry is built (metadata changes rebuild the whole cache).
        self._mins = [s.min_value for s in self.shards]

    @property
    def is_reference(self) -> bool:
        return self.method == REFERENCE

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_index_for_hash(self, hash_value: int) -> int:
        """Index of the shard whose [min,max] range covers the hash."""
        index = bisect.bisect_right(self._mins, hash_value) - 1
        if index < 0 or hash_value > self.shards[index].max_value:
            raise MetadataError(f"hash {hash_value} outside shard ranges of {self.name!r}")
        return index

    def shard_index_for_value(self, value) -> int:
        """Index of the shard owning a distribution column value,
        dispatching on the partition method (hash vs range)."""
        if self.method == RANGE:
            index = bisect.bisect_right(self._mins, value) - 1
            if index < 0 or value > self.shards[index].max_value:
                raise MetadataError(
                    f"value {value!r} outside the shard ranges of {self.name!r}"
                )
            return index
        return self.shard_index_for_hash(_hash(value))


class MetadataCache:
    """In-memory view of the pg_dist_* tables, rebuilt after any change.

    The planners only ever read the cache; all writes go through
    :class:`MetadataStore` (and therefore through SQL on real tables).
    """

    def __init__(self):
        self.nodes: list[str] = []  # worker node names, insertion order
        self.node_roles: dict[str, str] = {}
        self.tables: dict[str, DistributedTable] = {}
        self.placements: dict[int, str] = {}  # shardid -> nodename
        self.colocation_groups: dict[int, tuple] = {}  # id -> (shardcount, type)
        self.nodes_with_metadata: set[str] = set()

    def is_citus_table(self, name: str) -> bool:
        return name in self.tables

    def get_table(self, name: str) -> DistributedTable:
        table = self.tables.get(name)
        if table is None:
            raise MetadataError(f"{name!r} is not a distributed table")
        return table

    def colocated_tables(self, colocation_id: int) -> list[DistributedTable]:
        return [t for t in self.tables.values() if t.colocation_id == colocation_id]

    def placement_node(self, shardid: int) -> str:
        node = self.placements.get(shardid)
        if node is None:
            raise MetadataError(f"shard {shardid} has no placement")
        return node

    def shards_on_node(self, nodename: str) -> list[ShardInterval]:
        out = []
        for table in self.tables.values():
            for shard in table.shards:
                if self.placements.get(shard.shardid) == nodename:
                    out.append(shard)
        return out


class MetadataStore:
    """Read/write access to the metadata tables of one node, plus cache
    maintenance. One per CitusExtension instance."""

    def __init__(self, instance):
        self.instance = instance
        self.cache = MetadataCache()
        self._all_placements: dict[int, list[str]] = {}
        # Monotonic metadata generation: every cache rebuild (DDL, shard
        # moves, metadata sync) bumps it, invalidating cached distributed
        # plans stamped with an older generation.
        self.generation = 0

    def bump_generation(self) -> None:
        self.generation += 1

    # -------------------------------------------------------------- setup

    def create_tables(self, session) -> None:
        session.execute(METADATA_DDL)

    # ------------------------------------------------------------- writes

    def add_node(self, session, nodename: str, role: str = "primary",
                 hasmetadata: bool = False) -> None:
        existing = session.execute(
            "SELECT count(*) FROM pg_dist_node WHERE nodename = $1", [nodename]
        ).scalar()
        if existing:
            return
        session.execute(
            "INSERT INTO pg_dist_node (nodename, groupid, noderole, hasmetadata)"
            " VALUES ($1, $2, $3, $4)",
            [nodename, len(self.cache.nodes) + 1, role, hasmetadata],
        )
        self.reload(session)

    def record_distributed_table(self, session, name: str, method: str,
                                 dist_column: str | None, colocation_id: int,
                                 shards: list[ShardInterval],
                                 placements: dict[int, str]) -> None:
        session.execute(
            "INSERT INTO pg_dist_partition (logicalrelid, partmethod, partkey, colocationid)"
            " VALUES ($1, $2, $3, $4)",
            [name, method, dist_column, colocation_id],
        )
        for shard in shards:
            session.execute(
                "INSERT INTO pg_dist_shard (shardid, logicalrelid, shardminvalue,"
                " shardmaxvalue) VALUES ($1, $2, $3, $4)",
                [shard.shardid, name, shard.min_value, shard.max_value],
            )
            for node in _placement_nodes(placements, shard.shardid):
                session.execute(
                    "INSERT INTO pg_dist_placement (shardid, nodename) VALUES ($1, $2)",
                    [shard.shardid, node],
                )
        self.reload(session)

    def record_colocation_group(self, session, shardcount: int, column_type: str | None) -> int:
        session.execute(
            "INSERT INTO pg_dist_colocation (shardcount, distributioncolumntype)"
            " VALUES ($1, $2)",
            [shardcount, column_type],
        )
        colocation_id = session.execute(
            "SELECT max(colocationid) FROM pg_dist_colocation"
        ).scalar()
        self.reload(session)
        return colocation_id

    def update_placement(self, session, shardid: int, new_node: str) -> None:
        session.execute(
            "UPDATE pg_dist_placement SET nodename = $1 WHERE shardid = $2",
            [new_node, shardid],
        )
        self.reload(session)

    def drop_table_metadata(self, session, name: str) -> None:
        shard_ids = [
            row[0]
            for row in session.execute(
                "SELECT shardid FROM pg_dist_shard WHERE logicalrelid = $1", [name]
            )
        ]
        session.execute("DELETE FROM pg_dist_partition WHERE logicalrelid = $1", [name])
        session.execute("DELETE FROM pg_dist_shard WHERE logicalrelid = $1", [name])
        for shardid in shard_ids:
            session.execute("DELETE FROM pg_dist_placement WHERE shardid = $1", [shardid])
        self.reload(session)

    # ------------------------------------------------- 2PC commit records

    def write_commit_record(self, session, gid: str) -> None:
        session.execute(
            "INSERT INTO pg_dist_transaction (gid, coordinator) VALUES ($1, $2)",
            [gid, self.instance.name],
        )

    def commit_record_exists(self, session, gid: str) -> bool:
        return bool(
            session.execute(
                "SELECT count(*) FROM pg_dist_transaction WHERE gid = $1", [gid]
            ).scalar()
        )

    def delete_commit_record(self, session, gid: str) -> None:
        session.execute("DELETE FROM pg_dist_transaction WHERE gid = $1", [gid])

    # -------------------------------------------------------------- reads

    def reload(self, session) -> None:
        """Rebuild the in-memory cache from the metadata tables."""
        cache = MetadataCache()
        for name, groupid, role, hasmeta in session.execute(
            "SELECT nodename, groupid, noderole, hasmetadata FROM pg_dist_node"
            " ORDER BY nodeid"
        ):
            cache.nodes.append(name)
            cache.node_roles[name] = role
            if hasmeta:
                cache.nodes_with_metadata.add(name)
        for cid, shardcount, ctype in session.execute(
            "SELECT colocationid, shardcount, distributioncolumntype FROM pg_dist_colocation"
        ):
            cache.colocation_groups[cid] = (shardcount, ctype)
        shards_by_table: dict[str, list[ShardInterval]] = {}
        for shardid, rel, minv, maxv in session.execute(
            "SELECT shardid, logicalrelid, shardminvalue, shardmaxvalue FROM pg_dist_shard"
            " ORDER BY shardminvalue, shardid"
        ):
            shards_by_table.setdefault(rel, []).append(
                ShardInterval(shardid, rel, minv if minv is not None else INT32_MIN,
                              maxv if maxv is not None else INT32_MAX)
            )
        for rel, method, partkey, cid in session.execute(
            "SELECT logicalrelid, partmethod, partkey, colocationid FROM pg_dist_partition"
        ):
            ctype = cache.colocation_groups.get(cid, (None, None))[1]
            cache.tables[rel] = DistributedTable(
                rel, method, partkey, ctype, cid, shards_by_table.get(rel, [])
            )
        for shardid, nodename in session.execute(
            "SELECT shardid, nodename FROM pg_dist_placement WHERE shardstate = 1"
        ):
            # Reference tables have one placement per node; keep the first
            # as canonical and track the rest separately.
            if shardid not in cache.placements:
                cache.placements[shardid] = nodename
        self._all_placements = {}
        for shardid, nodename in session.execute(
            "SELECT shardid, nodename FROM pg_dist_placement WHERE shardstate = 1"
        ):
            self._all_placements.setdefault(shardid, []).append(nodename)
        self.cache = cache
        self.bump_generation()

    def all_placements(self, shardid: int) -> list[str]:
        return list(self._all_placements.get(shardid, ()))

    def dump_rows(self, session) -> dict[str, list]:
        """All metadata rows, for syncing to another node."""
        out = {}
        for table in ("pg_dist_node", "pg_dist_partition", "pg_dist_shard",
                      "pg_dist_placement", "pg_dist_colocation"):
            out[table] = session.execute(f"SELECT * FROM {table}").rows
        return out

    def load_rows(self, session, rows: dict[str, list]) -> None:
        for table, table_rows in rows.items():
            session.execute(f"DELETE FROM {table}")
            for row in table_rows:
                placeholders = ", ".join(f"${i + 1}" for i in range(len(row)))
                session.execute(f"INSERT INTO {table} VALUES ({placeholders})", list(row))
        self.reload(session)


def _placement_nodes(placements: dict, shardid: int):
    value = placements[shardid]
    return value if isinstance(value, (list, tuple)) else [value]


def split_hash_ranges(shard_count: int) -> list[tuple[int, int]]:
    """Split the int32 hash space into ``shard_count`` contiguous ranges,
    the way create_distributed_table does."""
    if shard_count <= 0:
        raise MetadataError("shard_count must be positive")
    span = 2**32
    step = span // shard_count
    ranges = []
    start = INT32_MIN
    for i in range(shard_count):
        end = INT32_MIN + step * (i + 1) - 1 if i < shard_count - 1 else INT32_MAX
        ranges.append((start, end))
        start = end + 1
    return ranges
