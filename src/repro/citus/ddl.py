"""Distributed DDL: table distribution and schema propagation (§3.3, §3.8).

``create_distributed_table`` converts a regular table into a hash-
distributed table: shards are created on the workers (round-robin), the
``pg_dist_*`` metadata is written, existing rows are moved into the shards,
and the local table becomes an empty shell intercepted by the planner
hooks. ``create_reference_table`` replicates a single shard to every node
including the coordinator.

Schema changes (CREATE INDEX / ALTER TABLE / DROP / TRUNCATE) on Citus
tables are intercepted by the utility hook and propagated to every shard
with table names rewritten, preserving PostgreSQL's transactional-DDL feel
at the statement level.
"""

from __future__ import annotations

from ..engine.catalog import Table
from ..engine.datum import is_hash_distributable
from ..errors import MetadataError
from ..sql import ast as A
from ..sql.deparse import deparse
from .metadata import (
    HASH,
    REFERENCE,
    ShardInterval,
    split_hash_ranges,
)


class DistributedDDL:
    def __init__(self, ext):
        self.ext = ext

    # ----------------------------------------------------------- creation

    def create_distributed_table(self, session, table_name: str, dist_column: str,
                                 colocate_with: str | None = None,
                                 shard_count: int | None = None) -> None:
        cache = self.ext.metadata.cache
        if cache.is_citus_table(table_name):
            raise MetadataError(f"table {table_name!r} is already distributed")
        table = self.ext.instance.catalog.get_table(table_name)
        column = table.column(dist_column)
        if not is_hash_distributable(column.type_name):
            raise MetadataError(
                f"column {dist_column!r} of type {column.type_name!r} cannot be"
                " hash-distributed"
            )
        self._validate_unique_constraints(table, dist_column)

        colocation_id, shard_count = self._resolve_colocation(
            session, colocate_with, column.type_name, shard_count
        )
        shard_ids = self.ext.allocate_shard_ids(shard_count)
        ranges = split_hash_ranges(shard_count)
        shards = [
            ShardInterval(sid, table_name, lo, hi)
            for sid, (lo, hi) in zip(shard_ids, ranges)
        ]
        placements = self._place_shards(shards, colocation_id, colocate_with)

        # Create the physical shard tables before metadata so that a failure
        # leaves no metadata pointing at missing shards.
        for i, shard in enumerate(shards):
            self._create_shard_on_node(table, shard.shard_name, placements[shard.shardid],
                                       shard_index=i)
        self.ext.metadata.record_distributed_table(
            session, table_name, HASH, dist_column, colocation_id, shards, placements
        )
        self._move_existing_rows(session, table, table_name)
        self.ext.sync_metadata_if_enabled(session)

    def create_range_distributed_table(self, session, table_name: str,
                                       dist_column: str, ranges: list) -> None:
        """Range partitioning (§3.3.1: "available for some advanced use
        cases"). ``ranges`` is a sorted list of [min, max] pairs of integer
        distribution column values; they must not overlap."""
        from .metadata import RANGE

        cache = self.ext.metadata.cache
        if cache.is_citus_table(table_name):
            raise MetadataError(f"table {table_name!r} is already distributed")
        table = self.ext.instance.catalog.get_table(table_name)
        column = table.column(dist_column)
        if column.type_name not in ("int", "bigint"):
            raise MetadataError(
                "range distribution requires an integer distribution column"
                " in this reproduction"
            )
        self._validate_unique_constraints(table, dist_column)
        parsed = [(int(lo), int(hi)) for lo, hi in ranges]
        if not parsed:
            raise MetadataError("range distribution requires at least one range")
        for lo, hi in parsed:
            if lo > hi:
                raise MetadataError(f"invalid shard range [{lo}, {hi}]")
        for (_, hi1), (lo2, _) in zip(parsed, parsed[1:]):
            if lo2 <= hi1:
                raise MetadataError("shard ranges must be sorted and disjoint")
        shard_ids = self.ext.allocate_shard_ids(len(parsed))
        shards = [
            ShardInterval(sid, table_name, lo, hi)
            for sid, (lo, hi) in zip(shard_ids, parsed)
        ]
        colocation_id = self.ext.metadata.record_colocation_group(
            session, len(parsed), f"range:{column.type_name}"
        )
        nodes = self._worker_nodes()
        placements = {
            shard.shardid: nodes[i % len(nodes)] for i, shard in enumerate(shards)
        }
        for i, shard in enumerate(shards):
            self._create_shard_on_node(table, shard.shard_name,
                                       placements[shard.shardid], shard_index=i)
        self.ext.metadata.record_distributed_table(
            session, table_name, RANGE, dist_column, colocation_id, shards, placements
        )
        self._move_existing_rows(session, table, table_name)
        self.ext.sync_metadata_if_enabled(session)

    def create_reference_table(self, session, table_name: str) -> None:
        cache = self.ext.metadata.cache
        if cache.is_citus_table(table_name):
            raise MetadataError(f"table {table_name!r} is already distributed")
        table = self.ext.instance.catalog.get_table(table_name)
        shard_id = self.ext.allocate_shard_ids(1)[0]
        shard = ShardInterval(shard_id, table_name, None, None)
        nodes = self._reference_nodes()
        for node in nodes:
            self._create_shard_on_node(table, shard.shard_name, node, shard_index=None)
        colocation_id = self.ext.metadata.record_colocation_group(session, 1, None)
        self.ext.metadata.record_distributed_table(
            session, table_name, REFERENCE, None, colocation_id, [shard],
            {shard_id: nodes},
        )
        self._move_existing_rows(session, table, table_name)
        self.ext.sync_metadata_if_enabled(session)

    # ------------------------------------------------------------ helpers

    def _validate_unique_constraints(self, table: Table, dist_column: str) -> None:
        constraint_sets = []
        if table.primary_key:
            constraint_sets.append(table.primary_key)
        constraint_sets.extend(table.unique_constraints)
        for cols in constraint_sets:
            if dist_column not in cols:
                raise MetadataError(
                    "cannot create constraint without the distribution column:"
                    f" unique constraint on {cols} must include {dist_column!r}"
                )

    def _resolve_colocation(self, session, colocate_with, column_type, shard_count):
        cache = self.ext.metadata.cache
        if colocate_with and colocate_with not in ("default", "none"):
            target = cache.get_table(colocate_with)
            if target.is_reference:
                raise MetadataError("cannot co-locate with a reference table")
            if target.dist_column_type != column_type:
                raise MetadataError(
                    "cannot colocate tables with different distribution column types"
                    f" ({target.dist_column_type} vs {column_type})"
                )
            return target.colocation_id, target.shard_count
        shard_count = shard_count or self.ext.config.shard_count
        if colocate_with != "none":
            # Implicit co-location by distribution column type (§3.3.2).
            for cid, (count, ctype) in cache.colocation_groups.items():
                if ctype == column_type and count == shard_count:
                    return cid, count
        cid = self.ext.metadata.record_colocation_group(session, shard_count, column_type)
        return cid, shard_count

    def _place_shards(self, shards, colocation_id, colocate_with) -> dict:
        """Round-robin placement; co-located tables copy the placement of an
        existing table in the group so their shard ranges stay aligned."""
        cache = self.ext.metadata.cache
        nodes = self._worker_nodes()
        existing = [
            t for t in cache.colocated_tables(colocation_id) if t.shards
        ]
        placements = {}
        if existing:
            template = existing[0]
            for i, shard in enumerate(shards):
                placements[shard.shardid] = cache.placement_node(
                    template.shards[i].shardid
                )
        else:
            for i, shard in enumerate(shards):
                placements[shard.shardid] = nodes[i % len(nodes)]
        return placements

    def _worker_nodes(self) -> list[str]:
        nodes = list(self.ext.metadata.cache.nodes)
        if not nodes:
            # Single-node Citus ("Citus 0+1"): the coordinator is the worker.
            nodes = [self.ext.instance.name]
        return nodes

    def _reference_nodes(self) -> list[str]:
        nodes = self._worker_nodes()
        if self.ext.instance.name not in nodes:
            nodes = [self.ext.instance.name] + nodes
        return nodes

    def _create_shard_on_node(self, table: Table, shard_name: str, node: str,
                              shard_index: int | None) -> None:
        stmts = shard_ddl_statements(self.ext, table, shard_name, shard_index)
        conn = self.ext.worker_connection(node)
        for stmt_sql in stmts:
            conn.execute(stmt_sql)

    def _move_existing_rows(self, session, table: Table, table_name: str) -> None:
        """Existing rows move from the shell table into the shards."""
        snapshot = session.snapshot()
        clog = self.ext.instance.xids.clog
        rows = [list(t.values) for t in table.heap.scan(snapshot, clog)]
        if rows:
            from .copy_dist import distribute_rows

            distribute_rows(self.ext, session, table_name, rows, table.column_names())
        # Reset the shell's storage: data now lives in shards.
        table.heap.__init__(table_name)
        for index in table.indexes.values():
            from ..engine.instance import _fresh_index_structure

            index.data = _fresh_index_structure(index)

    # ----------------------------------------------------- DDL propagation

    def propagate_create_index(self, session, stmt: A.CreateIndex) -> None:
        dist = self.ext.metadata.cache.get_table(stmt.table)
        for shard in dist.shards:
            for node in self.ext.metadata.all_placements(shard.shardid):
                shard_stmt = stmt.copy()
                shard_stmt.name = f"{stmt.name}_{shard.shardid}"
                shard_stmt.table = shard.shard_name
                self.ext.worker_connection(node).execute(deparse(shard_stmt))

    def propagate_alter_table(self, session, stmt: A.AlterTable) -> None:
        dist = self.ext.metadata.cache.get_table(stmt.table)
        cache = self.ext.metadata.cache
        for i, shard in enumerate(dist.shards):
            for node in self.ext.metadata.all_placements(shard.shardid):
                shard_stmt = stmt.copy()
                shard_stmt.table = shard.shard_name
                if stmt.action == "add_foreign_key" and stmt.foreign_key is not None:
                    shard_stmt.foreign_key.ref_table = self._rewrite_fk_target(
                        stmt.foreign_key.ref_table, cache, dist, i
                    )
                self.ext.worker_connection(node).execute(deparse(shard_stmt))

    def propagate_drop_table(self, session, name: str) -> None:
        dist = self.ext.metadata.cache.get_table(name)
        for shard in dist.shards:
            for node in self.ext.metadata.all_placements(shard.shardid):
                self.ext.worker_connection(node).execute(
                    f"DROP TABLE IF EXISTS {shard.shard_name}"
                )
        self.ext.metadata.drop_table_metadata(session, name)

    def propagate_truncate(self, session, name: str) -> None:
        dist = self.ext.metadata.cache.get_table(name)
        for shard in dist.shards:
            for node in self.ext.metadata.all_placements(shard.shardid):
                self.ext.worker_connection(node).execute(
                    f"TRUNCATE TABLE {shard.shard_name}"
                )

    def _rewrite_fk_target(self, ref_table: str, cache, dist, shard_index: int) -> str:
        ref_dist = cache.tables.get(ref_table)
        if ref_dist is None:
            raise MetadataError(
                f"foreign key from distributed table to local table {ref_table!r}"
                " is not supported"
            )
        if ref_dist.is_reference:
            return ref_dist.shards[0].shard_name
        if ref_dist.colocation_id != dist.colocation_id:
            raise MetadataError(
                "foreign keys between distributed tables require co-location"
            )
        return ref_dist.shards[shard_index].shard_name


def table_to_create_stmt(table: Table) -> A.CreateTable:
    """Rebuild a CREATE TABLE AST from a catalog Table."""
    columns = []
    for col in table.columns:
        columns.append(
            A.ColumnDef(
                name=col.name,
                # Serial columns must stay serial on the shards so their
                # sequences fire there (shard-local sequences, like Citus).
                type_name="serial" if col.is_serial else col.type_name,
                not_null=col.not_null,
                default=col.default,
            )
        )
    fks = [
        A.ForeignKeyDef(list(fk.columns), fk.ref_table, list(fk.ref_columns), fk.name)
        for fk in table.foreign_keys
    ]
    return A.CreateTable(
        name=table.name,
        columns=columns,
        primary_key=list(table.primary_key),
        unique_constraints=[list(u) for u in table.unique_constraints],
        foreign_keys=fks,
        using=None if table.access_method == "heap" else table.access_method,
    )


def shard_ddl_statements(ext, table: Table, shard_name: str,
                         shard_index: int | None) -> list[str]:
    """The SQL that creates one shard: CREATE TABLE with foreign keys
    rewritten to co-located shard / reference replica names, plus the
    table's secondary indexes. ``shard_index`` is the position of this
    shard within its table's shard list (None for reference tables)."""
    cache = ext.metadata.cache
    stmt = table_to_create_stmt(table)
    stmt.name = shard_name
    shard_suffix = shard_name.rsplit("_", 1)[1]
    kept_fks = []
    for fk in stmt.foreign_keys:
        ref_dist = cache.tables.get(fk.ref_table)
        if ref_dist is None:
            # FK to a local table: only legal before distribution; shards
            # cannot enforce it, mirroring Citus's restriction.
            continue
        if ref_dist.is_reference:
            fk.ref_table = ref_dist.shards[0].shard_name
        else:
            # Co-located FK: same shard index.
            if shard_index is not None and shard_index < len(ref_dist.shards):
                fk.ref_table = ref_dist.shards[shard_index].shard_name
            else:
                continue
        kept_fks.append(fk)
    stmt.foreign_keys = kept_fks
    statements = [deparse(stmt)]
    for index in table.indexes.values():
        if index.name.endswith("_pkey") or "_ukey_" in index.name or index.name.endswith("_fk_idx"):
            continue  # recreated implicitly from constraints
        idx_stmt = A.CreateIndex(
            name=f"{index.name}_{shard_suffix}",
            table=shard_name,
            exprs=[e.copy() for e in index.exprs],
            unique=index.unique,
            using=index.method,
        )
        statements.append(deparse(idx_stmt))
    return statements


def shard_id_for_value(dist, value) -> int:
    """The shardid that owns a distribution column value."""
    index = dist.shard_index_for_value(value)
    return dist.shards[index].shardid
