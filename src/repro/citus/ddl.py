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

Every command sent to a shard placement is an AST built here once:
:meth:`DistributedDDL.propagate` is the one loop over a table's placements,
:func:`shard_ddl` the one builder of a shard's CREATE TABLE and indexes.
"""

from __future__ import annotations

import itertools

from ..engine.catalog import Table
from ..engine.datum import is_hash_distributable
from ..engine.instance import _fresh_index_structure
from ..errors import MetadataError
from ..sql import ast as A
from .copy_dist import distribute_rows
from .metadata import (
    HASH,
    RANGE,
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
                                 shard_count: int | None = None) -> str:
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
        placements = self._place_shards(shards, colocation_id)
        self._create_shards(session, table, HASH, dist_column, colocation_id,
                            shards, placements)
        return table_name

    def create_range_distributed_table(self, session, table_name: str,
                                       dist_column: str, ranges: list) -> str:
        """Range partitioning (§3.3.1: "available for some advanced use
        cases"). ``ranges`` is a sorted list of [min, max] pairs of integer
        distribution column values; they must not overlap."""
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
            shard.shardid: [nodes[i % len(nodes)]] for i, shard in enumerate(shards)
        }
        self._create_shards(session, table, RANGE, dist_column, colocation_id,
                            shards, placements)
        return table_name

    def create_reference_table(self, session, table_name: str) -> str:
        cache = self.ext.metadata.cache
        if cache.is_citus_table(table_name):
            raise MetadataError(f"table {table_name!r} is already distributed")
        table = self.ext.instance.catalog.get_table(table_name)
        shard = ShardInterval(self.ext.allocate_shard_ids(1)[0], table_name,
                              None, None)
        colocation_id = self.ext.metadata.record_colocation_group(session, 1, None)
        self._create_shards(session, table, REFERENCE, None, colocation_id,
                            [shard], {shard.shardid: self._reference_nodes()})
        return table_name

    # ------------------------------------------------------------ helpers

    def _create_shards(self, session, table: Table, method, dist_column,
                       colocation_id, shards, placements) -> None:
        """Create the physical shards before the metadata that points at
        them (a failure leaves no metadata pointing at missing shards),
        then move the shell's rows into them."""
        cache = self.ext.metadata.cache
        for index, shard in enumerate(shards):
            beside = colocated_shards(cache, colocation_id, index)
            for node in placements[shard.shardid]:
                conn = self.ext.worker_connection(node)
                for stmt in shard_ddl(cache, table, shard.shard_name, beside):
                    conn.execute_parsed(stmt)
        self.ext.metadata.record_distributed_table(
            session, table.name, method, dist_column, colocation_id, shards,
            placements,
        )
        self._move_existing_rows(session, table, table.name)
        self.ext.sync_metadata_if_enabled(session)

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
            # Colocation labels, not column types: a range group's label
            # (``range:int``) refuses every hash table.
            label = cache.colocation_groups[target.colocation_id][1]
            if label != column_type:
                raise MetadataError(
                    "cannot colocate tables with different distribution column types"
                    f" ({label} vs {column_type})"
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

    def _place_shards(self, shards, colocation_id) -> dict:
        """Round-robin placement; co-located tables copy the placement of an
        existing table in the group so their shard ranges stay aligned."""
        cache = self.ext.metadata.cache
        nodes = self._worker_nodes()
        existing = [
            t for t in cache.colocated_tables(colocation_id) if t.shards
        ]
        if existing:
            template = existing[0]
            return {
                shard.shardid: [cache.placement_node(template.shards[i].shardid)]
                for i, shard in enumerate(shards)
            }
        return {shard.shardid: [nodes[i % len(nodes)]]
                for i, shard in enumerate(shards)}

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

    def _move_existing_rows(self, session, table: Table, table_name: str) -> None:
        """Existing rows move from the shell table into the shards."""
        scan = table.heap.scan(session.snapshot(), self.ext.instance.xids.clog)
        first = next(scan, None)
        if first is not None:
            rows = (t.values for t in itertools.chain([first], scan))
            distribute_rows(self.ext, session, table_name, rows, table.column_names())
        # Reset the shell's storage: data now lives in shards.
        table.heap.__init__(table_name)
        for index in table.indexes.values():
            index.data = _fresh_index_structure(index)

    # ----------------------------------------------------- DDL propagation

    def propagate(self, dist, build) -> None:
        """Send every placement of every shard of ``dist``, in shard order,
        its command: the one loop that sends a command to a table's
        placements. ``build(shard, shard_index)`` makes the shard-rewritten
        AST; it runs once per placement, so no two nodes — and never the
        coordinator's catalog — share the nodes of what they are sent."""
        cache = self.ext.metadata.cache
        for index, shard in enumerate(dist.shards):
            for node in cache.placements[shard.shardid]:
                self.ext.worker_connection(node).execute_parsed(build(shard, index))

    def propagate_create_index(self, session, stmt: A.CreateIndex) -> None:
        def build(shard, _index):
            shard_stmt = stmt.copy()
            shard_stmt.name = f"{stmt.name}_{shard.shardid}"
            shard_stmt.table = shard.shard_name
            return shard_stmt

        self.propagate(self.ext.metadata.cache.get_table(stmt.table), build)

    def propagate_alter_table(self, session, stmt: A.AlterTable) -> None:
        cache = self.ext.metadata.cache
        dist = cache.get_table(stmt.table)
        fk = stmt.foreign_key if stmt.action == "add_foreign_key" else None

        def build(shard, index):
            shard_stmt = stmt.copy()
            shard_stmt.table = shard.shard_name
            if fk is not None:
                target = fk_target(cache, fk.ref_table, colocated_shards(
                    cache, dist.colocation_id, index))
                if target is None:
                    raise MetadataError(
                        f"foreign key from distributed table to local table"
                        f" {fk.ref_table!r} is not supported"
                        if fk.ref_table not in cache.tables else
                        "foreign keys between distributed tables require"
                        " co-location")
                shard_stmt.foreign_key.ref_table = target
            return shard_stmt

        self.propagate(dist, build)

    def propagate_drop_table(self, session, name: str) -> None:
        self.propagate(self.ext.metadata.cache.get_table(name), lambda shard, _:
                       A.DropTable([shard.shard_name], if_exists=True))
        self.ext.metadata.drop_table_metadata(session, name)

    def propagate_truncate(self, session, name: str) -> None:
        self.propagate(self.ext.metadata.cache.get_table(name), lambda shard, _:
                       A.TruncateTable([shard.shard_name]))


def drop_quietly(ext, node: str, table: str) -> None:
    """DROP TABLE IF EXISTS on ``node``, best-effort: a cleanup must not
    mask the error (or finish the work) it follows."""
    try:
        ext.worker_connection(node).execute_parsed(
            A.DropTable([table], if_exists=True))
    except Exception:
        pass


def colocated_shards(cache, colocation_id, index: int) -> dict[str, str]:
    """``{table: shard name}`` of a co-location group at one shard
    position: the shards placed beside each other."""
    return {t.name: t.shards[index].shard_name
            for t in cache.colocated_tables(colocation_id)}


def fk_target(cache, ref_table: str, beside: dict[str, str]) -> str | None:
    """What a shard's foreign key to ``ref_table`` references: the shard of
    that table placed ``beside`` it, or the reference replica; None when it
    can reference neither (a shard cannot enforce it)."""
    if ref_table in beside:
        return beside[ref_table]
    ref = cache.tables.get(ref_table)
    return ref.shards[0].shard_name if ref is not None and ref.is_reference else None


def referenced_first(catalog, items: list, name=lambda item: item) -> list:
    """``items`` (tables placed together, or what ``name`` maps to one) with
    each after the ones its foreign keys reference, so copied rows find
    what they reference; otherwise in the given order."""
    names = {name(item) for item in items}

    def depth(table, seen=()):
        refs = {fk.ref_table for fk in catalog.get_table(table).foreign_keys}
        return max((1 + depth(ref, seen + (table,)) for ref in refs & names
                    if ref != table and ref not in seen), default=0)

    return sorted(items, key=lambda item: depth(name(item)))


def table_to_create_stmt(table: Table) -> A.CreateTable:
    """Rebuild a CREATE TABLE AST from a catalog Table, sharing none of its
    nodes: what the statement's text would parse back to."""
    columns = []
    for col in table.columns:
        columns.append(
            A.ColumnDef(
                name=col.name,
                # Serial columns must stay serial on the shards so their
                # sequences fire there (shard-local sequences, like Citus).
                type_name="serial" if col.is_serial else col.type_name,
                not_null=col.not_null,
                default=None if col.default is None else col.default.copy(),
            )
        )
    fks = [
        A.ForeignKeyDef(list(fk.columns), fk.ref_table, list(fk.ref_columns))
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


def shard_ddl(cache, table: Table, shard_name: str,
              beside: dict[str, str]) -> list[A.Statement]:
    """The ASTs that create one shard of ``table``: CREATE TABLE, its
    foreign keys resolved by :func:`fk_target` against the shards placed
    ``beside`` it (those that cannot be are left off, mirroring Citus's
    restriction), then the table's secondary indexes."""
    stmt = table_to_create_stmt(table)
    stmt.name = shard_name
    for fk in stmt.foreign_keys:
        fk.ref_table = fk_target(cache, fk.ref_table, beside)
    stmt.foreign_keys = [fk for fk in stmt.foreign_keys if fk.ref_table is not None]
    shard_suffix = shard_name.rsplit("_", 1)[1]
    return [stmt] + [
        A.CreateIndex(
            name=f"{index.name}_{shard_suffix}",
            table=shard_name,
            exprs=[e.copy() for e in index.exprs],
            unique=index.unique,
            using=index.method,
        )
        for index in table.indexes.values()
        # Constraint indexes are recreated implicitly from the constraints.
        if not (index.name.endswith(("_pkey", "_fk_idx")) or "_ukey_" in index.name)
    ]
