"""The utility hook: what Citus does with a utility statement (§3.1).

DDL on a Citus table is applied to the shell and propagated to every
shard placement (:mod:`.ddl`), COPY into one is routed into per-shard
channels (:mod:`.copy_dist`), a CALL of a distributed procedure is
delegated to the worker holding its shard (:mod:`.procedures`), and
``SHOW citus.*`` reports the cluster's configuration while ``SET
citus.*`` is refused. Anything else falls through to the engine.
"""

from __future__ import annotations

from dataclasses import fields

from ..engine.copy import _normalize_rows
from ..engine.executor import QueryResult
from ..errors import DataError, MetadataError
from ..sql import ast as A
from .copy_dist import distribute_rows
from .procedures import try_delegate_call


def make_utility_hook(ext):
    """Build the utility_hook callable for this extension instance."""

    def utility_hook(session, stmt):
        cache = ext.metadata.cache
        if isinstance(stmt, A.Copy) and cache.is_citus_table(stmt.table):
            return _handle_copy(ext, session, stmt)
        if isinstance(stmt, A.CreateIndex) and cache.is_citus_table(stmt.table):
            session.create_index_from_ast(stmt)
            ext.ddl.propagate_create_index(session, stmt)
            ext.metadata.bump_generation()
            return QueryResult([], [], command="CREATE INDEX")
        if isinstance(stmt, A.DropIndex):
            # Find the index on a Citus shell table and drop it everywhere.
            for table_name, dist in cache.tables.items():
                if not ext.instance.catalog.has_table(table_name):
                    continue
                shell = ext.instance.catalog.get_table(table_name)
                if stmt.name in shell.indexes:
                    ext.instance.catalog.drop_index(stmt.name)
                    ext.ddl.propagate(dist, lambda shard, _: A.DropIndex(
                        f"{stmt.name}_{shard.shardid}", if_exists=True))
                    ext.metadata.bump_generation()
                    return QueryResult([], [], command="DROP INDEX")
            return None
        if isinstance(stmt, A.AlterTable) and cache.is_citus_table(stmt.table):
            session._alter_table(stmt)
            ext.ddl.propagate_alter_table(session, stmt)
            ext.metadata.bump_generation()
            return QueryResult([], [], command="ALTER TABLE")
        if isinstance(stmt, A.DropTable):
            citus_names = [n for n in stmt.names if cache.is_citus_table(n)]
            if citus_names:
                for name in citus_names:
                    ext.ddl.propagate_drop_table(session, name)
                for name in stmt.names:
                    ext.instance.catalog.drop_table(name, if_exists=True)
                return QueryResult([], [], command="DROP TABLE")
        if isinstance(stmt, A.TruncateTable):
            citus_names = [n for n in stmt.names if cache.is_citus_table(n)]
            if citus_names:
                for name in citus_names:
                    ext.ddl.propagate_truncate(session, name)
                ext.metadata.bump_generation()
                local = [n for n in stmt.names if n not in citus_names]
                if local:
                    session._execute_utility(A.TruncateTable(local), None, None)
                return QueryResult([], [], command="TRUNCATE")
        if isinstance(stmt, A.Vacuum) and stmt.table and cache.is_citus_table(stmt.table):
            ext.ddl.propagate(cache.get_table(stmt.table),
                              lambda shard, _: A.Vacuum(shard.shard_name))
            return QueryResult([], [], command="VACUUM")
        if isinstance(stmt, A.CallProcedure):
            return try_delegate_call(ext, session, stmt)
        if isinstance(stmt, (A.SetVar, A.ShowVar)) and stmt.name.startswith("citus."):
            return _citus_guc(ext, stmt)
        return None

    def _handle_copy(ext, session, stmt):
        if stmt.direction == "to":
            result = session.execute(f"SELECT * FROM {stmt.table}")
            result.command = "COPY"
            return result
        copy_data = getattr(session, "_pending_copy_data", None)
        if copy_data is None:
            raise DataError("COPY FROM STDIN requires copy_data")
        rows = _normalize_rows(copy_data, session, stmt)
        count = distribute_rows(ext, session, stmt.table, rows, stmt.columns or None)
        result = QueryResult([], [], command="COPY")
        result.rowcount = count
        return result

    return utility_hook


def _citus_guc(ext, stmt):
    """SET / SHOW of a CitusConfig field: the configuration is the
    cluster's, so SHOW reports it and a (session-scoped) SET is refused."""
    name = stmt.name[len("citus."):]
    if name not in {f.name for f in fields(ext.config)}:
        return None
    if isinstance(stmt, A.SetVar):
        raise MetadataError(
            f"{stmt.name} is cluster-wide: set it with"
            f" SELECT citus_set_config('{name}', ...)")
    return QueryResult([stmt.name], [[getattr(ext.config, name)]])
