"""COPY: bulk append of rows to a table.

``COPY t FROM STDIN`` accepts either pre-split rows (list of value lists)
or CSV text. Like PostgreSQL, COPY goes through the same insertion path as
INSERT (index maintenance, constraints) but in a single streamed command —
the paper's §3.8 distributed COPY builds on this by opening one of these
per shard.
"""

from __future__ import annotations

import csv
import io

from ..errors import DataError
from ..sql import ast as A
from .datum import caster
from .executor import LocalExecutor, QueryResult


def execute_copy(session, stmt: A.Copy, copy_data) -> QueryResult:
    if stmt.direction == "to":
        return _copy_to(session, stmt)
    if copy_data is None:
        raise DataError("COPY FROM STDIN requires copy_data")
    rows = _normalize_rows(copy_data, session, stmt)
    count = copy_into(session, stmt.table, rows, stmt.columns or None)
    result = QueryResult([], [], command="COPY")
    result.rowcount = count
    return result


def copy_into(session, table_name: str, rows, columns=None) -> int:
    """Append rows through the executor's append driver. Returns row count."""
    count = _append(session, table_name, rows, columns, "COPY")
    session.stats["rows_copied"] += count
    return count


def insert_rows(session, table_name: str, rows, columns=None) -> int:
    """Append already-evaluated value rows through the executor's append
    driver, with INSERT semantics (no ``rows_copied`` accounting).

    Used by the INSERT..SELECT coordinator strategy for local destinations:
    the source rows are plain values, so rebuilding per-row Literal AST
    nodes just to re-evaluate them would be pure overhead. ``rows`` may be
    a generator — the streaming write plane feeds it one source batch at a
    time.
    """
    return _append(session, table_name, rows, columns, "INSERT")


def _append(session, table_name: str, rows, columns, command: str) -> int:
    table = session.instance.catalog.get_table(table_name)
    session.acquire_table_lock(table_name, "RowExclusive")
    executor = LocalExecutor(session)
    shape = executor._write_shape(table, columns or None)
    return executor.append_rows(shape, rows, command)


def _normalize_rows(copy_data, session, stmt: A.Copy):
    if isinstance(copy_data, str):
        table = session.instance.catalog.get_table(stmt.table)
        columns = stmt.columns or table.column_names()
        casters = [caster(table.column(c).type_name) for c in columns]
        reader = csv.reader(io.StringIO(copy_data))
        for record in reader:
            if not record:
                continue
            yield [
                None if text == "" else cast(text)
                for text, cast in zip(record, casters)
            ]
    else:
        yield from copy_data


def _copy_to(session, stmt: A.Copy) -> QueryResult:
    table = session.instance.catalog.get_table(stmt.table)
    columns = stmt.columns or table.column_names()
    select = A.Select(
        targets=[A.TargetEntry(A.ColumnRef(c)) for c in columns],
        from_items=[A.TableRef(stmt.table)],
    )
    result = LocalExecutor(session).execute_select(select, None)
    result.command = "COPY"
    return result
