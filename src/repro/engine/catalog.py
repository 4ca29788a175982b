"""System catalog: tables, columns, indexes, sequences, functions.

One :class:`Catalog` per :class:`~repro.engine.instance.PostgresInstance`.
DDL mutates the catalog; the planner resolves names against it. Citus adds
its own metadata tables *through* this catalog (they are ordinary tables),
exactly as the real extension ships ``pg_dist_*`` catalog tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import CatalogError
from ..sql import ast as A
from .datum import normalize_type
from .heap import Heap


@dataclass
class Column:
    name: str
    type_name: str
    not_null: bool = False
    default: Optional[A.Expr] = None
    is_serial: bool = False

    def __post_init__(self):
        raw = self.type_name.strip().lower()
        if raw in ("serial", "bigserial"):
            self.is_serial = True
        self.type_name = normalize_type(self.type_name)


@dataclass
class ForeignKey:
    name: str
    columns: list[str]
    ref_table: str
    ref_columns: list[str]


@dataclass
class IndexDef:
    name: str
    table: str
    exprs: list  # list[A.Expr] over the table's columns
    unique: bool = False
    method: str = "btree"  # btree | gin
    # Runtime index structure, attached by storage.
    data: object = None


@dataclass
class Table:
    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    unique_constraints: list[list[str]] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    indexes: dict[str, IndexDef] = field(default_factory=dict)
    access_method: str = "heap"  # heap | columnar
    heap: Heap = None

    def __post_init__(self):
        if self.heap is None:
            self.heap = Heap(self.name)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise CatalogError(f"column {name!r} of table {self.name!r} does not exist")

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


@dataclass
class SQLFunction:
    """A function callable from SQL — used both for builtins with catalog
    presence and for UDFs (the Citus management API surface).

    ``fn(session, *args)`` receives the executing session so UDFs can run
    queries, mutate metadata, and open remote connections, the way a C
    extension function runs inside the backend.
    """

    name: str
    fn: Callable
    volatile: bool = True


@dataclass
class Procedure:
    """A stored procedure (CALL target). ``fn(session, *args)``.

    ``distribution_arg`` is Citus metadata: when set, calls may be delegated
    to the worker owning the matching shard (§3.8 stored procedures).
    """

    name: str
    fn: Callable
    distribution_arg: Optional[int] = None
    colocated_table: Optional[str] = None


class Sequence:
    def __init__(self, name: str, start: int = 1):
        self.name = name
        self._next = start

    def nextval(self) -> int:
        value = self._next
        self._next += 1
        return value

    def setval(self, value: int) -> None:
        self._next = value + 1


_EPOCHS = itertools.count(1)


class Catalog:
    def __init__(self):
        self.tables: dict[str, Table] = {}
        self.sequences: dict[str, Sequence] = {}
        self.functions: dict[str, SQLFunction] = {}
        self.procedures: dict[str, Procedure] = {}
        self.bump_epoch()

    def bump_epoch(self) -> None:
        """Invalidate everything prepared against the table and index
        definitions (the executor's statement shapes). Called on CREATE /
        DROP / ALTER of a table or index. Epochs come from one process-wide
        counter, so no two catalogs (say, an instance before and after
        crash recovery) ever share one."""
        self.epoch = next(_EPOCHS)

    # ------------------------------------------------------------- tables

    def create_table(self, table: Table, if_not_exists: bool = False) -> bool:
        if table.name in self.tables:
            if if_not_exists:
                return False
            raise CatalogError(f"table {table.name!r} already exists")
        self.tables[table.name] = table
        self.bump_epoch()
        for col in table.columns:
            if col.is_serial:
                self.sequences[f"{table.name}_{col.name}_seq"] = Sequence(
                    f"{table.name}_{col.name}_seq"
                )
        return True

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        if name not in self.tables:
            if if_exists:
                return False
            raise CatalogError(f"table {name!r} does not exist")
        del self.tables[name]
        self.bump_epoch()
        for seq_name in [s for s in self.sequences if s.startswith(name + "_")]:
            del self.sequences[seq_name]
        return True

    def get_table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise CatalogError(f"relation {name!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        return name in self.tables

    # ------------------------------------------------------------ indexes

    def create_index(self, index: IndexDef, if_not_exists: bool = False) -> bool:
        table = self.get_table(index.table)
        if index.name in table.indexes:
            if if_not_exists:
                return False
            raise CatalogError(f"index {index.name!r} already exists")
        table.indexes[index.name] = index
        self.bump_epoch()
        return True

    def drop_index(self, name: str, if_exists: bool = False) -> bool:
        for table in self.tables.values():
            if name in table.indexes:
                del table.indexes[name]
                self.bump_epoch()
                return True
        if if_exists:
            return False
        raise CatalogError(f"index {name!r} does not exist")

    # ---------------------------------------------------------- functions

    def register_function(self, name: str, fn: Callable, volatile: bool = True) -> None:
        self.functions[name.lower()] = SQLFunction(name.lower(), fn, volatile)

    def get_function(self, name: str) -> SQLFunction | None:
        return self.functions.get(name.lower())

    def register_procedure(self, proc: Procedure) -> None:
        self.procedures[proc.name.lower()] = proc

    def get_procedure(self, name: str) -> Procedure:
        proc = self.procedures.get(name.lower())
        if proc is None:
            raise CatalogError(f"procedure {name!r} does not exist")
        return proc

    def get_sequence(self, name: str) -> Sequence:
        seq = self.sequences.get(name)
        if seq is None:
            seq = self.sequences[name] = Sequence(name)
        return seq
