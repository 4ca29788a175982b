"""Columnar storage access method (cstore / citus columnar).

Data warehousing workloads (§2.4, Table 2) want fast scans; Citus ships a
stripe-based, compressed, append-only columnar access method. This module
reproduces its *organization and cost behaviour*:

- rows appended to a columnar table are packed into fixed-size stripes,
  stored column-major with per-column min/max metadata (zone maps) and a
  modeled compression ratio per type;
- scans that project a subset of columns read only those columns' bytes,
  and stripes whose min/max excludes a predicate are skipped entirely;
- UPDATE/DELETE raise, matching the access method's append-only contract.

For execution correctness the engine's heap remains the source of truth
(every row also lives there); the columnar sidecar drives the *scan cost
accounting* consumed by the performance model and exposes stripe/zone-map
introspection for tests. DESIGN.md records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.datum import sort_key
from ..errors import MetadataError

STRIPE_ROWS = 10_000

# Modeled compression ratios by column type (zstd-ish, from the columnar
# docs' ballpark numbers).
_COMPRESSION = {
    "int": 4.0, "bigint": 4.0, "float": 2.0, "numeric": 3.0,
    "text": 3.0, "bool": 8.0, "date": 4.0, "timestamp": 4.0, "jsonb": 2.5,
}


@dataclass
class Stripe:
    columns: list  # list[list[values]] column-major
    row_count: int
    min_max: list  # per column: (min_key, max_key) or None


@dataclass
class ColumnarStore:
    table_name: str
    column_names: list
    column_types: list
    stripes: list = field(default_factory=list)
    _open_rows: list = field(default_factory=list)

    def append_rows(self, rows) -> None:
        for row in rows:
            self._open_rows.append(list(row))
            if len(self._open_rows) >= STRIPE_ROWS:
                self._flush()

    def _flush(self) -> None:
        if not self._open_rows:
            return
        n_cols = len(self.column_names)
        columns = [[row[i] for row in self._open_rows] for i in range(n_cols)]
        min_max = []
        for values in columns:
            present = [v for v in values if v is not None]
            if present:
                keys = [sort_key(v) for v in present]
                min_max.append((min(keys), max(keys)))
            else:
                min_max.append(None)
        self.stripes.append(Stripe(columns, len(self._open_rows), min_max))
        self._open_rows = []

    def finalize(self) -> None:
        self._flush()

    # ------------------------------------------------------------- costs

    def column_bytes(self, column: str) -> int:
        """Compressed on-disk bytes of one column."""
        self.finalize()
        index = self.column_names.index(column)
        ratio = _COMPRESSION.get(self.column_types[index], 2.0)
        raw = 0
        for stripe in self.stripes:
            for value in stripe.columns[index]:
                raw += _raw_width(value)
        return int(raw / ratio)

    def total_bytes(self) -> int:
        return sum(self.column_bytes(c) for c in self.column_names)

    def scan_bytes(self, columns: list, predicate_column: str | None = None,
                   low=None, high=None) -> int:
        """Bytes read by a scan projecting ``columns``, with optional
        zone-map pruning on a predicate column range."""
        self.finalize()
        wanted = columns or self.column_names
        pred_index = (
            self.column_names.index(predicate_column) if predicate_column else None
        )
        total = 0
        for stripe in self.stripes:
            if pred_index is not None and stripe.min_max[pred_index] is not None:
                smin, smax = stripe.min_max[pred_index]
                if low is not None and smax < sort_key(low):
                    continue
                if high is not None and smin > sort_key(high):
                    continue
            for column in wanted:
                index = self.column_names.index(column)
                ratio = _COMPRESSION.get(self.column_types[index], 2.0)
                raw = sum(_raw_width(v) for v in stripe.columns[index])
                total += int(raw / ratio)
        return total

    @property
    def stripe_count(self) -> int:
        self.finalize()
        return len(self.stripes)


def _raw_width(value) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 4
    return 16


def set_access_method(ext, session, table_name: str, method: str) -> None:
    """alter_table_set_access_method('t', 'columnar'): converts a Citus or
    local table to columnar organization."""
    if method not in ("columnar", "heap"):
        raise MetadataError(f"unknown access method {method!r}")
    catalog = ext.instance.catalog
    shell = catalog.get_table(table_name)
    shell.access_method = method
    cache = ext.metadata.cache
    if cache.is_citus_table(table_name):
        dist = cache.get_table(table_name)
        for shard in dist.shards:
            for node in ext.metadata.all_placements(shard.shardid):
                instance = ext.cluster.node(node)
                if instance.catalog.has_table(shard.shard_name):
                    shard_table = instance.catalog.get_table(shard.shard_name)
                    shard_table.access_method = method
                    if method == "columnar":
                        _attach_store(instance, shard_table)
    elif method == "columnar":
        _attach_store(ext.instance, shell)


def _attach_store(instance, table) -> ColumnarStore:
    store = ColumnarStore(
        table.name,
        table.column_names(),
        [c.type_name for c in table.columns],
    )
    # Load the existing heap contents into stripes.
    snapshot = instance.xids.take_snapshot()
    store.append_rows(
        tup.values for tup in table.heap.scan(snapshot, instance.xids.clog)
    )
    store.finalize()
    table.columnar_store = store
    return store


def get_store(table) -> ColumnarStore | None:
    return getattr(table, "columnar_store", None)


def columnar_scan_cost_pages(table, projected_columns: list | None) -> int:
    """Pages a scan reads: only the projected columns' compressed bytes."""
    store = get_store(table)
    if store is None:
        return table.heap.page_count
    from ..engine.heap import PAGE_SIZE

    wanted = projected_columns or store.column_names
    total = sum(store.column_bytes(c) for c in wanted if c in store.column_names)
    return max(1, total // PAGE_SIZE)
