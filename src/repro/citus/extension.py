"""The Citus extension object: hook registration, UDFs, configuration.

``install_citus(instance, cluster)`` is the equivalent of ``CREATE
EXTENSION citus``: it creates the metadata tables, registers the UDF
surface (``create_distributed_table`` & co.), and installs the planner
hook, utility hook, transaction callbacks, and the maintenance background
worker — the full §3.1 hook inventory. Everything the distributed layer
does flows through those hooks; the engine knows nothing about Citus.

The surface is declared once. :class:`CitusConfig` is the GUC table:
``citus_set_config``, ``SHOW`` / ``SET citus.*`` and README's list all
derive from its fields. :data:`UDFS` is the UDF table: one row per UDF,
saying whether it is coordinator-only, and the registration loop applies
that check. A monitoring view's columns live in the module that builds
its rows.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from dataclasses import dataclass, fields

from ..engine.stats import StatsRegistry
from ..errors import MetadataError, ReproError
from .ash import MODES as ASH_MODES, ActiveSessionHistory
from .columnar import set_access_method
from .ddl import DistributedDDL, table_to_create_stmt
from .executor.adaptive import AdaptiveExecutor
from .introspection import citus_dist_stat_activity, citus_lock_waits
from .isolation import isolate_tenant_to_new_shard
from .metadata import FIRST_SHARD_ID, MetadataStore
from .metrics import metrics_snapshot
from .observability import citus_explain, citus_explain_analyze
from .planner.distributed import citus_plan_alternatives, make_planner_hook
from .planner.plan_cache import PlanCache
from .rebalancer import (citus_move_shard_placement, drain_node,
                         get_rebalance_progress, rebalance_table_shards,
                         undistribute_table)
from .telemetry import SCOPES, telemetry_for
from .txn.deadlock import detect_distributed_deadlocks
from .txn.recovery import recover_prepared_transactions
from .txn.twopc import TransactionCallbacks
from .utility import make_utility_hook


@dataclass
class CitusConfig:
    """The citus.* GUCs this reproduction models, one configuration for the
    whole cluster. A field's default type is how a value is parsed, and an
    int GUC is a count: it is at least 1."""

    shard_count: int = 32
    max_shared_pool_size: int = 100  # per worker node, shared across backends
    executor_slow_start_interval_ms: float = 10.0
    # COPY / INSERT..SELECT route rows into per-shard COPY channels (§3.8)
    # that flush to the workers incrementally.
    copy_flush_threshold: int = 512  # rows per channel before a flush
    # Distributed tracing / statement telemetry.
    enable_tracing: bool = True  # collect a span tree per statement
    log_min_duration: float = -1.0  # slow-query log threshold (ms); <0 off
    # Live introspection: wait-event accounting + per-tenant statistics
    # (citus_dist_stat_activity / citus_lock_waits / citus_stat_tenants).
    enable_introspection: bool = True
    # Candidate-plan pipeline: record a PlanSearch (tiers tried, structured
    # rejections, costed alternatives) per planned statement, exposed via
    # citus_plan_alternatives() / EXPLAIN "Considered:" lines. Off keeps
    # the planner hot path free of per-statement search bookkeeping.
    enable_plan_alternatives: bool = True
    # Comma-separated cascade tiers to skip (fast_path,router,pushdown,
    # join_order) — a debugging/regression-gate lever, not a paper GUC.
    planner_disabled_tiers: str = ""
    # Distributed-transaction co-access graph (citus_stat_txn_graph). Off:
    # executor runs keep no access units and nothing is folded.
    enable_txn_graph: bool = True
    # Active Session History (citus_ash): each statement's waits, folded
    # from its record into a bounded ring. Off: nothing is noted or folded.
    enable_ash: bool = True


#: GUC name -> the type its values parse as.
GUC_TYPES = {f.name: type(f.default) for f in fields(CitusConfig)}

#: The telemetry sensors' on / off switches: every ``enable_*`` GUC.
TELEMETRY_SWITCHES = tuple(name for name in GUC_TYPES
                           if name.startswith("enable_"))

#: The maintenance daemon's period (2PC recovery + deadlock detection).
MAINTENANCE_INTERVAL_S = 2.0

COORDINATOR_ONLY = ("operation is only allowed on the coordinator"
                    " (connect there for DDL)")


class NamedArgument:
    """Carrier for ``name := value`` UDF arguments."""

    def __init__(self, name, value):
        self.name = name
        self.value = value


class CitusExtension:
    def __init__(self, instance, cluster, config: CitusConfig | None = None,
                 is_coordinator: bool = True):
        self.instance = instance
        self.cluster = cluster
        self.config = config or CitusConfig()
        self.is_coordinator = is_coordinator
        self.metadata = MetadataStore(instance)
        self.plan_cache = PlanCache(self)
        self.ddl = DistributedDDL(self)
        self.executor = AdaptiveExecutor(self)
        self.txn_callbacks = TransactionCallbacks(self)
        # The cluster-shared telemetry object (repro.citus.telemetry): the
        # registry, every statistics fold and ring, and the capture methods
        # the planner, executor and transaction callbacks report through.
        # The same object is ``instance.telemetry`` on every node.
        holder = cluster if cluster is not None else self
        self.telemetry = telemetry_for(
            holder, cluster.clock if cluster is not None else None)
        self.failpoints: dict[str, bool] = {}
        self._utility_connections: dict[str, object] = {}
        self._shared_slots: Counter = Counter()  # outgoing conns per worker
        instance.extensions["citus"] = self

    # ------------------------------------------------------------ helpers

    @property
    def stat_counters(self) -> StatsRegistry:
        """The cluster-wide stats registry (``citus_stat_*``): one registry
        per cluster, shared by every node's extension, so counters reflect
        the whole cluster regardless of which node incremented them."""
        return self.telemetry.registry

    def all_node_names(self) -> list[str]:
        nodes = list(self.metadata.cache.nodes)
        if not nodes:
            nodes = [self.instance.name]
        return nodes

    def worker_connection(self, node: str):
        """A cached utility connection for DDL/maintenance (not the
        adaptive executor's pools)."""
        conn = self._utility_connections.get(node)
        if conn is None or conn.closed or not conn.session.instance.is_up or (
            self.cluster and conn.session.instance is not self.cluster.nodes.get(node)
        ):
            conn = self.cluster.connect(node, application_name="citus_utility")
            self._utility_connections[node] = conn
        return conn

    def _sequence(self, attr: str, first: int):
        """A counter the cluster holds, so every node's extension draws
        from the one sequence."""
        holder = self.cluster if self.cluster is not None else self
        counter = getattr(holder, attr, None)
        if counter is None:
            counter = itertools.count(first)
            setattr(holder, attr, counter)
        return counter

    def allocate_shard_ids(self, count: int) -> list[int]:
        return list(itertools.islice(
            self._sequence("_citus_shard_id_seq", FIRST_SHARD_ID), count))

    def next_distributed_txn_id(self) -> int:
        return next(self._sequence("_citus_dist_txn_seq", 1))

    def try_reserve_shared_slot(self, node: str, force: bool = False) -> bool:
        if not force and self._shared_slots[node] >= self.config.max_shared_pool_size:
            self.stat_counters.incr("shared_pool_throttled", node=node)
            return False
        self._shared_slots[node] += 1
        self.stat_counters.gauge_incr("shared_pool_slots", node=node)
        return True

    def release_shared_slot(self, node: str) -> None:
        if self._shared_slots[node] > 0:
            self._shared_slots[node] -= 1
            self.stat_counters.gauge_decr("shared_pool_slots", node=node)

    def shard_bytes(self, node: str, shard_name: str) -> int:
        """Heap bytes of one shard placement (0 where there is none)."""
        catalog = self.cluster.node(node).catalog
        if not catalog.has_table(shard_name):
            return 0
        return catalog.get_table(shard_name).heap.total_bytes

    def table_size_estimate(self, table_name: str) -> int:
        """Total bytes across a Citus table's shards (catalog introspection
        stands in for citus_table_size())."""
        placements = self.metadata.cache.placements
        return sum(self.shard_bytes(node, shard.shard_name)
                   for shard in self.metadata.cache.get_table(table_name).shards
                   for node in placements[shard.shardid])

    # ------------------------------------------------------ metadata sync

    def sync_metadata_if_enabled(self, session) -> None:
        targets = self.metadata.cache.nodes_with_metadata
        if not targets:
            return
        rows = self.metadata.dump_rows(session)
        for node in targets:
            if node == self.instance.name:
                continue
            self._sync_to(node, rows)

    def start_metadata_sync_to_node(self, session, node: str) -> str:
        session.execute(
            "UPDATE pg_dist_node SET hasmetadata = true WHERE nodename = $1", [node]
        )
        self.metadata.reload(session)
        rows = self.metadata.dump_rows(session)
        self._sync_to(node, rows)
        return node

    def _sync_to(self, node: str, rows) -> None:
        worker = self.cluster.node(node)
        worker_ext = worker.extensions.get("citus")
        if worker_ext is None:
            raise MetadataError(
                f"node {node!r} does not have the citus extension installed"
            )
        worker_session = worker.connect("metadata_sync")
        try:
            worker_ext.metadata.load_rows(worker_session, rows)
            # Shell tables must exist on the worker so it can plan queries
            # against them (the worker becomes a coordinator, §3.2.1).
            for table_name in worker_ext.metadata.cache.tables:
                if worker.catalog.has_table(table_name):
                    continue
                shell = self.instance.catalog.get_table(table_name)
                stmt = table_to_create_stmt(shell)
                stmt.foreign_keys = []  # enforced at the shard level
                stmt.if_not_exists = True
                worker_session._execute_utility(stmt, None, None)
        finally:
            worker_session.close()

    # -------------------------------------------------------- maintenance

    def run_maintenance(self) -> dict:
        """One maintenance-daemon cycle: 2PC recovery + distributed
        deadlock detection (§3.1's background worker)."""
        operation = self.telemetry.operation("maintenance")
        try:
            self.stat_counters.incr("maintenance_cycles")
            recovered = recover_prepared_transactions(self)
            cancelled = detect_distributed_deadlocks(self)
            return {"recovery": recovered, "deadlocks_cancelled": cancelled}
        finally:
            self.telemetry.end_operation(operation)


def install_citus(instance, cluster, config: CitusConfig | None = None,
                  is_coordinator: bool = True) -> CitusExtension:
    ext = CitusExtension(instance, cluster, config, is_coordinator)
    session = instance.connect("citus_install")
    try:
        ext.metadata.create_tables(session)
        ext.metadata.reload(session)
    finally:
        session.close()
    # One configuration for the whole cluster (CitusConfig is shared): it
    # also attaches the telemetry object to every node installed so far.
    ext.telemetry.configure(ext.config, ext)
    catalog = instance.catalog
    catalog.register_function("_named_arg", lambda _s, n, v: NamedArgument(n, v))
    for name, fn, coordinator_only in UDFS:
        catalog.register_function(name, _bind(ext, fn, coordinator_only))
    instance.hooks.planner_hooks.append(make_planner_hook(ext))
    instance.hooks.utility_hooks.append(make_utility_hook(ext))
    instance.hooks.pre_commit_callbacks.append(ext.txn_callbacks.pre_commit)
    instance.hooks.post_commit_callbacks.append(ext.txn_callbacks.post_commit)
    instance.hooks.abort_callbacks.append(ext.txn_callbacks.abort)
    instance.register_background_worker(
        "citus_maintenance", lambda _inst: ext.run_maintenance(),
        interval=MAINTENANCE_INTERVAL_S,
    )
    return ext


def _bind(ext: CitusExtension, fn, coordinator_only: bool):
    """A :data:`UDFS` function as the engine calls a UDF, ``(session,
    *args)``; a coordinator-only one is refused on a worker."""
    @functools.wraps(fn)
    def udf(session, *args):
        if coordinator_only and not ext.is_coordinator:
            raise MetadataError(COORDINATOR_ONLY)
        return fn(ext, session, *args)
    return udf


# ------------------------------------------------------------ arguments

_BOOLS = {"on": True, "true": True, "1": True,
          "off": False, "false": False, "0": False}


def _parse(kind, value, what: str):
    """``value`` as a ``kind`` (a bool as PostgreSQL spells it); one that
    does not parse, NULL included, is an error naming ``what``."""
    try:
        if kind is bool and not isinstance(value, bool):
            value = _BOOLS[str(value).strip().lower()]
        if value is not None:
            return kind(value)
    except (KeyError, TypeError, ValueError):
        pass
    raise MetadataError(f"invalid value {value!r} for {what}"
                        f" ({kind.__name__} expected)")


def _args(udf: str, args, kinds) -> list:
    """A UDF's positional arguments parsed as ``kinds`` (missing or NULL:
    None)."""
    args = list(args[:len(kinds)])
    args += [None] * (len(kinds) - len(args))
    return [None if value is None else
            _parse(kind, value, f"an argument of {udf}")
            for kind, value in zip(kinds, args)]


def _at_least(value, floor, what: str):
    """``value`` (None passes) unless it is below ``floor``: an error
    naming ``what``."""
    if value is not None and value < floor:
        raise MetadataError(f"invalid value {value!r} for {what}"
                            f" (at least {floor} expected)")
    return value


def _mode(udf: str, modes, mode):
    """``mode`` if it is one of ``modes``, else an error naming the UDF and
    the modes it takes."""
    if mode not in modes:
        *head, last = modes
        raise MetadataError(f"unknown {udf} mode {mode!r}"
                            f" (expected {', '.join(head)}, or {last})")
    return mode


# ------------------------------------------- UDFs: fn(ext, session, *args)


def create_distributed_table(ext, session, table_name, dist_column, *rest):
    """``colocate_with`` positionally or by name, ``shard_count`` by name."""
    named = {a.name: a.value for a in rest if isinstance(a, NamedArgument)}
    positional = [a for a in rest if not isinstance(a, NamedArgument)]
    shard_count = named.get("shard_count")
    return ext.ddl.create_distributed_table(
        session, table_name, dist_column,
        colocate_with=positional[0] if positional else named.get("colocate_with"),
        shard_count=int(shard_count) if shard_count else None,
    )


def get_shard_id_for_distribution_column(ext, session, table_name, value):
    dist = ext.metadata.cache.get_table(table_name)
    return dist.shards[dist.shard_index_for_value(value)].shardid


def citus_create_restore_point(ext, session, name):
    """§3.9: write the restore point into every node's WAL so all nodes
    can be restored to a consistent point. Citus blocks 2PC commits while
    it does; the simulation runs one statement at a time, so no commit can
    fall between two nodes' records."""
    ext.instance.wal.create_restore_point(name)
    for node in ext.all_node_names():
        if node != ext.instance.name:
            ext.cluster.node(node).wal.create_restore_point(name)
    return name


def run_command_on_workers(ext, session, sql):
    results = []
    for node in ext.all_node_names():
        try:
            ext.worker_connection(node).execute(sql)
            results.append(f"{node}: OK")
        except ReproError as exc:
            results.append(f"{node}: ERROR {exc}")
    return results


def citus_shards(ext, session):
    """The citus_shards view: [table_name, shardid, shard_name, nodename,
    shard_size] per placement."""
    cache = ext.metadata.cache
    return [[table.name, shard.shardid, shard.shard_name, node,
             ext.shard_bytes(node, shard.shard_name)]
            for table in cache.tables.values() for shard in table.shards
            for node in cache.placements[shard.shardid]]


def citus_tables(ext, session):
    """The citus_tables view: [table_name, citus_table_type,
    distribution_column, colocation_id, shard_count, table_size]."""
    return [[table.name,
             "reference" if table.is_reference else (
                 "range distributed" if table.method == "r" else "distributed"),
             table.dist_column, table.colocation_id, table.shard_count,
             ext.table_size_estimate(table.name)]
            for table in ext.metadata.cache.tables.values()]


def citus_set_config(ext, session, name, value):
    """Set a GUC for the whole cluster, then re-apply telemetry (the one
    part of the system that keeps state derived from the configuration;
    the rest reads the field when it needs it)."""
    kind = GUC_TYPES.get(name)
    if kind is None:
        raise MetadataError(f"unknown citus configuration {name!r}")
    what = f"citus configuration {name!r}"
    parsed = _parse(kind, value, what)
    if kind is int:
        _at_least(parsed, 1, what)
    setattr(ext.config, name, parsed)
    ext.telemetry.configure(ext.config, ext)
    return value


def _reset(*scopes):
    """A reset UDF over :meth:`Telemetry.reset` scopes."""
    def reset(ext, session):
        ext.telemetry.reset(scopes)
        return True
    return reset


def citus_stat_reset(ext, session, mode="all"):
    """citus_stat_reset([mode]): one reset to rule them all.

    ``mode`` selects what to clear: 'counters' (cluster counters +
    wait-event totals), 'statements' (citus_stat_statements),
    'tenants' (citus_stat_tenants), 'graph' (the lifetime
    transaction co-access graph behind citus_stat_txn_graph),
    'ash' (the Active Session History statement ring behind
    citus_ash), or 'all' (the default — every scope above).
    """
    _mode("citus_stat_reset", SCOPES + ("all",), mode)
    ext.telemetry.reset(SCOPES if mode == "all" else {mode})
    return mode


def citus_trace_export(ext, session, *args):
    """Buffered traces as Chrome trace-event JSON (load the string in
    chrome://tracing or Perfetto). Optional argument limits the export
    to the N most recent traces (0: none)."""
    limit, = _args("citus_trace_export", args, (int,))
    _at_least(limit, 0, "the limit of citus_trace_export")
    return json.dumps(ext.telemetry.export_chrome(limit), default=str)


def citus_stat_txn_graph(ext, session, *args):
    """The distributed-transaction co-access graph's vertices: per shard
    group, the committed transactions that touched it, how many of them
    wrote it, and their bytes (``txngraph.VERTEX_COLUMNS``). It takes no
    mode: the graph keeps no edges to show."""
    if args:
        raise MetadataError("citus_stat_txn_graph takes no arguments")
    graph = ext.telemetry.txn_graph()
    return [] if graph is None else graph.vertex_rows()


def citus_ash(ext, session, *args):
    """Active Session History: ``citus_ash([mode [, start [, end [,
    bucket]]]])`` over the ring of statements and their waits; ``start``
    / ``end`` bound the virtual-time range (a statement overlapping it is
    in it; inclusive, both optional). The modes and their columns are
    ``ash.MODES``: 'statements' (the default, the raw ring), 'top_waits',
    'top_queries', 'top_tenants' (wait time by each), 'timeline'
    (``bucket`` seconds wide; omitted or 0, ``ash.TIMELINE_BUCKET_SECONDS``)
    and 'flamegraph' (collapsed-stack text for flamegraph.pl /
    speedscope)."""
    mode, start, end, bucket = _args("citus_ash", args,
                                     (str, float, float, float))
    _at_least(bucket, 0.0, "the bucket width of citus_ash")
    method, columns = ASH_MODES[_mode("citus_ash", ASH_MODES,
                                      "statements" if mode is None else mode)]
    ash = ext.telemetry.session_history()
    if ash is None:
        return [] if columns else ""
    if method is ActiveSessionHistory.timeline:
        return ash.timeline(start, end, bucket)
    return method(ash, start, end)


#: The UDF table: (name, ``fn(ext, session, *args)``, coordinator-only).
UDFS = (
    ("citus_add_node",
     lambda ext, s, *args: ext.metadata.add_node(s, *args), True),
    ("create_distributed_table", create_distributed_table, True),
    ("create_reference_table",
     lambda ext, s, *args: ext.ddl.create_reference_table(s, *args), True),
    ("create_range_distributed_table",
     lambda ext, s, *args: ext.ddl.create_range_distributed_table(s, *args),
     True),
    ("undistribute_table", undistribute_table, True),
    ("start_metadata_sync_to_node",
     CitusExtension.start_metadata_sync_to_node, True),
    ("rebalance_table_shards", rebalance_table_shards, True),
    ("citus_move_shard_placement", citus_move_shard_placement, True),
    ("get_shard_id_for_distribution_column",
     get_shard_id_for_distribution_column, False),
    ("citus_table_size",
     lambda ext, _s, table_name: ext.table_size_estimate(table_name), False),
    ("citus_create_restore_point", citus_create_restore_point, True),
    ("run_command_on_workers", run_command_on_workers, False),
    ("isolate_tenant_to_new_shard", isolate_tenant_to_new_shard, True),
    ("citus_drain_node", drain_node, True),
    ("citus_shards", citus_shards, False),
    ("citus_tables", citus_tables, False),
    ("citus_set_config", citus_set_config, False),
    ("alter_table_set_access_method", set_access_method, True),
    ("citus_stat_counters",
     lambda ext, _s, *_: ext.telemetry.counter_rows(), False),
    ("citus_stat_counters_reset", _reset("counters", "tenants"), False),
    ("citus_stat_statements_reset", _reset("statements", "tenants"), False),
    ("citus_stat_reset", citus_stat_reset, False),
    ("citus_explain", citus_explain, False),
    ("citus_explain_analyze", citus_explain_analyze, False),
    ("citus_stat_statements",
     lambda ext, _s, *_: ext.telemetry.statement_rows(), False),
    ("citus_trace_export", citus_trace_export, False),
    ("citus_plan_alternatives", citus_plan_alternatives, False),
    ("citus_slow_queries",
     lambda ext, _s, *_: ext.telemetry.slow_queries(), False),
    ("citus_dist_stat_activity", citus_dist_stat_activity, False),
    ("citus_lock_waits", citus_lock_waits, False),
    ("get_rebalance_progress", get_rebalance_progress, False),
    ("citus_stat_tenants", lambda ext, _s: ext.telemetry.tenant_rows(), False),
    ("citus_stat_txn_graph", citus_stat_txn_graph, False),
    ("citus_ash", citus_ash, False),
    ("citus_metrics_snapshot",
     lambda ext, _s, *_: metrics_snapshot(ext), False),
)
