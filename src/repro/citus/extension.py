"""The Citus extension object: hook registration, UDFs, configuration.

``install_citus(instance, cluster)`` is the equivalent of ``CREATE
EXTENSION citus``: it creates the metadata tables, registers the UDF
surface (``create_distributed_table`` & co.), and installs the planner
hook, utility hook, transaction callbacks, and the maintenance background
worker — the full §3.1 hook inventory. Everything the distributed layer
does flows through those hooks; the engine knows nothing about Citus.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from ..engine.stats import StatsRegistry
from ..errors import MetadataError, ReproError
from ..sql import ast as A
from .ddl import DistributedDDL
from .executor.adaptive import AdaptiveExecutor
from .metadata import FIRST_SHARD_ID, MetadataStore
from .planner.distributed import make_planner_hook
from .planner.plan_cache import PlanCache
from .telemetry import GUCS as TELEMETRY_GUCS, SCOPES, telemetry_for
from .txn.deadlock import detect_distributed_deadlocks
from .txn.recovery import recover_prepared_transactions
from .txn.twopc import TransactionCallbacks


@dataclass
class CitusConfig:
    """The citus.* GUCs this reproduction models."""

    shard_count: int = 32
    max_shared_pool_size: int = 100  # per worker node, shared across backends
    executor_slow_start_interval_ms: float = 10.0
    per_row_cpu_cost: float = 2e-6  # simulated seconds per result row
    enable_repartition_joins: bool = True
    # Multi-shard SELECTs pull row batches from per-task worker cursors.
    stream_batch_size: int = 256  # rows per cursor fetch round trip
    # COPY / INSERT..SELECT route rows into per-shard COPY channels (§3.8)
    # that flush to the workers incrementally.
    copy_flush_threshold: int = 512  # rows per channel before a flush
    deadlock_detection_interval_s: float = 2.0
    recovery_interval_s: float = 2.0
    # Distributed tracing / statement telemetry.
    enable_tracing: bool = True  # collect a span tree per statement
    trace_buffer_size: int = 256  # ring buffer of finished traces
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
    # Distributed-transaction co-access graph + time-windowed statistics
    # (citus_stat_txn_graph / citus_stat_windows). Off: executor runs keep
    # no access units and nothing is folded.
    enable_txn_graph: bool = True
    stat_window_seconds: float = 60.0  # width of one window bucket
    stat_window_buckets: int = 8  # ring retention (closed + current)
    # Active Session History (citus_ash): a deterministic wait/state
    # sampler driven by SimClock observers. Off detaches the observer, so
    # every clock advance pays one empty-list test.
    enable_ash: bool = True
    ash_sampling_interval: float = 1.0  # virtual seconds between samples
    ash_buffer_size: int = 65536  # ring capacity, in session-samples


class NamedArgument:
    """Carrier for ``name := value`` UDF arguments."""

    def __init__(self, name, value):
        self.name = name
        self.value = value


def split_named_args(args):
    positional = []
    named = {}
    for arg in args:
        if isinstance(arg, NamedArgument):
            named[arg.name] = arg.value
        else:
            positional.append(arg)
    return positional, named


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

    def allocate_shard_ids(self, count: int) -> list[int]:
        holder = self.cluster if self.cluster is not None else self
        counter = getattr(holder, "_citus_shard_id_seq", None)
        if counter is None:
            counter = itertools.count(FIRST_SHARD_ID)
            holder._citus_shard_id_seq = counter
        return [next(counter) for _ in range(count)]

    def next_distributed_txn_id(self) -> int:
        holder = self.cluster if self.cluster is not None else self
        counter = getattr(holder, "_citus_dist_txn_seq", None)
        if counter is None:
            counter = itertools.count(1)
            holder._citus_dist_txn_seq = counter
        return next(counter)

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

    def table_size_estimate(self, table_name: str) -> int:
        """Total bytes across a Citus table's shards (catalog introspection
        stands in for citus_table_size())."""
        dist = self.metadata.cache.get_table(table_name)
        total = 0
        for shard in dist.shards:
            for node in self.metadata.all_placements(shard.shardid):
                instance = self.cluster.node(node)
                if instance.catalog.has_table(shard.shard_name):
                    total += instance.catalog.get_table(shard.shard_name).heap.total_bytes
        return total

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

    def start_metadata_sync_to_node(self, session, node: str) -> None:
        session.execute(
            "UPDATE pg_dist_node SET hasmetadata = true WHERE nodename = $1", [node]
        )
        self.metadata.reload(session)
        rows = self.metadata.dump_rows(session)
        self._sync_to(node, rows)

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
            from .ddl import table_to_create_stmt

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

    # ------------------------------------------------------ restore points

    def create_distributed_restore_point(self, name: str) -> None:
        """§3.9: write the restore point into every node's WAL so all nodes
        can be restored to a consistent point. Citus blocks 2PC commits
        while it does; the simulation runs one statement at a time, so no
        commit can fall between two nodes' records."""
        self.instance.wal.create_restore_point(name)
        for node in self.all_node_names():
            if node != self.instance.name:
                self.cluster.node(node).wal.create_restore_point(name)


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
    _register_udfs(ext)
    instance.hooks.planner_hooks.append(make_planner_hook(ext))
    instance.hooks.utility_hooks.append(_make_utility_hook(ext))
    instance.hooks.pre_commit_callbacks.append(ext.txn_callbacks.pre_commit)
    instance.hooks.post_commit_callbacks.append(ext.txn_callbacks.post_commit)
    instance.hooks.abort_callbacks.append(ext.txn_callbacks.abort)
    instance.register_background_worker(
        "citus_maintenance", lambda _inst: ext.run_maintenance(),
        interval=ext.config.deadlock_detection_interval_s,
    )
    return ext


def _parse_bool(value) -> bool:
    """A boolean GUC value as PostgreSQL spells it."""
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("on", "true", "1"):
        return True
    if text in ("off", "false", "0"):
        return False
    raise ValueError(value)


def view_rows(records, columns, sort_key=None) -> list[list]:
    """Render per-row mappings into the list-of-lists shape every
    monitoring UDF returns, in a fixed column order. The single formatter
    behind citus_shards, citus_tables, citus_stat_counters and the live
    introspection views."""
    rows = [[record.get(column) for column in columns] for record in records]
    if sort_key is not None:
        rows.sort(key=sort_key)
    return rows


# --------------------------------------------------------------------- UDFs


def _register_udfs(ext: CitusExtension) -> None:
    catalog = ext.instance.catalog
    catalog.register_function("_named_arg", lambda _s, n, v: NamedArgument(n, v))

    def require_coordinator():
        if not ext.is_coordinator:
            raise MetadataError(
                "operation is only allowed on the coordinator (connect there for DDL)"
            )

    def citus_add_node(session, nodename, *args):
        require_coordinator()
        ext.metadata.add_node(session, nodename)
        return nodename

    def create_distributed_table(session, table_name, dist_column, *rest):
        require_coordinator()
        positional, named = split_named_args(rest)
        colocate_with = named.get("colocate_with")
        shard_count = named.get("shard_count")
        if positional:
            colocate_with = positional[0]
        ext.ddl.create_distributed_table(
            session, table_name, dist_column,
            colocate_with=colocate_with,
            shard_count=int(shard_count) if shard_count else None,
        )
        return table_name

    def create_reference_table(session, table_name):
        require_coordinator()
        ext.ddl.create_reference_table(session, table_name)
        return table_name

    def create_range_distributed_table(session, table_name, dist_column, ranges):
        require_coordinator()
        ext.ddl.create_range_distributed_table(session, table_name, dist_column, ranges)
        return table_name

    def undistribute_table(session, table_name):
        require_coordinator()
        from .rebalancer import undistribute_table as undo

        undo(ext, session, table_name)
        return table_name

    def start_metadata_sync(session, nodename):
        require_coordinator()
        ext.start_metadata_sync_to_node(session, nodename)
        return nodename

    def rebalance_table_shards(session, *rest):
        require_coordinator()
        from .rebalancer import Rebalancer

        moves = Rebalancer(ext).rebalance(session)
        return len(moves)

    def citus_move_shard_placement(session, shardid, target_node, *rest):
        require_coordinator()
        from .rebalancer import move_shard

        move_shard(ext, session, int(shardid), target_node)
        return int(shardid)

    def get_shard_id(session, table_name, value):
        dist = ext.metadata.cache.get_table(table_name)
        from .ddl import shard_id_for_value

        return shard_id_for_value(dist, value)

    def citus_table_size(session, table_name):
        return ext.table_size_estimate(table_name)

    def citus_create_restore_point(session, name):
        require_coordinator()
        ext.create_distributed_restore_point(name)
        return name

    def run_command_on_workers(session, sql):
        results = []
        for node in ext.all_node_names():
            try:
                ext.worker_connection(node).execute(sql)
                results.append(f"{node}: OK")
            except ReproError as exc:
                results.append(f"{node}: ERROR {exc}")
        return results

    def citus_drain_node(session, nodename):
        require_coordinator()
        from .rebalancer import drain_node

        moves = drain_node(ext, session, nodename)
        return len(moves)

    def isolate_tenant(session, table_name, tenant_value, *rest):
        require_coordinator()
        from .isolation import isolate_tenant_to_new_shard

        return isolate_tenant_to_new_shard(ext, session, table_name, tenant_value)

    def citus_shards(session):
        """Rows of the citus_shards monitoring view, as an array of
        [table, shardid, shard_name, node, size_bytes] entries."""
        def records():
            for table in ext.metadata.cache.tables.values():
                for shard in table.shards:
                    for node in ext.metadata.all_placements(shard.shardid):
                        instance = ext.cluster.node(node)
                        size = 0
                        if instance.catalog.has_table(shard.shard_name):
                            size = instance.catalog.get_table(
                                shard.shard_name
                            ).heap.total_bytes
                        yield {
                            "table_name": table.name,
                            "shardid": shard.shardid,
                            "shard_name": shard.shard_name,
                            "nodename": node,
                            "shard_size": size,
                        }

        return view_rows(records(), (
            "table_name", "shardid", "shard_name", "nodename", "shard_size",
        ))

    def citus_tables(session):
        """Rows of the citus_tables monitoring view: [table, citus_table_type,
        distribution_column, colocation_id, shard_count, size_bytes]."""
        def records():
            for table in ext.metadata.cache.tables.values():
                kind = "reference" if table.is_reference else (
                    "range distributed" if table.method == "r" else "distributed"
                )
                yield {
                    "table_name": table.name,
                    "citus_table_type": kind,
                    "distribution_column": table.dist_column,
                    "colocation_id": table.colocation_id,
                    "shard_count": table.shard_count,
                    "table_size": ext.table_size_estimate(table.name),
                }

        return view_rows(records(), (
            "table_name", "citus_table_type", "distribution_column",
            "colocation_id", "shard_count", "table_size",
        ))

    def citus_set_config(session, name, value):
        if not hasattr(ext.config, name):
            raise MetadataError(f"unknown citus configuration {name!r}")
        kind = type(getattr(ext.config, name))
        try:
            parsed = _parse_bool(value) if kind is bool else kind(value)
        except (TypeError, ValueError):
            raise MetadataError(
                f"invalid value {value!r} for citus configuration {name!r}"
                f" ({kind.__name__} expected)") from None
        setattr(ext.config, name, parsed)
        if name in TELEMETRY_GUCS:
            ext.telemetry.configure(ext.config, ext)
        elif name == "deadlock_detection_interval_s":
            # The configuration is the cluster's: every node's maintenance
            # daemon follows it.
            instances = (ext.cluster.nodes.values() if ext.cluster is not None
                         else (ext.instance,))
            for instance in instances:
                for worker in instance.hooks.background_workers:
                    if worker.name == "citus_maintenance":
                        worker.interval = parsed
        return value

    def alter_table_set_access_method(session, table_name, method):
        require_coordinator()
        from .columnar import set_access_method

        set_access_method(ext, session, table_name, method)
        return table_name

    def citus_stat_counters(session, *rest):
        """Rows of the citus_stat_counters view: [name, node, value] for
        every cluster-wide counter and gauge."""
        from ..engine.compile import compile_count

        snap = ext.stat_counters.snapshot()
        # Expression compilations happen in the engine layer (shared by all
        # nodes of this process); surfaced here relative to the last reset.
        compiled = compile_count() - ext.telemetry.compile_baseline
        if compiled:
            snap.counters["expr_compile_count"] = Counter({"": compiled})

        def records():
            for kind in (snap.counters, snap.gauges):
                for name in sorted(kind):
                    for node, value in sorted(kind[name].items()):
                        yield {"name": name, "node": node or None, "value": value}

        return view_rows(records(), ("name", "node", "value"))

    def citus_stat_counters_reset(session):
        """citus_stat_counters_reset(): zero the cluster-wide statistics.

        Reset semantics: monotonic counters (including the wait-event
        count/time accumulators), latency histograms, and high-water
        gauges (peaks recorded via ``gauge_max``, e.g.
        ``rows_buffered_peak``) are cleared; *live* up/down gauges
        (``shared_pool_slots``, ``wait_events_in_progress``, ...) are
        preserved, because they track currently-held resources — zeroing
        a held level would go negative on release. Tenant statistics are
        cleared alongside (they are derived from the same accounting
        epoch). Statement telemetry has its own reset:
        ``citus_stat_statements_reset()``.
        """
        ext.telemetry.reset({"counters", "tenants"})
        return True

    def citus_explain(session, sql, *rest):
        """Text form of the structured distributed EXPLAIN."""
        from .observability import explain as dist_explain

        return dist_explain(session, sql).as_text()

    def citus_explain_analyze(session, sql, *rest):
        """EXPLAIN ANALYZE text: executes the statement and annotates the
        distributed plan tree with per-task and merge actuals."""
        from ..sql import parse_one

        stmt = parse_one(sql)
        if isinstance(stmt, A.Explain):
            stmt = stmt.statement
        result = session._explain(A.Explain(stmt, analyze=True), None)
        return "\n".join(row[0] for row in result.rows)

    def citus_stat_statements(session, *rest):
        """Rows of the citus_stat_statements view: [query, partition_key,
        tier, calls, total_ms, min_ms, max_ms, p50_ms, p95_ms, p99_ms,
        rows, bytes, plan_cache_hits], ordered by total time descending.
        Only statements planned by the distributed planner are tracked."""
        return ext.telemetry.statement_rows()

    def citus_stat_statements_reset(session):
        """Clear statement telemetry, plus the tenant statistics derived
        from the same per-statement records."""
        ext.telemetry.reset({"statements", "tenants"})
        return True

    def citus_stat_reset(session, mode="all"):
        """citus_stat_reset([mode]): one reset to rule them all.

        ``mode`` selects what to clear: 'counters' (cluster counters +
        wait-event totals), 'statements' (citus_stat_statements),
        'tenants' (citus_stat_tenants), 'graph' (the lifetime
        transaction co-access graph behind citus_stat_txn_graph),
        'windows' (the time-bucket ring behind citus_stat_windows),
        'ash' (the Active Session History sample ring behind
        citus_ash), or 'all' (the default — every scope above).
        """
        if mode != "all" and mode not in SCOPES:
            raise MetadataError(
                f"unknown citus_stat_reset mode {mode!r} "
                "(expected counters, statements, tenants, graph, "
                "windows, ash, or all)"
            )
        ext.telemetry.reset(SCOPES if mode == "all" else {mode})
        return mode

    def citus_trace_export(session, *rest):
        """Buffered traces as Chrome trace-event JSON (load the string in
        chrome://tracing or Perfetto). Optional argument limits the export
        to the N most recent traces."""
        import json

        limit = int(rest[0]) if rest else None
        return json.dumps(ext.telemetry.export_chrome(limit), default=str)

    def citus_plan_alternatives(session, *rest):
        """The candidate-plan pipeline's PlanSearch records as JSON.

        With a SQL argument the statement is planned afresh (bypassing the
        plan cache) and that single search — every cascade tier tried, each
        structured rejection, and all costed candidates — is returned.
        Without arguments, the ring buffer of recent searches is returned,
        newest last."""
        import json

        from ..errors import UnsupportedDistributedQuery
        from ..sql import parse
        from .planner.distributed import plan_statement
        from .planner.pipeline import PlanSearch

        if not ext.config.enable_plan_alternatives:
            return json.dumps(
                {"error": "citus.enable_plan_alternatives is off"}
            )
        if rest:
            statements = parse(rest[0])
            if len(statements) != 1:
                raise ReproError(
                    "citus_plan_alternatives() needs exactly one statement"
                )
            stmt = statements[0]
            search = PlanSearch(statement=rest[0])
            try:
                plan_statement(ext, session, stmt, None, search=search)
            except UnsupportedDistributedQuery as exc:
                search.error = str(exc)
            return json.dumps(search.as_dict())
        return json.dumps([s.as_dict() for s in ext.telemetry.plan_searches])

    def citus_slow_queries(session, *rest):
        """Slow-query log entries (citus.log_min_duration gate): rows of
        [sql, duration_ms, tier, partition_key, rows, error]."""
        return [
            [e["sql"], e["duration_ms"], e["tier"], e["tenant"],
             e["rows"], e["error"]]
            for e in ext.telemetry.slow_queries()
        ]

    def citus_dist_stat_activity(session):
        """Rows of the citus_dist_stat_activity view: one per open session
        on any alive node — [global_pid, nodename, pid, distributed_txn_id,
        application_name, state, wait_event_type, wait_event, citus_tier,
        query, query_fingerprint, elapsed_ms]."""
        from .introspection import activity_records

        return view_rows(activity_records(ext), (
            "global_pid", "nodename", "pid", "distributed_txn_id",
            "application_name", "state", "wait_event_type", "wait_event",
            "citus_tier", "query", "query_fingerprint", "elapsed_ms",
        ))

    def citus_lock_waits(session):
        """Rows of the citus_lock_waits view: one per (waiter, holder)
        edge in any node's lock wait-for graph, both sides resolved back
        to the originating query — [waiting_gpid, blocking_gpid,
        blocked_statement, current_statement_in_blocking_process,
        waiting_nodename, blocking_nodename, lock]."""
        from .introspection import lock_waits_records

        return view_rows(lock_waits_records(ext), (
            "waiting_gpid", "blocking_gpid", "blocked_statement",
            "current_statement_in_blocking_process",
            "waiting_nodename", "blocking_nodename", "lock",
        ))

    def get_rebalance_progress(session):
        """Rows of get_rebalance_progress(): one per shard move (in
        progress, completed, or failed) — [move_id, table_name, shardid,
        source, target, bytes_copied, bytes_total, rows_copied,
        rows_total, phase, status, error]."""
        from .rebalancer import progress_for

        return view_rows(
            ({
                "move_id": m.move_id, "table_name": m.table_name,
                "shardid": m.shardid, "source": m.source, "target": m.target,
                "bytes_copied": m.bytes_copied, "bytes_total": m.bytes_total,
                "rows_copied": m.rows_copied, "rows_total": m.rows_total,
                "phase": m.phase, "status": m.status, "error": m.error,
            } for m in progress_for(ext).moves),
            ("move_id", "table_name", "shardid", "source", "target",
             "bytes_copied", "bytes_total", "rows_copied", "rows_total",
             "phase", "status", "error"),
        )

    def citus_stat_tenants(session):
        """Rows of the citus_stat_tenants view, busiest tenant first —
        [tenant_attribute, query_count, rows, total_query_time_ms,
        total_wait_time_ms]."""
        return view_rows(
            ({
                "tenant_attribute": tenant, "query_count": calls,
                "rows": rows, "total_query_time_ms": query_s * 1000.0,
                "total_wait_time_ms": wait_s * 1000.0,
            } for tenant, calls, rows, query_s, wait_s
                in ext.telemetry.tenant_records()),
            ("tenant_attribute", "query_count", "rows",
             "total_query_time_ms", "total_wait_time_ms"),
        )

    def citus_stat_txn_graph(session, *rest):
        """The distributed-transaction co-access graph.

        Default: per-edge rows [src, dst, txns, single_node, cross_node,
        twopc, writes, bytes, recent_txns] sorted by (src, dst), where
        src/dst are shard-group labels ("c<colocation>.s<index>"),
        per-kind columns count how the folding transactions committed,
        and recent_txns is the edge weight within the retained window
        ring. Modes: 'vertices' → per-shard-group rows [shard, txns,
        writes, bytes, tenants, top_tenants]; 'json' → sorted-key JSON
        export with tenant-pair detail; 'dot' → GraphViz source."""
        graph = ext.telemetry.txn_graph()
        mode = rest[0] if rest else None
        if graph is None:
            return "{}" if mode == "json" else (
                "graph citus_txn_graph {\n}" if mode == "dot" else [])
        if mode == "json":
            return graph.as_json()
        if mode == "dot":
            return graph.as_dot()
        if mode == "vertices":
            return view_rows(graph.vertex_records(), (
                "shard", "txns", "writes", "bytes", "tenants",
                "top_tenants",
            ))
        return view_rows(graph.edge_records(), (
            "src", "dst", "txns", "single_node", "cross_node", "twopc",
            "writes", "bytes", "recent_txns",
        ))

    def citus_stat_windows(session, *rest):
        """Per-bucket rows of the time-window ring, oldest first —
        [bucket, start_s, end_s, current, statements, p50_ms, p95_ms,
        p99_ms, txns, txns_multi_group, txns_cross_node, txns_2pc,
        edge_txns, counters], where counters is the sorted-key JSON of
        every cluster counter delta accrued during the bucket."""
        graph = ext.telemetry.txn_graph()
        if graph is None:
            return []
        return view_rows(graph.window_records(), (
            "bucket", "start_s", "end_s", "current", "statements",
            "p50_ms", "p95_ms", "p99_ms", "txns", "txns_multi_group",
            "txns_cross_node", "txns_2pc", "edge_txns", "counters",
        ))

    def citus_ash(session, *rest):
        """Active Session History: the deterministic wait/state sample
        ring (citus.enable_ash / ash_sampling_interval / ash_buffer_size).

        ``citus_ash([mode [, start [, end [, bucket]]]])`` — ``start`` /
        ``end`` bound the virtual-time range (inclusive, both optional):

        - default / 'samples': raw ring rows [sample_time, global_pid,
          nodename, state, wait_event_type, wait_event, wait_stack,
          query_fingerprint, citus_tier, tenant, distributed_txn_id];
        - 'top_waits': [wait_event_type, wait_event, samples, pct,
          top_node], busiest first;
        - 'top_queries': [query_fingerprint, samples, pct, top_wait];
        - 'top_tenants': [tenant, samples, pct];
        - 'timeline': bucketed rows [bucket, start_s, end_s, samples,
          active, idle, wait_classes] (``bucket`` seconds wide, default
          10 sampling intervals);
        - 'flamegraph': collapsed-stack text
          (``node;wclass;event;...;fingerprint count`` lines) for
          flamegraph.pl / speedscope.
        """
        sampler = ext.telemetry.ash if ext.telemetry.ash.enabled else None
        positional, _named = split_named_args(rest)
        mode = positional[0] if positional and positional[0] is not None \
            else "samples"
        if mode not in ("samples", "top_waits", "top_queries",
                        "top_tenants", "timeline", "flamegraph"):
            raise MetadataError(
                f"unknown citus_ash mode {mode!r} (expected samples, "
                "top_waits, top_queries, top_tenants, timeline, or "
                "flamegraph)"
            )
        start = float(positional[1]) if len(positional) > 1 \
            and positional[1] is not None else None
        end = float(positional[2]) if len(positional) > 2 \
            and positional[2] is not None else None
        if sampler is None:
            return "" if mode == "flamegraph" else []
        if mode == "top_waits":
            return view_rows(sampler.top_waits(start, end), (
                "wait_event_type", "wait_event", "samples", "pct",
                "top_node",
            ))
        if mode == "top_queries":
            return view_rows(sampler.top_queries(start, end), (
                "query_fingerprint", "samples", "pct", "top_wait",
            ))
        if mode == "top_tenants":
            return view_rows(sampler.top_tenants(start, end), (
                "tenant", "samples", "pct",
            ))
        if mode == "timeline":
            bucket = float(positional[3]) if len(positional) > 3 \
                and positional[3] is not None else None
            return view_rows(sampler.timeline(start, end, bucket), (
                "bucket", "start_s", "end_s", "samples", "active",
                "idle", "wait_classes",
            ))
        if mode == "flamegraph":
            return sampler.flamegraph(start, end)
        return view_rows(sampler.raw_records(start, end), (
            "sample_time", "global_pid", "nodename", "state",
            "wait_event_type", "wait_event", "wait_stack",
            "query_fingerprint", "citus_tier", "tenant",
            "distributed_txn_id",
        ))

    def citus_metrics_snapshot(session, *rest):
        """All counters, gauges, wait-event totals, graph / window / ASH
        families, ring health and per-node health in Prometheus text
        exposition format."""
        from .metrics import metrics_snapshot

        return metrics_snapshot(ext)

    registry = {
        "citus_add_node": citus_add_node,
        "master_add_node": citus_add_node,
        "create_distributed_table": create_distributed_table,
        "create_reference_table": create_reference_table,
        "create_range_distributed_table": create_range_distributed_table,
        "undistribute_table": undistribute_table,
        "start_metadata_sync_to_node": start_metadata_sync,
        "rebalance_table_shards": rebalance_table_shards,
        "citus_move_shard_placement": citus_move_shard_placement,
        "master_move_shard_placement": citus_move_shard_placement,
        "get_shard_id_for_distribution_column": get_shard_id,
        "citus_table_size": citus_table_size,
        "citus_total_relation_size": citus_table_size,
        "citus_create_restore_point": citus_create_restore_point,
        "run_command_on_workers": run_command_on_workers,
        "isolate_tenant_to_new_shard": isolate_tenant,
        "citus_drain_node": citus_drain_node,
        "citus_shards": citus_shards,
        "citus_tables": citus_tables,
        "citus_set_config": citus_set_config,
        "alter_table_set_access_method": alter_table_set_access_method,
        "citus_stat_counters": citus_stat_counters,
        "citus_stat_counters_reset": citus_stat_counters_reset,
        "citus_stat_reset": citus_stat_reset,
        "citus_explain": citus_explain,
        "citus_explain_analyze": citus_explain_analyze,
        "citus_stat_statements": citus_stat_statements,
        "citus_stat_statements_reset": citus_stat_statements_reset,
        "citus_trace_export": citus_trace_export,
        "citus_plan_alternatives": citus_plan_alternatives,
        "citus_slow_queries": citus_slow_queries,
        "citus_dist_stat_activity": citus_dist_stat_activity,
        "citus_lock_waits": citus_lock_waits,
        "get_rebalance_progress": get_rebalance_progress,
        "citus_stat_tenants": citus_stat_tenants,
        "citus_stat_txn_graph": citus_stat_txn_graph,
        "citus_stat_windows": citus_stat_windows,
        "citus_ash": citus_ash,
        "citus_metrics_snapshot": citus_metrics_snapshot,
    }
    for name, fn in registry.items():
        catalog.register_function(name, fn)


# ------------------------------------------------------------ utility hook


def _make_utility_hook(ext: CitusExtension):
    from .copy_dist import distribute_rows
    from .procedures import try_delegate_call

    def utility_hook(session, stmt):
        cache = ext.metadata.cache
        if isinstance(stmt, A.Copy) and cache.is_citus_table(stmt.table):
            return _handle_copy(ext, session, stmt)
        if isinstance(stmt, A.CreateIndex) and cache.is_citus_table(stmt.table):
            session.create_index_from_ast(stmt)
            ext.ddl.propagate_create_index(session, stmt)
            ext.metadata.bump_generation()
            from ..engine.executor import QueryResult

            return QueryResult([], [], command="CREATE INDEX")
        if isinstance(stmt, A.DropIndex):
            # Find the index on a Citus shell table and drop it everywhere.
            for table_name, dist in cache.tables.items():
                if not ext.instance.catalog.has_table(table_name):
                    continue
                shell = ext.instance.catalog.get_table(table_name)
                if stmt.name in shell.indexes:
                    ext.instance.catalog.drop_index(stmt.name)
                    for shard in dist.shards:
                        for node in ext.metadata.all_placements(shard.shardid):
                            suffix = str(shard.shardid)
                            ext.worker_connection(node).execute(
                                f"DROP INDEX IF EXISTS {stmt.name}_{suffix}"
                            )
                    ext.metadata.bump_generation()
                    from ..engine.executor import QueryResult

                    return QueryResult([], [], command="DROP INDEX")
            return None
        if isinstance(stmt, A.AlterTable) and cache.is_citus_table(stmt.table):
            session._alter_table(stmt)
            ext.ddl.propagate_alter_table(session, stmt)
            ext.metadata.bump_generation()
            from ..engine.executor import QueryResult

            return QueryResult([], [], command="ALTER TABLE")
        if isinstance(stmt, A.DropTable):
            citus_names = [n for n in stmt.names if cache.is_citus_table(n)]
            if citus_names:
                from ..engine.executor import QueryResult

                for name in citus_names:
                    ext.ddl.propagate_drop_table(session, name)
                for name in stmt.names:
                    ext.instance.catalog.drop_table(name, if_exists=True)
                return QueryResult([], [], command="DROP TABLE")
        if isinstance(stmt, A.TruncateTable):
            citus_names = [n for n in stmt.names if cache.is_citus_table(n)]
            if citus_names:
                from ..engine.executor import QueryResult

                for name in citus_names:
                    ext.ddl.propagate_truncate(session, name)
                ext.metadata.bump_generation()
                local = [n for n in stmt.names if n not in citus_names]
                if local:
                    session._execute_utility(A.TruncateTable(local), None, None)
                return QueryResult([], [], command="TRUNCATE")
        if isinstance(stmt, A.Vacuum) and stmt.table and cache.is_citus_table(stmt.table):
            from ..engine.executor import QueryResult

            dist = cache.get_table(stmt.table)
            for shard in dist.shards:
                for node in ext.metadata.all_placements(shard.shardid):
                    ext.worker_connection(node).execute(f"VACUUM {shard.shard_name}")
            return QueryResult([], [], command="VACUUM")
        if isinstance(stmt, A.CallProcedure):
            return try_delegate_call(ext, session, stmt)
        return None

    def _handle_copy(ext, session, stmt):
        from ..engine.copy import _normalize_rows
        from ..engine.executor import QueryResult

        if stmt.direction == "to":
            result = session.execute(f"SELECT * FROM {stmt.table}")
            result.command = "COPY"
            return result
        copy_data = getattr(session, "_pending_copy_data", None)
        if copy_data is None:
            from ..errors import DataError

            raise DataError("COPY FROM STDIN requires copy_data")
        rows = _normalize_rows(copy_data, session, stmt)
        count = distribute_rows(ext, session, stmt.table, rows, stmt.columns or None)
        result = QueryResult([], [], command="COPY")
        result.rowcount = count
        return result

    return utility_hook
