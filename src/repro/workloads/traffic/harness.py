"""Closed-loop virtual-time traffic driver.

Thousands of simulated sessions share one :class:`~repro.net.clock.SimClock`.
Each session is a generator-based actor: it opens a pgbouncer client on one
of the coordinator nodes, draws a tenant from the Zipf sampler, runs a
seeded number of transactions with think time between them (closed loop:
the next transaction is not issued until the previous one finished and the
think time elapsed), then closes the client and recycles itself with a
fresh tenant — connection churn.

An event-driven scheduler interleaves all actors in virtual-time order: a
binary heap of ``(wake_time, actor_id)`` pops the earliest actor, advances
the clock to its wake time, and runs exactly one step (one transaction,
whose service time the engine charges to the same clock). Everything —
think times, tenant draws, per-actor RNGs, the heap tie-break — is derived
from the run seed, so a 2,000-session multi-minute-of-simulated-time run
is reproducible byte-for-byte.

At the end, :meth:`TrafficHarness.report` reads per-fingerprint
percentiles from ``citus_stat_statements``, the run-scoped counter delta
(pool, 2PC, wait events), and evaluates an SLO spec into a machine-
readable verdict.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from ...engine.stats import stats_for
from ...engine.waitevents import wait_class_totals
from ...errors import ReproError, TooManyConnections
from ...net.pool import ConnectionPool
from .generators import ZipfGenerator, make_think
from .mixes import MIXES, SETUP_GROUPS
from .slo import default_slo_spec, evaluate_slo

DEFAULT_MIX_WEIGHTS = {
    "ycsb_a": 0.35,
    "ycsb_b": 0.15,
    "ycsb_c": 0.15,
    "tpcc": 0.25,
    "gharchive": 0.10,
}


@dataclass
class TrafficConfig:
    sessions: int = 100  # concurrent simulated sessions (actors)
    tenants: int = 50  # tenant keyspace size
    zipf_s: float = 1.1  # tenant skew exponent
    seed: int = 20260807
    sim_duration: float = 60.0  # simulated seconds to drive
    max_transactions: int | None = None  # optional hard cap (smoke tests)
    think: str = "exponential"  # or "fixed"
    think_mean: float = 1.0  # mean think time, simulated seconds
    ramp_seconds: float = 5.0  # actor start times staggered across this
    session_lifetime: tuple = (4, 12)  # transactions per client before churn
    mix_weights: dict = field(default_factory=lambda: dict(DEFAULT_MIX_WEIGHTS))
    ycsb_keys_per_tenant: int = 4
    tpcc_warehouses: int = 12
    tpcc_items: int = 20
    cross_warehouse_fraction: float = 0.07  # the paper's ~7% (§4.1)
    gharchive_batch_rows: int = 32  # rows per batch-COPY ingest transaction
    pool_size: int = 32  # server sessions per node pool
    max_client_conn: int = 10_000  # pgbouncer client cap per node pool
    use_workers_as_coordinators: bool = True  # §3.2.1 metadata sync
    retry_backoff: float = 0.05  # sim-seconds base backoff on pool exhaustion
    max_txn_retries: int = 3

    def as_dict(self) -> dict:
        return {
            "sessions": self.sessions,
            "tenants": self.tenants,
            "zipf_s": self.zipf_s,
            "seed": self.seed,
            "sim_duration": self.sim_duration,
            "max_transactions": self.max_transactions,
            "think": self.think,
            "think_mean": self.think_mean,
            "ramp_seconds": self.ramp_seconds,
            "session_lifetime": list(self.session_lifetime),
            "mix_weights": dict(self.mix_weights),
            "gharchive_batch_rows": self.gharchive_batch_rows,
            "pool_size": self.pool_size,
            "max_client_conn": self.max_client_conn,
            "use_workers_as_coordinators": self.use_workers_as_coordinators,
        }


class SessionActor:
    """One simulated user session, written as a generator.

    The generator yields the virtual-time delay until its next wake-up;
    the scheduler resumes it at (or after) that time. Between two yields
    it executes exactly one transaction — or one lifecycle action such as
    reopening a churned connection — so service time is charged to the
    clock at the position in virtual time where the transaction ran.
    """

    __slots__ = ("actor_id", "harness", "pool", "rng", "gen", "tenant", "mix")

    def __init__(self, actor_id: int, harness: "TrafficHarness", pool: ConnectionPool):
        self.actor_id = actor_id
        self.harness = harness
        self.pool = pool
        # Per-actor RNG: sampling stays stable no matter how the scheduler
        # interleaves actors (it is deterministic anyway, but per-actor
        # streams make the determinism robust to harness refactors).
        self.rng = random.Random(f"{harness.config.seed}-actor-{actor_id}")
        self.tenant = None
        self.mix = None
        self.gen = self._run()

    # ------------------------------------------------------------ lifecycle

    def _run(self):
        cfg = self.harness.config
        think = self.harness.think
        while True:
            # Open a client connection; a full pgbouncer rejects, and the
            # user backs off and retries.
            try:
                client = self.pool.client()
            except TooManyConnections:
                self.harness.totals["client_rejections"] += 1
                yield cfg.retry_backoff * (1 + self.rng.random())
                continue
            self.harness.totals["sessions_opened"] += 1
            self.tenant = self.harness.zipf.sample()
            self.mix = self.harness.mix_for_tenant(self.tenant)
            lifetime = self.rng.randint(*cfg.session_lifetime)
            try:
                for _ in range(lifetime):
                    yield think.sample(self.rng)
                    self._one_transaction(client, cfg)
            finally:
                client.close()
            self.harness.totals["sessions_churned"] += 1

    def _one_transaction(self, client, cfg) -> None:
        for attempt in range(cfg.max_txn_retries + 1):
            try:
                self.mix.transaction(client, self.rng, self.tenant, cfg)
            except TooManyConnections:
                # Server pool exhausted mid-transaction: the lease was
                # rolled back and released; retry the whole transaction.
                self.harness.totals["pool_retries"] += 1
                if attempt >= cfg.max_txn_retries:
                    self.harness.totals["transactions_dropped"] += 1
                    return
                continue
            except ReproError:
                self.harness.totals["transactions_aborted"] += 1
                return
            self.harness.totals["transactions"] += 1
            self.harness.per_mix[self.mix.name] += 1
            self.harness.per_tenant[self.tenant] = (
                self.harness.per_tenant.get(self.tenant, 0) + 1
            )
            return


class TrafficHarness:
    """Drives a :class:`~repro.citus.api.CitusCluster` with closed-loop
    multi-tenant traffic and evaluates SLOs over the result."""

    def __init__(self, citus, config: TrafficConfig | None = None):
        self.citus = citus
        self.config = config or TrafficConfig()
        self.think = make_think(self.config.think, self.config.think_mean)
        self.zipf = ZipfGenerator(
            self.config.tenants, self.config.zipf_s,
            seed=(self.config.seed << 1) ^ 0x5EED,
        )
        self.pools: dict[str, ConnectionPool] = {}
        self.actors: list[SessionActor] = []
        self.totals = {
            "transactions": 0,
            "transactions_aborted": 0,
            "transactions_dropped": 0,
            "pool_retries": 0,
            "client_rejections": 0,
            "sessions_opened": 0,
            "sessions_churned": 0,
        }
        self.per_mix = {name: 0 for name in self.config.mix_weights}
        self.per_tenant: dict[int, int] = {}
        self._tenant_mix: dict[int, str] = {}
        self._snap0 = None
        self._sim_start = None
        self._sim_end = None
        self._prepared = False

    # ------------------------------------------------------------- prepare

    def mix_for_tenant(self, tenant: int):
        name = self._tenant_mix.get(tenant)
        if name is None:
            # Deterministic per-tenant draw, independent of arrival order.
            roll = random.Random(f"{self.config.seed}-tenant-mix-{tenant}").random()
            acc = 0.0
            total = sum(self.config.mix_weights.values())
            name = next(iter(self.config.mix_weights))
            for mix_name, weight in self.config.mix_weights.items():
                acc += weight / total
                if roll < acc:
                    name = mix_name
                    break
            else:
                name = mix_name
            self._tenant_mix[tenant] = name
        return MIXES[name]

    def coordinator_nodes(self) -> list[str]:
        if self.config.use_workers_as_coordinators:
            return [self.citus.coordinator_name] + self.citus.worker_names()
        return [self.citus.coordinator_name]

    def prepare(self) -> None:
        """Create schemas, load data, sync metadata, build pools and actors."""
        if self._prepared:
            return
        cfg = self.config
        unknown = set(cfg.mix_weights) - set(MIXES)
        if unknown:
            raise ValueError(f"unknown workload mixes: {sorted(unknown)}")
        session = self.citus.coordinator_session("traffic_setup")
        try:
            done_groups = set()
            for name, weight in cfg.mix_weights.items():
                if weight <= 0:
                    continue
                group = SETUP_GROUPS[name]
                if group in done_groups:
                    continue
                done_groups.add(group)
                MIXES[name].setup(session, cfg)
        finally:
            session.close()
        if cfg.use_workers_as_coordinators and self.citus.worker_names():
            self.citus.enable_metadata_sync()
        nodes = self.coordinator_nodes()
        for node_name in nodes:
            self.pools[node_name] = ConnectionPool(
                self.citus.cluster.node(node_name),
                pool_size=cfg.pool_size,
                max_client_conn=cfg.max_client_conn,
                # Pool counters join the cluster-wide registry so the SLO
                # gate reads them from the same place as 2PC/wait counters.
                stats_holder=self.citus.cluster,
            )
        # Round-robin actors over all coordinator nodes — the paper's
        # "every worker acts as a coordinator" load-balancing shape.
        self.actors = [
            SessionActor(i, self, self.pools[nodes[i % len(nodes)]])
            for i in range(cfg.sessions)
        ]
        self._prepared = True

    # ----------------------------------------------------------------- run

    def run(self) -> "TrafficHarness":
        """Drive all actors in virtual-time order until ``sim_duration``
        simulated seconds elapse (or ``max_transactions`` accumulate)."""
        self.prepare()
        cfg = self.config
        clock = self.citus.cluster.clock
        # Scope telemetry to this run: statement stats restart, counters
        # are diffed against a snapshot.
        session = self.citus.coordinator_session("traffic_admin")
        try:
            session.execute("SELECT citus_stat_statements_reset()")
        finally:
            session.close()
        registry = stats_for(self.citus.cluster)
        self._snap0 = registry.snapshot()
        self._sim_start = clock.now()
        deadline = self._sim_start + cfg.sim_duration

        heap: list[tuple[float, int]] = []
        for actor in self.actors:
            # Stagger arrivals across the ramp window so session opens do
            # not all land on the same instant of virtual time.
            offset = cfg.ramp_seconds * actor.actor_id / max(1, cfg.sessions)
            heapq.heappush(heap, (self._sim_start + offset, actor.actor_id))
        while heap:
            wake, actor_id = heapq.heappop(heap)
            if wake >= deadline:
                break
            if (cfg.max_transactions is not None
                    and self.totals["transactions"] >= cfg.max_transactions):
                break
            clock.advance_to(wake)
            try:
                delay = next(self.actors[actor_id].gen)
            except StopIteration:
                continue
            heapq.heappush(heap, (clock.now() + delay, actor_id))
        # Drain: every actor's client closes (generator finally blocks run).
        for actor in self.actors:
            actor.gen.close()
        self._sim_end = clock.now()
        return self

    # -------------------------------------------------------------- report

    def peak_clients(self) -> int:
        return sum(pool.peak_clients for pool in self.pools.values())

    def stat_statement_rows(self) -> list:
        session = self.citus.coordinator_session("traffic_report")
        try:
            return session.execute("SELECT citus_stat_statements()").scalar()
        finally:
            session.close()

    def counter_delta(self) -> dict:
        registry = stats_for(self.citus.cluster)
        return registry.snapshot().diff(self._snap0).as_dict()

    def report(self, slo_rules=None) -> dict:
        """Machine-readable run report: traffic totals, pool/2PC/wait
        counters, per-fingerprint tail latencies, and the SLO verdict.
        Every number is virtual-time-derived, so two runs from the same
        seed produce identical reports."""
        if self._sim_end is None:
            raise RuntimeError("run() the harness before asking for a report")
        counters = self.counter_delta()
        stat_rows = self.stat_statement_rows()
        rules = slo_rules if slo_rules is not None else default_slo_spec()
        slo = evaluate_slo(rules, stat_rows, counters)
        sim_seconds = self._sim_end - self._sim_start
        wait_classes = wait_class_totals(counters)
        onepc = counters.get("onepc_commits", 0)
        twopc = counters.get("twopc_transactions", 0)
        statements = [
            {
                "query": row[0],
                "tier": row[2],
                "calls": row[3],
                "p50_ms": round(row[7], 6),
                "p95_ms": round(row[8], 6),
                "p99_ms": round(row[9], 6),
            }
            for row in stat_rows[:20]
        ]
        report = {
            "config": self.config.as_dict(),
            "sim_seconds": round(sim_seconds, 6),
            "transactions": dict(self.totals),
            "transactions_per_sim_sec": round(
                self.totals["transactions"] / sim_seconds, 6
            ) if sim_seconds else 0.0,
            "per_mix": dict(sorted(self.per_mix.items())),
            "tenants_touched": len(self.per_tenant),
            "hottest_tenants": sorted(
                self.per_tenant.items(), key=lambda kv: (-kv[1], kv[0])
            )[:10],
            "peak_clients": self.peak_clients(),
            "pool": {
                name: counters.get(name, 0)
                for name in (
                    "pool_sessions_opened", "pool_session_reuses",
                    "pool_exhausted", "pool_client_rejections",
                )
            },
            "twopc": {
                "onepc_commits": onepc,
                "twopc_transactions": twopc,
                "rate": round(twopc / (onepc + twopc), 6) if onepc + twopc else 0.0,
            },
            "wait_event_counts": dict(sorted(wait_classes.items())),
            "statements": statements,
            "slo": slo,
        }
        if not slo["passed"]:
            # Turn "p99 breached" into "p99 breached while 62% of samples
            # sat in TwoPC.CommitPrepared on w2": embed the ASH rollup for
            # exactly the run window the failing rules were measured over.
            sampler = self.citus.coordinator_ext.telemetry.ash
            if sampler.enabled:
                report["ash"] = sampler.slo_diagnostics(
                    self._sim_start, self._sim_end
                )
        return report


def run_traffic(citus, config: TrafficConfig | None = None, slo_rules=None) -> dict:
    """One-call entry point: prepare, drive, and report."""
    harness = TrafficHarness(citus, config)
    harness.run()
    return harness.report(slo_rules)
