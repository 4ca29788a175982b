"""The four ledger workloads.

Every workload is a closed loop driven from one host thread through the
public API only (``make_cluster``, ``Session.execute`` / ``copy_rows``,
``TrafficHarness``, ``citus_*`` UDFs). Inputs are a pure function of the
seed; op counts are fixed, never durations, so simulated-clock metrics and
program counters repeat exactly for a seed. An *op* is made of one or more
timed *steps*; correctness checks run between steps, off both clocks.

Each class's ``why`` is recorded in BENCHMARK.json and in every report.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.errors import ReproError
from repro.workloads.traffic import (
    MIXES,
    TrafficConfig,
    TrafficHarness,
    default_slo_spec,
)
from repro.workloads.traffic import harness as traffic_harness

from .host import canary_us

WORKERS = 4
SHARD_COUNT = 16
#: The measured ops are cut into this many slices, a host canary between
#: each; wall metrics are medians over the slices.
SLICES = 20

#: The five telemetry switches `telemetry.wall_overhead_frac` turns off together.
TELEMETRY_GUCS = (
    "enable_tracing",
    "enable_introspection",
    "enable_plan_alternatives",
    "enable_txn_graph",
    "enable_ash",
)


def cluster_config(telemetry: bool) -> CitusConfig:
    """The shipped defaults (all telemetry on), or the same with every
    telemetry GUC off."""
    return CitusConfig(**{guc: telemetry for guc in TELEMETRY_GUCS})


class Workload:
    name = ""
    why = ""
    #: Measured ops per second of ``--seconds`` — sized so the measured
    #: phase takes about that long at the commit that added the ledger.
    ops_per_second = 1.0
    warmup_ops = 0
    steps: tuple = ()
    #: Rows the client itself COPYs per op (rest of copy_rows_routed is
    #: INSERT..SELECT repartitioning); None when the workload has neither.
    client_copy_rows_per_op = None

    def __init__(self, seed: int, ops: int, phase: int = 0):
        self.ops = ops
        self.phase = phase  # distinguishes phases sharing one process
        self.rng = random.Random(f"{self.name}-{seed}")
        self.citus = None
        self.session = None
        self.clock = None
        self.walls: list[int] = []  # per measured op, host ns
        self.sims: list[float] = []  # per measured op, simulated seconds
        self.step_walls = {step: [] for step in self.steps}
        self.step_sims = {step: [] for step in self.steps}
        #: (measured ops done, canary us) at every slice boundary.
        self.canaries: list[tuple[int, float]] = []
        self.sim_elapsed = 0.0  # simulated seconds the measured ops spanned
        self.loop_ns = 0  # host ns of the whole measured loop
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rows_returned = 0
        self._op_wall = 0
        self._op_sim = 0.0
        self._op_id = -1  # >= 0 while a measured op is running
        self._recorder = None  # a spans.SpanRecorder during a traced phase

    # ----------------------------------------------------------- lifecycle

    def setup(self, telemetry: bool = True) -> None:
        """Build the cluster and load the data (timed as ``setup_s``)."""
        self.citus = make_cluster(workers=WORKERS, shard_count=SHARD_COUNT,
                                  config=cluster_config(telemetry))
        self.session = self.citus.coordinator_session("ledger")
        self.clock = self.citus.cluster.clock
        self.load()

    def load(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> None:
        """Run plan entry ``index`` through :meth:`step`, calling
        :meth:`expect` on every result."""
        raise NotImplementedError

    def end_checks(self) -> None:
        """End-state checks after the measured ops, via :meth:`expect`."""

    def finish(self) -> None:
        before = len(self.errors)
        self.end_checks()
        if len(self.errors) > before:
            self.failed += 1

    def warm_up(self) -> None:
        for index in range(self.warmup_ops):
            self._attempt(index)
        self.walls.clear()
        self.sims.clear()
        for samples in (*self.step_walls.values(), *self.step_sims.values()):
            samples.clear()
        self.rows_returned = 0

    def measure(self, recorder=None) -> None:
        self._recorder = recorder
        every = max(1, self.ops // SLICES)
        start = time.perf_counter_ns()
        for op in range(self.ops):
            if op % every == 0:
                self.take_canary()
            self._op_id = op
            self._attempt(self.warmup_ops + op)
        self.take_canary()
        self.loop_ns = time.perf_counter_ns() - start - self.canary_ns()
        self.sim_elapsed = sum(self.sims)

    def take_canary(self) -> None:
        self.canaries.append((len(self.walls), canary_us()))

    def canary_ns(self) -> int:
        return int(1e3 * sum(us for _done, us in self.canaries))

    # ------------------------------------------------------------- helpers

    def _attempt(self, index: int) -> None:
        self.attempted += 1
        self._op_wall, self._op_sim = 0, 0.0
        before = len(self.errors)
        try:
            self.run_op(index)
        except ReproError as exc:
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            if self.session.in_transaction:
                self.session.execute("ROLLBACK")
        if len(self.errors) > before:
            self.failed += 1
        self.walls.append(self._op_wall)
        self.sims.append(self._op_sim)

    def step(self, name: str, fn, *args):
        """Run one timed step of the current op on both clocks. Spans
        belong to the op only inside a step, so the checks between steps
        stay out of the layer split as they stay out of the timings."""
        recorder = self._recorder
        if recorder is not None:
            recorder.op = self._op_id
        sim0 = self.clock.now()
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter_ns() - t0
            if recorder is not None:
                recorder.op = -1
        sim = self.clock.now() - sim0
        self._op_wall += wall
        self._op_sim += sim
        if name in self.step_walls:
            self.step_walls[name].append(wall)
            self.step_sims[name].append(sim)
        return result

    def expect(self, ok: bool, what: str) -> None:
        """A failed check fails the op it belongs to (and the run)."""
        if not ok:
            self.errors.append(what)

    def query(self, sql: str, params=None):
        """Untimed verification query."""
        return self.session.execute(sql, params).rows


# ------------------------------------------------------------- oltp_point


class OltpPoint(Workload):
    name = "oltp_point"
    why = ("Fast-path CRUD (YCSB, Fig. 10): fixed per-statement overhead in"
           " dispatch, planner hook, plan cache, task dispatch, wire and"
           " telemetry is nearly all the work; the hot-path diet shows here.")
    ops_per_second = 2000
    warmup_ops = 500

    ROWS = 20_000
    SELECT = "SELECT v FROM accounts WHERE key = :key"
    UPDATE = "UPDATE accounts SET v = v + :d WHERE key = :key"

    def __init__(self, seed, ops, phase=0):
        super().__init__(seed, ops, phase)
        rng = self.rng
        # 45 % SELECT, 45 % UPDATE, 10 % SELECT with the key as a literal;
        # exact shares so the statement mix does not vary with the seed.
        kinds = []
        for count in (self.warmup_ops, ops):
            literal = count // 10
            select = (count - literal) // 2
            block = (["select"] * select + ["literal"] * literal
                     + ["update"] * (count - literal - select))
            rng.shuffle(block)
            kinds.extend(block)
        # Literal keys never repeat, so each literal text misses the parse
        # cache and hits the plan cache through normalisation.
        literal_keys = iter(rng.sample(range(1, self.ROWS + 1),
                                       min(self.ROWS, kinds.count("literal"))))
        self.plan = [
            (kind, next(literal_keys, 1) if kind == "literal"
             else rng.randrange(1, self.ROWS + 1))
            for kind in kinds
        ]
        self.mirror: dict[int, int] = {}  # key -> expected v (absent = 0)

    def load(self):
        s = self.session
        s.execute("CREATE TABLE accounts (key int PRIMARY KEY, v int, filler text)")
        s.execute("SELECT create_distributed_table('accounts', 'key')")
        s.copy_rows("accounts",
                    [[k, 0, f"filler-{k}"] for k in range(1, self.ROWS + 1)],
                    ["key", "v", "filler"])

    def run_op(self, index):
        kind, key = self.plan[index]
        execute = self.session.execute
        if kind == "update":
            result = self.step(kind, execute, self.UPDATE, {"d": 1, "key": key})
            self.mirror[key] = self.mirror.get(key, 0) + 1
            self.expect(result.rowcount == 1, f"UPDATE key {key} touched"
                                              f" {result.rowcount} rows")
            return
        if kind == "select":
            result = self.step(kind, execute, self.SELECT, {"key": key})
        else:
            # The comment keeps the text new to the process-wide parse
            # cache when several phases share one process.
            result = self.step(kind, execute,
                               f"SELECT v FROM accounts WHERE key = {key}"
                               f" /* {self.phase} */")
        self.rows_returned += len(result.rows)
        self.expect(result.rows == [[self.mirror.get(key, 0)]],
                    f"SELECT key {key} returned {result.rows}")

    def end_checks(self):
        total = self.query("SELECT sum(v) FROM accounts")[0][0]
        self.expect(total == sum(self.mirror.values()),
                    f"sum(v) = {total}, expected one per UPDATE"
                    f" = {sum(self.mirror.values())}")


# --------------------------------------------------------- analytics_scan


class AnalyticsScan(Workload):
    name = "analytics_scan"
    why = ("Analytics / warehouse reads (Fig. 7, 8): worker scan, sort and"
           " aggregate dominate, the planner is under 1 %; bypass control for"
           " planner, plan-cache and telemetry changes.")
    ops_per_second = 1.2
    warmup_ops = 1
    steps = ("group_agg", "order_limit", "full_order", "ref_join", "filter_scan")

    ROWS = 10_000  # 625 per shard > stream_batch_size 256: several fetches
    TENANTS = 200
    V_RANGE = 500

    SQL = {
        "group_agg": "SELECT tenant, count(*), sum(v), avg(v) FROM events"
                     " GROUP BY tenant ORDER BY tenant",
        "order_limit": "SELECT k, v FROM events ORDER BY v, k LIMIT 10",
        "full_order": "SELECT k, v FROM events ORDER BY v",
        "ref_join": "SELECT t.plan, count(*), sum(e.v) FROM events e"
                    " JOIN tenants t ON e.tenant = t.id"
                    " GROUP BY t.plan ORDER BY t.plan",
        "filter_scan": "SELECT k, tenant FROM events WHERE v = :f",
    }

    def __init__(self, seed, ops, phase=0):
        super().__init__(seed, ops, phase)
        rng = self.rng
        self.rows = [[k, rng.randrange(self.TENANTS), rng.randrange(self.V_RANGE),
                      f"label-{k % 97}"] for k in range(1, self.ROWS + 1)]
        self.tenants = [[t, f"plan{t % 4}"] for t in range(self.TENANTS)]
        self.filters = [rng.randrange(self.V_RANGE)
                        for _ in range(self.warmup_ops + ops)]
        self.reference = self.build_reference()

    def build_reference(self) -> dict:
        """Each fixed shape's expected rows, in pure Python."""
        by_tenant: dict[int, list[int]] = {}
        by_plan: dict[str, list[int]] = {}
        for _k, tenant, v, _label in self.rows:
            by_tenant.setdefault(tenant, []).append(v)
            by_plan.setdefault(f"plan{tenant % 4}", []).append(v)
        pairs = [[k, v] for k, _t, v, _l in self.rows]
        return {
            "group_agg": [[t, len(vs), sum(vs), sum(vs) / len(vs)]
                          for t, vs in sorted(by_tenant.items())],
            "order_limit": sorted(pairs, key=lambda r: (r[1], r[0]))[:10],
            "full_order": sorted(pairs),
            "ref_join": [[p, len(vs), sum(vs)] for p, vs in sorted(by_plan.items())],
        }

    def load(self):
        s = self.session
        s.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int,"
                  " label text)")
        s.execute("SELECT create_distributed_table('events', 'k')")
        s.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
        s.execute("SELECT create_reference_table('tenants')")
        s.copy_rows("events", self.rows, ["k", "tenant", "v", "label"])
        s.copy_rows("tenants", self.tenants, ["id", "plan"])

    def run_op(self, index):
        execute = self.session.execute
        f = self.filters[index]
        for shape in self.steps:
            params = {"f": f} if shape == "filter_scan" else None
            rows = self.step(shape, execute, self.SQL[shape], params).rows
            self.rows_returned += len(rows)
            self.expect(self.shape_ok(shape, rows, f),
                        f"{shape}: {len(rows)} rows differ from the reference")

    def shape_ok(self, shape, rows, f) -> bool:
        if shape == "filter_scan":
            return sorted(rows) == [[k, t] for k, t, v, _l in self.rows if v == f]
        expected = self.reference[shape]
        if shape == "full_order":
            # Ties on v may come back in any order.
            return (all(a[1] <= b[1] for a, b in zip(rows, rows[1:]))
                    and sorted(rows) == expected)
        if shape == "group_agg":
            return len(rows) == len(expected) and all(
                got[:3] == want[:3] and math.isclose(got[3], want[3])
                for got, want in zip(rows, expected))
        return rows == expected


# -------------------------------------------------------------- write_mix


class WriteMix(Workload):
    name = "write_mix"
    why = ("Bulk writes and commits (TPC-C 2PC share, Fig. 6/9; ingest, Fig. 7):"
           " heap/index/WAL append, COPY and INSERT..SELECT channels, 1PC and"
           " 2PC; a read-side gain that costs writes shows here.")
    ops_per_second = 1.6
    warmup_ops = 1
    steps = ("copy", "router_txn", "transfer_2pc", "insert_select",
             "multi_update", "trim")

    BASE_ROWS = 2_000  # never trimmed; transactions pick their keys here
    COPY_ROWS = 1_000
    TXNS = 25
    TENANTS = 200
    UPDATE = "UPDATE events SET v = v + :d WHERE k = :k"
    SELECT = "SELECT v FROM events WHERE k = :k"
    client_copy_rows_per_op = COPY_ROWS

    def __init__(self, seed, ops, phase=0):
        super().__init__(seed, ops, phase)
        self.mirror: dict[int, list] = {}  # k -> [tenant, v], the live rows
        self.next_key = 1
        self.batches: list[tuple[int, int]] = []  # copied, not yet trimmed
        self.shard_of: dict[int, int] = {}

    def new_rows(self, count: int) -> list:
        rng = self.rng
        rows = []
        for k in range(self.next_key, self.next_key + count):
            tenant, v = rng.randrange(self.TENANTS), rng.randrange(50)
            self.mirror[k] = [tenant, v]
            rows.append([k, tenant, v, f"label-{k % 97}"])
        self.next_key += count
        return rows

    def load(self):
        s = self.session
        s.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int,"
                  " label text)")
        s.execute("SELECT create_distributed_table('events', 'k')")
        # Not co-located with events, so INSERT..SELECT repartitions.
        s.execute("CREATE TABLE rollup (tenant int, bucket int, n int, total int)")
        s.execute("SELECT create_distributed_table('rollup', 'tenant',"
                  " colocate_with := 'none')")
        s.copy_rows("events", self.new_rows(self.BASE_ROWS),
                    ["k", "tenant", "v", "label"])
        for k in range(1, self.BASE_ROWS + 1):
            self.shard_of[k] = s.execute(
                "SELECT get_shard_id_for_distribution_column('events', :k)",
                {"k": k}).scalar()

    def base_key(self) -> int:
        return self.rng.randrange(1, self.BASE_ROWS + 1)

    def run_op(self, index):
        s, execute = self.session, self.session.execute
        rows = self.new_rows(self.COPY_ROWS)
        self.batches.append((rows[0][0], rows[-1][0] + 1))
        copied = self.step("copy", s.copy_rows, "events", rows,
                           ["k", "tenant", "v", "label"])
        self.expect(copied == len(rows), f"COPY reported {copied} rows")

        self.step("router_txn", self.router_txns)
        self.step("transfer_2pc", self.transfers)

        groups = {(t, v) for t, v in self.mirror.values()}
        inserted = self.step(
            "insert_select", execute,
            "INSERT INTO rollup SELECT tenant, v, count(*), sum(v) FROM events"
            " GROUP BY tenant, v").rowcount
        self.expect(inserted == len(groups),
                    f"INSERT..SELECT wrote {inserted} groups, expected {len(groups)}")
        total_v = sum(v for _t, v in self.mirror.values())
        rollup = self.query("SELECT count(*), sum(n), sum(total) FROM rollup")
        self.expect(rollup == [[len(groups), len(self.mirror), total_v]],
                    f"rollup re-aggregates to {rollup}")

        tenant = self.rng.randrange(self.TENANTS)
        touched = [row for row in self.mirror.values() if row[0] == tenant]
        updated = self.step("multi_update", execute,
                            "UPDATE events SET v = v + 1 WHERE tenant = :t",
                            {"t": tenant}).rowcount
        for row in touched:
            row[1] += 1
        self.expect(updated == len(touched),
                    f"multi-shard UPDATE touched {updated} rows")

        self.step("trim", self.trim)
        total_v = sum(v for _t, v in self.mirror.values())
        events = self.query("SELECT count(*), sum(v) FROM events")
        self.expect(events == [[len(self.mirror), total_v]],
                    f"events holds {events}, expected"
                    f" {[len(self.mirror), total_v]}")

    def router_txns(self):
        """BEGIN / UPDATE / SELECT / COMMIT in one shard group: 1PC."""
        execute = self.session.execute
        for _ in range(self.TXNS):
            k = self.base_key()
            execute("BEGIN")
            execute(self.UPDATE, {"d": 1, "k": k})
            self.mirror[k][1] += 1
            rows = execute(self.SELECT, {"k": k}).rows
            execute("COMMIT")
            self.rows_returned += len(rows)
            self.expect(rows == [[self.mirror[k][1]]],
                        f"router txn read {rows} for key {k}")

    def transfers(self):
        """Move one unit between keys of different shards: 2PC."""
        execute = self.session.execute
        for _ in range(self.TXNS):
            a = self.base_key()
            b = self.base_key()
            while self.shard_of[b] == self.shard_of[a]:
                b = self.base_key()
            execute("BEGIN")
            execute(self.UPDATE, {"d": -1, "k": a})
            execute(self.UPDATE, {"d": 1, "k": b})
            execute("COMMIT")
            self.mirror[a][1] -= 1
            self.mirror[b][1] += 1

    def trim(self):
        """Delete the batch copied two rounds ago and the rollup, then
        VACUUM, so table sizes and per-round cost stay stationary."""
        execute = self.session.execute
        if len(self.batches) > 2:
            lo, hi = self.batches.pop(0)
            deleted = execute("DELETE FROM events WHERE k >= :lo AND k < :hi",
                              {"lo": lo, "hi": hi}).rowcount
            for k in range(lo, hi):
                del self.mirror[k]
            self.expect(deleted == hi - lo, f"trim deleted {deleted} rows")
        execute("DELETE FROM rollup")
        execute("VACUUM events")
        execute("VACUUM rollup")


# ------------------------------------------------------------ traffic_mix


class TrafficMix(Workload):
    name = "traffic_mix"
    why = ("ROADMAP's end to end: 2,000 closed-loop sessions through pgbouncer"
           " pools and metadata-synced coordinators, YCSB + TPC-C + ingest,"
           " ~10 % 2PC, every telemetry fold at once.")
    ops_per_second = 2000

    #: Which tenant is hot and which mix it runs is part of the scenario: a
    #: different draw moves wall cost per transaction by 2x, so the harness
    #: keeps bench_traffic's seed and ``--seed`` drives the transactions'
    #: own draws (keys, values, read/write and payment/status rolls).
    SCENARIO_SEED = 31415

    def __init__(self, seed, ops, phase=0):
        super().__init__(seed, ops, phase)
        self.harness = None
        self.config = TrafficConfig(
            sessions=2000, tenants=400, zipf_s=1.1, seed=self.SCENARIO_SEED,
            sim_duration=3600.0, max_transactions=ops, think="exponential",
            think_mean=2.0, ramp_seconds=10.0, session_lifetime=(4, 12),
            pool_size=32, max_client_conn=4000,
        )
        self.telemetry = True

    def setup(self, telemetry=True):
        self.telemetry = telemetry
        self.citus = make_cluster(workers=WORKERS, shard_count=SHARD_COUNT,
                                  max_connections=4000,
                                  config=cluster_config(telemetry))
        self.clock = self.citus.cluster.clock
        self.harness = TrafficHarness(self.citus, self.config)
        self.harness.prepare()

    def timed(self, transaction, recorder):
        """One mix's ``transaction`` callable, timed on both clocks."""
        clock, rng, pc = self.clock, self.rng, time.perf_counter_ns
        every = max(1, self.ops // SLICES)

        def run(client, _actor_rng, tenant, cfg):
            if self.attempted % every == 0:
                self.take_canary()
            if recorder is not None:
                recorder.op = self.attempted
            self.attempted += 1
            sim0 = clock.now()
            t0 = pc()
            try:
                transaction(client, rng, tenant, cfg)
            except ReproError as exc:
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                raise
            finally:
                self.walls.append(pc() - t0)
                self.sims.append(clock.now() - sim0)
                if recorder is not None:
                    recorder.op = -1

        return run

    def measure(self, recorder=None):
        # The harness looks its mixes up in its module's MIXES at call time.
        traffic_harness.MIXES = {
            name: dataclasses.replace(
                mix, transaction=self.timed(mix.transaction, recorder))
            for name, mix in MIXES.items()
        }
        sim0 = self.clock.now()
        start = time.perf_counter_ns()
        try:
            self.harness.run()
        finally:
            traffic_harness.MIXES = MIXES
        self.take_canary()
        self.loop_ns = time.perf_counter_ns() - start - self.canary_ns()
        self.sim_elapsed = self.clock.now() - sim0

    def end_checks(self):
        rejected = self.harness.totals["client_rejections"]
        self.attempted += rejected
        self.failed += rejected
        if not self.telemetry:
            return  # the SLO report reads citus_stat_statements
        slo = self.harness.report(default_slo_spec())["slo"]
        self.expect(slo["passed"], f"SLO rules failed: {slo['failed_rules']}")
        self.rows_returned = sum(
            row[10] for row in self.harness.stat_statement_rows())


WORKLOADS = {cls.name: cls for cls in (OltpPoint, AnalyticsScan, WriteMix, TrafficMix)}
