"""Adaptive executor tests: slow start, shared connection limits,
connection caching, and transaction affinity (§3.6.1).

The executor runs a statement's work three ways — blocking tasks
(multi-shard DML), streaming cursors (multi-shard SELECT) and COPY
channels — and §3.6.1's connection policy must not depend on which, so the
policy tests take the driver as a parameter. Each driver puts four pieces
of work on each of the two workers. Those tests set the slow-start
interval on the executor to one of two extremes, so what is asserted
follows from the policy alone, not from what a task costs: never = the
pool target stays at one connection; at once = the target is all the work
left (from the first moment a connection has been busy), still capped by
the shared limit.
"""

import pytest

from repro.citus.executor import adaptive
from repro.citus.executor.placement import SessionPools
from repro.errors import SQLError
from tests.conftest import counters_dict, find_keys_on_distinct_nodes

NEVER, AT_ONCE = 1e9, 1e-9

DRIVERS = {
    "dml": lambda s: s.execute("UPDATE t SET v = v + 1"),
    "select": lambda s: s.execute("SELECT * FROM t"),
    "copy": lambda s: s.copy_rows("t", [[k, k] for k in range(101, 165)]),
}
# The same statements, failing on one shard after others have run.
FAILING = {
    "dml": lambda s: s.execute("UPDATE t SET v = 1 / (k - 5)"),
    "select": lambda s: s.execute("SELECT 1 / (k - 5) FROM t"),
    "copy": lambda s: s.copy_rows(  # 5 is taken
        "t", [[k, k] for k in range(101, 133)] + [[5, 0]]
        + [[k, k] for k in range(133, 197)]),
}
each_driver = pytest.mark.parametrize("driver", sorted(DRIVERS))


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    for k in range(1, 17):
        s.execute("INSERT INTO t VALUES ($1, $2)", [k, k])
    return s


def telemetry(citus, s, driver, interval, run=DRIVERS):
    """Run one driver's statement; what its connection picking did."""
    executor = citus.coordinator_ext.executor
    citus.coordinator_ext.config.executor_slow_start_interval_ms = interval * 1000.0
    run[driver](s)
    report = executor.last_report
    assert report.task_count == 8
    return (report.connections_opened, report.per_node_connections,
            report.connections_reused)


def gauges(s, name):
    """{node: value} of one citus_stat_counters() gauge."""
    return {node: v for (n, node), v in counters_dict(s).items() if n == name}


class TestSlowStart:
    def test_single_task_uses_one_connection(self, citus, s):
        executor = citus.coordinator_ext.executor
        s.execute("SELECT * FROM t WHERE k = 1")
        report = executor.last_report
        assert report.task_count == 1
        assert report.connections_used == 1

    def test_fast_tasks_do_not_fan_out(self, citus, s):
        # Sub-millisecond tasks finish before the 10ms slow-start step, so
        # few extra connections open even with 4 tasks per worker.
        executor = citus.coordinator_ext.executor
        s.execute("SELECT count(*) FROM t")
        report = executor.last_report
        assert report.task_count == 8
        assert report.connections_used <= 4  # ~1-2 per worker

    @each_driver
    def test_cold_session_opens_one_connection_per_worker(self, citus, s, driver):
        fresh = citus.coordinator_session()
        assert telemetry(citus, fresh, driver, NEVER) == (
            2, {"worker1": 1, "worker2": 1}, 0)

    @each_driver
    def test_ramp_is_bounded_by_the_work_left(self, citus, s, driver):
        # The first piece runs on the cached connection; once that is busy
        # the pool grows to the three pieces left, and no further.
        assert telemetry(citus, s, driver, AT_ONCE) == (
            4, {"worker1": 3, "worker2": 3}, 2)
        assert gauges(s, "shared_pool_slots") == {"worker1": 3, "worker2": 3}

    def test_elapsed_is_max_not_sum(self, citus, s, monkeypatch):
        monkeypatch.setattr(adaptive, "PER_ROW_CPU_COST", 0.01)
        s.execute("SELECT * FROM t")  # 16 rows over 8 tasks
        report = citus.coordinator_ext.executor.last_report
        # Sum of costs would be >= 0.16s; parallel max must be lower.
        assert report.elapsed < 0.16


class TestSharedConnectionLimit:
    @each_driver
    def test_limit_caps_fanout(self, citus, s, driver):
        ext = citus.coordinator_ext
        ext.config.max_shared_pool_size = 2
        assert telemetry(citus, s, driver, AT_ONCE) == (
            2, {"worker1": 2, "worker2": 2}, 2)
        assert ext.stat_counters.value("shared_pool_throttled") > 0
        assert gauges(s, "shared_pool_slots") == {"worker1": 2, "worker2": 2}

    def test_slots_released_on_pool_close(self, citus, s):
        ext = citus.coordinator_ext
        s.execute("SELECT count(*) FROM t")
        used_before = dict(ext._shared_slots)
        pools = SessionPools.for_session(s, ext)
        pools.close_all()
        assert sum(ext._shared_slots.values()) < sum(used_before.values())

    @each_driver
    def test_failure_mid_statement_leaks_nothing(self, citus, s, driver):
        ext = citus.coordinator_ext
        ext.config.copy_flush_threshold = 4  # flush before the bad row
        with pytest.raises(SQLError):
            telemetry(citus, s, driver, AT_ONCE, run=FAILING)
        assert s.execute("SELECT count(*), sum(v) FROM t").rows == [[16, 136]]
        assert gauges(s, "executor_statements_in_flight") == {None: 0}
        assert set(gauges(s, "tasks_in_flight").values()) == {0}
        # The plane stays usable, and every slot taken is given back.
        telemetry(citus, s, driver, AT_ONCE)
        SessionPools.for_session(s, ext).close_all()
        assert set(gauges(s, "shared_pool_slots").values()) == {0}
        assert sum(ext._shared_slots.values()) == 0


class TestConnectionCaching:
    @each_driver
    def test_without_ramp_the_cached_connection_does_everything(self, citus, s, driver):
        # The fixture's single-key INSERTs left one connection per worker.
        assert telemetry(citus, s, driver, NEVER) == (
            0, {"worker1": 1, "worker2": 1}, 2)

    def test_connections_reused_across_statements(self, citus, s):
        s.execute("SELECT count(*) FROM t")
        opened_first = s.stats["citus_connections"]
        s.execute("SELECT count(*) FROM t")
        # Second statement reuses cached connections: no growth (or tiny).
        assert s.stats["citus_connections"] == opened_first

    def test_worker_connection_count_bounded(self, citus, s):
        for _ in range(20):
            s.execute("SELECT count(*) FROM t")
        for name in citus.worker_names():
            # One cached connection per session per worker (plus utility).
            assert citus.cluster.node(name).connection_count <= 4


class TestTransactionAffinity:
    def test_same_group_same_connection_in_txn(self, citus, s):
        k1, k2 = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        conn_before = pools.all_connections()
        groups_before = {id(c): set(c.accessed_groups) for c in conn_before}
        s.execute("UPDATE t SET v = 2 WHERE k = $1", [k1])  # same shard
        # No new txn connection was created for the same shard group.
        assert len(pools.txn_connections()) == 1
        s.execute("COMMIT")

    @each_driver
    def test_pinned_groups_stay_on_their_connection(self, citus, s, driver):
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 0 WHERE k = $1", [k1])
        (writer,) = pools.txn_connections()
        (pinned,) = writer.accessed_groups
        telemetry(citus, s, driver, AT_ONCE)  # fans out inside the txn
        holders = [c for c in pools.all_connections() if pinned in c.accessed_groups]
        assert holders == [writer]
        # Every group is pinned to exactly one connection.
        groups = [g for c in pools.all_connections() for g in c.accessed_groups]
        assert len(groups) == len(set(groups)) == 8
        s.execute("ROLLBACK")

    def test_multi_shard_read_sees_txn_writes(self, citus, s):
        # The read of a modified shard must use the writing connection.
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 777 WHERE k = $1", [k1])
        total = s.execute("SELECT count(*) FROM t WHERE v = 777").scalar()
        assert total == 1
        s.execute("ROLLBACK")

    def test_affinity_cleared_after_commit(self, citus, s):
        k1, _ = find_keys_on_distinct_nodes(citus, "t")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 1 WHERE k = $1", [k1])
        s.execute("COMMIT")
        pools = SessionPools.for_session(s, citus.coordinator_ext)
        assert all(not c.accessed_groups for c in pools.all_connections())
        assert all(not c.in_txn_block for c in pools.all_connections())


class TestClockAccounting:
    def test_clock_advances_with_queries(self, citus, s):
        before = citus.cluster.clock.now()
        s.execute("SELECT count(*) FROM t")
        assert citus.cluster.clock.now() > before

    def test_network_counters_grow(self, citus, s):
        before = citus.cluster.network.messages_sent
        s.execute("SELECT count(*) FROM t")
        assert citus.cluster.network.messages_sent >= before + 8


# ------------------------------------------- the straight line vs the timeline
#
# One task on one connection does not build a ConnectionTimeline
# (``AdaptiveExecutor.execute_task``), but must report the run exactly as one
# would. The same script is run on twin clusters — one as shipped, one whose
# executor sends a single task through a timeline-driven reference instead —
# and after every step everything a run leaves behind must agree: the
# ExecutionReport, the record's EXECUTION events and unit tuples, the whole
# registry (counters, gauges and wait totals, per node), the ASH ring, the
# clock, and the session's worker connections (transaction blocks, affinity,
# wire totals, ``remote_txns``, ``pools.touched``, shared-pool slots).
#
# Two references: the multi-task driver called with a one-element list (what
# ran a single task before), and — since parking on a lock now lives in the
# one-task driver only — the parent's one-task sequence kept here over a
# ConnectionTimeline, BLOCKED_TASK branch included.

import dataclasses
import inspect
import textwrap

from repro import make_cluster
from repro.citus.executor.adaptive import AdaptiveExecutor, ExecutionReport
from repro.citus.executor.timeline import ConnectionTimeline
from repro.citus.extension import CitusConfig
from repro.citus.record import (BEGIN, BLOCKED, BLOCKED_TASK, E_ATTRS, E_CAT,
                                E_END, E_NAME, E_START, EXECUTION, TASK, TASKS)
from repro.engine.expr import BoundParams
from repro.engine.locks import WouldBlock
from repro.errors import ReproError


def multi_task_driver(executor, session, task, is_write=False):
    return executor._execute_many(session, [task], is_write)[0]


def parent_one_task(executor, session, task, is_write=False):
    """``execute_tasks`` + ``_execute_task`` of the parent commit for one
    task (``allow_block`` true), over a ConnectionTimeline."""
    report = ExecutionReport(task_count=1)
    timeline = ConnectionTimeline(executor, session, report, TASKS)
    need_txn_block = session.in_transaction
    node, group = task.node, task.shard_group
    try:
        conn = timeline.pinned(node, group) or timeline.pick(node, 1)
        timeline.begin(node)
        before, bytes_before = conn.elapsed, conn.bytes_transferred
        begin_bytes = 0
        try:
            if need_txn_block:
                adaptive._enter_txn_block(executor.ext, session, conn, is_write)
                begin_bytes = conn.bytes_transferred - bytes_before
                before, bytes_before = conn.elapsed, conn.bytes_transferred
            if group is not None:
                conn.accessed_groups.add(group)
            result = conn.execute_parsed(task.stmt, task.params,
                                         allow_block=True)
        except WouldBlock:
            # charge(BLOCKED_TASK): parked, not run — the connection is free.
            if timeline.units is not None:
                timeline.units.append(
                    (BLOCKED_TASK, 0, node, group, is_write,
                     timeline.busy[id(conn)], conn.elapsed - before, 0,
                     conn.bytes_transferred - bytes_before))
            timeline.end(node, "blocked")
            raise
        except Exception:
            timeline.end(node, "failed")
            raise
        timeline.end(node, "executed")
        rows = result.rowcount if result.rowcount else len(result.rows)
        cost = (conn.elapsed - before) + rows * adaptive.PER_ROW_CPU_COST
        if begin_bytes:
            timeline.charge(conn, 0.0, BEGIN, 0, group, False, 0, begin_bytes)
        timeline.charge(conn, cost, TASK, 0, group, is_write, rows,
                        conn.bytes_transferred - bytes_before)
    except WouldBlock:
        timeline.counters.gauge_decr("executor_statements_in_flight")
        report.elapsed = max(timeline.busy.values(), default=0.0)
        timeline._close(BLOCKED)
        raise
    except BaseException:
        timeline.abandon()
        raise
    timeline.settle()
    session.stats["citus_tasks"] += 1
    executor.last_report = report
    if not need_txn_block:
        adaptive._clear_affinity(timeline.pools)
    return result


class Twin:
    """One cluster of a pair, its script helpers and what it leaves behind."""

    def __init__(self, execute_task=None, max_shared_pool_size=100):
        self.cluster = make_cluster(workers=2, shard_count=8, config=CitusConfig(
            max_shared_pool_size=max_shared_pool_size))
        self.ext = self.cluster.coordinator_ext
        if execute_task is not None:
            executor = self.ext.executor
            executor.execute_task = (
                lambda session, task, is_write=False:
                execute_task(executor, session, task, is_write))
        # What the executor tells the record of every run it keeps.
        self.runs = []
        telemetry = self.ext.telemetry
        execution_end = telemetry.execution_end

        def kept_execution_end(driver, session, base, elapsed, units, detail,
                               *rest):
            if telemetry.current is not None:
                self.runs.append((driver, base, elapsed, units and list(units), detail,
                                  rest))
            execution_end(driver, session, base, elapsed, units, detail, *rest)

        telemetry.execution_end = kept_execution_end
        self.sessions = {}
        self.observed = []
        admin = self.session("admin")
        admin.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        admin.execute("SELECT create_distributed_table('t', 'k')")
        admin.copy_rows("t", [[k, k] for k in range(1, 33)])
        # k1 / k2 live on different nodes; k3 on k1's node, another shard.
        cache = self.ext.metadata.cache
        dist = cache.get_table("t")
        place = {k: (cache.placement_node(
            dist.shards[dist.shard_index_for_value(k)].shardid),
            dist.shard_index_for_value(k)) for k in range(1, 33)}
        self.k1 = 1
        self.k2 = next(k for k in place if place[k][0] != place[1][0])
        self.k3 = next(k for k in place if place[k][0] == place[1][0]
                       and place[k][1] != place[1][1])
        self.node1 = place[1][0]

    def session(self, name):
        if name not in self.sessions:
            self.sessions[name] = self.cluster.coordinator_session(name)
        return self.sessions[name]

    def run(self, name, sql, params=None):
        """Execute on the named session and observe; errors are outcomes."""
        try:
            outcome = self.session(name).execute(sql, params).rows
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
        self.observe(outcome)

    def park(self, name, sql, params=None):
        handle = self.session(name).execute_async(sql, params)
        self.observe(("parked", handle.done))
        return handle

    def resolve(self, handle):
        try:
            outcome = handle.get().rowcount
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
        self.observe(outcome)

    def observe(self, outcome) -> None:
        ext = self.ext
        telemetry = ext.telemetry
        telemetry.drain()
        executions = [
            (record.name, record.tier, record.tenant, record.error,
             record.start, record.end, event[E_NAME], event[E_START],
             event[E_END], event[E_ATTRS:])
            for record in telemetry.trace_records()
            for event in record.events if event[E_CAT] is EXECUTION
        ]
        runs = list(self.runs)
        sessions = {}
        for name, session in self.sessions.items():
            pools = getattr(session, SessionPools.ATTR, None)
            conns = [] if pools is None else [
                (node, conn.closed, conn.in_txn_block,
                 getattr(conn, "did_write", False),
                 sorted(conn.accessed_groups), conn.round_trips,
                 conn.bytes_transferred, conn.elapsed,
                 id(conn) in session.remote_txns)
                for node, conns in pools.by_node.items() for conn in conns]
            sessions[name] = (
                conns, len(session.remote_txns),
                pools is not None and pools.touched, session.in_transaction,
                session.aborted, session.state, dict(session.stats))
        report = ext.executor.last_report
        self.observed.append({
            "outcome": outcome,
            "report": report and dataclasses.asdict(report),
            "executions": executions,
            "runs": runs,
            "registry": ext.stat_counters.as_dict(),
            "ash": list(telemetry.ash.ring),
            "clock": self.cluster.cluster.clock.now(),
            "sessions": sessions,
            "shared_slots": dict(ext._shared_slots),
        })


def cold(t):
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])


def warm(t):
    cold(t)
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])
    t.run("a", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k1])
    t.run("a", f"SELECT v FROM t WHERE k = {t.k3}")
    # Other plans that come down to one task: a multi-shard UPDATE pruned
    # to one shard, a positional single-row INSERT.
    t.run("a", "UPDATE t SET v = v + 1 WHERE k IN ($1)", [t.k1])
    t.run("a", "INSERT INTO t VALUES (101, 1)")
    t.run("a", "SELECT count(*) FROM t")  # a timeline run in between


def begin_same_group(t):
    warm(t)
    t.run("a", "BEGIN")
    t.run("a", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k1])  # BEGIN unit
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])  # pinned connection
    t.run("a", "COMMIT")
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])  # affinity is gone


def begin_other_group(t):
    t.run("a", "SELECT count(*) FROM t")  # several connections per node
    t.run("a", "BEGIN")
    t.run("a", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k3])
    t.run("a", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k1])  # same node
    t.run("a", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k3])  # its own pin
    t.run("a", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k2])  # other node
    t.run("a", "ROLLBACK")
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])


def pool_exhausted(t):
    """``max_shared_pool_size`` is 1 and session a holds the slot."""
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])
    t.run("b", "SELECT v FROM t WHERE k = $1", [t.k1])  # forced
    t.run("b", "UPDATE t SET v = 0 WHERE k = $1", [t.k1])  # reused
    t.run("c", "SELECT count(*) FROM t")  # the limit is strict beyond that


def park_then_resume(t):
    cold(t)
    t.run("a", "BEGIN")
    t.run("a", "UPDATE t SET v = 50 WHERE k = $1", [t.k1])
    handle = t.park("b", "UPDATE t SET v = v + 1 WHERE k = $1", [t.k1])
    t.run("a", "COMMIT")
    t.cluster.pump()
    t.resolve(handle)
    t.run("b", "SELECT v FROM t WHERE k = $1", [t.k1])


def park_then_deadlock_victim(t):
    t.run("a", "BEGIN")
    t.run("b", "BEGIN")
    t.run("a", "UPDATE t SET v = 1 WHERE k = $1", [t.k1])
    t.run("b", "UPDATE t SET v = 2 WHERE k = $1", [t.k2])
    first = t.park("a", "UPDATE t SET v = 1 WHERE k = $1", [t.k2])
    second = t.park("b", "UPDATE t SET v = 2 WHERE k = $1", [t.k1])
    t.observe(len(t.cluster.run_maintenance()["deadlocks_cancelled"]))
    t.cluster.pump()
    t.resolve(second)  # the younger transaction is the victim
    t.run("b", "ROLLBACK")
    t.cluster.pump()
    t.resolve(first)
    t.run("a", "COMMIT")
    t.run("a", "SELECT v FROM t WHERE k IN ($1, $2) ORDER BY k", [t.k1, t.k2])


def unique_violation(t):
    cold(t)
    t.run("a", "INSERT INTO t (k, v) VALUES ($1, 0)", [t.k1])
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k3])
    t.run("a", "BEGIN")
    t.run("a", "INSERT INTO t (k, v) VALUES ($1, 0)", [t.k1])
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])  # aborted block
    t.run("a", "ROLLBACK")
    t.run("a", "INSERT INTO t (k, v) VALUES (102, 0)")


def crash_between_statements(t):
    cold(t)
    t.cluster.cluster.fail_node(t.node1)
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])  # zombie dropped
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k2])
    t.cluster.cluster.node(t.node1).restart()
    t.run("a", "SELECT v FROM t WHERE k = $1", [t.k1])


SCENARIOS = [cold, warm, begin_same_group, begin_other_group, pool_exhausted,
             park_then_resume, park_then_deadlock_victim, unique_violation,
             crash_between_statements]
PARKING = {park_then_resume, park_then_deadlock_victim}


def run_twins(scenario, reference, shipped=None):
    size = 1 if scenario is pool_exhausted else 100
    ours, theirs = Twin(shipped, size), Twin(reference, size)
    scenario(ours)
    scenario(theirs)
    assert len(ours.observed) == len(theirs.observed) > 0
    for step, (got, want) in enumerate(zip(ours.observed, theirs.observed)):
        for key in want:
            assert got[key] == want[key], (scenario.__name__, step, key)
    return ours


@pytest.mark.parametrize("reference", [multi_task_driver, parent_one_task],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_one_task_reports_as_a_timeline_of_one_task_would(scenario, reference):
    if scenario in PARKING and reference is multi_task_driver:
        pytest.skip("the multi-task driver never parks")
    ours = run_twins(scenario, reference)
    # The scenarios did what their names say.
    outcomes = [o["outcome"] for o in ours.observed]
    counters = ours.observed[-1]["registry"]
    if scenario is cold:
        assert ours.observed[0]["report"]["connections_opened"] == 1
    if scenario is warm:
        assert ours.observed[1]["report"]["connections_reused"] == 1
    if scenario is begin_other_group:
        # Every idle cached connection of the node counts, not only the
        # one used.
        report = ours.observed[3]["report"]
        assert report["per_node_connections"][ours.node1] > 1
        assert report["connections_reused"] == 1
    if scenario is pool_exhausted:
        assert counters["shared_pool_throttled"] > 0
        # Over the limit of 1: b's first connection was forced.
        assert ours.observed[1]["report"]["connections_opened"] == 1
        assert ours.observed[1]["shared_slots"][ours.node1] > 1
    if scenario in PARKING:
        assert ("parked", False) in outcomes
        assert counters["tasks_blocked"] >= 1
    if scenario is park_then_deadlock_victim:
        assert outcomes[6:9] == [1, (
            "QueryCanceled",
            "canceling statement due to deadlock victim cancellation"), []]
        assert outcomes[-3:] == [1, [], [[1], [1]]]  # a won both rows
    if scenario is unique_violation:
        assert [o[0] for o in outcomes if type(o) is tuple] == [
            "UniqueViolation", "UniqueViolation", "TransactionAborted"]
    if scenario is crash_between_statements:
        assert outcomes[1][0] == "NodeUnavailable"
        assert counters["connections_dropped"] == 1


def _mutant(old: str, new: str):
    """``execute_task`` with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(AdaptiveExecutor.execute_task))
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), vars(adaptive), namespace)
    return namespace["execute_task"]


MUTANTS = {
    "reuse not counted": ("if reused:", "if False:"),
    "BEGIN bytes dropped": ("if begin_bytes:", "if False:"),
    "a parked task occupies its connection": (
        "base, free, units", "base, free + 1.0, units"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_equivalence_test_bites(name):
    shipped = _mutant(*MUTANTS[name])
    scenario = park_then_resume if name.startswith("a parked") else begin_same_group
    with pytest.raises(AssertionError):
        run_twins(scenario, parent_one_task, shipped=shipped)
