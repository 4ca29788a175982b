"""The PostgreSQL extension hook surface as a contract (§3.1).

Citus is "the first distributed database that delivers its functionality
through the PostgreSQL extension APIs" — these tests pin down that API on
the engine side: planner hooks (CustomScan), utility hooks, transaction
callbacks, background workers, UDFs — and verify that multiple extensions
compose (and can conflict, the Citus/TimescaleDB story of §6)."""

import pytest

from repro.engine import PostgresInstance, QueryResult
from repro.engine.hooks import CustomScanPlan
from repro.sql import ast as A


class RecordingPlan(CustomScanPlan):
    def __init__(self, marker):
        self.marker = marker

    def execute(self, session, params):
        return QueryResult(["marker"], [[self.marker]])

    def explain_lines(self):
        return [f"Custom Scan ({self.marker})"]


class TestPlannerHook:
    def test_hook_replaces_local_planning(self, pg):
        pg.hooks.planner_hooks.append(
            lambda session, stmt, params: RecordingPlan("mine")
            if isinstance(stmt, A.Select) else None
        )
        s = pg.connect()
        assert s.execute("SELECT 1").rows == [["mine"]]

    def test_hook_returning_none_falls_through(self, pg):
        calls = []
        pg.hooks.planner_hooks.append(
            lambda session, stmt, params: calls.append(1) or None
        )
        s = pg.connect()
        assert s.execute("SELECT 40 + 2").scalar() == 42
        assert calls  # consulted, declined

    def test_first_extension_wins(self, pg):
        pg.hooks.planner_hooks.append(
            lambda session, stmt, params: RecordingPlan("first")
        )
        pg.hooks.planner_hooks.append(
            lambda session, stmt, params: RecordingPlan("second")
        )
        s = pg.connect()
        # The §6 conflict: two extensions claiming the planner hook cannot
        # both apply; registration order decides.
        assert s.execute("SELECT 1").rows == [["first"]]

    def test_explain_uses_custom_plan(self, pg):
        pg.hooks.planner_hooks.append(
            lambda session, stmt, params: RecordingPlan("probe")
        )
        s = pg.connect()
        assert s.execute("EXPLAIN SELECT 1").rows == [["Custom Scan (probe)"]]


class TestUtilityHook:
    def test_hook_intercepts_ddl(self, pg):
        intercepted = []

        def hook(session, stmt):
            if isinstance(stmt, A.CreateTable) and stmt.name.startswith("magic_"):
                intercepted.append(stmt.name)
                return QueryResult([], [], command="CREATE TABLE")
            return None

        pg.hooks.utility_hooks.append(hook)
        s = pg.connect()
        s.execute("CREATE TABLE magic_t (a int)")
        assert intercepted == ["magic_t"]
        assert not pg.catalog.has_table("magic_t")  # fully intercepted
        s.execute("CREATE TABLE normal_t (a int)")
        assert pg.catalog.has_table("normal_t")


class TestTransactionCallbacks:
    def test_commit_callback_ordering(self, pg):
        events = []
        pg.hooks.pre_commit_callbacks.append(lambda s: events.append("pre"))
        pg.hooks.post_commit_callbacks.append(lambda s: events.append("post"))
        pg.hooks.abort_callbacks.append(lambda s: events.append("abort"))
        s = pg.connect()
        s.execute("CREATE TABLE t (a int)")
        events.clear()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1)")
        s.execute("COMMIT")
        assert events == ["pre", "post"]

    def test_abort_callback_on_rollback(self, pg):
        events = []
        pg.hooks.abort_callbacks.append(lambda s: events.append("abort"))
        s = pg.connect()
        s.execute("CREATE TABLE t (a int)")
        events.clear()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1)")
        s.execute("ROLLBACK")
        assert events == ["abort"]

    def test_pre_commit_exception_aborts(self, pg):
        def veto(session):
            raise RuntimeError("vetoed by extension")

        pg.hooks.pre_commit_callbacks.append(veto)
        s = pg.connect()
        s.execute("CREATE TABLE t (a int)")  # autocommit also vetoed? Yes:
        # actually the CREATE already committed before we appended... create
        # first, then register the veto for the data transaction below.
        pg.hooks.pre_commit_callbacks.remove(veto)
        pg.hooks.pre_commit_callbacks.append(veto)
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(RuntimeError):
            s.execute("COMMIT")
        pg.hooks.pre_commit_callbacks.remove(veto)
        assert s.execute("SELECT count(*) FROM t").scalar() == 0


class TestBackgroundWorkers:
    def test_registered_worker_runs_on_interval(self):
        from repro.net import SimClock

        clock = SimClock()
        pg = PostgresInstance("bg", clock=clock)
        runs = []
        pg.register_background_worker("ticker", lambda inst: runs.append(1),
                                      interval=2.0)
        pg.run_background_workers()
        clock.advance(2.5)
        pg.run_background_workers()
        clock.advance(0.5)
        pg.run_background_workers()  # only 0.5s since last: no run
        assert len(runs) == 2

    def test_force_runs_immediately(self, pg):
        runs = []
        pg.register_background_worker("t", lambda inst: runs.append(1))
        pg.run_background_workers(force=True)
        pg.run_background_workers(force=True)
        assert len(runs) == 2


class TestUdfRegistry:
    def test_udf_callable_from_select(self, pg):
        pg.catalog.register_function(
            "my_udf", lambda session, x: x * 2
        )
        s = pg.connect()
        assert s.execute("SELECT my_udf(21)").scalar() == 42

    def test_udf_can_run_queries(self, pg):
        def counting_udf(session, table):
            return session.execute(f"SELECT count(*) FROM {table}").scalar()

        pg.catalog.register_function("row_count", counting_udf)
        s = pg.connect()
        s.execute("CREATE TABLE t (a int)")
        s.execute("INSERT INTO t VALUES (1), (2)")
        assert s.execute("SELECT row_count('t')").scalar() == 2


class TestComposition:
    def test_second_extension_composes_with_citus(self, citus, citus_session):
        """An auditing extension alongside Citus: sees the same statements,
        doesn't disturb distributed planning."""
        audited = []

        def audit_hook(session, stmt, params):
            if isinstance(stmt, A.Select):
                audited.append(type(stmt).__name__)
            return None  # never claims the plan

        # Install *before* Citus's hook position? Order matters; appending
        # after still observes because it returns None... but Citus returns
        # a plan first. Insert the auditor ahead.
        citus.coordinator.hooks.planner_hooks.insert(0, audit_hook)
        s = citus_session
        s.execute("CREATE TABLE t (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        s.execute("INSERT INTO t VALUES (1)")
        audited.clear()
        assert s.execute("SELECT count(*) FROM t").scalar() == 1
        assert audited  # the auditor observed the distributed query


class TestDrainNode:
    def test_drain_empties_node(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        s.copy_rows("t", [[i, i] for i in range(40)])
        checksum = s.execute("SELECT sum(v), count(*) FROM t").first()
        moved = s.execute("SELECT citus_drain_node('worker1')").scalar()
        assert moved > 0
        cache = citus.coordinator_ext.metadata.cache
        assert all("worker1" not in nodes for nodes in cache.placements.values())
        assert s.execute("SELECT sum(v), count(*) FROM t").first() == checksum
