"""The plan contract: a distributed plan says what it is once.

Every :class:`~repro.citus.planner.tasks.CitusPlan` describes itself in one
place (``explain_info``), is drawn by one renderer
(``describe_plan(...).as_text()``, behind ``EXPLAIN``, ``EXPLAIN ANALYZE``,
``citus_explain`` and ``citus_explain_analyze`` alike), hands the executor
AST tasks only, and — where its tasks are a function of statement and
metadata — shows EXPLAIN the very task list it then runs. One statement
per plan class is held to all of it.
"""

import pathlib
import re

import pytest

import repro.citus.insert_select  # noqa: F401  (its plan classes register by import)
from repro import make_cluster
from repro.citus.executor.adaptive import AdaptiveExecutor, CopyChannelExecution
from repro.citus.observability import explain
from repro.citus.planner import join_order
from repro.citus.planner.tasks import CitusPlan, Task
from repro.sql import ast as A
from repro.sql import parse

STATEMENTS = {
    "fast_path": "SELECT * FROM orders WHERE key = 3",
    "router": ("SELECT o.total, l.qty FROM orders o JOIN lines l"
               " ON o.key = l.key WHERE o.key = 3"),
    "pushdown_concat": "SELECT key, total FROM orders ORDER BY total DESC LIMIT 3",
    "pushdown_merge": "SELECT tag, sum(total) FROM orders GROUP BY tag",
    "pushdown_dml": "UPDATE orders SET total = total + 1 WHERE key IN (1, 2, 3)",
    "insert_values": ("INSERT INTO orders VALUES (101, 1, 1.0, 'x'),"
                      " (102, 2, 2.0, 'y')"),
    "reference_dml": "UPDATE dims SET name = 'uno' WHERE id = 1",
    "local_reference": "SELECT * FROM dims",
    "insert_select_pushdown":
        "INSERT INTO rollup (key, total) SELECT key, total FROM orders",
    "insert_select_repartition":
        "INSERT INTO by_id (id, total) SELECT id, total FROM orders",
    "insert_select_coordinator":
        "INSERT INTO by_id (id, total) SELECT id, sum(total) FROM orders GROUP BY id",
    "join_repartition": "SELECT count(*) FROM orders o JOIN other x ON o.id = x.okey",
    "join_broadcast": "SELECT count(*) FROM orders o JOIN other x ON o.id = x.val",
}

#: What planning each statement must come to: the plan class and, for the
#: classes with more than one strategy, which.
EXPECTED = {
    "fast_path": ("SingleTaskPlan", "fast_path"),
    "router": ("SingleTaskPlan", "router"),
    "pushdown_concat": ("MultiTaskSelectPlan", "MergeAppend (streaming)"),
    "pushdown_merge": ("MultiTaskSelectPlan", "GroupAggregate Merge (incremental)"),
    "pushdown_dml": ("MultiTaskDMLPlan", None),
    "insert_values": ("InsertValuesPlan", None),
    "reference_dml": ("ReferenceDMLPlan", None),
    "local_reference": ("LocalReferencePlan", None),
    "insert_select_pushdown": ("PushdownInsertSelectPlan", "pushdown"),
    "insert_select_repartition": ("RepartitionInsertSelectPlan", "repartition"),
    "insert_select_coordinator": ("CoordinatorInsertSelectPlan", "coordinator"),
    "join_repartition": ("RepartitionPlan", "repartition"),
    "join_broadcast": ("RepartitionPlan", "broadcast"),
}

#: Plans that know their tasks at planning time: EXPLAIN shows the list the
#: executor runs. The others show display targets (COPY channels, a join
#: whose SQL exists only after the move) or nothing (row evaluation).
RUNS_ITS_OWN_TASKS = ("fast_path", "router", "pushdown_concat", "pushdown_merge",
                      "pushdown_dml", "reference_dml", "insert_select_pushdown")

each_statement = pytest.mark.parametrize("name", list(STATEMENTS))


@pytest.fixture
def s():
    citus = make_cluster(workers=2, shard_count=8)
    s = citus.coordinator_session()
    s.execute("CREATE TABLE orders (key int PRIMARY KEY, id int, total float, tag text)")
    s.execute("SELECT create_distributed_table('orders', 'key')")
    s.execute("CREATE TABLE lines (key int, line int, qty int)")
    s.execute("SELECT create_distributed_table('lines', 'key', colocate_with := 'orders')")
    s.execute("CREATE TABLE rollup (key int PRIMARY KEY, total float)")
    s.execute("SELECT create_distributed_table('rollup', 'key', colocate_with := 'orders')")
    # Wide rows: moving ``orders`` must be the cheaper side of a join.
    s.execute("CREATE TABLE other (okey int PRIMARY KEY, val int, pad text)")
    s.execute("SELECT create_distributed_table('other', 'okey', colocate_with := 'none')")
    s.execute("CREATE TABLE by_id (id int, total float)")
    s.execute("SELECT create_distributed_table('by_id', 'id', colocate_with := 'none')")
    s.execute("CREATE TABLE dims (id int PRIMARY KEY, name text)")
    s.execute("SELECT create_reference_table('dims')")
    for k in range(1, 9):
        s.execute("INSERT INTO orders VALUES ($1, $2, $3, 'x')", [k, k % 3, float(k)])
        s.execute("INSERT INTO lines VALUES ($1, 1, $2)", [k, k * 2])
    for k in range(1, 41):
        s.execute("INSERT INTO other VALUES ($1, $2, $3)", [k, k * 10, "p" * 200])
    s.execute("INSERT INTO dims VALUES (1, 'one')")
    s.citus = citus
    return s


def plan_classes():
    found, pending = [], list(CitusPlan.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def explain_text(s, sql, analyze=False):
    prefix = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
    return "\n".join(row[0] for row in s.execute(prefix + sql).rows)


def without_actuals(text):
    """EXPLAIN ANALYZE's text with what the execution added taken out: the
    ``(actual …)`` suffixes and lines, and the trailing ``Execution`` /
    ``Cross-Shard`` lines."""
    kept = []
    for line in text.splitlines():
        if line.strip().startswith(("(actual", "(never dispatched)",
                                    "Execution", "Cross-Shard:")):
            continue
        kept.append(re.sub(r"  \(actual [^()]*\)$", "", line))
    return "\n".join(kept)


# ----------------------------------------------------------- (a) one class


def test_every_plan_class_describes_itself_once_and_only_there():
    classes = plan_classes()
    assert join_order.RepartitionPlan in classes
    assert {cls.__name__ for cls in classes} >= {e[0] for e in EXPECTED.values()}
    for cls in classes:
        assert "explain_lines" not in vars(cls), cls
        assert "_explain_header" not in vars(cls), cls
        assert "explain_info" in vars(cls), cls
    assert "explain_lines" in vars(CitusPlan)
    assert not hasattr(CitusPlan, "_explain_header")


def test_the_deleted_paths_stay_deleted():
    root = pathlib.Path(__file__).resolve().parents[1]
    citus = {p: p.read_text() for p in (root / "src/repro/citus").rglob("*.py")}
    assert sum(t.count("def explain_lines") for t in citus.values()) == 1
    for gone in ("_explain_header", "task_sql_for_shard", "def explain_analyze("):
        assert not [p for p, t in citus.items() if gone in t], gone
    adaptive = root / "src/repro/citus/executor/adaptive.py"
    assert "task.sql" not in adaptive.read_text()
    for tree in ("src", "benchmarks", "examples", "tests"):
        for path in (root / tree).rglob("*.py"):
            if path != pathlib.Path(__file__).resolve():
                assert not re.search(r"ext\.stats\b", path.read_text()), path
    assert not hasattr(make_cluster(workers=1).coordinator_ext, "stats")


@each_statement
def test_the_statement_plans_to_the_class_it_stands_for(s, name):
    explained = explain(s, STATEMENTS[name])
    plan = s.instance.hooks.call_planner(s, parse(STATEMENTS[name])[0], None)
    cls, strategy = EXPECTED[name]
    assert type(plan).__name__ == cls
    if strategy is not None:
        assert strategy in (explained.tier, explained.merge_strategy,
                            (explained.subplan or {}).get("strategy"))


# -------------------------------------------------------- (b) one renderer


@each_statement
def test_explain_citus_explain_and_explain_analyze_are_one_text(s, name):
    sql = STATEMENTS[name]
    explain_text(s, sql)  # a cacheable shape is "(cached)" from here on
    text = explain_text(s, sql)
    assert text.startswith("Custom Scan (Citus Adaptive)\n  Planner: ")
    assert text == s.execute("SELECT citus_explain($1)", [sql]).scalar()
    assert text == explain(s, sql).as_text()
    analyzed = explain_text(s, sql, analyze=True)
    assert "Execution: rows=" in analyzed
    assert without_actuals(analyzed) == text


def test_citus_explain_analyze_takes_explain_analyzes_path(s):
    sql = STATEMENTS["pushdown_merge"]
    explain_text(s, sql)  # "(cached)" from here on
    via_udf = s.execute("SELECT citus_explain_analyze($1)", [sql]).scalar()
    assert "(actual rows=" in via_udf
    assert without_actuals(via_udf) == without_actuals(
        explain_text(s, sql, analyze=True))
    # A purely local statement takes the engine's EXPLAIN ANALYZE as well.
    s.execute("CREATE TABLE plain (k int)")
    local = s.execute(
        "SELECT citus_explain_analyze('SELECT * FROM plain')").scalar()
    assert local == explain_text(s, "SELECT * FROM plain", analyze=True)
    assert "Seq Scan on plain" in local and "(actual rows=0)" in local


# ------------------------------------------------------- (c) one task list


class Recorded:
    """What reached the executor while a statement ran."""

    def __init__(self, monkeypatch):
        self.tasks, self.flushes = [], {}
        execute_tasks = AdaptiveExecutor.execute_tasks
        open_task_streams = AdaptiveExecutor.open_task_streams
        flush = CopyChannelExecution.flush

        def recording_execute_tasks(executor, session, tasks, is_write=False):
            self.tasks.append(list(tasks))
            return execute_tasks(executor, session, tasks, is_write)

        def recording_open_task_streams(executor, session, tasks):
            self.tasks.append(list(tasks))
            return open_task_streams(executor, session, tasks)

        def recording_flush(execution, key, index, node, *rest):
            self.flushes[index] = node
            return flush(execution, key, index, node, *rest)

        monkeypatch.setattr(AdaptiveExecutor, "execute_tasks",
                            recording_execute_tasks)
        monkeypatch.setattr(AdaptiveExecutor, "open_task_streams",
                            recording_open_task_streams)
        monkeypatch.setattr(CopyChannelExecution, "flush", recording_flush)


def run_captured(s, sql):
    """Run ``sql``; the (index, node) of the task spans of its trace."""
    telemetry = s.citus.coordinator_ext.telemetry
    capture = telemetry.capture("plan_contract")
    try:
        s.execute(sql)
    finally:
        root = telemetry.end_capture(capture)
    return [(span.attrs["index"], span.node)
            for span in root.find(cat="executor", name="task")]


@pytest.mark.parametrize("name", RUNS_ITS_OWN_TASKS)
def test_explain_shows_the_tasks_the_executor_runs(s, name, monkeypatch):
    sql = STATEMENTS[name]
    shown = [(t.node, t.sql) for t in explain(s, sql).tasks]
    assert shown and all(node and text for node, text in shown)
    recorded = Recorded(monkeypatch)
    spans = run_captured(s, sql)
    assert len(recorded.tasks) == 1
    assert [(t.node, t.sql_text()) for t in recorded.tasks[0]] == shown
    assert sorted(spans) == [(i, node) for i, (node, _) in enumerate(shown)]


@pytest.mark.parametrize("name", ["join_repartition", "join_broadcast"])
def test_a_join_order_plan_shows_where_its_final_join_runs(s, name, monkeypatch):
    sql = STATEMENTS[name]
    targets = explain(s, sql).tasks
    assert targets and all(t.sql is None for t in targets)
    recorded = Recorded(monkeypatch)
    run_captured(s, sql)
    # The moved table's read, then the co-located join: one task per
    # anchor shard, on the nodes EXPLAIN named.
    final = recorded.tasks[-1]
    assert [(t.node, t.shard_group) for t in final] == [
        (t.node, t.shard_group) for t in targets]


@pytest.mark.parametrize("name", ["insert_select_repartition",
                                  "insert_select_coordinator"])
def test_a_rerouting_insert_select_shows_its_copy_channels(s, name, monkeypatch):
    sql = STATEMENTS[name]
    targets = explain(s, sql).tasks
    assert [t.sql.split()[0] for t in targets] == ["COPY"] * 8
    recorded = Recorded(monkeypatch)
    run_captured(s, sql)
    assert recorded.flushes
    for index, node in recorded.flushes.items():
        assert targets[index].node == node


# --------------------------------------------------------- (d) one payload


@each_statement
def test_every_task_reaching_the_executor_carries_an_ast(s, name, monkeypatch):
    recorded = Recorded(monkeypatch)
    s.execute(STATEMENTS[name])
    for tasks in recorded.tasks:
        for task in tasks:
            assert isinstance(task, Task)
            assert isinstance(task.stmt, A.Statement)
    if name != "local_reference":
        assert recorded.tasks


def test_a_task_cannot_be_built_from_text_or_nothing():
    """The mutant: a text-only task, as the co-located INSERT..SELECT used
    to build. It does not get as far as an executor."""
    with pytest.raises(TypeError):
        Task("worker1", None)
    with pytest.raises(TypeError):
        Task("worker1", "INSERT INTO rollup_102008 SELECT 1, 1")
    task = Task("worker1", parse("SELECT 1")[0])
    assert task.sql_text() == "SELECT 1"
    assert not hasattr(task, "sql")
