"""Ablation benches for the design choices DESIGN.md calls out.

1. **Planner cascade** — measure planning cost per tier: cheap queries must
   not pay the logical planner's overhead (the reason Citus iterates from
   cheapest to most expensive planner).
2. **Slow start** — adaptive executor with slow start on vs. effectively
   off (huge step): connection counts for fast statements.
3. **Broadcast vs. repartition join** — the join-order planner's network
   cost decision as the moved table's size crosses the broadcast threshold.
4. **Deadlock detection vs. wound-wait** — modeled restart cost of
   wound-wait at TPC-C-like contention vs. the measured cost of detection
   (§3.7.3's argument for why Citus chose detection).
"""

import pytest

from repro import make_cluster
from repro.citus.planner.distributed import plan_statement
from repro.sql import parse_one

from .common import write_report


@pytest.fixture(scope="module")
def planner_cluster():
    citus = make_cluster(workers=2, shard_count=8)
    s = citus.coordinator_session()
    s.execute("CREATE TABLE a (k int PRIMARY KEY, v int, tag text)")
    s.execute("SELECT create_distributed_table('a', 'k')")
    s.execute("CREATE TABLE b (k int PRIMARY KEY, w int)")
    s.execute("SELECT create_distributed_table('b', 'k', colocate_with := 'a')")
    s.copy_rows("a", [[i, i, "t"] for i in range(40)])
    s.copy_rows("b", [[i, i * 2] for i in range(40)])
    return citus, s


PLANNER_QUERIES = {
    "fast-path": "SELECT * FROM a WHERE k = 7",
    "router": "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.k = 7",
    "pushdown-concat": "SELECT k, v FROM a WHERE v > 3",
    "pushdown-merge": "SELECT tag, sum(v), avg(v) FROM a GROUP BY tag",
}


@pytest.mark.parametrize("tier", list(PLANNER_QUERIES))
def bench_ablation_planner_tier_cost(benchmark, planner_cluster, tier):
    """Planning-only cost per cascade tier (no execution)."""
    benchmark.group = "ablation-planner-cascade"
    citus, s = planner_cluster
    ext = citus.coordinator_ext
    stmt = parse_one(PLANNER_QUERIES[tier])
    benchmark.pedantic(
        lambda: plan_statement(ext, s, stmt, None), rounds=20, iterations=5
    )


def bench_ablation_planner_cascade_report(benchmark, planner_cluster):
    """The cascade's point: cheap queries avoid expensive planning."""
    import time

    benchmark.group = "ablation-planner-cascade"
    citus, s = planner_cluster
    ext = citus.coordinator_ext

    def measure():
        costs = {}
        for tier, sql in PLANNER_QUERIES.items():
            stmt = parse_one(sql)
            start = time.perf_counter()
            for _ in range(100):
                plan_statement(ext, s, stmt, None)
            costs[tier] = (time.perf_counter() - start) / 100 * 1e6
        return costs

    costs = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["== Ablation: planner cascade (planning cost per tier, µs) ==", ""]
    for tier, us in costs.items():
        lines.append(f"  {tier:<18} {us:8.1f} µs")
    lines.append("")
    lines.append("Fast path / router stay well below the multi-shard planners,")
    lines.append("which is why the cascade tries them first (§3.5).")
    write_report("ablation_planners", "\n".join(lines))
    assert costs["fast-path"] < costs["pushdown-merge"]


def bench_ablation_slow_start(benchmark):
    """Slow start on vs. off: the connections a fast 16-task SELECT runs
    over. It opens none itself — it reuses the session's pool, which the
    COPY that loaded the table grew under the same setting — so the number
    is how far one session's pool ramps. Off (step interval ~0) that is
    7 per worker for 8 tasks, not 8: the pool target never exceeds the
    work there is for it, and the earliest-free connection takes the last
    task itself."""
    benchmark.group = "ablation-slow-start"

    def run(interval_ms):
        citus = make_cluster(workers=2, shard_count=16)
        citus.coordinator_ext.config.executor_slow_start_interval_ms = interval_ms
        s = citus.coordinator_session()
        s.execute("CREATE TABLE t (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('t', 'k')")
        s.copy_rows("t", [[i] for i in range(32)])
        s.stats.clear()
        s.execute("SELECT count(*) FROM t")
        return citus.coordinator_ext.executor.last_report

    def both():
        return run(10.0), run(0.0001)

    with_slow_start, without = benchmark.pedantic(both, rounds=1, iterations=1)
    lines = [
        "== Ablation: adaptive executor slow start ==",
        "",
        f"  slow start ON  (10ms step): {with_slow_start.connections_used} connections"
        f" for {with_slow_start.task_count} tasks",
        f"  slow start OFF (~0ms step): {without.connections_used} connections"
        f" for {without.task_count} tasks",
        "",
        "Connections the SELECT ran over, all reused from the session's pool",
        "(the COPY that loaded the table opened them under the same setting).",
        "Without slow start the pool ramps to nearly a connection per task",
        "(one short per worker: the earliest-free connection takes the last",
        "task itself) and every one of them pays establishment; with it,",
        "sub-10ms tasks share a few connections per worker (§3.6.1).",
    ]
    write_report("ablation_slowstart", "\n".join(lines))
    assert with_slow_start.connections_used < without.connections_used


def bench_ablation_join_strategy_crossover(benchmark):
    """Broadcast vs. repartition: the planner must flip to repartition once
    the moved table is large enough that size × nodes > size."""
    benchmark.group = "ablation-joins"

    def run():
        from repro.citus.planner.join_order import plan_join_order
        from repro.citus.sharding import analyze_statement

        citus = make_cluster(workers=4, shard_count=8)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE big (k int PRIMARY KEY, r int)")
        s.execute("SELECT create_distributed_table('big', 'k')")
        s.execute("CREATE TABLE dim (d int PRIMARY KEY, note text)")
        s.execute("SELECT create_distributed_table('dim', 'd', colocate_with := 'none')")
        s.copy_rows("big", [[i, i % 20] for i in range(400)])
        ext = citus.coordinator_ext
        sql = "SELECT count(*) FROM big JOIN dim ON big.r = dim.d"
        stmt = parse_one(sql)
        choices = {}
        for dim_rows, label in ((10, "small dim"), (3000, "large dim")):
            s.execute("TRUNCATE TABLE dim")
            s.copy_rows("dim", [[i, "x" * 50] for i in range(dim_rows)])
            analysis = analyze_statement(stmt, ext.metadata.cache, None,
                                         ext.instance.catalog)
            plan = plan_join_order(ext, s, stmt, None, analysis)
            choices[label] = (plan.strategy, plan.moved.name,
                              int(plan.estimated_network_bytes))
            result = s.execute(sql)
            assert result.rows
        return choices

    choices = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["== Ablation: broadcast vs repartition join selection ==", ""]
    for label, (strategy, moved, cost) in choices.items():
        lines.append(f"  {label:<10} -> {strategy:<12} (moves {moved},"
                     f" est. network bytes {cost:,})")
    lines.append("")
    lines.append("The join-order planner picks the strategy minimizing network")
    lines.append("traffic (§3.5): broadcast while the moved table is small,")
    lines.append("repartition (or moving the other side) once it grows.")
    write_report("ablation_joins", "\n".join(lines))
    assert choices["small dim"][0] == "broadcast"
    assert choices["large dim"] != choices["small dim"]


def bench_ablation_deadlock_vs_wound_wait(benchmark):
    """§3.7.3: wound-wait restarts a fraction of all conflicting
    transactions; detection only aborts actual deadlock participants.
    Measure conflict frequency in a hot-row workload and compare the
    implied abort counts."""
    benchmark.group = "ablation-deadlock"

    def run():
        from repro.errors import LockTimeout

        citus = make_cluster(workers=2, shard_count=8)
        sessions = [citus.coordinator_session(f"c{i}") for i in range(4)]
        setup = sessions[0]
        setup.execute("CREATE TABLE hot (k int PRIMARY KEY, v int)")
        setup.execute("SELECT create_distributed_table('hot', 'k')")
        setup.copy_rows("hot", [[i, 0] for i in range(4)])
        conflicts = 0
        operations = 120
        import random

        rng = random.Random(5)
        for i in range(operations):
            a, b = rng.sample(sessions, 2)
            key = rng.randrange(4)
            a.execute("BEGIN")
            a.execute("UPDATE hot SET v = v + 1 WHERE k = $1", [key])
            try:
                b.execute("UPDATE hot SET v = v + 1 WHERE k = $1", [key])
                conflicts += 1  # wound-wait would restart one of the two
            except LockTimeout:
                conflicts += 1
            a.execute("COMMIT")
        deadlocks = citus.coordinator_ext.stat_counters.value("deadlock_victims")
        return operations, conflicts, deadlocks

    operations, conflicts, deadlocks = benchmark.pedantic(run, rounds=1, iterations=1)
    wound_wait_aborts = conflicts  # wound-wait kills on every conflict
    detection_aborts = deadlocks  # detection kills only real cycles
    lines = [
        "== Ablation: deadlock detection vs wound-wait ==",
        "",
        f"  operations:                     {operations}",
        f"  lock conflicts observed:        {conflicts}",
        f"  wound-wait implied aborts:      {wound_wait_aborts}"
        " (every conflict wounds a txn)",
        f"  detection aborts (real cycles): {detection_aborts}",
        "",
        "PostgreSQL's interactive protocol cannot silently retry wounded",
        "transactions, so Citus uses detection: only genuine cycles abort",
        "(§3.7.3).",
    ]
    write_report("ablation_deadlock", "\n".join(lines))
    assert detection_aborts <= wound_wait_aborts
