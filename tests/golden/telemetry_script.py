"""Generator for ``telemetry.json``: one seeded script over a (2 workers,
8 shards) cluster, then a dump of every telemetry UDF.

Run it in a fresh interpreter with a fixed hash seed (global id counters,
the compile cache and ``hash(name)``-seeded generators start the same way
every time)::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden/telemetry_script.py \
        > tests/golden/telemetry.json

The three bulky surfaces (trace export, raw ASH samples, the plan-search
ring) are written as a sha256 of the whole plus their newest entries in
full; ``--full`` writes everything, for diffing two trees by hand.

``tests/test_telemetry_golden.py`` runs it the same way and compares the
output with the checked-in file, which was captured from the commit before
the telemetry spine (a9fecdc). It uses public surfaces only, so the same
file runs on both trees.

The window is 5 ms and the ASH interval 2 ms, so the ~300 statements cross
dozens of bucket and sample boundaries; think time between statements moves
the clock outside any statement too, so boundaries are first seen at a
statement's start as well as at its end.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.errors import ReproError

SEED = 20210620
ACCOUNTS = 160
#: The slow-query log is switched on this many statements before the end.
SLOW_LOG_TAIL = 100
STATEMENTS = 300
#: What the bulky surfaces keep in full without ``--full``.
TRACES_KEPT = 48
ASH_SAMPLES_SECONDS = 0.03
PLAN_SEARCHES_KEPT = 8


def udf(session, call: str):
    return session.execute(f"SELECT {call}").scalar()


def trace_multiset(export_json: str) -> list:
    """``citus_trace_export`` as a sorted multiset of (name, cat, lane
    name, ts, dur, args) — span identity without tree position."""
    events = json.loads(export_json)["traceEvents"]
    lanes = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    spans = [
        [e["name"], e["cat"], lanes[e["tid"]], e["ts"], e["dur"],
         json.dumps(e["args"], sort_keys=True)]
        for e in events if e["ph"] == "X"
    ]
    spans.sort(key=lambda s: json.dumps(s))
    return spans


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def dump(session, full: bool) -> dict:
    """Every telemetry surface, in one fixed order (reading one surface
    is itself a statement the later ones see)."""
    out = {}
    out["counters"] = udf(session, "citus_stat_counters()")
    out["statements"] = udf(session, "citus_stat_statements()")
    out["tenants"] = udf(session, "citus_stat_tenants()")
    out["txn_graph"] = udf(session, "citus_stat_txn_graph()")
    out["txn_graph_vertices"] = udf(session, "citus_stat_txn_graph('vertices')")
    out["txn_graph_json"] = udf(session, "citus_stat_txn_graph('json')")
    out["windows"] = udf(session, "citus_stat_windows()")
    samples = udf(session, "citus_ash('samples')")
    out["ash_samples_sha256"] = digest(samples)
    out["ash_samples"] = samples if full else udf(
        session, f"citus_ash('samples', {samples[-1][0] - ASH_SAMPLES_SECONDS!r})")
    for mode in ("top_waits", "top_queries", "top_tenants", "timeline",
                 "flamegraph"):
        out[f"ash_{mode}"] = udf(session, f"citus_ash('{mode}')")
    out["metrics"] = [
        line for line in udf(session, "citus_metrics_snapshot()").splitlines()
        if "citus_telemetry_ring_" not in line
    ]
    out["slow_queries"] = udf(session, "citus_slow_queries()")
    searches = json.loads(udf(session, "citus_plan_alternatives()"))
    out["plan_alternatives_sha256"] = digest(searches)
    out["plan_alternatives"] = searches if full else searches[-PLAN_SEARCHES_KEPT:]
    trace = trace_multiset(udf(session, "citus_trace_export()"))
    out["trace_sha256"] = digest(trace)
    out["trace"] = trace if full else trace_multiset(
        udf(session, f"citus_trace_export({TRACES_KEPT})"))
    return out


def run(full: bool = False) -> dict:
    rng = random.Random(SEED)
    config = CitusConfig(stat_window_seconds=0.005, ash_sampling_interval=0.002)
    citus = make_cluster(workers=2, shard_count=8, config=config)
    clock = citus.cluster.clock
    s = citus.coordinator_session("golden")
    other = citus.coordinator_session("golden_2")

    s.execute("CREATE TABLE accounts (k int PRIMARY KEY, v int, note text)")
    s.execute("SELECT create_distributed_table('accounts', 'k')")
    s.execute("CREATE TABLE entries (k int, seq int, amount int)")
    s.execute("SELECT create_distributed_table('entries', 'k',"
              " colocate_with := 'accounts')")
    s.execute("CREATE TABLE by_amount (amount int, n int)")
    s.execute("SELECT create_distributed_table('by_amount', 'amount')")
    s.execute("CREATE TABLE kinds (kind int PRIMARY KEY, label text)")
    s.execute("SELECT create_reference_table('kinds')")
    s.execute("INSERT INTO kinds VALUES (0, 'even'), (1, 'odd')")
    s.copy_rows("accounts", [[i, i * 10, f"n{i}"] for i in range(ACCOUNTS)])

    # Keys on two different workers, for the cross-node transfer.
    cache = citus.coordinator_ext.metadata.cache
    dist = cache.get_table("accounts")
    by_node: dict[str, list[int]] = {}
    for key in range(ACCOUNTS):
        node = cache.placement_node(
            dist.shards[dist.shard_index_for_value(key)].shardid)
        by_node.setdefault(node, []).append(key)
    left, right = (by_node[n] for n in sorted(by_node))

    checkpoints = []
    errors = []

    def attempt(session, sql, params=None):
        try:
            session.execute(sql, params)
        except ReproError as exc:
            errors.append(type(exc).__name__)

    def fast_path_read():
        s.execute("SELECT v, note FROM accounts WHERE k = $1",
                  [rng.randrange(ACCOUNTS)])

    def fast_path_write():
        s.execute("UPDATE accounts SET v = v + $1 WHERE k = $2",
                  [rng.randrange(5), rng.randrange(ACCOUNTS)])

    def literal_read():
        s.execute(f"SELECT v FROM accounts WHERE k = {rng.randrange(ACCOUNTS)}")

    def router_block():
        k = rng.randrange(ACCOUNTS)
        s.execute("BEGIN")
        s.execute("INSERT INTO entries (k, seq, amount) VALUES ($1, $2, $3)",
                  [k, rng.randrange(1000), rng.randrange(50)])
        s.execute("SELECT a.v, count(*) FROM accounts a JOIN entries e"
                  " ON a.k = e.k WHERE a.k = $1 GROUP BY a.v", [k])
        s.execute("UPDATE accounts SET v = v - 1 WHERE k = $1", [k])
        s.execute("COMMIT")

    def transfer_2pc():
        a, b = rng.choice(left), rng.choice(right)
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v - 7 WHERE k = $1", [a])
        s.execute("UPDATE accounts SET v = v + 7 WHERE k = $1", [b])
        s.execute("COMMIT")

    def multi_shard_limit():
        s.execute("SELECT k, v FROM accounts ORDER BY v DESC, k LIMIT 5")

    def multi_shard_agg():
        s.execute("SELECT count(*), sum(v) FROM accounts WHERE v > $1",
                  [rng.randrange(800)])

    def reference_join():
        s.execute("SELECT kinds.label, count(*) FROM accounts JOIN kinds"
                  " ON accounts.k % 2 = kinds.kind GROUP BY kinds.label")

    def copy_in():
        base = rng.randrange(1000)
        s.copy_rows("entries",
                    [[rng.randrange(ACCOUNTS), base + i, i] for i in range(40)])

    def repartition_insert_select():
        s.execute("DELETE FROM by_amount")
        s.execute("INSERT INTO by_amount (amount, n)"
                  " SELECT amount, count(*) FROM entries GROUP BY amount")

    def multi_shard_update():
        s.execute("UPDATE accounts SET note = 'bulk' WHERE v % 7 = $1",
                  [rng.randrange(7)])

    def failing_statement():
        attempt(s, "INSERT INTO accounts (k, v, note) VALUES ($1, 0, 'dup')",
                [rng.randrange(ACCOUNTS)])

    def failing_block():
        k = rng.randrange(ACCOUNTS)
        other.execute("BEGIN")
        other.execute("UPDATE accounts SET v = v + 1 WHERE k = $1", [k])
        attempt(other, "INSERT INTO accounts (k, v, note) VALUES ($1, 0, 'dup')",
                [k])
        other.execute("ROLLBACK")

    def rollback_block():
        other.execute("BEGIN")
        other.execute("UPDATE accounts SET v = 0 WHERE k = $1",
                      [rng.randrange(ACCOUNTS)])
        other.execute("ROLLBACK")

    def explain_analyze():
        s.execute("EXPLAIN ANALYZE SELECT count(*) FROM accounts")

    def lock_conflict():
        # A synchronous caller does not park: the blocked worker statement
        # is cancelled and the statement fails with a lock timeout.
        k = rng.randrange(ACCOUNTS)
        other.execute("BEGIN")
        other.execute("UPDATE accounts SET v = v + 2 WHERE k = $1", [k])
        attempt(s, "UPDATE accounts SET v = v + 3 WHERE k = $1", [k])
        other.execute("ROLLBACK")

    def fresh_session_scan():
        # No cached connections: the slow-start ramp opens them here.
        fresh = citus.coordinator_session("golden_fresh")
        fresh.execute("SELECT count(*) FROM entries")
        fresh.close()

    shapes = [
        (fast_path_read, 30), (fast_path_write, 22), (literal_read, 6),
        (router_block, 8), (transfer_2pc, 6), (multi_shard_limit, 5),
        (multi_shard_agg, 5), (reference_join, 2), (copy_in, 3),
        (repartition_insert_select, 2), (multi_shard_update, 3),
        (failing_statement, 3), (failing_block, 2), (rollback_block, 2),
        (explain_analyze, 1), (lock_conflict, 2), (fresh_session_scan, 2),
    ]
    population = [fn for fn, weight in shapes for _ in range(weight)]

    # Everything above was set-up; the measured script starts clean.
    s.execute("SELECT citus_stat_reset()")
    issued = 0
    maintenance_at = STATEMENTS // 2
    slow_log_at = STATEMENTS - SLOW_LOG_TAIL
    checkpoint_every = 60
    next_checkpoint = checkpoint_every
    maintained = slow_logged = False
    while issued < STATEMENTS:
        clock.advance(rng.choice((0.0, 0.0004, 0.0011, 0.0031)))
        shape = rng.choice(population)
        shape()
        issued += {router_block: 5, transfer_2pc: 4, failing_block: 4,
                   rollback_block: 3, repartition_insert_select: 2,
                   lock_conflict: 4}.get(shape, 1)
        if not maintained and issued >= maintenance_at:
            # One transfer whose second phase is skipped, so the
            # maintenance cycle has a prepared transaction to recover.
            maintained = True
            citus.coordinator_ext.failpoints["skip_commit_prepared"] = True
            transfer_2pc()
            citus.coordinator_ext.failpoints["skip_commit_prepared"] = False
            citus.run_maintenance()
        if not slow_logged and issued >= slow_log_at:
            slow_logged = True
            s.execute("SELECT citus_set_config('log_min_duration', 0)")
        if issued >= next_checkpoint:
            next_checkpoint += checkpoint_every
            checkpoints.append({
                "at": issued,
                "windows": udf(s, "citus_stat_windows()"),
                "ash_samples": len(udf(s, "citus_ash()")),
            })

    return {
        "statements_issued": issued,
        "errors": errors,
        "sim_seconds": clock.now(),
        "checkpoints": checkpoints,
        "final": dump(s, full),
    }


if __name__ == "__main__":
    json.dump(run(full="--full" in sys.argv[1:]), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
