"""Plan-quality regression gate: per-query chosen tier + cost ratio.

Plans the workload query suites (YCSB, TPC-C, TPC-H, gharchive) through
``citus_plan_alternatives()`` — the candidate-plan pipeline — and records,
per query fingerprint, which cascade tier the planner chose, its estimated
cost, and the cost ratio against the best alternative it considered. The
records are diffed against a checked-in baseline so a planner refactor
cannot silently demote a query down the cascade (fast_path → router →
pushdown → join_order) or pick a strictly worse join strategy.

Failure conditions against the baseline:

- the query-key sets differ (a suite query stopped planning, or the
  baseline is stale);
- a query's chosen tier moved *down* the cascade (rank in
  ``TIER_RANK``), or changed at all for non-cascade tiers;
- chosen cost grew by more than 25%;
- cost ratio (chosen / best considered) grew by more than 0.05 — the
  planner started leaving a better candidate on the table.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan_quality.py
        [--quick] [--out results.json]
        [--baseline benchmarks/results/bench_plan_quality_baseline.json]
        [--update-baseline] [--self-test]

``--self-test`` proves the gate has teeth: it disables the fast-path tier
via ``citus.planner_disabled_tiers``, re-plans every suite, and exits 0
only if the gate *fails* on the forced tier downgrades.

The data sizes are fixed and deterministic (seeded generators), so the
join-order network-byte estimates — and therefore the recorded costs —
are reproducible across runs; ``--quick`` is accepted for CI-command
symmetry with the other benchmarks and changes nothing.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import make_cluster  # noqa: E402
from repro.citus.planner.pipeline import TIER_RANK  # noqa: E402
from repro.workloads import gharchive, tpcc, tpch, ycsb  # noqa: E402

from common import finish, gate_parser  # noqa: E402

#: Chosen cost may grow by at most this factor before the gate fails.
COST_TOLERANCE = 1.25
#: Cost ratio (chosen / best considered) may grow by at most this much.
RATIO_TOLERANCE = 0.05

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(__file__), "results", "bench_plan_quality_baseline.json"
)


# -------------------------------------------------------------- suites

def _new_cluster():
    return make_cluster(workers=2, shard_count=8, max_connections=2000)


def _ycsb_suite():
    cluster = _new_cluster()
    session = cluster.coordinator_session()
    ycsb.create_schema(session)
    ycsb.load_data(session, ycsb.YcsbConfig(records=200, seed=7))
    # A second distributed table joined off its distribution column gives
    # the suite a guaranteed join-order (repartition vs broadcast) query.
    session.execute("CREATE TABLE ycsb_tags (tag_key text, ref_key text)")
    session.execute("SELECT create_distributed_table('ycsb_tags', 'tag_key')")
    rows = [[f"tag-{i:04d}", ycsb.key_name(i % 200)] for i in range(100)]
    session.copy_rows("ycsb_tags", rows, ["tag_key", "ref_key"])
    key = ycsb.key_name(17)
    queries = {
        "point_read": f"SELECT * FROM usertable WHERE ycsb_key = '{key}'",
        "point_update": (
            f"UPDATE usertable SET field0 = 'updated' WHERE ycsb_key = '{key}'"
        ),
        "scan_count": "SELECT count(*) FROM usertable",
        "tag_join": (
            "SELECT count(*) FROM usertable u"
            " JOIN ycsb_tags t ON u.ycsb_key = t.ref_key"
        ),
    }
    return cluster, session, queries


def _tpcc_suite():
    cluster = _new_cluster()
    session = cluster.coordinator_session()
    tpcc.create_schema(session)
    tpcc.load_data(session, tpcc.TpccConfig(warehouses=2, items=20))
    queries = {
        "item_price": "SELECT i_price FROM items WHERE i_id = 5",
        "warehouse_read": "SELECT * FROM warehouse WHERE w_id = 1",
        "order_join": (
            "SELECT count(*) FROM orders o"
            " JOIN order_line l ON o.o_w_id = l.ol_w_id WHERE o.o_w_id = 1"
        ),
        # A text constant reads as the int key: still one router task.
        "order_join_text_key": (
            "SELECT count(*) FROM orders o, order_line l"
            " WHERE o.o_w_id = '1' AND l.ol_w_id = 1"
        ),
        "customer_rollup": (
            "SELECT c_w_id, count(*) FROM customer GROUP BY c_w_id"
        ),
        # An inner level grouping on the key by position runs per shard.
        "customer_rollup_by_position": (
            "SELECT count(*) FROM (SELECT c_w_id, count(*) FROM customer"
            " GROUP BY 1) s"
        ),
    }
    return cluster, session, queries


def _tpch_suite():
    cluster = _new_cluster()
    session = cluster.coordinator_session()
    tpch.create_schema(session)
    tpch.load_data(session, tpch.TpchConfig())
    queries = {name: sql for name, sql in sorted(tpch.QUERIES.items())}
    # Inner levels that cannot run per shard run once, as subplans; run
    # per shard, the first three would return wrong answers.
    queries.update({
        "subplan_inner_distinct":
            "SELECT count(*) FROM (SELECT DISTINCT l_suppkey FROM lineitem) s",
        "subplan_inner_limit": (
            "SELECT count(*) FROM (SELECT l_quantity FROM lineitem"
            " ORDER BY l_quantity LIMIT 5) s"),
        "subplan_in_under_reference": (
            "SELECT count(*) FROM supplier"
            " WHERE s_suppkey IN (SELECT l_suppkey FROM lineitem)"),
        "subplan_cte": (
            "WITH r AS (SELECT l_suppkey, sum(l_quantity) AS q FROM lineitem"
            " GROUP BY l_suppkey) SELECT count(*) FROM r"
            " WHERE q > (SELECT avg(q) FROM r)"),
    })
    return cluster, session, queries


def _gharchive_suite():
    cluster = _new_cluster()
    session = cluster.coordinator_session()
    gharchive.create_schema(session)
    gharchive.load_events(session, gharchive.ArchiveConfig(events=100))
    queries = {
        "dashboard": gharchive.DASHBOARD_QUERY,
        "rollup_transform": gharchive.TRANSFORM_QUERY,
        "event_count": "SELECT count(*) FROM github_events",
    }
    return cluster, session, queries


SUITES = (
    ("ycsb", _ycsb_suite),
    ("tpcc", _tpcc_suite),
    ("tpch", _tpch_suite),
    ("gharchive", _gharchive_suite),
)


# ------------------------------------------------------------ planning

def _plan_record(session, sql: str) -> dict:
    search = json.loads(session.execute(
        "SELECT citus_plan_alternatives($1)", [sql]).scalar())
    if search.get("error"):
        return {"tier": "unsupported", "error": search["error"]}
    chosen = next(c for c in search["candidates"] if c["status"] == "chosen")
    return {
        "tier": search["chosen_tier"],
        "detail": chosen["detail"],
        "cost": search["chosen_cost"],
        "cost_ratio": search["cost_ratio"],
        "task_count": chosen["attrs"].get("tasks"),
        "candidates": len(search["candidates"]),
    }


def build_suites():
    return [(name, *fn()) for name, fn in SUITES]


def collect(built) -> dict:
    records = {}
    for name, _cluster, session, queries in built:
        for qname, sql in queries.items():
            records[f"{name}.{qname}"] = _plan_record(session, sql)
    return records


# ---------------------------------------------------------------- gate

def compare(baseline: dict, current: dict) -> list[str]:
    failures = []
    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    if missing:
        failures.append(f"queries missing from this run: {', '.join(missing)}")
    if added:
        failures.append(
            f"queries not in the baseline (run --update-baseline):"
            f" {', '.join(added)}"
        )
    for key in sorted(set(baseline) & set(current)):
        base, cur = baseline[key], current[key]
        if cur["tier"] != base["tier"]:
            ranks = TIER_RANK.get(base["tier"]), TIER_RANK.get(cur["tier"])
            moved = ("downgraded" if None not in ranks and ranks[1] > ranks[0]
                     else "changed")
            failures.append(f"{key}: tier {moved} {base['tier']} -> {cur['tier']}")
            continue
        base_cost, cur_cost = base.get("cost"), cur.get("cost")
        if base_cost and cur_cost and cur_cost > base_cost * COST_TOLERANCE:
            failures.append(
                f"{key}: cost {cur_cost:.0f} exceeds baseline"
                f" {base_cost:.0f} by more than {COST_TOLERANCE:.0%}"
            )
        base_ratio, cur_ratio = base.get("cost_ratio"), cur.get("cost_ratio")
        if base_ratio is not None and cur_ratio is not None \
                and cur_ratio > base_ratio + RATIO_TOLERANCE:
            failures.append(
                f"{key}: cost ratio {cur_ratio:.3f} regressed past baseline"
                f" {base_ratio:.3f} + {RATIO_TOLERANCE}"
            )
    return failures


def _self_test(built, baseline: dict) -> list[str]:
    """Force a tier downgrade and verify the gate catches it."""
    for _name, cluster, _session, _queries in built:
        cluster.coordinator_ext.config.planner_disabled_tiers = "fast_path"
    downgraded = collect(built)
    failures = compare(baseline, downgraded)
    downgrades = [f for f in failures if "downgraded" in f]
    for _name, cluster, _session, _queries in built:
        cluster.coordinator_ext.config.planner_disabled_tiers = ""
    if not downgrades:
        return ["self-test: disabling fast_path produced no tier-downgrade"
                " failure — the gate is toothless"]
    print(f"self-test: gate caught {len(downgrades)} forced downgrade(s), e.g.")
    print(f"  {downgrades[0]}")
    return []


def main(argv=None) -> int:
    parser = gate_parser(__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON to gate against")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate fails when fast_path is"
                        " force-disabled")
    args = parser.parse_args(argv)

    built = build_suites()
    records = collect(built)
    for key, r in sorted(records.items()):
        cost = f" cost={r['cost']:>10.0f}" if "cost" in r else ""
        ratio = (f"  ratio={r['cost_ratio']:.3f}"
                 if r.get("cost_ratio") is not None else "")
        print(f"{key:>28}: {r['tier']:<12}{cost}{ratio}")

    if args.update_baseline:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        with open(args.baseline, "w") as f:
            json.dump(records, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote baseline {args.baseline}")
        return finish(args, {"records": records, "failures": []}, [])

    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = compare(baseline, records)
    if not failures:
        print(f"{len(records)} query plans match the baseline")
        if args.self_test:
            failures = _self_test(built, baseline)
    return finish(args, {"records": records, "failures": failures}, failures)


if __name__ == "__main__":
    raise SystemExit(main())
