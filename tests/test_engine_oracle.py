"""Differential slice: a single engine instance is the oracle.

The same data and queries run on a plain ``repro.engine`` instance and on
clusters of three shard layouts — Citus 0+1 (``0x4``: every task runs in
the coordinating backend itself), one worker and four; every planner tier
that accepts a query must return what the single node returns — equal row
multisets, and equal sequences where the query orders its result.
(ROADMAP item 4a's first
slice: the ledger's ``analytics_scan`` shapes, ``write_mix``'s
repartitioning INSERT..SELECT rollup, and the TPC-H and gharchive suites
``bench_plan_quality`` plans; then the OLTP statement suite of
``traffic_mix`` — YCSB reads and updates, TPC-C PAYMENT / ORDER STATUS /
STOCK LEVEL — compared statement by statement and by final table contents.)
"""

import datetime
import json
import random
from types import SimpleNamespace

import pytest

from repro import make_cluster
from repro.citus.observability import explain
from repro.citus.planner.subplan import SubplanPlan
from repro.errors import ReproError, UnsupportedDistributedQuery
from repro.sql import parse
from repro.workloads import gharchive, tpcc, tpch, ycsb
from repro.workloads.traffic import mixes

from .oracle import load, normalized, oracle_session

LAYOUTS = {"0x4": (0, 4), "1x4": (1, 4), "4x16": (4, 16)}

# (sql, params, column positions the ORDER BY makes a total order over —
# None when the query does not order, so only the multiset is compared).
ANALYTICS = {
    "group_agg": ("SELECT tenant, count(*), sum(v), avg(v) FROM events"
                  " GROUP BY tenant ORDER BY tenant", None, (0,)),
    "order_limit": ("SELECT k, v FROM events ORDER BY v, k LIMIT 10", None, (1, 0)),
    "full_order": ("SELECT k, v FROM events ORDER BY v", None, (1,)),
    "ref_join": ("SELECT t.plan, count(*), sum(e.v) FROM events e"
                 " JOIN tenants t ON e.tenant = t.id"
                 " GROUP BY t.plan ORDER BY t.plan", None, (0,)),
    "filter_scan": ("SELECT k, tenant FROM events WHERE v = :f", {"f": 7}, None),
    "rollup_check": ("SELECT tenant, bucket, n, total FROM rollup", None, None),
    # ORDER BY <output alias>: the coordinator sorts on the output column,
    # no worker is asked to evaluate the alias as an expression.
    "alias_order": ("SELECT k, v AS w FROM events ORDER BY w, k", None, (1, 0)),
    "alias_order_desc_limit": ("SELECT k, v * 2 AS dbl FROM events"
                               " ORDER BY dbl DESC, k LIMIT 10", None, (1, 0)),
    # ... and after a *, where only the workers know the alias's position.
    "alias_after_star": ("SELECT *, 100 - v AS z FROM events ORDER BY z, k",
                         None, ()),
    "alias_after_star_desc_limit": ("SELECT *, 100 - v AS z FROM events"
                                    " ORDER BY z DESC, k LIMIT 10", None, ()),
    # DISTINCT on the coordinator: true is not the number 1.
    "distinct_bool_vs_int": ("SELECT DISTINCT CASE WHEN k < 20 THEN b ELSE n END"
                             " FROM flags", None, None),
    "contradiction_count": ("SELECT count(*) FROM events WHERE k = 1 AND k = 2",
                            None, None),
    "contradiction_rows": ("SELECT k, v FROM events WHERE k = 1 AND k = 2",
                           None, None),
    # An aggregate inside CASE (target or HAVING) aggregates at its level.
    "case_over_count": ("SELECT CASE WHEN count(*) > 1000 THEN 'many' ELSE 'few' END"
                        " FROM events", None, None),
    "case_over_sum_by_tenant": ("SELECT tenant, CASE WHEN sum(v) > 1200 THEN 1 ELSE 0 END"
                                " FROM events GROUP BY tenant ORDER BY tenant",
                                None, (0,)),
    "case_arms_aggregate": ("SELECT tenant, CASE WHEN tenant < 20 THEN sum(v)"
                            " ELSE count(*) END FROM events GROUP BY tenant"
                            " ORDER BY tenant", None, (0,)),
    "having_case": ("SELECT tenant, count(*) FROM events GROUP BY tenant HAVING"
                    " CASE WHEN sum(v) > 1200 THEN true ELSE false END ORDER BY tenant",
                    None, (0,)),
    # An aggregate called as a window partitioned by the key aggregates
    # nothing at the query level: every partition lives on one shard.
    "window_sum_by_key": ("SELECT sum(v) OVER (PARTITION BY k) FROM events"
                          " ORDER BY 1 LIMIT 5", None, (0,)),
    "window_max_by_key": ("SELECT tenant, max(v) OVER (PARTITION BY k) FROM events"
                          " ORDER BY 1, 2 LIMIT 5", None, (0, 1)),
    # An inner level grouping on the key, by position or output alias, or
    # windowing by it, runs whole on every shard.
    "inner_group_by_position": ("SELECT count(*) FROM (SELECT k, count(*) FROM events"
                                " GROUP BY 1) s", None, None),
    "inner_group_by_alias": ("SELECT count(*) FROM (SELECT k AS key, count(*)"
                             " FROM events GROUP BY key) s", None, None),
    "inner_window_by_key": ("SELECT count(*) FROM (SELECT k, sum(v) OVER"
                            " (PARTITION BY k) AS w FROM events) s", None, None),
    "cast_output_name": ("SELECT tenant::text, count(*) FROM events GROUP BY tenant"
                         " ORDER BY 1", None, (0,)),
}
#: Queries whose filter no row can satisfy: an empty result is the point.
EMPTY = {"contradiction_rows"}
TPCH = {name: (sql, None, () if "ORDER BY" in sql else None)
        for name, sql in sorted(tpch.QUERIES.items())}
GHARCHIVE = {
    "dashboard": (gharchive.DASHBOARD_QUERY, None, (0,)),
    "event_count": ("SELECT count(*) FROM github_events", None, None),
    "rollup_transform_check": (
        "SELECT event_id, created_at, message FROM commits", None, None),
}
#: Inner levels that cannot run per shard: each runs once, as a subplan.
#: Run per shard, the first three counted 200 / 20 / 160 on 1x4 (611 / 80
#: / 640 on 4x16) against 50 / 5 / 40; the last two were refused.
RUN_ONCE = {
    "subplan_inner_distinct": (
        "SELECT count(*) FROM (SELECT DISTINCT v FROM events) s", None, None),
    "subplan_inner_limit": (
        "SELECT count(*) FROM (SELECT v FROM events ORDER BY v LIMIT 5) s",
        None, None),
    "subplan_in_under_reference": (
        "SELECT count(*) FROM tenants WHERE id IN (SELECT tenant FROM events)",
        None, None),
    "subplan_inner_count": (
        "SELECT count(*) FROM (SELECT count(*) AS c FROM events) s", None, None),
    "subplan_cte": (
        "WITH r AS (SELECT tenant, sum(v) AS t FROM events GROUP BY tenant)"
        " SELECT tenant, t FROM r WHERE t > (SELECT avg(t) FROM r)"
        " ORDER BY t DESC, tenant", None, (1, 0)),
    # The intermediate's columns are c1, c2, read back as the level names
    # them: landed under its output names, they collided.
    "subplan_repeated_output_name": (
        "SELECT * FROM (SELECT count(*), count(*) FROM events) s", None, None),
    # A column mixing ints and floats was landed as the type of its first
    # value: 0.5 read back as 0, and the sum was 1,999.
    "subplan_mixed_numbers": (
        "SELECT sum(x) FROM (SELECT CASE WHEN k = 1000 THEN 0.5 ELSE 1 END"
        " AS x FROM events ORDER BY k LIMIT 2000) s", None, None),
    # A CTE below the top level was never inlined: the first raised "no
    # shard index for distributed table 'events'", the second was refused
    # as a join of local and distributed tables.
    "cte_in_from_subquery": (
        "SELECT count(*) FROM (WITH r AS (SELECT k, v FROM events)"
        " SELECT k FROM r) s", None, None),
    "cte_in_scalar_subquery": (
        "SELECT count(*) FROM events WHERE v > (WITH r AS (SELECT v FROM"
        " events) SELECT avg(v) FROM r)", None, None),
}
#: Set operations in an inner level, run on every shard: each arm over its
#: rows. The aliased arms were refused as a non-co-located join.
SET_OPS = {
    "inner_union_all": (
        "SELECT count(*) FROM (SELECT v FROM events UNION ALL"
        " SELECT v FROM events) s", None, None),
    "inner_union_all_aliased": (
        "SELECT count(*) FROM (SELECT v FROM events a UNION ALL"
        " SELECT v FROM events b) s", None, None),
    "inner_union_on_key": (
        "SELECT count(*) FROM (SELECT k FROM events UNION"
        " SELECT k FROM events) s", None, None),
    "inner_union_all_mixed_columns": (
        "SELECT count(*) FROM (SELECT k, v FROM events UNION ALL"
        " SELECT v, k FROM events) s", None, None),
    "join_on_union_all_of_keys": (
        "SELECT count(*) FROM events e JOIN (SELECT k FROM events UNION ALL"
        " SELECT k FROM events WHERE v < 10) s ON e.k = s.k", None, None),
}
#: Top-level set operations the router declines: each arm runs once, and
#: the set operation, with its ORDER BY and LIMIT, over their results.
SET_OPS_RUN_ONCE = {
    "union_order_limit": (
        "SELECT v FROM events UNION SELECT tenant FROM events"
        " ORDER BY v DESC LIMIT 5", None, (0,)),
    "union_all_order_limit": (
        "SELECT k, v FROM events WHERE k < 30 UNION ALL SELECT k, v FROM events"
        " WHERE k > 1990 ORDER BY v, k LIMIT 7", None, (1, 0)),
    "intersect_order_limit": (
        "SELECT v FROM events INTERSECT SELECT tenant FROM events"
        " ORDER BY 1 LIMIT 4", None, (0,)),
    "except_order_limit": (
        "SELECT v FROM events EXCEPT SELECT tenant FROM events"
        " ORDER BY v DESC LIMIT 4", None, (0,)),
    # The first arm's DISTINCT is its own: 50 values, then 2,000 rows.
    "distinct_arm_union_all": (
        "SELECT count(*) FROM (SELECT DISTINCT v FROM events UNION ALL"
        " SELECT v FROM events) s", None, None),
    "union_all_mixed_numbers": (
        "SELECT sum(x) FROM (SELECT CASE WHEN k = 1000 THEN 0.5 ELSE 1 END"
        " AS x FROM events UNION ALL SELECT 2.5) s", None, None),
    # A set operation's first arm reads a table whole: its int column
    # does not type the level's column, which also holds 2.5.
    "union_all_star_mixed_numbers": (
        "SELECT sum(v) FROM (SELECT * FROM events UNION ALL SELECT 1000 AS k,"
        " 0 AS tenant, 2.5 AS v, 'x' AS label) s", None, None),
    # The second arm is read as SELECT * over its level, whose four output
    # names are one: expanded by name, its row read as four 'x'.
    "union_all_star_repeated_names": (
        "SELECT * FROM events UNION ALL SELECT 0, 0, 2.5, 'x' ORDER BY 1",
        None, (0,)),
    # INTERSECT binds tighter: read left to right, both returned no rows.
    "union_then_intersect": (
        "SELECT v FROM events WHERE v < 2 UNION SELECT v FROM events"
        " WHERE v = 3 INTERSECT SELECT v FROM events WHERE v = 4", None, None),
    "except_then_intersect": (
        "SELECT v FROM events WHERE v < 3 EXCEPT SELECT v FROM events"
        " WHERE v = 1 INTERSECT SELECT v FROM events WHERE v = 2", None, None),
}
QUERIES = {**ANALYTICS, **TPCH, **GHARCHIVE, **RUN_ONCE, **SET_OPS,
           **SET_OPS_RUN_ONCE}
#: Statements a cluster answers as the single node does or refuses. Each
#: was answered wrong on 1x4: 22 / 2,497 against 80 / 3,960. Two levels
#: reading ``events`` under one alias shared its columns' keys and looked
#: co-located; a join paired rows through an output that is one arm's
#: distribution column and not the other's.
REFUSED_OR_RIGHT = {
    "same_table_two_levels":
        "SELECT count(*) FROM events WHERE v IN (SELECT v FROM events WHERE k < 3)",
    "same_table_two_levels_aliased":
        "SELECT count(*) FROM events e WHERE v IN"
        " (SELECT v FROM events f WHERE k < 3)",
    "join_on_mixed_union_output":
        "SELECT count(*) FROM events e JOIN (SELECT k FROM events UNION ALL"
        " SELECT v FROM events) s ON e.k = s.k",
}
#: Set operations that were refused ("set operations ... require a single
#: shard") and must now be answered: each arm runs once. Before they were
#: refused, they were answered wrong on 1x4: a UNION deduplicated per shard
#: (200 rows against 50), an arm reading a reference table ran on every
#: shard (2,160 against 2,040), the router ran both arms on the first arm's
#: shard.
ANSWERED = {
    "inner_union": "SELECT count(*) FROM (SELECT v FROM events UNION"
                   " SELECT v FROM events) s",
    "inner_union_all_with_reference":
        "SELECT count(*) FROM (SELECT v FROM events UNION ALL"
        " SELECT id FROM tenants) s",
    "union_all_one_arm_routed":
        "SELECT k FROM events WHERE k = 5 UNION ALL SELECT k FROM events",
}


@pytest.fixture(scope="module")
def oracle():
    session = oracle_session()
    load(session, distributed=False)
    return session


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def cluster_session(request):
    workers, shards = LAYOUTS[request.param]
    session = make_cluster(workers=workers, shard_count=shards).coordinator_session()
    load(session, distributed=True)
    return session


#: Tiers whose plan is a bound shape, which the plan cache keeps.
REUSABLE = {"fast_path", "router", "pushdown"}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_cluster_agrees_with_single_node(oracle, cluster_session, name):
    """The plan cache is one more input: each query runs with its shape
    planned, bound from the cache, and planned afresh after a metadata
    change, and every run must return what the single node returns."""
    sql, params, order_columns = QUERIES[name]
    answer = oracle.execute(sql, params)
    expected, expected_columns = normalized(answer.rows), answer.columns
    assert (len(expected) == 0) == (name in EMPTY), \
        f"{name}: an unexpectedly empty result makes the comparison vacuous"
    ext = cluster_session.instance.extensions["citus"]
    hits_and_misses = []
    for cached in (False, True, False):
        if not cached:
            ext.metadata.bump_generation()
        with ext.stat_counters.measure() as m:
            result = cluster_session.execute(sql, params)
        assert result.columns == expected_columns, cached
        got = normalized(result.rows)
        hits_and_misses.append(
            (m.value("plan_cache_hits"), m.value("plan_cache_misses")))
        assert sorted(got, key=repr) == sorted(expected, key=repr), cached
        if order_columns == ():
            assert got == expected  # the suite's ORDER BYs leave no ties here
        elif order_columns:
            def keys(rows):
                return [[row[c] for c in order_columns] for row in rows]
            assert keys(got) == keys(expected)
    if explain(cluster_session, sql, params).tier in REUSABLE:
        assert hits_and_misses == [(0, 1), (1, 0), (0, 1)]
    else:  # planned every time (the statements it runs inside may hit)
        assert all(misses >= 1 for _hits, misses in hits_and_misses)


@pytest.mark.parametrize("cluster_session", ["1x4"], indirect=True)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_query_as_a_level_run_once_agrees_with_single_node(
        oracle, cluster_session, name):
    """``OFFSET 0`` makes a query an inner level that cannot run per shard:
    it runs once, its rows land as an intermediate, and the statement
    reading it must return the rows and names the single node returns."""
    sql, params, _order_columns = QUERIES[name]
    wrapped = f"SELECT * FROM ({sql} OFFSET 0) wrapped"
    answer = oracle.execute(wrapped, params)
    result = cluster_session.execute(wrapped, params)
    assert result.columns == answer.columns
    assert sorted(normalized(result.rows), key=repr) == sorted(
        normalized(answer.rows), key=repr)


@pytest.mark.parametrize("name", sorted({**REFUSED_OR_RIGHT, **ANSWERED}))
def test_refused_or_agrees_with_single_node(oracle, cluster_session, name):
    """Only a statement of REFUSED_OR_RIGHT may be refused instead."""
    sql = REFUSED_OR_RIGHT.get(name) or ANSWERED[name]
    expected = normalized(oracle.execute(sql).rows)
    try:
        got = normalized(cluster_session.execute(sql).rows)
    except UnsupportedDistributedQuery:
        assert name in REFUSED_OR_RIGHT
        return
    assert sorted(got, key=repr) == sorted(expected, key=repr)


def test_every_shard_pruned_agrees_with_single_node(oracle, cluster_session):
    """Two IN-lists on the distribution column whose shards do not meet
    prune a multi-shard SELECT to zero tasks; the merge over no streams
    must still return what a single node returns."""
    disjoint = next(
        f"k IN (1) AND k IN ({other})" for other in range(2, 100)
        if "Task Count: 0" in cluster_session.execute(
            "SELECT citus_explain('SELECT k FROM events"
            f" WHERE k IN (1) AND k IN ({other})')").scalar())
    for select in ("count(*), count(v), sum(v), min(v)", "k, v", "*",
                   "k AS id, *"):
        sql = f"SELECT {select} FROM events WHERE {disjoint}"
        expected, got = oracle.execute(sql), cluster_session.execute(sql)
        assert got.rows == expected.rows
        assert got.columns == expected.columns


# ------------------------------------------------------- join-order tier

# (sql, strategy, moved table, whether ORDER BY makes the result a
# sequence). ``flags`` is the small side: joined to ``events.k`` it is
# hashed to the anchor's shards, joined to a column that distributes
# neither table it is broadcast. Some of its join keys are NULL: an inner
# join drops those rows, an outer join that preserves ``flags`` keeps each
# exactly once — moving a NULL key is not a COPY error.
JOIN_ORDER = {
    "repartition": ("SELECT f.k, e.v FROM flags f JOIN events e ON f.n = e.k",
                    "repartition", "flags", False),
    "repartition_order_limit": (
        "SELECT f.k, e.v FROM flags f JOIN events e ON f.n = e.k"
        " ORDER BY f.k DESC LIMIT 7", "repartition", "flags", True),
    "repartition_left_null_keys": (
        "SELECT f.k, e.v FROM flags f LEFT JOIN events e ON f.n = e.k",
        "repartition", "flags", False),
    "repartition_right_null_keys": (
        "SELECT f.k, e.v FROM events e RIGHT JOIN flags f ON f.n = e.k",
        "repartition", "flags", False),
    "repartition_full_null_keys": (
        "SELECT f.k, e.k FROM flags f FULL JOIN events e ON f.n = e.k",
        "repartition", "flags", False),
    "broadcast": ("SELECT f.k, count(*), sum(e.k) FROM flags f"
                  " JOIN events e ON f.n = e.v GROUP BY f.k", "broadcast",
                  "flags", False),
    "broadcast_order_limit": (
        "SELECT f.k, count(*) FROM flags f JOIN events e ON f.n = e.v"
        " GROUP BY f.k ORDER BY f.k LIMIT 5", "broadcast", "flags", True),
    # A broadcast copy sits beside every anchor shard, so only the anchor
    # side can be preserved ...
    "broadcast_left_null_keys": (
        "SELECT e.k, f.k FROM events e LEFT JOIN flags f ON f.n = e.v",
        "broadcast", "flags", False),
    "broadcast_right_null_keys": (
        "SELECT e.k, f.k FROM flags f RIGHT JOIN events e ON f.n = e.v",
        "broadcast", "flags", False),
    # ... and a preserved ``flags`` makes the large side the moved one.
    "broadcast_preserves_the_anchor": (
        "SELECT f.k, e.k FROM flags f LEFT JOIN events e ON f.n = e.v",
        "broadcast", "events", False),
    # Three and four distributed tables: one move per round, each the
    # cheapest of its round, in one plan (refused while the tier planned
    # exactly two tables).
    "three_tables": (
        "SELECT count(*) FROM events e JOIN flags f ON f.n = e.v"
        " JOIN rollup r ON r.bucket = e.tenant", "broadcast", "flags", False),
    "four_tables": (
        "SELECT count(*), sum(e2.v) FROM events e JOIN flags f ON f.n = e.v"
        " JOIN rollup r ON r.bucket = e.tenant JOIN events e2 ON e2.k = r.n",
        "broadcast", "flags", False),
    # The moved side's own conjunct filters its level (20 of 44 rows move) ...
    "repartition_filtered_moved_side": (
        "SELECT count(*) FROM flags f JOIN events e ON f.n = e.k WHERE f.b",
        "repartition", "flags", False),
    # ... unless an outer join makes it nullable: applied before the join,
    # ``f.b IS NULL`` would keep every row (2,000, not 1,920).
    "broadcast_nullable_side_keeps_its_filter": (
        "SELECT count(*) FROM events e LEFT JOIN flags f ON f.n = e.v"
        " WHERE f.b IS NULL", "broadcast", "flags", False),
    # A conjunct that puts the join column in the anchor's class (here
    # through the constant) filters the level and stays in the rest: read
    # as TRUE there, the intermediate would no longer align with ``events``.
    "repartition_joined_through_a_constant": (
        "SELECT f.k, e.v FROM flags f, events e WHERE f.n = 1 AND e.k = 1",
        "repartition", "flags", False),
    # A level that runs once and a join's move are levels of one plan.
    "run_once_level_and_join": (
        "SELECT count(*) FROM flags f JOIN events e ON f.n = e.v"
        " WHERE e.v < (SELECT avg(v) FROM events)", "subplan", None, False),
}


INTERMEDIATES = ("citus_repart_", "citus_bcast_", "citus_subplan_")


def intermediate_tables(session):
    """Every intermediate result a statement left on any node, or in the
    metadata cache."""
    ext = session.instance.extensions["citus"]
    return [(node, table) for node, instance in ext.cluster.nodes.items()
            for table in instance.catalog.tables
            if table.startswith(INTERMEDIATES)] + [
        ("metadata", table) for table in ext.metadata.cache.tables
        if table.startswith(INTERMEDIATES)]


@pytest.mark.parametrize("in_transaction", [False, True],
                         ids=["autocommit", "in_transaction"])
@pytest.mark.parametrize("name", sorted(JOIN_ORDER))
def test_join_order_tier_agrees_with_single_node(oracle, cluster_session, name,
                                                 in_transaction):
    """A non-co-located join moves one side and pushes the join down; what
    comes back is what one node joins, also when the statement runs inside
    a transaction block that has already written to the moved side — and
    the moved copy is gone from every worker afterwards."""
    sql, strategy, moved, ordered = JOIN_ORDER[name]
    explained = explain(cluster_session, sql)
    assert explained.tier == ("join_order" if moved else "subplan")
    assert explained.subplan["strategy"] == strategy
    assert explained.subplan.get("moved_table") == moved
    flip = "UPDATE flags SET n = 1 - n WHERE k = 2"
    results = []
    for session in (oracle, cluster_session):
        if in_transaction:
            session.execute("BEGIN")
            session.execute(flip)
        try:
            results.append(normalized(session.execute(sql).rows))
        finally:
            if in_transaction:
                session.execute("COMMIT")
                session.execute(flip)
    expected, got = results
    assert expected
    if "null_keys" in name:  # the outer join kept unmatched rows
        assert any(None in row for row in expected)
    if ordered:
        assert got == expected
    else:
        assert sorted(got, key=repr) == sorted(expected, key=repr)
    assert intermediate_tables(cluster_session) == []


def test_a_moved_side_moves_the_rows_and_columns_the_rest_reads(cluster_session):
    """A moved table's level reads the columns the rest of the statement
    reads and applies its own WHERE conjuncts, unless an outer join makes
    it nullable; one that links a column to another stays in the rest."""
    ext = cluster_session.instance.extensions["citus"]
    moved_rows = {}
    for name in ("repartition_filtered_moved_side",
                 "broadcast_nullable_side_keeps_its_filter"):
        with ext.stat_counters.measure() as m:
            cluster_session.execute(JOIN_ORDER[name][0])
        moved_rows[name] = m.value("repartition_rows_moved")
    assert moved_rows == {"repartition_filtered_moved_side": 20,
                          "broadcast_nullable_side_keeps_its_filter": 44}
    assert explain(cluster_session, JOIN_ORDER[
        "broadcast_nullable_side_keeps_its_filter"][0]).subplan["queries"] == [
        "SELECT f.b, f.n FROM flags AS f"]
    # ``f.n = 1`` links the join column to ``e.k``: it filters the level and
    # the rest keeps it, so the intermediate aligns and nothing else moves.
    assert explain(cluster_session, JOIN_ORDER[
        "repartition_joined_through_a_constant"][0]).subplan["queries"] == [
        "SELECT f.k, f.n FROM flags AS f WHERE f.n = 1"]


def test_a_run_once_level_and_a_join_move_are_levels_of_one_plan(
        cluster_session):
    """The rest of a statement that ran a level once is a non-co-located
    join: its move joins the levels, where a join-order plan used to nest
    inside the run-once plan."""
    sql = JOIN_ORDER["run_once_level_and_join"][0]
    plan = cluster_session.instance.hooks.call_planner(
        cluster_session, parse(sql)[0], None)
    assert type(plan) is SubplanPlan
    assert not isinstance(plan.plan, SubplanPlan)
    assert plan.queries == ["SELECT avg(v) FROM events",
                            "SELECT f.n FROM flags AS f"]
    assert [move["moved_table"] for move in plan.explain_info()[
        "subplan"]["moves"]] == ["flags"]


#: A subquery over the distributed table in ORDER BY: each worker would
#: count its own shard, and the merge would group and order on that count.
ORDER_BY_SUBQUERY = {
    "group_order": "SELECT tenant, sum(v) FROM events GROUP BY tenant"
                   " ORDER BY (SELECT count(*) FROM events), tenant",
    "order_limit": "SELECT k FROM events ORDER BY (SELECT count(*) FROM events)"
                   " DESC, k LIMIT 5",
}


@pytest.mark.parametrize("name", sorted(ORDER_BY_SUBQUERY))
def test_a_cross_shard_subquery_in_order_by_never_runs_per_shard(
        oracle, cluster_session, name):
    """It runs once, as a subplan: the single node's answer, in order."""
    sql = ORDER_BY_SUBQUERY[name]
    assert explain(cluster_session, sql).tier == "subplan"
    assert normalized(cluster_session.execute(sql).rows) == normalized(
        oracle.execute(sql).rows)


# ------------------------------------------------------------- subplans

def test_a_subplan_leaves_no_intermediate_even_when_the_statement_fails(
        cluster_session):
    """The count lands as an intermediate; the level reading it divides by
    zero. Either way nothing is left in the metadata or on any node."""
    cluster_session.execute(RUN_ONCE["subplan_inner_count"][0])
    assert intermediate_tables(cluster_session) == []
    with pytest.raises(ReproError, match="division by zero"):
        cluster_session.execute(
            "SELECT 1 / (c - c) FROM (SELECT count(*) AS c FROM events) s")
    assert intermediate_tables(cluster_session) == []


def test_a_subplan_sees_its_transaction_blocks_writes_and_fresh_rows(
        oracle, cluster_session):
    """Inside BEGIN a subplan reads the block's own INSERT; run again after
    a write, it reads the new rows (no result is kept between runs)."""
    sql = RUN_ONCE["subplan_inner_distinct"][0]
    insert = "INSERT INTO events VALUES (9001, 3, 777, 'new')"
    before = cluster_session.execute(sql).scalar()
    assert before == oracle.execute(sql).scalar()
    cluster_session.execute("BEGIN")
    try:
        cluster_session.execute(insert)
        assert cluster_session.execute(sql).scalar() == before + 1
    finally:
        cluster_session.execute("ROLLBACK")
    assert cluster_session.execute(sql).scalar() == before
    try:
        cluster_session.execute(insert)
        assert cluster_session.execute(sql).scalar() == before + 1
    finally:
        cluster_session.execute("DELETE FROM events WHERE k = 9001")
    assert cluster_session.execute(sql).scalar() == before
    assert intermediate_tables(cluster_session) == []


def test_a_set_operation_leaves_no_intermediate_even_when_it_fails(
        cluster_session):
    """The first arm lands; the second divides by zero on the shards, or
    the LIMIT of the set operation over both does on the coordinator."""
    cluster_session.execute(SET_OPS_RUN_ONCE["union_order_limit"][0])
    assert intermediate_tables(cluster_session) == []
    for sql in ("SELECT v FROM events UNION SELECT 1 / (v - v) FROM events",
                "SELECT v FROM events UNION ALL SELECT tenant FROM events"
                " LIMIT 1 / 0"):
        with pytest.raises(ReproError, match="division by zero"):
            cluster_session.execute(sql)
        assert intermediate_tables(cluster_session) == []


def test_insert_select_over_a_union_agrees_with_single_node(oracle,
                                                           cluster_session):
    """The UNION runs as subplans; its rows are routed into the
    destination like any pulled INSERT..SELECT."""
    create = "CREATE TABLE union_sink (v int)"
    insert = ("INSERT INTO union_sink SELECT v FROM events UNION"
              " SELECT tenant + 100 FROM events")
    results = []
    for session in (oracle, cluster_session):
        session.execute(create)
        try:
            if session is cluster_session:
                session.execute("SELECT create_distributed_table('union_sink', 'v')")
            session.execute(insert)
            results.append(sorted(session.execute("SELECT v FROM union_sink").rows))
        finally:
            session.execute("DROP TABLE union_sink")
    expected, got = results
    assert len(expected) == 90
    assert got == expected
    assert intermediate_tables(cluster_session) == []


def test_explain_lists_each_subplan(cluster_session):
    sql = ("SELECT count(*) FROM (SELECT DISTINCT v FROM events) s"
           " WHERE v > (SELECT avg(v) FROM events)")
    explained = explain(cluster_session, sql)
    assert explained.subplan == {"strategy": "subplan", "queries": [
        "SELECT DISTINCT v FROM events", "SELECT avg(v) FROM events"]}
    text = cluster_session.execute("SELECT citus_explain($1)", [sql]).scalar()
    assert "Subplan: strategy=subplan" in text
    assert "SELECT DISTINCT v FROM events" in text


def test_one_subplan_holds_every_level_that_runs_once(oracle, cluster_session):
    """Read whole, an outer join's unmatched side leaves the level around
    it reading no shard, so its IN subquery runs once too: both are levels
    of one subplan, where one used to nest inside the other. An outer join
    inside a level that runs once reads nothing whole of its own (TPC-H
    Q13 keeps one subplan)."""
    sql = ("SELECT count(*) FROM tenants t LEFT JOIN events e"
           " ON e.tenant = t.id WHERE t.id IN (SELECT f.k FROM flags f)")
    assert explain(cluster_session, sql).subplan["queries"] == [
        "SELECT * FROM events", "SELECT f.k FROM flags AS f"]
    assert cluster_session.execute(sql).rows == oracle.execute(sql).rows
    assert len(explain(cluster_session, TPCH["Q13"][0]).subplan["queries"]) == 1
    assert intermediate_tables(cluster_session) == []


def test_a_full_join_that_could_only_broadcast_is_refused(cluster_session):
    """Both sides preserved and neither joined on its distribution column:
    every strategy left would broadcast a preserved side."""
    sql = "SELECT f.k, e.k FROM flags f FULL JOIN events e ON f.n = e.v"
    with pytest.raises(UnsupportedDistributedQuery, match="preserves both"):
        cluster_session.execute(sql)
    search = json.loads(cluster_session.execute(
        "SELECT citus_plan_alternatives($1)", [sql]).scalar())
    assert [c["rejection"]["code"] for c in search["candidates"]
            if c["tier"] == "join_order"] == ["outer_join_broadcast"]


# ------------------------------------------- a level's names, found statically

#: Levels with a ``*`` whose names were learned by running them with LIMIT
#: 0 over the coordinator's shell tables: where a level read an
#: intermediate, which exists there only in the metadata, each of the first
#: four raised CatalogError on every layout (the first in its second round
#: of subplans, the rest with every shard pruned). Read by its alias, the
#: ``*`` subquery of the fifth named no column, so its join planned
#: ``Join Order (broadcast)``. A ``*`` counted as holding the distribution
#: column, so the sixth deduplicated per shard (160 rows on 1x4, 640 on
#: 4x16, not 40); the last was refused ("SELECT * with cross-shard
#: aggregation is not supported"). (sql, tier)
STAR_LEVELS = {
    "star_over_a_subplan_in_a_second_round": (
        "SELECT count(*) FROM tenants t LEFT JOIN events e ON e.tenant = t.id"
        " WHERE t.id IN (SELECT * FROM (SELECT f.k FROM flags f JOIN events x"
        " ON x.k = f.k) s)", "subplan"),
    "star_over_a_broadcast_pruned": (
        "SELECT * FROM events e JOIN rollup r ON r.tenant = e.v"
        " WHERE e.k IN (1) AND e.k IN (2)", "join_order"),
    "star_over_a_broadcast_flags_pruned": (
        "SELECT * FROM events e JOIN flags f ON f.n = e.v"
        " WHERE e.k IN (1) AND e.k IN (2)", "join_order"),
    "star_over_a_subplan_pruned": (
        "SELECT * FROM events e JOIN (SELECT max(v) m FROM events) s"
        " ON s.m = e.v WHERE e.k IN (1) AND e.k IN (2)", "subplan"),
    "star_subquery_keeps_its_alignment": (
        "SELECT count(*) FROM (SELECT * FROM events) s JOIN flags f"
        " ON f.k = s.k", "pushdown"),
    "distinct_star_of_a_reference_side": (
        "SELECT count(*) FROM (SELECT DISTINCT t.* FROM events e"
        " JOIN tenants t ON e.tenant = t.id) s", "subplan"),
    "star_in_a_merged_aggregate": (
        "SELECT t.*, count(*) FROM events e JOIN tenants t ON e.tenant = t.id"
        " GROUP BY t.id, t.plan", "pushdown"),
    # Joined e, f, t (the WHERE connects f to e first), a ``*`` still reads
    # e, t, f, the order the planner names and the second reads ``plan`` in.
    "star_over_comma_items_joined_out_of_order": (
        "SELECT * FROM events e, tenants t, flags f"
        " WHERE f.k = e.k AND t.id = f.n", "pushdown"),
    "star_over_comma_items_joined_out_of_order_as_a_level": (
        "SELECT s.plan, s.b FROM (SELECT * FROM events e, tenants t, flags f"
        " WHERE f.k = e.k AND t.id = f.n ORDER BY e.k LIMIT 5) s", "subplan"),
}
#: The FROM shapes a ``*`` reads, beside those of QUERIES and STAR_LEVELS:
#: comma items joined out of FROM order (one of them a join), ``alias.*``
#: in another order, outer joins, USING, functions, CTEs and nested levels.
STAR_SHAPES = [
    "SELECT f.*, t.*, e.* FROM events e, tenants t, flags f"
    " WHERE f.k = e.k AND t.id = f.n",
    "SELECT * FROM tenants t, flags f, events e"
    " WHERE e.tenant = t.id AND f.k = e.k",
    "SELECT * FROM flags f, tenants t2, events e JOIN tenants t"
    " ON t.id = e.tenant WHERE e.k = f.k AND t2.id = e.v",
    "SELECT * FROM tenants t RIGHT JOIN events e ON t.id = e.tenant",
    "SELECT * FROM events e LEFT JOIN flags f USING (k)",
    "SELECT * FROM generate_series(1, 3) g, events e WHERE e.k = g",
    "SELECT * FROM generate_series(1, 3) AS g(x) JOIN events e ON e.k = g.x",
    "WITH w AS (SELECT k, v FROM events) SELECT * FROM flags f, w"
    " WHERE f.k = w.k",
    "WITH w (a, b) AS (SELECT k, v FROM events) SELECT * FROM w",
    "SELECT * FROM (SELECT * FROM (SELECT t.*, e.k FROM events e, tenants t"
    " WHERE t.id = e.tenant) s1) s2",
    "SELECT s.*, tenants.* FROM (SELECT count(*), max(v) FROM events) s,"
    " tenants",
]


@pytest.mark.parametrize("in_block", [False, True],
                         ids=["autocommit", "in_block"])
@pytest.mark.parametrize("name", sorted(STAR_LEVELS))
def test_a_star_level_is_named_without_running_it(oracle, cluster_session,
                                                  name, in_block):
    """Rows and column names as one node has them, in autocommit and in a
    block; no intermediate is left."""
    sql, tier = STAR_LEVELS[name]
    assert explain(cluster_session, sql).tier == tier
    results = []
    for session in (oracle, cluster_session):
        if in_block:
            session.execute("BEGIN")
        try:
            result = session.execute(sql)
            results.append((result.columns, sorted(normalized(result.rows),
                                                   key=repr)))
        finally:
            if in_block:
                session.execute("COMMIT")
    assert results[1] == results[0]
    assert intermediate_tables(cluster_session) == []


def test_level_names_are_what_a_single_node_names(oracle):
    """The planner's names of a level's columns, found from the statement
    and the tables' columns alone, are the single node's result columns:
    every statement of QUERIES, STAR_LEVELS and STAR_SHAPES, each wrapped
    as a level, and TPC-H."""
    from repro.engine.executor import level_names
    from repro.sql import parse

    catalog = oracle.instance.catalog
    statements = [(sql, params) for sql, params, _order in QUERIES.values()]
    statements += [(sql, None) for sql, _tier in STAR_LEVELS.values()]
    statements += [(sql, None) for sql in STAR_SHAPES]
    statements += [(f"SELECT * FROM ({sql} OFFSET 0) wrapped", params)
                   for sql, params in statements]
    statements += [(sql, None) for sql in tpch.QUERIES.values()]
    for sql, params in statements:
        names = level_names(parse(sql)[0],
                            lambda table: catalog.get_table(table).column_names())
        assert names == oracle.execute(sql, params).columns, sql


#: INSERT..SELECTs whose ``*`` feeds ``z``, the column ``d`` is distributed
#: by (co-located with ``events``): (d's columns, statement, planner, the
#: ``z`` whose rows are counted). The first feeds it ``tenant``, not ``k``:
#: run per co-located shard pair, the rows landed on ``k``'s shard (``z =
#: 7`` counted 1 on 1x4 and 0 on 4x16, not 3). The second feeds it ``f.k``,
#: seventh in FROM order, which is ``e.k``'s shard, though the join reads f
#: before t.
STAR_INSERTS = {
    "star_feeds_another_column": (
        "a int, z int, c int, dd text, e int",
        "INSERT INTO d (a, z, c, dd, e) SELECT *, k FROM events WHERE k <= 100",
        "Insert..Select (repartition)", 7),
    "star_over_comma_items_joined_out_of_order": (
        "a int, tn int, v int, lb text, id int, pl text, z int, b bool, n int",
        "INSERT INTO d (a, tn, v, lb, id, pl, z, b, n) SELECT * FROM events e,"
        " tenants t, flags f WHERE f.k = e.k AND t.id = f.n",
        "Insert..Select (co-located)", 7),
}


@pytest.mark.parametrize("name", sorted(STAR_INSERTS))
def test_a_star_feeding_the_distribution_column_lands_on_its_shard(
        oracle, cluster_session, name):
    """The rows with one ``z`` are all on ``z``'s shard: a statement routed
    there counts what one node counts."""
    columns, sql, planner, z = STAR_INSERTS[name]
    counts = []
    for session in (oracle, cluster_session):
        session.execute(f"CREATE TABLE d ({columns})")
        try:
            if session is cluster_session:
                session.execute("SELECT create_distributed_table('d', 'z',"
                                " colocate_with := 'events')")
                assert explain(session, sql).planner == planner
            session.execute(sql)
            counts.append(session.execute(
                f"SELECT count(*) FROM d WHERE z = {z}").scalar())
        finally:
            session.execute("DROP TABLE d")
    assert counts[1] == counts[0] > 0


# --------------------------------------------- one run-once step per statement

#: Statements whose parts that cannot run per shard — an inner level, the
#: distributed side of an outer join that preserves a side reading none, a
#: local table — run once, as the levels of one subplan. Each was refused
#: ("joining local tables with distributed tables is not supported") or
#: raised CatalogError (an intermediate landed where it was never read) on
#: 1x4 and 4x16.
RUN_ONCE_SELECTS = {
    "outer_join_beside_inner_level":
        "SELECT t.id, count(e.k) FROM tenants t LEFT JOIN events e"
        " ON e.tenant = t.id WHERE t.id IN (SELECT tenant FROM events"
        " ORDER BY k LIMIT 5) GROUP BY t.id",
    "join_local": "SELECT e.k, l.x FROM events e JOIN loc l ON e.tenant = l.x",
    "in_local": "SELECT count(*) FROM events WHERE tenant IN (SELECT x FROM loc)",
    "left_join_preserving_local":
        "SELECT l.x, count(e.k) FROM loc l LEFT JOIN events e"
        " ON e.tenant = l.x AND e.v > (SELECT avg(v) FROM events)"
        " GROUP BY l.x",
}
#: UPDATE and DELETE whose subqueries run once (or, over a reference
#: table, per shard). Each of the first eight was refused ("subqueries in
#: multi-shard UPDATE/DELETE are not supported", or "cannot plan Update on
#: distributed tables"). 40 rows tie at v = 49, so the LIMIT orders on k
#: too.
RUN_ONCE_WRITES = {
    "update_in_inner_level":
        "UPDATE events SET v = v + 1 WHERE tenant IN"
        " (SELECT tenant FROM events WHERE k < 50)",
    "update_in_reference":
        "UPDATE events SET v = v + 1 WHERE tenant IN"
        " (SELECT id FROM tenants WHERE plan = 'plan1')",
    "delete_over_average":
        "DELETE FROM events WHERE v > (SELECT avg(v) FROM events)",
    "update_in_limit":
        "UPDATE events SET v = 0 WHERE k IN"
        " (SELECT k FROM events ORDER BY v DESC, k LIMIT 7)",
    "delete_in_local": "DELETE FROM events WHERE tenant IN (SELECT x FROM loc)",
    "update_set_subquery":
        "UPDATE events SET v = (SELECT max(k) FROM events) WHERE k < 100",
    # Read per shard, the count was 249 on 2x8, not 2,000.
    "update_returning_subquery":
        "UPDATE events SET v = 5 WHERE k < 3"
        " RETURNING (SELECT count(*) FROM events)",
    # Landed on the coordinator only, the replicas raised CatalogError.
    "update_reference_in_inner_level":
        "UPDATE tenants SET plan = 'hot' WHERE id IN"
        " (SELECT tenant FROM events WHERE k < 20)",
    # The router sent each of these to the shard of k = 5 alone: the
    # subquery in SET or RETURNING read that shard's rows only (v = 1,937
    # and a count of 122 on 4x16, not 2,000), and the UPDATE of the
    # reference table wrote only the replica beside that shard (the
    # coordinator's read no 'hot' row).
    "update_set_subquery_routed":
        "UPDATE events SET v = (SELECT max(k) FROM events) WHERE k = 5",
    "update_returning_subquery_routed":
        "UPDATE events SET v = 1 WHERE k = 5"
        " RETURNING (SELECT count(*) FROM events)",
    "update_reference_routed":
        "UPDATE tenants SET plan = 'hot' WHERE id IN"
        " (SELECT tenant FROM events WHERE k = 5)",
}
#: UPDATE and DELETE whose subqueries read co-located shards joined on the
#: distribution column: each runs per shard, a level of the write. The
#: first ran its subquery once and landed 1,560 rows beside every shard;
#: the second was refused as a correlated level that must run once.
PER_SHARD_WRITES = {
    "delete_in_same_key":
        "DELETE FROM events WHERE k IN (SELECT k FROM events WHERE v > 10)",
    "delete_exists_same_key":
        "DELETE FROM events e WHERE EXISTS (SELECT 1 FROM events x"
        " WHERE x.k = e.k AND x.v > 10)",
}


def load_run_once(session, distributed: bool) -> None:
    """``events`` and ``tenants`` as :func:`oracle.load` makes them, and a
    plain table ``loc`` of 1, 2, 3."""
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int,"
                    " v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    session.execute("CREATE TABLE loc (x int)")
    if distributed:
        session.execute("SELECT create_distributed_table('events', 'k')")
        session.execute("SELECT create_reference_table('tenants')")
    fill_run_once(session)
    session.execute("INSERT INTO loc VALUES (1), (2), (3)")


def fill_run_once(session) -> None:
    session.copy_rows("events", [[k, (k * 31) % 40, (k * 7) % 50, f"label-{k % 97}"]
                                 for k in range(1, 2001)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(40)])


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def run_once_pair(request):
    """The oracle and a cluster of one layout, each holding ``events``,
    ``tenants`` and ``loc`` (:func:`load_run_once`)."""
    workers, shards = LAYOUTS[request.param]
    sessions = (oracle_session(), make_cluster(
        workers=workers, shard_count=shards).coordinator_session())
    for session in sessions:
        load_run_once(session, session is sessions[1])
    return sessions


def contents(session):
    return [sorted(map(tuple, session.execute(f"SELECT * FROM {table}").rows))
            for table in ("events", "tenants", "loc")]


@pytest.mark.parametrize("in_block", [False, True],
                         ids=["autocommit", "in_block"])
@pytest.mark.parametrize("name", sorted(RUN_ONCE_SELECTS))
def test_a_statement_with_local_tables_and_inner_levels_agrees(
        run_once_pair, name, in_block):
    """Every part that runs once is a level of one subplan; in a block that
    has uncommitted ``loc`` rows, the levels read them."""
    sql = RUN_ONCE_SELECTS[name]
    oracle, cluster = run_once_pair
    assert explain(cluster, sql).tier == "subplan"
    results = []
    for session in run_once_pair:
        if in_block:
            session.execute("BEGIN")
            session.execute("INSERT INTO loc VALUES (4), (5)")
        try:
            results.append(sorted(normalized(session.execute(sql).rows), key=repr))
        finally:
            if in_block:
                session.execute("ROLLBACK")
    expected, got = results
    assert expected
    assert got == expected
    assert intermediate_tables(cluster) == []


@pytest.mark.parametrize("in_block", [False, True],
                         ids=["autocommit", "in_block"])
@pytest.mark.parametrize("name", sorted({**RUN_ONCE_WRITES, **PER_SHARD_WRITES}))
def test_an_update_or_delete_with_subqueries_agrees(run_once_pair, name,
                                                    in_block):
    """Rows, row count and every table's contents as one node has them, in
    autocommit and inside a block (checked before and after COMMIT); no
    intermediate is left, after the statement and after one that fails."""
    sql = RUN_ONCE_WRITES.get(name) or PER_SHARD_WRITES[name]
    oracle, cluster = run_once_pair
    results = []
    try:
        for session in run_once_pair:
            if in_block:
                session.execute("BEGIN")
            result = session.execute(sql)
            seen = [contents(session)]
            if in_block:
                session.execute("COMMIT")
                seen.append(contents(session))
            results.append((sorted(normalized(result.rows), key=repr),
                            result.rowcount, seen))
        expected, got = results
        assert expected[1] > 0
        assert got == expected
        assert intermediate_tables(cluster) == []
        key = "id" if sql.startswith("UPDATE tenants") else "k"
        failing = sql.replace(" WHERE ", f" WHERE 1 / ({key} - {key}) = 0 AND ", 1)
        if in_block:
            cluster.execute("BEGIN")
        with pytest.raises(ReproError, match="division by zero"):
            cluster.execute(failing)
        if in_block:
            cluster.execute("ROLLBACK")
        assert intermediate_tables(cluster) == []
    finally:
        for session in run_once_pair:
            session.execute("DELETE FROM events")
            session.execute("DELETE FROM tenants")
            fill_run_once(session)


def test_insert_select_over_a_local_join_agrees(run_once_pair):
    """The ``events`` ⋈ ``loc`` join runs as a subplan; its rows are routed
    into the destination like any pulled INSERT..SELECT."""
    insert = ("INSERT INTO local_sink SELECT e.k, l.x FROM events e"
              " JOIN loc l ON e.tenant = l.x")
    results = []
    for session in run_once_pair:
        session.execute("CREATE TABLE local_sink (k int, x int)")
        try:
            if session is run_once_pair[1]:
                session.execute("SELECT create_distributed_table('local_sink', 'x')")
            count = session.execute(insert).rowcount
            results.append((count, sorted(map(tuple, session.execute(
                "SELECT * FROM local_sink").rows))))
        finally:
            session.execute("DROP TABLE local_sink")
    expected, got = results
    assert expected[0] == 150
    assert got == expected
    assert intermediate_tables(run_once_pair[1]) == []


@pytest.mark.parametrize("name", sorted(PER_SHARD_WRITES))
def test_a_write_reads_its_co_located_subquery_per_shard(run_once_pair, name):
    """Nothing of it runs once, so no row moves; a subquery that does not
    meet the written table's shards on the distribution column still
    runs once (join order plans no write)."""
    oracle, cluster = run_once_pair
    sql = PER_SHARD_WRITES[name]
    assert explain(cluster, sql).tier == "pushdown"
    assert explain(cluster, RUN_ONCE_WRITES["update_in_inner_level"]).tier \
        == "subplan"
    ext = cluster.instance.extensions["citus"]
    cluster.execute("BEGIN")
    try:
        with ext.stat_counters.measure() as m:
            assert cluster.execute(sql).rowcount == 1560
        assert m.value("repartition_rows_moved") == 0
    finally:
        cluster.execute("ROLLBACK")


def test_a_correlated_run_once_level_is_refused(run_once_pair):
    """An aggregate over the rows of other shards runs once; one that reads
    a column of the statement around it cannot, and nothing is written or
    left."""
    oracle, cluster = run_once_pair
    before = contents(cluster)
    with pytest.raises(UnsupportedDistributedQuery, match="correlated"):
        cluster.execute("DELETE FROM events e WHERE v > (SELECT avg(v) FROM"
                        " events x WHERE x.tenant = e.tenant)")
    assert contents(cluster) == before == contents(oracle)
    assert intermediate_tables(cluster) == []


#: A level that runs once joins no class of the statement around it. The
#: router sent the first two to the shard of k = 7, where the LIMIT read
#: that shard's rows alone: on 4x16 a shard holds 125 rows, every one among
#: its first 300, so the SELECT counted 1 and the DELETE deleted a row
#: where one node, whose first 300 rows by v end before k = 7's v of 49,
#: counts and deletes none. A level filtered to the same constant itself
#: still routes. Per statement: its SQL and the tier it plans as.
ROUTED_RUN_ONCE = {
    "select_in_limit_routed": (
        "SELECT count(*) FROM events WHERE k = 7 AND k IN"
        " (SELECT k FROM events ORDER BY v, k LIMIT 300)", "subplan"),
    "delete_in_limit_routed": (
        "DELETE FROM events WHERE k = 7 AND k IN"
        " (SELECT k FROM events ORDER BY v, k LIMIT 300)", "subplan"),
    "select_in_limit_on_the_constant": (
        "SELECT count(*) FROM events WHERE k = 7 AND k IN"
        " (SELECT k FROM events WHERE k = 7 ORDER BY v LIMIT 300)", "router"),
}


@pytest.mark.parametrize("in_block", [False, True],
                         ids=["autocommit", "in_block"])
@pytest.mark.parametrize("name", sorted(ROUTED_RUN_ONCE))
def test_a_level_that_runs_once_is_not_routed_by_the_outer_constant(
        run_once_pair, name, in_block):
    """Rows, row count and every table's contents as one node has them,
    in autocommit and inside a block (before and after COMMIT)."""
    sql, tier = ROUTED_RUN_ONCE[name]
    oracle, cluster = run_once_pair
    assert explain(cluster, sql).tier == tier
    results = []
    try:
        for session in run_once_pair:
            if in_block:
                session.execute("BEGIN")
            result = session.execute(sql)
            seen = [contents(session)]
            if in_block:
                session.execute("COMMIT")
                seen.append(contents(session))
            results.append((result.rows, result.rowcount, seen))
        expected, got = results
        assert got == expected
        assert intermediate_tables(cluster) == []
    finally:
        if sql.startswith("DELETE"):
            for session in run_once_pair:
                session.execute("DELETE FROM events")
                session.execute("DELETE FROM tenants")
                fill_run_once(session)


# ------------------------------------------ outer joins on a replicated side

#: A 10-row reference table ``r`` and a 49-row distributed ``d`` whose
#: ``rid`` matches half of ``r``: an outer join that preserves ``r`` (or the
#: same ten ids from a subquery or a function) returns 54 rows on one node.
#: Pushed down it returned 69 on two workers and four shards, where every
#: shard added the five unmatched rows again; ``d`` now runs once, as a
#: subplan, and the join where it is read.
REPLICATED_PRESERVED = {
    "left": "SELECT r.id, d.k FROM r LEFT JOIN d ON r.id = d.rid",
    "right": "SELECT r.id, d.k FROM d RIGHT JOIN r ON r.id = d.rid",
    "full": "SELECT r.id, d.k FROM r FULL JOIN d ON r.id = d.rid",
    "subquery": "SELECT s.id, d.k FROM (SELECT id FROM r) s"
                " LEFT JOIN d ON s.id = d.rid",
    "function": "SELECT g.x, d.k FROM generate_series(0, 9) AS g(x)"
                " LEFT JOIN d ON g.x = d.rid",
}
#: The same joins with ``r`` on the nullable side push down as before.
REPLICATED_NULLABLE = {
    "left": "SELECT r.id, d.k FROM d LEFT JOIN r ON r.id = d.rid",
    "right": "SELECT r.id, d.k FROM r RIGHT JOIN d ON r.id = d.rid",
}


@pytest.fixture(scope="module")
def replicated_pair():
    """The oracle and a (2, 4) cluster holding ``r`` and ``d``."""
    sessions = (oracle_session(),
                make_cluster(workers=2, shard_count=4).coordinator_session())
    for session in sessions:
        session.execute("CREATE TABLE r (id int PRIMARY KEY, name text)")
        session.execute("CREATE TABLE d (k int PRIMARY KEY, rid int, v int)")
        if session is sessions[1]:
            session.execute("SELECT create_reference_table('r')")
            session.execute("SELECT create_distributed_table('d', 'k')")
        session.copy_rows("r", [[i, f"r{i}"] for i in range(10)])
        session.copy_rows("d", [[k, k % 5, k] for k in range(1, 50)])
    return sessions


@pytest.mark.parametrize("name", sorted(REPLICATED_PRESERVED))
def test_an_outer_join_preserving_a_reference_table_agrees(replicated_pair,
                                                           name):
    oracle, cluster = replicated_pair
    sql = REPLICATED_PRESERVED[name]
    expected = oracle.execute(sql).rows
    assert len(expected) == 54
    explained = explain(cluster, sql)
    assert explained.tier == "subplan"
    assert explained.subplan["queries"] == ["SELECT * FROM d"]
    assert sorted(cluster.execute(sql).rows, key=repr) == sorted(expected, key=repr)
    assert intermediate_tables(cluster) == []
    with pytest.raises(ReproError, match="division by zero"):
        cluster.execute(sql.replace("d.k", "d.k / (d.v - d.v)", 1))
    assert intermediate_tables(cluster) == []


@pytest.mark.parametrize("name", sorted(REPLICATED_NULLABLE))
def test_an_outer_join_with_a_nullable_reference_table_agrees(replicated_pair,
                                                              name):
    oracle, cluster = replicated_pair
    sql = REPLICATED_NULLABLE[name]
    assert explain(cluster, sql).tier == "pushdown"
    expected = oracle.execute(sql).rows
    assert len(expected) == 49
    assert sorted(cluster.execute(sql).rows, key=repr) == sorted(expected, key=repr)


# ------------------------------------------- jsonb and array columns landed

#: A subplan's rows land as they are, in untyped columns. Typed from
#: their values, jsonb and array values once landed as text, and on two
#: workers and four shards the first three read NULL, '[[[[[' and NULL for
#: every ``r.id``; a jsonb array of mixed elements was cast to text[].
TYPED_LEVELS = {
    "jsonb_column": "SELECT sum((doc->>'a')::int) FROM"
                    " (SELECT doc FROM d ORDER BY k LIMIT 5) s",
    "array_column": "SELECT sum(s.tags[1]) FROM"
                    " (SELECT tags FROM d ORDER BY k LIMIT 5) s",
    "outer_join_reads_d_whole": "SELECT r.id, sum((d.doc->>'a')::int)"
                                " FROM r LEFT JOIN d ON d.rid = r.id"
                                " GROUP BY r.id",
    "jsonb_array_expression": "SELECT sum(k) FROM (SELECT k, doc->'xs' AS c"
                              " FROM d ORDER BY k LIMIT 5) s"
                              " WHERE c = ('[' || k || ', \"a\"]')::jsonb",
}


@pytest.fixture(scope="module", params=["1x4", "4x16"])
def typed_pair(request):
    """The oracle and a cluster holding a reference ``r`` and a
    distributed ``d`` with an int[] and a jsonb column."""
    workers, shards = LAYOUTS[request.param]
    sessions = (oracle_session(), make_cluster(
        workers=workers, shard_count=shards).coordinator_session())
    for session in sessions:
        session.execute("CREATE TABLE r (id int PRIMARY KEY)")
        session.execute("CREATE TABLE d (k int PRIMARY KEY, rid int,"
                        " tags int[], doc jsonb)")
        if session is sessions[1]:
            session.execute("SELECT create_reference_table('r')")
            session.execute("SELECT create_distributed_table('d', 'k')")
        session.copy_rows("r", [[i] for i in range(4)])
        session.copy_rows("d", [[k, k % 3, [k, 7],
                                 {"a": k, "xs": [k, "a"]}] for k in range(12)])
    return sessions


@pytest.mark.parametrize("name", sorted(TYPED_LEVELS))
def test_a_subplan_lands_jsonb_and_array_columns_typed(typed_pair, name):
    oracle, cluster = typed_pair
    sql = TYPED_LEVELS[name]
    expected = sorted(oracle.execute(sql).rows, key=repr)
    assert [row[-1] for row in expected if row[-1] is not None] in (
        [10], [18, 22, 26])
    assert explain(cluster, sql).tier == "subplan"
    assert sorted(cluster.execute(sql).rows, key=repr) == expected


BAD_COLUMN_LISTS = {
    "insert_unknown": lambda s: s.execute(
        "INSERT INTO events (k, nope) VALUES (900001, 1)"),
    "insert_twice": lambda s: s.execute(
        "INSERT INTO events (k, k) VALUES (900001, 900002)"),
    "copy_unknown": lambda s: s.copy_rows("events", [[900001, 1]], ["k", "nope"]),
    "copy_twice": lambda s: s.copy_rows("events", [[900001, 900002]], ["k", "k"]),
    "insert_select_unknown": lambda s: s.execute(
        "INSERT INTO rollup (tenant, nope) SELECT tenant, v FROM events"),
    "insert_select_twice": lambda s: s.execute(
        "INSERT INTO rollup (tenant, tenant) SELECT tenant, v FROM events"),
}


@pytest.mark.parametrize("name", sorted(BAD_COLUMN_LISTS))
def test_a_bad_column_list_raises_what_a_single_node_raises(
        oracle, cluster_session, name):
    """The write shape validates the column list on whichever node builds
    it: same error class through every layout, and nothing written."""
    from repro.errors import CatalogError

    def counts(session):
        return [session.execute(f"SELECT count(*) FROM {table}").scalar()
                for table in ("events", "rollup")]

    for session in (oracle, cluster_session):
        before = counts(session)
        with pytest.raises(CatalogError):
            BAD_COLUMN_LISTS[name](session)
        assert counts(session) == before


# ---------------------------------------------------- OLTP statement suite

OLTP_TABLES = {"warehouse": "w_id", "district": "d_w_id, d_id",
               "customer": "c_w_id, c_d_id, c_id", "stock": "s_w_id, s_i_id",
               "orders": "o_w_id, o_d_id, o_id", "usertable": "ycsb_key"}


class RecordingClient:
    """What the traffic mixes call a client: ``execute``; keeps every
    statement's outcome so two runs can be compared statement by statement."""

    def __init__(self, session):
        self.session = session
        self.outcomes = []

    def execute(self, sql, params=None):
        result = self.session.execute(sql, params)
        self.outcomes.append((sql, result.rowcount, normalized(result.rows)))
        return result


def run_oltp_suite(session, distributed: bool):
    """200 TPC-C payments on two warehouses (a quarter of them paying a
    customer of the other one: 2PC on a cluster), with ORDER STATUS, STOCK
    LEVEL and YCSB reads and updates in between — every PAYMENT rewrites
    one of two warehouse rows and one of eight district rows, the statement
    mix whose index probes kill the entries of dead versions."""
    cfg = SimpleNamespace(tpcc_warehouses=2, cross_warehouse_fraction=0.25,
                          ycsb_keys_per_tenant=4)
    tpcc.create_schema(session, distributed=distributed)
    tpcc.load_data(session, tpcc.TpccConfig(warehouses=2, items=20, seed=5))
    session.copy_rows("orders", [
        [w, d, o, (o * 3) % tpcc.CUSTOMERS_PER_DISTRICT + 1, "2021-06-20 00:00:00", o % 5 + 1]
        for w in (1, 2) for d in range(1, tpcc.DISTRICTS_PER_WAREHOUSE + 1)
        for o in range(1, 21)])
    ycsb.create_schema(session, distributed=distributed)
    ycsb.load_data(session, ycsb.YcsbConfig(records=32, seed=5))
    client, rng = RecordingClient(session), random.Random(2021)
    ycsb_a = mixes.MIXES["ycsb_a"].transaction
    for i in range(200):
        tenant = rng.randrange(8)
        mixes._tpcc_payment(client, rng, tenant, cfg)
        if i % 4 == 0:
            mixes._tpcc_order_status(client, rng, tenant, cfg)
        if i % 10 == 0:
            mixes._tpcc_stock_level(client, rng, tenant, cfg)
        ycsb_a(client, rng, tenant, cfg)
    tables = {table: normalized(session.execute(
        f"SELECT * FROM {table} ORDER BY {key}").rows)
        for table, key in OLTP_TABLES.items()}
    return client.outcomes, tables


@pytest.fixture(scope="module")
def oltp_oracle():
    return run_oltp_suite(oracle_session(), distributed=False)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_the_oltp_statement_suite_agrees_with_single_node(oltp_oracle, layout):
    workers, shards = LAYOUTS[layout]
    session = make_cluster(workers=workers, shard_count=shards).coordinator_session()
    outcomes, tables = run_oltp_suite(session, distributed=True)
    expected_outcomes, expected_tables = oltp_oracle
    assert len(outcomes) == len(expected_outcomes) > 1200
    for got, expected in zip(outcomes, expected_outcomes):
        assert got == expected
    assert any(rows for sql, _n, rows in outcomes if "FROM orders" in sql)
    assert any(rows[0][0] for sql, _n, rows in outcomes if "FROM stock" in sql)
    for table in OLTP_TABLES:
        assert tables[table] == expected_tables[table], table
    # Not vacuous: the payments landed, and the hot rows were rewritten.
    assert sum(row[3] for row in tables["warehouse"]) == pytest.approx(
        sum(row[3] for row in tables["district"]))
    assert sum(row[3] for row in tables["warehouse"]) > 200


# ------------------------------------ the oracle's oracle: PostgreSQL's answers

#: Statements over ``t (k int PRIMARY KEY, v int)`` holding k = 1..9 (and
#: the other tables of ``small_tables``), and what PostgreSQL answers: the
#: rows, the UPDATE / DELETE count, or the error it raises. A list of
#: statements runs in a rolled-back block and answers with its last; a
#: ``copy`` tuple is ``copy_rows``' arguments. Single node and cluster must both answer it
#: (ROADMAP 3(c)).
POSTGRES = {
    # LIMIT / OFFSET: negative raises, NULL is no limit / no offset.
    "limit_negative": ("SELECT k FROM t ORDER BY k LIMIT -1", None,
                       "LIMIT must not be negative"),
    "offset_negative": ("SELECT k FROM t ORDER BY k OFFSET -2", None,
                        "OFFSET must not be negative"),
    "offset_null": ("SELECT k FROM t ORDER BY k OFFSET NULL", None,
                    [[k] for k in range(1, 10)]),
    "limit_null": ("SELECT k FROM t ORDER BY k LIMIT NULL OFFSET 7", None,
                   [[8], [9]]),
    # A text constant against an int key reads as an int, for the index
    # probe and for shard pruning alike; 3.5 is not cast.
    "text_equals_key": ("SELECT k FROM t WHERE k = '3'", None, [[3]]),
    "text_parameter": ("SELECT k FROM t WHERE k = :x", {"x": "3"}, [[3]]),
    "text_range": ("SELECT k FROM t WHERE k >= '7' ORDER BY k", None,
                   [[7], [8], [9]]),
    "text_in_list": ("SELECT k FROM t WHERE k IN ('3', 4) ORDER BY k", None,
                     [[3], [4]]),
    "text_update": ("UPDATE t SET v = 100 WHERE k = '3'", None, 1),
    "float_equals_key": ("SELECT k FROM t WHERE k = 3.5", None, []),
    # A text compared with a number is read as that number's type, by a
    # sequential scan as by an index probe; text that does not read raises.
    "text_range_on_column": ("SELECT k FROM t WHERE v >= '9' ORDER BY k", None,
                             [[k] for k in range(1, 10)]),
    "text_equals_column": ("SELECT k FROM t WHERE v = '030'", None, [[3]]),
    "text_below_column": ("SELECT k FROM t WHERE v < '100' ORDER BY k", None,
                          [[k] for k in range(1, 10)]),
    "text_not_a_number": ("SELECT k FROM t WHERE k = 'abc'", None,
                          "invalid input for type int: 'abc'"),
    # There is no text = integer operator: a numeric literal against a text
    # column raises, by scan, index probe, routing and pruning alike (``u``
    # holds '5', '05', '7'; ``tk`` is keyed and distributed on text).
    "number_equals_text_column": ("SELECT id FROM u WHERE name = 5", None,
                                  "operator does not exist: text = integer"),
    "number_first_text_column": ("SELECT id FROM u WHERE 5 = name", None,
                                 "operator does not exist: integer = text"),
    "float_equals_text_column": ("SELECT id FROM u WHERE name = 5.5", None,
                                 "operator does not exist: text = numeric"),
    "number_in_or_text_column": ("SELECT id FROM u WHERE id = 1 OR name = 5", None,
                                 "operator does not exist: text = integer"),
    "number_update_text_column": ("UPDATE u SET id = id WHERE name = 5", None,
                                  "operator does not exist: text = integer"),
    "number_equals_text_key": ("SELECT v FROM tk WHERE k = 5", None,
                               "operator does not exist: text = integer"),
    "number_in_text_key": ("SELECT v FROM tk WHERE k IN (5, 6)", None,
                           "operator does not exist: text = integer"),
    "number_above_text_key": ("SELECT v FROM tk WHERE k > 4", None,
                              "operator does not exist: text > integer"),
    "number_between_text_key": ("SELECT v FROM tk WHERE k BETWEEN 1 AND 9", None,
                                "operator does not exist: text >= integer"),
    "number_delete_text_key": ("DELETE FROM tk WHERE k = 5", None,
                               "operator does not exist: text = integer"),
    "text_equals_text_key": ("SELECT v FROM tk WHERE k = '5'", None, [[1]]),
    # An INSERT assigns: 9 into a text column is '9'.
    "number_into_text_key": (["INSERT INTO tk VALUES (9, 9)",
                              "SELECT v FROM tk WHERE k = '9'"], None, [[9]]),
    # ``r`` is range-distributed over [0, 99], [100, 199], [200, 299] with
    # rows 5, 99, 150, 250: strict bounds and text constants prune by the
    # value they read as.
    "range_strict_float_bound": ("SELECT key FROM r WHERE key > 98.5 ORDER BY key",
                                 None, [[99], [150], [250]]),
    "range_text_in_list": ("SELECT key FROM r WHERE key IN ('150', '250') ORDER BY key",
                           None, [[150], [250]]),
    "range_mixed_in_list": ("SELECT key FROM r WHERE key IN (150, '250') ORDER BY key",
                            None, [[150], [250]]),
    "range_text_delete": ("DELETE FROM r WHERE key IN ('150')", None, 1),
    "range_text_equals": ("SELECT key FROM r WHERE key = '150'", None, [[150]]),
    "range_text_bound": ("SELECT key FROM r WHERE key >= '100' ORDER BY key", None,
                         [[150], [250]]),
    "range_text_between": ("SELECT key FROM r WHERE key BETWEEN '100' AND 200",
                           None, [[150]]),
    # More values than columns is an error on every path: a distributed
    # COPY and INSERT..SELECT used to drop the extra ones.
    "copy_extra_value": (("copy", "e", [[1, 2, 3]], ["k", "v"]), None,
                         "COPY row has 3 values but 2 columns expected"),
    "insert_select_extra_value": ("INSERT INTO dst (t, b) SELECT t, v, k FROM src",
                                  None, "INSERT has 3 expressions but 2 target columns"),
    "insert_extra_value": ("INSERT INTO dst VALUES (1, 2, 3, 4)", None,
                           "INSERT has 4 expressions but 3 target columns"),
    "insert_short_row": ("INSERT INTO dst (b, t) VALUES (1)", None,
                         "INSERT has 1 expressions but 2 target columns"),
    # Without a column list, fewer values fill the first columns.
    "insert_fewer_values": (["INSERT INTO dst VALUES (1, 2)",
                             "SELECT * FROM dst WHERE t = 1"], None, [[1, 2, None]]),
    "insert_select_fewer_values": (["INSERT INTO dst SELECT t, v FROM src",
                                    "SELECT * FROM dst ORDER BY t"], None,
                                   [[k, 10 * k, None] for k in range(1, 11)]),
    # An INSERT..SELECT that aggregates inside CASE merges on the coordinator.
    "insert_select_case_over_sum": (
        ["INSERT INTO dst (t, b, n) SELECT 1, 0, CASE WHEN sum(v) > 100 THEN 1"
         " ELSE 0 END FROM src", "SELECT * FROM dst ORDER BY t"], None, [[1, 0, 1]]),
    "insert_select_case_over_count": (
        ["INSERT INTO dst (t, b, n) SELECT t % 2, 0, CASE WHEN count(*) > 3 THEN 1"
         " ELSE 0 END FROM src GROUP BY t % 2", "SELECT * FROM dst ORDER BY t"],
        None, [[0, 0, 1], [1, 0, 1]]),
    # A window partitioned by the key runs per co-located shard pair.
    "insert_select_window_on_key": (
        ["INSERT INTO e (k, v) SELECT k, sum(v) OVER (PARTITION BY k) FROM t",
         "SELECT * FROM e ORDER BY k"], None, [[k, 10 * k] for k in range(1, 10)]),
    # COALESCE evaluates only the arguments it needs.
    "coalesce_short_circuit": ("SELECT coalesce(a, 10 / b) FROM co ORDER BY b", None,
                               [[1], [5]]),
    # % and mod() take the dividend's sign, as integer / truncates.
    "modulo_sign": ("SELECT -7 % 2, 7 % -2, -7.5 % 2, mod(-7, 2), mod(7, -2)", None,
                    [[-1, 1, -1.5, -1, 1]]),
    "modulo_filter": ("SELECT k FROM t WHERE -k % 2 = -1 ORDER BY k", None,
                      [[1], [3], [5], [7], [9]]),
    "mod_by_zero": ("SELECT mod(k, 0) FROM t", None, "division by zero"),
    # A backslash in a LIKE / ILIKE pattern makes the next character literal.
    "like_escape": (r"SELECT '50%' LIKE '50\%', 'a_c' LIKE 'a\_c', 'a\b' LIKE 'a\\b',"
                    r" '50x' LIKE '50\%', 'abc' LIKE 'a\_c'", None,
                    [[True, True, True, False, False]]),
    "ilike_escape": (r"SELECT 'A_C' ILIKE 'a\_c', 'ABC' ILIKE 'a\_c', '50%' ILIKE '50\%'",
                     None, [[True, False, True]]),
    "like_escape_filter": (r"SELECT k FROM t WHERE '5%' LIKE k || '\%'", None, [[5]]),
    "like_trailing_escape": (r"SELECT 'a\' LIKE 'a\'", None,
                             "LIKE pattern must not end with escape character"),
    # ``*`` reads each column of its relation by position: a repeated or
    # unnamed output name read the last column of that name.
    "star_repeated_name": ("SELECT * FROM (SELECT 1 AS a, 2 AS a) s", None,
                           [[1, 2]]),
    "star_unnamed_columns": ("SELECT * FROM (SELECT 0, 0, 2.5, 'x') s", None,
                             [[0, 0, 2.5, "x"]]),
    # A level run once lands its rows as they are, under positions, not
    # names or guessed types: a ``*`` over a join repeated k and v (the
    # cluster raised "column 'k' specified more than once"), and a date
    # and a timestamp in one column were landed as text.
    "star_over_join_level": (
        ["INSERT INTO e VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
         "SELECT count(*) FROM (SELECT * FROM t JOIN e ON t.k = e.k"
         " ORDER BY t.k LIMIT 3) s"], None, [[3]]),
    "star_over_join_level_rows": (
        ["INSERT INTO e VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
         "SELECT * FROM (SELECT * FROM t JOIN e ON t.k = e.k"
         " ORDER BY t.k LIMIT 3) s ORDER BY 1"], None,
        [[1, 10, 1, 1], [2, 20, 2, 2], [3, 30, 3, 3]]),
    "date_or_timestamp_level": (
        "SELECT max(x) FROM (SELECT CASE WHEN k < 3 THEN d ELSE ts END AS x"
        " FROM dt ORDER BY k LIMIT 10) s", None,
        [[datetime.datetime(2020, 1, 10, 1, 0)]]),
    # A set operation over tables of two colocation groups runs each arm
    # once: planned as a join of its arms, it counted 29 and summed 520.0.
    "union_all_not_colocated_count": (
        "SELECT count(*) FROM (SELECT * FROM t UNION ALL SELECT * FROM fl) s",
        None, [[14]]),
    "union_all_not_colocated_sum": (
        "SELECT sum(v) FROM (SELECT * FROM t UNION ALL SELECT * FROM fl) s",
        None, [[467.5]]),
}


@pytest.fixture(scope="module")
def small_tables():
    """The single node and a (2, 4) cluster, each holding ``t`` (and ``r``,
    range-distributed on the cluster; ``tk``, distributed on its text
    key; ``fl``, in a colocation group of its own)."""
    targets = {"single": oracle_session(),
               "cluster": make_cluster(workers=2, shard_count=4).coordinator_session()}
    for name, session in targets.items():
        session.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
        session.execute("CREATE TABLE e (k int PRIMARY KEY, v int)")
        session.execute("CREATE TABLE src (k int, t int, v int)")
        session.execute("CREATE TABLE dst (t int, b int, n int)")
        session.execute("CREATE TABLE co (a int, b int)")
        session.execute("CREATE TABLE r (key int PRIMARY KEY, v int)")
        session.execute("CREATE TABLE u (id int PRIMARY KEY, name text)")
        session.execute("CREATE TABLE tk (k text PRIMARY KEY, v int)")
        session.execute("CREATE TABLE dt (k int PRIMARY KEY, d date, ts timestamp)")
        session.execute("CREATE TABLE fl (k int PRIMARY KEY, x float)")
        if name == "cluster":
            session.execute("SELECT create_distributed_table('t', 'k')")
            session.execute("SELECT create_distributed_table('e', 'k')")
            session.execute("SELECT create_distributed_table('src', 'k')")
            session.execute("SELECT create_distributed_table('dst', 't',"
                            " colocate_with := 'none')")
            session.execute("SELECT create_distributed_table('co', 'b')")
            session.execute("SELECT create_distributed_table('u', 'id')")
            session.execute("SELECT create_distributed_table('tk', 'k')")
            session.execute("SELECT create_distributed_table('dt', 'k')")
            session.execute("SELECT create_distributed_table('fl', 'k',"
                            " colocate_with := 'none')")
            session.execute("SELECT create_range_distributed_table('r', 'key',"
                            " ARRAY[ARRAY[0, 99], ARRAY[100, 199], ARRAY[200, 299]])")
        session.copy_rows("t", [[k, 10 * k] for k in range(1, 10)])
        session.copy_rows("src", [[k, k, 10 * k] for k in range(1, 11)])
        session.copy_rows("co", [[1, 0], [None, 2]])
        session.copy_rows("r", [[key, key] for key in (5, 99, 150, 250)])
        session.copy_rows("u", [[1, "5"], [2, "05"], [3, "7"]])
        session.copy_rows("tk", [["5", 1], ["6", 2], ["x", 3]])
        session.copy_rows("dt", [[k, f"2020-01-{k:02d}", f"2020-01-{k:02d} 01:00"]
                                 for k in range(1, 11)])
        session.copy_rows("fl", [[k, k + 0.5] for k in range(1, 6)])
    return targets


@pytest.mark.parametrize("target", ["single", "cluster"])
@pytest.mark.parametrize("name", sorted(POSTGRES))
def test_single_node_and_cluster_answer_what_postgres_answers(small_tables, target,
                                                               name):
    from repro.errors import DataError

    sql, params, answer = POSTGRES[name]
    session = small_tables[target]
    if isinstance(sql, tuple):  # ("copy", table, rows, columns)
        with pytest.raises(DataError, match=answer):
            session.copy_rows(*sql[1:])
    elif isinstance(answer, str):
        with pytest.raises(DataError, match=answer):
            session.execute(sql, params)
    elif isinstance(sql, list):
        session.execute("BEGIN")
        try:
            for statement in sql:
                result = session.execute(statement, params)
            assert result.rows == answer
        finally:
            session.execute("ROLLBACK")
    elif sql.startswith(("UPDATE", "DELETE")):
        session.execute("BEGIN")
        try:
            assert session.execute(sql, params).rowcount == answer
        finally:
            session.execute("ROLLBACK")
    else:
        assert session.execute(sql, params).rows == answer
