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

import json
import random
from types import SimpleNamespace

import pytest

from repro import make_cluster
from repro.citus.observability import explain
from repro.errors import ReproError, UnsupportedDistributedQuery
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
QUERIES = {**ANALYTICS, **TPCH, **GHARCHIVE, **RUN_ONCE, **SET_OPS}
#: Statements a cluster answers as the single node does or refuses. Each
#: was answered wrong on 1x4: 22 / 200 / 2,160 / 2,497 against 80 / 50 /
#: 2,040 / 3,960, the router ran both arms on the first arm's shard. Two
#: levels reading ``events`` under one alias shared its columns' keys and
#: looked co-located; a UNION deduplicated per shard; an arm reading a
#: reference table ran on every shard; a join paired rows through an
#: output that is one arm's distribution column and not the other's.
REFUSED_OR_RIGHT = {
    "same_table_two_levels":
        "SELECT count(*) FROM events WHERE v IN (SELECT v FROM events WHERE k < 3)",
    "same_table_two_levels_aliased":
        "SELECT count(*) FROM events e WHERE v IN"
        " (SELECT v FROM events f WHERE k < 3)",
    "inner_union": "SELECT count(*) FROM (SELECT v FROM events UNION"
                   " SELECT v FROM events) s",
    "inner_union_all_with_reference":
        "SELECT count(*) FROM (SELECT v FROM events UNION ALL"
        " SELECT id FROM tenants) s",
    "join_on_mixed_union_output":
        "SELECT count(*) FROM events e JOIN (SELECT k FROM events UNION ALL"
        " SELECT v FROM events) s ON e.k = s.k",
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


@pytest.mark.parametrize("name", sorted(REFUSED_OR_RIGHT))
def test_refused_or_agrees_with_single_node(oracle, cluster_session, name):
    sql = REFUSED_OR_RIGHT[name]
    expected = normalized(oracle.execute(sql).rows)
    try:
        got = normalized(cluster_session.execute(sql).rows)
    except UnsupportedDistributedQuery:
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
    assert explained.tier == "join_order"
    assert explained.subplan["strategy"] == strategy
    assert explained.subplan["moved_table"] == moved
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


def test_explain_lists_each_subplan(cluster_session):
    sql = ("SELECT count(*) FROM (SELECT DISTINCT v FROM events) s"
           " WHERE v > (SELECT avg(v) FROM events)")
    explained = explain(cluster_session, sql)
    assert explained.subplan == {"strategy": "subplan", "queries": [
        "SELECT DISTINCT v FROM events", "SELECT avg(v) FROM events"]}
    text = cluster_session.execute("SELECT citus_explain($1)", [sql]).scalar()
    assert "Subplan: strategy=subplan" in text
    assert "SELECT DISTINCT v FROM events" in text


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


# ------------------------------------------ outer joins on a replicated side

#: A 10-row reference table ``r`` and a 49-row distributed ``d`` whose
#: ``rid`` matches half of ``r``: an outer join that preserves ``r`` (or the
#: same ten ids from a subquery or a function) returns 54 rows on one node,
#: and returned 69 on two workers and four shards, where every shard added
#: the five unmatched rows again.
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
def test_an_outer_join_preserving_a_reference_table_is_refused(replicated_pair,
                                                               name):
    oracle, cluster = replicated_pair
    sql = REPLICATED_PRESERVED[name]
    assert len(oracle.execute(sql).rows) == 54
    with pytest.raises(UnsupportedDistributedQuery, match="unmatched rows"):
        cluster.execute(sql)
    search = json.loads(cluster.execute(
        "SELECT citus_plan_alternatives($1)", [sql]).scalar())
    assert [c["rejection"]["code"] for c in search["candidates"]
            if c["tier"] == "pushdown"] == ["replicated_outer_join"]


@pytest.mark.parametrize("name", sorted(REPLICATED_NULLABLE))
def test_an_outer_join_with_a_nullable_reference_table_agrees(replicated_pair,
                                                              name):
    oracle, cluster = replicated_pair
    sql = REPLICATED_NULLABLE[name]
    assert explain(cluster, sql).tier == "pushdown"
    expected = oracle.execute(sql).rows
    assert len(expected) == 49
    assert sorted(cluster.execute(sql).rows, key=repr) == sorted(expected, key=repr)


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
}


@pytest.fixture(scope="module")
def small_tables():
    """The single node and a (2, 4) cluster, each holding ``t`` (and ``r``,
    range-distributed on the cluster; ``tk``, distributed on its text
    key)."""
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
        if name == "cluster":
            session.execute("SELECT create_distributed_table('t', 'k')")
            session.execute("SELECT create_distributed_table('e', 'k')")
            session.execute("SELECT create_distributed_table('src', 'k')")
            session.execute("SELECT create_distributed_table('dst', 't',"
                            " colocate_with := 'none')")
            session.execute("SELECT create_distributed_table('co', 'b')")
            session.execute("SELECT create_distributed_table('u', 'id')")
            session.execute("SELECT create_distributed_table('tk', 'k')")
            session.execute("SELECT create_range_distributed_table('r', 'key',"
                            " ARRAY[ARRAY[0, 99], ARRAY[100, 199], ARRAY[200, 299]])")
        session.copy_rows("t", [[k, 10 * k] for k in range(1, 10)])
        session.copy_rows("src", [[k, k, 10 * k] for k in range(1, 11)])
        session.copy_rows("co", [[1, 0], [None, 2]])
        session.copy_rows("r", [[key, key] for key in (5, 99, 150, 250)])
        session.copy_rows("u", [[1, "5"], [2, "05"], [3, "7"]])
        session.copy_rows("tk", [["5", 1], ["6", 2], ["x", 3]])
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
