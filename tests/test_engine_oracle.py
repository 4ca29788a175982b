"""Differential slice: a single engine instance is the oracle.

The same data and queries run on a plain ``repro.engine`` instance and on
clusters of two shard layouts; every planner tier that accepts a query
must return what the single node returns — equal row multisets, and equal
sequences where the query orders its result. (ROADMAP item 4a's first
slice: the ledger's ``analytics_scan`` shapes, ``write_mix``'s
repartitioning INSERT..SELECT rollup, and the TPC-H and gharchive suites
``bench_plan_quality`` plans; then the OLTP statement suite of
``traffic_mix`` — YCSB reads and updates, TPC-C PAYMENT / ORDER STATUS /
STOCK LEVEL — compared statement by statement and by final table contents.)
"""

import random
from types import SimpleNamespace

import pytest

from repro import make_cluster
from repro.citus.observability import explain
from repro.workloads import gharchive, tpcc, tpch, ycsb
from repro.workloads.traffic import mixes

from .oracle import load, normalized, oracle_session

LAYOUTS = {"1x4": (1, 4), "4x16": (4, 16)}

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
QUERIES = {**ANALYTICS, **TPCH, **GHARCHIVE}


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
    expected = normalized(oracle.execute(sql, params).rows)
    assert (len(expected) == 0) == (name in EMPTY), \
        f"{name}: an unexpectedly empty result makes the comparison vacuous"
    ext = cluster_session.instance.extensions["citus"]
    hits_and_misses = []
    for cached in (False, True, False):
        if not cached:
            ext.metadata.bump_generation()
        with ext.stat_counters.measure() as m:
            got = normalized(cluster_session.execute(sql, params).rows)
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

# (sql, strategy, whether ORDER BY makes the result a sequence). ``flags``
# is the small side: joined to ``events.k`` it is hashed to the anchor's
# shards, joined to a column that distributes neither table it is
# broadcast.
JOIN_ORDER = {
    "repartition": ("SELECT f.k, e.v FROM flags f JOIN events e ON f.n = e.k",
                    "repartition", False),
    "repartition_order_limit": (
        "SELECT f.k, e.v FROM flags f JOIN events e ON f.n = e.k"
        " ORDER BY f.k DESC LIMIT 7", "repartition", True),
    "broadcast": ("SELECT f.k, count(*), sum(e.k) FROM flags f"
                  " JOIN events e ON f.n = e.v GROUP BY f.k", "broadcast", False),
    "broadcast_order_limit": (
        "SELECT f.k, count(*) FROM flags f JOIN events e ON f.n = e.v"
        " GROUP BY f.k ORDER BY f.k LIMIT 5", "broadcast", True),
}


def intermediate_tables(session):
    """Every moved-side table a join-order plan left on any node."""
    cluster = session.instance.extensions["citus"].cluster
    return [(node, table) for node, instance in cluster.nodes.items()
            for table in instance.catalog.tables
            if table.startswith(("citus_repart_", "citus_bcast_"))]


@pytest.mark.parametrize("in_transaction", [False, True],
                         ids=["autocommit", "in_transaction"])
@pytest.mark.parametrize("name", sorted(JOIN_ORDER))
def test_join_order_tier_agrees_with_single_node(oracle, cluster_session, name,
                                                 in_transaction):
    """A non-co-located join moves one side and pushes the join down; what
    comes back is what one node joins, also when the statement runs inside
    a transaction block that has already written to the moved side — and
    the moved copy is gone from every worker afterwards."""
    sql, strategy, ordered = JOIN_ORDER[name]
    explained = explain(cluster_session, sql)
    assert explained.tier == "join_order"
    assert explained.subplan["strategy"] == strategy
    assert explained.subplan["moved_table"] == "flags"
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
    if ordered:
        assert got == expected
    else:
        assert sorted(got) == sorted(expected)
    assert intermediate_tables(cluster_session) == []


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
