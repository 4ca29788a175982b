"""Differential slice: a single engine instance is the oracle.

The same data and queries run on a plain ``repro.engine`` instance and on
clusters of two shard layouts; every planner tier that accepts a query
must return what the single node returns — equal row multisets, and equal
sequences where the query orders its result. (ROADMAP item 4a's first
slice: the ledger's ``analytics_scan`` shapes, ``write_mix``'s
repartitioning INSERT..SELECT rollup, and the TPC-H and gharchive suites
``bench_plan_quality`` plans.)
"""

import pytest

from repro import PostgresInstance, make_cluster
from repro.errors import CatalogError
from repro.workloads import gharchive, tpch

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
}
ROLLUP = ("INSERT INTO rollup SELECT tenant, v, count(*), sum(v) FROM events"
          " GROUP BY tenant, v")

TPCH = {name: (sql, None, () if "ORDER BY" in sql else None)
        for name, sql in sorted(tpch.QUERIES.items())}
GHARCHIVE = {
    "dashboard": (gharchive.DASHBOARD_QUERY, None, (0,)),
    "event_count": ("SELECT count(*) FROM github_events", None, None),
    "rollup_transform_check": (
        "SELECT event_id, created_at, message FROM commits", None, None),
}
QUERIES = {**ANALYTICS, **TPCH, **GHARCHIVE}

#: The pushdown planner ships ``revenue AS worker_sort_0`` — an output
#: alias used as a target expression — which no worker can evaluate once a
#: group exists to evaluate it for. Found by this oracle; the fix belongs
#: to the planner's sort-key pushdown.
KNOWN_PLANNER_BUGS = {"Q3"}


def load(session, distributed: bool) -> None:
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    session.execute("CREATE TABLE rollup (tenant int, bucket int, n int, total int)")
    if distributed:
        session.execute("SELECT create_distributed_table('events', 'k')")
        session.execute("SELECT create_reference_table('tenants')")
        # Not co-located with events, so the INSERT..SELECT repartitions.
        session.execute("SELECT create_distributed_table('rollup', 'tenant',"
                        " colocate_with := 'none')")
    session.copy_rows("events", [[k, (k * 31) % 40, (k * 7) % 50, f"label-{k % 97}"]
                                 for k in range(1, 2001)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(40)])
    session.execute(ROLLUP)
    tpch.create_schema(session, distributed=distributed)
    tpch.load_data(session, tpch.TpchConfig(
        customers=40, suppliers=40, orders=600, max_lines_per_order=5))
    gharchive.create_schema(session, distributed=distributed)
    gharchive.load_events(session, gharchive.ArchiveConfig(events=100))
    session.execute(gharchive.TRANSFORM_QUERY)


def normalized(rows):
    """Float sums add up in shard order; compare them to 6 decimals."""
    return [[round(v, 6) if isinstance(v, float) else v for v in row] for row in rows]


@pytest.fixture(scope="module")
def oracle():
    session = PostgresInstance("oracle").connect()
    load(session, distributed=False)
    return session


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def cluster_session(request):
    workers, shards = LAYOUTS[request.param]
    session = make_cluster(workers=workers, shard_count=shards).coordinator_session()
    load(session, distributed=True)
    return session


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_cluster_agrees_with_single_node(request, oracle, cluster_session, name):
    if name in KNOWN_PLANNER_BUGS:
        request.applymarker(pytest.mark.xfail(
            strict=True, raises=CatalogError,
            reason="pushed-down sort key references an output alias"))
    sql, params, order_columns = QUERIES[name]
    expected = normalized(oracle.execute(sql, params).rows)
    got = normalized(cluster_session.execute(sql, params).rows)
    assert len(expected) > 0, f"{name} returns nothing: the comparison is vacuous"
    assert sorted(got, key=repr) == sorted(expected, key=repr)
    if order_columns == ():
        assert got == expected  # the suite's ORDER BYs leave no ties here
    elif order_columns:
        def keys(rows):
            return [[row[c] for c in order_columns] for row in rows]
        assert keys(got) == keys(expected)
