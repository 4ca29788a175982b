"""Hypothesis property tests for distributed-layer invariants:

- routing totality: every inserted row is retrievable by key and counted;
- pruning soundness: shard pruning never loses matching rows;
- rebalancing/isolation preserve all data;
- hash ranges partition the int32 space exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import make_cluster
from repro.citus.metadata import INT32_MAX, INT32_MIN, split_hash_ranges
from repro.engine.datum import hash_value

slow_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestHashRangeProperties:
    @given(st.integers(min_value=1, max_value=128))
    def test_property_ranges_partition_int32_space(self, count):
        ranges = split_hash_ranges(count)
        assert ranges[0][0] == INT32_MIN
        assert ranges[-1][1] == INT32_MAX
        covered = 0
        for lo, hi in ranges:
            assert lo <= hi
            covered += hi - lo + 1
        assert covered == 2**32

    @given(st.integers(min_value=1, max_value=64),
           st.lists(st.integers(), min_size=1, max_size=20))
    def test_property_every_hash_lands_in_exactly_one_range(self, count, keys):
        ranges = split_hash_ranges(count)
        for key in keys:
            h = hash_value(key)
            owners = [i for i, (lo, hi) in enumerate(ranges) if lo <= h <= hi]
            assert len(owners) == 1


class TestRoutingTotality:
    @slow_settings
    @given(keys=st.lists(st.integers(min_value=-(10**6), max_value=10**6),
                         min_size=1, max_size=25, unique=True))
    def test_property_every_row_retrievable_and_counted(self, keys):
        citus = make_cluster(2, shard_count=8)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE r (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('r', 'k')")
        s.copy_rows("r", [[k, k % 97] for k in keys])
        assert s.execute("SELECT count(*) FROM r").scalar() == len(keys)
        for k in keys[:5]:
            assert s.execute("SELECT v FROM r WHERE k = $1", [k]).scalar() == k % 97

    @slow_settings
    @given(keys=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                         max_size=20, unique=True))
    def test_property_text_keys_route_consistently(self, keys):
        citus = make_cluster(2, shard_count=8)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE r (k text PRIMARY KEY, n int)")
        s.execute("SELECT create_distributed_table('r', 'k')")
        for i, k in enumerate(keys):
            s.execute("INSERT INTO r VALUES ($1, $2)", [k, i])
        for i, k in enumerate(keys):
            assert s.execute("SELECT n FROM r WHERE k = $1", [k]).scalar() == i


#: A range filter's bound: an int, a non-integer float or an integer's
#: text, as SQL and as the value it compares as.
BOUNDS = st.one_of(
    st.integers(min_value=-20, max_value=320).map(lambda n: (str(n), n)),
    st.integers(min_value=-80, max_value=1280).filter(lambda n: n % 4).map(
        lambda n: (repr(n / 4), n / 4)),
    st.integers(min_value=-20, max_value=320).map(lambda n: (f"'{n}'", n)),
)
RANGE_FILTERS = {
    "=": ("k = {0}", lambda k, a, b: k == a),
    "IN": ("k IN ({0}, {1})", lambda k, a, b: k in (a, b)),
    "<": ("k < {0}", lambda k, a, b: k < a),
    "<=": ("k <= {0}", lambda k, a, b: k <= a),
    ">": ("k > {0}", lambda k, a, b: k > a),
    ">=": ("k >= {0}", lambda k, a, b: k >= a),
    "BETWEEN": ("k BETWEEN {0} AND {1}", lambda k, a, b: a <= k <= b),
}


class TestPruningSoundness:
    @slow_settings
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                      max_size=30, unique=True),
        probe=st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                       max_size=5, unique=True),
    )
    def test_property_in_list_pruning_equals_full_scan(self, keys, probe):
        citus = make_cluster(2, shard_count=8)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE r (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('r', 'k')")
        s.copy_rows("r", [[k] for k in keys])
        placeholders = ", ".join(str(p) for p in probe)
        pruned = s.execute(
            f"SELECT count(*) FROM r WHERE k IN ({placeholders})"
        ).scalar()
        assert pruned == len(set(keys) & set(probe))

    @slow_settings
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=299), min_size=1,
                      max_size=30, unique=True),
        op=st.sampled_from(sorted(RANGE_FILTERS)),
        low=BOUNDS, high=BOUNDS,
    )
    def test_property_range_pruning_equals_full_scan(self, keys, op, low, high):
        citus = make_cluster(2, shard_count=4)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE r (k int PRIMARY KEY)")
        s.execute("SELECT create_range_distributed_table('r', 'k',"
                  " ARRAY[ARRAY[0, 99], ARRAY[100, 199], ARRAY[200, 299]])")
        s.copy_rows("r", [[k] for k in keys])
        sql, passes = RANGE_FILTERS[op]
        pruned = s.execute(
            "SELECT count(*) FROM r WHERE " + sql.format(low[0], high[0])
        ).scalar()
        assert pruned == sum(passes(k, low[1], high[1]) for k in keys)


class TestDataPreservation:
    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_rebalance_preserves_rows(self, seed):
        import random

        from repro.citus.rebalancer import Rebalancer

        rng = random.Random(seed)
        citus = make_cluster(2, shard_count=6)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE r (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('r', 'k')")
        rows = [[k, rng.randrange(100)] for k in rng.sample(range(10_000), 30)]
        s.copy_rows("r", rows)
        checksum = s.execute("SELECT sum(k), sum(v), count(*) FROM r").first()
        citus.add_worker("worker3")
        Rebalancer(citus.coordinator_ext).rebalance(citus.coordinator_session("a"))
        assert s.execute("SELECT sum(k), sum(v), count(*) FROM r").first() == checksum

    @slow_settings
    @given(tenant=st.integers(min_value=0, max_value=50))
    def test_property_isolation_preserves_rows(self, tenant):
        citus = make_cluster(2, shard_count=4)
        s = citus.coordinator_session()
        s.execute("CREATE TABLE r (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('r', 'k')")
        s.copy_rows("r", [[k, k] for k in range(51)])
        before = s.execute("SELECT sum(k), count(*) FROM r").first()
        s.execute("SELECT isolate_tenant_to_new_shard('r', $1)", [tenant])
        assert s.execute("SELECT sum(k), count(*) FROM r").first() == before
        assert s.execute("SELECT v FROM r WHERE k = $1", [tenant]).scalar() == tenant


class TestAggregationEquivalence:
    @slow_settings
    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e6, max_value=1e6),
        min_size=1, max_size=30))
    def test_property_distributed_aggregates_match_local(self, values):
        from repro import PostgresInstance

        pg = PostgresInstance("pg").connect()
        citus = make_cluster(2, shard_count=4).coordinator_session()
        for session, distributed in ((pg, False), (citus, True)):
            session.execute("CREATE TABLE r (k serial PRIMARY KEY, x float)")
            if distributed:
                session.execute("SELECT create_distributed_table('r', 'k')")
            session.copy_rows("r", [[i + 1, v] for i, v in enumerate(values)],
                              ["k", "x"])
        sql = "SELECT count(*), sum(x), avg(x), min(x), max(x) FROM r"
        a, b = pg.execute(sql).first(), citus.execute(sql).first()
        assert a[0] == b[0]
        for left, right in zip(a[1:], b[1:]):
            assert left == pytest.approx(right, rel=1e-9, abs=1e-9)
