"""Streaming write data plane: pipelined INSERT..SELECT / COPY routing.

Covers the per-shard COPY channel router end to end:

- **bounded buffering** (the acceptance criterion): a large repartition
  INSERT..SELECT keeps the coordinator's write-side buffer at
  ``copy_flush_threshold × shard_count`` rows, not the total row count;
- **parity**: all three INSERT..SELECT strategies and programmatic COPY
  leave the destination with what a single node holds, every row in the
  shard its distribution key hashes to;
- **atomicity**: a NULL distribution column or a client-side error after
  flushes have already been dispatched rolls back every shard write and
  leaves the gauges settled;
- **observability**: the new ``copy_*`` counters, the "Repartition:"
  line in ``citus_explain``, and per-flush EXPLAIN ANALYZE actuals;
- the satellite: the ``local_dest`` coordinator path inserts value rows
  directly instead of rebuilding per-row INSERT ASTs.
"""

import pytest

from repro import make_cluster
from repro.errors import NotNullViolation, UniqueViolation

from .conftest import counter_total, counters_dict
from .oracle import oracle_session

SHARDS = 8  # the conftest ``citus`` fixture's per-table shard count


def shard_rows(citus, table):
    """{shard_name: sorted row tuples} read directly from the workers."""
    ext = citus.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    out = {}
    for shard in dist.shards:
        node = ext.metadata.cache.placement_node(shard.shardid)
        check = citus.cluster.node(node).connect()
        rows = check.execute(f"SELECT * FROM {shard.shard_name}").rows
        check.close()
        out[shard.shard_name] = sorted(tuple(r) for r in rows)
    return out


def make_tables(s, distributed=True):
    s.execute("CREATE TABLE src (k int PRIMARY KEY, v int, label text)")
    s.execute("CREATE TABLE dest (id int, val int)")
    if distributed:
        s.execute("SELECT create_distributed_table('src', 'k')")
        s.execute("SELECT create_distributed_table('dest', 'id')")


def load_src(s, n, null_v_at=None):
    rows = [
        [k, None if k == null_v_at else k, f"label-{k}"] for k in range(1, n + 1)
    ]
    s.copy_rows("src", rows, ["k", "v", "label"])


@pytest.fixture
def s(citus):
    s = citus.coordinator_session()
    make_tables(s)
    return s


# The three INSERT..SELECT strategies over src(k)->dest(id):
#  - pushdown: dest key fed by the source key, co-located shard pairs;
#  - repartition: dest key fed by a non-distribution column;
#  - coordinator: cross-shard aggregate forces a coordinator merge.
STRATEGY_SQL = {
    "pushdown": "INSERT INTO dest (id, val) SELECT k, v FROM src",
    "repartition": "INSERT INTO dest (id, val) SELECT v, k FROM src",
    "coordinator":
        "INSERT INTO dest (id, val) SELECT v, count(*) FROM src GROUP BY v",
}


# --------------------------------------------------------------- acceptance


class TestBoundedPeak:
    def test_repartition_peak_bounded_by_flush_threshold(self, citus, s):
        """≥ 10k-row repartition INSERT..SELECT: the coordinator's write
        buffer peaks at flush_threshold × shards, not the total row count."""
        ext = citus.coordinator_ext
        load_src(s, 10_000)
        s.execute(STRATEGY_SQL["repartition"])
        report = ext.executor.last_report  # the write-side channel report
        assert s.execute("SELECT count(*) FROM dest").scalar() == 10_000

        threshold = ext.config.copy_flush_threshold
        assert 0 < report.copy_channel_peak_rows <= threshold * SHARDS
        assert report.copy_channel_peak_rows < 10_000 / 2
        assert report.copy_flushes >= 10_000 // threshold
        assert report.copy_rows_routed == 10_000
        assert report.copy_bytes_streamed > 0

        gauge = counters_dict(s)[("copy_channel_peak_rows", None)]
        assert 0 < gauge <= threshold * SHARDS

    def test_flush_threshold_guc_is_respected(self, citus, s):
        ext = citus.coordinator_ext
        ext.config.copy_flush_threshold = 16
        rows = [[k, k, f"l{k}"] for k in range(1, 2_001)]
        s.copy_rows("src", rows, ["k", "v", "label"])
        report = ext.executor.last_report
        assert 0 < report.copy_channel_peak_rows <= 16 * SHARDS
        assert report.copy_flushes >= 2_000 // 16

    def test_copy_peak_far_below_total(self, citus, s):
        load_src(s, 10_000)
        report = citus.coordinator_ext.executor.last_report
        assert report.copy_rows_routed == 10_000
        assert report.copy_channel_peak_rows < 10_000 / 2


# ------------------------------------------------------------------- parity


def run_write(sql=None, copy_rows=None, n=3_000):
    """Run the same write on a fresh cluster and on a single node. Returns
    (the cluster, its copy_flushes, the single node's sorted dest rows)."""
    citus = make_cluster(workers=2, shard_count=SHARDS)
    s, oracle = citus.coordinator_session(), oracle_session()
    make_tables(s)
    make_tables(oracle, distributed=False)
    load_src(s, n)
    load_src(oracle, n)
    before = counter_total(s, "copy_flushes")
    for session in (s, oracle):
        if sql is not None:
            session.execute(sql)
        if copy_rows is not None:
            session.copy_rows("dest", copy_rows, ["id", "val"])
    flushes = counter_total(s, "copy_flushes") - before
    expected = sorted(tuple(r) for r in oracle.execute("SELECT * FROM dest").rows)
    return citus, flushes, expected


def assert_shards_hold(citus, table, expected):
    """The shards of ``table`` together hold exactly ``expected``, each
    row in the shard its distribution key (first column) hashes to."""
    dist = citus.coordinator_ext.metadata.cache.get_table(table)
    by_shard = shard_rows(citus, table)
    assert sorted(r for rows in by_shard.values() for r in rows) == expected
    for index, shard in enumerate(dist.shards):
        assert all(dist.shard_index_for_value(row[0]) == index
                   for row in by_shard[shard.shard_name])


class TestSingleNodeParity:
    """Streamed writes leave in the shards what a single node's table holds."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_SQL))
    def test_insert_select_same_shard_contents(self, strategy):
        citus, flushes, expected = run_write(sql=STRATEGY_SQL[strategy])
        assert len(expected) > 0
        assert_shards_hold(citus, "dest", expected)
        # pushdown never moves rows through COPY
        assert (flushes > 0) == (strategy != "pushdown")

    def test_copy_same_shard_contents(self):
        rows = [[k, k * 3] for k in range(1, 3_001)]
        citus, flushes, expected = run_write(copy_rows=rows, n=10)
        assert len(expected) == 3_000
        assert_shards_hold(citus, "dest", expected)
        assert flushes > 0

    def test_reference_table_copy_replicates_streaming(self, citus, s):
        oracle = oracle_session()
        for session in (s, oracle):
            session.execute("CREATE TABLE dims (id int PRIMARY KEY, n text)")
        s.execute("SELECT create_reference_table('dims')")
        for session in (s, oracle):
            session.copy_rows("dims", [[i, f"d{i}"] for i in range(1, 41)])
        expected = sorted(oracle.execute("SELECT * FROM dims").rows)
        assert len(expected) == 40
        dist = citus.coordinator_ext.metadata.cache.get_table("dims")
        shard = dist.shards[0].shard_name
        for node in citus.cluster.node_names():
            check = citus.cluster.node(node).connect()
            assert sorted(check.execute(f"SELECT * FROM {shard}").rows) == expected
            check.close()


# ---------------------------------------------------------------- atomicity


class TestMidStreamAtomicity:
    def test_copy_null_dist_column_after_flushes_rolls_back(self, citus, s):
        """Rows already flushed to the workers under the write transaction
        must all roll back when a later row fails the NULL check."""
        ext = citus.coordinator_ext
        ext.config.copy_flush_threshold = 16
        before = counter_total(s, "copy_flushes")
        rows = [[k, k, f"l{k}"] for k in range(1, 501)] + [[None, 0, "boom"]]
        with pytest.raises(NotNullViolation):
            s.copy_rows("src", rows, ["k", "v", "label"])
        # Flushes were dispatched before the failure…
        assert counter_total(s, "copy_flushes") > before
        # …and every shard write rolled back.
        assert s.execute("SELECT count(*) FROM src").scalar() == 0
        assert all(not rows for rows in shard_rows(citus, "src").values())

    def test_insert_select_null_dest_key_mid_stream_rolls_back(self, citus, s):
        ext = citus.coordinator_ext
        ext.config.copy_flush_threshold = 16
        load_src(s, 2_000, null_v_at=1_900)  # v is the dest dist key below
        with pytest.raises(NotNullViolation):
            s.execute(STRATEGY_SQL["repartition"])
        assert s.execute("SELECT count(*) FROM dest").scalar() == 0
        assert all(not rows for rows in shard_rows(citus, "dest").values())

    def test_client_error_mid_stream_rolls_back(self, citus, s):
        ext = citus.coordinator_ext
        ext.config.copy_flush_threshold = 16

        def feed():
            for k in range(1, 501):
                yield [k, k, f"l{k}"]
            raise RuntimeError("client hung up")

        with pytest.raises(RuntimeError):
            s.copy_rows("src", feed(), ["k", "v", "label"])
        assert s.execute("SELECT count(*) FROM src").scalar() == 0

    def test_gauges_settle_after_failure(self, citus, s):
        citus.coordinator_ext.config.copy_flush_threshold = 16
        rows = [[k, k, f"l{k}"] for k in range(1, 201)] + [[None, 0, "x"]]
        with pytest.raises(NotNullViolation):
            s.copy_rows("src", rows, ["k", "v", "label"])
        counters = counters_dict(s)
        in_flight = [v for (n, _), v in counters.items()
                     if n in ("executor_statements_in_flight", "tasks_in_flight")]
        assert all(v == 0 for v in in_flight)
        # The plane stays usable: the next COPY succeeds end to end.
        s.copy_rows("src", [[1, 1, "ok"], [2, 2, "ok"]], ["k", "v", "label"])
        assert s.execute("SELECT count(*) FROM src").scalar() == 2

    def test_gauges_settle_when_the_last_flush_fails(self, citus, s):
        """The channels' remainders flush after the last row is routed; a
        worker error there must settle the statement like any other."""
        s.execute("INSERT INTO src VALUES (40, 1, 'seed')")
        rows = [[k, k, f"l{k}"] for k in range(1, 101)]  # k=40 collides
        with pytest.raises(UniqueViolation):
            s.copy_rows("src", rows, ["k", "v", "label"])  # 100 rows < threshold
        counters = counters_dict(s)
        assert all(v == 0 for (n, _), v in counters.items()
                   if n in ("executor_statements_in_flight", "tasks_in_flight"))
        assert s.execute("SELECT count(*) FROM src").scalar() == 1

    def test_duplicate_key_mid_stream_rolls_back(self, citus, s):
        citus.coordinator_ext.config.copy_flush_threshold = 4
        s.execute("INSERT INTO src VALUES (40, 1, 'seed')")
        rows = [[k, k, f"l{k}"] for k in range(1, 101)]  # k=40 collides
        with pytest.raises(UniqueViolation):
            s.copy_rows("src", rows, ["k", "v", "label"])
        assert s.execute("SELECT count(*) FROM src").scalar() == 1


# ------------------------------------------------------------ observability


class TestObservability:
    def test_counters_exposed_via_udf(self, citus, s):
        before = counters_dict(s)
        load_src(s, 2_000)
        after = counters_dict(s)
        routed = sum(v - before.get((n, node), 0)
                     for (n, node), v in after.items() if n == "copy_rows_routed")
        streamed = sum(v - before.get((n, node), 0)
                       for (n, node), v in after.items()
                       if n == "copy_bytes_streamed")
        assert routed == 2_000
        assert streamed > 0
        assert after[("copy_channel_peak_rows", None)] > 0

    def test_explain_shows_streaming_repartition(self, citus, s):
        text = s.execute(
            "SELECT citus_explain("
            "'INSERT INTO dest (id, val) SELECT v, k FROM src')"
        ).scalar()
        threshold = citus.coordinator_ext.config.copy_flush_threshold
        assert f"Repartition: streaming (flush_threshold={threshold}," in text
        assert f"channels={SHARDS}" in text
        assert "strategy=repartition" in text

    def test_explain_analyze_reports_flush_actuals(self, citus, s):
        load_src(s, 2_000)
        text = s.execute(
            "SELECT citus_explain_analyze("
            "'INSERT INTO dest (id, val) SELECT v, k FROM src')"
        ).scalar()
        assert "Repartition: streaming" in text
        assert "actual rows=2000" in text
        assert "flushes=" in text
        assert "channel_peak_rows=" in text
        # The write actually ran under ANALYZE.
        assert s.execute("SELECT count(*) FROM dest").scalar() == 2_000

    def test_coordinator_strategy_reports_repartition(self, citus, s):
        text = s.execute(
            "SELECT citus_explain('" + STRATEGY_SQL["coordinator"] + "')"
        ).scalar()
        assert "Repartition: streaming" in text
        assert "strategy=coordinator" in text


# ------------------------------------------------- coordinator / local dest


class TestLocalDestination:
    def test_distributed_select_into_local_table(self, citus, s):
        load_src(s, 500)
        s.execute("CREATE TABLE loc (id int, val int)")
        s.execute("INSERT INTO loc (id, val) SELECT k, v FROM src")
        assert s.execute("SELECT count(*) FROM loc").scalar() == 500
        assert s.execute("SELECT val FROM loc WHERE id = 42").scalar() == 42

    def test_local_dest_enforces_constraints(self, citus, s):
        load_src(s, 10)
        s.execute("CREATE TABLE loc (id int PRIMARY KEY, val int)")
        s.execute("INSERT INTO loc (id, val) SELECT k, v FROM src")
        with pytest.raises(UniqueViolation):
            s.execute("INSERT INTO loc (id, val) SELECT k, v FROM src")
        assert s.execute("SELECT count(*) FROM loc").scalar() == 10
