"""The Citus UDF management surface: sizes, config, worker commands,
distributed DROP INDEX, and the named-argument convention."""

import pytest

from repro.errors import MetadataError


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE t (k int PRIMARY KEY, payload text)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    s.copy_rows("t", [[i, "x" * 50] for i in range(60)])
    return s


class TestSizeAndConfig:
    def test_citus_table_size_counts_shard_bytes(self, citus, s):
        size = s.execute("SELECT citus_table_size('t')").scalar()
        assert size > 60 * 50  # at least the payload bytes

    def test_citus_set_config_changes_guc(self, citus, s):
        s.execute("SELECT citus_set_config('shard_count', 16)")
        assert citus.coordinator_ext.config.shard_count == 16
        s.execute("CREATE TABLE t2 (k int PRIMARY KEY)")
        s.execute("SELECT create_distributed_table('t2', 'k', colocate_with := 'none')")
        assert citus.coordinator_ext.metadata.cache.get_table("t2").shard_count == 16

    def test_unknown_config_rejected(self, s):
        with pytest.raises(MetadataError):
            s.execute("SELECT citus_set_config('nonsense', 1)")

    @pytest.mark.parametrize("off, on", [("false", "true"), ("off", "on"),
                                         ("0", "1"), (False, True)])
    def test_a_boolean_is_parsed_as_postgres_spells_it(self, citus, s, off, on):
        telemetry = citus.coordinator_ext.telemetry
        s.execute("SELECT citus_set_config('enable_tracing', $1)", [off])
        assert citus.coordinator_ext.config.enable_tracing is False
        traced = len(telemetry.trace_records())
        s.execute("SELECT count(*) FROM t")
        assert len(telemetry.trace_records()) == traced
        s.execute("SELECT citus_set_config('enable_tracing', $1)", [on])
        assert citus.coordinator_ext.config.enable_tracing is True
        s.execute("SELECT count(*) FROM t")
        assert len(telemetry.trace_records()) > traced

    def test_the_slow_start_interval_reaches_the_executor(self, citus, s):
        def connections_opened(interval_ms):
            s.execute("SELECT citus_set_config('executor_slow_start_interval_ms', $1)",
                      [interval_ms])
            fresh = citus.coordinator_session()
            fresh.execute("SELECT count(*) FROM t")
            return citus.coordinator_ext.executor.last_report.connections_opened

        # 4 tasks per worker: a ramp that never steps opens one connection
        # per worker, one that steps at once opens one per task but the last.
        assert connections_opened(1e12) == 2
        assert connections_opened(1e-6) == 6

    def test_the_deadlock_interval_reaches_every_maintenance_daemon(self, citus, s):
        s.execute("SELECT citus_set_config('deadlock_detection_interval_s', 0.5)")
        daemons = [worker for instance in citus.cluster.nodes.values()
                   for worker in instance.hooks.background_workers
                   if worker.name == "citus_maintenance"]
        assert len(daemons) == 3
        assert [worker.interval for worker in daemons] == [0.5] * 3

    def test_set_of_a_citus_guc_is_refused_and_show_reports_the_config(
            self, citus, s):
        """The configuration is the cluster's: a session-scoped SET would
        only look like it changed (tracing stayed on), so it is refused."""
        ext = citus.coordinator_ext
        with pytest.raises(MetadataError, match="citus_set_config"):
            s.execute("SET citus.enable_tracing = off")
        assert ext.config.enable_tracing is True
        assert s.execute("SHOW citus.enable_tracing").scalar() is True
        s.execute("SELECT citus_set_config('enable_tracing', false)")
        assert s.execute("SHOW citus.enable_tracing").scalar() is False
        assert s.execute("SHOW citus.shard_count").scalar() == ext.config.shard_count
        # Any other name is a plain session setting.
        s.execute("SET citus.not_a_guc = 3")
        assert s.execute("SHOW citus.not_a_guc").scalar() == 3
        s.execute("SET application_name = reporting")
        assert s.execute("SHOW application_name").scalar() == "reporting"

    @pytest.mark.parametrize("name, value", [
        ("shard_count", "abc"), ("stat_window_seconds", "soon"),
        ("enable_tracing", "maybe"), ("trace_buffer_size", None),
    ])
    def test_an_unparseable_value_is_a_metadata_error(self, citus, s, name, value):
        before = getattr(citus.coordinator_ext.config, name)
        with pytest.raises(MetadataError, match=name):
            s.execute("SELECT citus_set_config($1, $2)", [name, value])
        assert getattr(citus.coordinator_ext.config, name) == before


class TestRunCommandOnWorkers:
    def test_command_runs_everywhere(self, citus, s):
        results = s.execute(
            "SELECT run_command_on_workers('CREATE TABLE wtab (a int)')"
        ).scalar()
        assert all(r.endswith("OK") for r in results)
        for name in citus.worker_names():
            assert citus.cluster.node(name).catalog.has_table("wtab")

    def test_errors_reported_per_node(self, citus, s):
        s.execute("SELECT run_command_on_workers('CREATE TABLE dup (a int)')")
        results = s.execute(
            "SELECT run_command_on_workers('CREATE TABLE dup (a int)')"
        ).scalar()
        assert all("ERROR" in r for r in results)


class TestDistributedDropIndex:
    def test_drop_index_propagates(self, citus, s):
        s.execute("CREATE INDEX t_payload_idx ON t (payload)")
        ext = citus.coordinator_ext
        dist = ext.metadata.cache.get_table("t")
        shard = dist.shards[0]
        node = ext.metadata.cache.placement_node(shard.shardid)
        shard_table = citus.cluster.node(node).catalog.get_table(shard.shard_name)
        assert any("t_payload_idx" in n for n in shard_table.indexes)
        s.execute("DROP INDEX t_payload_idx")
        assert not any("t_payload_idx" in n for n in shard_table.indexes)
        shell = citus.coordinator.catalog.get_table("t")
        assert "t_payload_idx" not in shell.indexes


class TestNamedArguments:
    def test_positional_and_named_mix(self, citus, s):
        s.execute("CREATE TABLE nm (k int PRIMARY KEY)")
        s.execute(
            "SELECT create_distributed_table('nm', 'k', shard_count := 4,"
            " colocate_with := 'none')"
        )
        assert citus.coordinator_ext.metadata.cache.get_table("nm").shard_count == 4


class TestAddNodeIdempotent:
    def test_duplicate_add_node_is_noop(self, citus, s):
        before = list(citus.coordinator_ext.metadata.cache.nodes)
        s.execute("SELECT citus_add_node('worker1')")
        assert citus.coordinator_ext.metadata.cache.nodes == before
