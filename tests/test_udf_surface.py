"""The Citus UDF management surface: the GUC table (``CitusConfig``) and
the UDF table (``UDFS``) checked entry by entry, malformed arguments,
sizes, worker commands, distributed DROP INDEX, and the named-argument
convention."""

import dataclasses
import json
import pathlib

import pytest

from repro.citus.ash import TIMELINE_BUCKET_SECONDS
from repro.citus.extension import GUC_TYPES, UDFS, CitusConfig
from repro.errors import MetadataError

GUCS = [f.name for f in dataclasses.fields(CitusConfig)]

#: Per GUC type: a value other than any default, and one that does not
#: parse (a string GUC takes any text, so only NULL fails it).
SETTABLE = {int: 7, float: 2.5, str: "router"}
UNPARSEABLE = {int: "abc", float: "soon", bool: "maybe", str: None}

#: The coordinator check's message.
COORDINATOR_ONLY = ("operation is only allowed on the coordinator"
                    " (connect there for DDL)")


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

    # ------------------------------------------------- every GUC of the table

    @pytest.mark.parametrize("name", GUCS)
    def test_every_guc_round_trips_through_set_config_and_show(
            self, citus, s, name):
        kind = GUC_TYPES[name]
        value = (not getattr(citus.coordinator_ext.config, name)
                 if kind is bool else SETTABLE[kind])
        assert s.execute("SELECT citus_set_config($1, $2)",
                         [name, value]).scalar() == value
        assert getattr(citus.coordinator_ext.config, name) == value
        assert s.execute(f"SHOW citus.{name}").scalar() == value

    @pytest.mark.parametrize("name", GUCS)
    def test_every_guc_refuses_a_session_set(self, citus, s, name):
        before = getattr(citus.coordinator_ext.config, name)
        with pytest.raises(MetadataError, match=f"citus_set_config\\('{name}'"):
            s.execute(f"SET citus.{name} = 1")
        assert getattr(citus.coordinator_ext.config, name) == before

    @pytest.mark.parametrize("name, value",
                             [(name, UNPARSEABLE[GUC_TYPES[name]])
                              for name in GUCS])
    def test_an_unparseable_value_is_a_metadata_error(self, citus, s, name, value):
        before = getattr(citus.coordinator_ext.config, name)
        with pytest.raises(MetadataError, match=name):
            s.execute("SELECT citus_set_config($1, $2)", [name, value])
        assert getattr(citus.coordinator_ext.config, name) == before

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in GUCS if GUC_TYPES[name] is int
        for value in (0, -5)])
    def test_a_count_guc_below_one_is_refused_when_set(self, citus, s, name,
                                                        value):
        before = getattr(citus.coordinator_ext.config, name)
        with pytest.raises(MetadataError, match=f"{name}.*at least 1"):
            s.execute("SELECT citus_set_config($1, $2)", [name, value])
        assert getattr(citus.coordinator_ext.config, name) == before

    def test_a_negative_log_min_duration_still_means_off(self, citus, s):
        s.execute("SELECT citus_set_config('log_min_duration', -1)")
        assert citus.coordinator_ext.config.log_min_duration == -1.0
        s.execute("SELECT count(*) FROM t")
        assert s.execute("SELECT citus_slow_queries()").scalar() == []

    def test_readme_configuration_table_is_the_guc_table(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| GUC | Type | Default | Read by |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            name, kind, default = (cell.strip().strip("`")
                                   for cell in line.split("|")[1:4])
            rows.append((name, kind, default))
        assert rows == [(f.name, type(f.default).__name__, repr(f.default))
                        for f in dataclasses.fields(CitusConfig)]


class TestUdfTable:
    def test_the_registered_udfs_are_the_table(self, citus):
        names = [name for name, _fn, _coordinator_only in UDFS]
        assert len(names) == len(set(names)) == 35
        for instance in citus.cluster.nodes.values():
            assert set(instance.catalog.functions) - {"_named_arg"} == set(names)

    @pytest.mark.parametrize("name", [name for name, _fn, coordinator_only
                                      in UDFS if coordinator_only])
    def test_a_coordinator_only_udf_is_refused_on_a_worker(self, citus, name):
        worker = citus.session_on(citus.worker_names()[0])
        with pytest.raises(MetadataError) as raised:
            worker.execute(f"SELECT {name}('t', 'k')")
        assert str(raised.value) == COORDINATOR_ONLY


class TestMalformedArguments:
    """An argument that does not parse, or an unknown mode, is an error
    naming the UDF — not a Python exception from inside it."""

    @pytest.mark.parametrize("args", [
        ("statements", "abc"), ("statements", 0, "later"),
        ("timeline", None, None, "wide"),
    ])
    def test_citus_ash_range_and_bucket(self, s, args):
        placeholders = ", ".join(f"${i + 1}" for i in range(len(args)))
        with pytest.raises(MetadataError, match="citus_ash"):
            s.execute(f"SELECT citus_ash({placeholders})", list(args))

    def test_citus_trace_export_limit(self, s):
        with pytest.raises(MetadataError, match="citus_trace_export"):
            s.execute("SELECT citus_trace_export('x')")

    def test_citus_trace_export_limit_zero_is_empty_negative_refused(self, s):
        for k in range(9):
            s.execute("SELECT payload FROM t WHERE k = $1", [k])

        def traces(limit: str):
            export = s.execute(f"SELECT citus_trace_export({limit})").scalar()
            return [e for e in json.loads(export)["traceEvents"]
                    if e["ph"] == "X" and "sql" in e["args"]]

        assert len(traces("")) >= 9
        assert len(traces("2")) == 2
        assert traces("0") == []
        with pytest.raises(MetadataError, match="citus_trace_export"):
            traces("-2")

    def test_citus_stat_txn_graph_mode(self, s):
        with pytest.raises(MetadataError,
                           match="citus_stat_txn_graph takes no arguments"):
            s.execute("SELECT citus_stat_txn_graph('vertices')")

    def test_citus_ash_negative_timeline_bucket_is_refused(self, citus, s):
        citus.cluster.clock.advance(5.0)
        with pytest.raises(MetadataError, match="citus_ash"):
            s.execute("SELECT citus_ash('timeline', NULL, NULL, -1.0)")
        # Omitted or 0: the default bucket width.
        width = TIMELINE_BUCKET_SECONDS
        for sql in ("SELECT citus_ash('timeline')",
                    "SELECT citus_ash('timeline', NULL, NULL, 0)"):
            rows = s.execute(sql).scalar()
            assert rows
            assert all(end - start == pytest.approx(width)
                       for _b, start, end, *_ in rows)


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
