"""Distributed-transaction co-access graph: access-set capture across the
1PC/2PC/autocommit/streaming paths, the txngraph counters' classification,
reset scopes, the zero-surface disabled mode, deterministic vertices,
EXPLAIN ANALYZE's cross-shard line, and the SLO RatioRule lower bound."""

from __future__ import annotations

import pytest

from repro import make_cluster
from repro.citus.extension import CitusConfig
from repro.citus.txngraph import group_label
from repro.engine.datum import hash_value
from repro.errors import MetadataError
from repro.workloads.traffic import RatioRule

from .conftest import find_keys_on_distinct_nodes


def _setup_accounts(citus, rows: int = 64):
    s = citus.coordinator_session()
    s.execute("CREATE TABLE accounts (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('accounts', 'k')")
    s.copy_rows("accounts", [[i, 0] for i in range(1, rows + 1)], ["k", "v"])
    return s


def _keys_same_node_distinct_groups(citus, table: str) -> list[int]:
    """Two distribution keys whose shards live on one node but in
    different co-located shard groups."""
    ext = citus.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    by_node: dict[str, dict[int, int]] = {}
    for key in range(1, 10_000):
        index = dist.shard_index_for_hash(hash_value(key))
        node = ext.metadata.cache.placement_node(dist.shards[index].shardid)
        groups = by_node.setdefault(node, {})
        groups.setdefault(index, key)
        if len(groups) >= 2:
            return list(groups.values())[:2]
    raise AssertionError("could not find same-node keys in distinct groups")


def _graph_counters(session) -> dict:
    return {
        row[0]: row[2]
        for row in session.execute("SELECT citus_stat_counters()").scalar()
        if row[0].startswith("txngraph") and row[1] is None
    }


def _vertex_rows(session) -> list:
    return session.execute("SELECT citus_stat_txn_graph()").scalar()


# ------------------------------------------------------ access capture


class TestAccessCapture:
    def test_single_shard_autocommit_folds_a_vertex_no_edges(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 1")
        vertices = _vertex_rows(s)
        assert len(vertices) == 1
        assert vertices[0][1] == 1  # txns
        assert vertices[0][2] == 1  # writes
        counters = _graph_counters(s)
        assert counters["txngraph_txns"] == 1
        assert "txngraph_txns_multi_group" not in counters
        assert "txngraph_txns_block" not in counters

    def test_same_node_block_txn_folds_two_vertices(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = _keys_same_node_distinct_groups(citus, "accounts")
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        vertices = _vertex_rows(s)
        assert len(vertices) == 2
        for _shard, txns, writes, nbytes in vertices:
            assert txns == 1 and writes == 1 and nbytes > 0
        counters = _graph_counters(s)
        assert counters["txngraph_txns_block"] == 1
        assert counters["txngraph_txns_block_multi_group"] == 1
        assert "txngraph_txns_cross_node" not in counters
        assert "txngraph_txns_2pc" not in counters

    def test_cross_node_write_txn_counts_as_twopc(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        assert len(_vertex_rows(s)) == 2
        counters = _graph_counters(s)
        assert counters["txngraph_txns_2pc"] == 1
        assert counters["txngraph_txns_cross_node"] == 1

    def test_multi_shard_read_counts_as_cross_node(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("SELECT count(*) FROM accounts")
        vertices = _vertex_rows(s)
        assert len(vertices) == citus.coordinator_ext.config.shard_count
        assert all(v[1] == 1 and v[2] == 0 for v in vertices)  # read only
        counters = _graph_counters(s)
        assert counters["txngraph_txns_cross_node"] == 1
        assert counters["txngraph_txns_multi_group"] == 1
        assert "txngraph_txns_2pc" not in counters
        assert "txngraph_txns_block" not in counters  # autocommit

    def test_aborted_txn_is_counted_but_not_folded(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("ROLLBACK")
        assert _vertex_rows(s) == []
        counters = _graph_counters(s)
        assert counters["txngraph_txns_aborted"] == 1
        assert "txngraph_txns" not in counters

    def test_a_crashed_sessions_transaction_ends_as_an_abort(self):
        """A node's crash ends what its sessions had in flight: nothing is
        left in ``open`` (where a promoted standby's session, its pids
        counting from 1000 again, would inherit it), and the transaction
        counts as aborted."""
        citus = make_cluster(workers=2, shard_count=4)
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1")
        graph = citus.coordinator_ext.telemetry.txn_graph()
        assert list(graph.open) == [("coordinator", s.backend_pid)]
        coordinator = citus.cluster.nodes["coordinator"]
        coordinator.crash()
        coordinator.restart()
        citus.coordinator_ext._utility_connections.clear()
        after = citus.cluster.nodes["worker1"].connect()
        after.execute("SELECT 1")  # one more statement
        assert citus.coordinator_ext.telemetry.txn_graph().open == {}
        assert citus.coordinator_ext.stat_counters.value(
            "txngraph_txns_aborted") == 1

    def test_vertices_attribute_tenants(self, citus):
        """Which tenants use a shard group is the tenant table joined
        through the tenant's shard: the graph keeps no tally of its own."""
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 7")
        (vertex,) = _vertex_rows(s)
        (tenant,) = s.execute("SELECT citus_stat_tenants()").scalar()
        assert tenant[0] == 7
        shardid = s.execute(
            "SELECT get_shard_id_for_distribution_column('accounts', :k)",
            {"k": tenant[0]}).scalar()
        shardids = sorted({row[1] for row in
                           s.execute("SELECT citus_shards()").scalar()
                           if row[0] == "accounts"})
        colocation_id = next(row[3] for row in
                             s.execute("SELECT citus_tables()").scalar()
                             if row[0] == "accounts")
        assert vertex[0] == group_label(
            (colocation_id, shardids.index(shardid)))

    def test_streaming_copy_writes_are_captured(self, citus):
        s = citus.coordinator_session()
        s.execute("CREATE TABLE items (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('items', 'k')")
        s.execute("SELECT citus_stat_reset('all')")
        s.copy_rows("items", [[i, i] for i in range(1, 65)], ["k", "v"])
        counters = _graph_counters(s)
        assert counters["txngraph_txns"] == 1
        vertices = _vertex_rows(s)
        assert len(vertices) == citus.coordinator_ext.config.shard_count
        assert all(v[2] == 1 for v in vertices)  # every group saw the write


# ----------------------------------------------------------- exports


class TestExports:
    def test_metrics_snapshot_contains_sorted_graph_families(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        snap = s.execute("SELECT citus_metrics_snapshot()").scalar()
        assert "# TYPE citus_txn_graph_vertices gauge" in snap
        vertex_lines = [l for l in snap.splitlines()
                        if l.startswith("citus_txn_graph_vertex_txns_total{")]
        assert len(vertex_lines) == citus.coordinator_ext.config.shard_count
        assert vertex_lines == sorted(vertex_lines)
        assert "edge" not in snap
        # Graph families sit between histogram summaries and node health.
        assert (snap.index("citus_txn_graph_vertices")
                < snap.index("# TYPE citus_node_up gauge"))

    def test_group_label(self):
        assert group_label((3, 7)) == "c3.s7"
        assert group_label(None) == "?"


# -------------------------------------------------------- reset scopes


class TestResetScopes:
    def test_graph_scope_clears_vertices_but_not_counters(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        assert _vertex_rows(s)
        s.execute("SELECT citus_stat_reset('graph')")
        assert _vertex_rows(s) == []
        assert _graph_counters(s)["txngraph_txns"] > 0  # history survived

    def test_all_scope_clears_both(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        s.execute("SELECT citus_stat_reset('all')")
        assert _vertex_rows(s) == []
        assert not _graph_counters(s)

    def test_unknown_scope_is_rejected_and_docstring_lists_all(self, citus):
        s = _setup_accounts(citus)
        with pytest.raises(MetadataError, match="graph"):
            s.execute("SELECT citus_stat_reset('bogus')")
        catalog = citus.coordinator_ext.instance.catalog
        doc = catalog.get_function("citus_stat_reset").fn.__doc__
        for scope in ("counters", "statements", "tenants", "graph", "ash",
                      "all"):
            assert scope in doc


# ------------------------------------------------------- disabled mode


class TestDisabled:
    def test_disabled_config_means_zero_surface(self):
        citus = make_cluster(workers=2, shard_count=8,
                             config=CitusConfig(enable_txn_graph=False))
        s = _setup_accounts(citus)
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 1")
        s.execute("COMMIT")
        s.execute("SELECT count(*) FROM accounts")
        for ext in citus.extensions.values():
            assert ext.telemetry.txn_graph() is None
        # Nothing was folded behind the switch either.
        graph = citus.coordinator_ext.telemetry.graph
        assert not graph.vertices and not graph.open
        assert _vertex_rows(s) == []
        assert not _graph_counters(s)

    def test_runtime_toggle_detaches_every_node(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_set_config('enable_txn_graph', :v)",
                  {"v": False})
        for ext in citus.extensions.values():
            assert ext.telemetry.txn_graph() is None
        s.execute("SELECT citus_set_config('enable_txn_graph', :v)",
                  {"v": True})
        for ext in citus.extensions.values():
            assert ext.telemetry.txn_graph() is not None
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 1")
        assert _graph_counters(s)["txngraph_txns"] == 1


# ------------------------------------------------------- determinism


def _seeded_workload(citus) -> None:
    import random

    s = _setup_accounts(citus)
    rng = random.Random(2718)
    keys = list(range(1, 65))
    for _ in range(40):
        k1, k2 = rng.sample(keys, 2)
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        s.execute("SELECT v FROM accounts WHERE k = :k", {"k": k1})
    s.execute("SELECT count(*) FROM accounts")


class TestDeterminism:
    def test_same_seed_runs_dump_identical_graph_windows_and_metrics(self):
        dumps = []
        for _ in range(2):
            citus = make_cluster(workers=2, shard_count=8)
            _seeded_workload(citus)
            s = citus.coordinator_session("dump")
            dumps.append({
                "vertices": _vertex_rows(s),
                # Wait time per time window.
                "timeline": s.execute("SELECT citus_ash('timeline')").scalar(),
                "metrics": s.execute("SELECT citus_metrics_snapshot()").scalar(),
            })
        assert dumps[0]["vertices"] == dumps[1]["vertices"]
        assert dumps[0]["timeline"] == dumps[1]["timeline"]
        assert dumps[0]["metrics"] == dumps[1]["metrics"]


# ----------------------------------------- explain analyze + 2PC spans


class TestObservabilityIntegration:
    def test_multi_shard_dml_explains_cross_shard_fraction(self, citus):
        s = _setup_accounts(citus)
        text = s.execute(
            "SELECT citus_explain_analyze('UPDATE accounts SET v = v + 1')"
        ).scalar()
        assert "Cross-Shard: groups=" in text
        assert "cross_node_fraction=" in text

    def test_cross_shard_fractions_are_the_counter_ratios(self, citus):
        """EXPLAIN ANALYZE's fractions are the ``txngraph_*`` counters'
        ratios since the last counters reset."""
        s = _setup_accounts(citus)
        k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
        s.execute("SELECT citus_stat_reset('counters')")
        for k in range(1, 9):
            s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k})
        s.execute("SELECT count(*) FROM accounts")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        counters = _graph_counters(s)
        text = s.execute(
            "SELECT citus_explain_analyze('UPDATE accounts SET v = v + 1')"
        ).scalar()
        (line,) = [l for l in text.splitlines() if "Cross-Shard:" in l]
        fields = dict(part.split("=") for part in line.split()[1:])
        txns = counters["txngraph_txns"]
        assert txns == 10
        assert fields["multi_group_fraction"] == \
            f"{counters['txngraph_txns_multi_group'] / txns:.4f}" == "0.2000"
        assert fields["cross_node_fraction"] == \
            f"{counters['txngraph_txns_cross_node'] / txns:.4f}" == "0.2000"

    def test_single_shard_dml_has_no_cross_shard_line(self, citus):
        s = _setup_accounts(citus)
        text = s.execute(
            "SELECT citus_explain_analyze("
            "'UPDATE accounts SET v = v + 1 WHERE k = 1')"
        ).scalar()
        assert "Cross-Shard:" not in text

    def test_disabled_graph_drops_the_cross_shard_line(self):
        citus = make_cluster(workers=2, shard_count=8,
                             config=CitusConfig(enable_txn_graph=False))
        s = _setup_accounts(citus)
        text = s.execute(
            "SELECT citus_explain_analyze('UPDATE accounts SET v = v + 1')"
        ).scalar()
        assert "Cross-Shard:" not in text

    def test_2pc_spans_carry_access_set_attributes(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
        telemetry = citus.coordinator_ext.telemetry
        capture = telemetry.capture("test")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        root = telemetry.end_capture(capture)
        events = root.find(cat="2pc", name="2pc.commit_records")
        assert events
        attrs = events[-1].attrs
        assert len(attrs["access_groups"]) == 2
        assert len(attrs["access_nodes"]) == 2
        assert sorted(attrs["access_tenants"]) == sorted([str(k1), str(k2)])

    def test_1pc_span_carries_access_set_attributes(self, citus):
        s = _setup_accounts(citus)
        telemetry = citus.coordinator_ext.telemetry
        capture = telemetry.capture("test")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 1")
        s.execute("COMMIT")
        root = telemetry.end_capture(capture)
        spans = root.find(cat="2pc", name="commit.1pc")
        assert spans
        assert spans[-1].attrs["access_groups"]
        assert spans[-1].attrs["access_tenants"] == ["1"]


# ------------------------------------------------------------ SLO rule


class TestRatioRuleMinRatio:
    def test_two_sided_bounds(self):
        rule = RatioRule("cross fraction", "num", ("den",),
                         max_ratio=0.12, min_ratio=0.03)
        ok = rule.evaluate([], {"num": 7, "den": 100})
        assert ok["passed"] and ok["min_ratio"] == 0.03
        low = rule.evaluate([], {"num": 1, "den": 100})
        assert not low["passed"]
        high = rule.evaluate([], {"num": 20, "den": 100})
        assert not high["passed"]

    def test_default_lower_bound_is_zero(self):
        rule = RatioRule("cap only", "num", ("den",), max_ratio=0.5)
        assert rule.evaluate([], {"num": 0, "den": 100})["passed"]
