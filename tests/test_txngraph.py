"""Distributed-transaction co-access graph + time-windowed statistics:
access-set capture across the 1PC/2PC/autocommit/streaming paths, edge
tagging, window-ring rollover/retention edge cases, reset scopes, the
zero-surface disabled mode, deterministic exports, and the SLO RatioRule
lower bound."""

from __future__ import annotations

import json

import pytest

from repro import make_cluster
from repro.citus.executor.adaptive import ExecutionReport
from repro.citus.extension import CitusConfig
from repro.citus.record import EXECUTION, OK, TASK, TASKS, StatementRecord
from repro.citus.txngraph import TxnGraph, WindowRing, group_label
from repro.engine.datum import hash_value
from repro.engine.stats import StatsRegistry
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


def _edge_rows(session) -> list:
    return session.execute("SELECT citus_stat_txn_graph()").scalar()


# ------------------------------------------------------ access capture


class TestAccessCapture:
    def test_single_shard_autocommit_folds_a_vertex_no_edges(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 1")
        vertices = s.execute("SELECT citus_stat_txn_graph('vertices')").scalar()
        assert len(vertices) == 1
        assert vertices[0][1] == 1  # txns
        assert vertices[0][2] == 1  # writes
        assert _edge_rows(s) == []
        counters = _graph_counters(s)
        assert counters["txngraph_txns"] == 1
        assert "txngraph_txns_multi_group" not in counters
        assert "txngraph_txns_block" not in counters

    def test_same_node_block_txn_folds_single_node_edge(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = _keys_same_node_distinct_groups(citus, "accounts")
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        edges = _edge_rows(s)
        assert len(edges) == 1
        src, dst, txns, single_node, cross_node, twopc, writes, nbytes, recent = edges[0]
        assert txns == 1 and single_node == 1 and cross_node == 0 and twopc == 0
        assert writes == 1 and nbytes > 0 and recent == 1
        counters = _graph_counters(s)
        assert counters["txngraph_txns_block"] == 1
        assert counters["txngraph_txns_block_multi_group"] == 1
        assert "txngraph_txns_2pc" not in counters

    def test_cross_node_write_txn_folds_twopc_edge(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("COMMIT")
        edges = _edge_rows(s)
        assert len(edges) == 1
        assert edges[0][5] == 1  # twopc
        assert edges[0][4] == 0  # a 2PC txn is not double-counted cross_node
        counters = _graph_counters(s)
        assert counters["txngraph_txns_2pc"] == 1
        assert counters["txngraph_txns_cross_node"] == 1

    def test_multi_shard_read_folds_cross_node_edges(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("SELECT count(*) FROM accounts")
        edges = _edge_rows(s)
        assert edges, "multi-shard scan should produce co-access edges"
        assert all(e[4] == 1 and e[5] == 0 and e[6] == 0 for e in edges)
        counters = _graph_counters(s)
        assert counters["txngraph_txns_cross_node"] == 1
        assert "txngraph_txns_block" not in counters  # autocommit

    def test_aborted_txn_is_counted_but_not_folded(self, citus):
        s = _setup_accounts(citus)
        k1, k2 = find_keys_on_distinct_nodes(citus, "accounts")
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k1})
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = :k", {"k": k2})
        s.execute("ROLLBACK")
        assert _edge_rows(s) == []
        counters = _graph_counters(s)
        assert counters["txngraph_txns_aborted"] == 1
        assert "txngraph_txns" not in counters

    def test_vertices_attribute_tenants(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 7")
        vertices = s.execute("SELECT citus_stat_txn_graph('vertices')").scalar()
        assert vertices[0][4] == 1  # tenants
        assert vertices[0][5] == ["7"]  # top_tenants

    def test_streaming_copy_writes_are_captured(self, citus):
        s = citus.coordinator_session()
        s.execute("CREATE TABLE items (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('items', 'k')")
        s.execute("SELECT citus_stat_reset('all')")
        s.copy_rows("items", [[i, i] for i in range(1, 65)], ["k", "v"])
        counters = _graph_counters(s)
        assert counters["txngraph_txns"] == 1
        vertices = s.execute("SELECT citus_stat_txn_graph('vertices')").scalar()
        assert len(vertices) == citus.coordinator_ext.config.shard_count
        assert all(v[2] == 1 for v in vertices)  # every group saw the write


# ----------------------------------------------------------- exports


class TestExports:
    def test_json_and_dot_exports(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("SELECT count(*) FROM accounts")
        payload = json.loads(s.execute("SELECT citus_stat_txn_graph('json')").scalar())
        assert payload["vertices"] and payload["edges"]
        assert payload["wide_txns"] == 0
        dot = s.execute("SELECT citus_stat_txn_graph('dot')").scalar()
        assert dot.startswith("graph citus_txn_graph {")
        assert "--" in dot and dot.rstrip().endswith("}")

    def test_metrics_snapshot_contains_sorted_graph_families(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        snap = s.execute("SELECT citus_metrics_snapshot()").scalar()
        assert "# TYPE citus_txn_graph_edges gauge" in snap
        assert "# TYPE citus_txn_window_statements gauge" in snap
        edge_lines = [l for l in snap.splitlines()
                      if l.startswith("citus_txn_graph_edge_txns_total{")]
        assert edge_lines == sorted(edge_lines)
        # Graph families sit between histogram summaries and node health.
        assert (snap.index("citus_txn_graph_edges")
                < snap.index("# TYPE citus_node_up gauge"))

    def test_windows_rows_carry_counter_deltas(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT citus_stat_reset('all')")
        s.execute("BEGIN")
        s.execute("UPDATE accounts SET v = v + 1 WHERE k = 1")
        s.execute("COMMIT")
        rows = s.execute("SELECT citus_stat_windows()").scalar()
        assert rows
        current = rows[-1]
        assert current[3] is True  # current bucket
        assert current[4] >= 1  # statements observed
        assert current[5] > 0  # p50_ms
        counters = json.loads(current[13])
        assert counters["txngraph_txns"] == 1
        assert current[8] == 1  # txns folded in this bucket


# -------------------------------------------------------- reset scopes


class TestResetScopes:
    def test_graph_scope_clears_edges_but_not_windows(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        assert _edge_rows(s)
        s.execute("SELECT citus_stat_reset('graph')")
        assert _edge_rows(s) == []
        assert s.execute("SELECT citus_stat_txn_graph('vertices')").scalar() == []
        rows = s.execute("SELECT citus_stat_windows()").scalar()
        assert rows and rows[-1][4] > 0  # statement history survived

    def test_windows_scope_restarts_the_ring(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        s.execute("SELECT citus_stat_reset('windows')")
        rows = s.execute("SELECT citus_stat_windows()").scalar()
        assert len(rows) == 1
        assert rows[0][3] is True and rows[0][4] == 0  # fresh current bucket
        assert _edge_rows(s)  # lifetime graph untouched

    def test_all_scope_clears_both(self, citus):
        s = _setup_accounts(citus)
        s.execute("SELECT count(*) FROM accounts")
        s.execute("SELECT citus_stat_reset('all')")
        assert _edge_rows(s) == []
        rows = s.execute("SELECT citus_stat_windows()").scalar()
        assert len(rows) == 1 and rows[0][4] == 0

    def test_unknown_scope_is_rejected_and_docstring_lists_all(self, citus):
        s = _setup_accounts(citus)
        with pytest.raises(MetadataError, match="graph"):
            s.execute("SELECT citus_stat_reset('bogus')")
        catalog = citus.coordinator_ext.instance.catalog
        doc = catalog.get_function("citus_stat_reset").fn.__doc__
        for scope in ("counters", "statements", "tenants", "graph",
                      "windows", "all"):
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
        assert graph.windows.current is None
        assert s.execute("SELECT citus_stat_txn_graph()").scalar() == []
        assert s.execute("SELECT citus_stat_txn_graph('json')").scalar() == "{}"
        assert s.execute("SELECT citus_stat_windows()").scalar() == []
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


# ------------------------------------------------------- window ring


class _Clock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


def _graph(width=60.0, nbuckets=4):
    clock = _Clock()
    graph = TxnGraph(clock, StatsRegistry())
    graph.configure(width, nbuckets)
    return graph, clock


def _statement(graph, clock, group, nbytes, elapsed, began_at=None):
    """Fold one autocommit single-task write that began at ``began_at``
    and ended now — the record the executor's timeline and the session
    leave behind, with the window ring rolled where they roll it."""
    if began_at is not None:
        graph.windows.roll(began_at)
    bucket = graph.windows.roll(clock.t).index
    start = clock.t if began_at is None else began_at
    record = StatementRecord("statement", "Update", None, "coordinator",
                             start, False)
    unit = (TASK, 0, "w1", group, True, 0.0, elapsed, 1, nbytes)
    record.events.append((
        -1, TASKS, EXECUTION, start, start + elapsed, None,
        ([unit], ExecutionReport(elapsed=elapsed), None,
         ("coordinator", 1000), None, False, OK, bucket, True)))
    record.end = clock.t
    graph.fold(record)


class TestWindowRing:
    def test_boundary_exact_statement_end_lands_in_the_new_bucket(self):
        graph, clock = _graph()
        clock.t = 60.0  # exactly on the first bucket boundary
        _statement(graph, clock, (1, 0), 64, 0.5, began_at=10.0)
        buckets = graph.windows.buckets(clock.t)
        assert [b.index for b in buckets] == [0, 1]
        assert buckets[0].statements == 0  # closed bucket stayed empty
        assert buckets[1].statements == 1  # boundary-exact end -> new bucket
        assert buckets[1].txns == 1

    def test_idle_gaps_materialize_as_empty_buckets(self):
        graph, clock = _graph()
        graph.windows.roll(10.0)  # open bucket 0
        buckets = graph.windows.buckets(130.0)  # jump into bucket 2
        assert [b.index for b in buckets] == [0, 1, 2]
        gap = buckets[1]
        assert gap.closed and gap.statements == 0 and gap.counters == {}

    def test_wraparound_retains_only_the_newest_n_buckets(self):
        graph, clock = _graph(width=60.0, nbuckets=4)
        for index in range(7):
            graph.windows.roll(index * 60.0)
        buckets = graph.windows.buckets(6 * 60.0)
        assert [b.index for b in buckets] == [3, 4, 5, 6]
        assert len(buckets) == 4  # retention = ring + current

    def test_far_jump_does_not_create_unbounded_gap_buckets(self):
        graph, clock = _graph(width=60.0, nbuckets=4)
        graph.windows.roll(0.0)
        buckets = graph.windows.buckets(1_000_000.0)
        assert len(buckets) <= 4
        assert buckets[-1].index == int(1_000_000.0 / 60.0)

    def test_reset_mid_bucket_reopens_with_fresh_baseline(self):
        graph, clock = _graph()
        clock.t = 11.0
        _statement(graph, clock, (1, 0), 64, 0.5, began_at=10.0)
        graph.reset_windows()
        clock.t = 12.0  # still inside bucket 0's interval
        buckets = graph.windows.buckets(clock.t)
        assert len(buckets) == 1 and buckets[0].statements == 0
        # Counters incremented before the reset don't leak into the delta.
        assert graph.windows.bucket_counters(buckets[0]) == {}

    def test_per_bucket_counter_deltas(self):
        graph, clock = _graph()
        _statement(graph, clock, (1, 0), 10, 0.1)  # folds: txngraph_txns += 1
        clock.t = 65.0
        _statement(graph, clock, (1, 1), 10, 0.1)
        buckets = graph.windows.buckets(clock.t)
        first = graph.windows.bucket_counters(buckets[0])
        second = graph.windows.bucket_counters(buckets[-1])
        assert first["txngraph_txns"] == 1
        assert second["txngraph_txns"] == 1

    def test_reconfigure_resets_only_on_change(self):
        graph, clock = _graph(width=60.0, nbuckets=4)
        graph.windows.roll(10.0)
        graph.configure(60.0, 4)  # no-op
        assert graph.windows.current is not None
        graph.configure(30.0, 4)  # width change drops the ring
        assert graph.windows.current is None

    def test_group_label(self):
        assert group_label((3, 7)) == "c3.s7"
        assert group_label(None) == "?"


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
                "graph": s.execute("SELECT citus_stat_txn_graph('json')").scalar(),
                "edges": s.execute("SELECT citus_stat_txn_graph()").scalar(),
                "windows": s.execute("SELECT citus_stat_windows()").scalar(),
                "metrics": s.execute("SELECT citus_metrics_snapshot()").scalar(),
            })
        assert dumps[0]["graph"] == dumps[1]["graph"]
        assert dumps[0]["edges"] == dumps[1]["edges"]
        assert dumps[0]["windows"] == dumps[1]["windows"]
        assert dumps[0]["metrics"] == dumps[1]["metrics"]


# ----------------------------------------- explain analyze + 2PC spans


class TestObservabilityIntegration:
    def test_multi_shard_dml_explains_cross_shard_fraction(self, citus):
        s = _setup_accounts(citus)
        text = s.execute(
            "SELECT citus_explain_analyze('UPDATE accounts SET v = v + 1')"
        ).scalar()
        assert "Cross-Shard: groups=" in text
        assert "recent_cross_node_fraction=" in text

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
