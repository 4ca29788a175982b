"""Unit tests for the cluster/network substrate: clock, latency accounting,
node lifecycle, remote connections."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InstanceSpec
from repro.errors import NodeUnavailable
from repro.net import Cluster, NetworkSpec, SimClock
from repro.net.network import estimate_row_bytes, estimate_rows_bytes


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance_ms(500)
        assert clock.now() == pytest.approx(2.0)

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestNetworkAccounting:
    def test_round_trip_latency_and_counters(self):
        cluster = Cluster(network_spec=NetworkSpec(rtt_ms=2.0))
        latency = cluster.network.note_round_trip(payload_bytes=1000)
        assert latency >= 0.002
        assert cluster.network.messages_sent == 1
        assert cluster.network.bytes_sent == 1000

    def test_connection_setup_cost(self):
        cluster = Cluster(network_spec=NetworkSpec(connection_setup_ms=15))
        assert cluster.network.connection_setup_cost() == pytest.approx(0.015)


_WIRE_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-1000, 1000),
    "bigint": st.integers(-2**63, 2**63 - 1),
    "float": st.floats(allow_nan=True),
    "str": st.sampled_from(["", "a", "label-17", "é", "日本語", " " * 40]),
    "json": st.sampled_from([{}, {"a": [1, "é"]}, {"k": None}]),
    "list": st.sampled_from([[], [3, 10.5], ["x", None]]),  # avg_partial state
    "date": st.sampled_from([datetime.date(2021, 6, 20),
                             datetime.datetime(2021, 6, 20, 12, 30)]),
}
_ANY_WIRE_VALUE = st.one_of(*_WIRE_VALUES.values())


@st.composite
def _wire_batches(draw):
    """Row batches with one-typed and mixed columns, square or ragged."""
    columns = draw(st.lists(
        st.sampled_from([*_WIRE_VALUES.values(), _ANY_WIRE_VALUE]), max_size=5))
    rows = draw(st.lists(st.tuples(*columns).map(list), max_size=12))
    if draw(st.booleans()):  # ragged: cut some rows short, pad others
        for row in rows:
            if draw(st.booleans()):
                del row[draw(st.integers(0, len(row))):]
            elif draw(st.booleans()):
                row.append(draw(_ANY_WIRE_VALUE))
    return rows


class TestBatchPricing:
    """A batch costs what its rows cost one by one: column pricing is a
    cheaper way to add up, never a different price list."""

    @settings(max_examples=400, deadline=None)
    @given(_wire_batches())
    def test_property_a_batch_costs_the_sum_of_its_rows(self, rows):
        assert estimate_rows_bytes(rows) == sum(estimate_row_bytes(r) for r in rows)
        as_tuples = [tuple(row) for row in rows]
        assert estimate_rows_bytes(as_tuples) == estimate_rows_bytes(rows)

    def test_named_cases(self):
        assert estimate_rows_bytes([]) == 0
        assert estimate_rows_bytes([[]]) == estimate_row_bytes([]) == 2
        assert estimate_rows_bytes([[], []]) == 4
        assert estimate_rows_bytes([[7, "ab", None]]) == 2 + 8 + 3 + 1
        # One-typed columns: int, text (one non-ASCII), bool, NULL.
        batch = [[1, "ab", True, None], [2**40, "é", False, None]]
        assert estimate_rows_bytes(batch) == 2 * 2 + 16 + (3 + 2) + 2 + 2
        # True is priced as a bool even in a column of ints.
        assert estimate_rows_bytes([[1], [True]]) == 2 * 2 + 8 + 1
        assert estimate_rows_bytes([[1, 2], [3]]) == (2 + 16) + (2 + 8)


class TestClusterLifecycle:
    def test_add_and_connect(self):
        cluster = Cluster()
        cluster.add_node("n1")
        conn = cluster.connect("n1")
        assert conn.execute("SELECT 1").scalar() == 1
        assert conn.round_trips == 1

    def test_duplicate_node_rejected(self):
        cluster = Cluster()
        cluster.add_node("n1")
        with pytest.raises(ValueError):
            cluster.add_node("n1")

    def test_unknown_node(self):
        with pytest.raises(NodeUnavailable):
            Cluster().node("ghost")

    def test_nodes_share_clock(self):
        cluster = Cluster()
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        cluster.clock.advance(5)
        assert a.now() == b.now() == 5.0

    def test_custom_spec_per_node(self):
        cluster = Cluster()
        node = cluster.add_node("big", InstanceSpec(cores=64, memory_gb=256))
        assert node.spec.cores == 64

    def test_total_memory(self):
        cluster = Cluster(spec=InstanceSpec(memory_gb=64))
        cluster.add_node("a")
        cluster.add_node("b")
        assert cluster.total_memory_gb() == 128


class TestRemoteConnection:
    def test_close_rolls_back_open_txn(self):
        cluster = Cluster()
        node = cluster.add_node("n1")
        setup = node.connect()
        setup.execute("CREATE TABLE t (a int)")
        conn = cluster.connect("n1")
        conn.execute("BEGIN")
        conn.in_txn_block = True
        conn.execute("INSERT INTO t VALUES (1)")
        conn.close()
        assert setup.execute("SELECT count(*) FROM t").scalar() == 0

    def test_execute_after_close_rejected(self):
        cluster = Cluster()
        cluster.add_node("n1")
        conn = cluster.connect("n1")
        conn.close()
        with pytest.raises(NodeUnavailable):
            conn.execute("SELECT 1")

    def test_elapsed_accumulates(self):
        cluster = Cluster(network_spec=NetworkSpec(rtt_ms=1.0))
        cluster.add_node("n1")
        conn = cluster.connect("n1")
        conn.execute("SELECT 1")
        conn.execute("SELECT 2")
        assert conn.elapsed >= 0.002
