"""Unit tests for the cluster/network substrate: clock, latency accounting,
node lifecycle, remote connections."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InstanceSpec
from repro.errors import NodeUnavailable
from repro.net import Cluster, NetworkSpec, SimClock
from repro.engine.executor import Batch
from repro.net.network import estimate_columns_bytes, estimate_row_bytes, estimate_rows_bytes


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
    # Partial aggregate states as workers ship them: avg's [sum, count],
    # array_agg's list, a nested list, NaN inside.
    "agg_state": st.one_of(
        st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(0, 10**6)).map(list),
        st.tuples(st.floats(allow_nan=True), st.integers(0, 50)).map(list),
        st.lists(st.one_of(st.none(), st.integers(-5, 5), st.sampled_from(["é", "a b"])),
                 max_size=4),
        st.sampled_from([[[1, 2], [3]], [True, None], [{"a": 1}]])),
    "int_or_bool": st.one_of(st.integers(-9, 9), st.booleans()),
    "int_or_null": st.one_of(st.integers(-9, 9), st.none()),
    "float_or_null": st.one_of(st.floats(allow_nan=True), st.none()),
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

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(sorted(_WIRE_VALUES)), max_size=5).flatmap(
        lambda kinds: st.lists(st.tuples(*(_WIRE_VALUES[k] for k in kinds)).map(list),
                               max_size=12).map(lambda rows: (len(kinds), rows))))
    def test_property_the_column_pricer_costs_the_sum_of_the_rows(self, case):
        """What a cursor batch is charged: priced as columns (lists or
        tuples), never transposed back, to the reference's byte."""
        width, rows = case
        expected = sum(estimate_row_bytes(row) for row in rows)
        batch = Batch.of_rows(rows, width)
        assert estimate_columns_bytes(batch.columns, batch.count) == expected
        as_lists = [list(column) for column in batch.columns]
        assert estimate_columns_bytes(as_lists, len(rows)) == expected

    def test_named_column_cases(self):
        nan = float("nan")
        # avg states: [sum, count] priced from their parts, as str() would.
        states = [[10, 2], [-3.5, 7], [nan, 1], [], [[1, "é"], None]]
        assert estimate_columns_bytes([states], 5) == sum(
            len(str(state)) + 1 + 2 for state in states)
        # True in an int column, NULL in a fixed-width one, NaN in a float one.
        assert estimate_columns_bytes([[1, True, 3]], 3) == 3 * 2 + 8 + 1 + 8
        assert estimate_columns_bytes([(None, 5), (nan, None)], 2) \
            == 2 * 2 + (1 + 8) + (8 + 1)
        assert estimate_columns_bytes([], 3) == 3 * 2

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


_STREAM_BATCH = 4

_COLUMN_VALUES = (
    st.one_of(st.none(), st.integers(-2**63, 2**63 - 1)),
    st.one_of(st.none(), st.sampled_from(["", "a", "label-17", "é", "日本語"])),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.booleans()),
    st.integers(-9, 9),
)


class TestStreamPricing:
    """The same rows cost the same whichever plane returns them: a blocking
    result set rides its exchange at its byte size, a stream's batches ride
    its dispatch at theirs. A stream that cannot end on a short batch (no
    rows, or an exact multiple of the batch size) rides one more frame, the
    bare end of stream."""

    @pytest.fixture(scope="class")
    def node(self):
        cluster = Cluster()
        cluster.add_node("n1")
        setup = cluster.node("n1").connect()
        setup.execute("CREATE TABLE p (i bigint, t text, f float, b bool, s int)")
        return cluster, setup

    @staticmethod
    def _cost(conn, run):
        before = conn.round_trips, conn.bytes_transferred, conn.elapsed
        rows = run()
        return (rows, conn.round_trips - before[0],
                conn.bytes_transferred - before[1], conn.elapsed - before[2])

    @settings(max_examples=60, deadline=None)
    @given(count=st.one_of(st.sampled_from([0, 1, _STREAM_BATCH, 3 * _STREAM_BATCH]),
                           st.integers(0, 3 * _STREAM_BATCH + 1)),
           data=st.data())
    def test_property_a_stream_costs_what_the_blocking_plane_costs(
            self, node, count, data):
        from repro.sql import parse

        cluster, setup = node
        rows = [list(data.draw(st.tuples(*_COLUMN_VALUES))) for _ in range(count)]
        setup.execute("TRUNCATE p")
        setup.copy_rows("p", rows, ["i", "t", "f", "b", "s"])
        stmt = parse("SELECT i, t, f, b, s FROM p")[0]
        conn = cluster.connect("n1")

        def stream():
            cursor = conn.execute_cursor(stmt, batch_size=_STREAM_BATCH)
            out = []
            while (batch := cursor.fetch_batch()) is not None:
                out += batch.rows()
            return out

        blocking = self._cost(conn, lambda: conn.execute_parsed(stmt).rows)
        streamed = self._cost(conn, stream)
        assert streamed[0] == blocking[0]
        assert blocking[1] == streamed[1] == 1
        end_frame = 2 if count % _STREAM_BATCH == 0 else 0
        assert blocking[2] == 256 + estimate_rows_bytes(blocking[0])
        assert streamed[2] == blocking[2] + end_frame
        spec = cluster.network.spec
        assert streamed[3] == pytest.approx(
            blocking[3] + end_frame / (spec.bandwidth_mb_s * 1e6), rel=1e-12)
        assert blocking[3] == pytest.approx(
            spec.rtt_ms / 1000 + blocking[2] / (spec.bandwidth_mb_s * 1e6), rel=1e-12)


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
