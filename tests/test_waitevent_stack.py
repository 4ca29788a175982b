"""WaitEventStack driven directly (no executor): nested begin/finish,
exception unwinding through waiting(), clear() gauge balance, and the
shared wait_class_totals rollup."""

from __future__ import annotations

import pytest

from repro import PostgresInstance
from repro.engine.waitevents import (
    COUNT_PREFIX,
    IN_PROGRESS_GAUGE,
    TIME_PREFIX,
    wait_class_totals,
    wait_totals,
)
from repro.net.clock import SimClock


@pytest.fixture
def stack(pg):
    return pg.connect().wait_events


def _gauge(pg) -> int:
    return pg.wait_registry.snapshot().gauge(IN_PROGRESS_GAUGE)


class TestNestedLiveWaits:
    def test_three_deep_nesting_tracks_depth_and_top(self, pg, stack):
        a = stack.begin("Client", "PoolLease")
        assert (stack.depth, stack.current) == (1, a)
        b = stack.begin("Net", "RemoteExecute")
        c = stack.begin("Lock", "tuple")
        assert stack.depth == 3
        assert stack.current is c
        assert _gauge(pg) == 3
        stack.finish(c)
        assert (stack.depth, stack.current) == (2, b)
        stack.finish(b)
        stack.finish(a)
        assert (stack.depth, stack.current) == (0, None)
        assert _gauge(pg) == 0

    def test_waits_account_elapsed_virtual_time(self, stack):
        pg = PostgresInstance("we_timed", clock=SimClock())
        stack = pg.connect().wait_events
        we = stack.begin("Lock", "relation")
        pg.clock.advance(0.25)
        stack.finish(we)
        totals = wait_totals(pg.wait_registry)
        entry = totals[("Lock", "relation", "we_timed")]
        assert entry["count"] == 1
        assert entry["seconds"] == pytest.approx(0.25)

    def test_finish_is_idempotent(self, pg, stack):
        we = stack.begin("Lock", "tuple")
        stack.finish(we)
        stack.finish(we)  # already gone: must not double-account
        assert _gauge(pg) == 0
        totals = wait_totals(pg.wait_registry)
        assert totals[("Lock", "tuple", pg.name)]["count"] == 1

    def test_waiting_context_unwinds_on_exception(self, pg, stack):
        with pytest.raises(RuntimeError):
            with stack.waiting("Client", "PoolLease"):
                with stack.waiting("Lock", "tuple"):
                    assert stack.depth == 2
                    raise RuntimeError("boom")
        assert stack.depth == 0
        assert _gauge(pg) == 0
        # Both unwound waits were still accounted.
        totals = wait_totals(pg.wait_registry)
        assert totals[("Client", "PoolLease", pg.name)]["count"] == 1
        assert totals[("Lock", "tuple", pg.name)]["count"] == 1

    def test_clear_leaves_gauge_balanced_without_accounting(self, pg, stack):
        stack.begin("Client", "PoolLease")
        stack.begin("Lock", "tuple")
        stack.begin("Lock", "relation")
        assert _gauge(pg) == 3
        stack.clear()
        assert stack.depth == 0
        assert _gauge(pg) == 0  # balanced, not negative
        # Session death drops the waits without folding count/time totals.
        assert wait_totals(pg.wait_registry) == {}


class TestWaitClassTotals:
    def test_rolls_counters_up_by_class(self):
        counters = {
            COUNT_PREFIX + "Lock.tuple": 3,
            COUNT_PREFIX + "Lock.relation": 2,
            COUNT_PREFIX + "Net.RemoteExecute": 7,
            TIME_PREFIX + "Lock.tuple": 99,  # time totals don't count
            "pool_sessions_opened": 5,  # unrelated counters ignored
        }
        assert wait_class_totals(counters) == {"Lock": 5, "Net": 7}

    def test_per_node_labelled_duplicates_are_skipped(self):
        counters = {
            COUNT_PREFIX + "TwoPC.Prepare": 4,  # cluster-wide total
            COUNT_PREFIX + "TwoPC.Prepare@worker1": 3,  # per-node label
            COUNT_PREFIX + "TwoPC.Prepare@worker2": 1,
        }
        assert wait_class_totals(counters) == {"TwoPC": 4}

    def test_empty_input(self):
        assert wait_class_totals({}) == {}
