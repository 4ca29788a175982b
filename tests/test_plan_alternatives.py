"""Candidate-plan pipeline: citus_plan_alternatives(), structured
rejection reasons, cache-hit search replay, and join-order alternatives.

The §3.5 cascade used to throw away everything it considered; with
``citus.enable_plan_alternatives`` on (the default) every planned
statement leaves behind a PlanSearch — tiers tried in order, each tier's
accept/reject decision with a machine-readable reason code, and every
costed join-order candidate.
"""

import json

import pytest

from repro.citus.observability import explain
from repro.errors import UnsupportedDistributedQuery
from repro.sql import parse


@pytest.fixture
def s(citus, citus_session):
    s = citus_session
    s.execute("CREATE TABLE a (k int, v int)")
    s.execute("SELECT create_distributed_table('a', 'k')")
    s.execute("CREATE TABLE d (d int, note text)")
    s.execute("SELECT create_distributed_table('d', 'd')")
    for k in range(1, 9):
        s.execute(f"INSERT INTO a VALUES ({k}, {9 - k})")
        s.execute(f"INSERT INTO d VALUES ({k}, 'n{k}')")
    return s


JOIN_SQL = "SELECT count(*) FROM a JOIN d ON a.v = d.d"


def plan_alternatives(s, sql=None):
    if sql is None:
        raw = s.execute("SELECT citus_plan_alternatives()").rows[0][0]
    else:
        raw = s.execute("SELECT citus_plan_alternatives($1)", [sql]).rows[0][0]
    return json.loads(raw)


class TestJoinOrderAlternatives:
    """A non-co-located join surfaces every strategy the planner costed."""

    def test_two_or_more_costed_candidates(self, s):
        search = plan_alternatives(s, JOIN_SQL)
        costed = [c for c in search["candidates"] if c["cost"] is not None]
        assert len(costed) >= 2
        assert all(c["tier"] == "join_order" for c in costed)
        strategies = {c["attrs"]["strategy"] for c in costed}
        assert {"repartition", "broadcast"} <= strategies

    def test_chosen_is_cheapest(self, s):
        search = plan_alternatives(s, JOIN_SQL)
        costed = [c for c in search["candidates"] if c["cost"] is not None]
        chosen = [c for c in costed if c["status"] == "chosen"]
        assert len(chosen) == 1
        assert chosen[0]["cost"] == min(c["cost"] for c in costed)
        assert search["cost_ratio"] == 1.0
        assert search["best_alternative_cost"] >= search["chosen_cost"]

    def test_rejections_on_the_way_down(self, s):
        """fast_path, router, and pushdown each record a structured
        rejection before join_order wins."""
        search = plan_alternatives(s, JOIN_SQL)
        assert search["tiers_tried"] == [
            "fast_path", "router", "pushdown", "join_order",
        ]
        rejections = {
            c["tier"]: c["rejection"]["code"]
            for c in search["candidates"] if c["status"] == "rejected"
        }
        assert rejections["fast_path"] == "shape"
        assert rejections["router"] == "no_common_constant"
        assert rejections["pushdown"] == "non_colocated_join"

    def test_explain_renders_considered_lines(self, s):
        text = explain(s, JOIN_SQL).as_text()
        assert "Considered: fast_path rejected [shape]" in text
        assert "Considered: join_order chosen cost=" in text
        assert "Considered: join_order alternative cost=" in text

    def test_repartition_plan_explain_lines(self, s):
        """The executable plan's own EXPLAIN carries the costed strategy
        comparison: the chosen strategy and every losing one, as the
        "Considered:" lines every plan shows its search with."""
        plan = s.instance.hooks.call_planner(s, parse(JOIN_SQL)[0], None)
        lines = plan.explain_lines()
        assert lines == explain(s, JOIN_SQL).as_text().splitlines()
        considered = [l for l in lines if "Considered: join_order" in l]
        assert len(considered) >= 2
        assert "chosen cost=" in considered[0]
        assert all("alternative cost=" in l for l in considered[1:])
        strategies = {l.split("strategy=")[1].rstrip(")") for l in considered}
        assert {"repartition", "broadcast"} <= strategies
        assert any(l.startswith("  ->  Subplan: strategy=") for l in lines)


class TestUnsupportedShapes:
    """Unplannable queries still raise, but the search explains why every
    tier passed."""

    BAD_SQL = ("SELECT count(*) FROM a JOIN d ON a.v = d.d"
               " JOIN a a2 ON a2.k = d.note")

    def test_statement_still_raises(self, s):
        with pytest.raises(UnsupportedDistributedQuery):
            s.execute(self.BAD_SQL)

    def test_search_records_error_and_rejections(self, s):
        search = plan_alternatives(s, self.BAD_SQL)
        assert "could not produce a distributed plan" in search["error"]
        assert search["chosen_tier"] is None
        codes = {
            c["tier"]: c["rejection"]["code"]
            for c in search["candidates"] if c["status"] == "rejected"
        }
        assert set(codes) == {"fast_path", "router", "pushdown", "join_order"}
        assert codes["join_order"] == "shape"

    def test_failed_statement_lands_in_ring_buffer(self, s, citus):
        with pytest.raises(UnsupportedDistributedQuery):
            s.execute(self.BAD_SQL)
        last = citus.coordinator_ext.telemetry.plan_searches[-1]
        assert last.error is not None
        assert last.chosen is None


class TestCacheReplay:
    """Plan-cache hits replay the original search, marked cached."""

    def test_hit_replays_search(self, s, citus):
        s.execute("SELECT * FROM a WHERE k = 3")
        s.execute("SELECT * FROM a WHERE k = 5")
        searches = citus.coordinator_ext.telemetry.plan_searches
        miss, hit = searches[-2], searches[-1]
        assert miss.cached is False
        assert hit.cached is True
        assert hit.chosen_tier == miss.chosen_tier == "fast_path"
        assert hit.fingerprint == miss.fingerprint
        # The replay shares the original candidates — same decisions.
        assert [c.as_dict() for c in hit.candidates] == \
            [c.as_dict() for c in miss.candidates]

    def test_no_arg_udf_dumps_ring_buffer(self, s):
        s.execute("SELECT * FROM a WHERE k = 3")
        searches = plan_alternatives(s)
        assert searches
        assert searches[-1]["chosen_tier"] == "fast_path"


class TestDisabledGuc:
    """citus.enable_plan_alternatives = off keeps the hot path bare."""

    def test_no_search_recorded(self, s, citus):
        ext = citus.coordinator_ext
        ext.config.enable_plan_alternatives = False
        before = len(ext.telemetry.plan_searches)
        s.execute("SELECT * FROM a WHERE k = 3")
        assert len(ext.telemetry.plan_searches) == before
        assert explain(s, "SELECT * FROM a WHERE k = 4").considered == []

    def test_udf_reports_off(self, s, citus):
        citus.coordinator_ext.config.enable_plan_alternatives = False
        search = plan_alternatives(s, JOIN_SQL)
        assert search == {"error": "citus.enable_plan_alternatives is off"}


class TestDisabledTiers:
    """citus.planner_disabled_tiers skips cascade tiers with a recorded
    'disabled' rejection — the plan-quality gate's downgrade lever."""

    def test_fast_path_disabled_falls_to_router(self, s, citus):
        citus.coordinator_ext.config.planner_disabled_tiers = "fast_path"
        search = plan_alternatives(s, "SELECT * FROM a WHERE k = 3")
        assert search["chosen_tier"] == "router"
        rejected = search["candidates"][0]
        assert rejected["tier"] == "fast_path"
        assert rejected["rejection"]["code"] == "disabled"

    def test_guc_settable_via_udf(self, s, citus):
        s.execute(
            "SELECT citus_set_config('planner_disabled_tiers', 'fast_path')"
        )
        assert (citus.coordinator_ext.config.planner_disabled_tiers
                == "fast_path")
        search = plan_alternatives(s, "SELECT * FROM a WHERE k = 3")
        assert search["chosen_tier"] == "router"
