"""Traffic-harness generators and percentile math at the edges.

Covers the Zipf tenant sampler (determinism under seed, empirical skew
against the theoretical distribution), the think-time distributions, and
``citus_stat_statements`` percentile behaviour at low sample counts
(n = 0, 1, 2) — both of the histogram math and through the UDF."""

from __future__ import annotations

import random

import pytest

from repro.workloads.traffic import (
    ExponentialThink,
    FixedThink,
    ZipfGenerator,
    make_think,
)

from .conftest import percentile


# ----------------------------------------------------------------- Zipf


class TestZipfGenerator:
    def test_deterministic_under_seed(self):
        a = ZipfGenerator(100, s=1.1, seed=42)
        b = ZipfGenerator(100, s=1.1, seed=42)
        assert [a.sample() for _ in range(500)] == [b.sample() for _ in range(500)]

    def test_different_seeds_differ(self):
        a = ZipfGenerator(100, s=1.1, seed=1)
        b = ZipfGenerator(100, s=1.1, seed=2)
        assert [a.sample() for _ in range(200)] != [b.sample() for _ in range(200)]

    def test_samples_stay_in_range(self):
        gen = ZipfGenerator(10, s=1.3, seed=7)
        for _ in range(1000):
            assert 0 <= gen.sample() < 10

    def test_empirical_skew_matches_theory(self):
        """The empirical share of each of the hottest tenants must land
        within a tolerance of the theoretical Zipf probability."""
        n, draws = 20, 30_000
        gen = ZipfGenerator(n, s=1.2, seed=99)
        counts = [0] * n
        for _ in range(draws):
            counts[gen.sample()] += 1
        for k in range(3):
            empirical = counts[k] / draws
            theoretical = gen.probability(k)
            assert abs(empirical - theoretical) < 0.15 * theoretical, \
                f"tenant {k}: empirical {empirical:.4f} vs theory {theoretical:.4f}"
        # Rank order holds for well-separated ranks.
        assert counts[0] > counts[4] > counts[15]

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)


# ----------------------------------------------------------- think times


class TestThinkTimes:
    def test_exponential_deterministic_and_mean(self):
        think = ExponentialThink(2.0)
        samples = [think.sample(random.Random(5)) for _ in range(1)]
        assert samples == [think.sample(random.Random(5))]
        rng = random.Random(17)
        mean = sum(think.sample(rng) for _ in range(20_000)) / 20_000
        assert abs(mean - 2.0) < 0.1

    def test_fixed_is_constant(self):
        think = FixedThink(0.5)
        rng = random.Random(0)
        assert [think.sample(rng) for _ in range(5)] == [0.5] * 5

    def test_factory(self):
        assert isinstance(make_think("exponential", 1.0), ExponentialThink)
        assert isinstance(make_think("fixed", 1.0), FixedThink)
        with pytest.raises(ValueError):
            make_think("pareto", 1.0)
        with pytest.raises(ValueError):
            ExponentialThink(0.0)
        with pytest.raises(ValueError):
            FixedThink(-1.0)


# ------------------------------------------- percentiles at low sample count


class TestPercentileLowN:
    def test_empty_histogram_reports_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_single_observation_all_percentiles_equal(self):
        # With one sample every percentile clamps to the observed value.
        for p in (50, 95, 99):
            assert percentile([0.004], p) == pytest.approx(0.004)

    def test_two_observations_split_and_stay_monotone(self):
        p50, p95, p99 = (percentile([0.001, 0.1], p) for p in (50, 95, 99))
        # p50 lands on the low sample's bucket (within the 1.5x bucket
        # factor), the tail clamps to the observed max.
        assert 0.001 <= p50 <= 0.0015
        assert p99 == pytest.approx(0.1)
        assert p50 <= p95 <= p99

    def test_percentiles_never_leave_observed_range(self):
        for p in (1, 50, 95, 99, 100):
            assert 0.002 <= percentile([0.002, 0.007], p) <= 0.007


class TestStatStatementsLowN:
    """The UDF's per-fingerprint percentiles at call counts 1 and 2."""

    def _rows(self, session):
        return session.execute("SELECT citus_stat_statements()").scalar()

    def test_single_call_percentiles_collapse(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE lowq (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('lowq', 'k')")
        s.execute("SELECT citus_stat_statements_reset()")
        s.execute("SELECT v FROM lowq WHERE k = 1")
        [row] = self._rows(s)
        _, _, _, calls, total, min_ms, max_ms, p50, p95, p99 = row[:10]
        assert calls == 1
        assert min_ms == pytest.approx(max_ms)
        assert p50 == pytest.approx(p95) == pytest.approx(p99)
        assert min_ms <= p50 <= max_ms or p50 == pytest.approx(min_ms)

    def test_two_calls_stay_within_min_max(self, citus, citus_session):
        s = citus_session
        s.execute("CREATE TABLE lowq2 (k int PRIMARY KEY, v int)")
        s.execute("SELECT create_distributed_table('lowq2', 'k')")
        s.execute("SELECT citus_stat_statements_reset()")
        # Same key twice: stat entries are keyed (fingerprint, tenant), so
        # two different partition-key values would split into two n=1 rows.
        s.execute("SELECT v FROM lowq2 WHERE k = $1", [1])
        s.execute("SELECT v FROM lowq2 WHERE k = $1", [1])
        rows = [r for r in self._rows(s) if r[3] == 2]
        assert rows, "expected one fingerprint with two calls"
        for row in rows:
            _, _, _, calls, total, min_ms, max_ms, p50, p95, p99 = row[:10]
            assert p50 <= p95 <= p99
            assert min_ms - 1e-9 <= p50 and p99 <= max_ms + 1e-9
