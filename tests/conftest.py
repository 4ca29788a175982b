"""Shared fixtures: single-instance engines and Citus clusters."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro import PostgresInstance, make_cluster
from repro.engine.stats import bucket_percentile, log_bucket


@pytest.fixture
def pg():
    """A fresh single PostgreSQL-like instance."""
    return PostgresInstance("pg_test")


@pytest.fixture
def session(pg):
    """A connected session on a fresh instance."""
    return pg.connect()


@pytest.fixture
def citus():
    """A fresh 2-worker Citus cluster with 8 shards per table."""
    return make_cluster(workers=2, shard_count=8)


@pytest.fixture
def citus_session(citus):
    return citus.coordinator_session()


@pytest.fixture
def citus4():
    """A 4-worker cluster for scaling-sensitive tests."""
    return make_cluster(workers=4, shard_count=16)


def find_keys_on_distinct_nodes(citus, table: str, count: int = 2) -> list[int]:
    """Integer distribution-column values that hash to different nodes."""
    from repro.engine.datum import hash_value

    ext = citus.coordinator_ext
    dist = ext.metadata.cache.get_table(table)
    seen_nodes: dict[str, int] = {}
    for key in range(1, 10_000):
        index = dist.shard_index_for_hash(hash_value(key))
        node = ext.metadata.cache.placement_node(dist.shards[index].shardid)
        if node not in seen_nodes:
            seen_nodes[node] = key
        if len(seen_nodes) >= count:
            return list(seen_nodes.values())[:count]
    raise AssertionError("could not find keys on distinct nodes")


def counters_dict(session):
    """citus_stat_counters() rows as {(name, node): value}."""
    rows = session.execute("SELECT citus_stat_counters()").rows
    out = {}
    for (entries,) in rows:
        for name, node, value in entries:
            out[(name, node)] = value
    return out


def counter_total(session, name):
    return sum(v for (n, _node), v in counters_dict(session).items() if n == name)


def explain_text(session, sql: str, params=None) -> str:
    return "\n".join(r[0] for r in session.execute("EXPLAIN " + sql, params).rows)


def percentile(values, p: float) -> float:
    """Percentile ``p`` of ``values`` as ``citus_stat_statements`` keeps
    them: counts per ``log_bucket``, clamped to the exact extremes."""
    return bucket_percentile(Counter(map(log_bucket, values)), len(values),
                             min(values, default=math.inf),
                             max(values, default=0.0), p)
