"""High-performance CRUD (§2.3 / §4.3): scaling reads, writes, and
connections.

Shows the YCSB-style key-value pattern on distributed tables, the
fast-path planner's minimal overhead, scaling the coordinator out by
syncing metadata to every worker ("each worker node assumes the role of
coordinator", §3.2.1), and PgBouncer-style pooling between nodes.

Run with: python examples/high_performance_crud.py
"""

from repro import make_cluster
from repro.net.pool import ConnectionPool
from repro.workloads import ycsb

citus = make_cluster(workers=4, shard_count=32)
session = citus.coordinator_session()

# Documents with a JSONB payload, distributed by key (§2.3's shape).
ycsb.create_schema(session, distributed=True)
config = ycsb.YcsbConfig(records=500)
loaded = ycsb.load_data(session, config)
print(f"loaded {loaded} documents")

# Single-key CRUD goes through the fast path planner: one task, no
# query-tree analysis.
key = ycsb.key_name(123)
print("\nEXPLAIN single-key read:")
for line in session.execute(
    "EXPLAIN SELECT * FROM usertable WHERE ycsb_key = $1", [key]
).rows:
    print("  " + line[0])

import dataclasses
workload_a = dataclasses.replace(config, read_fraction=0.5)
driver = ycsb.YcsbDriver(session, workload_a)
stats = driver.run(300)
print(f"\nworkload A via coordinator: {stats.operations} ops"
      f" ({stats.reads} reads / {stats.updates} updates, {stats.read_misses} misses)")
print("fast path queries:",
      citus.coordinator_ext.stat_counters.value("planner_fast_path"))

# Scale the coordinator out: sync metadata so every node plans queries.
citus.enable_metadata_sync()
sessions = [citus.session_on(name) for name in citus.worker_names()]
balanced = ycsb.YcsbDriver(sessions, workload_a, seed_offset=1)
stats = balanced.run(300)
print(f"\nworkload A load-balanced over {len(sessions)} worker-coordinators:"
      f" {stats.operations} ops, {stats.read_misses} misses")

# Each worker-coordinator fans out intra-cluster connections; PgBouncer
# between the nodes bounds them (§3.2.1).
pool = ConnectionPool(citus.cluster.node("worker1"), pool_size=4,
                      max_client_conn=100)
clients = [pool.client() for _ in range(20)]
for i, client in enumerate(clients):
    client.execute("SELECT * FROM usertable WHERE ycsb_key = $1",
                   [ycsb.key_name(i)])
print(f"\npgbouncer: 20 clients served by ≤{pool.pool_size} server sessions"
      f" (peak leases: {pool.peak_leases})")

# Parallel scan across all documents (Table 2: parallel distributed SELECT
# is 'useful for performing scans and analytics across a large number of
# objects').
count = session.execute(
    "SELECT count(*) FROM usertable WHERE field0 LIKE 'a%'"
).scalar()
print(f"\ndocuments with field0 starting 'a': {count}")
