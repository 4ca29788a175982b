"""Day-2 operations: elastic scaling, rebalancing, HA failover, and
consistent cluster-wide restore points (§3.4, §3.9).

Run with: python examples/operations.py
"""

from collections import Counter

from repro import make_cluster
from repro.citus.rebalancer import BY_DISK_SIZE, Rebalancer
from repro.net.cluster import StandbyConfig

citus = make_cluster(workers=2, shard_count=12)
session = citus.coordinator_session()

session.execute("""
    CREATE TABLE measurements (
        device_id int,
        ts int,
        metric float,
        PRIMARY KEY (device_id, ts)
    )
""")
session.execute("SELECT create_distributed_table('measurements', 'device_id')")
rows = [[d, t, float(d * t % 97)] for d in range(1, 61) for t in range(20)]
session.copy_rows("measurements", rows)
print("loaded", len(rows), "rows on 2 workers")


def placement_counts():
    ext = citus.coordinator_ext
    placements = ext.metadata.cache.placements
    return Counter(node for nodes in placements.values() for node in nodes)


print("placements:", dict(placement_counts()))

# -- Elastic scaling: add a node, rebalance shards onto it ---------------
citus.add_worker("worker3")
admin = citus.coordinator_session("admin")
moves = admin.execute("SELECT rebalance_table_shards()").scalar()
print(f"\nadded worker3; rebalancer moved {moves} shards")
print("placements:", dict(placement_counts()))
print("data intact:", session.execute("SELECT count(*) FROM measurements").scalar())

# Rebalancing by data size instead of shard count:
moves = Rebalancer(citus.coordinator_ext, BY_DISK_SIZE).rebalance(admin)
print(f"by-size rebalance: {len(moves)} additional moves")

# -- HA: standby promotion after node failure (§3.9) ---------------------
citus.cluster.enable_standby("worker1", StandbyConfig(mode="synchronous"))
before = session.execute("SELECT count(*) FROM measurements").scalar()
citus.cluster.fail_node("worker1")
citus.cluster.promote_standby("worker1")
citus.coordinator_ext._utility_connections.clear()
after = session.execute("SELECT count(*) FROM measurements").scalar()
print(f"\nfailover: count before={before} after={after}"
      f" (synchronous replication loses nothing)")
print("failover events:", citus.cluster.failover_log)

# -- Consistent restore point across all nodes (§3.9) --------------------
admin.execute("SELECT citus_create_restore_point('before_bad_deploy')")
session.execute("DELETE FROM measurements WHERE device_id <= 30")
print("\nafter bad deploy:", session.execute(
    "SELECT count(*) FROM measurements").scalar())
citus.restore_to_point("before_bad_deploy")
restored = citus.coordinator_session("post_restore")
print("after restore:", restored.execute(
    "SELECT count(*) FROM measurements").scalar())
