"""The single-node oracle the distributed tests compare against.

A plain ``repro.engine`` instance runs the same statements over the same
data as a cluster; the distributed layer must return what it returns.
Set-up functions take ``distributed`` so one body loads both sides.
"""

from repro import PostgresInstance
from repro.workloads import gharchive, tpch

ROLLUP = ("INSERT INTO rollup SELECT tenant, v, count(*), sum(v) FROM events"
          " GROUP BY tenant, v")


def oracle_session():
    return PostgresInstance("oracle").connect()


def load(session, distributed: bool) -> None:
    session.execute("CREATE TABLE events (k int PRIMARY KEY, tenant int, v int, label text)")
    session.execute("CREATE TABLE tenants (id int PRIMARY KEY, plan text)")
    session.execute("CREATE TABLE rollup (tenant int, bucket int, n int, total int)")
    if distributed:
        session.execute("SELECT create_distributed_table('events', 'k')")
        session.execute("SELECT create_reference_table('tenants')")
        # Not co-located with events, so the INSERT..SELECT repartitions.
        session.execute("SELECT create_distributed_table('rollup', 'tenant',"
                        " colocate_with := 'none')")
    session.copy_rows("events", [[k, (k * 31) % 40, (k * 7) % 50, f"label-{k % 97}"]
                                 for k in range(1, 2001)])
    session.copy_rows("tenants", [[t, f"plan{t % 4}"] for t in range(40)])
    # A bool and an int column whose values collide as Python objects.
    session.execute("CREATE TABLE flags (k int PRIMARY KEY, b bool, n int)")
    if distributed:
        session.execute("SELECT create_distributed_table('flags', 'k')")
    session.copy_rows("flags", [[k, k % 2 == 0, k % 2] for k in range(1, 41)])
    session.execute(ROLLUP)
    tpch.create_schema(session, distributed=distributed)
    tpch.load_data(session, tpch.TpchConfig(
        customers=40, suppliers=40, orders=600, max_lines_per_order=5))
    gharchive.create_schema(session, distributed=distributed)
    gharchive.load_events(session, gharchive.ArchiveConfig(events=100))
    session.execute(gharchive.TRANSFORM_QUERY)


def normalized(rows):
    """Float sums add up in shard order; compare them to 6 decimals."""
    return [[round(v, 6) if isinstance(v, float) else v for v in row] for row in rows]
