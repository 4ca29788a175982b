"""Quickstart: create a Citus cluster, distribute tables, run queries.

Run with: python examples/quickstart.py
"""

from repro import make_cluster

# A coordinator plus four workers — the paper's "Citus 4+1" shape.
citus = make_cluster(workers=4, shard_count=16)
session = citus.coordinator_session()

# Citus tables start as regular PostgreSQL tables ...
session.execute("""
    CREATE TABLE companies (
        company_id int PRIMARY KEY,
        name text NOT NULL
    )
""")
session.execute("""
    CREATE TABLE campaigns (
        company_id int REFERENCES companies (company_id),
        campaign_id int,
        name text,
        budget float,
        PRIMARY KEY (company_id, campaign_id)
    )
""")

# ... and are converted by calling Citus UDFs, exactly as in the paper.
session.execute("SELECT create_distributed_table('companies', 'company_id')")
session.execute(
    "SELECT create_distributed_table('campaigns', 'company_id',"
    " colocate_with := 'companies')"
)

# Writes are routed to shards by hashing the distribution column.
for company in range(1, 21):
    session.execute(
        "INSERT INTO companies VALUES ($1, $2)", [company, f"company-{company}"]
    )
    for campaign in range(1, 4):
        session.execute(
            "INSERT INTO campaigns VALUES ($1, $2, $3, $4)",
            [company, campaign, f"campaign-{campaign}", 100.0 * campaign],
        )

# A single-tenant query uses the router planner: the whole query ships to
# one worker with minimal overhead.
result = session.execute("""
    SELECT c.name, sum(g.budget) AS total_budget
    FROM companies c JOIN campaigns g ON c.company_id = g.company_id
    WHERE c.company_id = 7
    GROUP BY c.name
""")
print("router query:", result.rows)

# A cross-tenant analytical query uses the logical pushdown planner with
# two-phase aggregation across all shards in parallel.
result = session.execute("""
    SELECT count(DISTINCT c.company_id) FROM companies c
""")
print("companies:", result.rows)

result = session.execute("""
    SELECT g.name, avg(g.budget) AS avg_budget, count(*)
    FROM campaigns g
    GROUP BY g.name ORDER BY avg_budget DESC
""")
print("cross-tenant aggregate:")
for row in result.rows:
    print("  ", row)

# EXPLAIN shows which of the four planners handled a query.
for sql in (
    "SELECT * FROM campaigns WHERE company_id = 7 AND campaign_id = 1",
    "SELECT name, sum(budget) FROM campaigns GROUP BY name",
):
    print(f"\nEXPLAIN {sql}")
    for line in session.execute("EXPLAIN " + sql).rows:
        print("  " + line[0])

# Transactions across tenants use two-phase commit transparently.
session.execute("BEGIN")
session.execute("UPDATE campaigns SET budget = budget + 10 WHERE company_id = 3")
session.execute("UPDATE campaigns SET budget = budget - 10 WHERE company_id = 11")
session.execute("COMMIT")
print("\n2PC commits so far:", session.stats.get("citus_2pc_commits", 0))
counters = citus.coordinator_ext.stat_counters.snapshot().counters
print("planner stats:", {name: sum(per_node.values())
                         for name, per_node in sorted(counters.items())
                         if name.startswith("planner_")})
