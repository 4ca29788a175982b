"""Every command the coordinator sends a shard placement, held to what it
sent before it was built as an AST.

Each scenario runs one command kind on a fresh (2 workers, 4 shards)
cluster with ``RemoteConnection.execute`` / ``execute_parsed`` /
``execute_cursor`` wrapped from outside: what was shipped — SQL text, or an AST as its deparse — in
order and per node, each node's round trips and bytes, and the simulated
clock. ``tests/golden/placement_commands.json`` holds the same record
taken from the tree where these commands were still SQL text, so a command
that is an AST now must deparse to the text it replaced, cost the same on
the wire and leave simulated time where it was. To write the record from
a tree::

    PYTHONPATH=src python -m tests.test_placement_commands \\
        > tests/golden/placement_commands.json

The scenarios use public surfaces only, so the same file runs on both
trees.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys

import pytest

from repro import make_cluster
from repro.citus import register_distributed_procedure
from repro.errors import ForeignKeyViolation, MetadataError
from repro.net.network import RemoteConnection
from repro.sql import ast as A
from repro.sql import parse
from repro.sql.deparse import deparse
from tests.conftest import find_keys_on_distinct_nodes

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "placement_commands.json")

#: Scenarios whose commands may go out in another order (the per-node
#: multiset is still the recorded one): the tenant-isolation split creates
#: every member's shards before it copies any.
UNORDERED = {"isolate_tenant"}


def normalized(sql: str) -> str:
    """``sql`` without what process-global counters put in it: 2PC gids
    and the session number in intermediate names."""
    sql = re.sub(r"'(citus_\w+?_\d+_)\d+'", r"'\1N'", sql)
    return re.sub(r"citus_subplan_\d+_", "citus_subplan_N_", sql)


def _catalog_nodes(catalog) -> set:
    """ids of the expression nodes a catalog holds (defaults, index keys)."""
    ids = set()
    for table in catalog.tables.values():
        for column in table.columns:
            ids.update(id(n) for n in A.walk(column.default))
        for index in table.indexes.values():
            ids.update(id(n) for n in A.walk(index.exprs))
    return ids


class Shipped:
    """What crossed a RemoteConnection while ``on``: ``commands`` as
    ``[node, normalized SQL]`` (cursor reads included), the function that
    called ``RemoteConnection.execute`` for each text, the ASTs, and every
    connection opened (for per-node traffic)."""

    def __init__(self):
        self.on = False
        self.catalog = None  # the coordinator's: no AST may share its nodes
        self.commands, self.text_callers, self.asts = [], [], []
        self.sharing, self.connections = [], []

    @contextlib.contextmanager
    def installed(self):
        init = RemoteConnection.__init__
        execute = RemoteConnection.execute
        execute_parsed = RemoteConnection.execute_parsed
        execute_cursor = RemoteConnection.execute_cursor
        shipped = self

        def recording_init(conn, *args, **kwargs):
            init(conn, *args, **kwargs)
            shipped.connections.append(conn)

        def recording_execute(conn, sql, *args, **kwargs):
            if shipped.on:
                shipped.text_callers.append(sys._getframe(1).f_code.co_name)
                shipped.commands.append([conn.node_name, normalized(sql)])
            return execute(conn, sql, *args, **kwargs)

        def record_ast(conn, stmt):
            if shipped.on:
                shipped.asts.append(stmt)
                shipped.commands.append([conn.node_name, normalized(deparse(stmt))])
                if shipped.catalog is not None and (
                        {id(n) for n in A.walk(stmt)}
                        & _catalog_nodes(shipped.catalog)):
                    shipped.sharing.append(deparse(stmt))

        def recording_execute_parsed(conn, stmt, *args, **kwargs):
            record_ast(conn, stmt)
            return execute_parsed(conn, stmt, *args, **kwargs)

        def recording_execute_cursor(conn, stmt, *args, **kwargs):
            record_ast(conn, stmt)
            return execute_cursor(conn, stmt, *args, **kwargs)

        RemoteConnection.__init__ = recording_init
        RemoteConnection.execute = recording_execute
        RemoteConnection.execute_parsed = recording_execute_parsed
        RemoteConnection.execute_cursor = recording_execute_cursor
        try:
            yield self
        finally:
            RemoteConnection.__init__ = init
            RemoteConnection.execute = execute
            RemoteConnection.execute_parsed = execute_parsed
            RemoteConnection.execute_cursor = execute_cursor


# ----------------------------------------------------------------- schemas
#
# A setup is ``setup(citus, session) -> state``, an action
# ``action(citus, session, state)``; only the action is recorded.


def kinds(c, s, distribute=True):
    s.execute("CREATE TABLE kinds (kind int PRIMARY KEY, label text)")
    s.execute("INSERT INTO kinds VALUES (0, 'even'), (1, 'odd')")
    if distribute:
        s.execute("SELECT create_reference_table('kinds')")


def customers(c, s, distribute=True):
    kinds(c, s)
    s.execute("CREATE TABLE customers (cid int PRIMARY KEY, name text,"
              " kind int REFERENCES kinds (kind))")
    if distribute:
        s.execute("SELECT create_distributed_table('customers', 'cid')")
        s.copy_rows("customers", [[cid, f"c{cid}", cid % 2] for cid in range(20)])


def orders(c, s, distribute=True):
    """kinds (reference) ← customers ← orders, co-located on cid, orders
    with a serial, a default and an expression index."""
    customers(c, s)
    s.execute("CREATE TABLE orders (oid serial, cid int NOT NULL,"
              " total int DEFAULT 0, note text, PRIMARY KEY (cid, oid),"
              " FOREIGN KEY (cid) REFERENCES customers (cid))")
    s.execute("CREATE INDEX orders_note ON orders (lower(note))")
    if distribute:
        s.execute("SELECT create_distributed_table('orders', 'cid',"
                  " colocate_with := 'customers')")
        for cid in range(20):
            s.execute("INSERT INTO orders (cid, total, note) VALUES ($1, $2, 'n')",
                      [cid, cid * 3])
    return dist_shard(c, "customers")


def payments(c, s):
    """orders' schema plus ``payments``, co-located, without foreign keys."""
    orders(c, s)
    s.execute("CREATE TABLE payments (cid int, pid int, kind int,"
              " PRIMARY KEY (cid, pid))")
    s.execute("SELECT create_distributed_table('payments', 'cid',"
              " colocate_with := 'customers')")


def dead_orders(c, s):
    orders(c, s)
    s.execute("UPDATE orders SET total = total + 1")


def dist_shard(c, table: str):
    return c.coordinator_ext.metadata.cache.get_table(table).shards[0].shardid


def accounts(c, s):
    """``t`` with rows; the state is a key on each worker."""
    s.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    s.execute("SELECT create_distributed_table('t', 'k')")
    s.copy_rows("t", [[k, 0] for k in range(40)])
    return find_keys_on_distinct_nodes(c, "t")


def unfinished_two_phase(c, s, with_records=True):
    """A 2PC whose second phase never ran (and, without records, whose
    coordinator never wrote them): recovery's to resolve."""
    keys = accounts(c, s)
    c.coordinator_ext.failpoints["skip_commit_prepared"] = True
    two_phase_commit(c, s, keys)
    c.coordinator_ext.failpoints.clear()
    if not with_records:
        s.execute("DELETE FROM pg_dist_transaction")


def joins(c, s):
    s.execute("CREATE TABLE lhs (key int PRIMARY KEY, id int, total int)")
    s.execute("SELECT create_distributed_table('lhs', 'key')")
    s.execute("CREATE TABLE rhs (okey int PRIMARY KEY, val int, pad text)")
    s.execute("SELECT create_distributed_table('rhs', 'okey',"
              " colocate_with := 'none')")
    s.copy_rows("lhs", [[k, k % 5, k] for k in range(1, 13)])
    s.copy_rows("rhs", [[k, k * 10, "p" * 200] for k in range(1, 41)])


def tenants(c, s):
    s.execute("CREATE TABLE tenants (tid int PRIMARY KEY, name text)")
    s.execute("SELECT create_distributed_table('tenants', 'tid')")
    s.execute("CREATE TABLE docs (tid int, did int, body text,"
              " PRIMARY KEY (tid, did))")
    s.execute("CREATE INDEX docs_body ON docs (body)")
    s.execute("SELECT create_distributed_table('docs', 'tid',"
              " colocate_with := 'tenants')")
    s.copy_rows("tenants", [[t, f"t{t}"] for t in range(30)])
    s.copy_rows("docs", [[t, d, f"b{d}"] for t in range(30) for d in range(2)])


def wallets(c, s):
    """A procedure delegated by its first argument; the state is a key on
    each worker."""
    s.execute("CREATE TABLE wallets (wid int PRIMARY KEY, balance int)")
    s.execute("SELECT create_distributed_table('wallets', 'wid')")
    s.copy_rows("wallets", [[w, 100] for w in range(20)])

    def deposit(session, wid, amount, memo):
        session.execute("UPDATE wallets SET balance = balance + $1"
                        " WHERE wid = $2", [amount, wid])

    register_distributed_procedure(c.coordinator_ext, "deposit", deposit,
                                   distribution_arg=0, colocated_table="wallets")
    c.enable_metadata_sync()
    return find_keys_on_distinct_nodes(c, "wallets")


# ----------------------------------------------------------------- actions


def each(*statements):
    def action(c, s, _state):
        for sql in statements:
            s.execute(sql)
    return action


def move_to_other_worker(c, s, shardid):
    node = c.coordinator_ext.metadata.cache.placement_node(shardid)
    s.execute("SELECT citus_move_shard_placement($1, $2)",
              [shardid, "worker2" if node == "worker1" else "worker1"])


def one_phase_commit(c, s, keys):
    """A reader on one worker (plain COMMIT), the writer on the other."""
    s.execute("BEGIN")
    s.execute("SELECT v FROM t WHERE k = $1", [keys[1]])
    s.execute("UPDATE t SET v = 5 WHERE k = $1", [keys[0]])
    s.execute("COMMIT")


def one_phase_abort(c, s, keys):
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = 5 WHERE k = $1", [keys[0]])
    s.execute("ROLLBACK")


def two_phase_commit(c, s, keys):
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = v + 1 WHERE k = $1", [keys[0]])
    s.execute("UPDATE t SET v = v - 1 WHERE k = $1", [keys[1]])
    s.execute("COMMIT")


def two_phase_abort(c, s, keys):
    s.execute("BEGIN")
    s.execute("UPDATE t SET v = 5 WHERE k = $1", [keys[0]])
    s.execute("UPDATE t SET v = 6 WHERE k = $1", [keys[1]])
    s.execute("ROLLBACK")


def maintenance(c, s, _state):
    c.run_maintenance()


def delegated_calls(c, s, keys):
    for key in keys:
        s.execute("CALL deposit($1, 5, 'it''s')", [key])


SCENARIOS = {
    "create_reference_table": (
        lambda c, s: kinds(c, s, distribute=False),
        each("SELECT create_reference_table('kinds')")),
    "create_distributed_table": (
        lambda c, s: customers(c, s, distribute=False),
        each("SELECT create_distributed_table('customers', 'cid')")),
    "create_colocated_with_foreign_key": (
        lambda c, s: orders(c, s, distribute=False),
        each("SELECT create_distributed_table('orders', 'cid',"
             " colocate_with := 'customers')")),
    "create_index": (orders, each(
        "CREATE INDEX orders_total ON orders (total)",
        "CREATE UNIQUE INDEX kinds_label ON kinds (lower(label))")),
    "alter_add_column": (orders, each(
        "ALTER TABLE orders ADD COLUMN flag int DEFAULT 1",
        "ALTER TABLE kinds ADD COLUMN weight int")),
    "alter_add_foreign_key": (payments, each(
        "ALTER TABLE payments ADD FOREIGN KEY (cid) REFERENCES customers (cid)",
        "ALTER TABLE payments ADD CONSTRAINT payments_kind"
        " FOREIGN KEY (kind) REFERENCES kinds (kind)")),
    "drop_index": (orders, each("DROP INDEX orders_note")),
    "truncate": (orders, each("TRUNCATE orders")),
    "vacuum": (dead_orders, each("VACUUM orders", "VACUUM kinds")),
    "drop_table": (orders, each("DROP TABLE orders")),
    "move_shard": (orders, move_to_other_worker),
    "isolate_tenant": (tenants, each(
        "SELECT isolate_tenant_to_new_shard('tenants', 7)")),
    "repartition_join": (joins, each(
        "SELECT count(*) FROM lhs o JOIN rhs x ON o.id = x.okey")),
    "broadcast_join": (joins, each(
        "SELECT count(*) FROM lhs o JOIN rhs x ON o.id = x.val")),
    "commit_1pc": (accounts, one_phase_commit),
    "abort_1pc": (accounts, one_phase_abort),
    "commit_2pc": (accounts, two_phase_commit),
    "abort_2pc": (accounts, two_phase_abort),
    "recovery_commit": (unfinished_two_phase, maintenance),
    "recovery_abort": (
        lambda c, s: unfinished_two_phase(c, s, with_records=False), maintenance),
    "delegated_call": (wallets, delegated_calls),
    "run_command_on_workers": (accounts, each(
        "SELECT run_command_on_workers('VACUUM')")),
}


def run_scenario(name: str):
    """``(record, shipped)`` of one scenario's action."""
    setup, action = SCENARIOS[name]
    shipped = Shipped()
    with shipped.installed():
        citus = make_cluster(workers=2, shard_count=4)
        s = citus.coordinator_session()
        state = setup(citus, s)
        before = {id(c): (c.round_trips, c.bytes_transferred)
                  for c in shipped.connections}
        shipped.catalog = citus.coordinator.catalog
        shipped.on = True
        action(citus, s, state)
        shipped.on = False
    traffic: dict[str, list[int]] = {}
    for conn in shipped.connections:
        trips, sent = before.get(id(conn), (0, 0))
        node = traffic.setdefault(conn.node_name, [0, 0])
        node[0] += conn.round_trips - trips
        node[1] += conn.bytes_transferred - sent
    record = {"commands": shipped.commands, "traffic": traffic,
              "clock": repr(citus.cluster.clock.now())}
    return record, shipped


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_command_ships_as_it_did_when_it_was_text(name, golden):
    record, shipped = run_scenario(name)
    want = golden[name]
    assert record["commands"], name
    if name in UNORDERED:
        assert sorted(record["commands"]) == sorted(want["commands"])
    else:
        assert record["commands"] == want["commands"]
    assert record["traffic"] == want["traffic"]
    assert record["clock"] == want["clock"]
    # Text is for the user's SQL only; every command of the coordinator's
    # own is an AST the worker would have parsed from that text, owning
    # none of the coordinator catalog's nodes.
    assert set(shipped.text_callers) <= {"run_command_on_workers"}
    assert bool(shipped.text_callers) == (name == "run_command_on_workers")
    assert not shipped.sharing
    for stmt in shipped.asts:
        if not isinstance(stmt, (A.Select, A.Insert, A.Update, A.Delete)):
            assert parse(deparse(stmt)) == [stmt], deparse(stmt)


def test_a_repeated_vacuum_or_two_phase_commit_parses_nothing(monkeypatch):
    from repro.engine import instance as engine

    citus = make_cluster(workers=2, shard_count=4)
    s = citus.coordinator_session()
    keys = accounts(citus, s)
    coordinator = citus.coordinator
    parsed, worker_texts = [], []
    parse_text, execute = engine.parse_text, engine.Session.execute

    def counting_parse(sql):
        parsed.append(sql)
        return parse_text(sql)

    def counting_execute(session, sql, *args, **kwargs):
        if session.instance is not coordinator:
            worker_texts.append(sql)
        return execute(session, sql, *args, **kwargs)

    monkeypatch.setattr(engine, "parse_text", counting_parse)
    monkeypatch.setattr(engine.Session, "execute", counting_execute)
    with citus.coordinator_ext.stat_counters.measure() as m:
        for run in (lambda: s.execute("VACUUM t"),
                    lambda: two_phase_commit(citus, s, keys)):
            run()  # the coordinator parses its own statements once
            del parsed[:], worker_texts[:]
            run()
            assert (parsed, worker_texts) == ([], [])
    assert m.value("twopc_commit_prepared") == 4


# ------------------------------------------ ALTER TABLE .. ADD FOREIGN KEY


@pytest.fixture
def fk(citus, citus_session):
    payments(citus, citus_session)
    return citus_session


def shard_foreign_keys(citus, table: str) -> list[list]:
    """Per shard of ``table``: the tables its foreign keys reference."""
    ext = citus.coordinator_ext
    out = []
    for shard in ext.metadata.cache.get_table(table).shards:
        node = citus.cluster.node(ext.metadata.cache.placement_node(shard.shardid))
        out.append(sorted(fk.ref_table for fk in
                          node.catalog.get_table(shard.shard_name).foreign_keys))
    return out


class TestAddForeignKey:
    def test_a_key_to_a_reference_table_references_its_replica(self, citus, fk):
        fk.execute("ALTER TABLE payments ADD CONSTRAINT payments_kind"
                   " FOREIGN KEY (kind) REFERENCES kinds (kind)")
        cache = citus.coordinator_ext.metadata.cache
        replica = cache.get_table("kinds").shards[0]
        assert shard_foreign_keys(citus, "payments") == [
            [replica.shard_name]] * cache.get_table("payments").shard_count
        fk.execute("INSERT INTO payments VALUES (1, 1, 0)")
        with pytest.raises(ForeignKeyViolation):
            fk.execute("INSERT INTO payments VALUES (1, 2, 9)")

    def test_a_key_to_a_colocated_table_references_the_shard_beside_it(
            self, citus, fk):
        fk.execute("ALTER TABLE payments ADD FOREIGN KEY (cid)"
                   " REFERENCES customers (cid)")
        cache = citus.coordinator_ext.metadata.cache
        assert shard_foreign_keys(citus, "payments") == [
            [shard.shard_name] for shard in cache.get_table("customers").shards]
        fk.execute("INSERT INTO payments VALUES (3, 1, 0)")
        with pytest.raises(ForeignKeyViolation):
            fk.execute("INSERT INTO payments VALUES (99, 1, 0)")

    def test_a_key_to_a_local_table_is_rejected(self, fk):
        fk.execute("CREATE TABLE regions (rid int PRIMARY KEY)")
        with pytest.raises(MetadataError, match="foreign key from distributed"
                           " table to local table 'regions' is not supported"):
            fk.execute("ALTER TABLE payments ADD FOREIGN KEY (kind)"
                       " REFERENCES regions (rid)")

    def test_a_key_to_a_table_of_another_group_is_rejected(self, fk):
        fk.execute("CREATE TABLE loose (lid int PRIMARY KEY)")
        fk.execute("SELECT create_distributed_table('loose', 'lid',"
                   " colocate_with := 'none')")
        with pytest.raises(MetadataError, match="foreign keys between"
                           " distributed tables require co-location"):
            fk.execute("ALTER TABLE payments ADD FOREIGN KEY (kind)"
                       " REFERENCES loose (lid)")


if __name__ == "__main__":
    json.dump({name: run_scenario(name)[0] for name in SCENARIOS}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
