"""HammerDB-style TPC-C workload (§4.1).

"The benchmark effectively models a multi-tenant OLTP workload in which
warehouses are the tenants. Most tables have a warehouse ID column and most
transactions only affect a single warehouse ID ... Around ~7% of
transactions span across multiple warehouses."

The schema follows TPC-C (trimmed column lists), distributed exactly as the
paper describes: ``items`` is a reference table, every other table is
distributed and co-located on the warehouse id, and the NEW ORDER / PAYMENT
procedures can be delegated to workers by warehouse id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import LockTimeout, SQLError, TransactionError

SCHEMA = """
CREATE TABLE items (
    i_id int PRIMARY KEY,
    i_name text NOT NULL,
    i_price float NOT NULL
);
CREATE TABLE warehouse (
    w_id int PRIMARY KEY,
    w_name text,
    w_tax float,
    w_ytd float
);
CREATE TABLE district (
    d_w_id int,
    d_id int,
    d_tax float,
    d_ytd float,
    d_next_o_id int,
    PRIMARY KEY (d_w_id, d_id)
);
CREATE TABLE customer (
    c_w_id int,
    c_d_id int,
    c_id int,
    c_name text,
    c_balance float,
    c_ytd_payment float,
    PRIMARY KEY (c_w_id, c_d_id, c_id)
);
CREATE TABLE orders (
    o_w_id int,
    o_d_id int,
    o_id int,
    o_c_id int,
    o_entry_d timestamp,
    o_ol_cnt int,
    PRIMARY KEY (o_w_id, o_d_id, o_id)
);
CREATE TABLE order_line (
    ol_w_id int,
    ol_d_id int,
    ol_o_id int,
    ol_number int,
    ol_i_id int,
    ol_supply_w_id int,
    ol_quantity int,
    ol_amount float,
    PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)
);
CREATE TABLE stock (
    s_w_id int,
    s_i_id int,
    s_quantity int,
    s_ytd float,
    PRIMARY KEY (s_w_id, s_i_id)
);
"""

DISTRIBUTION = """
SELECT create_reference_table('items');
SELECT create_distributed_table('warehouse', 'w_id');
SELECT create_distributed_table('district', 'd_w_id', colocate_with := 'warehouse');
SELECT create_distributed_table('customer', 'c_w_id', colocate_with := 'warehouse');
SELECT create_distributed_table('orders', 'o_w_id', colocate_with := 'warehouse');
SELECT create_distributed_table('order_line', 'ol_w_id', colocate_with := 'warehouse');
SELECT create_distributed_table('stock', 's_w_id', colocate_with := 'warehouse');
"""

DISTRICTS_PER_WAREHOUSE = 4
CUSTOMERS_PER_DISTRICT = 10


@dataclass
class TpccConfig:
    warehouses: int = 4
    items: int = 50
    seed: int = 42
    cross_warehouse_fraction: float = 0.07  # the paper's ~7%


@dataclass
class TpccStats:
    new_orders: int = 0
    payments: int = 0
    order_statuses: int = 0
    deliveries: int = 0
    stock_levels: int = 0
    aborts: int = 0
    retries: int = 0

    @property
    def total(self) -> int:
        return (self.new_orders + self.payments + self.order_statuses
                + self.deliveries + self.stock_levels)


def create_schema(session, distributed: bool = True) -> None:
    session.execute(SCHEMA)
    if distributed:
        session.execute(DISTRIBUTION)


def load_data(session, config: TpccConfig) -> None:
    rng = random.Random(config.seed)
    session.copy_rows(
        "items",
        [[i, f"item-{i}", round(rng.uniform(1, 100), 2)] for i in range(1, config.items + 1)],
    )
    session.copy_rows(
        "warehouse",
        [[w, f"warehouse-{w}", round(rng.uniform(0, 0.2), 4), 0.0]
         for w in range(1, config.warehouses + 1)],
    )
    districts, customers, stocks = [], [], []
    for w in range(1, config.warehouses + 1):
        for d in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            districts.append([w, d, round(rng.uniform(0, 0.2), 4), 0.0, 1])
            for c in range(1, CUSTOMERS_PER_DISTRICT + 1):
                customers.append([w, d, c, f"customer-{w}-{d}-{c}", 0.0, 0.0])
        for i in range(1, config.items + 1):
            stocks.append([w, i, rng.randint(10, 100), 0.0])
    session.copy_rows("district", districts)
    session.copy_rows("customer", customers)
    session.copy_rows("stock", stocks)


class TpccDriver:
    """Runs the TPC-C transaction mix against one session (one "virtual
    user"). Transactions follow the standard mix; ~7% of NEW ORDER lines
    name a remote supply warehouse, which makes the transaction multi-node
    under Citus."""

    def __init__(self, session, config: TpccConfig, seed_offset: int = 0):
        self.session = session
        self.config = config
        self.rng = random.Random(config.seed + 1000 + seed_offset)
        self.stats = TpccStats()

    # ------------------------------------------------------------ driving

    def run(self, transactions: int) -> TpccStats:
        for _ in range(transactions):
            self.run_one()
        return self.stats

    def run_one(self) -> None:
        roll = self.rng.random()
        try:
            if roll < 0.45:
                self.new_order()
            elif roll < 0.88:
                self.payment()
            elif roll < 0.92:
                self.order_status()
            elif roll < 0.96:
                self.delivery()
            else:
                self.stock_level()
        except (LockTimeout, TransactionError):
            self.stats.aborts += 1
            self._safe_rollback()

    def _safe_rollback(self) -> None:
        try:
            self.session.execute("ROLLBACK")
        except SQLError:
            pass

    def _warehouse(self) -> int:
        return self.rng.randint(1, self.config.warehouses)

    def _remote_warehouse(self, home: int) -> int:
        if self.config.warehouses == 1:
            return home
        while True:
            w = self.rng.randint(1, self.config.warehouses)
            if w != home:
                return w

    # ------------------------------------------------------- transactions

    def new_order(self) -> None:
        s = self.session
        w = self._warehouse()
        d = self.rng.randint(1, DISTRICTS_PER_WAREHOUSE)
        c = self.rng.randint(1, CUSTOMERS_PER_DISTRICT)
        n_lines = self.rng.randint(2, 5)
        s.execute("BEGIN")
        o_id = s.execute(
            "SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2 FOR UPDATE",
            [w, d],
        ).scalar()
        s.execute(
            "UPDATE district SET d_next_o_id = d_next_o_id + 1"
            " WHERE d_w_id = $1 AND d_id = $2",
            [w, d],
        )
        s.execute(
            "INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_entry_d, o_ol_cnt)"
            " VALUES ($1, $2, $3, $4, now(), $5)",
            [w, d, o_id, c, n_lines],
        )
        for line in range(1, n_lines + 1):
            item = self.rng.randint(1, self.config.items)
            supply_w = w
            if self.rng.random() < self.config.cross_warehouse_fraction:
                supply_w = self._remote_warehouse(w)
            price = s.execute(
                "SELECT i_price FROM items WHERE i_id = $1", [item]
            ).scalar()
            qty = self.rng.randint(1, 5)
            s.execute(
                "UPDATE stock SET s_quantity = s_quantity - $1, s_ytd = s_ytd + $2"
                " WHERE s_w_id = $3 AND s_i_id = $4",
                [qty, qty * (price or 1.0), supply_w, item],
            )
            s.execute(
                "INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number,"
                " ol_i_id, ol_supply_w_id, ol_quantity, ol_amount)"
                " VALUES ($1, $2, $3, $4, $5, $6, $7, $8)",
                [w, d, o_id, line, item, supply_w, qty, qty * (price or 1.0)],
            )
        s.execute("COMMIT")
        self.stats.new_orders += 1

    def payment(self) -> None:
        s = self.session
        w = self._warehouse()
        d = self.rng.randint(1, DISTRICTS_PER_WAREHOUSE)
        c_w = w
        if self.rng.random() < self.config.cross_warehouse_fraction:
            c_w = self._remote_warehouse(w)
        c = self.rng.randint(1, CUSTOMERS_PER_DISTRICT)
        amount = round(self.rng.uniform(1, 500), 2)
        s.execute("BEGIN")
        s.execute(
            "UPDATE warehouse SET w_ytd = w_ytd + $1 WHERE w_id = $2", [amount, w]
        )
        s.execute(
            "UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3",
            [amount, w, d],
        )
        s.execute(
            "UPDATE customer SET c_balance = c_balance - $1,"
            " c_ytd_payment = c_ytd_payment + $1"
            " WHERE c_w_id = $2 AND c_d_id = $3 AND c_id = $4",
            [amount, c_w, d, c],
        )
        s.execute("COMMIT")
        self.stats.payments += 1

    def order_status(self) -> None:
        s = self.session
        w = self._warehouse()
        d = self.rng.randint(1, DISTRICTS_PER_WAREHOUSE)
        c = self.rng.randint(1, CUSTOMERS_PER_DISTRICT)
        s.execute(
            "SELECT o_id, o_entry_d, o_ol_cnt FROM orders"
            " WHERE o_w_id = $1 AND o_d_id = $2 AND o_c_id = $3"
            " ORDER BY o_id DESC LIMIT 1",
            [w, d, c],
        )
        self.stats.order_statuses += 1

    def delivery(self) -> None:
        s = self.session
        w = self._warehouse()
        s.execute("BEGIN")
        for d in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            oldest = s.execute(
                "SELECT min(o_id) FROM orders WHERE o_w_id = $1 AND o_d_id = $2",
                [w, d],
            ).scalar()
            if oldest is None:
                continue
            s.execute(
                "UPDATE customer SET c_balance = c_balance + ("
                " SELECT coalesce(sum(ol_amount), 0) FROM order_line"
                " WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3)"
                " WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = ("
                " SELECT o_c_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2"
                " AND o_id = $3)",
                [w, d, oldest],
            )
        s.execute("COMMIT")
        self.stats.deliveries += 1

    def stock_level(self) -> None:
        s = self.session
        w = self._warehouse()
        s.execute(
            "SELECT count(*) FROM stock WHERE s_w_id = $1 AND s_quantity < $2",
            [w, 20],
        )
        self.stats.stock_levels += 1


def consistency_totals(session) -> dict:
    """Cross-checkable invariant inputs: per-warehouse sums used by tests
    to verify PostgreSQL and Citus runs produce identical state."""
    return {
        "orders": session.execute("SELECT count(*) FROM orders").scalar(),
        "order_lines": session.execute("SELECT count(*) FROM order_line").scalar(),
        "ytd": round(session.execute("SELECT coalesce(sum(w_ytd), 0) FROM warehouse").scalar() or 0, 2),
        "stock_ytd": round(session.execute("SELECT coalesce(sum(s_ytd), 0) FROM stock").scalar() or 0, 2),
        "balance": round(session.execute("SELECT coalesce(sum(c_balance), 0) FROM customer").scalar() or 0, 2),
    }
