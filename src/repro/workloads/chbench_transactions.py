"""TPC-C-style transactions over the CH-benCHmark schema.

The real CH-benCHmark runs the analytical queries *while* TPC-C business
transactions modify the data.  This driver provides the three transaction
types that matter for the delta-main engine's behaviour:

* ``new_order``  — insert an order, its orderlines, and a neworder entry in
  one transaction (the business-object insert pattern: temporal locality
  holds, so the resulting delta rows stay prunable);
* ``payment``    — update a customer's balance (a main invalidation: main
  compensation / maintenance territory);
* ``delivery``   — take the oldest undelivered order: delete its neworder
  row, stamp the carrier, and set the delivery date on its orderlines
  (a burst of updates and one delete).

``run(n)`` executes a weighted mix modelled on the TPC-C transaction blend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..database import Database
from .chbench import ChBenchmark
from .rng import iso_date, make_rng


@dataclass
class TransactionCounts:
    """How many of each transaction type a ``run`` executed."""

    new_order: int = 0
    payment: int = 0
    delivery: int = 0

    @property
    def total(self) -> int:
        """Total transactions executed."""
        return self.new_order + self.payment + self.delivery


class ChTransactionDriver:
    """Executes TPC-C-style transactions against a loaded ChBenchmark."""

    def __init__(self, benchmark: ChBenchmark, seed: int = 1):
        self.db: Database = benchmark.db
        self.benchmark = benchmark
        self._rng = make_rng(seed)
        self.counts = TransactionCounts()

    # ------------------------------------------------------------------
    def new_order(self, year: int = 2014) -> int:
        """One NEW-ORDER transaction; returns the order's surrogate key."""
        db = self.db
        bench = self.benchmark
        rng = self._rng
        config = bench.config
        o_key = bench._next["orders"]
        bench._next["orders"] += 1
        warehouse = rng.randint(1, config.warehouses)
        txn = db.begin()
        db.insert(
            "orders",
            {
                "o_key": o_key,
                "o_w_id": warehouse,
                "o_d_id": rng.randint(1, config.districts_per_warehouse),
                "o_id": o_key,
                "o_c_key": rng.choice(bench._customer_keys),
                "o_entry_d": iso_date(rng, year),
                "o_year": year,
                "o_carrier_id": None,
            },
            txn=txn,
        )
        no_key = bench._next["neworder"]
        bench._next["neworder"] += 1
        db.insert("neworder", {"no_key": no_key, "no_o_key": o_key}, txn=txn)
        lines = []
        for _line in range(config.orderlines_per_order):
            i_id = rng.choice(bench._item_keys)
            ol_key = bench._next["orderline"]
            bench._next["orderline"] += 1
            lines.append(
                {
                    "ol_key": ol_key,
                    "ol_o_key": o_key,
                    "ol_i_id": i_id,
                    "ol_s_key": bench._stock_key_by_item_wh[(i_id, warehouse)],
                    "ol_quantity": rng.randint(1, 10),
                    "ol_amount": round(rng.uniform(10.0, 500.0), 2),
                    "ol_delivery_d": None,
                }
            )
        db.insert_many("orderline", lines, txn=txn)
        txn.commit()
        self.counts.new_order += 1
        return o_key

    def payment(self) -> Optional[int]:
        """One PAYMENT transaction; returns the paid customer key."""
        bench = self.benchmark
        if not bench._customer_keys:
            return None
        c_key = self._rng.choice(bench._customer_keys)
        row = self.db.table("customer").get_row(c_key)
        amount = round(self._rng.uniform(1.0, 5000.0), 2)
        self.db.update(
            "customer", c_key, {"c_balance": row["c_balance"] - amount}
        )
        self.counts.payment += 1
        return c_key

    def delivery(self) -> Optional[int]:
        """One DELIVERY transaction; returns the delivered order key, or
        None if no undelivered orders remain."""
        db = self.db
        target = self._oldest_neworder()
        if target is None:
            return None
        no_key, o_key = target
        txn = db.begin()
        db.delete("neworder", no_key, txn=txn)
        db.update(
            "orders",
            o_key,
            {"o_carrier_id": self._rng.randint(1, 10)},
            txn=txn,
        )
        for ol_key in self._orderlines_of(o_key):
            db.update(
                "orderline", ol_key, {"ol_delivery_d": iso_date(self._rng, 2014)},
                txn=txn,
            )
        txn.commit()
        self.counts.delivery += 1
        return o_key

    # ------------------------------------------------------------------
    def run(self, transactions: int) -> TransactionCounts:
        """Execute a TPC-C-flavoured weighted mix of transactions."""
        for _ in range(transactions):
            draw = self._rng.random()
            if draw < 0.45:
                self.new_order()
            elif draw < 0.88:
                self.payment()
            else:
                if self.delivery() is None:
                    self.new_order()
        return self.counts

    # ------------------------------------------------------------------
    def _oldest_neworder(self) -> Optional[tuple]:
        """The smallest live (no_key, no_o_key) pair, scanning visibly."""
        table = self.db.table("neworder")
        snapshot = self.db.transactions.global_snapshot()
        best = None
        for partition in table.partitions():
            keys = partition.column("no_key")
            orders = partition.column("no_o_key")
            for row in partition.visible_rows(snapshot):
                candidate = (keys.value_at(int(row)), orders.value_at(int(row)))
                if best is None or candidate[0] < best[0]:
                    best = candidate
        return best

    def _orderlines_of(self, o_key: int) -> List[int]:
        table = self.db.table("orderline")
        snapshot = self.db.transactions.global_snapshot()
        found: List[int] = []
        for partition in table.partitions():
            mask = partition.column("ol_o_key").equality_mask(o_key)
            visible = partition.visible_mask(snapshot)
            keys = partition.column("ol_key")
            import numpy as np

            for row in np.flatnonzero(mask & visible):
                found.append(keys.value_at(int(row)))
        return found
