"""CH-benCHmark-style schema and generator (Funke et al. [10]).

The paper's third experiment runs four analytical TPC-H-derived queries of
the CH-benCHmark (Q3, Q5, Q9, Q10) over a TPC-C-shaped schema, with the
delta partitions of ``orders``, ``neworder``, ``orderline``, and ``stock``
populated with 5 % of each table's rows.

Adaptations (documented in DESIGN.md):

* **Surrogate keys.**  TPC-C uses composite keys (``o_w_id, o_d_id, o_id``);
  our engine's primary keys and matching dependencies are single-column, so
  every table carries a surrogate integer key (``o_key``, ``ol_key``, ...)
  and children carry the parent surrogate as foreign key.  Join shapes and
  cardinalities are unchanged.
* **Scale.**  ``ChConfig`` scales the row counts; defaults are laptop-sized
  rather than the paper's scale factor 200 (60 M orderlines).
* **Delta population.**  The generator loads a main phase, merges, then
  inserts the configured delta fraction as *recent business* — new orders
  with orderlines referencing mostly existing items/stock plus some freshly
  introduced ones, which reproduces the subjoin structure (some mixed
  main/delta subjoins prunable, others legitimately non-empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..database import Database
from ..storage.aging import threshold_aging
from .rng import iso_date, make_rng, tpcc_last_name

NATIONS = [
    ("GERMANY", "EUROPE"),
    ("FRANCE", "EUROPE"),
    ("UNITED_KINGDOM", "EUROPE"),
    ("UNITED_STATES", "AMERICA"),
    ("BRAZIL", "AMERICA"),
    ("JAPAN", "ASIA"),
    ("CHINA", "ASIA"),
]
REGIONS = ["EUROPE", "AMERICA", "ASIA"]
ITEM_CATEGORIES = ["standard", "premium", "budget"]
STATES = ["CA", "NY", "TX", "WA"]


@dataclass
class ChConfig:
    """Scaled-down CH-benCHmark sizing knobs."""

    warehouses: int = 2
    districts_per_warehouse: int = 3
    customers_per_district: int = 10
    orders_per_district: int = 30
    orderlines_per_order: int = 5
    items: int = 100
    suppliers: int = 10
    delta_fraction: float = 0.05  # the paper's 5 % delta population
    new_order_fraction: float = 0.3  # orders still in neworder
    seed: int = 42
    # Year pools for the main-phase and delta-phase order generators.  The
    # defaults match the historical hard-coded values, so existing
    # benchmarks stay byte-identical.
    main_years: Tuple[int, ...] = (2012, 2013)
    delta_years: Tuple[int, ...] = (2014,)
    # When set, ``orders`` and ``orderline`` are created with hot/cold
    # aging rules: orders with ``o_year >= hot_year`` are hot, and
    # orderlines with ``ol_delivery_d >= "<hot_year>-01-01"`` are hot.
    # Both rules classify by the order's business year, so the pair is
    # declared consistently aged (paper §5.4).
    hot_year: Optional[int] = None
    # When set, prices/amounts are multiples of this quantum instead of
    # cent-rounded uniforms.  A power-of-two fraction (0.25, 0.5) makes
    # every value — and every partial sum — exactly representable, so
    # benchmarks can assert bit-identical aggregates across execution
    # modes that fold partials in different orders.
    amount_quantum: Optional[float] = None


class ChBenchmark:
    """Creates the schema and loads the scaled dataset."""

    def __init__(self, db: Database, config: Optional[ChConfig] = None):
        self.db = db
        self.config = config if config is not None else ChConfig()
        self._rng = make_rng(self.config.seed)
        self._next: Dict[str, int] = {
            "customer": 1, "orders": 1, "neworder": 1, "orderline": 1,
            "stock": 1, "item": 1,
        }
        self._customer_keys: List[int] = []
        self._item_keys: List[int] = []
        self._stock_key_by_item_wh: Dict[Tuple[int, int], int] = {}
        self._create_schema()
        self._load_static()

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def _create_schema(self) -> None:
        db = self.db
        hot_year = self.config.hot_year
        orders_aging = (
            threshold_aging("o_year", hot_year) if hot_year is not None else None
        )
        # Orderlines carry their order's business year in the delivery
        # date, so thresholding on the ISO date string classifies each
        # orderline exactly like its parent order.
        orderline_aging = (
            threshold_aging("ol_delivery_d", f"{hot_year:04d}-01-01")
            if hot_year is not None
            else None
        )
        db.create_table(
            "region",
            [("r_regionkey", "INT"), ("r_name", "TEXT")],
            primary_key="r_regionkey",
        )
        db.create_table(
            "nation",
            [("n_nationkey", "INT"), ("n_name", "TEXT"), ("n_regionkey", "INT")],
            primary_key="n_nationkey",
        )
        db.create_table(
            "supplier",
            [
                ("su_suppkey", "INT"),
                ("su_name", "TEXT"),
                ("su_nationkey", "INT"),
            ],
            primary_key="su_suppkey",
        )
        db.create_table(
            "item",
            [
                ("i_id", "INT"),
                ("i_name", "TEXT"),
                ("i_price", "FLOAT"),
                ("i_category", "TEXT"),
            ],
            primary_key="i_id",
        )
        db.create_table(
            "customer",
            [
                ("c_key", "INT"),
                ("c_w_id", "INT"),
                ("c_d_id", "INT"),
                ("c_id", "INT"),
                ("c_last", "TEXT"),
                ("c_state", "TEXT"),
                ("c_nationkey", "INT"),
                ("c_balance", "FLOAT"),
            ],
            primary_key="c_key",
        )
        db.create_table(
            "stock",
            [
                ("s_key", "INT"),
                ("s_i_id", "INT"),
                ("s_w_id", "INT"),
                ("s_quantity", "INT"),
                ("s_su_suppkey", "INT"),
            ],
            primary_key="s_key",
        )
        db.create_table(
            "orders",
            [
                ("o_key", "INT"),
                ("o_w_id", "INT"),
                ("o_d_id", "INT"),
                ("o_id", "INT"),
                ("o_c_key", "INT"),
                ("o_entry_d", "DATE"),
                ("o_year", "INT"),
                ("o_carrier_id", "INT"),
            ],
            primary_key="o_key",
            aging_rule=orders_aging,
        )
        db.create_table(
            "neworder",
            [("no_key", "INT"), ("no_o_key", "INT")],
            primary_key="no_key",
        )
        db.create_table(
            "orderline",
            [
                ("ol_key", "INT"),
                ("ol_o_key", "INT"),
                ("ol_i_id", "INT"),
                ("ol_s_key", "INT"),
                ("ol_quantity", "INT"),
                ("ol_amount", "FLOAT"),
                ("ol_delivery_d", "DATE"),
            ],
            primary_key="ol_key",
            aging_rule=orderline_aging,
        )
        # Object-aware matching dependencies along the business-object edges.
        db.add_matching_dependency("customer", "c_key", "orders", "o_c_key")
        db.add_matching_dependency("orders", "o_key", "neworder", "no_o_key")
        db.add_matching_dependency("orders", "o_key", "orderline", "ol_o_key")
        db.add_matching_dependency("stock", "s_key", "orderline", "ol_s_key")
        if hot_year is not None:
            db.declare_consistent_aging("orders", "orderline")

    # ------------------------------------------------------------------
    # static dimensions
    # ------------------------------------------------------------------
    def _load_static(self) -> None:
        db = self.db
        for idx, name in enumerate(REGIONS):
            db.insert("region", {"r_regionkey": idx, "r_name": name})
        for idx, (nation, region) in enumerate(NATIONS):
            db.insert(
                "nation",
                {
                    "n_nationkey": idx,
                    "n_name": nation,
                    "n_regionkey": REGIONS.index(region),
                },
            )
        for key in range(1, self.config.suppliers + 1):
            db.insert(
                "supplier",
                {
                    "su_suppkey": key,
                    "su_name": f"supplier-{key:04d}",
                    "su_nationkey": (key - 1) % len(NATIONS),
                },
            )

    # ------------------------------------------------------------------
    # load phases
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, int]:
        """Main phase + merge + delta phase; returns per-table row counts."""
        config = self.config
        main_items = max(1, int(config.items * (1.0 - config.delta_fraction)))
        self._load_items_and_stock(main_items)
        self._load_customers()
        main_orders = int(
            config.warehouses
            * config.districts_per_warehouse
            * config.orders_per_district
            * (1.0 - config.delta_fraction)
        )
        self._load_orders(main_orders, year_pool=config.main_years)
        self.db.merge()
        # Delta phase: recent business.
        delta_items = config.items - main_items
        self._load_items_and_stock(delta_items)
        total_orders = (
            config.warehouses
            * config.districts_per_warehouse
            * config.orders_per_district
        )
        self._load_orders(total_orders - main_orders, year_pool=config.delta_years)
        return self.row_counts()

    def _money(self, lo: float, hi: float) -> float:
        """A price/amount in [lo, hi] honoring ``amount_quantum``."""
        quantum = self.config.amount_quantum
        if quantum is None:
            return round(self._rng.uniform(lo, hi), 2)
        steps = int((hi - lo) / quantum)
        return lo + quantum * self._rng.randint(0, steps)

    def grow_delta(self, orders: int) -> None:
        """Append ``orders`` fresh orders (with orderlines) to the deltas.

        No merge: the rows land in the delta partitions, growing the
        compensation workload of every cached query — exactly what the
        delta-memo benchmark varies between timed hits.
        """
        self._load_orders(orders, year_pool=self.config.delta_years)

    def _load_items_and_stock(self, count: int) -> None:
        db = self.db
        rng = self._rng
        for _ in range(count):
            i_id = self._next["item"]
            self._next["item"] += 1
            db.insert(
                "item",
                {
                    "i_id": i_id,
                    "i_name": f"item-{i_id:05d}",
                    "i_price": self._money(1.0, 100.0),
                    "i_category": rng.choice(ITEM_CATEGORIES),
                },
            )
            self._item_keys.append(i_id)
            for warehouse in range(1, self.config.warehouses + 1):
                s_key = self._next["stock"]
                self._next["stock"] += 1
                db.insert(
                    "stock",
                    {
                        "s_key": s_key,
                        "s_i_id": i_id,
                        "s_w_id": warehouse,
                        "s_quantity": rng.randint(10, 100),
                        "s_su_suppkey": rng.randint(1, self.config.suppliers),
                    },
                )
                self._stock_key_by_item_wh[(i_id, warehouse)] = s_key

    def _load_customers(self) -> None:
        db = self.db
        rng = self._rng
        for warehouse in range(1, self.config.warehouses + 1):
            for district in range(1, self.config.districts_per_warehouse + 1):
                for c_id in range(1, self.config.customers_per_district + 1):
                    key = self._next["customer"]
                    self._next["customer"] += 1
                    db.insert(
                        "customer",
                        {
                            "c_key": key,
                            "c_w_id": warehouse,
                            "c_d_id": district,
                            "c_id": c_id,
                            "c_last": tpcc_last_name(key),
                            "c_state": rng.choice(STATES),
                            "c_nationkey": rng.randrange(len(NATIONS)),
                            "c_balance": 0.0,
                        },
                    )
                    self._customer_keys.append(key)

    def _load_orders(self, count: int, year_pool: Tuple[int, ...]) -> None:
        db = self.db
        rng = self._rng
        config = self.config
        for _ in range(count):
            o_key = self._next["orders"]
            self._next["orders"] += 1
            year = rng.choice(year_pool)
            warehouse = rng.randint(1, config.warehouses)
            order = {
                "o_key": o_key,
                "o_w_id": warehouse,
                "o_d_id": rng.randint(1, config.districts_per_warehouse),
                "o_id": o_key,
                "o_c_key": rng.choice(self._customer_keys),
                "o_entry_d": iso_date(rng, year),
                "o_year": year,
                "o_carrier_id": rng.randint(1, 10),
            }
            is_new = rng.random() < config.new_order_fraction
            txn = db.begin()
            db.insert("orders", order, txn=txn)
            if is_new:
                no_key = self._next["neworder"]
                self._next["neworder"] += 1
                db.insert("neworder", {"no_key": no_key, "no_o_key": o_key}, txn=txn)
            for _line in range(config.orderlines_per_order):
                i_id = rng.choice(self._item_keys)
                ol_key = self._next["orderline"]
                self._next["orderline"] += 1
                db.insert(
                    "orderline",
                    {
                        "ol_key": ol_key,
                        "ol_o_key": o_key,
                        "ol_i_id": i_id,
                        "ol_s_key": self._stock_key_by_item_wh[(i_id, warehouse)],
                        "ol_quantity": rng.randint(1, 10),
                        "ol_amount": self._money(10.0, 500.0),
                        "ol_delivery_d": iso_date(rng, year),
                    },
                    txn=txn,
                )
            txn.commit()

    # ------------------------------------------------------------------
    def row_counts(self) -> Dict[str, int]:
        """Visible rows per table at the current snapshot."""
        snapshot = self.db.transactions.global_snapshot()
        return {
            name: self.db.table(name).visible_row_count(snapshot)
            for name in self.db.catalog.table_names()
        }

    def delta_counts(self) -> Dict[str, int]:
        """Physical rows currently in each table's delta partitions."""
        return {
            name: sum(
                p.row_count for p in self.db.table(name).delta_partitions()
            )
            for name in self.db.catalog.table_names()
        }
