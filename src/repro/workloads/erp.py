"""The ERP benchmark: schema, data generator, and query family.

Models the financial/managerial-accounting workload of the paper's second
benchmark (Section 6): a ``Header`` table, an ``Item`` table roughly ten
times larger, and a small, static ``ProductCategory`` dimension (the paper's
production dataset had 35 M headers, 330 M items, and < 2000 categories —
we keep the 1:10:tiny shape at laptop scale).  Business objects (one header
plus its items) are inserted in a single transaction, which is the temporal
locality the matching dependencies exploit; a configurable *late-item rate*
violates that locality on purpose (Section 3.2: "items may be added to a
header at a later point in time").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..database import Database
from ..storage.table import AgingRule
from .rng import iso_date, make_rng

LANGUAGES = ("ENG", "GER", "FRA")
DOC_TYPES = ("invoice", "credit_memo", "goods_movement", "journal")


@dataclass
class ErpConfig:
    """Shape of the generated ERP dataset."""

    n_categories: int = 20
    items_per_header: int = 10  # the paper's ~1:10 header:item ratio
    years: Tuple[int, ...] = (2012, 2013, 2014)
    price_range: Tuple[float, float] = (1.0, 500.0)
    late_item_rate: float = 0.0  # fraction of items inserted out-of-object
    seed: int = 7


class ErpWorkload:
    """Creates the schema, generates business objects, and builds queries."""

    def __init__(self, db: Database, config: Optional[ErpConfig] = None,
                 header_aging: Optional[AgingRule] = None,
                 item_aging: Optional[AgingRule] = None,
                 install_mds: bool = True):
        self.db = db
        self.config = config if config is not None else ErpConfig()
        self._rng = make_rng(self.config.seed)
        self._next_header_id = 1
        self._next_item_id = 1
        self._categories_loaded = False
        self._create_schema(header_aging, item_aging, install_mds)

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def _create_schema(self, header_aging, item_aging, install_mds: bool = True) -> None:
        self.db.create_table(
            "ProductCategory",
            [("CategoryID", "INT"), ("Name", "TEXT"), ("Language", "TEXT")],
            primary_key="CategoryID",
        )
        self.db.create_table(
            "Header",
            [
                ("HeaderID", "INT"),
                ("FiscalYear", "INT"),
                ("DocType", "TEXT"),
                ("PostingDate", "DATE"),
            ],
            primary_key="HeaderID",
            aging_rule=header_aging,
        )
        self.db.create_table(
            "Item",
            [
                ("ItemID", "INT"),
                ("HeaderID", "INT"),
                ("CategoryID", "INT"),
                ("FiscalYear", "INT"),
                ("Amount", "INT"),
                ("Price", "FLOAT"),
            ],
            primary_key="ItemID",
            aging_rule=item_aging,
        )
        if install_mds:
            self.db.add_matching_dependency("Header", "HeaderID", "Item", "HeaderID")
            self.db.add_matching_dependency(
                "ProductCategory", "CategoryID", "Item", "CategoryID"
            )
        if header_aging is not None and item_aging is not None:
            self.db.declare_consistent_aging("Header", "Item")

    # ------------------------------------------------------------------
    # data generation
    # ------------------------------------------------------------------
    def load_categories(self) -> int:
        """Insert the static dimension rows (idempotent)."""
        if self._categories_loaded:
            return 0
        for cid in range(self.config.n_categories):
            self.db.insert(
                "ProductCategory",
                {
                    "CategoryID": cid,
                    "Name": f"category-{cid:03d}",
                    "Language": LANGUAGES[cid % len(LANGUAGES)],
                },
            )
        self._categories_loaded = True
        return self.config.n_categories

    def _make_object(self, year: int) -> Tuple[Dict, List[Dict]]:
        config = self.config
        rng = self._rng
        hid = self._next_header_id
        self._next_header_id += 1
        header = {
            "HeaderID": hid,
            "FiscalYear": year,
            "DocType": rng.choice(DOC_TYPES),
            "PostingDate": iso_date(rng, year),
        }
        items = []
        for _ in range(config.items_per_header):
            items.append(
                {
                    "ItemID": self._next_item_id,
                    "HeaderID": hid,
                    "CategoryID": rng.randrange(config.n_categories),
                    "FiscalYear": year,
                    "Amount": rng.randint(1, 20),
                    "Price": round(rng.uniform(*config.price_range), 2),
                }
            )
            self._next_item_id += 1
        return header, items

    def insert_objects(
        self,
        count: int,
        year: Optional[int] = None,
        merge_after: bool = False,
    ) -> Tuple[int, int]:
        """Insert ``count`` business objects; returns (headers, items).

        A fraction ``late_item_rate`` of items is withheld from the object
        transaction and inserted afterwards in separate transactions,
        modelling the late-item pattern that defeats tid-range pruning but
        must never break correctness.
        """
        self.load_categories()
        rng = self._rng
        late_items: List[Dict] = []
        items_inserted = 0
        for _ in range(count):
            chosen_year = year if year is not None else rng.choice(self.config.years)
            header, items = self._make_object(chosen_year)
            in_object = [
                item for item in items if rng.random() >= self.config.late_item_rate
            ]
            late_items.extend(item for item in items if item not in in_object)
            self.db.insert_business_object("Header", header, "Item", in_object)
            items_inserted += len(in_object)
        for item in late_items:
            self.db.insert("Item", item)
            items_inserted += 1
        if merge_after:
            self.db.merge()
        return count, items_inserted

    def object_stream(self, year: Optional[int] = None) -> Iterator[Tuple[Dict, List[Dict]]]:
        """Endless stream of (header, items) pairs for mixed workloads."""
        while True:
            chosen_year = (
                year if year is not None else self._rng.choice(self.config.years)
            )
            yield self._make_object(chosen_year)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def profit_and_loss_sql(
        year: Optional[int] = 2013, language: str = "ENG"
    ) -> str:
        """The paper's Listing-1 query: profit per product category."""
        filters = [f"D.Language = '{language}'"]
        if year is not None:
            filters.append(f"H.FiscalYear = {year}")
        where = " AND ".join(
            ["I.HeaderID = H.HeaderID", "I.CategoryID = D.CategoryID"] + filters
        )
        return (
            "SELECT D.Name AS Category, SUM(I.Price) AS Profit "
            "FROM Header AS H, Item AS I, ProductCategory AS D "
            f"WHERE {where} GROUP BY D.Name"
        )

    @staticmethod
    def header_item_sql(year: Optional[int] = None) -> str:
        """Two-table header/item rollup (the Fig. 5/7 join shape)."""
        where = "I.HeaderID = H.HeaderID"
        if year is not None:
            where += f" AND H.FiscalYear = {year}"
        return (
            "SELECT I.CategoryID AS Category, SUM(I.Price) AS Profit, "
            "COUNT(*) AS N "
            f"FROM Header AS H, Item AS I WHERE {where} GROUP BY I.CategoryID"
        )

    @staticmethod
    def single_table_sql() -> str:
        """Single-table rollup used by the Fig. 6 maintenance experiment."""
        return (
            "SELECT CategoryID, SUM(Price) AS Revenue, COUNT(*) AS N, "
            "AVG(Price) AS AvgPrice FROM Item GROUP BY CategoryID"
        )

    @staticmethod
    def doc_type_sql(year: int = 2013) -> str:
        """Alternate analysis dimension: profit per document type."""
        return (
            "SELECT H.DocType AS DocType, SUM(I.Price) AS Profit "
            "FROM Header AS H, Item AS I "
            f"WHERE I.HeaderID = H.HeaderID AND H.FiscalYear = {year} "
            "GROUP BY H.DocType"
        )


def load_demo(db: Database) -> str:
    """Load the shell's demo dataset into the empty ``db``: 300 merged
    business objects and 20 in the deltas.  Returns a profit-and-loss
    statement to try on it."""
    workload = ErpWorkload(db, ErpConfig(seed=1, n_categories=8))
    workload.insert_objects(300, merge_after=True)
    workload.insert_objects(20)
    return workload.profit_and_loss_sql(year=2013).replace("\n", " ")
