"""Plan cache behavior: the versioned-invalidation matrix, LRU bounds,
alias slots, and safety under the reader/writer stress pattern."""

import threading
import time

import pytest

from repro import Database, ExecutionStrategy
from repro.core.strategies import CacheConfig

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING

OTHER_SQL = "SELECT o.g AS g, SUM(o.v) AS s FROM other o GROUP BY o.g"


def make_two_domain_db() -> Database:
    """ERP tables plus an unrelated table ``other`` — two plan domains."""
    db = make_erp_db()
    load_erp(db, n_headers=4, merge=True)
    load_erp(db, n_headers=1, start_hid=90, merge=False)
    db.create_table(
        "other", [("k", "INT"), ("g", "INT"), ("v", "FLOAT")], primary_key="k"
    )
    for k in range(6):
        db.insert("other", {"k": k, "g": k % 2, "v": float(k)})
    return db


def lookup_outcome(db: Database, sql: str, strategy=FULL) -> str:
    """Run one plan lookup and report which counter it moved."""
    before = db.plan_cache.stats()
    db.cache.plan_for(sql, strategy)
    after = db.plan_cache.stats()
    if after["invalidations"] > before["invalidations"]:
        return "invalidated"
    if after["hits"] > before["hits"]:
        return "hit"
    assert after["misses"] > before["misses"]
    return "miss"


def warm(db: Database, *sqls: str) -> None:
    for sql in sqls:
        assert lookup_outcome(db, sql) == "miss"
        assert lookup_outcome(db, sql) == "hit"


class TestInvalidationMatrix:
    """A structural change (merge, registration, schema) moves exactly the
    affected tables' epochs, so it invalidates exactly the plans referencing
    them; DML only moves their versions, and those plans re-derive their
    verdicts over the cached skeleton (tests/plan/test_plan_epoch.py)."""

    @pytest.mark.parametrize(
        "mutate, outcome",
        [
            pytest.param(
                lambda db: db.insert(
                    "item", {"iid": 7777, "hid": 0, "cid": 0, "price": 1.0}
                ),
                "hit",
                id="insert",
            ),
            pytest.param(
                lambda db: db.update("item", 0, {"price": 99.0}), "hit", id="update"
            ),
            pytest.param(lambda db: db.delete("item", 1), "hit", id="delete"),
            pytest.param(lambda db: db.merge("item"), "invalidated", id="merge"),
        ],
    )
    def test_dml_and_merge_invalidate_only_affected_plans(self, mutate, outcome):
        db = make_two_domain_db()
        warm(db, PROFIT_SQL, OTHER_SQL)
        rederived = db.plan_cache.stats()["rederived"]
        mutate(db)
        assert lookup_outcome(db, PROFIT_SQL) == outcome
        assert db.plan_cache.stats()["rederived"] == rederived + (outcome == "hit")
        # The unrelated plan kept serving hits the whole time.
        assert lookup_outcome(db, OTHER_SQL) == "hit"
        # The re-derived or rebuilt plan is hot again.
        assert lookup_outcome(db, PROFIT_SQL) == "hit"
        assert db.plan_cache.stats()["rederived"] == rederived + (outcome == "hit")

    def test_drop_table_evicts_only_its_plans(self):
        db = make_two_domain_db()
        warm(db, PROFIT_SQL, OTHER_SQL)
        evictions_before = db.plan_cache.stats()["evictions"]
        db.drop_table("other")
        assert db.plan_cache.stats()["evictions"] > evictions_before
        assert lookup_outcome(db, PROFIT_SQL) == "hit"

    def test_dropped_and_recreated_table_never_serves_stale_plan(self):
        db = make_two_domain_db()
        warm(db, OTHER_SQL)
        db.drop_table("other")
        db.create_table(
            "other", [("k", "INT"), ("g", "INT"), ("v", "FLOAT")], primary_key="k"
        )
        db.insert("other", {"k": 1, "g": 0, "v": 5.0})
        # The eviction at drop time means this is a plain miss; either way
        # the old layout's plan must not survive.
        assert lookup_outcome(db, OTHER_SQL) in ("miss", "invalidated")
        assert db.query(OTHER_SQL).rows == [(0, 5.0)]

    def test_add_matching_dependency_invalidates_covered_plans(self):
        db = make_two_domain_db()
        db.create_table("p", [("pid", "INT"), ("tag", "INT")], primary_key="pid")
        db.create_table(
            "c", [("cid", "INT"), ("fk", "INT"), ("v", "FLOAT")], primary_key="cid"
        )
        pc_sql = (
            "SELECT x.fk AS fk, SUM(x.v) AS s, COUNT(*) AS n "
            "FROM p y, c x WHERE y.pid = x.fk GROUP BY x.fk"
        )
        warm(db, pc_sql, PROFIT_SQL)
        db.add_matching_dependency("p", "pid", "c", "fk")
        assert lookup_outcome(db, pc_sql) == "invalidated"
        # Plans not referencing p/c are untouched by the registration.
        assert lookup_outcome(db, PROFIT_SQL) == "hit"

    def test_consistent_aging_declaration_invalidates_covered_plans(self):
        db = make_two_domain_db()
        warm(db, PROFIT_SQL, OTHER_SQL)
        db.declare_consistent_aging("header", "item")
        assert lookup_outcome(db, PROFIT_SQL) == "invalidated"
        assert lookup_outcome(db, OTHER_SQL) == "hit"

    def test_invalidated_plan_produces_fresh_correct_answer(self):
        db = make_two_domain_db()
        first = db.query(PROFIT_SQL, strategy=FULL)
        db.insert("item", {"iid": 8888, "hid": 0, "cid": 0, "price": 100.0})
        second = db.query(PROFIT_SQL, strategy=FULL)
        assert first.rows != second.rows
        total_first = sum(row[1] for row in first.rows)
        total_second = sum(row[1] for row in second.rows)
        assert total_second == pytest.approx(total_first + 100.0)


class TestSlotsAndBounds:
    def test_strategies_cache_separately(self):
        db = make_two_domain_db()
        assert lookup_outcome(db, PROFIT_SQL, FULL) == "miss"
        assert (
            lookup_outcome(db, PROFIT_SQL, ExecutionStrategy.CACHED_NO_PRUNING)
            == "miss"
        )
        assert lookup_outcome(db, PROFIT_SQL, FULL) == "hit"

    def test_respelled_statement_hits_canonical_slot(self):
        db = make_two_domain_db()
        respelled = PROFIT_SQL.replace("SELECT", "SELECT  ")
        assert db.parse(PROFIT_SQL).canonical_key() == (
            db.parse(respelled).canonical_key()
        )
        warm(db, PROFIT_SQL)
        # New spelling, same canonical statement: the canonical slot hits
        # (after the raw-SQL slot misses) and gains an alias...
        assert lookup_outcome(db, respelled) == "hit"
        # ...so the repeat hits on the raw text without parse or bind.
        assert lookup_outcome(db, respelled) == "hit"
        assert len(db.plan_cache) == 1

    def test_presentation_is_part_of_the_canonical_slot(self):
        """ORDER BY / LIMIT / HAVING / output names do not change the
        cached extent, hence not the canonical key — but the plan carries
        the whole statement, so they must not share a slot (they used to:
        the second spelling was answered in the first one's shape)."""
        db = make_two_domain_db()
        shaped = PROFIT_SQL + " HAVING n > 1 ORDER BY profit DESC LIMIT 1"
        assert db.parse(PROFIT_SQL).canonical_key() == db.parse(shaped).canonical_key()
        warm(db, PROFIT_SQL)
        assert lookup_outcome(db, shaped) == "miss"
        assert len(db.plan_cache) == 2
        for strategy in (FULL, ExecutionStrategy.UNCACHED):
            plain = db.query(PROFIT_SQL, strategy=strategy).rows
            top = db.query(shaped, strategy=strategy).rows
            assert len(plain) == 2 and len(top) == 1
            assert top[0] == max(plain, key=lambda row: row[1])
        assert db.cache.entry_count() == 1  # one extent serves both

    def test_lru_eviction_respects_capacity(self):
        db = make_erp_db(cache_config=CacheConfig(plan_cache_size=2))
        load_erp(db, n_headers=2, merge=True)
        sqls = [
            PROFIT_SQL,
            "SELECT i.cid AS cid, SUM(i.price) AS s FROM item i GROUP BY i.cid",
            "SELECT h.year AS y, COUNT(*) AS n FROM header h GROUP BY h.year",
        ]
        for sql in sqls:
            db.query(sql)
        assert len(db.plan_cache) <= 2
        assert db.plan_cache.stats()["evictions"] >= 1
        # The oldest plan is gone; re-asking is a miss, not a crash.
        assert lookup_outcome(db, sqls[0]) == "miss"

    def test_zero_capacity_disables_the_cache(self):
        db = make_erp_db(cache_config=CacheConfig(plan_cache_size=0))
        load_erp(db, n_headers=2, merge=True)
        r1 = db.query(PROFIT_SQL)
        r2 = db.query(PROFIT_SQL)
        assert r1.rows == r2.rows
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats()["hits"] == 0

    def test_plan_cache_metrics_exported(self):
        db = make_two_domain_db()
        db.query(PROFIT_SQL)
        db.query(PROFIT_SQL)
        snap = db.metrics_snapshot()
        assert snap['repro_plan_cache_lookups_total{outcome="miss"}'] >= 1
        assert snap['repro_plan_cache_lookups_total{outcome="hit"}'] >= 1
        assert snap["repro_plan_cache_entries"] == len(db.plan_cache)


class TestConcurrentInvalidation:
    def test_reader_writer_stress_never_serves_stale_plans(self):
        """Query threads race DML and merges; every answer must reflect a
        consistent snapshot and the run must not deadlock or raise."""
        db = make_two_domain_db()
        stop = threading.Event()
        errors: list = []

        def reader(index: int) -> None:
            sql = PROFIT_SQL if index % 2 == 0 else OTHER_SQL
            strategy = list(ExecutionStrategy)[index % len(list(ExecutionStrategy))]
            try:
                while not stop.is_set():
                    result = db.query(sql, strategy=strategy)
                    assert result.rows  # data never disappears
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                stop.set()

        def writer() -> None:
            iid = 10_000
            try:
                while not stop.is_set():
                    db.insert(
                        "item",
                        {"iid": iid, "hid": 0, "cid": 0, "price": 1.0},
                    )
                    db.insert("other", {"k": iid, "g": iid % 2, "v": 1.0})
                    iid += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                stop.set()

        def merger() -> None:
            try:
                while not stop.wait(timeout=0.05):
                    db.merge("item")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                stop.set()

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=writer))
        threads.append(threading.Thread(target=merger))
        for t in threads:
            t.start()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        # Post-condition: whatever survived in the cache validates against
        # the final catalog state (a fresh lookup is a hit, not stale).
        stats = db.plan_cache.stats()
        assert stats["hits"] > 0
        final = db.query(PROFIT_SQL)
        again = db.query(PROFIT_SQL)
        assert final.rows == again.rows
