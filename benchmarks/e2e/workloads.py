"""The four workloads: what is built, what is replayed, and why.

A workload is a *builder* (schema + load, through the public generators in
``repro.workloads``) and a *stream* of operations.  Op counts are fixed
functions of ``--seconds``: the rates below were tuned once so that the
main phase takes about ``--seconds`` on the reference host (the one where
the calibration kernel takes ``CAL_REF_MS``); a run never stops on a timer,
so two runs of one seed replay the identical stream.

Stream items are ``(kind, payload)`` pairs:

``("phase", name)``  everything after it belongs to phase ``name``
                     (``main`` counts toward ops_per_s and read_*; the
                     ``tail`` only supplies write_* and merge_rows_per_s);
``("block", None)``  a block boundary: the driver runs the calibration
                     kernel here, outside every timed interval;
``("read", sql)``    one ``db.query(sql)`` at the default strategy;
``("write", fn)``    one write transaction, ``fn()``;
``("merge", None)``  ``db.merge()``;
``("refresh", None)`` ``db.refresh_cache()``;
``("check", None)``  the correctness oracle (untimed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import Database
from repro.core.strategies import CacheConfig
from repro.workloads import (
    CH_QUERIES,
    ChBenchmark,
    ChConfig,
    ChTransactionDriver,
    ErpConfig,
    ErpWorkload,
)
from repro.workloads.chbench import ITEM_CATEGORIES, NATIONS, REGIONS, STATES

Op = Tuple[str, object]
BLOCK: Op = ("block", None)
CHECK: Op = ("check", None)
MERGE: Op = ("merge", None)
REFRESH: Op = ("refresh", None)

#: Every amount is a multiple of this, so every partial sum is exactly
#: representable and "cached == uncached" can be asserted bit for bit.
AMOUNT_QUANTUM = 0.25

# --- sizes -------------------------------------------------------------------
CH_ORDERS_PER_DISTRICT = 400  # 3 200 orders / 25 600 orderlines
CH_ORDERS_PER_DISTRICT_DURABLE = 25  # the durable twin: fsync per commit
ERP_PRELOAD_OBJECTS = 3000  # 3 000 headers / 30 000 items
ERP_PRELOAD_OBJECTS_DURABLE = 300

# --- op rates (per reference second of --seconds) -----------------------------
# A read-only workload spends about 70 % of --seconds in its main phase and
# the rest in the write tail, whose merges with 10-29 entries to maintain
# take 0.5-1 s each.
CH_MIXED_ROUNDS_PER_S = 6.5  # 5 transactions + 6 reads, about 150 ms
CH_MIXED_REFRESH_EVERY = 5
CH_MIXED_MERGE_EVERY = 15  # 3 full merge cycles in the default 8 s
CH_HOT_READS_PER_S = 3150.0  # pure hits, about 0.2 ms
CH_HOT_READS_PER_BLOCK = 450
CH_PRESSURE_READS_PER_S = 80.0  # hits and entry builds, about 9 ms
CH_PRESSURE_READS_PER_BLOCK = 12
CH_PRESSURE_MAX_ENTRIES = 10
ERP_ROUNDS_PER_S = 90.0  # 9 writes + 1 read, about 11 ms with merges
ERP_INSERTS_PER_ROUND = 7
ERP_ROUNDS_PER_BLOCK = 10
ERP_MERGE_EVERY = 100

# --- the write tail of a read-only workload ----------------------------------
TAIL_CYCLES_PER_S = 1.0 / 3.0  # one cycle = the rounds below, then a merge
TAIL_ROUNDS_PER_CYCLE = 40  # x 5 transactions = 200 write samples per cycle
TAIL_ROUNDS_PER_BLOCK = 5

# --- the durable replay ------------------------------------------------------
DURABLE_ROUNDS = {"ch": 20, "erp": 100}


class QuantumRandom(random.Random):
    """``uniform`` draws multiples of :data:`AMOUNT_QUANTUM`.

    ``ChTransactionDriver`` and ``ErpWorkload`` generate prices with
    ``round(rng.uniform(lo, hi), 2)``, whose sums depend on the order they
    are folded in.  Handing them this generator keeps their code paths and
    makes every aggregate exact (a multiple of 0.25 survives ``round(x, 2)``
    unchanged), so the oracle can demand bit-identity.
    """

    def uniform(self, a: float, b: float) -> float:
        return a + AMOUNT_QUANTUM * self.randint(0, int((b - a) / AMOUNT_QUANTUM))


def scaled(rate: float, seconds: float, at_least: int = 1) -> int:
    """The op count for ``seconds`` of reference time at ``rate`` per second."""
    return max(at_least, int(round(rate * seconds)))


# -----------------------------------------------------------------------------
# contexts: one built database plus what the streams need to drive it
# -----------------------------------------------------------------------------
class ChContext:
    """A loaded CH-benCHmark database and its transaction driver."""

    family = "ch"

    def __init__(
        self,
        seed: int,
        cache_config: Optional[CacheConfig] = None,
        path=None,
        small: bool = False,
    ):
        self.db = Database(cache_config=cache_config, path=path)
        orders = CH_ORDERS_PER_DISTRICT_DURABLE if small else CH_ORDERS_PER_DISTRICT
        self.bench = ChBenchmark(
            self.db,
            ChConfig(
                warehouses=2,
                districts_per_warehouse=4,
                customers_per_district=20,
                orders_per_district=orders,
                orderlines_per_order=8,
                items=250,
                suppliers=20,
                amount_quantum=AMOUNT_QUANTUM,
                seed=seed,
            ),
        )
        self.bench.load()
        self.driver = ChTransactionDriver(self.bench, seed=seed + 1)
        # See QuantumRandom: the driver exposes no seam for its generator.
        self.driver._rng = QuantumRandom(seed + 1)
        #: The six templates as shipped; the paper-shape probes time these.
        self.probe_statements: List[str] = list(CH_QUERIES.values())
        self.statements: List[str] = self.probe_statements

    def write_round(self) -> List[Callable[[], object]]:
        """One round of TPC-C-style transactions in a fixed pattern.

        ``driver.run(n)`` draws the mix at random, which puts the median
        write on the edge between two modes (a payment is one update, a
        new-order eleven inserts) and lets the seed move it; a fixed 2:2:1
        pattern keeps every round's delta growth and every run's latency
        distribution the same shape.
        """
        driver = self.driver
        return [
            driver.new_order,
            driver.payment,
            driver.new_order,
            driver.payment,
            driver.delivery,
        ]


def ch_statement_family() -> List[str]:
    """The six CH templates under every literal binding the generator's
    value domains offer: 29 distinct statements, template-interleaved so a
    prefix of the list still covers all six shapes."""

    def bind(template: str, *pairs: Tuple[str, str]) -> str:
        text = CH_QUERIES[template]
        for old, new in pairs:
            if old not in text:
                raise ValueError(f"{template}: literal {old} not in the template")
            text = text.replace(old, new)
        return text

    per_template = [
        [bind("Q3", ("'CA'", f"'{state}'")) for state in STATES],
        [bind("Q5", ("'EUROPE'", f"'{region}'")) for region in REGIONS],
        [bind("Q7", ("'GERMANY'", f"'{nation}'")) for nation, _ in NATIONS],
        [
            bind("Q8", ("'EUROPE'", f"'{region}'"), ("'premium'", f"'{category}'"))
            for region in REGIONS
            for category in ITEM_CATEGORIES
        ],
        [bind("Q9", ("'premium'", f"'{category}'")) for category in ITEM_CATEGORIES],
        [bind("Q10", (">= 2013", f">= {year}")) for year in (2012, 2013, 2014)],
    ]
    family: List[str] = []
    for rank in range(max(len(group) for group in per_template)):
        family.extend(group[rank] for group in per_template if rank < len(group))
    return family


class ErpContext:
    """A loaded ERP Header/Item/ProductCategory database."""

    family = "erp"

    def __init__(
        self,
        seed: int,
        cache_config: Optional[CacheConfig] = None,
        path=None,
        small: bool = False,
    ):
        self.db = Database(cache_config=cache_config, path=path)
        self.workload = ErpWorkload(
            self.db, ErpConfig(items_per_header=10, late_item_rate=0.02, seed=seed)
        )
        # See QuantumRandom: the workload exposes no seam for its generator.
        self.workload._rng = QuantumRandom(seed)
        objects = ERP_PRELOAD_OBJECTS_DURABLE if small else ERP_PRELOAD_OBJECTS
        _headers, self.preloaded_items = self.workload.insert_objects(objects)
        self._rng = QuantumRandom(seed + 1)
        self._deleted: set = set()
        w = self.workload
        self.statements: List[str] = [
            w.profit_and_loss_sql(2013),
            w.profit_and_loss_sql(2014),
            w.header_item_sql(),
            w.single_table_sql(),
            w.doc_type_sql(),
        ]
        self.probe_statements = self.statements

    def write_round(self) -> List[Callable[[], object]]:
        """Seven business-object inserts (each followed by its late items,
        as separate transactions), one update and one delete on preloaded
        rows — which sit in main after the first merge."""
        return [self._insert_object] * ERP_INSERTS_PER_ROUND + [
            self._update_item,
            self._delete_item,
        ]

    def _insert_object(self) -> None:
        self.workload.insert_objects(1)

    def _live_preloaded_item(self) -> int:
        while True:
            item_id = self._rng.randint(1, self.preloaded_items)
            if item_id not in self._deleted:
                return item_id

    def _update_item(self) -> None:
        self.db.update(
            "Item", self._live_preloaded_item(), {"Price": self._rng.uniform(1.0, 500.0)}
        )

    def _delete_item(self) -> None:
        item_id = self._live_preloaded_item()
        self._deleted.add(item_id)
        self.db.delete("Item", item_id)


# -----------------------------------------------------------------------------
# streams
# -----------------------------------------------------------------------------
def _writes(ctx) -> Iterator[Op]:
    for fn in ctx.write_round():
        yield ("write", fn)


def write_tail(ctx, seconds: float) -> Iterator[Op]:
    """Writes and merges appended to a read-only main phase, so that every
    workload reports write latency and merge throughput."""
    yield ("phase", "tail")
    for cycle in range(scaled(TAIL_CYCLES_PER_S, seconds)):
        for rnd in range(TAIL_ROUNDS_PER_CYCLE):
            if rnd % TAIL_ROUNDS_PER_BLOCK == 0:
                yield BLOCK
            yield from _writes(ctx)
        # One check on a non-empty delta; the end-of-run check covers the rest.
        yield CHECK if cycle == 0 else BLOCK
        yield MERGE


def ch_mixed_stream(ctx: ChContext, seconds: float, seed: int) -> Iterator[Op]:
    yield ("phase", "main")
    # Never fewer rounds than one merge cycle: every run reports a merge.
    rounds = scaled(CH_MIXED_ROUNDS_PER_S, seconds, at_least=CH_MIXED_MERGE_EVERY)
    for rnd in range(1, rounds + 1):
        yield BLOCK
        yield from _writes(ctx)
        for sql in ctx.statements:
            yield ("read", sql)
        if rnd % CH_MIXED_REFRESH_EVERY == 0:
            yield REFRESH
        if rnd % CH_MIXED_MERGE_EVERY == 0:
            yield CHECK
            yield MERGE


def ch_hot_reads_stream(ctx: ChContext, seconds: float, seed: int) -> Iterator[Op]:
    yield ("phase", "main")
    reads = scaled(CH_HOT_READS_PER_S, seconds, at_least=len(ctx.statements))
    for index in range(reads):
        if index % CH_HOT_READS_PER_BLOCK == 0:
            yield BLOCK
        yield ("read", ctx.statements[index % len(ctx.statements)])
    yield from write_tail(ctx, seconds)


def ch_cache_pressure_stream(ctx: ChContext, seconds: float, seed: int) -> Iterator[Op]:
    yield ("phase", "main")
    # Zipf(s=1) over the family in its fixed listing order, as exact quotas:
    # every seed reads each statement equally often and only the order (and
    # the data) moves, so the hit ratio is the engine's doing, not the draw's.
    reads = scaled(CH_PRESSURE_READS_PER_S, seconds, at_least=len(ctx.statements))
    harmonic = sum(1.0 / rank for rank in range(1, len(ctx.statements) + 1))
    sequence = [
        sql
        for rank, sql in enumerate(ctx.statements, start=1)
        for _ in range(max(1, round(reads / (rank * harmonic))))
    ]
    random.Random(seed + 2).shuffle(sequence)
    for index, sql in enumerate(sequence):
        if index % CH_PRESSURE_READS_PER_BLOCK == 0:
            yield BLOCK
        yield ("read", sql)
    yield from write_tail(ctx, seconds)


def erp_write_heavy_stream(ctx: ErpContext, seconds: float, seed: int) -> Iterator[Op]:
    yield ("phase", "main")
    rounds = scaled(ERP_ROUNDS_PER_S, seconds, at_least=ERP_MERGE_EVERY)
    for rnd in range(1, rounds + 1):
        if rnd % ERP_ROUNDS_PER_BLOCK == 1:
            yield BLOCK
        yield from _writes(ctx)
        yield ("read", ctx.statements[(rnd - 1) % len(ctx.statements)])
        if rnd % ERP_MERGE_EVERY == 0:
            yield CHECK
            yield MERGE


def durable_stream(ctx, rounds: int) -> Iterator[Op]:
    """The write rounds replayed into the durable twin, with one explicit
    checkpoint's worth of merge halfway."""
    for rnd in range(1, rounds + 1):
        yield from _writes(ctx)
        if rnd == rounds // 2:
            yield MERGE


# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its database and what to replay."""

    name: str
    why: str
    context: type
    stream: Callable[[object, float, int], Iterator[Op]]
    max_entries: Optional[int] = None
    #: Overrides the context's statement list (None = the shipped templates).
    statements: Optional[Callable[[], List[str]]] = None

    def build(self, seed: int, path=None, small: bool = False):
        """Schema + load (set-up step one; merge and warming follow)."""
        config = (
            CacheConfig(max_entries=self.max_entries)
            if self.max_entries is not None
            else None
        )
        ctx = self.context(seed, cache_config=config, path=path, small=small)
        if self.statements is not None:
            ctx.statements = self.statements()
        return ctx


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ch_mixed",
            "CH-benCHmark transactions beside Q3-Q10 on growing deltas: pruning, "
            "compensation, memo, recycler and join kernels do the work",
            ChContext,
            ch_mixed_stream,
        ),
        Workload(
            "ch_hot_reads",
            "29 warmed statements, empty deltas, unbounded cache: every read is a "
            "pure hit, so only parse/plan/lookup/materialise cost shows",
            ChContext,
            ch_hot_reads_stream,
            statements=ch_statement_family,
        ),
        Workload(
            "ch_cache_pressure",
            "the same 29 statements drawn Zipf(1) into a 10-entry cache: admission, "
            "eviction and all-main entry builds set the tail",
            ChContext,
            ch_cache_pressure_stream,
            max_entries=CH_PRESSURE_MAX_ENTRIES,
            statements=ch_statement_family,
        ),
        Workload(
            "erp_write_heavy",
            "ERP at 90 % writes with late items, updates and deletes: fresh deltas, "
            "defeated tid pruning and main compensation on every read",
            ErpContext,
            erp_write_heavy_stream,
        ),
    )
}
