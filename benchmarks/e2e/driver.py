"""One benchmark run: set-up, the timed replay, the oracle, the durable twin.

One client thread drives the public ``Database`` facade in a closed loop;
the engine runs serial.  Wall time is taken around each call and turned
into reference-host time per block (see :mod:`hostcal`).  In a traced run
the reads of every other block go through ``explain_analyze`` and writes,
merges and refreshes are wrapped in spans (see :mod:`spans`), so the same
run yields the traced and the untraced cost of the same stream.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import Database, ExecutionStrategy

import layers
from hostcal import HostClock, clocked
from measure import answer_text, percentile
from spans import SpanLog
from durable import durable_replay, visible_rows
from workloads import Workload

#: Set-up is repeated and its median reported; the last build is the one used.
SETUP_REPS = 3


@dataclass
class ReadCounts:
    """Exact per-read counts summed from ``result.report``."""

    reads: int = 0
    subjoins_enumerated: int = 0
    subjoins_pruned: int = 0
    subjoins_excluded: int = 0
    pushdown_filters: int = 0
    rows_scanned: int = 0
    compensated_reads: int = 0
    incremental_reads: int = 0
    memo_rows_saved: int = 0
    recycler_hits: int = 0
    recycler_misses: int = 0
    invalidated_rows: int = 0

    def add(self, report) -> None:
        prune = report.prune
        self.reads += 1
        self.subjoins_enumerated += prune.combos_total
        self.subjoins_pruned += prune.pruned_total
        self.subjoins_excluded += prune.combos_excluded
        self.pushdown_filters += prune.pushdown_filters
        self.rows_scanned += report.executor_stats.rows_aggregated
        self.compensated_reads += bool(report.delta_memo_mode)
        self.incremental_reads += report.delta_memo_mode == "incremental"
        self.memo_rows_saved += report.delta_memo_rows_saved
        self.recycler_hits += report.recycler_hits
        self.recycler_misses += report.recycler_misses
        self.invalidated_rows += report.invalidated_rows_compensated


def base_rows(db: Database) -> int:
    """Visible base-table rows at the current snapshot."""
    return sum(visible_rows(db).values())


def state_snapshot(db: Database) -> Dict[str, float]:
    """The engine's exact state: cache counters, plan-cache outcomes, bytes."""
    out: Dict[str, float] = dict(db.cache.counters_snapshot())
    metrics = db.metrics_snapshot()
    for outcome in ("hit", "miss", "invalidated"):
        key = f'repro_plan_cache_lookups_total{{outcome="{outcome}"}}'
        out[f"plan_{outcome}"] = metrics.get(key, 0.0)
    tables = [db.table(name) for name in db.catalog.table_names()]
    out["bytes_main"] = sum(p.nbytes() for t in tables for p in t.main_partitions())
    out["bytes_delta"] = sum(p.nbytes() for t in tables for p in t.delta_partitions())
    out["base_rows"] = base_rows(db)
    return out


def delta_rows(db: Database) -> int:
    return sum(
        p.row_count
        for name in db.catalog.table_names()
        for p in db.table(name).delta_partitions()
    )


class TimedOp(NamedTuple):
    """One replayed operation as the clock saw it."""

    phase: str
    kind: str
    traced: bool
    started: float  # perf_counter
    cpu: float  # process CPU seconds: what the metrics are made of
    wall: float  # wall seconds: the raw.* twins
    request: int  # span request id, 0 when untraced


class Run:
    """The state of one benchmark run."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        workdir: Path,
        setup_reps: int = SETUP_REPS,
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.setup_reps = setup_reps
        self.clock = HostClock()
        self.log = SpanLog()
        self.attempted = 0
        self.failed = 0
        #: (phase, kind, traced) -> host-normalised / raw seconds per op.
        self.norm: Dict[Tuple[str, str, bool], List[float]] = defaultdict(list)
        self.raw: Dict[Tuple[str, str, bool], List[float]] = defaultdict(list)
        self.merged_rows = 0
        self.cpu_seconds = 0.0  # of all replayed operations
        self.wall_seconds = 0.0
        self.read_counts = ReadCounts()
        #: Sampled at the first read of every main-phase block.
        self.delta_rows_at_read: List[int] = []
        self.tracked_bytes_at_read: List[int] = []
        self.recycler_bytes_peak = 0
        self.op_kinds: List[str] = []  # the replayed stream, for the tests
        self._pending: List[TimedOp] = []  # the open block's operations
        self._blocks: List[List[TimedOp]] = []  # closed, not yet normalised
        self._block_open = False
        self._sample_is_fresh = False  # no untimed work since the last sample
        self._block_index = 0
        self._block_has_read = False
        self._phase = "main"

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def set_up(self, traced_warm: bool):
        """Create + load, first merge, warm every statement; each step is
        normalised by the calibration samples taken around it."""
        steps: List[Tuple[float, float, float]] = []  # (cpu s, wall s, scale)

        def step(fn):
            value, cpu, wall, scale = self.clock.bracketed(fn)
            steps.append((cpu, wall, scale))
            return value

        ctx = step(lambda: self.workload.build(self.seed))
        step(ctx.db.merge)
        if traced_warm:
            # Entry builds of the warming reads are the one place every
            # workload builds entries; a traced run records them as spans.
            self._install_spans(ctx.db)
            self.log.active = True
        first_request = self.log.request + 1
        step(lambda: [self._warm(ctx.db, sql, traced_warm) for sql in ctx.statements])
        self.log.active = False
        cpu, wall, scale = steps[-1]
        for request in range(first_request, self.log.request + 1):
            self.log.scales[request] = scale * cpu / wall
        normalised = sum(cpu * scale for cpu, _wall, scale in steps)
        return ctx, normalised, sum(wall for _cpu, wall, _scale in steps)

    def _warm(self, db: Database, sql: str, traced: bool) -> None:
        if traced:
            self.log.next_request()
            self._traced_read(db, sql)
        else:
            db.query(sql)

    def _traced_read(self, db: Database, sql: str):
        """One read through ``explain_analyze`` with its span tree copied
        into the log; returns the ``QueryTrace``."""
        with self.log.span("read") as index:
            trace = db.explain_analyze(sql)
        self.log.add_query_trace(trace.root, index)
        return trace

    def _install_spans(self, db: Database) -> None:
        self.log.wrap(db.cache, "before_merge", "core.maintenance.before_merge")
        self.log.wrap(db.cache, "after_merge", "core.maintenance.after_merge")
        for name in db.catalog.table_names():
            self.log.wrap(db.table(name), "insert", "storage.table.insert")

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------
    def _open_block(self) -> None:
        if self._block_open:
            return
        if not self._sample_is_fresh:
            self.clock.calibrate()
        self._block_open = True
        self._block_index += 1
        self._block_has_read = False
        # A traced run traces every other block, so one run holds the
        # traced and the untraced cost of the same stream.
        self.log.active = self.trace and self._block_index % 2 == 1

    def _close_block(self) -> None:
        if not self._block_open:
            return
        self.clock.calibrate()
        self._sample_is_fresh = True
        if self._pending:
            self._blocks.append(self._pending)
            self._pending = []
        self._block_open = False
        self.log.active = False

    def _normalise_blocks(self) -> None:
        """Scale every block's operations, now that the samples taken after
        each block exist as well as those before it."""
        for ops in self._blocks:
            scale = self.clock.scale(ops[0].started, ops[-1].started + ops[-1].wall)
            for op in ops:
                self.cpu_seconds += op.cpu
                self.wall_seconds += op.wall
                self.norm[(op.phase, op.kind, op.traced)].append(op.cpu * scale)
                self.raw[(op.phase, op.kind, op.traced)].append(op.wall)
                if op.request:
                    # Spans are wall-clock intervals; the op's own CPU share
                    # takes the steal out of them.
                    self.log.scales[op.request] = scale * op.cpu / op.wall
        self._blocks = []

    # ------------------------------------------------------------------
    # the replay
    # ------------------------------------------------------------------
    def replay(self, ctx, stream) -> Dict[str, float]:
        """Run the stream; returns the engine state at the end of the main
        phase (before any write tail and before the final oracle)."""
        db = ctx.db
        main_end: Optional[Dict[str, float]] = None
        for kind, payload in stream:
            self.op_kinds.append(kind)
            if kind == "phase":
                self._close_block()
                if self._phase == "main" and payload != "main":
                    main_end = state_snapshot(db)
                self._phase = payload
            elif kind == "block":
                self._close_block()
            elif kind == "check":
                self._close_block()
                self.oracle(ctx)
                self._sample_is_fresh = False
            else:
                self._open_block()
                self._timed_op(db, kind, payload)
        self._close_block()
        self._normalise_blocks()
        return main_end if main_end is not None else state_snapshot(db)

    def _timed_op(self, db: Database, kind: str, payload) -> None:
        self.attempted += 1
        if kind == "read" and self._phase == "main" and not self._block_has_read:
            self._block_has_read = True
            self.delta_rows_at_read.append(delta_rows(db))
            self.tracked_bytes_at_read.append(db.cache.tracked_bytes())
        # Merges and refreshes are few and carry the maintenance spans, so
        # a traced run traces all of them, whatever block they fall in.
        block_traced = self.log.active
        traced = self.trace and (block_traced or kind in ("merge", "refresh"))
        request = self.log.next_request() if traced else 0
        self.log.active = traced
        started = time.perf_counter()
        try:
            call = self._traced_call if traced else self._plain_call
            cpu, wall = call(db, kind, payload)
        except Exception:  # an op that raises is a failed op, not a crash
            self.fail(f"{kind} raised: {traceback.format_exc(limit=3)}")
            return
        finally:
            self.log.active = block_traced
        self._pending.append(
            TimedOp(self._phase, kind, traced, started, cpu, wall, request)
        )

    def _plain_call(self, db: Database, kind: str, payload) -> Tuple[float, float]:
        if kind == "read":
            result, cpu, wall = clocked(lambda: db.query(payload))
            self._after_read(result.report)
        elif kind == "write":
            _none, cpu, wall = clocked(payload)
        elif kind == "merge":
            stats, cpu, wall = clocked(db.merge)
            self.merged_rows += sum(s.rows_moved for s in stats)
        elif kind == "refresh":
            _decisions, cpu, wall = clocked(db.refresh_cache)
        else:
            raise ValueError(f"unknown stream item {kind!r}")
        return cpu, wall

    def _traced_call(self, db: Database, kind: str, payload) -> Tuple[float, float]:
        if kind != "read":
            with self.log.span(kind):
                return self._plain_call(db, kind, payload)
        # Copying the span tree is the tracing's cost, so it is clocked too.
        trace, cpu, wall = clocked(lambda: self._traced_read(db, payload))
        self._after_read(trace.report)
        return cpu, wall

    def _after_read(self, report) -> None:
        if self._phase == "main":
            self.read_counts.add(report)

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------
    def oracle(self, ctx) -> List[str]:
        """Every statement at the default strategy must equal UNCACHED bit
        for bit; returns the canonical answers."""
        db = ctx.db
        self.recycler_bytes_peak = max(
            self.recycler_bytes_peak, db.cache.counters_snapshot()["recycler_bytes"]
        )
        answers: List[str] = []
        for sql in ctx.statements:
            self.attempted += 1
            try:
                cached = answer_text(db.query(sql).rows)
                truth = answer_text(
                    db.query(sql, strategy=ExecutionStrategy.UNCACHED).rows
                )
            except Exception:
                self.fail(f"oracle raised: {traceback.format_exc(limit=3)}")
                continue
            if cached != truth:
                self.fail(f"oracle mismatch on {' '.join(sql.split())[:80]}")
            answers.append(truth)
        return answers

    # ------------------------------------------------------------------
    # the whole run
    # ------------------------------------------------------------------
    def execute(self) -> Dict[str, object]:
        setups: List[Tuple[float, float]] = []
        ctx = None
        for rep in range(self.setup_reps):
            if ctx is not None:
                ctx.db.close()
            last = rep == self.setup_reps - 1
            ctx, normalised, wall = self.set_up(traced_warm=self.trace and last)
            setups.append((normalised, wall))
        try:
            gc.collect()
            stream = self.workload.stream(ctx, self.seconds, self.seed)
            warm_state = state_snapshot(ctx.db)
            main_end = self.replay(ctx, stream)
            answers = self.oracle(ctx)
            durable = durable_replay(self)
            result = self._summarise(ctx, setups, warm_state, main_end, answers, durable)
            if self.trace:
                result["per_layer"] = layers.per_layer(
                    self, ctx, warm_state, main_end, durable
                )
                self.workdir.mkdir(parents=True, exist_ok=True)
                self.log.write_jsonl(
                    self.workdir / f"spans-{self.workload.name}-{self.seed}.jsonl"
                )
            return result
        finally:
            ctx.db.close()

    # ------------------------------------------------------------------
    def seconds_of(self, kinds, phases=("main", "tail"), traced=(False, True), raw=False):
        """Every recorded op time of the given kinds / phases / tracing."""
        store = self.raw if raw else self.norm
        return [
            value
            for (phase, kind, was_traced), values in store.items()
            if kind in kinds and phase in phases and was_traced in traced
            for value in values
        ]

    def _summarise(self, ctx, setups, warm_state, main_end, answers, durable):
        reads = self.seconds_of(("read",), ("main",))
        writes = self.seconds_of(("write",))
        merges = self.seconds_of(("merge",))
        main_ops = self.seconds_of(("read", "write"), ("main",))
        main_busy = sum(self.seconds_of(("read", "write", "merge", "refresh"), ("main",)))
        rows = main_end["base_rows"]
        end_to_end = {
            "setup_s": statistics.median(s[0] for s in setups),
            "ops_per_s": len(main_ops) / main_busy,
            "read_p50_ms": percentile(reads, 50) * 1e3,
            "read_p95_ms": percentile(reads, 95) * 1e3,
            "write_p50_ms": percentile(writes, 50) * 1e3,
            "write_p95_ms": percentile(writes, 95) * 1e3,
            "merge_rows_per_s": self.merged_rows / sum(merges),
            "cache_bytes_per_row": statistics.mean(self.tracked_bytes_at_read) / rows,
            "storage_bytes_per_row": (main_end["bytes_main"] + main_end["bytes_delta"])
            / rows,
            "wal_bytes_per_row": durable["wal_bytes_per_row"],
        }
        raw_reads = self.seconds_of(("read",), ("main",), raw=True)
        raw_writes = self.seconds_of(("write",), raw=True)
        raw_busy = sum(
            self.seconds_of(("read", "write", "merge", "refresh"), ("main",), raw=True)
        )
        raw = {
            "raw.setup_s": statistics.median(s[1] for s in setups),
            "raw.ops_per_s": len(main_ops) / raw_busy,
            "raw.read_p50_ms": percentile(raw_reads, 50) * 1e3,
            "raw.read_p95_ms": percentile(raw_reads, 95) * 1e3,
            "raw.write_p50_ms": percentile(raw_writes, 50) * 1e3,
            "raw.write_p95_ms": percentile(raw_writes, 95) * 1e3,
            "raw.merge_rows_per_s": self.merged_rows
            / sum(self.seconds_of(("merge",), raw=True)),
            "raw.main_phase_s": raw_busy,
        }
        counts = {
            "reads": len(reads),
            "writes": len(writes),
            "merges": len(merges),
            "refreshes": len(self.seconds_of(("refresh",))),
            "merged_rows": self.merged_rows,
            "base_rows": rows,
            "storage_bytes": main_end["bytes_main"] + main_end["bytes_delta"],
            "durable_rows_written": durable["rows_written"],
            "durable_disk_bytes": durable["disk_bytes"],
        }
        digest = hashlib.sha256(
            json.dumps({"answers": answers, "counts": counts}, sort_keys=True).encode()
        ).hexdigest()[:16]
        cal = self.clock.samples
        cal_spread = percentile(cal, 95) / percentile(cal, 5)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "end_to_end": end_to_end,
            "raw": raw,
            "counts": counts,
            "read_counts": asdict(self.read_counts),
            "cache_state": {
                key: main_end[key]
                for key in ("entries", "value_bytes", "tracked_bytes", "evictions")
            },
            "result_digest": digest,
            "host": {
                "cal_ms_p50": percentile(cal, 50),
                "cal_spread": cal_spread,
                "settled": cal_spread <= 2.0,
                "wall_over_cpu": self.wall_seconds / self.cpu_seconds,
            },
        }
