"""An interactive SQL shell over a :class:`~repro.database.Database`.

Launch with ``python -m repro``.  SQL statements terminate with ``;`` and
run under the current execution strategy; backslash meta-commands inspect
the engine:

=================  =====================================================
``\\help``          this text
``\\demo``          load the ERP demo dataset (Header/Item/ProductCategory)
``\\tables``        tables with per-partition row counts
``\\schema T``      columns of table T
``\\strategy [s]``  show or set the strategy (uncached / cached_no_pruning
                   / cached_empty_delta / cached_full_pruning)
``\\explain SQL``   the cache plan for a query, without executing it
``\\analyze SQL``   execute the query and show its span trace
``\\merge [T]``     run the delta merge (for one table or all)
``\\entries``       aggregate cache entries and their metrics
``\\plans``         plan cache contents and hit/miss/invalidation counters
``\\stats``         storage / cache / enforcement statistics
``\\health``        governor health: breaker states and degraded modes
``\\metrics``       the metrics registry in Prometheus text format
``\\save DIR``      write a snapshot of the database to a directory
``\\open DIR``      replace the session database with a saved snapshot
``\\report``        the report of the last executed query
``\\quit``          leave
=================  =====================================================
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from .core.strategies import ExecutionStrategy
from .database import Database
from .errors import ReproError

PROMPT = "repro> "
CONTINUATION = "  ...> "


class Shell:
    """Line-oriented REPL; testable via explicit input/output streams."""

    def __init__(
        self,
        db: Optional[Database] = None,
        stdin: Optional[IO] = None,
        stdout: Optional[IO] = None,
    ):
        self.db = db if db is not None else Database()
        self._in = stdin if stdin is not None else sys.stdin
        self._out = stdout if stdout is not None else sys.stdout
        self.strategy = ExecutionStrategy.CACHED_FULL_PRUNING
        self._running = False

    # ------------------------------------------------------------------
    def _print(self, text: str = "") -> None:
        self._out.write(text + "\n")

    def _read_line(self, prompt: str) -> Optional[str]:
        self._out.write(prompt)
        self._out.flush()
        line = self._in.readline()
        if not line:
            return None
        return line.rstrip("\n")

    # ------------------------------------------------------------------
    def run(self) -> None:
        """The REPL loop; returns on \\quit or end of input."""
        self._print("repro interactive shell — \\help for help")
        self._running = True
        buffer = ""
        while self._running:
            prompt = CONTINUATION if buffer else PROMPT
            line = self._read_line(prompt)
            if line is None:
                break
            stripped = line.strip()
            if not buffer and not stripped:
                continue
            if not buffer and stripped.startswith("\\"):
                self._dispatch_meta(stripped)
                continue
            buffer = f"{buffer} {stripped}".strip()
            if buffer.endswith(";"):
                self._execute_sql(buffer[:-1])
                buffer = ""

    # ------------------------------------------------------------------
    def _dispatch_meta(self, line: str) -> None:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        handler = {
            "\\help": self._cmd_help,
            "\\demo": self._cmd_demo,
            "\\tables": self._cmd_tables,
            "\\schema": self._cmd_schema,
            "\\strategy": self._cmd_strategy,
            "\\explain": self._cmd_explain,
            "\\analyze": self._cmd_analyze,
            "\\merge": self._cmd_merge,
            "\\entries": self._cmd_entries,
            "\\plans": self._cmd_plans,
            "\\report": self._cmd_report,
            "\\stats": self._cmd_stats,
            "\\health": self._cmd_health,
            "\\metrics": self._cmd_metrics,
            "\\save": self._cmd_save,
            "\\open": self._cmd_open,
            "\\quit": self._cmd_quit,
            "\\q": self._cmd_quit,
        }.get(command)
        if handler is None:
            self._print(f"unknown command {command!r}; \\help for help")
            return
        try:
            handler(argument)
        except ReproError as error:
            self._print(f"error: {error}")

    def _execute_sql(self, sql: str) -> None:
        try:
            started = time.perf_counter()
            result = self.db.query(sql, strategy=self.strategy)
            elapsed = time.perf_counter() - started
        except ReproError as error:
            self._print(f"error: {error}")
            return
        self._print(result.to_text())
        report = result.report
        pruned = report.prune.pruned_total if report else 0
        self._print(
            f"({len(result)} rows, {elapsed * 1000:.2f} ms, "
            f"strategy={self.strategy.value}, subjoins pruned={pruned})"
        )

    # ------------------------------------------------------------------
    # meta commands
    # ------------------------------------------------------------------
    def _cmd_help(self, _argument: str) -> None:
        self._print(__doc__.replace("\\\\", "\\"))

    def _cmd_demo(self, _argument: str) -> None:
        from .workloads.erp import ErpConfig, ErpWorkload

        if self.db.catalog.table_names():
            self._print("database is not empty; \\demo needs a fresh shell")
            return
        workload = ErpWorkload(self.db, ErpConfig(seed=1, n_categories=8))
        workload.insert_objects(300, merge_after=True)
        workload.insert_objects(20)
        self._print(
            "loaded ERP demo: Header/Item/ProductCategory with matching "
            "dependencies; 300 merged objects + 20 in the deltas.  Try:\n  "
            + workload.profit_and_loss_sql(year=2013).replace("\n", " ")
            + ";"
        )

    def _cmd_tables(self, _argument: str) -> None:
        names = self.db.catalog.table_names()
        if not names:
            self._print("(no tables; \\demo loads a sample dataset)")
            return
        for name in names:
            table = self.db.table(name)
            parts = ", ".join(
                f"{p.name}={p.row_count}" for p in table.partitions()
            )
            self._print(f"{name}  [{parts}]")

    def _cmd_schema(self, argument: str) -> None:
        if not argument:
            self._print("usage: \\schema <table>")
            return
        table = self.db.table(argument)
        for column in table.schema:
            flags = []
            if column.name == table.schema.primary_key:
                flags.append("PRIMARY KEY")
            if not column.nullable:
                flags.append("NOT NULL")
            if column.is_tid:
                flags.append("MD tid")
            suffix = f"  ({', '.join(flags)})" if flags else ""
            self._print(f"{column.name}  {column.sql_type.value}{suffix}")

    def _cmd_strategy(self, argument: str) -> None:
        if argument:
            try:
                self.strategy = ExecutionStrategy(argument)
            except ValueError:
                valid = ", ".join(s.value for s in ExecutionStrategy)
                self._print(f"unknown strategy {argument!r}; valid: {valid}")
                return
        self._print(f"strategy: {self.strategy.value}")

    def _cmd_explain(self, argument: str) -> None:
        if not argument:
            self._print("usage: \\explain <sql>")
            return
        self._print(self.db.explain(argument.rstrip(";"), strategy=self.strategy))

    def _cmd_analyze(self, argument: str) -> None:
        if not argument:
            self._print("usage: \\analyze <sql>")
            return
        trace = self.db.explain_analyze(
            argument.rstrip(";"), strategy=self.strategy
        )
        self._print(trace.render())

    def _cmd_merge(self, argument: str) -> None:
        stats = self.db.merge(argument or None)
        moved = sum(s.rows_moved for s in stats)
        dropped = sum(s.rows_dropped for s in stats)
        self._print(f"merged: {moved} rows moved, {dropped} dropped")

    def _cmd_entries(self, _argument: str) -> None:
        entries = self.db.cache.entries()
        if not entries:
            self._print("(aggregate cache is empty)")
            return
        for entry in entries:
            combo = ", ".join(f"{a}:{p}" for a, p in entry.key.combo)
            metrics = entry.metrics
            memo = entry.delta_memo
            memo_text = (
                f"memo@tid{memo.anchor}"
                f"(covered={memo.rows_below_watermarks()} rows)"
                if memo is not None
                else "memo=none"
            )
            self._print(
                f"[{combo}] groups={entry.value.group_count()} "
                f"records={metrics.aggregated_records_main} "
                f"uses={metrics.reference_count} "
                f"size~{metrics.size_bytes}B {memo_text}"
            )

    def _cmd_plans(self, _argument: str) -> None:
        cache = self.db.plan_cache
        stats = cache.stats()
        self._print(
            f"plan cache: entries={stats['entries']} hits={stats['hits']} "
            f"misses={stats['misses']} invalidations={stats['invalidations']} "
            f"evictions={stats['evictions']}"
        )
        for plan in cache.cached_plans():
            evaluated = sum(1 for s in plan.subjoins if s.action == "evaluate")
            self._print(
                f"  [{plan.strategy.value}] tables={','.join(plan.table_names())} "
                f"subjoins={len(plan.subjoins)} (evaluate={evaluated}) "
                f"{plan.query.canonical_key()}"
            )

    def _cmd_report(self, _argument: str) -> None:
        report = self.db.last_report
        if report is None:
            self._print("(no query executed yet)")
            return
        prune = report.prune
        self._print(
            f"strategy={report.strategy.value} hits={report.cache_hits} "
            f"created={report.entries_created} "
            f"subjoins: total={prune.combos_total} "
            f"evaluated={prune.evaluated} pruned(empty={prune.pruned_empty}, "
            f"logical={prune.pruned_logical}, dynamic={prune.pruned_dynamic}) "
            f"compensation={report.delta_memo_mode or 'n/a'}"
            + (
                f" rows-saved={report.delta_memo_rows_saved}"
                if report.delta_memo_mode == "incremental"
                else ""
            )
            + f" time={report.time_total * 1000:.2f}ms"
        )

    def _cmd_stats(self, _argument: str) -> None:
        self._print(self.db.statistics().render())

    def _cmd_health(self, _argument: str) -> None:
        self._print(self.db.health().render())

    def _cmd_metrics(self, _argument: str) -> None:
        text = self.db.export_metrics()
        if not text:
            self._print("(observability is disabled for this database)")
            return
        self._print(text.rstrip("\n"))

    def _cmd_save(self, argument: str) -> None:
        if not argument:
            self._print("usage: \\save <directory>")
            return
        from .storage.snapshot import save_database

        path = save_database(self.db, argument)
        self._print(f"snapshot written to {path}")

    def _cmd_open(self, argument: str) -> None:
        if not argument:
            self._print("usage: \\open <directory>")
            return
        from .storage.snapshot import load_database

        replaced = self.db
        self.db = load_database(argument)
        # The old database's WAL handle would otherwise stay open for the
        # rest of the session.
        replaced.close()
        self._print(
            f"snapshot loaded; tables: {', '.join(self.db.catalog.table_names())}"
        )

    def _cmd_quit(self, _argument: str) -> None:
        self._print("bye")
        self._running = False


def main() -> None:  # pragma: no cover - thin CLI wrapper
    """Entry point for ``python -m repro``."""
    Shell().run()


if __name__ == "__main__":  # pragma: no cover
    main()
