"""``python -m repro``: an interactive SQL shell over a :class:`~repro.Database`.
SQL ends with ``;`` and runs under the current strategy; each backslash
command is one call into the public ``Database`` API:

  \\help            this text
  \\demo            load the ERP demo dataset (Header/Item/ProductCategory)
  \\schema T        columns of table T
  \\strategy [s]    show or set the strategy (an ExecutionStrategy value)
  \\explain SQL     the cache plan for a query, without executing it
  \\analyze SQL     execute the query; its span trace and per-query report
  \\merge [T]       run the delta merge (for one table or all)
  \\stats           tables, partitions, cache, enforcement and durability
  \\health          governor health: degraded mode and abort/retry counters
  \\metrics         the metrics registry in Prometheus text format
  \\save DIR        write the database as one checkpoint file into DIR
  \\open DIR        replace the session database with the one saved in DIR
  \\quit            leave
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from .core.strategies import ExecutionStrategy
from .database import Database
from .errors import ReproError
from .reliability.checkpoint import load_database, save_database
from .workloads.erp import load_demo

PROMPT, CONTINUATION = "repro> ", "  ...> "
#: The commands that need an argument, as their usage line names it.
ARGUMENTS = {"schema": "T", "explain": "SQL", "analyze": "SQL",
             "save": "DIR", "open": "DIR"}


class Shell:
    """Line-oriented REPL; testable via explicit input/output streams."""

    def __init__(self, db: Optional[Database] = None, stdin: Optional[IO] = None,
                 stdout: Optional[IO] = None):
        self.db = db if db is not None else Database()
        self._in = stdin if stdin is not None else sys.stdin
        self._out = stdout if stdout is not None else sys.stdout
        self.strategy = ExecutionStrategy.CACHED_FULL_PRUNING

    def run(self) -> None:
        """The REPL loop; returns on \\quit or end of input."""
        print("repro interactive shell — \\help for help", file=self._out)
        buffer = ""
        while True:
            print(CONTINUATION if buffer else PROMPT, end="", file=self._out, flush=True)
            line = self._in.readline()
            stripped = line.strip()
            if not line or (not buffer and stripped in ("\\quit", "\\q")):
                print("bye" if line else "", file=self._out)
                return
            try:
                if buffer or not stripped.startswith("\\"):
                    buffer = f"{buffer} {stripped}".strip()
                    if buffer.endswith(";"):
                        sql, buffer = buffer[:-1], ""
                        print(self._sql(sql), file=self._out)
                else:
                    command, _, arg = stripped[1:].partition(" ")
                    print(self._meta(command, arg.strip().rstrip(";")), file=self._out)
            except ReproError as error:
                print(f"error: {error}", file=self._out)

    def _sql(self, sql: str) -> str:
        started = time.perf_counter()
        result = self.db.query(sql, strategy=self.strategy)
        elapsed_ms = (time.perf_counter() - started) * 1000
        return (f"{result.to_text()}\n({len(result)} rows, {elapsed_ms:.2f} ms, "
                f"strategy={self.strategy.value}, "
                f"subjoins pruned={result.report.prune.pruned_total})")

    def _meta(self, command: str, arg: str) -> str:
        """The text one backslash command prints."""
        if command in ARGUMENTS and not arg:
            return f"usage: \\{command} <{ARGUMENTS[command]}>"
        if command == "strategy" and arg:
            try:
                self.strategy = ExecutionStrategy(arg)
            except ValueError:
                valid = ", ".join(s.value for s in ExecutionStrategy)
                return f"unknown strategy {arg!r}; valid: {valid}"
        if command == "open":
            replaced, self.db = self.db, load_database(arg)
            replaced.close()  # else its WAL handle stays open
        db, strategy = self.db, self.strategy
        views = {
            "help": lambda: __doc__.replace("\\\\", "\\"),
            "demo": self._demo,
            "schema": lambda: db.table(arg).schema.describe(),
            "strategy": lambda: f"strategy: {strategy.value}",
            "explain": lambda: db.explain(arg, strategy=strategy),
            "analyze": lambda: db.explain_analyze(arg, strategy=strategy).render(),
            "merge": lambda: "\n".join(map(repr, db.merge(arg or None))),
            "stats": lambda: db.statistics().render(),
            "health": lambda: db.health().render(),
            "metrics": lambda: db.export_metrics().rstrip("\n"),
            "save": lambda: f"snapshot written to {save_database(db, arg)}",
            "open": lambda: f"snapshot loaded; tables: {db.catalog.table_names()}",
        }
        view = views.get(command)
        return view() if view else f"unknown command \\{command}; \\help for help"

    def _demo(self) -> str:
        if self.db.catalog.table_names():
            return "database is not empty; \\demo needs a fresh shell"
        return ("loaded ERP demo: Header/Item/ProductCategory with matching "
                "dependencies; 300 merged objects + 20 in the deltas.  Try:\n  "
                f"{load_demo(self.db)};")


def main() -> None:
    """Entry point for ``python -m repro``."""
    Shell().run()
