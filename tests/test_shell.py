"""Tests for the interactive shell (driven through string streams, and
once as ``python -m repro`` in a subprocess)."""

import io
import os
import subprocess
import sys
from pathlib import Path

from repro import Database
from repro.shell import Shell
from repro.workloads.erp import ErpWorkload


def run_shell(script: str, db=None) -> str:
    stdin = io.StringIO(script)
    stdout = io.StringIO()
    shell = Shell(db=db, stdin=stdin, stdout=stdout)
    shell.run()
    return stdout.getvalue()


def make_db():
    db = Database()
    db.create_table(
        "sales", [("sid", "INT"), ("cat", "TEXT"), ("price", "FLOAT")], primary_key="sid"
    )
    for sid, cat, price in [(1, "a", 5.0), (2, "b", 7.0), (3, "a", 3.0)]:
        db.insert("sales", {"sid": sid, "cat": cat, "price": price})
    db.merge()
    return db


class TestMetaCommands:
    def test_help(self):
        out = run_shell("\\help\n\\quit\n")
        assert "\\stats" in out
        assert "bye" in out

    def test_quit_and_eof(self):
        assert "bye" in run_shell("\\quit\n")
        # EOF without \quit terminates cleanly too.
        assert "repro interactive shell" in run_shell("")

    def test_unknown_command(self):
        out = run_shell("\\bogus\n\\quit\n")
        assert "unknown command" in out

    def test_schema(self):
        out = run_shell("\\schema sales\n\\quit\n", db=make_db())
        assert "sid  INT  (PRIMARY KEY)" in out
        assert "price  FLOAT" in out

    def test_schema_usage_and_missing_table(self):
        out = run_shell("\\schema\n\\schema nope\n\\quit\n", db=make_db())
        assert "usage" in out
        assert "error:" in out

    def test_strategy_show_and_set(self):
        out = run_shell(
            "\\strategy\n\\strategy uncached\n\\strategy weird\n\\quit\n"
        )
        assert "cached_full_pruning" in out
        assert "strategy: uncached" in out
        assert "unknown strategy" in out

    def test_merge(self):
        db = Database()
        db.create_table("t", [("k", "INT")], primary_key="k")
        db.insert("t", {"k": 1})
        out = run_shell("\\merge t\n\\quit\n", db=db)
        assert "rows_moved=1" in out

    def test_explain(self):
        out = run_shell(
            "\\explain SELECT cat, SUM(price) AS s FROM sales GROUP BY cat\n\\quit\n",
            db=make_db(),
        )
        assert "delta compensation" in out

    def test_demo_loads_once(self):
        out = run_shell("\\demo\n\\demo\n\\quit\n")
        assert "loaded ERP demo" in out
        assert "not empty" in out


class TestSqlExecution:
    def test_single_line_query(self):
        out = run_shell(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat;\n\\quit\n",
            db=make_db(),
        )
        assert "a" in out and "8.00" in out
        assert "2 rows" in out

    def test_multi_line_query(self):
        out = run_shell(
            "SELECT cat, SUM(price) AS s\nFROM sales\nGROUP BY cat;\n\\quit\n",
            db=make_db(),
        )
        assert "2 rows" in out

    def test_sql_error_reported(self):
        out = run_shell("SELECT FROM;\n\\quit\n", db=make_db())
        assert "error:" in out

    def test_strategy_applies_to_queries(self):
        db = make_db()
        out = run_shell(
            "\\strategy uncached\n"
            "SELECT COUNT(*) AS n FROM sales;\n\\quit\n",
            db=db,
        )
        assert "strategy=uncached" in out
        assert db.cache.entry_count() == 0


class TestSnapshotCommands:
    def test_save_and_open_roundtrip(self, tmp_path):
        db = make_db()
        target = tmp_path / "snap"
        out = run_shell(f"\\save {target}\n\\quit\n", db=db)
        assert "snapshot written" in out
        out = run_shell(
            f"\\open {target}\nSELECT COUNT(*) AS n FROM sales;\n\\quit\n"
        )
        assert "snapshot loaded" in out
        assert "1 rows" in out

    def test_usage_messages(self):
        out = run_shell("\\save\n\\open\n\\quit\n")
        assert out.count("usage:") == 2

    def test_open_missing_snapshot(self, tmp_path):
        out = run_shell(f"\\open {tmp_path}/void\n\\quit\n")
        assert "error:" in out


def test_python_m_repro_session():
    """The demo, a profit-and-loss query, its trace and the statistics, piped
    through the real entry point."""
    pnl = ErpWorkload.profit_and_loss_sql(year=2013).replace("\n", " ")
    script = f"\\demo\n{pnl};\n\\analyze {pnl}\n\\stats\n\\quit\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "repro"], input=script, capture_output=True,
        text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "loaded ERP demo" in out and "subjoins pruned=" in out
    assert "delta_compensation" in out  # the \\analyze span trace
    assert "\ntables:" in out and "\naggregate cache:" in out  # \\stats
    assert out.rstrip().endswith("bye")
