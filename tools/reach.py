"""Reachability map: which lines of ``src/repro`` the measurements execute.

Runs, in this one process under a ``sys.settrace`` line counter:

* ``benchmarks/e2e/run.py --workload W --quick`` for each of the four
  workloads, through ``runpy``;
* the eight paper benches (``bench_fig6`` … ``bench_fig11``,
  ``bench_sec62`` / ``bench_sec63``) under ``--benchmark-disable``;
* the stateful oracle, ``tests/core/test_pure_hit_stateful.py``;

then prints one row per module of ``src/repro``: lines executed, lines
executable, and their ratio.  A module's executable lines are the line
numbers its compiled code objects map instructions to (``co_lines()``,
every nested function and class body included), so a ``def`` line counts
once, as executed by the import.  Stdlib only; needs Python 3.10 or later
(``co_lines()`` and ``threading.gettrace()``).

    python tools/reach.py                 # several minutes

The e2e harness re-executes itself unless ``PYTHONHASHSEED=0`` is set and
no ``REPRO_*`` variable is, so this script fixes that environment first:
the counter would not survive a re-exec.
"""

from __future__ import annotations

import importlib.util
import os
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Dict, Iterable, Set

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
E2E_RUN = REPO / "benchmarks" / "e2e" / "run.py"
WORKLOADS = ("ch_mixed", "ch_hot_reads", "ch_cache_pressure", "erp_write_heavy")
PAPER_BENCHES = (
    "bench_fig6_maintenance.py",
    "bench_fig7_delta_sweep.py",
    "bench_fig8_growing_delta.py",
    "bench_fig9_chbench.py",
    "bench_fig10_pushdown.py",
    "bench_fig11_hot_cold.py",
    "bench_sec62_memory.py",
    "bench_sec63_insert.py",
)
ORACLE = REPO / "tests" / "core" / "test_pure_hit_stateful.py"


def code_lines(code: CodeType) -> Set[int]:
    """Line numbers ``code`` and every code object nested in it map to
    (a module's line 0, its implicit start, is none)."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def executable_lines(path: Path) -> Set[int]:
    """The executable lines of one source file."""
    return code_lines(compile(path.read_text(), str(path), "exec"))


class LineCounter:
    """Records each (file, line) executed under ``prefix``.

    The global tracer returns a local one only for frames of files under
    ``prefix``, so every other frame runs without line events.
    """

    def __init__(self, prefix: Path):
        self.prefix = str(prefix) + os.sep
        self.hits: Dict[str, Set[int]] = defaultdict(set)
        self._wanted: Dict[str, bool] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        wanted = self._wanted.get(filename)
        if wanted is None:
            wanted = self._wanted[filename] = filename.startswith(self.prefix)
        if not wanted:
            return None
        lines = self.hits[filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self) -> "LineCounter":
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def fixed_environment() -> None:
    """Re-exec this script once with the environment the e2e harness
    insists on, through the harness's own ``clean_environment``."""
    spec = importlib.util.spec_from_file_location("e2e_run", E2E_RUN)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    harness.clean_environment()


def run_e2e(workload: str) -> None:
    argv = sys.argv
    sys.argv = [str(E2E_RUN), "--workload", workload, "--quick"]
    try:
        runpy.run_path(str(E2E_RUN), run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            raise RuntimeError(f"e2e run of {workload} exited {exit_.code}")
    finally:
        sys.argv = argv


def run_pytest(paths: Iterable[Path], *extra: str) -> None:
    import pytest

    # A fixed Hypothesis seed makes the oracle draw the same examples, so
    # two runs of one tree report the same lines.
    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *extra]
    code = pytest.main([*args, *map(str, paths)])
    if code != 0:
        raise RuntimeError(f"pytest exited {code}")


def report(hits: Dict[str, Set[int]]) -> str:
    rows = []
    total_hit = total_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        if not lines:
            continue
        hit = len(hits.get(str(path), set()) & lines)
        total_hit += hit
        total_lines += len(lines)
        rows.append((str(path.relative_to(PACKAGE.parent)), hit, len(lines)))
    out = ["| module | executed | executable | share |", "|---|---:|---:|---:|"]
    for name, hit, lines in rows:
        out.append(f"| `{name}` | {hit:,} | {lines:,} | {hit / lines:.0%} |")
    out.append(
        f"| **total** | **{total_hit:,}** | **{total_lines:,}** "
        f"| **{total_hit / total_lines:.0%}** |"
    )
    return "\n".join(out)


def main() -> int:
    fixed_environment()
    os.chdir(REPO)
    sys.path.insert(0, str(PACKAGE.parent))
    with LineCounter(PACKAGE) as counter:
        for workload in WORKLOADS:
            run_e2e(workload)
        run_pytest([REPO / "benchmarks" / name for name in PAPER_BENCHES],
                   "--benchmark-disable")
        run_pytest([ORACLE])
    print("\nreachability of src/repro:\n")
    print(report(counter.hits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
