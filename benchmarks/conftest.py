"""Shared benchmark infrastructure.

Every benchmark file regenerates one of the paper's figures/tables; the
measured series are appended to a session-wide :class:`FigureCollector`
whose rendered summary is printed at the end of the run (and therefore
lands in ``bench_output.txt``).
"""

import os
import time

import pytest

from repro.bench import FigureCollector

_collector = FigureCollector()


@pytest.fixture(scope="session")
def figures() -> FigureCollector:
    return _collector


@pytest.fixture
def fastest_round(benchmark):
    """``fastest_round(target, setup=None, rounds=3)``: the fastest of
    ``rounds`` one-iteration rounds of ``target``, in seconds.

    Runs through ``benchmark.pedantic`` and reads ``benchmark.stats``.
    Under ``--benchmark-disable`` the plugin keeps no stats and the run
    only has to execute the code: one round, timed here.  ``setup``
    returns ``(args, kwargs)`` for each round, as ``pedantic``'s does.
    """

    def run(target, setup=None, rounds=3):
        if not benchmark.disabled:
            benchmark.pedantic(target, setup=setup, rounds=rounds, iterations=1)
            return benchmark.stats.stats.min
        args, kwargs = setup() if setup is not None else ((), {})
        start = time.perf_counter()
        target(*args, **kwargs)
        return time.perf_counter() - start

    return run


def pytest_terminal_summary(terminalreporter):
    rendered = _collector.render_all()
    if rendered:
        terminalreporter.write_line("")
        for line in rendered.splitlines():
            terminalreporter.write_line(line)
    # REPRO_METRICS_OUT=path dumps every metric snapshot the benchmarks
    # attached (FigureCollector.attach_metrics) alongside the bench JSON.
    out = os.environ.get("REPRO_METRICS_OUT")
    if out:
        path = _collector.dump_metrics_json(out)
        if path is not None:
            terminalreporter.write_line(f"metrics snapshots written to {path}")
