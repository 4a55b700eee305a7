"""HealthReport rendering: "no reading yet" is not the same as "0 bytes".

Regression: the budget line used ``{tracked_bytes or 0}B``, which collapses
``None`` (the budget exists but nothing has measured against it) into a
genuine 0-byte measurement — an operator reading ``tracked=0B`` would
conclude the tracker ran and found nothing, when in fact it never ran.
"""

from repro import GovernorConfig
from repro.governor import HealthReport, ResourceGovernor


def _report(tracked_bytes, memory_budget_bytes):
    return HealthReport(
        state="healthy",
        modes=[],
        timeouts=0,
        cancellations=0,
        writes_rejected=0,
        degraded_queries=0,
        retries={},
        sheds={},
        shed_bytes=0,
        tracked_bytes=tracked_bytes,
        memory_budget_bytes=memory_budget_bytes,
    )


def test_untracked_renders_distinct_from_zero_bytes():
    untracked = _report(None, 1024).render()
    zero = _report(0, 1024).render()
    assert "tracked=untracked" in untracked
    assert "tracked=0B" in zero
    assert "tracked=0B" not in untracked


def test_zero_budget_line_still_prints_budget_and_sheds():
    line = [
        l for l in _report(0, 1024).render().splitlines() if "memory:" in l
    ][0]
    assert "budget=1024B" in line
    assert "shed_bytes=0" in line


def test_governor_health_without_reading_reports_untracked():
    governor = ResourceGovernor(GovernorConfig(memory_budget_mb=1.0))
    report = governor.health()  # nothing has measured yet
    assert report.tracked_bytes is None
    assert "tracked=untracked" in report.render()
    after = governor.health(tracked_bytes=0)
    assert "tracked=0B" in after.render()
