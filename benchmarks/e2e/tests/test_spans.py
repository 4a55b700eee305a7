"""Span self time: nested, overlapping and engine-synthesised children."""

import pytest

from repro.obs.trace import Span
from spans import SpanLog, SpanRecord, self_seconds


def test_self_time_subtracts_nested_children_once():
    records = [
        SpanRecord("root", 0.0, 10.0, -1, 1),
        SpanRecord("child", 1.0, 5.0, 0, 1),
        SpanRecord("grandchild", 2.0, 3.0, 1, 1),
        SpanRecord("child", 6.0, 8.0, 0, 1),
    ]
    assert self_seconds(records) == pytest.approx([4.0, 3.0, 1.0, 2.0])


def test_overlapping_children_count_once_and_are_clipped():
    records = [
        SpanRecord("root", 0.0, 10.0, -1, 1),
        SpanRecord("a", 1.0, 6.0, 0, 1),
        SpanRecord("b", 4.0, 8.0, 0, 1),  # overlaps a on [4, 6]
        SpanRecord("c", 9.0, 12.0, 0, 1),  # runs past the parent's end
    ]
    # covered: [1, 8] and [9, 10] = 8 of 10
    assert self_seconds(records)[0] == pytest.approx(2.0)


def test_wrap_records_only_while_active_and_nests_under_the_open_span():
    class Layer:
        def work(self, x):
            return x + 1

    layer = Layer()
    log = SpanLog()
    log.wrap(layer, "work", "layer.work")
    assert layer.work(1) == 2 and log.records == []
    log.active = True
    log.next_request()
    with log.span("op") as op:
        assert layer.work(2) == 3
    assert [r.name for r in log.records] == ["op", "layer.work"]
    assert log.records[1].parent == op and log.records[1].request == 1
    assert log.records[0].end >= log.records[1].end


def test_query_trace_is_copied_with_synthesised_spans_placed():
    root = Span("query", start=100.0, duration=1.0)
    lookup = Span("cache_lookup", start=100.1, duration=0.2)
    comp = Span("delta_compensation", start=100.4, duration=0.5)
    pruned = Span("subjoin")  # no start, no duration
    memo = Span("subjoin", duration=0.3)  # synthesised around its child
    memo.children.append(Span("memo_scan", start=100.5, duration=0.3))
    comp.children.extend([pruned, memo])
    root.children.extend([lookup, comp])

    log = SpanLog()
    log.next_request()
    with log.span("read") as index:
        pass
    log.add_query_trace(root, index)
    by_name = {}
    for record in log.records:
        by_name.setdefault(record.name, []).append(record)
    assert by_name["query"][0].parent == index
    placed_pruned, placed_memo = by_name["subjoin"]
    assert placed_pruned.start == placed_pruned.end == 100.4
    assert (placed_memo.start, placed_memo.end) == pytest.approx((100.5, 100.8))
    log.scales[1] = 2.0
    totals = log.totals()
    assert totals["delta_compensation"]["self_s"] == pytest.approx((0.5 - 0.3) * 2.0)
    assert totals["subjoin"]["total_s"] == pytest.approx(0.3 * 2.0)
    assert totals["query"]["self_s"] == pytest.approx((1.0 - 0.2 - 0.5) * 2.0)
