"""In-memory spans recorded from the benchmark's side of each layer boundary.

Nothing inside ``src/`` is instrumented for the benchmark: a span is opened
around a call *into* a layer (``db.merge``, ``db.cache.before_merge``,
``table.insert`` ...) by wrapping the bound method on the instance, and a
traced read goes through the public ``Database.explain_analyze`` whose
``QueryTrace`` tree is copied in as it is.  Spans of one operation share a
request id; a layer's *self time* is its span minus the part of that
interval its children cover.  The log is kept in memory and written as
JSON-lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List


@dataclass
class SpanRecord:
    """One span: a named interval, the span that caused it, its request."""

    name: str
    start: float
    end: float
    parent: int  # index into SpanLog.records, -1 for a request's root
    request: int


def self_seconds(records: List[SpanRecord]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals
    (children are clipped to the parent, overlapping children count once)."""
    children: Dict[int, List[SpanRecord]] = {}
    for record in records:
        if record.parent >= 0:
            children.setdefault(record.parent, []).append(record)
    out: List[float] = []
    for index, record in enumerate(records):
        covered = 0.0
        reach = record.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((record.end - record.start) - covered)
    return out


class SpanLog:
    """The span store of one benchmark run."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        #: Wrapped methods record only while this is set, so one database
        #: can alternate traced and untraced blocks.
        self.active = False
        self.request = 0
        #: request id -> host-normalisation factor of the block it ran in.
        self.scales: Dict[int, float] = {}
        self._stack: List[int] = []

    def next_request(self) -> int:
        """Start a new operation; returns its request id."""
        self.request += 1
        return self.request

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the body; yields its index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        record = SpanRecord(name, time.perf_counter(), 0.0, parent, self.request)
        self.records.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound method) by one that records a span
        named ``name`` around each call while the log is active."""
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, timed)

    def add_query_trace(self, root, parent: int) -> None:
        """Copy a ``repro.obs.trace.Span`` tree under span ``parent``.

        Spans the engine synthesises without a start time (pruned or
        memoized subjoins) are placed at their first child's start, or at
        their parent's start when they have none.
        """
        floor = self.records[parent].start if parent >= 0 else root.start
        self._add_engine_span(root, parent, floor)

    def _add_engine_span(self, span, parent: int, floor: float) -> None:
        start = span.start
        if not start:
            start = span.children[0].start if span.children else floor
        index = len(self.records)
        self.records.append(
            SpanRecord(span.name, start, start + span.duration, parent, self.request)
        )
        for child in span.children:
            self._add_engine_span(child, index, start)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: how many spans, and their summed host-normalised
        total and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for record, own in zip(self.records, self_seconds(self.records)):
            scale = self.scales.get(record.request, 1.0)
            slot = out.setdefault(
                record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            slot["count"] += 1
            slot["total_s"] += (record.end - record.start) * scale
            slot["self_s"] += own * scale
        return out

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, in recording order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, record in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record.name,
                            "start": record.start,
                            "end": record.end,
                            "parent": record.parent,
                            "request": record.request,
                            "scale": self.scales.get(record.request, 1.0),
                        }
                    )
                    + "\n"
                )
