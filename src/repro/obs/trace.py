"""Per-query structured traces: what EXPLAIN ANALYZE returns.

A :class:`QueryTrace` is a tree of timed :class:`Span`\\ s covering one
query's execution: bind → per-combination cache lookup (with entry build
and main compensation as children) → delta compensation (with one child
span per compensation subjoin — pruned or evaluated).  The cache manager
fills the tree while answering the query; the executor contributes the
evaluated-subjoin spans (partition assignment, rows scanned, pushdown
filters) and the pruning layer contributes one near-zero-cost
span per pruned subjoin carrying its :class:`PruneReport` reason.

Spans are plain data: traces can be rendered (:meth:`QueryTrace.render`),
walked (:meth:`QueryTrace.subjoin_spans`), or serialized
(:meth:`QueryTrace.to_dict`).  Runs of the same query over the same state
produce the same span *set* — only timings differ — which the test suite
compares through :meth:`QueryTrace.identity`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed step of a query, with free-form attributes and children."""

    name: str
    start: float = 0.0  # perf_counter timestamp; relative order only
    duration: float = 0.0  # seconds
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @classmethod
    def begin(cls, name: str, **attrs: object) -> "Span":
        """Start a span now."""
        return cls(name=name, start=time.perf_counter(), attrs=dict(attrs))

    def finish(self) -> "Span":
        """Close the span, fixing its duration; returns self."""
        self.duration = time.perf_counter() - self.start
        return self

    def child(self, name: str, **attrs: object) -> "Span":
        """Start a child span now and attach it."""
        span = Span.begin(name, **attrs)
        self.children.append(span)
        return span

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (durations in seconds)."""
        return {
            "name": self.name,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    # ------------------------------------------------------------------
    def identity(self) -> tuple:
        """Timing-free identity, for cross-run comparison."""
        skip = {"rows_scanned", "seconds"}
        stable = tuple(
            sorted((k, repr(v)) for k, v in self.attrs.items() if k not in skip)
        )
        return (self.name, stable)

    def render(self, indent: int = 0) -> List[str]:
        """Indented one-line-per-span rendering."""
        parts = [f"{'  ' * indent}{self.name}"]
        for key in sorted(self.attrs):
            parts.append(f"{key}={_fmt_attr(self.attrs[key])}")
        parts.append(f"[{self.duration * 1000:.3f} ms]")
        lines = [" ".join(parts)]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


def _fmt_attr(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        inner = ",".join(f"{k}:{_fmt_attr(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    return str(value)


class QueryTrace:
    """The span tree of one query execution, plus its outcome.

    ``result`` (the :class:`~repro.query.result.QueryResult`) and
    ``report`` (the :class:`~repro.core.manager.CacheQueryReport`) are
    attached once the query finishes, so a trace is a self-contained
    record of what happened and why.
    """

    def __init__(self, sql: Optional[str] = None):
        self.sql = sql
        self.root = Span.begin("query")
        self.result = None
        self.report = None

    # ------------------------------------------------------------------
    def child(self, name: str, **attrs: object) -> Span:
        """Start a new top-level span under the root."""
        return self.root.child(name, **attrs)

    def finish(self) -> "QueryTrace":
        """Close the root span; returns self."""
        self.root.finish()
        return self

    @property
    def total_seconds(self) -> float:
        """Wall-clock duration of the whole query."""
        return self.root.duration

    def spans(self) -> List[Span]:
        """Every span in the tree, depth-first (root included)."""
        return list(self.root.walk())

    def subjoin_spans(self) -> List[Span]:
        """All per-subjoin spans (pruned and evaluated), document order."""
        return [s for s in self.root.walk() if s.name == "subjoin"]

    def span_named(self, name: str) -> Optional[Span]:
        """The first span with the given name, if any."""
        for span in self.root.walk():
            if span.name == name:
                return span
        return None

    def identity(self) -> tuple:
        """Order-insensitive identity of the subjoin span set."""
        return tuple(sorted(s.identity() for s in self.subjoin_spans()))

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly trace (sql + span tree)."""
        return {"sql": self.sql, "trace": self.root.to_dict()}

    def render(self) -> str:
        """Human-readable multi-line rendering (the EXPLAIN ANALYZE view)."""
        header: List[str] = []
        if self.sql:
            header.append(f"EXPLAIN ANALYZE {self.sql}")
        subjoins = self.subjoin_spans()
        pruned = [s for s in subjoins if s.attrs.get("status") == "pruned"]
        evaluated = len(subjoins) - len(pruned)
        header.append(
            f"total {self.total_seconds * 1000:.3f} ms — "
            f"{len(subjoins)} compensation subjoins "
            f"({evaluated} evaluated, {len(pruned)} pruned)"
        )
        return "\n".join(header + self.root.render())
