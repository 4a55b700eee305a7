"""A thread-safe metrics registry with a Prometheus-text exporter.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing float, optionally split by a
  fixed set of label names (``counter.labels("hit").inc()``);
* :class:`Gauge` — a value that goes up and down (``gauge.set(3)``);
* :class:`Histogram` — observations bucketed into *fixed* cumulative
  ``le`` buckets plus ``_sum``/``_count`` series, for latencies.

All mutation is lock-protected per instrument, so concurrent queries can
increment freely.  :meth:`MetricsRegistry.render_prometheus` emits the
standard text exposition format and :func:`parse_prometheus` parses it
back (the round-trip is tested), so the output can be scraped or diffed.

``NULL_REGISTRY`` is the zero-cost no-op mode: it hands out one shared
inert instrument whose ``inc``/``set``/``observe`` bodies are a bare
``pass``, so a database built with ``observability=False`` pays only an
attribute lookup and an empty call per hook.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError

#: Default latency buckets (seconds): 100 µs … 5 s, roughly ×2.5 apart.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Finer buckets for fsync-scale events (10 µs … 1 s).
FSYNC_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
    0.0025, 0.005, 0.01, 0.05, 0.25, 1.0,
)

_Sample = Tuple[str, Tuple[Tuple[str, str], ...], float]


def _label_string(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    out = []
    it = iter(value)
    for ch in it:
        if ch == "\\":
            nxt = next(it, "")
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
        else:
            out.append(ch)
    return "".join(out)


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared plumbing: a name, help text, and a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def samples(self) -> Iterator[_Sample]:  # pragma: no cover - interface
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing value, optionally labelled.

    With ``label_names`` declared, the counter is a *family*: call
    ``labels(value, ...)`` to get (and lazily create) the child for one
    label combination.  Unlabelled counters increment directly.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        super().__init__(name, help)
        self.label_names = tuple(label_names)
        self._value = 0.0
        self._children: Dict[Tuple[str, ...], "Counter"] = {}

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must not be negative — counters only go up)."""
        if amount < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    def labels(self, *values: str) -> "Counter":
        """The child counter for one label-value combination."""
        # Children are never removed, so an existing one can be read
        # without the lock (one lookup per query per labelled counter).
        child = self._children.get(values)
        if child is not None:
            return child
        if len(values) != len(self.label_names):
            raise ObservabilityError(
                f"counter {self.name} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Counter(self.name, self.help)
                self._children[key] = child
            return child

    @property
    def value(self) -> float:
        """Current value (sum over children for labelled counters)."""
        with self._lock:
            if self._children:
                return sum(c.value for c in self._children.values())
            return self._value

    def samples(self) -> Iterator[_Sample]:
        with self._lock:
            children = sorted(self._children.items())
            own = self._value
        if self.label_names:
            for key, child in children:
                yield self.name, tuple(zip(self.label_names, key)), child.value
        else:
            yield self.name, (), own


class Gauge(_Instrument):
    """A value that can go up and down; optionally backed by a callback.

    With ``label_names`` declared, the gauge is a family like a labelled
    :class:`Counter`: ``labels(value, ...)`` returns the child for one
    label combination (e.g. one breaker-state gauge per breaker).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        label_names: Sequence[str] = (),
    ):
        super().__init__(name, help)
        self.label_names = tuple(label_names)
        self._value = 0.0
        self._fn = fn
        self._children: Dict[Tuple[str, ...], "Gauge"] = {}

    def set(self, value: float) -> None:
        """Set the current value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def labels(self, *values: str) -> "Gauge":
        """The child gauge for one label-value combination."""
        if len(values) != len(self.label_names):
            raise ObservabilityError(
                f"gauge {self.name} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Gauge(self.name, self.help)
                self._children[key] = child
            return child

    @property
    def value(self) -> float:
        """Current value (calls the callback when one was given)."""
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def samples(self) -> Iterator[_Sample]:
        with self._lock:
            children = sorted(self._children.items())
        if self.label_names:
            for key, child in children:
                yield self.name, tuple(zip(self.label_names, key)), child.value
        else:
            yield self.name, (), self.value


class Histogram(_Instrument):
    """Fixed-bucket cumulative histogram (Prometheus ``le`` semantics).

    ``buckets`` are the finite upper bounds, ascending; an implicit
    ``+Inf`` bucket catches everything above the last bound.  An
    observation equal to a bound lands in that bound's bucket.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name}: buckets must be strictly ascending"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative count per upper bound (including ``inf``)."""
        with self._lock:
            counts = list(self._counts)
        cumulative: Dict[float, int] = {}
        running = 0
        for bound, n in zip(self.bounds + (float("inf"),), counts):
            running += n
            cumulative[bound] = running
        return cumulative

    def samples(self) -> Iterator[_Sample]:
        for bound, cumulative in self.bucket_counts().items():
            yield (
                f"{self.name}_bucket",
                (("le", _format_value(bound)),),
                float(cumulative),
            )
        yield f"{self.name}_sum", (), self.sum
        yield f"{self.name}_count", (), float(self._count)


class MetricsRegistry:
    """Holds the engine's instruments; one per :class:`~repro.database.Database`.

    Registering the same name twice raises — the engine's invariant is
    that every metric name is created exactly once, in
    :class:`~repro.obs.instruments.EngineMetrics`.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    def _register(self, metric: _Instrument) -> _Instrument:
        with self._lock:
            if metric.name in self._metrics:
                raise ObservabilityError(
                    f"metric {metric.name!r} is already registered"
                )
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        """Create and register a counter (family, when ``labels`` given)."""
        return self._register(Counter(name, help, labels))

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels: Sequence[str] = (),
    ) -> Gauge:
        """Create and register a gauge (family, when ``labels`` given)."""
        return self._register(Gauge(name, help, fn, labels))

    def histogram(self, name: str, help: str = "", buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """Create and register a fixed-bucket histogram."""
        return self._register(Histogram(name, help, buckets))

    # ------------------------------------------------------------------
    def get(self, name: str) -> _Instrument:
        """The registered instrument by name (KeyError if absent)."""
        with self._lock:
            return self._metrics[name]

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels}`` → value mapping of every sample.

        Keys match the sample lines of :meth:`render_prometheus` exactly,
        so ``parse_prometheus(render_prometheus()) == snapshot()``.
        """
        out: Dict[str, float] = {}
        with self._lock:
            metrics = sorted(self._metrics.items())
        for _name, metric in metrics:
            for sample_name, labels, value in metric.samples():
                out[sample_name + _label_string(labels)] = value
        return out

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, labels, value in metric.samples():
                lines.append(
                    f"{sample_name}{_label_string(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


class _NullInstrument:
    """One shared inert instrument: every mutation is a no-op."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, *values: str) -> "_NullInstrument":
        return self

    def bucket_counts(self) -> Dict[float, int]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: hands out inert instruments, exports nothing."""

    enabled = False

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", fn=None, labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets: Sequence[float] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def names(self) -> List[str]:
        return []

    def snapshot(self) -> Dict[str, float]:
        return {}

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse Prometheus text exposition back into ``snapshot()`` form.

    Understands exactly what :meth:`MetricsRegistry.render_prometheus`
    emits (sample lines with optional labels, ``# HELP``/``# TYPE``
    comments); raises :class:`~repro.errors.ObservabilityError` on
    malformed sample lines so the round-trip test catches format drift.
    """
    out: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, raw_value = line.rsplit(" ", 1)
            value = float("inf") if raw_value == "+Inf" else float(raw_value)
        except ValueError:
            raise ObservabilityError(
                f"malformed metrics line {lineno}: {line!r}"
            ) from None
        if "{" in key:
            name, _, label_part = key.partition("{")
            if not label_part.endswith("}"):
                raise ObservabilityError(f"malformed labels on line {lineno}: {line!r}")
            labels = _parse_labels(label_part[:-1], lineno)
            key = name + _label_string(labels)
        out[key] = value
    return out


def _parse_labels(body: str, lineno: int) -> Tuple[Tuple[str, str], ...]:
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq]
        if body[eq + 1] != '"':
            raise ObservabilityError(f"unquoted label value on line {lineno}")
        j = eq + 2
        raw: List[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                raw.append(body[j : j + 2])
                j += 2
            else:
                raw.append(body[j])
                j += 1
        labels.append((name, _unescape("".join(raw))))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return tuple(labels)
