"""Metrics primitives for the serving layer.

A long-lived service is only operable if its internals are visible: how many
requests arrived, how big the coalesced batches actually are, how often the
response cache hits, how deep the replica queues run, and how many requests
were shed at admission.  This module provides the three classic instrument
kinds — :class:`Counter`, :class:`Gauge`, :class:`Histogram` — behind a
:class:`MetricsRegistry` that components share and the HTTP layer exposes at
``GET /metrics`` as one JSON document.

Everything is stdlib + threads: instruments are lock-protected, cheap enough
to sit on the hot path (one lock acquisition per observation), and snapshot
to plain JSON-native dicts.  Histograms use fixed cumulative buckets in the
Prometheus style (``le`` upper bounds, ``+Inf`` implicit via ``count``), so a
scraper can derive quantile estimates without the service retaining samples.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "merge_counters",
    "render_registries_text",
]

#: Seconds-scale buckets covering sub-millisecond cache hits through
#: multi-second cold diagnoses.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Count-scale buckets for batch sizes and queue depths.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing count (requests served, cases shed, ...)."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def as_dict(self) -> Dict:
        return {"type": "counter", "description": self.description, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that goes up and down (queue depth, in-flight requests, ...)."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def as_dict(self) -> Dict:
        return {"type": "gauge", "description": self.description, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Cumulative fixed-bucket histogram (latencies, batch sizes).

    ``buckets`` are strictly increasing upper bounds; an observation lands in
    every bucket whose bound is ``>= value`` (the Prometheus ``le``
    convention), and ``count``/``sum`` track the full stream including values
    above the last bound.
    """

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} needs strictly increasing, non-empty buckets, got {buckets}"
            )
        self.name = name
        self.description = description
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._bucket_counts):
                self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution estimate of quantile ``q`` in ``[0, 1]``.

        Returns the upper bound of the bucket holding the q-th observation
        (the observed maximum for the overflow tail), which is exactly the
        resolution a fixed-bucket histogram can honestly claim.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, self._bucket_counts):
                cumulative += bucket_count
                if cumulative >= rank:
                    return bound
            return self._max if self._max is not None else self.bounds[-1]

    def as_dict(self) -> Dict:
        with self._lock:
            cumulative, buckets = 0, {}
            for bound, bucket_count in zip(self.bounds, self._bucket_counts):
                cumulative += bucket_count
                buckets[str(bound)] = cumulative
            return {
                "type": "histogram",
                "description": self.description,
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count})"


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    Components ask the registry for their instruments by name; asking twice
    returns the same instrument, so wiring one registry through the service,
    engine, and job layers needs no coordination beyond the shared
    object.  Re-registering a name as a different kind is a configuration
    error (it would silently fork the metric).
    """

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._instruments: "Dict[str, object]" = {}
        self._lock = threading.Lock()

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}.{name}" if self.namespace else name

    def _get_or_create(self, kind, name: str, description: str, **kwargs):
        full = self._full_name(name)
        with self._lock:
            instrument = self._instruments.get(full)
            if instrument is None:
                instrument = kind(full, description, **kwargs)
                self._instruments[full] = instrument
            elif not isinstance(instrument, kind):
                raise ConfigurationError(
                    f"metric {full!r} already registered as {type(instrument).__name__}, "
                    f"not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, description, buckets=buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def as_dict(self) -> Dict[str, Dict]:
        """JSON-native snapshot of every instrument, sorted by name."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: instrument.as_dict() for name, instrument in sorted(instruments)}

    def render_text(self, labels: Optional[Dict[str, str]] = None) -> str:
        """Prometheus text exposition (version 0.0.4) of this registry.

        Metric names are sanitized to the Prometheus grammar (dots and
        dashes become underscores); optional ``labels`` are attached to
        every sample, which is how multiple registries with overlapping
        names (per-replica registries) coexist in one scrape document.
        """
        return render_registries_text([(self.as_dict(), labels or {})])

    def __repr__(self) -> str:
        return f"MetricsRegistry(namespace={self.namespace!r}, instruments={len(self.names())})"


def merge_counters(snapshots: Iterable[Dict[str, Dict]]) -> Dict[str, float]:
    """Sum counter values across registry snapshots (for fleet-level rollups).

    Gauges and histograms are deliberately not merged — a summed queue-depth
    gauge or a merged latency distribution is easy to misread; per-replica
    snapshots stay authoritative for those.
    """
    totals: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            if record.get("type") == "counter":
                totals[name] = totals.get(name, 0.0) + float(record["value"])
    return totals


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name to the Prometheus grammar."""
    sanitized = "".join(c if (c.isalnum() and c.isascii()) or c in "_:" else "_" for c in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized or "_"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    escaped = []
    for key in sorted(labels):
        value = str(labels[key]).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        escaped.append(f'{_prom_name(key)}="{value}"')
    return "{" + ",".join(escaped) + "}"


def _merge_label_sets(base: str, extra: str) -> str:
    """Combine two pre-rendered label blocks (either may be empty)."""
    if not base:
        return extra
    if not extra:
        return base
    return base[:-1] + "," + extra[1:]


def render_registries_text(snapshots: Sequence[Tuple[Dict[str, Dict], Dict[str, str]]]) -> str:
    """Prometheus text exposition over several registry snapshots.

    ``snapshots`` is a sequence of ``(registry.as_dict(), labels)`` pairs.
    ``# HELP``/``# TYPE`` headers are emitted once per sanitized metric name
    (Prometheus rejects duplicates), with each snapshot's samples
    distinguished by its label set — e.g. ``{replica="0"}`` vs
    ``{replica="1"}`` for the per-replica registries behind one gateway.
    """
    # name -> (type, description, [(labels_text, record), ...]) in first-seen order
    grouped: "Dict[str, Tuple[str, str, List[Tuple[str, Dict]]]]" = {}
    order: List[str] = []
    for snapshot, labels in snapshots:
        labels_text = _prom_labels(dict(labels or {}))
        for raw_name in sorted(snapshot):
            record = snapshot[raw_name]
            kind = str(record.get("type", "untyped"))
            name = _prom_name(raw_name)
            if name not in grouped:
                grouped[name] = (kind, str(record.get("description", "")), [])
                order.append(name)
            grouped[name][2].append((labels_text, record))

    lines: List[str] = []
    for name in order:
        kind, description, samples = grouped[name]
        prom_type = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}.get(
            kind, "untyped"
        )
        if description:
            escaped = description.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {name} {escaped}")
        lines.append(f"# TYPE {name} {prom_type}")
        for labels_text, record in samples:
            if kind == "histogram":
                buckets = record.get("buckets", {})
                count = record.get("count", 0)
                for bound, cumulative in buckets.items():
                    le = _merge_label_sets(labels_text, f'{{le="{bound}"}}')
                    lines.append(f"{name}_bucket{le} {_prom_value(cumulative)}")
                inf = _merge_label_sets(labels_text, '{le="+Inf"}')
                lines.append(f"{name}_bucket{inf} {_prom_value(count)}")
                lines.append(f"{name}_sum{labels_text} {_prom_value(record.get('sum', 0.0))}")
                lines.append(f"{name}_count{labels_text} {_prom_value(count)}")
            else:
                lines.append(f"{name}{labels_text} {_prom_value(record.get('value'))}")
    return "\n".join(lines) + ("\n" if lines else "")
