"""Span exporters: in-memory ring buffer, JSONL file, metrics bridge.

Exporters receive finished spans as plain dicts (:meth:`Span.to_dict`) so
they never hold live span objects and can serialize without touching the
tracer.  All three are thread-safe — spans finish on the event loop, on
executor threads, and on the batching engine's drain thread concurrently.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Deque, Dict, List, Tuple

__all__ = ["InMemorySpanExporter", "JsonlSpanExporter", "MetricsSpanExporter"]

SpanRecord = Dict[str, object]


class InMemorySpanExporter:
    """Bounded ring buffer of completed traces, powering ``GET /debug/traces``.

    Spans arrive one at a time and out of order (children finish before the
    root).  They are buffered per ``trace_id`` until the trace *completes* —
    a root span (no parent) finishes, or a ``kind="request"`` server span
    finishes, which covers stitched cross-process traces whose server root
    has a client-side parent that will never be exported in this process.
    Completed traces land in a recent-ring; the slowest are additionally
    retained in a small top-K sample so a burst of fast requests cannot
    evict the outliers worth debugging.
    """

    def __init__(
        self,
        max_traces: int = 64,
        max_slow: int = 16,
        max_spans_per_trace: int = 512,
        max_pending_traces: int = 256,
    ) -> None:
        self.max_traces = int(max_traces)
        self.max_slow = int(max_slow)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.max_pending_traces = int(max_pending_traces)
        self._lock = threading.Lock()
        self._pending: "Dict[str, List[SpanRecord]]" = {}
        self._recent: "Deque[Dict[str, object]]" = deque(maxlen=self.max_traces)
        self._slow: List[Tuple[float, Dict[str, object]]] = []

    # -- exporter protocol -------------------------------------------------------

    def export(self, record: SpanRecord) -> None:
        trace_id = record.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return
        with self._lock:
            bucket = self._pending.setdefault(trace_id, [])
            if len(bucket) < self.max_spans_per_trace:
                bucket.append(record)
            if record.get("parent_id") is None or record.get("kind") == "request":
                self._complete_locked(trace_id, record)
            elif len(self._pending) > self.max_pending_traces:
                # A trace whose root never finishes (crashed connection) must
                # not leak; drop the oldest pending bucket.
                oldest = next(iter(self._pending))
                if oldest != trace_id:
                    del self._pending[oldest]

    def _complete_locked(self, trace_id: str, root: SpanRecord) -> None:
        spans = self._pending.pop(trace_id, [])
        duration = root.get("duration_seconds")
        duration = float(duration) if isinstance(duration, (int, float)) else 0.0
        trace = {
            "trace_id": trace_id,
            "root": root.get("name"),
            "request_id": (root.get("attributes") or {}).get("request_id"),  # type: ignore[union-attr]
            "status": root.get("status"),
            "start_time": root.get("start_time"),
            "duration_seconds": duration,
            "num_spans": len(spans),
            "spans": spans,
        }
        self._recent.append(trace)
        self._slow.append((duration, trace))
        self._slow.sort(key=lambda item: item[0], reverse=True)
        del self._slow[self.max_slow :]

    # -- queries (used by Tracer.debug_payload) ----------------------------------

    def recent_traces(self, limit: int = 20) -> List[Dict[str, object]]:
        """Most recently completed traces, newest first."""
        with self._lock:
            traces = list(self._recent)
        return traces[::-1][: max(0, int(limit))]

    def slow_traces(self, limit: int = 10) -> List[Dict[str, object]]:
        """Slowest completed traces retained by the top-K sampler."""
        with self._lock:
            return [trace for _, trace in self._slow[: max(0, int(limit))]]

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._recent.clear()
            self._slow.clear()


class JsonlSpanExporter:
    """Appends one JSON object per finished span to a file.

    The format is the input to ``repro-trace`` and the CI trace artifact.
    Lines are written under a lock and flushed per span so a crashed process
    still leaves a readable file.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")  # noqa: SIM115 - long-lived handle
        self._closed = False

    @property
    def dedupe_key(self) -> Tuple[str, str]:
        return ("jsonl", self.path)

    def export(self, record: SpanRecord) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._closed:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()


class MetricsSpanExporter:
    """Derives per-stage latency histograms from spans into a metrics registry.

    Duck-typed over :class:`repro.serve.metrics.MetricsRegistry` (anything
    with ``histogram(name, description).observe(value)``) so :mod:`repro.obs`
    never imports the serving stack.  Every span named ``x.y`` feeds the
    histogram ``trace.x.y.seconds``, giving per-stage latency distributions
    for free wherever spans are placed.
    """

    def __init__(self, registry: object) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        self._histograms: Dict[str, object] = {}

    @property
    def dedupe_key(self) -> Tuple[str, int]:
        return ("metrics", id(self.registry))

    def export(self, record: SpanRecord) -> None:
        name = record.get("name")
        duration = record.get("duration_seconds")
        if not isinstance(name, str) or not isinstance(duration, (int, float)):
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self.registry.histogram(  # type: ignore[attr-defined]
                    f"trace.{name}.seconds", f"span {name} wall time"
                )
                self._histograms[name] = histogram
        histogram.observe(float(duration))  # type: ignore[attr-defined]


def load_jsonl(path: str) -> List[SpanRecord]:
    """Read a JSONL trace file, skipping lines that fail to parse."""
    records: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except ValueError:
                continue
            if isinstance(parsed, dict):
                records.append(parsed)
    return records


__all__.append("load_jsonl")
