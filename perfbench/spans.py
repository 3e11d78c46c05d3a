"""In-memory span recording around the public calls of each repro layer.

The benchmark attributes time to layers from outside the program: it
replaces a layer's public function or method with a wrapper that records a
span (name, start, end, parent span, thread, tag) and calls the original.
Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover; children are always nested
calls on the same thread, so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer short name -> the repro module(s) it stands for.
LAYERS = {
    "api": "repro.api",
    "gateway": "repro.serve.gateway",
    "replicas": "repro.serve.replicas",
    "service": "repro.serve.service",
    "batching": "repro.serve.batching",
    "wire": "repro.wire",
    "extract": "repro.core.instrument+repro.nn",
    "footprint": "repro.core.footprint",
    "specifics": "repro.core.specifics",
    "patterns": "repro.core.patterns",
    "classifier": "repro.core.classifier",
}

#: Span name -> its layer's short name.
LAYER_OF = {
    "api.diagnose": "api",
    "api.validate": "api",
    "api.report": "api",
    "gateway.parse": "gateway",
    "gateway.cache_lookup": "gateway",
    "replicas.acquire": "replicas",
    "service.diagnose": "service",
    "engine.extract": "batching",
    "engine.extract_fn": "batching",
    "wire.decode.json": "wire",
    "wire.decode.binary": "wire",
    "wire.encode": "wire",
    "extract.coalesced": "extract",
    "extract.probe": "extract",
    "footprint.from_arrays": "footprint",
    "specifics.batch": "specifics",
    "patterns.matches": "patterns",
    "patterns.nn_typicality": "patterns",
    "classifier.build_context": "classifier",
    "classifier.aggregate": "classifier",
}

# Record layout: [id, name, start, end, parent_id, thread_id, tag, extra]
ID, NAME, START, END, PARENT, THREAD, TAG, EXTRA = range(8)
_ABSENT = object()


class SpanRecorder:
    """Collects spans from wrapped callables; install/uninstall is reversible."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Optional[str] = None,
        extra: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped so each call records one span named ``name``.

        ``extra(args, kwargs)`` may return a small JSON-able value stored on
        the span (for example a kernel's input shapes).
        """
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [
                next(ids), name, time.perf_counter(), 0.0,
                stack[-1] if stack else 0, threading.get_ident(), tag,
                extra(args, kwargs) if extra is not None else None,
            ]
            stack.append(record[ID])
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
                spans.append(record)

        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        tag: Optional[str] = None,
        extra: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or staticmethod)."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement = classmethod(self.wrap(static.__func__, name, tag, extra))
        elif isinstance(static, staticmethod):
            replacement = staticmethod(self.wrap(static.__func__, name, tag, extra))
        else:
            replacement = self.wrap(getattr(owner, attr), name, tag, extra)
        # A method looked up through an instance is restored by deleting the
        # override; anything stored on the owner itself is put back as it was.
        own = inspect.isclass(owner) or inspect.ismodule(owner) or attr in vars(owner)
        self._patches.append((owner, attr, static if own else _ABSENT))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install_core(recorder: SpanRecorder) -> None:
    """Wrap the diagnosis core: extraction, footprints, specifics, kernels, classifier."""
    from repro.api import diagnoser as api_diagnoser
    from repro.api import schema
    from repro.core.classifier import DefectCaseClassifier
    from repro.core.footprint import FootprintExtractor
    from repro.core.instrument import SoftmaxProbe
    from repro.core.patterns import PatternLibrary
    from repro.serve import service as serve_service

    recorder.patch(schema, "validate_arrays", "api.validate")
    recorder.patch(schema.DiagnosisReport, "from_defect_report", "api.report")
    recorder.patch(FootprintExtractor, "extract_coalesced", "extract.coalesced",
                   extra=lambda a, k: sum(int(g.shape[0]) for g in a[1]))
    recorder.patch(SoftmaxProbe, "predict_proba", "extract.probe")
    recorder.patch(FootprintExtractor, "from_arrays", "footprint.from_arrays",
                   extra=lambda a, k: int(a[1].shape[0]))
    for module in (api_diagnoser, serve_service):
        recorder.patch(module, "compute_specifics_batch", "specifics.batch",
                       extra=lambda a, k: len(a[0]))
    recorder.patch(PatternLibrary, "batch_pattern_matches", "patterns.matches",
                   extra=lambda a, k: list(a[1].shape))
    recorder.patch(PatternLibrary, "batch_nn_typicality", "patterns.nn_typicality",
                   extra=_nn_typicality_bytes)
    recorder.patch(DefectCaseClassifier, "build_context", "classifier.build_context")
    recorder.patch(DefectCaseClassifier, "aggregate", "classifier.aggregate")


def _nn_typicality_bytes(args, kwargs) -> list:
    """``[cases, bytes]``: the float64 (n_c, M_c, L, C) temporaries of one call.

    Computed from shapes, not measured: per target class the kernel
    broadcasts the class's n_c cases against its M_c fitted members.
    """
    import numpy as np

    library, stack, class_ids = args[0], args[1], args[2]
    _, num_layers, num_classes = stack.shape
    total = 0
    values, counts = np.unique(np.asarray(class_ids), return_counts=True)
    for value, count in zip(values, counts):
        pattern = library.patterns.get(int(value))
        members = getattr(pattern, "member_trajectories", None)
        rows = 1 if members is None or members.shape[0] == 0 else members.shape[0]
        total += int(count) * rows * num_layers * num_classes * 8
    return [int(stack.shape[0]), total]


# -- analysis -------------------------------------------------------------------------


def self_times(
    spans: Sequence[list], override: Optional[Dict[int, float]] = None
) -> Dict[int, float]:
    """Span id -> self seconds (duration minus its children's durations).

    ``override`` replaces the self time of given spans (work that a span
    waited for on another thread is not its own).
    """
    child_total: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record[PARENT]:
            child_total[record[PARENT]] += record[END] - record[START]
    selfs = {
        record[ID]: (record[END] - record[START]) - child_total.get(record[ID], 0.0)
        for record in spans
    }
    selfs.update(override or {})
    return selfs


def layer_table(
    spans: Sequence[list], override: Optional[Dict[int, float]] = None
) -> List[dict]:
    """Per span name: layer, count, self ms total/mean/p50/p90 and inclusive ms."""
    selfs = self_times(spans, override)
    by_name: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for record in spans:
        by_name[record[NAME]].append((selfs[record[ID]], record[END] - record[START]))
    rows = []
    for name, pairs in sorted(by_name.items()):
        self_ms = sorted(s * 1e3 for s, _ in pairs)
        rows.append({
            "span": name,
            "layer": LAYERS[LAYER_OF[name]],
            "count": len(pairs),
            "self_ms_total": sum(self_ms),
            "self_ms_mean": sum(self_ms) / len(self_ms),
            "self_ms_p50": statistics.median(self_ms),
            "self_ms_p90": self_ms[min(len(self_ms) - 1, int(0.9 * len(self_ms)))],
            "incl_ms_total": sum(d for _, d in pairs) * 1e3,
        })
    return rows


def format_table(rows: Sequence[dict], title: str) -> str:
    lines = [title, f"{'layer':32s} {'span':26s} {'count':>7s} {'self ms':>10s} "
             f"{'share':>6s} {'mean':>8s} {'p50':>8s} {'p90':>8s}"]
    grand = sum(row["self_ms_total"] for row in rows) or 1.0
    for row in sorted(rows, key=lambda r: -r["self_ms_total"]):
        lines.append(
            f"{row['layer']:32s} {row['span']:26s} {row['count']:7d} "
            f"{row['self_ms_total']:10.1f} {row['self_ms_total'] / grand:6.1%} "
            f"{row['self_ms_mean']:8.3f} {row['self_ms_p50']:8.3f} {row['self_ms_p90']:8.3f}"
        )
    return "\n".join(lines)
