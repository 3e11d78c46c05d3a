"""Request batching for footprint extraction.

Footprint extraction is naturally batchable — the instrumented forward pass
and every probe evaluation are matrix products whose per-call overhead
(eval-mode toggling, per-layer dispatch, python loop setup) is amortized over
the batch dimension.  The batching engine exploits that across *requests*: a
dedicated extraction thread takes every request already queued, groups them by
target model, concatenates their inputs, and pushes each group through one
:meth:`repro.core.SoftmaxInstrumentedModel.layer_distributions_grouped` call.
The thread never holds a request back to wait for others: an idle engine
extracts a lone request at once, and the requests that queue while a batch
extracts go out together in the next batch, so load still coalesces.  Every
row of every request reaches the model: whole-payload repeats are answered
upstream, by the gateway's response cache, and never reach the engine.

Funneling every extraction through the single engine thread also makes the
service correct under concurrency: the numpy substrate's forward passes stash
per-layer state on the layer objects, so a model must never run two forward
passes at once.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DeadlineExceededError, ServeError, ServiceUnavailableError
from ..nn.dtype import policy_float
from ..obs import SpanContext, current_span, get_tracer
from ..resilience import Deadline, current_deadline
from .metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry

__all__ = ["ExtractionRequest", "BatchingEngine"]

#: Signature of the raw extraction callback: ``(model_key, input_groups)`` ->
#: one ``(trajectories, final_probs)`` pair per group, computed in a single
#: coalesced instrumented pass.
ExtractFn = Callable[[str, Sequence[np.ndarray]], List[Tuple[np.ndarray, np.ndarray]]]

_SHUTDOWN = object()
_request_ids = itertools.count(1)


@dataclass
class ExtractionRequest:
    """One pending footprint-extraction request for a single model.

    ``trace`` carries the submitter's span context across the thread
    boundary into the engine's drain thread — ``contextvars`` do not follow
    a request through a queue, so the context is captured explicitly at
    submit time and engine-side spans parent to it.  ``deadline`` is captured
    the same way: the drain loop fails requests whose budget lapsed while
    they sat in the queue instead of spending a forward pass on them.
    ``submitted_at`` (``perf_counter`` seconds) starts the request's queue
    wait.
    """

    model_key: str
    inputs: np.ndarray
    future: "Future[Tuple[np.ndarray, np.ndarray]]" = field(default_factory=Future)
    request_id: int = field(default_factory=lambda: next(_request_ids))
    trace: Optional[SpanContext] = None
    deadline: Optional[Deadline] = None
    submitted_at: float = field(default_factory=time.perf_counter)

    @property
    def num_cases(self) -> int:
        return int(self.inputs.shape[0])


class BatchingEngine:
    """Coalesces extraction requests into vectorized batches.

    Parameters
    ----------
    extract_fn:
        Coalesced extraction callback, typically bound to
        ``FootprintExtractor.extract_coalesced`` of a resolved model.  Each
        model group of a batch is one call.
    max_batch_cases:
        Soft cap on the number of cases coalesced into one batch; the drain
        loop stops taking queued requests once the pending batch reaches it.
        A single over-sized request is never split (the underlying extractor
        chunks internally).
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry`; when given,
        the engine records request/batch counters, coalesced batch sizes,
        each request's queue wait, extraction latency, and its queue depth
        there.
    monitor:
        Optional :class:`~repro.monitor.MonitorSink` (duck-typed: anything
        with ``observe_extracted``).  Every extracted stack is fed to it from
        the drain.  The sink's contract is to never raise and never block.
    """

    def __init__(
        self,
        extract_fn: ExtractFn,
        max_batch_cases: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        monitor=None,
    ):
        if max_batch_cases < 1:
            raise ServeError(f"max_batch_cases must be >= 1, got {max_batch_cases}")
        self.extract_fn = extract_fn
        self.monitor = monitor
        self.max_batch_cases = int(max_batch_cases)
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "batches": 0,
            "extraction_calls": 0,
            "cases_requested": 0,
            "cases_extracted": 0,
            "requests_expired": 0,
        }
        self._metrics = metrics
        if metrics is not None:
            self._m_requests = metrics.counter(
                "engine.requests_total", "extraction requests submitted to the engine"
            )
            self._m_batches = metrics.counter(
                "engine.batches_total", "coalesced batches processed"
            )
            self._m_cases_extracted = metrics.counter(
                "engine.cases_extracted_total", "cases that reached the instrumented model"
            )
            self._m_batch_cases = metrics.histogram(
                "engine.batch_cases",
                "cases per coalesced batch",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
            self._m_queue_wait_seconds = metrics.histogram(
                "engine.queue_wait_seconds",
                "wait from submit to the start of the extraction that answers a request",
            )
            self._m_extract_seconds = metrics.histogram(
                "engine.extraction_seconds", "wall time of one coalesced extraction call"
            )
            self._m_queue_depth = metrics.gauge(
                "engine.queue_depth", "extraction requests waiting in the engine queue"
            )
            self._m_expired = metrics.counter(
                "engine.deadline_expired_total",
                "queued requests dropped because their deadline lapsed before extraction",
            )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "BatchingEngine":
        """Start the background extraction thread (idempotent)."""
        if not self.is_running:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._drain_loop, name="repro-serve-batcher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the extraction thread, failing any requests still queued."""
        self._stop.set()
        if self.is_running:
            self._queue.put(_SHUTDOWN)
            self._thread.join(timeout=timeout)
        # Only forget the thread once it is genuinely gone: if the join timed
        # out mid-extraction, a synchronous submit() racing the still-running
        # thread would run two forward passes on one model at once.
        if self._thread is not None and not self._thread.is_alive():
            self._thread = None
        self._fail_pending()

    def _fail_pending(self) -> None:
        """Fail every request still sitting in the queue."""
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _SHUTDOWN and not leftover.future.done():
                leftover.future.set_exception(ServiceUnavailableError("batching engine stopped"))

    # -- submission ---------------------------------------------------------------

    def submit(self, model_key: str, inputs: np.ndarray) -> ExtractionRequest:
        """Enqueue an extraction request; its future resolves to ``(traj, final)``.

        When the engine thread is not running the request is processed
        synchronously on the calling thread, so the engine degrades gracefully
        to a direct-call library API.
        """
        if self._stop.is_set():
            raise ServiceUnavailableError("batching engine is stopped")
        request = ExtractionRequest(
            model_key=str(model_key),
            inputs=policy_float(inputs),
            trace=get_tracer().current_context(),
            deadline=current_deadline(),
        )
        if self._metrics is not None:
            self._m_requests.inc()
        if self.is_running:
            self._queue.put(request)
            if self._metrics is not None:
                self._m_queue_depth.set(self._queue.qsize())
            # stop() may have drained the queue between our check and the
            # put; failing pending requests here closes that window instead
            # of leaving the future hanging forever.
            if self._stop.is_set() and not self.is_running:
                self._fail_pending()
        else:
            self.process_batch([request])
        return request

    def extract(
        self, model_key: str, inputs: np.ndarray, timeout: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Submit and wait: returns ``(trajectories, final_probs)`` for ``inputs``."""
        return self.submit(model_key, inputs).future.result(timeout=timeout)

    # -- the drain loop -----------------------------------------------------------

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if first is _SHUTDOWN:
                break
            # Work-conserving: take only what is already queued.  Requests
            # that arrive while this batch extracts queue up and leave
            # together in the next one.
            batch = [first]
            cases = first.num_cases
            while cases < self.max_batch_cases:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                if request is _SHUTDOWN:
                    self._stop.set()
                    break
                batch.append(request)
                cases += request.num_cases
            self.process_batch(batch)

    # -- batch processing ---------------------------------------------------------

    def process_batch(self, requests: Sequence[ExtractionRequest]) -> None:
        """Resolve a coalesced batch of requests: one extraction call per model.

        Exposed for synchronous use and tests; the drain loop calls it with
        every request that was queued when it took the batch.
        """
        if not requests:
            return
        # Deadline triage: a request whose budget lapsed while queued gets a
        # typed failure now — a forward pass on it would be pure waste, and
        # its caller has already given up.
        live: List[ExtractionRequest] = []
        for request in requests:
            if request.deadline is not None and request.deadline.expired():
                if not request.future.done():
                    request.future.set_exception(
                        DeadlineExceededError(
                            "deadline expired while queued for extraction"
                        )
                    )
                with self._stats_lock:
                    self._stats["requests_expired"] += 1
                if self._metrics is not None:
                    self._m_expired.inc()
            else:
                live.append(request)
        requests = live
        if not requests:
            return
        by_model: Dict[str, List[ExtractionRequest]] = {}
        for request in requests:
            by_model.setdefault(request.model_key, []).append(request)
        with self._stats_lock:
            self._stats["batches"] += 1
            self._stats["requests"] += len(requests)
            self._stats["cases_requested"] += sum(r.num_cases for r in requests)
        if self._metrics is not None:
            self._m_batches.inc()
            self._m_batch_cases.observe(sum(r.num_cases for r in requests))
            self._m_queue_depth.set(self._queue.qsize())
        for model_key, group in by_model.items():
            if self._metrics is not None:
                started = time.perf_counter()
                for request in group:
                    self._m_queue_wait_seconds.observe(started - request.submitted_at)
            # Engine-side span, parented (via the explicitly captured context)
            # to the first co-travelling request's trace; requests coalesced
            # from *other* traces are noted by count.
            parent = next((r.trace for r in group if r.trace is not None), None)
            traces = {r.trace.trace_id for r in group if r.trace is not None}
            with get_tracer().span(
                "batching.batch",
                {
                    "model_key": model_key,
                    "num_requests": len(group),
                    "num_cases": sum(r.num_cases for r in group),
                    "num_traces": len(traces),
                },
                parent=parent,
            ):
                try:
                    self._process_model_group(model_key, group)
                except Exception as error:  # noqa: BLE001 - fail the waiting futures
                    for request in group:
                        if not request.future.done():
                            request.future.set_exception(error)

    def _timed_extract(
        self, model_key: str, groups: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Run the raw extraction callback, recording its wall time when metered."""
        if self._metrics is None:
            return self.extract_fn(model_key, groups)
        start = time.perf_counter()
        try:
            return self.extract_fn(model_key, groups)
        finally:
            self._m_extract_seconds.observe(time.perf_counter() - start)

    def _process_model_group(self, model_key: str, group: List[ExtractionRequest]) -> None:
        """Hand the group's input stacks to one coalesced extraction call.

        Zero-row requests go along too: only the extractor knows their
        ``(0, layers, classes)`` / ``(0, classes)`` shapes.
        """
        results = self._timed_extract(model_key, [request.inputs for request in group])
        for request, pair in zip(group, results):
            if self.monitor is not None:
                self.monitor.observe_extracted(model_key, pair[0], pair[1])
            if not request.future.done():
                request.future.set_result(pair)
        extracted = sum(r.num_cases for r in group)
        with self._stats_lock:
            self._stats["cases_extracted"] += extracted
            self._stats["extraction_calls"] += 1
        if self._metrics is not None:
            self._m_cases_extracted.inc(extracted)
        active = current_span()
        if active is not None:
            active.set_attribute("cases_extracted", extracted)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters describing coalescing."""
        with self._stats_lock:
            counters = dict(self._stats)
        counters["running"] = self.is_running
        return counters

    def __repr__(self) -> str:
        return (
            f"BatchingEngine(max_batch_cases={self.max_batch_cases}, "
            f"running={self.is_running})"
        )
