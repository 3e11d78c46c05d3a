"""The diagnosis service: a long-lived, batched front over DeepMorph.

:class:`DiagnosisService` owns

* an :class:`~repro.serve.registry.ArtifactRegistry` of fitted DeepMorph
  artifacts (with an in-process LRU of loaded instances, including each
  model's precomputed diagnosis context — pattern overlap, feature quality,
  training inconsistency — which are fixed once fitted and therefore must not
  be recomputed per request),
* a :class:`~repro.serve.batching.BatchingEngine` that coalesces concurrent
  requests into vectorized footprint extraction over one forward pass, and
* a :class:`~repro.serve.jobs.WorkerPool` for asynchronous multi-model
  diagnosis with polled job status.

A served diagnosis matches calling ``DeepMorph.diagnose_dataset`` on the same
data: extraction is deterministic for a given batch composition, the
misclassification filter is the same, and the per-model context values are
the very ones the facade recomputes on every call.  Extraction runs in the
model's inference dtype (float32 by default), and coalescing requests into
different batch compositions moves probe distributions at that dtype's
resolution: by 3.0e-8 in float32 on the perfbench LeNet, and by 2.8e-17
(LeNet) and 9.7e-17 (ResNet) under ``inference_dtype="float64"``.  float64
parity with offline runs therefore holds to ~1e-16, not bit for bit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as _FuturesTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.schema import validate_arrays
from ..core.classifier import DefectReport
from ..core.diagnosis import DeepMorph
from ..core.footprint import FootprintExtractor, validate_labels
from ..core.specifics import compute_specifics_batch
from ..exceptions import NoFaultyCasesError, ServeError, ServiceUnavailableError
from ..monitor import DriftThresholds, MonitorSink, PatternUpdater
from ..nn.dtype import resolve_dtype
from ..obs import span as obs_span
from ..resilience import check_deadline, remaining_budget
from .batching import BatchingEngine
from .jobs import Job, JobStore, WorkerPool
from .metrics import MetricsRegistry
from .registry import ArtifactRegistry

__all__ = ["LoadedModel", "DiagnosisService"]


@dataclass
class LoadedModel:
    """A registry artifact resident in memory, with its per-model constants."""

    key: str
    morph: DeepMorph
    extractor: FootprintExtractor
    pattern_overlap: float
    feature_quality: float
    training_inconsistency: float

    @property
    def num_classes(self) -> int:
        return self.morph.model.num_classes


class DiagnosisService:
    """Serve batched DeepMorph diagnoses for registered models.

    Parameters
    ----------
    registry:
        The artifact registry (or a path, which is wrapped in one).
    max_batch_cases:
        Soft cap on the cases the batching engine coalesces into one
        extraction; it extracts whatever is queued, up to this cap, as soon
        as it is idle.
    num_workers:
        Worker threads for asynchronous jobs.
    max_loaded_models:
        How many fitted DeepMorph instances are kept in memory at once.
    extraction_batch_size:
        Chunk size of the underlying instrumented forward passes.
    request_timeout:
        Default seconds a synchronous diagnosis waits on the engine.
    inference_dtype:
        When set (``"float32"`` / ``"float64"``), overrides the extraction
        precision of every model this service loads; ``None`` keeps each
        artifact's own policy (float32 by default — see
        :class:`~repro.core.SoftmaxInstrumentedModel`).  ``"float64"`` keeps
        served results within ~1e-16 of offline float64 runs; co-batched
        traffic still moves them at that resolution.
    metrics:
        Optional shared :class:`~repro.serve.metrics.MetricsRegistry`; by
        default the service creates its own.  The registry is threaded through
        the batching engine and worker pool, and exposed at
        ``GET /metrics`` by the gateway, one snapshot per replica.
    monitor:
        When ``True``, a :class:`~repro.monitor.MonitorSink` watches the
        served traffic: freshly extracted cases feed a per-model drift window
        from the batching drain, every labeled request feeds the
        misclassification counters, and drift gauges / alert states appear on
        ``GET /metrics`` and ``GET /monitor``.
    monitor_window / monitor_max_age_seconds:
        Sliding-window bounds of the drift window (cases / seconds).
    drift_threshold:
        Warn threshold on the EWMA-smoothed normalized drift score; the
        critical threshold is twice it.
    monitor_update_cases:
        When > 0, labeled traffic is buffered per model and every time the
        buffer reaches this many cases a ``PatternLibrary.partial_fit``
        update is applied on a worker thread and snapshotted into the
        registry as a new artifact version (0 disables updates).
    """

    def __init__(
        self,
        registry,
        max_batch_cases: int = 512,
        num_workers: int = 2,
        max_loaded_models: int = 8,
        extraction_batch_size: int = 128,
        request_timeout: float = 120.0,
        inference_dtype: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        monitor: bool = False,
        monitor_window: int = 2048,
        monitor_max_age_seconds: Optional[float] = 600.0,
        drift_threshold: float = 2.0,
        monitor_update_cases: int = 0,
    ):
        if max_loaded_models < 1:
            raise ServeError(f"max_loaded_models must be >= 1, got {max_loaded_models}")
        self.registry = registry if isinstance(registry, ArtifactRegistry) else ArtifactRegistry(registry)
        self.inference_dtype = (
            resolve_dtype(inference_dtype) if inference_dtype is not None else None
        )
        self.extraction_batch_size = int(extraction_batch_size)
        self.request_timeout = float(request_timeout)
        self.max_loaded_models = int(max_loaded_models)
        self._entries: "OrderedDict[str, LoadedModel]" = OrderedDict()
        self._entries_lock = threading.Lock()

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_diagnoses = self.metrics.counter(
            "service.diagnoses_total", "synchronous diagnoses served"
        )
        self._m_diagnosis_seconds = self.metrics.histogram(
            "service.diagnosis_seconds", "end-to-end synchronous diagnosis wall time"
        )
        self._m_errors = self.metrics.counter(
            "service.errors_total", "diagnoses that raised an error"
        )
        self.monitor: Optional[MonitorSink] = None
        if monitor:
            updater_factory = (
                self._monitor_updater if monitor_update_cases > 0 else None
            )
            self._monitor_update_cases = int(monitor_update_cases)
            self.monitor = MonitorSink(
                library_resolver=lambda key: self._entry(key).morph.patterns,
                window_cases=monitor_window,
                window_max_age_seconds=monitor_max_age_seconds,
                thresholds=DriftThresholds(
                    warn=float(drift_threshold), critical=2.0 * float(drift_threshold)
                ),
                updater_factory=updater_factory,
                update_runner=self._run_monitor_update,
                metrics=self.metrics,
            )
        self.engine = BatchingEngine(
            extract_fn=self._extract_raw,
            max_batch_cases=max_batch_cases,
            metrics=self.metrics,
            monitor=self.monitor,
        ).start()
        self.jobs = JobStore()
        self.pool = WorkerPool(num_workers=num_workers, store=self.jobs, metrics=self.metrics)
        self._closed = False

    # -- model residency ----------------------------------------------------------

    def resolve_key(self, name: str, version: Optional[str] = None) -> str:
        """Resolve ``(name, version-or-latest)`` to a canonical ``name@version`` key.

        A pinned version that is already resident skips the registry's disk
        lookup entirely (versions are immutable, so residency proves
        existence); only "latest" requests re-consult the filesystem, since
        another process may have registered a newer version.
        """
        if version is not None:
            key = f"{name}@{version}"
            with self._entries_lock:
                if key in self._entries:
                    return key
        return f"{name}@{self.registry.resolve(name, version)}"

    def _entry(self, key: str) -> LoadedModel:
        """Return the loaded model for ``key``, loading (and evicting) as needed."""
        with self._entries_lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        name, _, version = key.partition("@")
        morph = self.registry.load(name, version)
        if self.inference_dtype is not None:
            morph.instrumented.inference_dtype = self.inference_dtype
        entry = LoadedModel(
            key=key,
            morph=morph,
            extractor=FootprintExtractor(morph.instrumented, batch_size=self.extraction_batch_size),
            # Fixed once fitted; DeepMorph.diagnose recomputes them per call,
            # which is exactly the per-request overhead a service must not pay.
            pattern_overlap=morph.patterns.pattern_overlap(),
            feature_quality=morph.patterns.feature_quality(),
            training_inconsistency=morph.patterns.training_inconsistency(),
        )
        with self._entries_lock:
            if key not in self._entries:
                self._entries[key] = entry
                while len(self._entries) > self.max_loaded_models:
                    self._entries.popitem(last=False)
            self._entries.move_to_end(key)
            return self._entries[key]

    def loaded_models(self) -> List[str]:
        with self._entries_lock:
            return list(self._entries)

    def evict(self, name: str, version: Optional[str] = None) -> List[str]:
        """Drop resident copies of a model.

        Must accompany ``registry.delete`` on a live service — residency
        otherwise keeps serving the deleted artifact (see :meth:`unregister`
        for the combined operation).  ``version=None`` evicts every version
        of ``name``.  Returns the evicted resident keys.
        """
        with self._entries_lock:
            doomed = [
                key for key in self._entries
                if key == f"{name}@{version}" or (version is None and key.partition("@")[0] == name)
            ]
            for key in doomed:
                del self._entries[key]
        return doomed

    def unregister(self, name: str, version: Optional[str] = None) -> None:
        """Delete from the registry AND evict resident copies, atomically enough."""
        self.registry.delete(name, version)
        self.evict(name, version)

    # -- extraction callback (runs on the engine thread) ---------------------------

    def _extract_raw(
        self, model_key: str, input_groups: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return self._entry(model_key).extractor.extract_coalesced(input_groups)

    # -- monitoring ----------------------------------------------------------------

    def _monitor_updater(self, model_key: str) -> PatternUpdater:
        """A pattern updater for one served model (its own fresh artifact copy).

        The updater never mutates the library the service answers requests
        with — it loads its own instance and publishes updates only by
        registering new immutable versions, which "latest" requests pick up
        on their next resolve.  Rolling back after a bad update is therefore
        a one-line ``registry.resolve``/pinned-version request away.
        """
        name, _, version = model_key.partition("@")
        morph = self.registry.load(name, version or None)
        if self.inference_dtype is not None:
            morph.instrumented.inference_dtype = self.inference_dtype
        return PatternUpdater(
            morph,
            name,
            registry=self.registry,
            min_cases=self._monitor_update_cases,
        )

    def _run_monitor_update(self, fn) -> None:
        """Run a pattern update on the worker pool (visible under ``/jobs``)."""
        try:
            self.pool.submit(
                lambda: fn() or {"kind": "monitor_update"}, kind="monitor_update"
            )
        except ServeError:
            # Pool shut down mid-flight: drop the update, never the request.
            pass

    def monitor_payload(self, refresh: bool = False) -> Dict:
        """The ``GET /monitor`` document (drift, windows, alerts, updates)."""
        if self.monitor is None:
            return MonitorSink.disabled_payload()
        if refresh:
            self.monitor.refresh()
        return self.monitor.payload()

    # -- diagnosis ----------------------------------------------------------------

    #: Shared with every repro.api backend (and thus the wire protocol), so
    #: the accepted shapes and rejection messages cannot drift between the
    #: embedded and served paths.
    _validate_request = staticmethod(validate_arrays)

    def diagnose(
        self,
        name: str,
        inputs,
        labels,
        version: Optional[str] = None,
        metadata: Optional[Dict] = None,
        timeout: Optional[float] = None,
    ) -> DefectReport:
        """Diagnose a labeled production batch against a registered model.

        The batch plays the role of the production data of
        ``DeepMorph.diagnose_dataset``: the service finds the misclassified
        cases (via the extracted footprints' own predictions) and aggregates
        their defect evidence into a :class:`DefectReport`.
        """
        start = time.perf_counter()
        with obs_span("service.diagnose", {"model": str(name)}):
            try:
                report = self._diagnose_inner(
                    name, inputs, labels, version=version, metadata=metadata, timeout=timeout
                )
            except Exception:
                self._m_errors.inc()
                raise
        self._m_diagnoses.inc()
        self._m_diagnosis_seconds.observe(time.perf_counter() - start)
        return report

    def _diagnose_inner(
        self,
        name: str,
        inputs,
        labels,
        version: Optional[str] = None,
        metadata: Optional[Dict] = None,
        timeout: Optional[float] = None,
    ) -> DefectReport:
        if self._closed:
            raise ServiceUnavailableError("service is closed")
        # A request whose deadline already lapsed must cost nothing past this
        # point — and a live deadline caps how long we wait on the engine.
        check_deadline("replica dispatch")
        inputs, labels = self._validate_request(inputs, labels)
        key = self.resolve_key(name, version)
        entry = self._entry(key)
        validate_labels(labels, entry.num_classes)

        with obs_span(
            "service.extract", {"model_key": key, "num_cases": int(inputs.shape[0])}
        ):
            try:
                trajectories, final_probs = self.engine.extract(
                    key,
                    inputs,
                    timeout=remaining_budget(
                        timeout if timeout is not None else self.request_timeout
                    ),
                )
            except (TimeoutError, _FuturesTimeoutError):
                # The wait was capped by the request's deadline: surface the
                # typed 504, not a generic engine timeout.
                check_deadline("extraction wait")
                raise
        if self.monitor is not None:
            # Labeled tap: misclassification counters + partial_fit buffers.
            # (The drift window is fed by the engine drain, so it is not
            # fed again here.)
            self.monitor.observe_labeled(key, trajectories, final_probs, labels)
        with obs_span("service.footprints") as fp_span:
            faulty = entry.extractor.from_arrays(trajectories, final_probs, labels).misclassified()
            fp_span.set_attribute("num_faulty", len(faulty))
        if not faulty:
            raise NoFaultyCasesError(
                "none of the supplied cases is misclassified by the model; nothing to diagnose"
            )
        # Batched diagnosis core: the faulty rows' arrays go through one
        # specifics computation and one scoring pass, with no per-case objects.
        with obs_span("service.specifics", {"num_faulty": len(faulty)}):
            specifics = compute_specifics_batch(faulty, entry.morph.patterns)
        with obs_span("service.classify"):
            context = entry.morph.case_classifier.build_context(
                specifics,
                num_classes=entry.num_classes,
                pattern_overlap=entry.pattern_overlap,
                feature_quality=entry.feature_quality,
                training_inconsistency=entry.training_inconsistency,
            )
            meta = {
                "num_production_cases": int(inputs.shape[0]),
                "model": name,
                "version": key.partition("@")[2],
            }
            meta.update(metadata or {})
            return entry.morph.case_classifier.aggregate(specifics, context=context, metadata=meta)

    def submit_diagnosis(
        self,
        name: str,
        inputs,
        labels,
        version: Optional[str] = None,
        metadata: Optional[Dict] = None,
    ) -> Job:
        """Queue an asynchronous diagnosis; poll the returned job for its report."""
        if self._closed:
            raise ServiceUnavailableError("service is closed")
        inputs, labels = self._validate_request(inputs, labels)
        key = self.resolve_key(name, version)

        def run() -> Dict:
            return self.diagnose(
                name, inputs, labels, version=key.partition("@")[2], metadata=metadata
            ).as_dict()

        return self.pool.submit(
            run,
            kind="diagnosis",
            details={"model_key": key, "num_cases": int(inputs.shape[0])},
        )

    # -- introspection ------------------------------------------------------------

    def models(self) -> List[Dict]:
        """Manifest records of every registered artifact version."""
        return [record.as_dict() for record in self.registry.records()]

    def stats(self) -> Dict:
        return {
            "engine": self.engine.stats(),
            "jobs": self.jobs.counts(),
            "loaded_models": self.loaded_models(),
            "registered_models": self.registry.models(),
            "workers": self.pool.num_workers,
            "inference_dtype": (
                self.inference_dtype.name if self.inference_dtype is not None else "per-model"
            ),
            "monitor": self.monitor is not None,
        }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.engine.stop()
        self.pool.shutdown()

    def __enter__(self) -> "DiagnosisService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DiagnosisService(registry={str(self.registry.root)!r}, "
            f"loaded={self.loaded_models()}, closed={self._closed})"
        )
