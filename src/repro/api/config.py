"""``DiagnoserConfig``: one configuration object for every diagnosis backend.

Before this module the same knobs were spelled four different ways — as
``DeepMorph.__init__`` kwargs, as ``DiagnosisService.__init__`` kwargs, as
``repro-serve`` command-line flags, and as ad-hoc arguments inside
``experiments.runner``.  :class:`DiagnoserConfig` consolidates them: one
validated, immutable dataclass that each layer projects its own kwargs from
(:meth:`deepmorph_kwargs`, :meth:`service_kwargs`), so adding a knob is one
field here instead of four copies drifting apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..core.classifier import DefectClassifierConfig
from ..core.diagnosis import DeepMorph
from ..exceptions import ConfigurationError
from ..rng import RngLike


@dataclass(frozen=True)
class DiagnoserConfig:
    """Every knob of the diagnosis pipeline and its serving layers.

    Pipeline (``DeepMorph``) knobs
    ------------------------------
    probe_epochs, probe_learning_rate, probe_batch_size:
        Training hyper-parameters of the auxiliary softmax probes.
    classifier_config:
        Weights of the per-case defect scoring rule.
    correct_only_patterns:
        Learn class execution patterns from correctly-classified training
        cases only (the default) or from all of them.
    late_layer_emphasis:
        Late-layer weighting of the pattern library.
    max_spatial:
        Spatial pooling cap applied to convolutional activations.
    inference_dtype:
        Extraction precision (``"float32"``/``"float64"``).  ``None`` defers
        to each component's own default — float32 for a fresh ``DeepMorph``,
        the artifact's saved policy for a loaded one.

    Service knobs
    -------------
    extraction_batch_size:
        Chunk size of instrumented forward passes, shared by every backend so
        a request extracted alone gives the same bits locally and served
        (co-batched traffic moves served rows by about 3e-8 in float32).
    max_batch_cases:
        Soft cap on the cases the batching engine coalesces into one
        extraction.
    num_workers:
        Worker threads for asynchronous jobs.
    max_loaded_models:
        Resident fitted-model LRU capacity.
    request_timeout:
        Seconds a synchronous diagnosis waits on the engine.
    monitor:
        Enable the online monitor (:mod:`repro.monitor`): drift windows fed
        from the batching engine, drift gauges on ``/metrics``, and the
        ``GET /monitor`` endpoint.
    monitor_window:
        Sliding-window capacity (served cases) per model for drift scoring.
    monitor_max_age_seconds:
        Time-based window expiry; ``None`` keeps cases until displaced.
    drift_threshold:
        Warn-level normalized-divergence threshold of the drift detector
        (critical fires at twice this value).
    monitor_update_cases:
        Labeled cases buffered before an incremental ``partial_fit`` update
        is applied and snapshotted to the registry; 0 disables online
        updates (monitoring stays observe-only).

    Remote-client knobs
    -------------------
    read_timeout:
        Socket timeout of :class:`~repro.api.RemoteDiagnoser` (covers connect
        and response read; stdlib ``http.client`` has a single timeout).
    max_retries:
        Bounded retry budget for transport failures and 503 responses.
    retry_backoff_seconds:
        Base of the full-jitter exponential backoff between transport
        retries: attempt ``n`` sleeps ``uniform(0, base * 2**n)``, so a
        burst of failing clients decorrelates instead of retrying in
        lock-step.
    retry_after_cap_seconds:
        Upper bound honored for a server-sent ``Retry-After`` hint.
    deadline_seconds:
        Total budget stamped on remote requests as ``X-Deadline-Ms``; the
        server refuses work the budget can no longer pay for (HTTP 504).
        ``None`` (the default) sends no deadline.
    breaker_failure_threshold, breaker_reset_seconds:
        Client-side circuit breaker of :class:`~repro.api.RemoteDiagnoser`:
        after ``breaker_failure_threshold`` consecutive failures (transport
        errors after retries, 5xx responses other than ``504``) calls fail
        locally with :class:`~repro.exceptions.CircuitOpenError` until a
        half-open probe succeeds after ``breaker_reset_seconds``.
    propagate_trace_headers:
        Send ``X-Request-ID`` / ``X-Trace-Parent`` on remote requests when
        tracing is enabled, so client- and server-side spans stitch into one
        trace.  Disable for servers that must not receive client identifiers.
    wire_codec:
        Wire encoding of :class:`~repro.api.RemoteDiagnoser` requests (and
        the server default of ``repro-serve``): ``"json"`` (the default and
        compatibility path) or ``"binary"`` (framed raw-array transport; see
        :mod:`repro.wire`).
    connection_pool_size:
        Keep-alive connections a :class:`~repro.api.RemoteDiagnoser` retains
        for reuse; concurrent callers beyond the pool size open short-lived
        extra connections.
    """

    # -- pipeline --------------------------------------------------------------
    probe_epochs: int = 12
    probe_learning_rate: float = 0.01
    probe_batch_size: int = 64
    classifier_config: Optional[DefectClassifierConfig] = None
    correct_only_patterns: bool = True
    late_layer_emphasis: float = 0.5
    max_spatial: int = 4
    inference_dtype: Optional[str] = None
    # -- service ---------------------------------------------------------------
    extraction_batch_size: int = 128
    max_batch_cases: int = 512
    num_workers: int = 2
    max_loaded_models: int = 8
    request_timeout: float = 120.0
    monitor: bool = False
    monitor_window: int = 2048
    monitor_max_age_seconds: Optional[float] = 600.0
    drift_threshold: float = 2.0
    monitor_update_cases: int = 0
    # -- remote client ----------------------------------------------------------
    read_timeout: float = 120.0
    max_retries: int = 2
    retry_backoff_seconds: float = 0.25
    retry_after_cap_seconds: float = 5.0
    propagate_trace_headers: bool = True
    wire_codec: str = "json"
    connection_pool_size: int = 2
    deadline_seconds: Optional[float] = None
    breaker_failure_threshold: int = 5
    breaker_reset_seconds: float = 5.0

    def __post_init__(self) -> None:
        positive_ints = {
            "probe_epochs": self.probe_epochs,
            "probe_batch_size": self.probe_batch_size,
            "extraction_batch_size": self.extraction_batch_size,
            "max_batch_cases": self.max_batch_cases,
            "num_workers": self.num_workers,
            "max_loaded_models": self.max_loaded_models,
            "connection_pool_size": self.connection_pool_size,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "monitor_window": self.monitor_window,
        }
        for name, value in positive_ints.items():
            if int(value) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        positive_floats = {
            "probe_learning_rate": self.probe_learning_rate,
            "request_timeout": self.request_timeout,
            "read_timeout": self.read_timeout,
        }
        for name, value in positive_floats.items():
            if float(value) <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        non_negative = {
            "max_retries": self.max_retries,
            "retry_backoff_seconds": self.retry_backoff_seconds,
            "retry_after_cap_seconds": self.retry_after_cap_seconds,
            "breaker_reset_seconds": self.breaker_reset_seconds,
            "monitor_update_cases": self.monitor_update_cases,
        }
        for name, value in non_negative.items():
            if float(value) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        for name, value in (
            ("deadline_seconds", self.deadline_seconds),
            ("monitor_max_age_seconds", self.monitor_max_age_seconds),
        ):
            if value is not None and float(value) <= 0:
                raise ConfigurationError(f"{name} must be > 0 or None, got {value}")
        if float(self.drift_threshold) <= 0:
            raise ConfigurationError(
                f"drift_threshold must be > 0, got {self.drift_threshold}"
            )
        if self.inference_dtype is not None and self.inference_dtype not in (
            "float32",
            "float64",
        ):
            raise ConfigurationError(
                f"inference_dtype must be 'float32', 'float64' or None, "
                f"got {self.inference_dtype!r}"
            )
        # Resolved (not just name-checked) against the codec registry, so the
        # error message always lists what is actually registered.  Imported
        # lazily: repro.wire depends on repro.api.schema.
        from ..wire import get_codec

        get_codec(self.wire_codec)

    # -- projections ------------------------------------------------------------

    def deepmorph_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for :class:`~repro.core.DeepMorph`.

        ``inference_dtype=None`` is omitted so the facade keeps its own
        default (float32) rather than receiving an explicit override.
        """
        kwargs: Dict[str, object] = {
            "probe_epochs": self.probe_epochs,
            "probe_learning_rate": self.probe_learning_rate,
            "probe_batch_size": self.probe_batch_size,
            "classifier_config": self.classifier_config,
            "correct_only_patterns": self.correct_only_patterns,
            "late_layer_emphasis": self.late_layer_emphasis,
            "max_spatial": self.max_spatial,
        }
        if self.inference_dtype is not None:
            kwargs["inference_dtype"] = self.inference_dtype
        return kwargs

    def service_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for :class:`~repro.serve.DiagnosisService`."""
        return {
            "max_batch_cases": self.max_batch_cases,
            "num_workers": self.num_workers,
            "max_loaded_models": self.max_loaded_models,
            "extraction_batch_size": self.extraction_batch_size,
            "request_timeout": self.request_timeout,
            "inference_dtype": self.inference_dtype,
            "monitor": self.monitor,
            "monitor_window": self.monitor_window,
            "monitor_max_age_seconds": self.monitor_max_age_seconds,
            "drift_threshold": self.drift_threshold,
            "monitor_update_cases": self.monitor_update_cases,
        }

    def build_deepmorph(self, rng: RngLike = None) -> DeepMorph:
        """Construct a fresh (unfitted) :class:`~repro.core.DeepMorph`."""
        return DeepMorph(rng=rng, **self.deepmorph_kwargs())  # type: ignore[arg-type]

    def with_overrides(self, **changes: object) -> "DiagnoserConfig":
        """A copy of this config with the given fields replaced (re-validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]
