"""MonitorSink — the serving layer's tap into the monitoring subsystem.

One sink instance watches one service's traffic across all of its models.
Two taps feed it, with no double counting:

* ``observe_extracted`` — called from the batching engine's drain with the
  extracted ``(trajectories, final_probs)`` of each request.  Every row a
  replica extracts feeds the drift window; whole-payload repeats answered by
  the gateway's response cache never reach a replica, so a hot repeated
  request cannot swamp the window.
* ``observe_labeled`` — called from ``DiagnosisService.diagnose`` with every
  request's labeled arrays.  These feed the misclassification counters and
  the per-model :class:`~repro.monitor.update.PatternUpdater` buffers.

Both taps follow the obs discipline: they never raise and never block — any
internal failure bumps an error counter, logs a warning with the exception's
type and message, becomes the ``last_error`` of ``GET /monitor``, and the
request proceeds untouched.

The sink is deliberately ignorant of :mod:`repro.serve` (cycle-free): the
pattern libraries, metrics registry, update runner, and updater factory are
all injected as plain callables/duck-typed objects by whoever wires it up.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Dict, Optional, Protocol

import numpy as np

from ..core.patterns import PatternLibrary
from ..obs import span as obs_span
from ..obs.logging import get_logger, log_event
from .alerts import LEVEL_OK, AlertManager, level_severity
from .drift import DriftDetector, DriftReport, DriftThresholds
from .update import PatternUpdater
from .window import MonitorWindow

__all__ = ["MonitorSink", "MetricsLike"]

_log = get_logger("monitor")


class _CounterLike(Protocol):
    def inc(self, amount: float = 1.0) -> None: ...


class _GaugeLike(Protocol):
    def set(self, value: float) -> None: ...


class MetricsLike(Protocol):
    """The slice of ``repro.serve.metrics.MetricsRegistry`` the sink uses."""

    def counter(self, name: str, description: str = "") -> _CounterLike: ...

    def gauge(self, name: str, description: str = "") -> _GaugeLike: ...


class _NoopInstrument:
    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None


class _NoopMetrics:
    def counter(self, name: str, description: str = "") -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, description: str = "") -> _NoopInstrument:
        return _NOOP_INSTRUMENT


_NOOP_INSTRUMENT = _NoopInstrument()


class _ModelMonitor:
    """Per-model window + detector + optional updater."""

    __slots__ = ("window", "detector", "updater", "last_report", "since_evaluation")

    def __init__(
        self,
        window: MonitorWindow,
        detector: DriftDetector,
        updater: Optional[PatternUpdater],
    ) -> None:
        self.window = window
        self.detector = detector
        self.updater = updater
        self.last_report: Optional[DriftReport] = None
        self.since_evaluation = 0


class MonitorSink:
    """Collect served traffic into windows, score drift, manage alerts.

    Parameters
    ----------
    library_resolver:
        ``model_key -> PatternLibrary`` for the artifact currently serving
        that key (injected by the service; keeps this module serve-free).
    window_cases / window_max_age_seconds:
        Sliding-window bounds (count- and time-based expiry).
    thresholds / ewma_alpha / min_cases:
        Drift scoring knobs (see :class:`DriftDetector`).
    evaluate_every:
        Run a drift evaluation automatically after this many freshly
        observed cases per model (0 disables; endpoints can still refresh).
    updater_factory:
        Optional ``model_key -> PatternUpdater`` enabling incremental
        pattern updates from labeled traffic.
    update_runner:
        Callable executing the (potentially slow) update application —
        typically a submit to the service's one update thread, so updates
        run one at a time; defaults to inline execution.
    metrics:
        Duck-typed metrics registry; gauges/counters land on ``/metrics``.
    """

    def __init__(
        self,
        library_resolver: Callable[[str], PatternLibrary],
        window_cases: int = 2048,
        window_max_age_seconds: Optional[float] = 600.0,
        thresholds: Optional[DriftThresholds] = None,
        ewma_alpha: float = 0.3,
        min_cases: int = 8,
        evaluate_every: int = 64,
        alert_cooldown_seconds: float = 60.0,
        updater_factory: Optional[Callable[[str], Optional[PatternUpdater]]] = None,
        update_runner: Optional[Callable[[Callable[[], None]], None]] = None,
        metrics: Optional[MetricsLike] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._resolve_library = library_resolver
        self.window_cases = int(window_cases)
        self.window_max_age_seconds = window_max_age_seconds
        self.thresholds = thresholds or DriftThresholds()
        self.ewma_alpha = float(ewma_alpha)
        self.min_cases = int(min_cases)
        self.evaluate_every = int(evaluate_every)
        self._updater_factory = updater_factory
        self._update_runner = update_runner or (lambda fn: fn())
        self._clock = clock
        self.metrics = metrics or _NoopMetrics()
        self.alerts = AlertManager(
            cooldown_seconds=alert_cooldown_seconds,
            clock=clock,
            on_event=lambda alert: self._alert_events.inc(),
        )
        self._lock = threading.Lock()
        self._models: Dict[str, _ModelMonitor] = {}
        #: The latest swallowed failure: stage, model, type, message, time.
        self.last_error: Optional[Dict[str, object]] = None

        metric = self.metrics
        self._observed = metric.counter(
            "monitor.observed_cases", "Freshly extracted cases fed to the drift window"
        )
        self._labeled = metric.counter(
            "monitor.labeled_cases", "Labeled cases fed to the update buffers"
        )
        self._misclassified = metric.counter(
            "monitor.misclassified_cases", "Labeled cases the model got wrong"
        )
        self._dropped = metric.counter(
            "monitor.dropped_cases", "Observations the window refused (non-blocking)"
        )
        self._errors = metric.counter(
            "monitor.errors", "Internal monitor failures swallowed off the hot path"
        )
        self._evaluations = metric.counter(
            "monitor.evaluations", "Drift evaluations performed"
        )
        self._alert_events = metric.counter(
            "monitor.alert_events", "Fired (non-suppressed) alert escalations"
        )
        self._updates = metric.counter(
            "monitor.updates_applied", "partial_fit updates folded into libraries"
        )
        self._gauge_window = metric.gauge(
            "monitor.window_cases", "Live cases in the most recently fed window"
        )
        self._gauge_raw = metric.gauge(
            "monitor.drift_raw", "Aggregate drift score of the last evaluation"
        )
        self._gauge_ewma = metric.gauge(
            "monitor.drift_ewma", "EWMA-smoothed aggregate drift score"
        )
        self._gauge_level = metric.gauge(
            "monitor.alert_level", "Worst alert level (0=ok, 1=warn, 2=critical)"
        )
        self._gauge_pending = metric.gauge(
            "monitor.update_pending_cases", "Labeled cases buffered for the next update"
        )

    # -- model state --------------------------------------------------------------

    def _model(self, model_key: str) -> _ModelMonitor:
        state = self._models.get(model_key)
        if state is not None:
            return state
        with self._lock:
            state = self._models.get(model_key)
            if state is None:
                window = MonitorWindow(
                    max_cases=self.window_cases,
                    max_age_seconds=self.window_max_age_seconds,
                    clock=self._clock,
                )
                detector = DriftDetector(
                    self._resolve_library(model_key),
                    thresholds=self.thresholds,
                    ewma_alpha=self.ewma_alpha,
                    min_cases=self.min_cases,
                )
                updater = self._updater_factory(model_key) if self._updater_factory else None
                state = _ModelMonitor(window, detector, updater)
                self._models[model_key] = state
        return state

    # -- serving-path taps (never raise) ------------------------------------------

    def observe_extracted(
        self, model_key: str, trajectories: np.ndarray, final_probs: np.ndarray
    ) -> None:
        """Feed extracted cases into the drift window (engine drain tap)."""
        try:
            with obs_span("monitor.update", {"model": model_key, "stage": "window"}):
                state = self._model(model_key)
                predicted = np.asarray(final_probs).argmax(axis=1)
                before = state.window.dropped_total
                accepted = state.window.append(trajectories, predicted)
                self._observed.inc(accepted)
                dropped = state.window.dropped_total - before
                if dropped:
                    self._dropped.inc(dropped)
                self._gauge_window.set(len(state.window))
                if self.evaluate_every > 0:
                    state.since_evaluation += accepted
                    if state.since_evaluation >= self.evaluate_every:
                        state.since_evaluation = 0
                        self._evaluate_state(model_key, state)
        except Exception as error:
            self._record_error("window", model_key, error)

    def observe_labeled(
        self,
        model_key: str,
        trajectories: np.ndarray,
        final_probs: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Feed labeled request arrays into the update path (diagnose tap)."""
        try:
            with obs_span("monitor.update", {"model": model_key, "stage": "labeled"}):
                state = self._model(model_key)
                labels = np.asarray(labels).reshape(-1)
                predicted = np.asarray(final_probs).argmax(axis=1)
                self._labeled.inc(labels.shape[0])
                self._misclassified.inc(int(np.count_nonzero(predicted != labels)))
                updater = state.updater
                if updater is None:
                    return
                updater.add(trajectories, final_probs, labels)
                self._gauge_pending.set(updater.pending_cases)
                if updater.ready():
                    self._update_runner(lambda: self._apply_update(model_key, updater))
        except Exception as error:
            self._record_error("labeled", model_key, error)

    def _apply_update(self, model_key: str, updater: PatternUpdater) -> None:
        try:
            result = updater.maybe_apply()
            if result is not None:
                self._updates.inc()
                self._gauge_pending.set(updater.pending_cases)
        except Exception as error:
            self._record_error("update", model_key, error)

    def _record_error(self, stage: str, model_key: str, error: Exception) -> None:
        """Count, log and keep a failure that must not reach the request."""
        self._errors.inc()
        self.last_error = {
            "stage": stage,
            "model": model_key,
            "type": type(error).__name__,
            "message": str(error),
            "time": time.time(),
        }
        log_event(
            _log, "monitor error", level=logging.WARNING, stage=stage, model=model_key,
            error_type=type(error).__name__, error_message=str(error),
        )

    # -- evaluation and reporting --------------------------------------------------

    def evaluate(self, model_key: str) -> DriftReport:
        """Score ``model_key``'s window now and update its alert state."""
        state = self._model(model_key)
        return self._evaluate_state(model_key, state)

    def _evaluate_state(self, model_key: str, state: _ModelMonitor) -> DriftReport:
        report = state.detector.evaluate(state.window.snapshot())
        state.last_report = report
        self._evaluations.inc()
        if not report.insufficient:
            if report.aggregate_raw is not None:
                self._gauge_raw.set(report.aggregate_raw)
            if report.aggregate_ewma is not None:
                self._gauge_ewma.set(report.aggregate_ewma)
            ewma = report.aggregate_ewma
            message = (
                f"aggregate drift ewma={ewma:.3f}" if ewma is not None else "no drift score"
            )
            self.alerts.update(f"{model_key}:drift", report.level, message)
        self._gauge_level.set(level_severity(self.alerts.worst_level()))
        return report

    def refresh(self) -> None:
        """Re-evaluate every model's window (used by ``/monitor?refresh=1``)."""
        for model_key in list(self._models):
            try:
                self.evaluate(model_key)
            except Exception as error:
                self._record_error("refresh", model_key, error)

    def payload(self) -> Dict[str, object]:
        """The ``GET /monitor`` document: windows, drift, alerts, updates, last error."""
        with self._lock:
            models = dict(self._models)
        model_payloads: Dict[str, Dict[str, object]] = {}
        for model_key, state in models.items():
            model_payloads[model_key] = {
                "window": state.window.stats(),
                "drift": state.last_report.as_dict() if state.last_report else None,
                "update": state.updater.stats() if state.updater else None,
            }
        worst = self.alerts.worst_level()
        return {
            "enabled": True,
            "level": worst,
            "level_severity": level_severity(worst),
            "thresholds": self.thresholds.as_dict(),
            "models": model_payloads,
            "alerts": self.alerts.snapshot(),
            "last_error": self.last_error,
        }

    def worst_level(self) -> str:
        return self.alerts.worst_level()

    @staticmethod
    def disabled_payload() -> Dict[str, object]:
        """The ``GET /monitor`` document when monitoring is off."""
        return {"enabled": False, "level": LEVEL_OK, "models": {}, "alerts": {}}
