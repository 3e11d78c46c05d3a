"""Unit tests for the online monitoring subsystem (repro.monitor)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import MonitorOverflowError, ServeError, exception_from_wire
from repro.monitor import (
    LEVEL_CRITICAL,
    LEVEL_OK,
    LEVEL_WARN,
    AlertManager,
    DriftDetector,
    DriftThresholds,
    MonitorSink,
    MonitorWindow,
    PatternUpdater,
    level_severity,
)
from repro.serve import ArtifactRegistry, MetricsRegistry
from repro.serve.protocol import error_status

NUM_LAYERS = 3
NUM_CLASSES = 4


def _stack(rows: int, fill: float = 0.0, num_layers: int = NUM_LAYERS) -> np.ndarray:
    stack = np.full((rows, num_layers, NUM_CLASSES), fill, dtype=np.float64)
    return stack


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------- window


class TestMonitorWindow:
    def test_append_and_snapshot_roundtrip(self):
        window = MonitorWindow(max_cases=8)
        accepted = window.append(_stack(3, fill=1.0), np.array([0, 1, 2]))
        assert accepted == 3
        snapshot = window.snapshot()
        assert snapshot.cases == 3
        assert snapshot.stack.shape == (3, NUM_LAYERS, NUM_CLASSES)
        assert snapshot.class_ids.tolist() == [0, 1, 2]
        assert snapshot.appended_total == 3
        assert snapshot.dropped_total == 0

    def test_ring_overwrites_oldest(self):
        window = MonitorWindow(max_cases=4)
        window.append(_stack(3, fill=1.0), np.array([1, 1, 1]))
        window.append(_stack(3, fill=2.0), np.array([2, 2, 2]))
        snapshot = window.snapshot()
        assert snapshot.cases == 4
        # Oldest first: one surviving fill=1 row, then the three fill=2 rows.
        assert snapshot.class_ids.tolist() == [1, 2, 2, 2]
        assert snapshot.stack[0, 0, 0] == 1.0
        assert snapshot.stack[-1, 0, 0] == 2.0
        assert snapshot.appended_total == 6

    def test_oversized_chunk_keeps_newest_rows(self):
        window = MonitorWindow(max_cases=2)
        window.append(_stack(5), np.arange(5))
        snapshot = window.snapshot()
        assert snapshot.class_ids.tolist() == [3, 4]

    def test_time_based_expiry(self):
        clock = FakeClock()
        window = MonitorWindow(max_cases=8, max_age_seconds=10.0, clock=clock)
        window.append(_stack(2), np.array([0, 0]))
        clock.advance(6.0)
        window.append(_stack(2), np.array([1, 1]))
        assert window.snapshot().cases == 4
        clock.advance(6.0)  # first chunk is now 12s old, second 6s
        snapshot = window.snapshot()
        assert snapshot.cases == 2
        assert snapshot.class_ids.tolist() == [1, 1]

    def test_shape_mismatch_drops_and_counts(self):
        window = MonitorWindow(max_cases=8)
        window.append(_stack(2), np.array([0, 0]))
        accepted = window.append(
            _stack(2, num_layers=NUM_LAYERS + 1), np.array([0, 0])
        )
        assert accepted == 0
        assert window.dropped_total == 2
        assert window.snapshot().cases == 2

    def test_contended_append_drops_instead_of_blocking(self):
        window = MonitorWindow(max_cases=8)
        window._lock.acquire()
        try:
            accepted = window.append(_stack(2), np.array([0, 0]))
        finally:
            window._lock.release()
        assert accepted == 0
        assert window.dropped_total == 2

    def test_append_strict_raises_typed_overflow(self):
        window = MonitorWindow(max_cases=8)
        window.close()
        with pytest.raises(MonitorOverflowError) as excinfo:
            window.append_strict(_stack(3), np.array([0, 1, 2]))
        assert excinfo.value.dropped == 3

    def test_closed_window_drops_silently_on_plain_append(self):
        window = MonitorWindow(max_cases=8)
        window.close()
        assert window.append(_stack(1), np.array([0])) == 0
        assert window.dropped_total == 1

    def test_clear_keeps_counters(self):
        window = MonitorWindow(max_cases=8)
        window.append(_stack(3), np.array([0, 1, 2]))
        window.clear()
        assert len(window) == 0
        assert window.stats()["appended_total"] == 3


# ---------------------------------------------------------------- thresholds / alerts


class TestDriftThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftThresholds(warn=0.0)
        with pytest.raises(ValueError):
            DriftThresholds(warn=2.0, critical=1.0)
        with pytest.raises(ValueError):
            DriftThresholds(hysteresis=1.0)

    def test_escalation_is_immediate(self):
        thresholds = DriftThresholds(warn=2.0, critical=4.0, hysteresis=0.1)
        assert thresholds.resolve(1.0) == LEVEL_OK
        assert thresholds.resolve(2.0) == LEVEL_WARN
        assert thresholds.resolve(4.5) == LEVEL_CRITICAL

    def test_clearing_requires_hysteresis_margin(self):
        thresholds = DriftThresholds(warn=2.0, critical=4.0, hysteresis=0.1)
        # 1.9 is below warn but inside the 10% band: a warn level sticks.
        assert thresholds.resolve(1.9, previous=LEVEL_WARN) == LEVEL_WARN
        assert thresholds.resolve(1.7, previous=LEVEL_WARN) == LEVEL_OK
        # Same for critical: 3.7 >= 4.0 * 0.9 keeps critical.
        assert thresholds.resolve(3.7, previous=LEVEL_CRITICAL) == LEVEL_CRITICAL
        assert thresholds.resolve(3.5, previous=LEVEL_CRITICAL) == LEVEL_WARN


class TestAlertManager:
    def test_escalation_fires_event_and_cooldown_suppresses(self):
        clock = FakeClock()
        fired = []
        manager = AlertManager(
            cooldown_seconds=60.0, clock=clock, on_event=lambda a: fired.append(a.level)
        )
        manager.update("m:drift", LEVEL_WARN)
        assert fired == [LEVEL_WARN]
        manager.update("m:drift", LEVEL_OK)  # de-escalation: silent
        clock.advance(10.0)
        manager.update("m:drift", LEVEL_CRITICAL)  # inside cooldown: suppressed
        assert fired == [LEVEL_WARN]
        alert = manager.get("m:drift")
        assert alert.level == LEVEL_CRITICAL  # state still truthful
        assert alert.suppressed_total == 1
        clock.advance(61.0)
        manager.update("m:drift", LEVEL_OK)
        manager.update("m:drift", LEVEL_WARN)  # cooldown elapsed: fires again
        assert fired == [LEVEL_WARN, LEVEL_WARN]
        assert alert.events_total == 2

    def test_worst_level_and_active_ordering(self):
        manager = AlertManager(cooldown_seconds=0.0)
        manager.update("a", LEVEL_WARN)
        manager.update("b", LEVEL_CRITICAL)
        manager.update("c", LEVEL_OK)
        assert manager.worst_level() == LEVEL_CRITICAL
        active = manager.active()
        assert [a.name for a in active] == ["b", "a"]
        assert level_severity(manager.worst_level()) == 2

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            AlertManager().update("a", "panic")


# ---------------------------------------------------------------- drift detection


@pytest.fixture(scope="module")
def tiny_library(fitted_deepmorph):
    return fitted_deepmorph.patterns


def _snapshot_of(stack: np.ndarray, class_ids: np.ndarray):
    window = MonitorWindow(max_cases=max(stack.shape[0], 1))
    window.append(stack, class_ids)
    return window.snapshot()


def _class_mean_traffic(library, rows_per_class: int):
    """Traffic sitting exactly on each class mean: drift score ~0."""
    stacks, classes = [], []
    for class_id in library.classes():
        mean = library.patterns[class_id].mean_trajectory
        stacks.append(np.repeat(mean[None, :, :], rows_per_class, axis=0))
        classes.append(np.full(rows_per_class, class_id))
    return np.concatenate(stacks), np.concatenate(classes)


class TestDriftDetector:
    def test_on_pattern_traffic_scores_ok(self, tiny_library):
        detector = DriftDetector(
            tiny_library, thresholds=DriftThresholds(warn=0.5, critical=1.0), min_cases=4
        )
        stack, classes = _class_mean_traffic(tiny_library, rows_per_class=4)
        report = detector.evaluate(_snapshot_of(stack, classes))
        assert not report.insufficient
        assert report.scored_cases == stack.shape[0]
        assert report.level == LEVEL_OK
        assert report.aggregate_ewma == pytest.approx(0.0, abs=1e-6)

    def test_mislabeled_traffic_escalates(self, tiny_library):
        detector = DriftDetector(
            tiny_library,
            thresholds=DriftThresholds(warn=0.5, critical=1.0),
            ewma_alpha=1.0,
            min_cases=4,
        )
        stack, classes = _class_mean_traffic(tiny_library, rows_per_class=4)
        # Traffic whose predicted class disagrees with the trajectory it
        # produces — each case is scored against the *wrong* class mean.
        shifted = np.roll(classes, 4)
        report = detector.evaluate(_snapshot_of(stack, shifted))
        assert report.level in (LEVEL_WARN, LEVEL_CRITICAL)
        assert any(score.level != LEVEL_OK for score in report.per_class)

    def test_insufficient_window_carries_levels_over(self, tiny_library):
        detector = DriftDetector(tiny_library, min_cases=8)
        report = detector.evaluate(_snapshot_of(_stack(0), np.array([], dtype=int)))
        assert report.insufficient
        assert report.level == LEVEL_OK
        assert report.aggregate_raw is None

    def test_unmatched_classes_are_counted_not_scored(self, tiny_library):
        detector = DriftDetector(
            tiny_library, thresholds=DriftThresholds(warn=0.5, critical=1.0), min_cases=4
        )
        stack, classes = _class_mean_traffic(tiny_library, rows_per_class=2)
        unmatched = np.full_like(classes, 99)  # no pattern for class 99
        report = detector.evaluate(_snapshot_of(stack, unmatched))
        assert report.scored_cases == 0
        assert report.unmatched_cases == stack.shape[0]
        assert not report.insufficient

    def test_reset_forgets_baselines(self, tiny_library):
        detector = DriftDetector(
            tiny_library,
            thresholds=DriftThresholds(warn=0.5, critical=1.0),
            ewma_alpha=1.0,
            min_cases=4,
        )
        stack, classes = _class_mean_traffic(tiny_library, rows_per_class=4)
        detector.evaluate(_snapshot_of(stack, np.roll(classes, 4)))
        assert detector.level != LEVEL_OK
        detector.reset()
        assert detector.level == LEVEL_OK


# ---------------------------------------------------------------- sink


class TestMonitorSink:
    def _sink(self, library, **kwargs):
        kwargs.setdefault("thresholds", DriftThresholds(warn=0.5, critical=1.0))
        kwargs.setdefault("min_cases", 4)
        kwargs.setdefault("metrics", MetricsRegistry())
        return MonitorSink(lambda key: library, **kwargs)

    def test_observe_extracted_feeds_window_and_evaluates(self, tiny_library):
        sink = self._sink(tiny_library, evaluate_every=8)
        stack, classes = _class_mean_traffic(tiny_library, rows_per_class=4)
        final_probs = np.eye(NUM_CLASSES)[classes]
        sink.observe_extracted("tiny@v1", stack, final_probs)
        payload = sink.payload()
        model = payload["models"]["tiny@v1"]
        assert model["window"]["cases"] == stack.shape[0]
        assert model["drift"] is not None  # auto-evaluated at evaluate_every
        assert payload["level"] == LEVEL_OK
        metrics = sink.metrics.as_dict()
        assert metrics["monitor.observed_cases"]["value"] == stack.shape[0]

    def test_taps_never_raise(self, tiny_library):
        def broken_resolver(key):
            raise RuntimeError("registry exploded")

        sink = MonitorSink(broken_resolver, metrics=MetricsRegistry())
        assert sink.payload()["last_error"] is None
        sink.observe_extracted("m", _stack(2), np.eye(NUM_CLASSES)[[0, 1]])
        assert sink.payload()["last_error"]["stage"] == "window"
        sink.observe_labeled(
            "m", _stack(2), np.eye(NUM_CLASSES)[[0, 1]], np.array([0, 1])
        )
        assert sink.metrics.as_dict()["monitor.errors"]["value"] == 2
        last_error = sink.payload()["last_error"]
        assert {key: last_error[key] for key in ("stage", "model", "type", "message")} == {
            "stage": "labeled", "model": "m", "type": "RuntimeError",
            "message": "registry exploded",
        }

    def test_disabled_payload_shape(self):
        payload = MonitorSink.disabled_payload()
        assert payload == {"enabled": False, "level": "ok", "models": {}, "alerts": {}}

    def test_labeled_tap_counts_misclassifications(self, tiny_library):
        sink = self._sink(tiny_library, evaluate_every=0)
        stack, classes = _class_mean_traffic(tiny_library, rows_per_class=2)
        final_probs = np.eye(NUM_CLASSES)[classes]
        wrong = np.roll(classes, 1)
        sink.observe_labeled("m", stack, final_probs, wrong)
        metrics = sink.metrics.as_dict()
        assert metrics["monitor.labeled_cases"]["value"] == stack.shape[0]
        assert metrics["monitor.misclassified_cases"]["value"] > 0


# ---------------------------------------------------------------- updater


@pytest.fixture()
def private_morph(fitted_deepmorph, tmp_path):
    """A deep copy of the fitted morph (updates must not touch the fixture)."""
    from repro.serialize.deepmorph import load_deepmorph, save_deepmorph

    path = tmp_path / "morph.npz"
    save_deepmorph(fitted_deepmorph, path)
    return load_deepmorph(path)


@pytest.fixture()
def labeled_chunk(fitted_deepmorph, tiny_splits):
    _, test = tiny_splits
    inputs, labels = test.arrays()
    trajectories, final_probs = fitted_deepmorph.instrumented.layer_distributions(inputs)
    return trajectories, final_probs, np.asarray(labels)


class TestPatternUpdater:
    def test_buffers_until_min_cases_then_applies(self, private_morph, labeled_chunk):
        trajectories, final_probs, labels = labeled_chunk
        updater = PatternUpdater(private_morph, "tiny", min_cases=labels.shape[0])
        half = labels.shape[0] // 2
        updater.add(trajectories[:half], final_probs[:half], labels[:half])
        assert not updater.ready()
        assert updater.maybe_apply() is None
        updater.add(trajectories[half:], final_probs[half:], labels[half:])
        assert updater.ready()
        result = updater.maybe_apply()
        assert result is not None
        assert result.cases == labels.shape[0]
        assert updater.pending_cases == 0
        assert updater.stats()["applied_total"] == 1

    def test_apply_registers_immutable_snapshot(
        self, private_morph, labeled_chunk, tmp_path
    ):
        trajectories, final_probs, labels = labeled_chunk
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("tiny", private_morph)
        updater = PatternUpdater(private_morph, "tiny", registry=registry, min_cases=1)
        updater.add(trajectories, final_probs, labels)
        result = updater.apply()
        assert result.registered is not None
        assert result.registered["version"] == "v2"
        record = registry.record("tiny", "v2")
        assert record.metadata["monitor"]["kind"] == "partial_fit"
        assert record.metadata["monitor"]["cases"] == int(labels.shape[0])
        assert registry.versions("tiny") == ["v1", "v2"]

    def test_buffer_cap_discards_oldest(self, private_morph, labeled_chunk):
        trajectories, final_probs, labels = labeled_chunk
        chunk = labels.shape[0]
        updater = PatternUpdater(
            private_morph, "tiny", min_cases=1, max_buffer_cases=chunk
        )
        updater.add(trajectories, final_probs, labels)
        updater.add(trajectories, final_probs, labels)
        assert updater.pending_cases == chunk
        assert updater.discarded_total == chunk

    def test_empty_buffer_apply_is_noop(self, private_morph):
        updater = PatternUpdater(private_morph, "tiny", min_cases=1)
        assert updater.apply() is None


# ---------------------------------------------------------------- wire mapping


class TestMonitorOverflowWire:
    def test_maps_to_429(self):
        assert error_status(MonitorOverflowError("window full", dropped=3)) == 429

    def test_429_round_trips_from_wire(self):
        rebuilt = exception_from_wire(429, "window full")
        assert isinstance(rebuilt, MonitorOverflowError)
        rebuilt = exception_from_wire(
            500, "window full", error_type="MonitorOverflowError"
        )
        assert isinstance(rebuilt, MonitorOverflowError)


# ---------------------------------------------------------------- registry concurrency


class TestRegistryConcurrentWriters:
    def test_concurrent_auto_registration_allocates_distinct_versions(
        self, fitted_deepmorph, tmp_path
    ):
        registry = ArtifactRegistry(tmp_path / "registry")
        threads = 8
        barrier = threading.Barrier(threads)
        results, errors = [], []
        lock = threading.Lock()

        def register() -> None:
            barrier.wait()
            try:
                record = registry.register("shared", fitted_deepmorph)
                with lock:
                    results.append(record.version)
            except Exception as error:  # noqa: BLE001 - collected and asserted
                with lock:
                    errors.append(error)

        workers = [threading.Thread(target=register) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert sorted(results) == sorted(f"v{i}" for i in range(1, threads + 1))
        assert registry.versions("shared") == [f"v{i}" for i in range(1, threads + 1)]

    def test_explicit_duplicate_version_is_immutability_error(
        self, fitted_deepmorph, tmp_path
    ):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph, version="v1")
        with pytest.raises(ServeError, match="immutable"):
            registry.register("m", fitted_deepmorph, version="v1")

    def test_deleted_version_numbers_stay_burned(self, fitted_deepmorph, tmp_path):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        registry.register("m", fitted_deepmorph)
        registry.delete("m", "v2")
        record = registry.register("m", fitted_deepmorph)
        assert record.version == "v3"
