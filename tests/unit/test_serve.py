"""Unit tests for the serving subsystem: LRU cache, batching engine, registry, jobs."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ArtifactNotFoundError, DeadlineExceededError, ServeError
from repro.resilience import Deadline, bind_deadline, unbind_deadline
from repro.serve import (
    ArtifactRegistry,
    BatchingEngine,
    ExtractionRequest,
    LRUCache,
    MetricsRegistry,
)

NUM_LAYERS = 3
NUM_CLASSES = 4


# ---------------------------------------------------------------- LRU cache


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.stats()["evictions"] == 0

    def test_zero_maxsize_disables_storage(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


# ------------------------------------------------------------ batching engine


def _stub_extract_factory(calls):
    """An extract_fn standing in for the instrumented model.

    Encodes each input row's first element into the output so per-request
    splitting can be verified, and records every call for coalescing asserts.
    """

    def extract(model_key, groups):
        calls.append((model_key, [g.shape[0] for g in groups]))
        results = []
        for group in groups:
            n = group.shape[0]
            trajectories = np.zeros((n, NUM_LAYERS, NUM_CLASSES))
            finals = np.zeros((n, NUM_CLASSES))
            for i in range(n):
                trajectories[i] = float(group[i].flat[0])
                finals[i] = float(group[i].flat[0])
            results.append((trajectories, finals))
        return results

    return extract


def _held_stub():
    """A stub extract_fn whose first call blocks until ``release`` is set.

    Returns ``(extract_fn, batches, entered, release)``: ``batches`` lists
    each call's groups by their first element, and ``entered`` is set once
    the first call is running.
    """
    batches = []
    entered, release = threading.Event(), threading.Event()
    stub = _stub_extract_factory([])

    def extract(model_key, groups):
        batches.append([float(g.flat[0]) for g in groups])
        if len(batches) == 1:
            entered.set()
            release.wait(timeout=5)
        return stub(model_key, groups)

    return extract, batches, entered, release


class TestBatchingEngine:
    def test_process_batch_coalesces_requests_into_one_extraction(self):
        calls = []
        engine = BatchingEngine(_stub_extract_factory(calls))
        rng = np.random.default_rng(2)
        req_a = ExtractionRequest("m@v1", rng.random((3, 2)) + 1)
        req_b = ExtractionRequest("m@v1", rng.random((5, 2)) + 10)
        # A gathered batch goes through ONE extraction call for both requests.
        engine.process_batch([req_a, req_b])
        assert len(calls) == 1
        model_key, group_sizes = calls[0]
        assert model_key == "m@v1"
        assert sum(group_sizes) == 8
        assert req_a.future.result(timeout=1)[0].shape[0] == 3
        assert req_b.future.result(timeout=1)[0].shape[0] == 5

    def test_results_split_back_per_request(self):
        calls = []
        engine = BatchingEngine(_stub_extract_factory(calls))
        a = np.full((2, 3), 7.0)
        b = np.full((4, 3), 9.0)
        ra = engine.submit("m@v1", a)
        rb = engine.submit("m@v1", b)
        traj_a, final_a = ra.future.result(timeout=1)
        traj_b, final_b = rb.future.result(timeout=1)
        assert traj_a.shape == (2, NUM_LAYERS, NUM_CLASSES)
        assert traj_b.shape == (4, NUM_LAYERS, NUM_CLASSES)
        assert np.all(traj_a == 7.0) and np.all(final_a == 7.0)
        assert np.all(traj_b == 9.0) and np.all(final_b == 9.0)

    def test_requests_for_different_models_are_not_mixed(self):
        calls = []
        engine = BatchingEngine(_stub_extract_factory(calls))
        ra = ExtractionRequest("m@v1", np.full((2, 2), 1.0))
        rb = ExtractionRequest("other@v3", np.full((2, 2), 2.0))
        engine.process_batch([ra, rb])
        assert sorted(key for key, _ in calls) == ["m@v1", "other@v3"]

    def test_each_model_group_is_one_extraction_call_in_submission_order(self):
        calls = []
        engine = BatchingEngine(_stub_extract_factory(calls))
        requests = [
            ExtractionRequest("m@v1", np.full((2, 2), 1.0)),
            ExtractionRequest("other@v3", np.full((1, 2), 2.0)),
            ExtractionRequest("m@v1", np.zeros((0, 2))),
            ExtractionRequest("m@v1", np.full((3, 2), 3.0)),
        ]
        engine.process_batch(requests)
        # Zero-row requests travel in their group's call like any other.
        assert calls == [("m@v1", [2, 0, 3]), ("other@v3", [1])]
        for request, value in zip(requests, (1.0, 2.0, None, 3.0)):
            trajectories, finals = request.future.result(timeout=1)
            assert trajectories.shape == (request.num_cases, NUM_LAYERS, NUM_CLASSES)
            assert finals.shape == (request.num_cases, NUM_CLASSES)
            if value is not None:
                assert np.all(trajectories == value) and np.all(finals == value)
        assert engine.stats()["extraction_calls"] == 2

    def test_duplicate_rows_in_one_batch_are_each_extracted(self):
        calls = []
        engine = BatchingEngine(_stub_extract_factory(calls))
        row = np.full((1, 2), 5.0)
        requests = [ExtractionRequest("m@v1", row.copy()) for _ in range(4)]
        engine.process_batch(requests)
        assert calls == [("m@v1", [1, 1, 1, 1])]
        for request in requests:
            trajectories, finals = request.future.result(timeout=1)
            assert np.all(trajectories == 5.0) and np.all(finals == 5.0)
        assert engine.stats()["cases_extracted"] == 4

    def test_repeated_request_is_extracted_again(self):
        calls = []
        engine = BatchingEngine(_stub_extract_factory(calls))
        inputs = np.random.default_rng(3).random((6, 2))
        first = engine.extract("m@v1", inputs)
        second = engine.extract("m@v1", inputs)
        assert calls == [("m@v1", [6]), ("m@v1", [6])]
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        assert engine.stats()["cases_extracted"] == 12

    def test_every_requested_case_is_extracted(self):
        engine = BatchingEngine(_stub_extract_factory([]))
        rng = np.random.default_rng(4)
        seen = rng.random((3, 2))
        engine.extract("m@v1", seen)
        engine.extract("m@v1", np.concatenate([seen, rng.random((2, 2))]))
        engine.process_batch([
            ExtractionRequest("m@v1", seen),
            ExtractionRequest("n@v1", np.zeros((0, 2))),
        ])
        stats = engine.stats()
        assert stats["cases_requested"] == stats["cases_extracted"] == 11
        assert (stats["requests"], stats["batches"], stats["extraction_calls"]) == (4, 3, 4)

    def test_monitor_observes_every_extracted_request(self):
        class RecordingMonitor:
            def __init__(self):
                self.observed = []

            def observe_extracted(self, model_key, trajectories, final_probs):
                self.observed.append((model_key, trajectories.shape[0], final_probs.shape[0]))

        monitor = RecordingMonitor()
        engine = BatchingEngine(_stub_extract_factory([]), monitor=monitor)
        inputs = np.random.default_rng(6).random((3, 2))
        engine.extract("m@v1", inputs)
        engine.extract("m@v1", inputs)
        engine.process_batch([
            ExtractionRequest("m@v1", inputs[:1]),
            ExtractionRequest("n@v2", inputs),
        ])
        assert monitor.observed == [
            ("m@v1", 3, 3), ("m@v1", 3, 3), ("m@v1", 1, 1), ("n@v2", 3, 3),
        ]

    def test_requests_queued_during_an_extraction_form_the_next_batch(self):
        held, batches, entered, release = _held_stub()
        engine = BatchingEngine(held, max_batch_cases=5).start()
        try:
            first = engine.submit("m@v1", np.full((2, 2), 0.0))
            assert entered.wait(timeout=5)
            queued = [engine.submit("m@v1", np.full((2, 2), float(i))) for i in (1, 2, 3, 4)]
            release.set()
            results = [r.future.result(timeout=5) for r in [first] + queued]
        finally:
            release.set()
            engine.stop()
        # The first request went out alone; the four that queued behind it
        # coalesce, cut by the soft cap after the request that reaches it
        # (2 + 2 + 2 >= 5 cases).
        assert batches == [[0.0], [1.0, 2.0, 3.0], [4.0]]
        for value, (trajectories, _) in enumerate(results):
            assert trajectories.shape == (2, NUM_LAYERS, NUM_CLASSES)
            assert np.all(trajectories == float(value))

    def test_idle_engine_extracts_a_lone_request_at_once(self):
        entered_at = []
        stub = _stub_extract_factory([])

        def timed(model_key, groups):
            entered_at.append(time.perf_counter())
            return stub(model_key, groups)

        engine = BatchingEngine(timed).start()
        delays = []
        try:
            for i in range(20):
                submitted = time.perf_counter()
                engine.submit("m@v1", np.full((1, 2), float(i))).future.result(timeout=5)
                delays.append(entered_at[-1] - submitted)
        finally:
            engine.stop()
        assert float(np.median(delays)) < 0.0025, delays

    def test_queue_wait_recorded_once_per_resolved_request(self):
        from repro.serve.metrics import MetricsRegistry

        hold = 0.05
        metrics = MetricsRegistry()
        held, _, entered, release = _held_stub()
        engine = BatchingEngine(held, metrics=metrics).start()
        try:
            first = engine.submit("m@v1", np.full((1, 2), 0.0))
            assert entered.wait(timeout=5)
            queued = [engine.submit("m@v1", np.full((1, 2), float(i))) for i in (1, 2)]
            time.sleep(hold)
            release.set()
            for request in [first] + queued:
                request.future.result(timeout=5)
        finally:
            release.set()
            engine.stop()
        waits = metrics.as_dict()["engine.queue_wait_seconds"]
        assert waits["count"] == 3
        assert waits["max"] >= hold

    def test_empty_request_has_the_extractor_shapes(self, fitted_deepmorph):
        from repro.core import FootprintExtractor

        extractor = FootprintExtractor(fitted_deepmorph.instrumented)
        engine = BatchingEngine(
            lambda model_key, groups: extractor.extract_coalesced(groups)
        )
        shape = fitted_deepmorph.model.input_shape
        layers = fitted_deepmorph.instrumented.num_layers
        classes = fitted_deepmorph.model.num_classes
        [(trajectories, finals)] = extractor.extract_coalesced([np.zeros((0,) + shape)])
        assert (trajectories.shape, finals.shape) == ((0, layers, classes), (0, classes))

        trajectories, finals = engine.extract("m@v1", np.zeros((0,) + shape))
        assert (trajectories.shape, finals.shape) == ((0, layers, classes), (0, classes))
        # Co-batched with a non-empty request, each keeps its own rows.
        empty = ExtractionRequest("m@v1", np.zeros((0,) + shape))
        full = ExtractionRequest("m@v1", np.random.default_rng(5).random((3,) + shape))
        engine.process_batch([empty, full])
        assert empty.future.result(timeout=1)[0].shape == (0, layers, classes)
        trajectories, finals = full.future.result(timeout=1)
        assert (trajectories.shape, finals.shape) == ((3, layers, classes), (3, classes))

    def test_extract_fn_failure_fails_the_waiting_future(self):
        def broken(model_key, groups):
            raise RuntimeError("model exploded")

        engine = BatchingEngine(broken)
        request = engine.submit("m@v1", np.ones((1, 2)))
        with pytest.raises(RuntimeError, match="model exploded"):
            request.future.result(timeout=1)

    def test_request_expired_in_the_queue_is_refused_without_extraction(self):
        calls = []
        metrics = MetricsRegistry()
        engine = BatchingEngine(_stub_extract_factory(calls), metrics=metrics)
        expired = ExtractionRequest("m@v1", np.ones((2, 2)), deadline=Deadline.after(-1.0))
        live = ExtractionRequest("m@v1", np.full((3, 2), 5.0), deadline=Deadline.after(60.0))
        engine.process_batch([expired, live])
        with pytest.raises(DeadlineExceededError, match="queued"):
            expired.future.result(timeout=1)
        assert live.future.result(timeout=1)[0].shape[0] == 3
        assert calls == [("m@v1", [3])]  # the co-batched live request alone
        assert engine.stats()["requests_expired"] == 1
        assert metrics.as_dict()["engine.deadline_expired_total"]["value"] == 1

    def test_stop_fails_queued_requests(self):
        engine = BatchingEngine(_stub_extract_factory([]))
        engine.start()
        engine.stop()
        assert not engine.is_running

    def test_invalid_knobs_rejected(self):
        fn = _stub_extract_factory([])
        with pytest.raises(ServeError):
            BatchingEngine(fn, max_batch_cases=0)


# ------------------------------------------------------------------ registry


class TestArtifactRegistry:
    def test_register_load_roundtrip_preserves_diagnosis(self, tmp_path, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        registry = ArtifactRegistry(tmp_path / "registry")
        record = registry.register("tiny", fitted_deepmorph, metadata={"note": "unit"})
        assert record.key == "tiny@v1"
        assert record.metadata == {"note": "unit"}
        assert record.model_kind == fitted_deepmorph.model.kind

        reloaded = registry.load("tiny")
        direct = fitted_deepmorph.diagnose_dataset(test)
        roundtrip = reloaded.diagnose_dataset(test)
        assert direct.ratios == roundtrip.ratios
        assert direct.num_cases == roundtrip.num_cases

    def test_versions_monotonic_and_latest_resolution(self, tmp_path, fitted_deepmorph):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        registry.register("m", fitted_deepmorph)
        assert registry.versions("m") == ["v1", "v2"]
        assert registry.resolve("m") == "v2"
        assert registry.resolve("m", "v1") == "v1"
        assert registry.models() == ["m"]

    def test_versions_are_immutable(self, tmp_path, fitted_deepmorph):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph, version="v3")
        with pytest.raises(ServeError, match="immutable"):
            registry.register("m", fitted_deepmorph, version="v3")

    def test_unknown_name_and_version_raise(self, tmp_path, fitted_deepmorph):
        registry = ArtifactRegistry(tmp_path / "registry")
        with pytest.raises(ArtifactNotFoundError):
            registry.versions("ghost")
        registry.register("m", fitted_deepmorph)
        with pytest.raises(ArtifactNotFoundError):
            registry.resolve("m", "v99")

    def test_invalid_names_rejected(self, tmp_path, fitted_deepmorph):
        registry = ArtifactRegistry(tmp_path / "registry")
        for bad in ("", "../escape", "a/b", ".hidden", "a" * 256):
            with pytest.raises(ServeError):
                registry.register(bad, fitted_deepmorph)
        with pytest.raises(ServeError, match="invalid artifact name"):
            registry.resolve("a" * 5000)

    def test_delete_version_and_model(self, tmp_path, fitted_deepmorph):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        registry.register("m", fitted_deepmorph)
        registry.delete("m", "v2")
        assert registry.versions("m") == ["v1"]
        registry.delete("m")
        assert registry.models() == []
        with pytest.raises(ArtifactNotFoundError):
            registry.delete("m")

    def test_deleted_version_numbers_are_never_reused(self, tmp_path, fitted_deepmorph):
        # Serving caches key loaded artifacts by name@version, so a deleted
        # number must stay burned or a stale model would be served.
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        registry.register("m", fitted_deepmorph)
        registry.delete("m", "v2")
        record = registry.register("m", fitted_deepmorph)
        assert record.version == "v3"
        registry.delete("m")  # whole-model delete burns the numbers too
        record = registry.register("m", fitted_deepmorph)
        assert record.version == "v4"


# ------------------------------------------------------------------- service


class TestServiceEviction:
    def test_unregister_evicts_resident_model(self, tmp_path, fitted_deepmorph, tiny_splits):
        from repro.serve import DiagnosisService

        _, test = tiny_splits
        inputs, labels = test.arrays()
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        with DiagnosisService(registry) as service:
            service.diagnose("m", inputs, labels)
            assert service.loaded_models() == ["m@v1"]
            service.unregister("m", "v1")
            assert service.loaded_models() == []
            with pytest.raises(ArtifactNotFoundError):
                service.diagnose("m", inputs, labels, version="v1")

    def test_version_registered_again_after_unregister_serves_the_new_artifact(
        self, tmp_path, fitted_deepmorph, trained_tiny_model, tiny_splits
    ):
        from repro.core import DeepMorph
        from repro.serve import DiagnosisService

        train, test = tiny_splits
        inputs, labels = test.arrays()
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("a", fitted_deepmorph)
        with DiagnosisService(registry) as service:
            before = service.diagnose("a", inputs, labels, version="v1")
            service.unregister("a")
            refit = DeepMorph(probe_epochs=2, rng=7).fit(trained_tiny_model, train)
            registry.register("a", refit, version="v1")
            report = service.diagnose("a", inputs, labels, version="v1")
        with DiagnosisService(registry) as fresh:
            expected = fresh.diagnose("a", inputs, labels, version="v1")
        assert report.as_dict() == expected.as_dict()
        assert report.ratios != before.ratios


class TestServiceExtraction:
    def test_repeat_diagnosis_reaches_the_model_again(
        self, tmp_path, fitted_deepmorph, tiny_splits
    ):
        from repro.serve import DiagnosisService

        _, test = tiny_splits
        inputs, labels = test.arrays()
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        with DiagnosisService(registry) as service:
            first = service.diagnose("m", inputs, labels)
            second = service.diagnose("m", inputs, labels)
            metrics = service.metrics.as_dict()
            stats = service.engine.stats()
        assert second.as_dict() == first.as_dict()
        assert metrics["engine.cases_extracted_total"]["value"] == 2 * len(inputs)
        assert stats["cases_extracted"] == stats["cases_requested"] == 2 * len(inputs)
        assert not [name for name in metrics if name.startswith("cache.")]

    def test_report_depends_only_on_the_artifact_and_the_inputs(
        self, tmp_path, fitted_deepmorph, tiny_splits
    ):
        """Rows seen before, inside a larger batch, are extracted alone again."""
        from repro.serve import DiagnosisService

        _, test = tiny_splits
        inputs, labels = test.arrays()
        noise = np.random.default_rng(8).standard_normal(inputs.shape)
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        with DiagnosisService(registry) as service:
            service.diagnose(
                "m",
                np.concatenate([noise, inputs]),
                np.concatenate([np.roll(labels, 1), labels]),
            )
            report = service.diagnose("m", inputs, labels)
        with DiagnosisService(registry) as fresh:
            expected = fresh.diagnose("m", inputs, labels)
        assert report.as_dict() == expected.as_dict()


class TestServiceDeadline:
    def test_deadline_caps_the_extraction_wait(
        self, tmp_path, fitted_deepmorph, tiny_splits, monkeypatch
    ):
        from repro.serve import DiagnosisService

        _, test = tiny_splits
        inputs, labels = test.arrays()
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        waits = []

        def stalled_extract(model_key, rows, timeout=None):
            waits.append(timeout)
            time.sleep(min(timeout, 0.5))
            raise TimeoutError("extraction did not finish")

        with DiagnosisService(registry) as service:
            monkeypatch.setattr(service.engine, "extract", stalled_extract)
            # Without a deadline the wait is the request's own timeout, and
            # running out of it is the engine's fault.
            with pytest.raises(TimeoutError):
                service.diagnose("m", inputs, labels, timeout=0.01)
            assert waits == [0.01]
            # A caller's 50 ms budget caps a 30 s wait, and running out of it
            # is the caller's deadline: the typed 504 error.
            token = bind_deadline(Deadline.after(0.05))
            try:
                with pytest.raises(DeadlineExceededError, match="extraction wait"):
                    service.diagnose("m", inputs, labels, timeout=30.0)
            finally:
                unbind_deadline(token)
        assert 0.0 < waits[1] <= 0.05


class TestServiceStats:
    def test_stats_have_no_job_or_worker_fields(self, tmp_path, fitted_deepmorph):
        from repro.serve import DiagnosisService

        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        with DiagnosisService(registry) as service:
            stats = service.stats()
        # Diagnosis is synchronous only: no job store, no worker pool.
        assert set(stats) == {
            "engine", "loaded_models", "registered_models", "inference_dtype", "monitor",
        }


class TestServiceInferenceDtype:
    def test_override_forces_loaded_models_to_float64(
        self, tmp_path, fitted_deepmorph, tiny_splits
    ):
        from repro.serve import DiagnosisService

        _, test = tiny_splits
        inputs, labels = test.arrays()
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        with DiagnosisService(
            registry, inference_dtype="float64"
        ) as service:
            report = service.diagnose("m", inputs, labels)
            assert report.num_cases > 0
            entry = service._entry(service.resolve_key("m"))
            assert entry.morph.instrumented.inference_dtype == np.float64
            assert service.stats()["inference_dtype"] == "float64"

    def test_default_keeps_artifact_policy(self, tmp_path, fitted_deepmorph):
        from repro.serve import DiagnosisService

        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("m", fitted_deepmorph)
        with DiagnosisService(registry) as service:
            entry = service._entry(service.resolve_key("m"))
            # Artifacts record their own policy (float32 by default).
            assert entry.morph.instrumented.inference_dtype == np.float32
            assert service.stats()["inference_dtype"] == "per-model"

    def test_legacy_artifact_without_dtype_loads_as_float64(
        self, tmp_path, fitted_deepmorph
    ):
        # Artifacts saved before the dtype policy existed were validated
        # under float64 extraction; upgrading must not silently change what
        # they serve.
        import json

        from repro.serialize import load_deepmorph, save_deepmorph

        path = save_deepmorph(fitted_deepmorph, tmp_path / "legacy.npz")
        with np.load(path, allow_pickle=False) as payload:
            config = json.loads(str(payload["__config__"]))
            arrays = {key: payload[key] for key in payload.files if key != "__config__"}
        del config["instrumented"]["inference_dtype"]
        arrays["__config__"] = np.array(json.dumps(config))
        np.savez_compressed(path, **arrays)

        reloaded = load_deepmorph(path)
        assert reloaded.instrumented.inference_dtype == np.float64
        # The facade stays in lockstep so a refit keeps the artifact's policy.
        assert reloaded.inference_dtype == "float64"
