"""Three-way backend parity and behavior tests for the repro.api facade.

The acceptance bar of the API redesign: :class:`LocalDiagnoser`,
:class:`ServiceDiagnoser`, and :class:`RemoteDiagnoser` must return
**bitwise-identical** ``v1`` reports for the same artifact and inputs, while
the pre-facade entry points (``DeepMorph.diagnose``,
``DiagnosisService.diagnose``) stay green as shims.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.api import diagnoser as diagnoser_module
from repro.core import patterns as patterns_module
from repro.api import (
    DiagnoserConfig,
    DiagnosisRequest,
    LocalDiagnoser,
    RemoteDiagnoser,
    ServiceDiagnoser,
)
from repro.exceptions import (
    ArtifactNotFoundError,
    ConfigurationError,
    NoFaultyCasesError,
    RemoteTransportError,
    SchemaVersionError,
    ServiceSaturatedError,
)
from repro.serve import ArtifactRegistry, DiagnosisGateway, DiagnosisService, ReplicaPool


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("api_registry")
    registry = ArtifactRegistry(root)
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "api"})
    return root


@pytest.fixture(scope="module")
def local_diagnoser(registry_dir):
    return LocalDiagnoser.from_registry(registry_dir, "tiny")


@pytest.fixture(scope="module")
def service_diagnoser(registry_dir):
    config = DiagnoserConfig()
    diagnoser = ServiceDiagnoser.from_registry(registry_dir, config=config)
    yield diagnoser
    diagnoser.close()


@pytest.fixture(scope="module")
def pool(registry_dir):
    pool = ReplicaPool.from_registry(registry_dir, num_replicas=1)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def gateway(pool):
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
    yield gateway
    gateway.shutdown()


@pytest.fixture(scope="module")
def remote_diagnoser(gateway):
    diagnoser = RemoteDiagnoser(gateway.url, default_model="tiny")
    yield diagnoser
    diagnoser.close()


@pytest.fixture(scope="module")
def binary_remote_diagnoser(gateway):
    diagnoser = RemoteDiagnoser(
        gateway.url,
        config=DiagnoserConfig(wire_codec="binary"),
        default_model="tiny",
    )
    yield diagnoser
    diagnoser.close()


class TestThreeWayParity:
    def test_bitwise_identical_reports_across_backends(
        self, local_diagnoser, service_diagnoser, remote_diagnoser, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()

        local = local_diagnoser.diagnose_arrays(inputs, labels)
        service = service_diagnoser.diagnose_arrays(inputs, labels, model="tiny")
        remote = remote_diagnoser.diagnose_arrays(inputs.tolist(), labels.tolist())

        # Bitwise equality of the full v1 documents: ratios, counts, context,
        # metadata — no tolerance.
        assert local.to_dict() == service.to_dict()
        assert service.to_dict() == remote.to_dict()
        assert local.num_cases >= 1
        assert local.metadata["model"] == "tiny"
        assert local.metadata["version"] == "v1"
        assert local.metadata["num_production_cases"] == len(test)
        assert abs(sum(local.ratios.values()) - 1.0) < 1e-12

    def test_parity_with_pinned_version_and_metadata(
        self, local_diagnoser, service_diagnoser, remote_diagnoser, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        kwargs = dict(version="v1", metadata={"run": "parity"})

        local = local_diagnoser.diagnose_arrays(inputs, labels, **kwargs)
        service = service_diagnoser.diagnose_arrays(inputs, labels, model="tiny", **kwargs)
        remote = remote_diagnoser.diagnose_arrays(inputs.tolist(), labels.tolist(), **kwargs)

        assert local.to_dict() == service.to_dict() == remote.to_dict()
        assert local.metadata["run"] == "parity"

    def test_rows_seen_in_a_wider_batch_are_extracted_alone_again(
        self, local_diagnoser, service_diagnoser, remote_diagnoser, tiny_splits
    ):
        """Earlier traffic that carried the same rows does not leak into a report."""
        _, test = tiny_splits
        inputs, labels = test.arrays()
        noise = np.random.default_rng(9).standard_normal(inputs.shape)
        wider_inputs = np.concatenate([noise, inputs])
        wider_labels = np.concatenate([np.roll(labels, 1), labels])
        service_diagnoser.diagnose_arrays(wider_inputs, wider_labels, model="tiny")
        remote_diagnoser.diagnose_arrays(wider_inputs.tolist(), wider_labels.tolist())
        # Metadata no earlier test sends, so the gateway's response cache misses.
        kwargs = dict(metadata={"run": "after-a-wider-batch"})

        local = local_diagnoser.diagnose_arrays(inputs, labels, **kwargs)
        service = service_diagnoser.diagnose_arrays(inputs, labels, model="tiny", **kwargs)
        remote = remote_diagnoser.diagnose_arrays(inputs.tolist(), labels.tolist(), **kwargs)

        assert local.to_dict() == service.to_dict() == remote.to_dict()

    def test_service_diagnoser_over_a_replica_pool(self, local_diagnoser, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        over_pool = ServiceDiagnoser(pool, default_model="tiny")
        report = over_pool.diagnose_arrays(inputs, labels, version="v1")
        over_pool.close()  # not owned: the pool stays open
        assert report.to_dict() == local_diagnoser.diagnose_arrays(
            inputs, labels, version="v1"
        ).to_dict()
        assert pool.diagnose("tiny", inputs, labels).as_dict() == report.to_dict()

    def test_old_entry_points_agree_with_facade(
        self, fitted_deepmorph, local_diagnoser, registry_dir, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()

        facade = local_diagnoser.diagnose_arrays(inputs, labels)

        # Shim 1: DeepMorph.diagnose (the engine) — same evidence, same ratios.
        direct = fitted_deepmorph.diagnose(inputs, labels)
        assert direct.num_cases == facade.num_cases
        for defect, ratio in direct.ratios.items():
            assert facade.ratios[defect.value] == pytest.approx(ratio, abs=1e-9)

        # Shim 2: DiagnosisService.diagnose — the wire document IS the
        # library document.
        service = DiagnosisService(registry_dir)
        try:
            wire = service.diagnose("tiny", inputs, labels).as_dict()
        finally:
            service.close()
        assert wire == facade.to_dict()

    def test_diagnose_request_object_round_trip(self, local_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = DiagnosisRequest(model="tiny", inputs=inputs, labels=labels)
        report = local_diagnoser.diagnose(request)
        rebuilt = DiagnosisRequest.from_dict(request.to_dict())
        assert local_diagnoser.diagnose(rebuilt).to_dict() == report.to_dict()


class TestShardedLocalDiagnosis:
    """A request of several extraction chunks runs as chunk-aligned row shards.

    At ``extraction_batch_size=8`` the 40-row tiny split is 5 chunks, and the
    shard count is ``min(usable cores, chunks)``; the tests set the core
    count, so 4 shards run even on a 2-core machine.
    """

    CHUNK = 8

    @pytest.fixture(scope="class")
    def chunked_local(self, registry_dir):
        config = DiagnoserConfig(extraction_batch_size=self.CHUNK)
        return LocalDiagnoser.from_registry(registry_dir, "tiny", config=config)

    @pytest.fixture(scope="class")
    def chunked_service(self, registry_dir):
        config = DiagnoserConfig(extraction_batch_size=self.CHUNK)
        diagnoser = ServiceDiagnoser.from_registry(registry_dir, config=config)
        yield diagnoser
        diagnoser.close()

    @staticmethod
    def report_on(monkeypatch, diagnoser, cores, inputs, labels) -> dict:
        monkeypatch.setattr(diagnoser_module, "_usable_cores", lambda: cores)
        return diagnoser.diagnose_arrays(inputs, labels).to_dict()

    @staticmethod
    def report_on_four_cores_switching_often(monkeypatch, diagnoser, inputs, labels) -> dict:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return TestShardedLocalDiagnosis.report_on(monkeypatch, diagnoser, 4, inputs, labels)
        finally:
            sys.setswitchinterval(interval)

    def test_the_core_count_never_changes_a_report(
        self, monkeypatch, chunked_local, chunked_service, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        one = self.report_on(monkeypatch, chunked_local, 1, inputs, labels)
        two = self.report_on(monkeypatch, chunked_local, 2, inputs, labels)
        four = self.report_on_four_cores_switching_often(
            monkeypatch, chunked_local, inputs, labels
        )
        served = chunked_service.diagnose_arrays(inputs, labels, model="tiny").to_dict()
        assert one == two == four == served
        assert one["num_cases"] >= 1

    def test_a_large_request_at_the_default_chunk(
        self, monkeypatch, local_diagnoser, tiny_splits
    ):
        """2560 rows, 20 chunks: whole-request probe heads would move the shards' bits."""
        _, test = tiny_splits
        inputs, labels = test.arrays()
        inputs = np.concatenate([inputs + 0.01 * shift for shift in range(64)])
        labels = np.tile(labels, 64)
        one = self.report_on(monkeypatch, local_diagnoser, 1, inputs, labels)
        assert one == self.report_on(monkeypatch, local_diagnoser, 2, inputs, labels)
        assert one == self.report_on(monkeypatch, local_diagnoser, 3, inputs, labels)

    def test_shards_are_contiguous_and_chunk_aligned(
        self, monkeypatch, chunked_local, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        seen = []
        original = chunked_local._extractor.extract_coalesced

        def spy(groups):
            seen.append((threading.get_ident(), groups[0]))
            return original(groups)

        monkeypatch.setattr(chunked_local._extractor, "extract_coalesced", spy)
        self.report_on(monkeypatch, chunked_local, 4, inputs, labels)
        # Five chunks on four cores: the last shard takes the extra chunk.
        assert len(seen) == 4
        for start, stop in [(0, 8), (8, 16), (16, 24), (24, 40)]:
            assert any(np.array_equal(rows, inputs[start:stop]) for _, rows in seen)
        # The calling thread runs the first shard, pool threads the others.
        on_caller = [rows for thread, rows in seen if thread == threading.get_ident()]
        assert len(on_caller) == 1 and np.array_equal(on_caller[0], inputs[:8])

    def test_a_model_left_in_training_mode(self, monkeypatch, chunked_local, tiny_splits):
        """Shards toggling the mode themselves would race; repeat to give the race a chance."""
        _, test = tiny_splits
        inputs, labels = test.arrays()
        expected = self.report_on(monkeypatch, chunked_local, 1, inputs, labels)
        model = chunked_local.morph.model
        model.train()
        try:
            for _ in range(10):
                report = self.report_on_four_cores_switching_often(
                    monkeypatch, chunked_local, inputs, labels
                )
                assert model.training is True
                assert report == expected
        finally:
            model.eval()

    def test_the_pattern_index_is_built_once_before_the_fan_out(
        self, monkeypatch, chunked_local, tiny_splits
    ):
        """The index is built lazily (check, then build); shards must not each build it."""
        _, test = tiny_splits
        inputs, labels = test.arrays()
        builds = []
        original = patterns_module._PatternIndex

        def counted(*args, **kwargs):
            builds.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(patterns_module, "_PatternIndex", counted)
        library = chunked_local.morph.patterns
        for _ in range(5):
            library._batch_cache = None
            builds.clear()
            self.report_on_four_cores_switching_often(monkeypatch, chunked_local, inputs, labels)
            assert builds == [threading.get_ident()]

    def test_no_faulty_case_in_any_shard(self, monkeypatch, chunked_local, tiny_splits):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        predictions = chunked_local.morph.model.predict(inputs)
        with pytest.raises(NoFaultyCasesError):
            self.report_on(monkeypatch, chunked_local, 4, inputs, predictions)

    @pytest.mark.parametrize("failing", [slice(0, 8), slice(24, 40)], ids=["caller", "pool"])
    def test_a_failing_shard_raises_once_all_shards_are_done(
        self, monkeypatch, chunked_local, tiny_splits, failing
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        finished = []
        original = chunked_local._extractor.extract_coalesced

        def fail_on_one_shard(groups):
            if np.array_equal(groups[0], inputs[failing]):
                raise RuntimeError("shard failed")
            result = original(groups)
            finished.append(len(groups[0]))
            return result

        monkeypatch.setattr(chunked_local._extractor, "extract_coalesced", fail_on_one_shard)
        with pytest.raises(RuntimeError, match="shard failed"):
            self.report_on(monkeypatch, chunked_local, 4, inputs, labels)
        assert len(finished) == 3
        assert chunked_local.morph.model.training is False


class TestWireCodecParity:
    """The parity bar extends across wire codecs: JSON and binary clients
    must receive bitwise-identical ``v1`` reports from the same gateway."""

    def test_binary_remote_is_bitwise_identical(
        self, local_diagnoser, remote_diagnoser, binary_remote_diagnoser, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()

        local = local_diagnoser.diagnose_arrays(inputs, labels)
        via_json = remote_diagnoser.diagnose_arrays(inputs.tolist(), labels.tolist())
        via_binary = binary_remote_diagnoser.diagnose_arrays(inputs, labels)

        assert local.to_dict() == via_json.to_dict() == via_binary.to_dict()
        assert binary_remote_diagnoser.codec.name == "binary"

    def test_binary_remote_maps_typed_errors(self, binary_remote_diagnoser, tiny_splits):
        # Errors are always JSON on the wire; a binary client still rebuilds
        # the typed exception.
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(ArtifactNotFoundError):
            binary_remote_diagnoser.diagnose_arrays(inputs, labels, model="ghost")
        with pytest.raises(ConfigurationError):
            binary_remote_diagnoser.diagnose_arrays(inputs[:2], labels[:1])

    def test_request_id_metadata_rides_both_codecs(
        self, remote_diagnoser, binary_remote_diagnoser, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        for client in (remote_diagnoser, binary_remote_diagnoser):
            report = client.diagnose_arrays(
                inputs, labels, metadata={"request_id": f"rid-{client.codec.name}"}
            )
            assert report.request_id == f"rid-{client.codec.name}"

    def test_trace_headers_propagate_under_both_codecs(self, gateway, tiny_splits, tmp_path):
        from repro import obs

        _, test = tiny_splits
        inputs, labels = test.arrays()
        obs.configure(enabled=True, jsonl_path=str(tmp_path / "spans.jsonl"), reset=True)
        try:
            for codec in ("json", "binary"):
                client = RemoteDiagnoser(
                    gateway.url,
                    config=DiagnoserConfig(wire_codec=codec),
                    default_model="tiny",
                )
                try:
                    report = client.diagnose_arrays(
                        inputs, labels, metadata={"probe": f"trace-{codec}"}
                    )
                finally:
                    client.close()
                # With tracing on, the client stamps a request id that rides
                # X-Request-ID to the server and returns in the report.
                assert report.request_id is not None
        finally:
            obs.configure(enabled=False, reset=True)

    def test_other_codec_is_a_cache_miss_with_an_equal_report(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        json_client = RemoteDiagnoser(gateway.url, default_model="tiny")
        binary_client = RemoteDiagnoser(
            gateway.url, config=DiagnoserConfig(wire_codec="binary"), default_model="tiny"
        )
        try:
            metadata = {"probe": "cross-codec-cache"}
            # JSON warms the cache; the binary form of the same request is
            # another body, so it runs the full pipeline and must agree.
            warm = json_client.diagnose_arrays(
                inputs.tolist(), labels.tolist(), metadata=metadata
            )
            fresh = binary_client.diagnose_arrays(inputs, labels, metadata=metadata)
            assert warm.cache_state == "miss"
            assert fresh.cache_state == "miss"
            assert warm.to_dict() == fresh.to_dict()
            # The byte-identical binary repeat is answered from its own entry.
            again = binary_client.diagnose_arrays(inputs, labels, metadata=metadata)
            assert again.cache_state == "hit"
            assert again.to_dict() == warm.to_dict()
        finally:
            json_client.close()
            binary_client.close()
            gateway.shutdown()


class TestDiagnoseMany:
    def _requests(self, tiny_splits, count):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        return [
            DiagnosisRequest(
                model="tiny", inputs=inputs, labels=labels, metadata={"batch": str(i)}
            )
            for i in range(count)
        ]

    def test_reports_match_sequential(
        self, remote_diagnoser, local_diagnoser, tiny_splits
    ):
        requests = self._requests(tiny_splits, 3)
        reports = remote_diagnoser.diagnose_many(requests)
        sequential = [local_diagnoser.diagnose(request) for request in requests]
        assert len(reports) == 3
        for got, expected, request in zip(reports, sequential, requests):
            assert got.to_dict() == expected.to_dict()
            assert got.metadata["batch"] == request.metadata["batch"]  # order kept

    def test_diagnose_many_under_binary_codec(self, binary_remote_diagnoser, tiny_splits):
        requests = self._requests(tiny_splits, 3)
        reports = binary_remote_diagnoser.diagnose_many(requests)
        assert [r.metadata["batch"] for r in reports] == ["0", "1", "2"]

    def test_single_request_falls_back_to_diagnose(self, remote_diagnoser, tiny_splits):
        requests = self._requests(tiny_splits, 1)
        reports = remote_diagnoser.diagnose_many(requests)
        assert len(reports) == 1
        assert reports[0].to_dict() == remote_diagnoser.diagnose(requests[0]).to_dict()
        assert remote_diagnoser.diagnose_many([]) == []

    def test_mid_window_error_is_typed(self, remote_diagnoser, tiny_splits):
        requests = self._requests(tiny_splits, 3)
        requests[1] = DiagnosisRequest(
            model="ghost", inputs=requests[1].inputs, labels=requests[1].labels
        )
        with pytest.raises(ArtifactNotFoundError):
            remote_diagnoser.diagnose_many(requests)

    def test_base_backends_share_the_api(self, local_diagnoser, service_diagnoser, tiny_splits):
        requests = self._requests(tiny_splits, 2)
        local = local_diagnoser.diagnose_many(requests)
        service = service_diagnoser.diagnose_many(requests)
        assert [r.to_dict() for r in local] == [r.to_dict() for r in service]

    def test_transient_saturation_is_retried(self, gateway, pool, tiny_splits):
        # diagnose_many keeps diagnose's contract: a 503 is retried after the
        # (capped) Retry-After while the pool is saturated, then succeeds.
        requests = [
            DiagnosisRequest(
                model="tiny", inputs=request.inputs, labels=request.labels,
                metadata={"probe": "many-retry-clears", "batch": str(i)},
            )
            for i, request in enumerate(self._requests(tiny_splits, 2))
        ]
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(
                max_retries=6, retry_backoff_seconds=0.05, retry_after_cap_seconds=0.1
            ),
            default_model="tiny",
        )
        lease = pool.acquire()
        release_timer = threading.Timer(0.15, lease.release)
        extra = [pool.acquire() for _ in range(pool.max_inflight - 1)]
        release_timer.start()
        try:
            reports = client.diagnose_many(requests)
            assert [r.metadata["batch"] for r in reports] == ["0", "1"]
            assert all(r.num_cases >= 1 for r in reports)
        finally:
            release_timer.cancel()
            lease.release()
            for item in extra:
                item.release()
            client.close()


class TestStreamingDiagnosis:
    def test_diagnose_iter_yields_per_batch_reports(self, local_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        batch = 10
        reports = list(local_diagnoser.diagnose_iter(inputs, labels, batch_size=batch))
        assert reports, "expected at least one faulty batch"
        assert sum(r.metadata["num_production_cases"] for r in reports) <= len(test)
        assert all(r.metadata["num_production_cases"] <= batch for r in reports)
        # Streaming covers the same faulty population as one big diagnosis.
        total_cases = sum(r.num_cases for r in reports)
        whole = local_diagnoser.diagnose_arrays(inputs, labels)
        assert total_cases == whole.num_cases

    def test_diagnose_iter_accepts_a_dataset(self, local_diagnoser, tiny_splits):
        _, test = tiny_splits
        reports = list(local_diagnoser.diagnose_iter(test, batch_size=16))
        assert reports
        assert sum(r.num_cases for r in reports) >= 1

    def test_diagnose_iter_over_remote_backend(self, remote_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        reports = list(
            remote_diagnoser.diagnose_iter(inputs.tolist(), labels.tolist(), batch_size=16)
        )
        assert reports
        assert all(r.cache_state in ("hit", "miss", "off") for r in reports)

    def test_diagnose_iter_argument_validation(self, local_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(ConfigurationError):
            list(local_diagnoser.diagnose_iter(test, labels, batch_size=8))
        with pytest.raises(ConfigurationError):
            list(local_diagnoser.diagnose_iter(inputs, None, batch_size=8))
        with pytest.raises(ConfigurationError):
            list(local_diagnoser.diagnose_iter(inputs, labels, batch_size=0))
        for batch_size in (0, -1):
            with pytest.raises(ConfigurationError, match="batch_size"):
                list(local_diagnoser.diagnose_iter(test, batch_size=batch_size))


class TestBackendBehavior:
    def test_unknown_schema_version_rejected_everywhere(
        self, local_diagnoser, service_diagnoser, remote_diagnoser, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = DiagnosisRequest(model="tiny", inputs=inputs, labels=labels, schema="v99")
        for backend in (local_diagnoser, service_diagnoser, remote_diagnoser):
            with pytest.raises(SchemaVersionError):
                backend.diagnose(request)

    def test_local_identity_checks(self, local_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(ArtifactNotFoundError):
            local_diagnoser.diagnose_arrays(inputs, labels, model="ghost")
        with pytest.raises(ArtifactNotFoundError):
            local_diagnoser.diagnose_arrays(inputs, labels, version="v99")

    def test_remote_maps_errors_onto_typed_exceptions(self, remote_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(ArtifactNotFoundError):
            remote_diagnoser.diagnose_arrays(inputs.tolist(), labels.tolist(), model="ghost")
        with pytest.raises(ConfigurationError):
            # Labels/inputs length mismatch -> the shared validation's
            # ConfigurationError, rebuilt client-side from the wire document.
            remote_diagnoser.diagnose_arrays(inputs[:2].tolist(), labels[:1].tolist())
        from repro.exceptions import ShapeError

        with pytest.raises(ShapeError):
            remote_diagnoser.diagnose_arrays([[0.0] * 4], [0], model="tiny")

    def test_remote_maps_no_faulty_cases(self, remote_diagnoser, local_diagnoser, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        # Label every case with the model's own predictions: nothing is faulty.
        predictions = local_diagnoser.morph.model.predict(inputs)
        with pytest.raises(NoFaultyCasesError):
            remote_diagnoser.diagnose_arrays(inputs.tolist(), predictions.tolist())

    def test_remote_surfaces_response_cache_state(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        client = RemoteDiagnoser(gateway.url, default_model="tiny")
        try:
            payload = (inputs.tolist(), labels.tolist())
            first = client.diagnose_arrays(*payload, metadata={"probe": "cache-state"})
            second = client.diagnose_arrays(*payload, metadata={"probe": "cache-state"})
        finally:
            client.close()
        assert first.cache_state == "miss"
        assert second.cache_state == "hit"
        assert first.to_dict() == second.to_dict()

    def test_remote_saturation_raises_typed_error_when_retries_exhausted(
        self, gateway, pool, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(max_retries=0),
            default_model="tiny",
        )
        leases = [pool.acquire() for _ in range(pool.max_inflight)]
        try:
            with pytest.raises(ServiceSaturatedError) as excinfo:
                client.diagnose_arrays(
                    inputs.tolist(), labels.tolist(), metadata={"probe": "saturation"}
                )
            assert excinfo.value.retry_after >= 1.0
        finally:
            for lease in leases:
                lease.release()
            client.close()

    def test_remote_retries_after_saturation_clears(self, gateway, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(
                max_retries=3, retry_backoff_seconds=0.05, retry_after_cap_seconds=0.1
            ),
            default_model="tiny",
        )
        lease = pool.acquire()
        release_timer = __import__("threading").Timer(0.15, lease.release)
        # Saturate a 1-replica pool view only partially: hold capacity down to
        # the last slot, then free it while the client is backing off.
        extra = [pool.acquire() for _ in range(pool.max_inflight - 1)]
        release_timer.start()
        try:
            report = client.diagnose_arrays(
                inputs.tolist(), labels.tolist(), metadata={"probe": "retry-clears"}
            )
            assert report.num_cases >= 1
        finally:
            release_timer.cancel()
            lease.release()
            for item in extra:
                item.release()
            client.close()

    def test_remote_rejects_non_bare_base_urls(self):
        with pytest.raises(ConfigurationError):
            RemoteDiagnoser("https://host:1")  # https not spoken
        with pytest.raises(ConfigurationError):
            RemoteDiagnoser("http://host:1/prefix")  # path would be dropped
        with pytest.raises(ConfigurationError):
            RemoteDiagnoser("http://host:1/?q=1")

    def test_local_config_dtype_applies_on_both_construction_paths(
        self, registry_dir, fitted_deepmorph
    ):
        from repro.api import LocalDiagnoser

        config = DiagnoserConfig(inference_dtype="float64")
        loaded = LocalDiagnoser.from_registry(registry_dir, "tiny", config=config)
        assert np.dtype(loaded.morph.instrumented.inference_dtype) == np.float64
        registry = __import__("repro.serve", fromlist=["ArtifactRegistry"])
        wrapped = LocalDiagnoser(
            registry.ArtifactRegistry(registry_dir).load("tiny"), config=config
        )
        assert np.dtype(wrapped.morph.instrumented.inference_dtype) == np.float64

    def test_remote_replaces_a_pooled_connection_the_server_closed(self, pool):
        # The gateway closes the idle keep-alive connection after 0.2 s; the
        # next call sends again on a new connection without spending a retry.
        gateway = DiagnosisGateway(pool, port=0, idle_timeout=0.2).start()
        client = RemoteDiagnoser(gateway.url, config=DiagnoserConfig(max_retries=0))
        try:
            assert client.health()["status"] == "ok"
            time.sleep(0.5)
            assert client.health()["status"] == "ok"
            assert client.breaker_snapshot()["/health"]["state"] == "closed"
        finally:
            client.close()
            gateway.shutdown()

    def test_remote_transport_error_on_dead_server(self):
        client = RemoteDiagnoser(
            "http://127.0.0.1:9",  # discard port: nothing listens
            config=DiagnoserConfig(max_retries=1, retry_backoff_seconds=0.01),
        )
        with pytest.raises(RemoteTransportError):
            client.diagnose_arrays([[0.0]], [0], model="tiny")

    def test_remote_introspection_endpoints(self, remote_diagnoser):
        assert remote_diagnoser.health()["status"] == "ok"
        assert "tiny" in remote_diagnoser.health()["models"]
        assert any(m["name"] == "tiny" for m in remote_diagnoser.models()["models"])
        assert "pool" in remote_diagnoser.stats()
        assert "gateway" in remote_diagnoser.metrics()

    def test_service_diagnoser_over_replica_pool(self, pool, tiny_splits, local_diagnoser):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        diagnoser = ServiceDiagnoser(pool, default_model="tiny")
        report = diagnoser.diagnose_arrays(inputs, labels)
        assert report.to_dict() == local_diagnoser.diagnose_arrays(inputs, labels).to_dict()
        diagnoser.close()  # does not own the pool
        assert pool.acquire().release() is None  # pool still alive

    def test_context_managers_close_backends(self, registry_dir, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        config = DiagnoserConfig()
        with ServiceDiagnoser.from_registry(registry_dir, config=config) as diagnoser:
            report = diagnoser.diagnose_arrays(inputs, labels, model="tiny")
            assert report.num_cases >= 1
            inner = diagnoser.service
        assert inner._closed  # owned service closed on exit
