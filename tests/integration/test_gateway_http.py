"""End-to-end gateway test: fit → register → HTTP diagnose → report parity.

A fitted model registered in the artifact registry serves a batched
diagnosis over HTTP and returns the same report as an in-process
``DiagnosisService`` (bitwise) and ``DeepMorph.diagnose_dataset`` (ratios).
The gateway must also survive the documented error paths (malformed JSON,
oversized body, unknown model/version, saturation) and publish well-formed
``/stats`` and ``/metrics`` documents.
"""

from __future__ import annotations

import http.client
import io
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.serve import (
    ArtifactRegistry,
    DiagnosisGateway,
    DiagnosisService,
    ReplicaPool,
)
from repro.wire import JsonCodec


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("gateway_registry")
    registry = ArtifactRegistry(root)
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "gateway"})
    return root


@pytest.fixture(scope="module")
def pool(registry_dir):
    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=2,
        max_queue_per_replica=8,
    )
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def gateway(pool):
    # The response cache is disabled so every request in these tests reaches
    # the replicas; TestGatewayResponseCache covers the cached path.
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
    yield gateway
    gateway.shutdown()


def _urlopen(request, timeout: float = 60):
    """``urlopen`` whose ``HTTPError`` holds its body in memory, not a socket.

    ``pytest.raises`` keeps the error alive past the test, so an error still
    holding its connection would leak the socket until garbage collection.
    """
    try:
        return urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as error:
        with error:
            body = error.read()
        raise urllib.error.HTTPError(
            error.url, error.code, error.msg, error.headers, io.BytesIO(body)
        ) from None


def _post(url: str, payload, timeout: float = 60) -> dict:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with _urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with _urlopen(url) as response:
        return json.loads(response.read())


def _read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestGatewayDiagnosis:
    def test_matches_in_process_service_and_direct_diagnosis(
        self, gateway, registry_dir, fitted_deepmorph, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}

        via_gateway = _post(gateway.url + "/diagnose", payload)

        with DiagnosisService(registry_dir) as service:
            in_process = service.diagnose("tiny", inputs.tolist(), labels.tolist()).as_dict()
        # Bitwise-identical payloads: same artifact, same batch composition,
        # same extraction pipeline — the front end must not change the answer.
        assert via_gateway == json.loads(JsonCodec().encode_report(in_process))

        direct = fitted_deepmorph.diagnose_dataset(test)
        assert via_gateway["num_cases"] == direct.num_cases
        for defect, ratio in direct.ratios.items():
            assert via_gateway["ratios"][defect.value] == pytest.approx(ratio, abs=1e-9)
        assert via_gateway["dominant_defect"] == direct.dominant_defect.value
        assert via_gateway["metadata"]["num_production_cases"] == len(test)
        assert via_gateway["metadata"]["model"] == "tiny"
        assert via_gateway["metadata"]["version"] == "v1"

    def test_pinned_version_and_repeat_requests(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {
            "model": "tiny",
            "version": "v1",
            "inputs": inputs.tolist(),
            "labels": labels.tolist(),
        }
        first = _post(gateway.url + "/diagnose", payload)
        second = _post(gateway.url + "/diagnose", payload)
        assert first["ratios"] == second["ratios"]
        assert first["metadata"]["version"] == "v1"

    def test_one_replica_pool_over_an_existing_service(self, registry_dir, tiny_splits):
        # The embedding recipe for a caller that already holds one service.
        _, test = tiny_splits
        inputs, labels = test.arrays()
        service = DiagnosisService(registry_dir)
        pool = ReplicaPool(lambda _: service, num_replicas=1)
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
        try:
            via_gateway = _post(gateway.url + "/diagnose", {
                "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            })
            in_process = service.diagnose("tiny", inputs.tolist(), labels.tolist()).as_dict()
            assert _get(gateway.url + "/stats")["pool"]["num_replicas"] == 1
        finally:
            gateway.shutdown()
            pool.close()
        assert via_gateway == json.loads(JsonCodec().encode_report(in_process))
        assert pool.replicas == [service]
        assert not service.engine.is_running  # closing the pool closed the service


class TestGatewayErrorPaths:
    def test_malformed_json_is_400(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", b"{this is not json")
        assert excinfo.value.code == 400

    def test_missing_fields_and_empty_batch_are_400(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {"model": "tiny"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {"model": "tiny", "inputs": [], "labels": []})
        assert excinfo.value.code == 400

    def test_unknown_model_and_version_are_404(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {
                "model": "ghost", "inputs": inputs.tolist(), "labels": labels.tolist(),
            })
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {
                "model": "tiny", "version": "v99",
                "inputs": inputs.tolist(), "labels": labels.tolist(),
            })
        assert excinfo.value.code == 404

    def test_unknown_path_and_method(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(gateway.url + "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/health", {"x": 1})
        assert excinfo.value.code == 404
        # The debug surface has no fault-injection control.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(gateway.url + "/debug/chaos")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/debug/chaos", {"enabled": False})
        assert excinfo.value.code == 404
        # Diagnosis is synchronous only: the retired job routes are unknown.
        for path in ("/jobs", "/jobs/abc123"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(gateway.url + path)
            assert excinfo.value.code == 404
            assert "unknown path" in json.loads(excinfo.value.read())["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/jobs", {"model": "tiny", "inputs": [[0.0]], "labels": [0]})
        assert excinfo.value.code == 404
        assert "unknown path" in json.loads(excinfo.value.read())["error"]

    def test_oversized_body_is_413(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        small = DiagnosisGateway(pool, port=0, max_body_bytes=64).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(small.url + "/diagnose", {
                    "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
                })
            assert excinfo.value.code == 413
            # Unified error mapping: the payload names the typed error.
            document = json.loads(excinfo.value.read())
            assert document["error_type"] == "PayloadTooLargeError"
            assert "request_id" in document
            # The 413 closed its connection; the next one is served.
            assert _get(small.url + "/health")["status"] == "ok"
        finally:
            small.shutdown()

    def test_other_methods_are_405(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/diagnose", data=b"{}", method="PUT",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 405
        assert "request_id" in json.loads(excinfo.value.read())

    def test_deadline_header_name_is_case_insensitive(self, gateway):
        # A spent budget is refused before admission, whatever the case of
        # the header name: the gateway matches header names lower-cased.
        body = json.dumps({"model": "tiny", "inputs": [[0.0]], "labels": [0]}).encode()
        for name in ("X-DEADLINE-MS", "x-deadline-ms", "X-Deadline-Ms"):
            connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=60)
            try:
                connection.putrequest("POST", "/diagnose")
                connection.putheader("Content-Type", "application/json")
                connection.putheader("Content-Length", str(len(body)))
                connection.putheader(name, "0")
                connection.endheaders(body)
                response = connection.getresponse()
                assert response.status == 504, name
                assert json.loads(response.read())["error_type"] == "DeadlineExceededError"
            finally:
                connection.close()

    def test_idle_connection_is_closed_after_idle_timeout(self, pool):
        quick = DiagnosisGateway(pool, port=0, idle_timeout=0.2).start()
        try:
            with socket.create_connection((quick.host, quick.port), timeout=10) as sock:
                started = time.monotonic()
                assert sock.recv(1) == b""
                assert time.monotonic() - started < 5
        finally:
            quick.shutdown()

    def test_shutdown_ends_idle_keep_alive_connections_quietly(self, pool, caplog):
        # An idle keep-alive handler must end on EOF at shutdown: one left
        # for asyncio.run to cancel logs a CancelledError traceback on 3.11.
        quick = DiagnosisGateway(pool, port=0).start()
        connection = http.client.HTTPConnection(quick.host, quick.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            assert response.getheader("Connection") == "keep-alive"
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                quick.shutdown()
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()
            quick.shutdown()
        errors = [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]
        assert errors == []

    def test_truncated_body_times_out_with_408(self, pool):
        quick = DiagnosisGateway(pool, port=0, body_timeout=0.2).start()
        try:
            with socket.create_connection((quick.host, quick.port), timeout=10) as sock:
                sock.sendall(
                    b"POST /diagnose HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"model": "tiny"'
                )
                response = _read_until_closed(sock)
        finally:
            quick.shutdown()
        assert response.startswith(b"HTTP/1.1 408")
        assert b"Connection: close" in response

    def test_saturated_pool_sheds_503_with_retry_after(self, gateway, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        leases = [pool.acquire() for _ in range(pool.max_inflight)]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(gateway.url + "/diagnose", {
                    "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
                })
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            for lease in leases:
                lease.release()
        # Capacity released: the same request is admitted again.
        report = _post(gateway.url + "/diagnose", {
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
        })
        assert report["num_cases"] >= 1


class TestGatewayIntrospection:
    def test_health_models_stats(self, gateway):
        health = _get(gateway.url + "/health")
        assert health["status"] == "ok"
        assert "tiny" in health["models"]
        models = _get(gateway.url + "/models")["models"]
        tiny = [m for m in models if m["name"] == "tiny"]
        assert tiny and tiny[0]["version"] == "v1"
        assert tiny[0]["metadata"] == {"suite": "gateway"}
        stats = _get(gateway.url + "/stats")
        assert stats["pool"]["num_replicas"] == 2
        assert len(stats["pool"]["inflight_per_replica"]) == 2
        assert stats["gateway"]["requests_total"] >= 1

    def test_stats_runs_off_the_event_loop(self, gateway, pool, monkeypatch):
        # Replica stats list the registry directory; on the loop thread that
        # scan would stall every open connection.
        threads = []
        for service in pool.replicas:
            models = service.registry.models

            def spy(models=models):
                threads.append(threading.current_thread().name)
                return models()

            monkeypatch.setattr(service.registry, "models", spy)
        _get(gateway.url + "/stats")
        assert len(threads) == pool.num_replicas
        assert all(name.startswith("repro-gateway-worker") for name in threads), threads

    def test_loop_keeps_answering_while_stats_is_blocked(self, gateway, pool, monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        for service in pool.replicas:
            models = service.registry.models

            def blocked(models=models):
                entered.set()
                release.wait(30)
                return models()

            monkeypatch.setattr(service.registry, "models", blocked)
        result = {}
        stats_call = threading.Thread(
            target=lambda: result.update(stats=_get(gateway.url + "/stats"))
        )
        stats_call.start()
        try:
            assert entered.wait(10)
            # /healthz is answered on the event loop itself.
            with urllib.request.urlopen(gateway.url + "/healthz", timeout=5) as response:
                assert response.status == 200
        finally:
            release.set()
            stats_call.join(30)
        assert result["stats"]["pool"]["num_replicas"] == 2

    def test_stats_reports_configured_limits(self, pool):
        with pytest.raises(ServeError):
            DiagnosisGateway(pool, max_body_bytes=0)
        configured = DiagnosisGateway(
            pool, port=0, max_body_bytes=123,
            response_cache_size=5, response_cache_ttl=1.5,
        ).start()
        try:
            url = configured.url
            stats = _get(url + "/stats")["gateway"]
        finally:
            configured.shutdown()
        assert stats["url"] == url
        assert stats["max_body_bytes"] == 123
        # One executor thread per replica, plus one for the registry routes.
        assert stats["executor_workers"] == pool.num_replicas + 1
        assert stats["response_cache"]["maxsize"] == 5
        assert stats["response_cache"]["ttl_seconds"] == 1.5

    def test_repeat_request_reaches_the_model_without_the_response_cache(
        self, registry_dir, tiny_splits
    ):
        # One replica, so both requests land on the engine whose stats are read.
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}
        single = ReplicaPool.from_registry(registry_dir, num_replicas=1)
        gateway = DiagnosisGateway(single, port=0, response_cache_size=0).start()
        try:
            first = _post(gateway.url + "/diagnose", payload)
            before = _get(gateway.url + "/stats")["pool"]["replicas"][0]["engine"]
            second = _post(gateway.url + "/diagnose", payload)
            after = _get(gateway.url + "/stats")["pool"]["replicas"][0]["engine"]
        finally:
            gateway.shutdown()
            single.close()
        assert second == first
        assert after["cases_extracted"] == before["cases_extracted"] + len(test)

    def test_metrics_schema(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        _post(gateway.url + "/diagnose", {
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
        })
        metrics = _get(gateway.url + "/metrics")
        assert set(metrics) == {"gateway", "pool", "replicas", "aggregate_counters"}
        assert len(metrics["replicas"]) == 2

        for snapshot in [metrics["gateway"], metrics["pool"], *metrics["replicas"]]:
            for name, record in snapshot.items():
                assert record["type"] in ("counter", "gauge", "histogram"), name
                if record["type"] == "histogram":
                    assert set(record) >= {"count", "sum", "buckets"}
                    counts = list(record["buckets"].values())
                    assert counts == sorted(counts)  # cumulative
                else:
                    assert "value" in record

        gw = metrics["gateway"]
        assert gw["gateway.requests_total"]["value"] >= 1
        assert gw["gateway.request_seconds"]["count"] >= 1
        aggregate = metrics["aggregate_counters"]
        assert aggregate["service.diagnoses_total"] >= 1
        assert aggregate["engine.requests_total"] >= 1

    def test_metrics_count_sheds(self, gateway, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        before = _get(gateway.url + "/metrics")
        leases = [pool.acquire() for _ in range(pool.max_inflight)]
        try:
            with pytest.raises(urllib.error.HTTPError):
                _post(gateway.url + "/diagnose", {
                    "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
                })
        finally:
            for lease in leases:
                lease.release()
        after = _get(gateway.url + "/metrics")
        assert (
            after["gateway"]["gateway.shed_total"]["value"]
            == before["gateway"]["gateway.shed_total"]["value"] + 1
        )
        assert (
            after["pool"]["pool.shed_total"]["value"]
            == before["pool"]["pool.shed_total"]["value"] + 1
        )


class TestGatewayResponseCache:
    def test_repeat_body_hits_and_is_bitwise_identical(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = json.dumps({
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
        }).encode("utf-8")
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            def post_raw(body):
                request = urllib.request.Request(
                    gateway.url + "/diagnose", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    return response.read(), response.headers.get("X-Response-Cache")

            first, first_state = post_raw(payload)
            second, second_state = post_raw(payload)
            assert first_state == "miss"
            assert second_state == "hit"
            assert first == second  # bitwise-identical response bytes
            stats = _get(gateway.url + "/stats")["gateway"]["response_cache"]
            assert stats["hits"] == 1
            assert stats["misses"] == 1
        finally:
            gateway.shutdown()

    def test_hit_never_reaches_the_replica(self, registry_dir, tiny_splits):
        # One replica, so its engine stats see every request that gets past
        # the response cache.
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}
        single = ReplicaPool.from_registry(registry_dir, num_replicas=1)
        gateway = DiagnosisGateway(single, port=0, response_cache_size=64).start()
        try:
            first = _post(gateway.url + "/diagnose", payload)
            before = _get(gateway.url + "/stats")["pool"]["replicas"][0]["engine"]
            second = _post(gateway.url + "/diagnose", payload)
            after = _get(gateway.url + "/stats")["pool"]["replicas"][0]["engine"]
            cache = _get(gateway.url + "/stats")["gateway"]["response_cache"]
        finally:
            gateway.shutdown()
            single.close()
        assert second == first
        assert before["cases_extracted"] == len(test)
        assert after == before
        assert (cache["hits"], cache["misses"]) == (1, 1)

    def test_cached_response_served_even_when_pool_is_saturated(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = json.dumps({
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            "metadata": {"probe": "saturation-cache"},
        }).encode("utf-8")
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            request = urllib.request.Request(
                gateway.url + "/diagnose", data=payload,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                warm = response.read()
            leases = [pool.acquire() for _ in range(pool.max_inflight)]
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    assert response.read() == warm
                    assert response.headers.get("X-Response-Cache") == "hit"
            finally:
                for lease in leases:
                    lease.release()
        finally:
            gateway.shutdown()

    def test_disabled_cache_reports_off(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = urllib.request.Request(
            gateway.url + "/diagnose",
            data=json.dumps({
                "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            response.read()
            assert response.headers.get("X-Response-Cache") == "off"

    def test_miss_validates_its_arrays_once(self, pool, tiny_splits, monkeypatch):
        from repro.api.schema import DiagnosisRequest, validate_arrays

        calls = []
        arrays = DiagnosisRequest.arrays

        def spy_arrays(request, *args, **kwargs):
            calls.append("DiagnosisRequest.arrays")
            return arrays(request, *args, **kwargs)

        def spy_validate(*args, **kwargs):
            calls.append("DiagnosisService._validate_request")
            return validate_arrays(*args, **kwargs)

        monkeypatch.setattr(DiagnosisRequest, "arrays", spy_arrays)
        monkeypatch.setattr(DiagnosisService, "_validate_request", staticmethod(spy_validate))
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            "metadata": {"probe": "validate-once"},
        }
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            assert _post(gateway.url + "/diagnose", payload)["num_cases"] >= 1
        finally:
            gateway.shutdown()
        assert calls == ["DiagnosisService._validate_request"]

    def test_expired_entry_is_a_miss(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = json.dumps({
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            "metadata": {"probe": "ttl"},
        }).encode("utf-8")
        gateway = DiagnosisGateway(
            pool, port=0, response_cache_size=64, response_cache_ttl=0.0
        ).start()
        try:
            def post_state(body):
                request = urllib.request.Request(
                    gateway.url + "/diagnose", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    response.read()
                    return response.headers.get("X-Response-Cache")

            assert post_state(payload) == "miss"
            assert post_state(payload) == "miss"  # ttl=0: instantly stale
        finally:
            gateway.shutdown()


class TestGatewayWireNegotiation:
    """Content-Type/Accept negotiation on the async front end."""

    @pytest.fixture(scope="class")
    def payload(self, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        return {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}

    @staticmethod
    def _exchange(url, body, headers, timeout=60):
        request = urllib.request.Request(url, data=body, headers=headers)
        with _urlopen(request, timeout=timeout) as response:
            return response.read(), dict(response.headers)

    def test_binary_round_trip_matches_json(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        binary = BinaryCodec()
        frame = binary.encode_request(DiagnosisRequest.from_dict(dict(payload)))
        body, headers = self._exchange(
            gateway.url + "/diagnose",
            frame,
            {"Content-Type": binary.content_type, "Accept": binary.content_type},
        )
        assert headers["Content-Type"] == binary.content_type
        via_binary = binary.decode_report(body)
        via_json = _post(gateway.url + "/diagnose", payload)
        assert via_binary.to_dict() == via_json

    def test_response_codec_follows_accept_not_request_codec(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        frame = BinaryCodec().encode_request(DiagnosisRequest.from_dict(dict(payload)))
        # Binary in, JSON out (explicit Accept).
        body, headers = self._exchange(
            gateway.url + "/diagnose",
            frame,
            {"Content-Type": "application/x-repro-binary", "Accept": "application/json"},
        )
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["num_cases"] >= 1
        # Binary in, no Accept: the server default (JSON) answers.
        body, headers = self._exchange(
            gateway.url + "/diagnose", frame,
            {"Content-Type": "application/x-repro-binary"},
        )
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["num_cases"] >= 1

    def test_server_default_codec_answers_wildcard_accept(self, pool, payload):
        from repro.wire import BinaryCodec

        binary_default = DiagnosisGateway(
            pool, port=0, response_cache_size=0, default_codec="binary"
        ).start()
        try:
            body, headers = self._exchange(
                binary_default.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "*/*"},
            )
            assert headers["Content-Type"] == "application/x-repro-binary"
            assert BinaryCodec().decode_report(body).num_cases >= 1
            # An explicit Accept still overrides the server default.
            body, headers = self._exchange(
                binary_default.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "application/json"},
            )
            assert headers["Content-Type"] == "application/json"
        finally:
            binary_default.shutdown()

    def test_unknown_content_type_is_415(self, gateway, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "text/csv"},
            )
        assert excinfo.value.code == 415
        document = json.loads(excinfo.value.read())
        assert document["error_type"] == "UnsupportedMediaTypeError"
        assert "request_id" in document

    def test_unsatisfiable_accept_is_415(self, gateway, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "text/html"},
            )
        assert excinfo.value.code == 415

    def test_malformed_binary_frame_is_400_and_errors_stay_json(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                b"RPWB garbage that is not a frame",
                {
                    "Content-Type": "application/x-repro-binary",
                    "Accept": "application/x-repro-binary",
                },
            )
        assert excinfo.value.code == 400
        # Error responses are always JSON, even for binary-speaking clients.
        assert excinfo.value.headers["Content-Type"] == "application/json"
        document = json.loads(excinfo.value.read())
        assert document["error_type"] == "CodecError"

    def test_binary_frame_with_an_infinite_pixel_is_400(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        # A float32 frame skips the dtype cast, not the finiteness check.
        inputs = np.asarray(payload["inputs"], dtype=np.float32)
        inputs[3].flat[0] = -np.inf
        request = DiagnosisRequest(model="tiny", inputs=inputs, labels=payload["labels"])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                BinaryCodec().encode_request(request),
                {
                    "Content-Type": "application/x-repro-binary",
                    "Accept": "application/x-repro-binary",
                },
            )
        assert excinfo.value.code == 400
        document = json.loads(excinfo.value.read())
        assert document["error_type"] == "ConfigurationError"
        assert "row 3 holds NaN or infinity" in document["error"]

    def test_other_codec_is_a_miss_with_an_equal_report_over_http(self, pool, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        binary = BinaryCodec()
        document = dict(payload, metadata={"probe": "http-cross-codec"})
        frame = binary.encode_request(DiagnosisRequest.from_dict(dict(document)))
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            request = urllib.request.Request(
                gateway.url + "/diagnose",
                data=json.dumps(document).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                warm = response.read()
                assert response.headers["X-Response-Cache"] == "miss"

            # The binary form of the cached JSON request is another body: a
            # miss, diagnosed again end to end, with the same report.
            first, headers = self._exchange(
                gateway.url + "/diagnose", frame,
                {"Content-Type": binary.content_type, "Accept": binary.content_type},
            )
            assert headers["X-Response-Cache"] == "miss"
            assert binary.decode_report(first).to_dict() == json.loads(warm)

            # Byte-identical binary repeat: a hit with bitwise-identical bytes.
            second, headers = self._exchange(
                gateway.url + "/diagnose", frame,
                {"Content-Type": binary.content_type, "Accept": binary.content_type},
            )
            assert headers["X-Response-Cache"] == "hit"
            assert second == first
        finally:
            gateway.shutdown()

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_a_diagnosis_with_nan_ratios_is_a_400_that_is_never_cached(
        self, pool, payload, monkeypatch, codec
    ):
        from repro.api import DiagnosisRequest
        from repro.core.classifier import DefectCaseClassifier
        from repro.wire import get_codec

        # A case whose footprint overflowed scores NaN.  Stand one in rather
        # than overflow the forward pass, which warns on the replica thread.
        score_matrix = DefectCaseClassifier.score_matrix

        def one_nan_case(self, specifics, context=None):
            raw = score_matrix(self, specifics, context)
            raw[0] = np.nan
            return raw

        monkeypatch.setattr(DefectCaseClassifier, "score_matrix", one_nan_case)
        wire = get_codec(codec)
        body = wire.encode_request(DiagnosisRequest.from_dict(dict(payload)))
        headers = {"Content-Type": wire.content_type, "Accept": wire.content_type}
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            for _ in range(2):  # the repeat is diagnosed again, not a cached failure
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._exchange(gateway.url + "/diagnose", body, headers)
                assert excinfo.value.code == 400
                assert "X-Response-Cache" not in excinfo.value.headers
                document = json.loads(excinfo.value.read())
                assert document["error_type"] == "ConfigurationError"
                assert "1 of " in document["error"]
                assert "scored NaN or infinity" in document["error"]
            monkeypatch.undo()
            report, response_headers = self._exchange(gateway.url + "/diagnose", body, headers)
            assert response_headers["X-Response-Cache"] == "miss"
            assert wire.decode_report(report).num_cases >= 1
        finally:
            gateway.shutdown()

    def test_request_id_header_echoed_for_binary_requests(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        frame = BinaryCodec().encode_request(DiagnosisRequest.from_dict(dict(payload)))
        _, headers = self._exchange(
            gateway.url + "/diagnose", frame,
            {
                "Content-Type": "application/x-repro-binary",
                "X-Request-ID": "wire-echo-1",
            },
        )
        assert headers["X-Request-ID"] == "wire-echo-1"
