"""Fault-driven integration tests: the resilience layer under real faults.

Each scenario causes its fault by patching a seam the code already has — a
replica's ``_diagnose_inner``, the client's ``_roundtrip`` — or by pacing a
raw socket.  Most drive real HTTP traffic at a live front end and assert the
*recovery*, not just the failure: quarantined replicas are probed back in,
an open breaker half-opens and closes, and an expired deadline is refused
before any diagnosis work happens (asserted via metrics deltas, not timing).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import DiagnoserConfig, DiagnosisRequest, RemoteDiagnoser
from repro.exceptions import (
    ArtifactNotFoundError,
    CircuitOpenError,
    DeadlineExceededError,
    RemoteTransportError,
    ServeError,
    ServiceUnavailableError,
)
from repro.resilience import DEADLINE_HEADER, HealthPolicy
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("resilience_registry")
    registry = ArtifactRegistry(root)
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "resilience"})
    return root


@pytest.fixture
def payload(tiny_splits):
    # The whole test split: a slice this small a model might classify
    # perfectly, and a diagnosis with zero faulty cases is a 400, not a 200.
    _, test = tiny_splits
    inputs, labels = test.arrays()
    return {
        "model": "tiny",
        "inputs": inputs.tolist(),
        "labels": labels.tolist(),
    }


def _post(url: str, document, headers=None, timeout: float = 60):
    """POST JSON; returns (status, decoded body) without raising on 4xx/5xx."""
    body = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, timeout: float = 60):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _fail_first(monkeypatch, owner, name: str, times: int, make_error):
    """Make ``owner.<name>`` raise ``make_error()`` on its first ``times`` calls.

    Later calls go through to the original.  Returns the list of calls seen,
    so a test can check that nothing reached the seam.
    """
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) <= times:
            raise make_error()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _post_head_then_body(gateway, path: str, document, headers, pause: float):
    """POST ``document`` over a raw socket, sending the body ``pause`` s after the head.

    The gateway binds a request's deadline when it parses the head, so the
    pause is spent from the client's budget before the body arrives.
    Returns ``(status, decoded body)``.
    """
    body = json.dumps(document).encode("utf-8")
    lines = [
        f"POST {path} HTTP/1.1",
        f"Host: {gateway.host}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    with socket.create_connection((gateway.host, gateway.port), timeout=60) as sock:
        sock.sendall(head)
        time.sleep(pause)
        sock.sendall(body)
        response = http.client.HTTPResponse(sock)
        try:
            response.begin()
            return response.status, json.loads(response.read())
        finally:
            response.close()


def _one_pixel(value: float):
    """Bad fields: the valid payload's inputs with one pixel of row 3 set to ``value``.

    Only one pixel changes, so the shape checks pass and the check that
    inputs are finite and within float32's range is what answers.
    """

    def fields(payload):
        inputs = np.asarray(payload["inputs"])
        inputs[3].flat[0] = value
        return {"inputs": inputs.tolist()}

    return fields


def _make_stack(registry_dir, num_replicas: int):
    """A pool with fast supervision knobs plus a gateway on an ephemeral port."""
    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=num_replicas,
        max_queue_per_replica=8,
        health_policy=HealthPolicy(
            failure_threshold=2,
            probe_interval_seconds=0.05,
            quarantine_seconds=0.1,
            quarantine_backoff=2.0,
            max_quarantine_seconds=1.0,
        ),
    )
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
    return pool, gateway


class TestQuarantineAndReadmission:
    def test_faulting_replica_is_ejected_probed_and_readmitted(
        self, registry_dir, payload, monkeypatch
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            # Two infrastructure faults (the policy's threshold) and not one
            # more: the count makes the scenario a script, not a dice roll.
            _fail_first(
                monkeypatch, pool.replicas[0], "_diagnose_inner", 2,
                lambda: ServiceUnavailableError("replica wedged"),
            )

            # The replica's fault is a 503 on the wire, and health
            # classification counts it against the replica.
            for _ in range(2):
                status, body = _post(gateway.url + "/diagnose", payload)
                assert status == 503
                assert body["error_type"] == "ServiceUnavailableError"

            # The only replica is now quarantined: the pool is unavailable
            # and new work is shed, not queued behind a dead shard.
            status, health = _get(gateway.url + "/healthz")
            assert status == 503
            assert health["status"] == "unavailable"
            assert health["quarantined"] == 1
            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 503

            # After the quarantine window the supervisor's probe re-admits
            # the replica; the two faults are spent, so traffic flows again.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status, health = _get(gateway.url + "/healthz")
                if health["status"] == "ok":
                    break
                time.sleep(0.05)
            assert health["status"] == "ok", f"never re-admitted: {health}"

            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 200 and body["num_cases"] > 0

            counters = pool.metrics_snapshot()["pool"]
            assert counters["pool.ejections_total"]["value"] >= 1
            assert counters["pool.readmissions_total"]["value"] >= 1
        finally:
            gateway.shutdown()
            pool.shutdown()

    def test_degraded_pool_keeps_serving_around_the_quarantined_replica(
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=2)
        try:
            pool.eject_replica(0)
            status, health = _get(gateway.url + "/healthz")
            assert status == 200  # degraded is alive: load balancers keep it
            assert health["status"] == "degraded"
            assert health["quarantined"] == 1
            # Routing skips the quarantined shard; traffic flows regardless.
            for _ in range(3):
                status, body = _post(gateway.url + "/diagnose", payload)
                assert status == 200
        finally:
            gateway.shutdown()
            pool.shutdown()

    @pytest.mark.parametrize(
        "bad_fields",
        [
            {"inputs": [[{}]], "labels": [0]},
            {"inputs": [[10**400]], "labels": [0]},
            {"model": "bad name!"},
            {"model": "a" * 5000},
            _one_pixel(float("nan")),
            _one_pixel(float("inf")),
            _one_pixel(float("-inf")),
            _one_pixel(1e300),
        ],
        ids=[
            "non-numeric-input",
            "input-beyond-float",
            "invalid-model-name",
            "overlong-model-name",
            "nan-input",
            "inf-input",
            "-inf-input",
            "1e300-input",
        ],
    )
    def test_bad_requests_are_400s_that_never_eject_the_replica(
        self, registry_dir, payload, bad_fields
    ):
        if callable(bad_fields):
            bad_fields = bad_fields(payload)
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            # The policy's threshold of bad requests: had any one counted
            # against the only replica, the pool would now be unavailable.
            for _ in range(pool.health_policy.failure_threshold):
                status, body = _post(gateway.url + "/diagnose", {**payload, **bad_fields})
                assert status == 400, body
            status, health = _get(gateway.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert pool.metrics.counter("pool.ejections_total").value == 0

            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 200 and body["num_cases"] > 0
        finally:
            gateway.shutdown()
            pool.shutdown()


class TestCircuitBreaker:
    def test_stopped_engine_is_a_503_that_opens_the_breaker(
        self, registry_dir, payload, tiny_splits
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = DiagnosisRequest(model="tiny", inputs=inputs, labels=labels)
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(max_retries=0, breaker_failure_threshold=1),
        )
        try:
            pool.replicas[0].engine.stop()
            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 503
            assert body["error_type"] == "ServiceUnavailableError"

            # A stopped replica is the server's failure, so the client's
            # breaker counts its first answer instead of taking it as a 400.
            with pytest.raises(ServiceUnavailableError):
                client.diagnose(request)
            assert client.breaker_snapshot()["/diagnose"]["state"] == "open"
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()

    def test_drops_trip_the_breaker_and_half_open_recovers(
        self, registry_dir, tiny_splits, monkeypatch
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = DiagnosisRequest(
            model="tiny", inputs=inputs, labels=labels
        )
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(
                max_retries=1,
                retry_backoff_seconds=0.01,
                breaker_failure_threshold=2,
                breaker_reset_seconds=0.3,
            ),
            rng=random.Random(7),
        )
        try:
            # Four drops cover both attempts of two calls: each call retries
            # once (with full-jitter backoff), exhausts its budget, and counts
            # one breaker failure.
            sends = _fail_first(
                monkeypatch, client, "_roundtrip", 4,
                lambda: ConnectionResetError("connection dropped before send"),
            )
            for _ in range(2):
                with pytest.raises(RemoteTransportError):
                    client.diagnose(request)
            assert client.breaker_snapshot()["/diagnose"]["state"] == "open"

            # Open breaker fails locally: no new attempt reaches the send.
            sent_before = len(sends)
            with pytest.raises(CircuitOpenError) as excinfo:
                client.diagnose(request)
            assert excinfo.value.retry_after is not None
            assert len(sends) == sent_before

            # After the reset window the half-open probe rides a healthy wire
            # (the four drops are spent) and closes the breaker again.
            time.sleep(0.35)
            report = client.diagnose(request)
            assert report.num_cases > 0
            assert client.breaker_snapshot()["/diagnose"]["state"] == "closed"
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()


    def test_open_breaker_stops_diagnose_many_before_the_wire(
        self, registry_dir, tiny_splits, monkeypatch
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = DiagnosisRequest(model="tiny", inputs=inputs, labels=labels)
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(
                max_retries=0, breaker_failure_threshold=1, breaker_reset_seconds=60.0
            ),
        )
        try:
            sends = _fail_first(
                monkeypatch, client, "_roundtrip", 1,
                lambda: ConnectionResetError("connection dropped before send"),
            )
            with pytest.raises(RemoteTransportError):
                client.diagnose(request)
            assert client.breaker_snapshot()["/diagnose"]["state"] == "open"

            requests_before = gateway.metrics.as_dict()["gateway.requests_total"]["value"]
            with pytest.raises(CircuitOpenError):
                client.diagnose_many([request, request])
            assert len(sends) == 1
            assert (
                gateway.metrics.as_dict()["gateway.requests_total"]["value"]
                == requests_before
            )
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()

    def test_server_faults_open_the_breaker_and_client_errors_do_not(
        self, registry_dir, tiny_splits, monkeypatch
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        _, test = tiny_splits
        inputs, labels = test.arrays()
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(
                max_retries=0, breaker_failure_threshold=2, breaker_reset_seconds=60.0
            ),
        )
        try:
            # Unknown-model 404s, more of them than the threshold, say
            # nothing against the server.
            for _ in range(3):
                with pytest.raises(ArtifactNotFoundError):
                    client.diagnose_arrays(inputs, labels, model="missing")
            assert client.breaker_snapshot()["/diagnose"]["state"] == "closed"

            # A replica that crashes answers 500: two of them open the breaker.
            _fail_first(
                monkeypatch, pool.replicas[0], "_diagnose_inner", 2,
                lambda: RuntimeError("replica crashed"),
            )
            for _ in range(2):
                with pytest.raises(ServeError, match="replica crashed"):
                    client.diagnose_arrays(inputs, labels, model="tiny")
            assert client.breaker_snapshot()["/diagnose"]["state"] == "open"
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()


class TestBoundedRetries:
    """The client's retry loop over a send that always fails; no server needed."""

    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_transport_failures_are_retried_max_retries_times(
        self, max_retries, monkeypatch
    ):
        client = RemoteDiagnoser(
            "http://127.0.0.1:9",
            config=DiagnoserConfig(max_retries=max_retries, retry_backoff_seconds=0.001),
        )
        sends = _fail_first(
            monkeypatch, client, "_roundtrip", 100,
            lambda: ConnectionResetError("connection dropped before send"),
        )
        with pytest.raises(RemoteTransportError, match=f"after {max_retries + 1} attempt"):
            client.health()
        assert len(sends) == max_retries + 1
        # The whole call, retries included, is one breaker failure.
        assert client.breaker_snapshot()["/health"]["consecutive_failures"] == 1
        client.close()

    def test_deadline_ends_the_retry_loop(self, monkeypatch):
        client = RemoteDiagnoser(
            "http://127.0.0.1:9",
            config=DiagnoserConfig(
                max_retries=50,
                retry_backoff_seconds=10.0,
                deadline_seconds=0.1,
                breaker_failure_threshold=1,
            ),
            rng=random.Random(3),
        )
        _fail_first(
            monkeypatch, client, "_roundtrip", 100,
            lambda: ConnectionResetError("connection dropped before send"),
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            client.health()
        # The first backoff draw is 2.4 s; it stops at the 0.1 s budget, and
        # a spent budget does not count against the server.
        assert time.monotonic() - started < 1.0
        assert client.breaker_snapshot()["/health"]["state"] == "closed"
        client.close()


class TestDeadlines:
    def test_expired_deadline_is_refused_before_any_diagnosis_work(
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            before = pool.metrics_snapshot()["aggregate_counters"]

            # The body arrives 150 ms after the head, which outlives the
            # client's 20 ms budget, so by admission time it has lapsed.
            status, body = _post_head_then_body(
                gateway, "/diagnose", payload, {DEADLINE_HEADER: "20"}, pause=0.15
            )
            assert status == 504
            assert body["error_type"] == "DeadlineExceededError"

            # Zero diagnosis work happened: the refusal is pre-admission, so
            # no engine request, no extraction, no service diagnosis moved.
            after = pool.metrics_snapshot()["aggregate_counters"]
            for name in (
                "engine.requests_total",
                "engine.cases_extracted_total",
                "service.diagnoses_total",
            ):
                assert after.get(name, 0) == before.get(name, 0), name
            gateway_counters = gateway.metrics.as_dict()
            assert gateway_counters["gateway.deadline_rejected_total"]["value"] >= 1
        finally:
            gateway.shutdown()
            pool.shutdown()

    def test_remote_client_deadline_maps_to_typed_exception(
        self, registry_dir, tiny_splits, monkeypatch
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = DiagnosisRequest(model="tiny", inputs=inputs, labels=labels)
        client = RemoteDiagnoser(
            gateway.url,
            config=DiagnoserConfig(deadline_seconds=0.02, breaker_failure_threshold=1),
        )
        try:
            # A 50 ms stall before the send spends the 20 ms budget, so the
            # request goes out with X-Deadline-Ms: 0.
            statuses = []
            roundtrip = client._roundtrip

            def slow_roundtrip(*args, **kwargs):
                time.sleep(0.05)
                status, headers, body = roundtrip(*args, **kwargs)
                statuses.append(status)
                return status, headers, body

            monkeypatch.setattr(client, "_roundtrip", slow_roundtrip)
            with pytest.raises(DeadlineExceededError):
                client.diagnose(request)
            # The typed error came from the gateway's 504, not from the
            # client's own pre-send check.
            assert statuses == [504]
            # The gateway's 504 reports the caller's spent budget, not a
            # server fault: one of them must not open the breaker.
            assert client.breaker_snapshot()["/diagnose"]["state"] == "closed"
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()

    def test_generous_deadline_passes_through_untouched(self, registry_dir, payload):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            status, body = _post(
                gateway.url + "/diagnose", payload, headers={DEADLINE_HEADER: "60000"}
            )
            assert status == 200 and body["num_cases"] > 0
        finally:
            gateway.shutdown()
            pool.shutdown()


class TestPoolShutdownDrain:
    def test_shutdown_waits_for_inflight_work_then_refuses_new(
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        with pool:
            try:
                status, _body = _post(gateway.url + "/diagnose", payload)
                assert status == 200
            finally:
                gateway.shutdown()
            # One request is still in flight when the drain starts, and it
            # finishes 0.2 s later.
            lease = pool.acquire()
            timer = threading.Timer(0.2, lease.release)
            started = time.monotonic()
            timer.start()
            try:
                remaining = pool.shutdown(timeout=2.0)
                waited = time.monotonic() - started
            finally:
                timer.join(timeout=5.0)
        assert not timer.is_alive()
        assert remaining == 0  # the drain waited the request out
        assert waited >= 0.2
        # After shutdown the pool refuses instead of queuing into closed engines.
        with pytest.raises(ServeError, match="closed"):
            with pool.acquire():
                pass  # pragma: no cover - acquire must refuse

    def test_shutdown_reports_work_still_inflight_at_its_timeout(self, registry_dir):
        pool = ReplicaPool.from_registry(registry_dir, num_replicas=1)
        lease = pool.acquire()
        try:
            assert pool.shutdown(timeout=0.05) == 1
        finally:
            lease.release()
