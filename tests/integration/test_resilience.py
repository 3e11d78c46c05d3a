"""Chaos-driven integration tests: the resilience layer under injected faults.

Each scenario arms the process-global fault injector with a deterministic
plan (seeded draws, bounded budgets), drives real HTTP traffic at a live
front end, and asserts the *recovery*, not just the failure: quarantined
replicas are probed back in, an open breaker half-opens and closes, and an
expired deadline is refused before any diagnosis work happens (asserted via
metrics deltas, not timing).
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.api import DiagnoserConfig, DiagnosisRequest, RemoteDiagnoser
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    RemoteTransportError,
)
from repro.resilience import DEADLINE_HEADER, HealthPolicy, configure_chaos, get_injector
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("resilience_registry")
    registry = ArtifactRegistry(root)
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "resilience"})
    return root


@pytest.fixture(autouse=True)
def _disarm_chaos():
    """Every test leaves the process-global injector clean."""
    yield
    configure_chaos(None)


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


def _make_stack(registry_dir, num_replicas: int):
    """A pool with fast supervision knobs plus a gateway on an ephemeral port."""
    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=num_replicas,
        max_queue_per_replica=8,
        num_workers=1,
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
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            # Two infrastructure faults (the policy's threshold) and not one
            # more: the budget makes the scenario a script, not a dice roll.
            configure_chaos({
                "plans": [{
                    "site": "replica.dispatch",
                    "mode": "error",
                    "error_type": "ServeError",
                    "message": "chaos: replica wedged",
                    "max_injections": 2,
                }],
            })

            # ServeError maps to 400 on the wire, but health classification
            # counts it against the replica (is_infrastructure_fault).
            for _ in range(2):
                status, body = _post(gateway.url + "/diagnose", payload)
                assert status == 400
                assert body["error_type"] == "ServeError"

            # The only replica is now quarantined: the pool is unavailable
            # and new work is shed, not queued behind a dead shard.
            status, health = _get(gateway.url + "/healthz")
            assert status == 503
            assert health["status"] == "unavailable"
            assert health["quarantined"] == 1
            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 503

            # The chaos budget is spent, so the supervisor's probe succeeds
            # and re-admits the replica; traffic then flows again.
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


class TestCircuitBreaker:
    def test_drops_trip_the_breaker_and_half_open_recovers(
        self, registry_dir, tiny_splits
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
            configure_chaos({
                "plans": [{
                    "site": "remote.send",
                    "mode": "drop",
                    "max_injections": 4,
                }],
            })
            for _ in range(2):
                with pytest.raises(RemoteTransportError):
                    client.diagnose(request)
            assert client.breaker_snapshot()["/diagnose"]["state"] == "open"

            # Open breaker fails locally: the injector sees no new attempt.
            fired_before = get_injector().stats()["plans"][0]["fired"]
            with pytest.raises(CircuitOpenError) as excinfo:
                client.diagnose(request)
            assert excinfo.value.retry_after is not None
            assert get_injector().stats()["plans"][0]["fired"] == fired_before

            # After the reset window the half-open probe rides a healthy wire
            # (the drop budget is spent) and closes the breaker again.
            time.sleep(0.35)
            report = client.diagnose(request)
            assert report.num_cases > 0
            assert client.breaker_snapshot()["/diagnose"]["state"] == "closed"
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()


    def test_open_breaker_stops_diagnose_many_before_the_wire(
        self, registry_dir, tiny_splits
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
            configure_chaos({
                "plans": [{"site": "remote.send", "mode": "drop", "max_injections": 1}],
            })
            with pytest.raises(RemoteTransportError):
                client.diagnose(request)
            assert client.breaker_snapshot()["/diagnose"]["state"] == "open"

            requests_before = gateway.metrics.as_dict()["gateway.requests_total"]["value"]
            with pytest.raises(CircuitOpenError):
                client.diagnose_many([request, request])
            assert (
                gateway.metrics.as_dict()["gateway.requests_total"]["value"]
                == requests_before
            )
        finally:
            client.close()
            gateway.shutdown()
            pool.shutdown()


class TestDeadlines:
    def test_expired_deadline_is_refused_before_any_diagnosis_work(
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            # The injected read delay (150 ms) outlives the client's 20 ms
            # budget, so by admission time the deadline has lapsed.
            configure_chaos({
                "plans": [{
                    "site": "gateway.read_body",
                    "mode": "delay",
                    "delay_seconds": 0.15,
                }],
            })
            before = pool.metrics_snapshot()["aggregate_counters"]

            status, body = _post(
                gateway.url + "/diagnose", payload, headers={DEADLINE_HEADER: "20"}
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
        self, registry_dir, tiny_splits
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
            configure_chaos({
                "plans": [{
                    "site": "gateway.read_body",
                    "mode": "delay",
                    "delay_seconds": 0.15,
                }],
            })
            with pytest.raises(DeadlineExceededError):
                client.diagnose(request)
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


class TestChaosControlEndpoint:
    def test_runtime_arm_observe_and_disarm_over_loopback(
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            spec = {
                "seed": 3,
                "plans": [{
                    "site": "replica.dispatch",
                    "mode": "error",
                    "max_injections": 1,
                }],
            }
            status, stats = _post(gateway.url + "/debug/chaos", spec)
            assert status == 200
            assert stats["enabled"] is True and stats["seed"] == 3
            assert stats["plans"][0]["site"] == "replica.dispatch"

            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 400

            status, stats = _get(gateway.url + "/debug/chaos")
            assert stats["plans"][0]["fired"] == 1

            status, stats = _post(gateway.url + "/debug/chaos", {"enabled": False})
            assert status == 200 and stats["enabled"] is False
            status, body = _post(gateway.url + "/diagnose", payload)
            assert status == 200
        finally:
            gateway.shutdown()
            pool.shutdown()

    def test_bad_spec_is_rejected_not_armed(self, registry_dir):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            status, body = _post(
                gateway.url + "/debug/chaos",
                {"plans": [{"site": "no.such.site", "mode": "delay"}]},
            )
            assert status == 400
            assert not get_injector().enabled
        finally:
            gateway.shutdown()
            pool.shutdown()


class TestPoolShutdownDrain:
    def test_shutdown_waits_for_inflight_work_then_refuses_new(
        self, registry_dir, payload
    ):
        pool, gateway = _make_stack(registry_dir, num_replicas=1)
        try:
            status, _body = _post(gateway.url + "/diagnose", payload)
            assert status == 200
        finally:
            gateway.shutdown()
            remaining = pool.shutdown()
            assert remaining == 0  # nothing was in flight: a clean drain
        # After shutdown the pool refuses instead of queuing into closed engines.
        from repro.exceptions import ServeError

        with pytest.raises(ServeError, match="closed"):
            with pool.acquire():
                pass  # pragma: no cover - acquire must refuse
