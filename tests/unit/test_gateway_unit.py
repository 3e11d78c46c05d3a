"""Unit tests for the gateway's building blocks: HTTP parsing, the wire-protocol
helpers, and the replica pool.

The replica pool is tested against lightweight fake services so the routing
and admission logic is exercised without training models; the real end-to-end
behaviour lives in ``tests/integration/test_gateway_http.py``.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import pytest

import repro.serve
from repro.exceptions import (
    ArtifactNotFoundError,
    ConfigurationError,
    DeadlineExceededError,
    NoFaultyCasesError,
    ServeError,
    ServiceSaturatedError,
    ServiceUnavailableError,
)
from repro.resilience import HealthPolicy
from repro.serve import MetricsRegistry, ReplicaPool, parse_request_head
from repro.serve import protocol
from repro.serve.protocol import resolve_deadline


# ----------------------------------------------------------- HTTP head parsing


class TestParseRequestHead:
    def test_parses_method_path_version_headers(self):
        head = (
            b"POST /diagnose HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 42\r\n"
            b"\r\n"
        )
        request = parse_request_head(head)
        assert request.method == "POST"
        assert request.path == "/diagnose"
        assert request.version == "HTTP/1.1"
        assert request.headers["content-type"] == "application/json"
        assert request.content_length == 42
        assert request.keep_alive

    def test_connection_close_disables_keep_alive(self):
        request = parse_request_head(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        request = parse_request_head(b"GET /health HTTP/1.0\r\n\r\n")
        assert not request.keep_alive
        request = parse_request_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert request.keep_alive

    def test_missing_content_length_is_zero(self):
        assert parse_request_head(b"GET / HTTP/1.1\r\n\r\n").content_length == 0

    @pytest.mark.parametrize(
        "head",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /too many parts HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
        ],
    )
    def test_malformed_heads_raise(self, head):
        with pytest.raises(ServeError):
            parse_request_head(head)

    def test_transfer_encoding_is_rejected(self):
        with pytest.raises(ServeError):
            parse_request_head(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")

    @pytest.mark.parametrize("value", [b"-1", b"nan", b"1e3"])
    def test_invalid_content_length_raises(self, value):
        request = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n")
        with pytest.raises(ServeError):
            request.content_length

    def test_header_names_are_lower_cased(self):
        request = parse_request_head(
            b"POST /diagnose HTTP/1.1\r\nX-DEADLINE-MS: 250\r\nx-Request-Id: abc\r\n\r\n"
        )
        assert request.headers == {"x-deadline-ms": "250", "x-request-id": "abc"}


# ------------------------------------------------------------ protocol helpers


class TestProtocolHelpers:
    def test_resolve_deadline_reads_the_parsed_header(self):
        # Header names arrive lower-cased, whatever case the client sent.
        request = parse_request_head(b"POST / HTTP/1.1\r\nX-Deadline-MS: 250\r\n\r\n")
        deadline = resolve_deadline(request.headers)
        assert deadline is not None
        assert 0.0 < deadline.remaining() <= 0.25
        assert resolve_deadline({"x-deadline-ms": "0"}).expired()

    def test_resolve_deadline_ignores_absent_and_malformed_values(self):
        assert resolve_deadline({}) is None
        assert resolve_deadline({"x-deadline-ms": "soon"}) is None
        assert resolve_deadline({"x-deadline-ms": ""}) is None
        assert resolve_deadline({"x-deadline-ms": "nan"}) is None

    def test_exported_names_resolve(self):
        for module in (repro.serve, protocol):
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], module.__name__


# --------------------------------------------------------------- replica pool


class FakeService:
    """The slice of DiagnosisService the pool touches, without any model."""

    def __init__(self, index: int):
        self.index = index
        self.metrics = MetricsRegistry()
        self.calls = 0
        self.closed = False

    def diagnose(self, name, inputs, labels, **kwargs):
        self.calls += 1
        return {"replica": self.index, "model": name}

    def stats(self):
        return {"replica": self.index}

    def close(self):
        self.closed = True


def make_pool(**kwargs) -> ReplicaPool:
    return ReplicaPool(lambda index: FakeService(index), **kwargs)


class TestReplicaPoolRouting:
    def test_round_robin_when_equally_loaded(self):
        pool = make_pool(num_replicas=3)
        indices = []
        for _ in range(6):
            lease = pool.acquire()
            indices.append(lease.replica_index)
            lease.release()
        assert indices == [0, 1, 2, 0, 1, 2]

    def test_prefers_least_loaded_replica(self):
        pool = make_pool(num_replicas=2, max_queue_per_replica=4)
        first = pool.acquire()
        assert first.replica_index == 0
        # Replica 0 is busy, so the next two admissions both land on 1 and 0
        # only returns once it is the least-loaded again.
        second = pool.acquire()
        assert second.replica_index == 1
        second.release()
        third = pool.acquire()
        assert third.replica_index == 1
        first.release()
        third.release()

    def test_full_replica_is_skipped(self):
        pool = make_pool(num_replicas=2, max_queue_per_replica=1, max_inflight=2)
        first = pool.acquire()
        second = pool.acquire()
        assert {first.replica_index, second.replica_index} == {0, 1}

    def test_release_is_idempotent(self):
        pool = make_pool(num_replicas=1)
        lease = pool.acquire()
        lease.release()
        lease.release()
        assert pool.inflight == 0

    def test_lease_as_context_manager(self):
        pool = make_pool(num_replicas=1)
        with pool.acquire() as service:
            assert isinstance(service, FakeService)
            assert pool.inflight == 1
        assert pool.inflight == 0


class TestReplicaPoolAdmission:
    def test_sheds_when_every_queue_is_full(self):
        pool = make_pool(num_replicas=2, max_queue_per_replica=1)
        leases = [pool.acquire(), pool.acquire()]
        with pytest.raises(ServiceSaturatedError) as excinfo:
            pool.acquire()
        assert excinfo.value.retry_after == pool.retry_after_seconds
        assert pool.metrics.counter("pool.shed_total").value == 1
        for lease in leases:
            lease.release()
        pool.acquire().release()

    def test_pool_wide_cap_sheds_before_queues_fill(self):
        pool = make_pool(num_replicas=2, max_queue_per_replica=8, max_inflight=3)
        leases = [pool.acquire() for _ in range(3)]
        with pytest.raises(ServiceSaturatedError):
            pool.acquire()
        for lease in leases:
            lease.release()

    def test_diagnose_releases_even_on_error(self):
        pool = make_pool(num_replicas=1, max_queue_per_replica=1)
        pool.replicas[0].diagnose = lambda *a, **k: (_ for _ in ()).throw(ValueError("x"))
        with pytest.raises(ValueError):
            pool.diagnose("m", [], [])
        assert pool.inflight == 0

    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            make_pool(num_replicas=0)
        with pytest.raises(ServeError):
            make_pool(num_replicas=1, max_queue_per_replica=0)
        with pytest.raises(ServeError):
            make_pool(num_replicas=1, max_inflight=0)


class TestReplicaPoolLifecycle:
    def test_close_closes_every_replica_and_blocks_acquire(self):
        pool = make_pool(num_replicas=2)
        pool.close()
        assert all(service.closed for service in pool.replicas)
        with pytest.raises(ServeError):
            pool.acquire()

    def test_stats_shape(self):
        pool = make_pool(num_replicas=2, max_queue_per_replica=4)
        lease = pool.acquire()
        stats = pool.stats()
        assert stats["num_replicas"] == 2
        assert stats["inflight_per_replica"] == [1, 0]
        assert stats["assigned_per_replica"] == [1, 0]
        assert stats["shed_total"] == 0
        assert len(stats["replicas"]) == 2
        lease.release()

    def test_metrics_snapshot_aggregates_replica_counters(self):
        pool = make_pool(num_replicas=2)
        pool.diagnose("m", [], [])
        pool.diagnose("m", [], [])
        snapshot = pool.metrics_snapshot()
        assert set(snapshot) == {"pool", "replicas", "aggregate_counters"}
        assert len(snapshot["replicas"]) == 2
        assert snapshot["aggregate_counters"]["replica.assigned_total"] == 2


class TestReplicaPoolHealth:
    """The outcome a lease is released with decides the replica's health."""

    @pytest.mark.parametrize(
        "error",
        [
            TimeoutError("engine wait"),
            # The same class as TimeoutError from Python 3.11, a distinct one before.
            FuturesTimeoutError(),
            ServiceUnavailableError("batching engine is stopped"),
            RuntimeError("worker crashed"),
            ConnectionResetError("peer reset"),
        ],
        ids=[
            "TimeoutError",
            "futures.TimeoutError",
            "ServiceUnavailableError",
            "RuntimeError",
            "ConnectionResetError",
        ],
    )
    def test_infrastructure_faults_eject_the_replica(self, error):
        pool = make_pool(
            num_replicas=1,
            health_policy=HealthPolicy(failure_threshold=2, quarantine_seconds=60.0),
            probe=lambda service: None,
        )
        try:
            for _ in range(2):
                pool.acquire().release(error=error)
            assert pool.health_snapshot()["status"] == "unavailable"
            assert pool.metrics.counter("pool.ejections_total").value == 1
        finally:
            pool.close()

    @pytest.mark.parametrize(
        "error",
        [
            ArtifactNotFoundError("unknown model"),
            ConfigurationError("bad option"),
            NoFaultyCasesError("clean batch"),
            DeadlineExceededError("budget spent"),
            ServiceSaturatedError("busy", retry_after=1.0),
            ValueError("bad shape"),
            ServeError("invalid artifact name 'bad name!'"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_client_errors_never_eject_the_replica(self, error):
        # One client's bad requests must not take a replica out of service,
        # even where the error class is a ServeError.
        pool = make_pool(num_replicas=1, health_policy=HealthPolicy(failure_threshold=2))
        try:
            for _ in range(5):
                pool.acquire().release(error=error)
            assert pool.health_snapshot()["status"] == "ok"
            assert pool.metrics.counter("pool.ejections_total").value == 0
        finally:
            pool.close()

    def test_failing_probe_keeps_the_replica_quarantined_until_one_passes(self):
        probes = []

        def probe(service):
            probes.append(service.index)
            if len(probes) <= 2:
                raise ServeError("still wedged")

        pool = make_pool(
            num_replicas=1,
            probe=probe,
            health_policy=HealthPolicy(
                probe_interval_seconds=0.01, quarantine_seconds=0.02, quarantine_backoff=1.0
            ),
        )
        try:
            pool.eject_replica(0)
            deadline = time.monotonic() + 5.0
            while pool.health_snapshot()["status"] != "ok" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.health_snapshot()["status"] == "ok"
            assert probes == [0, 0, 0]  # two failed probes, then the re-admitting one
            counters = pool.metrics.as_dict()
            assert counters["pool.ejections_total"]["value"] == 1
            assert counters["pool.readmissions_total"]["value"] == 1
        finally:
            pool.close()
