"""End-to-end observability tests: one request, one connected span tree.

The acceptance bar of the tracing PR: a diagnosis request through any
``repro.api`` backend must produce a single connected trace — client facade
spans down through gateway dispatch, replica routing, batching, extraction,
and the diagnosis kernels — carrying one request id from the client's
context to the server's response header.  And with tracing disabled (the
default), the stack must behave bitwise-identically to the untraced seed.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro import obs
from repro.api import DiagnoserConfig, LocalDiagnoser, RemoteDiagnoser, ServiceDiagnoser
from repro.api import diagnoser as diagnoser_module
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("obs_registry")
    ArtifactRegistry(root).register("tiny", fitted_deepmorph, metadata={"suite": "obs"})
    return root


@pytest.fixture(scope="module")
def pool(registry_dir):
    pool = ReplicaPool.from_registry(
        registry_dir, num_replicas=1, num_workers=1
    )
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def gateway(pool):
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
    yield gateway
    gateway.shutdown()


@pytest.fixture
def traced(tmp_path, gateway):
    """Tracing on with memory + JSONL + the gateway's metrics registry."""
    path = str(tmp_path / "spans.jsonl")
    tracer = obs.configure(
        enabled=True, jsonl_path=path, metrics=gateway.metrics, reset=True
    )
    yield tracer, path
    obs.configure(enabled=False, reset=True)


@pytest.fixture(scope="module")
def tiny_payload(tiny_splits):
    _, test = tiny_splits
    inputs, labels = test.arrays()
    return inputs, labels


def _spans_from(path, timeout=5.0):
    """Read the JSONL trace, waiting for the tree to close.

    The server root span finishes *after* the response bytes reach the
    client, so the export can trail the client's return by a scheduling
    beat; poll until every parent resolves (or the timeout trips and the
    caller's assertions report what is missing).
    """
    deadline = time.monotonic() + timeout
    while True:
        obs.get_tracer().flush()
        spans = obs.load_jsonl(path)
        span_ids = {span["span_id"] for span in spans}
        complete = spans and all(
            span["parent_id"] is None or span["parent_id"] in span_ids for span in spans
        )
        if complete or time.monotonic() > deadline:
            return spans
        time.sleep(0.01)


def _assert_connected(spans):
    """Every span links to the one trace; parents resolve within the file."""
    trace_ids = {span["trace_id"] for span in spans}
    assert len(trace_ids) == 1, f"expected one trace, got {trace_ids}"
    span_ids = {span["span_id"] for span in spans}
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, f"expected one root, got {[s['name'] for s in roots]}"
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in span_ids, f"dangling parent on {span['name']}"
    return roots[0]


class TestRemoteBackendTrace:
    def test_client_and_server_stitch_into_one_trace(self, gateway, traced, tiny_payload):
        _, path = traced
        inputs, labels = tiny_payload
        client = RemoteDiagnoser(gateway.url, default_model="tiny")
        try:
            report = client.diagnose_arrays(inputs.tolist(), labels.tolist())
        finally:
            client.close()

        spans = _spans_from(path)
        root = _assert_connected(spans)
        names = {span["name"] for span in spans}

        # Client side: facade root and the HTTP round trip.
        assert root["name"] == "diagnoser.request"
        assert root["attributes"]["backend"] == "RemoteDiagnoser"
        assert "remote.roundtrip" in names

        # Server side, same trace: gateway stages through to the kernels.
        for stage in (
            "gateway.request",
            "gateway.dispatch",
            "replicas.route",
            "batching.batch",
            "extract.coalesced",
            "service.diagnose",
            "service.footprints",
            "service.classify",
        ):
            assert stage in names, f"missing stage {stage} in {sorted(names)}"

        # The server root is parented under the client's round-trip span.
        roundtrip = next(s for s in spans if s["name"] == "remote.roundtrip")
        server_root = next(s for s in spans if s["name"] == "gateway.request")
        assert server_root["parent_id"] == roundtrip["span_id"]
        assert server_root["kind"] == "request"

        # One request id, client to server to report.
        request_id = root["attributes"]["request_id"]
        assert report.request_id == request_id
        stamped = [s for s in spans if s["attributes"].get("request_id")]
        assert {s["attributes"]["request_id"] for s in stamped} == {request_id}
        assert server_root["attributes"]["request_id"] == request_id


class TestServiceBackendTrace:
    def test_in_process_backend_traces_the_kernels(self, registry_dir, traced, tiny_payload):
        _, path = traced
        inputs, labels = tiny_payload
        config = DiagnoserConfig(num_workers=1)
        with ServiceDiagnoser.from_registry(registry_dir, config=config) as diagnoser:
            report = diagnoser.diagnose_arrays(inputs, labels, model="tiny")

        spans = _spans_from(path)
        root = _assert_connected(spans)
        names = {span["name"] for span in spans}
        assert root["name"] == "diagnoser.request"
        assert root["attributes"]["backend"] == "ServiceDiagnoser"
        for stage in ("service.diagnose", "batching.batch", "extract.coalesced",
                      "service.footprints", "service.specifics", "service.classify"):
            assert stage in names
        # The batching engine's drain thread re-parents into the request's
        # trace via the captured SpanContext.
        batch = next(s for s in spans if s["name"] == "batching.batch")
        assert batch["trace_id"] == root["trace_id"]
        assert report.request_id == root["attributes"]["request_id"]


class TestLocalBackendTrace:
    def test_local_backend_traces_under_the_facade_root(
        self, registry_dir, traced, tiny_payload
    ):
        _, path = traced
        inputs, labels = tiny_payload
        diagnoser = LocalDiagnoser.from_registry(registry_dir, "tiny")
        report = diagnoser.diagnose_arrays(inputs, labels)

        spans = _spans_from(path)
        root = _assert_connected(spans)
        assert root["name"] == "diagnoser.request"
        assert root["attributes"]["backend"] == "LocalDiagnoser"
        assert report.request_id == root["attributes"]["request_id"]


    def test_shards_trace_under_the_facade_root(
        self, registry_dir, traced, tiny_payload, monkeypatch
    ):
        """Shards run on pool threads in copies of the caller's context."""
        _, path = traced
        inputs, labels = tiny_payload
        monkeypatch.setattr(diagnoser_module, "_usable_cores", lambda: 2)
        config = DiagnoserConfig(extraction_batch_size=8)
        diagnoser = LocalDiagnoser.from_registry(registry_dir, "tiny", config=config)
        report = diagnoser.diagnose_arrays(inputs, labels)

        spans = _spans_from(path)
        root = _assert_connected(spans)
        assert root["name"] == "diagnoser.request"
        shards = [s for s in spans if s["name"] == "diagnoser.shard"]
        assert len(shards) == 2
        assert all(shard["parent_id"] == root["span_id"] for shard in shards)
        assert sorted(shard["attributes"]["num_cases"] for shard in shards) == [16, 24]
        shard_ids = {shard["span_id"] for shard in shards}
        extractions = [s for s in spans if s["name"] == "extract.coalesced"]
        assert len(extractions) == 2
        assert all(span["parent_id"] in shard_ids for span in extractions)
        assert report.request_id == root["attributes"]["request_id"]


class TestDisabledTracingParity:
    def test_reports_identical_before_and_after_a_traced_run(
        self, registry_dir, tmp_path, tiny_payload
    ):
        inputs, labels = tiny_payload
        diagnoser = LocalDiagnoser.from_registry(registry_dir, "tiny")

        untraced_before = diagnoser.diagnose_arrays(inputs, labels).to_dict()

        obs.configure(enabled=True, jsonl_path=str(tmp_path / "t.jsonl"), reset=True)
        try:
            traced_report = diagnoser.diagnose_arrays(inputs, labels).to_dict()
        finally:
            obs.configure(enabled=False, reset=True)

        untraced_after = diagnoser.diagnose_arrays(inputs, labels).to_dict()

        # Disabled tracing is the seed behavior, bit for bit.
        assert untraced_before == untraced_after
        assert "request_id" not in untraced_before["metadata"]

        # A traced run differs only by the request id it carries.
        traced_metadata = dict(traced_report["metadata"])
        assert traced_metadata.pop("request_id")
        traced_report["metadata"] = traced_metadata
        assert traced_report == untraced_before


class TestGatewayOperationalSurface:
    def _request(self, url, payload=None, headers=None):
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(url, data=body, headers=dict(headers or {}))
        if body is not None:
            request.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()

    def test_client_request_id_echoed_and_visible_in_debug_traces(
        self, gateway, traced, tiny_payload
    ):
        inputs, labels = tiny_payload
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}
        status, headers, _ = self._request(
            gateway.url + "/diagnose", payload, {"X-Request-ID": "itest-123"}
        )
        assert status == 200
        assert headers["X-Request-ID"] == "itest-123"

        _, _, body = self._request(gateway.url + "/debug/traces")
        debug = json.loads(body)
        assert debug["enabled"] is True
        assert any(t["request_id"] == "itest-123" for t in debug["recent"])

    def test_healthz(self, gateway, traced):
        status, _, body = self._request(gateway.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["tracing"] is True
        assert payload["replicas"] >= 1

    def test_metrics_text_exposition_includes_span_histograms(
        self, gateway, traced, tiny_payload
    ):
        inputs, labels = tiny_payload
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}
        self._request(gateway.url + "/diagnose", payload)

        status, headers, body = self._request(gateway.url + "/metrics?format=text")
        text = body.decode("utf-8")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE" in text
        assert 'component="gateway"' in text
        assert 'component="pool"' in text
        # Span-derived per-stage histograms land in the same scrape document.
        assert "trace_gateway_request_seconds_bucket" in text

        # JSON stays the default for existing dashboards.
        _, json_headers, json_body = self._request(gateway.url + "/metrics")
        assert json_headers["Content-Type"].startswith("application/json")
        assert "gateway" in json.loads(json_body)
