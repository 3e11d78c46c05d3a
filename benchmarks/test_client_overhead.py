"""Micro-benchmark: RemoteDiagnoser client overhead vs a raw keep-alive socket.

The ``repro.api.RemoteDiagnoser`` wraps every request in schema serialization,
typed-error mapping, retry bookkeeping, and report parsing.  All of that must
stay cheap relative to the HTTP round trip itself — a typed client nobody can
afford to use would push callers back to hand-rolled ``http.client`` code and
ad-hoc dict checks, which is exactly what the API redesign removed.

The measurement posts the same small ``/diagnose`` payload repeatedly against
one asyncio gateway (response cache ON, so after warm-up the server side is a
memory lookup and the client-side work dominates the difference):

* ``raw``    — ``http.client.HTTPConnection`` with a pre-encoded body and no
  response parsing beyond ``read()`` (the floor: transport only);
* ``client`` — ``RemoteDiagnoser.diagnose_arrays`` (schema encode, send,
  decode, validate, typed report).

``client_vs_raw_efficiency`` = raw_seconds / client_seconds, so 1.0 means
"free" and the committed baseline gates how much overhead the client may add.
Results go to ``BENCH_client.json`` and are gated by ``check_regression.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import time

import pytest

from repro.api import DiagnoserConfig, RemoteDiagnoser
from repro.core import DeepMorph
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from repro.optim import Adam
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool
from repro.training import Trainer

WARMUP_REQUESTS = 5
MEASURED_REQUESTS = 200
NUM_CASES = 8
#: Floor on shared CI runners; locally the client measures ~0.34x raw (the
#: difference is the per-request schema encode the raw path pre-amortizes).
MIN_EFFICIENCY = float(os.environ.get("BENCH_CLIENT_MIN_EFFICIENCY", "0.15"))
RESULT_PATH = os.environ.get("BENCH_CLIENT_JSON", "BENCH_client.json")

#: The wire-codec comparison uses a fatter batch (still thin by production
#: standards) so the per-request array serialization is measurable.
WIRE_NUM_CASES = 32
#: Floor on the binary codec's efficiency advantage over the JSON codec.
MIN_BINARY_VS_JSON = float(os.environ.get("BENCH_WIRE_MIN_RATIO", "2.0"))
WIRE_RESULT_PATH = os.environ.get("BENCH_WIRE_JSON", "BENCH_wire.json")


@pytest.fixture(scope="module")
def gateway_scenario(tmp_path_factory):
    """A running gateway with one registered artifact plus the benchmark payload."""
    generator = SyntheticImageClassification(SyntheticConfig(
        num_classes=4, image_size=10, channels=1, templates_per_class=2,
        blobs_per_template=2, bars_per_template=1, noise_std=0.05,
        max_shift=1, distractor_bars=0, seed=5,
    ))
    train, test = generator.splits(n_train_per_class=20, n_test_per_class=12, rng=0)
    model = LeNet(
        input_shape=(1, 10, 10), num_classes=4,
        conv_channels=(4,), dense_units=(16,), kernel_size=3, rng=3,
    )
    Trainer(model, Adam(model.parameters(), lr=0.02), rng=1).fit(
        train, epochs=4, batch_size=16
    )
    model.eval()
    morph = DeepMorph(probe_epochs=2, rng=2).fit(model, train)

    registry_dir = tmp_path_factory.mktemp("client_bench_registry")
    ArtifactRegistry(registry_dir).register("bench", morph)

    inputs, labels = test.arrays()

    pool = ReplicaPool.from_registry(
        registry_dir, num_replicas=1, num_workers=1,
    )
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
    try:
        yield gateway, inputs, labels
    finally:
        gateway.shutdown()
        pool.close()


def _measure_raw(gateway, payload: bytes) -> float:
    connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=60)
    try:
        for _ in range(WARMUP_REQUESTS):
            connection.request(
                "POST", "/diagnose", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200, body
        start = time.perf_counter()
        for _ in range(MEASURED_REQUESTS):
            connection.request(
                "POST", "/diagnose", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
        return time.perf_counter() - start
    finally:
        connection.close()


def _measure_client(gateway, inputs, labels) -> float:
    client = RemoteDiagnoser(
        gateway.url,
        config=DiagnoserConfig(max_retries=0),
        default_model="bench",
    )
    try:
        for _ in range(WARMUP_REQUESTS):
            report = client.diagnose_arrays(inputs, labels)
            assert report.num_cases >= 1
        start = time.perf_counter()
        for _ in range(MEASURED_REQUESTS):
            client.diagnose_arrays(inputs, labels)
        return time.perf_counter() - start
    finally:
        client.close()


def test_remote_client_overhead_vs_raw_socket(gateway_scenario):
    gateway, inputs_arr, labels_arr = gateway_scenario
    inputs = inputs_arr[:NUM_CASES].tolist()
    labels = labels_arr[:NUM_CASES].tolist()
    # The raw path posts the exact bytes the client would send, so both sides
    # hit the same response-cache entry after warm-up and the comparison
    # isolates client-side work (schema, typed errors, report parsing).
    payload = json.dumps({
        "schema": "v1", "model": "bench", "inputs": inputs, "labels": labels,
    }).encode("utf-8")

    # Parity guard: the typed client and the raw socket see the same answer.
    report = RemoteDiagnoser(gateway.url, default_model="bench").diagnose_arrays(
        inputs, labels
    )
    connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=60)
    try:
        connection.request(
            "POST", "/diagnose", body=payload, headers={"Content-Type": "application/json"}
        )
        raw_answer = json.loads(connection.getresponse().read())
    finally:
        connection.close()
    assert raw_answer == report.to_dict()

    raw_seconds = _measure_raw(gateway, payload)
    client_seconds = _measure_client(gateway, inputs, labels)

    efficiency = raw_seconds / client_seconds
    raw_rps = MEASURED_REQUESTS / raw_seconds
    client_rps = MEASURED_REQUESTS / client_seconds
    overhead_us = (client_seconds - raw_seconds) / MEASURED_REQUESTS * 1e6
    print(
        f"\nraw socket      {raw_rps:8.1f} req/s"
        f"\nRemoteDiagnoser {client_rps:8.1f} req/s"
        f"\nclient_vs_raw_efficiency {efficiency:.3f} "
        f"(overhead {overhead_us:+.1f} us/request)"
    )

    record = {
        "measured_requests": MEASURED_REQUESTS,
        "cases_per_request": NUM_CASES,
        "raw_rps": raw_rps,
        "client_rps": client_rps,
        "client_overhead_us_per_request": overhead_us,
        "client_vs_raw_efficiency": efficiency,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    assert efficiency >= MIN_EFFICIENCY, (
        f"RemoteDiagnoser reached only {efficiency:.2f}x the raw-socket rate "
        f"(floor: {MIN_EFFICIENCY}); client-side overhead has regressed"
    )


def _measure_codec(gateway, inputs, labels, codec: str) -> float:
    """Measured seconds for one RemoteDiagnoser posting numpy arrays via ``codec``."""
    client = RemoteDiagnoser(
        gateway.url,
        config=DiagnoserConfig(max_retries=0, wire_codec=codec),
        default_model="bench",
    )
    try:
        for _ in range(WARMUP_REQUESTS):
            report = client.diagnose_arrays(inputs, labels)
            assert report.num_cases >= 1
        start = time.perf_counter()
        for _ in range(MEASURED_REQUESTS):
            client.diagnose_arrays(inputs, labels)
        return time.perf_counter() - start
    finally:
        client.close()


def test_binary_codec_efficiency_vs_json(gateway_scenario):
    """The point of the binary wire format: skip the float→text→float tax.

    Both clients post the *same numpy batch* to the same warmed gateway.  The
    response cache keys on the raw body, so the binary client's first request
    (the parity guard below) is a miss; every later request of either client
    is a byte-identical repeat answered from memory.  The JSON client pays
    ``tolist`` + ``dumps`` per request, the binary client a contiguous buffer
    copy.  The gated metric is
    the ratio of their ``client_vs_raw_efficiency`` values, which reduces to
    ``json_seconds / binary_seconds``.
    """
    gateway, inputs_arr, labels_arr = gateway_scenario
    inputs = inputs_arr[:WIRE_NUM_CASES]
    labels = labels_arr[:WIRE_NUM_CASES]

    # Parity guard: both codecs decode to the bitwise-same report.
    json_client = RemoteDiagnoser(gateway.url, default_model="bench")
    binary_client = RemoteDiagnoser(
        gateway.url, config=DiagnoserConfig(wire_codec="binary"), default_model="bench"
    )
    try:
        assert (
            json_client.diagnose_arrays(inputs, labels).to_dict()
            == binary_client.diagnose_arrays(inputs, labels).to_dict()
        )
    finally:
        json_client.close()
        binary_client.close()

    raw_payload = json.dumps({
        "schema": "v1", "model": "bench",
        "inputs": inputs.tolist(), "labels": labels.tolist(),
    }).encode("utf-8")
    raw_seconds = _measure_raw(gateway, raw_payload)
    json_seconds = _measure_codec(gateway, inputs, labels, "json")
    binary_seconds = _measure_codec(gateway, inputs, labels, "binary")

    json_efficiency = raw_seconds / json_seconds
    binary_efficiency = raw_seconds / binary_seconds
    ratio = json_seconds / binary_seconds
    print(
        f"\nraw socket    {MEASURED_REQUESTS / raw_seconds:8.1f} req/s"
        f"\njson client   {MEASURED_REQUESTS / json_seconds:8.1f} req/s"
        f" (efficiency {json_efficiency:.3f})"
        f"\nbinary client {MEASURED_REQUESTS / binary_seconds:8.1f} req/s"
        f" (efficiency {binary_efficiency:.3f})"
        f"\nbinary_vs_json_efficiency {ratio:.3f}"
    )

    record = {
        "measured_requests": MEASURED_REQUESTS,
        "cases_per_request": WIRE_NUM_CASES,
        "raw_rps": MEASURED_REQUESTS / raw_seconds,
        "json_client_rps": MEASURED_REQUESTS / json_seconds,
        "binary_client_rps": MEASURED_REQUESTS / binary_seconds,
        "json_client_vs_raw_efficiency": json_efficiency,
        "binary_client_vs_raw_efficiency": binary_efficiency,
        "binary_vs_json_efficiency": ratio,
    }
    with open(WIRE_RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    assert ratio >= MIN_BINARY_VS_JSON, (
        f"binary codec reached only {ratio:.2f}x the JSON client's efficiency "
        f"(floor: {MIN_BINARY_VS_JSON}); the raw-array transport advantage has regressed"
    )
