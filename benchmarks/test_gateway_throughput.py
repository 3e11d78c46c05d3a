"""Concurrent-client benchmark: the gateway's response cache on vs off.

The workload models production monitoring: 32 keep-alive clients repeatedly
submit recurring production cases while a defect is investigated, so the
measurement isolates the serving layer — HTTP handling, dispatch, caching,
GIL contention between the executor threads — rather than raw extraction
compute, which the extraction and diagnosis benchmarks cover in isolation.

The same replica pool is served by two gateways: ``gateway`` as deployed
(response cache on) and ``gateway_nocache`` (response cache off).  The cached
gateway answers repeats on the event loop at memory speed, while the uncached
one runs the full pipeline on a replica for every repeat: extraction,
specifics and scoring.  Both must return payloads
**bitwise-identical** to an in-process ``DiagnosisService`` encoded with
``JsonCodec``, so the front end never changes the answer.

Results (throughput, p50/p99 latency per gateway, the cache-on vs cache-off
speedup) are written to ``BENCH_gateway.json`` and gated in CI by
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro.core import DeepMorph
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from repro.optim import Adam
from repro.serve import ArtifactRegistry, DiagnosisGateway, DiagnosisService, ReplicaPool
from repro.training import Trainer
from repro.wire import JsonCodec

NUM_CLIENTS = 32
REQUESTS_PER_CLIENT = 12
NUM_CASES = 16
NUM_REPLICAS = 2
#: Acceptance floor on shared CI runners; a 2-core VM measured x7.5-10.6.
MIN_SPEEDUP = float(os.environ.get("BENCH_GATEWAY_MIN_SPEEDUP", "1.3"))
RESULT_PATH = os.environ.get("BENCH_GATEWAY_JSON", "BENCH_gateway.json")


@pytest.fixture(scope="module")
def serving_scenario(tmp_path_factory):
    """A registered fitted model, one production payload, and its reference answer."""
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

    registry_dir = tmp_path_factory.mktemp("gateway_bench_registry")
    ArtifactRegistry(registry_dir).register("bench", morph)

    inputs, labels = test.arrays()
    inputs, labels = inputs[:NUM_CASES].tolist(), labels[:NUM_CASES].tolist()
    payload = json.dumps({"model": "bench", "inputs": inputs, "labels": labels}).encode("utf-8")
    with DiagnosisService(registry_dir) as service:
        reference = JsonCodec().encode_report(service.diagnose("bench", inputs, labels).as_dict())
    return registry_dir, payload, reference


def _post_once(host: str, port: int, payload: bytes) -> bytes:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            "POST", "/diagnose", body=payload, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body
    finally:
        connection.close()


def _hammer(host: str, port: int, payload: bytes):
    """NUM_CLIENTS keep-alive clients, each posting REQUESTS_PER_CLIENT times.

    Returns ``(wall_seconds, latencies, errors)``.
    """
    barrier = threading.Barrier(NUM_CLIENTS + 1)
    latencies = []
    errors = []
    lock = threading.Lock()

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        mine = []
        # Establish the keep-alive connection before the barrier so the
        # measured window starts with a warm fleet (how a load balancer holds
        # persistent upstream connections) rather than a thundering herd of
        # TCP handshakes.
        connection.connect()
        barrier.wait()
        try:
            for _ in range(REQUESTS_PER_CLIENT):
                start = time.perf_counter()
                connection.request(
                    "POST", "/diagnose", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                mine.append(time.perf_counter() - start)
                if response.status != 200:
                    with lock:
                        errors.append(response.status)
        except Exception as error:  # noqa: BLE001 - recorded and failed below
            with lock:
                errors.append(repr(error))
        finally:
            connection.close()
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(NUM_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, errors


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _summarize(wall: float, latencies) -> dict:
    ordered = sorted(latencies)
    return {
        "requests": len(latencies),
        "throughput_rps": len(latencies) / wall,
        "p50_ms": _quantile(ordered, 0.50) * 1e3,
        "p99_ms": _quantile(ordered, 0.99) * 1e3,
    }


def test_response_cache_speeds_up_recurring_traffic(serving_scenario):
    registry_dir, payload, reference = serving_scenario

    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=NUM_REPLICAS,
        max_queue_per_replica=NUM_CLIENTS,  # admit the whole benchmark, shed nothing
    )
    gateway = DiagnosisGateway(pool, port=0).start()
    nocache = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
    try:
        # Parity first (and response-cache warm-up): both gateways must return
        # the in-process reference bitwise.  Warm every replica's model
        # residency, not just the one the first request was routed to —
        # sequential requests round-robin across equally-idle replicas.
        for target in (gateway, nocache):
            for _ in range(NUM_REPLICAS):
                assert _post_once(target.host, target.port, payload) == reference, (
                    "gateway disagrees with the in-process service on the same request"
                )

        summaries = {}
        for label, target in (("gateway_nocache", nocache), ("gateway", gateway)):
            wall, latencies, errors = _hammer(target.host, target.port, payload)
            assert not errors, f"{label} errors: {errors[:5]}"
            assert len(latencies) == NUM_CLIENTS * REQUESTS_PER_CLIENT
            summaries[label] = _summarize(wall, latencies)
            summary = summaries[label]
            print(
                f"\n{label:16s} {summary['throughput_rps']:8.1f} req/s   "
                f"p50 {summary['p50_ms']:6.2f} ms   p99 {summary['p99_ms']:6.2f} ms"
            )

        speedup = (
            summaries["gateway"]["throughput_rps"]
            / summaries["gateway_nocache"]["throughput_rps"]
        )
        print(f"gateway response cache on vs off speedup: x{speedup:.2f}")

        payload_record = {
            "clients": NUM_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "cases_per_request": NUM_CASES,
            "replicas": NUM_REPLICAS,
            "gateway_cache_vs_nocache_speedup": speedup,
            **summaries,
        }
        with open(RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload_record, handle, indent=2, sort_keys=True)

        assert speedup >= MIN_SPEEDUP, (
            f"the response cache only reached x{speedup:.2f} the uncached gateway's "
            f"throughput at {NUM_CLIENTS} concurrent clients (floor: x{MIN_SPEEDUP})"
        )
    finally:
        nocache.shutdown()
        gateway.shutdown()
        pool.close()
