"""Tracing-overhead benchmark: the observability layer must be ~free.

Two claims are measured and gated:

* **Disabled** tracing (the default) costs one method call and one attribute
  check per instrumented stage — the no-op span path.  Measured directly as
  ns/span below (recorded, not gated: absolute ns do not transfer between
  machines).
* **Enabled** tracing (``repro-serve --trace``: in-memory ring + span-derived
  histograms) must not materially reduce serving throughput.  Measured as
  gateway throughput traced vs untraced on the same concurrent-client
  workload as ``test_gateway_throughput.py``; the ratio
  ``traced_vs_untraced_throughput`` is written to ``BENCH_obs.json`` and
  gated in CI by ``benchmarks/check_regression.py`` against a conservative
  baseline (0.90, i.e. <=10% overhead, with the gate's 30% tolerance
  absorbing runner noise).

The traced phase also exports a small JSONL trace
(``BENCH_obs_trace.jsonl``) that CI uploads as an artifact — a real,
inspectable span tree from the exact commit under test (render it with
``repro-trace``).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro import obs
from repro.core import DeepMorph
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from repro.optim import Adam
from repro.serve import ArtifactRegistry, DiagnosisGateway, MetricsRegistry, ReplicaPool
from repro.training import Trainer

NUM_CLIENTS = 16
REQUESTS_PER_CLIENT = 12
NUM_CASES = 16
NUM_REPLICAS = 2
#: In-test floor: catastrophic overhead fails immediately; the committed
#: baseline in benchmarks/baselines/BENCH_obs.json gates the [0.63, 1.0] band.
MIN_RATIO = float(os.environ.get("BENCH_OBS_MIN_RATIO", "0.60"))
RESULT_PATH = os.environ.get("BENCH_OBS_JSON", "BENCH_obs.json")
TRACE_SAMPLE_PATH = os.environ.get("BENCH_OBS_TRACE", "BENCH_obs_trace.jsonl")


@pytest.fixture(scope="module")
def serving_scenario(tmp_path_factory):
    """A registered fitted model plus one production payload (tiny, fast)."""
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

    registry_dir = tmp_path_factory.mktemp("obs_bench_registry")
    ArtifactRegistry(registry_dir).register("bench", morph)

    inputs, labels = test.arrays()
    payload = json.dumps({
        "model": "bench",
        "inputs": inputs[:NUM_CASES].tolist(),
        "labels": labels[:NUM_CASES].tolist(),
    }).encode("utf-8")
    return registry_dir, payload


def _post_once(host: str, port: int, payload: bytes) -> None:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            "POST", "/diagnose", body=payload, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200, body
    finally:
        connection.close()


def _hammer(host: str, port: int, payload: bytes):
    """NUM_CLIENTS keep-alive clients; returns (wall_seconds, requests, errors)."""
    barrier = threading.Barrier(NUM_CLIENTS + 1)
    counts = []
    errors = []
    lock = threading.Lock()

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        done = 0
        connection.connect()
        barrier.wait()
        try:
            for _ in range(REQUESTS_PER_CLIENT):
                connection.request(
                    "POST", "/diagnose", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                done += 1
                if response.status != 200:
                    with lock:
                        errors.append(response.status)
        except Exception as error:  # noqa: BLE001 - recorded and failed below
            with lock:
                errors.append(repr(error))
        finally:
            connection.close()
        with lock:
            counts.append(done)

    threads = [threading.Thread(target=client) for _ in range(NUM_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, sum(counts), errors


def _noop_span_ns(iterations: int = 50_000) -> float:
    """ns per instrumented stage with tracing disabled (the default path)."""
    tracer = obs.Tracer(enabled=False)
    start = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("bench.noop"):
            pass
    return (time.perf_counter() - start) / iterations * 1e9


def test_tracing_overhead_is_bounded(serving_scenario):
    registry_dir, payload = serving_scenario
    assert not obs.get_tracer().enabled, "benchmark must start from the untraced default"

    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=NUM_REPLICAS,
        max_queue_per_replica=NUM_CLIENTS,
    )
    gateway = DiagnosisGateway(pool, port=0).start()
    try:
        # Warm every replica and the response cache before either phase, so
        # the comparison isolates front-end + instrumentation cost.
        for _ in range(NUM_REPLICAS + 1):
            _post_once(gateway.host, gateway.port, payload)

        wall, requests, errors = _hammer(gateway.host, gateway.port, payload)
        assert not errors, f"untraced errors: {errors[:5]}"
        untraced_rps = requests / wall

        # The deployed --trace configuration: in-memory ring + per-stage
        # histograms (JSONL export is benchmarked separately below because a
        # per-span fsync-free file append is a deliberate opt-in cost).
        obs.configure(enabled=True, metrics=MetricsRegistry(), reset=True)
        try:
            _post_once(gateway.host, gateway.port, payload)  # traced warm-up
            wall, requests, errors = _hammer(gateway.host, gateway.port, payload)
            assert not errors, f"traced errors: {errors[:5]}"
            traced_rps = requests / wall

            # A small, real trace sample for the CI artifact.
            obs.configure(enabled=True, jsonl_path=TRACE_SAMPLE_PATH)
            for _ in range(3):
                _post_once(gateway.host, gateway.port, payload)
            obs.get_tracer().flush()
        finally:
            obs.configure(enabled=False, reset=True)

        ratio = traced_rps / untraced_rps
        noop_ns = _noop_span_ns()
        print(
            f"\nuntraced {untraced_rps:8.1f} req/s   traced {traced_rps:8.1f} req/s   "
            f"ratio x{ratio:.3f}   disabled-span {noop_ns:7.1f} ns"
        )

        sample_spans = obs.load_jsonl(TRACE_SAMPLE_PATH)
        assert sample_spans, "traced phase produced no JSONL sample"
        assert any(s.get("name") == "gateway.request" for s in sample_spans)

        record = {
            "clients": NUM_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "cases_per_request": NUM_CASES,
            "replicas": NUM_REPLICAS,
            "untraced_throughput_rps": untraced_rps,
            "traced_throughput_rps": traced_rps,
            "traced_vs_untraced_throughput": ratio,
            "disabled_span_ns": noop_ns,
            "trace_sample_spans": len(sample_spans),
        }
        with open(RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)

        assert ratio >= MIN_RATIO, (
            f"tracing reduced gateway throughput to x{ratio:.2f} of untraced "
            f"(floor: x{MIN_RATIO})"
        )
    finally:
        gateway.shutdown()
        pool.close()
