"""Resilience-overhead benchmark: the safety net must be ~free when idle.

The resilience layer (PR 8) threads four mechanisms through the hot path of
every request: a deadline contextvar bound and checked per request, a fault
injector consulted at five compiled-in sites, per-replica health accounting
on every lease release, and (client-side) a circuit-breaker gate per call.
All of them are designed so the *disarmed* path — no deadline header, no
chaos armed, healthy replicas, closed breaker — costs an attribute check or
one branch per site.

This benchmark measures that claim the same way ``test_obs_overhead.py``
measures tracing: gateway throughput on the identical concurrent-client
workload, compared against the committed pre-resilience anchor.  Since the
safety net cannot be compiled out, the measured ratio is **armed-but-idle
chaos vs disarmed chaos** — the injector enabled with a never-firing plan
(probability 0) against the default disabled injector.  The ratio
``armed_vs_disarmed_throughput`` is written to ``BENCH_resilience.json`` and
gated in CI by ``benchmarks/check_regression.py`` (baseline 0.90, i.e.
<=10% overhead, the gate's 30% tolerance absorbing runner noise).

Also recorded (not gated; absolute ns do not transfer between machines):

* ns per disarmed ``FaultInjector.inject`` call — the per-site cost;
* ns per ``CircuitBreaker.allow`` + ``record_success`` pair — the per-call
  client cost;
* ns per deadline bind/check/unbind cycle — the per-request cost.
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
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultPlan,
    bind_deadline,
    check_deadline,
    configure_chaos,
    unbind_deadline,
)
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool
from repro.training import Trainer

NUM_CLIENTS = 16
REQUESTS_PER_CLIENT = 12
NUM_CASES = 16
NUM_REPLICAS = 2
#: In-test floor: catastrophic overhead fails immediately; the committed
#: baseline in benchmarks/baselines/BENCH_resilience.json gates the rest.
MIN_RATIO = float(os.environ.get("BENCH_RESILIENCE_MIN_RATIO", "0.60"))
RESULT_PATH = os.environ.get("BENCH_RESILIENCE_JSON", "BENCH_resilience.json")

SERVICE_KWARGS = dict(num_workers=1)


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

    registry_dir = tmp_path_factory.mktemp("resilience_bench_registry")
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


def _disarmed_inject_ns(iterations: int = 200_000) -> float:
    """ns per compiled-in site visit with the injector disarmed (the default)."""
    injector = FaultInjector(enabled=False)
    start = time.perf_counter()
    for _ in range(iterations):
        injector.inject("replica.dispatch")
    return (time.perf_counter() - start) / iterations * 1e9


def _breaker_cycle_ns(iterations: int = 100_000) -> float:
    """ns per closed-breaker allow + record_success pair (the happy path)."""
    breaker = CircuitBreaker(failure_threshold=5, reset_seconds=5.0)
    start = time.perf_counter()
    for _ in range(iterations):
        breaker.allow()
        breaker.record_success()
    return (time.perf_counter() - start) / iterations * 1e9


def _deadline_cycle_ns(iterations: int = 100_000) -> float:
    """ns per bind + check + unbind cycle (one request's deadline cost)."""
    deadline = Deadline.after(3600.0)
    start = time.perf_counter()
    for _ in range(iterations):
        token = bind_deadline(deadline)
        check_deadline("bench")
        unbind_deadline(token)
    return (time.perf_counter() - start) / iterations * 1e9


def test_resilience_overhead_is_bounded(serving_scenario):
    registry_dir, payload = serving_scenario

    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=NUM_REPLICAS,
        max_queue_per_replica=NUM_CLIENTS,
        **SERVICE_KWARGS,
    )
    gateway = DiagnosisGateway(pool, port=0).start()
    try:
        # Warm every replica and the response cache before either phase, so
        # the comparison isolates the front-end + resilience bookkeeping.
        for _ in range(NUM_REPLICAS + 1):
            _post_once(gateway.host, gateway.port, payload)

        configure_chaos(None)  # belt and braces: the disarmed default
        wall, requests, errors = _hammer(gateway.host, gateway.port, payload)
        assert not errors, f"disarmed errors: {errors[:5]}"
        disarmed_rps = requests / wall

        # Armed but idle: every site pays the full draw path (lock + seeded
        # rng) yet no fault ever fires — the worst honest case of carrying
        # the chaos machinery through production traffic.
        configure_chaos(
            [FaultPlan(site="replica.dispatch", mode="delay", probability=0.0)],
            seed=11,
        )
        try:
            _post_once(gateway.host, gateway.port, payload)  # armed warm-up
            wall, requests, errors = _hammer(gateway.host, gateway.port, payload)
            assert not errors, f"armed errors: {errors[:5]}"
            armed_rps = requests / wall
        finally:
            configure_chaos(None)

        ratio = armed_rps / disarmed_rps
        inject_ns = _disarmed_inject_ns()
        breaker_ns = _breaker_cycle_ns()
        deadline_ns = _deadline_cycle_ns()
        print(
            f"\ndisarmed {disarmed_rps:8.1f} req/s   armed-idle {armed_rps:8.1f} req/s   "
            f"ratio x{ratio:.3f}   disarmed-inject {inject_ns:6.1f} ns   "
            f"breaker {breaker_ns:6.1f} ns   deadline {deadline_ns:6.1f} ns"
        )

        record = {
            "clients": NUM_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "cases_per_request": NUM_CASES,
            "replicas": NUM_REPLICAS,
            "disarmed_throughput_rps": disarmed_rps,
            "armed_idle_throughput_rps": armed_rps,
            "armed_vs_disarmed_throughput": ratio,
            "disarmed_inject_ns": inject_ns,
            "breaker_cycle_ns": breaker_ns,
            "deadline_cycle_ns": deadline_ns,
        }
        with open(RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
        print(f"wrote {RESULT_PATH}")

        assert ratio >= MIN_RATIO, (
            f"armed-but-idle chaos costs too much: x{ratio:.3f} < x{MIN_RATIO} "
            f"({disarmed_rps:.1f} -> {armed_rps:.1f} req/s)"
        )
    finally:
        gateway.shutdown()
        pool.shutdown()
