"""Monitor-overhead benchmark: online drift monitoring must be nearly free.

The monitor (PR 10) taps the batching engine's drain loop: every freshly
extracted trajectory stack is offered to a per-model sliding window with a
non-blocking append, and drift is re-scored only every ``evaluate_every``
accepted cases.  The serving hot path therefore pays one ``try``-guarded
method call plus an array copy per extraction — the JS-divergence scoring
itself runs amortized, and a contended window *drops* the observation rather
than stalling the request.

This benchmark measures that claim the way ``test_obs_overhead.py`` measures
tracing: identical concurrent-client gateway workloads, monitor-on vs
monitor-off.  Both phases
run with the response cache disabled so every request walks the full
extraction path the monitor taps — with it on, monitored and unmonitored
throughput are indistinguishable by construction.  The ratio
``monitor_vs_plain_throughput`` is written to ``BENCH_monitor.json`` and
gated in CI by ``benchmarks/check_regression.py`` (baseline 0.90, i.e. <=10%
overhead, the gate's 30% tolerance absorbing runner noise).

Also recorded (not gated; absolute ns do not transfer between machines):

* ns per ``MonitorWindow.append`` of one 16-case stack — the per-drain cost;
* ms per ``DriftDetector.evaluate`` over a full window — the amortized cost.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import DeepMorph
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from repro.monitor import DriftDetector, MonitorWindow
from repro.optim import Adam
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool
from repro.training import Trainer

NUM_CLIENTS = 16
REQUESTS_PER_CLIENT = 12
NUM_CASES = 16
NUM_REPLICAS = 2
#: In-test floor: catastrophic overhead fails immediately; the committed
#: baseline in benchmarks/baselines/BENCH_monitor.json gates the rest.
MIN_RATIO = float(os.environ.get("BENCH_MONITOR_MIN_RATIO", "0.60"))
RESULT_PATH = os.environ.get("BENCH_MONITOR_JSON", "BENCH_monitor.json")

#: Shared by BOTH phases, each behind a gateway with its response cache off:
#: every request must reach extraction, where the monitor tap lives, or the
#: comparison measures nothing.
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

    registry_dir = tmp_path_factory.mktemp("monitor_bench_registry")
    ArtifactRegistry(registry_dir).register("bench", morph)

    inputs, labels = test.arrays()
    payload = json.dumps({
        "model": "bench",
        "inputs": inputs[:NUM_CASES].tolist(),
        "labels": labels[:NUM_CASES].tolist(),
    }).encode("utf-8")
    return registry_dir, payload, morph


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


def _run_phase(registry_dir, payload, monitor: bool):
    """Gateway throughput for one configuration (response cache disabled)."""
    kwargs = dict(SERVICE_KWARGS)
    if monitor:
        kwargs.update(monitor=True, monitor_window=2048)
    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=NUM_REPLICAS,
        max_queue_per_replica=NUM_CLIENTS,
        **kwargs,
    )
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
    try:
        for _ in range(NUM_REPLICAS + 1):
            _post_once(gateway.host, gateway.port, payload)
        wall, requests, errors = _hammer(gateway.host, gateway.port, payload)
        assert not errors, f"{'monitor' if monitor else 'plain'} errors: {errors[:5]}"
        return requests / wall
    finally:
        gateway.shutdown()
        pool.shutdown()


def _append_ns(morph, iterations: int = 2_000) -> float:
    """ns per non-blocking window append of one NUM_CASES-row stack."""
    library = morph.patterns
    num_layers = library.patterns[library.classes()[0]].mean_trajectory.shape[0]
    stack = np.random.default_rng(0).random((NUM_CASES, num_layers, 4))
    classes = np.zeros(NUM_CASES, dtype=np.int64)
    window = MonitorWindow(max_cases=2048)
    start = time.perf_counter()
    for _ in range(iterations):
        window.append(stack, classes)
    return (time.perf_counter() - start) / iterations * 1e9


def _evaluate_ms(morph, iterations: int = 20) -> float:
    """ms per full-window drift evaluation (the amortized scoring cost)."""
    library = morph.patterns
    num_layers = library.patterns[library.classes()[0]].mean_trajectory.shape[0]
    rng = np.random.default_rng(1)
    window = MonitorWindow(max_cases=2048)
    stack = rng.dirichlet(np.ones(4), size=(2048, num_layers))
    window.append(stack, rng.integers(0, 4, size=2048))
    detector = DriftDetector(library)
    snapshot = window.snapshot()
    start = time.perf_counter()
    for _ in range(iterations):
        detector.evaluate(snapshot)
    return (time.perf_counter() - start) / iterations * 1e3


def test_monitor_overhead_is_bounded(serving_scenario):
    registry_dir, payload, morph = serving_scenario

    plain_rps = _run_phase(registry_dir, payload, monitor=False)
    monitored_rps = _run_phase(registry_dir, payload, monitor=True)

    ratio = monitored_rps / plain_rps
    append_ns = _append_ns(morph)
    evaluate_ms = _evaluate_ms(morph)
    print(
        f"\nplain {plain_rps:8.1f} req/s   monitored {monitored_rps:8.1f} req/s   "
        f"ratio x{ratio:.3f}   append {append_ns:8.1f} ns   evaluate {evaluate_ms:6.2f} ms"
    )

    record = {
        "clients": NUM_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "cases_per_request": NUM_CASES,
        "replicas": NUM_REPLICAS,
        "plain_throughput_rps": plain_rps,
        "monitored_throughput_rps": monitored_rps,
        "monitor_vs_plain_throughput": ratio,
        "window_append_ns": append_ns,
        "drift_evaluate_ms": evaluate_ms,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"wrote {RESULT_PATH}")

    assert ratio >= MIN_RATIO, (
        f"online monitoring costs too much: x{ratio:.3f} < x{MIN_RATIO} "
        f"({plain_rps:.1f} -> {monitored_rps:.1f} req/s)"
    )
