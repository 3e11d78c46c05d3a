"""Live drift monitoring end to end: alert fires, snapshot registers, rollback.

The PR-10 acceptance scenario: a monitored service under defect-skewed
traffic escalates its drift alert, the incremental updater snapshots a
``partial_fit`` library as a **new** registry version, and rolling back —
pinning the pre-drift version in the request — replays the pre-drift
diagnosis bit for bit, because registry artifacts are immutable and the
update never touched ``v1``'s bytes.

Also covered here: pattern updates run one at a time on the service's
update thread, and ``close()`` waits for the running one; the gateway's
``GET /monitor`` route (including ``?refresh=1`` and the disabled payload),
monitor gauges on ``GET /metrics``, and the ``repro-monitor`` CLI replaying a
JSONL trace offline.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import monitor as monitor_cli
from repro.core.patterns import PatternLibrary
from repro.serve import (
    ArtifactRegistry,
    DiagnosisGateway,
    DiagnosisService,
    ReplicaPool,
)


def _post(url: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def monitored_registry(tmp_path_factory, fitted_deepmorph):
    """Registry directory holding the fitted tiny model as ``tiny@v1``."""
    root = tmp_path_factory.mktemp("monitor_registry")
    registry = ArtifactRegistry(root)
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "monitor"})
    return root


class TestDriftAlertAndRollback:
    def test_skewed_traffic_escalates_snapshots_and_rolls_back(
        self, tmp_path, fitted_deepmorph, tiny_splits
    ):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("tiny", fitted_deepmorph, metadata={"suite": "monitor"})
        _, test = tiny_splits
        inputs, labels = test.arrays()

        service = DiagnosisService(
            registry,
            monitor=True,
            monitor_window=256,
            drift_threshold=2.0,
            monitor_update_cases=32,
        )
        try:
            # Pre-drift reference, pinned to the version we will roll back to.
            baseline = service.diagnose("tiny", inputs, labels, version="v1").as_dict()
            assert baseline["metadata"]["version"] == "v1"

            healthy = service.monitor_payload(refresh=True)
            assert healthy["enabled"] is True
            assert "tiny@v1" in healthy["models"]

            # Defect-skewed traffic: off-manifold inputs with shifted labels.
            rng = np.random.default_rng(7)
            for _ in range(6):
                skewed = rng.standard_normal(inputs.shape)
                service.diagnose("tiny", skewed, np.roll(labels, 1), version="v1")

            drifted = service.monitor_payload(refresh=True)
            assert drifted["level"] in ("warn", "critical")
            alert = drifted["alerts"]["tiny@v1:drift"]
            assert alert["level"] in ("warn", "critical")
            assert alert["events_total"] >= 1

            # The labeled traffic crossed the update threshold, so the
            # updater snapshots a partial_fit library as a NEW version
            # (applied on the service's update thread — poll for it).
            deadline = time.time() + 30.0
            while len(registry.versions("tiny")) < 2 and time.time() < deadline:
                time.sleep(0.05)
            assert len(registry.versions("tiny")) >= 2, (
                "incremental update never registered a snapshot version"
            )
            latest = registry.record("tiny")
            assert latest.metadata["monitor"]["kind"] == "partial_fit"

            # Rollback: v1's artifact bytes were never touched, so pinning it
            # replays the pre-drift diagnosis bit for bit.
            rollback = service.diagnose("tiny", inputs, labels, version="v1").as_dict()
            assert rollback == baseline
        finally:
            service.close()


def _watch_partial_fit(monkeypatch, seconds: float) -> dict:
    """Slow ``PatternLibrary.partial_fit_arrays`` by ``seconds`` and watch its calls.

    The returned dict counts the calls ``started`` and ``finished``, the
    calls ``running`` now and the ``most`` ever running at once; its
    ``entered`` event is set when the first call starts.
    """
    original = PatternLibrary.partial_fit_arrays
    lock = threading.Lock()
    calls = {"started": 0, "finished": 0, "running": 0, "most": 0, "entered": threading.Event()}

    def watched(self, *args, **kwargs):
        with lock:
            calls["started"] += 1
            calls["running"] += 1
            calls["most"] = max(calls["most"], calls["running"])
        calls["entered"].set()
        try:
            time.sleep(seconds)
            return original(self, *args, **kwargs)
        finally:
            with lock:
                calls["running"] -= 1
                calls["finished"] += 1

    monkeypatch.setattr(PatternLibrary, "partial_fit_arrays", watched)
    return calls


class TestUpdateThread:
    """Online pattern updates run on one thread per service, one at a time."""

    @pytest.fixture
    def registry(self, tmp_path, fitted_deepmorph):
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.register("tiny", fitted_deepmorph)
        return registry

    @staticmethod
    def _service(registry, num_cases: int) -> DiagnosisService:
        # Every request of ``num_cases`` labeled cases makes an update ready.
        return DiagnosisService(registry, monitor=True, monitor_update_cases=num_cases)

    def test_updates_of_one_library_never_overlap(self, registry, tiny_splits, monkeypatch):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        calls = _watch_partial_fit(monkeypatch, seconds=0.5)
        service = self._service(registry, len(test))
        try:
            # Pinned to v1, so every request feeds the same updater and its
            # library; the second update is ready while the first applies.
            for _ in range(4):
                service.diagnose("tiny", inputs, labels, version="v1")
                time.sleep(0.05)
            deadline = time.monotonic() + 30.0
            while calls["finished"] < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            service.close()
        assert calls["finished"] >= 2
        assert calls["most"] == 1
        # Each applied update registered exactly one snapshot.
        assert len(registry.versions("tiny")) == 1 + calls["finished"]

    def test_close_waits_for_the_running_update(self, registry, tiny_splits, monkeypatch):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        calls = _watch_partial_fit(monkeypatch, seconds=0.3)
        service = self._service(registry, len(test))
        try:
            service.diagnose("tiny", inputs, labels, version="v1")
            assert calls["entered"].wait(10.0)
        finally:
            service.close()
        assert calls["finished"] == 1 and calls["running"] == 0
        versions = registry.versions("tiny")
        assert versions == ["v1", "v2"]
        time.sleep(0.2)
        assert registry.versions("tiny") == versions

    def test_an_update_ready_after_close_is_dropped(self, registry, tiny_splits, monkeypatch):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        calls = _watch_partial_fit(monkeypatch, seconds=0.0)
        service = self._service(registry, len(test))
        observe_labeled = service.monitor.observe_labeled

        def close_then_observe(*args, **kwargs):
            # The request was extracted before close(); its labels make the
            # update ready only after close() has returned.
            service.close()
            observe_labeled(*args, **kwargs)

        monkeypatch.setattr(service.monitor, "observe_labeled", close_then_observe)
        report = service.diagnose("tiny", inputs, labels, version="v1")
        assert report.num_cases > 0
        assert calls["started"] == 0
        assert service.metrics.as_dict()["monitor.errors"]["value"] == 0
        assert registry.versions("tiny") == ["v1"]

    def test_a_failed_update_does_not_stop_the_next(self, registry, tiny_splits, monkeypatch):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        original = PatternLibrary.partial_fit_arrays
        attempts = []

        def fail_first(self, *args, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("partial_fit exploded")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PatternLibrary, "partial_fit_arrays", fail_first)
        # Its own handler: the "repro" logger may not propagate to caplog's.
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        monitor_log = logging.getLogger("repro.monitor")
        monitor_log.addHandler(handler)
        service = self._service(registry, len(test))

        def counter(name: str) -> float:
            return service.metrics.as_dict()[name]["value"]

        try:
            started = time.time()
            service.diagnose("tiny", inputs, labels, version="v1")
            deadline = time.monotonic() + 30.0
            while counter("monitor.errors") < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            service.diagnose("tiny", inputs, labels, version="v1")
            while counter("monitor.updates_applied") < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            last_error = service.monitor_payload()["last_error"]
        finally:
            service.close()
            monitor_log.removeHandler(handler)
        assert (counter("monitor.errors"), counter("monitor.updates_applied")) == (1, 1)
        assert registry.versions("tiny") == ["v1", "v2"]
        # The failure is logged and shown in GET /monitor, not only counted.
        (record,) = records
        assert (record.getMessage(), record.levelno) == ("monitor error", logging.WARNING)
        assert record.fields == {
            "stage": "update", "model": "tiny@v1",
            "error_type": "RuntimeError", "error_message": "partial_fit exploded",
        }
        assert started <= last_error.pop("time") <= time.time()
        assert last_error == {
            "stage": "update", "model": "tiny@v1",
            "type": "RuntimeError", "message": "partial_fit exploded",
        }

    def test_the_update_thread_starts_with_the_first_update(
        self, registry, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        before = set(threading.enumerate())
        service = self._service(registry, len(test))
        try:
            started = {thread.name for thread in set(threading.enumerate()) - before}
            assert started == {"repro-serve-batcher"}
            service.diagnose("tiny", inputs, labels, version="v1")
            deadline = time.monotonic() + 30.0
            while len(registry.versions("tiny")) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            updaters = [
                thread for thread in threading.enumerate()
                if thread.name.startswith("repro-monitor-update")
            ]
            assert len(updaters) == 1
        finally:
            service.close()
        assert not updaters[0].is_alive()


class TestDriftWindowFeed:
    def test_repeated_request_feeds_the_window_each_time(
        self, monitored_registry, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        service = DiagnosisService(
            ArtifactRegistry(monitored_registry),
            monitor=True,
            monitor_window=256,
        )
        try:
            for _ in range(2):
                service.diagnose("tiny", inputs, labels)
            window = service.monitor_payload()["models"]["tiny@v1"]["window"]
            observed = service.metrics.as_dict()["monitor.observed_cases"]["value"]
        finally:
            service.close()
        assert window["cases"] == 2 * len(test)
        assert observed == 2 * len(test)


class TestMonitorEndpoints:
    def test_gateway_monitor_disabled_payload(self, monitored_registry):
        service = DiagnosisService(ArtifactRegistry(monitored_registry))
        pool = ReplicaPool(lambda _: service, num_replicas=1)
        gateway = DiagnosisGateway(pool, port=0).start()
        try:
            payload = _get(gateway.url + "/monitor")
            assert payload == {
                "enabled": False,
                "level": "ok",
                "level_severity": 0,
                "replicas": {
                    "0": {"enabled": False, "level": "ok", "models": {}, "alerts": {}},
                },
            }
        finally:
            gateway.shutdown()
            pool.close()

    def test_gateway_monitor_route_aggregates_replicas(
        self, monitored_registry, tiny_splits
    ):
        pool = ReplicaPool.from_registry(
            monitored_registry,
            num_replicas=2,
            max_queue_per_replica=8,
            monitor=True,
            monitor_window=128,
        )
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
        try:
            _, test = tiny_splits
            inputs, labels = test.arrays()
            _post(gateway.url + "/diagnose", {
                "model": "tiny",
                "inputs": inputs.tolist(),
                "labels": labels.tolist(),
            })
            payload = _get(gateway.url + "/monitor?refresh=1")
            assert payload["enabled"] is True
            assert payload["level"] in ("ok", "warn", "critical")
            assert set(payload["replicas"]) == {"0", "1"}
            # The request landed on one replica; its window holds the cases.
            models = [
                replica["models"]["tiny@v1"]
                for replica in payload["replicas"].values()
                if replica["models"]
            ]
            assert sum(model["window"]["cases"] for model in models) >= len(test)
            assert all(model["drift"] is not None for model in models)

            metrics = _get(gateway.url + "/metrics")
            observed = metrics["aggregate_counters"]["monitor.observed_cases"]
            assert observed >= len(test)
            assert all("monitor.alert_level" in replica for replica in metrics["replicas"])
        finally:
            gateway.shutdown()
            pool.close()


class TestMonitorCLI:
    def _write_trace(self, path, inputs, labels, batch: int = 8) -> int:
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for start in range(0, labels.shape[0], batch):
                doc = {
                    "model": "tiny",
                    "inputs": inputs[start:start + batch].tolist(),
                    "labels": labels[start:start + batch].tolist(),
                }
                handle.write(json.dumps(doc) + "\n")
                lines += 1
        return lines

    def test_replaying_healthy_trace_exits_ok(
        self, tmp_path, monitored_registry, tiny_splits, capsys
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, inputs, labels)

        # Early windows hold a handful of cases, so per-class scores are
        # noisy (the tiny task peaks near 2.9 on an 8-case window); 3.0
        # clears that while staying far under the ~17 real drift scores.
        code = monitor_cli.main([
            str(trace),
            "--registry", str(monitored_registry),
            "--model", "tiny",
            "--min-cases", "4",
            "--drift-threshold", "3.0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "tiny@v1" in out
        assert f"replayed {labels.shape[0]} case(s)" in out

    def test_replaying_drifting_trace_exits_nonzero(
        self, tmp_path, monitored_registry, tiny_splits, capsys
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(inputs.shape)
        trace = tmp_path / "drifting.jsonl"
        lines = self._write_trace(trace, noise, labels)

        code = monitor_cli.main([
            str(trace),
            "--registry", str(monitored_registry),
            "--model", "tiny",
            "--min-cases", "4",
            "--json",
        ])
        reports = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(reports) == lines
        assert all("level" in report and "line" in report for report in reports)
        assert code in (1, 2)
