"""Live drift monitoring end to end: alert fires, snapshot registers, rollback.

The PR-10 acceptance scenario: a monitored service under defect-skewed
traffic escalates its drift alert, the incremental updater snapshots a
``partial_fit`` library as a **new** registry version, and rolling back —
pinning the pre-drift version in the request — replays the pre-drift
diagnosis bit for bit, because registry artifacts are immutable and the
update never touched ``v1``'s bytes.

Also covered here: the gateway's ``GET /monitor`` route (including
``?refresh=1`` and the disabled payload), monitor gauges on ``GET /metrics``,
and the ``repro-monitor`` CLI replaying a JSONL trace offline.
"""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import monitor as monitor_cli
from repro.serve import (
    ArtifactRegistry,
    DiagnosisGateway,
    DiagnosisService,
    ReplicaPool,
)

MONITOR_KWARGS = dict(num_workers=1)


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
            **MONITOR_KWARGS,
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
            # (applied asynchronously on the jobs pool — poll for it).
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
            **MONITOR_KWARGS,
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
        service = DiagnosisService(
            ArtifactRegistry(monitored_registry), **MONITOR_KWARGS
        )
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
            **MONITOR_KWARGS,
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
