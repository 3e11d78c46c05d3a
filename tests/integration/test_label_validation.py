"""Labels are validated as class ids, before any extraction, in every pipeline.

A label must be an integer, or an integral finite float such as ``3.0``, and
lie in ``[0, num_classes)``.  Non-integral, non-finite, boolean and
non-numeric labels, and labels out of range, are a
:class:`~repro.exceptions.ConfigurationError` (HTTP 400) naming ``labels``
from :class:`~repro.api.LocalDiagnoser`, :class:`~repro.serve.DiagnosisService`,
the gateway and ``DeepMorph.diagnose`` alike.  A spy on the instrumented
forward pass shows that a rejected request never reaches extraction.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import LocalDiagnoser
from repro.core import SoftmaxInstrumentedModel, validate_labels
from repro.exceptions import ConfigurationError
from repro.serve import ArtifactRegistry, DiagnosisGateway, DiagnosisService, ReplicaPool

from tests.conftest import TINY_CLASSES

#: name -> labels built from the valid labels ``y``.
BAD_LABELS = {
    "non_integral": lambda y: y + 0.7,
    "nan": lambda y: np.where(np.arange(y.size) == 0, np.nan, y.astype(np.float64)),
    "infinite": lambda y: np.where(np.arange(y.size) == 0, np.inf, y.astype(np.float64)),
    "boolean": lambda y: (y % 2).astype(bool),
    "boolean_in_a_list": lambda y: [True] + y[1:].tolist(),
    "numeric_strings": lambda y: y.astype(str),
    "objects": lambda y: np.array([None] + y[1:].tolist(), dtype=object),
    "too_large": lambda y: np.where(np.arange(y.size) == 0, TINY_CLASSES, y),
    "negative": lambda y: np.where(np.arange(y.size) == 0, -1, y),
    "beyond_int64": lambda y: np.where(np.arange(y.size) == 0, 1e300, y.astype(np.float64)),
}

#: The bad labels that survive JSON (NaN, infinities and objects do not).
JSON_BAD_LABELS = [
    "non_integral", "boolean", "boolean_in_a_list", "numeric_strings", "too_large", "negative",
    "beyond_int64",
]


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("label_registry")
    ArtifactRegistry(root).register("tiny", fitted_deepmorph)
    return root


@pytest.fixture(scope="module")
def batch(tiny_splits):
    _, test = tiny_splits
    inputs, labels = test.arrays()
    return inputs, labels.astype(np.int64)


@pytest.fixture
def forward_passes(monkeypatch):
    """Counts calls of the instrumented forward pass (every extraction path)."""
    calls = []
    for name in ("layer_distributions", "layer_distributions_grouped"):
        original = getattr(SoftmaxInstrumentedModel, name)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SoftmaxInstrumentedModel, name, counted)
    return calls


def fresh(inputs: np.ndarray, seed: int) -> np.ndarray:
    """Inputs no cache has seen, so a valid request must extract."""
    return inputs + np.random.default_rng(seed).normal(0.0, 1e-3, inputs.shape)


def bad_labels(name: str, labels: np.ndarray):
    return BAD_LABELS[name](labels)


@pytest.mark.parametrize("num_classes", [TINY_CLASSES, None])
def test_a_label_beyond_int64_reports_its_real_range(num_classes):
    """The range is checked before the int64 cast, which would wrap the value."""
    with pytest.raises(ConfigurationError, match=r"got range \[2\.0, 1e\+300\]"):
        validate_labels([2.0, 1e300], num_classes)


class TestLocalDiagnoser:
    @pytest.fixture(scope="class")
    def local(self, registry_dir):
        return LocalDiagnoser.from_registry(registry_dir, "tiny")

    @pytest.mark.parametrize("name", sorted(BAD_LABELS))
    def test_rejected_before_extraction(self, local, batch, forward_passes, name):
        inputs, labels = batch
        with pytest.raises(ConfigurationError, match="labels"):
            local.diagnose_arrays(inputs, bad_labels(name, labels))
        assert forward_passes == []

    def test_integral_floats_are_class_ids(self, local, batch, forward_passes):
        inputs, labels = batch
        as_floats = local.diagnose_arrays(inputs, labels.astype(np.float64))
        assert forward_passes
        assert as_floats.to_dict() == local.diagnose_arrays(inputs, labels).to_dict()


class TestDiagnosisService:
    @pytest.fixture(scope="class")
    def service(self, registry_dir):
        with DiagnosisService(registry_dir, num_workers=1) as service:
            yield service

    @pytest.mark.parametrize("name", sorted(BAD_LABELS))
    def test_rejected_before_extraction(self, service, batch, forward_passes, name):
        inputs, labels = batch
        with pytest.raises(ConfigurationError, match="labels"):
            service.diagnose("tiny", fresh(inputs, 1), bad_labels(name, labels))
        assert forward_passes == []

    def test_integral_floats_are_class_ids(self, service, batch, forward_passes):
        inputs, labels = batch
        inputs = fresh(inputs, 2)
        as_floats = service.diagnose("tiny", inputs, labels.astype(np.float64))
        assert forward_passes
        assert as_floats.as_dict() == service.diagnose("tiny", inputs, labels).as_dict()


class TestGateway:
    @pytest.fixture(scope="class")
    def gateway(self, registry_dir):
        pool = ReplicaPool.from_registry(
            registry_dir, num_replicas=1, num_workers=1
        )
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
        yield gateway
        gateway.shutdown()
        pool.close()

    @staticmethod
    def post(gateway, inputs: np.ndarray, labels) -> tuple:
        labels = labels.tolist() if isinstance(labels, np.ndarray) else labels
        body = json.dumps({"model": "tiny", "inputs": inputs.tolist(), "labels": labels})
        request = urllib.request.Request(
            gateway.url + "/diagnose",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    @pytest.mark.parametrize("name", JSON_BAD_LABELS)
    def test_rejected_with_400_before_extraction(self, gateway, batch, forward_passes, name):
        inputs, labels = batch
        status, payload = self.post(gateway, fresh(inputs, 3), bad_labels(name, labels))
        assert status == 400
        assert payload["error_type"] == "ConfigurationError"
        assert "labels" in payload["error"]
        assert forward_passes == []

    def test_a_label_beyond_int64_is_a_400_with_its_real_range(self, gateway, batch):
        inputs, labels = batch
        status, payload = self.post(
            gateway, fresh(inputs, 5), [1e300] + labels[1:].astype(float).tolist()
        )
        assert status == 400
        assert "1e+300]" in payload["error"]

    def test_integral_floats_are_class_ids(self, gateway, batch, forward_passes):
        inputs, labels = batch
        inputs = fresh(inputs, 4)
        status, as_floats = self.post(gateway, inputs, labels.astype(np.float64))
        assert status == 200 and forward_passes
        assert as_floats == self.post(gateway, inputs, labels)[1]


class TestDeepMorph:
    @pytest.mark.parametrize("name", sorted(BAD_LABELS))
    def test_rejected_before_extraction(self, fitted_deepmorph, batch, forward_passes, name):
        inputs, labels = batch
        with pytest.raises(ConfigurationError, match="labels"):
            fitted_deepmorph.diagnose(inputs, bad_labels(name, labels))
        assert forward_passes == []

    def test_integral_floats_are_class_ids(self, fitted_deepmorph, batch):
        inputs, labels = batch
        as_floats = fitted_deepmorph.diagnose(inputs, labels.astype(np.float64))
        assert as_floats.as_dict() == fitted_deepmorph.diagnose(inputs, labels).as_dict()
