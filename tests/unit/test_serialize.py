"""Tests for model and report persistence."""

import json

import numpy as np
import pytest

from repro.core import DefectCaseClassifier, DiagnosisContext
from repro.exceptions import SerializationError
from repro.models import LeNet, ResNet
from repro.nn.layers import BatchNorm2D
from repro.serialize import load_model, save_model, save_report
from tests.unit.test_core_classifier import make_specifics


class TestModelPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = LeNet(input_shape=(1, 10, 10), num_classes=4, conv_channels=(3,),
                      dense_units=(12,), kernel_size=3, rng=0)
        x = np.random.default_rng(0).random((5, 1, 10, 10))
        expected = model.predict_logits(x)

        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        np.testing.assert_allclose(restored.predict_logits(x), expected, atol=1e-12)
        assert restored.kind == "lenet"
        assert restored.num_parameters() == model.num_parameters()

    def test_round_trip_resnet(self, tmp_path):
        model = ResNet(input_shape=(3, 16, 16), num_classes=10,
                       base_channels=4, block_counts=(1,), rng=0)
        x = np.random.default_rng(1).random((2, 3, 16, 16))
        path = save_model(model, tmp_path / "resnet.npz")
        restored = load_model(path)
        np.testing.assert_allclose(restored.predict_logits(x), model.predict_logits(x), atol=1e-12)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_model(tmp_path / "missing.npz")

    def test_load_rejects_non_model_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(SerializationError):
            load_model(path)


def bn_resnet() -> ResNet:
    """A tiny batch-norm ResNet whose running statistics are far from their initial values."""
    model = ResNet(input_shape=(1, 10, 10), num_classes=4, base_channels=4,
                   block_counts=(1, 1), rng=0)
    rng = np.random.default_rng(7)
    for _, layer in model.named_layers():
        if isinstance(layer, BatchNorm2D):
            layer.running_mean = rng.normal(size=layer.num_features)
            layer.running_var = rng.uniform(0.2, 3.0, size=layer.num_features)
    model.eval()
    return model


def strip_buffers(path) -> None:
    """Rewrite an archive as it was written before layer buffers were saved."""
    with np.load(path, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files if not key.startswith("buffer/")}
    np.savez_compressed(path, **arrays)


class TestBatchNormBuffers:
    def test_model_round_trip_keeps_running_statistics(self, tmp_path):
        model = bn_resnet()
        x = np.random.default_rng(1).random((6, 1, 10, 10))
        restored = load_model(save_model(model, tmp_path / "bn.npz"))
        assert np.array_equal(restored.predict_logits(x), model.predict_logits(x))

    def test_model_file_without_buffers_loads_initial_statistics(self, tmp_path):
        path = save_model(bn_resnet(), tmp_path / "legacy.npz")
        strip_buffers(path)
        restored = load_model(path)
        norms = [layer for _, layer in restored.named_layers() if isinstance(layer, BatchNorm2D)]
        assert norms
        for layer in norms:
            assert np.array_equal(layer.running_mean, np.zeros(layer.num_features))
            assert np.array_equal(layer.running_var, np.ones(layer.num_features))

    def test_registry_round_trip_is_bitwise_in_eval_mode(self, tmp_path):
        from repro.core import DeepMorph
        from repro.serialize import load_deepmorph
        from repro.serve import ArtifactRegistry
        from tests.conftest import make_tiny_generator

        train, test = make_tiny_generator().splits(
            n_train_per_class=6, n_test_per_class=3, rng=0
        )
        model = bn_resnet()
        morph = DeepMorph(probe_epochs=1, rng=0).fit(model, train)
        registry = ArtifactRegistry(tmp_path / "registry")
        record = registry.register("bn-resnet", morph)
        loaded = registry.load("bn-resnet")
        inputs, _ = test.arrays()
        assert np.array_equal(loaded.model.predict_logits(inputs), model.predict_logits(inputs))
        for got, want in zip(
            loaded.instrumented.layer_distributions(inputs),
            morph.instrumented.layer_distributions(inputs),
        ):
            assert np.array_equal(got, want)

        # An artifact written before buffers were stored still loads.
        strip_buffers(record.path)
        legacy = load_deepmorph(record.path)
        assert not np.array_equal(
            legacy.model.predict_logits(inputs), model.predict_logits(inputs)
        )


class TestReportPersistence:
    def test_round_trip(self, tmp_path):
        report = DefectCaseClassifier().aggregate(
            [make_specifics()], DiagnosisContext(), metadata={"model": "lenet"}
        )
        path = save_report(report, tmp_path / "report.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["num_cases"] == 1
        assert payload["metadata"]["model"] == "lenet"
        assert set(payload["ratios"]) == {"itd", "utd", "sd"}
