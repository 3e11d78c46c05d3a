"""Tests for loss functions and classification accuracy."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn.losses import MeanSquaredError, NegativeLogLikelihood, SoftmaxCrossEntropy, get_loss
from repro.nn.metrics import accuracy


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_has_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-4

    def test_uniform_prediction_loss_is_log_k(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 5)), np.zeros(4, dtype=int))
        np.testing.assert_allclose(value, np.log(5), rtol=1e-6)

    def test_gradient_matches_softmax_minus_onehot(self):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss.forward(logits, labels)
        grad = loss.backward()
        expected = (F.softmax(logits, axis=1) - F.one_hot(labels, 4)) / 6
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        loss.forward(logits, labels)
        grad = loss.backward()
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                logits[i, j] += eps
                plus = loss.forward(logits, labels)
                logits[i, j] -= 2 * eps
                minus = loss.forward(logits, labels)
                logits[i, j] += eps
                np.testing.assert_allclose(grad[i, j], (plus - minus) / (2 * eps), atol=1e-6)

    def test_label_smoothing_increases_loss_of_perfect_prediction(self):
        plain = SoftmaxCrossEntropy()
        smoothed = SoftmaxCrossEntropy(label_smoothing=0.1)
        logits = np.array([[20.0, -20.0]])
        labels = np.array([0])
        assert smoothed.forward(logits, labels) > plain.forward(logits, labels)

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ShapeError):
            SoftmaxCrossEntropy().forward(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_rejects_invalid_smoothing(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropy(label_smoothing=1.0)


class TestOtherLosses:
    def test_nll_matches_cross_entropy_on_probabilities(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        ce = SoftmaxCrossEntropy().forward(logits, labels)
        nll = NegativeLogLikelihood().forward(F.softmax(logits, axis=1), labels)
        np.testing.assert_allclose(ce, nll, rtol=1e-6)

    def test_mse_value_and_gradient(self):
        loss = MeanSquaredError()
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        assert loss.forward(pred, target) == pytest.approx(2.5)
        np.testing.assert_allclose(loss.backward(), pred)

    def test_mse_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            MeanSquaredError().forward(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_loss_registry(self):
        assert isinstance(get_loss("cross_entropy"), SoftmaxCrossEntropy)
        assert isinstance(get_loss("mse"), MeanSquaredError)
        with pytest.raises(ConfigurationError):
            get_loss("nope")


class TestMetrics:
    def test_accuracy_with_scores_and_ids(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        assert accuracy(scores, labels) == pytest.approx(2 / 3)
        assert accuracy(np.array([0, 1, 0]), labels) == pytest.approx(2 / 3)

    def test_accuracy_empty_is_zero(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    def test_metrics_reject_mismatched_sizes(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))
