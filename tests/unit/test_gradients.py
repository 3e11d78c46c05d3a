"""Numerical gradient checks for every layer's backward pass.

Each check compares the analytic gradient (backward pass) against a central
finite-difference estimate of d(sum of outputs * fixed random weighting)/dx —
both for inputs and for parameters.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    DenseBlock,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
    TransitionLayer,
)

EPS = 1e-5
TOL = 1e-5


def numeric_grad(fn, x, eps=EPS):
    """Central-difference gradient of scalar-valued fn with respect to array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = fn()
        x[idx] = original - eps
        minus = fn()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_input_gradient(layer, x, seed=0):
    """Assert the analytic input gradient matches finite differences."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x)
    weighting = rng.normal(size=out.shape)

    analytic = layer.backward(weighting)

    def objective():
        return float(np.sum(layer.forward(x) * weighting))

    numeric = numeric_grad(objective, x)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-5)


def check_param_gradients(layer, x, seed=0):
    """Assert every trainable parameter's gradient matches finite differences."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x)
    weighting = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.forward(x)
    layer.backward(weighting)

    for param in layer.parameters():
        analytic = param.grad.copy()

        def objective():
            return float(np.sum(layer.forward(x) * weighting))

        numeric = numeric_grad(objective, param.data)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-5)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


class TestActivationGradients:
    @pytest.mark.parametrize("layer_cls", [ReLU])
    def test_activation_input_gradient(self, layer_cls, rng):
        # Offset away from zero so ReLU's kink does not break finite differences.
        x = rng.normal(size=(4, 6)) + 0.1 * np.sign(rng.normal(size=(4, 6)))
        check_input_gradient(layer_cls(), x)


class TestDenseGradients:
    def test_dense_input_and_param_gradients(self, rng):
        layer = Dense(5, 3, rng=1)
        x = rng.normal(size=(4, 5))
        check_input_gradient(layer, x)
        check_param_gradients(layer, x)

    def test_dense_without_bias(self, rng):
        layer = Dense(4, 2, use_bias=False, rng=1)
        x = rng.normal(size=(3, 4))
        check_param_gradients(layer, x)


class TestConvGradients:
    def test_conv_input_and_param_gradients(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, stride=1, padding=1, rng=1)
        x = rng.normal(size=(2, 2, 5, 5))
        check_input_gradient(layer, x)
        check_param_gradients(layer, x)

    def test_strided_conv_gradients(self, rng):
        layer = Conv2D(1, 2, kernel_size=3, stride=2, padding=0, rng=1)
        x = rng.normal(size=(2, 1, 7, 7))
        check_input_gradient(layer, x)


class TestPoolingGradients:
    def test_maxpool_input_gradient(self, rng):
        layer = MaxPool2D(2)
        x = rng.normal(size=(2, 2, 6, 6))
        check_input_gradient(layer, x)

    def test_maxpool_padded_input_gradient(self, rng):
        layer = MaxPool2D(3, stride=2, padding=1)
        x = rng.normal(size=(2, 2, 7, 7))
        check_input_gradient(layer, x)

    def test_maxpool_padded_all_negative_input_gradient(self, rng):
        # Pre-fix, padded zeros won the max over all-negative windows, so the
        # boundary gradients vanished into the (cropped) padding.
        layer = MaxPool2D(2, stride=2, padding=1)
        x = -1.0 - rng.random(size=(2, 2, 6, 6))
        check_input_gradient(layer, x)

    def test_avgpool_input_gradient(self, rng):
        layer = AvgPool2D(2)
        x = rng.normal(size=(2, 2, 6, 6))
        check_input_gradient(layer, x)

    @pytest.mark.parametrize("count_include_pad", [True, False])
    def test_avgpool_padded_input_gradient(self, rng, count_include_pad):
        layer = AvgPool2D(3, stride=2, padding=1, count_include_pad=count_include_pad)
        x = rng.normal(size=(2, 2, 7, 7))
        check_input_gradient(layer, x)

    def test_global_avgpool_input_gradient(self, rng):
        layer = GlobalAvgPool2D()
        x = rng.normal(size=(3, 4, 5, 5))
        check_input_gradient(layer, x)


class TestNormalizationGradients:
    def test_batchnorm2d_gradients(self, rng):
        layer = BatchNorm2D(3)
        x = rng.normal(size=(4, 3, 4, 4))
        check_input_gradient(layer, x)
        check_param_gradients(layer, x)


class TestShapeLayersGradients:
    def test_flatten_gradient(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        check_input_gradient(layer, x)


class TestCompositeGradients:
    def test_sequential_gradient(self, rng):
        model = Sequential([Dense(6, 5, rng=1), ReLU(), Dense(5, 3, rng=2)])
        x = rng.normal(size=(4, 6))
        check_input_gradient(model, x)
        check_param_gradients(model, x)

    def test_residual_block_gradient_identity_shortcut(self, rng):
        block = ResidualBlock(3, 3, stride=1, use_batchnorm=False, rng=1)
        x = rng.normal(size=(2, 3, 5, 5))
        check_input_gradient(block, x)
        check_param_gradients(block, x)

    def test_residual_block_gradient_projection_shortcut(self, rng):
        block = ResidualBlock(2, 4, stride=2, use_batchnorm=False, rng=1)
        x = rng.normal(size=(2, 2, 6, 6))
        check_input_gradient(block, x)

    def test_dense_block_gradient(self, rng):
        block = DenseBlock(2, growth_rate=2, num_units=2, use_batchnorm=False, rng=1)
        x = rng.normal(size=(2, 2, 4, 4))
        check_input_gradient(block, x)
        check_param_gradients(block, x)

    def test_transition_layer_gradient(self, rng):
        layer = TransitionLayer(4, 2, use_batchnorm=False, rng=1)
        x = rng.normal(size=(2, 4, 6, 6))
        check_input_gradient(layer, x)
