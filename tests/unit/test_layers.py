"""Shape, mode, and error-handling tests for the layer catalogue."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
    TransitionLayer,
)
from repro.nn.module import Parameter


class TestDense:
    def test_forward_shape(self):
        layer = Dense(8, 3, rng=0)
        out = layer.forward(np.zeros((5, 8)))
        assert out.shape == (5, 3)

    def test_output_shape_helper(self):
        assert Dense(8, 3, rng=0).output_shape((8,)) == (3,)

    def test_rejects_wrong_feature_count(self):
        with pytest.raises(ShapeError):
            Dense(8, 3, rng=0).forward(np.zeros((5, 9)))

    def test_rejects_unflattened_input(self):
        with pytest.raises(ShapeError):
            Dense(8, 3, rng=0).forward(np.zeros((5, 2, 4)))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 3)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(4, 2, rng=0).backward(np.zeros((1, 2)))


class TestConv2D:
    def test_same_padding_preserves_spatial_size(self):
        layer = Conv2D(1, 4, kernel_size=3, padding="same", rng=0)
        out = layer.forward(np.zeros((2, 1, 9, 9)))
        assert out.shape == (2, 4, 9, 9)

    def test_stride_halves_resolution(self):
        layer = Conv2D(1, 2, kernel_size=3, stride=2, padding=1, rng=0)
        assert layer.output_shape((1, 8, 8)) == (2, 4, 4)

    def test_rejects_bad_padding_string(self):
        with pytest.raises(ConfigurationError):
            Conv2D(1, 2, 3, padding="valid")

    def test_same_padding_rejects_even_kernel(self):
        # (kernel_size - 1) // 2 cannot preserve spatial size for even
        # kernels; the old code silently shrank the map instead.
        with pytest.raises(ConfigurationError, match="odd kernel_size"):
            Conv2D(1, 2, kernel_size=4, padding="same")

    def test_same_padding_accepts_odd_kernels(self):
        for kernel in (1, 3, 5):
            layer = Conv2D(1, 2, kernel_size=kernel, padding="same", rng=0)
            out = layer.forward(np.zeros((1, 1, 9, 9)))
            assert out.shape == (1, 2, 9, 9), f"kernel={kernel}"

    def test_rejects_negative_kernel(self):
        with pytest.raises(ConfigurationError):
            Conv2D(1, 2, kernel_size=-1)


class TestPoolingLayers:
    def test_maxpool_shape(self):
        assert MaxPool2D(2).output_shape((3, 8, 8)) == (3, 4, 4)

    def test_avgpool_shape(self):
        assert AvgPool2D(2).output_shape((3, 8, 8)) == (3, 4, 4)

    def test_global_avgpool_reduces_to_channels(self):
        layer = GlobalAvgPool2D()
        out = layer.forward(np.ones((2, 5, 4, 4)))
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out, 1.0)

    def test_global_avgpool_rejects_2d(self):
        with pytest.raises(ShapeError):
            GlobalAvgPool2D().forward(np.ones((2, 5)))


class TestBatchNorm:
    def test_training_mode_normalizes_batch(self):
        layer = BatchNorm2D(4)
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(64, 4, 2, 2))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_eval_mode_uses_running_statistics(self):
        layer = BatchNorm2D(2, momentum=0.0)
        x = np.random.default_rng(0).normal(2.0, 1.0, size=(32, 2, 3, 3))
        layer.forward(x)
        layer.eval()
        single = layer.forward(np.full((1, 2, 3, 3), 2.0))
        assert np.all(np.isfinite(single))

    def test_batchnorm2d_channel_mismatch(self):
        with pytest.raises(ShapeError):
            BatchNorm2D(3).forward(np.zeros((2, 4, 5, 5)))

    def test_invalid_momentum(self):
        with pytest.raises(ConfigurationError):
            BatchNorm2D(3, momentum=1.5)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = np.random.default_rng(1).random((10, 10))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_training_mode_zeroes_some_activations(self):
        layer = Dropout(0.5, rng=0)
        out = layer.forward(np.ones((20, 20)))
        assert np.sum(out == 0.0) > 0
        # Inverted dropout preserves the expectation approximately.
        assert abs(out.mean() - 1.0) < 0.15

    def test_rejects_rate_of_one(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestFlatten:
    def test_flatten_and_restore(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        grad = layer.backward(out)
        assert grad.shape == x.shape


class TestSequential:
    def test_forward_matches_manual_chain(self):
        d1, d2 = Dense(4, 3, rng=0), Dense(3, 2, rng=1)
        model = Sequential([d1, ReLU(), d2])
        x = np.random.default_rng(0).random((5, 4))
        expected = d2.forward(np.maximum(d1.forward(x), 0))
        np.testing.assert_allclose(model.forward(x), expected)

    def test_forward_with_activations_returns_each_stage(self):
        model = Sequential([Dense(4, 3, rng=0, name="a"), ReLU(name="b")])
        out, acts = model.forward_with_activations(np.zeros((2, 4)))
        assert list(acts) == ["a", "b"]
        np.testing.assert_allclose(acts["b"], out)

    def test_forward_until(self):
        model = Sequential([Dense(4, 3, rng=0, name="a"), ReLU(name="b")])
        mid = model.forward_until(np.zeros((2, 4)), "a")
        assert mid.shape == (2, 3)
        with pytest.raises(KeyError):
            model.forward_until(np.zeros((2, 4)), "missing")

    def test_duplicate_names_are_disambiguated(self):
        model = Sequential([ReLU(name="r"), ReLU(name="r")])
        assert len(set(model.layer_names())) == 2

    def test_rejects_non_layer(self):
        with pytest.raises(ConfigurationError):
            Sequential(["not a layer"])

    def test_index_of(self):
        model = Sequential([ReLU(name="x"), ReLU(name="y")])
        assert model.index_of("y") == 1
        with pytest.raises(KeyError):
            model.index_of("z")


class TestBlocks:
    def test_residual_block_output_shape(self):
        block = ResidualBlock(3, 6, stride=2, rng=0)
        assert block.output_shape((3, 8, 8)) == (6, 4, 4)

    def test_residual_block_identity_shortcut_has_no_projection(self):
        block = ResidualBlock(4, 4, stride=1, rng=0)
        assert block.shortcut is None

    def test_dense_block_channel_growth(self):
        block = DenseBlock(4, growth_rate=3, num_units=2, rng=0)
        assert block.out_channels == 10
        out = block.forward(np.zeros((2, 4, 6, 6)))
        assert out.shape == (2, 10, 6, 6)

    def test_transition_layer_halves_spatial_size(self):
        layer = TransitionLayer(8, 4, rng=0)
        assert layer.output_shape((8, 8, 8)) == (4, 4, 4)

    def test_invalid_block_configs(self):
        with pytest.raises(ConfigurationError):
            ResidualBlock(0, 4)
        with pytest.raises(ConfigurationError):
            DenseBlock(4, growth_rate=0, num_units=2)
        with pytest.raises(ConfigurationError):
            TransitionLayer(4, 0)


class TestModuleBasics:
    def test_parameter_grad_accumulation(self):
        param = Parameter(np.zeros((2, 2)))
        param.accumulate_grad(np.ones((2, 2)))
        param.accumulate_grad(np.ones((2, 2)))
        np.testing.assert_allclose(param.grad, 2.0)
        param.zero_grad()
        assert param.grad is None

    def test_parameter_rejects_mismatched_grad(self):
        param = Parameter(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            param.accumulate_grad(np.ones(3))

    def test_freeze_and_unfreeze(self):
        layer = Dense(3, 2, rng=0)
        layer.freeze()
        assert all(not p.trainable for p in layer.parameters())
        layer.unfreeze()
        assert all(p.trainable for p in layer.parameters())

    def test_named_parameters_are_unique(self):
        model = Sequential([Dense(3, 3, rng=0), Dense(3, 2, rng=1)])
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_train_eval_propagates_to_children(self):
        model = Sequential([Dropout(0.5), ReLU()])
        model.eval()
        assert all(not child.training for child in model.children())
        model.train()
        assert all(child.training for child in model.children())

    def test_num_parameters_counts_scalars(self):
        layer = Dense(3, 2, rng=0)
        assert layer.num_parameters() == 3 * 2 + 2
