"""Unit tests for the numerical primitives in repro.nn.functional."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import functional as F


class TestActivations:
    def test_relu_clamps_negatives(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(F.relu(x), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_relu_grad_masks_negative_inputs(self):
        x = np.array([-1.0, 1.0, 0.0])
        grad = np.array([5.0, 5.0, 5.0])
        np.testing.assert_allclose(F.relu_grad(x, grad), [0.0, 5.0, 0.0])


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(5, 7)) * 10
        probs = F.softmax(x, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_is_shift_invariant(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), atol=1e-12)

    def test_softmax_handles_large_logits(self):
        probs = F.softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(2).normal(size=(4, 6))
        np.testing.assert_allclose(F.log_softmax(x), np.log(F.softmax(x)), atol=1e-10)


class TestOneHot:
    def test_one_hot_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            F.one_hot(np.array([0, 3]), 3)

    def test_one_hot_rejects_2d_labels(self):
        with pytest.raises(ShapeError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)


class TestConvolution:
    def test_conv_output_size(self):
        assert F.conv_output_size(14, 5, 1, 2) == 14
        assert F.conv_output_size(14, 2, 2, 0) == 7

    def test_conv_output_size_rejects_too_small_input(self):
        with pytest.raises(ShapeError):
            F.conv_output_size(2, 5, 1, 0)

    def test_im2col_col2im_are_adjoint_for_ones(self):
        # col2im(im2col(x)) counts how many receptive fields each pixel is in;
        # with kernel 1 and stride 1 it must be exactly x.
        x = np.random.default_rng(0).random((2, 3, 5, 5))
        col = F.im2col(x, 1, 1, 1, 0)
        back = F.col2im(col, x.shape, 1, 1, 1, 0)
        np.testing.assert_allclose(back, x)

    def test_conv2d_matches_naive_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 2, 6, 6))
        w = rng.random((3, 2, 3, 3))
        b = rng.random(3)
        out = F.conv2d_forward(x, w, b, stride=1, pad=1)

        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros_like(out)
        for n in range(2):
            for co in range(3):
                for i in range(6):
                    for j in range(6):
                        patch = padded[n, :, i:i + 3, j:j + 3]
                        expected[n, co, i, j] = np.sum(patch * w[co]) + b[co]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_conv2d_rejects_channel_mismatch(self):
        x = np.zeros((1, 2, 6, 6))
        w = np.zeros((3, 4, 3, 3))
        with pytest.raises(ShapeError):
            F.conv2d_forward(x, w, None, 1, 0)

    def test_conv2d_backward_shapes(self):
        rng = np.random.default_rng(4)
        x = rng.random((2, 2, 6, 6))
        w = rng.random((3, 2, 3, 3))
        out = F.conv2d_forward(x, w, None, stride=1, pad=0)
        grad_in, grad_w, grad_b = F.conv2d_backward(
            np.ones_like(out), x, w, stride=1, pad=0
        )
        assert grad_in.shape == x.shape
        assert grad_w.shape == w.shape
        assert grad_b.shape == (3,)


class TestPooling:
    def test_maxpool_forward_picks_maximum(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.maxpool2d_forward(x, kernel=2, stride=2)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_gradient_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, argmax = F.maxpool2d_forward(x, kernel=2, stride=2)
        grad = F.maxpool2d_backward(np.ones_like(out), argmax, x.shape, 2, 2)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(grad[0, 0], expected)

    def test_avgpool_forward_is_window_mean(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avgpool2d_forward(x, kernel=2, stride=2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_backward_spreads_gradient_uniformly(self):
        x = np.zeros((1, 1, 4, 4))
        out = F.avgpool2d_forward(x, 2, 2)
        grad = F.avgpool2d_backward(np.ones_like(out), x.shape, 2, 2)
        np.testing.assert_allclose(grad, np.full_like(x, 0.25))

    def test_pooling_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            F.maxpool2d_forward(np.zeros((2, 4, 4)), 2, 2)
        with pytest.raises(ShapeError):
            F.avgpool2d_forward(np.zeros((2, 4, 4)), 2, 2)
