"""Parity suite for the loop-free numerical fast path and the dtype policy.

Three obligations are pinned here:

1. **Fast path == reference path.**  The vectorized ``im2col``/``col2im``/
   convolution/``pool_activation`` implementations must reproduce the
   per-kernel-offset loop oracles in ``tests/reference/backbone_oracle.py``
   to within float tolerance, over kernels, strides, paddings, and dtypes
   (``tests/property/test_backbone_kernels.py`` draws these cases at random).
2. **Pooling/padding bugfixes.**  Padded max pooling must never let a padded
   zero beat a real negative activation, and padded average pooling must use
   a divisor consistent with its ``count_include_pad`` mode in forward and
   backward.
3. **float32 extraction == float64 extraction (to 1e-5).**  The end-to-end
   footprint extraction fast path (float32 inference dtype) must stay within
   1e-5 of the full-precision trajectory, which is far below the resolution
   at which probe distributions carry diagnostic signal.
"""

import numpy as np
import pytest

from repro.core import pool_activation
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn import dtype as dt
from tests.reference.backbone_oracle import (
    col2im_reference,
    conv2d_forward as conv2d_reference,
    im2col_reference,
    pool_activation_reference,
)


# ---------------------------------------------------------------------------
# im2col / col2im fast-vs-reference parity
# ---------------------------------------------------------------------------

IM2COL_CASES = [
    # (n, c, h, w, kh, kw, stride, pad)
    (2, 3, 6, 6, 3, 3, 1, 0),
    (2, 3, 6, 6, 3, 3, 1, 1),
    (1, 2, 7, 5, 3, 3, 2, 1),
    (2, 1, 8, 8, 2, 2, 2, 0),
    (1, 4, 9, 9, 5, 5, 1, 2),
    (3, 2, 5, 5, 1, 1, 1, 0),
    (1, 1, 6, 9, 3, 2, 2, 1),
]


class TestIm2colParity:
    @pytest.mark.parametrize("case", IM2COL_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_im2col_matches_reference(self, case, dtype):
        n, c, h, w, kh, kw, stride, pad = case
        x = np.random.default_rng(0).standard_normal((n, c, h, w)).astype(dtype)
        fast = F.im2col(x, kh, kw, stride, pad)
        ref = im2col_reference(x, kh, kw, stride, pad)
        assert fast.dtype == dtype
        np.testing.assert_array_equal(fast, ref)

    def test_im2col_pad_value_matches_reference(self):
        x = np.random.default_rng(1).standard_normal((2, 2, 5, 5))
        fast = F.im2col(x, 3, 3, 1, 1, pad_value=-np.inf)
        ref = im2col_reference(x, 3, 3, 1, 1, pad_value=-np.inf)
        np.testing.assert_array_equal(fast, ref)

    @pytest.mark.parametrize("case", IM2COL_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_col2im_matches_reference(self, case, dtype):
        n, c, h, w, kh, kw, stride, pad = case
        out_h = F.conv_output_size(h, kh, stride, pad)
        out_w = F.conv_output_size(w, kw, stride, pad)
        col = np.random.default_rng(2).standard_normal(
            (n * out_h * out_w, c * kh * kw)
        ).astype(dtype)
        fast = F.col2im(col, (n, c, h, w), kh, kw, stride, pad)
        ref = col2im_reference(col, (n, c, h, w), kh, kw, stride, pad)
        assert fast.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(fast, ref, atol=tol)

    def test_conv_forward_backward_on_fast_path_match_reference_col(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d_forward(x, w, b, stride=1, pad=1)
        np.testing.assert_allclose(out, conv2d_reference(x, w, b, 1, 1), atol=1e-12)
        # Backward builds its column matrix from the input with im2col.
        ref_col = im2col_reference(x, 3, 3, 1, 1)
        np.testing.assert_array_equal(F.im2col(x, 3, 3, 1, 1), ref_col)

        grad_out = rng.standard_normal(out.shape)
        grad_in, grad_w, grad_b = F.conv2d_backward(grad_out, x, w, 1, 1)
        # Backward against the loop-based im2col/col2im.
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, 4)
        ref_grad_in = col2im_reference(grad_flat @ w.reshape(4, -1), x.shape, 3, 3, 1, 1)
        np.testing.assert_allclose(grad_in, ref_grad_in, atol=1e-12)
        np.testing.assert_allclose(
            grad_w, (ref_col.T @ grad_flat).T.reshape(w.shape), atol=1e-12
        )
        np.testing.assert_allclose(grad_b, grad_flat.sum(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# Pooling/padding bugfixes
# ---------------------------------------------------------------------------

class TestPaddedMaxPool:
    def test_all_negative_input_keeps_true_maximum(self):
        # Regression: zero-padded windows used to report 0 as the max of an
        # all-negative window.  On -|x| - 1 inputs every output must be < 0.
        rng = np.random.default_rng(4)
        x = -1.0 - rng.random((2, 3, 6, 6))
        out, _ = F.maxpool2d_forward(x, kernel=2, stride=2, pad=1)
        assert np.all(out < 0.0), "padded zeros leaked into the max"

    def test_corner_window_picks_real_element(self):
        x = np.full((1, 1, 4, 4), -5.0)
        x[0, 0, 0, 0] = -2.0
        out, _ = F.maxpool2d_forward(x, kernel=2, stride=2, pad=1)
        # The top-left padded window contains exactly one real element: -2.
        assert out[0, 0, 0, 0] == -2.0

    def test_backward_routes_no_gradient_to_padding(self):
        rng = np.random.default_rng(5)
        x = -1.0 - rng.random((2, 2, 4, 4))
        out, argmax = F.maxpool2d_forward(x, kernel=2, stride=2, pad=1)
        grad = F.maxpool2d_backward(np.ones_like(out), argmax, x.shape, 2, 2, pad=1)
        # Every output window's unit gradient must land on a real input
        # element: nothing may be lost into the cropped padding.
        assert grad.sum() == pytest.approx(out.size)

    def test_pad_not_smaller_than_kernel_rejected(self):
        with pytest.raises(ShapeError):
            F.maxpool2d_forward(np.zeros((1, 1, 4, 4)), kernel=2, stride=2, pad=2)


class TestPaddedAvgPool:
    def test_count_include_pad_divides_by_window_size(self):
        x = np.ones((1, 1, 2, 2))
        out = F.avgpool2d_forward(x, kernel=2, stride=2, pad=1, count_include_pad=True)
        # Each corner window holds one real 1.0 and three padded zeros.
        np.testing.assert_allclose(out, 0.25)

    def test_count_exclude_pad_divides_by_real_elements(self):
        x = np.ones((1, 1, 2, 2))
        out = F.avgpool2d_forward(x, kernel=2, stride=2, pad=1, count_include_pad=False)
        np.testing.assert_allclose(out, 1.0)

    @pytest.mark.parametrize("count_include_pad", [True, False])
    def test_forward_backward_divisors_are_consistent(self, count_include_pad):
        # d(sum of outputs)/dx computed analytically must match the backward
        # pass exactly: both sides use the same per-window divisor.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 5, 5))
        out = F.avgpool2d_forward(
            x, kernel=3, stride=2, pad=1, count_include_pad=count_include_pad
        )
        grad = F.avgpool2d_backward(
            np.ones_like(out), x.shape, 3, 2, pad=1, count_include_pad=count_include_pad
        )
        eps = 1e-6
        bumped = x.copy()
        bumped[0, 1, 0, 0] += eps
        bumped_out = F.avgpool2d_forward(
            bumped, kernel=3, stride=2, pad=1, count_include_pad=count_include_pad
        )
        numeric = (bumped_out.sum() - out.sum()) / eps
        assert grad[0, 1, 0, 0] == pytest.approx(numeric, rel=1e-4)

    def test_default_matches_historical_behavior(self):
        # Table-I runs divide by kernel**2 regardless of padding; the default
        # must keep doing that.
        x = np.random.default_rng(7).random((2, 2, 4, 4))
        col = F.im2col(x, 3, 3, 1, 1).reshape(-1, 2, 9)
        expected = col.mean(axis=2).reshape(2, 4, 4, 2).transpose(0, 3, 1, 2)
        out = F.avgpool2d_forward(x, kernel=3, stride=1, pad=1)
        np.testing.assert_allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# pool_activation fast-vs-reference parity
# ---------------------------------------------------------------------------

class TestPoolActivationParity:
    @pytest.mark.parametrize("shape", [
        (2, 3, 8, 8),    # divides evenly into 2x2 blocks
        (2, 3, 12, 12),  # divides evenly into 3x3 blocks
        (1, 2, 7, 9),    # ragged trailing blocks on both axes
        (3, 1, 10, 10),  # ragged (block 3 over 10)
        (2, 4, 5, 16),   # mixed: ragged rows, even columns
    ])
    def test_matches_reference(self, shape):
        x = np.random.default_rng(8).standard_normal(shape)
        fast = pool_activation(x, max_spatial=4)
        ref = pool_activation_reference(x, max_spatial=4)
        assert fast.shape == ref.shape
        np.testing.assert_allclose(fast, ref, atol=1e-12)

    def test_preserves_float32(self):
        x = np.random.default_rng(9).standard_normal((2, 2, 10, 10)).astype(np.float32)
        fast = pool_activation(x, max_spatial=4)
        assert fast.dtype == np.float32
        np.testing.assert_allclose(
            fast, pool_activation_reference(x, max_spatial=4), atol=1e-6
        )

    def test_small_maps_and_dense_passthrough(self):
        dense = np.random.default_rng(10).standard_normal((4, 6))
        np.testing.assert_array_equal(pool_activation(dense), dense)
        small = np.random.default_rng(11).standard_normal((2, 3, 3, 3))
        np.testing.assert_array_equal(
            pool_activation(small, max_spatial=4), small.reshape(2, -1)
        )


# ---------------------------------------------------------------------------
# dtype policy
# ---------------------------------------------------------------------------

class TestDtypePolicy:
    def test_default_is_float64(self):
        assert dt.compute_dtype() == np.float64
        assert dt.as_compute(np.zeros(3, dtype=np.float32)).dtype == np.float64

    def test_autocast_scopes_the_change(self):
        with dt.autocast("float32"):
            assert dt.compute_dtype() == np.float32
            assert dt.as_compute([1.0, 2.0]).dtype == np.float32
        assert dt.compute_dtype() == np.float64

    def test_autocast_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with dt.autocast(np.float32):
                raise RuntimeError("boom")
        assert dt.compute_dtype() == np.float64

    def test_rejects_unsupported_dtypes(self):
        with pytest.raises(ConfigurationError):
            dt.resolve_dtype("int32")
        with pytest.raises(ConfigurationError):
            dt.resolve_dtype("float16")

    def test_as_compute_avoids_copy_on_match(self):
        x = np.zeros(4)
        assert dt.as_compute(x) is x

    def test_layer_forward_follows_policy(self):
        from repro.nn.layers import Conv2D, Dense

        x4 = np.random.default_rng(12).standard_normal((2, 1, 5, 5))
        conv = Conv2D(1, 2, kernel_size=3, padding=1, rng=0)
        dense = Dense(4, 3, rng=0)
        with dt.autocast("float32"):
            assert conv.forward(x4).dtype == np.float32
            assert dense.forward(np.zeros((2, 4))).dtype == np.float32
        assert conv.forward(x4).dtype == np.float64
        assert dense.forward(np.zeros((2, 4))).dtype == np.float64
        # Parameters themselves are never narrowed.
        assert conv.weight.data.dtype == np.float64


# ---------------------------------------------------------------------------
# End-to-end extraction parity: float32 fast path vs float64 reference
# ---------------------------------------------------------------------------

class TestExtractionDtypeParity:
    def test_float32_trajectories_match_float64_below_1e5(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        instrumented = fitted_deepmorph.instrumented
        assert instrumented.inference_dtype == np.float32

        fast_traj, fast_final = instrumented.layer_distributions(inputs)
        original = instrumented.inference_dtype
        try:
            instrumented.inference_dtype = np.dtype(np.float64)
            ref_traj, ref_final = instrumented.layer_distributions(inputs)
        finally:
            instrumented.inference_dtype = original

        assert fast_traj.dtype == np.float64  # boundary is always float64
        assert np.max(np.abs(fast_traj - ref_traj)) < 1e-5
        assert np.max(np.abs(fast_final - ref_final)) < 1e-5
        # Distributions stay normalized on the fast path.
        np.testing.assert_allclose(fast_traj.sum(axis=2), 1.0, atol=1e-5)

    def test_probe_training_stays_float64(self, fitted_deepmorph, tiny_splits):
        train, _ = tiny_splits
        inputs, _ = train.arrays()
        instrumented = fitted_deepmorph.instrumented
        activations, logits = instrumented.collect_activations(
            inputs[:8], dtype=np.float64
        )
        for name, acts in activations.items():
            assert acts.dtype == np.float64, name
        assert logits.dtype == np.float64

    def test_collect_activations_defaults_to_inference_dtype(
        self, fitted_deepmorph, tiny_splits
    ):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        activations, logits = fitted_deepmorph.instrumented.collect_activations(inputs[:4])
        for name, acts in activations.items():
            assert acts.dtype == np.float32, name
        assert logits.dtype == np.float32
