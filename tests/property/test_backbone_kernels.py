"""Property tests: the gather-free backbone kernels equal their loop oracles.

Three groups, each against ``tests/reference/backbone_oracle.py``:

1. The width-tiled banded convolution against an im2col-matmul oracle, over
   empty batches, 1×1/3×3/5×5 kernels, strides 1-2, paddings up to ``k - 1``
   and widths from a single partial tile to several tiles (64 px).
2. Offset-pass max and average pooling against a sliding-window oracle, on
   values drawn from a few integers so that ties and all-negative windows
   beside ``-inf`` padding are common; the argmax must make the same
   first-max choice as ``argmax`` over an im2col row.
3. The matmul ``pool_activation`` against the block-loop oracle, including
   the non-contiguous NCHW view the banded convolution returns.

Inputs are drawn in both NCHW and channels-last memory layouts (the layout
the banded convolution produces), with the same values.  Float comparisons
use ``1e-12`` (float64) and ``1e-5`` (float32), scaled by ``1 + Σ|terms|``
for sums, which bounds the rounding of any summation order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import pool_activation
from repro.nn import functional as F
from tests.reference import backbone_oracle as oracle

EXAMPLE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

TOLERANCE = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}
DTYPES = st.sampled_from([np.dtype(np.float64), np.dtype(np.float32)])


def channels_last(data, x: np.ndarray) -> np.ndarray:
    """``x`` itself or the same values stored channels-last, viewed as NCHW."""
    if data.draw(st.booleans(), label="channels_last"):
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return x


def spatial_size(data, kernel: int, pad: int, largest: int, label: str) -> int:
    """A side length that leaves at least one window."""
    return data.draw(st.integers(max(1, kernel - 2 * pad), largest), label=label)


def assert_close(actual: np.ndarray, expected: np.ndarray, scale, dtype) -> None:
    """``|actual - expected| <= tol(dtype) · (1 + scale)`` elementwise."""
    assert actual.shape == expected.shape
    bound = TOLERANCE[np.dtype(dtype)] * (1.0 + np.asarray(scale))
    assert np.all(np.abs(actual.astype(np.float64) - expected) <= bound)


def spy_on_bands(monkeypatch) -> list:
    """Record the shape of every band :func:`F.conv2d_forward` builds."""
    shapes = []
    build = F._conv_band

    def recording(weight, tile, stride, dtype):
        band = build(weight, tile, stride, dtype)
        shapes.append(band.shape)
        return band

    monkeypatch.setattr(F, "_conv_band", recording)
    return shapes


# ---------------------------------------------------------------------------
# (1) banded convolution vs im2col matmul
# ---------------------------------------------------------------------------

def check_conv(x: np.ndarray, weight: np.ndarray, bias, stride: int, pad: int) -> None:
    out = F.conv2d_forward(x, weight, bias, stride, pad)
    assert out.dtype == x.dtype
    wide = x.astype(np.float64)
    expected = oracle.conv2d_forward(wide, weight, bias, stride, pad)
    scale = oracle.conv2d_forward(
        np.abs(wide), np.abs(weight), None if bias is None else np.abs(bias), stride, pad
    )
    assert_close(out, expected, scale, x.dtype)


class TestBandedConvolution:
    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_matches_im2col_oracle(self, data):
        kernel = data.draw(st.sampled_from([1, 3, 5]), label="kernel")
        stride = data.draw(st.integers(1, 2), label="stride")
        pad = data.draw(st.integers(0, kernel - 1), label="pad")
        n = data.draw(st.integers(0, 3), label="n")
        c_in = data.draw(st.integers(1, 3), label="c_in")
        c_out = data.draw(st.integers(1, 4), label="c_out")
        h = spatial_size(data, kernel, pad, 7, "h")
        w = spatial_size(data, kernel, pad, 64, "w")
        dtype = data.draw(DTYPES, label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = channels_last(data, rng.uniform(-1, 1, (n, c_in, h, w)).astype(dtype))
        weight = rng.uniform(-1, 1, (c_out, c_in, kernel, kernel))
        bias = rng.uniform(-1, 1, c_out) if data.draw(st.booleans(), label="bias") else None
        check_conv(x, weight, bias, stride, pad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel, stride, pad, width", [
        (3, 1, 1, 13),   # 13 output columns: one full tile of 8, a partial one of 5
        (5, 1, 2, 14),   # LeNet conv1: 14 columns, the last tile partial
        (5, 1, 2, 7),    # LeNet conv2: narrower than one tile
        (3, 2, 1, 16),   # ResNet downsampling: 8 columns in tiles of 4
        (3, 2, 1, 21),   # 11 columns: the last stride-2 tile partial
        (3, 1, 1, 64),   # eight full tiles
        (5, 2, 4, 61),   # large padding, 33 columns
        (1, 2, 0, 16),   # 1×1 projection: one-column tiles
    ])
    def test_partial_and_multiple_tiles(self, kernel, stride, pad, width, dtype):
        rng = np.random.default_rng(width)
        x = rng.uniform(-1, 1, (2, 3, 9, width)).astype(dtype)
        weight = rng.uniform(-1, 1, (4, 3, kernel, kernel))
        check_conv(x, weight, rng.uniform(-1, 1, 4), stride, pad)

    @pytest.mark.parametrize("stride, tile", [(1, 8), (2, 4)])
    def test_band_size_is_independent_of_input_width(self, monkeypatch, stride, tile):
        shapes = spy_on_bands(monkeypatch)
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((4, 3, 3, 3))
        for size in (16, 32, 64):
            F.conv2d_forward(rng.standard_normal((1, 3, size, size)), weight, None, stride, 1)
        span = (tile - 1) * stride + 3
        assert shapes == [(3 * span * 3, tile * 4)] * 3

    def test_one_by_one_kernel_multiplies_by_the_weight_matrix(self, monkeypatch):
        rng = np.random.default_rng(1)
        weight = rng.standard_normal((5, 3, 1, 1))
        np.testing.assert_array_equal(
            F._conv_band(weight, 1, 2, np.float64), weight.reshape(5, 3).T
        )
        shapes = spy_on_bands(monkeypatch)
        x = rng.standard_normal((2, 3, 64, 64))
        out = F.conv2d_forward(x, weight, None, 2, 0)
        assert shapes == [(3, 5)]
        expected = np.einsum("nchw,oc->nohw", x[:, :, ::2, ::2], weight.reshape(5, 3))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_band_tile_rule(self):
        assert F._band_tile(5, 1, 14) == 8
        assert F._band_tile(3, 2, 32) == 4
        assert F._band_tile(3, 1, 4) == 4   # never wider than the output
        assert F._band_tile(1, 1, 64) == 1  # windows do not overlap
        assert F._band_tile(2, 2, 64) == 1


# ---------------------------------------------------------------------------
# (2) offset-pass pooling vs the sliding-window oracle
# ---------------------------------------------------------------------------

def pooling_case(data):
    kernel = data.draw(st.integers(1, 4), label="kernel")
    stride = data.draw(st.integers(1, 3), label="stride")
    pad = data.draw(st.integers(0, kernel - 1), label="pad")
    n = data.draw(st.integers(0, 3), label="n")
    c = data.draw(st.integers(1, 3), label="c")
    h = spatial_size(data, kernel, pad, 12, "h")
    w = spatial_size(data, kernel, pad, 12, "w")
    dtype = data.draw(DTYPES, label="dtype")
    # A handful of integers: ties are common, and with high=0 every value is
    # negative, so a padded 0 would win any max it was allowed into.
    high = data.draw(st.sampled_from([0, 3]), label="high")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.integers(-3, high, (n, c, h, w)).astype(dtype)
    return channels_last(data, x), kernel, stride, pad


class TestOffsetPassPooling:
    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_max_pool_and_argmax_match_oracle(self, data):
        x, kernel, stride, pad = pooling_case(data)
        expected, expected_argmax = oracle.maxpool2d_forward(x, kernel, stride, pad)
        out, argmax = F.maxpool2d_forward(x, kernel, stride, pad, return_argmax=True)
        assert out.dtype == x.dtype
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(argmax, expected_argmax)
        eval_out, no_argmax = F.maxpool2d_forward(x, kernel, stride, pad, return_argmax=False)
        assert no_argmax is None
        np.testing.assert_array_equal(eval_out, expected)

    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_avg_pool_matches_oracle(self, data):
        x, kernel, stride, pad = pooling_case(data)
        count_include_pad = data.draw(st.booleans(), label="count_include_pad")
        out = F.avgpool2d_forward(x, kernel, stride, pad, count_include_pad=count_include_pad)
        assert out.dtype == x.dtype
        wide = x.astype(np.float64)
        expected = oracle.avgpool2d_forward(wide, kernel, stride, pad, count_include_pad)
        scale = oracle.avgpool2d_forward(np.abs(wide), kernel, stride, pad, count_include_pad)
        assert_close(out, expected, scale, x.dtype)

    def test_ties_keep_the_first_offset(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 0] = x[0, 0, 1, 1] = 2.0  # window (0, 0): offsets 2 and 3 tie
        _, argmax = F.maxpool2d_forward(x, kernel=2, stride=2)
        assert argmax[:, 0].tolist() == [2, 0, 0, 0]


# ---------------------------------------------------------------------------
# (3) matmul pool_activation vs the block loop
# ---------------------------------------------------------------------------

class TestMatmulPoolActivation:
    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_matches_block_loop_oracle(self, data):
        n = data.draw(st.integers(0, 3), label="n")
        c = data.draw(st.integers(1, 3), label="c")
        h = data.draw(st.integers(1, 20), label="h")
        w = data.draw(st.integers(1, 20), label="w")
        max_spatial = data.draw(st.integers(1, 5), label="max_spatial")
        dtype = data.draw(DTYPES, label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = channels_last(data, rng.uniform(-1, 1, (n, c, h, w)).astype(dtype))
        out = pool_activation(x, max_spatial=max_spatial)
        assert out.dtype == dtype
        expected = oracle.pool_activation_reference(x, max_spatial=max_spatial)
        assert_close(out, expected, 1.0, dtype)

    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_pools_the_banded_convolution_output(self, data):
        kernel = data.draw(st.sampled_from([1, 3, 5]), label="kernel")
        pad = kernel // 2
        size = data.draw(st.integers(max(kernel, 2), 20), label="size")
        dtype = data.draw(DTYPES, label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.uniform(-1, 1, (2, 2, size, size)).astype(dtype)
        conv = F.conv2d_forward(x, rng.uniform(-1, 1, (3, 2, kernel, kernel)), None, 1, pad)
        assert not conv.flags.c_contiguous
        out = pool_activation(conv, max_spatial=4)
        expected = oracle.pool_activation_reference(np.array(conv), max_spatial=4)
        assert_close(out, expected, np.abs(expected).max(), dtype)
