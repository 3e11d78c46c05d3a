"""Loop-based oracles for the backbone kernels in :mod:`repro.nn.functional`.

These are the direct definitions, sharing no gather or reduction code with
the production kernels: ``im2col_reference`` copies one strided slice per
kernel offset, ``col2im_reference`` scatter-adds through one
:func:`numpy.bincount` over explicit destination indices, the convolution is
an im2col matmul, pooling reduces each window's im2col row, and
``pool_activation_reference`` averages one block at a time.  The banded
convolution, the offset-pass pooling kernels and the matmul
:func:`repro.core.instrument.pool_activation` are pinned against them.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.functional import conv_output_size, pad_nchw


def im2col_reference(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
    pad_value: float = 0.0,
) -> np.ndarray:
    """``(N · out_h · out_w, C · kh · kw)`` receptive fields, one slice-copy per offset."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    img = pad_nchw(x, pad, value=pad_value)
    col = np.zeros((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            col[:, :, ky, kx, :, :] = img[:, :, ky:y_max:stride, kx:x_max:stride]

    return col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kernel_h * kernel_w)


def col2im_reference(
    col: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Index-bucketed inverse of :func:`im2col_reference` (one ``bincount`` scatter-add).

    Every column entry's flat destination index in the padded image is
    computed by broadcasting; gradient that lands in the padded border is
    cropped away.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad

    # Rows of `col` are (n, out_h, out_w); columns are (c, kernel_h, kernel_w).
    weights = (
        col.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
        .transpose(0, 3, 1, 2, 4, 5)
        .reshape(n * c, -1)
    )
    # Flat spatial index in the padded image for every (oy, ox, ky, kx).
    ys = (np.arange(out_h) * stride)[:, None] + np.arange(kernel_h)[None, :]
    xs = (np.arange(out_w) * stride)[:, None] + np.arange(kernel_w)[None, :]
    spatial = (ys[:, None, :, None] * wp + xs[None, :, None, :]).reshape(-1)
    index = (np.arange(n * c)[:, None] * (hp * wp) + spatial[None, :]).ravel()

    img = np.bincount(index, weights=weights.ravel(), minlength=n * c * hp * wp)
    img = img.reshape(n, c, hp, wp).astype(col.dtype, copy=False)
    if pad == 0:
        return img
    return img[:, :, pad:-pad, pad:-pad]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    pad: int,
    im2col: Callable[..., np.ndarray] = im2col_reference,
) -> np.ndarray:
    """Convolution as ``im2col(x) @ W``: one receptive field per matmul row.

    ``im2col`` selects the gather (the loop oracle by default; benchmarks pass
    the sliding-window :func:`repro.nn.functional.im2col` to time the im2col
    formulation at its best).  The matmul runs in the input's dtype.
    """
    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    out = im2col(x, kh, kw, stride, pad) @ weight.reshape(c_out, -1).T.astype(x.dtype)
    if bias is not None:
        out = out + bias.astype(x.dtype)
    return out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)


def _pool_columns(x: np.ndarray, kernel: int, stride: int, pad: int, pad_value: float):
    """``(N · out_h · out_w, C, kernel²)`` windows and the output shape."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    col = im2col_reference(x, kernel, kernel, stride, pad, pad_value=pad_value)
    return col.reshape(n * out_h * out_w, c, kernel * kernel), (n, out_h, out_w, c)


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """``(output, argmax)`` from each ``-inf``-padded window's im2col row."""
    col, shape = _pool_columns(x, kernel, stride, pad, -np.inf)
    argmax = col.argmax(axis=2)
    out = np.take_along_axis(col, argmax[:, :, None], axis=2)[:, :, 0]
    return out.reshape(shape).transpose(0, 3, 1, 2), argmax


def avgpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, pad: int = 0, count_include_pad: bool = True
) -> np.ndarray:
    """Window means; without ``count_include_pad`` each divides by its real elements."""
    col, shape = _pool_columns(x, kernel, stride, pad, 0.0)
    if count_include_pad:
        out = col.mean(axis=2)
    else:
        ones = np.ones((1, 1) + x.shape[2:], dtype=x.dtype)
        real, _ = _pool_columns(ones, kernel, stride, pad, 0.0)
        counts = np.tile(real.sum(axis=2), (x.shape[0], 1))
        out = col.sum(axis=2) / counts
    return out.reshape(shape).transpose(0, 3, 1, 2)


def pool_activation_reference(activation: np.ndarray, max_spatial: int = 4) -> np.ndarray:
    """Block-average pooling of probe features, one ceil-sized block at a time."""
    activation = np.asarray(activation, dtype=np.float64)
    if activation.ndim == 2:
        return activation
    n, c, h, w = activation.shape
    if h <= max_spatial and w <= max_spatial:
        return activation.reshape(n, c * h * w)
    block_h = -(-h // max_spatial)
    block_w = -(-w // max_spatial)
    out_h = -(-h // block_h)
    out_w = -(-w // block_w)
    pooled = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            ys = slice(i * block_h, min((i + 1) * block_h, h))
            xs = slice(j * block_w, min((j + 1) * block_w, w))
            pooled[:, :, i, j] = activation[:, :, ys, xs].mean(axis=(2, 3))
    return pooled.reshape(n, c * out_h * out_w)
