"""Numerical primitives shared by the neural-network layers.

This module is the computational core of the substrate: pure functions over
numpy arrays with no state.  Layers in :mod:`repro.nn.layers` are thin
stateful wrappers that call into these functions for both the forward and the
backward pass.

Conventions
-----------
* Images are ``NCHW``: ``(batch, channels, height, width)``.
* Dense activations are ``(batch, features)``.
* Functions are dtype-preserving for float32/float64 input: the *caller*
  decides the precision (see :mod:`repro.nn.dtype`).  Training and
  gradient-check paths feed float64; the frozen-backbone extraction fast path
  feeds float32.
* Forward kernels move contiguous rows and leave the arithmetic to one BLAS
  call or to whole-array ufunc passes:

  - :func:`conv2d_forward` is a width-tiled *banded* convolution.  It reads
    the input channels-last (padded into one copy when needed); for every
    output row the ``kh`` input rows beneath it are gathered in tiles of
    ``span`` contiguous columns (each a run of ``span · C_in`` floats) and
    multiplied by a banded ``(kh · span · C_in, tile · C_out)`` weight that
    computes ``tile`` neighbouring output columns at once.  The tile is
    fixed by kernel and stride (:func:`_band_tile`: 8 output columns at
    stride 1, 4 at stride 2, one for 1×1 kernels), so the band does not grow
    with the input width; for a 1×1 kernel the band is the plain weight
    matrix.
  - Max and average pooling are ``kernel²`` strided ``np.maximum`` /
    ``np.add`` passes over the padded input; max pooling records its argmax
    only when asked (training mode).

  The backward passes keep the im2col formulation: :func:`conv2d_backward`
  builds :func:`im2col` (a :func:`~numpy.lib.stride_tricks.sliding_window_view`
  gather) from the cached input, and :func:`col2im` keeps a deliberate
  per-kernel-offset loop of strided adds, the fastest safe form of an
  overlapping scatter-add (see its docstring).  Independent loop-based
  oracles live in ``tests/reference/backbone_oracle.py``; the parity suites
  pin the convolution and pooling kernels here to them.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..exceptions import ShapeError

__all__ = [
    "relu",
    "relu_grad",
    "softmax",
    "log_softmax",
    "one_hot",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool2d_forward",
    "avgpool2d_backward",
    "pad_nchw",
    "conv_output_size",
]


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit, ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of :func:`relu` with respect to its input."""
    return grad_out * (x > 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` as a ``(n, num_classes)`` one-hot matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# Convolution: banded forward, im2col backward
# ---------------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution produces non-positive output size: input={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def pad_nchw(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    """Pad the two spatial dimensions of an NCHW tensor with ``value``."""
    if pad == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
        mode="constant", constant_values=value,
    )


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
    pad_value: float = 0.0,
) -> np.ndarray:
    """Rearrange image patches into a matrix for convolution-as-matmul.

    Loop-free: a :func:`~numpy.lib.stride_tricks.sliding_window_view` exposes
    every receptive field as a zero-copy view; the single ``reshape`` at the
    end performs the one unavoidable gather.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    pad_value:
        Fill value for the padded border.  Convolution and average pooling
        use ``0``; max pooling uses ``-inf`` so padding can never win a max.

    Returns
    -------
    ``(N * out_h * out_w, C * kernel_h * kernel_w)`` matrix where each row is
    one receptive field.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    img = pad_nchw(x, pad, value=pad_value)
    # (N, C, H', W', KH, KW) where (H', W') are the stride-1 window positions.
    windows = sliding_window_view(img, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel_h * kernel_w)


def col2im(
    col: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add column gradients back to image space.

    Unlike :func:`im2col`, this is an *overlapping* scatter-add, which a
    :func:`~numpy.lib.stride_tricks.sliding_window_view` cannot express safely
    (``+=`` through overlapping views is undefined).  The ``kernel_h ×
    kernel_w`` loop of vectorized strided adds is deliberate: the fully
    index-bucketed alternative (``col2im_reference`` in
    ``tests/reference/backbone_oracle.py``) materializes an int64 index array
    larger than the gradient itself and measures ~2x slower at training
    scale.  col2im is only on the training/backward path —
    inference never calls it.  Gradient that lands in the padded border is
    cropped away (padding is a constant, it receives no gradient).
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    col = col.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)

    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=col.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            img[:, :, ky:y_max:stride, kx:x_max:stride] += col[:, :, ky, kx, :, :]

    if pad == 0:
        return img
    return img[:, :, pad:-pad, pad:-pad]


def _band_tile(kernel_w: int, stride: int, out_w: int) -> int:
    """Output columns computed per band tile of :func:`conv2d_forward`.

    Neighbouring windows share ``kernel_w - stride`` input columns, and a tile
    reads each shared column once instead of once per window, at the cost of
    multiplying the band's zeros.  Eight output columns at stride 1 and four
    at stride 2 (a span of 9-12 input columns for 3×3 and 5×5 kernels) ran
    ahead of im2col on every LeNet/ResNet 3×3 and 5×5 shape from 4 to 64 px,
    in float32 and float64, on a 2-core VM; a full-width band fell behind
    im2col on the ResNet shapes at 32-64 px.  Kernels whose windows do not
    overlap (1×1, or a stride of at least the kernel width) have nothing to
    share and take the one-column tile, where the band is the plain weight
    matrix.  The tile never exceeds the output width.
    """
    if kernel_w <= stride:
        return 1
    return max(1, min(8 // stride, out_w))


def _conv_band(weight: np.ndarray, tile: int, stride: int, dtype) -> np.ndarray:
    """Banded ``(kh · span · C_in, tile · C_out)`` weight of one tile, in ``dtype``.

    Rows are ordered like a gathered tile, ``(ky, column, c_in)`` with
    ``span = (tile - 1) · stride + kw`` columns; output column ``t`` of the
    tile sees the filter taps at columns ``t · stride .. t · stride + kw - 1``
    and zeros elsewhere.  Built per call from the (float64) parameter, so it
    always reflects the current weights.
    """
    c_out, c_in, kh, kw = weight.shape
    span = (tile - 1) * stride + kw
    band = np.zeros((kh, span, c_in, tile, c_out), dtype=dtype)
    taps = weight.transpose(2, 3, 1, 0)  # (kh, kw, C_in, C_out)
    for t in range(tile):
        band[:, t * stride:t * stride + kw, :, t, :] = taps
    return band.reshape(kh * span * c_in, tile * c_out)


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
) -> np.ndarray:
    """2-D convolution forward pass as a width-tiled banded matmul.

    The input is read channels-last, ``(N, H, W, C)``.  When the kernel pads
    or the last, partial, tile reaches past the input, it is first copied
    once into a zero buffer widened on the right (a 1×1 kernel, or an
    unpadded one whose tiles fit, reads the input in place).  For every
    output row the ``kh`` input rows beneath it are gathered in tiles of
    ``span`` contiguous columns, so each copied run is ``span · C_in`` floats
    long for channels-last input, and one matmul against :func:`_conv_band`
    yields ``tile`` output columns per gathered row.  Columns past the output
    width are cropped.

    Parameters
    ----------
    x:
        ``(N, C_in, H, W)`` input.
    weight:
        ``(C_out, C_in, KH, KW)`` filters.
    bias:
        Optional ``(C_out,)`` bias.

    Returns
    -------
    The ``(N, C_out, out_h, out_w)`` output: a channels-last array viewed in
    NCHW order, so it is not C-contiguous.  The matmul runs in the input's
    dtype: float64 parameters are narrowed to match a float32 input rather
    than widening the input.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects OIHW weights, got shape {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weight expects {weight.shape[1]}"
        )
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    tile = _band_tile(kw, stride, out_w)
    tiles = -(-out_w // tile)
    span = (tile - 1) * stride + kw

    img = x.transpose(0, 2, 3, 1)
    width = (tiles * tile - 1) * stride + kw  # input columns the tiles read
    if pad or width > w:
        padded = np.zeros((n, h + 2 * pad, max(width, w + 2 * pad), c_in), dtype=x.dtype)
        padded[:, pad:pad + h, pad:pad + w] = img
        img = padded
    # (N, out_h, tiles, C_in, kh, span): the rows under each output row, tiled.
    windows = sliding_window_view(img, (kh, span), axis=(1, 2))
    windows = windows[:, ::stride, ::tile * stride][:, :out_h, :tiles]
    rows = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * out_h * tiles, kh * span * c_in)

    out = rows @ _conv_band(weight, tile, stride, x.dtype)
    if bias is not None:
        # One bias copy per tile column keeps the add's inner loop tile·C_out long.
        out += np.tile(bias.astype(out.dtype, copy=False), tile)
    out = out.reshape(n, out_h, tiles * tile, c_out)[:, :, :out_w]
    return out.transpose(0, 3, 1, 2)


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int,
    pad: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D convolution backward pass from the forward input ``x``.

    The im2col matrix is built here from ``x`` (which the layer caches, ``k²``
    times smaller than the matrix), not carried over from the forward pass.
    Returns ``(grad_input, grad_weight, grad_bias)``.
    """
    c_out, c_in, kh, kw = weight.shape
    col = im2col(x, kh, kw, stride, pad)
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)

    grad_bias = grad_flat.sum(axis=0)
    grad_weight = (col.T @ grad_flat).T.reshape(c_out, c_in, kh, kw)
    grad_col = grad_flat @ weight.reshape(c_out, -1)
    grad_input = col2im(grad_col, x.shape, kh, kw, stride, pad)
    return grad_input, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _check_pool_pad(kernel: int, pad: int) -> None:
    """Every pooling window must contain at least one real (non-padded) element."""
    if pad >= kernel:
        raise ShapeError(
            f"pooling padding must be smaller than the kernel, got pad={pad} "
            f"for kernel={kernel} (a window could consist entirely of padding)"
        )


def _window_real_counts(
    h: int, w: int, kernel: int, stride: int, pad: int, out_h: int, out_w: int
) -> np.ndarray:
    """Number of real (non-padded) elements in each pooling window.

    Returns an ``(out_h, out_w)`` array.
    """
    def overlap(size: int, out: int) -> np.ndarray:
        starts = np.arange(out) * stride
        lo = np.maximum(starts, pad)
        hi = np.minimum(starts + kernel, pad + size)
        return np.maximum(hi - lo, 0)

    return overlap(h, out_h)[:, None] * overlap(w, out_w)[None, :]


def _pool_offsets(
    img: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> Iterator[np.ndarray]:
    """The ``kernel²`` strided ``(N, C, out_h, out_w)`` views of a padded input.

    The view at offset ``(ky, kx)`` holds element ``(ky, kx)`` of every
    pooling window, yielded in row-major offset order ``ky · kernel + kx``
    (the order of a window's entries in an im2col row).  Reducing the views
    elementwise pools the input without materializing any window.
    """
    for ky in range(kernel):
        for kx in range(kernel):
            yield img[
                :, :,
                ky:ky + stride * (out_h - 1) + 1:stride,
                kx:kx + stride * (out_w - 1) + 1:stride,
            ]


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, pad: int = 0, return_argmax: bool = True
) -> Tuple[np.ndarray, "np.ndarray | None"]:
    """Max pooling forward pass: ``kernel²`` strided ``np.maximum`` passes.

    Padding is filled with ``-inf`` rather than zero so a padded position can
    never be selected: with an all-negative window, the max is the true
    (negative) maximum, not a phantom zero from the border.

    Returns ``(output, argmax)``.  ``argmax`` is the ``(N · out_h · out_w, C)``
    window offset ``ky · kernel + kx`` of each selected element, the layout
    :func:`maxpool2d_backward` reads; on ties the first offset wins, as with
    ``argmax`` over an im2col row.  It costs a comparison per pass, so
    inference callers pass ``return_argmax=False`` and get ``argmax=None``.
    The output follows the memory layout of the (padded) input.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects NCHW input, got shape {x.shape}")
    _check_pool_pad(kernel, pad)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)

    views = _pool_offsets(pad_nchw(x, pad, value=-np.inf), kernel, stride, out_h, out_w)
    out = next(views).copy(order="K")
    argmax = np.zeros_like(out, dtype=np.intp) if return_argmax else None
    for offset, view in enumerate(views, start=1):
        if argmax is not None:
            # Strictly greater: on a tie the earlier offset keeps the argmax.
            argmax[view > out] = offset
        np.maximum(out, view, out=out)
    if argmax is None:
        return out, None
    return out, argmax.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c)


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int = 0,
) -> np.ndarray:
    """Max pooling backward pass: route each gradient to its argmax position.

    Because the forward pass pads with ``-inf``, ``argmax`` always points at a
    real input element, so no gradient is ever routed into (and then silently
    cropped out of) the padded border.
    """
    _check_pool_pad(kernel, pad)
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)

    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c)
    grad_col = np.zeros((n * out_h * out_w, c, kernel * kernel), dtype=grad_out.dtype)
    rows = np.arange(grad_col.shape[0])[:, None]
    cols = np.arange(c)[None, :]
    grad_col[rows, cols, argmax] = grad_flat
    grad_col = grad_col.reshape(n * out_h * out_w, c * kernel * kernel)
    return col2im(grad_col, x_shape, kernel, kernel, stride, pad)


def avgpool2d_forward(
    x: np.ndarray,
    kernel: int,
    stride: int,
    pad: int = 0,
    count_include_pad: bool = True,
) -> np.ndarray:
    """Average pooling forward pass: ``kernel²`` strided ``np.add`` passes.

    The output follows the memory layout of the (padded) input.

    Parameters
    ----------
    count_include_pad:
        When ``True`` (the historical and Table-I behaviour) every window
        divides by ``kernel * kernel``, counting padded zeros toward the mean.
        When ``False`` each window divides by the number of *real* elements it
        covers, so border averages are unbiased.
    """
    if x.ndim != 4:
        raise ShapeError(f"avgpool2d expects NCHW input, got shape {x.shape}")
    _check_pool_pad(kernel, pad)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    views = _pool_offsets(pad_nchw(x, pad), kernel, stride, out_h, out_w)
    out = next(views).copy(order="K")
    for view in views:
        out += view
    if count_include_pad or pad == 0:
        out /= kernel * kernel
    else:
        out /= _window_real_counts(h, w, kernel, stride, pad, out_h, out_w).astype(out.dtype)
    return out


def avgpool2d_backward(
    grad_out: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int = 0,
    count_include_pad: bool = True,
) -> np.ndarray:
    """Average pooling backward pass: spread each gradient evenly over its window.

    Mirrors the forward divisor exactly: ``kernel * kernel`` when padding is
    counted, the per-window real-element count otherwise.  Shares going to
    padded positions are cropped by :func:`col2im`, which is consistent with
    the forward pass in both modes (padded entries are constants).
    """
    _check_pool_pad(kernel, pad)
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c)
    if count_include_pad or pad == 0:
        scaled = grad_flat / (kernel * kernel)
    else:
        counts = _window_real_counts(h, w, kernel, stride, pad, out_h, out_w).reshape(-1)
        scaled = grad_flat / np.tile(counts, n).astype(grad_flat.dtype)[:, None]
    grad_col = np.broadcast_to(
        scaled[:, :, None], (n * out_h * out_w, c, kernel * kernel)
    ).reshape(n * out_h * out_w, c * kernel * kernel)
    return col2im(grad_col, x_shape, kernel, kernel, stride, pad)
