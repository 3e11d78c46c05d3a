"""Spatial pooling layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...exceptions import ConfigurationError, ShapeError
from .. import functional as F
from ..dtype import as_compute
from ..module import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Layer):
    """Max pooling over square windows of an NCHW tensor."""

    def __init__(
        self,
        kernel_size: int = 2,
        stride: Optional[int] = None,
        padding: int = 0,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        if self.stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")
        if padding < 0:
            raise ConfigurationError(f"padding must be non-negative, got {padding}")
        if padding >= self.kernel_size:
            raise ConfigurationError(
                f"padding must be smaller than kernel_size, got padding={padding} "
                f"for kernel_size={self.kernel_size}"
            )
        self.padding = int(padding)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        self._input_shape = x.shape  # type: ignore[assignment]
        # The argmax is only needed to route gradients; inference-mode
        # forwards skip it (and the comparison it adds to every pass).
        out, argmax = F.maxpool2d_forward(
            x, self.kernel_size, self.stride, self.padding,
            return_argmax=self.training,
        )
        self._argmax = argmax
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on MaxPool2D")
        if self._argmax is None:
            raise RuntimeError(
                "MaxPool2D.backward needs the argmax recorded by a training-mode "
                "forward; the last forward ran in eval mode (which skips it). "
                "Call train() before the forward pass that gradients flow through."
            )
        return F.maxpool2d_backward(
            np.asarray(grad_out, dtype=np.float64),
            self._argmax,
            self._input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def output_shape(self, input_shape):
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, out_h, out_w)


class AvgPool2D(Layer):
    """Average pooling over square windows of an NCHW tensor.

    Parameters
    ----------
    count_include_pad:
        When ``True`` (the historical default, matching the Table-I runs)
        padded zeros count toward every window's divisor; when ``False`` each
        window divides by the number of real elements it covers.
    """

    def __init__(
        self,
        kernel_size: int = 2,
        stride: Optional[int] = None,
        padding: int = 0,
        count_include_pad: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        if self.stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")
        if padding < 0:
            raise ConfigurationError(f"padding must be non-negative, got {padding}")
        if padding >= self.kernel_size:
            raise ConfigurationError(
                f"padding must be smaller than kernel_size, got padding={padding} "
                f"for kernel_size={self.kernel_size}"
            )
        self.padding = int(padding)
        self.count_include_pad = bool(count_include_pad)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        self._input_shape = x.shape  # type: ignore[assignment]
        return F.avgpool2d_forward(
            x, self.kernel_size, self.stride, self.padding,
            count_include_pad=self.count_include_pad,
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on AvgPool2D")
        return F.avgpool2d_backward(
            np.asarray(grad_out, dtype=np.float64),
            self._input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            count_include_pad=self.count_include_pad,
        )

    def output_shape(self, input_shape):
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, out_h, out_w)


class GlobalAvgPool2D(Layer):
    """Average every feature map down to a single value: NCHW → NC.

    Used as the pre-classifier layer of ResNet- and DenseNet-style models.
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        if x.ndim != 4:
            raise ShapeError(f"GlobalAvgPool2D expects NCHW input, got shape {x.shape}")
        self._input_shape = x.shape  # type: ignore[assignment]
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on GlobalAvgPool2D")
        n, c, h, w = self._input_shape
        grad = np.asarray(grad_out, dtype=np.float64)[:, :, None, None]
        return np.broadcast_to(grad / (h * w), self._input_shape).copy()

    def output_shape(self, input_shape):
        c, _, _ = input_shape
        return (c,)
