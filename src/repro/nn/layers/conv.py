"""2-D convolution layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...exceptions import ConfigurationError
from ...rng import RngLike, ensure_rng
from .. import functional as F
from ..dtype import as_compute
from ..initializers import get_initializer
from ..module import Layer, Parameter

__all__ = ["Conv2D"]


class Conv2D(Layer):
    """2-D convolution over NCHW inputs.

    The forward pass, in training and eval mode alike, is the width-tiled
    banded matmul of :func:`repro.nn.functional.conv2d_forward`.  Its tile
    of output columns is chosen from the layer's whole shape (kernel,
    stride, output width and channels; ``_band_tile``): up to 8 columns at
    stride 1 and 4 at stride 2, wide for few output channels and narrow for
    many (ResNet's scaled layers take 4, 2 or 1, LeNet's 7), and one column
    for 1×1 kernels.  ``benchmarks/conv_tiles.py`` times every tile of every
    conv layer of the scaled models.  Training-mode forwards cache the
    input, and the backward pass builds its im2col matrix from it.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the input and output feature maps.
    kernel_size:
        Side length of the square kernel.
    stride:
        Spatial stride.
    padding:
        Symmetric zero padding; ``"same"`` selects the padding that preserves
        the spatial size for stride 1.
    use_bias:
        Whether a per-channel bias is added.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: "int | str" = 0,
        use_bias: bool = True,
        weight_init: "str | Initializer" = "he_normal",
        bias_init: "str | Initializer" = "zeros",
        rng: RngLike = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if in_channels <= 0 or out_channels <= 0:
            raise ConfigurationError(
                f"Conv2D requires positive channel counts, got in={in_channels}, out={out_channels}"
            )
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        if stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")

        if isinstance(padding, str):
            if padding != "same":
                raise ConfigurationError(f"string padding must be 'same', got {padding!r}")
            if kernel_size % 2 == 0:
                # (kernel_size - 1) // 2 silently shrinks the map for even
                # kernels: symmetric integer padding cannot preserve the
                # spatial size, which would need asymmetric left/right pads.
                raise ConfigurationError(
                    f"padding='same' requires an odd kernel_size, got {kernel_size}; "
                    f"pass an explicit integer padding instead"
                )
            padding = (kernel_size - 1) // 2
        if padding < 0:
            raise ConfigurationError(f"padding must be non-negative, got {padding}")

        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.use_bias = bool(use_bias)

        generator = ensure_rng(rng)
        w_init = get_initializer(weight_init)
        b_init = get_initializer(bias_init)

        self.weight = self.add_parameter(
            "weight",
            Parameter(
                w_init((out_channels, in_channels, kernel_size, kernel_size), generator),
                name=f"{self.name}.weight",
            ),
        )
        self.bias: Optional[Parameter] = None
        if use_bias:
            self.bias = self.add_parameter(
                "bias",
                Parameter(b_init((out_channels,), generator), name=f"{self.name}.bias"),
            )

        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        self._input = self.cache_for_backward(x)
        return F.conv2d_forward(
            x,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.stride,
            self.padding,
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward on Conv2D")
        grad_in, grad_w, grad_b = F.conv2d_backward(
            np.asarray(grad_out, dtype=np.float64),
            self._input,
            self.weight.data,
            self.stride,
            self.padding,
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_in

    def output_shape(self, input_shape):
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"Conv2D(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, pad={self.padding}, "
            f"name={self.name!r})"
        )
