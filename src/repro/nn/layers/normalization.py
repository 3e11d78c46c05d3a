"""Batch normalization for convolutional activations."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...exceptions import ConfigurationError, ShapeError
from ..dtype import as_compute, match_dtype
from ..module import Layer, Parameter

__all__ = ["BatchNorm2D"]

#: The axes each channel's statistics reduce over in NCHW input.
_AXES = (0, 2, 3)


def _per_channel(stat: np.ndarray) -> np.ndarray:
    """Reshape a per-channel statistic so it broadcasts against NCHW input."""
    return stat.reshape(1, -1, 1, 1)


class BatchNorm2D(Layer):
    """Batch normalization over ``(batch, channels, height, width)`` activations."""

    buffer_names = ("running_mean", "running_var")

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if num_features <= 0:
            raise ConfigurationError(f"num_features must be positive, got {num_features}")
        if not 0.0 <= momentum <= 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1], got {momentum}")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")

        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)

        self.gamma = self.add_parameter(
            "gamma", Parameter(np.ones(num_features), name=f"{self.name}.gamma")
        )
        self.beta = self.add_parameter(
            "beta", Parameter(np.zeros(num_features), name=f"{self.name}.beta")
        )

        # Running statistics are buffers, not parameters: they are updated by
        # the forward pass in training mode and consumed in eval mode.
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        if x.ndim != 4:
            raise ShapeError(f"BatchNorm2D expects NCHW input, got shape {x.shape}")
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2D built for {self.num_features} channels, got {x.shape[1]}"
            )

        if self.training:
            mean = x.mean(axis=_AXES)
            var = x.var(axis=_AXES)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = match_dtype(self.running_mean, x)
            var = match_dtype(self.running_var, x)

        inv_std = 1.0 / np.sqrt(_per_channel(var) + self.eps)
        if inv_std.dtype != x.dtype:
            inv_std = inv_std.astype(x.dtype)
        x_hat = (x - _per_channel(mean)) * inv_std

        out = _per_channel(match_dtype(self.gamma.data, x)) * x_hat + _per_channel(
            match_dtype(self.beta.data, x)
        )
        if self.training:
            self._cache = (x_hat, inv_std)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                "backward called before a training-mode forward on batch norm"
            )
        x_hat, inv_std = self._cache
        grad_out = np.asarray(grad_out, dtype=np.float64)

        # Number of elements that contributed to each channel's statistics.
        m = grad_out.size / self.num_features

        grad_gamma = (grad_out * x_hat).sum(axis=_AXES)
        grad_beta = grad_out.sum(axis=_AXES)
        self.gamma.accumulate_grad(grad_gamma)
        self.beta.accumulate_grad(grad_beta)

        grad_xhat = grad_out * _per_channel(self.gamma.data)
        grad_input = (
            inv_std
            / m
            * (
                m * grad_xhat
                - _per_channel(grad_xhat.sum(axis=_AXES))
                - x_hat * _per_channel((grad_xhat * x_hat).sum(axis=_AXES))
            )
        )
        return grad_input

    def output_shape(self, input_shape):
        return tuple(input_shape)
