"""Shape-manipulation layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dtype import as_compute
from ..module import Layer

__all__ = ["Flatten"]


class Flatten(Layer):
    """Flatten every non-batch dimension: ``(N, ...) → (N, prod(...))``."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        self._input_shape = x.shape
        return x.reshape(x.shape[0], self.output_shape(x.shape[1:])[0])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on Flatten")
        return np.asarray(grad_out, dtype=np.float64).reshape(self._input_shape)

    def output_shape(self, input_shape):
        size = 1
        for dim in input_shape:
            size *= int(dim)
        return (size,)
