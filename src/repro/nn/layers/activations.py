"""The ReLU activation layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from ..module import Layer

__all__ = ["ReLU"]


class ReLU(Layer):
    """Rectified linear unit activation."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = self.cache_for_backward(x)
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward on ReLU")
        return F.relu_grad(self._input, grad_out)
