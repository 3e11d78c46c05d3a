"""Gradient-descent optimizers: the :class:`Optimizer` base class and Adam.

An optimizer holds a list of :class:`~repro.nn.module.Parameter` objects and
updates their ``data`` in place from their accumulated ``grad``.  Parameters
whose ``trainable`` flag is ``False`` are skipped, which is how the softmax
probes are trained against a frozen backbone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.module import Parameter

__all__ = ["Optimizer", "Adam", "clip_gradients"]


def clip_gradients(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm does not exceed ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base class for optimizers."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")
        self.lr = float(lr)
        self.iterations = 0

    def step(self) -> None:
        """Apply one update to every trainable parameter with a gradient."""
        for param in self.parameters:
            if not param.trainable or param.grad is None:
                continue
            self._update(param)
        self.iterations += 1

    def _update(self, param: Parameter) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def state_dict(self) -> Dict[str, float]:
        """Scalar hyper-parameter state (for experiment logging)."""
        return {"lr": self.lr, "iterations": self.iterations}


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(f"betas must lie in [0, 1), got ({beta1}, {beta2})")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t: Dict[int, int] = {}

    def _update(self, param: Parameter) -> None:
        grad = param.grad
        if self.weight_decay > 0:
            grad = grad + self.weight_decay * param.data
        key = id(param)
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        t = self._t.get(key, 0) + 1

        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * (grad ** 2)
        self._m[key], self._v[key], self._t[key] = m, v, t

        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
