"""Weight initialization schemes.

Initializers are small callables that take a shape and an RNG and return a
filled array.  Layers accept either an initializer instance or its registry
name (``"he_normal"``, ``"glorot_uniform"``, ...), mirroring the ergonomics of
mainstream frameworks so the model-zoo code stays terse.
"""

from __future__ import annotations

from typing import Dict, Sequence, Type

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng

__all__ = [
    "Initializer",
    "Zeros",
    "Ones",
    "RandomNormal",
    "RandomUniform",
    "GlorotUniform",
    "GlorotNormal",
    "HeNormal",
    "HeUniform",
    "get_initializer",
]


def _fan_in_out(shape: Sequence[int]) -> tuple[int, int]:
    """Compute fan-in/fan-out for dense ``(in, out)`` and conv ``(out, in, kh, kw)`` shapes."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


class Initializer:
    """Base class for weight initializers."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Zeros(Initializer):
    """Fill with zeros (the conventional bias initializer)."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        return np.zeros(shape, dtype=np.float64)


class Ones(Initializer):
    """Fill with ones (the conventional batch-norm scale initializer)."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        return np.ones(shape, dtype=np.float64)


class RandomNormal(Initializer):
    """Gaussian initializer with fixed mean and standard deviation."""

    def __init__(self, mean: float = 0.0, std: float = 0.05):
        if std < 0:
            raise ConfigurationError(f"std must be non-negative, got {std}")
        self.mean = float(mean)
        self.std = float(std)

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        return ensure_rng(rng).normal(self.mean, self.std, size=shape)


class RandomUniform(Initializer):
    """Uniform initializer on ``[low, high)``."""

    def __init__(self, low: float = -0.05, high: float = 0.05):
        if high < low:
            raise ConfigurationError(f"high must be >= low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        return ensure_rng(rng).uniform(self.low, self.high, size=shape)


class GlorotUniform(Initializer):
    """Glorot/Xavier uniform initializer, suited to tanh/sigmoid networks."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        fan_in, fan_out = _fan_in_out(shape)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return ensure_rng(rng).uniform(-limit, limit, size=shape)


class GlorotNormal(Initializer):
    """Glorot/Xavier normal initializer."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        fan_in, fan_out = _fan_in_out(shape)
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return ensure_rng(rng).normal(0.0, std, size=shape)


class HeNormal(Initializer):
    """He normal initializer, suited to ReLU networks (the library default)."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        fan_in, _ = _fan_in_out(shape)
        std = np.sqrt(2.0 / max(fan_in, 1))
        return ensure_rng(rng).normal(0.0, std, size=shape)


class HeUniform(Initializer):
    """He uniform initializer."""

    def __call__(self, shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
        fan_in, _ = _fan_in_out(shape)
        limit = np.sqrt(6.0 / max(fan_in, 1))
        return ensure_rng(rng).uniform(-limit, limit, size=shape)


_REGISTRY: Dict[str, Type[Initializer]] = {
    "zeros": Zeros,
    "ones": Ones,
    "random_normal": RandomNormal,
    "random_uniform": RandomUniform,
    "glorot_uniform": GlorotUniform,
    "glorot_normal": GlorotNormal,
    "he_normal": HeNormal,
    "he_uniform": HeUniform,
}


def get_initializer(spec: "str | Initializer") -> Initializer:
    """Resolve an initializer from an instance or a registry name."""
    if isinstance(spec, Initializer):
        return spec
    if isinstance(spec, str):
        key = spec.lower()
        if key not in _REGISTRY:
            raise ConfigurationError(
                f"unknown initializer {spec!r}; available: {sorted(_REGISTRY)}"
            )
        return _REGISTRY[key]()
    raise ConfigurationError(f"initializer must be a name or Initializer, got {type(spec)!r}")
