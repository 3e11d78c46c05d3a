"""Distribution divergences and entropies.

These are the numerical primitives DeepMorph uses to compare data-flow
footprints against class execution patterns: probability-vector divergences
(KL and Jensen-Shannon) and entropies.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = [
    "kl_divergence",
    "js_divergence",
    "entropy",
    "normalized_entropy",
    "normalize_distribution",
]

_EPS = 1e-12


def normalize_distribution(p: np.ndarray, axis: int = -1) -> np.ndarray:
    """Clip to non-negative values and renormalize so the axis sums to 1."""
    p = np.clip(np.asarray(p, dtype=np.float64), 0.0, None)
    total = p.sum(axis=axis, keepdims=True)
    uniform = np.full_like(p, 1.0 / p.shape[axis])
    # Vectors whose mass is zero (or so small that dividing by it would lose
    # normalization to rounding) fall back to the uniform distribution.
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(total > _EPS, p / np.maximum(total, _EPS), uniform)
    return normalized


def _check_pair(p: np.ndarray, q: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"distributions must have the same shape, got {p.shape} vs {q.shape}")
    return normalize_distribution(p, axis=axis), normalize_distribution(q, axis=axis)


def kl_divergence(p: np.ndarray, q: np.ndarray, axis: int = -1) -> np.ndarray:
    """Kullback–Leibler divergence ``KL(p || q)`` in nats along ``axis``."""
    p, q = _check_pair(p, q, axis)
    ratio = np.log(np.maximum(p, _EPS)) - np.log(np.maximum(q, _EPS))
    return np.where(p > 0, p * ratio, 0.0).sum(axis=axis)


def js_divergence(p: np.ndarray, q: np.ndarray, axis: int = -1) -> np.ndarray:
    """Jensen–Shannon divergence (symmetric, bounded by ``log 2``).

    Computed directly as ``½ KL(p ‖ m) + ½ KL(q ‖ m)`` with ``m = ½(p + q)``.
    This is the reference definition: the batched cross kernel in
    :mod:`repro.analysis.trajectory` uses the equivalent entropy form and is
    tested against this function.
    """
    p, q = _check_pair(p, q, axis)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m, axis=axis) + 0.5 * kl_divergence(q, m, axis=axis)


def entropy(p: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy in nats along ``axis``."""
    p = normalize_distribution(p, axis=axis)
    return -np.where(p > 0, p * np.log(np.maximum(p, _EPS)), 0.0).sum(axis=axis)


def normalized_entropy(p: np.ndarray, axis: int = -1) -> np.ndarray:
    """Entropy divided by ``log(k)`` so the uniform distribution scores 1."""
    p = np.asarray(p, dtype=np.float64)
    k = p.shape[axis]
    if k <= 1:
        return np.zeros(p.sum(axis=axis).shape)
    return entropy(p, axis=axis) / np.log(k)
