"""Analysis utilities: divergences and trajectory statistics."""

from .divergence import (
    entropy,
    js_divergence,
    kl_divergence,
    normalize_distribution,
    normalized_entropy,
)
from .trajectory import (
    batch_commitment_depth,
    batch_divergence_layer,
    batch_entropy_profile,
    batch_layer_stability,
    check_trajectory,
    check_trajectory_stack,
    pairwise_trajectory_divergences,
    trajectory_divergence_to_stack,
)

__all__ = [
    "kl_divergence",
    "js_divergence",
    "entropy",
    "normalized_entropy",
    "normalize_distribution",
    "check_trajectory",
    "check_trajectory_stack",
    "trajectory_divergence_to_stack",
    "pairwise_trajectory_divergences",
    "batch_divergence_layer",
    "batch_commitment_depth",
    "batch_entropy_profile",
    "batch_layer_stability",
]
