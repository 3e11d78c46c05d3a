"""Analysis utilities: divergences, trajectory statistics, calibration."""

from .calibration import ReliabilityBin, brier_score, expected_calibration_error, reliability_diagram
from .divergence import (
    cosine_similarity,
    entropy,
    js_distance,
    js_divergence,
    js_similarity,
    kl_divergence,
    normalize_distribution,
    normalized_entropy,
    total_variation,
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
    "js_distance",
    "js_similarity",
    "total_variation",
    "cosine_similarity",
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
    "ReliabilityBin",
    "expected_calibration_error",
    "reliability_diagram",
    "brier_score",
]
