"""Classification accuracy, the metric the trainer and the experiment harness report."""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = ["accuracy"]


def _validate(predictions: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if predictions.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"predictions and labels disagree on batch size: "
            f"{predictions.shape[0]} vs {labels.shape[0]}"
        )
    return predictions, labels


def _to_class_ids(predictions: np.ndarray) -> np.ndarray:
    """Accept either class-id vectors or probability/logit matrices."""
    if predictions.ndim == 2:
        return predictions.argmax(axis=1)
    if predictions.ndim == 1:
        return predictions
    raise ShapeError(f"predictions must be 1-D ids or 2-D scores, got shape {predictions.shape}")


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of examples whose predicted class matches the label."""
    predictions, labels = _validate(predictions, labels)
    if labels.size == 0:
        return 0.0
    return float(np.mean(_to_class_ids(predictions) == labels))
