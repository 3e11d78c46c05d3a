"""Calibration of the defect-classifier weights.

DeepMorph's per-case decision rule is a linear scoring function over the
footprint specifics and the model-level context signals (see
:mod:`repro.core.classifier`).  This module fits those weights from labeled
defect-injection runs: every faulty case of a run whose injected defect is
known becomes one training example (feature vector → injected defect).

The fit is a multinomial logistic regression trained with the library's own
substrate (a :class:`~repro.nn.layers.Dense` layer and Adam).  The resulting
weights ship as the defaults of
:class:`~repro.core.classifier.DefectClassifierConfig`; re-run the calibration
with different seeds or scenarios to reproduce or revise them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.classifier import (
    FEATURE_NAMES,
    DefectClassifierConfig,
    DiagnosisContext,
    build_feature_matrix,
)
from ..core.specifics import SpecificsBatch
from ..defects import DefectType
from ..exceptions import ExperimentError
from ..nn.layers import Dense
from ..nn.losses import SoftmaxCrossEntropy
from ..optim import Adam
from ..rng import RngLike, ensure_rng
from .config import MODEL_DATASETS, ExperimentSettings
from .runner import run_cell

__all__ = ["CalibrationExample", "collect_examples", "fit_weights", "calibrate"]

_ORDER = (DefectType.ITD, DefectType.UTD, DefectType.SD)


@dataclass(frozen=True)
class CalibrationExample:
    """One labeled training example for the weight fit."""

    features: np.ndarray
    label: DefectType
    model: str

    @property
    def label_index(self) -> int:
        return _ORDER.index(self.label)


def collect_examples(
    models: Sequence[str] = ("lenet", "alexnet"),
    defects: Sequence[DefectType] = (DefectType.ITD, DefectType.UTD, DefectType.SD),
    settings: Optional[ExperimentSettings] = None,
    seeds: Sequence[int] = (11,),
    progress: Optional[callable] = None,
) -> List[CalibrationExample]:
    """Run labeled defect-injection cells and harvest per-case feature vectors."""
    settings = settings or ExperimentSettings()
    examples: List[CalibrationExample] = []
    for seed in seeds:
        for model in models:
            if model not in MODEL_DATASETS:
                raise ExperimentError(f"unknown model {model!r}")
            model_settings = settings.for_model(model).with_seed(seed)
            for defect in defects:
                cell = run_cell(defect, model_settings, collect_specifics=True)
                specifics: SpecificsBatch = cell.extras.get("specifics", [])
                context: DiagnosisContext = cell.extras.get("context") or DiagnosisContext()
                examples.extend(
                    CalibrationExample(features=row, label=defect, model=model)
                    for row in build_feature_matrix(specifics, context)
                )
                if progress is not None:
                    progress(
                        f"collected {len(specifics):4d} cases from "
                        f"{model}/{defect.value} (seed {seed}, acc {cell.test_accuracy:.3f})"
                    )
    if not examples:
        raise ExperimentError("calibration collected no examples")
    return examples


def fit_weights(
    examples: Sequence[CalibrationExample],
    epochs: int = 300,
    learning_rate: float = 0.05,
    weight_decay: float = 4e-3,
    temperature: float = 0.35,
    rng: RngLike = 0,
) -> Tuple[DefectClassifierConfig, Dict[str, float]]:
    """Fit the linear scoring weights with multinomial logistic regression.

    Returns the fitted config and a metrics dict (training accuracy, per-class
    accuracy).
    """
    if not examples:
        raise ExperimentError("cannot fit weights on zero examples")
    features = np.stack([ex.features for ex in examples])
    labels = np.array([ex.label_index for ex in examples], dtype=np.int64)

    generator = ensure_rng(rng)
    dense = Dense(features.shape[1], len(_ORDER), use_bias=False, rng=generator, name="calibration")
    loss = SoftmaxCrossEntropy()
    optimizer = Adam(dense.parameters(), lr=learning_rate, weight_decay=weight_decay)

    # Class weights counteract imbalance between scenarios of different sizes.
    counts = np.bincount(labels, minlength=len(_ORDER)).astype(np.float64)
    class_weights = counts.sum() / np.maximum(counts, 1.0) / len(_ORDER)
    sample_weights = class_weights[labels]
    sample_weights /= sample_weights.mean()

    for _ in range(int(epochs)):
        dense.zero_grad()
        logits = dense.forward(features)
        loss.forward(logits, labels)
        grad = loss.backward() * sample_weights[:, None]
        dense.backward(grad)
        optimizer.step()

    logits = dense.forward(features)
    predictions = logits.argmax(axis=1)
    metrics = {"train_accuracy": float(np.mean(predictions == labels))}
    for i, defect in enumerate(_ORDER):
        mask = labels == i
        metrics[f"accuracy_{defect.value}"] = (
            float(np.mean(predictions[mask] == i)) if mask.any() else 0.0
        )

    weight_matrix = dense.weight.data.T  # (3, num_features)
    config = DefectClassifierConfig.from_weight_matrix(weight_matrix, temperature=temperature)
    return config, metrics


def calibrate(
    models: Sequence[str] = ("lenet", "alexnet"),
    settings: Optional[ExperimentSettings] = None,
    seeds: Sequence[int] = (11,),
    progress: Optional[callable] = None,
    **fit_kwargs,
) -> Tuple[DefectClassifierConfig, Dict[str, float]]:
    """Collect examples and fit the classifier weights in one call."""
    examples = collect_examples(
        models=models, settings=settings, seeds=seeds, progress=progress
    )
    return fit_weights(examples, **fit_kwargs)


def describe_weights(config: DefectClassifierConfig) -> str:
    """Human-readable weight table (feature per row, one column per defect)."""
    matrix = config.weight_matrix()
    lines = [f"{'feature':26s} {'ITD':>8s} {'UTD':>8s} {'SD':>8s}"]
    for i, name in enumerate(FEATURE_NAMES):
        lines.append(
            f"{name:26s} {matrix[0, i]:8.3f} {matrix[1, i]:8.3f} {matrix[2, i]:8.3f}"
        )
    return "\n".join(lines)
