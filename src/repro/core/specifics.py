"""Footprint specifics.

"Footprint specifics" is the paper's name for the per-case quantities
DeepMorph derives from a faulty case's data-flow footprint by comparing it
against the class execution patterns.  They are the features the defect
classifier scores: how well the case follows the predicted class's pattern,
how atypical it is for its true class, how sharp or diffuse the layer-wise
beliefs are, and how early the execution commits or diverges.

The diagnosis pipelines run :func:`compute_specifics_batch` /
:func:`compute_specifics_stack`: all N faulty-case trajectories in one
``(N, L, C)`` array, every pattern comparison done by the library's
broadcasted JS kernels, every per-layer statistic computed array-wide.  The
result is a :class:`SpecificsBatch`, one ``(N,)`` column per feature, which
the defect classifier reads directly; no per-case object is built unless a
caller indexes or iterates the batch (``batch[i]`` is one case's
:class:`FootprintSpecifics`, for drill-down).

The per-case definition the batched core is pinned against is the oracle in
``tests/reference/diagnosis_oracle.py``.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields
from typing import Dict, Sequence, Union

import numpy as np

from ..analysis.trajectory import (
    batch_commitment_depth,
    batch_divergence_layer,
    batch_entropy_profile,
    batch_layer_stability,
    check_trajectory_stack,
)
from ..exceptions import ConfigurationError, ShapeError
from .footprint import FootprintBatch
from .patterns import PatternLibrary

__all__ = [
    "FootprintSpecifics",
    "SpecificsBatch",
    "as_specifics_batch",
    "compute_specifics_batch",
    "compute_specifics_stack",
]


@dataclass(frozen=True)
class FootprintSpecifics:
    """Per-case features derived from a footprint and the pattern library.

    All features lie in ``[0, 1]``.

    Attributes
    ----------
    predicted, true_label:
        The case's predicted and ground-truth classes.
    final_confidence:
        The model's confidence in its (wrong) prediction.
    commitment:
        Fraction of trailing layers already committed to the prediction.
    match_predicted:
        Similarity of the footprint to the *predicted* class's execution
        pattern — high values mean the network executed the wrong class's
        pattern "cleanly".
    match_true:
        Similarity of the footprint to the *true* class's execution pattern.
    best_match:
        Similarity to the best-matching pattern of any class.
    atypicality_true:
        How far outside the true class's training pattern the footprint lies
        (0.5 ≈ typical member, → 1 far outside).
    mean_entropy:
        Mean normalized entropy of the per-layer probe beliefs — high values
        mean the hidden layers never build a confident belief (weak features).
    early_entropy:
        Mean normalized entropy over the first half of the layers.
    divergence_point:
        Normalized position of the first layer whose top-1 differs from the
        true label (0 = already wrong at the first probe, 1 = never wrong).
    stability:
        How little the belief changes between consecutive layers.
    late_entropy:
        Mean normalized entropy over the second half of the layers (sound
        backbones have sharp late-layer beliefs even when early layers are
        generic).
    feature_quality:
        Model-level feature quality: best held-out probe accuracy over the
        hidden layers, rescaled so chance level is 0.  Identical for every
        case of the same model; low values are the fingerprint of a structure
        defect.
    nn_typicality_predicted:
        Nearest-member typicality with respect to the *predicted* class: how
        close the case's footprint comes to specific training executions of
        the class the model chose.  Near 1 means the network treats the case
        exactly like certain training examples of the wrong class — the
        fingerprint of mislabeled training data.
    nn_typicality_true:
        Nearest-member typicality with respect to the *true* class.  Low
        values mean no training example of the true class executes like this
        case — the fingerprint of missing training data.
    """

    predicted: int
    true_label: int
    final_confidence: float
    commitment: float
    match_predicted: float
    match_true: float
    best_match: float
    best_match_class: int
    atypicality_true: float
    mean_entropy: float
    early_entropy: float
    divergence_point: float
    stability: float
    late_entropy: float = 0.0
    feature_quality: float = 1.0
    nn_typicality_predicted: float = 0.0
    nn_typicality_true: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly representation."""
        return {
            "predicted": self.predicted,
            "true_label": self.true_label,
            "final_confidence": self.final_confidence,
            "commitment": self.commitment,
            "match_predicted": self.match_predicted,
            "match_true": self.match_true,
            "best_match": self.best_match,
            "best_match_class": self.best_match_class,
            "atypicality_true": self.atypicality_true,
            "mean_entropy": self.mean_entropy,
            "early_entropy": self.early_entropy,
            "late_entropy": self.late_entropy,
            "divergence_point": self.divergence_point,
            "stability": self.stability,
            "feature_quality": self.feature_quality,
            "nn_typicality_predicted": self.nn_typicality_predicted,
            "nn_typicality_true": self.nn_typicality_true,
        }


#: Field names of :class:`FootprintSpecifics`, which are also the columns of
#: :class:`SpecificsBatch`.
SPECIFICS_FIELDS = tuple(f.name for f in fields(FootprintSpecifics))
_CLASS_FIELDS = ("predicted", "true_label", "best_match_class")


@dataclass(frozen=True, eq=False, repr=False)
class SpecificsBatch(SequenceABC):
    """The footprint specifics of ``N`` faulty cases, one ``(N,)`` column per field.

    Column ``x`` holds ``FootprintSpecifics.x`` of every case: class ids as
    int64, features as float64.  This is what
    :func:`compute_specifics_stack` returns and what
    :func:`~repro.core.classifier.build_feature_matrix`,
    :meth:`~repro.core.classifier.DefectCaseClassifier.build_context` and
    :meth:`~repro.core.classifier.DefectCaseClassifier.aggregate` read.
    ``batch[i]`` and iteration yield :class:`FootprintSpecifics` rows.
    """

    predicted: np.ndarray
    true_label: np.ndarray
    final_confidence: np.ndarray
    commitment: np.ndarray
    match_predicted: np.ndarray
    match_true: np.ndarray
    best_match: np.ndarray
    best_match_class: np.ndarray
    atypicality_true: np.ndarray
    mean_entropy: np.ndarray
    early_entropy: np.ndarray
    divergence_point: np.ndarray
    stability: np.ndarray
    late_entropy: np.ndarray
    feature_quality: np.ndarray
    nn_typicality_predicted: np.ndarray
    nn_typicality_true: np.ndarray

    def __len__(self) -> int:
        return int(self.predicted.shape[0])

    def __getitem__(self, index: int) -> FootprintSpecifics:
        return FootprintSpecifics(
            **{name: getattr(self, name)[index].item() for name in SPECIFICS_FIELDS}
        )

    @classmethod
    def from_rows(cls, rows: Sequence[FootprintSpecifics]) -> "SpecificsBatch":
        """Stack per-case :class:`FootprintSpecifics` into columns."""
        return cls(**{
            name: np.asarray(
                [getattr(row, name) for row in rows],
                dtype=np.int64 if name in _CLASS_FIELDS else np.float64,
            )
            for name in SPECIFICS_FIELDS
        })

    @classmethod
    def concatenate(cls, parts: Sequence["SpecificsBatch"]) -> "SpecificsBatch":
        """The batch of ``parts``' cases, in order (column by column)."""
        return cls(**{
            name: np.concatenate([getattr(part, name) for part in parts])
            for name in SPECIFICS_FIELDS
        })

    def __repr__(self) -> str:
        return f"SpecificsBatch(cases={len(self)})"


def as_specifics_batch(
    specifics: Union[SpecificsBatch, Sequence[FootprintSpecifics]]
) -> SpecificsBatch:
    """``specifics`` as a :class:`SpecificsBatch` (rows are stacked; a batch passes through)."""
    if isinstance(specifics, SpecificsBatch):
        return specifics
    return SpecificsBatch.from_rows(list(specifics))


def _gather_columns(
    matrix: np.ndarray, columns: np.ndarray, default: float
) -> np.ndarray:
    """Per-row gather of ``matrix[i, columns[i]]`` with ``default`` for ``-1`` columns."""
    safe = np.clip(columns, 0, matrix.shape[1] - 1)
    values = matrix[np.arange(matrix.shape[0]), safe]
    return np.where(columns >= 0, values, default)


def compute_specifics_stack(
    trajectories: np.ndarray,
    final_confidences: np.ndarray,
    predicted: np.ndarray,
    true_labels: np.ndarray,
    library: PatternLibrary,
) -> SpecificsBatch:
    """Derive the footprint specifics of ``N`` faulty cases in one batched pass.

    The array-native core of :func:`compute_specifics_batch`: every pattern
    comparison runs through the library's broadcasted JS kernels (one
    nearest-member query covers both the predicted and the true class) and
    every per-layer statistic is computed array-wide, so no per-case Python
    work remains.  Matches the per-case oracle of
    ``tests/reference/diagnosis_oracle.py`` to floating-point reassociation
    error (pinned at ``1e-12`` by the parity suite).

    Parameters
    ----------
    trajectories:
        ``(N, L, C)`` stacked case trajectories.
    final_confidences:
        ``(N,)`` model confidence in each case's own prediction.
    predicted, true_labels:
        ``(N,)`` predicted and ground-truth classes.
    library:
        The fitted pattern library to judge the cases against.
    """
    stack = check_trajectory_stack(trajectories)
    n, num_layers, _ = stack.shape
    predicted = np.asarray(predicted, dtype=np.int64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    final_confidences = np.asarray(final_confidences, dtype=np.float64)
    for name, arr in (
        ("final_confidences", final_confidences),
        ("predicted", predicted),
        ("true_labels", true_labels),
    ):
        if arr.shape != (n,):
            raise ShapeError(
                f"{name} must be 1-D with one entry per case, got shape {arr.shape} "
                f"for {n} cases"
            )
    if n == 0:
        return SpecificsBatch.from_rows([])

    # Array-wide per-case statistics (validate the label/prediction ranges).
    divergence = batch_divergence_layer(stack, true_labels)
    commitment = batch_commitment_depth(stack, predicted)
    entropies = batch_entropy_profile(stack)
    stability = batch_layer_stability(stack)

    # One broadcasted comparison of all cases against all class patterns.
    matches = library.batch_pattern_matches(stack)
    lookup = matches.column_lookup()
    predicted_cols = lookup[predicted]
    true_cols = lookup[true_labels]
    match_predicted = _gather_columns(matches.similarities, predicted_cols, 0.0)
    match_true = _gather_columns(matches.similarities, true_cols, 0.0)
    best_cols = matches.similarities.argmax(axis=1)
    best_sims = matches.similarities[np.arange(n), best_cols]
    best_classes = matches.class_ids[best_cols]

    # Atypicality w.r.t. the true class's own spread; classes that never
    # appeared in training are maximally atypical.
    true_divergences = _gather_columns(matches.divergences, true_cols, 0.0)
    true_dispersions = matches.dispersions[np.clip(true_cols, 0, None)]
    atypicality = np.where(
        true_cols >= 0,
        true_divergences / (true_divergences + true_dispersions + 1e-6),
        1.0,
    )

    mean_entropy = entropies.mean(axis=1)
    half = max(1, num_layers // 2)
    early_entropy = entropies[:, :half].mean(axis=1)
    late_entropy = entropies[:, half:].mean(axis=1) if num_layers > half else mean_entropy

    # Column 0 targets the predicted class, column 1 the true class.
    nn_typicality = library.batch_nn_typicality(stack, np.stack([predicted, true_labels], axis=1))

    return SpecificsBatch(
        predicted=predicted,
        true_label=true_labels,
        final_confidence=final_confidences,
        commitment=commitment,
        match_predicted=match_predicted,
        match_true=match_true,
        best_match=best_sims,
        best_match_class=best_classes,
        atypicality_true=atypicality,
        mean_entropy=mean_entropy,
        early_entropy=early_entropy,
        divergence_point=divergence / num_layers,
        stability=stability,
        late_entropy=late_entropy,
        feature_quality=np.full(n, float(library.feature_quality())),
        nn_typicality_predicted=nn_typicality[:, 0],
        nn_typicality_true=nn_typicality[:, 1],
    )


def compute_specifics_batch(
    footprints: FootprintBatch, library: PatternLibrary
) -> SpecificsBatch:
    """:func:`compute_specifics_stack` over the labeled faulty cases of a batch.

    This is what ``DeepMorph.diagnose`` and the serving layer call on their
    faulty cases: the :class:`~repro.core.footprint.FootprintBatch` hands its
    arrays straight to :func:`compute_specifics_stack`.  Specifics describe
    how a *known* misbehaviour happened, so the batch must carry true labels.
    """
    if footprints.true_labels is None:
        raise ConfigurationError(
            "footprint specifics require the true label of every faulty case"
        )
    return compute_specifics_stack(
        footprints.trajectories,
        final_confidences=footprints.final_confidences,
        predicted=footprints.predicted,
        true_labels=footprints.true_labels,
        library=library,
    )
