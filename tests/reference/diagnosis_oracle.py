"""Per-case loop oracles for the batched diagnosis core.

These are the direct definitions, one case (or one stack row) at a time:
``pairwise_trajectory_divergences`` crosses each row with the stack through
:func:`repro.analysis.trajectory.trajectory_divergence_to_stack`,
``specifics`` derives one faulty case's
:class:`~repro.core.FootprintSpecifics` from the pattern queries of
``js_oracle`` and the four trajectory statistics below, ``classify_case``
scores one case with one matrix-vector product and softmax, and
``aggregate`` sums the per-case evidence in a Python loop.  The vectorized
pairwise matrix, ``compute_specifics_stack`` and its ``batch_*`` statistics,
the single-matmul classifier and the struct-of-arrays ``aggregate`` are
pinned against them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.divergence import js_divergence, normalized_entropy
from repro.analysis.trajectory import trajectory_divergence_to_stack
from repro.core.classifier import CaseVerdict, DefectCaseClassifier, DefectReport, DiagnosisContext
from repro.core.footprint import Footprint
from repro.core.specifics import FootprintSpecifics
from repro.defects.spec import DefectType
from repro.exceptions import ConfigurationError, ShapeError

from tests.reference import js_oracle

ORDER = (DefectType.ITD, DefectType.UTD, DefectType.SD)


def _check_class(trajectory: np.ndarray, class_id: int) -> None:
    if not 0 <= class_id < trajectory.shape[1]:
        raise ShapeError(f"class {class_id} out of range for {trajectory.shape[1]} classes")


def first_wrong_layer(trajectory: np.ndarray, true_class: int) -> int:
    """First layer whose top-1 class differs from ``true_class``; ``L`` if none does."""
    _check_class(trajectory, true_class)
    for layer, row in enumerate(trajectory):
        if int(np.argmax(row)) != true_class:
            return layer
    return len(trajectory)


def trailing_commitment(trajectory: np.ndarray, predicted_class: int) -> float:
    """Fraction of trailing layers whose top-1 class already is ``predicted_class``."""
    _check_class(trajectory, predicted_class)
    depth = 0
    for row in trajectory[::-1]:
        if int(np.argmax(row)) != predicted_class:
            break
        depth += 1
    return depth / len(trajectory)


def layer_entropies(trajectory: np.ndarray) -> np.ndarray:
    """Normalized entropy of the probe distribution, one layer at a time."""
    return np.array([float(normalized_entropy(row)) for row in trajectory])


def belief_stability(trajectory: np.ndarray) -> float:
    """One minus the mean consecutive-layer JS divergence over ``log 2``."""
    if len(trajectory) < 2:
        return 1.0
    steps = [
        float(js_divergence(trajectory[i], trajectory[i + 1])) / np.log(2.0)
        for i in range(len(trajectory) - 1)
    ]
    return 1.0 - float(np.mean(steps))


def specifics(footprint: Footprint, library) -> FootprintSpecifics:
    """The footprint specifics of one labeled faulty case, from the direct definitions."""
    trajectory = np.asarray(footprint.trajectory, dtype=np.float64)
    predicted, true_label = int(footprint.predicted), int(footprint.true_label)
    num_layers = trajectory.shape[0]
    ids = sorted(library.patterns)
    similarities, divergences = js_oracle.pattern_matches(library, trajectory[None])
    similarity = dict(zip(ids, similarities[0]))
    best = int(np.argmax(similarities[0]))  # ties go to the smallest class id
    if true_label in library.patterns:
        divergence = divergences[0, ids.index(true_label)]
        dispersion = library.patterns[true_label].dispersion
        atypicality = divergence / (divergence + dispersion + 1e-6)
    else:
        atypicality = 1.0  # never seen in training: maximally atypical
    entropies = layer_entropies(trajectory)
    half = max(1, num_layers // 2)
    typicality = js_oracle.nn_typicality(library, trajectory[None], [[predicted, true_label]])
    return FootprintSpecifics(
        predicted=predicted,
        true_label=true_label,
        final_confidence=float(footprint.final_confidence),
        commitment=trailing_commitment(trajectory, predicted),
        match_predicted=float(similarity.get(predicted, 0.0)),
        match_true=float(similarity.get(true_label, 0.0)),
        best_match=float(similarities[0, best]),
        best_match_class=ids[best],
        atypicality_true=float(atypicality),
        mean_entropy=float(np.mean(entropies)),
        early_entropy=float(np.mean(entropies[:half])),
        late_entropy=float(np.mean(entropies[half:] if num_layers > half else entropies)),
        divergence_point=first_wrong_layer(trajectory, true_label) / num_layers,
        stability=belief_stability(trajectory),
        feature_quality=float(library.feature_quality()),
        nn_typicality_predicted=float(typicality[0, 0]),
        nn_typicality_true=float(typicality[0, 1]),
    )


def pairwise_trajectory_divergences(
    stack: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """``(M, M)`` layer-weighted JS divergences within a stack, one row per loop step."""
    stack = np.asarray(stack, dtype=np.float64)
    m = stack.shape[0]
    matrix = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        matrix[i] = trajectory_divergence_to_stack(
            stack[i], stack, late_layer_emphasis=late_layer_emphasis
        )
    np.fill_diagonal(matrix, 0.0)
    return matrix


def classify_case(
    classifier: DefectCaseClassifier,
    specifics: FootprintSpecifics,
    context: Optional[DiagnosisContext] = None,
) -> CaseVerdict:
    """The verdict of one case: its linear scores, softmax (or argmax) evidence and argmax."""
    scores = classifier.scores(specifics, context)
    raw = np.array([scores[d] for d in ORDER], dtype=np.float64)
    if classifier.config.soft_assignment:
        logits = raw / classifier.config.temperature
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
    else:
        weights = np.zeros_like(raw)
        weights[int(raw.argmax())] = 1.0
    evidence = {defect: float(w) for defect, w in zip(ORDER, weights)}
    verdict = ORDER[int(raw.argmax())]
    return CaseVerdict(specifics=specifics, scores=scores, evidence=evidence, verdict=verdict)


def aggregate(
    classifier: DefectCaseClassifier,
    specifics: Sequence[FootprintSpecifics],
    context: Optional[DiagnosisContext] = None,
    metadata: Optional[Dict] = None,
) -> DefectReport:
    """Ratios and counts summed case by case over :func:`classify_case` verdicts."""
    if not specifics:
        raise ConfigurationError(
            "cannot aggregate an empty list of faulty cases; the model produced no "
            "misclassifications to diagnose"
        )
    context = context or DiagnosisContext()
    verdicts = [classify_case(classifier, s, context) for s in specifics]

    evidence_totals = {defect: 0.0 for defect in ORDER}
    counts = {defect: 0 for defect in ORDER}
    for verdict in verdicts:
        counts[verdict.verdict] += 1
        for defect in ORDER:
            evidence_totals[defect] += verdict.evidence[defect]

    total = sum(evidence_totals.values())
    ratios = {defect: evidence_totals[defect] / total for defect in ORDER}
    return DefectReport(
        ratios=ratios,
        counts=counts,
        num_cases=len(verdicts),
        verdicts=verdicts,
        context=context,
        metadata=dict(metadata or {}),
    )
