"""Per-case loop oracles for the batched diagnosis core.

These are the direct definitions, one case (or one stack row) at a time:
``pairwise_trajectory_divergences`` crosses each row with the stack through
:func:`repro.analysis.trajectory.trajectory_divergence_to_stack`,
``classify_case`` scores one :class:`~repro.core.FootprintSpecifics` with one
matrix-vector product and softmax, and ``aggregate`` sums the per-case
evidence in a Python loop.  The vectorized pairwise matrix, the
single-matmul classifier and the struct-of-arrays ``aggregate`` are pinned
against them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.trajectory import trajectory_divergence_to_stack
from repro.core.classifier import CaseVerdict, DefectCaseClassifier, DefectReport, DiagnosisContext
from repro.core.specifics import FootprintSpecifics
from repro.defects.spec import DefectType
from repro.exceptions import ConfigurationError

ORDER = (DefectType.ITD, DefectType.UTD, DefectType.SD)


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
