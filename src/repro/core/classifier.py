"""Per-case defect classification and report aggregation.

The final step of the DeepMorph pipeline: given the footprint specifics of
every faulty case, decide which defect each case is evidence for, and report
the ratio of each defect type over all faulty cases.  The defect with the
highest ratio is the dominant defect of the target model — exactly what the
paper's Table I reports.

The paper does not spell out the per-case decision rule, so this module
defines one: each case is described by a feature vector built from its
footprint specifics plus model-level context signals (how concentrated the
faulty cases are over true classes, how much the learned class execution
patterns overlap, the probes' feature quality and the training set's label
inconsistency), and three linear scoring functions — one per defect type —
turn that vector into defect scores.  The default weights were calibrated on
held-out defect-injection runs with :mod:`repro.experiments.calibrate`; they
are ordinary configuration (see :class:`DefectClassifierConfig`) so ablation
experiments can replace them.

Scoring is batched: :meth:`DefectCaseClassifier.aggregate` reads the ``(N,)``
columns of a :class:`~repro.core.specifics.SpecificsBatch` into one
``(N, F)`` feature matrix, scores it with one ``(N, F) @ (F, D)`` product and
reduces the evidence to ratios with array operations.  The per-case
:class:`CaseVerdict` objects of a :class:`DefectReport` are built only when
``report.verdicts`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..defects.spec import DefectType
from ..exceptions import ConfigurationError
from .specifics import FootprintSpecifics, SpecificsBatch, as_specifics_batch

__all__ = [
    "DiagnosisContext",
    "DefectClassifierConfig",
    "CaseVerdict",
    "DefectReport",
    "DefectCaseClassifier",
    "FEATURE_NAMES",
    "build_feature_vector",
    "build_feature_matrix",
    "error_concentration",
]

#: Order of the features consumed by the linear scoring functions.
FEATURE_NAMES: Tuple[str, ...] = (
    "bias",
    "final_confidence",
    "commitment",
    "match_predicted",
    "match_true",
    "atypicality_true",
    "mean_entropy",
    "late_entropy",
    "nn_typicality_predicted",
    "nn_typicality_true",
    "stability",
    "divergence_point",
    "error_concentration",
    "pattern_overlap",
    "feature_quality",
    "training_inconsistency",
)

#: The features read from a case's specifics, and those read from the context.
_CASE_FEATURES = FEATURE_NAMES[1:12]
_CONTEXT_FEATURES = FEATURE_NAMES[12:]

SpecificsLike = Union[SpecificsBatch, Sequence[FootprintSpecifics]]


@dataclass(frozen=True)
class DiagnosisContext:
    """Model-level signals shared by every faulty case of one diagnosis.

    Attributes
    ----------
    error_concentration:
        How concentrated the faulty cases are over their true classes, in
        ``[0, 1]``.  Data defects (ITD, UTD) concentrate errors in the
        affected classes; structure defects spread them out.
    pattern_overlap:
        Mean similarity between different classes' execution patterns, in
        ``[0, 1]``.  A backbone that cannot separate the classes (structure
        defect) produces overlapping patterns.
    feature_quality:
        Best held-out probe accuracy over the hidden layers, rescaled so
        chance level is 0.
    training_inconsistency:
        Largest systematic disagreement between training labels and the
        trained model's own predictions on the training set, in ``[0, 1]``.
        Mislabeled training data produces a large value (the model either
        refuses to learn the wrong labels or flips the genuine ones).
    """

    error_concentration: float = 0.5
    pattern_overlap: float = 0.3
    feature_quality: float = 1.0
    training_inconsistency: float = 0.0


def error_concentration(true_labels: Sequence[int], num_classes: int, top_k: int = 3) -> float:
    """Share of faulty cases whose true class is among the ``top_k`` most affected classes.

    Rescaled so a uniform spread over ``num_classes`` classes maps to 0 and
    full concentration in ``top_k`` classes maps to 1.
    """
    labels = np.asarray(true_labels, dtype=np.int64)
    if labels.size == 0:
        return 0.0
    if num_classes <= 0:
        raise ConfigurationError(f"num_classes must be positive, got {num_classes}")
    top_k = max(1, min(int(top_k), num_classes))
    counts = np.bincount(labels, minlength=num_classes)
    top_share = float(np.sort(counts)[::-1][:top_k].sum() / labels.size)
    baseline = top_k / num_classes
    if baseline >= 1.0:
        return 1.0
    return float(np.clip((top_share - baseline) / (1.0 - baseline), 0.0, 1.0))


def build_feature_vector(
    specifics: FootprintSpecifics, context: DiagnosisContext
) -> np.ndarray:
    """Assemble the feature vector (ordered as :data:`FEATURE_NAMES`) for one case."""
    return np.array(
        [1.0]
        + [getattr(specifics, name) for name in _CASE_FEATURES]
        + [getattr(context, name) for name in _CONTEXT_FEATURES],
        dtype=np.float64,
    )


def build_feature_matrix(specifics: SpecificsLike, context: DiagnosisContext) -> np.ndarray:
    """Assemble all case feature vectors as one ``(N, F)`` matrix.

    The batched counterpart of :func:`build_feature_vector`: the per-case
    columns are copied from the :class:`~repro.core.specifics.SpecificsBatch`
    columns (a sequence of :class:`FootprintSpecifics` is stacked first) and
    the context columns are broadcast, so the defect scores of a whole
    faulty-case batch reduce to a single ``(N, F) @ (F, D)`` product in
    :meth:`DefectCaseClassifier.score_matrix`.
    """
    batch = as_specifics_batch(specifics)
    matrix = np.empty((len(batch), len(FEATURE_NAMES)), dtype=np.float64)
    matrix[:, 0] = 1.0
    for column, name in enumerate(_CASE_FEATURES, start=1):
        matrix[:, column] = getattr(batch, name)
    for column, name in enumerate(_CONTEXT_FEATURES, start=1 + len(_CASE_FEATURES)):
        matrix[:, column] = getattr(context, name)
    return matrix


# Default scoring weights, one row per defect type, columns ordered as
# FEATURE_NAMES.  Fitted by repro.experiments.calibrate (its defaults: LeNet
# and AlexNet defect-injection runs at seed 11, not a Table I seed); see the
# README's quickstart.  The training_inconsistency weights were set by hand.
_DEFAULT_WEIGHTS: Dict[DefectType, Tuple[float, ...]] = {
    DefectType.ITD: (
        -0.3857,  # bias
        0.5394,  # final_confidence
        0.5680,  # commitment
        -1.5548,  # match_predicted
        -1.5386,  # match_true
        0.2658,  # atypicality_true
        -0.5833,  # mean_entropy
        -0.9438,  # late_entropy
        -0.7658,  # nn_typicality_predicted
        -0.5797,  # nn_typicality_true
        0.7375,  # stability
        -0.7206,  # divergence_point
        3.3296,  # error_concentration
        -0.7040,  # pattern_overlap
        -0.0148,  # feature_quality
        -0.5000,  # training_inconsistency (hand-set, see above)
    ),
    DefectType.UTD: (
        -0.4107,  # bias
        -0.4851,  # final_confidence
        -0.5684,  # commitment
        0.0861,  # match_predicted
        1.1256,  # match_true
        0.7024,  # atypicality_true
        0.2112,  # mean_entropy
        0.1467,  # late_entropy
        0.8433,  # nn_typicality_predicted
        -1.2671,  # nn_typicality_true
        1.4060,  # stability
        -0.1002,  # divergence_point
        -0.7514,  # error_concentration
        -2.9065,  # pattern_overlap
        -0.4620,  # feature_quality
        3.0000,  # training_inconsistency (hand-set, see above)
    ),
    DefectType.SD: (
        0.7866,  # bias
        -0.0541,  # final_confidence
        0.0003,  # commitment
        1.4676,  # match_predicted
        0.4124,  # match_true
        -0.9672,  # atypicality_true
        0.3715,  # mean_entropy
        0.7973,  # late_entropy
        -0.0776,  # nn_typicality_predicted
        1.8469,  # nn_typicality_true
        -2.1210,  # stability
        0.8208,  # divergence_point
        -2.6136,  # error_concentration
        3.6128,  # pattern_overlap
        0.4711,  # feature_quality
        -0.5000,  # training_inconsistency (hand-set, see above)
    ),
}


@dataclass(frozen=True)
class DefectClassifierConfig:
    """Weights and knobs of the per-case defect scoring rule.

    Attributes
    ----------
    weights:
        Mapping from defect type to the linear weights applied to the feature
        vector (ordered as :data:`FEATURE_NAMES`).
    soft_assignment:
        When ``True`` (default), each case contributes its softmax-normalized
        score vector to the ratios; when ``False``, each case contributes only
        its argmax verdict.
    temperature:
        Softmax temperature of the soft assignment (lower = closer to argmax).
    """

    weights: Dict[DefectType, Tuple[float, ...]] = field(
        default_factory=lambda: {k: tuple(v) for k, v in _DEFAULT_WEIGHTS.items()}
    )
    soft_assignment: bool = True
    temperature: float = 1.0

    def __post_init__(self):
        expected = {DefectType.ITD, DefectType.UTD, DefectType.SD}
        if set(self.weights) != expected:
            raise ConfigurationError(
                f"weights must cover exactly {sorted(d.value for d in expected)}, "
                f"got {sorted(d.value for d in self.weights)}"
            )
        for defect, row in self.weights.items():
            if len(row) != len(FEATURE_NAMES):
                raise ConfigurationError(
                    f"weights for {defect.value} must have {len(FEATURE_NAMES)} entries "
                    f"(one per feature), got {len(row)}"
                )
        if self.temperature <= 0:
            raise ConfigurationError(f"temperature must be positive, got {self.temperature}")

    def weight_matrix(self) -> np.ndarray:
        """The weights as a ``(3, num_features)`` array ordered ITD, UTD, SD."""
        return np.array([
            self.weights[DefectType.ITD],
            self.weights[DefectType.UTD],
            self.weights[DefectType.SD],
        ], dtype=np.float64)

    @classmethod
    def from_weight_matrix(
        cls, matrix: np.ndarray, soft_assignment: bool = True, temperature: float = 0.35
    ) -> "DefectClassifierConfig":
        """Build a config from a ``(3, num_features)`` array ordered ITD, UTD, SD."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (3, len(FEATURE_NAMES)):
            raise ConfigurationError(
                f"weight matrix must have shape (3, {len(FEATURE_NAMES)}), got {matrix.shape}"
            )
        return cls(
            weights={
                DefectType.ITD: tuple(matrix[0]),
                DefectType.UTD: tuple(matrix[1]),
                DefectType.SD: tuple(matrix[2]),
            },
            soft_assignment=soft_assignment,
            temperature=temperature,
        )


@dataclass(frozen=True)
class CaseVerdict:
    """The classification of a single faulty case."""

    specifics: FootprintSpecifics
    scores: Dict[DefectType, float]
    evidence: Dict[DefectType, float]
    verdict: DefectType

    def as_dict(self) -> Dict:
        return {
            "verdict": self.verdict.value,
            "scores": {k.value: v for k, v in self.scores.items()},
            "evidence": {k.value: v for k, v in self.evidence.items()},
            "specifics": self.specifics.as_dict(),
        }


class DefectReport:
    """Aggregated diagnosis over all faulty cases of one model.

    Attributes
    ----------
    ratios:
        Fraction of defect evidence assigned to each defect type (sums to 1).
    counts:
        Number of faulty cases whose hard verdict was each type.
    num_cases:
        Total number of faulty cases diagnosed.
    verdicts:
        The per-case verdicts (for drill-down and ablation).  A report from
        :meth:`DefectCaseClassifier.aggregate` builds them from its score
        arrays on first read.
    context:
        The model-level context signals used during scoring.
    metadata:
        Free-form experiment context (model kind, dataset, injected defect, ...).
    """

    def __init__(
        self,
        ratios: Dict[DefectType, float],
        counts: Dict[DefectType, int],
        num_cases: int,
        verdicts: Optional[List[CaseVerdict]] = None,
        context: Optional[DiagnosisContext] = None,
        metadata: Optional[Dict] = None,
        *,
        lazy_verdicts: Optional[Callable[[], List[CaseVerdict]]] = None,
    ):
        self.ratios = ratios
        self.counts = counts
        self.num_cases = num_cases
        self.context = context
        self.metadata = metadata if metadata is not None else {}
        self._verdicts = verdicts
        self._lazy_verdicts = lazy_verdicts

    @property
    def verdicts(self) -> List[CaseVerdict]:
        # Concurrent first reads may each build the (identical) list; every
        # reader gets a complete one.
        if self._verdicts is None:
            lazy = self._lazy_verdicts
            self._verdicts = lazy() if lazy is not None else []
        return self._verdicts

    def __repr__(self) -> str:
        return (
            f"DefectReport(num_cases={self.num_cases}, ratios={self.ratios}, "
            f"counts={self.counts})"
        )

    @property
    def dominant_defect(self) -> DefectType:
        """The defect with the highest ratio (the paper's reported diagnosis)."""
        return max(self.ratios, key=lambda defect: self.ratios[defect])

    def ratio(self, defect: "DefectType | str") -> float:
        """The ratio of one defect type."""
        if isinstance(defect, str):
            defect = DefectType.from_string(defect)
        return float(self.ratios.get(defect, 0.0))

    def as_dict(self) -> Dict:
        """JSON-friendly representation (omits per-case verdict details).

        Delegates to the canonical ``v1`` schema of
        :class:`repro.api.schema.DiagnosisReport`, so this dict IS the wire
        document the serving front ends emit.  (Imported lazily: the api
        package depends on this module.)
        """
        from ..api.schema import DiagnosisReport

        return DiagnosisReport.from_defect_report(self).to_dict()

    def format_row(self) -> str:
        """The report as a Table-I-style row: ``ITD  UTD  SD`` ratios."""
        return "  ".join(
            f"{defect.value.upper()}={self.ratios.get(defect, 0.0):.3f}"
            for defect in (DefectType.ITD, DefectType.UTD, DefectType.SD)
        )

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Diagnosed {self.num_cases} faulty case(s)",
            f"  ratios: {self.format_row()}",
            f"  dominant defect: {self.dominant_defect.value.upper()}",
        ]
        if self.metadata:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            lines.append(f"  context: {pairs}")
        return "\n".join(lines)


class DefectCaseClassifier:
    """Scores footprint specifics and aggregates per-case verdicts into a report."""

    _ORDER = (DefectType.ITD, DefectType.UTD, DefectType.SD)

    def __init__(self, config: Optional[DefectClassifierConfig] = None):
        self.config = config or DefectClassifierConfig()

    # -- per-case scoring -------------------------------------------------------

    def scores(
        self, specifics: FootprintSpecifics, context: Optional[DiagnosisContext] = None
    ) -> Dict[DefectType, float]:
        """Raw linear defect scores for one case."""
        context = context or DiagnosisContext()
        features = build_feature_vector(specifics, context)
        raw = self.config.weight_matrix() @ features
        return {defect: float(raw[i]) for i, defect in enumerate(self._ORDER)}

    def classify_case(
        self, specifics: FootprintSpecifics, context: Optional[DiagnosisContext] = None
    ) -> CaseVerdict:
        """Score one case — a thin view over the batched core (``N = 1``)."""
        return self.classify_batch([specifics], context)[0]

    # -- batched scoring ------------------------------------------------------------

    def score_matrix(
        self, specifics: SpecificsLike, context: Optional[DiagnosisContext] = None
    ) -> np.ndarray:
        """Raw linear defect scores of a whole batch: ``(N, D)`` ordered ITD, UTD, SD.

        One ``(N, F) @ (F, D)`` matrix product instead of N per-case
        matrix-vector products — the batched core every scoring API sits on.
        """
        context = context or DiagnosisContext()
        features = build_feature_matrix(specifics, context)
        return features @ self.config.weight_matrix().T

    def _evidence_weights(self, raw: np.ndarray) -> np.ndarray:
        """Per-case evidence weights (``(N, D)``) from raw scores, vectorized."""
        if self.config.soft_assignment:
            logits = raw / self.config.temperature
            logits = logits - logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
            return weights
        weights = np.zeros_like(raw)
        weights[np.arange(raw.shape[0]), raw.argmax(axis=1)] = 1.0
        return weights

    def _verdicts(
        self, specifics: SpecificsLike, raw: np.ndarray, weights: np.ndarray
    ) -> List[CaseVerdict]:
        """One :class:`CaseVerdict` per row of the score and evidence arrays."""
        verdict_indices = raw.argmax(axis=1)
        return [
            CaseVerdict(
                specifics=specifics[i],
                scores=dict(zip(self._ORDER, raw[i].tolist())),
                evidence=dict(zip(self._ORDER, weights[i].tolist())),
                verdict=self._ORDER[verdict_indices[i]],
            )
            for i in range(raw.shape[0])
        ]

    def classify_batch(
        self,
        specifics: SpecificsLike,
        context: Optional[DiagnosisContext] = None,
    ) -> List[CaseVerdict]:
        """Score every case of a batch through the single-matmul core."""
        if not isinstance(specifics, SpecificsBatch):
            specifics = list(specifics)
        if not specifics:
            return []
        raw = self.score_matrix(specifics, context)
        return self._verdicts(specifics, raw, self._evidence_weights(raw))

    # -- aggregation ---------------------------------------------------------------

    def build_context(
        self,
        specifics: SpecificsLike,
        num_classes: int,
        pattern_overlap: float = 0.3,
        feature_quality: float = 1.0,
        training_inconsistency: float = 0.0,
    ) -> DiagnosisContext:
        """Derive the model-level context from the faulty cases and library stats."""
        concentration = error_concentration(
            as_specifics_batch(specifics).true_label, num_classes=num_classes
        )
        return DiagnosisContext(
            error_concentration=concentration,
            pattern_overlap=float(pattern_overlap),
            feature_quality=float(feature_quality),
            training_inconsistency=float(training_inconsistency),
        )

    def aggregate(
        self,
        specifics: SpecificsLike,
        context: Optional[DiagnosisContext] = None,
        metadata: Optional[Dict] = None,
    ) -> DefectReport:
        """Classify every faulty case and aggregate the evidence into a report.

        Batched: one ``(N, F) @ (F, D)`` score matrix, vectorized evidence
        softmax, and array reductions for the counts and ratios.  The
        report's per-case verdicts are built from these arrays only if
        ``report.verdicts`` is read.  A case whose scores are NaN or infinite
        (its footprint overflowed) raises :class:`ConfigurationError`.
        """
        if not isinstance(specifics, SpecificsBatch):
            specifics = list(specifics)
        if not specifics:
            raise ConfigurationError(
                "cannot aggregate an empty list of faulty cases; the model produced no "
                "misclassifications to diagnose"
            )
        context = context or DiagnosisContext()
        raw = self.score_matrix(specifics, context)
        finite = np.isfinite(raw).all(axis=1)
        if not finite.all():
            # One such case would make every ratio NaN, which is not JSON.  Every
            # diagnosis path builds its report here, so all of them refuse alike.
            raise ConfigurationError(
                f"{int((~finite).sum())} of {finite.size} faulty case(s) scored NaN or "
                "infinity, so the diagnosis has no finite ratios; an input too large "
                "for the model's forward pass overflows it"
            )
        weights = self._evidence_weights(raw)

        evidence_totals = weights.sum(axis=0)
        count_values = np.bincount(raw.argmax(axis=1), minlength=len(self._ORDER))
        total = float(evidence_totals.sum())
        ratios = {
            defect: float(evidence_totals[j] / total) for j, defect in enumerate(self._ORDER)
        }
        counts = {defect: int(count_values[j]) for j, defect in enumerate(self._ORDER)}
        return DefectReport(
            ratios=ratios,
            counts=counts,
            num_cases=len(specifics),
            context=context,
            metadata=dict(metadata or {}),
            lazy_verdicts=partial(self._verdicts, specifics, raw, weights),
        )
