"""DeepMorph core: the paper's primary contribution.

Pipeline (paper Figure 1):

1. :class:`SoftmaxInstrumentedModel` — attach and train auxiliary softmax
   probes on every hidden layer of the frozen target model.
2. :class:`PatternLibrary` — learn each class's execution pattern from the
   training data.
3. :class:`FootprintExtractor` / :func:`compute_specifics_batch` — extract
   data-flow footprints of the faulty cases (a :class:`FootprintBatch`) and
   derive their footprint specifics (a :class:`SpecificsBatch`).
4. :class:`DefectCaseClassifier` — score each case for ITD / UTD / SD and
   aggregate the ratios into a :class:`DefectReport`.

:class:`DeepMorph` wraps the whole pipeline behind ``fit`` + ``diagnose``.
"""

from .classifier import (
    CaseVerdict,
    DefectCaseClassifier,
    DefectClassifierConfig,
    DefectReport,
    DiagnosisContext,
    FEATURE_NAMES,
    build_feature_matrix,
    build_feature_vector,
    error_concentration,
)
from .diagnosis import DeepMorph, find_faulty_cases
from .footprint import Footprint, FootprintBatch, FootprintExtractor, validate_labels
from .instrument import (
    SoftmaxInstrumentedModel,
    SoftmaxProbe,
    pool_activation,
)
from .patterns import ClassExecutionPattern, PatternLibrary, PatternMatches
from .specifics import (
    FootprintSpecifics,
    SpecificsBatch,
    compute_specifics_batch,
    compute_specifics_stack,
)

__all__ = [
    "DeepMorph",
    "find_faulty_cases",
    "SoftmaxProbe",
    "SoftmaxInstrumentedModel",
    "pool_activation",
    "Footprint",
    "FootprintBatch",
    "FootprintExtractor",
    "validate_labels",
    "ClassExecutionPattern",
    "PatternLibrary",
    "PatternMatches",
    "FootprintSpecifics",
    "SpecificsBatch",
    "compute_specifics_batch",
    "compute_specifics_stack",
    "DefectClassifierConfig",
    "DefectCaseClassifier",
    "CaseVerdict",
    "DefectReport",
    "DiagnosisContext",
    "FEATURE_NAMES",
    "build_feature_vector",
    "build_feature_matrix",
    "error_concentration",
]
