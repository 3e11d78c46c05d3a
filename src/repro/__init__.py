"""repro — a reproduction of "Detecting Deep Neural Network Defects with Data Flow Analysis".

The package is organized as:

* :mod:`repro.nn`, :mod:`repro.optim`, :mod:`repro.training` — a from-scratch
  numpy deep-learning substrate (layers, optimizers, training loop).
* :mod:`repro.data` — dataset abstractions and synthetic MNIST/CIFAR stand-ins.
* :mod:`repro.models` — the four architecture families of the paper's
  evaluation (LeNet, AlexNet, ResNet, DenseNet).
* :mod:`repro.defects` — injection of the three studied defect types
  (insufficient training data, unreliable training data, structure defects).
* :mod:`repro.core` — DeepMorph itself: softmax instrumentation, data-flow
  footprints, class execution patterns, and defect reasoning.
* :mod:`repro.analysis` — divergences and trajectory statistics.
* :mod:`repro.serialize` — persistence of models, defect reports, and
  fitted DeepMorph instances.
* :mod:`repro.serve` — the production serving layer: a named/versioned
  artifact registry, request batching that coalesces concurrent diagnoses
  into vectorized footprint extraction, and an HTTP front end with a
  response cache (``repro-serve``).
* :mod:`repro.api` — the versioned public API: the ``v1``
  ``DiagnosisRequest``/``DiagnosisReport`` schema (shared with the serving
  wire protocol), the consolidated ``DiagnoserConfig``, and the ``Diagnoser``
  interface with interchangeable local / in-process / remote backends.
* :mod:`repro.experiments` — the Table I reproduction harness.
* :mod:`repro.cli` — command-line entry points.
"""

from . import analysis, api, data, defects, models, nn, optim, serve, training
from .core import (
    DeepMorph,
    DefectCaseClassifier,
    DefectClassifierConfig,
    DefectReport,
    Footprint,
    FootprintExtractor,
    FootprintSpecifics,
    PatternLibrary,
    SoftmaxInstrumentedModel,
    SoftmaxProbe,
    compute_specifics_batch,
    find_faulty_cases,
)
from .defects import (
    DefectType,
    InsufficientTrainingData,
    StructureDefect,
    UnreliableTrainingData,
)
from .exceptions import (
    ArtifactNotFoundError,
    ConfigurationError,
    DatasetError,
    DefectInjectionError,
    ExperimentError,
    NoFaultyCasesError,
    NotFittedError,
    PayloadTooLargeError,
    RemoteTransportError,
    ReproError,
    SchemaVersionError,
    SerializationError,
    ServeError,
    ServiceSaturatedError,
    ShapeError,
)
from .rng import ensure_rng

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "nn",
    "optim",
    "training",
    "data",
    "models",
    "defects",
    "analysis",
    "serve",
    "api",
    # DeepMorph core
    "DeepMorph",
    "find_faulty_cases",
    "SoftmaxProbe",
    "SoftmaxInstrumentedModel",
    "Footprint",
    "FootprintExtractor",
    "PatternLibrary",
    "FootprintSpecifics",
    "compute_specifics_batch",
    "DefectClassifierConfig",
    "DefectCaseClassifier",
    "DefectReport",
    # defects
    "DefectType",
    "InsufficientTrainingData",
    "UnreliableTrainingData",
    "StructureDefect",
    # exceptions
    "ReproError",
    "ShapeError",
    "ConfigurationError",
    "NotFittedError",
    "DatasetError",
    "DefectInjectionError",
    "SerializationError",
    "ExperimentError",
    "SchemaVersionError",
    "NoFaultyCasesError",
    "ServeError",
    "ArtifactNotFoundError",
    "PayloadTooLargeError",
    "ServiceSaturatedError",
    "RemoteTransportError",
    # rng
    "ensure_rng",
]
