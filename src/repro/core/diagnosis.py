"""The DeepMorph facade: the paper's end-to-end pipeline behind one class.

Figure 1 of the paper shows the workflow: build the softmax-instrumented
model → learn per-class execution patterns from the training data → feed the
faulty cases through the instrumented model to extract footprint specifics →
reason about the defect and report the ratio of each defect type.
:class:`DeepMorph` exposes that workflow as ``fit`` + ``diagnose``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import ArrayDataset, Dataset
from ..exceptions import (
    ConfigurationError,
    DatasetError,
    NoFaultyCasesError,
    NotFittedError,
)
from ..models.base import ClassifierModel
from ..nn.dtype import compute_dtype, policy_float
from ..rng import RngLike, ensure_rng, spawn
from .classifier import (
    DefectCaseClassifier,
    DefectClassifierConfig,
    DefectReport,
)
from .footprint import FootprintBatch, FootprintExtractor, validate_labels
from .instrument import SoftmaxInstrumentedModel
from .patterns import PatternLibrary
from .specifics import SpecificsBatch, compute_specifics_batch

__all__ = ["DeepMorph", "find_faulty_cases"]


def _dataset_batches(dataset: Dataset, batch_size: int):
    """Yield ``(inputs, labels)`` array batches without materializing the full set.

    Array-backed datasets are sliced directly (zero-copy views); anything else
    is assembled batch by batch through ``__getitem__``, so memory stays flat
    even for lazily-generated production sets.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if isinstance(dataset, ArrayDataset):
        inputs, labels = dataset.inputs, dataset.labels
        for start in range(0, n, batch_size):
            yield inputs[start:start + batch_size], labels[start:start + batch_size]
        return
    for start in range(0, n, batch_size):
        pairs = [dataset[i] for i in range(start, min(start + batch_size, n))]
        yield (
            np.stack([policy_float(x) for x, _ in pairs]),
            np.asarray([y for _, y in pairs], dtype=np.int64),
        )


def find_faulty_cases(
    model: ClassifierModel, dataset: Dataset, batch_size: int = 256
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Identify the misclassified examples of ``dataset``.

    Returns ``(inputs, true_labels, predicted_labels)`` of the faulty cases —
    the paper's "faulty cases found in the test data".  The dataset is
    streamed in batches of ``batch_size``; only the faulty rows are ever
    copied, so memory usage is bounded by the number of faulty cases, not the
    size of the production set.
    """
    if len(dataset) == 0:
        raise DatasetError("cannot search for faulty cases in an empty dataset")
    faulty_inputs: List[np.ndarray] = []
    faulty_labels: List[np.ndarray] = []
    faulty_predictions: List[np.ndarray] = []
    for batch_inputs, batch_labels in _dataset_batches(dataset, batch_size):
        predictions = model.predict(batch_inputs, batch_size=batch_size)
        mask = predictions != batch_labels
        if mask.any():
            # Batches are already policy-dtyped floats (ArrayDataset stores
            # float64, _dataset_batches coerces the rest); mask indexing
            # copies just the faulty rows without a further cast.
            faulty_inputs.append(batch_inputs[mask])
            faulty_labels.append(batch_labels[mask])
            faulty_predictions.append(predictions[mask])
    if not faulty_inputs:
        empty = np.zeros((0,) + tuple(dataset.input_shape), dtype=compute_dtype())
        return empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return (
        np.concatenate(faulty_inputs, axis=0),
        np.concatenate(faulty_labels, axis=0),
        np.concatenate(faulty_predictions, axis=0),
    )


class DeepMorph:
    """Locate the dominant defect behind a model's bad performance.

    Typical usage::

        morph = DeepMorph(rng=0)
        morph.fit(model, train_data)
        report = morph.diagnose_dataset(production_data)
        print(report.summary())

    This class is the diagnosis *engine*; the stable public surface is
    :mod:`repro.api` — wrap a fitted instance in
    :class:`repro.api.LocalDiagnoser` to get the versioned
    request/report schema and interchangeable local/service/remote backends.

    Parameters
    ----------
    probe_epochs, probe_learning_rate, probe_batch_size:
        Training hyper-parameters of the auxiliary softmax probes.
    classifier_config:
        Weights of the per-case defect scoring rule (see
        :class:`~repro.core.classifier.DefectClassifierConfig`).
    correct_only_patterns:
        Whether class execution patterns are learned from correctly-classified
        training cases only (the default) or from all training cases.
    max_spatial:
        Spatial pooling cap applied to convolutional activations before the
        probes.
    inference_dtype:
        Compute precision of the frozen-backbone extraction path (see
        :class:`~repro.core.SoftmaxInstrumentedModel`).  Defaults to float32;
        pass ``"float64"`` for full-precision extraction.
    rng:
        Seed or generator controlling probe initialization and training order.
    """

    def __init__(
        self,
        probe_epochs: int = 12,
        probe_learning_rate: float = 0.01,
        probe_batch_size: int = 64,
        classifier_config: Optional[DefectClassifierConfig] = None,
        correct_only_patterns: bool = True,
        late_layer_emphasis: float = 0.5,
        max_spatial: int = 4,
        inference_dtype: "str | None" = "float32",
        rng: RngLike = None,
    ):
        self.probe_epochs = int(probe_epochs)
        self.probe_learning_rate = float(probe_learning_rate)
        self.probe_batch_size = int(probe_batch_size)
        self.correct_only_patterns = bool(correct_only_patterns)
        self.late_layer_emphasis = float(late_layer_emphasis)
        self.max_spatial = int(max_spatial)
        self.inference_dtype = inference_dtype
        self._rng = ensure_rng(rng)

        self.case_classifier = DefectCaseClassifier(classifier_config)
        self.instrumented: Optional[SoftmaxInstrumentedModel] = None
        self.patterns: Optional[PatternLibrary] = None
        self.model: Optional[ClassifierModel] = None
        self.train_data: Optional[Dataset] = None

    @property
    def is_fitted(self) -> bool:
        return self.instrumented is not None and self.patterns is not None

    # -- pipeline step 1 + 2: instrument and learn patterns -----------------------

    def fit(self, model: ClassifierModel, train_data: Dataset) -> "DeepMorph":
        """Build the softmax-instrumented model and learn the class execution patterns."""
        if len(train_data) == 0:
            raise DatasetError("cannot fit DeepMorph on an empty training set")
        if train_data.num_classes != model.num_classes:
            raise ConfigurationError(
                f"model expects {model.num_classes} classes but the training set has "
                f"{train_data.num_classes}"
            )
        probe_rng, = spawn(self._rng, 1)
        self.model = model
        self.train_data = train_data
        self.instrumented = SoftmaxInstrumentedModel(
            model,
            probe_epochs=self.probe_epochs,
            probe_batch_size=self.probe_batch_size,
            probe_learning_rate=self.probe_learning_rate,
            max_spatial=self.max_spatial,
            inference_dtype=self.inference_dtype,
            rng=probe_rng,
        ).fit(train_data)
        self.patterns = PatternLibrary(
            self.instrumented,
            correct_only=self.correct_only_patterns,
            late_layer_emphasis=self.late_layer_emphasis,
        ).fit(train_data)
        return self

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("DeepMorph is not fitted; call fit(model, train_data) first")

    # -- pipeline step 3: footprints and specifics ---------------------------------

    def extract_footprints(
        self, inputs: np.ndarray, labels: Optional[Sequence[int]] = None
    ) -> FootprintBatch:
        """Extract data-flow footprints for arbitrary inputs."""
        self._require_fitted()
        extractor = FootprintExtractor(self.instrumented)
        return extractor.extract(policy_float(inputs), labels)

    def compute_specifics(self, footprints: FootprintBatch) -> SpecificsBatch:
        """Compute the footprint specifics of a labeled batch (batched core)."""
        self._require_fitted()
        return compute_specifics_batch(footprints, self.patterns)

    # -- pipeline step 4: defect reasoning ------------------------------------------

    def diagnose(
        self,
        faulty_inputs: np.ndarray,
        true_labels: Sequence[int],
        metadata: Optional[Dict] = None,
    ) -> DefectReport:
        """Diagnose a set of faulty cases (inputs plus their true labels).

        The whole batch flows through the batched diagnosis core as arrays:
        one stacked footprint extraction, one broadcasted specifics
        computation, and one matrix-product scoring pass in the case
        classifier.  Labels must be class ids of the model (see
        :func:`~repro.core.footprint.validate_labels`); they are checked
        before anything is extracted.
        """
        self._require_fitted()
        faulty_inputs = policy_float(faulty_inputs)
        if faulty_inputs.shape[0] == 0:
            raise ConfigurationError(
                "no faulty cases supplied; the model may already perform well"
            )
        true_labels = validate_labels(true_labels, self.model.num_classes)
        if true_labels.shape != (faulty_inputs.shape[0],):
            raise ConfigurationError(
                f"faulty inputs and labels disagree on size: "
                f"{faulty_inputs.shape[0]} vs {true_labels.shape}"
            )
        # Only genuinely misclassified cases are evidence of a defect.
        faulty = self.extract_footprints(faulty_inputs, true_labels).misclassified()
        if not faulty:
            raise NoFaultyCasesError(
                "none of the supplied cases is misclassified by the model; nothing to diagnose"
            )
        specifics = self.compute_specifics(faulty)
        context = self.case_classifier.build_context(
            specifics,
            num_classes=self.model.num_classes,
            pattern_overlap=self.patterns.pattern_overlap(),
            feature_quality=self.patterns.feature_quality(),
            training_inconsistency=self.patterns.training_inconsistency(),
        )
        return self.case_classifier.aggregate(specifics, context=context, metadata=metadata)

    def diagnose_dataset(
        self, dataset: Dataset, metadata: Optional[Dict] = None
    ) -> DefectReport:
        """Find the faulty cases of ``dataset`` and diagnose them.

        This is the paper's end-to-end scenario: the dataset plays the role of
        the production data in which the model under-performs.
        """
        self._require_fitted()
        inputs, labels, _ = find_faulty_cases(self.model, dataset)
        meta = {"num_production_cases": len(dataset)}
        meta.update(metadata or {})
        return self.diagnose(inputs, labels, metadata=meta)

    # -- diagnostics ----------------------------------------------------------------

    def probe_accuracies(self) -> Dict[str, float]:
        """Training accuracy of each auxiliary probe (layer-wise feature quality)."""
        self._require_fitted()
        return self.instrumented.probe_accuracies()

    def __repr__(self) -> str:
        status = "fitted" if self.is_fitted else "unfitted"
        model = self.model.kind if self.model is not None else None
        return f"DeepMorph(model={model!r}, {status})"
