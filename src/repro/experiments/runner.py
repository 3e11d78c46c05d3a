"""Defect-injection experiment runner.

One *cell* of the paper's Table I is: pick a (dataset, model) pair, inject one
defect type, train the model, hand the model + training data + faulty cases to
DeepMorph, and record the defect ratios it reports.  :func:`run_cell` executes
exactly that, deterministically from an :class:`ExperimentSettings` and the
defect type.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


from ..api.config import DiagnoserConfig
from ..core import DefectClassifierConfig, DefectReport, find_faulty_cases
from ..data.dataset import ArrayDataset
from ..data.synthetic import SyntheticCIFAR, SyntheticImageClassification, SyntheticMNIST
from ..defects import (
    DefectType,
    InsufficientTrainingData,
    StructureDefect,
    UnreliableTrainingData,
)
from ..exceptions import ExperimentError
from ..models import build_model
from ..models.base import ClassifierModel
from ..optim import Adam
from ..rng import derive_seed, ensure_rng
from ..training import Trainer, evaluate
from .config import ExperimentSettings, model_hyperparameters

__all__ = ["CellResult", "make_dataset", "make_model", "train_model", "run_cell"]


@dataclass
class CellResult:
    """Everything produced by one defect-injection experiment cell.

    Attributes
    ----------
    settings:
        The experiment settings the cell ran with.
    injected_defect:
        The defect type that was injected (``NONE`` for clean baselines).
    report:
        DeepMorph's diagnosis (``None`` for clean baselines with no faulty cases).
    clean_accuracy:
        Test accuracy a defect-free model reaches under the same settings
        (only populated when the runner computed it).
    test_accuracy:
        Test accuracy of the (defective) model under diagnosis.
    num_faulty_cases:
        Number of misclassified production cases handed to DeepMorph.
    injection_description:
        One-line description of what was injected.
    duration_seconds:
        Wall-clock duration of the cell.
    """

    settings: ExperimentSettings
    injected_defect: DefectType
    report: Optional[DefectReport]
    test_accuracy: float
    num_faulty_cases: int
    injection_description: str = ""
    clean_accuracy: Optional[float] = None
    duration_seconds: float = 0.0
    extras: Dict = field(default_factory=dict)

    def ratios(self) -> Dict[str, float]:
        """The diagnosis ratios keyed by defect name (empty if no report)."""
        if self.report is None:
            return {}
        return {defect.value: ratio for defect, ratio in self.report.ratios.items()}

    def diagonal_correct(self) -> Optional[bool]:
        """Whether the dominant reported defect matches the injected defect."""
        if self.report is None or self.injected_defect == DefectType.NONE:
            return None
        return self.report.dominant_defect == self.injected_defect

    def as_dict(self) -> Dict:
        return {
            "model": self.settings.model,
            "dataset": self.settings.dataset,
            "injected_defect": self.injected_defect.value,
            "test_accuracy": self.test_accuracy,
            "clean_accuracy": self.clean_accuracy,
            "num_faulty_cases": self.num_faulty_cases,
            "ratios": self.ratios(),
            "dominant_defect": self.report.dominant_defect.value if self.report else None,
            "diagonal_correct": self.diagonal_correct(),
            "injection_description": self.injection_description,
            "duration_seconds": self.duration_seconds,
        }


def make_dataset(settings: ExperimentSettings) -> Tuple[SyntheticImageClassification, ArrayDataset, ArrayDataset]:
    """Build the synthetic dataset generator and its train/production splits."""
    data_seed = derive_seed(settings.seed, "dataset", settings.dataset)
    if settings.dataset == "mnist":
        generator = SyntheticMNIST(seed=derive_seed(settings.seed, "prototypes", "mnist"))
    else:
        generator = SyntheticCIFAR(seed=derive_seed(settings.seed, "prototypes", "cifar"))
    train, test = generator.splits(
        settings.train_per_class,
        settings.test_per_class,
        rng=data_seed,
        name=settings.dataset,
    )
    return generator, train, test


def make_model(settings: ExperimentSettings) -> ClassifierModel:
    """Build the (clean) target model described by ``settings``."""
    _, train, _ = _dataset_shapes(settings)
    return build_model(
        settings.model,
        input_shape=train,
        num_classes=10,
        rng=derive_seed(settings.seed, "model", settings.model),
        **model_hyperparameters(settings.model, settings.model_scale),
    )


def _dataset_shapes(settings: ExperimentSettings) -> Tuple[str, Tuple[int, int, int], int]:
    if settings.dataset == "mnist":
        return "mnist", (1, 14, 14), 10
    return "cifar", (3, 16, 16), 10


def train_model(
    model: ClassifierModel,
    train_data: ArrayDataset,
    settings: ExperimentSettings,
) -> float:
    """Train ``model`` on ``train_data`` with the settings' budget; returns final train accuracy."""
    optimizer = Adam(model.parameters(), lr=settings.learning_rate)
    trainer = Trainer(
        model, optimizer, rng=derive_seed(settings.seed, "trainer", settings.model)
    )
    history = trainer.fit(
        train_data, epochs=settings.epochs, batch_size=settings.batch_size
    )
    final = history.final
    return float(final.train_accuracy) if final is not None else 0.0


def _inject(
    defect: DefectType,
    settings: ExperimentSettings,
    model: ClassifierModel,
    train_data: ArrayDataset,
) -> Tuple[ClassifierModel, ArrayDataset, str]:
    """Apply the requested defect; returns (model, training data, description)."""
    rng = ensure_rng(derive_seed(settings.seed, "inject", defect.value, settings.model))
    if defect == DefectType.NONE:
        return model, train_data, "no injected defect"
    if defect == DefectType.ITD:
        injector = InsufficientTrainingData(
            num_affected=settings.itd_affected_classes,
            keep_fraction=settings.itd_keep_fraction,
        )
        injected, report = injector.apply(train_data, rng=rng)
        return model, injected, report.description
    if defect == DefectType.UTD:
        injector = UnreliableTrainingData(fraction=settings.utd_fraction)
        injected, report = injector.apply(train_data, rng=rng)
        return model, injected, report.description
    if defect == DefectType.SD:
        injector = StructureDefect(
            keep_fraction=settings.sd_keep_fraction,
            narrow_factor=settings.sd_narrow_factor,
        )
        degraded, report = injector.apply(
            model, rng=derive_seed(settings.seed, "sd-model", settings.model)
        )
        return degraded, train_data, report.description
    raise ExperimentError(f"cannot inject defect type {defect!r}")


def run_cell(
    defect: "DefectType | str",
    settings: Optional[ExperimentSettings] = None,
    classifier_config: Optional[DefectClassifierConfig] = None,
    collect_specifics: bool = False,
) -> CellResult:
    """Run one Table I cell: inject ``defect``, train, and diagnose.

    Parameters
    ----------
    defect:
        The defect type to inject (``"itd"``, ``"utd"``, ``"sd"``, or ``"none"``).
    settings:
        Experiment settings (defaults to the ``default`` preset values).
    classifier_config:
        Optional override of the defect-classifier weights (used by ablations
        and by weight calibration).
    collect_specifics:
        When ``True``, the per-case footprint specifics are attached to
        ``CellResult.extras["specifics"]`` (used by the calibration tool).
    """
    if isinstance(defect, str):
        defect = DefectType.from_string(defect)
    settings = settings or ExperimentSettings()
    started = time.perf_counter()

    _, train_data, test_data = make_dataset(settings)
    model = make_model(settings)
    model, effective_train, description = _inject(defect, settings, model, train_data)

    train_model(model, effective_train, settings)
    _, test_accuracy = evaluate(model, test_data)

    faulty_inputs, faulty_labels, _ = find_faulty_cases(model, test_data)
    num_faulty = int(faulty_labels.shape[0])

    report: Optional[DefectReport] = None
    extras: Dict = {}
    if num_faulty > 0:
        # The pipeline knobs come from the consolidated repro.api config, so
        # an experiment cell and a served artifact are built identically.
        morph = DiagnoserConfig(
            probe_epochs=settings.probe_epochs,
            classifier_config=classifier_config,
        ).build_deepmorph(
            rng=derive_seed(settings.seed, "deepmorph", settings.model, defect.value)
        )
        morph.fit(model, effective_train)
        report = morph.diagnose(
            faulty_inputs,
            faulty_labels,
            metadata={
                "model": settings.model,
                "dataset": settings.dataset,
                "injected_defect": defect.value,
            },
        )
        if collect_specifics:
            footprints = morph.extract_footprints(faulty_inputs, faulty_labels)
            extras["specifics"] = morph.compute_specifics(footprints.misclassified())
            extras["context"] = report.context

    return CellResult(
        settings=settings,
        injected_defect=defect,
        report=report,
        test_accuracy=float(test_accuracy),
        num_faulty_cases=num_faulty,
        injection_description=description,
        duration_seconds=time.perf_counter() - started,
        extras=extras,
    )
