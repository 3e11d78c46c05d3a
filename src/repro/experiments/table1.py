"""Reproduction of the paper's Table I.

The paper's only results table reports, for every (dataset, model) pair and
every injected defect, the ratio DeepMorph assigns to ITD / UTD / SD.  The
claim is diagonal dominance: the injected defect always receives the largest
ratio.  :func:`run_table1` regenerates the table (on the synthetic dataset
stand-ins of :mod:`repro.data.synthetic` and the scaled model variants of
:func:`repro.experiments.config.model_hyperparameters`) and
:func:`format_table1` renders it in the paper's layout.
"""

from __future__ import annotations

import multiprocessing
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import DefectClassifierConfig
from ..defects import DefectType
from ..exceptions import ExperimentError
from .config import MODEL_DATASETS, ExperimentSettings
from .runner import CellResult, run_cell

__all__ = ["Table1Row", "Table1Result", "run_table1", "format_table1", "PAPER_TABLE1"]

#: The paper's reported Table I, keyed by (model, injected defect) with the
#: ratios in ITD/UTD/SD order.  :func:`format_table1` prints it under each
#: reproduced row and the Table I benchmarks record it next to their ratios
#: (shape only; absolute values depend on the authors' testbed).
PAPER_TABLE1: Dict[tuple, tuple] = {
    ("lenet", "itd"): (0.763, 0.011, 0.226),
    ("lenet", "utd"): (0.152, 0.745, 0.103),
    ("lenet", "sd"): (0.280, 0.091, 0.629),
    ("alexnet", "itd"): (0.822, 0.023, 0.155),
    ("alexnet", "utd"): (0.145, 0.787, 0.068),
    ("alexnet", "sd"): (0.238, 0.174, 0.588),
    ("resnet", "itd"): (0.694, 0.234, 0.072),
    ("resnet", "utd"): (0.138, 0.577, 0.285),
    ("resnet", "sd"): (0.433, 0.086, 0.481),
    ("densenet", "itd"): (0.770, 0.191, 0.039),
    ("densenet", "utd"): (0.185, 0.643, 0.172),
    ("densenet", "sd"): (0.452, 0.013, 0.535),
}


@dataclass(frozen=True)
class Table1Row:
    """One row of the reproduced Table I (one injected defect on one model)."""

    model: str
    dataset: str
    injected_defect: DefectType
    ratios: Dict[DefectType, float]
    dominant_defect: DefectType
    test_accuracy: float
    num_faulty_cases: int

    @property
    def diagonal_correct(self) -> bool:
        """Whether the injected defect received the largest ratio."""
        return self.dominant_defect == self.injected_defect

    def paper_ratios(self) -> Optional[tuple]:
        """The paper's reported ratios for this cell group, if available."""
        return PAPER_TABLE1.get((self.model, self.injected_defect.value))

    def as_dict(self) -> Dict:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "injected_defect": self.injected_defect.value,
            "ratios": {k.value: v for k, v in self.ratios.items()},
            "dominant_defect": self.dominant_defect.value,
            "diagonal_correct": self.diagonal_correct,
            "test_accuracy": self.test_accuracy,
            "num_faulty_cases": self.num_faulty_cases,
            "paper_ratios": self.paper_ratios(),
        }


@dataclass
class Table1Result:
    """The full reproduced Table I."""

    rows: List[Table1Row] = field(default_factory=list)
    cells: List[CellResult] = field(default_factory=list)

    def row(self, model: str, defect: "DefectType | str") -> Table1Row:
        """Look up one row."""
        if isinstance(defect, str):
            defect = DefectType.from_string(defect)
        for row in self.rows:
            if row.model == model and row.injected_defect == defect:
                return row
        raise KeyError(f"no row for model={model!r}, defect={defect}")

    @property
    def diagonal_accuracy(self) -> float:
        """Fraction of rows where the injected defect received the largest ratio."""
        if not self.rows:
            return 0.0
        return float(np.mean([row.diagonal_correct for row in self.rows]))

    def as_dict(self) -> Dict:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "diagonal_accuracy": self.diagonal_accuracy,
        }


#: One planned Table-1 cell: (model name, retargeted settings, defect).
_CellSpec = Tuple[str, ExperimentSettings, DefectType]


def _run_cell_job(
    payload: Tuple[ExperimentSettings, DefectType, Optional[DefectClassifierConfig]]
) -> CellResult:
    """Worker-process entry point for one Table-1 cell.

    Module-level so the multiprocessing pool can pickle it under every start
    method.  Each cell is fully self-seeded — ``run_cell`` derives every
    stochastic component's seed from the cell's own ``settings.seed`` via
    ``derive_seed`` — so the result is bitwise independent of which process
    (or how many siblings) computed it.
    """
    settings, defect, classifier_config = payload
    return run_cell(defect, settings, classifier_config=classifier_config)


def _iter_cells(
    specs: Sequence[_CellSpec],
    classifier_config: Optional[DefectClassifierConfig],
    jobs: int,
) -> Iterator[CellResult]:
    """Yield cell results in grid order, serially or via a process pool."""
    if jobs == 1 or len(specs) <= 1:
        for _, model_settings, defect in specs:
            yield run_cell(defect, model_settings, classifier_config=classifier_config)
        return
    payloads = [
        (model_settings, defect, classifier_config)
        for _, model_settings, defect in specs
    ]
    # Fork shares the parent's imported package with zero per-worker startup
    # cost (and works regardless of how __main__ was launched), but is only
    # used on Linux: macOS's Accelerate/Objective-C runtime is not fork-safe
    # (the reason CPython switched its darwin default to spawn), so everywhere
    # else the workers spawn and re-import — the worker entry point is
    # module-level precisely so both methods can pickle it.
    use_fork = (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )
    context = multiprocessing.get_context("fork" if use_fork else "spawn")
    with context.Pool(processes=min(jobs, len(payloads))) as pool:
        # imap preserves grid order, so rows, cells, and progress lines are
        # identical to a serial run no matter which worker finishes first.
        yield from pool.imap(_run_cell_job, payloads)


def run_table1(
    models: Optional[Sequence[str]] = None,
    defects: Optional[Sequence["DefectType | str"]] = None,
    settings: Optional[ExperimentSettings] = None,
    classifier_config: Optional[DefectClassifierConfig] = None,
    progress: Optional[callable] = None,
    jobs: int = 1,
) -> Table1Result:
    """Run the Table I experiment grid.

    Parameters
    ----------
    models:
        Which models to run (default: all four of the paper's models).
    defects:
        Which defect types to inject (default: ITD, UTD, SD).
    settings:
        Base experiment settings; the dataset is retargeted per model
        automatically (LeNet/AlexNet → synthetic MNIST, ResNet/DenseNet →
        synthetic CIFAR), matching the paper's pairing.
    progress:
        Optional callable invoked with a status line after each cell.
    jobs:
        Number of worker processes the independent cells are dispatched to.
        ``1`` (the default) runs the grid serially in-process.  Every cell
        derives its seeds from its own settings, so any ``jobs`` value
        produces bitwise-identical ratios in identical row order.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ExperimentError(
            f"jobs must be >= 1 (number of worker processes for the experiment "
            f"grid), got {jobs}"
        )
    models = list(models) if models is not None else list(MODEL_DATASETS)
    unknown = [m for m in models if m not in MODEL_DATASETS]
    if unknown:
        raise ExperimentError(f"unknown model(s) {unknown}; available: {sorted(MODEL_DATASETS)}")
    defect_list = [
        DefectType.from_string(d) if isinstance(d, str) else d
        for d in (defects if defects is not None else DefectType.injectable())
    ]
    settings = settings or ExperimentSettings()

    specs: List[_CellSpec] = [
        (model, settings.for_model(model), defect)
        for model in models
        for defect in defect_list
    ]
    result = Table1Result()
    for (model, model_settings, defect), cell in zip(
        specs, _iter_cells(specs, classifier_config, jobs)
    ):
        if cell.report is None:
            raise ExperimentError(
                f"cell ({model}, {defect.value}) produced no faulty cases to diagnose; "
                "increase the injection strength or the production set size"
            )
        row = Table1Row(
            model=model,
            dataset=model_settings.dataset,
            injected_defect=defect,
            ratios=dict(cell.report.ratios),
            dominant_defect=cell.report.dominant_defect,
            test_accuracy=cell.test_accuracy,
            num_faulty_cases=cell.num_faulty_cases,
        )
        result.rows.append(row)
        result.cells.append(cell)
        if progress is not None:
            flag = "ok" if row.diagonal_correct else "MISS"
            progress(
                f"[{flag}] {model:9s} {defect.value.upper():3s} -> "
                + "  ".join(
                    f"{d.value.upper()}={row.ratios[d]:.3f}"
                    for d in (DefectType.ITD, DefectType.UTD, DefectType.SD)
                )
                + f"  (acc={row.test_accuracy:.3f}, faulty={row.num_faulty_cases})"
            )
    return result


def format_table1(result: Table1Result, include_paper: bool = True) -> str:
    """Render the reproduced table in the paper's row/column layout."""
    defect_order = (DefectType.ITD, DefectType.UTD, DefectType.SD)
    lines = []
    header = f"{'model':10s} {'dataset':8s} {'injected':9s} " + " ".join(
        f"{d.value.upper():>7s}" for d in defect_order
    ) + "   dominant  match"
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.rows:
        ratios = " ".join(f"{row.ratios[d]:7.3f}" for d in defect_order)
        mark = "yes" if row.diagonal_correct else "NO"
        lines.append(
            f"{row.model:10s} {row.dataset:8s} {row.injected_defect.value.upper():9s} "
            f"{ratios}   {row.dominant_defect.value.upper():8s} {mark}"
        )
        if include_paper and row.paper_ratios() is not None:
            paper = " ".join(f"{v:7.3f}" for v in row.paper_ratios())
            lines.append(f"{'':10s} {'(paper)':8s} {'':9s} {paper}")
    lines.append("-" * len(header))
    lines.append(f"diagonal dominance: {result.diagonal_accuracy:.0%} of rows")
    return "\n".join(lines)
