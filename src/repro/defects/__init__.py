"""Defect injection: the three defect types studied in the paper.

* :class:`InsufficientTrainingData` (ITD) — starve selected classes of
  training data.
* :class:`UnreliableTrainingData` (UTD) — systematically mislabel part of one
  class.
* :class:`StructureDefect` (SD) — remove convolutional capacity from the
  architecture.

:class:`DefectType` names them.  The experiment harness
(:mod:`repro.experiments.runner`, behind ``repro-inject`` and
``repro-table1``) builds each type's injector from its settings.
"""

from .itd import InsufficientTrainingData
from .spec import DataInjectionReport, DefectType, StructureInjectionReport
from .structure import StructureDefect
from .utd import UnreliableTrainingData

__all__ = [
    "DefectType",
    "DataInjectionReport",
    "StructureInjectionReport",
    "InsufficientTrainingData",
    "UnreliableTrainingData",
    "StructureDefect",
]
