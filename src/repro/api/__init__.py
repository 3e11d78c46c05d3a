"""repro.api — the versioned public diagnosis API.

The paper's Figure-1 workflow behind one stable, schema-versioned surface:

* :mod:`~repro.api.schema` — the ``v1`` :class:`DiagnosisRequest` /
  :class:`DiagnosisReport` documents; the wire format of the serving front
  ends IS this library format.
* :mod:`~repro.api.config` — :class:`DiagnoserConfig`, the one configuration
  object the pipeline, service, CLI, and remote client all project from.
* :mod:`~repro.api.diagnoser` / :mod:`~repro.api.remote` — the
  :class:`Diagnoser` interface with three interchangeable backends:

  ==================== ============================ ==========================
  backend              runs                         pick it when
  ==================== ============================ ==========================
  ``LocalDiagnoser``   in this process, no serving  scripts, notebooks, tests
  ``ServiceDiagnoser`` in-process service/replicas  one app, many callers
  ``RemoteDiagnoser``  against a repro-serve server fleet-wide scale-out
  ==================== ============================ ==========================

A request extracted alone gets a bitwise-identical report from all three
(``test_bitwise_identical_reports_across_backends`` runs exactly that).  A
served request that shares an extraction batch with other traffic moves by
about 3e-8 in float32; see the dtype paragraph of the README.

Quickstart::

    from repro.api import DiagnoserConfig, LocalDiagnoser

    diagnoser = LocalDiagnoser.from_registry("./registry", "prod-lenet")
    report = diagnoser.diagnose_arrays(inputs, labels)
    print(report.summary())

The backend classes are loaded lazily (they pull in the serving stack, which
itself imports this package's schema module for the shared wire format).
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, List

from .config import DiagnoserConfig
from .schema import (
    CONTEXT_KEYS,
    DEFECT_KEYS,
    REPORT_FIELDS,
    REQUEST_FIELDS,
    SCHEMA_VERSION,
    DiagnosisReport,
    DiagnosisRequest,
    validate_arrays,
)

__all__ = [
    "SCHEMA_VERSION",
    "DEFECT_KEYS",
    "CONTEXT_KEYS",
    "REQUEST_FIELDS",
    "REPORT_FIELDS",
    "DiagnosisRequest",
    "DiagnosisReport",
    "DiagnoserConfig",
    "validate_arrays",
    "Diagnoser",
    "LocalDiagnoser",
    "ServiceDiagnoser",
    "RemoteDiagnoser",
]

#: Backends resolved on first attribute access (PEP 562) to keep
#: ``repro.serve -> repro.api.schema`` imports cycle-free.
_LAZY_EXPORTS: Dict[str, str] = {
    "Diagnoser": "repro.api.diagnoser",
    "LocalDiagnoser": "repro.api.diagnoser",
    "ServiceDiagnoser": "repro.api.diagnoser",
    "RemoteDiagnoser": "repro.api.remote",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
