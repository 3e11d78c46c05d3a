"""perfbench's per-layer hooks stay on the diagnosis path.

``perfbench/spans.py:install_core`` replaces public names of the diagnosis
core with span-recording wrappers, and its per-layer metrics read the
arguments those wrappers see.  A pipeline that routes around a hooked name
(or changes the argument a hook reads) silently zeroes the ``footprint.*``,
``specifics.*`` and per-faulty-case ``patterns.*`` metrics.  These tests
install the hooks, run one diagnosis through ``LocalDiagnoser`` and one
through ``DiagnosisService``, and check that every hook fired with the
arguments the metrics are computed from.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.api import DiagnoserConfig, LocalDiagnoser
from repro.api import diagnoser as diagnoser_module
from repro.serve import ArtifactRegistry, DiagnosisService

SPANS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"

#: Spans both pipelines record: extraction, footprints, specifics, kernels, classifier.
CORE_SPANS = {
    "extract.coalesced",
    "extract.probe",
    "footprint.from_arrays",
    "specifics.batch",
    "patterns.matches",
    "patterns.nn_typicality",
    "classifier.build_context",
    "classifier.aggregate",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("hooks_registry")
    ArtifactRegistry(root).register("tiny", fitted_deepmorph)
    return root


@pytest.fixture
def recorder():
    spans = load_spans()
    recorder = spans.SpanRecorder()
    spans.install_core(recorder)
    try:
        yield spans, recorder
    finally:
        recorder.uninstall()


def extras(spans, recorder, name: str) -> list:
    return [record[spans.EXTRA] for record in recorder.spans if record[spans.NAME] == name]


def check_core_spans(spans, recorder, report_cases: int, submitted: int) -> None:
    names = {record[spans.NAME] for record in recorder.spans}
    assert CORE_SPANS <= names, f"hooks that never fired: {sorted(CORE_SPANS - names)}"
    # specifics.faulty_ratio and every *_per_faulty_case metric divide by
    # len(first argument) of compute_specifics_batch.
    assert extras(spans, recorder, "specifics.batch") == [report_cases]
    # footprint.from_arrays_us_per_case divides by its row count.
    assert extras(spans, recorder, "footprint.from_arrays") == [submitted]
    assert extras(spans, recorder, "extract.coalesced") == [submitted]
    assert all(shape[0] == report_cases for shape in extras(spans, recorder, "patterns.matches"))
    # patterns.js_bytes_per_call reads the stack's shape and the class ids.
    assert all(
        cases == report_cases and js_bytes > 0
        for cases, js_bytes in extras(spans, recorder, "patterns.nn_typicality")
    )


def test_local_diagnoser_calls_every_hook(registry_dir, tiny_splits, recorder):
    spans, recorder = recorder
    _, test = tiny_splits
    inputs, labels = test.arrays()
    local = LocalDiagnoser.from_registry(registry_dir, "tiny")
    report = local.diagnose_arrays(inputs, labels)
    check_core_spans(spans, recorder, report.num_cases, len(inputs))
    names = {record[spans.NAME] for record in recorder.spans}
    assert {"api.validate", "api.report"} <= names


def test_diagnosis_service_calls_every_hook(registry_dir, tiny_splits, recorder):
    spans, recorder = recorder
    _, test = tiny_splits
    inputs, labels = test.arrays()
    with DiagnosisService(registry_dir, num_workers=1) as service:
        report = service.diagnose("tiny", inputs, labels)
    check_core_spans(spans, recorder, report.num_cases, len(inputs))


def test_sharded_local_diagnoser_calls_every_hook(
    registry_dir, tiny_splits, recorder, monkeypatch
):
    """Two shards: every hook fires on the pool threads, and the counts add up."""
    spans, recorder = recorder
    _, test = tiny_splits
    inputs, labels = test.arrays()
    monkeypatch.setattr(diagnoser_module, "_usable_cores", lambda: 2)
    config = DiagnoserConfig(extraction_batch_size=8)
    local = LocalDiagnoser.from_registry(registry_dir, "tiny", config=config)
    report = local.diagnose_arrays(inputs, labels)
    names = {record[spans.NAME] for record in recorder.spans}
    assert CORE_SPANS <= names, f"hooks that never fired: {sorted(CORE_SPANS - names)}"
    faulty = extras(spans, recorder, "specifics.batch")
    assert len(faulty) == 2 and sum(faulty) == report.num_cases
    assert sorted(extras(spans, recorder, "footprint.from_arrays")) == [16, 24]
    assert sorted(extras(spans, recorder, "extract.coalesced")) == [16, 24]
