"""Benchmark of the batched diagnosis core against the per-case reference path.

The claim of the diagnosis core: carrying the N faulty cases as arrays — the
``FootprintBatch`` that ``FootprintExtractor.from_arrays`` returns, judged
against every class execution pattern through broadcasted JS-divergence
kernels into a ``SpecificsBatch`` of ``(N,)`` columns, and scored in a
single ``(N, F) @ (F, D)`` matrix product — makes diagnosis from extracted
footprints at least three times faster than the per-case path, while
matching it to ``1e-12``.

The reference side is the per-case oracle of
``tests/reference/diagnosis_oracle.py``: ``specifics`` (one ``Footprint`` at
a time against the library, through the ``js_divergence`` broadcasts of
``tests/reference/js_oracle.py``) feeding the loop ``aggregate`` (one
matrix-vector product and softmax per case).

A second measurement isolates the JS cross kernel under the batched core:
the entropy-form kernel against a broadcast of the two-KL
:func:`repro.analysis.divergence.js_divergence` over every pair (the test
oracle in ``tests/reference/js_oracle.py``), on the shapes of the LeNet
benchmark library.

The measured rates and ratios are written to ``BENCH_diagnosis.json`` so CI
can archive the perf trajectory across PRs.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.analysis.trajectory import cross_js_layer_divergences, prepare_js_operand
from repro.core import (
    DefectCaseClassifier,
    DiagnosisContext,
    FootprintExtractor,
    PatternLibrary,
    SoftmaxInstrumentedModel,
    compute_specifics_batch,
)
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from tests.reference import diagnosis_oracle, js_oracle

NUM_CASES = 256
REPEATS = 3
MIN_SPEEDUP = 3.0  # acceptance floor at N=256; locally this measures far higher
PARITY_BOUND = 1e-12
RESULT_PATH = os.environ.get("BENCH_DIAGNOSIS_JSON", "BENCH_diagnosis.json")

#: (cases, members, layers, classes) of the LeNet benchmark library: its 127
#: faulty production cases against a class's fitted members (at most 60).
KERNEL_SHAPE = (127, 60, 5, 10)
KERNEL_REPEATS = 7
MIN_KERNEL_SPEEDUP = 3.0

_RECORD: dict = {}


def _write_record(**values) -> None:
    """Merge ``values`` into this module's ``BENCH_diagnosis.json`` record."""
    _RECORD.update(values)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RECORD, handle, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def diagnosis_scenario():
    """A fitted pattern library, N=256 faulty cases as a batch and as a list, a context."""
    generator = SyntheticImageClassification(SyntheticConfig(
        num_classes=4, image_size=16, channels=1, templates_per_class=2,
        blobs_per_template=2, bars_per_template=1, noise_std=0.05,
        max_shift=1, distractor_bars=0, seed=5,
    ))
    train, test = generator.splits(n_train_per_class=10, n_test_per_class=64, rng=0)
    model = LeNet(
        input_shape=(1, 16, 16), num_classes=4,
        conv_channels=(8, 16), dense_units=(32,), kernel_size=3, rng=3,
    )
    model.eval()
    instrumented = SoftmaxInstrumentedModel(model, probe_epochs=1, rng=0).fit(train)
    library = PatternLibrary(instrumented).fit(train)

    inputs, _ = test.arrays()
    inputs = inputs[:NUM_CASES]
    assert inputs.shape[0] == NUM_CASES
    trajectories, final_probs = instrumented.layer_distributions(inputs)
    # Force every case to be "faulty": the true label is deliberately set to a
    # class other than the prediction, which is all diagnosis requires.
    labels = (final_probs.argmax(axis=1) + 1) % 4
    batch = FootprintExtractor(instrumented).from_arrays(trajectories, final_probs, labels)
    context = DiagnosisContext(
        error_concentration=0.4,
        pattern_overlap=library.pattern_overlap(),
        feature_quality=library.feature_quality(),
        training_inconsistency=library.training_inconsistency(),
    )
    return library, batch, list(batch), context


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_diagnosis_beats_per_case_reference(diagnosis_scenario):
    library, batch, footprints, context = diagnosis_scenario
    classifier = DefectCaseClassifier()

    def batched():
        specifics = compute_specifics_batch(batch, library)
        return classifier.aggregate(specifics, context=context)

    def reference():
        specifics = [diagnosis_oracle.specifics(fp, library) for fp in footprints]
        return diagnosis_oracle.aggregate(classifier, specifics, context=context)

    # Warm-up both sides so lazily-built pattern indexes and first-touch
    # allocations skew neither measurement.
    report_batched = batched()
    report_reference = reference()

    batched_seconds = _best_of(batched)
    reference_seconds = _best_of(reference)
    speedup = reference_seconds / max(batched_seconds, 1e-9)

    n = len(footprints)
    print(
        f"\nper-case reference: {reference_seconds * 1e3:7.1f} ms  "
        f"({n / reference_seconds:8.1f} cases/s)"
    )
    print(
        f"batched core:       {batched_seconds * 1e3:7.1f} ms  "
        f"({n / batched_seconds:8.1f} cases/s)  speedup x{speedup:.2f}"
    )

    _write_record(
        num_cases=n,
        cases_per_sec_batched=n / batched_seconds,
        cases_per_sec_reference=n / reference_seconds,
        batched_ms_per_case=batched_seconds * 1e3 / n,
        batched_vs_loop_speedup=speedup,
    )

    # Same diagnosis, radically different cost.
    for defect, ratio in report_reference.ratios.items():
        assert abs(report_batched.ratios[defect] - ratio) <= PARITY_BOUND
        assert report_batched.counts[defect] == report_reference.counts[defect]
    assert speedup >= MIN_SPEEDUP, (
        f"batched diagnosis only reached x{speedup:.2f} over the per-case "
        f"reference at N={n} (floor: x{MIN_SPEEDUP})"
    )


def test_fused_cross_kernel_beats_js_divergence_oracle():
    """The entropy-form cross kernel against a broadcast of ``js_divergence``."""
    n, m, num_layers, num_classes = KERNEL_SHAPE
    rng = np.random.default_rng(0)
    # Peaked probe-like distributions (Dirichlet alpha < 1).
    cases = rng.dirichlet(np.full(num_classes, 0.5), size=(n, num_layers))
    members = rng.dirichlet(np.full(num_classes, 0.5), size=(m, num_layers))

    def fused_kernel():
        return cross_js_layer_divergences(prepare_js_operand(cases), prepare_js_operand(members))

    fused = fused_kernel()
    reference = js_oracle.cross_layer_divergences(cases, members)
    max_error = float(np.max(np.abs(fused - reference)))

    fused_seconds = _best_of(fused_kernel, KERNEL_REPEATS)
    reference_seconds = _best_of(
        lambda: js_oracle.cross_layer_divergences(cases, members), KERNEL_REPEATS
    )
    speedup = reference_seconds / max(fused_seconds, 1e-9)
    print(
        f"\nJS cross kernel {n}x{m}x{num_layers}x{num_classes}: "
        f"js_divergence oracle {reference_seconds * 1e3:7.2f} ms, "
        f"fused {fused_seconds * 1e3:7.2f} ms  speedup x{speedup:.2f}  "
        f"max |diff| {max_error:.1e}"
    )
    _write_record(
        kernel_shape=list(KERNEL_SHAPE),
        fused_kernel_ms=fused_seconds * 1e3,
        reference_kernel_ms=reference_seconds * 1e3,
        fused_vs_reference_kernel_speedup=speedup,
        fused_kernel_max_abs_error=max_error,
    )

    assert max_error <= PARITY_BOUND
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"the fused JS cross kernel only reached x{speedup:.2f} over the "
        f"js_divergence oracle (floor: x{MIN_KERNEL_SPEEDUP})"
    )


def test_batched_specifics_match_reference_case_by_case(diagnosis_scenario):
    """Field-level parity of every specifics value on the real fitted library."""
    library, batch, footprints, _ = diagnosis_scenario
    batched = compute_specifics_batch(batch, library)
    for fp, spec in zip(footprints, batched):
        reference = diagnosis_oracle.specifics(fp, library)
        for key, value in reference.as_dict().items():
            assert abs(float(spec.as_dict()[key]) - float(value)) <= PARITY_BOUND, key
