"""Micro-benchmark of the serving layer's batched footprint extraction.

The serving claim: coalescing diagnosis requests into vectorized extraction
batches beats the naive per-case loop (one instrumented forward pass per
production case).  The speedup comes from amortizing per-call overhead — eval-mode toggling,
per-layer probe dispatch, python loop setup — over the batch dimension of the
underlying matrix products.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import DeepMorph, FootprintExtractor
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from repro.optim import Adam
from repro.serve import BatchingEngine
from repro.training import Trainer

NUM_CASES = 48
RESULT_PATH = os.environ.get("BENCH_SERVE_JSON", "BENCH_serve.json")


def _record(**metrics) -> None:
    """Merge metrics into the shared BENCH_serve.json perf record."""
    existing = {}
    if os.path.exists(RESULT_PATH):
        with open(RESULT_PATH, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    existing.update(metrics)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def fitted_scenario():
    """A small trained LeNet with a fitted DeepMorph and a production batch."""
    generator = SyntheticImageClassification(SyntheticConfig(
        num_classes=4, image_size=10, channels=1, templates_per_class=2,
        blobs_per_template=2, bars_per_template=1, noise_std=0.05,
        max_shift=1, distractor_bars=0, seed=5,
    ))
    train, test = generator.splits(n_train_per_class=20, n_test_per_class=12, rng=0)
    model = LeNet(
        input_shape=(1, 10, 10), num_classes=4,
        conv_channels=(4,), dense_units=(16,), kernel_size=3, rng=3,
    )
    Trainer(model, Adam(model.parameters(), lr=0.02), rng=1).fit(
        train, epochs=4, batch_size=16
    )
    model.eval()
    morph = DeepMorph(probe_epochs=2, rng=2).fit(model, train)
    inputs, _ = test.arrays()
    return morph, inputs[:NUM_CASES]


def test_batched_extraction_beats_per_case_loop(fitted_scenario):
    morph, inputs = fitted_scenario
    extractor = FootprintExtractor(morph.instrumented)

    # Warm-up (first-touch allocations should not skew either side).
    extractor.extract_arrays(inputs[:2])

    start = time.perf_counter()
    per_case = [extractor.extract_arrays(inputs[i:i + 1]) for i in range(inputs.shape[0])]
    per_case_seconds = time.perf_counter() - start

    engine = BatchingEngine(lambda key, groups: extractor.extract_coalesced(groups))
    start = time.perf_counter()
    batched_traj, batched_final = engine.extract("bench@v1", inputs)
    batched_seconds = time.perf_counter() - start

    # Same numbers (to float32 extraction resolution — BLAS sgemm results
    # move at ~1e-7 with batch composition), radically different cost.
    np.testing.assert_allclose(
        np.concatenate([traj for traj, _ in per_case]), batched_traj, atol=1e-6
    )
    speedup = per_case_seconds / max(batched_seconds, 1e-9)
    print(
        f"\nper-case loop: {per_case_seconds * 1e3:8.1f} ms  "
        f"({inputs.shape[0] / per_case_seconds:7.1f} cases/s)"
    )
    print(
        f"batched:       {batched_seconds * 1e3:8.1f} ms  "
        f"({inputs.shape[0] / batched_seconds:7.1f} cases/s)  speedup x{speedup:.1f}"
    )
    _record(
        num_cases=int(inputs.shape[0]),
        cases_per_sec_batched=inputs.shape[0] / batched_seconds,
        cases_per_sec_per_case=inputs.shape[0] / per_case_seconds,
        batched_vs_loop_speedup=speedup,
    )
    assert batched_seconds < per_case_seconds, (
        f"batched extraction ({batched_seconds:.4f}s) should beat the per-case "
        f"loop ({per_case_seconds:.4f}s) on {inputs.shape[0]} cases"
    )
