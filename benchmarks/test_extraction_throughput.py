"""Benchmarks of the footprint-extraction fast path and its banded convolution.

The claim of the extraction rework: replacing the per-kernel-offset Python
loops (``im2col``, the ``pool_activation`` block loop), skipping the argmax
materialization of inference-mode max pooling, and running the frozen
backbone in float32 makes end-to-end footprint extraction at least twice as
fast as the pre-PR loop-based float64 path — on the *same* fitted model, with
trajectories agreeing to well below the probes' diagnostic resolution.

The reference side reconstructs the original behaviour exactly from the
test-only oracles in ``tests/reference/backbone_oracle.py``: an im2col
convolution over the loop-based ``im2col_reference``, a max pool that always
materializes the column matrix and its argmax, the ``pool_activation``
block loop, and float64 end to end.

A second measurement isolates the convolution: the width-tiled banded
``conv2d_forward`` against the im2col formulation at its best (the
sliding-window :func:`repro.nn.functional.im2col` plus one matmul), on
LeNet's two convolution shapes at 128 cases in float32.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import SoftmaxInstrumentedModel
from repro.core import instrument as instrument_module
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.models import LeNet
from repro.nn import functional as F
from tests.reference import backbone_oracle as oracle

NUM_CASES = 160
REPEATS = 5
SMOKE_MIN_SPEEDUP = 1.4  # CI floor; a 2-core VM measures x2.8-7.6 (x2.2-2.5 before)
PARITY_BOUND = 1e-5
RESULT_PATH = os.environ.get("BENCH_EXTRACTION_JSON", "BENCH_extraction.json")

#: LeNet's convolutions on its 14 px inputs: (in_channels, size, out_channels).
LENET_CONV_SHAPES = ((1, 14, 6), (6, 7, 16))
CONV_CASES = 128
CONV_REPEATS = 9
MIN_CONV_SPEEDUP = 1.2  # CI floor; a 2-core VM measures x3.2-4.4

_RECORD: dict = {}


def _write_record(**values) -> None:
    """Merge ``values`` into this module's ``BENCH_extraction.json`` record."""
    _RECORD.update(values)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RECORD, handle, indent=2, sort_keys=True)


def _maxpool2d_forward_pre_pr(x, kernel, stride, pad=0, return_argmax=True):
    """The seed max pool: loop-based im2col + unconditional argmax + max."""
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, pad)
    out_w = F.conv_output_size(w, kernel, stride, pad)
    col = oracle.im2col_reference(x, kernel, kernel, stride, pad).reshape(
        n * out_h * out_w, c, kernel * kernel
    )
    argmax = col.argmax(axis=2)
    out = col.max(axis=2)
    return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2), argmax


@pytest.fixture(scope="module")
def fitted_scenario():
    """A fitted instrumented model plus a production batch to extract."""
    generator = SyntheticImageClassification(SyntheticConfig(
        num_classes=4, image_size=16, channels=1, templates_per_class=2,
        blobs_per_template=2, bars_per_template=1, noise_std=0.05,
        max_shift=1, distractor_bars=0, seed=5,
    ))
    train, test = generator.splits(n_train_per_class=10, n_test_per_class=40, rng=0)
    model = LeNet(
        input_shape=(1, 16, 16), num_classes=4,
        conv_channels=(8, 16), dense_units=(32,), kernel_size=3, rng=3,
    )
    model.eval()
    instrumented = SoftmaxInstrumentedModel(model, probe_epochs=1, rng=0).fit(train)
    inputs, _ = test.arrays()
    return instrumented, inputs[:NUM_CASES]


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class _PrePrPath:
    """Context manager that swaps in the pre-PR loop kernels + float64."""

    def __init__(self, instrumented):
        self.instrumented = instrumented

    def __enter__(self):
        self._saved = (
            F.conv2d_forward, F.maxpool2d_forward,
            instrument_module.pool_activation, self.instrumented.inference_dtype,
        )
        F.conv2d_forward = oracle.conv2d_forward
        F.maxpool2d_forward = _maxpool2d_forward_pre_pr
        instrument_module.pool_activation = oracle.pool_activation_reference
        self.instrumented.inference_dtype = np.dtype(np.float64)
        return self

    def __exit__(self, *exc):
        (F.conv2d_forward, F.maxpool2d_forward,
         instrument_module.pool_activation, self.instrumented.inference_dtype) = self._saved


def test_fast_path_beats_loop_based_reference(fitted_scenario):
    instrumented, inputs = fitted_scenario

    # Warm-up both sides so first-touch allocations skew neither.
    instrumented.layer_distributions(inputs[:4])
    fast_seconds = _best_of(lambda: instrumented.layer_distributions(inputs))
    fast_traj, fast_final = instrumented.layer_distributions(inputs)

    with _PrePrPath(instrumented):
        instrumented.layer_distributions(inputs[:4])
        ref_seconds = _best_of(lambda: instrumented.layer_distributions(inputs))
        ref_traj, ref_final = instrumented.layer_distributions(inputs)

    speedup = ref_seconds / max(fast_seconds, 1e-9)
    print(
        f"\npre-PR loop path: {ref_seconds * 1e3:7.1f} ms  "
        f"({inputs.shape[0] / ref_seconds:8.1f} cases/s)"
    )
    print(
        f"fast path:        {fast_seconds * 1e3:7.1f} ms  "
        f"({inputs.shape[0] / fast_seconds:8.1f} cases/s)  speedup x{speedup:.2f}"
    )

    _write_record(
        num_cases=int(inputs.shape[0]),
        cases_per_sec_fast=inputs.shape[0] / fast_seconds,
        cases_per_sec_reference=inputs.shape[0] / ref_seconds,
        fast_vs_loop_speedup=speedup,
    )

    # Same trajectories (to float32 resolution), radically different cost.
    assert np.max(np.abs(fast_traj - ref_traj)) < PARITY_BOUND
    assert np.max(np.abs(fast_final - ref_final)) < PARITY_BOUND
    assert speedup >= SMOKE_MIN_SPEEDUP, (
        f"extraction fast path only reached x{speedup:.2f} over the pre-PR "
        f"loop-based path (floor: x{SMOKE_MIN_SPEEDUP})"
    )


def test_per_case_latency_does_not_regress(fitted_scenario):
    """Serving extracts single cases too; the fast path must not lose there."""
    instrumented, inputs = fitted_scenario
    single = inputs[:32]

    instrumented.layer_distributions(single[:1])
    fast_seconds = _best_of(
        lambda: [instrumented.layer_distributions(single[i:i + 1]) for i in range(32)],
        repeats=3,
    )
    with _PrePrPath(instrumented):
        instrumented.layer_distributions(single[:1])
        ref_seconds = _best_of(
            lambda: [instrumented.layer_distributions(single[i:i + 1]) for i in range(32)],
            repeats=3,
        )

    ratio = ref_seconds / max(fast_seconds, 1e-9)
    print(
        f"\nper-case: pre-PR {ref_seconds * 1e3:6.1f} ms   "
        f"fast {fast_seconds * 1e3:6.1f} ms   x{ratio:.2f}"
    )
    # Per-case work is python-overhead-bound and timed at millisecond scale,
    # so shared-CI noise is large; only a 2x-or-worse regression (far outside
    # scheduler jitter — locally this measures ~x1.0) fails the gate.
    assert ratio > 0.5, f"fast path regressed per-case latency by x{1 / ratio:.2f}"


def test_banded_conv_beats_im2col():
    """The banded convolution against im2col + matmul on LeNet's conv shapes."""
    rng = np.random.default_rng(0)
    banded_ms, im2col_ms = [], []
    x = rng.standard_normal((CONV_CASES, 1, 14, 14)).astype(np.float32)
    for c_in, size, c_out in LENET_CONV_SHAPES:
        assert x.shape[1:] == (c_in, size, size)
        weight = rng.standard_normal((c_out, c_in, 5, 5))
        bias = rng.standard_normal(c_out)

        def banded():
            return F.conv2d_forward(x, weight, bias, 1, 2)

        def im2col():
            return oracle.conv2d_forward(x, weight, bias, 1, 2, im2col=F.im2col)

        out, expected = banded(), im2col()
        scale = oracle.conv2d_forward(np.abs(x), np.abs(weight), np.abs(bias), 1, 2)
        assert np.all(np.abs(out - expected) <= PARITY_BOUND * (1.0 + scale))
        banded_ms.append(_best_of(banded, CONV_REPEATS) * 1e3)
        im2col_ms.append(_best_of(im2col, CONV_REPEATS) * 1e3)
        # The next shape's input is this layer's pooled output, in the
        # channels-last layout the banded convolution hands to LeNet's conv2.
        x, _ = F.maxpool2d_forward(F.relu(out), 2, 2, return_argmax=False)

    speedup = sum(im2col_ms) / sum(banded_ms)
    for (c_in, size, c_out), band, col in zip(LENET_CONV_SHAPES, banded_ms, im2col_ms):
        print(
            f"\nconv {c_in}x{size}x{size} -> {c_out}: banded {band:6.2f} ms   "
            f"im2col {col:6.2f} ms   x{col / band:.2f}"
        )
    print(f"both LeNet convolutions at {CONV_CASES} cases: x{speedup:.2f}")
    _write_record(
        conv_cases=CONV_CASES,
        conv_ms_banded=banded_ms,
        conv_ms_im2col=im2col_ms,
        banded_vs_im2col_conv_speedup=speedup,
    )
    assert speedup >= MIN_CONV_SPEEDUP, (
        f"banded convolution only reached x{speedup:.2f} over im2col "
        f"(floor: x{MIN_CONV_SPEEDUP})"
    )
