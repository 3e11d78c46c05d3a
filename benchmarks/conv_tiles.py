"""Time every band tile of every conv layer of the four scaled models.

The banded convolution (``repro.nn.functional.conv2d_forward``) computes
``tile`` output columns per gathered row, and ``_band_tile`` picks the tile
from the layer's whole shape.  This script times the banded kernel at every
tile the rule chooses among (``_band_tiles``: 1 to 8 columns at stride 1, 1
to 4 at stride 2, never wider than the output) on each distinct conv layer
of the scaled LeNet, AlexNet, ResNet and DenseNet, at 32 and 128 rows, in
float32 and float64.  The tiles are timed interleaved, round by round, so
that drift on a shared host hits them alike, and each is reported as its
median ms.

Each line is one layer: the ms of each tile, ``*`` on the tile ``_band_tile``
picks, and the picked tile's time over the fastest one.  Each model ends with
its conv ms per forward pass (a layer counted as often as the model runs it)
at the picked tiles, at the fastest tiles, and at the kernel-only tile the
rule replaced (8 columns at stride 1, 4 at stride 2, capped at the output
width; one for non-overlapping kernels).

Usage::

    PYTHONPATH=src python benchmarks/conv_tiles.py                 # 15 rounds
    PYTHONPATH=src python benchmarks/conv_tiles.py --rounds 1      # smoke run
"""

from __future__ import annotations

import argparse
import statistics
import time
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.config import preset
from repro.experiments.runner import make_model
from repro.nn import functional as F

MODELS = ("lenet", "alexnet", "resnet", "densenet")
ROWS = (32, 128)
DTYPES = (np.float32, np.float64)

#: ``(input (C, H, W), weight shape, stride, pad)`` of one conv layer.
Layer = Tuple[Tuple[int, int, int], Tuple[int, int, int, int], int, int]


def conv_layers(model: str) -> Counter:
    """How often a forward pass of the scaled ``model`` runs each distinct conv layer."""
    net = make_model(preset("quick").for_model(model))
    net.eval()
    layers: Counter = Counter()
    forward = F.conv2d_forward

    def recording(x, weight, bias, stride, pad):
        layers[(x.shape[1:], weight.shape, stride, pad)] += 1
        return forward(x, weight, bias, stride, pad)

    F.conv2d_forward = recording
    try:
        net.predict(np.zeros((1, *net.input_shape)))
    finally:
        F.conv2d_forward = forward
    return layers


def kernel_only_tile(weight_shape, stride: int, out_w: int) -> int:
    """The tile of the rule that looked at the kernel and stride alone: the widest."""
    return 1 if weight_shape[3] <= stride else F._band_tiles(stride, out_w)[-1]


def time_tiles(layer: Layer, rows: int, dtype, rounds: int) -> Dict[int, float]:
    """Median ms of one banded convolution of ``layer`` at each candidate tile."""
    (c_in, h, w), weight_shape, stride, pad = layer
    rng = np.random.default_rng(0)
    x = rng.standard_normal((rows, c_in, h, w)).astype(dtype)
    weight = rng.standard_normal(weight_shape)
    bias = rng.standard_normal(weight_shape[0])
    out_w = F.conv_output_size(w, weight_shape[3], stride, pad)
    tiles = F._band_tiles(stride, out_w)
    for tile in tiles:  # warm-up
        F._banded_conv2d(x, weight, bias, stride, pad, tile)
    samples: Dict[int, List[float]] = {tile: [] for tile in tiles}
    for _ in range(rounds):
        for tile in tiles:
            start = time.perf_counter()
            F._banded_conv2d(x, weight, bias, stride, pad, tile)
            samples[tile].append(time.perf_counter() - start)
    return {tile: 1e3 * statistics.median(times) for tile, times in samples.items()}


def describe(layer: Layer) -> str:
    (c_in, _, w), (c_out, _, kh, kw), stride, _ = layer
    return f"{c_in}->{c_out} {kh}x{kw} s{stride} {w}px"


def report(model: str, rows: int, dtype, rounds: int) -> None:
    layers = conv_layers(model)
    name = np.dtype(dtype).name
    print(f"\n{model}, {rows} rows, {name}")
    print(f"  {'layer':24s} {'runs':>4s} " + " ".join(f"{'t=' + str(t):>7s}" for t in range(1, 9))
          + "  picked/best")
    picked_ms = best_ms = kernel_only_ms = 0.0
    for layer, runs in layers.items():
        (_, _, w), weight_shape, stride, pad = layer
        out_w = F.conv_output_size(w, weight_shape[3], stride, pad)
        ms = time_tiles(layer, rows, dtype, rounds)
        picked = F._band_tile(weight_shape, stride, out_w)
        cells = []
        for tile in range(1, 9):
            cell = f"{ms[tile]:.3f}{'*' if tile == picked else ' '}" if tile in ms else ""
            cells.append(f"{cell:>7s}")
        best = min(ms.values())
        print(f"  {describe(layer):24s} {runs:4d} " + " ".join(cells)
              + f"  {ms[picked] / best:10.2f}")
        picked_ms += runs * ms[picked]
        best_ms += runs * best
        kernel_only_ms += runs * ms[kernel_only_tile(weight_shape, stride, out_w)]
    print(f"  conv ms per forward: picked {picked_ms:.3f}, fastest {best_ms:.3f}, "
          f"kernel-only {kernel_only_ms:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15,
                        help="timed calls per tile and layer (default: 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for model in MODELS:
        for rows in ROWS:
            for dtype in DTYPES:
                report(model, rows, dtype, args.rounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
