"""CI perf-regression gate over the committed BENCH_*.json baselines.

Every throughput benchmark in this suite emits a ``BENCH_<name>.json`` record
into the working directory.  This script compares the gated metrics of each
record against the committed baseline in ``benchmarks/baselines/`` and fails
(exit code 1) when a metric drops more than ``--tolerance`` (default 30%)
below its baseline value.

Gated metrics are *ratios* (batched-vs-loop, cache-on-vs-off, ...)
rather than absolute cases/sec: ratios compare two measurements taken on the
same machine in the same process, so they transfer between a laptop and a
shared CI runner, while absolute throughput does not.  The committed
baselines are deliberately conservative CI-class values — see
``benchmarks/baselines/README.md`` — so the gate catches real architectural
regressions (a speedup collapsing toward 1x) instead of runner noise.

Usage::

    python benchmarks/check_regression.py            # gate current dir vs baselines
    python benchmarks/check_regression.py --update   # rewrite baselines from current
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: file name -> gated metric keys (higher is better for every one of them).
GATES = {
    "BENCH_gateway.json": [
        "gateway_cache_vs_nocache_speedup",
    ],
    "BENCH_diagnosis.json": [
        "batched_vs_loop_speedup",
        "fused_vs_reference_kernel_speedup",
    ],
    "BENCH_extraction.json": [
        "fast_vs_loop_speedup",
        "banded_vs_im2col_conv_speedup",
    ],
    "BENCH_serve.json": [
        "batched_vs_loop_speedup",
    ],
    "BENCH_client.json": [
        "client_vs_raw_efficiency",
    ],
    "BENCH_wire.json": [
        "binary_vs_json_efficiency",
    ],
    "BENCH_obs.json": [
        "traced_vs_untraced_throughput",
    ],
    "BENCH_monitor.json": [
        "monitor_vs_plain_throughput",
    ],
}

DEFAULT_TOLERANCE = 0.30


def load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check(current_dir: Path, baseline_dir: Path, tolerance: float) -> int:
    failures = []
    width = max(len(name) for gates in GATES.values() for name in gates)
    for file_name, keys in sorted(GATES.items()):
        current_path = current_dir / file_name
        baseline_path = baseline_dir / file_name
        if not baseline_path.exists():
            failures.append(f"{file_name}: baseline missing at {baseline_path}")
            continue
        if not current_path.exists():
            failures.append(
                f"{file_name}: no current record at {current_path} — did the benchmark run?"
            )
            continue
        current, baseline = load(current_path), load(baseline_path)
        print(f"{file_name}:")
        for key in keys:
            if key not in baseline:
                failures.append(f"{file_name}: baseline lacks gated key {key!r}")
                continue
            if key not in current:
                failures.append(f"{file_name}: current record lacks gated key {key!r}")
                continue
            floor = float(baseline[key]) * (1.0 - tolerance)
            value = float(current[key])
            verdict = "ok" if value >= floor else "REGRESSION"
            print(
                f"  {key:<{width}}  current {value:8.2f}   baseline {float(baseline[key]):8.2f}"
                f"   floor {floor:8.2f}   {verdict}"
            )
            if value < floor:
                failures.append(
                    f"{file_name}: {key} = {value:.2f} dropped below "
                    f"{floor:.2f} ({(1.0 - tolerance) * 100:.0f}% of baseline "
                    f"{float(baseline[key]):.2f})"
                )
    if failures:
        print("\nperf-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf-regression gate passed.")
    return 0


def update(current_dir: Path, baseline_dir: Path) -> int:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    missing = []
    for file_name, keys in sorted(GATES.items()):
        current_path = current_dir / file_name
        if not current_path.exists():
            missing.append(file_name)
            continue
        record = load(current_path)
        snapshot = {key: record[key] for key in keys if key in record}
        with open(baseline_dir / file_name, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated {baseline_dir / file_name}: {snapshot}")
    if missing:
        print(f"skipped (no current record): {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly-emitted BENCH_*.json records",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(__file__).resolve().parent / "baselines",
        help="directory holding the committed baseline records",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline before failing (default 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from the current records instead of gating",
    )
    args = parser.parse_args(argv)
    if args.update:
        return update(args.current_dir, args.baseline_dir)
    return check(args.current_dir, args.baseline_dir, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
