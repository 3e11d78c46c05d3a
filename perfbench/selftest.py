"""Smoke-length self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload for two seconds in both trace modes and checks that
each metric named in ``BENCHMARK.json`` is printed with its unit and that
every output was checked and found correct; that the served-report check
rejects a deliberately corrupted response; and that the benchmark fails
without a result where only ``BENCHMARK.json`` and ``perfbench`` exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def check_metrics(bench: dict) -> None:
    for workload in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload["name"], trace)
            if done.returncode != 0:
                raise AssertionError(f"{workload['name']} trace={trace} exited "
                                     f"{done.returncode}:\n{done.stderr[-2000:]}")
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))
            print(f"ok  {workload['name']} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} requests checked")


def check_corruption_is_caught() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import models
    from repro.api import LocalDiagnoser
    from repro.core import DeepMorph
    from repro.wire import get_codec
    from run import PROBE_EPOCHS, reports_agree

    model, train_data, production = models.load("lenet")
    morph = DeepMorph(probe_epochs=PROBE_EPOCHS, rng=0).fit(model, train_data)
    inputs, labels = production.arrays()
    want = LocalDiagnoser(morph, name="bench").diagnose_arrays(inputs[:64], labels[:64])
    codec = get_codec("json")
    document = json.loads(codec.encode_report(want))
    assert reports_agree(codec.decode_report(json.dumps(document).encode()), want)
    defect = want.dominant_defect
    for corrupt in (
        lambda doc: doc["ratios"].__setitem__(defect, doc["ratios"][defect] - 1e-4),
        lambda doc: doc["counts"].__setitem__(defect, doc["counts"][defect] + 1),
    ):
        bad = json.loads(json.dumps(document))
        corrupt(bad)
        assert not reports_agree(codec.decode_report(json.dumps(bad).encode()), want)
    print("ok  a corrupted response fails the output check")


def check_fails_without_sources() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench(bare, "offline-lenet", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok  no result and a non-zero exit without the program's sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_fails_without_sources()
    check_corruption_is_caught()
    check_metrics(bench)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
