"""Pytest hooks for the benchmark harness.

The actual Table I cell runner lives in :mod:`table1_harness` (a plain module,
importable by the benchmark files with an absolute import) so the suite works
both from the repository root (``pytest benchmarks``) and from inside the
``benchmarks/`` directory; the repository root is put on the path too, for
the test-only reference implementations under ``tests/reference/``.  This
conftest otherwise only contributes the terminal summary that prints the
reproduced table.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.dirname(_HERE)]

from table1_harness import _TABLE1_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLE1_RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced Table I (ratios per injected defect)")
    header = (
        f"{'model':10s} {'inject':7s} {'ITD':>7s} {'UTD':>7s} {'SD':>7s}   "
        f"{'dominant':9s} {'match':5s}  {'acc':>6s} {'faulty':>6s}   paper (ITD/UTD/SD)"
    )
    terminalreporter.write_line(header)
    terminalreporter.write_line("-" * len(header))
    for row in _TABLE1_RESULTS:
        paper = row["paper_ratios"]
        paper_text = "/".join(f"{v:.3f}" for v in paper) if paper else "-"
        terminalreporter.write_line(
            f"{row['model']:10s} {row['injected_defect'].upper():7s} "
            f"{row['ratio_itd']:7.3f} {row['ratio_utd']:7.3f} {row['ratio_sd']:7.3f}   "
            f"{row['dominant'].upper():9s} {'yes' if row['diagonal_correct'] else 'NO':5s}  "
            f"{row['test_accuracy']:6.3f} {row['num_faulty_cases']:6d}   {paper_text}"
        )
