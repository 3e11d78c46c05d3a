"""Integration test of the Table I harness on a reduced-but-real workload.

The statistical headline claim (diagonal dominance in every row) is asserted
by the benchmark harness on the full `default` preset; this test keeps CI fast
by running a single LeNet row with the `quick` preset and checking that the
harness produces well-formed rows and that LeNet's diagnosis identifies the
injected UTD defect — the cheapest cell that still demonstrates the claim.
"""

import pytest

from repro.defects import DefectType
from repro.experiments import format_table1, preset, run_table1


@pytest.mark.slow
def test_lenet_utd_row_is_well_formed_on_quick_preset():
    result = run_table1(models=["lenet"], defects=["utd"], settings=preset("quick"))
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.model == "lenet"
    assert row.injected_defect is DefectType.UTD
    assert sum(row.ratios.values()) == pytest.approx(1.0)
    assert row.num_faulty_cases > 0
    rendered = format_table1(result)
    assert "lenet" in rendered
    # The headline diagonal-dominance claim is evaluated at benchmark scale
    # (benchmarks/test_table1_*.py record it per cell, next to the paper's
    # ratios, through benchmarks/table1_harness.py); at the reduced quick/CI
    # scale we assert the weaker, stable part of the shape: injecting label
    # noise must produce more UTD evidence than ITD evidence.
    assert row.ratios[DefectType.UTD] > row.ratios[DefectType.ITD]


@pytest.mark.slow
def test_table1_result_serializes():
    result = run_table1(models=["lenet"], defects=["sd"], settings=preset("smoke"))
    payload = result.as_dict()
    assert "rows" in payload and len(payload["rows"]) == 1
    assert 0.0 <= payload["diagonal_accuracy"] <= 1.0
