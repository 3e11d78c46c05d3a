"""The struct-of-arrays diagnosis core equals the per-case oracle.

The pipelines carry a :class:`~repro.core.FootprintBatch` from extraction to
:func:`~repro.core.compute_specifics_batch`, whose
:class:`~repro.core.SpecificsBatch` columns the classifier reads directly.
The property below runs that path and, next to it, the per-case path of
``tests/reference/diagnosis_oracle.py``: one :class:`~repro.core.Footprint`
per misclassified row, the oracle's ``specifics`` and its loop aggregate.
Specifics and ratios agree to 1e-12 and counts exactly, under both
extraction dtypes, for libraries with classes that have no pattern or no
stored members, 1 to 8 layers and nn emphases 0, 0.5 and 1.

A construction spy then shows that ``LocalDiagnoser.diagnose_arrays`` and
``DiagnosisService.diagnose`` build no per-case object at all, while reading
``report.verdicts`` still yields the oracle's verdicts.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import DiagnoserConfig, LocalDiagnoser
from repro.core import (
    CaseVerdict,
    ClassExecutionPattern,
    DefectCaseClassifier,
    DefectClassifierConfig,
    DiagnosisContext,
    Footprint,
    FootprintExtractor,
    FootprintSpecifics,
    PatternLibrary,
    compute_specifics_batch,
    error_concentration,
)
from repro.core.specifics import SPECIFICS_FIELDS
from repro.nn.dtype import autocast
from repro.serve import ArtifactRegistry, DiagnosisService
from tests.reference import diagnosis_oracle

TOLERANCE = 1e-12

EXAMPLE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_library(rng, num_layers, num_classes, kinds, nn_emphasis, similarity_emphasis):
    """A hand-assembled library: ``kinds`` maps class id -> members / none / empty."""
    stub = SimpleNamespace(
        num_classes=num_classes,
        layer_names=tuple(f"layer{i}" for i in range(num_layers)),
        feature_quality=lambda: 0.7,
    )
    patterns = {}
    for class_id, kind in kinds.items():
        mean = rng.dirichlet(np.full(num_classes, 0.7), size=num_layers)
        if kind == "members":
            members = rng.dirichlet(
                np.full(num_classes, 0.7), size=(int(rng.integers(1, 7)), num_layers)
            )
        elif kind == "none":
            members = None
        else:
            members = np.zeros((0, num_layers, num_classes))
        patterns[class_id] = ClassExecutionPattern(
            class_id=class_id,
            mean_trajectory=mean,
            mean_confidence=mean[:, class_id],
            dispersion=float(rng.uniform(0.0, 0.5)),
            mean_final_confidence=0.5,
            mean_entropy=0.5,
            support=1 if members is None else max(1, members.shape[0]),
            member_trajectories=members,
            member_nn_scale=float(rng.uniform(0.0, 0.5)),
        )
    library = PatternLibrary(
        stub, late_layer_emphasis=similarity_emphasis, nn_layer_emphasis=nn_emphasis
    )
    library.patterns = patterns
    library._training_inconsistency = float(rng.uniform(0.0, 1.0))
    library._fitted = True
    return library


def make_cases(rng, num_cases, num_faulty, num_layers, num_classes, dtype):
    """``(trajectories, final_probs, labels)`` with exactly ``num_faulty`` misclassified rows."""
    trajectories = rng.dirichlet(np.full(num_classes, 0.5), size=(num_cases, num_layers))
    final_probs = rng.dirichlet(np.full(num_classes, 0.5), size=num_cases)
    # Extraction hands the arrays over in its dtype; round through it.
    trajectories = trajectories.astype(dtype)
    final_probs = final_probs.astype(dtype)
    labels = final_probs.argmax(axis=1).astype(np.int64)
    faulty = rng.permutation(num_cases)[:num_faulty]
    labels[faulty] = (labels[faulty] + rng.integers(1, num_classes, num_faulty)) % num_classes
    return trajectories, final_probs, labels


def check_against_per_case_path(library, classifier, trajectories, final_probs, labels):
    num_classes = final_probs.shape[1]
    context_kwargs = dict(
        pattern_overlap=library.pattern_overlap(),
        feature_quality=library.feature_quality(),
        training_inconsistency=library.training_inconsistency(),
    )

    # The struct-of-arrays path, as the pipelines run it.
    faulty = FootprintExtractor(library.instrumented).from_arrays(
        trajectories, final_probs, labels
    ).misclassified()
    specifics = compute_specifics_batch(faulty, library)
    context = classifier.build_context(specifics, num_classes=num_classes, **context_kwargs)
    report = classifier.aggregate(specifics, context=context)

    # The per-case path: one object per case, one library query at a time.
    footprints = [
        Footprint(
            trajectory=trajectories[i],
            final_probs=final_probs[i],
            predicted=int(final_probs[i].argmax()),
            true_label=int(labels[i]),
        )
        for i in range(len(labels))
        if int(final_probs[i].argmax()) != int(labels[i])
    ]
    rows = [diagnosis_oracle.specifics(fp, library) for fp in footprints]
    oracle_context = DiagnosisContext(
        error_concentration=error_concentration(
            [s.true_label for s in rows], num_classes=num_classes
        ),
        **context_kwargs,
    )
    oracle = diagnosis_oracle.aggregate(classifier, rows, context=oracle_context)

    assert len(specifics) == len(rows) == report.num_cases == oracle.num_cases
    for name in SPECIFICS_FIELDS:
        np.testing.assert_allclose(
            getattr(specifics, name), [getattr(s, name) for s in rows],
            rtol=0, atol=TOLERANCE, err_msg=name,
        )
    assert context == oracle_context
    assert report.counts == oracle.counts
    for defect, ratio in oracle.ratios.items():
        assert abs(report.ratios[defect] - ratio) <= TOLERANCE
    return report, oracle


@st.composite
def scenarios(draw):
    num_layers = draw(st.integers(1, 8))
    num_classes = draw(st.integers(2, 6))
    # At least one class has a pattern; the others may have none.
    with_pattern = draw(
        st.lists(st.integers(0, num_classes - 1), min_size=1, max_size=num_classes, unique=True)
    )
    kinds = {c: draw(st.sampled_from(["members", "none", "empty"])) for c in with_pattern}
    num_cases = draw(st.integers(1, 12))
    return dict(
        num_layers=num_layers,
        num_classes=num_classes,
        kinds=kinds,
        num_cases=num_cases,
        num_faulty=draw(st.integers(1, num_cases)),
        nn_emphasis=draw(st.sampled_from([0.0, 0.5, 1.0])),
        similarity_emphasis=draw(st.sampled_from([0.0, 0.5, 1.0])),
        soft=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def run_scenario(scenario, dtype):
    rng = np.random.default_rng(scenario["seed"])
    library = make_library(
        rng, scenario["num_layers"], scenario["num_classes"], scenario["kinds"],
        scenario["nn_emphasis"], scenario["similarity_emphasis"],
    )
    classifier = DefectCaseClassifier(
        DefectClassifierConfig(soft_assignment=scenario["soft"], temperature=0.35)
    )
    with autocast(dtype):
        arrays = make_cases(
            rng, scenario["num_cases"], scenario["num_faulty"],
            scenario["num_layers"], scenario["num_classes"], dtype,
        )
        return check_against_per_case_path(library, classifier, *arrays)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@EXAMPLE_SETTINGS
@given(scenario=scenarios())
def test_struct_of_arrays_path_equals_per_case_path(dtype, scenario):
    run_scenario(scenario, dtype)


EDGE_CASES = {
    "one_faulty_case": dict(
        num_cases=6, num_faulty=1, kinds={0: "members", 1: "members", 2: "members"}
    ),
    "class_without_pattern": dict(num_cases=8, num_faulty=8, kinds={0: "members"}),
    "empty_member_sets": dict(
        num_cases=8, num_faulty=5, kinds={0: "empty", 1: "none", 2: "members"}
    ),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("nn_emphasis", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("num_layers", [1, 8])
@pytest.mark.parametrize("edge", sorted(EDGE_CASES))
def test_edge_cases(dtype, nn_emphasis, num_layers, edge):
    scenario = dict(
        num_layers=num_layers, num_classes=3, nn_emphasis=nn_emphasis,
        similarity_emphasis=0.5, soft=True, seed=11, **EDGE_CASES[edge],
    )
    report, _ = run_scenario(scenario, dtype)
    if edge == "one_faulty_case":
        assert report.num_cases == 1


# -- no per-case objects on the served paths -------------------------------------------


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("soa_registry")
    ArtifactRegistry(root).register("tiny", fitted_deepmorph)
    return root


@pytest.fixture
def constructions(monkeypatch):
    """Counts constructions of the per-case classes."""
    counts = Counter()
    for cls in (Footprint, FootprintSpecifics, CaseVerdict):
        original = cls.__init__

        def counted(self, *args, _cls=cls, _original=original, **kwargs):
            counts[_cls.__name__] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def oracle_report(morph, inputs, labels, inference_dtype):
    """Per-case specifics and the loop aggregate on the pipelines' extraction arrays."""
    config = DiagnoserConfig(inference_dtype=inference_dtype)
    extractor = FootprintExtractor(morph.instrumented, batch_size=config.extraction_batch_size)
    (trajectories, final_probs), = extractor.extract_coalesced([inputs])
    rows = [
        diagnosis_oracle.specifics(fp, morph.patterns)
        for fp in extractor.from_arrays(trajectories, final_probs, labels)
        if fp.is_misclassified
    ]
    context = morph.case_classifier.build_context(
        rows,
        num_classes=morph.model.num_classes,
        pattern_overlap=morph.patterns.pattern_overlap(),
        feature_quality=morph.patterns.feature_quality(),
        training_inconsistency=morph.patterns.training_inconsistency(),
    )
    return diagnosis_oracle.aggregate(morph.case_classifier, rows, context=context)


def assert_verdicts_match(verdicts, oracle):
    assert len(verdicts) == len(oracle.verdicts)
    for got, want in zip(verdicts, oracle.verdicts):
        assert got.verdict == want.verdict
        for defect in want.evidence:
            assert abs(got.evidence[defect] - want.evidence[defect]) <= TOLERANCE
            assert abs(got.scores[defect] - want.scores[defect]) <= TOLERANCE
        for key, value in want.specifics.as_dict().items():
            assert abs(got.specifics.as_dict()[key] - value) <= TOLERANCE, key


@pytest.mark.parametrize("inference_dtype", ["float32", "float64"])
def test_served_paths_build_no_per_case_objects(
    registry_dir, tiny_splits, constructions, inference_dtype
):
    _, test = tiny_splits
    inputs, labels = test.arrays()
    config = DiagnoserConfig(inference_dtype=inference_dtype)
    local = LocalDiagnoser.from_registry(registry_dir, "tiny", config=config)
    with DiagnosisService(
        registry_dir, inference_dtype=inference_dtype
    ) as service:
        local_report = local.diagnose_arrays(inputs, labels)
        served = service.diagnose("tiny", inputs, labels)
    assert constructions == Counter()
    assert local_report.to_dict() == served.as_dict()

    # Drill-down still works: the verdicts are built when read.
    verdicts = served.verdicts
    assert constructions["CaseVerdict"] == served.num_cases
    oracle = oracle_report(local.morph, inputs, labels, inference_dtype)
    assert served.counts == oracle.counts
    for defect, ratio in oracle.ratios.items():
        assert abs(served.ratios[defect] - ratio) <= TOLERANCE
    assert_verdicts_match(verdicts, oracle)
    assert served.verdicts is verdicts
